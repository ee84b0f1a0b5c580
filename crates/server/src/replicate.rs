//! Primary-side replication shipper (DESIGN §15).
//!
//! In cluster mode every admitted client write on an owned range with
//! followers is offered to the [`Replicator`], which ships it
//! asynchronously as a version-stamped `REPLICATE` frame to each
//! follower. One ship thread owns all follower connections and assigns
//! each range's shipment sequence number **at ship time**, so sequence
//! order equals ship order by construction and the follower applies
//! writes in the order the primary shipped them.
//!
//! The per-range **watermark** is the highest sequence number through
//! which *every* shipment so far has been acked by *all* followers —
//! i.e. the contiguous replicated prefix of the range's write stream.
//! A refused, timed-out, or skipped shipment stalls the watermark for
//! the rest of the epoch: replication is an availability hint, and the
//! stall makes the gap observable instead of papering over it. A new
//! epoch (the directory re-pushing after promotion or migration) resets
//! sequences and watermarks, because the follower set itself changed.
//!
//! A follower that refuses a connection is marked down and skipped for
//! [`DOWN_BACKOFF`] instead of blocking the ship thread on every job —
//! a dead follower costs one connect timeout per backoff window, not
//! one per write.

use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client::Conn;
use crate::protocol::{Request, Response};

/// How long a follower stays skipped after a connect/ship failure.
const DOWN_BACKOFF: Duration = Duration::from_millis(500);

/// Per-shipment socket timeout: a follower that cannot ack within this
/// is treated as failed (and backed off), not waited on.
const SHIP_TIMEOUT: Duration = Duration::from_millis(1000);

/// Bounded in-place retries when a follower answers `BUSY` (its shard
/// queue is momentarily full under shared load).
const BUSY_RETRIES: usize = 3;

/// One write queued for shipment to a range's followers.
#[derive(Debug, Clone, Copy)]
struct ReplJob {
    /// Epoch captured at offer time; stale jobs are dropped at ship
    /// time so an epoch flip cannot advance the new epoch's watermark
    /// with old-epoch traffic.
    epoch: u64,
    range: u32,
    tenant: u32,
    /// Wrapped global offset (the follower rebases it itself).
    offset: u64,
    bytes: u32,
}

/// Counters the ship thread exports into STATS.
#[derive(Debug, Default)]
pub(crate) struct ReplCounters {
    /// Jobs processed (one per admitted write on a replicated range).
    pub(crate) shipped: AtomicU64,
    /// Follower acks received.
    pub(crate) acked: AtomicU64,
    /// Shipments skipped because the follower was backed off or the
    /// job's epoch was stale.
    pub(crate) skipped: AtomicU64,
    /// Shipments refused or lost (connect/send/ack failure).
    pub(crate) failed: AtomicU64,
}

/// The primary-side shipping engine: target table, watermarks, and the
/// ship thread's inbox. Lives in `Shared` for cluster-mode servers.
pub(crate) struct Replicator {
    /// Epoch the target table belongs to.
    epoch: AtomicU64,
    /// range → follower addresses (from the directory's MAP_PUSH).
    targets: Mutex<HashMap<u32, Vec<String>>>,
    /// Per-range contiguous replicated prefix (0 = nothing replicated).
    watermarks: Vec<AtomicU64>,
    pub(crate) counters: ReplCounters,
    tx: Mutex<Option<Sender<ReplJob>>>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Replicator {
    /// Creates the engine and starts its ship thread.
    pub(crate) fn start(shards: usize) -> io::Result<std::sync::Arc<Replicator>> {
        let (tx, rx) = mpsc::channel();
        let repl = std::sync::Arc::new(Replicator {
            epoch: AtomicU64::new(0),
            targets: Mutex::new(HashMap::new()),
            watermarks: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            counters: ReplCounters::default(),
            tx: Mutex::new(Some(tx)),
            thread: Mutex::new(None),
        });
        let worker = std::sync::Arc::clone(&repl);
        let handle = std::thread::Builder::new()
            .name("rif-repl-ship".into())
            .spawn(move || ship_loop(&worker, &rx))?;
        *repl.thread.lock().unwrap_or_else(|e| e.into_inner()) = Some(handle);
        Ok(repl)
    }

    /// Installs a new epoch's shipping targets, resetting sequences and
    /// watermarks (the follower set changed, so the old contiguous
    /// prefix is meaningless). Called under the MAP_PUSH epoch gate.
    pub(crate) fn update_targets(&self, epoch: u64, replicas: &[(u32, String)]) {
        let mut grouped: HashMap<u32, Vec<String>> = HashMap::new();
        for (range, addr) in replicas {
            grouped.entry(*range).or_default().push(addr.clone());
        }
        {
            let mut t = self.targets.lock().unwrap_or_else(|e| e.into_inner());
            *t = grouped;
        }
        for w in &self.watermarks {
            w.store(0, Ordering::Release);
        }
        // Publish the epoch last: a job offered against the old epoch
        // after this point is dropped by the ship thread's stale check.
        self.epoch.store(epoch, Ordering::Release);
    }

    /// Offers an admitted client write for shipment. Cheap when the
    /// range has no followers (one lock, no queueing).
    pub(crate) fn offer(&self, range: u32, tenant: u32, offset: u64, bytes: u32) {
        {
            let t = self.targets.lock().unwrap_or_else(|e| e.into_inner());
            match t.get(&range) {
                Some(f) if !f.is_empty() => {}
                _ => return,
            }
        }
        let job = ReplJob {
            epoch: self.epoch.load(Ordering::Acquire),
            range,
            tenant,
            offset,
            bytes,
        };
        if let Some(tx) = self.tx.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
            let _ = tx.send(job);
        }
    }

    /// The range's replication watermark: every shipment with
    /// `seq <= watermark` was acked by all followers this epoch.
    pub(crate) fn watermark(&self, range: usize) -> u64 {
        self.watermarks[range].load(Ordering::Acquire)
    }

    /// Number of ranges the engine tracks.
    pub(crate) fn shards(&self) -> usize {
        self.watermarks.len()
    }

    /// Stops the ship thread (drains nothing: pending jobs are dropped,
    /// which only stalls watermarks — acceptable at shutdown).
    pub(crate) fn stop(&self) {
        drop(self.tx.lock().unwrap_or_else(|e| e.into_inner()).take());
        if let Some(h) = self.thread.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = h.join();
        }
    }
}

/// The ship thread: drains jobs in order, owns all follower
/// connections, assigns per-range sequence numbers, and advances
/// watermarks on contiguous all-follower acks.
fn ship_loop(repl: &Replicator, rx: &Receiver<ReplJob>) {
    let mut conns: HashMap<String, Conn> = HashMap::new();
    let mut down: HashMap<String, Instant> = HashMap::new();
    let mut seqs: HashMap<u32, u64> = HashMap::new();
    let mut stalled: HashSet<u32> = HashSet::new();
    let mut shipped_epoch = 0u64;
    let mut next_tag = 1u64;
    while let Ok(job) = rx.recv() {
        if job.epoch != repl.epoch.load(Ordering::Acquire) {
            repl.counters.skipped.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        if job.epoch != shipped_epoch {
            seqs.clear();
            stalled.clear();
            shipped_epoch = job.epoch;
        }
        let followers: Vec<String> = {
            let t = repl.targets.lock().unwrap_or_else(|e| e.into_inner());
            t.get(&job.range).cloned().unwrap_or_default()
        };
        if followers.is_empty() {
            continue;
        }
        let seq = {
            let e = seqs.entry(job.range).or_insert(0);
            *e += 1;
            *e
        };
        let mut all_acked = true;
        for addr in followers {
            if let Some(until) = down.get(&addr) {
                if Instant::now() < *until {
                    repl.counters.skipped.fetch_add(1, Ordering::Relaxed);
                    all_acked = false;
                    continue;
                }
                down.remove(&addr);
            }
            let tag = next_tag;
            next_tag += 1;
            match ship_one(&mut conns, &addr, tag, &job, seq) {
                Ok(true) => {
                    repl.counters.acked.fetch_add(1, Ordering::Relaxed);
                }
                Ok(false) => {
                    repl.counters.failed.fetch_add(1, Ordering::Relaxed);
                    all_acked = false;
                }
                Err(_) => {
                    repl.counters.failed.fetch_add(1, Ordering::Relaxed);
                    all_acked = false;
                    conns.remove(&addr);
                    down.insert(addr, Instant::now() + DOWN_BACKOFF);
                }
            }
        }
        repl.counters.shipped.fetch_add(1, Ordering::Relaxed);
        if all_acked && !stalled.contains(&job.range) {
            repl.watermarks[job.range as usize].store(seq, Ordering::Release);
        } else {
            stalled.insert(job.range);
        }
    }
}

/// Ships one write to one follower over its (lazily opened) connection
/// and waits for the answer. `Ok(true)` = acked, `Ok(false)` = refused
/// (the connection stays usable), `Err` = transport failure, timeout or
/// an answer to another tag — the caller then drops the connection, so
/// a late ack can never be read as the next shipment's.
fn ship_one(
    conns: &mut HashMap<String, Conn>,
    addr: &str,
    tag: u64,
    job: &ReplJob,
    seq: u64,
) -> io::Result<bool> {
    let req = Request::Replicate {
        tag,
        range: job.range,
        epoch: job.epoch,
        seq,
        tenant: job.tenant,
        offset: job.offset,
        bytes: job.bytes,
    };
    for attempt in 0..=BUSY_RETRIES {
        if !conns.contains_key(addr) {
            conns.insert(addr.to_string(), Conn::connect(addr)?);
        }
        let conn = conns.get_mut(addr).expect("just inserted");
        let resp = conn.call(&req, SHIP_TIMEOUT)?;
        if resp.tag() != tag {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "follower answered another tag",
            ));
        }
        match resp {
            Response::ReplAck { .. } => return Ok(true),
            // Retry the shipment on the same connection.
            Response::Busy { .. } if attempt < BUSY_RETRIES => {
                std::thread::sleep(Duration::from_millis(2));
            }
            _ => return Ok(false),
        }
    }
    unreachable!("busy-retry loop always returns before exhausting attempts");
}
