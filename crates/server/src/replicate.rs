//! Primary-side replication shipper (DESIGN §15).
//!
//! In cluster mode every admitted client write on an owned range with
//! followers is offered to the event loop's [`Shipper`] (the target
//! table), which queues it with the followers for the ship thread to
//! send asynchronously as a version-stamped `REPLICATE` frame to each.
//! The ship thread shares only its epoch, watermarks and counters
//! ([`Replicator`]). It owns all follower connections and assigns each
//! range's shipment sequence number **at ship time**, so sequence order
//! equals ship order by construction and the follower applies writes in
//! the order the primary shipped them.
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
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client::Conn;
use crate::protocol::{Request, Response};
use crate::ring::ReplicaListView;

/// How long a follower stays skipped after a connect/ship failure.
const DOWN_BACKOFF: Duration = Duration::from_millis(500);

/// Per-shipment socket timeout: a follower that cannot ack within this
/// is treated as failed (and backed off), not waited on.
const SHIP_TIMEOUT: Duration = Duration::from_millis(1000);

/// Bounded in-place retries when a follower answers `BUSY` (its shard
/// queue is momentarily full under shared load).
const BUSY_RETRIES: usize = 3;

/// One write queued for shipment to a range's followers.
#[derive(Debug)]
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
    /// The range's followers in `epoch` (a thin pointer: jobs queue up
    /// behind a slow follower, so their size is the queue's).
    followers: Arc<Vec<String>>,
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

/// What the ship thread shares with the rest of the node: the epoch it
/// checks jobs against, the watermarks it advances and its counters.
/// Lives in `Shared` for cluster-mode servers.
pub(crate) struct Replicator {
    /// Epoch the loop's target table belongs to.
    epoch: AtomicU64,
    /// Per-range contiguous replicated prefix (0 = nothing replicated).
    watermarks: Vec<AtomicU64>,
    pub(crate) counters: ReplCounters,
}

impl Replicator {
    /// Tracks `shards` ranges, nothing replicated yet.
    pub(crate) fn new(shards: usize) -> Replicator {
        Replicator {
            epoch: AtomicU64::new(0),
            watermarks: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            counters: ReplCounters::default(),
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
}

/// The event loop's half of replication: the target table and the ship
/// thread's inbox. The ship thread ships what is queued and ends once
/// its `Shipper` is dropped, which the loop does as it exits.
pub(crate) struct Shipper {
    repl: Arc<Replicator>,
    /// range → follower addresses (from the directory's MAP_PUSH).
    targets: HashMap<u32, Arc<Vec<String>>>,
    tx: Sender<ReplJob>,
}

impl Shipper {
    /// Starts the ship thread for `repl`: the loop keeps the `Shipper`,
    /// the server the thread's handle.
    pub(crate) fn start(repl: Arc<Replicator>) -> io::Result<(Shipper, JoinHandle<()>)> {
        let (tx, rx) = mpsc::channel();
        let worker = Arc::clone(&repl);
        let handle = std::thread::Builder::new()
            .name("rif-repl-ship".into())
            .spawn(move || ship_loop(&worker, &rx))?;
        let shipper = Shipper {
            repl,
            targets: HashMap::new(),
            tx,
        };
        Ok((shipper, handle))
    }

    /// Installs a new epoch's shipping targets, resetting sequences and
    /// watermarks (the follower set changed, so the old contiguous
    /// prefix is meaningless). Called under the MAP_PUSH epoch gate.
    pub(crate) fn update_targets(&mut self, epoch: u64, replicas: ReplicaListView<'_>) {
        let mut grouped: HashMap<u32, Vec<String>> = HashMap::new();
        for (range, addr) in replicas.iter() {
            grouped.entry(range).or_default().push(addr.to_string());
        }
        self.targets = grouped
            .into_iter()
            .map(|(range, addrs)| (range, Arc::new(addrs)))
            .collect();
        for w in &self.repl.watermarks {
            w.store(0, Ordering::Release);
        }
        // Publish the epoch last: a job offered against the old epoch
        // after this point is dropped by the ship thread's stale check.
        self.repl.epoch.store(epoch, Ordering::Release);
    }

    /// Offers an admitted client write for shipment; a range with no
    /// followers costs one map look-up.
    pub(crate) fn offer(&self, range: u32, tenant: u32, offset: u64, bytes: u32) {
        let Some(followers) = self.targets.get(&range) else {
            return;
        };
        let job = ReplJob {
            epoch: self.repl.epoch.load(Ordering::Acquire),
            range,
            tenant,
            offset,
            bytes,
            followers: Arc::clone(followers),
        };
        let _ = self.tx.send(job);
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
        let seq = {
            let e = seqs.entry(job.range).or_insert(0);
            *e += 1;
            *e
        };
        let mut all_acked = true;
        for addr in job.followers.iter() {
            if let Some(until) = down.get(addr) {
                if Instant::now() < *until {
                    repl.counters.skipped.fetch_add(1, Ordering::Relaxed);
                    all_acked = false;
                    continue;
                }
                down.remove(addr);
            }
            let tag = next_tag;
            next_tag += 1;
            match ship_one(&mut conns, addr, tag, &job, seq) {
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
                    conns.remove(addr);
                    down.insert(addr.clone(), Instant::now() + DOWN_BACKOFF);
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
