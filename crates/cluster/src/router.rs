//! The cluster-aware router: one closed-loop load generator that routes
//! every request to the node owning its LBA range.
//!
//! The router fetches the [`ShardMap`] from the directory once at start
//! and then treats routing misses as the map-staleness signal:
//!
//! - `WRONG_SHARD(epoch)` — the node no longer owns the range. The
//!   router refreshes the map from the directory (rate-limited) and
//!   re-issues the request through the normal BUSY retry budget. The
//!   refusal happened *before* admission, so the re-issue can never
//!   double-execute a write.
//! - `BUSY(moving)` — the range is mid-handoff on its current owner;
//!   plain BUSY retry, same budget.
//! - connect failure — the owner may be dead; refresh the map (the
//!   directory may have rebalanced away from it) and retry.
//!
//! Everything the router submits lands in the same [`Journal`] /
//! [`LoadReport`] ledger the single-node client uses, so the chaos
//! ContractChecker audits a cluster run unchanged: every tag resolves
//! exactly once, and `completed + failed + busy_dropped` accounts for
//! every planned request. Writes are only ever re-issued after refusals
//! that are guaranteed pre-admission (BUSY, WRONG_SHARD, or a failed
//! connect); a write whose connection died mid-flight has unknown fate
//! and is counted `failed`, never resent.
//!
//! On a replicated map (`replicas >= 2`) reads additionally fail over:
//! each [`Work`] carries a replica preference that rotates to the next
//! replica of the range on WRONG_SHARD, connection loss, a down
//! endpoint, or an in-flight deadline expiry, so a dead or partitioned
//! primary costs latency but not the read. Reads are idempotent, so a
//! timed-out read re-issues against another replica instead of failing;
//! a timed-out *write* stays terminal (its fate on the primary is
//! unknown). Every re-issue links `retry_of` to the chain's ROOT tag
//! (the first submission) — the link travels on the wire as a
//! one-entry BATCH frame so the server-side trace recorder
//! journals the logical request once, not once per retry, even when an
//! intermediate re-issue never reached admission. Tags resolved by the
//! deadline sweep stay tombstoned: a straggler response for one lands
//! as a duplicate receipt on its record, never as an unknown receipt.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::time::{Duration, Instant};

use rif_events::stats::LatencyHistogram;
use rif_events::{SimDuration, SimRng};
use rif_server::client::{Conn, Journal, LoadReport, Outcome, ReconnectBackoff, TagRecord};
use rif_server::protocol::{BatchEntry, BusyReason, ErrorCode, Request, Response};
use rif_workloads::{IoOp, SynthConfig};

use crate::map::ShardMap;

/// Salt for the router's jitter RNG stream (distinct from the client's).
const JITTER_SALT: u64 = 0x707C_E55E_D0C5_11F0;

/// How long one idle loop iteration sleeps.
const POLL_TICK: Duration = Duration::from_millis(1);

/// Knobs for one routed load run.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Directory address (`host:port`) serving MAP_GET.
    pub directory: String,
    /// Total requests to issue.
    pub requests: u64,
    /// Global in-flight cap across all endpoints.
    pub depth: usize,
    /// Fraction of requests that are reads.
    pub read_ratio: f64,
    /// Zipf exponent for the synthetic workload.
    pub zipf_s: f64,
    /// Transfer size per request.
    pub request_bytes: u32,
    /// Tenant id stamped on every request.
    pub tenant: u32,
    /// Workload seed.
    pub seed: u64,
    /// Delay before re-issuing after BUSY / WRONG_SHARD / failed connect.
    pub busy_backoff: Duration,
    /// Re-issue budget per planned operation.
    pub max_busy_retries: u32,
    /// In-flight deadline; expiry resolves the tag `TimedOut`.
    pub request_deadline: Duration,
    /// Floor between two map refreshes (staleness signals inside the
    /// window reuse the map already fetched).
    pub map_refresh_floor: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            directory: "127.0.0.1:4000".into(),
            requests: 1000,
            depth: 16,
            read_ratio: 0.9,
            zipf_s: 0.9,
            request_bytes: 64 * 1024,
            tenant: 0,
            seed: 1,
            busy_backoff: Duration::from_millis(1),
            max_busy_retries: 100,
            request_deadline: Duration::from_secs(2),
            map_refresh_floor: Duration::from_millis(25),
        }
    }
}

/// One planned operation moving through the retry machinery.
#[derive(Debug, Clone)]
struct Work {
    op: IoOp,
    offset: u64,
    bytes: u32,
    /// Refusal re-issues consumed so far.
    busy: u32,
    /// Tag of the submission this one re-issues, if any.
    retry_of: Option<u64>,
    /// Which replica of the range a read targets (`pref % replicas`).
    /// Failover bumps it; writes ignore it and always hit the primary.
    replica_pref: u32,
    /// Earliest instant this work may be sent.
    not_before: Instant,
}

/// A tag currently on the wire.
struct Inflight {
    rec: usize,
    endpoint: u32,
    work: Work,
    sent: Instant,
}

/// One node connection plus its persistent reconnect state. The backoff
/// outlives individual connections — that is the whole point of the
/// per-endpoint [`ReconnectBackoff`].
struct Endpoint {
    index: u32,
    addr: String,
    conn: Option<Conn>,
    backoff: ReconnectBackoff,
    /// Connect attempts are suppressed until this instant.
    down_until: Instant,
    /// Whether this endpoint has ever held a live connection (the first
    /// connect is not a *re*connect).
    ever_connected: bool,
}

/// Shared mutable run state (journal, ledger, latency histogram).
struct RunState {
    journal: Journal,
    report: LoadReport,
    hist: LatencyHistogram,
    next_tag: u64,
    /// Tags the deadline sweep resolved, mapped to their journal record.
    /// A straggler response for one counts as a duplicate receipt on the
    /// record rather than an unknown receipt.
    expired: HashMap<u64, usize>,
}

/// Runs `cfg.requests` synthetic operations through the cluster behind
/// `cfg.directory`, returning the merged report and journal.
pub fn run_routed(cfg: &RouterConfig) -> io::Result<(LoadReport, Journal)> {
    let mut dir = Conn::connect(&cfg.directory)?;
    let mut map = fetch_map(&mut dir)?;
    let mut last_refresh = Instant::now();

    let synth = SynthConfig {
        read_ratio: cfg.read_ratio,
        zipf_s: cfg.zipf_s,
        request_bytes: cfg.request_bytes,
        ..SynthConfig::default()
    };
    let now = Instant::now();
    let mut queue: VecDeque<Work> = synth
        .generate(cfg.requests as usize, cfg.seed)
        .iter()
        .map(|r| Work {
            op: r.op,
            offset: r.offset,
            bytes: r.bytes,
            busy: 0,
            retry_of: None,
            replica_pref: 0,
            not_before: now,
        })
        .collect();

    let mut endpoints: HashMap<String, Endpoint> = HashMap::new();
    let mut inflight: HashMap<u64, Inflight> = HashMap::new();
    let mut st = RunState {
        journal: Journal::default(),
        report: LoadReport::default(),
        hist: LatencyHistogram::new(),
        next_tag: 1,
        expired: HashMap::new(),
    };
    let mut jitter = SimRng::stream(cfg.seed, JITTER_SALT);
    let started = Instant::now();
    let mut settled: u64 = 0;

    while settled < cfg.requests {
        let now = Instant::now();
        let mut progressed = false;

        // Fill the window with due work.
        let mut deferred: Vec<Work> = Vec::new();
        while inflight.len() < cfg.depth {
            let Some(work) = queue.pop_front() else { break };
            if work.not_before > now {
                deferred.push(work);
                continue;
            }
            match try_send(cfg, &map, &mut endpoints, &mut st, work, &mut jitter, now) {
                SendResult::Sent(tag, inf) => {
                    inflight.insert(tag, inf);
                    progressed = true;
                }
                SendResult::Requeued(work) => {
                    // Owner unreachable: the map may have moved on.
                    refresh_if_stale(&mut dir, &mut map, &mut last_refresh, cfg);
                    deferred.push(work);
                }
                SendResult::Dropped => {
                    settled += 1;
                    progressed = true;
                }
            }
            if deferred.len() >= cfg.depth {
                break;
            }
        }
        for w in deferred {
            queue.push_back(w);
        }

        // Drain responses from every endpoint.
        let wrong_shard_before = st.report.wrong_shard;
        let mut requeue: Vec<Work> = Vec::new();
        for ep in endpoints.values_mut() {
            let mut lost = false;
            if let Some(conn) = ep.conn.as_mut() {
                loop {
                    match conn.next_frame() {
                        Ok(Some(payload)) => {
                            progressed = true;
                            handle_frame(
                                cfg,
                                &map,
                                &payload,
                                ep.index,
                                &mut inflight,
                                &mut st,
                                &mut requeue,
                                &mut settled,
                            );
                        }
                        Ok(None) => match conn.pump() {
                            Ok(true) => continue,
                            Ok(false) => break,
                            Err(_) => {
                                lost = true;
                                break;
                            }
                        },
                        Err(_) => {
                            st.journal.undecodable_frames += 1;
                            st.report.protocol_errors += 1;
                            lost = true;
                            break;
                        }
                    }
                }
            }
            if lost {
                ep.conn = None;
                ep.down_until = now + ep.backoff.next_delay(POLL_TICK, &mut jitter);
                st.journal.conn_losses += 1;
                fail_endpoint_inflight(
                    cfg,
                    ep.index,
                    &mut inflight,
                    &mut st,
                    &mut requeue,
                    &mut settled,
                );
                progressed = true;
            }
        }
        for w in requeue {
            queue.push_back(w);
        }

        // WRONG_SHARD means the map is stale; refresh it here, where the
        // directory connection is borrowable.
        if st.report.wrong_shard > wrong_shard_before {
            refresh_if_stale(&mut dir, &mut map, &mut last_refresh, cfg);
        }

        // Deadline sweep.
        let now = Instant::now();
        let expired: Vec<u64> = inflight
            .iter()
            .filter(|(_, inf)| now.duration_since(inf.sent) > cfg.request_deadline)
            .map(|(&tag, _)| tag)
            .collect();
        for tag in expired {
            let inf = inflight.remove(&tag).expect("expired tag present");
            st.journal.records[inf.rec].outcome = Some(Outcome::TimedOut);
            st.report.timed_out += 1;
            // Tombstone the tag: the server (or a one-way partition that
            // only ate the request) may still answer it later.
            st.expired.insert(tag, inf.rec);
            progressed = true;
            let mut work = inf.work;
            let (range, _) = map.route(work.offset);
            if work.op == IoOp::Read && map.replicas_of(range).len() > 1 {
                // Idempotent and replicated: fail the read over to the
                // next replica instead of failing the run, linking
                // `retry_of` so capture dedup sees one logical request.
                work.retry_of = work.retry_of.or(Some(tag));
                work.replica_pref = work.replica_pref.wrapping_add(1);
                match refuse(cfg, &mut st, work, now) {
                    SendResult::Requeued(w) => queue.push_back(w),
                    _ => settled += 1,
                }
            } else {
                st.report.failed += 1;
                settled += 1;
            }
        }

        if !progressed {
            std::thread::sleep(POLL_TICK);
        }
    }

    st.report.finish(&st.hist, started.elapsed());
    Ok((st.report, st.journal))
}

/// Fetches the current map from the directory connection.
fn fetch_map(dir: &mut Conn) -> io::Result<ShardMap> {
    dir.send(&Request::MapGet { tag: u64::MAX - 2 })?;
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if let Ok(Some(payload)) = dir.next_frame() {
            if let Ok(Response::MapResp { text, .. }) =
                rif_server::protocol::decode_response(&payload)
            {
                return ShardMap::parse_text(&text)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
            }
            continue;
        }
        dir.pump()?;
    }
    Err(io::ErrorKind::TimedOut.into())
}

/// Refreshes `map` from the directory unless the last refresh is within
/// the configured floor. Keeps whatever map it has on any failure.
fn refresh_if_stale(
    dir: &mut Conn,
    map: &mut ShardMap,
    last_refresh: &mut Instant,
    cfg: &RouterConfig,
) {
    if last_refresh.elapsed() < cfg.map_refresh_floor {
        return;
    }
    *last_refresh = Instant::now();
    if let Ok(fresh) = fetch_map(dir) {
        if fresh.epoch > map.epoch {
            *map = fresh;
        }
    }
}

enum SendResult {
    Sent(u64, Inflight),
    /// The owner is unreachable; the work burned one refusal retry.
    Requeued(Work),
    /// Retry budget exhausted: counted `busy_dropped`, run settled.
    Dropped,
}

fn try_send(
    cfg: &RouterConfig,
    map: &ShardMap,
    endpoints: &mut HashMap<String, Endpoint>,
    st: &mut RunState,
    work: Work,
    jitter: &mut SimRng,
    now: Instant,
) -> SendResult {
    let (range, primary) = map.route(work.offset);
    // Writes always target the primary (it owns admission and ships the
    // followers); reads may target any replica, rotated by failover.
    let node = if work.op == IoOp::Read {
        let replicas = map.replicas_of(range);
        replicas[work.replica_pref as usize % replicas.len()]
    } else {
        primary
    };
    let next_index = endpoints.len() as u32;
    let ep = endpoints
        .entry(node.id.clone())
        .or_insert_with(|| Endpoint {
            index: next_index,
            addr: node.addr.clone(),
            conn: None,
            backoff: ReconnectBackoff::new(),
            down_until: now,
            ever_connected: false,
        });
    // The map may have re-addressed the node (not typical, but cheap to
    // honor).
    if ep.addr != node.addr {
        ep.addr = node.addr.clone();
        ep.conn = None;
    }

    if ep.conn.is_none() {
        if now < ep.down_until {
            return refuse(cfg, st, bump_replica(work), now);
        }
        match Conn::connect(&ep.addr) {
            Ok(mut conn) => {
                // Endpoint sockets are swept serially; a blocking read
                // timeout has scheduler-tick granularity (milliseconds),
                // which would stack one tick of dead time per idle
                // endpoint per sweep — measured as a 2x throughput loss
                // on a two-node cluster. Idle pacing is the main loop's
                // single POLL_TICK sleep instead.
                conn.set_nonblocking().ok();
                ep.conn = Some(conn);
                ep.backoff.note_success();
                if ep.ever_connected {
                    st.journal.reconnects += 1;
                    st.report.reconnects += 1;
                }
                ep.ever_connected = true;
            }
            Err(_) => {
                ep.down_until = now + ep.backoff.next_delay(POLL_TICK, jitter);
                return refuse(cfg, st, bump_replica(work), now);
            }
        }
    }

    let tag = st.next_tag;
    st.next_tag += 1;
    // Re-issues travel as one-entry BATCH frames — the only frame kind
    // that carries `retry_of` — so the server's trace recorder aliases
    // the retry onto the original logical request.
    let req = match work.retry_of {
        Some(prior) => Request::Batch(vec![BatchEntry {
            op: work.op,
            tenant: cfg.tenant,
            tag,
            offset: work.offset,
            bytes: work.bytes,
            retry_of: prior,
        }]),
        None => match work.op {
            IoOp::Read => Request::Read {
                tenant: cfg.tenant,
                tag,
                offset: work.offset,
                bytes: work.bytes,
            },
            IoOp::Write => Request::Write {
                tenant: cfg.tenant,
                tag,
                offset: work.offset,
                bytes: work.bytes,
            },
        },
    };
    let rec = st.journal.records.len();
    st.journal.records.push(TagRecord {
        conn: ep.index,
        tag,
        op: work.op,
        offset: work.offset,
        bytes: work.bytes,
        retry_of: work.retry_of,
        outcome: None,
        duplicate_receipts: 0,
        conflicting_receipts: 0,
    });
    let conn = ep.conn.as_mut().expect("just connected");
    if conn.send(&req).is_err() {
        // Send never hit the wire as a full frame the server acts on
        // before the connection died; resolve the record and retry like
        // a refusal (safe for writes: nothing was admitted on a dead
        // connection's final partial frame — the server drops partial
        // frames on disconnect).
        st.journal.records[rec].outcome = Some(Outcome::ConnError);
        st.report.conn_errors += 1;
        st.journal.conn_losses += 1;
        ep.conn = None;
        ep.down_until = now + ep.backoff.next_delay(POLL_TICK, jitter);
        let mut work = work;
        work.retry_of = work.retry_of.or(Some(tag));
        return refuse(cfg, st, bump_replica(work), now);
    }
    SendResult::Sent(
        tag,
        Inflight {
            rec,
            endpoint: ep.index,
            work,
            sent: Instant::now(),
        },
    )
}

/// Rotates a read to the next replica of its range; writes pass through
/// untouched (they only ever target the primary).
fn bump_replica(mut work: Work) -> Work {
    if work.op == IoOp::Read {
        work.replica_pref = work.replica_pref.wrapping_add(1);
    }
    work
}

/// One pre-admission refusal: consume a retry or drop the operation.
fn refuse(cfg: &RouterConfig, st: &mut RunState, mut work: Work, now: Instant) -> SendResult {
    if work.busy >= cfg.max_busy_retries {
        st.report.busy_dropped += 1;
        return SendResult::Dropped;
    }
    work.busy += 1;
    work.not_before = now + cfg.busy_backoff;
    SendResult::Requeued(work)
}

#[allow(clippy::too_many_arguments)]
fn handle_frame(
    cfg: &RouterConfig,
    map: &ShardMap,
    payload: &[u8],
    endpoint: u32,
    inflight: &mut HashMap<u64, Inflight>,
    st: &mut RunState,
    requeue: &mut Vec<Work>,
    settled: &mut u64,
) {
    let Ok(resp) = rif_server::protocol::decode_response(payload) else {
        st.journal.undecodable_frames += 1;
        st.report.protocol_errors += 1;
        return;
    };
    let tag = resp.tag();
    let Some(inf) = inflight.remove(&tag) else {
        if let Some(&rec) = st.expired.get(&tag) {
            // Straggler answer for a tag the deadline sweep already
            // resolved: benign, but worth counting on its record.
            st.journal.records[rec].duplicate_receipts += 1;
        } else {
            st.journal.unknown_receipts += 1;
            st.report.unknown_receipts += 1;
        }
        return;
    };
    debug_assert_eq!(inf.endpoint, endpoint);
    let rec = inf.rec;
    let mut work = inf.work;
    // Chain links always carry the ROOT tag of the logical request: the
    // server-side recorder dedups by looking the link up among admitted
    // tags, and only the root is guaranteed to stay resolvable when an
    // intermediate re-issue never reached admission (send error, bounce
    // before admit). An immediate-predecessor link would orphan the
    // chain at the first unseen hop and double-count the capture.
    work.retry_of = work.retry_of.or(Some(tag));
    let now = Instant::now();
    match resp {
        Response::Done { .. } => {
            st.journal.records[rec].outcome = Some(Outcome::Done);
            st.report.completed += 1;
            st.hist
                .record(SimDuration::from_ns(inf.sent.elapsed().as_nanos() as u64));
            *settled += 1;
        }
        Response::Busy { reason, .. } => {
            match reason {
                BusyReason::Queue => st.report.busy_queue += 1,
                BusyReason::RateLimit => st.report.busy_ratelimit += 1,
                BusyReason::Unavailable | BusyReason::Moving => st.report.busy_unavailable += 1,
            }
            // A range mid-handoff (or an unavailable node) may already be
            // readable on a replica; reads rotate, writes wait it out.
            if matches!(reason, BusyReason::Moving | BusyReason::Unavailable) {
                work = bump_replica(work);
            }
            st.journal.records[rec].outcome = Some(Outcome::Busy);
            match refuse(cfg, st, work, now) {
                SendResult::Requeued(w) => requeue.push(w),
                _ => *settled += 1,
            }
        }
        Response::WrongShard { .. } => {
            // Stale map: never admitted, so the re-issue is idempotent
            // for both ops. The main loop refreshes the map when it sees
            // this counter move.
            st.report.wrong_shard += 1;
            st.journal.records[rec].outcome = Some(Outcome::Busy);
            match refuse(cfg, st, bump_replica(work), now) {
                SendResult::Requeued(w) => requeue.push(w),
                _ => *settled += 1,
            }
        }
        Response::Error { code, .. } => {
            match code {
                ErrorCode::Internal => st.report.internal_errors += 1,
                _ => st.report.protocol_errors += 1,
            }
            st.journal.records[rec].outcome = Some(Outcome::Error);
            let (range, _) = map.route(work.offset);
            if work.op == IoOp::Read && map.replicas_of(range).len() > 1 {
                // A crashing shard resolves its in-flight requests with
                // ERROR before the node drops (`Server::kill`). The read
                // is idempotent and the range still has live replicas —
                // fail it over instead of dooming the chain on a node
                // that is about to disappear anyway.
                match refuse(cfg, st, bump_replica(work), now) {
                    SendResult::Requeued(w) => requeue.push(w),
                    _ => *settled += 1,
                }
            } else {
                st.report.failed += 1;
                *settled += 1;
            }
        }
        _ => {
            // DONE/BUSY/ERROR/WRONG_SHARD are the only solicited kinds
            // for READ/WRITE; anything else is a protocol violation.
            st.report.protocol_errors += 1;
            st.journal.records[rec].outcome = Some(Outcome::Error);
            st.report.failed += 1;
            *settled += 1;
        }
    }
}

/// Resolves every tag in flight on a lost connection. Reads re-issue
/// through the retry budget; writes have unknown fate and fail.
fn fail_endpoint_inflight(
    cfg: &RouterConfig,
    endpoint: u32,
    inflight: &mut HashMap<u64, Inflight>,
    st: &mut RunState,
    requeue: &mut Vec<Work>,
    settled: &mut u64,
) {
    let tags: Vec<u64> = inflight
        .iter()
        .filter(|(_, inf)| inf.endpoint == endpoint)
        .map(|(&t, _)| t)
        .collect();
    let now = Instant::now();
    for tag in tags {
        let inf = inflight.remove(&tag).expect("tag present");
        st.journal.records[inf.rec].outcome = Some(Outcome::ConnError);
        st.report.conn_errors += 1;
        let mut work = inf.work;
        work.retry_of = work.retry_of.or(Some(tag));
        if work.op == IoOp::Read {
            match refuse(cfg, st, bump_replica(work), now) {
                SendResult::Requeued(w) => requeue.push(w),
                _ => *settled += 1,
            }
        } else {
            st.report.failed += 1;
            *settled += 1;
        }
    }
}
