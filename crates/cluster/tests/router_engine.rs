//! The routing policy against scripted peers.
//!
//! Cases real nodes cannot be made to produce on demand: a refusal for
//! one range only, timed from the other end of the wire, and nodes that
//! sit on a full window until its deadlines pass. The peers are the
//! cluster twin of `PeerLink` in `rif-server`'s `tests/event_loop.rs`:
//! they also have to get past the directory, which pushes the map to
//! every node it lists.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use rif_cluster::{Directory, NodeInfo, RouterConfig, ShardMap};
use rif_server::client::Outcome;
use rif_server::protocol::{
    decode_request, encode_response, write_frame, BatchEntry, BusyReason, FrameBuffer, Request,
    Response,
};

const CAPACITY: u64 = 8 << 30;

/// The node side of one router endpoint, scripted by a test: a blocking
/// socket that has already acked the endpoint's HELLO.
struct PeerLink {
    stream: TcpStream,
    frames: FrameBuffer,
    /// The request frame that told the router's connection apart from a
    /// directory push; [`recv`](PeerLink::recv) hands it out first.
    first: Option<Request>,
}

impl PeerLink {
    /// Accepts connections until one is the router's. The directory's
    /// (HELLO, then MAP_PUSH) are acked and dropped.
    fn accept(listener: &TcpListener) -> PeerLink {
        loop {
            let (stream, _) = listener.accept().expect("accept");
            stream.set_nodelay(true).ok();
            let mut link = PeerLink {
                stream,
                frames: FrameBuffer::new(),
                first: None,
            };
            match link.next_request() {
                Some(Request::Hello { tag, version }) => {
                    link.reply(&Response::HelloAck { tag, version })
                }
                other => panic!("a connection must open with HELLO, got {other:?}"),
            }
            match link.next_request() {
                Some(Request::MapPush { tag, epoch, .. }) => link.reply(&Response::MapResp {
                    tag,
                    epoch,
                    text: String::new(),
                }),
                first => {
                    link.first = first;
                    return link;
                }
            }
        }
    }

    fn next_request(&mut self) -> Option<Request> {
        loop {
            if let Some(payload) = self.frames.next_frame().expect("frame sync") {
                return Some(decode_request(payload).expect("decodable request"));
            }
            if self.frames.read_from(&mut self.stream).expect("read") == 0 {
                return None;
            }
        }
    }

    /// The next submission — a one-entry BATCH as sent, a single
    /// READ/WRITE as an entry with no `retry_of` — or `None` on EOF.
    fn recv(&mut self) -> Option<BatchEntry> {
        let single = |op, tenant, tag, offset, bytes| BatchEntry {
            op,
            tenant,
            tag,
            offset,
            bytes,
            retry_of: 0,
        };
        use rif_workloads::IoOp::{Read, Write};
        Some(match self.first.take().or_else(|| self.next_request())? {
            Request::Batch(entries) if entries.len() == 1 => entries[0],
            Request::Read {
                tenant,
                tag,
                offset,
                bytes,
            } => single(Read, tenant, tag, offset, bytes),
            Request::Write {
                tenant,
                tag,
                offset,
                bytes,
            } => single(Write, tenant, tag, offset, bytes),
            other => panic!("the router sends READ/WRITE/BATCH(1), got {other:?}"),
        })
    }

    fn reply(&mut self, resp: &Response) {
        write_frame(&mut self.stream, &encode_response(resp)).expect("reply");
    }

    fn done(&mut self, tag: u64) {
        self.reply(&Response::Done {
            tag,
            latency_ns: 1_000,
        });
    }
}

/// Listeners for `n` scripted nodes and a map of `ranges` over them.
fn peers(n: usize, ranges: u32) -> (Vec<TcpListener>, ShardMap) {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let nodes = listeners
        .iter()
        .zip(["a", "b"])
        .map(|(l, id)| NodeInfo {
            id: id.into(),
            addr: l.local_addr().unwrap().to_string(),
        })
        .collect();
    let map = ShardMap::rebalanced(1, CAPACITY, ranges, nodes).expect("valid map");
    (listeners, map)
}

#[test]
fn a_refusal_backs_off_its_own_operation_while_the_nodes_other_range_keeps_flowing() {
    const REQUESTS: u64 = 600;
    const REFUSALS: usize = 3;
    let backoff = Duration::from_millis(100);
    let (mut listeners, map) = peers(1, 2);
    let listener = listeners.pop().unwrap();
    let moving = map.clone();
    let peer = std::thread::spawn(move || {
        // Range 1 is "moving": each operation on it is refused its first
        // few submissions. Range 0 serves, a millisecond per request, so
        // its traffic spans the refused operations' back-offs.
        let mut link = PeerLink::accept(&listener);
        let mut refused: HashMap<u64, Vec<Instant>> = HashMap::new();
        let mut served: Vec<Instant> = Vec::new();
        while let Some(e) = link.recv() {
            let now = Instant::now();
            if moving.range_of(e.offset) == 0 {
                served.push(now);
                std::thread::sleep(Duration::from_millis(1));
                link.done(e.tag);
                continue;
            }
            let root = if e.retry_of == 0 { e.tag } else { e.retry_of };
            let arrivals = refused.entry(root).or_default();
            arrivals.push(now);
            if arrivals.len() <= REFUSALS {
                link.reply(&Response::Busy {
                    tag: e.tag,
                    reason: BusyReason::Moving,
                });
            } else {
                link.done(e.tag);
            }
        }
        (refused, served)
    });
    let dir = Directory::start(map, 0).expect("directory starts");
    let (report, journal) = rif_cluster::run_routed(&RouterConfig {
        directory: dir.addr().to_string(),
        requests: REQUESTS,
        depth: 8,
        read_ratio: 1.0,
        zipf_s: 0.0,
        seed: 5,
        busy_backoff: backoff,
        ..RouterConfig::default()
    })
    .expect("routed load");
    dir.stop();
    let (refused, served) = peer.join().expect("peer");

    assert_eq!(report.completed, REQUESTS, "{}", report.to_json());
    assert!(refused.len() >= 20 && served.len() >= 200, "lopsided plan");
    assert_eq!(report.busy_unavailable as usize, REFUSALS * refused.len());
    assert_eq!(journal.unknown_receipts, 0);
    // Every refusal costs the refused operation one back-off…
    for arrivals in refused.values() {
        assert_eq!(arrivals.len(), REFUSALS + 1);
        for pair in arrivals.windows(2) {
            let gap = pair[1] - pair[0];
            assert!(gap >= backoff, "re-sent {gap:?} after a BUSY");
        }
    }
    // …and costs the range that serves nothing: its requests keep
    // arriving a poll tick apart (plus the peer's millisecond and
    // scheduler slack) right through the first refused operations'
    // back-offs. A back-off on the link would show as gaps of its length.
    let first_refusal = refused.values().map(|a| a[0]).min().unwrap();
    let through = first_refusal + 2 * backoff;
    let flowing: Vec<Instant> = (served.iter().copied())
        .filter(|t| (first_refusal..through).contains(t))
        .collect();
    assert!(
        flowing.len() >= 20,
        "only {} served meanwhile",
        flowing.len()
    );
    let pause = flowing.windows(2).map(|w| w[1] - w[0]).max().unwrap();
    assert!(pause < backoff / 2, "the serving range paused {pause:?}");
}

#[test]
fn the_window_is_global_and_expired_tags_take_their_stragglers_as_duplicates() {
    const DEPTH: u64 = 8;
    let deadline = Duration::from_millis(300);
    let (listeners, map) = peers(2, 4);
    // How long after a held tag's deadline its straggler answer goes out:
    // room for the router's sweep, which wakes at the deadline.
    const SWEEP_SLACK: Duration = Duration::from_millis(20);
    let serve = |listener: TcpListener| {
        std::thread::spawn(move || {
            // The router numbers its tags from 1 across all endpoints, so
            // tags 1..=DEPTH are the first window. Sit on those; the first
            // later tag can only have been sent after the sweep expired
            // one of them, and the held ones are answered then — too late.
            // The first window goes out over some microseconds (the second
            // endpoint's connect comes between its tags), so a later tag
            // may reach this peer while the sweep has not yet reached the
            // tags held here: each is answered only once its own deadline
            // and the sweep's slack have passed.
            let mut link = PeerLink::accept(&listener);
            let mut arrivals: Vec<(u64, Instant)> = Vec::new();
            let mut held: Vec<(u64, Instant)> = Vec::new();
            while let Some(e) = link.recv() {
                let now = Instant::now();
                arrivals.push((e.tag, now));
                if e.tag <= DEPTH {
                    held.push((e.tag, now));
                } else {
                    if let Some(last) = held.iter().map(|&(_, at)| at).max() {
                        let expired = last + deadline + SWEEP_SLACK;
                        std::thread::sleep(expired.saturating_duration_since(Instant::now()));
                    }
                    held.drain(..).for_each(|(tag, _)| link.done(tag));
                    link.done(e.tag);
                }
            }
            arrivals
        })
    };
    assert!(
        ["a", "b"].iter().all(|id| !map.owned_ranges(id).is_empty()),
        "a node that owns nothing is never dialled"
    );
    let peers: Vec<_> = listeners.into_iter().map(serve).collect();
    let dir = Directory::start(map, 0).expect("directory starts");
    let (report, journal) = rif_cluster::run_routed(&RouterConfig {
        directory: dir.addr().to_string(),
        requests: 2 * DEPTH,
        depth: DEPTH as usize,
        read_ratio: 1.0,
        zipf_s: 0.0,
        seed: 11,
        request_deadline: deadline,
        ..RouterConfig::default()
    })
    .expect("routed load");
    dir.stop();
    let per_peer: Vec<Vec<(u64, Instant)>> =
        peers.into_iter().map(|p| p.join().expect("peer")).collect();

    // Both nodes were in play in both windows, or the test shows nothing.
    for arrivals in &per_peer {
        assert!(arrivals.iter().any(|(tag, _)| *tag <= DEPTH), "plan");
        assert!(arrivals.iter().any(|(tag, _)| *tag > DEPTH), "plan");
    }
    // DEPTH tags on the wire in total, not per endpoint: the ninth was
    // not sent before the first window had sat out its deadline.
    let all: Vec<(u64, Instant)> = per_peer.concat();
    let earliest = |wave: fn(u64) -> bool| {
        let times = all.iter().filter(|(tag, _)| wave(*tag)).map(|(_, t)| *t);
        times.min().expect("both windows arrived")
    };
    let (first, second) = (earliest(|tag| tag <= DEPTH), earliest(|tag| tag > DEPTH));
    assert_eq!(all.len() as u64, 2 * DEPTH, "nothing is re-issued at RF 1");
    assert!(
        second - first >= deadline - Duration::from_millis(20),
        "tag {} went out {:?} into a full window",
        DEPTH + 1,
        second - first
    );

    // The sweep resolved the first window, the ledger closed, and each
    // straggler landed on the record that had expired.
    for rec in &journal.records {
        let expected = if rec.tag <= DEPTH {
            (Some(Outcome::TimedOut), 1)
        } else {
            (Some(Outcome::Done), 0)
        };
        assert_eq!((rec.outcome, rec.duplicate_receipts), expected, "{rec:?}");
    }
    assert_eq!(
        (report.timed_out, report.failed, report.completed),
        (DEPTH, DEPTH, DEPTH),
        "{}",
        report.to_json()
    );
    assert_eq!(journal.unknown_receipts, 0);
    assert_eq!(report.dup_receipts, DEPTH, "restated from the journal");
}

#[test]
fn a_zero_window_is_refused_before_the_directory_is_asked() {
    // Nothing listens on the discard port: a router that got past its
    // window check would fail to reach the directory instead.
    let cfg = RouterConfig {
        directory: "127.0.0.1:9".into(),
        depth: 0,
        ..RouterConfig::default()
    };
    let err = rif_cluster::run_routed(&cfg).expect_err("a zero window cannot run");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
}
