//! Directory durability: the shard map survives a directory restart.
//!
//! Regression scenario for the replicated-cluster hardening work: the
//! directory persists its map (epoch included) to a canonical text
//! file on every install, and `start_persistent` restores that file on
//! boot — *overriding* whatever map the caller passed in. A restarted
//! directory therefore converges routers back onto the exact epoch the
//! fleet already runs, with no forced re-migration.
//!
//! Also covers the typed-error path: a corrupted persisted file must
//! fail loudly (`MapLoadError::Malformed` / `InvalidData`), never be
//! silently replaced, while a *missing* file means "first boot" and the
//! argument map is used. And the write side of the same promise: an
//! epoch the directory could not persist is never installed or pushed.
//! Last, the accept path: a fresh connection is served at once, not
//! after an idle poll.

use std::time::{Duration, Instant};

use rif_cluster::directory::fetch_map_text;
use rif_cluster::{load_map, Directory, MapLoadError, NodeInfo, ShardMap};
use rif_server::client::Conn;
use rif_server::protocol::{Request, Response};
use rif_server::server::{Server, ServerConfig};

const RANGES: u32 = 4;
const CAPACITY: u64 = 8 << 30;

fn start_node(seed: u64) -> Server {
    Server::start(
        ServerConfig {
            shards: RANGES as usize,
            capacity_bytes: CAPACITY,
            cluster: true,
            time_scale: 200.0,
            seed,
            ..ServerConfig::default()
        },
        0,
    )
    .expect("node starts")
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("rif-dir-restart-{}-{tag}.txt", std::process::id()))
}

#[test]
fn restarted_directory_restores_epoch_and_map_byte_identically() {
    let node_a = start_node(41);
    let node_b = start_node(42);
    let nodes = vec![
        NodeInfo {
            id: "a".into(),
            addr: node_a.local_addr().to_string(),
        },
        NodeInfo {
            id: "b".into(),
            addr: node_b.local_addr().to_string(),
        },
    ];
    let map =
        ShardMap::replicated(1, CAPACITY, RANGES, nodes.clone(), 2).expect("valid replicated map");
    let path = temp_path("happy");
    let _ = std::fs::remove_file(&path);

    let dir = Directory::start_persistent(map.clone(), 0, &path).expect("directory starts");
    // Bump the epoch past the seed map so a restart has something real
    // to prove: migrate one range to the node that doesn't own it.
    let before = dir.map();
    let (range, owner) = before.route(0);
    let target = nodes
        .iter()
        .find(|n| n.id != owner.id)
        .expect("two nodes")
        .id
        .clone();
    dir.migrate(range, &target).expect("migration completes");
    let live = dir.map();
    assert!(live.epoch > map.epoch, "migration must bump the epoch");
    let live_text = live.to_text();
    dir.stop();

    // The persisted file already matches what was live.
    let persisted = load_map(&path).expect("persisted map loads");
    assert_eq!(persisted.to_text(), live_text, "persisted map diverged");

    // Restart with a *stale* argument map (the original, epoch 1). The
    // persisted state must win, byte for byte.
    let dir2 = Directory::start_persistent(map.clone(), 0, &path).expect("directory restarts");
    let restored = dir2.map();
    assert_eq!(restored.epoch, live.epoch, "epoch regressed on restart");
    assert_eq!(
        restored.to_text(),
        live_text,
        "restored map is not byte-identical"
    );

    // Routers converge on the same epoch over the wire too, and the
    // fleet keeps serving without any re-migration: the node that took
    // the migrated range still answers Done for it.
    let (epoch, text) =
        rif_cluster::directory::fetch_map_text(&dir2.addr().to_string()).expect("MAP_GET works");
    assert_eq!(epoch, live.epoch);
    assert_eq!(text, live_text);
    let owner_now = restored.route(0).1.addr.clone();
    let mut conn = Conn::connect(&owner_now).expect("connect new owner");
    let read = Request::Read {
        tenant: 0,
        tag: 7,
        offset: 0,
        bytes: 4096,
    };
    let resp = conn
        .call(&read, Duration::from_secs(5))
        .expect("read reply");
    assert!(
        matches!(resp, Response::Done { .. }),
        "owner after restart must serve its range, got {resp:?}"
    );

    dir2.stop();
    node_a.stop();
    node_b.stop();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_map_file_is_a_typed_error_and_missing_means_first_boot() {
    let nodes = vec![NodeInfo {
        id: "a".into(),
        addr: "127.0.0.1:1".into(),
    }];
    let map = ShardMap::rebalanced(1, CAPACITY, RANGES, nodes).expect("valid map");

    // Corrupted file: load_map reports Malformed, start_persistent
    // refuses to boot rather than quietly clobbering operator state.
    let path = temp_path("corrupt");
    std::fs::write(&path, "epoch=borked\nthis is not a shard map\n").expect("write garbage");
    match load_map(&path) {
        Err(MapLoadError::Malformed(_)) => {}
        other => panic!("expected Malformed, got {other:?}"),
    }
    match Directory::start_persistent(map.clone(), 0, &path) {
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidData),
        Ok(_) => panic!("corrupt file must refuse boot"),
    }
    let _ = std::fs::remove_file(&path);

    // Missing file: a clean Io error from load_map, and first boot uses
    // the argument map.
    let path = temp_path("fresh");
    let _ = std::fs::remove_file(&path);
    match load_map(&path) {
        Err(MapLoadError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
        other => panic!("expected Io(NotFound), got {other:?}"),
    }
    let dir = Directory::start_persistent(map.clone(), 0, &path).expect("first boot works");
    assert_eq!(dir.map().to_text(), map.to_text());
    // And the first boot persisted it for next time.
    assert_eq!(
        load_map(&path).expect("now persisted").to_text(),
        map.to_text()
    );
    dir.stop();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn an_epoch_that_cannot_be_persisted_is_not_installed() {
    // Nothing listens on these: pushes fail fast and are non-fatal.
    let nodes = ["a", "b"]
        .iter()
        .zip(1..)
        .map(|(id, port)| NodeInfo {
            id: id.to_string(),
            addr: format!("127.0.0.1:{port}"),
        })
        .collect();
    let map = ShardMap::rebalanced(1, CAPACITY, RANGES, nodes).expect("valid map");
    let home = temp_path("persist-fail").with_extension("d");
    std::fs::create_dir_all(&home).expect("temp dir");
    let dir =
        Directory::start_persistent(map.clone(), 0, home.join("map.txt")).expect("first boot");

    // Pull the directory's storage out from under it: the rebalance must
    // fail as a whole. Installing (or pushing) the unpersisted epoch
    // would let a restart come back older than what nodes have seen.
    std::fs::remove_dir_all(&home).expect("remove temp dir");
    let err = dir
        .rebalance_away("b")
        .expect_err("an unpersistable epoch must not be installed");
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{err}");
    assert_eq!(dir.map().epoch, map.epoch, "epoch moved without persisting");
    assert_eq!(dir.map().to_text(), map.to_text());
    dir.stop();
}

#[test]
fn a_fresh_connection_is_served_without_waiting_for_an_accept_poll() {
    // The one node is not running: the directory's first push to it is
    // refused, which leaves it serving.
    let node = NodeInfo {
        id: "a".into(),
        addr: "127.0.0.1:1".into(),
    };
    let map = ShardMap::rebalanced(1, CAPACITY, RANGES, vec![node]).expect("valid map");
    let dir = Directory::start(map, 0).expect("directory starts");
    let addr = dir.addr().to_string();
    fetch_map_text(&addr).expect("first MAP_GET");
    const CALLS: usize = 20;
    let mut took: Vec<Duration> = (0..CALLS)
        .map(|_| {
            let started = Instant::now();
            let (epoch, _) = fetch_map_text(&addr).expect("MAP_GET");
            assert_eq!(epoch, 1);
            started.elapsed()
        })
        .collect();
    took.sort();
    // An accept that slept 5 ms whenever it found no connection waiting
    // put nearly all of that on each of these back-to-back calls. The
    // median bounds it at half a poll and ignores the few calls a busy
    // host delays.
    let median = took[CALLS / 2];
    assert!(
        median < Duration::from_micros(2_500),
        "a MAP_GET on a fresh connection took {median:?} at the median: {took:?}"
    );
    dir.stop();
}
