//! A node is one thread: the event loop steps the shards itself, so no
//! shard thread exists, and in cluster mode it ships replication itself,
//! so no ship thread exists either. An idle loop sleeps until something
//! arrives, and sleeps with 1-ns timer slack so that a timed sleep ends
//! when it is due, under `SCHED_BATCH` so that its wake-ups do not
//! preempt. Linux only: every fact is read from per-thread files under
//! `/proc`.
#![cfg(target_os = "linux")]

use std::fs;
use std::net::TcpListener;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use rif_server::client::Conn;
use rif_server::protocol::{Request, Response};
use rif_server::server::{Server, ServerConfig};

/// Each test reads every thread of this process, so the tests take turns.
static ONE_SERVER: Mutex<()> = Mutex::new(());

/// Starts a default server (two shards) and waits until its event-loop
/// thread exists and has set its timer slack, the last thing it tunes.
fn start() -> (Server, String) {
    start_with(ServerConfig::default())
}

/// Starts a server on `cfg`, then as [`start`].
fn start_with(cfg: ServerConfig) -> (Server, String) {
    let server = Server::start(cfg, 0).expect("server starts");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let tids = tids_named("rif-event-loop");
        if let [tid] = &tids[..] {
            if timer_slack_ns(tid) == 1 {
                return (server, tid.clone());
            }
        }
        assert!(
            Instant::now() < deadline,
            "event-loop threads {tids:?} never came up with 1-ns slack"
        );
        thread::sleep(Duration::from_millis(5));
    }
}

/// Thread ids of every thread of this process whose name starts with
/// `prefix`.
fn tids_named(prefix: &str) -> Vec<String> {
    fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|entry| {
            let tid = entry.ok()?.file_name().into_string().ok()?;
            let comm = fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
            comm.starts_with(prefix).then_some(tid)
        })
        .collect()
}

fn timer_slack_ns(tid: &str) -> u64 {
    fs::read_to_string(format!("/proc/{tid}/timerslack_ns"))
        .expect("timerslack_ns")
        .trim()
        .parse()
        .expect("a number")
}

/// The thread's scheduling policy (`/proc/<tid>/stat` field 41).
fn policy(tid: &str) -> u32 {
    let stat = fs::read_to_string(format!("/proc/self/task/{tid}/stat")).expect("thread stat");
    // Fields after the parenthesised name start at field 3.
    let after_name = stat.rsplit(')').next().expect("stat has a name");
    after_name
        .split_whitespace()
        .nth(41 - 3)
        .expect("policy field")
        .parse()
        .expect("a number")
}

fn voluntary_switches(tid: &str) -> u64 {
    fs::read_to_string(format!("/proc/self/task/{tid}/status"))
        .expect("thread status")
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .expect("voluntary_ctxt_switches line")
        .trim()
        .parse()
        .expect("a number")
}

#[test]
fn a_node_runs_its_shards_on_the_event_loop_thread() {
    let _turn = ONE_SERVER.lock().unwrap_or_else(|e| e.into_inner());
    let (server, _) = start();
    assert_eq!(tids_named("rif-shard-"), Vec::<String>::new());
    server.stop();
}

/// Asserts that the loop thread `tid`, once settled, wakes at most 4
/// times in 200 ms.
fn assert_sleeps_when_idle(tid: &str) {
    // Let the loop finish starting up and go to sleep.
    thread::sleep(Duration::from_millis(50));
    let before = voluntary_switches(tid);
    thread::sleep(Duration::from_millis(200));
    let wakeups = voluntary_switches(tid) - before;
    assert!(
        wakeups <= 4,
        "idle event-loop thread {tid} woke {wakeups} times in 200 ms"
    );
}

#[test]
fn an_idle_event_loop_sleeps_until_something_arrives() {
    let _turn = ONE_SERVER.lock().unwrap_or_else(|e| e.into_inner());
    let (server, tid) = start();
    assert_sleeps_when_idle(&tid);
    server.stop();
}

#[test]
fn a_cluster_node_with_followers_is_one_thread() {
    let _turn = ONE_SERVER.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = ServerConfig {
        cluster: true,
        ..ServerConfig::default()
    };
    let capacity_bytes = cfg.capacity_bytes;
    let (server, tid) = start_with(cfg);
    // A follower address, so that both ranges have a shipping target.
    let follower = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = follower.local_addr().expect("addr").to_string();
    let push = Request::MapPush {
        tag: 1,
        epoch: 1,
        capacity_bytes,
        ranges: 2,
        owned: vec![0, 1],
        followed: vec![],
        replicas: vec![(0, addr.clone()), (1, addr)],
        map_text: String::new(),
    };
    let mut conn = Conn::connect(&server.local_addr().to_string()).expect("connect");
    let resp = conn.call(&push, Duration::from_secs(5)).expect("MAP_PUSH");
    assert!(
        matches!(resp, Response::MapResp { epoch: 1, .. }),
        "{resp:?}"
    );
    drop(conn);
    // The event loop is the process's only `rif-` thread: no shard
    // thread and no replication thread.
    assert_eq!(tids_named("rif-"), vec![tid.clone()]);
    assert_sleeps_when_idle(&tid);
    server.stop();
}

#[test]
fn the_event_loop_runs_with_one_nanosecond_timer_slack() {
    let _turn = ONE_SERVER.lock().unwrap_or_else(|e| e.into_inner());
    // `start` waits for exactly this; here it is the assertion.
    let (server, tid) = start();
    assert_eq!(timer_slack_ns(&tid), 1, "event-loop thread {tid}");
    server.stop();
}

#[test]
fn the_event_loop_runs_sched_batch() {
    const SCHED_BATCH: u32 = 3;
    let _turn = ONE_SERVER.lock().unwrap_or_else(|e| e.into_inner());
    let (server, tid) = start();
    assert_eq!(policy(&tid), SCHED_BATCH, "event-loop thread {tid}");
    server.stop();
}
