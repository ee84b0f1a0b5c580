//! An idle server's shard workers sleep until a message arrives, and
//! sleep with 1-ns timer slack so a timed sleep ends when it is due.
//! Linux only: both facts are read from per-thread files under `/proc`.
#![cfg(target_os = "linux")]

use std::fs;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use rif_server::server::{Server, ServerConfig};

/// Each test reads every `rif-shard-*` thread of this process, so the
/// tests take turns.
static ONE_SERVER: Mutex<()> = Mutex::new(());

/// Starts a default server (two shards) and waits until both shard
/// threads exist and have set their timer slack.
fn start() -> (Server, Vec<String>) {
    let server = Server::start(ServerConfig::default(), 0).expect("server starts");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let tids = shard_tids();
        if tids.len() == ServerConfig::default().shards
            && tids.iter().all(|t| timer_slack_ns(t) == 1)
        {
            return (server, tids);
        }
        assert!(
            Instant::now() < deadline,
            "shard threads {tids:?} never came up with 1-ns slack"
        );
        thread::sleep(Duration::from_millis(5));
    }
}

/// Thread ids of every shard worker in this process.
fn shard_tids() -> Vec<String> {
    fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|entry| {
            let tid = entry.ok()?.file_name().into_string().ok()?;
            let comm = fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
            comm.starts_with("rif-shard-").then_some(tid)
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
fn idle_shard_workers_sleep_until_a_message_arrives() {
    let _turn = ONE_SERVER.lock().unwrap_or_else(|e| e.into_inner());
    let (server, tids) = start();
    // Let the workers finish starting up and go to sleep.
    thread::sleep(Duration::from_millis(50));
    let before: Vec<u64> = tids.iter().map(|t| voluntary_switches(t)).collect();
    thread::sleep(Duration::from_millis(200));
    for (tid, before) in tids.iter().zip(before) {
        let wakeups = voluntary_switches(tid) - before;
        assert!(
            wakeups <= 4,
            "idle shard thread {tid} woke {wakeups} times in 200 ms"
        );
    }
    server.stop();
}

#[test]
fn shard_workers_run_with_one_nanosecond_timer_slack() {
    let _turn = ONE_SERVER.lock().unwrap_or_else(|e| e.into_inner());
    // `start` waits for exactly this; here it is the assertion.
    let (server, tids) = start();
    for tid in &tids {
        assert_eq!(timer_slack_ns(tid), 1, "shard thread {tid}");
    }
    server.stop();
}
