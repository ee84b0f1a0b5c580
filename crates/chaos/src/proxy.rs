//! The fault-injecting TCP proxy.
//!
//! [`ChaosProxy`] listens on a loopback port and forwards each accepted
//! connection to the upstream `rif-server`, pumping the two directions in
//! separate threads. Every *frame* (length-prefixed, read straight into
//! a [`FrameBuffer`] so faults never split the protocol mid-header by
//! accident) is passed through the plan's [`DecisionStream`] for its
//! connection and direction, then forwarded, dropped, delayed,
//! duplicated, bit-corrupted, truncated, or the connection reset.
//!
//! Because decisions are drawn per frame index from a seeded stream, the
//! fault *schedule* is reproducible; the *applied* faults (what traffic
//! actually flowed) are tallied separately in [`FaultStats`].
//!
//! On top of the seeded schedule the proxy supports *asymmetric
//! partitions*: each direction has a [`PartitionSwitch`] flag that, while
//! set, blackholes every complete frame in that direction only. The check
//! runs *before* the decision stream draws, so toggling a partition never
//! consumes RNG draws and never shifts the seeded schedule for the frames
//! that do get through.

use std::io;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use rif_server::protocol::FrameBuffer;

use crate::plan::{Decision, DecisionStream, Direction, FaultPlan};

/// Read-timeout used by pump loops so they notice shutdown promptly.
const PUMP_POLL: Duration = Duration::from_millis(10);
/// Accept-loop poll interval.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Shared per-direction partition flags. While a direction is set, every
/// complete frame in that direction is blackholed — the connection stays
/// up, the bytes just vanish, which is exactly what a one-way network
/// partition looks like from both ends.
#[derive(Debug, Default)]
pub struct PartitionSwitch {
    up: AtomicBool,
    down: AtomicBool,
}

impl PartitionSwitch {
    fn flag(&self, dir: Direction) -> &AtomicBool {
        match dir {
            Direction::Up => &self.up,
            Direction::Down => &self.down,
        }
    }

    /// Starts (`true`) or heals (`false`) the partition in `dir`.
    pub fn set(&self, dir: Direction, on: bool) {
        self.flag(dir).store(on, Ordering::SeqCst);
    }

    /// Whether `dir` is currently partitioned.
    pub fn get(&self, dir: Direction) -> bool {
        self.flag(dir).load(Ordering::SeqCst)
    }
}

/// Live fault counters, shared across all pump threads.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Connections accepted.
    pub conns: AtomicU64,
    /// Client→server frames observed (pre-decision).
    pub frames_up: AtomicU64,
    /// Server→client frames observed (pre-decision).
    pub frames_down: AtomicU64,
    /// Frames forwarded untouched.
    pub forwarded: AtomicU64,
    /// Frames discarded.
    pub dropped: AtomicU64,
    /// Frames held before forwarding.
    pub delayed: AtomicU64,
    /// Frames sent twice.
    pub duplicated: AtomicU64,
    /// Frames with a payload bit flipped.
    pub corrupted: AtomicU64,
    /// Frames cut mid-payload (connection severed).
    pub truncated: AtomicU64,
    /// Connections reset by decision.
    pub resets: AtomicU64,
    /// Frames blackholed by an active partition.
    pub partitioned: AtomicU64,
}

/// Point-in-time copy of [`FaultStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStatsSnapshot {
    /// Connections accepted.
    pub conns: u64,
    /// Client→server frames observed.
    pub frames_up: u64,
    /// Server→client frames observed.
    pub frames_down: u64,
    /// Frames forwarded untouched.
    pub forwarded: u64,
    /// Frames discarded.
    pub dropped: u64,
    /// Frames held before forwarding.
    pub delayed: u64,
    /// Frames sent twice.
    pub duplicated: u64,
    /// Frames with a payload bit flipped.
    pub corrupted: u64,
    /// Frames cut mid-payload.
    pub truncated: u64,
    /// Connections reset by decision.
    pub resets: u64,
    /// Frames blackholed by an active partition.
    pub partitioned: u64,
}

impl FaultStatsSnapshot {
    /// Total faults applied (everything except clean forwards).
    pub fn faults(&self) -> u64 {
        self.dropped
            + self.delayed
            + self.duplicated
            + self.corrupted
            + self.truncated
            + self.resets
            + self.partitioned
    }

    /// Canonical JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"conns\":{},\"frames_up\":{},\"frames_down\":{},",
                "\"forwarded\":{},\"dropped\":{},\"delayed\":{},",
                "\"duplicated\":{},\"corrupted\":{},\"truncated\":{},",
                "\"resets\":{},\"partitioned\":{}}}"
            ),
            self.conns,
            self.frames_up,
            self.frames_down,
            self.forwarded,
            self.dropped,
            self.delayed,
            self.duplicated,
            self.corrupted,
            self.truncated,
            self.resets,
            self.partitioned,
        )
    }
}

impl FaultStats {
    fn snapshot(&self) -> FaultStatsSnapshot {
        FaultStatsSnapshot {
            conns: self.conns.load(Ordering::Relaxed),
            frames_up: self.frames_up.load(Ordering::Relaxed),
            frames_down: self.frames_down.load(Ordering::Relaxed),
            forwarded: self.forwarded.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            partitioned: self.partitioned.load(Ordering::Relaxed),
        }
    }
}

/// Handle to a running fault-injection proxy.
pub struct ChaosProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<FaultStats>,
    partition: Arc<PartitionSwitch>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts the proxy on `127.0.0.1:port` (0 = ephemeral) forwarding to
    /// `upstream`.
    pub fn start(port: u16, upstream: SocketAddr, plan: FaultPlan) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(FaultStats::default());
        let partition = Arc::new(PartitionSwitch::default());

        let t_shutdown = Arc::clone(&shutdown);
        let t_stats = Arc::clone(&stats);
        let t_partition = Arc::clone(&partition);
        let accept_thread =
            thread::Builder::new()
                .name("chaos-accept".into())
                .spawn(move || {
                    accept_loop(listener, upstream, plan, t_shutdown, t_stats, t_partition);
                })?;

        Ok(ChaosProxy {
            addr,
            shutdown,
            stats,
            partition,
            accept_thread: Some(accept_thread),
        })
    }

    /// Address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current fault counters.
    pub fn stats(&self) -> FaultStatsSnapshot {
        self.stats.snapshot()
    }

    /// Client→server frames observed so far — the clock worker-kill
    /// triggers are scheduled against.
    pub fn frames_up(&self) -> u64 {
        self.stats.frames_up.load(Ordering::Relaxed)
    }

    /// Starts (`true`) or heals (`false`) a one-direction partition.
    pub fn set_partition(&self, dir: Direction, on: bool) {
        self.partition.set(dir, on);
    }

    /// Stops accepting, severs pumps, and joins the accept thread.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    plan: FaultPlan,
    shutdown: Arc<AtomicBool>,
    stats: Arc<FaultStats>,
    partition: Arc<PartitionSwitch>,
) {
    let mut pumps: Vec<thread::JoinHandle<()>> = Vec::new();
    let mut conn_id: u64 = 0;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                let id = conn_id;
                conn_id += 1;
                stats.conns.fetch_add(1, Ordering::Relaxed);
                match TcpStream::connect_timeout(&upstream, Duration::from_secs(2)) {
                    Ok(server) => {
                        spawn_conn_pumps(
                            id, client, server, &plan, &shutdown, &stats, &partition, &mut pumps,
                        );
                    }
                    Err(_) => {
                        // Upstream refused: drop the client; it sees a
                        // clean connection error.
                        let _ = client.shutdown(Shutdown::Both);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_POLL),
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
        pumps.retain(|h| !h.is_finished());
    }
    for h in pumps {
        let _ = h.join();
    }
}

#[allow(clippy::too_many_arguments)]
fn spawn_conn_pumps(
    id: u64,
    client: TcpStream,
    server: TcpStream,
    plan: &FaultPlan,
    shutdown: &Arc<AtomicBool>,
    stats: &Arc<FaultStats>,
    partition: &Arc<PartitionSwitch>,
    pumps: &mut Vec<thread::JoinHandle<()>>,
) {
    // One shared liveness flag: either direction dying severs both, so a
    // Reset decision looks like a whole-connection loss to the client.
    let alive = Arc::new(AtomicBool::new(true));
    // Without nodelay, the per-frame prefix+payload writes interact with
    // Nagle/delayed-ACK into ~40ms stalls per hop — the proxy must add
    // faults, not latency.
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    for dir in [Direction::Up, Direction::Down] {
        let (src, dst) = match dir {
            Direction::Up => (client.try_clone(), server.try_clone()),
            Direction::Down => (server.try_clone(), client.try_clone()),
        };
        let (src, dst) = match (src, dst) {
            (Ok(s), Ok(d)) => (s, d),
            _ => {
                alive.store(false, Ordering::SeqCst);
                let _ = client.shutdown(Shutdown::Both);
                let _ = server.shutdown(Shutdown::Both);
                return;
            }
        };
        let stream = DecisionStream::new(plan, id, dir);
        let t_alive = Arc::clone(&alive);
        let t_shutdown = Arc::clone(shutdown);
        let t_stats = Arc::clone(stats);
        let t_partition = Arc::clone(partition);
        let name = format!(
            "chaos-{}-{id}",
            if matches!(dir, Direction::Up) {
                "up"
            } else {
                "down"
            }
        );
        if let Ok(h) = thread::Builder::new().name(name).spawn(move || {
            pump(
                src,
                dst,
                dir,
                stream,
                t_alive,
                t_shutdown,
                &t_stats,
                &t_partition,
            );
        }) {
            pumps.push(h);
        } else {
            alive.store(false, Ordering::SeqCst);
        }
    }
}

/// Forwards frames from `src` to `dst`, applying one decision per frame.
#[allow(clippy::too_many_arguments)]
fn pump(
    src: TcpStream,
    dst: TcpStream,
    dir: Direction,
    mut decisions: DecisionStream,
    alive: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    stats: &FaultStats,
    partition: &PartitionSwitch,
) {
    let _ = src.set_read_timeout(Some(PUMP_POLL));
    let mut src = src;
    let mut dst = dst;
    let mut frames = FrameBuffer::new();
    'outer: loop {
        if shutdown.load(Ordering::SeqCst) || !alive.load(Ordering::SeqCst) {
            break;
        }
        match frames.read_from(&mut src) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            Err(_) => break,
        }
        loop {
            let frame = match frames.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                // Oversized prefix: unrecoverable stream, sever.
                Err(_) => break 'outer,
            };
            let frame_counter = match dir {
                Direction::Up => &stats.frames_up,
                Direction::Down => &stats.frames_down,
            };
            frame_counter.fetch_add(1, Ordering::Relaxed);
            // An active partition blackholes the frame before any
            // decision is drawn: the seeded schedule stays aligned with
            // the frames that actually get a decision.
            if partition.get(dir) {
                stats.partitioned.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            match decisions.next_decision() {
                Decision::Forward => {
                    stats.forwarded.fetch_add(1, Ordering::Relaxed);
                    if emit(&mut dst, frame).is_err() {
                        break 'outer;
                    }
                }
                Decision::Drop => {
                    stats.dropped.fetch_add(1, Ordering::Relaxed);
                }
                Decision::Delay { us } => {
                    stats.delayed.fetch_add(1, Ordering::Relaxed);
                    thread::sleep(Duration::from_micros(us));
                    if emit(&mut dst, frame).is_err() {
                        break 'outer;
                    }
                }
                Decision::Duplicate => {
                    stats.duplicated.fetch_add(1, Ordering::Relaxed);
                    if emit(&mut dst, frame).is_err() || emit(&mut dst, frame).is_err() {
                        break 'outer;
                    }
                }
                Decision::Corrupt { salt } => {
                    stats.corrupted.fetch_add(1, Ordering::Relaxed);
                    let mut mangled = frame.to_vec();
                    if !mangled.is_empty() {
                        let bit = (salt % (mangled.len() as u64 * 8)) as usize;
                        mangled[bit / 8] ^= 1 << (bit % 8);
                    }
                    if emit(&mut dst, &mangled).is_err() {
                        break 'outer;
                    }
                }
                Decision::Truncate { keep_permille } => {
                    stats.truncated.fetch_add(1, Ordering::Relaxed);
                    // Honest length prefix, partial payload, then cut: the
                    // receiver blocks on the missing tail until the close
                    // lands, which must surface as a clean conn error.
                    let keep = (frame.len() * keep_permille as usize) / 1000;
                    let mut partial = Vec::with_capacity(4 + keep);
                    partial.extend_from_slice(&(frame.len() as u32).to_le_bytes());
                    partial.extend_from_slice(&frame[..keep]);
                    let _ = dst.write_all(&partial);
                    let _ = dst.flush();
                    break 'outer;
                }
                Decision::Reset => {
                    stats.resets.fetch_add(1, Ordering::Relaxed);
                    break 'outer;
                }
            }
        }
    }
    alive.store(false, Ordering::SeqCst);
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

fn emit(dst: &mut TcpStream, frame: &[u8]) -> io::Result<()> {
    // One write per frame: a separate prefix write would hand Nagle a
    // tiny segment to sit on.
    let mut out = Vec::with_capacity(4 + frame.len());
    out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
    out.extend_from_slice(frame);
    dst.write_all(&out)?;
    dst.flush()
}
