//! The shard directory: the single writer of the cluster's [`ShardMap`].
//!
//! A `Directory` owns the authoritative map and serves it over the same
//! length-prefixed wire protocol the nodes speak. It is a plain `std`
//! TCP service — an accept loop blocked in `accept` on one thread (a
//! stop wakes it with a connect to its own address), one handler thread
//! per connection — answering:
//!
//! - `HELLO` — the strict version check, like any node: acks
//!   `PROTOCOL_VERSION`, answers any other with `ERROR(BadRequest)` and
//!   closes;
//! - `MAP_GET` — the current map text and epoch;
//! - `MIGRATE {range, node}` — orchestrates a live handoff (below) and
//!   answers `MAP_RESP` with the post-migration map;
//! - `STATS` — fans `STATS` out to every node in the map and answers
//!   with the aggregated [`cluster_report`](crate::stats::cluster_report);
//! - `SHUTDOWN` — `GOODBYE`, then the directory stops.
//!
//! # Handoff protocol
//!
//! A migration of `range` from its current owner to `node` runs:
//!
//! 1. `MIGRATE_OUT range` to the source. The source seals the range
//!    (`BUSY(moving)` to new arrivals), drains every in-flight request
//!    for it, and returns its ThresholdLearner snapshot.
//! 2. `MIGRATE_IN range + state` to the target, which pre-seeds its
//!    learner. The target does not own the range yet.
//! 3. Epoch bump: the directory installs `map.moved(range, node)` and
//!    pushes the new map to every node (`MAP_PUSH`). Only this push
//!    flips ownership — the source stops answering `BUSY(moving)` and
//!    starts answering `WRONG_SHARD(epoch)`, the target starts serving.
//!
//! If the source is unreachable (crashed node) the handoff degrades to a
//! failover: the learner state is lost (empty snapshot) but ownership
//! still moves, which is exactly the [`rebalance_away`] path. If the
//! *target* is unreachable the migration aborts: the epoch is bumped
//! with the assignment unchanged and re-pushed, which un-seals the
//! source (a `MAP_PUSH` resets every range it lists to owned).
//!
//! [`rebalance_away`]: Directory::rebalance_away

use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use rif_server::client::Conn;
use rif_server::protocol::{
    decode_request, encode_response, write_frame, ErrorCode, FrameBuffer, Request, Response,
    PROTOCOL_VERSION,
};

use crate::map::{ShardMap, ShardMapError};
use crate::stats::{cluster_report, NodeStats};

/// Correlation tag the directory uses on the RPCs it originates.
const DIRECTORY_TAG: u64 = u64::MAX - 1;

/// How long the directory waits for one node reply before declaring the
/// node unreachable.
const RPC_TIMEOUT: Duration = Duration::from_secs(5);

/// Read timeout of a handler connection: how soon an idle one notices a
/// stop.
const ACCEPT_TICK: Duration = Duration::from_millis(5);

struct Inner {
    /// The listening address; a connect to it wakes the blocked accept.
    addr: SocketAddr,
    map: Mutex<ShardMap>,
    /// Serializes migrations and rebalances so two admin requests can
    /// never interleave their epoch bumps.
    admin: Mutex<()>,
    stop: AtomicBool,
    /// When set, every installed map (epoch included) is written here
    /// atomically, and a restarting directory restores from it.
    persist: Option<PathBuf>,
}

/// Why a persisted directory map could not be restored.
#[derive(Debug)]
pub enum MapLoadError {
    /// The file could not be read (missing counts as this too).
    Io(io::Error),
    /// The file's contents are not a valid canonical map serialization
    /// — a crash mid-write without the atomic rename, or corruption.
    Malformed(ShardMapError),
}

impl std::fmt::Display for MapLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapLoadError::Io(e) => write!(f, "reading persisted map: {e}"),
            MapLoadError::Malformed(e) => write!(f, "persisted map is corrupt: {e}"),
        }
    }
}

impl std::error::Error for MapLoadError {}

/// Loads a persisted directory map (the canonical text serialization,
/// epoch included) with typed errors, so a restarting directory can
/// tell "no file yet" from "the file is corrupt".
pub fn load_map(path: &Path) -> Result<ShardMap, MapLoadError> {
    let text = std::fs::read_to_string(path).map_err(MapLoadError::Io)?;
    ShardMap::parse_text(&text).map_err(MapLoadError::Malformed)
}

/// Atomically persists `map` to `path`: write to a sibling tmp file,
/// then rename over — a crash mid-write leaves the old file intact.
fn persist_map(path: &Path, map: &ShardMap) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, map.to_text())?;
    std::fs::rename(&tmp, path)
}

/// A running directory service (see the module docs).
pub struct Directory {
    addr: SocketAddr,
    inner: Arc<Inner>,
    accept: Option<thread::JoinHandle<()>>,
}

/// Pushes `map` to the node at `addr`, telling it which ranges it owns,
/// which it follows, and where to ship each owned range's replicas.
/// Returns the epoch the node acknowledged.
fn push_to(addr: &str, map: &ShardMap, id: &str) -> io::Result<u64> {
    let owned = map.owned_ranges(id);
    let replicas: Vec<(u32, String)> = owned
        .iter()
        .flat_map(|&r| {
            map.followers_of(r)
                .into_iter()
                .map(move |n| (r, n.addr.clone()))
        })
        .collect();
    let mut conn = Conn::connect(addr)?;
    let resp = conn.call(
        &Request::MapPush {
            tag: DIRECTORY_TAG,
            epoch: map.epoch,
            capacity_bytes: map.capacity_bytes,
            ranges: map.ranges,
            owned,
            followed: map.followed_ranges(id),
            replicas,
            map_text: map.to_text(),
        },
        RPC_TIMEOUT,
    )?;
    match resp {
        Response::MapResp { epoch, .. } => Ok(epoch),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("MAP_PUSH to {addr}: unexpected reply {other:?}"),
        )),
    }
}

impl Directory {
    /// Binds `127.0.0.1:port` (0 for ephemeral), installs `map` on every
    /// reachable node via `MAP_PUSH`, and starts serving. Nodes that are
    /// not up yet are skipped — call [`push_all`](Directory::push_all)
    /// once they are.
    pub fn start(map: ShardMap, port: u16) -> io::Result<Directory> {
        Directory::start_inner(map, port, None)
    }

    /// Like [`start`](Directory::start), but durable: the map (epoch
    /// included) is persisted to `path` on boot and after every epoch
    /// bump, and a directory restarting over an existing file restores
    /// the persisted map **instead of** the `map` argument — same
    /// epoch, byte-identical text — then re-pushes it to every node, so
    /// a directory kill loses no placement and forces no re-migration.
    /// A corrupt file fails the boot with [`MapLoadError::Malformed`]
    /// (wrapped in `InvalidData`) rather than silently restarting from
    /// scratch; use [`load_map`] to inspect.
    pub fn start_persistent(
        map: ShardMap,
        port: u16,
        path: impl Into<PathBuf>,
    ) -> io::Result<Directory> {
        let path = path.into();
        let map = match load_map(&path) {
            Ok(restored) => restored,
            Err(MapLoadError::Io(e)) if e.kind() == io::ErrorKind::NotFound => map,
            Err(MapLoadError::Io(e)) => return Err(e),
            Err(e @ MapLoadError::Malformed(_)) => {
                return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
            }
        };
        persist_map(&path, &map)?;
        Directory::start_inner(map, port, Some(path))
    }

    fn start_inner(map: ShardMap, port: u16, persist: Option<PathBuf>) -> io::Result<Directory> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            addr,
            map: Mutex::new(map),
            admin: Mutex::new(()),
            stop: AtomicBool::new(false),
            persist,
        });
        let dir = Directory {
            addr,
            inner: inner.clone(),
            accept: Some(thread::spawn(move || accept_loop(listener, inner))),
        };
        dir.push_all();
        Ok(dir)
    }

    /// The bound address routers and admin clients should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the current map.
    pub fn map(&self) -> ShardMap {
        lock(&self.inner.map).clone()
    }

    /// Pushes the current map to every node; returns how many acked.
    pub fn push_all(&self) -> usize {
        let map = self.map();
        map.nodes
            .iter()
            .filter(|n| push_to(&n.addr, &map, &n.id).is_ok())
            .count()
    }

    /// Live-migrates `range` to node `to_id` with the three-step handoff
    /// in the module docs. Returns the new epoch.
    pub fn migrate(&self, range: u32, to_id: &str) -> io::Result<u64> {
        let _admin = lock(&self.inner.admin);
        migrate_locked(&self.inner, range, to_id)
    }

    /// Removes `dead_id` from the map (a crashed node), re-placing only
    /// its ranges by rendezvous over the survivors, and pushes the new
    /// epoch everywhere. Returns the new epoch.
    pub fn rebalance_away(&self, dead_id: &str) -> io::Result<u64> {
        let _admin = lock(&self.inner.admin);
        let next = lock(&self.inner.map)
            .without_node(dead_id)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        install_and_push(&self.inner, next)
    }

    /// True once the directory has been asked to stop (via
    /// [`stop`](Directory::stop) or a wire `SHUTDOWN`).
    pub fn stopped(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }

    /// Stops the accept loop and joins it (what dropping the directory
    /// does). Open handler connections wind down on their next read
    /// tick.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for Directory {
    fn drop(&mut self) {
        halt(&self.inner);
        if let Some(h) = self.accept.take() {
            h.join().ok();
        }
    }
}

/// Raises the stop flag and wakes the accept loop, blocked in `accept`,
/// with a connect to its own address.
fn halt(inner: &Inner) {
    inner.stop.store(true, Ordering::SeqCst);
    TcpStream::connect(inner.addr).ok();
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// One `MAP_GET` on an open directory connection (the router keeps one
/// for its refreshes): `(epoch, map text)`.
pub(crate) fn map_get(conn: &mut Conn) -> io::Result<(u64, String)> {
    match conn.call(&Request::MapGet { tag: DIRECTORY_TAG }, RPC_TIMEOUT)? {
        Response::MapResp { epoch, text, .. } => Ok((epoch, text)),
        other => Err(unexpected("MAP_GET", &other)),
    }
}

/// Admin client: fetches `(epoch, map text)` from a running directory.
pub fn fetch_map_text(addr: &str) -> io::Result<(u64, String)> {
    map_get(&mut Conn::connect(addr)?)
}

/// Admin client: asks the directory to migrate `range` to node `to_id`;
/// returns the post-migration `(epoch, map text)`.
pub fn request_migrate(addr: &str, range: u32, to_id: &str) -> io::Result<(u64, String)> {
    let mut conn = Conn::connect(addr)?;
    let req = Request::Migrate {
        tag: DIRECTORY_TAG,
        range,
        node: to_id.to_string(),
    };
    match conn.call(&req, RPC_TIMEOUT)? {
        Response::MapResp { epoch, text, .. } => Ok((epoch, text)),
        other => Err(unexpected("MIGRATE", &other)),
    }
}

/// Admin client: fetches the aggregated cluster STATS report.
pub fn fetch_cluster_stats(addr: &str) -> io::Result<String> {
    let mut conn = Conn::connect(addr)?;
    match conn.call(&Request::Stats { tag: DIRECTORY_TAG }, RPC_TIMEOUT)? {
        Response::Stats { text, .. } => Ok(text),
        other => Err(unexpected("STATS", &other)),
    }
}

fn unexpected(what: &str, got: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{what}: unexpected reply {got:?}"),
    )
}

/// Persists `next`, installs it as the authoritative map and pushes it
/// to every node it lists. Returns the new epoch; push failures are
/// non-fatal (the node will catch up from `WRONG_SHARD` routing or the
/// next push), a persist failure is fatal and leaves the old map in
/// place, unpushed.
fn install_and_push(inner: &Inner, next: ShardMap) -> io::Result<u64> {
    let epoch = next.epoch;
    // Persist before installing or pushing: once anyone has seen the new
    // epoch, a restarting directory must never come back with an older
    // one.
    if let Some(path) = &inner.persist {
        persist_map(path, &next)?;
    }
    *lock(&inner.map) = next.clone();
    for n in &next.nodes {
        push_to(&n.addr, &next, &n.id).ok();
    }
    Ok(epoch)
}

fn migrate_locked(inner: &Inner, range: u32, to_id: &str) -> io::Result<u64> {
    let map = lock(&inner.map).clone();
    let next = map
        .moved(range, to_id)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let source = map.node_of(range).clone();
    if source.id == to_id {
        return Ok(map.epoch);
    }

    // Step 1: drain + snapshot at the source. An unreachable source
    // degrades to a failover with an empty snapshot.
    let state = match Conn::connect(&source.addr) {
        Ok(mut conn) => match conn.call(
            &Request::MigrateOut {
                tag: DIRECTORY_TAG,
                range,
            },
            RPC_TIMEOUT,
        ) {
            Ok(Response::Migrated { state, .. }) => state,
            _ => String::new(),
        },
        Err(_) => String::new(),
    };

    // Step 2: pre-seed the target. If the target is down the migration
    // aborts — bump the epoch with the assignment unchanged so the
    // source's sealed range is re-opened by the push.
    let target = next.node_of(range).clone();
    let seeded = Conn::connect(&target.addr).and_then(|mut conn| {
        conn.call(
            &Request::MigrateIn {
                tag: DIRECTORY_TAG,
                range,
                state,
            },
            RPC_TIMEOUT,
        )
    });
    if !matches!(seeded, Ok(Response::Migrated { .. })) {
        let mut unsealed = map;
        unsealed.epoch = next.epoch;
        install_and_push(inner, unsealed)?;
        return Err(io::Error::new(
            io::ErrorKind::NotConnected,
            format!("migration target {to_id} unreachable; aborted"),
        ));
    }

    // Step 3: the epoch bump makes it real.
    install_and_push(inner, next)
}

/// Fans `STATS` out to every node in `map`; unreachable nodes appear
/// with empty stats so the report still names them.
fn fanout_stats(map: &ShardMap) -> String {
    let per_node: Vec<(String, NodeStats)> = map
        .nodes
        .iter()
        .map(|n| {
            let stats = Conn::connect(&n.addr)
                .and_then(|mut conn| conn.call(&Request::Stats { tag: DIRECTORY_TAG }, RPC_TIMEOUT))
                .ok()
                .and_then(|resp| match resp {
                    Response::Stats { text, .. } => NodeStats::parse_text(&text).ok(),
                    _ => None,
                })
                .unwrap_or_default();
            (n.id.clone(), stats)
        })
        .collect();
    cluster_report(&per_node)
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    let mut handlers = Vec::new();
    for stream in listener.incoming() {
        // A stop wakes the accept with a connect of its own.
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                let inner = inner.clone();
                handlers.push(thread::spawn(move || serve_conn(stream, inner)));
            }
            Err(_) => break,
        }
    }
    for h in handlers {
        h.join().ok();
    }
}

fn serve_conn(stream: TcpStream, inner: Arc<Inner>) {
    stream.set_nodelay(true).ok();
    if stream.set_read_timeout(Some(ACCEPT_TICK)).is_err() {
        return;
    }
    let mut writer = io::BufWriter::new(&stream);
    let mut frames = FrameBuffer::new();
    // Set when hanging up on a peer that may still be sending.
    let mut refused = false;
    'conn: while !inner.stop.load(Ordering::SeqCst) {
        loop {
            let payload = match frames.next_frame() {
                Ok(Some(payload)) => payload,
                Ok(None) => break,
                // The length prefix lied: frame sync is gone for good.
                Err(_) => {
                    refused = true;
                    break 'conn;
                }
            };
            let Ok(req) = decode_request(payload) else {
                let resp = Response::Error {
                    tag: 0,
                    code: ErrorCode::BadRequest,
                };
                if write_frame(&mut writer, &encode_response(&resp)).is_err() {
                    break 'conn;
                }
                continue;
            };
            let resp = match req {
                Request::Hello { tag, version } if version == PROTOCOL_VERSION => {
                    Response::HelloAck { tag, version }
                }
                Request::Hello { tag, .. } => {
                    let refusal = Response::Error {
                        tag,
                        code: ErrorCode::BadRequest,
                    };
                    write_frame(&mut writer, &encode_response(&refusal)).ok();
                    refused = true;
                    break 'conn;
                }
                Request::MapGet { tag } => {
                    let map = lock(&inner.map);
                    Response::MapResp {
                        tag,
                        epoch: map.epoch,
                        text: map.to_text(),
                    }
                }
                Request::Migrate { tag, range, node } => {
                    let _admin = lock(&inner.admin);
                    match migrate_locked(&inner, range, &node) {
                        Ok(_) => {
                            let map = lock(&inner.map);
                            Response::MapResp {
                                tag,
                                epoch: map.epoch,
                                text: map.to_text(),
                            }
                        }
                        Err(_) => Response::Error {
                            tag,
                            code: ErrorCode::Internal,
                        },
                    }
                }
                Request::Stats { tag } => {
                    let map = lock(&inner.map).clone();
                    Response::Stats {
                        tag,
                        text: fanout_stats(&map),
                    }
                }
                Request::Shutdown { tag } => {
                    write_frame(&mut writer, &encode_response(&Response::Goodbye { tag })).ok();
                    halt(&inner);
                    break 'conn;
                }
                other => Response::Error {
                    tag: other.tag(),
                    code: ErrorCode::BadRequest,
                },
            };
            if write_frame(&mut writer, &encode_response(&resp)).is_err() {
                break 'conn;
            }
        }
        match frames.read_from(&mut &stream) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => break,
        }
    }
    if refused {
        // Closing with unread input sends RST, which can destroy the
        // refusal before the peer reads it: send FIN after it, then
        // discard input until the peer's EOF or a read times out.
        writer.flush().ok();
        stream.shutdown(Shutdown::Write).ok();
        io::copy(&mut &stream, &mut io::sink()).ok();
    }
}
