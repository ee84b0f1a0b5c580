//! The length-prefixed binary wire protocol of the storage service.
//!
//! Every message on the wire is one *frame*:
//!
//! ```text
//! +----------------+---------------------------+
//! | len: u32 LE    | payload (len bytes)       |
//! +----------------+---------------------------+
//! ```
//!
//! with `len <= MAX_FRAME_BYTES`. The first payload byte is the opcode;
//! all integers are little-endian. Request payloads:
//!
//! ```text
//! READ / WRITE : op u8 | tenant u32 | tag u64 | offset u64 | bytes u32
//! STATS / FLUSH / SHUTDOWN : op u8 | tag u64
//! HELLO   : op u8 | tag u64 | version u32
//! BATCH   : op u8 | count u16 | count × entry
//!   entry : op u8 (READ|WRITE) | tenant u32 | tag u64 | offset u64
//!         | bytes u32 | retry_of u64
//! MAP_GET : op u8 | tag u64
//! MAP_PUSH : op u8 | tag u64 | epoch u64 | capacity u64 | ranges u32
//!          | owned_count u16 | owned_count × range u32
//!          | follow_count u16 | follow_count × range u32
//!          | repl_count u16 | repl_count × (range u32 | addr_len u16
//!          | addr bytes (UTF-8))
//!          | map text (UTF-8, rest of frame)
//! MIGRATE_OUT : op u8 | tag u64 | range u32
//! MIGRATE_IN  : op u8 | tag u64 | range u32 | state text (UTF-8, rest)
//! MIGRATE : op u8 | tag u64 | range u32 | node id text (UTF-8, rest)
//! REPLICATE : op u8 | tag u64 | range u32 | epoch u64 | seq u64
//!           | tenant u32 | offset u64 | bytes u32
//! ```
//!
//! Response payloads:
//!
//! ```text
//! DONE    : op u8 | tag u64 | latency_ns u64
//! BUSY    : op u8 | tag u64 | reason u8
//! ERROR   : op u8 | tag u64 | code u8
//! STATS   : op u8 | tag u64 | text (UTF-8, rest of frame)
//! FLUSHED / GOODBYE : op u8 | tag u64
//! HELLO_ACK : op u8 | tag u64 | version u32
//! MAP_RESP : op u8 | tag u64 | epoch u64 | map text (UTF-8, rest)
//! WRONG_SHARD : op u8 | tag u64 | epoch u64
//! MIGRATED : op u8 | tag u64 | range u32 | state text (UTF-8, rest)
//! REPL_ACK : op u8 | tag u64 | range u32 | seq u64
//! ```
//!
//! There is one wire version, [`PROTOCOL_VERSION`]. HELLO is a strict
//! check of it, not a negotiation: a peer acks `HELLO(PROTOCOL_VERSION)`
//! with `HELLO_ACK(PROTOCOL_VERSION)` and answers any other version
//! with `ERROR(BadRequest)` and a close. Sending HELLO is optional —
//! every opcode is served with or without it. BATCH carries up to
//! [`MAX_BATCH_ENTRIES`] I/O submissions under one length prefix; each
//! entry keeps its own tag (responses stay per-request and may
//! interleave with other traffic) and a `retry_of` field naming the
//! original tag when the entry is a client re-issue (zero otherwise).
//!
//! The MAP_*, MIGRATE_*, and REPLICATE messages are the cluster
//! messages. MAP_GET asks any node or the directory for its
//! current shard map (answered with MAP_RESP); MAP_PUSH installs new
//! range ownership on a node (the map text rides along verbatim so the
//! node can serve it back without parsing it). MAP_PUSH additionally
//! names the ranges the node **follows** (replica apply targets) and,
//! per owned range, the follower endpoints the node must ship its
//! writes to — both lists sit before the text tail, and both sides of
//! MAP_PUSH (directory and node) always ship in the same build, so the
//! layout can grow without a version gate. REPLICATE ships one primary
//! write to a follower, version-stamped with the primary's map `epoch`
//! and a per-range monotone `seq`; the follower applies it and answers
//! REPL_ACK with the same stamp, advancing the primary's per-range
//! replication watermark. MIGRATE_OUT seals a range on
//! its source node and returns the drained shard's learner state;
//! MIGRATE_IN seeds that state into the target. MIGRATE is the
//! directory's admin entry point ("move this range to that node").
//! WRONG_SHARD(epoch) rejects an I/O routed to a node that does not own
//! the range — never admitted, so re-routing is always safe — and
//! BUSY(moving) bounces arrivals for a range mid-handoff.
//!
//! The `tag` is an opaque client-chosen correlation id echoed verbatim;
//! responses may arrive out of submission order (the simulator completes
//! requests when their last byte crosses the host link, not FIFO).
//! Decoding is strict: unknown opcodes, short payloads, and trailing
//! bytes are all [`WireError`]s, and a frame header announcing more than
//! [`MAX_FRAME_BYTES`] is rejected before any allocation.

use std::fmt;
use std::io::{self, Write};

use rif_workloads::IoOp;

/// Upper bound on a frame payload. Large enough for a STATS dump, small
/// enough that a corrupt length prefix cannot make the peer allocate
/// gigabytes.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024;

/// The one protocol version this build speaks and accepts in HELLO.
pub const PROTOCOL_VERSION: u32 = 3;

/// Upper bound on entries in one BATCH frame. At 33 bytes per entry a
/// full batch stays well under [`MAX_FRAME_BYTES`].
pub const MAX_BATCH_ENTRIES: u16 = 512;

pub(crate) const BATCH_ENTRY_BYTES: usize = 33;

pub(crate) const OP_READ: u8 = 0x01;
pub(crate) const OP_WRITE: u8 = 0x02;
pub(crate) const OP_STATS: u8 = 0x03;
pub(crate) const OP_FLUSH: u8 = 0x04;
pub(crate) const OP_SHUTDOWN: u8 = 0x05;
pub(crate) const OP_HELLO: u8 = 0x06;
pub(crate) const OP_BATCH: u8 = 0x07;
pub(crate) const OP_MAP_GET: u8 = 0x08;
pub(crate) const OP_MAP_PUSH: u8 = 0x09;
pub(crate) const OP_MIGRATE_OUT: u8 = 0x0A;
pub(crate) const OP_MIGRATE_IN: u8 = 0x0B;
pub(crate) const OP_MIGRATE: u8 = 0x0C;
pub(crate) const OP_REPLICATE: u8 = 0x0D;

const OP_DONE: u8 = 0x81;
const OP_BUSY: u8 = 0x82;
const OP_ERROR: u8 = 0x83;
const OP_STATS_RESP: u8 = 0x84;
const OP_FLUSHED: u8 = 0x85;
const OP_GOODBYE: u8 = 0x86;
const OP_HELLO_ACK: u8 = 0x87;
const OP_MAP_RESP: u8 = 0x88;
const OP_WRONG_SHARD: u8 = 0x89;
const OP_MIGRATED: u8 = 0x8A;
const OP_REPL_ACK: u8 = 0x8B;

/// Why the server refused a request without simulating it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyReason {
    /// The target shard's in-flight window is full (queue backpressure).
    Queue,
    /// The tenant's token bucket is empty (rate limit).
    RateLimit,
    /// The target shard is dead and has not restarted yet. The
    /// request was *not* admitted, so retrying is always safe.
    Unavailable,
    /// The addressed LBA range is mid-migration to another node. The
    /// request was *not* admitted; the client should refresh its shard
    /// map and re-route.
    Moving,
}

/// Terminal error codes carried in ERROR responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame did not decode.
    BadRequest,
    /// The request addressed a zero-byte or oversized transfer.
    BadLength,
    /// The server is shutting down.
    ShuttingDown,
    /// The shard crashed with this request in flight: the I/O may
    /// or may not have executed. Reads can be retried; writes must be
    /// surfaced to the caller.
    Internal,
    /// The server's connection limit is reached; this connection was
    /// refused at accept time and closes immediately after this frame.
    ConnLimit,
}

/// One I/O submission inside a BATCH frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchEntry {
    /// Read or write (the only ops a batch may carry).
    pub op: IoOp,
    /// Tenant id for rate limiting.
    pub tenant: u32,
    /// Client correlation tag, echoed in this entry's response.
    pub tag: u64,
    /// Logical byte offset.
    pub offset: u64,
    /// Transfer size in bytes.
    pub bytes: u32,
    /// Tag of the original submission when this entry is a client
    /// re-issue of an earlier request; zero for a first submission. The
    /// server's trace recorder uses it to journal the logical request
    /// once rather than once per retry.
    pub retry_of: u64,
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Simulated read of `bytes` at logical `offset`.
    Read {
        /// Tenant id for rate limiting.
        tenant: u32,
        /// Client correlation tag, echoed in the response.
        tag: u64,
        /// Logical byte offset.
        offset: u64,
        /// Transfer size in bytes.
        bytes: u32,
    },
    /// Simulated write of `bytes` at logical `offset`.
    Write {
        /// Tenant id for rate limiting.
        tenant: u32,
        /// Client correlation tag, echoed in the response.
        tag: u64,
        /// Logical byte offset.
        offset: u64,
        /// Transfer size in bytes.
        bytes: u32,
    },
    /// Snapshot the server's metrics registry.
    Stats {
        /// Client correlation tag.
        tag: u64,
    },
    /// Block until every in-flight request on every shard has completed.
    Flush {
        /// Client correlation tag.
        tag: u64,
    },
    /// Ask the server process to exit after draining.
    Shutdown {
        /// Client correlation tag.
        tag: u64,
    },
    /// Version check: "I speak `version`". Answered by
    /// [`Response::HelloAck`] when it equals [`PROTOCOL_VERSION`],
    /// `ERROR(BadRequest)` and a close otherwise.
    Hello {
        /// Client correlation tag.
        tag: u64,
        /// The protocol version the client speaks.
        version: u32,
    },
    /// Up to [`MAX_BATCH_ENTRIES`] I/O submissions in one frame.
    /// Admission is per-entry: each entry gets its own DONE/BUSY/ERROR.
    Batch(Vec<BatchEntry>),
    /// Ask for the peer's current shard map (cluster). Answered with
    /// [`Response::MapResp`].
    MapGet {
        /// Client correlation tag.
        tag: u64,
    },
    /// Install range ownership on a node (cluster, directory → node). The
    /// canonical map text rides along verbatim so the node can serve it
    /// back on MAP_GET without parsing it.
    MapPush {
        /// Client correlation tag.
        tag: u64,
        /// The map's monotonic epoch.
        epoch: u64,
        /// Logical capacity the range grid divides (must match the
        /// node's configured capacity).
        capacity_bytes: u64,
        /// Total ranges in the grid (must match the node's shard count).
        ranges: u32,
        /// The range indices this node now owns.
        owned: Vec<u32>,
        /// The range indices this node now **follows**: it accepts
        /// REPLICATE applies (and serves reads for failover) but bounces
        /// client writes back to the primary.
        followed: Vec<u32>,
        /// Per owned range, the follower endpoints this node ships its
        /// writes to — one `(range, addr)` pair per follower, so a range
        /// with two followers appears twice.
        replicas: Vec<(u32, String)>,
        /// Canonical shard-map serialization, stored verbatim.
        map_text: String,
    },
    /// Seal a range on its source node (cluster): drain its in-flight
    /// requests and return the shard's learner state via
    /// [`Response::Migrated`]. The range bounces `BUSY(moving)` until a
    /// later MAP_PUSH settles ownership.
    MigrateOut {
        /// Client correlation tag.
        tag: u64,
        /// The range index to seal.
        range: u32,
    },
    /// Seed a migrated range's learner state into the target node (cluster).
    MigrateIn {
        /// Client correlation tag.
        tag: u64,
        /// The range index being adopted.
        range: u32,
        /// The source shard's learner state (may be empty on failover).
        state: String,
    },
    /// Directory admin entry point (cluster): move `range` to node `node`.
    /// The directory orchestrates MIGRATE_OUT/MIGRATE_IN/MAP_PUSH and
    /// answers with [`Response::MapResp`] carrying the new map.
    Migrate {
        /// Client correlation tag.
        tag: u64,
        /// The range index to move.
        range: u32,
        /// Id of the destination node in the map.
        node: String,
    },
    /// Ship one primary write to a follower (cluster, node → node). The
    /// follower applies it to its local shard and answers
    /// [`Response::ReplAck`] echoing the `(range, seq)` stamp.
    Replicate {
        /// Shipper correlation tag (the primary's replication stream
        /// numbers these independently of any client tag space).
        tag: u64,
        /// The range the write belongs to.
        range: u32,
        /// The primary's map epoch when it shipped the write — a
        /// staleness stamp, so a follower that moved on can refuse.
        epoch: u64,
        /// Per-range monotone sequence number of this write on the
        /// primary; acks gate the range's replication watermark.
        seq: u64,
        /// Originating tenant (follower-side accounting only; the
        /// primary already charged admission).
        tenant: u32,
        /// Wrapped global byte offset of the write.
        offset: u64,
        /// Transfer size in bytes.
        bytes: u32,
    },
}

impl Request {
    /// The correlation tag of this request. A batch has no frame-level
    /// tag (each entry carries its own); its first entry's tag stands in
    /// so diagnostics have something to point at.
    pub fn tag(&self) -> u64 {
        match self {
            Request::Read { tag, .. }
            | Request::Write { tag, .. }
            | Request::Stats { tag }
            | Request::Flush { tag }
            | Request::Shutdown { tag }
            | Request::Hello { tag, .. }
            | Request::MapGet { tag }
            | Request::MapPush { tag, .. }
            | Request::MigrateOut { tag, .. }
            | Request::MigrateIn { tag, .. }
            | Request::Migrate { tag, .. }
            | Request::Replicate { tag, .. } => *tag,
            Request::Batch(entries) => entries.first().map_or(0, |e| e.tag),
        }
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The simulated I/O completed.
    Done {
        /// The request's correlation tag.
        tag: u64,
        /// Virtual (simulation-clock) service latency.
        latency_ns: u64,
    },
    /// Backpressure: retry later.
    Busy {
        /// The request's correlation tag.
        tag: u64,
        /// Which admission check refused the request.
        reason: BusyReason,
    },
    /// The request was rejected outright.
    Error {
        /// The request's correlation tag (zero if none decoded).
        tag: u64,
        /// Why it was rejected.
        code: ErrorCode,
    },
    /// Deterministic `MetricsRegistry::lines` rendering, one per line.
    Stats {
        /// The request's correlation tag.
        tag: u64,
        /// The rendered metrics text.
        text: String,
    },
    /// All shards drained.
    Flushed {
        /// The request's correlation tag.
        tag: u64,
    },
    /// Shutdown acknowledged; the connection closes next.
    Goodbye {
        /// The request's correlation tag.
        tag: u64,
    },
    /// Version check reply: both sides speak `version`.
    HelloAck {
        /// The HELLO's correlation tag.
        tag: u64,
        /// The confirmed protocol version ([`PROTOCOL_VERSION`]).
        version: u32,
    },
    /// The peer's current shard map (cluster).
    MapResp {
        /// The MAP_GET's correlation tag.
        tag: u64,
        /// The map's monotonic epoch.
        epoch: u64,
        /// Canonical shard-map serialization (empty if the node has not
        /// received a map yet).
        text: String,
    },
    /// The addressed LBA range is not owned by this node (cluster). The
    /// request was *not* admitted; the client should refetch the map
    /// and re-route. `epoch` is the node's current map epoch, a
    /// staleness hint for the client's cache.
    WrongShard {
        /// The request's correlation tag.
        tag: u64,
        /// The responding node's current map epoch.
        epoch: u64,
    },
    /// A MIGRATE_OUT or MIGRATE_IN completed (cluster). For MIGRATE_OUT,
    /// `state` carries the drained shard's learner snapshot; for
    /// MIGRATE_IN it is empty.
    Migrated {
        /// The request's correlation tag.
        tag: u64,
        /// The range index that moved.
        range: u32,
        /// Learner state text (empty when none).
        state: String,
    },
    /// A follower applied a [`Request::Replicate`] (cluster). Echoes the
    /// write's `(range, seq)` stamp; the primary advances the range's
    /// replication watermark to `seq` once every follower acked it.
    ReplAck {
        /// The REPLICATE's correlation tag.
        tag: u64,
        /// The range the write belonged to.
        range: u32,
        /// The acknowledged sequence number.
        seq: u64,
    },
}

impl Response {
    /// The correlation tag of this response.
    pub fn tag(&self) -> u64 {
        match *self {
            Response::Done { tag, .. }
            | Response::Busy { tag, .. }
            | Response::Error { tag, .. }
            | Response::Stats { tag, .. }
            | Response::Flushed { tag }
            | Response::Goodbye { tag }
            | Response::HelloAck { tag, .. }
            | Response::MapResp { tag, .. }
            | Response::WrongShard { tag, .. }
            | Response::Migrated { tag, .. }
            | Response::ReplAck { tag, .. } => tag,
        }
    }
}

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before a fixed-size field.
    Truncated {
        /// Bytes the message needs up to and including the short field.
        need: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// A frame header announced a payload above [`MAX_FRAME_BYTES`].
    Oversized {
        /// The announced length.
        len: u32,
    },
    /// The first payload byte is not a known opcode.
    UnknownOpcode(u8),
    /// Bytes remained after the last field of a fixed-size message.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// An enum byte (busy reason / error code) is out of range.
    BadEnum {
        /// Which field was malformed.
        field: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// STATS text is not valid UTF-8.
    BadUtf8,
    /// The payload is empty (no opcode byte).
    Empty,
    /// A BATCH frame announced zero entries.
    EmptyBatch,
    /// A BATCH frame announced more entries than [`MAX_BATCH_ENTRIES`].
    BatchTooLarge {
        /// The announced entry count.
        count: u16,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { need, got } => {
                write!(f, "truncated payload: need {need} bytes, got {got}")
            }
            WireError::Oversized { len } => {
                write!(
                    f,
                    "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
                )
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the last field")
            }
            WireError::BadEnum { field, value } => {
                write!(f, "field {field} has out-of-range value {value}")
            }
            WireError::BadUtf8 => write!(f, "stats text is not valid UTF-8"),
            WireError::Empty => write!(f, "empty payload"),
            WireError::EmptyBatch => write!(f, "batch frame with zero entries"),
            WireError::BatchTooLarge { count } => {
                write!(
                    f,
                    "batch of {count} entries exceeds the {MAX_BATCH_ENTRIES}-entry cap"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

// ----- field cursors -----------------------------------------------------

/// Field cursor of both decoders. Error layout (the exact `need`/`got`
/// of a `Truncated`: the byte the short field ends at, and the payload
/// length) is part of the wire contract.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let got = self.buf.len() - self.pos;
        if got < n {
            return Err(WireError::Truncated {
                need: self.pos + n,
                got: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// A count field, read a byte at a time: a payload that ends inside
    /// it is short by its first missing byte.
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes([self.u8()?, self.u8()?]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// `n` bytes of UTF-8 text.
    fn text(&mut self, n: usize) -> Result<String, WireError> {
        let b = self.take(n)?;
        Ok(std::str::from_utf8(b)
            .map_err(|_| WireError::BadUtf8)?
            .to_owned())
    }

    /// The rest of the payload as UTF-8 text.
    fn text_rest(&mut self) -> Result<String, WireError> {
        self.text(self.buf.len() - self.pos)
    }

    /// A `count u16 | count × item` list. The `Vec` grows as items
    /// decode, so a lying count allocates no more than the payload holds.
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let count = self.u16()?;
        (0..count).map(|_| item(self)).collect()
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                extra: self.buf.len() - self.pos,
            })
        }
    }
}

// ----- encoding ----------------------------------------------------------

/// Serializes a request into a frame payload (no length prefix).
///
/// # Panics
///
/// Panics on a [`Request::Batch`] that is empty or exceeds
/// [`MAX_BATCH_ENTRIES`] — such a batch can never decode, so encoding
/// one is a caller bug.
pub fn encode_request(r: &Request) -> Vec<u8> {
    let mut b = Vec::with_capacity(25);
    match r {
        Request::Read {
            tenant,
            tag,
            offset,
            bytes,
        }
        | Request::Write {
            tenant,
            tag,
            offset,
            bytes,
        } => {
            b.push(if matches!(r, Request::Read { .. }) {
                OP_READ
            } else {
                OP_WRITE
            });
            b.extend_from_slice(&tenant.to_le_bytes());
            b.extend_from_slice(&tag.to_le_bytes());
            b.extend_from_slice(&offset.to_le_bytes());
            b.extend_from_slice(&bytes.to_le_bytes());
        }
        Request::Stats { tag } => {
            b.push(OP_STATS);
            b.extend_from_slice(&tag.to_le_bytes());
        }
        Request::Flush { tag } => {
            b.push(OP_FLUSH);
            b.extend_from_slice(&tag.to_le_bytes());
        }
        Request::Shutdown { tag } => {
            b.push(OP_SHUTDOWN);
            b.extend_from_slice(&tag.to_le_bytes());
        }
        Request::Hello { tag, version } => {
            b.push(OP_HELLO);
            b.extend_from_slice(&tag.to_le_bytes());
            b.extend_from_slice(&version.to_le_bytes());
        }
        Request::Batch(entries) => {
            assert!(!entries.is_empty(), "encoding an empty batch");
            assert!(
                entries.len() <= MAX_BATCH_ENTRIES as usize,
                "batch of {} entries exceeds the {MAX_BATCH_ENTRIES}-entry cap",
                entries.len()
            );
            b.reserve(3 + entries.len() * BATCH_ENTRY_BYTES);
            b.push(OP_BATCH);
            b.extend_from_slice(&(entries.len() as u16).to_le_bytes());
            for e in entries {
                b.push(if e.op == IoOp::Read {
                    OP_READ
                } else {
                    OP_WRITE
                });
                b.extend_from_slice(&e.tenant.to_le_bytes());
                b.extend_from_slice(&e.tag.to_le_bytes());
                b.extend_from_slice(&e.offset.to_le_bytes());
                b.extend_from_slice(&e.bytes.to_le_bytes());
                b.extend_from_slice(&e.retry_of.to_le_bytes());
            }
        }
        Request::MapGet { tag } => {
            b.push(OP_MAP_GET);
            b.extend_from_slice(&tag.to_le_bytes());
        }
        Request::MapPush {
            tag,
            epoch,
            capacity_bytes,
            ranges,
            owned,
            followed,
            replicas,
            map_text,
        } => {
            assert!(
                owned.len() <= u16::MAX as usize
                    && followed.len() <= u16::MAX as usize
                    && replicas.len() <= u16::MAX as usize,
                "map-push list exceeds the u16 count field"
            );
            b.push(OP_MAP_PUSH);
            b.extend_from_slice(&tag.to_le_bytes());
            b.extend_from_slice(&epoch.to_le_bytes());
            b.extend_from_slice(&capacity_bytes.to_le_bytes());
            b.extend_from_slice(&ranges.to_le_bytes());
            b.extend_from_slice(&(owned.len() as u16).to_le_bytes());
            for r in owned {
                b.extend_from_slice(&r.to_le_bytes());
            }
            b.extend_from_slice(&(followed.len() as u16).to_le_bytes());
            for r in followed {
                b.extend_from_slice(&r.to_le_bytes());
            }
            b.extend_from_slice(&(replicas.len() as u16).to_le_bytes());
            for (r, addr) in replicas {
                assert!(
                    addr.len() <= u16::MAX as usize,
                    "replica addr exceeds the u16 length field"
                );
                b.extend_from_slice(&r.to_le_bytes());
                b.extend_from_slice(&(addr.len() as u16).to_le_bytes());
                b.extend_from_slice(addr.as_bytes());
            }
            b.extend_from_slice(map_text.as_bytes());
        }
        Request::MigrateOut { tag, range } => {
            b.push(OP_MIGRATE_OUT);
            b.extend_from_slice(&tag.to_le_bytes());
            b.extend_from_slice(&range.to_le_bytes());
        }
        Request::MigrateIn { tag, range, state } => {
            b.push(OP_MIGRATE_IN);
            b.extend_from_slice(&tag.to_le_bytes());
            b.extend_from_slice(&range.to_le_bytes());
            b.extend_from_slice(state.as_bytes());
        }
        Request::Migrate { tag, range, node } => {
            b.push(OP_MIGRATE);
            b.extend_from_slice(&tag.to_le_bytes());
            b.extend_from_slice(&range.to_le_bytes());
            b.extend_from_slice(node.as_bytes());
        }
        Request::Replicate {
            tag,
            range,
            epoch,
            seq,
            tenant,
            offset,
            bytes,
        } => {
            b.push(OP_REPLICATE);
            b.extend_from_slice(&tag.to_le_bytes());
            b.extend_from_slice(&range.to_le_bytes());
            b.extend_from_slice(&epoch.to_le_bytes());
            b.extend_from_slice(&seq.to_le_bytes());
            b.extend_from_slice(&tenant.to_le_bytes());
            b.extend_from_slice(&offset.to_le_bytes());
            b.extend_from_slice(&bytes.to_le_bytes());
        }
    }
    b
}

/// Parses a request payload: the one request decoder, a single pass
/// that reads each field once. Decoding is strict: a short field is a
/// `Truncated { need, got }` naming the exact byte it ran out at, and
/// trailing bytes, unknown opcodes, bad enums and non-UTF-8 text are
/// their own [`WireError`]s.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(payload);
    let op = r.u8().map_err(|_| WireError::Empty)?;
    let req = match op {
        OP_READ => Request::Read {
            tenant: r.u32()?,
            tag: r.u64()?,
            offset: r.u64()?,
            bytes: r.u32()?,
        },
        OP_WRITE => Request::Write {
            tenant: r.u32()?,
            tag: r.u64()?,
            offset: r.u64()?,
            bytes: r.u32()?,
        },
        OP_STATS => Request::Stats { tag: r.u64()? },
        OP_FLUSH => Request::Flush { tag: r.u64()? },
        OP_SHUTDOWN => Request::Shutdown { tag: r.u64()? },
        OP_HELLO => Request::Hello {
            tag: r.u64()?,
            version: r.u32()?,
        },
        OP_BATCH => {
            let count = r.u16()?;
            if count == 0 {
                return Err(WireError::EmptyBatch);
            }
            if count > MAX_BATCH_ENTRIES {
                return Err(WireError::BatchTooLarge { count });
            }
            let mut entries = Vec::with_capacity(usize::from(count));
            for _ in 0..count {
                let op = match r.u8()? {
                    OP_READ => IoOp::Read,
                    OP_WRITE => IoOp::Write,
                    value => {
                        return Err(WireError::BadEnum {
                            field: "batch_entry_op",
                            value,
                        })
                    }
                };
                entries.push(BatchEntry {
                    op,
                    tenant: r.u32()?,
                    tag: r.u64()?,
                    offset: r.u64()?,
                    bytes: r.u32()?,
                    retry_of: r.u64()?,
                });
            }
            Request::Batch(entries)
        }
        OP_MAP_GET => Request::MapGet { tag: r.u64()? },
        OP_MAP_PUSH => Request::MapPush {
            tag: r.u64()?,
            epoch: r.u64()?,
            capacity_bytes: r.u64()?,
            ranges: r.u32()?,
            owned: r.list(Reader::u32)?,
            followed: r.list(Reader::u32)?,
            replicas: r.list(|r| {
                let range = r.u32()?;
                let len = r.u16()?;
                Ok((range, r.text(usize::from(len))?))
            })?,
            map_text: r.text_rest()?,
        },
        OP_MIGRATE_OUT => Request::MigrateOut {
            tag: r.u64()?,
            range: r.u32()?,
        },
        OP_MIGRATE_IN => Request::MigrateIn {
            tag: r.u64()?,
            range: r.u32()?,
            state: r.text_rest()?,
        },
        OP_MIGRATE => Request::Migrate {
            tag: r.u64()?,
            range: r.u32()?,
            node: r.text_rest()?,
        },
        OP_REPLICATE => Request::Replicate {
            tag: r.u64()?,
            range: r.u32()?,
            epoch: r.u64()?,
            seq: r.u64()?,
            tenant: r.u32()?,
            offset: r.u64()?,
            bytes: r.u32()?,
        },
        other => return Err(WireError::UnknownOpcode(other)),
    };
    r.done()?;
    Ok(req)
}

/// Serializes a response into a frame payload (no length prefix).
pub fn encode_response(r: &Response) -> Vec<u8> {
    let mut b = Vec::with_capacity(17);
    encode_response_payload_into(r, &mut b);
    b
}

/// Appends one *length-prefixed* response frame to `out` without an
/// intermediate payload allocation. The event loop's per-connection
/// write queues encode straight into their coalesced chunks with this.
pub fn encode_response_frame_into(r: &Response, out: &mut Vec<u8>) {
    let len_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    encode_response_payload_into(r, out);
    let payload_len = out.len() - len_at - 4;
    assert!(
        payload_len <= MAX_FRAME_BYTES as usize,
        "frame payload of {payload_len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
    );
    out[len_at..len_at + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
}

fn encode_response_payload_into(r: &Response, b: &mut Vec<u8>) {
    match r {
        Response::Done { tag, latency_ns } => {
            b.push(OP_DONE);
            b.extend_from_slice(&tag.to_le_bytes());
            b.extend_from_slice(&latency_ns.to_le_bytes());
        }
        Response::Busy { tag, reason } => {
            b.push(OP_BUSY);
            b.extend_from_slice(&tag.to_le_bytes());
            b.push(match reason {
                BusyReason::Queue => 1,
                BusyReason::RateLimit => 2,
                BusyReason::Unavailable => 3,
                BusyReason::Moving => 4,
            });
        }
        Response::Error { tag, code } => {
            b.push(OP_ERROR);
            b.extend_from_slice(&tag.to_le_bytes());
            b.push(match code {
                ErrorCode::BadRequest => 1,
                ErrorCode::BadLength => 2,
                ErrorCode::ShuttingDown => 3,
                ErrorCode::Internal => 4,
                ErrorCode::ConnLimit => 5,
            });
        }
        Response::Stats { tag, text } => {
            b.push(OP_STATS_RESP);
            b.extend_from_slice(&tag.to_le_bytes());
            b.extend_from_slice(text.as_bytes());
        }
        Response::Flushed { tag } => {
            b.push(OP_FLUSHED);
            b.extend_from_slice(&tag.to_le_bytes());
        }
        Response::Goodbye { tag } => {
            b.push(OP_GOODBYE);
            b.extend_from_slice(&tag.to_le_bytes());
        }
        Response::HelloAck { tag, version } => {
            b.push(OP_HELLO_ACK);
            b.extend_from_slice(&tag.to_le_bytes());
            b.extend_from_slice(&version.to_le_bytes());
        }
        Response::MapResp { tag, epoch, text } => {
            b.push(OP_MAP_RESP);
            b.extend_from_slice(&tag.to_le_bytes());
            b.extend_from_slice(&epoch.to_le_bytes());
            b.extend_from_slice(text.as_bytes());
        }
        Response::WrongShard { tag, epoch } => {
            b.push(OP_WRONG_SHARD);
            b.extend_from_slice(&tag.to_le_bytes());
            b.extend_from_slice(&epoch.to_le_bytes());
        }
        Response::Migrated { tag, range, state } => {
            b.push(OP_MIGRATED);
            b.extend_from_slice(&tag.to_le_bytes());
            b.extend_from_slice(&range.to_le_bytes());
            b.extend_from_slice(state.as_bytes());
        }
        Response::ReplAck { tag, range, seq } => {
            b.push(OP_REPL_ACK);
            b.extend_from_slice(&tag.to_le_bytes());
            b.extend_from_slice(&range.to_le_bytes());
            b.extend_from_slice(&seq.to_le_bytes());
        }
    }
}

/// Parses a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(payload);
    let op = r.u8().map_err(|_| WireError::Empty)?;
    let resp = match op {
        OP_DONE => Response::Done {
            tag: r.u64()?,
            latency_ns: r.u64()?,
        },
        OP_BUSY => {
            let tag = r.u64()?;
            let reason = match r.u8()? {
                1 => BusyReason::Queue,
                2 => BusyReason::RateLimit,
                3 => BusyReason::Unavailable,
                4 => BusyReason::Moving,
                v => {
                    return Err(WireError::BadEnum {
                        field: "busy_reason",
                        value: v,
                    })
                }
            };
            Response::Busy { tag, reason }
        }
        OP_ERROR => {
            let tag = r.u64()?;
            let code = match r.u8()? {
                1 => ErrorCode::BadRequest,
                2 => ErrorCode::BadLength,
                3 => ErrorCode::ShuttingDown,
                4 => ErrorCode::Internal,
                5 => ErrorCode::ConnLimit,
                v => {
                    return Err(WireError::BadEnum {
                        field: "error_code",
                        value: v,
                    })
                }
            };
            Response::Error { tag, code }
        }
        OP_STATS_RESP => Response::Stats {
            tag: r.u64()?,
            text: r.text_rest()?,
        },
        OP_FLUSHED => Response::Flushed { tag: r.u64()? },
        OP_GOODBYE => Response::Goodbye { tag: r.u64()? },
        OP_HELLO_ACK => Response::HelloAck {
            tag: r.u64()?,
            version: r.u32()?,
        },
        OP_MAP_RESP => Response::MapResp {
            tag: r.u64()?,
            epoch: r.u64()?,
            text: r.text_rest()?,
        },
        OP_WRONG_SHARD => Response::WrongShard {
            tag: r.u64()?,
            epoch: r.u64()?,
        },
        OP_MIGRATED => Response::Migrated {
            tag: r.u64()?,
            range: r.u32()?,
            state: r.text_rest()?,
        },
        OP_REPL_ACK => Response::ReplAck {
            tag: r.u64()?,
            range: r.u32()?,
            seq: r.u64()?,
        },
        other => return Err(WireError::UnknownOpcode(other)),
    };
    r.done()?;
    Ok(resp)
}

// ----- frame I/O ---------------------------------------------------------

/// The one receive buffer: every socket reader pulls bytes into it with
/// [`FrameBuffer::read_from`] and pops borrowed frame payloads.
pub use crate::ring::FrameBuffer;

/// Writes one length-prefixed frame.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_BYTES`] — encoders in this
/// module never produce such a payload, so this is a caller bug.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    assert!(
        payload.len() <= MAX_FRAME_BYTES as usize,
        "frame payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
        payload.len()
    );
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn request_roundtrips() {
        let reqs = [
            Request::Read {
                tenant: 3,
                tag: 0xDEAD_BEEF,
                offset: 1 << 33,
                bytes: 65536,
            },
            Request::Write {
                tenant: 0,
                tag: u64::MAX,
                offset: 0,
                bytes: 1,
            },
            Request::Stats { tag: 7 },
            Request::Flush { tag: 8 },
            Request::Shutdown { tag: 9 },
            Request::Hello {
                tag: 10,
                version: PROTOCOL_VERSION,
            },
            Request::Batch(vec![
                BatchEntry {
                    op: IoOp::Read,
                    tenant: 1,
                    tag: 11,
                    offset: 4096,
                    bytes: 65536,
                    retry_of: 0,
                },
                BatchEntry {
                    op: IoOp::Write,
                    tenant: 2,
                    tag: 12,
                    offset: 1 << 40,
                    bytes: 4096,
                    retry_of: 11,
                },
            ]),
            Request::MapGet { tag: 13 },
            Request::MapPush {
                tag: 14,
                epoch: 3,
                capacity_bytes: 8 << 30,
                ranges: 4,
                owned: vec![0, 2],
                followed: vec![1, 3],
                replicas: vec![
                    (0, "127.0.0.1:4002".to_string()),
                    (2, "127.0.0.1:4003".to_string()),
                ],
                map_text: "# rif-shardmap v1 epoch=3 capacity=8589934592 ranges=4\n".to_string(),
            },
            Request::MapPush {
                tag: 15,
                epoch: 0,
                capacity_bytes: 1,
                ranges: 1,
                owned: vec![],
                followed: vec![],
                replicas: vec![],
                map_text: String::new(),
            },
            Request::MigrateOut { tag: 16, range: 2 },
            Request::MigrateIn {
                tag: 17,
                range: 2,
                state: "block 5 -0.0125\n".to_string(),
            },
            Request::MigrateIn {
                tag: 18,
                range: 0,
                state: String::new(),
            },
            Request::Migrate {
                tag: 19,
                range: 1,
                node: "b".to_string(),
            },
            Request::Replicate {
                tag: 20,
                range: 3,
                epoch: 7,
                seq: 41,
                tenant: 2,
                offset: 1 << 34,
                bytes: 65536,
            },
        ];
        for r in reqs {
            let enc = encode_request(&r);
            assert_eq!(decode_request(&enc), Ok(r));
        }
    }

    /// Every request kind once (a three-entry batch, MAP_PUSH with and
    /// without lists): the truncation sweep's inputs, also round-tripped
    /// through the receive ring.
    pub(crate) fn sample_requests() -> Vec<Request> {
        vec![
            Request::Read {
                tenant: 3,
                tag: 0xDEAD_BEEF,
                offset: 1 << 33,
                bytes: 65536,
            },
            Request::Write {
                tenant: 0,
                tag: u64::MAX,
                offset: 0,
                bytes: 1,
            },
            Request::Stats { tag: 7 },
            Request::Flush { tag: 8 },
            Request::Shutdown { tag: 9 },
            Request::Hello {
                tag: 10,
                version: 2,
            },
            Request::Batch(vec![
                BatchEntry {
                    op: IoOp::Read,
                    tenant: 1,
                    tag: 11,
                    offset: 4096,
                    bytes: 65536,
                    retry_of: 0,
                },
                BatchEntry {
                    op: IoOp::Write,
                    tenant: 2,
                    tag: 12,
                    offset: 1 << 40,
                    bytes: 4096,
                    retry_of: 11,
                },
                BatchEntry {
                    op: IoOp::Read,
                    tenant: 2,
                    tag: 13,
                    offset: 0,
                    bytes: 512,
                    retry_of: 0,
                },
            ]),
            Request::MapGet { tag: 14 },
            Request::MapPush {
                tag: 15,
                epoch: 2,
                capacity_bytes: 8 << 30,
                ranges: 4,
                owned: vec![1, 3],
                followed: vec![0],
                replicas: vec![(1, "127.0.0.1:9001".to_string()), (3, "n2".to_string())],
                map_text: "# rif-shardmap v1 epoch=2 capacity=8589934592 ranges=4\n".to_string(),
            },
            Request::MapPush {
                tag: 16,
                epoch: 0,
                capacity_bytes: 1,
                ranges: 1,
                owned: vec![],
                followed: vec![],
                replicas: vec![],
                map_text: String::new(),
            },
            Request::MigrateOut { tag: 17, range: 3 },
            Request::MigrateIn {
                tag: 18,
                range: 3,
                state: "block 9 -0.02\n".to_string(),
            },
            Request::Migrate {
                tag: 19,
                range: 0,
                node: "node-b".to_string(),
            },
            Request::Replicate {
                tag: 20,
                range: 2,
                epoch: 5,
                seq: 17,
                tenant: 1,
                offset: 1 << 30,
                bytes: 4096,
            },
        ]
    }

    #[test]
    fn every_truncation_is_rejected_at_the_short_field() {
        for req in sample_requests() {
            let enc = encode_request(&req);
            for cut in 0..enc.len() {
                match decode_request(&enc[..cut]) {
                    Err(WireError::Empty) => assert_eq!(cut, 0),
                    Err(WireError::Truncated { need, got }) => {
                        assert_eq!(got, cut, "req {req:?}");
                        assert!(cut < need && need <= enc.len(), "req {req:?} cut {cut}");
                    }
                    // A cut inside a UTF-8 text tail is a shorter text,
                    // and the shorter request re-encodes to the prefix.
                    Ok(short) => {
                        assert!(
                            matches!(
                                req,
                                Request::MapPush { .. }
                                    | Request::MigrateIn { .. }
                                    | Request::Migrate { .. }
                            ),
                            "req {req:?} cut {cut} decoded"
                        );
                        assert_eq!(encode_request(&short), &enc[..cut]);
                    }
                    other => panic!("req {req:?} cut {cut}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn hostile_payloads_get_their_exact_wire_error() {
        let entry = BatchEntry {
            op: IoOp::Read,
            tenant: 0,
            tag: 1,
            offset: 0,
            bytes: 4096,
            retry_of: 0,
        };
        let batch = encode_request(&Request::Batch(vec![entry; 2]));
        let batch_len = batch.len();
        // One MAP_PUSH of 44 bytes (owned count at 29, text "m" last),
        // one of 50 (replica count at 41, one-byte replica addr last).
        let count_at = 1 + 8 + 8 + 8 + 4;
        let map = encode_request(&Request::MapPush {
            tag: 1,
            epoch: 1,
            capacity_bytes: 64,
            ranges: 2,
            owned: vec![0, 1],
            followed: vec![],
            replicas: vec![],
            map_text: "m".to_string(),
        });
        let repl_map = encode_request(&Request::MapPush {
            tag: 1,
            epoch: 1,
            capacity_bytes: 64,
            ranges: 2,
            owned: vec![0],
            followed: vec![1],
            replicas: vec![(0, "a".to_string())],
            map_text: String::new(),
        });
        assert_eq!((map.len(), repl_map.len()), (44, 50));
        let migrate_in = encode_request(&Request::MigrateIn {
            tag: 1,
            range: 0,
            state: "x".to_string(),
        });
        // `b` with `with` written over it at `at` (negative: from the end).
        let edit = |b: &[u8], at: isize, with: &[u8]| {
            let mut b = b.to_vec();
            let at = at.rem_euclid(b.len() as isize) as usize;
            b[at..at + with.len()].copy_from_slice(with);
            b
        };
        let count = |n: u16| n.to_le_bytes();
        let bad_op = |value| WireError::BadEnum {
            field: "batch_entry_op",
            value,
        };
        let truncated = |need, got| WireError::Truncated { need, got };
        let stats = encode_request(&Request::Stats { tag: 1 });
        let cases = [
            (vec![], WireError::Empty),
            (vec![0x7F], WireError::UnknownOpcode(0x7F)),
            (vec![0x00], WireError::UnknownOpcode(0)),
            (
                [&stats[..], &[0]].concat(),
                WireError::TrailingBytes { extra: 1 },
            ),
            // Lying batch counts: each lie has its own rejection.
            (edit(&batch, 1, &count(0)), WireError::EmptyBatch),
            (
                edit(&batch, 1, &count(1)),
                WireError::TrailingBytes {
                    extra: BATCH_ENTRY_BYTES,
                },
            ),
            (
                edit(&batch, 1, &count(3)),
                truncated(batch_len + 1, batch_len),
            ),
            (
                edit(&batch, 1, &count(512)),
                truncated(batch_len + 1, batch_len),
            ),
            (
                edit(&batch, 1, &count(513)),
                WireError::BatchTooLarge { count: 513 },
            ),
            (
                edit(&batch, 1, &count(u16::MAX)),
                WireError::BatchTooLarge { count: u16::MAX },
            ),
            // Bad entry ops, in the first and the second entry.
            (edit(&batch, 3, &[0x03]), bad_op(0x03)),
            (
                edit(&batch, 3 + BATCH_ENTRY_BYTES as isize, &[0xFF]),
                bad_op(0xFF),
            ),
            // Cluster messages: invalid UTF-8 in a text tail or a replica
            // addr, and lying list counts (the fourth owned index starts
            // at byte 43 of 44; the second replica at the frame's end).
            (edit(&migrate_in, -1, &[0xFF]), WireError::BadUtf8),
            (edit(&map, -1, &[0xFE]), WireError::BadUtf8),
            (edit(&map, count_at, &count(9)), truncated(47, 44)),
            (edit(&repl_map, -1, &[0xFF]), WireError::BadUtf8),
            (edit(&repl_map, count_at + 12, &count(7)), truncated(54, 50)),
        ];
        for (payload, want) in cases {
            assert_eq!(decode_request(&payload), Err(want), "payload {payload:?}");
        }
    }

    #[test]
    fn full_batch_fits_in_a_frame() {
        let entries = vec![
            BatchEntry {
                op: IoOp::Read,
                tenant: 0,
                tag: 1,
                offset: 0,
                bytes: 4096,
                retry_of: 0,
            };
            MAX_BATCH_ENTRIES as usize
        ];
        let enc = encode_request(&Request::Batch(entries.clone()));
        assert!(enc.len() <= MAX_FRAME_BYTES as usize);
        assert_eq!(decode_request(&enc), Ok(Request::Batch(entries)));
    }

    #[test]
    fn batch_count_lies_are_rejected_without_panic() {
        let entries = vec![
            BatchEntry {
                op: IoOp::Write,
                tenant: 3,
                tag: 21,
                offset: 8192,
                bytes: 4096,
                retry_of: 0,
            },
            BatchEntry {
                op: IoOp::Read,
                tenant: 3,
                tag: 22,
                offset: 0,
                bytes: 4096,
                retry_of: 0,
            },
        ];
        let mut enc = encode_request(&Request::Batch(entries));
        // Count says 3, but only 2 entries follow → truncated.
        enc[1..3].copy_from_slice(&3u16.to_le_bytes());
        assert!(matches!(
            decode_request(&enc),
            Err(WireError::Truncated { .. })
        ));
        // Count says 1, but 2 entries follow → trailing bytes.
        enc[1..3].copy_from_slice(&1u16.to_le_bytes());
        assert!(matches!(
            decode_request(&enc),
            Err(WireError::TrailingBytes { .. })
        ));
        // Count 0 and over-cap counts are their own errors.
        enc[1..3].copy_from_slice(&0u16.to_le_bytes());
        assert_eq!(decode_request(&enc), Err(WireError::EmptyBatch));
        enc[1..3].copy_from_slice(&(MAX_BATCH_ENTRIES + 1).to_le_bytes());
        assert_eq!(
            decode_request(&enc),
            Err(WireError::BatchTooLarge {
                count: MAX_BATCH_ENTRIES + 1
            })
        );
    }

    #[test]
    fn batch_entry_op_must_be_read_or_write() {
        let mut enc = encode_request(&Request::Batch(vec![BatchEntry {
            op: IoOp::Read,
            tenant: 0,
            tag: 1,
            offset: 0,
            bytes: 4096,
            retry_of: 0,
        }]));
        enc[3] = OP_STATS; // first entry's op byte
        assert_eq!(
            decode_request(&enc),
            Err(WireError::BadEnum {
                field: "batch_entry_op",
                value: OP_STATS,
            })
        );
    }

    #[test]
    fn response_roundtrips() {
        let resps = [
            Response::Done {
                tag: 1,
                latency_ns: 123_456,
            },
            Response::Busy {
                tag: 2,
                reason: BusyReason::Queue,
            },
            Response::Busy {
                tag: 2,
                reason: BusyReason::RateLimit,
            },
            Response::Busy {
                tag: 2,
                reason: BusyReason::Unavailable,
            },
            Response::Error {
                tag: 3,
                code: ErrorCode::BadRequest,
            },
            Response::Error {
                tag: 3,
                code: ErrorCode::Internal,
            },
            Response::Stats {
                tag: 4,
                text: "counter server.completed 10\ngauge x 1.5".to_string(),
            },
            Response::Flushed { tag: 5 },
            Response::Goodbye { tag: 6 },
            Response::HelloAck {
                tag: 7,
                version: PROTOCOL_VERSION,
            },
            Response::Busy {
                tag: 8,
                reason: BusyReason::Moving,
            },
            Response::MapResp {
                tag: 9,
                epoch: 12,
                text: "# rif-shardmap v1 epoch=12 capacity=1024 ranges=2\n".to_string(),
            },
            Response::MapResp {
                tag: 10,
                epoch: 0,
                text: String::new(),
            },
            Response::WrongShard { tag: 11, epoch: 4 },
            Response::Migrated {
                tag: 12,
                range: 3,
                state: "block 1 0.05\n".to_string(),
            },
            Response::Migrated {
                tag: 13,
                range: 0,
                state: String::new(),
            },
            Response::ReplAck {
                tag: 14,
                range: 6,
                seq: 99,
            },
        ];
        for r in resps {
            let enc = encode_response(&r);
            assert_eq!(decode_response(&enc), Ok(r.clone()));
        }
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        let full = encode_request(&Request::Read {
            tenant: 1,
            tag: 2,
            offset: 3,
            bytes: 4,
        });
        for cut in 0..full.len() {
            let e = decode_request(&full[..cut]).expect_err("must reject");
            assert!(
                matches!(e, WireError::Truncated { .. } | WireError::Empty),
                "cut {cut}: {e:?}"
            );
        }
    }

    #[test]
    fn truncated_cluster_payloads_are_rejected() {
        // Fixed-size prefixes of the cluster messages must reject every cut
        // before the text tail begins (the tail itself may be empty).
        let reqs = [
            encode_request(&Request::MapGet { tag: 5 }),
            encode_request(&Request::MigrateOut { tag: 6, range: 1 }),
            encode_request(&Request::MapPush {
                tag: 7,
                epoch: 1,
                capacity_bytes: 64,
                ranges: 2,
                owned: vec![0, 1],
                followed: vec![],
                replicas: vec![],
                map_text: String::new(),
            }),
            encode_request(&Request::MapPush {
                tag: 7,
                epoch: 1,
                capacity_bytes: 64,
                ranges: 2,
                owned: vec![0],
                followed: vec![1],
                replicas: vec![(0, "n".to_string())],
                map_text: String::new(),
            }),
            encode_request(&Request::MigrateIn {
                tag: 8,
                range: 0,
                state: String::new(),
            }),
            encode_request(&Request::Migrate {
                tag: 9,
                range: 0,
                node: String::new(),
            }),
        ];
        for full in reqs {
            for cut in 0..full.len() {
                let e = decode_request(&full[..cut]).expect_err("must reject");
                assert!(
                    matches!(e, WireError::Truncated { .. } | WireError::Empty),
                    "cut {cut}: {e:?}"
                );
            }
        }
    }

    #[test]
    fn cluster_text_fields_must_be_utf8() {
        let mut enc = encode_request(&Request::Migrate {
            tag: 1,
            range: 0,
            node: "x".to_string(),
        });
        *enc.last_mut().unwrap() = 0xFF;
        assert_eq!(decode_request(&enc), Err(WireError::BadUtf8));

        let mut enc = encode_response(&Response::MapResp {
            tag: 1,
            epoch: 1,
            text: "x".to_string(),
        });
        *enc.last_mut().unwrap() = 0xFF;
        assert_eq!(decode_response(&enc), Err(WireError::BadUtf8));
    }

    #[test]
    fn map_push_owned_count_lies_are_rejected() {
        let mut enc = encode_request(&Request::MapPush {
            tag: 1,
            epoch: 1,
            capacity_bytes: 64,
            ranges: 2,
            owned: vec![0, 1],
            followed: vec![],
            replicas: vec![],
            map_text: String::new(),
        });
        // Count says 3, only 2 owned entries follow → truncated.
        let count_at = 1 + 8 + 8 + 8 + 4;
        enc[count_at..count_at + 2].copy_from_slice(&3u16.to_le_bytes());
        assert!(matches!(
            decode_request(&enc),
            Err(WireError::Truncated { .. })
        ));
        // Count says 1: the second owned entry's bytes are re-parsed as
        // the follow section, which happens to stay well-formed — the
        // wire layer cannot tell lists from numbers. The node's
        // MAP_PUSH validation rejects the nonsense ranges downstream.
        enc[count_at..count_at + 2].copy_from_slice(&1u16.to_le_bytes());
        assert!(decode_request(&enc).is_ok());
    }

    #[test]
    fn replicate_truncations_and_bad_replica_addrs_are_rejected() {
        // REPLICATE is fixed-size: every cut of the frame must reject.
        let full = encode_request(&Request::Replicate {
            tag: 1,
            range: 2,
            epoch: 3,
            seq: 4,
            tenant: 5,
            offset: 4096,
            bytes: 4096,
        });
        for cut in 0..full.len() {
            let e = decode_request(&full[..cut]).expect_err("must reject");
            assert!(
                matches!(e, WireError::Truncated { .. } | WireError::Empty),
                "cut {cut}: {e:?}"
            );
        }
        // REPL_ACK likewise, and trailing garbage is caught.
        let full = encode_response(&Response::ReplAck {
            tag: 1,
            range: 2,
            seq: 3,
        });
        for cut in 0..full.len() {
            let e = decode_response(&full[..cut]).expect_err("must reject");
            assert!(
                matches!(e, WireError::Truncated { .. } | WireError::Empty),
                "cut {cut}: {e:?}"
            );
        }
        let mut enc = full;
        enc.push(0);
        assert_eq!(
            decode_response(&enc),
            Err(WireError::TrailingBytes { extra: 1 })
        );
        // A replica address that is not UTF-8 is rejected at the wire.
        let mut enc = encode_request(&Request::MapPush {
            tag: 1,
            epoch: 1,
            capacity_bytes: 64,
            ranges: 2,
            owned: vec![0],
            followed: vec![1],
            replicas: vec![(0, "y".to_string())],
            map_text: String::new(),
        });
        // The 1-byte address is the last byte before the (empty) map text.
        *enc.last_mut().unwrap() = 0xFF;
        assert_eq!(decode_request(&enc), Err(WireError::BadUtf8));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut enc = encode_request(&Request::Stats { tag: 1 });
        enc.push(0);
        assert_eq!(
            decode_request(&enc),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn unknown_opcode_is_rejected() {
        assert_eq!(decode_request(&[0x7F]), Err(WireError::UnknownOpcode(0x7F)));
        assert_eq!(decode_response(&[0x00]), Err(WireError::UnknownOpcode(0)));
        assert_eq!(decode_request(&[]), Err(WireError::Empty));
    }

    #[test]
    fn frame_io_roundtrips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut fb = FrameBuffer::new();
        assert_eq!(fb.read_from(&mut Cursor::new(buf)).unwrap(), 11);
        assert_eq!(fb.next_frame(), Ok(Some(&b"abc"[..])));
        assert_eq!(fb.next_frame(), Ok(Some(&b""[..])));
        assert_eq!(fb.next_frame(), Ok(None));
    }

    #[test]
    fn frame_buffer_reassembles_split_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"world!").unwrap();

        let mut fb = FrameBuffer::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        // Feed one byte at a time: every split point must be survivable.
        for b in &wire {
            fb.feed(std::slice::from_ref(b));
            while let Some(p) = fb.next_frame().unwrap() {
                got.push(p.to_vec());
            }
        }
        assert_eq!(got, vec![b"hello".to_vec(), Vec::new(), b"world!".to_vec()]);
        assert_eq!(fb.buffered(), 0);
    }

    #[test]
    fn frame_buffer_rejects_oversized_prefix() {
        let mut fb = FrameBuffer::new();
        fb.feed(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert!(matches!(fb.next_frame(), Err(WireError::Oversized { .. })));
    }
}
