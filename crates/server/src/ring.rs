//! Zero-copy framing: the one receive buffer, the one request decoder,
//! and the event loop's write queue. All three are allocation-free on the
//! steady-state path:
//!
//! - [`FrameBuffer`] — a compacting receive ring, the receive side of
//!   every socket reader (event loop, client engine, directory, chaos
//!   proxy). Socket reads land directly in the ring
//!   ([`FrameBuffer::read_from`]); [`FrameBuffer::next_frame`] hands back
//!   each complete frame payload as a *borrow* of the ring (no per-frame
//!   `Vec`), valid until the next mutating call. Because the ring
//!   compacts instead of wrapping, a frame payload is always one
//!   contiguous slice.
//! - [`decode_request_view`] — decodes a request directly out of a
//!   borrowed payload. The owned
//!   [`decode_request`](crate::protocol::decode_request) is this decoder
//!   plus [`RequestView::to_request`], so there is one decoding body and
//!   one set of rejections (`Truncated { need, got }` offsets included).
//! - [`WriteQueue`] — a per-connection response queue of coalesced
//!   chunks flushed with vectored writes. Responses are encoded straight
//!   into the tail chunk via
//!   [`encode_response_frame_into`](crate::protocol::encode_response_frame_into).

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};

use rif_workloads::IoOp;

use crate::protocol::{
    encode_response_frame_into, BatchEntry, Reader, Request, Response, WireError,
    BATCH_ENTRY_BYTES, MAX_BATCH_ENTRIES, MAX_FRAME_BYTES, OP_BATCH, OP_FLUSH, OP_HELLO,
    OP_MAP_GET, OP_MAP_PUSH, OP_MIGRATE, OP_MIGRATE_IN, OP_MIGRATE_OUT, OP_READ, OP_REPLICATE,
    OP_SHUTDOWN, OP_STATS, OP_WRITE,
};

/// How much one [`FrameBuffer::read_from`] pulls at most (the ring makes
/// that much tail room first). One read can pull many small frames at
/// once, and a read that returns less than this has drained the socket.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Soft target size of one [`WriteQueue`] chunk: responses coalesce into
/// the tail chunk until it crosses this, so a vectored flush pushes a
/// few large buffers instead of one tiny buffer per frame.
const COALESCE_BYTES: usize = 32 * 1024;

/// Upper bound on iovecs per `write_vectored` call.
const MAX_IOVECS: usize = 16;

// ----- receive ring ------------------------------------------------------

/// A compacting receive ring for one connection.
///
/// `[start, end)` marks unconsumed bytes in `buf`. Consumed prefix space
/// is reclaimed by `copy_within` compaction only when a read needs the
/// room, so in the common case (frames consumed as fast as they arrive)
/// the ring resets to offset zero without any copying. Partial frames
/// survive any number of reads, so a reader polling with a timeout or a
/// non-blocking socket never loses or de-syncs a frame.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    poisoned: Option<WireError>,
}

impl FrameBuffer {
    /// An empty ring.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Makes room for at least `min` more bytes at the tail: resets the
    /// window when empty, compacts when the consumed prefix is the only
    /// free space, and grows the backing buffer as a last resort.
    fn make_room(&mut self, min: usize) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.buf.len() - self.end < min && self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < min {
            // A fresh zeroed allocation rather than `resize`: the
            // allocator hands back zero pages untouched, so tail room a
            // socket never writes into never becomes resident. (The
            // window starts at 0 here: the branches above saw to it.)
            let mut grown = vec![0; (self.end + min).next_power_of_two()];
            grown[..self.end].copy_from_slice(&self.buf[..self.end]);
            self.buf = grown;
        }
    }

    /// Performs one `read` of at most [`READ_CHUNK`] bytes from `r` into
    /// the ring tail. Returns the byte count (`0` means EOF). `WouldBlock`
    /// and a read timeout propagate as the errors they are; callers treat
    /// them as "drained for now".
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> io::Result<usize> {
        self.make_room(READ_CHUNK);
        let n = r.read(&mut self.buf[self.end..self.end + READ_CHUNK])?;
        self.end += n;
        Ok(n)
    }

    /// Appends raw stream bytes (test and in-process use).
    pub fn feed(&mut self, bytes: &[u8]) {
        self.make_room(bytes.len().max(1));
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Pops the next complete frame payload as a borrow of the ring,
    /// valid until the next mutating call. An oversized length prefix
    /// poisons the ring permanently (the frame boundary is
    /// unrecoverable): every later call returns the same `Err`.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        if self.buffered() < 4 {
            return Ok(None);
        }
        let h = &self.buf[self.start..self.start + 4];
        let len = u32::from_le_bytes([h[0], h[1], h[2], h[3]]);
        if len > MAX_FRAME_BYTES {
            self.poisoned = Some(WireError::Oversized { len });
            return Err(WireError::Oversized { len });
        }
        let total = 4 + len as usize;
        if self.buffered() < total {
            return Ok(None);
        }
        let at = self.start + 4;
        self.start += total;
        Ok(Some(&self.buf[at..at + len as usize]))
    }
}

// ----- zero-copy request views -------------------------------------------

/// A decoded request borrowing its payload where that avoids work: the
/// scalar variants mirror [`Request`] field-for-field, and a batch stays
/// a validated byte slice ([`BatchView`]) iterated lazily instead of
/// being collected into a `Vec<BatchEntry>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestView<'a> {
    /// Simulated read, as [`Request::Read`].
    Read {
        /// Tenant id for rate limiting.
        tenant: u32,
        /// Client correlation tag.
        tag: u64,
        /// Logical byte offset.
        offset: u64,
        /// Transfer size in bytes.
        bytes: u32,
    },
    /// Simulated write, as [`Request::Write`].
    Write {
        /// Tenant id for rate limiting.
        tenant: u32,
        /// Client correlation tag.
        tag: u64,
        /// Logical byte offset.
        offset: u64,
        /// Transfer size in bytes.
        bytes: u32,
    },
    /// Metrics snapshot request, as [`Request::Stats`].
    Stats {
        /// Client correlation tag.
        tag: u64,
    },
    /// Drain barrier, as [`Request::Flush`].
    Flush {
        /// Client correlation tag.
        tag: u64,
    },
    /// Server exit request, as [`Request::Shutdown`].
    Shutdown {
        /// Client correlation tag.
        tag: u64,
    },
    /// Version check, as [`Request::Hello`].
    Hello {
        /// Client correlation tag.
        tag: u64,
        /// Highest protocol version the client speaks.
        version: u32,
    },
    /// A validated batch body, iterated without allocation.
    Batch(BatchView<'a>),
    /// Shard-map fetch, as [`Request::MapGet`].
    MapGet {
        /// Client correlation tag.
        tag: u64,
    },
    /// Range-ownership install, as [`Request::MapPush`]. The owned-range
    /// list and map text stay borrows of the frame.
    MapPush {
        /// Client correlation tag.
        tag: u64,
        /// The map's monotonic epoch.
        epoch: u64,
        /// Logical capacity the range grid divides.
        capacity_bytes: u64,
        /// Total ranges in the grid.
        ranges: u32,
        /// The validated owned-range list.
        owned: RangeListView<'a>,
        /// The validated followed-range list (ranges this node serves
        /// as a replica follower).
        followed: RangeListView<'a>,
        /// The validated `(range, follower addr)` shipping targets.
        replicas: ReplicaListView<'a>,
        /// Canonical shard-map serialization.
        map_text: &'a str,
    },
    /// Range seal on the source node, as [`Request::MigrateOut`].
    MigrateOut {
        /// Client correlation tag.
        tag: u64,
        /// The range index to seal.
        range: u32,
    },
    /// Learner-state adoption on the target node, as
    /// [`Request::MigrateIn`].
    MigrateIn {
        /// Client correlation tag.
        tag: u64,
        /// The range index being adopted.
        range: u32,
        /// The source shard's learner state.
        state: &'a str,
    },
    /// Directory admin migration, as [`Request::Migrate`].
    Migrate {
        /// Client correlation tag.
        tag: u64,
        /// The range index to move.
        range: u32,
        /// Id of the destination node.
        node: &'a str,
    },
    /// Primary-to-follower write shipment, as [`Request::Replicate`].
    Replicate {
        /// Primary-chosen shipment tag.
        tag: u64,
        /// The range the write belongs to.
        range: u32,
        /// Map epoch the primary shipped under.
        epoch: u64,
        /// Per-range replication sequence number.
        seq: u64,
        /// Tenant id of the original write.
        tenant: u32,
        /// Logical byte offset of the original write.
        offset: u64,
        /// Transfer size in bytes.
        bytes: u32,
    },
}

impl RequestView<'_> {
    /// The correlation tag, mirroring [`Request::tag`].
    pub fn tag(&self) -> u64 {
        match self {
            RequestView::Read { tag, .. }
            | RequestView::Write { tag, .. }
            | RequestView::Stats { tag }
            | RequestView::Flush { tag }
            | RequestView::Shutdown { tag }
            | RequestView::Hello { tag, .. }
            | RequestView::MapGet { tag }
            | RequestView::MapPush { tag, .. }
            | RequestView::MigrateOut { tag, .. }
            | RequestView::MigrateIn { tag, .. }
            | RequestView::Migrate { tag, .. }
            | RequestView::Replicate { tag, .. } => *tag,
            RequestView::Batch(b) => {
                if b.count() == 0 {
                    0
                } else {
                    b.entry(0).tag
                }
            }
        }
    }

    /// Materializes the owning [`Request`] (allocates for batches and
    /// text fields). [`decode_request`](crate::protocol::decode_request)
    /// is [`decode_request_view`] followed by this.
    pub fn to_request(&self) -> Request {
        match *self {
            RequestView::Read {
                tenant,
                tag,
                offset,
                bytes,
            } => Request::Read {
                tenant,
                tag,
                offset,
                bytes,
            },
            RequestView::Write {
                tenant,
                tag,
                offset,
                bytes,
            } => Request::Write {
                tenant,
                tag,
                offset,
                bytes,
            },
            RequestView::Stats { tag } => Request::Stats { tag },
            RequestView::Flush { tag } => Request::Flush { tag },
            RequestView::Shutdown { tag } => Request::Shutdown { tag },
            RequestView::Hello { tag, version } => Request::Hello { tag, version },
            RequestView::Batch(b) => Request::Batch(b.iter().collect()),
            RequestView::MapGet { tag } => Request::MapGet { tag },
            RequestView::MapPush {
                tag,
                epoch,
                capacity_bytes,
                ranges,
                owned,
                followed,
                replicas,
                map_text,
            } => Request::MapPush {
                tag,
                epoch,
                capacity_bytes,
                ranges,
                owned: owned.iter().collect(),
                followed: followed.iter().collect(),
                replicas: replicas.iter().map(|(r, a)| (r, a.to_string())).collect(),
                map_text: map_text.to_string(),
            },
            RequestView::MigrateOut { tag, range } => Request::MigrateOut { tag, range },
            RequestView::MigrateIn { tag, range, state } => Request::MigrateIn {
                tag,
                range,
                state: state.to_string(),
            },
            RequestView::Migrate { tag, range, node } => Request::Migrate {
                tag,
                range,
                node: node.to_string(),
            },
            RequestView::Replicate {
                tag,
                range,
                epoch,
                seq,
                tenant,
                offset,
                bytes,
            } => Request::Replicate {
                tag,
                range,
                epoch,
                seq,
                tenant,
                offset,
                bytes,
            },
        }
    }
}

/// The owned-range bytes of a validated MAP_PUSH frame: `count × 4`
/// little-endian `u32`s, decoded lazily.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeListView<'a> {
    data: &'a [u8],
}

impl<'a> RangeListView<'a> {
    /// Number of range indices in the list.
    pub fn count(&self) -> usize {
        self.data.len() / 4
    }

    /// Decodes index `i`. Infallible: the frame was validated up front.
    ///
    /// # Panics
    ///
    /// Panics if `i >= count()`.
    pub fn get(&self, i: usize) -> u32 {
        u32::from_le_bytes(
            self.data[i * 4..(i + 1) * 4]
                .try_into()
                .expect("fixed width"),
        )
    }

    /// Lazily decodes every range index in order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        let v = *self;
        (0..v.count()).map(move |i| v.get(i))
    }
}

/// The replica-target bytes of a validated MAP_PUSH frame:
/// `count × (range u32 | addr_len u16 | addr bytes)`, decoded lazily.
/// Entries are variable-width, so iteration walks the slice in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaListView<'a> {
    data: &'a [u8],
    count: u16,
}

impl<'a> ReplicaListView<'a> {
    /// Number of `(range, addr)` targets in the list.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Lazily decodes every target in order. Infallible: the frame was
    /// validated (bounds and UTF-8) up front.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &'a str)> + 'a {
        let mut data = self.data;
        (0..self.count).map(move |_| {
            let range = u32::from_le_bytes(data[..4].try_into().expect("fixed width"));
            let len = usize::from(u16::from_le_bytes([data[4], data[5]]));
            let addr = std::str::from_utf8(&data[6..6 + len]).expect("validated utf8");
            data = &data[6 + len..];
            (range, addr)
        })
    }
}

/// The entry bytes of a validated BATCH frame: `count × 33` bytes whose
/// op bytes are known-good, so per-entry decoding is infallible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchView<'a> {
    data: &'a [u8],
}

impl<'a> BatchView<'a> {
    /// Number of entries in the batch (1..=[`MAX_BATCH_ENTRIES`]).
    pub fn count(&self) -> usize {
        self.data.len() / BATCH_ENTRY_BYTES
    }

    /// Decodes entry `i`. Infallible: the frame was validated up front.
    ///
    /// # Panics
    ///
    /// Panics if `i >= count()`.
    pub fn entry(&self, i: usize) -> BatchEntry {
        let e = &self.data[i * BATCH_ENTRY_BYTES..(i + 1) * BATCH_ENTRY_BYTES];
        BatchEntry {
            op: if e[0] == OP_READ {
                IoOp::Read
            } else {
                IoOp::Write
            },
            tenant: u32::from_le_bytes(e[1..5].try_into().expect("fixed width")),
            tag: u64::from_le_bytes(e[5..13].try_into().expect("fixed width")),
            offset: u64::from_le_bytes(e[13..21].try_into().expect("fixed width")),
            bytes: u32::from_le_bytes(e[21..25].try_into().expect("fixed width")),
            retry_of: u64::from_le_bytes(e[25..33].try_into().expect("fixed width")),
        }
    }

    /// Lazily decodes every entry in order.
    pub fn iter(&self) -> impl Iterator<Item = BatchEntry> + 'a {
        let v = *self;
        (0..v.count()).map(move |i| v.entry(i))
    }
}

/// Decodes a request payload without copying it: the one request
/// decoder. Decoding is strict (see [`crate::protocol`]): a short field
/// is a `Truncated { need, got }` naming the exact byte it ran out at,
/// and trailing bytes, unknown opcodes, bad enums and non-UTF-8 text
/// are their own [`WireError`]s.
pub fn decode_request_view(payload: &[u8]) -> Result<RequestView<'_>, WireError> {
    let mut r = Reader::new(payload);
    let op = r.u8().map_err(|_| WireError::Empty)?;
    let req = match op {
        OP_READ | OP_WRITE => {
            let tenant = r.u32()?;
            let tag = r.u64()?;
            let offset = r.u64()?;
            let bytes = r.u32()?;
            if op == OP_READ {
                RequestView::Read {
                    tenant,
                    tag,
                    offset,
                    bytes,
                }
            } else {
                RequestView::Write {
                    tenant,
                    tag,
                    offset,
                    bytes,
                }
            }
        }
        OP_STATS => RequestView::Stats { tag: r.u64()? },
        OP_FLUSH => RequestView::Flush { tag: r.u64()? },
        OP_SHUTDOWN => RequestView::Shutdown { tag: r.u64()? },
        OP_HELLO => RequestView::Hello {
            tag: r.u64()?,
            version: r.u32()?,
        },
        OP_BATCH => {
            let count = u16::from_le_bytes([r.u8()?, r.u8()?]);
            if count == 0 {
                return Err(WireError::EmptyBatch);
            }
            if count > MAX_BATCH_ENTRIES {
                return Err(WireError::BatchTooLarge { count });
            }
            // Validate field by field, so a short entry reports the
            // `Truncated { need, got }` of the field it ran out in.
            for _ in 0..count {
                match r.u8()? {
                    OP_READ | OP_WRITE => {}
                    v => {
                        return Err(WireError::BadEnum {
                            field: "batch_entry_op",
                            value: v,
                        })
                    }
                }
                r.u32()?;
                r.u64()?;
                r.u64()?;
                r.u32()?;
                r.u64()?;
            }
            let body = &payload[3..3 + count as usize * BATCH_ENTRY_BYTES];
            RequestView::Batch(BatchView { data: body })
        }
        OP_MAP_GET => RequestView::MapGet { tag: r.u64()? },
        OP_MAP_PUSH => {
            let tag = r.u64()?;
            let epoch = r.u64()?;
            let capacity_bytes = r.u64()?;
            let ranges = r.u32()?;
            // Validate each section field by field, so a short list
            // reports the `Truncated { need, got }` of the field it ran
            // out in.
            let count = u16::from_le_bytes([r.u8()?, r.u8()?]);
            for _ in 0..count {
                r.u32()?;
            }
            let list_at = 1 + 8 + 8 + 8 + 4 + 2;
            let owned = RangeListView {
                data: &payload[list_at..list_at + count as usize * 4],
            };
            let follow_at = list_at + count as usize * 4 + 2;
            let count = u16::from_le_bytes([r.u8()?, r.u8()?]);
            for _ in 0..count {
                r.u32()?;
            }
            let followed = RangeListView {
                data: &payload[follow_at..follow_at + count as usize * 4],
            };
            let repl_at = follow_at + count as usize * 4 + 2;
            let count = u16::from_le_bytes([r.u8()?, r.u8()?]);
            let mut repl_bytes = 0usize;
            for _ in 0..count {
                r.u32()?;
                let len = u16::from_le_bytes([r.u8()?, r.u8()?]);
                std::str::from_utf8(r.take(len as usize)?).map_err(|_| WireError::BadUtf8)?;
                repl_bytes += 4 + 2 + len as usize;
            }
            let replicas = ReplicaListView {
                data: &payload[repl_at..repl_at + repl_bytes],
                count,
            };
            let map_text = std::str::from_utf8(r.rest()).map_err(|_| WireError::BadUtf8)?;
            RequestView::MapPush {
                tag,
                epoch,
                capacity_bytes,
                ranges,
                owned,
                followed,
                replicas,
                map_text,
            }
        }
        OP_MIGRATE_OUT => RequestView::MigrateOut {
            tag: r.u64()?,
            range: r.u32()?,
        },
        OP_MIGRATE_IN => {
            let tag = r.u64()?;
            let range = r.u32()?;
            let state = std::str::from_utf8(r.rest()).map_err(|_| WireError::BadUtf8)?;
            RequestView::MigrateIn { tag, range, state }
        }
        OP_MIGRATE => {
            let tag = r.u64()?;
            let range = r.u32()?;
            let node = std::str::from_utf8(r.rest()).map_err(|_| WireError::BadUtf8)?;
            RequestView::Migrate { tag, range, node }
        }
        OP_REPLICATE => RequestView::Replicate {
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

// ----- vectored write queue ----------------------------------------------

/// Per-connection outbound queue: responses encode into coalesced
/// chunks, flushed with `write_vectored` until the socket pushes back.
#[derive(Debug, Default)]
pub struct WriteQueue {
    chunks: VecDeque<Vec<u8>>,
    /// Bytes of `chunks[0]` already written to the socket.
    head: usize,
    /// Unwritten bytes across all chunks.
    total: usize,
    /// One retired chunk kept for reuse, so a connection that drains and
    /// refills does not reallocate per cycle.
    spare: Vec<u8>,
}

impl WriteQueue {
    /// An empty queue.
    pub fn new() -> Self {
        WriteQueue::default()
    }

    /// Unwritten bytes queued.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the queue is fully flushed.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Encodes `resp` as a length-prefixed frame at the queue tail.
    pub fn push_response(&mut self, resp: &Response) {
        match self.chunks.back_mut() {
            Some(tail) if tail.len() < COALESCE_BYTES => {
                let before = tail.len();
                encode_response_frame_into(resp, tail);
                self.total += tail.len() - before;
            }
            _ => {
                let mut c = std::mem::take(&mut self.spare);
                c.clear();
                encode_response_frame_into(resp, &mut c);
                self.total += c.len();
                self.chunks.push_back(c);
            }
        }
    }

    /// Writes queued bytes to `w` until drained (`Ok(true)`) or the
    /// socket would block (`Ok(false)`). `Interrupted` retries; a
    /// zero-byte write is reported as `WriteZero`.
    pub fn flush<W: Write>(&mut self, w: &mut W) -> io::Result<bool> {
        while self.total > 0 {
            let mut iovs: Vec<IoSlice<'_>> = Vec::with_capacity(self.chunks.len().min(MAX_IOVECS));
            for (i, c) in self.chunks.iter().take(MAX_IOVECS).enumerate() {
                let s = if i == 0 { &c[self.head..] } else { &c[..] };
                if !s.is_empty() {
                    iovs.push(IoSlice::new(s));
                }
            }
            let res = w.write_vectored(&iovs);
            drop(iovs);
            match res {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "connection made no write progress",
                    ))
                }
                Ok(n) => self.advance(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Retires `n` written bytes from the queue front.
    fn advance(&mut self, mut n: usize) {
        debug_assert!(n <= self.total);
        self.total -= n;
        while n > 0 {
            let avail = self.chunks[0].len() - self.head;
            if n >= avail {
                n -= avail;
                self.head = 0;
                let mut c = self.chunks.pop_front().expect("chunk present");
                if c.capacity() > self.spare.capacity() {
                    c.clear();
                    self.spare = c;
                }
            } else {
                self.head += n;
                n = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        decode_request, decode_response, encode_request, encode_response, write_frame, BusyReason,
        ErrorCode,
    };

    fn sample_requests() -> Vec<Request> {
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
    fn view_decoder_roundtrips_every_request_kind() {
        for req in sample_requests() {
            let enc = encode_request(&req);
            let view = decode_request_view(&enc).expect("valid payload");
            assert_eq!(view.to_request(), req);
            assert_eq!(view.tag(), req.tag());
            assert_eq!(decode_request(&enc), Ok(req));
        }
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
            assert_eq!(
                decode_request_view(&payload),
                Err(want.clone()),
                "payload {payload:?}"
            );
            assert_eq!(decode_request(&payload), Err(want), "payload {payload:?}");
        }
    }

    #[test]
    fn batch_view_iterates_all_entries() {
        let entries: Vec<BatchEntry> = (0..17)
            .map(|i| BatchEntry {
                op: if i % 2 == 0 { IoOp::Read } else { IoOp::Write },
                tenant: i,
                tag: u64::from(i) * 3,
                offset: u64::from(i) << 20,
                bytes: 4096 + i,
                retry_of: u64::from(i % 3),
            })
            .collect();
        let enc = encode_request(&Request::Batch(entries.clone()));
        let view = decode_request_view(&enc).expect("valid batch");
        match view {
            RequestView::Batch(b) => {
                assert_eq!(b.count(), entries.len());
                assert_eq!(b.iter().collect::<Vec<_>>(), entries);
                assert_eq!(b.entry(16), entries[16]);
            }
            other => panic!("not a batch: {other:?}"),
        }
    }

    #[test]
    fn recv_ring_reassembles_byte_at_a_time_like_frame_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"world!").unwrap();

        let want = [b"hello".to_vec(), Vec::new(), b"world!".to_vec()];
        // Stream offset just past each frame's last byte.
        let ends: Vec<usize> = (want.iter())
            .scan(0, |at, p| {
                *at += 4 + p.len();
                Some(*at)
            })
            .collect();

        let mut ring = FrameBuffer::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        for (i, b) in wire.iter().enumerate() {
            ring.feed(std::slice::from_ref(b));
            while let Some(p) = ring.next_frame().unwrap() {
                got.push(p.to_vec());
            }
            // Every frame pops on its last byte and not before, and
            // only the incomplete tail stays buffered.
            let fed = i + 1;
            let done = ends.iter().filter(|&&e| e <= fed).count();
            assert_eq!(got, want[..done]);
            assert_eq!(ring.buffered(), fed - ends[..done].last().unwrap_or(&0));
        }
        assert_eq!(ring.buffered(), 0);
    }

    #[test]
    fn recv_ring_compacts_instead_of_growing_without_bound() {
        let mut one = Vec::new();
        write_frame(&mut one, &[0xAB; 1000]).unwrap();
        let mut ring = FrameBuffer::new();
        // Stream 10k frames through, always consuming: the ring must
        // stay near its steady-state size, far below the 10 MB fed.
        for _ in 0..10_000 {
            ring.feed(&one);
            let p = ring.next_frame().unwrap().expect("complete frame");
            assert_eq!(p.len(), 1000);
        }
        assert_eq!(ring.buffered(), 0);
        assert!(
            ring.buf.len() <= 2 * READ_CHUNK.max(4 + one.len()),
            "ring grew to {} bytes",
            ring.buf.len()
        );
    }

    #[test]
    fn recv_ring_handles_split_frames_across_compaction() {
        // Feed 1.5 frames, consume one, feed the other half: the
        // partial frame must survive the compaction that the second
        // feed may trigger.
        let mut f1 = Vec::new();
        write_frame(&mut f1, &[1u8; 300]).unwrap();
        let mut f2 = Vec::new();
        write_frame(&mut f2, &[2u8; 300]).unwrap();
        let mut ring = FrameBuffer::new();
        ring.feed(&f1);
        ring.feed(&f2[..150]);
        assert_eq!(ring.next_frame().unwrap().expect("f1"), &[1u8; 300][..]);
        assert!(ring.next_frame().unwrap().is_none());
        ring.feed(&f2[150..]);
        assert_eq!(ring.next_frame().unwrap().expect("f2"), &[2u8; 300][..]);
        assert!(ring.next_frame().unwrap().is_none());
    }

    #[test]
    fn recv_ring_oversized_prefix_poisons_permanently() {
        let mut ring = FrameBuffer::new();
        ring.feed(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert!(matches!(
            ring.next_frame(),
            Err(WireError::Oversized { .. })
        ));
        // Still poisoned on the next call, even after more bytes arrive.
        ring.feed(&[0u8; 64]);
        assert!(matches!(
            ring.next_frame(),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn recv_ring_read_from_reads_socket_like_sources() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abc").unwrap();
        write_frame(&mut wire, b"defgh").unwrap();
        let mut cur = std::io::Cursor::new(wire);
        let mut ring = FrameBuffer::new();
        let mut got = Vec::new();
        loop {
            let n = ring.read_from(&mut cur).unwrap();
            if n == 0 {
                break;
            }
            while let Some(p) = ring.next_frame().unwrap() {
                got.push(p.to_vec());
            }
        }
        assert_eq!(got, vec![b"abc".to_vec(), b"defgh".to_vec()]);
    }

    /// A writer that accepts at most `cap` bytes per call, then reports
    /// `WouldBlock` every other call — a socket with a tiny send buffer.
    struct Throttled {
        out: Vec<u8>,
        cap: usize,
        blocked: bool,
        vectored_calls: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.vectored_calls += 1;
            if self.blocked {
                self.blocked = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "try later"));
            }
            self.blocked = true;
            let mut n = 0;
            for b in bufs {
                let take = b.len().min(self.cap - n);
                self.out.extend_from_slice(&b[..take]);
                n += take;
                if n == self.cap {
                    break;
                }
            }
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_queue_survives_partial_writes_and_wouldblock() {
        let resps: Vec<Response> = (0..200)
            .map(|i| match i % 4 {
                0 => Response::Done {
                    tag: i,
                    latency_ns: i * 1000,
                },
                1 => Response::Busy {
                    tag: i,
                    reason: BusyReason::Queue,
                },
                2 => Response::Error {
                    tag: i,
                    code: ErrorCode::ConnLimit,
                },
                _ => Response::Stats {
                    tag: i,
                    text: format!("line {i}\n").repeat(5),
                },
            })
            .collect();
        let mut wq = WriteQueue::new();
        for r in &resps {
            wq.push_response(r);
        }
        let queued = wq.len();
        assert!(queued > 0);

        let mut w = Throttled {
            out: Vec::new(),
            cap: 7,
            blocked: false,
            vectored_calls: 0,
        };
        // Drive like the event loop: flush until drained, treating
        // Ok(false) as "wait for EPOLLOUT".
        let mut rounds = 0;
        while !wq.flush(&mut w).unwrap() {
            rounds += 1;
            assert!(rounds < 100_000, "flush never drains");
        }
        assert!(wq.is_empty());
        assert_eq!(w.out.len(), queued);

        // The byte stream must decode back to the exact responses.
        let mut fb = FrameBuffer::new();
        fb.feed(&w.out);
        let mut got = Vec::new();
        while let Some(p) = fb.next_frame().unwrap() {
            got.push(decode_response(p).unwrap());
        }
        assert_eq!(got, resps);
    }

    #[test]
    fn write_queue_coalesces_small_responses_into_few_chunks() {
        let mut wq = WriteQueue::new();
        for i in 0..1000u64 {
            wq.push_response(&Response::Done {
                tag: i,
                latency_ns: 1,
            });
        }
        // 1000 × 21-byte frames ≈ 21 KB: they must coalesce into a
        // handful of ~32 KB chunks, not one chunk per frame.
        assert!(
            wq.chunks.len() <= 4,
            "{} chunks for 1000 tiny frames",
            wq.chunks.len()
        );
        let mut sink = Vec::new();
        assert!(wq.flush(&mut sink).unwrap());
        assert!(wq.is_empty());
        let enc = encode_response(&Response::Done {
            tag: 0,
            latency_ns: 1,
        });
        assert_eq!(sink.len(), 1000 * (4 + enc.len()));
    }

    #[test]
    fn write_queue_matches_encode_response_bytes() {
        let resps = [
            Response::Done {
                tag: 1,
                latency_ns: 2,
            },
            Response::Busy {
                tag: 3,
                reason: BusyReason::RateLimit,
            },
            Response::HelloAck { tag: 4, version: 2 },
            Response::Goodbye { tag: 5 },
            Response::Flushed { tag: 6 },
            Response::Stats {
                tag: 7,
                text: "counter x 1".into(),
            },
        ];
        let mut wq = WriteQueue::new();
        let mut expect = Vec::new();
        for r in &resps {
            wq.push_response(r);
            write_frame(&mut expect, &encode_response(r)).unwrap();
        }
        let mut sink = Vec::new();
        assert!(wq.flush(&mut sink).unwrap());
        assert_eq!(sink, expect);
    }
}
