//! Framing: the one receive buffer and the event loop's write queue,
//! both allocation-free on the steady-state path. The request format
//! (opcodes, encoder, the one decoder) lives in [`crate::protocol`].
//!
//! - [`FrameBuffer`] — a compacting receive ring, the receive side of
//!   every socket reader (event loop, client engine, directory, chaos
//!   proxy). Socket reads land directly in the ring
//!   ([`FrameBuffer::read_from`]); [`FrameBuffer::next_frame`] hands back
//!   each complete frame payload as a *borrow* of the ring (no per-frame
//!   `Vec`), valid until the next mutating call. Because the ring
//!   compacts instead of wrapping, a frame payload is always one
//!   contiguous slice.
//! - [`WriteQueue`] — a per-connection response queue of coalesced
//!   chunks flushed with vectored writes. Responses are encoded straight
//!   into the tail chunk via
//!   [`encode_response_frame_into`](crate::protocol::encode_response_frame_into).

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};

use crate::protocol::{encode_response_frame_into, Response, WireError, MAX_FRAME_BYTES};

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
    use crate::protocol::tests::sample_requests;
    use crate::protocol::{
        decode_request, decode_response, encode_request, encode_response, write_frame, BatchEntry,
        BusyReason, ErrorCode, Request,
    };
    use rif_workloads::IoOp;

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

    /// Feeds `reqs` as one framed stream through a ring, a few bytes per
    /// read, and decodes every frame the ring hands back.
    fn decode_through_ring(reqs: &[Request]) -> Vec<Request> {
        let mut wire = Vec::new();
        for r in reqs {
            write_frame(&mut wire, &encode_request(r)).unwrap();
        }
        let mut ring = FrameBuffer::new();
        let mut got = Vec::new();
        for piece in wire.chunks(7) {
            ring.feed(piece);
            while let Some(p) = ring.next_frame().unwrap() {
                got.push(decode_request(p).expect("valid payload"));
            }
        }
        assert_eq!(ring.buffered(), 0);
        got
    }

    #[test]
    fn view_decoder_roundtrips_every_request_kind() {
        let reqs = sample_requests();
        let got = decode_through_ring(&reqs);
        for (g, r) in got.iter().zip(&reqs) {
            assert_eq!(g.tag(), r.tag());
        }
        assert_eq!(got, reqs);
    }

    #[test]
    fn batch_view_iterates_all_entries() {
        // A 17-entry batch of both ops, every field distinct per entry.
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
        let got = decode_through_ring(&[Request::Batch(entries.clone())]);
        match got.as_slice() {
            [Request::Batch(b)] => {
                assert_eq!(b.len(), entries.len());
                assert_eq!(b[16], entries[16]);
                assert_eq!(*b, entries);
            }
            other => panic!("not one batch: {other:?}"),
        }
    }
}
