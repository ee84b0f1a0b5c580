//! Property-based tests for the wire protocol (plain integration tests
//! on the vendored proptest shim; they run under `cargo test`).
//!
//! Three families:
//! - round-trip: encode → decode is the identity for every request and
//!   response the encoders can produce, cluster messages included;
//! - rejection: every strict prefix of a valid payload is refused (or,
//!   inside a trailing text, decodes to that text cut short), and a
//!   frame header announcing more than `MAX_FRAME_BYTES` is refused
//!   before any payload is read;
//! - framing: a stream of many frames survives concatenation and any
//!   read boundaries — each payload comes back whole and in order.
//!
//! There is one request decoder (`decode_request`, which the event loop
//! calls on every frame) and one receive buffer (`FrameBuffer`), so every
//! property here runs the path the server runs.

use proptest::prelude::*;
use rif_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, write_frame, BatchEntry,
    BusyReason, ErrorCode, FrameBuffer, Request, Response, WireError, MAX_FRAME_BYTES,
};
use rif_workloads::IoOp;
use std::io::Cursor;

fn request_strategy() -> impl Strategy<Value = Request> {
    (
        0u8..5,
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
    )
        .prop_map(|(kind, tenant, tag, offset, bytes)| match kind {
            0 => Request::Read {
                tenant,
                tag,
                offset,
                bytes,
            },
            1 => Request::Write {
                tenant,
                tag,
                offset,
                bytes,
            },
            2 => Request::Stats { tag },
            3 => Request::Flush { tag },
            _ => Request::Shutdown { tag },
        })
}

fn batch_entry_strategy() -> impl Strategy<Value = BatchEntry> {
    (
        0u8..2,
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(|(op, tenant, tag, offset, bytes, retry_of)| BatchEntry {
            op: if op == 0 { IoOp::Read } else { IoOp::Write },
            tenant,
            tag,
            offset,
            bytes,
            retry_of,
        })
}

fn batch_strategy() -> impl Strategy<Value = Request> {
    prop::collection::vec(batch_entry_strategy(), 1..24).prop_map(Request::Batch)
}

fn hello_strategy() -> impl Strategy<Value = Request> {
    (any::<u64>(), any::<u32>()).prop_map(|(tag, version)| Request::Hello { tag, version })
}

/// Printable-ASCII text (the shim has no regex strategies).
fn text_strategy(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0x20u8..0x7F, 0..max)
        .prop_map(|b| String::from_utf8(b).expect("printable ascii"))
}

/// Every cluster message: MAP_GET, MAP_PUSH with owned, followed and
/// replica lists, MIGRATE_OUT, MIGRATE_IN, MIGRATE and REPLICATE.
fn cluster_request_strategy() -> impl Strategy<Value = Request> {
    (
        0u8..6,
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>()),
        (any::<u64>(), any::<u32>(), any::<u32>()),
        (
            prop::collection::vec(any::<u32>(), 0..8),
            prop::collection::vec(any::<u32>(), 0..8),
            prop::collection::vec((any::<u32>(), text_strategy(24)), 0..4),
        ),
        text_strategy(120),
    )
        .prop_map(
            |(
                kind,
                (tag, epoch, big, small),
                (seq, tenant, bytes),
                (owned, followed, replicas),
                text,
            )| {
                match kind {
                    0 => Request::MapGet { tag },
                    1 => Request::MapPush {
                        tag,
                        epoch,
                        capacity_bytes: big,
                        ranges: small,
                        owned,
                        followed,
                        replicas,
                        map_text: text,
                    },
                    2 => Request::MigrateOut { tag, range: small },
                    3 => Request::MigrateIn {
                        tag,
                        range: small,
                        state: text,
                    },
                    4 => Request::Migrate {
                        tag,
                        range: small,
                        node: text,
                    },
                    _ => Request::Replicate {
                        tag,
                        range: small,
                        epoch,
                        seq,
                        tenant,
                        offset: big,
                        bytes,
                    },
                }
            },
        )
}

/// Any request the encoders can produce: singles, batches, HELLO, and
/// (two thirds of the draws) the cluster messages.
fn any_request_strategy() -> impl Strategy<Value = Request> {
    (
        0u8..9,
        request_strategy(),
        batch_strategy(),
        hello_strategy(),
        cluster_request_strategy(),
    )
        .prop_map(|(kind, single, batch, hello, cluster)| match kind {
            0 => single,
            1 => batch,
            2 => hello,
            _ => cluster,
        })
}

fn response_strategy() -> impl Strategy<Value = Response> {
    (
        0u8..7,
        any::<u64>(),
        any::<u64>(),
        // Printable-ASCII stats text (the shim has no regex strategies).
        prop::collection::vec(0x20u8..0x7F, 0..120)
            .prop_map(|b| String::from_utf8(b).expect("printable ascii")),
    )
        .prop_map(|(kind, tag, latency, text)| match kind {
            0 => Response::Done {
                tag,
                latency_ns: latency,
            },
            1 => Response::Busy {
                tag,
                reason: match latency % 3 {
                    0 => BusyReason::Queue,
                    1 => BusyReason::RateLimit,
                    _ => BusyReason::Unavailable,
                },
            },
            2 => Response::Error {
                tag,
                code: match latency % 4 {
                    0 => ErrorCode::BadRequest,
                    1 => ErrorCode::BadLength,
                    2 => ErrorCode::Internal,
                    _ => ErrorCode::ShuttingDown,
                },
            },
            3 => Response::Stats { tag, text },
            4 => Response::Flushed { tag },
            5 => Response::HelloAck {
                tag,
                version: latency as u32,
            },
            _ => Response::Goodbye { tag },
        })
}

/// Applies one chaos-proxy-style mutation to an encoded buffer:
/// `0` flips a single bit, `1` overwrites one byte, `2` truncates.
fn mutate(buf: &mut Vec<u8>, kind: u8, pos_seed: u64, byte: u8) {
    if buf.is_empty() {
        return;
    }
    let pos = (pos_seed as usize) % buf.len();
    match kind {
        0 => buf[pos] ^= 1 << (pos_seed % 8),
        1 => buf[pos] = byte,
        _ => buf.truncate(pos),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn request_encode_decode_roundtrips(req in any_request_strategy()) {
        let enc = encode_request(&req);
        prop_assert_eq!(decode_request(&enc), Ok(req));
    }

    #[test]
    fn response_encode_decode_roundtrips(resp in response_strategy()) {
        let enc = encode_response(&resp);
        prop_assert_eq!(decode_response(&enc), Ok(resp.clone()));
    }

    #[test]
    fn truncated_requests_are_rejected(req in request_strategy(), cut_seed in any::<u64>()) {
        let enc = encode_request(&req);
        // Every strict prefix must fail to decode; none may panic.
        let cut = (cut_seed as usize) % enc.len();
        let e = decode_request(&enc[..cut]).expect_err("prefix must be rejected");
        prop_assert!(
            matches!(e, WireError::Truncated { .. } | WireError::Empty),
            "cut {}: {:?}", cut, e
        );
    }

    #[test]
    fn every_prefix_of_any_request_is_rejected_or_cuts_its_text(
        req in any_request_strategy(),
        cut_seed in any::<u64>(),
    ) {
        let enc = encode_request(&req);
        let cut = (cut_seed as usize) % enc.len();
        match decode_request(&enc[..cut]) {
            Err(WireError::Empty) => prop_assert_eq!(cut, 0),
            // The short field names where it ran out.
            Err(WireError::Truncated { need, got }) => {
                prop_assert_eq!(got, cut);
                prop_assert!(cut < need && need <= enc.len(), "cut {} need {}", cut, need);
            }
            // Only a cut inside a trailing text decodes: the same message
            // with that text shortened to the prefix.
            Ok(short) => {
                prop_assert!(
                    matches!(
                        req,
                        Request::MapPush { .. } | Request::MigrateIn { .. } | Request::Migrate { .. }
                    ),
                    "cut {} of {:?} decoded", cut, req
                );
                prop_assert_eq!(encode_request(&short), enc[..cut].to_vec());
            }
            Err(e) => prop_assert!(false, "cut {}: {:?}", cut, e),
        }
    }

    #[test]
    fn truncated_responses_are_rejected(resp in response_strategy(), cut_seed in any::<u64>()) {
        let enc = encode_response(&resp);
        let cut = (cut_seed as usize) % enc.len();
        let got = decode_response(&enc[..cut]);
        // STATS prefixes that still cover the tag decode as shorter
        // (still-valid) stats text; everything else must be refused.
        match got {
            Err(WireError::Truncated { .. }) | Err(WireError::Empty) => {}
            Ok(Response::Stats { .. }) if matches!(resp, Response::Stats { .. }) && cut >= 9 => {}
            other => prop_assert!(false, "cut {}: {:?}", cut, other),
        }
    }

    #[test]
    fn oversized_lengths_are_rejected_before_payload_io(extra in 1u32..1_000_000) {
        let len = MAX_FRAME_BYTES.saturating_add(extra);
        // No payload behind the header at all: the buffer must refuse on
        // the header alone instead of waiting for (or sizing for) it.
        let mut fb = FrameBuffer::new();
        fb.feed(&len.to_le_bytes());
        prop_assert_eq!(fb.next_frame(), Err(WireError::Oversized { len }));
    }

    #[test]
    fn frame_streams_concatenate_losslessly(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 0..20)
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).expect("write");
        }
        let mut cur = Cursor::new(wire);
        let mut fb = FrameBuffer::new();
        while fb.read_from(&mut cur).expect("read") > 0 {}
        for p in &payloads {
            prop_assert_eq!(fb.next_frame().expect("in sync"), Some(&p[..]));
        }
        prop_assert_eq!(fb.next_frame(), Ok(None));
    }

    #[test]
    fn mutated_requests_never_panic_the_decoder(
        req in any_request_strategy(),
        kind in 0u8..3,
        pos_seed in any::<u64>(),
        byte in any::<u8>(),
    ) {
        // Start from a *valid* encoding, then vandalize it the way the
        // chaos proxy does: flip a bit, splice a byte, or truncate.
        let mut enc = encode_request(&req);
        mutate(&mut enc, kind, pos_seed, byte);
        // Decode must return cleanly — Ok (the mutation landed on a
        // don't-care bit pattern that is still canonical) or a typed Err —
        // and must never panic.
        let _ = decode_request(&enc);
    }

    #[test]
    fn mutated_responses_never_panic_the_decoder(
        resp in response_strategy(),
        kind in 0u8..3,
        pos_seed in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let mut enc = encode_response(&resp);
        mutate(&mut enc, kind, pos_seed, byte);
        let _ = decode_response(&enc);
    }

    #[test]
    fn mutated_frame_streams_never_panic_the_frame_buffer(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..8),
        kind in 0u8..3,
        pos_seed in any::<u64>(),
        byte in any::<u8>(),
        chunk in 1usize..17,
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).expect("write");
        }
        mutate(&mut wire, kind, pos_seed, byte);
        // Feed the vandalized stream in odd-sized chunks; the buffer must
        // hand back frames or a clean error, never panic, and an error
        // must be sticky (the stream is poisoned, not mis-framed).
        let mut fb = FrameBuffer::new();
        let mut poisoned = false;
        for piece in wire.chunks(chunk) {
            fb.feed(piece);
            loop {
                match fb.next_frame() {
                    Ok(Some(frame)) => {
                        prop_assert!(!poisoned, "frame after poison");
                        let _ = decode_request(frame);
                        let _ = decode_response(frame);
                    }
                    Ok(None) => break,
                    Err(_) => {
                        poisoned = true;
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn batch_requests_roundtrip(req in batch_strategy()) {
        let enc = encode_request(&req);
        prop_assert_eq!(decode_request(&enc), Ok(req));
    }

    #[test]
    fn hello_requests_roundtrip(req in hello_strategy()) {
        let enc = encode_request(&req);
        prop_assert_eq!(decode_request(&enc), Ok(req));
    }

    #[test]
    fn truncated_batches_are_rejected(req in batch_strategy(), cut_seed in any::<u64>()) {
        let enc = encode_request(&req);
        let cut = (cut_seed as usize) % enc.len();
        let e = decode_request(&enc[..cut]).expect_err("prefix must be rejected");
        prop_assert!(
            matches!(e, WireError::Truncated { .. } | WireError::Empty),
            "cut {}: {:?}", cut, e
        );
    }

    #[test]
    fn batch_count_lies_never_panic_or_misparse(
        req in batch_strategy(),
        lie in any::<u16>(),
    ) {
        // The nested length prefix: overwrite the entry count with an
        // arbitrary lie. Decode must refuse any count that disagrees
        // with the payload it frames — without panicking.
        let true_count = match &req {
            Request::Batch(entries) => entries.len() as u16,
            _ => unreachable!(),
        };
        let mut enc = encode_request(&req);
        enc[1..3].copy_from_slice(&lie.to_le_bytes());
        match decode_request(&enc) {
            Ok(got) => {
                prop_assert_eq!(lie, true_count, "a lying count must not decode");
                prop_assert_eq!(got, req);
            }
            Err(_) => prop_assert!(lie != true_count, "the honest count must decode"),
        }
    }

    #[test]
    fn mutated_batch_frames_never_panic_the_frame_buffer(
        batches in prop::collection::vec(batch_strategy(), 1..6),
        kind in 0u8..3,
        pos_seed in any::<u64>(),
        byte in any::<u8>(),
        chunk in 1usize..17,
    ) {
        // A stream of valid BATCH frames, vandalized once (bit flip,
        // byte splice, or truncation — including mid-count and mid-entry
        // positions), fed in odd-sized chunks. The framing layer and the
        // batch decoder must return frames/typed errors, never panic.
        let mut wire = Vec::new();
        for b in &batches {
            write_frame(&mut wire, &encode_request(b)).expect("write");
        }
        mutate(&mut wire, kind, pos_seed, byte);
        let mut fb = FrameBuffer::new();
        let mut poisoned = false;
        for piece in wire.chunks(chunk) {
            fb.feed(piece);
            loop {
                match fb.next_frame() {
                    Ok(Some(frame)) => {
                        prop_assert!(!poisoned, "frame after poison");
                        let _ = decode_request(frame);
                    }
                    Ok(None) => break,
                    Err(_) => {
                        poisoned = true;
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn corrupt_opcodes_never_panic(payload in prop::collection::vec(any::<u8>(), 0..64)) {
        // Arbitrary bytes: decoding may fail but must never panic, and a
        // success must re-encode to the exact same bytes (canonicality),
        // except for requests only — responses include STATS whose text
        // re-encodes identically too.
        if let Ok(req) = decode_request(&payload) {
            prop_assert_eq!(encode_request(&req), payload.clone());
        }
        if let Ok(resp) = decode_response(&payload) {
            prop_assert_eq!(encode_response(&resp), payload);
        }
    }
}

// ----- the receive buffer against its oracle -----------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn frame_buffer_yields_exactly_the_fed_payloads_at_every_read_boundary(
        reqs in prop::collection::vec(any_request_strategy(), 0..6),
        tail_kind in 0u8..3,
        tail_seed in any::<u64>(),
        chunk_seeds in prop::collection::vec(any::<u16>(), 1..12),
    ) {
        // One contiguous stream of length-prefixed frames; the payloads
        // themselves are the oracle.
        let payloads: Vec<Vec<u8>> = reqs.iter().map(encode_request).collect();
        let mut stream = Vec::new();
        let mut ends = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p).expect("vec write");
            ends.push(stream.len());
        }
        // Optionally ending in hostility: an oversized header that poisons
        // the buffer once its fourth byte arrives, or a truncated frame
        // that leaves it waiting forever.
        let oversized = MAX_FRAME_BYTES + 1 + (tail_seed as u32 % 1024);
        let poison_at = stream.len() + 4;
        match tail_kind {
            1 => {
                stream.extend_from_slice(&oversized.to_le_bytes());
                stream.extend_from_slice(&[0xAB; 7]);
            }
            2 => {
                let payload = encode_request(&Request::Stats { tag: tail_seed });
                stream.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                let keep = (tail_seed as usize) % payload.len();
                stream.extend_from_slice(&payload[..keep]);
            }
            _ => {}
        }
        let poisoned = |fed: usize| tail_kind == 1 && fed >= poison_at;

        // Pop everything after every chunk: at each read boundary the
        // buffer has yielded exactly the payloads fed so far, in order.
        let mut fb = FrameBuffer::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        let mut off = 0usize;
        for seed in chunk_seeds.iter().chain(std::iter::once(&u16::MAX)) {
            let remaining = stream.len() - off;
            if remaining == 0 {
                break;
            }
            let n = if *seed == u16::MAX {
                remaining // final chunk: flush the rest
            } else {
                1 + (*seed as usize) % remaining
            };
            fb.feed(&stream[off..off + n]);
            off += n;
            let err = loop {
                match fb.next_frame() {
                    Ok(Some(p)) => got.push(p.to_vec()),
                    Ok(None) => break None,
                    Err(e) => break Some(e),
                }
            };
            let done = ends.iter().filter(|&&e| e <= off).count();
            prop_assert_eq!(&got, &payloads[..done]);
            let want = poisoned(off).then_some(WireError::Oversized { len: oversized });
            prop_assert_eq!(err, want);
        }
        prop_assert_eq!(&got, &payloads);
        match tail_kind {
            // Poisoned for good, even after a well-formed frame arrives.
            1 => {
                write_frame(&mut stream, &encode_request(&Request::Stats { tag: 1 }))
                    .expect("vec write");
                fb.feed(&stream[off..]);
                for _ in 0..3 {
                    prop_assert_eq!(
                        fb.next_frame(),
                        Err(WireError::Oversized { len: oversized })
                    );
                }
            }
            // The cut frame never completes: `None` however often asked.
            2 => {
                for _ in 0..3 {
                    prop_assert_eq!(fb.next_frame(), Ok(None));
                }
                prop_assert_eq!(fb.buffered(), stream.len() - ends.last().unwrap_or(&0));
            }
            _ => prop_assert_eq!(fb.buffered(), 0),
        }
    }

    #[test]
    fn response_frame_encoder_matches_write_frame(resp in response_strategy()) {
        use rif_server::protocol::encode_response_frame_into;
        let mut got = Vec::new();
        encode_response_frame_into(&resp, &mut got);
        let mut want = Vec::new();
        write_frame(&mut want, &encode_response(&resp)).expect("vec write");
        prop_assert_eq!(got, want);
    }
}
