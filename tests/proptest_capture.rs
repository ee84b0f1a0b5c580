//! Property-based tests for the captured-trace CSV codec (plain
//! integration tests on the vendored proptest shim; they run under
//! `cargo test`).
//!
//! Two families:
//! - round-trip: serialize → parse → re-serialize is byte-identical for
//!   every capture the recorder can produce (monotonic times, non-empty
//!   requests);
//! - rejection: malformed rows — bad tenant, negative offset,
//!   non-monotonic time, wrong field counts, arbitrary garbage, a bad row
//!   anywhere in a valid file — are refused with a typed, line-numbered
//!   error, never a panic.

use proptest::prelude::*;
use rif_workloads::capture::CaptureErrorKind;
use rif_workloads::trace::MAX_END_BYTES;
use rif_workloads::{Capture, CaptureOutcome, CapturedRequest, IoOp};

/// A capture with non-decreasing timestamps and non-empty requests, the
/// only shape the recorder emits: generated as (delta, body) pairs and
/// prefix-summed into absolute times.
fn capture_strategy() -> impl Strategy<Value = Capture> {
    prop::collection::vec(
        (
            0u64..10_000,      // arrival delta, µs
            0u8..2,            // op
            any::<u32>(),      // offset seed (kept small via cast)
            1u32..(1 << 20),   // bytes, never zero
            0u32..16,          // tenant
            (0u32..8, 0u8..2), // shard, outcome
        ),
        0..64,
    )
    .prop_map(|rows| {
        let mut t = 0u64;
        let records = rows
            .into_iter()
            .map(|(dt, op, offset, bytes, tenant, (shard, outcome))| {
                t += dt;
                CapturedRequest {
                    t_us: t,
                    op: if op == 0 { IoOp::Read } else { IoOp::Write },
                    offset: (offset as u64) << 12,
                    bytes,
                    tenant,
                    shard,
                    outcome: if outcome == 0 {
                        CaptureOutcome::Done
                    } else {
                        CaptureOutcome::Error
                    },
                }
            })
            .collect();
        Capture::new(records)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn csv_roundtrip_is_byte_identical(cap in capture_strategy()) {
        let csv = cap.to_csv();
        let parsed = Capture::parse_csv(&csv).expect("own output must parse");
        prop_assert_eq!(parsed.len(), cap.len());
        prop_assert_eq!(parsed.to_csv(), csv);
    }

    #[test]
    fn parse_survives_to_trace(cap in capture_strategy()) {
        // The parsed capture must convert to a simulator trace with one
        // request per row — the offline-replay path end to end.
        let parsed = Capture::parse_csv(&cap.to_csv()).expect("parse");
        prop_assert_eq!(parsed.to_trace().requests().len(), cap.len());
    }

    #[test]
    fn bad_tenant_is_rejected(cap in capture_strategy(), which in 0usize..4) {
        let tenant = ["x", "-1", "4294967296", "1.5"][which];
        let row = format!("0,R,0,4096,{tenant},0,done\n");
        // Appending after the last row may also trip the monotonic check;
        // a standalone capture of just the bad row isolates the field.
        let alone = format!("{}\n{}", rif_workloads::capture::CAPTURE_HEADER, row);
        prop_assert!(Capture::parse_csv(&alone).is_err(), "tenant {tenant:?} accepted");
        let doctored = format!("{}{}", cap.to_csv(), row);
        prop_assert!(Capture::parse_csv(&doctored).is_err()); // and never panics
    }

    #[test]
    fn negative_numbers_are_rejected(field in 0usize..4, cap in capture_strategy()) {
        // A minus sign in any numeric column (t, offset, bytes, tenant)
        // must be refused: the format is unsigned by construction.
        let mut cols = ["0", "R", "0", "4096", "0", "0", "done"].map(String::from);
        let idx = [0, 2, 3, 4][field];
        cols[idx] = format!("-{}", cols[idx]);
        let text = format!("{}\n{}\n", rif_workloads::capture::CAPTURE_HEADER, cols.join(","));
        prop_assert!(Capture::parse_csv(&text).is_err());
        let _ = cap; // keep the strategy exercised alongside
    }

    #[test]
    fn non_monotonic_time_is_rejected(cap in capture_strategy(), t in 1u64..1_000_000) {
        // Two rows with strictly decreasing timestamps must be refused.
        let text = format!(
            "{}\n{t},R,0,4096,0,0,done\n{},W,4096,4096,0,0,done\n",
            rif_workloads::capture::CAPTURE_HEADER,
            t - 1,
        );
        let e = Capture::parse_csv(&text).expect_err("decreasing time accepted");
        prop_assert!(e.to_string().contains("line 3"), "{e}");
        let _ = cap;
    }

    #[test]
    fn malformed_line_is_rejected_with_its_number(
        cap in capture_strategy(),
        pos_seed in any::<u64>(),
        kind in 0u8..5,
    ) {
        let csv = cap.to_csv();
        let mut lines: Vec<String> = csv.lines().map(str::to_string).collect();
        // Anywhere after the header (line 1), stamped with the previous
        // row's time so that the monotonic check cannot fire first.
        let pos = 1 + (pos_seed as usize) % lines.len();
        let t = if pos == 1 { 0 } else { cap.records[pos - 2].t_us };
        let bad = match kind {
            0 => format!("{t},R,0,4096"),
            1 => format!("{t},R,4k,4096,0,0,done"),
            2 => format!("{t},Q,0,4096,0,0,done"),
            3 => format!("{t},R,0,0,0,0,done"),
            _ => format!("{t},R,{MAX_END_BYTES},4096,0,0,done"),
        };
        lines.insert(pos, bad);
        let e = Capture::parse_csv(&lines.join("\n")).expect_err("must reject");
        prop_assert_eq!(e.line, pos + 1);
        let kind_matches = match kind {
            0 => matches!(e.kind, CaptureErrorKind::FieldCount(4)),
            1 => matches!(e.kind, CaptureErrorKind::BadNumber(_)),
            2 => matches!(e.kind, CaptureErrorKind::BadOp(_)),
            3 => matches!(e.kind, CaptureErrorKind::EmptyRequest),
            _ => matches!(e.kind, CaptureErrorKind::PastAddressBound { .. }),
        };
        prop_assert!(kind_matches, "kind {} got {:?}", kind, e.kind);
    }

    #[test]
    fn wrong_field_counts_are_rejected(n in 1usize..11) {
        let n = if n >= 7 { n + 1 } else { n }; // skip the valid width
        let row = vec!["0"; n].join(",");
        let text = format!("{}\n{row}\n", rif_workloads::capture::CAPTURE_HEADER);
        prop_assert!(Capture::parse_csv(&text).is_err(), "{n} fields accepted");
    }

    #[test]
    fn garbage_lines_never_panic(lines in prop::collection::vec(
        prop::collection::vec(0x20u8..0x7F, 0..40), 0..10
    )) {
        let body: String = lines
            .into_iter()
            .map(|b| String::from_utf8(b).expect("printable ascii") + "\n")
            .collect();
        // Any outcome is fine — parse must simply return.
        let _ = Capture::parse_csv(&body);
        let _ = Capture::parse_csv(&format!(
            "{}\n{body}",
            rif_workloads::capture::CAPTURE_HEADER
        ));
    }
}
