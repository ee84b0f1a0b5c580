//! The captured-trace format: served requests journaled as CSV.
//!
//! A live `rif-server` run can journal every *admitted* request through
//! its `TraceRecorder`; this module is the interchange format those
//! journals are written in and read back from, and the one trace file
//! format of the workspace: a block trace from elsewhere (AliCloud,
//! Systor) is converted into it, then read like any capture. The first
//! four fields are the block-trace core
//! (`t_us,R|W,offset_bytes,length_bytes`), followed by the serving-side
//! metadata a replay needs (`tenant,shard,outcome`).
//!
//! ```text
//! # rif-capture v1: t_us,op,offset_bytes,length_bytes,tenant,shard,outcome
//! 0,R,1048576,65536,0,1,done
//! 12,W,524288,65536,3,0,done
//! 57,R,9437184,16384,0,1,error
//! ```
//!
//! Three invariants make a capture a *replayable golden artifact*:
//!
//! 1. **Monotonic time.** Timestamps are wall-clock microseconds read
//!    from one monotonic clock at admission and normalized so the first
//!    record sits at `t = 0`. The parser rejects any row whose timestamp
//!    runs backwards — a capture that violates this was corrupted or
//!    hand-edited, and replaying it would silently reorder I/O.
//! 2. **Logical requests, journaled once.** The recorder coalesces client
//!    re-issues (linked by `retry_of` tags) into the record of their
//!    first admission, so a capture row is one logical I/O, not one wire
//!    frame.
//! 3. **Canonical serialization.** [`Capture::to_csv`] renders a unique
//!    byte string for a given record list, so `serialize → parse →
//!    re-serialize` is the identity and captures diff cleanly.

use std::fmt;

use rif_events::SimTime;

use crate::trace::{IoOp, IoRequest, Trace, MAX_END_BYTES};

/// How an admitted request terminated on the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaptureOutcome {
    /// The simulated I/O completed (DONE on the wire).
    Done,
    /// The request was admitted but failed terminally (worker crash, or
    /// it was still unresolved when the capture was taken).
    Error,
}

impl CaptureOutcome {
    /// The canonical CSV token.
    pub fn label(&self) -> &'static str {
        match self {
            CaptureOutcome::Done => "done",
            CaptureOutcome::Error => "error",
        }
    }
}

/// One journaled logical request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapturedRequest {
    /// Admission wall time in microseconds, relative to capture start.
    pub t_us: u64,
    /// Read or write.
    pub op: IoOp,
    /// Logical byte offset (wrapped into the served capacity, *before*
    /// shard rebasing — replaying through a server with the same shard
    /// count routes identically).
    pub offset: u64,
    /// Transfer size in bytes.
    pub bytes: u32,
    /// Tenant id the request was admitted under.
    pub tenant: u32,
    /// Shard index that served it.
    pub shard: u32,
    /// Terminal outcome.
    pub outcome: CaptureOutcome,
}

impl CapturedRequest {
    /// The offline-replay view: the four core block-trace fields.
    pub fn to_io_request(&self) -> IoRequest {
        IoRequest {
            arrival: SimTime::from_us(self.t_us),
            op: self.op,
            offset: self.offset,
            bytes: self.bytes,
        }
    }
}

/// An ordered capture of served requests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Capture {
    /// Records in admission order (non-decreasing `t_us`).
    pub records: Vec<CapturedRequest>,
}

/// The canonical header line every capture starts with.
pub const CAPTURE_HEADER: &str =
    "# rif-capture v1: t_us,op,offset_bytes,length_bytes,tenant,shard,outcome";

/// A capture-parse failure, with the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCaptureError {
    /// Line number of the offending record.
    pub line: usize,
    /// What went wrong.
    pub kind: CaptureErrorKind,
}

/// The category of a capture-parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaptureErrorKind {
    /// Wrong number of comma-separated fields (expected 7).
    FieldCount(usize),
    /// A numeric field failed to parse (covers negative offsets and
    /// timestamps: every numeric field is unsigned).
    BadNumber(String),
    /// The op field was neither `R` nor `W`.
    BadOp(String),
    /// The outcome field was neither `done` nor `error`.
    BadOutcome(String),
    /// A zero-length request.
    EmptyRequest,
    /// A request whose `offset + bytes` ends past the trace model's
    /// address bound, [`MAX_END_BYTES`].
    PastAddressBound {
        /// The request's offset.
        offset: u64,
        /// The request's length.
        bytes: u32,
    },
    /// A timestamp whose nanoseconds do not fit the simulation clock's
    /// `u64`.
    TimeOverflow(u64),
    /// A timestamp earlier than its predecessor.
    NonMonotonicTime {
        /// The offending timestamp.
        t_us: u64,
        /// The timestamp of the previous record.
        prev_us: u64,
    },
}

impl fmt::Display for ParseCaptureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            CaptureErrorKind::FieldCount(n) => {
                write!(f, "line {}: expected 7 fields, found {n}", self.line)
            }
            CaptureErrorKind::BadNumber(s) => {
                write!(f, "line {}: invalid number {s:?}", self.line)
            }
            CaptureErrorKind::BadOp(s) => {
                write!(f, "line {}: invalid op {s:?} (expected R or W)", self.line)
            }
            CaptureErrorKind::BadOutcome(s) => write!(
                f,
                "line {}: invalid outcome {s:?} (expected done or error)",
                self.line
            ),
            CaptureErrorKind::EmptyRequest => {
                write!(f, "line {}: zero-length request", self.line)
            }
            CaptureErrorKind::PastAddressBound { offset, bytes } => write!(
                f,
                "line {}: request at offset {offset} of {bytes} bytes ends past byte 2^48",
                self.line
            ),
            CaptureErrorKind::TimeOverflow(t_us) => write!(
                f,
                "line {}: timestamp {t_us} us overflows the simulation clock",
                self.line
            ),
            CaptureErrorKind::NonMonotonicTime { t_us, prev_us } => write!(
                f,
                "line {}: timestamp {t_us} runs backwards (previous record at {prev_us})",
                self.line
            ),
        }
    }
}

impl std::error::Error for ParseCaptureError {}

impl Capture {
    /// Wraps a record list. The records must already be in admission
    /// order; use [`Capture::normalize`] to rebase timestamps to zero.
    pub fn new(records: Vec<CapturedRequest>) -> Self {
        Capture { records }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the capture is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Rebases timestamps so the first record sits at `t_us = 0`. A
    /// capture straight off a `TraceRecorder` is already monotonic; this
    /// removes the arbitrary offset of when, within the server's
    /// lifetime, the first request happened to arrive.
    pub fn normalize(&mut self) {
        let Some(t0) = self.records.first().map(|r| r.t_us) else {
            return;
        };
        for r in &mut self.records {
            r.t_us -= t0;
        }
    }

    /// The offline-replay view: a plain [`Trace`] carrying the four core
    /// fields, interchangeable with synthetic and parsed traces. Every
    /// admitted record replays — an `error` outcome means the I/O reached
    /// a simulator, so the offline pipeline replays it too.
    pub fn to_trace(&self) -> Trace {
        self.records.iter().map(|r| r.to_io_request()).collect()
    }

    /// Canonical CSV rendering: one unique byte string per record list.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 40 + CAPTURE_HEADER.len() + 1);
        out.push_str(CAPTURE_HEADER);
        out.push('\n');
        for r in &self.records {
            use std::fmt::Write as _;
            writeln!(
                out,
                "{},{},{},{},{},{},{}",
                r.t_us,
                if r.op == IoOp::Read { 'R' } else { 'W' },
                r.offset,
                r.bytes,
                r.tenant,
                r.shard,
                r.outcome.label(),
            )
            .expect("writing to String cannot fail");
        }
        out
    }

    /// Parses a captured-trace CSV. Blank lines and `#` comments are
    /// skipped; every record row must have exactly 7 well-formed fields
    /// and non-decreasing timestamps, and must be one the simulator can
    /// replay: it ends at or below [`MAX_END_BYTES`], and its timestamp
    /// fits the nanosecond clock.
    ///
    /// # Errors
    ///
    /// Returns the first malformed record with its line number. Negative
    /// numbers fail the unsigned parses, so a hand-mangled `-4096` offset
    /// is a [`CaptureErrorKind::BadNumber`], never a panic or a wrap.
    pub fn parse_csv(text: &str) -> Result<Capture, ParseCaptureError> {
        let mut records = Vec::new();
        let mut prev_us: Option<u64> = None;
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
            if fields.len() != 7 {
                return Err(ParseCaptureError {
                    line,
                    kind: CaptureErrorKind::FieldCount(fields.len()),
                });
            }
            let num = |s: &str| -> Result<u64, ParseCaptureError> {
                s.parse().map_err(|_| ParseCaptureError {
                    line,
                    kind: CaptureErrorKind::BadNumber(s.to_string()),
                })
            };
            let t_us = num(fields[0])?;
            if t_us.checked_mul(1_000).is_none() {
                return Err(ParseCaptureError {
                    line,
                    kind: CaptureErrorKind::TimeOverflow(t_us),
                });
            }
            let op = match fields[1] {
                "R" => IoOp::Read,
                "W" => IoOp::Write,
                other => {
                    return Err(ParseCaptureError {
                        line,
                        kind: CaptureErrorKind::BadOp(other.to_string()),
                    })
                }
            };
            let offset = num(fields[2])?;
            let bytes = num(fields[3])?;
            let bytes = u32::try_from(bytes).map_err(|_| ParseCaptureError {
                line,
                kind: CaptureErrorKind::BadNumber(fields[3].to_string()),
            })?;
            if bytes == 0 {
                return Err(ParseCaptureError {
                    line,
                    kind: CaptureErrorKind::EmptyRequest,
                });
            }
            if !matches!(offset.checked_add(u64::from(bytes)), Some(end) if end <= MAX_END_BYTES) {
                return Err(ParseCaptureError {
                    line,
                    kind: CaptureErrorKind::PastAddressBound { offset, bytes },
                });
            }
            let tenant = u32::try_from(num(fields[4])?).map_err(|_| ParseCaptureError {
                line,
                kind: CaptureErrorKind::BadNumber(fields[4].to_string()),
            })?;
            let shard = u32::try_from(num(fields[5])?).map_err(|_| ParseCaptureError {
                line,
                kind: CaptureErrorKind::BadNumber(fields[5].to_string()),
            })?;
            let outcome = match fields[6] {
                "done" => CaptureOutcome::Done,
                "error" => CaptureOutcome::Error,
                other => {
                    return Err(ParseCaptureError {
                        line,
                        kind: CaptureErrorKind::BadOutcome(other.to_string()),
                    })
                }
            };
            if let Some(prev) = prev_us {
                if t_us < prev {
                    return Err(ParseCaptureError {
                        line,
                        kind: CaptureErrorKind::NonMonotonicTime {
                            t_us,
                            prev_us: prev,
                        },
                    });
                }
            }
            prev_us = Some(t_us);
            records.push(CapturedRequest {
                t_us,
                op,
                offset,
                bytes,
                tenant,
                shard,
                outcome,
            });
        }
        Ok(Capture { records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t_us: u64, op: IoOp, offset: u64, bytes: u32) -> CapturedRequest {
        CapturedRequest {
            t_us,
            op,
            offset,
            bytes,
            tenant: 0,
            shard: 0,
            outcome: CaptureOutcome::Done,
        }
    }

    #[test]
    fn csv_roundtrips_byte_identically() {
        let cap = Capture::new(vec![
            rec(0, IoOp::Read, 1 << 20, 65536),
            CapturedRequest {
                t_us: 12,
                op: IoOp::Write,
                offset: 524288,
                bytes: 65536,
                tenant: 3,
                shard: 1,
                outcome: CaptureOutcome::Error,
            },
            rec(12, IoOp::Read, 0, 4096),
        ]);
        let csv = cap.to_csv();
        let back = Capture::parse_csv(&csv).expect("parse");
        assert_eq!(back, cap);
        assert_eq!(back.to_csv(), csv, "re-serialization must be identity");
    }

    #[test]
    fn normalize_rebases_to_zero_and_preserves_spacing() {
        let mut cap = Capture::new(vec![
            rec(1_000, IoOp::Read, 0, 4096),
            rec(1_007, IoOp::Write, 4096, 4096),
        ]);
        cap.normalize();
        assert_eq!(cap.records[0].t_us, 0);
        assert_eq!(cap.records[1].t_us, 7);
    }

    #[test]
    fn to_trace_carries_core_fields() {
        let cap = Capture::new(vec![rec(5, IoOp::Write, 8192, 16384)]);
        let t = cap.to_trace();
        assert_eq!(t.len(), 1);
        let r = t.requests()[0];
        assert_eq!(r.arrival, SimTime::from_us(5));
        assert_eq!(r.op, IoOp::Write);
        assert_eq!(r.offset, 8192);
        assert_eq!(r.bytes, 16384);
    }

    #[test]
    fn rejects_bad_tenant() {
        let e = Capture::parse_csv("0,R,0,4096,nope,0,done\n").unwrap_err();
        assert!(matches!(e.kind, CaptureErrorKind::BadNumber(_)), "{e:?}");
    }

    #[test]
    fn rejects_negative_offset() {
        let e = Capture::parse_csv("0,R,-4096,4096,0,0,done\n").unwrap_err();
        assert!(matches!(e.kind, CaptureErrorKind::BadNumber(_)), "{e:?}");
    }

    #[test]
    fn rejects_non_monotonic_time() {
        let text = "5,R,0,4096,0,0,done\n4,R,0,4096,0,0,done\n";
        let e = Capture::parse_csv(text).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(
            matches!(
                e.kind,
                CaptureErrorKind::NonMonotonicTime {
                    t_us: 4,
                    prev_us: 5
                }
            ),
            "{e:?}"
        );
    }

    #[test]
    fn rejects_bad_outcome_field_count_and_zero_length() {
        assert!(matches!(
            Capture::parse_csv("0,R,0,4096,0,0,maybe\n")
                .unwrap_err()
                .kind,
            CaptureErrorKind::BadOutcome(_)
        ));
        assert!(matches!(
            Capture::parse_csv("0,R,0,4096\n").unwrap_err().kind,
            CaptureErrorKind::FieldCount(4)
        ));
        assert!(matches!(
            Capture::parse_csv("0,R,0,0,0,0,done\n").unwrap_err().kind,
            CaptureErrorKind::EmptyRequest
        ));
    }

    #[test]
    fn rejects_a_request_ending_past_the_address_bound() {
        // Served, this row used to panic in `Simulator::submit`.
        let e = Capture::parse_csv("0,R,0,4096,0,0,done\n0,R,281474976710656,65536,0,0,done\n")
            .unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(
            e.kind,
            CaptureErrorKind::PastAddressBound {
                offset: MAX_END_BYTES,
                bytes: 65536
            }
        );
        assert!(e.to_string().contains("line 2"), "{e}");
        // `offset + bytes` wrapping u64 is past the bound too; ending
        // exactly at it is not.
        let wraps = format!("0,W,{},4096,0,0,done\n", u64::MAX);
        assert!(matches!(
            Capture::parse_csv(&wraps).unwrap_err().kind,
            CaptureErrorKind::PastAddressBound { .. }
        ));
        let last = format!("0,R,{},65536,0,0,done\n", MAX_END_BYTES - 65536);
        assert_eq!(Capture::parse_csv(&last).unwrap().len(), 1);
    }

    #[test]
    fn rejects_a_timestamp_the_nanosecond_clock_cannot_hold() {
        let max_us = u64::MAX / 1_000;
        let e = Capture::parse_csv(&format!(
            "0,R,0,4096,0,0,done\n{},R,0,4096,0,0,done\n",
            max_us + 1
        ))
        .unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.kind, CaptureErrorKind::TimeOverflow(max_us + 1));
        let e = Capture::parse_csv(&format!("{},R,0,4096,0,0,done\n", u64::MAX)).unwrap_err();
        assert_eq!(e.kind, CaptureErrorKind::TimeOverflow(u64::MAX));
        let fits = format!("{max_us},R,0,4096,0,0,done\n");
        assert_eq!(Capture::parse_csv(&fits).unwrap().len(), 1);
    }

    #[test]
    fn empty_capture_is_just_the_header() {
        let cap = Capture::default();
        let csv = cap.to_csv();
        assert_eq!(csv.lines().count(), 1);
        assert!(Capture::parse_csv(&csv).unwrap().is_empty());
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let e = Capture::parse_csv("0,R,0,4096,0,0,done\n0,T,0,4,0,0,done\n").unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("line 2") && msg.contains("invalid op"),
            "{msg}"
        );
    }
}
