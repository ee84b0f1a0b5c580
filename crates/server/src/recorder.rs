//! Live trace capture: journaling every admitted request.
//!
//! A [`TraceRecorder`] sits in the server's admission path and records
//! each I/O that actually reached a shard — arrival wall time,
//! op, wrapped offset, bytes, tenant, shard, and (once the shard
//! answers) the terminal outcome. [`TraceRecorder::capture`] renders the
//! journal as a [`rif_workloads::Capture`], the CSV format the offline
//! simulator and figure pipeline replay bit-for-bit.
//!
//! Two subtleties make a capture a faithful record of *logical* I/O:
//!
//! - **Retry coalescing.** A client re-issue carries the original tag in
//!   its `retry_of` field (BATCH entries only; single READ/WRITE frames
//!   cannot express it). When the original admission is already journaled, the
//!   retry *aliases* onto that record instead of creating a new one —
//!   the logical request appears once no matter how many times flaky
//!   transport made the client resend it.
//! - **Dead-shard bounces.** A shard in its post-crash dead window
//!   answers `BUSY(Unavailable)` for a request the server already
//!   admitted (and journaled). [`TraceRecorder::reject`] retracts that
//!   admission; a record with no live admission and no outcome is
//!   dropped from the capture, because the I/O never ran.
//!
//! Timestamps are read from one monotonic clock *inside* the recorder
//! lock, so the journal is non-decreasing in time by construction and
//! the rendered CSV needs no sort — identical serving runs produce
//! identical captures.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rif_workloads::{Capture, CaptureOutcome, CapturedRequest, IoOp};

/// One journaled logical request (pre-capture form).
#[derive(Debug, Clone, Copy)]
struct Rec {
    t_us: u64,
    op: IoOp,
    offset: u64,
    bytes: u32,
    tenant: u32,
    shard: u32,
    /// `Some(true)` = DONE, `Some(false)` = ERROR. First terminal wins:
    /// a duplicate completion of a retried request must not overwrite
    /// the outcome the first execution produced.
    outcome: Option<bool>,
    /// Admissions currently in flight for this logical request. A record
    /// with zero admissions and no outcome was only ever dead-bounced
    /// and is dropped at capture time.
    admissions: u32,
}

#[derive(Debug)]
struct State {
    epoch: Instant,
    records: Vec<Rec>,
    /// Every tag (original or retry alias) → index into `records`.
    by_tag: HashMap<u64, usize>,
}

/// Journals admitted requests for capture. Cheap when disabled: every
/// hook is a single relaxed atomic load.
#[derive(Debug)]
pub struct TraceRecorder {
    enabled: AtomicBool,
    state: Mutex<State>,
}

impl TraceRecorder {
    /// A recorder; disabled ones journal nothing.
    pub fn new(enabled: bool) -> Self {
        TraceRecorder {
            enabled: AtomicBool::new(enabled),
            state: Mutex::new(State {
                epoch: Instant::now(),
                records: Vec::new(),
                by_tag: HashMap::new(),
            }),
        }
    }

    /// True when capture is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        // Recorder state is append-mostly; recover from a poisoned lock
        // rather than wedging the request path.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Journals an admission: the request was handed to shard
    /// `shard`. `retry_of` is the ROOT tag of the client's retry chain
    /// when this is a re-issue (zero otherwise); a known `retry_of`
    /// aliases this tag onto the original record instead of journaling
    /// a second request. An *unknown* `retry_of` (the root was never
    /// admitted — lost before reaching this server) is registered as an
    /// alias of the fresh record, so every later re-issue of the same
    /// chain still dedups onto it.
    #[allow(clippy::too_many_arguments)]
    pub fn admit(
        &self,
        tag: u64,
        retry_of: u64,
        op: IoOp,
        offset: u64,
        bytes: u32,
        tenant: u32,
        shard: u32,
    ) {
        if !self.is_enabled() {
            return;
        }
        let mut s = self.state();
        if retry_of != 0 {
            if let Some(&idx) = s.by_tag.get(&retry_of) {
                s.by_tag.insert(tag, idx);
                s.records[idx].admissions += 1;
                return;
            }
        }
        if let Some(&idx) = s.by_tag.get(&tag) {
            // The same tag admitted twice (e.g. a duplicated frame the
            // transport replayed): one logical request.
            s.records[idx].admissions += 1;
            return;
        }
        let t_us = s.epoch.elapsed().as_micros() as u64;
        let idx = s.records.len();
        s.records.push(Rec {
            t_us,
            op,
            offset,
            bytes,
            tenant,
            shard,
            outcome: None,
            admissions: 1,
        });
        s.by_tag.insert(tag, idx);
        if retry_of != 0 {
            s.by_tag.insert(retry_of, idx);
        }
    }

    /// Journals a terminal outcome (`ok` = DONE, else ERROR) for `tag`.
    /// The first terminal outcome wins; later duplicates are ignored.
    pub fn complete(&self, tag: u64, ok: bool) {
        if !self.is_enabled() {
            return;
        }
        let mut s = self.state();
        if let Some(&idx) = s.by_tag.get(&tag) {
            let r = &mut s.records[idx];
            if r.outcome.is_none() {
                r.outcome = Some(ok);
            }
        }
    }

    /// Retracts one admission for `tag`: the shard bounced it without
    /// running it (dead window after a crash). If no other admission of
    /// the same logical request is live and none completed, the record
    /// drops out of the capture.
    pub fn reject(&self, tag: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut s = self.state();
        if let Some(&idx) = s.by_tag.get(&tag) {
            let r = &mut s.records[idx];
            r.admissions = r.admissions.saturating_sub(1);
        }
    }

    /// Number of logical requests journaled so far (including ones that
    /// would be dropped at capture time).
    pub fn len(&self) -> usize {
        self.state().records.len()
    }

    /// True when nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the journal as a normalized [`Capture`]: bounce-only
    /// records are dropped, unresolved ones (still in flight, or their
    /// completion was lost) surface as `error`, and timestamps are
    /// rebased so the first record sits at `t = 0`.
    pub fn capture(&self) -> Capture {
        let s = self.state();
        let mut cap = Capture::new(
            s.records
                .iter()
                .filter(|r| r.outcome.is_some() || r.admissions > 0)
                .map(|r| CapturedRequest {
                    t_us: r.t_us,
                    op: r.op,
                    offset: r.offset,
                    bytes: r.bytes,
                    tenant: r.tenant,
                    shard: r.shard,
                    outcome: if r.outcome == Some(true) {
                        CaptureOutcome::Done
                    } else {
                        CaptureOutcome::Error
                    },
                })
                .collect(),
        );
        cap.normalize();
        cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admit(r: &TraceRecorder, tag: u64, retry_of: u64) {
        r.admit(tag, retry_of, IoOp::Read, 4096, 65536, 0, 1);
    }

    #[test]
    fn disabled_recorder_journals_nothing() {
        let r = TraceRecorder::new(false);
        admit(&r, 1, 0);
        r.complete(1, true);
        assert!(r.is_empty());
        assert!(r.capture().is_empty());
    }

    #[test]
    fn records_admission_and_outcome() {
        let r = TraceRecorder::new(true);
        admit(&r, 1, 0);
        r.complete(1, true);
        let cap = r.capture();
        assert_eq!(cap.len(), 1);
        let rec = cap.records[0];
        assert_eq!(rec.t_us, 0, "capture is normalized");
        assert_eq!((rec.offset, rec.bytes, rec.shard), (4096, 65536, 1));
        assert_eq!(rec.outcome, CaptureOutcome::Done);
    }

    #[test]
    fn retry_aliases_onto_the_original_record() {
        let r = TraceRecorder::new(true);
        admit(&r, 10, 0);
        // Two re-issues of the same logical request (fresh tags).
        admit(&r, 11, 10);
        admit(&r, 12, 10);
        assert_eq!(r.len(), 1, "logical request journaled once");
        // The retry's completion resolves the original record.
        r.complete(12, true);
        let cap = r.capture();
        assert_eq!(cap.len(), 1);
        assert_eq!(cap.records[0].outcome, CaptureOutcome::Done);
    }

    #[test]
    fn retry_chains_alias_transitively() {
        let r = TraceRecorder::new(true);
        admit(&r, 10, 0);
        admit(&r, 11, 10);
        // The client links each re-issue to its immediate predecessor.
        admit(&r, 12, 11);
        assert_eq!(r.len(), 1);
        r.complete(11, false);
        r.complete(12, true); // later duplicate: first terminal wins
        assert_eq!(r.capture().records[0].outcome, CaptureOutcome::Error);
    }

    #[test]
    fn unknown_retry_of_is_a_fresh_logical_request() {
        let r = TraceRecorder::new(true);
        // The original was BUSY-rejected pre-admission, so it was never
        // journaled; the retry is the first admission that counts.
        admit(&r, 21, 20);
        assert_eq!(r.len(), 1);
        r.complete(21, true);
        assert_eq!(r.capture().len(), 1);
    }

    #[test]
    fn bounce_only_records_drop_out_of_the_capture() {
        let r = TraceRecorder::new(true);
        admit(&r, 1, 0);
        r.reject(1); // dead-shard bounce: the I/O never ran
        admit(&r, 2, 0);
        r.complete(2, true);
        let cap = r.capture();
        assert_eq!(cap.len(), 1, "bounced request must not be captured");
    }

    #[test]
    fn bounced_then_retried_request_is_captured_once() {
        let r = TraceRecorder::new(true);
        admit(&r, 1, 0);
        r.reject(1);
        admit(&r, 2, 1); // re-issue after the bounce
        r.complete(2, true);
        let cap = r.capture();
        assert_eq!(cap.len(), 1);
        assert_eq!(cap.records[0].outcome, CaptureOutcome::Done);
    }

    #[test]
    fn unresolved_requests_surface_as_error() {
        let r = TraceRecorder::new(true);
        admit(&r, 1, 0);
        let cap = r.capture();
        assert_eq!(cap.len(), 1);
        assert_eq!(cap.records[0].outcome, CaptureOutcome::Error);
    }

    #[test]
    fn capture_time_is_monotonic_and_csv_parses() {
        let r = TraceRecorder::new(true);
        for tag in 1..=100u64 {
            admit(&r, tag, 0);
            r.complete(tag, true);
        }
        let cap = r.capture();
        assert!(cap.records.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        let csv = cap.to_csv();
        assert_eq!(Capture::parse_csv(&csv).expect("parse"), cap);
    }
}
