//! Live replay: driving a captured trace back through a running server.
//!
//! A [`rif_workloads::Capture`] journaled by the server and taken with
//! [`Server::capture`](crate::server::Server::capture) can be replayed
//! two ways:
//!
//! - **offline**, by feeding [`Capture::to_trace`] to the
//!   `rif_ssd::Simulator` — deterministic and bit-exact, the golden-test
//!   path;
//! - **live**, through this module — the captured requests are sent back
//!   at their recorded arrival spacing (optionally scaled by `speed`)
//!   over real connections, and the resulting client journal is diffed
//!   against the capture.
//!
//! The live diff is necessarily *multiset* equality over the request
//! bodies `(op, offset, bytes)` of logical submissions: a live server
//! re-times completions and may interleave shards differently, but every
//! captured request must go back on the wire exactly once.

use std::io;

use rif_workloads::Capture;

use crate::client::{run_plans, Journal, LoadConfig, LoadReport, PlannedIo};

/// Replay configuration.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Pacing multiplier: `2.0` replays at twice the recorded speed,
    /// `0.5` at half. Must be positive.
    pub speed: f64,
    /// The load-client knobs, reused verbatim except `requests` (the
    /// capture's length): the server address, the connections the
    /// capture is striped across (round-robin), the window per
    /// connection, the BATCH size, deadlines, retries and reconnects.
    pub base: LoadConfig,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            speed: 1.0,
            base: LoadConfig {
                depth: 16,
                ..LoadConfig::default()
            },
        }
    }
}

/// The result of diffing a replay journal against its source capture.
#[derive(Debug, Clone, Default)]
pub struct ReplayDiff {
    /// Logical requests the capture holds that the replay never sent.
    pub missing: u64,
    /// Logical requests the replay sent that the capture does not hold.
    pub unexpected: u64,
    /// Logical requests present on both sides.
    pub matched: u64,
}

impl ReplayDiff {
    /// True when the replay put exactly the captured requests on the
    /// wire — nothing missing, nothing invented.
    pub fn pass(&self) -> bool {
        self.missing == 0 && self.unexpected == 0
    }

    /// Canonical JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"matched\":{},\"missing\":{},\"unexpected\":{},\"pass\":{}}}",
            self.matched,
            self.missing,
            self.unexpected,
            self.pass()
        )
    }
}

/// Builds per-connection request plans from a capture: record `i` goes
/// to connection `i % connections`, due at `t_us / speed` wall
/// microseconds after the replay starts. Striping preserves per-
/// connection arrival order, so the pacing gate at each queue head
/// never reorders the capture.
pub fn plans_from_capture(cfg: &ReplayConfig, cap: &Capture) -> Vec<Vec<PlannedIo>> {
    assert!(cfg.speed > 0.0, "replay speed must be positive");
    let connections = cfg.base.connections;
    assert!(connections > 0, "need at least one connection");
    let mut plans: Vec<Vec<PlannedIo>> = vec![Vec::new(); connections];
    for (i, r) in cap.records.iter().enumerate() {
        plans[i % connections].push(PlannedIo {
            op: r.op,
            offset: r.offset,
            bytes: r.bytes,
            tenant: r.tenant,
            due_us: Some((r.t_us as f64 / cfg.speed) as u64),
        });
    }
    plans
}

/// Replays `cap` against the live server in `cfg` and returns the load
/// report plus the journal (diff it with [`diff_against_capture`]).
pub fn run_replay_journaled(
    cfg: &ReplayConfig,
    cap: &Capture,
) -> io::Result<(LoadReport, Journal)> {
    let load = LoadConfig {
        requests: cap.len(),
        ..cfg.base.clone()
    };
    run_plans(&load, plans_from_capture(cfg, cap))
}

/// Diffs a replay's journal against the capture it was built from:
/// multiset equality over `(op, offset, bytes)` of *logical* requests
/// (journal records with `retry_of == None` — re-issues are the same
/// logical request under a fresh tag).
pub fn diff_against_capture(journal: &Journal, cap: &Capture) -> ReplayDiff {
    use std::collections::HashMap;
    let key = |op: rif_workloads::IoOp, offset: u64, bytes: u32| {
        (op == rif_workloads::IoOp::Read, offset, bytes)
    };
    let mut want: HashMap<(bool, u64, u32), i64> = HashMap::new();
    for r in &cap.records {
        *want.entry(key(r.op, r.offset, r.bytes)).or_insert(0) += 1;
    }
    let mut diff = ReplayDiff::default();
    for rec in journal.records.iter().filter(|r| r.retry_of.is_none()) {
        let k = key(rec.op, rec.offset, rec.bytes);
        match want.get_mut(&k) {
            Some(n) if *n > 0 => {
                *n -= 1;
                diff.matched += 1;
            }
            _ => diff.unexpected += 1,
        }
    }
    diff.missing = want.values().map(|&n| n.max(0) as u64).sum();
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::TagRecord;
    use rif_workloads::{CaptureOutcome, CapturedRequest, IoOp};

    fn cap_rec(t_us: u64, op: IoOp, offset: u64, bytes: u32) -> CapturedRequest {
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

    fn journal_rec(
        tag: u64,
        op: IoOp,
        offset: u64,
        bytes: u32,
        retry_of: Option<u64>,
    ) -> TagRecord {
        TagRecord {
            conn: 0,
            tag,
            op,
            offset,
            bytes,
            retry_of,
            outcome: Some(crate::client::Outcome::Done),
            duplicate_receipts: 0,
            conflicting_receipts: 0,
        }
    }

    #[test]
    fn plans_stripe_and_scale_pacing() {
        let cap = Capture::new(vec![
            cap_rec(0, IoOp::Read, 0, 4096),
            cap_rec(100, IoOp::Write, 4096, 4096),
            cap_rec(200, IoOp::Read, 8192, 4096),
        ]);
        let cfg = ReplayConfig {
            speed: 2.0,
            base: LoadConfig {
                connections: 2,
                ..LoadConfig::default()
            },
        };
        let plans = plans_from_capture(&cfg, &cap);
        assert_eq!(plans[0].len(), 2);
        assert_eq!(plans[1].len(), 1);
        assert_eq!(plans[0][1].due_us, Some(100), "200us at 2x speed");
        assert_eq!(plans[1][0].due_us, Some(50));
    }

    #[test]
    fn diff_passes_on_exact_multiset_match() {
        let cap = Capture::new(vec![
            cap_rec(0, IoOp::Read, 0, 4096),
            cap_rec(1, IoOp::Read, 0, 4096), // duplicate body is fine
            cap_rec(2, IoOp::Write, 8192, 4096),
        ]);
        let journal = Journal {
            records: vec![
                journal_rec(1, IoOp::Write, 8192, 4096, None),
                journal_rec(2, IoOp::Read, 0, 4096, None),
                journal_rec(3, IoOp::Read, 0, 4096, None),
                // A retry of tag 3: same logical request, not counted.
                journal_rec(4, IoOp::Read, 0, 4096, Some(3)),
            ],
            ..Journal::default()
        };
        let d = diff_against_capture(&journal, &cap);
        assert!(d.pass(), "{}", d.to_json());
        assert_eq!(d.matched, 3);
    }

    #[test]
    fn diff_flags_missing_and_unexpected() {
        let cap = Capture::new(vec![
            cap_rec(0, IoOp::Read, 0, 4096),
            cap_rec(1, IoOp::Write, 4096, 4096),
        ]);
        let journal = Journal {
            records: vec![
                journal_rec(1, IoOp::Read, 0, 4096, None),
                journal_rec(2, IoOp::Read, 12345, 4096, None),
            ],
            ..Journal::default()
        };
        let d = diff_against_capture(&journal, &cap);
        assert!(!d.pass());
        assert_eq!(d.missing, 1, "the write never replayed");
        assert_eq!(d.unexpected, 1, "offset 12345 was never captured");
        assert!(d.to_json().contains("\"pass\":false"));
    }
}
