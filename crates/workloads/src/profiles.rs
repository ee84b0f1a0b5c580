//! The eight named workloads of Table II as generator presets.

use crate::synth::SynthConfig;
use crate::trace::Trace;

/// One of the paper's evaluation workloads (Table II), reproduced as a
/// synthetic generator preset with the published read ratio and cold-read
/// ratio.
///
/// # Example
///
/// ```
/// use rif_workloads::WorkloadProfile;
///
/// let ali124 = WorkloadProfile::by_name("Ali124").unwrap();
/// assert_eq!(ali124.read_ratio, 0.96);
/// let trace = ali124.generate(1000, 1);
/// assert_eq!(trace.len(), 1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Trace name as used in the paper's figures.
    pub name: &'static str,
    /// Fraction of requests that are reads (Table II).
    pub read_ratio: f64,
    /// Fraction of reads that target never-updated pages (Table II).
    pub cold_read_ratio: f64,
}

/// Table II, verbatim.
pub const PAPER_WORKLOADS: [WorkloadProfile; 8] = [
    WorkloadProfile {
        name: "Ali2",
        read_ratio: 0.27,
        cold_read_ratio: 0.50,
    },
    WorkloadProfile {
        name: "Ali46",
        read_ratio: 0.34,
        cold_read_ratio: 0.75,
    },
    WorkloadProfile {
        name: "Ali81",
        read_ratio: 0.43,
        cold_read_ratio: 0.74,
    },
    WorkloadProfile {
        name: "Ali121",
        read_ratio: 0.92,
        cold_read_ratio: 0.70,
    },
    WorkloadProfile {
        name: "Ali124",
        read_ratio: 0.96,
        cold_read_ratio: 0.79,
    },
    WorkloadProfile {
        name: "Ali295",
        read_ratio: 0.42,
        cold_read_ratio: 0.73,
    },
    WorkloadProfile {
        name: "Sys0",
        read_ratio: 0.70,
        cold_read_ratio: 0.82,
    },
    WorkloadProfile {
        name: "Sys1",
        read_ratio: 0.72,
        cold_read_ratio: 0.83,
    },
];

impl WorkloadProfile {
    /// Looks a profile up by its paper name (case-sensitive).
    pub fn by_name(name: &str) -> Option<WorkloadProfile> {
        PAPER_WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The profile with the highest read ratio, `None` for an empty
    /// slice. Uses a total order in which a NaN ratio (e.g. from a
    /// hand-built profile) loses to every real number, instead of
    /// panicking the comparison the way `partial_cmp().unwrap()` did.
    pub fn most_read_intensive(profiles: &[WorkloadProfile]) -> Option<WorkloadProfile> {
        fn key(w: &WorkloadProfile) -> f64 {
            if w.read_ratio.is_nan() {
                f64::NEG_INFINITY
            } else {
                w.read_ratio
            }
        }
        profiles
            .iter()
            .copied()
            .max_by(|a, b| key(a).total_cmp(&key(b)))
    }

    /// The generator configuration for this profile.
    pub fn config(&self) -> SynthConfig {
        SynthConfig {
            read_ratio: self.read_ratio,
            cold_read_ratio: self.cold_read_ratio,
            ..SynthConfig::default()
        }
    }

    /// Generates `n_requests` requests of this workload.
    pub fn generate(&self, n_requests: usize, seed: u64) -> Trace {
        // Mix the profile name into the seed so different workloads draw
        // independent streams even with the same user seed.
        let salt = self
            .name
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
        self.config().generate(n_requests, seed ^ salt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn table2_is_complete() {
        assert_eq!(PAPER_WORKLOADS.len(), 8);
        let names: Vec<&str> = PAPER_WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            ["Ali2", "Ali46", "Ali81", "Ali121", "Ali124", "Ali295", "Sys0", "Sys1"]
        );
    }

    #[test]
    fn by_name_round_trips() {
        for w in PAPER_WORKLOADS {
            assert_eq!(WorkloadProfile::by_name(w.name), Some(w));
        }
        assert_eq!(WorkloadProfile::by_name("nope"), None);
    }

    #[test]
    fn ali124_is_most_read_intensive() {
        // §III-B: "the most read-intensive workload Ali124".
        let max = WorkloadProfile::most_read_intensive(&PAPER_WORKLOADS).unwrap();
        assert_eq!(max.name, "Ali124");
    }

    #[test]
    fn most_read_intensive_survives_nan_and_empty() {
        // Regression: the old partial_cmp().unwrap() panicked on NaN.
        let with_nan = [
            WorkloadProfile {
                name: "broken",
                read_ratio: f64::NAN,
                cold_read_ratio: 0.5,
            },
            WorkloadProfile::by_name("Ali2").unwrap(),
        ];
        let max = WorkloadProfile::most_read_intensive(&with_nan).unwrap();
        assert_eq!(max.name, "Ali2", "NaN must lose to any real ratio");
        assert_eq!(WorkloadProfile::most_read_intensive(&[]), None);
        // All-NaN input still yields an answer rather than panicking.
        let all_nan = [with_nan[0]];
        assert_eq!(
            WorkloadProfile::most_read_intensive(&all_nan).unwrap().name,
            "broken"
        );
    }

    #[test]
    fn generated_traces_match_table2() {
        for w in PAPER_WORKLOADS {
            let t = w.generate(3000, 5);
            let s = TraceStats::compute(&t);
            assert!(
                (s.read_ratio - w.read_ratio).abs() < 0.05,
                "{}: read ratio {} vs {}",
                w.name,
                s.read_ratio,
                w.read_ratio
            );
            assert!(
                (s.cold_read_ratio - w.cold_read_ratio).abs() < 0.06,
                "{}: cold ratio {} vs {}",
                w.name,
                s.cold_read_ratio,
                w.cold_read_ratio
            );
        }
    }

    #[test]
    fn different_workloads_different_streams() {
        let a = WorkloadProfile::by_name("Sys0").unwrap().generate(50, 1);
        let b = WorkloadProfile::by_name("Sys1").unwrap().generate(50, 1);
        assert_ne!(a.requests(), b.requests());
    }
}
