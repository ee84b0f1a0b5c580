//! Host fingerprint, the noise canary, and process-level counters read
//! from `/proc`.

use std::time::Instant;

use crate::json;

/// What ran the numbers. Printed with every output so two result sets
/// are only compared when they came from like hosts.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub avx2: bool,
    pub rustc: &'static str,
    pub git_rev: String,
}

impl Fingerprint {
    pub fn collect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        // The driver's checkout is not a git repository; "unknown" there.
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            avx2,
            rustc: env!("RIF_PERF_RUSTC"),
            git_rev,
        }
    }

    /// The fingerprint's fields as the inside of a JSON object.
    pub fn json_fields(&self) -> String {
        let mut s = format!("\"nproc\":{},\"cpu_model\":", self.nproc);
        json::push_str(&mut s, &self.cpu_model);
        s.push_str(&format!(",\"avx2\":{},\"rustc\":", self.avx2));
        json::push_str(&mut s, self.rustc);
        s.push_str(",\"git_rev\":");
        json::push_str(&mut s, &self.git_rev);
        s
    }
}

/// The noise canary: a fixed dependent-integer loop (xorshift, so no
/// iteration can start before the previous one ends and nothing
/// vectorizes), reported in millions of iterations per second. It runs
/// before and after a measurement; a host that slowed down in between
/// shows as two different readings.
pub fn calib_mops(iters: u64) -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    iters as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Iterations that take about a second on the reference box (the suite
/// canary) and about a quarter of one (the per-workload canary).
pub const CALIB_ITERS_SUITE: u64 = 900_000_000;
pub const CALIB_ITERS_RUN: u64 = 225_000_000;

/// Canary speed of the box the frozen request counts were sized on.
/// Host-time end-to-end metrics are reported as if the host ran at this
/// speed; see [`SpeedProbe`].
pub const REF_MOPS: f64 = 550.0;

/// Iterations of one probe slice (≈ 1.8 ms on the reference box).
const PROBE_ITERS: u64 = 1_000_000;

/// Tracks the host's speed through a run with canary slices taken
/// between units of measured work.
///
/// The reference box is a shared 2-vCPU VM whose clock moves between
/// regimes a third apart (canary 490–680 Mops), each lasting seconds to
/// minutes; steal time stays near zero, so it is frequency or sibling
/// contention, and it scales everything alike: over 1-s windows the
/// simulator's requests per second divided by the canary's Mops stays
/// within ±2.5 % while either alone moves 25 %. A measured time times
/// `factor` is what it would have been at [`REF_MOPS`]. Raw values are
/// reported beside the normalized ones.
#[derive(Debug)]
pub struct SpeedProbe {
    epoch: Instant,
    /// `(ns since epoch, Mops)` per slice, in time order.
    samples: Vec<(u64, f64)>,
}

/// Slices this far outside a unit of work still describe it.
const PROBE_WINDOW_NS: u64 = 300_000_000;

impl SpeedProbe {
    pub fn new(epoch: Instant) -> Self {
        SpeedProbe {
            epoch,
            samples: Vec::new(),
        }
    }

    /// Nanoseconds on the probe's clock.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs three canary slices now (≈ 5 ms): a single slice is itself
    /// noisy at the ±5 % level.
    pub fn sample(&mut self) {
        for _ in 0..3 {
            let mops = calib_mops(PROBE_ITERS);
            self.samples.push((self.now_ns(), mops));
        }
    }

    /// Host speed around `[start_ns, end_ns]` relative to the reference:
    /// the median of the slices within 0.3 s of the interval, or of the
    /// three nearest when fewer fall there. 1 when nothing was sampled.
    pub fn factor(&self, start_ns: u64, end_ns: u64) -> f64 {
        let lo = start_ns.saturating_sub(PROBE_WINDOW_NS);
        let hi = end_ns + PROBE_WINDOW_NS;
        let mut near: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| (lo..=hi).contains(&s.0))
            .map(|s| s.1)
            .collect();
        if near.len() < 3 {
            let mid = start_ns / 2 + end_ns / 2;
            let mut by_distance: Vec<(u64, f64)> = self
                .samples
                .iter()
                .map(|s| (s.0.abs_diff(mid), s.1))
                .collect();
            by_distance.sort_by_key(|s| s.0);
            near = by_distance.iter().take(3).map(|s| s.1).collect();
        }
        if near.is_empty() {
            1.0
        } else {
            crate::stats::median(&near) / REF_MOPS
        }
    }
}

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Keeps the calling thread, and every thread it spawns while the guard
/// lives, on one CPU; dropping the guard restores the thread's old mask.
///
/// `serve_node` runs under it. Left to the scheduler, its four busy
/// threads see the VM's two vCPUs as sometimes two and sometimes one,
/// and its medians come out as a mixture of two modes a tenth apart. On
/// one CPU there is one mode.
pub struct PinGuard {
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    previous: CpuSet,
}

impl PinGuard {
    /// Pins to the highest-numbered CPU the thread may run on (the
    /// lowest usually takes the interrupts). `None` where affinity cannot
    /// be read or set; the run then goes ahead unpinned.
    pub fn pin_to_one_cpu() -> Option<PinGuard> {
        #[cfg(target_os = "linux")]
        {
            let mut previous: CpuSet = [0; 16];
            // SAFETY: `previous` is a live, writable 128-byte buffer and
            // that size is passed; pid 0 names the calling thread.
            if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut previous) } != 0 {
                return None;
            }
            let word = previous.iter().rposition(|w| *w != 0)?;
            let mut one: CpuSet = [0; 16];
            one[word] = 1 << (63 - previous[word].leading_zeros());
            // SAFETY: `one` is a live 128-byte buffer and that size is
            // passed; the kernel only reads it.
            if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
                return None;
            }
            Some(PinGuard { previous })
        }
        #[cfg(not(target_os = "linux"))]
        None
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        // SAFETY: as above; a failure leaves the thread pinned, which
        // only matters to whatever this process measures next.
        #[cfg(target_os = "linux")]
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.previous);
        }
    }
}

/// True when two canary readings differ by more than a tenth.
pub fn noisy(before: f64, after: f64) -> bool {
    (before - after).abs() > 0.1 * before.max(after)
}

/// Peak resident set of this process (`VmHWM`), in MB (10^6 bytes); 0
/// where `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Nanoseconds a task has spent on a CPU: the first field of its
/// `schedstat`.
fn schedstat_ns(path: &str) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_secs() -> f64 {
    schedstat_ns("/proc/thread-self/schedstat").map_or(0.0, |ns| ns as f64 / 1e9)
}

/// CPU seconds every live thread of this process has used. Threads that
/// exited are gone from the sum, so take differences only across spans
/// in which none does.
pub fn live_threads_cpu_secs() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter_map(|t| schedstat_ns(&format!("{}/schedstat", t.path().display())))
        .sum::<u64>() as f64
        / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canary_flags_only_large_differences() {
        assert!(!noisy(100.0, 95.0));
        assert!(!noisy(95.0, 100.0));
        assert!(noisy(100.0, 85.0));
        assert!(noisy(85.0, 100.0));
    }

    #[test]
    fn probe_factor_uses_the_slices_around_the_interval() {
        let mut p = SpeedProbe::new(Instant::now());
        assert_eq!(p.factor(0, 1_000), 1.0);
        let s = 1_000_000_000u64;
        // A slow regime for two seconds, then a fast one.
        p.samples = vec![
            (0, 500.0),
            (s / 2, 505.0),
            (s, 495.0),
            (2 * s, 500.0),
            (3 * s, 660.0),
            (3 * s + s / 2, 670.0),
            (4 * s, 650.0),
        ];
        assert_eq!(p.factor(s / 4, 3 * s / 4), 500.0 / REF_MOPS);
        assert_eq!(p.factor(3 * s + s / 10, 4 * s - s / 10), 660.0 / REF_MOPS);
        // Nothing within the window: the three nearest slices decide.
        assert_eq!(p.factor(10 * s, 11 * s), 660.0 / REF_MOPS);
        p.sample();
        assert_eq!(p.samples.len(), 10);
    }

    #[test]
    fn pin_guard_narrows_the_mask_and_restores_it() {
        let mask = || {
            let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
            let line = status
                .lines()
                .find(|l| l.starts_with("Cpus_allowed:"))
                .unwrap();
            line.split_whitespace().nth(1).unwrap().to_string()
        };
        let before = mask();
        if let Some(guard) = PinGuard::pin_to_one_cpu() {
            let pinned = u64::from_str_radix(&mask().replace(',', ""), 16).unwrap();
            assert_eq!(pinned.count_ones(), 1);
            // Threads spawned under the guard inherit the one CPU.
            let child = std::thread::spawn(mask).join().unwrap();
            assert_eq!(
                u64::from_str_radix(&child.replace(',', ""), 16).unwrap(),
                pinned
            );
            drop(guard);
        }
        assert_eq!(mask(), before);
    }

    #[test]
    fn calibration_and_proc_counters_read_something() {
        assert!(calib_mops(1_000_000) > 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(live_threads_cpu_secs() >= thread_cpu_secs());
        let fp = Fingerprint::collect();
        assert!(fp.nproc >= 1);
        assert!(json::parse(&format!("{{{}}}", fp.json_fields())).is_ok());
    }
}
