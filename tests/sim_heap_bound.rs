//! `Simulator::run` keeps what the device state and the queue depth need,
//! not the trace: a request waits in the borrowed trace until it is
//! admitted, so doubling a saturating trace adds only the state of the
//! slots its extra requests touch.
//!
//! The binary counts every heap byte through its own global allocator and
//! holds one test, so nothing else allocates while a run is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use rif::ssd::hybrid::HybridConfig;
use rif::ssd::{RetryKind, Simulator, SsdConfig};
use rif::workloads::profiles::PAPER_WORKLOADS;
use rif::workloads::Trace;

/// The system allocator, counting the bytes live and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// A Table II profile at a 3-µs mean inter-arrival: about 21 GB/s
/// offered against an 8 GB/s host link, so nearly the whole trace has
/// arrived long before it is admitted.
fn saturating_trace(profile: usize, n: usize) -> Trace {
    let mut cfg = PAPER_WORKLOADS[profile].config();
    cfg.mean_interarrival_ns = 3_000.0;
    cfg.generate(n, 1 ^ profile as u64)
}

/// Peak heap bytes above the level before the run, over one
/// `Simulator::run` of `trace` (built, not measured: the trace is the
/// caller's).
fn run_peak(cfg: &SsdConfig, trace: &Trace) -> usize {
    let sim = Simulator::new(cfg.clone());
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let report = sim.run(trace);
    let peak = PEAK.load(Relaxed) - base;
    assert_eq!(report.completed_requests, trace.len() as u64);
    peak
}

/// Most heap bytes a plain device's run may add per request when its
/// trace doubles from 40k to 80k requests. A request waiting for
/// admission costs nothing; what grows is the state of the extra slots
/// the longer trace touches, in 4096-entry table leaves: 6.6-10.3 B per
/// request over the eight Table II profiles, where a run that gave every
/// request a table slot and an arrival event up front took 137-141 B (and
/// peaked at 16.4 MB for 80k requests, against 5.8-6.1 MB now).
const PLAIN_BYTES_PER_REQUEST: f64 = 16.0;

/// The same for the hybrid SLC/QLC device, whose FTL keeps real state for
/// each written slot (its cache fifo and the refresh scan's touched-slot
/// list): 7.3-22.1 B per request over the eight profiles, 138-152 B with
/// every request held up front.
const HYBRID_BYTES_PER_REQUEST: f64 = 32.0;

/// Two profiles of the eight, the ones whose hybrid slope is steepest in
/// their family, to keep the debug build's run short.
const PROFILES: [&str; 2] = ["Ali46", "Sys1"];

#[test]
fn run_heap_grows_with_device_state_not_with_the_trace() {
    const N: usize = 40_000;
    let plain = SsdConfig::paper(RetryKind::Rif, 2000);
    let mut hybrid = plain.clone();
    hybrid.hybrid = Some(HybridConfig::slc_qlc());
    let devices = [
        ("plain", &plain, PLAIN_BYTES_PER_REQUEST),
        ("hybrid", &hybrid, HYBRID_BYTES_PER_REQUEST),
    ];
    for (profile, workload) in PAPER_WORKLOADS.iter().enumerate() {
        if !PROFILES.contains(&workload.name) {
            continue;
        }
        let (half, full) = (
            saturating_trace(profile, N),
            saturating_trace(profile, 2 * N),
        );
        for (device, cfg, bound) in devices {
            let (a, b) = (run_peak(cfg, &half), run_peak(cfg, &full));
            let slope = b.saturating_sub(a) as f64 / N as f64;
            eprintln!(
                "{} {device}: {a} -> {b} B, {slope:.1} B per added request",
                workload.name
            );
            assert!(
                slope <= bound,
                "{} on the {device} device: the run's peak heap grew by {slope:.1} B per \
                 added request ({a} -> {b} B), over {bound} B",
                workload.name
            );
        }
    }
}
