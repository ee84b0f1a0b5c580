//! A min-sum decoder holds its kernel's plan, not the Tanner graph's
//! per-edge lists: only the reference decoder walks those, and it builds
//! them for each call. A hard decode adds the per-thread kernel scratch,
//! reused by every later decode on the thread.
//!
//! The binary counts every heap byte through its own global allocator and
//! holds one test, so nothing else allocates while a step is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use rif::events::SimRng;
use rif::ldpc::bits::BitVec;
use rif::ldpc::channel::Bsc;
use rif::ldpc::decoder::MinSumDecoder;
use rif::ldpc::QcLdpcCode;

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

/// Peak heap bytes above the level before `step`, and the bytes it left
/// live.
fn measure<T>(step: impl FnOnce() -> T) -> (T, usize, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = step();
    let peak = PEAK.load(Relaxed) - base;
    let kept = LIVE.load(Relaxed).saturating_sub(base);
    (out, peak, kept)
}

/// Most heap bytes building a decoder for the paper's 36,864-bit code may
/// take at its peak. The plan (block rows, kernel blocks, block columns:
/// 4 + 4 + 36 small vectors) is about 13 KB; with the per-edge lists a
/// decoder also held, the build peaked at 1.60 MB and kept 1.30 MB.
const PLAN_BYTES: usize = 64 << 10;

/// Most heap bytes one hard decode on the paper code may add at its peak:
/// the per-thread kernel scratch (padded message slabs, totals, packed
/// planes) plus the outcome's word, 1.38 MB.
const DECODE_BYTES: usize = 1_400_000;

#[test]
fn a_decoder_holds_its_plan_and_a_decode_its_scratch() {
    let code = QcLdpcCode::paper();
    let (dec, peak, kept) = measure(|| MinSumDecoder::new(&code));
    eprintln!("MinSumDecoder::new(paper): peak {peak} B, kept {kept} B");
    assert!(
        peak <= PLAN_BYTES,
        "building the paper code's decoder peaked at {peak} B, over {PLAN_BYTES} B"
    );

    // An RBER past the waterfall, so the decode runs every iteration of
    // the float kernel up to its cap.
    let mut rng = SimRng::seed_from(61);
    let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
    let noisy = Bsc::new(0.012).corrupt(&cw, &mut rng);
    let (out, peak, _) = measure(|| dec.decode(&noisy));
    eprintln!(
        "first hard decode: peak {peak} B ({} iterations, success {})",
        out.iterations, out.success
    );
    assert!(
        out.iterations > 2,
        "the decode must reach the float kernel: {} iterations",
        out.iterations
    );
    assert!(
        peak <= DECODE_BYTES,
        "one hard decode on the paper code peaked at {peak} B, over {DECODE_BYTES} B"
    );
}
