//! `ecc_bit_true` — the bit-true RiF read on the paper's 36 864-bit
//! code, single thread.
//!
//! Each page (four codewords) is read at an operating point below, at or
//! above the 0.0085 capability on a sampled block:
//! `OdearEngine::read_page` → un-rearrange → `MinSumDecoder::decode`.
//! `rif-ldpc` decode dominates, then `rif-odear` RP/RVS and BSC sensing;
//! the simulator and the serving stack do nothing.

use std::time::Instant;

use rif_events::SimRng;
use rif_flash::{BlockProfile, ErrorModel, OperatingPoint, PageKind};
use rif_ldpc::bits::BitVec;
use rif_ldpc::channel::Bsc;
use rif_ldpc::decoder::MinSumDecoder;
use rif_ldpc::QcLdpcCode;
use rif_odear::OdearEngine;

use super::{repeat_setup, Ctx, Report};
use crate::{micro, stats};

/// Pages read per second of timed section, frozen on the reference box.
const PAGES_PER_SEC: f64 = 105.0;
/// Distinct programmed pages; reads cycle over them with fresh noise.
const CORPUS_PAGES: usize = 32;
const CHUNKS_PER_PAGE: usize = 4;
/// A host-speed slice every this many pages (≈ 80 ms).
const PROBE_EVERY: usize = 16;
/// Seed of the block population, deliberately not the run's.
const BLOCK_SEED: u64 = 0xB10C;
/// Pages in one round: every operating point × page kind once.
const ROUND: usize = OPERATING_POINTS.len() * 3;

/// `(P/E cycles, retention days)`: per wear stage, a read well below the
/// capability, just below it, at it, and well above it (median block,
/// CSB page: RBER ≈ 0.003 / 0.0075 / 0.009 / 0.018).
const OPERATING_POINTS: [(u32, f64); 12] = [
    (0, 6.0),
    (0, 15.0),
    (0, 18.0),
    (0, 26.0),
    (1000, 3.0),
    (1000, 7.0),
    (1000, 8.0),
    (1000, 13.0),
    (2000, 2.0),
    (2000, 4.7),
    (2000, 5.4),
    (2000, 9.0),
];

struct Read {
    page: usize,
    op: OperatingPoint,
    block: BlockProfile,
    kind: PageKind,
}

struct Ready {
    engine: OdearEngine,
    decoder: MinSumDecoder,
    model: ErrorModel,
    corpus: Vec<Vec<BitVec>>,
    plan: Vec<Read>,
    rng: SimRng,
}

/// What one page read produced.
struct PageOutcome {
    host_us: f64,
    die_us: f64,
    retried: bool,
    /// Every transferred chunk decoded.
    decoded: bool,
    /// A chunk "decoded" to something other than what was programmed.
    wrong: bool,
    /// RP's first-sense verdict disagreed with the decoder on that sense.
    mispredicted: bool,
    /// The benchmark's own first sense matched what the engine transferred
    /// (checkable only when the engine did not retry).
    sense_in_sync: bool,
}

fn setup(pages: usize, seed: u64) -> Ready {
    let code = QcLdpcCode::paper();
    let decoder = MinSumDecoder::new(&code);
    let model = ErrorModel::calibrated();
    let engine = OdearEngine::new(code, model.clone());
    let mut rng = SimRng::seed_from(seed);
    let corpus: Vec<Vec<BitVec>> = (0..CORPUS_PAGES)
        .map(|_| {
            (0..CHUNKS_PER_PAGE)
                .map(|_| {
                    let data = BitVec::random(engine.code().data_bits(), &mut rng);
                    engine.code().encode(&data)
                })
                .collect()
        })
        .collect();
    // Rounds of every (operating point, page kind) pair once, each round
    // in its own seeded order: the seed moves blocks, data and noise, not
    // the mix of cheap and expensive reads (which would otherwise move
    // pages per second by a tenth between seeds), and every round is the
    // same amount of work, so rounds can be compared.
    let mut order: Vec<usize> = (0..pages).map(|i| i % ROUND).collect();
    for round in order.chunks_mut(ROUND) {
        for i in (1..round.len()).rev() {
            round.swap(i, rng.index(i + 1));
        }
    }
    // The blocks are the same ROUND draws from the process-variation
    // distribution whatever the seed, met by the (point, kind) pairs in
    // Latin-square order: whether a weak block sits at the capability or
    // a strong one decides how long the decoder runs, and left to the
    // seed that pairing alone moves pages per second by several percent.
    let mut block_rng = SimRng::seed_from(BLOCK_SEED);
    let blocks: Vec<BlockProfile> = (0..ROUND)
        .map(|_| BlockProfile::sample(&mut block_rng))
        .collect();
    let plan: Vec<Read> = order
        .iter()
        .enumerate()
        .map(|(i, &combo)| {
            let (pe, days) = OPERATING_POINTS[combo / PageKind::ALL.len()];
            Read {
                page: i % CORPUS_PAGES,
                op: OperatingPoint::new(pe, days),
                block: blocks[(combo + i / ROUND) % ROUND],
                kind: PageKind::ALL[combo % PageKind::ALL.len()],
            }
        })
        .collect();
    let mut ready = Ready {
        engine,
        decoder,
        model,
        corpus,
        plan,
        rng,
    };
    // Warm-up: one untimed pass over 5 % of the plan.
    let mut spans = crate::span::Spans::new(false);
    for i in 0..(pages / 20).max(1) {
        std::hint::black_box(read_one(&mut ready, &mut spans, i).host_us);
    }
    ready
}

/// One timed page read plus its untimed verdict check.
fn read_one(s: &mut Ready, spans: &mut crate::span::Spans, i: usize) -> PageOutcome {
    let read = &s.plan[i];
    let page = &s.corpus[read.page];
    let code = s.engine.code();
    // The engine draws its first sense from the generator's next values;
    // a clone replays them so the benchmark can judge RP's verdict even
    // when the engine retried and kept the first sense to itself.
    let mut replay = s.rng.clone();

    let page_span = spans.begin("ecc.page", i as u64);
    let start = Instant::now();
    let out = spans.time("odear.read_page", i as u64, || {
        s.engine
            .read_page(page, read.op, read.block, read.kind, &mut s.rng)
    });
    let mut decoded = true;
    let mut wrong = false;
    for (chunk, clean) in out.transferred.iter().zip(page) {
        let restored = spans.time("ldpc.restore", i as u64, || code.restore(chunk));
        let res = spans.time("ldpc.decode", i as u64, || s.decoder.decode(&restored));
        if res.success {
            wrong |= res.decoded != *clean || !code.check(&res.decoded);
        } else {
            decoded = false;
        }
    }
    let host_us = start.elapsed().as_secs_f64() * 1e6;
    spans.end(page_span);

    // Untimed: the real decoder's outcome on the first sense.
    let rber = s
        .model
        .rber_default(read.block, read.op, read.kind)
        .min(0.5);
    let bsc = Bsc::new(rber);
    let first: Vec<BitVec> = page
        .iter()
        .map(|cw| bsc.corrupt(&code.rearrange(cw), &mut replay))
        .collect();
    let (first_decodes, sense_in_sync) = if out.retried {
        let ok = first
            .iter()
            .all(|chunk| s.decoder.decode(&code.restore(chunk)).success);
        (ok, true)
    } else {
        (decoded, first == out.transferred)
    };
    PageOutcome {
        host_us,
        die_us: out.die_time.as_us(),
        retried: out.retried,
        decoded,
        wrong,
        mispredicted: out.prediction.retry_needed == first_decodes,
        sense_in_sync,
    }
}

pub fn run(ctx: &mut Ctx) -> Report {
    let mut r = Report::default();
    let pages = ctx.scaled(PAGES_PER_SEC);
    let seed = ctx.seed;
    let setup_span = ctx.spans.begin("setup", 0);
    let (mut ready, setup_s) =
        repeat_setup(ctx.setups, &mut ctx.speed, || setup(pages, seed), drop);
    ctx.spans.end(setup_span);

    let timed = ctx.spans.begin("timed", 0);
    let mut windows = Vec::with_capacity(pages);
    let outcomes: Vec<PageOutcome> = (0..pages)
        .map(|i| {
            if i % PROBE_EVERY == 0 {
                ctx.speed.sample();
            }
            let start_ns = ctx.speed.now_ns();
            let outcome = read_one(&mut ready, &mut ctx.spans, i);
            windows.push((start_ns, start_ns + (outcome.host_us * 1e3) as u64));
            outcome
        })
        .collect();
    ctx.speed.sample();
    ctx.spans.end(timed);

    let n = pages as f64;
    let host_us: Vec<f64> = outcomes.iter().map(|o| o.host_us).collect();
    // Each page's time as it would have been at reference host speed.
    let ref_us: Vec<f64> = outcomes
        .iter()
        .zip(&windows)
        .map(|(o, w)| o.host_us * ctx.speed.factor(w.0, w.1))
        .collect();
    let count = |f: fn(&PageOutcome) -> bool| outcomes.iter().filter(|o| f(o)).count() as f64;
    r.attempted = pages as u64;
    r.failed = count(|o| o.wrong) as u64;
    r.check(r.failed == 0, || {
        "a successful decode returned data other than what was programmed".into()
    });
    r.check(outcomes.iter().all(|o| o.sense_in_sync), || {
        "the replayed first sense differs from what the engine transferred: \
         OdearEngine::read_page no longer draws its sense first"
            .into()
    });

    // The median round, not the sum: a stall of the VM lands in a few
    // rounds and leaves the median alone.
    let round_us: Vec<f64> = ref_us
        .chunks_exact(ROUND)
        .map(|round| round.iter().sum::<f64>() / ROUND as f64)
        .collect();
    let typical_page_us = if round_us.is_empty() {
        ref_us.iter().sum::<f64>() / n
    } else {
        stats::median(&round_us)
    };
    r.set("work_per_s", 1e6 / typical_page_us);
    r.set("ecc_pages_per_s", n / (host_us.iter().sum::<f64>() / 1e6));
    r.set("lat_us", typical_page_us);
    r.set(
        "sim_lat_us",
        outcomes.iter().map(|o| o.die_us).sum::<f64>() / n,
    );
    r.set("rp_mispredict_share", count(|o| o.mispredicted) / n);
    r.set("odear.rp.retry_share", count(|o| o.retried) / n);
    r.set("odear.uncor_transfer_share", count(|o| !o.decoded) / n);

    if ctx.trace {
        let totals = ctx.spans.totals();
        let read_page = totals.get("odear.read_page").copied().unwrap_or_default();
        r.set(
            "odear.read_page.ms_per_page",
            read_page.total_ns as f64 / 1e6 / read_page.count.max(1) as f64,
        );
        let clean: Vec<BitVec> = ready.corpus.iter().take(8).flatten().cloned().collect();
        micro::ldpc_odear(
            &mut r,
            ctx.micro_window(),
            &ready.engine,
            &ready.decoder,
            &clean,
            seed,
        );
    }
    r.finish(setup_s);
    r
}
