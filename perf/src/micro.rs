//! Microcells: one layer's public function in a tight loop, run only in
//! the traced pass. Each reports a rate under the layer's name
//! (`crate.module...`), so a kernel change can be told apart from a
//! change in the code that calls it.

use std::time::Duration;

use rif_cluster::stats::NodeStats;
use rif_cluster::{NodeInfo, ShardMap};
use rif_events::trace::JsonlSink;
use rif_events::{EventQueue, LatencyHistogram, SimDuration, SimRng, SimTime, TraceSink};
use rif_flash::learn::{LearnerConfig, ReadOutcome, ThresholdLearner};
use rif_flash::rber::BlockErrorTable;
use rif_flash::{BlockProfile, ErrorModel, OperatingPoint, PageKind};
use rif_ldpc::bits::BitVec;
use rif_ldpc::channel::Bsc;
use rif_ldpc::decoder::MinSumDecoder;
use rif_ldpc::QcLdpcCode;
use rif_odear::OdearEngine;
use rif_server::bucket::TokenBucket;
use rif_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, write_frame, BatchEntry,
    FrameBuffer, Request, Response,
};
use rif_workloads::capture::{Capture, CaptureOutcome, CapturedRequest};
use rif_workloads::{IoOp, WorkloadProfile};

use crate::workloads::{rate, Report};

/// Calls of `f` per second, one call per item per pass over `items`.
fn per_s<T>(window: Duration, items: &[T], mut f: impl FnMut(&T)) -> f64 {
    rate(window, || {
        items.iter().for_each(&mut f);
        items.len() as u64
    })
}

/// RBER points of the decode microcells: comfortably correctable, at
/// the 0.0085 capability, mostly failing.
const DECODE_POINTS: [(&str, f64); 3] = [
    ("rber0040", 0.004),
    ("rber0085", 0.0085),
    ("rber0120", 0.012),
];

/// `rif-ldpc` and `rif-odear` kernels on the paper code.
pub fn ldpc_odear(
    r: &mut Report,
    window: Duration,
    engine: &OdearEngine,
    decoder: &MinSumDecoder,
    clean: &[BitVec],
    seed: u64,
) {
    let code: &QcLdpcCode = engine.code();
    let mut rng = SimRng::seed_from(seed ^ 0x1D9C);

    for (label, rber) in DECODE_POINTS {
        let bsc = Bsc::new(rber);
        let noisy: Vec<BitVec> = clean.iter().map(|cw| bsc.corrupt(cw, &mut rng)).collect();
        let (mut iters, mut fails, mut decoded) = (0u64, 0u64, 0u64);
        let cw_per_s = per_s(window, &noisy, |w| {
            let out = decoder.decode(std::hint::black_box(w));
            iters += out.iterations as u64;
            fails += !out.success as u64;
            decoded += 1;
        });
        r.set(format!("ldpc.decode.cw_per_s.{label}"), cw_per_s);
        r.set(
            format!("ldpc.decode.mean_iters.{label}"),
            iters as f64 / decoded as f64,
        );
        r.set(
            format!("ldpc.decode.fail_share.{label}"),
            fails as f64 / decoded as f64,
        );
    }

    let data: Vec<BitVec> = (0..clean.len())
        .map(|_| BitVec::random(code.data_bits(), &mut rng))
        .collect();
    r.set(
        "ldpc.encode.cw_per_s",
        per_s(window, &data, |d| {
            std::hint::black_box(code.encode(d));
        }),
    );
    let bsc = Bsc::new(0.0085);
    let words_per_s = per_s(window, clean, |cw| {
        std::hint::black_box(bsc.corrupt(cw, &mut rng));
    });
    r.set(
        "ldpc.bsc.corrupt_mbit_per_s",
        words_per_s * code.n() as f64 / 1e6,
    );

    let noisy: Vec<BitVec> = clean.iter().map(|cw| bsc.corrupt(cw, &mut rng)).collect();
    r.set(
        "ldpc.syndrome_weight.cw_per_s",
        per_s(window, &noisy, |w| {
            std::hint::black_box(code.syndrome_weight(w));
        }),
    );
    r.set(
        "ldpc.pruned_syndrome_weight.cw_per_s",
        per_s(window, &noisy, |w| {
            std::hint::black_box(code.pruned_syndrome_weight(w));
        }),
    );

    // RP sees pages in the rearranged on-flash layout.
    let pages: Vec<Vec<BitVec>> = noisy
        .chunks_exact(4)
        .map(|p| p.iter().map(|cw| code.rearrange(cw)).collect())
        .collect();
    r.set(
        "odear.rp.predict_page.pages_per_s",
        per_s(window, &pages, |p| {
            std::hint::black_box(engine.rp().predict_page(p));
        }),
    );
    let rvs = rif_odear::ReadVoltageSelector::new(ErrorModel::calibrated().tlc().clone());
    let op = OperatingPoint::new(2000, 20.0);
    r.set(
        "odear.rvs.select.per_s",
        rate(window, || {
            for _ in 0..64 {
                std::hint::black_box(rvs.select(op, 1.0, PageKind::Csb, &mut rng));
            }
            64
        }),
    );
}

/// `rif-flash` look-ups the simulator does per page group.
pub fn flash(r: &mut Report, window: Duration, learner_too: bool) {
    let model = ErrorModel::calibrated();
    let table = BlockErrorTable::build(&model, BlockProfile::median(), 2000, 60.0, 0.5);
    let mut day = 0.0f64;
    r.set(
        "flash.rber_table.lookup_mops",
        rate(window, || {
            for i in 0..4096u32 {
                day = (day + 0.37) % 60.0;
                let kind = PageKind::ALL[i as usize % 3];
                std::hint::black_box(table.rber_default(kind, day));
            }
            4096
        }) / 1e6,
    );
    let refs = model.tlc().default_refs();
    r.set(
        "flash.vth.rber_kops",
        rate(window, || {
            for i in 0..256u32 {
                let op = OperatingPoint::new(2000, (i % 30) as f64);
                let kind = PageKind::ALL[i as usize % 3];
                std::hint::black_box(model.tlc().rber(op, 1.0, &refs, kind));
            }
            256
        }) / 1e3,
    );
    if learner_too {
        let mut learner = ThresholdLearner::new(LearnerConfig::default_paper());
        let outcomes = [
            ReadOutcome::clean_pass(),
            ReadOutcome {
                failed: true,
                retries: 1,
                syndrome_frac: 1.2,
                recalibrated_offset: Some(-0.2),
            },
            ReadOutcome {
                failed: false,
                retries: 0,
                syndrome_frac: 0.8,
                recalibrated_offset: None,
            },
        ];
        r.set(
            "flash.learner.observe_mops",
            rate(window, || {
                for i in 0..4096u64 {
                    learner.observe(i % 1024, &outcomes[i as usize % 3]);
                }
                4096
            }) / 1e6,
        );
    }
}

/// The classic hold model: a queue kept at `depth` pending events, each
/// step popping the earliest and scheduling one a random distance ahead.
fn queue_hold_mops(window: Duration, depth: usize, rng: &mut SimRng) -> f64 {
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..depth {
        q.schedule(SimTime::from_ns(rng.int_range(1, 1_000_000)), i as u32);
    }
    rate(window, || {
        for _ in 0..4096 {
            let (now, ev) = q.pop().expect("hold model never drains");
            q.schedule(now + SimDuration::from_ns(rng.int_range(1, 1_000_000)), ev);
        }
        4096
    }) / 1e6
}

/// `rif-events` primitives under the simulator.
pub fn events(r: &mut Report, window: Duration, seed: u64) {
    let mut rng = SimRng::seed_from(seed ^ 0xE7E7);
    r.set(
        "events.queue.hold1k_mops",
        queue_hold_mops(window, 1 << 10, &mut rng),
    );
    r.set(
        "events.queue.hold64k_mops",
        queue_hold_mops(window, 1 << 16, &mut rng),
    );
    r.set(
        "events.rng.next_u64_mops",
        rate(window, || {
            let mut x = 0;
            for _ in 0..4096 {
                x ^= rng.next_u64();
            }
            std::hint::black_box(x);
            4096
        }) / 1e6,
    );
    let mut hist = LatencyHistogram::new();
    r.set(
        "events.histogram.observe_mops",
        rate(window, || {
            for i in 0..4096u64 {
                hist.record(SimDuration::from_ns(40_000 + i * 37));
            }
            4096
        }) / 1e6,
    );
    let mut sink = JsonlSink::new(std::io::sink());
    let mut id = 0u64;
    r.set(
        "events.trace.jsonl_krec_per_s",
        rate(window, || {
            for _ in 0..512 {
                id += 1;
                let t = SimTime::from_ns(id * 100);
                sink.span_begin(
                    t,
                    "sense",
                    id,
                    Some(1),
                    Some("die:3"),
                    Some(id),
                    Some(65536),
                );
                sink.span_end(t, id);
            }
            1024
        }) / 1e3,
    );
}

/// `rif-workloads` generation and capture parsing (both feed set-up).
pub fn workloads(r: &mut Report, window: Duration, seed: u64) {
    let cfg = WorkloadProfile::by_name("Ali124")
        .expect("table entry")
        .config();
    r.set(
        "workloads.synth.generate_kreq_per_s",
        rate(window, || {
            std::hint::black_box(cfg.generate(4096, seed));
            4096
        }) / 1e3,
    );
    let capture = Capture::new(
        (0..4096u64)
            .map(|i| CapturedRequest {
                t_us: i * 40,
                op: if i % 10 == 0 { IoOp::Write } else { IoOp::Read },
                offset: (i * 7919 % 65_536) * 16_384,
                bytes: 16_384,
                tenant: (i % 4) as u32,
                shard: (i % 2) as u32,
                outcome: CaptureOutcome::Done,
            })
            .collect(),
    );
    let csv = capture.to_csv();
    r.set(
        "workloads.capture.parse_csv_krec_per_s",
        rate(window, || {
            let parsed = Capture::parse_csv(&csv).expect("canonical CSV parses");
            std::hint::black_box(parsed.len()) as u64
        }) / 1e3,
    );
}

/// `rif-server` wire codec, framing and admission primitives.
pub fn server_codec(r: &mut Report, window: Duration) {
    let reqs: Vec<Request> = (0..256u64)
        .map(|i| Request::Read {
            tenant: 0,
            tag: i,
            offset: i * 16_384,
            bytes: 16_384,
        })
        .collect();
    let req_payloads: Vec<Vec<u8>> = reqs.iter().map(encode_request).collect();
    let resps: Vec<Response> = (0..256u64)
        .map(|i| Response::Done {
            tag: i,
            latency_ns: 90_000 + i,
        })
        .collect();
    let resp_payloads: Vec<Vec<u8>> = resps.iter().map(encode_response).collect();

    r.set(
        "server.codec.encode_request_mops",
        per_s(window, &reqs, |q| {
            std::hint::black_box(encode_request(q));
        }) / 1e6,
    );
    r.set(
        "server.codec.decode_request_mops",
        per_s(window, &req_payloads, |p| {
            std::hint::black_box(decode_request(p).expect("valid request"));
        }) / 1e6,
    );
    r.set(
        "server.codec.encode_response_mops",
        per_s(window, &resps, |s| {
            std::hint::black_box(encode_response(s));
        }) / 1e6,
    );
    r.set(
        "server.codec.decode_response_mops",
        per_s(window, &resp_payloads, |p| {
            std::hint::black_box(decode_response(p).expect("valid response"));
        }) / 1e6,
    );

    let batch = Request::Batch(
        (0..512u64)
            .map(|i| BatchEntry {
                op: IoOp::Read,
                tenant: 0,
                tag: i + 1,
                offset: i * 16_384,
                bytes: 16_384,
                retry_of: 0,
            })
            .collect(),
    );
    r.set(
        "server.codec.batch512_entries_mops",
        rate(window, || {
            let payload = encode_request(&batch);
            std::hint::black_box(decode_request(&payload).expect("valid batch"));
            512
        }) / 1e6,
    );

    let mut stream = Vec::new();
    for p in &resp_payloads {
        write_frame(&mut stream, p).expect("write to a Vec");
    }
    let mut frames = FrameBuffer::new();
    r.set(
        "server.framebuffer.frames_mops",
        rate(window, || {
            // Fed in socket-read-sized pieces, as `Conn::pump` does.
            let mut n = 0;
            for piece in stream.chunks(1500) {
                frames.feed(piece);
                while let Some(f) = frames.next_frame().expect("well-formed stream") {
                    std::hint::black_box(f);
                    n += 1;
                }
            }
            n
        }) / 1e6,
    );

    let mut bucket = TokenBucket::new(1e12, 1e12, 0.0);
    let mut now = 0.0;
    r.set(
        "server.bucket.take_mops",
        rate(window, || {
            for _ in 0..4096 {
                now += 1e-6;
                std::hint::black_box(bucket.admit(now));
            }
            4096
        }) / 1e6,
    );
}

/// `rif-cluster` map, codec and STATS merge.
pub fn cluster(r: &mut Report, window: Duration, stats_text: &str) {
    let nodes = |n: usize| -> Vec<NodeInfo> {
        (0..n)
            .map(|i| NodeInfo {
                id: format!("n{i}"),
                addr: format!("127.0.0.1:{}", 4000 + i),
            })
            .collect()
    };
    let map = ShardMap::replicated(7, 8 << 30, 64, nodes(4), 2).expect("valid map");
    let mut offset = 0u64;
    r.set(
        "cluster.map.route_mops",
        rate(window, || {
            for _ in 0..4096 {
                offset = (offset + 0x9E37_79B9) % (8 << 30);
                std::hint::black_box(map.route(offset));
            }
            4096
        }) / 1e6,
    );
    let text = map.to_text();
    r.set(
        "cluster.map.parse_text_per_s",
        rate(window, || {
            std::hint::black_box(ShardMap::parse_text(&text).expect("canonical text parses"));
            1
        }),
    );
    r.set(
        "cluster.stats.parse_merge_per_s",
        rate(window, || {
            let mut total = NodeStats::parse_text(stats_text).expect("STATS text parses");
            total.merge(&NodeStats::parse_text(stats_text).expect("STATS text parses"));
            std::hint::black_box(total);
            1
        }),
    );
}
