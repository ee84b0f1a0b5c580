use super::*;
use crate::retry::RetryKind;
use rif_workloads::{IoRequest, SynthConfig, WorkloadProfile};

fn read_req(us: u64, offset: u64, bytes: u32) -> IoRequest {
    IoRequest {
        arrival: SimTime::from_us(us),
        op: IoOp::Read,
        offset,
        bytes,
    }
}

fn write_req(us: u64, offset: u64, bytes: u32) -> IoRequest {
    IoRequest {
        arrival: SimTime::from_us(us),
        op: IoOp::Write,
        offset,
        bytes,
    }
}

#[test]
fn single_clean_read_latency_breakdown() {
    // One 64-KiB read, no failures: tR + 4·tDMA + tECC + host transfer.
    let mut cfg = SsdConfig::small(RetryKind::IdealOne, 0);
    cfg.forced_failure_slots = Some(vec![]); // nothing fails
    let report = Simulator::new(cfg).run(&Trace::new(vec![read_req(0, 0, 65536)]));
    assert_eq!(report.completed_requests, 1);
    let lat = report.read_latency.max().as_us();
    // 40 (sense) + 4x13 (DMA) + ~1-3 (last ECC) + 8.2 (host) ≈ 102.
    assert!((95.0..115.0).contains(&lat), "latency {lat}");
    assert_eq!(report.decode_failures, 0);
    assert_eq!(report.page_senses, 4);
}

#[test]
fn forced_failure_adds_one_retry_round() {
    let mut cfg = SsdConfig::small(RetryKind::IdealOne, 0);
    cfg.forced_failure_slots = Some(vec![0]);
    let report = Simulator::new(cfg).run(&Trace::new(vec![read_req(0, 0, 65536)]));
    assert_eq!(report.decode_failures, 4);
    // Failed round: 40 + 52 + 4 decodes of 20 = wasted; then retry.
    assert_eq!(report.uncor_page_transfers, 4);
    assert_eq!(report.page_senses, 8);
    let lat = report.read_latency.max().as_us();
    assert!(lat > 200.0, "latency {lat} too small for a retry round");
}

#[test]
fn rif_retries_in_die_without_channel_waste() {
    let mut cfg = SsdConfig::small(RetryKind::Rif, 0);
    cfg.forced_failure_slots = Some(vec![0]);
    let report = Simulator::new(cfg).run(&Trace::new(vec![read_req(0, 0, 65536)]));
    assert_eq!(report.in_die_retries, 1);
    assert_eq!(report.decode_failures, 0);
    assert_eq!(report.uncor_page_transfers, 0);
    // 82.5 (sense+pred+resense) + 52 + ecc + host ≈ 145.
    let lat = report.read_latency.max().as_us();
    assert!((135.0..160.0).contains(&lat), "latency {lat}");
}

#[test]
fn sentinel_pays_extra_transfer_for_csb_pages() {
    // Cold mapping is assigned in touch order: the second slot read on
    // a die lands on page 1 — a CSB page, which needs the sentinel
    // extra read. Touch slot 8 (page 0) then fail slot 40 (page 1),
    // both on die 8 of the 32-die array.
    let mut cfg = SsdConfig::small(RetryKind::Sentinel, 0);
    cfg.forced_failure_slots = Some(vec![40]);
    let sb = 64 * 1024;
    let trace = Trace::new(vec![
        read_req(0, 8 * sb, 65536),
        read_req(1, 40 * sb, 65536),
    ]);
    let report = Simulator::new(cfg).run(&trace);
    assert_eq!(report.decode_failures, 4);
    // 4 failed-page transfers + 4 sentinel transfers are overhead.
    assert_eq!(report.uncor_page_transfers, 8);
    // slot 8: 4 senses; slot 40: initial + sentinel + retry = 12.
    assert_eq!(report.page_senses, 16);
}

#[test]
fn zero_scheme_never_fails_even_when_forced() {
    let mut cfg = SsdConfig::small(RetryKind::Zero, 2000);
    cfg.forced_failure_slots = Some(vec![0]);
    let report = Simulator::new(cfg).run(&Trace::new(vec![read_req(0, 0, 65536)]));
    assert_eq!(report.decode_failures, 0);
    assert_eq!(report.page_senses, 4);
}

#[test]
fn writes_complete_and_reset_retention() {
    let cfg = SsdConfig::small(RetryKind::IdealOne, 0);
    let trace = Trace::new(vec![
        write_req(0, 0, 65536),
        read_req(1000, 0, 65536), // re-read the freshly written slot
    ]);
    let report = Simulator::new(cfg).run(&trace);
    assert_eq!(report.completed_requests, 2);
    // A just-written page never needs a retry.
    assert_eq!(report.decode_failures, 0);
    assert_eq!(report.completed_bytes, 2 * 65536);
}

#[test]
fn channel_usage_fractions_sum_to_one() {
    let cfg = SsdConfig::small(RetryKind::SwiftRead, 1000);
    let trace = SynthConfig {
        read_ratio: 0.8,
        cold_read_ratio: 0.8,
        hot_region_bytes: 64 << 20,
        cold_region_bytes: 256 << 20,
        ..SynthConfig::default()
    }
    .generate(300, 3);
    let report = Simulator::new(cfg).run(&trace);
    for u in &report.per_channel_usage {
        let sum = u.idle + u.cor + u.uncor + u.eccwait;
        assert!((sum - 1.0).abs() < 1e-9, "usage sums to {sum}");
    }
    assert_eq!(report.completed_requests, 300);
}

#[test]
fn channel_pick_rule_with_the_ecc_buffer_full() {
    // Channel 0 carries dies 0 and 8, and the write allocator's first die
    // is die 0. A one-page ECC buffer and decodes shorter than a page
    // transfer mean every transfer ends with the buffer full (its page is
    // decoding) and the slot frees before the next one ends. Both reads
    // queue 4 pages at 40 µs, when their senses end; the write's 4 pages
    // queue behind them at ≈ 48 µs, after the host link.
    use rif_events::trace::{JsonlSink, SharedBuf, TraceRecord};
    let mut cfg = SsdConfig::small(RetryKind::IdealOne, 0);
    cfg.ecc_buffer_pages = 1;
    cfg.forced_failure_slots = Some(vec![]);
    let sb = 64 * 1024;
    let trace = Trace::new(vec![
        read_req(0, 0, 65536),
        read_req(0, 8 * sb, 65536),
        write_req(40, 100 * sb, 65536),
    ]);
    let buf = SharedBuf::new();
    let report = Simulator::new(cfg)
        .with_tracer(Box::new(JsonlSink::new(buf.clone())))
        .run(&trace);
    assert_eq!(report.completed_requests, 3);
    let records = TraceRecord::parse_jsonl(&buf.contents()).expect("trace parses");
    let on_chan0 = |res: &Option<String>| res.as_deref() == Some("chan:0");
    let starts: Vec<(SimTime, &str, u64)> = records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::SpanBegin {
                t, name, res, req, ..
            } if on_chan0(res) => Some((*t, name.as_str(), req.expect("xfer has a request"))),
            _ => None,
        })
        .collect();
    // With the buffer full a write page starts ahead of the reads queued
    // before it; with room the queue's front, the oldest read page, goes.
    let order: Vec<u64> = starts.iter().map(|s| s.2).collect();
    assert_eq!(order, [0, 2, 0, 2, 0, 2, 0, 2, 1, 1, 1, 1]);
    // The channel waits on the ECC engine only once nothing but read
    // pages is queued, after the last write page started.
    let last_write = starts
        .iter()
        .filter(|s| s.1 == "xfer_write")
        .map(|s| s.0)
        .max()
        .expect("write pages crossed channel 0");
    let eccwait: Vec<SimTime> = records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::State { t, res, state } if res == "chan:0" && state == "ECCWAIT" => {
                Some(*t)
            }
            _ => None,
        })
        .collect();
    assert!(!eccwait.is_empty(), "channel 0 never waited on its ECC");
    assert!(eccwait.iter().all(|&t| t > last_write), "{eccwait:?}");
}

#[test]
fn rif_beats_senc_under_heavy_retries() {
    // At 2K P/E with cold-heavy reads, RiF must deliver clearly more
    // bandwidth than Sentinel — the core claim of the paper. The trace
    // over-drives the device (2 µs interarrival ≈ 32 GB/s offered) so
    // the measured bandwidth is the SSD's, not the workload's.
    let mut wl = WorkloadProfile::by_name("Ali124").unwrap().config();
    wl.mean_interarrival_ns = 2_000.0;
    let trace = wl.generate(800, 12);
    let run = |retry| {
        let mut cfg = SsdConfig::small(retry, 2000);
        cfg.seed = 99;
        Simulator::new(cfg).run(&trace)
    };
    let senc = run(RetryKind::Sentinel);
    let rif = run(RetryKind::Rif);
    let zero = run(RetryKind::Zero);
    assert!(
        rif.io_bandwidth_mbps() > senc.io_bandwidth_mbps() * 1.1,
        "RiF {} vs SENC {}",
        rif.io_bandwidth_mbps(),
        senc.io_bandwidth_mbps()
    );
    assert!(rif.io_bandwidth_mbps() <= zero.io_bandwidth_mbps() * 1.02);
    // And the channel waste ordering matches Fig. 18.
    assert!(rif.channel_usage().wasted() < senc.channel_usage().wasted());
}

#[test]
fn queue_depth_backpressure_holds() {
    let mut cfg = SsdConfig::small(RetryKind::IdealOne, 0);
    cfg.queue_depth = 1;
    cfg.forced_failure_slots = Some(vec![]);
    // Two reads arriving together: the second must wait for the first.
    let trace = Trace::new(vec![read_req(0, 0, 65536), read_req(0, 65536, 65536)]);
    let report = Simulator::new(cfg).run(&trace);
    assert_eq!(report.completed_requests, 2);
    let p100 = report.read_latency.max().as_us();
    let p1 = report.read_latency.min().as_us();
    assert!(p100 > p1 * 1.5, "no queueing visible: {p1} vs {p100}");
}

#[test]
fn swift_read_retry_occupies_die_for_two_senses() {
    // SWR's corrective command is two in-die senses: the retried
    // read's latency must exceed SSDone's by ~tR.
    let lat = |retry| {
        let mut cfg = SsdConfig::small(retry, 0);
        cfg.forced_failure_slots = Some(vec![0]);
        let r = Simulator::new(cfg).run(&Trace::new(vec![read_req(0, 0, 65536)]));
        r.read_latency.max().as_us()
    };
    let one = lat(RetryKind::IdealOne);
    let swr = lat(RetryKind::SwiftRead);
    let diff = swr - one;
    assert!((30.0..55.0).contains(&diff), "SWR - SSDone = {diff} µs");
}

#[test]
fn rpssd_terminates_hopeless_decodes_early() {
    // With a forced failure, RPSSD's ECC occupancy for the failed
    // pages is tPRED (2.5 µs) instead of 20 µs, so its end-to-end
    // latency beats SSDone's despite the same transfer waste.
    let lat = |retry| {
        let mut cfg = SsdConfig::small(retry, 0);
        cfg.forced_failure_slots = Some(vec![0]);
        let r = Simulator::new(cfg).run(&Trace::new(vec![read_req(0, 0, 65536)]));
        (r.read_latency.max().as_us(), r.uncor_page_transfers)
    };
    let (one, one_uncor) = lat(RetryKind::IdealOne);
    let (rpssd, rpssd_uncor) = lat(RetryKind::RpSsd);
    assert!(rpssd < one, "RPSSD {rpssd} vs SSDone {one}");
    assert_eq!(
        one_uncor, rpssd_uncor,
        "RPSSD must still ship the failed pages"
    );
}

/// One traced 64-KiB read of forced slot 0 (an LSB page, so SENC reads
/// no sentinel cells) at 0 P/E: the report and the durations in ns of
/// the group's die `sense` commands and ECC `decode`s, in start order.
fn forced_read_spans(retry: RetryKind) -> (SimReport, Vec<u64>, Vec<u64>) {
    use rif_events::trace::{JsonlSink, SharedBuf, TraceRecord};
    let mut cfg = SsdConfig::small(retry, 0);
    cfg.forced_failure_slots = Some(vec![0]);
    let buf = SharedBuf::new();
    let report = Simulator::new(cfg)
        .with_tracer(Box::new(JsonlSink::new(buf.clone())))
        .run(&Trace::new(vec![read_req(0, 0, 65536)]));
    let records = TraceRecord::parse_jsonl(&buf.contents()).expect("trace parses");
    let ends: Vec<(u64, SimTime)> = records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::SpanEnd { t, id } => Some((*id, *t)),
            _ => None,
        })
        .collect();
    let lasting = |want: &str| -> Vec<u64> {
        records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::SpanBegin { t, name, id, .. } if name == want => {
                    let end = ends.iter().find(|e| e.0 == *id).expect("span closes").1;
                    Some(end.since(*t).as_ns())
                }
                _ => None,
            })
            .collect()
    };
    (report, lasting("sense"), lasting("decode"))
}

#[test]
fn forced_read_occupies_die_and_ecc_exactly() {
    use RetryKind::*;
    let cfg = SsdConfig::small(Rif, 0);
    let (t, fail) = (cfg.timing, cfg.ecc.t_ecc_failure().as_ns());
    assert_eq!(
        (t.sense(1, false).as_ns(), t.t_pred.as_ns()),
        (40_000, 2_500)
    );
    // (row, first sense, failed first-round decode, corrective sense):
    // RiF senses, predicts and re-senses in one command and ships only
    // correctable pages; RPSSD cuts its failed decodes to the tPRED
    // check; SWR's corrective command senses twice.
    let want = [
        (Zero, 40_000, None, None),
        (IdealOne, 40_000, Some(fail), Some(40_000)),
        (Sentinel, 40_000, Some(fail), Some(40_000)),
        (SwiftRead, 40_000, Some(fail), Some(80_000)),
        (SwiftReadPlus, 40_000, Some(fail), Some(80_000)),
        (RpSsd, 40_000, Some(2_500), Some(40_000)),
        (Rif, 82_500, None, None),
    ];
    assert_eq!(want.len(), RetryKind::ALL.len());
    for (retry, first, failed, corrective) in want {
        let (report, senses, decodes) = forced_read_spans(retry);
        let on_die = retry == Rif;
        assert_eq!(first, t.sense(1 + u64::from(on_die), on_die).as_ns());
        let want_senses: Vec<u64> = [first].into_iter().chain(corrective).collect();
        assert_eq!(senses, want_senses, "{retry} sense commands");
        let (first_round, rest) = decodes.split_at(if failed.is_some() { 4 } else { 0 });
        assert!(
            first_round.iter().all(|&d| Some(d) == failed),
            "{retry} {decodes:?}"
        );
        assert_eq!(rest.len(), 4, "{retry} decodes {decodes:?}");
        assert!(rest.iter().all(|&d| d < fail), "{retry} {decodes:?}");
        // Every failing row still ships its failed pages.
        let shipped = if failed.is_some() { 4 } else { 0 };
        assert_eq!(report.uncor_page_transfers, shipped, "{retry}");
    }
}

#[test]
fn host_link_serializes_write_ingress() {
    // Two simultaneous 1-MiB writes: ingress at 8 GB/s costs 131 µs
    // each and is serialized, so the later write's data reaches the
    // dies measurably later.
    let mut cfg = SsdConfig::small(RetryKind::Zero, 0);
    cfg.queue_depth = 8;
    let trace = Trace::new(vec![
        write_req(0, 0, 1 << 20),
        write_req(0, 1 << 20, 1 << 20),
    ]);
    let report = Simulator::new(cfg).run(&trace);
    assert_eq!(report.completed_requests, 2);
    // Makespan must cover at least both ingress transfers plus one
    // program: 2 x 131 + 400 > 650 µs.
    assert!(
        report.makespan.as_us() > 650.0,
        "makespan {}",
        report.makespan.as_us()
    );
}

#[test]
fn gc_work_is_charged_to_dies() {
    // A tiny write region forces GC; total simulated time must grow
    // well beyond the no-GC bound because erases (3.5 ms) serialize
    // behind programs on the victim dies.
    let mut cfg = SsdConfig::small(RetryKind::Zero, 0);
    cfg.geometry = rif_flash::FlashGeometry {
        channels: 1,
        dies_per_channel: 1,
        planes_per_die: 4,
        blocks_per_plane: 8,
        pages_per_block: 4,
        page_bytes: 16 * 1024,
    };
    cfg.queue_depth = 2;
    // Overwrite a 4-slot working set far beyond the 16-slot write
    // region capacity of the single die.
    let reqs: Vec<IoRequest> = (0..120)
        .map(|i| write_req(i, (i % 4) * 65536, 65536))
        .collect();
    let report = Simulator::new(cfg).run(&Trace::new(reqs));
    assert_eq!(report.completed_requests, 120);
    assert!(report.gc_relocations > 0 || report.makespan.as_us() > 120.0 * 400.0);
}

#[test]
fn sub_page_reads_sense_single_pages() {
    let mut cfg = SsdConfig::small(RetryKind::IdealOne, 0);
    cfg.forced_failure_slots = Some(vec![]);
    let trace = Trace::new(vec![read_req(0, 0, 16 * 1024)]);
    let report = Simulator::new(cfg).run(&trace);
    assert_eq!(report.page_senses, 1);
    assert_eq!(report.completed_bytes, 16 * 1024);
}

#[test]
fn requests_spanning_slots_fan_out_to_multiple_dies() {
    let mut cfg = SsdConfig::small(RetryKind::Zero, 0);
    cfg.forced_failure_slots = Some(vec![]);
    // 256 KiB = 4 slots = 16 pages on 4 different dies.
    let trace = Trace::new(vec![read_req(0, 0, 256 * 1024)]);
    let report = Simulator::new(cfg).run(&trace);
    assert_eq!(report.page_senses, 16);
    // Four dies sense in parallel; four channels transfer in
    // parallel: far faster than a serial 16-page read.
    let lat = report.read_latency.max().as_us();
    assert!(lat < 40.0 + 4.0 * 13.0 + 40.0, "latency {lat}");
}

#[test]
fn suspend_resume_cuts_read_latency_behind_programs() {
    // One long program monopolizes a die; a read arrives right after.
    // Without suspend the read waits out the 400-µs program; with it,
    // the read preempts and the program resumes afterwards.
    let build = |suspend: bool| {
        let mut cfg = SsdConfig::small(RetryKind::Zero, 0);
        cfg.read_suspend = suspend;
        cfg.queue_depth = 4;
        cfg
    };
    // Write slot 0 (die 0), then read slot 0 shortly after the program
    // starts (write path: ingress ~8 µs + 4 transfers ~52 µs).
    let trace = Trace::new(vec![write_req(0, 0, 65536), read_req(100, 0, 65536)]);
    let plain = Simulator::new(build(false)).run(&trace);
    let susp = Simulator::new(build(true)).run(&trace);
    assert_eq!(plain.completed_requests, 2);
    assert_eq!(susp.completed_requests, 2);
    let lat_plain = plain.read_latency.max().as_us();
    let lat_susp = susp.read_latency.max().as_us();
    assert!(
        lat_susp + 150.0 < lat_plain,
        "suspend: {lat_susp} vs plain: {lat_plain}"
    );
    // The write still completes: the suspended program resumed.
    assert_eq!(susp.completed_bytes, 2 * 65536);
}

#[test]
fn suspension_is_bounded_per_command() {
    // A stream of reads cannot starve a program forever: after two
    // suspensions the program runs to completion.
    let mut cfg = SsdConfig::small(RetryKind::Zero, 0);
    cfg.read_suspend = true;
    cfg.queue_depth = 16;
    let mut reqs = vec![write_req(0, 0, 65536)];
    for i in 0..20 {
        reqs.push(read_req(100 + i * 30, 0, 65536));
    }
    let report = Simulator::new(cfg).run(&Trace::new(reqs));
    assert_eq!(report.completed_requests, 21);
    // The write must finish within a bounded window: program 400 µs +
    // 2 suspensions x (sense 40 + overhead 20) + queued reads ahead.
    assert!(
        report.makespan.as_us() < 5_000.0,
        "makespan {}",
        report.makespan.as_us()
    );
}

#[test]
fn suspend_disabled_matches_baseline_results() {
    // With the feature off (the paper's configuration), results are
    // bit-identical to the pre-feature behaviour.
    let trace = WorkloadProfile::by_name("Ali2").unwrap().generate(200, 3);
    let run = |suspend| {
        let mut cfg = SsdConfig::small(RetryKind::Rif, 1000);
        cfg.read_suspend = suspend;
        Simulator::new(cfg).run(&trace)
    };
    let a = run(false);
    let b = run(false);
    assert_eq!(a.makespan, b.makespan);
    // And enabling it on a write-heavy trace changes read latency.
    let c = run(true);
    assert!(c.completed_requests == a.completed_requests);
}

#[test]
fn stepper_drains_completions_in_order() {
    let mut cfg = SsdConfig::small(RetryKind::IdealOne, 0);
    cfg.forced_failure_slots = Some(vec![]);
    let mut sim = Simulator::new(cfg);
    let a = sim.submit(read_req(0, 0, 65536));
    let b = sim.submit(read_req(10, 65536, 65536));
    assert_eq!((a, b), (0, 1));
    // Nothing before the first sense finishes.
    sim.advance_until(SimTime::from_us(30));
    assert!(sim.drain_completions().is_empty());
    assert_eq!(sim.unfinished_requests(), 2);
    sim.advance_until(SimTime::MAX);
    let done = sim.drain_completions();
    assert_eq!(done.len(), 2);
    assert_eq!(done[0].id, 0);
    assert_eq!(done[1].id, 1);
    assert!(done[0].finished <= done[1].finished);
    assert!(done[0].latency() > SimDuration::from_us(50));
    assert_eq!(sim.unfinished_requests(), 0);
    // A second drain is empty; finish() still reports both requests.
    assert!(sim.drain_completions().is_empty());
    let report = sim.finish();
    assert_eq!(report.completed_requests, 2);
}

#[test]
fn stepper_tables_stay_bounded_and_ids_are_the_submission_counter() {
    // A serving shard's simulator lives as long as the server. Its
    // request, group and write-job tables must hold what is admitted,
    // never what waits for admission or the history; and although slots
    // are reused, every id comes back exactly once, as the submission
    // counter issued it.
    const N: usize = 50_000;
    const CHUNK: usize = 256;
    let mut cfg = SsdConfig::small(RetryKind::Rif, 1000);
    cfg.queue_depth = 32;
    let qd = cfg.queue_depth;
    let trace = mixed_trace(N, 35);
    let mut sim = Simulator::new(cfg);
    let mut seen = vec![false; N];
    let mut mark = |c: &Completion| {
        assert!(!seen[c.id as usize], "id {} completed twice", c.id);
        seen[c.id as usize] = true;
    };
    let mut submitted = 0;
    for chunk in trace.iter().collect::<Vec<_>>().chunks(CHUNK) {
        for r in chunk {
            assert_eq!(sim.submit(**r), submitted, "ids are the submission counter");
            submitted += 1;
        }
        // Run the backlog down to half a chunk before the next one lands.
        while sim.unfinished_requests() > CHUNK / 2 {
            let next = sim.next_event_time().expect("unfinished work has events");
            sim.advance_until(next);
        }
        sim.drain_completions().iter().for_each(&mut mark);
        // Every request of this trace covers one slot: at most one group
        // or write job per admitted request.
        let tables = (
            sim.requests.slots.len(),
            sim.groups.slots.len(),
            sim.write_jobs.slots.len(),
        );
        assert!(
            tables.0 <= qd && tables.1 <= qd && tables.2 <= qd,
            "tables grew with the run: {tables:?}"
        );
    }
    sim.advance_until(SimTime::MAX);
    sim.drain_completions().iter().for_each(&mut mark);
    assert!(seen.iter().all(|&s| s), "some ids never came back");
    assert_eq!(sim.finish().completed_requests, N as u64);
}

#[test]
fn stepper_accepts_live_injection_mid_run() {
    // Submit while the event loop has already advanced: the late
    // request's stale arrival is clamped to the clock instead of
    // panicking the event queue.
    let mut cfg = SsdConfig::small(RetryKind::Rif, 1000);
    cfg.forced_failure_slots = Some(vec![]);
    let mut sim = Simulator::new(cfg);
    sim.submit(read_req(0, 0, 65536));
    sim.advance_until(SimTime::from_us(60)); // sense done, transfers going
    let clock = sim.now();
    assert!(clock > SimTime::ZERO);
    let id = sim.submit(read_req(0, 65536, 65536)); // arrival 0 is in the past
    sim.advance_until(SimTime::MAX);
    let done = sim.drain_completions();
    assert_eq!(done.len(), 2);
    let late = done.iter().find(|c| c.id == id).unwrap();
    assert_eq!(late.arrival, clock, "stale arrival clamps to the clock");
    assert_eq!(sim.pending_events(), 0);
    assert_eq!(sim.next_event_time(), None);
}

#[test]
fn stepper_advance_is_chunking_invariant() {
    // Advancing in many small windows handles exactly the same events
    // as one big advance: reports are byte-identical.
    let trace = WorkloadProfile::by_name("Ali124").unwrap().generate(150, 9);
    let batch = Simulator::new(SsdConfig::small(RetryKind::Rif, 1000)).run(&trace);
    let mut sim = Simulator::new(SsdConfig::small(RetryKind::Rif, 1000));
    for r in &trace {
        sim.submit(*r);
    }
    let mut t = SimTime::ZERO;
    while sim.pending_events() > 0 {
        t = t + SimDuration::from_us(100);
        sim.advance_until(t);
    }
    let stepped = sim.finish();
    assert_eq!(batch.to_json(), stepped.to_json());
}

#[test]
fn out_of_order_submission_matches_sorted_submission() {
    // The stepper takes an arrival earlier than one still pending:
    // the event queue parks it on its heap lane, in front of the
    // sorted run. Same requests, same instants, so the same report
    // and the same completions as the sorted trace gives — on the
    // plain device and with the background tick in the queue.
    let mut sorted: Vec<IoRequest> = mixed_trace(240, 31).iter().copied().collect();
    sorted.dedup_by_key(|r| r.arrival); // equal instants would tie on submission order
    let cut = sorted.len() / 3;
    // A third up front, the clock run to its last arrival, the rest
    // injected mid-run: every arrival is still ahead of the clock.
    let outcome = |cfg: SsdConfig, head: &[usize], tail: &[usize]| {
        let mut sim = Simulator::new(cfg);
        for &i in head {
            sim.submit(sorted[i]);
        }
        sim.advance_until(sorted[cut - 1].arrival);
        for &i in tail {
            sim.submit(sorted[i]);
        }
        sim.advance_until(SimTime::MAX);
        let mut done: Vec<(u64, SimTime, SimTime)> = sim
            .drain_completions()
            .iter()
            .map(|c| (c.offset, c.arrival, c.finished))
            .collect();
        done.sort_unstable();
        (sim.finish().to_json(), done)
    };
    // The latest arrival first (it parks at the run's back and sends
    // all that follow to the heap), then neighbours swapped.
    let shuffle = |range: std::ops::Range<usize>| {
        let mut order: Vec<usize> = range.collect();
        order.chunks_mut(2).for_each(|pair| pair.reverse());
        order.rotate_right(1);
        order
    };
    let in_order = |range: std::ops::Range<usize>| range.collect::<Vec<usize>>();
    for cfg in [
        SsdConfig::small(RetryKind::Rif, 1500),
        hybrid_cfg(RetryKind::Rif, 1500),
    ] {
        let n = sorted.len();
        let want = outcome(cfg.clone(), &in_order(0..cut), &in_order(cut..n));
        let got = outcome(cfg, &shuffle(0..cut), &shuffle(cut..n));
        assert_eq!(want.0, got.0, "report differs");
        assert_eq!(want.1, got.1, "completions differ");
    }
}

#[test]
fn fifo_migration_and_refresh_under_drift_are_deterministic() {
    // A hybrid run that works every slot- and block-indexed table (GC,
    // cache migration, the refresh scan, drift) reports alike twice.
    let trace = mixed_trace(400, 33);
    let run = || {
        let mut cfg = hybrid_cfg(RetryKind::Rif, 1500);
        cfg.drift = rif_flash::learn::DriftClock {
            days_per_sec: 1e6,
            pe_per_sec: 0.0,
        };
        let h = cfg.hybrid.as_mut().unwrap();
        h.bg.high_watermark = 0.001;
        h.bg.low_watermark = 0.0;
        // A drain moves up to a batch of residents a tick. Which ones,
        // and the order they land in capacity blocks, follow the
        // candidate order and decide every later location.
        let report = Simulator::new(cfg).with_metrics().run(&trace);
        let h = report.hybrid.expect("hybrid run must summarize");
        assert!(h.migrated_slots > 0 && h.refreshed_slots > 0, "{h:?}");
        report.to_json()
    };
    assert_eq!(run(), run());
}

#[test]
#[should_panic(expected = "ends past byte 2^48")]
fn a_request_whose_range_overflows_panics_at_submit() {
    // `offset + bytes` wraps u64: served, it would walk ~2^48 slots.
    let mut sim = Simulator::new(SsdConfig::small(RetryKind::Rif, 1000));
    sim.submit(read_req(0, u64::MAX - 615, 64 * 1024));
}

#[test]
#[should_panic(expected = "arrives past 2^62 ns")]
fn a_request_arriving_past_the_time_bound_panics_at_submit() {
    // Served, its service time would wrap the clock.
    let mut sim = Simulator::new(SsdConfig::small(RetryKind::Rif, 1000));
    let late = MAX_ARRIVAL.as_ns() / 1_000 + 1;
    sim.submit(read_req(late, 0, 4096));
}

#[test]
fn requests_ending_exactly_at_2_48_are_served() {
    let last = MAX_END_BYTES - 64 * 1024;
    let trace = Trace::new(vec![
        write_req(0, last, 64 * 1024),
        read_req(100, last, 64 * 1024),
        read_req(200, MAX_END_BYTES - 1, 1),
    ]);
    let report = Simulator::new(hybrid_cfg(RetryKind::Rif, 1000)).run(&trace);
    assert_eq!(report.completed_requests, 3);
}

#[test]
fn deterministic_given_seed() {
    let trace = WorkloadProfile::by_name("Sys0").unwrap().generate(200, 5);
    let run = || {
        let cfg = SsdConfig::small(RetryKind::SwiftReadPlus, 1000);
        Simulator::new(cfg).run(&trace)
    };
    let a = run();
    let b = run();
    assert_eq!(a.completed_bytes, b.completed_bytes);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.decode_failures, b.decode_failures);
}

fn learned_cfg(retry: RetryKind, pe: u32) -> SsdConfig {
    let mut cfg = SsdConfig::small(retry, pe);
    cfg.learning =
        crate::config::LearningMode::Learned(rif_flash::learn::LearnerConfig::default_paper());
    cfg
}

fn aged_trace(n: usize, seed: u64) -> Trace {
    SynthConfig {
        read_ratio: 0.9,
        cold_read_ratio: 0.7,
        ..SynthConfig::default()
    }
    .generate(n, seed)
}

#[test]
fn learned_mode_populates_summary_oracle_does_not() {
    let trace = aged_trace(150, 9);
    let oracle = Simulator::new(SsdConfig::small(RetryKind::Rif, 2000)).run(&trace);
    assert!(oracle.learner.is_none());
    assert!(!oracle.to_json().contains("\"learner\""));
    let learned = Simulator::new(learned_cfg(RetryKind::Rif, 2000)).run(&trace);
    let l = learned.learner.expect("learned run must summarize");
    assert!(l.updates > 0, "no learner updates");
    assert!(l.blocks_tracked > 0);
    assert!(l.mean_abs_error.is_finite() && l.mean_abs_error >= 0.0);
    assert!(learned.to_json().contains("\"learner\""));
}

#[test]
fn learned_runs_are_deterministic() {
    let trace = aged_trace(120, 11);
    let run = || {
        Simulator::new(learned_cfg(RetryKind::SwiftReadPlus, 2000))
            .with_metrics()
            .run(&trace)
            .to_json()
    };
    assert_eq!(run(), run(), "learned mode must stay reproducible");
}

#[test]
fn rif_learned_recalibrations_feed_the_learner() {
    // At heavy wear the RP fires often, so the RVS re-calibration
    // path must dominate the learner's observations.
    let trace = aged_trace(200, 13);
    let report = Simulator::new(learned_cfg(RetryKind::Rif, 2000)).run(&trace);
    let l = report.learner.unwrap();
    assert!(
        l.recalibrations > 0,
        "in-die retries produced no re-calibration observations"
    );
    assert!(l.recalibrations <= l.updates);
}

#[test]
fn drift_clock_ages_groups_mid_run() {
    // An extreme drift rate must change learned-mode behaviour versus
    // the same run without drift; with the clock disabled the two
    // configurations are identical.
    let trace = aged_trace(150, 17);
    let still = Simulator::new(learned_cfg(RetryKind::SwiftRead, 1000)).run(&trace);
    let mut cfg = learned_cfg(RetryKind::SwiftRead, 1000);
    cfg.drift = rif_flash::learn::DriftClock {
        days_per_sec: 2000.0,
        pe_per_sec: 100_000.0,
    };
    let drifted = Simulator::new(cfg).run(&trace);
    assert_ne!(
        still.to_json(),
        drifted.to_json(),
        "drift clock had no observable effect"
    );
}

fn hybrid_cfg(retry: RetryKind, pe: u32) -> SsdConfig {
    let mut cfg = SsdConfig::small(retry, pe);
    cfg.hybrid = Some(crate::hybrid::HybridConfig::slc_qlc());
    cfg
}

fn mixed_trace(n: usize, seed: u64) -> Trace {
    SynthConfig {
        read_ratio: 0.5,
        cold_read_ratio: 0.5,
        hot_region_bytes: 4 << 20,
        cold_region_bytes: 64 << 20,
        ..SynthConfig::default()
    }
    .generate(n, seed)
}

#[test]
fn hybrid_run_completes_and_summarizes() {
    let trace = mixed_trace(300, 21);
    let plain = Simulator::new(SsdConfig::small(RetryKind::Rif, 1000)).run(&trace);
    assert!(plain.hybrid.is_none());
    assert!(!plain.to_json().contains("\"hybrid\""));
    let report = Simulator::new(hybrid_cfg(RetryKind::Rif, 1000)).run(&trace);
    assert_eq!(report.completed_requests, 300);
    let h = report.hybrid.expect("hybrid run must summarize");
    assert!(report.to_json().contains("\"hybrid\""));
    assert!((0.0..=1.0).contains(&h.cache_occupancy));
    assert!(h.bg_ops >= h.migrated_slots + h.refreshed_slots);
}

#[test]
fn hybrid_cache_drains_under_write_pressure() {
    // A write-heavy trace pushes the cache past the high watermark:
    // the scheduler must migrate, and occupancy must end at or below
    // the point where draining stops making progress.
    let mut cfg = hybrid_cfg(RetryKind::Rif, 1000);
    // Near-zero watermarks so this short trace reaches them.
    let h = cfg.hybrid.as_mut().unwrap();
    h.bg.high_watermark = 0.001;
    h.bg.low_watermark = 0.0;
    let trace = SynthConfig {
        read_ratio: 0.1,
        cold_read_ratio: 0.2,
        hot_region_bytes: 16 << 20,
        cold_region_bytes: 64 << 20,
        ..SynthConfig::default()
    }
    .generate(500, 23);
    let report = Simulator::new(cfg).run(&trace);
    assert_eq!(report.completed_requests, 500);
    let h = report.hybrid.unwrap();
    assert!(h.migrated_slots > 0, "cache never drained: {h:?}");
}

#[test]
fn default_hybrid_device_drains_in_the_background() {
    // The stock device, its cache shrunk to 128 slots a die so that a
    // short run overwriting a 512-MiB hot set crosses the 0.5 high
    // watermark: the background drain, not the write path's forced
    // eviction, must keep the cache from overflowing.
    let mut cfg = hybrid_cfg(RetryKind::Rif, 2000);
    cfg.seed = 800;
    cfg.hybrid.as_mut().unwrap().cache_fraction = 0.05;
    let trace = SynthConfig {
        read_ratio: 0.1,
        hot_region_bytes: 512 << 20,
        ..SynthConfig::default()
    }
    .generate(10_000, 800);
    let h = Simulator::new(cfg).run(&trace).hybrid.unwrap();
    assert!(
        h.migrated_slots > 0 && h.forced_evictions == 0,
        "the default drain must run on its own: {h:?}"
    );
}

#[test]
fn hybrid_qlc_reads_retry_more_than_tlc() {
    // Same trace, same seed: pure-QLC capacity reads see amplified
    // RBER, so decode failures + in-die retries must exceed TLC's.
    let trace = SynthConfig {
        read_ratio: 0.95,
        cold_read_ratio: 0.8,
        ..SynthConfig::default()
    }
    .generate(400, 25);
    let tlc = Simulator::new(SsdConfig::small(RetryKind::IdealOne, 1000)).run(&trace);
    let mut qcfg = SsdConfig::small(RetryKind::IdealOne, 1000);
    qcfg.hybrid = Some(crate::hybrid::HybridConfig::qlc());
    let qlc = Simulator::new(qcfg).run(&trace);
    assert!(
        qlc.decode_failures > tlc.decode_failures,
        "QLC {} vs TLC {} decode failures",
        qlc.decode_failures,
        tlc.decode_failures
    );
    assert!(qlc.read_latency.mean() >= tlc.read_latency.mean());
}

#[test]
fn hybrid_refresh_fires_under_drift() {
    let mut cfg = hybrid_cfg(RetryKind::Rif, 1000);
    // Extreme drift: simulated microseconds become retention days, so
    // written slots age past the refresh interval mid-run.
    cfg.drift = rif_flash::learn::DriftClock {
        days_per_sec: 5e6,
        pe_per_sec: 0.0,
    };
    let trace = mixed_trace(400, 27);
    let report = Simulator::new(cfg).run(&trace);
    let h = report.hybrid.unwrap();
    assert!(
        h.refreshed_slots > 0,
        "drift never triggered refresh: {h:?}"
    );
}

#[test]
fn refresh_days_is_the_refresh_deadline() {
    // Cold data is younger than the refresh interval and a run ages
    // nothing by whole days, so without drift no slot comes due at any
    // interval; a few days of drift carry a week's oldest slots past it.
    let trace = mixed_trace(400, 35);
    let refreshed = |days: f64, drift_days_over_run: f64| {
        let mut cfg = hybrid_cfg(RetryKind::Rif, 1000);
        cfg.refresh_days = days;
        let secs = Simulator::new(cfg.clone()).run(&trace).makespan.as_secs();
        cfg.drift = rif_flash::learn::DriftClock {
            days_per_sec: drift_days_over_run / secs,
            pe_per_sec: 0.0,
        };
        Simulator::new(cfg)
            .run(&trace)
            .hybrid
            .unwrap()
            .refreshed_slots
    };
    for days in [7.0, 30.0, 60.0] {
        assert_eq!(refreshed(days, 0.0), 0, "{days}-day interval, no drift");
    }
    assert!(
        refreshed(7.0, 3.0) > 0,
        "3 days of drift past a 7-day interval"
    );
}

#[test]
fn hybrid_runs_are_deterministic() {
    let trace = mixed_trace(250, 29);
    let run = || {
        let mut cfg = hybrid_cfg(RetryKind::Rif, 1500);
        cfg.drift = rif_flash::learn::DriftClock {
            days_per_sec: 1e6,
            pe_per_sec: 0.0,
        };
        Simulator::new(cfg).with_metrics().run(&trace).to_json()
    };
    assert_eq!(run(), run(), "hybrid mode must stay reproducible");
}

#[test]
fn hybrid_stepper_terminates_without_foreground_work() {
    // The BgTick must disarm once the last request completes, or
    // advance_until(MAX) would spin forever.
    let mut sim = Simulator::new(hybrid_cfg(RetryKind::Rif, 1000));
    sim.submit(write_req(0, 0, 65536));
    sim.submit(read_req(10, 0, 65536));
    sim.advance_until(SimTime::MAX);
    assert_eq!(sim.pending_events(), 0, "BgTick failed to disarm");
    assert_eq!(sim.unfinished_requests(), 0);
    assert!(sim.bg_summary().is_some());
    // Resubmitting re-arms the scheduler.
    sim.submit(write_req(0, 65536, 65536));
    sim.advance_until(SimTime::MAX);
    assert_eq!(sim.pending_events(), 0);
    assert_eq!(sim.unfinished_requests(), 0);
}

#[test]
fn no_request_completes_sooner_than_min_service() {
    // Every read senses at least once (≥ tR) and every write programs at
    // least once (≥ tPROG) before it completes.
    let check = |what: &str, cfg: SsdConfig, trace: &Trace| {
        let floor = cfg.timing.t_r.min(cfg.timing.t_prog);
        let mut sim = Simulator::new(cfg);
        for r in trace {
            sim.submit(*r);
        }
        sim.advance_until(SimTime::MAX);
        let done = sim.drain_completions();
        assert_eq!(done.len(), trace.len(), "{what}: requests left over");
        for c in &done {
            assert!(
                c.latency() >= floor,
                "{what}: request {} took {:?} < {floor:?}",
                c.id,
                c.latency()
            );
        }
    };
    let mixed = mixed_trace(300, 37);
    for kind in RetryKind::ALL {
        check(
            &format!("oracle {kind}"),
            SsdConfig::small(kind, 2000),
            &mixed,
        );
    }
    let mut learned = learned_cfg(RetryKind::Rif, 2000);
    learned.drift = rif_flash::learn::DriftClock {
        days_per_sec: 2000.0,
        pe_per_sec: 100_000.0,
    };
    check("learned + drift", learned, &aged_trace(300, 39));
    let mut hybrid = hybrid_cfg(RetryKind::Rif, 1500);
    let h = hybrid.hybrid.as_mut().unwrap();
    h.bg.high_watermark = 0.0;
    h.bg.low_watermark = 0.0;
    check("hybrid + background", hybrid, &mixed);
    for kind in RetryKind::ALL {
        let mut forced = SsdConfig::small(kind, 1000);
        forced.forced_failure_slots = Some((0..4096).step_by(3).collect());
        check(&format!("forced retries {kind}"), forced, &mixed);
    }
}

#[test]
fn oracle_mode_draws_no_learner_randomness() {
    // The learned path must not perturb the oracle path's RNG stream:
    // an oracle run constructed after the learned types existed still
    // matches a fresh oracle run bit-for-bit (the full cross-version
    // pin lives in tests/golden/oracle_seed_reports.json).
    let trace = aged_trace(100, 19);
    let a = Simulator::new(SsdConfig::small(RetryKind::Rif, 2000)).run(&trace);
    let b = Simulator::new(SsdConfig::small(RetryKind::Rif, 2000)).run(&trace);
    assert_eq!(a.to_json(), b.to_json());
}
