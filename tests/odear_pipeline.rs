//! Bit-level integration of the LDPC, flash and ODEAR crates: the flows a
//! RiF chip executes, end to end on real codewords with physically
//! modelled error rates.

use rif::ldpc::bits::BitVec;
use rif::ldpc::decoder::MinSumDecoder;
use rif::odear::accuracy::{mean_accuracy_above, measure_accuracy};
use rif::prelude::*;

#[test]
fn write_read_roundtrip_through_rearranged_layout() {
    // Controller flow of §V-B: encode → rearrange → store → sense with
    // errors → restore → decode. Data must survive a realistic RBER.
    let code = QcLdpcCode::small_test();
    let model = ErrorModel::calibrated();
    let decoder = MinSumDecoder::new(&code);
    let mut rng = SimRng::seed_from(1);

    let op = OperatingPoint::new(500, 6.0); // well below the capability age
    let rber = model.rber_default(BlockProfile::median(), op, PageKind::Lsb);
    assert!(rber < 0.0085, "test premise: rber {rber}");

    for _ in 0..5 {
        let data = BitVec::random(code.data_bits(), &mut rng);
        let stored = code.rearrange(&code.encode(&data));
        let sensed = Bsc::new(rber).corrupt(&stored, &mut rng);
        let out = decoder.decode(&code.restore(&sensed));
        assert!(out.success);
        assert_eq!(code.extract_data(&out.decoded), data);
    }
}

#[test]
fn rp_accuracy_headline_numbers() {
    // The Fig. 14 headline: with chunking + pruning, RP still agrees with
    // the real decoder on the overwhelming majority of uncorrectable
    // pages. The small-circulant code shifts the waterfall slightly; we
    // calibrate RP at the measured capability and check accuracy above it.
    // Note: small_test has only t = 64 pruned syndromes, so its weight
    // statistic is 4× noisier than the paper's t = 1024; probe points a
    // little further from the waterfall than Fig. 14's grid.
    let code = QcLdpcCode::small_test();
    let capability = 0.011; // measured 10 % failure point of small_test
    let rp = ReadRetryPredictor::for_capability(&code, capability);
    let rbers = [0.004, 0.006, 0.018, 0.022, 0.026];
    let rp_path = |noisy: &BitVec| rp.predict(&code.rearrange(noisy)).retry_needed;
    let [points] = measure_accuracy(&code, [&rp_path], &rbers, 60, 2, 1);
    let above = mean_accuracy_above(&points, capability);
    assert!(above > 0.93, "accuracy above capability {above}");
    // Below the capability RP rarely fires falsely.
    assert!(points[0].false_retry_rate < 0.05);
    assert!(points[1].false_retry_rate < 0.10);
}

#[test]
fn odear_engine_outputs_always_decode_after_in_die_retry() {
    let engine = OdearEngine::new(QcLdpcCode::small_test(), ErrorModel::calibrated());
    let decoder = MinSumDecoder::new(engine.code());
    let mut rng = SimRng::seed_from(3);
    let page: Vec<BitVec> = (0..4)
        .map(|_| {
            engine
                .code()
                .encode(&BitVec::random(engine.code().data_bits(), &mut rng))
        })
        .collect();
    let mut retried = 0;
    for day in [18, 22, 26, 30] {
        let out = engine.read_page(
            &page,
            OperatingPoint::new(2000, day as f64),
            BlockProfile::median(),
            PageKind::Csb,
            &mut rng,
        );
        if out.retried {
            retried += 1;
            for chunk in &out.transferred {
                assert!(
                    decoder.decode(&engine.code().restore(chunk)).success,
                    "day {day}: retried data failed off-chip decode"
                );
            }
        }
    }
    assert!(
        retried >= 3,
        "expected most aged reads to retry, got {retried}"
    );
}

#[test]
fn swift_read_voltages_keep_pages_decodable_for_a_month() {
    // RVS (§IV-C) must pick references that keep every page kind decodable
    // across the refresh horizon at end-of-life wear.
    let model = TlcModel::calibrated();
    let rvs = ReadVoltageSelector::new(model.clone());
    let mut rng = SimRng::seed_from(5);
    for day in [10.0, 20.0, 30.0] {
        for kind in PageKind::ALL {
            let op = OperatingPoint::new(2000, day);
            let refs = rvs.select(op, 1.0, kind, &mut rng);
            let rber = model.rber(op, 1.0, refs.as_array(), kind);
            assert!(
                rber < 0.0085,
                "day {day} {kind}: RVS-selected RBER {rber} above capability"
            );
        }
    }
}

#[test]
fn behavior_model_matches_engine_retry_rate() {
    // The event-level simulator replaces the bit-level engine with
    // RpBehavior; their retry rates must agree within Monte-Carlo noise.
    let engine = OdearEngine::new(QcLdpcCode::small_test(), ErrorModel::calibrated());
    let behavior = RpBehavior::from_predictor(engine.rp());
    let model = ErrorModel::calibrated();
    let mut rng = SimRng::seed_from(7);
    let page: Vec<BitVec> = (0..4)
        .map(|_| {
            engine
                .code()
                .encode(&BitVec::random(engine.code().data_bits(), &mut rng))
        })
        .collect();
    let op = OperatingPoint::new(1000, 12.0);
    let block = BlockProfile::median();
    let rber = model.rber_default(block, op, PageKind::Msb);

    let trials = 120;
    let engine_rate = (0..trials)
        .filter(|_| {
            engine
                .read_page(&page, op, block, PageKind::Msb, &mut rng)
                .retried
        })
        .count() as f64
        / trials as f64;
    let model_rate = behavior.retry_probability(rber);
    assert!(
        (engine_rate - model_rate).abs() < 0.15,
        "engine {engine_rate} vs behavioural {model_rate} at rber {rber}"
    );
}

#[test]
fn energy_model_net_win_at_observed_retry_rates() {
    // Tie §VI-C to the simulator: at the uncorrectable-read rates the
    // SENC run exhibits at 2K P/E, the RP module saves net energy.
    let mut cfg = WorkloadProfile::by_name("Ali124")
        .expect("workload")
        .config();
    cfg.mean_interarrival_ns = 2_500.0;
    let trace = cfg.generate(400, 9);
    let report = Simulator::new(SsdConfig::small(RetryKind::IdealOne, 2000)).run(&trace);
    let uncor_rate = report.uncor_page_transfers as f64 / report.page_senses as f64;
    let ppa = PpaModel::paper();
    assert!(
        uncor_rate > ppa.break_even_retry_rate() * 10.0,
        "retry rate {uncor_rate} unexpectedly low"
    );
    assert!(ppa.net_energy_nj(report.page_senses, uncor_rate) < 0.0);
}
