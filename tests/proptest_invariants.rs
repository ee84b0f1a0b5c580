//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use rif::flash::swift_read::SwiftRead;
use rif::ldpc::bits::BitVec;
use rif::ldpc::decoder::MinSumDecoder;
use rif::prelude::*;
use rif::workloads::stats::TraceStats;

fn bitvec_strategy(len: usize) -> impl Strategy<Value = BitVec> {
    prop::collection::vec(any::<u64>(), len / 64).prop_map(move |words| {
        let mut v = BitVec::zeros(len);
        for (i, w) in words.iter().enumerate() {
            for b in 0..64 {
                if (w >> b) & 1 == 1 {
                    v.set(i * 64 + b, true);
                }
            }
        }
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn rotate_roundtrips(v in bitvec_strategy(1024), s in 0usize..4096) {
        prop_assert_eq!(v.rotate_left(s).rotate_right(s), v.clone());
        prop_assert_eq!(v.rotate_left(s).count_ones(), v.count_ones());
    }

    #[test]
    fn xor_is_involutive(a in bitvec_strategy(512), b in bitvec_strategy(512)) {
        let mut c = a.clone();
        c.xor_assign(&b);
        c.xor_assign(&b);
        prop_assert_eq!(c, a);
    }

    #[test]
    fn encode_always_satisfies_checks(seed in any::<u64>()) {
        let code = QcLdpcCode::small_test();
        let mut rng = SimRng::seed_from(seed);
        let data = BitVec::random(code.data_bits(), &mut rng);
        let cw = code.encode(&data);
        prop_assert!(code.check(&cw));
        prop_assert_eq!(code.extract_data(&cw), data);
    }

    #[test]
    fn rearrangement_preserves_pruned_weight(seed in any::<u64>(), flips in 0usize..64) {
        let code = QcLdpcCode::small_test();
        let mut rng = SimRng::seed_from(seed);
        let mut cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
        for _ in 0..flips {
            cw.flip(rng.index(code.n()));
        }
        let direct = code.pruned_syndrome_weight(&cw);
        let via_hw = code.pruned_weight_rearranged(&code.rearrange(&cw));
        prop_assert_eq!(direct, via_hw);
        prop_assert_eq!(code.restore(&code.rearrange(&cw)), cw);
    }

    #[test]
    fn restore_inverts_rearrange_on_any_word(v in bitvec_strategy(2304)) {
        let code = QcLdpcCode::small_test();
        prop_assert_eq!(code.restore(&code.rearrange(&v)), v.clone());
        prop_assert_eq!(code.rearrange(&code.restore(&v)), v);
    }

    #[test]
    fn check_accepts_exactly_the_zero_syndrome_words(seed in any::<u64>(), flips in 0usize..3) {
        let code = QcLdpcCode::small_test();
        let mut rng = SimRng::seed_from(seed);
        let mut word = code.encode(&BitVec::random(code.data_bits(), &mut rng));
        prop_assert!(code.check(&word));
        for _ in 0..flips {
            word.flip(rng.index(code.n()));
        }
        prop_assert_eq!(code.check(&word), code.syndrome(&word).is_zero());
        let random = BitVec::random(code.n(), &mut rng);
        prop_assert_eq!(code.check(&random), code.syndrome(&random).is_zero());
    }

    #[test]
    fn minsum_corrects_small_error_bursts(seed in any::<u64>(), k in 0usize..6) {
        let code = QcLdpcCode::small_test();
        let dec = MinSumDecoder::new(&code);
        let mut rng = SimRng::seed_from(seed);
        let cw = code.encode(&BitVec::random(code.data_bits(), &mut rng));
        let noisy = Bsc::corrupt_exact(&cw, k, &mut rng);
        let out = dec.decode(&noisy);
        prop_assert!(out.success, "failed on {} errors", k);
        prop_assert_eq!(out.decoded, cw);
    }

    #[test]
    fn rber_monotone_in_stress(
        pe in 0u32..3000,
        day_lo in 0.0f64..15.0,
        extra in 0.1f64..15.0,
        factor in 0.6f64..2.0,
    ) {
        let model = ErrorModel::calibrated();
        let block = BlockProfile { factor };
        let lo = model.rber_avg_default(block, OperatingPoint::new(pe, day_lo));
        let hi = model.rber_avg_default(block, OperatingPoint::new(pe, day_lo + extra));
        prop_assert!(hi >= lo, "RBER decreased with retention: {} -> {}", lo, hi);
    }

    #[test]
    fn optimal_refs_never_worse_than_default(
        pe in 0u32..3000,
        day in 0.0f64..30.0,
        factor in 0.6f64..2.0,
    ) {
        let model = ErrorModel::calibrated();
        let block = BlockProfile { factor };
        let op = OperatingPoint::new(pe, day);
        for kind in PageKind::ALL {
            let d = model.rber_default(block, op, kind);
            let o = model.rber_optimal(block, op, kind);
            // Small numerical slack: "optimal" is the per-reference
            // equal-density point, which is optimal up to integration error.
            prop_assert!(o <= d * 1.05 + 1e-9, "{kind}: optimal {o} vs default {d}");
        }
    }

    /// The `_with` forms a read group prices from its held V_TH state are
    /// bit for bit the `(block, op)` forms, random draws included.
    #[test]
    fn state_param_forms_match_block_op_forms(
        pe_cycles in 0u32..4501,
        retention_days in 0.0f64..60.0,
        reads in 0u64..1_000_000,
        factor in 0.55f64..2.2,
        kind in 0usize..3,
        seed in any::<u64>(),
    ) {
        let model = ErrorModel::calibrated();
        let swift = SwiftRead::new(model.tlc().clone());
        let block = BlockProfile { factor };
        let op = OperatingPoint { pe_cycles, retention_days, reads };
        let kind = PageKind::ALL[kind];
        let params = model.state_params(block, op);
        let (mut a, mut b) = (SimRng::seed_from(seed), SimRng::seed_from(seed));
        let by_op = swift.observe_ones(op, factor, kind, 131_072, &mut a);
        let held = swift.observe_ones_with(&params, kind, 131_072, &mut b);
        prop_assert_eq!(by_op.to_bits(), held.to_bits());
        prop_assert_eq!(a.next_u64(), b.next_u64());
        prop_assert_eq!(
            model.optimal_offset(block, op).to_bits(),
            model.optimal_offset_with(&params).to_bits()
        );
    }

    #[test]
    fn trace_generator_respects_ratios(
        rr in 0.1f64..0.95,
        cr in 0.1f64..0.9,
        seed in any::<u64>(),
    ) {
        let cfg = SynthConfig {
            read_ratio: rr,
            cold_read_ratio: cr,
            ..SynthConfig::default()
        };
        let trace = cfg.generate(1500, seed);
        let stats = TraceStats::compute(&trace);
        prop_assert!((stats.read_ratio - rr).abs() < 0.08);
        prop_assert!((stats.cold_read_ratio - cr).abs() < 0.10);
    }

    #[test]
    fn retry_probability_monotone(rber_lo in 0.0f64..0.02, delta in 0.0f64..0.01) {
        let rp = RpBehavior::paper_default();
        prop_assert!(rp.retry_probability(rber_lo + delta) >= rp.retry_probability(rber_lo) - 1e-12);
    }

    #[test]
    fn ecc_model_probabilities_valid(rber in 0.0f64..0.05) {
        let ecc = EccModel::paper_default();
        let p = ecc.failure_probability(rber);
        prop_assert!((0.0..=1.0).contains(&p));
        let it = ecc.avg_iterations(rber);
        prop_assert!((1.0..=20.0 + 1e-9).contains(&it));
        let t = ecc.t_ecc(rber).as_us();
        prop_assert!((1.0 - 1e-6..=20.0 + 1e-6).contains(&t));
    }

    #[test]
    fn histogram_percentiles_are_monotone(
        latencies in prop::collection::vec(1u64..10_000_000, 1..200),
    ) {
        let mut h = rif_events::LatencyHistogram::new();
        for &ns in &latencies {
            h.record(SimDuration::from_ns(ns));
        }
        let mut last = SimDuration::ZERO;
        for q in [1.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            let p = h.percentile(q).unwrap();
            prop_assert!(p >= last, "percentile {} not monotone", q);
            last = p;
        }
    }

    #[test]
    fn ftl_mapping_is_stable_under_interleaved_ops(ops in prop::collection::vec((any::<bool>(), 0u64..64), 1..200)) {
        use rif::ssd::ftl::Ftl;
        let mut ftl = Ftl::new(FlashGeometry::small());
        let mut last_write = std::collections::HashMap::new();
        for (is_write, slot) in ops {
            if is_write {
                let loc = ftl.write(slot).loc;
                last_write.insert(slot, loc);
            } else {
                let loc = ftl.locate_read(slot);
                if let Some(&w) = last_write.get(&slot) {
                    prop_assert_eq!(loc, w, "read did not see the latest write");
                }
                // Reading twice yields the same location.
                prop_assert_eq!(ftl.locate_read(slot), loc);
            }
        }
    }
}
