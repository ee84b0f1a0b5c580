//! Fingerprint pins for synthetic trace generation.
//!
//! Each case hashes every request `SynthConfig::generate` produces —
//! arrival, op, offset and length — with FNV-1a and compares the hash to
//! a constant. The constants were recorded before the generator's
//! sampler, written-slot set and CDF sharing were optimised, so a speed
//! change to synthesis that moves a single request fails here without
//! running a simulator. The cases cover the default mix, the write-heavy
//! background-path shape, every Table II profile at the saturating 3-µs
//! inter-arrival, the all-reads fall-back, and the Zipf exponent's
//! extremes (uniform, and s = 4 whose CDF has long plateaus).

use rif_workloads::profiles::PAPER_WORKLOADS;
use rif_workloads::{IoOp, SynthConfig, Trace};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(trace: &Trace) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for r in trace {
        eat(&r.arrival.as_ns().to_le_bytes());
        eat(&[match r.op {
            IoOp::Read => 0,
            IoOp::Write => 1,
        }]);
        eat(&r.offset.to_le_bytes());
        eat(&r.bytes.to_le_bytes());
    }
    h
}

/// Asserts every `(name, config, requests, seed, fnv)` case, reporting
/// all mismatches at once.
fn check(cases: &[(&str, SynthConfig, usize, u64, u64)]) {
    let wrong: Vec<String> = cases
        .iter()
        .filter_map(|(name, cfg, n, seed, want)| {
            let trace = cfg.generate(*n, *seed);
            assert_eq!(trace.len(), *n, "{name}");
            let got = fnv1a(&trace);
            (got != *want).then(|| format!("{name}: got {got:#018x}, pinned {want:#018x}"))
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "trace fingerprints moved:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn default_mix_is_pinned_at_two_seeds() {
    check(&[
        (
            "default/seed1",
            SynthConfig::default(),
            20_000,
            1,
            0x1568_3303_dda7_2d29,
        ),
        (
            "default/seed2",
            SynthConfig::default(),
            20_000,
            2,
            0x03ed_8ebd_2a37_e2b5,
        ),
    ]);
}

#[test]
fn write_heavy_background_shape_is_pinned() {
    let cfg = SynthConfig {
        read_ratio: 0.27,
        cold_read_ratio: 0.50,
        hot_region_bytes: 512 << 20,
        cold_region_bytes: 2 << 30,
        mean_interarrival_ns: 40_000.0,
        ..SynthConfig::default()
    };
    check(&[("write_bg", cfg, 50_000, 1, 0x8265_ec1f_41de_fab5)]);
}

#[test]
fn every_table_ii_profile_is_pinned_at_saturating_load() {
    const PINS: [u64; 8] = [
        0x80fa_977c_0c44_4c18, // Ali2
        0x1362_562e_fe0c_a6ac, // Ali46
        0x6ded_13ba_7dd3_c56c, // Ali81
        0x2838_ca12_8697_84eb, // Ali121
        0xdf92_22ce_35b0_4fd4, // Ali124
        0x21ab_c4fd_70dd_e291, // Ali295
        0xf622_2044_da42_73ea, // Sys0
        0xc73a_f230_a88c_d30d, // Sys1
    ];
    let cases: Vec<_> = PAPER_WORKLOADS
        .iter()
        .zip(PINS)
        .enumerate()
        .map(|(i, (w, pin))| {
            let mut cfg = w.config();
            cfg.mean_interarrival_ns = 3_000.0;
            (w.name, cfg, 10_000, 7 + i as u64, pin)
        })
        .collect();
    check(&cases);
}

#[test]
fn zipf_extremes_and_all_reads_are_pinned() {
    let with_s = |zipf_s| SynthConfig {
        zipf_s,
        ..SynthConfig::default()
    };
    let all_reads = SynthConfig {
        read_ratio: 1.0,
        cold_read_ratio: 0.3,
        ..SynthConfig::default()
    };
    check(&[
        ("zipf0", with_s(0.0), 20_000, 3, 0x1563_b578_5517_b687),
        ("zipf4", with_s(4.0), 20_000, 4, 0x1bfb_4ec1_603c_f84b),
        ("all_reads", all_reads, 20_000, 5, 0xd51f_c214_f8fc_faa2),
    ]);
}
