//! Property-based tests over the FTL's allocation, GC and SLC-cache
//! migration invariants (DESIGN §14), at cache fractions from none to
//! half the write region: across arbitrary interleavings of writes,
//! migrations and the GC they trigger, no slot is ever lost or
//! duplicated, the mapping stays total, and the cache never exceeds its
//! configured capacity.

use proptest::prelude::*;
use rif::flash::FlashGeometry;
use rif::ssd::ftl::Ftl;

/// A geometry small enough that random workloads exercise GC, forced
/// evictions and SLC block reclamation within a few hundred operations,
/// yet with enough capacity-region headroom that no legal interleaving
/// of the ops below can overflow it (worst-case round-robin die skew
/// puts every live slot on one die).
fn tiny_geometry() -> FlashGeometry {
    FlashGeometry {
        channels: 2,
        dies_per_channel: 1,
        planes_per_die: 4,
        blocks_per_plane: 32,
        pages_per_block: 4,
        page_bytes: 16 * 1024,
    }
}

/// One step of the random workload.
#[derive(Debug, Clone, Copy)]
enum HybridOp {
    Write(u64),
    Migrate(u64),
    Read(u64),
    DrainBatch(usize),
}

/// Decodes a raw `(kind, payload)` draw into an op over `slots` slots.
/// Writes dominate so the cache fills; explicit migrations, reads and
/// batch drains interleave with them.
fn decode_op((kind, payload): (u64, u64), slots: u64) -> HybridOp {
    match kind {
        0..=3 => HybridOp::Write(payload % slots),
        4 | 5 => HybridOp::Migrate(payload % slots),
        6 | 7 => HybridOp::Read(payload % slots),
        _ => HybridOp::DrainBatch(1 + (payload % 15) as usize),
    }
}

fn apply(ftl: &mut Ftl, op: HybridOp) {
    match op {
        HybridOp::Write(s) => {
            ftl.write(s);
        }
        HybridOp::Migrate(s) => {
            ftl.migrate(s);
        }
        HybridOp::Read(s) => {
            ftl.locate_read(s);
        }
        HybridOp::DrainBatch(b) => {
            for s in ftl.migration_candidates(b) {
                ftl.migrate(s);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full integrity audit holds after every single operation of an
    /// arbitrary interleaving: mapping totality, no duplicated physical
    /// locations, live tables consistent, cache membership exact, and
    /// occupancy within capacity.
    #[test]
    fn interleavings_preserve_all_invariants(
        frac_tenths in 0u32..6,
        raw_ops in prop::collection::vec((0u64..9, any::<u64>()), 1..300),
    ) {
        let mut ftl = Ftl::with_cache(tiny_geometry(), f64::from(frac_tenths) / 10.0);
        for (i, &raw) in raw_ops.iter().enumerate() {
            let op = decode_op(raw, 20);
            apply(&mut ftl, op);
            if let Err(e) = ftl.check_integrity() {
                panic!("after op {i} {op:?}: {e}");
            }
        }
    }

    /// No slot is lost or duplicated: after any interleaving, every slot
    /// ever touched resolves to exactly one location, and no two slots
    /// share one.
    #[test]
    fn no_slot_lost_or_duplicated(
        frac_tenths in 0u32..6,
        raw_ops in prop::collection::vec((0u64..9, any::<u64>()), 1..250),
    ) {
        let mut ftl = Ftl::with_cache(tiny_geometry(), f64::from(frac_tenths) / 10.0);
        let mut touched = std::collections::BTreeSet::new();
        for &raw in &raw_ops {
            let op = decode_op(raw, 16);
            if let HybridOp::Write(s) | HybridOp::Read(s) = op {
                touched.insert(s);
            }
            apply(&mut ftl, op);
        }
        let mut seen = std::collections::BTreeSet::new();
        for &s in &touched {
            let loc = ftl.locate_read(s);
            prop_assert!(
                seen.insert((loc.die_linear, loc.block, loc.page)),
                "slot {s} shares {loc:?} with another slot"
            );
        }
        prop_assert_eq!(ftl.touched().len(), touched.len());
    }

    /// Cache occupancy never exceeds the configured capacity, even under
    /// pure write pressure that forces evictions.
    #[test]
    fn cache_occupancy_never_exceeds_capacity(
        frac_tenths in 0u32..6,
        writes in prop::collection::vec(0u64..24, 1..400),
    ) {
        let mut ftl = Ftl::with_cache(tiny_geometry(), f64::from(frac_tenths) / 10.0);
        for &s in &writes {
            ftl.write(s);
            prop_assert!(ftl.cached_slots() <= ftl.cache_capacity_slots());
            prop_assert!(ftl.cache_occupancy() <= 1.0 + 1e-12);
        }
        if let Err(e) = ftl.check_integrity() {
            panic!("after write burst: {e}");
        }
    }

    /// Migration is conservative: draining every cache resident empties
    /// the cache without touching any non-cached slot's mapping.
    #[test]
    fn full_drain_empties_cache_and_preserves_mappings(
        writes in prop::collection::vec(0u64..24, 1..150),
    ) {
        let mut ftl = Ftl::with_cache(tiny_geometry(), 0.5);
        for &s in &writes {
            ftl.write(s);
        }
        let uncached: Vec<u64> = ftl
            .touched()
            .iter()
            .copied()
            .filter(|&s| !ftl.is_cached(s))
            .collect();
        let before: Vec<(u64, _)> = uncached
            .into_iter()
            .map(|s| (s, ftl.locate_read(s)))
            .collect();
        loop {
            let batch = ftl.migration_candidates(64);
            if batch.is_empty() {
                break;
            }
            for s in batch {
                ftl.migrate(s);
            }
        }
        prop_assert_eq!(ftl.cached_slots(), 0);
        prop_assert!(ftl.cache_occupancy().abs() < 1e-12);
        for (s, loc) in before {
            prop_assert_eq!(ftl.locate_read(s), loc, "migration moved uncached slot {}", s);
        }
        if let Err(e) = ftl.check_integrity() {
            panic!("after full drain: {e}");
        }
    }
}
