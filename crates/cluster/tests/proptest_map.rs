//! Property suite for the versioned shard map (a plain integration test
//! on the vendored proptest shim; it runs under `cargo test`).
//!
//! Invariants under test:
//!
//! * rendezvous stability — a node join moves ranges only *onto* the new
//!   node; a node leave moves only the ranges the dead node owned;
//! * full LBA-space coverage with no overlaps at every epoch;
//! * `parse_text(to_text())` is the identity, and mutated texts either
//!   still parse to the same map or are rejected with a typed error —
//!   never a panic, never a silently different map;
//! * replicated maps (`R >= 2`): a range's primary is never in its own
//!   follower set, follower sets are duplicate-free and sized
//!   `min(R, nodes) - 1`, routing over replicas stays total, losing a
//!   primary promotes one of its *own* followers (locality), and the
//!   text codec round-trips the replica fields.

use proptest::prelude::*;
use rif_cluster::{NodeInfo, ShardMap};

/// `n` nodes with distinct single-letter-ish ids and distinct ports.
fn nodes(n: usize) -> Vec<NodeInfo> {
    (0..n)
        .map(|i| NodeInfo {
            id: format!("n{i:02}"),
            addr: format!("127.0.0.1:{}", 4000 + i),
        })
        .collect()
}

fn arb_map() -> impl Strategy<Value = ShardMap> {
    (1usize..6, 1u32..24, 0u64..3, 1u64..1_000_000).prop_map(|(n, ranges, epoch, cap_seed)| {
        let capacity = ranges as u64 + cap_seed * 4096;
        ShardMap::rebalanced(epoch, capacity, ranges, nodes(n)).expect("valid map inputs")
    })
}

/// Like [`arb_map`] but with a replication factor in `2..=4` (follower
/// sets shrink when the cluster is smaller than `R`).
fn arb_replicated_map() -> impl Strategy<Value = ShardMap> {
    (2usize..7, 1u32..24, 0u64..3, 2u32..5, 1u64..1_000_000).prop_map(
        |(n, ranges, epoch, replicas, cap_seed)| {
            let capacity = ranges as u64 + cap_seed * 4096;
            ShardMap::replicated(epoch, capacity, ranges, nodes(n), replicas)
                .expect("valid replicated map inputs")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn serialize_parse_is_identity(m in arb_map()) {
        let text = m.to_text();
        prop_assert_eq!(ShardMap::parse_text(&text).unwrap(), m.clone());
        // A second trip is byte-stable.
        prop_assert_eq!(ShardMap::parse_text(&text).unwrap().to_text(), text);
    }

    #[test]
    fn every_range_has_exactly_one_owner(m in arb_map()) {
        let mut covered = vec![0u32; m.ranges as usize];
        for node in &m.nodes {
            for r in m.owned_ranges(&node.id) {
                covered[r as usize] += 1;
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1), "coverage {covered:?}");
        // Routing always lands inside the grid and on the assigned owner.
        for probe in 0..64u64 {
            let offset = probe.wrapping_mul(0x9E37_79B9) % (4 * m.capacity_bytes.max(1));
            let (range, node) = m.route(offset);
            prop_assert!(range < m.ranges);
            prop_assert_eq!(&m.nodes[m.assignment[range as usize]].id, &node.id);
        }
    }

    #[test]
    fn node_join_moves_ranges_only_onto_the_new_node(
        n in 1usize..5, ranges in 1u32..24, cap_seed in 1u64..1000
    ) {
        let capacity = ranges as u64 * 4096 * cap_seed;
        let before = ShardMap::rebalanced(1, capacity, ranges, nodes(n)).unwrap();
        let mut joined = nodes(n);
        joined.push(NodeInfo { id: "zz-new".into(), addr: "127.0.0.1:9999".into() });
        let after = ShardMap::rebalanced(2, capacity, ranges, joined).unwrap();
        for r in 0..ranges {
            let (b, a) = (before.node_of(r).id.clone(), after.node_of(r).id.clone());
            prop_assert!(a == b || a == "zz-new", "range {r} moved {b} -> {a}, not to the joiner");
        }
    }

    #[test]
    fn node_leave_moves_only_the_dead_nodes_ranges(
        n in 2usize..6, ranges in 1u32..24, dead in 0usize..6, cap_seed in 1u64..1000
    ) {
        let dead = dead % n;
        let capacity = ranges as u64 * 4096 * cap_seed;
        let before = ShardMap::rebalanced(1, capacity, ranges, nodes(n)).unwrap();
        let dead_id = before.nodes[dead].id.clone();
        let after = before.without_node(&dead_id).unwrap();
        prop_assert_eq!(after.epoch, before.epoch + 1);
        for r in 0..ranges {
            let b = before.node_of(r).id.clone();
            let a = after.node_of(r).id.clone();
            if b == dead_id {
                prop_assert!(a != dead_id, "range {r} still on the dead node");
            } else {
                prop_assert_eq!(a, b, "surviving range {r} moved needlessly");
            }
        }
    }

    #[test]
    fn mutated_text_never_parses_to_a_different_map(m in arb_map(), cut in any::<u64>()) {
        let text = m.to_text();
        // Truncate at an arbitrary byte boundary: either still the same
        // map (cut landed past the content) or a typed error.
        let cut = (cut % (text.len() as u64 + 1)) as usize;
        let cut = (0..=cut).rev().find(|&i| text.is_char_boundary(i)).unwrap_or(0);
        match ShardMap::parse_text(&text[..cut]) {
            Ok(parsed) => prop_assert_eq!(parsed, m.clone()),
            Err(_) => {}
        }
        // Flipping the epoch field is visible, not silently ignored.
        let bumped = text.replacen(
            &format!("epoch={}", m.epoch),
            &format!("epoch={}", m.epoch + 7),
            1,
        );
        let reparsed = ShardMap::parse_text(&bumped).unwrap();
        prop_assert_eq!(reparsed.epoch, m.epoch + 7);
    }

    #[test]
    fn replica_sets_are_well_formed(m in arb_replicated_map()) {
        let want = (m.replicas as usize).min(m.nodes.len()) - 1;
        for r in 0..m.ranges {
            let primary = m.node_of(r).id.clone();
            let followers: Vec<String> =
                m.followers_of(r).iter().map(|n| n.id.clone()).collect();
            prop_assert!(
                !followers.contains(&primary),
                "range {r}: primary {primary} follows itself"
            );
            let mut dedup = followers.clone();
            dedup.sort();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), followers.len(), "range {r}: duplicate follower");
            prop_assert_eq!(followers.len(), want, "range {r}: wrong follower count");
        }
    }

    #[test]
    fn routing_is_total_over_replicas(m in arb_replicated_map()) {
        // Every offset routes to a range whose replica list is
        // non-empty, primary-first, and all-distinct — so a router may
        // pick *any* index `pref % len` and land on a real node.
        for probe in 0..64u64 {
            let offset = probe.wrapping_mul(0x9E37_79B9) % (4 * m.capacity_bytes.max(1));
            let (range, primary) = m.route(offset);
            let replicas = m.replicas_of(range);
            prop_assert!(!replicas.is_empty());
            prop_assert_eq!(&replicas[0].id, &primary.id);
            let mut ids: Vec<&str> = replicas.iter().map(|n| n.id.as_str()).collect();
            ids.sort();
            ids.dedup();
            prop_assert_eq!(ids.len(), replicas.len(), "replica list has duplicates");
        }
    }

    #[test]
    fn losing_a_primary_promotes_one_of_its_own_followers(
        m in arb_replicated_map(), dead in 0usize..8
    ) {
        let dead_id = m.nodes[dead % m.nodes.len()].id.clone();
        let after = m.without_node(&dead_id).unwrap();
        prop_assert_eq!(after.epoch, m.epoch + 1);
        for r in 0..m.ranges {
            let b = m.node_of(r).id.clone();
            let old_followers: Vec<String> =
                m.followers_of(r).iter().map(|n| n.id.clone()).collect();
            let a = after.node_of(r).id.clone();
            if b == dead_id {
                // Promotion keeps locality: the shipped replica wins
                // whenever one survived.
                if old_followers.iter().any(|f| *f != dead_id) {
                    prop_assert!(
                        old_followers.contains(&a),
                        "range {r}: promoted {a}, not a surviving follower of {b}"
                    );
                }
                prop_assert!(a != dead_id, "range {r} still on the dead node");
            } else {
                prop_assert_eq!(&a, &b, "surviving range {r} moved needlessly");
            }
            // The promoted map is itself well-formed.
            let new_followers: Vec<String> =
                after.followers_of(r).iter().map(|n| n.id.clone()).collect();
            prop_assert!(!new_followers.contains(&a), "range {r}: new primary follows itself");
            prop_assert!(
                !new_followers.contains(&dead_id),
                "range {r}: dead node still follows"
            );
        }
    }

    #[test]
    fn replicated_text_round_trips_and_r1_stays_legacy(m in arb_replicated_map()) {
        // Replica fields survive the canonical codec byte-for-byte.
        let text = m.to_text();
        let parsed = ShardMap::parse_text(&text).unwrap();
        prop_assert_eq!(parsed.clone(), m.clone());
        prop_assert_eq!(parsed.to_text(), text.clone());
        if m.nodes.len() > 1 {
            prop_assert!(text.contains("replicas="), "replicated map hides its R");
            prop_assert!(text.contains("\nfollow "), "replicated map lost follow lines");
        }
        // An R = 1 map over the same fleet serializes exactly as maps
        // did before replication existed: no replica vocabulary at all.
        let legacy = ShardMap::rebalanced(
            m.epoch, m.capacity_bytes, m.ranges, m.nodes.clone()
        ).unwrap();
        let legacy_text = legacy.to_text();
        prop_assert!(!legacy_text.contains("replicas="));
        prop_assert!(!legacy_text.contains("\nfollow "));
        prop_assert_eq!(ShardMap::parse_text(&legacy_text).unwrap(), legacy);
    }
}
