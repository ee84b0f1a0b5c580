//! Per-slot state without hashing.
//!
//! Slots are small dense integers the simulator computes itself, so a
//! slot's state can sit at a computed address. [`SlotTable`] pages the
//! slot space: a flat directory indexed by page number (`slot >> 12`)
//! points at 4096-entry leaves, each allocated on the first write into
//! its range and filled with the table's sentinel, which reads as "never
//! written". The directory costs 8 bytes per page up to the highest page
//! written: 8 MiB at slot 2^32, the last 64-KiB slot below the 2^48-byte
//! bound `Simulator::submit` holds every request to.

/// Slots per leaf, as a power of two.
const PAGE_BITS: u32 = 12;
const PAGE: usize = 1 << PAGE_BITS;

/// A slot map whose absent entries hold a sentinel value.
#[derive(Debug, Clone)]
pub(crate) struct SlotTable<T> {
    dir: Vec<Option<Box<[T; PAGE]>>>,
    empty: T,
}

impl<T: Copy + PartialEq> SlotTable<T> {
    /// An empty table with sentinel `empty`; allocates nothing yet.
    pub(crate) fn new(empty: T) -> Self {
        SlotTable {
            dir: Vec::new(),
            empty,
        }
    }

    /// The value at `slot`, if one was written.
    #[inline]
    pub(crate) fn get(&self, slot: u64) -> Option<T> {
        let v = match self.dir.get((slot >> PAGE_BITS) as usize) {
            Some(Some(leaf)) => leaf[slot as usize & (PAGE - 1)],
            _ => return None,
        };
        (v != self.empty).then_some(v)
    }

    /// Sets `slot` to `value` (the sentinel clears it) and returns what
    /// it held.
    ///
    /// # Panics
    ///
    /// Panics when `slot` is 2^48 or more: no request within the
    /// simulator's byte bound names one.
    #[inline]
    pub(crate) fn insert(&mut self, slot: u64, value: T) -> Option<T> {
        let p = (slot >> PAGE_BITS) as usize;
        if p >= self.dir.len() {
            assert!(slot >> 48 == 0, "slot {slot} past the 2^48 slot bound");
            self.dir.resize_with(p + 1, || None);
        }
        let empty = self.empty;
        let leaf = self.dir[p].get_or_insert_with(|| {
            let leaf = vec![empty; PAGE].into_boxed_slice();
            leaf.try_into().unwrap_or_else(|_| unreachable!())
        });
        let old = std::mem::replace(&mut leaf[slot as usize & (PAGE - 1)], value);
        (old != empty).then_some(old)
    }

    /// Clears `slot` and returns what it held; never allocates.
    #[inline]
    pub(crate) fn remove(&mut self, slot: u64) -> Option<T> {
        self.get(slot)?;
        self.insert(slot, self.empty)
    }

    /// Every slot holding a value, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, T)> + '_ {
        let leaves = self.dir.iter().enumerate();
        let leaves = leaves.filter_map(|(p, leaf)| Some(((p as u64) << PAGE_BITS, leaf.as_ref()?)));
        leaves.flat_map(move |(base, leaf)| {
            let entries = leaf.iter().enumerate();
            entries.filter_map(move |(i, &v)| (v != self.empty).then_some((base + i as u64, v)))
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    const EMPTY: u64 = u64::MAX;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_a_btreemap(
            ops in prop::collection::vec((0usize..4, 0u64..48, 0u64..8), 1..300)
        ) {
            let mut table = SlotTable::new(EMPTY);
            let mut model = BTreeMap::new();
            for (band, off, v) in ops {
                // Within 24 slots of the start, the first two leaf
                // boundaries, or 2^32 (a 64-KiB-slot device's 2^48-byte
                // bound ends at slot 2^32 − 1): narrow, so writes often
                // land on written slots.
                let s = [24, PAGE as u64, 2 * PAGE as u64, 1 << 32][band] - 24 + off;
                let (got, want) = match v {
                    1 | 4 | 7 => (table.remove(s), model.remove(&s)),
                    // A write of the sentinel: back to "never written".
                    0 => (table.insert(s, EMPTY), model.remove(&s)),
                    _ => (table.insert(s, v * 100 + off), model.insert(s, v * 100 + off)),
                };
                prop_assert_eq!(got, want, "slot {}", s);
                prop_assert_eq!(table.get(s), model.get(&s).copied());
            }
            prop_assert_eq!(table.iter().collect::<Vec<_>>(), model.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn reads_allocate_nothing_and_the_bound_is_enforced() {
        let mut t = SlotTable::new(EMPTY);
        assert_eq!((t.get(1 << 40), t.remove(1 << 40)), (None, None));
        assert!(t.dir.is_empty());
        t.insert(PAGE as u64, 7);
        assert!(t.dir[0].is_none(), "an untouched leaf was allocated");
        let refused = std::panic::catch_unwind(move || t.insert(1 << 48, 1));
        assert!(refused.is_err(), "slot 2^48 was accepted");
    }
}
