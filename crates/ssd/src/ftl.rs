//! Slot-granular flash translation layer.
//!
//! The simulator works on 64-KiB *slots*: one multi-plane page group (the
//! same block/page address across all planes of one die), which is both
//! the unit the paper's root-cause analysis reads (§III-B3) and the unit
//! our traces address. The FTL maps logical slots to physical locations,
//! stripes cold data and writes across dies for parallelism, allocates
//! out-of-place on writes, and reclaims space with greedy garbage
//! collection (relocations are on-die copyback operations whose timing the
//! simulator charges to the owning die).
//!
//! There is one FTL. Each die's write half is a capacity [`Region`] plus,
//! when built [`Ftl::with_cache`], an SLC-mode cache region in front of
//! it: writes land in the cache and a migration policy (the simulator's
//! background scheduler, DESIGN §14) drains them to capacity blocks by
//! on-die copyback. [`Ftl::new`] has no cache region — the paper's plain
//! device — and runs the very same allocation and GC code.

use std::collections::{HashSet, VecDeque};
use std::ops::Range;

use rif_flash::geometry::{FlashGeometry, PageKind};

use crate::hybrid::CellMode;
use crate::table::SlotTable;

/// A physical slot location: all planes of die `die_linear`, at
/// (`block`, `page`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotLocation {
    /// Global die index in `[0, channels · dies_per_channel)`.
    pub die_linear: usize,
    /// Block index within each plane.
    pub block: usize,
    /// Page index within the block.
    pub page: usize,
}

impl SlotLocation {
    /// The channel this die sits on.
    pub fn channel(&self, g: &FlashGeometry) -> usize {
        self.die_linear % g.channels
    }

    /// A globally unique block identifier (for process-variation hashing
    /// and read-disturb counting).
    pub fn global_block(&self, g: &FlashGeometry) -> u64 {
        self.die_linear as u64 * g.blocks_per_plane as u64 + self.block as u64
    }

    /// The location in one word, as the mapping stores it: die in the
    /// top 16 bits, block in the next 24, page in the low 24 (the
    /// constructor checks the geometry fits).
    fn pack(self) -> u64 {
        (self.die_linear as u64) << 48 | (self.block as u64) << 24 | self.page as u64
    }

    fn unpack(word: u64) -> Self {
        SlotLocation {
            die_linear: (word >> 48) as usize,
            block: (word >> 24) as usize & 0xFF_FFFF,
            page: word as usize & 0xFF_FFFF,
        }
    }

    /// The TLC page kind of this slot (page position within the block).
    pub fn kind(&self) -> PageKind {
        PageKind::of_page(self.page)
    }
}

/// Garbage-collection work the simulator must charge to a die: `relocated`
/// slots were moved by on-die copyback and one block was erased.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcWork {
    /// The die that performed the collection.
    pub die_linear: usize,
    /// Number of valid slots relocated (each costs tR + tPROG on-die).
    pub relocated: usize,
}

/// One slot moved from the SLC cache to a capacity block (an on-die
/// copyback the simulator charges to the owning die).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationWork {
    /// The migrated slot.
    pub slot: u64,
    /// The die that performs the copyback.
    pub die_linear: usize,
    /// Invalidated SLC location.
    pub from: SlotLocation,
    /// New capacity-region location.
    pub to: SlotLocation,
    /// Capacity-region GC triggered by the destination allocation.
    pub gc: Option<GcWork>,
}

/// Result of a write: the new location plus any background work the
/// allocation forced (GC, cache-overflow evictions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Where the slot now lives.
    pub loc: SlotLocation,
    /// GC triggered by the allocation itself.
    pub gc: Option<GcWork>,
    /// Cache-overflow evictions performed to make room (forced
    /// migrations; empty unless the SLC region was full of live data).
    pub evicted: Vec<MigrationWork>,
}

/// An absent entry: a never-touched slot in the mapping (as a packed
/// location, die 2^16 − 1, which the constructor rules out) and a page
/// without a live slot in [`BlockLive::pages`].
const NONE: u64 = u64::MAX;

/// The live slots of one write-half block.
#[derive(Debug, Clone, Default)]
struct BlockLive {
    /// Pages holding a live slot.
    live: usize,
    /// The slot on each page, [`NONE`] where none lives; empty until
    /// the block's first program.
    pages: Vec<u64>,
}

/// A per-die allocation region: an active block with a page cursor, full
/// blocks awaiting GC, and erased free blocks.
#[derive(Debug, Clone)]
struct Region {
    active: usize,
    page: usize,
    full: Vec<usize>,
    /// Blocks never used yet, handed out highest first.
    fresh: Range<usize>,
    /// Blocks erased and handed back, handed out before any fresh one:
    /// together the two pop in the order of one stack that started as
    /// `fresh` ascending and had each returned block pushed on top.
    free: Vec<usize>,
}

impl Region {
    fn new(start: usize, end: usize) -> Self {
        Region {
            active: start,
            page: 0,
            full: Vec::new(),
            fresh: start + 1..end,
            free: Vec::new(),
        }
    }

    /// The next erased block: the last one handed back, else the highest
    /// never-used one.
    fn pop_free(&mut self) -> Option<usize> {
        self.free.pop().or_else(|| self.fresh.next_back())
    }
}

/// Stale fifo entries a die may carry beyond twice its live residents
/// before they are dropped in place.
const FIFO_SLACK: usize = 64;

#[derive(Debug, Clone)]
struct DieState {
    /// Next (block, page) for cold-data placement, below `write_base`.
    cold_block: usize,
    cold_page: usize,
    /// SLC cache region (`None` when `cache_fraction == 0`).
    slc: Option<Region>,
    /// Capacity-mode write/migration-destination region.
    cap: Region,
    /// Live slots currently resident in this die's SLC region.
    slc_live: usize,
    /// Cache residents in write order: `(seq, slot)`; entries go stale
    /// when a slot is rewritten or migrated. Readers skip them (and pop
    /// those at the front); once the fifo outgrows `2 · slc_live +`
    /// [`FIFO_SLACK`], [`Ftl::invalidate`] drops them all in place, live
    /// entries keeping their order.
    fifo: VecDeque<(u64, u64)>,
}

impl DieState {
    fn region_mut(&mut self, slc: bool) -> &mut Region {
        if slc {
            self.slc.as_mut().expect("SLC allocation without a cache")
        } else {
            &mut self.cap
        }
    }
}

/// The slot-mapped FTL: cold region, capacity write region, and an
/// optional SLC cache region per die, with cache→capacity migration.
/// Slots are mapped through a slot table, so a slot of 2^48 or more
/// panics (no request within `Simulator::submit`'s bound names one).
///
/// # Example
///
/// ```
/// use rif_ssd::ftl::Ftl;
/// use rif_flash::FlashGeometry;
///
/// let mut ftl = Ftl::new(FlashGeometry::small());
/// let a = ftl.locate_read(7);
/// assert_eq!(ftl.locate_read(7), a); // stable mapping
/// let b = ftl.write(7).loc;
/// assert_ne!(a, b); // out-of-place update
/// assert_eq!(ftl.locate_read(7), b);
///
/// let mut ftl = Ftl::with_cache(FlashGeometry::small(), 0.25);
/// let out = ftl.write(7);
/// assert!(ftl.is_cached(7));
/// let w = ftl.migrate(7).expect("cache resident migrates");
/// assert_eq!(w.slot, 7);
/// assert!(!ftl.is_cached(7));
/// assert_eq!(ftl.locate_read(7), w.to);
/// assert_ne!(out.loc, w.to);
/// ```
#[derive(Debug, Clone)]
pub struct Ftl {
    geometry: FlashGeometry,
    /// Slot → [`SlotLocation::pack`]ed location.
    mapping: SlotTable<u64>,
    dies: Vec<DieState>,
    /// Live-slot tracking for write-half blocks, indexed by
    /// [`Ftl::block_index`]; sized on the first program.
    blocks: Vec<BlockLive>,
    /// Per-block read counters (read disturb), indexed by global block
    /// id; sized on the first read.
    read_counts: Vec<u64>,
    /// Slots ever touched, in first-touch order (the refresh scan's
    /// deterministic iteration universe).
    touched: Vec<u64>,
    /// Cache membership: slot → its live fifo sequence number (which
    /// starts at 1, so 0 marks a slot outside the cache).
    cached: SlotTable<u64>,
    write_base: usize,
    /// First SLC-mode block index (== `blocks_per_plane` when no cache).
    slc_base: usize,
    write_rr: usize,
    seq: u64,
    migrations: u64,
    relocations: u64,
    erases: u64,
}

impl Ftl {
    /// Builds an FTL over `geometry` with no cache region: the lower half
    /// of each plane's blocks holds cold (pre-trace) data and the whole
    /// upper half takes writes.
    pub fn new(geometry: FlashGeometry) -> Self {
        Self::with_cache(geometry, 0.0)
    }

    /// Builds an FTL whose write half runs `cache_fraction` of its blocks
    /// in SLC mode as a write cache (at least one block when the fraction
    /// is positive; none at 0).
    ///
    /// # Panics
    ///
    /// Panics unless `cache_fraction` is in `[0, 0.9]` and the geometry
    /// leaves at least two capacity write blocks per die.
    pub fn with_cache(geometry: FlashGeometry, cache_fraction: f64) -> Self {
        assert!(
            (0.0..=0.9).contains(&cache_fraction),
            "cache fraction {cache_fraction} outside [0, 0.9]"
        );
        let n_dies = geometry.channels * geometry.dies_per_channel;
        assert!(
            n_dies < 0xFFFF
                && geometry.blocks_per_plane <= 1 << 24
                && geometry.pages_per_block <= 1 << 24,
            "geometry too large for a packed slot location: {geometry:?}"
        );
        let write_base = geometry.blocks_per_plane / 2;
        let write_blocks = geometry.blocks_per_plane - write_base;
        let slc_blocks = if cache_fraction == 0.0 {
            0
        } else {
            ((cache_fraction * write_blocks as f64).round() as usize).clamp(1, write_blocks - 2)
        };
        let slc_base = geometry.blocks_per_plane - slc_blocks;
        assert!(
            slc_base - write_base >= 2,
            "need at least two capacity write blocks per die"
        );
        let dies = (0..n_dies)
            .map(|_| DieState {
                cold_block: 0,
                cold_page: 0,
                slc: (slc_blocks > 0).then(|| Region::new(slc_base, geometry.blocks_per_plane)),
                cap: Region::new(write_base, slc_base),
                slc_live: 0,
                fifo: VecDeque::new(),
            })
            .collect();
        Ftl {
            geometry,
            mapping: SlotTable::new(NONE),
            dies,
            blocks: Vec::new(),
            read_counts: Vec::new(),
            touched: Vec::new(),
            cached: SlotTable::new(0),
            write_base,
            slc_base,
            write_rr: 0,
            seq: 0,
            migrations: 0,
            relocations: 0,
            erases: 0,
        }
    }

    /// The geometry this FTL manages.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// SLC cache blocks per die.
    pub fn slc_blocks_per_die(&self) -> usize {
        self.geometry.blocks_per_plane - self.slc_base
    }

    /// The cell mode of a physical location.
    pub fn mode_of(&self, loc: SlotLocation, capacity_mode: CellMode) -> CellMode {
        if loc.block >= self.slc_base {
            CellMode::Slc
        } else {
            capacity_mode
        }
    }

    /// True when `slot`'s current copy lives in the SLC cache.
    pub fn is_cached(&self, slot: u64) -> bool {
        self.cached.get(slot).is_some()
    }

    /// Live slots resident in the cache.
    pub fn cached_slots(&self) -> usize {
        self.dies.iter().map(|d| d.slc_live).sum()
    }

    /// Total cache capacity in slots.
    pub fn cache_capacity_slots(&self) -> usize {
        self.dies.len() * self.slc_blocks_per_die() * self.geometry.pages_per_block
    }

    /// Cache occupancy in `[0, 1]` (0 when there is no cache).
    pub fn cache_occupancy(&self) -> f64 {
        let cap = self.cache_capacity_slots();
        if cap == 0 {
            0.0
        } else {
            self.cached_slots() as f64 / cap as f64
        }
    }

    /// SLC→QLC migrations performed.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// GC copyback relocations performed.
    pub fn relocations(&self) -> u64 {
        self.relocations
    }

    /// Block erases performed.
    pub fn erases(&self) -> u64 {
        self.erases
    }

    /// Slots ever touched, in first-touch order (deterministic across
    /// runs — the refresh scan iterates this).
    pub fn touched(&self) -> &[u64] {
        &self.touched
    }

    /// Resolves the physical location of `slot` for a read, assigning a
    /// cold-region location on first touch (pre-trace data is assumed
    /// present, striped across dies for parallelism).
    pub fn locate_read(&mut self, slot: u64) -> SlotLocation {
        if let Some(loc) = self.location(slot) {
            return loc;
        }
        let n_dies = self.dies.len();
        let die_linear = (slot % n_dies as u64) as usize;
        let die = &mut self.dies[die_linear];
        let loc = SlotLocation {
            die_linear,
            block: die.cold_block,
            page: die.cold_page,
        };
        die.cold_page += 1;
        if die.cold_page == self.geometry.pages_per_block {
            die.cold_page = 0;
            // Wrap within the cold region: a timing model only needs a
            // stable location per slot, aliasing is harmless.
            die.cold_block = (die.cold_block + 1) % self.write_base.max(1);
        }
        self.mapping.insert(slot, loc.pack());
        self.touched.push(slot);
        loc
    }

    /// Where `slot` lives, if it was ever touched.
    fn location(&self, slot: u64) -> Option<SlotLocation> {
        self.mapping.get(slot).map(SlotLocation::unpack)
    }

    /// Bumps and returns the read-disturb counter of `loc`'s block.
    pub fn note_read(&mut self, loc: SlotLocation) -> u64 {
        let id = loc.global_block(&self.geometry) as usize;
        if self.read_counts.is_empty() {
            self.read_counts = vec![0; self.dies.len() * self.geometry.blocks_per_plane];
        }
        let c = &mut self.read_counts[id];
        *c += 1;
        *c
    }

    /// Writes `slot`: the new copy lands in the SLC cache (or directly in
    /// the capacity region without one), invalidating any previous copy.
    /// A full cache forcibly evicts its oldest residents first.
    pub fn write(&mut self, slot: u64) -> WriteOutcome {
        if let Some(old) = self.location(slot) {
            self.cached.remove(slot);
            self.invalidate(old);
        } else {
            self.touched.push(slot);
        }
        // Round-robin across dies keeps multi-plane programs balanced.
        let n_dies = self.dies.len();
        let die_linear = self.write_rr % n_dies;
        self.write_rr += 1;

        let mut evicted = Vec::new();
        let (loc, gc) = if self.dies[die_linear].slc.is_some() {
            // Cache-overflow safety valve: when this die's SLC region is
            // entirely live, evict its oldest residents to capacity.
            let die_cap = self.slc_blocks_per_die() * self.geometry.pages_per_block;
            while self.dies[die_linear].slc_live >= die_cap {
                let victim = self
                    .oldest_cached_on_die(die_linear)
                    .expect("a full cache has residents");
                let w = self.migrate(victim).expect("resident migrates");
                evicted.push(w);
            }
            let (loc, gc) = self.alloc(die_linear, true);
            self.seq += 1;
            self.cached.insert(slot, self.seq);
            self.dies[die_linear].fifo.push_back((self.seq, slot));
            self.dies[die_linear].slc_live += 1;
            (loc, gc)
        } else {
            self.alloc(die_linear, false)
        };
        self.place(slot, loc);
        WriteOutcome { loc, gc, evicted }
    }

    /// Where write-half block `block` of die `die_linear` sits in `blocks`.
    fn block_index(&self, die_linear: usize, block: usize) -> usize {
        die_linear * (self.geometry.blocks_per_plane - self.write_base) + block - self.write_base
    }

    /// Records `slot` as the live occupant of the freshly allocated `loc`.
    fn place(&mut self, slot: u64, loc: SlotLocation) {
        if self.blocks.is_empty() {
            let write_blocks = self.geometry.blocks_per_plane - self.write_base;
            self.blocks = vec![BlockLive::default(); self.dies.len() * write_blocks];
        }
        let pages_per_block = self.geometry.pages_per_block;
        let i = self.block_index(loc.die_linear, loc.block);
        let b = &mut self.blocks[i];
        if b.pages.is_empty() {
            b.pages = vec![NONE; pages_per_block];
        }
        b.pages[loc.page] = slot;
        b.live += 1;
        self.mapping.insert(slot, loc.pack());
    }

    /// Up to `batch` migration candidates, globally oldest-written first
    /// (the cold end of every die's cache). Stale fifo entries ahead of a
    /// die's first live one are popped as a side effect; those between
    /// live ones are skipped.
    pub fn migration_candidates(&mut self, batch: usize) -> Vec<u64> {
        let mut found: Vec<(u64, u64)> = Vec::new();
        for die in &mut self.dies {
            let mut taken = 0;
            let mut i = 0;
            while i < die.fifo.len() && taken < batch {
                let (seq, slot) = die.fifo[i];
                if self.cached.get(slot) == Some(seq) {
                    found.push((seq, slot));
                    taken += 1;
                    i += 1;
                } else if i == 0 {
                    die.fifo.pop_front();
                } else {
                    i += 1;
                }
            }
        }
        found.sort_unstable();
        found.truncate(batch);
        found.into_iter().map(|(_, s)| s).collect()
    }

    /// Migrates a cache-resident `slot` to a capacity block on the same
    /// die (on-die copyback). Returns `None` when the slot is not in the
    /// cache (already migrated, rewritten, or never written).
    pub fn migrate(&mut self, slot: u64) -> Option<MigrationWork> {
        self.cached.remove(slot)?;
        let from = self.location(slot).expect("cached slot is mapped");
        debug_assert!(from.block >= self.slc_base, "cached slot outside SLC");
        self.invalidate(from);
        let die_linear = from.die_linear;
        let (to, gc) = self.alloc(die_linear, false);
        self.place(slot, to);
        self.migrations += 1;
        Some(MigrationWork {
            slot,
            die_linear,
            from,
            to,
            gc,
        })
    }

    /// Removes the live entry for an old copy and releases a fully dead,
    /// non-active SLC block back to the free list (background erase). An
    /// SLC copy's slot must already be out of `cached`, so that its fifo
    /// entry counts as stale if the die's fifo is compacted here.
    fn invalidate(&mut self, old: SlotLocation) {
        if old.block < self.write_base {
            return; // cold region copies are never reclaimed
        }
        let i = self.block_index(old.die_linear, old.block);
        let b = &mut self.blocks[i];
        b.pages[old.page] = NONE;
        b.live -= 1;
        let emptied = b.live == 0;
        let in_slc = old.block >= self.slc_base;
        if in_slc {
            let die = &mut self.dies[old.die_linear];
            die.slc_live -= 1;
            // Only a live count that falls can push the fifo past its
            // bound (a write grows both), so checking here keeps
            // `len ≤ 2 · slc_live + FIFO_SLACK` at all times; each
            // compaction is paid for by the more than len/2 entries that
            // went stale since the last.
            if die.fifo.len() > 2 * die.slc_live + FIFO_SLACK {
                let cached = &self.cached;
                die.fifo
                    .retain(|&(seq, slot)| cached.get(slot) == Some(seq));
            }
        }
        if emptied && in_slc {
            let region = self.dies[old.die_linear].region_mut(true);
            if let Some(i) = region.full.iter().position(|&b| b == old.block) {
                region.full.swap_remove(i);
                region.free.push(old.block);
                self.erases += 1;
            }
        }
    }

    /// The oldest live cache resident on `die_linear`.
    fn oldest_cached_on_die(&mut self, die_linear: usize) -> Option<u64> {
        let die = &mut self.dies[die_linear];
        while let Some(&(seq, slot)) = die.fifo.front() {
            if self.cached.get(slot) == Some(seq) {
                return Some(slot);
            }
            die.fifo.pop_front();
        }
        None
    }

    /// Allocates the next page in a die's SLC or capacity region, running
    /// region-local greedy GC when the free list runs dry.
    fn alloc(&mut self, die_linear: usize, slc: bool) -> (SlotLocation, Option<GcWork>) {
        let mut gc: Option<GcWork> = None;
        let mut attempts = 0;
        let pages_per_block = self.geometry.pages_per_block;
        // Roll the active block over, collecting when no erased block is
        // left, until a block with free pages is active.
        loop {
            let region = self.dies[die_linear].region_mut(slc);
            if region.page < pages_per_block {
                let loc = SlotLocation {
                    die_linear,
                    block: region.active,
                    page: region.page,
                };
                region.page += 1;
                return (loc, gc);
            }
            attempts += 1;
            assert!(
                attempts <= region.full.len() + 2,
                "die {die_linear}: {} region has no reclaimable space",
                if slc { "slc" } else { "capacity" }
            );
            region.full.push(region.active);
            match region.pop_free() {
                Some(b) => {
                    region.active = b;
                    region.page = 0;
                }
                None => {
                    let work = self.collect(die_linear, slc);
                    gc = Some(match gc.take() {
                        Some(prev) => GcWork {
                            die_linear,
                            relocated: prev.relocated + work.relocated,
                        },
                        None => work,
                    });
                }
            }
        }
    }

    /// Region-local greedy GC: picks the full block with the fewest live
    /// slots (ties broken by lowest block id, so victim choice never
    /// depends on bookkeeping order), erases it, relocates the survivors
    /// back into it (copyback) in slot order and makes it the region's
    /// active block, its cursor starting after the survivors.
    fn collect(&mut self, die_linear: usize, slc: bool) -> GcWork {
        let first = self.block_index(die_linear, self.write_base);
        let blocks = &self.blocks[first..];
        let write_base = self.write_base;
        let region = self.dies[die_linear].region_mut(slc);
        assert!(
            !region.full.is_empty(),
            "die {die_linear}: nothing to collect"
        );
        let (idx, &victim) = region
            .full
            .iter()
            .enumerate()
            .min_by_key(|(_, &b)| (blocks[b - write_base].live, b))
            .expect("non-empty");
        region.full.swap_remove(idx);

        let b = &mut self.blocks[first + victim - write_base];
        let mut survivors: Vec<u64> = b.pages.iter().copied().filter(|&s| s != NONE).collect();
        // Survivors relocate in slot order (the layout the goldens pin),
        // not page order.
        survivors.sort_unstable();
        b.pages.fill(NONE);
        b.pages[..survivors.len()].copy_from_slice(&survivors);
        let relocated = survivors.len();
        b.live = relocated;
        self.relocations += relocated as u64;
        self.erases += 1;

        for (page, slot) in survivors.into_iter().enumerate() {
            let loc = SlotLocation {
                die_linear,
                block: victim,
                page,
            };
            self.mapping.insert(slot, loc.pack());
        }
        let region = self.dies[die_linear].region_mut(slc);
        region.active = victim;
        region.page = relocated;
        GcWork {
            die_linear,
            relocated,
        }
    }

    /// Audits every internal invariant; the property suite calls this
    /// after arbitrary operation interleavings.
    ///
    /// Checks: mapping totality and bounds, no two slots sharing a
    /// physical location, block live-tables consistent with the mapping,
    /// cache membership exactly the live SLC population, and occupancy
    /// within capacity.
    pub fn check_integrity(&self) -> Result<(), String> {
        let mut seen: HashSet<(usize, usize, usize)> = HashSet::new();
        for (slot, word) in self.mapping.iter() {
            let loc = SlotLocation::unpack(word);
            if loc.die_linear >= self.dies.len()
                || loc.block >= self.geometry.blocks_per_plane
                || loc.page >= self.geometry.pages_per_block
            {
                return Err(format!("slot {slot} mapped out of bounds: {loc:?}"));
            }
            if !seen.insert((loc.die_linear, loc.block, loc.page)) {
                return Err(format!("location {loc:?} holds two live slots"));
            }
            if loc.block >= self.write_base {
                let b = &self.blocks[self.block_index(loc.die_linear, loc.block)];
                if b.pages.get(loc.page) != Some(&slot) {
                    return Err(format!("slot {slot} missing from live table at {loc:?}"));
                }
            }
            let in_slc = loc.block >= self.slc_base;
            if in_slc != self.cached.get(slot).is_some() {
                return Err(format!(
                    "slot {slot} cache membership disagrees with location {loc:?}"
                ));
            }
        }
        let write_blocks = self.geometry.blocks_per_plane - self.write_base;
        for (i, bl) in self.blocks.iter().enumerate() {
            let live = bl.pages.iter().enumerate().filter(|&(_, &s)| s != NONE);
            if live.clone().count() != bl.live {
                return Err(format!("block {i} miscounts its {} live pages", bl.live));
            }
            for (page, &slot) in live {
                let loc = SlotLocation {
                    die_linear: i / write_blocks,
                    block: self.write_base + i % write_blocks,
                    page,
                };
                if self.location(slot) != Some(loc) {
                    return Err(format!("stale live entry {loc:?} for slot {slot}"));
                }
            }
        }
        let (slc_live, cached) = (self.cached_slots(), self.cached.iter().count());
        if slc_live != cached {
            return Err(format!("slc_live total {slc_live} != cached {cached}"));
        }
        if cached > self.cache_capacity_slots() {
            return Err(format!(
                "cache holds {cached} slots, capacity {}",
                self.cache_capacity_slots()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rif_events::SimRng;

    use super::*;

    fn tiny_geometry() -> FlashGeometry {
        FlashGeometry {
            channels: 2,
            dies_per_channel: 1,
            planes_per_die: 4,
            blocks_per_plane: 8,
            pages_per_block: 4,
            page_bytes: 16 * 1024,
        }
    }

    #[test]
    fn gc_layout_is_identical_across_ftl_instances() {
        // Victim choice and survivor layout depend only on the operation
        // sequence: two instances fed the same writes agree.
        let run = || {
            let mut ftl = Ftl::new(tiny_geometry());
            // Overwrite a 24-slot working set in a 32-slot write region
            // in an irregular (hashed) order: victims carry live
            // survivors and candidates tie on live count.
            for i in 0..400u64 {
                ftl.write((i.wrapping_mul(0x9E37_79B9) >> 7) % 24);
            }
            let locs: Vec<SlotLocation> = (0..24u64).map(|s| ftl.locate_read(s)).collect();
            ftl.check_integrity().unwrap();
            (locs, ftl.relocations(), ftl.erases())
        };
        let a = run();
        assert_eq!(a, run(), "GC outcome differs between instances");
        assert!(a.1 > 0, "workload never relocated a survivor");
    }

    #[test]
    fn cold_mapping_is_stable_and_striped() {
        let g = FlashGeometry::small();
        // Cold data sits in capacity blocks with or without a cache.
        for mut ftl in [Ftl::new(g), Ftl::with_cache(g, 0.25)] {
            let a = ftl.locate_read(0);
            let b = ftl.locate_read(1);
            let c = ftl.locate_read(0);
            assert_eq!(a, c);
            assert_ne!(a.die_linear, b.die_linear, "consecutive slots share a die");
            assert_eq!(ftl.mode_of(a, CellMode::Qlc), CellMode::Qlc);
            ftl.check_integrity().unwrap();
        }
    }

    #[test]
    fn cold_mapping_fills_pages_sequentially() {
        let mut ftl = Ftl::new(FlashGeometry::small());
        let n_dies = 32;
        let a = ftl.locate_read(0);
        let b = ftl.locate_read(n_dies); // same die, next page
        assert_eq!(a.die_linear, b.die_linear);
        assert_eq!(b.page, a.page + 1);
    }

    #[test]
    fn page_kinds_cycle_within_block() {
        let loc = |page| SlotLocation {
            die_linear: 0,
            block: 0,
            page,
        };
        assert_eq!(loc(0).kind(), PageKind::Lsb);
        assert_eq!(loc(1).kind(), PageKind::Csb);
        assert_eq!(loc(2).kind(), PageKind::Msb);
        assert_eq!(loc(3).kind(), PageKind::Lsb);
    }

    #[test]
    fn writes_are_out_of_place_and_remap() {
        let mut ftl = Ftl::new(FlashGeometry::small());
        let cold = ftl.locate_read(5);
        let w1 = ftl.write(5).loc;
        let w2 = ftl.write(5).loc;
        assert_ne!(cold, w1);
        assert_ne!(w1, w2);
        assert_eq!(ftl.locate_read(5), w2);
        assert!(w1.block >= FlashGeometry::small().blocks_per_plane / 2);
        // No cache region: the write landed directly in capacity.
        assert_eq!(ftl.mode_of(w2, CellMode::Qlc), CellMode::Qlc);
        assert!(!ftl.is_cached(5));
        assert_eq!(ftl.cache_capacity_slots(), 0);
        assert_eq!(ftl.cache_occupancy(), 0.0);
        assert!(ftl.migrate(5).is_none());
        ftl.check_integrity().unwrap();
    }

    #[test]
    fn gc_triggers_when_write_region_exhausts() {
        let mut ftl = Ftl::new(tiny_geometry());
        // Write region per die: blocks 4..8 (4 blocks x 4 pages = 16 slots
        // capacity). Overwrite a small working set repeatedly so blocks
        // fill with dead pages and GC can reclaim nearly-empty victims.
        let mut gc_seen = false;
        for round in 0..40 {
            for slot in 0..4u64 {
                if let Some(work) = ftl.write(slot).gc {
                    gc_seen = true;
                    assert!(work.relocated <= 4, "round {round}: {work:?}");
                }
            }
        }
        assert!(gc_seen, "GC never triggered");
        assert!(ftl.erases() > 0);
        // Mapping still resolves after collections.
        for slot in 0..4u64 {
            let loc = ftl.locate_read(slot);
            assert!(loc.block >= 4);
        }
        ftl.check_integrity().unwrap();
    }

    #[test]
    fn gc_prefers_emptier_victims() {
        let mut ftl = Ftl::new(tiny_geometry());
        // Fill with distinct slots (all live), then overwrite one block's
        // worth to create dead pages; GC must relocate few slots.
        for slot in 0..24u64 {
            ftl.write(slot);
        }
        let before = ftl.relocations();
        for _ in 0..30 {
            ftl.write(1000);
        }
        let per_gc = (ftl.relocations() - before) as f64 / ftl.erases().max(1) as f64;
        assert!(per_gc < 4.0, "GC relocating too much: {per_gc}");
    }

    #[test]
    fn read_counters_accumulate_per_block() {
        let mut ftl = Ftl::new(FlashGeometry::small());
        let loc = ftl.locate_read(3);
        assert_eq!(ftl.note_read(loc), 1);
        assert_eq!(ftl.note_read(loc), 2);
        let other = ftl.locate_read(4);
        assert_eq!(ftl.note_read(other), 1);
    }

    #[test]
    fn cold_region_wraps_instead_of_overflowing() {
        let mut ftl = Ftl::new(tiny_geometry());
        // Cold capacity per die is 4 blocks x 4 pages = 16 slots; touch
        // far more and require stable, in-range locations.
        let locs: Vec<SlotLocation> = (0..200u64).map(|s| ftl.locate_read(s)).collect();
        for l in &locs {
            assert!(l.block < 4, "cold slot escaped its region: {l:?}");
        }
        assert_eq!(ftl.locate_read(150), locs[150]);
    }

    #[test]
    fn writes_land_in_slc_and_migrate_to_capacity() {
        let mut ftl = Ftl::with_cache(FlashGeometry::small(), 0.25);
        let out = ftl.write(42);
        assert_eq!(ftl.mode_of(out.loc, CellMode::Qlc), CellMode::Slc);
        assert!(ftl.is_cached(42));
        let w = ftl.migrate(42).expect("migrates");
        assert_eq!(w.die_linear, w.from.die_linear);
        assert_eq!(w.die_linear, w.to.die_linear, "copyback stays on-die");
        assert_eq!(ftl.mode_of(w.to, CellMode::Qlc), CellMode::Qlc);
        assert!(!ftl.is_cached(42));
        assert_eq!(ftl.locate_read(42), w.to);
        assert_eq!(ftl.migrations(), 1);
        ftl.check_integrity().unwrap();
    }

    #[test]
    fn migration_candidates_are_oldest_first() {
        let mut ftl = Ftl::with_cache(FlashGeometry::small(), 0.25);
        for slot in 0..10u64 {
            ftl.write(slot);
        }
        // Rewriting slot 0 makes it the *youngest* resident.
        ftl.write(0);
        let c = ftl.migration_candidates(3);
        assert_eq!(c, vec![1, 2, 3]);
        // Candidates are a view, not a mutation.
        assert_eq!(ftl.cached_slots(), 10);
        ftl.check_integrity().unwrap();
    }

    #[test]
    fn full_cache_forces_evictions_instead_of_failing() {
        // Write half: blocks 4..8; 25 % cache → 1 SLC block → 4 slots/die.
        let mut ftl = Ftl::with_cache(tiny_geometry(), 0.25);
        assert_eq!(ftl.slc_blocks_per_die(), 1);
        let mut evictions = 0;
        for round in 0..2 {
            for slot in 0..16u64 {
                let out = ftl.write(slot);
                evictions += out.evicted.len();
                ftl.check_integrity()
                    .unwrap_or_else(|e| panic!("round {round} slot {slot}: {e}"));
            }
        }
        assert!(evictions > 0, "full cache never evicted");
        assert!(ftl.cached_slots() <= ftl.cache_capacity_slots());
        // Every slot still resolves.
        for slot in 0..16u64 {
            let _ = ftl.locate_read(slot);
        }
        ftl.check_integrity().unwrap();
    }

    #[test]
    fn rewriting_cached_slot_keeps_single_copy() {
        let mut ftl = Ftl::with_cache(FlashGeometry::small(), 0.25);
        for _ in 0..100 {
            ftl.write(5);
        }
        assert!(ftl.is_cached(5));
        assert_eq!(ftl.cached_slots(), 1);
        ftl.check_integrity().unwrap();
    }

    #[test]
    fn emptied_slc_blocks_are_erased_and_reused() {
        let g = FlashGeometry {
            channels: 1,
            dies_per_channel: 1,
            planes_per_die: 4,
            blocks_per_plane: 16,
            pages_per_block: 4,
            page_bytes: 16 * 1024,
        };
        // Write half: 8 blocks; 50 % cache → 4 SLC blocks, 16 slots.
        let mut ftl = Ftl::with_cache(g, 0.5);
        for slot in 0..8u64 {
            ftl.write(slot);
        }
        // Drain everything: two whole SLC blocks empty out.
        for slot in 0..8u64 {
            ftl.migrate(slot);
        }
        assert!(ftl.erases() >= 1, "no SLC block reclaimed");
        assert_eq!(ftl.cached_slots(), 0);
        ftl.check_integrity().unwrap();
    }

    /// Every die's fifo within `2 · slc_live + FIFO_SLACK` entries.
    fn fifo_bound_violation(ftl: &Ftl) -> Option<String> {
        ftl.dies.iter().enumerate().find_map(|(d, die)| {
            (die.fifo.len() > 2 * die.slc_live + FIFO_SLACK).then(|| {
                format!(
                    "die {d} keeps {} fifo entries for {} residents",
                    die.fifo.len(),
                    die.slc_live
                )
            })
        })
    }

    #[test]
    fn rewrite_heavy_cache_keeps_every_fifo_bounded() {
        // A skewed hot set a third of the cache, rewritten over and over
        // (the shape of `sim_write_bg`, whose drain never fires): nothing
        // migrates or evicts, so no reader pops a stale entry and only
        // compaction keeps the fifos from growing with every write.
        let writes = if cfg!(debug_assertions) {
            100_000
        } else {
            2_000_000
        };
        let mut ftl = Ftl::with_cache(FlashGeometry::small(), 0.25);
        let hot = ftl.cache_capacity_slots() as u64 / 3;
        let mut rng = SimRng::seed_from(50);
        for i in 0..writes {
            let span = if rng.chance(0.8) { hot / 16 } else { hot };
            ftl.write(rng.int_range(0, span));
            if let Some(e) = fifo_bound_violation(&ftl) {
                panic!("after write {i}: {e}");
            }
        }
        assert!(ftl.cache_occupancy() < 0.5 && ftl.migrations() == 0);
        // Each die took many times its bound in writes.
        let per_die = writes / ftl.dies.len();
        assert!(per_die > 2 * (2 * ftl.cached_slots() / ftl.dies.len() + FIFO_SLACK));
        ftl.check_integrity().unwrap();
    }

    /// The fifo as it would be if nothing were ever dropped from it:
    /// every cache write's `(seq, slot, die)` in write order, live while
    /// `live[slot] == seq`.
    struct ModelFifo {
        entries: Vec<(u64, u64, usize)>,
        live: Vec<u64>,
        writes: usize,
    }

    impl ModelFifo {
        fn live(&self) -> impl Iterator<Item = &(u64, u64, usize)> {
            self.entries
                .iter()
                .filter(|&&(seq, slot, _)| self.live[slot as usize] == seq)
        }

        fn oldest_on_die(&self, die: usize) -> Option<u64> {
            self.live().find(|e| e.2 == die).map(|e| e.1)
        }

        fn candidates(&self, batch: usize) -> Vec<u64> {
            self.live().take(batch).map(|e| e.1).collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn fifo_readers_match_a_never_compacted_fifo(
            ops in prop::collection::vec((0u8..16, 0u64..20, 0usize..8), 1..1500)
        ) {
            // Two dies, 8 cache slots and 24 capacity slots each. Most
            // writes rewrite four hot slots while older, colder residents
            // hold each fifo's front, so stale entries pile up behind it
            // until compaction drops them; forced evictions, migrations
            // and both readers run in between.
            let g = FlashGeometry {
                channels: 2,
                dies_per_channel: 1,
                planes_per_die: 4,
                blocks_per_plane: 16,
                pages_per_block: 4,
                page_bytes: 16 * 1024,
            };
            let mut ftl = Ftl::with_cache(g, 0.25);
            let n_dies = ftl.dies.len();
            let mut model = ModelFifo { entries: Vec::new(), live: vec![0; 20], writes: 0 };
            for (op, slot, arg) in ops {
                match op {
                    0..=11 => {
                        let slot = if op < 10 { slot % 4 } else { slot };
                        let die = model.writes % n_dies;
                        model.writes += 1;
                        model.live[slot as usize] = 0;
                        let out = ftl.write(slot);
                        for w in &out.evicted {
                            prop_assert_eq!(Some(w.slot), model.oldest_on_die(die));
                            model.live[w.slot as usize] = 0;
                        }
                        let seq = model.entries.len() as u64 + 1;
                        model.entries.push((seq, slot, die));
                        model.live[slot as usize] = seq;
                    }
                    12 => {
                        let cached = model.live[slot as usize] != 0;
                        prop_assert_eq!(ftl.migrate(slot).is_some(), cached);
                        model.live[slot as usize] = 0;
                    }
                    13 => {
                        let batch = arg + 1;
                        prop_assert_eq!(ftl.migration_candidates(batch), model.candidates(batch));
                    }
                    _ => {
                        let die = arg % n_dies;
                        prop_assert_eq!(ftl.oldest_cached_on_die(die), model.oldest_on_die(die));
                    }
                }
                prop_assert_eq!(fifo_bound_violation(&ftl), None);
            }
            prop_assert!(ftl.check_integrity().is_ok());
        }
    }

    #[test]
    fn region_pops_what_the_prefilled_stack_did() {
        // The stack a region once kept: every block above the first
        // active one, ascending, with each erased block pushed on top.
        let mut rng = SimRng::seed_from(9);
        for (start, end) in [(4, 8), (32, 64), (10, 11)] {
            let mut region = Region::new(start, end);
            let mut stack: Vec<usize> = (start + 1..end).collect();
            let mut in_use: Vec<usize> = vec![start];
            for _ in 0..4000 {
                if !in_use.is_empty() && rng.chance(0.45) {
                    let b = in_use.swap_remove(rng.index(in_use.len()));
                    region.free.push(b);
                    stack.push(b);
                } else {
                    let got = region.pop_free();
                    assert_eq!(got, stack.pop(), "blocks {start}..{end}");
                    in_use.extend(got);
                }
            }
        }
    }
}
