//! SSD / flash-array geometry and physical page addressing.

use std::fmt;

/// The physical organization of the flash array (Table I).
///
/// # Example
///
/// ```
/// use rif_flash::FlashGeometry;
///
/// let g = FlashGeometry::paper();
/// assert_eq!(g.channels, 8);
/// // Table I: "2-TiB total capacity".
/// let tib = g.capacity_bytes() as f64 / (1u64 << 40) as f64;
/// assert!(tib > 2.0 && tib < 2.2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlashGeometry {
    /// Number of flash channels.
    pub channels: usize,
    /// Dies per channel.
    pub dies_per_channel: usize,
    /// Planes per die.
    pub planes_per_die: usize,
    /// Blocks per plane.
    pub blocks_per_plane: usize,
    /// Pages per block.
    pub pages_per_block: usize,
    /// Page size in bytes.
    pub page_bytes: usize,
}

impl FlashGeometry {
    /// Table I geometry: 8 channels × 4 dies × 4 planes × 1888 blocks ×
    /// 576 pages × 16 KiB ≈ 2 TiB.
    pub fn paper() -> Self {
        FlashGeometry {
            channels: 8,
            dies_per_channel: 4,
            planes_per_die: 4,
            blocks_per_plane: 1888,
            pages_per_block: 576,
            page_bytes: 16 * 1024,
        }
    }

    /// A scaled-down geometry for fast tests and examples (same channel /
    /// die / plane topology, fewer blocks).
    pub fn small() -> Self {
        FlashGeometry {
            channels: 8,
            dies_per_channel: 4,
            planes_per_die: 4,
            blocks_per_plane: 64,
            pages_per_block: 64,
            page_bytes: 16 * 1024,
        }
    }

    /// Total number of planes in the SSD.
    pub fn total_planes(&self) -> usize {
        self.channels * self.dies_per_channel * self.planes_per_die
    }

    /// Total number of blocks in the SSD.
    pub fn total_blocks(&self) -> u64 {
        self.total_planes() as u64 * self.blocks_per_plane as u64
    }

    /// Total number of pages in the SSD.
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() * self.pages_per_block as u64
    }

    /// Raw capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() * self.page_bytes as u64
    }

    /// Validates a page address against this geometry.
    pub fn contains(&self, a: PageAddress) -> bool {
        a.channel < self.channels
            && a.die < self.dies_per_channel
            && a.plane < self.planes_per_die
            && a.block < self.blocks_per_plane
            && a.page < self.pages_per_block
    }

    /// Flattens a page address to a dense index in `[0, total_pages)`.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside this geometry.
    pub fn page_index(&self, a: PageAddress) -> u64 {
        assert!(self.contains(a), "address {a:?} outside geometry");
        (((a.channel as u64 * self.dies_per_channel as u64 + a.die as u64)
            * self.planes_per_die as u64
            + a.plane as u64)
            * self.blocks_per_plane as u64
            + a.block as u64)
            * self.pages_per_block as u64
            + a.page as u64
    }

    /// Inverse of [`FlashGeometry::page_index`].
    ///
    /// # Panics
    ///
    /// Panics if `idx >= total_pages`.
    pub fn page_at(&self, idx: u64) -> PageAddress {
        assert!(idx < self.total_pages(), "page index {idx} out of range");
        let page = (idx % self.pages_per_block as u64) as usize;
        let rest = idx / self.pages_per_block as u64;
        let block = (rest % self.blocks_per_plane as u64) as usize;
        let rest = rest / self.blocks_per_plane as u64;
        let plane = (rest % self.planes_per_die as u64) as usize;
        let rest = rest / self.planes_per_die as u64;
        let die = (rest % self.dies_per_channel as u64) as usize;
        let channel = (rest / self.dies_per_channel as u64) as usize;
        PageAddress {
            channel,
            die,
            plane,
            block,
            page,
        }
    }

    /// Flattens the block portion of an address to a dense index in
    /// `[0, total_blocks)`.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside this geometry.
    pub fn block_index(&self, a: PageAddress) -> u64 {
        assert!(self.contains(a), "address {a:?} outside geometry");
        ((a.channel as u64 * self.dies_per_channel as u64 + a.die as u64)
            * self.planes_per_die as u64
            + a.plane as u64)
            * self.blocks_per_plane as u64
            + a.block as u64
    }
}

/// A physical page address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageAddress {
    /// Channel index.
    pub channel: usize,
    /// Die index within the channel.
    pub die: usize,
    /// Plane index within the die.
    pub plane: usize,
    /// Block index within the plane.
    pub block: usize,
    /// Page index within the block.
    pub page: usize,
}

impl PageAddress {
    /// The page kind (which bit of the TLC cell this page stores), derived
    /// from the page's position in the block: consecutive pages of a
    /// wordline hold the LSB, CSB and MSB pages.
    pub fn kind(&self) -> PageKind {
        match self.page % 3 {
            0 => PageKind::Lsb,
            1 => PageKind::Csb,
            2 => PageKind::Msb,
            _ => unreachable!(),
        }
    }
}

impl fmt::Display for PageAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{}/d{}/pl{}/b{}/p{}",
            self.channel, self.die, self.plane, self.block, self.page
        )
    }
}

/// Which of the three TLC bits a page stores (paper §II-A1).
///
/// Each kind reads with a different subset of the seven read-reference
/// voltages, so the kinds have distinct RBER profiles — and, in Sentinel,
/// distinct sentinel-cell read requirements (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// Least-significant bit page (2 read references).
    Lsb,
    /// Center bit page (3 read references).
    Csb,
    /// Most-significant bit page (2 read references).
    Msb,
}

impl PageKind {
    /// All three kinds in wordline order.
    pub const ALL: [PageKind; 3] = [PageKind::Lsb, PageKind::Csb, PageKind::Msb];
}

impl fmt::Display for PageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageKind::Lsb => write!(f, "LSB"),
            PageKind::Csb => write!(f, "CSB"),
            PageKind::Msb => write!(f, "MSB"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_capacity_is_two_tib() {
        let g = FlashGeometry::paper();
        assert_eq!(g.total_planes(), 128);
        assert_eq!(g.total_blocks(), 128 * 1888);
        let capacity = g.capacity_bytes();
        let two_tib = 2u64 << 40;
        assert!(capacity > two_tib, "capacity {capacity}");
        assert!(capacity < two_tib + (two_tib / 10));
    }

    #[test]
    fn page_index_roundtrip() {
        let g = FlashGeometry::small();
        for idx in [0u64, 1, 12345, g.total_pages() - 1] {
            let a = g.page_at(idx);
            assert!(g.contains(a));
            assert_eq!(g.page_index(a), idx);
        }
    }

    #[test]
    fn page_index_is_dense_and_unique() {
        let g = FlashGeometry {
            channels: 2,
            dies_per_channel: 2,
            planes_per_die: 2,
            blocks_per_plane: 3,
            pages_per_block: 4,
            page_bytes: 16384,
        };
        let mut seen = std::collections::HashSet::new();
        for idx in 0..g.total_pages() {
            let a = g.page_at(idx);
            assert!(seen.insert(g.page_index(a)));
        }
        assert_eq!(seen.len() as u64, g.total_pages());
    }

    #[test]
    fn block_index_groups_pages() {
        let g = FlashGeometry::small();
        let a = g.page_at(777);
        let mut b = a;
        b.page = (a.page + 1) % g.pages_per_block;
        assert_eq!(g.block_index(a), g.block_index(b));
    }

    #[test]
    fn contains_rejects_out_of_range() {
        let g = FlashGeometry::small();
        let mut a = g.page_at(0);
        a.channel = g.channels;
        assert!(!g.contains(a));
    }

    #[test]
    fn page_kind_cycles_lsb_csb_msb() {
        let mut a = FlashGeometry::small().page_at(0);
        a.page = 0;
        assert_eq!(a.kind(), PageKind::Lsb);
        a.page = 1;
        assert_eq!(a.kind(), PageKind::Csb);
        a.page = 2;
        assert_eq!(a.kind(), PageKind::Msb);
        a.page = 3;
        assert_eq!(a.kind(), PageKind::Lsb);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn page_at_rejects_overflow() {
        let g = FlashGeometry::small();
        let _ = g.page_at(g.total_pages());
    }
}
