//! SSD / flash-array geometry and the TLC page kinds.

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

    /// The kind of the page at position `page` in its block: consecutive
    /// pages of a wordline hold the LSB, CSB and MSB pages.
    pub fn of_page(page: usize) -> PageKind {
        PageKind::ALL[page % 3]
    }
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
    fn page_kind_cycles_lsb_csb_msb() {
        assert_eq!(PageKind::of_page(0), PageKind::Lsb);
        assert_eq!(PageKind::of_page(1), PageKind::Csb);
        assert_eq!(PageKind::of_page(2), PageKind::Msb);
        assert_eq!(PageKind::of_page(3), PageKind::Lsb);
        let last = FlashGeometry::paper().pages_per_block - 1;
        assert_eq!(PageKind::of_page(last), PageKind::ALL[last % 3]);
    }
}
