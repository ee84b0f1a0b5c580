//! The `f32` lane types the min-sum kernel is written over.
//!
//! The kernel body exists once, generic over [`Lanes`]; this module holds
//! the three implementations it is instantiated with: [`Avx512`] (one
//! `__m512`, 16 lanes), [`Avx2`] (one `__m256`, 8 lanes) — both x86-64
//! only, picked at runtime by [`LaneKind::detect`] — and [`Portable`] (a
//! plain `[f32; 8]`, every other target). The split exists because LLVM
//! keeps a chunk's running sign / min1 / min2 in registers across a block
//! row only when they are vector values from the start — written as array
//! loops and left to the auto-vectorizer the state is spilled and reloaded
//! around every circulant. The packed iterations of a hard-decision decode
//! use the same types as `WIDTH · 32`-bit vectors of bit-plane words (the
//! bitwise operations and `load_shifted`), for the same reason.
//!
//! Every operation is a per-lane IEEE operation (or a bit operation on the
//! lanes), so all implementations produce identical bits.

/// Lanes of the widest implementation ([`Avx512`]).
pub(crate) const MAX_WIDTH: usize = 16;

/// A vector of [`Lanes::WIDTH`] `f32` lanes.
///
/// # Safety
///
/// Every method requires that the running CPU supports the instruction
/// set the implementing type is built on (nothing for [`Portable`], AVX2
/// for [`Avx2`], AVX-512F for [`Avx512`]); `load` and `store` also need
/// `WIDTH` readable or writable floats at their pointer, `load_masked`
/// and `store_masked` the selected ones, `load_shifted` `WIDTH / 2 + 1`
/// readable words. The methods have no other precondition.
pub(crate) trait Lanes: Copy {
    /// Floats per lane vector.
    const WIDTH: usize;
    unsafe fn splat(x: f32) -> Self;
    /// `WIDTH` floats from `src`, which need not be aligned.
    unsafe fn load(src: *const f32) -> Self;
    /// Writes the lanes to `WIDTH` floats at `dst`, which need not be
    /// aligned.
    unsafe fn store(self, dst: *mut f32);
    unsafe fn add(self, rhs: Self) -> Self;
    unsafe fn sub(self, rhs: Self) -> Self;
    unsafe fn mul(self, rhs: Self) -> Self;
    unsafe fn min(self, rhs: Self) -> Self;
    unsafe fn max(self, rhs: Self) -> Self;
    unsafe fn abs(self) -> Self;
    /// Bitwise XOR of the lanes' representations.
    unsafe fn xor(self, rhs: Self) -> Self;
    /// Bitwise AND of the lanes' representations.
    unsafe fn and(self, rhs: Self) -> Self;
    /// Bitwise OR of the lanes' representations.
    unsafe fn or(self, rhs: Self) -> Self;
    /// Bitwise `self & !rhs` of the lanes' representations.
    unsafe fn and_not(self, rhs: Self) -> Self;
    /// The `WIDTH / 2` words at `src` shifted right by `bs < 64` bits as
    /// one run: word `i` is `src[i] >> bs | src[i + 1] << (64 − bs)` (just
    /// `src[i]` for `bs = 0`); `WIDTH / 2 + 1` words must be readable.
    unsafe fn load_shifted(src: *const u64, bs: u32) -> Self;
    /// The sign bit alone in every lane that is `< 0.0`, zero bits
    /// elsewhere (`-0.0` is not below zero).
    unsafe fn sign_if_negative(self) -> Self;
    /// Per lane: `then` where `self == key`, `otherwise` elsewhere.
    unsafe fn pick_eq(self, key: Self, then: Self, otherwise: Self) -> Self;
    /// Per lane `i`: `then` where bit `i` of `mask` is set, `otherwise`
    /// elsewhere (bits from `WIDTH` up are ignored).
    unsafe fn select(mask: u32, then: Self, otherwise: Self) -> Self;
    /// Bit `i` set where lane `i` is `< 0.0` (`WIDTH` bits).
    unsafe fn negative_mask(self) -> u32;
    /// Lane `i` from `src + i` where bit `i` of `mask` is set, `+0.0`
    /// elsewhere. Only the selected floats need be readable; `src`
    /// itself need not point into them.
    unsafe fn load_masked(src: *const f32, mask: u32) -> Self;
    /// Writes lane `i` to `dst + i` where bit `i` of `mask` is set and
    /// touches nothing else; only the selected floats need be writable.
    unsafe fn store_masked(self, dst: *mut f32, mask: u32);
}

const SIGN_BIT: u32 = 0x8000_0000;

/// The lane implementations, one of which runs each decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LaneKind {
    Avx512,
    Avx2,
    Portable,
}

impl LaneKind {
    /// Every implementation, widest first.
    #[cfg(test)]
    pub(crate) const ALL: [LaneKind; 3] = [LaneKind::Avx512, LaneKind::Avx2, LaneKind::Portable];

    /// The widest implementation the running CPU supports.
    pub(crate) fn detect() -> LaneKind {
        if LaneKind::Avx512.available() {
            LaneKind::Avx512
        } else if LaneKind::Avx2.available() {
            LaneKind::Avx2
        } else {
            LaneKind::Portable
        }
    }

    /// True when the running CPU can run these lanes.
    pub(crate) fn available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            LaneKind::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            LaneKind::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            LaneKind::Portable => true,
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// Portable lanes: plain per-element loops over `[f32; 8]`.
#[derive(Clone, Copy)]
pub(crate) struct Portable([f32; 8]);

impl Portable {
    #[inline(always)]
    fn zip(self, rhs: Self, f: impl Fn(f32, f32) -> f32) -> Self {
        Portable(std::array::from_fn(|i| f(self.0[i], rhs.0[i])))
    }
}

// SAFETY (`load`/`store` and their masked and shifted kin): `[f32; 8]`
// has the alignment of `f32`, read and written unaligned where `u64`s are,
// and the caller guarantees the floats or words at the pointer.
impl Lanes for Portable {
    const WIDTH: usize = 8;
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        Portable([x; 8])
    }
    #[inline(always)]
    unsafe fn load(src: *const f32) -> Self {
        Portable(src.cast::<[f32; 8]>().read())
    }
    #[inline(always)]
    unsafe fn store(self, dst: *mut f32) {
        dst.cast::<[f32; 8]>().write(self.0)
    }
    #[inline(always)]
    unsafe fn add(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| a + b)
    }
    #[inline(always)]
    unsafe fn sub(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| a - b)
    }
    #[inline(always)]
    unsafe fn mul(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| a * b)
    }
    #[inline(always)]
    unsafe fn min(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| if a < b { a } else { b })
    }
    #[inline(always)]
    unsafe fn max(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| if a > b { a } else { b })
    }
    #[inline(always)]
    unsafe fn abs(self) -> Self {
        Portable(self.0.map(f32::abs))
    }
    #[inline(always)]
    unsafe fn xor(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| f32::from_bits(a.to_bits() ^ b.to_bits()))
    }
    #[inline(always)]
    unsafe fn and(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| f32::from_bits(a.to_bits() & b.to_bits()))
    }
    #[inline(always)]
    unsafe fn or(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| f32::from_bits(a.to_bits() | b.to_bits()))
    }
    #[inline(always)]
    unsafe fn and_not(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| f32::from_bits(a.to_bits() & !b.to_bits()))
    }
    #[inline(always)]
    unsafe fn load_shifted(src: *const u64, bs: u32) -> Self {
        let words: [u64; 5] = src.cast::<[u64; 5]>().read_unaligned();
        let shifted: [u64; 4] =
            std::array::from_fn(|i| words[i] >> bs | words[i + 1] << 1 << (63 - bs));
        Portable(std::mem::transmute::<[u64; 4], [f32; 8]>(shifted))
    }
    #[inline(always)]
    unsafe fn sign_if_negative(self) -> Self {
        Portable(
            self.0
                .map(|a| f32::from_bits(if a < 0.0 { SIGN_BIT } else { 0 })),
        )
    }
    #[inline(always)]
    unsafe fn pick_eq(self, key: Self, then: Self, otherwise: Self) -> Self {
        Portable(std::array::from_fn(|i| {
            if self.0[i] == key.0[i] {
                then.0[i]
            } else {
                otherwise.0[i]
            }
        }))
    }
    #[inline(always)]
    unsafe fn select(mask: u32, then: Self, otherwise: Self) -> Self {
        Portable(std::array::from_fn(|i| {
            if mask >> i & 1 == 1 {
                then.0[i]
            } else {
                otherwise.0[i]
            }
        }))
    }
    #[inline(always)]
    unsafe fn negative_mask(self) -> u32 {
        let mut mask = 0u32;
        for (i, &a) in self.0.iter().enumerate() {
            mask |= u32::from(a < 0.0) << i;
        }
        mask
    }
    #[inline(always)]
    unsafe fn load_masked(src: *const f32, mask: u32) -> Self {
        Portable(std::array::from_fn(|i| {
            if mask >> i & 1 == 1 {
                src.wrapping_add(i).read()
            } else {
                0.0
            }
        }))
    }
    #[inline(always)]
    unsafe fn store_masked(self, dst: *mut f32, mask: u32) {
        for (i, &x) in self.0.iter().enumerate() {
            if mask >> i & 1 == 1 {
                dst.wrapping_add(i).write(x);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{Avx2, Avx512};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Lanes, SIGN_BIT};
    use std::arch::x86_64::*;

    /// AVX2 lanes: one `__m256`.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2(__m256);

    // SAFETY (every block below): the intrinsics need AVX/AVX2, and loads
    // and stores the floats or words the trait's contract names, both so
    // the caller's obligation.
    impl Lanes for Avx2 {
        const WIDTH: usize = 8;
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            Avx2(_mm256_set1_ps(x))
        }
        #[inline(always)]
        unsafe fn load(src: *const f32) -> Self {
            Avx2(_mm256_loadu_ps(src))
        }
        #[inline(always)]
        unsafe fn store(self, dst: *mut f32) {
            _mm256_storeu_ps(dst, self.0)
        }
        #[inline(always)]
        unsafe fn add(self, rhs: Self) -> Self {
            Avx2(_mm256_add_ps(self.0, rhs.0))
        }
        #[inline(always)]
        unsafe fn sub(self, rhs: Self) -> Self {
            Avx2(_mm256_sub_ps(self.0, rhs.0))
        }
        #[inline(always)]
        unsafe fn mul(self, rhs: Self) -> Self {
            Avx2(_mm256_mul_ps(self.0, rhs.0))
        }
        #[inline(always)]
        unsafe fn min(self, rhs: Self) -> Self {
            Avx2(_mm256_min_ps(self.0, rhs.0))
        }
        #[inline(always)]
        unsafe fn max(self, rhs: Self) -> Self {
            Avx2(_mm256_max_ps(self.0, rhs.0))
        }
        #[inline(always)]
        unsafe fn abs(self) -> Self {
            Avx2(_mm256_andnot_ps(
                _mm256_set1_ps(f32::from_bits(SIGN_BIT)),
                self.0,
            ))
        }
        #[inline(always)]
        unsafe fn xor(self, rhs: Self) -> Self {
            Avx2(_mm256_xor_ps(self.0, rhs.0))
        }
        #[inline(always)]
        unsafe fn and(self, rhs: Self) -> Self {
            Avx2(_mm256_and_ps(self.0, rhs.0))
        }
        #[inline(always)]
        unsafe fn or(self, rhs: Self) -> Self {
            Avx2(_mm256_or_ps(self.0, rhs.0))
        }
        #[inline(always)]
        unsafe fn and_not(self, rhs: Self) -> Self {
            Avx2(_mm256_andnot_ps(rhs.0, self.0))
        }
        #[inline(always)]
        unsafe fn load_shifted(src: *const u64, bs: u32) -> Self {
            let lo = _mm256_loadu_si256(src.cast());
            let hi = _mm256_loadu_si256(src.add(1).cast());
            let right = _mm256_srl_epi64(lo, _mm_cvtsi32_si128(bs as i32));
            let left = _mm256_sll_epi64(
                _mm256_slli_epi64::<1>(hi),
                _mm_cvtsi32_si128(63 - bs as i32),
            );
            Avx2(_mm256_castsi256_ps(_mm256_or_si256(right, left)))
        }
        #[inline(always)]
        unsafe fn sign_if_negative(self) -> Self {
            let below = _mm256_cmp_ps::<_CMP_LT_OQ>(self.0, _mm256_setzero_ps());
            Avx2(_mm256_and_ps(
                below,
                _mm256_set1_ps(f32::from_bits(SIGN_BIT)),
            ))
        }
        #[inline(always)]
        unsafe fn pick_eq(self, key: Self, then: Self, otherwise: Self) -> Self {
            let eq = _mm256_cmp_ps::<_CMP_EQ_OQ>(self.0, key.0);
            Avx2(_mm256_blendv_ps(otherwise.0, then.0, eq))
        }
        #[inline(always)]
        unsafe fn select(mask: u32, then: Self, otherwise: Self) -> Self {
            let picked = _mm256_castsi256_ps(lane_mask(mask));
            Avx2(_mm256_blendv_ps(otherwise.0, then.0, picked))
        }
        #[inline(always)]
        unsafe fn negative_mask(self) -> u32 {
            let below = _mm256_cmp_ps::<_CMP_LT_OQ>(self.0, _mm256_setzero_ps());
            _mm256_movemask_ps(below) as u32
        }
        #[inline(always)]
        unsafe fn load_masked(src: *const f32, mask: u32) -> Self {
            Avx2(_mm256_maskload_ps(src, lane_mask(mask)))
        }
        #[inline(always)]
        unsafe fn store_masked(self, dst: *mut f32, mask: u32) {
            _mm256_maskstore_ps(dst, lane_mask(mask), self.0)
        }
    }

    /// Lane `i` all ones where bit `i` of `mask` is set, zero elsewhere: a
    /// lane is set where the broadcast mask, ANDed with its own bit, still
    /// equals that bit.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline(always)]
    unsafe fn lane_mask(mask: u32) -> __m256i {
        let bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
        let set = _mm256_and_si256(_mm256_set1_epi32(mask as i32), bits);
        _mm256_cmpeq_epi32(set, bits)
    }

    /// AVX-512 lanes: one `__m512`. Only AVX-512F instructions are used;
    /// the float XOR/AND-NOT of AVX-512DQ are done on the integer view.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx512(__m512);

    // SAFETY (every block below): the intrinsics need AVX-512F, and loads
    // and stores the floats or words the trait's contract names, both so
    // the caller's obligation.
    impl Lanes for Avx512 {
        const WIDTH: usize = 16;
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            Avx512(_mm512_set1_ps(x))
        }
        #[inline(always)]
        unsafe fn load(src: *const f32) -> Self {
            Avx512(_mm512_loadu_ps(src))
        }
        #[inline(always)]
        unsafe fn store(self, dst: *mut f32) {
            _mm512_storeu_ps(dst, self.0)
        }
        #[inline(always)]
        unsafe fn add(self, rhs: Self) -> Self {
            Avx512(_mm512_add_ps(self.0, rhs.0))
        }
        #[inline(always)]
        unsafe fn sub(self, rhs: Self) -> Self {
            Avx512(_mm512_sub_ps(self.0, rhs.0))
        }
        #[inline(always)]
        unsafe fn mul(self, rhs: Self) -> Self {
            Avx512(_mm512_mul_ps(self.0, rhs.0))
        }
        #[inline(always)]
        unsafe fn min(self, rhs: Self) -> Self {
            Avx512(_mm512_min_ps(self.0, rhs.0))
        }
        #[inline(always)]
        unsafe fn max(self, rhs: Self) -> Self {
            Avx512(_mm512_max_ps(self.0, rhs.0))
        }
        #[inline(always)]
        unsafe fn abs(self) -> Self {
            Avx512(_mm512_castsi512_ps(_mm512_andnot_si512(
                _mm512_set1_epi32(SIGN_BIT as i32),
                _mm512_castps_si512(self.0),
            )))
        }
        #[inline(always)]
        unsafe fn xor(self, rhs: Self) -> Self {
            Avx512(_mm512_castsi512_ps(_mm512_xor_si512(
                _mm512_castps_si512(self.0),
                _mm512_castps_si512(rhs.0),
            )))
        }
        #[inline(always)]
        unsafe fn and(self, rhs: Self) -> Self {
            Avx512(_mm512_castsi512_ps(_mm512_and_si512(
                _mm512_castps_si512(self.0),
                _mm512_castps_si512(rhs.0),
            )))
        }
        #[inline(always)]
        unsafe fn or(self, rhs: Self) -> Self {
            Avx512(_mm512_castsi512_ps(_mm512_or_si512(
                _mm512_castps_si512(self.0),
                _mm512_castps_si512(rhs.0),
            )))
        }
        #[inline(always)]
        unsafe fn and_not(self, rhs: Self) -> Self {
            Avx512(_mm512_castsi512_ps(_mm512_andnot_si512(
                _mm512_castps_si512(rhs.0),
                _mm512_castps_si512(self.0),
            )))
        }
        #[inline(always)]
        unsafe fn load_shifted(src: *const u64, bs: u32) -> Self {
            let lo = _mm512_loadu_si512(src.cast());
            let hi = _mm512_loadu_si512(src.add(1).cast());
            let right = _mm512_srl_epi64(lo, _mm_cvtsi32_si128(bs as i32));
            let left = _mm512_sll_epi64(
                _mm512_slli_epi64::<1>(hi),
                _mm_cvtsi32_si128(63 - bs as i32),
            );
            Avx512(_mm512_castsi512_ps(_mm512_or_si512(right, left)))
        }
        #[inline(always)]
        unsafe fn sign_if_negative(self) -> Self {
            let below = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(self.0, _mm512_setzero_ps());
            Avx512(_mm512_maskz_mov_ps(
                below,
                _mm512_set1_ps(f32::from_bits(SIGN_BIT)),
            ))
        }
        #[inline(always)]
        unsafe fn pick_eq(self, key: Self, then: Self, otherwise: Self) -> Self {
            let eq = _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(self.0, key.0);
            Avx512(_mm512_mask_blend_ps(eq, otherwise.0, then.0))
        }
        #[inline(always)]
        unsafe fn select(mask: u32, then: Self, otherwise: Self) -> Self {
            Avx512(_mm512_mask_blend_ps(mask as u16, otherwise.0, then.0))
        }
        #[inline(always)]
        unsafe fn negative_mask(self) -> u32 {
            u32::from(_mm512_cmp_ps_mask::<_CMP_LT_OQ>(
                self.0,
                _mm512_setzero_ps(),
            ))
        }
        #[inline(always)]
        unsafe fn load_masked(src: *const f32, mask: u32) -> Self {
            Avx512(_mm512_maskz_loadu_ps(mask as u16, src))
        }
        #[inline(always)]
        unsafe fn store_masked(self, dst: *mut f32, mask: u32) {
            _mm512_mask_storeu_ps(dst, mask as u16, self.0)
        }
    }
}
