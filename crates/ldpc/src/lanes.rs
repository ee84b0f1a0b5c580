//! The 8 × `f32` lane type the min-sum kernel is written over.
//!
//! The kernel body exists once, generic over [`Lanes`]; this module holds
//! the two implementations it is instantiated with: [`Avx2`] (`__m256`
//! intrinsics, x86-64 only, picked at runtime) and [`Portable`] (a plain
//! `[f32; 8]`, every other target). The split exists because LLVM keeps a
//! chunk's running sign / min1 / min2 in registers across a block row
//! only when they are vector values from the start — written as array
//! loops and left to the auto-vectorizer the state is spilled and reloaded
//! around every circulant.
//!
//! Every operation is a per-lane IEEE operation (or a bit operation on the
//! lanes), so both implementations produce identical bits.

/// Floats per lane vector.
pub(crate) const WIDTH: usize = 8;

/// Eight `f32` lanes.
///
/// # Safety
///
/// Every method requires that the running CPU supports the instruction
/// set the implementing type is built on (nothing for [`Portable`], AVX2
/// for [`Avx2`]). The methods have no other precondition.
pub(crate) trait Lanes: Copy {
    unsafe fn splat(x: f32) -> Self;
    unsafe fn load(src: &[f32; WIDTH]) -> Self;
    unsafe fn store(self, dst: &mut [f32; WIDTH]);
    unsafe fn add(self, rhs: Self) -> Self;
    unsafe fn sub(self, rhs: Self) -> Self;
    unsafe fn mul(self, rhs: Self) -> Self;
    unsafe fn min(self, rhs: Self) -> Self;
    unsafe fn max(self, rhs: Self) -> Self;
    unsafe fn abs(self) -> Self;
    /// Bitwise XOR of the lanes' representations.
    unsafe fn xor(self, rhs: Self) -> Self;
    /// The sign bit alone in every lane that is `< 0.0`, zero bits
    /// elsewhere (`-0.0` is not below zero).
    unsafe fn sign_if_negative(self) -> Self;
    /// Per lane: `then` where `self == key`, `otherwise` elsewhere.
    unsafe fn pick_eq(self, key: Self, then: Self, otherwise: Self) -> Self;
    /// Bit `i` set where lane `i` is `< 0.0`.
    unsafe fn negative_mask(self) -> u8;
}

const SIGN_BIT: u32 = 0x8000_0000;

/// Portable lanes: plain per-element loops over `[f32; 8]`.
#[derive(Clone, Copy)]
pub(crate) struct Portable([f32; WIDTH]);

impl Portable {
    #[inline(always)]
    fn zip(self, rhs: Self, f: impl Fn(f32, f32) -> f32) -> Self {
        Portable(std::array::from_fn(|i| f(self.0[i], rhs.0[i])))
    }
}

impl Lanes for Portable {
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        Portable([x; WIDTH])
    }
    #[inline(always)]
    unsafe fn load(src: &[f32; WIDTH]) -> Self {
        Portable(*src)
    }
    #[inline(always)]
    unsafe fn store(self, dst: &mut [f32; WIDTH]) {
        *dst = self.0;
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
    unsafe fn negative_mask(self) -> u8 {
        let mut mask = 0u8;
        for (i, &a) in self.0.iter().enumerate() {
            mask |= u8::from(a < 0.0) << i;
        }
        mask
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::Avx2;

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Lanes, SIGN_BIT, WIDTH};
    use std::arch::x86_64::*;

    /// AVX2 lanes: one `__m256`.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2(__m256);

    // SAFETY (every block below): the intrinsics need AVX/AVX2, which the
    // trait's contract makes the caller's obligation; loads and stores go
    // through `[f32; 8]` references, valid for 32 unaligned bytes.
    impl Lanes for Avx2 {
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            Avx2(_mm256_set1_ps(x))
        }
        #[inline(always)]
        unsafe fn load(src: &[f32; WIDTH]) -> Self {
            Avx2(_mm256_loadu_ps(src.as_ptr()))
        }
        #[inline(always)]
        unsafe fn store(self, dst: &mut [f32; WIDTH]) {
            _mm256_storeu_ps(dst.as_mut_ptr(), self.0)
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
        unsafe fn negative_mask(self) -> u8 {
            let below = _mm256_cmp_ps::<_CMP_LT_OQ>(self.0, _mm256_setzero_ps());
            _mm256_movemask_ps(below) as u8
        }
    }
}
