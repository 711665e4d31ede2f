//! Offline stand-in for the subset of the `rand` 0.8 API the PERQ crates
//! use: `StdRng`, `SeedableRng::seed_from_u64`, and `Rng::{gen,
//! gen_range, gen_bool}`. The generator is xoshiro256++ seeded through
//! splitmix64 — statistically sound, but **not** the stream real
//! `StdRng` (ChaCha12) produces, so simulated trajectories differ from a
//! registry build. Results built against this crate carry
//! `deps: "shims"` and are never compared with registry-mode results.

use std::ops::{Range, RangeInclusive};

/// Source of raw random words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    /// Draws one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 random mantissa bits: uniform on [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// Types `Rng::gen_range` can sample uniformly.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform on `[lo, hi)`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform on `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
        let v = lo + (hi - lo) * f64::draw(rng);
        // Rounding can land exactly on `hi`; fold it back in range.
        if v < hi {
            v
        } else {
            lo
        }
    }
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * f64::draw(rng)
    }
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                let span = (hi as i128 - lo as i128) as u128;
                // Widening multiply: unbiased enough for span << 2^64.
                let r = (rng.next_u64() as u128 * span) >> 64;
                (lo as i128 + r as i128) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: $t, hi: $t) -> $t {
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let r = (rng.next_u64() as u128 * span) >> 64;
                (lo as i128 + r as i128) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Range shapes `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_inclusive(rng, lo, hi)
    }
}

/// User-facing sampling methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// A value of a [`Standard`]-samplable type.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A value uniform on `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside [0, 1]");
        f64::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The standard seeded generator (xoshiro256++ in this stand-in).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}
