//! Explicit SIMD for the 27-tap accumulation.
//!
//! The row-vectorized fast path of [`crate::stencil`] historically relied
//! on the autovectorizer turning its fixed-width chunk loop into vector
//! code. On the default `x86-64` target that means SSE2 — two lanes —
//! no matter what the host actually supports. This module makes the
//! vector width explicit: small `f64x4` / `f64x8` wrapper types over the
//! AVX / AVX-512 register types whose `mul` / `add` methods compile to
//! single instructions *by construction*, plus a portable fallback that
//! is exactly the old chunk loop.
//!
//! # Bit-identity
//!
//! Every path performs, per output element, the identical scalar
//! sequence `acc = 0.0; acc += coef[t] * v[t]` for `t = 0..27`: the
//! vector types only batch *independent* output elements into lanes, and
//! `vmulpd`/`vaddpd` round each lane exactly like the corresponding
//! scalar `mulsd`/`addsd`. No FMA is used (fusing would change the
//! rounding and break the oracle), no horizontal operation reorders a
//! sum. The dispatch level therefore never changes results, only speed —
//! asserted by the differential proptests in `tests/tiled_props.rs`.
//!
//! # Tails
//!
//! Rows are processed in 16-wide chunks; the remaining `w mod 16` outputs
//! are one more chunk of **masked** vectors on the `f64x4`/`f64x8` tiers
//! (`vmaskmovpd`, `vmovupd {k}`), never a scalar loop: a masked-off lane
//! touches no memory, so the chunk stays inside the row, and a live lane
//! runs the identical mul-then-add chain. This matters for narrow rows —
//! the 30- and 18-wide tiles of a 32×8 GPU block, the `n-2`-wide interior
//! rows of the overlap runners — where the tail is up to half the row.
//! Only the portable tier finishes with scalar code.
//!
//! # Dispatch
//!
//! [`level`] picks the widest supported tier once per process (runtime
//! CPUID detection, overridable with `ADVECT_SIMD=portable|f64x4|f64x8`
//! for differential testing) and [`accumulate_tap_rows`] routes through
//! it. Non-x86-64 targets always take the portable tier.

/// Vector tier used for the tap accumulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Fixed-width chunk loop left to the autovectorizer (any target).
    Portable,
    /// Explicit 4-lane AVX `f64x4` kernel (x86-64 with `avx`).
    F64x4,
    /// Explicit 8-lane AVX-512 `f64x8` kernel (x86-64 with `avx512f`).
    F64x8,
}

impl SimdLevel {
    /// Lane width of this tier.
    pub fn lanes(&self) -> usize {
        match self {
            SimdLevel::Portable => 1,
            SimdLevel::F64x4 => 4,
            SimdLevel::F64x8 => 8,
        }
    }

    /// Stable name (accepted by the `ADVECT_SIMD` override).
    pub fn name(&self) -> &'static str {
        match self {
            SimdLevel::Portable => "portable",
            SimdLevel::F64x4 => "f64x4",
            SimdLevel::F64x8 => "f64x8",
        }
    }
}

/// The widest tier the host supports.
fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return SimdLevel::F64x8;
        }
        if std::arch::is_x86_feature_detected!("avx") {
            return SimdLevel::F64x4;
        }
    }
    SimdLevel::Portable
}

/// Parse an `ADVECT_SIMD` value into a dispatch tier. Aliases follow
/// the instruction-set names: `avx`/`avx2` → `f64x4`, `avx512` →
/// `f64x8`, `scalar` → `portable`.
pub fn parse_level(v: &str) -> Result<SimdLevel, String> {
    match v {
        "portable" | "scalar" => Ok(SimdLevel::Portable),
        "f64x4" | "avx" | "avx2" => Ok(SimdLevel::F64x4),
        "f64x8" | "avx512" => Ok(SimdLevel::F64x8),
        other => Err(format!(
            "ADVECT_SIMD={other:?}: expected one of portable|scalar|f64x4|avx|avx2|f64x8|avx512"
        )),
    }
}

/// The process-wide dispatch tier: the widest supported level, or the
/// `ADVECT_SIMD` override (clamped to what the host supports — asking
/// for `f64x8` on an AVX-only machine yields `f64x4`).
///
/// # Panics
///
/// On an unknown `ADVECT_SIMD` value — a mistyped knob must fail the
/// run, not silently measure the auto-detected tier.
pub fn level() -> SimdLevel {
    use std::sync::OnceLock;
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let best = detect();
        let Ok(want) = std::env::var("ADVECT_SIMD") else {
            return best;
        };
        let want = parse_level(&want).unwrap_or_else(|e| panic!("{e}"));
        if want.lanes() <= best.lanes() {
            want
        } else {
            best
        }
    })
}

/// Accumulate 27 tap rows into a destination row on the process-wide
/// dispatch tier: `dst[x] = Σₜ coef[t] · rows[t][x]`, taps in order.
///
/// # Panics
///
/// If any `rows[t]` is shorter than `dst_row`.
#[inline]
pub fn accumulate_tap_rows(dst_row: &mut [f64], rows: &[&[f64]; 27], coef: &[f64; 27]) {
    accumulate_tap_rows_at(level(), dst_row, rows, coef)
}

/// [`accumulate_tap_rows`] on an explicit tier (differential testing; a
/// tier the host lacks falls back to the portable path).
pub fn accumulate_tap_rows_at(
    level: SimdLevel,
    dst_row: &mut [f64],
    rows: &[&[f64]; 27],
    coef: &[f64; 27],
) {
    let w = dst_row.len();
    for row in rows {
        assert!(row.len() >= w, "tap row shorter than destination row");
    }
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::F64x8 if std::arch::is_x86_feature_detected!("avx512f") => {
            // SAFETY: `avx512f` was just detected; row lengths checked above.
            unsafe { x86::accumulate_f64x8(dst_row, rows, coef) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::F64x4 | SimdLevel::F64x8 if std::arch::is_x86_feature_detected!("avx") => {
            // SAFETY: `avx` was just detected; row lengths checked above.
            unsafe { x86::accumulate_f64x4(dst_row, rows, coef) }
        }
        _ => accumulate_portable(dst_row, rows, coef),
    }
}

/// Scalar tail of the portable tier: elements `x0..` of the row.
#[inline]
fn accumulate_tail(dst_row: &mut [f64], rows: &[&[f64]; 27], coef: &[f64; 27], x0: usize) {
    for (i, d) in dst_row[x0..].iter_mut().enumerate() {
        let mut acc = 0.0;
        for t in 0..27 {
            acc += coef[t] * rows[t][x0 + i];
        }
        *d = acc;
    }
}

/// Portable tier: the fixed-chunk loop the autovectorizer handles on any
/// target (16-wide local accumulator array kept in registers).
fn accumulate_portable(dst_row: &mut [f64], rows: &[&[f64]; 27], coef: &[f64; 27]) {
    const ROW_CHUNK: usize = 16;
    let w = dst_row.len();
    let mut x = 0;
    while x + ROW_CHUNK <= w {
        let mut acc = [0.0f64; ROW_CHUNK];
        for t in 0..27 {
            let c = coef[t];
            let src = &rows[t][x..x + ROW_CHUNK];
            for l in 0..ROW_CHUNK {
                acc[l] += c * src[l];
            }
        }
        dst_row[x..x + ROW_CHUNK].copy_from_slice(&acc);
        x += ROW_CHUNK;
    }
    accumulate_tail(dst_row, rows, coef, x);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `f64x4` / `f64x8` wrappers and their kernels.
    //!
    //! Each wrapper is a `#[repr(transparent)]` newtype over the
    //! architectural register type whose methods are single-instruction
    //! by construction. The methods carry `#[target_feature]`, so inside
    //! the (equally attributed) kernels they inline to bare `vmulpd` /
    //! `vaddpd` with no per-call dispatch.

    use std::arch::x86_64::*;

    /// Four f64 lanes in one AVX register.
    #[derive(Clone, Copy)]
    #[repr(transparent)]
    pub struct F64x4(__m256d);

    impl F64x4 {
        /// All lanes zero.
        #[target_feature(enable = "avx")]
        #[inline]
        fn zero() -> Self {
            Self(_mm256_setzero_pd())
        }

        /// All lanes `v`.
        #[target_feature(enable = "avx")]
        #[inline]
        fn splat(v: f64) -> Self {
            Self(_mm256_set1_pd(v))
        }

        /// Unaligned load of 4 lanes.
        ///
        /// # Safety
        ///
        /// `p..p+4` must be readable.
        #[target_feature(enable = "avx")]
        #[inline]
        unsafe fn load(p: *const f64) -> Self {
            Self(_mm256_loadu_pd(p))
        }

        /// Unaligned store of 4 lanes.
        ///
        /// # Safety
        ///
        /// `p..p+4` must be writable.
        #[target_feature(enable = "avx")]
        #[inline]
        unsafe fn store(self, p: *mut f64) {
            _mm256_storeu_pd(p, self.0)
        }

        /// Lane mask selecting the first `n ≤ 4` lanes: a sliding window
        /// over four set and four clear sign bits (AVX has no 256-bit
        /// integer compare to build it arithmetically).
        #[target_feature(enable = "avx")]
        #[inline]
        fn first_lanes(n: usize) -> __m256i {
            const WINDOW: [i64; 8] = [-1, -1, -1, -1, 0, 0, 0, 0];
            assert!(n <= 4);
            // SAFETY: `4 - n ..= 8 - n` lies inside the 8-element table.
            unsafe { _mm256_loadu_si256(WINDOW.as_ptr().add(4 - n).cast()) }
        }

        /// Masked load of the first `n ≤ 4` lanes; the rest read as 0.0
        /// and their memory is not touched.
        ///
        /// # Safety
        ///
        /// `p..p+n` must be readable.
        #[target_feature(enable = "avx")]
        #[inline]
        unsafe fn load_first(p: *const f64, n: usize) -> Self {
            Self(_mm256_maskload_pd(p, Self::first_lanes(n)))
        }

        /// Masked store of the first `n ≤ 4` lanes; memory behind the
        /// other lanes is not touched.
        ///
        /// # Safety
        ///
        /// `p..p+n` must be writable.
        #[target_feature(enable = "avx")]
        #[inline]
        unsafe fn store_first(self, p: *mut f64, n: usize) {
            _mm256_maskstore_pd(p, Self::first_lanes(n), self.0)
        }

        /// `self + c · v` per lane as separate `vmulpd` + `vaddpd` (no
        /// FMA: fusing would change rounding and break bit-identity).
        #[target_feature(enable = "avx")]
        #[inline]
        fn accum(self, c: Self, v: Self) -> Self {
            Self(_mm256_add_pd(self.0, _mm256_mul_pd(c.0, v.0)))
        }
    }

    /// Eight f64 lanes in one AVX-512 register.
    #[derive(Clone, Copy)]
    #[repr(transparent)]
    pub struct F64x8(__m512d);

    impl F64x8 {
        /// All lanes zero.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn zero() -> Self {
            Self(_mm512_setzero_pd())
        }

        /// All lanes `v`.
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn splat(v: f64) -> Self {
            Self(_mm512_set1_pd(v))
        }

        /// Unaligned load of 8 lanes.
        ///
        /// # Safety
        ///
        /// `p..p+8` must be readable.
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn load(p: *const f64) -> Self {
            Self(_mm512_loadu_pd(p))
        }

        /// Unaligned store of 8 lanes.
        ///
        /// # Safety
        ///
        /// `p..p+8` must be writable.
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn store(self, p: *mut f64) {
            _mm512_storeu_pd(p, self.0)
        }

        /// Write mask selecting the first `n ≤ 8` lanes.
        #[inline]
        fn first_lanes(n: usize) -> __mmask8 {
            assert!(n <= 8);
            (0xffu16 >> (8 - n)) as __mmask8
        }

        /// Masked load of the first `n ≤ 8` lanes; the rest read as 0.0
        /// and their memory is not touched.
        ///
        /// # Safety
        ///
        /// `p..p+n` must be readable.
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn load_first(p: *const f64, n: usize) -> Self {
            Self(_mm512_maskz_loadu_pd(Self::first_lanes(n), p))
        }

        /// Masked store of the first `n ≤ 8` lanes; memory behind the
        /// other lanes is not touched.
        ///
        /// # Safety
        ///
        /// `p..p+n` must be writable.
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn store_first(self, p: *mut f64, n: usize) {
            _mm512_mask_storeu_pd(p, Self::first_lanes(n), self.0)
        }

        /// `self + c · v` per lane as separate multiply + add (no FMA).
        #[target_feature(enable = "avx512f")]
        #[inline]
        fn accum(self, c: Self, v: Self) -> Self {
            Self(_mm512_add_pd(self.0, _mm512_mul_pd(c.0, v.0)))
        }
    }

    /// 4-lane kernel: 16-wide chunks as four `f64x4` accumulators (four
    /// independent dependency chains hide the `vaddpd` latency).
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx` support and that every
    /// `rows[t]` covers `dst_row`'s width.
    #[target_feature(enable = "avx")]
    pub unsafe fn accumulate_f64x4(dst_row: &mut [f64], rows: &[&[f64]; 27], coef: &[f64; 27]) {
        let w = dst_row.len();
        let mut x = 0;
        while x + 16 <= w {
            let mut a0 = F64x4::zero();
            let mut a1 = F64x4::zero();
            let mut a2 = F64x4::zero();
            let mut a3 = F64x4::zero();
            for t in 0..27 {
                let c = F64x4::splat(coef[t]);
                // SAFETY: rows[t][x..x+16] is in bounds (checked by caller).
                let p = unsafe { rows[t].as_ptr().add(x) };
                unsafe {
                    a0 = a0.accum(c, F64x4::load(p));
                    a1 = a1.accum(c, F64x4::load(p.add(4)));
                    a2 = a2.accum(c, F64x4::load(p.add(8)));
                    a3 = a3.accum(c, F64x4::load(p.add(12)));
                }
            }
            // SAFETY: dst_row[x..x+16] is in bounds.
            unsafe {
                let d = dst_row.as_mut_ptr().add(x);
                a0.store(d);
                a1.store(d.add(4));
                a2.store(d.add(8));
                a3.store(d.add(12));
            }
            x += 16;
        }
        // Masked tail: the last `w − x < 16` outputs as one chunk of one
        // to four partial vectors.
        // SAFETY: `avx` per this function's contract; x..w is in bounds of
        // `dst_row` and (checked by the caller) of every tap row.
        unsafe {
            match (w - x).div_ceil(4) {
                0 => {}
                1 => tail_f64x4::<1>(dst_row, rows, coef, x),
                2 => tail_f64x4::<2>(dst_row, rows, coef, x),
                3 => tail_f64x4::<3>(dst_row, rows, coef, x),
                _ => tail_f64x4::<4>(dst_row, rows, coef, x),
            }
        }
    }

    /// Outputs `x..` of the row as `K` interleaved `f64x4` accumulators,
    /// the last of them partial: masked loads and stores keep every access
    /// inside `x..w`. Live lanes run the same mul-then-add chain as the
    /// full-width chunks; dead lanes accumulate zeros and are never stored.
    ///
    /// # Safety
    ///
    /// As [`accumulate_f64x4`], plus `4(K-1) < dst_row.len() - x <= 4K`.
    #[target_feature(enable = "avx")]
    #[inline]
    unsafe fn tail_f64x4<const K: usize>(
        dst_row: &mut [f64],
        rows: &[&[f64]; 27],
        coef: &[f64; 27],
        x: usize,
    ) {
        let n = dst_row.len() - x;
        let live = |j: usize| (n - 4 * j).min(4);
        let mut a = [F64x4::zero(); K];
        for t in 0..27 {
            let c = F64x4::splat(coef[t]);
            for (j, a) in a.iter_mut().enumerate() {
                // SAFETY: lanes `..live(j)` at `x + 4j` lie inside rows[t].
                let v = unsafe { F64x4::load_first(rows[t].as_ptr().add(x + 4 * j), live(j)) };
                *a = a.accum(c, v);
            }
        }
        for (j, a) in a.iter().enumerate() {
            // SAFETY: lanes `..live(j)` at `x + 4j` lie inside dst_row.
            unsafe { a.store_first(dst_row.as_mut_ptr().add(x + 4 * j), live(j)) };
        }
    }

    /// 8-lane kernel: 16-wide chunks as two `f64x8` accumulators (two
    /// chains balance register pressure against `vaddpd` latency — wider
    /// chunks measured slower on the zmm register file).
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` support and that every
    /// `rows[t]` covers `dst_row`'s width.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn accumulate_f64x8(dst_row: &mut [f64], rows: &[&[f64]; 27], coef: &[f64; 27]) {
        let w = dst_row.len();
        let mut x = 0;
        while x + 16 <= w {
            let mut a0 = F64x8::zero();
            let mut a1 = F64x8::zero();
            for t in 0..27 {
                let c = F64x8::splat(coef[t]);
                // SAFETY: rows[t][x..x+16] is in bounds (checked by caller).
                let p = unsafe { rows[t].as_ptr().add(x) };
                unsafe {
                    a0 = a0.accum(c, F64x8::load(p));
                    a1 = a1.accum(c, F64x8::load(p.add(8)));
                }
            }
            // SAFETY: dst_row[x..x+16] is in bounds.
            unsafe {
                let d = dst_row.as_mut_ptr().add(x);
                a0.store(d);
                a1.store(d.add(8));
            }
            x += 16;
        }
        // Masked tail: the last `w − x < 16` outputs as one chunk of one
        // or two partial vectors.
        // SAFETY: `avx512f` per this function's contract; x..w is in bounds
        // of `dst_row` and (checked by the caller) of every tap row.
        unsafe {
            match (w - x).div_ceil(8) {
                0 => {}
                1 => tail_f64x8::<1>(dst_row, rows, coef, x),
                _ => tail_f64x8::<2>(dst_row, rows, coef, x),
            }
        }
    }

    /// Outputs `x..` of the row as `K` interleaved `f64x8` accumulators,
    /// the last of them partial (see [`tail_f64x4`]).
    ///
    /// # Safety
    ///
    /// As [`accumulate_f64x8`], plus `8(K-1) < dst_row.len() - x <= 8K`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn tail_f64x8<const K: usize>(
        dst_row: &mut [f64],
        rows: &[&[f64]; 27],
        coef: &[f64; 27],
        x: usize,
    ) {
        let n = dst_row.len() - x;
        let live = |j: usize| (n - 8 * j).min(8);
        let mut a = [F64x8::zero(); K];
        for t in 0..27 {
            let c = F64x8::splat(coef[t]);
            for (j, a) in a.iter_mut().enumerate() {
                // SAFETY: lanes `..live(j)` at `x + 8j` lie inside rows[t].
                let v = unsafe { F64x8::load_first(rows[t].as_ptr().add(x + 8 * j), live(j)) };
                *a = a.accum(c, v);
            }
        }
        for (j, a) in a.iter().enumerate() {
            // SAFETY: lanes `..live(j)` at `x + 8j` lie inside dst_row.
            unsafe { a.store_first(dst_row.as_mut_ptr().add(x + 8 * j), live(j)) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 27 tap rows of exactly `w` values, each in an allocation of its own
    /// that ends with the row — a lane that read past a row would leave
    /// its allocation. Payloads mix ordinary values with −0.0, subnormals
    /// and payload-carrying NaNs. At most one tap per column is NaN: which
    /// payload survives the sum of two NaNs depends on operand order, and
    /// that the compiler may commute.
    fn sample_inputs(w: usize) -> (Vec<Box<[f64]>>, [f64; 27]) {
        let rows = (0..27)
            .map(|t| {
                (0..w)
                    .map(|x| match (x * 11 + t * 7) % 29 {
                        0 => -0.0,
                        1 => f64::from_bits(1),
                        2 => -f64::MIN_POSITIVE / 4.0,
                        _ if x % 5 == 3 && t == x * 4 % 27 => {
                            f64::from_bits(0xfff8_0000_0000_0000 | (x as u64 + 1))
                        }
                        v => v as f64 * 0.173 - 1.9,
                    })
                    .collect()
            })
            .collect();
        let mut coef = [0.0f64; 27];
        for (t, c) in coef.iter_mut().enumerate() {
            *c = (t as f64 * 0.41).sin() * 0.2 + 1.0 / 27.0;
        }
        (rows, coef)
    }

    fn scalar_reference(rows: &[&[f64]; 27], coef: &[f64; 27], w: usize) -> Vec<u64> {
        (0..w)
            .map(|x| {
                let mut acc = 0.0f64;
                for t in 0..27 {
                    acc += coef[t] * rows[t][x];
                }
                acc.to_bits()
            })
            .collect()
    }

    #[test]
    fn every_level_matches_scalar_bitwise() {
        // Every width through three 16-wide chunks: each tail length, on
        // each tier, alone and behind one or two full chunks.
        for w in (0..=48).chain([100, 128]) {
            let (rows, coef) = sample_inputs(w);
            let rows: [&[f64]; 27] = std::array::from_fn(|t| &*rows[t]);
            let expect = scalar_reference(&rows, &coef, w);
            for lvl in [SimdLevel::Portable, SimdLevel::F64x4, SimdLevel::F64x8] {
                // Exact-length destination too: a masked store past the
                // row would leave the allocation.
                let mut dst = vec![1.5f64; w].into_boxed_slice();
                accumulate_tap_rows_at(lvl, &mut dst, &rows, &coef);
                let got: Vec<u64> = dst.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, expect, "level {lvl:?} width {w}");
            }
        }
    }

    #[test]
    fn dispatch_level_is_cached_and_supported() {
        let l = level();
        assert_eq!(l, level());
        assert!(l.lanes() <= detect().lanes());
    }

    #[test]
    fn level_names_roundtrip() {
        for l in [SimdLevel::Portable, SimdLevel::F64x4, SimdLevel::F64x8] {
            assert!(!l.name().is_empty());
            assert!(l.lanes().is_power_of_two());
            assert_eq!(parse_level(l.name()), Ok(l));
        }
    }

    #[test]
    fn level_parse_is_strict() {
        assert_eq!(parse_level("avx2"), Ok(SimdLevel::F64x4));
        assert_eq!(parse_level("avx512"), Ok(SimdLevel::F64x8));
        assert_eq!(parse_level("scalar"), Ok(SimdLevel::Portable));
        assert!(parse_level("sse").is_err());
        assert!(parse_level("F64X4").is_err());
        assert!(parse_level("").is_err());
    }
}
