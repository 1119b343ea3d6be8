//! Explicit SIMD for the 27-tap accumulation: one block kernel.
//!
//! A call of the kernel computes a **block** of `rows` output rows, each
//! `w` points wide ([`TapBlock`]): output row `r` starts `r · dst_stride`
//! past the block's first output, and tap `t`'s window for that row
//! starts `r · src_stride` past tap `t`'s window for row 0. That one shape
//! covers every sweep in the workspace — a tile's z-plane of x-rows on
//! the CPU row path, the ≤ 3 staged columns of a plane on the column
//! path, a thread block's staged plane in `simgpu`. The row loop, the 27
//! coefficient broadcasts and the chunk/tail split all live inside one
//! `#[target_feature]` body, and the bounds are checked once per call, so
//! a row costs its arithmetic and nothing else. (Per-row set-up —
//! building and checking 27 windows, dispatching — measured ≈ 38 ns
//! against ≈ 26 ns per 16-wide chunk on the reference host; see DESIGN
//! §11.)
//!
//! The vector width is explicit: small `f64x4` / `f64x8` wrapper types
//! over the AVX / AVX-512 register types whose `mul` / `add` methods
//! compile to single instructions *by construction*, plus a portable
//! chunk loop for every other target.
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
//! asserted by the differential tests here and in `tests/tiled_props.rs`.
//!
//! # Tails
//!
//! Each row is processed in 16-wide chunks; the remaining `w mod 16`
//! outputs are one more chunk of **masked** vectors on the `f64x4`/`f64x8`
//! tiers (`vmaskmovpd`, `vmovupd {k}`), never a scalar loop: a masked-off
//! lane touches no memory, so the chunk stays inside the row, and a live
//! lane runs the identical mul-then-add chain. This matters for narrow
//! rows — the 30- and 18-wide tiles of a 32×8 GPU block, the `n-2`-wide
//! interior rows of the overlap runners, the staged columns of a thin
//! wall — where the tail is up to all of the row.
//!
//! # Dispatch
//!
//! [`level`] is the widest tier the host supports, detected once per
//! process; [`accumulate_block`] routes through it and
//! [`accumulate_block_at`] takes an explicit tier (differential testing).
//! Non-x86-64 targets always take the portable tier.

/// Vector tier used for the tap accumulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Chunk loop left to the autovectorizer (any target).
    Portable,
    /// Explicit 4-lane AVX `f64x4` kernel (x86-64 with `avx`).
    F64x4,
    /// Explicit 8-lane AVX-512 `f64x8` kernel (x86-64 with `avx512f`).
    F64x8,
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

/// The process-wide dispatch tier: the widest supported level, detected
/// once.
pub fn level() -> SimdLevel {
    use std::sync::OnceLock;
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(detect)
}

/// Geometry of one block-kernel call, as flat indices into the
/// destination and source allocations the call is handed: output row
/// `r ∈ 0..rows` is the `w` points at `dst + r · dst_stride`, and its
/// tap `t` window the `w` points at `taps[t] + r · src_stride`, taps in
/// coefficient order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapBlock {
    /// Output rows.
    pub rows: usize,
    /// Points per output row.
    pub w: usize,
    /// First point of output row 0.
    pub dst: usize,
    /// Distance between consecutive output rows.
    pub dst_stride: usize,
    /// First point of each tap's window for row 0.
    pub taps: [usize; 27],
    /// Distance between consecutive rows' tap windows.
    pub src_stride: usize,
}

/// One past the last point of `rows ≥ 1` rows of `w` points, `stride`
/// apart from `first`; `None` on overflow.
pub(crate) fn rows_end(first: usize, rows: usize, stride: usize, w: usize) -> Option<usize> {
    let last = (rows - 1).checked_mul(stride)?.checked_add(first)?;
    last.checked_add(w)
}

/// Compute block `b` on the process-wide dispatch tier: for every output
/// row `r` and point `x`, `dst[b.dst + r·dst_stride + x] =
/// Σₜ coef[t] · src[b.taps[t] + r·src_stride + x]`, taps in order.
///
/// # Panics
///
/// If an output row or tap window of a non-empty block leaves its slice.
#[inline]
pub fn accumulate_block(dst: &mut [f64], src: &[f64], b: &TapBlock, coef: &[f64; 27]) {
    accumulate_block_at(level(), dst, src, b, coef)
}

/// [`accumulate_block`] on an explicit tier (differential testing; a
/// tier the host lacks falls back to the next narrower one).
pub fn accumulate_block_at(
    level: SimdLevel,
    dst: &mut [f64],
    src: &[f64],
    b: &TapBlock,
    coef: &[f64; 27],
) {
    let (d, s) = ((dst.as_mut_ptr(), dst.len()), (src.as_ptr(), src.len()));
    // SAFETY: each slice is valid for its length; `&mut` excludes every
    // other access to `dst` and `&` every write to `src`.
    unsafe { accumulate_block_raw(level, d, s, b, coef) }
}

/// [`accumulate_block_at`] through raw `(pointer, length)` allocations,
/// for views whose rows other threads write between the block's rows
/// (the halo columns `SharedField`'s master unpacks while workers sweep
/// the core), so no slice may span the block. Checks the bounds, then
/// dispatches.
///
/// # Safety
///
/// Both allocations must be valid for their lengths, and for the
/// duration of the call no other thread may write a point a tap window
/// of `b` reads, nor read or write a point an output row of `b` writes,
/// and the two sets must not overlap. Points between the block's rows
/// are not accessed.
pub(crate) unsafe fn accumulate_block_raw(
    level: SimdLevel,
    (dst, dst_len): (*mut f64, usize),
    (src, src_len): (*const f64, usize),
    b: &TapBlock,
    coef: &[f64; 27],
) {
    if b.rows == 0 || b.w == 0 {
        return;
    }
    let last_tap = *b.taps.iter().max().expect("27 taps");
    assert!(
        rows_end(b.dst, b.rows, b.dst_stride, b.w).is_some_and(|e| e <= dst_len),
        "tap block overruns its destination ({dst_len} values): {b:?}"
    );
    assert!(
        rows_end(last_tap, b.rows, b.src_stride, b.w).is_some_and(|e| e <= src_len),
        "tap block overruns its source ({src_len} values): {b:?}"
    );
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::F64x8 if std::arch::is_x86_feature_detected!("avx512f") => {
            // SAFETY: `avx512f` was just detected; bounds checked above.
            unsafe { x86::block_f64x8(dst, src, b, coef) }
        }
        #[cfg(target_arch = "x86_64")]
        SimdLevel::F64x4 | SimdLevel::F64x8 if std::arch::is_x86_feature_detected!("avx") => {
            // SAFETY: `avx` was just detected; bounds checked above.
            unsafe { x86::block_f64x4(dst, src, b, coef) }
        }
        // SAFETY: bounds checked above.
        _ => unsafe { block_portable(dst, src, b, coef) },
    }
}

/// Portable tier: each row in 16-wide chunks accumulated in a local
/// array, the last chunk partial; vectorizing is left to the compiler.
///
/// # Safety
///
/// Every output row and tap window of `b` must lie inside `dst` / `src`.
unsafe fn block_portable(dst: *mut f64, src: *const f64, b: &TapBlock, coef: &[f64; 27]) {
    const CHUNK: usize = 16;
    for r in 0..b.rows {
        let d = dst.add(b.dst + r * b.dst_stride);
        let s = src.add(r * b.src_stride);
        let mut x = 0;
        while x < b.w {
            let n = CHUNK.min(b.w - x);
            let mut acc = [0.0f64; CHUNK];
            for (t, &c) in coef.iter().enumerate() {
                let p = s.add(b.taps[t] + x);
                for (l, a) in acc[..n].iter_mut().enumerate() {
                    *a += c * *p.add(l);
                }
            }
            std::ptr::copy_nonoverlapping(acc.as_ptr(), d.add(x), n);
            x += n;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `f64x4` / `f64x8` wrappers and their block kernels.
    //!
    //! Each wrapper is a `#[repr(transparent)]` newtype over the
    //! architectural register type whose methods are single-instruction
    //! by construction. The methods carry `#[target_feature]`, so inside
    //! the (equally attributed) kernels they inline to bare `vmulpd` /
    //! `vaddpd` with no per-call dispatch.

    use super::TapBlock;
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

    /// 4-lane block kernel: each row in 16-wide chunks as four `f64x4`
    /// accumulators (four independent dependency chains hide the
    /// `vaddpd` latency), then one masked tail chunk.
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx` support and that every output
    /// row and tap window of `b` lies inside `dst` / `src`.
    #[target_feature(enable = "avx")]
    pub unsafe fn block_f64x4(dst: *mut f64, src: *const f64, b: &TapBlock, coef: &[f64; 27]) {
        for r in 0..b.rows {
            // SAFETY (all accesses below): lanes `x..x+16`, resp. the
            // live tail lanes, of row `r` lie inside the checked block.
            let d = dst.add(b.dst + r * b.dst_stride);
            let s = src.add(r * b.src_stride);
            let mut x = 0;
            while x + 16 <= b.w {
                let mut a = [F64x4::zero(); 4];
                for (t, &k) in coef.iter().enumerate() {
                    let c = F64x4::splat(k);
                    let p = s.add(b.taps[t] + x);
                    for (j, a) in a.iter_mut().enumerate() {
                        *a = a.accum(c, F64x4::load(p.add(4 * j)));
                    }
                }
                for (j, a) in a.iter().enumerate() {
                    a.store(d.add(x + 4 * j));
                }
                x += 16;
            }
            let (d, s, n) = (d.add(x), s.add(x), b.w - x);
            match n.div_ceil(4) {
                0 => {}
                1 => tail_f64x4::<1>(d, s, &b.taps, coef, n),
                2 => tail_f64x4::<2>(d, s, &b.taps, coef, n),
                3 => tail_f64x4::<3>(d, s, &b.taps, coef, n),
                _ => tail_f64x4::<4>(d, s, &b.taps, coef, n),
            }
        }
    }

    /// The last `n` outputs of a row as `K` interleaved `f64x4`
    /// accumulators, the last of them partial: masked loads and stores
    /// keep every access inside the row. Live lanes run the same
    /// mul-then-add chain as the full-width chunks; dead lanes accumulate
    /// zeros and are never stored.
    ///
    /// # Safety
    ///
    /// As [`block_f64x4`] for `n` outputs at `d` and windows at
    /// `s + taps[t]`, with `4(K-1) < n ≤ 4K`.
    #[target_feature(enable = "avx")]
    #[inline]
    unsafe fn tail_f64x4<const K: usize>(
        d: *mut f64,
        s: *const f64,
        taps: &[usize; 27],
        coef: &[f64; 27],
        n: usize,
    ) {
        let live = |j: usize| (n - 4 * j).min(4);
        let mut a = [F64x4::zero(); K];
        for (t, &k) in coef.iter().enumerate() {
            let c = F64x4::splat(k);
            for (j, a) in a.iter_mut().enumerate() {
                *a = a.accum(c, F64x4::load_first(s.add(taps[t] + 4 * j), live(j)));
            }
        }
        for (j, a) in a.iter().enumerate() {
            a.store_first(d.add(4 * j), live(j));
        }
    }

    /// 8-lane block kernel: each row in 16-wide chunks as two `f64x8`
    /// accumulators, then one masked tail chunk. (32-wide chunks of four
    /// accumulators measured no faster on the reference host: 1.9–2.0
    /// against 1.8–1.9 ns per point sweeping a 64×64×32 block.)
    ///
    /// # Safety
    ///
    /// The caller must have verified `avx512f` support and that every
    /// output row and tap window of `b` lies inside `dst` / `src`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn block_f64x8(dst: *mut f64, src: *const f64, b: &TapBlock, coef: &[f64; 27]) {
        for r in 0..b.rows {
            // SAFETY (all accesses below): as in `block_f64x4`.
            let d = dst.add(b.dst + r * b.dst_stride);
            let s = src.add(r * b.src_stride);
            let mut x = 0;
            while x + 16 <= b.w {
                let (mut a0, mut a1) = (F64x8::zero(), F64x8::zero());
                for (t, &k) in coef.iter().enumerate() {
                    let c = F64x8::splat(k);
                    let p = s.add(b.taps[t] + x);
                    a0 = a0.accum(c, F64x8::load(p));
                    a1 = a1.accum(c, F64x8::load(p.add(8)));
                }
                a0.store(d.add(x));
                a1.store(d.add(x + 8));
                x += 16;
            }
            let (d, s, n) = (d.add(x), s.add(x), b.w - x);
            match n.div_ceil(8) {
                0 => {}
                1 => tail_f64x8::<1>(d, s, &b.taps, coef, n),
                _ => tail_f64x8::<2>(d, s, &b.taps, coef, n),
            }
        }
    }

    /// The last `n` outputs of a row as `K` interleaved `f64x8`
    /// accumulators, the last of them partial (see [`tail_f64x4`]).
    ///
    /// # Safety
    ///
    /// As [`block_f64x8`] for `n` outputs at `d` and windows at
    /// `s + taps[t]`, with `8(K-1) < n ≤ 8K`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn tail_f64x8<const K: usize>(
        d: *mut f64,
        s: *const f64,
        taps: &[usize; 27],
        coef: &[f64; 27],
        n: usize,
    ) {
        let live = |j: usize| (n - 8 * j).min(8);
        let mut a = [F64x8::zero(); K];
        for (t, &k) in coef.iter().enumerate() {
            let c = F64x8::splat(k);
            for (j, a) in a.iter_mut().enumerate() {
                *a = a.accum(c, F64x8::load_first(s.add(taps[t] + 8 * j), live(j)));
            }
        }
        for (j, a) in a.iter().enumerate() {
            a.store_first(d.add(8 * j), live(j));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEVELS: [SimdLevel; 3] = [SimdLevel::Portable, SimdLevel::F64x4, SimdLevel::F64x8];

    /// One source value per flat index: ordinary values mixed with −0.0,
    /// subnormals and payload-carrying NaNs. At most one tap per output
    /// reads a NaN — which payload survives the sum of two NaNs depends
    /// on operand order, and that the compiler may commute: NaNs sit at
    /// `i % 53 == 17`, the taps of one output in `block` below lie
    /// `k · w` or `k · (w + 2)` apart for `k ≤ 26`, and the prime 53
    /// divides no such distance at the widths tested.
    fn sample(i: usize) -> f64 {
        match i % 29 {
            _ if i % 53 == 17 => f64::from_bits(0xfff8_0000_0000_0000 | (i as u64 + 1)),
            0 => -0.0,
            1 => f64::from_bits(1),
            2 => -f64::MIN_POSITIVE / 4.0,
            v => v as f64 * 0.173 - 1.9,
        }
    }

    fn coef() -> [f64; 27] {
        std::array::from_fn(|t| (t as f64 * 0.41).sin() * 0.2 + 1.0 / 27.0)
    }

    /// A block of `rows` rows of width `w`: dense (outputs and tap
    /// windows packed back to back, strides `w` and `27 w`) or strided
    /// (gaps between tap windows and between rows). Source and
    /// destination are exact-length allocations: the last tap window and
    /// the last output row end at the end of theirs, so a lane or a row
    /// past either leaves the allocation.
    fn block(rows: usize, w: usize, strided: bool) -> (TapBlock, Box<[f64]>, usize) {
        let (gap, pitch) = if strided { (5, w + 2) } else { (0, w) };
        let b = TapBlock {
            rows,
            w,
            dst: gap,
            dst_stride: w + gap,
            taps: std::array::from_fn(|t| t * pitch),
            src_stride: 27 * pitch + gap,
        };
        let src_len = (rows - 1) * b.src_stride + b.taps[26] + w;
        let dst_len = b.dst + (rows - 1) * b.dst_stride + w;
        (b, (0..src_len).map(sample).collect(), dst_len)
    }

    #[test]
    fn every_level_matches_scalar_bitwise() {
        // Rows 1..=4 at every width through three 16-wide chunks — each
        // tail length, on each tier, alone and behind full chunks — dense
        // and strided.
        let coef = coef();
        for rows in 1..=4 {
            for w in (0..=48).chain([100, 128]) {
                for strided in [false, true] {
                    let (b, src, dst_len) = block(rows, w, strided);
                    let mut expect = vec![1.5f64; dst_len];
                    for r in 0..rows {
                        for x in 0..w {
                            let mut acc = 0.0f64;
                            for t in 0..27 {
                                acc += coef[t] * src[b.taps[t] + r * b.src_stride + x];
                            }
                            expect[b.dst + r * b.dst_stride + x] = acc;
                        }
                    }
                    let expect: Vec<u64> = expect.iter().map(|v| v.to_bits()).collect();
                    for lvl in LEVELS {
                        let mut dst = vec![1.5f64; dst_len].into_boxed_slice();
                        accumulate_block_at(lvl, &mut dst, &src, &b, &coef);
                        let got: Vec<u64> = dst.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got, expect, "{lvl:?} rows {rows} w {w} strided {strided}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "overruns its destination")]
    fn a_block_whose_last_row_overruns_its_destination_panics() {
        let (b, src, dst_len) = block(3, 20, true);
        let mut dst = vec![0.0; dst_len - 1];
        accumulate_block(&mut dst, &src, &b, &coef());
    }

    #[test]
    fn dispatch_level_is_cached_and_supported() {
        let l = level();
        assert_eq!(l, level());
        assert_eq!(l, detect());
    }
}
