//! int8 row-quantized GEMM for the serving path.
//!
//! Weights are quantized **once** at export/publish time with per-row
//! symmetric scales ([`quantize_rows`]): row `r`'s scale is
//! `maxabs(row)/127` and every element is `round(v/scale)` clamped to
//! `[-127, 127]` (the `-128` code is unused so negation stays exact).
//! Activations are quantized **dynamically** per input row at call time
//! with the same scheme, so no calibration pass is needed.
//!
//! The microkernel accumulates `i8×i8` products in `i32` — exactly, in
//! any order, because integer addition is associative — and dequantizes
//! once per output element: `y = sx · sw[o] · Σ qx[i]·qw[o][i]`. That
//! makes the int8 path *batch-invariant by construction*: each input
//! row's scale and dot products depend only on that row, so a record's
//! outputs are bit-identical whether it is served alone or stacked in a
//! micro-batch, with no dispatch pinning needed.
//!
//! On AVX2 hosts the dot kernel sign-extends 16 `i8` lanes to `i16`
//! (`_mm256_cvtepi8_epi16`) and uses `_mm256_madd_epi16` — 16
//! multiply-adds per instruction, products bounded by `127² = 16129` so
//! the pairwise `i16×i16 → i32` sums can never overflow. A scalar
//! fallback keeps every other architecture correct (and bit-identical:
//! integer math has no rounding to diverge on).

use nautilus_util::telemetry;

/// Largest quantized magnitude: symmetric range `[-127, 127]`.
pub const QMAX: f32 = 127.0;

/// A per-row symmetrically quantized matrix, row-major `rows × cols`.
///
/// For the serving path this holds a dense layer's weights *transposed*
/// to `[out_channel][in_dim]` so each output channel's weights are one
/// contiguous strip for the dot kernel.
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    /// Number of rows (output channels for a dense layer).
    pub rows: usize,
    /// Number of columns (the reduction dimension).
    pub cols: usize,
    /// Row-major `i8` codes, `rows * cols` of them.
    pub data: Vec<i8>,
    /// Per-row dequantization scale: `value ≈ code · scales[row]`.
    pub scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Heap bytes held by the quantized representation (codes + scales).
    pub fn bytes(&self) -> usize {
        self.data.len() + self.scales.len() * 4
    }
}

/// Quantizes one row of `cols` f32 values into `dst`, returning the
/// dequantization scale. An all-zero (or empty) row gets scale 0 and
/// all-zero codes.
fn quantize_row(src: &[f32], dst: &mut [i8]) -> f32 {
    let maxabs = src.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if maxabs == 0.0 {
        dst.fill(0);
        return 0.0;
    }
    let inv = QMAX / maxabs;
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = (v * inv).round().clamp(-QMAX, QMAX) as i8;
    }
    maxabs / QMAX
}

/// Per-row symmetric quantization of a row-major `rows × cols` matrix.
pub fn quantize_rows(rows: usize, cols: usize, src: &[f32]) -> QuantizedMatrix {
    assert_eq!(src.len(), rows * cols, "quantize_rows: shape mismatch");
    let mut data = vec![0i8; rows * cols];
    let mut scales = vec![0.0f32; rows];
    for r in 0..rows {
        scales[r] = quantize_row(&src[r * cols..(r + 1) * cols], &mut data[r * cols..(r + 1) * cols]);
    }
    QuantizedMatrix { rows, cols, data, scales }
}

/// Exact `i8·i8 → i32` dot product, scalar reference. Integer math: the
/// result is identical on every architecture and in every order.
fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// AVX2 `i8·i8 → i32` dot product: 16 lanes sign-extended to `i16`,
/// `madd` pairs into `i32`, accumulated across the row, scalar tail.
/// Computes exactly the same integer as [`dot_i8_scalar`].
///
/// # Safety
/// Caller must ensure the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i + 16 <= n {
        let va = _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i) as *const __m128i));
        let vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(i) as *const __m128i));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
        i += 16;
    }
    let hi = _mm256_extracti128_si256(acc, 1);
    let lo = _mm256_castsi256_si128(acc);
    let s = _mm_add_epi32(hi, lo);
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b0100_1110));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b1011_0001));
    let mut total = _mm_cvtsi128_si32(s);
    while i < n {
        total += *a.get_unchecked(i) as i32 * *b.get_unchecked(i) as i32;
        i += 1;
    }
    total
}

/// AVX2 row kernel: computes `R` input rows' whole output strips,
/// `out[r][o] = sx[r] · sw[o] · (qx[r] · w[o])`, four output channels at
/// a time. Each 16-lane weight load is shared by the `R` rows and each
/// activation load by the four channels, so the weights stream from cache
/// once per `R` rows; the `R × 4` `madd` chains stay independent. `qx`
/// holds the `R` quantized rows back to back, `out` their `R` output rows.
/// One `target_feature` region spanning the full loop lets the dot bodies
/// inline (the per-output [`dot_i8_avx2`] cannot inline into non-AVX2
/// callers and pays a call plus horizontal reduction per element). Same
/// exact integers as the scalar path — only the schedule differs, and
/// integer addition is associative.
///
/// # Safety
/// Caller must ensure the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qgemm_rows_avx2<const R: usize>(
    k: usize,
    qx: &[i8],
    w: &QuantizedMatrix,
    sx: [f32; R],
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    #[inline(always)]
    unsafe fn hsum_i32(v: __m256i) -> i32 {
        let s = _mm_add_epi32(_mm256_extracti128_si256(v, 1), _mm256_castsi256_si128(v));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b0100_1110));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b1011_0001));
        _mm_cvtsi128_si32(s)
    }
    debug_assert_eq!(qx.len(), R * k);
    let nout = w.rows;
    debug_assert_eq!(out.len(), R * nout);
    let wp = w.data.as_ptr();
    let xp = qx.as_ptr();
    let simd_k = k & !15;
    let mut o = 0;
    while o + 4 <= nout {
        let mut acc = [[_mm256_setzero_si256(); 4]; R];
        let mut i = 0;
        while i < simd_k {
            let mut vw = [_mm256_setzero_si256(); 4];
            for (j, v) in vw.iter_mut().enumerate() {
                let wv = _mm_loadu_si128(wp.add((o + j) * k + i) as *const __m128i);
                *v = _mm256_cvtepi8_epi16(wv);
            }
            for (r, racc) in acc.iter_mut().enumerate() {
                let xv = _mm_loadu_si128(xp.add(r * k + i) as *const __m128i);
                let va = _mm256_cvtepi8_epi16(xv);
                for (a, &v) in racc.iter_mut().zip(&vw) {
                    *a = _mm256_add_epi32(*a, _mm256_madd_epi16(va, v));
                }
            }
            i += 16;
        }
        for (r, racc) in acc.iter().enumerate() {
            for (j, a) in racc.iter().enumerate() {
                let mut dot = hsum_i32(*a);
                for i in simd_k..k {
                    dot += *xp.add(r * k + i) as i32 * *wp.add((o + j) * k + i) as i32;
                }
                let y = sx[r] * w.scales[o + j] * dot as f32;
                *out.get_unchecked_mut(r * nout + o + j) = y;
            }
        }
        o += 4;
    }
    while o < nout {
        for r in 0..R {
            let dot = dot_i8_avx2(&qx[r * k..(r + 1) * k], &w.data[o * k..(o + 1) * k]);
            *out.get_unchecked_mut(r * nout + o) = sx[r] * w.scales[o] * dot as f32;
        }
        o += 1;
    }
}

/// Whether the AVX2 dot kernel can run on this host (cached by `std`).
fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[inline]
fn dot_i8(use_avx2: bool, a: &[i8], b: &[i8]) -> i32 {
    #[cfg(target_arch = "x86_64")]
    if use_avx2 {
        // SAFETY: `use_avx2` is only true when `avx2_supported()` held.
        return unsafe { dot_i8_avx2(a, b) };
    }
    let _ = use_avx2;
    dot_i8_scalar(a, b)
}

/// Dynamic-activation int8 GEMM: `out[m × w.rows] = X[m × k] · Wᵀ` where
/// `w` holds the weight matrix as `w.rows` quantized rows of length
/// `k = w.cols` (one per output channel).
///
/// Each input row is quantized on the fly (per-row symmetric scale), the
/// `i8` dot accumulates exactly in `i32`, and the only float rounding is
/// the final `sx · sw[o] · dot` dequantization — two multiplies per
/// output element. `out` is overwritten, not accumulated into.
pub fn qgemm_dyn(m: usize, k: usize, x: &[f32], w: &QuantizedMatrix, out: &mut [f32]) {
    assert_eq!(w.cols, k, "qgemm_dyn: reduction dim mismatch");
    assert_eq!(x.len(), m * k, "qgemm_dyn: input shape mismatch");
    assert_eq!(out.len(), m * w.rows, "qgemm_dyn: output shape mismatch");
    let _sp = telemetry::span("tensor", "qgemm");
    let use_avx2 = avx2_supported();
    let mut qx = vec![0i8; 2 * k];
    let mut r = 0;
    #[cfg(target_arch = "x86_64")]
    if use_avx2 {
        // Row pairs share every weight load; a zero-scale row is then
        // cleared exactly as the one-row path below clears it.
        while r + 2 <= m {
            let sx = [0, 1].map(|i| {
                let row = r + i;
                quantize_row(&x[row * k..(row + 1) * k], &mut qx[i * k..(i + 1) * k])
            });
            let orows = &mut out[r * w.rows..(r + 2) * w.rows];
            // SAFETY: `use_avx2` is only true when `avx2_supported()` held.
            unsafe { qgemm_rows_avx2::<2>(k, &qx, w, sx, orows) };
            for (i, orow) in orows.chunks_exact_mut(w.rows.max(1)).enumerate() {
                if sx[i] == 0.0 {
                    orow.fill(0.0);
                }
            }
            r += 2;
        }
    }
    let qx = &mut qx[..k];
    for r in r..m {
        let sx = quantize_row(&x[r * k..(r + 1) * k], qx);
        let orow = &mut out[r * w.rows..(r + 1) * w.rows];
        if sx == 0.0 {
            orow.fill(0.0);
            continue;
        }
        #[cfg(target_arch = "x86_64")]
        if use_avx2 {
            // SAFETY: `use_avx2` is only true when `avx2_supported()` held.
            unsafe { qgemm_rows_avx2::<1>(k, qx, w, [sx], orow) };
            continue;
        }
        for (o, orv) in orow.iter_mut().enumerate() {
            let wrow = &w.data[o * k..(o + 1) * k];
            let dot = dot_i8(use_avx2, qx, wrow);
            *orv = sx * w.scales[o] * dot as f32;
        }
    }
    if telemetry::enabled() {
        telemetry::QGEMM_CALLS.add(1);
        telemetry::QGEMM_ROWS.add(m as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{randn, seeded_rng};
    use nautilus_util::rng::Rng;

    #[test]
    fn quantize_roundtrip_error_is_bounded() {
        let mut rng = seeded_rng(7);
        let t = randn([16, 64], 1.0, &mut rng);
        let q = quantize_rows(16, 64, t.data());
        for r in 0..16 {
            let s = q.scales[r];
            for c in 0..64 {
                let orig = t.data()[r * 64 + c];
                let deq = q.data[r * 64 + c] as f32 * s;
                // Symmetric rounding error is at most half a step.
                assert!(
                    (orig - deq).abs() <= s * 0.5 + 1e-7,
                    "[{r},{c}] {orig} vs {deq} (scale {s})"
                );
            }
        }
    }

    #[test]
    fn zero_row_quantizes_to_zero_scale() {
        let q = quantize_rows(2, 4, &[0.0, 0.0, 0.0, 0.0, 1.0, -2.0, 0.5, 0.0]);
        assert_eq!(q.scales[0], 0.0);
        assert!(q.data[..4].iter().all(|&v| v == 0));
        assert!(q.scales[1] > 0.0);
        assert_eq!(q.data[4..8][1], -127, "maxabs element must hit the full range");
    }

    #[test]
    fn simd_dot_matches_scalar_exactly() {
        let mut rng = seeded_rng(8);
        for len in [1usize, 15, 16, 17, 48, 100, 257] {
            let a: Vec<i8> =
                (0..len).map(|_| (rng.gen_range(-127.0f32..128.0)) as i8).collect();
            let b: Vec<i8> =
                (0..len).map(|_| (rng.gen_range(-127.0f32..128.0)) as i8).collect();
            let want = dot_i8_scalar(&a, &b);
            assert_eq!(dot_i8(avx2_supported(), &a, &b), want, "len {len}");
        }
    }

    /// The 4-wide AVX2 row kernel must produce bit-identical floats to
    /// the scalar path: both compute the same exact integer dots, and the
    /// dequantization expression is the same two multiplies. Shapes are
    /// chosen to exercise both tails (k % 16 != 0, n_out % 4 != 0).
    #[test]
    fn qgemm_simd_path_matches_scalar_path_exactly() {
        let mut rng = seeded_rng(11);
        for (m, k, n) in [(3usize, 100usize, 7usize), (4, 16, 4), (1, 33, 9), (5, 256, 32)] {
            let x = randn([m, k], 1.0, &mut rng);
            let wt = randn([n, k], 1.0, &mut rng);
            let q = quantize_rows(n, k, wt.data());
            let mut got = vec![0.0f32; m * n];
            qgemm_dyn(m, k, x.data(), &q, &mut got);
            // Scalar reference: same quantization, scalar dots.
            let mut qx = vec![0i8; k];
            for r in 0..m {
                let sx = quantize_row(&x.data()[r * k..(r + 1) * k], &mut qx);
                for o in 0..n {
                    let dot = dot_i8_scalar(&qx, &q.data[o * k..(o + 1) * k]);
                    let want = sx * q.scales[o] * dot as f32;
                    assert_eq!(got[r * n + o], want, "({m},{k},{n}) row {r} out {o}");
                }
            }
        }
    }

    #[test]
    fn qgemm_matches_f32_within_quant_tolerance() {
        use crate::ops::gemm::{gemm_naive, MatRef};
        let mut rng = seeded_rng(9);
        let (m, k, n) = (7usize, 96usize, 33usize);
        let x = randn([m, k], 1.0, &mut rng);
        let wt = randn([n, k], 1.0, &mut rng); // weights already [out][in]
        let q = quantize_rows(n, k, wt.data());
        let mut got = vec![0.0f32; m * n];
        qgemm_dyn(m, k, x.data(), &q, &mut got);
        let mut want = vec![0.0f32; m * n];
        gemm_naive(m, k, n, MatRef::row_major(x.data(), k), MatRef::transposed(wt.data(), k), &mut want);
        // Quantization error is *absolute* per product (~step/√12 each
        // side) and accumulates as √k across the reduction, so the bound
        // is 5% relative plus a √k-scaled floor — near-cancellation
        // outputs are small while their error budget is not.
        let abs_tol = 0.05 * (k as f32).sqrt();
        for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() <= 0.05 * w.abs() + abs_tol,
                "[{i}] int8 {g} vs f32 {w}"
            );
        }
    }

    /// Batch invariance for free: quantizing row-by-row means a record's
    /// outputs are exactly the same floats however it is batched.
    #[test]
    fn qgemm_rows_are_batch_invariant() {
        let mut rng = seeded_rng(10);
        let (m, k, n) = (5usize, 40usize, 12usize);
        let x = randn([m, k], 1.0, &mut rng);
        let wt = randn([n, k], 1.0, &mut rng);
        let q = quantize_rows(n, k, wt.data());
        let mut batched = vec![0.0f32; m * n];
        qgemm_dyn(m, k, x.data(), &q, &mut batched);
        for r in 0..m {
            let mut solo = vec![0.0f32; n];
            qgemm_dyn(1, k, &x.data()[r * k..(r + 1) * k], &q, &mut solo);
            assert_eq!(&batched[r * n..(r + 1) * n], &solo[..], "row {r} diverged");
        }
    }
}
