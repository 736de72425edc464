//! Matrix multiplication kernels.
//!
//! The tensor operands are interpreted as matrices via
//! [`Tensor::as_matrix`]: every axis but the innermost is flattened into the
//! row dimension. This matches how dense layers apply to `[batch, seq, dim]`
//! activations.
//!
//! [`matmul_ex`] is the single entry point owning transpose dispatch,
//! kernel selection, and FLOP accounting; [`matmul`]/[`matmul_ta`]/
//! [`matmul_tb`] are thin wrappers over it. Two physical kernels back it:
//!
//! * **Blocked packed GEMM** ([`crate::ops::gemm`]) for products with at
//!   least [`GEMM_THRESHOLD`] multiply-adds: a cache-blocked loop nest over
//!   packed panels with an 8×8 register microkernel. Transposes are folded
//!   into the packing step, so all four [`MatmulSpec`] combinations take
//!   the same fast path. Large products fan out over the shared
//!   [`nautilus_util::pool`] with bit-identical results at any thread
//!   width; rounding may differ from the small-shape kernel (each output
//!   element still sums `k` ascending, but in KC-sized register-resident
//!   partials).
//! * **One small-shape kernel** below the threshold, where blocking would
//!   not amortize: an `i-p-j` saxpy over the same strided views, with a
//!   transposed `B` packed into contiguous rows first and each output row
//!   accumulated in register-resident column strips. It serves all four
//!   transpose combinations and writes into strided output rows, so
//!   [`matmul_into`] lets attention multiply per-head column ranges in
//!   place. Its summation order and zero-skip rule are part of the
//!   determinism contract (DESIGN.md "Determinism policy").
//!
//! Output buffers come from the thread-local [`nautilus_util::scratch`]
//! arena, so the training loop's matmuls stop hitting the allocator once
//! the arena is warm.

use crate::ops::dispatch::effective_work;
use crate::ops::gemm::{self, MatRef};
use crate::{Shape, Tensor, TensorError};
use nautilus_util::{scratch, telemetry};

/// Multiply-add count at and above which [`matmul_ex`] lowers to the
/// blocked packed GEMM engine *when running the safe kernel*; below it the
/// small-shape kernel wins because the packing traffic is not amortized.
/// The live crossover is [`gemm_threshold`], which consults the resolved kernel —
/// the FMA microkernel amortizes packing one octave sooner. This constant
/// is kept as the documented safe-kernel value (and for callers sizing
/// test workloads against the safe default).
pub const GEMM_THRESHOLD: usize = 1 << 17;

/// The multiply-add crossover the next [`matmul_ex`] call dispatches with:
/// [`gemm::dispatch_threshold`] of the runtime-resolved kernel. Equals
/// [`GEMM_THRESHOLD`] whenever the safe kernel is selected (validated by a
/// unit test so the constant and the table cannot drift apart).
pub fn gemm_threshold() -> usize {
    gemm::dispatch_threshold(gemm::resolved_kernel())
}

/// Counts one kernel-dispatch decision in the labeled `gemm.kernel{path=}`
/// family (`path` ∈ `naive` | `safe` | `fma` | `int8`; `naive` is the
/// small-shape kernel), so `/metrics` shows which kernel actually served
/// traffic.
pub fn count_dispatch(path: &str) {
    if telemetry::metrics_enabled() {
        telemetry::counter_with("gemm.kernel", &[("path", path)]).add(1);
    }
}

/// Which operands of [`matmul_ex`] are consumed transposed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatmulSpec {
    /// Treat `a` (stored `(m, k)`) as `aᵀ` `(k, m)`.
    pub transpose_a: bool,
    /// Treat `b` (stored `(k, n)`) as `bᵀ` `(n, k)`.
    pub transpose_b: bool,
}

impl MatmulSpec {
    /// Plain `A · B`.
    pub fn plain() -> Self {
        MatmulSpec::default()
    }

    /// `Aᵀ · B` (parameter gradients: `dW = Xᵀ · dY`).
    pub fn ta() -> Self {
        MatmulSpec { transpose_a: true, transpose_b: false }
    }

    /// `A · Bᵀ` (input gradients: `dX = dY · Wᵀ`).
    pub fn tb() -> Self {
        MatmulSpec { transpose_a: false, transpose_b: true }
    }
}

/// The small-shape kernel behind every dispatch below the GEMM threshold:
/// `out[i·out_rs + j] += Σ_p op(A)[i,p] · op(B)[p,j]`, as an i-p-j saxpy.
///
/// * Each output sums its `k` products in ascending `p`, onto the value
///   already in `out`, with one rounding per multiply and per add (no FMA
///   contraction). For a zeroed `out` these are exactly the bits of the
///   dot-product (`Bᵀ`) and transpose-back (`Aᵀ·Bᵀ`) loops this kernel
///   replaced.
/// * A zero `op(A)[i,p]` is skipped, in every transpose combination. With
///   finite operands the skip cannot move a bit: an accumulator that starts
///   at `+0.0` never becomes `-0.0`, so adding `±0.0` leaves it unchanged.
///   Against an `inf`/`NaN` in `op(B)` the skipped term contributes nothing
///   instead of `NaN`.
/// * A `B` whose rows are strided (`cs != 1`, i.e. a transposed operand) is
///   packed into contiguous rows from the scratch arena first, so the inner
///   loop is always a unit-stride saxpy.
fn small_gemm(
    m: usize,
    k: usize,
    n: usize,
    a: MatRef,
    b: MatRef,
    out: &mut [f32],
    out_rs: usize,
) {
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let packed;
    let (bd, b_rs) = if b.cs == 1 {
        (b.data, b.rs)
    } else {
        let mut rows = scratch::take(k * n);
        for (p, row) in rows.chunks_exact_mut(n).enumerate() {
            for (j, x) in row.iter_mut().enumerate() {
                *x = b.data[p * b.rs + j * b.cs];
            }
        }
        packed = rows;
        (&packed[..], n)
    };
    for i in 0..m {
        let orow = &mut out[i * out_rs..i * out_rs + n];
        let arow = |p: usize| a.data[i * a.rs + p * a.cs];
        // Columns go in strips of 32, then 8, then 1: each strip's outputs
        // accumulate in a fixed-size local that the compiler keeps in
        // vector registers across the whole `p` loop. Every element still
        // sums its products in ascending `p` onto its value in `out`.
        let j = saxpy_strips::<32>(orow, 0, k, &arow, bd, b_rs);
        let j = saxpy_strips::<8>(orow, j, k, &arow, bd, b_rs);
        saxpy_strips::<1>(orow, j, k, &arow, bd, b_rs);
    }
}

/// Accumulates `orow[j..]` in strips of `W` columns while a whole strip
/// fits; returns the first column left over.
fn saxpy_strips<const W: usize>(
    orow: &mut [f32],
    mut j: usize,
    k: usize,
    arow: &impl Fn(usize) -> f32,
    bd: &[f32],
    b_rs: usize,
) -> usize {
    while j + W <= orow.len() {
        let ostrip = &mut orow[j..j + W];
        let mut acc: [f32; W] = (&*ostrip).try_into().expect("strip width");
        for p in 0..k {
            let av = arow(p);
            if av == 0.0 {
                continue;
            }
            let b0 = p * b_rs + j;
            let bstrip: &[f32; W] = bd[b0..b0 + W].try_into().expect("strip width");
            for (o, &bv) in acc.iter_mut().zip(bstrip) {
                *o += av * bv;
            }
        }
        ostrip.copy_from_slice(&acc);
        j += W;
    }
    j
}

/// `out += op(A) · op(B)` over strided views, with the dispatch of
/// [`matmul_ex`]: products of at least [`gemm_threshold`] effective
/// multiply-adds run on the blocked GEMM, smaller ones on the small-shape
/// kernel, and each call counts one `gemm.kernel{path}` decision.
///
/// `a` reads as `(m, k)`, `b` as `(k, n)`; output row `i` is
/// `out[i·out_rs .. i·out_rs + n]`. Callers that own their operand layout
/// (attention over per-head column ranges) use this to multiply without
/// copying operands out or results back.
pub fn matmul_into(
    m: usize,
    k: usize,
    n: usize,
    a: MatRef,
    b: MatRef,
    out: &mut [f32],
    out_rs: usize,
) {
    let kernel = gemm::resolved_kernel();
    if effective_work(m * k * n) < gemm::dispatch_threshold(kernel) {
        count_dispatch("naive");
        small_gemm(m, k, n, a, b, out, out_rs);
        return;
    }
    count_dispatch(kernel.as_str());
    if out_rs == n {
        gemm::gemm_with(kernel, m, k, n, a, b, &mut out[..m * n]);
        return;
    }
    let mut tmp = scratch::take(m * n);
    gemm::gemm_with(kernel, m, k, n, a, b, &mut tmp);
    for (orow, trow) in out.chunks_mut(out_rs).zip(tmp.chunks_exact(n)) {
        for (o, &t) in orow.iter_mut().zip(trow) {
            *o += t;
        }
    }
}

fn dims_err(what: &str, x: usize, y: usize) -> TensorError {
    TensorError::Incompatible(format!("{what}: {x} vs {y}"))
}

/// General matrix multiplication: `C = op(A) · op(B)` where `op` optionally
/// transposes per [`MatmulSpec`].
///
/// `a` is flattened as `(outer, last)` via [`Tensor::as_matrix`]. The
/// result keeps `a`'s outer axes (plain / `transpose_b`) or is the 2-D
/// `(k, n)` gradient shape (`transpose_a`). Transposes are strided
/// [`MatRef`] views, never copies; [`matmul_into`] picks the kernel.
pub fn matmul_ex(a: &Tensor, b: &Tensor, spec: MatmulSpec) -> Result<Tensor, TensorError> {
    let (am, ak, ad) = a.as_matrix();
    let (bm, bn, bd) = b.as_matrix();
    let (m, k, n, av, bv, shape) = match (spec.transpose_a, spec.transpose_b) {
        (false, false) => {
            if ak != bm {
                return Err(dims_err("matmul inner dims", ak, bm));
            }
            let shape = a.shape().with_last_dim(bn);
            (am, ak, bn, MatRef::row_major(ad, ak), MatRef::row_major(bd, bn), shape)
        }
        (true, false) => {
            if am != bm {
                return Err(dims_err("matmul_ta outer dims", am, bm));
            }
            let shape = Shape::new(vec![ak, bn]);
            (ak, am, bn, MatRef::transposed(ad, ak), MatRef::row_major(bd, bn), shape)
        }
        (false, true) => {
            if ak != bn {
                return Err(dims_err("matmul_tb inner dims", ak, bn));
            }
            let shape = a.shape().with_last_dim(bm);
            (am, ak, bm, MatRef::row_major(ad, ak), MatRef::transposed(bd, bn), shape)
        }
        (true, true) => {
            if am != bn {
                return Err(dims_err("matmul aᵀ·bᵀ dims", am, bn));
            }
            let shape = Shape::new(vec![ak, bm]);
            (ak, am, bm, MatRef::transposed(ad, ak), MatRef::transposed(bd, bn), shape)
        }
    };
    let mut out = scratch::take_vec(m * n);
    matmul_into(m, k, n, av, bv, &mut out, n);
    Tensor::from_vec(shape, out)
}

/// FLOPs performed by a [`matmul_ex`] call with these operands.
///
/// Counts the mathematical multiply-adds only — identical for the naive
/// and blocked kernels; panel packing is memory traffic, not FLOPs.
pub fn matmul_ex_flops(a: &Tensor, b: &Tensor, spec: MatmulSpec) -> u64 {
    let (am, ak, _) = a.as_matrix();
    let (bk, bn, _) = b.as_matrix();
    let (m, k) = if spec.transpose_a { (ak, am) } else { (am, ak) };
    let n = if spec.transpose_b { bk } else { bn };
    matmul_flops(m, k, n)
}

/// `C[m,n] = A[m,k] · B[k,n]`, with `A` flattened as `(outer, last)`.
///
/// The result keeps `A`'s outer axes and replaces the innermost axis with
/// `B`'s column count. Large products run on the blocked GEMM engine.
#[inline]
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    matmul_ex(a, b, MatmulSpec::plain())
}

/// `C[k,n] = Aᵀ[k,m] · B[m,n]` where `A` is `(m, k)` — i.e. `A` transposed.
///
/// Used for parameter gradients: `dW = Xᵀ · dY`.
#[inline]
pub fn matmul_ta(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    matmul_ex(a, b, MatmulSpec::ta())
}

/// `C[m,k] = A[m,n] · Bᵀ[n,k]` where `B` is `(k, n)` — i.e. `B` transposed.
///
/// Used for input gradients: `dX = dY · Wᵀ`.
#[inline]
pub fn matmul_tb(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    matmul_ex(a, b, MatmulSpec::tb())
}

/// FLOPs for a mat-mul of `(m, k) · (k, n)`: one multiply and one add per
/// inner-product term.
pub fn matmul_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: &[usize], v: &[f32]) -> Tensor {
        Tensor::from_vec(shape.to_vec(), v.to_vec()).unwrap()
    }

    #[test]
    fn matmul_2x2_hand_checked() {
        let a = t(&[2, 2], &[1.0, 2.0, 3.0, 4.0]);
        let b = t(&[2, 2], &[5.0, 6.0, 7.0, 8.0]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_keeps_outer_axes() {
        let a = Tensor::ones([2, 3, 4]);
        let b = Tensor::ones([4, 5]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape().0, vec![2, 3, 5]);
        assert!(c.data().iter().all(|&x| x == 4.0));
    }

    #[test]
    fn matmul_rejects_bad_inner_dim() {
        let a = Tensor::ones([2, 3]);
        let b = Tensor::ones([4, 5]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(&[2, 4], &[1.0, 0.0, 2.0, 1.0, 0.0, 1.0, 1.0, 3.0]);
        // matmul_ta(a, b) == aT . b, shapes (3,2)·(2,4) = (3,4)
        let at = t(&[3, 2], &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(matmul_ta(&a, &b).unwrap(), matmul(&at, &b).unwrap());

        // matmul_tb(x, w) == x . wT with w (k,n): shapes (2,3)·(3,4)... build w (4,3)
        let x = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let w = t(&[4, 3], &[1.0, 0.0, 1.0, 2.0, 1.0, 0.0, 0.0, 3.0, 1.0, 1.0, 1.0, 1.0]);
        let wt = t(&[3, 4], &[1.0, 2.0, 0.0, 1.0, 0.0, 1.0, 3.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        assert_eq!(matmul_tb(&x, &w).unwrap(), matmul(&x, &wt).unwrap());
    }

    #[test]
    fn matmul_ex_both_transposed() {
        // (aT · bT) == (b · a)T, checked against explicit transposes.
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let at = t(&[3, 2], &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let b = t(&[4, 2], &[1.0, 0.0, 2.0, 1.0, 0.0, 1.0, 1.0, 3.0]);
        let bt = t(&[2, 4], &[1.0, 2.0, 0.0, 1.0, 0.0, 1.0, 1.0, 3.0]);
        let got = matmul_ex(&a, &b, MatmulSpec { transpose_a: true, transpose_b: true }).unwrap();
        assert_eq!(got, matmul(&at, &bt).unwrap());
    }

    /// The documented safe-kernel constant and the live dispatch table
    /// must agree, and the FMA crossover must sit below it (denser compute
    /// amortizes packing sooner) — so `gemm_threshold()` never silently
    /// drifts from what callers sized their workloads against.
    #[test]
    fn threshold_table_matches_legacy_constant_for_safe() {
        assert_eq!(gemm::dispatch_threshold(gemm::KernelKind::Safe), GEMM_THRESHOLD);
        assert!(gemm::dispatch_threshold(gemm::KernelKind::Fma) < GEMM_THRESHOLD);
        let live = gemm_threshold();
        let (kind, _) = gemm::kernel_info();
        assert_eq!(live, gemm::dispatch_threshold(kind));
    }

    #[test]
    fn flops_formula() {
        assert_eq!(matmul_flops(2, 3, 4), 48);
    }

    #[test]
    fn spec_flops_account_effective_dims() {
        let a = Tensor::ones([8, 3]);
        let b = Tensor::ones([8, 5]);
        // aT(3,8) · b(8,5): m=3, k=8, n=5.
        assert_eq!(matmul_ex_flops(&a, &b, MatmulSpec::ta()), matmul_flops(3, 8, 5));
        let x = Tensor::ones([2, 3]);
        let w = Tensor::ones([4, 3]);
        // x(2,3) · wT(3,4): m=2, k=3, n=4.
        assert_eq!(matmul_ex_flops(&x, &w, MatmulSpec::tb()), matmul_flops(2, 3, 4));
        assert_eq!(
            matmul_ex_flops(&Tensor::ones([2, 3]), &Tensor::ones([3, 4]), MatmulSpec::plain()),
            matmul_flops(2, 3, 4)
        );
    }

    /// The blocked dispatch (all four transpose combos, sizes past
    /// `GEMM_THRESHOLD`) must match the naive reference within relative
    /// tolerance — the kernels may legitimately differ in rounding.
    #[test]
    fn blocked_dispatch_matches_naive_reference() {
        use crate::init::{randn, seeded_rng};
        let mut rng = seeded_rng(77);
        let (m, k, n) = (96usize, 128usize, 96usize); // 1.2M mult-adds > threshold
        assert!(m * k * n >= GEMM_THRESHOLD);
        for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
            let a_dims = if ta { [k, m] } else { [m, k] };
            let b_dims = if tb { [n, k] } else { [k, n] };
            let a = randn(a_dims, 1.0, &mut rng);
            let b = randn(b_dims, 1.0, &mut rng);
            let got = matmul_ex(&a, &b, MatmulSpec { transpose_a: ta, transpose_b: tb }).unwrap();
            // Naive reference in the same effective orientation.
            let mut want = vec![0.0f32; m * n];
            let ar = if ta {
                crate::ops::gemm::MatRef::transposed(a.data(), m)
            } else {
                crate::ops::gemm::MatRef::row_major(a.data(), k)
            };
            let br = if tb {
                crate::ops::gemm::MatRef::transposed(b.data(), k)
            } else {
                crate::ops::gemm::MatRef::row_major(b.data(), n)
            };
            crate::ops::gemm::gemm_naive(m, k, n, ar, br, &mut want);
            for (i, (&x, &y)) in got.data().iter().zip(want.iter()).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())),
                    "combo ({ta},{tb})[{i}]: blocked {x} vs naive {y}"
                );
            }
        }
    }

    /// With the batch-invariant divisor installed, a stacked batch whose
    /// *total* work crosses `GEMM_THRESHOLD` (but whose per-record work
    /// does not) keeps the naive kernel — so every record's rows are
    /// bit-identical to multiplying that record alone.
    #[test]
    fn batch_invariant_dispatch_pins_kernel_choice() {
        use crate::init::{randn, seeded_rng};
        use crate::ops::with_batch_invariant_dispatch;
        let mut rng = seeded_rng(11);
        let (recs, rows, k, n) = (16usize, 8usize, 64usize, 64usize);
        assert!(recs * rows * k * n >= GEMM_THRESHOLD, "stacked work must cross");
        assert!(rows * k * n < GEMM_THRESHOLD, "per-record work must not");
        let b = randn([k, n], 1.0, &mut rng);
        let records: Vec<Tensor> = (0..recs).map(|_| randn([rows, k], 1.0, &mut rng)).collect();
        let mut stacked = Vec::new();
        for r in &records {
            stacked.extend_from_slice(r.data());
        }
        let stacked = Tensor::from_vec([recs, rows, k], stacked).unwrap();
        let pinned = with_batch_invariant_dispatch(recs, || matmul(&stacked, &b).unwrap());
        for (i, r) in records.iter().enumerate() {
            let solo = matmul(r, &b).unwrap();
            assert_eq!(
                &pinned.data()[i * solo.len()..(i + 1) * solo.len()],
                solo.data(),
                "record {i} diverged from its solo product"
            );
        }
    }

    #[test]
    fn pooled_results_identical_across_thread_limits() {
        use crate::init::{randn, seeded_rng};
        use nautilus_util::pool::with_parallelism_limit;
        let mut rng = seeded_rng(99);
        let a = randn([256, 128], 1.0, &mut rng);
        let b = randn([128, 256], 1.0, &mut rng);
        let reference = with_parallelism_limit(1, || matmul(&a, &b).unwrap());
        for limit in [2usize, 8] {
            let got = with_parallelism_limit(limit, || matmul(&a, &b).unwrap());
            assert_eq!(got, reference, "limit {limit} diverged");
        }
    }

    /// Once the scratch arena is warm, matmul output buffers stop hitting
    /// the allocator: dropping the previous result recycles its storage
    /// into the arena and the next call takes it back out.
    #[test]
    fn matmul_outputs_recycle_through_scratch() {
        use crate::init::{randn, seeded_rng};
        let mut rng = seeded_rng(5);
        let a = randn([64, 64], 1.0, &mut rng);
        let b = randn([64, 64], 1.0, &mut rng);
        let _ = matmul(&a, &b).unwrap(); // warm: result dropped, buffer recycled
        let (h0, _) = nautilus_util::scratch::thread_stats();
        for _ in 0..4 {
            let _ = matmul(&a, &b).unwrap();
        }
        let (h1, _) = nautilus_util::scratch::thread_stats();
        assert!(h1 - h0 >= 4, "warm-loop matmuls must reuse recycled buffers");
    }
}
