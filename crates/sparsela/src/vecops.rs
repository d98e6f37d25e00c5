//! Dense vector kernels used by the iterative solvers.
//!
//! These are the BLAS-1 style operations the PCG loop is built from, plus
//! the fused single-pass update kernels the loop uses to cut memory
//! traffic (`x ← x + α·p`, `r ← r − α·Ap` and the residual reduction in
//! one sweep).
//!
//! ## Determinism contract
//!
//! Floating-point reductions here are **bitwise reproducible regardless of
//! thread count**: every dot/sum-of-squares — sequential or parallel —
//! accumulates over fixed [`DET_CHUNK`]-element chunks and combines the
//! chunk partials in a fixed pairwise tree order. The chunk boundaries
//! depend only on the vector length, never on the worker count, so
//! `par_dot` is bitwise identical to `dot`, and a solve with
//! `parallel: true` produces byte-for-byte the same trajectory as the
//! sequential one (the guarantee the repo's byte-identical ObsReport
//! tests lean on — see DESIGN.md §10).
//!
//! Elementwise kernels (`axpy`, the fused updates) write each element from
//! exactly one input position, so they are trivially deterministic.

use rayon::prelude::*;

use crate::tuning;

/// Fixed reduction-chunk length. Part of the determinism contract: all
/// dot/sum-of-squares kernels accumulate per-`DET_CHUNK` partials and
/// tree-reduce them, so results never depend on thread count.
pub const DET_CHUNK: usize = 1024;

/// Fixed lane width of the in-chunk reduction kernels ([`dot`] and the
/// fused PCG update). Reductions keep `LANE_WIDTH` independent
/// accumulators combined in a fixed order, so the compiler can vectorize
/// the loop body while the result stays a pure function of the input —
/// never of thread count or ISA. `DET_CHUNK` is a multiple of
/// `LANE_WIDTH`, so full chunks have no scalar tail and the lane
/// assignment of every element depends only on vector length.
pub const LANE_WIDTH: usize = 4;

// The in-chunk kernels below rely on full chunks splitting evenly into
// lanes; a tail inside a *full* chunk would make the lane assignment
// depend on chunk position.
const _: () = assert!(DET_CHUNK.is_multiple_of(LANE_WIDTH));

/// Combines chunk partials in a fixed pairwise tree order (adjacent pairs
/// per level). The order depends only on `partials.len()`.
fn tree_reduce(mut partials: Vec<f64>) -> f64 {
    if partials.is_empty() {
        return 0.0;
    }
    let mut len = partials.len();
    while len > 1 {
        let half = len / 2;
        for i in 0..half {
            partials[i] = partials[2 * i] + partials[2 * i + 1];
        }
        if len % 2 == 1 {
            partials[half] = partials[len - 1];
        }
        len = half + len % 2;
    }
    partials[0]
}

/// Crate-internal entry to the fixed-order reduction, for fused kernels
/// that compute their own chunk partials (e.g. the Jacobi apply+dot in
/// `pcg`).
pub(crate) fn tree_reduce_partials(partials: Vec<f64>) -> f64 {
    tree_reduce(partials)
}

/// Dot over one chunk with [`LANE_WIDTH`] independent accumulators (the
/// shared in-chunk kernel). Element `i` of the chunk always feeds
/// accumulator `i % LANE_WIDTH`, and the accumulators combine in the fixed
/// order `(a₀+a₁) + (a₂+a₃) + tail`, so the result is a pure function of
/// the chunk contents — vectorizable, still deterministic. Any kernel
/// whose reduction is pinned bitwise against this one (the fused PCG
/// update) must use the exact same lane assignment and combine order.
#[inline]
fn chunk_dot(x: &[f64], y: &[f64]) -> f64 {
    let main = x.len() - x.len() % LANE_WIDTH;
    let mut acc = [0.0f64; LANE_WIDTH];
    let mut i = 0;
    while i < main {
        acc[0] += x[i] * y[i];
        acc[1] += x[i + 1] * y[i + 1];
        acc[2] += x[i + 2] * y[i + 2];
        acc[3] += x[i + 3] * y[i + 3];
        i += LANE_WIDTH;
    }
    let mut tail = 0.0;
    for j in main..x.len() {
        tail += x[j] * y[j];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Dot product `xᵀy`, deterministic fixed-chunk reduction.
///
/// # Panics
/// Panics if the lengths differ.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let partials: Vec<f64> =
        x.chunks(DET_CHUNK).zip(y.chunks(DET_CHUNK)).map(|(cx, cy)| chunk_dot(cx, cy)).collect();
    tree_reduce(partials)
}

/// Parallel dot product — bitwise identical to [`dot`] for any worker
/// count (same chunks, same in-chunk kernel, same reduction tree); falls
/// back to the sequential form for short vectors.
pub fn par_dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "par_dot: length mismatch");
    if x.len() < tuning::par_elems_threshold() || !tuning::pool_parallel() {
        return dot(x, y);
    }
    let partials: Vec<f64> = x
        .par_chunks(DET_CHUNK)
        .zip(y.par_chunks(DET_CHUNK))
        .map(|(cx, cy)| chunk_dot(cx, cy))
        .collect();
    tree_reduce(partials)
}

/// Sum of squares `Σ xᵢ²`, deterministic fixed-chunk reduction.
pub fn sumsq(x: &[f64]) -> f64 {
    let partials: Vec<f64> = x.chunks(DET_CHUNK).map(|c| chunk_dot(c, c)).collect();
    tree_reduce(partials)
}

/// `y ← a·x + y`.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Parallel `y ← a·x + y` (elementwise, so trivially bitwise identical to
/// [`axpy`]).
pub fn par_axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "par_axpy: length mismatch");
    if x.len() < tuning::par_elems_threshold() || !tuning::pool_parallel() {
        return axpy(a, x, y);
    }
    y.par_chunks_mut(DET_CHUNK).zip(x.par_chunks(DET_CHUNK)).for_each(|(cy, cx)| {
        for (yi, xi) in cy.iter_mut().zip(cx) {
            *yi += a * xi;
        }
    });
}

/// `x ← a·x`.
#[inline]
pub fn scal(a: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= a;
    }
}

/// `p ← z + β·p` (the CG direction update).
#[inline]
pub fn xpby(z: &[f64], beta: f64, p: &mut [f64]) {
    assert_eq!(z.len(), p.len(), "xpby: length mismatch");
    for (pi, zi) in p.iter_mut().zip(z) {
        *pi = zi + beta * *pi;
    }
}

/// Parallel `p ← z + β·p` (elementwise; bitwise identical to [`xpby`]).
pub fn par_xpby(z: &[f64], beta: f64, p: &mut [f64]) {
    assert_eq!(z.len(), p.len(), "par_xpby: length mismatch");
    if z.len() < tuning::par_elems_threshold() || !tuning::pool_parallel() {
        return xpby(z, beta, p);
    }
    p.par_chunks_mut(DET_CHUNK).zip(z.par_chunks(DET_CHUNK)).for_each(|(cp, cz)| {
        for (pi, zi) in cp.iter_mut().zip(cz) {
            *pi = zi + beta * *pi;
        }
    });
}

/// In-chunk body of the fused PCG update: `x ← x + α·p`, `r ← r − α·ap`,
/// returning the chunk's `Σ rᵢ²` after the update.
///
/// The residual reduction uses the exact lane assignment and combine order
/// of [`chunk_dot`] (element `i` → accumulator `i % LANE_WIDTH`,
/// `(a₀+a₁) + (a₂+a₃) + tail`), so the fused `Σ rᵢ²` stays bitwise equal
/// to a separate `sumsq` sweep over the updated residual.
#[inline]
fn fused_update_chunk(alpha: f64, cp: &[f64], cap: &[f64], cx: &mut [f64], cr: &mut [f64]) -> f64 {
    let len = cx.len();
    let main = len - len % LANE_WIDTH;
    let mut acc = [0.0f64; LANE_WIDTH];
    let mut i = 0;
    while i < main {
        cx[i] += alpha * cp[i];
        cx[i + 1] += alpha * cp[i + 1];
        cx[i + 2] += alpha * cp[i + 2];
        cx[i + 3] += alpha * cp[i + 3];
        let r0 = cr[i] - alpha * cap[i];
        let r1 = cr[i + 1] - alpha * cap[i + 1];
        let r2 = cr[i + 2] - alpha * cap[i + 2];
        let r3 = cr[i + 3] - alpha * cap[i + 3];
        cr[i] = r0;
        cr[i + 1] = r1;
        cr[i + 2] = r2;
        cr[i + 3] = r3;
        acc[0] += r0 * r0;
        acc[1] += r1 * r1;
        acc[2] += r2 * r2;
        acc[3] += r3 * r3;
        i += LANE_WIDTH;
    }
    let mut tail = 0.0;
    for j in main..len {
        cx[j] += alpha * cp[j];
        let r = cr[j] - alpha * cap[j];
        cr[j] = r;
        tail += r * r;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Fused PCG update: `x ← x + α·p`, `r ← r − α·Ap`, and the post-update
/// residual reduction `Σ rᵢ²`, all in one pass over the vectors (one load
/// of `p`/`Ap`, one read-modify-write of `x`/`r`, no extra residual
/// sweep). The reduction follows the fixed-chunk determinism contract, so
/// the parallel and sequential forms are bitwise identical.
///
/// # Panics
/// Panics if the lengths differ.
pub fn fused_update_sumsq(
    alpha: f64,
    p: &[f64],
    ap: &[f64],
    x: &mut [f64],
    r: &mut [f64],
    parallel: bool,
) -> f64 {
    let n = x.len();
    assert_eq!(p.len(), n, "fused_update: p length");
    assert_eq!(ap.len(), n, "fused_update: ap length");
    assert_eq!(r.len(), n, "fused_update: r length");
    let partials: Vec<f64> = if parallel && n >= tuning::par_elems_threshold() && tuning::pool_parallel() {
        x.par_chunks_mut(DET_CHUNK)
            .zip(r.par_chunks_mut(DET_CHUNK))
            .zip(p.par_chunks(DET_CHUNK))
            .zip(ap.par_chunks(DET_CHUNK))
            .map(|(((cx, cr), cp), cap)| fused_update_chunk(alpha, cp, cap, cx, cr))
            .collect()
    } else {
        x.chunks_mut(DET_CHUNK)
            .zip(r.chunks_mut(DET_CHUNK))
            .zip(p.chunks(DET_CHUNK))
            .zip(ap.chunks(DET_CHUNK))
            .map(|(((cx, cr), cp), cap)| fused_update_chunk(alpha, cp, cap, cx, cr))
            .collect()
    };
    tree_reduce(partials)
}

/// Euclidean norm `‖x‖₂`, computed with scaling to avoid overflow on
/// pathological inputs.
pub fn norm2(x: &[f64]) -> f64 {
    let maxabs = x.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    if maxabs == 0.0 || !maxabs.is_finite() {
        return maxabs;
    }
    let sum: f64 = x.iter().map(|v| (v / maxabs) * (v / maxabs)).sum();
    maxabs * sum.sqrt()
}

/// Infinity norm `‖x‖∞`.
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// Elementwise subtraction `out ← a − b`.
pub fn sub_into(a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), b.len(), "sub_into: length mismatch");
    assert_eq!(a.len(), out.len(), "sub_into: length mismatch");
    for ((o, &ai), &bi) in out.iter_mut().zip(a).zip(b) {
        *o = ai - bi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn par_dot_is_bitwise_identical_to_dot() {
        let x: Vec<f64> = (0..10_000).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..10_000).map(|i| (i as f64).cos()).collect();
        let s = dot(&x, &y);
        let p = par_dot(&x, &y);
        assert_eq!(s.to_bits(), p.to_bits());
    }

    #[test]
    fn dot_is_chunk_stable_across_lengths() {
        // The reduction must not care how many chunks there are: slicing a
        // prefix (different chunk count) still equals a direct computation.
        for n in [1usize, 1023, 1024, 1025, 5000, 10_240] {
            let x: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 * 0.013 - 0.5).collect();
            let y: Vec<f64> = (0..n).map(|i| ((i * 11) % 89) as f64 * 0.021 - 0.9).collect();
            let d = dot(&x, &y);
            let p = par_dot(&x, &y);
            assert_eq!(d.to_bits(), p.to_bits(), "n={n}");
        }
    }

    #[test]
    fn sumsq_matches_self_dot_bitwise() {
        let x: Vec<f64> = (0..9_999).map(|i| (i as f64 * 0.003).tan()).collect();
        assert_eq!(sumsq(&x).to_bits(), dot(&x, &x).to_bits());
    }

    #[test]
    fn axpy_basic() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn par_axpy_matches_serial() {
        let x: Vec<f64> = (0..9000).map(|i| i as f64 * 0.5).collect();
        let mut y1 = vec![1.0; 9000];
        let mut y2 = y1.clone();
        axpy(-0.25, &x, &mut y1);
        par_axpy(-0.25, &x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn par_xpby_matches_serial() {
        let z: Vec<f64> = (0..9000).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut p1: Vec<f64> = (0..9000).map(|i| i as f64 * 0.01).collect();
        let mut p2 = p1.clone();
        xpby(&z, 0.75, &mut p1);
        par_xpby(&z, 0.75, &mut p2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn fused_update_matches_unfused_bitwise() {
        let n = 9000;
        let p: Vec<f64> = (0..n).map(|i| (i as f64 * 0.07).sin()).collect();
        let ap: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).cos()).collect();
        let alpha = 0.618;
        for parallel in [false, true] {
            let mut x: Vec<f64> = (0..n).map(|i| i as f64 * 1e-3).collect();
            let mut r: Vec<f64> = (0..n).map(|i| 1.0 - i as f64 * 2e-4).collect();
            let mut x_ref = x.clone();
            let mut r_ref = r.clone();
            let rr = fused_update_sumsq(alpha, &p, &ap, &mut x, &mut r, parallel);
            axpy(alpha, &p, &mut x_ref);
            axpy(-alpha, &ap, &mut r_ref);
            assert_eq!(x, x_ref, "parallel={parallel}");
            assert_eq!(r, r_ref, "parallel={parallel}");
            assert_eq!(rr.to_bits(), sumsq(&r_ref).to_bits(), "parallel={parallel}");
        }
    }

    #[test]
    fn norm2_is_scale_safe() {
        // Naive sum of squares would overflow here.
        let x = vec![1e200, 1e200];
        let n = norm2(&x);
        assert!((n - 1e200 * 2.0_f64.sqrt()).abs() / n < 1e-12);
    }

    #[test]
    fn norm2_zero_vector() {
        assert_eq!(norm2(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(sumsq(&[]), 0.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norm_inf_picks_max_abs() {
        assert_eq!(norm_inf(&[1.0, -5.0, 3.0]), 5.0);
    }

    #[test]
    fn xpby_updates_direction() {
        let mut p = vec![1.0, 2.0];
        xpby(&[10.0, 20.0], 0.5, &mut p);
        assert_eq!(p, vec![10.5, 21.0]);
    }

    #[test]
    fn sub_into_computes_difference() {
        let mut out = vec![0.0; 2];
        sub_into(&[5.0, 7.0], &[2.0, 10.0], &mut out);
        assert_eq!(out, vec![3.0, -3.0]);
    }

    #[test]
    fn widened_chunk_dot_is_length_pure() {
        // The lane assignment depends only on position within the chunk, so
        // computing a dot of a prefix as its own vector gives identical
        // bits to slicing that prefix from a longer computation's chunks
        // (full chunks carry no tail: DET_CHUNK % LANE_WIDTH == 0).
        let x: Vec<f64> = (0..3 * DET_CHUNK).map(|i| (i as f64 * 0.013).sin()).collect();
        let y: Vec<f64> = (0..3 * DET_CHUNK).map(|i| (i as f64 * 0.029).cos()).collect();
        let full = dot(&x, &y);
        let parts: Vec<f64> = (0..3)
            .map(|c| dot(&x[c * DET_CHUNK..(c + 1) * DET_CHUNK], &y[c * DET_CHUNK..(c + 1) * DET_CHUNK]))
            .collect();
        assert_eq!(full.to_bits(), tree_reduce(parts).to_bits());
    }
}
