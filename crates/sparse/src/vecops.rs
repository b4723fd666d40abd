//! Dense-vector kernels used throughout the solvers.
//!
//! The hot kernels walk explicit 4-lane chunks with scalar tails so the
//! compiler can keep the loads and multiplies in vector registers without
//! per-element bounds checks. Reductions (`dot`, `gather_dot`) fold the
//! lane products back into the accumulator in the original left-to-right
//! order, so every result stays bit-identical to the naive scalar loop —
//! the layout is allowed to change, the arithmetic is not. Order-free
//! elementwise maps (`axpy`, `scale`) additionally have true `std::simd`
//! bodies behind the opt-in, nightly-only `nightly-simd` feature.

/// Lanes per chunk in the unrolled kernels (one AVX2-width f64 vector).
const LANES: usize = 4;

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Squared Euclidean norm.
#[inline]
pub fn norm2_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

/// Inner product, accumulated in index order (bit-identical to the
/// scalar loop).
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut xc = x.chunks_exact(LANES);
    let mut yc = y.chunks_exact(LANES);
    let mut acc = 0.0;
    for (a, b) in (&mut xc).zip(&mut yc) {
        let p0 = a[0] * b[0];
        let p1 = a[1] * b[1];
        let p2 = a[2] * b[2];
        let p3 = a[3] * b[3];
        acc = (((acc + p0) + p1) + p2) + p3;
    }
    for (a, b) in xc.remainder().iter().zip(yc.remainder()) {
        acc += a * b;
    }
    acc
}

/// `Σ vals[k] · x[idx[k]]` — the CSR row-times-dense-vector kernel, with
/// the gathered products folded in index order (bit-identical to the
/// scalar loop).
#[inline]
pub fn gather_dot(vals: &[f64], idx: &[usize], x: &[f64]) -> f64 {
    debug_assert_eq!(vals.len(), idx.len());
    let mut vc = vals.chunks_exact(LANES);
    let mut ic = idx.chunks_exact(LANES);
    let mut acc = 0.0;
    for (v, c) in (&mut vc).zip(&mut ic) {
        let p0 = v[0] * x[c[0]];
        let p1 = v[1] * x[c[1]];
        let p2 = v[2] * x[c[2]];
        let p3 = v[3] * x[c[3]];
        acc = (((acc + p0) + p1) + p2) + p3;
    }
    for (v, c) in vc.remainder().iter().zip(ic.remainder()) {
        acc += v * x[*c];
    }
    acc
}

/// `y ← y + alpha · x`. Elementwise and order-free, so the lanes are
/// genuinely independent.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(feature = "nightly-simd")]
    {
        simd::axpy(alpha, x, y)
    }
    #[cfg(not(feature = "nightly-simd"))]
    {
        let mut yc = y.chunks_exact_mut(LANES);
        let mut xc = x.chunks_exact(LANES);
        for (b, a) in (&mut yc).zip(&mut xc) {
            b[0] += alpha * a[0];
            b[1] += alpha * a[1];
            b[2] += alpha * a[2];
            b[3] += alpha * a[3];
        }
        for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
            *yi += alpha * xi;
        }
    }
}

/// `x ← alpha · x`. Elementwise and order-free.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    #[cfg(feature = "nightly-simd")]
    {
        simd::scale(alpha, x)
    }
    #[cfg(not(feature = "nightly-simd"))]
    {
        let mut xc = x.chunks_exact_mut(LANES);
        for a in &mut xc {
            a[0] *= alpha;
            a[1] *= alpha;
            a[2] *= alpha;
            a[3] *= alpha;
        }
        for xi in xc.into_remainder() {
            *xi *= alpha;
        }
    }
}

/// True `std::simd` bodies for the order-free elementwise kernels.
///
/// Only maps live here: a lane-parallel reduction would reorder floating
/// additions and break the repo's bit-identity contract, so `dot` and
/// friends keep the sequential-fold form above in every configuration.
/// Nightly only (`portable_simd`); enable with `--features nightly-simd`.
#[cfg(feature = "nightly-simd")]
mod simd {
    use std::simd::f64x4;

    pub(super) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        let a = f64x4::splat(alpha);
        let mut yc = y.chunks_exact_mut(4);
        let mut xc = x.chunks_exact(4);
        for (yv, xv) in (&mut yc).zip(&mut xc) {
            let r = f64x4::from_slice(yv) + a * f64x4::from_slice(xv);
            yv.copy_from_slice(r.as_array());
        }
        for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
            *yi += alpha * xi;
        }
    }

    pub(super) fn scale(alpha: f64, x: &mut [f64]) {
        let a = f64x4::splat(alpha);
        let mut xc = x.chunks_exact_mut(4);
        for xv in &mut xc {
            let r = a * f64x4::from_slice(xv);
            xv.copy_from_slice(r.as_array());
        }
        for xi in xc.into_remainder() {
            *xi *= alpha;
        }
    }
}

/// Blocked CSR row-times-panel kernel over a row-major `k`-column panel:
/// `out[c] = Σ vals[j] · panel[idx[j]·k + c]` for each column `c < k`.
///
/// Each column's products are folded in index order through the same
/// 4-lane chunk structure as [`gather_dot`], so `out[c]` is bit-identical
/// to `gather_dot(vals, idx, column_c)` on the extracted column — the
/// panel layout amortizes the index walk, never the arithmetic.
#[inline]
pub fn gather_dot_k(vals: &[f64], idx: &[usize], panel: &[f64], k: usize, out: &mut [f64]) {
    debug_assert_eq!(vals.len(), idx.len());
    debug_assert_eq!(out.len(), k);
    out.fill(0.0);
    let mut vc = vals.chunks_exact(LANES);
    let mut ic = idx.chunks_exact(LANES);
    for (v, c) in (&mut vc).zip(&mut ic) {
        let b0 = c[0] * k;
        let b1 = c[1] * k;
        let b2 = c[2] * k;
        let b3 = c[3] * k;
        for (col, acc) in out.iter_mut().enumerate() {
            let p0 = v[0] * panel[b0 + col];
            let p1 = v[1] * panel[b1 + col];
            let p2 = v[2] * panel[b2 + col];
            let p3 = v[3] * panel[b3 + col];
            *acc = (((*acc + p0) + p1) + p2) + p3;
        }
    }
    for (v, c) in vc.remainder().iter().zip(ic.remainder()) {
        let base = c * k;
        for (col, acc) in out.iter_mut().enumerate() {
            *acc += v * panel[base + col];
        }
    }
}

/// Per-column squared Euclidean norms of a row-major `k`-column panel:
/// `out[c] = Σ_i panel[i·k + c]²`, folded in row order through the same
/// 4-lane chunk structure as [`dot`], so `out[c]` is bit-identical to
/// `norm2_sq(column_c)` on the extracted column.
#[inline]
pub fn norm2_sq_cols(panel: &[f64], k: usize, out: &mut [f64]) {
    debug_assert_eq!(out.len(), k);
    out.fill(0.0);
    if k == 0 {
        return;
    }
    debug_assert_eq!(panel.len() % k, 0);
    let mut rows = panel.chunks_exact(LANES * k);
    for quad in &mut rows {
        for (col, acc) in out.iter_mut().enumerate() {
            let p0 = quad[col] * quad[col];
            let p1 = quad[k + col] * quad[k + col];
            let p2 = quad[2 * k + col] * quad[2 * k + col];
            let p3 = quad[3 * k + col] * quad[3 * k + col];
            *acc = (((*acc + p0) + p1) + p2) + p3;
        }
    }
    for row in rows.remainder().chunks_exact(k) {
        for (col, acc) in out.iter_mut().enumerate() {
            *acc += row[col] * row[col];
        }
    }
}

/// Scales `x` so that `‖x‖₂ = 1`; returns the original norm.
/// A zero vector is left unchanged (returns 0).
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms() {
        let x = [3.0, -4.0];
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm2_sq(&x), 25.0);
    }

    #[test]
    fn dot_and_axpy() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [1.0, 1.0, 1.0];
        assert_eq!(dot(&x, &y), 6.0);
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [3.0, 5.0, 7.0]);
    }

    #[test]
    fn chunked_kernels_are_bit_identical_to_scalar() {
        // Lengths straddling the 4-lane boundary, with values whose
        // products genuinely depend on accumulation order in f64.
        for n in 0..=13usize {
            let x: Vec<f64> = (0..n).map(|i| 0.1 * (i as f64 + 1.0) * 1.7).collect();
            let y: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 3.0)).collect();
            let scalar_dot = x.iter().zip(&y).map(|(a, b)| a * b).sum::<f64>();
            assert_eq!(dot(&x, &y), scalar_dot, "dot at n = {n}");

            let idx: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % n.max(1)).collect();
            let scalar_gather: f64 = x.iter().zip(&idx).map(|(v, &j)| v * y[j]).sum();
            assert_eq!(gather_dot(&x, &idx, &y), scalar_gather, "gather at n = {n}");

            let mut ya = y.clone();
            let mut yb = y.clone();
            axpy(0.37, &x, &mut ya);
            for (yi, xi) in yb.iter_mut().zip(&x) {
                *yi += 0.37 * xi;
            }
            assert_eq!(ya, yb, "axpy at n = {n}");

            let mut xa = x.clone();
            let mut xb = x.clone();
            scale(0.77, &mut xa);
            for v in xb.iter_mut() {
                *v *= 0.77;
            }
            assert_eq!(xa, xb, "scale at n = {n}");
        }
    }

    #[test]
    fn blocked_kernels_are_bit_identical_per_column() {
        // Each blocked kernel must match its scalar cousin applied to the
        // extracted column, bit for bit, across lengths straddling the
        // 4-lane boundary and panel widths straddling typical k.
        for n in 0..=13usize {
            for k in 1..=5usize {
                let vals: Vec<f64> = (0..n).map(|i| 0.1 * (i as f64 + 1.0) * 1.7).collect();
                let idx: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % n.max(1)).collect();
                let panel: Vec<f64> = (0..n * k)
                    .map(|i| 1.0 / (i as f64 + 3.0) - 0.11 * (i as f64))
                    .collect();
                let col = |c: usize| -> Vec<f64> { (0..n).map(|i| panel[i * k + c]).collect() };

                let mut out = vec![0.0; k];
                gather_dot_k(&vals, &idx, &panel, k, &mut out);
                for (c, &o) in out.iter().enumerate() {
                    assert_eq!(
                        o,
                        gather_dot(&vals, &idx, &col(c)),
                        "gather n={n} k={k} c={c}"
                    );
                }

                let mut sq = vec![0.0; k];
                norm2_sq_cols(&panel, k, &mut sq);
                for (c, &o) in sq.iter().enumerate() {
                    assert_eq!(o, norm2_sq(&col(c)), "norm n={n} k={k} c={c}");
                }
            }
        }
    }

    #[test]
    fn normalize_unit_and_zero() {
        let mut x = vec![0.0, 3.0, 4.0];
        let n = normalize(&mut x);
        assert_eq!(n, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);
        let mut z = vec![0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
        assert_eq!(z, vec![0.0, 0.0]);
    }
}
