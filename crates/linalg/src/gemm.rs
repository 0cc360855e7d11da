//! Cache-blocked GEMM kernels with a *deterministic summation order*.
//!
//! The NN engine (`aqua-nn`) runs matrix products over `B×dim` activation
//! blocks where a textbook network runs per-vector matvec loops. The
//! repository's golden traces demand bit-identical replays, so every
//! kernel here upholds one contract:
//!
//! > For each output element, contributions are accumulated **in increasing
//! > contraction-index order, one `mul`+`add` per index, starting from the
//! > element's initial value** — exactly the order of the scalar loops the
//! > kernels replace.
//!
//! Floating-point addition is not associative, so the kernels never split,
//! reorder, or pairwise-reduce a contraction. What they *do* change is the
//! loop nesting around it: `MR×NR` output tiles are held in registers for
//! the whole contraction, giving independent accumulators per output
//! column. That turns the latency-bound serial dot product of the scalar
//! code (each `add` waits on the previous one) into a throughput-bound
//! kernel the compiler vectorizes across columns — without changing a
//! single bit of any output element. On x86-64 the kernels are additionally
//! instantiated under `#[target_feature(enable = "avx512f")]` and
//! `#[target_feature(enable = "avx2")]`, picked in that order by a runtime
//! CPU check: AVX-512 widens the lanes to 8×f64 (with taller `MR_WIDE`
//! tiles) and AVX2 to 4×f64, while every operation stays a plain IEEE-754
//! `mul`/`add` (FMA is a separate feature and is never enabled), so every
//! wide path is bit-identical to the portable one.
//!
//! Weights stored row-major as `out×in` are consumed via
//! [`pack_transpose`], so the forward product `X · Wᵀ` becomes a plain
//! [`gemm`] against the packed `in×out` block with unit-stride inner loops.

/// Edge length of the square tiles used by [`pack_transpose`].
const TB: usize = 32;

/// Register-tile height: output rows held in accumulators per micro-kernel
/// call. Chosen so an `MR×NR` f64 tile fits the 16-register AVX2/SSE2
/// vector file with room for one `b`-panel row and a broadcast lane.
const MR: usize = 4;

/// Register-tile height for the AVX-512 instantiations: the 32-register
/// zmm file fits an `8×NR` accumulator block, doubling the independent add
/// chains per panel so the 4-cycle add latency stays hidden.
const MR_WIDE: usize = 8;

/// Register-tile width in f64 columns (two AVX2 lanes / four SSE2 lanes).
const NR: usize = 8;

/// Panels a single-row tile spans ([`tile_row`]) in the AVX2 / AVX-512
/// instantiations, where a panel is two / one vector registers and a lone
/// row would otherwise leave the adder waiting on two / one dependent
/// chains. The baseline instantiation passes 1: its four 2×f64 chains per
/// panel already cover the add latency, and sixteen accumulators would
/// spill its register file.
const ROW_PANELS: usize = 4;

/// `out = a · b` for row-major `a (m×p)` and `b (p×n)`, overwriting `out`.
///
/// Per output element the contraction runs in increasing-`p` order from
/// zero, matching `(0..p).map(|k| a[i][k] * b[k][j]).sum()` bit for bit.
///
/// # Panics
///
/// Panics if any slice length disagrees with the shapes.
pub fn gemm(m: usize, n: usize, p: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(out.len(), m * n, "output shape mismatch");
    out.fill(0.0);
    gemm_acc(m, n, p, a, b, out);
}

/// `out += a · b` — the accumulating form of [`gemm`].
///
/// # Panics
///
/// Panics if any slice length disagrees with the shapes.
pub fn gemm_acc(m: usize, n: usize, p: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), m * p, "lhs shape mismatch");
    assert_eq!(b.len(), p * n, "rhs shape mismatch");
    assert_eq!(out.len(), m * n, "output shape mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F availability was just checked at runtime.
            unsafe { gemm_acc_avx512(m, n, p, a, b, out) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 availability was just checked at runtime.
            unsafe { gemm_acc_avx2(m, n, p, a, b, out) };
            return;
        }
    }
    gemm_acc_tiled::<MR, 1, false>(m, n, p, a, b, out);
}

/// `out -= a · b` — the subtracting form of [`gemm_acc`], the trailing
/// update of blocked triangular solves.
///
/// Per output element the contributions are *subtracted* one `mul`+`sub`
/// per contraction index in increasing-`p` order from the element's
/// current value — exactly `sum -= l * y` of the scalar substitution loops
/// it replaces (IEEE-754 subtraction of a product is bit-identical to
/// adding its exact negation, so `add`/`sub` variants never diverge).
///
/// # Panics
///
/// Panics if any slice length disagrees with the shapes.
pub fn gemm_sub_acc(m: usize, n: usize, p: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), m * p, "lhs shape mismatch");
    assert_eq!(b.len(), p * n, "rhs shape mismatch");
    assert_eq!(out.len(), m * n, "output shape mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F availability was just checked at runtime.
            unsafe { gemm_sub_acc_avx512(m, n, p, a, b, out) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 availability was just checked at runtime.
            unsafe { gemm_sub_acc_avx2(m, n, p, a, b, out) };
            return;
        }
    }
    gemm_acc_tiled::<MR, 1, true>(m, n, p, a, b, out);
}

/// AVX-512 re-instantiation: an `NR = 8` panel is exactly one zmm lane
/// group; same IEEE `mul`/`add` semantics, identical bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_acc_avx512(m: usize, n: usize, p: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    gemm_acc_tiled::<MR_WIDE, ROW_PANELS, false>(m, n, p, a, b, out);
}

/// The same tiled kernel re-instantiated with AVX2 codegen enabled. AVX2
/// widens the vector lanes to 4×f64 but keeps every `mul`/`add` a plain
/// IEEE-754 operation (FMA is a separate target feature and stays off),
/// so results are bit-identical to the baseline instantiation.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_acc_avx2(m: usize, n: usize, p: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    gemm_acc_tiled::<MR, ROW_PANELS, false>(m, n, p, a, b, out);
}

/// AVX-512 re-instantiation of the subtracting kernel; see
/// [`gemm_acc_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_sub_acc_avx512(m: usize, n: usize, p: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    gemm_acc_tiled::<MR_WIDE, ROW_PANELS, true>(m, n, p, a, b, out);
}

/// AVX2 re-instantiation of the subtracting kernel; see
/// [`gemm_acc_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_sub_acc_avx2(m: usize, n: usize, p: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    gemm_acc_tiled::<MR, ROW_PANELS, true>(m, n, p, a, b, out);
}

/// Register-blocked accumulation: `MAXR×NR` output tiles live in local
/// arrays across the whole `k` loop, so each output element is loaded and
/// stored once while the contraction streams `b` panel rows. Each
/// accumulator still receives its contributions one `mul`+`add` at a time
/// in increasing-`k` order — only the memory traffic changes (the tile
/// decomposition, greedy 8/4/2/1 over the row chunk, cannot affect bits).
/// `SUB` flips every accumulation to a subtraction ([`gemm_sub_acc`]).
#[inline(always)]
fn gemm_acc_tiled<const MAXR: usize, const ROW: usize, const SUB: bool>(
    m: usize,
    n: usize,
    p: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
) {
    let n_main = n - n % NR;
    let mut i = 0;
    while i < m {
        let mr = (m - i).min(MAXR);
        let mut j = 0;
        if mr == 1 && ROW > 1 {
            // A lone row has one accumulator per panel: run `ROW` panels
            // side by side so their add chains overlap.
            while j + ROW * NR <= n_main {
                tile_row::<ROW, SUB>(i, j, n, p, a, b, out);
                j += ROW * NR;
            }
        }
        while j < n_main {
            let mut r = i;
            let mut rem = mr;
            if rem >= 8 {
                tile_nn::<8, SUB>(r, j, n, p, a, b, out);
                r += 8;
                rem -= 8;
            }
            if rem >= 4 {
                tile_nn::<4, SUB>(r, j, n, p, a, b, out);
                r += 4;
                rem -= 4;
            }
            if rem >= 2 {
                tile_nn::<2, SUB>(r, j, n, p, a, b, out);
                r += 2;
                rem -= 2;
            }
            if rem == 1 {
                tile_nn::<1, SUB>(r, j, n, p, a, b, out);
            }
            j += NR;
        }
        // Remainder columns: plain in-order scalar accumulation.
        for r in i..i + mr {
            let arow = &a[r * p..(r + 1) * p];
            for j in n_main..n {
                let mut acc = out[r * n + j];
                for (k, &av) in arow.iter().enumerate() {
                    if SUB {
                        acc -= av * b[k * n + j];
                    } else {
                        acc += av * b[k * n + j];
                    }
                }
                out[r * n + j] = acc;
            }
        }
        i += mr;
    }
}

/// One `R×NR` register tile of `out ± a · b` at row `i`, column panel
/// `j..j+NR` (`SUB` selects the sign). Accumulates over `k` in order from
/// the tile's current values. Bounds are proven by one assert per operand
/// up front so the `k` loop body — a handful of cycles per iteration —
/// carries no per-element checks.
#[inline(always)]
fn tile_nn<const R: usize, const SUB: bool>(
    i: usize,
    j: usize,
    n: usize,
    p: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
) {
    assert!((i + R - 1) * n + j + NR <= out.len(), "out tile in bounds");
    assert!(
        p == 0 || (p - 1) * n + j + NR <= b.len(),
        "b panel in bounds"
    );
    assert!((i + R) * p <= a.len(), "a rows in bounds");
    let mut acc = [[0.0f64; NR]; R];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        for (l, v) in acc_r.iter_mut().enumerate() {
            // SAFETY: covered by the `out` assert above.
            *v = unsafe { *out.get_unchecked((i + r) * n + j + l) };
        }
    }
    for k in 0..p {
        let mut brow = [0.0f64; NR];
        for (l, v) in brow.iter_mut().enumerate() {
            // SAFETY: covered by the `b` assert above.
            *v = unsafe { *b.get_unchecked(k * n + j + l) };
        }
        for (r, acc_r) in acc.iter_mut().enumerate() {
            // SAFETY: covered by the `a` assert above.
            let av = unsafe { *a.get_unchecked((i + r) * p + k) };
            for l in 0..NR {
                if SUB {
                    acc_r[l] -= av * brow[l];
                } else {
                    acc_r[l] += av * brow[l];
                }
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        for (l, v) in acc_r.iter().enumerate() {
            // SAFETY: covered by the `out` assert above.
            unsafe { *out.get_unchecked_mut((i + r) * n + j + l) = *v };
        }
    }
}

/// One `1×(ROW·NR)` register tile of `out ± a · b`: [`tile_nn`] for a
/// single row, widened across panels because a lone row offers no other
/// independent accumulators to hide the add latency behind. Each output
/// element still accumulates over `k` in order from its current value.
#[inline(always)]
fn tile_row<const ROW: usize, const SUB: bool>(
    i: usize,
    j: usize,
    n: usize,
    p: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
) {
    let w = ROW * NR;
    assert!(i * n + j + w <= out.len(), "out tile in bounds");
    assert!(
        p == 0 || (p - 1) * n + j + w <= b.len(),
        "b panel in bounds"
    );
    assert!((i + 1) * p <= a.len(), "a row in bounds");
    let mut acc = [[0.0f64; NR]; ROW];
    for (q, acc_q) in acc.iter_mut().enumerate() {
        for (l, v) in acc_q.iter_mut().enumerate() {
            // SAFETY: covered by the `out` assert above.
            *v = unsafe { *out.get_unchecked(i * n + j + q * NR + l) };
        }
    }
    for k in 0..p {
        // SAFETY: covered by the `a` assert above.
        let av = unsafe { *a.get_unchecked(i * p + k) };
        for (q, acc_q) in acc.iter_mut().enumerate() {
            for (l, v) in acc_q.iter_mut().enumerate() {
                // SAFETY: covered by the `b` assert above.
                let bv = unsafe { *b.get_unchecked(k * n + j + q * NR + l) };
                if SUB {
                    *v -= av * bv;
                } else {
                    *v += av * bv;
                }
            }
        }
    }
    for (q, acc_q) in acc.iter().enumerate() {
        for (l, v) in acc_q.iter().enumerate() {
            // SAFETY: covered by the `out` assert above.
            unsafe { *out.get_unchecked_mut(i * n + j + q * NR + l) = *v };
        }
    }
}

/// `out += aᵀ · b` for row-major `a (p×m)` and `b (p×n)`: the gradient
/// kernel `gW += dZᵀ · X` with the contraction running over the `p` rows
/// (batch lanes) **in order** — the same order in which `B` sequential
/// backward passes would have accumulated into the same gradient block.
///
/// # Panics
///
/// Panics if any slice length disagrees with the shapes.
pub fn gemm_tn(p: usize, m: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), p * m, "lhs shape mismatch");
    assert_eq!(b.len(), p * n, "rhs shape mismatch");
    assert_eq!(out.len(), m * n, "output shape mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F availability was just checked at runtime.
            unsafe { gemm_tn_avx512(p, m, n, a, b, out) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 availability was just checked at runtime.
            unsafe { gemm_tn_avx2(p, m, n, a, b, out) };
            return;
        }
    }
    gemm_tn_tiled::<MR>(p, m, n, a, b, out);
}

/// AVX-512 re-instantiation of [`gemm_tn_tiled`]; see [`gemm_acc_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_tn_avx512(p: usize, m: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    gemm_tn_tiled::<MR_WIDE>(p, m, n, a, b, out);
}

/// AVX2 re-instantiation of [`gemm_tn_tiled`]; see [`gemm_acc_avx2`] for
/// why the wider lanes cannot change any output bit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_tn_avx2(p: usize, m: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    gemm_tn_tiled::<MR>(p, m, n, a, b, out);
}

#[inline(always)]
fn gemm_tn_tiled<const MAXR: usize>(
    p: usize,
    m: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
) {
    let n_main = n - n % NR;
    let mut i = 0;
    while i < m {
        let mr = (m - i).min(MAXR);
        let mut j = 0;
        while j < n_main {
            let mut r = i;
            let mut rem = mr;
            if rem >= 8 {
                tile_tn::<8>(r, j, m, n, p, a, b, out);
                r += 8;
                rem -= 8;
            }
            if rem >= 4 {
                tile_tn::<4>(r, j, m, n, p, a, b, out);
                r += 4;
                rem -= 4;
            }
            if rem >= 2 {
                tile_tn::<2>(r, j, m, n, p, a, b, out);
                r += 2;
                rem -= 2;
            }
            if rem == 1 {
                tile_tn::<1>(r, j, m, n, p, a, b, out);
            }
            j += NR;
        }
        i += mr;
    }
    if n_main < n {
        tail_tn(p, m, n, n_main, a, b, out);
    }
}

/// Output rows a [`tail_tn`] strip accumulates at once.
const STRIP: usize = 64;

/// The `n mod NR` remainder columns of [`gemm_tn`]. For each of them and
/// each strip of up to [`STRIP`] output rows, `a` is walked row by row
/// (unit stride) into a strip of accumulators — one pass over the strip's
/// columns of `a`, where a loop per output row would walk `a` down a column
/// at stride `m` once per row. Each output element still receives its
/// contributions one `mul`+`add` per `k`, in increasing `k`, from its
/// initial value.
#[inline(always)]
fn tail_tn(p: usize, m: usize, n: usize, n_main: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    let mut acc = [0.0f64; STRIP];
    let mut i = 0;
    while i < m {
        let w = (m - i).min(STRIP);
        for j in n_main..n {
            for (r, v) in acc[..w].iter_mut().enumerate() {
                *v = out[(i + r) * n + j];
            }
            for k in 0..p {
                let bv = b[k * n + j];
                for (v, &av) in acc[..w].iter_mut().zip(&a[k * m + i..k * m + i + w]) {
                    *v += av * bv;
                }
            }
            for (r, v) in acc[..w].iter().enumerate() {
                out[(i + r) * n + j] = *v;
            }
        }
        i += w;
    }
}

/// One `R×NR` register tile of `out += aᵀ · b`: identical to [`tile_nn`]
/// except the `a` operand is read down a column (stride `m`).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_tn<const R: usize>(
    i: usize,
    j: usize,
    m: usize,
    n: usize,
    p: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
) {
    assert!((i + R - 1) * n + j + NR <= out.len(), "out tile in bounds");
    assert!(
        p == 0 || (p - 1) * n + j + NR <= b.len(),
        "b panel in bounds"
    );
    assert!(
        p == 0 || (p - 1) * m + i + R <= a.len(),
        "a columns in bounds"
    );
    let mut acc = [[0.0f64; NR]; R];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        for (l, v) in acc_r.iter_mut().enumerate() {
            // SAFETY: covered by the `out` assert above.
            *v = unsafe { *out.get_unchecked((i + r) * n + j + l) };
        }
    }
    for k in 0..p {
        let mut brow = [0.0f64; NR];
        for (l, v) in brow.iter_mut().enumerate() {
            // SAFETY: covered by the `b` assert above.
            *v = unsafe { *b.get_unchecked(k * n + j + l) };
        }
        for (r, acc_r) in acc.iter_mut().enumerate() {
            // SAFETY: covered by the `a` assert above.
            let av = unsafe { *a.get_unchecked(k * m + i + r) };
            for l in 0..NR {
                acc_r[l] += av * brow[l];
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        for (l, v) in acc_r.iter().enumerate() {
            // SAFETY: covered by the `out` assert above.
            unsafe { *out.get_unchecked_mut((i + r) * n + j + l) = *v };
        }
    }
}

/// `out[j] += Σᵢ a[i][j]` for row-major `a (rows×cols)`, rows in order —
/// the bias-gradient reduction `gb += Σ_batch dZ`.
///
/// # Panics
///
/// Panics if slice lengths disagree with the shapes.
pub fn col_sum_acc(rows: usize, cols: usize, a: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), rows * cols, "input shape mismatch");
    assert_eq!(out.len(), cols, "output length mismatch");
    for r in 0..rows {
        let arow = &a[r * cols..(r + 1) * cols];
        for (o, &v) in out.iter_mut().zip(arow) {
            *o += v;
        }
    }
}

/// Blocked transpose: packs row-major `src (rows×cols)` into row-major
/// `dst (cols×rows)` one `TB×TB` tile at a time, so both source reads and
/// destination writes stay within a cache-resident window.
///
/// # Panics
///
/// Panics if `src` or `dst` length disagrees with the shape.
pub fn pack_transpose(rows: usize, cols: usize, src: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), rows * cols, "source shape mismatch");
    assert_eq!(dst.len(), rows * cols, "destination shape mismatch");
    let mut i0 = 0;
    while i0 < rows {
        let i1 = (i0 + TB).min(rows);
        let mut j0 = 0;
        while j0 < cols {
            let j1 = (j0 + TB).min(cols);
            for i in i0..i1 {
                let srow = &src[i * cols..(i + 1) * cols];
                for j in j0..j1 {
                    dst[j * rows + i] = srow[j];
                }
            }
            j0 = j1;
        }
        i0 = i1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar reference the kernels must match bit for bit.
    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn arb(n: usize, seed: u64) -> Vec<f64> {
        // Small deterministic pseudo-random values with awkward mantissas.
        (0..n)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed);
                ((x >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn gemm_matches_scalar_dots_bitwise() {
        for &(m, n, p) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (8, 130, 33),
            (25, 48, 46),
        ] {
            let a = arb(m * p, 1);
            let bt = arb(n * p, 2); // row-major n×p: row j is the j-th "weight row"
            let mut b = vec![0.0; p * n];
            pack_transpose(n, p, &bt, &mut b);
            let mut out = vec![1e9; m * n];
            gemm(m, n, p, &a, &b, &mut out);
            for i in 0..m {
                for j in 0..n {
                    let want = dot(&a[i * p..(i + 1) * p], &bt[j * p..(j + 1) * p]);
                    assert_eq!(out[i * n + j].to_bits(), want.to_bits(), "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn gemm_acc_accumulates_in_k_order_from_initial_value() {
        let (m, n, p) = (2usize, 3usize, 4usize);
        let a = arb(m * p, 3);
        let b = arb(p * n, 4);
        let init = arb(m * n, 5);
        let mut out = init.clone();
        gemm_acc(m, n, p, &a, &b, &mut out);
        for i in 0..m {
            for j in 0..n {
                let mut want = init[i * n + j];
                for k in 0..p {
                    want += a[i * p + k] * b[k * n + j];
                }
                assert_eq!(out[i * n + j].to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn gemm_sub_acc_subtracts_in_k_order_from_initial_value() {
        // Sizes straddle the register-tile edges so every tile_nn
        // instantiation and the scalar tail run in SUB mode.
        for &(m, n, p) in &[
            (1usize, 1usize, 1usize),
            (3, NR - 1, 7),
            (MR + 3, 2 * NR + 5, 7),
            (2 * MR_WIDE + 1, 3 * NR, 13),
        ] {
            let a = arb(m * p, 14);
            let b = arb(p * n, 15);
            let init = arb(m * n, 16);
            let mut out = init.clone();
            gemm_sub_acc(m, n, p, &a, &b, &mut out);
            for i in 0..m {
                for j in 0..n {
                    let mut want = init[i * n + j];
                    for k in 0..p {
                        want -= a[i * p + k] * b[k * n + j];
                    }
                    assert_eq!(
                        out[i * n + j].to_bits(),
                        want.to_bits(),
                        "{m}x{n} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_tn_contracts_rows_in_order() {
        let (p, m, n) = (5usize, 3usize, 4usize);
        let a = arb(p * m, 6);
        let b = arb(p * n, 7);
        let mut out = vec![0.5; m * n];
        gemm_tn(p, m, n, &a, &b, &mut out);
        for i in 0..m {
            for j in 0..n {
                let mut want = 0.5;
                for k in 0..p {
                    want += a[k * m + i] * b[k * n + j];
                }
                assert_eq!(out[i * n + j].to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn col_sum_matches_sequential_accumulation() {
        let (rows, cols) = (6usize, 3usize);
        let a = arb(rows * cols, 8);
        let mut out = vec![0.25; cols];
        col_sum_acc(rows, cols, &a, &mut out);
        for j in 0..cols {
            let mut want = 0.25;
            for r in 0..rows {
                want += a[r * cols + j];
            }
            assert_eq!(out[j].to_bits(), want.to_bits());
        }
    }

    #[test]
    fn pack_transpose_round_trips() {
        for &(r, c) in &[(1usize, 1usize), (3, 70), (33, 34), (64, 64), (100, 7)] {
            let src = arb(r * c, 9);
            let mut t = vec![0.0; r * c];
            pack_transpose(r, c, &src, &mut t);
            let mut back = vec![0.0; r * c];
            pack_transpose(c, r, &t, &mut back);
            assert_eq!(src, back, "{r}x{c}");
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t[j * r + i], src[i * c + j]);
                }
            }
        }
    }

    #[test]
    fn gemm_handles_tile_boundaries() {
        // Row and column counts straddling every register-tile edge
        // (full MR tiles, 3/2/1-row remainders, NR panels + scalar tail).
        for &(m, n) in &[
            (1usize, 1usize),
            (3, NR - 1),
            (5, NR + 3),
            (MR + 3, 2 * NR + 5),
            (2 * MR, 3 * NR),
        ] {
            let p = 5;
            let a = arb(m * p, 10);
            let b = arb(p * n, 11);
            let mut out = vec![0.0; m * n];
            gemm(m, n, p, &a, &b, &mut out);
            for i in 0..m {
                for j in 0..n {
                    let mut want = 0.0;
                    for k in 0..p {
                        want += a[i * p + k] * b[k * n + j];
                    }
                    assert_eq!(
                        out[i * n + j].to_bits(),
                        want.to_bits(),
                        "{m}x{n} ({i},{j})"
                    );
                }
            }
        }
    }

    /// A row chunk of one row (`m = 1`, or the tail of `m mod MR = 1`)
    /// takes [`tile_row`] across every full group of `ROW_PANELS` panels,
    /// then single panels, then the scalar tail — adding and subtracting.
    #[test]
    fn lone_rows_accumulate_in_k_order_across_wide_tiles() {
        let w = ROW_PANELS * NR;
        for &m in &[1usize, MR + 1, MR_WIDE + 1] {
            for &n in &[w, w + NR + 3, 2 * w + 1] {
                for &p in &[1usize, 13] {
                    let a = arb(m * p, 17);
                    let b = arb(p * n, 18);
                    let init = arb(m * n, 19);
                    let (mut added, mut subbed) = (init.clone(), init.clone());
                    gemm_acc(m, n, p, &a, &b, &mut added);
                    gemm_sub_acc(m, n, p, &a, &b, &mut subbed);
                    for i in 0..m {
                        for j in 0..n {
                            let (mut plus, mut minus) = (init[i * n + j], init[i * n + j]);
                            for k in 0..p {
                                plus += a[i * p + k] * b[k * n + j];
                                minus -= a[i * p + k] * b[k * n + j];
                            }
                            let at = format!("{m}x{n} p={p} ({i},{j})");
                            assert_eq!(added[i * n + j].to_bits(), plus.to_bits(), "{at}");
                            assert_eq!(subbed[i * n + j].to_bits(), minus.to_bits(), "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_tn_handles_tile_boundaries() {
        for &(m, n) in &[(1usize, 1usize), (3, NR - 1), (MR + 3, 2 * NR + 5)] {
            let p = 6;
            let a = arb(p * m, 12);
            let b = arb(p * n, 13);
            let mut out = vec![0.0; m * n];
            gemm_tn(p, m, n, &a, &b, &mut out);
            for i in 0..m {
                for j in 0..n {
                    let mut want = 0.0;
                    for k in 0..p {
                        want += a[k * m + i] * b[k * n + j];
                    }
                    assert_eq!(
                        out[i * n + j].to_bits(),
                        want.to_bits(),
                        "{m}x{n} ({i},{j})"
                    );
                }
            }
        }
    }

    /// The `n mod NR` remainder columns walk `a` row by row into a strip
    /// of accumulators; every remainder width must give the bits of the
    /// strided per-row loop the strip replaced, for `m` below, at and
    /// across the strip width, from a nonzero initial `out`.
    #[test]
    fn gemm_tn_tail_matches_the_strided_loop() {
        for n in (1..NR).chain([NR + 3]) {
            for &m in &[1usize, 3, STRIP - 1, STRIP, STRIP + 1, 2 * STRIP + 5] {
                for &p in &[1usize, 7, 40] {
                    let a = arb(p * m, 20);
                    let b = arb(p * n, 21);
                    let init = arb(m * n, 22);
                    let mut out = init.clone();
                    gemm_tn(p, m, n, &a, &b, &mut out);
                    for r in 0..m {
                        for j in 0..n {
                            let mut want = init[r * n + j];
                            for k in 0..p {
                                want += a[k * m + r] * b[k * n + j];
                            }
                            assert_eq!(
                                out[r * n + j].to_bits(),
                                want.to_bits(),
                                "p={p} m={m} n={n} ({r},{j})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lhs shape")]
    fn gemm_checks_shapes() {
        let mut out = vec![0.0; 4];
        gemm(2, 2, 3, &[0.0; 5], &[0.0; 6], &mut out);
    }
}
