//! Flat row-major compute kernels behind [`crate::linalg::Matrix`].
//!
//! Every kernel here operates on plain `&[f64]` slices in row-major order
//! so the hot loops index contiguous memory instead of going through
//! bounds-checked `get`/`set` pairs. The design rule, enforced by the
//! property tests in this module and in `tests/properties.rs`, is:
//!
//! > **An optimized kernel performs exactly the same floating-point
//! > operations, on the same values, in the same order, as the naive
//! > oracle it replaces** — so results are bitwise identical, not merely
//! > close.
//!
//! Concretely:
//!
//! * [`matmul_dense`] keeps the naive oracle's `i-k-j` loop order — each
//!   output element still accumulates in ascending `k` from a zero start,
//!   so results are bitwise identical — but broadcasts one LHS element
//!   across a whole output row via slice iterators. The per-`j`
//!   accumulator chains are independent, so the compiler can vectorize
//!   and pipeline the inner loop, which a per-element dot product (one
//!   serial FP dependency chain) cannot offer.
//! * [`matmul_pretransposed`] pre-transposes the right-hand side once and
//!   walks both operands row-wise in cache-friendly `j`-blocks, but each
//!   output element is still one `k`-ascending multiply-add chain from a
//!   zero accumulator — the identical reduction order the naive
//!   `i-k-j` accumulation produces. Blocking only reorders *which output
//!   elements* are computed when, never the additions *within* one. This
//!   is the dot-product form [`crate::pca`]'s covariance uses (transposed
//!   operand, stride-1 rows); for general products at this pipeline's
//!   sizes the broadcast form above is faster, so [`matmul_dense`] backs
//!   `Matrix::matmul`.
//! * [`matvec`] / [`matvec_sub`] reduce each row with the same
//!   `zip/map/sum` chain the original `Matrix::matvec` used (std's
//!   `f64::sum` folds from the *first element*, so even the `-0.0`
//!   corner matches); `matvec_sub` additionally fuses the
//!   `v[c] - sub[c]` centering into the load so PCA's transform skips
//!   its temporary centered vector.
//! * [`transpose`] / [`transpose_in_place_square`] move values without
//!   arithmetic, so bitwise identity is trivial.
//! * [`euclidean_sq`] is the squared-distance reduction shared by KNN
//!   ranking and k-means assignment; `euclidean_sq(a, b).sqrt()` is
//!   bitwise what the old `euclidean` computed, and because `sqrt` is
//!   strictly monotone (and exact per IEEE-754), ranking by squared
//!   distance selects the same winners as ranking by distance.
//!
//! The naive counterparts (`matmul_naive`, `matvec_naive`,
//! `transpose_naive`) are test-only oracles: slow, obviously correct
//! reference implementations the unit tests pin the optimized kernels
//! against.

/// Dense matrix product `out = a × b` with both operands in natural
/// row-major layout (`a` is `m × k`, `b` is `k × n`); `out` is `m × n` and
/// fully overwritten.
///
/// Same `i-k-j` loop order as the `matmul_naive` oracle — every output
/// element is a `k`-ascending multiply-add chain from `0.0`, so results
/// are **bitwise identical** to the oracle. The difference is purely mechanical: each
/// `a[i][k]` is broadcast across an output-row slice zipped with a `b`-row
/// slice, eliminating bounds checks and leaving `n` independent
/// accumulator chains per inner loop for the compiler to vectorize.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated shape.
pub fn matmul_dense(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(b.len(), k * n, "rhs shape mismatch");
    assert_eq!(out.len(), m * n, "output shape mismatch");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        if n <= 16 {
            // SAFETY: the `avx` feature was just verified at runtime.
            unsafe {
                match n / 4 {
                    0 => x86::matmul_dense_avx_smalln::<0, false>(m, k, n, a, &[], b, out),
                    1 => x86::matmul_dense_avx_smalln::<1, false>(m, k, n, a, &[], b, out),
                    2 => x86::matmul_dense_avx_smalln::<2, false>(m, k, n, a, &[], b, out),
                    3 => x86::matmul_dense_avx_smalln::<3, false>(m, k, n, a, &[], b, out),
                    _ => x86::matmul_dense_avx_smalln::<4, false>(m, k, n, a, &[], b, out),
                }
            }
            return;
        }
        // SAFETY: the `avx` feature was just verified at runtime.
        unsafe { x86::matmul_dense_avx(m, k, n, a, b, out) };
        return;
    }
    matmul_dense_scalar(m, k, n, a, b, out);
}

/// Centered dense matrix product `out = (a − 1·subᵀ) × b`: every LHS
/// element is centered by its column's `sub` entry on the fly, so the
/// caller never materialises the centered matrix (`a` is `m × k`, `sub`
/// has length `k`, `b` is `k × n` row-major).
///
/// Bitwise identical to centering into a temporary and then calling
/// [`matmul_dense`]: the fused path computes the same exactly-rounded
/// `a[i][kk] − sub[kk]` difference and feeds it into the same
/// `kk`-ascending multiply-add chain per output element (pinned by the
/// tests). Narrow outputs (`n ≤ 16`, the PCA projection shape) take the
/// register-resident AVX body; anything else falls back to the staged
/// two-pass form.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated shape.
pub fn matmul_dense_sub(
    m: usize,
    k: usize,
    n: usize,
    a: &[f64],
    sub: &[f64],
    b: &[f64],
    out: &mut [f64],
) {
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(sub.len(), k, "centering shape mismatch");
    assert_eq!(b.len(), k * n, "rhs shape mismatch");
    assert_eq!(out.len(), m * n, "output shape mismatch");
    #[cfg(target_arch = "x86_64")]
    if n <= 16 && std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: the `avx` feature was just verified at runtime.
        unsafe {
            match n / 4 {
                0 => x86::matmul_dense_avx_smalln::<0, true>(m, k, n, a, sub, b, out),
                1 => x86::matmul_dense_avx_smalln::<1, true>(m, k, n, a, sub, b, out),
                2 => x86::matmul_dense_avx_smalln::<2, true>(m, k, n, a, sub, b, out),
                3 => x86::matmul_dense_avx_smalln::<3, true>(m, k, n, a, sub, b, out),
                _ => x86::matmul_dense_avx_smalln::<4, true>(m, k, n, a, sub, b, out),
            }
        }
        return;
    }
    let centered: Vec<f64> = a
        .chunks_exact(k.max(1))
        .flat_map(|row| row.iter().zip(sub.iter()).map(|(&v, &s)| v - s))
        .collect();
    matmul_dense(m, k, n, &centered, b, out);
}

/// Portable body of [`matmul_dense`]: the fallback on targets without AVX
/// and the reference the AVX path reproduces bitwise.
fn matmul_dense_scalar(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        // Eight `k` steps per pass over the output row: the eight additions
        // into each `orow[j]` happen in ascending `k`, exactly as the
        // one-step loop would order them, but the output element is loaded
        // and stored once instead of eight times. The `[..n]` re-slices let
        // the compiler prove every `[j]` below is in bounds.
        let mut kk = 0;
        while kk + 8 <= k {
            let ar = &arow[kk..kk + 8];
            let b0 = &b[kk * n..][..n];
            let b1 = &b[(kk + 1) * n..][..n];
            let b2 = &b[(kk + 2) * n..][..n];
            let b3 = &b[(kk + 3) * n..][..n];
            let b4 = &b[(kk + 4) * n..][..n];
            let b5 = &b[(kk + 5) * n..][..n];
            let b6 = &b[(kk + 6) * n..][..n];
            let b7 = &b[(kk + 7) * n..][..n];
            for j in 0..n {
                let mut o = orow[j];
                o += ar[0] * b0[j];
                o += ar[1] * b1[j];
                o += ar[2] * b2[j];
                o += ar[3] * b3[j];
                o += ar[4] * b4[j];
                o += ar[5] * b5[j];
                o += ar[6] * b6[j];
                o += ar[7] * b7[j];
                orow[j] = o;
            }
            kk += 8;
        }
        while kk < k {
            let av = arow[kk];
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
            kk += 1;
        }
    }
}

/// AVX specialisation of [`matmul_dense`].
///
/// The baseline `x86-64` target only exposes SSE2 (two `f64` lanes), and
/// the scalar kernel already saturates that; these 256-bit loops double
/// the lanes. Crucially they use only `vmulpd` + `vaddpd` — **never FMA**
/// — so every multiply and every add is an individually rounded IEEE-754
/// operation and each lane `j` performs exactly the scalar sequence
/// `o += a[k] * b[k][j]` in ascending `k`. Results are therefore bitwise
/// identical to [`matmul_dense_scalar`] (pinned by the property tests
/// below), and runtime dispatch cannot make output depend on the machine.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m256d, __m256i, _mm256_add_epi64, _mm256_add_pd, _mm256_blendv_epi8, _mm256_blendv_pd,
        _mm256_castpd_si256, _mm256_cmp_pd, _mm256_cmpgt_epi64, _mm256_div_pd, _mm256_loadu_pd,
        _mm256_maskload_pd, _mm256_maskstore_pd, _mm256_mul_pd, _mm256_set1_epi64x, _mm256_set1_pd,
        _mm256_set_epi64x, _mm256_setr_epi64x, _mm256_setzero_pd, _mm256_setzero_si256,
        _mm256_srli_epi64, _mm256_storeu_pd, _mm256_storeu_si256, _mm256_sub_pd, _mm256_xor_si256,
        _CMP_EQ_OQ,
    };

    /// Lane mask with the low `rem` 64-bit lanes active (for
    /// `vmaskmovpd`, which suppresses both faults and stores on inactive
    /// lanes).
    #[inline]
    fn tail_mask(rem: usize) -> __m256i {
        let lane = |l: usize| if l < rem { -1i64 } else { 0 };
        // SAFETY: plain integer vector construction, no CPU feature needed
        // beyond AVX which every caller has verified.
        unsafe { _mm256_set_epi64x(lane(3), lane(2), lane(1), lane(0)) }
    }

    /// AVX2 body of [`super::screened_argmin`]: four lanes per iteration,
    /// scalar tail. Each lane computes the scalar screening expression
    /// with one exactly-rounded op per scalar op, maps it to its
    /// total-order integer key (`vpcmpgtq` against zero recovers the sign
    /// mask, `vpsrlq`+`vpxor` apply the same sign-propagating XOR
    /// `f64::total_cmp` uses), and a strict signed compare-and-blend
    /// keeps the per-lane running minimum — strictness preserves the
    /// earliest index on key ties, and lane index streams ascend, so the
    /// final cross-lane fold (with an explicit index tie-break) returns
    /// exactly the serial scan's winner.
    ///
    /// # Safety
    ///
    /// Caller must ensure the `avx2` target feature is available; slice
    /// lengths are asserted equal and non-empty by the dispatcher.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn screened_argmin_avx2(nsq: &[f64], g: &[f64], qs: f64) -> usize {
        let len = nsq.len();
        let qsv = _mm256_set1_pd(qs);
        let two = _mm256_set1_pd(2.0);
        // (i64::MAX, lane-0 index) sentinels: nothing compares above MAX,
        // and on an all-MAX tie the fold below still picks index 0.
        let mut bestk = _mm256_set1_epi64x(i64::MAX);
        let mut besti = _mm256_setzero_si256();
        let mut idx = _mm256_setr_epi64x(0, 1, 2, 3);
        let four = _mm256_set1_epi64x(4);
        let zero = _mm256_setzero_si256();
        let mut i = 0;
        // SAFETY: `i + 4 <= len` bounds every 4-lane load.
        while i + 4 <= len {
            let n = _mm256_loadu_pd(nsq.as_ptr().add(i));
            let gv = _mm256_loadu_pd(g.as_ptr().add(i));
            let v = _mm256_add_pd(_mm256_sub_pd(n, _mm256_mul_pd(two, gv)), qsv);
            let b = _mm256_castpd_si256(v);
            let sign = _mm256_cmpgt_epi64(zero, b);
            let key = _mm256_xor_si256(b, _mm256_srli_epi64::<1>(sign));
            let lt = _mm256_cmpgt_epi64(bestk, key);
            bestk = _mm256_blendv_epi8(bestk, key, lt);
            besti = _mm256_blendv_epi8(besti, idx, lt);
            idx = _mm256_add_epi64(idx, four);
            i += 4;
        }
        let mut keys = [0i64; 4];
        let mut idxs = [0i64; 4];
        _mm256_storeu_si256(keys.as_mut_ptr().cast::<__m256i>(), bestk);
        _mm256_storeu_si256(idxs.as_mut_ptr().cast::<__m256i>(), besti);
        let mut best = (i64::MAX, usize::MAX);
        for l in 0..4 {
            best = best.min((keys[l], idxs[l] as usize));
        }
        for j in i..len {
            best = best.min(super::screen_key(nsq[j], g[j], qs, j));
        }
        best.1
    }

    /// Key-mapped argmin over one query's Gram accumulators, still in
    /// registers: `acc[g]` holds lanes `4g..4g+4` of the Gram row, `tail`
    /// its masked remainder. Runs exactly the [`screened_argmin_avx2`]
    /// reduction with the `g` loads replaced by the register values —
    /// same screening expression per lane, same strict compare-and-blend,
    /// same cross-lane fold and scalar tail, so the returned index is
    /// identical.
    ///
    /// # Safety
    ///
    /// Caller must ensure the `avx2` target feature is available and
    /// `nsq.len() == FULL * 4 + rem` with `rem < 4`.
    #[target_feature(enable = "avx2")]
    unsafe fn screen_reduce_regs<const FULL: usize>(
        acc: &[__m256d; FULL],
        tail: __m256d,
        nsq: &[f64],
        qs: f64,
        rem: usize,
    ) -> usize {
        let qsv = _mm256_set1_pd(qs);
        let two = _mm256_set1_pd(2.0);
        let zero = _mm256_setzero_si256();
        let mut bestk = _mm256_set1_epi64x(i64::MAX);
        let mut besti = _mm256_setzero_si256();
        let mut idx = _mm256_setr_epi64x(0, 1, 2, 3);
        let four = _mm256_set1_epi64x(4);
        for (g, accg) in acc.iter().enumerate() {
            // SAFETY: `4 * g + 4 <= nsq.len()` by the FULL contract.
            let n = _mm256_loadu_pd(nsq.as_ptr().add(4 * g));
            let v = _mm256_add_pd(_mm256_sub_pd(n, _mm256_mul_pd(two, *accg)), qsv);
            let b = _mm256_castpd_si256(v);
            let sign = _mm256_cmpgt_epi64(zero, b);
            let key = _mm256_xor_si256(b, _mm256_srli_epi64::<1>(sign));
            let lt = _mm256_cmpgt_epi64(bestk, key);
            bestk = _mm256_blendv_epi8(bestk, key, lt);
            besti = _mm256_blendv_epi8(besti, idx, lt);
            idx = _mm256_add_epi64(idx, four);
        }
        let mut keys = [0i64; 4];
        let mut idxs = [0i64; 4];
        _mm256_storeu_si256(keys.as_mut_ptr().cast::<__m256i>(), bestk);
        _mm256_storeu_si256(idxs.as_mut_ptr().cast::<__m256i>(), besti);
        let mut best = (i64::MAX, usize::MAX);
        for l in 0..4 {
            best = best.min((keys[l], idxs[l] as usize));
        }
        if rem > 0 {
            // Active tail lanes hold the exact masked-accumulated dots;
            // inactive lanes are never read.
            let mut tg = [0.0f64; 4];
            _mm256_storeu_pd(tg.as_mut_ptr(), tail);
            for (j, &dot) in tg.iter().enumerate().take(rem) {
                let i = FULL * 4 + j;
                best = best.min(super::screen_key(nsq[i], dot, qs, i));
            }
        }
        best.1
    }

    /// AVX2 body of [`super::nearest1_rows`]: the two-row register
    /// matmul of [`matmul_dense_avx_smalln`] (same `k`-ascending
    /// multiply-add chains, `vmulpd` + `vaddpd` only) feeding
    /// [`screen_reduce_regs`] before the accumulators ever leave
    /// registers — the Gram row is never stored.
    ///
    /// # Safety
    ///
    /// Caller must ensure the `avx2` target feature is available and
    /// `FULL == len / 4` with `len <= 16`. Shapes are asserted by the
    /// dispatcher.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn nearest1_rows_avx2<const FULL: usize>(
        rows: usize,
        dims: usize,
        len: usize,
        q: &[f64],
        bt: &[f64],
        nsq: &[f64],
        qs: &[f64],
        out: &mut [usize],
    ) {
        debug_assert_eq!(FULL, len / 4);
        let rem = len - FULL * 4;
        let mask = tail_mask(rem);
        let mut r = 0;
        // SAFETY throughout: every pointer offset stays inside the
        // asserted `rows*dims` / `dims*len` slice bounds; tail lanes use
        // masked loads which suppress faults on inactive lanes.
        while r + 2 <= rows {
            let a0 = &q[r * dims..][..dims];
            let a1 = &q[(r + 1) * dims..][..dims];
            let mut acc0 = [_mm256_setzero_pd(); FULL];
            let mut acc1 = [_mm256_setzero_pd(); FULL];
            let mut t0 = _mm256_setzero_pd();
            let mut t1 = _mm256_setzero_pd();
            for kk in 0..dims {
                let bk = bt.as_ptr().add(kk * len);
                let av0 = _mm256_set1_pd(a0[kk]);
                let av1 = _mm256_set1_pd(a1[kk]);
                for (g, (acc0g, acc1g)) in acc0.iter_mut().zip(acc1.iter_mut()).enumerate() {
                    let bv = _mm256_loadu_pd(bk.add(4 * g));
                    *acc0g = _mm256_add_pd(*acc0g, _mm256_mul_pd(av0, bv));
                    *acc1g = _mm256_add_pd(*acc1g, _mm256_mul_pd(av1, bv));
                }
                if rem > 0 {
                    let bv = _mm256_maskload_pd(bk.add(4 * FULL), mask);
                    t0 = _mm256_add_pd(t0, _mm256_mul_pd(av0, bv));
                    t1 = _mm256_add_pd(t1, _mm256_mul_pd(av1, bv));
                }
            }
            out[r] = screen_reduce_regs::<FULL>(&acc0, t0, nsq, qs[r], rem);
            out[r + 1] = screen_reduce_regs::<FULL>(&acc1, t1, nsq, qs[r + 1], rem);
            r += 2;
        }
        if r < rows {
            let a0 = &q[r * dims..][..dims];
            let mut acc0 = [_mm256_setzero_pd(); FULL];
            let mut t0 = _mm256_setzero_pd();
            for (kk, &a0v) in a0.iter().enumerate() {
                let bk = bt.as_ptr().add(kk * len);
                let av0 = _mm256_set1_pd(a0v);
                for (g, acc0g) in acc0.iter_mut().enumerate() {
                    let bv = _mm256_loadu_pd(bk.add(4 * g));
                    *acc0g = _mm256_add_pd(*acc0g, _mm256_mul_pd(av0, bv));
                }
                if rem > 0 {
                    let bv = _mm256_maskload_pd(bk.add(4 * FULL), mask);
                    t0 = _mm256_add_pd(t0, _mm256_mul_pd(av0, bv));
                }
            }
            out[r] = screen_reduce_regs::<FULL>(&acc0, t0, nsq, qs[r], rem);
        }
    }

    /// AVX body of [`super::scale_minmax`]: four columns per iteration,
    /// masked tail. Each lane performs exactly the scalar
    /// `(v − lo) / (hi − lo)` (one `vsubpd` pair, one `vdivpd` — both
    /// exactly rounded), and constant features are routed to `0.5` by an
    /// `EQ_OQ` compare feeding `vblendvpd`, which matches the scalar
    /// `hi == lo` branch for every input including `±0.0` bounds. Masked
    /// tail lanes compute garbage (`0/0` on the zeroed loads) that the
    /// masked store never writes.
    ///
    /// # Safety
    ///
    /// Caller must ensure the `avx` target feature is available; slice
    /// bounds are asserted by [`super::scale_minmax`] before dispatch.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn scale_minmax_avx(
        rows: usize,
        dims: usize,
        a: &[f64],
        lo: &[f64],
        hi: &[f64],
        out: &mut [f64],
    ) {
        let full = dims / 4 * 4;
        let rem = dims - full;
        let mask = tail_mask(rem);
        let half = _mm256_set1_pd(0.5);
        // SAFETY throughout: offsets stay inside the asserted `rows*dims`
        // and `dims` slice bounds; the tail uses masked load/store.
        for r in 0..rows {
            let arow = a.as_ptr().add(r * dims);
            let orow = out.as_mut_ptr().add(r * dims);
            let mut j = 0;
            while j < full {
                let v = _mm256_loadu_pd(arow.add(j));
                let l = _mm256_loadu_pd(lo.as_ptr().add(j));
                let h = _mm256_loadu_pd(hi.as_ptr().add(j));
                let eq = _mm256_cmp_pd::<_CMP_EQ_OQ>(h, l);
                let s = _mm256_div_pd(_mm256_sub_pd(v, l), _mm256_sub_pd(h, l));
                _mm256_storeu_pd(orow.add(j), _mm256_blendv_pd(s, half, eq));
                j += 4;
            }
            if rem > 0 {
                let v = _mm256_maskload_pd(arow.add(full), mask);
                let l = _mm256_maskload_pd(lo.as_ptr().add(full), mask);
                let h = _mm256_maskload_pd(hi.as_ptr().add(full), mask);
                let eq = _mm256_cmp_pd::<_CMP_EQ_OQ>(h, l);
                let s = _mm256_div_pd(_mm256_sub_pd(v, l), _mm256_sub_pd(h, l));
                _mm256_maskstore_pd(orow.add(full), mask, _mm256_blendv_pd(s, half, eq));
            }
        }
    }

    /// Register-resident AVX specialisation of [`super::matmul_dense`]
    /// for narrow outputs (`n <= 16`, `FULL = n / 4` whole 256-bit lanes
    /// plus a masked tail).
    ///
    /// Unlike [`matmul_dense_avx`], which streams the output row through
    /// memory once per `k`-block, this body keeps every accumulator in a
    /// ymm register across the entire `k` loop and processes two LHS rows
    /// at once so their independent add chains pipeline. Per output
    /// element the operation sequence is unchanged — one `k`-ascending
    /// `o += a[k] * b[k][j]` chain from `0.0`, `vmulpd` + `vaddpd` only,
    /// never FMA — so results are bitwise identical to
    /// [`super::matmul_dense_scalar`] (pinned by the property tests).
    /// Masked tail lanes compute garbage that is never stored.
    ///
    /// With `CENTER` set, each broadcast LHS element is first centered by
    /// its column's `sub` entry (`a[i][kk] − sub[kk]`), serving
    /// [`super::matmul_dense_sub`] without a materialised centered
    /// matrix. The scalar subtraction happens once before the broadcast,
    /// so it rounds exactly like the staged centering pass and the
    /// multiply-add chain is untouched.
    ///
    /// # Safety
    ///
    /// Caller must ensure the `avx` target feature is available and that
    /// `FULL == n / 4` with `n <= 16` (plus `sub.len() == k` when
    /// `CENTER`). Slice bounds are asserted by the dispatching wrapper.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn matmul_dense_avx_smalln<const FULL: usize, const CENTER: bool>(
        m: usize,
        k: usize,
        n: usize,
        a: &[f64],
        sub: &[f64],
        b: &[f64],
        out: &mut [f64],
    ) {
        debug_assert_eq!(FULL, n / 4);
        let rem = n - FULL * 4;
        let mask = tail_mask(rem);
        let center = |kk: usize, v: f64| if CENTER { v - sub[kk] } else { v };
        let mut i = 0;
        // SAFETY throughout: every pointer offset below stays inside the
        // asserted `m*k` / `k*n` / `m*n` slice bounds; tail lanes use
        // masked load/store which neither read nor write beyond `n`.
        while i + 2 <= m {
            let a0 = &a[i * k..][..k];
            let a1 = &a[(i + 1) * k..][..k];
            let mut acc0 = [_mm256_setzero_pd(); FULL];
            let mut acc1 = [_mm256_setzero_pd(); FULL];
            let mut t0 = _mm256_setzero_pd();
            let mut t1 = _mm256_setzero_pd();
            for kk in 0..k {
                let bk = b.as_ptr().add(kk * n);
                let av0 = _mm256_set1_pd(center(kk, a0[kk]));
                let av1 = _mm256_set1_pd(center(kk, a1[kk]));
                for (g, (acc0g, acc1g)) in acc0.iter_mut().zip(acc1.iter_mut()).enumerate() {
                    let bv = _mm256_loadu_pd(bk.add(4 * g));
                    *acc0g = _mm256_add_pd(*acc0g, _mm256_mul_pd(av0, bv));
                    *acc1g = _mm256_add_pd(*acc1g, _mm256_mul_pd(av1, bv));
                }
                if rem > 0 {
                    let bv = _mm256_maskload_pd(bk.add(4 * FULL), mask);
                    t0 = _mm256_add_pd(t0, _mm256_mul_pd(av0, bv));
                    t1 = _mm256_add_pd(t1, _mm256_mul_pd(av1, bv));
                }
            }
            let o0 = out.as_mut_ptr().add(i * n);
            let o1 = out.as_mut_ptr().add((i + 1) * n);
            for (g, (acc0g, acc1g)) in acc0.iter().zip(acc1.iter()).enumerate() {
                _mm256_storeu_pd(o0.add(4 * g), *acc0g);
                _mm256_storeu_pd(o1.add(4 * g), *acc1g);
            }
            if rem > 0 {
                _mm256_maskstore_pd(o0.add(4 * FULL), mask, t0);
                _mm256_maskstore_pd(o1.add(4 * FULL), mask, t1);
            }
            i += 2;
        }
        if i < m {
            let a0 = &a[i * k..][..k];
            let mut acc0 = [_mm256_setzero_pd(); FULL];
            let mut t0 = _mm256_setzero_pd();
            for (kk, &a0v) in a0.iter().enumerate() {
                let bk = b.as_ptr().add(kk * n);
                let av0 = _mm256_set1_pd(center(kk, a0v));
                for (g, acc0g) in acc0.iter_mut().enumerate() {
                    let bv = _mm256_loadu_pd(bk.add(4 * g));
                    *acc0g = _mm256_add_pd(*acc0g, _mm256_mul_pd(av0, bv));
                }
                if rem > 0 {
                    let bv = _mm256_maskload_pd(bk.add(4 * FULL), mask);
                    t0 = _mm256_add_pd(t0, _mm256_mul_pd(av0, bv));
                }
            }
            let o0 = out.as_mut_ptr().add(i * n);
            for (g, acc0g) in acc0.iter().enumerate() {
                _mm256_storeu_pd(o0.add(4 * g), *acc0g);
            }
            if rem > 0 {
                _mm256_maskstore_pd(o0.add(4 * FULL), mask, t0);
            }
        }
    }

    /// # Safety
    ///
    /// Caller must ensure the `avx` target feature is available. Slice
    /// bounds are asserted by [`super::matmul_dense`] before dispatch.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn matmul_dense_avx(
        m: usize,
        k: usize,
        n: usize,
        a: &[f64],
        b: &[f64],
        out: &mut [f64],
    ) {
        out.fill(0.0);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            let mut kk = 0;
            // Four `k` steps per pass; within a pass each output element
            // receives its four additions in ascending `k`, matching the
            // scalar loop's order exactly.
            while kk + 4 <= k {
                let av = [arow[kk], arow[kk + 1], arow[kk + 2], arow[kk + 3]];
                let b0 = &b[kk * n..][..n];
                let b1 = &b[(kk + 1) * n..][..n];
                let b2 = &b[(kk + 2) * n..][..n];
                let b3 = &b[(kk + 3) * n..][..n];
                let (s0, s1, s2, s3) = (
                    _mm256_set1_pd(av[0]),
                    _mm256_set1_pd(av[1]),
                    _mm256_set1_pd(av[2]),
                    _mm256_set1_pd(av[3]),
                );
                let mut j = 0;
                while j + 4 <= n {
                    // SAFETY: `j + 4 <= n` and every slice has length `n`.
                    let mut o = _mm256_loadu_pd(orow.as_ptr().add(j));
                    o = _mm256_add_pd(o, _mm256_mul_pd(s0, _mm256_loadu_pd(b0.as_ptr().add(j))));
                    o = _mm256_add_pd(o, _mm256_mul_pd(s1, _mm256_loadu_pd(b1.as_ptr().add(j))));
                    o = _mm256_add_pd(o, _mm256_mul_pd(s2, _mm256_loadu_pd(b2.as_ptr().add(j))));
                    o = _mm256_add_pd(o, _mm256_mul_pd(s3, _mm256_loadu_pd(b3.as_ptr().add(j))));
                    _mm256_storeu_pd(orow.as_mut_ptr().add(j), o);
                    j += 4;
                }
                while j < n {
                    let mut o = orow[j];
                    o += av[0] * b0[j];
                    o += av[1] * b1[j];
                    o += av[2] * b2[j];
                    o += av[3] * b3[j];
                    orow[j] = o;
                    j += 1;
                }
                kk += 4;
            }
            while kk < k {
                let av = arow[kk];
                let brow = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
                kk += 1;
            }
        }
    }
}

/// Column-block width for [`matmul_pretransposed`]. 32 output columns of
/// `f64` are two pages of accumulator state — small enough to stay in L1
/// alongside one LHS row and the matching RHS-transpose rows.
const MATMUL_BLOCK_J: usize = 32;

/// Dense matrix product `out = a × b` with `b` supplied **pre-transposed**
/// (`bt` is `n × k` row-major, i.e. `bt[j * k + kk] == b[kk * n + j]`).
///
/// `a` is `m × k` row-major, `out` is `m × n` row-major and is fully
/// overwritten. Each output element is the `k`-ascending dot product of an
/// `a` row with a `bt` row, accumulated from `0.0` — bitwise the same
/// reduction the naive `i-k-j` loop performs (see `matmul_naive`).
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated shape.
pub fn matmul_pretransposed(m: usize, k: usize, n: usize, a: &[f64], bt: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(bt.len(), n * k, "pre-transposed rhs shape mismatch");
    assert_eq!(out.len(), m * n, "output shape mismatch");
    for jb in (0..n).step_by(MATMUL_BLOCK_J) {
        let jend = (jb + MATMUL_BLOCK_J).min(n);
        for i in 0..m {
            let arow = &a[i * k..][..k];
            let orow = &mut out[i * n..(i + 1) * n];
            // Four output columns per pass: each accumulator is still its
            // own `k`-ascending chain from `0.0` (bitwise the one-column
            // loop), but the four chains are independent, so the CPU can
            // pipeline them instead of stalling on one serial FP add
            // chain. The `[..k]` re-slices let the compiler prove every
            // `[kk]` below is in bounds.
            let mut j = jb;
            while j + 4 <= jend {
                let b0 = &bt[j * k..][..k];
                let b1 = &bt[(j + 1) * k..][..k];
                let b2 = &bt[(j + 2) * k..][..k];
                let b3 = &bt[(j + 3) * k..][..k];
                let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
                for kk in 0..k {
                    let av = arow[kk];
                    a0 += av * b0[kk];
                    a1 += av * b1[kk];
                    a2 += av * b2[kk];
                    a3 += av * b3[kk];
                }
                orow[j] = a0;
                orow[j + 1] = a1;
                orow[j + 2] = a2;
                orow[j + 3] = a3;
                j += 4;
            }
            while j < jend {
                let brow = &bt[j * k..][..k];
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += arow[kk] * brow[kk];
                }
                orow[j] = acc;
                j += 1;
            }
        }
    }
}

/// Naive dense matrix product `out = a × b` (`b` in natural `k × n`
/// row-major layout): the documented oracle for
/// [`matmul_pretransposed`].
///
/// Accumulates `out[i][j] += a[i][k] * b[k][j]` in `i-k-j` order — for
/// each output element the additions arrive in ascending `k`, exactly the
/// reduction order of the optimized kernel's per-element dot product.
/// Unlike the historical `Matrix::matmul` this does **not** skip
/// `a[i][k] == 0.0` terms, so `0 × ∞` and `0 × NaN` propagate as IEEE-754
/// dictates.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated shape.
#[cfg(test)]
pub(crate) fn matmul_naive(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(b.len(), k * n, "rhs shape mismatch");
    assert_eq!(out.len(), m * n, "output shape mismatch");
    out.fill(0.0);
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            for j in 0..n {
                out[i * n + j] += av * b[kk * n + j];
            }
        }
    }
}

/// Matrix-vector product `out[r] = Σ_c a[r][c] * v[c]`, each row reduced
/// `c`-ascending.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated shape.
pub fn matvec(rows: usize, cols: usize, a: &[f64], v: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), rows * cols, "matrix shape mismatch");
    assert_eq!(v.len(), cols, "vector length mismatch");
    assert_eq!(out.len(), rows, "output length mismatch");
    for (r, o) in out.iter_mut().enumerate() {
        let row = &a[r * cols..(r + 1) * cols];
        // The same `zip/map/sum` reduction as the historical
        // `Matrix::matvec` — bitwise identical, including the signed-zero
        // behaviour of `f64::sum` (which folds from the first element).
        *o = row.iter().zip(v.iter()).map(|(x, y)| x * y).sum::<f64>();
    }
}

/// Naive matrix-vector product via the iterator chain the original
/// `Matrix::matvec` used: the documented oracle for [`matvec`].
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated shape.
#[cfg(test)]
pub(crate) fn matvec_naive(rows: usize, cols: usize, a: &[f64], v: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), rows * cols, "matrix shape mismatch");
    assert_eq!(v.len(), cols, "vector length mismatch");
    (0..rows)
        .map(|r| {
            a[r * cols..(r + 1) * cols]
                .iter()
                .zip(v.iter())
                .map(|(x, y)| x * y)
                .sum::<f64>()
        })
        .collect()
}

/// Fused centered matrix-vector product:
/// `out[r] = Σ_c a[r][c] * (v[c] - sub[c])`, reduced `c`-ascending.
///
/// The subtraction per term is bitwise what a caller gets from first
/// materialising `centered[c] = v[c] - sub[c]` and then calling
/// [`matvec`]; fusing merely drops the temporary allocation.
///
/// # Panics
///
/// Panics if any slice length disagrees with the stated shape.
pub fn matvec_sub(rows: usize, cols: usize, a: &[f64], v: &[f64], sub: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), rows * cols, "matrix shape mismatch");
    assert_eq!(v.len(), cols, "vector length mismatch");
    assert_eq!(sub.len(), cols, "subtrahend length mismatch");
    assert_eq!(out.len(), rows, "output length mismatch");
    for (r, o) in out.iter_mut().enumerate() {
        let row = &a[r * cols..(r + 1) * cols];
        *o = row
            .iter()
            .zip(v.iter().zip(sub.iter()))
            .map(|(x, (y, s))| x * (y - s))
            .sum::<f64>();
    }
}

/// Out-of-place transpose: `out` becomes the `cols × rows` transpose of
/// the `rows × cols` row-major `a`. Pure data movement.
///
/// # Panics
///
/// Panics if slice lengths disagree with the stated shape.
pub fn transpose(rows: usize, cols: usize, a: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), rows * cols, "input shape mismatch");
    assert_eq!(out.len(), rows * cols, "output shape mismatch");
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = a[r * cols + c];
        }
    }
}

/// Naive transpose via per-element indexing: the documented oracle for
/// [`transpose`] and [`transpose_in_place_square`].
///
/// # Panics
///
/// Panics if the slice length disagrees with the stated shape.
#[cfg(test)]
pub(crate) fn transpose_naive(rows: usize, cols: usize, a: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), rows * cols, "input shape mismatch");
    let mut out = vec![0.0; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = a[r * cols + c];
        }
    }
    out
}

/// In-place transpose of a square `n × n` row-major matrix by swapping
/// the strictly-upper triangle with the strictly-lower one.
///
/// # Panics
///
/// Panics if the slice length is not `n * n`.
pub fn transpose_in_place_square(n: usize, a: &mut [f64]) {
    assert_eq!(a.len(), n * n, "square shape mismatch");
    for r in 0..n {
        for c in (r + 1)..n {
            a.swap(r * n + c, c * n + r);
        }
    }
}

/// Squared Euclidean distance `Σ (a[i] - b[i])²`, reduced `i`-ascending
/// from `0.0`.
///
/// `euclidean_sq(a, b).sqrt()` is bitwise identical to the historical
/// `euclidean(a, b)` (same reduction, then one exact IEEE-754 `sqrt`),
/// and ranking by squared distance yields exactly the same order as
/// ranking by distance because `sqrt` is strictly monotone.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn euclidean_sq(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance requires equal dimensions");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
}

/// Per-row squared norms `Σ_c a[r][c]²` of a `rows × cols` row-major
/// matrix, each reduced `c`-ascending. Used by KNN to expand
/// `‖e − q‖² = ‖e‖² − 2·e·q + ‖q‖²` without touching every exemplar
/// coordinate twice.
///
/// # Panics
///
/// Panics if the slice length disagrees with the stated shape.
#[must_use]
pub fn sq_norms(rows: usize, cols: usize, a: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), rows * cols, "matrix shape mismatch");
    (0..rows)
        .map(|r| {
            let row = &a[r * cols..(r + 1) * cols];
            row.iter().map(|&x| x * x).sum::<f64>()
        })
        .collect()
}

/// Dot product via the same `zip/map/sum` chain as the historical
/// `linalg::dot` — bitwise identical, signed zeros included.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot requires equal dimensions");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Index of the minimum screening value `nsq[i] − 2·g[i] + qs` under the
/// lexicographic `(f64::total_cmp, index)` order — the k = 1 KNN ranking
/// over one query's Gram row.
///
/// Dispatches to an AVX2 body when the CPU supports it. Each vector lane
/// evaluates exactly the scalar expression (`vmulpd`, `vsubpd`, `vaddpd`
/// — one exactly-rounded op per scalar op), the values are mapped to
/// their IEEE-754 total-order integer keys (a pure bit map, the same one
/// `f64::total_cmp` compares by), and the minimum of a total order is
/// reduction-order independent — so the returned index is identical to a
/// serial scan's, ties and signed zeros included (pinned by the tests).
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
#[must_use]
pub fn screened_argmin(nsq: &[f64], g: &[f64], qs: f64) -> usize {
    assert_eq!(nsq.len(), g.len(), "norm/gram length mismatch");
    assert!(!nsq.is_empty(), "argmin of an empty set");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the `avx2` feature was just verified at runtime.
        return unsafe { x86::screened_argmin_avx2(nsq, g, qs) };
    }
    screened_argmin_scalar(nsq, g, qs)
}

/// The `(total-order key, index)` pair for one screening value: an `i64`
/// whose signed order equals `f64::total_cmp` on the value (the same
/// sign-propagating XOR the standard library uses).
#[inline]
fn screen_key(nsq: f64, g: f64, qs: f64, i: usize) -> (i64, usize) {
    let b = (nsq - 2.0 * g + qs).to_bits() as i64;
    (b ^ (((b >> 63) as u64) >> 1) as i64, i)
}

/// Portable body (and bitwise oracle) of [`screened_argmin`]: four
/// interleaved compare chains over the integer keys (the chains partition
/// the index set, and a total-order minimum is partition-independent).
fn screened_argmin_scalar(nsq: &[f64], g: &[f64], qs: f64) -> usize {
    let len = nsq.len();
    let at = |i: usize| screen_key(nsq[i], g[i], qs, i);
    let mut best = at(0);
    let mut tail = 1;
    if len >= 8 {
        let (mut b0, mut b1, mut b2, mut b3) = (at(0), at(1), at(2), at(3));
        let mut i = 4;
        while i + 4 <= len {
            b0 = b0.min(at(i));
            b1 = b1.min(at(i + 1));
            b2 = b2.min(at(i + 2));
            b3 = b3.min(at(i + 3));
            i += 4;
        }
        best = b0.min(b1).min(b2).min(b3);
        tail = i;
    }
    for i in tail..len {
        best = best.min(at(i));
    }
    best.1
}

/// Fused 1-nearest-neighbour screen: for each of `rows` query rows of
/// `queries` (row-major, `dims` wide) computes the Gram row against the
/// pre-transposed exemplar matrix `bt` (`dims × len`) and returns in
/// `out[r]` the index minimising the screening value
/// `nsq[i] − 2·gram[r][i] + qs[r]` under the lexicographic
/// `(f64::total_cmp, index)` order — i.e. exactly
/// `screened_argmin(nsq, &gram_row, qs[r])` over the row that
/// [`matmul_dense`] would produce, without ever materialising the Gram
/// matrix (pinned bitwise by the tests).
///
/// For narrow exemplar sets (`len ≤ 16`, the deployed KNN store) the AVX2
/// body keeps the dot-product accumulators in registers straight through
/// the key-mapped argmin reduction; otherwise the staged
/// matmul-then-argmin composition runs.
///
/// # Panics
///
/// Panics if `len` is zero or any slice length disagrees with the stated
/// shape.
#[allow(clippy::too_many_arguments)]
pub fn nearest1_rows(
    rows: usize,
    dims: usize,
    len: usize,
    queries: &[f64],
    bt: &[f64],
    nsq: &[f64],
    qs: &[f64],
    out: &mut [usize],
) {
    assert!(len > 0, "argmin of an empty set");
    assert_eq!(queries.len(), rows * dims, "query shape mismatch");
    assert_eq!(bt.len(), dims * len, "exemplar shape mismatch");
    assert_eq!(nsq.len(), len, "norm shape mismatch");
    assert_eq!(qs.len(), rows, "query norm shape mismatch");
    assert_eq!(out.len(), rows, "output shape mismatch");
    #[cfg(target_arch = "x86_64")]
    if len <= 16 && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the `avx2` feature was just verified at runtime.
        unsafe {
            match len / 4 {
                0 => x86::nearest1_rows_avx2::<0>(rows, dims, len, queries, bt, nsq, qs, out),
                1 => x86::nearest1_rows_avx2::<1>(rows, dims, len, queries, bt, nsq, qs, out),
                2 => x86::nearest1_rows_avx2::<2>(rows, dims, len, queries, bt, nsq, qs, out),
                3 => x86::nearest1_rows_avx2::<3>(rows, dims, len, queries, bt, nsq, qs, out),
                _ => x86::nearest1_rows_avx2::<4>(rows, dims, len, queries, bt, nsq, qs, out),
            }
        }
        return;
    }
    let mut gram = vec![0.0; rows * len];
    matmul_dense(rows, dims, len, queries, bt, &mut gram);
    for (o, (grow, &q)) in out.iter_mut().zip(gram.chunks_exact(len).zip(qs.iter())) {
        *o = screened_argmin(nsq, grow, q);
    }
}

/// Min-max scales a `rows × dims` row-major matrix **without clamping**:
/// `out[r][d] = (a[r][d] − lo[d]) / (hi[d] − lo[d])`, with constant
/// features (`hi == lo`) mapping to `0.5`.
///
/// Dispatches to an AVX body when the CPU supports it. Subtraction and
/// division are each exactly rounded, so every vector lane produces bit
/// for bit the scalar result; the constant-feature lanes are selected by
/// an IEEE EQ compare-and-blend, which agrees with the scalar `hi == lo`
/// branch including `±0.0` (equal under IEEE comparison in both forms).
/// The division must stay a division — `(v − lo) × (1/(hi − lo))` rounds
/// differently. Pinned against the scalar body by the tests.
///
/// # Panics
///
/// Panics if slice lengths disagree with the stated shape.
pub fn scale_minmax(rows: usize, dims: usize, a: &[f64], lo: &[f64], hi: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), rows * dims, "input shape mismatch");
    assert_eq!(out.len(), rows * dims, "output shape mismatch");
    assert_eq!(lo.len(), dims, "lo bound shape mismatch");
    assert_eq!(hi.len(), dims, "hi bound shape mismatch");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: the `avx` feature was just verified at runtime.
        unsafe { x86::scale_minmax_avx(rows, dims, a, lo, hi, out) };
        return;
    }
    scale_minmax_scalar(rows, dims, a, lo, hi, out);
}

/// Portable body (and bitwise oracle) of [`scale_minmax`].
fn scale_minmax_scalar(
    rows: usize,
    dims: usize,
    a: &[f64],
    lo: &[f64],
    hi: &[f64],
    out: &mut [f64],
) {
    let _ = rows;
    for (orow, row) in out
        .chunks_exact_mut(dims.max(1))
        .zip(a.chunks_exact(dims.max(1)))
    {
        for ((o, &v), (&l, &h)) in orow.iter_mut().zip(row).zip(lo.iter().zip(hi.iter())) {
            *o = if h == l { 0.5 } else { (v - l) / (h - l) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic dense test data: golden-ratio fractions spread over
    /// [-1, 1), including exact zeros when `zero_every` divides the index.
    fn fixture(len: usize, salt: usize, zero_every: usize) -> Vec<f64> {
        (0..len)
            .map(|i| {
                if zero_every > 0 && i % zero_every == 0 {
                    0.0
                } else {
                    (((i + salt) as f64) * 0.618_033_988_75).fract() * 2.0 - 1.0
                }
            })
            .collect()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matmul_matches_naive_bitwise() {
        for &(m, k, n) in &[(1, 1, 1), (3, 4, 5), (17, 23, 9), (33, 40, 65)] {
            let a = fixture(m * k, 1, 7);
            let b = fixture(k * n, 2, 5);
            let mut naive = vec![0.0; m * n];
            matmul_naive(m, k, n, &a, &b, &mut naive);
            let mut dense = vec![0.0; m * n];
            matmul_dense(m, k, n, &a, &b, &mut dense);
            assert_eq!(bits(&naive), bits(&dense), "dense shape {m}x{k}x{n}");
            // The scalar body must agree too, so on AVX machines this pins
            // the SIMD path against the portable one as well as the oracle.
            let mut scalar = vec![0.0; m * n];
            matmul_dense_scalar(m, k, n, &a, &b, &mut scalar);
            assert_eq!(bits(&naive), bits(&scalar), "scalar shape {m}x{k}x{n}");
            let bt = transpose_naive(k, n, &b);
            let mut fast = vec![0.0; m * n];
            matmul_pretransposed(m, k, n, &a, &bt, &mut fast);
            assert_eq!(bits(&naive), bits(&fast), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_sub_matches_center_then_naive_bitwise() {
        // Shapes cover the PCA projection (n = 9), every FULL bucket of
        // the small-n kernel, the masked-tail widths, odd m (single-row
        // trailer), and a wide n that takes the staged fallback.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 4, 5),
            (7, 22, 9),
            (17, 23, 9),
            (8, 10, 12),
            (5, 6, 16),
            (33, 40, 65),
        ] {
            let a = fixture(m * k, 1, 7);
            let b = fixture(k * n, 2, 5);
            let sub = fixture(k, 3, 11);
            // Oracle: materialise the centered matrix, then the naive
            // triple loop — the rounding sequence the fused kernel must
            // reproduce exactly.
            let centered: Vec<f64> = a
                .chunks_exact(k)
                .flat_map(|row| row.iter().zip(sub.iter()).map(|(&v, &s)| v - s))
                .collect();
            let mut naive = vec![0.0; m * n];
            matmul_naive(m, k, n, &centered, &b, &mut naive);
            let mut fused = vec![0.0; m * n];
            matmul_dense_sub(m, k, n, &a, &sub, &b, &mut fused);
            assert_eq!(bits(&naive), bits(&fused), "fused shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn screened_argmin_matches_serial_oracle() {
        // Oracle: serial min over (total_cmp, index) — the ranking the
        // KNN partial select uses.
        let oracle = |nsq: &[f64], g: &[f64], qs: f64| {
            (0..nsq.len())
                .map(|i| (nsq[i] - 2.0 * g[i] + qs, i))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .unwrap()
                .1
        };
        for &len in &[1usize, 3, 4, 5, 8, 16, 17, 57] {
            let nsq = fixture(len, 21, 9);
            let g = fixture(len, 22, 4);
            for qs in [0.0, 0.37, -1.5] {
                assert_eq!(
                    screened_argmin(&nsq, &g, qs),
                    oracle(&nsq, &g, qs),
                    "len {len} qs {qs}"
                );
                assert_eq!(
                    screened_argmin_scalar(&nsq, &g, qs),
                    oracle(&nsq, &g, qs),
                    "scalar len {len} qs {qs}"
                );
            }
        }
        // Exact ties resolve to the earliest index, in every lane position.
        for len in [4usize, 9, 16] {
            for t in 0..len {
                let mut nsq = vec![5.0; len];
                let g = vec![1.0; len];
                nsq[t] = 1.0;
                if t + 2 < len {
                    nsq[t + 2] = 1.0; // duplicate minimum later on
                }
                assert_eq!(screened_argmin(&nsq, &g, 0.0), t, "tie len {len} t {t}");
            }
        }
        // Signed zeros: total order ranks -0.0 below +0.0.
        let nsq = [0.0, -0.0, 0.0, 0.0, 0.0];
        let g = [0.0; 5];
        assert_eq!(screened_argmin(&nsq, &g, -0.0), 1);
        assert_eq!(screened_argmin_scalar(&nsq, &g, -0.0), 1);
    }

    #[test]
    fn nearest1_rows_matches_matmul_then_argmin() {
        // Shapes cover every FULL bucket, masked tails, odd rows (the
        // single-row trailer), the deployed KNN store (dims 9, len 16),
        // and a wide exemplar set that takes the staged fallback.
        for &(rows, dims, len) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (7, 9, 16),
            (5, 9, 13),
            (4, 22, 16),
            (6, 9, 33),
        ] {
            let q = fixture(rows * dims, 41, 9);
            let bt = fixture(dims * len, 42, 4);
            let nsq = fixture(len, 43, 6);
            let qs = fixture(rows, 44, 2);
            // Oracle: materialise the Gram matrix, then the per-row
            // screened argmin — the staged composition the fused kernel
            // must reproduce exactly.
            let mut gram = vec![0.0; rows * len];
            matmul_dense(rows, dims, len, &q, &bt, &mut gram);
            let mut got = vec![0usize; rows];
            nearest1_rows(rows, dims, len, &q, &bt, &nsq, &qs, &mut got);
            for r in 0..rows {
                assert_eq!(
                    got[r],
                    screened_argmin(&nsq, &gram[r * len..(r + 1) * len], qs[r]),
                    "rows {rows} dims {dims} len {len} r {r}"
                );
            }
        }
    }

    #[test]
    fn scale_minmax_matches_scalar_bitwise() {
        for &(rows, dims) in &[(1usize, 1usize), (3, 3), (5, 4), (7, 5), (33, 22)] {
            let a = fixture(rows * dims, 9, 6);
            let mut lo = fixture(dims, 10, 0);
            let mut hi: Vec<f64> = lo.iter().map(|v| v + 0.7).collect();
            // Exercise the constant-feature blend, including signed zeros
            // (IEEE equality must still route the lane to 0.5).
            if dims > 1 {
                lo[1] = 0.25;
                hi[1] = 0.25;
            }
            lo[0] = -0.0;
            hi[0] = 0.0;
            let mut scalar = vec![0.0; rows * dims];
            scale_minmax_scalar(rows, dims, &a, &lo, &hi, &mut scalar);
            let mut fast = vec![0.0; rows * dims];
            scale_minmax(rows, dims, &a, &lo, &hi, &mut fast);
            assert_eq!(bits(&scalar), bits(&fast), "shape {rows}x{dims}");
        }
    }

    #[test]
    fn matmul_propagates_non_finite() {
        // 0 * inf = NaN must reach the output; the old zero-skip hid it.
        let a = [0.0, 1.0];
        let b = [f64::INFINITY, 2.0];
        let mut out = vec![0.0; 1];
        matmul_naive(1, 2, 1, &a, &b, &mut out);
        assert!(out[0].is_nan());
        let mut dense = vec![0.0; 1];
        matmul_dense(1, 2, 1, &a, &b, &mut dense);
        assert!(dense[0].is_nan());
        let bt = transpose_naive(2, 1, &b);
        let mut fast = vec![0.0; 1];
        matmul_pretransposed(1, 2, 1, &a, &bt, &mut fast);
        assert!(fast[0].is_nan());
    }

    #[test]
    fn matvec_matches_naive_bitwise() {
        for &(rows, cols) in &[(1, 1), (5, 3), (22, 22), (64, 22)] {
            let a = fixture(rows * cols, 3, 11);
            let v = fixture(cols, 4, 0);
            let naive = matvec_naive(rows, cols, &a, &v);
            let mut fast = vec![0.0; rows];
            matvec(rows, cols, &a, &v, &mut fast);
            assert_eq!(bits(&naive), bits(&fast), "shape {rows}x{cols}");
        }
    }

    #[test]
    fn matvec_sub_matches_center_then_matvec_bitwise() {
        let (rows, cols) = (7, 9);
        let a = fixture(rows * cols, 5, 13);
        let v = fixture(cols, 6, 0);
        let sub = fixture(cols, 7, 0);
        let centered: Vec<f64> = v.iter().zip(sub.iter()).map(|(x, s)| x - s).collect();
        let naive = matvec_naive(rows, cols, &a, &centered);
        let mut fast = vec![0.0; rows];
        matvec_sub(rows, cols, &a, &v, &sub, &mut fast);
        assert_eq!(bits(&naive), bits(&fast));
    }

    #[test]
    fn transpose_matches_naive_and_round_trips() {
        let (rows, cols) = (6, 11);
        let a = fixture(rows * cols, 8, 0);
        let naive = transpose_naive(rows, cols, &a);
        let mut fast = vec![0.0; rows * cols];
        transpose(rows, cols, &a, &mut fast);
        assert_eq!(bits(&naive), bits(&fast));
        let mut back = vec![0.0; rows * cols];
        transpose(cols, rows, &fast, &mut back);
        assert_eq!(bits(&a), bits(&back));
    }

    #[test]
    fn in_place_square_transpose_matches_naive() {
        let n = 13;
        let mut a = fixture(n * n, 9, 0);
        let naive = transpose_naive(n, n, &a);
        transpose_in_place_square(n, &mut a);
        assert_eq!(bits(&naive), bits(&a));
    }

    #[test]
    fn euclidean_sq_sqrt_matches_euclidean_bitwise() {
        let a = fixture(22, 10, 0);
        let b = fixture(22, 11, 0);
        let old: f64 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        assert_eq!(old.to_bits(), euclidean_sq(&a, &b).sqrt().to_bits());
    }

    #[test]
    fn sq_norms_match_self_distance_to_origin() {
        let (rows, cols) = (5, 22);
        let a = fixture(rows * cols, 12, 0);
        let zeros = vec![0.0; cols];
        let norms = sq_norms(rows, cols, &a);
        for r in 0..rows {
            let row = &a[r * cols..(r + 1) * cols];
            assert_eq!(norms[r].to_bits(), euclidean_sq(row, &zeros).to_bits());
        }
    }

    #[test]
    fn dot_matches_iterator_chain_bitwise() {
        let a = fixture(40, 13, 0);
        let b = fixture(40, 14, 0);
        let old: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
        assert_eq!(old.to_bits(), dot(&a, &b).to_bits());
    }
}
