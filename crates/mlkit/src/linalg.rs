//! Minimal dense linear algebra: a row-major [`Matrix`] with the operations
//! PCA and the classifiers need (multiplication, transpose, covariance,
//! symmetric eigendecomposition via cyclic Jacobi).
//!
//! The arithmetic lives in the flat slice kernels of [`crate::kernels`];
//! this module owns shape checking and the `Matrix` container. Optimized
//! and naive paths are pinned bitwise-equal by the kernel property tests
//! (see the `kernels` module docs for the exact reduction-order
//! argument).

use crate::kernels;
use crate::MlError;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use mlkit::linalg::Matrix;
/// let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.transpose().get(0, 1), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or rows have inconsistent lengths.
    #[must_use]
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix needs at least one column");
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "all rows must have equal length"
        );
        let data = rows.into_iter().flatten().collect();
        Matrix {
            rows: 0,
            cols,
            data,
        }
        .with_rows_fixed()
    }

    fn with_rows_fixed(mut self) -> Self {
        self.rows = self.data.len() / self.cols;
        self
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[must_use]
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column index out of range");
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Borrow of the full row-major backing store.
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Matrix transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        kernels::transpose(self.rows, self.cols, &self.data, &mut t.data);
        t
    }

    /// In-place transpose (square matrices only; no reallocation).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::Numerical`] if the matrix is not square.
    pub fn transpose_in_place(&mut self) -> Result<(), MlError> {
        if self.rows != self.cols {
            return Err(MlError::Numerical(
                "in-place transpose requires a square matrix".into(),
            ));
        }
        kernels::transpose_in_place_square(self.rows, &mut self.data);
        Ok(())
    }

    /// Matrix product `self × rhs`, computed by the vectorizable broadcast
    /// kernel ([`kernels::matmul_dense`]). Bitwise identical to the
    /// test-only `Matrix::matmul_naive` oracle.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if the inner dimensions differ.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, MlError> {
        if self.cols != rhs.rows {
            return Err(MlError::DimensionMismatch {
                expected: self.cols,
                actual: rhs.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        kernels::matmul_dense(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
        Ok(out)
    }

    /// Naive matrix product: the documented oracle [`matmul`]
    /// (`Matrix::matmul`) is property-tested against, kept deliberately
    /// simple. Dense — earlier revisions skipped `a == 0.0` terms, which
    /// silently suppressed `0 × ∞ = NaN` propagation.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if the inner dimensions differ.
    #[cfg(test)]
    pub(crate) fn matmul_naive(&self, rhs: &Matrix) -> Result<Matrix, MlError> {
        if self.cols != rhs.rows {
            return Err(MlError::DimensionMismatch {
                expected: self.cols,
                actual: rhs.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        kernels::matmul_naive(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
        Ok(out)
    }

    /// Matrix-vector product.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, MlError> {
        if v.len() != self.cols {
            return Err(MlError::DimensionMismatch {
                expected: self.cols,
                actual: v.len(),
            });
        }
        let mut out = vec![0.0; self.rows];
        kernels::matvec(self.rows, self.cols, &self.data, v, &mut out);
        Ok(out)
    }

    /// Fused centered matrix-vector product `self × (v − sub)` without
    /// materialising the centered temporary (PCA's projection hot path).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] if `v` or `sub` length
    /// differs from `self.cols()`.
    pub fn matvec_sub(&self, v: &[f64], sub: &[f64]) -> Result<Vec<f64>, MlError> {
        if v.len() != self.cols || sub.len() != self.cols {
            return Err(MlError::DimensionMismatch {
                expected: self.cols,
                actual: if v.len() != self.cols {
                    v.len()
                } else {
                    sub.len()
                },
            });
        }
        let mut out = vec![0.0; self.rows];
        kernels::matvec_sub(self.rows, self.cols, &self.data, v, sub, &mut out);
        Ok(out)
    }

    /// Per-column means.
    #[must_use]
    pub fn column_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (c, m) in means.iter_mut().enumerate() {
                *m += self.get(r, c);
            }
        }
        for m in &mut means {
            *m /= self.rows as f64;
        }
        means
    }

    /// Returns a copy with each column's mean subtracted.
    #[must_use]
    pub fn center_columns(&self) -> Matrix {
        let means = self.column_means();
        let mut out = self.clone();
        for r in 0..self.rows {
            for (c, &mean) in means.iter().enumerate() {
                out.set(r, c, self.get(r, c) - mean);
            }
        }
        out
    }

    /// Sample covariance matrix of the rows (dividing by `n − 1`; by `n`
    /// when there is a single row).
    ///
    /// Works on the **transposed** centered data so each `(i, j)` entry is
    /// one contiguous dot product; the reduction still runs over samples
    /// in ascending order, so the result is bitwise identical to the
    /// per-element `get()` double loop it replaced.
    #[must_use]
    pub fn covariance(&self) -> Matrix {
        let centered = self.center_columns();
        let mut ct = vec![0.0; centered.data.len()];
        kernels::transpose(self.rows, self.cols, &centered.data, &mut ct);
        let denom = if self.rows > 1 {
            (self.rows - 1) as f64
        } else {
            1.0
        };
        let mut cov = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.cols {
            let ci = &ct[i * self.rows..(i + 1) * self.rows];
            for j in i..self.cols {
                let cj = &ct[j * self.rows..(j + 1) * self.rows];
                // Manual 0.0-start accumulation: the historical loop's
                // reduction, not `f64::sum` (which folds from the first
                // element and differs on signed zeros).
                let mut s = 0.0;
                for (x, y) in ci.iter().zip(cj.iter()) {
                    s += x * y;
                }
                s /= denom;
                cov.data[i * self.cols + j] = s;
                cov.data[j * self.cols + i] = s;
            }
        }
        cov
    }

    /// Frobenius norm.
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Symmetric eigendecomposition via the cyclic Jacobi method.
    ///
    /// Returns `(eigenvalues, eigenvectors)` sorted by descending
    /// eigenvalue; eigenvector `i` is the `i`-th **column** of the returned
    /// matrix.
    ///
    /// The sweep runs over the flat backing store with direct indexing
    /// (no bounds-checked `get`/`set` per rotation element); every
    /// rotation applies the identical formulas in the identical order as
    /// the original per-element version, so eigenvalues and vectors are
    /// bitwise unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::Numerical`] if the matrix is not square or the
    /// sweep fails to converge (which for symmetric input it practically
    /// never does).
    pub fn symmetric_eigen(&self) -> Result<(Vec<f64>, Matrix), MlError> {
        if self.rows != self.cols {
            return Err(MlError::Numerical(
                "eigendecomposition requires a square matrix".into(),
            ));
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut v = vec![0.0; n * n];
        for i in 0..n {
            v[i * n + i] = 1.0;
        }

        let off_diag = |m: &[f64]| -> f64 {
            let mut s = 0.0;
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        s += m[i * n + j].powi(2);
                    }
                }
            }
            s.sqrt()
        };

        let tol = 1e-12 * self.frobenius_norm().max(1e-300);
        let max_sweeps = 100;
        let mut sweeps = 0;
        while off_diag(&a) > tol {
            sweeps += 1;
            if sweeps > max_sweeps {
                return Err(MlError::Numerical("Jacobi sweeps did not converge".into()));
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a[p * n + q];
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    let app = a[p * n + p];
                    let aqq = a[q * n + q];
                    let theta = 0.5 * (aqq - app) / apq;
                    // Stable computation of tan of the rotation angle.
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    // Apply the rotation A <- JᵀAJ.
                    for k in 0..n {
                        let akp = a[k * n + p];
                        let akq = a[k * n + q];
                        a[k * n + p] = c * akp - s * akq;
                        a[k * n + q] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a[p * n + k];
                        let aqk = a[q * n + k];
                        a[p * n + k] = c * apk - s * aqk;
                        a[q * n + k] = s * apk + c * aqk;
                    }
                    // Accumulate eigenvectors V <- VJ.
                    for k in 0..n {
                        let vkp = v[k * n + p];
                        let vkq = v[k * n + q];
                        v[k * n + p] = c * vkp - s * vkq;
                        v[k * n + q] = s * vkp + c * vkq;
                    }
                }
            }
        }

        let mut order: Vec<usize> = (0..n).collect();
        // `total_cmp` orders exactly as `partial_cmp` on the finite
        // eigenvalues Jacobi produces, and stays panic-free if a caller
        // slips a non-finite entry past the input checks.
        order.sort_by(|&i, &j| a[j * n + j].total_cmp(&a[i * n + i]));
        let eigenvalues: Vec<f64> = order.iter().map(|&i| a[i * n + i]).collect();
        let mut vectors = Matrix::zeros(n, n);
        for (new_col, &old_col) in order.iter().enumerate() {
            for r in 0..n {
                vectors.data[r * n + new_col] = v[r * n + old_col];
            }
        }
        Ok((eigenvalues, vectors))
    }
}

/// Euclidean distance between two equal-length vectors.
///
/// Exactly `euclidean_sq(a, b).sqrt()`; callers that only *rank*
/// distances (KNN neighbour selection, k-means assignment) should use
/// [`euclidean_sq`] and skip the `sqrt`.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
#[must_use]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    euclidean_sq(a, b).sqrt()
}

/// Squared Euclidean distance between two equal-length vectors. Ranking
/// by this value selects the same winners (including ties) as ranking by
/// [`euclidean`], since `sqrt` is strictly monotone.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
#[must_use]
pub fn euclidean_sq(a: &[f64], b: &[f64]) -> f64 {
    kernels::euclidean_sq(a, b)
}

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    kernels::dot(a, b)
}

/// Pearson correlation coefficient of two equal-length samples.
///
/// Returns 0 when either sample has zero variance.
///
/// # Panics
///
/// Panics if lengths differ or the slices are empty.
#[must_use]
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "pearson requires equal lengths");
    assert!(!a.is_empty(), "pearson of empty samples");
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_rows_rejected() {
        let _ = Matrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(vec![vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        assert!(matches!(
            a.matmul(&b),
            Err(MlError::DimensionMismatch {
                expected: 3,
                actual: 2
            })
        ));
    }

    #[test]
    fn matmul_matches_naive_oracle_bitwise() {
        let a = Matrix::from_rows(
            (0..17)
                .map(|r| {
                    (0..23)
                        .map(|c| (((r * 23 + c) as f64) * 0.618_033_988_75).fract() - 0.5)
                        .collect()
                })
                .collect(),
        );
        let b = Matrix::from_rows(
            (0..23)
                .map(|r| {
                    (0..11)
                        .map(|c| (((r * 11 + c + 5) as f64) * 0.618_033_988_75).fract() - 0.5)
                        .collect()
                })
                .collect(),
        );
        let fast = a.matmul(&b).unwrap();
        let naive = a.matmul_naive(&b).unwrap();
        for i in 0..17 {
            for j in 0..11 {
                assert_eq!(fast.get(i, j).to_bits(), naive.get(i, j).to_bits());
            }
        }
    }

    #[test]
    fn matmul_propagates_non_finite_rhs() {
        // Regression: the historical `a == 0.0` skip suppressed 0 × ∞ and
        // 0 × NaN, silently returning finite results for non-finite input.
        let a = Matrix::from_rows(vec![vec![0.0, 1.0]]);
        let b = Matrix::from_rows(vec![vec![f64::INFINITY], vec![2.0]]);
        assert!(a.matmul(&b).unwrap().get(0, 0).is_nan());
        assert!(a.matmul_naive(&b).unwrap().get(0, 0).is_nan());
        let c = Matrix::from_rows(vec![vec![f64::NAN], vec![3.0]]);
        assert!(a.matmul(&c).unwrap().get(0, 0).is_nan());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
    }

    #[test]
    fn matvec_sub_matches_manual_centering() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let v = [5.0, 7.0];
        let sub = [1.0, 2.0];
        let centered: Vec<f64> = v.iter().zip(sub.iter()).map(|(x, s)| x - s).collect();
        assert_eq!(
            a.matvec_sub(&v, &sub).unwrap(),
            a.matvec(&centered).unwrap()
        );
        assert!(a.matvec_sub(&v, &[1.0]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_in_place_matches_transpose() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let mut inplace = m.clone();
        inplace.transpose_in_place().unwrap();
        assert_eq!(inplace, m.transpose());
        let mut rect = Matrix::zeros(2, 3);
        assert!(rect.transpose_in_place().is_err());
    }

    #[test]
    fn covariance_of_known_data() {
        // Two perfectly correlated columns.
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        let cov = m.covariance();
        assert!((cov.get(0, 0) - 1.0).abs() < 1e-12);
        assert!((cov.get(0, 1) - 2.0).abs() < 1e-12);
        assert!((cov.get(1, 1) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn eigen_of_diagonal_matrix() {
        let m = Matrix::from_rows(vec![
            vec![3.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ]);
        let (vals, _) = m.symmetric_eigen().unwrap();
        assert!((vals[0] - 3.0).abs() < 1e-9);
        assert!((vals[1] - 2.0).abs() < 1e-9);
        assert!((vals[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eigen_reconstructs_matrix() {
        let m = Matrix::from_rows(vec![
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.2],
            vec![0.5, 0.2, 2.0],
        ]);
        let (vals, vecs) = m.symmetric_eigen().unwrap();
        // Rebuild A = V Λ Vᵀ and compare.
        let mut lambda = Matrix::zeros(3, 3);
        for (i, &val) in vals.iter().enumerate() {
            lambda.set(i, i, val);
        }
        let rebuilt = vecs
            .matmul(&lambda)
            .unwrap()
            .matmul(&vecs.transpose())
            .unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (rebuilt.get(i, j) - m.get(i, j)).abs() < 1e-9,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = Matrix::from_rows(vec![
            vec![2.0, 0.5, 0.1],
            vec![0.5, 1.5, 0.3],
            vec![0.1, 0.3, 1.0],
        ]);
        let (_, vecs) = m.symmetric_eigen().unwrap();
        let vtv = vecs.transpose().matmul(&vecs).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((vtv.get(i, j) - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn eigen_rejects_non_square() {
        let m = Matrix::zeros(2, 3);
        assert!(m.symmetric_eigen().is_err());
    }

    #[test]
    fn euclidean_distance() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(euclidean(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn euclidean_is_sqrt_of_squared() {
        let a = [0.3, -1.7, 2.9, 0.0];
        let b = [1.1, 0.4, -0.2, 5.5];
        assert_eq!(
            euclidean(&a, &b).to_bits(),
            euclidean_sq(&a, &b).sqrt().to_bits()
        );
        assert_eq!(euclidean_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&a, &[5.0; 4]), 0.0);
    }

    #[test]
    fn column_means_and_centering() {
        let m = Matrix::from_rows(vec![vec![1.0, 10.0], vec![3.0, 20.0]]);
        assert_eq!(m.column_means(), vec![2.0, 15.0]);
        let c = m.center_columns();
        assert_eq!(c.column_means(), vec![0.0, 0.0]);
    }
}
