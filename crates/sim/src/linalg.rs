//! Dense LU factorization with partial pivoting, generic over real and
//! complex scalars.
//!
//! MNA matrices for the circuits OASYS synthesizes are tiny (tens of
//! unknowns), so a dense O(n³) solver is the right tool; sparse machinery
//! would be pure overhead. The kernel swaps pivot rows physically, so
//! every elimination runs over two contiguous row slices, and it skips a
//! row whose multiplier is exactly zero. MNA rows are mostly zeros, so
//! that skip removes most of the work, and it cannot change a finite
//! result: subtracting `0·u` leaves each entry equal under `==`.

use crate::complex::Complex;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Scalar field over which the solver operates. Sealed: implemented for
/// `f64` and [`Complex`] only.
pub trait Scalar:
    Copy
    + PartialEq
    + fmt::Debug
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + private::Sealed
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Magnitude used for pivot selection.
    fn norm(self) -> f64;
}

mod private {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for super::Complex {}
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    fn norm(self) -> f64 {
        self.abs()
    }
}

impl Scalar for Complex {
    const ZERO: Self = Complex::ZERO;
    const ONE: Self = Complex::ONE;
    fn norm(self) -> f64 {
        self.abs()
    }
}

/// Error returned when a matrix is numerically singular.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingularMatrixError {
    /// Elimination column at which no acceptable pivot was found.
    pub column: usize,
}

impl fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is singular at column {}", self.column)
    }
}

impl std::error::Error for SingularMatrixError {}

/// A dense square matrix in row-major storage.
///
/// # Examples
///
/// ```
/// use oasys_sim::linalg::Matrix;
/// let mut m: Matrix<f64> = Matrix::zeros(2);
/// m[(0, 0)] = 2.0;
/// m[(1, 1)] = 4.0;
/// let x = m.solve(&[2.0, 8.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// # Ok::<(), oasys_sim::linalg::SingularMatrixError>(())
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Matrix<T: Scalar> {
    n: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates an `n×n` zero matrix.
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![T::ZERO; n * n],
        }
    }

    /// Matrix dimension.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds `value` to entry `(row, col)` — the MNA "stamp" operation.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn stamp(&mut self, row: usize, col: usize, value: T) {
        let n = self.n;
        assert!(row < n && col < n, "stamp ({row},{col}) outside {n}×{n}");
        self.data[row * n + col] = self.data[row * n + col] + value;
    }

    /// Resets all entries to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(T::ZERO);
    }

    /// Solves `A·x = b` by LU with partial pivoting on a copy of the
    /// matrix (the receiver is untouched).
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if no pivot above the absolute
    /// threshold `1e-300` exists in some column.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, SingularMatrixError> {
        let mut lu = self.clone();
        let mut x = b.to_vec();
        lu.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` in place: on success `b` holds `x` and the matrix
    /// holds its LU factors, rows in pivot order. Newton loops reassemble
    /// the matrix every iteration anyway, so they hand it over here
    /// instead of paying for a copy.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if no pivot above the absolute
    /// threshold `1e-300` exists in some column; the matrix and `b` are
    /// then partially eliminated.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve_in_place(&mut self, b: &mut [T]) -> Result<(), SingularMatrixError> {
        let n = self.n;
        assert_eq!(b.len(), n, "rhs length must match matrix dimension");
        for k in 0..n {
            // Find the pivot row: the first largest magnitude in column k.
            let mut best = k;
            let mut best_norm = self.data[k * n + k].norm();
            for row in k + 1..n {
                let candidate = self.data[row * n + k].norm();
                if candidate > best_norm {
                    best = row;
                    best_norm = candidate;
                }
            }
            if best_norm < 1e-300 || !best_norm.is_finite() {
                return Err(SingularMatrixError { column: k });
            }
            if best != k {
                let (upper, lower) = self.data.split_at_mut(best * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                b.swap(k, best);
            }
            let (done, below) = self.data.split_at_mut((k + 1) * n);
            let pivot_row = &done[k * n..];
            let pivot = pivot_row[k];
            for row in below.chunks_exact_mut(n) {
                let factor = row[k] / pivot;
                row[k] = factor;
                if factor == T::ZERO {
                    continue;
                }
                for (entry, &upper) in row[k + 1..].iter_mut().zip(&pivot_row[k + 1..]) {
                    *entry = *entry - factor * upper;
                }
            }
        }
        // Forward: L·y = P·b (unit diagonal L; `b` is already permuted).
        for k in 0..n {
            let row = &self.data[k * n..k * n + k];
            let y = row
                .iter()
                .zip(&b[..k])
                .fold(b[k], |acc, (&l, &yj)| acc - l * yj);
            b[k] = y;
        }
        // Back: U·x = y.
        for k in (0..n).rev() {
            let row = &self.data[k * n..(k + 1) * n];
            let acc = row[k + 1..]
                .iter()
                .zip(&b[k + 1..])
                .fold(b[k], |acc, (&u, &xj)| acc - u * xj);
            b[k] = acc / row[k];
        }
        Ok(())
    }

    /// Computes `A·x` (for residual checks and tests).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the matrix dimension.
    #[must_use]
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.n);
        let n = self.n;
        (0..n)
            .map(|i| {
                self.data[i * n..(i + 1) * n]
                    .iter()
                    .zip(x)
                    .fold(T::ZERO, |acc, (&a, &xj)| acc + a * xj)
            })
            .collect()
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    fn index(&self, (row, col): (usize, usize)) -> &T {
        &self.data[row * self.n + col]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut T {
        &mut self.data[row * self.n + col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasys_testutil::Rng;

    /// The permutation-indexed LU this module shipped before the kernel
    /// swapped rows physically: the oracle the kernel must match.
    fn reference_solve<T: Scalar>(m: &Matrix<T>, b: &[T]) -> Result<Vec<T>, SingularMatrixError> {
        let n = m.n;
        let mut a = m.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let mut best = k;
            let mut best_norm = a[perm[k] * n + k].norm();
            for (offset, &row) in perm.iter().enumerate().skip(k + 1) {
                let candidate = a[row * n + k].norm();
                if candidate > best_norm {
                    best = offset;
                    best_norm = candidate;
                }
            }
            if best_norm < 1e-300 || !best_norm.is_finite() {
                return Err(SingularMatrixError { column: k });
            }
            perm.swap(k, best);
            let pivot_row = perm[k];
            let pivot = a[pivot_row * n + k];
            for &row in &perm[k + 1..] {
                let factor = a[row * n + k] / pivot;
                a[row * n + k] = factor;
                for j in k + 1..n {
                    let sub = factor * a[pivot_row * n + j];
                    a[row * n + j] = a[row * n + j] - sub;
                }
            }
        }
        let mut y = vec![T::ZERO; n];
        for k in 0..n {
            let mut acc = b[perm[k]];
            for j in 0..k {
                acc = acc - a[perm[k] * n + j] * y[j];
            }
            y[k] = acc;
        }
        let mut x = vec![T::ZERO; n];
        for k in (0..n).rev() {
            let mut acc = y[k];
            for j in k + 1..n {
                acc = acc - a[perm[k] * n + j] * x[j];
            }
            x[k] = acc / a[perm[k] * n + k];
        }
        Ok(x)
    }

    /// The system families the oracle test draws from.
    #[derive(Clone, Copy, Debug)]
    enum Family {
        /// Every entry nonzero.
        Dense,
        /// Tiny diagonal, large off-diagonal: every column pivots.
        PivotForcing,
        /// A duplicated row or an all-zero column.
        Singular,
        /// Conductance stamps plus voltage-source branch rows: sparse,
        /// zero-diagonal branch rows, many exact-zero multipliers.
        Mna,
    }

    /// Draws one `n×n` system of a family; `entry` turns a real draw into
    /// a scalar (the complex variant adds a random imaginary part).
    fn draw<T: Scalar>(
        rng: &mut Rng,
        family: Family,
        n: usize,
        entry: &dyn Fn(&mut Rng, f64) -> T,
    ) -> Matrix<T> {
        let mut m: Matrix<T> = Matrix::zeros(n);
        match family {
            Family::Dense => {
                for i in 0..n {
                    for j in 0..n {
                        let v = rng.range_f64(-1.0, 1.0);
                        m[(i, j)] = entry(rng, v);
                    }
                }
            }
            Family::PivotForcing => {
                for i in 0..n {
                    for j in 0..n {
                        let scale = if i == j { 1e-9 } else { 1.0 };
                        let v = scale * rng.range_f64(-1.0, 1.0);
                        m[(i, j)] = entry(rng, v);
                    }
                }
            }
            Family::Singular => {
                for i in 0..n {
                    for j in 0..n {
                        let v = rng.range_f64(-1.0, 1.0);
                        m[(i, j)] = entry(rng, v);
                    }
                }
                if rng.range_u64(0, 2) == 0 {
                    let from = rng.range_u64(0, n as u64) as usize;
                    let to = rng.range_u64(0, n as u64) as usize;
                    if from != to {
                        for j in 0..n {
                            m[(to, j)] = m[(from, j)];
                        }
                    } else {
                        for j in 0..n {
                            m[(to, j)] = T::ZERO;
                        }
                    }
                } else {
                    let col = rng.range_u64(0, n as u64) as usize;
                    for i in 0..n {
                        m[(i, col)] = T::ZERO;
                    }
                }
            }
            Family::Mna => {
                let branches = rng.range_u64(0, (n as u64 / 3) + 1) as usize;
                let nodes = n - branches;
                for i in 0..nodes {
                    m.stamp(i, i, entry(rng, 1e-12));
                }
                for _ in 0..nodes + 2 {
                    let a = rng.range_u64(0, nodes as u64) as usize;
                    let b = rng.range_u64(0, nodes as u64 + 1) as usize;
                    let g = rng.range_f64(1e-6, 1e-3);
                    let y = entry(rng, g);
                    m.stamp(a, a, y);
                    if b < nodes && b != a {
                        m.stamp(b, b, y);
                        m.stamp(a, b, -y);
                        m.stamp(b, a, -y);
                    }
                }
                for k in 0..branches {
                    let node = rng.range_u64(0, nodes as u64) as usize;
                    m.stamp(node, nodes + k, T::ONE);
                    m.stamp(nodes + k, node, T::ONE);
                }
            }
        }
        m
    }

    /// Runs every family through both implementations and demands equal
    /// solutions under `==` (so `±0` compare equal) or the same singular
    /// column. The draws must reach singular columns and skipped
    /// multipliers, or the comparison proves less than it says.
    fn check_against_oracle<T: Scalar>(name: &str, entry: &dyn Fn(&mut Rng, f64) -> T) {
        let families = [
            Family::Dense,
            Family::PivotForcing,
            Family::Singular,
            Family::Mna,
        ];
        let mut singular = 0;
        let mut zero_multipliers = 0;
        for case in 0..400u64 {
            let mut rng = Rng::for_case(name, case);
            let family = families[(case % 4) as usize];
            let n = rng.range_u64(1, 25) as usize;
            let m = draw(&mut rng, family, n, entry);
            let b: Vec<T> = (0..n)
                .map(|_| {
                    let v = rng.range_f64(-1.0, 1.0);
                    entry(&mut rng, v)
                })
                .collect();
            let expected = reference_solve(&m, &b);
            let mut lu = m.clone();
            let mut x = b.clone();
            let actual = lu.solve_in_place(&mut x).map(|()| x);
            assert_eq!(actual, expected, "case {case} ({family:?}, n = {n})");
            if actual.is_err() {
                singular += 1;
            } else {
                zero_multipliers += (0..n)
                    .flat_map(|i| (0..i).map(move |j| (i, j)))
                    .filter(|&ij| lu[ij] == T::ZERO)
                    .count();
            }
        }
        assert!(singular >= 50, "only {singular} singular systems");
        assert!(
            zero_multipliers >= 1000,
            "only {zero_multipliers} zero multipliers"
        );
    }

    #[test]
    fn kernel_matches_permutation_indexed_oracle_on_real_systems() {
        check_against_oracle::<f64>("lu-oracle-real", &|_, v| v);
    }

    #[test]
    fn kernel_matches_permutation_indexed_oracle_on_complex_systems() {
        check_against_oracle::<Complex>("lu-oracle-complex", &|rng, v| {
            if v == 0.0 {
                Complex::ZERO
            } else {
                Complex::new(v, rng.range_f64(-1.0, 1.0) * v.abs())
            }
        });
    }

    #[test]
    fn solves_identity() {
        let mut m: Matrix<f64> = Matrix::zeros(3);
        for i in 0..3 {
            m[(i, i)] = 1.0;
        }
        let x = m.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_requiring_pivoting() {
        // Zero on the (0,0) diagonal forces a row swap.
        let mut m: Matrix<f64> = Matrix::zeros(2);
        m[(0, 0)] = 0.0;
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 1.0;
        m[(1, 1)] = 0.0;
        let x = m.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn residual_is_small_for_random_like_system() {
        // Deterministic pseudo-random fill.
        let n = 12;
        let mut m: Matrix<f64> = Matrix::zeros(n);
        let mut seed = 1u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = next();
            }
            m[(i, i)] += 4.0; // diagonally dominant → nonsingular
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 3.0).collect();
        let x = m.solve(&b).unwrap();
        let ax = m.mul_vec(&x);
        for (ai, bi) in ax.iter().zip(&b) {
            assert!((ai - bi).abs() < 1e-9);
        }
    }

    #[test]
    fn detects_singularity() {
        let mut m: Matrix<f64> = Matrix::zeros(2);
        m[(0, 0)] = 1.0;
        m[(0, 1)] = 2.0;
        m[(1, 0)] = 2.0;
        m[(1, 1)] = 4.0;
        let err = m.solve(&[1.0, 2.0]).unwrap_err();
        assert_eq!(err.column, 1);
        assert!(err.to_string().contains("singular"));
    }

    #[test]
    fn complex_system() {
        // (1+j)x = 2j  →  x = 2j/(1+j) = 1+j.
        let mut m: Matrix<Complex> = Matrix::zeros(1);
        m[(0, 0)] = Complex::new(1.0, 1.0);
        let x = m.solve(&[Complex::new(0.0, 2.0)]).unwrap();
        assert!((x[0] - Complex::new(1.0, 1.0)).abs() < 1e-12);
    }

    #[test]
    fn complex_rc_divider() {
        // Series R with shunt C at ω: vout/vin = (1/jωC)/(R + 1/jωC).
        // Solve the 2-unknown MNA instead: nodes (in) driven by source…
        // keep it simple: 2×2 complex system with known solution.
        let r = 1e3;
        let w = 2.0 * std::f64::consts::PI * 1e6;
        let c = 159.155e-12; // makes ωRC ≈ 1
        let g = Complex::from_real(1.0 / r);
        let jwc = Complex::new(0.0, w * c);
        // Node 1 = vin fixed via large-G source approximation avoided; use
        // analytic: x = vin * g / (g + jwc).
        let mut m: Matrix<Complex> = Matrix::zeros(1);
        m[(0, 0)] = g + jwc;
        let x = m.solve(&[g]).unwrap();
        let expected_mag = 1.0 / (1.0 + (w * r * c).powi(2)).sqrt();
        assert!((x[0].abs() - expected_mag).abs() < 1e-6);
    }

    #[test]
    fn stamp_accumulates() {
        let mut m: Matrix<f64> = Matrix::zeros(2);
        m.stamp(0, 0, 1.0);
        m.stamp(0, 0, 2.0);
        assert_eq!(m[(0, 0)], 3.0);
        m.clear();
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn stamp_bounds_checked() {
        let mut m: Matrix<f64> = Matrix::zeros(2);
        m.stamp(2, 0, 1.0);
    }
}
