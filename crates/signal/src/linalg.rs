//! A minimal dense linear-algebra kernel: just enough to solve the normal
//! equations of the AR covariance method.
//!
//! The matrices involved are tiny (AR order ≤ ~10), so a straightforward
//! Gaussian elimination with partial pivoting is both simpler and faster
//! than anything clever.

use std::error::Error;
use std::fmt;

/// Error returned when a linear system has no unique solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrix;

impl fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is singular or ill-conditioned")
    }
}

impl Error for SingularMatrix {}

/// A dense row-major square matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `n × n` zero matrix.
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Creates a matrix from rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows are not all of length `rows.len()`.
    #[cfg(test)]
    fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n = rows.len();
        let mut m = Matrix::zeros(n);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n, "matrix must be square");
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Solves `self · x = b` by Gaussian elimination with partial
    /// pivoting, consuming a copy of the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] if a pivot smaller than `1e-12` times the
    /// largest initial element is encountered.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SingularMatrix> {
        let n = self.n;
        assert_eq!(b.len(), n, "dimension mismatch");
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut a = self.data.clone();
        let mut x: Vec<f64> = b.to_vec();
        let scale = a
            .iter()
            .fold(0.0f64, |acc, v| acc.max(v.abs()))
            .max(f64::MIN_POSITIVE);

        for col in 0..n {
            // Partial pivot.
            let mut pivot_row = col;
            let mut pivot_val = a[col * n + col].abs();
            for row in (col + 1)..n {
                let v = a[row * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = row;
                }
            }
            if pivot_val < 1e-12 * scale {
                return Err(SingularMatrix);
            }
            if pivot_row != col {
                for j in 0..n {
                    a.swap(col * n + j, pivot_row * n + j);
                }
                x.swap(col, pivot_row);
            }
            let pivot = a[col * n + col];
            for row in (col + 1)..n {
                let factor = a[row * n + col] / pivot;
                // lint:allow(float-eq): exact-zero factor skips a no-op elimination row
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[row * n + j] -= factor * a[col * n + j];
                }
                x[row] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut acc = x[col];
            for j in (col + 1)..n {
                acc -= a[col * n + j] * x[j];
            }
            x[col] = acc / a[col * n + col];
        }
        Ok(x)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.n + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.n + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrs_core::check::vec_of;
    use rrs_core::{prop_assert, props};

    #[test]
    fn solve_identity() {
        let mut m = Matrix::zeros(3);
        for i in 0..3 {
            m[(i, i)] = 1.0;
        }
        let x = m.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5, x + 3y = 10  =>  x = 1, y = 3
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = m.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let m = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = m.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_is_detected() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(m.solve(&[1.0, 2.0]), Err(SingularMatrix));
    }

    #[test]
    fn empty_system() {
        let m = Matrix::zeros(0);
        assert_eq!(m.solve(&[]).unwrap(), Vec::<f64>::new());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_rhs_length_panics() {
        let m = Matrix::zeros(2);
        let _ = m.solve(&[1.0]);
    }

    props! {
        #[test]
        fn solve_round_trips(
            coeffs in vec_of(-5.0f64..5.0, 9),
            xs in vec_of(-5.0f64..5.0, 3),
        ) {
            let rows: Vec<Vec<f64>> = coeffs.chunks(3).map(<[f64]>::to_vec).collect();
            // Make the matrix diagonally dominant so it is well-conditioned.
            let mut m = Matrix::from_rows(&rows);
            for i in 0..3 {
                m[(i, i)] += 20.0;
            }
            // b = m * xs
            let mut b = vec![0.0; 3];
            for i in 0..3 {
                for j in 0..3 {
                    b[i] += m[(i, j)] * xs[j];
                }
            }
            let solved = m.solve(&b).unwrap();
            for i in 0..3 {
                prop_assert!((solved[i] - xs[i]).abs() < 1e-8);
            }
        }
    }
}
