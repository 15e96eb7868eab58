//! Oracle tests: the sparse-skipping LU against dense elimination.
//!
//! `Lu::factor` skips zero multipliers and zero pivot-row entries, and
//! `Lu::inverse_row` solves for one row of the inverse without forming it.
//! For finite input with no −0.0 entry both must give the dense
//! algorithms' results bit for bit; the dense elimination and substitution
//! are kept here as the reference.

use ct_stats::matrix::Matrix;
use ct_stats::solve::{Lu, SolveError};
use proptest::prelude::*;

/// Dense LU with partial pivoting: `(factors, perm, sign)`.
fn dense_factor(a: &Matrix) -> Result<(Matrix, Vec<usize>, f64), SolveError> {
    let n = a.rows();
    let mut lu = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut sign = 1.0;
    for k in 0..n {
        let mut pivot_row = k;
        let mut pivot_val = lu[(k, k)].abs();
        for i in (k + 1)..n {
            let v = lu[(i, k)].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = i;
            }
        }
        if pivot_val < 1e-12 {
            return Err(SolveError::Singular { step: k });
        }
        if pivot_row != k {
            for j in 0..n {
                let tmp = lu[(k, j)];
                lu[(k, j)] = lu[(pivot_row, j)];
                lu[(pivot_row, j)] = tmp;
            }
            perm.swap(k, pivot_row);
            sign = -sign;
        }
        let pivot = lu[(k, k)];
        for i in (k + 1)..n {
            let factor = lu[(i, k)] / pivot;
            lu[(i, k)] = factor;
            for j in (k + 1)..n {
                let delta = factor * lu[(k, j)];
                lu[(i, j)] -= delta;
            }
        }
    }
    Ok((lu, perm, sign))
}

/// Dense forward and back substitution with the factors of `dense_factor`.
fn dense_solve(lu: &Matrix, perm: &[usize], b: &[f64]) -> Vec<f64> {
    let n = lu.rows();
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut acc = b[perm[i]];
        for j in 0..i {
            acc -= lu[(i, j)] * y[j];
        }
        y[i] = acc;
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut acc = y[i];
        for j in (i + 1)..n {
            acc -= lu[(i, j)] * x[j];
        }
        x[i] = acc / lu[(i, i)];
    }
    x
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A sparse `n × n` matrix: entries drawn from `codes`, most of them +0.0;
/// with `chain` set, `I − Q` for a substochastic `Q` (the shape every
/// caller factors), otherwise general signed entries.
fn matrix(n: usize, codes: &[u32], chain: bool) -> Matrix {
    // A small general diagonal keeps most draws nonsingular while larger
    // off-diagonal entries still force row swaps.
    let mut a = if chain {
        Matrix::identity(n)
    } else {
        Matrix::diag(&vec![0.25; n])
    };
    for i in 0..n {
        let mut row_mass = 0.0;
        for j in 0..n {
            let code = codes[(i * n + j) % codes.len()].wrapping_add((i * 7 + j) as u32);
            if !code.is_multiple_of(5) {
                continue; // structural zero
            }
            let v = f64::from(code % 89 + 1) / 97.0;
            if chain {
                let q = v / n as f64;
                if row_mass + q <= 1.0 {
                    row_mass += q;
                    a[(i, j)] -= q;
                }
            } else {
                a[(i, j)] += if code.is_multiple_of(3) { -v } else { v };
            }
        }
    }
    a
}

fn assert_matches_dense(a: &Matrix) -> Result<(), TestCaseError> {
    let n = a.rows();
    let (lu, reference) = match (Lu::factor(a), dense_factor(a)) {
        (Ok(lu), Ok(reference)) => (lu, reference),
        (got, want) => {
            prop_assert_eq!(got.err(), want.err());
            return Ok(());
        }
    };
    let (factors, perm, sign) = reference;
    let det = (0..n).fold(sign, |d, i| d * factors[(i, i)]);
    prop_assert_eq!(lu.det().to_bits(), det.to_bits());
    let b: Vec<f64> = (0..n).map(|i| (i % 3) as f64 - 0.5).collect();
    prop_assert_eq!(
        bits(&lu.solve(&b).expect("square")),
        bits(&dense_solve(&factors, &perm, &b))
    );
    let inverse = lu.inverse().expect("square");
    for r in 0..n {
        let mut e = vec![0.0; n];
        let want: Vec<f64> = (0..n)
            .map(|j| {
                e.fill(0.0);
                e[j] = 1.0;
                dense_solve(&factors, &perm, &e)[r]
            })
            .collect();
        prop_assert_eq!(bits(inverse.row(r)), bits(&want));
        prop_assert_eq!(bits(&lu.inverse_row(r)), bits(&want));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `I − Q` of sparse substochastic `Q`, and general sparse matrices
    /// (pivoting, negative pivots and so −0.0 multipliers, singular cases).
    #[test]
    fn sparse_lu_matches_dense_elimination(
        n in 1usize..24,
        chain in any::<bool>(),
        codes in proptest::collection::vec(0u32..10_000, 1..64),
    ) {
        assert_matches_dense(&matrix(n, &codes, chain))?;
    }
}

#[test]
fn singular_matrices_fail_at_the_dense_step() {
    let a = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[2.0, 4.0, 0.0], &[0.0, 0.0, 1.0]]);
    assert_eq!(Lu::factor(&a).err(), dense_factor(&a).err());
    assert!(Lu::factor(&a).is_err());
}
