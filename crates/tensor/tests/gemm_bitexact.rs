//! GEMM bit-exactness: every kernel level == the sequential-`k` oracle.
//!
//! The forward GEMM's contract is that output element `(i, j)` equals
//! `((0 + a[i,0]·b[0,j]) + a[i,1]·b[1,j]) + …` — products added in
//! sequential `k` order, multiply and add rounded separately. The tape
//! matmul, the tape-free `matmul_into`, and every SIMD level must produce
//! exactly those bits, because the chain tape == frozen == engine == wire
//! is checked bit for bit downstream. This suite pins the contract over a
//! shape sweep that hits full register tiles, row remainders, every
//! narrow column-remainder width, and `k` beyond one packed chunk.

use od_tensor::infer::{matmul_into, matmul_into_at};
use od_tensor::{matmul, Shape, SimdLevel, Tensor};

const MS: [usize; 7] = [1, 2, 3, 5, 7, 12, 64];
const KS: [usize; 5] = [1, 4, 16, 32, 144];
const NS: [usize; 10] = [1, 3, 4, 6, 15, 16, 17, 32, 102, 112];

/// Deterministic values in `[-0.5, 0.5)`; in `a`, every 7th entry is an
/// exact `0.0` and every 11th an exact `-0.0` (the kernels must not skip
/// zero multiplicands — the oracle does not).
fn values(len: usize, seed: u64, zeros: bool) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match i {
                _ if zeros && i % 11 == 5 => -0.0,
                _ if zeros && i % 7 == 3 => 0.0,
                _ => (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5,
            }
        })
        .collect()
}

/// The sequential-`k` oracle, written out plainly.
fn reference(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            out.push(acc.to_bits());
        }
    }
    out
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn every_level_matches_the_sequential_k_oracle() {
    let levels = SimdLevel::available();
    assert!(levels.contains(&SimdLevel::Scalar));
    for &m in &MS {
        for &k in &KS {
            for &n in &NS {
                let a = values(m * k, (m * 1000 + k) as u64, true);
                let b = values(k * n, (k * 1000 + n) as u64, false);
                let want = reference(&a, m, k, &b, n);
                let ctx = format!("{m}x{k}x{n}");

                let tape = matmul(
                    &Tensor::new(Shape::Matrix(m, k), a.clone()),
                    &Tensor::new(Shape::Matrix(k, n), b.clone()),
                );
                assert_eq!(bits(tape.as_slice()), want, "tape matmul {ctx}");

                // Stale output contents must never leak into the result.
                let mut out = vec![f32::NAN; m * n];
                matmul_into(&a, m, k, &b, n, &mut out);
                assert_eq!(bits(&out), want, "matmul_into {ctx}");

                for &level in &levels {
                    let mut out = vec![-1.25e30f32; m * n];
                    matmul_into_at(level, &a, m, k, &b, n, &mut out);
                    assert_eq!(bits(&out), want, "{level} {ctx}");
                }
            }
        }
    }
}

#[test]
fn long_k_crosses_packed_chunks_in_order() {
    // The narrow path packs `a` in chunks along k; accumulation must carry
    // across chunk boundaries without reordering.
    for &(m, k, n) in &[(9, 300, 3), (16, 513, 1), (5, 257, 17)] {
        let a = values(m * k, k as u64, true);
        let b = values(k * n, n as u64, false);
        let want = reference(&a, m, k, &b, n);
        for level in SimdLevel::available() {
            let mut out = vec![7.0f32; m * n];
            matmul_into_at(level, &a, m, k, &b, n, &mut out);
            assert_eq!(bits(&out), want, "{level} {m}x{k}x{n}");
        }
    }
}

#[test]
fn empty_k_writes_zeros() {
    let mut out = vec![f32::NAN; 6];
    matmul_into(&[], 2, 0, &[], 3, &mut out);
    assert_eq!(out, vec![0.0; 6]);
}
