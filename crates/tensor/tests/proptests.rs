//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vsan_tensor::ops;
use vsan_tensor::serialize;
use vsan_tensor::{init, KernelTier, Tensor};

fn seeded_randn(seed: u64, dims: &[usize]) -> Tensor {
    init::randn(&mut StdRng::seed_from_u64(seed), dims, 0.0, 1.0)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

fn small_matrix() -> impl Strategy<Value = Tensor> {
    (1usize..6, 1usize..6).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |v| Tensor::from_vec(v, &[r, c]).unwrap())
    })
}

proptest! {
    #[test]
    fn add_is_commutative(a in small_matrix()) {
        let b = a.map(|x| x * 0.5 - 1.0);
        let ab = ops::add(&a, &b).unwrap();
        let ba = ops::add(&b, &a).unwrap();
        prop_assert_eq!(ab.data(), ba.data());
    }

    #[test]
    fn sub_then_add_round_trips(a in small_matrix()) {
        let b = a.map(|x| x.sin());
        let d = ops::sub(&a, &b).unwrap();
        let back = ops::add(&d, &b).unwrap();
        for (x, y) in back.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn double_transpose_is_identity(a in small_matrix()) {
        let tt = a.transpose2().unwrap().transpose2().unwrap();
        prop_assert_eq!(tt.data(), a.data());
    }

    #[test]
    fn matmul_identity_left_and_right(a in small_matrix()) {
        let (r, c) = (a.dims()[0], a.dims()[1]);
        let left = ops::matmul(&Tensor::eye(r), &a).unwrap();
        let right = ops::matmul(&a, &Tensor::eye(c)).unwrap();
        for (x, y) in left.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
        for (x, y) in right.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_distributes_over_add(
        a in small_matrix(),
    ) {
        // (A + A') B == AB + A'B with A' a deterministic transform of A.
        let a2 = a.map(|x| x * 0.25 + 0.5);
        let c = a.dims()[1];
        let b = Tensor::from_vec((0..c * 3).map(|i| (i as f32 * 0.37).cos()).collect(), &[c, 3]).unwrap();
        let lhs = ops::matmul(&ops::add(&a, &a2).unwrap(), &b).unwrap();
        let rhs = ops::add(&ops::matmul(&a, &b).unwrap(), &ops::matmul(&a2, &b).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "lhs {} rhs {}", x, y);
        }
    }

    #[test]
    fn softmax_rows_are_probabilities(a in small_matrix()) {
        let s = ops::softmax_rows(&a).unwrap();
        let (r, _) = (a.dims()[0], a.dims()[1]);
        for i in 0..r {
            let row = s.row(i);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn masked_softmax_rows_are_probabilities(n in 1usize..8) {
        let a = Tensor::from_vec((0..n * n).map(|i| ((i * 31 % 17) as f32) - 8.0).collect(), &[n, n]).unwrap();
        let s = ops::softmax_rows_masked(&a).unwrap();
        for i in 0..n {
            let row = s.row(i);
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            for (j, &v) in row.iter().enumerate() {
                if j > i {
                    prop_assert_eq!(v, 0.0);
                }
            }
        }
    }

    #[test]
    fn serialization_round_trips(a in small_matrix()) {
        let back = serialize::decode(&mut &serialize::encode(&a)[..]).unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn sum_axis0_matches_manual(a in small_matrix()) {
        let s = ops::sum_axis0(&a).unwrap();
        let (r, c) = (a.dims()[0], a.dims()[1]);
        for j in 0..c {
            let manual: f32 = (0..r).map(|i| a.get2(i, j)).sum();
            prop_assert!((s.data()[j] - manual).abs() < 1e-4);
        }
    }

    // ---- tier.matmul(.., threads) ≡ matmul, bit for bit ----------------
    //
    // The parallel front-end partitions output rows; each row is produced
    // by the tier's serial kernel, whose per-element fold is the reference
    // i-k-j loop's, so the contract is exact bitwise equality (not
    // tolerance) for any shape × thread count, on both tiers every case.

    #[test]
    fn matmul_parallel_matches_serial_below_threshold(
        m in 1usize..9,
        k in 1usize..9,
        n in 1usize..9,
        threads in 1usize..17,
        seed in 0u64..1_000_000,
    ) {
        // m·k·n < 1e6 here, so this pins the serial-fallback branch.
        let a = seeded_randn(seed, &[m, k]);
        let b = seeded_randn(seed ^ 0xab54_a98c, &[k, n]);
        let serial = ops::matmul(&a, &b).unwrap();
        for tier in [KernelTier::Reference, KernelTier::Fast] {
            let par = tier.matmul(&a, &b, threads).unwrap();
            prop_assert_eq!(bits(&par), bits(&serial), "on {}", tier.name());
        }
    }

    #[test]
    fn matmul_parallel_matches_serial_above_threshold(
        m in 1usize..7,
        k in 2usize..17,
        threads in 2usize..17,
        extra in 1usize..512,
        seed in 0u64..1_000_000,
    ) {
        // Pick n so m·k·n ≥ 1e6: the genuinely threaded branch. Small m
        // with threads up to 16 also covers the m < threads clamp.
        let n = 1_000_000usize.div_ceil(m * k) + extra;
        let a = seeded_randn(seed, &[m, k]);
        let b = seeded_randn(seed ^ 0x5151_f00d, &[k, n]);
        let serial = ops::matmul(&a, &b).unwrap();
        for tier in [KernelTier::Reference, KernelTier::Fast] {
            let par = tier.matmul(&a, &b, threads).unwrap();
            prop_assert_eq!(bits(&par), bits(&serial), "on {}", tier.name());
        }
    }

    #[test]
    fn layer_norm_output_is_normalized(a in small_matrix()) {
        let c = a.dims()[1];
        prop_assume!(c > 1);
        let (y, _) = ops::layer_norm_rows(&a, &vec![1.0; c], &vec![0.0; c], 1e-5).unwrap();
        for i in 0..a.dims()[0] {
            let row = y.row(i);
            let m: f32 = row.iter().sum::<f32>() / c as f32;
            prop_assert!(m.abs() < 1e-3);
        }
    }
}

#[test]
fn matmul_parallel_thread_sweep_is_bitwise_stable() {
    // One fixed threshold-crossing shape across the full thread sweep,
    // including counts exceeding the row count (clamped internally).
    let (m, k, n) = (6, 24, 7_000); // m·k·n ≈ 1.0e6 ≥ threshold
    let a = seeded_randn(11, &[m, k]);
    let b = seeded_randn(12, &[k, n]);
    let baseline = bits(&ops::matmul(&a, &b).unwrap());
    for tier in [KernelTier::Reference, KernelTier::Fast] {
        for threads in [1, 2, 3, 4, 5, 8, 16] {
            let par = tier.matmul(&a, &b, threads).unwrap();
            assert_eq!(bits(&par), baseline, "diverged at threads={threads} on {}", tier.name());
        }
    }
}
