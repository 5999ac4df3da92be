//! Kernel micro-benchmarks backing the design choices in DESIGN.md §5
//! and §10: parallel vs serial matmul, fused vs composed softmax
//! cross-entropy, fused causal-mask softmax vs additive-mask softmax,
//! tape overhead vs raw kernels, the fast path's fused attention vs the
//! tape's composed ops, the zero-skip branch cost on dense vs
//! embedding-sparse operands, and the tiled matmul nest at the shapes
//! with a column remainder, a single row or an `N`-wide head.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vsan_autograd::Graph;
use vsan_tensor::{init, ops, KernelTier, Tensor};

fn bench_matmul_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_parallel");
    let mut rng = StdRng::seed_from_u64(1);
    // The prediction-layer shape: (batch·seq, d) × (d, items).
    let a = init::randn(&mut rng, &[512, 64], 0.0, 0.5);
    let b = init::randn(&mut rng, &[64, 2048], 0.0, 0.5);
    for tier in [KernelTier::Reference, KernelTier::Fast] {
        for threads in [1, 2, 4, 8] {
            let id = BenchmarkId::new(format!("{}_threads", tier.name()), threads);
            group.bench_with_input(id, &threads, |bench, &t| {
                bench.iter(|| tier.matmul(&a, &b, t).unwrap());
            });
        }
    }
    group.finish();
}

fn bench_fused_ce(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_ce");
    let mut rng = StdRng::seed_from_u64(2);
    let logits = init::randn(&mut rng, &[256, 2048], 0.0, 1.0);
    let targets: Vec<usize> = (0..256).map(|i| (i * 13) % 2048).collect();

    group.bench_function("fused", |bench| {
        bench.iter(|| {
            let mut g = Graph::with_threads(1);
            let l = g.param(logits.clone(), 0);
            let loss = g.ce_one_hot(l, &targets).unwrap();
            g.backward(loss).unwrap()
        });
    });
    group.bench_function("composed_softmax_then_mask", |bench| {
        // The unfused alternative: full softmax on the tape, a one-hot mask
        // multiply, and a reduction — same gradient signal, ~2-3x the
        // tensor traffic plus the generic softmax backward.
        bench.iter(|| {
            let mut g = Graph::with_threads(1);
            let l = g.param(logits.clone(), 0);
            let sm = g.softmax_rows(l).unwrap();
            let mut mask = Tensor::zeros(&[256, 2048]);
            for (r, &t) in targets.iter().enumerate() {
                mask.set2(r, t, 1.0);
            }
            let m = g.constant(mask);
            let picked = g.mul(sm, m).unwrap();
            let s = g.sum_all(picked);
            g.backward(s).unwrap()
        });
    });
    group.finish();
}

fn bench_causal_mask(c: &mut Criterion) {
    let mut group = c.benchmark_group("causal_mask");
    let mut rng = StdRng::seed_from_u64(3);
    let scores = init::randn(&mut rng, &[200, 200], 0.0, 1.0);
    group.bench_function("fused_prefix_softmax", |bench| {
        bench.iter(|| ops::softmax_rows_masked(&scores).unwrap());
    });
    group.bench_function("additive_neg_inf_mask", |bench| {
        bench.iter(|| {
            // The textbook alternative: add −1e9 above the diagonal, then a
            // full-row softmax. Touches the whole matrix twice.
            let mut masked = scores.clone();
            for i in 0..200 {
                for j in (i + 1)..200 {
                    masked.set2(i, j, -1e9);
                }
            }
            ops::softmax_rows(&masked).unwrap()
        });
    });
    group.finish();
}

fn bench_tape_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("tape_overhead");
    let mut rng = StdRng::seed_from_u64(4);
    let a = init::randn(&mut rng, &[128, 64], 0.0, 0.5);
    let b = init::randn(&mut rng, &[64, 64], 0.0, 0.5);
    group.bench_function("raw_kernels", |bench| {
        bench.iter(|| {
            let c1 = ops::matmul(&a, &b).unwrap();
            let c2 = ops::elementwise::relu(&c1);
            ops::sum_all(&c2)
        });
    });
    group.bench_function("tape_forward_only", |bench| {
        bench.iter(|| {
            let mut g = Graph::with_threads(1);
            let av = g.constant(a.clone());
            let bv = g.constant(b.clone());
            let c1 = g.matmul(av, bv).unwrap();
            let c2 = g.relu(c1);
            let s = g.sum_all(c2);
            g.value(s).data()[0]
        });
    });
    group.bench_function("tape_with_backward", |bench| {
        bench.iter(|| {
            let mut g = Graph::with_threads(1);
            let av = g.param(a.clone(), 0);
            let bv = g.param(b.clone(), 1);
            let c1 = g.matmul(av, bv).unwrap();
            let c2 = g.relu(c1);
            let s = g.sum_all(c2);
            g.backward(s).unwrap()
        });
    });
    group.finish();
}

fn bench_fused_attention(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_attention");
    let mut rng = StdRng::seed_from_u64(5);
    // Paper shapes: Beauty n=50, ML-1M n=200, both at d=100 (§V).
    for (n, d) in [(50usize, 100usize), (200, 100)] {
        let q = init::randn(&mut rng, &[n, d], 0.0, 0.5);
        let k = init::randn(&mut rng, &[n, d], 0.0, 0.5);
        let v = init::randn(&mut rng, &[n, d], 0.0, 0.5);
        let scale = 1.0 / (d as f32).sqrt();
        let id = format!("n{n}_d{d}");
        group.bench_with_input(BenchmarkId::new("composed_ops", &id), &(), |bench, ()| {
            // The tape's sequence: Q·Kᵀ, scale, masked softmax, ·V —
            // two (n, n) tensors materialized per call.
            bench.iter(|| {
                let scores = ops::matmul_a_bt(&q, &k).unwrap();
                let scaled = scores.map(|x| scale * x + 0.0);
                let attn = ops::softmax_rows_masked(&scaled).unwrap();
                ops::matmul(&attn, &v).unwrap()
            });
        });
        group.bench_with_input(BenchmarkId::new("fused_single_pass", &id), &(), |bench, ()| {
            // Scratch sized up front, as `Workspace` does: the tiled rows.
            let mut scores = vec![0.0f32; ops::attention_scratch_len(n, n, d)];
            let mut out = vec![0.0f32; n * d];
            bench.iter(|| {
                ops::causal_attention_into(
                    q.data(),
                    k.data(),
                    v.data(),
                    n,
                    d,
                    scale,
                    &mut scores,
                    &mut out,
                );
                out[n * d - 1]
            });
        });
        group.bench_with_input(BenchmarkId::new("append_row", &id), &(), |bench, ()| {
            // The session fold-in, (n − 1, 1, 1): one row-form row, which
            // must not pay for a transpose.
            let mut scores = vec![0.0f32; n];
            let mut out = vec![0.0f32; d];
            let p = (n - 1) * d;
            let (q, k, v) = (q.data(), k.data(), v.data());
            bench.iter(|| {
                ops::causal_attention_append_into(
                    &q[p..],
                    &k[..p],
                    &k[p..],
                    &v[..p],
                    &v[p..],
                    n - 1,
                    d,
                    scale,
                    &mut scores,
                    &mut out,
                );
                out[d - 1]
            });
        });
    }
    group.finish();
}

fn bench_zero_skip(c: &mut Criterion) {
    let mut group = c.benchmark_group("zero_skip");
    let mut rng = StdRng::seed_from_u64(6);
    // Dense side (attention projections, FFN, prediction head): the
    // per-element branch never fires and is pure cost — the reason the
    // tiled `matmul_into` dropped what `reference::matmul_into` keeps.
    // Sparse side (embedding activations with left-padded all-zero rows):
    // whole-row skips pay.
    // Shapes are the paper's: d=100 projections at Beauty/ML-1M batch
    // sizes, and the (b, d) × (d, N+1) prediction heads at N≈12k/3.4k.
    for (label, m, k, n) in [
        ("proj_b32_n50_d100", 1600usize, 100usize, 100usize),
        ("pred_beauty_b32_n12k", 32, 100, 12_001),
        ("pred_ml1m_b16_n3k4", 16, 100, 3_401),
    ] {
        let a_dense = init::randn(&mut rng, &[m, k], 0.0, 0.5);
        // Embedding-like sparsity: half the rows are exact-zero padding.
        let mut a_sparse = a_dense.clone();
        for r in 0..m / 2 {
            a_sparse.data_mut()[r * k..(r + 1) * k].fill(0.0);
        }
        let b = init::randn(&mut rng, &[k, n], 0.0, 0.5);
        let mut out = vec![0.0f32; m * n];
        for (input, a) in [("dense", &a_dense), ("half_zero_rows", &a_sparse)] {
            let id = format!("{label}/{input}");
            group.bench_with_input(BenchmarkId::new("skip_branch", &id), &(), |bench, ()| {
                bench.iter(|| {
                    out.fill(0.0);
                    ops::matmul::reference::matmul_into(a.data(), b.data(), &mut out, m, k, n);
                    out[m * n - 1]
                });
            });
            group.bench_with_input(BenchmarkId::new("branch_free_tiled", &id), &(), |bench, ()| {
                bench.iter(|| {
                    out.fill(0.0);
                    ops::matmul::matmul_into(a.data(), b.data(), &mut out, m, k, n);
                    out[m * n - 1]
                });
            });
        }
    }
    group.finish();
}

fn bench_tiled_matmul(c: &mut Criterion) {
    // The register-tiled nest (DESIGN.md §10) where its edges are: d = 100
    // linears (a 4-column remainder) at a full batch, a session prepare and
    // a single appended row; d = 96 with no remainder; the N-wide heads at
    // b = 32, b = 1 and the train_eval vocabulary (n = 542, a 14-column
    // remainder); and the dW = Xᵀ·dY shape of the same layers. A local
    // before/after: build this bench on both commits and compare.
    let mut group = c.benchmark_group("tiled_matmul");
    let mut rng = StdRng::seed_from_u64(8);
    type Kernel = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
    let shapes: [(&str, Kernel, usize, usize, usize); 9] = [
        ("into", ops::matmul::matmul_into, 1600, 100, 100),
        ("into", ops::matmul::matmul_into, 199, 100, 100),
        ("into", ops::matmul::matmul_into, 1, 100, 100),
        ("into", ops::matmul::matmul_into, 1600, 96, 96),
        ("into", ops::matmul::matmul_into, 32, 100, 12_001),
        ("into", ops::matmul::matmul_into, 1, 100, 3_401),
        ("into", ops::matmul::matmul_into, 400, 100, 542),
        ("at_b", ops::matmul::matmul_at_b_into, 100, 1600, 100),
        ("at_b", ops::matmul::matmul_at_b_into, 100, 400, 542),
    ];
    for (name, kernel, m, k, n) in shapes {
        // Both kernels read `m·k` left-operand floats; only the layout
        // differs, which random data does not care about.
        let a = init::randn(&mut rng, &[m * k], 0.0, 0.5);
        let b = init::randn(&mut rng, &[k, n], 0.0, 0.5);
        let mut out = vec![0.0f32; m * n];
        group.bench_with_input(BenchmarkId::new(name, format!("{m}x{k}x{n}")), &(), |bench, ()| {
            bench.iter(|| {
                out.fill(0.0);
                kernel(a.data(), b.data(), &mut out, m, k, n);
                out[m * n - 1]
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_matmul_parallel, bench_fused_ce, bench_causal_mask, bench_tape_overhead, bench_fused_attention, bench_zero_skip, bench_tiled_matmul
}
criterion_main!(benches);
