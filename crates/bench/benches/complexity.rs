//! §IV-F complexity-analysis benchmarks: forward cost of one
//! self-attention block (O(n²d + nd²)) vs an unrolled GRU (O(nd²),
//! sequential) vs Caser-style convolution, across sequence lengths.
//!
//! The paper's claim to verify: self-attention is *parallelizable* and its
//! wall-clock grows gracefully with n, while the RNN's strictly sequential
//! recurrence dominates at long n even with the same FLOP class.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vsan_autograd::Graph;
use vsan_nn::{Dropout, GruCell, ParamStore, SelfAttentionBlock, Windows};
use vsan_tensor::init;

const DIM: usize = 48;

fn bench_forward_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("forward_cost_vs_seq_len");
    let mut rng = StdRng::seed_from_u64(1);

    let mut store = ParamStore::new();
    let san = SelfAttentionBlock::new(&mut store, &mut rng, "san", DIM, true);
    let gru = GruCell::new(&mut store, &mut rng, "gru", DIM, DIM);
    let drop = Dropout::new(0.0);

    for &n in &[25usize, 50, 100, 200] {
        let x = init::randn(&mut rng, &[n, DIM], 0.0, 0.5);
        group.bench_with_input(BenchmarkId::new("self_attention", n), &n, |bench, _| {
            bench.iter(|| {
                let mut g = Graph::with_threads(1);
                let mut r = StdRng::seed_from_u64(0);
                let xv = g.constant(x.clone());
                san.forward(&mut g, &store, xv, Windows::Stacked { batch: 1 }, &drop, &mut r, false).unwrap()
            });
        });
        group.bench_with_input(BenchmarkId::new("gru_unrolled", n), &n, |bench, &n| {
            bench.iter(|| {
                let mut g = Graph::with_threads(1);
                let xv = g.constant(x.clone());
                let mut xs = Vec::with_capacity(n);
                for t in 0..n {
                    xs.push(g.gather_rows(xv, &[t]).unwrap());
                }
                gru.unroll(&mut g, &store, &xs, 1).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_attention_parallel_scaling(c: &mut Criterion) {
    // The "fully parallelizable" claim: one block over a large batch,
    // serial vs the workspace's parallel matmul path.
    let mut group = c.benchmark_group("attention_batch_threads");
    let mut rng = StdRng::seed_from_u64(2);
    let mut store = ParamStore::new();
    let san = SelfAttentionBlock::new(&mut store, &mut rng, "san", DIM, true);
    let drop = Dropout::new(0.0);
    let batch = 32;
    let n = 50;
    let x = init::randn(&mut rng, &[batch * n, DIM], 0.0, 0.5);
    for &threads in &[1usize, 4] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |bench, &t| {
            bench.iter(|| {
                let mut g = Graph::with_threads(t);
                let mut r = StdRng::seed_from_u64(0);
                let xv = g.constant(x.clone());
                san.forward(&mut g, &store, xv, Windows::Stacked { batch }, &drop, &mut r, false).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_forward_cost, bench_attention_parallel_scaling
}
criterion_main!(benches);
