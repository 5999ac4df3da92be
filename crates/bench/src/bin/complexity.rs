//! §IV-F — complexity analysis: wall-clock forward cost of one
//! self-attention block (O(n²d + nd²), parallel over positions) against
//! an unrolled GRU (O(nd²), strictly sequential) across sequence lengths,
//! and one block over a 32 × 50 batch at 1 and 4 threads.
//!
//! The paper's claim to check: self-attention's wall-clock grows
//! gracefully with n, while the RNN's sequential recurrence dominates at
//! every length despite the lower FLOP class.
//!
//! Each cell is the best of N samples; a sample is the mean time of one
//! forward (graph build included) over repeated calls filling a fixed
//! time slice. `--scale smoke` takes fewer and shorter samples.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use vsan_autograd::Graph;
use vsan_bench::{ExpArgs, Scale};
use vsan_nn::{Dropout, GruCell, ParamStore, SelfAttentionBlock, Windows};
use vsan_tensor::init;

const DIM: usize = 48;

/// Best-of-`samples` mean duration of one `f()` call, each sample
/// repeating `f` until `slice` has elapsed.
fn best_of(samples: usize, slice: Duration, mut f: impl FnMut()) -> Duration {
    f(); // warm-up: first-touch allocations, thread pool start
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u32;
            while calls == 0 || start.elapsed() < slice {
                f();
                calls += 1;
            }
            start.elapsed() / calls
        })
        .min()
        .expect("at least one sample")
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    let args = ExpArgs::from_env(1);
    let (samples, slice) = match args.scale {
        Scale::Smoke => (3, Duration::from_millis(5)),
        Scale::Repro => (15, Duration::from_millis(50)),
        Scale::Paper => (30, Duration::from_millis(100)),
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "== §IV-F: complexity analysis (scale {:?}, best of {samples}, {cores} core(s) available) ==",
        args.scale
    );
    let drop = Dropout::new(0.0);

    println!();
    println!("forward cost vs sequence length: one SAN block vs an unrolled GRU, d = {DIM}, one thread");
    println!("{:>5} | {:>12} | {:>12} | {:>9}", "n", "SAN (µs)", "GRU (µs)", "GRU / SAN");
    let mut rng = StdRng::seed_from_u64(1);
    let mut store = ParamStore::new();
    let san = SelfAttentionBlock::new(&mut store, &mut rng, "san", DIM, true);
    let gru = GruCell::new(&mut store, &mut rng, "gru", DIM, DIM);
    for n in [25usize, 50, 100, 200] {
        let x = init::randn(&mut rng, &[n, DIM], 0.0, 0.5);
        let san_t = best_of(samples, slice, || {
            let mut g = Graph::with_threads(1);
            let mut r = StdRng::seed_from_u64(0);
            let xv = g.constant(x.clone());
            san.forward(&mut g, &store, xv, Windows::Stacked { batch: 1 }, &drop, &mut r, false)
                .expect("SAN forward");
        });
        let gru_t = best_of(samples, slice, || {
            let mut g = Graph::with_threads(1);
            let xv = g.constant(x.clone());
            let xs: Vec<_> = (0..n).map(|t| g.gather_rows(xv, &[t]).expect("row")).collect();
            gru.unroll(&mut g, &store, &xs, 1).expect("GRU unroll");
        });
        println!(
            "{n:>5} | {:>12.1} | {:>12.1} | {:>8.1}x",
            us(san_t),
            us(gru_t),
            gru_t.as_secs_f64() / san_t.as_secs_f64()
        );
    }

    println!();
    let (batch, n) = (32usize, 50usize);
    println!("one SAN block over {batch} × {n} rows, d = {DIM}: thread scaling");
    println!("{:>7} | {:>12} | {:>7}", "threads", "SAN (µs)", "speedup");
    let mut rng = StdRng::seed_from_u64(2);
    let mut store = ParamStore::new();
    let san = SelfAttentionBlock::new(&mut store, &mut rng, "san", DIM, true);
    let x = init::randn(&mut rng, &[batch * n, DIM], 0.0, 0.5);
    let mut serial = None;
    for threads in [1usize, 4] {
        let t = best_of(samples, slice, || {
            let mut g = Graph::with_threads(threads);
            let mut r = StdRng::seed_from_u64(0);
            let xv = g.constant(x.clone());
            san.forward(&mut g, &store, xv, Windows::Stacked { batch }, &drop, &mut r, false)
                .expect("SAN forward");
        });
        let base = *serial.get_or_insert(t);
        println!("{threads:>7} | {:>12.1} | {:>6.2}x", us(t), base.as_secs_f64() / t.as_secs_f64());
    }
}
