//! Per-layer probes: direct calls into single kernels and data
//! structures at a workload's shapes, timed from outside, plus the two
//! roofline denominators (a multiply-add peak and a streaming
//! bandwidth) the kernel rates are read against. FLOP and byte counts
//! are *computed* from the shapes, not measured.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::inputs::SplitMix64;
use crate::report::Metrics;
use crate::spans::Tracer;
use crate::stats::median;
use crate::surface as s;

/// Time budget of one probe.
const PROBE_BUDGET: Duration = Duration::from_millis(40);

/// Median nanoseconds per call of `work`: calibrate a batch to about a
/// quarter millisecond, then time batches until `budget` is spent (at
/// least three). The first call is a warm-up.
pub fn time_ns(budget: Duration, mut work: impl FnMut()) -> f64 {
    work();
    let t0 = Instant::now();
    work();
    let once = t0.elapsed().as_nanos().max(1) as u64;
    let per_batch = (250_000 / once).clamp(1, 100_000) as usize;
    let mut batches = Vec::new();
    let start = Instant::now();
    while batches.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..per_batch {
            work();
        }
        batches.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&batches)
}

/// [`time_ns`] inside a harness span named after the layer call.
fn probe(tracer: &mut Tracer, name: &'static str, work: impl FnMut()) -> f64 {
    tracer.scope(name, 0, 0, || time_ns(PROBE_BUDGET, work))
}

fn random_vec(rng: &mut SplitMix64, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.next_f64() as f32 - 0.5).collect()
}

/// Shapes a workload's kernels run at.
#[derive(Debug, Clone, Copy)]
pub struct Shapes {
    /// Width `d`.
    pub d: usize,
    /// Window length `n`.
    pub n: usize,
    /// Vocabulary: items + padding.
    pub vocab: usize,
}

/// Independent multiply-add chains per step: ten vectors of eight
/// lanes, enough to cover the unit's latency on two issue ports.
const CHAINS: usize = 10;

/// The portable loop: the same chains in plain Rust, multiply then add.
fn madd_chains(iters: usize, x: f32, y: f32) -> f32 {
    let mut acc = [[1.0f32; 8]; CHAINS];
    for _ in 0..iters {
        for chain in acc.iter_mut() {
            for lane in chain.iter_mut() {
                *lane = *lane * x + y;
            }
        }
    }
    acc.iter().flatten().sum()
}

/// The chains as fused multiply-adds on 256-bit registers.
///
/// # Safety
/// The caller must have verified that the CPU supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn madd_chains_fma(iters: usize, x: f32, y: f32) -> f32 {
    use std::arch::x86_64::{_mm256_fmadd_ps, _mm256_set1_ps, _mm256_storeu_ps};
    let (vx, vy) = (_mm256_set1_ps(x), _mm256_set1_ps(y));
    let mut acc = [_mm256_set1_ps(1.0); CHAINS];
    for _ in 0..iters {
        for chain in acc.iter_mut() {
            *chain = _mm256_fmadd_ps(*chain, vx, vy);
        }
    }
    let mut total = 0.0;
    for chain in acc {
        let mut lanes = [0.0f32; 8];
        // SAFETY: `lanes` is eight f32 wide, exactly one unaligned store.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), chain) };
        total += lanes.iter().sum::<f32>();
    }
    total
}

/// Peak single-thread multiply-add rate in GFLOP/s (two FLOPs per lane
/// per step). With AVX2 and FMA this is the fused rate, twice what a
/// kernel that multiplies and adds separately can reach; without them
/// the portable loop runs and the figure is the baseline instruction
/// set's.
pub fn peak_fma_gflops() -> f64 {
    const ITERS: usize = 4096;
    let (x, y) = (black_box(0.999_9f32), black_box(1e-4f32));
    let run = |iters: usize| -> f32 {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
            // SAFETY: AVX2 and FMA support was verified on the line above.
            return unsafe { madd_chains_fma(iters, x, y) };
        }
        madd_chains(iters, x, y)
    };
    let ns = time_ns(PROBE_BUDGET, || {
        black_box(run(ITERS));
    });
    (ITERS * CHAINS * 8 * 2) as f64 / ns
}

/// Streaming bandwidth in GB/s: scale a 32 MiB buffer into another, far
/// past the last-level cache, counting bytes read plus bytes written.
pub fn peak_stream_gbps() -> f64 {
    const LEN: usize = 8 << 20;
    let src = vec![1.0f32; LEN];
    let mut dst = vec![0.0f32; LEN];
    let ns = time_ns(PROBE_BUDGET, || {
        for (d, s) in dst.iter_mut().zip(&src) {
            *d = *s * 1.000_1;
        }
        black_box(&mut dst);
    });
    (LEN * 8) as f64 / ns
}

/// The roofline denominators, measured once per traced run.
pub fn peaks(m: &mut Metrics, tracer: &mut Tracer) -> (f64, f64) {
    let fma = tracer.scope("tensor.peak.fma", 0, 0, peak_fma_gflops);
    let stream = tracer.scope("tensor.peak.stream", 0, 0, peak_stream_gbps);
    m.set("tensor.peak.fma_gflops", fma);
    m.set("tensor.peak.stream_gbps", stream);
    (fma, stream)
}

/// The inference kernels: prediction head at batch 32, a block's
/// projection at batch 32, causal attention and LayerNorm of one
/// window.
pub fn inference_kernels(m: &mut Metrics, tracer: &mut Tracer, sh: Shapes, peaks: (f64, f64)) {
    let mut rng = SplitMix64::new(0xBE7C, 10);
    let (d, n, vocab) = (sh.d, sh.n, sh.vocab);

    // Prediction head: (32, d) · (d, vocab). Memory-bound on W_g.
    let (a, w) = (
        random_vec(&mut rng, 32 * d),
        random_vec(&mut rng, d * vocab),
    );
    let mut c = vec![0.0f32; 32 * vocab];
    let ns = probe(tracer, "tensor.matmul_head", || {
        s::k_matmul(&a, &w, &mut c, 32, d, vocab)
    });
    let bytes = 4.0 * (32 * d + d * vocab + 32 * vocab) as f64;
    m.set("tensor.matmul_head.us", ns / 1e3);
    m.set(
        "tensor.matmul_head.gflops",
        (2 * 32 * d * vocab) as f64 / ns,
    );
    m.set("tensor.matmul_head.gbps", bytes / ns);
    m.set(
        "tensor.matmul_head.pct_of_stream",
        100.0 * (bytes / ns) / peaks.1,
    );

    // One projection of a block over a batch of 32 windows.
    let rows = 32 * n;
    let (x, wp) = (random_vec(&mut rng, rows * d), random_vec(&mut rng, d * d));
    let mut y = vec![0.0f32; rows * d];
    let ns = probe(tracer, "tensor.matmul_proj", || {
        s::k_matmul(&x, &wp, &mut y, rows, d, d)
    });
    let gflops = (2 * rows * d * d) as f64 / ns;
    m.set("tensor.matmul_proj.us", ns / 1e3);
    m.set("tensor.matmul_proj.gflops", gflops);
    m.set("tensor.matmul_proj.pct_of_fma", 100.0 * gflops / peaks.0);

    // Causal attention of one window: n(n+1)/2 score dots and as many
    // value accumulations, 2d FLOPs each.
    let (q, k, v) = (
        random_vec(&mut rng, n * d),
        random_vec(&mut rng, n * d),
        random_vec(&mut rng, n * d),
    );
    let (mut scores, mut out) = (vec![0.0f32; n], vec![0.0f32; n * d]);
    let ns = probe(tracer, "tensor.attention", || {
        s::k_attention(&q, &k, &v, n, d, &mut scores, &mut out)
    });
    m.set("tensor.attention.us", ns / 1e3);
    m.set("tensor.attention.gflops", (2 * n * (n + 1) * d) as f64 / ns);

    let (gamma, beta) = (vec![1.0f32; d], vec![0.0f32; d]);
    let ns = probe(tracer, "tensor.layer_norm", || {
        s::k_layer_norm(&x, &gamma, &beta, rows, d, &mut y)
    });
    m.set("tensor.layer_norm.gbps", (8 * rows * d) as f64 / ns);
}

/// The session kernels: one appended row over `n − 1` cached rows, and
/// the prepare pass over the real rows of a half-padded window.
pub fn session_kernels(m: &mut Metrics, tracer: &mut Tracer, sh: Shapes) {
    let mut rng = SplitMix64::new(0xBE7C, 11);
    let (d, n) = (sh.d, sh.n);
    let (q, k, v) = (
        random_vec(&mut rng, n * d),
        random_vec(&mut rng, n * d),
        random_vec(&mut rng, n * d),
    );
    let (mut scores, mut out) = (vec![0.0f32; n], vec![0.0f32; n * d]);
    let p = (n - 1) * d;
    let ns = probe(tracer, "tensor.attention_append", || {
        s::k_attention_append(
            &q[p..],
            &k[..p],
            &k[p..],
            &v[..p],
            &v[p..],
            n - 1,
            d,
            &mut scores,
            &mut out[..d],
        );
    });
    m.set("tensor.attention_append.us", ns / 1e3);
    let start = n / 2;
    let ns = probe(tracer, "tensor.attention_resume", || {
        s::k_attention_resume(
            &q[start * d..],
            &k,
            &v,
            n,
            d,
            start,
            &mut scores,
            &mut out[start * d..],
        );
    });
    m.set("tensor.attention_resume.us", ns / 1e3);
}

/// The training kernels at the backward's shapes: `dX = dY·Wᵀ` and
/// `dW = Xᵀ·dY` for a block (`b·n = 400` rows, `d` wide) and for the
/// prediction head (`n` rows against the vocabulary), the fused
/// attention forward/backward of one window, and the row softmax.
pub fn training_kernels(m: &mut Metrics, tracer: &mut Tracer, sh: Shapes) {
    let mut rng = SplitMix64::new(0xBE7C, 12);
    let (d, n, vocab) = (sh.d, sh.n, sh.vocab);
    let rows = 400;

    // dX = dY · Wᵀ : (rows, vocab) · (d, vocab)ᵀ for the head, the
    // larger of the two backward products.
    let (dy, w) = (
        random_vec(&mut rng, rows * vocab),
        random_vec(&mut rng, d * vocab),
    );
    let mut dx = vec![0.0f32; rows * d];
    let ns = probe(tracer, "tensor.matmul_a_bt", || {
        s::k_matmul_a_bt(&dy, &w, &mut dx, rows, vocab, d)
    });
    m.set(
        "tensor.matmul_a_bt.gflops",
        (2 * rows * vocab * d) as f64 / ns,
    );

    // dW = Xᵀ · dY : (rows, d)ᵀ · (rows, vocab).
    let x = random_vec(&mut rng, rows * d);
    let mut dw = vec![0.0f32; d * vocab];
    let ns = probe(tracer, "tensor.matmul_at_b", || {
        s::k_matmul_at_b(&x, &dy, &mut dw, d, rows, vocab)
    });
    m.set(
        "tensor.matmul_at_b.gflops",
        (2 * rows * d * vocab) as f64 / ns,
    );

    let (q, k, v) = (
        random_vec(&mut rng, n * d),
        random_vec(&mut rng, n * d),
        random_vec(&mut rng, n * d),
    );
    let (mut probs, mut out) = (vec![0.0f32; n * n], vec![0.0f32; n * d]);
    let ns = probe(tracer, "tensor.attention_train_fwd", || {
        s::k_attention_train_fwd(&q, &k, &v, n, d, &mut probs, &mut out);
    });
    m.set("tensor.attention_train_fwd.us", ns / 1e3);
    let d_out = random_vec(&mut rng, n * d);
    let mut grads = [
        vec![0.0f32; n * d],
        vec![0.0f32; n * d],
        vec![0.0f32; n * d],
        vec![0.0f32; n * n],
    ];
    let ns = probe(tracer, "tensor.attention_train_bwd", || {
        s::k_attention_train_bwd(&q, &k, &v, &probs, &d_out, n, d, &mut grads);
    });
    m.set("tensor.attention_train_bwd.us", ns / 1e3);

    let logits = random_vec(&mut rng, n * vocab);
    let mut soft = vec![0.0f32; n * vocab];
    let ns = probe(tracer, "tensor.softmax", || {
        s::k_softmax(&logits, &mut soft, n, vocab)
    });
    m.set("tensor.softmax.gbps", (8 * n * vocab) as f64 / ns);

    // One attention block on a tape, forward then backward.
    let (mut fwd, mut bwd, mut nodes) = (Vec::new(), Vec::new(), 0usize);
    tracer.scope("autograd.attention_step", 0, 0, || {
        for _ in 0..9 {
            if let Ok((f, b, len)) = s::autograd_attention_step(&q, &k, &v, n, d) {
                fwd.push(f.as_secs_f64() * 1e3);
                bwd.push(b.as_secs_f64() * 1e3);
                nodes = len;
            }
        }
    });
    m.set("autograd.attn_fwd_ms", median(&fwd));
    m.set("autograd.attn_bwd_ms", median(&bwd));
    black_box(nodes);
}

/// k-means over the first `rows` rows of an embedding table — the
/// kernel behind the clustered index build.
pub fn kmeans(m: &mut Metrics, tracer: &mut Tracer, table: &[f32], rows: usize, dim: usize) {
    let clusters = (rows as f64).sqrt().ceil() as usize;
    let t0 = Instant::now();
    tracer.scope("tensor.cluster_rows", 0, 0, || {
        black_box(s::k_cluster_rows(
            &table[dim..(rows + 1) * dim],
            rows,
            dim,
            clusters,
        ))
    });
    let secs = t0.elapsed().as_secs_f64();
    m.set("tensor.kmeans.build_s", secs);
    m.set("tensor.kmeans.rows_per_s", rows as f64 / secs);
}

/// The sequence cache's read path and write path at `values` logits per
/// entry, and the admission queue's push+pop.
pub fn serve_structures(m: &mut Metrics, tracer: &mut Tracer, key_len: usize, values: usize) {
    const ENTRIES: usize = 256;
    let mut cache = s::CacheProbe::full(ENTRIES, key_len, values);
    let keys: Vec<Vec<u32>> = (0..ENTRIES)
        .map(|i| s::CacheProbe::key(i, key_len))
        .collect();
    let mut i = 0usize;
    let ns = probe(tracer, "serve.cache.get", || {
        i = (i + 97) % ENTRIES;
        black_box(cache.get(&keys[i]));
    });
    m.set("serve.cache.get_hit_ns", ns);
    let mut fresh = ENTRIES;
    let ns = probe(tracer, "serve.cache.insert", || {
        fresh += 1;
        cache.insert_evict(s::CacheProbe::key(fresh, key_len));
    });
    m.set("serve.cache.insert_evict_ns", ns);
    let queue = s::QueueProbe::new();
    let mut item = 0u64;
    let ns = probe(tracer, "serve.queue.push_pop", || {
        item += 1;
        black_box(queue.push_pop(item));
    });
    m.set("serve.queue.push_pop_ns", ns);
}

/// The metrics histogram's record path (what every request pays three
/// times).
pub fn obs_structures(m: &mut Metrics, tracer: &mut Tracer) {
    let hist = s::HistogramProbe::new();
    let mut v = 1u64;
    let ns = probe(tracer, "obs.histogram.record", || {
        v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        hist.record(v >> 44);
    });
    m.set("obs.histogram.record_ns", ns);
}

/// The session store's longest-prefix scan over a full store.
pub fn session_structures(
    m: &mut Metrics,
    tracer: &mut Tracer,
    sessions: usize,
    history_len: usize,
) {
    let store = s::PrefixProbe::full(sessions, history_len);
    let mut query = vec![sessions as u32 / 2 + 1; history_len];
    query.push(7);
    let ns = probe(tracer, "session.store.prefix_lookup", || {
        black_box(store.lookup(&query));
    });
    m.set("session.store.prefix_lookup_ns", ns);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ns_grows_with_the_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 1u64;
                for i in 0..n {
                    x = black_box(x.wrapping_mul(31).wrapping_add(i));
                }
                black_box(x);
            }
        };
        let short = time_ns(Duration::from_millis(5), spin(1_000));
        let long = time_ns(Duration::from_millis(5), spin(20_000));
        assert!(long > 5.0 * short, "short {short} long {long}");
    }

    #[test]
    fn peaks_are_positive_and_plausible() {
        let fma = peak_fma_gflops();
        assert!(fma > 0.1 && fma < 1_000.0, "fma {fma}");
    }
}
