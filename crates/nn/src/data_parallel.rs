//! Deterministic data-parallel training executor.
//!
//! [`DataParallel::run`] splits a mini-batch into **fixed-size shards**
//! (shard boundaries depend only on the batch length, never on the thread
//! count), builds an independent autograd graph per shard, and reduces the
//! per-shard losses and gradients with a **fixed-order pairwise tree sum**
//! ([`Gradients::tree_reduce`]). Because the shard schedule, the per-shard
//! RNG streams, and the reduction tree are all functions of `(batch,
//! seed)` alone, the result is bit-identical for every thread count —
//! `threads = 1` simply executes the same shard schedule inline.
//!
//! Determinism policy (see DESIGN.md §7):
//!
//! * **No atomics on f32.** Workers never accumulate into shared float
//!   state; each shard's `(loss, Gradients)` lands in its own slot and the
//!   reduction happens single-threaded after the pool joins.
//! * **Fixed-order pairwise tree reduction.** Shard results merge in
//!   shard-id order as `((g₀+g₁)+(g₂+g₃))+…`, so the f32 summation tree is
//!   a function of the shard count only.
//! * **Seeded per-shard RNG streams.** Each shard draws dropout masks and
//!   reparameterization noise from `StdRng::seed_from_u64(shard_seed)`
//!   where the seed is a splitmix64 hash of `(batch_seed, shard_id)` —
//!   independent of which worker thread executes the shard.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use vsan_autograd::{Gradients, Graph, Var};
use vsan_tensor::KernelTier;

/// Number of examples per shard. Constant by design: sharding by a fixed
/// size (rather than dividing the batch by the thread count) is what keeps
/// the floating-point reduction tree identical across thread counts.
pub const DEFAULT_SHARD_SIZE: usize = 8;

/// splitmix64 finalizer — a cheap, well-mixed u64 → u64 hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derive the RNG seed for one optimizer step from the run seed.
pub fn batch_seed(run_seed: u64, step: u64) -> u64 {
    splitmix64(run_seed ^ splitmix64(step))
}

/// Derive the RNG seed for one shard of a batch from the batch seed.
pub fn shard_seed(batch_seed: u64, shard_id: usize) -> u64 {
    splitmix64(batch_seed ^ splitmix64(shard_id as u64 ^ 0x5851_f42d_4c95_7f2d))
}

/// Pairwise tree sum of f32 values in slice order — the scalar analogue of
/// [`Gradients::tree_reduce`], used for per-shard losses.
pub fn tree_sum(values: &[f32]) -> f32 {
    match values.len() {
        0 => 0.0,
        1 => values[0],
        n => {
            let mid = n.div_ceil(2);
            // Left-heavy split keeps the tree shape a pure function of `n`.
            tree_sum(&values[..mid]) + tree_sum(&values[mid..])
        }
    }
}

/// Telemetry a shard's loss build reports alongside the loss node:
/// the loss decomposition the observability layer records per epoch.
/// Values are read off the (eager) graph — pure output, never an input
/// to the computation, so they cannot perturb determinism.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardStats {
    /// Mean cross-entropy component of the shard loss.
    pub ce: f32,
    /// Mean KL component (0 for models without a latent path).
    pub kl: f32,
    /// KL weight β at this step (0 for models without a schedule).
    pub beta: f32,
}

impl ShardStats {
    /// Stats for a pure-CE loss: the whole loss is the CE component.
    pub fn ce_only(ce: f32) -> Self {
        ShardStats { ce, kl: 0.0, beta: 0.0 }
    }
}

/// The per-shard product: weighted loss value plus weighted gradients.
type ShardResult = Result<(f32, Gradients), String>;

/// `run_observed`'s per-shard product: weighted loss, stats, gradients.
type ObservedShardResult = Result<(f32, ShardStats, Gradients), String>;

/// Deterministic data-parallel batch executor.
///
/// ```
/// use vsan_nn::data_parallel::DataParallel;
/// let dp = DataParallel::new(4);
/// let items: Vec<f32> = (0..20).map(|i| i as f32).collect();
/// let (loss, grads) = dp
///     .run(&items, 7, |g, shard, _rng| {
///         let w = g.param(vsan_tensor::Tensor::full(&[1, 4], 0.5), 0);
///         let m = g.mean_all(w);
///         let bias = shard.iter().sum::<f32>() / shard.len() as f32;
///         Ok(g.affine(m, 1.0, bias))
///     })
///     .unwrap();
/// assert!(loss.is_finite());
/// assert!(grads.param_grad(0).is_some());
/// ```
#[derive(Debug)]
pub struct DataParallel {
    threads: usize,
    shard_size: usize,
    tier: KernelTier,
    /// Longest tape any shard has recorded (telemetry only).
    peak_tape_nodes: AtomicUsize,
}

impl DataParallel {
    /// Executor running shards on up to `threads` workers (clamped to ≥ 1).
    /// Shard graphs run the reference kernel tier unless
    /// [`Self::with_kernel_tier`] opts into the fast tier.
    pub fn new(threads: usize) -> Self {
        DataParallel {
            threads: threads.max(1),
            shard_size: DEFAULT_SHARD_SIZE,
            tier: KernelTier::Reference,
            peak_tape_nodes: AtomicUsize::new(0),
        }
    }

    /// Override the shard size (tests only; changing it changes the
    /// reduction tree and therefore the exact bits of the result).
    pub fn with_shard_size(mut self, shard_size: usize) -> Self {
        self.shard_size = shard_size.max(1);
        self
    }

    /// Select the kernel tier for every shard graph. Both tiers produce
    /// bit-identical losses and gradients (the tier contract, enforced by
    /// the tier-differential suite); the fast tier runs the register-tiled
    /// fused kernels of DESIGN.md §10. The shard schedule, RNG streams,
    /// and reduction tree are tier-independent.
    pub fn with_kernel_tier(mut self, tier: KernelTier) -> Self {
        self.tier = tier;
        self
    }

    /// Configured worker-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Configured kernel tier for shard graphs.
    pub fn kernel_tier(&self) -> KernelTier {
        self.tier
    }

    /// Longest tape (node count) any shard has recorded on this executor.
    /// Pure telemetry — reading it cannot perturb training.
    pub fn peak_tape_nodes(&self) -> usize {
        self.peak_tape_nodes.load(Ordering::Relaxed)
    }

    /// Run one batch: shard `items`, build and backprop a loss per shard,
    /// and tree-reduce the weighted per-shard losses and gradients.
    ///
    /// `build` receives a fresh single-threaded graph, the shard's items,
    /// and the shard's private RNG stream, and returns the shard's *mean*
    /// loss node (the executor re-weights it by `shard_len / batch_len` so
    /// the reduced total is the batch mean). The returned loss and
    /// gradients are bit-identical for every `threads` value.
    pub fn run<T, F>(&self, items: &[T], batch_seed: u64, build: F) -> ShardResult
    where
        T: Sync,
        F: Fn(&mut Graph, &[T], &mut StdRng) -> vsan_autograd::Result<Var> + Sync,
    {
        self.run_observed(items, batch_seed, |g, shard, rng| {
            build(g, shard, rng).map(|loss| (loss, ShardStats::default()))
        })
        .map(|(loss, _, grads)| (loss, grads))
    }

    /// [`Self::run`] with per-shard telemetry: `build` additionally
    /// returns a [`ShardStats`] whose `ce`/`kl` components are weighted
    /// and tree-reduced exactly like the loss (so the batch-level stats
    /// are the batch means), while `beta` — identical across shards of a
    /// step by construction — is taken from shard 0. The loss and
    /// gradients are computed on the identical path as [`Self::run`],
    /// so observing a run cannot change its bits.
    pub fn run_observed<T, F>(&self, items: &[T], batch_seed: u64, build: F) -> ObservedShardResult
    where
        T: Sync,
        F: Fn(&mut Graph, &[T], &mut StdRng) -> vsan_autograd::Result<(Var, ShardStats)> + Sync,
    {
        if items.is_empty() {
            return Ok((0.0, ShardStats::default(), Gradients::empty()));
        }
        let shards: Vec<&[T]> = items.chunks(self.shard_size).collect();
        let batch_len = items.len() as f32;

        let run_shard = |shard_id: usize, shard: &[T]| -> ObservedShardResult {
            // The tape lives for this shard only: at most `threads` are
            // ever alive, and an erroring shard leaves nothing behind.
            let mut g = Graph::with_threads_and_tier(1, self.tier);
            let mut rng = StdRng::seed_from_u64(shard_seed(batch_seed, shard_id));
            let (loss, stats) = build(&mut g, shard, &mut rng)
                .map_err(|e| format!("shard {shard_id}: loss build failed: {e}"))?;
            let weight = shard.len() as f32 / batch_len;
            let weighted = g.scale(loss, weight);
            let loss_val = g.value(weighted).data()[0];
            let grads = g
                .backward(weighted)
                .map_err(|e| format!("shard {shard_id}: backward failed: {e}"))?;
            self.peak_tape_nodes.fetch_max(g.len(), Ordering::Relaxed);
            let weighted_stats =
                ShardStats { ce: stats.ce * weight, kl: stats.kl * weight, beta: stats.beta };
            Ok((loss_val, weighted_stats, grads))
        };

        let workers = self.threads.min(shards.len());
        let mut slots: Vec<Option<ObservedShardResult>> = Vec::with_capacity(shards.len());
        slots.resize_with(shards.len(), || None);

        if workers <= 1 {
            // Inline serial path: same shard schedule, same RNG streams,
            // same reduction — only the worker pool is skipped.
            for (shard_id, shard) in shards.iter().enumerate() {
                slots[shard_id] = Some(run_shard(shard_id, shard));
            }
        } else {
            // Work-stealing over an atomic shard cursor. The cursor only
            // assigns *which* shard a worker computes; no float ever
            // crosses a thread boundary except inside a finished slot.
            let cursor = AtomicUsize::new(0);
            let produced: Vec<(usize, ObservedShardResult)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let cursor = &cursor;
                        let shards = &shards;
                        let run_shard = &run_shard;
                        s.spawn(move || {
                            let mut local = Vec::new();
                            loop {
                                let shard_id = cursor.fetch_add(1, Ordering::Relaxed);
                                if shard_id >= shards.len() {
                                    break;
                                }
                                local.push((shard_id, run_shard(shard_id, shards[shard_id])));
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("data-parallel worker panicked"))
                    .collect()
            });
            for (shard_id, res) in produced {
                slots[shard_id] = Some(res);
            }
        }

        // Surface the first error in shard order (deterministic too).
        let mut losses = Vec::with_capacity(shards.len());
        let mut ces = Vec::with_capacity(shards.len());
        let mut kls = Vec::with_capacity(shards.len());
        let mut beta = 0.0f32;
        let mut parts = Vec::with_capacity(shards.len());
        for (shard_id, slot) in slots.into_iter().enumerate() {
            let (loss, stats, grads) = slot.expect("every shard produces a result")?;
            losses.push(loss);
            ces.push(stats.ce);
            kls.push(stats.kl);
            if shard_id == 0 {
                beta = stats.beta;
            }
            parts.push(grads);
        }
        let stats = ShardStats { ce: tree_sum(&ces), kl: tree_sum(&kls), beta };
        Ok((tree_sum(&losses), stats, Gradients::tree_reduce(parts)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use vsan_tensor::{init, Tensor};

    /// A small nonlinear loss over a shared parameter, with RNG-driven
    /// noise, so thread-count bugs would show up in both value and grads.
    fn noisy_loss(
        g: &mut Graph,
        shard: &[f32],
        rng: &mut StdRng,
    ) -> vsan_autograd::Result<Var> {
        let w = g.param(Tensor::from_vec(vec![0.5, -0.25], &[1, 2])?, 0);
        let noise = init::randn(rng, &[1, 2], 0.0, 0.1);
        let n = g.constant(noise);
        let x = g.add(w, n)?;
        let x = g.mul(x, x)?;
        let s = g.sum_all(x);
        let bias: f32 = shard.iter().sum::<f32>() / shard.len() as f32;
        Ok(g.affine(s, 1.0, bias))
    }

    fn run_with(threads: usize, shard_size: usize) -> (f32, Vec<f32>) {
        let items: Vec<f32> = (0..37).map(|i| (i as f32 * 0.3).sin()).collect();
        let dp = DataParallel::new(threads).with_shard_size(shard_size);
        let (loss, grads) = dp.run(&items, 99, noisy_loss).unwrap();
        (loss, grads.param_grad(0).unwrap().data().to_vec())
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let baseline = run_with(1, 4);
        for threads in [2, 3, 5, 8, 64] {
            let got = run_with(threads, 4);
            assert_eq!(got.0.to_bits(), baseline.0.to_bits(), "loss, threads={threads}");
            let same = got
                .1
                .iter()
                .zip(&baseline.1)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "grads diverged at threads={threads}");
        }
    }

    #[test]
    fn kernel_tiers_are_bit_identical_through_the_executor() {
        // An attention-bearing loss (so the tier dispatch actually changes
        // which kernels run) must reduce to the same bits on both tiers,
        // across serial and threaded execution.
        let items: Vec<f32> = (0..21).map(|i| (i as f32 * 0.41).cos()).collect();
        let attn_loss = |g: &mut Graph,
                         shard: &[f32],
                         rng: &mut StdRng|
         -> vsan_autograd::Result<Var> {
            let q = g.param(init::randn(rng, &[5, 4], 0.0, 0.5), 0);
            let k = g.param(init::randn(rng, &[5, 4], 0.0, 0.5), 1);
            let v = g.param(init::randn(rng, &[5, 4], 0.0, 0.5), 2);
            let attn = g.causal_attention(q, k, v, 0.5)?;
            let sq = g.mul(attn, attn)?;
            let s = g.sum_all(sq);
            let bias: f32 = shard.iter().sum::<f32>() / shard.len() as f32;
            Ok(g.affine(s, 1.0, bias))
        };
        let run = |threads: usize, tier: KernelTier| {
            let dp = DataParallel::new(threads).with_shard_size(4).with_kernel_tier(tier);
            let (loss, grads) = dp.run(&items, 17, attn_loss).unwrap();
            (loss, grads)
        };
        let (base_loss, base_grads) = run(1, KernelTier::Reference);
        for threads in [1, 4] {
            for tier in [KernelTier::Reference, KernelTier::Fast] {
                let (loss, grads) = run(threads, tier);
                assert_eq!(
                    loss.to_bits(),
                    base_loss.to_bits(),
                    "loss diverged: threads={threads} tier={}",
                    tier.name()
                );
                for key in 0..3 {
                    let a = base_grads.param_grad(key).unwrap();
                    let b = grads.param_grad(key).unwrap();
                    let same =
                        a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits());
                    assert!(same, "grad {key} diverged: threads={threads} tier={}", tier.name());
                }
            }
        }
    }

    /// An attention-bearing loss with RNG noise whose tape grows with the
    /// shard (one node per item), so a short tail shard records a shorter
    /// tape than a full one.
    fn attn_loss(
        g: &mut Graph,
        shard: &[f32],
        rng: &mut StdRng,
    ) -> vsan_autograd::Result<(Var, ShardStats)> {
        let q = g.param(init::randn(rng, &[5, 4], 0.0, 0.5), 0);
        let k = g.param(init::randn(rng, &[5, 4], 0.0, 0.5), 1);
        let v = g.param(init::randn(rng, &[5, 4], 0.0, 0.5), 2);
        let attn = g.causal_attention(q, k, v, 0.5)?;
        let act = g.tanh(attn);
        let sq = g.mul(act, act)?;
        let mut loss = g.sum_all(sq);
        for &item in shard {
            loss = g.affine(loss, 1.0, item / shard.len() as f32);
        }
        let ce = g.value(loss).data()[0];
        Ok((loss, ShardStats { ce, kl: 0.5 * ce, beta: 0.25 }))
    }

    #[test]
    fn a_reused_executor_matches_fresh_ones_and_recovers_from_a_failed_shard() {
        // 21 items in shards of 4: five full shards and a one-item tail.
        let items: Vec<f32> = (0..21).map(|i| (i as f32 * 0.41).cos()).collect();
        let observe = |dp: &DataParallel, step: u64| {
            let (loss, stats, grads) =
                dp.run_observed(&items, batch_seed(33, step), attn_loss).unwrap();
            let grads: Vec<Vec<u32>> = (0..3)
                .map(|k| grads.param_grad(k).unwrap().data().iter().map(|v| v.to_bits()).collect())
                .collect();
            (loss.to_bits(), stats.ce.to_bits(), stats.kl.to_bits(), stats.beta, grads)
        };
        for tier in [KernelTier::Reference, KernelTier::Fast] {
            // A full shard's tape, plus the executor's one weighting node.
            let mut full = Graph::with_threads_and_tier(1, tier);
            attn_loss(&mut full, &items[..4], &mut StdRng::seed_from_u64(0)).unwrap();
            let longest = full.len() + 1;
            for threads in [1, 2, 4] {
                let case = format!("threads={threads} tier={}", tier.name());
                let fresh =
                    || DataParallel::new(threads).with_shard_size(4).with_kernel_tier(tier);
                let reused = fresh();
                assert_eq!(reused.peak_tape_nodes(), 0, "{case}");
                for step in 0..3 {
                    assert_eq!(observe(&reused, step), observe(&fresh(), step), "{case} step={step}");
                }
                assert_eq!(reused.peak_tape_nodes(), longest, "{case}");
                // Shard 2 fails to build: the run errors, and nothing of it
                // is left behind to change the next run on this executor.
                let err = reused
                    .run_observed(&items, batch_seed(33, 3), |g, shard, rng| {
                        if shard[0] == items[8] {
                            return Err(vsan_autograd::GradError::BadTargets("injected"));
                        }
                        attn_loss(g, shard, rng)
                    })
                    .unwrap_err();
                assert!(err.starts_with("shard 2:"), "{case}: {err}");
                assert_eq!(observe(&reused, 3), observe(&fresh(), 3), "{case} after the error");
                assert_eq!(reused.peak_tape_nodes(), longest, "{case}");
            }
        }
    }

    #[test]
    fn shard_size_changes_the_reduction_tree() {
        // Different shard size ⇒ different RNG streams and tree ⇒ the
        // result is allowed (and expected) to differ. Guard against a
        // future "optimization" quietly making shard size thread-derived.
        let a = run_with(1, 4);
        let b = run_with(1, 8);
        assert_ne!(a.0.to_bits(), b.0.to_bits());
    }

    #[test]
    fn empty_batch_is_identity() {
        let dp = DataParallel::new(4);
        let (loss, grads) = dp.run(&[] as &[f32], 1, noisy_loss).unwrap();
        assert_eq!(loss, 0.0);
        assert!(grads.is_empty());
    }

    #[test]
    fn shard_errors_surface_in_shard_order() {
        let items: Vec<usize> = (0..32).collect();
        let dp = DataParallel::new(4).with_shard_size(8);
        let err = dp
            .run(&items, 0, |g, shard, _| {
                if shard[0] >= 8 {
                    // Non-scalar loss → backward error; shards 1..4 all fail.
                    Ok(g.param(Tensor::ones(&[2, 2]), 0))
                } else {
                    let w = g.param(Tensor::ones(&[1, 1]), 0);
                    Ok(g.sum_all(w))
                }
            })
            .unwrap_err();
        assert!(err.starts_with("shard 1:"), "got {err}");
    }

    #[test]
    fn tree_sum_matches_manual_tree() {
        assert_eq!(tree_sum(&[]), 0.0);
        assert_eq!(tree_sum(&[1.5]), 1.5);
        let v = [0.1f32, 0.7, -0.3, 2.0, 5.0];
        // n=5 → ((v0+v1)+v2) + (v3+v4) with left-heavy mid=3 split:
        let expected = ((v[0] + v[1]) + v[2]) + (v[3] + v[4]);
        assert_eq!(tree_sum(&v).to_bits(), expected.to_bits());
    }

    #[test]
    fn seed_derivation_is_stable_and_spread() {
        // Fixed values: these are part of the determinism contract — a
        // change here silently invalidates every recorded training run.
        assert_eq!(batch_seed(42, 0), batch_seed(42, 0));
        assert_ne!(batch_seed(42, 0), batch_seed(42, 1));
        assert_ne!(batch_seed(42, 0), batch_seed(43, 0));
        assert_ne!(shard_seed(7, 0), shard_seed(7, 1));
        // Streams from adjacent shards must not collide early.
        let mut a = StdRng::seed_from_u64(shard_seed(7, 0));
        let mut b = StdRng::seed_from_u64(shard_seed(7, 1));
        let va: Vec<f32> = (0..8).map(|_| a.gen::<f32>()).collect();
        let vb: Vec<f32> = (0..8).map(|_| b.gen::<f32>()).collect();
        assert_ne!(va, vb);
    }
}
