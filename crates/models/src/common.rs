//! Shared configuration and batch-assembly utilities for the neural
//! baselines (GRU4Rec, Caser, SVAE, SASRec) and for `vsan-core`'s VSAN.

use vsan_data::sequence::{next_item_example, SeqExample};
use vsan_data::Dataset;
use vsan_obs::{EpochRecord, ObserverHandle, TrainRunInfo};

/// Hyper-parameters shared by every neural sequence model in the
/// workspace. Paper defaults (§V-D) are in [`NeuralConfig::paper`]; the
/// scaled-down repro defaults in [`NeuralConfig::repro`].
#[derive(Debug, Clone)]
pub struct NeuralConfig {
    /// Embedding / model width `d`.
    pub dim: usize,
    /// Maximum sequence length `n`.
    pub max_seq_len: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size (users per step).
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Dropout rate.
    pub dropout: f32,
    /// Global-norm gradient clip (0 disables).
    pub grad_clip: f32,
    /// RNG seed for init, shuffling, dropout, and sampling.
    pub seed: u64,
    /// Worker threads for large matmuls.
    pub threads: usize,
    /// Kernel tier for training graphs: `Fast` in every preset. Tests
    /// name `Reference` (via [`Self::with_kernel_tier`]) to train on the
    /// oracle; both tiers train bit-identical parameters (DESIGN.md §10).
    pub kernel_tier: vsan_tensor::KernelTier,
    /// Optional training-telemetry receiver. Observers see copies of
    /// values the loop computed anyway, so attaching one never changes
    /// the trained bits (DESIGN.md §8).
    pub observer: ObserverHandle,
}

impl NeuralConfig {
    /// Paper-scale configuration for a dataset name (§V-D): d = 200,
    /// n = 50 (Beauty) / 200 (ML-1M), dropout 0.5 / 0.2, Adam 1e-3,
    /// batch 128.
    pub fn paper(dataset: &str) -> Self {
        let beauty_like = dataset.to_ascii_lowercase().contains("beauty");
        NeuralConfig {
            dim: 200,
            max_seq_len: if beauty_like { 50 } else { 200 },
            epochs: 200,
            batch_size: 128,
            lr: 1e-3,
            dropout: if beauty_like { 0.5 } else { 0.2 },
            grad_clip: 5.0,
            seed: 42,
            threads: vsan_tensor::parallel::default_threads(),
            kernel_tier: vsan_tensor::KernelTier::Fast,
            observer: ObserverHandle::none(),
        }
    }

    /// CPU-friendly repro scale: same shape, smaller knobs. See DESIGN.md
    /// §2 on the scale substitution.
    pub fn repro(dataset: &str) -> Self {
        let beauty_like = dataset.to_ascii_lowercase().contains("beauty");
        NeuralConfig {
            dim: 48,
            max_seq_len: if beauty_like { 30 } else { 50 },
            epochs: 48,
            batch_size: 64,
            lr: 3e-3,
            dropout: if beauty_like { 0.5 } else { 0.2 },
            grad_clip: 5.0,
            seed: 42,
            threads: vsan_tensor::parallel::default_threads(),
            kernel_tier: vsan_tensor::KernelTier::Fast,
            observer: ObserverHandle::none(),
        }
    }

    /// Tiny smoke-test configuration for unit tests and CI.
    pub fn smoke() -> Self {
        NeuralConfig {
            dim: 16,
            max_seq_len: 8,
            epochs: 3,
            batch_size: 16,
            lr: 3e-3,
            dropout: 0.1,
            grad_clip: 5.0,
            seed: 7,
            threads: 1,
            kernel_tier: vsan_tensor::KernelTier::Fast,
            observer: ObserverHandle::none(),
        }
    }

    /// Builder-style seed override (for multi-seed experiment loops).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style dim override (Fig. 4 sweep).
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.dim = dim;
        self
    }

    /// Builder-style dropout override (Fig. 5 sweep).
    pub fn with_dropout(mut self, dropout: f32) -> Self {
        self.dropout = dropout;
        self
    }

    /// Builder-style epoch override.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Builder-style worker-thread override for the data-parallel trainer
    /// (`1` runs the shard schedule inline; any value yields the same bits).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builder-style observer attachment (telemetry only — the trained
    /// parameters are bit-identical with or without one).
    pub fn with_observer(mut self, observer: ObserverHandle) -> Self {
        self.observer = observer;
        self
    }

    /// Builder-style kernel-tier override; trained bits are identical
    /// either way.
    pub fn with_kernel_tier(mut self, tier: vsan_tensor::KernelTier) -> Self {
        self.kernel_tier = tier;
        self
    }
}

/// Run the shared Adam training loop over a model's training examples
/// (next-item [`SeqExample`]s or next-`k` ones, whatever `build_loss`
/// reads).
///
/// `build_loss` constructs the scalar *mean* loss for one shard of a
/// mini-batch on a fresh graph (receiving the epoch-global step for
/// schedules such as KL annealing) together with the shard's
/// [`vsan_nn::ShardStats`] loss decomposition (CE, KL, β — models
/// without a latent path report [`vsan_nn::ShardStats::ce_only`]);
/// `post_step` runs after each optimizer step (used to re-zero embedding
/// padding rows). Returns per-epoch mean losses.
///
/// Batches are executed by the deterministic data-parallel executor
/// ([`vsan_nn::DataParallel`]): each batch is split into fixed-size shards,
/// `build_loss` runs once per shard on its own graph with a private RNG
/// stream derived from `(cfg.seed, step, shard)`, and shard gradients are
/// reduced in a fixed-order pairwise tree. The trained parameters are
/// therefore **bit-identical for every `cfg.threads` value** — `threads = 1`
/// runs the same shard schedule inline. `build_loss` must be `Fn + Sync`
/// (pure in the store and shard; all randomness through the supplied RNG).
///
/// The loop carries a NaN tripwire: if any parameter goes non-finite the
/// loop aborts with an error string instead of silently training garbage.
///
/// When `cfg.observer` is attached the loop additionally emits one
/// [`TrainRunInfo`] header, one [`EpochRecord`] per epoch (mean loss with
/// its CE/KL split, the β of the epoch's last step, mean pre-/post-clip
/// gradient global norms, shard count, and wall-clock), and a final
/// run-end callback. All observed quantities are read-only copies; the
/// update path is identical whether or not an observer is attached.
pub fn train_epochs<E, F, P>(
    cfg: &NeuralConfig,
    store: &mut vsan_nn::ParamStore,
    examples: &[E],
    build_loss: F,
    mut post_step: P,
) -> Result<Vec<f32>, String>
where
    E: Sync,
    F: Fn(
            &mut vsan_autograd::Graph,
            &vsan_nn::ParamStore,
            &[&E],
            &mut rand::rngs::StdRng,
            u64,
        ) -> vsan_autograd::Result<(vsan_autograd::Var, vsan_nn::ShardStats)>
        + Sync,
    P: FnMut(&mut vsan_nn::ParamStore),
{
    use rand::SeedableRng;
    use vsan_nn::data_parallel::batch_seed;
    use vsan_nn::Optimizer;

    let observer = cfg.observer.clone();
    observer.on_train_start(&TrainRunInfo {
        seed: cfg.seed,
        threads: cfg.threads.max(1),
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        lr: cfg.lr,
        dim: cfg.dim,
        max_seq_len: cfg.max_seq_len,
        dropout: cfg.dropout,
        grad_clip: cfg.grad_clip,
        examples: examples.len(),
    });

    // The driver RNG only shuffles epochs now; per-shard randomness comes
    // from seeds derived per (step, shard), so it is thread-count-invariant.
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let mut opt = vsan_nn::Adam::new(cfg.lr);
    let executor = vsan_nn::DataParallel::new(cfg.threads).with_kernel_tier(cfg.kernel_tier);
    let mut losses = Vec::with_capacity(cfg.epochs);
    let mut step: u64 = 0;
    let indices: Vec<usize> = (0..examples.len()).collect();
    for epoch in 0..cfg.epochs {
        let epoch_start = std::time::Instant::now();
        let batches = vsan_data::batch::epoch_batches(&indices, cfg.batch_size, &mut rng);
        let mut epoch_loss = 0.0f64;
        let mut epoch_ce = 0.0f64;
        let mut epoch_kl = 0.0f64;
        let mut last_beta = 0.0f32;
        let mut norm_pre = 0.0f64;
        let mut norm_post = 0.0f64;
        let mut epoch_shards = 0usize;
        let mut batch_count = 0usize;
        for batch in batches {
            let refs: Vec<&E> = batch.iter().map(|&i| &examples[i]).collect();
            let (loss_val, stats, mut grads) = {
                let shared: &vsan_nn::ParamStore = store;
                executor
                    .run_observed(&refs, batch_seed(cfg.seed, step), |g, shard, shard_rng| {
                        build_loss(g, shared, shard, shard_rng, step)
                    })
                    .map_err(|e| format!("epoch {epoch} step {step}: {e}"))?
            };
            if !loss_val.is_finite() {
                return Err(format!("epoch {epoch} step {step}: non-finite loss {loss_val}"));
            }
            epoch_loss += loss_val as f64;
            epoch_ce += stats.ce as f64;
            epoch_kl += stats.kl as f64;
            last_beta = stats.beta;
            epoch_shards += refs.len().div_ceil(vsan_nn::data_parallel::DEFAULT_SHARD_SIZE);
            batch_count += 1;
            if observer.is_attached() {
                // Telemetry-only extra pass; the norm is not fed back.
                norm_pre += f64::from(grads.global_norm());
            }
            if cfg.grad_clip > 0.0 {
                grads.clip_global_norm(cfg.grad_clip);
            }
            if observer.is_attached() {
                norm_post += f64::from(grads.global_norm());
            }
            opt.step(store, &grads);
            post_step(store);
            step += 1;
        }
        if !store.all_finite() {
            return Err(format!("epoch {epoch}: parameters went non-finite"));
        }
        let denom = batch_count.max(1) as f64;
        let mean_loss = if batch_count > 0 { (epoch_loss / denom) as f32 } else { 0.0 };
        losses.push(mean_loss);
        if observer.is_attached() {
            observer.on_epoch(&EpochRecord {
                epoch,
                loss: mean_loss,
                ce: (epoch_ce / denom) as f32,
                kl: (epoch_kl / denom) as f32,
                beta: last_beta,
                grad_norm_pre: (norm_pre / denom) as f32,
                grad_norm_post: (norm_post / denom) as f32,
                shards: epoch_shards,
                steps: step,
                wall_ms: epoch_start.elapsed().as_secs_f64() * 1e3,
                peak_tape_nodes: executor.peak_tape_nodes(),
                ..EpochRecord::default()
            });
        }
    }
    observer.on_train_end(cfg.epochs);
    Ok(losses)
}

/// Build next-item training examples for a set of users (users too short
/// to produce an example are skipped).
pub fn examples_for_users(ds: &Dataset, users: &[usize], n: usize) -> Vec<SeqExample> {
    users
        .iter()
        .filter_map(|&u| next_item_example(&ds.sequences[u], n))
        .collect()
}

/// Flatten a batch of examples into `(input ids, targets)` suitable for an
/// embedding gather over a `(batch·n)` index list and a fused CE loss.
pub fn flatten_batch(examples: &[&SeqExample]) -> (Vec<usize>, Vec<usize>) {
    let n = examples.first().map_or(0, |e| e.input.len());
    let mut inputs = Vec::with_capacity(examples.len() * n);
    let mut targets = Vec::with_capacity(examples.len() * n);
    for ex in examples {
        debug_assert_eq!(ex.input.len(), n, "ragged batch");
        inputs.extend(ex.input.iter().map(|&i| i as usize));
        targets.extend_from_slice(&ex.targets);
    }
    (inputs, targets)
}

/// The rows of a flattened batch that carry a target: their ascending
/// indices, and their targets in that order. `has_target` is the loss's
/// own masking rule — `|&t| t != usize::MAX` for `ce_one_hot`,
/// `|t| !t.is_empty()` for `ce_multi_hot`.
///
/// A training closure gathers these rows out of its `(rows, d)` hidden
/// states and runs only them through the N-wide head and the loss, so a
/// left-padded batch pays for the head's forward and both of its backward
/// products on the rows Eqs. 18–20 sum over and on no other — with the
/// bits of the all-rows head (DESIGN.md §10 has the argument;
/// `crates/models/tests/head_compaction.rs` holds it).
///
/// A batch in which no row has a target yields two empty lists, and the
/// `(0, d)` gather → head → cross-entropy chain built on them is defined:
/// the loss is `0.0` (the cross-entropy's row count is floored at one, as
/// it is for the all-rows head) and every parameter gradient is all-zero.
pub fn active_rows<T>(targets: Vec<T>, has_target: impl Fn(&T) -> bool) -> (Vec<usize>, Vec<T>) {
    targets.into_iter().enumerate().filter(|(_, t)| has_target(t)).unzip()
}

/// Position indices `0..n` repeated per example — the lookup list for the
/// learned positional embedding.
pub fn position_indices(batch: usize, n: usize) -> Vec<usize> {
    (0..batch).flat_map(|_| 0..n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> Dataset {
        Dataset {
            name: "t".into(),
            num_items: 9,
            sequences: vec![vec![1, 2, 3, 4], vec![5], vec![6, 7, 8]],
        }
    }

    #[test]
    fn paper_config_tracks_dataset() {
        let b = NeuralConfig::paper("Beauty-sim");
        assert_eq!((b.dim, b.max_seq_len, b.dropout), (200, 50, 0.5));
        let m = NeuralConfig::paper("ML-1M-sim");
        assert_eq!((m.max_seq_len, m.dropout), (200, 0.2));
        assert_eq!(m.lr, 1e-3);
        assert_eq!(m.batch_size, 128);
    }

    #[test]
    fn builders_override_fields() {
        let c = NeuralConfig::smoke().with_seed(9).with_dim(32).with_dropout(0.7).with_epochs(1);
        assert_eq!(c.seed, 9);
        assert_eq!(c.dim, 32);
        assert_eq!(c.dropout, 0.7);
        assert_eq!(c.epochs, 1);
    }

    #[test]
    fn examples_skip_short_users() {
        let ds = tiny_dataset();
        let ex = examples_for_users(&ds, &[0, 1, 2], 4);
        assert_eq!(ex.len(), 2); // user 1 has a single interaction
    }

    #[test]
    fn flatten_concatenates_in_order() {
        let ds = tiny_dataset();
        let ex = examples_for_users(&ds, &[0, 2], 3);
        let refs: Vec<&_> = ex.iter().collect();
        let (inputs, targets) = flatten_batch(&refs);
        assert_eq!(inputs.len(), 6);
        assert_eq!(targets.len(), 6);
        // User 0 history 1,2,3,4 → inputs (1,2,3), targets (2,3,4).
        assert_eq!(&inputs[..3], &[1, 2, 3]);
        assert_eq!(&targets[..3], &[2, 3, 4]);
        // User 2 history 6,7,8 → inputs (0,6,7), targets (MAX,7,8).
        assert_eq!(&inputs[3..], &[0, 6, 7]);
        assert_eq!(targets[3], usize::MAX);
        assert_eq!(&targets[4..], &[7, 8]);
    }

    #[test]
    fn active_rows_keep_order_under_either_masking_rule() {
        let one_hot = vec![usize::MAX, 7, usize::MAX, 3, 0];
        assert_eq!(active_rows(one_hot, |&t| t != usize::MAX), (vec![1, 3, 4], vec![7, 3, 0]));
        let multi_hot = vec![vec![], vec![2, 5], vec![], vec![1]];
        assert_eq!(
            active_rows(multi_hot, |t| !t.is_empty()),
            (vec![1, 3], vec![vec![2, 5], vec![1]])
        );
        // No padding: every row; no target anywhere: none.
        assert_eq!(active_rows(vec![4, 2], |&t| t != usize::MAX), (vec![0, 1], vec![4, 2]));
        assert_eq!(active_rows(vec![usize::MAX; 3], |&t| t != usize::MAX), (vec![], vec![]));
    }

    #[test]
    fn positions_repeat_per_sample() {
        assert_eq!(position_indices(2, 3), vec![0, 1, 2, 0, 1, 2]);
        assert!(position_indices(0, 5).is_empty());
    }
}
