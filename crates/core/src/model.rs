//! The trainable VSAN network.

use crate::config::VsanConfig;
use crate::infer::{self, InferencePlan, Workspace};
use crate::retrieval::{self, ItemIndex, Retrieval};
use crate::uncertainty::PosteriorStats;
use vsan_data::sequence::{next_k_example, pad_left, SeqExampleK};
use vsan_data::Dataset;
use vsan_eval::Scorer;
use vsan_models::common::{active_rows, train_epochs};
use vsan_models::Recommender;
use vsan_nn::{Dropout, Embedding, Linear, ParamStore, SelfAttentionBlock, Windows};

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vsan_autograd::{Graph, Result as AgResult, Var};
use vsan_tensor::{init, Tensor};

/// The Variational Self-Attention Network (Fig. 2).
pub struct Vsan {
    store: ParamStore,
    item_emb: Embedding,
    pos_emb: Embedding,
    /// Inference self-attention blocks (`h₁` of them).
    infer_blocks: Vec<SelfAttentionBlock>,
    /// Variational heads (Eq. 12; log-variance parameterization).
    mu_head: Linear,
    logvar_head: Linear,
    /// Generative self-attention blocks (`h₂` of them).
    gene_blocks: Vec<SelfAttentionBlock>,
    /// Prediction layer `W_g, b_g` (Eq. 19) — a separate output matrix,
    /// not weight-tied, exactly as the paper writes it.
    prediction: Linear,
    /// Pre-resolved graph-free eval schedule (see [`crate::infer`]).
    plan: InferencePlan,
    /// How `try_recommend_batch` retrieves top-k (see [`crate::retrieval`]).
    retrieval: Retrieval,
    /// The clustered index, built by [`Self::rebuild_retrieval_index`].
    index: Option<ItemIndex>,
    /// [`Self::pad_session_state`], computed on first use and dropped by
    /// [`Self::params_mut`]: derived data over the parameters.
    pad_state: OnceLock<crate::SessionState>,
    cfg: VsanConfig,
    vocab: usize,
    /// Mean training loss (CE + β·KL) per epoch.
    pub train_losses: Vec<f32>,
}

impl Vsan {
    /// Build and train VSAN on the training users' sequences.
    pub fn train(ds: &Dataset, train_users: &[usize], cfg: &VsanConfig) -> Result<Self, String> {
        let mut model = Self::init(ds.vocab(), cfg);
        let n = cfg.base.max_seq_len;
        let examples: Vec<SeqExampleK> = train_users
            .iter()
            .filter_map(|&u| next_k_example(&ds.sequences[u], n, cfg.next_k))
            .collect();
        if examples.is_empty() {
            return Ok(model);
        }

        // The store trains on its own while the model lends its layers.
        let mut store = std::mem::replace(&mut model.store, ParamStore::new());
        let net = &model;
        let losses = train_epochs(
            &cfg.base,
            &mut store,
            &examples,
            |g, store, batch, rng, step| net.shard_loss(g, store, ShardRows::new(batch, n), rng, step),
            |store| net.item_emb.zero_padding(store),
        );
        model.store = store;
        model.train_losses = losses?;
        Ok(model)
    }

    /// One training shard's loss (CE + β·KL) and its parts, over `store`.
    fn shard_loss(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        mut shard: ShardRows,
        rng: &mut StdRng,
        step: u64,
    ) -> AgResult<(Var, vsan_nn::ShardStats)> {
        let cfg = &self.cfg;
        let pass = &mut Pass { g, store, rng, train: true };
        let kl_mask: Vec<bool> = shard.targets.iter().map(|t| !t.is_empty()).collect();
        // The loss sums over the rows that have a target and no other.
        let (active, targets) = active_rows(std::mem::take(&mut shard.targets), |t| !t.is_empty());
        let (table, mu, logvar) = self.encode(pass, &shard)?;
        let (z, kl) = match logvar {
            Some(logvar) => {
                let eps = init::randn(pass.rng, &[shard.inputs.len(), cfg.base.dim], 0.0, 1.0);
                let z = reparameterize(pass.g, mu, logvar, eps)?;
                (z, Some(pass.g.kl_std_normal(mu, logvar, &kl_mask)?))
            }
            None => (mu, None),
        };
        let logits = self.decode(pass, &shard, table, z, &active)?;
        let g = &mut *pass.g;
        let ce = g.ce_multi_hot(logits, &targets)?;
        let ce_val = g.value(ce).data()[0];
        Ok(match kl {
            Some(kl) => {
                let beta = cfg.beta.beta(step);
                let weighted = g.scale(kl, beta);
                let stats = vsan_nn::ShardStats { ce: ce_val, kl: g.value(kl).data()[0], beta };
                (g.add(ce, weighted)?, stats)
            }
            None => (ce, vsan_nn::ShardStats::ce_only(ce_val)),
        })
    }

    /// The inference network (Eqs. 4–12) over `rows`: the item table (the
    /// tied prediction head reads it) and every row's posterior mean and
    /// log-variance — for VSAN-z, which has no latent layer (Table V),
    /// the h₁ output and no variance.
    fn encode(&self, pass: &mut Pass, rows: &ShardRows) -> AgResult<(Var, Var, Option<Var>)> {
        let (g, store, rng, train) = (&mut *pass.g, pass.store, &mut *pass.rng, pass.train);
        let dropout = Dropout::new(self.cfg.base.dropout);
        let table = store.var(g, self.item_emb.table);
        let items = g.gather_rows(table, &rows.inputs)?;
        let pos = self.pos_emb.lookup(g, store, &rows.positions)?;
        let mut h = g.add(items, pos)?;
        h = dropout.forward(g, rng, h, train)?;
        for block in &self.infer_blocks {
            h = block.forward(g, store, h, rows.windows(), &dropout, rng, train)?;
        }
        if !self.cfg.use_latent {
            return Ok((table, h, None));
        }
        let mu = self.mu_head.forward(g, store, h)?;
        let logvar = self.logvar_head.forward(g, store, h)?;
        Ok((table, mu, Some(logvar)))
    }

    /// The generative network (Eqs. 15–19): the h₂ blocks over the latent
    /// rows `z`, then the prediction head on the `readout` rows only. Tied
    /// mode scores against the item embedding (extension flag, see config).
    fn decode(
        &self,
        pass: &mut Pass,
        rows: &ShardRows,
        table: Var,
        z: Var,
        readout: &[usize],
    ) -> AgResult<Var> {
        let (g, store, rng, train) = (&mut *pass.g, pass.store, &mut *pass.rng, pass.train);
        let dropout = Dropout::new(self.cfg.base.dropout);
        let mut gz = z;
        for block in &self.gene_blocks {
            gz = block.forward(g, store, gz, rows.windows(), &dropout, rng, train)?;
        }
        let gz = g.gather_rows(gz, readout)?;
        if self.cfg.tie_prediction {
            g.matmul_a_bt(gz, table)
        } else {
            self.prediction.forward(g, store, gz)
        }
    }

    /// The training forward in evaluation mode (§IV-E) over `fold_ins`'
    /// padded windows: a fresh reference-tier tape, dropout off. `run`
    /// chooses the latent and the readout rows. An out-of-vocabulary id
    /// in a window is the plan's error.
    fn eval_forward<T>(
        &self,
        fold_ins: &[&[u32]],
        run: impl FnOnce(&mut Pass, &ShardRows) -> AgResult<T>,
    ) -> Result<T, String> {
        let rows = ShardRows::padded(fold_ins, self.cfg.base.max_seq_len);
        if let Some(&bad) = rows.inputs.iter().find(|&&i| i >= self.vocab) {
            return Err(format!("item id {bad} out of vocabulary ({})", self.vocab));
        }
        let mut g = Graph::with_threads(self.cfg.base.threads);
        let mut rng = StdRng::seed_from_u64(0);
        run(&mut Pass { g: &mut g, store: &self.store, rng: &mut rng, train: false }, &rows)
            .map_err(|e| e.to_string())
    }

    /// Initialize an untrained model (exposed for checkpoint loading).
    pub fn init(vocab: usize, cfg: &VsanConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.base.seed);
        let d = cfg.base.dim;
        let item_emb = Embedding::new(&mut store, &mut rng, "item_emb", vocab, d, true);
        let pos_emb = Embedding::new(&mut store, &mut rng, "pos_emb", cfg.base.max_seq_len, d, false);
        let infer_blocks: Vec<SelfAttentionBlock> = (0..cfg.h1)
            .map(|i| SelfAttentionBlock::new(&mut store, &mut rng, &format!("infer{i}"), d, cfg.infer_ffn))
            .collect();
        let mu_head = Linear::new(&mut store, &mut rng, "mu_head", d, d, true);
        let logvar_head = Linear::new(&mut store, &mut rng, "logvar_head", d, d, true);
        // Start the posterior nearly deterministic (σ ≈ e⁻² ≈ 0.14): with
        // Xavier init the head outputs log σ² ≈ 0, i.e. unit-variance noise
        // that drowns the reparameterized signal before the decoder can
        // learn anything — the encoder then collapses to the prior and the
        // reconstruction loss never moves. Zero weights + a −4 bias give
        // the μ path a clean channel first; KL and the data then negotiate
        // σ upward. (Documented in DESIGN.md; the paper's Eq. 12 does not
        // specify the head initialization.)
        store.get_mut(logvar_head.w).fill(0.0);
        if let Some(b) = logvar_head.b {
            store.get_mut(b).fill(-4.0);
        }
        let gene_blocks: Vec<SelfAttentionBlock> = (0..cfg.h2)
            .map(|i| SelfAttentionBlock::new(&mut store, &mut rng, &format!("gene{i}"), d, cfg.gene_ffn))
            .collect();
        let prediction = Linear::new(&mut store, &mut rng, "prediction", d, vocab, true);
        let plan = InferencePlan::new(
            item_emb.table,
            pos_emb.table,
            &infer_blocks,
            &mu_head,
            &gene_blocks,
            &prediction,
            cfg,
            vocab,
        );
        Vsan {
            store,
            item_emb,
            pos_emb,
            infer_blocks,
            mu_head,
            logvar_head,
            gene_blocks,
            prediction,
            plan,
            retrieval: Retrieval::Exact,
            index: None,
            pad_state: OnceLock::new(),
            cfg: cfg.clone(),
            vocab,
            train_losses: Vec::new(),
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &VsanConfig {
        &self.cfg
    }

    /// Vocabulary size: the real items plus the padding id 0. An item id
    /// at or above it is what every scoring path rejects as out of
    /// vocabulary.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Total trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.store.num_scalars()
    }

    /// Borrow the parameter store (checkpointing).
    pub fn params(&self) -> &ParamStore {
        &self.store
    }

    /// Mutably borrow the parameter store (checkpoint restore).
    pub fn params_mut(&mut self) -> &mut ParamStore {
        self.pad_state = OnceLock::new();
        &mut self.store
    }

    /// Convenience: top-`n` recommendations for a history, excluding the
    /// already-seen items (the evaluation protocol's view, packaged for
    /// application code).
    ///
    /// Ranks with heap-based partial selection directly over the raw
    /// prediction logits: Eq. 19's softmax is rank-monotonic, so skipping
    /// it changes nothing about the ordering while avoiding a full-vocab
    /// exp/normalize per request (verified against the softmax-and-sort
    /// reference in the tests below).
    ///
    /// [`Self::try_recommend_batch`] for one history: it honours
    /// [`Self::set_retrieval`] and returns the same errors (an
    /// out-of-vocabulary id in the window).
    pub fn recommend(&self, history: &[u32], n: usize) -> Result<Vec<u32>, String> {
        Ok(self.try_recommend_batch(&[history], n)?.pop().unwrap_or_default())
    }

    /// Exact retrieval whatever the configured mode: full logits, then
    /// heap top-k — the oracle the clustered index is held to.
    pub fn recommend_batch_exact(&self, histories: &[&[u32]], n: usize) -> Result<Vec<Vec<u32>>, String> {
        use std::collections::HashSet;
        Ok(self
            .try_score_items_batch(histories)?
            .into_iter()
            .zip(histories)
            .map(|(scores, history)| {
                let seen: HashSet<u32> = history.iter().copied().collect();
                vsan_eval::top_n_excluding(&scores, n, &seen)
            })
            .collect())
    }

    /// Batched top-`n` recommendation: one evaluation forward for `b`
    /// histories, identical to [`Self::recommend`] per history (same
    /// kernels over the same rows, batched along the row axis). Surfaces
    /// internal errors and honours the configured [`Retrieval`] mode: with a clustered index
    /// built, the final hidden rows go through a two-stage index query per
    /// history (never the full `(b, d) × (d, N)` projection); without one,
    /// [`Self::recommend_batch_exact`]. Both reject the same
    /// out-of-vocabulary ids.
    pub fn try_recommend_batch(&self, histories: &[&[u32]], n: usize) -> Result<Vec<Vec<u32>>, String> {
        use std::collections::HashSet;
        let Some(index) = &self.index else {
            return self.recommend_batch_exact(histories, n);
        };
        let d = self.cfg.base.dim;
        let pad = self.pad_state();
        let hidden = infer::with_thread_workspace(|ws| -> Result<Vec<f32>, String> {
            let b = self.plan.execute_hidden(&self.store, histories, pad, ws)?;
            Ok(ws.last_rows(b, d).to_vec())
        })?;
        Ok(histories
            .iter()
            .enumerate()
            .map(|(i, history)| {
                let seen: HashSet<u32> = history.iter().copied().collect();
                index.query(&hidden[i * d..(i + 1) * d], n, &seen)
            })
            .collect())
    }

    /// Configure how [`Self::try_recommend_batch`] retrieves top-k and
    /// (re)build the clustered index if the mode needs one. Callers that
    /// restore a checkpoint afterwards must call
    /// [`Self::rebuild_retrieval_index`] — the index is derived data over
    /// the prediction parameters, not part of the checkpoint.
    pub fn set_retrieval(&mut self, retrieval: Retrieval) {
        self.retrieval = retrieval;
        self.rebuild_retrieval_index();
    }

    /// Rebuild the clustered index from the *current* parameter values
    /// (a no-op in [`Retrieval::Exact`] mode). Deterministic: the same
    /// parameters and config produce a bit-identical index.
    pub fn rebuild_retrieval_index(&mut self) {
        let d = self.cfg.base.dim;
        self.index = match &self.retrieval {
            Retrieval::Exact => None,
            Retrieval::Clustered(cfg) => Some(if self.cfg.tie_prediction {
                ItemIndex::from_tied(self.store.get(self.item_emb.table).data(), d, self.vocab, cfg)
            } else {
                let bias = self.prediction.b.expect("prediction layer is biased");
                ItemIndex::from_untied(
                    self.store.get(self.prediction.w).data(),
                    self.store.get(bias).data(),
                    d,
                    self.vocab,
                    cfg,
                )
            }),
        };
    }

    /// The configured retrieval mode.
    pub fn retrieval(&self) -> &Retrieval {
        &self.retrieval
    }

    /// The built clustered index, if any: `Some` exactly when
    /// [`Self::try_recommend_batch`] serves through it.
    pub fn retrieval_index(&self) -> Option<&ItemIndex> {
        self.index.as_ref()
    }

    /// Final hidden rows (one `(d,)` row per history, flat) through the
    /// fast path against a caller-owned workspace — what a serve worker
    /// feeds per-request index queries with.
    pub fn try_last_hidden_batch_with(
        &self,
        fold_ins: &[&[u32]],
        ws: &mut Workspace,
    ) -> Result<Vec<f32>, String> {
        let b = self.plan.execute_hidden(&self.store, fold_ins, self.pad_state(), ws)?;
        Ok(ws.last_rows(b, self.cfg.base.dim).to_vec())
    }

    /// Top-`k` via the clustered index for one precomputed hidden row
    /// (from [`Self::try_last_hidden_batch_with`]), excluding `history`,
    /// plus the per-query probe telemetry ([`retrieval::QueryStats`])
    /// the serving layer records. Errors if no index is built.
    pub fn recommend_from_hidden_stats(
        &self,
        hidden: &[f32],
        history: &[u32],
        k: usize,
    ) -> Result<(Vec<u32>, retrieval::QueryStats), String> {
        use std::collections::HashSet;
        let index = self.index.as_ref().ok_or("clustered retrieval index not built")?;
        let seen: HashSet<u32> = history.iter().copied().collect();
        Ok(index.query_with_probe_stats(hidden, k, &seen, 0))
    }

    /// Batched [`vsan_eval::Scorer::score_items`]: last-position logits
    /// for each history, one row per history, surfacing internal errors.
    ///
    /// Runs the graph-free plan ([`crate::infer`]) against a per-thread
    /// workspace. It is bit-identical to the graph oracle
    /// [`Self::score_items_batch_graph`] (the differential suite in
    /// `tests/fast_path.rs` and the golden fixture assert it).
    pub fn try_score_items_batch(&self, fold_ins: &[&[u32]]) -> Result<Vec<Vec<f32>>, String> {
        let pad = self.pad_state();
        infer::with_thread_workspace(|ws| self.plan.execute(&self.store, fold_ins, pad, ws))
    }

    /// [`Self::try_score_items_batch`] against a caller-owned
    /// [`Workspace`] — what a serve worker uses so its buffers persist
    /// across batches (zero steady-state allocation).
    pub fn try_score_items_batch_with(
        &self,
        fold_ins: &[&[u32]],
        ws: &mut Workspace,
    ) -> Result<Vec<Vec<f32>>, String> {
        self.plan.execute(&self.store, fold_ins, self.pad_state(), ws)
    }

    /// A reusable [`Workspace`] pre-sized for this model at `max_batch`
    /// fold-ins — what each `vsan-serve` worker holds so the fast path
    /// allocates nothing in steady state.
    pub fn workspace(&self, max_batch: usize) -> Workspace {
        Workspace::for_config(&self.cfg, self.vocab, max_batch)
    }

    /// The all-padding donor state: the prepared `(n-1)`-slot window of
    /// the *empty* history. Every pass that meets leading padding reads
    /// those rows from it instead of recomputing them (DESIGN.md §10–§11):
    /// [`Self::prepare_session_into`] takes it as `donor`, and full-window
    /// scoring uses the model's own copy.
    pub fn pad_session_state(&self) -> Result<crate::SessionState, String> {
        Ok(self.pad_state().clone())
    }

    /// The model's own all-padding state, prepared on first use. Must be
    /// taken *before* entering [`infer::with_thread_workspace`], which the
    /// prepare borrows itself.
    fn pad_state(&self) -> &crate::SessionState {
        self.pad_state.get_or_init(|| {
            let mut state = crate::SessionState::new();
            infer::with_thread_workspace(|ws| {
                self.plan.prepare_session(&self.store, &[], None, &mut state, ws)
            })
            .expect("the all-padding window holds only in-vocabulary item 0");
            state
        })
    }

    /// Prepare `state` so [`Self::append_session_logits`] can fold the
    /// *next* event onto `history` in O(n·d²). `donor` is normally the
    /// shared [`Self::pad_session_state`]; with it, the prepare computes
    /// only `min(len, n-1)` real rows. Without a donor the padding rows
    /// are computed from scratch (how the pad state itself is built).
    pub fn prepare_session_into(
        &self,
        history: &[u32],
        donor: Option<&crate::SessionState>,
        state: &mut crate::SessionState,
        ws: &mut Workspace,
    ) -> Result<(), String> {
        self.plan.prepare_session(&self.store, history, donor, state, ws)
    }

    /// Last-position logits for `history ++ [item]` where `state` was
    /// prepared for `history` — bit-identical to
    /// `try_score_items_batch(&[fold_in_window(history ++ [item])])` on
    /// the fast path (the append-vs-recompute differential suite and
    /// `scripts/verify.sh` assert it), at O(n·d²) instead of O(n²·d +
    /// n·d²) per event.
    pub fn append_session_logits(
        &self,
        state: &crate::SessionState,
        item: u32,
        ws: &mut Workspace,
    ) -> Result<Vec<f32>, String> {
        self.plan.append_session(&self.store, state, item, ws)
    }

    /// The differential-testing oracle: the training forward in
    /// evaluation mode (dropout off, `z = μ_λ`) over the left-padded
    /// windows, read out at their last rows, on the reference tier. Slow;
    /// tests call it by name and no serving entry point routes to it.
    pub fn score_items_batch_graph(&self, fold_ins: &[&[u32]]) -> Result<Vec<Vec<f32>>, String> {
        if fold_ins.is_empty() {
            return Ok(Vec::new());
        }
        let n = self.cfg.base.max_seq_len;
        let last: Vec<usize> = (1..=fold_ins.len()).map(|i| i * n - 1).collect();
        self.eval_forward(fold_ins, |pass, rows| {
            let (table, mu, _) = self.encode(pass, rows)?;
            let logits = self.decode(pass, rows, table, mu, &last)?;
            Ok(pass.g.value(logits).data().chunks(self.vocab).map(<[f32]>::to_vec).collect())
        })
    }

    /// Posterior `(μ, σ)` of the last position for a fold-in history: the
    /// training forward's encoder in evaluation mode. VSAN-z has no latent
    /// layer; its last h₁ row is a point posterior (`σ = 0`).
    pub fn posterior(&self, fold_in: &[u32]) -> Result<PosteriorStats, String> {
        let last = self.cfg.base.max_seq_len - 1;
        self.eval_forward(&[fold_in], |pass, rows| {
            let (_, mu, logvar) = self.encode(pass, rows)?;
            let mu = pass.g.value(mu).row(last).to_vec();
            let sigma = match logvar {
                Some(lv) => pass.g.value(lv).row(last).iter().map(|&lv| (0.5 * lv).exp()).collect(),
                None => vec![0.0; mu.len()],
            };
            Ok(PosteriorStats { mu, sigma })
        })
    }

    /// Monte-Carlo expected scores under the posterior (extension; §IV-E
    /// evaluates at the posterior *mean*, this marginalizes instead):
    /// draws `samples` latents `z ~ q(z|S)` at the last position (earlier
    /// positions keep `z = μ`), decodes each through the generative layer,
    /// and averages the item probabilities. With `samples = 0` it
    /// degenerates to the paper's mean-field scoring.
    ///
    /// This is the operational payoff of modelling uncertainty (Fig. 1):
    /// a user whose posterior spans two preference modes gets items from
    /// *both* modes ranked highly, where the mean collapses to a midpoint.
    pub fn score_items_sampled<R: rand::Rng + ?Sized>(
        &self,
        fold_in: &[u32],
        samples: usize,
        rng: &mut R,
    ) -> Result<Vec<f32>, String> {
        if samples == 0 {
            return Ok(self.try_score_items_batch(&[fold_in])?.pop().unwrap_or_default());
        }
        let (n, d) = (self.cfg.base.max_seq_len, self.cfg.base.dim);
        let mut acc = vec![0.0f32; self.vocab];
        for _ in 0..samples {
            // ε at the last row only: every earlier row's z is its μ.
            let mut eps = Tensor::zeros(&[n, d]);
            eps.row_mut(n - 1).iter_mut().for_each(|e| *e = init::sample_standard_normal(rng));
            let probs = self.eval_forward(&[fold_in], |pass, rows| {
                let (table, mu, logvar) = self.encode(pass, rows)?;
                let z = match logvar {
                    Some(logvar) => reparameterize(pass.g, mu, logvar, eps)?,
                    None => mu,
                };
                let logits = self.decode(pass, rows, table, z, &[n - 1])?;
                let probs = pass.g.softmax_rows(logits)?;
                Ok(pass.g.value(probs).data().to_vec())
            })?;
            for (a, p) in acc.iter_mut().zip(&probs) {
                *a += p;
            }
        }
        let inv = 1.0 / samples as f32;
        acc.iter_mut().for_each(|a| *a *= inv);
        Ok(acc)
    }

    /// The fold-in window the model actually reads: the last
    /// `max_seq_len` items of a history. Histories equal on this window
    /// produce identical scores — the key equivalence behind the
    /// `vsan-serve` sequence cache.
    pub fn fold_in_window<'h>(&self, history: &'h [u32]) -> &'h [u32] {
        let n = self.cfg.base.max_seq_len;
        &history[history.len().saturating_sub(n)..]
    }
}

/// One forward's tape, parameters and RNG, and whether it trains: dropout
/// is on in training only, and every other caller runs the same forward
/// with it off.
struct Pass<'a> {
    g: &'a mut Graph,
    store: &'a ParamStore,
    rng: &'a mut StdRng,
    train: bool,
}

/// The latent variable layer (Eq. 13): `z = μ + σ ⊙ ε` with
/// `σ = exp(½ log σ²)`.
fn reparameterize(g: &mut Graph, mu: Var, logvar: Var, eps: Tensor) -> AgResult<Var> {
    let half = g.scale(logvar, 0.5);
    let sigma = g.exp(half);
    let eps = g.constant(eps);
    let noise = g.mul(sigma, eps)?;
    g.add(mu, noise)
}

/// One training shard's rows (DESIGN.md §7). Left padding is the same
/// rows in every window — item 0 at slots `0..pads` — and a padding row
/// attends only to padding rows, so the shard computes its longest
/// padding prefix once, as part of the window that has it (placed
/// first), followed by every other example's real rows; each window
/// reads its own padding prefix from the shared one. A shard without
/// padding is the examples' windows as they are.
struct ShardRows {
    /// Item id per row.
    inputs: Vec<usize>,
    /// Slot (position row) per row.
    positions: Vec<usize>,
    /// Target set per row; padding rows have none.
    targets: Vec<Vec<usize>>,
    /// Windows, flat `(batch, n)`: the rows each example attends over.
    window_rows: Vec<usize>,
    /// Rows each window computes: the first all `n`, every other its real
    /// rows.
    keep: Vec<usize>,
}

impl ShardRows {
    fn new(examples: &[&SeqExampleK], n: usize) -> Self {
        let pads: Vec<usize> =
            examples.iter().map(|ex| ex.input.iter().take_while(|&&i| i == 0).count()).collect();
        // The (first) window with the most padding goes first and computes it.
        let most = pads.iter().copied().max().unwrap_or(0);
        let first = pads.iter().position(|&p| p == most).unwrap_or(0);
        let order = std::iter::once(first).chain((0..examples.len()).filter(|&s| s != first));
        let mut rows = ShardRows {
            inputs: Vec::with_capacity(examples.len() * n),
            positions: Vec::new(),
            targets: Vec::new(),
            window_rows: Vec::with_capacity(examples.len() * n),
            keep: Vec::with_capacity(examples.len()),
        };
        for s in order {
            let ex = examples[s];
            // The first window computes its padding; the others read it.
            let p = if rows.keep.is_empty() { 0 } else { pads[s] };
            let at = rows.inputs.len();
            rows.window_rows.extend((0..p).chain(at..at + n - p));
            rows.keep.push(n - p);
            rows.inputs.extend(ex.input[p..].iter().map(|&i| i as usize));
            rows.positions.extend(p..n);
            rows.targets.extend(ex.targets[p..].iter().cloned());
        }
        rows
    }

    /// Every history's left-padded window whole, stacked, its rows
    /// without targets: the evaluation forward's layout, and the one the
    /// shared one must compute the same values as.
    fn padded(histories: &[&[u32]], n: usize) -> Self {
        let b = histories.len();
        ShardRows {
            inputs: histories.iter().flat_map(|h| pad_left(h, n)).map(|i| i as usize).collect(),
            positions: (0..b).flat_map(|_| 0..n).collect(),
            targets: vec![Vec::new(); b * n],
            window_rows: (0..b * n).collect(),
            keep: vec![n; b],
        }
    }

    /// The blocks' attention windows over these rows.
    fn windows(&self) -> Windows<'_> {
        if self.keep.iter().all(|&k| k == self.keep[0]) {
            // No window reads another's rows: they are stacked as they are.
            Windows::Stacked { batch: self.keep.len() }
        } else {
            Windows::Gathered { rows: &self.window_rows, keep: &self.keep }
        }
    }
}

impl Scorer for Vsan {
    fn score_items(&self, fold_in: &[u32]) -> Vec<f32> {
        // Single-history scoring is the b = 1 batch — same dispatch, so
        // the fast path serves offline evaluation too.
        self.try_score_items_batch(&[fold_in])
            .ok()
            .and_then(|mut rows| rows.pop())
            .unwrap_or_else(|| vec![0.0; self.vocab])
    }
    fn vocab(&self) -> usize {
        self.vocab
    }
}

impl Recommender for Vsan {
    fn name(&self) -> &'static str {
        "VSAN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VsanConfig;

    fn chain_dataset(num_items: usize, users: usize, len: usize) -> Dataset {
        let sequences = (0..users)
            .map(|u| (0..len).map(|t| ((u + t) % num_items + 1) as u32).collect())
            .collect();
        Dataset { name: "chain".into(), num_items, sequences }
    }

    #[test]
    fn training_reduces_loss() {
        // Fixed β so the loss is comparable across epochs (under annealing
        // the growing KL weight can mask the falling reconstruction term).
        let ds = chain_dataset(8, 24, 10);
        let users: Vec<usize> = (0..24).collect();
        let mut cfg = VsanConfig::smoke().with_beta(vsan_nn::BetaSchedule::Fixed(0.05));
        cfg.base = cfg.base.with_epochs(6);
        let model = Vsan::train(&ds, &users, &cfg).unwrap();
        assert!(model.train_losses.last().unwrap() < &model.train_losses[0]);
    }

    #[test]
    fn learns_deterministic_chain() {
        let ds = chain_dataset(6, 30, 12);
        let users: Vec<usize> = (0..30).collect();
        let mut cfg = VsanConfig::smoke();
        cfg.base = cfg.base.with_epochs(40);
        let model = Vsan::train(&ds, &users, &cfg).unwrap();
        let scores = model.score_items(&[3, 4]);
        let best = (1..=6).max_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap()).unwrap();
        assert_eq!(best, 5, "scores {:?}", &scores[1..]);
    }

    #[test]
    fn evaluation_is_deterministic_posterior_mean() {
        let ds = chain_dataset(6, 12, 8);
        let users: Vec<usize> = (0..12).collect();
        let mut cfg = VsanConfig::smoke();
        cfg.base = cfg.base.with_epochs(2);
        let model = Vsan::train(&ds, &users, &cfg).unwrap();
        assert_eq!(model.score_items(&[1, 2]), model.score_items(&[1, 2]));
    }

    #[test]
    fn all_variants_train() {
        let ds = chain_dataset(6, 16, 8);
        let users: Vec<usize> = (0..16).collect();
        let base = {
            let mut c = VsanConfig::smoke();
            c.base = c.base.with_epochs(2);
            c
        };
        for cfg in [
            base.clone(),
            base.clone().vsan_z(),
            base.clone().all_feed(),
            base.clone().infer_feed(),
            base.clone().gene_feed(),
        ] {
            let name = cfg.variant_name();
            let model = Vsan::train(&ds, &users, &cfg).unwrap();
            assert!(
                model.train_losses.iter().all(|l| l.is_finite()),
                "{name} produced non-finite losses"
            );
            assert!(model.score_items(&[1, 2]).iter().all(|s| s.is_finite()), "{name}");
        }
    }

    #[test]
    fn block_count_grid_trains_including_zeroes() {
        let ds = chain_dataset(6, 12, 8);
        let users: Vec<usize> = (0..12).collect();
        for (h1, h2) in [(0, 0), (0, 1), (1, 0), (2, 1)] {
            let mut cfg = VsanConfig::smoke().with_blocks(h1, h2);
            cfg.base = cfg.base.with_epochs(1);
            let model = Vsan::train(&ds, &users, &cfg).unwrap();
            assert!(model.train_losses[0].is_finite(), "(h1,h2)=({h1},{h2})");
        }
    }

    #[test]
    fn next_k_grows_the_target_sets() {
        let ds = chain_dataset(6, 12, 10);
        let users: Vec<usize> = (0..12).collect();
        for k in [1, 2, 3] {
            let mut cfg = VsanConfig::smoke().with_next_k(k);
            cfg.base = cfg.base.with_epochs(1);
            let model = Vsan::train(&ds, &users, &cfg).unwrap();
            assert!(model.train_losses[0].is_finite(), "k={k}");
        }
    }

    #[test]
    fn vsan_z_has_same_params_but_no_kl_path() {
        // VSAN-z keeps the heads registered (same param count) but the
        // latent path is bypassed, so the μ head receives no gradient.
        let ds = chain_dataset(6, 12, 8);
        let users: Vec<usize> = (0..12).collect();
        let mut cfg = VsanConfig::smoke().vsan_z();
        cfg.base = cfg.base.with_epochs(1);
        let model = Vsan::train(&ds, &users, &cfg).unwrap();
        assert!(model.num_parameters() > 0);
        assert_eq!(model.config().variant_name(), "VSAN-z");
    }

    #[test]
    fn recommend_excludes_history_and_bounds_n() {
        let ds = chain_dataset(6, 16, 10);
        let users: Vec<usize> = (0..16).collect();
        let mut cfg = VsanConfig::smoke();
        cfg.base = cfg.base.with_epochs(2);
        let model = Vsan::train(&ds, &users, &cfg).unwrap();
        let history = vec![1u32, 2, 3];
        let recs = model.recommend(&history, 4).unwrap();
        assert!(recs.len() <= 4);
        for r in &recs {
            assert!(!history.contains(r), "recommended an already-seen item");
            assert_ne!(*r, 0, "recommended the padding item");
        }
        // Asking for more than the catalogue returns everything unseen.
        let all = model.recommend(&history, 100).unwrap();
        assert_eq!(all.len(), 6 - 3);
    }

    #[test]
    fn heap_top_k_matches_softmax_sort_reference() {
        // `recommend` ranks by heap-based partial selection over raw
        // logits. The reference path — full softmax over the vocabulary,
        // then a complete sort — is what Eq. 19 literally writes; softmax
        // is rank-monotonic, so the two must agree exactly.
        let ds = chain_dataset(8, 20, 10);
        let users: Vec<usize> = (0..20).collect();
        let mut cfg = VsanConfig::smoke();
        cfg.base = cfg.base.with_epochs(3);
        let model = Vsan::train(&ds, &users, &cfg).unwrap();
        for history in [vec![1u32, 2], vec![3, 4, 5], vec![7]] {
            for k in [1, 3, 6] {
                let fast = model.recommend(&history, k).unwrap();

                // Reference: softmax + full stable sort + exclusion.
                let logits = model.score_items(&history);
                let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let exps: Vec<f32> = logits.iter().map(|l| (l - max).exp()).collect();
                let z: f32 = exps.iter().sum();
                let probs: Vec<f32> = exps.iter().map(|e| e / z).collect();
                let mut ids: Vec<u32> = (1..probs.len() as u32)
                    .filter(|i| !history.contains(i))
                    .collect();
                ids.sort_by(|&a, &b| {
                    probs[b as usize]
                        .partial_cmp(&probs[a as usize])
                        .unwrap()
                        .then_with(|| a.cmp(&b))
                });
                ids.truncate(k);
                assert_eq!(fast, ids, "history {history:?} k {k}");
            }
        }
    }

    #[test]
    fn batched_forward_matches_sequential() {
        let ds = chain_dataset(7, 24, 10);
        let users: Vec<usize> = (0..24).collect();
        let mut cfg = VsanConfig::smoke();
        cfg.base = cfg.base.with_epochs(2);
        let model = Vsan::train(&ds, &users, &cfg).unwrap();
        let histories: Vec<Vec<u32>> =
            vec![vec![1, 2, 3], vec![4], vec![5, 6, 7, 1, 2, 3, 4, 5, 6, 7], vec![2, 4]];
        let refs: Vec<&[u32]> = histories.iter().map(Vec::as_slice).collect();

        let batched = model.try_score_items_batch(&refs).expect("batched scoring");
        assert_eq!(batched.len(), histories.len());
        for (h, row) in histories.iter().zip(&batched) {
            assert_eq!(row, &model.score_items(h), "scores must be bit-identical");
        }

        let recs = model.try_recommend_batch(&refs, 3).expect("batched recommend");
        for (h, rec) in histories.iter().zip(&recs) {
            assert_eq!(rec, &model.recommend(h, 3).unwrap());
        }
        assert!(model.try_recommend_batch(&[], 3).unwrap().is_empty());
    }

    #[test]
    fn a_shard_computes_shared_padding_once_and_the_same_loss() {
        // Example 0 has the most padding, so it computes the shared prefix
        // and the row order is the padded layout's minus the other
        // windows' padding. With the forward deterministic (dropout 0,
        // VSAN-z: no ε draw) every real row sees exactly what it sees in
        // its own padded window: the loss is the same bits, and each
        // gradient the same terms summed in another grouping.
        use vsan_tensor::KernelTier;
        let n = 9;
        let seqs: [&[u32]; 4] = [&[1, 2], &[3, 4, 5, 6, 7, 1, 2, 3, 4, 5, 6], &[2, 5, 7, 1], &[6, 6, 3]];
        let examples: Vec<SeqExampleK> = seqs.iter().map(|s| next_k_example(s, n, 2).unwrap()).collect();
        let refs: Vec<&SeqExampleK> = examples.iter().collect();
        let mut cfg = VsanConfig::smoke().vsan_z().with_next_k(2);
        cfg.base.max_seq_len = n;
        cfg.base.dropout = 0.0;
        let model = Vsan::init(9, &cfg);
        // Window 0: 8 padding rows + 1 real; then 9, 3 and 2 real rows.
        assert_eq!(ShardRows::new(&refs, n).keep, [9, 9, 3, 2]);
        assert_eq!(ShardRows::new(&refs, n).inputs.len(), 23);

        for tier in [KernelTier::Reference, KernelTier::Fast] {
            let run = |rows: ShardRows| {
                let mut g = Graph::with_threads_and_tier(1, tier);
                let mut rng = StdRng::seed_from_u64(3);
                let (loss, _) = model.shard_loss(&mut g, model.params(), rows, &mut rng, 0).unwrap();
                let value = g.value(loss).data()[0];
                (value, g.backward(loss).unwrap())
            };
            let (shared, shared_grads) = run(ShardRows::new(&refs, n));
            let inputs: Vec<&[u32]> = examples.iter().map(|ex| &ex.input[..]).collect();
            let targets = examples.iter().flat_map(|ex| ex.targets.clone()).collect();
            let (padded, padded_grads) = run(ShardRows { targets, ..ShardRows::padded(&inputs, n) });
            assert_eq!(shared.to_bits(), padded.to_bits(), "{}: loss", tier.name());
            for (id, name, _) in model.params().iter() {
                let (a, b) = (shared_grads.param_grad(id), padded_grads.param_grad(id));
                assert_eq!(a.is_some(), b.is_some(), "{name}");
                let (Some(a), Some(b)) = (a, b) else { continue };
                for (x, y) in a.data().iter().zip(b.data()) {
                    assert!((x - y).abs() <= 1e-6 + 1e-4 * y.abs(), "{}: {name}: {x} vs {y}", tier.name());
                }
            }
        }
    }

    #[test]
    fn the_training_loss_is_the_cross_entropy_of_the_oracle_logits() {
        // The oracle is the training forward in evaluation mode: with
        // dropout 0 and no ε draw (VSAN-z), a shard whose only target is
        // its window's last row reports the CE of the oracle's logits.
        use vsan_tensor::KernelTier;
        let n = 6;
        let history = [3u32, 1, 4, 1, 5];
        let target = 7;
        let mut targets = vec![Vec::new(); n];
        targets[n - 1] = vec![target];
        let example = SeqExampleK { input: pad_left(&history, n), targets };
        let mut cfg = VsanConfig::smoke().vsan_z();
        cfg.base.max_seq_len = n;
        cfg.base.dropout = 0.0;
        let model = Vsan::init(9, &cfg);
        let logits = model.score_items_batch_graph(&[&history]).unwrap().pop().unwrap();
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let sum: f64 = logits.iter().map(|&l| f64::from(l - max).exp()).sum();
        let expected = f64::from(max) + sum.ln() - f64::from(logits[target]);
        for tier in [KernelTier::Reference, KernelTier::Fast] {
            let mut g = Graph::with_threads_and_tier(1, tier);
            let mut rng = StdRng::seed_from_u64(3);
            let shard = ShardRows::new(&[&example], n);
            let (_, stats) = model.shard_loss(&mut g, model.params(), shard, &mut rng, 0).unwrap();
            let ce = f64::from(stats.ce);
            assert!((ce - expected).abs() <= 1e-6 * expected, "{}: {ce} vs {expected}", tier.name());
        }
    }

    #[test]
    fn the_window_with_the_most_padding_computes_it() {
        let n = 6;
        let seqs: [&[u32]; 3] = [&[1, 2, 3, 4], &[5, 6], &[1, 2, 3, 4, 5, 6, 7]];
        let examples: Vec<SeqExampleK> = seqs.iter().map(|s| next_k_example(s, n, 1).unwrap()).collect();
        let refs: Vec<&SeqExampleK> = examples.iter().collect();
        let rows = ShardRows::new(&refs, n);
        // Example 1 (5 padding rows) first, then examples 0 and 2 in order.
        assert_eq!(rows.keep, [6, 3, 6]);
        assert_eq!(rows.inputs, [0, 0, 0, 0, 0, 5, 1, 2, 3, 1, 2, 3, 4, 5, 6]);
        assert_eq!(rows.positions, [0, 1, 2, 3, 4, 5, 3, 4, 5, 0, 1, 2, 3, 4, 5]);
        // Example 0's window reads the shared padding rows 0..3.
        assert_eq!(&rows.window_rows[6..12], [0, 1, 2, 6, 7, 8]);
        assert!(matches!(rows.windows(), Windows::Gathered { .. }));
        // Without padding the windows are stacked as they are.
        let full = ShardRows::new(&refs[2..], n);
        assert!(matches!(full.windows(), Windows::Stacked { batch: 1 }));
    }

    #[test]
    fn fold_in_window_is_the_model_view() {
        let cfg = VsanConfig::smoke(); // max_seq_len = 8
        let model = Vsan::init(10, &cfg);
        let long: Vec<u32> = (1..=20).map(|i| (i % 9 + 1) as u32).collect();
        let window = model.fold_in_window(&long);
        assert_eq!(window.len(), 8);
        assert_eq!(window, &long[12..]);
        // Scores depend only on the window.
        assert_eq!(model.score_items(&long), model.score_items(window));
        let short = [3u32, 4];
        assert_eq!(model.fold_in_window(&short), &short);
    }

    #[test]
    fn checkpoint_round_trip_preserves_scores() {
        let ds = chain_dataset(6, 12, 8);
        let users: Vec<usize> = (0..12).collect();
        let mut cfg = VsanConfig::smoke();
        cfg.base = cfg.base.with_epochs(2);
        let model = Vsan::train(&ds, &users, &cfg).unwrap();
        let blob = model.params().save();
        let mut restored = Vsan::init(model.vocab(), &cfg);
        // Score before the restore: the pad state derived from the
        // initial weights must not outlive them.
        assert_ne!(model.score_items(&[1, 2]), restored.score_items(&[1, 2]));
        let count = restored.params_mut().load_values(&blob).unwrap();
        assert_eq!(count, restored.params().len());
        assert_eq!(model.score_items(&[1, 2]), restored.score_items(&[1, 2]));
    }
}
