//! Extension ablation (not in the paper): attention head count.
//!
//! The paper's blocks are single-head; this sweep asks whether the
//! Transformer-style multi-head extension (heads split the model width,
//! `W_O` re-mixes) buys anything at the SASRec architecture scale the
//! paper operates at. SASRec's own paper reported single-head was as good
//! — we verify on the simulated datasets.

use vsan_bench::{timed, Bench, ExpArgs};
use vsan_eval::RunAggregate;
use vsan_models::common::{
    active_rows, examples_for_users, flatten_batch, position_indices, train_epochs,
};
use vsan_models::NeuralConfig;
use vsan_nn::{Dropout, Embedding, ParamStore, SelfAttentionBlock};

use rand::rngs::StdRng;
use rand::SeedableRng;
use vsan_data::sequence::pad_left;
use vsan_eval::Scorer;

/// A SASRec-style model with a configurable head count.
struct HeadedSasRec {
    store: ParamStore,
    item_emb: Embedding,
    pos_emb: Embedding,
    blocks: Vec<SelfAttentionBlock>,
    cfg: NeuralConfig,
    vocab: usize,
}

impl HeadedSasRec {
    fn train(
        ds: &vsan_data::Dataset,
        users: &[usize],
        cfg: &NeuralConfig,
        heads: usize,
    ) -> Result<Self, String> {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let item_emb = Embedding::new(&mut store, &mut rng, "item_emb", ds.vocab(), cfg.dim, true);
        let pos_emb = Embedding::new(&mut store, &mut rng, "pos_emb", cfg.max_seq_len, cfg.dim, false);
        let blocks: Vec<SelfAttentionBlock> = (0..2)
            .map(|b| {
                SelfAttentionBlock::new_multi_head(
                    &mut store,
                    &mut rng,
                    &format!("block{b}"),
                    cfg.dim,
                    heads,
                    true,
                )
            })
            .collect();
        let examples = examples_for_users(ds, users, cfg.max_seq_len);
        let mut model =
            HeadedSasRec { store, item_emb, pos_emb, blocks, cfg: cfg.clone(), vocab: ds.vocab() };
        if examples.is_empty() {
            return Ok(model);
        }
        let n = cfg.max_seq_len;
        let dropout = Dropout::new(cfg.dropout);
        let item_emb = model.item_emb.clone();
        let pos_emb = model.pos_emb.clone();
        let blocks = model.blocks.clone();
        train_epochs(
            cfg,
            &mut model.store,
            &examples,
            |g, store, batch, rng, _| {
                let (inputs, targets) = flatten_batch(batch);
                let b = batch.len();
                let table = store.var(g, item_emb.table);
                let items = g.gather_rows(table, &inputs)?;
                let pos = pos_emb.lookup(g, store, &position_indices(b, n))?;
                let mut h = g.add(items, pos)?;
                h = dropout.forward(g, rng, h, true)?;
                for block in &blocks {
                    h = block.forward(g, store, h, b, n, &dropout, rng, true)?;
                }
                let (active, targets) = active_rows(targets, |&t| t != usize::MAX);
                let h = g.gather_rows(h, &active)?;
                let logits = g.matmul_a_bt(h, table)?;
                let loss = g.ce_one_hot(logits, &targets)?;
                let ce = g.value(loss).data()[0];
                Ok((loss, vsan_nn::ShardStats::ce_only(ce)))
            },
            |store| item_emb.zero_padding(store),
        )?;
        Ok(model)
    }
}

impl Scorer for HeadedSasRec {
    fn score_items(&self, fold_in: &[u32]) -> Vec<f32> {
        let n = self.cfg.max_seq_len;
        let input = pad_left(fold_in, n);
        let mut g = vsan_autograd::Graph::with_threads(self.cfg.threads);
        let mut rng = StdRng::seed_from_u64(0);
        let dropout = Dropout::new(0.0);
        let idx: Vec<usize> = input.iter().map(|&i| i as usize).collect();
        let mut run = || -> vsan_autograd::Result<Vec<f32>> {
            let table = self.store.var(&mut g, self.item_emb.table);
            let items = g.gather_rows(table, &idx)?;
            let pos = self.pos_emb.lookup(&mut g, &self.store, &position_indices(1, n))?;
            let mut h = g.add(items, pos)?;
            for block in &self.blocks {
                h = block.forward(&mut g, &self.store, h, 1, n, &dropout, &mut rng, false)?;
            }
            let last = g.gather_rows(h, &[n - 1])?;
            let logits = g.matmul_a_bt(last, table)?;
            Ok(g.value(logits).data().to_vec())
        };
        run().unwrap_or_else(|_| vec![0.0; self.vocab])
    }
    fn vocab(&self) -> usize {
        self.vocab
    }
}

fn main() {
    let args = ExpArgs::from_env(1);
    println!(
        "== Ablation: attention heads (extension; scale {:?}, {} seed(s)) ==",
        args.scale,
        args.seeds.len()
    );
    for name in args.datasets.names() {
        println!("\n--- dataset: {name} ---");
        println!("{:>6} {:>10} {:>10}", "heads", "NDCG@10", "Rec@20");
        for heads in [1usize, 2, 4] {
            let mut agg = RunAggregate::new();
            for &seed in &args.seeds {
                let bench = Bench::prepare(name, args.scale, seed);
                let ncfg = args
                    .scale
                    .neural_config(name)
                    .with_seed(seed)
                    .with_epochs(args.scale.grid_epochs());
                let model = timed(&format!("heads={heads}"), || {
                    HeadedSasRec::train(&bench.ds, &bench.split.train_users, &ncfg, heads)
                        .expect("train")
                });
                agg.add(&bench.evaluate(&model));
            }
            println!(
                "{heads:>6} {:>10.3} {:>10.3}",
                agg.mean_pct("NDCG", 10).unwrap_or(f64::NAN),
                agg.mean_pct("Recall", 20).unwrap_or(f64::NAN)
            );
        }
    }
}
