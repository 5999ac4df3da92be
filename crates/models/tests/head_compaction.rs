//! Differential suite for head compaction (DESIGN.md §10, "Only rows
//! with a target reach the head").
//!
//! Every sequence model's training closure gathers the rows that carry a
//! target ([`active_rows`]) and runs only them through the N-wide head
//! and the cross-entropy. The claim is *bitwise*: the loss and every
//! parameter gradient equal those of the all-rows head — the formulation
//! every model used before, composed here from the same tape ops and
//! kept as the oracle. `golden_train`'s fixtures pin VSAN end to end;
//! this suite holds the claim per head shape, per layout and per padding
//! share, on both kernel tiers:
//!
//! - the untied `Linear` head under `ce_multi_hot` (VSAN, SVAE);
//! - the tied `matmul_a_bt` head under `ce_one_hot` (SASRec), where the
//!   item table takes the head's gradient and the embedding's, in that
//!   order;
//! - a position-major layout behind an unrolled GRU (GRU4Rec), where the
//!   helper sees the already reordered targets.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vsan_autograd::{Graph, Result, Var};
use vsan_models::common::{active_rows, position_indices};
use vsan_nn::{Embedding, GruCell, Linear, ParamStore};
use vsan_tensor::KernelTier;

/// Vocabulary (padding id 0 included) and width of the toy networks.
const VOCAB: usize = 23;
const DIM: usize = 6;

/// Which rows carry a target: real items per sample, left-padded to `n`.
#[derive(Debug, Clone, Copy)]
enum Padding {
    /// Every position of every sample is real: `active` is every row.
    None,
    /// About four rows in five are padding; at small `n` a sample keeps
    /// exactly one real row.
    FourFifths,
    /// One row in the whole shard has a target.
    AllButOneRow,
    /// No row has a target (a caller can build this; the example
    /// builders cannot).
    Total,
}

impl Padding {
    /// Real positions of sample `s` in a shard of `b` samples of length `n`.
    fn real(self, s: usize, b: usize, n: usize) -> usize {
        match self {
            Padding::None => n,
            Padding::FourFifths => (n / 5 + s % 2).clamp(1, n),
            Padding::AllButOneRow => usize::from(s == b / 2),
            Padding::Total => 0,
        }
    }
}

/// A left-padded shard: batch-major item ids, one-hot targets
/// (`usize::MAX` on padding) and next-2 multi-hot targets (empty on
/// padding), drawn from a fixed multiplicative sequence.
struct Shard {
    b: usize,
    n: usize,
    inputs: Vec<usize>,
    one_hot: Vec<usize>,
    multi_hot: Vec<Vec<usize>>,
}

fn shard(b: usize, n: usize, padding: Padding) -> Shard {
    let mut state = (b * 131 + n * 17 + 7) as u64;
    let mut item = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        1 + (state >> 33) as usize % (VOCAB - 1)
    };
    let (mut inputs, mut one_hot, mut multi_hot) = (Vec::new(), Vec::new(), Vec::new());
    for s in 0..b {
        let real = padding.real(s, b, n);
        for t in 0..n {
            if t < n - real {
                inputs.push(0);
                one_hot.push(usize::MAX);
                multi_hot.push(Vec::new());
            } else {
                inputs.push(item());
                let next = item();
                one_hot.push(next);
                // The last position has one item left, as in `next_k_example`.
                multi_hot.push(if t + 1 == n { vec![next] } else { vec![next, item()] });
            }
        }
    }
    Shard { b, n, inputs, one_hot, multi_hot }
}

/// The layers the three toy networks draw on.
struct Net {
    store: ParamStore,
    item_emb: Embedding,
    pos_emb: Embedding,
    mix: Linear,
    gru: GruCell,
    head: Linear,
}

fn net(n: usize) -> Net {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(5);
    let item_emb = Embedding::new(&mut store, &mut rng, "item_emb", VOCAB, DIM, true);
    let pos_emb = Embedding::new(&mut store, &mut rng, "pos_emb", n, DIM, false);
    let mix = Linear::new(&mut store, &mut rng, "mix", DIM, DIM, true);
    let gru = GruCell::new(&mut store, &mut rng, "gru", DIM, DIM);
    let head = Linear::new(&mut store, &mut rng, "head", DIM, VOCAB, true);
    // A zero bias would hide a wrong bias gradient behind `0 + …`.
    let bias = store.get_mut(head.b.expect("head has a bias"));
    bias.data_mut().iter_mut().enumerate().for_each(|(i, v)| *v = (i as f32 * 0.37).sin() * 0.1);
    Net { store, item_emb, pos_emb, mix, gru, head }
}

impl Net {
    /// Batch-major hidden states `(b·n, d)`: item + position embeddings
    /// through a `tanh` layer, so padded rows are dense and non-zero as
    /// they are behind a self-attention block.
    fn hidden(&self, g: &mut Graph, table: Var, shard: &Shard) -> Result<Var> {
        let items = g.gather_rows(table, &shard.inputs)?;
        let pos = self.pos_emb.lookup(g, &self.store, &position_indices(shard.b, shard.n))?;
        let x = g.add(items, pos)?;
        let mixed = self.mix.forward(g, &self.store, x)?;
        Ok(g.tanh(mixed))
    }
}

/// How a network turns its hidden rows and their targets into the loss:
/// through every row (the oracle) or through the rows `active_rows` keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Head {
    AllRows,
    Compacted,
}

/// VSAN / SVAE: untied `Linear` head, multi-hot cross-entropy.
fn untied_multi_hot(net: &Net, g: &mut Graph, shard: &Shard, head: Head) -> Result<Var> {
    let table = net.store.var(g, net.item_emb.table);
    let mut h = net.hidden(g, table, shard)?;
    let mut targets = shard.multi_hot.clone();
    if head == Head::Compacted {
        let (active, kept) = active_rows(targets, |t| !t.is_empty());
        h = g.gather_rows(h, &active)?;
        targets = kept;
    }
    let logits = net.head.forward(g, &net.store, h)?;
    g.ce_multi_hot(logits, &targets)
}

/// SASRec: logits against the item table itself, one-hot cross-entropy.
fn tied_one_hot(net: &Net, g: &mut Graph, shard: &Shard, head: Head) -> Result<Var> {
    let table = net.store.var(g, net.item_emb.table);
    let mut h = net.hidden(g, table, shard)?;
    let mut targets = shard.one_hot.clone();
    if head == Head::Compacted {
        let (active, kept) = active_rows(targets, |&t| t != usize::MAX);
        h = g.gather_rows(h, &active)?;
        targets = kept;
    }
    let logits = g.matmul_a_bt(h, table)?;
    g.ce_one_hot(logits, &targets)
}

/// GRU4Rec: per-position slices through an unrolled GRU, the states
/// stacked position-major (row `t·b + s`) with the targets reordered to
/// match, untied head, one-hot cross-entropy.
fn position_major_one_hot(net: &Net, g: &mut Graph, shard: &Shard, head: Head) -> Result<Var> {
    let (b, n) = (shard.b, shard.n);
    let table = net.store.var(g, net.item_emb.table);
    let emb = g.gather_rows(table, &shard.inputs)?;
    let mut xs = Vec::with_capacity(n);
    for t in 0..n {
        let idx: Vec<usize> = (0..b).map(|s| s * n + t).collect();
        xs.push(g.gather_rows(emb, &idx)?);
    }
    let states = net.gru.unroll(g, &net.store, &xs, b)?;
    let mut h = g.concat_rows(&states)?;
    let mut targets = vec![usize::MAX; n * b];
    for s in 0..b {
        for t in 0..n {
            targets[t * b + s] = shard.one_hot[s * n + t];
        }
    }
    if head == Head::Compacted {
        let (active, kept) = active_rows(targets, |&t| t != usize::MAX);
        h = g.gather_rows(h, &active)?;
        targets = kept;
    }
    let logits = net.head.forward(g, &net.store, h)?;
    g.ce_one_hot(logits, &targets)
}

type Build = fn(&Net, &mut Graph, &Shard, Head) -> Result<Var>;

const BUILDS: [(&str, Build); 3] = [
    ("untied linear + multi-hot", untied_multi_hot),
    ("tied table + one-hot", tied_one_hot),
    ("position-major gru + one-hot", position_major_one_hot),
];

/// Loss bits and every parameter's gradient bits (store order; a
/// parameter the loss does not reach reads as `None`).
type Bits = (u32, Vec<Option<Vec<u32>>>);

fn run(net: &Net, shard: &Shard, build: Build, head: Head, tier: KernelTier) -> Bits {
    let mut g = Graph::with_threads_and_tier(1, tier);
    let loss = build(net, &mut g, shard, head).expect("forward");
    let grads = g.backward(loss).expect("backward");
    let per_param = net
        .store
        .iter()
        .map(|(id, _, _)| {
            grads.param_grad(id).map(|t| t.data().iter().map(|v| v.to_bits()).collect())
        })
        .collect();
    (g.value(loss).data()[0].to_bits(), per_param)
}

/// Assert `got` repeats `want` bit for bit, naming the first parameter
/// that does not.
fn assert_same_bits(net: &Net, want: &Bits, got: &Bits, what: &str) {
    assert_eq!(want.0, got.0, "{what}: loss bits differ");
    for ((_, name, _), (w, g)) in net.store.iter().zip(want.1.iter().zip(&got.1)) {
        assert_eq!(w, g, "{what}: gradient bits differ for {name}");
    }
}

#[test]
fn compacted_head_repeats_the_all_rows_head_bit_for_bit() {
    for n in [1, 5, 50] {
        let net = net(n);
        for b in [1, 8] {
            for padding in [Padding::None, Padding::FourFifths, Padding::AllButOneRow] {
                let shard = shard(b, n, padding);
                for (name, build) in BUILDS {
                    let oracle = run(&net, &shard, build, Head::AllRows, KernelTier::Reference);
                    assert!(f32::from_bits(oracle.0) > 0.0, "{name}: the oracle saw no target");
                    for (head, tier) in [
                        (Head::AllRows, KernelTier::Fast),
                        (Head::Compacted, KernelTier::Reference),
                        (Head::Compacted, KernelTier::Fast),
                    ] {
                        let got = run(&net, &shard, build, head, tier);
                        let what = format!(
                            "{name}, n = {n}, shard of {b}, {padding:?}: {head:?} on {}",
                            tier.name()
                        );
                        assert_same_bits(&net, &oracle, &got, &what);
                    }
                }
            }
        }
    }
}

#[test]
fn padding_shares_are_what_the_matrix_says() {
    // The matrix above is only as good as its shards: no padding keeps
    // every row, four-fifths keeps about a fifth (and exactly one row per
    // sample at n = 5), all-but-one keeps one row of the shard.
    let kept = |b, n, padding| {
        active_rows(shard(b, n, padding).one_hot, |&t| t != usize::MAX).0.len()
    };
    assert_eq!(kept(8, 50, Padding::None), 400);
    assert_eq!(kept(8, 50, Padding::FourFifths), 84);
    assert_eq!(kept(8, 5, Padding::FourFifths), 12);
    assert_eq!(kept(1, 5, Padding::FourFifths), 1);
    assert_eq!(kept(8, 50, Padding::AllButOneRow), 1);
    assert_eq!(kept(1, 1, Padding::AllButOneRow), 1);
    assert_eq!(kept(8, 50, Padding::Total), 0);
}

#[test]
fn a_batch_without_any_target_gives_zero_loss_and_zero_gradients() {
    // `active_rows` documents this edge: two empty lists, and the
    // `(0, d)` gather → head → cross-entropy chain is defined — loss 0.0
    // and all-zero parameter gradients, as the all-rows head gives; no
    // panic, no NaN from a 0/0.
    let n = 5;
    let net = net(n);
    for b in [1, 8] {
        let shard = shard(b, n, Padding::Total);
        for (name, build) in BUILDS {
            for tier in [KernelTier::Reference, KernelTier::Fast] {
                for head in [Head::AllRows, Head::Compacted] {
                    let (loss, grads) = run(&net, &shard, build, head, tier);
                    let what = format!("{name}, shard of {b}: {head:?} on {}", tier.name());
                    assert_eq!(loss, 0.0f32.to_bits(), "{what}: loss");
                    for ((_, pname, _), grad) in net.store.iter().zip(&grads) {
                        let all_zero =
                            grad.iter().flatten().all(|&bits| f32::from_bits(bits) == 0.0);
                        assert!(all_zero, "{what}: non-zero gradient for {pname}");
                    }
                }
            }
        }
    }
}
