//! Golden-value regression for *training*: three epochs of the seeded
//! smoke VSAN, pinned bit-for-bit in `tests/fixtures/golden_train*.txt` —
//! a parameter-bits hash plus the per-epoch loss decomposition (loss / CE
//! / KL / β). Two runs are pinned: [`DENSE`] (histories of 9–11 in a
//! window of 8: no padding, one step per epoch) and [`PADDED`] (histories
//! of 2–9 left-padded to 40, next-2 targets, two steps per epoch). The
//! dense fixture has not moved since it was written: a shard without
//! padding trains exactly as it always has. The padded fixture pins the
//! shared-padding shard (DESIGN.md §7: each shard computes its longest
//! padding prefix once and every window reads its part of it), which
//! replaced per-example padding rows and was written when it did.
//!
//! `tests/golden_logits.rs` (workspace root) pins the eval forward; this
//! fixture pins the *training* computation — forward, backward, tree
//! reduction, Adam update — across commits. Any refactor that changes a
//! single mantissa bit anywhere in that chain fails here loudly.
//!
//! The fixture is asserted under **both kernel tiers and threads 1 and
//! 4** (the tier/thread grid): reference and fast tiers must train the
//! *same pinned bits*, which is the DESIGN.md §10 training contract in
//! its strongest form — not merely "variants agree with each other" but
//! "variants agree with the committed history".
//!
//! Regenerate (after a change that intentionally alters training) with:
//!
//! ```text
//! VSAN_REGEN_GOLDEN=1 cargo test -p vsan-core --test golden_train
//! ```

use std::sync::Arc;

use vsan_core::{Vsan, VsanConfig};
use vsan_data::Dataset;
use vsan_obs::{CollectingObserver, ObserverHandle};
use vsan_tensor::KernelTier;

/// One pinned training run: a dataset, its departures from
/// `VsanConfig::smoke()` (beyond `epochs = 3`), and the fixture file.
struct Case {
    fixture: &'static str,
    /// The fixture's first comment line.
    title: &'static str,
    dataset: fn() -> Dataset,
    tune: fn(&mut VsanConfig),
}

/// 12 users < smoke batch size 16 → exactly one optimizer step per epoch;
/// 3 epochs → the three pinned steps.
const DENSE: Case = Case {
    fixture: "golden_train.txt",
    title: "# Golden VSAN training run: 3 steps from seeded init.\n",
    dataset: || {
        let num_items = 8;
        let users = 12;
        let sequences = (0..users)
            .map(|u| (0..9 + u % 3).map(|t| ((u + t) % num_items + 1) as u32).collect())
            .collect();
        Dataset { name: "golden-train".into(), num_items, sequences }
    },
    tune: |_| {},
};

/// 20 users of 2–9 events in a window of 40: 86 of the 800 window rows
/// have a target, and a shard computes its real rows plus one shared
/// padding prefix. A batch of 16 and one of 4 per epoch (shards of 8, 8
/// and 4), next-2 multi-hot targets.
const PADDED: Case = Case {
    fixture: "golden_train_padded.txt",
    title: "# Golden VSAN training run, left-padded: 3 epochs of 2 steps from seeded init.\n",
    dataset: || {
        let num_items = 11;
        let users = 20;
        let sequences = (0..users)
            .map(|u| {
                let len = 2 + (u * 3) % 8;
                (0..len).map(|t| ((u * 5 + t * 3) % num_items + 1) as u32).collect()
            })
            .collect();
        Dataset { name: "golden-train-padded".into(), num_items, sequences }
    },
    tune: |cfg| {
        cfg.base.max_seq_len = 40;
        cfg.next_k = 2;
    },
};

/// FNV-1a over every parameter's f32 bit patterns, in store order — one
/// u64 that moves if any trained bit moves.
fn param_hash(model: &Vsan) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (_, _, t) in model.params().iter() {
        for v in t.data() {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// One epoch's pinned decomposition, all as bit patterns.
#[derive(Debug, PartialEq, Eq)]
struct EpochBits {
    loss: u32,
    ce: u32,
    kl: u32,
    beta: u32,
}

fn run_train(case: &Case, threads: usize, tier: KernelTier) -> (u64, Vec<EpochBits>) {
    let ds = (case.dataset)();
    let users: Vec<usize> = (0..ds.sequences.len()).collect();
    let collector = Arc::new(CollectingObserver::new());
    let mut cfg = VsanConfig::smoke()
        .with_threads(threads)
        .with_kernel_tier(tier)
        .with_observer(ObserverHandle::new(collector.clone()));
    cfg.base.epochs = 3;
    (case.tune)(&mut cfg);
    let model = Vsan::train(&ds, &users, &cfg).expect("smoke training");
    assert_eq!(model.train_losses.len(), 3, "expected exactly three epochs");
    let epochs = collector
        .records()
        .iter()
        .map(|r| EpochBits {
            loss: r.loss.to_bits(),
            ce: r.ce.to_bits(),
            kl: r.kl.to_bits(),
            beta: r.beta.to_bits(),
        })
        .collect();
    (param_hash(&model), epochs)
}

fn fixture_path(case: &Case) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(case.fixture)
}

fn render(case: &Case, hash: u64, epochs: &[EpochBits]) -> String {
    let mut out = String::from(case.title);
    out.push_str(
        "# param_hash = FNV-1a over all parameter f32 bits (store order);\n\
         # epoch lines are f32 bit patterns in hex.\n\
         # Regenerate: VSAN_REGEN_GOLDEN=1 cargo test -p vsan-core --test golden_train\n",
    );
    out.push_str(&format!("param_hash {hash:016x}\n"));
    for (i, e) in epochs.iter().enumerate() {
        out.push_str(&format!(
            "epoch {i} loss {:08x} ce {:08x} kl {:08x} beta {:08x}\n",
            e.loss, e.ce, e.kl, e.beta
        ));
    }
    out
}

fn parse_fixture(text: &str) -> (u64, Vec<EpochBits>) {
    let mut hash = None;
    let mut epochs = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("param_hash ") {
            hash = Some(u64::from_str_radix(rest.trim(), 16).expect("hash hex"));
        } else if line.starts_with("epoch ") {
            let tok: Vec<&str> = line.split_whitespace().collect();
            // epoch <i> loss <x> ce <x> kl <x> beta <x>
            assert_eq!(tok.len(), 10, "malformed epoch line: {line}");
            let bits = |j: usize| u32::from_str_radix(tok[j], 16).expect("epoch hex");
            epochs.push(EpochBits { loss: bits(3), ce: bits(5), kl: bits(7), beta: bits(9) });
        }
    }
    (hash.expect("fixture missing param_hash line"), epochs)
}

/// Hold `case` to its fixture on the whole tier × thread grid (or, under
/// `VSAN_REGEN_GOLDEN=1`, rewrite the fixture).
fn check(case: &Case) {
    let path = fixture_path(case);

    if std::env::var("VSAN_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        // Regenerate from the most conservative cell of the grid: the
        // reference tier, serial. The assertion pass below then holds
        // the other three cells to these bits.
        let (hash, epochs) = run_train(case, 1, KernelTier::Reference);
        std::fs::create_dir_all(path.parent().unwrap()).expect("fixtures dir");
        std::fs::write(&path, render(case, hash, &epochs)).expect("write fixture");
        eprintln!("golden training fixture regenerated at {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it with VSAN_REGEN_GOLDEN=1",
            path.display()
        )
    });
    let (gold_hash, gold_epochs) = parse_fixture(&text);
    assert_eq!(gold_epochs.len(), 3, "fixture pins three epochs");

    for tier in [KernelTier::Reference, KernelTier::Fast] {
        for threads in [1, 4] {
            let (hash, epochs) = run_train(case, threads, tier);
            assert_eq!(
                hash,
                gold_hash,
                "trained parameter bits drifted from the fixture \
                 (tier={}, threads={threads}): got {hash:016x}, pinned {gold_hash:016x}",
                tier.name()
            );
            assert_eq!(
                epochs,
                gold_epochs,
                "loss decomposition drifted from the fixture (tier={}, threads={threads})",
                tier.name()
            );
        }
    }
}

#[test]
fn three_training_steps_match_the_golden_fixture_on_every_tier_and_thread_count() {
    check(&DENSE);
}

#[test]
fn padded_training_matches_the_golden_fixture_on_every_tier_and_thread_count() {
    check(&PADDED);
}
