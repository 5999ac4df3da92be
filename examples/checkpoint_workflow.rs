//! Production-style checkpoint workflow: train once, persist the weights
//! with the workspace's binary format, reload into a fresh process-like
//! model, and verify identical recommendations.
//!
//! ```text
//! cargo run --release --example checkpoint_workflow
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use vsan_repro::prelude::*;

fn main() {
    let sim = synthetic::beauty(0.02);
    let mut rng = StdRng::seed_from_u64(5);
    let raw = synthetic::generate(&sim, &mut rng);
    let ds = Pipeline::default().run(&raw);
    let split = Split::strong_generalization(&ds, 20, 5, &mut rng);

    let mut cfg = VsanConfig::repro("beauty");
    cfg.base = cfg.base.with_epochs(4);
    let model = Vsan::train(&ds, &split.train_users, &cfg).expect("training failed");
    println!("trained model: {} parameters", model.num_parameters());

    // Persist to disk.
    let path = std::env::temp_dir().join("vsan_checkpoint.bin");
    let blob = model.params().save();
    std::fs::write(&path, &blob).expect("write checkpoint");
    println!("checkpoint written: {} ({} bytes)", path.display(), blob.len());

    // Reload into a freshly initialized model (as a serving process would).
    let bytes = std::fs::read(&path).expect("read checkpoint");
    let mut serving = Vsan::init(ds.vocab(), &cfg);
    let restored = serving.params_mut().load_values(&bytes).expect("restore checkpoint");
    println!("restored {restored} parameter tensors");

    // Same inputs → same scores, bit for bit.
    let views = Split::held_out_views(&ds, &split.test_users, 0.8);
    let user = &views[0];
    let a = model.score_items(&user.fold_in);
    let b = serving.score_items(&user.fold_in);
    assert_eq!(a, b, "restored model must reproduce the trained model's scores");
    println!("verified: trained and restored models score identically");

    std::fs::remove_file(&path).ok();
}
