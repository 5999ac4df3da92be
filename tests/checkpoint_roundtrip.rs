//! Checkpoint round-trip, promoted from `examples/checkpoint_workflow`
//! into the test suite: train → save → reload into a fresh model →
//! bit-identical scores, both offline and through the serving engine.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vsan_repro::prelude::*;

fn smoke_setup() -> (Dataset, Split, VsanConfig) {
    let sim = synthetic::beauty(0.012);
    let mut rng = StdRng::seed_from_u64(5);
    let raw = synthetic::generate(&sim, &mut rng);
    let ds = Pipeline::default().run(&raw);
    let split = Split::strong_generalization(&ds, 10, 5, &mut rng);
    let mut cfg = VsanConfig::smoke();
    cfg.base.epochs = 2;
    (ds, split, cfg)
}

#[test]
fn saved_and_reloaded_model_scores_bit_identically() {
    let (ds, split, cfg) = smoke_setup();
    let model = Vsan::train(&ds, &split.train_users, &cfg).expect("training failed");

    // Persist with the workspace's binary format and reload into a
    // freshly initialized model, as a serving process would.
    let path = std::env::temp_dir().join("vsan_roundtrip_test.bin");
    std::fs::write(&path, model.params().save()).expect("write checkpoint");
    let blob = bytes::Bytes::from(std::fs::read(&path).expect("read checkpoint"));
    std::fs::remove_file(&path).ok();

    let mut restored = Vsan::init(ds.vocab(), &cfg);
    let tensors = restored.params_mut().load_values(blob).expect("restore checkpoint");
    assert!(tensors > 0, "checkpoint must contain parameter tensors");

    let views = Split::held_out_views(&ds, &split.test_users, 0.8);
    assert!(!views.is_empty());
    for view in views.iter().take(5) {
        assert_eq!(
            model.score_items(&view.fold_in),
            restored.score_items(&view.fold_in),
            "restored model must reproduce the trained model's scores bit-for-bit"
        );
    }

    // The restored weights serve exactly the original model's rankings.
    let history = views[0].fold_in.clone();
    let expected = model.recommend(&history, 10).unwrap();
    let engine = Engine::start(restored, EngineConfig::default());
    assert_eq!(
        engine.recommend(&history, 10).expect("engine reply"),
        expected,
        "serving a restored checkpoint must match the trained model"
    );
}
