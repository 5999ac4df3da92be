//! # vsan-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§V). Each artifact has a dedicated binary:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table2` | Table II — dataset statistics (simulator calibration) |
//! | `table3` | Table III — overall comparison, 9 models × 2 datasets |
//! | `table4` | Table IV — Recall@20 over the (h₁, h₂) block grid |
//! | `table5` | Table V — latent-variable ablation (VSAN vs VSAN-z) |
//! | `table6` | Table VI — point-wise FFN ablations |
//! | `fig3` | Fig. 3 — next-`k` sweep, VSAN vs SVAE |
//! | `fig4` | Fig. 4 — embedding-dimension sweep, VSAN vs SASRec |
//! | `fig5` | Fig. 5 — dropout sweep |
//! | `fig6` | Fig. 6 — fixed β sweep vs KL annealing |
//! | `serve_bench` | not in the paper: `vsan-serve` engine throughput vs a sequential loop |
//! | `retrieval_bench` | not in the paper: clustered MIPS vs exact oracle at N ∈ {12k, 100k, 1M} (`results/BENCH_retrieval.json`) |
//!
//! Every binary accepts `--scale smoke|repro|paper` (default `repro`),
//! `--seeds N` (default 1 for grids, 3 for Table III), and `--dataset
//! beauty|ml1m|both`. Criterion micro-benches for the §IV-F complexity
//! claims live in `benches/`.

pub mod retrieval_bench;
pub mod serve_bench;

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vsan_core::{Vsan, VsanConfig};
use vsan_data::preprocess::Pipeline;
use vsan_data::split::Split;
use vsan_data::synthetic;
use vsan_data::{Dataset, HeldOutUser};
use vsan_eval::{evaluate_held_out, EvalConfig, MetricsReport, Scorer};
use vsan_models::NeuralConfig;

/// Experiment scale: how big the simulated datasets and training runs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long sanity runs (CI).
    Smoke,
    /// The default: minutes-long runs that preserve the paper's *shape*
    /// (who wins, rough factors) at CPU-tractable sizes.
    Repro,
    /// Paper-sized datasets and budgets — hours per model on CPU.
    Paper,
}

impl Scale {
    /// Parse a CLI string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Some(Scale::Smoke),
            "repro" => Some(Scale::Repro),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Simulator scale factor for this run size.
    pub fn sim_scale(self) -> f64 {
        match self {
            Scale::Smoke => 0.012,
            Scale::Repro => 0.08,
            Scale::Paper => 1.0,
        }
    }

    /// Held-out users per split (paper: 1 200 Beauty / 750 ML-1M).
    pub fn held_out(self, beauty_like: bool) -> usize {
        match self {
            Scale::Smoke => 20,
            Scale::Repro => if beauty_like { 120 } else { 75 },
            Scale::Paper => if beauty_like { 1200 } else { 750 },
        }
    }

    /// Reduced training budget for hyper-parameter *grids* (Table IV's
    /// 16 cells, the Fig. 3–6 sweeps): full repro budgets on every grid
    /// point would take hours on one core, and relative orderings inside
    /// a grid stabilize much earlier than absolute metrics.
    pub fn grid_epochs(self) -> usize {
        match self {
            Scale::Smoke => 2,
            Scale::Repro => 10,
            Scale::Paper => 100,
        }
    }

    /// Neural config preset for this scale and dataset.
    pub fn neural_config(self, dataset: &str) -> NeuralConfig {
        match self {
            Scale::Smoke => {
                let mut c = NeuralConfig::smoke();
                // keep window meaningful even at smoke scale
                c.max_seq_len = 12;
                c.epochs = 4;
                c
            }
            Scale::Repro => NeuralConfig::repro(dataset),
            Scale::Paper => NeuralConfig::paper(dataset),
        }
    }

    /// VSAN config preset for this scale and dataset.
    pub fn vsan_config(self, dataset: &str) -> VsanConfig {
        match self {
            Scale::Smoke => {
                let mut c = VsanConfig::smoke();
                c.base = self.neural_config(dataset);
                c
            }
            Scale::Repro => VsanConfig::repro(dataset),
            Scale::Paper => VsanConfig::paper(dataset),
        }
    }
}

/// Which simulated dataset(s) an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetChoice {
    /// Amazon-Beauty-like simulation.
    Beauty,
    /// MovieLens-1M-like simulation.
    Ml1m,
    /// Both, in paper order.
    Both,
}

impl DatasetChoice {
    /// Parse a CLI string.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "beauty" => Some(Self::Beauty),
            "ml1m" | "ml-1m" => Some(Self::Ml1m),
            "both" => Some(Self::Both),
            _ => None,
        }
    }

    /// The dataset names selected.
    pub fn names(self) -> Vec<&'static str> {
        match self {
            Self::Beauty => vec!["beauty"],
            Self::Ml1m => vec!["ml1m"],
            Self::Both => vec!["beauty", "ml1m"],
        }
    }
}

/// Common CLI arguments shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpArgs {
    /// Run size.
    pub scale: Scale,
    /// Random seeds (runs are averaged, as the paper averages 5 runs).
    pub seeds: Vec<u64>,
    /// Dataset selection.
    pub datasets: DatasetChoice,
}

impl ExpArgs {
    /// Parse `--scale`, `--seeds`, `--dataset` from `std::env::args`,
    /// with the given default seed count.
    pub fn from_env(default_seeds: usize) -> ExpArgs {
        let args: Vec<String> = std::env::args().collect();
        let mut scale = Scale::Repro;
        let mut seeds = default_seeds;
        let mut datasets = DatasetChoice::Both;
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" if i + 1 < args.len() => {
                    scale = Scale::parse(&args[i + 1]).unwrap_or_else(|| {
                        eprintln!("unknown scale {:?}; using repro", args[i + 1]);
                        Scale::Repro
                    });
                    i += 2;
                }
                "--seeds" if i + 1 < args.len() => {
                    seeds = args[i + 1].parse().unwrap_or(default_seeds);
                    i += 2;
                }
                "--dataset" if i + 1 < args.len() => {
                    datasets = DatasetChoice::parse(&args[i + 1]).unwrap_or(DatasetChoice::Both);
                    i += 2;
                }
                other => {
                    eprintln!("ignoring unknown argument {other:?}");
                    i += 1;
                }
            }
        }
        ExpArgs { scale, seeds: (0..seeds as u64).map(|s| 42 + s).collect(), datasets }
    }
}

/// A prepared experiment environment: processed dataset + split + held-out
/// evaluation views.
pub struct Bench {
    /// Processed dataset.
    pub ds: Dataset,
    /// Strong-generalization user split.
    pub split: Split,
    /// Test users' fold-in/target views (80/20).
    pub test_views: Vec<HeldOutUser>,
    /// Validation users' views.
    pub val_views: Vec<HeldOutUser>,
}

impl Bench {
    /// Build a simulated dataset, preprocess it with the paper's pipeline,
    /// and split it under strong generalization.
    pub fn prepare(dataset: &str, scale: Scale, seed: u64) -> Bench {
        let beauty_like = dataset.contains("beauty");
        let cfg = if beauty_like {
            synthetic::beauty(scale.sim_scale())
        } else {
            synthetic::ml1m(scale.sim_scale())
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let raw = synthetic::generate(&cfg, &mut rng);
        let ds = Pipeline::default().run(&raw);
        let held_out = scale.held_out(beauty_like);
        let split = Split::strong_generalization(&ds, held_out, 5, &mut rng);
        let test_views = Split::held_out_views(&ds, &split.test_users, 0.8);
        let val_views = Split::held_out_views(&ds, &split.val_users, 0.8);
        Bench { ds, split, test_views, val_views }
    }

    /// Display name of the dataset.
    pub fn name(&self) -> &str {
        &self.ds.name
    }

    /// Evaluate a scorer on the test users at the paper's cutoffs.
    pub fn evaluate(&self, scorer: &dyn Scorer) -> MetricsReport {
        evaluate_held_out(scorer, &self.test_views, &EvalConfig::default())
    }

    /// Evaluate on the validation users (hyper-parameter grids).
    pub fn evaluate_val(&self, scorer: &dyn Scorer) -> MetricsReport {
        evaluate_held_out(scorer, &self.val_views, &EvalConfig::default())
    }

    /// Train a VSAN with a config derived from this bench's scale.
    pub fn train_vsan(&self, cfg: &VsanConfig) -> Vsan {
        Vsan::train(&self.ds, &self.split.train_users, cfg)
            .expect("VSAN training failed (non-finite loss)")
    }
}

/// Run a labelled closure, printing wall-clock time — experiment logs
/// should show where the budget goes.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    eprintln!("  [{label}: {:.1}s]", start.elapsed().as_secs_f32());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("REPRO"), Some(Scale::Repro));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
        assert!(Scale::Smoke.sim_scale() < Scale::Repro.sim_scale());
        assert!(Scale::Repro.sim_scale() < Scale::Paper.sim_scale());
    }

    #[test]
    fn dataset_choice_parsing() {
        assert_eq!(DatasetChoice::parse("beauty"), Some(DatasetChoice::Beauty));
        assert_eq!(DatasetChoice::parse("ML-1M"), Some(DatasetChoice::Ml1m));
        assert_eq!(DatasetChoice::parse("both").unwrap().names().len(), 2);
    }

    #[test]
    fn smoke_bench_prepares_consistent_views() {
        let bench = Bench::prepare("beauty", Scale::Smoke, 1);
        assert!(bench.ds.num_users() > 0);
        assert!(!bench.test_views.is_empty());
        assert_eq!(bench.test_views.len(), bench.split.test_users.len());
        for v in &bench.test_views {
            assert!(!v.fold_in.is_empty());
            assert!(!v.targets.is_empty());
        }
        bench.ds.check_invariants().unwrap();
    }

    #[test]
    fn smoke_bench_end_to_end_pop() {
        let bench = Bench::prepare("ml1m", Scale::Smoke, 2);
        let pop = vsan_models::Pop::train(&bench.ds, &bench.split.train_users);
        let report = bench.evaluate(&pop);
        // POP should do *something* but not be perfect.
        let recall = report.get("Recall", 20).unwrap();
        assert!((0.0..1.0).contains(&recall), "POP Recall@20 {recall}");
        assert!(report.users() > 0);
    }
}
