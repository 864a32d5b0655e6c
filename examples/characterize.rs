//! Characterize: run an ALOJA-style configuration sweep, fit the CART
//! cost model on the resulting dataset, evaluate it against the
//! hand-priced estimator on held-out rows, and leave everything under
//! `results/`:
//!
//! * `results/characterization.{csv,json}` — the versioned sweep dataset
//!   (configuration axes, decision-time features, observed counters,
//!   measured makespan + SLO labels);
//! * `results/costmodel.csv`  — per-held-out-row hand vs. learned
//!   estimates and absolute errors;
//! * `results/costmodel.json` — the evaluation summary (split sizes,
//!   tree shape, MAE and p90 error for both models).
//!
//! ```sh
//! cargo run --release -p vhadoop-examples --bin characterize -- \
//!     [--tiny|--quick|--full] [--threads N]
//! ```
//!
//! The dataset is byte-identical for every `--threads` value — runs are
//! seeded per configuration and results are assembled in configuration
//! order, never in completion order.

use std::path::Path;

use vchar::prelude::*;

fn main() {
    // 1. CLI: grid preset and worker count.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut spec = SweepSpec::quick();
    let mut preset = "quick";
    let mut threads: usize = 4;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tiny" => (spec, preset) = (SweepSpec::tiny(), "tiny"),
            "--quick" => (spec, preset) = (SweepSpec::quick(), "quick"),
            "--full" => (spec, preset) = (SweepSpec::full(), "full"),
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a positive integer");
            }
            other => {
                panic!("unknown argument {other:?}; use [--tiny|--quick|--full] [--threads N]")
            }
        }
    }

    // 2. Sweep: hundreds of deterministic simulations over the
    // (mix × placement × scheduler × shape × fault) grid. Fault variants
    // of one configuration share a snapshot-forked warm-up prefix.
    println!(
        "sweep[{preset}]: {} groups x {} fault variants = {} runs on {threads} thread(s)",
        spec.groups().len(),
        spec.faults.len(),
        spec.runs()
    );
    let dataset = run_sweep(&spec, threads);
    assert_eq!(dataset.rows.len(), spec.runs(), "one row per configured run");
    assert!(dataset.rows.iter().all(|r| r.makespan_s > 0.0), "zero makespan label");
    let (csv, json) = dataset.write(Path::new("results")).expect("write dataset");
    println!(
        "dataset v{DATASET_VERSION}: {} rows -> {}, {}",
        dataset.rows.len(),
        csv.display(),
        json.display()
    );

    // 3. Fit the regression tree and score it against the hand-priced
    // estimator (feature 0 of every row) on the held-out quarter.
    let (tree, eval) = fit_cost_model(&dataset);
    println!(
        "tree: {} nodes, depth {}, trained on {} rows, {} held out",
        eval.tree_nodes, eval.tree_depth, eval.rows_train, eval.rows_heldout
    );
    println!(
        "held-out error: learned MAE {:.2}s (p90 {:.2}s) vs hand-priced MAE {:.2}s (p90 {:.2}s)",
        eval.learned_mae_s, eval.learned_p90_s, eval.hand_mae_s, eval.hand_p90_s
    );

    // 4. Emit the comparison artifacts.
    std::fs::write("results/costmodel.csv", heldout_csv(&dataset, &tree))
        .expect("write costmodel.csv");
    std::fs::write("results/costmodel.json", eval.to_json()).expect("write costmodel.json");
    println!("wrote results/costmodel.csv, results/costmodel.json");

    if eval.rows_heldout > 0 {
        assert!(
            eval.learned_mae_s <= eval.hand_mae_s,
            "the fitted tree should beat the hand-priced estimator it recalibrates \
             (learned {:.2}s vs hand {:.2}s)",
            eval.learned_mae_s,
            eval.hand_mae_s
        );
        println!(
            "the learned model cuts held-out MAE by {:.0}%",
            (1.0 - eval.learned_mae_s / eval.hand_mae_s) * 100.0
        );
    }
}
