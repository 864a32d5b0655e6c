//! Regenerates the paper's tables and figures from the experiment
//! registry (`vhadoop_bench::EXPERIMENTS`).
//!
//! ```sh
//! cargo run --release -p vhadoop-bench --bin repro -- [--full] [--only NAME[,NAME...]]
//! ```
//!
//! `--full` runs at the paper's data sizes instead of 1/8 of them;
//! `--only` runs the named entries instead of all of them. Each entry runs
//! to completion or panics on a failed shape check; every entry runs
//! either way, and the exit status is 1 when any failed.

use std::panic::catch_unwind;
use std::process::exit;
use vhadoop_bench::{Experiment, DEFAULT_SCALE, EXPERIMENTS};

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!("repro: {msg}\nusage: repro [--full] [--only NAME[,NAME...]]\nnames: {names:?}");
    exit(2)
}

fn main() {
    let mut scale = DEFAULT_SCALE;
    let mut selected: Vec<&Experiment> = EXPERIMENTS.iter().collect();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => scale = 1.0,
            "--only" => {
                let list = args.next().unwrap_or_else(|| usage("--only needs a name list"));
                selected = list
                    .split(',')
                    .map(|name| {
                        EXPERIMENTS
                            .iter()
                            .find(|e| e.name == name)
                            .unwrap_or_else(|| usage(&format!("unknown experiment {name:?}")))
                    })
                    .collect();
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }

    let mut failed = false;
    for e in selected {
        println!("==> {}", e.name);
        let ok = catch_unwind(|| (e.run)(scale)).is_ok();
        println!("--- {} {}", e.name, if ok { "OK" } else { "FAILED" });
        failed |= !ok;
    }
    exit(i32::from(failed))
}
