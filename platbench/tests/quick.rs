//! `--quick` smoke: tiny sizes, one pass, all four workloads, both trace
//! modes, through the real executable and the driver's command line.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["wc_fig2", "tpcxhs_sort", "kmeans_chain", "stream_1024"];

/// Runs the executable and returns its last line, which must be the result.
fn result_line(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_platbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace])
        .arg("--quick")
        .output()
        .expect("run platbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stdout}");
    let line = stdout.lines().last().expect("some output").to_string();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    line
}

#[test]
fn quick_runs_print_every_end_to_end_metric() {
    for w in WORKLOADS {
        let line = result_line(w, "0");
        for metric in ["wall_s", "peak_heap_mb", "sim_makespan_s", "setup_s"] {
            assert!(line.contains(&format!("\"{metric}\": {{\"value\": ")), "{w}: no {metric}");
        }
        assert!(!line.contains("core.launch_s"), "{w}: layer metric in an untraced run");
    }
}

#[test]
fn quick_traced_runs_print_the_layer_metrics() {
    for w in WORKLOADS {
        let line = result_line(w, "1");
        assert!(!line.contains("\"wall_s\""), "{w}: end-to-end metric in a traced run");
        // One metric per layer the workload is listed against.
        let expected: &[&str] = match w {
            "wc_fig2" => &["core.run_job_s", "workloads.map_s", "vmonitor.samples", "core.fork_s"],
            "tpcxhs_sort" => &["simcore.next_wakeup_s", "mapreduce.route_s", "vhdfs.register_s"],
            "kmeans_chain" => &["mlkit.map_s", "mlkit.combine_s", "mlkit.run_pass_s"],
            _ => &["core.step_s", "core.us_per_wakeup", "vsched.ticks", "core.snapshot_mb"],
        };
        for metric in expected {
            let key = format!("\"{metric}\": {{\"value\": ");
            let at = line.find(&key).unwrap_or_else(|| panic!("{w}: no {metric}"));
            let value: f64 = line[at + key.len()..]
                .split(',')
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{w}: {metric} is not a number"));
            assert!(value > 0.0, "{w}: {metric} = {value}");
        }
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_platbench"))
        .args(["--workload", "nope"])
        .output()
        .expect("run platbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result line on a usage error");
}
