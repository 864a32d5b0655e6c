//! `platbench` — the platform benchmark: four long, warmed,
//! median-of-passes workloads with an outside-in layer trace.
//!
//! ```sh
//! cargo run --release --offline --manifest-path platbench/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! See `platbench/README.md` for the run protocol and the metric catalogue.

mod alloc;
mod metrics;
mod probe;
mod span;
mod stats;
mod workloads;

use metrics::{END_TO_END, PER_LAYER};
use stats::median;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Layers, Mode, Outcome, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per run: inputs generated, platform launched and one untimed
/// warm-up pass run, each time from scratch; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed passes whatever `--seconds` says.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage: platbench --workload <wc_fig2|tpcxhs_sort|kmeans_chain|stream_1024> \
[--seed <u64>] [--seconds <n>] [--trace <0|1>] [--quick]\n       platbench --selfcheck [--seed <u64>] [--seconds <n>]";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 2012,
        seconds: 18.0,
        trace: false,
        quick: false,
        selfcheck: false,
    };
    let mut argv = argv.skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                    return Err(format!("--seconds {} is outside 0..=3600", args.seconds));
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--traced" => args.trace = true,
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.selfcheck {
        match &args.workload {
            None => return Err("--workload is required".into()),
            Some(w) if !workloads::NAMES.contains(&w.as_str()) => {
                return Err(format!("unknown workload {w}"))
            }
            Some(_) => {}
        }
    }
    Ok(args)
}

/// One pass with the allocator's high-water mark restarted; returns the
/// outcome, the pass's peak live bytes, and the bytes and calls it allocated.
fn measured_pass(w: &dyn Workload, mode: Mode) -> (Outcome, u64, u64, u64) {
    let before = alloc::snapshot();
    alloc::reset_peak();
    let out = w.pass(mode);
    let after = alloc::snapshot();
    (out, after.peak, after.bytes - before.bytes, after.calls - before.calls)
}

/// Failure accounting across the passes of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Records the misses of a pass; `reference` is the run's first pass,
    /// whose simulated result every later pass must reproduce bit for bit.
    fn check(&mut self, what: &str, out: &Outcome, reference: Option<&Outcome>) {
        self.failed += out.failed;
        self.failures.extend(out.failures.iter().map(|f| format!("{what}: {f}")));
        if let Some(r) = reference {
            if out.sim_makespan_s.to_bits() != r.sim_makespan_s.to_bits() || out.digest != r.digest
            {
                self.miss(format!(
                    "{what}: sim_makespan_s {} digest {:#018x}, first pass had {} and {:#018x}",
                    out.sim_makespan_s, out.digest.0, r.sim_makespan_s, r.digest.0
                ));
            }
        }
    }

    /// [`Tally::check`], and counts the pass's jobs as operations of the run.
    fn pass(&mut self, what: &str, out: &Outcome, reference: &Outcome) {
        self.attempted += out.attempted;
        self.check(what, out, Some(reference));
    }

    fn miss(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

struct Report {
    metrics: Vec<(&'static str, &'static str, f64)>,
    tally: Tally,
}

impl Report {
    /// Prints the metrics by name with units, then the result line.
    fn print(&self) -> ExitCode {
        for (name, unit, value) in &self.metrics {
            println!("{name:<32} {value:>16.6} {unit}");
        }
        println!("ops_attempted {}  ops_failed {}", self.tally.attempted, self.tally.failed);
        for f in &self.tally.failures {
            println!("FAILED {f}");
        }
        let correct = self.tally.failed == 0;
        let mut line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.attempted.max(1),
            self.tally.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(line, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        line.push_str("}}");
        println!("{line}");
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// `setups` set-ups from scratch; returns the last prepared workload, the
/// set-up times and the reference outcome of the first warm-up pass.
fn set_up(args: &Args, setups: usize, tally: &mut Tally) -> (Box<dyn Workload>, Vec<f64>, Outcome) {
    let name = args.workload.as_deref().expect("checked by parse_args");
    let mut times = Vec::new();
    let mut first: Option<Outcome> = None;
    let mut prepared = None;
    for i in 0..setups {
        drop(prepared.take());
        let t = Instant::now();
        let w = workloads::prepare(name, args.seed, args.quick).expect("checked by parse_args");
        let warm = w.pass(Mode::Plain);
        times.push(t.elapsed().as_secs_f64());
        // Warm-up jobs are not operations of the run; only their misses count.
        tally.check(&format!("warm-up {i}"), &warm, first.as_ref());
        first.get_or_insert(warm);
        prepared = Some(w);
    }
    (prepared.expect("at least one set-up"), times, first.expect("at least one set-up"))
}

fn run_timed(args: &Args) -> Report {
    let mut tally = Tally::default();
    let (w, setups, reference) = set_up(args, if args.quick { 1 } else { SETUPS }, &mut tally);

    let (mut walls, mut peak) = (Vec::new(), 0u64);
    let measuring = Instant::now();
    let min_passes = if args.quick { 1 } else { MIN_PASSES };
    while walls.len() < min_passes
        || (!args.quick && measuring.elapsed().as_secs_f64() < args.seconds)
    {
        let (out, pass_peak, _, _) = measured_pass(w.as_ref(), Mode::Plain);
        tally.pass(&format!("pass {}", walls.len()), &out, &reference);
        walls.push(out.wall_s);
        peak = peak.max(pass_peak);
    }

    let list = |xs: &[f64]| xs.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ");
    println!(
        "platbench {} seed {} digest {:#018x}",
        args.workload.as_deref().unwrap_or_default(),
        args.seed,
        reference.digest.0
    );
    println!("setup_s samples ({}): {}", setups.len(), list(&setups));
    println!("pass wall_s samples ({}): {}", walls.len(), list(&walls));
    let values = [median(&walls), peak as f64 / 1e6, reference.sim_makespan_s, median(&setups)];
    let metrics = END_TO_END.iter().zip(values).map(|(m, v)| (m.name, m.unit, v)).collect();
    Report { metrics, tally }
}

fn run_traced(args: &Args) -> Report {
    let mut tally = Tally::default();
    let (w, _, reference) = set_up(args, 1, &mut tally);

    let (plain, _, alloc_bytes, alloc_calls) = measured_pass(w.as_ref(), Mode::Plain);
    tally.pass("plain pass", &plain, &reference);
    span::start_recording();
    let probed = w.pass(Mode::Probed);
    let spans = span::stop_recording();
    tally.pass("probed pass", &probed, &reference);
    let sim_traced = w.pass(Mode::SimTraced);
    tally.pass("tracer pass", &sim_traced, &reference);
    // Counts read at the layer boundaries repeat exactly, probes or not.
    for (name, value) in &plain.layers {
        for (what, other) in [("probed", &probed), ("tracer", &sim_traced)] {
            if other.layers.get(name).is_some_and(|v| v != value) {
                tally.miss(format!("{name} is {value} plain but {} {what}", other.layers[name]));
            }
        }
    }

    let (by_name, root_ns) = span::totals(&spans);
    let secs = |ns: u64| ns as f64 / 1e9;
    let busy = |n: &str| by_name.get(n).map_or(0.0, |t| secs(t.busy_ns));
    let own = |n: &str| by_name.get(n).map_or(0.0, |t| secs(t.self_ns));
    let calls = |n: &str| by_name.get(n).map_or(0.0, |t| t.calls as f64);
    // Self times partition the root span, which brackets what `wall_s` times.
    let self_sum_frac = secs(root_ns) / probed.wall_s;
    if (self_sum_frac - 1.0).abs() > 0.02 {
        tally.miss(format!("span self times sum to {self_sum_frac:.4} of the probed pass wall"));
    }

    let mut layers: Layers = probed.layers.clone();
    // A metric `<span>_s` is the busy time of the spans named `<span>`.
    for &(metric, _) in PER_LAYER {
        if let Some(t) = metric.strip_suffix("_s").and_then(|span_name| by_name.get(span_name)) {
            layers.insert(metric, secs(t.busy_ns));
        }
    }
    // The framework's own time around user code, wherever the public API
    // lets the benchmark bracket it: routed wakeups (`tpcxhs_sort`),
    // `run_job` (`wc_fig2`), `run_pass` (`kmeans_chain`).
    layers.insert(
        "mapreduce.self_s",
        own("mapreduce.route") + own("core.run_job") + own("mlkit.run_pass"),
    );
    let steps = calls("core.step");
    layers.insert("core.steps", steps);
    layers.insert(
        "core.us_per_wakeup",
        if steps > 0.0 { busy("core.step") / steps * 1e6 } else { 0.0 },
    );
    layers.insert("workloads.gen_s", w.gen_s());
    layers.insert("alloc.bytes_per_pass", alloc_bytes as f64);
    layers.insert("alloc.calls_per_pass", alloc_calls as f64);
    layers.insert("trace.plain_wall_s", plain.wall_s);
    layers.insert("trace.probed_wall_s", probed.wall_s);
    layers.insert("trace.probe_overhead_frac", (probed.wall_s - plain.wall_s) / plain.wall_s);
    layers.insert("trace.unattributed_frac", own("platbench.pass") / secs(root_ns));
    layers.insert("simcore.trace_overhead_frac", (sim_traced.wall_s - plain.wall_s) / plain.wall_s);
    for name in ["simcore.trace_export_s", "simcore.trace_spans"] {
        layers.insert(name, sim_traced.layers.get(name).copied().unwrap_or(0.0));
    }
    if let Some((study, failures)) = w.snapshot_study(&plain) {
        layers.extend(study);
        failures.into_iter().for_each(|f| tally.miss(format!("snapshot study: {f}")));
    }

    let name = args.workload.as_deref().unwrap_or_default();
    println!(
        "platbench {name} seed {} traced; sim_makespan_s {} digest {:#018x}",
        args.seed, reference.sim_makespan_s, reference.digest.0
    );
    println!("span self times sum to {self_sum_frac:.6} of the probed pass wall");
    println!("{:<28} {:>10} {:>12} {:>12}", "span", "calls", "busy_s", "self_s");
    for (n, t) in &by_name {
        println!("{n:<28} {:>10} {:>12.6} {:>12.6}", t.calls, secs(t.busy_ns), secs(t.self_ns));
    }
    write_spans(name, &spans);

    for name in layers.keys() {
        assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name} missing from the catalogue");
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(n, unit)| (n, unit, layers.get(n).copied().unwrap_or(0.0)))
        .collect();
    Report { metrics, tally }
}

/// Writes the spans out at exit, under `platbench/out/`.
fn write_spans(workload: &str, spans: &[span::Span]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{workload}.spans.csv"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, span::to_csv(spans))) {
        Ok(()) => println!("wrote {} span records to {}", spans.len(), path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
}

/// Value of `metric` in a result line this program printed.
fn metric_in(line: &str, metric: &str) -> Option<f64> {
    let key = format!("\"{metric}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Two full sets of runs back to back; fails if any metric's two values
/// differ by more than its bound (at all, for a simulated metric), or any
/// run fails.
fn selfcheck(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut results: Vec<Vec<Option<String>>> = Vec::new();
    for set in 0..2 {
        let mut lines = Vec::new();
        for name in workloads::NAMES {
            let out = std::process::Command::new(&exe)
                .args(["--workload", name, "--trace", "0"])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .output()
                .expect("spawn own executable");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().filter(|_| out.status.success());
            println!("set {set} {name}: {}", line.unwrap_or("RUN FAILED"));
            lines.push(line.map(String::from));
        }
        results.push(lines);
    }
    let mut ok = true;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 0", "set 1", "diff", "bound"
    );
    for (i, name) in workloads::NAMES.iter().enumerate() {
        for m in &END_TO_END {
            let value = |set: usize| results[set][i].as_deref().and_then(|l| metric_in(l, m.name));
            let (Some(a), Some(b)) = (value(0), value(1)) else {
                println!("{name:<14} {:<16} missing", m.name);
                ok = false;
                continue;
            };
            let diff = (a - b).abs() / a.min(b);
            let limit = if m.exact_repeat { 0.0 } else { m.bound };
            let verdict = if diff <= limit { "" } else { "  OUT OF BOUND" };
            println!(
                "{name:<14} {:<16} {a:>14.6} {b:>14.6} {diff:>9.5} {limit:>7}{verdict}",
                m.name
            );
            ok &= diff <= limit;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("platbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return selfcheck(&args);
    }
    let report = if args.trace { run_traced(&args) } else { run_timed(&args) };
    report.print()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(std::iter::once("platbench").chain(args.iter().copied()).map(String::from))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse(&["--workload", "wc_fig2", "--seed", "7", "--seconds", "10", "--trace", "1"])
            .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("wc_fig2"), 7, 10.0, true)
        );
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "wc_fig2", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "wc_fig2", "--seconds", "-1"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err(), "a workload is required");
        assert!(parse(&["--selfcheck"]).unwrap().selfcheck);
    }

    #[test]
    fn result_line_round_trips_through_metric_in() {
        let line = "{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": {\"wall_s\": \
                    {\"value\": 1.25, \"unit\": \"s\"}, \"setup_s\": {\"value\": 2.5e-1, \"unit\": \"s\"}}}";
        assert_eq!(metric_in(line, "wall_s"), Some(1.25));
        assert_eq!(metric_in(line, "setup_s"), Some(0.25));
        assert_eq!(metric_in(line, "peak_heap_mb"), None);
    }
}
