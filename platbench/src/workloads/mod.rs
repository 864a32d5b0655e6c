//! The four workloads and what they share: the pass outcome, layer counters
//! read at the crate boundaries, and the snapshot study.

use crate::span;
use crate::stats::{median, Digest};
use std::collections::BTreeMap;
use std::time::Instant;
use vhadoop::prelude::*;

pub mod kmeans_chain;
pub mod stream_1024;
pub mod tpcxhs_sort;
pub mod wc_fig2;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["wc_fig2", "tpcxhs_sort", "kmeans_chain", "stream_1024"];

/// Seed of the platform itself (HDFS replica placement, dirty-page model):
/// part of the program's configuration, the same in every run. `--seed`
/// shapes only the generated inputs, so two seeds differ in data, not in
/// where the simulator happens to put it.
pub const PLATFORM_SEED: RootSeed = RootSeed(2012);

/// How a pass runs. Every mode runs the same deterministic simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Library entry points only, no probes — what the timed passes run.
    Plain,
    /// User code wrapped in probes and the event loop owned by the
    /// benchmark wherever the public API allows, spans recorded.
    Probed,
    /// `Plain` with the simulator's own tracer on, then exported.
    SimTraced,
}

/// Layer metric values of one pass, by `BENCHMARK.json` name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one pass produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Host seconds from the start of the launch to the last platform call;
    /// output checks and the digest are outside it.
    pub wall_s: f64,
    /// Simulated seconds from first submission to last job completion.
    pub sim_makespan_s: f64,
    /// FNV digest of the job outputs.
    pub digest: Digest,
    /// Jobs submitted.
    pub attempted: u64,
    /// Jobs that did not finish or were rejected, plus output checks missed.
    pub failed: u64,
    /// Why, one line per failure.
    pub failures: Vec<String>,
    /// Counters read at the layer boundaries (exact-repeat counts).
    pub layers: Layers,
}

/// One workload with its inputs generated.
pub trait Workload {
    /// Runs the workload once on a freshly launched platform.
    fn pass(&self, mode: Mode) -> Outcome;

    /// Host seconds set-up spent generating inputs (`workloads.gen_s`).
    fn gen_s(&self) -> f64;

    /// Snapshot, restore and fork cost mid-run, for the workloads that run
    /// on the `VHadoop` facade; `expected` is the pass this must reproduce.
    fn snapshot_study(&self, _expected: &Outcome) -> Option<(Layers, Vec<String>)> {
        None
    }
}

/// Generates the inputs of workload `name` from `seed`; `quick` shrinks
/// them to smoke-test size.
pub fn prepare(name: &str, seed: u64, quick: bool) -> Option<Box<dyn Workload>> {
    let seed = RootSeed(seed);
    Some(match name {
        "wc_fig2" => Box::new(wc_fig2::WcFig2::prepare(seed, quick)),
        "tpcxhs_sort" => Box::new(tpcxhs_sort::TpcxhsSort::prepare(seed, quick)),
        "kmeans_chain" => Box::new(kmeans_chain::KmeansChain::prepare(seed, quick)),
        "stream_1024" => Box::new(stream_1024::Stream1024::prepare(seed, quick)),
        _ => return None,
    })
}

/// Kernel work counters (`simcore.*`).
pub fn kernel_layers(k: &vhadoop::simcore::engine::KernelStats, out: &mut Layers) {
    out.insert("simcore.wakeups", k.wakeups as f64);
    out.insert("simcore.reallocations", k.reallocations as f64);
    out.insert("simcore.flows_touched", k.flows_touched as f64);
    out.insert("simcore.batch_applied", k.batch_applied as f64);
    out.insert("simcore.comp_size_p99", k.comp_size_p99 as f64);
    out.insert("simcore.comp_size_max", k.comp_size_max as f64);
}

/// Job counters summed over the jobs of a pass (`mapreduce.*`).
pub fn counter_layers<'a>(jobs: impl IntoIterator<Item = &'a Counters>, out: &mut Layers) {
    let mut sum = [0u64; 6];
    for c in jobs {
        let row = [
            c.launched_maps,
            c.launched_reduces,
            c.map_output_records,
            c.shuffle_bytes,
            c.relaunched_tasks,
            c.speculative_maps,
        ];
        sum.iter_mut().zip(row).for_each(|(s, x)| *s += x);
    }
    let names = [
        "mapreduce.launched_maps",
        "mapreduce.launched_reduces",
        "mapreduce.map_output_records",
        "mapreduce.shuffle_bytes",
        "mapreduce.relaunched_tasks",
        "mapreduce.speculative_maps",
    ];
    names.into_iter().zip(sum).for_each(|(n, s)| {
        out.insert(n, s as f64);
    });
}

/// Namespace size at the end of a pass (`vhdfs.*`).
pub fn hdfs_layers(hdfs: &Hdfs, out: &mut Layers) {
    let blocks = hdfs.namespace().blocks();
    let stored: u64 = blocks.iter().map(|(_, b)| b.len * b.replicas.len() as u64).sum();
    out.insert("vhdfs.blocks", blocks.len() as f64);
    out.insert("vhdfs.bytes_written", stored as f64);
    out.insert("vhdfs.under_replicated", hdfs.under_replicated_blocks() as f64);
}

/// Tracer export cost, read after a [`Mode::SimTraced`] pass.
pub fn tracer_layers(engine: &Engine, out: &mut Layers) {
    let t = Instant::now();
    let json = engine.tracer().to_chrome_json();
    out.insert("simcore.trace_export_s", t.elapsed().as_secs_f64());
    out.insert("simcore.trace_spans", engine.tracer().spans().len() as f64);
    std::hint::black_box(json);
}

/// Steps `p` until `stop` says so or the event queue drains; returns the
/// jobs that finished on the way.
pub fn drive(
    p: &mut VHadoop,
    mut stop: impl FnMut(&VHadoop, &[JobResult]) -> bool,
) -> Vec<JobResult> {
    let mut done = Vec::new();
    while !stop(p, &done) {
        let Some((_, events)) = span::within("core.step", || p.step()) else { break };
        for ev in events {
            if let PlatformEvent::Job(JobEvent::JobDone(res)) = ev {
                done.push(*res);
            }
        }
    }
    done
}

/// Median host seconds of five calls of `f`, and the last result. Each
/// result is dropped before the next call, outside the timed region.
fn median_of_calls<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..5 {
        drop(last.take());
        let t = Instant::now();
        let v = f();
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (median(&times), last.expect("five calls made"))
}

/// Times `snapshot`, `restore` and `fork` on the running platform `p` and
/// returns one restored copy, which must then finish exactly as `p` does.
pub fn snapshot_costs(p: &mut VHadoop, out: &mut Layers) -> VHadoop {
    let (snapshot_s, snap) = median_of_calls(|| p.snapshot());
    let (restore_s, restored) = median_of_calls(|| VHadoop::restore(&snap));
    let (fork_s, _) = median_of_calls(|| p.fork());
    out.insert("core.snapshot_s", snapshot_s);
    out.insert("core.restore_s", restore_s);
    out.insert("core.fork_s", fork_s);
    out.insert("core.snapshot_mb", snap.bytes.len() as f64 / 1e6);
    restored
}
