//! Wordcount — "reads text files and counts how often words occur"
//! (paper Table I, Fig. 2 workload).

use crate::textgen::TextCorpus;
use mapreduce::prelude::*;
use simcore::rng::RootSeed;
use vcluster::spec::ClusterSpec;
use vhdfs::hdfs::{Hdfs, HdfsConfig};

/// The Wordcount application: mapper splits lines into words emitting
/// `(word, 1)`, the combiner/reducer sum per word.
#[derive(Debug, Clone, Copy, Default)]
pub struct WordCountApp;

impl MapReduceApp for WordCountApp {
    fn name(&self) -> &str {
        "wordcount"
    }

    fn map(&self, _k: &K, value: &V, out: &mut dyn FnMut(K, V)) {
        for w in value.as_text().split_whitespace() {
            out(K::from(w), V::Int(1));
        }
    }

    fn reduce(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) {
        out(key.clone(), V::Int(values.iter().map(V::as_int).sum()));
    }

    fn combine(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) -> bool {
        out(key.clone(), V::Int(values.iter().map(V::as_int).sum()));
        true
    }

    fn cost(&self) -> CostProfile {
        // Tokenization-heavy: high per-byte cost relative to the default.
        CostProfile { map_cpu_per_byte: 120.0, map_cpu_per_record: 6_000.0, ..Default::default() }
    }
}

/// Result of one Wordcount run.
#[derive(Debug, Clone)]
pub struct WordcountReport {
    /// Input size in bytes.
    pub input_bytes: u64,
    /// Job wall time, seconds.
    pub elapsed_s: f64,
    /// Kernel work counters of the run (reallocations, flows touched, …) —
    /// the bench harness reports these next to simulated times so solver
    /// regressions show up in the trajectory.
    pub kernel: simcore::engine::KernelStats,
    /// Full job result (counters, outputs).
    pub result: JobResult,
}

/// Runs Wordcount over `input_bytes` of generated TOEFL-like text on a
/// fresh cluster described by `cluster_spec` (default HDFS settings).
pub fn run_wordcount(
    cluster_spec: ClusterSpec,
    input_bytes: u64,
    config: JobConfig,
    seed: RootSeed,
) -> WordcountReport {
    run_wordcount_with(cluster_spec, input_bytes, config, HdfsConfig::default(), seed)
}

/// [`run_wordcount`] with explicit HDFS settings (block size controls the
/// map count: sweeps that must exercise every worker shrink the blocks).
pub fn run_wordcount_with(
    cluster_spec: ClusterSpec,
    input_bytes: u64,
    config: JobConfig,
    hdfs_cfg: HdfsConfig,
    seed: RootSeed,
) -> WordcountReport {
    run_wordcount_inner(cluster_spec, input_bytes, config, hdfs_cfg, seed, false).0
}

/// [`run_wordcount_with`] with the structured tracer enabled: also returns
/// the run's Chrome `trace_event` JSON (identical config + seed produce a
/// byte-identical trace).
pub fn run_wordcount_traced(
    cluster_spec: ClusterSpec,
    input_bytes: u64,
    config: JobConfig,
    hdfs_cfg: HdfsConfig,
    seed: RootSeed,
) -> (WordcountReport, String) {
    let (report, trace) =
        run_wordcount_inner(cluster_spec, input_bytes, config, hdfs_cfg, seed, true);
    (report, trace.expect("tracing was enabled"))
}

fn run_wordcount_inner(
    cluster_spec: ClusterSpec,
    input_bytes: u64,
    config: JobConfig,
    hdfs_cfg: HdfsConfig,
    seed: RootSeed,
    traced: bool,
) -> (WordcountReport, Option<String>) {
    let mut rt = MrRuntime::new(cluster_spec, hdfs_cfg, seed);
    rt.engine.tracer_mut().set_enabled(traced);
    rt.register_input("/wordcount/in", input_bytes, VmId(1));
    let corpus = TextCorpus::english_like(seed.derive("corpus"));
    let input = text_input(&rt.hdfs, "/wordcount/in", corpus);
    let spec = JobSpec::new("wordcount", "/wordcount/in", "/wordcount/out").with_config(config);
    let result = rt.run_job(spec, Box::new(WordCountApp), Box::new(input));
    let trace = traced.then(|| rt.engine.tracer().to_chrome_json());
    let kernel = rt.engine.kernel_stats();
    (WordcountReport { input_bytes, elapsed_s: result.elapsed_secs(), kernel, result }, trace)
}

/// Registers a fresh input file and submits one Wordcount job on an
/// existing runtime without driving it — building block for
/// keep-the-cluster-busy scenarios (migration under load). `run` makes
/// paths unique across successive submissions.
pub fn submit_wordcount(
    rt: &mut MrRuntime,
    run: u32,
    input_bytes: u64,
    config: JobConfig,
    seed: RootSeed,
) -> JobId {
    let path = format!("/wc-load/in-{run:04}");
    rt.register_input(&path, input_bytes, VmId(1 + (run % 4)));
    let corpus = TextCorpus::english_like(seed.derive("load").derive_index(u64::from(run)));
    let input = text_input(&rt.hdfs, &path, corpus);
    let spec = JobSpec::new(format!("wordcount-{run}"), path, format!("/wc-load/out-{run:04}"))
        .with_config(config);
    rt.submit(spec, Box::new(WordCountApp), Box::new(input))
}

/// Wordcount input over the HDFS file at `path`, registered or uploaded:
/// one split per block, each `corpus` text of its block's length (the
/// last block may be short).
pub fn text_input(
    hdfs: &Hdfs,
    path: &str,
    corpus: TextCorpus,
) -> GeneratorInput<impl Fn(usize) -> Vec<Record> + Send> {
    let file = hdfs.stat(path).unwrap_or_else(|| panic!("{path} is not in HDFS"));
    let (len, blocks) = (file.len, file.blocks.len());
    let block_size = hdfs.config().block_size;
    let last = blocks - 1;
    GeneratorInput::new(blocks, block_size, move |idx| {
        let bytes = if idx == last { len - (last as u64) * block_size } else { block_size };
        corpus.split_records(idx, bytes)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcluster::spec::Placement;

    const MB: u64 = 1024 * 1024;

    fn small_cluster(placement: Placement) -> ClusterSpec {
        ClusterSpec::builder().hosts(2).vms(8).placement(placement).build()
    }

    #[test]
    fn wordcount_runs_and_counts() {
        let rep = run_wordcount(
            small_cluster(Placement::SingleDomain),
            2 * MB,
            JobConfig::default(),
            RootSeed(3),
        );
        assert!(rep.elapsed_s > 1.0);
        assert!(rep.result.counters.map_input_records > 1_000);
        // Zipf head: some word counted many times.
        let max_count = rep.result.outputs.iter().map(|(_, v)| v.as_int()).max().unwrap();
        assert!(max_count > 100, "head word count {max_count}");
    }

    #[test]
    fn runtime_grows_with_input_size() {
        let t = |mb: u64| {
            run_wordcount(
                small_cluster(Placement::SingleDomain),
                mb * MB,
                JobConfig::default(),
                RootSeed(3),
            )
            .elapsed_s
        };
        let (t2, t8) = (t(2), t(8));
        assert!(t8 > t2, "8 MB ({t8:.2}s) slower than 2 MB ({t2:.2}s)");
    }

    #[test]
    fn cross_domain_no_faster_than_normal() {
        let normal = run_wordcount(
            small_cluster(Placement::SingleDomain),
            8 * MB,
            JobConfig::default(),
            RootSeed(3),
        )
        .elapsed_s;
        let cross = run_wordcount(
            small_cluster(Placement::CrossDomain),
            8 * MB,
            JobConfig::default(),
            RootSeed(3),
        )
        .elapsed_s;
        assert!(cross >= normal * 0.9, "cross {cross:.2}s vs normal {normal:.2}s");
    }
}
