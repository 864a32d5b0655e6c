//! MRBench — "checks whether small job runs are responsive and running
//! efficiently on the cluster" (paper Table I, Fig. 3 workload).
//!
//! Like Hadoop's MRBench (Kim et al., ICPADS'08), the job is intentionally
//! tiny — a handful of text lines per map — so the measured time is
//! dominated by framework overheads: task launch, tiny HDFS reads, shuffle
//! connections, and output commits. Sweeping the number of maps and
//! reduces (the paper's Fig. 3a/3b) exposes how those overheads scale with
//! concurrency — and how much worse they get when the virtual cluster
//! spans physical machines.

use crate::textgen::TextCorpus;
use mapreduce::prelude::*;
use simcore::rng::RootSeed;
use vcluster::spec::ClusterSpec;
use vhdfs::hdfs::HdfsConfig;

/// Bytes of input text per map task (MRBench's "small job" scale).
pub const BYTES_PER_MAP: u64 = 16 * 1024;

/// The MRBench application: a trivial line-echo mapper and identity-ish
/// reducer, faithful to MRBench's do-almost-nothing user code.
#[derive(Debug, Clone, Copy, Default)]
pub struct MrBenchApp;

impl MapReduceApp for MrBenchApp {
    fn name(&self) -> &str {
        "mrbench"
    }

    fn map(&self, _k: &K, value: &V, out: &mut dyn FnMut(K, V)) {
        // Emit each line keyed by its first word (enough to exercise the
        // shuffle without data-dependent skew).
        let text = value.as_text();
        out(K::from(text.split_whitespace().next().unwrap_or("")), V::Text(text.to_string()));
    }

    fn reduce(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) {
        out(key.clone(), V::Int(values.len() as i64));
    }
}

/// One MRBench measurement.
#[derive(Debug, Clone)]
pub struct MrBenchReport {
    /// Number of map tasks.
    pub maps: u32,
    /// Number of reduce tasks.
    pub reduces: u32,
    /// Job wall time, seconds.
    pub elapsed_s: f64,
    /// Full job result.
    pub result: JobResult,
}

/// Runs one MRBench job with `maps` maps and `reduces` reduces on a fresh
/// cluster described by `cluster_spec`.
pub fn run_mrbench(
    cluster_spec: ClusterSpec,
    maps: u32,
    reduces: u32,
    seed: RootSeed,
) -> MrBenchReport {
    assert!(maps > 0, "MRBench needs at least one map");
    // Small HDFS blocks so the input file splits into exactly `maps` blocks.
    let hdfs_cfg = HdfsConfig { block_size: BYTES_PER_MAP, replication: 2 };
    let mut rt = MrRuntime::new(cluster_spec, hdfs_cfg, seed);
    rt.register_input("/mrbench/in", u64::from(maps) * BYTES_PER_MAP - 1, VmId(1));

    let corpus = TextCorpus::english_like(seed.derive("mrbench"));
    let input = GeneratorInput::new(maps as usize, BYTES_PER_MAP, move |idx| {
        corpus.split_records(idx, BYTES_PER_MAP)
    });
    let spec = JobSpec::new("mrbench", "/mrbench/in", "/mrbench/out")
        .with_config(JobConfig::default().with_reduces(reduces).with_combiner(false));
    let result = rt.run_job(spec, Box::new(MrBenchApp), Box::new(input));
    MrBenchReport { maps, reduces, elapsed_s: result.elapsed_secs(), result }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcluster::spec::Placement;

    fn cluster(placement: Placement) -> ClusterSpec {
        ClusterSpec::builder().hosts(2).vms(8).placement(placement).build()
    }

    #[test]
    fn small_job_is_startup_dominated() {
        let rep = run_mrbench(cluster(Placement::SingleDomain), 1, 1, RootSeed(2));
        // ~2 task startups (map + reduce) at 1.5 s plus I/O epsilon.
        assert!(rep.elapsed_s > 2.5, "got {:.2}", rep.elapsed_s);
        assert!(rep.elapsed_s < 10.0, "got {:.2}", rep.elapsed_s);
    }

    #[test]
    fn time_grows_with_map_count() {
        let t1 = run_mrbench(cluster(Placement::SingleDomain), 1, 1, RootSeed(2)).elapsed_s;
        let t6 = run_mrbench(cluster(Placement::SingleDomain), 6, 1, RootSeed(2)).elapsed_s;
        assert!(t6 >= t1, "6 maps ({t6:.2}s) ≥ 1 map ({t1:.2}s)");
    }

    #[test]
    fn time_grows_with_reduce_count() {
        let t1 = run_mrbench(cluster(Placement::SingleDomain), 8, 1, RootSeed(2)).elapsed_s;
        let t6 = run_mrbench(cluster(Placement::SingleDomain), 8, 6, RootSeed(2)).elapsed_s;
        assert!(t6 > t1, "6 reduces ({t6:.2}s) > 1 reduce ({t1:.2}s)");
    }

    #[test]
    fn launches_exactly_requested_tasks() {
        let rep = run_mrbench(cluster(Placement::CrossDomain), 4, 3, RootSeed(2));
        assert_eq!(rep.result.counters.launched_maps, 4);
        assert_eq!(rep.result.counters.launched_reduces, 3);
    }
}
