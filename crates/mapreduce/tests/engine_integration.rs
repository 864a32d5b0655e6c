//! End-to-end tests of the MapReduce engine on the simulated cluster.

use mapreduce::prelude::*;
use simcore::prelude::*;
use vcluster::prelude::{ClusterSpec, Placement};
use vhdfs::hdfs::HdfsConfig;

const MB: u64 = 1024 * 1024;

/// Wordcount with a combiner — the canonical app.
struct WordCount;

impl MapReduceApp for WordCount {
    fn name(&self) -> &str {
        "wordcount"
    }
    fn map(&self, _k: &K, v: &V, out: &mut dyn FnMut(K, V)) {
        for w in v.as_text().split_whitespace() {
            out(K::from(w), V::Int(1));
        }
    }
    fn reduce(&self, k: &K, vs: &[V], out: &mut dyn FnMut(K, V)) {
        out(k.clone(), V::Int(vs.iter().map(V::as_int).sum()));
    }
    fn combine(&self, k: &K, vs: &[V], out: &mut dyn FnMut(K, V)) -> bool {
        out(k.clone(), V::Int(vs.iter().map(V::as_int).sum()));
        true
    }
}

fn runtime(placement: Placement, vms: u32) -> MrRuntime {
    let spec = ClusterSpec::builder().hosts(2).vms(vms).placement(placement).build();
    MrRuntime::new(spec, HdfsConfig { block_size: 8 * MB, replication: 2 }, RootSeed(11))
}

/// Builds a small text corpus input: `splits` splits of `lines` lines each.
fn corpus(splits: usize, lines: usize) -> VecInput {
    let text = ["the quick brown fox", "jumps over the lazy dog", "the dog barks"];
    let mut shards = Vec::new();
    for s in 0..splits {
        let mut recs: Vec<Record> = Vec::new();
        for l in 0..lines {
            recs.push((K::Int(l as i64), V::from(text[(s + l) % text.len()])));
        }
        shards.push(recs);
    }
    VecInput::new(shards)
}

fn register_and_run(rt: &mut MrRuntime, splits: usize, config: JobConfig) -> JobResult {
    // Input sized to produce exactly `splits` HDFS blocks.
    rt.register_input("/in", (splits as u64) * 8 * MB - 1, VmId(1));
    let spec = JobSpec::new("wc", "/in", "/out").with_config(config);
    rt.run_job(spec, Box::new(WordCount), Box::new(corpus(splits, 50)))
}

#[test]
fn wordcount_produces_correct_counts() {
    let mut rt = runtime(Placement::SingleDomain, 8);
    let result = register_and_run(&mut rt, 3, JobConfig::default());
    // 150 lines over 3 texts → expected totals computable.
    let get = |w: &str| -> i64 {
        result.outputs.iter().find(|(k, _)| *k == K::from(w)).map(|(_, v)| v.as_int()).unwrap_or(0)
    };
    // Lines are distributed evenly over the 3 texts: 150 lines total, 50
    // each; "the" appears once per text.
    assert_eq!(get("the"), 150);
    assert_eq!(get("dog"), 50 + 50);
    assert_eq!(get("fox"), 50);
    assert_eq!(get("zebra"), 0);
    assert!(result.elapsed_secs() > 1.0, "job takes simulated time");
    assert_eq!(result.counters.launched_maps, 3);
    assert_eq!(result.counters.launched_reduces, 1);
    assert_eq!(result.counters.map_input_records, 150);
}

#[test]
fn combiner_cuts_shuffle_traffic() {
    let with = {
        let mut rt = runtime(Placement::SingleDomain, 8);
        register_and_run(&mut rt, 3, JobConfig::default().with_combiner(true))
    };
    let without = {
        let mut rt = runtime(Placement::SingleDomain, 8);
        register_and_run(&mut rt, 3, JobConfig::default().with_combiner(false))
    };
    assert!(
        with.counters.shuffle_bytes < without.counters.shuffle_bytes / 2,
        "combiner shrinks shuffle: {} vs {}",
        with.counters.shuffle_bytes,
        without.counters.shuffle_bytes
    );
    // Results identical either way.
    let mut a = with.outputs.clone();
    let mut b = without.outputs.clone();
    a.sort_by(|x, y| x.0.cmp(&y.0));
    b.sort_by(|x, y| x.0.cmp(&y.0));
    assert_eq!(a, b);
}

#[test]
fn locality_aware_scheduling_reads_locally() {
    let mut rt = runtime(Placement::SingleDomain, 8);
    let result = register_and_run(&mut rt, 4, JobConfig::default().with_locality(true));
    assert!(
        result.counters.data_locality() > 0.7,
        "most maps data-local, got {}",
        result.counters.data_locality()
    );
}

/// The map-only identity job.
struct Identity;

impl MapReduceApp for Identity {
    fn name(&self) -> &str {
        "identity"
    }
    fn map(&self, k: &K, v: &V, out: &mut dyn FnMut(K, V)) {
        out(k.clone(), v.clone());
    }
    fn reduce(&self, _k: &K, _vs: &[V], _out: &mut dyn FnMut(K, V)) {
        unreachable!("map-only job never reduces");
    }
}

#[test]
fn map_only_job_writes_output_directly() {
    let mut rt = runtime(Placement::SingleDomain, 8);
    let input = GeneratorInput::new(4, MB, |idx| {
        (0..100).map(|i| (K::Int((idx * 100 + i) as i64), V::Float(i as f64))).collect()
    });
    let spec = JobSpec::generated("gen", "/gen-out").with_config(JobConfig::map_only());
    let result = rt.run_job(spec, Box::new(Identity), Box::new(input));
    assert_eq!(result.outputs.len(), 400);
    assert_eq!(result.counters.launched_reduces, 0);
    assert!(rt.hdfs.stat("/gen-out/part-m-00000").is_some(), "output file exists");
    assert!(result.reduce_phase.is_zero());
}

/// Every block under `dir` has exactly `replication` distinct replicas.
fn assert_replicated(rt: &MrRuntime, dir: &str, replication: usize) {
    let blocks = rt.hdfs.dir_block_locations(dir).expect("job output in HDFS");
    assert!(!blocks.is_empty(), "{dir} holds no block");
    for (block, _, replicas) in blocks {
        let distinct: std::collections::BTreeSet<_> = replicas.iter().collect();
        assert_eq!(replicas.len(), replication, "{dir} block {block:?}: {replicas:?}");
        assert_eq!(distinct.len(), replication, "{dir} block {block:?}: {replicas:?}");
    }
}

/// Job output follows `dfs.replication` (`HdfsConfig::replication`, 2
/// here, against the default of 3), for reduce output and for a map-only
/// job's output alike.
#[test]
fn job_output_follows_dfs_replication() {
    let mut rt = runtime(Placement::CrossDomain, 8);
    assert_eq!(rt.hdfs.config().replication, 2);
    register_and_run(&mut rt, 3, JobConfig::default().with_reduces(2));
    assert_replicated(&rt, "/out/", 2);

    let mut rt = runtime(Placement::CrossDomain, 8);
    let input = GeneratorInput::new(3, MB, |idx| {
        (0..100).map(|i| (K::Int((idx * 100 + i) as i64), V::Int(i as i64))).collect()
    });
    let spec = JobSpec::generated("gen", "/gen-out").with_config(JobConfig::map_only());
    rt.run_job(spec, Box::new(Identity), Box::new(input));
    assert_replicated(&rt, "/gen-out/", 2);
}

#[test]
fn more_reduces_spread_output_partitions() {
    let mut rt = runtime(Placement::SingleDomain, 8);
    let result = register_and_run(&mut rt, 3, JobConfig::default().with_reduces(4));
    assert_eq!(result.counters.launched_reduces, 4);
    for r in 0..4 {
        assert!(rt.hdfs.stat(&format!("/out/part-r-{r:05}")).is_some(), "part-r-{r:05} written");
    }
    // All words still counted exactly once across partitions.
    let total: i64 = result.outputs.iter().map(|(_, v)| v.as_int()).sum();
    assert_eq!(total, 150 * 4, "every word occurrence counted once");
}

#[test]
fn cross_domain_is_slower_than_normal() {
    let normal = {
        let mut rt = runtime(Placement::SingleDomain, 8);
        register_and_run(&mut rt, 6, JobConfig::default().with_reduces(3))
    };
    let cross = {
        let mut rt = runtime(Placement::CrossDomain, 8);
        register_and_run(&mut rt, 6, JobConfig::default().with_reduces(3))
    };
    assert!(
        cross.elapsed_secs() >= normal.elapsed_secs() * 0.95,
        "cross-domain ({:.2}s) must not beat normal ({:.2}s) meaningfully",
        cross.elapsed_secs(),
        normal.elapsed_secs()
    );
}

#[test]
fn concurrent_jobs_share_the_cluster() {
    let mut rt = runtime(Placement::SingleDomain, 8);
    rt.register_input("/in-a", 16 * MB - 1, VmId(1));
    rt.register_input("/in-b", 16 * MB - 1, VmId(2));
    let spec_a = JobSpec::new("a", "/in-a", "/out-a");
    let spec_b = JobSpec::new("b", "/in-b", "/out-b");
    rt.submit(spec_a, Box::new(WordCount), Box::new(corpus(2, 20)));
    rt.submit(spec_b, Box::new(WordCount), Box::new(corpus(2, 20)));
    let results = rt.drive_all();
    assert_eq!(results.len(), 2);
    assert!(results.iter().all(|r| r.counters.launched_maps == 2));
}

#[test]
fn deterministic_given_same_seed() {
    let run = || {
        let mut rt = runtime(Placement::CrossDomain, 8);
        let r = register_and_run(&mut rt, 4, JobConfig::default().with_reduces(2));
        (r.elapsed.as_nanos(), r.counters, r.outputs.len())
    };
    assert_eq!(run().0, run().0);
    assert_eq!(run().1, run().1);
}

#[test]
fn upload_takes_time_and_registers_file() {
    let mut rt = runtime(Placement::SingleDomain, 8);
    let d = rt.upload("/big", 64 * MB, VmId(1));
    assert!(d.as_secs_f64() > 0.5, "upload simulated, took {d}");
    assert_eq!(rt.hdfs.stat("/big").unwrap().len, 64 * MB);
}

#[test]
fn job_result_phases_sum_to_elapsed() {
    let mut rt = runtime(Placement::SingleDomain, 8);
    let r = register_and_run(&mut rt, 2, JobConfig::default());
    let total = r.map_phase + r.reduce_phase;
    assert_eq!(total.as_nanos(), r.elapsed.as_nanos());
}
