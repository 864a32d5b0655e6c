//! Speculative execution: a straggling map (its VM crushed by outside
//! load) gets a backup attempt, and the job finishes sooner.

use mapreduce::prelude::*;
use simcore::prelude::*;
use vcluster::prelude::{ClusterSpec, Placement};
use vhdfs::hdfs::HdfsConfig;

const MB: u64 = 1024 * 1024;

struct SlowSquare;
impl MapReduceApp for SlowSquare {
    fn name(&self) -> &str {
        "slow-square"
    }
    fn map(&self, k: &K, v: &V, out: &mut dyn FnMut(K, V)) {
        out(k.clone(), V::Float(v.as_float() * v.as_float()));
    }
    fn reduce(&self, k: &K, vs: &[V], out: &mut dyn FnMut(K, V)) {
        out(k.clone(), vs[0].clone());
    }
    fn cost(&self) -> CostProfile {
        // CPU-heavy maps so a loaded VM really straggles.
        CostProfile { map_cpu_per_record: 1.2e8, ..Default::default() }
    }
}

/// Runs the job with a crushing background load on one tracker VM.
fn run(speculative: bool) -> JobResult {
    let spec = ClusterSpec::builder().hosts(2).vms(5).placement(Placement::SingleDomain).build();
    let mut rt = MrRuntime::new(spec, HdfsConfig { block_size: MB, replication: 2 }, RootSeed(31));
    rt.register_input("/in", 4 * MB - 1, VmId(1));

    // Crush vm1's VCPU with competing flows for a long time.
    for i in 0..8 {
        let demands = rt.cluster.cpu_demands(VmId(1));
        rt.engine.start_flow(demands, 2.4e9 * 600.0, Tag::new(simcore::owners::USER, i, 0));
    }

    let input = GeneratorInput::new(4, MB, |idx| {
        (0..40).map(|i| (K::Int((idx * 100 + i) as i64), V::Float(i as f64))).collect()
    });
    let config = JobConfig {
        speculative,
        locality_aware: false, // force round-robin so vm1 gets a map
        use_combiner: false,
        num_reduces: 1,
    };
    let job = JobSpec::new("sq", "/in", format!("/out-{speculative}")).with_config(config);
    rt.run_job(job, Box::new(SlowSquare), Box::new(input))
}

#[test]
fn speculation_rescues_stragglers() {
    let without = run(false);
    let with = run(true);
    assert_eq!(without.counters.speculative_maps, 0);
    assert!(
        with.counters.speculative_maps >= 1,
        "a backup attempt launched, got {:?}",
        with.counters.speculative_maps
    );
    assert!(
        with.elapsed_secs() < without.elapsed_secs() * 0.9,
        "speculation helps: {:.1}s vs {:.1}s",
        with.elapsed_secs(),
        without.elapsed_secs()
    );
    // Output identical either way.
    let mut a = with.outputs.clone();
    let mut b = without.outputs.clone();
    a.sort_by(|x, y| x.0.cmp(&y.0));
    b.sort_by(|x, y| x.0.cmp(&y.0));
    assert_eq!(a, b, "speculation must not change results");
}

#[test]
fn speculation_idle_cluster_launches_no_backups() {
    // No stragglers -> no speculative attempts even when enabled.
    let spec = ClusterSpec::builder().hosts(2).vms(5).placement(Placement::SingleDomain).build();
    let mut rt = MrRuntime::new(spec, HdfsConfig { block_size: MB, replication: 2 }, RootSeed(32));
    rt.register_input("/in", 4 * MB - 1, VmId(1));
    let input = GeneratorInput::new(4, MB, |idx| {
        (0..40).map(|i| (K::Int((idx * 100 + i) as i64), V::Float(i as f64))).collect()
    });
    let config = JobConfig { speculative: true, ..Default::default() };
    let job = JobSpec::new("sq", "/in", "/out").with_config(config);
    let result = rt.run_job(job, Box::new(SlowSquare), Box::new(input));
    assert_eq!(result.counters.speculative_maps, 0, "balanced cluster needs no speculation");
}
