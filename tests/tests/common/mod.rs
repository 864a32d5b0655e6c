//! Shared helpers for the fault-injection test suites: the Fig. 2
//! wordcount configuration driven through the full `VHadoop` platform (so
//! installed fault plans are routed), with the input size as a knob.
//!
//! Not a test target itself — each suite pulls it in with `mod common;`.

#![allow(dead_code)]

use vhadoop::prelude::*;
use workloads::textgen::TextCorpus;
use workloads::wordcount::WordCountApp;

pub const MB: u64 = 1 << 20;

/// The Fig. 2 "normal" cluster: 16 VMs across 2 hosts, all in one domain.
pub fn fig2_cluster() -> ClusterSpec {
    ClusterSpec::builder().hosts(2).vms(16).placement(Placement::SingleDomain).build()
}

/// The Fig. 2 job configuration (no combiner, 4 reduces).
pub fn fig2_job_config() -> JobConfig {
    JobConfig::default().with_combiner(false).with_reduces(4)
}

/// The Fig. 2 HDFS geometry scaled to `input_bytes`: 15 blocks (one map
/// per worker VM), replication 3.
pub fn fig2_hdfs(input_bytes: u64) -> HdfsConfig {
    HdfsConfig { block_size: (input_bytes / 15).max(MB), replication: 3 }
}

/// The traced Fig. 2 platform configuration (default monitor) with `plan`
/// installed at boot.
pub fn fig2_config(input_bytes: u64, seed: u64, plan: FaultPlan) -> PlatformConfigBuilder {
    PlatformConfig::builder()
        .cluster(fig2_cluster())
        .hdfs(fig2_hdfs(input_bytes))
        .tracing(true)
        .faults(plan)
        .seed(seed)
}

/// Launches [`fig2_config`].
pub fn launch_fig2(input_bytes: u64, seed: u64, plan: FaultPlan) -> VHadoop {
    VHadoop::launch(fig2_config(input_bytes, seed, plan).build())
}

/// Registers the wordcount input on `p` and returns the job spec plus its
/// input generator (same corpus derivation as `run_wordcount`).
pub fn fig2_job(
    p: &mut VHadoop,
    input_bytes: u64,
    seed: u64,
) -> (JobSpec, Box<dyn MapReduceApp>, Box<dyn InputFormat>) {
    p.register_input("/wordcount/in", input_bytes, VmId(1));
    let blocks = p.rt.hdfs.stat("/wordcount/in").expect("registered").blocks.len();
    let block_size = p.rt.hdfs.config().block_size;
    let corpus = TextCorpus::english_like(RootSeed(seed).derive("corpus"));
    let last = blocks - 1;
    let input = GeneratorInput::new(blocks, block_size, move |idx| {
        let bytes = if idx == last { input_bytes - (last as u64) * block_size } else { block_size };
        corpus.split_records(idx, bytes)
    });
    let spec =
        JobSpec::new("wordcount", "/wordcount/in", "/wordcount/out").with_config(fig2_job_config());
    (spec, Box::new(WordCountApp), Box::new(input))
}

/// Runs the Fig. 2 wordcount end to end on a platform with `plan`
/// installed, drains every remaining event (fault restores, deferred
/// re-queues), and returns the job result, the exported trace, and the
/// platform for post-mortem inspection.
pub fn run_fig2(input_bytes: u64, seed: u64, plan: FaultPlan) -> (JobResult, String, VHadoop) {
    let mut p = launch_fig2(input_bytes, seed, plan);
    let (spec, app, input) = fig2_job(&mut p, input_bytes, seed);
    let result = p.run_job(spec, app, input);
    while p.step().is_some() {}
    let trace = p.rt.engine.tracer().to_chrome_json();
    (result, trace, p)
}

/// Sorted `(word, count)` pairs of a job result — the payload two runs of
/// the same corpus must agree on whatever faults were injected.
pub fn sorted_outputs(result: &JobResult) -> Vec<(String, i64)> {
    let mut v: Vec<(String, i64)> =
        result.outputs.iter().map(|(k, val)| (k.as_text().to_string(), val.as_int())).collect();
    v.sort();
    v
}

/// Asserts no acknowledged block lost a full replica set: HDFS reports
/// zero lost blocks and every block in the namespace still has at least
/// one live replica.
pub fn assert_no_data_loss(p: &VHadoop) {
    assert_eq!(p.rt.hdfs.lost_blocks(), 0, "a block lost its last replica");
    for (id, meta) in p.rt.hdfs.namespace().blocks() {
        assert!(!meta.replicas.is_empty(), "{id} has no live replica");
    }
    let injected_losses: usize = p.fault_log().iter().map(|f| f.lost_blocks).sum();
    assert_eq!(injected_losses, 0, "an injected crash destroyed data");
}
