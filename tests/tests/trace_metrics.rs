//! The structured tracing layer end to end: byte-identical traces across
//! same-seed runs (the determinism contract), span coverage of the Fig. 2
//! workload, and agreement between task spans and the nmon monitor.

use vhadoop::prelude::*;
use workloads::textgen::TextCorpus;
use workloads::wordcount::{run_wordcount_traced, text_input, WordCountApp};

const MB: u64 = 1 << 20;

/// The Fig. 2 16 MB "normal" point, traced — same cluster, job config,
/// HDFS geometry, and seed as `fig2_wordcount`.
fn fig2_trace() -> String {
    let spec = ClusterSpec::builder().hosts(2).vms(16).placement(Placement::SingleDomain).build();
    let cfg = JobConfig::default().with_combiner(false).with_reduces(4);
    let hdfs = HdfsConfig { block_size: (16 * MB / 15).max(MB), replication: 3 };
    let (rep, trace) = run_wordcount_traced(spec, 16 * MB, cfg, hdfs, RootSeed(2012));
    assert!(rep.elapsed_s > 1.0);
    trace
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let (a, b) = (fig2_trace(), fig2_trace());
    assert!(!a.is_empty());
    assert_eq!(a, b, "identical config + seed must produce a byte-identical trace");
}

#[test]
fn fig2_trace_covers_the_pipeline() {
    let trace = fig2_trace();
    // Chrome trace_event envelope.
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.ends_with("],\"displayTimeUnit\":\"ms\"}\n"));
    // Every stage of the MapReduce pipeline left complete ("X") spans.
    for cat in ["map", "shuffle", "reduce", "hdfs"] {
        assert!(trace.contains(&format!("\"cat\":\"{cat}\"")), "missing {cat} spans");
    }
    assert!(trace.contains("\"ph\":\"X\""));
}

#[test]
fn tracing_disabled_records_nothing() {
    let mut p = VHadoop::launch(
        PlatformConfig::builder().cluster(ClusterSpec::builder().hosts(2).vms(4).build()).build(),
    );
    p.upload_input("/in", 4 * MB, VmId(1));
    assert!(p.rt.engine.tracer().is_empty(), "tracing is strictly opt-in");
    assert_eq!(p.metrics().spans, 0);
}

/// Runs a traced + monitored wordcount and checks the two observability
/// channels agree: whenever the monitor samples nonzero VCPU utilization
/// on a worker VM, that instant lies inside the union of task/IO spans
/// recorded on the same VM's track. (Sound with speculation off and no
/// failures — every busy VCPU belongs to exactly one running attempt.)
#[test]
fn monitor_samples_agree_with_spans() {
    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(ClusterSpec::builder().hosts(2).vms(6).build())
            // Small blocks spread maps across all workers; fast sampling
            // catches them mid-task.
            .hdfs(HdfsConfig { block_size: MB, replication: 2 })
            .monitor_interval(SimDuration::from_millis(200))
            .tracing(true)
            .seed(13)
            .build(),
    );
    let bytes = 8 * MB;
    p.register_input("/agree", bytes, VmId(1));
    let input = text_input(&p.rt.hdfs, "/agree", TextCorpus::english_like(RootSeed(14)));
    let spec = JobSpec::new("wc", "/agree", "/agree-out");
    let result = p.run_job(spec, Box::new(WordCountApp), Box::new(input));
    assert!(result.counters.reduce_output_records > 0);

    let tracer = p.rt.engine.tracer();
    let monitor = p.monitor().expect("monitoring enabled");
    let mut checked = 0usize;
    for (col, column) in monitor.columns().iter().enumerate() {
        let Some(vm) = column
            .name
            .strip_prefix("vm")
            .and_then(|rest| rest.strip_suffix(".vcpu"))
            .and_then(|n| n.parse::<u32>().ok())
        else {
            continue;
        };
        for (t, util) in monitor.series(col) {
            if util <= 1e-9 {
                continue;
            }
            checked += 1;
            assert!(
                tracer.spans().iter().any(|s| s.track == vm && s.start <= t && t <= s.end),
                "vm{vm} busy at {t} ({util:.2} vcpu) outside every recorded span"
            );
        }
    }
    assert!(checked > 10, "the monitor caught VMs mid-task ({checked} busy samples)");

    // The monitor's samples were also re-emitted as trace counters.
    let samples = monitor.samples().len();
    let columns = monitor.columns().len();
    assert_eq!(tracer.counters().len(), samples * columns);
}

#[test]
fn job_metrics_filter_to_one_job() {
    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(ClusterSpec::builder().hosts(2).vms(4).build())
            .tracing(true)
            .build(),
    );
    let bytes = 2 * MB;
    p.register_input("/jm", bytes, VmId(1));
    let input = text_input(&p.rt.hdfs, "/jm", TextCorpus::english_like(RootSeed(15)));
    let spec = JobSpec::new("wc", "/jm", "/jm-out");
    let result = p.run_job(spec, Box::new(WordCountApp), Box::new(input));

    let all = p.metrics();
    let job = p.job_metrics(&result);
    assert!(all.category("hdfs").is_some(), "block writes traced");
    assert!(job.category("hdfs").is_none(), "hdfs spans carry no job id");
    let maps = job.category("map").expect("map spans traced");
    assert_eq!(maps.count as u64, result.counters.launched_maps, "one span per map");
    assert!(job.spans <= all.spans);
    assert!(all.to_text().contains("category"));
}
