//! Full-platform integration: boot → upload → job → monitor → tuner,
//! plus determinism across identical runs.

use vhadoop::prelude::*;
use workloads::textgen::TextCorpus;
use workloads::wordcount::{text_input, WordCountApp};

const MB: u64 = 1 << 20;

fn platform(vms: u32) -> VHadoop {
    VHadoop::launch(
        PlatformConfig::builder()
            .cluster(
                ClusterSpec::builder().hosts(2).vms(vms).placement(Placement::CrossDomain).build(),
            )
            .seed(7)
            .build(),
    )
}

fn run_wordcount_job(p: &mut VHadoop, bytes: u64, cfg: JobConfig) -> JobResult {
    p.register_input("/in", bytes, VmId(1));
    let input = text_input(&p.rt.hdfs, "/in", TextCorpus::english_like(RootSeed(71)));
    let spec = JobSpec::new("wc", "/in", "/out").with_config(cfg);
    p.run_job(spec, Box::new(WordCountApp), Box::new(input))
}

#[test]
fn full_flow_boot_upload_job_monitor_tune() {
    let mut p = platform(8);

    // Step 4: upload takes simulated time and lands in HDFS.
    let up = p.upload_input("/staging", 16 * MB, VmId(2));
    assert!(up.as_secs_f64() > 0.1);
    assert_eq!(p.rt.hdfs.stat("/staging").expect("uploaded").len, 16 * MB);

    // Steps 5–8: a real job with real output.
    let cfg = JobConfig::default().with_reduces(2);
    let result = run_wordcount_job(&mut p, 8 * MB, cfg.clone());
    assert!(result.elapsed_secs() > 1.0);
    assert!(result.counters.reduce_output_records > 100, "words were counted");
    assert_eq!(
        result.counters.reduce_output_records as usize,
        result.outputs.len(),
        "counters agree with collected output"
    );

    // Step 9: the monitor saw the run; the platform can produce advice.
    let report = p.monitor_report().expect("monitoring enabled");
    assert!(report.samples > 3, "sampled during the job");
    assert!(report.bottleneck().is_some());
    let advice = p.advise(&result, &cfg);
    // Well-configured job on an under-utilized cluster: may be clean or
    // flag NFS pressure, but must never crash or suggest enabling what's
    // already on.
    assert!(!advice.actions.contains(&tuner::Action::EnableCombiner));
}

#[test]
fn identical_configs_are_bit_identical() {
    let run = || {
        let mut p = platform(6);
        let r = run_wordcount_job(&mut p, 4 * MB, JobConfig::default());
        (r.elapsed.as_nanos(), r.counters, r.outputs.len())
    };
    let (a, b) = (run(), run());
    assert_eq!(a.0, b.0, "elapsed time deterministic");
    assert_eq!(a.1, b.1, "counters deterministic");
    assert_eq!(a.2, b.2, "outputs deterministic");
}

#[test]
fn different_seeds_still_complete() {
    for seed in [1u64, 999, 123_456] {
        let mut p = VHadoop::launch(
            PlatformConfig::builder()
                .cluster(ClusterSpec::builder().hosts(2).vms(4).build())
                .seed(seed)
                .build(),
        );
        let r = run_wordcount_job(&mut p, 2 * MB, JobConfig::default());
        assert!(r.elapsed_secs() > 0.5);
    }
}

#[test]
fn monitor_csv_covers_the_run() {
    let mut p = platform(4);
    let _ = run_wordcount_job(&mut p, 4 * MB, JobConfig::default());
    let csv = p.monitor().expect("enabled").to_csv();
    assert!(csv.lines().count() > 3);
    assert!(csv.starts_with("time_s,"));
    assert!(csv.contains("vm1.vcpu"));
}

#[test]
fn migration_during_job_completes_both() {
    let mut p = platform(4);
    p.register_input("/mig", 8 * MB, VmId(1));
    let input = text_input(&p.rt.hdfs, "/mig", TextCorpus::english_like(RootSeed(72)));
    let spec = JobSpec::new("wc", "/mig", "/mig-out");
    let (rep, job) = p.migration(HostId(1)).after(SimDuration::from_secs(2)).during_job(
        spec,
        Box::new(WordCountApp),
        Box::new(input),
    );
    // Cross-domain placement: only the two VMs on host 0 needed to move.
    assert_eq!(rep.per_vm.len(), 2, "host 0's VMs migrated");
    assert!(job.counters.reduce_output_records > 0, "job survived migration");
    // All VMs now on host 1.
    for vm in p.rt.cluster.vms() {
        assert_eq!(p.rt.cluster.host_of(vm), HostId(1));
    }
}
