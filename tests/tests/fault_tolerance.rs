//! Fault tolerance across the stack: node failures during running jobs
//! — "the hadoop fault tolerance mechanism will re-run the job or restore
//! from other available backup data" (paper, conclusion iii).

use mapreduce::job::JobEvent;
use mapreduce::prelude::*;
use simcore::prelude::*;
use vcluster::prelude::{ClusterSpec, Placement};
use vhadoop::platform::{PlatformConfig, PlatformEvent, VHadoop};
use vhdfs::hdfs::HdfsConfig;
use workloads::textgen::TextCorpus;
use workloads::wordcount::{text_input, WordCountApp};

const MB: u64 = 1 << 20;

fn platform(vms: u32) -> VHadoop {
    VHadoop::launch(
        PlatformConfig::builder()
            .cluster(
                ClusterSpec::builder().hosts(2).vms(vms).placement(Placement::CrossDomain).build(),
            )
            .hdfs(HdfsConfig { block_size: MB, replication: 3 })
            .seed(90)
            .build(),
    )
}

/// Runs wordcount; `fail_at` kills a worker once that many maps finished.
fn run_with_failure(fail_after_maps: Option<usize>) -> JobResult {
    let mut p = platform(8);
    let bytes = 8 * MB - 1;
    p.register_input("/wc", bytes, VmId(1));
    let input = text_input(&p.rt.hdfs, "/wc", TextCorpus::english_like(RootSeed(91)));
    let spec = JobSpec::new("wc", "/wc", "/wc-out");
    let id = p.rt.submit(spec, Box::new(WordCountApp), Box::new(input));

    let mut maps_done = 0;
    let mut failed = false;
    loop {
        let (_, events) = p.step().expect("job must finish");
        for ev in events {
            match ev {
                PlatformEvent::Job(JobEvent::MapDone(..)) => {
                    maps_done += 1;
                    if let Some(n) = fail_after_maps {
                        if maps_done == n && !failed {
                            failed = true;
                            // Kill a worker that is mid-job (one actually
                            // holding task slots — block placement is
                            // randomized, so a fixed id could be idle).
                            let victim =
                                p.rt.mr
                                    .busy_trackers()
                                    .into_iter()
                                    .find(|&v| v != p.rt.hdfs.namenode())
                                    .expect("some worker is mid-job");
                            let impact = p.fail_node(victim);
                            assert_eq!(impact.lost_blocks, 0, "replication 3 loses nothing");
                            assert!(
                                impact.remapped_tasks > 0 || impact.rereplicated_blocks > 0,
                                "failing a busy worker has visible impact"
                            );
                        }
                    }
                }
                PlatformEvent::Job(JobEvent::JobDone(res)) if res.id == id => return *res,
                _ => {}
            }
        }
    }
}

#[test]
fn job_survives_worker_crash_mid_map_phase() {
    let clean = run_with_failure(None);
    let crashed = run_with_failure(Some(2));
    assert!(crashed.counters.relaunched_tasks > 0, "work was re-queued");
    // Identical results despite the crash.
    let mut a = clean.outputs.clone();
    let mut b = crashed.outputs.clone();
    a.sort_by(|x, y| x.0.cmp(&y.0));
    b.sort_by(|x, y| x.0.cmp(&y.0));
    // Different reduce partitions may order differently; compare as maps.
    let sum = |v: &[Record]| -> i64 { v.iter().map(|(_, x)| x.as_int()).sum() };
    assert_eq!(sum(&a), sum(&b), "total word count preserved across the crash");
    assert_eq!(a.len(), b.len(), "same distinct words");
    // Re-execution costs bounded time (losing a worker can even reduce
    // NFS contention, so only sanity-bound the difference).
    assert!(
        crashed.elapsed_secs() > clean.elapsed_secs() * 0.5
            && crashed.elapsed_secs() < clean.elapsed_secs() * 4.0,
        "crashed {:.1}s vs clean {:.1}s",
        crashed.elapsed_secs(),
        clean.elapsed_secs()
    );
}

#[test]
fn crash_during_reduce_phase_recovers() {
    let mut p = platform(8);
    let bytes = 4 * MB - 1;
    p.register_input("/wc2", bytes, VmId(1));
    let input = text_input(&p.rt.hdfs, "/wc2", TextCorpus::english_like(RootSeed(91)));
    let spec =
        JobSpec::new("wc2", "/wc2", "/wc2-out").with_config(JobConfig::default().with_reduces(3));
    let id = p.rt.submit(spec, Box::new(WordCountApp), Box::new(input));

    let mut failed = false;
    let result = loop {
        let (_, events) = p.step().expect("job must finish");
        for ev in &events {
            if let PlatformEvent::Job(JobEvent::MapPhaseDone(_)) = ev {
                // Reduce phase begins now; fail a node shortly after.
                if !failed {
                    failed = true;
                    p.fail_node(VmId(5));
                }
            }
        }
        if let Some(res) = events.into_iter().find_map(|ev| match ev {
            PlatformEvent::Job(JobEvent::JobDone(res)) if res.id == id => Some(res),
            _ => None,
        }) {
            break *res;
        }
    };
    assert!(result.counters.reduce_output_records > 100, "job completed with output");
}

#[test]
fn failed_worker_gets_no_new_tasks() {
    let mut p = platform(6);
    let victim = VmId(2);
    p.fail_node(victim);
    let bytes = 4 * MB - 1;
    p.register_input("/wc3", bytes, VmId(1));
    let input = text_input(&p.rt.hdfs, "/wc3", TextCorpus::english_like(RootSeed(91)));
    let spec = JobSpec::new("wc3", "/wc3", "/wc3-out");
    let result = p.run_job(spec, Box::new(WordCountApp), Box::new(input));
    assert!(result.counters.launched_maps > 0);
    assert!(!p.rt.mr.trackers().contains(&victim));
}

#[test]
#[should_panic(expected = "cannot fail the master")]
fn master_failure_is_rejected() {
    let mut p = platform(4);
    p.fail_node(VmId(0));
}
