//! Golden determinism test for the scheduling layer: the `Fifo` policy
//! must reproduce the pre-refactor monolithic JobTracker's decisions
//! exactly. Pinned to the Fig. 2 wordcount configuration (16 VMs, 4
//! reduces, no combiner) at one representative size per placement.
//!
//! The nanosecond values below were captured from the monolithic
//! `MrEngine` (before the scheduling layer was split out) at the same seed; a
//! same-seed run must match them bit-for-bit. If a deliberate
//! scheduling-semantics change ever invalidates them, re-capture with
//! `cargo test -p vhadoop-integration golden -- --nocapture` and record
//! the change in CHANGES.md.
//!
//! The concurrent case holds what one job cannot: `Fair`'s interleaving,
//! `JobDriven`'s matching and LPT order, and the straggler pass, under
//! slot contention on a racked cluster. Its values were captured on the
//! commit before scheduling rounds were gated on pending work (PR 22).

mod common;

use common::{fig2_job_config, MB};
use vhadoop::prelude::*;
use workloads::textgen::TextCorpus;
use workloads::wordcount::{run_wordcount_with, WordCountApp};

/// One Fig. 2 wordcount point: 16 MB over a 16-VM cluster.
fn fig2_point(placement: Placement) -> workloads::wordcount::WordcountReport {
    let mb = 16u64;
    let spec = ClusterSpec::builder().hosts(2).vms(16).placement(placement).build();
    let cfg = JobConfig::default().with_combiner(false).with_reduces(4);
    let hdfs = HdfsConfig { block_size: ((mb << 20) / 15).max(1 << 20), replication: 3 };
    run_wordcount_with(spec, mb << 20, cfg, hdfs, RootSeed(2012))
}

#[test]
fn fifo_reproduces_pre_refactor_timings() {
    for (placement, name) in
        [(Placement::SingleDomain, "normal"), (Placement::CrossDomain, "cross-domain")]
    {
        let rep = fig2_point(placement);
        let r = &rep.result;
        println!(
            "{name}: elapsed={} map_phase={} reduce_phase={} launched_maps={} \
             data_local={} shuffle_bytes={} outputs={}",
            r.elapsed.as_nanos(),
            r.map_phase.as_nanos(),
            r.reduce_phase.as_nanos(),
            r.counters.launched_maps,
            r.counters.data_local_maps,
            r.counters.shuffle_bytes,
            r.outputs.len(),
        );
        let golden: (u64, u64, u64, u64, u64, u64, usize) = match name {
            "normal" => (11_595_668_098, 7_803_257_009, 3_792_411_089, 16, 15, 38_243_200, 4274),
            _ => (11_590_886_027, 7_803_257_009, 3_787_629_018, 16, 15, 38_243_200, 4274),
        };
        assert_eq!(
            (
                r.elapsed.as_nanos(),
                r.map_phase.as_nanos(),
                r.reduce_phase.as_nanos(),
                r.counters.launched_maps,
                r.counters.data_local_maps,
                r.counters.shuffle_bytes,
                r.outputs.len(),
            ),
            golden,
            "{name}: Fifo diverged from the pre-refactor engine"
        );
    }
}

/// Per job: `(finished, map_phase, launched_maps, data_local_maps,
/// rack_local_maps, speculative_maps)`, times in nanoseconds.
type JobGolden = (u64, u64, u64, u64, u64, u64);

/// Three Fig. 2 wordcounts (4 reduces, no combiner; the first one
/// speculative) submitted 0.5 s apart on 4 hosts / 24 VMs / 2 racks:
/// 3 × 24 maps contend for 46 map slots while VM 5 crawls, and VM 9 dies
/// at 9 s with finished map output of two of the jobs on it — the one kind
/// of round where several jobs have pending maps *and* several slots are
/// free, so `Fair` interleaves where `Fifo` drains job by job. Queue
/// order, locality tiers, backup placement and recovery order all show in
/// the timings.
fn concurrent_jobs(policy: SchedulerPolicy) -> Vec<JobGolden> {
    const INPUT: u64 = 12 * MB;
    let straggler = FaultPlan::new().at(
        SimTime::from_nanos(200_000_000),
        FaultKind::StragglerVm { vm: 5, factor: 0.05, duration: SimDuration::from_secs(600) },
    );
    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(ClusterSpec::builder().hosts(4).vms(24).racks(2).build())
            .hdfs(HdfsConfig { block_size: MB / 2, replication: 3 })
            // no monitor: step_until acts at the first wakeup past an instant; ticks move it
            .no_monitor()
            .scheduler(policy)
            .faults(straggler)
            .seed(2012)
            .build(),
    );
    let step_until = |p: &mut VHadoop, secs: f64| {
        while p.now().as_secs_f64() < secs {
            let (_, events) = p.step().expect("the straggler window outlasts the submissions");
            let finished =
                |e: &PlatformEvent| matches!(e, PlatformEvent::Job(JobEvent::JobDone(_)));
            assert!(!events.iter().any(finished), "no job is done by {secs} s");
        }
    };
    let mut ids = Vec::new();
    for j in 0..3u32 {
        step_until(&mut p, 0.5 * f64::from(j));
        let path = format!("/wordcount/in{j}");
        p.register_input(&path, INPUT, VmId(1 + j));
        let corpus = TextCorpus::english_like(RootSeed(2012 + u64::from(j)).derive("corpus"));
        let input = GeneratorInput::new(24, MB / 2, move |idx| corpus.split_records(idx, MB / 2));
        let spec = JobSpec::new("wordcount", &path, format!("/wordcount/out{j}"))
            .with_config(fig2_job_config().with_speculative(j == 0));
        ids.push(p.rt.submit(spec, Box::new(WordCountApp), Box::new(input)));
    }
    step_until(&mut p, 9.0);
    assert!(p.fail_node(VmId(9)).remapped_tasks >= 3, "VM 9 held work of several jobs");
    let done = p.drive_until_idle();
    ids.iter()
        .map(|id| {
            let r = done.iter().find(|r| r.id == *id).expect("every job finishes");
            let c = &r.counters;
            (
                r.finished.as_nanos(),
                r.map_phase.as_nanos(),
                c.launched_maps,
                c.data_local_maps,
                c.rack_local_maps,
                c.speculative_maps,
            )
        })
        .collect()
}

#[test]
fn concurrent_jobs_hold_their_timings_under_every_policy() {
    for policy in SchedulerPolicy::all() {
        let got = concurrent_jobs(policy);
        println!("{policy}: {got:?}");
        let golden: [JobGolden; 3] = match policy {
            SchedulerPolicy::Fifo => [
                (15_679_827_345, 12_080_419_103, 39, 24, 2, 13),
                (44_953_105_691, 39_672_058_565, 24, 14, 10, 0),
                (15_811_306_502, 10_500_376_080, 27, 4, 23, 0),
            ],
            SchedulerPolicy::Fair => [
                (15_679_941_242, 12_098_528_717, 39, 24, 2, 13),
                (44_953_105_691, 39_672_058_565, 24, 14, 10, 0),
                (15_811_420_399, 10_500_376_080, 27, 4, 23, 0),
            ],
            SchedulerPolicy::JobDriven => [
                (15_300_994_118, 11_981_258_086, 39, 24, 2, 13),
                // Was …402 / …276 under the eager fluid clock: the lazy
                // clock's rounding ends this job's map phase, and so the
                // job, one nanosecond later (DESIGN.md §13).
                (45_390_505_403, 40_109_458_277, 24, 16, 8, 0),
                (15_827_873_949, 10_517_442_699, 27, 16, 11, 0),
            ],
        };
        assert_eq!(got, golden, "{policy}: concurrent-job scheduling diverged");
    }
}
