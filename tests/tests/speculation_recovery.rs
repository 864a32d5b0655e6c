//! Regression suite for tracker death racing an in-flight speculative
//! copy (the double-scheduling audit of the recovery/speculation pair).
//!
//! Audit conclusion encoded here: when a tracker dies while a map has a
//! live speculative twin, `fail_tracker`/`lose_tracker` conservatively
//! invalidate BOTH attempts under a fresh epoch — the surviving twin's
//! completion event is orphaned and swallowed by the epoch check, its
//! slot is released, and the task re-runs once. Wasteful by design, never
//! a double-schedule: output is counted exactly once and no slot leaks.
//!
//! Also here, because they guard the same recovery contract from the
//! record path's side (DESIGN.md §20): a reduce lost *after* its merge
//! re-runs from map output the merge only borrowed, and an input format
//! that implements `read_split` alone drives the same simulation as one
//! that lends its splits.

mod common;

use mapreduce::prelude::*;
use vhadoop::prelude::*;

/// CPU-heavy identity job: 8 maps of 40 records, ~2 s per healthy map, so
/// a throttled VM lags far past the 1.5× speculation threshold.
#[derive(Debug)]
struct HeavyApp;

impl MapReduceApp for HeavyApp {
    fn name(&self) -> &str {
        "heavy"
    }
    fn map(&self, k: &K, v: &V, out: &mut dyn FnMut(K, V)) {
        out(k.clone(), v.clone());
    }
    fn reduce(&self, k: &K, vs: &[V], out: &mut dyn FnMut(K, V)) {
        out(k.clone(), V::Int(vs.len() as i64));
    }
    fn cost(&self) -> CostProfile {
        CostProfile { map_cpu_per_record: 1.2e8, ..Default::default() }
    }
}

const INPUT: u64 = (8 << 20) - 1;

fn launch(plan: FaultPlan) -> VHadoop {
    VHadoop::launch(
        PlatformConfig::builder()
            .cluster(
                ClusterSpec::builder().hosts(2).vms(9).placement(Placement::SingleDomain).build(),
            )
            .hdfs(HdfsConfig { block_size: 1 << 20, replication: 2 })
            .tracing(true)
            .seed(77)
            .faults(plan)
            .build(),
    )
}

/// The records of split `idx` of the heavy job's input.
fn heavy_split(idx: usize) -> Vec<Record> {
    (0..40).map(|i| (K::Int((idx * 100 + i) as i64), V::Float(i as f64))).collect()
}

fn submit_heavy(p: &mut VHadoop) -> JobId {
    p.register_input("/in", INPUT, VmId(1));
    let input = GeneratorInput::new(8, 1 << 20, heavy_split);
    let config = JobConfig {
        speculative: true,
        locality_aware: false,
        use_combiner: false,
        ..Default::default()
    };
    let spec = JobSpec::new("heavy", "/in", "/out").with_config(config);
    p.rt.submit(spec, Box::new(HeavyApp), Box::new(input))
}

/// A plan making VM 2 a deep straggler for the whole job.
fn straggler_plan() -> FaultPlan {
    FaultPlan::new().at(
        SimTime::from_nanos(200_000_000),
        FaultKind::StragglerVm { vm: 2, factor: 0.05, duration: SimDuration::from_secs(120) },
    )
}

/// Sorted `(key, count)` outputs of the heavy job.
fn sorted(res: &JobResult) -> Vec<(i64, i64)> {
    let mut v: Vec<(i64, i64)> =
        res.outputs.iter().map(|(k, val)| (k.as_int(), val.as_int())).collect();
    v.sort_unstable();
    v
}

/// Drives the job; the first time a speculative pair is observed,
/// `intervene(primary, backup)` picks a VM to kill and `kill` is applied.
fn run_with_intervention(
    p: &mut VHadoop,
    id: JobId,
    mut intervene: impl FnMut(&mut VHadoop, VmId, VmId) -> bool,
) -> (JobResult, bool) {
    let mut intervened = false;
    loop {
        if !intervened {
            if let Some(&(_m, primary, backup)) = p.rt.mr.speculating(id).first() {
                intervened = intervene(p, primary, backup);
            }
        }
        let (_, events) = p.step().expect("job must finish before the simulation drains");
        for ev in events {
            if let PlatformEvent::Job(JobEvent::JobDone(res)) = ev {
                if res.id == id {
                    return (*res, intervened);
                }
            }
        }
    }
}

/// Baseline: the same job, no faults, no failures.
fn clean_run() -> JobResult {
    let mut p = launch(FaultPlan::new());
    let id = submit_heavy(&mut p);
    run_with_intervention(&mut p, id, |_, _, _| true).0
}

/// Baseline payload.
fn clean_outputs() -> Vec<(i64, i64)> {
    sorted(&clean_run())
}

#[test]
fn tracker_death_of_primary_during_speculation_is_not_double_scheduled() {
    let clean = clean_outputs();

    let mut p = launch(straggler_plan());
    let id = submit_heavy(&mut p);
    let (res, intervened) = run_with_intervention(&mut p, id, |p, primary, _backup| {
        // Kill the straggling primary while its backup copy is in flight.
        p.fail_node(primary);
        true
    });
    assert!(intervened, "speculation never started — straggler not detected");
    assert_eq!(sorted(&res), clean, "output must be counted exactly once");
    assert!(res.counters.relaunched_tasks >= 1, "both attempts must be invalidated");
    assert!(p.rt.mr.busy_trackers().is_empty(), "a slot leaked after recovery");
}

#[test]
fn tracker_death_of_backup_during_speculation_is_not_double_scheduled() {
    let clean = clean_outputs();

    let mut p = launch(straggler_plan());
    let id = submit_heavy(&mut p);
    let (res, intervened) = run_with_intervention(&mut p, id, |p, _primary, backup| {
        // Kill the healthy backup: the conservative path also re-queues
        // the (still running) primary under a fresh epoch.
        p.fail_node(backup);
        true
    });
    assert!(intervened, "speculation never started — straggler not detected");
    assert_eq!(sorted(&res), clean, "output must be counted exactly once");
    assert!(res.counters.relaunched_tasks >= 1);
    assert!(p.rt.mr.busy_trackers().is_empty(), "a slot leaked after recovery");
}

#[test]
fn deferred_tracker_timeout_during_speculation_recovers_once() {
    let clean = clean_outputs();

    let mut p = launch(straggler_plan());
    let id = submit_heavy(&mut p);
    let (res, intervened) = run_with_intervention(&mut p, id, |p, primary, _backup| {
        // The detection-latency path: attempts die now, the re-queue
        // arrives 500 ms later as a PH_REQUEUE_* timer.
        let rt = &mut p.rt;
        rt.mr.lose_tracker(&mut rt.engine, &rt.cluster, primary, SimDuration::from_millis(500));
        true
    });
    assert!(intervened, "speculation never started — straggler not detected");
    assert_eq!(sorted(&res), clean, "output must be counted exactly once");
    assert!(res.counters.relaunched_tasks >= 1);
    assert!(p.rt.mr.busy_trackers().is_empty(), "a slot leaked after recovery");
}

#[test]
fn reduce_lost_after_its_merge_reruns_from_the_kept_map_output() {
    let clean = clean_run();

    let mut p = launch(FaultPlan::new());
    let id = submit_heavy(&mut p);
    let mut lost = None;
    let res = loop {
        let merged = p.rt.mr.job_counters(id).is_some_and(|c| c.reduce_input_records > 0);
        if lost.is_none() && merged {
            // The job's one reduce has merged and reduced its input and is
            // computing or writing; nothing else holds a slot any more.
            let busy = p.rt.mr.busy_trackers();
            assert_eq!(busy.len(), 1, "only the reduce should be running");
            let rt = &mut p.rt;
            rt.mr.lose_tracker(&mut rt.engine, &rt.cluster, busy[0], SimDuration::from_millis(500));
            lost = Some(busy[0]);
        }
        let (_, events) = p.step().expect("job must finish before the simulation drains");
        let done = events.into_iter().find_map(|ev| match ev {
            PlatformEvent::Job(JobEvent::JobDone(res)) if res.id == id => Some(*res),
            _ => None,
        });
        if let Some(res) = done {
            break res;
        }
    };
    assert!(lost.is_some(), "the reduce never got as far as its merge");
    assert_eq!(res.outputs, clean.outputs, "the re-run must merge the same map output again");
    assert_eq!(res.counters.relaunched_tasks, 1);
    assert_eq!(res.counters.reduce_input_records, 2 * clean.counters.reduce_input_records);
    assert!(p.rt.mr.busy_trackers().is_empty(), "a slot leaked after recovery");
}

/// An input format that, like an external one written before splits were
/// lent, implements `read_split` and nothing else of the record path.
struct ReadSplitOnly(VecInput);

impl InputFormat for ReadSplitOnly {
    fn split_count(&self) -> usize {
        self.0.split_count()
    }
    fn read_split(&self, idx: usize) -> Vec<Record> {
        self.0.read_split(idx)
    }
}

#[test]
fn read_split_only_input_and_lent_splits_run_the_same_simulation() {
    let run = |input: Box<dyn InputFormat>| {
        let mut p = launch(FaultPlan::new());
        p.register_input("/in", INPUT, VmId(1));
        // The default config keeps the combiner on, which HeavyApp lacks.
        let res = p.run_job(JobSpec::new("heavy", "/in", "/out"), Box::new(HeavyApp), input);
        (res.outputs, res.counters, p.rt.engine.tracer().to_chrome_json())
    };
    let splits = VecInput::new((0..8).map(heavy_split).collect());
    let lent = run(Box::new(splits.clone()));
    let copied = run(Box::new(ReadSplitOnly(splits)));
    assert!(lent.2.contains("\"cat\":\"shuffle\""), "the trace must cover the whole job");
    assert!(
        lent == copied,
        "the two inputs must be indistinguishable in outputs, counters and trace"
    );
}
