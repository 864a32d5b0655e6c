//! The deterministic characterization sweep runner.
//!
//! A [`SweepSpec`] names the configuration axes; [`run_sweep`] expands
//! them to the cartesian product, partitions the points into **groups**
//! that differ only in their fault profile, and runs the groups across OS
//! threads. Each group launches one `VHadoop`, schedules its job stream,
//! snapshots the warm-up prefix, and then restores the snapshot once per
//! fault variant — the snapshot-fork prefix sharing `simcore::persist`
//! was built for.
//!
//! Determinism contract (pinned by `tests/tests/vchar.rs` and the
//! check.sh `char` stage): every run is seeded purely from its
//! configuration point, results land in a pre-sized slot vector indexed
//! by group order, and workers operate on disjoint contiguous chunks of
//! that vector — so the dataset bytes are identical at 1 and N threads,
//! and across repeated same-seed invocations.

use crate::dataset::{Dataset, Row};
use mapreduce::scheduler::SchedulerPolicy;
use simcore::faults::{FaultPlan, FaultProfile};
use simcore::prelude::{RootSeed, SimDuration};
use vcluster::spec::ClusterSpec;
use vhadoop::prelude::{PlatformConfig, VHadoop};
use vhdfs::hdfs::HdfsConfig;
use vsched::controller::ControllerConfig;
use vsched::model::decision_features;
use vsched::placement::{PlacementKind, WorkloadHint};
use workloads::loadgen::{ArrivalProcess, JobMix};

/// Fault-injection severity axis of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSeverity {
    /// No faults: the clean baseline.
    None,
    /// A short, mild plan: up to 3 events, at most 1 crash.
    Light,
    /// The full moderate profile: up to 6 events, 2 crashes.
    Heavy,
}

impl FaultSeverity {
    /// Stable display name (CSV column value).
    pub fn name(self) -> &'static str {
        match self {
            FaultSeverity::None => "none",
            FaultSeverity::Light => "light",
            FaultSeverity::Heavy => "heavy",
        }
    }

    /// The generator profile for a `vms`-VM, `hosts`-host cluster, or
    /// `None` for the clean variant.
    pub fn profile(self, vms: u32, hosts: u32) -> Option<FaultProfile> {
        match self {
            FaultSeverity::None => None,
            FaultSeverity::Light => Some(FaultProfile {
                horizon: SimDuration::from_secs(15),
                max_events: 3,
                max_crashes: 1,
                ..FaultProfile::new(vms, hosts)
            }),
            FaultSeverity::Heavy => Some(FaultProfile::new(vms, hosts)),
        }
    }
}

/// One cluster shape axis value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Physical hosts.
    pub hosts: u32,
    /// VMs across them.
    pub vms: u32,
    /// Racks the hosts are spread over.
    pub racks: u32,
}

/// The configuration axes of one characterization sweep.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Workload mixes ([`JobMix`] presets).
    pub mixes: Vec<JobMix>,
    /// Placement policies under test.
    pub placements: Vec<PlacementKind>,
    /// Task-scheduler policies under test.
    pub schedulers: Vec<SchedulerPolicy>,
    /// Cluster shapes under test.
    pub shapes: Vec<Shape>,
    /// Fault severities; variants of one group share a warm-up prefix.
    pub faults: Vec<FaultSeverity>,
    /// Jobs per run (the arrival stream length).
    pub jobs: u32,
    /// Mean interarrival gap of the stream, seconds.
    pub mean_gap_s: f64,
    /// Base seed; every run derives its own seed from this and its
    /// group index.
    pub base_seed: u64,
}

impl SweepSpec {
    /// The smallest grid that still exercises every axis — debug-build
    /// test fodder (8 groups × 2 fault variants = 16 runs).
    pub fn tiny() -> Self {
        SweepSpec {
            mixes: vec![JobMix::CpuBound, JobMix::ShuffleHeavy],
            placements: vec![PlacementKind::Pack, PlacementKind::Spread],
            schedulers: vec![SchedulerPolicy::Fifo],
            shapes: vec![
                Shape { hosts: 2, vms: 6, racks: 1 },
                Shape { hosts: 4, vms: 8, racks: 2 },
            ],
            faults: vec![FaultSeverity::None, FaultSeverity::Light],
            jobs: 2,
            mean_gap_s: 2.0,
            base_seed: 1012,
        }
    }

    /// The bounded CI grid the check.sh `char` stage runs
    /// (36 groups × 2 fault variants = 72 runs).
    pub fn quick() -> Self {
        SweepSpec {
            mixes: vec![JobMix::CpuBound, JobMix::ShuffleHeavy, JobMix::Wordcount],
            placements: vec![PlacementKind::Pack, PlacementKind::Spread],
            schedulers: vec![SchedulerPolicy::Fifo, SchedulerPolicy::JobDriven],
            shapes: vec![
                Shape { hosts: 2, vms: 8, racks: 1 },
                Shape { hosts: 4, vms: 12, racks: 2 },
                Shape { hosts: 3, vms: 9, racks: 1 },
            ],
            faults: vec![FaultSeverity::None, FaultSeverity::Light],
            jobs: 3,
            mean_gap_s: 2.0,
            base_seed: 1012,
        }
    }

    /// The full characterization grid (96 groups × 3 fault variants =
    /// 288 runs) — the "hundreds of configurations" sweep behind
    /// EXPERIMENTS.md §costmodel.
    pub fn full() -> Self {
        SweepSpec {
            mixes: vec![JobMix::CpuBound, JobMix::ShuffleHeavy, JobMix::Wordcount],
            placements: vec![PlacementKind::Pack, PlacementKind::Spread],
            schedulers: vec![SchedulerPolicy::Fifo, SchedulerPolicy::JobDriven],
            shapes: vec![
                Shape { hosts: 2, vms: 8, racks: 1 },
                Shape { hosts: 3, vms: 9, racks: 1 },
                Shape { hosts: 4, vms: 12, racks: 2 },
                Shape { hosts: 6, vms: 18, racks: 3 },
                Shape { hosts: 4, vms: 16, racks: 1 },
                Shape { hosts: 8, vms: 24, racks: 2 },
                Shape { hosts: 2, vms: 12, racks: 1 },
                Shape { hosts: 6, vms: 12, racks: 2 },
            ],
            faults: vec![FaultSeverity::None, FaultSeverity::Light, FaultSeverity::Heavy],
            jobs: 4,
            mean_gap_s: 2.0,
            base_seed: 1012,
        }
    }

    /// Expands the axes into groups (every combination except the fault
    /// axis), in a fixed nesting order: mix → placement → scheduler →
    /// shape. The group's index in this order seeds its runs.
    pub fn groups(&self) -> Vec<GroupPoint> {
        let mut out = Vec::new();
        for &mix in &self.mixes {
            for placement in &self.placements {
                for &scheduler in &self.schedulers {
                    for &shape in &self.shapes {
                        let index = out.len() as u64;
                        out.push(GroupPoint {
                            mix,
                            placement: placement.clone(),
                            scheduler,
                            shape,
                            seed: self
                                .base_seed
                                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                .wrapping_add(index),
                        });
                    }
                }
            }
        }
        out
    }

    /// Total runs the sweep will execute.
    pub fn runs(&self) -> usize {
        self.mixes.len()
            * self.placements.len()
            * self.schedulers.len()
            * self.shapes.len()
            * self.faults.len()
    }
}

/// One sweep group: a full configuration point minus the fault axis.
#[derive(Debug, Clone)]
pub struct GroupPoint {
    /// Workload mix.
    pub mix: JobMix,
    /// Placement policy.
    pub placement: PlacementKind,
    /// Task-scheduler policy.
    pub scheduler: SchedulerPolicy,
    /// Cluster shape.
    pub shape: Shape,
    /// Per-group seed (derived from the spec's base seed + group index).
    pub seed: u64,
}

/// Runs the sweep on up to `threads` OS threads and collects the dataset.
/// The result is byte-identical for every `threads >= 1` (see the module
/// docs for the argument).
pub fn run_sweep(spec: &SweepSpec, threads: usize) -> Dataset {
    let groups = spec.groups();
    let n = groups.len();
    let mut slots: Vec<Vec<Row>> = vec![Vec::new(); n];
    let workers = threads.max(1).min(n.max(1));
    if workers <= 1 {
        for (g, slot) in groups.iter().zip(slots.iter_mut()) {
            *slot = run_group(spec, g);
        }
    } else {
        // Disjoint contiguous chunks: worker w owns groups
        // [w*chunk, (w+1)*chunk). Each slot is written exactly once, and
        // the final order is the group order regardless of scheduling.
        let chunk = n.div_ceil(workers);
        std::thread::scope(|s| {
            for (gs, outs) in groups.chunks(chunk).zip(slots.chunks_mut(chunk)) {
                s.spawn(move || {
                    for (g, out) in gs.iter().zip(outs.iter_mut()) {
                        *out = run_group(spec, g);
                    }
                });
            }
        });
    }
    Dataset { rows: slots.into_iter().flatten().collect() }
}

/// Runs one group: launch + schedule once, snapshot, then one restored
/// run per fault severity.
fn run_group(spec: &SweepSpec, g: &GroupPoint) -> Vec<Row> {
    let cluster =
        ClusterSpec::builder().hosts(g.shape.hosts).vms(g.shape.vms).racks(g.shape.racks).build();
    let (maps, cpu_secs, io_bytes) = g.mix.base();
    let hint =
        WorkloadHint { tasks: maps, cpu_secs_per_task: cpu_secs, shuffle_bytes_per_task: io_bytes };
    let ctrl = ControllerConfig::enabled_with(g.placement.clone());
    // The decision-time features describe the layout the platform will
    // actually boot with (the controller's map over the spec).
    let map = ctrl
        .placement
        .assign(&cluster, &ctrl.model)
        .unwrap_or_else(|| (0..cluster.vms).map(|v| cluster.host_of(v)).collect());
    let features = decision_features(&cluster, &map, &hint, &[]);

    let mut platform = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(cluster)
            .hdfs(HdfsConfig { block_size: 1 << 20, replication: 2 })
            .scheduler(g.scheduler)
            .controller(ctrl)
            .no_monitor()
            .seed(g.seed)
            .build(),
    );
    let arrivals = ArrivalProcess::new(
        g.mix,
        spec.jobs,
        SimDuration::from_secs_f64(spec.mean_gap_s),
        2,
        RootSeed(g.seed),
    )
    .schedule();
    for (i, a) in arrivals.iter().enumerate() {
        platform.schedule_job(a.at, a.tenant, a.expected_s, a.job(i as u32));
    }
    // The shared warm-up prefix: everything up to fault divergence.
    let snap = platform.snapshot();

    spec.faults
        .iter()
        .map(|&sev| {
            let mut run = VHadoop::restore(&snap);
            if let Some(profile) = sev.profile(g.shape.vms, g.shape.hosts) {
                // Salt the fault seed by severity so light/heavy draws
                // differ even at equal event budgets.
                let salt = match sev {
                    FaultSeverity::None => 0,
                    FaultSeverity::Light => 0x11,
                    FaultSeverity::Heavy => 0x22,
                };
                run.install_fault_plan(&FaultPlan::random(&profile, RootSeed(g.seed ^ salt)));
            }
            let results = run.drive_until_idle();
            let obs = run.observe();
            let ctrl = run.controller().expect("a sweep run has a controller");
            let slo = ctrl.slo_report();
            let (mut data_local, mut launched, mut shuffle_bytes) = (0u64, 0u64, 0u64);
            for r in &results {
                data_local += r.counters.data_local_maps;
                launched += r.counters.launched_maps;
                shuffle_bytes += r.counters.shuffle_bytes;
            }
            Row {
                mix: g.mix.name(),
                placement: g.placement.name(),
                scheduler: g.scheduler.name(),
                hosts: g.shape.hosts,
                vms: g.shape.vms,
                racks: g.shape.racks,
                fault: sev.name(),
                seed: g.seed,
                features: features.clone(),
                wakeups: obs.metrics.wakeups,
                reallocations: obs.kernel.reallocations,
                flows_touched: obs.kernel.flows_touched,
                jobs_finished: slo.finished,
                migrations_completed: ctrl.counters().migrations_completed,
                data_local_maps: data_local,
                launched_maps: launched,
                shuffle_mb: shuffle_bytes as f64 / (1 << 20) as f64,
                makespan_s: run.now().as_secs_f64(),
                slo_violations: slo.violations,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_the_documented_cardinalities() {
        let tiny = SweepSpec::tiny();
        assert_eq!(tiny.groups().len(), 8);
        assert_eq!(tiny.runs(), 16);
        let quick = SweepSpec::quick();
        assert_eq!(quick.groups().len(), 36);
        assert_eq!(quick.runs(), 72);
        let full = SweepSpec::full();
        assert_eq!(full.groups().len(), 96);
        assert_eq!(full.runs(), 288);
    }

    #[test]
    fn group_seeds_are_distinct_and_index_derived() {
        let spec = SweepSpec::tiny();
        let groups = spec.groups();
        let seeds: std::collections::BTreeSet<u64> = groups.iter().map(|g| g.seed).collect();
        assert_eq!(seeds.len(), groups.len());
        // Re-expanding the same spec reproduces the same seeds.
        assert_eq!(
            spec.groups().iter().map(|g| g.seed).collect::<Vec<_>>(),
            groups.iter().map(|g| g.seed).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fault_severity_profiles_scale_with_severity() {
        assert!(FaultSeverity::None.profile(6, 2).is_none());
        let light = FaultSeverity::Light.profile(6, 2).unwrap();
        let heavy = FaultSeverity::Heavy.profile(6, 2).unwrap();
        assert!(light.max_events < heavy.max_events);
        assert!(light.max_crashes < heavy.max_crashes);
    }

    /// The core determinism contract on the smallest grid that still
    /// exercises snapshot-forked fault variants: same spec, any thread
    /// count, byte-identical serialized dataset.
    #[test]
    fn tiny_sweep_is_thread_count_invariant() {
        let spec = SweepSpec::tiny();
        let seq = run_sweep(&spec, 1);
        let par = run_sweep(&spec, 4);
        assert_eq!(seq.rows.len(), spec.runs());
        assert_eq!(seq.to_csv(), par.to_csv());
        assert_eq!(seq.to_json(), par.to_json());
        // Labels are real simulations, not zeros.
        assert!(seq.rows.iter().all(|r| r.makespan_s > 0.0));
        assert!(seq.rows.iter().any(|r| r.jobs_finished > 0));
    }
}
