//! # tuner — the vHadoop MapReduce Tuner
//!
//! "Responsible for tuning the configuration parameters of hadoop virtual
//! cluster ... according to the results generated by the nmon Monitor. It
//! can be implemented by re-configuring the parameters of vHadoop platform
//! or using the live migration technique to dynamically adjust the
//! vHadoop configurations."
//!
//! [`analyze`] matches monitor reports and job counters against a rule
//! base and produces [`Finding`]s (what is wrong) and [`Action`]s (what to
//! change); [`apply_to_job_config`] / [`apply_to_hdfs_config`] carry the
//! re-configuration actions out. The platform-wide actions — migrating
//! VMs, switching the JobTracker's scheduler policy — are advice for the
//! operator.

#![warn(missing_docs)]

use mapreduce::config::JobConfig;
use mapreduce::job::JobResult;
use mapreduce::scheduler::SchedulerPolicy;
use simcore::fluid::ResourceKind;
use vhdfs::hdfs::HdfsConfig;
use vmonitor::analyser::MonitorReport;

/// A diagnosed performance problem.
#[derive(Debug, Clone, PartialEq)]
pub enum Finding {
    /// The NFS server disk is the bottleneck (the paper's conclusion i).
    NfsDiskSaturated {
        /// Mean utilization observed.
        mean_util: f64,
    },
    /// A physical NIC is the bottleneck (the paper's conclusion i).
    NetworkSaturated {
        /// Resource name (e.g. `pm0.nic`).
        resource: String,
        /// Mean utilization observed.
        mean_util: f64,
    },
    /// A host CPU pool is saturated.
    HostCpuSaturated {
        /// Resource name.
        resource: String,
        /// Mean utilization observed.
        mean_util: f64,
    },
    /// Host load is strongly imbalanced.
    HostImbalance {
        /// Busiest host's mean CPU utilization.
        busy: f64,
        /// Idlest host's mean CPU utilization.
        idle: f64,
    },
    /// Maps mostly read remote data.
    PoorLocality {
        /// Fraction of data-local maps.
        locality: f64,
    },
    /// Shuffle volume close to map output volume (combiner would help).
    ShuffleHeavy {
        /// shuffle bytes / map output bytes.
        ratio: f64,
    },
    /// Reduce input is skewed across partitions: the largest partition
    /// dominates the reduce phase, so its placement matters.
    ReduceSkew {
        /// Largest partition bytes / mean partition bytes.
        ratio: f64,
    },
}

/// A recommended change.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Turn the combiner on.
    EnableCombiner,
    /// Turn locality-aware scheduling on.
    EnableLocalityScheduling,
    /// Reduce the reduce count to cut shuffle fan-out.
    SetReduces(
        /// New value.
        u32,
    ),
    /// Grow `dfs.block.size` to cut per-block overheads on NFS.
    SetBlockSize(
        /// New value in bytes.
        u64,
    ),
    /// Rebalance by live-migrating VMs off the named busy host.
    MigrateVmsOffHost(
        /// Host index to relieve.
        u32,
    ),
    /// Switch the JobTracker's task-scheduler policy (platform-wide:
    /// `PlatformConfig::scheduler` or `MrEngine::set_policy`).
    SetSchedulerPolicy(
        /// Policy to switch to.
        SchedulerPolicy,
    ),
}

/// The tuner's output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Advice {
    /// Diagnosed problems, most severe first.
    pub findings: Vec<Finding>,
    /// Recommended changes, in application order.
    pub actions: Vec<Action>,
}

impl Advice {
    /// True when nothing needs tuning.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering.
    pub fn to_text(&self) -> String {
        if self.is_clean() {
            return "no tuning needed: no saturated resources or inefficiencies found\n".into();
        }
        let mut out = String::from("findings:\n");
        for f in &self.findings {
            out.push_str(&format!("  - {f:?}\n"));
        }
        out.push_str("actions:\n");
        for a in &self.actions {
            out.push_str(&format!("  - {a:?}\n"));
        }
        out
    }
}

/// Saturation threshold for "this resource is the problem".
const SATURATION: f64 = 0.75;
/// Shuffle/map-output ratio above which a combiner is advised.
const SHUFFLE_HEAVY: f64 = 0.7;
/// Locality fraction below which locality scheduling is advised.
const LOCALITY_FLOOR: f64 = 0.5;
/// Largest-partition/mean-partition ratio above which reduce input is
/// considered skewed enough to warrant size-aware placement.
const SKEW_RATIO: f64 = 2.0;

/// Diagnoses a finished job run from the monitor report, the job's
/// counters and configuration, and the `policy` the JobTracker ran it
/// under.
pub fn analyze(
    report: &MonitorReport,
    job: Option<&JobResult>,
    config: Option<&JobConfig>,
    policy: SchedulerPolicy,
) -> Advice {
    let mut advice = Advice::default();

    if let Some(nfs) = report.resource("nfs.disk") {
        if nfs.util.mean > SATURATION {
            advice.findings.push(Finding::NfsDiskSaturated { mean_util: nfs.util.mean });
            advice.actions.push(Action::SetBlockSize(128 * 1024 * 1024));
        }
    }

    for r in &report.resources {
        if r.kind == ResourceKind::Net && r.name.ends_with(".nic") && r.util.mean > SATURATION {
            advice.findings.push(Finding::NetworkSaturated {
                resource: r.name.clone(),
                mean_util: r.util.mean,
            });
        }
    }

    // Host CPU saturation & imbalance.
    let host_cpus: Vec<_> = report
        .resources
        .iter()
        .filter(|r| r.kind == ResourceKind::Cpu && r.name.starts_with("pm"))
        .collect();
    for r in &host_cpus {
        if r.util.mean > SATURATION {
            advice.findings.push(Finding::HostCpuSaturated {
                resource: r.name.clone(),
                mean_util: r.util.mean,
            });
        }
    }
    if host_cpus.len() >= 2 {
        let busiest = host_cpus
            .iter()
            .max_by(|a, b| a.util.mean.partial_cmp(&b.util.mean).expect("no NaN"))
            .expect("non-empty");
        let idlest = host_cpus
            .iter()
            .min_by(|a, b| a.util.mean.partial_cmp(&b.util.mean).expect("no NaN"))
            .expect("non-empty");
        if busiest.util.mean - idlest.util.mean > 0.4 && busiest.util.mean > 0.5 {
            advice
                .findings
                .push(Finding::HostImbalance { busy: busiest.util.mean, idle: idlest.util.mean });
            // "pmN.cpu" → N.
            let host: u32 =
                busiest.name.trim_start_matches("pm").trim_end_matches(".cpu").parse().unwrap_or(0);
            advice.actions.push(Action::MigrateVmsOffHost(host));
        }
    }

    if let Some(job) = job {
        let c = &job.counters;
        if c.launched_maps > 0 && c.data_locality() < LOCALITY_FLOOR {
            advice.findings.push(Finding::PoorLocality { locality: c.data_locality() });
            if config.is_some_and(|cfg| !cfg.locality_aware) {
                advice.actions.push(Action::EnableLocalityScheduling);
            } else if policy != SchedulerPolicy::JobDriven {
                // Locality-aware FIFO still missed: the job-driven policy
                // makes dedicated data-local and host-local passes over the
                // whole pending queue instead of FIFO's front-of-queue pick.
                advice.actions.push(Action::SetSchedulerPolicy(SchedulerPolicy::JobDriven));
            }
        }
        // Skewed reduce input: the largest partition dominates the reduce
        // phase, so it should land first on the least-loaded tracker — the
        // job-driven policy's size-aware reduce placement.
        if job.partition_sizes.len() >= 2 {
            let max = job.partition_sizes.iter().copied().max().unwrap_or(0) as f64;
            let mean =
                job.partition_sizes.iter().sum::<usize>() as f64 / job.partition_sizes.len() as f64;
            if mean > 0.0 && max / mean > SKEW_RATIO {
                advice.findings.push(Finding::ReduceSkew { ratio: max / mean });
                let switch = Action::SetSchedulerPolicy(SchedulerPolicy::JobDriven);
                if policy != SchedulerPolicy::JobDriven && !advice.actions.contains(&switch) {
                    advice.actions.push(switch);
                }
            }
        }
        if c.map_output_bytes > 0 {
            let ratio = c.shuffle_bytes as f64 / c.map_output_bytes as f64;
            if ratio > SHUFFLE_HEAVY && c.map_output_records > c.reduce_input_groups * 4 {
                advice.findings.push(Finding::ShuffleHeavy { ratio });
                if config.is_some_and(|cfg| !cfg.use_combiner) {
                    advice.actions.push(Action::EnableCombiner);
                } else if config.is_some_and(|cfg| cfg.num_reduces > 2) {
                    let target = config.expect("checked").num_reduces / 2;
                    advice.actions.push(Action::SetReduces(target.max(1)));
                }
            }
        }
    }

    advice
}

/// Applies job-level actions; returns descriptions of changes made.
pub fn apply_to_job_config(advice: &Advice, config: &mut JobConfig) -> Vec<String> {
    let mut changed = Vec::new();
    for action in &advice.actions {
        match action {
            Action::EnableCombiner if !config.use_combiner => {
                config.use_combiner = true;
                changed.push("use_combiner: false -> true".to_string());
            }
            Action::EnableLocalityScheduling if !config.locality_aware => {
                config.locality_aware = true;
                changed.push("locality_aware: false -> true".to_string());
            }
            Action::SetReduces(n) if config.num_reduces != *n => {
                changed.push(format!("num_reduces: {} -> {n}", config.num_reduces));
                config.num_reduces = *n;
            }
            _ => {}
        }
    }
    changed
}

/// Applies file-system-level actions; returns descriptions of changes.
pub fn apply_to_hdfs_config(advice: &Advice, config: &mut HdfsConfig) -> Vec<String> {
    let mut changed = Vec::new();
    for action in &advice.actions {
        if let Action::SetBlockSize(b) = action {
            if config.block_size != *b {
                changed.push(format!("dfs.block.size: {} -> {b}", config.block_size));
                config.block_size = *b;
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::prelude::*;
    use vcluster::prelude::*;
    use vmonitor::monitor::Monitor;

    /// Builds a report from a scenario closure that loads the cluster.
    fn report_for(load: impl Fn(&mut Engine, &VirtualCluster)) -> MonitorReport {
        let mut e = Engine::new();
        let spec = ClusterSpec::builder()
            .hosts(2)
            .vms(4)
            .vm_vcpus(4)
            .placement(Placement::CrossDomain)
            .build();
        let c = VirtualCluster::new(&mut e, spec);
        let mut m = Monitor::attach(&mut e, SimDuration::from_millis(500));
        load(&mut e, &c);
        while let Some((_, w)) = e.next_wakeup() {
            m.on_wakeup(&mut e, &w);
        }
        MonitorReport::from_monitor(&m)
    }

    #[test]
    fn nfs_saturation_advises_bigger_blocks() {
        let report = report_for(|e, c| {
            e.start_chain(c.disk_read(VmId(1), 90e6 * 10.0), Tag::owner(simcore::owners::USER));
        });
        let advice = analyze(&report, None, None, SchedulerPolicy::Fifo);
        assert!(matches!(advice.findings[0], Finding::NfsDiskSaturated { .. }));
        assert!(advice.actions.contains(&Action::SetBlockSize(128 * 1024 * 1024)));
        let mut cfg = HdfsConfig::default();
        let changed = apply_to_hdfs_config(&advice, &mut cfg);
        assert_eq!(cfg.block_size, 128 * 1024 * 1024);
        assert_eq!(changed.len(), 1);
    }

    #[test]
    fn cpu_imbalance_advises_migration() {
        let report = report_for(|e, c| {
            // Load only host 0 (vm0 and vm2 live there under round robin).
            for vm in [0u32, 2] {
                for _ in 0..8 {
                    e.start_chain(
                        c.compute(VmId(vm), 2.4e9 * 10.0),
                        Tag::owner(simcore::owners::USER),
                    );
                }
            }
        });
        let advice = analyze(&report, None, None, SchedulerPolicy::Fifo);
        assert!(
            advice.findings.iter().any(|f| matches!(f, Finding::HostImbalance { .. })),
            "imbalance detected: {advice:?}"
        );
        assert!(advice.actions.iter().any(|a| matches!(a, Action::MigrateVmsOffHost(0))));
    }

    #[test]
    fn clean_run_gives_no_advice() {
        let report = report_for(|e, c| {
            e.start_chain(c.compute(VmId(0), 2.4e9 * 0.5), Tag::owner(simcore::owners::USER));
        });
        let advice = analyze(&report, None, None, SchedulerPolicy::Fifo);
        assert!(advice.is_clean(), "got {advice:?}");
        assert!(advice.to_text().contains("no tuning needed"));
    }

    #[test]
    fn shuffle_heavy_job_advises_combiner() {
        use mapreduce::counters::Counters;
        use mapreduce::job::{JobId, JobResult};
        // Fabricate a shuffle-heavy wordcount-like result with no combiner.
        let job = JobResult {
            id: JobId(0),
            name: "wc".into(),
            submitted: SimTime::ZERO,
            finished: SimTime::from_secs(10),
            elapsed: SimDuration::from_secs(10),
            map_phase: SimDuration::from_secs(6),
            reduce_phase: SimDuration::from_secs(4),
            counters: Counters {
                launched_maps: 4,
                data_local_maps: 4,
                map_output_bytes: 1_000_000,
                map_output_records: 100_000,
                shuffle_bytes: 990_000,
                reduce_input_groups: 5_000,
                ..Default::default()
            },
            outputs: Vec::new(),
            partition_sizes: Vec::new(),
        };
        let report = report_for(|e, c| {
            e.start_chain(c.compute(VmId(0), 2.4e9), Tag::owner(simcore::owners::USER));
        });
        let mut cfg = JobConfig::default().with_combiner(false);
        let advice = analyze(&report, Some(&job), Some(&cfg), SchedulerPolicy::Fifo);
        assert!(advice.findings.iter().any(|f| matches!(f, Finding::ShuffleHeavy { .. })));
        let changed = apply_to_job_config(&advice, &mut cfg);
        assert!(cfg.use_combiner);
        assert_eq!(changed, vec!["use_combiner: false -> true"]);
    }

    /// A minimal healthy-cluster report (no saturated resources).
    fn quiet_report() -> MonitorReport {
        report_for(|e, c| {
            e.start_chain(c.compute(VmId(0), 2.4e9 * 0.5), Tag::owner(simcore::owners::USER));
        })
    }

    /// A JobResult skeleton with healthy counters.
    fn plain_job() -> JobResult {
        use mapreduce::counters::Counters;
        use mapreduce::job::JobId;
        JobResult {
            id: JobId(0),
            name: "wc".into(),
            submitted: SimTime::ZERO,
            finished: SimTime::from_secs(10),
            elapsed: SimDuration::from_secs(10),
            map_phase: SimDuration::from_secs(6),
            reduce_phase: SimDuration::from_secs(4),
            counters: Counters { launched_maps: 4, data_local_maps: 4, ..Default::default() },
            outputs: Vec::new(),
            partition_sizes: Vec::new(),
        }
    }

    use mapreduce::job::JobResult;

    /// The switch is advised against the JobTracker's policy: under FIFO a
    /// skewed job gets the finding and the switch, under `JobDriven` the
    /// finding only. The switch is platform-wide, so the job's config
    /// takes nothing from it.
    #[test]
    fn reduce_skew_advises_job_driven_scheduler() {
        let mut job = plain_job();
        job.partition_sizes = vec![100, 100, 100, 900]; // max = 3× mean
        let mut cfg = JobConfig::default();
        let switch = Action::SetSchedulerPolicy(SchedulerPolicy::JobDriven);
        let fifo = analyze(&quiet_report(), Some(&job), Some(&cfg), SchedulerPolicy::Fifo);
        assert!(fifo.findings.iter().any(|f| matches!(f, Finding::ReduceSkew { .. })));
        assert!(fifo.actions.contains(&switch));
        assert_eq!(apply_to_job_config(&fifo, &mut cfg), Vec::<String>::new());
        assert_eq!(cfg, JobConfig::default());
        let driven = analyze(&quiet_report(), Some(&job), Some(&cfg), SchedulerPolicy::JobDriven);
        assert!(driven.findings.iter().any(|f| matches!(f, Finding::ReduceSkew { .. })));
        assert!(!driven.actions.iter().any(|a| matches!(a, Action::SetSchedulerPolicy(_))));
    }

    #[test]
    fn poor_locality_despite_locality_aware_advises_job_driven() {
        let mut job = plain_job();
        job.counters.data_local_maps = 1; // 25% locality, under the floor
        let cfg = JobConfig::default(); // locality_aware is on by default
        let advice = analyze(&quiet_report(), Some(&job), Some(&cfg), SchedulerPolicy::Fifo);
        assert!(advice.findings.iter().any(|f| matches!(f, Finding::PoorLocality { .. })));
        assert!(advice.actions.contains(&Action::SetSchedulerPolicy(SchedulerPolicy::JobDriven)));
        // Already job-driven: the finding stands, nothing to switch to.
        let driven = analyze(&quiet_report(), Some(&job), Some(&cfg), SchedulerPolicy::JobDriven);
        assert!(driven.findings.iter().any(|f| matches!(f, Finding::PoorLocality { .. })));
        assert!(driven.actions.is_empty(), "{driven:?}");
        // With locality scheduling off, the cheaper fix is advised instead.
        let cfg_off = JobConfig::default().with_locality(false);
        let advice_off =
            analyze(&quiet_report(), Some(&job), Some(&cfg_off), SchedulerPolicy::Fifo);
        assert!(advice_off.actions.contains(&Action::EnableLocalityScheduling));
        assert!(!advice_off.actions.iter().any(|a| matches!(a, Action::SetSchedulerPolicy(_))));
    }
}
