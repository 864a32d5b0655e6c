//! Per-run and per-job metrics snapshots distilled from the trace.
//!
//! When a platform is launched with tracing enabled
//! (`PlatformConfig::builder().tracing(true)`), every fig/ablation binary
//! gets uniform telemetry for free: [`VHadoop::metrics`] aggregates the
//! recorded spans into per-category statistics, and
//! [`VHadoop::job_metrics`] restricts them to one job via the `job` span
//! argument the MapReduce instrumentation attaches.

use crate::faults::InjectedFault;
use crate::platform::VHadoop;
use mapreduce::job::JobResult;
use simcore::engine::KernelStats;
use simcore::prelude::*;
use std::fmt::Write as _;
use vmonitor::analyser::MonitorReport;
use vsched::controller::WhatIfOutcome;

/// Aggregate view of one traced run (or one job within it).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Simulation instant the snapshot was taken.
    pub sim_time: SimTime,
    /// Total wakeups the engine has delivered.
    pub wakeups: u64,
    /// Spans included in this snapshot (after any job filter).
    pub spans: usize,
    /// Counter samples recorded by the monitor.
    pub counter_samples: usize,
    /// Per-category span statistics, sorted by category name.
    pub categories: Vec<CategoryStats>,
    /// Control-plane decisions, when the platform runs a controller.
    pub ctrl: Option<ControllerStats>,
}

/// Controller decisions distilled for `MetricsSnapshot` (printed by
/// `scalability` alongside kernel stats).
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerStats {
    /// Jobs admitted into the queue.
    pub jobs_admitted: u64,
    /// Jobs bounced off the full queue.
    pub jobs_rejected: u64,
    /// Jobs handed to the JobTracker.
    pub jobs_started: u64,
    /// Jobs that completed.
    pub jobs_finished: u64,
    /// Deepest the admission queue ever got.
    pub queue_depth_hwm: u64,
    /// VM moves the rebalancer handed to the migration manager.
    pub migrations_planned: u64,
    /// VM moves that completed.
    pub migrations_completed: u64,
    /// Injected aborts survived by planned migrations.
    pub migrations_aborted: u64,
    /// SLO violations so far.
    pub slo_violations: u64,
    /// Median admission-to-start wait, seconds.
    pub queue_wait_p50_s: f64,
    /// 95th-percentile admission-to-start wait, seconds.
    pub queue_wait_p95_s: f64,
    /// Candidate migrations graded by fork-and-measure what-if evaluation.
    pub whatif_evals: u64,
    /// Mean relative error of the active makespan model against measured
    /// fork makespans, `|measured − estimated| / measured`, blended over
    /// every evaluation regardless of which model priced it. Zero when no
    /// what-if evaluation ran.
    pub whatif_estimator_err_mean: f64,
    /// Worst relative estimator error across all what-if evaluations.
    pub whatif_estimator_err_max: f64,
    /// Estimator error broken out per [`MakespanModel`] implementation
    /// (each outcome records which model priced it), sorted by model
    /// name. One entry per model that produced at least one evaluation.
    ///
    /// [`MakespanModel`]: vsched::model::MakespanModel
    pub whatif_by_model: Vec<ModelErrStats>,
}

/// What-if estimator error attributed to one [`MakespanModel`] impl.
///
/// [`MakespanModel`]: vsched::model::MakespanModel
#[derive(Debug, Clone, PartialEq)]
pub struct ModelErrStats {
    /// The model's stable name (`hand-priced`, `learned`).
    pub model: String,
    /// What-if evaluations this model priced.
    pub evals: u64,
    /// Mean relative error, `|measured − estimated| / measured`.
    pub err_mean: f64,
    /// Worst relative error.
    pub err_max: f64,
}

impl MetricsSnapshot {
    /// Statistics of one category (`map`, `shuffle`, `reduce`, `hdfs`,
    /// `migration`), if any span of it was recorded.
    pub fn category(&self, name: &str) -> Option<&CategoryStats> {
        self.categories.iter().find(|c| c.name == name)
    }

    /// Human-readable summary table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "t={:.3}s wakeups={} spans={} counter_samples={}",
            self.sim_time.as_secs_f64(),
            self.wakeups,
            self.spans,
            self.counter_samples,
        );
        let _ =
            writeln!(out, "{:<12} {:>6} {:>12} {:>12}", "category", "count", "total_s", "max_s");
        for c in &self.categories {
            let _ = writeln!(
                out,
                "{:<12} {:>6} {:>12.3} {:>12.3}",
                c.name,
                c.count,
                c.total.as_secs_f64(),
                c.max.as_secs_f64(),
            );
        }
        if let Some(ctrl) = &self.ctrl {
            let _ = writeln!(
                out,
                "ctrl: adm={} rej={} fin={} q_hwm={} mig={}/{} viol={} wait p50={:.2}s p95={:.2}s",
                ctrl.jobs_admitted,
                ctrl.jobs_rejected,
                ctrl.jobs_finished,
                ctrl.queue_depth_hwm,
                ctrl.migrations_completed,
                ctrl.migrations_planned,
                ctrl.slo_violations,
                ctrl.queue_wait_p50_s,
                ctrl.queue_wait_p95_s,
            );
            if ctrl.whatif_evals > 0 {
                let _ = writeln!(
                    out,
                    "whatif: evals={} est_err mean={:.1}% max={:.1}%",
                    ctrl.whatif_evals,
                    ctrl.whatif_estimator_err_mean * 100.0,
                    ctrl.whatif_estimator_err_max * 100.0,
                );
                for m in &ctrl.whatif_by_model {
                    let _ = writeln!(
                        out,
                        "whatif[{}]: evals={} est_err mean={:.1}% max={:.1}%",
                        m.model,
                        m.evals,
                        m.err_mean * 100.0,
                        m.err_max * 100.0,
                    );
                }
            }
        }
        out
    }
}

/// HDFS data-integrity counters — the fail-fast inputs of the TPCx-HS
/// HSValidate oracle (DESIGN.md §17).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntegrityStats {
    /// Blocks carrying a recorded content checksum.
    pub checksummed_blocks: usize,
    /// Blocks below the configured replication factor (self-healing
    /// backlog).
    pub under_replicated_blocks: usize,
    /// Blocks with zero live replicas — acknowledged data lost.
    pub lost_blocks: usize,
}

/// One-call observability facade over a running platform: run metrics,
/// kernel counters, the fault log, the monitor's analysis, and any what-if
/// evaluations — everything the ablation and figure binaries previously
/// assembled from four separate accessors.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Trace-derived run (or job) metrics, including controller stats.
    pub metrics: MetricsSnapshot,
    /// Simulation-kernel work counters.
    pub kernel: KernelStats,
    /// Every fault injected so far, in injection order.
    pub faults: Vec<InjectedFault>,
    /// The nmon analyser's report, when a monitor is attached.
    pub monitor: Option<MonitorReport>,
    /// Fork-and-measure rebalance evaluations, in evaluation order.
    pub whatif: Vec<WhatIfOutcome>,
    /// HDFS data-integrity counters at observation time.
    pub integrity: IntegrityStats,
}

impl VHadoop {
    /// Metrics over every span recorded so far. Empty (zero spans) unless
    /// the platform was launched with tracing enabled.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.distill(|_| true)
    }

    /// Metrics restricted to spans of `job` (matched on the `job` span
    /// argument; hdfs/migration spans carry no job id and are excluded).
    pub fn job_metrics(&self, job: &JobResult) -> MetricsSnapshot {
        let tracer = self.rt.engine.tracer();
        let id = f64::from(job.id.0);
        self.distill(|s| tracer.span_arg(s, "job") == Some(id))
    }

    /// Everything observable about the run in one call (see
    /// [`Observation`]).
    pub fn observe(&self) -> Observation {
        Observation {
            metrics: self.metrics(),
            kernel: self.rt.engine.kernel_stats(),
            faults: self.fault_log().to_vec(),
            monitor: self.monitor_report(),
            whatif: self.controller().map(|c| c.whatif_outcomes().to_vec()).unwrap_or_default(),
            integrity: IntegrityStats {
                checksummed_blocks: self.rt.hdfs.checksummed_blocks(),
                under_replicated_blocks: self.rt.hdfs.under_replicated_blocks(),
                lost_blocks: self.rt.hdfs.lost_blocks(),
            },
        }
    }

    /// [`VHadoop::observe`] with metrics restricted to one job.
    pub fn observe_job(&self, job: &JobResult) -> Observation {
        Observation { metrics: self.job_metrics(job), ..self.observe() }
    }

    fn distill(&self, filter: impl FnMut(&Span) -> bool) -> MetricsSnapshot {
        let tracer = self.rt.engine.tracer();
        let categories = tracer.category_stats(filter);
        let ctrl = self.controller().map(|c| {
            let counters = c.counters();
            let slo = c.slo_report();
            let errs: Vec<f64> = c
                .whatif_outcomes()
                .iter()
                .filter(|o| o.measured_s > 0.0)
                .map(|o| (o.measured_s - o.estimated_s).abs() / o.measured_s)
                .collect();
            // Per-model attribution: each outcome names the model that
            // priced it, so estimator error never blends across models.
            let mut by_model: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
            for o in c.whatif_outcomes() {
                if o.measured_s > 0.0 {
                    by_model
                        .entry(o.model.as_str())
                        .or_default()
                        .push((o.measured_s - o.estimated_s).abs() / o.measured_s);
                }
            }
            let whatif_by_model: Vec<ModelErrStats> = by_model
                .into_iter()
                .map(|(model, errs)| ModelErrStats {
                    model: model.to_string(),
                    evals: errs.len() as u64,
                    err_mean: errs.iter().sum::<f64>() / errs.len() as f64,
                    err_max: errs.iter().copied().fold(0.0, f64::max),
                })
                .collect();
            ControllerStats {
                jobs_admitted: counters.jobs_admitted,
                jobs_rejected: counters.jobs_rejected,
                jobs_started: counters.jobs_started,
                jobs_finished: counters.jobs_finished,
                queue_depth_hwm: counters.queue_depth_hwm,
                migrations_planned: counters.migrations_planned,
                migrations_completed: counters.migrations_completed,
                migrations_aborted: counters.migrations_aborted,
                slo_violations: counters.slo_violations,
                queue_wait_p50_s: slo.queue_wait_p50_s,
                queue_wait_p95_s: slo.queue_wait_p95_s,
                whatif_evals: c.whatif_outcomes().len() as u64,
                whatif_estimator_err_mean: if errs.is_empty() {
                    0.0
                } else {
                    errs.iter().sum::<f64>() / errs.len() as f64
                },
                whatif_estimator_err_max: errs.iter().copied().fold(0.0, f64::max),
                whatif_by_model,
            }
        });
        MetricsSnapshot {
            sim_time: self.rt.engine.now(),
            wakeups: self.rt.engine.wakeups_delivered(),
            spans: categories.iter().map(|c| c.count).sum(),
            counter_samples: tracer.counters().len(),
            categories,
            ctrl,
        }
    }
}
