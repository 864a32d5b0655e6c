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
    /// Trace-derived run (or job) metrics.
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

    fn distill(&self, filter: impl FnMut(&Span) -> bool) -> MetricsSnapshot {
        let tracer = self.rt.engine.tracer();
        let categories = tracer.category_stats(filter);
        MetricsSnapshot {
            sim_time: self.rt.engine.now(),
            wakeups: self.rt.engine.wakeups_delivered(),
            spans: categories.iter().map(|c| c.count).sum(),
            counter_samples: tracer.counters().len(),
            categories,
        }
    }
}
