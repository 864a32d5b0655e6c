//! Bounded admission queue with pluggable order, plus per-job SLO
//! tracking.
//!
//! Jobs arrive (open loop — the arrival process does not wait for the
//! cluster), are **admitted** into a bounded queue or rejected when it is
//! full, and are **started** by the controller whenever the cluster has a
//! free multiprogramming slot. The queue order is a policy choice:
//! first-come-first-served, shortest-expected-first, or per-tenant fair
//! share. Every transition is timestamped so the [`SloTracker`] can report
//! queue waits, makespans, and slowdowns per job.

use mapreduce::runtime::PendingJob;
use simcore::emit::Json;
use simcore::prelude::*;
use simcore::stats::{percentile_sorted, OnlineStats};
use std::collections::HashMap;

/// Order in which queued jobs are started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// Strict arrival order.
    #[default]
    Fifo,
    /// Smallest expected service time first (ties by arrival).
    ShortestFirst,
    /// Round-robin over tenants by jobs already started, earliest arrival
    /// within the chosen tenant.
    FairShare,
}

impl QueuePolicy {
    /// All policies, in display order.
    pub const ALL: [QueuePolicy; 3] =
        [QueuePolicy::Fifo, QueuePolicy::ShortestFirst, QueuePolicy::FairShare];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            QueuePolicy::Fifo => "fifo",
            QueuePolicy::ShortestFirst => "shortest-first",
            QueuePolicy::FairShare => "fair-share",
        }
    }
}

/// Admission-layer tunables.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueConfig {
    /// Maximum queued (admitted but not yet started) jobs; arrivals beyond
    /// this are rejected.
    pub capacity: usize,
    /// Start order of queued jobs.
    pub policy: QueuePolicy,
    /// Multiprogramming level: how many admitted jobs may run at once.
    pub max_active: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig { capacity: 32, policy: QueuePolicy::Fifo, max_active: 2 }
    }
}

/// One admitted job waiting to start.
#[derive(Debug)]
pub struct QueuedJob {
    /// Controller-local id (dense, assigned at offer time).
    pub ctrl_id: u32,
    /// Submitting tenant.
    pub tenant: u32,
    /// Admission instant.
    pub arrival: SimTime,
    /// Expected solo service time, seconds (ordering hint).
    pub expected_s: f64,
    /// The deferred job itself.
    pub job: PendingJob,
}

/// Bounded admission queue. Not a scheduler — it only decides *which*
/// admitted job starts next; the MapReduce engine still schedules tasks.
#[derive(Debug, Default)]
pub struct AdmissionQueue {
    cfg: QueueConfig,
    pending: Vec<QueuedJob>,
    /// Jobs started so far per tenant (fair-share bookkeeping).
    started_by_tenant: HashMap<u32, u64>,
    depth_hwm: usize,
}

impl AdmissionQueue {
    /// Empty queue under `cfg`.
    pub fn new(cfg: QueueConfig) -> Self {
        AdmissionQueue { cfg, ..Default::default() }
    }

    /// The active configuration.
    pub fn config(&self) -> &QueueConfig {
        &self.cfg
    }

    /// Queued job count.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Deepest the queue has ever been.
    pub fn depth_hwm(&self) -> usize {
        self.depth_hwm
    }

    /// Admits `job` unless the queue is full; returns whether it was
    /// admitted.
    pub fn offer(&mut self, job: QueuedJob) -> bool {
        if self.pending.len() >= self.cfg.capacity {
            return false;
        }
        self.pending.push(job);
        self.depth_hwm = self.depth_hwm.max(self.pending.len());
        true
    }

    /// Removes and returns the next job to start under the configured
    /// policy, bumping the fair-share account of its tenant.
    pub fn pop_next(&mut self) -> Option<QueuedJob> {
        if self.pending.is_empty() {
            return None;
        }
        let idx = match self.cfg.policy {
            // `pending` is in arrival order: index 0 is the oldest.
            QueuePolicy::Fifo => 0,
            QueuePolicy::ShortestFirst => self
                .pending
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.expected_s
                        .total_cmp(&b.expected_s)
                        .then(a.arrival.cmp(&b.arrival))
                        .then(a.ctrl_id.cmp(&b.ctrl_id))
                })
                .map(|(i, _)| i)
                .expect("non-empty"),
            QueuePolicy::FairShare => {
                let served = |t: u32| self.started_by_tenant.get(&t).copied().unwrap_or(0);
                self.pending
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        served(a.tenant)
                            .cmp(&served(b.tenant))
                            .then(a.arrival.cmp(&b.arrival))
                            .then(a.ctrl_id.cmp(&b.ctrl_id))
                    })
                    .map(|(i, _)| i)
                    .expect("non-empty")
            }
        };
        let job = self.pending.remove(idx);
        *self.started_by_tenant.entry(job.tenant).or_insert(0) += 1;
        Some(job)
    }
}

simcore::persist_struct!(QueuedJob { ctrl_id, tenant, arrival, expected_s, job });
simcore::persist_state!(AdmissionQueue { pending, started_by_tenant, depth_hwm });

/// Queue waits beyond this count as SLO violations.
pub const MAX_QUEUE_WAIT: SimDuration = SimDuration::from_secs(60);
/// Slowdowns (makespan ÷ expected solo time) beyond this count as SLO
/// violations.
pub const MAX_SLOWDOWN: f64 = 8.0;

/// Lifecycle timestamps of one job, as the controller saw them.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSlo {
    /// Controller-local id.
    pub ctrl_id: u32,
    /// Submitting tenant.
    pub tenant: u32,
    /// Admission (or rejection) instant.
    pub arrival: SimTime,
    /// Whether the job was admitted into the queue at all.
    pub admitted: bool,
    /// When the controller handed it to the JobTracker.
    pub started: Option<SimTime>,
    /// When the JobTracker reported it done.
    pub finished: Option<SimTime>,
    /// Expected solo service time, seconds.
    pub expected_s: f64,
}

simcore::persist_struct!(JobSlo {
    ctrl_id,
    tenant,
    arrival,
    admitted,
    started,
    finished,
    expected_s
});

impl JobSlo {
    /// Admission-to-start wait, if the job has started.
    pub fn queue_wait(&self) -> Option<SimDuration> {
        self.started.map(|s| s.saturating_since(self.arrival))
    }

    /// Admission-to-finish span, if the job has finished.
    pub fn makespan(&self) -> Option<SimDuration> {
        self.finished.map(|f| f.saturating_since(self.arrival))
    }

    /// Makespan over expected solo service time.
    pub fn slowdown(&self) -> Option<f64> {
        self.makespan().map(|m| m.as_secs_f64() / self.expected_s.max(1e-9))
    }
}

/// Records per-job lifecycle events and distills them into an
/// [`SloReport`], judged against [`MAX_QUEUE_WAIT`] and [`MAX_SLOWDOWN`].
#[derive(Debug, Default)]
pub struct SloTracker {
    jobs: Vec<JobSlo>,
    by_id: HashMap<u32, usize>,
}

impl SloTracker {
    /// Records an arrival (admitted or rejected).
    pub fn record_arrival(
        &mut self,
        ctrl_id: u32,
        tenant: u32,
        at: SimTime,
        expected_s: f64,
        admitted: bool,
    ) {
        self.by_id.insert(ctrl_id, self.jobs.len());
        self.jobs.push(JobSlo {
            ctrl_id,
            tenant,
            arrival: at,
            admitted,
            started: None,
            finished: None,
            expected_s,
        });
    }

    /// Records the job being handed to the JobTracker.
    pub fn record_start(&mut self, ctrl_id: u32, at: SimTime) {
        let i = self.by_id[&ctrl_id];
        self.jobs[i].started = Some(at);
    }

    /// Records job completion; returns the fresh SLO violations (0–2) this
    /// job contributed.
    pub fn record_finish(&mut self, ctrl_id: u32, at: SimTime) -> u64 {
        let i = self.by_id[&ctrl_id];
        self.jobs[i].finished = Some(at);
        let mut v = 0;
        if self.jobs[i].queue_wait().is_some_and(|w| w > MAX_QUEUE_WAIT) {
            v += 1;
        }
        if self.jobs[i].slowdown().is_some_and(|s| s > MAX_SLOWDOWN) {
            v += 1;
        }
        v
    }

    /// Every job seen so far.
    pub fn jobs(&self) -> &[JobSlo] {
        &self.jobs
    }

    /// Encodes the per-job lifecycle records (`by_id` is derived).
    pub fn encode_state(&self, e: &mut Encoder) {
        self.jobs.encode(e);
    }

    /// Restores the lifecycle records, rebuilding the id index.
    // codec by hand: `by_id` is rebuilt from the records, not written
    pub fn restore_state(&mut self, d: &mut Decoder) {
        self.jobs = Vec::decode(d);
        self.by_id = self.jobs.iter().enumerate().map(|(i, j)| (j.ctrl_id, i)).collect();
    }

    /// Distills the recorded lifecycle into aggregate statistics.
    pub fn report(&self) -> SloReport {
        let mut waits: Vec<f64> =
            self.jobs.iter().filter_map(|j| j.queue_wait().map(|w| w.as_secs_f64())).collect();
        waits.sort_by(f64::total_cmp);
        let mut makespan = OnlineStats::new();
        let mut slowdown = OnlineStats::new();
        let mut violations = 0u64;
        for j in &self.jobs {
            if let Some(m) = j.makespan() {
                makespan.push(m.as_secs_f64());
            }
            if let Some(s) = j.slowdown() {
                slowdown.push(s);
                if s > MAX_SLOWDOWN {
                    violations += 1;
                }
            }
            if j.queue_wait().is_some_and(|w| w > MAX_QUEUE_WAIT) {
                violations += 1;
            }
        }
        let pct = |p: f64| if waits.is_empty() { 0.0 } else { percentile_sorted(&waits, p) };
        SloReport {
            jobs: self.jobs.len() as u64,
            admitted: self.jobs.iter().filter(|j| j.admitted).count() as u64,
            rejected: self.jobs.iter().filter(|j| !j.admitted).count() as u64,
            started: self.jobs.iter().filter(|j| j.started.is_some()).count() as u64,
            finished: self.jobs.iter().filter(|j| j.finished.is_some()).count() as u64,
            starved: self.jobs.iter().filter(|j| j.admitted && j.started.is_none()).count() as u64,
            queue_wait_p50_s: pct(0.50),
            queue_wait_p95_s: pct(0.95),
            queue_wait_max_s: waits.last().copied().unwrap_or(0.0),
            makespan_mean_s: makespan.mean(),
            makespan_max_s: makespan.max().unwrap_or(0.0),
            slowdown_mean: slowdown.mean(),
            slowdown_max: slowdown.max().unwrap_or(0.0),
            violations,
        }
    }
}

/// Aggregate SLO statistics of one controller run.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Jobs the controller ever saw (admitted + rejected).
    pub jobs: u64,
    /// Jobs admitted into the queue.
    pub admitted: u64,
    /// Jobs rejected at the (full) queue.
    pub rejected: u64,
    /// Jobs handed to the JobTracker.
    pub started: u64,
    /// Jobs that completed.
    pub finished: u64,
    /// Admitted jobs that never started — must be 0 at the end of a
    /// drained run (the no-starvation guarantee).
    pub starved: u64,
    /// Median admission-to-start wait, seconds.
    pub queue_wait_p50_s: f64,
    /// 95th-percentile admission-to-start wait, seconds.
    pub queue_wait_p95_s: f64,
    /// Largest admission-to-start wait, seconds.
    pub queue_wait_max_s: f64,
    /// Mean admission-to-finish span, seconds.
    pub makespan_mean_s: f64,
    /// Largest admission-to-finish span, seconds.
    pub makespan_max_s: f64,
    /// Mean slowdown (makespan ÷ expected solo time).
    pub slowdown_mean: f64,
    /// Largest slowdown.
    pub slowdown_max: f64,
    /// SLO violations (queue wait + slowdown, counted per job).
    pub violations: u64,
}

impl SloReport {
    /// One-line human summary.
    pub fn to_line(&self) -> String {
        format!(
            "jobs {} (adm {} rej {} fin {} starved {})  wait p50 {:.1}s p95 {:.1}s  \
             slowdown mean {:.2} max {:.2}  violations {}",
            self.jobs,
            self.admitted,
            self.rejected,
            self.finished,
            self.starved,
            self.queue_wait_p50_s,
            self.queue_wait_p95_s,
            self.slowdown_mean,
            self.slowdown_max,
            self.violations,
        )
    }
}

/// Renders the report plus controller counters as the SLO-report JSON
/// (`results/job_stream.slo.json`).
pub fn slo_report_json(
    report: &SloReport,
    counters: &crate::controller::ControllerCounters,
) -> String {
    let floats = |fields: &[(&str, f64)]| Json::object(fields.iter().map(|&(k, v)| (k, v.into())));
    Json::object([
        ("report", "slo".into()),
        ("jobs", report.jobs.into()),
        ("admitted", report.admitted.into()),
        ("rejected", report.rejected.into()),
        ("started", report.started.into()),
        ("finished", report.finished.into()),
        ("starved", report.starved.into()),
        (
            "queue_wait_s",
            floats(&[
                ("p50", report.queue_wait_p50_s),
                ("p95", report.queue_wait_p95_s),
                ("max", report.queue_wait_max_s),
            ]),
        ),
        ("makespan_s", floats(&[("mean", report.makespan_mean_s), ("max", report.makespan_max_s)])),
        ("slowdown", floats(&[("mean", report.slowdown_mean), ("max", report.slowdown_max)])),
        ("violations", report.violations.into()),
        (
            "counters",
            Json::object([
                ("queue_depth_hwm", counters.queue_depth_hwm.into()),
                ("migrations_planned", counters.migrations_planned.into()),
                ("migrations_completed", counters.migrations_completed.into()),
                ("migrations_aborted", counters.migrations_aborted.into()),
                ("rebalance_ticks", counters.rebalance_ticks.into()),
            ]),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(ctrl_id: u32, tenant: u32, arrival_s: u64, expected_s: f64) -> QueuedJob {
        QueuedJob {
            ctrl_id,
            tenant,
            arrival: SimTime::from_secs(arrival_s),
            expected_s,
            job: PendingJob::new(format!("j{ctrl_id}"), |_| mapreduce::job::JobId(0)),
        }
    }

    #[test]
    fn bounded_queue_rejects_when_full() {
        let mut aq = AdmissionQueue::new(QueueConfig { capacity: 2, ..Default::default() });
        assert!(aq.offer(q(0, 0, 0, 1.0)));
        assert!(aq.offer(q(1, 0, 1, 1.0)));
        assert!(!aq.offer(q(2, 0, 2, 1.0)), "third job bounces off the bound");
        assert_eq!(aq.depth_hwm(), 2);
        assert_eq!(aq.len(), 2);
    }

    #[test]
    fn fifo_pops_in_arrival_order() {
        let mut aq = AdmissionQueue::new(QueueConfig::default());
        for (id, t) in [(0, 5), (1, 3), (2, 9)] {
            aq.offer(q(id, 0, t, 1.0));
        }
        let order: Vec<u32> = std::iter::from_fn(|| aq.pop_next().map(|j| j.ctrl_id)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn shortest_first_orders_by_expected_cost() {
        let mut aq = AdmissionQueue::new(QueueConfig {
            policy: QueuePolicy::ShortestFirst,
            ..Default::default()
        });
        aq.offer(q(0, 0, 0, 9.0));
        aq.offer(q(1, 0, 1, 2.0));
        aq.offer(q(2, 0, 2, 5.0));
        let order: Vec<u32> = std::iter::from_fn(|| aq.pop_next().map(|j| j.ctrl_id)).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn fair_share_alternates_tenants() {
        let mut aq = AdmissionQueue::new(QueueConfig {
            policy: QueuePolicy::FairShare,
            ..Default::default()
        });
        // Tenant 0 floods first; tenant 1 arrives later but must not wait
        // behind the whole flood.
        for i in 0..3 {
            aq.offer(q(i, 0, u64::from(i), 1.0));
        }
        aq.offer(q(3, 1, 10, 1.0));
        aq.offer(q(4, 1, 11, 1.0));
        let order: Vec<u32> = std::iter::from_fn(|| aq.pop_next().map(|j| j.ctrl_id)).collect();
        assert_eq!(order, vec![0, 3, 1, 4, 2], "starts alternate between tenants");
    }

    #[test]
    fn slo_tracker_computes_waits_and_violations() {
        // The thresholds: 60 s of queue wait, a slowdown of 8.
        let mut t = SloTracker::default();
        t.record_arrival(0, 0, SimTime::from_secs(0), 10.0, true);
        t.record_start(0, SimTime::from_secs(59));
        assert_eq!(t.record_finish(0, SimTime::from_secs(80)), 0, "within both SLOs");
        t.record_arrival(1, 1, SimTime::from_secs(0), 2.0, true);
        t.record_start(1, SimTime::from_secs(61)); // waits 61 s > 60 s
        assert_eq!(t.record_finish(1, SimTime::from_secs(64)), 2, "wait + slowdown violated");
        let rep = t.report();
        assert_eq!(rep.jobs, 2);
        assert_eq!(rep.finished, 2);
        assert_eq!(rep.starved, 0);
        assert_eq!(rep.violations, 2);
        assert!(rep.queue_wait_max_s > 60.9);
        assert!(rep.slowdown_max > 31.9, "job 1: 64 s makespan over 2 s expected");
    }

    #[test]
    fn starved_counts_admitted_but_never_started() {
        let mut t = SloTracker::default();
        t.record_arrival(0, 0, SimTime::from_secs(0), 1.0, true);
        t.record_arrival(1, 0, SimTime::from_secs(0), 1.0, false);
        let rep = t.report();
        assert_eq!(rep.starved, 1, "rejected jobs are not starved, unstarted admitted ones are");
        assert_eq!(rep.rejected, 1);
    }
}
