//! Admission order and per-job SLO accounting.
//!
//! Jobs arrive (open loop — the arrival process does not wait for the
//! cluster), are **admitted** into a bounded queue or rejected when it is
//! full, and are **started** by the controller whenever the cluster has a
//! free multiprogramming slot. The controller keeps one [`JobRecord`] per
//! job and queues only controller ids, in admission order; a
//! [`QueuePolicy`] picks which queued id starts next:
//! first-come-first-served, shortest-expected-first, or per-tenant fair
//! share. Every transition is timestamped in the record, and
//! [`SloReport::of`] folds the records into queue waits, makespans, and
//! slowdowns.

use mapreduce::runtime::PendingJob;
use simcore::emit::Json;
use simcore::prelude::*;
use simcore::stats::{percentile_sorted, OnlineStats};

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

    /// Removes and returns the queued controller id to start next.
    /// `queue` holds ids in admission order; `jobs` is the controller's
    /// table, indexed by id. Ties fall to the earlier arrival, then the
    /// lower id.
    pub fn pop(self, queue: &mut Vec<u32>, jobs: &[JobRecord]) -> Option<u32> {
        if queue.is_empty() {
            return None;
        }
        let job = |id: u32| &jobs[id as usize];
        let idx = match self {
            // `queue` is in arrival order: index 0 is the oldest.
            QueuePolicy::Fifo => 0,
            QueuePolicy::ShortestFirst => (0..queue.len()).min_by(|&a, &b| {
                let (ja, jb) = (job(queue[a]), job(queue[b]));
                ja.expected_s
                    .total_cmp(&jb.expected_s)
                    .then(ja.arrival.cmp(&jb.arrival))
                    .then(queue[a].cmp(&queue[b]))
            })?,
            QueuePolicy::FairShare => {
                let served =
                    |t: u32| jobs.iter().filter(|j| j.tenant == t && j.started.is_some()).count();
                (0..queue.len()).min_by_key(|&i| {
                    let j = job(queue[i]);
                    (served(j.tenant), j.arrival, queue[i])
                })?
            }
        };
        Some(queue.remove(idx))
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

impl QueueConfig {
    /// Whether an arrival is admitted into a queue already holding
    /// `depth` jobs; beyond `capacity` it is rejected.
    pub fn admits(&self, depth: usize) -> bool {
        depth < self.capacity
    }
}

/// Queue waits beyond this count as SLO violations.
pub const MAX_QUEUE_WAIT: SimDuration = SimDuration::from_secs(60);
/// Slowdowns (makespan ÷ expected solo time) beyond this count as SLO
/// violations.
pub const MAX_SLOWDOWN: f64 = 8.0;

/// One controller job, from `Controller::schedule` to completion.
#[derive(Debug)]
pub struct JobRecord {
    /// Submitting tenant.
    pub tenant: u32,
    /// Expected solo service time, seconds (start-order hint and
    /// slowdown base).
    pub expected_s: f64,
    /// The deferred submission; taken when the job starts, dropped when
    /// its arrival is rejected.
    pub job: Option<PendingJob>,
    /// Admission (or rejection) instant; `None` while the job is
    /// scheduled but has not arrived.
    pub arrival: Option<SimTime>,
    /// Whether the arrival found room in the queue.
    pub admitted: bool,
    /// When the controller handed it to the JobTracker.
    pub started: Option<SimTime>,
    /// When the JobTracker reported it done.
    pub finished: Option<SimTime>,
}

simcore::persist_struct!(JobRecord {
    tenant,
    expected_s,
    job,
    arrival,
    admitted,
    started,
    finished
});

impl JobRecord {
    /// A job scheduled for a later arrival.
    pub(crate) fn scheduled(tenant: u32, expected_s: f64, job: PendingJob) -> Self {
        JobRecord {
            tenant,
            expected_s,
            job: Some(job),
            arrival: None,
            admitted: false,
            started: None,
            finished: None,
        }
    }

    /// Admission-to-start wait, if the job has started.
    pub fn queue_wait(&self) -> Option<SimDuration> {
        Some(self.started?.saturating_since(self.arrival?))
    }

    /// Admission-to-finish span, if the job has finished.
    pub fn makespan(&self) -> Option<SimDuration> {
        Some(self.finished?.saturating_since(self.arrival?))
    }

    /// Makespan over expected solo service time.
    pub fn slowdown(&self) -> Option<f64> {
        self.makespan().map(|m| m.as_secs_f64() / self.expected_s.max(1e-9))
    }
}

/// Aggregate SLO statistics of one controller run.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Jobs that have arrived (admitted + rejected).
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
    /// SLO violations (queue wait + slowdown, counted per job), judged
    /// against [`MAX_QUEUE_WAIT`] and [`MAX_SLOWDOWN`].
    pub violations: u64,
}

impl SloReport {
    /// Folds the arrived records of `jobs`, in table order, into aggregate
    /// statistics.
    pub fn of(jobs: &[JobRecord]) -> SloReport {
        let arrived = || jobs.iter().filter(|j| j.arrival.is_some());
        let count = |keep: fn(&JobRecord) -> bool| arrived().filter(|j| keep(j)).count() as u64;
        let mut waits: Vec<f64> =
            arrived().filter_map(|j| j.queue_wait().map(|w| w.as_secs_f64())).collect();
        waits.sort_by(f64::total_cmp);
        let mut makespan = OnlineStats::new();
        let mut slowdown = OnlineStats::new();
        let mut violations = 0u64;
        for j in arrived() {
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
            jobs: count(|_| true),
            admitted: count(|j| j.admitted),
            rejected: count(|j| !j.admitted),
            started: count(|j| j.started.is_some()),
            finished: count(|j| j.finished.is_some()),
            starved: count(|j| j.admitted && j.started.is_none()),
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

    /// A record of `tenant`'s job, admitted at `arrival_s`.
    fn admitted(tenant: u32, arrival_s: u64, expected_s: f64) -> JobRecord {
        JobRecord {
            arrival: Some(SimTime::from_secs(arrival_s)),
            admitted: true,
            ..JobRecord::scheduled(tenant, expected_s, PendingJob::new("j", |_| unreachable!()))
        }
    }

    /// Pops `policy` until `jobs` (all queued, in id order) runs dry,
    /// starting each popped job; returns the start order.
    fn drain(policy: QueuePolicy, mut jobs: Vec<JobRecord>) -> Vec<u32> {
        let mut queue: Vec<u32> = (0..jobs.len() as u32).collect();
        std::iter::from_fn(|| {
            let id = policy.pop(&mut queue, &jobs)?;
            jobs[id as usize].started = Some(SimTime::from_secs(100));
            Some(id)
        })
        .collect()
    }

    #[test]
    fn bounded_queue_rejects_when_full() {
        let cfg = QueueConfig { capacity: 2, ..Default::default() };
        assert!(cfg.admits(0));
        assert!(cfg.admits(1));
        assert!(!cfg.admits(2), "third job bounces off the bound");
        assert!(!cfg.admits(3));
        assert!(!QueueConfig { capacity: 0, ..Default::default() }.admits(0));
    }

    #[test]
    fn fifo_pops_in_arrival_order() {
        let jobs = [5, 3, 9].map(|t| admitted(0, t, 1.0));
        assert_eq!(drain(QueuePolicy::Fifo, jobs.into()), vec![0, 1, 2]);
    }

    #[test]
    fn shortest_first_orders_by_expected_cost() {
        let jobs = [(0, 9.0), (1, 2.0), (2, 5.0)].map(|(t, e)| admitted(0, t, e));
        assert_eq!(drain(QueuePolicy::ShortestFirst, jobs.into()), vec![1, 2, 0]);
    }

    #[test]
    fn fair_share_alternates_tenants() {
        // Tenant 0 floods first; tenant 1 arrives later but must not wait
        // behind the whole flood.
        let jobs = [(0, 0), (0, 1), (0, 2), (1, 10), (1, 11)].map(|(n, t)| admitted(n, t, 1.0));
        assert_eq!(
            drain(QueuePolicy::FairShare, jobs.into()),
            vec![0, 3, 1, 4, 2],
            "starts alternate between tenants"
        );
    }

    #[test]
    fn slo_tracker_computes_waits_and_violations() {
        // The thresholds: 60 s of queue wait, a slowdown of 8.
        let run = |expected_s: f64, started: u64, finished: u64| JobRecord {
            started: Some(SimTime::from_secs(started)),
            finished: Some(SimTime::from_secs(finished)),
            ..admitted(0, 0, expected_s)
        };
        // Job 0 is within both SLOs; job 1 waits 61 s > 60 s and slows 32x.
        let rep = SloReport::of(&[run(10.0, 59, 80), run(2.0, 61, 64)]);
        assert_eq!(rep.jobs, 2);
        assert_eq!(rep.finished, 2);
        assert_eq!(rep.starved, 0);
        assert_eq!(rep.violations, 2, "job 1 violates both, job 0 neither");
        assert!(rep.queue_wait_max_s > 60.9);
        assert!(rep.slowdown_max > 31.9, "job 1: 64 s makespan over 2 s expected");
    }

    #[test]
    fn starved_counts_admitted_but_never_started() {
        let rejected = JobRecord { admitted: false, job: None, ..admitted(0, 0, 1.0) };
        let scheduled = JobRecord::scheduled(0, 1.0, PendingJob::new("j", |_| unreachable!()));
        let rep = SloReport::of(&[admitted(0, 0, 1.0), rejected, scheduled]);
        assert_eq!(rep.starved, 1, "rejected jobs are not starved, unstarted admitted ones are");
        assert_eq!(rep.rejected, 1);
        assert_eq!(rep.jobs, 2, "a job that has not arrived is not in the report");
    }
}
