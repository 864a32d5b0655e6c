//! A self-contained runtime: engine + cluster + HDFS + JobTracker plus the
//! event-routing loop. Workload drivers and tests use this directly; the
//! `vhadoop` facade wraps it together with monitoring, tuning, and
//! migration.

use crate::app::MapReduceApp;
use crate::engine::MrEngine;
use crate::input::InputFormat;
use crate::job::{JobEvent, JobId, JobResult, JobSpec};
use simcore::owners;
use simcore::prelude::*;
use vcluster::cluster::{VirtualCluster, VmId};
use vcluster::spec::ClusterSpec;
use vhdfs::hdfs::{Hdfs, HdfsConfig};

/// Client tag of an input upload's HDFS write ([`MrRuntime::upload`] and
/// the platform's upload both wait for it).
pub const UPLOAD_MARK: Tag = Tag::new(owners::USER, u32::MAX, 0xB10C);

/// Which VMs run which Hadoop daemons. The default (`None`/`None`) is the
/// paper's colocated layout: every non-master VM runs both a datanode and
/// a TaskTracker. Disaggregated data/compute layouts (the Frankfurt
/// virtualized-Hadoop evaluation's "separated" configuration, DESIGN.md
/// §17) name disjoint VM sets instead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeRoles {
    /// Datanode VMs; `None` = every VM except the master (VM 0).
    pub datanodes: Option<Vec<VmId>>,
    /// TaskTracker VMs; `None` = same set as the datanodes.
    pub trackers: Option<Vec<VmId>>,
}

impl NodeRoles {
    /// The colocated default (datanode + TaskTracker on every worker VM).
    pub fn colocated() -> Self {
        Self::default()
    }

    /// Fully separated daemons: `datanodes` store, `trackers` compute.
    pub fn separated(datanodes: Vec<VmId>, trackers: Vec<VmId>) -> Self {
        NodeRoles { datanodes: Some(datanodes), trackers: Some(trackers) }
    }
}

/// Everything needed to run MapReduce jobs on a simulated virtual cluster.
#[derive(Debug)]
pub struct MrRuntime {
    /// The simulation kernel.
    pub engine: Engine,
    /// The virtual cluster.
    pub cluster: VirtualCluster,
    /// The file system.
    pub hdfs: Hdfs,
    /// The JobTracker.
    pub mr: MrEngine,
}

impl MrRuntime {
    /// Boots a cluster, formats HDFS, and starts the JobTracker.
    pub fn new(spec: ClusterSpec, hdfs_cfg: HdfsConfig, seed: RootSeed) -> Self {
        Self::with_roles(spec, hdfs_cfg, NodeRoles::colocated(), seed)
    }

    /// Like [`MrRuntime::new`] with explicit daemon placement: `roles`
    /// picks the datanode and TaskTracker VM sets (colocated by default).
    pub fn with_roles(
        spec: ClusterSpec,
        hdfs_cfg: HdfsConfig,
        roles: NodeRoles,
        seed: RootSeed,
    ) -> Self {
        let mut engine = Engine::new();
        let cluster = VirtualCluster::new(&mut engine, spec);
        let hdfs = match &roles.datanodes {
            Some(dns) => Hdfs::format_with(&cluster, hdfs_cfg, seed, dns),
            None => Hdfs::format(&cluster, hdfs_cfg, seed),
        };
        let mr = match &roles.trackers {
            Some(tts) => MrEngine::with_trackers(tts.clone()),
            None => MrEngine::new(&hdfs),
        };
        MrRuntime { engine, cluster, hdfs, mr }
    }

    /// Paper-default runtime: 16 VMs, default HDFS, seed 42.
    pub fn paper_default() -> Self {
        Self::new(ClusterSpec::paper_normal(), HdfsConfig::default(), RootSeed(42))
    }

    /// Current simulation instant.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Registers an input file without simulating the upload.
    pub fn register_input(&mut self, path: &str, bytes: u64, writer: VmId) {
        self.hdfs.register_file(&self.cluster, path, bytes, writer);
    }

    /// Uploads `bytes` to `path` from `writer`, simulating the full
    /// pipeline; returns the elapsed upload time.
    pub fn upload(&mut self, path: &str, bytes: u64, writer: VmId) -> SimDuration {
        let start = self.engine.now();
        self.hdfs.write_file(&mut self.engine, &self.cluster, path, bytes, writer, UPLOAD_MARK);
        self.drive(|_, t, routed| {
            let uploaded = routed.hdfs_completion.is_some_and(|c| c.client_tag == UPLOAD_MARK);
            uploaded.then(|| t.saturating_since(start))
        })
        .expect("upload must complete before the simulation drains")
    }

    /// Submits a job without driving it (for concurrent-job scenarios).
    pub fn submit(
        &mut self,
        spec: JobSpec,
        app: Box<dyn MapReduceApp>,
        input: Box<dyn InputFormat>,
    ) -> JobId {
        self.mr.submit(&mut self.engine, &self.cluster, &mut self.hdfs, spec, app, input)
    }

    /// Submits a job and drives the simulation until it completes.
    pub fn run_job(
        &mut self,
        spec: JobSpec,
        app: Box<dyn MapReduceApp>,
        input: Box<dyn InputFormat>,
    ) -> JobResult {
        let id = self.submit(spec, app, input);
        self.drive(|_, _, routed| finished_jobs(routed.job_events).find(|res| res.id == id))
            .expect("job must finish before the simulation drains")
    }

    /// Drives until every submitted job finishes; returns results in
    /// completion order.
    pub fn drive_all(&mut self) -> Vec<JobResult> {
        let mut done = Vec::new();
        if self.mr.active_jobs() > 0 {
            self.drive(|rt, _, routed| {
                done.extend(finished_jobs(routed.job_events));
                (rt.mr.active_jobs() == 0).then_some(())
            });
        }
        done
    }

    /// The runtime's one event loop: routes wakeups until `done` returns a
    /// value, or returns `None` once the event queue drains.
    fn drive<T>(&mut self, mut done: impl FnMut(&Self, SimTime, Routed) -> Option<T>) -> Option<T> {
        while let Some((t, w)) = self.engine.next_wakeup() {
            let routed = self.route_full(&w);
            if let Some(v) = done(self, t, routed) {
                return Some(v);
            }
        }
        None
    }

    /// Routes one wakeup to the owning subsystem; returns job events.
    pub fn route(&mut self, w: &Wakeup) -> Vec<JobEvent> {
        self.route_full(w).job_events
    }

    /// Routes one wakeup, also surfacing HDFS completions whose client is
    /// *not* the MapReduce engine (direct HDFS users: uploads, DFSIO).
    pub fn route_full(&mut self, w: &Wakeup) -> Routed {
        let owner = w.tag().owner;
        if owner == owners::HDFS {
            if let Some(c) = self.hdfs.on_wakeup(&mut self.engine, w) {
                if c.client_tag.owner == owners::MAPREDUCE {
                    let job_events =
                        self.mr.on_hdfs_done(&mut self.engine, &self.cluster, &mut self.hdfs, &c);
                    return Routed { job_events, hdfs_completion: None };
                }
                return Routed { job_events: Vec::new(), hdfs_completion: Some(c) };
            }
            Routed::default()
        } else if owner == owners::MAPREDUCE {
            let job_events = self.mr.on_wakeup(&mut self.engine, &self.cluster, &mut self.hdfs, w);
            Routed { job_events, hdfs_completion: None }
        } else {
            Routed::default()
        }
    }
}

/// A fully-described job that has not been handed to the JobTracker yet —
/// the unit a control plane's admission queue holds. Construction captures
/// everything (spec, app, input recipe) in a deferred closure; nothing
/// touches the runtime (no HDFS registration, no scheduling) until
/// [`PendingJob::submit`] runs, so a job can wait in a queue for simulated
/// hours without perturbing the cluster.
///
/// The closure is shared (`Rc<dyn Fn>`), so a queued job can be cloned
/// into a snapshot and submitted independently by the parent and any
/// number of forks. Submission recipes must therefore be pure: each
/// invocation builds a fresh app/input and must not consume captured
/// state.
#[derive(Clone)]
pub struct PendingJob {
    name: String,
    submit: std::rc::Rc<dyn Fn(&mut MrRuntime) -> JobId>,
}

impl PendingJob {
    /// Wraps a deferred submission under a display `name`.
    pub fn new(
        name: impl Into<String>,
        submit: impl Fn(&mut MrRuntime) -> JobId + 'static,
    ) -> Self {
        PendingJob { name: name.into(), submit: std::rc::Rc::new(submit) }
    }

    /// The job's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registers the job's input and hands it to the JobTracker now.
    pub fn submit(self, rt: &mut MrRuntime) -> JobId {
        (self.submit)(rt)
    }
}

impl std::fmt::Debug for PendingJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingJob").field("name", &self.name).finish_non_exhaustive()
    }
}

/// The results of the jobs that finished among `events`.
fn finished_jobs(events: Vec<JobEvent>) -> impl Iterator<Item = JobResult> {
    events.into_iter().filter_map(|ev| match ev {
        JobEvent::JobDone(res) => Some(*res),
        _ => None,
    })
}

/// Output of [`MrRuntime::route_full`].
#[derive(Debug, Default)]
pub struct Routed {
    /// MapReduce progress events.
    pub job_events: Vec<JobEvent>,
    /// A completed HDFS operation owned by a non-MapReduce client.
    pub hdfs_completion: Option<vhdfs::hdfs::HdfsCompletion>,
}

#[cfg(test)]
impl MrRuntime {
    /// Routes the next wakeup, then checks the JobTracker's slot ledger
    /// against its task records. `None` once the event queue drains.
    pub(crate) fn step_audited(&mut self) -> Option<Vec<JobEvent>> {
        let (_, w) = self.engine.next_wakeup()?;
        let events = self.route(&w);
        self.mr.assert_slots_accounted();
        Some(events)
    }

    /// Steps, audited, until every submitted job finishes; returns their
    /// results in completion order.
    pub(crate) fn drive_all_audited(&mut self) -> Vec<JobResult> {
        let mut done = Vec::new();
        while self.mr.active_jobs() > 0 {
            let events =
                self.step_audited().expect("jobs must finish before the simulation drains");
            done.extend(finished_jobs(events));
        }
        done
    }
}
