//! The vHadoop platform: virtualization + Hadoop + ML library + monitor +
//! tuner behind one handle, mirroring the paper's Fig. 1 architecture and
//! execution flow.
//!
//! 1. the Machine Learning Algorithm Library (or any client) requests a
//!    hadoop virtual cluster → [`VHadoop::launch`];
//! 2. the Virtualization Module starts the VMs, 3. the Hadoop Module
//!    configures them (both inside `launch`);
//! 4. input data is uploaded to HDFS → [`VHadoop::upload_input`];
//! 5. the master assigns maps and reduces, which execute (6.–7.) inside
//!    [`VHadoop::run_job`];
//! 8. output is collected in the returned [`JobResult`];
//! 9. the nmon Monitor samples throughout, and the MapReduce Tuner turns
//!    its report into configuration advice → [`VHadoop::advise`].
//!
//! Live migration of the whole virtual cluster — idle or under load — is
//! available through [`VHadoop::migration`], which opens a
//! [`crate::session::MigrationSession`].

use crate::faults::{FaultDriver, InjectedFault};
use mapreduce::app::MapReduceApp;
use mapreduce::config::JobConfig;
use mapreduce::input::InputFormat;
use mapreduce::job::{JobEvent, JobResult, JobSpec};
use mapreduce::runtime::{MrRuntime, UPLOAD_MARK};
use mapreduce::scheduler::SchedulerPolicy;
use simcore::owners;
use simcore::prelude::*;
use vcluster::cluster::{HostId, VmId};
use vcluster::migration::{
    ClusterMigrationReport, MigrationEvent, MigrationManager, UtilizationDirtyModel,
};
use vcluster::spec::ClusterSpec;
use vhdfs::hdfs::HdfsConfig;
use vmonitor::analyser::MonitorReport;
use vmonitor::monitor::Monitor;
use vsched::controller::{Controller, ControllerConfig};
use vsched::placement::apply_placement;

/// Marker payload for the deferred-migration timer.
pub(crate) const MIGRATION_START_MARK: u64 = 0x4D49_4752;

/// Everything needed to launch a platform instance.
///
/// Prefer [`PlatformConfig::builder`] over struct literals: the builder
/// keeps call sites compiling as fields are added.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// The virtual cluster.
    pub cluster: ClusterSpec,
    /// HDFS parameters.
    pub hdfs: HdfsConfig,
    /// nmon sampling interval; `None` disables monitoring.
    pub monitor_interval: Option<SimDuration>,
    /// The JobTracker's task-scheduler policy; every job runs under it.
    /// Set via [`PlatformConfigBuilder::scheduler`]; read via
    /// [`PlatformConfig::scheduler`].
    scheduler: SchedulerPolicy,
    /// Faults to inject (see [`crate::faults`]); empty by default. More
    /// plans can be added later via [`VHadoop::install_fault_plan`]. Set
    /// via [`PlatformConfigBuilder::faults`].
    faults: FaultPlan,
    /// Root seed — the whole run is a pure function of config + seed.
    pub seed: u64,
    /// Record structured trace spans and counters (see
    /// [`simcore::trace`]). Off by default: an untraced run pays nothing.
    /// Set via [`PlatformConfigBuilder::tracing`].
    tracing: bool,
    /// Closed-loop control plane (admission, placement, rebalancing).
    /// `None` by default: the platform runs without one. Set via
    /// [`PlatformConfigBuilder::controller`].
    controller: Option<ControllerConfig>,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            cluster: ClusterSpec::paper_normal(),
            hdfs: HdfsConfig::default(),
            monitor_interval: Some(SimDuration::from_secs(1)),
            scheduler: SchedulerPolicy::default(),
            faults: FaultPlan::new(),
            seed: 42,
            tracing: false,
            controller: None,
        }
    }
}

impl PlatformConfig {
    /// Starts a builder from the paper defaults.
    pub fn builder() -> PlatformConfigBuilder {
        PlatformConfigBuilder { cfg: PlatformConfig::default() }
    }

    /// The task-scheduler policy the JobTracker starts with.
    pub fn scheduler(&self) -> SchedulerPolicy {
        self.scheduler
    }

    /// The fault plan installed at launch.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Whether structured tracing is enabled.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// The control-plane configuration, if the platform runs a
    /// controller.
    pub fn controller(&self) -> Option<&ControllerConfig> {
        self.controller.as_ref()
    }
}

/// Fluent constructor for [`PlatformConfig`]. Every setter has the paper
/// default until overridden.
#[derive(Debug, Clone)]
pub struct PlatformConfigBuilder {
    cfg: PlatformConfig,
}

impl PlatformConfigBuilder {
    /// Sets the virtual cluster shape.
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cfg.cluster = cluster;
        self
    }

    /// Sets HDFS parameters.
    pub fn hdfs(mut self, hdfs: HdfsConfig) -> Self {
        self.cfg.hdfs = hdfs;
        self
    }

    /// Sets the nmon sampling interval.
    pub fn monitor_interval(mut self, interval: SimDuration) -> Self {
        self.cfg.monitor_interval = Some(interval);
        self
    }

    /// Disables monitoring entirely.
    pub fn no_monitor(mut self) -> Self {
        self.cfg.monitor_interval = None;
        self
    }

    /// Sets the initial task-scheduler policy.
    pub fn scheduler(mut self, policy: SchedulerPolicy) -> Self {
        self.cfg.scheduler = policy;
        self
    }

    /// Sets the fault-injection plan applied at launch.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = plan;
        self
    }

    /// Sets the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Enables (or disables) structured tracing.
    pub fn tracing(mut self, on: bool) -> Self {
        self.cfg.tracing = on;
        self
    }

    /// Installs a closed-loop controller.
    pub fn controller(mut self, cfg: ControllerConfig) -> Self {
        self.cfg.controller = Some(cfg);
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> PlatformConfig {
        self.cfg
    }
}

/// What a worker-VM failure cost the platform, returned by
/// [`VHadoop::fail_node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FailureImpact {
    /// Running task attempts the JobTracker re-queued onto surviving
    /// trackers (map and reduce).
    pub remapped_tasks: usize,
    /// Under-replicated blocks HDFS started re-replicating from surviving
    /// copies.
    pub rereplicated_blocks: usize,
    /// Blocks whose only replica lived on the failed VM — unrecoverable.
    pub lost_blocks: usize,
}

/// The running platform.
#[derive(Debug)]
pub struct VHadoop {
    /// Engine + cluster + HDFS + JobTracker.
    pub rt: MrRuntime,
    pub(crate) monitor: Option<Monitor>,
    pub(crate) migration: MigrationManager,
    pub(crate) dirty: UtilizationDirtyModel,
    pub(crate) migration_report: Option<ClusterMigrationReport>,
    /// Destination of a deferred migration armed by
    /// [`crate::session::MigrationSession`]; consumed when its timer fires.
    pub(crate) pending_migration_dst: Option<HostId>,
    /// Installed fault plan, live throttles and injection log.
    pub(crate) faults: FaultDriver,
    /// Closed-loop controller; `Some` only when the config names one.
    pub(crate) ctrl: Option<Box<Controller>>,
    /// The configuration this platform was launched from, kept so a
    /// [`crate::persist::Snapshot`] is self-contained: restore relaunches
    /// from it and re-derives every launch-time identifier.
    pub(crate) launch_config: PlatformConfig,
}

impl VHadoop {
    /// Boots the cluster, formats HDFS, starts the JobTracker and (if
    /// configured) the monitor.
    pub fn launch(config: PlatformConfig) -> Self {
        // Keep the *original* config (pre-placement): restore relaunches
        // from it and the controller re-derives the same placement.
        let launch_config = config.clone();
        let seed = RootSeed(config.seed);
        let mut cluster = config.cluster;
        let vms = cluster.vms;
        // A controller may re-place VMs before the cluster boots; without
        // one (or with the `Spec` policy) the spec's layout stands.
        let mut ctrl = config.controller.map(|cfg| Box::new(Controller::new(cfg)));
        if let Some(c) = &ctrl {
            let map = c.placement_map(&cluster);
            apply_placement(&mut cluster, map);
        }
        let mut rt = MrRuntime::new(cluster, config.hdfs, seed);
        rt.mr.set_policy(config.scheduler);
        // Enable tracing before the monitor attaches, so the monitor's
        // column names are interned into a live tracer.
        rt.engine.tracer_mut().set_enabled(config.tracing);
        let monitor = config.monitor_interval.map(|iv| Monitor::attach(&mut rt.engine, iv));
        let mut faults = FaultDriver::default();
        faults.install(&mut rt.engine, &config.faults);
        if let Some(c) = ctrl.as_mut() {
            c.attach(&mut rt.engine, &rt.cluster);
        }
        VHadoop {
            rt,
            monitor,
            // One VM at a time, as Xen-era toolstacks migrate.
            migration: MigrationManager::new(1),
            dirty: UtilizationDirtyModel::new(vms, seed.derive("dirty")),
            migration_report: None,
            pending_migration_dst: None,
            faults,
            ctrl,
            launch_config,
        }
    }

    /// Platform launch with all defaults (the paper's 16-node cluster).
    pub fn paper_default() -> Self {
        Self::launch(PlatformConfig::builder().build())
    }

    /// Current simulation instant.
    pub fn now(&self) -> SimTime {
        self.rt.now()
    }

    /// Registers input metadata without simulating the upload.
    pub fn register_input(&mut self, path: &str, bytes: u64, writer: VmId) {
        self.rt.register_input(path, bytes, writer);
    }

    /// Uploads input data through the full HDFS pipeline (flow step 4);
    /// returns the upload duration. Unlike [`MrRuntime::upload`], monitor
    /// and migration wakeups keep flowing during the upload.
    pub fn upload_input(&mut self, path: &str, bytes: u64, writer: VmId) -> SimDuration {
        let rt = &mut self.rt;
        let start = rt.engine.now();
        rt.hdfs.write_file(&mut rt.engine, &rt.cluster, path, bytes, writer, UPLOAD_MARK);
        self.step_until("upload", |_, t, events| {
            let uploaded = events
                .iter()
                .any(|ev| matches!(ev, PlatformEvent::Hdfs(c) if c.client_tag == UPLOAD_MARK));
            uploaded.then(|| t.saturating_since(start))
        })
    }

    /// Runs one job to completion (flow steps 5–8).
    pub fn run_job(
        &mut self,
        spec: JobSpec,
        app: Box<dyn MapReduceApp>,
        input: Box<dyn InputFormat>,
    ) -> JobResult {
        let id = self.rt.submit(spec, app, input);
        self.step_until("job", |_, _, events| finished_jobs(events).find(|res| res.id == id))
    }

    /// Opens a [`crate::session::MigrationSession`] targeting `dst` — the
    /// single entry point for whole-cluster live migration (idle, during
    /// one job, under sustained load, or manually driven via
    /// [`MigrationSession::start`](crate::session::MigrationSession::start)
    /// + [`VHadoop::step`] + [`VHadoop::poll`]).
    pub fn migration(&mut self, dst: HostId) -> crate::session::MigrationSession<'_> {
        crate::session::MigrationSession::new(self, dst)
    }

    /// The report of the last completed cluster migration, if any
    /// (consumed by the call). Pair with
    /// [`MigrationSession::start`](crate::session::MigrationSession::start)
    /// and [`VHadoop::step`] when driving the loop manually.
    pub fn poll(&mut self) -> Option<ClusterMigrationReport> {
        self.migration_report.take()
    }

    /// Kicks off the migration of every VM not already on `dst`.
    pub(crate) fn begin_migration(&mut self, dst: HostId) {
        let vms: Vec<VmId> =
            self.rt.cluster.vms().filter(|&v| self.rt.cluster.host_of(v) != dst).collect();
        assert!(!vms.is_empty(), "every VM already lives on {dst}");
        self.migration.start_cluster_migration(&mut self.rt.engine, &self.rt.cluster, &vms, dst);
        self.migration_report = None;
    }

    /// True while a migration session is in flight.
    pub fn migration_busy(&self) -> bool {
        self.migration.busy()
    }

    /// Advances the simulation by one wakeup, routing it; `None` when the
    /// event queue has drained. Every platform loop goes through here.
    ///
    /// The monitor samples only while something else is pending: when its
    /// tick is the last thing left it parks instead of re-arming, so a
    /// monitored platform drains like an unmonitored one. A parked monitor
    /// re-arms here as soon as work is back in flight (a submitted job, a
    /// started migration), taking its next sample one interval later.
    pub fn step(&mut self) -> Option<(SimTime, Vec<PlatformEvent>)> {
        if let Some(m) = self.monitor.as_mut() {
            m.resume(&mut self.rt.engine);
        }
        let (t, w) = self.rt.engine.next_wakeup()?;
        let events = self.route(&w);
        Some((t, events))
    }

    /// Steps until `done` returns a value for a routed wakeup.
    ///
    /// # Panics
    /// If the event queue drains first; `what` names the awaited outcome.
    pub(crate) fn step_until<T>(
        &mut self,
        what: &str,
        mut done: impl FnMut(&mut Self, SimTime, Vec<PlatformEvent>) -> Option<T>,
    ) -> T {
        loop {
            let Some((t, events)) = self.step() else {
                panic!("{what} must finish before the simulation drains");
            };
            if let Some(v) = done(self, t, events) {
                return v;
            }
        }
    }

    /// The closed-loop controller, when the config names one.
    pub fn controller(&self) -> Option<&Controller> {
        self.ctrl.as_deref()
    }

    /// Registers a job to arrive at `at` with the controller (open-loop
    /// stream input); returns the controller job id.
    ///
    /// # Panics
    /// If the platform was launched without a controller.
    pub fn schedule_job(
        &mut self,
        at: SimTime,
        tenant: u32,
        expected_s: f64,
        job: mapreduce::runtime::PendingJob,
    ) -> u32 {
        let ctrl = self.ctrl.as_mut().expect("no controller in PlatformConfig");
        ctrl.schedule(&mut self.rt.engine, at, tenant, expected_s, job)
    }

    /// Steps until the event queue drains — no activity running, no timer
    /// armed, no wakeup undelivered — and returns the jobs that finished
    /// on the way, in completion order. Drained means every job, fault,
    /// migration and controller arrival has played out; a monitor does not
    /// hold the queue open (see [`VHadoop::step`]). The drain instant can
    /// lie after the last [`JobResult::finished`] (a trailing rebalance
    /// tick, a fault's restore, the monitor's parking tick), so a makespan
    /// is read from the results, not from [`VHadoop::now`].
    pub fn drive_until_idle(&mut self) -> Vec<JobResult> {
        let mut done = Vec::new();
        while let Some((_, events)) = self.step() {
            done.extend(finished_jobs(events));
        }
        done
    }

    /// Simulates the crash of worker VM `vm`: its datanode replicas are
    /// dropped and re-replicated from survivors, and its running tasks are
    /// re-queued — the Hadoop fault-tolerance path the paper relies on
    /// during migration downtime. Returns the [`FailureImpact`] across
    /// both subsystems.
    ///
    /// # Panics
    /// If `vm` is the namenode or not a live worker.
    pub fn fail_node(&mut self, vm: VmId) -> FailureImpact {
        assert_ne!(vm, self.rt.hdfs.namenode(), "cannot fail the master VM");
        let (rereplicated_blocks, lost_blocks) =
            self.rt.hdfs.fail_datanode(&mut self.rt.engine, &self.rt.cluster, vm);
        let remapped_tasks =
            self.rt.mr.lose_tracker(&mut self.rt.engine, &self.rt.cluster, vm, SimDuration::ZERO);
        FailureImpact { remapped_tasks, rereplicated_blocks, lost_blocks }
    }

    /// The nmon analyser's report over everything sampled so far.
    pub fn monitor_report(&self) -> Option<MonitorReport> {
        self.monitor.as_ref().map(MonitorReport::from_monitor)
    }

    /// Raw monitor access (CSV dumps, sparklines).
    pub fn monitor(&self) -> Option<&Monitor> {
        self.monitor.as_ref()
    }

    /// MapReduce Tuner advice for a finished job (flow step 9), judged
    /// against the JobTracker's current scheduler policy.
    pub fn advise(&self, job: &JobResult, config: &JobConfig) -> tuner::Advice {
        match self.monitor_report() {
            Some(report) => tuner::analyze(&report, Some(job), Some(config), self.rt.mr.policy()),
            None => tuner::Advice::default(),
        }
    }

    /// Routes one wakeup to its subsystem.
    fn route(&mut self, w: &Wakeup) -> Vec<PlatformEvent> {
        if let Some(m) = self.monitor.as_mut() {
            if m.on_wakeup(&mut self.rt.engine, w) {
                return Vec::new();
            }
        }
        if let Wakeup::Timer { tag, .. } = w {
            if tag.owner == owners::USER && tag.b == MIGRATION_START_MARK {
                // A deferred migration session's start timer fired.
                if let Some(dst) = self.pending_migration_dst.take() {
                    self.begin_migration(dst);
                }
                return Vec::new();
            }
        }
        if w.tag().owner == owners::CTRL {
            // Borrow dance: the controller needs the runtime and the
            // migration manager, both fields of self.
            if let Some(mut ctrl) = self.ctrl.take() {
                ctrl.on_wakeup(&mut self.rt, &mut self.migration, w);
                self.ctrl = Some(ctrl);
            }
            // A what-if rebalance tick defers its decision; resolve it here
            // by forking the platform per candidate (see crate::persist).
            if let Some(req) = self.ctrl.as_mut().and_then(|c| c.take_whatif_request()) {
                self.evaluate_whatif(req);
            }
            return Vec::new();
        }
        if w.tag().owner == owners::FAULT {
            if let Wakeup::Timer { tag, .. } = w {
                return self.on_fault_wakeup(*tag);
            }
            return Vec::new();
        }
        if w.tag().owner == owners::MIGRATION {
            let events = self.migration.on_wakeup(
                &mut self.rt.engine,
                &mut self.rt.cluster,
                &mut self.dirty,
                w,
            );
            if let Some(ctrl) = self.ctrl.as_mut() {
                ctrl.on_migration_events(&events);
            }
            let mut out = Vec::new();
            for ev in events {
                if let MigrationEvent::AllDone(rep) = &ev {
                    self.migration_report = Some(rep.clone());
                }
                out.push(PlatformEvent::Migration(ev));
            }
            return out;
        }
        let routed = self.rt.route_full(w);
        if let Some(mut ctrl) = self.ctrl.take() {
            for ev in &routed.job_events {
                ctrl.on_job_event(&mut self.rt, &mut self.migration, ev);
            }
            self.ctrl = Some(ctrl);
        }
        let mut out: Vec<PlatformEvent> =
            routed.job_events.into_iter().map(PlatformEvent::Job).collect();
        if let Some(c) = routed.hdfs_completion {
            out.push(PlatformEvent::Hdfs(c));
        }
        out
    }
}

/// Platform-level progress event.
#[derive(Debug)]
pub enum PlatformEvent {
    /// MapReduce progress.
    Job(JobEvent),
    /// Migration progress.
    Migration(MigrationEvent),
    /// A direct HDFS operation (upload, DFSIO) completed.
    Hdfs(vhdfs::hdfs::HdfsCompletion),
    /// A planned fault was injected (see [`VHadoop::fault_log`]).
    Fault(InjectedFault),
}

/// The results of the jobs that finished among `events`.
pub(crate) fn finished_jobs(events: Vec<PlatformEvent>) -> impl Iterator<Item = JobResult> {
    events.into_iter().filter_map(|ev| match ev {
        PlatformEvent::Job(JobEvent::JobDone(res)) => Some(*res),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_applies_scheduler_policy() {
        let p = VHadoop::launch(
            PlatformConfig::builder()
                .cluster(ClusterSpec::builder().hosts(1).vms(2).build())
                .scheduler(SchedulerPolicy::JobDriven)
                .build(),
        );
        assert_eq!(p.rt.mr.policy(), SchedulerPolicy::JobDriven);
        assert_eq!(VHadoop::paper_default().rt.mr.policy(), SchedulerPolicy::Fifo);
    }

    /// A job with skewed reduce input is told to switch to `JobDriven` only
    /// when the JobTracker does not already run it.
    #[test]
    fn advice_reads_the_jobtrackers_policy() {
        let skewed = JobResult {
            id: mapreduce::job::JobId(0),
            name: "skewed".into(),
            submitted: SimTime::ZERO,
            finished: SimTime::from_secs(10),
            elapsed: SimDuration::from_secs(10),
            map_phase: SimDuration::from_secs(6),
            reduce_phase: SimDuration::from_secs(4),
            counters: Default::default(),
            outputs: Vec::new(),
            partition_sizes: vec![100, 100, 100, 900],
        };
        let switch = tuner::Action::SetSchedulerPolicy(SchedulerPolicy::JobDriven);
        for (policy, advised) in
            [(SchedulerPolicy::Fifo, true), (SchedulerPolicy::JobDriven, false)]
        {
            let p = VHadoop::launch(
                PlatformConfig::builder()
                    .cluster(ClusterSpec::builder().hosts(1).vms(2).build())
                    .scheduler(policy)
                    .build(),
            );
            let advice = p.advise(&skewed, &JobConfig::default());
            assert!(
                advice.findings.iter().any(|f| matches!(f, tuner::Finding::ReduceSkew { .. })),
                "{policy}: {advice:?}"
            );
            assert_eq!(advice.actions.contains(&switch), advised, "{policy}: {advice:?}");
        }
    }

    #[test]
    fn builder_matches_defaults_and_overrides() {
        let d = PlatformConfig::default();
        let b = PlatformConfig::builder().build();
        assert_eq!(b.seed, d.seed);
        assert_eq!(b.monitor_interval, d.monitor_interval);
        assert!(!b.tracing());
        let c = PlatformConfig::builder()
            .seed(7)
            .tracing(true)
            .monitor_interval(SimDuration::from_millis(250))
            .build();
        assert_eq!(c.seed, 7);
        assert!(c.tracing());
        assert_eq!(c.monitor_interval, Some(SimDuration::from_millis(250)));
    }
}
