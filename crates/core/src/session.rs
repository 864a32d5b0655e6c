//! The unified migration-session API.
//!
//! [`VHadoop::migration`] opens a [`MigrationSession`] — a short-lived
//! builder that replaces the four historical entry points
//! (`migrate_cluster`, `migrate_during_job`, `migrate_cluster_under_load`,
//! manual `start_migration` + polling) with one shape:
//!
//! ```text
//! platform.migration(dst).idle()                       // idle cluster
//! platform.migration(dst).after(d).during_job(spec, app, input)
//! platform.migration(dst).under_load(|rt| ...)         // sustained load
//! platform.migration(dst).start();                     // manual driving:
//! while platform.poll().is_none() { platform.step(); }
//! ```
//!
//! Terminal methods consume the session; [`MigrationSession::after`] defers
//! the start by a simulated delay (armed as a deterministic engine timer).
//! Each terminal method drives the platform through [`VHadoop::step`], the
//! same loop a caller drives by hand, so a monitor keeps sampling for
//! exactly as long as the migration and its jobs are in flight.

use crate::platform::{finished_jobs, VHadoop, MIGRATION_START_MARK};
use mapreduce::app::MapReduceApp;
use mapreduce::input::InputFormat;
use mapreduce::job::{JobResult, JobSpec};
use mapreduce::runtime::MrRuntime;
use simcore::owners;
use simcore::prelude::*;
use vcluster::cluster::HostId;
use vcluster::migration::ClusterMigrationReport;

/// A pending whole-cluster migration to one destination host. Created by
/// [`VHadoop::migration`]; finished by one of the terminal methods.
#[derive(Debug)]
pub struct MigrationSession<'a> {
    platform: &'a mut VHadoop,
    dst: HostId,
    delay: SimDuration,
}

impl<'a> MigrationSession<'a> {
    pub(crate) fn new(platform: &'a mut VHadoop, dst: HostId) -> Self {
        MigrationSession { platform, dst, delay: SimDuration::ZERO }
    }

    /// Defers the migration start by `delay` of simulated time (a
    /// deterministic engine timer; zero by default).
    pub fn after(mut self, delay: SimDuration) -> Self {
        self.delay = delay;
        self
    }

    /// Arms the migration without driving the simulation: it starts now
    /// (or after the [`MigrationSession::after`] delay) while the caller
    /// keeps stepping via [`VHadoop::step`], collecting the report with
    /// [`VHadoop::poll`].
    pub fn start(self) {
        if self.delay.is_zero() {
            self.platform.begin_migration(self.dst);
        } else {
            self.platform.pending_migration_dst = Some(self.dst);
            self.platform.migration_report = None;
            self.platform
                .rt
                .engine
                .set_timer_in(self.delay, Tag::new(owners::USER, 0, MIGRATION_START_MARK));
        }
    }

    /// Migrates the idle cluster and drives the simulation to completion.
    pub fn idle(self) -> ClusterMigrationReport {
        self.platform.begin_migration(self.dst);
        self.platform.step_until("migration", |p, _, _| p.migration_report.take())
    }

    /// Submits `spec` and migrates the cluster while the job runs — the
    /// paper's dynamic experiment. The migration starts after the
    /// [`MigrationSession::after`] delay (immediately by default). Returns
    /// the migration report and the job result (the job survives migration
    /// thanks to Hadoop fault tolerance).
    pub fn during_job(
        self,
        spec: JobSpec,
        app: Box<dyn MapReduceApp>,
        input: Box<dyn InputFormat>,
    ) -> (ClusterMigrationReport, JobResult) {
        let platform = self.platform;
        let id = platform.rt.submit(spec, app, input);
        platform
            .rt
            .engine
            .set_timer_in(self.delay, Tag::new(owners::USER, 0, MIGRATION_START_MARK));
        platform.pending_migration_dst = Some(self.dst);
        platform.migration_report = None;
        let mut job = None;
        platform.step_until("job + migration", |p, _, events| {
            if job.is_none() {
                job = finished_jobs(events).find(|res| res.id == id);
            }
            job.as_ref()?;
            Some((p.migration_report.take()?, job.take()?))
        })
    }

    /// Migrates the cluster while `submit_next` keeps it busy: the
    /// platform maintains a pipeline of up to two concurrent jobs (so task
    /// slots never idle between jobs), calling `submit_next` whenever the
    /// pipeline drains below that; return `false` to stop resubmitting.
    /// Returns the migration report and every job result collected along
    /// the way — the paper's wordcount-under-migration methodology.
    pub fn under_load(
        self,
        mut submit_next: impl FnMut(&mut MrRuntime) -> bool,
    ) -> (ClusterMigrationReport, Vec<JobResult>) {
        const PIPELINE: usize = 2;
        let platform = self.platform;
        let mut results = Vec::new();
        let mut more = true;
        while more && platform.rt.mr.active_jobs() < PIPELINE {
            more = submit_next(&mut platform.rt);
        }
        assert!(
            platform.rt.mr.active_jobs() > 0,
            "the load generator must submit at least one job"
        );
        MigrationSession { platform: &mut *platform, dst: self.dst, delay: self.delay }.start();
        let report = platform.step_until("cluster migration", |p, _, events| {
            results.extend(finished_jobs(events));
            let migrating = p.migration_busy() || p.pending_migration_dst.is_some();
            while more && migrating && p.rt.mr.active_jobs() < PIPELINE {
                more = submit_next(&mut p.rt);
            }
            p.migration_report.take()
        });
        (report, results)
    }
}
