//! `stream_1024` — scale and control plane: an open-loop stream of small
//! jobs through the `vsched` controller on 1024 VMs / 128 hosts / 8 racks.
//!
//! Chosen as the mirror image of the other three: `simcore`, the `mapreduce`
//! scheduler, `vhdfs` placement, `vsched` and `vcluster::migration` do the
//! work and record payloads almost none (64 maps x 64 KiB per job instead of
//! the `JobMix` presets' 4-48 MB blobs, which made PR 11's "control-plane"
//! workloads allocator-bound). Open loop in simulated time — arrivals ignore
//! progress; on the host it is a fixed batch of work.

use super::{counter_layers, drive, hdfs_layers, kernel_layers, snapshot_costs, tracer_layers};
use super::{Layers, Mode, Outcome, Workload, PLATFORM_SEED};
use crate::probe;
use crate::span;
use crate::stats::Digest;
use std::time::Instant;
use vhadoop::prelude::*;
use vhadoop::workloads::loadgen::{ArrivalProcess, JobArrival, JobMix, SyntheticLoadApp};

const MAPS: u32 = 64;
const IO_BYTES: u64 = 64 << 10;
const MAX_ACTIVE: usize = 32;

pub struct Stream1024 {
    arrivals: Vec<JobArrival>,
    gen_s: f64,
}

impl Stream1024 {
    pub fn prepare(seed: RootSeed, quick: bool) -> Self {
        let t = Instant::now();
        let jobs = if quick { 24 } else { 192 };
        let gap = SimDuration::from_millis(250);
        let mut arrivals = ArrivalProcess::new(JobMix::Wordcount, jobs, gap, 4, seed).schedule();
        for a in &mut arrivals {
            a.maps = MAPS;
            a.io_bytes = IO_BYTES;
            a.expected_s = a.cpu_secs + f64::from(MAPS) * IO_BYTES as f64 / 125e6;
        }
        Stream1024 { arrivals, gen_s: t.elapsed().as_secs_f64() }
    }

    fn launch(&self, mode: Mode) -> VHadoop {
        let _g = span::enter("core.launch");
        let mut ctrl = ControllerConfig::enabled_with(PlacementKind::Spread);
        ctrl.queue = QueueConfig {
            capacity: self.arrivals.len(),
            policy: QueuePolicy::Fifo,
            max_active: MAX_ACTIVE,
        };
        ctrl.rebalance = Some(RebalanceConfig {
            interval: SimDuration::from_secs(1),
            mode: RebalanceMode::Estimate,
            ..RebalanceConfig::default()
        });
        VHadoop::launch(
            PlatformConfig::builder()
                .cluster(
                    ClusterSpec::builder()
                        .hosts(128)
                        .vms(1024)
                        .racks(8)
                        .placement(Placement::CrossDomain)
                        .build(),
                )
                .hdfs(HdfsConfig { block_size: 1 << 20, replication: 2 })
                // A periodic monitor re-arms for ever, so `drive_until_idle`
                // would never return with one attached.
                .no_monitor()
                .seed(PLATFORM_SEED.0)
                .tracing(mode == Mode::SimTraced)
                .controller(ctrl)
                .build(),
        )
    }

    fn schedule(&self, p: &mut VHadoop, mode: Mode) {
        let _g = span::enter("vsched.schedule");
        for (run, a) in self.arrivals.iter().enumerate() {
            let run = run as u32;
            let job = if mode == Mode::Probed { probed_load_job(run, a) } else { a.job(run) };
            p.schedule_job(a.at, a.tenant, a.expected_s, job);
        }
    }

    /// Output checks, digest and layer counters of a drained platform.
    fn outcome(&self, p: &VHadoop, done: &[JobResult], wall_s: f64, mode: Mode) -> Outcome {
        let offered = self.arrivals.len() as u64;
        let ctrl = p.controller().expect("launched with a controller");
        let (slo, c) = (ctrl.slo_report(), ctrl.counters());
        let mut failures = Vec::new();
        if done.len() as u64 != offered || slo.finished != offered {
            failures.push(format!(
                "{} job results and {} finished in the SLO report, {offered} offered",
                done.len(),
                slo.finished
            ));
        }
        if slo.rejected != 0 || slo.starved != 0 {
            failures.push(format!("{} rejected, {} starved", slo.rejected, slo.starved));
        }
        let mut digest = Digest::default();
        for res in done {
            digest.word(u64::from(res.id.0));
            digest.word(res.finished.as_nanos());
            digest.records(&res.outputs);
        }
        let last = done.iter().map(|r| r.finished).max().unwrap_or(SimTime::ZERO);

        let mut layers = Layers::new();
        kernel_layers(&p.rt.engine.kernel_stats(), &mut layers);
        counter_layers(done.iter().map(|r| &r.counters), &mut layers);
        hdfs_layers(&p.rt.hdfs, &mut layers);
        layers.insert("vsched.ticks", c.rebalance_ticks as f64);
        layers.insert("vsched.jobs_rejected", c.jobs_rejected as f64);
        layers.insert("vsched.queue_hwm", c.queue_depth_hwm as f64);
        layers.insert("vsched.migrations_planned", c.migrations_planned as f64);
        layers.insert("vcluster.migrations_completed", c.migrations_completed as f64);
        layers.insert("vcluster.migrations_aborted", c.migrations_aborted as f64);
        if mode == Mode::SimTraced {
            tracer_layers(&p.rt.engine, &mut layers);
        }
        Outcome {
            wall_s,
            sim_makespan_s: last.saturating_since(self.arrivals[0].at).as_secs_f64(),
            digest,
            attempted: offered,
            failed: offered.saturating_sub(slo.finished).max(failures.len() as u64),
            failures,
            layers,
        }
    }
}

/// `loadgen::load_job` with the user code wrapped in probes and the input
/// registration timed; the job it submits is the same.
fn probed_load_job(run: u32, a: &JobArrival) -> PendingJob {
    const RECORDS_PER_MAP: u64 = 4;
    let (maps, cpu_secs, io_bytes) = (a.maps, a.cpu_secs, a.io_bytes);
    PendingJob::new(format!("load-{run}"), move |rt: &mut MrRuntime| {
        let block = rt.hdfs.config().block_size;
        let path = format!("/load/in-{run:04}");
        span::within("vhdfs.register", || {
            rt.register_input(&path, u64::from(maps) * block - 1, VmId(1));
        });
        let input = GeneratorInput::new(maps as usize, block, move |idx| {
            (0..RECORDS_PER_MAP)
                .map(|i| (K::Int((idx as u64 * RECORDS_PER_MAP + i) as i64), V::Null))
                .collect()
        });
        let app = SyntheticLoadApp {
            cpu_per_record: cpu_secs * 2.4e9 / RECORDS_PER_MAP as f64,
            bytes_per_record: (io_bytes / RECORDS_PER_MAP) as usize,
        };
        let spec = JobSpec::new(format!("load-{run}"), path, format!("/load/out-{run:04}"))
            .with_config(JobConfig::default().with_combiner(false));
        let (app, input) = probe::wrap(probe::WORKLOADS, Box::new(app), Box::new(input));
        span::within("mapreduce.submit", || rt.submit(spec, app, input))
    })
}

impl Workload for Stream1024 {
    fn gen_s(&self) -> f64 {
        self.gen_s
    }

    fn pass(&self, mode: Mode) -> Outcome {
        let t = Instant::now();
        let root = span::enter("platbench.pass");
        let mut p = self.launch(mode);
        self.schedule(&mut p, mode);
        let done = if mode == Mode::Probed {
            // `drive_until_idle` with every `step` timed.
            drive(&mut p, |_, _| false)
        } else {
            p.drive_until_idle()
        };
        let _obs = span::within("core.observe", || p.observe());
        drop(root);
        let wall_s = t.elapsed().as_secs_f64();
        self.outcome(&p, &done, wall_s, mode)
    }

    /// Snapshots after half the wakeups of a plain pass; the restored
    /// platform and the snapshotted parent must both drain as that pass did.
    fn snapshot_study(&self, expected: &Outcome) -> Option<(Layers, Vec<String>)> {
        let half = (expected.layers["simcore.wakeups"] / 2.0) as u64;
        let mut p = self.launch(Mode::Plain);
        self.schedule(&mut p, Mode::Plain);
        let done = drive(&mut p, |p, _| p.rt.engine.wakeups_delivered() >= half);
        let mut layers = Layers::new();
        let mut restored = snapshot_costs(&mut p, &mut layers);
        let mut failures = Vec::new();
        for (who, platform) in [("parent", &mut p), ("restored", &mut restored)] {
            let mut all = done.clone();
            all.extend(drive(platform, |_, _| false));
            let out = self.outcome(platform, &all, 0.0, Mode::Plain);
            failures.extend(out.failures);
            if out.sim_makespan_s.to_bits() != expected.sim_makespan_s.to_bits()
                || out.digest != expected.digest
            {
                failures.push(format!(
                    "{who} drained at {} s (digest {:#x}) after the snapshot, plain pass at {} s ({:#x})",
                    out.sim_makespan_s, out.digest.0, expected.sim_makespan_s, expected.digest.0
                ));
            }
        }
        Some((layers, failures))
    }
}
