//! Synthetic cluster load: a MapReduce job that burns configurable CPU
//! and moves configurable bytes without processing real text. Used where
//! a scenario needs a *busy cluster* (migration-under-load tests) and the
//! wall-clock cost of real wordcount would be wasted.
//!
//! On top of the single-job builder this module provides an **open-loop
//! arrival process** ([`ArrivalProcess`]): a seeded stream of job arrivals
//! with exponential interarrival gaps and per-job size jitter, the input
//! the `vsched` control plane's admission queue consumes. All randomness
//! flows through [`simcore::rng`] streams — two processes built from the
//! same seed produce byte-identical schedules.

use mapreduce::prelude::*;
use simcore::prelude::{RootSeed, SimDuration, SimTime};
use vcluster::cluster::VmId;

/// The synthetic application: each map emits one opaque byte blob per
/// input record; the reducer counts them. CPU cost comes from the cost
/// profile, I/O volume from the blob size.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticLoadApp {
    /// Guest cycles charged per input record.
    pub cpu_per_record: f64,
    /// Bytes emitted per input record (spill + shuffle volume).
    pub bytes_per_record: usize,
}

impl MapReduceApp for SyntheticLoadApp {
    fn name(&self) -> &str {
        "synthetic-load"
    }
    fn map(&self, k: &K, _v: &V, out: &mut dyn FnMut(K, V)) {
        out(k.clone(), V::Bytes(vec![b'x'; self.bytes_per_record]));
    }
    fn reduce(&self, k: &K, vs: &[V], out: &mut dyn FnMut(K, V)) {
        out(k.clone(), V::Int(vs.len() as i64));
    }
    fn cost(&self) -> CostProfile {
        CostProfile { map_cpu_per_record: self.cpu_per_record, ..Default::default() }
    }
}

/// Describes one synthetic load job without touching a runtime: `maps` map
/// tasks, each charging `cpu_secs` of guest CPU (at 2.4 GHz) and shipping
/// `io_bytes` through spill + shuffle. `run` uniquifies HDFS paths across
/// submissions. Input registration and scheduling happen only when the
/// returned [`PendingJob`] is submitted — so the job can sit in an
/// admission queue indefinitely.
pub fn load_job(run: u32, maps: u32, cpu_secs: f64, io_bytes: u64) -> PendingJob {
    PendingJob::new(format!("load-{run}"), move |rt: &mut MrRuntime| {
        let block = rt.hdfs.config().block_size;
        let path = format!("/load/in-{run:04}");
        rt.register_input(&path, u64::from(maps) * block - 1, VmId(1));
        let records_per_map = 4u64;
        let input = GeneratorInput::new(maps as usize, block, move |idx| {
            (0..records_per_map)
                .map(|i| (K::Int((idx as u64 * records_per_map + i) as i64), V::Null))
                .collect()
        });
        let app = SyntheticLoadApp {
            cpu_per_record: cpu_secs * 2.4e9 / records_per_map as f64,
            bytes_per_record: (io_bytes / records_per_map) as usize,
        };
        let spec = JobSpec::new(format!("load-{run}"), path, format!("/load/out-{run:04}"))
            .with_config(JobConfig::default().with_combiner(false));
        rt.submit(spec, Box::new(app), Box::new(input))
    })
}

/// Submits one synthetic load job immediately (see [`load_job`]).
pub fn submit_load_job(
    rt: &mut MrRuntime,
    run: u32,
    maps: u32,
    cpu_secs: f64,
    io_bytes: u64,
) -> JobId {
    load_job(run, maps, cpu_secs, io_bytes).submit(rt)
}

/// Job-mix presets for the arrival process, chosen to sit on the two sides
/// of the paper's normal-vs-cross-domain tradeoff:
///
/// * [`JobMix::CpuBound`] — few heavy-CPU maps with a big shuffle: the
///   wave fits inside one host's cores even with concurrent jobs, so
///   packing keeps the shuffle on the fast software bridge at no CPU cost;
/// * [`JobMix::ShuffleHeavy`] — a full wave of moderately-priced maps:
///   packed onto one host the concurrent waves oversubscribe the host's
///   cores several times over (and dom0's I/O tax lands on the same
///   saturated CPU), so spreading wins despite pushing its modest shuffle
///   across the slower physical NIC;
/// * [`JobMix::Wordcount`] — Fig. 2 wordcount-like intensity: a wave that
///   just fills the cores plus a block-sized shuffle, so — like the
///   paper's normal-vs-cross-domain table — keeping it on one host wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobMix {
    /// Few heavy-CPU maps, big shuffles — pack-friendly.
    CpuBound,
    /// A wide wave of moderate maps — spread-friendly.
    ShuffleHeavy,
    /// Wordcount-like blend (the Fig. 2 workload).
    Wordcount,
}

impl JobMix {
    /// All presets, in CSV/report order.
    pub const ALL: [JobMix; 3] = [JobMix::CpuBound, JobMix::ShuffleHeavy, JobMix::Wordcount];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            JobMix::CpuBound => "cpu-bound",
            JobMix::ShuffleHeavy => "shuffle-heavy",
            JobMix::Wordcount => "wordcount",
        }
    }

    /// Baseline `(maps, cpu_secs, io_bytes)` of one job before per-job
    /// jitter.
    pub fn base(self) -> (u32, f64, u64) {
        match self {
            JobMix::CpuBound => (3, 8.0, 48 << 20),
            JobMix::ShuffleHeavy => (15, 2.5, 4 << 20),
            JobMix::Wordcount => (4, 4.0, 24 << 20),
        }
    }
}

/// One job in an open-loop arrival schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct JobArrival {
    /// Simulated arrival instant.
    pub at: SimTime,
    /// Submitting tenant (fair-share bucket).
    pub tenant: u32,
    /// Map tasks.
    pub maps: u32,
    /// Guest CPU seconds per map.
    pub cpu_secs: f64,
    /// Spill + shuffle bytes per map.
    pub io_bytes: u64,
    /// Rough solo service-time estimate in seconds (admission-queue cost
    /// hint; the slowdown denominator in SLO reports).
    pub expected_s: f64,
}

impl JobArrival {
    /// The deferred job this arrival describes; `run` uniquifies paths.
    pub fn job(&self, run: u32) -> PendingJob {
        load_job(run, self.maps, self.cpu_secs, self.io_bytes)
    }
}

/// Open-loop seeded job-arrival process: `jobs` arrivals with exponential
/// interarrival gaps of the given mean, drawn from a [`JobMix`] with ±20 %
/// per-job size jitter, attributed round-robin to `tenants` tenants.
///
/// Determinism contract: the schedule is a pure function of the fields —
/// every random draw comes from named [`RootSeed::stream`]s, no process
/// state, no OS entropy.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    /// Which kind of jobs arrive.
    pub mix: JobMix,
    /// How many jobs arrive in total (open loop: arrivals ignore progress).
    pub jobs: u32,
    /// Mean interarrival gap.
    pub mean_gap: SimDuration,
    /// Number of tenants the arrivals are attributed to (≥ 1).
    pub tenants: u32,
    seed: RootSeed,
    /// Per-job size jitter half-width: sizes scale by `1 ± jitter`.
    jitter: f64,
}

impl ArrivalProcess {
    /// New process; `seed` fixes the whole schedule. Uses the default
    /// ±20 % size jitter.
    pub fn new(
        mix: JobMix,
        jobs: u32,
        mean_gap: SimDuration,
        tenants: u32,
        seed: RootSeed,
    ) -> Self {
        assert!(tenants >= 1, "need at least one tenant");
        ArrivalProcess { mix, jobs, mean_gap, tenants, seed, jitter: 0.2 }
    }

    /// Overrides the per-job size jitter half-width. `0.0` makes every
    /// job exactly the mix's base size (useful for characterization
    /// sweeps that want the workload axis pure); values are clamped to
    /// `[0, 0.95]` so sizes stay positive. Facade API: the `job_stream`
    /// example sets it.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.clamp(0.0, 0.95);
        self
    }

    /// Materializes the arrival schedule, sorted by arrival time.
    pub fn schedule(&self) -> Vec<JobArrival> {
        use rand::Rng;
        let mut gaps = self.seed.stream("arrival-gaps");
        let mut sizes = self.seed.stream("arrival-sizes");
        let (maps, cpu_secs, io_bytes) = self.mix.base();
        let mean_s = self.mean_gap.as_secs_f64();
        let mut t = SimTime::ZERO;
        (0..self.jobs)
            .map(|i| {
                // Exponential gap via inverse transform; u < 1 by
                // construction so ln is finite.
                let u: f64 = gaps.gen_range(0.0..1.0);
                t += SimDuration::from_secs_f64(-(1.0 - u).ln() * mean_s);
                // `1.0 ± 0.2` rounds to exactly `0.8..1.2`, so the
                // default schedule is bit-identical to the historical
                // hard-coded range. Zero jitter skips the draw.
                let scale: f64 = if self.jitter > 0.0 {
                    sizes.gen_range((1.0 - self.jitter)..(1.0 + self.jitter))
                } else {
                    1.0
                };
                let cpu = cpu_secs * scale;
                let io = (io_bytes as f64 * scale) as u64;
                JobArrival {
                    at: t,
                    tenant: i % self.tenants,
                    maps,
                    cpu_secs: cpu,
                    io_bytes: io,
                    expected_s: cpu + f64::from(maps) * io as f64 / 125e6,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::prelude::{RootSeed, SimTime};
    use vcluster::spec::{ClusterSpec, Placement};
    use vhdfs::hdfs::HdfsConfig;

    #[test]
    fn load_job_burns_cpu_and_io() {
        let spec =
            ClusterSpec::builder().hosts(2).vms(5).placement(Placement::SingleDomain).build();
        let mut rt =
            MrRuntime::new(spec, HdfsConfig { block_size: 1 << 20, replication: 2 }, RootSeed(1));
        submit_load_job(&mut rt, 0, 4, 2.0, 4 << 20);
        let res = rt.drive_all().pop().expect("completes");
        assert!(res.elapsed_secs() > 2.0, "CPU load took time: {:.1}s", res.elapsed_secs());
        assert!(res.counters.shuffle_bytes > 12 << 20, "I/O volume shipped");
        assert!(rt.now() > SimTime::ZERO);
    }

    #[test]
    fn pending_job_defers_all_side_effects() {
        let spec =
            ClusterSpec::builder().hosts(2).vms(5).placement(Placement::SingleDomain).build();
        let mut rt =
            MrRuntime::new(spec, HdfsConfig { block_size: 1 << 20, replication: 2 }, RootSeed(1));
        let job = load_job(7, 2, 0.5, 1 << 20);
        assert_eq!(job.name(), "load-7");
        assert!(rt.hdfs.stat("/load/in-0007").is_none(), "no input registered before submit");
        let id = job.submit(&mut rt);
        assert!(rt.hdfs.stat("/load/in-0007").is_some(), "submit registers the input");
        assert_eq!(rt.drive_all()[0].id, id);
    }

    #[test]
    fn same_seed_arrival_streams_are_identical() {
        let mk = |seed| {
            ArrivalProcess::new(
                JobMix::ShuffleHeavy,
                24,
                SimDuration::from_secs(5),
                3,
                RootSeed(seed),
            )
            .schedule()
        };
        let (a, b) = (mk(77), mk(77));
        assert_eq!(a, b, "same seed must reproduce the schedule byte-for-byte");
        assert_eq!(a.len(), 24);
        let c = mk(78);
        assert_ne!(a, c, "a different seed must actually change the schedule");
    }

    #[test]
    fn arrival_schedule_is_ordered_and_jittered() {
        let sched =
            ArrivalProcess::new(JobMix::CpuBound, 16, SimDuration::from_secs(10), 2, RootSeed(5))
                .schedule();
        assert!(sched.windows(2).all(|w| w[0].at <= w[1].at), "arrivals sorted in time");
        assert!(sched.iter().all(|a| a.tenant < 2));
        assert!(sched.iter().all(|a| a.expected_s > 0.0));
        let (_, base_cpu, _) = JobMix::CpuBound.base();
        let distinct: std::collections::BTreeSet<u64> =
            sched.iter().map(|a| a.cpu_secs.to_bits()).collect();
        assert!(distinct.len() > 8, "per-job jitter produces distinct sizes");
        assert!(sched.iter().all(|a| (0.8 * base_cpu..=1.2 * base_cpu).contains(&a.cpu_secs)));
    }

    #[test]
    fn default_jitter_reproduces_the_historical_schedule() {
        // `with_jitter(0.2)` must be a no-op: `1.0 ± 0.2` rounds to the
        // exact doubles `0.8` / `1.2` the range was hard-coded with, so
        // old seeds keep producing bit-identical schedules.
        let mk = || {
            ArrivalProcess::new(JobMix::Wordcount, 12, SimDuration::from_secs(4), 2, RootSeed(9))
        };
        assert_eq!(mk().schedule(), mk().with_jitter(0.2).schedule());
    }

    #[test]
    fn zero_jitter_pins_every_job_to_the_base_size() {
        let (maps, base_cpu, base_io) = JobMix::ShuffleHeavy.base();
        let sched = ArrivalProcess::new(
            JobMix::ShuffleHeavy,
            10,
            SimDuration::from_secs(3),
            2,
            RootSeed(11),
        )
        .with_jitter(0.0)
        .schedule();
        assert!(sched
            .iter()
            .all(|a| { a.maps == maps && a.cpu_secs == base_cpu && a.io_bytes == base_io }));
        // Arrival *times* still vary: the gap stream is independent.
        let distinct: std::collections::BTreeSet<_> = sched.iter().map(|a| a.at).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn wider_jitter_widens_the_size_envelope() {
        let (_, base_cpu, _) = JobMix::CpuBound.base();
        let sched =
            ArrivalProcess::new(JobMix::CpuBound, 32, SimDuration::from_secs(2), 2, RootSeed(3))
                .with_jitter(0.5)
                .schedule();
        assert!(sched.iter().all(|a| (0.5 * base_cpu..=1.5 * base_cpu).contains(&a.cpu_secs)));
        assert!(
            sched.iter().any(|a| a.cpu_secs < 0.8 * base_cpu)
                || sched.iter().any(|a| a.cpu_secs > 1.2 * base_cpu),
            "a 0.5 half-width should escape the default ±20% envelope"
        );
    }
}
