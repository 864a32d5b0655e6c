//! Snapshot/restore/fork determinism: a platform checkpointed at a random
//! mid-run instant and restored must finish with **byte-identical** trace
//! output — same spans, same order, same timestamps — and identical job
//! outputs, across ≥8 seeds, clean and faulted. Forks diverge only through
//! what happens to them afterwards; the parent never notices.

mod common;

use common::{
    fig2_cluster, fig2_config, fig2_hdfs, fig2_job, fig2_job_config, launch_fig2, sorted_outputs,
    MB,
};
use vhadoop::persist::Snapshot;
use vhadoop::prelude::*;
use vhadoop::simcore::persist::{validate_header, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use workloads::loadgen::load_job;
use workloads::tpcxhs::{hsgen_job, hssort_job, register_hsgen, HsPlan};

const INPUT_BYTES: u64 = 4 * MB;

/// Deterministic pseudo-random checkpoint step: a seed-mixed fraction of
/// the run's total wakeup count, strictly mid-run (no RNG needed, and
/// every seed checkpoints somewhere else).
fn checkpoint_step(seed: u64, total_steps: usize) -> usize {
    assert!(total_steps > 2, "run too short to checkpoint mid-way");
    1 + (seed.wrapping_mul(2654435761) as usize) % (total_steps - 2)
}

/// The sweep's fault plan (same shape as seed_sweep's).
fn faulted_plan() -> FaultPlan {
    FaultPlan::new()
        .at(
            SimTime::from_secs(1),
            FaultKind::StragglerVm { vm: 2, factor: 0.2, duration: SimDuration::from_secs(2) },
        )
        .at(SimTime::from_secs(2), FaultKind::NodeCrash { vm: 7 })
}

/// Launches the (monitored) Fig. 2 platform and submits the wordcount job
/// without driving it — the caller steps the simulation explicitly.
fn launch_and_submit(seed: u64, plan: FaultPlan) -> (VHadoop, JobId) {
    submit_fig2(launch_fig2(INPUT_BYTES, seed, plan), seed)
}

fn submit_fig2(mut p: VHadoop, seed: u64) -> (VHadoop, JobId) {
    let (spec, app, input) = fig2_job(&mut p, INPUT_BYTES, seed);
    let id = p.rt.submit(spec, app, input);
    (p, id)
}

/// The config for a pinned scenario: `GOLDEN_HASH` and `SUBSYSTEM_PINS`
/// (a) and (c) were pinned without a monitor, whose samples and timer are
/// part of the snapshot bytes.
fn unmonitored(b: PlatformConfigBuilder) -> PlatformConfig {
    // no monitor: pinned snapshot bytes
    b.no_monitor().build()
}

/// Steps `p` until the event queue drains; returns sorted outputs of the
/// submitted job, the exported trace bytes, and how many wakeups it took.
fn finish(mut p: VHadoop, id: JobId) -> (Vec<(String, i64)>, String, usize) {
    let mut outputs = Vec::new();
    let mut steps = 0;
    while let Some((_, events)) = p.step() {
        steps += 1;
        for ev in events {
            if let PlatformEvent::Job(JobEvent::JobDone(res)) = ev {
                if res.id == id {
                    outputs = sorted_outputs(&res);
                }
            }
        }
    }
    assert!(!outputs.is_empty(), "job {id:?} never finished");
    (outputs, p.rt.engine.tracer().to_chrome_json(), steps)
}

/// One seed of the round-trip check: reference run vs (checkpoint +
/// restore) vs (checkpoint + parent keeps going).
fn roundtrip_one(seed: u64, plan: FaultPlan) {
    let (reference, ref_id) = launch_and_submit(seed, plan.clone());
    let (ref_out, ref_trace, total) = finish(reference, ref_id);

    let (mut parent, id) = launch_and_submit(seed, plan);
    for _ in 0..checkpoint_step(seed, total) {
        assert!(parent.step().is_some(), "seed {seed}: drained before the checkpoint step");
    }
    let snap = parent.snapshot();
    assert_eq!(snap.version(), SNAPSHOT_VERSION);

    // The restored platform finishes byte-identically to the reference.
    let (out_r, trace_r, _) = finish(VHadoop::restore(&snap), id);
    assert_eq!(out_r, ref_out, "seed {seed}: restored outputs diverged");
    assert_eq!(trace_r, ref_trace, "seed {seed}: restored trace diverged");

    // Taking the snapshot did not perturb the parent.
    let (out_p, trace_p, _) = finish(parent, id);
    assert_eq!(out_p, ref_out, "seed {seed}: parent outputs diverged after snapshot");
    assert_eq!(trace_p, ref_trace, "seed {seed}: parent trace diverged after snapshot");
}

#[test]
fn clean_checkpoint_restore_replays_byte_identically() {
    for seed in 3000..3008u64 {
        roundtrip_one(seed, FaultPlan::new());
    }
}

#[test]
fn faulted_checkpoint_restore_replays_byte_identically() {
    for seed in 3000..3008u64 {
        roundtrip_one(seed, faulted_plan());
    }
}

/// The Fig. 2 wordcount over 16 MB (maps long enough to straggle) with
/// speculation on and VM 2 slowed to 5 % from 200 ms on, stepped until a
/// map runs a primary and a backup attempt. Returns the platform, the job
/// and the backup's VM.
fn launch_mid_speculation(seed: u64) -> (VHadoop, JobId, VmId) {
    const INPUT: u64 = 16 * MB;
    let plan = FaultPlan::new().at(
        SimTime::from_nanos(200_000_000),
        FaultKind::StragglerVm { vm: 2, factor: 0.05, duration: SimDuration::from_secs(120) },
    );
    let mut p = launch_fig2(INPUT, seed, plan);
    let (spec, app, input) = fig2_job(&mut p, INPUT, seed);
    let spec = spec.with_config(fig2_job_config().with_speculative(true));
    let id = p.rt.submit(spec, app, input);
    loop {
        if let Some(&(_, _, backup)) = p.rt.mr.speculating(id).first() {
            return (p, id, backup);
        }
        p.step().expect("a map speculates before the job ends");
    }
}

#[test]
fn mid_speculation_checkpoint_restore_replays_byte_identically() {
    let seed = 4u64;
    let (mut reference, ref_id, backup) = launch_mid_speculation(seed);
    reference.fail_node(backup);
    let (ref_out, ref_trace, _) = finish(reference, ref_id);

    let (mut parent, id, backup) = launch_mid_speculation(seed);
    let snap = parent.snapshot();
    let mut restored = VHadoop::restore(&snap);
    assert_eq!(
        restored.rt.mr.speculating(id),
        parent.rt.mr.speculating(id),
        "both attempts of the speculating map survive the restore"
    );
    assert_eq!(restored.snapshot().bytes, snap.bytes, "restore→snapshot is not a fixed point");
    restored.fail_node(backup);
    let (out, trace, _) = finish(restored, id);
    assert_eq!(out, ref_out, "restored outputs diverged");
    assert_eq!(trace, ref_trace, "restored trace diverged");
}

#[test]
fn fork_divergence_leaves_parent_untouched() {
    let seed = 77u64;
    let (reference, ref_id) = launch_and_submit(seed, FaultPlan::new());
    let (ref_out, ref_trace, total) = finish(reference, ref_id);

    let (mut parent, id) = launch_and_submit(seed, FaultPlan::new());
    for _ in 0..total / 2 {
        parent.step().expect("still mid-run");
    }
    let mut child = parent.fork();

    // Hit the child — and only the child — with a straggler fault.
    let at = child.now() + SimDuration::from_millis(10);
    child.install_fault_plan(&FaultPlan::new().at(
        at,
        FaultKind::StragglerVm { vm: 3, factor: 0.1, duration: SimDuration::from_secs(5) },
    ));
    let (child_out, child_trace, _) = finish(child, id);
    assert_eq!(child_out, ref_out, "wordcount output is fault-independent");
    assert_ne!(child_trace, ref_trace, "the child's timeline must show the fault");
    assert!(child_trace.contains("straggler_vm"), "child trace records the injected fault");

    // The parent replays as if the fork never happened.
    let (parent_out, parent_trace, _) = finish(parent, id);
    assert_eq!(parent_out, ref_out);
    assert_eq!(parent_trace, ref_trace, "forking perturbed the parent");
}

#[test]
fn monitored_platform_round_trips() {
    let seed = 9u64;
    let launch = || {
        let mut p = VHadoop::launch(
            PlatformConfig::builder()
                .cluster(
                    ClusterSpec::builder()
                        .hosts(2)
                        .vms(8)
                        .placement(Placement::SingleDomain)
                        .build(),
                )
                .hdfs(fig2_hdfs(INPUT_BYTES))
                .monitor_interval(SimDuration::from_millis(200))
                .tracing(true)
                .seed(seed)
                .build(),
        );
        let (spec, app, input) = fig2_job(&mut p, INPUT_BYTES, seed);
        let id = p.rt.submit(spec, app, input);
        (p, id)
    };

    let (mut reference, ref_id) = launch();
    let mut done = false;
    let mut steps_to_done = 0usize;
    while let Some((_, evs)) = reference.step() {
        steps_to_done += 1;
        done |= evs
            .iter()
            .any(|e| matches!(e, PlatformEvent::Job(JobEvent::JobDone(r)) if r.id == ref_id));
        if done && !reference.migration_busy() {
            break;
        }
    }
    assert!(done);
    let ref_csv = reference.monitor().expect("monitored").to_csv();

    let (mut parent, id) = launch();
    for _ in 0..steps_to_done / 2 {
        parent.step().expect("still mid-run");
    }
    let mut restored = VHadoop::restore(&parent.snapshot());
    let mut done = false;
    while let Some((_, evs)) = restored.step() {
        done |=
            evs.iter().any(|e| matches!(e, PlatformEvent::Job(JobEvent::JobDone(r)) if r.id == id));
        if done && !restored.migration_busy() {
            break;
        }
    }
    assert!(done);
    assert_eq!(
        restored.monitor().expect("monitored").to_csv(),
        ref_csv,
        "restored monitor samples diverged"
    );
}

#[test]
fn snapshot_header_is_versioned_and_validated() {
    let (mut p, _) = launch_and_submit(5, FaultPlan::new());
    for _ in 0..50 {
        p.step();
    }
    let snap: Snapshot = p.snapshot();
    assert_eq!(&snap.bytes[..SNAPSHOT_MAGIC.len()], &SNAPSHOT_MAGIC);
    assert_eq!(validate_header(&snap.bytes), Ok(SNAPSHOT_VERSION));

    let mut corrupt = snap.bytes.clone();
    corrupt[0] ^= 0xFF;
    assert!(validate_header(&corrupt).is_err(), "corrupted magic must be rejected");

    let mut skewed = snap.bytes.clone();
    skewed[SNAPSHOT_MAGIC.len()] = 0xFF; // version LE low byte
    assert!(validate_header(&skewed).is_err(), "future versions must be rejected");
}

#[test]
fn snapshot_bytes_are_canonical_and_repeatable() {
    // Two platforms driven identically to the same instant — including
    // cancelled timers and completed flows along the way — must encode to
    // the *same bytes*, and snapshotting twice must be idempotent.
    let (reference, ref_id) = launch_and_submit(11, FaultPlan::new());
    let (_, _, total) = finish(reference, ref_id);
    let mk = || {
        let (mut p, id) = launch_and_submit(11, FaultPlan::new());
        for _ in 0..checkpoint_step(11, total) {
            p.step();
        }
        (p, id)
    };
    let (mut a, _) = mk();
    let (mut b, _) = mk();
    let snap_a = a.snapshot();
    assert_eq!(snap_a.bytes, b.snapshot().bytes, "equal states encoded to different bytes");
    assert_eq!(snap_a.bytes, a.snapshot().bytes, "snapshot is not idempotent");
    // A restored replica checkpoints to the very same bytes too.
    let mut r = VHadoop::restore(&snap_a);
    assert_eq!(r.snapshot().bytes, snap_a.bytes, "restore→snapshot is not a fixed point");
}

/// FNV-1a over the snapshot bytes of one pinned configuration. The hash
/// moves when the on-disk format changes, and also when the same run leaves
/// different kernel bookkeeping behind (event `seq`s, fluid epochs, flow
/// estimate stamps, solve counters). Before re-pinning, decode both sides
/// to learn which: bump `simcore::persist::SNAPSHOT_VERSION` only if the
/// encoding itself changed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[test]
fn golden_snapshot_hash_pins_the_format() {
    let cfg = unmonitored(fig2_config(INPUT_BYTES, 1, FaultPlan::new()));
    let (mut p, _) = submit_fig2(VHadoop::launch(cfg), 1);
    for _ in 0..100 {
        p.step();
    }
    let snap = p.snapshot();
    assert_eq!(snap.version(), SNAPSHOT_VERSION);
    let hash = fnv1a(&snap.bytes);
    assert_eq!(
        hash, GOLDEN_HASH,
        "snapshot encoding changed (got {hash:#018x}); bump SNAPSHOT_VERSION and re-pin"
    );
}

/// Pinned against SNAPSHOT_VERSION = 14, moved from v13 through the
/// header alone: this scenario runs no controller, and its bytes after
/// the header hash to `0xc2d1_4004_413d_f6f6` at both versions. At v13 it
/// was `0x9b18_f681_33cd_d5ad`. V13's live flows write resource
/// ids without weights (the same simulation; only the layout moved); at
/// v12 it was `0x5fb1_3c6c_e1fe_25a8`. V12's job configs write three
/// values (the same simulation; only the layout moved); at v11 it was
/// `0x23e6_e68c_358c_fa47`. V11 writes each job's user code
/// as `Rc` handle indexes in its field list, the job id in the job's own
/// record, and no fluid resource-visit count (the same simulation; only the
/// layout moved); at v10 it was `0x684c_b027_aa23_93dd`. V10's engine writes
/// no timer arena (heap entries carry what they fire, an activity how it
/// ends) and its reduce records carry their merge's input counts; at v9 it was
/// `0x26b0_347f_e0a4_a2b2`. V9's JobTracker writes one slot
/// ledger and one record per task instead of the tracker list, two hashed
/// slot tables and fourteen per-task columns (the same simulation; only
/// that layout moved). At v8 it was `0x76db_635b_e390_5d26`, moved from v7
/// through the header alone: this scenario runs no controller. At v7, whose job
/// configs carry four values (the same simulation; only each `JobConfig`
/// encoding is shorter), it was `0xac38_cf85_3f50_b177`. At v6 it was
/// `0xe77f_e230_4680_37b4`; before that
/// `0xf7de_a44e_22b2_e43b` while
/// guest I/O also billed host CPU: same bytes layout, shorter flow demand
/// vectors and different rates. Before that `0xd817_3e17_596d_fa1b`, until
/// chain delays ending together shared one fluid solve: same bytes layout,
/// fewer solves (stamps, epochs, `seq`, solve counters). At v5 it was
/// `0x3605_0ea3_74ec_ed52`; v6 writes every flow's and resource's settle
/// instant.
const GOLDEN_HASH: u64 = 0x8221_9cfd_8922_6dfe;

/// Folds the FNV-1a of the snapshot taken at every `k`-th wakeup of one
/// scenario into a single pin, so the formats `GOLDEN_HASH` never sees
/// (controller, monitor, faults, migration, map-only jobs) are pinned too.
struct Pinned {
    k: usize,
    steps: usize,
    hash: u64,
}

impl Pinned {
    fn new(k: usize) -> Self {
        Pinned { k, steps: 0, hash: 0xcbf29ce484222325 }
    }

    /// Steps `p` once; returns the wakeup's events and whether this wakeup
    /// was snapshotted.
    fn step(&mut self, p: &mut VHadoop) -> Option<(Vec<PlatformEvent>, bool)> {
        let (_, events) = p.step()?;
        self.steps += 1;
        let snapped = self.steps.is_multiple_of(self.k);
        if snapped {
            self.hash = (self.hash ^ fnv1a(&p.snapshot().bytes)).wrapping_mul(0x100000001b3);
        }
        Some((events, snapped))
    }
}

/// A controller stream under adaptive placement (pack-friendly hint, so
/// one host runs hot) and a what-if rebalancer, one job at a time: runs past a what-if commit while jobs are still queued and
/// arrivals still scheduled.
fn pin_controller_stream() -> u64 {
    let hint = WorkloadHint { tasks: 3, cpu_secs_per_task: 8.0, shuffle_bytes_per_task: 48 * MB };
    let mut cfg = ControllerConfig::enabled_with(PlacementKind::Adaptive(hint));
    cfg.queue = QueueConfig { max_active: 1, ..QueueConfig::default() };
    cfg.rebalance = Some(RebalanceConfig {
        interval: SimDuration::from_secs(1),
        hot_cpu: 0.5,
        hot_nic: 0.9,
        hysteresis_ticks: 2,
        cooldown: SimDuration::from_secs(5),
        mode: RebalanceMode::WhatIf,
    });
    let mut p = VHadoop::launch(unmonitored(
        PlatformConfig::builder()
            .cluster(
                ClusterSpec::builder().hosts(3).vms(12).placement(Placement::SingleDomain).build(),
            )
            .hdfs(HdfsConfig { block_size: MB, replication: 2 })
            .tracing(true)
            .seed(31)
            .controller(cfg),
    ));
    let arrivals = [0u64, 1, 2, 30, 40];
    for (run, &at) in (0u32..).zip(&arrivals) {
        p.schedule_job(SimTime::from_secs(at), run % 2, 20.0, load_job(run, 10, 5.0, 64 << 10));
    }
    let mut pin = Pinned::new(3);
    let (mut finished, mut covered) = (0, false);
    while finished < arrivals.len() {
        let (events, snapped) = pin.step(&mut p).expect("the stream drains only when done");
        finished +=
            events.iter().filter(|e| matches!(e, PlatformEvent::Job(JobEvent::JobDone(_)))).count();
        let c = p.controller().expect("controller is enabled");
        let queued = c.jobs().iter().any(|j| j.admitted && j.started.is_none());
        let scheduled = c.slo_report().jobs < arrivals.len() as u64;
        let committed = c.whatif_outcomes().iter().any(|o| o.chosen);
        covered |= snapped && committed && queued && scheduled;
    }
    assert!(covered, "no snapshot after a what-if commit with jobs queued and arrivals pending");
    pin.hash
}

/// Fig. 2 wordcount on a monitored platform whose fault plan degrades a
/// link while a whole-cluster migration is under way.
fn pin_monitored_faulted_migration() -> u64 {
    const INPUT: u64 = 4 * MB;
    let seed = 21;
    let plan = FaultPlan::new()
        .at(
            SimTime::from_secs(1),
            FaultKind::LinkDegrade { host: 0, factor: 0.25, duration: SimDuration::from_secs(3) },
        )
        .at(
            SimTime::from_secs(2),
            FaultKind::StragglerVm { vm: 3, factor: 0.5, duration: SimDuration::from_secs(2) },
        );
    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(fig2_cluster())
            .hdfs(fig2_hdfs(INPUT))
            .monitor_interval(SimDuration::from_millis(200))
            .tracing(true)
            .faults(plan)
            .seed(seed)
            .build(),
    );
    let (spec, app, input) = fig2_job(&mut p, INPUT, seed);
    let id = p.rt.submit(spec, app, input);
    p.migration(HostId(1)).after(SimDuration::from_millis(500)).start();
    let mut pin = Pinned::new(8);
    let (mut job_done, mut vms_done) = (false, 0);
    let (mut degraded, mut migrating) = (false, false);
    while !(job_done && vms_done >= 2) {
        let (events, snapped) = pin.step(&mut p).expect("job and migration are still running");
        for ev in &events {
            match ev {
                PlatformEvent::Job(JobEvent::JobDone(r)) if r.id == id => job_done = true,
                PlatformEvent::Migration(MigrationEvent::VmDone(_)) => vms_done += 1,
                _ => {}
            }
        }
        let now = p.now();
        let link_live = p.fault_log().iter().any(|f| {
            matches!(f.kind, FaultKind::LinkDegrade { duration, .. }
                if f.at <= now && now < f.at + duration)
        });
        let sampled = !p.monitor().expect("monitored").samples().is_empty();
        degraded |= snapped && link_live && sampled;
        migrating |= snapped && p.migration_busy() && vms_done > 0;
    }
    assert!(degraded, "no snapshot while the link degrade was live");
    assert!(migrating, "no snapshot mid-migration after a finished VM");
    pin.hash
}

/// HSGen (map-only) through its map phase, then HSSort through the window
/// between its map phase and its first reduce.
fn pin_hsgen_hssort_window() -> u64 {
    let plan = HsPlan::new(200_000, 2, RootSeed(55)).with_block_size(50_000);
    let mut p = VHadoop::launch(unmonitored(
        PlatformConfig::builder()
            .cluster(
                ClusterSpec::builder().hosts(2).vms(8).placement(Placement::SingleDomain).build(),
            )
            .hdfs(plan.hdfs_config(2))
            .tracing(true)
            .seed(plan.seed.0),
    ));
    let mut pin = Pinned::new(1);
    let (spec, app, input) = hsgen_job(&plan);
    let gen = p.rt.submit(spec, app, input);
    let (mut maps_done, mut map_only_held) = (false, false);
    'gen: loop {
        let (events, snapped) = pin.step(&mut p).expect("HSGen is still running");
        for ev in &events {
            match ev {
                PlatformEvent::Job(JobEvent::MapDone(j, _)) if *j == gen => maps_done = true,
                PlatformEvent::Job(JobEvent::JobDone(r)) if r.id == gen => break 'gen,
                _ => {}
            }
        }
        map_only_held |= snapped && maps_done;
    }
    register_hsgen(&mut p.rt, &plan);
    let (spec, app, input) = hssort_job(&plan);
    let sort = p.rt.submit(spec, app, input);
    let (mut shuffling, mut in_window) = (false, false);
    'sort: loop {
        let (events, snapped) = pin.step(&mut p).expect("HSSort is still running");
        for ev in &events {
            match ev {
                PlatformEvent::Job(JobEvent::MapPhaseDone(j)) if *j == sort => shuffling = true,
                PlatformEvent::Job(JobEvent::ReduceDone(j, _)) if *j == sort => break 'sort,
                _ => {}
            }
        }
        in_window |= snapped && shuffling;
    }
    assert!(map_only_held, "no snapshot held map-only output");
    assert!(in_window, "no snapshot between MapPhaseDone and the first ReduceDone");
    pin.hash
}

#[test]
fn golden_snapshot_hashes_pin_every_subsystem() {
    let got =
        [pin_controller_stream(), pin_monitored_faulted_migration(), pin_hsgen_hssort_window()];
    assert_eq!(
        got, SUBSYSTEM_PINS,
        "snapshot encoding changed (got {got:#018x?}); bump SNAPSHOT_VERSION and re-pin"
    );
}

/// Pinned against SNAPSHOT_VERSION = 14: controller stream, monitored and
/// faulted migration, HSGen/HSSort window. The controller stream moved at
/// v14, whose controller writes one record per job and a queue of job ids
/// (same simulation, new layout); the other two run no controller and
/// moved through the header alone, their bytes after the header hashing to
/// `0xc9ac_8adb_005c_5d2a` and `0x526d_1158_2c9c_b566` at both versions.
/// At v13 they were `0x4038_c15d_c8b0_61e9`, `0xeafc_3eab_7d4e_0508` and
/// `0xd131_19d2_9a89_d7a4`. All three moved at v13, whose
/// live flows and flow steps write resource ids without weights and whose
/// controller writes no energy meter (same simulation, new layout); at v12
/// they were `0xac26_3a4a_32ca_4d3e`, `0xbf43_3bad_2219_14a1` and
/// `0xb115_bec6_1fbb_3375`. All three moved at v12, whose
/// job configs write three values and whose throttle faults write a tag
/// byte for their name (same simulation, new layout); at v11 they were
/// `0x761b_7b8c_72bc_3d2a`, `0x2578_576e_5d28_fe9f` and
/// `0xe50a_3a28_71fb_d700`. All three moved at v11, whose
/// jobs, queued jobs and future arrivals write their user code as `Rc`
/// handle indexes, whose map-only jobs write their outputs as other jobs
/// do and whose fluid net writes no resource-visit count (same simulation,
/// new layout); at v10 they were `0x1044_da7d_4e67_c2d8`,
/// `0x0940_ded1_3498_0b1d` and `0xb517_2688_1e55_7e93`. All three moved at v10, whose
/// engine writes no timer arena and delivers no batch-member wakeups (so the
/// k-th wakeup lands elsewhere too); at v9 they were `0xca98_ce90_6500_d45a`,
/// `0xe101_fa04_ca95_01fd` and `0x838b_c14f_84db_6f03`. All three moved at v9, whose
/// JobTracker writes one slot ledger and one record per task (same
/// simulation, new layout); at v8 they were `0x8e16_8796_f86b_6a95`,
/// `0x6519_5707_ab10_3305` and `0x5ea2_4226_3a3d_701c`. All three moved at v8, whose
/// controller counters encode eleven values instead of twelve (the
/// consolidation count went; the other two scenarios moved through the
/// header); at v7 they were `0x783d_b335_c9a1_05f2`, `0x4ee3_45a8_e739_60cf`
/// and `0x35b4_7388_8999_70f2`. All three moved at v7, where
/// each `JobConfig` encodes four values (same simulation, shorter
/// encoding); at v6 they were `0xec78_18e0_6bef_7dad`,
/// `0x9974_f006_c793_60c4` and `0x264c_e829_07f1_70b5`. The last two moved when maps
/// began to sort their output runs by key, which changes the order of the
/// records a live run writes but not the layout; before that they were
/// `0x7720_d9a4_4f35_aee6` and `0x4557_5f3f_cb29_d275`. All three moved when guest I/O
/// stopped billing host CPU (shorter demand vectors, same layout); before
/// that they were `0xbc39_af94_910c_e01c`, `0x62a6_9887_d8b2_c357` and
/// `0x18ee_7fcd_852a_97eb`. All three moved, with the same
/// wakeup sequence, when chain delays ending together began to share one
/// fluid solve (the kernel bookkeeping `GOLDEN_HASH` names); before that
/// they were `0x066a_0482_3647_93fa`, `0x7355_e4d1_e82e_d3d9` and
/// `0x3c56_ba01_30d0_5f36`. All three moved at v6 because the fluid net
/// writes its settle instants and `flows_settled`; at v5 they were
/// `0x23a4_314c_ae78_12b3` (itself moved from `0xe33c_bd42_16ab_575e` when a
/// what-if outcome's `measured_s` became the span to the fork's last job
/// completion), `0xe581_ee59_ba4f_b8f9` and `0xac73_b47c_3a73_85f4`.
const SUBSYSTEM_PINS: [u64; 3] =
    [0xdd89_e235_4dbb_ffa6, 0xcd65_611e_342f_c49a, 0xf5b3_0ec3_2abd_d8b6];
