//! Whole-platform snapshot, restore, and fork.
//!
//! [`VHadoop::snapshot`] captures every piece of dynamic state — the
//! engine (timer heap, fluid solver, activities, tracer), the cluster's
//! VM→host map, the HDFS namespace and in-flight operations, the
//! JobTracker's full job table, the monitor's samples, the migration
//! manager, the dirty-page model, the fault driver, and the controller —
//! into one versioned byte string plus a small *residue* of live `Rc`
//! handles (user map/reduce code and deferred submission closures, which
//! cannot serialize but are immutable and safely shared).
//!
//! [`VHadoop::restore`] relaunches the platform from the snapshot's
//! config and overwrites all dynamic state from the bytes. Because
//! `launch` is deterministic, every launch-derived identifier (fluid
//! `ResourceId`s, interned trace `Name`s, monitor columns) comes out
//! identical to the original's, so only dynamic values need decoding —
//! and a restored platform replays **byte-identically**: same trace
//! bytes, same wakeup sequence, same outputs.
//!
//! [`VHadoop::fork`] is snapshot + restore in one step: an independent
//! platform that diverges only through what happens to it afterwards.
//! The rebalancer's what-if mode (see
//! [`RebalanceMode::WhatIf`](vsched::rebalance::RebalanceMode)) is built
//! on fork: each candidate migration is applied to a fork, driven to
//! completion, and measured to the fork's last job completion, grading
//! `estimate_makespan` against ground truth while the parent stays
//! unperturbed.

use crate::platform::{PlatformConfig, VHadoop};
use mapreduce::persist::JobResidue;
use mapreduce::runtime::PendingJob;
use simcore::persist::{validate_header, Decoder, Encoder, Persist};
use simcore::prelude::*;
use std::collections::HashMap;
use vcluster::cluster::HostId;
use vcluster::migration::ClusterMigrationReport;
use vsched::controller::{WhatIfOutcome, WhatIfRequest};

/// A point-in-time capture of a running [`VHadoop`] platform.
///
/// The byte encoding is canonical: the engine compacts timer tombstones
/// and stale completion-index entries before encoding, and every map is
/// written in sorted key order, so two byte-identical platform states
/// produce byte-identical snapshots regardless of how they got there.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The launch configuration the snapshot was taken under. Restore
    /// relaunches from this, so the snapshot is self-contained.
    pub config: PlatformConfig,
    /// Versioned canonical encoding of all dynamic state (header:
    /// [`simcore::persist::SNAPSHOT_MAGIC`] +
    /// [`simcore::persist::SNAPSHOT_VERSION`]).
    pub bytes: Vec<u8>,
    /// Live out-of-band state: user-code trait objects and deferred
    /// submission closures, shared via `Rc` between the parent and every
    /// restore/fork.
    pub(crate) residue: Residue,
}

impl Snapshot {
    /// The snapshot-format version embedded in the byte header.
    pub fn version(&self) -> u32 {
        validate_header(&self.bytes).expect("snapshot carries a valid header")
    }
}

/// The non-serializable half of a snapshot (see [`Snapshot::residue`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct Residue {
    /// Per-job user code (`app`/`input`/`partitioner`) for every job the
    /// JobTracker still holds, ascending job id.
    pub jobs: Vec<JobResidue>,
    /// Deferred submission closures for jobs queued in admission or
    /// scheduled as future arrivals, keyed by controller job id.
    pub pending: Vec<(u32, PendingJob)>,
}

impl VHadoop {
    /// Captures the full platform state. Takes `&mut self` because the
    /// engine canonicalizes first (compacting dead timers and stale
    /// completion entries — unobservable in the trace, but required so
    /// equal states encode to equal bytes).
    pub fn snapshot(&mut self) -> Snapshot {
        let mut e = Encoder::new();
        self.rt.engine.encode_state(&mut e);
        self.rt.cluster.encode_state(&mut e);
        self.rt.hdfs.encode_state(&mut e);
        self.rt.mr.encode_state(&mut e);
        match &self.monitor {
            Some(m) => {
                true.encode(&mut e);
                m.encode_state(&mut e);
            }
            None => false.encode(&mut e),
        }
        self.migration.encode_state(&mut e);
        self.dirty.encode_state(&mut e);
        self.migration_report.encode(&mut e);
        self.pending_migration_dst.encode(&mut e);
        self.faults.encode_state(&mut e);
        match &self.ctrl {
            Some(c) => {
                true.encode(&mut e);
                c.encode_state(&mut e);
            }
            None => false.encode(&mut e),
        }
        let mut residue = Residue { jobs: self.rt.mr.residue(), pending: Vec::new() };
        if let Some(c) = &self.ctrl {
            residue.pending = c.job_residue();
        }
        Snapshot { config: self.launch_config.clone(), bytes: e.finish(), residue }
    }

    /// Reconstructs a platform from `snap`: relaunches from its config,
    /// then overwrites all dynamic state. The result replays
    /// byte-identically to the platform the snapshot was taken from.
    ///
    /// # Panics
    /// If the snapshot header's version is unsupported or the byte stream
    /// does not decode cleanly (truncation, residue mismatch).
    pub fn restore(snap: &Snapshot) -> VHadoop {
        let mut p = VHadoop::launch(snap.config.clone());
        let mut d = Decoder::new(&snap.bytes);
        p.rt.engine = Engine::decode_state(&mut d);
        p.rt.cluster.restore_state(&mut d);
        p.rt.hdfs.restore_state(&mut d);
        p.rt.mr.restore_state(&mut d, &snap.residue.jobs);
        if bool::decode(&mut d) {
            p.monitor
                .as_mut()
                .expect("snapshot has a monitor but the relaunched platform does not")
                .restore_state(&mut d);
        }
        p.migration.restore_state(&mut d);
        p.dirty.restore_state(&mut d);
        p.migration_report = Option::<ClusterMigrationReport>::decode(&mut d);
        p.pending_migration_dst = Option::<HostId>::decode(&mut d);
        p.faults.restore_state(&mut d);
        if bool::decode(&mut d) {
            let pending: HashMap<u32, PendingJob> = snap.residue.pending.iter().cloned().collect();
            p.ctrl
                .as_mut()
                .expect("snapshot has a controller but the relaunched platform does not")
                .restore_state(&mut d, &pending);
        }
        assert!(d.is_exhausted(), "snapshot bytes not fully consumed — version skew?");
        p
    }

    /// An independent copy of this platform at the current instant. The
    /// fork shares the parent's user code and submission closures (both
    /// immutable) but owns all mutable state: driving the fork never
    /// perturbs the parent, and both replay byte-identically from here
    /// until their inputs diverge.
    pub fn fork(&mut self) -> VHadoop {
        VHadoop::restore(&self.snapshot())
    }

    /// Evaluates a deferred what-if request: forks the platform per
    /// candidate move set, applies the candidate in the fork, drives the
    /// fork until it drains, measures from now to the fork's last job
    /// completion, and commits the best-measured candidate in the parent
    /// (via the controller, which also records the estimator-vs-measured
    /// outcomes).
    pub(crate) fn evaluate_whatif(&mut self, req: WhatIfRequest) {
        let now = self.now();
        let snap = self.snapshot();
        let mut outcomes: Vec<WhatIfOutcome> = Vec::with_capacity(req.candidates.len());
        for cand in &req.candidates {
            let mut fork = VHadoop::restore(&snap);
            if let Some(c) = fork.ctrl.as_mut() {
                c.set_suppress_rebalance(true);
            }
            fork.migration.start_moves(&mut fork.rt.engine, &fork.rt.cluster, &cand.moves);
            // The drain instant would also count trailing rebalance and
            // monitor ticks; a fork in which no job finishes falls back to it.
            let done = fork.drive_until_idle();
            let end = done.last().map_or(fork.now(), |res| res.finished);
            let measured_s = end.saturating_since(now).as_secs_f64();
            outcomes.push(WhatIfOutcome {
                at: now,
                moves: cand.moves.clone(),
                estimated_s: cand.estimated_s,
                measured_s,
                chosen: false,
                model: req.model.clone(),
            });
        }
        if let Some(best) = (0..outcomes.len())
            .min_by(|&a, &b| outcomes[a].measured_s.total_cmp(&outcomes[b].measured_s))
        {
            outcomes[best].chosen = true;
        }
        let mut ctrl = self.ctrl.take().expect("a what-if request implies a controller");
        ctrl.resolve_whatif(&mut self.rt, &mut self.migration, outcomes);
        self.ctrl = Some(ctrl);
    }
}
