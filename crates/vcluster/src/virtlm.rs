//! Virt-LM-style live-migration benchmark.
//!
//! The paper extends the authors' earlier **Virt-LM** benchmark (ICPE'11)
//! from single-VM to whole-virtual-cluster migration. This module is the
//! standalone equivalent: a set of named workload profiles with
//! characteristic dirty rates, each run as a cluster migration on a fresh
//! simulated testbed, producing the migration-time / downtime rows the
//! paper reports in Table II.
//!
//! The *real* wordcount rows of Table II are produced by the bench harness
//! with an actual MapReduce job running during migration; the profiles here
//! are synthetic stand-ins used for calibration and unit testing.

use crate::cluster::{HostId, VirtualCluster, VmId};
use crate::migration::{
    ClusterMigrationReport, ConstantDirtyModel, MigrationEvent, MigrationManager,
};
use crate::spec::{ClusterSpec, Placement};
use simcore::owners;
use simcore::prelude::*;

/// A named workload profile with a characteristic memory dirty rate.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Scenario name (appears in reports).
    pub name: String,
    /// Memory dirty rate while the workload runs, bytes/s.
    pub dirty_rate: f64,
}

impl WorkloadProfile {
    /// Idle guest: kernel housekeeping only.
    pub fn idle() -> Self {
        WorkloadProfile { name: "idle".into(), dirty_rate: 0.5e6 }
    }

    /// Compile-like workload: moderate writes.
    pub fn kernel_build() -> Self {
        WorkloadProfile { name: "kernel-build".into(), dirty_rate: 25e6 }
    }

    /// Memory-stress writer: near-wire-speed dirtying.
    pub fn mem_stress() -> Self {
        WorkloadProfile { name: "mem-stress".into(), dirty_rate: 110e6 }
    }
}

/// One scenario × memory-size measurement row.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtLmRow {
    /// Profile name.
    pub workload: String,
    /// Guest memory, MiB.
    pub mem_mib: u64,
    /// Number of VMs migrated.
    pub vms: u32,
    /// Whole-cluster migration wall time, seconds.
    pub total_time_s: f64,
    /// Sum of per-VM downtimes, milliseconds.
    pub total_downtime_ms: f64,
    /// Largest single-VM downtime, milliseconds.
    pub max_downtime_ms: f64,
    /// Mean per-VM migration time, seconds.
    pub mean_vm_time_s: f64,
}

/// Benchmark driver: migrates an `n_vms` virtual cluster between two hosts
/// under each workload profile.
#[derive(Debug, Clone)]
pub struct VirtLm {
    /// Number of VMs in the migrated cluster.
    pub n_vms: u32,
    /// How many VMs migrate at once.
    pub concurrency: u32,
}

impl Default for VirtLm {
    fn default() -> Self {
        // Paper setup: 16-node cluster.
        VirtLm { n_vms: 16, concurrency: 1 }
    }
}

impl VirtLm {
    /// Runs one profile at one memory size on a fresh simulated testbed.
    pub fn run_one(&self, profile: &WorkloadProfile, mem_mib: u64) -> VirtLmRow {
        let report = self.migrate_cluster(profile.dirty_rate, mem_mib);
        let mean_vm_time_s =
            report.per_vm.iter().map(|r| r.migration_time.as_secs_f64()).sum::<f64>()
                / report.per_vm.len() as f64;
        VirtLmRow {
            workload: profile.name.clone(),
            mem_mib,
            vms: self.n_vms,
            total_time_s: report.total_time.as_secs_f64(),
            total_downtime_ms: report.total_downtime.as_millis_f64(),
            max_downtime_ms: report.max_downtime.as_millis_f64(),
            mean_vm_time_s,
        }
    }

    /// Full per-VM report for one configuration (Fig. 5-style data).
    pub fn migrate_cluster(&self, dirty_rate: f64, mem_mib: u64) -> ClusterMigrationReport {
        let mut engine = Engine::new();
        let spec = ClusterSpec::builder()
            .hosts(2)
            .vms(self.n_vms)
            .vm_mem_mib(mem_mib)
            .placement(Placement::SingleDomain)
            .build();
        let mut cluster = VirtualCluster::new(&mut engine, spec);
        let mut mgr = MigrationManager::new(self.concurrency);
        let mut dirty = ConstantDirtyModel(dirty_rate);
        let vms: Vec<VmId> = (0..self.n_vms).map(VmId).collect();
        mgr.start_cluster_migration(&mut engine, &cluster, &vms, HostId(1));
        while let Some((_, w)) = engine.next_wakeup() {
            if w.tag().owner == owners::MIGRATION {
                for ev in mgr.on_wakeup(&mut engine, &mut cluster, &mut dirty, &w) {
                    if let MigrationEvent::AllDone(rep) = ev {
                        return rep;
                    }
                }
            }
        }
        unreachable!("migration session never completed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_bench() -> VirtLm {
        VirtLm { n_vms: 4, concurrency: 1 }
    }

    #[test]
    fn idle_migration_time_tracks_memory() {
        let b = small_bench();
        let idle = WorkloadProfile::idle();
        let r512 = b.run_one(&idle, 512);
        let r1024 = b.run_one(&idle, 1024);
        assert!(
            r1024.total_time_s > 1.7 * r512.total_time_s,
            "1024 MB ({:.1}s) ≈ 2× 512 MB ({:.1}s)",
            r1024.total_time_s,
            r512.total_time_s
        );
        // Downtime does NOT scale with memory (paper observation i).
        assert!(
            (r1024.max_downtime_ms - r512.max_downtime_ms).abs()
                < 0.5 * r512.max_downtime_ms.max(50.0),
            "downtime uncorrelated with memory: {} vs {}",
            r512.max_downtime_ms,
            r1024.max_downtime_ms
        );
    }

    #[test]
    fn busy_workload_much_worse_downtime() {
        let b = small_bench();
        let idle = b.run_one(&WorkloadProfile::idle(), 1024);
        let busy = b.run_one(&WorkloadProfile::mem_stress(), 1024);
        assert!(busy.total_time_s > 2.0 * idle.total_time_s);
        assert!(
            busy.total_downtime_ms > 8.0 * idle.total_downtime_ms,
            "busy downtime ({:.0}ms) ≫ idle ({:.0}ms)",
            busy.total_downtime_ms,
            idle.total_downtime_ms
        );
    }
}
