//! Host energy accounting.
//!
//! The paper motivates live migration with load balancing and **energy
//! saving** (consolidating VMs lets idle hosts power down). This module
//! prices a simulation run in joules using the standard linear server
//! power model `P(u) = P_idle + (P_peak − P_idle) · u`, evaluated
//! *exactly* from the fluid model's cumulative CPU counters — no sampling
//! error:
//!
//! `E_host = P_idle · T + (P_peak − P_idle) · (∫ u dt)`
//! where `∫ u dt = cumulative_cpu_work / capacity`.

use crate::cluster::{HostId, VirtualCluster};
use serde::{Deserialize, Serialize};
use simcore::prelude::*;

/// Host power draw at zero utilization, watts (a Dell T710 class server).
pub const IDLE_W: f64 = 120.0;
/// Host power draw at full utilization, watts.
pub const PEAK_W: f64 = 280.0;

/// Per-host energy breakdown of a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// `(host, idle joules, dynamic joules)` per host.
    pub per_host: Vec<(u32, f64, f64)>,
    /// Wall span of the accounting window, seconds.
    pub span_s: f64,
}

impl EnergyReport {
    /// Total joules across all hosts.
    pub fn total_j(&self) -> f64 {
        self.per_host.iter().map(|(_, i, d)| i + d).sum()
    }

    /// Total joules of one host.
    pub fn host_j(&self, host: HostId) -> f64 {
        self.per_host.iter().find(|(h, _, _)| *h == host.0).map(|(_, i, d)| i + d).unwrap_or(0.0)
    }

    /// Joules that powering down every host whose *dynamic* energy is
    /// below `threshold_j` would have saved (its idle draw) — the
    /// consolidation argument for migration.
    pub fn consolidation_savings_j(&self, threshold_j: f64) -> f64 {
        self.per_host
            .iter()
            .filter(|(_, _, dynamic)| *dynamic < threshold_j)
            .map(|(_, idle, _)| idle)
            .sum()
    }
}

/// Energy meter over a simulation window.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    /// `(instant, cumulative cpu work per host)` at meter start.
    start: (SimTime, Vec<f64>),
}

simcore::persist_state!(EnergyMeter { start });

impl EnergyMeter {
    /// Starts metering at the current instant.
    pub fn start(engine: &Engine, cluster: &VirtualCluster) -> Self {
        let marks = (0..cluster.host_count())
            .map(|h| engine.fluid().cumulative(cluster.host_cpu_resource(HostId(h))))
            .collect();
        EnergyMeter { start: (engine.now(), marks) }
    }

    /// Energy consumed since the meter started.
    pub fn report(&self, engine: &Engine, cluster: &VirtualCluster) -> EnergyReport {
        let span_s = engine.now().saturating_since(self.start.0).as_secs_f64();
        let per_host = (0..cluster.host_count())
            .map(|h| {
                let r = cluster.host_cpu_resource(HostId(h));
                let cap = engine.fluid().capacity(r);
                let work = engine.fluid().cumulative(r) - self.start.1[h as usize];
                let util_seconds = if cap > 0.0 { (work / cap).max(0.0) } else { 0.0 };
                let idle_j = IDLE_W * span_s;
                let dynamic_j = (PEAK_W - IDLE_W) * util_seconds;
                (h, idle_j, dynamic_j)
            })
            .collect();
        EnergyReport { per_host, span_s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::VmId;
    use crate::spec::{ClusterSpec, Placement};
    use simcore::owners;

    fn setup() -> (Engine, VirtualCluster) {
        let mut e = Engine::new();
        let spec = ClusterSpec::builder()
            .hosts(2)
            .vms(4)
            .vm_vcpus(8)
            .placement(Placement::Custom(vec![0, 0, 0, 0]))
            .build();
        let c = VirtualCluster::new(&mut e, spec);
        (e, c)
    }

    #[test]
    fn idle_run_costs_idle_power_only() {
        let (mut e, c) = setup();
        let meter = EnergyMeter::start(&e, &c);
        e.set_timer_in(SimDuration::from_secs(100), Tag::owner(owners::USER));
        e.run_to_quiescence();
        let rep = meter.report(&e, &c);
        assert!((rep.span_s - 100.0).abs() < 1e-6);
        // 2 hosts × 120 W × 100 s = 24 kJ, zero dynamic.
        assert!((rep.total_j() - 24_000.0).abs() < 1.0, "got {}", rep.total_j());
        assert!(rep.per_host.iter().all(|(_, _, d)| *d == 0.0));
    }

    #[test]
    fn busy_host_draws_more() {
        let (mut e, c) = setup();
        let meter = EnergyMeter::start(&e, &c);
        // Saturate host 0 for ~50 s (4 VMs × 8 vcpus ≥ 8 cores).
        for vm in 0..4 {
            for i in 0..4 {
                e.start_flow(
                    c.cpu_demands(VmId(vm)),
                    2.4e9 * 8.0 / 16.0 * 50.0,
                    Tag::new(owners::USER, vm * 10 + i, 0),
                );
            }
        }
        e.run_to_quiescence();
        let rep = meter.report(&e, &c);
        let h0 = rep.host_j(HostId(0));
        let h1 = rep.host_j(HostId(1));
        assert!(h0 > h1 * 1.5, "busy host 0 ({h0:.0} J) ≫ idle host 1 ({h1:.0} J)");
        // Dynamic energy of host 0 ≈ (280-120) W × 50 s = 8 kJ.
        let dyn0 = rep.per_host[0].2;
        assert!((dyn0 - 8_000.0).abs() < 400.0, "dynamic ≈ 8 kJ, got {dyn0:.0}");
    }

    #[test]
    fn consolidation_savings_counts_idle_hosts() {
        let (mut e, c) = setup();
        let meter = EnergyMeter::start(&e, &c);
        e.start_flow(c.cpu_demands(VmId(0)), 2.4e9 * 30.0, Tag::owner(owners::USER));
        e.run_to_quiescence();
        let rep = meter.report(&e, &c);
        // Host 1 ran nothing: its entire idle draw is recoverable.
        let savings = rep.consolidation_savings_j(1.0);
        let host1_idle = rep.per_host[1].1;
        assert!((savings - host1_idle).abs() < 1e-6);
        assert!(savings > 0.0);
    }
}
