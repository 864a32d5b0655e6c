//! Periodic migration-driven rebalancing.
//!
//! The rebalancer samples each host's CPU and NIC utilization over the
//! controller's tick window (cumulative fluid counters differenced between
//! ticks — the same window-average trick `vmonitor` uses), and plans live
//! migrations when a host stays hot for `hysteresis_ticks` consecutive
//! windows while another host has headroom. Plans are bounded by
//! [`MAX_MOVES`] per session and a post-plan `cooldown`, so one skewed
//! window can't trigger a migration storm.

use simcore::prelude::*;
use vcluster::cluster::{HostId, VirtualCluster, VmId};

/// Most VMs moved per planned session.
pub const MAX_MOVES: usize = 2;

/// How the controller chooses among candidate migration plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RebalanceMode {
    /// Commit the heuristic plan directly (the seed behavior).
    #[default]
    Estimate,
    /// Fork the simulation once per candidate plan, drive each fork to
    /// completion, and commit the plan with the best *measured* makespan.
    /// The forks also grade `estimate_makespan` against ground truth.
    WhatIf,
}

/// Rebalancer tunables.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceConfig {
    /// Controller tick period (load-sampling window).
    pub interval: SimDuration,
    /// CPU utilization above which a host counts as hot.
    pub hot_cpu: f64,
    /// NIC utilization above which a host counts as hot.
    pub hot_nic: f64,
    /// Consecutive hot windows required before a plan fires.
    pub hysteresis_ticks: u32,
    /// Quiet period after a plan before the next one may fire.
    pub cooldown: SimDuration,
    /// How a fired plan is chosen: trust the heuristic, or fork-and-measure.
    pub mode: RebalanceMode,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            interval: SimDuration::from_secs(2),
            hot_cpu: 0.85,
            hot_nic: 0.85,
            hysteresis_ticks: 3,
            cooldown: SimDuration::from_secs(10),
            mode: RebalanceMode::Estimate,
        }
    }
}

/// One host's window-averaged load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostLoad {
    /// CPU utilization in `[0, 1]` over the last window.
    pub cpu: f64,
    /// NIC utilization in `[0, 1]` over the last window.
    pub nic: f64,
}

/// What a tick decided.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RebalancePlan {
    /// Per-VM moves to hand to [`vcluster::migration::MigrationManager::start_moves`].
    pub moves: Vec<(VmId, HostId)>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    at: SimTime,
    cpu_cum: f64,
    nic_cum: f64,
}

/// Stateful load watcher + planner; one per controller, which passes its
/// [`RebalanceConfig`] into [`Rebalancer::plan`].
#[derive(Debug)]
pub struct Rebalancer {
    marks: Vec<Mark>,
    hot_streak: Vec<u32>,
    last_plan: Option<SimTime>,
}

simcore::persist_struct!(Mark { at, cpu_cum, nic_cum });
simcore::persist_struct!(Rebalancer { marks, hot_streak, last_plan });

impl Rebalancer {
    /// New rebalancer for a cluster with `hosts` hosts.
    pub fn new(hosts: u32) -> Self {
        Rebalancer {
            marks: vec![Mark::default(); hosts as usize],
            hot_streak: vec![0; hosts as usize],
            last_plan: None,
        }
    }

    /// Differences the fluid cumulative counters against the previous tick
    /// to get each host's window-average CPU and NIC utilization. The
    /// first call after construction spans from t = 0.
    pub fn sample(&mut self, engine: &Engine, cluster: &VirtualCluster) -> Vec<HostLoad> {
        let now = engine.now();
        let mut loads = Vec::with_capacity(self.marks.len());
        for h in 0..self.marks.len() {
            let host = HostId(h as u32);
            let cpu_r = cluster.host_cpu_resource(host);
            let nic_r = cluster.host_nic_resource(host);
            let cpu_cum = engine.fluid().cumulative(cpu_r);
            let nic_cum = engine.fluid().cumulative(nic_r);
            let mark = &mut self.marks[h];
            let dt = now.saturating_since(mark.at).as_secs_f64();
            let load = if dt > 0.0 {
                HostLoad {
                    cpu: ((cpu_cum - mark.cpu_cum) / (engine.fluid().capacity(cpu_r) * dt))
                        .clamp(0.0, 1.0),
                    nic: ((nic_cum - mark.nic_cum) / (engine.fluid().capacity(nic_r) * dt))
                        .clamp(0.0, 1.0),
                }
            } else {
                HostLoad { cpu: 0.0, nic: 0.0 }
            };
            *mark = Mark { at: now, cpu_cum, nic_cum };
            loads.push(load);
        }
        loads
    }

    /// Updates hysteresis streaks with this window's loads and returns a
    /// plan when one is due under `cfg`. Returns an empty plan otherwise.
    pub fn plan(
        &mut self,
        cfg: &RebalanceConfig,
        now: SimTime,
        cluster: &VirtualCluster,
        loads: &[HostLoad],
    ) -> RebalancePlan {
        for (h, l) in loads.iter().enumerate() {
            if l.cpu >= cfg.hot_cpu || l.nic >= cfg.hot_nic {
                self.hot_streak[h] += 1;
            } else {
                self.hot_streak[h] = 0;
            }
        }
        if let Some(t) = self.last_plan {
            if now.saturating_since(t) < cfg.cooldown {
                return RebalancePlan::default();
            }
        }

        // Hottest host with a full streak, coldest host as the target.
        let hot = (0..loads.len())
            .filter(|&h| self.hot_streak[h] >= cfg.hysteresis_ticks)
            .max_by(|&a, &b| loads[a].cpu.total_cmp(&loads[b].cpu));
        if let Some(src) = hot {
            let dst = (0..loads.len())
                .filter(|&h| h != src)
                .min_by(|&a, &b| loads[a].cpu.total_cmp(&loads[b].cpu));
            if let Some(dst) = dst {
                // Only shed load toward real headroom.
                if loads[src].cpu - loads[dst].cpu > 0.2 {
                    let from = HostId(src as u32);
                    let moves = self.moves_onto(cluster, HostId(dst as u32), |h| h == from);
                    if !moves.is_empty() {
                        self.last_plan = Some(now);
                        self.hot_streak[src] = 0;
                        return RebalancePlan { moves };
                    }
                }
            }
        }
        RebalancePlan::default()
    }

    /// Every viable single-destination relief plan off `src` — one per
    /// destination host with CPU headroom — for what-if evaluation. The
    /// heuristic plan's destination (the coldest host) is always among
    /// them, so measuring can only match or beat the heuristic.
    pub fn candidate_plans(
        &self,
        cluster: &VirtualCluster,
        src: HostId,
        loads: &[HostLoad],
    ) -> Vec<RebalancePlan> {
        (0..loads.len())
            .filter(|&h| HostId(h as u32) != src && loads[h].cpu < loads[src.0 as usize].cpu)
            .filter_map(|h| {
                let moves = self.moves_onto(cluster, HostId(h as u32), |from| from == src);
                (!moves.is_empty()).then_some(RebalancePlan { moves })
            })
            .collect()
    }

    /// Up to [`MAX_MOVES`] VMs whose host passes `from` onto `dst`, lowest VM
    /// ids first, never the namenode (VM 0), each fitting the DRAM `dst`
    /// has left.
    fn moves_onto(
        &self,
        cluster: &VirtualCluster,
        dst: HostId,
        from: impl Fn(HostId) -> bool,
    ) -> Vec<(VmId, HostId)> {
        let used: u64 =
            cluster.vms().filter(|&v| cluster.host_of(v) == dst).map(|v| cluster.vm_mem(v)).sum();
        let mut free = cluster.spec().host.dram.saturating_sub(used);
        let mut moves = Vec::new();
        for vm in cluster.vms() {
            if moves.len() >= MAX_MOVES {
                break;
            }
            if vm == VmId(0) || !from(cluster.host_of(vm)) {
                continue;
            }
            let mem = cluster.vm_mem(vm);
            if mem <= free {
                free -= mem;
                moves.push((vm, dst));
            }
        }
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcluster::spec::{ClusterSpec, Placement};

    fn cluster(engine: &mut Engine) -> VirtualCluster {
        let spec =
            ClusterSpec::builder().hosts(2).vms(8).placement(Placement::SingleDomain).build();
        VirtualCluster::new(engine, spec)
    }

    fn hot(cpu: f64) -> HostLoad {
        HostLoad { cpu, nic: 0.0 }
    }

    #[test]
    fn hysteresis_delays_the_plan() {
        let mut e = Engine::new();
        let c = cluster(&mut e);
        let cfg = RebalanceConfig { hysteresis_ticks: 3, ..Default::default() };
        let mut r = Rebalancer::new(2);
        let loads = [hot(0.95), hot(0.05)];
        for tick in 1..=2 {
            let p = r.plan(&cfg, SimTime::from_secs(tick), &c, &loads);
            assert!(p.moves.is_empty(), "tick {tick} below the hysteresis threshold");
        }
        let p = r.plan(&cfg, SimTime::from_secs(3), &c, &loads);
        assert!(!p.moves.is_empty(), "third hot window fires");
        assert!(p.moves.len() <= MAX_MOVES, "bounded by MAX_MOVES");
        assert!(p.moves.iter().all(|&(vm, dst)| vm != VmId(0) && dst == HostId(1)));
    }

    #[test]
    fn cooldown_spaces_consecutive_plans() {
        let mut e = Engine::new();
        let c = cluster(&mut e);
        let cfg = RebalanceConfig {
            hysteresis_ticks: 1,
            cooldown: SimDuration::from_secs(10),
            ..Default::default()
        };
        let mut r = Rebalancer::new(2);
        let loads = [hot(0.95), hot(0.05)];
        assert!(!r.plan(&cfg, SimTime::from_secs(1), &c, &loads).moves.is_empty());
        assert!(
            r.plan(&cfg, SimTime::from_secs(5), &c, &loads).moves.is_empty(),
            "inside the cooldown window"
        );
        assert!(
            !r.plan(&cfg, SimTime::from_secs(12), &c, &loads).moves.is_empty(),
            "cooldown expired"
        );
    }

    #[test]
    fn a_cool_window_resets_the_streak() {
        let mut e = Engine::new();
        let c = cluster(&mut e);
        let cfg = RebalanceConfig { hysteresis_ticks: 2, ..Default::default() };
        let mut r = Rebalancer::new(2);
        let hot_loads = [hot(0.95), hot(0.05)];
        let cool_loads = [hot(0.10), hot(0.05)];
        assert!(r.plan(&cfg, SimTime::from_secs(1), &c, &hot_loads).moves.is_empty());
        assert!(r.plan(&cfg, SimTime::from_secs(2), &c, &cool_loads).moves.is_empty());
        assert!(
            r.plan(&cfg, SimTime::from_secs(3), &c, &hot_loads).moves.is_empty(),
            "streak restarted after the cool window"
        );
    }

    #[test]
    fn no_plan_without_a_load_gap() {
        let mut e = Engine::new();
        let c = cluster(&mut e);
        let cfg = RebalanceConfig { hysteresis_ticks: 1, ..Default::default() };
        let mut r = Rebalancer::new(2);
        // Both hosts hot: migrating just trades one hot host for another.
        let loads = [hot(0.95), hot(0.90)];
        assert!(r.plan(&cfg, SimTime::from_secs(1), &c, &loads).moves.is_empty());
    }

    #[test]
    fn sample_reads_window_averages() {
        let mut e = Engine::new();
        let c = cluster(&mut e);
        let mut r = Rebalancer::new(2);
        // An idle cluster shows zero load over any window.
        e.set_timer_in(SimDuration::from_secs(2), Tag::new(simcore::owners::USER, 0, 0));
        while e.next_wakeup().is_some() {}
        let loads = r.sample(&e, &c);
        assert_eq!(loads.len(), 2);
        assert!(loads.iter().all(|l| l.cpu == 0.0 && l.nic == 0.0));
    }
}
