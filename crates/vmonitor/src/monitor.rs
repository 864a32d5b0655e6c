//! The nmon-style sampler.
//!
//! Attached to a running simulation, the monitor samples every resource's
//! utilization (per-VM VCPU, per-host CPU/NIC/bridge, NFS disk and NIC,
//! each rack's ToR switch and — on multi-rack fabrics — the core trunk)
//! on a fixed interval — the same columns the paper's nmon deployment
//! collects on every master and worker VM in parallel.

use simcore::emit::csv_row;
use simcore::fluid::ResourceKind;
use simcore::owners;
use simcore::prelude::*;

/// One resource column of the sample table.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Resource name (e.g. `pm0.nic`, `vm3.vcpu`, `nfs.disk`).
    pub name: String,
    /// Resource kind.
    pub kind: ResourceKind,
    /// Fluid resource id.
    pub resource: ResourceId,
}

/// One sampling instant: utilization (0..1) per column.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// When the sample was taken.
    pub t: SimTime,
    /// Utilization per column, aligned with [`Monitor::columns`].
    pub util: Vec<f64>,
}

simcore::persist_struct!(Sample { t, util });

/// The attached monitor.
#[derive(Debug)]
pub struct Monitor {
    interval: SimDuration,
    columns: Vec<Column>,
    samples: Vec<Sample>,
    /// True while this monitor's timer is armed; it is the only
    /// `owners::MONITOR` timer.
    armed: bool,
    /// Pre-interned trace counter name per column (so the sampling path
    /// re-emits samples into the trace without allocating).
    counter_names: Vec<Name>,
}

// Samples and whether the timer is armed (the timer itself travels with the
// engine snapshot). Columns, counter names and the interval are launch-derived.
simcore::persist_state!(Monitor { samples, armed });

impl Monitor {
    /// Attaches to `engine`, sampling every `interval`. Columns cover
    /// every resource registered so far.
    pub fn attach(engine: &mut Engine, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        let columns: Vec<Column> = engine
            .fluid()
            .usage_snapshot()
            .into_iter()
            .map(|(resource, kind, _, _)| Column {
                name: engine.fluid().resource_name(resource).to_string(),
                kind,
                resource,
            })
            .collect();
        let counter_names =
            columns.iter().map(|c| engine.tracer_mut().intern_owned(c.name.clone())).collect();
        engine.set_timer_in(interval, Tag::owner(owners::MONITOR));
        Monitor { interval, columns, samples: Vec::new(), armed: true, counter_names }
    }

    /// Column metadata.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Collected samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Handles a wakeup; returns `true` if it was this monitor's timer.
    /// While anything else is in flight the monitor samples and re-arms;
    /// when its timer is the last thing pending it takes no sample and
    /// parks, so a run with a monitor drains like one without.
    pub fn on_wakeup(&mut self, engine: &mut Engine, wakeup: &Wakeup) -> bool {
        let Wakeup::Timer { tag } = wakeup else {
            return false;
        };
        if tag.owner != owners::MONITOR {
            return false;
        }
        self.armed = false;
        if !engine.in_flight() {
            return true;
        }
        let util: Vec<f64> =
            self.columns.iter().map(|c| engine.fluid().utilization(c.resource)).collect();
        for (&name, &u) in self.counter_names.iter().zip(util.iter()) {
            engine.trace_counter(name, u);
        }
        self.samples.push(Sample { t: engine.now(), util });
        self.resume(engine);
        true
    }

    /// Re-arms a parked monitor once the engine has work in flight again:
    /// the next sample lands one interval from now. A no-op while the
    /// monitor is armed or the engine is idle.
    pub fn resume(&mut self, engine: &mut Engine) {
        if !self.armed && engine.in_flight() {
            engine.set_timer_in(self.interval, Tag::owner(owners::MONITOR));
            self.armed = true;
        }
    }

    /// Utilization time series of one column.
    pub fn series(&self, column: usize) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.samples.iter().map(move |s| (s.t, s.util[column]))
    }

    /// Column index by resource name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// CSV dump (nmon's file format spirit: one row per instant).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        csv_row(&mut out, std::iter::once("time_s").chain(self.columns.iter().map(|c| &*c.name)));
        for s in &self.samples {
            let time = format!("{:.3}", s.t.as_secs_f64());
            csv_row(
                &mut out,
                std::iter::once(time).chain(s.util.iter().map(|u| format!("{u:.4}"))),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcluster::prelude::*;

    fn setup() -> (Engine, VirtualCluster, Monitor) {
        let mut e = Engine::new();
        let spec =
            ClusterSpec::builder().hosts(2).vms(4).placement(Placement::SingleDomain).build();
        let c = VirtualCluster::new(&mut e, spec);
        let m = Monitor::attach(&mut e, SimDuration::from_secs(1));
        (e, c, m)
    }

    #[test]
    fn samples_on_interval() {
        let (mut e, c, mut m) = setup();
        // A 10-second compute flow keeps the simulation alive; once it
        // finishes the monitor's next tick parks and the queue drains.
        e.start_chain(c.compute(VmId(0), 2.4e9 * 10.0), Tag::owner(simcore::owners::USER));
        while let Some((_, w)) = e.next_wakeup() {
            m.on_wakeup(&mut e, &w);
        }
        assert!(m.samples().len() >= 9, "got {} samples", m.samples().len());
        assert!(
            m.samples().iter().all(|s| s.t <= SimTime::from_secs(10)),
            "no sample after the work"
        );
        // Time strictly increases.
        for pair in m.samples().windows(2) {
            assert!(pair[1].t > pair[0].t);
        }
    }

    #[test]
    fn parked_monitor_resumes_one_interval_after_work_returns() {
        let (mut e, c, mut m) = setup();
        e.start_chain(c.compute(VmId(0), 2.4e9 * 2.5), Tag::owner(simcore::owners::USER));
        while let Some((_, w)) = e.next_wakeup() {
            m.on_wakeup(&mut e, &w);
        }
        let parked_at = e.now();
        assert_eq!(parked_at, SimTime::from_secs(3), "the tick after the work parks");
        assert_eq!(m.samples().len(), 2);
        m.resume(&mut e);
        assert!(e.next_wakeup().is_none(), "nothing to observe, nothing re-armed");
        e.start_chain(c.compute(VmId(0), 2.4e9 * 2.5), Tag::owner(simcore::owners::USER));
        m.resume(&mut e);
        while let Some((_, w)) = e.next_wakeup() {
            m.on_wakeup(&mut e, &w);
        }
        let resumed: Vec<SimTime> = m.samples()[2..].iter().map(|s| s.t).collect();
        assert_eq!(resumed, [SimTime::from_secs(4), SimTime::from_secs(5)]);
    }

    #[test]
    fn busy_vcpu_shows_utilization() {
        let (mut e, c, mut m) = setup();
        e.start_chain(c.compute(VmId(1), 2.4e9 * 10.0), Tag::owner(simcore::owners::USER));
        while let Some((_, w)) = e.next_wakeup() {
            m.on_wakeup(&mut e, &w);
        }
        let vcpu_col = m.column_index("vm1.vcpu").expect("column exists");
        let idle_col = m.column_index("vm2.vcpu").expect("column exists");
        let busy_avg: f64 =
            m.series(vcpu_col).map(|(_, u)| u).sum::<f64>() / m.samples().len() as f64;
        let idle_avg: f64 =
            m.series(idle_col).map(|(_, u)| u).sum::<f64>() / m.samples().len() as f64;
        assert!(busy_avg > 0.9, "busy VCPU ~saturated, got {busy_avg:.2}");
        assert_eq!(idle_avg, 0.0, "idle VCPU silent");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let (mut e, c, mut m) = setup();
        e.start_chain(c.compute(VmId(0), 2.4e9 * 3.0), Tag::owner(simcore::owners::USER));
        while let Some((_, w)) = e.next_wakeup() {
            m.on_wakeup(&mut e, &w);
        }
        let csv = m.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().expect("header");
        assert!(header.starts_with("time_s,"));
        assert!(header.contains("nfs.disk"));
        assert!(csv.lines().count() > 1);
    }
}
