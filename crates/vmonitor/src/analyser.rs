//! The nmon-analyser equivalent: summaries, bottleneck detection, and
//! terminal charts from collected samples.

use crate::monitor::Monitor;
use serde::{Deserialize, Serialize};
use simcore::fluid::ResourceKind;
use simcore::stats::Summary;

/// Per-resource utilization summary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResourceSummary {
    /// Resource name.
    pub name: String,
    /// Resource kind.
    pub kind: ResourceKind,
    /// Utilization statistics over the sampled window.
    pub util: Summary,
    /// Fraction of samples at ≥ 90 % utilization.
    pub saturated_frac: f64,
}

/// The analyser's full report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonitorReport {
    /// One summary per resource.
    pub resources: Vec<ResourceSummary>,
    /// Samples analysed.
    pub samples: usize,
}

impl MonitorReport {
    /// Builds the report from a monitor's samples.
    pub fn from_monitor(monitor: &Monitor) -> Self {
        let n = monitor.samples().len();
        let resources = monitor
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let xs: Vec<f64> = monitor.series(i).map(|(_, u)| u).collect();
                let saturated = xs.iter().filter(|&&u| u >= 0.9).count();
                ResourceSummary {
                    name: c.name.clone(),
                    kind: c.kind,
                    util: Summary::of(&xs),
                    saturated_frac: if xs.is_empty() {
                        0.0
                    } else {
                        saturated as f64 / xs.len() as f64
                    },
                }
            })
            .collect();
        MonitorReport { resources, samples: n }
    }

    /// The busiest resource (highest mean utilization), if any was sampled.
    pub fn bottleneck(&self) -> Option<&ResourceSummary> {
        self.resources.iter().max_by(|a, b| a.util.mean.partial_cmp(&b.util.mean).expect("no NaN"))
    }

    /// Summary for a named resource.
    pub fn resource(&self, name: &str) -> Option<&ResourceSummary> {
        self.resources.iter().find(|r| r.name == name)
    }

    /// Aligned text table, busiest first.
    pub fn to_table(&self) -> String {
        let mut rows: Vec<&ResourceSummary> = self.resources.iter().collect();
        rows.sort_by(|a, b| b.util.mean.partial_cmp(&a.util.mean).expect("no NaN"));
        let mut out = format!(
            "{:<18} {:>8} {:>8} {:>8} {:>10}\n",
            "resource", "mean%", "p95%", "max%", "saturated%"
        );
        for r in rows {
            out.push_str(&format!(
                "{:<18} {:>8.1} {:>8.1} {:>8.1} {:>10.1}\n",
                r.name,
                r.util.mean * 100.0,
                r.util.p95 * 100.0,
                r.util.max * 100.0,
                r.saturated_frac * 100.0
            ));
        }
        out
    }
}

/// Renders one column's series as a unicode sparkline (nmon-analyser's
/// graphs, terminal edition).
pub fn sparkline(monitor: &Monitor, column: usize, width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let xs: Vec<f64> = monitor.series(column).map(|(_, u)| u).collect();
    if xs.is_empty() {
        return String::new();
    }
    // Downsample to `width` buckets by averaging.
    let buckets = width.min(xs.len()).max(1);
    let per = xs.len() as f64 / buckets as f64;
    (0..buckets)
        .map(|b| {
            let lo = (b as f64 * per) as usize;
            let hi = (((b + 1) as f64 * per) as usize).max(lo + 1).min(xs.len());
            let avg = xs[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
            BARS[((avg * 7.0).round() as usize).min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::prelude::*;
    use vcluster::prelude::*;

    fn monitored_run() -> Monitor {
        let mut e = Engine::new();
        let spec =
            ClusterSpec::builder().hosts(2).vms(4).placement(Placement::SingleDomain).build();
        let c = VirtualCluster::new(&mut e, spec);
        let mut m = Monitor::attach(&mut e, SimDuration::from_millis(500));
        // Saturate the NFS disk with a long read.
        e.start_chain(c.disk_read(VmId(1), 90e6 * 8.0), Tag::owner(simcore::owners::USER));
        while let Some((_, w)) = e.next_wakeup() {
            m.on_wakeup(&mut e, &w);
        }
        m
    }

    #[test]
    fn bottleneck_is_the_nfs_disk() {
        let m = monitored_run();
        let report = MonitorReport::from_monitor(&m);
        let b = report.bottleneck().expect("sampled something");
        assert_eq!(b.name, "nfs.disk", "NFS disk saturates, got {}", b.name);
        assert!(b.saturated_frac > 0.8);
        assert_eq!(b.kind, ResourceKind::Disk);
    }

    #[test]
    fn table_renders_sorted() {
        let m = monitored_run();
        let report = MonitorReport::from_monitor(&m);
        let table = report.to_table();
        let first_data_line = table.lines().nth(1).expect("data row");
        assert!(first_data_line.starts_with("nfs.disk"), "busiest first: {first_data_line}");
    }

    #[test]
    fn sparkline_has_requested_width() {
        let m = monitored_run();
        let col = m.column_index("nfs.disk").unwrap();
        let s = sparkline(&m, col, 10);
        assert!(s.chars().count() <= 10 && !s.is_empty());
        assert!(s.contains('█'), "saturated disk shows full bars: {s}");
    }
}
