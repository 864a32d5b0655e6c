//! The vHadoop reproduction harness: one registry entry per paper table,
//! figure or ablation, and the plumbing they share.
//!
//! [`EXPERIMENTS`] is the only place a result file is named. Each entry
//! prints the rows the paper plots, asserts the paper's qualitative
//! shapes (panicking when one fails), and writes the files its
//! `outputs` declare under `results/`, mostly through a [`ResultSink`] of
//! `(series, x, y)` records. The `repro` binary runs the registry:
//!
//! ```sh
//! cargo run --release -p vhadoop-bench --bin repro -- [--full] [--only NAME[,NAME...]]
//! ```

#![warn(missing_docs)]

use simcore::emit::{csv_row, Json};
use std::fmt::{Display, Write as _};
use std::path::PathBuf;
use vcluster::spec::{ClusterSpecBuilder, Placement};

mod ablations;
mod fig2;
mod fig3;
mod fig4a;
mod fig4b;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod scalability;
mod table1;
mod tpcxhs;
mod whatif;

/// One reproducible result: a named recipe and the files it writes.
pub struct Experiment {
    /// Name `repro --only` selects it by.
    pub name: &'static str,
    /// Files the run writes, relative to `results/`.
    pub outputs: &'static [&'static str],
    /// Runs the experiment with data sizes divided by `scale` (1 is the
    /// paper's size); panics when a paper shape does not hold.
    pub run: fn(scale: f64),
}

/// The default divisor on the paper's data sizes: runs laptop-fast while
/// preserving the shapes. `repro --full` runs at scale 1.
pub const DEFAULT_SCALE: f64 = 8.0;

/// Every experiment, in the order `repro` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "table1", outputs: &[], run: table1::run },
    Experiment {
        name: "fig2",
        outputs: &["fig2_wordcount.csv", "fig2_wordcount.json", "fig2_wordcount.trace.json"],
        run: fig2::run,
    },
    Experiment {
        name: "fig3",
        outputs: &[
            "fig3a_mrbench_maps.csv",
            "fig3a_mrbench_maps.json",
            "fig3b_mrbench_reduces.csv",
            "fig3b_mrbench_reduces.json",
        ],
        run: fig3::run,
    },
    Experiment {
        name: "fig4a",
        outputs: &["fig4a_terasort.csv", "fig4a_terasort.json"],
        run: fig4a::run,
    },
    Experiment {
        name: "fig4b",
        outputs: &["fig4b_dfsio.csv", "fig4b_dfsio.json"],
        run: fig4b::run,
    },
    Experiment {
        name: "fig5",
        outputs: &[
            "fig5a_migration_time.csv",
            "fig5a_migration_time.json",
            "fig5b_downtime.csv",
            "fig5b_downtime.json",
            "table2_migration.csv",
            "table2_migration.json",
        ],
        run: fig5::run,
    },
    Experiment {
        name: "fig6",
        outputs: &["fig6_control_chart.csv", "fig6_control_chart.json"],
        run: fig6::run,
    },
    Experiment {
        name: "fig7",
        outputs: &["fig7_display_clustering.csv", "fig7_display_clustering.json"],
        run: fig7::run,
    },
    Experiment {
        name: "fig8",
        outputs: &[
            "fig8/sample-data.svg",
            "fig8/canopy.svg",
            "fig8/dirichlet.svg",
            "fig8/fuzzy-kmeans.svg",
            "fig8/kmeans.svg",
            "fig8/meanshift.svg",
            "fig8/minhash.svg",
        ],
        run: fig8::run,
    },
    Experiment {
        name: "scalability",
        outputs: &["scalability.csv", "scalability.json"],
        run: scalability::run,
    },
    Experiment { name: "tpcxhs", outputs: &["tpcxhs.csv", "tpcxhs.json"], run: tpcxhs::run },
    Experiment {
        name: "ablations",
        outputs: &["ablations.csv", "ablations.json", "faults.trace.json"],
        run: ablations::run,
    },
    Experiment {
        name: "topology",
        outputs: &["topology.csv", "topology.json"],
        run: ablations::topology,
    },
    Experiment { name: "whatif", outputs: &["whatif.csv", "whatif.json"], run: whatif::run },
    Experiment {
        name: "costmodel",
        outputs: &["costmodel_ablation.csv", "costmodel_ablation.json"],
        run: whatif::costmodel,
    },
];

/// The paper's two layouts of a 2-host virtual cluster, by series name:
/// every VM on host 0 (*normal*) or the VMs split over both hosts.
pub(crate) const LAYOUTS: [(&str, Placement); 2] =
    [("normal", Placement::SingleDomain), ("cross-domain", Placement::CrossDomain)];

/// The paper's testbed: 16 VMs (1 master + 15 workers) on 2 hosts.
pub(crate) fn cluster_2x16(placement: Placement) -> ClusterSpecBuilder {
    vcluster::spec::ClusterSpec::builder().hosts(2).vms(16).placement(placement)
}

/// One measured point of an experiment.
#[derive(Debug, Clone)]
pub struct Record {
    /// Series name (e.g. `normal`, `cross-domain`, `canopy`).
    pub series: String,
    /// X value (data size MB, map count, cluster size, ...).
    pub x: f64,
    /// Y value (seconds, MB/s, ms, ...).
    pub y: f64,
}

/// Collected results of one experiment.
#[derive(Debug, Clone)]
pub struct ResultSink {
    /// Experiment id (`fig2`, `table2`, ...).
    pub experiment: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The measurements.
    pub records: Vec<Record>,
}

impl ResultSink {
    /// Empty sink for `experiment`.
    pub fn new(experiment: &str, x_label: &str, y_label: &str) -> Self {
        ResultSink {
            experiment: experiment.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            records: Vec::new(),
        }
    }

    /// Adds one measurement.
    pub fn push(&mut self, series: &str, x: f64, y: f64) {
        self.records.push(Record { series: series.to_string(), x, y });
    }

    /// Distinct series names, in first-appearance order.
    pub fn series(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for r in &self.records {
            if !out.contains(&r.series.as_str()) {
                out.push(&r.series);
            }
        }
        out
    }

    /// Y values of one series, ordered by x.
    pub fn series_points(&self, series: &str) -> Vec<(f64, f64)> {
        let mut pts: Vec<(f64, f64)> =
            self.records.iter().filter(|r| r.series == series).map(|r| (r.x, r.y)).collect();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));
        pts
    }

    /// The y of `series` at `x`; panics when that point was not measured.
    pub(crate) fn at(&self, series: &str, x: f64) -> f64 {
        self.point(series, x)
            .unwrap_or_else(|| panic!("{}: no {series} point at {x}", self.experiment))
    }

    fn point(&self, series: &str, x: f64) -> Option<f64> {
        self.records.iter().find(|r| r.series == series && (r.x - x).abs() < 1e-9).map(|r| r.y)
    }

    /// Renders the experiment as an aligned text table: one row per x,
    /// one column per series.
    pub fn to_table(&self) -> String {
        let series = self.series();
        let mut xs: Vec<f64> = self.records.iter().map(|r| r.x).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        xs.dedup();
        let mut out = String::new();
        let _ = write!(out, "{:<16}", self.x_label);
        for s in &series {
            let _ = write!(out, " {s:>18}");
        }
        let _ = writeln!(out, "    ({})", self.y_label);
        for x in xs {
            let _ = write!(out, "{x:<16.1}");
            for s in &series {
                match self.point(s, x) {
                    Some(y) => {
                        let _ = write!(out, " {y:>18.2}");
                    }
                    None => {
                        let _ = write!(out, " {:>18}", "-");
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders the sink as JSON: the labels, then one record per line.
    pub fn to_json(&self) -> String {
        let records = self.records.iter().map(|r| {
            Json::object([
                ("series", Json::from(r.series.as_str())),
                ("x", Json::from(r.x)),
                ("y", Json::from(r.y)),
            ])
        });
        Json::object([
            ("experiment", Json::from(self.experiment.as_str())),
            ("x_label", Json::from(self.x_label.as_str())),
            ("y_label", Json::from(self.y_label.as_str())),
            ("records", Json::Array(records.collect())),
        ])
        .render()
    }

    /// Writes `results/<experiment>.json` and `.csv`; returns the paths.
    pub fn write(&self) -> std::io::Result<Vec<PathBuf>> {
        let json = write_artifact(&format!("{}.json", self.experiment), &self.to_json())?;
        let mut csv = String::new();
        csv_row(&mut csv, ["series", &self.x_label, &self.y_label]);
        for r in &self.records {
            csv_row(&mut csv, [&r.series as &dyn Display, &r.x, &r.y]);
        }
        let csv = write_artifact(&format!("{}.csv", self.experiment), &csv)?;
        Ok(vec![json, csv])
    }

    /// Prints the table plus a completion banner, and writes result files.
    pub fn finish(&self) {
        println!("\n=== {} ===", self.experiment);
        print!("{}", self.to_table());
        match self.write() {
            Ok(paths) => {
                for p in paths {
                    println!("wrote {}", p.display());
                }
            }
            Err(e) => eprintln!("could not write results: {e}"),
        }
    }
}

/// Writes a result file (e.g. a Chrome trace) under `results/`, creating
/// the directory if needed; returns the written path. Panics unless an
/// [`EXPERIMENTS`] entry declares `name` among its outputs.
pub fn write_artifact(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    assert!(
        EXPERIMENTS.iter().any(|e| e.outputs.contains(&name)),
        "results/{name} is not an output of any registry entry"
    );
    let path = PathBuf::from("results").join(name);
    std::fs::create_dir_all(path.parent().expect("under results/"))?;
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Checks a series is non-decreasing in x up to `slack` relative dips
/// (the experiments' shape assertions).
pub fn non_decreasing(points: &[(f64, f64)], slack: f64) -> bool {
    points.windows(2).all(|w| w[1].1 >= w[0].1 * (1.0 - slack))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_tables_and_series() {
        let mut s = ResultSink::new("figX", "size", "seconds");
        s.push("normal", 1.0, 2.0);
        s.push("cross", 1.0, 3.0);
        s.push("normal", 2.0, 4.0);
        assert_eq!(s.series(), vec!["normal", "cross"]);
        assert_eq!(s.series_points("normal"), vec![(1.0, 2.0), (2.0, 4.0)]);
        let table = s.to_table();
        assert!(table.contains("normal"));
        assert!(table.lines().count() >= 3);
    }

    #[test]
    fn registry_names_and_outputs_are_unique_and_committed() {
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut names = std::collections::HashSet::new();
        let mut outputs = std::collections::HashSet::new();
        for e in EXPERIMENTS {
            assert!(names.insert(e.name), "two entries are named {}", e.name);
            for &o in e.outputs {
                assert!(outputs.insert(o), "two entries declare results/{o}");
                assert!(
                    results.join(o).is_file(),
                    "{} declares results/{o}, which is absent",
                    e.name
                );
            }
        }
    }

    #[test]
    fn shape_checker() {
        assert!(non_decreasing(&[(1.0, 1.0), (2.0, 2.0), (3.0, 1.99)], 0.05));
        assert!(!non_decreasing(&[(1.0, 2.0), (2.0, 1.0)], 0.05));
    }
}
