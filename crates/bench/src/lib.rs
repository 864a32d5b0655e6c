//! Shared plumbing for the vHadoop bench harness: experiment records,
//! table rendering, and result files consumed by `EXPERIMENTS.md`.
//!
//! Every figure/table binary produces a [`ResultSink`] of `(series, x, y)`
//! records, prints the same rows the paper plots, and writes
//! `results/<experiment>.json` + `.csv` for archival.

#![warn(missing_docs)]

use simcore::emit::{csv_row, Json};
use std::fmt::{Display, Write as _};
use std::path::PathBuf;

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
                let y = self
                    .records
                    .iter()
                    .find(|r| r.series == *s && (r.x - x).abs() < 1e-9)
                    .map(|r| r.y);
                match y {
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

/// Writes an auxiliary artifact (e.g. a Chrome trace) under `results/`,
/// creating the directory if needed; returns the written path.
pub fn write_artifact(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Parses `--scale <f>` from the process args (default 8.0): a divisor on
/// the paper's absolute data sizes so the harness runs laptop-fast while
/// preserving shapes. `--full` forces scale 1 (paper-size data).
pub fn cli_scale() -> f64 {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--full") {
        return 1.0;
    }
    args.iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(8.0)
}

/// Parses `--case <name>` from the process args: restricts a multi-case
/// binary (e.g. `ablations`) to the one named study. `None` runs them all.
pub fn cli_case() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == "--case").and_then(|i| args.get(i + 1)).cloned()
}

/// Parses `--racks <n>` from the process args (default 1, the paper's
/// flat testbed): sweeps that support it spread the hosts over `n` racks
/// behind a core trunk and report per-rack ToR utilization.
pub fn cli_racks() -> u32 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--racks")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<u32>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Checks a series is non-decreasing in x up to `slack` relative dips
/// (shape assertions in the fig binaries' self-tests).
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
    fn shape_checker() {
        assert!(non_decreasing(&[(1.0, 1.0), (2.0, 2.0), (3.0, 1.99)], 0.05));
        assert!(!non_decreasing(&[(1.0, 2.0), (2.0, 1.0)], 0.05));
    }
}
