//! The versioned characterization dataset.
//!
//! One [`Row`] per sweep run: the configuration axes that produced it,
//! the decision-time feature vector the cost model sees
//! (`vsched::model::FEATURE_NAMES`), the observed kernel/controller/
//! locality counters, and the measured labels. The column dictionary is
//! part of the format — [`Dataset::columns`] is written into both the
//! CSV header and the JSON envelope.
//!
//! Serialization goes through `simcore::emit` (`Display` formatting of
//! Rust primitives), so the emitted bytes are a pure function of the rows
//! — the determinism tests compare whole files with `==`.

use std::fmt::Display;
use std::path::{Path, PathBuf};

use simcore::emit::{csv_row, Json};
use vsched::model::FEATURE_NAMES;

/// Bump when the row schema (columns or their meaning) changes.
pub const DATASET_VERSION: u32 = 1;

/// One characterization run: configuration, features, observations,
/// labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload mix name (`JobMix::name`).
    pub mix: &'static str,
    /// Placement policy name (`PlacementKind::name`).
    pub placement: &'static str,
    /// Scheduler policy name (`SchedulerPolicy::name`).
    pub scheduler: &'static str,
    /// Physical hosts in the shape.
    pub hosts: u32,
    /// VMs in the shape.
    pub vms: u32,
    /// Racks in the shape.
    pub racks: u32,
    /// Fault severity name (`FaultSeverity::name`).
    pub fault: &'static str,
    /// The group seed the run derived everything from.
    pub seed: u64,
    /// Decision-time features, ordered as `FEATURE_NAMES`.
    pub features: Vec<f64>,
    /// Engine wakeups delivered over the run.
    pub wakeups: u64,
    /// Fluid-kernel rate reallocations.
    pub reallocations: u64,
    /// Fluid-kernel flow touches.
    pub flows_touched: u64,
    /// Jobs the controller saw finish.
    pub jobs_finished: u64,
    /// VM migrations that completed.
    pub migrations_completed: u64,
    /// Map tasks launched on the host holding their split.
    pub data_local_maps: u64,
    /// Map tasks launched in total.
    pub launched_maps: u64,
    /// Shuffle volume, MiB.
    pub shuffle_mb: f64,
    /// **Label:** measured makespan of the run, seconds.
    pub makespan_s: f64,
    /// **Label:** SLO violations the controller recorded.
    pub slo_violations: u64,
}

/// An ordered collection of sweep rows plus its serializers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    /// Rows in group order (the sweep's fixed configuration order).
    pub rows: Vec<Row>,
}

impl Dataset {
    /// The column dictionary, in emission order: axes, features
    /// (`FEATURE_NAMES` under a `feat_` prefix, so names like `hosts`
    /// never collide with the axis columns), observations (`obs_*`),
    /// labels (`label_*`). Every name is unique.
    pub fn columns() -> Vec<String> {
        let mut cols: Vec<String> =
            ["mix", "placement", "scheduler", "hosts", "vms", "racks", "fault", "seed"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        cols.extend(FEATURE_NAMES.iter().map(|s| format!("feat_{s}")));
        cols.extend(
            [
                "obs_wakeups",
                "obs_reallocations",
                "obs_flows_touched",
                "obs_jobs_finished",
                "obs_migrations_completed",
                "obs_data_local_maps",
                "obs_launched_maps",
                "obs_shuffle_mb",
                "label_makespan_s",
                "label_slo_violations",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        cols
    }

    /// Renders the dataset as CSV (header + one line per row).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        csv_row(&mut out, Dataset::columns());
        for r in &self.rows {
            let mut cells: Vec<&dyn Display> = vec![
                &r.mix,
                &r.placement,
                &r.scheduler,
                &r.hosts,
                &r.vms,
                &r.racks,
                &r.fault,
                &r.seed,
            ];
            cells.extend(r.features.iter().map(|f| f as &dyn Display));
            cells.extend([
                &r.wakeups as &dyn Display,
                &r.reallocations,
                &r.flows_touched,
                &r.jobs_finished,
                &r.migrations_completed,
                &r.data_local_maps,
                &r.launched_maps,
                &r.shuffle_mb,
                &r.makespan_s,
                &r.slo_violations,
            ]);
            csv_row(&mut out, cells);
        }
        out
    }

    /// Renders the dataset as a versioned JSON envelope:
    /// `{"dataset":"characterization","version":N,"columns":[..],"rows":[[..]]}`.
    pub fn to_json(&self) -> String {
        let rows = self.rows.iter().map(|r| {
            let mut cells: Vec<Json> = vec![
                r.mix.into(),
                r.placement.into(),
                r.scheduler.into(),
                r.hosts.into(),
                r.vms.into(),
                r.racks.into(),
                r.fault.into(),
                r.seed.into(),
            ];
            cells.extend(r.features.iter().map(|&f| Json::from(f)));
            cells.extend([
                r.wakeups.into(),
                r.reallocations.into(),
                r.flows_touched.into(),
                r.jobs_finished.into(),
                r.migrations_completed.into(),
                r.data_local_maps.into(),
                r.launched_maps.into(),
                r.shuffle_mb.into(),
                r.makespan_s.into(),
                r.slo_violations.into(),
            ]);
            Json::Array(cells)
        });
        Json::object([
            ("dataset", "characterization".into()),
            ("version", DATASET_VERSION.into()),
            ("columns", Json::array(Dataset::columns())),
            ("rows", Json::Array(rows.collect())),
        ])
        .render()
    }

    /// Writes `characterization.csv` and `characterization.json` under
    /// `dir` (created if absent) and returns the two paths.
    pub fn write(&self, dir: &Path) -> std::io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let csv = dir.join("characterization.csv");
        let json = dir.join("characterization.json");
        std::fs::write(&csv, self.to_csv())?;
        std::fs::write(&json, self.to_json())?;
        Ok((csv, json))
    }

    /// Flattens a row into `(features, label)` pairs for model fitting.
    /// Features are the decision-time vector only — observed counters
    /// are *outcomes*, not things the controller knows when it prices a
    /// plan, so they stay out of the model's inputs.
    pub fn training_pairs(&self) -> (Vec<Vec<f64>>, Vec<f64>) {
        let feats = self.rows.iter().map(|r| r.features.clone()).collect();
        let labels = self.rows.iter().map(|r| r.makespan_s).collect();
        (feats, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Row {
        Row {
            mix: "cpu-bound",
            placement: "pack",
            scheduler: "fifo",
            hosts: 2,
            vms: 6,
            racks: 1,
            fault: "none",
            seed: 7,
            features: vec![0.5; FEATURE_NAMES.len()],
            wakeups: 10,
            reallocations: 3,
            flows_touched: 4,
            jobs_finished: 2,
            migrations_completed: 0,
            data_local_maps: 5,
            launched_maps: 6,
            shuffle_mb: 1.25,
            makespan_s: 42.5,
            slo_violations: 0,
        }
    }

    #[test]
    fn csv_header_matches_the_column_dictionary() {
        let ds = Dataset { rows: vec![row()] };
        let csv = ds.to_csv();
        let header = csv.lines().next().unwrap();
        assert_eq!(header, Dataset::columns().join(","));
        // Every data line has exactly as many cells as columns.
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), Dataset::columns().len());
        }
    }

    #[test]
    fn column_names_are_unique() {
        let cols = Dataset::columns();
        let set: std::collections::BTreeSet<&String> = cols.iter().collect();
        assert_eq!(set.len(), cols.len(), "duplicate column names break CSV consumers");
    }

    #[test]
    fn json_envelope_is_versioned_and_rectangular() {
        let ds = Dataset { rows: vec![row(), row()] };
        let cols = Dataset::columns();
        let quoted: Vec<String> = cols.iter().map(|c| format!("{c:?}")).collect();
        let halves = "0.5, ".repeat(FEATURE_NAMES.len());
        let cells = format!(
            r#"["cpu-bound", "pack", "fifo", 2, 6, 1, "none", 7, {halves}10, 3, 4, 2, 0, 5, 6, 1.25, 42.5, 0]"#
        );
        let want = format!(
            r#"{{
  "dataset": "characterization",
  "version": {DATASET_VERSION},
  "columns": [{}],
  "rows": [
    {cells},
    {cells}
  ]
}}
"#,
            quoted.join(", ")
        );
        assert_eq!(ds.to_json(), want);
        // The JSON column list and the CSV header are the same dictionary.
        assert_eq!(ds.to_csv().lines().next().unwrap(), cols.join(","));
    }

    #[test]
    fn training_pairs_use_decision_features_and_makespan() {
        let ds = Dataset { rows: vec![row()] };
        let (feats, labels) = ds.training_pairs();
        assert_eq!(feats[0].len(), FEATURE_NAMES.len());
        assert_eq!(labels, vec![42.5]);
    }
}
