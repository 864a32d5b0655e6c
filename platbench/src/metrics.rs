//! The metric catalogue: names, units and bounds, as `BENCHMARK.json` lists
//! them (a unit test holds the two in step).

/// An end-to-end metric and the share of the parent's median by which it
/// may worsen before a change is a regression. All are lower-is-better.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
    /// The same seed gives the same value to the last bit in every run, so
    /// `--selfcheck` allows no difference at all.
    pub exact_repeat: bool,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "wall_s", unit: "s", bound: 0.25, exact_repeat: false },
    EndToEnd { name: "peak_heap_mb", unit: "MB", bound: 0.05, exact_repeat: false },
    EndToEnd { name: "sim_makespan_s", unit: "s", bound: 0.05, exact_repeat: true },
    EndToEnd { name: "setup_s", unit: "s", bound: 0.25, exact_repeat: false },
];

/// Per-layer metrics `(name, unit)`, layer = crate. A workload that does not
/// exercise a layer reports 0 for it. A name `<span>_s` whose `<span>` is the
/// name of a recorded span is filled with that span's busy time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simcore.next_wakeup_s", "s"),
    ("simcore.wakeups", "count"),
    ("simcore.reallocations", "count"),
    ("simcore.flows_touched", "count"),
    ("simcore.batch_applied", "count"),
    ("simcore.comp_size_p99", "count"),
    ("simcore.comp_size_max", "count"),
    ("simcore.trace_overhead_frac", "ratio"),
    ("simcore.trace_export_s", "s"),
    ("simcore.trace_spans", "count"),
    ("mapreduce.route_s", "s"),
    ("mapreduce.self_s", "s"),
    ("mapreduce.submit_s", "s"),
    ("mapreduce.launched_maps", "count"),
    ("mapreduce.launched_reduces", "count"),
    ("mapreduce.map_output_records", "count"),
    ("mapreduce.shuffle_bytes", "count"),
    ("mapreduce.relaunched_tasks", "count"),
    ("mapreduce.speculative_maps", "count"),
    ("workloads.read_split_s", "s"),
    ("workloads.map_s", "s"),
    ("workloads.reduce_s", "s"),
    ("workloads.gen_s", "s"),
    ("workloads.job_build_s", "s"),
    ("workloads.hs_checksum_s", "s"),
    ("mlkit.map_s", "s"),
    ("mlkit.combine_s", "s"),
    ("mlkit.reduce_s", "s"),
    ("mlkit.driver_s", "s"),
    ("mlkit.run_pass_s", "s"),
    ("vhdfs.register_s", "s"),
    ("vhdfs.blocks", "count"),
    ("vhdfs.bytes_written", "count"),
    ("vhdfs.under_replicated", "count"),
    ("vsched.schedule_s", "s"),
    ("vsched.ticks", "count"),
    ("vsched.jobs_rejected", "count"),
    ("vsched.queue_hwm", "count"),
    ("vsched.migrations_planned", "count"),
    ("vcluster.migrations_completed", "count"),
    ("vcluster.migrations_aborted", "count"),
    ("vmonitor.samples", "count"),
    ("vmonitor.report_s", "s"),
    ("tuner.advise_s", "s"),
    ("core.launch_s", "s"),
    ("core.run_job_s", "s"),
    ("core.step_s", "s"),
    ("core.steps", "count"),
    ("core.us_per_wakeup", "us"),
    ("core.observe_s", "s"),
    ("core.snapshot_s", "s"),
    ("core.restore_s", "s"),
    ("core.fork_s", "s"),
    ("core.snapshot_mb", "MB"),
    ("alloc.bytes_per_pass", "count"),
    ("alloc.calls_per_pass", "count"),
    ("trace.probe_overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.probed_wall_s", "s"),
    ("trace.plain_wall_s", "s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    #[test]
    fn every_name_is_valid_and_used_once() {
        let names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.0)).collect();
        for n in &names {
            assert!(valid_metric_name(n), "{n}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a metric name is listed twice");
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    /// `BENCHMARK.json` sits one directory up; the catalogue here and the
    /// one there must name the same metrics, units and bounds.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside platbench/");
        let listed = |section: &str| -> Vec<String> {
            let start = json.find(&format!("\"{section}\"")).expect("section present");
            let end = start + json[start..].find(']').expect("section is an array");
            json[start..end].lines().filter(|l| l.contains("\"name\"")).map(String::from).collect()
        };
        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (line, m) in e2e.iter().zip(&END_TO_END) {
            assert!(line.contains(&format!("\"name\": \"{}\"", m.name)), "{line}");
            assert!(line.contains(&format!("\"unit\": \"{}\"", m.unit)), "{line}");
            assert!(line.contains(&format!("\"bound\": {}", m.bound)), "{line}");
            assert!(line.contains("\"better\": \"lower\""), "{line}");
        }
        let layer = listed("per_layer");
        assert_eq!(layer.len(), PER_LAYER.len());
        for (line, (name, unit)) in layer.iter().zip(PER_LAYER) {
            assert!(line.contains(&format!("\"name\": \"{name}\"")), "{line}");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
        }
        let workloads = listed("workloads");
        assert_eq!(workloads.len(), crate::workloads::NAMES.len());
        for (line, name) in workloads.iter().zip(crate::workloads::NAMES) {
            assert!(line.contains(&format!("\"name\": \"{name}\"")), "{line}");
        }
    }
}
