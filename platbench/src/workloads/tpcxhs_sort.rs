//! `tpcxhs_sort` — TPCx-HS (HSGen → HSSort → HSValidate) on a bare
//! `MrRuntime`.
//!
//! Chosen because it drives the same `mapreduce` data path as `wc_fig2` the
//! other way round: fixed 100-byte `Bytes` records, the range partitioner, a
//! map-only stage that writes through the `vhdfs` replication pipeline, a
//! reduce-side total sort, the namespace checksum table, then a re-read. A
//! gain for the read/hash/text path that costs the write/sort/bytes path
//! shows here. HSValidate's verdict is the output check.

use super::{counter_layers, hdfs_layers, kernel_layers, tracer_layers};
use super::{Layers, Mode, Outcome, Workload, PLATFORM_SEED};
use crate::probe;
use crate::span;
use crate::stats::Digest;
use std::time::Instant;
use vhadoop::prelude::*;
use vhadoop::workloads::tpcxhs::{self, HsPlan, HsValidateReport, HS_IN, HS_OUT};

/// Chosen for a steady `peak_heap_mb`: `Vec` capacities double, so a vector
/// whose length sits on a power of two is twice as large for one seed as for
/// the next. `finish_job` appends the reduce partitions to one `Vec`, which
/// with 8 near-equal partitions ends on such a boundary (7 % between seeds);
/// 7 and 10 reduces still moved the peak by 2 %. With 6 the partitions hold
/// 133 333 +- 333 records, seven sigma above 2^17, and the peak repeats to
/// 0.03 % across seeds.
const REDUCES: u32 = 6;
const REPLICATION: u32 = 2;

pub struct TpcxhsSort {
    plan: HsPlan,
}

impl TpcxhsSort {
    pub fn prepare(seed: RootSeed, quick: bool) -> Self {
        let sf_bytes = if quick { 4_000_000 } else { 80_000_000 };
        TpcxhsSort { plan: HsPlan::new(sf_bytes, REDUCES, seed) }
    }
}

type Job = (JobSpec, Box<dyn MapReduceApp>, Box<dyn InputFormat>);

/// `MrRuntime::run_job` with the loop owned here, so the kernel's
/// `next_wakeup` and the routed crates are timed apart.
fn run_probed(rt: &mut MrRuntime, (spec, app, input): Job) -> JobResult {
    let (app, input) = probe::wrap(probe::WORKLOADS, app, input);
    let id = span::within("mapreduce.submit", || rt.submit(spec, app, input));
    loop {
        let (_, w) = span::within("simcore.next_wakeup", || rt.engine.next_wakeup())
            .expect("job must finish before the simulation drains");
        let routed = span::within("mapreduce.route", || rt.route_full(&w));
        for ev in routed.job_events {
            if let JobEvent::JobDone(res) = ev {
                if res.id == id {
                    return *res;
                }
            }
        }
    }
}

/// `tpcxhs::run_tpcxhs` composed from its public stage functions; returns
/// the jobs' counters, the verdict and the simulated total.
fn run_tpcxhs_probed(rt: &mut MrRuntime, plan: &HsPlan) -> (Vec<Counters>, HsValidateReport, f64) {
    const BUILD: &str = "workloads.job_build";
    let t0 = rt.now();
    // Like `run_tpcxhs`, keep no job result longer than the stage needs it.
    let gen = run_probed(rt, span::within(BUILD, || tpcxhs::hsgen_job(plan))).counters;
    span::within("vhdfs.register", || tpcxhs::register_hsgen(rt, plan));
    let sort = run_probed(rt, span::within(BUILD, || tpcxhs::hssort_job(plan)));
    let pre = span::within("workloads.hs_checksum", || {
        tpcxhs::record_sort_checksums(rt, &sort);
        tpcxhs::integrity_prescan(rt)
    });
    assert!(pre.is_empty(), "no fault was injected, yet the prescan found {pre:?}");
    let job = span::within(BUILD, || tpcxhs::hsvalidate_job(rt, plan, &sort));
    let validate = run_probed(rt, job);
    let verdict =
        span::within("workloads.hs_checksum", || tpcxhs::hsvalidate_verdict(rt, plan, &validate));
    let total_s = rt.now().saturating_since(t0).as_secs_f64();
    (vec![gen, sort.counters, validate.counters], verdict, total_s)
}

impl Workload for TpcxhsSort {
    fn gen_s(&self) -> f64 {
        0.0 // records are synthesized inside HSGen's maps, i.e. in the pass
    }

    fn pass(&self, mode: Mode) -> Outcome {
        let plan = &self.plan;
        let t = Instant::now();
        let root = span::enter("platbench.pass");
        let mut rt = span::within("core.launch", || {
            MrRuntime::new(
                ClusterSpec::paper_normal(),
                plan.hdfs_config(REPLICATION),
                PLATFORM_SEED,
            )
        });
        rt.engine.tracer_mut().set_enabled(mode == Mode::SimTraced);
        let mut layers = Layers::new();
        let (verdict, sim_makespan_s) = if mode == Mode::Probed {
            let (counters, verdict, total_s) = run_tpcxhs_probed(&mut rt, plan);
            counter_layers(&counters, &mut layers);
            (verdict, total_s)
        } else {
            let rep = tpcxhs::run_tpcxhs(&mut rt, plan);
            (rep.validate, rep.total_s)
        };
        drop(root);
        let wall_s = t.elapsed().as_secs_f64();

        let mut failures: Vec<String> =
            verdict.violations.iter().map(|v| format!("HSValidate: {v}")).collect();
        if verdict.records != plan.total_records() {
            failures.push(format!(
                "validated {} records of {}",
                verdict.records,
                plan.total_records()
            ));
        }
        // The namespace checksum table holds a content digest of every input
        // and output block, which both the library and the probed run fill.
        let mut digest = Digest::default();
        digest.word(verdict.records);
        digest.word(verdict.blocks_checked as u64);
        let parts = (0..REDUCES).map(|r| format!("{HS_OUT}/part-r-{r:05}"));
        for path in std::iter::once(HS_IN.to_string()).chain(parts) {
            match rt.hdfs.block_checksums(&path) {
                Some(sums) => sums.iter().for_each(|s| digest.word(s.unwrap_or(0))),
                None => failures.push(format!("{path} missing from HDFS")),
            }
        }

        kernel_layers(&rt.engine.kernel_stats(), &mut layers);
        hdfs_layers(&rt.hdfs, &mut layers);
        if mode == Mode::SimTraced {
            tracer_layers(&rt.engine, &mut layers);
        }
        Outcome {
            wall_s,
            sim_makespan_s,
            digest,
            attempted: 3,
            failed: failures.len().min(3) as u64,
            failures,
            layers,
        }
    }
}
