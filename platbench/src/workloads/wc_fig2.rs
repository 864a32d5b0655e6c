//! `wc_fig2` — the paper's Fig. 2 wordcount through the paper's whole flow:
//! launch, register input, run the job, monitor report, tuner advice.
//!
//! Chosen because it is all record payload: text lines, `String` keys, the
//! hash partitioner and a shuffle of every `(word, 1)` pair (no combiner).
//! Host time is `mapreduce` partition/group/sort plus text generation and
//! the user map; the event kernel sees about a hundred wakeups.

use super::{counter_layers, drive, hdfs_layers, kernel_layers, snapshot_costs, tracer_layers};
use super::{Layers, Mode, Outcome, Workload, PLATFORM_SEED};
use crate::probe;
use crate::span;
use crate::stats::Digest;
use std::time::Instant;
use vhadoop::prelude::*;
use vhadoop::workloads::textgen::TextCorpus;
use vhadoop::workloads::wordcount::WordCountApp;

const INPUT: &str = "/wordcount/in";

pub struct WcFig2 {
    /// First split index of this seed's document within the corpus.
    first_split: usize,
    input_bytes: u64,
    corpus: TextCorpus,
    gen_s: f64,
}

impl WcFig2 {
    pub fn prepare(seed: RootSeed, quick: bool) -> Self {
        let t = Instant::now();
        // The language (vocabulary, word lengths, Zipf law) is the one the
        // Fig. 2 binary uses whatever the seed, because mean word length
        // sets the records per byte and so the work; the seed picks which
        // stretch of the corpus' endless text is the document.
        let corpus = TextCorpus::english_like(PLATFORM_SEED.derive("corpus"));
        let first_split = (seed.0 as usize).wrapping_mul(1 << 10);
        let input_bytes = if quick { 1 << 20 } else { 24 << 20 };
        WcFig2 { first_split, input_bytes, corpus, gen_s: t.elapsed().as_secs_f64() }
    }

    /// Fig. 2's block sizing: the maps spread over all 15 workers.
    fn block_size(&self) -> u64 {
        (self.input_bytes / 15).max(1 << 20)
    }

    fn job_config() -> JobConfig {
        JobConfig::default().with_combiner(false).with_reduces(4)
    }

    fn launch(&self, mode: Mode) -> VHadoop {
        let _g = span::enter("core.launch");
        VHadoop::launch(
            PlatformConfig::builder()
                .cluster(
                    ClusterSpec::builder()
                        .hosts(2)
                        .vms(16)
                        .placement(Placement::CrossDomain)
                        .build(),
                )
                .hdfs(HdfsConfig { block_size: self.block_size(), replication: 3 })
                .seed(PLATFORM_SEED.0)
                .tracing(mode == Mode::SimTraced)
                .build(),
        )
    }

    /// Registers the input and builds the job exactly as
    /// `workloads::wordcount` does.
    fn job(
        &self,
        p: &mut VHadoop,
        mode: Mode,
    ) -> (JobSpec, Box<dyn MapReduceApp>, Box<dyn InputFormat>) {
        span::within("vhdfs.register", || p.register_input(INPUT, self.input_bytes, VmId(1)));
        let blocks = p.rt.hdfs.stat(INPUT).expect("just registered").blocks.len();
        let (corpus, total, block) = (self.corpus.clone(), self.input_bytes, self.block_size());
        let (first, last) = (self.first_split, blocks - 1);
        let input = GeneratorInput::new(blocks, block, move |idx| {
            let bytes = if idx == last { total - last as u64 * block } else { block };
            corpus.split_records(first.wrapping_add(idx), bytes)
        });
        let spec =
            JobSpec::new("wordcount", INPUT, "/wordcount/out").with_config(Self::job_config());
        let (app, input): (Box<dyn MapReduceApp>, Box<dyn InputFormat>) =
            (Box::new(WordCountApp), Box::new(input));
        // Plain passes run exactly what the library would.
        let (app, input) = if mode == Mode::Probed {
            probe::wrap(probe::WORKLOADS, app, input)
        } else {
            (app, input)
        };
        (spec, app, input)
    }
}

impl Workload for WcFig2 {
    fn gen_s(&self) -> f64 {
        self.gen_s
    }

    fn pass(&self, mode: Mode) -> Outcome {
        let t = Instant::now();
        let root = span::enter("platbench.pass");
        let mut p = self.launch(mode);
        let (spec, app, input) = self.job(&mut p, mode);
        let res = span::within("core.run_job", || p.run_job(spec, app, input));
        let report = span::within("vmonitor.report", || p.monitor_report());
        let advice = span::within("tuner.advise", || p.advise(&res, &Self::job_config()));
        let obs = span::within("core.observe", || p.observe());
        drop(root);
        let wall_s = t.elapsed().as_secs_f64();

        let mut failures = Vec::new();
        let counted: i64 = res.outputs.iter().map(|(_, v)| v.as_int()).sum();
        if counted as u64 != res.counters.map_output_records {
            failures.push(format!(
                "word counts sum to {counted}, maps emitted {}",
                res.counters.map_output_records
            ));
        }
        let samples = p.monitor().map_or(0, |m| m.samples().len());
        if report.is_none() || samples == 0 {
            failures.push("monitor attached but sampled nothing".into());
        }
        let mut digest = Digest::default();
        digest.records(&res.outputs);
        digest.word(samples as u64);
        digest.word(advice.actions.len() as u64);

        let mut layers = Layers::new();
        kernel_layers(&obs.kernel, &mut layers);
        counter_layers([&res.counters], &mut layers);
        hdfs_layers(&p.rt.hdfs, &mut layers);
        layers.insert("vmonitor.samples", samples as f64);
        if mode == Mode::SimTraced {
            tracer_layers(&p.rt.engine, &mut layers);
        }
        Outcome {
            wall_s,
            sim_makespan_s: res.elapsed_secs(),
            digest,
            attempted: 1,
            failed: failures.len() as u64,
            failures,
            layers,
        }
    }

    /// Snapshots mid-map-phase (half the maps done); the restored platform
    /// and the snapshotted parent must both finish the job as a plain pass.
    fn snapshot_study(&self, expected: &Outcome) -> Option<(Layers, Vec<String>)> {
        let mut p = self.launch(Mode::Plain);
        let (spec, app, input) = self.job(&mut p, Mode::Plain);
        let maps = input.split_count();
        p.rt.submit(spec, app, input);
        let mut maps_done = 0;
        while maps_done < maps / 2 {
            let (_, events) = p.step().expect("job in flight");
            maps_done += events
                .iter()
                .filter(|e| matches!(e, PlatformEvent::Job(JobEvent::MapDone(..))))
                .count();
        }
        let mut layers = Layers::new();
        let mut restored = snapshot_costs(&mut p, &mut layers);
        let mut failures = Vec::new();
        for (who, platform) in [("parent", &mut p), ("restored", &mut restored)] {
            // The periodic monitor re-arms for ever, so stop at the job.
            let done = drive(platform, |_, done| !done.is_empty());
            let sim = done.first().map(JobResult::elapsed_secs);
            if sim.map(f64::to_bits) != Some(expected.sim_makespan_s.to_bits()) {
                failures.push(format!(
                    "{who} finished at {sim:?} after the snapshot, plain pass at {}",
                    expected.sim_makespan_s
                ));
            }
        }
        Some((layers, failures))
    }
}
