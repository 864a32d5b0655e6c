//! A MapReduce Tuner session: run a badly configured Wordcount, let the
//! tuner read the nmon data and the job counters, apply its advice, and
//! re-run — the paper's flow step 9 in action.
//!
//! ```sh
//! cargo run -p vhadoop-examples --bin tuning_session
//! ```

use vhadoop::prelude::*;
use workloads::textgen::TextCorpus;
use workloads::wordcount::text_input;

fn run_once(config: JobConfig, label: &str) -> (JobResult, JobConfig, VHadoop) {
    let mut platform = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(
                ClusterSpec::builder().hosts(2).vms(8).placement(Placement::CrossDomain).build(),
            )
            .build(),
    );
    let input_bytes: u64 = 48 << 20;
    platform.register_input("/corpus", input_bytes, VmId(1));
    let corpus = TextCorpus::english_like(RootSeed(11));
    let input = text_input(&platform.rt.hdfs, "/corpus", corpus);
    let spec = JobSpec::new("wordcount", "/corpus", "/out").with_config(config.clone());
    let result =
        platform.run_job(spec, Box::new(workloads::wordcount::WordCountApp), Box::new(input));
    println!(
        "{label}: {:.1}s elapsed, {:.1} MB shuffled, {:.0}% data-local maps",
        result.elapsed_secs(),
        result.counters.shuffle_bytes as f64 / 1e6,
        result.counters.data_locality() * 100.0
    );
    (result, config, platform)
}

fn main() {
    // Misconfigured: no combiner.
    let bad = JobConfig::default().with_combiner(false).with_reduces(4);
    let (result, mut config, platform) = run_once(bad, "untuned run ");

    let advice = platform.advise(&result, &config);
    println!("\nMapReduce Tuner says:\n{}", advice.to_text());

    let changes = tuner::apply_to_job_config(&advice, &mut config);
    if changes.is_empty() {
        println!("tuner had nothing to apply; done");
        return;
    }
    for c in &changes {
        println!("applied: {c}");
    }

    let (tuned, _, _) = run_once(config, "tuned run   ");
    let speedup = result.elapsed_secs() / tuned.elapsed_secs();
    println!("\nspeedup from tuning: {speedup:.2}x");
}
