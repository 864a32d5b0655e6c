//! Quickstart: boot a 16-node hadoop virtual cluster, upload text, run
//! Wordcount, and read the nmon monitor's verdict.
//!
//! ```sh
//! cargo run -p vhadoop-examples --bin quickstart
//! ```

use vhadoop::prelude::*;
use workloads::textgen::TextCorpus;
use workloads::wordcount::text_input;

fn main() {
    // 1.–3. Launch the platform: 2 physical machines, 16 VMs (1 namenode +
    // 15 datanodes), Xen-style virtualization, images on NFS. Tracing on:
    // every task attempt, shuffle flow, and HDFS write leaves a span.
    let mut platform = VHadoop::launch(
        PlatformConfig::builder().cluster(ClusterSpec::paper_normal()).tracing(true).build(),
    );
    println!("platform up: {} VMs on {} hosts", 16, 2);

    // 4. Upload 32 MB of text to HDFS (simulated replication pipeline).
    let input_bytes: u64 = 32 << 20;
    let upload = platform.upload_input("/books", input_bytes, VmId(1));
    println!("uploaded {} MB in {upload} of simulated time", input_bytes >> 20);

    // 5.–8. Run Wordcount. The map/reduce code executes for real; elapsed
    // time comes from the contention model.
    let input = text_input(&platform.rt.hdfs, "/books", TextCorpus::english_like(RootSeed(7)));
    let config = JobConfig::default().with_reduces(4);
    let spec = JobSpec::new("wordcount", "/books", "/counts").with_config(config);
    let result =
        platform.run_job(spec, Box::new(workloads::wordcount::WordCountApp), Box::new(input));

    println!(
        "wordcount finished in {:.1}s (map {:.1}s, reduce {:.1}s)",
        result.elapsed_secs(),
        result.map_phase.as_secs_f64(),
        result.reduce_phase.as_secs_f64()
    );
    println!(
        "  {} input records, {} distinct words, {:.0}% data-local maps",
        result.counters.map_input_records,
        result.counters.reduce_input_groups,
        result.counters.data_locality() * 100.0
    );

    // Top-5 words.
    let mut top: Vec<_> = result.outputs.iter().collect();
    top.sort_by_key(|(_, v)| std::cmp::Reverse(v.as_int()));
    println!("  top words:");
    for (k, v) in top.iter().take(5) {
        println!("    {:>8}  {}", v.as_int(), k.as_text());
    }

    // 9. What does the monitor say?
    if let Some(report) = platform.monitor_report() {
        println!("\nnmon monitor ({} samples):", report.samples);
        print!("{}", report.to_table());
        if let Some(b) = report.bottleneck() {
            println!("bottleneck: {} (mean {:.0}% utilized)", b.name, b.util.mean * 100.0);
        }
    }

    // 10. Distill the trace: per-category span statistics, then the raw
    // Chrome trace for chrome://tracing or https://ui.perfetto.dev.
    println!("\ntrace metrics:\n{}", platform.metrics().to_text());
    let trace = platform.rt.engine.tracer().to_chrome_json();
    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/quickstart.trace.json", &trace))
    {
        eprintln!("could not write trace: {e}");
    } else {
        println!("wrote results/quickstart.trace.json ({} bytes)", trace.len());
    }
}
