//! Live migration of a whole hadoop virtual cluster — the paper's dynamic
//! experiment (Fig. 5 / Table II) as an interactive scenario: migrate an
//! idle 16-VM cluster, then migrate it again while Wordcount is running,
//! and compare.
//!
//! ```sh
//! cargo run -p vhadoop-examples --bin datacenter_migration
//! ```

use vhadoop::prelude::*;

fn report(label: &str, rep: &ClusterMigrationReport) {
    println!(
        "{label}: total {:.1}s, downtime total {:.0}ms / max {:.0}ms",
        rep.total_time.as_secs_f64(),
        rep.total_downtime.as_millis_f64(),
        rep.max_downtime.as_millis_f64()
    );
    for vm in &rep.per_vm {
        println!(
            "  vm{:<3} {:>6.1}s migration, {:>7.1}ms downtime, {} rounds, {:?}",
            vm.vm,
            vm.migration_time.as_secs_f64(),
            vm.downtime.as_millis_f64(),
            vm.rounds,
            vm.stop_reason
        );
    }
}

fn main() {
    let cluster = ClusterSpec::builder()
        .hosts(2)
        .vms(8)
        .vm_mem_mib(512)
        .placement(Placement::SingleDomain)
        .build();

    // --- idle migration --------------------------------------------------
    let mut idle = VHadoop::launch(PlatformConfig::builder().cluster(cluster.clone()).build());
    let idle_rep = idle.migration(HostId(1)).idle();
    report("idle cluster", &idle_rep);

    // --- migration under load ---------------------------------------------
    // Back-to-back wordcount-profile jobs keep every task slot busy for
    // the whole migration window, as in the paper's methodology (the
    // synthetic load carries wordcount's CPU/IO profile without the
    // wall-clock cost of tokenizing gigabytes of text).
    let mut busy = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(cluster)
            .hdfs(HdfsConfig { block_size: 4 << 20, replication: 3 })
            .build(),
    );
    let mut run = 0u32;
    let (busy_rep, jobs) = busy.migration(HostId(1)).under_load(|rt| {
        let maps = rt.cluster.vm_count() - 1;
        workloads::loadgen::submit_load_job(rt, run, maps, 2.0, 6 << 20);
        run += 1;
        true
    });
    println!();
    report("cluster under wordcount-profile load", &busy_rep);
    println!(
        "\n{} jobs survived the migration (first finished in {:.1}s)",
        jobs.len(),
        jobs.first().map_or(0.0, |j| j.elapsed_secs())
    );

    let t_ratio = busy_rep.total_time.as_secs_f64() / idle_rep.total_time.as_secs_f64();
    let d_ratio =
        busy_rep.total_downtime.as_millis_f64() / idle_rep.total_downtime.as_millis_f64().max(1.0);
    println!(
        "\nsummary: busy/idle migration time ratio {t_ratio:.1}x, downtime ratio {d_ratio:.1}x \
         (paper: ~3x and ~13x)"
    );
}
