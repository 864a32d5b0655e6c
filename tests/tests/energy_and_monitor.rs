//! Energy accounting + monitoring across a platform scenario: consolidate
//! a cluster by live migration and read the power bill.

use simcore::prelude::*;
use vcluster::energy::{IDLE_W, PEAK_W};
use vcluster::prelude::*;
use vhadoop::platform::{PlatformConfig, VHadoop};

#[test]
fn consolidation_frees_a_host() {
    // VMs start spread over both hosts; migrate host 0's VMs to host 1
    // through the migration manager, then check the energy verdict.
    use simcore::owners;
    use vcluster::migration::{ConstantDirtyModel, MigrationEvent, MigrationManager};

    let mut e = Engine::new();
    let spec = ClusterSpec::builder()
        .hosts(2)
        .vms(6)
        .vm_mem_mib(256)
        .placement(Placement::Custom(vec![0, 0, 0, 1, 1, 1]))
        .build();
    let mut cluster = VirtualCluster::new(&mut e, spec);
    let meter = EnergyMeter::start(&e, &cluster);
    let movers: Vec<VmId> = cluster.vms().filter(|&v| cluster.host_of(v) == HostId(0)).collect();
    assert_eq!(movers.len(), 3);

    let mut mgr = MigrationManager::new(1);
    let mut dirty = ConstantDirtyModel(0.5e6);
    mgr.start_cluster_migration(&mut e, &cluster, &movers, HostId(1));
    let mut done = false;
    while let Some((_, w)) = e.next_wakeup() {
        if w.tag().owner == owners::MIGRATION {
            for ev in mgr.on_wakeup(&mut e, &mut cluster, &mut dirty, &w) {
                if matches!(ev, MigrationEvent::AllDone(_)) {
                    done = true;
                }
            }
        }
    }
    assert!(done, "partial-cluster migration completed");
    assert!(cluster.vms().all(|v| cluster.host_of(v) == HostId(1)), "host 0 emptied");

    let energy = meter.report(&e, &cluster);
    // Host 0 is now idle; its remaining draw is recoverable by shutdown.
    assert!(energy.consolidation_savings_j(energy.host_j(HostId(1))) > 0.0);
}

#[test]
fn migration_energy_is_accounted() {
    let cluster = ClusterSpec::builder()
        .hosts(2)
        .vms(4)
        .vm_mem_mib(256)
        .placement(Placement::SingleDomain)
        .build();
    let mut p = VHadoop::launch(PlatformConfig::builder().cluster(cluster).build());
    let meter = EnergyMeter::start(&p.rt.engine, &p.rt.cluster);
    let rep = p.migration(HostId(1)).idle();
    let energy = meter.report(&p.rt.engine, &p.rt.cluster);

    // The window spans the migration.
    assert!((energy.span_s - rep.total_time.as_secs_f64()).abs() < 1.0);
    // Migration traffic rides the NICs and switch only, and the guests are
    // idle: no host CPU burns, so dynamic energy is zero.
    let dynamic: f64 = energy.per_host.iter().map(|(_, _, d)| d).sum();
    assert_eq!(dynamic, 0.0, "an idle migration burns no host CPU");
    // Both hosts draw exactly their idle power, the floor of the envelope.
    let avg_w = energy.total_j() / energy.span_s;
    assert!(
        (avg_w - 2.0 * IDLE_W).abs() < 1e-9 && (2.0 * IDLE_W..=2.0 * PEAK_W).contains(&avg_w),
        "2 idle hosts draw 2×idle, got {avg_w} W"
    );
    // After consolidation the source host is idle: most of its draw could
    // be recovered by powering it down.
    assert!(energy.consolidation_savings_j(f64::INFINITY) > 0.0);
}

#[test]
fn monitor_sees_migration_traffic() {
    let cluster = ClusterSpec::builder()
        .hosts(2)
        .vms(3)
        .vm_mem_mib(512)
        .placement(Placement::SingleDomain)
        .build();
    let mut p = VHadoop::launch(
        PlatformConfig::builder()
            .cluster(cluster)
            .monitor_interval(SimDuration::from_millis(500))
            .build(),
    );
    p.migration(HostId(1)).idle();
    let report = p.monitor_report().expect("monitoring enabled");
    assert!(report.samples > 5);
    // The inter-host NICs carried the memory streams.
    let nic = report.resource("pm0.nic").expect("column exists");
    assert!(nic.util.max > 0.9, "migration saturates the source NIC, saw max {:.2}", nic.util.max);
}
