//! Live migration + monitoring across a platform scenario: consolidate a
//! cluster by live migration, and see what its traffic does and does not
//! touch.

use simcore::prelude::*;
use vcluster::prelude::*;
use vhadoop::platform::{PlatformConfig, VHadoop};

#[test]
fn consolidation_frees_a_host() {
    // VMs start spread over both hosts; migrate host 0's VMs to host 1
    // through the migration manager.
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
}

/// Migration traffic rides the NICs and the switch only, and the guests
/// are idle: no host CPU serves any work while the cluster moves.
#[test]
fn an_idle_migration_burns_no_host_cpu() {
    let cluster = ClusterSpec::builder()
        .hosts(2)
        .vms(4)
        .vm_mem_mib(256)
        .placement(Placement::SingleDomain)
        .build();
    let mut p = VHadoop::launch(PlatformConfig::builder().cluster(cluster).build());
    let served = |p: &VHadoop| -> Vec<u64> {
        (0..p.rt.cluster.host_count())
            .map(|h| {
                let cpu = p.rt.cluster.host_cpu_resource(HostId(h));
                p.rt.engine.fluid().cumulative(cpu).to_bits()
            })
            .collect()
    };
    let before = served(&p);
    let rep = p.migration(HostId(1)).idle();
    assert!(rep.total_time > SimDuration::ZERO, "the migration took time");
    assert_eq!(served(&p), before, "an idle migration burns no host CPU");
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
