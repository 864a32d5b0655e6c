//! The migration session API's manual driving mode
//! (`migration(dst).start()` + `step()` + `poll()`) must be an exact
//! synonym of the one-shot `idle()` call: same report, and the report slot
//! is consumed exactly once.

mod common;

use vhadoop::prelude::*;

fn platform(seed: u64) -> VHadoop {
    VHadoop::launch(
        PlatformConfig::builder()
            .cluster(
                ClusterSpec::builder().hosts(2).vms(4).placement(Placement::SingleDomain).build(),
            )
            .seed(seed)
            .build(),
    )
}

fn drive(p: &mut VHadoop) -> ClusterMigrationReport {
    loop {
        if let Some(rep) = p.poll() {
            return rep;
        }
        p.step().expect("migration must finish before the simulation drains");
    }
}

#[test]
fn manual_start_step_poll_equals_idle_session() {
    let mut a = platform(3);
    a.migration(HostId(1)).start();
    assert!(a.migration_busy());
    let manual = drive(&mut a);

    let one_shot = platform(3).migration(HostId(1)).idle();
    assert_eq!(manual, one_shot);
    assert_eq!(manual.per_vm.len(), 4);
}

#[test]
fn poll_consumes_the_report_once() {
    let mut p = platform(4);
    p.migration(HostId(1)).start();
    while p.poll().is_none() {
        p.step().expect("migration must finish before the simulation drains");
    }
    assert!(p.poll().is_none(), "the report slot drains on first read");
}
