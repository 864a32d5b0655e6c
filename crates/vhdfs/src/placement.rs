//! Replica placement and replica selection policies.
//!
//! Hadoop's default placement over the cluster topology: first replica on
//! the writer (if it is a datanode), second in a different *failure
//! domain*, third co-located with the second. Reads pick the *closest*
//! replica by topology distance: same VM ≻ same host ≻ same rack ≻
//! off-rack.
//!
//! The failure domain is the rack when the topology has more than one,
//! and the physical host on the paper's flat single-rack testbed (where
//! the host *is* the only failure boundary). On a single rack every
//! candidate pool below is exactly what the pre-topology policy built, so
//! the RNG draw sequence — and therefore every golden trace — is
//! unchanged.

use rand::seq::SliceRandom;
use rand::Rng;
use vcluster::cluster::{VirtualCluster, VmId};
use vcluster::topology::LocalityTier;

/// Hadoop-style tree distance between two VMs (0 same node, 2 same host,
/// 4 same rack, 6 off-rack).
pub fn distance(cluster: &VirtualCluster, a: VmId, b: VmId) -> u32 {
    cluster.distance(a, b)
}

/// The failure-domain index of `vm`: its rack on a multi-rack fabric,
/// its host on the flat single-rack one.
fn domain_of(cluster: &VirtualCluster, vm: VmId) -> u32 {
    if cluster.rack_count() > 1 {
        cluster.rack_of(vm).0
    } else {
        cluster.host_of(vm).0
    }
}

/// Chooses `replication` replica locations for a block written by `writer`.
///
/// Guarantees: locations are distinct; the first is `writer` when `writer`
/// is a datanode; the second lands in a different failure domain (rack,
/// or host on one rack) than the first when the cluster spans domains;
/// the third shares the second's domain. Never returns more replicas than
/// datanodes.
pub fn choose_replicas(
    cluster: &VirtualCluster,
    datanodes: &[VmId],
    writer: VmId,
    replication: u32,
    rng: &mut impl Rng,
) -> Vec<VmId> {
    assert!(!datanodes.is_empty(), "no datanodes to place replicas on");
    let want = (replication.max(1) as usize).min(datanodes.len());
    let mut chosen: Vec<VmId> = Vec::with_capacity(want);

    // First replica: the writer itself, when it stores data.
    if datanodes.contains(&writer) {
        chosen.push(writer);
    } else {
        chosen.push(*datanodes.choose(rng).expect("non-empty"));
    }

    // Second replica: off-domain (off-rack, or off-host on one rack) from
    // the first, if possible.
    if chosen.len() < want {
        let first_domain = domain_of(cluster, chosen[0]);
        let off_domain: Vec<VmId> = datanodes
            .iter()
            .copied()
            .filter(|v| !chosen.contains(v) && domain_of(cluster, *v) != first_domain)
            .collect();
        let pool: Vec<VmId> = if off_domain.is_empty() {
            datanodes.iter().copied().filter(|v| !chosen.contains(v)).collect()
        } else {
            off_domain
        };
        if let Some(&v) = pool.choose(rng) {
            chosen.push(v);
        }
    }

    // Third replica: same domain as the second, different node.
    if chosen.len() < want {
        let second_domain = domain_of(cluster, chosen[1]);
        let same_domain: Vec<VmId> = datanodes
            .iter()
            .copied()
            .filter(|v| !chosen.contains(v) && domain_of(cluster, *v) == second_domain)
            .collect();
        let pool: Vec<VmId> = if same_domain.is_empty() {
            datanodes.iter().copied().filter(|v| !chosen.contains(v)).collect()
        } else {
            same_domain
        };
        if let Some(&v) = pool.choose(rng) {
            chosen.push(v);
        }
    }

    // Any further replicas: uniform over the remainder.
    while chosen.len() < want {
        let pool: Vec<VmId> = datanodes.iter().copied().filter(|v| !chosen.contains(v)).collect();
        match pool.choose(rng) {
            Some(&v) => chosen.push(v),
            None => break,
        }
    }
    chosen
}

/// Picks the replica a reader on `reader` should fetch from: the closest
/// by topology distance, ties broken uniformly at random — itself if it
/// holds one, else a same-host replica, else a same-rack replica, else
/// any. (On one rack "same rack" covers every replica, so the final two
/// tiers collapse into the legacy uniform fallback with an identical
/// draw.)
pub fn closest_replica(
    cluster: &VirtualCluster,
    replicas: &[VmId],
    reader: VmId,
    rng: &mut impl Rng,
) -> VmId {
    assert!(!replicas.is_empty(), "block has no replicas");
    if replicas.contains(&reader) {
        return reader;
    }
    for tier in [LocalityTier::Host, LocalityTier::Rack] {
        let pool: Vec<VmId> =
            replicas.iter().copied().filter(|v| cluster.tier(reader, *v) == tier).collect();
        if let Some(&v) = pool.choose(rng) {
            return v;
        }
    }
    *replicas.choose(rng).expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::prelude::*;
    use vcluster::prelude::*;

    fn cross_cluster(vms: u32) -> (Engine, VirtualCluster) {
        let mut e = Engine::new();
        let spec =
            ClusterSpec::builder().hosts(2).vms(vms).placement(Placement::CrossDomain).build();
        let c = VirtualCluster::new(&mut e, spec);
        (e, c)
    }

    /// 4 hosts over 2 racks (hosts 0,1 | 2,3), VMs round-robin: even VMs
    /// land in rack 0 on hosts 0/2... specifically vm v → host v%4.
    fn racked_cluster(vms: u32) -> (Engine, VirtualCluster) {
        let mut e = Engine::new();
        let spec = ClusterSpec::builder()
            .hosts(4)
            .vms(vms)
            .placement(Placement::CrossDomain)
            .racks(2)
            .build();
        let c = VirtualCluster::new(&mut e, spec);
        (e, c)
    }

    #[test]
    fn writer_gets_first_replica() {
        let (_, c) = cross_cluster(8);
        let dns: Vec<VmId> = (1..8).map(VmId).collect();
        let mut rng = RootSeed(1).stream("t");
        let reps = choose_replicas(&c, &dns, VmId(3), 3, &mut rng);
        assert_eq!(reps[0], VmId(3));
        assert_eq!(reps.len(), 3);
    }

    #[test]
    fn second_replica_is_off_host() {
        let (_, c) = cross_cluster(8);
        let dns: Vec<VmId> = (1..8).map(VmId).collect();
        let mut rng = RootSeed(2).stream("t");
        for _ in 0..20 {
            let reps = choose_replicas(&c, &dns, VmId(2), 3, &mut rng);
            assert_ne!(
                c.host_of(reps[0]),
                c.host_of(reps[1]),
                "second replica must be on a different host"
            );
        }
    }

    #[test]
    fn replicas_are_distinct_and_bounded() {
        let (_, c) = cross_cluster(4);
        let dns: Vec<VmId> = (1..4).map(VmId).collect();
        let mut rng = RootSeed(3).stream("t");
        // Ask for more replicas than datanodes: capped at 3.
        let reps = choose_replicas(&c, &dns, VmId(1), 10, &mut rng);
        assert_eq!(reps.len(), 3);
        let mut dedup = reps.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), reps.len(), "replicas must be distinct");
    }

    #[test]
    fn non_datanode_writer_places_randomly() {
        let (_, c) = cross_cluster(8);
        let dns: Vec<VmId> = (1..8).map(VmId).collect();
        let mut rng = RootSeed(4).stream("t");
        let reps = choose_replicas(&c, &dns, VmId(0), 3, &mut rng);
        assert!(dns.contains(&reps[0]), "first replica must be a datanode");
    }

    #[test]
    fn closest_replica_prefers_local_then_host() {
        let (_, c) = cross_cluster(8);
        let mut rng = RootSeed(5).stream("t");
        // Reader holds a replica.
        assert_eq!(closest_replica(&c, &[VmId(1), VmId(2)], VmId(2), &mut rng), VmId(2));
        // Same-host replica: vm0 and vm2 are both on host 0 (round-robin).
        let picked = closest_replica(&c, &[VmId(2), VmId(3)], VmId(0), &mut rng);
        assert_eq!(picked, VmId(2), "same-host replica preferred");
    }

    #[test]
    fn second_replica_is_off_rack_on_multi_rack() {
        let (_, c) = racked_cluster(12);
        let dns: Vec<VmId> = (1..12).map(VmId).collect();
        let mut rng = RootSeed(6).stream("t");
        for _ in 0..20 {
            let reps = choose_replicas(&c, &dns, VmId(1), 3, &mut rng);
            assert_ne!(c.rack_of(reps[0]), c.rack_of(reps[1]), "second replica must be off-rack");
            assert_eq!(c.rack_of(reps[1]), c.rack_of(reps[2]), "third shares the second's rack");
            assert_ne!(reps[1], reps[2]);
        }
    }

    /// The satellite regression: `closest_replica` resolves ties with the
    /// topology distance, pinning the chosen replica per tier.
    #[test]
    fn closest_replica_pins_each_tier() {
        let (_, c) = racked_cluster(12);
        let mut rng = RootSeed(7).stream("t");
        // Reader vm1 is on host 1 (rack 0). vm5 and vm9 also live on
        // host 1; vm2 lives on host 2 (rack 1); vm4 on host 0 (rack 0).
        assert_eq!(c.host_of(VmId(5)), c.host_of(VmId(1)));
        assert_eq!(c.rack_of(VmId(4)), c.rack_of(VmId(1)));
        assert_ne!(c.host_of(VmId(4)), c.host_of(VmId(1)));
        assert_ne!(c.rack_of(VmId(2)), c.rack_of(VmId(1)));

        // Node beats host beats rack beats off-rack.
        assert_eq!(closest_replica(&c, &[VmId(2), VmId(1)], VmId(1), &mut rng), VmId(1));
        assert_eq!(closest_replica(&c, &[VmId(2), VmId(4), VmId(5)], VmId(1), &mut rng), VmId(5));
        for _ in 0..10 {
            // Same-rack replica always beats the off-rack one, whatever
            // the RNG draws.
            assert_eq!(closest_replica(&c, &[VmId(2), VmId(4)], VmId(1), &mut rng), VmId(4));
        }
        // Only off-rack replicas left: one of them is returned.
        let picked = closest_replica(&c, &[VmId(2), VmId(6)], VmId(1), &mut rng);
        assert!(picked == VmId(2) || picked == VmId(6));
    }

    #[test]
    fn distance_matches_tiers() {
        let (_, c) = racked_cluster(12);
        assert_eq!(distance(&c, VmId(1), VmId(1)), 0);
        assert_eq!(distance(&c, VmId(1), VmId(5)), 2);
        assert_eq!(distance(&c, VmId(1), VmId(4)), 4);
        assert_eq!(distance(&c, VmId(1), VmId(2)), 6);
        assert_eq!(c.tier(VmId(1), VmId(4)), LocalityTier::Rack);
    }
}
