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

/// The failure-domain index of `vm`: its rack on a multi-rack fabric,
/// its host on the flat single-rack one.
fn domain_of(cluster: &VirtualCluster, vm: VmId) -> u32 {
    if cluster.rack_count() > 1 {
        cluster.rack_of(vm).0
    } else {
        cluster.host_of(vm).0
    }
}

/// The datanodes by failure domain, built once for all the blocks one
/// writer puts in one file: a pool's `i`-th member is found by skipping
/// the few positions it leaves out, so each block's draws are those of a
/// pass that lists every pool in datanode order, without that pass.
#[derive(Debug)]
pub struct ReplicaIndex<'a> {
    datanodes: &'a [VmId],
    /// Each datanode's failure domain, by position in `datanodes`.
    domains: Vec<u32>,
    /// Per failure domain, the positions of its datanodes, ascending.
    members: Vec<Vec<usize>>,
    /// The writer's position in `datanodes`, when it stores data.
    writer: Option<usize>,
}

impl<'a> ReplicaIndex<'a> {
    /// Indexes `datanodes`, which must not be empty, for `writer`'s blocks.
    pub fn new(cluster: &VirtualCluster, datanodes: &'a [VmId], writer: VmId) -> Self {
        assert!(!datanodes.is_empty(), "no datanodes to place replicas on");
        let domains: Vec<u32> = datanodes.iter().map(|&vm| domain_of(cluster, vm)).collect();
        let mut members = vec![Vec::new(); domains.iter().max().map_or(0, |&d| d as usize + 1)];
        for (at, &d) in domains.iter().enumerate() {
            members[d as usize].push(at);
        }
        let writer = datanodes.iter().position(|&vm| vm == writer);
        ReplicaIndex { datanodes, domains, members, writer }
    }

    /// Chooses `replication` replica locations for one block.
    ///
    /// Guarantees: locations are distinct; the first is the writer when it
    /// is a datanode; the second lands in a different failure domain
    /// (rack, or host on one rack) than the first when the datanodes span
    /// domains; the third shares the second's domain. Never returns more
    /// replicas than datanodes.
    pub fn choose<R: Rng>(&self, replication: u32, rng: &mut R) -> Vec<VmId> {
        let n = self.datanodes.len();
        let want = (replication.max(1) as usize).min(n);
        let home = |at: usize| &self.members[self.domains[at] as usize][..];
        // A uniform pick from `pool` (positions; all of them when `None`)
        // less `skip` (ascending ranks in it), none when none is left: the
        // drawn rank moves past each skipped one at or before it.
        let draw = |pool: Option<&[usize]>, skip: &[usize], rng: &mut R| {
            let free = pool.map_or(n, <[usize]>::len) - skip.len();
            (free > 0).then(|| {
                let i = skip.iter().fold(rng.gen_range(0..free), |i, &s| i + usize::from(s <= i));
                pool.map_or(i, |pool| pool[i])
            })
        };
        // Positions in `datanodes`: the writer when it stores data, then
        // one off its failure domain (rack, or host on one rack), then one
        // in the second's, then any; an empty pool falls back to any.
        let mut chosen = vec![self.writer.unwrap_or_else(|| rng.gen_range(0..n))];
        while chosen.len() < want {
            let preferred = match chosen[..] {
                [first] => draw(None, home(first), rng),
                [first, second] => {
                    // The chosen among the second's domain, by rank there.
                    let mut ranks = [first, second]
                        .map(|at| home(second).binary_search(&at).unwrap_or(usize::MAX));
                    ranks.sort_unstable();
                    let taken = ranks.iter().take_while(|&&rank| rank != usize::MAX).count();
                    draw(Some(home(second)), &ranks[..taken], rng)
                }
                _ => None,
            };
            let next = preferred.or_else(|| {
                let mut taken = chosen.clone();
                taken.sort_unstable();
                draw(None, &taken, rng)
            });
            chosen.push(next.expect("fewer replicas than datanodes"));
        }
        chosen.into_iter().map(|at| self.datanodes[at]).collect()
    }
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

    /// The placement as a pass over the datanodes makes it: each pool
    /// listed in datanode order, one uniform pick from it. The oracle the
    /// index must match draw for draw.
    fn scan_replicas(
        cluster: &VirtualCluster,
        datanodes: &[VmId],
        writer: VmId,
        replication: u32,
        rng: &mut impl Rng,
    ) -> Vec<VmId> {
        let want = (replication.max(1) as usize).min(datanodes.len());
        let mut chosen: Vec<VmId> = Vec::with_capacity(want);
        if datanodes.contains(&writer) {
            chosen.push(writer);
        } else {
            chosen.push(*datanodes.choose(rng).expect("non-empty"));
        }
        let rest = |chosen: &[VmId]| -> Vec<VmId> {
            datanodes.iter().copied().filter(|v| !chosen.contains(v)).collect()
        };
        let pick = |pool: Vec<VmId>, chosen: &[VmId], rng: &mut _| {
            let pool = if pool.is_empty() { rest(chosen) } else { pool };
            *pool.choose(rng).expect("a datanode is left")
        };
        if chosen.len() < want {
            let first = domain_of(cluster, chosen[0]);
            let pool = rest(&chosen).into_iter().filter(|v| domain_of(cluster, *v) != first);
            let second = pick(pool.collect(), &chosen, rng);
            chosen.push(second);
        }
        if chosen.len() < want {
            let second = domain_of(cluster, chosen[1]);
            let pool = rest(&chosen).into_iter().filter(|v| domain_of(cluster, *v) == second);
            let third = pick(pool.collect(), &chosen, rng);
            chosen.push(third);
        }
        while chosen.len() < want {
            let next = *rest(&chosen).choose(rng).expect("a datanode is left");
            chosen.push(next);
        }
        chosen
    }

    /// The index places every block as the scan does and leaves the RNG
    /// where the scan leaves it: 1–8 racks of 1–3 hosts, or every VM on
    /// one host; datanode subsets in any order; writers on and off the
    /// datanode list; replication 1–5; several blocks per index.
    #[test]
    fn the_index_draws_what_the_scan_draws() {
        let mut g = RootSeed(11).stream("cases");
        let mut cases = 0;
        for _ in 0..300 {
            let racks = g.gen_range(1..=8u32);
            let hosts = racks * g.gen_range(1..=3u32);
            let vms = hosts * g.gen_range(1..=4u32) + g.gen_range(0..hosts);
            let placement = if racks == 1 && g.gen_bool(0.3) {
                Placement::SingleDomain
            } else {
                Placement::CrossDomain
            };
            let spec = ClusterSpec::builder()
                .hosts(hosts)
                .vms(vms)
                .placement(placement)
                .racks(racks)
                .build();
            let mut e = Engine::new();
            let c = VirtualCluster::new(&mut e, spec);
            let mut datanodes: Vec<VmId> = (0..vms).map(VmId).filter(|_| g.gen_bool(0.8)).collect();
            if datanodes.is_empty() {
                datanodes.push(VmId(0));
            }
            if g.gen_bool(0.3) {
                datanodes.shuffle(&mut g);
            }
            let writer = VmId(g.gen_range(0..vms));
            let replication = g.gen_range(1..=5u32);
            let seed = g.gen_range(0..u64::MAX);
            let (mut ours, mut theirs) = (RootSeed(seed).stream("p"), RootSeed(seed).stream("p"));
            let index = ReplicaIndex::new(&c, &datanodes, writer);
            for _ in 0..4 {
                let want = scan_replicas(&c, &datanodes, writer, replication, &mut theirs);
                assert_eq!(
                    index.choose(replication, &mut ours),
                    want,
                    "{datanodes:?} from {writer}"
                );
                cases += 1;
            }
            assert_eq!(ours.gen::<u64>(), theirs.gen::<u64>(), "the RNG streams parted");
        }
        assert!(cases > 1_000);
    }

    #[test]
    fn writer_gets_first_replica() {
        let (_, c) = cross_cluster(8);
        let dns: Vec<VmId> = (1..8).map(VmId).collect();
        let mut rng = RootSeed(1).stream("t");
        let reps = ReplicaIndex::new(&c, &dns, VmId(3)).choose(3, &mut rng);
        assert_eq!(reps[0], VmId(3));
        assert_eq!(reps.len(), 3);
    }

    #[test]
    fn second_replica_is_off_host() {
        let (_, c) = cross_cluster(8);
        let dns: Vec<VmId> = (1..8).map(VmId).collect();
        let mut rng = RootSeed(2).stream("t");
        for _ in 0..20 {
            let reps = ReplicaIndex::new(&c, &dns, VmId(2)).choose(3, &mut rng);
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
        let reps = ReplicaIndex::new(&c, &dns, VmId(1)).choose(10, &mut rng);
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
        let reps = ReplicaIndex::new(&c, &dns, VmId(0)).choose(3, &mut rng);
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
            let reps = ReplicaIndex::new(&c, &dns, VmId(1)).choose(3, &mut rng);
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
        assert_eq!(c.tier(VmId(1), VmId(1)), LocalityTier::Node);
        assert_eq!(c.tier(VmId(1), VmId(5)), LocalityTier::Host);
        assert_eq!(c.tier(VmId(1), VmId(4)), LocalityTier::Rack);
        assert_eq!(c.tier(VmId(1), VmId(2)), LocalityTier::OffRack);
    }
}
