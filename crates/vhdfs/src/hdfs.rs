//! Timed HDFS operations over the virtual cluster.
//!
//! An [`Hdfs`] instance pairs the namenode tables ([`crate::meta::Namespace`])
//! with the simulated datapath: writes run the replication pipeline
//! (client → replica 1 → replica 2 → ...; every hop a network transfer,
//! every replica an NFS-backed disk write), reads fetch each block from the
//! closest replica. Completions are routed back to the caller through the
//! tag it supplies, so MapReduce tasks and DFSIO clients just see their own
//! wakeups.
//!
//! Note the virtualization twist faithfully kept from the paper: datanode
//! "local disks" live inside VM images **stored on the shared NFS server**,
//! so every HDFS disk access also crosses the network — this is why the
//! paper finds NFS disk I/O and the network to be the platform's two
//! bottlenecks.

use crate::meta::{BlockId, BlockMeta, FileMeta, Namespace};
use crate::placement::{closest_replica, ReplicaIndex};
use rand::rngs::StdRng;
use simcore::engine::FixedState;
use simcore::owners;
use simcore::prelude::*;
use std::collections::HashMap;
use vcluster::cluster::{VirtualCluster, VmId};

/// Namenode RPC round trip charged per block operation.
pub const RPC_DELAY: SimDuration = SimDuration::from_micros(500);

/// `dfs.*` configuration (the paper's Hadoop Module tunables).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HdfsConfig {
    /// `dfs.block.size` in bytes.
    pub block_size: u64,
    /// `dfs.replication`.
    pub replication: u32,
}

impl Default for HdfsConfig {
    fn default() -> Self {
        // Hadoop 0.20 defaults: 64 MB blocks, 3 replicas.
        HdfsConfig { block_size: 64 * 1024 * 1024, replication: 3 }
    }
}

/// Handle to an in-flight HDFS operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HdfsOpId(pub u32);

/// Completion of an HDFS operation, carrying the caller's tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HdfsCompletion {
    /// Which operation finished.
    pub op: HdfsOpId,
    /// Tag supplied by the caller at submission.
    pub client_tag: Tag,
    /// Bytes moved by the operation.
    pub bytes: u64,
    /// When the operation was submitted.
    pub submitted: SimTime,
}

/// What an HDFS operation does; its trace span is named after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Write,
    Read,
    Replicate,
}

impl OpKind {
    /// The operation's trace span name.
    fn name(self) -> &'static str {
        match self {
            OpKind::Write => "write",
            OpKind::Read => "read",
            OpKind::Replicate => "replicate",
        }
    }
}

#[derive(Debug)]
struct PendingOp {
    client_tag: Tag,
    bytes: u64,
    submitted: SimTime,
    kind: OpKind,
    /// VM the operation is attributed to (trace track).
    vm: VmId,
}

simcore::persist_enum!(OpKind { 0 => Write, 1 => Read, 2 => Replicate });
simcore::persist_struct!(PendingOp { client_tag, bytes, submitted, kind, vm });

/// The simulated distributed file system.
#[derive(Debug)]
pub struct Hdfs {
    cfg: HdfsConfig,
    namenode: VmId,
    datanodes: Vec<VmId>,
    ns: Namespace,
    ops: HashMap<u32, PendingOp, FixedState>,
    next_op: u32,
    rng: StdRng,
}

// The live datanode set, namenode tables, in-flight operations and the
// placement RNG cursor; the config and the namenode identity are
// launch-derived (restore targets a replica formatted the same way).
simcore::persist_state!(Hdfs { datanodes, ns, ops, next_op, rng });

impl Hdfs {
    /// Formats a file system on `cluster`: VM 0 is the namenode, every
    /// other VM a datanode (the paper's 1 namenode + 15 datanodes layout).
    pub fn format(cluster: &VirtualCluster, cfg: HdfsConfig, seed: RootSeed) -> Self {
        let namenode = VmId(0);
        let datanodes: Vec<VmId> = cluster.vms().filter(|v| *v != namenode).collect();
        Self::format_with(cluster, cfg, seed, &datanodes)
    }

    /// Formats a file system with an explicit datanode set — disaggregated
    /// data/compute layouts run datanode daemons on a subset of the VMs
    /// only (DESIGN.md §17).
    ///
    /// # Panics
    /// If `datanodes` is empty, contains VM 0 (the namenode), duplicates,
    /// or a VM the cluster does not have.
    pub fn format_with(
        cluster: &VirtualCluster,
        cfg: HdfsConfig,
        seed: RootSeed,
        datanodes: &[VmId],
    ) -> Self {
        let namenode = VmId(0);
        assert!(!datanodes.is_empty(), "cluster too small: no datanodes");
        let all: Vec<VmId> = cluster.vms().collect();
        for (i, &d) in datanodes.iter().enumerate() {
            assert_ne!(d, namenode, "the namenode cannot also be a datanode");
            assert!(all.contains(&d), "{d} is not a VM of this cluster");
            assert!(!datanodes[..i].contains(&d), "duplicate datanode {d}");
        }
        Hdfs {
            cfg,
            namenode,
            datanodes: datanodes.to_vec(),
            ns: Namespace::new(),
            ops: HashMap::default(),
            next_op: 0,
            rng: seed.stream("hdfs"),
        }
    }

    /// Active configuration.
    pub fn config(&self) -> HdfsConfig {
        self.cfg
    }

    /// The namenode VM.
    pub fn namenode(&self) -> VmId {
        self.namenode
    }

    /// Datanode VMs.
    pub fn datanodes(&self) -> &[VmId] {
        &self.datanodes
    }

    /// Namenode tables (read-only).
    pub fn namespace(&self) -> &Namespace {
        &self.ns
    }

    /// Replica locations per block of `path`, in file order — the
    /// JobTracker uses this for locality-aware task placement.
    pub fn block_locations(&self, path: &str) -> Option<Vec<(BlockId, u64, Vec<VmId>)>> {
        self.ns
            .file_blocks(path)?
            .into_iter()
            .map(|(id, meta)| Some((id, meta.len, meta.replicas.clone())))
            .collect()
    }

    /// Replica locations per block of every file under directory
    /// `prefix`, files in sorted path order, blocks in file order —
    /// lets a job consume a multi-part output directory (`part-r-*`)
    /// as one input. `None` if the directory is empty.
    pub fn dir_block_locations(&self, prefix: &str) -> Option<Vec<(BlockId, u64, Vec<VmId>)>> {
        let paths: Vec<String> =
            self.ns.files_under(prefix).into_iter().map(str::to_string).collect();
        if paths.is_empty() {
            return None;
        }
        let mut out = Vec::new();
        for p in paths {
            out.extend(self.block_locations(&p).expect("listed file exists"));
        }
        Some(out)
    }

    /// File metadata.
    pub fn stat(&self, path: &str) -> Option<&FileMeta> {
        self.ns.file(path)
    }

    // ----- checksum provenance (TPCx-HS, DESIGN.md §17) --------------------

    /// Records per-block content checksums for `path`, one per block in
    /// file order — data generators call this so validators can later
    /// prove the bytes that came out are the bytes that went in.
    ///
    /// # Panics
    /// If `path` does not exist or `sums.len()` differs from the file's
    /// block count.
    pub fn record_checksums(&mut self, path: &str, sums: &[u64]) {
        let blocks = self
            .ns
            .file(path)
            .unwrap_or_else(|| panic!("HDFS file not found: {path}"))
            .blocks
            .clone();
        assert_eq!(blocks.len(), sums.len(), "checksum count must match block count for {path}");
        for (b, &s) in blocks.iter().zip(sums) {
            self.ns.set_checksum(*b, s);
        }
    }

    /// Recorded checksums of `path`'s blocks in file order (`None` per
    /// block when never recorded); `None` if the path does not exist.
    pub fn block_checksums(&self, path: &str) -> Option<Vec<Option<u64>>> {
        let f = self.ns.file(path)?;
        Some(f.blocks.iter().map(|&b| self.ns.checksum(b)).collect())
    }

    /// Deterministically corrupts the recorded checksum of block
    /// `block_idx` of `path` (bit-flip), simulating namenode metadata
    /// corruption — conformance tests use this to prove the validator
    /// actually checks provenance.
    ///
    /// # Panics
    /// If the path, block index, or recorded checksum does not exist.
    pub fn corrupt_checksum(&mut self, path: &str, block_idx: usize) {
        let block =
            self.ns.file(path).unwrap_or_else(|| panic!("HDFS file not found: {path}")).blocks
                [block_idx];
        let old = self
            .ns
            .checksum(block)
            .unwrap_or_else(|| panic!("{path} block {block_idx} has no recorded checksum"));
        self.ns.set_checksum(block, old ^ 0x8000_0000_0000_0001);
    }

    /// Number of blocks in the namespace carrying a recorded checksum.
    pub fn checksummed_blocks(&self) -> usize {
        self.ns.checksum_count()
    }

    /// Block metadata.
    pub fn block(&self, id: BlockId) -> &BlockMeta {
        self.ns.block(id)
    }

    /// Deletes `path` (instant metadata operation).
    pub fn delete(&mut self, path: &str) -> bool {
        self.ns.delete_file(path)
    }

    /// Registers `path` without simulating the upload (pre-loaded input
    /// data sets). Replicas are placed as if `writer` had written it.
    pub fn register_file(
        &mut self,
        cluster: &VirtualCluster,
        path: &str,
        len: u64,
        writer: VmId,
    ) -> &FileMeta {
        let (cfg, rng) = (self.cfg, &mut self.rng);
        let index = ReplicaIndex::new(cluster, &self.datanodes, writer);
        self.ns.create_file(path, len, cfg.block_size, |_| index.choose(cfg.replication, rng))
    }

    /// Writes `len` bytes to a new file `path` from `writer`, simulating
    /// the full replication pipeline. Completion arrives as an
    /// `owners::HDFS` wakeup; route it through [`Hdfs::on_wakeup`] to
    /// recover `client_tag`.
    pub fn write_file(
        &mut self,
        engine: &mut Engine,
        cluster: &VirtualCluster,
        path: &str,
        len: u64,
        writer: VmId,
        client_tag: Tag,
    ) -> HdfsOpId {
        let (cfg, rng) = (self.cfg, &mut self.rng);
        let index = ReplicaIndex::new(cluster, &self.datanodes, writer);
        let meta =
            self.ns.create_file(path, len, cfg.block_size, |_| index.choose(cfg.replication, rng));
        let blocks = meta.blocks.clone();

        let mut chain = ChainSpec::new();
        for b in blocks {
            let bm = self.ns.block(b);
            chain = chain.delay(RPC_DELAY);
            let mut prev = writer;
            for &replica in &bm.replicas {
                chain = chain
                    .then(cluster.transfer(prev, replica, bm.len as f64))
                    .then(cluster.disk_write(replica, bm.len as f64));
                prev = replica;
            }
        }
        self.submit(engine, chain, len, client_tag, OpKind::Write, writer)
    }

    /// Reads all of `path` into `reader`, block by block from the closest
    /// replicas.
    ///
    /// # Panics
    /// If `path` does not exist.
    pub fn read_file(
        &mut self,
        engine: &mut Engine,
        cluster: &VirtualCluster,
        path: &str,
        reader: VmId,
        client_tag: Tag,
    ) -> HdfsOpId {
        let blocks = self
            .ns
            .file_blocks(path)
            .unwrap_or_else(|| panic!("HDFS file not found: {path}"))
            .into_iter()
            .map(|(id, m)| (id, m.len, m.replicas.clone()))
            .collect::<Vec<_>>();
        let mut chain = ChainSpec::new();
        let mut total = 0u64;
        for (_, len, replicas) in blocks {
            total += len;
            let src = closest_replica(cluster, &replicas, reader, &mut self.rng);
            chain = chain
                .delay(RPC_DELAY)
                .then(cluster.disk_read(src, len as f64))
                .then(cluster.transfer(src, reader, len as f64));
        }
        self.submit(engine, chain, total, client_tag, OpKind::Read, reader)
    }

    /// Reads a single block into `reader` (a MapReduce input split fetch).
    pub fn read_block(
        &mut self,
        engine: &mut Engine,
        cluster: &VirtualCluster,
        block: BlockId,
        reader: VmId,
        client_tag: Tag,
    ) -> HdfsOpId {
        let bm = self.ns.block(block);
        let (len, replicas) = (bm.len, bm.replicas.clone());
        let src = closest_replica(cluster, &replicas, reader, &mut self.rng);
        let chain = ChainSpec::new()
            .delay(RPC_DELAY)
            .then(cluster.disk_read(src, len as f64))
            .then(cluster.transfer(src, reader, len as f64));
        self.submit(engine, chain, len, client_tag, OpKind::Read, reader)
    }

    fn submit(
        &mut self,
        engine: &mut Engine,
        chain: ChainSpec,
        bytes: u64,
        client_tag: Tag,
        kind: OpKind,
        vm: VmId,
    ) -> HdfsOpId {
        let op = HdfsOpId(self.next_op);
        self.next_op = self.next_op.wrapping_add(1);
        self.ops.insert(op.0, PendingOp { client_tag, bytes, submitted: engine.now(), kind, vm });
        engine.start_chain(chain, Tag::new(owners::HDFS, op.0, 0));
        op
    }

    /// Routes an `owners::HDFS` wakeup to its operation; returns the
    /// completion (with the caller's tag) or `None` for foreign wakeups
    /// and for internal maintenance traffic (re-replication). Every
    /// completed operation — including internal ones — is recorded as an
    /// `hdfs` trace span when tracing is enabled.
    pub fn on_wakeup(&mut self, engine: &mut Engine, wakeup: &Wakeup) -> Option<HdfsCompletion> {
        let Wakeup::Activity { tag, .. } = wakeup else {
            return None;
        };
        if tag.owner != owners::HDFS {
            return None;
        }
        let pending = self.ops.remove(&tag.a).expect("completion for unknown HDFS op");
        engine.trace_span(
            "hdfs",
            pending.kind.name(),
            pending.vm.0,
            pending.submitted,
            &[("bytes", pending.bytes as f64)],
        );
        if pending.client_tag.owner == owners::HDFS {
            // Internal maintenance op (re-replication): nobody to notify.
            return None;
        }
        Some(HdfsCompletion {
            op: HdfsOpId(tag.a),
            client_tag: pending.client_tag,
            bytes: pending.bytes,
            submitted: pending.submitted,
        })
    }

    /// Fails a datanode: it stops serving, its replicas are dropped from
    /// the namenode tables, and for every under-replicated block a
    /// re-replication transfer (surviving replica → fresh datanode) is
    /// started — HDFS's self-healing path, the mechanism the paper credits
    /// for jobs surviving migration downtime. Returns the number of
    /// blocks that had to be re-replicated; blocks whose *only* replica
    /// lived on `vm` are lost (counted in `.1`).
    ///
    /// This also covers a datanode dying **mid-write-pipeline**: blocks
    /// are registered (with their full replica sets) at submission, so the
    /// dead node's pending replicas are dropped and re-replicated from the
    /// surviving pipeline members exactly like acknowledged ones — the
    /// model's stand-in for HDFS pipeline recovery (the in-flight transfer
    /// itself keeps flowing; only metadata and placement react).
    ///
    /// # Panics
    /// If `vm` is not a (live) datanode.
    pub fn fail_datanode(
        &mut self,
        engine: &mut Engine,
        cluster: &VirtualCluster,
        vm: VmId,
    ) -> (usize, usize) {
        let pos = self
            .datanodes
            .iter()
            .position(|&d| d == vm)
            .unwrap_or_else(|| panic!("{vm} is not a live datanode"));
        self.datanodes.remove(pos);
        assert!(!self.datanodes.is_empty(), "last datanode failed; file system lost");

        let affected = self.ns.drop_replicas_on(vm);
        let mut re_replicated = 0;
        let mut lost = 0;
        for (block, survivors) in affected {
            if survivors.is_empty() {
                lost += 1;
                continue;
            }
            // Pick a source and a fresh target. Prefer a target in a rack
            // the survivors don't already cover — re-replication restores
            // rack diversity, not just the replica count. On one rack the
            // preferred pool is always empty (every candidate shares the
            // survivors' rack, and an empty `choose` consumes no RNG
            // draw), so the legacy uniform pick — and its draw sequence —
            // is preserved.
            let src = closest_replica(cluster, &survivors, survivors[0], &mut self.rng);
            let candidates: Vec<VmId> =
                self.datanodes.iter().copied().filter(|d| !survivors.contains(d)).collect();
            let covered: Vec<vcluster::topology::RackId> =
                survivors.iter().map(|&v| cluster.rack_of(v)).collect();
            let fresh_rack: Vec<VmId> = candidates
                .iter()
                .copied()
                .filter(|&d| !covered.contains(&cluster.rack_of(d)))
                .collect();
            use rand::seq::SliceRandom;
            let picked = match fresh_rack.choose(&mut self.rng) {
                Some(&v) => Some(v),
                None => candidates.choose(&mut self.rng).copied(),
            };
            let Some(dst) = picked else {
                continue; // no node left to hold another replica
            };
            let len = self.ns.block(block).len;
            self.ns.add_replica(block, dst);
            let chain = ChainSpec::new()
                .delay(RPC_DELAY)
                .then(cluster.disk_read(src, len as f64))
                .then(cluster.transfer(src, dst, len as f64))
                .then(cluster.disk_write(dst, len as f64));
            // Internal op: client tag owned by HDFS itself.
            self.submit(engine, chain, len, Tag::owner(owners::HDFS), OpKind::Replicate, dst);
            re_replicated += 1;
        }
        (re_replicated, lost)
    }

    /// Re-admits a previously failed VM as an *empty* datanode: it holds
    /// no replicas until future writes or re-replications place some. A
    /// no-op if `vm` already serves.
    ///
    /// # Panics
    /// If `vm` is the namenode.
    pub fn rejoin_datanode(&mut self, vm: VmId) {
        assert_ne!(vm, self.namenode, "the namenode cannot rejoin as a datanode");
        if !self.datanodes.contains(&vm) {
            self.datanodes.push(vm);
        }
    }

    /// Blocks whose live replica count fell below `dfs.replication` — the
    /// self-healing backlog after failures (0 once re-replication caught
    /// up or no spare datanode exists).
    pub fn under_replicated_blocks(&self) -> usize {
        let want = self.cfg.replication as usize;
        self.ns.blocks().iter().filter(|(_, bm)| bm.replicas.len() < want).count()
    }

    /// Blocks with zero live replicas — acknowledged data irrecoverably
    /// lost. Stays 0 as long as fewer than `dfs.replication` datanodes
    /// holding common blocks fail.
    pub fn lost_blocks(&self) -> usize {
        self.ns.blocks().iter().filter(|(_, bm)| bm.replicas.is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcluster::prelude::*;

    const MB: u64 = 1024 * 1024;

    #[test]
    #[should_panic(expected = "snapshot corrupt: unknown OpKind tag 3 at byte 42")]
    fn op_kind_rejects_an_unknown_tag() {
        let op = PendingOp {
            client_tag: Tag::owner(1),
            bytes: 1,
            submitted: SimTime::ZERO,
            kind: OpKind::Replicate,
            vm: VmId(2),
        };
        let mut e = Encoder::new();
        op.encode(&mut e);
        let mut bytes = e.finish();
        assert_eq!(PendingOp::decode(&mut Decoder::new(&bytes)).kind, OpKind::Replicate);
        bytes[42] = 3; // after header, tag, bytes and submitted: the kind byte
        PendingOp::decode(&mut Decoder::new(&bytes));
    }

    fn setup(placement: Placement) -> (Engine, VirtualCluster, Hdfs) {
        let mut e = Engine::new();
        let spec = ClusterSpec::builder().hosts(2).vms(8).placement(placement).build();
        let c = VirtualCluster::new(&mut e, spec);
        let h = Hdfs::format(&c, HdfsConfig { block_size: 64 * MB, replication: 2 }, RootSeed(7));
        (e, c, h)
    }

    /// Drives the engine until `op` completes, returning (time, completion).
    fn run_until_op(e: &mut Engine, h: &mut Hdfs, op: HdfsOpId) -> (SimTime, HdfsCompletion) {
        while let Some((t, w)) = e.next_wakeup() {
            if let Some(c) = h.on_wakeup(e, &w) {
                if c.op == op {
                    return (t, c);
                }
            }
        }
        panic!("op never completed");
    }

    #[test]
    fn write_then_read_round_trip() {
        let (mut e, c, mut h) = setup(Placement::SingleDomain);
        let tag = Tag::new(owners::USER, 42, 0);
        let op = h.write_file(&mut e, &c, "/data", 100 * MB, VmId(1), tag);
        let (t_w, comp) = run_until_op(&mut e, &mut h, op);
        assert_eq!(comp.client_tag, tag);
        assert_eq!(comp.bytes, 100 * MB);
        assert!(t_w.as_secs_f64() > 1.0, "write takes real time, got {t_w}");
        assert!(h.stat("/data").is_some());
        assert_eq!(h.stat("/data").unwrap().blocks.len(), 2);

        let op = h.read_file(&mut e, &c, "/data", VmId(2), tag);
        let (t_r, comp) = run_until_op(&mut e, &mut h, op);
        assert_eq!(comp.bytes, 100 * MB);
        assert!(t_r > t_w);
    }

    #[test]
    fn read_is_faster_than_write() {
        // Replication makes writes move more bytes than reads — the
        // mechanism behind DFSIO's read > write throughput (Fig. 4b).
        let (mut e, c, mut h) = setup(Placement::SingleDomain);
        let tag = Tag::owner(owners::USER);
        let start = e.now();
        let op = h.write_file(&mut e, &c, "/f", 200 * MB, VmId(1), tag);
        let (t1, _) = run_until_op(&mut e, &mut h, op);
        let write_time = t1.saturating_since(start).as_secs_f64();

        let op = h.read_file(&mut e, &c, "/f", VmId(1), tag);
        let (t2, _) = run_until_op(&mut e, &mut h, op);
        let read_time = t2.saturating_since(t1).as_secs_f64();
        assert!(
            read_time < write_time * 0.8,
            "read ({read_time:.2}s) beats write ({write_time:.2}s)"
        );
    }

    #[test]
    fn local_read_beats_remote_read() {
        let (mut e, c, mut h) = setup(Placement::CrossDomain);
        h.register_file(&c, "/local", 64 * MB, VmId(1));
        let tag = Tag::owner(owners::USER);

        let start = e.now();
        let op = h.read_file(&mut e, &c, "/local", VmId(1), tag);
        let (t1, _) = run_until_op(&mut e, &mut h, op);
        let local = t1.saturating_since(start).as_secs_f64();

        // Reader that holds no replica: likely remote.
        let far_reader = h
            .datanodes()
            .iter()
            .copied()
            .find(|v| !h.block(h.stat("/local").unwrap().blocks[0]).replicas.contains(v))
            .expect("some non-replica VM");
        let op = h.read_file(&mut e, &c, "/local", far_reader, tag);
        let (t2, _) = run_until_op(&mut e, &mut h, op);
        let remote = t2.saturating_since(t1).as_secs_f64();
        assert!(local <= remote, "local read ({local:.3}s) ≤ remote ({remote:.3}s)");
    }

    #[test]
    fn register_file_is_instant_and_placed() {
        let (e, c, mut h) = setup(Placement::SingleDomain);
        h.register_file(&c, "/pre", 130 * MB, VmId(3));
        assert_eq!(e.now(), SimTime::ZERO);
        let locs = h.block_locations("/pre").expect("exists");
        assert_eq!(locs.len(), 3); // 64 + 64 + 2 MB
        for (_, _, replicas) in locs {
            assert_eq!(replicas.len(), 2);
        }
    }

    #[test]
    fn concurrent_writes_contend_on_nfs() {
        // Two writers finish later than one writer.
        let one = {
            let (mut e, c, mut h) = setup(Placement::SingleDomain);
            let op = h.write_file(&mut e, &c, "/a", 100 * MB, VmId(1), Tag::owner(owners::USER));
            run_until_op(&mut e, &mut h, op).0.as_secs_f64()
        };
        let two = {
            let (mut e, c, mut h) = setup(Placement::SingleDomain);
            h.write_file(&mut e, &c, "/a", 100 * MB, VmId(1), Tag::owner(owners::USER));
            let op2 = h.write_file(&mut e, &c, "/b", 100 * MB, VmId(2), Tag::owner(owners::USER));
            run_until_op(&mut e, &mut h, op2).0.as_secs_f64()
        };
        assert!(two > one * 1.5, "NFS contention: two writers {two:.2}s vs one {one:.2}s");
    }

    #[test]
    fn datanode_loss_mid_write_pipeline_recovers() {
        let (mut e, c, mut h) = setup(Placement::SingleDomain);
        let tag = Tag::new(owners::USER, 7, 0);
        let op = h.write_file(&mut e, &c, "/mid", 100 * MB, VmId(1), tag);
        // Kill a pipeline member while the write is still in flight.
        let victim = h.block(h.stat("/mid").unwrap().blocks[0]).replicas[0];
        let (re_replicated, lost) = h.fail_datanode(&mut e, &c, victim);
        assert_eq!(lost, 0, "replication 2 survives one failure");
        assert!(re_replicated >= 1, "the victim's pending replicas re-replicate");
        assert!(h.under_replicated_blocks() == 0, "re-replication already registered");
        // The write and the repair traffic both complete.
        let (_, comp) = run_until_op(&mut e, &mut h, op);
        assert_eq!(comp.bytes, 100 * MB);
        while let Some((_, w)) = e.next_wakeup() {
            h.on_wakeup(&mut e, &w);
        }
        assert!(h.ops.is_empty());
        assert_eq!(h.lost_blocks(), 0);
        for (_, bm) in h.namespace().blocks() {
            assert!(!bm.replicas.contains(&victim), "dead node holds nothing");
            assert_eq!(bm.replicas.len(), 2, "full replication restored");
        }
        // The file is still fully readable afterwards.
        let op = h.read_file(&mut e, &c, "/mid", VmId(2), tag);
        let (_, comp) = run_until_op(&mut e, &mut h, op);
        assert_eq!(comp.bytes, 100 * MB);
    }

    #[test]
    fn rejoined_datanode_serves_again() {
        let (mut e, c, mut h) = setup(Placement::SingleDomain);
        h.register_file(&c, "/pre", 64 * MB, VmId(2));
        let n = h.datanodes().len();
        h.fail_datanode(&mut e, &c, VmId(3));
        assert_eq!(h.datanodes().len(), n - 1);
        h.rejoin_datanode(VmId(3));
        h.rejoin_datanode(VmId(3)); // idempotent
        assert_eq!(h.datanodes().len(), n);
        assert_eq!(h.namespace().used_space(VmId(3)), 0, "rejoins empty");
        // New writes may land on the rejoined node again.
        let op = h.write_file(&mut e, &c, "/post", 100 * MB, VmId(3), Tag::owner(owners::USER));
        run_until_op(&mut e, &mut h, op);
    }

    #[test]
    #[should_panic(expected = "namenode cannot rejoin")]
    fn namenode_rejoin_is_rejected() {
        let (_e, _c, mut h) = setup(Placement::SingleDomain);
        h.rejoin_datanode(VmId(0));
    }

    #[test]
    fn format_with_restricts_the_datanode_set() {
        let mut e = Engine::new();
        let spec =
            ClusterSpec::builder().hosts(2).vms(8).placement(Placement::SingleDomain).build();
        let c = VirtualCluster::new(&mut e, spec);
        let dns = [VmId(1), VmId(2), VmId(3)];
        let mut h =
            Hdfs::format_with(&c, HdfsConfig { block_size: MB, replication: 2 }, RootSeed(7), &dns);
        assert_eq!(h.datanodes(), &dns);
        // Even a non-datanode writer's blocks land only on datanodes.
        h.register_file(&c, "/f", 10 * MB, VmId(6));
        for (_, _, replicas) in h.block_locations("/f").unwrap() {
            for r in replicas {
                assert!(dns.contains(&r), "{r} is not a datanode");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot also be a datanode")]
    fn format_with_rejects_the_namenode() {
        let mut e = Engine::new();
        let spec =
            ClusterSpec::builder().hosts(2).vms(4).placement(Placement::SingleDomain).build();
        let c = VirtualCluster::new(&mut e, spec);
        Hdfs::format_with(&c, HdfsConfig::default(), RootSeed(7), &[VmId(0), VmId(1)]);
    }

    #[test]
    fn dir_block_locations_concatenates_parts_in_path_order() {
        let (e, c, mut h) = setup(Placement::SingleDomain);
        let _ = e;
        h.register_file(&c, "/out/part-r-00001", 70 * MB, VmId(1));
        h.register_file(&c, "/out/part-r-00000", 100 * MB, VmId(2));
        let locs = h.dir_block_locations("/out").expect("two parts");
        // part-r-00000 first (2 blocks of 64+36 MB), then part-r-00001.
        let f0 = h.stat("/out/part-r-00000").unwrap().blocks.clone();
        let f1 = h.stat("/out/part-r-00001").unwrap().blocks.clone();
        let got: Vec<BlockId> = locs.iter().map(|(b, _, _)| *b).collect();
        let want: Vec<BlockId> = f0.into_iter().chain(f1).collect();
        assert_eq!(got, want);
        assert!(h.dir_block_locations("/empty").is_none());
    }

    #[test]
    fn checksum_provenance_round_trips_and_corrupts() {
        let (e, c, mut h) = setup(Placement::SingleDomain);
        let _ = e;
        h.register_file(&c, "/in", 130 * MB, VmId(1));
        assert_eq!(h.block_checksums("/in").unwrap(), vec![None, None, None]);
        h.record_checksums("/in", &[1, 2, 3]);
        assert_eq!(h.block_checksums("/in").unwrap(), vec![Some(1), Some(2), Some(3)]);
        assert_eq!(h.checksummed_blocks(), 3);
        h.corrupt_checksum("/in", 1);
        let sums = h.block_checksums("/in").unwrap();
        assert_eq!(sums[0], Some(1));
        assert_ne!(sums[1], Some(2));
        assert_eq!(sums[2], Some(3));
    }

    #[test]
    fn delete_releases_space() {
        let (e, c, mut h) = setup(Placement::SingleDomain);
        let _ = e;
        h.register_file(&c, "/x", 64 * MB, VmId(1));
        assert!(h.namespace().used_space(VmId(1)) > 0);
        assert!(h.delete("/x"));
        assert_eq!(h.namespace().used_space(VmId(1)), 0);
        assert!(h.stat("/x").is_none());
    }
}
