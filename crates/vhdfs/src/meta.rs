//! Namespace and block metadata (the namenode's tables).

use std::collections::HashMap;
use vcluster::cluster::VmId;

/// Identifier of one HDFS block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "blk_{}", self.0)
    }
}

/// Per-file metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct FileMeta {
    /// Logical length in bytes.
    pub len: u64,
    /// Blocks in file order.
    pub blocks: Vec<BlockId>,
}

/// Per-block metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMeta {
    /// Block length in bytes (≤ the configured block size).
    pub len: u64,
    /// Replica locations; first entry is the pipeline head.
    pub replicas: Vec<VmId>,
}

/// The namenode's in-memory state: path → file → blocks → replicas.
#[derive(Debug, Default, Clone)]
pub struct Namespace {
    files: HashMap<String, FileMeta>,
    blocks: HashMap<BlockId, BlockMeta>,
    used: HashMap<VmId, u64>,
    next_block: u64,
    /// Sparse content-checksum side table (TPCx-HS provenance, DESIGN.md
    /// §17). Blocks without a recorded checksum simply have no entry.
    checksums: HashMap<BlockId, u64>,
}

simcore::persist_struct!(BlockId(0));
simcore::persist_struct!(FileMeta { len, blocks });
simcore::persist_struct!(BlockMeta { len, replicas });
simcore::persist_struct!(Namespace { files, blocks, used, next_block, checksums });

impl Namespace {
    /// Empty namespace.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// File metadata, if present.
    pub fn file(&self, path: &str) -> Option<&FileMeta> {
        self.files.get(path)
    }

    /// Block metadata.
    ///
    /// # Panics
    /// On unknown block ids (they are only ever minted here).
    pub fn block(&self, id: BlockId) -> &BlockMeta {
        self.blocks.get(&id).expect("unknown block id")
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Bytes of replica data stored on `vm`.
    pub fn used_space(&self, vm: VmId) -> u64 {
        self.used.get(&vm).copied().unwrap_or(0)
    }

    /// Registers a new file of `len` bytes split into `block_size` chunks,
    /// with replica sets chosen by `place` (called once per block).
    ///
    /// # Panics
    /// If `path` already exists or `block_size` is zero.
    pub fn create_file(
        &mut self,
        path: &str,
        len: u64,
        block_size: u64,
        mut place: impl FnMut(u64) -> Vec<VmId>,
    ) -> &FileMeta {
        assert!(!self.exists(path), "HDFS file already exists: {path}");
        assert!(block_size > 0, "block size must be positive");
        let mut blocks = Vec::new();
        let mut off = 0u64;
        // Zero-length files still get one empty block (matches the real
        // HDFS client behaviour for empty writes closely enough).
        loop {
            let blen = (len - off).min(block_size);
            let id = BlockId(self.next_block);
            self.next_block += 1;
            let replicas = place(blen);
            assert!(!replicas.is_empty(), "block placement returned no replicas");
            for &vm in &replicas {
                *self.used.entry(vm).or_insert(0) += blen;
            }
            self.blocks.insert(id, BlockMeta { len: blen, replicas });
            blocks.push(id);
            off += blen;
            if off >= len {
                break;
            }
        }
        self.files.insert(path.to_string(), FileMeta { len, blocks });
        self.files.get(path).expect("just inserted")
    }

    /// Removes `path`, releasing its blocks. Returns `false` if absent.
    pub fn delete_file(&mut self, path: &str) -> bool {
        let Some(meta) = self.files.remove(path) else {
            return false;
        };
        for b in meta.blocks {
            self.checksums.remove(&b);
            if let Some(bm) = self.blocks.remove(&b) {
                for vm in bm.replicas {
                    if let Some(u) = self.used.get_mut(&vm) {
                        *u = u.saturating_sub(bm.len);
                    }
                }
            }
        }
        true
    }

    /// `(block, meta)` pairs of `path` in file order.
    pub fn file_blocks(&self, path: &str) -> Option<Vec<(BlockId, &BlockMeta)>> {
        let f = self.files.get(path)?;
        Some(f.blocks.iter().map(|&b| (b, self.block(b))).collect())
    }

    /// All file paths (unordered).
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(String::as_str)
    }

    /// All `(block, meta)` pairs in block-id order — health scans
    /// (replica counting) after failures.
    pub fn blocks(&self) -> Vec<(BlockId, &BlockMeta)> {
        let mut v: Vec<(BlockId, &BlockMeta)> =
            self.blocks.iter().map(|(&id, bm)| (id, bm)).collect();
        v.sort_by_key(|(id, _)| *id);
        v
    }

    /// Removes every replica hosted on `vm`, returning each affected
    /// block with its surviving replicas (possibly empty = data loss).
    pub fn drop_replicas_on(&mut self, vm: VmId) -> Vec<(BlockId, Vec<VmId>)> {
        let mut affected = Vec::new();
        for (&id, bm) in self.blocks.iter_mut() {
            if let Some(pos) = bm.replicas.iter().position(|&r| r == vm) {
                bm.replicas.remove(pos);
                affected.push((id, bm.replicas.clone()));
            }
        }
        if let Some(u) = self.used.get_mut(&vm) {
            *u = 0;
        }
        affected.sort_by_key(|(id, _)| *id);
        affected
    }

    /// Registers an additional replica of `block` on `vm` (re-replication).
    ///
    /// # Panics
    /// If the block is unknown or `vm` already holds a replica.
    pub fn add_replica(&mut self, block: BlockId, vm: VmId) {
        let bm = self.blocks.get_mut(&block).expect("unknown block id");
        assert!(!bm.replicas.contains(&vm), "{vm} already replicates {block}");
        bm.replicas.push(vm);
        *self.used.entry(vm).or_insert(0) += bm.len;
    }

    /// Records (or overwrites) the content checksum of `block`.
    ///
    /// # Panics
    /// If the block is unknown.
    pub fn set_checksum(&mut self, block: BlockId, sum: u64) {
        assert!(self.blocks.contains_key(&block), "unknown block id {block}");
        self.checksums.insert(block, sum);
    }

    /// The recorded content checksum of `block`, if any.
    pub fn checksum(&self, block: BlockId) -> Option<u64> {
        self.checksums.get(&block).copied()
    }

    /// Number of blocks carrying a recorded checksum.
    pub fn checksum_count(&self) -> usize {
        self.checksums.len()
    }

    /// Paths directly or transitively under directory `prefix`
    /// (`prefix + "/..."`), sorted — HDFS has no directory inodes, so
    /// a listing is a prefix scan of the file table.
    pub fn files_under(&self, prefix: &str) -> Vec<&str> {
        let want = format!("{}/", prefix.trim_end_matches('/'));
        let mut v: Vec<&str> =
            self.files.keys().map(String::as_str).filter(|p| p.starts_with(&want)).collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_splits_into_blocks() {
        let mut ns = Namespace::new();
        let meta = ns.create_file("/a", 150, 64, |_| vec![VmId(1)]);
        assert_eq!(meta.len, 150);
        assert_eq!(meta.blocks.len(), 3); // 64 + 64 + 22
        let sizes: Vec<u64> = meta.blocks.clone().iter().map(|&b| ns.block(b).len).collect();
        assert_eq!(sizes, vec![64, 64, 22]);
    }

    #[test]
    fn empty_file_gets_one_block() {
        let mut ns = Namespace::new();
        let blocks = ns.create_file("/empty", 0, 64, |_| vec![VmId(1)]).blocks.clone();
        assert_eq!(blocks.len(), 1);
        assert_eq!(ns.block(blocks[0]).len, 0);
    }

    #[test]
    fn used_space_tracks_replicas() {
        let mut ns = Namespace::new();
        ns.create_file("/a", 100, 64, |_| vec![VmId(1), VmId(2)]);
        assert_eq!(ns.used_space(VmId(1)), 100);
        assert_eq!(ns.used_space(VmId(2)), 100);
        assert_eq!(ns.used_space(VmId(3)), 0);
        assert!(ns.delete_file("/a"));
        assert_eq!(ns.used_space(VmId(1)), 0);
    }

    #[test]
    fn delete_missing_is_false() {
        let mut ns = Namespace::new();
        assert!(!ns.delete_file("/nope"));
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_create_panics() {
        let mut ns = Namespace::new();
        ns.create_file("/a", 1, 64, |_| vec![VmId(1)]);
        ns.create_file("/a", 1, 64, |_| vec![VmId(1)]);
    }

    #[test]
    fn checksums_are_sparse_and_deleted_with_the_file() {
        let mut ns = Namespace::new();
        let blocks = ns.create_file("/a", 150, 64, |_| vec![VmId(1)]).blocks.clone();
        assert_eq!(ns.checksum(blocks[0]), None);
        ns.set_checksum(blocks[0], 0xfeed);
        ns.set_checksum(blocks[1], 0xbeef);
        assert_eq!(ns.checksum(blocks[0]), Some(0xfeed));
        assert_eq!(ns.checksum_count(), 2);
        assert!(ns.delete_file("/a"));
        assert_eq!(ns.checksum_count(), 0);
    }

    #[test]
    fn files_under_lists_the_directory_sorted() {
        let mut ns = Namespace::new();
        for p in ["/out/part-r-00001", "/out/part-r-00000", "/outlier", "/in/x"] {
            ns.create_file(p, 10, 64, |_| vec![VmId(1)]);
        }
        assert_eq!(ns.files_under("/out"), vec!["/out/part-r-00000", "/out/part-r-00001"]);
        assert_eq!(ns.files_under("/out/"), vec!["/out/part-r-00000", "/out/part-r-00001"]);
        assert!(ns.files_under("/none").is_empty());
    }
}
