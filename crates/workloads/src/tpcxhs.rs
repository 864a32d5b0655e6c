//! TPCx-HS — the standardized big-data sort benchmark, end to end.
//!
//! Models the TPC Express Benchmark HS (derived from TeraSort) as three
//! chained MapReduce jobs over 100-byte records, with a conformance
//! harness that can actually fail:
//!
//! 1. **HSGen** — map-only job synthesizing `sf_bytes` of seeded 100-byte
//!    records (10-byte random key + fixed payload). Per-block content
//!    checksums (an order-independent multiset digest of the record keys)
//!    are recorded in the HDFS namespace as provenance.
//! 2. **HSSort** — identity map + total-order [`RangePartitioner`] +
//!    identity reduce; the output is re-written to HDFS with replication,
//!    and per-output-block checksums are recorded the same way.
//! 3. **HSValidate** — a second MapReduce job reading the sorted output
//!    back. Each map summarizes one HDFS block (record count, sortedness,
//!    key range, checksum); the verdict checks global sort order across
//!    block boundaries, record-count preservation, and checksum
//!    provenance input-side vs output-side. Corruption anywhere in the
//!    pipeline surfaces as a precise [`HsViolation`], never a silently
//!    "valid" run.
//!
//! The figure of merit is **HSph@SF**: scale-factor gigabytes divided by
//! total elapsed hours across all three phases (higher is better). See
//! DESIGN.md §17 for the record format and the disaggregated
//! (data/compute-separated) cluster configurations the bench harness
//! sweeps.

use mapreduce::prelude::*;
use rand::Rng;
use simcore::rng::RootSeed;
use simcore::time::SimTime;
use std::ops::Range;
use std::sync::Arc;
use vhdfs::hdfs::HdfsConfig;

/// Accounted bytes per HS record ([`records_size`]-exact: a 10-byte key
/// and an 82-byte payload each carry 4 bytes of framing).
pub const RECORD_BYTES: u64 = 100;
/// Key length in bytes.
pub const KEY_BYTES: usize = 10;
/// Payload length in bytes (chosen so one record accounts exactly 100
/// bytes, keeping block boundaries record-aligned).
pub const PAYLOAD_BYTES: usize = 82;

/// HDFS path of the generated input data set.
pub const HS_IN: &str = "/hs/in";
/// HDFS path prefix of the sorted output (`part-r-NNNNN` files).
pub const HS_OUT: &str = "/hs/out";

/// Default HDFS block size for HS runs: 1 MB keeps a record-aligned
/// block boundary (`% 100 == 0`) and yields multiple splits even at
/// test-scale factors.
pub const DEFAULT_BLOCK: u64 = 1_000_000;

/// HDFS block size for TeraSort runs (paper Table I, Fig. 4a): the largest
/// multiple of [`RECORD_BYTES`] not above Hadoop 0.20's 64 MiB default,
/// so blocks stay record-aligned and each Fig. 4a size keeps its block
/// count.
pub const TERASORT_BLOCK: u64 = 67_108_800;

/// Deterministic post-generation corruption, for conformance testing the
/// HSValidate oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HsCorruption {
    /// Flip one key byte of the first record of input block `block`
    /// before it reaches HSSort (the stored provenance checksum still
    /// describes the pristine data).
    FlipRecord {
        /// Input block index.
        block: usize,
    },
    /// Corrupt the *stored* checksum of input block `block` (the data
    /// itself stays pristine).
    FlipChecksum {
        /// Input block index.
        block: usize,
    },
}

/// One TPCx-HS run description: scale factor, job shape, seed, and any
/// injected corruption.
#[derive(Debug, Clone)]
pub struct HsPlan {
    /// Scale factor in bytes (must be a positive multiple of 100).
    pub sf_bytes: u64,
    /// Reduce tasks for HSSort.
    pub reduces: u32,
    /// HDFS block size (must be a positive multiple of 100).
    pub block_size: u64,
    /// Root seed; record synthesis derives from it.
    pub seed: RootSeed,
    /// VM the input file registration is attributed to.
    pub writer: VmId,
    /// Deterministic corruption to inject after HSGen, if any.
    pub corrupt: Option<HsCorruption>,
}

impl HsPlan {
    /// Plan with the [`DEFAULT_BLOCK`] size and no corruption.
    pub fn new(sf_bytes: u64, reduces: u32, seed: RootSeed) -> Self {
        assert!(
            sf_bytes > 0 && sf_bytes.is_multiple_of(RECORD_BYTES),
            "scale factor must be a positive multiple of {RECORD_BYTES} bytes, got {sf_bytes}"
        );
        assert!(reduces > 0, "HSSort needs at least one reduce");
        HsPlan {
            sf_bytes,
            reduces,
            block_size: DEFAULT_BLOCK,
            seed,
            writer: VmId(1),
            corrupt: None,
        }
    }

    /// The paper's TeraSort over `total_bytes` rounded down to whole
    /// records, in [`TERASORT_BLOCK`] blocks: TeraGen, TeraSort and
    /// TeraValidate are HSGen, HSSort and HSValidate.
    pub fn terasort(total_bytes: u64, reduces: u32, seed: RootSeed) -> Self {
        HsPlan::new(total_bytes / RECORD_BYTES * RECORD_BYTES, reduces, seed)
            .with_block_size(TERASORT_BLOCK)
    }

    /// Overrides the HDFS block size (must stay a multiple of 100 so
    /// block boundaries are record-aligned).
    pub fn with_block_size(mut self, block_size: u64) -> Self {
        assert!(
            block_size > 0 && block_size.is_multiple_of(RECORD_BYTES),
            "block size must be a positive multiple of {RECORD_BYTES} bytes, got {block_size}"
        );
        self.block_size = block_size;
        self
    }

    /// Injects one deterministic corruption after HSGen.
    pub fn with_corruption(mut self, corrupt: HsCorruption) -> Self {
        self.corrupt = Some(corrupt);
        self
    }

    /// HDFS config matching the plan's block size.
    pub fn hdfs_config(&self, replication: u32) -> HdfsConfig {
        HdfsConfig { block_size: self.block_size, replication }
    }

    /// Total records at this scale factor.
    pub fn total_records(&self) -> u64 {
        self.sf_bytes / RECORD_BYTES
    }

    /// Records in a full input split (= block).
    pub fn records_per_split(&self) -> u64 {
        self.block_size / RECORD_BYTES
    }

    /// Input split count (equals the HDFS block count of [`HS_IN`]).
    pub fn splits(&self) -> usize {
        self.total_records().div_ceil(self.records_per_split()) as usize
    }

    /// Records in split `idx` (the last split may be short).
    pub fn records_in_split(&self, idx: usize) -> u64 {
        let start = idx as u64 * self.records_per_split();
        self.records_per_split().min(self.total_records().saturating_sub(start))
    }

    fn gen_seed(&self) -> RootSeed {
        self.seed.derive("hsgen")
    }
}

/// Deterministically synthesizes the pristine records of HSGen split
/// `idx`. Every record's payload is the one filler buffer of the split.
pub fn hsgen_split(seed: RootSeed, idx: usize, records: u64) -> Vec<Record> {
    let mut rng = seed.stream_at("hsgen", idx as u64);
    let payload: Arc<[u8]> = Arc::from([b'~'; PAYLOAD_BYTES]);
    (0..records)
        .map(|_| {
            let key: Vec<u8> = (0..KEY_BYTES).map(|_| rng.gen()).collect();
            (K::Bytes(key), V::Bytes(payload.clone()))
        })
        .collect()
}

/// Order-independent content digest of a record multiset. Each record
/// contributes a mixed key hash; summation makes the digest invariant
/// under re-sorting, so the same data sorted still matches its input
/// provenance.
pub fn multiset_checksum(records: &[Record]) -> u64 {
    records.iter().fold(0u64, |acc, (k, _)| acc.wrapping_add(mix64(k.stable_hash())))
}

/// [`multiset_checksum`] of `n` records whose keys `fill` writes, one
/// after the other, into one reused [`KEY_BYTES`]-long buffer.
fn checksum_of_keys(n: u64, mut fill: impl FnMut(&mut [u8])) -> u64 {
    let mut key = K::Bytes(vec![0; KEY_BYTES]);
    (0..n).fold(0u64, |acc, _| {
        if let K::Bytes(bytes) = &mut key {
            fill(bytes);
        }
        acc.wrapping_add(mix64(key.stable_hash()))
    })
}

/// `multiset_checksum(&hsgen_split(seed, idx, records))` without the
/// records: the same key bytes drawn from the same stream.
pub fn hsgen_checksum(seed: RootSeed, idx: usize, records: u64) -> u64 {
    let mut rng = seed.stream_at("hsgen", idx as u64);
    checksum_of_keys(records, |key| key.fill_with(|| rng.gen()))
}

/// splitmix64 finalizer: decorrelates the raw key hash so adjacent keys
/// don't cancel in the multiset sum.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// HSGen: map-only, emits one split's records from the seeded stream.
struct HsGenApp {
    seed: RootSeed,
    plan: HsPlan,
}

impl MapReduceApp for HsGenApp {
    fn name(&self) -> &str {
        "hsgen"
    }
    fn map(&self, k: &K, _v: &V, out: &mut dyn FnMut(K, V)) {
        let idx = k.as_int() as usize;
        for (key, val) in hsgen_split(self.seed, idx, self.plan.records_in_split(idx)) {
            out(key, val);
        }
    }
    fn reduce(&self, _k: &K, _vs: &[V], _out: &mut dyn FnMut(K, V)) {
        unreachable!("hsgen is map-only");
    }
    fn cost(&self) -> CostProfile {
        CostProfile { map_cpu_per_byte: 10.0, map_cpu_per_record: 600.0, ..Default::default() }
    }
}

/// HSSort: identity map, total-order partitioner, identity reduce.
struct HsSortApp;

impl MapReduceApp for HsSortApp {
    fn name(&self) -> &str {
        "hssort"
    }
    fn map(&self, k: &K, v: &V, out: &mut dyn FnMut(K, V)) {
        out(k.clone(), v.clone());
    }
    fn reduce(&self, k: &K, vs: &[V], out: &mut dyn FnMut(K, V)) {
        for v in vs {
            out(k.clone(), v.clone());
        }
    }
    fn partitioner(&self) -> Box<dyn Partitioner> {
        Box::new(RangePartitioner)
    }
    fn cost(&self) -> CostProfile {
        CostProfile { map_cpu_per_byte: 15.0, map_cpu_per_record: 1_200.0, ..Default::default() }
    }
}

/// Per-block summary an HSValidate map emits (encoded into a
/// `V::Bytes`).
#[derive(Debug, Clone, PartialEq, Eq)]
struct BlockSummary {
    records: u64,
    sorted: bool,
    checksum: u64,
    min: Vec<u8>,
    max: Vec<u8>,
}

impl BlockSummary {
    /// Summary of the block whose record keys are the [`KEY_BYTES`]-long
    /// chunks of `keys`.
    fn of(keys: &[u8]) -> Self {
        let chunks = || keys.chunks_exact(KEY_BYTES);
        let records = chunks().len() as u64;
        let mut next = chunks();
        BlockSummary {
            records,
            sorted: chunks().zip(chunks().skip(1)).all(|(a, b)| a <= b),
            checksum: checksum_of_keys(records, |key| {
                key.copy_from_slice(next.next().expect("one chunk per record"))
            }),
            min: chunks().next().unwrap_or_default().to_vec(),
            max: chunks().last().unwrap_or_default().to_vec(),
        }
    }

    fn encode(&self) -> V {
        let mut b = Vec::with_capacity(18 + self.min.len() + self.max.len());
        b.push(u8::from(self.sorted));
        b.extend_from_slice(&self.records.to_le_bytes());
        b.extend_from_slice(&self.checksum.to_le_bytes());
        b.push(self.min.len() as u8);
        b.extend_from_slice(&self.min);
        b.extend_from_slice(&self.max);
        V::Bytes(b.into())
    }

    fn decode(v: &V) -> Self {
        let V::Bytes(b) = v else { panic!("summary must be bytes, got {v:?}") };
        let sorted = b[0] != 0;
        let records = u64::from_le_bytes(b[1..9].try_into().unwrap());
        let checksum = u64::from_le_bytes(b[9..17].try_into().unwrap());
        let klen = b[17] as usize;
        BlockSummary {
            records,
            sorted,
            checksum,
            min: b[18..18 + klen].to_vec(),
            max: b[18 + klen..18 + 2 * klen].to_vec(),
        }
    }
}

/// HSValidate: one map per output block summarizes the records it holds
/// (their keys ride in the app, [`KEY_BYTES`] each, back to back per
/// block; the job's reads against [`HS_OUT`] model the I/O); a single
/// reduce collects the summaries in block order.
struct HsValidateApp {
    blocks: Vec<Vec<u8>>,
}

impl MapReduceApp for HsValidateApp {
    fn name(&self) -> &str {
        "hsvalidate"
    }
    fn map(&self, k: &K, _v: &V, out: &mut dyn FnMut(K, V)) {
        let idx = k.as_int() as usize;
        out(K::Int(idx as i64), BlockSummary::of(&self.blocks[idx]).encode());
    }
    fn reduce(&self, k: &K, vs: &[V], out: &mut dyn FnMut(K, V)) {
        for v in vs {
            out(k.clone(), v.clone());
        }
    }
    fn cost(&self) -> CostProfile {
        CostProfile { map_cpu_per_byte: 12.0, map_cpu_per_record: 800.0, ..Default::default() }
    }
}

/// One conformance failure HSValidate can diagnose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HsViolation {
    /// Blocks with zero live replicas exist — the data set is not
    /// readable, validation fails before submitting the read job.
    LostBlocks {
        /// How many blocks have no replica left.
        count: usize,
    },
    /// The sorted output directory has no files.
    MissingOutput,
    /// Output record count differs from the generated record count.
    RecordCountMismatch {
        /// Records HSGen produced.
        expected: u64,
        /// Records found in the output.
        found: u64,
    },
    /// Keys are out of order within output block `block`, or across the
    /// boundary into it.
    OutOfOrder {
        /// Output block index (in directory order).
        block: usize,
    },
    /// A block is missing its recorded provenance checksum.
    MissingChecksum {
        /// File path owning the block.
        path: String,
        /// Block index within the file.
        block: usize,
    },
    /// An output block's stored checksum disagrees with its re-computed
    /// content digest.
    BlockChecksumMismatch {
        /// Output block index (in directory order).
        block: usize,
        /// Checksum recorded at write time.
        stored: u64,
        /// Checksum recomputed from the block's records.
        computed: u64,
    },
    /// Aggregate input provenance disagrees with the aggregate output
    /// digest — data was altered (or its recorded checksum was) between
    /// HSGen and HSSort.
    ChecksumMismatch {
        /// Sum of recorded input-block checksums.
        input_sum: u64,
        /// Sum of output-block content digests.
        output_sum: u64,
    },
}

impl std::fmt::Display for HsViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HsViolation::LostBlocks { count } => write!(f, "{count} block(s) lost all replicas"),
            HsViolation::MissingOutput => write!(f, "sorted output directory is empty"),
            HsViolation::RecordCountMismatch { expected, found } => {
                write!(f, "record count changed: generated {expected}, output holds {found}")
            }
            HsViolation::OutOfOrder { block } => {
                write!(f, "keys out of order at output block {block}")
            }
            HsViolation::MissingChecksum { path, block } => {
                write!(f, "no provenance checksum for {path} block {block}")
            }
            HsViolation::BlockChecksumMismatch { block, stored, computed } => write!(
                f,
                "output block {block} checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            HsViolation::ChecksumMismatch { input_sum, output_sum } => write!(
                f,
                "input/output provenance mismatch: input {input_sum:#018x}, output {output_sum:#018x}"
            ),
        }
    }
}

/// HSValidate verdict: pass/fail plus every diagnosed violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HsValidateReport {
    /// True iff no violation was found.
    pub passed: bool,
    /// Every conformance failure, in detection order.
    pub violations: Vec<HsViolation>,
    /// Records the output holds (0 on fail-fast).
    pub records: u64,
    /// Output blocks examined.
    pub blocks_checked: usize,
}

impl HsValidateReport {
    fn failed(violations: Vec<HsViolation>) -> Self {
        HsValidateReport { passed: false, violations, records: 0, blocks_checked: 0 }
    }
}

/// Builds the HSGen job (spec, app, input). Run it, then call
/// [`register_hsgen`] to register the data set and its provenance.
pub fn hsgen_job(plan: &HsPlan) -> (JobSpec, Box<dyn MapReduceApp>, Box<dyn InputFormat>) {
    let splits = plan.splits();
    let input =
        GeneratorInput::new(splits, plan.block_size, |idx| vec![(K::Int(idx as i64), V::Null)]);
    let spec = JobSpec::generated("hsgen", "/hs/gen").with_config(JobConfig::map_only());
    (spec, Box::new(HsGenApp { seed: plan.gen_seed(), plan: plan.clone() }), Box::new(input))
}

/// Registers [`HS_IN`] (the generated data set) in HDFS and records one
/// provenance checksum per block — computed from the *pristine* record
/// stream. Applies the plan's [`HsCorruption::FlipChecksum`], if any.
///
/// # Panics
/// If the runtime's HDFS block size disagrees with the plan's (the block
/// count would no longer match the split count).
pub fn register_hsgen(rt: &mut MrRuntime, plan: &HsPlan) {
    rt.register_input(HS_IN, plan.sf_bytes, plan.writer);
    let blocks = rt.hdfs.stat(HS_IN).expect("just registered").blocks.len();
    assert_eq!(
        blocks,
        plan.splits(),
        "HDFS produced {blocks} blocks for {} splits; configure HDFS with plan.hdfs_config()",
        plan.splits(),
    );
    let seed = plan.gen_seed();
    let sums: Vec<u64> =
        (0..plan.splits()).map(|i| hsgen_checksum(seed, i, plan.records_in_split(i))).collect();
    rt.hdfs.record_checksums(HS_IN, &sums);
    if let Some(HsCorruption::FlipChecksum { block }) = plan.corrupt {
        rt.hdfs.corrupt_checksum(HS_IN, block);
    }
}

/// Builds the HSSort job. The input re-materializes the generated
/// records per split, applying the plan's
/// [`HsCorruption::FlipRecord`], if any.
pub fn hssort_job(plan: &HsPlan) -> (JobSpec, Box<dyn MapReduceApp>, Box<dyn InputFormat>) {
    let seed = plan.gen_seed();
    let p = plan.clone();
    let input = GeneratorInput::new(plan.splits(), plan.block_size, move |idx| {
        let mut recs = hsgen_split(seed, idx, p.records_in_split(idx));
        if let Some(HsCorruption::FlipRecord { block }) = p.corrupt {
            if block == idx {
                if let K::Bytes(key) = &mut recs[0].0 {
                    key[0] ^= 0x01;
                }
            }
        }
        recs
    });
    let spec = JobSpec::new("hssort", HS_IN, HS_OUT)
        .with_config(JobConfig::default().with_reduces(plan.reduces).with_combiner(false));
    (spec, Box::new(HsSortApp), Box::new(input))
}

/// The sorted output divided into per-HDFS-block record runs, as ranges
/// of `sort.outputs`, in directory order (`part-r-00000` block 0, 1, …,
/// then `part-r-00001`, …). Block boundaries are exact because every
/// record accounts exactly [`RECORD_BYTES`].
fn output_block_groups(rt: &MrRuntime, sort: &JobResult) -> Vec<(String, Vec<Range<usize>>)> {
    let mut groups = Vec::new();
    let mut at = 0usize;
    for (r, &n) in sort.partition_sizes.iter().enumerate() {
        let path = format!("{HS_OUT}/part-r-{r:05}");
        let start = at;
        let locs = rt
            .hdfs
            .block_locations(&path)
            .unwrap_or_else(|| panic!("HSSort output {path} not in HDFS"));
        let mut runs = Vec::with_capacity(locs.len());
        for (_, len, _) in &locs {
            assert!(len % RECORD_BYTES == 0, "{path}: block length {len} not record-aligned");
            let cnt = (len / RECORD_BYTES) as usize;
            runs.push(at..at + cnt);
            at += cnt;
        }
        assert_eq!(at - start, n, "{path}: block lengths cover {} of {n} records", at - start);
        groups.push((path, runs));
    }
    groups
}

/// Records one provenance checksum per HSSort output block (computed
/// from the records each block actually holds). Returns the number of
/// blocks checksummed.
pub fn record_sort_checksums(rt: &mut MrRuntime, sort: &JobResult) -> usize {
    let groups = output_block_groups(rt, sort);
    let mut total = 0;
    for (path, runs) in groups {
        let sums: Vec<u64> =
            runs.into_iter().map(|run| multiset_checksum(&sort.outputs[run])).collect();
        total += sums.len();
        rt.hdfs.record_checksums(&path, &sums);
    }
    total
}

/// Fail-fast integrity prescan run before HSValidate submits its read
/// job: lost blocks (zero live replicas) or a missing output directory
/// make the data set unreadable, so validation reports them instead of
/// crashing mid-read.
pub fn integrity_prescan(rt: &MrRuntime) -> Vec<HsViolation> {
    let mut violations = Vec::new();
    let lost = rt.hdfs.lost_blocks();
    if lost > 0 {
        violations.push(HsViolation::LostBlocks { count: lost });
    }
    if rt.hdfs.dir_block_locations(HS_OUT).is_none() {
        violations.push(HsViolation::MissingOutput);
    }
    violations
}

/// Builds the HSValidate job over the sorted output. One map per output
/// block; reads are modeled against the real [`HS_OUT`] blocks.
pub fn hsvalidate_job(
    rt: &MrRuntime,
    plan: &HsPlan,
    sort: &JobResult,
) -> (JobSpec, Box<dyn MapReduceApp>, Box<dyn InputFormat>) {
    // The job's app must own what its maps summarize, and they read the
    // keys only.
    let blocks: Vec<Vec<u8>> = output_block_groups(rt, sort)
        .into_iter()
        .flat_map(|(_, runs)| runs)
        .map(|run| {
            let mut keys = Vec::with_capacity(run.len() * KEY_BYTES);
            for (k, _) in &sort.outputs[run] {
                assert_eq!(k.as_bytes().len(), KEY_BYTES, "HS keys are {KEY_BYTES} bytes");
                keys.extend_from_slice(k.as_bytes());
            }
            keys
        })
        .collect();
    let n = blocks.len();
    let input = GeneratorInput::new(n, plan.block_size, |idx| vec![(K::Int(idx as i64), V::Null)]);
    let spec = JobSpec::new("hsvalidate", HS_OUT, "/hs/validate")
        .with_config(JobConfig::default().with_reduces(1).with_combiner(false));
    (spec, Box::new(HsValidateApp { blocks }), Box::new(input))
}

/// Turns the HSValidate job's output into a verdict: sort order across
/// all block boundaries, record-count preservation, per-block checksum
/// provenance, and aggregate input-vs-output content digests.
pub fn hsvalidate_verdict(
    rt: &MrRuntime,
    plan: &HsPlan,
    validate_result: &JobResult,
) -> HsValidateReport {
    let summaries: Vec<BlockSummary> =
        validate_result.outputs.iter().map(|(_, v)| BlockSummary::decode(v)).collect();
    let mut violations = Vec::new();

    // Record-count preservation.
    let found: u64 = summaries.iter().map(|s| s.records).sum();
    if found != plan.total_records() {
        violations.push(HsViolation::RecordCountMismatch { expected: plan.total_records(), found });
    }

    // Global sort order: within each block and across boundaries.
    let mut last_max: Option<&[u8]> = None;
    for (i, s) in summaries.iter().enumerate() {
        if !s.sorted {
            violations.push(HsViolation::OutOfOrder { block: i });
            continue;
        }
        if s.records == 0 {
            continue;
        }
        if let Some(prev) = last_max {
            if prev > s.min.as_slice() {
                violations.push(HsViolation::OutOfOrder { block: i });
            }
        }
        last_max = Some(&s.max);
    }

    // Per-output-block provenance: stored checksum vs recomputed digest.
    let mut stored_out = Vec::new();
    for r in 0..plan.reduces as usize {
        let path = format!("{HS_OUT}/part-r-{r:05}");
        let Some(sums) = rt.hdfs.block_checksums(&path) else { break };
        for (b, s) in sums.into_iter().enumerate() {
            stored_out.push((path.clone(), b, s));
        }
    }
    for (i, ((path, b, stored), summary)) in stored_out.iter().zip(&summaries).enumerate() {
        match stored {
            None => violations.push(HsViolation::MissingChecksum { path: path.clone(), block: *b }),
            Some(st) if *st != summary.checksum => {
                violations.push(HsViolation::BlockChecksumMismatch {
                    block: i,
                    stored: *st,
                    computed: summary.checksum,
                })
            }
            Some(_) => {}
        }
    }

    // Aggregate input provenance vs output content.
    let input_sum = match rt.hdfs.block_checksums(HS_IN) {
        Some(sums) => sums.into_iter().enumerate().fold(0u64, |acc, (b, s)| match s {
            Some(x) => acc.wrapping_add(x),
            None => {
                violations.push(HsViolation::MissingChecksum { path: HS_IN.to_string(), block: b });
                acc
            }
        }),
        None => {
            violations.push(HsViolation::MissingChecksum { path: HS_IN.to_string(), block: 0 });
            0
        }
    };
    let output_sum = summaries.iter().fold(0u64, |acc, s| acc.wrapping_add(s.checksum));
    if input_sum != output_sum {
        violations.push(HsViolation::ChecksumMismatch { input_sum, output_sum });
    }

    HsValidateReport {
        passed: violations.is_empty(),
        violations,
        records: found,
        blocks_checked: summaries.len(),
    }
}

/// One full TPCx-HS run's outcome.
#[derive(Debug, Clone)]
pub struct HsReport {
    /// Scale factor, bytes.
    pub sf_bytes: u64,
    /// HSGen wall time, seconds.
    pub gen_s: f64,
    /// HSSort wall time, seconds.
    pub sort_s: f64,
    /// HSValidate wall time, seconds (prescan + read-back job).
    pub validate_s: f64,
    /// End-to-end wall time, seconds.
    pub total_s: f64,
    /// The figure of merit: scale-factor GB per elapsed hour.
    pub hsph: f64,
    /// Records sorted.
    pub records: u64,
    /// HSValidate verdict.
    pub validate: HsValidateReport,
}

fn secs_between(a: SimTime, b: SimTime) -> f64 {
    b.saturating_since(a).as_secs_f64()
}

/// Runs HSGen → HSSort → HSValidate on `rt` and reports HSph@SF.
///
/// Drives the runtime's own event loop, so fault-plan scenarios must
/// instead compose the stage functions under a `VHadoop` driver (the
/// runtime loop does not route fault wakeups).
pub fn run_tpcxhs(rt: &mut MrRuntime, plan: &HsPlan) -> HsReport {
    let t0 = rt.now();
    let (spec, app, input) = hsgen_job(plan);
    let _ = rt.run_job(spec, app, input);
    let t1 = rt.now();

    register_hsgen(rt, plan);
    let (spec, app, input) = hssort_job(plan);
    let sort = rt.run_job(spec, app, input);
    let t2 = rt.now();

    record_sort_checksums(rt, &sort);
    let pre = integrity_prescan(rt);
    let validate = if pre.is_empty() {
        let (spec, app, input) = hsvalidate_job(rt, plan, &sort);
        let vres = rt.run_job(spec, app, input);
        hsvalidate_verdict(rt, plan, &vres)
    } else {
        HsValidateReport::failed(pre)
    };
    let t3 = rt.now();

    let total_s = secs_between(t0, t3);
    HsReport {
        sf_bytes: plan.sf_bytes,
        gen_s: secs_between(t0, t1),
        sort_s: secs_between(t1, t2),
        validate_s: secs_between(t2, t3),
        total_s,
        hsph: (plan.sf_bytes as f64 / 1e9) / (total_s / 3600.0),
        records: sort.outputs.len() as u64,
        validate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcluster::spec::{ClusterSpec, Placement};

    fn small_plan(seed: u64) -> HsPlan {
        HsPlan::new(200_000, 2, RootSeed(seed)).with_block_size(50_000)
    }

    fn runtime(plan: &HsPlan) -> MrRuntime {
        let spec =
            ClusterSpec::builder().hosts(2).vms(8).placement(Placement::SingleDomain).build();
        MrRuntime::new(spec, plan.hdfs_config(2), plan.seed)
    }

    #[test]
    fn records_account_exactly_100_bytes() {
        let recs = hsgen_split(RootSeed(7), 0, 50);
        assert_eq!(records_size(&recs), 50 * RECORD_BYTES);
        assert_eq!(recs[0].0.as_bytes().len(), KEY_BYTES);
        assert_eq!(hsgen_split(RootSeed(7), 0, 50), recs, "generation is deterministic");
    }

    #[test]
    fn hsgen_checksum_is_the_checksum_of_the_generated_split() {
        for seed in [0, 7, 2012] {
            for (idx, records) in [(0, 0), (0, 1), (3, 64), (17, 500)] {
                assert_eq!(
                    hsgen_checksum(RootSeed(seed), idx, records),
                    multiset_checksum(&hsgen_split(RootSeed(seed), idx, records)),
                    "seed {seed} split {idx} x {records}"
                );
            }
        }
    }

    #[test]
    fn block_summary_reads_the_strided_keys() {
        let mut recs = hsgen_split(RootSeed(5), 2, 40);
        let strided = |recs: &[Record]| -> Vec<u8> {
            recs.iter().flat_map(|(k, _)| k.as_bytes().to_vec()).collect()
        };
        let unsorted = BlockSummary::of(&strided(&recs));
        assert!(!unsorted.sorted);
        assert_eq!(unsorted.checksum, multiset_checksum(&recs));
        recs.sort_by(|a, b| a.0.cmp(&b.0));
        let sorted = BlockSummary::of(&strided(&recs));
        assert!(sorted.sorted);
        assert_eq!((sorted.records, sorted.checksum), (40, unsorted.checksum));
        assert_eq!(sorted.min, recs[0].0.as_bytes());
        assert_eq!(sorted.max, recs[39].0.as_bytes());
        assert_eq!(BlockSummary::decode(&sorted.encode()), sorted);
        let empty = BlockSummary::of(&[]);
        assert_eq!((empty.records, empty.sorted, empty.checksum), (0, true, 0));
        assert!(empty.min.is_empty() && empty.max.is_empty());
    }

    #[test]
    fn multiset_checksum_is_order_independent() {
        let mut recs = hsgen_split(RootSeed(9), 1, 64);
        let before = multiset_checksum(&recs);
        recs.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(multiset_checksum(&recs), before);
        recs[0].0 = K::Bytes(vec![0u8; KEY_BYTES]);
        assert_ne!(multiset_checksum(&recs), before, "content change must move the digest");
    }

    #[test]
    fn clean_run_passes_validation() {
        let plan = small_plan(11);
        let mut rt = runtime(&plan);
        let rep = run_tpcxhs(&mut rt, &plan);
        assert!(rep.validate.passed, "violations: {:?}", rep.validate.violations);
        assert_eq!(rep.records, plan.total_records());
        assert!(rep.hsph > 0.0);
        assert!(rep.sort_s > rep.gen_s, "sorting costs more than generating");
        assert!(rep.validate.blocks_checked >= plan.reduces as usize);
        assert_eq!(rt.hdfs.checksummed_blocks(), plan.splits() + rep.validate.blocks_checked);
    }

    /// HSValidate's verdict over a clean run's validate result after
    /// `tamper` rewrites its per-block summaries.
    fn tampered_verdict(tamper: impl FnOnce(&mut Vec<BlockSummary>)) -> HsValidateReport {
        let plan = small_plan(11);
        let mut rt = runtime(&plan);
        let (spec, app, input) = hsgen_job(&plan);
        rt.run_job(spec, app, input);
        register_hsgen(&mut rt, &plan);
        let (spec, app, input) = hssort_job(&plan);
        let sort = rt.run_job(spec, app, input);
        record_sort_checksums(&mut rt, &sort);
        let (spec, app, input) = hsvalidate_job(&rt, &plan, &sort);
        let mut vres = rt.run_job(spec, app, input);
        assert!(hsvalidate_verdict(&rt, &plan, &vres).passed, "the untampered run is clean");
        let mut summaries: Vec<BlockSummary> =
            vres.outputs.iter().map(|(_, v)| BlockSummary::decode(v)).collect();
        assert!(summaries.len() >= 3, "the fixture spans several output blocks");
        tamper(&mut summaries);
        vres.outputs =
            summaries.iter().enumerate().map(|(i, s)| (K::Int(i as i64), s.encode())).collect();
        hsvalidate_verdict(&rt, &plan, &vres)
    }

    #[test]
    fn hsvalidate_rejects_an_unsorted_block() {
        let rep = tampered_verdict(|s| s[1].sorted = false);
        assert_eq!(rep.violations, vec![HsViolation::OutOfOrder { block: 1 }]);
    }

    #[test]
    fn hsvalidate_rejects_a_descending_block_boundary() {
        let rep = tampered_verdict(|s| s[1].max = vec![0xff; KEY_BYTES]);
        assert_eq!(rep.violations, vec![HsViolation::OutOfOrder { block: 2 }]);
    }

    #[test]
    fn hsvalidate_rejects_a_dropped_block() {
        let plan = small_plan(11);
        let mut dropped = 0;
        let rep = tampered_verdict(|s| dropped = s.pop().expect("a last block").records);
        let (expected, found) = (plan.total_records(), plan.total_records() - dropped);
        assert_eq!(rep.violations[0], HsViolation::RecordCountMismatch { expected, found });
        let rest = &rep.violations[1..];
        assert!(matches!(rest, [HsViolation::ChecksumMismatch { .. }]), "got {rest:?}");
    }

    #[test]
    fn flipped_record_fails_with_checksum_mismatch() {
        let plan = small_plan(11).with_corruption(HsCorruption::FlipRecord { block: 1 });
        let mut rt = runtime(&plan);
        let rep = run_tpcxhs(&mut rt, &plan);
        assert!(!rep.validate.passed);
        assert!(
            rep.validate
                .violations
                .iter()
                .any(|v| matches!(v, HsViolation::ChecksumMismatch { .. })),
            "got {:?}",
            rep.validate.violations
        );
    }

    #[test]
    fn flipped_stored_checksum_fails_with_checksum_mismatch() {
        let plan = small_plan(11).with_corruption(HsCorruption::FlipChecksum { block: 0 });
        let mut rt = runtime(&plan);
        let rep = run_tpcxhs(&mut rt, &plan);
        assert!(!rep.validate.passed);
        assert!(
            rep.validate
                .violations
                .iter()
                .any(|v| matches!(v, HsViolation::ChecksumMismatch { .. })),
            "got {:?}",
            rep.validate.violations
        );
    }

    #[test]
    fn disaggregated_roles_run_clean() {
        let plan = small_plan(13);
        let spec =
            ClusterSpec::builder().hosts(2).vms(8).placement(Placement::SingleDomain).build();
        let datanodes: Vec<VmId> = (1..=3).map(VmId).collect();
        let trackers: Vec<VmId> = (4..8).map(VmId).collect();
        let roles = NodeRoles::separated(datanodes, trackers);
        let mut rt = MrRuntime::with_roles(spec, plan.hdfs_config(2), roles, plan.seed);
        let rep = run_tpcxhs(&mut rt, &plan);
        assert!(rep.validate.passed, "violations: {:?}", rep.validate.violations);
    }
}
