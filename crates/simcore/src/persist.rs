//! Versioned, deterministic state capture (DESIGN.md §16).
//!
//! A snapshot is a flat byte string: a 10-byte header (magic + format
//! version) followed by fields written in a fixed order by visitor-style
//! [`Persist`] implementations. The encoding has no self-description and no
//! alignment — determinism comes from three rules every implementor follows:
//!
//! 1. **Canonicalize before encode.** Lazily-compacted structures (the
//!    engine's tombstoned timer heap, the fluid completion index) are
//!    compacted *first*, so two byte-identical simulation states always
//!    produce byte-identical snapshots regardless of how much garbage each
//!    happened to carry.
//! 2. **Sort unordered containers.** `HashMap`s are encoded in ascending
//!    key order; heaps are encoded as sorted vectors.
//! 3. **Bit-exact floats.** `f64` is encoded via `to_bits` little-endian,
//!    so rates and remaining-work amounts survive the round trip exactly —
//!    the restored fluid allocation is the *same numbers*, not close ones.
//!
//! Any change to what a component encodes must bump [`SNAPSHOT_VERSION`];
//! the check.sh `snap` stage pins a golden hash to catch silent drift.

use std::collections::{HashMap, VecDeque};

/// Leading magic of every snapshot byte string.
pub const SNAPSHOT_MAGIC: [u8; 6] = *b"VHSNAP";

/// Format version written after the magic. Bump on **any** encoding change.
/// (v2: HDFS namespace gained the block-checksum side table. v3: SoA/arena
/// fluid kernel — batch/histogram counters, generation-stamped timer arena,
/// five interned kernel counter names. v4: `WhatIfOutcome` records which
/// makespan model produced each estimate. v5: the fluid net's global-solve
/// bench switch and the engine's kernel counter names are gone.)
pub const SNAPSHOT_VERSION: u32 = 5;

/// Checks the header of a snapshot byte string without constructing a
/// decoder; returns the embedded format version.
pub fn validate_header(bytes: &[u8]) -> Result<u32, String> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 {
        return Err(format!("snapshot too short: {} bytes", bytes.len()));
    }
    if bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err("bad snapshot magic (not a vHadoop snapshot)".to_string());
    }
    let mut v = [0u8; 4];
    v.copy_from_slice(&bytes[SNAPSHOT_MAGIC.len()..SNAPSHOT_MAGIC.len() + 4]);
    let version = u32::from_le_bytes(v);
    if version != SNAPSHOT_VERSION {
        return Err(format!(
            "snapshot version {version} does not match supported version {SNAPSHOT_VERSION}"
        ));
    }
    Ok(version)
}

/// Append-only byte sink. [`Encoder::new`] writes the header; components
/// then write their fields in a fixed order.
#[derive(Debug)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Encoder {
    /// Fresh encoder with the magic + version header already written.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        Encoder { buf }
    }

    /// Consumes the encoder, returning the snapshot bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` bit-exactly (`to_bits`, little-endian).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends bytes that are already in this format (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Sequential reader over snapshot bytes. Construction validates the
/// header; reads panic on truncation (a snapshot is trusted input once the
/// header checks out — corruption is a bug, not a recoverable condition).
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decoder positioned after the validated header.
    ///
    /// # Panics
    /// If the magic or version does not match (see [`validate_header`]).
    pub fn new(bytes: &'a [u8]) -> Self {
        if let Err(e) = validate_header(bytes) {
            panic!("cannot decode snapshot: {e}");
        }
        Decoder { buf: bytes, pos: SNAPSHOT_MAGIC.len() + 4 }
    }

    /// Reads the next `n` bytes as they are.
    pub fn raw(&mut self, n: usize) -> &'a [u8] {
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> u8 {
        self.raw(1)[0]
    }

    /// Reads a `u32`, little-endian.
    pub fn u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.raw(4));
        u32::from_le_bytes(b)
    }

    /// Reads a `u64`, little-endian.
    pub fn u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.raw(8));
        u64::from_le_bytes(b)
    }

    /// Reads a `usize` (stored as `u64`).
    pub fn usize(&mut self) -> usize {
        self.u64() as usize
    }

    /// Reads a bit-exact `f64`.
    pub fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }

    /// Reads a bool.
    pub fn bool(&mut self) -> bool {
        self.u8() != 0
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> String {
        let n = self.usize();
        String::from_utf8(self.raw(n).to_vec()).expect("snapshot strings are UTF-8")
    }
}

/// Visitor-style encode/decode implemented by every stateful component.
///
/// `decode` must read exactly the bytes `encode` wrote, in the same order;
/// there are no field tags. Containers with nondeterministic iteration
/// order must be written in a canonical order (see the module docs).
pub trait Persist: Sized {
    /// Appends this value's state to `e`.
    fn encode(&self, e: &mut Encoder);
    /// Reads one value back, consuming exactly what `encode` wrote.
    fn decode(d: &mut Decoder) -> Self;
}

impl Persist for u8 {
    fn encode(&self, e: &mut Encoder) {
        e.u8(*self);
    }
    fn decode(d: &mut Decoder) -> Self {
        d.u8()
    }
}

impl Persist for u32 {
    fn encode(&self, e: &mut Encoder) {
        e.u32(*self);
    }
    fn decode(d: &mut Decoder) -> Self {
        d.u32()
    }
}

impl Persist for u64 {
    fn encode(&self, e: &mut Encoder) {
        e.u64(*self);
    }
    fn decode(d: &mut Decoder) -> Self {
        d.u64()
    }
}

impl Persist for usize {
    fn encode(&self, e: &mut Encoder) {
        e.usize(*self);
    }
    fn decode(d: &mut Decoder) -> Self {
        d.usize()
    }
}

impl Persist for f64 {
    fn encode(&self, e: &mut Encoder) {
        e.f64(*self);
    }
    fn decode(d: &mut Decoder) -> Self {
        d.f64()
    }
}

impl Persist for bool {
    fn encode(&self, e: &mut Encoder) {
        e.bool(*self);
    }
    fn decode(d: &mut Decoder) -> Self {
        d.bool()
    }
}

impl Persist for String {
    fn encode(&self, e: &mut Encoder) {
        e.str(self);
    }
    fn decode(d: &mut Decoder) -> Self {
        d.str()
    }
}

impl<T: Persist> Persist for Option<T> {
    fn encode(&self, e: &mut Encoder) {
        match self {
            None => e.u8(0),
            Some(v) => {
                e.u8(1);
                v.encode(e);
            }
        }
    }
    fn decode(d: &mut Decoder) -> Self {
        match d.u8() {
            0 => None,
            _ => Some(T::decode(d)),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn encode(&self, e: &mut Encoder) {
        e.usize(self.len());
        for v in self {
            v.encode(e);
        }
    }
    fn decode(d: &mut Decoder) -> Self {
        let n = d.usize();
        (0..n).map(|_| T::decode(d)).collect()
    }
}

impl<T: Persist> Persist for VecDeque<T> {
    fn encode(&self, e: &mut Encoder) {
        e.usize(self.len());
        for v in self {
            v.encode(e);
        }
    }
    fn decode(d: &mut Decoder) -> Self {
        let n = d.usize();
        (0..n).map(|_| T::decode(d)).collect()
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn encode(&self, e: &mut Encoder) {
        self.0.encode(e);
        self.1.encode(e);
    }
    fn decode(d: &mut Decoder) -> Self {
        (A::decode(d), B::decode(d))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn encode(&self, e: &mut Encoder) {
        self.0.encode(e);
        self.1.encode(e);
        self.2.encode(e);
    }
    fn decode(d: &mut Decoder) -> Self {
        (A::decode(d), B::decode(d), C::decode(d))
    }
}

/// Maps are encoded in ascending key order so two equal maps built in
/// different insertion orders still produce identical bytes.
impl<K: Persist + Ord + std::hash::Hash + Eq, V: Persist> Persist for HashMap<K, V> {
    fn encode(&self, e: &mut Encoder) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        e.usize(entries.len());
        for (k, v) in entries {
            k.encode(e);
            v.encode(e);
        }
    }
    fn decode(d: &mut Decoder) -> Self {
        let n = d.usize();
        let mut m = HashMap::with_capacity(n);
        for _ in 0..n {
            let k = K::decode(d);
            let v = V::decode(d);
            m.insert(k, v);
        }
        m
    }
}

impl Persist for crate::time::SimTime {
    fn encode(&self, e: &mut Encoder) {
        e.u64(self.as_nanos());
    }
    fn decode(d: &mut Decoder) -> Self {
        crate::time::SimTime::from_nanos(d.u64())
    }
}

impl Persist for crate::time::SimDuration {
    fn encode(&self, e: &mut Encoder) {
        e.u64(self.as_nanos());
    }
    fn decode(d: &mut Decoder) -> Self {
        crate::time::SimDuration::from_nanos(d.u64())
    }
}

impl Persist for crate::ids::ResourceId {
    fn encode(&self, e: &mut Encoder) {
        e.u32(self.index() as u32);
    }
    fn decode(d: &mut Decoder) -> Self {
        crate::ids::ResourceId::from_index(d.u32() as usize)
    }
}

impl Persist for crate::ids::FlowId {
    fn encode(&self, e: &mut Encoder) {
        e.u32(self.slot);
        e.u32(self.gen);
    }
    fn decode(d: &mut Decoder) -> Self {
        let slot = d.u32();
        let gen = d.u32();
        crate::ids::FlowId { slot, gen }
    }
}

impl Persist for crate::ids::TimerId {
    fn encode(&self, e: &mut Encoder) {
        e.u32(self.slot);
        e.u32(self.gen);
    }
    fn decode(d: &mut Decoder) -> Self {
        let slot = d.u32();
        let gen = d.u32();
        crate::ids::TimerId { slot, gen }
    }
}

impl Persist for crate::ids::ActivityId {
    fn encode(&self, e: &mut Encoder) {
        e.u64(self.0);
    }
    fn decode(d: &mut Decoder) -> Self {
        crate::ids::ActivityId(d.u64())
    }
}

impl Persist for crate::ids::BatchId {
    fn encode(&self, e: &mut Encoder) {
        e.u64(self.0);
    }
    fn decode(d: &mut Decoder) -> Self {
        crate::ids::BatchId(d.u64())
    }
}

impl Persist for crate::ids::Tag {
    fn encode(&self, e: &mut Encoder) {
        e.u32(self.owner);
        e.u32(self.a);
        e.u64(self.b);
    }
    fn decode(d: &mut Decoder) -> Self {
        let owner = d.u32();
        let a = d.u32();
        let b = d.u64();
        crate::ids::Tag { owner, a, b }
    }
}

impl Persist for crate::fluid::Demand {
    fn encode(&self, e: &mut Encoder) {
        self.resource.encode(e);
        e.f64(self.weight);
    }
    fn decode(d: &mut Decoder) -> Self {
        let resource = crate::ids::ResourceId::decode(d);
        let weight = d.f64();
        crate::fluid::Demand { resource, weight }
    }
}

impl Persist for crate::fluid::ResourceKind {
    fn encode(&self, e: &mut Encoder) {
        use crate::fluid::ResourceKind::*;
        e.u8(match self {
            Cpu => 0,
            Disk => 1,
            Net => 2,
            Other => 3,
        });
    }
    fn decode(d: &mut Decoder) -> Self {
        use crate::fluid::ResourceKind::*;
        match d.u8() {
            0 => Cpu,
            1 => Disk,
            2 => Net,
            _ => Other,
        }
    }
}

impl Persist for crate::faults::FaultKind {
    fn encode(&self, e: &mut Encoder) {
        use crate::faults::FaultKind::*;
        match *self {
            NodeCrash { vm } => {
                e.u8(0);
                e.u32(vm);
            }
            NodeRejoin { vm } => {
                e.u8(1);
                e.u32(vm);
            }
            LinkDegrade { host, factor, duration } => {
                e.u8(2);
                e.u32(host);
                e.f64(factor);
                duration.encode(e);
            }
            SlowDisk { factor, duration } => {
                e.u8(3);
                e.f64(factor);
                duration.encode(e);
            }
            StragglerVm { vm, factor, duration } => {
                e.u8(4);
                e.u32(vm);
                e.f64(factor);
                duration.encode(e);
            }
            MigrationAbort => e.u8(5),
        }
    }
    fn decode(d: &mut Decoder) -> Self {
        use crate::faults::FaultKind::*;
        use crate::time::SimDuration;
        match d.u8() {
            0 => NodeCrash { vm: d.u32() },
            1 => NodeRejoin { vm: d.u32() },
            2 => {
                let host = d.u32();
                let factor = d.f64();
                let duration = SimDuration::decode(d);
                LinkDegrade { host, factor, duration }
            }
            3 => {
                let factor = d.f64();
                let duration = SimDuration::decode(d);
                SlowDisk { factor, duration }
            }
            4 => {
                let vm = d.u32();
                let factor = d.f64();
                let duration = SimDuration::decode(d);
                StragglerVm { vm, factor, duration }
            }
            _ => MigrationAbort,
        }
    }
}

impl Persist for crate::faults::FaultEvent {
    fn encode(&self, e: &mut Encoder) {
        self.at.encode(e);
        self.kind.encode(e);
    }
    fn decode(d: &mut Decoder) -> Self {
        let at = crate::time::SimTime::decode(d);
        let kind = crate::faults::FaultKind::decode(d);
        crate::faults::FaultEvent { at, kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Tag;
    use crate::time::{SimDuration, SimTime};

    #[test]
    fn header_round_trips() {
        let e = Encoder::new();
        let bytes = e.finish();
        assert_eq!(validate_header(&bytes), Ok(SNAPSHOT_VERSION));
        let d = Decoder::new(&bytes);
        assert!(d.is_exhausted());
    }

    #[test]
    fn header_rejects_garbage() {
        assert!(validate_header(b"short").is_err());
        assert!(validate_header(b"NOTSNAP\0\0\0\0\0\0").is_err());
        let mut bad = Encoder::new().finish();
        bad[6] = 0xFF; // clobber the version
        assert!(validate_header(&bad).unwrap_err().contains("version"));
    }

    #[test]
    fn primitives_round_trip() {
        let mut e = Encoder::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.f64(-0.1);
        e.f64(f64::NAN);
        e.bool(true);
        e.str("vm3.vcpu");
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8(), 7);
        assert_eq!(d.u32(), 0xDEAD_BEEF);
        assert_eq!(d.u64(), u64::MAX);
        assert_eq!(d.f64(), -0.1);
        assert!(d.f64().is_nan());
        assert!(d.bool());
        assert_eq!(d.str(), "vm3.vcpu");
        assert!(d.is_exhausted());
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<u64> = vec![1, 2, 3];
        let o: Option<String> = Some("x".to_string());
        let none: Option<u32> = None;
        let dq: VecDeque<u32> = [9, 8].into_iter().collect();
        let pair: (u32, SimTime) = (5, SimTime::from_secs(2));
        let mut e = Encoder::new();
        v.encode(&mut e);
        o.encode(&mut e);
        none.encode(&mut e);
        dq.encode(&mut e);
        pair.encode(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(Vec::<u64>::decode(&mut d), v);
        assert_eq!(Option::<String>::decode(&mut d), o);
        assert_eq!(Option::<u32>::decode(&mut d), none);
        assert_eq!(VecDeque::<u32>::decode(&mut d), dq);
        assert_eq!(<(u32, SimTime)>::decode(&mut d), pair);
        assert!(d.is_exhausted());
    }

    #[test]
    fn hashmap_encoding_is_insertion_order_independent() {
        let mut a: HashMap<u32, u64> = HashMap::new();
        let mut b: HashMap<u32, u64> = HashMap::new();
        for i in 0..100u32 {
            a.insert(i, u64::from(i) * 3);
        }
        for i in (0..100u32).rev() {
            b.insert(i, u64::from(i) * 3);
        }
        let enc = |m: &HashMap<u32, u64>| {
            let mut e = Encoder::new();
            m.encode(&mut e);
            e.finish()
        };
        assert_eq!(enc(&a), enc(&b), "sorted-key encoding is canonical");
        let bytes = enc(&a);
        let mut d = Decoder::new(&bytes);
        assert_eq!(HashMap::<u32, u64>::decode(&mut d), a);
    }

    #[test]
    fn sim_types_round_trip() {
        let mut e = Encoder::new();
        SimTime::from_nanos(123_456_789).encode(&mut e);
        SimDuration::from_millis(5).encode(&mut e);
        Tag::new(3, 9, 0xAB).encode(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(SimTime::decode(&mut d), SimTime::from_nanos(123_456_789));
        assert_eq!(SimDuration::decode(&mut d), SimDuration::from_millis(5));
        assert_eq!(Tag::decode(&mut d), Tag::new(3, 9, 0xAB));
    }

    #[test]
    fn fault_kinds_round_trip() {
        use crate::faults::{FaultEvent, FaultKind};
        let kinds = [
            FaultKind::NodeCrash { vm: 3 },
            FaultKind::NodeRejoin { vm: 3 },
            FaultKind::LinkDegrade { host: 1, factor: 0.25, duration: SimDuration::from_secs(2) },
            FaultKind::SlowDisk { factor: 0.5, duration: SimDuration::from_millis(300) },
            FaultKind::StragglerVm { vm: 7, factor: 0.1, duration: SimDuration::from_secs(1) },
            FaultKind::MigrationAbort,
        ];
        let events: Vec<FaultEvent> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| FaultEvent { at: SimTime::from_secs(i as u64), kind })
            .collect();
        let mut e = Encoder::new();
        events.encode(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(Vec::<FaultEvent>::decode(&mut d), events);
    }
}
