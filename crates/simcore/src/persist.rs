//! Versioned, deterministic state capture (DESIGN.md §16).
//!
//! A snapshot is a flat byte string: a 10-byte header (magic + format
//! version) followed by fields written in a fixed order. The encoding has no
//! field tags and no alignment — the order *is* the format, so every
//! persisted type states its field order exactly once, as a field list:
//!
//! * [`persist_struct!`](crate::persist_struct)`(Tag { owner, a, b })`, or
//!   `(BlockId(0))` for a tuple struct: [`Persist::encode`] writes the
//!   listed fields in order and [`Persist::decode`] reads them back through
//!   a struct literal written in the same order (Rust evaluates
//!   struct-literal fields in the order written). Every field must be
//!   listed, or the literal does not compile.
//! * [`persist_enum!`](crate::persist_enum)`(TaskPhase { 0 => Pending, 1 =>
//!   Running(vm), 2 => Done })`: one tag byte, then the variant's fields in
//!   order. Tuple and struct variants name their fields (`Running(vm)`,
//!   `Flow { demands, work }`). An unknown tag panics naming the type and
//!   the byte offset.
//! * [`persist_state!`](crate::persist_state)`(Monitor { samples, timer })`:
//!   a subsystem's `encode_state` / `restore_state` pair over the listed
//!   fields. The fields it leaves out are launch-derived: restore relaunches
//!   from the snapshot's config, which re-derives them identically.
//!
//! The fields themselves go through the [`Persist`] impls of this module:
//! integers little-endian (`usize` as `u64`, `i64` as its `u64` bits),
//! `f64` bit-exactly via `to_bits` (the restored fluid allocation is the
//! *same numbers*, not close ones), `bool` as one byte, strings and
//! sequences length-prefixed, `Option` as a 0/1 byte then the value, arrays
//! and tuples as their elements, and maps in ascending key order (two equal
//! maps built in different insertion orders encode identically).
//!
//! An `Rc` is not bytes but a handle: the [`Encoder`] records a clone of
//! it in a handle table ([`Handles`]) and writes its index, and a
//! [`Decoder`] built over the bytes plus that table
//! ([`Decoder::with_handles`]) clones the same `Rc` back. Only user code is
//! held in an `Rc` (a job's map/reduce code, input format and partitioner,
//! a deferred submission), so it crosses a snapshot in-band, in the field
//! lists of the state that holds it, and a restore shares it with the
//! original: it is `&self`-only, immutable and deterministic.
//!
//! A codec is written by hand only where the bytes are not a field list,
//! and each such site says why in a `// codec by hand: <reason>` line
//! (`scripts/check.sh` fails on a hand-written codec without one): the
//! engine's event heap and the fluid completion index (canonicalized —
//! lazily deferred garbage dropped — then written in sorted order), the
//! fluid net's SoA arena, the `Rc` handle, `&'static str` fields (HDFS op
//! kinds, throttle names), RNG state, `Run`/`Partition`, shared bytes,
//! and short text keys.
//!
//! Malformed bytes fail in [`Decoder`]: a short read (or a sequence length
//! beyond the bytes left) panics with "snapshot truncated at byte N, need
//! M", an unknown enum or `Option` tag with the type's name and the tag's
//! offset, and a handle index beyond the table or naming an `Rc` of
//! another type with the index's offset. Any change to what a component
//! encodes must bump [`SNAPSHOT_VERSION`]; the golden hashes in
//! `tests/tests/snapshot_roundtrip.rs` catch silent drift.

use std::any::Any;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::rc::Rc;
use std::sync::Arc;

/// Leading magic of every snapshot byte string.
pub const SNAPSHOT_MAGIC: [u8; 6] = *b"VHSNAP";

/// Format version written after the magic. Bump on **any** encoding change.
/// (v2: HDFS namespace gained the block-checksum side table. v3: SoA/arena
/// fluid kernel — batch/histogram counters, generation-stamped timer arena,
/// five interned kernel counter names. v4: `WhatIfOutcome` records which
/// makespan model produced each estimate. v5: the fluid net's global-solve
/// bench switch and the engine's kernel counter names are gone. v6: the
/// lazy fluid clock — per-flow and per-resource settle instants and the
/// `flows_settled` counter. v7: a job's config keeps only the four values
/// a job chooses; slots, launch timings, output replication and the
/// scheduler policy are no longer per job. v8: the controller counters
/// lose the consolidation count. v9: the JobTracker writes one slot ledger
/// (live trackers, dense live/map/reduce tables) and one record per map
/// and reduce task, where it wrote the tracker list, two hashed slot tables
/// and fourteen per-task columns. v10: the timer arena is gone — heap
/// entries carry the user timer's tag or the delaying chain, a wakeup no
/// timer id, and an activity how it ends: its client's tag or its batch.
/// v11: user code is an `Rc` handle in the stream — a job's app, input and
/// partitioner and a deferred job's submission sit in their owners' field
/// lists; a map-only job writes its outputs as any job does; the fluid
/// net drops its unread resource-visit count; `SchedulerPolicy::JobDriven`
/// is tag 1. v12: a job's config writes three values (map placement is
/// always locality-first), and a throttled resource's name is a tag byte.
/// v13: a live flow and a `Step::Flow` write resource ids only (demands
/// carry no weight), and the controller writes no energy meter. v14: the
/// controller writes one record per job and a queue of job ids, where it
/// wrote future arrivals, queued jobs, SLO records, a per-tenant start
/// count and five job counters.)
pub const SNAPSHOT_VERSION: u32 = 14;

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

/// The `Rc`s a snapshot carries beside its bytes, in the order they were
/// encoded; the bytes hold each one's index (see the module docs).
pub type Handles = Vec<Rc<dyn Any>>;

/// Append-only byte sink. [`Encoder::new`] writes the header; components
/// then write their fields in a fixed order.
#[derive(Debug)]
pub struct Encoder {
    buf: Vec<u8>,
    handles: Handles,
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
        Encoder { buf, handles: Handles::new() }
    }

    /// Consumes the encoder, returning the snapshot bytes.
    ///
    /// # Panics
    /// If an `Rc` was encoded: its handle would be lost (use
    /// [`Encoder::finish_with_handles`]).
    pub fn finish(self) -> Vec<u8> {
        assert!(self.handles.is_empty(), "{} Rc handles encoded", self.handles.len());
        self.buf
    }

    /// Consumes the encoder, returning the snapshot bytes and the handle
    /// table a [`Decoder::with_handles`] reads them with.
    pub fn finish_with_handles(self) -> (Vec<u8>, Handles) {
        (self.buf, self.handles)
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
/// header; a short read or an unknown tag panics here, naming the byte
/// offset (a snapshot is trusted input once the header checks out —
/// corruption is a bug, not a recoverable condition).
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    handles: &'a [Rc<dyn Any>],
}

impl<'a> Decoder<'a> {
    /// Decoder over bytes that hold no `Rc` handle, positioned after the
    /// validated header.
    ///
    /// # Panics
    /// If the magic or version does not match (see [`validate_header`]).
    pub fn new(bytes: &'a [u8]) -> Self {
        Self::with_handles(bytes, &[])
    }

    /// Decoder over bytes and the handle table they were encoded with
    /// ([`Encoder::finish_with_handles`]).
    ///
    /// # Panics
    /// If the magic or version does not match (see [`validate_header`]).
    pub fn with_handles(bytes: &'a [u8], handles: &'a [Rc<dyn Any>]) -> Self {
        if let Err(e) = validate_header(bytes) {
            panic!("cannot decode snapshot: {e}");
        }
        Decoder { buf: bytes, pos: SNAPSHOT_MAGIC.len() + 4, handles }
    }

    /// Reads the next `n` bytes as they are.
    ///
    /// # Panics
    /// If fewer than `n` bytes are left.
    #[inline]
    pub fn raw(&mut self, n: usize) -> &'a [u8] {
        let Some(s) = self.buf.get(self.pos..self.pos.wrapping_add(n)) else { self.truncated(n) };
        self.pos += n;
        s
    }

    #[cold]
    #[inline(never)]
    fn truncated(&self, n: usize) -> ! {
        panic!("snapshot truncated at byte {}, need {n}", self.pos)
    }

    /// Rejects the tag byte just read: no variant of `ty` owns it.
    pub fn unknown_tag(&self, ty: &str, tag: u8) -> ! {
        panic!("snapshot corrupt: unknown {ty} tag {tag} at byte {}", self.pos - 1)
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Reads a sequence length. Every element takes at least one byte, so
    /// a length beyond the bytes left is a truncated snapshot, rejected
    /// before anything is reserved for it.
    fn seq_len(&mut self) -> usize {
        let n = self.usize();
        if n > self.buf.len() - self.pos {
            self.truncated(n);
        }
        n
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> u8 {
        let Some(&b) = self.buf.get(self.pos) else { self.truncated(1) };
        self.pos += 1;
        b
    }

    /// Reads a `u32`, little-endian.
    #[inline]
    pub fn u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.raw(4));
        u32::from_le_bytes(b)
    }

    /// Reads a `u64`, little-endian.
    #[inline]
    pub fn u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.raw(8));
        u64::from_le_bytes(b)
    }

    /// Reads a `usize` (stored as `u64`).
    #[inline]
    pub fn usize(&mut self) -> usize {
        self.u64() as usize
    }

    /// Reads a bit-exact `f64`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }

    /// Reads a bool.
    pub fn bool(&mut self) -> bool {
        self.u8() != 0
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> String {
        self.str_ref().to_owned()
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the snapshot.
    pub fn str_ref(&mut self) -> &'a str {
        let n = self.usize();
        std::str::from_utf8(self.raw(n)).expect("snapshot strings are UTF-8")
    }
}

/// Visitor-style encode/decode implemented by every stateful component.
///
/// `decode` must read exactly the bytes `encode` wrote, in the same order;
/// there are no field tags. Containers with nondeterministic iteration
/// order must be written in a canonical order (see the module docs).
/// Prefer [`persist_struct!`](crate::persist_struct) and
/// [`persist_enum!`](crate::persist_enum) to a hand-written impl.
// trait: every crate's snapshot codecs, mostly through `persist_struct!`/`persist_enum!`
pub trait Persist: Sized {
    /// Appends this value's state to `e`.
    fn encode(&self, e: &mut Encoder);
    /// Reads one value back, consuming exactly what `encode` wrote.
    fn decode(d: &mut Decoder) -> Self;
}

/// Implements [`Persist`] for a struct from its field list (see the
/// module docs): `persist_struct!(Tag { owner, a, b })` for named fields,
/// `persist_struct!(BlockId(0))` for a tuple struct.
#[macro_export]
macro_rules! persist_struct {
    ($ty:ident ( $($field:tt),+ )) => {
        $crate::persist_struct!($ty { $($field),+ });
    };
    ($ty:ident { $($field:tt),+ $(,)? }) => {
        impl $crate::persist::Persist for $ty {
            fn encode(&self, e: &mut $crate::persist::Encoder) {
                $($crate::persist::Persist::encode(&self.$field, e);)+
            }
            fn decode(d: &mut $crate::persist::Decoder) -> Self {
                $ty { $($field: $crate::persist::Persist::decode(d)),+ }
            }
        }
    };
}

/// Implements [`Persist`] for an enum from explicit `tag => Variant` arms
/// (see the module docs): one tag byte, then the variant's named fields in
/// order. Decoding an unknown tag panics naming the type.
#[macro_export]
macro_rules! persist_enum {
    ($ty:ident {
        $($tag:literal => $variant:ident $(( $($a:ident),+ ))? $({ $($f:ident),+ })?),+ $(,)?
    }) => {
        impl $crate::persist::Persist for $ty {
            fn encode(&self, e: &mut $crate::persist::Encoder) {
                match self {
                    $(Self::$variant $(( $($a),+ ))? $({ $($f),+ })? => {
                        e.u8($tag);
                        $($($crate::persist::Persist::encode($a, e);)+)?
                        $($($crate::persist::Persist::encode($f, e);)+)?
                    })+
                }
            }
            fn decode(d: &mut $crate::persist::Decoder) -> Self {
                match d.u8() {
                    $($tag => {
                        $($(let $a = $crate::persist::Persist::decode(d);)+)?
                        $($(let $f = $crate::persist::Persist::decode(d);)+)?
                        Self::$variant $(( $($a),+ ))? $({ $($f),+ })?
                    })+
                    other => d.unknown_tag(stringify!($ty), other),
                }
            }
        }
    };
}

/// Generates a subsystem's `encode_state` / `restore_state` pair over the
/// listed fields (see the module docs); the fields left out are
/// launch-derived.
#[macro_export]
macro_rules! persist_state {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $ty {
            /// Appends this subsystem's dynamic state to a snapshot; its
            /// launch-derived fields are not written.
            pub fn encode_state(&self, e: &mut $crate::persist::Encoder) {
                $($crate::persist::Persist::encode(&self.$field, e);)+
            }
            /// Overwrites the dynamic state written by `encode_state`,
            /// keeping the launch-derived fields of this relaunched value.
            pub fn restore_state(&mut self, d: &mut $crate::persist::Decoder) {
                $(self.$field = $crate::persist::Persist::decode(d);)+
            }
        }
    };
}

/// Scalars that map one-to-one onto an [`Encoder`]/[`Decoder`] method.
macro_rules! persist_scalar {
    ($($ty:ty => $rw:ident),+) => {$(
        impl Persist for $ty {
            #[inline]
            fn encode(&self, e: &mut Encoder) {
                e.$rw(*self);
            }
            #[inline]
            fn decode(d: &mut Decoder) -> Self {
                d.$rw()
            }
        }
    )+};
}

persist_scalar!(u8 => u8, u32 => u32, u64 => u64, usize => usize, f64 => f64, bool => bool);

/// Written as its `u64` bits, as the record keys and values always were.
impl Persist for i64 {
    fn encode(&self, e: &mut Encoder) {
        e.u64(*self as u64);
    }
    fn decode(d: &mut Decoder) -> Self {
        d.u64() as i64
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

/// Interned names; they decode as owned strings.
impl Persist for Cow<'static, str> {
    fn encode(&self, e: &mut Encoder) {
        e.str(self);
    }
    fn decode(d: &mut Decoder) -> Self {
        Cow::Owned(d.str())
    }
}

/// Shared bytes encode as the `Vec<u8>` they stand for: a length, then the
/// bytes. Sharing is not recorded: each decoded payload is an allocation
/// of its own.
// codec by hand: the bytes go in one copy, not one `u8` encode each
impl Persist for Arc<[u8]> {
    fn encode(&self, e: &mut Encoder) {
        e.usize(self.len());
        e.raw(self);
    }
    fn decode(d: &mut Decoder) -> Self {
        let n = d.usize();
        Arc::from(d.raw(n))
    }
}

/// A box is encoded as what it holds.
impl<T: Persist> Persist for Box<T> {
    fn encode(&self, e: &mut Encoder) {
        (**self).encode(e);
    }
    fn decode(d: &mut Decoder) -> Self {
        Box::new(T::decode(d))
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
            1 => Some(T::decode(d)),
            other => d.unknown_tag("Option", other),
        }
    }
}

/// Length-prefixed sequences.
macro_rules! persist_seq {
    ($($seq:ident),+) => {$(
        impl<T: Persist> Persist for $seq<T> {
            fn encode(&self, e: &mut Encoder) {
                e.usize(self.len());
                for v in self {
                    v.encode(e);
                }
            }
            fn decode(d: &mut Decoder) -> Self {
                (0..d.seq_len()).map(|_| T::decode(d)).collect()
            }
        }
    )+};
}

persist_seq!(Vec, VecDeque);

/// Fixed-size arrays carry no length prefix.
impl<T: Persist, const N: usize> Persist for [T; N] {
    fn encode(&self, e: &mut Encoder) {
        for v in self {
            v.encode(e);
        }
    }
    fn decode(d: &mut Decoder) -> Self {
        std::array::from_fn(|_| T::decode(d))
    }
}

/// Tuples are their elements in order.
macro_rules! persist_tuple {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Persist),+> Persist for ($($t,)+) {
            fn encode(&self, e: &mut Encoder) {
                $(self.$i.encode(e);)+
            }
            fn decode(d: &mut Decoder) -> Self {
                ($($t::decode(d),)+)
            }
        }
    };
}

persist_tuple!(A 0, B 1);
persist_tuple!(A 0, B 1, C 2);
persist_tuple!(A 0, B 1, C 2, D 3);

/// Maps are encoded in ascending key order so two equal maps built in
/// different insertion orders still produce identical bytes.
impl<K: Persist + Ord + Hash, V: Persist, S: BuildHasher + Default> Persist for HashMap<K, V, S> {
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
        (0..d.seq_len()).map(|_| <(K, V)>::decode(d)).collect()
    }
}

/// In key order, as a `HashMap` is.
impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    fn encode(&self, e: &mut Encoder) {
        e.usize(self.len());
        for (k, v) in self {
            k.encode(e);
            v.encode(e);
        }
    }
    fn decode(d: &mut Decoder) -> Self {
        (0..d.seq_len()).map(|_| <(K, V)>::decode(d)).collect()
    }
}

/// An `Rc` is its index in the handle table: encoding records a clone of
/// it, decoding clones the very same `Rc` back, so what a parent shares
/// with its restores is the pointee itself (user code, which is not bytes).
// codec by hand: an index into the handle table, not the pointee's bytes
impl<T: ?Sized + 'static> Persist for Rc<T> {
    fn encode(&self, e: &mut Encoder) {
        e.usize(e.handles.len());
        e.handles.push(Rc::new(Rc::clone(self)));
    }
    fn decode(d: &mut Decoder) -> Self {
        let at = d.pos;
        let i = d.usize();
        let n = d.handles.len();
        let Some(handle) = d.handles.get(i) else {
            panic!("snapshot corrupt: handle {i} at byte {at} is beyond {n} handles")
        };
        match handle.downcast_ref::<Rc<T>>() {
            Some(rc) => Rc::clone(rc),
            None => panic!(
                "snapshot corrupt: handle {i} at byte {at} is not an {}",
                std::any::type_name::<Rc<T>>()
            ),
        }
    }
}

// codec by hand: RNG state — the generator's four state words, in order
impl Persist for rand::rngs::StdRng {
    fn encode(&self, e: &mut Encoder) {
        self.state().encode(e);
    }
    fn decode(d: &mut Decoder) -> Self {
        rand::rngs::StdRng::from_state(Persist::decode(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Tag;
    use crate::time::{SimDuration, SimTime};

    fn bytes_of<T: Persist>(v: &T) -> Vec<u8> {
        let mut e = Encoder::new();
        v.encode(&mut e);
        e.finish()
    }

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = bytes_of(&v);
        let mut d = Decoder::new(&bytes);
        assert_eq!(T::decode(&mut d), v);
        assert!(d.is_exhausted());
    }

    /// Decodes a `T` from `body` written after a valid header.
    fn decode_body<T: Persist>(body: &[u8]) -> T {
        let mut bytes = Encoder::new().finish();
        bytes.extend_from_slice(body);
        T::decode(&mut Decoder::new(&bytes))
    }

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
    fn arrays_and_signed_integers_match_their_hand_written_bytes() {
        let arr = [Some(3u32), None];
        let mut e = Encoder::new();
        e.u8(1);
        e.u32(3);
        e.u8(0);
        assert_eq!(bytes_of(&arr), e.finish(), "an array has no length prefix");
        let mut e = Encoder::new();
        e.u64(-7i64 as u64);
        assert_eq!(bytes_of(&-7i64), e.finish(), "i64 is its u64 bits");
        round_trip(arr);
        round_trip([(1u8, 0.5f64); 4]);
        round_trip(i64::MIN);
        round_trip(Cow::<'static, str>::Borrowed("pm0.nic"));
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
        assert_eq!(bytes_of(&a), bytes_of(&b), "sorted-key encoding is canonical");
        let bytes = bytes_of(&a);
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
        round_trip(events);
    }

    #[derive(Debug, PartialEq)]
    struct Named {
        id: u32,
        at: SimTime,
        tags: Vec<Tag>,
        shape: Shape,
    }
    crate::persist_struct!(Named { id, at, tags, shape });

    #[derive(Debug, PartialEq)]
    struct Pair(u64, Option<u8>);
    crate::persist_struct!(Pair(0, 1));

    #[derive(Debug, PartialEq)]
    enum Shape {
        Empty,
        Line(u32, f64),
        Rect { w: u32, h: u32 },
    }
    crate::persist_enum!(Shape { 0 => Empty, 1 => Line(len, weight), 7 => Rect { w, h } });

    #[derive(Debug, Default, PartialEq)]
    struct Subsystem {
        launched: u32,
        clock: SimTime,
        seen: Vec<u64>,
    }
    crate::persist_state!(Subsystem { clock, seen });

    #[test]
    fn macros_round_trip_and_write_the_hand_written_field_sequence() {
        let v = Named {
            id: 9,
            at: SimTime::from_nanos(5),
            tags: vec![Tag::new(1, 2, 3)],
            shape: Shape::Rect { w: 4, h: 6 },
        };
        let mut e = Encoder::new();
        e.u32(9);
        e.u64(5);
        e.usize(1);
        e.u32(1);
        e.u32(2);
        e.u64(3);
        e.u8(7);
        e.u32(4);
        e.u32(6);
        assert_eq!(bytes_of(&v), e.finish());
        round_trip(v);

        let mut e = Encoder::new();
        e.u64(u64::MAX);
        e.u8(1);
        e.u8(4);
        assert_eq!(bytes_of(&Pair(u64::MAX, Some(4))), e.finish());
        round_trip(Pair(u64::MAX, Some(4)));

        let mut e = Encoder::new();
        e.u8(0);
        e.u8(1);
        e.u32(2);
        e.f64(0.5);
        assert_eq!(bytes_of(&(Shape::Empty, Shape::Line(2, 0.5))), e.finish());
        for s in [Shape::Empty, Shape::Line(2, -0.5), Shape::Rect { w: 1, h: 0 }] {
            round_trip(s);
        }

        let live = Subsystem { launched: 1, clock: SimTime::from_secs(3), seen: vec![4, 2] };
        let mut e = Encoder::new();
        live.encode_state(&mut e);
        let bytes = e.finish();
        let mut hand = Encoder::new();
        hand.u64(3_000_000_000);
        hand.usize(2);
        hand.u64(4);
        hand.u64(2);
        assert_eq!(bytes, hand.finish(), "launch-derived `launched` is not written");
        let mut relaunched = Subsystem { launched: 8, ..Subsystem::default() };
        let mut d = Decoder::new(&bytes);
        relaunched.restore_state(&mut d);
        assert!(d.is_exhausted());
        assert_eq!(relaunched, Subsystem { launched: 8, ..live });
    }

    #[test]
    #[should_panic(expected = "snapshot corrupt: unknown Shape tag 2 at byte 30")]
    fn a_struct_rejects_a_bad_tag_in_its_fields() {
        // id, at and an empty tag list (20 bytes), then the shape's tag.
        let mut body = vec![0; 20];
        body.push(2);
        decode_body::<Named>(&body);
    }

    #[test]
    #[should_panic(expected = "snapshot corrupt: unknown Shape tag 3 at byte 10")]
    fn a_tuple_variant_rejects_a_bad_tag() {
        decode_body::<Shape>(&[3, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "snapshot corrupt: unknown Shape tag 6 at byte 10")]
    fn a_struct_variant_rejects_a_bad_tag() {
        decode_body::<Shape>(&[6, 1, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "snapshot corrupt: unknown Option tag 2 at byte 10")]
    fn option_rejects_a_presence_byte_other_than_0_or_1() {
        decode_body::<Option<u8>>(&[2, 5]);
    }

    #[test]
    #[should_panic(expected = "snapshot corrupt: unknown ResourceKind tag 4 at byte 10")]
    fn resource_kind_rejects_an_unknown_tag() {
        decode_body::<crate::fluid::ResourceKind>(&[4]);
    }

    #[test]
    #[should_panic(expected = "snapshot corrupt: unknown FaultKind tag 6 at byte 10")]
    fn fault_kind_rejects_an_unknown_tag() {
        decode_body::<crate::faults::FaultKind>(&[6]);
    }

    #[test]
    #[should_panic(expected = "snapshot truncated at byte 14, need 8")]
    fn a_truncated_read_names_the_offset() {
        decode_body::<(u32, u64)>(&[1, 0, 0, 0, 9, 9]);
    }

    #[test]
    #[should_panic(expected = "snapshot truncated at byte 18, need 18446744073709551615")]
    fn a_corrupt_length_fails_as_a_truncated_read() {
        decode_body::<Vec<u64>>(&u64::MAX.to_le_bytes());
    }

    #[test]
    fn btreemap_encodes_as_the_equal_hashmap() {
        let tree: BTreeMap<u32, String> = (0..20).map(|i| (i * 7 % 20, format!("v{i}"))).collect();
        let hashed: HashMap<u32, String> = tree.clone().into_iter().collect();
        assert_eq!(bytes_of(&tree), bytes_of(&hashed));
        round_trip(tree);
    }

    /// Code held in an `Rc`, as a job's user code is.
    trait Code {
        fn run(&self) -> u32;
    }
    struct Adder(u32);
    impl Code for Adder {
        fn run(&self) -> u32 {
            self.0 + 1
        }
    }

    struct Holder {
        id: u32,
        code: Rc<dyn Code>,
        also: Option<Rc<dyn Code>>,
    }
    crate::persist_struct!(Holder { id, code, also });

    fn holder() -> Holder {
        let code: Rc<dyn Code> = Rc::new(Adder(4));
        Holder { id: 3, also: Some(Rc::clone(&code)), code }
    }

    #[test]
    fn an_rc_decodes_to_the_one_encoded() {
        let v = holder();
        let mut e = Encoder::new();
        v.encode(&mut e);
        let (bytes, handles) = e.finish_with_handles();
        assert_eq!(handles.len(), 2, "one table entry per encoded Rc");
        let mut d = Decoder::with_handles(&bytes, &handles);
        let back = Holder::decode(&mut d);
        assert!(d.is_exhausted());
        assert_eq!(back.id, 3);
        assert!(Rc::ptr_eq(&back.code, &v.code));
        assert!(Rc::ptr_eq(back.also.as_ref().unwrap(), &v.code));
        assert_eq!(back.code.run(), 5);
    }

    #[test]
    fn two_encodes_of_one_state_give_equal_bytes_and_tables() {
        let v = holder();
        let encode = || {
            let mut e = Encoder::new();
            v.encode(&mut e);
            e.finish_with_handles()
        };
        let ((a, ta), (b, tb)) = (encode(), encode());
        assert_eq!(a, b);
        assert_eq!(ta.len(), tb.len());
    }

    #[test]
    #[should_panic(expected = "Rc handles encoded")]
    fn finish_refuses_to_drop_handles() {
        let mut e = Encoder::new();
        holder().encode(&mut e);
        e.finish();
    }

    /// `Holder`'s bytes with its first handle index replaced by `index`,
    /// decoded over a table of `handles`.
    fn decode_holder_with(index: u64, handles: &[Rc<dyn Any>]) -> Holder {
        let mut e = Encoder::new();
        e.u32(3);
        e.u64(index);
        e.u8(0);
        Holder::decode(&mut Decoder::with_handles(&e.finish(), handles))
    }

    #[test]
    #[should_panic(expected = "snapshot corrupt: handle 7 at byte 14 is beyond 1 handles")]
    fn a_handle_index_beyond_the_table_is_rejected() {
        let code: Rc<dyn Code> = Rc::new(Adder(0));
        decode_holder_with(7, &[Rc::new(code)]);
    }

    #[test]
    #[should_panic(expected = "snapshot corrupt: handle 0 at byte 14 is not an alloc::rc::Rc<dyn")]
    fn a_handle_of_another_type_is_rejected() {
        decode_holder_with(0, &[Rc::new(Rc::new(1u32))]);
    }
}
