//! Keys and values flowing through MapReduce jobs.
//!
//! The engine *really executes* user map/reduce code, so records carry real
//! data. Keys ([`K`]) are the orderable/hashable subset (grouping and
//! sorting need `Ord + Hash`); values ([`V`]) additionally carry numeric
//! vectors and tuples for the machine-learning jobs. [`K::size_bytes`] /
//! [`V::size_bytes`] estimate serialized size, which drives the fluid flow
//! sizes (spill, shuffle, output) of the simulation.
//!
//! A record owns no heap object it does not need (DESIGN.md §20): a text
//! key of up to [`INLINE_TEXT`] bytes is held in the key itself, and a
//! [`V::Bytes`] payload is shared, so a clone is a reference-count bump.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// Bytes a [`KeyText`] holds in place: the 24 bytes a `String` takes, less
/// the length byte and the tag of the inline-or-heap choice, so that [`K`]
/// stays 32 bytes.
pub const INLINE_TEXT: usize = 22;

/// The text of a [`K::Text`]: up to [`INLINE_TEXT`] bytes in place, longer
/// text in one heap object. It compares, hashes, shows (`Debug`) and
/// encodes as the `str` it holds, so a key means what the `String` it
/// replaced meant, byte for byte.
#[derive(Clone)]
pub struct KeyText(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE_TEXT] },
    Heap(Box<str>),
}

impl KeyText {
    /// Key text holding `s`.
    pub fn new(s: &str) -> Self {
        if s.len() > INLINE_TEXT {
            return KeyText(Repr::Heap(s.into()));
        }
        let mut buf = [0; INLINE_TEXT];
        buf[..s.len()].copy_from_slice(s.as_bytes());
        KeyText(Repr::Inline { len: s.len() as u8, buf })
    }

    /// The UTF-8 bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => std::str::from_utf8(self.as_bytes()).expect("built from a str"),
            Repr::Heap(s) => s,
        }
    }
}

impl Deref for KeyText {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for KeyText {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for KeyText {}

impl PartialOrd for KeyText {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Byte-wise, as `str` orders.
impl Ord for KeyText {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for KeyText {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for KeyText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A record key. Orderable, hashable; a clone allocates only for text
/// longer than [`INLINE_TEXT`] bytes and for byte keys.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum K {
    /// Integer key (cluster ids, offsets).
    Int(i64),
    /// Text key (words, paths).
    Text(KeyText),
    /// Raw bytes (TeraSort keys, hash signatures).
    Bytes(Vec<u8>),
}

impl K {
    /// Estimated serialized size in bytes.
    pub fn size_bytes(&self) -> u64 {
        match self {
            K::Int(_) => 8,
            K::Text(s) => s.len() as u64 + 4,
            K::Bytes(b) => b.len() as u64 + 4,
        }
    }

    /// Stable hash used by the default partitioner.
    pub fn stable_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }

    /// Borrow as text.
    ///
    /// # Panics
    /// If the key is not [`K::Text`].
    pub fn as_text(&self) -> &str {
        match self {
            K::Text(s) => s,
            other => panic!("expected text key, got {other:?}"),
        }
    }

    /// Borrow as integer.
    ///
    /// # Panics
    /// If the key is not [`K::Int`].
    pub fn as_int(&self) -> i64 {
        match self {
            K::Int(i) => *i,
            other => panic!("expected int key, got {other:?}"),
        }
    }

    /// Borrow as bytes.
    ///
    /// # Panics
    /// If the key is not [`K::Bytes`].
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            K::Bytes(b) => b,
            other => panic!("expected bytes key, got {other:?}"),
        }
    }
}

impl From<&str> for K {
    fn from(s: &str) -> K {
        K::Text(KeyText::new(s))
    }
}

impl From<i64> for K {
    fn from(i: i64) -> K {
        K::Int(i)
    }
}

/// A record value.
#[derive(Debug, Clone, PartialEq)]
pub enum V {
    /// Absent value (counting-style jobs use the key only).
    Null,
    /// Integer (counts).
    Int(i64),
    /// Floating-point scalar.
    Float(f64),
    /// Text payload (lines of input).
    Text(String),
    /// Raw bytes (TeraSort payloads), immutable and shared: a clone is a
    /// reference-count bump, and one buffer can back many records.
    Bytes(Arc<[u8]>),
    /// Dense numeric vector (ML feature vectors).
    Vector(Vec<f64>),
    /// Heterogeneous tuple (partial sums, model fragments).
    Tuple(Vec<V>),
}

impl V {
    /// Estimated serialized size in bytes.
    pub fn size_bytes(&self) -> u64 {
        match self {
            V::Null => 1,
            V::Int(_) => 8,
            V::Float(_) => 8,
            V::Text(s) => s.len() as u64 + 4,
            V::Bytes(b) => b.len() as u64 + 4,
            V::Vector(v) => v.len() as u64 * 8 + 4,
            V::Tuple(t) => t.iter().map(V::size_bytes).sum::<u64>() + 4,
        }
    }

    /// Borrow as integer.
    ///
    /// # Panics
    /// If not [`V::Int`].
    pub fn as_int(&self) -> i64 {
        match self {
            V::Int(i) => *i,
            other => panic!("expected int value, got {other:?}"),
        }
    }

    /// Borrow as float.
    ///
    /// # Panics
    /// If not [`V::Float`].
    pub fn as_float(&self) -> f64 {
        match self {
            V::Float(f) => *f,
            other => panic!("expected float value, got {other:?}"),
        }
    }

    /// Borrow as text.
    ///
    /// # Panics
    /// If not [`V::Text`].
    pub fn as_text(&self) -> &str {
        match self {
            V::Text(s) => s,
            other => panic!("expected text value, got {other:?}"),
        }
    }

    /// Borrow as vector.
    ///
    /// # Panics
    /// If not [`V::Vector`].
    pub fn as_vector(&self) -> &[f64] {
        match self {
            V::Vector(v) => v,
            other => panic!("expected vector value, got {other:?}"),
        }
    }

    /// Borrow as tuple.
    ///
    /// # Panics
    /// If not [`V::Tuple`].
    pub fn as_tuple(&self) -> &[V] {
        match self {
            V::Tuple(t) => t,
            other => panic!("expected tuple value, got {other:?}"),
        }
    }
}

impl From<i64> for V {
    fn from(i: i64) -> V {
        V::Int(i)
    }
}

impl From<f64> for V {
    fn from(f: f64) -> V {
        V::Float(f)
    }
}

impl From<&str> for V {
    fn from(s: &str) -> V {
        V::Text(s.to_string())
    }
}

impl From<Vec<f64>> for V {
    fn from(v: Vec<f64>) -> V {
        V::Vector(v)
    }
}

/// One key/value record.
pub type Record = (K, V);

/// Total estimated size of a record set in bytes.
pub fn records_size(records: &[Record]) -> u64 {
    records.iter().map(|(k, v)| k.size_bytes() + v.size_bytes()).sum()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Byte lengths around [`INLINE_TEXT`] that the pinned keys take.
    const LENGTHS: [usize; 6] = [0, 1, 21, 22, 23, 40];

    /// Text keys of [`LENGTHS`] bytes and one of multi-byte UTF-8, then
    /// byte keys of [`LENGTHS`] bytes: the keys whose hashes, partitions,
    /// `Debug` strings and encodings are pinned to what they were when
    /// keys were a `String` or `Vec<u8>`.
    pub(crate) fn edge_keys() -> Vec<K> {
        const ALPHA: &str = "abcdefghijklmnopqrstuvwxyz0123456789ABCD";
        let text = LENGTHS.iter().map(|&n| K::from(&ALPHA[..n]));
        let bytes =
            LENGTHS.iter().map(|&n| K::Bytes((0..n).map(|i| (i * 37 + 11) as u8).collect()));
        text.chain([K::from("Grüße aus 東京")]).chain(bytes).collect()
    }

    /// The variant tag and payload bytes of a text or byte key.
    pub(crate) fn tag_and_payload(key: &K) -> (u8, Vec<u8>) {
        match key {
            K::Text(s) => (1, s.as_bytes().to_vec()),
            K::Bytes(b) => (2, b.clone()),
            K::Int(_) => unreachable!("no integer keys here"),
        }
    }

    #[test]
    fn key_ordering_and_hash() {
        assert!(K::Int(1) < K::Int(2));
        assert!(K::from("a") < K::from("b"));
        assert_eq!(K::from("x").stable_hash(), K::from("x").stable_hash());
        assert_ne!(K::from("x").stable_hash(), K::from("y").stable_hash());
        let hashes: Vec<u64> = edge_keys().iter().map(K::stable_hash).collect();
        assert_eq!(
            hashes,
            [
                0x8270_7e59_8a5d_5779,
                0x8090_3a46_4d36_5419,
                0x6a8c_a5b9_8ccf_22fd,
                0x3efc_551b_bf2e_eb88,
                0x9b72_6ad5_7d86_c302,
                0xc23b_f066_c527_3843,
                0x4138_aabe_6d73_6b3d,
                0x9efc_058f_0609_8283,
                0xa8a2_d645_2c86_7e0a,
                0x6aba_be94_7e78_fa5f,
                0x3c84_276a_7a18_c573,
                0x1176_0633_9201_fc0c,
                0x63d4_b329_c353_66e7,
            ]
        );
        // `Ord` is the variant, then the payload byte by byte, on either
        // side of the inline bound.
        let mut keys = edge_keys();
        keys.extend(["b", "abcdefghijklmnopqrstuvx", "abcdefghijklmnopqrstuv\u{0}"].map(K::from));
        for a in &keys {
            for b in &keys {
                let by_bytes = tag_and_payload(a).cmp(&tag_and_payload(b));
                assert_eq!(a.cmp(b), by_bytes, "{a:?} vs {b:?}");
                assert_eq!(a == b, by_bytes.is_eq(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn key_text_shows_as_its_string() {
        for key in edge_keys() {
            if let K::Text(s) = &key {
                assert_eq!(format!("{key:?}"), format!("Text({:?})", s.as_str()));
            }
        }
        assert_eq!(format!("{:?}", K::from("")), r#"Text("")"#);
        assert_eq!(format!("{:?}", K::from("a\"b")), r#"Text("a\"b")"#);
        assert_eq!(format!("{:?}", K::from("Grüße aus 東京")), r#"Text("Grüße aus 東京")"#);
        assert_eq!(format!("{:?}", V::Bytes(vec![1, 2, 3].into())), "Bytes([1, 2, 3])");
    }

    #[test]
    fn keys_and_values_stay_32_bytes() {
        assert_eq!(std::mem::size_of::<K>(), 32);
        assert_eq!(std::mem::size_of::<V>(), 32);
    }

    #[test]
    fn size_estimates() {
        assert_eq!(K::Int(5).size_bytes(), 8);
        assert_eq!(K::from("abcd").size_bytes(), 8);
        assert_eq!(V::Vector(vec![0.0; 10]).size_bytes(), 84);
        assert_eq!(V::Tuple(vec![V::Int(1), V::Float(2.0)]).size_bytes(), 20);
        let recs: Vec<Record> = vec![(K::Int(1), V::Int(2)), (K::Int(3), V::Null)];
        assert_eq!(records_size(&recs), 16 + 9);
    }

    #[test]
    fn accessors_round_trip() {
        assert_eq!(K::from(7i64).as_int(), 7);
        assert_eq!(K::from("w").as_text(), "w");
        assert_eq!(V::from(3.5).as_float(), 3.5);
        assert_eq!(V::from(vec![1.0, 2.0]).as_vector(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "expected int")]
    fn wrong_accessor_panics() {
        let _ = K::from("text").as_int();
    }
}
