//! Keys and values flowing through MapReduce jobs.
//!
//! The engine *really executes* user map/reduce code, so records carry real
//! data. Keys ([`K`]) are the orderable/hashable subset (grouping and
//! sorting need `Ord + Hash`); values ([`V`]) additionally carry numeric
//! vectors and tuples for the machine-learning jobs. [`K::size_bytes`] /
//! [`V::size_bytes`] estimate serialized size, which drives the fluid flow
//! sizes (spill, shuffle, output) of the simulation.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A record key. Orderable, hashable, cheap to clone for small payloads.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum K {
    /// Integer key (cluster ids, offsets).
    Int(i64),
    /// Text key (words, paths).
    Text(String),
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
        K::Text(s.to_string())
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
    /// Raw bytes (TeraSort payloads).
    Bytes(Vec<u8>),
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
mod tests {
    use super::*;

    #[test]
    fn key_ordering_and_hash() {
        assert!(K::Int(1) < K::Int(2));
        assert!(K::Text("a".into()) < K::Text("b".into()));
        assert_eq!(K::from("x").stable_hash(), K::from("x").stable_hash());
        assert_ne!(K::from("x").stable_hash(), K::from("y").stable_hash());
    }

    #[test]
    fn size_estimates() {
        assert_eq!(K::Int(5).size_bytes(), 8);
        assert_eq!(K::Text("abcd".into()).size_bytes(), 8);
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
