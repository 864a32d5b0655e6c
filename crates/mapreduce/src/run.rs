//! Map output as runs (DESIGN.md §20): what one map emitted for one
//! reduce, with the keys packed back to back in their [`Persist`] encoding
//! and the values in a column, and the one routine that streams the key
//! groups of several runs — the reduce-side merge and the combiner.
//!
//! A `(K, V)` pair of boxed enums is 64 bytes plus the key's heap object;
//! a wordcount map output holds millions of `(word, 1)`. In a run the key
//! is its 9 header bytes plus payload, a scalar value 8 bytes or none, and
//! the emitted `K` dies in the emit callback. Heap-backed values
//! (`Text`/`Bytes`/`Vector`/`Tuple`) stay the owned `V` they were emitted
//! as: moved in, lent to `reduce`, never copied or serialised.

use crate::app::MapReduceApp;
use crate::types::{Record, K, V};
use simcore::persist::{Decoder, Encoder, Persist};
use std::ops::Range;

/// Packed-key header: the variant tag, then eight little-endian bytes —
/// the value of a [`K::Int`], the payload length of the other two.
const KEY_HEADER: usize = 9;

/// Appends `key` to `buf` exactly as `Persist for K` encodes it.
fn pack_key(key: &K, buf: &mut Vec<u8>) {
    let (tag, payload) = match key {
        K::Int(i) => {
            buf.push(0);
            buf.extend_from_slice(&i.to_le_bytes());
            return;
        }
        K::Text(s) => (1, s.as_bytes()),
        K::Bytes(b) => (2, b.as_slice()),
    };
    buf.push(tag);
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Variant tag, payload and total packed length of the key at the front
/// of `packed`. An [`K::Int`]'s payload is its eight value bytes.
fn split_key(packed: &[u8]) -> (u8, &[u8], usize) {
    let tag = packed[0];
    let word = u64::from_le_bytes(packed[1..KEY_HEADER].try_into().expect("eight bytes"));
    match tag {
        0 => (tag, &packed[1..KEY_HEADER], KEY_HEADER),
        1 | 2 => {
            let end = KEY_HEADER + word as usize;
            (tag, &packed[KEY_HEADER..end], end)
        }
        other => panic!("unknown packed key variant {other}"),
    }
}

/// Decodes the packed key at the front of `packed` into `key`, reusing
/// `key`'s buffer when the variant is the same.
fn unpack_key_into(packed: &[u8], key: &mut K) {
    let (tag, payload, _) = split_key(packed);
    let text = || std::str::from_utf8(payload).expect("text keys are UTF-8");
    match (tag, &mut *key) {
        (0, _) => *key = K::Int(i64::from_le_bytes(payload.try_into().expect("eight bytes"))),
        (1, K::Text(s)) => {
            s.clear();
            s.push_str(text());
        }
        (1, _) => *key = K::Text(text().to_string()),
        (_, K::Bytes(b)) => {
            b.clear();
            b.extend_from_slice(payload);
        }
        _ => *key = K::Bytes(payload.to_vec()),
    }
}

/// [`K::size_bytes`] of a packed key of `packed_len` bytes.
fn packed_key_size(tag: u8, packed_len: usize) -> u64 {
    match tag {
        0 => 8,
        _ => (packed_len - KEY_HEADER) as u64 + 4,
    }
}

/// The values of a run. `Null`/`Int`/`Float` are stored bare while the run
/// has seen one kind only; any other value, or a second kind, turns the
/// column into owned `V`s (earlier values and their order kept).
#[derive(Debug, Clone, PartialEq)]
enum Column {
    /// That many [`V::Null`]s; `Null(0)` is the empty column of any kind.
    Null(usize),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Mixed(Vec<V>),
}

impl Column {
    fn len(&self) -> usize {
        match self {
            Column::Null(n) => *n,
            Column::Int(xs) => xs.len(),
            Column::Float(xs) => xs.len(),
            Column::Mixed(vs) => vs.len(),
        }
    }

    fn push(&mut self, v: V) {
        match (&mut *self, v) {
            (Column::Null(n), V::Null) => *n += 1,
            (Column::Int(xs), V::Int(x)) => xs.push(x),
            (Column::Float(xs), V::Float(x)) => xs.push(x),
            (Column::Mixed(vs), v) => vs.push(v),
            (Column::Null(0), V::Int(x)) => *self = Column::Int(vec![x]),
            (Column::Null(0), V::Float(x)) => *self = Column::Float(vec![x]),
            (_, v) => {
                let mut vs: Vec<V> = match &*self {
                    Column::Null(n) => vec![V::Null; *n],
                    Column::Int(xs) => xs.iter().map(|&x| V::Int(x)).collect(),
                    Column::Float(xs) => xs.iter().map(|&x| V::Float(x)).collect(),
                    Column::Mixed(_) => unreachable!("matched above"),
                };
                vs.push(v);
                *self = Column::Mixed(vs);
            }
        }
    }

    /// Shows the `i`-th value to `f`.
    fn with<R>(&self, i: usize, f: impl FnOnce(&V) -> R) -> R {
        match self {
            Column::Null(_) => f(&V::Null),
            Column::Int(xs) => f(&V::Int(xs[i])),
            Column::Float(xs) => f(&V::Float(xs[i])),
            Column::Mixed(vs) => f(&vs[i]),
        }
    }

    /// The `i`-th value: a scalar by value, an owned one moved out (a
    /// placeholder stays until [`Column::give_back`]).
    fn lend(&mut self, i: usize) -> V {
        match self {
            Column::Null(_) => V::Null,
            Column::Int(xs) => V::Int(xs[i]),
            Column::Float(xs) => V::Float(xs[i]),
            Column::Mixed(vs) => std::mem::replace(&mut vs[i], V::Null),
        }
    }

    fn give_back(&mut self, i: usize, v: V) {
        if let Column::Mixed(vs) = self {
            vs[i] = v;
        }
    }

    fn shrink_to_fit(&mut self) {
        match self {
            Column::Null(_) => {}
            Column::Int(xs) => xs.shrink_to_fit(),
            Column::Float(xs) => xs.shrink_to_fit(),
            Column::Mixed(vs) => vs.shrink_to_fit(),
        }
    }
}

/// One map-output partition: the records one map emitted for one reduce
/// (after the combiner, if any), in emission order.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Every key in its `Persist` encoding, back to back.
    keys: Vec<u8>,
    values: Column,
    /// [`crate::types::records_size`] of the records, kept as they arrive.
    bytes: u64,
}

impl Default for Run {
    fn default() -> Self {
        Run { keys: Vec::new(), values: Column::Null(0), bytes: 0 }
    }
}

impl Run {
    /// Appends a record. The key is packed — the caller's `K` can die —
    /// and the value moved in.
    pub fn push(&mut self, key: &K, value: V) {
        pack_key(key, &mut self.keys);
        self.bytes += key.size_bytes() + value.size_bytes();
        self.values.push(value);
    }

    /// [`Run::push`] of a key that is already packed.
    fn push_packed(&mut self, packed: &[u8], value: V) {
        self.keys.extend_from_slice(packed);
        self.bytes += packed_key_size(packed[0], packed.len()) + value.size_bytes();
        self.values.push(value);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the run holds no record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated serialized size of the records in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Returns the unused tail of buffers that grew by doubling; runs live
    /// until their job finishes.
    pub(crate) fn seal(&mut self) {
        self.keys.shrink_to_fit();
        self.values.shrink_to_fit();
    }

    /// The packed keys in order, each with its offset into `keys`.
    fn packed_keys(&self) -> impl Iterator<Item = (usize, &[u8])> {
        let mut at = 0;
        std::iter::from_fn(move || {
            let rest = self.keys.get(at..).filter(|rest| !rest.is_empty())?;
            let (.., len) = split_key(rest);
            at += len;
            Some((at - len, &rest[..len]))
        })
    }

    /// The records, decoded (a copy; for tests and diagnostics).
    pub fn to_records(&self) -> Vec<Record> {
        self.packed_keys()
            .enumerate()
            .map(|(i, (_, packed))| {
                let mut key = K::Int(0);
                unpack_key_into(packed, &mut key);
                (key, self.values.with(i, V::clone))
            })
            .collect()
    }
}

impl FromIterator<Record> for Run {
    fn from_iter<I: IntoIterator<Item = Record>>(records: I) -> Self {
        let mut run = Run::default();
        for (k, v) in records {
            run.push(&k, v);
        }
        run
    }
}

/// Encoded as the `Vec<Record>` it stands for — count, then key and value
/// per record — so a snapshot does not depend on the representation.
impl Persist for Run {
    fn encode(&self, e: &mut Encoder) {
        e.usize(self.len());
        for (i, (_, packed)) in self.packed_keys().enumerate() {
            e.raw(packed);
            self.values.with(i, |v| v.encode(e));
        }
    }
    fn decode(d: &mut Decoder) -> Self {
        let mut run = Run::default();
        for _ in 0..d.usize() {
            let tag = d.u8();
            let word = d.u64();
            let payload = if tag == 0 { &[][..] } else { d.raw(word as usize) };
            run.keys.push(tag);
            run.keys.extend_from_slice(&word.to_le_bytes());
            run.keys.extend_from_slice(payload);
            let value = V::decode(d);
            run.bytes += packed_key_size(tag, KEY_HEADER + payload.len()) + value.size_bytes();
            run.values.push(value);
        }
        run.seal();
        run
    }
}

/// One entry of the sort index the shuffle merge and the combiner order
/// records by: a fixed-width, order-preserving prefix of a key plus the
/// record's arrival index. The prefix is the variant tag, then for
/// [`K::Int`] the sign-flipped value, for [`K::Text`]/[`K::Bytes`] the
/// first 15 key bytes big-endian and zero-padded followed by one length
/// byte clamped at 16. Prefix order never contradicts [`K`]'s `Ord`
/// (a shorter key is a prefix of any longer key it ties with on padded
/// bytes, and sorts first both ways); only two keys of 16 bytes or more
/// that share their first 15 are left undecided (DESIGN.md §20).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SortKey {
    tag: u8,
    hi: u64,
    lo: u64,
    idx: u32,
}

impl SortKey {
    /// Entry for `key`, the `idx`-th record to arrive.
    ///
    /// # Panics
    /// If `idx` does not fit 32 bits.
    pub fn new(key: &K, idx: usize) -> Self {
        match key {
            K::Int(i) => Self::of_parts(0, &i.to_le_bytes(), idx),
            K::Text(s) => Self::of_parts(1, s.as_bytes(), idx),
            K::Bytes(b) => Self::of_parts(2, b, idx),
        }
    }

    /// Entry for a key given as [`split_key`] yields it.
    fn of_parts(tag: u8, payload: &[u8], idx: usize) -> Self {
        let idx = u32::try_from(idx).expect("more than 2^32 records in one sort");
        if tag == 0 {
            let i = i64::from_le_bytes(payload.try_into().expect("eight bytes"));
            return SortKey { tag, hi: (i as u64) ^ (1 << 63), lo: 0, idx };
        }
        let mut buf = [0u8; 16];
        let n = payload.len().min(15);
        buf[..n].copy_from_slice(&payload[..n]);
        buf[15] = payload.len().min(16) as u8;
        let word = |half: &[u8]| u64::from_be_bytes(half.try_into().expect("eight bytes"));
        SortKey { tag, hi: word(&buf[..8]), lo: word(&buf[8..]), idx }
    }

    /// The record's arrival index.
    pub fn index(&self) -> usize {
        self.idx as usize
    }

    /// Whether the prefix holds the whole key, so that equal prefixes mean
    /// equal keys.
    pub fn is_exact(&self) -> bool {
        self.lo & 0xFF < 16
    }

    /// Order of the two keys as far as their prefixes decide it. `Equal`
    /// between inexact entries is undecided: compare the keys.
    pub fn prefix_cmp(&self, other: &SortKey) -> std::cmp::Ordering {
        (self.tag, self.hi, self.lo).cmp(&(other.tag, other.hi, other.lo))
    }
}

/// Where the record with a given arrival index sits: its run, and the
/// offset of its packed key there.
#[derive(Debug, Clone, Copy)]
struct Locator {
    run: u32,
    key: u32,
}

/// Where every record of several runs — taken as one concatenated run —
/// sits, by arrival index.
struct Places {
    locators: Vec<Locator>,
    /// Arrival index of each run's first record.
    first: Vec<usize>,
}

impl Places {
    /// The packed key of `entry`'s record.
    fn packed<'a>(&self, runs: &'a [&mut Run], entry: &SortKey) -> &'a [u8] {
        let at = self.locators[entry.index()];
        let rest = &runs[at.run as usize].keys[at.key as usize..];
        &rest[..split_key(rest).2]
    }

    fn payload<'a>(&self, runs: &'a [&mut Run], entry: &SortKey) -> &'a [u8] {
        split_key(self.packed(runs, entry)).1
    }

    /// Run, and position there, of `entry`'s value.
    fn value(&self, entry: &SortKey) -> (usize, usize) {
        let run = self.locators[entry.index()].run as usize;
        (run, entry.index() - self.first[run])
    }
}

/// The key groups of several runs in key order, each group's values in
/// arrival order: what [`crate::app::group_by_key`] yields for the
/// concatenation. One integer sort over the [`SortKey`] prefixes read off
/// the packed keys; full keys are compared (as bytes, which is `K`'s order
/// within a variant) only inside ties of inexact prefixes. The runs are
/// passed to every call, not held, so the caller can fill another run
/// between groups.
struct Groups {
    order: Vec<SortKey>,
    places: Places,
    /// Position in `order` of the next group.
    next: usize,
    /// The lent group's key, decoded into one reused `K`.
    key: K,
    /// The lent group's values.
    values: Vec<V>,
}

impl Groups {
    fn over(runs: &[&mut Run]) -> Self {
        let total: usize = runs.iter().map(|run| run.len()).sum();
        let mut order = Vec::with_capacity(total);
        let mut places =
            Places { locators: Vec::with_capacity(total), first: Vec::with_capacity(runs.len()) };
        for (r, run) in runs.iter().enumerate() {
            let r = u32::try_from(r).expect("more than 2^32 runs in one sort");
            places.first.push(order.len());
            for (at, packed) in run.packed_keys() {
                let (tag, payload, _) = split_key(packed);
                order.push(SortKey::of_parts(tag, payload, order.len()));
                places.locators.push(Locator {
                    run: r,
                    key: u32::try_from(at).expect("more than 4 GiB of keys in one run"),
                });
            }
        }
        order.sort_unstable();
        for tie in order.chunk_by_mut(|a, b| a.prefix_cmp(b).is_eq()) {
            if tie.len() > 1 && !tie[0].is_exact() {
                // Already in arrival order, which a stable sort keeps.
                tie.sort_by(|a, b| places.payload(runs, a).cmp(places.payload(runs, b)));
            }
        }
        Groups { order, places, next: 0, key: K::Int(0), values: Vec::new() }
    }

    /// Lends the next group: its key in `self.key`, its values — scalars
    /// by value, owned ones moved out of their run — in `self.values`.
    /// Returns the group's range in `order`.
    fn lend(&mut self, runs: &mut [&mut Run]) -> Option<Range<usize>> {
        let (start, places) = (self.next, &self.places);
        let head = *self.order.get(start)?;
        let same = |e: &SortKey| {
            head.prefix_cmp(e).is_eq()
                && (head.is_exact() || places.payload(runs, &head) == places.payload(runs, e))
        };
        let end = start + self.order[start..].iter().take_while(|e| same(e)).count();
        self.next = end;
        unpack_key_into(places.packed(runs, &head), &mut self.key);
        debug_assert!(self.values.is_empty(), "the last group's values were not settled");
        self.values.reserve(end - start);
        for e in &self.order[start..end] {
            let (run, i) = places.value(e);
            self.values.push(runs[run].values.lend(i));
        }
        Some(start..end)
    }

    /// Puts the lent values of `group` back where they came from.
    fn give_back(&mut self, runs: &mut [&mut Run], group: Range<usize>) {
        for (e, v) in self.order[group].iter().zip(self.values.drain(..)) {
            let (run, i) = self.places.value(e);
            runs[run].values.give_back(i, v);
        }
    }

    /// Moves the records at `positions` of `order` out of their runs onto
    /// the end of `out`.
    fn move_to(&self, runs: &mut [&mut Run], positions: Range<usize>, out: &mut Run) {
        for e in &self.order[positions] {
            let (run, i) = self.places.value(e);
            let value = runs[run].values.lend(i);
            out.push_packed(self.places.packed(runs, e), value);
        }
    }
}

/// Streams the key groups of `runs` to `f` in key order without moving or
/// copying a record. Values are lent through one reused buffer and are
/// back in place when `f` returns, so the runs can be merged again. This
/// is the reduce-side merge.
pub fn for_each_group(runs: &mut [&mut Run], mut f: impl FnMut(&K, &[V])) {
    let mut groups = Groups::over(runs);
    while let Some(group) = groups.lend(runs) {
        f(&groups.key, &groups.values);
        groups.give_back(runs, group);
    }
}

/// Runs `app`'s combiner over one map-output run, group by group in key
/// order; used by the map-side spill path. A group the app declines passes
/// through verbatim (anything it emitted before declining is dropped). If
/// the app declines every group — it has no combiner — the run comes back
/// untouched, in emission order.
pub fn combine_run(app: &dyn MapReduceApp, mut run: Run) -> Run {
    let mut out = Run::default();
    let mut emitted: Vec<Record> = Vec::new();
    let mut any = false;
    let runs = &mut [&mut run];
    let mut groups = Groups::over(runs);
    while let Some(group) = groups.lend(runs) {
        if app.combine(&groups.key, &groups.values, &mut |k, v| emitted.push((k, v))) {
            groups.values.clear();
            if !any {
                // Every earlier group was declined and is still in `run`;
                // it goes in front of this first output.
                any = true;
                groups.move_to(runs, 0..group.start, &mut out);
            }
            for (k, v) in emitted.drain(..) {
                out.push(&k, v);
            }
        } else {
            emitted.clear();
            groups.give_back(runs, group.clone());
            if any {
                groups.move_to(runs, group, &mut out);
            }
        }
    }
    if any {
        out
    } else {
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> Vec<K> {
        vec![
            K::Int(-7),
            K::Int(i64::MAX),
            K::Text(String::new()),
            K::from("word"),
            K::from("a key of more than sixteen bytes"),
            K::Bytes(vec![]),
            K::Bytes(vec![0, 255, 3]),
        ]
    }

    #[test]
    fn packed_keys_are_the_persist_encoding() {
        for key in keys() {
            let mut e = Encoder::new();
            let header = e.finish().len();
            e = Encoder::new();
            key.encode(&mut e);
            let mut packed = Vec::new();
            pack_key(&key, &mut packed);
            assert_eq!(packed, e.finish()[header..], "{key:?}");
            let (tag, _, len) = split_key(&packed);
            assert_eq!(len, packed.len());
            assert_eq!(packed_key_size(tag, len), key.size_bytes(), "{key:?}");
            // Into a scratch key of each variant.
            for mut scratch in [K::Int(1), K::from("old"), K::Bytes(vec![9; 40])] {
                unpack_key_into(&packed, &mut scratch);
                assert_eq!(scratch, key);
            }
        }
    }

    #[test]
    fn run_encodes_as_its_record_vector() {
        let values = [
            vec![V::Null, V::Null],
            vec![V::Int(1), V::Int(-2)],
            vec![V::Float(0.5), V::Float(-0.0)],
            vec![V::Int(1), V::from("text"), V::Null, V::Vector(vec![1.0])],
            vec![],
        ];
        for vs in values {
            let records: Vec<Record> = keys().into_iter().cycle().zip(vs).collect();
            let run: Run = records.iter().cloned().collect();
            assert_eq!(run.len(), records.len());
            assert_eq!(run.bytes(), crate::types::records_size(&records));
            assert_eq!(run.to_records(), records);
            let (mut a, mut b) = (Encoder::new(), Encoder::new());
            run.encode(&mut a);
            records.encode(&mut b);
            let bytes = a.finish();
            assert_eq!(bytes, b.finish());
            let back = Run::decode(&mut Decoder::new(&bytes));
            assert_eq!(back.to_records(), records);
            assert_eq!(back.bytes(), run.bytes());
        }
    }

    #[test]
    fn a_scalar_column_meeting_another_kind_keeps_values_and_order() {
        let mut run = Run::default();
        run.push(&K::Int(1), V::Int(10));
        run.push(&K::Int(2), V::Int(20));
        assert!(matches!(run.values, Column::Int(_)));
        run.push(&K::Int(3), V::Float(0.5));
        run.push(&K::Int(4), V::Null);
        let expect = vec![V::Int(10), V::Int(20), V::Float(0.5), V::Null].into_iter().enumerate();
        let expect: Vec<Record> = expect.map(|(i, v)| (K::Int(i as i64 + 1), v)).collect();
        assert_eq!(run.to_records(), expect);
        let nulls: Run = (0..3).map(|i| (K::Int(i), V::Null)).collect();
        assert!(matches!(nulls.values, Column::Null(3)));
        let mut mixed = nulls.clone();
        mixed.push(&K::Int(3), V::Int(1));
        assert_eq!(mixed.to_records()[..3], nulls.to_records()[..]);
        assert_eq!(mixed.to_records()[3], (K::Int(3), V::Int(1)));
    }
}
