//! Map output as runs (DESIGN.md §20): what one map emitted, grouped once
//! at that map into one run per reduce — each distinct key packed once, in
//! key order and in its [`Persist`] encoding, its values in a column in
//! arrival order — with the k-way merge that streams the key groups of
//! several runs at the reduce, and the combiner that walks the groups of
//! one.
//!
//! A `(K, V)` pair of boxed enums is 64 bytes plus the key's heap object;
//! a wordcount map output holds millions of `(word, 1)`. While the map
//! runs, a key is its 9 header bytes plus payload, a scalar value 8 bytes
//! or none, and the emitted `K` dies in the emit callback; once the run is
//! sealed, a key is stored once however many records carry it. Heap-backed
//! values (`Text`/`Bytes`/`Vector`/`Tuple`) stay what they were emitted
//! as — a byte payload its shared handle, any other the owned `V` — moved
//! in, lent to `reduce`, never copied or serialised.

use crate::app::MapReduceApp;
use crate::types::{Record, K, V};
use simcore::persist::{Decoder, Encoder, Persist};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::Arc;

/// Packed-key header: the variant tag, then eight little-endian bytes —
/// the value of a [`K::Int`], the payload length of the other two.
const KEY_HEADER: usize = 9;
/// In a sealed run, the byte before a key that has more than one value,
/// followed by the number of values as a little-endian `u32`; a key with
/// one value has none (no key's tag byte is this one).
const MANY: u8 = 0xFF;
/// [`MANY`] and the count.
const COUNT: usize = 5;

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
/// `key`'s buffer when both are byte keys.
fn unpack_key_into(packed: &[u8], key: &mut K) {
    let (tag, payload, _) = split_key(packed);
    match (tag, &mut *key) {
        (0, _) => *key = K::Int(i64::from_le_bytes(payload.try_into().expect("eight bytes"))),
        (1, _) => *key = K::from(std::str::from_utf8(payload).expect("text keys are UTF-8")),
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

/// A value a column can hold without storage of its own. Equal means equal
/// bit for bit: `0.0` and `-0.0`, or two `NaN`s of different payload, are
/// different values.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Scalar {
    Null,
    Int(i64),
    Float(f64),
}

impl Scalar {
    fn of(v: &V) -> Option<Scalar> {
        match v {
            V::Null => Some(Scalar::Null),
            V::Int(x) => Some(Scalar::Int(*x)),
            V::Float(x) => Some(Scalar::Float(*x)),
            _ => None,
        }
    }

    fn value(self) -> V {
        match self {
            Scalar::Null => V::Null,
            Scalar::Int(x) => V::Int(x),
            Scalar::Float(x) => V::Float(x),
        }
    }
}

impl PartialEq for Scalar {
    fn eq(&self, other: &Scalar) -> bool {
        match (*self, *other) {
            (Scalar::Null, Scalar::Null) => true,
            (Scalar::Int(x), Scalar::Int(y)) => x == y,
            (Scalar::Float(x), Scalar::Float(y)) => x.to_bits() == y.to_bits(),
            _ => false,
        }
    }
}

/// `n` copies of `first`, then `last`.
fn widened<T: Clone>(first: T, n: usize, last: T) -> Vec<T> {
    let mut xs = Vec::with_capacity(n + 1);
    xs.resize(n, first);
    xs.push(last);
    xs
}

/// The values of a run or a task output. `Null`/`Int`/`Float` are stored
/// bare while the column has seen one kind only — as one value and a
/// count while it has seen one value only — and `Bytes` as the shared
/// handles; any other value, or a second kind, turns the column into owned
/// `V`s (earlier values and their order kept).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Column {
    /// That many copies of one scalar, no storage per value; `Same(_, 0)`
    /// is the empty column of any kind.
    Same(Scalar, usize),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bytes(Vec<Arc<[u8]>>),
    Mixed(Vec<V>),
}

impl Default for Column {
    fn default() -> Self {
        Column::Same(Scalar::Null, 0)
    }
}

impl Column {
    pub(crate) fn len(&self) -> usize {
        match self {
            Column::Same(_, n) => *n,
            Column::Int(xs) => xs.len(),
            Column::Float(xs) => xs.len(),
            Column::Bytes(bs) => bs.len(),
            Column::Mixed(vs) => vs.len(),
        }
    }

    fn push(&mut self, v: V) {
        match (&mut *self, v) {
            (Column::Same(_, 0), V::Bytes(b)) => *self = Column::Bytes(vec![b]),
            (Column::Same(s, n), v) => {
                let (s, n) = (*s, *n);
                *self = match (s, Scalar::of(&v)) {
                    (_, Some(x)) if n == 0 || x == s => Column::Same(x, n + 1),
                    (Scalar::Int(s), Some(Scalar::Int(x))) => Column::Int(widened(s, n, x)),
                    (Scalar::Float(s), Some(Scalar::Float(x))) => Column::Float(widened(s, n, x)),
                    _ => Column::Mixed(widened(s.value(), n, v)),
                };
            }
            (Column::Int(xs), V::Int(x)) => xs.push(x),
            (Column::Float(xs), V::Float(x)) => xs.push(x),
            (Column::Bytes(bs), V::Bytes(b)) => bs.push(b),
            (Column::Mixed(vs), v) => vs.push(v),
            (_, v) => {
                let mut vs: Vec<V> = match std::mem::take(self) {
                    Column::Int(xs) => xs.into_iter().map(V::Int).collect(),
                    Column::Float(xs) => xs.into_iter().map(V::Float).collect(),
                    Column::Bytes(bs) => bs.into_iter().map(V::Bytes).collect(),
                    Column::Same(..) | Column::Mixed(_) => unreachable!("matched above"),
                };
                vs.push(v);
                *self = Column::Mixed(vs);
            }
        }
    }

    /// Shows the `i`-th value to `f`.
    pub(crate) fn with<R>(&self, i: usize, f: impl FnOnce(&V) -> R) -> R {
        match self {
            Column::Same(s, _) => f(&s.value()),
            Column::Int(xs) => f(&V::Int(xs[i])),
            Column::Float(xs) => f(&V::Float(xs[i])),
            Column::Bytes(bs) => f(&V::Bytes(Arc::clone(&bs[i]))),
            Column::Mixed(vs) => f(&vs[i]),
        }
    }

    /// The `i`-th value: a scalar by value, a byte payload as a clone of
    /// its handle, an owned one moved out (a placeholder stays until
    /// [`Column::give_back`]).
    pub(crate) fn lend(&mut self, i: usize) -> V {
        match self {
            Column::Same(s, _) => s.value(),
            Column::Int(xs) => V::Int(xs[i]),
            Column::Float(xs) => V::Float(xs[i]),
            Column::Bytes(bs) => V::Bytes(Arc::clone(&bs[i])),
            Column::Mixed(vs) => std::mem::replace(&mut vs[i], V::Null),
        }
    }

    fn give_back(&mut self, i: usize, v: V) {
        if let Column::Mixed(vs) = self {
            vs[i] = v;
        }
    }

    /// Moves the `i`-th value to position `to[i]`, `to` a permutation of
    /// the positions, in place; `to` is left the identity.
    fn permute(&mut self, to: &mut [u32]) {
        fn apply<T>(xs: &mut [T], to: &mut [u32]) {
            for i in 0..xs.len() {
                // Each swap puts one value where it belongs.
                while to[i] as usize != i {
                    let j = to[i] as usize;
                    xs.swap(i, j);
                    to.swap(i, j);
                }
            }
        }
        match self {
            Column::Same(..) => {}
            Column::Int(xs) => apply(xs, to),
            Column::Float(xs) => apply(xs, to),
            Column::Bytes(bs) => apply(bs, to),
            Column::Mixed(vs) => apply(vs, to),
        }
    }

    /// [`Column::push`], then room for `expected` values in all at once.
    pub(crate) fn push_expecting(&mut self, v: V, expected: usize) {
        self.push(v);
        match self {
            Column::Same(..) => {}
            Column::Int(xs) => xs.reserve_exact(expected.saturating_sub(xs.len())),
            Column::Float(xs) => xs.reserve_exact(expected.saturating_sub(xs.len())),
            Column::Bytes(bs) => bs.reserve_exact(expected.saturating_sub(bs.len())),
            Column::Mixed(vs) => vs.reserve_exact(expected.saturating_sub(vs.len())),
        }
    }

    /// Gives back the room beyond the values.
    pub(crate) fn shrink_to_fit(&mut self) {
        match self {
            Column::Same(..) => {}
            Column::Int(xs) => xs.shrink_to_fit(),
            Column::Float(xs) => xs.shrink_to_fit(),
            Column::Bytes(bs) => bs.shrink_to_fit(),
            Column::Mixed(vs) => vs.shrink_to_fit(),
        }
    }

    /// [`crate::types::records_size`] of the values alone.
    pub(crate) fn bytes(&self) -> u64 {
        let n = self.len() as u64;
        match self {
            Column::Same(s, _) => n * s.value().size_bytes(),
            Column::Int(_) | Column::Float(_) => n * 8,
            Column::Bytes(bs) => bs.iter().map(|b| b.len() as u64 + 4).sum(),
            Column::Mixed(vs) => vs.iter().map(V::size_bytes).sum(),
        }
    }

    /// Takes the last `n` values off the column as the column that
    /// [`Column::push`] builds of them alone, at its exact size: the column
    /// itself when they are the `whole` of it, before any was taken.
    fn split_back(&mut self, n: usize, whole: bool) -> Column {
        let keep = self.len() - n;
        if whole {
            let mut all = std::mem::take(self);
            all.shrink_to_fit();
            return all;
        }
        let mut piece = Column::default();
        let mut take = |v: V| piece.push_expecting(v, n);
        match self {
            Column::Same(s, len) => {
                *len = keep;
                return Column::Same(if n > 0 { *s } else { Scalar::Null }, n);
            }
            Column::Int(xs) => xs.drain(keep..).for_each(|x| take(V::Int(x))),
            Column::Float(xs) => xs.drain(keep..).for_each(|x| take(V::Float(x))),
            Column::Bytes(bs) => bs.drain(keep..).for_each(|b| take(V::Bytes(b))),
            Column::Mixed(vs) => vs.drain(keep..).for_each(take),
        }
        piece
    }
}

/// The records one map emits, in emission order, until
/// [`RunBuilder::seal`] groups them into one [`Run`] per reduce.
#[derive(Debug, Default)]
pub(crate) struct RunBuilder {
    /// Every key in its `Persist` encoding, back to back.
    keys: Vec<u8>,
    values: Column,
    /// The records expected, which a column storing values one by one
    /// makes room for at once: a map expects a record out per record in.
    pub(crate) expected: usize,
}

impl RunBuilder {
    /// Appends a record. The key is packed — the caller's `K` can die —
    /// and the value moved in.
    pub(crate) fn push(&mut self, key: &K, value: V) {
        pack_key(key, &mut self.keys);
        self.values.push_expecting(value, self.expected);
    }

    /// [`RunBuilder::push`] of a key that is already packed.
    fn push_packed(&mut self, packed: &[u8], value: V) {
        self.keys.extend_from_slice(packed);
        self.values.push(value);
    }

    /// Groups the records into one run per partition, `parts` of them. A
    /// key's partition is `partition(key)`, asked once per head (below)
    /// and never when `parts` is 1.
    pub(crate) fn seal(self, parts: usize, partition: impl FnMut(&K) -> usize) -> Vec<Run> {
        GROUPING.with(|scratch| {
            self.seal_with(&mut scratch.borrow_mut(), parts, partition, MAX_SLOTS, PROBE_BOUND)
        })
    }

    /// [`RunBuilder::seal`] with a table of `max_slots` slots (a power of
    /// two) at most, filled to half, and lookups that visit `probes` slots
    /// at most (DESIGN.md §20): the records are hashed into their keys'
    /// heads, and only the heads are partitioned and sorted. The table is
    /// an accelerator only: a key it has no room for, or cannot reach
    /// within the probe bound, starts a new head at every record, and the
    /// heads of one key — adjacent once sorted, in arrival order — are
    /// joined.
    fn seal_with(
        self,
        scratch: &mut Grouping,
        parts: usize,
        mut partition: impl FnMut(&K) -> usize,
        max_slots: usize,
        probes: usize,
    ) -> Vec<Run> {
        let RunBuilder { keys, mut values, .. } = self;
        let total = values.len();
        assert!(u32::try_from(total).is_ok_and(|n| n < u32::MAX), "2^32 records in one run");
        let Grouping { table, order, heads, ids } = scratch;
        let packed = |first: u32| {
            let rest = &keys[first as usize..];
            &rest[..split_key(rest).2]
        };
        // Only the values of a column that holds them move into key order.
        let moving = !matches!(values, Column::Same(..));

        // A head id per record.
        table.clear();
        table.resize((2 * total).next_power_of_two().min(max_slots), EMPTY);
        let (mask, mut room) = (table.len() - 1, table.len() / 2);
        order.clear();
        heads.clear();
        ids.clear();
        for (at, key) in packed_keys(&keys) {
            let hash = hash_packed(key);
            let fingerprint = (hash >> 32) as u32;
            let mut found = None;
            let mut free = None;
            for step in 0..probes {
                let slot = (hash as usize).wrapping_add(step) & mask;
                let Slot { fingerprint: f, head } = table[slot];
                if head == EMPTY.head {
                    free = Some(slot).filter(|_| room > 0);
                    break;
                }
                let first = heads[head as usize].first as usize;
                if f == fingerprint && keys.get(first..first + key.len()) == Some(key) {
                    found = Some(head);
                    break;
                }
            }
            let id = found.unwrap_or_else(|| {
                let id = order.len() as u32;
                if let Some(slot) = free {
                    table[slot] = Slot { fingerprint, head: id };
                    room -= 1;
                }
                let (tag, payload, _) = split_key(key);
                order.push(SortKey::of_parts(tag, payload, id as usize));
                let first = u32::try_from(at).expect("more than 4 GiB of keys in one run");
                heads.push(Head { first, count: 0, next: 0 });
                id
            });
            heads[id as usize].count += 1;
            if moving {
                ids.push(id);
            }
        }

        // Each head's partition, which its entry sorts by first.
        if parts > 1 {
            let mut key = K::Int(0);
            for e in order.iter_mut() {
                unpack_key_into(packed(heads[e.index()].first), &mut key);
                let p = u32::try_from(partition(&key)).ok().filter(|&p| p < 1 << 30);
                e.class |= p.expect("fewer than 2^30 partitions") << 2;
            }
        }

        // The heads by partition and key; those of one key by id, which is
        // arrival order.
        let payload = |first: u32| split_key(packed(first)).1;
        order.sort_unstable();
        for tie in order.chunk_by_mut(|a, b| a.prefix_cmp(b).is_eq()) {
            if tie.len() > 1 && !tie[0].is_exact() {
                // Already in arrival order, which a stable sort keeps.
                tie.sort_by_key(|e| payload(heads[e.index()].first));
            }
        }

        // Each head's values, in arrival order, follow those of the heads
        // before it: every record's head id becomes its value's position.
        let mut start = 0;
        for e in order.iter() {
            let head = &mut heads[e.index()];
            head.next = start;
            start += head.count;
        }
        if moving {
            for id in ids.iter_mut() {
                let head = &mut heads[*id as usize];
                *id = head.next;
                head.next += 1;
            }
            values.permute(ids);
        }

        // Per partition, from the last: one packed key per key, behind its
        // count if above one (a key's heads lie side by side, with their
        // values), and its values cut off the column's end.
        let first = |e: &SortKey| heads[e.index()].first;
        let same = |a: &SortKey, b: &SortKey| {
            a.prefix_cmp(b).is_eq() && (a.is_exact() || packed(first(a)) == packed(first(b)))
        };
        let count = |tie: &[SortKey]| tie.iter().map(|e| heads[e.index()].count).sum::<u32>();
        let (mut runs, mut rest) = (Vec::with_capacity(parts), &order[..]);
        for p in (0..parts).rev() {
            let n = rest.iter().rev().take_while(|e| (e.class >> 2) as usize == p).count();
            let (others, heads_of_p) = rest.split_at(rest.len() - n);
            rest = others;
            let len = heads_of_p
                .chunk_by(same)
                .map(|tie| packed(first(&tie[0])).len() + if count(tie) > 1 { COUNT } else { 0 })
                .sum();
            let mut grouped = Vec::with_capacity(len);
            let (mut records, mut key_bytes) = (0, 0);
            for tie in heads_of_p.chunk_by(same) {
                let (key, n) = (packed(first(&tie[0])), count(tie));
                if n > 1 {
                    grouped.push(MANY);
                    grouped.extend_from_slice(&n.to_le_bytes());
                }
                grouped.extend_from_slice(key);
                records += n as usize;
                key_bytes += u64::from(n) * packed_key_size(key[0], key.len());
            }
            let values = values.split_back(records, records == total);
            let bytes = key_bytes + values.bytes();
            runs.push(Run { keys: grouped, values, bytes });
        }
        assert!(rest.is_empty(), "a partition out of range");
        runs.reverse();
        runs
    }
}

/// The packed keys of a builder's `keys` in order, each with its offset.
fn packed_keys(keys: &[u8]) -> impl Iterator<Item = (usize, &[u8])> {
    let mut at = 0;
    std::iter::from_fn(move || {
        let rest = keys.get(at..).filter(|rest| !rest.is_empty())?;
        let (.., len) = split_key(rest);
        at += len;
        Some((at - len, &rest[..len]))
    })
}

/// One map-output partition: the records one map emitted for one reduce
/// (after the combiner, if any) as key groups in key order, each group's
/// values in emission order.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Per group, its key in its `Persist` encoding, behind [`MANY`] and
    /// the number of its values if that is more than one.
    keys: Vec<u8>,
    /// The values, group after group.
    values: Column,
    /// [`crate::types::records_size`] of the records.
    bytes: u64,
}

/// A place in a run: the offset of a group in `keys`, and the column
/// position of the group's first value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Cursor {
    at: usize,
    value: usize,
}

impl Cursor {
    /// The group at the cursor — its packed key and its values' positions
    /// — and the cursor past it.
    fn group(self, keys: &[u8]) -> Option<(&[u8], Range<usize>, Cursor)> {
        let rest = keys.get(self.at..).filter(|rest| !rest.is_empty())?;
        let (count, key) = if rest[0] == MANY {
            let count = u32::from_le_bytes(rest[1..COUNT].try_into().expect("four bytes"));
            (count as usize, &rest[COUNT..])
        } else {
            (1, rest)
        };
        let (.., len) = split_key(key);
        let values = self.value..self.value + count;
        let next = Cursor { at: keys.len() - key.len() + len, value: values.end };
        Some((&key[..len], values, next))
    }
}

impl Run {
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

    /// The key groups in key order: each one's packed key and its values'
    /// positions.
    fn groups(&self) -> impl Iterator<Item = (&[u8], Range<usize>)> {
        let mut at = Cursor::default();
        std::iter::from_fn(move || {
            let (packed, values, next) = at.group(&self.keys)?;
            at = next;
            Some((packed, values))
        })
    }

    /// Number of key groups.
    pub(crate) fn group_count(&self) -> usize {
        self.groups().count()
    }

    /// Moves the records of the groups from `from` up to `to` onto the end
    /// of `out`.
    fn move_groups(&mut self, mut from: Cursor, to: Cursor, out: &mut RunBuilder) {
        while from.at < to.at {
            let (packed, values, next) = from.group(&self.keys).expect("`to` lies past `from`");
            for i in values {
                out.push_packed(packed, self.values.lend(i));
            }
            from = next;
        }
    }

    /// The records in key order, decoded (a copy; for tests and
    /// diagnostics).
    pub fn to_records(&self) -> Vec<Record> {
        let mut records = Vec::with_capacity(self.len());
        for (packed, values) in self.groups() {
            let mut key = K::Int(0);
            unpack_key_into(packed, &mut key);
            records.extend(values.map(|i| (key.clone(), self.values.with(i, V::clone))));
        }
        records
    }
}

impl FromIterator<Record> for Run {
    fn from_iter<I: IntoIterator<Item = Record>>(records: I) -> Self {
        let mut run = RunBuilder::default();
        for (k, v) in records {
            run.push(&k, v);
        }
        run.seal(1, |_| 0).pop().expect("one run")
    }
}

/// Encoded as the `Vec<Record>` it stands for — count, then key and value
/// per record, in key order — so a snapshot does not depend on the
/// representation. Decoding seals what it reads, so the same records in
/// any order, emission order included, restore to the same run.
// codec by hand: packed keys are copied as their `K` bytes, not decoded and re-encoded
impl Persist for Run {
    fn encode(&self, e: &mut Encoder) {
        e.usize(self.len());
        for (packed, values) in self.groups() {
            for i in values {
                e.raw(packed);
                self.values.with(i, |v| v.encode(e));
            }
        }
    }
    fn decode(d: &mut Decoder) -> Self {
        let mut run = RunBuilder::default();
        for _ in 0..d.usize() {
            let tag = d.u8();
            if tag > 2 {
                d.unknown_tag("K", tag);
            }
            let word = d.u64();
            let payload = if tag == 0 { &[][..] } else { d.raw(word as usize) };
            assert!(tag != 1 || std::str::from_utf8(payload).is_ok(), "snapshot strings are UTF-8");
            run.keys.push(tag);
            run.keys.extend_from_slice(&word.to_le_bytes());
            run.keys.extend_from_slice(payload);
            run.values.push(V::decode(d));
        }
        run.seal(1, |_| 0).pop().expect("one run")
    }
}

/// The order sealing sorts a map's keys in and the merge takes runs'
/// groups in: a fixed-width, order-preserving prefix of a key plus an
/// index that breaks ties — at a seal the key's head id, handed out as
/// first records arrive. The prefix is the key's partition at a seal (0
/// elsewhere) and variant tag, then for
/// [`K::Int`] the sign-flipped value, for [`K::Text`]/[`K::Bytes`] the
/// first 15 key bytes big-endian and zero-padded followed by one length
/// byte clamped at 16. Prefix order never contradicts [`K`]'s `Ord`
/// (a shorter key is a prefix of any longer key it ties with on padded
/// bytes, and sorts first both ways); only two keys of 16 bytes or more
/// that share their first 15 are left undecided (DESIGN.md §20).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SortKey {
    /// The partition at a seal (0 elsewhere), shifted past the two bits
    /// of the variant tag.
    class: u32,
    hi: u64,
    lo: u64,
    idx: u32,
}

impl SortKey {
    /// Entry for `key`, the `idx`-th to arrive.
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
            return SortKey { class: tag.into(), hi: (i as u64) ^ (1 << 63), lo: 0, idx };
        }
        let mut buf = [0u8; 16];
        let n = payload.len().min(15);
        buf[..n].copy_from_slice(&payload[..n]);
        buf[15] = payload.len().min(16) as u8;
        let word = |half: &[u8]| u64::from_be_bytes(half.try_into().expect("eight bytes"));
        SortKey { class: tag.into(), hi: word(&buf[..8]), lo: word(&buf[8..]), idx }
    }

    /// The arrival index.
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
        (self.class, self.hi, self.lo).cmp(&(other.class, other.hi, other.lo))
    }
}

/// Largest grouping table: 2¹⁵ eight-byte slots stay cache-resident.
const MAX_SLOTS: usize = 1 << 15;
/// Slots a lookup may visit before it gives up on the table.
const PROBE_BOUND: usize = 8;

/// One slot of the grouping table: a head id under the upper half of its
/// key's hash, so that a different key is told apart without reading it.
#[derive(Clone, Copy)]
struct Slot {
    fingerprint: u32,
    head: u32,
}

const EMPTY: Slot = Slot { fingerprint: 0, head: u32::MAX };

/// Hash of a packed key: its bytes eight at a time, the length word
/// included, through a multiply-fold.
fn hash_packed(packed: &[u8]) -> u64 {
    const M: u64 = 0x9E37_79B9_7F4A_7C15;
    let fold = |h: u64, word: u64| {
        let wide = u128::from(h ^ word) * u128::from(M);
        (wide as u64) ^ (wide >> 64) as u64
    };
    let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("eight bytes"));
    let body = &packed[1..];
    let mut h = u64::from(packed[0]);
    let mut chunks = body.chunks_exact(8);
    for chunk in &mut chunks {
        h = fold(h, word(chunk));
    }
    let rest = chunks.remainder().len();
    if rest > 0 {
        // The body is at least its eight header bytes long: read its last
        // eight and shift out those already folded.
        h = fold(h, word(&body[body.len() - 8..]) >> (8 * (8 - rest)));
    }
    h
}

/// A key as a seal found it: the offset of its first record's packed key,
/// its number of records, and, while the values move into key order, the
/// position its next value goes to.
#[derive(Debug, Clone, Copy)]
struct Head {
    first: u32,
    count: u32,
    next: u32,
}

/// The scratch of a seal, grown to the largest seal so far and cleared,
/// not freed, between seals.
#[derive(Default)]
struct Grouping {
    table: Vec<Slot>,
    /// The heads' keys; `idx` is the head's id.
    order: Vec<SortKey>,
    /// By head id.
    heads: Vec<Head>,
    /// Every record's head id, in arrival order; then its value's position.
    /// Empty for a column of one scalar, whose values do not move.
    ids: Vec<u32>,
}

thread_local! {
    static GROUPING: RefCell<Grouping> = RefCell::new(Grouping::default());
}

/// Frees this thread's seal scratch, grown to a whole map's output, when a
/// job's maps are done, so that it does not stay through the reduces.
pub(crate) fn release_grouping() {
    GROUPING.with(|scratch| *scratch.borrow_mut() = Grouping::default());
}

/// The group a run is at in the merge, ordered by key, then by run; the
/// run is unique in the heap, so the fields after it never decide.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct RunHead<'a> {
    /// The key's prefix (`idx` 0), and the key bytes the prefix leaves
    /// undecided.
    key: SortKey,
    tail: &'a [u8],
    run: usize,
    /// The run's keys, the group's packed key, and the cursors at the
    /// group and past it.
    keys: &'a [u8],
    packed: &'a [u8],
    at: Cursor,
    next: Cursor,
}

impl<'a> RunHead<'a> {
    /// The group at `at` of run `run`, whose keys are `keys`, as the heap
    /// holds it.
    fn at(keys: &'a [u8], run: usize, at: Cursor) -> Option<Reverse<Self>> {
        let (packed, _, next) = at.group(keys)?;
        let (tag, payload, _) = split_key(packed);
        let key = SortKey::of_parts(tag, payload, 0);
        let tail = if key.is_exact() { &[][..] } else { &payload[15..] };
        Some(Reverse(RunHead { key, tail, run, keys, packed, at, next }))
    }
}

/// Shows `f` the values at `places` (an index into `columns`, positions
/// there) as one slice of `values`, the buffer the merge and the combiner
/// lend every key group through, grown to the largest group exactly. A
/// group of one scalar is a prefix of copies of it that `values` keeps;
/// any other group is lent value by value and put back.
fn lend<R>(
    values: &mut Vec<V>,
    columns: &mut [&mut Column],
    places: &[(usize, Range<usize>)],
    f: impl FnOnce(&[V]) -> R,
) -> R {
    let n: usize = places.iter().map(|(_, at)| at.len()).sum();
    let scalar = |c: usize| match &*columns[c] {
        Column::Same(s, _) => Some(*s),
        _ => None,
    };
    let first = scalar(places[0].0);
    if let Some(s) = first.filter(|_| places.iter().all(|(c, _)| scalar(*c) == first)) {
        if values.first().and_then(Scalar::of) != Some(s) {
            values.clear();
        }
        values.reserve_exact(n.saturating_sub(values.len()));
        values.resize(n.max(values.len()), s.value());
        return f(&values[..n]);
    }
    values.clear();
    values.reserve_exact(n);
    for (c, at) in places {
        values.extend(at.clone().map(|i| columns[*c].lend(i)));
    }
    let result = f(values);
    let each = places.iter().flat_map(|(c, at)| at.clone().map(move |i| (*c, i)));
    for ((c, i), v) in each.zip(values.drain(..)) {
        columns[c].give_back(i, v);
    }
    result
}

/// Streams the key groups of `runs` to `f` in key order, each group's
/// values in run order and, within a run, in emission order: what
/// [`crate::app::group_by_key`] yields for the concatenation. This is the
/// reduce-side merge: one cursor per run and a heap on the runs' next
/// keys. No record is moved or copied — per group the key is decoded into
/// one reused `K` and the values are lent through one reused buffer — and
/// the runs are as they were when it returns, so they can be merged again.
pub fn for_each_group(runs: &mut [&mut Run], mut f: impl FnMut(&K, &[V])) {
    let mut columns = Vec::with_capacity(runs.len());
    let mut heap = BinaryHeap::with_capacity(runs.len());
    for (r, run) in runs.iter_mut().enumerate() {
        let Run { keys, values, .. } = &mut **run;
        heap.extend(RunHead::at(keys, r, Cursor::default()));
        columns.push(values);
    }
    let (mut key, mut values) = (K::Int(0), Vec::new());
    // The runs and positions of the current key's values.
    let mut lent: Vec<(usize, Range<usize>)> = Vec::new();
    while let Some(Reverse(first)) = heap.pop() {
        unpack_key_into(first.packed, &mut key);
        let (prefix, tail) = (first.key, first.tail);
        let mut head = Some(first);
        while let Some(RunHead { run, keys, at, next, .. }) = head {
            lent.push((run, at.value..next.value));
            heap.extend(RunHead::at(keys, run, next));
            let same = heap.peek().is_some_and(|Reverse(h)| h.key == prefix && h.tail == tail);
            head = if same { heap.pop().map(|Reverse(h)| h) } else { None };
        }
        lend(&mut values, &mut columns, &lent, |vals| f(&key, vals));
        lent.clear();
    }
}

/// Runs `app`'s combiner over one run, group by group in key order; used
/// by the map-side spill path. A group the app declines passes through
/// verbatim (anything it emitted before declining is dropped), and what it
/// emits is sealed into the run that comes back. If the app declines every
/// group — it has no combiner — the run itself comes back.
pub fn combine_run(app: &dyn MapReduceApp, mut run: Run) -> Run {
    let mut out = RunBuilder::default();
    let mut emitted: Vec<Record> = Vec::new();
    let (mut key, mut values) = (K::Int(0), Vec::new());
    let mut combined = false;
    // Declined groups stay in `run` until a combined one follows them;
    // they start at `kept`.
    let (mut at, mut kept) = (Cursor::default(), Cursor::default());
    while let Some((packed, positions, next)) = at.group(&run.keys) {
        unpack_key_into(packed, &mut key);
        let places = [(0, positions)];
        let combine = |values: &[V]| app.combine(&key, values, &mut |k, v| emitted.push((k, v)));
        if lend(&mut values, &mut [&mut run.values], &places, combine) {
            combined = true;
            run.move_groups(kept, at, &mut out);
            for (k, v) in emitted.drain(..) {
                out.push(&k, v);
            }
            kept = next;
        } else {
            emitted.clear();
        }
        at = next;
    }
    if !combined {
        return run;
    }
    run.move_groups(kept, at, &mut out);
    out.seal(1, |_| 0).pop().expect("one run")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{group_by_key, HashPartitioner, Partitioner, RangePartitioner};
    use proptest::{check, Config, Gen};

    fn keys() -> Vec<K> {
        let mut keys = vec![
            K::Int(-7),
            K::Int(i64::MAX),
            K::from(""),
            K::from("word"),
            K::from("a key of more than sixteen bytes"),
            K::Bytes(vec![]),
            K::Bytes(vec![0, 255, 3]),
        ];
        keys.extend(crate::types::tests::edge_keys());
        keys
    }

    /// `records` as a sealed run holds them: grouped by key, in key order.
    fn grouped(records: &[Record]) -> Vec<Record> {
        let groups = group_by_key(records.to_vec()).into_iter();
        groups.flat_map(|(k, vs)| vs.into_iter().map(move |v| (k.clone(), v))).collect()
    }

    fn encoded(x: &impl Persist) -> Vec<u8> {
        let mut e = Encoder::new();
        x.encode(&mut e);
        e.finish()
    }

    #[test]
    fn packed_keys_are_the_persist_encoding() {
        for key in keys() {
            let header = Encoder::new().finish().len();
            let mut packed = Vec::new();
            pack_key(&key, &mut packed);
            assert_eq!(packed, encoded(&key)[header..], "{key:?}");
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
            let sorted = grouped(&records);
            assert_eq!(run.len(), records.len());
            assert_eq!(run.bytes(), crate::types::records_size(&records));
            assert_eq!(run.to_records(), sorted);
            let bytes = encoded(&run);
            assert_eq!(bytes, encoded(&sorted));
            let back = Run::decode(&mut Decoder::new(&bytes));
            assert_eq!(back, run);
            // The same records in emission order, as runs were written
            // before sealing grouped them, restore to the same run.
            assert_eq!(Run::decode(&mut Decoder::new(&encoded(&records))), run);
        }
    }

    /// `run` holds `records`: decoded, sized and encoded as their key
    /// groups, and again after a snapshot round trip. Compared as bytes,
    /// which tell `-0.0` from `0.0` and one `NaN` from another.
    fn assert_holds(run: &Run, records: &[Record]) {
        let expect = encoded(&grouped(records));
        assert_eq!(encoded(run), expect);
        assert_eq!(encoded(&run.to_records()), expect);
        assert_eq!(run.len(), records.len());
        assert_eq!(run.bytes(), crate::types::records_size(records));
        let back = Run::decode(&mut Decoder::new(&expect));
        assert_eq!(encoded(&back), expect);
        assert_eq!(back.bytes(), run.bytes());
    }

    #[test]
    fn a_column_of_one_scalar_is_that_scalar_and_a_count() {
        let nan = |payload: u64| V::Float(f64::from_bits(f64::NAN.to_bits() | payload));
        let same = |column: &Column, n: usize| matches!(column, Column::Same(_, m) if *m == n);
        // (the scalar, a different value of its kind if there is one)
        let kinds = [
            (V::Null, None),
            (V::Int(7), Some(V::Int(8))),
            (V::Float(0.5), Some(V::Float(0.25))),
            (V::Float(0.0), Some(V::Float(-0.0))),
            (nan(1), Some(nan(2))),
        ];
        let others = [
            V::Null,
            V::Int(7),
            V::Float(0.5),
            V::from("text"),
            V::Vector(vec![1.0]),
            V::Bytes(vec![1u8].into()),
        ];
        for (scalar, sibling) in &kinds {
            for n in [0usize, 1, 5] {
                let records: Vec<Record> =
                    (0..n).map(|i| (K::Int(i as i64), scalar.clone())).collect();
                let run: Run = records.iter().cloned().collect();
                assert!(same(&run.values, n), "{n} x {scalar:?}: {:?}", run.values);
                assert_holds(&run, &records);

                // A different value of the same kind: the typed column.
                if let Some(sibling) = sibling {
                    let mut typed = records.clone();
                    typed.push((K::from("next"), sibling.clone()));
                    let run: Run = typed.iter().cloned().collect();
                    match (&run.values, n) {
                        (column, 0) => assert!(same(column, 1)),
                        (Column::Int(_), _) => assert!(matches!(scalar, V::Int(_))),
                        (Column::Float(_), _) => assert!(matches!(scalar, V::Float(_))),
                        (column, _) => panic!("{n} x {scalar:?} then {sibling:?}: {column:?}"),
                    }
                    assert_holds(&run, &typed);
                }
                // Another kind, or a heap-backed value: owned values.
                for other in &others {
                    if std::mem::discriminant(other) == std::mem::discriminant(scalar) {
                        continue;
                    }
                    let mut mixed = records.clone();
                    mixed.push((K::from("next"), other.clone()));
                    let run: Run = mixed.iter().cloned().collect();
                    match (&run.values, n) {
                        (Column::Mixed(_), _) => {}
                        (column, 0) if Scalar::of(other).is_some() => assert!(same(column, 1)),
                        (Column::Bytes(bs), 0) => {
                            assert!(matches!(other, V::Bytes(_)) && bs.len() == 1)
                        }
                        (column, _) => panic!("{n} x {scalar:?} then {other:?}: {column:?}"),
                    }
                    assert_holds(&run, &mixed);
                }
            }
        }
    }

    /// The memory contract of a sealed run: `N` records of `(word, 1)` over
    /// `D` distinct words are the `D` packed keys, each behind its
    /// five-byte count, and a column of one value and a count — nothing
    /// per record. Records whose keys are all distinct are their packed
    /// keys alone, as before sealing.
    #[test]
    fn a_sealed_wordcount_run_holds_one_key_per_word() {
        let packed_len = |k: &K| {
            let mut packed = Vec::new();
            pack_key(k, &mut packed);
            packed.len()
        };
        let words: Vec<K> = (0..50).map(|i| K::from(format!("word{i}").as_str())).collect();
        let records: Vec<Record> =
            (0..100_000).map(|i| (words[(i * 7) % words.len()].clone(), V::Int(1))).collect();
        let run: Run = records.iter().cloned().collect();
        let expect: usize = words.iter().map(|k| COUNT + packed_len(k)).sum();
        assert_eq!(run.keys.len(), expect);
        assert_eq!(run.keys.capacity(), expect, "the keys buffer is sealed exactly");
        assert_eq!(run.values, Column::Same(Scalar::Int(1), 100_000));
        assert_eq!(run.group_count(), words.len());
        assert_eq!(run.to_records(), grouped(&records));

        let distinct: Vec<Record> = words.iter().map(|k| (k.clone(), V::Int(1))).collect();
        let run: Run = distinct.iter().cloned().collect();
        assert_eq!(run.keys.len(), words.iter().map(packed_len).sum::<usize>());
        assert_eq!(run.to_records(), grouped(&distinct));
    }

    #[test]
    fn a_scalar_column_meeting_another_kind_keeps_values_and_order() {
        let mut builder = RunBuilder::default();
        builder.push(&K::Int(1), V::Int(10));
        builder.push(&K::Int(2), V::Int(20));
        assert!(matches!(builder.values, Column::Int(_)));
        builder.push(&K::Int(3), V::Float(0.5));
        builder.push(&K::Int(4), V::Null);
        assert!(matches!(builder.values, Column::Mixed(_)));
        let expect = vec![V::Int(10), V::Int(20), V::Float(0.5), V::Null].into_iter().enumerate();
        let expect: Vec<Record> = expect.map(|(i, v)| (K::Int(i as i64 + 1), v)).collect();
        assert_eq!(builder.seal(1, |_| 0).pop().expect("one run").to_records(), expect);
        let nulls: Vec<Record> = (0..3).map(|i| (K::Int(i), V::Null)).collect();
        let run: Run = nulls.iter().cloned().collect();
        assert!(matches!(run.values, Column::Same(Scalar::Null, 3)));
        let mut mixed = nulls.clone();
        mixed.push((K::Int(-1), V::Int(1)));
        let run: Run = mixed.iter().cloned().collect();
        assert_eq!(run.to_records()[0], (K::Int(-1), V::Int(1)));
        assert_eq!(run.to_records()[1..], nulls[..]);

        // A byte column keeps the handles; a value of another kind turns it
        // mixed, the same buffers in the same order.
        let payloads: Vec<Arc<[u8]>> = (0..3u8).map(|i| vec![i; 3].into()).collect();
        let mut builder = RunBuilder::default();
        builder.push(&K::Int(1), V::Bytes(Arc::clone(&payloads[0])));
        builder.push(&K::Int(2), V::Bytes(Arc::clone(&payloads[1])));
        assert!(matches!(&builder.values, Column::Bytes(bs) if bs.len() == 2));
        builder.push(&K::Int(3), V::Float(0.5));
        builder.push(&K::Int(4), V::Bytes(Arc::clone(&payloads[2])));
        let run = builder.seal(1, |_| 0).pop().expect("one run");
        let Column::Mixed(vs) = &run.values else { panic!("{:?}", run.values) };
        let shared = |v: &V, p: &Arc<[u8]>| matches!(v, V::Bytes(b) if Arc::ptr_eq(b, p));
        assert!(shared(&vs[0], &payloads[0]) && shared(&vs[1], &payloads[1]));
        assert_eq!(vs[2], V::Float(0.5));
        assert!(shared(&vs[3], &payloads[2]));
        // And a scalar column meeting a byte payload.
        let mut ints: Vec<Record> = (0..3).map(|i| (K::Int(i), V::Int(i))).collect();
        ints.push((K::Int(3), V::Bytes(Arc::clone(&payloads[0]))));
        let run: Run = ints.iter().cloned().collect();
        assert!(matches!(run.values, Column::Mixed(_)));
        assert_eq!(run.to_records(), ints);
    }

    /// Every byte payload a run holds is the buffer that was emitted — the
    /// same `Arc`, not a copy — through a seal, a partition split, a
    /// combiner that passes groups through, and the merge.
    #[test]
    fn byte_payloads_stay_the_emitted_buffers() {
        // Payload `n` is record `n`'s, and says so.
        let records: Vec<Record> =
            (0..300i64).map(|n| (K::Int(n % 37), V::Bytes(n.to_le_bytes().into()))).collect();
        let emitted = |v: &V| match v {
            V::Bytes(b) => {
                let n = i64::from_le_bytes((**b).try_into().expect("eight bytes"));
                matches!(&records[n as usize].1, V::Bytes(a) if Arc::ptr_eq(a, b))
            }
            _ => true,
        };
        let shared = |column: &Column| (0..column.len()).all(|i| column.with(i, emitted));

        let run: Run = records.iter().cloned().collect();
        assert!(matches!(run.values, Column::Bytes(_)));
        assert!(shared(&run.values));
        for parts in [2, 5] {
            let (runs, _) = split_with(&records, parts, &HashPartitioner, MAX_SLOTS, PROBE_BOUND);
            assert!(runs.iter().all(|run| matches!(run.values, Column::Bytes(_))));
            assert!(runs.iter().all(|run| shared(&run.values)));
        }
        for accepts in [|_: &K| false, |k: &K| k.as_int() % 2 == 0] {
            let combined = combine_run(&CountApp { accepts }, run.clone());
            assert!(!combined.is_empty() && shared(&combined.values));
        }
        let mut runs = [run.clone(), run];
        let mut lent: Vec<&mut Run> = runs.iter_mut().collect();
        let mut seen = 0;
        for_each_group(&mut lent, |_, vals| {
            assert!(vals.iter().all(emitted));
            seen += vals.len();
        });
        assert_eq!(seen, 2 * records.len());
        assert!(runs.iter().all(|run| shared(&run.values)));
    }

    /// An encoded run of `records` with the tag byte of its first key
    /// replaced by `tag`.
    fn with_first_tag(records: &[Record], tag: u8) -> Vec<u8> {
        let run: Run = records.iter().cloned().collect();
        let mut bytes = encoded(&run);
        // The header, then the record count: the first key starts here.
        let at = Encoder::new().finish().len() + 8;
        bytes[at] = tag;
        bytes
    }

    #[test]
    #[should_panic(expected = "unknown K tag 7")]
    fn a_run_whose_key_tag_is_corrupt_is_rejected_at_decode() {
        let bytes = with_first_tag(&[(K::from("a"), V::Int(1)), (K::from("b"), V::Int(2))], 7);
        Run::decode(&mut Decoder::new(&bytes));
    }

    #[test]
    #[should_panic(expected = "snapshot strings are UTF-8")]
    fn a_text_key_that_is_not_utf8_is_rejected_at_decode() {
        // A `Bytes` key whose tag is flipped to `Text`.
        let bytes = with_first_tag(&[(K::Bytes(vec![0xFF, 0xFE]), V::Null)], 1);
        Run::decode(&mut Decoder::new(&bytes));
    }

    /// Up to `max` bytes of a small alphabet with 0 in it.
    fn random_bytes(g: &mut Gen, max: usize) -> Vec<u8> {
        (0..g.usize_in(0, max)).map(|_| *g.choose(&[0u8, 1, b'a', 0xFF])).collect()
    }

    /// A small pool of keys of all three variants, long ones that share
    /// their first 15 bytes among them.
    fn random_pool(g: &mut Gen) -> Vec<K> {
        let stem = vec![b'k'; 15];
        let mut pool: Vec<K> = (0..g.usize_in(1, 30))
            .map(|_| match g.usize_in(0, 3) {
                0 => K::Int(g.u64_in(0, 5) as i64 - 2),
                1 => K::Bytes(random_bytes(g, 9)),
                2 => K::from(
                    random_bytes(g, 9)
                        .iter()
                        .map(|b| (b & 0x7F) as char)
                        .collect::<String>()
                        .as_str(),
                ),
                _ => K::Bytes([stem.clone(), random_bytes(g, 3)].concat()),
            })
            .collect();
        pool.push(K::Bytes(stem));
        pool
    }

    /// A few runs over a small pool of keys of all three variants — long
    /// ones that share their first 15 bytes among them — so that groups
    /// repeat within a run and across runs; one run is empty.
    fn random_runs(g: &mut Gen, value: fn(&mut Gen, i64) -> V) -> Vec<Vec<Record>> {
        let pool = random_pool(g);
        let mut next = 0;
        let mut runs: Vec<Vec<Record>> = (0..g.usize_in(0, 5))
            .map(|_| {
                (0..g.usize_in(0, 40))
                    .map(|_| {
                        next += 1;
                        (g.choose(&pool).clone(), value(g, next))
                    })
                    .collect()
            })
            .collect();
        let at = g.usize_in(0, runs.len());
        runs.insert(at, Vec::new());
        runs
    }

    /// Value generators: one scalar throughout, distinct scalars, byte
    /// payloads, and every kind — heap-backed ones among them — at random.
    const VALUES: [fn(&mut Gen, i64) -> V; 5] = [
        |_, _| V::Int(1),
        |_, n| V::Int(n),
        |_, n| V::Float(n as f64),
        |_, n| V::Bytes(n.to_le_bytes().into()),
        |g, n| match g.usize_in(0, 4) {
            0 => V::Null,
            1 => V::Int(n),
            2 => V::Text(n.to_string()),
            3 => V::Vector(vec![n as f64; 2]),
            _ => V::Bytes(n.to_le_bytes().into()),
        },
    ];

    /// Whether every byte payload among `a`'s values is the very buffer at
    /// its place among `b`'s.
    fn same_buffers(a: &[Record], b: &[Record]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|pair| match pair {
                ((_, V::Bytes(x)), (_, V::Bytes(y))) => Arc::ptr_eq(x, y),
                _ => true,
            })
    }

    /// Counts a group's values; combines the groups `accepts` says.
    struct CountApp {
        accepts: fn(&K) -> bool,
    }

    impl MapReduceApp for CountApp {
        fn name(&self) -> &str {
            "count"
        }
        fn map(&self, _: &K, _: &V, _: &mut dyn FnMut(K, V)) {}
        fn reduce(&self, _: &K, _: &[V], _: &mut dyn FnMut(K, V)) {}
        fn combine(&self, k: &K, vs: &[V], out: &mut dyn FnMut(K, V)) -> bool {
            let accepted = (self.accepts)(k);
            if accepted {
                out(k.clone(), V::Int(vs.len() as i64));
            }
            accepted
        }
    }

    /// The combiner over `group_by_key`: each group combined or put back
    /// verbatim, in key order.
    fn reference_combiner(app: &dyn MapReduceApp, records: Vec<Record>) -> Vec<Record> {
        let mut out: Vec<Record> = Vec::new();
        for (k, vals) in group_by_key(records) {
            if !app.combine(&k, &vals, &mut |ek, ev| out.push((ek, ev))) {
                out.extend(vals.into_iter().map(|v| (k.clone(), v)));
            }
        }
        out
    }

    /// Seals `records` into `parts` runs by `partitioner`, with a table of
    /// `slots` slots and lookups of `probes` slots at most; the runs in
    /// partition order, and how many heads were joined.
    fn split_with(
        records: &[Record],
        parts: usize,
        partitioner: &dyn Partitioner,
        slots: usize,
        probes: usize,
    ) -> (Vec<Run>, usize) {
        let mut builder = RunBuilder::default();
        for (k, v) in records {
            builder.push(k, v.clone());
        }
        let mut scratch = Grouping::default();
        let partition = |k: &K| partitioner.partition(k, parts as u32) as usize;
        let runs = builder.seal_with(&mut scratch, parts, partition, slots, probes);
        let joined = scratch.heads.len() - runs.iter().map(Run::group_count).sum::<usize>();
        (runs, joined)
    }

    /// [`split_with`] into one run.
    fn sealed_with(records: &[Record], slots: usize, probes: usize) -> (Run, usize) {
        let (mut runs, joined) = split_with(records, 1, &HashPartitioner, slots, probes);
        (runs.pop().expect("one run"), joined)
    }

    /// Values chosen by key as well as at random, so that a partition's
    /// share of a typed or mixed column is often one scalar (`0.0` and
    /// `-0.0` among them) or one kind: every column kind a piece can take.
    const KEYED_VALUES: [fn(&mut Gen, &K, i64) -> V; 8] = [
        |_, _, _| V::Int(1),
        |_, _, n| V::Int(n),
        |_, k, _| V::Int((k.stable_hash() % 2) as i64),
        |_, k, _| V::Float(if k.stable_hash() % 2 == 0 { 0.0 } else { -0.0 }),
        |_, k, n| if k.stable_hash() % 2 == 0 { V::from("text") } else { V::Float(n as f64) },
        |_, _, n| V::Bytes(n.to_le_bytes().into()),
        |_, k, n| if k.stable_hash() % 2 == 0 { V::Bytes(vec![1].into()) } else { V::Int(n) },
        |g, _, n| match g.usize_in(0, 5) {
            0 => V::Null,
            1 => V::Int(n),
            2 => V::Float(n as f64),
            3 => V::Text(n.to_string()),
            4 => V::Bytes(n.to_le_bytes().into()),
            _ => V::Vector(vec![n as f64; 2]),
        },
    ];

    /// Seals `records` into 1 to 8 partitions by both partitioners, with a
    /// table of `slots` slots and lookups of `probes` slots at most, and
    /// checks each run against the one `FromIterator` builds from that
    /// partition's records alone: the same encoding, size, length, column
    /// and keys. Returns how many heads were joined.
    fn assert_splits_like_per_partition_seals(
        records: &[Record],
        slots: usize,
        probes: usize,
    ) -> usize {
        let mut joined = 0;
        for parts in 1..=8 {
            let partitioners: [&dyn Partitioner; 2] = [&HashPartitioner, &RangePartitioner];
            for partitioner in partitioners {
                let (runs, j) = split_with(records, parts, partitioner, slots, probes);
                joined += j;
                for (p, run) in runs.iter().enumerate() {
                    let own = records
                        .iter()
                        .filter(|(k, _)| partitioner.partition(k, parts as u32) as usize == p);
                    let expect: Run = own.cloned().collect();
                    assert_eq!(encoded(run), encoded(&expect), "{p} of {parts}");
                    assert_eq!((run.bytes(), run.len()), (expect.bytes(), expect.len()));
                    assert_eq!(run, &expect, "{p} of {parts}");
                    assert!(same_buffers(&run.to_records(), &expect.to_records()));
                }
            }
        }
        joined
    }

    #[test]
    fn a_split_seal_cuts_what_each_partition_seals_to_alone() {
        let mut joined = 0;
        check("split-seal", Config::with_cases(100), |g| {
            let value = *g.choose(&KEYED_VALUES);
            let pool = random_pool(g);
            let records: Vec<Record> = (0..g.usize_in(0, 120) as i64)
                .map(|n| {
                    let k = g.choose(&pool).clone();
                    let v = value(g, &k, n);
                    (k, v)
                })
                .collect();
            assert_splits_like_per_partition_seals(&records, MAX_SLOTS, PROBE_BOUND);
            joined += assert_splits_like_per_partition_seals(&records, 8, 2);
        });
        assert!(joined > 0, "no case joined the heads of a key the table had no room for");

        // More distinct keys than the largest table has room for, of all
        // three variants, some of those it had no room for twice.
        let mut g = Gen::from_seed(7);
        let records: Vec<Record> = (0..20_000i64)
            .chain(17_000..20_000)
            .map(|i| {
                let k = match i % 3 {
                    0 => K::Int(i * 7919 - 50_000),
                    1 => K::from(format!("word-{i}").as_str()),
                    _ => K::Bytes([vec![b'k'; 15], i.to_le_bytes().to_vec()].concat()),
                };
                let v = KEYED_VALUES[i as usize % KEYED_VALUES.len()](&mut g, &k, i);
                (k, v)
            })
            .collect();
        assert!(assert_splits_like_per_partition_seals(&records, MAX_SLOTS, PROBE_BOUND) > 0);
    }

    /// Bounded probing is the contract: with a table that has room for four
    /// keys and lookups that give up after two slots, most keys start a
    /// head at every record, and the sealed runs still come out as they do
    /// with the full table — so the merge of them is `group_by_key` of the
    /// concatenation, and the combiner over one is the grouping one.
    #[test]
    fn groups_equal_group_by_key_whatever_the_table_holds() {
        let apps = [
            CountApp { accepts: |_| true },
            CountApp { accepts: |_| false },
            CountApp { accepts: |k| k.stable_hash() % 2 == 0 },
        ];
        let mut joined = 0;
        check("grouping-tables", Config::with_cases(300), |g| {
            let value = *g.choose(&VALUES);
            let parts = random_runs(g, value);
            let expected = group_by_key(parts.concat());
            let mut runs: Vec<Run> = Vec::new();
            for part in &parts {
                let (tiny, j) = sealed_with(part, 8, 2);
                joined += j;
                let run: Run = part.iter().cloned().collect();
                assert_eq!(tiny, run);
                assert_eq!(run.to_records(), grouped(part));
                runs.push(run);
            }
            let before = runs.clone();
            // Twice: lent values are back in place after a merge.
            let flat = |groups: &[(K, Vec<V>)]| -> Vec<Record> {
                let each =
                    groups.iter().flat_map(|(k, vs)| vs.iter().map(|v| (k.clone(), v.clone())));
                each.collect()
            };
            for _ in 0..2 {
                let mut lent: Vec<&mut Run> = runs.iter_mut().collect();
                let mut streamed = Vec::new();
                for_each_group(&mut lent, |k, vals| streamed.push((k.clone(), vals.to_vec())));
                assert_eq!(streamed, expected);
                assert!(same_buffers(&flat(&streamed), &flat(&expected)));
                assert_eq!(runs, before);
            }
            let records = parts.concat();
            for app in &apps {
                let combined = combine_run(app, records.iter().cloned().collect());
                let expect = reference_combiner(app, records.clone());
                assert_eq!(combined.to_records(), expect);
                assert!(same_buffers(&combined.to_records(), &expect));
                assert_eq!(combined.bytes(), crate::types::records_size(&expect));
            }
        });
        assert!(joined > 0, "no case joined the heads of a key the table had no room for");
    }

    /// Keys that all hash to one slot of the largest table: eight find
    /// room within the probe bound, the others cost a bounded lookup and a
    /// head per record, and the seal is still right.
    #[test]
    fn keys_crafted_into_one_slot_are_merged_in_bounded_work() {
        let slot_of = |i: i64| {
            let mut packed = Vec::new();
            pack_key(&K::Int(i), &mut packed);
            hash_packed(&packed) as usize & (MAX_SLOTS - 1)
        };
        let hostile: Vec<i64> = (0..).filter(|&i| slot_of(i) == 0).take(300).collect();
        let records: Vec<Record> = (0..100)
            .flat_map(|round| hostile.iter().map(move |&i| (K::Int(i), V::Int(round))))
            .collect();
        let (run, joined) = sealed_with(&records, MAX_SLOTS, PROBE_BOUND);
        assert_eq!(run.group_count(), hostile.len());
        assert_eq!(joined + hostile.len(), PROBE_BOUND + (hostile.len() - PROBE_BOUND) * 100);
        assert_eq!(run.to_records(), grouped(&records));
    }
}
