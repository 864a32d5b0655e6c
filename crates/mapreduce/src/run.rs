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

/// A value a column can hold without storage of its own. Equal means equal
/// bit for bit: `0.0` and `-0.0`, or two `NaN`s of different payload, are
/// different values.
#[derive(Debug, Clone, Copy)]
enum Scalar {
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

/// The values of a run. `Null`/`Int`/`Float` are stored bare while the run
/// has seen one kind only — as one value and a count while it has seen one
/// value only; any other value, or a second kind, turns the column into
/// owned `V`s (earlier values and their order kept).
#[derive(Debug, Clone, PartialEq)]
enum Column {
    /// That many copies of one scalar, no storage per value; `Same(_, 0)`
    /// is the empty column of any kind.
    Same(Scalar, usize),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Mixed(Vec<V>),
}

impl Column {
    fn len(&self) -> usize {
        match self {
            Column::Same(_, n) => *n,
            Column::Int(xs) => xs.len(),
            Column::Float(xs) => xs.len(),
            Column::Mixed(vs) => vs.len(),
        }
    }

    fn push(&mut self, v: V) {
        match (&mut *self, v) {
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
            (Column::Mixed(vs), v) => vs.push(v),
            (_, v) => {
                let mut vs: Vec<V> = match &*self {
                    Column::Int(xs) => xs.iter().map(|&x| V::Int(x)).collect(),
                    Column::Float(xs) => xs.iter().map(|&x| V::Float(x)).collect(),
                    Column::Same(..) | Column::Mixed(_) => unreachable!("matched above"),
                };
                vs.push(v);
                *self = Column::Mixed(vs);
            }
        }
    }

    /// Shows the `i`-th value to `f`.
    fn with<R>(&self, i: usize, f: impl FnOnce(&V) -> R) -> R {
        match self {
            Column::Same(s, _) => f(&s.value()),
            Column::Int(xs) => f(&V::Int(xs[i])),
            Column::Float(xs) => f(&V::Float(xs[i])),
            Column::Mixed(vs) => f(&vs[i]),
        }
    }

    /// The `i`-th value: a scalar by value, an owned one moved out (a
    /// placeholder stays until [`Column::give_back`]).
    fn lend(&mut self, i: usize) -> V {
        match self {
            Column::Same(s, _) => s.value(),
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
            Column::Same(..) => {}
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
        Run { keys: Vec::new(), values: Column::Same(Scalar::Null, 0), bytes: 0 }
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
// codec by hand: packed keys are copied as their `K` bytes, not decoded and re-encoded
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
/// key groups by: a fixed-width, order-preserving prefix of a key plus an
/// index that breaks ties — groups are numbered as their first records
/// arrive. The prefix is the variant tag, then for
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
            return SortKey { tag, hi: (i as u64) ^ (1 << 63), lo: 0, idx };
        }
        let mut buf = [0u8; 16];
        let n = payload.len().min(15);
        buf[..n].copy_from_slice(&payload[..n]);
        buf[15] = payload.len().min(16) as u8;
        let word = |half: &[u8]| u64::from_be_bytes(half.try_into().expect("eight bytes"));
        SortKey { tag, hi: word(&buf[..8]), lo: word(&buf[8..]), idx }
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
        (self.tag, self.hi, self.lo).cmp(&(other.tag, other.hi, other.lo))
    }
}

/// Where a record sits: its run, and an offset there — of its packed key
/// (a group's first record) or of its value (a slot).
#[derive(Debug, Clone, Copy)]
struct Locator {
    run: u32,
    at: u32,
}

/// What a group knows besides its [`SortKey`].
#[derive(Debug, Clone, Copy)]
struct Head {
    /// The packed key of the group's first record.
    first: Locator,
    /// While grouping, the number of records; then one past the group's
    /// last slot.
    end: u32,
}

/// Largest grouping table: 2¹⁵ eight-byte slots stay cache-resident.
const MAX_SLOTS: usize = 1 << 15;
/// Slots a lookup may visit before it gives up on the table.
const PROBE_BOUND: usize = 8;

/// One slot of the grouping table: a group id under the upper half of its
/// key's hash, so that a different key is told apart without reading it.
#[derive(Clone, Copy)]
struct Slot {
    fingerprint: u32,
    group: u32,
}

const EMPTY: Slot = Slot { fingerprint: 0, group: u32::MAX };

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

/// The key groups of several runs in key order, each group's values in
/// arrival order: what [`crate::app::group_by_key`] yields for the
/// concatenation. Records are hashed into their groups and only the
/// distinct keys are sorted (DESIGN.md §20): one walk over the packed keys
/// gives each record a group id through a small bounded table, the groups'
/// [`SortKey`]s are sorted, and a second walk scatters every record's place
/// into its group's slice of `slots`. The table is an accelerator only: a
/// key it has no room for, or cannot reach within the probe bound, starts
/// a new group at every record, and groups of one key — adjacent once
/// sorted, in arrival order — are joined. The runs are passed to every
/// call, not held, so the caller can fill another run between groups.
pub(crate) struct Groups {
    /// The groups' keys in key order; `idx` is the group's id.
    order: Vec<SortKey>,
    /// By group id.
    heads: Vec<Head>,
    /// Run and position there of every record's value, group after group
    /// in key order, in arrival order within a group.
    slots: Vec<Locator>,
    /// Position in `order` of the next group.
    next: usize,
    /// The lent group's key, decoded into one reused `K`.
    key: K,
    /// The lent group's values.
    values: Vec<V>,
}

impl Groups {
    pub(crate) fn over(runs: &[&mut Run]) -> Self {
        Self::with_table(runs, MAX_SLOTS, PROBE_BOUND)
    }

    /// [`Groups::over`] with a table of `max_slots` slots (a power of two)
    /// at most, filled to half, and lookups that visit `probes` slots at
    /// most.
    fn with_table(runs: &[&mut Run], max_slots: usize, probes: usize) -> Self {
        let total: usize = runs.iter().map(|run| run.len()).sum();
        assert!(u32::try_from(total).is_ok_and(|n| n < u32::MAX), "2^32 records in one merge");
        let packed_at = |first: Locator, len: usize| {
            runs[first.run as usize].keys.get(first.at as usize..first.at as usize + len)
        };

        // First walk: a group id per record.
        let mut table = vec![EMPTY; (2 * total).next_power_of_two().min(max_slots)];
        let (mask, mut room) = (table.len() - 1, table.len() / 2);
        let mut order: Vec<SortKey> = Vec::new();
        let mut heads: Vec<Head> = Vec::new();
        let mut ids: Vec<u32> = Vec::with_capacity(total);
        for (r, run) in runs.iter().enumerate() {
            let r = u32::try_from(r).expect("more than 2^32 runs in one merge");
            for (at, packed) in run.packed_keys() {
                let hash = hash_packed(packed);
                let fingerprint = (hash >> 32) as u32;
                let mut found = None;
                let mut free = None;
                for step in 0..probes {
                    let slot = (hash as usize).wrapping_add(step) & mask;
                    let Slot { fingerprint: f, group } = table[slot];
                    if group == EMPTY.group {
                        free = Some(slot).filter(|_| room > 0);
                        break;
                    }
                    if f == fingerprint
                        && packed_at(heads[group as usize].first, packed.len()) == Some(packed)
                    {
                        found = Some(group);
                        break;
                    }
                }
                let group = found.unwrap_or_else(|| {
                    let group = order.len() as u32;
                    if let Some(slot) = free {
                        table[slot] = Slot { fingerprint, group };
                        room -= 1;
                    }
                    let (tag, payload, _) = split_key(packed);
                    order.push(SortKey::of_parts(tag, payload, group as usize));
                    let at = u32::try_from(at).expect("more than 4 GiB of keys in one run");
                    heads.push(Head { first: Locator { run: r, at }, end: 0 });
                    group
                });
                heads[group as usize].end += 1;
                ids.push(group);
            }
        }
        drop(table);

        // The distinct keys in key order; equal ones by id, which is
        // arrival order.
        let payload =
            |first: Locator| split_key(&runs[first.run as usize].keys[first.at as usize..]).1;
        order.sort_unstable();
        for tie in order.chunk_by_mut(|a, b| a.prefix_cmp(b).is_eq()) {
            if tie.len() > 1 && !tie[0].is_exact() {
                // Already in arrival order, which a stable sort keeps.
                tie.sort_by_key(|e| payload(heads[e.index()].first));
            }
        }

        // Second walk: counts become each group's first slot, then every
        // record's place goes to its group's next one.
        let mut start = 0;
        for e in &order {
            start += std::mem::replace(&mut heads[e.index()].end, start);
        }
        let mut slots = vec![Locator { run: 0, at: 0 }; total];
        let mut ids = ids.into_iter();
        for (r, run) in runs.iter().enumerate() {
            for (at, group) in (0..run.len() as u32).zip(&mut ids) {
                let next = &mut heads[group as usize].end;
                slots[*next as usize] = Locator { run: r as u32, at };
                *next += 1;
            }
        }

        // Groups of one key lie side by side: the first takes the others'
        // slots.
        order.dedup_by(|later, kept| {
            let Head { first, end } = heads[later.index()];
            let head = &mut heads[kept.index()];
            let same = kept.prefix_cmp(later).is_eq()
                && (kept.is_exact() || payload(head.first) == payload(first));
            if same {
                head.end = end;
            }
            same
        });
        Groups { order, heads, slots, next: 0, key: K::Int(0), values: Vec::new() }
    }

    /// A table so small that most keys find no room in it.
    #[cfg(test)]
    fn tiny(runs: &[&mut Run]) -> Self {
        Self::with_table(runs, 8, 2)
    }

    /// Number of key groups.
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// The packed key of the group at `position` of `order`.
    fn packed<'a>(&self, runs: &'a [&mut Run], position: usize) -> &'a [u8] {
        let first = self.heads[self.order[position].index()].first;
        let rest = &runs[first.run as usize].keys[first.at as usize..];
        &rest[..split_key(rest).2]
    }

    /// The slots of the group at `position` of `order`: from where the
    /// group before it ends.
    fn slots_of(&self, position: usize) -> Range<usize> {
        let end = |position: usize| self.heads[self.order[position].index()].end as usize;
        position.checked_sub(1).map_or(0, end)..end(position)
    }

    /// Lends the next group: its key in `self.key`, its values — scalars
    /// by value, owned ones moved out of their run — in `self.values`.
    /// Returns the group's position in `order`.
    fn lend(&mut self, runs: &mut [&mut Run]) -> Option<usize> {
        let position = self.next;
        if position == self.order.len() {
            return None;
        }
        self.next += 1;
        unpack_key_into(self.packed(runs, position), &mut self.key);
        debug_assert!(self.values.is_empty(), "the last group's values were not settled");
        let slots = &self.slots[self.slots_of(position)];
        self.values.reserve(slots.len());
        for slot in slots {
            self.values.push(runs[slot.run as usize].values.lend(slot.at as usize));
        }
        Some(position)
    }

    /// Puts the lent values of the group at `position` back where they
    /// came from.
    fn give_back(&mut self, runs: &mut [&mut Run], position: usize) {
        let slots = &self.slots[self.slots_of(position)];
        for (slot, v) in slots.iter().zip(self.values.drain(..)) {
            runs[slot.run as usize].values.give_back(slot.at as usize, v);
        }
    }

    /// Moves the records of the groups at `positions` of `order` out of
    /// their runs onto the end of `out`.
    fn move_to(&self, runs: &mut [&mut Run], positions: Range<usize>, out: &mut Run) {
        for position in positions {
            for slot in &self.slots[self.slots_of(position)] {
                let value = runs[slot.run as usize].values.lend(slot.at as usize);
                out.push_packed(self.packed(runs, position), value);
            }
        }
    }

    /// Streams the groups to `f` in key order. Values are lent through one
    /// reused buffer and are back in place when `f` returns.
    pub(crate) fn for_each(mut self, runs: &mut [&mut Run], mut f: impl FnMut(&K, &[V])) {
        while let Some(position) = self.lend(runs) {
            f(&self.key, &self.values);
            self.give_back(runs, position);
        }
    }
}

/// Streams the key groups of `runs` to `f` in key order without moving or
/// copying a record; the runs are as they were when it returns, so they
/// can be merged again. This is the reduce-side merge.
pub fn for_each_group(runs: &mut [&mut Run], f: impl FnMut(&K, &[V])) {
    Groups::over(runs).for_each(runs, f);
}

/// Runs `app`'s combiner over one map-output run, group by group in key
/// order; used by the map-side spill path. A group the app declines passes
/// through verbatim (anything it emitted before declining is dropped). If
/// the app declines every group — it has no combiner — the run comes back
/// untouched, in emission order.
pub fn combine_run(app: &dyn MapReduceApp, run: Run) -> Run {
    combine_grouped(app, run, Groups::over)
}

/// [`combine_run`] over the groups `group` finds.
fn combine_grouped(app: &dyn MapReduceApp, mut run: Run, group: fn(&[&mut Run]) -> Groups) -> Run {
    let mut out = Run::default();
    let mut emitted: Vec<Record> = Vec::new();
    let mut any = false;
    let runs = &mut [&mut run];
    let mut groups = group(runs);
    while let Some(position) = groups.lend(runs) {
        if app.combine(&groups.key, &groups.values, &mut |k, v| emitted.push((k, v))) {
            groups.values.clear();
            if !any {
                // Every earlier group was declined and is still in `run`;
                // it goes in front of this first output.
                any = true;
                groups.move_to(runs, 0..position, &mut out);
            }
            for (k, v) in emitted.drain(..) {
                out.push(&k, v);
            }
        } else {
            emitted.clear();
            groups.give_back(runs, position);
            if any {
                groups.move_to(runs, position..position + 1, &mut out);
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
    use crate::app::group_by_key;
    use proptest::{check, Config, Gen};

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

    /// `run` holds `records`: decoded, sized and encoded as they are, and
    /// again after a snapshot round trip. Compared as bytes, which tell
    /// `-0.0` from `0.0` and one `NaN` from another.
    fn assert_holds(run: &Run, records: &[Record]) {
        let bytes = |x: &dyn Fn(&mut Encoder)| {
            let mut e = Encoder::new();
            x(&mut e);
            e.finish()
        };
        let expect = bytes(&|e| records.to_vec().encode(e));
        assert_eq!(bytes(&|e| run.encode(e)), expect);
        assert_eq!(bytes(&|e| run.to_records().encode(e)), expect);
        assert_eq!(run.len(), records.len());
        assert_eq!(run.bytes(), crate::types::records_size(records));
        let back = Run::decode(&mut Decoder::new(&expect));
        assert_eq!(bytes(&|e| back.encode(e)), expect);
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
        let others = [V::Null, V::Int(7), V::Float(0.5), V::from("text"), V::Vector(vec![1.0])];
        for (scalar, sibling) in &kinds {
            for n in [0usize, 1, 5] {
                let mut records: Vec<Record> =
                    (0..n).map(|i| (K::Int(i as i64), scalar.clone())).collect();
                let run: Run = records.iter().cloned().collect();
                assert!(same(&run.values, n), "{n} x {scalar:?}: {:?}", run.values);
                assert_holds(&run, &records);

                // A different value of the same kind: the typed column.
                if let Some(sibling) = sibling {
                    let mut typed = run.clone();
                    typed.push(&K::from("next"), sibling.clone());
                    let mut expect = records.clone();
                    expect.push((K::from("next"), sibling.clone()));
                    match (&typed.values, n) {
                        (column, 0) => assert!(same(column, 1)),
                        (Column::Int(_), _) => assert!(matches!(scalar, V::Int(_))),
                        (Column::Float(_), _) => assert!(matches!(scalar, V::Float(_))),
                        (column, _) => panic!("{n} x {scalar:?} then {sibling:?}: {column:?}"),
                    }
                    assert_holds(&typed, &expect);
                }
                // Another kind, or a heap-backed value: owned values.
                for other in &others {
                    if std::mem::discriminant(other) == std::mem::discriminant(scalar) {
                        continue;
                    }
                    let mut mixed = run.clone();
                    mixed.push(&K::from("next"), other.clone());
                    records.push((K::from("next"), other.clone()));
                    match (&mixed.values, n) {
                        (Column::Mixed(_), _) => {}
                        (column, 0) if Scalar::of(other).is_some() => assert!(same(column, 1)),
                        (column, _) => panic!("{n} x {scalar:?} then {other:?}: {column:?}"),
                    }
                    assert_holds(&mixed, &records);
                    records.pop();
                }
            }
        }
        // What wordcount emits: the packed keys and nothing per value.
        let ones: Run = (0..100_000).map(|i| (K::Int(i % 50), V::Int(1))).collect();
        assert_eq!(ones.values, Column::Same(Scalar::Int(1), 100_000));
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
        assert!(matches!(nulls.values, Column::Same(Scalar::Null, 3)));
        let mut mixed = nulls.clone();
        mixed.push(&K::Int(3), V::Int(1));
        assert_eq!(mixed.to_records()[..3], nulls.to_records()[..]);
        assert_eq!(mixed.to_records()[3], (K::Int(3), V::Int(1)));
    }

    /// Up to `max` bytes of a small alphabet with 0 in it.
    fn random_bytes(g: &mut Gen, max: usize) -> Vec<u8> {
        (0..g.usize_in(0, max)).map(|_| *g.choose(&[0u8, 1, b'a', 0xFF])).collect()
    }

    /// A few runs over a small pool of keys of all three variants — long
    /// ones that share their first 15 bytes among them — so that groups
    /// repeat within a run and across runs; one run is empty.
    fn random_runs(g: &mut Gen, value: fn(&mut Gen, i64) -> V) -> Vec<Vec<Record>> {
        let stem = vec![b'k'; 15];
        let mut pool: Vec<K> = (0..g.usize_in(1, 30))
            .map(|_| match g.usize_in(0, 3) {
                0 => K::Int(g.u64_in(0, 5) as i64 - 2),
                1 => K::Bytes(random_bytes(g, 9)),
                2 => K::Text(random_bytes(g, 9).iter().map(|b| (b & 0x7F) as char).collect()),
                _ => K::Bytes([stem.clone(), random_bytes(g, 3)].concat()),
            })
            .collect();
        pool.push(K::Bytes(stem));
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

    /// Value generators: one scalar throughout, distinct scalars, and
    /// every kind — heap-backed ones among them — at random.
    const VALUES: [fn(&mut Gen, i64) -> V; 4] = [
        |_, _| V::Int(1),
        |_, n| V::Int(n),
        |_, n| V::Float(n as f64),
        |g, n| match g.usize_in(0, 4) {
            0 => V::Null,
            1 => V::Int(n),
            2 => V::Text(n.to_string()),
            3 => V::Vector(vec![n as f64; 2]),
            _ => V::Bytes(n.to_le_bytes().to_vec()),
        },
    ];

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

    /// The combiner over `group_by_key`.
    fn reference_combiner(app: &dyn MapReduceApp, records: Vec<Record>) -> Vec<Record> {
        let mut out: Vec<Record> = Vec::new();
        let mut any = false;
        for (k, vals) in group_by_key(records.clone()) {
            if app.combine(&k, &vals, &mut |ek, ev| out.push((ek, ev))) {
                any = true;
            } else {
                out.extend(vals.into_iter().map(|v| (k.clone(), v)));
            }
        }
        if any {
            out
        } else {
            records
        }
    }

    /// Bounded probing is the contract: with a table that has room for four
    /// keys and lookups that give up after two slots, most keys start a
    /// group at every record, and the groups still come out as
    /// `group_by_key` of the concatenation has them — as they do with the
    /// table of `Groups::over`.
    #[test]
    fn groups_equal_group_by_key_whatever_the_table_holds() {
        let apps = [
            CountApp { accepts: |_| true },
            CountApp { accepts: |_| false },
            CountApp { accepts: |k| k.stable_hash() % 2 == 0 },
        ];
        let tables: [fn(&[&mut Run]) -> Groups; 2] = [Groups::tiny, Groups::over];
        let mut joined = 0;
        check("grouping-tables", Config::with_cases(300), |g| {
            let value = *g.choose(&VALUES);
            let parts = random_runs(g, value);
            let expected = group_by_key(parts.concat());
            let mut runs: Vec<Run> = parts.iter().map(|p| p.iter().cloned().collect()).collect();
            let before = runs.clone();
            for table in tables {
                // Twice: lent values are back in place after a merge.
                for _ in 0..2 {
                    let mut lent: Vec<&mut Run> = runs.iter_mut().collect();
                    let groups = table(&lent);
                    assert_eq!(groups.len(), expected.len());
                    joined += groups.heads.len() - groups.len();
                    let mut streamed = Vec::new();
                    groups.for_each(&mut lent, |k, vals| streamed.push((k.clone(), vals.to_vec())));
                    assert_eq!(streamed, expected);
                    assert_eq!(runs, before);
                }
                let records = parts.concat();
                let run: Run = records.iter().cloned().collect();
                for app in &apps {
                    let combined = combine_grouped(app, run.clone(), table);
                    let expect = reference_combiner(app, records.clone());
                    assert_eq!(combined.to_records(), expect);
                    assert_eq!(combined.bytes(), crate::types::records_size(&expect));
                }
            }
        });
        assert!(joined > 0, "no case joined the groups of a key the table had no room for");
    }

    /// Keys that all hash to one slot of the largest table: eight find
    /// room within the probe bound, the others cost a bounded lookup and a
    /// group per record, and the merge is still right.
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
        let mut run: Run = records.iter().cloned().collect();
        let lent = &mut [&mut run];
        let groups = Groups::over(lent);
        assert_eq!(groups.len(), hostile.len());
        assert_eq!(groups.heads.len(), PROBE_BOUND + (hostile.len() - PROBE_BOUND) * 100);
        let mut streamed = Vec::new();
        groups.for_each(lent, |k, vals| streamed.push((k.clone(), vals.to_vec())));
        assert_eq!(streamed, group_by_key(records));
    }
}
