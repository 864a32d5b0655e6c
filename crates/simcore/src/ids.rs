//! Identifier newtypes shared by the simulation kernel and its clients.

use core::fmt;

/// Index of a fluid resource inside a [`crate::fluid::FluidNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub(crate) u32);

impl ResourceId {
    /// Raw index (dense, allocation order).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from a raw index. Only valid for indices previously
    /// produced by the same `FluidNet`.
    pub fn from_index(i: usize) -> Self {
        ResourceId(i as u32)
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Generational handle to an active flow. Stale handles (flow already
/// finished or cancelled) are detected and rejected by the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId {
    pub(crate) slot: u32,
    pub(crate) gen: u32,
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}.{}", self.slot, self.gen)
    }
}

/// Handle to a running activity (a chain of steps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActivityId(pub(crate) u64);

impl fmt::Display for ActivityId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Handle to a batch (AND-join of activities).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BatchId(pub(crate) u64);

impl fmt::Display for BatchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Routing tag attached to timers and activities.
///
/// The kernel never interprets tags; client subsystems use `owner` to route
/// a [`crate::engine::Wakeup`] to the right component and `a`/`b` as opaque
/// payload (task ids, VM ids, round numbers, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Tag {
    /// Subsystem that owns the completion.
    pub owner: u32,
    /// First payload word.
    pub a: u32,
    /// Second payload word.
    pub b: u64,
}

impl Tag {
    /// Convenience constructor.
    pub const fn new(owner: u32, a: u32, b: u64) -> Self {
        Tag { owner, a, b }
    }

    /// A tag with only the owner set.
    pub const fn owner(owner: u32) -> Self {
        Tag { owner, a: 0, b: 0 }
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag({}:{}:{})", self.owner, self.a, self.b)
    }
}

crate::persist_struct!(ResourceId(0));
crate::persist_struct!(FlowId { slot, gen });
crate::persist_struct!(ActivityId(0));
crate::persist_struct!(BatchId(0));
crate::persist_struct!(Tag { owner, a, b });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_id_round_trips() {
        let r = ResourceId::from_index(7);
        assert_eq!(r.index(), 7);
        assert_eq!(format!("{r}"), "r7");
    }

    #[test]
    fn tag_constructors() {
        let t = Tag::new(1, 2, 3);
        assert_eq!((t.owner, t.a, t.b), (1, 2, 3));
        assert_eq!(Tag::owner(9).owner, 9);
        assert_eq!(Tag::owner(9).a, 0);
    }
}
