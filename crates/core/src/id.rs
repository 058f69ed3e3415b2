//! Opaque identifiers for nodes, edges, and graphs.
//!
//! The surveyed databases differ in how they identify entities (the
//! paper's Table IV distinguishes *object nodes* identified by an
//! object-ID from *value nodes* identified by a primitive value). The
//! identifier types here are the object-ID half of that story: dense
//! `u64` newtypes handed out by each structure's allocator.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// Returns the raw numeric form of the identifier.
            #[inline]
            pub fn raw(self) -> u64 {
                self.0
            }

            /// Returns the identifier as a usable array/slot index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u64> for $name {
            #[inline]
            fn from(v: u64) -> Self {
                Self(v)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifier of a node (vertex) within one graph structure.
    NodeId,
    "n"
);
define_id!(
    /// Identifier of an edge (binary or hyper) within one graph structure.
    EdgeId,
    "e"
);
define_id!(
    /// Identifier of a graph, used by nested graphs (hypernodes own
    /// subgraphs).
    GraphId,
    "g"
);

/// A monotonically increasing id allocator shared by the in-memory
/// structures. Deleted ids are not reused, which keeps identity stable —
/// the property the paper's *node/edge identity* constraint asks for.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct IdAllocator {
    next: u64,
}

impl IdAllocator {
    /// Creates an allocator that starts at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an allocator that will hand out ids starting at `next`.
    /// Used when reloading a persisted structure.
    pub fn starting_at(next: u64) -> Self {
        Self { next }
    }

    /// Allocates the next raw id.
    #[inline]
    pub fn allocate(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// The id the next call to [`IdAllocator::allocate`] will return.
    pub fn peek(&self) -> u64 {
        self.next
    }

    /// Informs the allocator that `id` exists, bumping the watermark so
    /// future allocations never collide with it.
    pub fn observe(&mut self, id: u64) {
        if id >= self.next {
            self.next = id + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(EdgeId(0).to_string(), "e0");
        assert_eq!(GraphId(42).to_string(), "g42");
    }

    #[test]
    fn ids_round_trip_raw() {
        let n = NodeId::from(123);
        assert_eq!(n.raw(), 123);
        assert_eq!(n.index(), 123);
    }

    #[test]
    fn allocator_is_monotonic() {
        let mut a = IdAllocator::new();
        assert_eq!(a.allocate(), 0);
        assert_eq!(a.allocate(), 1);
        assert_eq!(a.peek(), 2);
    }

    #[test]
    fn allocator_observe_bumps_watermark() {
        let mut a = IdAllocator::new();
        a.observe(10);
        assert_eq!(a.allocate(), 11);
        a.observe(5); // below watermark: no effect
        assert_eq!(a.allocate(), 12);
    }

    #[test]
    fn allocator_starting_at_resumes() {
        let mut a = IdAllocator::starting_at(100);
        assert_eq!(a.allocate(), 100);
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(NodeId(1) < NodeId(2));
        let mut v = vec![NodeId(3), NodeId(1), NodeId(2)];
        v.sort();
        assert_eq!(v, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }
}
