//! Typed identifiers for knowledge-base entities.
//!
//! Each id is a `u32` newtype: small enough to keep hot structures compact,
//! and typed so that an instance id cannot be confused with a class id at
//! compile time.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(transparent)]
        pub struct $name(pub(crate) u32);

        impl $name {
            /// Builds an id from a raw index.
            #[inline]
            pub fn from_index(i: usize) -> Self {
                $name(u32::try_from(i).expect("id overflow"))
            }

            /// The raw index backing this id.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifies an entity (an RDF instance such as *Avram Hershko*).
    InstanceId,
    "i"
);
define_id!(
    /// Identifies a class (an RDF type such as *city*).
    ClassId,
    "c"
);
define_id!(
    /// Identifies a literal value (a string, date, or number).
    LiteralId,
    "l"
);
define_id!(
    /// Identifies a predicate: a relationship (instance → instance) or a
    /// property (instance → literal).
    PredId,
    "p"
);

/// An edge target in the RDF graph: either another instance or a literal.
///
/// `repr(u32)` pins the layout to two `u32` words, `[tag, id]`, with
/// instances tagged 0 and literals 1. A `.drkb` image stores nodes in
/// exactly this layout, so its runs read back as `&[Node]` in place.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
#[repr(u32)]
pub enum Node {
    /// An entity node.
    Instance(InstanceId) = 0,
    /// A literal node.
    Literal(LiteralId) = 1,
}

impl Node {
    /// Returns the instance id if this node is an instance.
    #[inline]
    pub fn as_instance(self) -> Option<InstanceId> {
        match self {
            Node::Instance(i) => Some(i),
            Node::Literal(_) => None,
        }
    }

    /// Returns the literal id if this node is a literal.
    #[inline]
    pub fn as_literal(self) -> Option<LiteralId> {
        match self {
            Node::Literal(l) => Some(l),
            Node::Instance(_) => None,
        }
    }

    /// Whether this node is a literal.
    #[inline]
    pub fn is_literal(self) -> bool {
        matches!(self, Node::Literal(_))
    }
}

// Hot-path type-size guards (see the perf-book guidance): `Node` rides in
// adjacency lists and candidate vectors by the million.
const _: () = assert!(std::mem::size_of::<Node>() == 8);
const _: () = assert!(std::mem::size_of::<Option<Node>>() == 8);
const _: () = assert!(std::mem::size_of::<InstanceId>() == 4);

impl From<InstanceId> for Node {
    fn from(i: InstanceId) -> Self {
        Node::Instance(i)
    }
}

impl From<LiteralId> for Node {
    fn from(l: LiteralId) -> Self {
        Node::Literal(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip_through_index() {
        let i = InstanceId::from_index(7);
        assert_eq!(i.index(), 7);
        let c = ClassId::from_index(0);
        assert_eq!(c.index(), 0);
    }

    #[test]
    fn node_projections() {
        let n: Node = InstanceId::from_index(3).into();
        assert_eq!(n.as_instance(), Some(InstanceId::from_index(3)));
        assert_eq!(n.as_literal(), None);
        assert!(!n.is_literal());

        let l: Node = LiteralId::from_index(9).into();
        assert_eq!(l.as_literal(), Some(LiteralId::from_index(9)));
        assert!(l.is_literal());
    }

    #[test]
    fn debug_tags_distinguish_id_kinds() {
        assert_eq!(format!("{:?}", InstanceId::from_index(1)), "i1");
        assert_eq!(format!("{:?}", ClassId::from_index(1)), "c1");
        assert_eq!(format!("{:?}", LiteralId::from_index(1)), "l1");
        assert_eq!(format!("{:?}", PredId::from_index(1)), "p1");
    }
}
