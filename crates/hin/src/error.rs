//! Error type for network construction and attribute access.

use crate::ids::{AttributeId, ObjectId, ObjectTypeId, RelationId};

/// Everything that can go wrong while building or querying a HIN.
#[derive(Debug, Clone, PartialEq)]
pub enum HinError {
    /// An object id referenced an object that was never added.
    UnknownObject(ObjectId),
    /// A relation id outside the schema.
    UnknownRelation(RelationId),
    /// An attribute id outside the schema.
    UnknownAttribute(AttributeId),
    /// A link's endpoint types contradict the relation definition.
    EndpointTypeMismatch {
        /// Offending relation.
        relation: RelationId,
        /// Type the schema requires (source, target).
        expected: (ObjectTypeId, ObjectTypeId),
        /// Types actually supplied.
        got: (ObjectTypeId, ObjectTypeId),
    },
    /// Link weights must be positive and finite (§2.1 defines `W` as
    /// positive weights; zero-weight links should simply be omitted).
    InvalidWeight {
        /// The offending weight.
        weight: f64,
    },
    /// A categorical observation used a term index outside the vocabulary.
    TermOutOfRange {
        /// Offending attribute.
        attribute: AttributeId,
        /// Offending term index.
        term: usize,
        /// Size of the declared vocabulary.
        vocab_size: usize,
    },
    /// An observation was supplied for the wrong attribute kind (e.g. a term
    /// count on a numerical attribute).
    AttributeKindMismatch {
        /// Offending attribute.
        attribute: AttributeId,
        /// What the caller tried to store.
        expected: &'static str,
    },
    /// A numerical observation was not finite.
    NonFiniteObservation {
        /// Offending attribute.
        attribute: AttributeId,
    },
    /// A name lookup failed — the untrusted-input counterpart of
    /// [`crate::graph::HinGraph::object_by_name`] returning `None`.
    UnknownName(String),
    /// A [`crate::delta::GraphDelta`] was applied to a graph whose object
    /// count differs from the one it was created against.
    DeltaBaseMismatch {
        /// Object count the delta was created against.
        expected: usize,
        /// Object count of the graph it was applied to.
        got: usize,
    },
    /// A delta observation referenced an object that is not one of the
    /// delta's *new* objects. Links may originate at any existing object,
    /// but observations are
    /// append-only rows of the new objects — retro-fitting attributes of
    /// served objects is out of the delta's scope.
    NotADeltaObject(ObjectId),
    /// A graph or delta would exceed the `u32` id/offset space (object
    /// count, link count, or name-arena byte length). The former `as u32`
    /// casts wrapped silently here; now construction fails loudly instead.
    CapacityExceeded {
        /// Which counter overflowed (e.g. `"objects"`, `"links"`).
        what: &'static str,
        /// The value that did not fit in `u32`.
        requested: usize,
    },
}

/// Narrows `requested` to `u32`, reporting a structured
/// [`HinError::CapacityExceeded`] instead of wrapping. Every id/offset
/// construction site in the builder, delta, and arena routes through here.
#[inline]
pub(crate) fn check_capacity(what: &'static str, requested: usize) -> Result<u32, HinError> {
    u32::try_from(requested).map_err(|_| HinError::CapacityExceeded { what, requested })
}

impl std::fmt::Display for HinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownObject(v) => write!(f, "unknown object {v}"),
            Self::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            Self::UnknownAttribute(a) => write!(f, "unknown attribute {a}"),
            Self::EndpointTypeMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "link endpoint types ({}, {}) do not match relation {relation} \
                 which requires ({}, {})",
                got.0, got.1, expected.0, expected.1
            ),
            Self::InvalidWeight { weight } => {
                write!(f, "link weight must be positive and finite, got {weight}")
            }
            Self::TermOutOfRange {
                attribute,
                term,
                vocab_size,
            } => write!(
                f,
                "term {term} out of range for attribute {attribute} with vocabulary size {vocab_size}"
            ),
            Self::AttributeKindMismatch {
                attribute,
                expected,
            } => write!(
                f,
                "attribute {attribute} cannot store a {expected} observation (wrong kind)"
            ),
            Self::NonFiniteObservation { attribute } => {
                write!(f, "non-finite observation for attribute {attribute}")
            }
            Self::UnknownName(name) => write!(f, "no object is named {name:?}"),
            Self::DeltaBaseMismatch { expected, got } => write!(
                f,
                "delta was created against a graph with {expected} objects, \
                 but applied to one with {got}"
            ),
            Self::NotADeltaObject(v) => write!(
                f,
                "{v} is not a new object of this delta (delta observations \
                 must belong to new objects)"
            ),
            Self::CapacityExceeded { what, requested } => write!(
                f,
                "{what} count {requested} exceeds the u32 id space \
                 (max {})",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for HinError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_specific() {
        let e = HinError::EndpointTypeMismatch {
            relation: RelationId(2),
            expected: (ObjectTypeId(0), ObjectTypeId(1)),
            got: (ObjectTypeId(1), ObjectTypeId(1)),
        };
        let msg = e.to_string();
        assert!(msg.contains("RelationId(2)"));
        assert!(msg.contains("requires"));

        let e = HinError::TermOutOfRange {
            attribute: AttributeId(0),
            term: 99,
            vocab_size: 10,
        };
        assert!(e.to_string().contains("term 99"));
    }

    #[test]
    fn capacity_check_pins_the_u32_boundary() {
        // The id space is exactly u32: the last representable count passes,
        // one past it surfaces the structured error (not a silent wrap).
        assert_eq!(check_capacity("objects", 0), Ok(0));
        assert_eq!(check_capacity("objects", u32::MAX as usize), Ok(u32::MAX));
        let e = check_capacity("objects", u32::MAX as usize + 1).unwrap_err();
        assert_eq!(
            e,
            HinError::CapacityExceeded {
                what: "objects",
                requested: u32::MAX as usize + 1,
            }
        );
        let msg = e.to_string();
        assert!(msg.contains("objects"));
        assert!(msg.contains("4294967296"), "requested count: {msg}");
        assert!(msg.contains("4294967295"), "u32::MAX ceiling: {msg}");
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(HinError::UnknownObject(ObjectId(5)));
        assert!(e.to_string().contains("ObjectId(5)"));
    }
}
