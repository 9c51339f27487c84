//! Relation schemas: named attribute lists with fast name→id lookup.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifies an attribute (column) inside one [`Schema`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub(crate) u16);

impl AttrId {
    /// Builds an id from a raw column index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        AttrId(u16::try_from(i).expect("more than u16::MAX attributes"))
    }

    /// The raw column index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A{}", self.0)
    }
}

/// An ordered list of named attributes.
///
/// Schemas are immutable once built and shared via [`Arc`] between a relation
/// and the rules that reference its columns.
#[derive(Debug, Clone)]
pub struct Schema {
    name: String,
    attributes: Vec<String>,
    /// Std-hashed: attribute names come from request headers, so the map
    /// keeps the default hasher's resistance to crafted collisions.
    by_name: HashMap<String, AttrId>,
}

impl Schema {
    /// Builds a schema from a relation name and attribute names.
    ///
    /// # Panics
    /// Panics on duplicate attribute names; loaders of untrusted headers
    /// use [`Schema::try_new`].
    pub fn new(name: impl Into<String>, attributes: &[&str]) -> Arc<Self> {
        Self::try_new(name, attributes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a schema, rejecting duplicate attribute names and more than
    /// `u16::MAX + 1` attributes.
    ///
    /// # Errors
    /// A message naming the repeated attribute, or the attribute count.
    pub fn try_new(name: impl Into<String>, attributes: &[&str]) -> Result<Arc<Self>, String> {
        if attributes.len() > usize::from(u16::MAX) + 1 {
            return Err(format!("{} attributes exceed the limit", attributes.len()));
        }
        let attributes: Vec<String> = attributes.iter().map(|&a| a.to_owned()).collect();
        let mut by_name = HashMap::new();
        for (i, a) in attributes.iter().enumerate() {
            if by_name.insert(a.clone(), AttrId::from_index(i)).is_some() {
                return Err(format!("duplicate attribute `{a}`"));
            }
        }
        Ok(Arc::new(Self {
            name: name.into(),
            attributes,
            by_name,
        }))
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Attribute name for `attr`.
    pub fn attr_name(&self, attr: AttrId) -> &str {
        &self.attributes[attr.index()]
    }

    /// Resolves an attribute by name.
    pub fn attr(&self, name: &str) -> Option<AttrId> {
        self.by_name.get(name).copied()
    }

    /// Resolves an attribute by name, panicking with a useful message when
    /// absent. For test and fixture code.
    pub fn attr_expect(&self, name: &str) -> AttrId {
        self.attr(name)
            .unwrap_or_else(|| panic!("schema `{}` has no attribute `{name}`", self.name))
    }

    /// Iterates over `(id, name)` pairs in column order.
    pub fn attrs(&self) -> impl Iterator<Item = (AttrId, &str)> {
        self.attributes
            .iter()
            .enumerate()
            .map(|(i, a)| (AttrId::from_index(i), a.as_str()))
    }

    /// All attribute ids in column order.
    pub fn attr_ids(&self) -> impl Iterator<Item = AttrId> {
        (0..self.attributes.len()).map(AttrId::from_index)
    }

    /// A stable 64-bit fingerprint of the schema shape: the relation name
    /// plus the ordered attribute names. Two `Schema` values compare equal
    /// iff they fingerprint equal (modulo hash collisions), so the
    /// fingerprint can key caches shared across relations of one schema.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = dr_kb::hash::FxHasher::default();
        self.name.hash(&mut h);
        self.attributes.hash(&mut h);
        h.finish()
    }
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.attributes == other.attributes
    }
}

impl Eq for Schema {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name_and_id() {
        let s = Schema::new("Nobel", &["Name", "DOB", "Country"]);
        assert_eq!(s.arity(), 3);
        let dob = s.attr("DOB").unwrap();
        assert_eq!(dob.index(), 1);
        assert_eq!(s.attr_name(dob), "DOB");
        assert_eq!(s.attr("Missing"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicate_attrs_panic() {
        Schema::new("R", &["A", "A"]);
    }

    #[test]
    fn try_new_rejects_duplicates_and_overwide_headers() {
        assert_eq!(
            Schema::try_new("R", &["A", "B", "A"]).unwrap_err(),
            "duplicate attribute `A`"
        );
        let names: Vec<String> = (0..=usize::from(u16::MAX) + 1)
            .map(|i| i.to_string())
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        assert!(Schema::try_new("R", &refs).is_err());
        assert_eq!(Schema::try_new("R", &refs[1..]).unwrap().arity(), 1 << 16);
    }

    #[test]
    fn attrs_iterate_in_order() {
        let s = Schema::new("R", &["X", "Y"]);
        let names: Vec<&str> = s.attrs().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["X", "Y"]);
    }

    #[test]
    fn equality_ignores_map_internals() {
        let a = Schema::new("R", &["X"]);
        let b = Schema::new("R", &["X"]);
        assert_eq!(*a, *b);
        let c = Schema::new("R2", &["X"]);
        assert_ne!(*a, *c);
    }

    #[test]
    fn fingerprint_tracks_equality() {
        let a = Schema::new("R", &["X", "Y"]);
        let b = Schema::new("R", &["X", "Y"]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Different name, attribute set, or attribute *order* all differ.
        assert_ne!(
            a.fingerprint(),
            Schema::new("R2", &["X", "Y"]).fingerprint()
        );
        assert_ne!(a.fingerprint(), Schema::new("R", &["X"]).fingerprint());
        assert_ne!(a.fingerprint(), Schema::new("R", &["Y", "X"]).fingerprint());
    }
}
