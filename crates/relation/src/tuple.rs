//! Tuples with per-cell correctness marks.
//!
//! Applying a detective rule marks attribute values as **positive** (`+` in
//! the paper): confirmed correct, and frozen — no later rule may change them
//! (§III-B). A [`Tuple`] carries its cell values plus that mark vector.

use crate::schema::{AttrId, Schema};
use std::fmt;
use std::sync::Arc;

/// Correctness state of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Mark {
    /// Correctness unknown (the initial state).
    #[default]
    Unknown,
    /// Confirmed correct (`+`). Frozen against further updates.
    Positive,
}

/// One row of a relation, with marks. Ordered by cells, then marks.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple {
    cells: Vec<String>,
    marks: Vec<Mark>,
}

/// Compares a tuple with a relation's shared row (see
/// [`Relation::tuples`](crate::Relation::tuples)).
impl PartialEq<Arc<Tuple>> for Tuple {
    fn eq(&self, other: &Arc<Tuple>) -> bool {
        self == &**other
    }
}

impl Tuple {
    /// Builds an unmarked tuple from cell values.
    pub fn new(cells: Vec<String>) -> Self {
        let marks = vec![Mark::Unknown; cells.len()];
        Self { cells, marks }
    }

    /// Builds an unmarked tuple from string slices.
    pub fn from_strs(cells: &[&str]) -> Self {
        Self::new(cells.iter().map(|&c| c.to_owned()).collect())
    }

    /// Number of cells.
    pub fn arity(&self) -> usize {
        self.cells.len()
    }

    /// Value of attribute `attr`.
    #[inline]
    pub fn get(&self, attr: AttrId) -> &str {
        &self.cells[attr.index()]
    }

    /// All cell values in column order.
    pub fn cells(&self) -> &[String] {
        &self.cells
    }

    /// Overwrites the value of `attr`.
    ///
    /// # Panics
    /// Panics if the cell is marked positive — positive cells are frozen, and
    /// writing one is a logic error in the caller.
    pub fn set(&mut self, attr: AttrId, value: impl Into<String>) {
        assert_ne!(
            self.marks[attr.index()],
            Mark::Positive,
            "attempted to overwrite a positively marked cell"
        );
        self.cells[attr.index()] = value.into();
    }

    /// Mark of attribute `attr`.
    #[inline]
    pub fn mark(&self, attr: AttrId) -> Mark {
        self.marks[attr.index()]
    }

    /// Whether `attr` is marked positive.
    #[inline]
    pub fn is_positive(&self, attr: AttrId) -> bool {
        self.marks[attr.index()] == Mark::Positive
    }

    /// Marks `attr` as positive (idempotent).
    pub fn mark_positive(&mut self, attr: AttrId) {
        self.marks[attr.index()] = Mark::Positive;
    }

    /// Ids of positively marked attributes, in column order.
    pub fn positive_attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.marks
            .iter()
            .enumerate()
            .filter(|(_, &m)| m == Mark::Positive)
            .map(|(i, _)| AttrId::from_index(i))
    }

    /// Number of positively marked cells.
    pub fn positive_count(&self) -> usize {
        self.marks.iter().filter(|&&m| m == Mark::Positive).count()
    }

    /// Whether any cell is marked positive (a *marked tuple*, §III-B).
    pub fn is_marked(&self) -> bool {
        self.marks.contains(&Mark::Positive)
    }

    /// Clears all marks (keeps values).
    pub fn clear_marks(&mut self) {
        self.marks.fill(Mark::Unknown);
    }

    /// Renders the tuple in the paper's `value⁺` notation against `schema`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> TupleDisplay<'a> {
        TupleDisplay {
            tuple: self,
            schema,
        }
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{cell}")?;
            if self.marks[i] == Mark::Positive {
                write!(f, "⁺")?;
            }
        }
        write!(f, ")")
    }
}

/// Pretty-printer pairing a tuple with its schema.
pub struct TupleDisplay<'a> {
    tuple: &'a Tuple,
    schema: &'a Schema,
}

impl fmt::Display for TupleDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.schema.name())?;
        for (i, (attr, name)) in self.schema.attrs().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}: {}", self.tuple.get(attr))?;
            if self.tuple.is_positive(attr) {
                write!(f, "⁺")?;
            }
        }
        write!(f, ")")
    }
}

/// A tuple paired with its (shared) schema — convenience for APIs that would
/// otherwise take the two separately.
#[derive(Debug, Clone)]
pub struct OwnedRow {
    /// The schema the tuple conforms to.
    pub schema: Arc<Schema>,
    /// The tuple itself.
    pub tuple: Tuple,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        Schema::new("R", &["A", "B", "C"])
    }

    #[test]
    fn get_set_roundtrip() {
        let s = schema();
        let mut t = Tuple::from_strs(&["1", "2", "3"]);
        let b = s.attr_expect("B");
        t.set(b, "two");
        assert_eq!(t.get(b), "two");
        assert_eq!(t.arity(), 3);
    }

    #[test]
    fn marks_start_unknown() {
        let t = Tuple::from_strs(&["x"]);
        assert_eq!(t.mark(AttrId::from_index(0)), Mark::Unknown);
        assert!(!t.is_marked());
        assert_eq!(t.positive_count(), 0);
    }

    #[test]
    fn mark_positive_is_idempotent_and_freezes() {
        let s = schema();
        let mut t = Tuple::from_strs(&["1", "2", "3"]);
        let a = s.attr_expect("A");
        t.mark_positive(a);
        t.mark_positive(a);
        assert!(t.is_positive(a));
        assert_eq!(t.positive_count(), 1);
        assert!(t.is_marked());
    }

    #[test]
    #[should_panic(expected = "positively marked")]
    fn writing_frozen_cell_panics() {
        let s = schema();
        let mut t = Tuple::from_strs(&["1", "2", "3"]);
        let a = s.attr_expect("A");
        t.mark_positive(a);
        t.set(a, "changed");
    }

    #[test]
    fn positive_attrs_in_order() {
        let mut t = Tuple::from_strs(&["1", "2", "3"]);
        t.mark_positive(AttrId::from_index(2));
        t.mark_positive(AttrId::from_index(0));
        let ids: Vec<usize> = t.positive_attrs().map(AttrId::index).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn clear_marks_resets() {
        let mut t = Tuple::from_strs(&["1"]);
        t.mark_positive(AttrId::from_index(0));
        t.clear_marks();
        assert!(!t.is_marked());
    }

    #[test]
    fn debug_uses_plus_notation() {
        let mut t = Tuple::from_strs(&["Avram Hershko", "Haifa"]);
        t.mark_positive(AttrId::from_index(0));
        assert_eq!(format!("{t:?}"), "(Avram Hershko⁺, Haifa)");
    }

    #[test]
    fn display_includes_attr_names() {
        let s = Schema::new("Nobel", &["Name", "City"]);
        let mut t = Tuple::from_strs(&["Curie", "Paris"]);
        t.mark_positive(s.attr_expect("City"));
        let rendered = t.display(&s).to_string();
        assert_eq!(rendered, "Nobel(Name: Curie, City: Paris⁺)");
    }
}
