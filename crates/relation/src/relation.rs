//! The relation (table) container.

use crate::schema::{AttrId, Schema};
use crate::tuple::Tuple;
use std::fmt;
use std::sync::Arc;

/// Identifies one cell in a relation: `(row, attribute)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellRef {
    /// Row index into the relation.
    pub row: usize,
    /// Column of the cell.
    pub attr: AttrId,
}

/// A table: a shared schema plus rows of [`Tuple`]s.
///
/// Rows are held by reference (`Arc<Tuple>`), so cloning a relation copies
/// pointers, and two relations can share their unchanged rows. Every write
/// goes through [`Arc::make_mut`], which copies a row only while another
/// relation still shares it.
#[derive(Clone)]
pub struct Relation {
    schema: Arc<Schema>,
    tuples: Vec<Arc<Tuple>>,
}

impl Relation {
    /// Creates an empty relation over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        Self {
            schema,
            tuples: Vec::new(),
        }
    }

    /// Creates a relation from ready-made tuples, owned or shared.
    ///
    /// # Panics
    /// Panics if any tuple's arity differs from the schema's.
    pub fn from_tuples<T: Into<Arc<Tuple>>>(schema: Arc<Schema>, tuples: Vec<T>) -> Self {
        let tuples: Vec<Arc<Tuple>> = tuples.into_iter().map(Into::into).collect();
        for (i, t) in tuples.iter().enumerate() {
            assert_eq!(
                t.arity(),
                schema.arity(),
                "tuple {i} has arity {} but schema `{}` has arity {}",
                t.arity(),
                schema.name(),
                schema.arity()
            );
        }
        Self { schema, tuples }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Appends a tuple, owned or shared.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn push(&mut self, tuple: impl Into<Arc<Tuple>>) {
        let tuple = tuple.into();
        assert_eq!(tuple.arity(), self.schema.arity(), "arity mismatch");
        self.tuples.push(tuple);
    }

    /// Appends a tuple built from string slices.
    pub fn push_strs(&mut self, cells: &[&str]) {
        self.push(Tuple::from_strs(cells));
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuple at `row`.
    pub fn tuple(&self, row: usize) -> &Tuple {
        &self.tuples[row]
    }

    /// Mutable access to the tuple at `row`, copying it first if another
    /// relation shares it.
    pub fn tuple_mut(&mut self, row: usize) -> &mut Tuple {
        Arc::make_mut(&mut self.tuples[row])
    }

    /// All tuples.
    pub fn tuples(&self) -> &[Arc<Tuple>] {
        &self.tuples
    }

    /// Mutable access to all tuples, in row order. Each row is copied as
    /// the iterator reaches it if another relation shares it, so collecting
    /// the iterator does every copy on the calling thread.
    pub fn tuples_mut(&mut self) -> impl Iterator<Item = &mut Tuple> {
        self.tuples.iter_mut().map(Arc::make_mut)
    }

    /// The value at `cell`.
    pub fn value(&self, cell: CellRef) -> &str {
        self.tuples[cell.row].get(cell.attr)
    }

    /// Iterates over every cell reference in row-major order.
    pub fn cell_refs(&self) -> impl Iterator<Item = CellRef> + '_ {
        let arity = self.schema.arity();
        (0..self.tuples.len()).flat_map(move |row| {
            (0..arity).map(move |a| CellRef {
                row,
                attr: AttrId::from_index(a),
            })
        })
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.tuples.len() * self.schema.arity()
    }

    /// Distinct values of one column, in first-occurrence order.
    pub fn column_values(&self, attr: AttrId) -> Vec<&str> {
        let mut seen = dr_kb::FxHashSet::default();
        let mut out = Vec::new();
        for t in &self.tuples {
            let v = t.get(attr);
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }

    /// Clears every tuple's marks. Unmarked rows stay shared.
    pub fn clear_marks(&mut self) {
        for t in &mut self.tuples {
            if t.is_marked() {
                Arc::make_mut(t).clear_marks();
            }
        }
    }

    /// Total positively marked cells across all tuples (the paper's #-POS).
    pub fn positive_count(&self) -> usize {
        self.tuples.iter().map(|t| t.positive_count()).sum()
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation")
            .field("schema", &self.schema.name())
            .field("arity", &self.schema.arity())
            .field("tuples", &self.tuples.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nobel() -> Relation {
        let schema = Schema::new("Nobel", &["Name", "City"]);
        let mut r = Relation::new(schema);
        r.push_strs(&["Avram Hershko", "Karcag"]);
        r.push_strs(&["Marie Curie", "Paris"]);
        r
    }

    #[test]
    fn push_and_read() {
        let r = nobel();
        assert_eq!(r.len(), 2);
        let city = r.schema().attr_expect("City");
        assert_eq!(r.tuple(0).get(city), "Karcag");
        assert_eq!(r.value(CellRef { row: 1, attr: city }), "Paris");
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked_on_push() {
        let mut r = nobel();
        r.push_strs(&["only one"]);
    }

    #[test]
    fn cell_refs_enumerate_all() {
        let r = nobel();
        assert_eq!(r.cell_refs().count(), 4);
        assert_eq!(r.cell_count(), 4);
    }

    #[test]
    fn column_values_dedupe() {
        let mut r = nobel();
        r.push_strs(&["Third Person", "Paris"]);
        let city = r.schema().attr_expect("City");
        assert_eq!(r.column_values(city), vec!["Karcag", "Paris"]);
    }

    #[test]
    fn positive_count_sums_rows() {
        let mut r = nobel();
        let name = r.schema().attr_expect("Name");
        let city = r.schema().attr_expect("City");
        r.tuple_mut(0).mark_positive(name);
        r.tuple_mut(1).mark_positive(name);
        r.tuple_mut(1).mark_positive(city);
        assert_eq!(r.positive_count(), 3);
        r.clear_marks();
        assert_eq!(r.positive_count(), 0);
    }

    #[test]
    fn from_tuples_validates() {
        let schema = Schema::new("R", &["A"]);
        let r = Relation::from_tuples(schema.clone(), vec![Tuple::from_strs(&["x"])]);
        assert_eq!(r.len(), 1);
    }

    /// A clone shares every row; writing one copies that row only, and the
    /// original keeps its values and marks byte for byte.
    #[test]
    fn writing_a_clone_leaves_the_original_intact() {
        let original = nobel();
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&copy.tuples()[0], &original.tuples()[0]));
        let city = copy.schema().attr_expect("City");
        copy.tuple_mut(0).set(city, "Haifa");
        copy.tuple_mut(0).mark_positive(city);
        assert_eq!(original.tuple(0).get(city), "Karcag");
        assert!(!original.tuple(0).is_positive(city));
        assert!(!Arc::ptr_eq(&copy.tuples()[0], &original.tuples()[0]));
        assert!(Arc::ptr_eq(&copy.tuples()[1], &original.tuples()[1]));
    }
}
