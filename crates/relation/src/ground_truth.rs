//! Ground-truth bookkeeping for repair evaluation.

use crate::relation::{CellRef, Relation};

/// The clean version of a relation, used to judge repairs.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    clean: Relation,
}

impl GroundTruth {
    /// Wraps the clean relation.
    pub fn new(clean: Relation) -> Self {
        Self { clean }
    }

    /// The clean relation.
    pub fn clean(&self) -> &Relation {
        &self.clean
    }

    /// The correct value for a cell.
    pub fn correct_value(&self, cell: CellRef) -> &str {
        self.clean.value(cell)
    }

    /// Whether `value` is the correct value for `cell`.
    pub fn is_correct(&self, cell: CellRef, value: &str) -> bool {
        self.clean.value(cell) == value
    }

    /// Cells where `other` disagrees with the clean relation, in row-major
    /// order.
    ///
    /// # Panics
    /// Panics if the two relations have different shapes.
    pub fn erroneous_cells(&self, other: &Relation) -> Vec<CellRef> {
        assert_eq!(self.clean.len(), other.len(), "row count mismatch");
        assert_eq!(
            self.clean.schema().arity(),
            other.schema().arity(),
            "arity mismatch"
        );
        self.clean
            .cell_refs()
            .filter(|&c| self.clean.value(c) != other.value(c))
            .collect()
    }

    /// Number of cells where `other` disagrees with the clean relation.
    pub fn error_count(&self, other: &Relation) -> usize {
        self.erroneous_cells(other).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::{inject, ColumnSwapSource, NoiseSpec};
    use crate::schema::Schema;

    fn clean() -> Relation {
        let schema = Schema::new("R", &["A", "B"]);
        let mut r = Relation::new(schema);
        for i in 0..20 {
            r.push_strs(&[&format!("a{i}"), &format!("b{}", i % 4)]);
        }
        r
    }

    #[test]
    fn no_errors_when_identical() {
        let c = clean();
        let gt = GroundTruth::new(c.clone());
        assert!(gt.erroneous_cells(&c).is_empty());
        assert_eq!(gt.error_count(&c), 0);
    }

    #[test]
    fn detects_injected_errors_exactly() {
        let c = clean();
        let gt = GroundTruth::new(c.clone());
        let (dirty, log) = inject(&c, &NoiseSpec::new(0.15, 9), &ColumnSwapSource);
        let found = gt.erroneous_cells(&dirty);
        let injected: Vec<_> = log.iter().map(|e| e.cell).collect();
        assert_eq!(found, injected);
    }

    #[test]
    fn is_correct_consults_clean_value() {
        let c = clean();
        let gt = GroundTruth::new(c);
        let cell = CellRef {
            row: 3,
            attr: gt.clean().schema().attr_expect("A"),
        };
        assert!(gt.is_correct(cell, "a3"));
        assert!(!gt.is_correct(cell, "a4"));
        assert_eq!(gt.correct_value(cell), "a3");
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn shape_mismatch_panics() {
        let c = clean();
        let gt = GroundTruth::new(c.clone());
        let shorter = Relation::new(c.schema().clone());
        gt.erroneous_cells(&shorter);
    }
}
