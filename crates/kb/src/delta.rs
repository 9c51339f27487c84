//! KB deltas: incremental edits to a finalized [`KnowledgeBase`] and the
//! **footprint** of KB regions they touch.
//!
//! The paper assumes a frozen KB, but a live service curates its KB in
//! place (DESIGN.md §10). A [`KbDelta`] is an ordered batch of edits —
//! insert/retract triples, add/remove `rdf:type` edges, add/remove
//! `subClassOf` edges — that [`KnowledgeBase::apply_delta`] applies
//! in place, bumping the KB generation and returning a [`KbFootprint`]:
//! the sorted [`Region`]s (classes, adjacency pairs, the literal pool)
//! that changed. Readers record the regions they *read* during matching in
//! the same type, and a reader is stale under a delta exactly when one of
//! its regions is ([`Region::stale`]), so caches invalidate only the
//! entries, and selective re-repair re-runs only the rows, a delta reaches.
//!
//! Every delta op names entities **by label/value**, with the same
//! resolution semantics as [`KbBuilder`]: an instance label resolves to
//! the first instance carrying it, or creates a fresh one. This makes
//! "apply the delta in place" and "rebuild the KB from scratch with the
//! ops appended" produce byte-identical KBs — the property the
//! `kb_delta_differential` suite pins.
//!
//! [`KnowledgeBase`]: crate::KnowledgeBase
//! [`KnowledgeBase::apply_delta`]: crate::KnowledgeBase::apply_delta
//! [`KbBuilder`]: crate::KbBuilder

use crate::ids::{ClassId, InstanceId, Node, PredId};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// An edge target named by content: an instance label or a literal value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaNode {
    /// An instance, by label (resolved like [`crate::KbBuilder::instance`]).
    Instance(String),
    /// A literal, by value (interned if new).
    Literal(String),
}

/// One KB edit. All names resolve against the target KB at apply time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Adds the triple `(subject, pred, object)`; a duplicate is a no-op.
    InsertTriple {
        /// Subject instance label.
        subject: String,
        /// Predicate name.
        pred: String,
        /// Object node.
        object: DeltaNode,
    },
    /// Removes the triple `(subject, pred, object)` if present. The named
    /// entities are still interned (so retracting against a rebuilt KB
    /// assigns the same ids), but no edge change happens on a miss.
    RetractTriple {
        /// Subject instance label.
        subject: String,
        /// Predicate name.
        pred: String,
        /// Object node.
        object: DeltaNode,
    },
    /// Types `instance` with `class` (an `rdf:type` insert).
    AddType {
        /// Instance label.
        instance: String,
        /// Class name.
        class: String,
    },
    /// Removes the direct `rdf:type` edge `instance → class`, if present.
    RemoveType {
        /// Instance label.
        instance: String,
        /// Class name.
        class: String,
    },
    /// Declares `sub ⊑ sup` in the taxonomy.
    AddSubclass {
        /// Subclass name.
        sub: String,
        /// Superclass name.
        sup: String,
    },
    /// Removes the direct `sub ⊑ sup` taxonomy edge, if present.
    RemoveSubclass {
        /// Subclass name.
        sub: String,
        /// Superclass name.
        sup: String,
    },
}

/// An ordered batch of KB edits, applied atomically by
/// [`KnowledgeBase::apply_delta`](crate::KnowledgeBase::apply_delta):
/// either every op lands and the generation bumps, or (on a taxonomy
/// cycle) nothing changes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KbDelta {
    ops: Vec<DeltaOp>,
}

impl KbDelta {
    /// Creates an empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a raw op.
    pub fn push(&mut self, op: DeltaOp) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Appends an [`DeltaOp::InsertTriple`].
    pub fn insert(&mut self, subject: &str, pred: &str, object: DeltaNode) -> &mut Self {
        self.push(DeltaOp::InsertTriple {
            subject: subject.to_owned(),
            pred: pred.to_owned(),
            object,
        })
    }

    /// Appends a [`DeltaOp::RetractTriple`].
    pub fn retract(&mut self, subject: &str, pred: &str, object: DeltaNode) -> &mut Self {
        self.push(DeltaOp::RetractTriple {
            subject: subject.to_owned(),
            pred: pred.to_owned(),
            object,
        })
    }

    /// Appends an [`DeltaOp::AddType`].
    pub fn add_type(&mut self, instance: &str, class: &str) -> &mut Self {
        self.push(DeltaOp::AddType {
            instance: instance.to_owned(),
            class: class.to_owned(),
        })
    }

    /// Appends a [`DeltaOp::RemoveType`].
    pub fn remove_type(&mut self, instance: &str, class: &str) -> &mut Self {
        self.push(DeltaOp::RemoveType {
            instance: instance.to_owned(),
            class: class.to_owned(),
        })
    }

    /// Appends an [`DeltaOp::AddSubclass`].
    pub fn add_subclass(&mut self, sub: &str, sup: &str) -> &mut Self {
        self.push(DeltaOp::AddSubclass {
            sub: sub.to_owned(),
            sup: sup.to_owned(),
        })
    }

    /// Appends a [`DeltaOp::RemoveSubclass`].
    pub fn remove_subclass(&mut self, sub: &str, sup: &str) -> &mut Self {
        self.push(DeltaOp::RemoveSubclass {
            sub: sub.to_owned(),
            sup: sup.to_owned(),
        })
    }

    /// The ops, in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the delta contains no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Parses the TSV wire format (one op per line, tab-separated because
    /// labels routinely contain spaces):
    ///
    /// ```text
    /// insert \t <subject> \t <pred> \t i:<label> | l:<value>
    /// retract\t <subject> \t <pred> \t i:<label> | l:<value>
    /// type+  \t <instance> \t <class>
    /// type-  \t <instance> \t <class>
    /// sub+   \t <sub> \t <sup>
    /// sub-   \t <sub> \t <sup>
    /// ```
    ///
    /// Blank lines and lines starting with `#` are skipped; a trailing
    /// `\r` is tolerated.
    ///
    /// # Errors
    /// Returns the 1-based line and a message for the first malformed line.
    pub fn parse_tsv(text: &str) -> Result<KbDelta, DeltaParseError> {
        let mut delta = KbDelta::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.strip_suffix('\r').unwrap_or(raw);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |message: String| DeltaParseError {
                line: idx + 1,
                message,
            };
            let fields: Vec<&str> = line.split('\t').collect();
            let expect = |n: usize| -> Result<(), DeltaParseError> {
                if fields.len() != n {
                    return Err(err(format!(
                        "op `{}` takes {} fields, got {}",
                        fields[0],
                        n - 1,
                        fields.len() - 1
                    )));
                }
                if fields[1..].iter().any(|f| f.is_empty()) {
                    return Err(err(format!("op `{}` has an empty field", fields[0])));
                }
                Ok(())
            };
            match fields[0] {
                "insert" | "retract" => {
                    expect(4)?;
                    let object = DeltaNode::parse(fields[3]).ok_or_else(|| {
                        err(format!(
                            "bad object `{}`: want i:<label> or l:<value>",
                            fields[3]
                        ))
                    })?;
                    let (subject, pred) = (fields[1].to_owned(), fields[2].to_owned());
                    delta.push(if fields[0] == "insert" {
                        DeltaOp::InsertTriple {
                            subject,
                            pred,
                            object,
                        }
                    } else {
                        DeltaOp::RetractTriple {
                            subject,
                            pred,
                            object,
                        }
                    });
                }
                "type+" | "type-" => {
                    expect(3)?;
                    let (instance, class) = (fields[1].to_owned(), fields[2].to_owned());
                    delta.push(if fields[0] == "type+" {
                        DeltaOp::AddType { instance, class }
                    } else {
                        DeltaOp::RemoveType { instance, class }
                    });
                }
                "sub+" | "sub-" => {
                    expect(3)?;
                    let (sub, sup) = (fields[1].to_owned(), fields[2].to_owned());
                    delta.push(if fields[0] == "sub+" {
                        DeltaOp::AddSubclass { sub, sup }
                    } else {
                        DeltaOp::RemoveSubclass { sub, sup }
                    });
                }
                other => return Err(err(format!("unknown op `{other}`"))),
            }
        }
        Ok(delta)
    }

    /// Renders the delta back to the TSV wire format parsed by
    /// [`KbDelta::parse_tsv`], which reads it back unchanged as long as no
    /// name is empty or contains a tab, CR or LF.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            match op {
                DeltaOp::InsertTriple {
                    subject,
                    pred,
                    object,
                } => {
                    out.push_str(&format!("insert\t{subject}\t{pred}\t{}\n", object.render()));
                }
                DeltaOp::RetractTriple {
                    subject,
                    pred,
                    object,
                } => {
                    out.push_str(&format!(
                        "retract\t{subject}\t{pred}\t{}\n",
                        object.render()
                    ));
                }
                DeltaOp::AddType { instance, class } => {
                    out.push_str(&format!("type+\t{instance}\t{class}\n"));
                }
                DeltaOp::RemoveType { instance, class } => {
                    out.push_str(&format!("type-\t{instance}\t{class}\n"));
                }
                DeltaOp::AddSubclass { sub, sup } => {
                    out.push_str(&format!("sub+\t{sub}\t{sup}\n"));
                }
                DeltaOp::RemoveSubclass { sub, sup } => {
                    out.push_str(&format!("sub-\t{sub}\t{sup}\n"));
                }
            }
        }
        out
    }
}

impl DeltaNode {
    fn parse(field: &str) -> Option<DeltaNode> {
        if let Some(label) = field.strip_prefix("i:") {
            Some(DeltaNode::Instance(label.to_owned()))
        } else {
            field
                .strip_prefix("l:")
                .map(|value| DeltaNode::Literal(value.to_owned()))
        }
    }

    fn render(&self) -> String {
        match self {
            DeltaNode::Instance(label) => format!("i:{label}"),
            DeltaNode::Literal(value) => format!("l:{value}"),
        }
    }
}

/// A malformed line in the TSV delta wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for DeltaParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "delta line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DeltaParseError {}

/// One KB region: what a delta can write and a reader can depend on.
///
/// Granularity (DESIGN.md §10):
/// * `Class(c)` — the *closed extent* (`instances_of`) and typing answers
///   of class `c`. A type edit on `c` writes `c` together with every
///   ancestor of `c`; readers record the class a rule node names, so the
///   ancestor expansion on the write side makes staleness an equality.
/// * `AllClasses` — a taxonomy edit moved subsumption itself. Only
///   writers produce it; it makes every `Class` reader stale.
/// * `Literals` — the literal pool. A writer writes it when it interns a
///   **new** literal value (a reader that looked the value up and missed
///   could now hit); readers record it when they resolve literals by value.
/// * `Out(s, p)` / `In(o, p)` — the forward/backward adjacency keys an
///   edge insert or retract changed, or a reader probed.
///
/// The variant order is the sort order of a [`KbFootprint`]: the class
/// regions come first, so "does this footprint name a class" reads its
/// first region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Region {
    /// The closed extent of a class.
    Class(ClassId),
    /// Every class at once (taxonomy edits only).
    AllClasses,
    /// The literal pool.
    Literals,
    /// The out-edges `(subject, pred, *)`.
    Out(InstanceId, PredId),
    /// The in-edges `(*, pred, object)`.
    In(Node, PredId),
}

impl Region {
    /// Whether a delta with write footprint `write` can change what a
    /// reader of this region saw: the one staleness rule.
    pub fn stale(self, write: &KbFootprint) -> bool {
        write.contains(self)
            || matches!(self, Region::Class(_)) && write.contains(Region::AllClasses)
    }
}

/// A set of KB regions, sorted and deduplicated: the regions a delta
/// **wrote** ([`KnowledgeBase::apply_delta`](crate::KnowledgeBase::apply_delta)
/// returns it), or the regions a cache entry or a repaired row **read**.
///
/// The slice is shared by reference, so a report and its selective
/// successor hold one copy of an unchanged row's footprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KbFootprint(Arc<[Region]>);

impl Default for KbFootprint {
    fn default() -> Self {
        Self(Arc::new([]))
    }
}

impl KbFootprint {
    /// Sorts and dedups `buf`, copies it into a footprint, and leaves it
    /// empty with its capacity, so a caller can reuse one buffer.
    pub fn from_buf(buf: &mut Vec<Region>) -> Self {
        buf.sort_unstable();
        buf.dedup();
        let fp = Self(Arc::from(&buf[..]));
        buf.clear();
        fp
    }

    /// The regions, ascending.
    pub fn regions(&self) -> &[Region] {
        &self.0
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the footprint names no region.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether the footprint names `region` itself.
    pub fn contains(&self, region: Region) -> bool {
        self.0.binary_search(&region).is_ok()
    }

    /// Whether a reader of these regions is stale under a delta that
    /// wrote `write`: some region is ([`Region::stale`]), decided by one
    /// merge of the two sorted slices.
    pub fn stale(&self, write: &KbFootprint) -> bool {
        if matches!(self.0.first(), Some(Region::Class(_))) && write.contains(Region::AllClasses) {
            return true;
        }
        let (mut reads, mut writes) = (self.0.iter(), write.0.iter());
        let (mut r, mut w) = (reads.next(), writes.next());
        while let (Some(a), Some(b)) = (r, w) {
            match a.cmp(b) {
                Ordering::Less => r = reads.next(),
                Ordering::Greater => w = writes.next(),
                Ordering::Equal => return true,
            }
        }
        false
    }
}

impl FromIterator<Region> for KbFootprint {
    fn from_iter<I: IntoIterator<Item = Region>>(iter: I) -> Self {
        Self::from_buf(&mut iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const OPS: [&str; 9] = [
        "insert", "retract", "type+", "type-", "sub+", "sub-", "#", "", "Insert",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes on the delta ingress parse or fail with a typed
        /// error naming a real line; they never panic.
        #[test]
        fn parse_tsv_on_arbitrary_text_is_ok_or_a_located_error(
            text in "[\t\r\n -~ßД🦀]{0,80}",
        ) {
            check_parse(&text)?;
        }

        /// Near-miss lines: real and bogus op names, wrong field counts,
        /// empty fields, bad object prefixes, stray CRs and tabs.
        #[test]
        fn parse_tsv_on_near_miss_lines_is_ok_or_a_located_error(
            lines in prop::collection::vec(
                (0usize..9, 0usize..5, "[a-z:# ]{0,4}", "[il]?:?[a-z\t\r]{0,3}"),
                0..10,
            ),
        ) {
            let text: Vec<String> = lines
                .iter()
                .map(|(op, fields, name, object)| {
                    let mut line = OPS[*op].to_owned();
                    for f in 0..*fields {
                        line.push('\t');
                        line.push_str(if f + 1 == *fields { object } else { name });
                    }
                    line
                })
                .collect();
            check_parse(&text.join("\n"))?;
        }

        /// `parse_tsv(to_tsv(d)) == d` for deltas whose names are non-empty
        /// and free of tabs, CRs and LFs.
        #[test]
        fn to_tsv_round_trips_through_parse_tsv(
            ops in prop::collection::vec(
                (0u8..6, "\\PC{1,6}", "\\PC{1,6}", "\\PC{1,6}", any::<bool>()),
                0..10,
            ),
        ) {
            let mut d = KbDelta::new();
            for (kind, a, b, c, literal) in &ops {
                let object = if *literal {
                    DeltaNode::Literal(c.clone())
                } else {
                    DeltaNode::Instance(c.clone())
                };
                match kind {
                    0 => d.insert(a, b, object),
                    1 => d.retract(a, b, object),
                    2 => d.add_type(a, b),
                    3 => d.remove_type(a, b),
                    4 => d.add_subclass(a, b),
                    _ => d.remove_subclass(a, b),
                };
            }
            prop_assert_eq!(KbDelta::parse_tsv(&d.to_tsv()), Ok(d));
        }
    }

    fn check_parse(text: &str) -> Result<(), TestCaseError> {
        let lines = text.lines().count();
        match KbDelta::parse_tsv(text) {
            Ok(d) => prop_assert!(d.len() <= lines),
            Err(e) => prop_assert!(
                (1..=lines).contains(&e.line),
                "error line {} outside 1..={lines}: {e}",
                e.line
            ),
        }
        Ok(())
    }

    #[test]
    fn tsv_roundtrip() {
        let mut d = KbDelta::new();
        d.insert(
            "Avram Hershko",
            "worksAt",
            DeltaNode::Instance("Technion".into()),
        )
        .retract(
            "Avram Hershko",
            "bornOnDate",
            DeltaNode::Literal("1937-12-31".into()),
        )
        .add_type("Haifa", "city")
        .remove_type("Haifa", "village")
        .add_subclass("city", "place")
        .remove_subclass("city", "region");
        let tsv = d.to_tsv();
        let back = KbDelta::parse_tsv(&tsv).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn parse_skips_blanks_comments_and_crlf() {
        let d = KbDelta::parse_tsv("# comment\n\ninsert\ta\tp\ti:b\r\n").unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(
            d.ops()[0],
            DeltaOp::InsertTriple {
                subject: "a".into(),
                pred: "p".into(),
                object: DeltaNode::Instance("b".into()),
            }
        );
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for (text, want_line) in [
            ("frobnicate\ta\tb", 1),
            ("insert\ta\tp", 1),
            ("insert\ta\tp\tb", 1),
            ("insert\ta\tp\tx:b", 1),
            ("type+\ta", 1),
            ("# fine\nsub+\ta\tb\tc", 2),
            ("insert\t\tp\ti:b", 1),
        ] {
            let err = KbDelta::parse_tsv(text).unwrap_err();
            assert_eq!(err.line, want_line, "for {text:?}: {err}");
        }
    }

    fn class(i: usize) -> Region {
        Region::Class(ClassId::from_index(i))
    }

    fn out(s: usize, p: usize) -> Region {
        Region::Out(InstanceId::from_index(s), PredId::from_index(p))
    }

    #[test]
    fn footprint_intersection_rules() {
        let read: KbFootprint = [class(3), out(1, 0)].into_iter().collect();

        let write = KbFootprint::default();
        assert!(!read.stale(&write));
        let write: KbFootprint = [class(2)].into_iter().collect();
        assert!(!read.stale(&write));
        let write: KbFootprint = [class(2), class(3)].into_iter().collect();
        assert!(read.stale(&write));

        let tax: KbFootprint = [Region::AllClasses].into_iter().collect();
        assert!(read.stale(&tax));
        let pure_edges: KbFootprint = [out(9, 9)].into_iter().collect();
        assert!(
            !pure_edges.stale(&tax),
            "taxonomy edits leave adjacency readers alone"
        );

        let lit_read: KbFootprint = [Region::Literals].into_iter().collect();
        let lit_write = KbFootprint::default();
        assert!(!lit_read.stale(&lit_write));
        let lit_write: KbFootprint = [Region::Literals].into_iter().collect();
        assert!(lit_read.stale(&lit_write));
    }

    #[test]
    fn footprint_merge_and_empty() {
        let a = KbFootprint::default();
        assert!(a.is_empty());
        let b: KbFootprint = [class(1), Region::Literals].into_iter().collect();
        let union: KbFootprint = a.regions().iter().chain(b.regions()).copied().collect();
        assert!(!union.is_empty());
        assert!(union.contains(class(1)));
        assert!(union.contains(Region::Literals));
    }

    /// A footprint over a small id space, so random footprints overlap
    /// often; the all-classes marker and the literal pool come up often too.
    fn random_footprint(rng: &mut StdRng) -> KbFootprint {
        (0..rng.gen_range(0..8))
            .map(|_| match rng.gen_range(0..13) {
                0..=2 => class(rng.gen_range(0..4)),
                3 | 4 => Region::AllClasses,
                5 | 6 => Region::Literals,
                7..=9 => out(rng.gen_range(0..4), rng.gen_range(0..2)),
                _ => {
                    let o = if rng.gen_bool(0.3) {
                        Node::Literal(crate::LiteralId::from_index(rng.gen_range(0..2)))
                    } else {
                        Node::Instance(InstanceId::from_index(rng.gen_range(0..4)))
                    };
                    Region::In(o, PredId::from_index(rng.gen_range(0..2)))
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The merge-based overlap test equals the per-region rule applied
        /// region by region, and every footprint is sorted and
        /// deduplicated.
        #[test]
        fn footprint_staleness_matches_brute_force(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (read, write) = (random_footprint(&mut rng), random_footprint(&mut rng));
            for fp in [&read, &write] {
                prop_assert!(fp.regions().windows(2).all(|w| w[0] < w[1]), "{:?}", fp);
            }
            let brute = read.regions().iter().any(|&r| r.stale(&write));
            prop_assert_eq!(read.stale(&write), brute, "{:?} under {:?}", read, write);
        }
    }
}
