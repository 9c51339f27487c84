//! The Nobel dataset (§V-A): laureate tuples over the Table-I schema
//! `Nobel(Name, DOB, Country, Prize, Institution, City)`.
//!
//! The paper joins two Wikipedia lists into 1069 tuples; we generate a
//! synthetic laureate world of the same shape (see DESIGN.md §2) with the
//! semantic structure all five detective rules need:
//!
//! * work city vs **birth city** (the City confusion);
//! * citizenship country vs **birth country** (the Country confusion);
//! * employer vs **alma mater** (the Institution confusion);
//! * chemistry award vs **another won award** (the Prize confusion);
//! * birth date vs **death date** (the DOB confusion).

use crate::names;
use crate::profile::{KbFlavor, KbProfile};
use dr_core::graph::schema::NodeType;
use dr_core::rule::{node, DetectiveRule, RuleEdge, RuleNodeRef};
use dr_kb::fixtures::names as rel_names;
use dr_kb::{KbBuilder, KnowledgeBase};
use dr_relation::noise::SemanticSource;
use dr_relation::{CellRef, Relation, Schema};
use dr_simmatch::SimFn;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::sync::Arc;

/// The property holding a person's death date (negative semantics of DOB).
pub const DIED_ON_DATE: &str = "diedOnDate";

/// The number of tuples the paper's Nobel dataset has.
pub const PAPER_SIZE: usize = 1069;

/// One laureate in the synthetic world. All indexes refer to the pools in
/// [`NobelWorld`].
#[derive(Debug, Clone)]
pub struct NobelPerson {
    /// Full name (unique).
    pub name: String,
    /// Birth date (`YYYY-MM-DD`).
    pub dob: String,
    /// Death date (distinct from `dob`).
    pub died: String,
    /// Country of citizenship (= country of the work city; index).
    pub citizenship: usize,
    /// Birth city (index); its country is the birth country.
    pub birth_city: usize,
    /// Primary employer (index).
    pub institution: usize,
    /// Optional second employer — the source of multi-version repairs.
    pub second_institution: Option<usize>,
    /// Alma mater (index, different from the employers).
    pub grad_institution: usize,
    /// The chemistry prize won (index into `prizes`).
    pub prize: usize,
    /// Optional second, non-chemistry prize.
    pub other_prize: Option<usize>,
}

/// The synthetic laureate universe shared by the dataset and its KBs.
#[derive(Debug, Clone)]
pub struct NobelWorld {
    /// Laureates; tuple `i` of the relation describes `persons[i]`.
    pub persons: Vec<NobelPerson>,
    /// `(name, city index)` employers.
    pub institutions: Vec<(String, usize)>,
    /// `(name, country index)` cities.
    pub cities: Vec<(String, usize)>,
    /// Country names.
    pub countries: Vec<String>,
    /// `(name, is_chemistry)` awards.
    pub prizes: Vec<(String, bool)>,
}

impl NobelWorld {
    /// Generates a world with `n` laureates, deterministically from `seed`.
    pub fn generate(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_countries = 30.min(4 + n / 20).max(4);
        let n_cities = (n / 2).clamp(8, 400);
        let n_institutions = (n / 3).clamp(6, 250);
        let n_chem_prizes = 8.min(2 + n / 100).max(2);
        let n_other_prizes = 10.min(2 + n / 80).max(2);

        let countries: Vec<String> = (0..n_countries)
            .map(|i| names::place_name(i) + " Republic")
            .collect();
        let cities: Vec<(String, usize)> = (0..n_cities)
            .map(|i| (names::place_name(1000 + i), i % n_countries))
            .collect();
        let institutions: Vec<(String, usize)> = (0..n_institutions)
            .map(|i| {
                let city = i % n_cities;
                let name = if i % 2 == 0 {
                    format!("University of {}", cities[city].0)
                } else {
                    format!("{} Institute of Technology", cities[city].0)
                };
                (name, city)
            })
            .collect();
        let mut prizes: Vec<(String, bool)> = Vec::new();
        prizes.push(("Nobel Prize in Chemistry".to_owned(), true));
        for i in 1..n_chem_prizes {
            prizes.push((
                format!("{} Prize in Chemistry", names::place_name(3000 + i)),
                true,
            ));
        }
        for i in 0..n_other_prizes {
            prizes.push((
                format!("{} Medal of Science", names::place_name(4000 + i)),
                false,
            ));
        }

        let persons: Vec<NobelPerson> = (0..n)
            .map(|i| {
                let institution = rng.gen_range(0..n_institutions);
                let work_city = institutions[institution].1;
                let citizenship = cities[work_city].1;
                // Birth city: usually a different city (possibly different
                // country).
                let birth_city = loop {
                    let c = rng.gen_range(0..n_cities);
                    if c != work_city {
                        break c;
                    }
                };
                let second_institution = if rng.gen_bool(0.06) {
                    // A second employer in the same city keeps the world
                    // consistent with citizenship.
                    let alt = (institution + n_cities) % n_institutions;
                    (alt != institution).then_some(alt)
                } else {
                    None
                };
                let grad_institution = loop {
                    let g = rng.gen_range(0..n_institutions);
                    if g != institution && Some(g) != second_institution {
                        break g;
                    }
                };
                let prize = rng.gen_range(0..n_chem_prizes);
                let other_prize = rng
                    .gen_bool(0.5)
                    .then(|| n_chem_prizes + rng.gen_range(0..n_other_prizes));
                let dob = names::date(i);
                let died = names::date(i + 40_507); // offset ⇒ ≠ dob
                NobelPerson {
                    name: names::person_name(i),
                    dob,
                    died,
                    citizenship,
                    birth_city,
                    institution,
                    second_institution,
                    grad_institution,
                    prize,
                    other_prize,
                }
            })
            .collect();

        Self {
            persons,
            institutions,
            cities,
            countries,
            prizes,
        }
    }

    /// The relation schema (identical to the paper's Table I).
    pub fn schema() -> Arc<Schema> {
        dr_core::fixtures::nobel_schema()
    }

    /// The clean relation: one tuple per laureate.
    pub fn clean_relation(&self) -> Relation {
        let mut relation = Relation::new(Self::schema());
        for p in &self.persons {
            let work_city = self.institutions[p.institution].1;
            relation.push_strs(&[
                &p.name,
                &p.dob,
                &self.countries[p.citizenship],
                &self.prizes[p.prize].0,
                &self.institutions[p.institution].0,
                &self.cities[work_city].0,
            ]);
        }
        relation
    }

    /// Builds the KB for `profile`. Covered laureates get their full
    /// neighbourhood; uncovered ones appear with type and name only (the KB
    /// "knows of" them but holds no usable evidence).
    pub fn kb(&self, profile: &KbProfile) -> KnowledgeBase {
        let mut b = KbBuilder::new();
        let mut rng = StdRng::seed_from_u64(profile.seed);

        // Classes. The Yago flavor nests the laureate class in a deep
        // taxonomy; the DBpedia flavor is flat.
        let laureate = b.class(rel_names::LAUREATE);
        let organization = b.class(rel_names::ORGANIZATION);
        let chem_awards = b.class(rel_names::CHEM_AWARDS);
        let other_awards = b.class(rel_names::US_AWARDS);
        let country = b.class(rel_names::COUNTRY);
        let city = b.class(rel_names::CITY);
        if profile.flavor == KbFlavor::YagoLike {
            let person = b.class("person");
            let scientist = b.class("scientist");
            let chemist = b.class("chemist");
            b.subclass(scientist, person);
            b.subclass(chemist, scientist);
            b.subclass(laureate, chemist);
            let location = b.class("location");
            b.subclass(city, location);
            b.subclass(country, location);
            let award = b.class("award");
            b.subclass(chem_awards, award);
            b.subclass(other_awards, award);
            let org_root = b.class("legal entity");
            b.subclass(organization, org_root);
        }

        // Predicates.
        let works_at = b.pred(rel_names::WORKS_AT);
        let located_in = b.pred(rel_names::LOCATED_IN);
        let citizen_of = b.pred(rel_names::CITIZEN_OF);
        let born_in = b.pred(rel_names::BORN_IN);
        let born_at = b.pred(rel_names::BORN_AT);
        let won_prize = b.pred(rel_names::WON_PRIZE);
        let graduated = b.pred(rel_names::GRADUATED_FROM);
        let born_on = b.pred(rel_names::BORN_ON_DATE);
        let died_on = b.pred(DIED_ON_DATE);

        // Geography and organizations (always fully covered: the paper's
        // KBs know the world's places).
        let country_ids: Vec<_> = self
            .countries
            .iter()
            .map(|name| {
                let i = b.instance(name);
                b.set_type(i, country);
                i
            })
            .collect();
        let city_ids: Vec<_> = self
            .cities
            .iter()
            .map(|(name, c)| {
                let i = b.instance(name);
                b.set_type(i, city);
                b.edge(i, located_in, country_ids[*c]);
                i
            })
            .collect();
        let institution_ids: Vec<_> = self
            .institutions
            .iter()
            .map(|(name, c)| {
                let i = b.instance(name);
                b.set_type(i, organization);
                b.edge(i, located_in, city_ids[*c]);
                i
            })
            .collect();
        let prize_ids: Vec<_> = self
            .prizes
            .iter()
            .map(|(name, chem)| {
                let i = b.instance(name);
                b.set_type(i, if *chem { chem_awards } else { other_awards });
                i
            })
            .collect();

        // Laureates, with coverage sampling.
        for p in &self.persons {
            let covered = rng.gen_bool(profile.entity_coverage);
            let inst = b.instance(&p.name);
            b.set_type(inst, laureate);
            if !covered {
                continue;
            }
            let keep = |rng: &mut StdRng| !rng.gen_bool(profile.edge_dropout);
            if keep(&mut rng) {
                b.edge(inst, works_at, institution_ids[p.institution]);
            }
            if let Some(second) = p.second_institution {
                if keep(&mut rng) {
                    b.edge(inst, works_at, institution_ids[second]);
                }
            }
            if keep(&mut rng) {
                b.edge(inst, graduated, institution_ids[p.grad_institution]);
            }
            if keep(&mut rng) {
                b.edge(inst, citizen_of, country_ids[p.citizenship]);
            }
            if keep(&mut rng) {
                b.edge(inst, born_in, city_ids[p.birth_city]);
            }
            if keep(&mut rng) {
                let birth_country = self.cities[p.birth_city].1;
                b.edge(inst, born_at, country_ids[birth_country]);
            }
            if keep(&mut rng) {
                b.edge(inst, won_prize, prize_ids[p.prize]);
            }
            if let Some(other) = p.other_prize {
                if keep(&mut rng) {
                    b.edge(inst, won_prize, prize_ids[other]);
                }
            }
            if keep(&mut rng) {
                let dob = b.literal(&p.dob);
                b.edge(inst, born_on, dob);
            }
            if keep(&mut rng) {
                let died = b.literal(&p.died);
                b.edge(inst, died_on, died);
            }
        }

        b.finalize().expect("nobel taxonomy is acyclic")
    }

    /// The five Nobel detective rules against `kb`: the Figure-4 shapes plus
    /// the DOB rule (bornOnDate vs diedOnDate).
    ///
    /// Unlike the illustrative Figure-4 fixtures, the experiment rules use
    /// `ED,2` on the non-key value columns — the tolerant matching the
    /// paper's experiments rely on to repair typos "to the most similar
    /// candidate" (Fig. 7 discussion). Joint-assignment edge constraints
    /// keep the tolerant matches unambiguous.
    pub fn rules<'a>(kb: impl Into<dr_kb::KbRef<'a>>) -> Vec<DetectiveRule> {
        let kb = kb.into();
        let schema = Self::schema();
        let class = |n: &str| NodeType::Class(kb.class_named(n).expect("nobel class"));
        let pred = |n: &str| kb.pred_named(n).expect("nobel pred");
        let col = |n: &str| schema.attr_expect(n);

        let name_node = node(col("Name"), class(rel_names::LAUREATE), SimFn::Equal);
        // Positive and evidence nodes tolerate typos (`ED,2`); negative
        // nodes match exactly — semantic errors are verbatim copies of
        // related values, and a tolerant negative node could confuse a typo
        // of the correct value with a near-twin wrong value.
        let inst_node = node(
            col("Institution"),
            class(rel_names::ORGANIZATION),
            SimFn::EditDistance(2),
        );
        let inst_neg = node(
            col("Institution"),
            class(rel_names::ORGANIZATION),
            SimFn::Equal,
        );
        let city_node = node(col("City"), class(rel_names::CITY), SimFn::EditDistance(2));
        let city_neg = node(col("City"), class(rel_names::CITY), SimFn::Equal);
        let country_node = node(
            col("Country"),
            class(rel_names::COUNTRY),
            SimFn::EditDistance(2),
        );
        let country_neg = node(col("Country"), class(rel_names::COUNTRY), SimFn::Equal);
        let dob_node = node(col("DOB"), NodeType::Literal, SimFn::EditDistance(2));
        let dob_neg = node(col("DOB"), NodeType::Literal, SimFn::Equal);

        use RuleNodeRef::{Evidence, Negative, Positive};
        let edge = |from, rel, to| RuleEdge { from, to, rel };

        let phi1 = DetectiveRule::new(
            "phi1-institution",
            vec![name_node],
            inst_node,
            inst_neg,
            vec![
                edge(Evidence(0), pred(rel_names::WORKS_AT), Positive),
                edge(Evidence(0), pred(rel_names::GRADUATED_FROM), Negative),
            ],
        )
        .expect("phi1 valid");

        let phi2 = DetectiveRule::new(
            "phi2-city",
            vec![name_node, inst_node],
            city_node,
            city_neg,
            vec![
                edge(Evidence(0), pred(rel_names::WORKS_AT), Evidence(1)),
                edge(Evidence(1), pred(rel_names::LOCATED_IN), Positive),
                edge(Evidence(0), pred(rel_names::BORN_IN), Negative),
            ],
        )
        .expect("phi2 valid");

        let phi3 = DetectiveRule::new(
            "phi3-country",
            vec![name_node, inst_node, city_node],
            country_node,
            country_neg,
            vec![
                edge(Evidence(0), pred(rel_names::WORKS_AT), Evidence(1)),
                edge(Evidence(1), pred(rel_names::LOCATED_IN), Evidence(2)),
                edge(Evidence(0), pred(rel_names::CITIZEN_OF), Positive),
                edge(Evidence(2), pred(rel_names::LOCATED_IN), Positive),
                edge(Evidence(0), pred(rel_names::BORN_AT), Negative),
            ],
        )
        .expect("phi3 valid");

        let phi4 = DetectiveRule::new(
            "phi4-prize",
            vec![name_node],
            node(
                col("Prize"),
                class(rel_names::CHEM_AWARDS),
                SimFn::EditDistance(2),
            ),
            node(col("Prize"), class(rel_names::US_AWARDS), SimFn::Equal),
            vec![
                edge(Evidence(0), pred(rel_names::WON_PRIZE), Positive),
                edge(Evidence(0), pred(rel_names::WON_PRIZE), Negative),
            ],
        )
        .expect("phi4 valid");

        let phi5 = DetectiveRule::new(
            "phi5-dob",
            vec![name_node],
            dob_node,
            dob_neg,
            vec![
                edge(Evidence(0), pred(rel_names::BORN_ON_DATE), Positive),
                edge(Evidence(0), pred(DIED_ON_DATE), Negative),
            ],
        )
        .expect("phi5 valid");

        vec![phi1, phi2, phi3, phi4, phi5]
    }

    /// The dataset-aware semantic-error source (the paper's "value replaced
    /// with a different one from a semantically related attribute").
    pub fn semantic_source(&self) -> NobelSemanticSource<'_> {
        NobelSemanticSource { world: self }
    }
}

/// Semantic errors for the Nobel schema: each column is replaced by the
/// value of the related-but-wrong concept of the *same* person.
pub struct NobelSemanticSource<'w> {
    world: &'w NobelWorld,
}

impl SemanticSource for NobelSemanticSource<'_> {
    fn related_value(
        &self,
        relation: &Relation,
        cell: CellRef,
        rng: &mut StdRng,
    ) -> Option<String> {
        let w = self.world;
        let p = w.persons.get(cell.row)?;
        let schema = relation.schema();
        let value = match schema.attr_name(cell.attr) {
            "DOB" => p.died.clone(),
            "Country" => {
                let birth_country = w.cities[p.birth_city].1;
                w.countries[birth_country].clone()
            }
            "Prize" => match p.other_prize {
                Some(other) => w.prizes[other].0.clone(),
                None => {
                    // No second prize: use another laureate's chemistry prize
                    // (a same-domain wrong value).
                    let alt = (p.prize + 1) % w.prizes.iter().filter(|(_, c)| *c).count();
                    w.prizes[alt].0.clone()
                }
            },
            "Institution" => w.institutions[p.grad_institution].0.clone(),
            "City" => w.cities[p.birth_city].0.clone(),
            "Name" => {
                // Another person's name.
                let other = rng.gen_range(0..w.persons.len());
                w.persons[other].name.clone()
            }
            _ => return None,
        };
        (value != relation.value(cell)).then_some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dr_core::rule::consistency::check_consistency;
    use dr_core::{fast_repair, ApplyOptions, MatchContext};
    use dr_relation::noise::{inject, NoiseSpec};
    use dr_relation::GroundTruth;

    fn small_world() -> NobelWorld {
        NobelWorld::generate(120, 7)
    }

    #[test]
    fn world_is_deterministic() {
        let a = NobelWorld::generate(50, 3);
        let b = NobelWorld::generate(50, 3);
        assert_eq!(a.persons.len(), b.persons.len());
        for (x, y) in a.persons.iter().zip(&b.persons) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.institution, y.institution);
        }
    }

    #[test]
    fn clean_relation_shape() {
        let w = small_world();
        let r = w.clean_relation();
        assert_eq!(r.len(), 120);
        assert_eq!(r.schema().arity(), 6);
        // Names are unique (the key attribute).
        let names: dr_kb::FxHashSet<&str> = r
            .tuples()
            .iter()
            .map(|t| t.get(r.schema().attr_expect("Name")))
            .collect();
        assert_eq!(names.len(), 120);
    }

    #[test]
    fn world_is_internally_consistent() {
        let w = small_world();
        for p in &w.persons {
            // Citizenship = country of the work city (ϕ3's positive shape).
            let work_city = w.institutions[p.institution].1;
            assert_eq!(p.citizenship, w.cities[work_city].1);
            assert_ne!(p.birth_city, work_city);
            assert_ne!(p.grad_institution, p.institution);
            assert_ne!(p.dob, p.died);
            assert!(w.prizes[p.prize].1, "main prize is a chemistry prize");
            if let Some(o) = p.other_prize {
                assert!(!w.prizes[o].1, "second prize is non-chemistry");
            }
        }
    }

    #[test]
    fn yago_kb_has_taxonomy_dbpedia_is_flat() {
        let w = small_world();
        let yago = w.kb(&KbProfile::yago());
        let dbpedia = w.kb(&KbProfile::dbpedia());
        assert!(yago.taxonomy().depth() >= 4);
        assert_eq!(dbpedia.taxonomy().depth(), 1);
        // Coverage: Yago has strictly more edges.
        assert!(yago.num_edges() > dbpedia.num_edges());
        // Taxonomy closure works: laureates are persons in Yago.
        let person = yago.class_named("person").unwrap();
        assert!(!yago.instances_of(person).is_empty());
    }

    #[test]
    fn rules_resolve_on_both_kbs() {
        let w = small_world();
        for profile in [KbProfile::yago(), KbProfile::dbpedia()] {
            let kb = w.kb(&profile);
            let rules = NobelWorld::rules(&kb);
            assert_eq!(rules.len(), 5);
        }
    }

    #[test]
    fn rules_are_consistent_on_sample() {
        let w = small_world();
        let kb = w.kb(&KbProfile::yago());
        let rules = NobelWorld::rules(&kb);
        let ctx = MatchContext::new(&kb);
        let clean = w.clean_relation();
        let (dirty, _) = inject(&clean, &NoiseSpec::new(0.1, 5), &w.semantic_source());
        let verdict = check_consistency(&ctx, &rules, &dirty, &ApplyOptions::default());
        assert!(verdict.is_consistent(), "{verdict:?}");
    }

    /// End-to-end: inject noise, repair with DRs, verify precision 1.0 and
    /// substantial recall (the Table III shape).
    #[test]
    fn repair_has_perfect_precision_and_good_recall() {
        let w = small_world();
        let kb = w.kb(&KbProfile::yago());
        let rules = NobelWorld::rules(&kb);
        let ctx = MatchContext::new(&kb);
        let clean = w.clean_relation();
        let gt = GroundTruth::new(clean.clone());

        let name_attr = clean.schema().attr_expect("Name");
        let spec = NoiseSpec::new(0.10, 11).with_excluded(vec![name_attr]);
        let (mut dirty, log) = inject(&clean, &spec, &w.semantic_source());
        assert!(!log.is_empty());
        let before = gt.error_count(&dirty);

        let report = fast_repair(&ctx, &rules, &mut dirty, &ApplyOptions::default());
        let after = gt.error_count(&dirty);
        assert!(
            after < before / 2,
            "expected most errors repaired: {after} of {before} remain"
        );

        // Precision: every rewritten cell now matches the ground truth or
        // was already wrong before — except inside tuples where a
        // multi-version repair (several valid KB answers) sent the chase
        // down a non-ground-truth but KB-consistent branch. The paper
        // counts those correct when any candidate matches the truth.
        for (row, tuple_report) in report.tuples.iter().enumerate() {
            let multi_version = tuple_report.steps.iter().any(|s| {
                matches!(
                    &s.application,
                    dr_core::RuleApplication::Repaired { candidates, .. }
                        if candidates.len() > 1
                )
            });
            if multi_version {
                // Verify the paper's criterion instead: the ground truth is
                // among the candidates of each multi-version repair.
                for step in &tuple_report.steps {
                    if let dr_core::RuleApplication::Repaired {
                        col, candidates, ..
                    } = &step.application
                    {
                        if candidates.len() > 1 {
                            assert!(
                                candidates.contains(&clean.tuple(row).get(*col).to_owned()),
                                "truth not among candidates at row {row}"
                            );
                        }
                    }
                }
                continue;
            }
            for a in 0..clean.schema().arity() {
                let cell = CellRef {
                    row,
                    attr: dr_relation::AttrId::from_index(a),
                };
                let was_injected = log.iter().any(|e| e.cell == cell);
                if !was_injected {
                    assert_eq!(
                        dirty.value(cell),
                        clean.value(cell),
                        "correct cell {cell:?} must not change"
                    );
                }
            }
        }
    }

    #[test]
    fn semantic_source_respects_columns() {
        let w = small_world();
        let clean = w.clean_relation();
        let source = w.semantic_source();
        let mut rng = StdRng::seed_from_u64(1);
        let schema = clean.schema().clone();
        for (col, expect_differs) in [("City", true), ("Country", true), ("DOB", true)] {
            let cell = CellRef {
                row: 0,
                attr: schema.attr_expect(col),
            };
            let related = source.related_value(&clean, cell, &mut rng);
            if expect_differs {
                let v = related.expect("related value exists");
                assert_ne!(v, clean.value(cell), "column {col}");
            }
        }
    }
}
