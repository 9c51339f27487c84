//! The UIS dataset (§V-A): synthetic person/address records in the style of
//! the UIS Database Generator, scalable to the paper's 100K tuples.
//!
//! Schema: `UIS(Name, SSN, Address, City, State, Zip)`. The generated world
//! gives every column both a positive semantics and a related-but-wrong
//! semantics, so all five non-key columns get a detective rule:
//!
//! | column  | positive              | negative (error semantics)   |
//! |---------|-----------------------|------------------------------|
//! | SSN     | `hasSsn`              | `hasTaxId`                   |
//! | Address | `livesAt` street      | `worksAt` street             |
//! | City    | `livesIn` city        | `wasBornIn` city             |
//! | State   | home city `inState`   | `bornInState`                |
//! | Zip     | home city `hasZip`    | `bornZip` (birth-city zip)   |

use crate::names;
use crate::profile::{KbFlavor, KbProfile};
use dr_core::graph::schema::NodeType;
use dr_core::rule::{node, DetectiveRule, RuleEdge, RuleNodeRef};
use dr_kb::{KbBuilder, KnowledgeBase};
use dr_relation::noise::SemanticSource;
use dr_relation::{CellRef, Relation, Schema};
use dr_simmatch::SimFn;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::sync::Arc;

/// Class and predicate names of the UIS world.
pub mod uis_names {
    /// Person class.
    pub const PERSON: &str = "person";
    /// Street class.
    pub const STREET: &str = "street";
    /// City class.
    pub const CITY: &str = "city";
    /// State class.
    pub const STATE: &str = "state";
    /// Zip-code class.
    pub const ZIP: &str = "zip code";
    /// person livesAt street.
    pub const LIVES_AT: &str = "livesAt";
    /// person worksAt street.
    pub const WORKS_AT: &str = "worksAt";
    /// person livesIn city.
    pub const LIVES_IN: &str = "livesIn";
    /// person wasBornIn city.
    pub const BORN_IN: &str = "wasBornIn";
    /// city inState state.
    pub const IN_STATE: &str = "inState";
    /// person bornInState state.
    pub const BORN_IN_STATE: &str = "bornInState";
    /// city hasZip zip.
    pub const HAS_ZIP: &str = "hasZip";
    /// person bornZip zip (zip of the birth city).
    pub const BORN_ZIP: &str = "bornZip";
    /// person hasSsn literal.
    pub const HAS_SSN: &str = "hasSsn";
    /// person hasTaxId literal.
    pub const HAS_TAX_ID: &str = "hasTaxId";
}

/// One person record of the UIS world.
#[derive(Debug, Clone)]
pub struct UisPerson {
    /// Unique full name.
    pub name: String,
    /// Social security number.
    pub ssn: String,
    /// Tax identifier (≠ ssn): the SSN column's semantic confusion.
    pub tax_id: String,
    /// Home street (index).
    pub home_street: usize,
    /// Work street (index, ≠ home).
    pub work_street: usize,
    /// Home city (index).
    pub home_city: usize,
    /// Birth city (index, ≠ home).
    pub birth_city: usize,
}

/// The UIS universe.
#[derive(Debug, Clone)]
pub struct UisWorld {
    /// Person records; tuple `i` describes `persons[i]`.
    pub persons: Vec<UisPerson>,
    /// Street names.
    pub streets: Vec<String>,
    /// `(name, state index, zip index)` cities.
    pub cities: Vec<(String, usize, usize)>,
    /// State names.
    pub states: Vec<String>,
    /// Zip codes (one per city).
    pub zips: Vec<String>,
}

impl UisWorld {
    /// Generates a UIS world with `n` persons from `seed`.
    pub fn generate(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_states = 30;
        let n_cities = (n / 40).clamp(10, 600);
        let n_streets = (n / 10).clamp(20, 2_000);

        let states: Vec<String> = (0..n_states)
            .map(|i| format!("{} State", names::place_name(2000 + i)))
            .collect();
        let zips: Vec<String> = (0..n_cities)
            .map(|i| format!("{:05}", 10_000 + (i * 97) % 89_999))
            .collect();
        let cities: Vec<(String, usize, usize)> = (0..n_cities)
            .map(|i| (names::place_name(6000 + i), i % n_states, i))
            .collect();
        let streets: Vec<String> = (0..n_streets).map(names::street).collect();

        let persons: Vec<UisPerson> = (0..n)
            .map(|i| {
                let home_street = rng.gen_range(0..n_streets);
                let work_street = loop {
                    let s = rng.gen_range(0..n_streets);
                    if s != home_street {
                        break s;
                    }
                };
                let home_city = rng.gen_range(0..n_cities);
                let birth_city = loop {
                    let c = rng.gen_range(0..n_cities);
                    if c != home_city {
                        break c;
                    }
                };
                UisPerson {
                    name: names::person_name(i),
                    ssn: names::ssn(i),
                    tax_id: names::ssn(i + 500_009),
                    home_street,
                    work_street,
                    home_city,
                    birth_city,
                }
            })
            .collect();

        Self {
            persons,
            streets,
            cities,
            states,
            zips,
        }
    }

    /// The UIS schema.
    pub fn schema() -> Arc<Schema> {
        Schema::new("UIS", &["Name", "SSN", "Address", "City", "State", "Zip"])
    }

    /// The clean relation.
    pub fn clean_relation(&self) -> Relation {
        let mut relation = Relation::new(Self::schema());
        for p in &self.persons {
            let (city_name, state, zip) = &self.cities[p.home_city];
            relation.push_strs(&[
                &p.name,
                &p.ssn,
                &self.streets[p.home_street],
                city_name,
                &self.states[*state],
                &self.zips[*zip],
            ]);
        }
        relation
    }

    /// Builds the KB for `profile`.
    pub fn kb(&self, profile: &KbProfile) -> KnowledgeBase {
        use uis_names::*;
        let mut b = KbBuilder::new();
        let mut rng = StdRng::seed_from_u64(profile.seed);

        let person = b.class(PERSON);
        let street = b.class(STREET);
        let city = b.class(CITY);
        let state = b.class(STATE);
        let zip = b.class(ZIP);
        if profile.flavor == KbFlavor::YagoLike {
            let location = b.class("location");
            let region = b.class("administrative region");
            b.subclass(region, location);
            b.subclass(city, region);
            b.subclass(state, region);
            b.subclass(street, location);
            let agent = b.class("agent");
            b.subclass(person, agent);
        }

        let lives_at = b.pred(LIVES_AT);
        let works_at = b.pred(WORKS_AT);
        let lives_in = b.pred(LIVES_IN);
        let born_in = b.pred(BORN_IN);
        let in_state = b.pred(IN_STATE);
        let born_in_state = b.pred(BORN_IN_STATE);
        let has_zip = b.pred(HAS_ZIP);
        let born_zip = b.pred(BORN_ZIP);
        let has_ssn = b.pred(HAS_SSN);
        let has_tax_id = b.pred(HAS_TAX_ID);

        let state_ids: Vec<_> = self
            .states
            .iter()
            .map(|name| {
                let i = b.instance(name);
                b.set_type(i, state);
                i
            })
            .collect();
        let zip_ids: Vec<_> = self
            .zips
            .iter()
            .map(|z| {
                let i = b.instance(z);
                b.set_type(i, zip);
                i
            })
            .collect();
        let city_ids: Vec<_> = self
            .cities
            .iter()
            .map(|(name, s, z)| {
                let i = b.instance(name);
                b.set_type(i, city);
                b.edge(i, in_state, state_ids[*s]);
                b.edge(i, has_zip, zip_ids[*z]);
                i
            })
            .collect();
        let street_ids: Vec<_> = self
            .streets
            .iter()
            .map(|name| {
                let i = b.instance(name);
                b.set_type(i, street);
                i
            })
            .collect();

        for p in &self.persons {
            let covered = rng.gen_bool(profile.entity_coverage);
            let inst = b.instance(&p.name);
            b.set_type(inst, person);
            if !covered {
                continue;
            }
            let keep = |rng: &mut StdRng| !rng.gen_bool(profile.edge_dropout);
            if keep(&mut rng) {
                b.edge(inst, lives_at, street_ids[p.home_street]);
            }
            if keep(&mut rng) {
                b.edge(inst, works_at, street_ids[p.work_street]);
            }
            if keep(&mut rng) {
                b.edge(inst, lives_in, city_ids[p.home_city]);
            }
            if keep(&mut rng) {
                b.edge(inst, born_in, city_ids[p.birth_city]);
            }
            if keep(&mut rng) {
                let birth_state = self.cities[p.birth_city].1;
                b.edge(inst, born_in_state, state_ids[birth_state]);
            }
            if keep(&mut rng) {
                let birth_zip = self.cities[p.birth_city].2;
                b.edge(inst, born_zip, zip_ids[birth_zip]);
            }
            if keep(&mut rng) {
                let ssn = b.literal(&p.ssn);
                b.edge(inst, has_ssn, ssn);
            }
            if keep(&mut rng) {
                let tax = b.literal(&p.tax_id);
                b.edge(inst, has_tax_id, tax);
            }
        }

        b.finalize().expect("uis taxonomy is acyclic")
    }

    /// The five UIS detective rules against `kb`.
    pub fn rules<'a>(kb: impl Into<dr_kb::KbRef<'a>>) -> Vec<DetectiveRule> {
        use uis_names::*;
        let kb = kb.into();
        let schema = Self::schema();
        let class = |n: &str| NodeType::Class(kb.class_named(n).expect("uis class"));
        let pred = |n: &str| kb.pred_named(n).expect("uis pred");
        let col = |n: &str| schema.attr_expect(n);

        let name_node = node(col("Name"), class(PERSON), SimFn::Equal);
        // Tolerant positives (typo repair), exact negatives (semantic
        // errors are verbatim) — see the Nobel rules for the rationale.
        let city_node = node(col("City"), class(CITY), SimFn::EditDistance(2));
        let city_neg = node(col("City"), class(CITY), SimFn::Equal);

        use RuleNodeRef::{Evidence, Negative, Positive};
        let edge = |from, rel, to| RuleEdge { from, to, rel };

        let ssn_rule = DetectiveRule::new(
            "uis-ssn",
            vec![name_node],
            node(col("SSN"), NodeType::Literal, SimFn::EditDistance(2)),
            node(col("SSN"), NodeType::Literal, SimFn::Equal),
            vec![
                edge(Evidence(0), pred(HAS_SSN), Positive),
                edge(Evidence(0), pred(HAS_TAX_ID), Negative),
            ],
        )
        .expect("ssn rule valid");

        let address_rule = DetectiveRule::new(
            "uis-address",
            vec![name_node],
            node(col("Address"), class(STREET), SimFn::EditDistance(2)),
            node(col("Address"), class(STREET), SimFn::Equal),
            vec![
                edge(Evidence(0), pred(LIVES_AT), Positive),
                edge(Evidence(0), pred(WORKS_AT), Negative),
            ],
        )
        .expect("address rule valid");

        let city_rule = DetectiveRule::new(
            "uis-city",
            vec![name_node],
            city_node,
            city_neg,
            vec![
                edge(Evidence(0), pred(LIVES_IN), Positive),
                edge(Evidence(0), pred(BORN_IN), Negative),
            ],
        )
        .expect("city rule valid");

        let state_node = node(col("State"), class(STATE), SimFn::EditDistance(2));
        let state_neg = node(col("State"), class(STATE), SimFn::Equal);
        let state_rule = DetectiveRule::new(
            "uis-state",
            vec![name_node, city_node],
            state_node,
            state_neg,
            vec![
                edge(Evidence(0), pred(LIVES_IN), Evidence(1)),
                edge(Evidence(1), pred(IN_STATE), Positive),
                edge(Evidence(0), pred(BORN_IN_STATE), Negative),
            ],
        )
        .expect("state rule valid");

        let zip_node = node(col("Zip"), class(ZIP), SimFn::EditDistance(2));
        let zip_neg = node(col("Zip"), class(ZIP), SimFn::Equal);
        let zip_rule = DetectiveRule::new(
            "uis-zip",
            vec![name_node, city_node],
            zip_node,
            zip_neg,
            vec![
                edge(Evidence(0), pred(LIVES_IN), Evidence(1)),
                edge(Evidence(1), pred(HAS_ZIP), Positive),
                edge(Evidence(0), pred(BORN_ZIP), Negative),
            ],
        )
        .expect("zip rule valid");

        vec![address_rule, city_rule, state_rule, zip_rule, ssn_rule]
    }

    /// The dataset-aware semantic-error source.
    pub fn semantic_source(&self) -> UisSemanticSource<'_> {
        UisSemanticSource { world: self }
    }
}

/// Semantic errors for the UIS schema.
pub struct UisSemanticSource<'w> {
    world: &'w UisWorld,
}

impl SemanticSource for UisSemanticSource<'_> {
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
            "SSN" => p.tax_id.clone(),
            "Address" => w.streets[p.work_street].clone(),
            "City" => w.cities[p.birth_city].0.clone(),
            "State" => w.states[w.cities[p.birth_city].1].clone(),
            "Zip" => w.zips[w.cities[p.birth_city].2].clone(),
            "Name" => {
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

    fn small_world() -> UisWorld {
        UisWorld::generate(200, 13)
    }

    #[test]
    fn world_shape() {
        let w = small_world();
        let r = w.clean_relation();
        assert_eq!(r.len(), 200);
        assert_eq!(r.schema().arity(), 6);
        for p in &w.persons {
            assert_ne!(p.home_street, p.work_street);
            assert_ne!(p.home_city, p.birth_city);
            assert_ne!(p.ssn, p.tax_id);
        }
    }

    #[test]
    fn state_and_zip_follow_home_city() {
        let w = small_world();
        let r = w.clean_relation();
        let schema = r.schema().clone();
        for (i, p) in w.persons.iter().enumerate() {
            let (_, state, zip) = w.cities[p.home_city];
            assert_eq!(r.tuple(i).get(schema.attr_expect("State")), w.states[state]);
            assert_eq!(r.tuple(i).get(schema.attr_expect("Zip")), w.zips[zip]);
        }
    }

    #[test]
    fn rules_resolve_on_both_kbs() {
        let w = small_world();
        for profile in [KbProfile::yago(), KbProfile::dbpedia()] {
            let kb = w.kb(&profile);
            assert_eq!(UisWorld::rules(&kb).len(), 5);
        }
    }

    #[test]
    fn rules_are_consistent_on_sample() {
        let w = small_world();
        let kb = w.kb(&KbProfile::yago());
        let rules = UisWorld::rules(&kb);
        let ctx = MatchContext::new(&kb);
        let clean = w.clean_relation();
        let (dirty, _) = inject(&clean, &NoiseSpec::new(0.1, 3), &w.semantic_source());
        let verdict = check_consistency(&ctx, &rules, &dirty, &ApplyOptions::default());
        assert!(verdict.is_consistent(), "{verdict:?}");
    }

    #[test]
    fn repair_recovers_most_errors() {
        let w = small_world();
        let kb = w.kb(&KbProfile::yago());
        let rules = UisWorld::rules(&kb);
        let ctx = MatchContext::new(&kb);
        let clean = w.clean_relation();
        let gt = GroundTruth::new(clean.clone());
        let name_attr = clean.schema().attr_expect("Name");
        let spec = NoiseSpec::new(0.10, 23).with_excluded(vec![name_attr]);
        let (mut dirty, _) = inject(&clean, &spec, &w.semantic_source());
        let before = gt.error_count(&dirty);
        fast_repair(&ctx, &rules, &mut dirty, &ApplyOptions::default());
        let after = gt.error_count(&dirty);
        assert!(
            after * 2 < before,
            "expected most errors repaired: {after} of {before} remain"
        );
    }

    #[test]
    fn dbpedia_recall_is_lower() {
        let w = UisWorld::generate(400, 99);
        let clean = w.clean_relation();
        let gt = GroundTruth::new(clean.clone());
        let name_attr = clean.schema().attr_expect("Name");
        let spec = NoiseSpec::new(0.10, 31).with_excluded(vec![name_attr]);

        let mut remaining = Vec::new();
        for profile in [KbProfile::yago(), KbProfile::dbpedia()] {
            let kb = w.kb(&profile);
            let rules = UisWorld::rules(&kb);
            let ctx = MatchContext::new(&kb);
            let (mut dirty, _) = inject(&clean, &spec, &w.semantic_source());
            fast_repair(&ctx, &rules, &mut dirty, &ApplyOptions::default());
            remaining.push(gt.error_count(&dirty));
        }
        assert!(
            remaining[0] < remaining[1],
            "Yago coverage should repair more: {remaining:?}"
        );
    }
}
