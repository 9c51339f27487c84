//! Consistency analysis for rule sets (§III-C).
//!
//! A rule set Σ is consistent w.r.t. a KB when every tuple reaches the same
//! fixpoint(s) under every application order (Church–Rosser). Deciding this
//! for *all* tuples is coNP-complete (Theorem 1), but with the dataset at
//! hand it is PTIME (Corollary 2): a memoized search over each sample
//! tuple's reachable states tries every rule at every state and requires
//! all applicable rules to lead to the same fixpoint set.
//! [`contending_pairs`] lists the rules that repair the same column.

use crate::context::MatchContext;
use crate::repair::budget::BudgetMeter;
use crate::repair::cache::ElementCache;
use crate::repair::multi::versions;
use crate::repair::value_cache::ValueCache;
use crate::rule::apply::{apply_with, ApplyOptions, Scratch};
use crate::rule::DetectiveRule;
use dr_relation::{AttrId, Relation, Tuple};
use std::collections::HashMap;
use std::rc::Rc;

/// A divergence witness: one tuple, two orders, two different fixpoints.
/// From [`check_consistency`], [`basic_repair_tuple`] over the rules in
/// `order_a` reaches `value_a` at `col`, and over `order_b` `value_b`.
///
/// [`basic_repair_tuple`]: crate::repair::basic::basic_repair_tuple
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Row of the offending tuple in the sample relation.
    pub row: usize,
    /// First rule order (indexes into the rule slice).
    pub order_a: Vec<usize>,
    /// Second rule order.
    pub order_b: Vec<usize>,
    /// First column where the two fixpoints differ in value or mark.
    pub col: AttrId,
    /// Fixpoint value under `order_a`.
    pub value_a: String,
    /// Fixpoint value under `order_b`.
    pub value_b: String,
}

/// Result of the consistency check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Consistency {
    /// Every sample tuple reaches the same fixpoint(s) under every order.
    Consistent,
    /// Two orders diverged.
    Inconsistent(Box<Divergence>),
    /// The context's [`RepairBudget`](crate::repair::budget::RepairBudget)
    /// ran out while searching `row`'s states; earlier rows agreed.
    Undecided {
        /// Row of the tuple whose search was cut.
        row: usize,
    },
}

impl Consistency {
    /// Whether the check passed.
    pub fn is_consistent(&self) -> bool {
        matches!(self, Consistency::Consistent)
    }
}

/// Decides, for every tuple of `sample`, whether all orders of `rules`
/// chase it to one fixpoint under [`basic_repair_tuple`]. Exact: each rule
/// fires at most once and marks are never cleared, so the orders'
/// fixpoints are the tuple's reachable terminal states. Each tuple's rule
/// checks charge one meter of the context's budget.
///
/// [`basic_repair_tuple`]: crate::repair::basic::basic_repair_tuple
pub fn check_consistency(
    ctx: &MatchContext<'_>,
    rules: &[DetectiveRule],
    sample: &Relation,
    opts: &ApplyOptions,
) -> Consistency {
    check(ctx, rules, sample, opts, false)
}

/// Multi-version variant of [`check_consistency`]: a multi-version repair
/// leads to one state per candidate (§IV-C), and every applicable rule must
/// lead to the same fixpoint **set** — the paper's "terminate in the same
/// fixpoint(s)" — at every reachable state. That implies the paper's
/// condition at the tuple, where every order gives [`multi_repair_tuple`]
/// the same set, but not conversely: forks can hide each other's
/// differences, and the witness's orders need not replay. Every candidate
/// is followed; [`MultiOptions::max_versions`] does not apply.
///
/// [`multi_repair_tuple`]: crate::repair::multi::multi_repair_tuple
/// [`MultiOptions::max_versions`]: crate::repair::multi::MultiOptions::max_versions
pub fn check_consistency_multi(
    ctx: &MatchContext<'_>,
    rules: &[DetectiveRule],
    sample: &Relation,
    opts: &ApplyOptions,
) -> Consistency {
    check(ctx, rules, sample, opts, true)
}

fn check(
    ctx: &MatchContext<'_>,
    rules: &[DetectiveRule],
    sample: &Relation,
    opts: &ApplyOptions,
    multi: bool,
) -> Consistency {
    let mut scratch = Scratch::default();
    let values = ValueCache::new();
    for (row, tuple) in sample.tuples().iter().enumerate() {
        let mut search = Search {
            ctx,
            rules,
            opts,
            multi,
            scratch: &mut scratch,
            values: &values,
            row,
            meter: ctx.budget().meter(),
            memo: HashMap::new(),
            path: Vec::new(),
        };
        let root = State::new(rules, (**tuple).clone(), 0..rules.len());
        if let Err(verdict) = search.fixpoints(root) {
            return verdict;
        }
    }
    Consistency::Consistent
}

/// A reachable state of one tuple's chase: its cells and marks, plus the
/// rules that can still fire — the unfired ones that would mark a new
/// column (marks are never cleared, so a rule outside the set never fires
/// again).
#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    tuple: Tuple,
    live: Vec<usize>,
}

impl State {
    fn new(rules: &[DetectiveRule], tuple: Tuple, unfired: impl Iterator<Item = usize>) -> Self {
        let live = unfired
            .filter(|&r| rules[r].marked_cols().any(|c| !tuple.is_positive(c)))
            .collect();
        Self { tuple, live }
    }
}

/// One tuple's state search.
struct Search<'a, 'kb> {
    ctx: &'a MatchContext<'kb>,
    rules: &'a [DetectiveRule],
    opts: &'a ApplyOptions,
    /// Follow every candidate of a multi-version repair, not only the first.
    multi: bool,
    scratch: &'a mut Scratch<'kb>,
    /// Element matches by value, shared across the sample.
    values: &'a ValueCache,
    row: usize,
    meter: BudgetMeter,
    /// The sorted fixpoint set of every state searched.
    memo: HashMap<State, Rc<[Tuple]>>,
    /// The rules fired from the tuple to the state being searched.
    path: Vec<usize>,
}

impl Search<'_, '_> {
    /// The fixpoint set `state` reaches, or the verdict that ends the check
    /// when a reachable state's applicable rules lead to different sets.
    fn fixpoints(&mut self, state: State) -> Result<Rc<[Tuple]>, Consistency> {
        if let Some(set) = self.memo.get(&state) {
            return Ok(set.clone());
        }
        let mut first: Option<(usize, Rc<[Tuple]>)> = None;
        // A rule that does not apply leaves the tuple as it was, so every
        // check at this state sees its cells and can share their matches.
        let mut next = state.tuple.clone();
        let mut cache = ElementCache::with_shared(self.values);
        for &r in &state.live {
            let application = apply_with(
                self.ctx,
                &self.rules[r],
                &mut next,
                self.opts,
                &mut cache,
                &self.meter,
                self.scratch,
            )
            .map_err(|_| Consistency::Undecided { row: self.row })?;
            if !application.applied() {
                continue;
            }
            let applied = std::mem::replace(&mut next, state.tuple.clone());
            let successors = if self.multi {
                versions(&state.tuple, applied, &application)
            } else {
                vec![applied]
            };
            self.path.push(r);
            let mut set: Vec<Tuple> = Vec::new();
            for tuple in successors {
                let unfired = state.live.iter().copied().filter(|&q| q != r);
                let successor = State::new(self.rules, tuple, unfired);
                set.extend(self.fixpoints(successor)?.iter().cloned());
            }
            self.path.pop();
            set.sort_unstable();
            set.dedup();
            match &first {
                Some((r1, set1)) if **set1 != set[..] => {
                    let witness = self.witness(*r1, set1, r, &set);
                    return Err(Consistency::Inconsistent(Box::new(witness)));
                }
                Some(_) => {}
                None => first = Some((r, set.into())),
            }
        }
        let set = first.map_or_else(|| Rc::from([state.tuple.clone()]), |(_, set)| set);
        self.memo.insert(state, set.clone());
        Ok(set)
    }

    /// The witness of rules `r1` and `r2` leading the current state to the
    /// fixpoint sets `a` and `b`: each order is the path here, then the
    /// rule, then the rest ascending. The values come from a fixpoint only
    /// `a` reaches and one only `b` reaches, or from a side's first
    /// fixpoint where it has none of its own.
    fn witness(&self, r1: usize, a: &[Tuple], r2: usize, b: &[Tuple]) -> Divergence {
        let order = |r: usize| -> Vec<usize> {
            let rest = (0..self.rules.len()).filter(|q| *q != r && !self.path.contains(q));
            self.path.iter().copied().chain([r]).chain(rest).collect()
        };
        let only_a = a.iter().find(|t| !b.contains(t));
        let only_b = b.iter().find(|t| !a.contains(t));
        let (x, y) = (only_a.unwrap_or(&a[0]), only_b.unwrap_or(&b[0]));
        let col = (0..x.arity())
            .map(AttrId::from_index)
            .find(|&c| x.get(c) != y.get(c) || x.is_positive(c) != y.is_positive(c))
            .expect("distinct fixpoints differ in a cell or a mark");
        Divergence {
            row: self.row,
            order_a: order(r1),
            order_b: order(r2),
            col,
            value_a: x.get(col).to_owned(),
            value_b: y.get(col).to_owned(),
        }
    }
}

/// Static analysis: pairs of rules that repair the same column. Such pairs
/// deserve review, but the list only hints: rules also interact through
/// the cells they normalize and mark, and only [`check_consistency`]
/// decides whether an order changes a fixpoint on the data.
pub fn contending_pairs(rules: &[DetectiveRule]) -> Vec<(usize, usize, AttrId)> {
    let mut out = Vec::new();
    for i in 0..rules.len() {
        for j in i + 1..rules.len() {
            if rules[i].repair_col() == rules[j].repair_col() {
                out.push((i, j, rules[i].repair_col()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure4_rules, nobel_schema, table1_dirty};
    use crate::repair::basic::basic_repair_tuple;
    use crate::repair::budget::RepairBudget;
    use crate::rule::text::parse_rules;
    use dr_kb::fixtures::nobel_mini_kb;
    use dr_kb::KnowledgeBase;

    /// φ2's mirror: City is where the laureate was born (positive), not
    /// where their institution is (negative). With φ2 (City = lives-at) it
    /// makes a textbook inconsistent pair.
    fn born_city(kb: &KnowledgeBase) -> DetectiveRule {
        let text = r#"rule born-city {
            evidence e0: Name type "Nobel laureates in Chemistry" sim =;
            evidence e1: Institution type "organization" sim ED,2;
            positive p: City type "city" sim =;
            negative n: City type "city" sim =;
            edge e0 -[worksAt]-> e1;
            edge e0 -[wasBornIn]-> p;
            edge e1 -[locatedIn]-> n;
        }"#;
        parse_rules(text, &nobel_schema(), kb).unwrap().remove(0)
    }

    /// `basic_repair_tuple` over the witness's two orders reaches its two
    /// values.
    fn assert_witness_replays(ctx: &MatchContext<'_>, rules: &[DetectiveRule], d: &Divergence) {
        let sample = table1_dirty();
        for (order, value) in [(&d.order_a, &d.value_a), (&d.order_b, &d.value_b)] {
            let reordered: Vec<_> = order.iter().map(|&i| rules[i].clone()).collect();
            let mut t = sample.tuple(d.row).clone();
            basic_repair_tuple(ctx, &reordered, &mut t, &ApplyOptions::default());
            assert_eq!(t.get(d.col), value, "order {order:?}");
        }
    }

    #[test]
    fn figure4_rules_are_consistent_on_table1() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let verdict = check_consistency(&ctx, &rules, &table1_dirty(), &ApplyOptions::default());
        assert_eq!(verdict, Consistency::Consistent);
    }

    /// Two rules with opposite City semantics (lives-at vs born-in) diverge
    /// on r1 depending on order: a textbook inconsistent pair.
    #[test]
    fn opposite_semantics_detected_as_inconsistent() {
        let kb = nobel_mini_kb();
        let pair = vec![figure4_rules(&kb)[1].clone(), born_city(&kb)];
        assert_eq!(contending_pairs(&pair).len(), 1);

        let ctx = MatchContext::new(&kb);
        let verdict = check_consistency(&ctx, &pair, &table1_dirty(), &ApplyOptions::default());
        match verdict {
            Consistency::Inconsistent(d) => {
                assert_eq!(nobel_schema().attr_name(d.col), "City");
                assert_ne!(d.value_a, d.value_b);
                assert_eq!(d.row, 0, "diverges on Avram Hershko");
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    /// The witness's orders reproduce its values through the basic chase.
    #[test]
    fn witness_replays_through_basic_repair() {
        let kb = nobel_mini_kb();
        let pair = vec![figure4_rules(&kb)[1].clone(), born_city(&kb)];
        let ctx = MatchContext::new(&kb);
        let verdict = check_consistency(&ctx, &pair, &table1_dirty(), &ApplyOptions::default());
        let Consistency::Inconsistent(d) = verdict else {
            panic!("expected divergence, got {verdict:?}");
        };
        assert_witness_replays(&ctx, &pair, &d);
    }

    /// On Table I, `[φ2, φ1, born-city, φ2]` in its own order and in
    /// reverse reach the same fixpoints; other orders diverge, and the
    /// search finds one.
    #[test]
    fn divergence_outside_the_sampled_orders_is_found() {
        let kb = nobel_mini_kb();
        let fig4 = figure4_rules(&kb);
        let rules = vec![
            fig4[1].clone(),
            fig4[0].clone(),
            born_city(&kb),
            fig4[1].clone(),
        ];
        let ctx = MatchContext::new(&kb);
        let verdict = check_consistency(&ctx, &rules, &table1_dirty(), &ApplyOptions::default());
        let Consistency::Inconsistent(d) = verdict else {
            panic!("expected divergence, got {verdict:?}");
        };
        assert_witness_replays(&ctx, &rules, &d);
    }

    /// A step budget too small for one instance search leaves the first
    /// tuple undecided, deterministically.
    #[test]
    fn exhausted_budget_is_undecided() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb).with_budget(RepairBudget::with_max_steps(1));
        let opts = ApplyOptions::default();
        for check in [check_consistency, check_consistency_multi] {
            let verdict = check(&ctx, &rules, &table1_dirty(), &opts);
            assert_eq!(verdict, Consistency::Undecided { row: 0 });
        }
    }

    /// Multi-version consistency: all four rules agree on the fixpoint SET
    /// for every Table-I tuple — including Calvin's two versions.
    #[test]
    fn figure4_rules_are_multi_consistent() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let verdict =
            check_consistency_multi(&ctx, &rules, &table1_dirty(), &ApplyOptions::default());
        assert_eq!(verdict, Consistency::Consistent);
    }

    #[test]
    fn multi_checker_catches_the_same_divergence() {
        let kb = nobel_mini_kb();
        let pair = [figure4_rules(&kb)[1].clone(), born_city(&kb)];
        let ctx = MatchContext::new(&kb);
        let verdict =
            check_consistency_multi(&ctx, &pair, &table1_dirty(), &ApplyOptions::default());
        assert!(
            matches!(verdict, Consistency::Inconsistent(_)),
            "{verdict:?}"
        );
    }

    #[test]
    fn single_rule_is_trivially_consistent() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let verdict =
            check_consistency(&ctx, &rules[..1], &table1_dirty(), &ApplyOptions::default());
        assert!(verdict.is_consistent());
    }

    #[test]
    fn contending_pairs_on_distinct_columns_is_empty() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        assert!(contending_pairs(&rules).is_empty());
    }
}
