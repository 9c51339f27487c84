//! Multi-version repairs (§IV-C).
//!
//! When a rule finds several valid repairs for one error — Melvin Calvin
//! worked at both the University of Manchester and UC Berkeley — the repair
//! forks: each candidate continues independently, and every branch is chased
//! to its own fixpoint. All branches mark the same attributes positive and
//! differ only in the repaired column(s).

use crate::context::MatchContext;
use crate::rule::apply::{apply_rule, ApplyOptions, RuleApplication};
use crate::rule::DetectiveRule;
use dr_relation::Tuple;

/// Options for multi-version repair.
#[derive(Debug, Clone)]
pub struct MultiOptions {
    /// Rule-application options.
    pub apply: ApplyOptions,
    /// Upper bound on produced versions; branches beyond it are dropped
    /// (deterministically — candidates fork in sorted order).
    pub max_versions: usize,
}

impl Default for MultiOptions {
    fn default() -> Self {
        Self {
            apply: ApplyOptions::default(),
            max_versions: 64,
        }
    }
}

/// Chases `tuple` to **all** fixpoints under `rules`, forking on
/// multi-version repairs. Returns the distinct fixpoints (sorted by cell
/// values for determinism).
pub fn multi_repair_tuple(
    ctx: &MatchContext<'_>,
    rules: &[DetectiveRule],
    tuple: &Tuple,
    opts: &MultiOptions,
) -> Vec<Tuple> {
    let mut out: Vec<Tuple> = Vec::new();
    let remaining: Vec<usize> = (0..rules.len()).collect();
    chase(ctx, rules, opts, tuple.clone(), remaining, &mut out);
    out.sort_by(|a, b| a.cells().cmp(b.cells()));
    out.dedup();
    out
}

fn chase(
    ctx: &MatchContext<'_>,
    rules: &[DetectiveRule],
    opts: &MultiOptions,
    t: Tuple,
    mut remaining: Vec<usize>,
    out: &mut Vec<Tuple>,
) {
    let fired = remaining.iter().enumerate().find_map(|(pos, &ri)| {
        let mut probe = t.clone();
        let application = apply_rule(ctx, &rules[ri], &mut probe, &opts.apply);
        application.applied().then_some((pos, probe, application))
    });
    let Some((pos, probe, application)) = fired else {
        // Fixpoint.
        if out.len() < opts.max_versions {
            out.push(t);
        }
        return;
    };
    remaining.remove(pos);
    for branch in versions(&t, probe, &application) {
        if out.len() >= opts.max_versions {
            return;
        }
        chase(ctx, rules, opts, branch, remaining.clone(), out);
    }
}

/// The states one rule application leads to: `applied`, the tuple after
/// the application (holding the first candidate), then for a
/// multi-version repair one state per further candidate, in sorted
/// candidate order, replaying the application's normalizations, repair and
/// marks on `before`, the tuple it was applied to.
pub(crate) fn versions(
    before: &Tuple,
    applied: Tuple,
    application: &RuleApplication,
) -> Vec<Tuple> {
    let mut out = vec![applied];
    if let RuleApplication::Repaired {
        col,
        candidates,
        newly_marked,
        normalized,
        ..
    } = application
    {
        for extra in candidates.iter().skip(1) {
            let mut branch = before.clone();
            for n in normalized {
                if !branch.is_positive(n.col) {
                    branch.set(n.col, n.new.clone());
                }
            }
            branch.set(*col, extra.clone());
            for &c in newly_marked {
                branch.mark_positive(c);
            }
            out.push(branch);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure4_rules, nobel_schema, table1_dirty};
    use dr_kb::fixtures::nobel_mini_kb;

    /// Example 10: r4 (Melvin Calvin) reaches exactly two fixpoints.
    #[test]
    fn example10_two_fixpoints_for_r4() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let schema = nobel_schema();
        let r4 = table1_dirty().tuple(3).clone();

        let versions = multi_repair_tuple(&ctx, &rules, &r4, &MultiOptions::default());
        assert_eq!(versions.len(), 2, "Example 10 produces r4³ and r4⁴");

        let inst = schema.attr_expect("Institution");
        let city = schema.attr_expect("City");
        let country = schema.attr_expect("Country");

        // Sorted by cells: Berkeley variant first ("UC Berkeley" < "University …").
        assert_eq!(versions[0].get(inst), "UC Berkeley");
        assert_eq!(versions[0].get(city), "Berkeley");
        assert_eq!(versions[1].get(inst), "University of Manchester");
        assert_eq!(versions[1].get(city), "Manchester");
        for v in &versions {
            assert_eq!(v.get(country), "United States");
            // Example 10: every attribute ends positive in both versions.
            assert_eq!(v.positive_count(), 6, "fully marked: {v:?}");
        }
    }

    /// A tuple with single-version repairs yields exactly one fixpoint,
    /// identical to the basic chase.
    #[test]
    fn single_version_matches_basic() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let r1 = table1_dirty().tuple(0).clone();

        let versions = multi_repair_tuple(&ctx, &rules, &r1, &MultiOptions::default());
        assert_eq!(versions.len(), 1);

        let mut basic = r1.clone();
        crate::repair::basic::basic_repair_tuple(
            &ctx,
            &rules,
            &mut basic,
            &ApplyOptions::default(),
        );
        assert_eq!(versions[0], basic);
    }

    /// The version cap truncates forking deterministically.
    #[test]
    fn version_cap_respected() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let r4 = table1_dirty().tuple(3).clone();
        let opts = MultiOptions {
            max_versions: 1,
            ..Default::default()
        };
        let versions = multi_repair_tuple(&ctx, &rules, &r4, &opts);
        assert_eq!(versions.len(), 1);
    }

    /// An unmatched tuple yields itself, untouched.
    #[test]
    fn unmatched_tuple_passes_through() {
        let kb = nobel_mini_kb();
        let rules = figure4_rules(&kb);
        let ctx = MatchContext::new(&kb);
        let t = Tuple::from_strs(&["X", "Y", "Z", "W", "V", "U"]);
        let versions = multi_repair_tuple(&ctx, &rules, &t, &MultiOptions::default());
        assert_eq!(versions, vec![t]);
    }
}
