//! Nobel cleaning: the paper's §V workflow on the full synthetic Nobel
//! dataset — generate the world, inject the paper's noise model, verify
//! rule-set consistency, repair against both KB flavors, and score against
//! ground truth. Exits with status 1 unless the rule set is consistent on
//! every dirty tuple under both KB flavors.
//!
//! Run with: `cargo run -p dr-examples --bin nobel_cleaning --release`

use dr_core::rule::consistency::{check_consistency, Consistency};
use dr_core::{fast_repair, ApplyOptions, MatchContext};
use dr_datasets::{nobel::PAPER_SIZE, KbFlavor, KbProfile, NobelWorld};
use dr_eval::{evaluate, evaluate_per_column, fmt_quality, RepairExtras};
use dr_relation::noise::{inject, NoiseSpec};

fn main() {
    let world = NobelWorld::generate(PAPER_SIZE, 2017);
    let clean = world.clean_relation();
    println!(
        "generated Nobel world: {} laureates, {} institutions, {} cities, {} countries",
        world.persons.len(),
        world.institutions.len(),
        world.cities.len(),
        world.countries.len()
    );

    // The paper's noise model: e = 10%, half typos / half semantic errors.
    let name_attr = clean.schema().attr_expect("Name");
    let spec = NoiseSpec::new(0.10, 7).with_excluded(vec![name_attr]);
    let (dirty, log) = inject(&clean, &spec, &world.semantic_source());
    println!(
        "injected {} errors ({} typos, {} semantic)",
        log.len(),
        log.iter()
            .filter(|e| e.kind == dr_relation::ErrorKind::Typo)
            .count(),
        log.iter()
            .filter(|e| e.kind == dr_relation::ErrorKind::Semantic)
            .count(),
    );

    for flavor in [KbFlavor::YagoLike, KbFlavor::DbpediaLike] {
        let kb = world.kb(&KbProfile::of(flavor));
        let rules = NobelWorld::rules(&kb);
        let ctx = MatchContext::new(&kb);

        // §III-C: check the rule set is consistent on the data before
        // trusting it.
        let start = std::time::Instant::now();
        let verdict = check_consistency(&ctx, &rules, &dirty, &ApplyOptions::default());
        println!(
            "\n[{}] KB: {kb:?}\n[{}] rule set consistency on {} rows: {verdict:?} in {:.1?}",
            flavor.label(),
            flavor.label(),
            dirty.len(),
            start.elapsed()
        );
        if verdict != Consistency::Consistent {
            eprintln!(
                "[{}] rule set is not consistent; not repairing",
                flavor.label()
            );
            std::process::exit(1);
        }

        let mut repaired = dirty.clone();
        let start = std::time::Instant::now();
        let report = fast_repair(&ctx, &rules, &mut repaired, &ApplyOptions::default());
        let elapsed = start.elapsed();
        let extras = RepairExtras::from_report(&report);
        let quality = evaluate(&clean, &dirty, &repaired, &extras);
        println!(
            "[{}] fRepair: {} in {:.1?}; marked {} cells positive",
            flavor.label(),
            fmt_quality(&quality),
            elapsed,
            repaired.positive_count()
        );
        for (column, q) in evaluate_per_column(&clean, &dirty, &repaired, &extras) {
            println!(
                "[{}]   {:<12} P={:.2} R={:.2} ({} errors)",
                flavor.label(),
                column,
                q.precision,
                q.recall,
                q.errors
            );
        }
    }
}
