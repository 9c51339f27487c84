//! File-based cleaning CLI: load a knowledge base (triple text), a rule
//! file (the `dr` rule DSL), and a CSV relation; repair; write the cleaned
//! CSV and print a report.
//!
//! ```text
//! cargo run -p dr-examples --bin clean_csv -- <kb.nt> <rules.dr> <in.csv> <out.csv>
//! cargo run -p dr-examples --bin clean_csv -- --demo   # self-contained demo
//! ```
//!
//! `--demo` writes the paper's running example (Figure 1 KB, Figure 4 rules,
//! Table I data) into a temporary directory and cleans it, showing the full
//! file-based workflow end to end.

use dr_core::{
    fast_repair, parse_rules, rules_to_text, ApplyOptions, MatchContext, RuleApplication,
};
use dr_kb::ntriples;
use dr_relation::csv;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (kb_path, rules_path, in_path, out_path) = if args.iter().any(|a| a == "--demo") {
        match write_demo_files() {
            Ok(paths) => paths,
            Err(e) => {
                eprintln!("failed to write demo files: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if args.len() == 4 {
        (
            PathBuf::from(&args[0]),
            PathBuf::from(&args[1]),
            PathBuf::from(&args[2]),
            PathBuf::from(&args[3]),
        )
    } else {
        eprintln!("usage: clean_csv <kb.nt> <rules.dr> <in.csv> <out.csv>  (or --demo)");
        return ExitCode::FAILURE;
    };

    let kb = match ntriples::load_file(&kb_path) {
        Ok(kb) => kb,
        Err(e) => {
            eprintln!("cannot load KB {}: {e}", kb_path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut relation = match csv::load_file(&in_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot load CSV {}: {e}", in_path.display());
            return ExitCode::FAILURE;
        }
    };
    let rule_text = match std::fs::read_to_string(&rules_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read rules {}: {e}", rules_path.display());
            return ExitCode::FAILURE;
        }
    };
    let rules = match parse_rules(&rule_text, relation.schema(), &kb) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot parse rules {}: {e}", rules_path.display());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "loaded KB ({} instances, {} edges), {} rules, {} tuples",
        kb.num_instances(),
        kb.num_edges(),
        rules.len(),
        relation.len()
    );

    let ctx = MatchContext::new(&kb);
    let report = fast_repair(&ctx, &rules, &mut relation, &ApplyOptions::default());

    let mut repairs = 0usize;
    for (row, tuple_report) in report.tuples.iter().enumerate() {
        for step in &tuple_report.steps {
            if let RuleApplication::Repaired { col, old, new, .. } = &step.application {
                repairs += 1;
                println!(
                    "row {}: {} [{}] \"{}\" -> \"{}\"",
                    row + 1,
                    step.rule_name,
                    relation.schema().attr_name(*col),
                    old,
                    new
                );
            }
        }
    }
    println!(
        "applied {} rules total; {repairs} repairs; {} cells marked correct",
        report.total_applications(),
        relation.positive_count()
    );

    if let Err(e) = csv::save_file(&relation, &out_path) {
        eprintln!("cannot write {}: {e}", out_path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", out_path.display());
    ExitCode::SUCCESS
}

/// Writes the running-example KB, rules, and data into a temp directory.
fn write_demo_files() -> std::io::Result<(PathBuf, PathBuf, PathBuf, PathBuf)> {
    let dir = std::env::temp_dir().join("detective-rules-demo");
    std::fs::create_dir_all(&dir)?;
    let kb = dr_kb::fixtures::nobel_mini_kb();
    let schema = dr_core::fixtures::nobel_schema();

    let kb_path = dir.join("nobel.nt");
    ntriples::save_file(&kb, &kb_path)?;

    let rules_path = dir.join("figure4.dr");
    let rules = dr_core::fixtures::figure4_rules(&kb);
    std::fs::write(&rules_path, rules_to_text(&rules, &schema, &kb))?;

    let in_path = dir.join("table1.csv");
    csv::save_file(&dr_core::fixtures::table1_dirty(), &in_path)?;

    let out_path = dir.join("table1.cleaned.csv");
    println!("demo files in {}", dir.display());
    Ok((kb_path, rules_path, in_path, out_path))
}
