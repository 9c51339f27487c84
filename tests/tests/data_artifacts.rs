//! Pins the committed artifacts. The running example's KB, rules, and
//! table under `data/` must stay loadable and must clean end to end, exactly
//! like `clean_csv` consumes them. The quality rows EXPERIMENTS.md quotes
//! must equal the committed `results/` tables they were copied from.

use dr_core::fast_repair;
use dr_core::{parse_rules, ApplyOptions, MatchContext};
use dr_kb::ntriples;
use dr_relation::csv;
use std::path::PathBuf;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("workspace root")
        .to_path_buf()
}

fn data(file: &str) -> PathBuf {
    root().join("data").join(file)
}

#[test]
fn committed_artifacts_clean_table1() {
    let kb = ntriples::load_file(data("figure1.nt")).expect("figure1.nt loads");
    assert_eq!(kb.num_instances(), 28);

    let mut relation = csv::load_file(data("table1.csv")).expect("table1.csv loads");
    assert_eq!(relation.len(), 4);
    assert_eq!(relation.schema().arity(), 6);

    let rule_text = std::fs::read_to_string(data("figure4.dr")).expect("figure4.dr reads");
    let rules = parse_rules(&rule_text, relation.schema(), &kb).expect("figure4.dr parses");
    assert_eq!(rules.len(), 4);

    let ctx = MatchContext::new(&kb);
    let report = fast_repair(&ctx, &rules, &mut relation, &ApplyOptions::default());
    assert!(report.total_changes() >= 6, "Table I has repairs to make");

    // The cleaned table matches the published corrections.
    let clean = dr_core::fixtures::table1_clean();
    for (row, expect) in clean.tuples().iter().enumerate() {
        assert_eq!(
            relation.tuple(row).cells(),
            expect.cells(),
            "row {row} diverges from Table I's bracketed corrections"
        );
    }
}

#[test]
fn committed_rules_roundtrip_through_the_dsl() {
    let kb = ntriples::load_file(data("figure1.nt")).unwrap();
    let schema = dr_core::fixtures::nobel_schema();
    let text = std::fs::read_to_string(data("figure4.dr")).unwrap();
    let rules = parse_rules(&text, &schema, &kb).unwrap();
    let rendered = dr_core::rules_to_text(&rules, &schema, &kb);
    let back = parse_rules(&rendered, &schema, &kb).unwrap();
    assert_eq!(rules.len(), back.len());
    for (a, b) in rules.iter().zip(&back) {
        assert_eq!(a.edges(), b.edges());
        assert_eq!(a.evidence(), b.evidence());
    }
}

/// A text table: header names and rows of trimmed cells.
struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Header row, separator row, then body rows up to the first line
    /// `is_row` rejects.
    fn parse<'a>(mut lines: impl Iterator<Item = &'a str>, is_row: impl Fn(&str) -> bool) -> Self {
        let header = cells(lines.next().expect("header row"));
        lines.next().expect("separator row");
        let rows = lines.take_while(|l| is_row(l)).map(cells).collect();
        Table { header, rows }
    }

    fn col(&self, name: &str) -> usize {
        self.header
            .iter()
            .position(|h| h == name)
            .unwrap_or_else(|| panic!("no column {name:?} in {:?}", self.header))
    }

    /// The one row whose cells under `key` columns equal `values`.
    fn row(&self, key: &[&str], values: &[&str]) -> &[String] {
        let cols: Vec<usize> = key.iter().map(|k| self.col(k)).collect();
        let mut hits = self
            .rows
            .iter()
            .filter(|r| cols.iter().zip(values).all(|(&c, v)| r[c] == *v));
        let row = hits
            .next()
            .unwrap_or_else(|| panic!("no committed row {values:?}"));
        assert!(hits.next().is_none(), "several committed rows {values:?}");
        row
    }
}

/// The cells of a `|`-separated line, trimmed and with markdown bold
/// stripped.
fn cells(line: &str) -> Vec<String> {
    line.trim()
        .trim_matches('|')
        .split('|')
        .map(|c| c.trim().replace("**", ""))
        .collect()
}

/// The table titled `title` (a prefix of its title line) in
/// `results/<file>`.
fn committed(file: &str, title: &str) -> Table {
    let path = root().join("results").join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    let mut lines = text.lines().skip_while(|l| !l.starts_with(title));
    lines
        .next()
        .unwrap_or_else(|| panic!("{file} has no table {title:?}"));
    Table::parse(lines, |l| !l.trim().is_empty())
}

/// The first markdown table in the EXPERIMENTS.md section whose heading
/// starts with `heading`.
fn quoted(heading: &str) -> Table {
    let text = std::fs::read_to_string(root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let mut lines = text.lines().skip_while(|l| !l.starts_with(heading));
    lines
        .next()
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no section {heading:?}"));
    let section = lines.take_while(|l| !l.starts_with("## "));
    Table::parse(section.skip_while(|l| !l.starts_with('|')), |l| {
        l.starts_with('|')
    })
}

/// Asserts `mismatches` is empty, naming each quoted cell that differs.
fn assert_no_mismatch(what: &str, mismatches: Vec<String>) {
    assert!(
        mismatches.is_empty(),
        "EXPERIMENTS.md {what} disagrees with results/:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn quoted_table3_rows_equal_committed_rows() {
    let doc = quoted("## Table III");
    let file = committed("table3.txt", "TABLE III.");
    assert_eq!(
        doc.rows.len(),
        file.rows.len(),
        "every Table III row is quoted"
    );
    let key = ["dataset", "method", "KB"];
    let mut mismatches = Vec::new();
    for row in &doc.rows {
        let id = [row[0].as_str(), row[1].as_str(), row[2].as_str()];
        let committed = file.row(&key, &id);
        for (quoted, column) in [
            ("P", "Precision"),
            ("R", "Recall"),
            ("F", "F-measure"),
            ("#-POS", "#-POS"),
        ] {
            let (q, c) = (&row[doc.col(quoted)], &committed[file.col(column)]);
            if q != c {
                mismatches.push(format!("{id:?} {quoted}: quoted {q}, committed {c}"));
            }
        }
    }
    assert_no_mismatch("Table III", mismatches);
}

/// A figure table quoted as one row per x value and one column per
/// method, each cell the committed `metric` of that (x, method) row.
fn assert_pivot_matches(heading: &str, file: &str, title: &str, x: &str, metric: &str) {
    let doc = quoted(heading);
    let table = committed(file, title);
    assert!(!doc.rows.is_empty(), "{heading} quotes rows");
    let mut mismatches = Vec::new();
    for row in &doc.rows {
        let at = format!("{}%", row[0]);
        for (col, quoted) in doc.header.iter().zip(row).skip(1) {
            let method = col.strip_suffix(" R").unwrap_or(col);
            let committed = &table.row(&[x, "method"], &[&at, method])[table.col(metric)];
            if quoted != committed {
                mismatches.push(format!(
                    "{at} {method}: quoted {quoted}, committed {committed}"
                ));
            }
        }
    }
    assert_no_mismatch(heading, mismatches);
}

#[test]
fn quoted_fig6_uis_rows_equal_committed_rows() {
    assert_pivot_matches(
        "## Figure 6",
        "fig6.txt",
        "FIGURE 6 (b,d,f).",
        "error rate",
        "F-measure",
    );
}

#[test]
fn quoted_fig7_uis_rows_equal_committed_rows() {
    assert_pivot_matches(
        "## Figure 7",
        "fig7.txt",
        "FIGURE 7 (b,d,f).",
        "typo rate",
        "Recall",
    );
}

#[test]
fn quoted_coverage_rows_equal_committed_rows() {
    let doc = quoted("## Extra: KB-coverage sweep");
    let file = committed("coverage.txt", "KB ENTITY COVERAGE");
    assert!(!doc.rows.is_empty(), "the coverage sweep quotes rows");
    let mut mismatches = Vec::new();
    for row in &doc.rows {
        // "75% (≈ DBpedia profile)" quotes the 75% row.
        let at = row[0].split_whitespace().next().expect("coverage cell");
        let committed = file.row(&["coverage"], &[at]);
        for (quoted, column) in [("P", "Precision"), ("R", "Recall"), ("F", "F-measure")] {
            let (q, c) = (&row[doc.col(quoted)], &committed[file.col(column)]);
            if q != c {
                mismatches.push(format!("{at} {quoted}: quoted {q}, committed {c}"));
            }
        }
    }
    assert_no_mismatch("KB-coverage sweep", mismatches);
}
