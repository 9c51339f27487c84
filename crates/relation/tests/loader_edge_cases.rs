//! Byte-level edge cases for the lenient CSV relation loader: CRLF line
//! endings, a leading UTF-8 BOM, and trailing empty lines are artifacts of
//! the writing tool, not malformed data — they must load to the same
//! relation with an empty quarantine, and the BOM must never end up glued
//! to the first attribute name. The JSON loader's twins live with it in
//! `dr-serve`.

use dr_kb::LenientOptions;
use dr_relation::{csv, Relation};

const CSV_CLEAN: &str = "Name,City\nAda,London\nGrace,Arlington\n";

fn csv_load(text: &str) -> (Relation, dr_kb::Quarantine) {
    csv::parse_lenient("R", text, &LenientOptions::default()).expect("parse")
}

fn attr_names(rel: &Relation) -> Vec<String> {
    rel.schema().attrs().map(|(_, n)| n.to_owned()).collect()
}

fn assert_same_csv(text: &str, label: &str) {
    let (clean, _) = csv_load(CSV_CLEAN);
    let (rel, q) = csv_load(text);
    assert!(q.is_empty(), "{label}: quarantine should be empty: {q}");
    assert_eq!(attr_names(&rel), attr_names(&clean), "{label}: header");
    assert_eq!(rel.len(), clean.len(), "{label}: row count");
    for (a, b) in rel.tuples().iter().zip(clean.tuples()) {
        assert_eq!(a.cells(), b.cells(), "{label}: rows");
    }
}

#[test]
fn csv_crlf_line_endings_load_clean() {
    assert_same_csv(&CSV_CLEAN.replace('\n', "\r\n"), "CRLF");
}

#[test]
fn csv_utf8_bom_does_not_corrupt_first_attr() {
    let (rel, q) = csv_load(&format!("\u{FEFF}{CSV_CLEAN}"));
    assert!(q.is_empty(), "{q}");
    assert_eq!(
        attr_names(&rel),
        vec!["Name".to_owned(), "City".to_owned()],
        "BOM must not be glued to the first header field"
    );
    assert_same_csv(&format!("\u{FEFF}{CSV_CLEAN}"), "BOM");
}

#[test]
fn csv_bom_plus_crlf_combine() {
    assert_same_csv(
        &format!("\u{FEFF}{}", CSV_CLEAN.replace('\n', "\r\n")),
        "BOM+CRLF",
    );
}

#[test]
fn csv_trailing_newline_variants_load_clean() {
    assert_same_csv(CSV_CLEAN.trim_end(), "no trailing newline");
    assert_same_csv(&format!("{CSV_CLEAN}\n"), "empty trailing line");
    assert_same_csv(
        &format!("{}\r\n", CSV_CLEAN.replace('\n', "\r\n")),
        "empty trailing CRLF line",
    );
}

#[test]
fn csv_strict_parser_gets_the_same_treatment() {
    let rel = csv::parse("R", &format!("\u{FEFF}{}", CSV_CLEAN.replace('\n', "\r\n")))
        .expect("strict parse");
    assert_eq!(attr_names(&rel), vec!["Name".to_owned(), "City".to_owned()]);
    assert_eq!(rel.len(), 2);
}

#[test]
fn csv_lenient_bytes_handles_bom_and_crlf() {
    let bytes = format!("\u{FEFF}{}", CSV_CLEAN.replace('\n', "\r\n")).into_bytes();
    let (rel, q) =
        csv::parse_lenient_bytes("R", &bytes, &LenientOptions::default()).expect("parse");
    assert!(q.is_empty(), "{q}");
    assert_eq!(rel.len(), 2);
}
