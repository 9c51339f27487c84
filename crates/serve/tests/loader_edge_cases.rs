//! Byte-level edge cases for the JSON relation-body loader: a leading
//! UTF-8 BOM and trailing CRLF or empty lines are artifacts of the writing
//! tool, not malformed data — they must load to the same relation with an
//! empty quarantine. The CSV loader's twins live in `dr-relation`.

use dr_kb::LenientOptions;
use dr_relation::Relation;
use dr_serve::json;

fn attr_names(rel: &Relation) -> Vec<String> {
    rel.schema().attrs().map(|(_, n)| n.to_owned()).collect()
}

const JSON_CLEAN: &str =
    r#"{"header":["Name","City"],"rows":[["Ada","London"],["Grace","Arlington"]]}"#;

fn json_variants() -> Vec<(String, &'static str)> {
    vec![
        (format!("\u{FEFF}{JSON_CLEAN}"), "BOM"),
        (format!("{JSON_CLEAN}\r\n"), "trailing CRLF"),
        (
            format!("\u{FEFF}{JSON_CLEAN}\r\n\r\n"),
            "BOM + trailing empty CRLF lines",
        ),
        (format!("{JSON_CLEAN}\n\n"), "trailing empty lines"),
    ]
}

#[test]
fn json_bom_and_line_ending_variants_load_clean() {
    let (clean, q0) = json::parse_lenient("R", JSON_CLEAN, &LenientOptions::default())
        .expect("clean json parses");
    assert!(q0.is_empty());
    for (text, label) in json_variants() {
        let (rel, q) = json::parse_lenient("R", &text, &LenientOptions::default())
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(q.is_empty(), "{label}: {q}");
        assert_eq!(attr_names(&rel), attr_names(&clean), "{label}");
        assert_eq!(rel.len(), clean.len(), "{label}");
        for (a, b) in rel.tuples().iter().zip(clean.tuples()) {
            assert_eq!(a.cells(), b.cells(), "{label}");
        }
    }
}

#[test]
fn json_bytes_twin_handles_bom() {
    let bytes = format!("\u{FEFF}{JSON_CLEAN}").into_bytes();
    let (rel, q) =
        json::parse_lenient_bytes("R", &bytes, &LenientOptions::default()).expect("parse");
    assert!(q.is_empty(), "{q}");
    assert_eq!(rel.len(), 2);
}

#[test]
fn json_mid_document_bom_is_still_an_error() {
    // Only a leading BOM is tolerated; one inside the document is not
    // whitespace and must still fail like any stray character.
    let text = "{\u{FEFF}}".to_owned();
    assert!(json::parse_lenient("R", &text, &LenientOptions::default()).is_err());
}
