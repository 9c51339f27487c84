//! JSON relation bodies — the request-body twin of [`dr_relation::csv`].
//!
//! `POST /v1/repair/{kb}` accepts relations as JSON as well as CSV. Two
//! shapes load, both mirroring the CSV convention that the first record is
//! the header:
//!
//! ```json
//! [["City", "Country"], ["Haifa", "Israel"]]
//! {"header": ["City", "Country"], "rows": [["Haifa", "Israel"]]}
//! ```
//!
//! Cells are strings; numbers keep their source text, booleans render as
//! `true`/`false`, and `null` is the empty string, so numeric columns load
//! without quoting gymnastics. Ragged rows are quarantined under the same
//! [`LenientOptions`] policy the CSV loader uses — the header is not
//! negotiable. The document itself is read by [`dr_obs::json::parse`], the
//! workspace's one JSON reader.

use dr_kb::{Diagnostic, LenientOptions, Quarantine};
use dr_obs::json::{JsonError, JsonValue};
use dr_relation::{Relation, Schema, Tuple};

/// A shape-level failure: valid JSON that is not a relation.
fn shape_err(message: impl Into<String>) -> JsonError {
    JsonError {
        offset: 0,
        message: message.into(),
    }
}

/// The cell text a scalar coerces to, or `None` for arrays/objects.
fn as_cell(value: &JsonValue) -> Option<String> {
    match value {
        JsonValue::Null => Some(String::new()),
        JsonValue::Bool(b) => Some(b.to_string()),
        JsonValue::Num(text) | JsonValue::Str(text) => Some(text.clone()),
        JsonValue::Array(_) | JsonValue::Object(_) => None,
    }
}

/// Extracts `(header, rows)` from a parsed relation body: either a bare
/// array whose first element is the header, or an object with `header` and
/// `rows` keys.
fn relation_shape(value: JsonValue) -> Result<(Vec<String>, Vec<JsonValue>), JsonError> {
    let (header, rows) = match value {
        JsonValue::Array(mut items) => {
            if items.is_empty() {
                return Err(shape_err("missing header record"));
            }
            let header = items.remove(0);
            (header, items)
        }
        JsonValue::Object(mut fields) => {
            // First occurrence wins, as in `JsonValue::get`; unknown keys
            // are ignored, like CSV comments.
            let mut take = |key: &str| {
                let i = fields.iter().position(|(k, _)| k == key)?;
                Some(fields.swap_remove(i).1)
            };
            let header = take("header").ok_or_else(|| shape_err("missing \"header\" key"))?;
            let rows = match take("rows").ok_or_else(|| shape_err("missing \"rows\" key"))? {
                JsonValue::Array(items) => items,
                _ => return Err(shape_err("\"rows\" must be an array")),
            };
            (header, rows)
        }
        _ => return Err(shape_err("relation body must be an array or object")),
    };
    let JsonValue::Array(cells) = header else {
        return Err(shape_err("header must be an array"));
    };
    let header = cells
        .iter()
        .map(|c| as_cell(c).ok_or_else(|| shape_err("header cells must be scalars")))
        .collect::<Result<Vec<_>, _>>()?;
    if header.is_empty() {
        return Err(shape_err("header must not be empty"));
    }
    Ok((header, rows))
}

/// Parses a JSON relation body leniently: rows that are not arrays, have
/// the wrong arity, or hold non-scalar cells are quarantined (with their
/// 1-based row number) instead of aborting — the JSON twin of
/// [`dr_relation::csv::parse_lenient`]. One leading UTF-8 BOM is skipped.
///
/// # Errors
/// Malformed JSON, or a missing, invalid or repeated-name header, fails
/// the whole load, as in CSV: the header defines the schema and is not
/// negotiable.
pub fn parse_lenient(
    name: &str,
    text: &str,
    opts: &LenientOptions,
) -> Result<(Relation, Quarantine), JsonError> {
    let (header, rows) = relation_shape(dr_obs::json::parse(dr_kb::strip_bom(text))?)?;
    let attr_names: Vec<&str> = header.iter().map(String::as_str).collect();
    let schema = Schema::try_new(name, &attr_names).map_err(shape_err)?;
    let arity = schema.arity();
    let mut relation = Relation::new(schema);
    let mut quarantine = Quarantine::new();
    for (i, row) in rows.into_iter().enumerate() {
        let message = match row {
            JsonValue::Array(cells) if cells.len() == arity => {
                match cells.iter().map(as_cell).collect::<Option<Vec<_>>>() {
                    Some(values) => {
                        relation.push(Tuple::new(values));
                        continue;
                    }
                    None => "row holds a non-scalar cell".to_owned(),
                }
            }
            JsonValue::Array(cells) => format!("expected {arity} cells, found {}", cells.len()),
            _ => "row is not an array".to_owned(),
        };
        quarantine.record(
            Diagnostic {
                line: i + 1,
                message,
            },
            opts,
        );
    }
    Ok((relation, quarantine))
}

/// Byte-level twin of [`parse_lenient`], for request bodies.
///
/// # Errors
/// Invalid UTF-8 is a [`JsonError`] at the first bad byte; otherwise as
/// [`parse_lenient`].
pub fn parse_lenient_bytes(
    name: &str,
    bytes: &[u8],
    opts: &LenientOptions,
) -> Result<(Relation, Quarantine), JsonError> {
    let text = std::str::from_utf8(bytes).map_err(|e| JsonError {
        offset: e.valid_up_to(),
        message: format!("body is not UTF-8: {e}"),
    })?;
    parse_lenient(name, text, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(text: &str) -> (Relation, Quarantine) {
        parse_lenient("R", text, &LenientOptions::default()).expect("parse")
    }

    fn schema_names(rel: &Relation) -> Vec<String> {
        rel.schema().attrs().map(|(_, n)| n.to_owned()).collect()
    }

    #[test]
    fn array_shape_loads_with_first_row_as_header() {
        let (rel, q) = parse_ok(r#"[["City","Country"],["Haifa","Israel"],["Oslo","Norway"]]"#);
        assert!(q.is_empty());
        assert_eq!(schema_names(&rel), ["City", "Country"]);
        assert_eq!(rel.len(), 2);
        let city = rel.schema().attr_expect("City");
        assert_eq!(rel.tuple(1).get(city), "Oslo");
    }

    #[test]
    fn object_shape_loads_header_and_rows() {
        let (rel, q) =
            parse_ok(r#"{"header": ["A", "B"], "rows": [["1", "2"]], "note": "ignored"}"#);
        assert!(q.is_empty());
        assert_eq!(schema_names(&rel), ["A", "B"]);
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn scalar_cells_coerce_to_text() {
        let (rel, q) = parse_ok(r#"[["N","F","B","Z","E"],[42,1.5,true,null,1e400]]"#);
        assert!(q.is_empty());
        let t = rel.tuple(0);
        let s = rel.schema();
        assert_eq!(t.get(s.attr_expect("N")), "42");
        assert_eq!(t.get(s.attr_expect("F")), "1.5");
        assert_eq!(t.get(s.attr_expect("B")), "true");
        assert_eq!(t.get(s.attr_expect("Z")), "");
        assert_eq!(t.get(s.attr_expect("E")), "1e400", "numbers load verbatim");
    }

    #[test]
    fn ragged_and_nonarray_rows_are_quarantined() {
        let (rel, q) = parse_ok(r#"[["A","B"],["x"],["x","y"],"noise",["x",["nested"]]]"#);
        assert_eq!(rel.len(), 1, "only the well-shaped row loads");
        assert_eq!(q.quarantined(), 3);
        assert!(q.diagnostics()[0].message.contains("expected 2 cells"));
        assert!(q.diagnostics()[1].message.contains("not an array"));
        assert!(q.diagnostics()[2].message.contains("non-scalar"));
        assert_eq!(q.diagnostics()[0].line, 1);
    }

    #[test]
    fn string_escapes_round_trip() {
        let (rel, _) = parse_ok(r#"[["A"],["tab\tquote\"slash\\uAsur😀"]]"#);
        let a = rel.schema().attr_expect("A");
        assert_eq!(rel.tuple(0).get(a), "tab\tquote\"slash\\uAsur😀");
    }

    #[test]
    fn header_failures_abort_the_load() {
        let opts = LenientOptions::default();
        for bad in [
            "[]",
            "[[]]",
            "{\"rows\": []}",
            "{\"header\": [\"A\"]}",
            "\"just a string\"",
            "[[\"A\"],", // malformed JSON
            "[[\"A\",\"A\"],[\"x\",\"y\"]]",
        ] {
            assert!(parse_lenient("R", bad, &opts).is_err(), "{bad:?}");
        }
        let err = parse_lenient("R", "[[\"A\",\"A\"],[\"x\",\"y\"]]", &opts).unwrap_err();
        assert_eq!(err.offset, 0);
        assert_eq!(err.message, "duplicate attribute `A`");
    }

    #[test]
    fn byte_entry_rejects_invalid_utf8() {
        let err = parse_lenient_bytes("R", &[0xFF, 0xFE], &LenientOptions::default())
            .expect_err("invalid UTF-8 accepted");
        assert!(err.message.contains("UTF-8"));
    }
}
