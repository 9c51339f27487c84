//! Minimal RFC-4180-style CSV reading and writing for relations.
//!
//! Supports quoted fields with embedded commas, quotes (doubled), and
//! newlines. The first record is the header and becomes the schema.

use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use dr_kb::{Diagnostic, LenientOptions, Quarantine};
use std::fmt;
use std::sync::Arc;

/// CSV parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// 1-based record number (header = 1).
    pub record: usize,
    /// Description of the failure.
    pub message: String,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "csv record {}: {}", self.record, self.message)
    }
}

impl std::error::Error for CsvError {}

/// A streaming record scanner over CSV text.
///
/// Both the strict and the lenient parse drive this one lexer: the strict
/// path aborts on the first `Err`, the lenient path quarantines it and
/// keeps scanning — [`scan_next`](Self::scan_next) leaves the input
/// positioned after the malformed record, so the grammars cannot drift
/// apart.
struct RecordScanner<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    /// Number of the record currently being scanned (1-based; both emitted
    /// and quarantined records consume a number).
    record_no: usize,
}

impl<'a> RecordScanner<'a> {
    fn new(text: &'a str) -> Self {
        // A UTF-8 BOM would otherwise glue itself to the first header
        // field name; Excel and friends emit one routinely.
        let text = dr_kb::strip_bom(text);
        Self {
            chars: text.chars().peekable(),
            record_no: 1,
        }
    }

    /// The record number [`scan_next`](Self::scan_next) just returned.
    fn last_record_no(&self) -> usize {
        self.record_no - 1
    }

    /// Skips input up to and including the next bare `\n` — the recovery
    /// point after a malformed record. Quote state is deliberately not
    /// tracked here: the record is already known broken, so its quoting
    /// cannot be trusted; resynchronizing on the next physical line keeps
    /// damage bounded to (at worst) a few cascading diagnostics.
    fn skip_to_newline(&mut self) {
        for ch in self.chars.by_ref() {
            if ch == '\n' {
                break;
            }
        }
    }

    /// Scans the next record: `None` at end of input, `Ok(fields)` for a
    /// well-formed record, `Err` for a malformed one (input is left at its
    /// recovery point). Blank lines are skipped, and a trailing newline
    /// does not produce a phantom empty record.
    fn scan_next(&mut self) -> Option<Result<Vec<String>, CsvError>> {
        let mut fields: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut in_quotes = false;
        let mut record_started = false;
        let record = self.record_no;

        while let Some(ch) = self.chars.next() {
            if in_quotes {
                match ch {
                    '"' => {
                        if self.chars.peek() == Some(&'"') {
                            self.chars.next();
                            field.push('"');
                        } else {
                            in_quotes = false;
                        }
                    }
                    _ => field.push(ch),
                }
                continue;
            }
            match ch {
                '"' => {
                    if !field.is_empty() {
                        self.skip_to_newline();
                        self.record_no += 1;
                        return Some(Err(CsvError {
                            record,
                            message: "quote inside unquoted field".into(),
                        }));
                    }
                    in_quotes = true;
                    record_started = true;
                }
                ',' => {
                    fields.push(std::mem::take(&mut field));
                    record_started = true;
                }
                '\r' => {
                    // Swallow; \r\n handled by the \n branch.
                }
                '\n' => {
                    if record_started || !field.is_empty() || !fields.is_empty() {
                        fields.push(field);
                        self.record_no += 1;
                        return Some(Ok(fields));
                    }
                    // Blank line: keep scanning.
                }
                _ => {
                    field.push(ch);
                    record_started = true;
                }
            }
        }
        if in_quotes {
            self.record_no += 1;
            return Some(Err(CsvError {
                record,
                message: "unterminated quoted field".into(),
            }));
        }
        if record_started || !field.is_empty() || !fields.is_empty() {
            fields.push(field);
            self.record_no += 1;
            return Some(Ok(fields));
        }
        None
    }
}

/// Splits CSV text into records of fields.
fn parse_records(text: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let mut scanner = RecordScanner::new(text);
    let mut records = Vec::new();
    while let Some(record) = scanner.scan_next() {
        records.push(record?);
    }
    Ok(records)
}

/// The schema a header record defines; a repeated name fails the header.
fn header_schema(name: &str, header: &[String]) -> Result<Arc<Schema>, CsvError> {
    let attr_names: Vec<&str> = header.iter().map(String::as_str).collect();
    Schema::try_new(name, &attr_names).map_err(|message| CsvError { record: 1, message })
}

/// Parses CSV text into a relation named `name`. The first record is the
/// header.
///
/// # Errors
/// Fails on malformed CSV, a missing or repeated-name header, or ragged
/// rows.
pub fn parse(name: &str, text: &str) -> Result<Relation, CsvError> {
    let records = parse_records(text)?;
    let mut iter = records.into_iter();
    let header = iter.next().ok_or(CsvError {
        record: 1,
        message: "missing header record".into(),
    })?;
    let schema = header_schema(name, &header)?;
    let arity = schema.arity();
    let mut relation = Relation::new(schema);
    for (i, record) in iter.enumerate() {
        if record.len() != arity {
            return Err(CsvError {
                record: i + 2,
                message: format!("expected {arity} fields, found {}", record.len()),
            });
        }
        relation.push(Tuple::new(record));
    }
    Ok(relation)
}

/// Parses CSV text into a relation leniently: malformed and ragged records
/// are quarantined (skipped, with a [`Diagnostic`] carrying the 1-based
/// record number and the strict parser's message) instead of aborting.
///
/// Well-formed records load exactly as under [`parse`]. The header is not
/// negotiable — it defines the schema, so a missing or malformed first
/// record fails the whole load just as in strict mode.
///
/// # Errors
/// Only a missing or malformed header record, or one that repeats a
/// column name.
pub fn parse_lenient(
    name: &str,
    text: &str,
    opts: &LenientOptions,
) -> Result<(Relation, Quarantine), CsvError> {
    let mut scanner = RecordScanner::new(text);
    let header = match scanner.scan_next() {
        None => {
            return Err(CsvError {
                record: 1,
                message: "missing header record".into(),
            })
        }
        Some(Err(e)) => return Err(e),
        Some(Ok(fields)) => fields,
    };
    let schema = header_schema(name, &header)?;
    let arity = schema.arity();
    let mut relation = Relation::new(schema);
    let mut quarantine = Quarantine::new();
    while let Some(record) = scanner.scan_next() {
        match record {
            Ok(fields) if fields.len() == arity => relation.push(Tuple::new(fields)),
            Ok(fields) => quarantine.record(
                Diagnostic {
                    line: scanner.last_record_no(),
                    message: format!("expected {arity} fields, found {}", fields.len()),
                },
                opts,
            ),
            Err(e) => quarantine.record(
                Diagnostic {
                    line: e.record,
                    message: e.message,
                },
                opts,
            ),
        }
    }
    Ok((relation, quarantine))
}

/// Parses raw CSV bytes (an HTTP request body, a socket read) into a
/// relation leniently — the byte-level twin of [`parse_lenient`], for
/// callers that never had a path or a `&str` to begin with.
///
/// # Errors
/// Invalid UTF-8 is reported as a record-0 [`CsvError`] naming the byte
/// offset; header failures as in [`parse_lenient`].
pub fn parse_lenient_bytes(
    name: &str,
    bytes: &[u8],
    opts: &LenientOptions,
) -> Result<(Relation, Quarantine), CsvError> {
    let text = std::str::from_utf8(bytes).map_err(|e| CsvError {
        record: 0,
        message: format!("body is not UTF-8: {e}"),
    })?;
    parse_lenient(name, text, opts)
}

/// Loads a relation from a CSV file leniently (see [`parse_lenient`]); the
/// relation is named after the file stem.
///
/// # Errors
/// I/O failures (record 0) and header failures only.
pub fn load_file_lenient(
    path: impl AsRef<std::path::Path>,
    opts: &LenientOptions,
) -> Result<(Relation, Quarantine), CsvError> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("relation")
        .to_owned();
    let text = std::fs::read_to_string(path).map_err(|e| CsvError {
        record: 0,
        message: format!("io error: {e}"),
    })?;
    parse_lenient(&name, &text, opts)
}

/// Loads a relation from a CSV file; the relation is named after the file
/// stem.
///
/// # Errors
/// I/O failures and malformed CSV are both reported as [`CsvError`] (I/O
/// errors use record 0).
pub fn load_file(path: impl AsRef<std::path::Path>) -> Result<Relation, CsvError> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("relation")
        .to_owned();
    let text = std::fs::read_to_string(path).map_err(|e| CsvError {
        record: 0,
        message: format!("io error: {e}"),
    })?;
    parse(&name, &text)
}

/// Writes a relation to a CSV file (see [`serialize`]).
///
/// # Errors
/// Propagates I/O failures.
pub fn save_file(relation: &Relation, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    std::fs::write(path, serialize(relation))
}

fn needs_quoting(field: &str) -> bool {
    field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r')
}

fn write_field(out: &mut String, field: &str) {
    if needs_quoting(field) {
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Serializes a relation to CSV text (header + rows). Marks are not encoded.
pub fn serialize(relation: &Relation) -> String {
    let mut out = String::new();
    let schema = relation.schema();
    for (i, (_, name)) in schema.attrs().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_field(&mut out, name);
    }
    out.push('\n');
    for tuple in relation.tuples() {
        for (i, cell) in tuple.cells().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_field(&mut out, cell);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_simple() {
        let r = parse(
            "Nobel",
            "Name,City\nAvram Hershko,Karcag\nMarie Curie,Paris\n",
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.schema().arity(), 2);
        let city = r.schema().attr_expect("City");
        assert_eq!(r.tuple(1).get(city), "Paris");
    }

    #[test]
    fn quoted_fields() {
        let r = parse("R", "A,B\n\"x, y\",\"say \"\"hi\"\"\"\n").unwrap();
        let a = r.schema().attr_expect("A");
        let b = r.schema().attr_expect("B");
        assert_eq!(r.tuple(0).get(a), "x, y");
        assert_eq!(r.tuple(0).get(b), "say \"hi\"");
    }

    #[test]
    fn embedded_newline_in_quotes() {
        let r = parse("R", "A\n\"line1\nline2\"\n").unwrap();
        let a = r.schema().attr_expect("A");
        assert_eq!(r.tuple(0).get(a), "line1\nline2");
    }

    #[test]
    fn crlf_line_endings() {
        let r = parse("R", "A,B\r\n1,2\r\n").unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn ragged_row_rejected() {
        let err = parse("R", "A,B\n1\n").unwrap_err();
        assert_eq!(err.record, 2);
    }

    #[test]
    fn unterminated_quote_rejected() {
        assert!(parse("R", "A\n\"oops\n").is_err());
    }

    #[test]
    fn empty_text_rejected() {
        assert!(parse("R", "").is_err());
    }

    #[test]
    fn no_trailing_newline_ok() {
        let r = parse("R", "A\nlast").unwrap();
        let a = r.schema().attr_expect("A");
        assert_eq!(r.tuple(0).get(a), "last");
    }

    #[test]
    fn empty_fields_preserved() {
        let r = parse("R", "A,B,C\n,,\n").unwrap();
        assert_eq!(r.tuple(0).cells(), &["", "", ""]);
    }

    #[test]
    fn file_roundtrip_uses_stem_as_name() {
        let r = parse("X", "A,B\n1,2\n").unwrap();
        let path = std::env::temp_dir().join("dr_relation_roundtrip.csv");
        save_file(&r, &path).unwrap();
        let back = load_file(&path).unwrap();
        assert_eq!(back.schema().name(), "dr_relation_roundtrip");
        assert_eq!(back.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_reports_io() {
        let err = load_file("/nonexistent/missing.csv").unwrap_err();
        assert_eq!(err.record, 0);
        assert!(err.message.contains("io error"));
    }

    /// Interleaved malformed records: the lenient parse loads every good
    /// row, quarantines each bad one with its record number and the strict
    /// message — and the strict parser still rejects the same input.
    #[test]
    fn lenient_parse_quarantines_interleaved_garbage() {
        let text = "\
Name,City
Avram Hershko,Karcag
only-one-field
Marie Curie,Paris
bad\"quote,x
a,b,c
Albert Einstein,Ulm
";
        let opts = LenientOptions::default();
        let (r, quarantine) = parse_lenient("Nobel", text, &opts).unwrap();

        assert_eq!(r.len(), 3);
        let city = r.schema().attr_expect("City");
        assert_eq!(r.tuple(0).get(city), "Karcag");
        assert_eq!(r.tuple(1).get(city), "Paris");
        assert_eq!(r.tuple(2).get(city), "Ulm");

        assert_eq!(quarantine.quarantined(), 3);
        let got: Vec<(usize, &str)> = quarantine
            .diagnostics()
            .iter()
            .map(|d| (d.line, d.message.as_str()))
            .collect();
        assert_eq!(
            got,
            vec![
                (3, "expected 2 fields, found 1"),
                (5, "quote inside unquoted field"),
                (6, "expected 2 fields, found 3"),
            ]
        );

        // Strict still rejects: it lexes the whole text before arity
        // checks, so its first error is the quote failure at record 5.
        let err = parse("Nobel", text).unwrap_err();
        assert_eq!(err.record, 5);
        assert_eq!(err.message, "quote inside unquoted field");
    }

    /// An unterminated quote at EOF quarantines the remainder instead of
    /// failing the load.
    #[test]
    fn lenient_parse_quarantines_unterminated_quote() {
        let text = "A,B\n1,2\n\"oops,3\n4,5\n";
        let (r, quarantine) = parse_lenient("R", text, &LenientOptions::default()).unwrap();
        // The open quote swallows everything to EOF; only the row before it
        // survives.
        assert_eq!(r.len(), 1);
        assert_eq!(quarantine.quarantined(), 1);
        assert_eq!(quarantine.diagnostics()[0].line, 3);
        assert_eq!(
            quarantine.diagnostics()[0].message,
            "unterminated quoted field"
        );
        assert!(parse("R", text).is_err(), "strict still rejects");
    }

    /// Lenient and strict agree exactly on clean input.
    #[test]
    fn lenient_parse_is_strict_on_clean_input() {
        let text = "A,B\n\"x, y\",\"say \"\"hi\"\"\"\nplain,row\n";
        let strict = parse("R", text).unwrap();
        let (lenient, quarantine) = parse_lenient("R", text, &LenientOptions::default()).unwrap();
        assert!(quarantine.is_empty());
        assert_eq!(serialize(&strict), serialize(&lenient));
    }

    /// The header is not negotiable: a missing or malformed first record
    /// fails the lenient load too.
    #[test]
    fn lenient_parse_requires_valid_header() {
        let err = parse_lenient("R", "", &LenientOptions::default()).unwrap_err();
        assert_eq!(err.record, 1);
        assert_eq!(err.message, "missing header record");

        let err = parse_lenient("R", "bad\"header\n1,2\n", &LenientOptions::default()).unwrap_err();
        assert_eq!(err.record, 1);
        assert_eq!(err.message, "quote inside unquoted field");

        let err = parse_lenient("R", "A,A\nx,y\n", &LenientOptions::default()).unwrap_err();
        assert_eq!(err.record, 1);
        assert_eq!(err.message, "duplicate attribute `A`");
        assert_eq!(parse("R", "A,A\nx,y\n").unwrap_err().record, 1);
    }

    /// The diagnostic cap bounds retained diagnostics, not the count.
    #[test]
    fn lenient_parse_enforces_diagnostic_cap() {
        let mut text = String::from("A,B\n");
        for _ in 0..10 {
            text.push_str("ragged\n");
        }
        text.push_str("ok,row\n");
        let opts = LenientOptions { max_diagnostics: 4 };
        let (r, quarantine) = parse_lenient("R", &text, &opts).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(quarantine.quarantined(), 10);
        assert_eq!(quarantine.diagnostics().len(), 4);
        assert_eq!(quarantine.dropped(), 6);
    }

    #[test]
    fn lenient_file_roundtrip() {
        let path = std::env::temp_dir().join("dr_relation_lenient.csv");
        std::fs::write(&path, "A,B\n1,2\nragged\n").unwrap();
        let (r, quarantine) = load_file_lenient(&path, &LenientOptions::default()).unwrap();
        assert_eq!(r.schema().name(), "dr_relation_lenient");
        assert_eq!(r.len(), 1);
        assert_eq!(quarantine.quarantined(), 1);
        std::fs::remove_file(&path).ok();
    }

    proptest! {
        /// Lenient parsing never changes what loads from *clean* text: it
        /// returns exactly the strict result with an empty quarantine.
        #[test]
        fn lenient_equals_strict_on_serialized_relations(
            rows in prop::collection::vec(
                prop::collection::vec("[a-z,\"\n ]{0,8}", 2..=2),
                0..6,
            ),
        ) {
            let schema = Schema::new("R", &["A", "B"]);
            let mut rel = Relation::new(schema);
            for row in &rows {
                rel.push(Tuple::new(row.clone()));
            }
            let text = serialize(&rel);
            let strict = parse("R", &text).unwrap();
            let (lenient, quarantine) =
                parse_lenient("R", &text, &LenientOptions::default()).unwrap();
            prop_assert!(quarantine.is_empty());
            prop_assert_eq!(serialize(&strict), serialize(&lenient));
        }
    }

    proptest! {
        #[test]
        fn roundtrip(
            rows in prop::collection::vec(
                prop::collection::vec("[a-z,\"\n ]{0,8}", 2..=2),
                0..6,
            ),
        ) {
            let schema = Schema::new("R", &["A", "B"]);
            let mut rel = Relation::new(schema);
            for row in &rows {
                rel.push(Tuple::new(row.clone()));
            }
            let text = serialize(&rel);
            let back = parse("R", &text).unwrap();
            prop_assert_eq!(back.len(), rel.len());
            for (i, row) in rows.iter().enumerate() {
                prop_assert_eq!(back.tuple(i).cells(), row.as_slice());
            }
        }
    }
}
