//! Fuzzing the workspace's one JSON reader (`dr_obs::json::parse`): any
//! input parses or fails with a typed error whose offset lies inside the
//! input; rendered objects round-trip; and nesting is capped at
//! `MAX_DEPTH`, so a hostile body of brackets is an error, not a stack
//! overflow.

use dr_obs::json::{parse, JsonError, JsonObj, JsonValue, MAX_DEPTH};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Grammar fragments, valid and broken, that random sequences splice into
/// near-miss documents.
const TOKENS: [&str; 30] = [
    "[", "]", "{", "}", "\"", ":", ",", " ", "\n", "0", "17", "-", ".", "e", "E+", "true", "fals",
    "null", "\\", "\\n", "\\u", "\\u00e9", "\\ud83d", "\\ude00", "00", "x", "é", "🦀", "\u{1}",
    "\"k\":",
];

fn check(text: &str) -> Result<(), TestCaseError> {
    if let Err(JsonError { offset, message }) = parse(text) {
        prop_assert!(
            offset <= text.len(),
            "offset {offset} past the end of {text:?}"
        );
        prop_assert!(!message.is_empty());
    }
    Ok(())
}

fn nest(openers: &[bool]) -> String {
    let mut text = String::new();
    for &array in openers {
        text.push_str(if array { "[" } else { "{\"k\":" });
    }
    text.push('0');
    for &array in openers.iter().rev() {
        text.push(if array { ']' } else { '}' });
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary UTF-8 (control characters and all) never panics.
    #[test]
    fn arbitrary_text_is_a_value_or_a_typed_error(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        check(&String::from_utf8_lossy(&bytes))?;
    }

    /// Near-miss documents reach deep into the grammar: escapes,
    /// surrogates, numbers, literals and unbalanced brackets.
    #[test]
    fn near_miss_documents_are_values_or_typed_errors(
        tokens in prop::collection::vec(0usize..TOKENS.len(), 0..40),
    ) {
        let text: String = tokens.iter().map(|&t| TOKENS[t]).collect();
        check(&text)?;
    }

    /// Every line the object builder renders parses back to exactly the
    /// key and values that went in.
    #[test]
    fn builder_lines_round_trip(
        key in prop::collection::vec(any::<u8>(), 0..24),
        value in prop::collection::vec(any::<u8>(), 0..48),
        n in any::<u64>(),
    ) {
        let key = String::from_utf8_lossy(&key).into_owned();
        let value = String::from_utf8_lossy(&value).into_owned();
        let line = JsonObj::new().str(&key, &value).num("n", n).finish();
        prop_assert_eq!(
            parse(&line),
            Ok(JsonValue::Object(vec![
                (key, JsonValue::Str(value)),
                ("n".to_owned(), JsonValue::Num(n.to_string())),
            ]))
        );
        prop_assert_eq!(parse(&line).ok().and_then(|v| v.get("n")?.as_u64()), Some(n));
    }

    /// Mixed array/object nesting parses up to `MAX_DEPTH` and fails at
    /// the first opener past it.
    #[test]
    fn nesting_parses_to_max_depth_and_no_further(
        openers in prop::collection::vec(any::<bool>(), MAX_DEPTH - 2..MAX_DEPTH + 3),
    ) {
        let text = nest(&openers);
        match parse(&text) {
            Ok(_) => prop_assert!(openers.len() <= MAX_DEPTH),
            Err(e) => {
                prop_assert!(openers.len() > MAX_DEPTH);
                let offset: usize = openers[..MAX_DEPTH]
                    .iter()
                    .map(|&array| if array { 1 } else { 5 })
                    .sum();
                prop_assert_eq!(e.offset, offset);
            }
        }
    }
}

#[test]
fn hostile_depths_are_typed_errors() {
    for depth in [MAX_DEPTH + 1, 8_000, 100_000] {
        for array in [true, false] {
            let err = parse(&nest(&vec![array; depth])).expect_err("over-deep document");
            assert_eq!(
                err.message,
                format!("nesting deeper than {MAX_DEPTH}"),
                "depth {depth}"
            );
        }
    }
    assert!(parse(&nest(&[true; MAX_DEPTH])).is_ok());
    let err = parse(&nest(&[true; MAX_DEPTH + 1])).unwrap_err();
    assert_eq!(
        err.to_string(),
        format!("json error at byte {MAX_DEPTH}: nesting deeper than {MAX_DEPTH}")
    );
    // Unclosed openers fail at the cap too, before the missing closers.
    assert!(parse(&"[".repeat(200_000)).is_err());
}
