//! Fuzzing the N-Triples loader on the bytes an upload or a file can carry:
//! every input loads or fails with a typed [`LoadError`], and never panics.
//! Triple-shaped lines draw their terms from a tiny alphabet, so reserved
//! predicates, class prefixes, escapes and taxonomy cycles are common.

use dr_kb::ntriples::{self, LoadError};
use dr_kb::LenientOptions;
use proptest::prelude::*;

/// Term shapes of a triple-shaped line: IRIs, class IRIs, the reserved
/// predicates, literals, and near misses of each. `{}` takes a short name.
const TERMS: [&str; 10] = [
    "<{}>",
    "<class:{}>",
    "<rdf:type>",
    "<rdfs:subClassOf>",
    "\"{}\"",
    "\"{}\\\"",
    "\"\\{}\"",
    "<{}",
    "{}",
    "<class:a>",
];

/// Line endings: the closing `.`, none, two, and a trailing comment.
const TAILS: [&str; 4] = [".", "", ". .", ". # c"];

/// Names over a tiny alphabet, with the `_` and `%` the label codec reads.
const NAME: &str = "[ab_%]{0,2}";

fn term((shape, name): &(usize, String)) -> String {
    TERMS[*shape].replace("{}", name)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_load_or_fail_typed(
        bytes in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        match ntriples::parse_lenient_bytes(&bytes, &LenientOptions::default()) {
            Ok(_) => prop_assert!(std::str::from_utf8(&bytes).is_ok()),
            // Only the encoding or the finished taxonomy can fail the load:
            // malformed lines are quarantined, not raised.
            Err(LoadError::Io(e)) => {
                prop_assert!(std::str::from_utf8(&bytes).is_err(), "{e}");
            }
            Err(LoadError::Kb(_)) => {}
            Err(e @ LoadError::Parse(_)) => prop_assert!(false, "lenient load raised {e}"),
        }
    }

    #[test]
    fn triple_shaped_lines_load_or_fail_typed(
        lines in prop::collection::vec(
            ((0..TERMS.len(), NAME), (0..TERMS.len(), NAME), (0..TERMS.len(), NAME), 0..TAILS.len()),
            0..6,
        ),
    ) {
        let text = lines
            .iter()
            .map(|(s, p, o, tail)| format!("{} {} {} {}", term(s), term(p), term(o), TAILS[*tail]))
            .collect::<Vec<_>>()
            .join("\n");
        match ntriples::parse(&text) {
            Ok(kb) => {
                // A loaded KB serializes to text that loads back to itself.
                let once = ntriples::serialize(&kb);
                let again = ntriples::parse(&once).map(|kb| ntriples::serialize(&kb));
                prop_assert_eq!(again.ok(), Some(once), "{}", text);
            }
            Err(LoadError::Parse(e)) => {
                prop_assert!(e.line >= 1 && e.line <= lines.len(), "{e}");
            }
            Err(LoadError::Kb(_)) => {}
            Err(e @ LoadError::Io(_)) => prop_assert!(false, "strict parse raised {e}"),
        }
    }
}
