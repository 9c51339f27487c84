//! Fuzzing the lenient CSV loader on the bytes a request body can carry:
//! every input loads or fails with a typed header error, and never panics.
//! Header-shaped inputs draw column names from a tiny alphabet so repeated
//! names are common; a repeat must be a record-1 error, not a panic.

use dr_kb::LenientOptions;
use dr_relation::csv;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_load_or_fail_typed(
        bytes in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        if let Err(e) = csv::parse_lenient_bytes("R", &bytes, &LenientOptions::default()) {
            // Only the body's encoding (record 0) or its header can fail.
            prop_assert!(e.record <= 1, "{e}");
        }
    }

    #[test]
    fn header_shaped_bytes_load_iff_names_are_distinct(
        names in prop::collection::vec("[ab]{1,2}", 1..5),
        rows in prop::collection::vec("[ab,\"\n]{0,8}", 0..4),
    ) {
        let text = format!("{}\n{}", names.join(","), rows.join("\n"));
        let distinct = names
            .iter()
            .enumerate()
            .all(|(i, n)| !names[..i].contains(n));
        match csv::parse_lenient_bytes("R", text.as_bytes(), &LenientOptions::default()) {
            Ok((relation, _)) => {
                prop_assert!(distinct, "{names:?} loaded");
                prop_assert_eq!(relation.schema().arity(), names.len());
            }
            Err(e) => {
                prop_assert!(!distinct, "{names:?}: {e}");
                prop_assert_eq!(e.record, 1);
                prop_assert!(e.message.starts_with("duplicate attribute"), "{e}");
            }
        }
    }
}
