//! Fuzzing the JSON relation-body loader on the bytes a request can carry:
//! every input loads or fails with a typed `JsonError`, and never panics.
//! Header-shaped bodies draw column names from a tiny alphabet so repeated
//! names are common; a repeat must be an offset-0 error, not a panic.
//!
//! `dr-serve` carries no property-testing dependency, so the inputs come
//! from a fixed-seed splitmix64 stream: the same cases run every time.

use dr_kb::LenientOptions;
use dr_serve::json::parse_lenient_bytes;

/// splitmix64: a tiny, well-mixed deterministic generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

fn load(bytes: &[u8]) -> Result<usize, dr_obs::json::JsonError> {
    let result =
        std::panic::catch_unwind(|| parse_lenient_bytes("R", bytes, &LenientOptions::default()));
    let loaded = result.unwrap_or_else(|_| panic!("loader panicked on {bytes:?}"));
    loaded.map(|(relation, _)| relation.schema().arity())
}

#[test]
fn arbitrary_bytes_load_or_fail_typed() {
    // Raw bytes, then near-miss documents spliced from JSON fragments.
    const FRAGMENTS: [&str; 16] = [
        "[",
        "]",
        "{",
        "}",
        "\"",
        ",",
        ":",
        "\"A\"",
        "\"header\":",
        "\"rows\":",
        "1e400",
        "null",
        "\\u",
        "\u{FEFF}",
        " ",
        "\u{1}",
    ];
    let mut rng = Rng(0x5EED);
    for _ in 0..2000 {
        let raw: Vec<u8> = (0..rng.below(96)).map(|_| rng.next() as u8).collect();
        let spliced: String = (0..rng.below(24)).map(|_| rng.pick(&FRAGMENTS)).collect();
        for bytes in [raw.as_slice(), spliced.as_bytes()] {
            if let Err(e) = load(bytes) {
                assert!(e.offset <= bytes.len(), "{e} on {bytes:?}");
            }
        }
    }
}

#[test]
fn header_shaped_bodies_load_iff_names_are_distinct() {
    const NAMES: [&str; 6] = ["a", "b", "aa", "ab", "ba", "bb"];
    let mut rng = Rng(0xC0FFEE);
    let (mut loaded, mut refused) = (0, 0);
    for _ in 0..2000 {
        let names: Vec<&str> = (0..1 + rng.below(4)).map(|_| rng.pick(&NAMES)).collect();
        let distinct = names
            .iter()
            .enumerate()
            .all(|(i, n)| !names[..i].contains(n));
        let header = format!("[\"{}\"]", names.join("\",\""));
        let body = if rng.below(2) == 0 {
            format!("[{header},[\"x\"],[]]")
        } else {
            format!("{{\"header\":{header},\"rows\":[[1,null]]}}")
        };
        match load(body.as_bytes()) {
            Ok(arity) => {
                assert!(distinct, "{body} loaded");
                assert_eq!(arity, names.len());
                loaded += 1;
            }
            Err(e) => {
                assert!(!distinct, "{body}: {e}");
                assert_eq!(e.offset, 0);
                assert!(e.message.starts_with("duplicate attribute"), "{e}");
                refused += 1;
            }
        }
    }
    assert!(
        loaded > 0 && refused > 0,
        "{loaded} loaded, {refused} refused"
    );
}
