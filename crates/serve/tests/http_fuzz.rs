//! Fuzzing the HTTP request-head parser on the bytes a peer can send:
//! every input parses to a request, to "no request" (`Ok(None)`), or to an
//! `HttpError` with one of the statuses the parser documents, and never
//! panics. Request-shaped heads draw methods, targets, versions, header
//! names and values from a tiny alphabet, so duplicate, signed, huge and
//! conflicting `content-length`s, transfer codings and bare line endings
//! are common.
//!
//! `dr-serve` carries no property-testing dependency, so the inputs come
//! from a fixed-seed splitmix64 stream: the same cases run every time.

use std::io::{BufReader, Cursor};

use dr_serve::http::{read_request, HttpError, Request, MAX_BODY_BYTES};

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

/// Parses `bytes` twice — from one buffer, and through a 7-byte
/// `BufReader` so lines straddle refills — and requires both to agree and
/// to end in an allowed outcome.
fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
    let run = |capacity: usize| {
        std::panic::catch_unwind(|| {
            let mut reader = BufReader::with_capacity(capacity, Cursor::new(bytes));
            read_request(&mut reader)
        })
        .unwrap_or_else(|_| panic!("parser panicked on {:?}", String::from_utf8_lossy(bytes)))
    };
    let whole = run(bytes.len().max(1));
    let split = run(7);
    assert_eq!(
        format!("{whole:?}"),
        format!("{split:?}"),
        "buffering changed the outcome"
    );
    match &whole {
        Ok(Some(request)) => {
            assert!(!request.method.is_empty());
            assert!(request.body.len() <= MAX_BODY_BYTES);
        }
        Ok(None) => assert!(bytes.is_empty(), "bytes sent, yet no request"),
        Err(e) => assert!(
            matches!(e.status, 400 | 408 | 413 | 431 | 501),
            "status {} ({}) on {:?}",
            e.status,
            e.message,
            String::from_utf8_lossy(bytes)
        ),
    }
    whole
}

#[test]
fn arbitrary_bytes_parse_or_fail_typed() {
    let mut rng = Rng(0x4854_5450);
    for _ in 0..4000 {
        let bytes: Vec<u8> = (0..rng.below(160)).map(|_| rng.next() as u8).collect();
        parse(&bytes).ok();
    }
}

#[test]
fn request_shaped_heads_parse_or_fail_typed() {
    const METHODS: [&str; 5] = ["GET", "POST", "", "G\tET", "\u{FEFF}GET"];
    const TARGETS: [&str; 5] = ["/", "/v1/repair/nobel?label=a", "?", "", "/a b"];
    const VERSIONS: [&str; 6] = ["HTTP/1.1", "HTTP/1.0", "HTTP/2", "HTTP/1.", "http/1.1", ""];
    const ENDS: [&str; 3] = ["\r\n", "\n", ""];
    const NAMES: [&str; 6] = [
        "content-length",
        "Content-Length",
        "transfer-encoding",
        "connection",
        "x",
        "",
    ];
    const SEPS: [&str; 3] = [": ", ":", ""];
    const VALUES: [&str; 12] = [
        "0",
        "3",
        "+3",
        "-1",
        "3 ",
        "99999999999999999999999",
        "67108865",
        "chunked",
        "identity",
        "close",
        "keep-alive",
        "",
    ];
    const BODIES: [&str; 4] = ["abc", "", "ab", "\u{FEFF}abcdef"];

    let mut rng = Rng(0xC0FFEE);
    let (mut parsed, mut refused) = (0, 0);
    for _ in 0..4000 {
        let mut head = format!(
            "{} {} {}{}",
            rng.pick(&METHODS),
            rng.pick(&TARGETS),
            rng.pick(&VERSIONS),
            rng.pick(&ENDS)
        );
        for _ in 0..rng.below(4) {
            head += rng.pick(&NAMES);
            head += rng.pick(&SEPS);
            head += rng.pick(&VALUES);
            head += rng.pick(&ENDS);
        }
        head += rng.pick(&ENDS);
        head += rng.pick(&BODIES);
        match parse(head.as_bytes()) {
            Ok(_) => parsed += 1,
            Err(_) => refused += 1,
        }
    }
    assert!(
        parsed > 0 && refused > 0,
        "{parsed} parsed, {refused} refused"
    );
}

#[test]
fn oversized_heads_and_bodies_map_to_their_statuses() {
    let status = |bytes: &[u8]| parse(bytes).err().map(|e| e.status);

    let many_headers = format!("GET / HTTP/1.1\r\n{}\r\n", "x: y\r\n".repeat(12_000));
    assert_eq!(status(many_headers.as_bytes()), Some(431));

    let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(70_000));
    assert_eq!(status(long_line.as_bytes()), Some(400));

    let big_body = format!(
        "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        MAX_BODY_BYTES + 1
    );
    assert_eq!(status(big_body.as_bytes()), Some(413));

    let chunked = "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
    assert_eq!(status(chunked.as_bytes()), Some(501));

    let exact = "POST /x?a=1 HTTP/1.0\r\ncontent-length: 3\r\n\r\nabc";
    let request = parse(exact.as_bytes())
        .expect("well-formed")
        .expect("a request");
    assert_eq!(
        (
            request.path.as_str(),
            request.query.as_str(),
            request.body.as_slice(),
            request.http11
        ),
        ("/x", "a=1", b"abc".as_slice(), false)
    );
}
