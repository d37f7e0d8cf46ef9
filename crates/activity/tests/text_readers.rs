//! Robustness of the two activity text readers: `parse_rtl`, and the
//! trace tokenizer behind `parse_trace` and `TextTraceSource`. Any input —
//! arbitrary bytes, or token soup biased toward the tokens the readers
//! treat specially — must give `Ok` or a structured `ActivityError`,
//! never a panic.
#![allow(clippy::unwrap_used)]

use gcr_activity::io::{parse_rtl, parse_trace, TextTraceSource, MAX_INFERRED_MODULES};
use gcr_activity::{paper_example_rtl, ActivityError, InstructionId, Rtl, TraceSource};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use proptest::test_runner::TestRng;

/// The largest module index: `index + 1` overflows when the RTL reader
/// infers the universe.
const U64_MAX: &str = "18446744073709551615";

/// One token: 19- and 20-digit integers (bare and `M`-prefixed, around
/// `u64::MAX` and past it), `M0`, `#`, a lone `:`, instruction names,
/// small indices and non-UTF-8 bytes.
fn token() -> BoxedStrategy<Vec<u8>> {
    prop_oneof![
        (1_000_000_000_000_000_000u64..u64::MAX).prop_map(|n| n.to_string().into_bytes()),
        (1_000_000_000_000_000_000u64..u64::MAX).prop_map(|n| format!("M{n}").into_bytes()),
        Just(U64_MAX.as_bytes().to_vec()),
        Just(b"18446744073709551616".to_vec()),
        Just(b"M0".to_vec()),
        Just(b"#".to_vec()),
        Just(b":".to_vec()),
        (0u32..6).prop_map(|i| format!("I{i}").into_bytes()),
        (0u32..6).prop_map(|i| format!("I{i}:").into_bytes()),
        (0usize..70_000).prop_map(|m| m.to_string().into_bytes()),
        (1usize..8).prop_map(|m| format!("M{m}").into_bytes()),
        prop::collection::vec(128u8..255, 1..4),
    ]
    .boxed()
}

/// Token soup: tokens joined by spaces, tabs, newlines or nothing.
fn soup() -> BoxedStrategy<Vec<u8>> {
    let sep = prop_oneof![
        Just(&b" "[..]),
        Just(&b"\n"[..]),
        Just(&b"\t"[..]),
        Just(&b""[..])
    ];
    prop::collection::vec((token(), sep), 0..40)
        .prop_map(|parts| {
            parts
                .into_iter()
                .flat_map(|(tok, sep)| tok.into_iter().chain(sep.iter().copied()))
                .collect()
        })
        .boxed()
}

/// RTL-shaped lines, `I<k>: tok tok …`, so the soup tokens reach the
/// module parser instead of failing on a missing colon first.
fn rtl_lines() -> BoxedStrategy<Vec<u8>> {
    let line = (0u32..6, prop::collection::vec(token(), 0..6));
    prop::collection::vec(line, 1..6)
        .prop_map(|lines| {
            let mut out = Vec::new();
            for (name, tokens) in lines {
                out.extend_from_slice(format!("I{name}:").as_bytes());
                for tok in tokens {
                    out.push(b' ');
                    out.extend_from_slice(&tok);
                }
                out.push(b'\n');
            }
            out
        })
        .boxed()
}

/// Every reader input: token soup, RTL-shaped lines, or arbitrary bytes.
fn input() -> BoxedStrategy<Vec<u8>> {
    prop_oneof![
        soup(),
        rtl_lines(),
        prop::collection::vec(any::<u8>(), 0..200)
    ]
    .boxed()
}

/// Parses `bytes` (lossily decoded) as an RTL at every universe choice.
/// Returns the result of the inferred-universe parse.
fn check_rtl(bytes: &[u8]) -> Result<Rtl, ActivityError> {
    let text = String::from_utf8_lossy(bytes);
    for universe in [Some(1), Some(8), Some(1_000)] {
        if let Ok(rtl) = parse_rtl(&text, universe) {
            assert_eq!(rtl.num_modules(), universe.unwrap());
        }
    }
    let inferred = parse_rtl(&text, None);
    if let Ok(rtl) = &inferred {
        assert!(rtl.num_modules() <= MAX_INFERRED_MODULES);
    }
    inferred
}

/// Drains `bytes` through a `TextTraceSource` in `chunk`-sized reads.
fn drain(rtl: &Rtl, bytes: &[u8], chunk: usize) -> Result<Vec<InstructionId>, ActivityError> {
    let mut source = TextTraceSource::new(rtl, bytes);
    let mut buf = vec![InstructionId::default(); chunk];
    let mut ids = Vec::new();
    loop {
        let n = source.next_chunk(&mut buf)?;
        if n == 0 {
            return Ok(ids);
        }
        ids.extend_from_slice(&buf[..n]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn rtl_reader_gives_ok_or_a_structured_error(bytes in input()) {
        let _ = check_rtl(&bytes);
    }

    #[test]
    fn trace_readers_give_ok_or_a_structured_error(bytes in input(), chunk in 1usize..9) {
        let rtl = paper_example_rtl();
        let streamed = drain(&rtl, &bytes, chunk);
        if let Ok(text) = std::str::from_utf8(&bytes) {
            // `parse_trace` is a drain of the same tokenizer.
            match (parse_trace(&rtl, text), &streamed) {
                (Ok(stream), Ok(ids)) => prop_assert_eq!(stream.instructions(), &ids[..]),
                (Err(_), Ok(ids)) => prop_assert!(ids.len() < 2, "{} ids", ids.len()),
                (Ok(_), Err(e)) => prop_assert!(false, "stream failed alone: {}", e),
                (Err(_), Err(_)) => {}
            }
        } else {
            // A line that is not UTF-8 is a read error, not a panic.
            prop_assert!(streamed.is_err());
        }
    }
}

/// The generated inputs must reach the inferred-universe overflow: some
/// RTL-shaped input names `u64::MAX` as a module and is rejected for it.
#[test]
fn inputs_reach_the_universe_overflow() {
    let lines = rtl_lines();
    let mut rng = TestRng::seeded(0x5eed);
    let hits = (0..512)
        .map(|_| lines.generate(&mut rng))
        .filter(|bytes| match check_rtl(bytes) {
            Err(ActivityError::InvalidStream { reason }) => {
                reason.contains(&format!("module token `{U64_MAX}`"))
            }
            _ => false,
        })
        .count();
    assert!(
        hits > 0,
        "no generated RTL reached the u64::MAX module token"
    );
}
