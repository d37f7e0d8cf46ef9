//! Plain-text import/export for RTL descriptions and instruction traces,
//! so the library can be driven by real instruction-level simulators.
//!
//! # RTL format
//!
//! One instruction per line: `name: module module …`, where each module is
//! either `M<k>` (1-based, the paper's Table-1 notation) or a bare 0-based
//! index. Blank lines and `#` comments are ignored. The module universe is
//! either given explicitly or inferred as the largest index + 1, up to
//! [`MAX_INFERRED_MODULES`].
//!
//! ```text
//! # Table 1 of the paper
//! I1: M1 M2 M3 M5
//! I2: M1 M4
//! I3: M2 M5 M6
//! I4: M3 M4
//! ```
//!
//! # Trace format
//!
//! Whitespace-separated instruction names (or 0-based indices), in
//! execution order; `#` starts a comment until end of line.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::BufRead;

use crate::{ActivityError, InstructionId, InstructionStream, Rtl, TraceSource};

/// Largest module universe [`parse_rtl`] infers from the text. Every
/// instruction's usage bitset spans the whole universe, so a single large
/// index would otherwise size each of them (2^57 bytes for a 19-digit
/// index); pass the universe explicitly to go beyond this.
pub const MAX_INFERRED_MODULES: usize = 1 << 16;

/// Parses an RTL description from the text format above.
///
/// `num_modules` fixes the module universe; pass `None` to infer it from
/// the largest module index used (at most [`MAX_INFERRED_MODULES`]).
///
/// # Errors
///
/// Returns [`ActivityError::InvalidStream`] for malformed lines or module
/// tokens, and for an inferred universe above [`MAX_INFERRED_MODULES`];
/// [`ActivityError::CapacityExceeded`] at the instruction line after the
/// 65 536th, which a 16-bit [`InstructionId`] cannot name; the usual
/// builder errors for out-of-range indices or empty descriptions.
pub fn parse_rtl(text: &str, num_modules: Option<usize>) -> Result<Rtl, ActivityError> {
    let mut entries: Vec<(String, Vec<usize>)> = Vec::new();
    let mut universe = num_modules.unwrap_or(0);
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let (name, rest) = line
            .split_once(':')
            .ok_or_else(|| ActivityError::InvalidStream {
                reason: format!("line {}: expected `name: modules…`", lineno + 1),
            })?;
        let name = name.trim();
        if name.is_empty() {
            return Err(ActivityError::InvalidStream {
                reason: format!("line {}: empty instruction name", lineno + 1),
            });
        }
        let mut modules = Vec::new();
        for tok in rest.split_whitespace() {
            let m = parse_module(tok).ok_or_else(|| ActivityError::InvalidStream {
                reason: format!("line {}: bad module token `{tok}`", lineno + 1),
            })?;
            if num_modules.is_none() {
                let needed = m
                    .checked_add(1)
                    .filter(|&u| u <= MAX_INFERRED_MODULES)
                    .ok_or_else(|| ActivityError::InvalidStream {
                        reason: format!(
                            "line {}: module token `{tok}` exceeds the inferred-universe \
                             limit of {MAX_INFERRED_MODULES} modules",
                            lineno + 1
                        ),
                    })?;
                universe = universe.max(needed);
            }
            modules.push(m);
        }
        entries.push((name.to_owned(), modules));
    }
    let mut builder = Rtl::builder(universe);
    for (name, modules) in entries {
        builder = builder.instruction(&name, modules)?;
    }
    builder.build()
}

/// Parses an instruction trace: whitespace-separated instruction names or
/// 0-based indices, validated against `rtl`.
///
/// Materializes the whole trace; for multi-million-cycle inputs stream a
/// [`TextTraceSource`] through [`crate::scan_source`] instead — this
/// function is a thin drain over the same tokenizer.
///
/// # Errors
///
/// Returns [`ActivityError::InvalidStream`] for unknown instruction names
/// and the usual stream errors (length < 2, index out of range).
pub fn parse_trace(rtl: &Rtl, text: &str) -> Result<InstructionStream, ActivityError> {
    let mut source = TextTraceSource::new(rtl, text.as_bytes());
    let mut ids = Vec::new();
    let mut buf = [InstructionId::default(); 256];
    loop {
        let n = source.next_chunk(&mut buf)?;
        if n == 0 {
            break;
        }
        ids.extend_from_slice(&buf[..n]);
    }
    InstructionStream::from_ids(ids)
}

/// A [`TraceSource`] tokenizing the text trace format from any buffered
/// reader — one line in memory at a time, so a trace file of any length
/// streams through [`crate::scan_source`] in bounded memory.
///
/// Tokens are instruction names or 0-based indices, `#` starts a comment
/// until end of line, exactly as in [`parse_trace`].
///
/// ```
/// use gcr_activity::io::TextTraceSource;
/// use gcr_activity::{paper_example_rtl, ScanParams, ScanScratch};
///
/// let rtl = paper_example_rtl();
/// let mut source = TextTraceSource::new(&rtl, "I1 I2 # warm-up\nI1 I4\n".as_bytes());
/// let mut scratch = ScanScratch::new();
/// let (tables, profile) =
///     gcr_activity::scan_source(&rtl, &mut source, &ScanParams::default(), &mut scratch)?;
/// assert_eq!(profile.cycles, 4);
/// # let _ = tables;
/// # Ok::<(), gcr_activity::ActivityError>(())
/// ```
#[derive(Debug)]
pub struct TextTraceSource<R> {
    reader: R,
    by_name: HashMap<String, InstructionId>,
    num_instructions: usize,
    /// Current line; `pos..end` is the unconsumed, comment-stripped tail.
    line: String,
    pos: usize,
    end: usize,
}

impl<R: BufRead> TextTraceSource<R> {
    /// Streams the trace text from `reader`, resolving tokens against
    /// `rtl`.
    #[must_use]
    pub fn new(rtl: &Rtl, reader: R) -> Self {
        let by_name = rtl
            .instruction_ids()
            .map(|id| (rtl.name(id).to_owned(), id))
            .collect();
        Self {
            reader,
            by_name,
            num_instructions: rtl.num_instructions(),
            line: String::new(),
            pos: 0,
            end: 0,
        }
    }

    /// Pulls the next line into the reused buffer; false at end of input.
    fn refill(&mut self) -> Result<bool, ActivityError> {
        self.line.clear();
        let read =
            self.reader
                .read_line(&mut self.line)
                .map_err(|e| ActivityError::InvalidStream {
                    reason: format!("trace read error: {e}"),
                })?;
        self.pos = 0;
        self.end = strip_comment(&self.line).len();
        Ok(read > 0)
    }

    /// The next whitespace-delimited token of the current line, if any.
    fn next_line_token(&mut self) -> Option<(usize, usize)> {
        let bytes = self.line.as_bytes();
        let mut start = self.pos;
        while start < self.end && bytes[start].is_ascii_whitespace() {
            start += 1;
        }
        if start >= self.end {
            self.pos = self.end;
            return None;
        }
        let mut stop = start;
        while stop < self.end && !bytes[stop].is_ascii_whitespace() {
            stop += 1;
        }
        self.pos = stop;
        Some((start, stop))
    }

    /// Resolves one token to a validated instruction id.
    fn resolve(&self, start: usize, stop: usize) -> Result<InstructionId, ActivityError> {
        let tok = &self.line[start..stop];
        if let Some(&id) = self.by_name.get(tok) {
            return Ok(id);
        }
        if let Ok(i) = tok.parse::<usize>() {
            if i >= self.num_instructions {
                return Err(ActivityError::InstructionOutOfRange {
                    instruction: i,
                    num_instructions: self.num_instructions,
                });
            }
            // Below the RTL's instruction count, which fits 16 bits.
            return Ok(InstructionId(i as u16));
        }
        Err(ActivityError::InvalidStream {
            reason: format!("unknown instruction `{tok}`"),
        })
    }
}

impl<R: BufRead + Send> TraceSource for TextTraceSource<R> {
    fn next_chunk(&mut self, buf: &mut [InstructionId]) -> Result<usize, ActivityError> {
        let mut written = 0usize;
        while written < buf.len() {
            if let Some((start, stop)) = self.next_line_token() {
                buf[written] = self.resolve(start, stop)?;
                written += 1;
            } else if !self.refill()? {
                break;
            }
        }
        Ok(written)
    }
}

/// Serializes an RTL description to the text format (round-trips through
/// [`parse_rtl`]).
#[must_use]
pub fn format_rtl(rtl: &Rtl) -> String {
    let mut out = String::new();
    for id in rtl.instruction_ids() {
        let _ = write!(out, "{}:", rtl.name(id));
        for m in rtl.modules_used(id).iter() {
            let _ = write!(out, " M{}", m + 1);
        }
        out.push('\n');
    }
    out
}

/// Serializes a trace as one instruction name per line (round-trips
/// through [`parse_trace`]).
#[must_use]
pub fn format_trace(rtl: &Rtl, stream: &InstructionStream) -> String {
    let mut out = String::new();
    for &id in stream.instructions() {
        out.push_str(rtl.name(id));
        out.push('\n');
    }
    out
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

/// `M<k>` (1-based) or a bare 0-based index.
fn parse_module(tok: &str) -> Option<usize> {
    if let Some(rest) = tok.strip_prefix(['M', 'm']) {
        let k: usize = rest.parse().ok()?;
        (k >= 1).then(|| k - 1)
    } else {
        tok.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper_example_rtl, ModuleSet};

    const PAPER_RTL: &str = "\
# Table 1 of the paper
I1: M1 M2 M3 M5
I2: M1 M4

I3: M2 M5 M6
I4: M3 M4  # integer/memory
";

    #[test]
    fn parses_the_paper_rtl() {
        let rtl = parse_rtl(PAPER_RTL, None).unwrap();
        assert_eq!(rtl.num_instructions(), 4);
        assert_eq!(rtl.num_modules(), 6);
        let i1 = rtl.instruction(0).unwrap();
        assert_eq!(rtl.name(i1), "I1");
        assert!(rtl.uses(i1, 0) && rtl.uses(i1, 4) && !rtl.uses(i1, 3));
    }

    #[test]
    fn explicit_universe_overrides_inference() {
        let rtl = parse_rtl("a: 0 1\nb: 2", Some(10)).unwrap();
        assert_eq!(rtl.num_modules(), 10);
    }

    #[test]
    fn rtl_round_trip() {
        let rtl = paper_example_rtl();
        let text = format_rtl(&rtl);
        let back = parse_rtl(&text, Some(rtl.num_modules())).unwrap();
        assert_eq!(back.num_instructions(), rtl.num_instructions());
        for id in rtl.instruction_ids() {
            let back_id = back.instruction(id.index()).unwrap();
            assert_eq!(back.name(back_id), rtl.name(id));
            for m in 0..rtl.num_modules() {
                assert_eq!(back.uses(back_id, m), rtl.uses(id, m));
            }
        }
    }

    #[test]
    fn trace_by_name_and_index() {
        let rtl = parse_rtl(PAPER_RTL, None).unwrap();
        let s = parse_trace(&rtl, "I1 I2 0 3 I3 # trailing comment\nI1").unwrap();
        assert_eq!(s.len(), 6);
        // Name and index resolve to the same instruction.
        assert_eq!(s.instructions()[0], s.instructions()[2]);
        // And probabilities work end to end.
        let m1 = ModuleSet::with_modules(6, [0]);
        assert!(s.signal_probability(&rtl, &m1) > 0.0);
    }

    #[test]
    fn trace_round_trip() {
        let rtl = paper_example_rtl();
        let s = InstructionStream::from_indices(&rtl, [0, 1, 2, 3, 0]).unwrap();
        let text = format_trace(&rtl, &s);
        let back = parse_trace(&rtl, &text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn errors_are_reported_with_context() {
        assert!(parse_rtl("no-colon-here", None).is_err());
        assert!(parse_rtl("x: M0", None).is_err()); // M is 1-based
        assert!(parse_rtl("x: banana", None).is_err());
        assert!(parse_rtl(": M1", None).is_err());
        let rtl = paper_example_rtl();
        assert!(parse_trace(&rtl, "I1 NOPE").is_err());
        assert!(parse_trace(&rtl, "I1").is_err()); // too short
    }

    #[test]
    fn largest_module_index_is_a_structured_error() {
        // The inferred universe is `max + 1`: on the largest index that add
        // overflows, which must be an error naming the line and the token.
        let err = parse_rtl("I1: M1\nI2: 18446744073709551615\n", None).unwrap_err();
        let ActivityError::InvalidStream { reason } = err else {
            panic!("expected InvalidStream, got {err:?}");
        };
        assert!(reason.contains("line 2") && reason.contains("`18446744073709551615`"));
        // With an explicit universe the index is simply out of range.
        assert_eq!(
            parse_rtl("I1: 18446744073709551615\n", Some(6)).unwrap_err(),
            ActivityError::ModuleOutOfRange {
                module: usize::MAX,
                num_modules: 6,
            }
        );
    }

    #[test]
    fn inferred_universe_is_capped_before_allocation() {
        // A 19-digit index would size every usage bitset at 2^57 bytes.
        let err = parse_rtl("I1: 1152921504606846975\n", None).unwrap_err();
        let ActivityError::InvalidStream { reason } = err else {
            panic!("expected InvalidStream, got {err:?}");
        };
        assert!(reason.contains("line 1") && reason.contains("`1152921504606846975`"));
        let last = MAX_INFERRED_MODULES - 1;
        let rtl = parse_rtl(&format!("I1: {last}\n"), None).unwrap();
        assert_eq!(rtl.num_modules(), MAX_INFERRED_MODULES);
        assert!(parse_rtl(&format!("I1: {MAX_INFERRED_MODULES}\n"), None).is_err());
    }

    #[test]
    fn rtl_text_beyond_the_id_space_is_rejected() {
        let lines = |n: usize| (1..=n).map(|i| format!("I{i}: M1\n")).collect::<String>();
        let rtl = parse_rtl(&lines(65_536), None).unwrap();
        assert_eq!(rtl.num_instructions(), 65_536);
        // A trace naming the last instruction by index resolves to it.
        let s = parse_trace(&rtl, "0 65535 I65536").unwrap();
        assert_eq!(s.instructions()[1], s.instructions()[2]);
        assert_eq!(s.instructions()[1].index(), 65_535);
        assert_eq!(
            parse_rtl(&lines(65_537), None).unwrap_err(),
            ActivityError::CapacityExceeded {
                instructions: 65_537,
                limit: 65_536,
            }
        );
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let rtl = parse_rtl("# header\n\n  a: M1  # tail\n", Some(2)).unwrap();
        assert_eq!(rtl.num_instructions(), 1);
    }

    #[test]
    fn text_source_matches_parse_trace() {
        use crate::TraceSource;
        let rtl = parse_rtl(PAPER_RTL, None).unwrap();
        let text = "I1 I2 0 3 I3 # trailing comment\nI1\n\n# only a comment\n2 I4";
        let oracle = parse_trace(&rtl, text).unwrap();
        // Drain through a tiny buffer to exercise token carry-over.
        let mut source = TextTraceSource::new(&rtl, text.as_bytes());
        let mut got = Vec::new();
        let mut buf = [crate::InstructionId::default(); 3];
        loop {
            let n = source.next_chunk(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, oracle.instructions());
        // Exhausted sources keep returning 0.
        assert_eq!(source.next_chunk(&mut buf).unwrap(), 0);
    }

    #[test]
    fn text_source_reports_structured_errors() {
        use crate::{ActivityError, TraceSource};
        let rtl = paper_example_rtl();
        let mut buf = [crate::InstructionId::default(); 8];
        let mut bad_name = TextTraceSource::new(&rtl, "I1 NOPE".as_bytes());
        assert!(matches!(
            bad_name.next_chunk(&mut buf).unwrap_err(),
            ActivityError::InvalidStream { .. }
        ));
        let mut bad_index = TextTraceSource::new(&rtl, "I1 9".as_bytes());
        assert!(matches!(
            bad_index.next_chunk(&mut buf).unwrap_err(),
            ActivityError::InstructionOutOfRange {
                instruction: 9,
                num_instructions: 4,
            }
        ));
    }
}
