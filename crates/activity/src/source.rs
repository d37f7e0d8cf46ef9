//! Streaming trace sources: chunk-at-a-time instruction producers that
//! never require the full trace in memory.
//!
//! A [`TraceSource`] hands out instructions into a caller-owned buffer, so
//! a multi-million-cycle trace flows through the streaming scan
//! ([`crate::scan_source`]) with peak memory O(chunk + observed pairs)
//! instead of O(B). Implementations in this crate:
//!
//! * [`SliceSource`] — adapts an in-memory [`InstructionStream`] (or any
//!   id slice), the bridge between the materialized and streaming worlds;
//! * [`crate::ModelTraceSource`] — generates a [`crate::CpuModel`] Markov
//!   trace incrementally, bit-identical to
//!   [`crate::CpuModel::generate_stream`];
//! * [`crate::io::TextTraceSource`] — parses the text trace format from
//!   any `BufRead` without materializing the token stream.

use crate::{ActivityError, InstructionId, InstructionStream};

/// A producer of instruction-trace chunks.
///
/// The contract is `read`-like: each call fills a prefix of `buf` and
/// returns how many cycles were written; `Ok(0)` means the trace is
/// exhausted (and must keep returning 0 afterwards). Sources are free to
/// return short chunks. Implementations must be `Send` so the parallel
/// scan can hand the source to a worker pool behind a mutex.
pub trait TraceSource: Send {
    /// Fills a prefix of `buf` with the next cycles of the trace and
    /// returns the count written; 0 signals end of trace.
    ///
    /// # Errors
    ///
    /// Implementations return [`ActivityError`] for malformed input (e.g.
    /// unknown instruction tokens in a text trace).
    fn next_chunk(&mut self, buf: &mut [InstructionId]) -> Result<usize, ActivityError>;

    /// Lends the rest of the trace as one slice and ends the source, when
    /// the source already holds it in memory. The scan then counts the
    /// slice in place: no cursor, no lock, no chunk copy. The default
    /// returns `None`, and the scan pulls chunks through
    /// [`Self::next_chunk`].
    fn take_slice(&mut self) -> Option<&[InstructionId]> {
        None
    }
}

/// A [`TraceSource`] over an in-memory instruction slice.
///
/// ```
/// use gcr_activity::{paper_example_rtl, InstructionStream, SliceSource, TraceSource};
///
/// let rtl = paper_example_rtl();
/// let stream = InstructionStream::from_indices(&rtl, [0, 1, 0, 2])?;
/// let mut source = SliceSource::new(&stream);
/// let mut buf = [gcr_activity::InstructionId::default(); 3];
/// assert_eq!(source.next_chunk(&mut buf)?, 3);
/// assert_eq!(source.next_chunk(&mut buf)?, 1);
/// assert_eq!(source.next_chunk(&mut buf)?, 0);
/// # Ok::<(), gcr_activity::ActivityError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SliceSource<'a> {
    ids: &'a [InstructionId],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Streams the cycles of `stream`.
    #[must_use]
    pub fn new(stream: &'a InstructionStream) -> Self {
        Self::from_ids(stream.instructions())
    }

    /// Streams an already-validated id slice.
    #[must_use]
    pub fn from_ids(ids: &'a [InstructionId]) -> Self {
        Self { ids, pos: 0 }
    }
}

impl TraceSource for SliceSource<'_> {
    fn next_chunk(&mut self, buf: &mut [InstructionId]) -> Result<usize, ActivityError> {
        let n = buf.len().min(self.ids.len() - self.pos);
        buf[..n].copy_from_slice(&self.ids[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }

    fn take_slice(&mut self) -> Option<&[InstructionId]> {
        let ids: &[InstructionId] = self.ids;
        let rest = &ids[self.pos..];
        self.pos = ids.len();
        Some(rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example_rtl;

    #[test]
    fn slice_source_drains_in_chunks() {
        let rtl = paper_example_rtl();
        let stream = InstructionStream::from_indices(&rtl, [0, 1, 2, 3, 0, 1, 2]).unwrap();
        let mut source = SliceSource::new(&stream);
        let mut buf = [InstructionId::default(); 3];
        let mut got = Vec::new();
        loop {
            let n = source.next_chunk(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, stream.instructions());
        // Exhausted sources keep returning 0.
        assert_eq!(source.next_chunk(&mut buf).unwrap(), 0);
    }

    #[test]
    fn empty_buffer_reads_zero_without_ending() {
        let rtl = paper_example_rtl();
        let stream = InstructionStream::from_indices(&rtl, [0, 1]).unwrap();
        let mut source = SliceSource::new(&stream);
        assert_eq!(source.next_chunk(&mut []).unwrap(), 0);
        let mut buf = [InstructionId::default(); 2];
        assert_eq!(source.next_chunk(&mut buf).unwrap(), 2);
    }

    #[test]
    fn take_slice_lends_the_rest_and_ends_the_source() {
        let rtl = paper_example_rtl();
        let stream = InstructionStream::from_indices(&rtl, [0, 1, 2, 3]).unwrap();
        let mut source = SliceSource::new(&stream);
        let mut buf = [InstructionId::default(); 1];
        assert_eq!(source.next_chunk(&mut buf).unwrap(), 1);
        assert_eq!(source.take_slice(), Some(&stream.instructions()[1..]));
        assert_eq!(source.take_slice(), Some(&[][..]));
        assert_eq!(source.next_chunk(&mut buf).unwrap(), 0);
    }
}
