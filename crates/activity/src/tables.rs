use std::fmt;

use crate::{
    scan_source, set_bits, ActivityError, InstructionId, InstructionStream, ModuleSet, Rtl,
    ScanParams, ScanScratch, SliceSource,
};

/// The Instruction Frequency Table (Table 2 of the paper): the probability
/// that each instruction executes in a random cycle.
#[derive(Clone, Debug, PartialEq)]
pub struct Ift {
    probs: Vec<f64>,
}

impl Ift {
    /// Builds the table by counting every cycle of `stream` (O(B)) — the
    /// independent reference the streaming scan is tested against.
    #[must_use]
    pub fn scan(rtl: &Rtl, stream: &InstructionStream) -> Self {
        let mut counts = vec![0usize; rtl.num_instructions()];
        for &i in stream.instructions() {
            counts[i.index()] += 1;
        }
        let b = stream.len() as f64;
        Self {
            probs: counts.iter().map(|&c| c as f64 / b).collect(),
        }
    }

    /// Builds the table from integer per-instruction counts over `cycles`
    /// cycles — the normalization the streaming scan performs once after
    /// its exact integer merge. Arithmetic is identical to [`Self::scan`]
    /// (`count as f64 / cycles as f64`), so counts that match a sequential
    /// scan produce a bit-identical table.
    pub(crate) fn from_counts(counts: &[u64], cycles: u64) -> Self {
        let b = cycles as f64;
        Self {
            probs: counts.iter().map(|&c| c as f64 / b).collect(),
        }
    }

    /// Builds the table from explicit probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::InvalidStream`] when any probability is
    /// negative/non-finite or the probabilities do not sum to 1 (within
    /// 1e-9).
    pub fn from_probabilities(probs: Vec<f64>) -> Result<Self, ActivityError> {
        if probs.iter().any(|p| !p.is_finite() || *p < 0.0) {
            return Err(ActivityError::InvalidStream {
                reason: "instruction probabilities must be finite and >= 0".into(),
            });
        }
        let sum: f64 = probs.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(ActivityError::InvalidStream {
                reason: format!("instruction probabilities sum to {sum}, expected 1"),
            });
        }
        Ok(Self { probs })
    }

    /// P(I) for instruction `id`.
    #[must_use]
    pub fn probability(&self, id: InstructionId) -> f64 {
        self.probs[id.index()]
    }

    /// P(I) for every instruction, indexed by [`InstructionId::index`].
    #[must_use]
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Number of instructions covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }
}

/// The Instruction-Transition Module-Activation Table (Table 3 of the
/// paper): for every ordered pair of instructions, the probability that
/// they execute in consecutive cycles.
///
/// The per-module 2-bit activation tags `AT(M_j)` of the paper are not
/// stored — they are fully determined by the pair's two activation bits and
/// are evaluated on the fly during
/// [`ActivityTables::enable_stats_for_bits`].
#[derive(Clone, Debug, PartialEq)]
pub struct Itmatt {
    k: usize,
    /// Dense row-major K×K pair probabilities.
    pair_probs: Vec<f64>,
    /// Row-major `K × ⌈K/64⌉` bitset: bit `b` of row `a` is set when
    /// `P(a→b) > 0` and `b ≠ a` — the pairs that can toggle an enable (a
    /// self-pair never does). At most 2 MiB at the capacity limit.
    offdiag: Vec<u64>,
}

impl Itmatt {
    /// Hard capacity limit on the instruction count K: the table is a
    /// dense K² matrix of `f64` (128 MiB at the cap), and an activation
    /// row (at most 64 words) fits a stack buffer in
    /// [`ActivityTables::enable_stats`]. The check runs **before** the K²
    /// allocation is attempted, so an oversized RTL fails with a
    /// structured [`ActivityError::CapacityExceeded`] instead of an
    /// abort-on-OOM.
    pub const MAX_INSTRUCTIONS: usize = 4096;

    /// Builds the table by counting the B−1 consecutive pairs of `stream`
    /// (O(B)) — with [`Ift::scan`], the independent two-pass reference the
    /// streaming scan is tested against.
    ///
    /// # Panics
    ///
    /// Panics when `rtl` defines more than [`Self::MAX_INSTRUCTIONS`]
    /// instructions; use [`Self::try_scan`] to handle that structurally.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented panic; try_scan is the fallible form"
    )]
    pub fn scan(rtl: &Rtl, stream: &InstructionStream) -> Self {
        Self::try_scan(rtl, stream).expect("instruction count exceeds Itmatt::MAX_INSTRUCTIONS")
    }

    /// As [`Self::scan`], returning a structured error instead of
    /// panicking on oversized RTLs.
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::CapacityExceeded`] when `rtl` defines more
    /// than [`Self::MAX_INSTRUCTIONS`] instructions — checked before the
    /// dense K² count array is allocated.
    pub fn try_scan(rtl: &Rtl, stream: &InstructionStream) -> Result<Self, ActivityError> {
        let k = rtl.num_instructions();
        Self::check_capacity(k)?;
        let mut counts = vec![0usize; k * k];
        for (a, b) in stream.pairs() {
            counts[a.index() * k + b.index()] += 1;
        }
        let pairs = (stream.len() - 1) as f64;
        let pair_probs: Vec<f64> = counts.iter().map(|&c| c as f64 / pairs).collect();
        Self::from_dense(k, pair_probs)
    }

    /// Rejects instruction counts the dense representation cannot hold.
    pub(crate) fn check_capacity(k: usize) -> Result<(), ActivityError> {
        if k > Self::MAX_INSTRUCTIONS {
            return Err(ActivityError::CapacityExceeded {
                instructions: k,
                limit: Self::MAX_INSTRUCTIONS,
            });
        }
        Ok(())
    }

    pub(crate) fn from_dense(k: usize, pair_probs: Vec<f64>) -> Result<Self, ActivityError> {
        Self::check_capacity(k)?;
        let words = k.div_ceil(64);
        let mut offdiag = vec![0; k * words];
        for (i, _) in pair_probs.iter().enumerate().filter(|&(_, &p)| p > 0.0) {
            let (a, b) = (i / k, i % k);
            if a != b {
                offdiag[a * words + b / 64] |= 1 << (b % 64);
            }
        }
        Ok(Self {
            k,
            pair_probs,
            offdiag,
        })
    }

    /// Probability that `a` is followed by `b` in consecutive cycles.
    #[must_use]
    pub fn pair_probability(&self, a: InstructionId, b: InstructionId) -> f64 {
        self.pair_probs[a.index() * self.k + b.index()]
    }

    /// Iterator over the pairs with non-zero probability, in row-major
    /// order: a filter over the dense table, O(K²) per call.
    pub fn nonzero_pairs(&self) -> impl Iterator<Item = (InstructionId, InstructionId, f64)> + '_ {
        let k = self.k;
        self.pair_probs
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p > 0.0)
            .map(move |(i, &p)| {
                // Both indices are below K ≤ `MAX_INSTRUCTIONS`: 16 bits.
                (
                    InstructionId((i / k) as u16),
                    InstructionId((i % k) as u16),
                    p,
                )
            })
    }

    /// Number of pairs with non-zero probability, O(K²).
    #[must_use]
    pub fn nonzero_len(&self) -> usize {
        self.pair_probs.iter().filter(|&&p| p > 0.0).count()
    }

    /// Number of instructions covered (K); the table holds K² entries.
    #[must_use]
    pub fn num_instructions(&self) -> usize {
        self.k
    }
}

/// Signal and transition probability of one gate-enable signal.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnableStats {
    /// `P(EN)` — probability the enable is 1 in a random cycle. Weights the
    /// clock-tree switched capacitance (§2.1).
    pub signal: f64,
    /// `P_tr(EN)` — probability the enable changes value across a random
    /// cycle boundary. Weights the controller-tree switched capacitance
    /// (§2.2).
    pub transition: f64,
}

impl EnableStats {
    /// Stats for an always-on signal (ungated node).
    pub const ALWAYS_ON: EnableStats = EnableStats {
        signal: 1.0,
        transition: 0.0,
    };
}

/// IFT + ITMATT bundled with the RTL: everything needed to answer
/// probability queries for arbitrary module sets without rescanning the
/// instruction stream (§3.3).
#[derive(Clone, Debug)]
pub struct ActivityTables {
    rtl: Rtl,
    ift: Ift,
    itmatt: Itmatt,
}

impl ActivityTables {
    /// Builds both tables with a single O(B) scan of `stream`: the
    /// streaming pipeline ([`crate::scan_source`]) over a
    /// [`crate::SliceSource`] at one thread, traced like it.
    ///
    /// # Panics
    ///
    /// Panics when `rtl` exceeds [`Itmatt::MAX_INSTRUCTIONS`]; use
    /// [`Self::try_scan`] to handle that structurally.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented panic; try_scan is the fallible form"
    )]
    pub fn scan(rtl: &Rtl, stream: &InstructionStream) -> Self {
        Self::try_scan(rtl, stream).expect("instruction count exceeds Itmatt::MAX_INSTRUCTIONS")
    }

    /// As [`Self::scan`], returning a structured error instead of
    /// panicking on oversized RTLs.
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::CapacityExceeded`] when `rtl` defines more
    /// than [`Itmatt::MAX_INSTRUCTIONS`] instructions.
    pub fn try_scan(rtl: &Rtl, stream: &InstructionStream) -> Result<Self, ActivityError> {
        let params = ScanParams {
            threads: Some(1),
            ..ScanParams::default()
        };
        let mut source = SliceSource::new(stream);
        scan_source(rtl, &mut source, &params, &mut ScanScratch::new()).map(|(tables, _)| tables)
    }

    /// Assembles tables from already-built parts (the streaming builder's
    /// final normalization step).
    pub(crate) fn from_parts(rtl: Rtl, ift: Ift, itmatt: Itmatt) -> Self {
        Self { rtl, ift, itmatt }
    }

    /// Builds tables from explicit probabilities instead of a stream scan:
    /// `ift` is the stationary instruction distribution and
    /// `pair_probs[a][b]` the probability of the consecutive pair
    /// `(I_a, I_b)` (row-major K×K, summing to 1).
    ///
    /// Used with closed-form models (see
    /// [`CpuModel::analytic_tables`](crate::CpuModel::analytic_tables)),
    /// and handy when statistics come from an external simulator that
    /// already aggregated them.
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::InvalidStream`] when dimensions mismatch
    /// the RTL or the probabilities are invalid, and
    /// [`ActivityError::CapacityExceeded`] when the RTL exceeds
    /// [`Itmatt::MAX_INSTRUCTIONS`].
    pub fn from_probabilities(
        rtl: &Rtl,
        ift: Vec<f64>,
        pair_probs: Vec<f64>,
    ) -> Result<Self, ActivityError> {
        let k = rtl.num_instructions();
        if ift.len() != k || pair_probs.len() != k * k {
            return Err(ActivityError::InvalidStream {
                reason: format!(
                    "expected {k} IFT entries and {} pair entries, got {} and {}",
                    k * k,
                    ift.len(),
                    pair_probs.len()
                ),
            });
        }
        let ift = Ift::from_probabilities(ift)?;
        if pair_probs.iter().any(|p| !p.is_finite() || *p < 0.0) {
            return Err(ActivityError::InvalidStream {
                reason: "pair probabilities must be finite and >= 0".into(),
            });
        }
        let sum: f64 = pair_probs.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(ActivityError::InvalidStream {
                reason: format!("pair probabilities sum to {sum}, expected 1"),
            });
        }
        Ok(Self {
            rtl: rtl.clone(),
            ift,
            itmatt: Itmatt::from_dense(k, pair_probs)?,
        })
    }

    /// The RTL description the tables refer to.
    #[must_use]
    pub fn rtl(&self) -> &Rtl {
        &self.rtl
    }

    /// The instruction frequency table.
    #[must_use]
    pub fn ift(&self) -> &Ift {
        &self.ift
    }

    /// The instruction-transition table.
    #[must_use]
    pub fn itmatt(&self) -> &Itmatt {
        &self.itmatt
    }

    /// Width in `u64` words of one activation row: `⌈K/64⌉`, at most 64.
    #[must_use]
    pub fn activation_words(&self) -> usize {
        self.rtl.num_instructions().div_ceil(64)
    }

    /// Signal and transition probability of the enable of a node owning
    /// `set` — Equation (2) and the OR-of-activation-tags rule of §3.3.
    ///
    /// Builds the activation row (bit `i` set when instruction `i` uses a
    /// module of `set`) in a stack buffer in O(K·W) for W module words,
    /// then prices it with [`Self::enable_stats_for_bits`].
    ///
    /// # Panics
    ///
    /// Panics if `set` is over a different module universe than the RTL.
    #[must_use]
    pub fn enable_stats(&self, set: &ModuleSet) -> EnableStats {
        let mut buf = [0u64; Itmatt::MAX_INSTRUCTIONS / 64];
        let row = &mut buf[..self.activation_words()];
        for id in self.rtl.instruction_ids() {
            if self.rtl.activates(id, set) {
                row[id.index() / 64] |= 1 << (id.index() % 64);
            }
        }
        self.enable_stats_for_bits(row)
    }

    /// As [`Self::enable_stats`], for a precomputed activation row of
    /// [`Self::activation_words`] words: bit `i` is set when instruction
    /// `i` activates the node, and bits at or above K are clear.
    ///
    /// `P(EN)` sums `P(I)` over the set bits in ascending order. `P_tr(EN)`
    /// walks, for each instruction `a` in ascending order, the set bits of
    /// `offdiag[a] & (a active ? !row : row)` — the observed pairs
    /// `(a, b)` whose activation differs — and adds their probabilities
    /// from `0.0`. Those are exactly the operands, in exactly the
    /// row-major order, of the per-pair loop over the non-zero ITMATT
    /// entries (self-pairs never toggle), so the result is bit-identical
    /// to it, at O(K·⌈K/64⌉ + toggling pairs).
    ///
    /// # Panics
    ///
    /// Panics if `row` is not [`Self::activation_words`] words wide or
    /// has a bit set at or above K.
    #[must_use]
    pub fn enable_stats_for_bits(&self, row: &[u64]) -> EnableStats {
        let words = self.activation_words();
        assert_eq!(row.len(), words, "activation row width mismatch");
        let signal = set_bits(row).map(|i| self.ift.probs[i]).sum();
        let Itmatt {
            k,
            pair_probs,
            offdiag,
            ..
        } = &self.itmatt;
        let mut transition = 0.0;
        for (a, (pairs, probs)) in offdiag
            .chunks_exact(words)
            .zip(pair_probs.chunks_exact(*k))
            .enumerate()
        {
            // All ones when `a` is active: its enable then toggles on the
            // pairs into inactive instructions, and vice versa.
            let flip = 0u64.wrapping_sub((row[a / 64] >> (a % 64)) & 1);
            for (w, (&pair, &active)) in pairs.iter().zip(row).enumerate() {
                let mut bits = pair & (active ^ flip);
                while bits != 0 {
                    transition += probs[w * 64 + bits.trailing_zeros() as usize];
                    bits &= bits - 1;
                }
            }
        }
        EnableStats { signal, transition }
    }
}

impl fmt::Display for ActivityTables {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ActivityTables[{} instructions, {} modules]",
            self.rtl.num_instructions(),
            self.rtl.num_modules()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper_example_rtl, RtlBuilder};

    fn paper_stream(rtl: &Rtl) -> InstructionStream {
        InstructionStream::from_indices(
            rtl,
            [0, 1, 3, 0, 2, 1, 0, 0, 1, 0, 2, 0, 1, 2, 0, 0, 1, 1, 3, 1],
        )
        .unwrap()
    }

    #[test]
    fn ift_matches_hand_counts() {
        let rtl = paper_example_rtl();
        let s = paper_stream(&rtl);
        let ift = Ift::scan(&rtl, &s);
        // Counts: I1=8, I2=7, I3=3, I4=2 over 20 cycles.
        assert!((ift.probability(rtl.instruction(0).unwrap()) - 0.40).abs() < 1e-12);
        assert!((ift.probability(rtl.instruction(1).unwrap()) - 0.35).abs() < 1e-12);
        assert!((ift.probability(rtl.instruction(2).unwrap()) - 0.15).abs() < 1e-12);
        assert!((ift.probability(rtl.instruction(3).unwrap()) - 0.10).abs() < 1e-12);
        let total: f64 = rtl.instruction_ids().map(|i| ift.probability(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn itmatt_pair_probabilities_sum_to_one() {
        let rtl = paper_example_rtl();
        let s = paper_stream(&rtl);
        let t = Itmatt::scan(&rtl, &s);
        let total: f64 = t.nonzero_pairs().map(|(_, _, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(t.num_instructions(), 4);
        // Pair (I1, I2) occurs 4 times in the 19 pairs.
        let (i1, i2) = (rtl.instruction(0).unwrap(), rtl.instruction(1).unwrap());
        assert!((t.pair_probability(i1, i2) - 4.0 / 19.0).abs() < 1e-12);
    }

    #[test]
    fn table_driven_signal_matches_paper_values() {
        let rtl = paper_example_rtl();
        let s = paper_stream(&rtl);
        let tables = ActivityTables::scan(&rtl, &s);
        let m1 = ModuleSet::with_modules(6, [0]);
        assert!((tables.enable_stats(&m1).signal - 0.75).abs() < 1e-12);
        let m56 = ModuleSet::with_modules(6, [4, 5]);
        assert!((tables.enable_stats(&m56).signal - 0.55).abs() < 1e-12);
    }

    /// The heart of §3.3: the table-driven computation must agree *exactly*
    /// with the brute-force stream scan — for every one of the 63 nonempty
    /// module subsets of the worked example.
    #[test]
    fn tables_equal_brute_force_on_all_subsets() {
        let rtl = paper_example_rtl();
        let s = paper_stream(&rtl);
        let tables = ActivityTables::scan(&rtl, &s);
        for mask in 1u32..64 {
            let set = ModuleSet::with_modules(6, (0..6).filter(|m| mask & (1 << m) != 0));
            let stats = tables.enable_stats(&set);
            let sig = s.signal_probability(&rtl, &set);
            let tr = s.transition_probability(&rtl, &set);
            assert!(
                (stats.signal - sig).abs() < 1e-12,
                "signal mismatch for {set}: table {} vs scan {sig}",
                stats.signal
            );
            assert!(
                (stats.transition - tr).abs() < 1e-12,
                "transition mismatch for {set}: table {} vs scan {tr}",
                stats.transition
            );
        }
    }

    #[test]
    fn enable_stats_monotone_under_union() {
        let rtl = paper_example_rtl();
        let s = paper_stream(&rtl);
        let tables = ActivityTables::scan(&rtl, &s);
        let a = ModuleSet::with_modules(6, [4]);
        let b = ModuleSet::with_modules(6, [5]);
        let u = a.union(&b);
        let (sa, sb, su) = (
            tables.enable_stats(&a),
            tables.enable_stats(&b),
            tables.enable_stats(&u),
        );
        assert!(su.signal >= sa.signal.max(sb.signal) - 1e-12);
        assert!(su.signal <= sa.signal + sb.signal + 1e-12);
    }

    #[test]
    fn from_probabilities_validation() {
        assert!(Ift::from_probabilities(vec![0.5, 0.5]).is_ok());
        assert!(Ift::from_probabilities(vec![0.5, 0.6]).is_err());
        assert!(Ift::from_probabilities(vec![-0.1, 1.1]).is_err());
        assert!(Ift::from_probabilities(vec![f64::NAN, 1.0]).is_err());
    }

    #[test]
    fn from_probabilities_rejects_empty_table() {
        // An empty IFT sums to 0, not 1 — there is no empty-but-valid table.
        assert!(Ift::from_probabilities(vec![]).is_err());
        let rtl = paper_example_rtl();
        // Dimension mismatches (including fully empty inputs) are rejected
        // before any probability is inspected.
        assert!(ActivityTables::from_probabilities(&rtl, vec![], vec![]).is_err());
        assert!(ActivityTables::from_probabilities(&rtl, vec![0.25; 4], vec![]).is_err());
    }

    #[test]
    fn single_instruction_tables() {
        // K = 1: the lone instruction always executes, so every owned
        // module set is always enabled and nothing ever transitions.
        let rtl = Rtl::builder(2)
            .instruction("I1", [0])
            .unwrap()
            .build()
            .unwrap();
        let tables = ActivityTables::from_probabilities(&rtl, vec![1.0], vec![1.0]).unwrap();
        let i1 = rtl.instruction(0).unwrap();
        assert_eq!(tables.ift().len(), 1);
        assert!((tables.ift().probability(i1) - 1.0).abs() < 1e-12);
        assert!((tables.itmatt().pair_probability(i1, i1) - 1.0).abs() < 1e-12);
        let used = ModuleSet::with_modules(2, [0]);
        let unused = ModuleSet::with_modules(2, [1]);
        let on = tables.enable_stats(&used);
        let off = tables.enable_stats(&unused);
        assert!((on.signal - 1.0).abs() < 1e-12 && on.transition.abs() < 1e-12);
        assert!(off.signal.abs() < 1e-12 && off.transition.abs() < 1e-12);
    }

    #[test]
    fn minimal_two_cycle_stream_scan() {
        // The shortest legal stream (B = 2) yields exactly one pair.
        let rtl = paper_example_rtl();
        let s = InstructionStream::from_indices(&rtl, [0, 1]).unwrap();
        let tables = ActivityTables::scan(&rtl, &s);
        let (i1, i2) = (rtl.instruction(0).unwrap(), rtl.instruction(1).unwrap());
        assert!((tables.ift().probability(i1) - 0.5).abs() < 1e-12);
        assert!((tables.itmatt().pair_probability(i1, i2) - 1.0).abs() < 1e-12);
        assert_eq!(tables.itmatt().nonzero_pairs().count(), 1);
    }

    #[test]
    fn itmatt_all_zero_rows_are_skipped() {
        // Instruction I2 never starts a pair: its ITMATT row is all zero.
        // `nonzero_pairs` must skip it and transition sums must stay exact.
        let rtl = Rtl::builder(2)
            .instruction("I1", [0])
            .and_then(|b| b.instruction("I2", [1]))
            .and_then(RtlBuilder::build)
            .unwrap();
        let ift = vec![0.75, 0.25];
        let pair_probs = vec![0.5, 0.5, 0.0, 0.0]; // row-major: rows (I1, _), (I2, _)
        let tables = ActivityTables::from_probabilities(&rtl, ift, pair_probs).unwrap();
        let (i1, i2) = (rtl.instruction(0).unwrap(), rtl.instruction(1).unwrap());
        assert_eq!(tables.itmatt().pair_probability(i2, i1), 0.0);
        assert_eq!(tables.itmatt().pair_probability(i2, i2), 0.0);
        assert_eq!(tables.itmatt().nonzero_pairs().count(), 2);
        // Only M1 toggles: the (I1, I2) pair flips its enable.
        let m1 = ModuleSet::with_modules(2, [0]);
        let stats = tables.enable_stats(&m1);
        assert!((stats.signal - 0.75).abs() < 1e-12);
        assert!((stats.transition - 0.5).abs() < 1e-12);
    }

    #[test]
    fn oversized_rtl_is_rejected_before_dense_allocation() {
        // One instruction past the cap: try_scan must fail with the
        // structured capacity error (before attempting the K² allocation —
        // at the cap+1 that would still succeed, but the guard is what
        // keeps a 10⁵-instruction RTL from aborting on OOM).
        let k = Itmatt::MAX_INSTRUCTIONS + 1;
        let mut builder = Rtl::builder(1);
        for i in 0..k {
            builder = builder.instruction(&format!("I{i}"), [0]).unwrap();
        }
        let rtl = builder.build().unwrap();
        let stream = InstructionStream::from_indices(&rtl, [0, 1]).unwrap();
        let err = Itmatt::try_scan(&rtl, &stream).unwrap_err();
        assert_eq!(
            err,
            ActivityError::CapacityExceeded {
                instructions: k,
                limit: Itmatt::MAX_INSTRUCTIONS,
            }
        );
        assert!(ActivityTables::try_scan(&rtl, &stream).is_err());
        // from_probabilities hits the same guard (after validating the
        // probabilities themselves).
        let mut ift = vec![0.0; k];
        ift[0] = 1.0;
        let mut pairs = vec![0.0; k * k];
        pairs[0] = 1.0;
        assert!(matches!(
            ActivityTables::from_probabilities(&rtl, ift, pairs).unwrap_err(),
            ActivityError::CapacityExceeded { .. }
        ));
    }

    #[test]
    fn nonzero_pairs_matches_dense_filter() {
        // The pair iterator must agree with a direct dense filter —
        // same pairs, same order (row-major), same probabilities.
        let rtl = paper_example_rtl();
        let s = paper_stream(&rtl);
        let t = Itmatt::scan(&rtl, &s);
        let k = t.num_instructions();
        let dense: Vec<_> = (0..k * k)
            .map(|i| {
                (
                    InstructionId((i / k) as u16),
                    InstructionId((i % k) as u16),
                    t.pair_probability(
                        InstructionId((i / k) as u16),
                        InstructionId((i % k) as u16),
                    ),
                )
            })
            .filter(|&(_, _, p)| p > 0.0)
            .collect();
        let sparse: Vec<_> = t.nonzero_pairs().collect();
        assert_eq!(sparse, dense);
        assert_eq!(t.nonzero_len(), dense.len());
    }

    #[test]
    fn always_on_constant() {
        assert_eq!(EnableStats::ALWAYS_ON.signal, 1.0);
        assert_eq!(EnableStats::ALWAYS_ON.transition, 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        let rtl = paper_example_rtl();
        let s = paper_stream(&rtl);
        let tables = ActivityTables::scan(&rtl, &s);
        assert!(format!("{tables}").contains("4 instructions"));
    }
}
