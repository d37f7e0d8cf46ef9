use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::rtl::MAX_INSTRUCTIONS;
use crate::{ActivityError, InstructionId, InstructionStream, Rtl, TraceSource};

/// A synthetic processor model: a randomly generated RTL description plus a
/// first-order Markov instruction process.
///
/// This substitutes for the paper's "instruction level simulation of the
/// processor with a number of benchmark programs" (§3.2 / §5): the router
/// consumes only instruction statistics, and this model controls exactly
/// the statistics the paper's experiments vary —
///
/// * **usage fraction** — the average fraction of modules each instruction
///   uses (Table 4's `Ave(M(I))` ≈ 40 %), which sets the average module
///   activity swept in Fig. 4;
/// * **persistence** — the probability that the next cycle repeats the
///   current instruction, which sets how often enables toggle and thus the
///   controller-tree switched capacitance;
/// * **frequency skew** — a Zipf-like exponent making some instructions
///   much more common than others, as in real instruction mixes.
///
/// ```
/// use gcr_activity::{ActivityTables, CpuModel};
///
/// let model = CpuModel::builder(64)  // 64 modules
///     .instructions(16)
///     .usage_fraction(0.4)
///     .persistence(0.6)
///     .seed(7)
///     .build()?;
/// let stream = model.generate_stream(5_000);
/// let tables = ActivityTables::scan(model.rtl(), &stream);
/// # let _ = tables;
/// # Ok::<(), gcr_activity::ActivityError>(())
/// ```
#[derive(Clone, Debug)]
pub struct CpuModel {
    rtl: Rtl,
    base_probs: Vec<f64>,
    cumulative: Vec<f64>,
    /// Guide table of the base sampler: bucket `b` holds the number of
    /// cumulative values `c` with `⌊c·G⌋ < b`, where `G = guide.len()`.
    guide: Vec<u32>,
    persistence: f64,
    phases: usize,
    /// Program phase of each instruction, `i % phases`.
    phase_of: Vec<usize>,
    /// Per-cycle phase-switch probability, `1 / phase_length`.
    phase_switch: f64,
    seed: u64,
}

/// Guide-table buckets per instruction (rounded up to a power of two in
/// total): the base sampler's forward scan then visits about one
/// cumulative value per draw.
const GUIDE_BUCKETS_PER_INSTRUCTION: usize = 4;

impl CpuModel {
    /// Starts building a model over `num_modules` modules.
    #[must_use]
    pub fn builder(num_modules: usize) -> CpuModelBuilder {
        CpuModelBuilder {
            num_modules,
            num_instructions: 32,
            usage_fraction: 0.4,
            persistence: 0.6,
            frequency_skew: 1.0,
            groups: 0,
            phases: 1,
            phase_length: 500,
            seed: 0xC10C_CA7E,
        }
    }

    /// The generated RTL description.
    #[must_use]
    pub fn rtl(&self) -> &Rtl {
        &self.rtl
    }

    /// The stationary instruction probabilities of the Markov process.
    ///
    /// Because the process either repeats the current instruction or draws
    /// fresh from this base distribution, the base distribution *is* the
    /// stationary one.
    #[must_use]
    pub fn base_probabilities(&self) -> &[f64] {
        &self.base_probs
    }

    /// The probability that consecutive cycles execute the same
    /// instruction (beyond the base distribution's own mass).
    #[must_use]
    pub fn persistence(&self) -> f64 {
        self.persistence
    }

    /// Closed-form activity tables of the Markov process — no stream
    /// sampling, no Monte-Carlo noise. The stationary distribution is the
    /// base distribution, and consecutive pairs follow
    /// `P(a→b) = base_a · (persistence·[a = b] + (1−persistence)·base_b)`.
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::InvalidParameter`] for phased models
    /// (`phases > 1`), whose pair distribution is not first-order
    /// stationary in this closed form.
    pub fn analytic_tables(&self) -> Result<crate::ActivityTables, ActivityError> {
        if self.phases > 1 {
            return Err(ActivityError::InvalidParameter {
                name: "phases",
                value: self.phases as f64,
            });
        }
        let k = self.base_probs.len();
        let p = self.persistence;
        let mut pairs = vec![0.0f64; k * k];
        for a in 0..k {
            for b in 0..k {
                let fresh = (1.0 - p) * self.base_probs[b];
                let stay = if a == b { p } else { 0.0 };
                pairs[a * k + b] = self.base_probs[a] * (stay + fresh);
            }
        }
        crate::ActivityTables::from_probabilities(&self.rtl, self.base_probs.clone(), pairs)
    }

    /// Generates an instruction stream of `len` cycles.
    ///
    /// Deterministic for a given model (the builder seed also seeds stream
    /// generation); successive calls return the same stream. Implemented
    /// by draining a [`Self::trace_source`], so the materialized stream
    /// and the streaming path are identical by construction.
    ///
    /// # Panics
    ///
    /// Panics if `len < 2` (transition statistics need at least one pair).
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "from_ids only rejects streams shorter than 2, ruled out by the assert"
    )]
    pub fn generate_stream(&self, len: usize) -> InstructionStream {
        assert!(len >= 2, "stream length must be >= 2, got {len}");
        let mut source = self.trace_source(len as u64);
        let mut out = vec![InstructionId(0); len];
        let mut filled = 0usize;
        while filled < len {
            let n = source
                .next_chunk(&mut out[filled..])
                .expect("model sources are infallible");
            assert!(n > 0, "model source ended early at {filled}/{len} cycles");
            filled += n;
        }
        InstructionStream::from_ids(out).expect("len >= 2 checked above")
    }

    /// A [`TraceSource`](crate::TraceSource) generating `len` cycles of
    /// this model's Markov process incrementally — the streaming
    /// counterpart of [`Self::generate_stream`], producing the identical
    /// cycle sequence without ever materializing it (peak memory is one
    /// chunk, whatever the trace length).
    #[must_use]
    pub fn trace_source(&self, len: u64) -> ModelTraceSource<'_> {
        ModelTraceSource {
            model: self,
            rng: StdRng::seed_from_u64(self.seed ^ 0x5EED_57EA),
            phase: 0,
            current: InstructionId(0),
            started: false,
            remaining: len,
        }
    }

    /// Draws from the base distribution, restricted to the instructions of
    /// `phase` (rejection sampling; every phase is non-empty because
    /// `phases <= num_instructions`).
    fn sample_base(&self, rng: &mut StdRng, phase: usize) -> InstructionId {
        loop {
            let idx = self.base_index(rng.gen());
            if self.phases <= 1 || self.phase_of[idx] == phase {
                // `build` caps K at 2^16, so the index fits.
                return InstructionId(idx as u16);
            }
        }
    }

    /// The instruction a uniform draw `x ∈ [0, 1)` selects: exactly
    /// `cumulative.binary_search_by(total_cmp)`, clamped to K − 1, found
    /// through the guide table. Bucket `⌊x·G⌋` starts the scan at a count
    /// of cumulative values known to lie below `x` (G is a power of two,
    /// so `x·G` is exact and monotone), and the scan stops at the first
    /// value not below `x`. On an exact tie the binary search may land on
    /// any of several equal values, so a tie replays it.
    fn base_index(&self, x: f64) -> usize {
        let cum = &self.cumulative;
        let last = cum.len() - 1;
        let bucket = ((x * self.guide.len() as f64) as usize).min(self.guide.len() - 1);
        let mut i = self.guide[bucket] as usize;
        while i < last && cum[i] < x {
            i += 1;
        }
        if cum[i] == x {
            match cum.binary_search_by(|c| c.total_cmp(&x)) {
                Ok(j) | Err(j) => j.min(last),
            }
        } else {
            i
        }
    }
}

/// Incremental generator of a [`CpuModel`] instruction trace; see
/// [`CpuModel::trace_source`].
///
/// Carries only the Markov state (RNG, phase, current instruction), so a
/// 10⁸-cycle trace streams through [`crate::scan_source`] in bounded
/// memory. The emitted sequence is bit-identical to
/// [`CpuModel::generate_stream`] of the same length — `generate_stream`
/// is a thin wrapper that drains this source.
#[derive(Clone, Debug)]
pub struct ModelTraceSource<'m> {
    model: &'m CpuModel,
    rng: StdRng,
    phase: usize,
    current: InstructionId,
    started: bool,
    remaining: u64,
}

impl TraceSource for ModelTraceSource<'_> {
    fn next_chunk(&mut self, buf: &mut [InstructionId]) -> Result<usize, ActivityError> {
        let model = self.model;
        let n = usize::try_from(self.remaining).map_or(buf.len(), |r| r.min(buf.len()));
        let mut slots = buf[..n].iter_mut();
        // The Markov state lives in locals for the whole chunk.
        let mut rng = self.rng.clone();
        let mut phase = self.phase;
        let mut current = self.current;
        if !self.started {
            if let Some(slot) = slots.next() {
                self.started = true;
                current = model.sample_base(&mut rng, phase);
                *slot = current;
            }
        }
        for slot in slots {
            if model.phases > 1 && rng.gen::<f64>() < model.phase_switch {
                phase = (phase + 1) % model.phases;
                current = model.sample_base(&mut rng, phase);
            } else if rng.gen::<f64>() >= model.persistence {
                current = model.sample_base(&mut rng, phase);
            }
            *slot = current;
        }
        self.rng = rng;
        self.phase = phase;
        self.current = current;
        self.remaining -= n as u64;
        Ok(n)
    }
}

/// Builder for [`CpuModel`]; see [`CpuModel::builder`].
#[derive(Clone, Debug)]
pub struct CpuModelBuilder {
    num_modules: usize,
    num_instructions: usize,
    usage_fraction: f64,
    persistence: f64,
    frequency_skew: f64,
    groups: usize,
    phases: usize,
    phase_length: usize,
    seed: u64,
}

impl CpuModelBuilder {
    /// Sets the number of instructions (default 32).
    #[must_use]
    pub fn instructions(mut self, k: usize) -> Self {
        self.num_instructions = k;
        self
    }

    /// Sets the average fraction of modules each instruction uses
    /// (default 0.4, the paper's ≈ 40 %). Must lie in (0, 1].
    #[must_use]
    pub fn usage_fraction(mut self, f: f64) -> Self {
        self.usage_fraction = f;
        self
    }

    /// Sets the Markov self-repeat probability (default 0.6). Must lie in
    /// [0, 1).
    #[must_use]
    pub fn persistence(mut self, p: f64) -> Self {
        self.persistence = p;
        self
    }

    /// Sets the Zipf exponent of the instruction mix (default 1.0; 0 means
    /// uniform). Must be ≥ 0.
    #[must_use]
    pub fn frequency_skew(mut self, s: f64) -> Self {
        self.frequency_skew = s;
        self
    }

    /// Partitions the modules into `g` functional groups with strongly
    /// correlated usage (default 0 = independent per-module usage).
    ///
    /// Real processors activate related datapath modules *together* — an
    /// FP instruction wakes the whole FP cluster. With groups, each
    /// instruction selects each group with probability `usage_fraction`
    /// and then uses the selected groups' modules almost completely
    /// (95 %), sprinkling 2 % background usage elsewhere; module `m`
    /// belongs to group `m % g`. This correlation is what lets subtree
    /// enables stay quiet — the structural property gated clock routing
    /// exploits.
    #[must_use]
    pub fn groups(mut self, g: usize) -> Self {
        self.groups = g;
        self
    }

    /// Splits the instruction mix into `p` round-robin program phases
    /// (instruction `i` belongs to phase `i % p`; default 1 = no phases).
    ///
    /// Real traces run in bursts — an integer loop, then an FP kernel —
    /// so class-level enables stay put for long stretches and toggle
    /// rarely. Phases reproduce that temporal structure; their mean
    /// duration is set by [`Self::phase_length`].
    #[must_use]
    pub fn phases(mut self, p: usize) -> Self {
        self.phases = p;
        self
    }

    /// Mean program-phase duration in cycles (default 500); only
    /// meaningful with [`Self::phases`] > 1.
    #[must_use]
    pub fn phase_length(mut self, cycles: usize) -> Self {
        self.phase_length = cycles;
        self
    }

    /// Sets the RNG seed (model generation *and* stream generation are
    /// deterministic functions of this).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the RTL and the instruction process.
    ///
    /// Every module is guaranteed to be used by at least one instruction,
    /// so no sink is trivially always-off.
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::InvalidParameter`] for out-of-range knobs,
    /// [`ActivityError::EmptyRtl`] when `num_modules` or
    /// `num_instructions` is zero, and [`ActivityError::CapacityExceeded`]
    /// for more than 65 536 instructions (the 16-bit
    /// [`InstructionId`] space), before anything is generated.
    pub fn build(self) -> Result<CpuModel, ActivityError> {
        if self.num_modules == 0 || self.num_instructions == 0 {
            return Err(ActivityError::EmptyRtl);
        }
        if self.num_instructions > MAX_INSTRUCTIONS {
            return Err(ActivityError::CapacityExceeded {
                instructions: self.num_instructions,
                limit: MAX_INSTRUCTIONS,
            });
        }
        if !(self.usage_fraction > 0.0 && self.usage_fraction <= 1.0) {
            return Err(ActivityError::InvalidParameter {
                name: "usage_fraction",
                value: self.usage_fraction,
            });
        }
        if !(0.0..1.0).contains(&self.persistence) {
            return Err(ActivityError::InvalidParameter {
                name: "persistence",
                value: self.persistence,
            });
        }
        if !(self.frequency_skew >= 0.0 && self.frequency_skew.is_finite()) {
            return Err(ActivityError::InvalidParameter {
                name: "frequency_skew",
                value: self.frequency_skew,
            });
        }
        if self.phases == 0 || self.phases > self.num_instructions {
            return Err(ActivityError::InvalidParameter {
                name: "phases",
                value: self.phases as f64,
            });
        }
        if self.phase_length == 0 {
            return Err(ActivityError::InvalidParameter {
                name: "phase_length",
                value: 0.0,
            });
        }

        let mut rng = StdRng::seed_from_u64(self.seed);

        // Per-instruction module usage. Ungrouped: each module joins each
        // instruction independently with probability `usage_fraction`.
        // Grouped: the instruction selects whole functional groups with
        // that probability and then uses their members almost completely,
        // which produces the correlated co-activity of real datapaths.
        let mut usage: Vec<Vec<usize>> = (0..self.num_instructions)
            .map(|_| {
                if self.groups == 0 {
                    (0..self.num_modules)
                        .filter(|_| rng.gen::<f64>() < self.usage_fraction)
                        .collect()
                } else {
                    // Hierarchical selection: instruction classes first
                    // pick among (up to) four supergroups, then groups
                    // within them, with √f probabilities each so the
                    // marginal group-selection rate stays `usage_fraction`.
                    // This mirrors real ISAs (integer / FP / memory /
                    // control classes) and keeps multi-group subtree
                    // enables well below 1.
                    let sg_count = if self.groups >= 4 { 4 } else { 1 };
                    let (p_super, p_group) = if sg_count > 1 {
                        (self.usage_fraction.sqrt(), self.usage_fraction.sqrt())
                    } else {
                        (1.0, self.usage_fraction)
                    };
                    let supers: Vec<bool> =
                        (0..sg_count).map(|_| rng.gen::<f64>() < p_super).collect();
                    let selected: Vec<bool> = (0..self.groups)
                        .map(|g| supers[g % sg_count] && rng.gen::<f64>() < p_group)
                        .collect();
                    (0..self.num_modules)
                        .filter(|m| {
                            let p = if selected[m % self.groups] {
                                0.95
                            } else {
                                0.005
                            };
                            rng.gen::<f64>() < p
                        })
                        .collect()
                }
            })
            .collect();
        // Guarantee non-empty instructions and full module coverage.
        for set in usage.iter_mut() {
            if set.is_empty() {
                set.push(rng.gen_range(0..self.num_modules));
            }
        }
        let mut covered = vec![false; self.num_modules];
        for set in &usage {
            for &m in set {
                covered[m] = true;
            }
        }
        for (m, c) in covered.iter().enumerate() {
            if !c {
                let k = rng.gen_range(0..self.num_instructions);
                usage[k].push(m);
            }
        }

        let mut builder = Rtl::builder(self.num_modules);
        for (k, set) in usage.iter().enumerate() {
            builder = builder.instruction(&format!("I{}", k + 1), set.iter().copied())?;
        }
        let rtl = builder.build()?;

        // Zipf-like base distribution.
        let mut base_probs: Vec<f64> = (0..self.num_instructions)
            .map(|k| 1.0 / ((k + 1) as f64).powf(self.frequency_skew))
            .collect();
        let total: f64 = base_probs.iter().sum();
        for p in base_probs.iter_mut() {
            *p /= total;
        }
        let mut cumulative = Vec::with_capacity(base_probs.len());
        let mut acc = 0.0;
        for &p in &base_probs {
            acc += p;
            cumulative.push(acc);
        }
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        let guide = guide_table(&cumulative);

        Ok(CpuModel {
            rtl,
            base_probs,
            cumulative,
            guide,
            persistence: self.persistence,
            phases: self.phases,
            phase_of: (0..self.num_instructions)
                .map(|i| i % self.phases)
                .collect(),
            phase_switch: 1.0 / self.phase_length as f64,
            seed: self.seed,
        })
    }
}

/// The base sampler's guide table over non-decreasing `cumulative`
/// values: G buckets, [`GUIDE_BUCKETS_PER_INSTRUCTION`]·K rounded up to a
/// power of two, bucket `b` holding `#{i : ⌊cumulative[i]·G⌋ < b}`.
/// Every value counted there lies below any `x` with `⌊x·G⌋ = b`, so
/// [`CpuModel::base_index`] may start its scan at that count.
fn guide_table(cumulative: &[f64]) -> Vec<u32> {
    let buckets = (cumulative.len() * GUIDE_BUCKETS_PER_INSTRUCTION).next_power_of_two();
    let scale = buckets as f64;
    let mut i = 0usize;
    (0..buckets)
        .map(|b| {
            while i < cumulative.len() && ((cumulative[i] * scale) as usize) < b {
                i += 1;
            }
            // At most K ≤ 2^16.
            i as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ActivityTables;

    #[test]
    fn model_is_deterministic_for_a_seed() {
        let a = CpuModel::builder(40).seed(11).build().unwrap();
        let b = CpuModel::builder(40).seed(11).build().unwrap();
        assert_eq!(a.generate_stream(200), b.generate_stream(200));
        let c = CpuModel::builder(40).seed(12).build().unwrap();
        assert_ne!(a.generate_stream(200), c.generate_stream(200));
    }

    #[test]
    fn usage_fraction_is_respected() {
        let m = CpuModel::builder(500)
            .instructions(20)
            .usage_fraction(0.4)
            .seed(3)
            .build()
            .unwrap();
        let f = m.rtl().avg_usage_fraction();
        assert!((f - 0.4).abs() < 0.05, "avg usage {f} far from 0.4");
    }

    #[test]
    fn every_module_is_used_somewhere() {
        let m = CpuModel::builder(200)
            .instructions(8)
            .usage_fraction(0.02) // sparse: coverage backfill must kick in
            .seed(5)
            .build()
            .unwrap();
        for module in 0..200 {
            let used = m.rtl().instruction_ids().any(|i| m.rtl().uses(i, module));
            assert!(used, "module {module} unused");
        }
    }

    #[test]
    fn stationary_distribution_matches_base() {
        let m = CpuModel::builder(30)
            .instructions(6)
            .persistence(0.7)
            .seed(9)
            .build()
            .unwrap();
        let stream = m.generate_stream(200_000);
        let mut counts = [0usize; 6];
        for &i in stream.instructions() {
            counts[i.index()] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            let empirical = c as f64 / stream.len() as f64;
            let expected = m.base_probabilities()[k];
            assert!(
                (empirical - expected).abs() < 0.02,
                "instruction {k}: empirical {empirical} vs base {expected}"
            );
        }
    }

    #[test]
    fn persistence_lowers_transition_probability() {
        let stats = |persistence: f64| {
            let m = CpuModel::builder(60)
                .instructions(12)
                .usage_fraction(0.3)
                .persistence(persistence)
                .seed(21)
                .build()
                .unwrap();
            let stream = m.generate_stream(30_000);
            let tables = ActivityTables::scan(m.rtl(), &stream);
            let set = crate::ModuleSet::with_modules(60, [0, 1, 2]);
            tables.enable_stats(&set).transition
        };
        assert!(
            stats(0.9) < stats(0.0),
            "high persistence must toggle enables less often"
        );
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(CpuModel::builder(10).usage_fraction(0.0).build().is_err());
        assert!(CpuModel::builder(10).usage_fraction(1.5).build().is_err());
        assert!(CpuModel::builder(10).persistence(1.0).build().is_err());
        assert!(CpuModel::builder(10).persistence(-0.1).build().is_err());
        assert!(CpuModel::builder(10).frequency_skew(-1.0).build().is_err());
        assert!(CpuModel::builder(0).build().is_err());
        assert!(CpuModel::builder(10).instructions(0).build().is_err());
    }

    #[test]
    #[should_panic(expected = "stream length")]
    fn one_cycle_stream_panics() {
        let m = CpuModel::builder(10).build().unwrap();
        let _ = m.generate_stream(1);
    }

    #[test]
    fn trace_source_is_bit_identical_to_generate_stream() {
        use crate::TraceSource;
        // Phased and unphased models, drained through ragged chunk sizes:
        // the incremental source must replay the exact RNG call sequence
        // of the materializing generator.
        for phases in [1usize, 3] {
            let m = CpuModel::builder(24)
                .instructions(9)
                .persistence(0.7)
                .phases(phases)
                .phase_length(50)
                .seed(41)
                .build()
                .unwrap();
            let oracle = m.generate_stream(2_000);
            let mut source = m.trace_source(2_000);
            let mut got = Vec::new();
            let mut buf = vec![InstructionId(0); 1];
            let mut chunk = 1usize;
            loop {
                buf.resize(chunk, InstructionId(0));
                let n = source.next_chunk(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
                chunk = chunk % 97 + 13; // ragged chunk sizes
            }
            assert_eq!(got, oracle.instructions());
        }
    }

    #[test]
    fn analytic_tables_match_long_streams() {
        let model = CpuModel::builder(30)
            .instructions(6)
            .usage_fraction(0.35)
            .persistence(0.7)
            .groups(3)
            .seed(77)
            .build()
            .unwrap();
        let analytic = model.analytic_tables().unwrap();
        let sampled = ActivityTables::scan(model.rtl(), &model.generate_stream(300_000));
        for mask in [0b1u32, 0b11, 0b10101, 0b111111] {
            let set =
                crate::ModuleSet::with_modules(30, (0..30).filter(|m| mask & (1 << (m % 6)) != 0));
            let a = analytic.enable_stats(&set);
            let s = sampled.enable_stats(&set);
            assert!(
                (a.signal - s.signal).abs() < 0.01,
                "signal {} vs {}",
                a.signal,
                s.signal
            );
            assert!(
                (a.transition - s.transition).abs() < 0.01,
                "transition {} vs {}",
                a.transition,
                s.transition
            );
        }
    }

    #[test]
    fn analytic_tables_reject_phases() {
        let model = CpuModel::builder(10)
            .instructions(4)
            .phases(2)
            .build()
            .unwrap();
        assert!(model.analytic_tables().is_err());
    }

    #[test]
    fn phases_slow_down_class_level_toggling() {
        // Instructions split into two phases; the set of modules touched
        // by phase-0 instructions should toggle far less often in a phased
        // stream than in an unphased one. The effect is statistical — a
        // single seed can land on an RTL where it is within noise — so the
        // tendency is asserted on the mean over several seeds.
        let build = |phases: usize, seed: u64| {
            CpuModel::builder(40)
                .instructions(8)
                .usage_fraction(0.3)
                .persistence(0.5)
                .groups(4)
                .phases(phases)
                .phase_length(400)
                .seed(seed)
                .build()
                .unwrap()
        };
        let toggling = |model: &CpuModel| {
            let stream = model.generate_stream(30_000);
            let tables = ActivityTables::scan(model.rtl(), &stream);
            // Modules used by instruction 0 (a phase-0 instruction).
            let set = model
                .rtl()
                .modules_used(model.rtl().instruction(0).unwrap())
                .clone();
            tables.enable_stats(&set).transition
        };
        let seeds = [31u64, 32, 33, 34, 35];
        let mean = |phases: usize| {
            seeds
                .iter()
                .map(|&s| toggling(&build(phases, s)))
                .sum::<f64>()
                / seeds.len() as f64
        };
        let phased = mean(2);
        let flat = mean(1);
        assert!(
            phased < flat,
            "phases must reduce class toggling on average: {phased} vs {flat}"
        );
    }

    #[test]
    fn phase_validation() {
        assert!(CpuModel::builder(10).phases(0).build().is_err());
        assert!(CpuModel::builder(10)
            .instructions(4)
            .phases(5)
            .build()
            .is_err());
        assert!(CpuModel::builder(10)
            .phase_length(0)
            .phases(2)
            .build()
            .is_err());
        assert!(CpuModel::builder(10)
            .instructions(4)
            .phases(2)
            .build()
            .is_ok());
    }

    #[test]
    fn grouped_usage_is_correlated_within_groups() {
        // Modules 0 and 8 share group 0; module 1 is in group 1. The union
        // with a same-group sibling should barely raise P(EN); a
        // cross-group union should raise it a lot. Any one sampled RTL can
        // blur the contrast, so the tendency is asserted on means over
        // several seeds.
        let g = 8;
        let seeds = [2u64, 3, 4, 5, 6];
        let mut single = 0.0;
        let mut same_group = 0.0;
        let mut cross_group = 0.0;
        let mut usage = 0.0;
        for &seed in &seeds {
            let m = CpuModel::builder(64)
                .instructions(16)
                .usage_fraction(0.4)
                .groups(g)
                .seed(seed)
                .build()
                .unwrap();
            let stream = m.generate_stream(20_000);
            let tables = ActivityTables::scan(m.rtl(), &stream);
            let p = |mods: &[usize]| {
                tables
                    .enable_stats(&crate::ModuleSet::with_modules(64, mods.iter().copied()))
                    .signal
            };
            single += p(&[0]);
            same_group += p(&[0, 8]);
            cross_group += p(&[0, 1]);
            usage += m.rtl().avg_usage_fraction();
        }
        let n = seeds.len() as f64;
        let (single, same_group, cross_group) = (single / n, same_group / n, cross_group / n);
        assert!(
            same_group - single < 0.1,
            "same-group union jumped from {single} to {same_group}"
        );
        assert!(
            cross_group > same_group + 0.05,
            "cross-group union {cross_group} should exceed same-group {same_group}"
        );
        // Average usage stays near the knob.
        let f = usage / n;
        assert!((f - 0.4).abs() < 0.12, "avg usage {f}");
    }

    #[test]
    fn instruction_count_beyond_the_id_space_is_rejected() {
        assert_eq!(
            CpuModel::builder(4)
                .instructions(65_537)
                .build()
                .unwrap_err(),
            ActivityError::CapacityExceeded {
                instructions: 65_537,
                limit: 65_536,
            }
        );
        let full = CpuModel::builder(1).instructions(65_536).build().unwrap();
        assert_eq!(full.rtl().num_instructions(), 65_536);
    }

    /// The index the sampler replaced: `binary_search_by(total_cmp)`,
    /// clamped to K − 1.
    fn binary_search_index(cumulative: &[f64], x: f64) -> usize {
        match cumulative.binary_search_by(|c| c.total_cmp(&x)) {
            Ok(i) | Err(i) => i.min(cumulative.len() - 1),
        }
    }

    /// The guide-table lookup returns the binary search's index on every
    /// cumulative value (the exact ties), on each value's neighbours, on
    /// both ends of `[0, 1)` and on random draws, including a skew so
    /// steep that the tail's cumulative values repeat.
    #[test]
    fn guide_table_matches_binary_search() {
        let models = [
            CpuModel::builder(8).instructions(1).build().unwrap(),
            CpuModel::builder(8).build().unwrap(),
            CpuModel::builder(8)
                .instructions(65)
                .frequency_skew(0.0)
                .build()
                .unwrap(),
            CpuModel::builder(8)
                .instructions(1_000)
                .frequency_skew(1.3)
                .build()
                .unwrap(),
            CpuModel::builder(8)
                .instructions(64)
                .frequency_skew(400.0)
                .build()
                .unwrap(),
        ];
        let steep = &models[4].cumulative;
        assert!(steep.windows(2).any(|w| w[0] == w[1]), "tail must repeat");
        let mut rng = StdRng::seed_from_u64(5);
        for model in &models {
            let cum = &model.cumulative;
            let mut xs = vec![0.0, 1.0f64.next_down()];
            for &c in cum {
                xs.extend([c, c.next_up(), c.next_down()]);
            }
            xs.extend((0..10_000).map(|_| rng.gen::<f64>()));
            for x in xs {
                assert_eq!(
                    model.base_index(x),
                    binary_search_index(cum, x),
                    "K = {}, x = {x:e}",
                    cum.len()
                );
            }
        }
    }

    #[test]
    fn zipf_skew_orders_frequencies() {
        let m = CpuModel::builder(20)
            .instructions(8)
            .frequency_skew(1.5)
            .build()
            .unwrap();
        let p = m.base_probabilities();
        for w in p.windows(2) {
            assert!(w[0] >= w[1], "Zipf probabilities must be non-increasing");
        }
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
