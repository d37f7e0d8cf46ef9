use std::fmt;

use crate::{InstructionId, InstructionStream, Rtl};

/// Summary statistics of an instruction stream against an RTL description —
/// the quantities reported in Table 4 of the paper.
///
/// ```
/// use gcr_activity::{paper_example_rtl, InstructionStream, StreamStats};
///
/// let rtl = paper_example_rtl();
/// let s = InstructionStream::from_indices(&rtl, [0, 1, 2, 3, 0, 0])?;
/// let stats = StreamStats::collect(&rtl, &s);
/// assert_eq!(stats.num_cycles, 6);
/// assert!(stats.avg_module_activity > 0.0 && stats.avg_module_activity < 1.0);
/// # Ok::<(), gcr_activity::ActivityError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct StreamStats {
    /// Number of cycles in the stream (Table 4's "No. of instr").
    pub num_cycles: usize,
    /// Number of distinct instructions in the RTL.
    pub num_instructions: usize,
    /// Number of modules in the universe.
    pub num_modules: usize,
    /// Average fraction of modules active per cycle — Table 4's
    /// `Ave(M(I))`, "about 40 % of the modules are active at any given
    /// time".
    pub avg_module_activity: f64,
    /// Per-module signal probability `P(M_j)`.
    pub module_activity: Vec<f64>,
}

/// `num / den`, defined as 0 when the denominator is 0: an empty
/// instruction stream or a zero-module universe has no activity, and a
/// 0/0 here would otherwise surface as NaN probabilities that poison
/// every downstream Equation-3 cost.
fn ratio_or_zero(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl StreamStats {
    /// Collects the statistics in `O(B + Σ|M(I_k)|)`: one pass counts the
    /// cycles of each instruction, then each instruction's count is added
    /// to every module it uses. The integer counts equal a per-cycle walk
    /// over each cycle's modules, so every field is bit-identical to it.
    ///
    /// Degenerate inputs produce well-defined zeros rather than NaN:
    /// with no cycles or no modules, `avg_module_activity` and every
    /// `module_activity` entry are 0.
    #[must_use]
    pub fn collect(rtl: &Rtl, stream: &InstructionStream) -> Self {
        Self::from_ids(rtl, stream.instructions())
    }

    /// [`Self::collect`] over raw ids, at any length: the tests reach the
    /// empty and one-cycle guards through it.
    fn from_ids(rtl: &Rtl, ids: &[InstructionId]) -> Self {
        let n = rtl.num_modules();
        let mut cycles_of = vec![0usize; rtl.num_instructions()];
        for &i in ids {
            cycles_of[i.index()] += 1;
        }
        let mut active_cycles = vec![0usize; n];
        let mut active_total = 0usize;
        for (i, &count) in rtl.instruction_ids().zip(&cycles_of) {
            if count == 0 {
                continue;
            }
            let used = rtl.modules_used(i);
            active_total += count * used.len();
            for m in used.iter() {
                active_cycles[m] += count;
            }
        }
        let b = ids.len() as f64;
        Self {
            num_cycles: ids.len(),
            num_instructions: rtl.num_instructions(),
            num_modules: n,
            avg_module_activity: ratio_or_zero(active_total as f64, b * n as f64),
            module_activity: active_cycles
                .iter()
                .map(|&c| ratio_or_zero(c as f64, b))
                .collect(),
        }
    }
}

impl fmt::Display for StreamStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles, {} instructions, {} modules, avg activity {:.1}%",
            self.num_cycles,
            self.num_instructions,
            self.num_modules,
            100.0 * self.avg_module_activity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper_example_rtl, ActivityTables, CpuModel, ModuleSet};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-cycle walk: every cycle adds one to each module its
    /// instruction uses. The oracle the count-based `collect` must match
    /// bit for bit.
    fn per_cycle_oracle(rtl: &Rtl, ids: &[InstructionId]) -> StreamStats {
        let n = rtl.num_modules();
        let mut active_cycles = vec![0usize; n];
        let mut active_total = 0usize;
        for &i in ids {
            let used = rtl.modules_used(i);
            active_total += used.len();
            for m in used.iter() {
                active_cycles[m] += 1;
            }
        }
        let b = ids.len() as f64;
        StreamStats {
            num_cycles: ids.len(),
            num_instructions: rtl.num_instructions(),
            num_modules: n,
            avg_module_activity: ratio_or_zero(active_total as f64, b * n as f64),
            module_activity: active_cycles
                .iter()
                .map(|&c| ratio_or_zero(c as f64, b))
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Count-based statistics == the per-cycle walk, every field to
        /// the bit, over instruction counts and module universes around
        /// word boundaries and streams short enough to hit the zero
        /// guards.
        #[test]
        fn counts_match_per_cycle_walk(
            k in prop_oneof![Just(1usize), Just(2), Just(32), Just(65)],
            modules in prop_oneof![Just(1usize), Just(63), Just(64), Just(65), Just(1_903)],
            len in prop_oneof![Just(0usize), Just(1), Just(2), Just(20_000)],
            density in 0.01..0.9f64,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut builder = Rtl::builder(modules);
            for i in 0..k {
                let mut used: Vec<usize> =
                    (0..modules).filter(|_| rng.gen::<f64>() < density).collect();
                if used.is_empty() {
                    used.push(rng.gen_range(0..modules));
                }
                builder = builder.instruction(&format!("I{i}"), used).unwrap();
            }
            let rtl = builder.build().unwrap();
            // A skewed mix, so some instructions never run.
            let ids: Vec<InstructionId> = (0..len)
                .map(|_| {
                    let x: f64 = rng.gen();
                    rtl.instruction(((x * x * x) * k as f64) as usize).unwrap()
                })
                .collect();
            let got = StreamStats::from_ids(&rtl, &ids);
            let want = per_cycle_oracle(&rtl, &ids);
            prop_assert_eq!(got.num_cycles, want.num_cycles);
            prop_assert_eq!(got.num_instructions, want.num_instructions);
            prop_assert_eq!(got.num_modules, want.num_modules);
            prop_assert_eq!(
                got.avg_module_activity.to_bits(),
                want.avg_module_activity.to_bits()
            );
            let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got.module_activity), bits(&want.module_activity));
        }
    }

    #[test]
    fn per_module_activity_matches_brute_force() {
        let rtl = paper_example_rtl();
        let s = InstructionStream::from_indices(&rtl, [0, 1, 2, 3, 0, 2]).unwrap();
        let stats = StreamStats::collect(&rtl, &s);
        for m in 0..6 {
            let set = ModuleSet::with_modules(6, [m]);
            assert!((stats.module_activity[m] - s.signal_probability(&rtl, &set)).abs() < 1e-12);
        }
    }

    #[test]
    fn stream_scan_and_tables_agree() {
        let model = CpuModel::builder(50)
            .instructions(10)
            .seed(42)
            .build()
            .unwrap();
        let stream = model.generate_stream(5_000);
        let scanned = StreamStats::collect(model.rtl(), &stream);
        let tables = ActivityTables::scan(model.rtl(), &stream);
        let n = scanned.num_modules;
        for (m, a) in scanned.module_activity.iter().enumerate() {
            let tabled = tables.enable_stats(&ModuleSet::with_modules(n, [m])).signal;
            assert!((a - tabled).abs() < 1e-9);
        }
    }

    #[test]
    fn avg_activity_is_mean_of_module_activities() {
        let rtl = paper_example_rtl();
        let s = InstructionStream::from_indices(&rtl, [0, 0, 1, 2, 3, 1]).unwrap();
        let stats = StreamStats::collect(&rtl, &s);
        let mean: f64 = stats.module_activity.iter().sum::<f64>() / stats.num_modules as f64;
        assert!((stats.avg_module_activity - mean).abs() < 1e-12);
    }

    /// Regression: the stats divisions must never produce NaN. The public
    /// constructors reject empty streams and zero-module RTLs, so the
    /// guard is exercised directly: a zero denominator yields 0, and the
    /// smallest legal inputs stay finite end to end.
    #[test]
    fn degenerate_inputs_yield_zeros_not_nan() {
        // The raw guard: 0/0 and x/0 are defined as 0.
        assert_eq!(ratio_or_zero(0.0, 0.0), 0.0);
        assert_eq!(ratio_or_zero(3.0, 0.0), 0.0);
        assert!((ratio_or_zero(3.0, 4.0) - 0.75).abs() < 1e-12);

        // Smallest legal inputs (B = 2 cycles, one instruction, one
        // module): every statistic stays finite, and a module the stream
        // never exercises reports exactly 0.
        let rtl = Rtl::builder(2)
            .instruction("I1", [0])
            .unwrap()
            .build()
            .unwrap();
        let s = InstructionStream::from_indices(&rtl, [0, 0]).unwrap();
        let stats = StreamStats::collect(&rtl, &s);
        assert!(stats.avg_module_activity.is_finite());
        assert!(stats.module_activity.iter().all(|p| p.is_finite()));
        assert_eq!(stats.module_activity[1], 0.0);
    }

    #[test]
    fn scan_traced_reports_spans_and_counters() {
        use gcr_trace::{MemorySink, Tracer};
        use std::sync::Arc;

        let rtl = paper_example_rtl();
        let s = InstructionStream::from_indices(&rtl, [0, 1, 2, 3, 0, 2]).unwrap();
        let sink = Arc::new(MemorySink::new());
        let plain = ActivityTables::scan(&rtl, &s);
        let traced = {
            let _entered = Tracer::new(sink.clone()).enter();
            ActivityTables::scan(&rtl, &s)
        };
        assert_eq!(traced.ift(), plain.ift());
        assert_eq!(traced.itmatt(), plain.itmatt());
        let nesting = sink.nesting().unwrap();
        assert_eq!(
            nesting,
            vec![
                ("activity.scan", 0),
                ("activity.chunks", 1),
                ("activity.merge", 1)
            ]
        );
        assert_eq!(sink.counter("activity.cycles"), Some(6.0));
        assert_eq!(sink.counter("activity.instructions"), Some(4.0));
        assert_eq!(sink.counter("activity.modules"), Some(6.0));
    }

    #[test]
    fn display_shows_percentage() {
        let rtl = paper_example_rtl();
        let s = InstructionStream::from_indices(&rtl, [0, 1]).unwrap();
        assert!(format!("{}", StreamStats::collect(&rtl, &s)).contains('%'));
    }
}
