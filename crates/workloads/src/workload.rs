use std::fmt;

use gcr_activity::{ActivityError, ActivityTables, CpuModel, InstructionStream, StreamStats};

use crate::{Benchmark, TsayBenchmark};

/// Parameters of the synthetic CPU activity model driving a benchmark —
/// the knobs of Table 4 and the sweep axes of Figures 4 and 5.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadParams {
    /// Number of instructions in the synthetic ISA (Table 4's instruction
    /// column; default 32).
    pub instructions: usize,
    /// Average fraction of modules each instruction uses (Table 4's
    /// `Ave(M(I))` ≈ 40 %; the Fig. 4 sweep axis).
    pub usage_fraction: f64,
    /// Probability that the next cycle repeats the current instruction
    /// (controls enable toggle rates and hence `W(S)`).
    pub persistence: f64,
    /// Instruction stream length ("the length of the instruction stream
    /// was 20 thousands for all the benchmarks").
    pub stream_len: usize,
    /// Number of functional groups: modules within a group are co-active
    /// and co-located (see [`gcr_activity::CpuModelBuilder::groups`] and
    /// [`Benchmark::tsay_clustered`]); 0 disables both correlations.
    pub groups: usize,
    /// Seed for both the CPU model and the stream.
    pub seed: u64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        Self {
            instructions: 32,
            usage_fraction: 0.4,
            persistence: 0.75,
            stream_len: 20_000,
            groups: 16,
            seed: 1998,
        }
    }
}

impl WorkloadParams {
    /// A fast preset for benchmark harnesses and CI smoke runs: the
    /// paper's activity model with a much shorter instruction stream.
    /// Probabilities are noisier than the 20k-cycle default but every
    /// derived quantity stays well-defined, which is all a perf baseline
    /// needs.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            stream_len: 2_000,
            ..Self::default()
        }
    }

    /// The same parameters with a different average module activity — the
    /// Fig. 4 sweep.
    #[must_use]
    pub fn with_usage_fraction(mut self, f: f64) -> Self {
        self.usage_fraction = f;
        self
    }

    /// The same parameters with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The same parameters with a different instruction count.
    #[must_use]
    pub fn with_instructions(mut self, k: usize) -> Self {
        self.instructions = k;
        self
    }

    /// The same parameters with a different Markov persistence.
    #[must_use]
    pub fn with_persistence(mut self, p: f64) -> Self {
        self.persistence = p;
        self
    }

    /// The same parameters with a different stream length.
    #[must_use]
    pub fn with_stream_len(mut self, len: usize) -> Self {
        self.stream_len = len;
        self
    }

    /// The same parameters with a different functional-group count.
    #[must_use]
    pub fn with_groups(mut self, groups: usize) -> Self {
        self.groups = groups;
        self
    }
}

/// A complete experiment input: benchmark geometry plus the activity
/// tables and stream statistics derived from a generated instruction
/// stream.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Sink set and die.
    pub benchmark: Benchmark,
    /// IFT/ITMATT bundle for probability queries.
    pub tables: ActivityTables,
    /// Table-4 style stream statistics.
    pub stats: StreamStats,
    /// The parameters the workload was generated with.
    pub params: WorkloadParams,
}

/// Sink counts up to this run the paper's one-module-per-sink model
/// verbatim (covers all of r1–r5).
pub const MODULE_IDENTITY_LIMIT: usize = 4_096;

/// Module count used above [`MODULE_IDENTITY_LIMIT`]: the scale
/// benchmarks (r6–r8) gate many sinks per module, like a real design
/// where a module drives a whole register bank. Keeping the module space
/// bounded keeps the per-node module-set words (and the activity tables)
/// O(sinks), not O(sinks²).
pub const CLAMPED_MODULES: usize = 1_024;

impl Workload {
    /// Number of activity-model modules used for `num_sinks` sinks: one
    /// per sink up to [`MODULE_IDENTITY_LIMIT`], then clamped to
    /// [`CLAMPED_MODULES`].
    #[must_use]
    pub fn num_modules_for(num_sinks: usize) -> usize {
        if num_sinks <= MODULE_IDENTITY_LIMIT {
            num_sinks
        } else {
            CLAMPED_MODULES
        }
    }

    /// The sink→module gating map matching this workload's tables:
    /// the identity when the model has one module per sink, otherwise
    /// sink `i` gates on module `i mod modules` (sinks of one module
    /// stay co-located under clustered placement, which assigns cluster
    /// `i % clusters` the same way).
    #[must_use]
    pub fn module_of(&self) -> Vec<usize> {
        let modules = self.tables.rtl().num_modules();
        (0..self.benchmark.sinks.len())
            .map(|i| i % modules)
            .collect()
    }

    /// Generates the workload for a Tsay benchmark: synthesized sinks plus
    /// a CPU model with one module per sink (clamped on the scale
    /// benchmarks — see [`Workload::num_modules_for`]).
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError`] when the parameters are out of range
    /// (e.g. `usage_fraction` not in (0, 1]).
    pub fn generate(which: TsayBenchmark, params: &WorkloadParams) -> Result<Self, ActivityError> {
        let benchmark = if params.groups > 0 {
            Benchmark::tsay_clustered(which, params.seed, params.groups)
        } else {
            Benchmark::tsay(which, params.seed)
        };
        Self::for_benchmark(benchmark, params)
    }

    /// Generates the activity side of a workload for an arbitrary
    /// benchmark. Records workload-synthesis spans on
    /// [`Tracer::current`](gcr_trace::Tracer::current):
    /// `workload.generate` wraps model construction, stream generation
    /// and the [`ActivityTables`] scan (whose `activity.*` spans nest
    /// underneath).
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError`] when the parameters are out of range,
    /// including [`ActivityError::InvalidParameter`] for a `stream_len`
    /// below 2 (the tables need at least one instruction pair).
    pub fn for_benchmark(
        benchmark: Benchmark,
        params: &WorkloadParams,
    ) -> Result<Self, ActivityError> {
        if params.stream_len < 2 {
            return Err(ActivityError::InvalidParameter {
                name: "stream_len",
                value: params.stream_len as f64,
            });
        }
        let tracer = gcr_trace::Tracer::current();
        let _generate = tracer.span("workload.generate");
        let model = {
            let _span = tracer.span("workload.model");
            CpuModel::builder(Self::num_modules_for(benchmark.sinks.len()))
                .instructions(params.instructions)
                .usage_fraction(params.usage_fraction)
                .persistence(params.persistence)
                .groups(params.groups)
                .seed(params.seed)
                .build()?
        };
        let stream: InstructionStream = {
            let _span = tracer.span("workload.stream");
            model.generate_stream(params.stream_len)
        };
        let tables = ActivityTables::scan(model.rtl(), &stream);
        let stats = {
            let _span = tracer.span("workload.stats");
            StreamStats::collect(model.rtl(), &stream)
        };
        tracer.counter("workload.sinks", benchmark.sinks.len() as f64);
        Ok(Self {
            benchmark,
            tables,
            stats,
            params: *params,
        })
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.benchmark, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_match_paper() {
        let p = WorkloadParams::default();
        assert_eq!(p.instructions, 32);
        assert_eq!(p.stream_len, 20_000);
        assert!((p.usage_fraction - 0.4).abs() < 1e-12);
    }

    #[test]
    fn workload_ties_modules_to_sinks() {
        let params = WorkloadParams {
            stream_len: 2_000,
            ..WorkloadParams::default()
        };
        let w = Workload::generate(TsayBenchmark::R1, &params).unwrap();
        assert_eq!(w.benchmark.sinks.len(), 267);
        assert_eq!(w.tables.rtl().num_modules(), 267);
        assert_eq!(w.stats.num_cycles, 2_000);
        // Table 4: "about 40% of the modules are active at any given time".
        assert!(
            (w.stats.avg_module_activity - 0.4).abs() < 0.12,
            "avg activity {}",
            w.stats.avg_module_activity
        );
        // One module per sink at published sizes: the map is the identity.
        assert_eq!(w.module_of(), (0..267).collect::<Vec<_>>());
    }

    #[test]
    fn streams_shorter_than_two_cycles_are_a_parameter_error() {
        for stream_len in [0, 1] {
            let params = WorkloadParams::smoke().with_stream_len(stream_len);
            let bench = Benchmark::uniform(8, 1_000.0, 3);
            assert_eq!(
                Workload::for_benchmark(bench, &params).unwrap_err(),
                ActivityError::InvalidParameter {
                    name: "stream_len",
                    value: stream_len as f64,
                }
            );
            assert!(Workload::generate(TsayBenchmark::R1, &params).is_err());
        }
    }

    #[test]
    fn module_count_clamps_at_scale() {
        assert_eq!(Workload::num_modules_for(267), 267);
        assert_eq!(Workload::num_modules_for(MODULE_IDENTITY_LIMIT), 4_096);
        assert_eq!(Workload::num_modules_for(30_000), CLAMPED_MODULES);
        assert_eq!(Workload::num_modules_for(1_000_000), CLAMPED_MODULES);
        // A clamped workload's map wraps and never references a module
        // the tables don't have.
        let params = WorkloadParams::smoke();
        let bench = Benchmark::uniform(MODULE_IDENTITY_LIMIT + 5, 1_000.0, 3);
        let w = Workload::for_benchmark(bench, &params).unwrap();
        assert_eq!(w.tables.rtl().num_modules(), CLAMPED_MODULES);
        let map = w.module_of();
        assert_eq!(map.len(), MODULE_IDENTITY_LIMIT + 5);
        assert_eq!(map[CLAMPED_MODULES], 0);
        assert!(map.iter().all(|&m| m < CLAMPED_MODULES));
    }

    #[test]
    fn smoke_preset_only_shortens_the_stream() {
        let smoke = WorkloadParams::smoke();
        let full = WorkloadParams::default();
        assert!(smoke.stream_len < full.stream_len);
        assert_eq!(
            WorkloadParams {
                stream_len: full.stream_len,
                ..smoke
            },
            full
        );
        let w = Workload::generate(TsayBenchmark::R1, &smoke).unwrap();
        assert_eq!(w.stats.num_cycles, smoke.stream_len);
    }

    #[test]
    fn builder_style_setters() {
        let p = WorkloadParams::default()
            .with_instructions(8)
            .with_persistence(0.5)
            .with_stream_len(1_234)
            .with_groups(2)
            .with_seed(9)
            .with_usage_fraction(0.2);
        assert_eq!(p.instructions, 8);
        assert_eq!(p.persistence, 0.5);
        assert_eq!(p.stream_len, 1_234);
        assert_eq!(p.groups, 2);
        assert_eq!(p.seed, 9);
        assert_eq!(p.usage_fraction, 0.2);
    }

    #[test]
    fn usage_sweep_moves_average_activity() {
        let base = WorkloadParams {
            stream_len: 2_000,
            ..WorkloadParams::default()
        };
        let lo = Workload::generate(TsayBenchmark::R1, &base.with_usage_fraction(0.1)).unwrap();
        let hi = Workload::generate(TsayBenchmark::R1, &base.with_usage_fraction(0.8)).unwrap();
        assert!(lo.stats.avg_module_activity < 0.2);
        assert!(hi.stats.avg_module_activity > 0.6);
    }

    #[test]
    fn invalid_params_bubble_up() {
        let params = WorkloadParams::default().with_usage_fraction(0.0);
        assert!(Workload::generate(TsayBenchmark::R1, &params).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let p = WorkloadParams {
            stream_len: 1_000,
            ..WorkloadParams::default()
        };
        let a = Workload::generate(TsayBenchmark::R1, &p).unwrap();
        let b = Workload::generate(TsayBenchmark::R1, &p).unwrap();
        assert_eq!(a.benchmark, b.benchmark);
        assert_eq!(a.stats, b.stats);
        let c = Workload::generate(TsayBenchmark::R1, &p.with_seed(7)).unwrap();
        assert_ne!(a.benchmark, c.benchmark);
    }

    #[test]
    fn display_summarizes() {
        let p = WorkloadParams {
            stream_len: 500,
            ..WorkloadParams::default()
        };
        let w = Workload::generate(TsayBenchmark::R1, &p).unwrap();
        let s = format!("{w}");
        assert!(s.contains("r1") && s.contains('%'));
    }
}
