use std::fmt;

use gcr_cts::Sink;
use gcr_geometry::{BBox, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The five benchmarks of Tsay's zero-skew suite used in §5, identified by
/// their published sink counts, plus three synthetic scale extensions
/// (r6–r8) that keep the suite's constant sink density while growing the
/// instance to ~30k, ~300k and 1M sinks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TsayBenchmark {
    /// 267 sinks.
    R1,
    /// 598 sinks.
    R2,
    /// 862 sinks.
    R3,
    /// 1903 sinks.
    R4,
    /// 3101 sinks.
    R5,
    /// 30 000 sinks (synthetic scale extension).
    R6,
    /// 300 000 sinks (synthetic scale extension).
    R7,
    /// 1 000 000 sinks (synthetic scale extension).
    R8,
}

impl TsayBenchmark {
    /// The five published benchmarks, in order. Scale extensions live in
    /// [`Self::SCALED`] so that suite-wide defaults (CI audits, the full
    /// bench run) stay at the paper's published sizes.
    pub const ALL: [TsayBenchmark; 5] = [
        TsayBenchmark::R1,
        TsayBenchmark::R2,
        TsayBenchmark::R3,
        TsayBenchmark::R4,
        TsayBenchmark::R5,
    ];

    /// The synthetic scale extensions, in order. Opt-in: these are
    /// requested by name, never swept by default.
    pub const SCALED: [TsayBenchmark; 3] =
        [TsayBenchmark::R6, TsayBenchmark::R7, TsayBenchmark::R8];

    /// The published (r1–r5) or synthetic (r6–r8) sink count.
    #[must_use]
    pub fn num_sinks(self) -> usize {
        match self {
            TsayBenchmark::R1 => 267,
            TsayBenchmark::R2 => 598,
            TsayBenchmark::R3 => 862,
            TsayBenchmark::R4 => 1903,
            TsayBenchmark::R5 => 3101,
            TsayBenchmark::R6 => 30_000,
            TsayBenchmark::R7 => 300_000,
            TsayBenchmark::R8 => 1_000_000,
        }
    }

    /// The benchmark's conventional name (`"r1"` … `"r8"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TsayBenchmark::R1 => "r1",
            TsayBenchmark::R2 => "r2",
            TsayBenchmark::R3 => "r3",
            TsayBenchmark::R4 => "r4",
            TsayBenchmark::R5 => "r5",
            TsayBenchmark::R6 => "r6",
            TsayBenchmark::R7 => "r7",
            TsayBenchmark::R8 => "r8",
        }
    }

    /// Resolves a [`Self::name`] (`"r1"` … `"r8"`) back to the benchmark.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .chain(Self::SCALED)
            .find(|b| b.name() == name)
    }

    /// Synthetic die side: sink density is held constant across the suite
    /// (side ∝ √N, anchored at 30 000 λ for r1).
    #[must_use]
    pub fn die_side(self) -> f64 {
        30_000.0 * (self.num_sinks() as f64 / 267.0).sqrt()
    }
}

impl fmt::Display for TsayBenchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A routable benchmark instance: named sink set plus die outline.
#[derive(Clone, Debug, PartialEq)]
pub struct Benchmark {
    /// Conventional name (`"r1"` …).
    pub name: String,
    /// Sink locations and loads; sink `i` is module `i`.
    pub sinks: Vec<Sink>,
    /// The die outline (controller partitioning, clock source placement).
    pub die: BBox,
}

impl Benchmark {
    /// Synthesizes a Tsay-suite benchmark: `which.num_sinks()` sinks
    /// placed uniformly at random over the √N-scaled die, loads drawn
    /// uniformly from 0.02–0.08 pF (the range of the zero-skew
    /// literature). Deterministic in `seed`.
    #[must_use]
    pub fn tsay(which: TsayBenchmark, seed: u64) -> Self {
        let side = which.die_side();
        let mut rng = StdRng::seed_from_u64(seed ^ (which.num_sinks() as u64));
        let sinks = (0..which.num_sinks())
            .map(|_| {
                let x = rng.gen_range(0.0..side);
                let y = rng.gen_range(0.0..side);
                let cap = rng.gen_range(0.02..0.08);
                Sink::new(Point::new(x, y), cap)
            })
            .collect();
        Self {
            name: which.name().to_owned(),
            sinks,
            die: BBox::new(Point::new(0.0, 0.0), Point::new(side, side)),
        }
    }

    /// Synthesizes a Tsay-suite benchmark whose sinks form `clusters`
    /// spatial clusters, with sink `i` in cluster `i % clusters` — a
    /// floorplanned layout where functionally related modules (same
    /// activity group in [`gcr_activity::CpuModel`]) sit together.
    ///
    /// Cluster centers are placed uniformly at random, with a margin so
    /// clusters stay on-die; members scatter uniformly within a square of
    /// side `die_side / √clusters` around their center.
    ///
    /// # Panics
    ///
    /// Panics if `clusters == 0`.
    #[must_use]
    pub fn tsay_clustered(which: TsayBenchmark, seed: u64, clusters: usize) -> Self {
        assert!(clusters > 0, "need at least one cluster");
        let side = which.die_side();
        let mut rng = StdRng::seed_from_u64(seed ^ (which.num_sinks() as u64) ^ 0xC1D5);
        let spread = side / (clusters as f64).sqrt();
        // Cluster `g` of a >=4-cluster benchmark lives in die quadrant
        // `g % 4`, matching the activity model's supergroup structure —
        // functionally related logic is floorplanned together.
        let sample_in = |rng: &mut StdRng, lo: f64, hi: f64| {
            let margin = (spread / 2.0).min((hi - lo) / 2.0 - 1e-9).max(0.0);
            if lo + margin < hi - margin {
                rng.gen_range(lo + margin..hi - margin)
            } else {
                (lo + hi) / 2.0
            }
        };
        let half = side / 2.0;
        let centers: Vec<Point> = (0..clusters)
            .map(|g| {
                let (x0, y0) = if clusters >= 4 {
                    match g % 4 {
                        0 => (0.0, 0.0),
                        1 => (half, 0.0),
                        2 => (0.0, half),
                        _ => (half, half),
                    }
                } else {
                    (0.0, 0.0)
                };
                let (x1, y1) = if clusters >= 4 {
                    (x0 + half, y0 + half)
                } else {
                    (side, side)
                };
                let x = sample_in(&mut rng, x0, x1);
                let y = sample_in(&mut rng, y0, y1);
                Point::new(x, y)
            })
            .collect();
        let sinks = (0..which.num_sinks())
            .map(|i| {
                let c = centers[i % clusters];
                let x = c.x + rng.gen_range(-spread / 2.0..spread / 2.0);
                let y = c.y + rng.gen_range(-spread / 2.0..spread / 2.0);
                Sink::new(Point::new(x, y), rng.gen_range(0.02..0.08))
            })
            .collect();
        Self {
            name: which.name().to_owned(),
            sinks,
            die: BBox::new(Point::new(0.0, 0.0), Point::new(side, side)),
        }
    }

    /// A small uniform benchmark for examples and quick tests.
    ///
    /// # Panics
    ///
    /// Panics if `num_sinks` is zero.
    #[must_use]
    pub fn uniform(num_sinks: usize, side: f64, seed: u64) -> Self {
        assert!(num_sinks > 0, "benchmark needs at least one sink");
        let mut rng = StdRng::seed_from_u64(seed);
        let sinks = (0..num_sinks)
            .map(|_| {
                Sink::new(
                    Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)),
                    rng.gen_range(0.02..0.08),
                )
            })
            .collect();
        Self {
            name: format!("uniform{num_sinks}"),
            sinks,
            die: BBox::new(Point::new(0.0, 0.0), Point::new(side, side)),
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} sinks, {:.0}λ die)",
            self.name,
            self.sinks.len(),
            self.die.width()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_sink_counts() {
        let counts: Vec<usize> = TsayBenchmark::ALL.iter().map(|b| b.num_sinks()).collect();
        assert_eq!(counts, vec![267, 598, 862, 1903, 3101]);
    }

    #[test]
    fn benchmark_is_deterministic_and_in_die() {
        let a = Benchmark::tsay(TsayBenchmark::R1, 42);
        let b = Benchmark::tsay(TsayBenchmark::R1, 42);
        assert_eq!(a, b);
        assert_eq!(a.sinks.len(), 267);
        for s in &a.sinks {
            assert!(a.die.contains(s.location()));
            assert!((0.02..0.08).contains(&s.cap()));
        }
        let c = Benchmark::tsay(TsayBenchmark::R1, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn from_name_covers_suite_and_scaled() {
        assert_eq!(TsayBenchmark::from_name("r1"), Some(TsayBenchmark::R1));
        assert_eq!(TsayBenchmark::from_name("r5"), Some(TsayBenchmark::R5));
        assert_eq!(TsayBenchmark::from_name("r8"), Some(TsayBenchmark::R8));
        assert_eq!(TsayBenchmark::from_name("r9"), None);
    }

    #[test]
    fn density_is_constant_across_suite() {
        let density = |b: TsayBenchmark| b.num_sinks() as f64 / (b.die_side() * b.die_side());
        let d1 = density(TsayBenchmark::R1);
        for b in TsayBenchmark::ALL.into_iter().chain(TsayBenchmark::SCALED) {
            assert!((density(b) - d1).abs() / d1 < 1e-9, "{b} density differs");
        }
    }

    #[test]
    fn scaled_extensions_are_separate_from_the_published_suite() {
        let counts: Vec<usize> = TsayBenchmark::SCALED
            .iter()
            .map(|b| b.num_sinks())
            .collect();
        assert_eq!(counts, vec![30_000, 300_000, 1_000_000]);
        let names: Vec<&str> = TsayBenchmark::SCALED.iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["r6", "r7", "r8"]);
        for b in TsayBenchmark::SCALED {
            assert!(!TsayBenchmark::ALL.contains(&b), "{b} must stay opt-in");
        }
    }

    #[test]
    fn uniform_benchmark() {
        let b = Benchmark::uniform(10, 1000.0, 7);
        assert_eq!(b.sinks.len(), 10);
        assert_eq!(b.die.width(), 1000.0);
        assert!(format!("{b}").contains("10 sinks"));
    }

    #[test]
    #[should_panic(expected = "at least one sink")]
    fn zero_sinks_panics() {
        let _ = Benchmark::uniform(0, 100.0, 0);
    }

    #[test]
    fn display_names() {
        assert_eq!(TsayBenchmark::R3.to_string(), "r3");
        assert!(Benchmark::tsay(TsayBenchmark::R2, 0)
            .to_string()
            .contains("r2"));
    }
}
