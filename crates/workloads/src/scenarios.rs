//! Scenario presets for production-length activity traces.
//!
//! The paper drives every benchmark with one 20k-cycle stream; real
//! workloads differ in *temporal texture*, which is what gate-reduction
//! decisions (§4.3) are sensitive to. Each preset fixes the knobs of a
//! [`CpuModel`] to a characteristic texture and is meant to be streamed
//! at 10⁶–10⁸ cycles through [`gcr_activity::scan_source`] — the model
//! generates incrementally, so no preset ever materializes its trace.

use gcr_activity::{ActivityError, CpuModel};

/// A named activity-trace texture at production length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActivityScenario {
    /// Long quiet stretches punctuated by dense activity: very high
    /// persistence plus a few long-lived program phases. Enables toggle
    /// rarely; gate-reduction keeps most gates.
    Bursty,
    /// Many short program phases (integer loop → FP kernel → memory
    /// sweep): class-level enables stay put within a phase and flip at
    /// phase boundaries.
    PhaseChanging,
    /// Near-i.i.d. instruction draw: enables toggle almost every cycle,
    /// the worst case for controller-tree switched capacitance and the
    /// regime where gate-reduction prunes aggressively.
    LowPersistence,
}

impl ActivityScenario {
    /// All presets, in display order.
    pub const ALL: [Self; 3] = [Self::Bursty, Self::PhaseChanging, Self::LowPersistence];

    /// Stable kebab-case identifier (bench JSON keys, CLI arguments).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Bursty => "bursty",
            Self::PhaseChanging => "phase-changing",
            Self::LowPersistence => "low-persistence",
        }
    }

    /// One-line description for reports.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            Self::Bursty => "persistence 0.95, 4 phases of ~10k cycles",
            Self::PhaseChanging => "persistence 0.60, 8 phases of ~2k cycles",
            Self::LowPersistence => "persistence 0.05, no phases",
        }
    }

    /// Resolves a [`Self::name`] back to the preset.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Builds the scenario's CPU model over `modules` modules. Stream the
    /// trace with [`CpuModel::trace_source`] at any length.
    ///
    /// # Errors
    ///
    /// Propagates [`CpuModel`] builder errors (only reachable with
    /// degenerate inputs such as `modules == 0`).
    pub fn model(self, modules: usize, seed: u64) -> Result<CpuModel, ActivityError> {
        let builder = CpuModel::builder(modules)
            .instructions(32)
            .usage_fraction(0.4)
            .seed(seed);
        match self {
            Self::Bursty => builder
                .persistence(0.95)
                .groups(8)
                .phases(4)
                .phase_length(10_000)
                .build(),
            Self::PhaseChanging => builder
                .persistence(0.6)
                .groups(16)
                .phases(8)
                .phase_length(2_000)
                .build(),
            Self::LowPersistence => builder.persistence(0.05).groups(16).build(),
        }
    }
}

impl std::fmt::Display for ActivityScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_activity::{ActivityTables, ModuleSet, ScanParams, ScanScratch};

    #[test]
    fn names_round_trip() {
        for s in ActivityScenario::ALL {
            assert_eq!(ActivityScenario::from_name(s.name()), Some(s));
            assert!(!s.description().is_empty());
            assert_eq!(format!("{s}"), s.name());
        }
        assert_eq!(ActivityScenario::from_name("nope"), None);
    }

    #[test]
    fn scenarios_order_toggle_rates_as_advertised() {
        // Transition probability of a module group must rank
        // bursty < phase-changing < low-persistence.
        let toggle = |s: ActivityScenario| {
            let model = s.model(64, 7).unwrap();
            let stream = model.generate_stream(40_000);
            let tables = ActivityTables::scan(model.rtl(), &stream);
            let set = ModuleSet::with_modules(64, [0, 8, 16]);
            tables.enable_stats(&set).transition
        };
        let (b, p, l) = (
            toggle(ActivityScenario::Bursty),
            toggle(ActivityScenario::PhaseChanging),
            toggle(ActivityScenario::LowPersistence),
        );
        assert!(
            b < p,
            "bursty {b} should toggle less than phase-changing {p}"
        );
        assert!(
            p < l,
            "phase-changing {p} should toggle less than low-persistence {l}"
        );
    }

    #[test]
    fn scenario_sources_stream_without_materializing() {
        // A scenario trace pulled from the generator through scan_source
        // must match the in-place scan of the materialized stream bit for
        // bit.
        let model = ActivityScenario::Bursty.model(48, 11).unwrap();
        let len = 30_000usize;
        let oracle = ActivityTables::scan(model.rtl(), &model.generate_stream(len));
        let mut source = model.trace_source(len as u64);
        let mut scratch = ScanScratch::new();
        let params = ScanParams {
            threads: Some(2),
            chunk_cycles: 4_096,
        };
        let (tables, profile) =
            gcr_activity::scan_source(model.rtl(), &mut source, &params, &mut scratch).unwrap();
        assert_eq!(tables.ift(), oracle.ift());
        assert_eq!(tables.itmatt(), oracle.itmatt());
        assert_eq!(profile.cycles, len as u64);
    }
}
