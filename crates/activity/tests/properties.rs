//! Property-based tests: the table-driven probability computation (§3.3)
//! must agree exactly with brute-force stream scanning, and the resulting
//! probabilities must satisfy the algebra the router relies on.
#![allow(clippy::unwrap_used)]

use gcr_activity::{ActivityTables, CpuModel, EnableStats, ModuleSet, Rtl};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Instruction counts around every word boundary of an activation row.
const KERNEL_KS: [usize; 9] = [1, 2, 31, 32, 33, 63, 64, 65, 130];

/// The per-pair pricing loop over the non-zero ITMATT entries, written
/// from the public table accessors: the oracle
/// `ActivityTables::enable_stats_for_bits` must match bit for bit.
fn oracle_stats(tables: &ActivityTables, active: &[bool]) -> EnableStats {
    let signal = tables
        .rtl()
        .instruction_ids()
        .filter(|i| active[i.index()])
        .map(|i| tables.ift().probability(i))
        .sum();
    let mut transition = 0.0;
    for (a, b, p) in tables.itmatt().nonzero_pairs() {
        if active[a.index()] != active[b.index()] {
            transition += p;
        }
    }
    EnableStats { signal, transition }
}

/// Random tables over `k` instructions: a dense pair table with zero rows,
/// zero columns and diagonal mass, normalized to sum to 1.
fn random_tables(k: usize, rng: &mut StdRng) -> ActivityTables {
    let mut builder = Rtl::builder(1);
    for i in 0..k {
        builder = builder.instruction(&format!("I{i}"), [0]).unwrap();
    }
    let rtl = builder.build().unwrap();
    let ift: Vec<f64> = (0..k).map(|_| rng.gen::<f64>() + 1e-3).collect();
    let ift_sum: f64 = ift.iter().sum();
    let ift: Vec<f64> = ift.iter().map(|p| p / ift_sum).collect();
    let zero_row: Vec<bool> = (0..k).map(|_| rng.gen_bool(0.2)).collect();
    let zero_col: Vec<bool> = (0..k).map(|_| rng.gen_bool(0.2)).collect();
    let density = rng.gen_range(0.05..1.0);
    let mut pairs = vec![0.0; k * k];
    for a in 0..k {
        // Heavy diagonals model persistent streams.
        pairs[a * k + a] = rng.gen::<f64>() * 4.0;
        for b in (0..k).filter(|&b| b != a && !zero_row[a] && !zero_col[b]) {
            if rng.gen_bool(density) {
                pairs[a * k + b] = rng.gen::<f64>();
            }
        }
    }
    let sum: f64 = pairs.iter().sum();
    let pairs: Vec<f64> = pairs.iter().map(|p| p / sum).collect();
    ActivityTables::from_probabilities(&rtl, ift, pairs).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Table-driven == brute force, on random models, streams and sets.
    #[test]
    fn tables_match_brute_force(
        seed in 0u64..1_000,
        modules in 4usize..40,
        instructions in 2usize..12,
        persistence in 0.0..0.95f64,
        set_bits in prop::collection::vec(any::<bool>(), 40),
    ) {
        let model = CpuModel::builder(modules)
            .instructions(instructions)
            .persistence(persistence)
            .seed(seed)
            .build()
            .unwrap();
        let stream = model.generate_stream(500);
        let tables = ActivityTables::scan(model.rtl(), &stream);
        let set = ModuleSet::with_modules(
            modules,
            (0..modules).filter(|&m| set_bits[m]),
        );
        prop_assume!(!set.is_empty());
        let stats = tables.enable_stats(&set);
        let sig = stream.signal_probability(model.rtl(), &set);
        let tr = stream.transition_probability(model.rtl(), &set);
        prop_assert!((stats.signal - sig).abs() < 1e-12);
        prop_assert!((stats.transition - tr).abs() < 1e-12);
    }

    /// The bitset kernel prices every activation row exactly as the
    /// per-pair loop does, across the word boundaries of the row width.
    #[test]
    fn bitset_kernel_matches_the_per_pair_oracle(
        k_pick in 0usize..KERNEL_KS.len(),
        seed in any::<u64>(),
    ) {
        let k = KERNEL_KS[k_pick];
        let mut rng = StdRng::seed_from_u64(seed);
        let tables = random_tables(k, &mut rng);
        prop_assert_eq!(tables.activation_words(), k.div_ceil(64));
        let mut rows = vec![vec![false; k], vec![true; k]];
        for _ in 0..6 {
            let density = rng.gen::<f64>();
            rows.push((0..k).map(|_| rng.gen_bool(density)).collect());
        }
        for active in &rows {
            let mut bits = vec![0u64; k.div_ceil(64)];
            for i in (0..k).filter(|&i| active[i]) {
                bits[i / 64] |= 1 << (i % 64);
            }
            let got = tables.enable_stats_for_bits(&bits);
            let want = oracle_stats(&tables, active);
            prop_assert_eq!(got.signal.to_bits(), want.signal.to_bits(), "K = {}", k);
            prop_assert_eq!(
                got.transition.to_bits(),
                want.transition.to_bits(),
                "K = {}",
                k
            );
        }
    }

    /// Probability algebra: 0 ≤ P ≤ 1; P_tr ≤ 2·min(P, 1−P) (an enable can
    /// only toggle by leaving its majority state); union monotonicity and
    /// the union bound.
    #[test]
    fn probability_invariants(
        seed in 0u64..1_000,
        modules in 6usize..30,
        split in 1usize..5,
    ) {
        let model = CpuModel::builder(modules)
            .instructions(8)
            .seed(seed)
            .build()
            .unwrap();
        let stream = model.generate_stream(400);
        let tables = ActivityTables::scan(model.rtl(), &stream);

        let a = ModuleSet::with_modules(modules, 0..split);
        let b = ModuleSet::with_modules(modules, split..modules.min(split + 4));
        let u = a.union(&b);
        let (sa, sb, su) = (
            tables.enable_stats(&a),
            tables.enable_stats(&b),
            tables.enable_stats(&u),
        );
        for s in [sa, sb, su] {
            // Allow a few ulps of float-summation error around the bounds.
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&s.signal));
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&s.transition));
            prop_assert!(
                s.transition <= 2.0 * s.signal.min(1.0 - s.signal) + 1e-9,
                "P_tr {} exceeds 2·min(P, 1-P) for P {}",
                s.transition,
                s.signal
            );
        }
        // P(EN) grows monotonically as subtrees merge…
        prop_assert!(su.signal + 1e-12 >= sa.signal.max(sb.signal));
        // …but never beyond the union bound.
        prop_assert!(su.signal <= sa.signal + sb.signal + 1e-12);
    }

    /// The full module set's enable is on whenever any instruction runs,
    /// i.e. always (every instruction uses at least one module).
    #[test]
    fn root_enable_is_always_on(seed in 0u64..500, modules in 4usize..30) {
        let model = CpuModel::builder(modules).instructions(6).seed(seed).build().unwrap();
        let stream = model.generate_stream(300);
        let tables = ActivityTables::scan(model.rtl(), &stream);
        let all = ModuleSet::with_modules(modules, 0..modules);
        let stats = tables.enable_stats(&all);
        prop_assert!((stats.signal - 1.0).abs() < 1e-12);
        prop_assert!(stats.transition.abs() < 1e-12);
    }
}
