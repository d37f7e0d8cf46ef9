use gcr_geometry::{Point, Trr, GEOM_EPS};
use gcr_rctree::{Device, Technology};

use crate::{CtsError, Sink};

/// The electrical summary of a subtree during bottom-up construction.
///
/// `delay` and `cap` describe the network *below* the subtree root `v_i`;
/// `edge_device` is the masking gate or buffer that will sit at the **top
/// of the edge `e_i`** connecting `v_i` to its future parent — the paper's
/// "gate on edge `e_i`", controlled by `EN_i`. The gate decouples the whole
/// edge + subtree from the parent: the parent sees only the gate input
/// capacitance, which is exactly how "inserting gates reduces the subtree
/// capacitance in the Elmore delay computation" (§4.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubtreeState {
    /// Merging region: every point at which the subtree root can be placed.
    pub ms: Trr,
    /// Elmore delay (ps) from `v_i` to each sink of the subtree (equal for
    /// all sinks — the zero-skew invariant).
    pub delay: f64,
    /// Downstream capacitance (pF) at `v_i` (wires and loads below it).
    pub cap: f64,
    /// Gate or buffer at the top of the edge that will feed `v_i`.
    pub edge_device: Option<Device>,
}

impl SubtreeState {
    /// The state of a single sink with no gate on its edge.
    #[must_use]
    pub fn leaf(sink: &Sink) -> Self {
        Self::leaf_with_device(sink, None)
    }

    /// The state of a single sink whose feeding edge carries `device`.
    #[must_use]
    pub fn leaf_with_device(sink: &Sink, device: Option<Device>) -> Self {
        Self {
            ms: Trr::point(sink.location()),
            delay: 0.0,
            cap: sink.cap(),
            edge_device: device,
        }
    }

    /// Distance (layout units) between the merging regions of two states.
    #[must_use]
    pub fn distance(&self, other: &SubtreeState) -> f64 {
        self.ms.distance(&other.ms)
    }

    /// Capacitance this subtree presents to its parent when fed through an
    /// edge of electrical length `e`: the edge-gate input capacitance if
    /// the edge is gated, the full wire + subtree capacitance otherwise.
    #[must_use]
    pub fn presented_cap(&self, tech: &Technology, e: f64) -> f64 {
        match &self.edge_device {
            Some(d) => d.input_cap(),
            None => tech.unit_cap() * e + self.cap,
        }
    }

    /// Elmore delay from the parent's merge point down to this subtree's
    /// sinks through an edge of electrical length `e` (device stage
    /// included when the edge is gated).
    #[must_use]
    pub fn delay_through_edge(&self, tech: &Technology, e: f64) -> f64 {
        let (t0, alpha, beta) = self.delay_coefficients(tech);
        t0 + alpha * e + beta * e * e
    }

    /// Coefficients `(t0, α, β)` of the quadratic delay polynomial
    /// `D(e) = t0 + α·e + β·e²` for this subtree fed through an edge of
    /// length `e`:
    ///
    /// * ungated: `t0 = t`, `α = r·C`, `β = r·c/2`;
    /// * gated: `t0 = t + d_intrinsic + R_out·C`, `α = r·C + R_out·c`,
    ///   `β = r·c/2` (the gate's output resistance also drives the edge
    ///   wire capacitance).
    #[must_use]
    pub fn delay_coefficients(&self, tech: &Technology) -> (f64, f64, f64) {
        let r = tech.unit_res();
        let c = tech.unit_cap();
        let beta = r * c / 2.0;
        match &self.edge_device {
            Some(d) => (
                self.delay + d.intrinsic_delay() + d.output_res() * self.cap,
                r * self.cap + d.output_res() * c,
                beta,
            ),
            None => (self.delay, r * self.cap, beta),
        }
    }
}

/// The result of one zero-skew merge: the tap wire lengths to each child,
/// the merging region of the new node, and the electrical state at the
/// merge point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MergeOutcome {
    /// Electrical wire length (layout units) from the merge point to the
    /// first child. May exceed the geometric distance (wire snaking).
    pub ea: f64,
    /// Electrical wire length to the second child.
    pub eb: f64,
    /// Merging region of the new node.
    pub ms: Trr,
    /// Elmore delay (ps) from the merge point to every sink below it
    /// (both children's edge gates, if any, included).
    pub delay: f64,
    /// Capacitance (pF) at the merge point: each child contributes its
    /// gate input capacitance when its edge is gated, or its full
    /// wire + subtree capacitance otherwise.
    pub cap: f64,
}

impl MergeOutcome {
    /// The state of the merged node when `device` will sit at the top of
    /// its parent edge.
    #[must_use]
    pub fn gated_state(&self, device: Option<Device>) -> SubtreeState {
        SubtreeState {
            ms: self.ms,
            delay: self.delay,
            cap: self.cap,
            edge_device: device,
        }
    }
}

/// Computes the exact zero-skew merge of two subtrees under the Elmore
/// model, with per-edge masking gates (Tsay's formulation extended with
/// edge-top devices).
///
/// With `d = dist(ms_a, ms_b)` and per-child delay polynomials
/// `D_i(e) = t_i' + α_i·e + β·e²` (see
/// [`SubtreeState::delay_coefficients`]), the balanced split solves
/// `D_a(x) = D_b(d − x)`:
///
/// ```text
/// x = (t_b' − t_a' + α_b·d + β·d²) / (α_a + α_b + 2·β·d)
/// ```
///
/// If `x ∉ [0, d]`, the slower side is tapped directly (`e = 0`) and the
/// other wire is elongated (snaked) to the positive root of its delay
/// polynomial.
///
/// # Errors
///
/// Returns [`CtsError::MergeRegionDisjoint`] when the merging regions
/// cannot be intersected even after snaking — which happens exactly when
/// the subtree states carry non-finite delays, capacitances, or
/// coordinates. Finite inputs always succeed: the tap radii sum to at
/// least the region distance by construction.
pub fn zero_skew_merge(
    tech: &Technology,
    a: &SubtreeState,
    b: &SubtreeState,
) -> Result<MergeOutcome, CtsError> {
    let d = a.ms.distance(&b.ms);
    let (ta, alpha_a, beta) = a.delay_coefficients(tech);
    let (tb, alpha_b, _) = b.delay_coefficients(tech);

    let (ea, eb) = balanced_tap_split(d, ta, alpha_a, tb, alpha_b, beta);
    let ms = merge_region(&a.ms, &b.ms, d, ea, eb)?;

    // Delay measured down either side is identical in exact arithmetic;
    // average the two evaluations to symmetrize rounding.
    let da = a.delay_through_edge(tech, ea);
    let db = b.delay_through_edge(tech, eb);
    let delay = 0.5 * (da + db);
    let cap = a.presented_cap(tech, ea) + b.presented_cap(tech, eb);

    Ok(MergeOutcome {
        ea,
        eb,
        ms,
        delay,
        cap,
    })
}

/// The zero-skew tap split `(e_a, e_b)` from the per-child delay
/// polynomials: solves `D_a(x) = D_b(d − x)` and snakes the faster side
/// when the balance point falls outside `[0, d]`. Shared — with identical
/// operation order — by [`zero_skew_merge`] and the coefficient-caching
/// [`MergeArena`](crate::MergeArena) hot path, so both produce
/// bit-identical geometry.
pub(crate) fn balanced_tap_split(
    d: f64,
    ta: f64,
    alpha_a: f64,
    tb: f64,
    alpha_b: f64,
    beta: f64,
) -> (f64, f64) {
    let denom = alpha_a + alpha_b + 2.0 * beta * d;
    let x = if denom > 0.0 {
        (tb - ta + alpha_b * d + beta * d * d) / denom
    } else {
        0.0
    };

    if x < 0.0 {
        // Subtree a is already slower: tap it directly, snake the wire to b.
        (0.0, elongation(alpha_b, beta, ta - tb).max(d))
    } else if x > d {
        (elongation(alpha_a, beta, tb - ta).max(d), 0.0)
    } else {
        (x, d - x)
    }
}

/// Merge region of two subtrees tapped with wires of electrical length
/// `ea` / `eb`: the points reachable with exactly that much wire from each
/// child region. The radii sum to `>= d` in exact arithmetic; f64 rounding
/// is absorbed with a magnitude-scaled slack. Non-finite radii would trip
/// `Trr::expanded`'s assertion, so they are rejected up front.
pub(crate) fn merge_region(
    a_ms: &Trr,
    b_ms: &Trr,
    d: f64,
    ea: f64,
    eb: f64,
) -> Result<Trr, CtsError> {
    if !(d.is_finite() && ea.is_finite() && eb.is_finite() && ea >= 0.0 && eb >= 0.0) {
        return Err(CtsError::MergeRegionDisjoint {
            detail: format!(
                "non-finite tap geometry: d={d}, ea={ea}, eb={eb} (a at {}, b at {})",
                a_ms.center(),
                b_ms.center()
            ),
        });
    }
    let scale = 1.0
        + d
        + ea
        + eb
        + a_ms.center().manhattan(Point::ORIGIN)
        + b_ms.center().manhattan(Point::ORIGIN);
    let ta_r = a_ms.expanded(ea);
    let tb_r = b_ms.expanded(eb);
    ta_r.intersection_with_slack(&tb_r, GEOM_EPS * scale)
        .or_else(|| ta_r.intersection_with_slack(&tb_r, 1e-3 * scale))
        .ok_or_else(|| CtsError::MergeRegionDisjoint {
            detail: format!(
                "d={d}, ea={ea}, eb={eb} (a at {}, b at {})",
                a_ms.center(),
                b_ms.center()
            ),
        })
}

/// Positive root of `β·e² + α·e = dt` — the snaked wire length that adds
/// `dt` of Elmore delay through an edge with delay coefficients `(α, β)`.
///
/// Degenerate technologies collapse the polynomial: with zero unit
/// resistance or capacitance `β = 0` and the root is the linear `dt/α`;
/// with `α = 0` as well, no wire length changes the delay and the snake
/// stays at 0 rather than poisoning the geometry with NaN.
fn elongation(alpha: f64, beta: f64, dt: f64) -> f64 {
    if dt <= 0.0 {
        return 0.0;
    }
    if beta <= 0.0 {
        if alpha <= 0.0 {
            return 0.0;
        }
        return dt / alpha;
    }
    ((alpha * alpha + 4.0 * beta * dt).sqrt() - alpha) / (2.0 * beta)
}

/// Allowed device-size range for delay balancing.
///
/// "These gates also serve as buffers and can be sized to adjust the phase
/// delay of the clock signal" (§1): before resorting to wire snaking, the
/// embedder may scale an edge device within `[min, max]` of its nominal
/// size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SizingLimits {
    /// Smallest allowed scale factor (≤ 1).
    pub min: f64,
    /// Largest allowed scale factor (≥ 1).
    pub max: f64,
}

impl Default for SizingLimits {
    /// Quarter-size to 8× nominal — the drive range of a small standard
    /// cell family.
    fn default() -> Self {
        Self {
            min: 0.25,
            max: 8.0,
        }
    }
}

impl SizingLimits {
    /// Validated constructor.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min <= 1 <= max` and both are finite.
    #[must_use]
    pub fn new(min: f64, max: f64) -> Self {
        assert!(
            min.is_finite() && max.is_finite() && min > 0.0 && min <= 1.0 && max >= 1.0,
            "sizing limits must satisfy 0 < min <= 1 <= max, got [{min}, {max}]"
        );
        Self { min, max }
    }
}

/// Resizes the edge devices of two subtrees about to merge so that the
/// zero-skew balance point falls inside the connecting segment, avoiding
/// wire snaking where gate sizing suffices (§1's "sized to adjust the
/// phase delay").
///
/// The slow side's gate is upsized (lower output resistance → faster) and,
/// if that is not enough, the fast side's gate is downsized (slower, and
/// cheaper). Residual imbalance is left for [`zero_skew_merge`]'s snaking.
/// Returns `true` when any device was resized.
pub fn balance_devices(
    tech: &Technology,
    a: &mut SubtreeState,
    b: &mut SubtreeState,
    limits: &SizingLimits,
) -> bool {
    let mut changed = false;
    // Up to two passes: fixing one side can overshoot into the other
    // regime when both sides carry devices.
    for _ in 0..2 {
        let d = a.ms.distance(&b.ms);
        let (ta, alpha_a, beta) = a.delay_coefficients(tech);
        let (tb, alpha_b, _) = b.delay_coefficients(tech);
        let denom = alpha_a + alpha_b + 2.0 * beta * d;
        if denom <= 0.0 {
            return changed;
        }
        let x = (tb - ta + alpha_b * d + beta * d * d) / denom;
        if x < 0.0 {
            changed |= fix_slow_side(tech, a, b, d, limits);
        } else if x > d {
            changed |= fix_slow_side(tech, b, a, d, limits);
        } else {
            break;
        }
        if !changed {
            break;
        }
    }
    changed
}

/// `slow` is the subtree whose delay exceeds what the other side can match
/// across distance `d`. Upsize `slow`'s gate toward the balance, then
/// downsize `fast`'s gate if needed.
fn fix_slow_side(
    tech: &Technology,
    slow: &mut SubtreeState,
    fast: &mut SubtreeState,
    d: f64,
    limits: &SizingLimits,
) -> bool {
    let mut changed = false;

    if let Some(dev) = slow.edge_device {
        // Want t_slow + intrinsic + R/f·C == fast_at_d  =>  f = R·C / Δ.
        let fast_at_d = fast.delay_through_edge(tech, d);
        let delta = fast_at_d - slow.delay - dev.intrinsic_delay();
        if delta > 0.0 {
            let needed = dev.output_res() * slow.cap / delta;
            if needed > 1.0 {
                let f = needed.min(limits.max);
                slow.edge_device = Some(dev.scaled(f));
                changed = true;
            }
        }
    }

    // Recheck from the *current* states — the upsizing above changed
    // `slow`'s delay polynomial, so neither side's delay may be carried
    // over from before it. If the slow side still cannot be caught, slow
    // the fast side down by shrinking its gate.
    let slow_at_0 = slow.delay_through_edge(tech, 0.0);
    if slow_at_0 > fast.delay_through_edge(tech, d) {
        if let Some(dev) = fast.edge_device {
            let r = tech.unit_res();
            let c = tech.unit_cap();
            let wire_delay = r * d * (c * d / 2.0 + fast.cap);
            let load = c * d + fast.cap;
            if load > 0.0 {
                let r_target = (slow_at_0 - fast.delay - dev.intrinsic_delay() - wire_delay) / load;
                if r_target > dev.output_res() {
                    let f = (dev.output_res() / r_target).max(limits.min);
                    if f < 1.0 {
                        fast.edge_device = Some(dev.scaled(f));
                        changed = true;
                    }
                }
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_geometry::Point;

    fn tech() -> Technology {
        Technology::default()
    }

    fn leaf(x: f64, y: f64, cap: f64) -> SubtreeState {
        SubtreeState::leaf(&Sink::new(Point::new(x, y), cap))
    }

    #[test]
    fn symmetric_merge_splits_evenly() {
        let t = tech();
        let a = leaf(0.0, 0.0, 0.05);
        let b = leaf(1000.0, 0.0, 0.05);
        let m = zero_skew_merge(&t, &a, &b).unwrap();
        assert!((m.ea - 500.0).abs() < 1e-9, "ea = {}", m.ea);
        assert!((m.eb - 500.0).abs() < 1e-9);
        assert!((m.ea + m.eb - 1000.0).abs() < 1e-9);
        // Merge region is equidistant from both sinks.
        let p = m.ms.center();
        assert!((p.manhattan(Point::new(0.0, 0.0)) - 500.0).abs() < 1e-6);
    }

    #[test]
    fn heavier_side_gets_shorter_wire() {
        let t = tech();
        let light = leaf(0.0, 0.0, 0.01);
        let heavy = leaf(1000.0, 0.0, 0.50);
        let m = zero_skew_merge(&t, &light, &heavy).unwrap();
        // ea is the wire toward `light`; balancing pushes the tap point
        // toward the heavy side.
        assert!(m.ea > m.eb, "ea {} <= eb {}", m.ea, m.eb);
        assert!((m.ea + m.eb - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn gated_edges_decouple_caps() {
        let t = tech();
        let gate = t.and_gate();
        let a = SubtreeState::leaf_with_device(&Sink::new(Point::new(0.0, 0.0), 0.4), Some(gate));
        let b = SubtreeState::leaf_with_device(&Sink::new(Point::new(800.0, 0.0), 0.4), Some(gate));
        let m = zero_skew_merge(&t, &a, &b).unwrap();
        // Each child presents only the gate input capacitance.
        assert!((m.cap - 2.0 * gate.input_cap()).abs() < 1e-12);
        // Gate stage delay is included.
        assert!(m.delay > gate.intrinsic_delay());
    }

    #[test]
    fn slower_subtree_gets_tapped_directly_with_snaking() {
        let t = tech();
        // Subtree a has a huge accumulated delay.
        let mut a = leaf(0.0, 0.0, 0.05);
        a.delay = 1.0e4;
        let b = leaf(100.0, 0.0, 0.05);
        let m = zero_skew_merge(&t, &a, &b).unwrap();
        assert_eq!(m.ea, 0.0);
        assert!(m.eb > 100.0, "wire to b must be snaked, got {}", m.eb);
        // Delay balance holds.
        let db = b.delay_through_edge(&t, m.eb);
        assert!((db - a.delay).abs() / a.delay < 1e-9);
    }

    #[test]
    fn merge_delay_is_balanced_with_and_without_gates() {
        let t = tech();
        for gated in [false, true] {
            let dev = gated.then(|| t.and_gate());
            let a = SubtreeState::leaf_with_device(&Sink::new(Point::new(0.0, 0.0), 0.02), dev);
            let b = SubtreeState::leaf_with_device(&Sink::new(Point::new(750.0, 330.0), 0.11), dev);
            let m = zero_skew_merge(&t, &a, &b).unwrap();
            let da = a.delay_through_edge(&t, m.ea);
            let db = b.delay_through_edge(&t, m.eb);
            assert!(
                (da - db).abs() < 1e-9 * da.max(1.0),
                "gated={gated}: {da} vs {db}"
            );
            assert!((m.delay - da).abs() < 1e-9 * da.max(1.0));
        }
    }

    #[test]
    fn ungated_cap_accounts_wires_and_children() {
        let t = tech();
        let a = leaf(0.0, 0.0, 0.02);
        let b = leaf(400.0, 0.0, 0.03);
        let m = zero_skew_merge(&t, &a, &b).unwrap();
        let expect = t.unit_cap() * (m.ea + m.eb) + 0.05;
        assert!((m.cap - expect).abs() < 1e-12);
    }

    #[test]
    fn gated_state_carries_device() {
        let t = tech();
        let a = leaf(0.0, 0.0, 0.05);
        let b = leaf(600.0, 0.0, 0.05);
        let m = zero_skew_merge(&t, &a, &b).unwrap();
        let gate = t.and_gate();
        let s = m.gated_state(Some(gate));
        assert_eq!(s.edge_device, Some(gate));
        assert_eq!(s.cap, m.cap);
        assert_eq!(s.delay, m.delay);
    }

    #[test]
    fn presented_cap_and_delay_through_edge() {
        let t = tech();
        let gate = t.and_gate();
        let plain = leaf(0.0, 0.0, 0.1);
        let gated = SubtreeState::leaf_with_device(&Sink::new(Point::ORIGIN, 0.1), Some(gate));
        // Plain: wire + subtree; gated: only the gate input cap.
        assert!((plain.presented_cap(&t, 1000.0) - (t.unit_cap() * 1000.0 + 0.1)).abs() < 1e-12);
        assert_eq!(gated.presented_cap(&t, 1000.0), gate.input_cap());
        // Delay: the gated edge includes the device stage.
        let dp = plain.delay_through_edge(&t, 1000.0);
        let dg = gated.delay_through_edge(&t, 1000.0);
        let stage = gate.intrinsic_delay() + gate.output_res() * (t.unit_cap() * 1000.0 + 0.1);
        assert!((dg - (dp + stage)).abs() < 1e-9);
    }

    #[test]
    fn coincident_points_merge_to_point() {
        let t = tech();
        let a = leaf(5.0, 5.0, 0.05);
        let b = leaf(5.0, 5.0, 0.05);
        let m = zero_skew_merge(&t, &a, &b).unwrap();
        assert_eq!(m.ea, 0.0);
        assert_eq!(m.eb, 0.0);
        assert!(m.ms.is_point());
    }

    #[test]
    fn coincident_points_unequal_delay_snake() {
        let t = tech();
        let mut a = leaf(5.0, 5.0, 0.05);
        a.delay = 100.0;
        let b = leaf(5.0, 5.0, 0.05);
        let m = zero_skew_merge(&t, &a, &b).unwrap();
        assert_eq!(m.ea, 0.0);
        assert!(m.eb > 0.0, "must snake to equalize, got {}", m.eb);
        let db = b.delay_through_edge(&t, m.eb);
        assert!((db - 100.0).abs() < 1e-9 * 100.0);
    }

    #[test]
    fn elongation_zero_for_nonpositive_dt() {
        assert_eq!(elongation(0.01, 1e-6, 0.0), 0.0);
        assert_eq!(elongation(0.01, 1e-6, -5.0), 0.0);
    }

    #[test]
    fn elongation_solves_quadratic() {
        let (alpha, beta) = (0.0045, 3.75e-7);
        let dt = 123.0;
        let e = elongation(alpha, beta, dt);
        let check = beta * e * e + alpha * e;
        assert!((check - dt).abs() < 1e-9 * dt);
    }

    /// Regression: β = 0 (zero unit R or C) used to divide by zero and
    /// return NaN; the fallback is the linear root `dt/α`, and 0 when the
    /// polynomial is entirely flat (α = 0 too).
    #[test]
    fn elongation_degenerate_coefficients_are_finite() {
        let e = elongation(0.0045, 0.0, 90.0);
        assert!((e - 90.0 / 0.0045).abs() < 1e-9, "linear fallback, got {e}");
        assert_eq!(elongation(0.0, 0.0, 90.0), 0.0);
        assert_eq!(elongation(0.0045, 0.0, -1.0), 0.0);
        // And the quadratic path still dominates when β > 0.
        assert!(elongation(0.0045, 1e-7, 90.0).is_finite());
    }

    /// Regression: non-finite subtree state used to panic inside
    /// `Trr::expanded`; it must surface as `MergeRegionDisjoint`.
    #[test]
    fn non_finite_inputs_yield_disjoint_error() {
        let t = tech();
        let mut a = leaf(0.0, 0.0, 0.05);
        a.delay = f64::NAN;
        let b = leaf(1000.0, 0.0, 0.05);
        let err = zero_skew_merge(&t, &a, &b).unwrap_err();
        assert!(matches!(err, CtsError::MergeRegionDisjoint { .. }), "{err}");

        // An infinite delay demands an infinite snake on the other wire.
        let mut c = leaf(0.0, 0.0, 0.05);
        c.delay = f64::INFINITY;
        let err = zero_skew_merge(&t, &c, &b).unwrap_err();
        assert!(matches!(err, CtsError::MergeRegionDisjoint { .. }), "{err}");
    }

    /// Regression for `fix_slow_side`: with devices on **both** sides the
    /// fast gate's downsizing must be judged against the slow side's
    /// *post-upsizing* delay, never a stale capture.
    #[test]
    fn balance_devices_with_devices_on_both_sides() {
        let t = tech();
        let gate = t.and_gate();
        let d = 2_000.0;
        let mut a =
            SubtreeState::leaf_with_device(&Sink::new(Point::new(0.0, 0.0), 0.9), Some(gate));
        a.delay = 150.0;
        let mut b =
            SubtreeState::leaf_with_device(&Sink::new(Point::new(d, 0.0), 0.02), Some(gate));
        let limits = SizingLimits::default();
        let snake_before = {
            let m = zero_skew_merge(&t, &a, &b).unwrap();
            m.ea + m.eb - d
        };
        assert!(snake_before > 0.0, "test premise: unsized merge must snake");

        let changed = balance_devices(&t, &mut a, &mut b, &limits);
        assert!(changed, "sizing must engage when one side lags");
        let fa = a.edge_device.unwrap().input_cap() / gate.input_cap();
        let fb = b.edge_device.unwrap().input_cap() / gate.input_cap();
        assert!(
            fa > 1.0 && fa <= limits.max + 1e-9,
            "slow side must be upsized within limits, got {fa}"
        );
        assert!(
            (limits.min - 1e-9..=1.0 + 1e-9).contains(&fb),
            "fast side may only shrink within limits, got {fb}"
        );

        let m = zero_skew_merge(&t, &a, &b).unwrap();
        let snake_after = m.ea + m.eb - d;
        assert!(
            snake_after < snake_before - 1e-9,
            "sizing must reduce snaking: before {snake_before}, after {snake_after}"
        );
        // The merge stays exactly delay-balanced after sizing.
        let da = a.delay_through_edge(&t, m.ea);
        let db = b.delay_through_edge(&t, m.eb);
        assert!((da - db).abs() < 1e-9 * da.max(1.0));
    }
}
