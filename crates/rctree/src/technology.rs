use std::error::Error;
use std::fmt;

use crate::Device;

/// Process and environment parameters shared by every routing algorithm.
///
/// The paper does not tabulate its process constants; the defaults here are
/// calibrated to a mid-1990s 0.35 µm-class process with λ-denominated
/// layout units (see `DESIGN.md` §2 and `EXPERIMENTS.md`), and every
/// constant can be overridden through [`Technology::builder`].
///
/// ```
/// use gcr_rctree::Technology;
///
/// let tech = Technology::builder()
///     .unit_res(0.02)
///     .unit_cap(6e-5)
///     .build()?;
/// assert_eq!(tech.unit_res(), 0.02);
/// // Buffers default to half the AND-gate size (§5.1 of the paper).
/// assert_eq!(tech.buffer().input_cap(), tech.and_gate().input_cap() / 2.0);
/// # Ok::<(), gcr_rctree::TechnologyError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Technology {
    unit_res: f64,
    unit_cap: f64,
    wire_width: f64,
    control_unit_cap: f64,
    control_wire_width: f64,
    and_gate: Device,
    buffer: Device,
    source: Device,
    supply_v: f64,
    clock_mhz: f64,
}

impl Technology {
    /// Starts building a technology from the documented defaults.
    #[must_use]
    pub fn builder() -> TechnologyBuilder {
        TechnologyBuilder::new()
    }

    /// A 0.5 µm-class preset (5 V, 100 MHz): fatter wires (lower R/λ),
    /// larger and slower gates.
    ///
    /// # Panics
    ///
    /// Never panics; the preset constants are valid.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "the preset constants are statically valid"
    )]
    pub fn half_micron() -> Self {
        Technology::builder()
            .unit_res(0.008)
            .unit_cap(8e-5)
            .control_unit_cap(3.2e-5)
            .and_gate(Device::new(0.03, 300.0, 60.0, 1_600.0))
            .source(Device::new(0.15, 30.0, 0.0, 6_000.0))
            .supply_v(5.0)
            .clock_mhz(100.0)
            .build()
            .expect("preset constants are valid")
    }

    /// The default 0.35 µm-class preset (3.3 V, 200 MHz); identical to
    /// [`Technology::default`].
    #[must_use]
    pub fn three_fifty_nm() -> Self {
        Technology::default()
    }

    /// A 0.25 µm-class preset (2.5 V, 400 MHz): thinner, more resistive
    /// wires and smaller, faster gates.
    ///
    /// # Panics
    ///
    /// Never panics; the preset constants are valid.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "the preset constants are statically valid"
    )]
    pub fn quarter_micron() -> Self {
        Technology::builder()
            .unit_res(0.03)
            .unit_cap(1.2e-4)
            .control_unit_cap(4.8e-5)
            .and_gate(Device::new(0.008, 500.0, 18.0, 450.0))
            .source(Device::new(0.06, 20.0, 0.0, 2_500.0))
            .supply_v(2.5)
            .clock_mhz(400.0)
            .build()
            .expect("preset constants are valid")
    }

    /// Unit wire resistance in Ω per layout unit.
    #[must_use]
    pub fn unit_res(&self) -> f64 {
        self.unit_res
    }

    /// Unit wire capacitance in pF per layout unit (the paper's `c`).
    #[must_use]
    pub fn unit_cap(&self) -> f64 {
        self.unit_cap
    }

    /// Routed wire width in λ, used for wiring-area accounting.
    #[must_use]
    pub fn wire_width(&self) -> f64 {
        self.wire_width
    }

    /// Unit capacitance of an enable (control) wire in pF per layout unit.
    ///
    /// Clock trunks are wide and shielded; the controller's enable signals
    /// are ordinary min-width signal wires with a fraction of the
    /// capacitance per unit length.
    #[must_use]
    pub fn control_unit_cap(&self) -> f64 {
        self.control_unit_cap
    }

    /// Width of an enable (control) wire in λ.
    #[must_use]
    pub fn control_wire_width(&self) -> f64 {
        self.control_wire_width
    }

    /// Area of a control wire of `length` layout units.
    #[must_use]
    pub fn control_wire_area(&self, length: f64) -> f64 {
        self.control_wire_width * length
    }

    /// The AND masking gate inserted at gated internal nodes.
    #[must_use]
    pub fn and_gate(&self) -> Device {
        self.and_gate
    }

    /// The buffer used by the buffered-tree baseline (default: the AND gate
    /// scaled to half size).
    #[must_use]
    pub fn buffer(&self) -> Device {
        self.buffer
    }

    /// The clock source driver at the tree root.
    #[must_use]
    pub fn source(&self) -> Device {
        self.source
    }

    /// Supply voltage in volts.
    #[must_use]
    pub fn supply_v(&self) -> f64 {
        self.supply_v
    }

    /// Clock frequency in MHz.
    #[must_use]
    pub fn clock_mhz(&self) -> f64 {
        self.clock_mhz
    }

    /// Resistance of a wire of `length` layout units.
    #[must_use]
    pub fn wire_res(&self, length: f64) -> f64 {
        self.unit_res * length
    }

    /// Capacitance of a wire of `length` layout units.
    #[must_use]
    pub fn wire_cap(&self, length: f64) -> f64 {
        self.unit_cap * length
    }

    /// Area of a wire of `length` layout units.
    #[must_use]
    pub fn wire_area(&self, length: f64) -> f64 {
        self.wire_width * length
    }

    /// Converts a switched capacitance (pF, already weighted by switching
    /// probability per cycle) into dissipated power in µW:
    /// `P = C_sw · f · V_dd²` — Equation (1) of the paper with the
    /// probability folded into `C_sw`.
    #[must_use]
    pub fn power_uw(&self, switched_cap_pf: f64) -> f64 {
        switched_cap_pf * self.clock_mhz * self.supply_v * self.supply_v
    }
}

impl Default for Technology {
    #[expect(
        clippy::expect_used,
        reason = "the documented default parameters are statically valid"
    )]
    fn default() -> Self {
        TechnologyBuilder::new()
            .build()
            .expect("default technology parameters are valid")
    }
}

/// Builder for [`Technology`], validating every parameter on
/// [`TechnologyBuilder::build`].
#[derive(Clone, Debug)]
pub struct TechnologyBuilder {
    unit_res: f64,
    unit_cap: f64,
    wire_width: f64,
    control_unit_cap: f64,
    control_wire_width: f64,
    and_gate: Device,
    buffer: Option<Device>,
    source: Device,
    supply_v: f64,
    clock_mhz: f64,
}

impl TechnologyBuilder {
    /// Creates a builder populated with the documented defaults:
    ///
    /// | parameter | default | rationale |
    /// |---|---|---|
    /// | `unit_res` | 0.015 Ω/λ | 0.35 µm metal-3 class sheet resistance |
    /// | `unit_cap` | 1 × 10⁻⁴ pF/λ | ≈ 0.5 fF/µm for wide shielded clock wire at λ ≈ 0.2 µm |
    /// | `wire_width` | 1.5 λ | wide clock trunk pitch share |
    /// | `control_unit_cap` | 4 × 10⁻⁵ pF/λ | min-width signal wire (≈ 0.2 fF/µm) |
    /// | `control_wire_width` | 1.0 λ | min-width enable wire |
    /// | `and_gate` | 0.015 pF, 400 Ω, 30 ps, 800 λ² | mask gate: pin cap ≪ typical edge wire cap |
    /// | `buffer` | AND gate scaled × 0.5 | §5.1: "half the size of AND-gates" |
    /// | `source` | 0.1 pF, 25 Ω, 0 ps, 4000 λ² | pad driver |
    /// | `supply_v` | 3.3 V | 0.35 µm supply |
    /// | `clock_mhz` | 200 MHz | period comfortably above tree delay |
    #[must_use]
    pub fn new() -> Self {
        let and_gate = Device::new(0.015, 400.0, 30.0, 800.0);
        Self {
            unit_res: 0.015,
            unit_cap: 1e-4,
            wire_width: 1.5,
            control_unit_cap: 4e-5,
            control_wire_width: 1.0,
            and_gate,
            buffer: None,
            source: Device::new(0.1, 25.0, 0.0, 4000.0),
            supply_v: 3.3,
            clock_mhz: 200.0,
        }
    }

    /// Sets unit wire resistance (Ω/λ).
    #[must_use]
    pub fn unit_res(mut self, v: f64) -> Self {
        self.unit_res = v;
        self
    }

    /// Sets unit wire capacitance (pF/λ).
    #[must_use]
    pub fn unit_cap(mut self, v: f64) -> Self {
        self.unit_cap = v;
        self
    }

    /// Sets routed clock wire width (λ).
    #[must_use]
    pub fn wire_width(mut self, v: f64) -> Self {
        self.wire_width = v;
        self
    }

    /// Sets control (enable) wire unit capacitance (pF/λ).
    #[must_use]
    pub fn control_unit_cap(mut self, v: f64) -> Self {
        self.control_unit_cap = v;
        self
    }

    /// Sets control (enable) wire width (λ).
    #[must_use]
    pub fn control_wire_width(mut self, v: f64) -> Self {
        self.control_wire_width = v;
        self
    }

    /// Sets the AND masking gate model. Unless [`Self::buffer`] is also
    /// called, the buffer is re-derived as this gate scaled by 0.5.
    #[must_use]
    pub fn and_gate(mut self, d: Device) -> Self {
        self.and_gate = d;
        self
    }

    /// Overrides the buffer model (default: AND gate scaled by 0.5).
    #[must_use]
    pub fn buffer(mut self, d: Device) -> Self {
        self.buffer = Some(d);
        self
    }

    /// Sets the clock source driver at the root.
    #[must_use]
    pub fn source(mut self, d: Device) -> Self {
        self.source = d;
        self
    }

    /// Sets the supply voltage (V).
    #[must_use]
    pub fn supply_v(mut self, v: f64) -> Self {
        self.supply_v = v;
        self
    }

    /// Sets the clock frequency (MHz).
    #[must_use]
    pub fn clock_mhz(mut self, v: f64) -> Self {
        self.clock_mhz = v;
        self
    }

    /// Validates the parameters and produces a [`Technology`].
    ///
    /// # Errors
    ///
    /// Returns [`TechnologyError`] when any scalar parameter is
    /// non-positive or non-finite.
    pub fn build(self) -> Result<Technology, TechnologyError> {
        for (name, v) in [
            ("unit_res", self.unit_res),
            ("unit_cap", self.unit_cap),
            ("wire_width", self.wire_width),
            ("control_unit_cap", self.control_unit_cap),
            ("control_wire_width", self.control_wire_width),
            ("supply_v", self.supply_v),
            ("clock_mhz", self.clock_mhz),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(TechnologyError::InvalidParameter { name, value: v });
            }
        }
        let buffer = self.buffer.unwrap_or_else(|| self.and_gate.scaled(0.5));
        Ok(Technology {
            unit_res: self.unit_res,
            unit_cap: self.unit_cap,
            wire_width: self.wire_width,
            control_unit_cap: self.control_unit_cap,
            control_wire_width: self.control_wire_width,
            and_gate: self.and_gate,
            buffer,
            source: self.source,
            supply_v: self.supply_v,
            clock_mhz: self.clock_mhz,
        })
    }
}

impl Default for TechnologyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Error produced when building a [`Technology`] from invalid parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TechnologyError {
    /// A scalar parameter was non-positive or non-finite.
    InvalidParameter {
        /// Which builder field was rejected.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for TechnologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TechnologyError::InvalidParameter { name, value } => {
                write!(
                    f,
                    "technology parameter `{name}` must be finite and > 0, got {value}"
                )
            }
        }
    }
}

impl Error for TechnologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_buffer_is_half_gate() {
        let t = Technology::default();
        assert_eq!(t.buffer().input_cap(), t.and_gate().input_cap() / 2.0);
        assert_eq!(t.buffer().area(), t.and_gate().area() / 2.0);
        assert_eq!(t.buffer().output_res(), t.and_gate().output_res() * 2.0);
    }

    #[test]
    fn wire_helpers_scale_linearly() {
        let t = Technology::default();
        assert!((t.wire_cap(1000.0) - 1000.0 * t.unit_cap()).abs() < 1e-15);
        assert!((t.wire_res(1000.0) - 1000.0 * t.unit_res()).abs() < 1e-12);
        assert_eq!(t.wire_area(100.0), 150.0);
        // Control wires are narrower and lighter than clock trunks.
        assert!(t.control_unit_cap() < t.unit_cap());
        assert!(t.control_wire_width() < t.wire_width());
        assert_eq!(t.control_wire_area(100.0), 100.0);
    }

    #[test]
    fn explicit_buffer_is_respected() {
        let b = Device::new(0.01, 900.0, 20.0, 300.0);
        let t = Technology::builder().buffer(b).build().unwrap();
        assert_eq!(t.buffer(), b);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        for (res, cap) in [(0.0, 5e-5), (-1.0, 5e-5), (0.015, f64::NAN)] {
            let r = Technology::builder().unit_res(res).unit_cap(cap).build();
            assert!(r.is_err(), "res={res} cap={cap} should be rejected");
        }
        let err = Technology::builder().unit_res(0.0).build().unwrap_err();
        assert!(err.to_string().contains("unit_res"));
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        let half = Technology::half_micron();
        let def = Technology::three_fifty_nm();
        let quarter = Technology::quarter_micron();
        // Wires get more resistive as features shrink…
        assert!(half.unit_res() < def.unit_res());
        assert!(def.unit_res() < quarter.unit_res());
        // …gates get smaller and faster…
        assert!(half.and_gate().input_cap() > quarter.and_gate().input_cap());
        assert!(half.and_gate().intrinsic_delay() > quarter.and_gate().intrinsic_delay());
        // …and supply drops while frequency rises.
        assert!(half.supply_v() > quarter.supply_v());
        assert!(half.clock_mhz() < quarter.clock_mhz());
    }

    #[test]
    fn power_conversion_units() {
        // 10 pF switched at 200 MHz under 3.3 V: 10e-12 * 200e6 * 10.89 W.
        let t = Technology::default();
        let p = t.power_uw(10.0);
        assert!((p - 10.0 * 200.0 * 3.3 * 3.3).abs() < 1e-9);
        assert!((p - 21780.0).abs() < 1e-6); // ≈ 21.8 mW
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync>() {}
        assert_err::<TechnologyError>();
    }
}
