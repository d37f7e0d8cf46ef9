use std::fmt;

use crate::{ActivityError, ModuleSet};

/// Identifier of an instruction inside an [`Rtl`] description.
///
/// Two bytes wide, so a materialized trace, a chunk buffer and every
/// scan read cost 2 bytes per cycle; an [`Rtl`] therefore holds at most
/// 65 536 instructions.
///
/// `Default` is the first instruction (index 0) — handy as a fill value
/// for the chunk buffers the streaming scan reads into.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstructionId(pub(crate) u16);

/// Largest instruction count an [`Rtl`] (and so a
/// [`CpuModel`](crate::CpuModel) or a parsed RTL text) may define: every
/// id must fit [`InstructionId`]'s 16 bits.
pub(crate) const MAX_INSTRUCTIONS: usize = 1 << 16;

impl InstructionId {
    /// Dense index of the instruction.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstructionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "I{}", u32::from(self.0) + 1)
    }
}

/// The RTL description of a processor: which modules each instruction uses
/// (Table 1 of the paper).
///
/// ```
/// use gcr_activity::Rtl;
///
/// let rtl = Rtl::builder(6)
///     .instruction("I1", [0, 1, 2, 4])?
///     .instruction("I2", [0, 3])?
///     .build()?;
/// assert_eq!(rtl.num_instructions(), 2);
/// assert!(rtl.uses(rtl.instruction_ids().next().unwrap(), 2));
/// # Ok::<(), gcr_activity::ActivityError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Rtl {
    num_modules: usize,
    names: Vec<String>,
    usage: Vec<ModuleSet>,
}

impl Rtl {
    /// Starts building an RTL description over `num_modules` modules.
    #[must_use]
    pub fn builder(num_modules: usize) -> RtlBuilder {
        RtlBuilder {
            num_modules,
            names: Vec::new(),
            usage: Vec::new(),
        }
    }

    /// Number of modules in the universe (the paper's N).
    #[must_use]
    pub fn num_modules(&self) -> usize {
        self.num_modules
    }

    /// Number of instructions (the paper's K).
    #[must_use]
    pub fn num_instructions(&self) -> usize {
        self.usage.len()
    }

    /// The name of instruction `id`.
    #[must_use]
    pub fn name(&self, id: InstructionId) -> &str {
        &self.names[id.index()]
    }

    /// The set of modules instruction `id` uses.
    #[must_use]
    pub fn modules_used(&self, id: InstructionId) -> &ModuleSet {
        &self.usage[id.index()]
    }

    /// Whether instruction `id` uses module `m`.
    #[must_use]
    pub fn uses(&self, id: InstructionId, m: usize) -> bool {
        self.usage[id.index()].contains(m)
    }

    /// Whether instruction `id` uses any module of `set` — i.e. whether the
    /// enable signal of a node owning `set` is on while `id` executes.
    ///
    /// # Panics
    ///
    /// Panics if `set` is over a different module universe.
    #[must_use]
    pub fn activates(&self, id: InstructionId, set: &ModuleSet) -> bool {
        self.usage[id.index()].intersects(set)
    }

    /// Iterator over all instruction ids in order.
    pub fn instruction_ids(&self) -> impl Iterator<Item = InstructionId> + '_ {
        // `RtlBuilder::instruction` caps the count at `MAX_INSTRUCTIONS`,
        // so every index fits 16 bits.
        (0..self.usage.len()).map(|i| InstructionId(i as u16))
    }

    /// Checked conversion from a raw index.
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::InstructionOutOfRange`] when `index` is not
    /// a valid instruction.
    pub fn instruction(&self, index: usize) -> Result<InstructionId, ActivityError> {
        if index < self.usage.len() {
            // Below the count, which `RtlBuilder::instruction` caps at 2^16.
            Ok(InstructionId(index as u16))
        } else {
            Err(ActivityError::InstructionOutOfRange {
                instruction: index,
                num_instructions: self.usage.len(),
            })
        }
    }

    /// Average number of used modules per instruction, as a fraction of the
    /// module universe — the paper's `Ave(M(I))` column of Table 4.
    #[must_use]
    pub fn avg_usage_fraction(&self) -> f64 {
        if self.usage.is_empty() || self.num_modules == 0 {
            return 0.0;
        }
        let total: usize = self.usage.iter().map(ModuleSet::len).sum();
        total as f64 / (self.usage.len() as f64 * self.num_modules as f64)
    }
}

/// Builder for [`Rtl`]; see [`Rtl::builder`].
#[derive(Clone, Debug)]
pub struct RtlBuilder {
    num_modules: usize,
    names: Vec<String>,
    usage: Vec<ModuleSet>,
}

impl RtlBuilder {
    /// Declares an instruction and the modules it uses.
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::ModuleOutOfRange`] for bad module indices,
    /// [`ActivityError::EmptyInstruction`] when `modules` is empty and
    /// [`ActivityError::CapacityExceeded`] for the instruction after the
    /// 65 536th, whose id would not fit 16 bits.
    pub fn instruction<I: IntoIterator<Item = usize>>(
        mut self,
        name: &str,
        modules: I,
    ) -> Result<Self, ActivityError> {
        if self.usage.len() == MAX_INSTRUCTIONS {
            return Err(ActivityError::CapacityExceeded {
                instructions: MAX_INSTRUCTIONS + 1,
                limit: MAX_INSTRUCTIONS,
            });
        }
        let mut set = ModuleSet::new(self.num_modules);
        let mut any = false;
        for m in modules {
            if m >= self.num_modules {
                return Err(ActivityError::ModuleOutOfRange {
                    module: m,
                    num_modules: self.num_modules,
                });
            }
            set.insert(m);
            any = true;
        }
        if !any {
            return Err(ActivityError::EmptyInstruction {
                name: name.to_owned(),
            });
        }
        self.names.push(name.to_owned());
        self.usage.push(set);
        Ok(self)
    }

    /// Finishes the description.
    ///
    /// # Errors
    ///
    /// Returns [`ActivityError::EmptyRtl`] when no instructions (or no
    /// modules) were declared.
    pub fn build(self) -> Result<Rtl, ActivityError> {
        if self.usage.is_empty() || self.num_modules == 0 {
            return Err(ActivityError::EmptyRtl);
        }
        Ok(Rtl {
            num_modules: self.num_modules,
            names: self.names,
            usage: self.usage,
        })
    }
}

/// The paper's Table 1 example RTL: four instructions over six modules.
///
/// ```
/// let rtl = gcr_activity::paper_example_rtl();
/// assert_eq!(rtl.num_instructions(), 4);
/// assert_eq!(rtl.num_modules(), 6);
/// ```
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "the literal Table-1 module sets are statically in range"
)]
pub fn paper_example_rtl() -> Rtl {
    Rtl::builder(6)
        .instruction("I1", [0, 1, 2, 4])
        .and_then(|b| b.instruction("I2", [0, 3]))
        .and_then(|b| b.instruction("I3", [1, 4, 5]))
        .and_then(|b| b.instruction("I4", [2, 3]))
        .and_then(RtlBuilder::build)
        .expect("paper example RTL is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table1_round_trip() {
        let rtl = paper_example_rtl();
        let i1 = rtl.instruction(0).unwrap();
        let i3 = rtl.instruction(2).unwrap();
        assert_eq!(rtl.name(i1), "I1");
        assert!(rtl.uses(i1, 0) && rtl.uses(i1, 4) && !rtl.uses(i1, 5));
        // I1 and I3 are the instructions touching {M5, M6}.
        let m56 = ModuleSet::with_modules(6, [4, 5]);
        let activators: Vec<String> = rtl
            .instruction_ids()
            .filter(|&i| rtl.activates(i, &m56))
            .map(|i| rtl.name(i).to_owned())
            .collect();
        assert_eq!(activators, vec!["I1", "I3"]);
        assert!(rtl.uses(i3, 5));
    }

    #[test]
    fn avg_usage_fraction_matches_hand_count() {
        let rtl = paper_example_rtl();
        // (4 + 2 + 3 + 2) / (4 * 6) = 11/24.
        assert!((rtl.avg_usage_fraction() - 11.0 / 24.0).abs() < 1e-12);
    }

    #[test]
    fn bad_module_index_is_reported() {
        let err = Rtl::builder(4).instruction("X", [7]).unwrap_err();
        assert_eq!(
            err,
            ActivityError::ModuleOutOfRange {
                module: 7,
                num_modules: 4
            }
        );
    }

    #[test]
    fn empty_instruction_is_rejected() {
        let err = Rtl::builder(4)
            .instruction("NOP", std::iter::empty())
            .unwrap_err();
        assert!(matches!(err, ActivityError::EmptyInstruction { .. }));
    }

    #[test]
    fn empty_rtl_is_rejected() {
        assert_eq!(
            Rtl::builder(4).build().unwrap_err(),
            ActivityError::EmptyRtl
        );
        assert!(Rtl::builder(0).build().is_err());
    }

    #[test]
    fn out_of_range_instruction_lookup() {
        let rtl = paper_example_rtl();
        assert!(rtl.instruction(3).is_ok());
        assert!(matches!(
            rtl.instruction(4),
            Err(ActivityError::InstructionOutOfRange { .. })
        ));
    }

    /// 65 536 instructions fill the 16-bit id space; the next one is a
    /// structured error, never a wrapped id.
    #[test]
    fn instruction_after_the_id_space_is_rejected() {
        let mut builder = Rtl::builder(1);
        for i in 0..MAX_INSTRUCTIONS {
            builder = builder.instruction(&format!("I{}", i + 1), [0]).unwrap();
        }
        let full = builder.clone().build().unwrap();
        assert_eq!(full.num_instructions(), 65_536);
        let last = full.instruction(65_535).unwrap();
        assert_eq!(full.name(last), "I65536");
        assert_eq!(full.instruction_ids().last(), Some(last));
        assert_eq!(
            builder.instruction("I65537", [0]).unwrap_err(),
            ActivityError::CapacityExceeded {
                instructions: 65_537,
                limit: 65_536,
            }
        );
    }

    #[test]
    fn largest_id_displays_without_overflow() {
        assert_eq!(InstructionId(u16::MAX).to_string(), "I65536");
        assert_eq!(InstructionId(u16::MAX).index(), 65_535);
    }

    #[test]
    fn instruction_id_display() {
        let rtl = paper_example_rtl();
        assert_eq!(format!("{}", rtl.instruction(0).unwrap()), "I1");
        assert_eq!(format!("{}", rtl.instruction(3).unwrap()), "I4");
    }
}
