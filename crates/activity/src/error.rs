use std::error::Error;
use std::fmt;

/// Errors produced while building activity models.
#[derive(Clone, Debug, PartialEq)]
pub enum ActivityError {
    /// A module index was outside the RTL's module universe.
    ModuleOutOfRange {
        /// Offending module index.
        module: usize,
        /// Number of modules in the universe.
        num_modules: usize,
    },
    /// An instruction index was outside the RTL's instruction list.
    InstructionOutOfRange {
        /// Offending instruction index.
        instruction: usize,
        /// Number of instructions defined.
        num_instructions: usize,
    },
    /// An instruction was declared with an empty module set.
    EmptyInstruction {
        /// Name of the offending instruction.
        name: String,
    },
    /// The RTL was built with no instructions or no modules.
    EmptyRtl,
    /// A stream or probability input was empty or inconsistent.
    InvalidStream {
        /// Human-readable reason.
        reason: String,
    },
    /// A model-builder parameter was out of its valid range.
    InvalidParameter {
        /// Which parameter was rejected.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An instruction count would exceed a hard capacity limit, checked
    /// before anything is allocated or truncated (mirroring
    /// `CtsError::CapacityExceeded`): the dense K² table
    /// ([`crate::Itmatt::MAX_INSTRUCTIONS`]) or the 16-bit
    /// [`crate::InstructionId`] space (65 536 instructions).
    CapacityExceeded {
        /// Requested instruction count K.
        instructions: usize,
        /// The hard limit.
        limit: usize,
    },
}

impl fmt::Display for ActivityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActivityError::ModuleOutOfRange {
                module,
                num_modules,
            } => write!(
                f,
                "module index {module} out of range (universe has {num_modules})"
            ),
            ActivityError::InstructionOutOfRange {
                instruction,
                num_instructions,
            } => write!(
                f,
                "instruction index {instruction} out of range ({num_instructions} defined)"
            ),
            ActivityError::EmptyInstruction { name } => {
                write!(f, "instruction `{name}` uses no modules")
            }
            ActivityError::EmptyRtl => write!(f, "RTL needs at least one instruction and module"),
            ActivityError::InvalidStream { reason } => write!(f, "invalid stream: {reason}"),
            ActivityError::InvalidParameter { name, value } => {
                write!(f, "parameter `{name}` out of range: {value}")
            }
            ActivityError::CapacityExceeded {
                instructions,
                limit,
            } => write!(
                f,
                "instruction count {instructions} exceeds the capacity limit ({limit})"
            ),
        }
    }
}

impl Error for ActivityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = ActivityError::ModuleOutOfRange {
            module: 9,
            num_modules: 6,
        };
        assert!(e.to_string().contains('9') && e.to_string().contains('6'));
        let e = ActivityError::InvalidParameter {
            name: "usage_fraction",
            value: 2.0,
        };
        assert!(e.to_string().contains("usage_fraction"));
        let e = ActivityError::CapacityExceeded {
            instructions: 70_000,
            limit: 4096,
        };
        assert!(e.to_string().contains("70000") && e.to_string().contains("4096"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<E: Error + Send + Sync + 'static>() {}
        check::<ActivityError>();
    }
}
