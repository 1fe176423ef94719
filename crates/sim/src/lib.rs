#![warn(missing_docs)]
//! Instruction-set simulator for the SPARC V8 (LEON3-class) core.
//!
//! This is the reproduction's analogue of the paper's OVP-based
//! processor model (Section III): an *instruction-accurate* — not
//! cycle-accurate — functional simulator, extended with per-category
//! instruction counters that are incremented inline in the execution
//! functions ("realized without using callback functions to ensure a
//! high simulation speed").
//!
//! Structure, mirroring Fig. 2 of the paper:
//!
//! * decode — done once per code word by [`machine::Machine`], which
//!   predecodes the loaded image into a flat `Vec<Instr>` (the morpher
//!   analogue: the expensive pattern matching happens once, execution
//!   dispatches on the predecoded form);
//! * disassembler — available through `nfp_sparc::disasm` and the
//!   optional trace hook;
//! * execution — [`exec`] implements the architectural semantics of
//!   every instruction group.
//!
//! The simulator is deterministic and has no notion of time or energy;
//! those are supplied either by the mechanistic model (`nfp-core`,
//! fast) or by the detailed hardware model (`nfp-testbed`, the
//! ground-truth stand-in for the FPGA board).

pub mod blocks;
pub mod bus;
pub mod cpu;
pub mod exec;
pub mod fault;
pub mod machine;
pub mod profile;
pub(crate) mod threaded;

pub use blocks::BlockCache;
pub use bus::{Bus, ConsoleDevice, RamSnapshot, RAM_BASE};
pub use cpu::{Cpu, INT_REG_SPACE, NWINDOWS};
pub use exec::{ExecInfo, NullObserver, Observer, Residue, Trap};
pub use fault::{Fault, FaultRng, FaultSpace, FaultTarget};
pub use machine::{
    Checkpoint, Dispatch, DispatchStats, ExitReason, Machine, MachineConfig, RunResult, SimError,
    TrapPolicy, TrapStats, Watchdog,
};
pub use profile::{PcHistogram, Tracer};
