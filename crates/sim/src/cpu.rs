//! Architectural CPU state: windowed integer register file, PSR flags,
//! Y register, FP register file, and the FSR condition code.

use nfp_sparc::cond::FccValue;
use nfp_sparc::{FReg, Reg};

/// Number of register windows (LEON3 default configuration).
pub const NWINDOWS: usize = 8;

/// Number of distinct fault-targetable integer registers: `%g1`–`%g7`
/// plus the `ins` and `locals` banks of every window (`%g0` is
/// hardwired to zero, so an upset there is always masked).
pub const INT_REG_SPACE: usize = 7 + NWINDOWS * 16;

/// Ceiling on frames the bare-metal overflow-handler model will spill
/// before declaring the trap unrecoverable. Corrupted control flow can
/// execute `save` in a loop; a real board would exhaust its stack long
/// before this.
pub const MAX_SPILL_FRAMES: usize = 1024;

/// [`FLAT`]'s entry for `%g0`, which has no flat index.
const NO_FLAT: u8 = u8::MAX;

/// [`Cpu::flat_index`] as a table: the flat index of each register
/// number, per current window.
const FLAT: [[u8; 32]; NWINDOWS] = {
    let mut table = [[NO_FLAT; 32]; NWINDOWS];
    let mut cwp = 0;
    while cwp < NWINDOWS {
        let outs = (cwp + NWINDOWS - 1) % NWINDOWS;
        let mut n = 1;
        while n < 32 {
            table[cwp][n] = match n {
                1..=7 => n - 1,
                8..=15 => 7 + outs * 16 + (n - 8),
                16..=23 => 7 + cwp * 16 + 8 + (n - 16),
                _ => 7 + cwp * 16 + (n - 24),
            } as u8;
            n += 1;
        }
        cwp += 1;
    }
    table
};

/// One register window spilled to "memory" by the trap-handler model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SpilledWindow {
    locals: [u32; 8],
    ins: [u32; 8],
}

/// Integer condition codes (the `icc` field of the PSR).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Icc {
    /// Negative.
    pub n: bool,
    /// Zero.
    pub z: bool,
    /// Overflow.
    pub v: bool,
    /// Carry.
    pub c: bool,
}

/// Full architectural register state of the core.
///
/// The integer file is stored as a flat 32-word view of the *current*
/// window (`cur`, indexed directly by [`Reg::num`]) backed by per-window
/// banks. Register reads and writes — the hottest operations in every
/// dispatch mode — are then a single array access with no window
/// arithmetic; the banked copies are reconciled only on window
/// rotations (`save`/`restore`), which are orders of magnitude rarer.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// Program counter of the instruction being executed.
    pub pc: u32,
    /// Next program counter (delay-slot architecture).
    pub npc: u32,
    /// Flat current-window view, indexed by [`Reg::num`]:
    /// `%g0-%g7`, `%o0-%o7`, `%l0-%l7`, `%i0-%i7`. Authoritative for
    /// the globals and for the three banks it mirrors (the previous
    /// window's `ins` = this window's outs, and the current window's
    /// `locals`/`ins`); `cur[0]` is pinned to zero.
    cur: [u32; 32],
    /// `ins` banks, one per window. The two banks mirrored by `cur`
    /// are stale between rotations; `cur` holds truth.
    ins: [[u32; 8]; NWINDOWS],
    /// `locals` banks, one per window. Same staleness rule as `ins`.
    locals: [[u32; 8]; NWINDOWS],
    /// Current window pointer.
    cwp: usize,
    /// Nesting depth of `save`s, for overflow/underflow detection.
    depth: usize,
    /// Integer condition codes.
    pub icc: Icc,
    /// The multiply/divide Y register.
    pub y: u32,
    /// FP registers as raw 32-bit words; doubles live in even/odd pairs
    /// with the even register holding the high word (big-endian).
    pub f: [u32; 32],
    /// FP condition code from the last `fcmp`.
    pub fcc: FccValue,
    /// Windows spilled by the bare-metal overflow-handler model, oldest
    /// first. Empty unless the machine runs with trap recovery enabled.
    spilled: Vec<SpilledWindow>,
    /// Window operations so far (see [`Cpu::window_ops`]). A count, not
    /// architectural state: `same_state` leaves it out.
    window_ops: u64,
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Cpu {
    /// A reset CPU: all registers zero, `fcc` = equal, window 0.
    pub fn new() -> Self {
        Cpu {
            pc: 0,
            npc: 4,
            cur: [0; 32],
            ins: [[0; 8]; NWINDOWS],
            locals: [[0; 8]; NWINDOWS],
            cwp: 0,
            depth: 0,
            icc: Icc::default(),
            y: 0,
            f: [0; 32],
            fcc: FccValue::Equal,
            spilled: Vec::new(),
            window_ops: 0,
        }
    }

    /// Reads an integer register in the current window.
    #[inline(always)]
    pub fn get(&self, r: Reg) -> u32 {
        // `& 31` restates the `Reg` invariant so no bounds check
        // survives in the hot path.
        self.cur[(r.num() & 31) as usize]
    }

    /// Writes an integer register in the current window; writes to
    /// `%g0` are discarded.
    #[inline(always)]
    pub fn set(&mut self, r: Reg, value: u32) {
        // Branchless `%g0` discard: store, then re-pin slot 0 to zero.
        self.cur[(r.num() & 31) as usize] = value;
        self.cur[0] = 0;
    }

    /// Bank index whose `ins` array holds the current window's outs:
    /// outs of window w are the ins of window `(w - 1) mod N`.
    #[inline]
    fn outs_bank(&self) -> usize {
        (self.cwp + NWINDOWS - 1) % NWINDOWS
    }

    /// Writes the three banks mirrored by `cur` back to backing store.
    /// Must be called before any operation that reads or rebinds the
    /// banks (window rotation, flat fault-space access).
    fn writeback_cur(&mut self) {
        let outs = self.outs_bank();
        self.ins[outs].copy_from_slice(&self.cur[8..16]);
        self.locals[self.cwp].copy_from_slice(&self.cur[16..24]);
        self.ins[self.cwp].copy_from_slice(&self.cur[24..32]);
    }

    /// Reloads `cur` from the banks the current `cwp` selects. The
    /// globals (`cur[0..8]`) live only in `cur` and are untouched.
    fn reload_cur(&mut self) {
        let outs = self.outs_bank();
        self.cur[8..16].copy_from_slice(&self.ins[outs]);
        self.cur[16..24].copy_from_slice(&self.locals[self.cwp]);
        self.cur[24..32].copy_from_slice(&self.ins[self.cwp]);
    }

    /// Rotates to a new window (`save`). Returns `false` on window
    /// overflow (more than `NWINDOWS - 2` nested saves), in which case
    /// the state is unchanged.
    #[must_use]
    pub fn window_save(&mut self) -> bool {
        if self.depth >= NWINDOWS - 2 {
            return false;
        }
        self.writeback_cur();
        self.depth += 1;
        self.cwp = (self.cwp + NWINDOWS - 1) % NWINDOWS;
        self.reload_cur();
        self.window_ops += 1;
        true
    }

    /// Rotates back to the previous window (`restore`). Returns `false`
    /// on window underflow.
    #[must_use]
    pub fn window_restore(&mut self) -> bool {
        if self.depth == 0 {
            return false;
        }
        self.writeback_cur();
        self.depth -= 1;
        self.cwp = (self.cwp + 1) % NWINDOWS;
        self.reload_cur();
        self.window_ops += 1;
        true
    }

    /// Current window nesting depth (0 at reset).
    pub fn window_depth(&self) -> usize {
        self.depth
    }

    /// Models a window-overflow trap handler: saves the oldest active
    /// frame's `locals`/`ins` banks to a spill stack and lowers the
    /// nesting depth so the faulting `save` can be retried. Returns
    /// `false` (state unchanged) if there is nothing to spill or the
    /// spill stack has hit [`MAX_SPILL_FRAMES`].
    #[must_use]
    pub fn window_spill(&mut self) -> bool {
        if self.depth == 0 || self.spilled.len() >= MAX_SPILL_FRAMES {
            return false;
        }
        let oldest = (self.cwp + self.depth) % NWINDOWS;
        // `depth` is always in 1..=NWINDOWS-2 here, so the oldest
        // window's banks are never the ones mirrored by `cur` (those
        // are `cwp` and `cwp - 1`); direct bank access is exact.
        debug_assert!(oldest != self.cwp && oldest != self.outs_bank());
        self.spilled.push(SpilledWindow {
            locals: self.locals[oldest],
            ins: self.ins[oldest],
        });
        self.depth -= 1;
        self.window_ops += 1;
        true
    }

    /// Models a window-underflow trap handler: refills the window the
    /// faulting `restore` is returning to from the spill stack and
    /// raises the nesting depth so the `restore` can be retried.
    /// Returns `true` if a spilled frame was restored; with an empty
    /// spill stack (corrupted control flow ran `restore` without a
    /// matching `save`) the banks keep their stale contents, which is
    /// what a real fill from a garbage stack pointer would amount to.
    pub fn window_fill(&mut self) -> bool {
        let target = (self.cwp + 1) % NWINDOWS;
        // `target` is neither `cwp` nor `cwp - 1`, so the banks being
        // refilled are not mirrored by `cur`; the retried `restore`
        // rotates into them and reloads `cur` from the filled banks.
        debug_assert!(target != self.cwp && target != self.outs_bank());
        let from_spill = if let Some(frame) = self.spilled.pop() {
            self.locals[target] = frame.locals;
            self.ins[target] = frame.ins;
            true
        } else {
            false
        };
        self.depth += 1;
        self.window_ops += 1;
        from_spill
    }

    /// Number of frames currently on the trap-handler spill stack.
    pub fn spilled_frames(&self) -> usize {
        self.spilled.len()
    }

    /// Window operations since reset: successful `save`s and
    /// `restore`s, spills and fills. They are the only operations that
    /// read or write the banks `cur` does not mirror, or the spill
    /// stack; a run that does none leaves that state unread.
    pub fn window_ops(&self) -> u64 {
        self.window_ops
    }

    /// Whether `self` and `other` hold the same architectural state:
    /// pc, npc, every register of the current window, the window
    /// pointer and depth, the condition codes, `%y` and the FP file.
    /// With `banks`, also the banks `cur` does not mirror and the spill
    /// stack. The mirrored banks are compared through `cur`, which
    /// holds their truth between rotations. [`Cpu::window_ops`] is a
    /// count, not state, and is left out.
    pub(crate) fn same_state(&self, other: &Cpu, banks: bool) -> bool {
        let core = self.pc == other.pc
            && self.npc == other.npc
            && self.cur == other.cur
            && self.cwp == other.cwp
            && self.depth == other.depth
            && self.icc == other.icc
            && self.y == other.y
            && self.f == other.f
            && self.fcc == other.fcc;
        if !core || !banks {
            return core;
        }
        // Equal `cwp`, so both sides mirror the same two banks.
        let outs = self.outs_bank();
        (0..NWINDOWS).all(|w| {
            (w == self.cwp || w == outs || self.ins[w] == other.ins[w])
                && (w == self.cwp || self.locals[w] == other.locals[w])
        }) && self.spilled == other.spilled
    }

    /// The flat fault-space index (see [`Cpu::flat_get`]) that `r`
    /// names in the current window, or `None` for `%g0`: the outs are
    /// the ins of the window a `save` would rotate to.
    #[inline]
    pub fn flat_index(&self, r: Reg) -> Option<usize> {
        match FLAT[self.cwp][r.num() as usize & 31] {
            NO_FLAT => None,
            index => Some(index as usize),
        }
    }

    /// The window whose banks the overflow handler spills next
    /// ([`Cpu::window_spill`]): the oldest active one.
    pub(crate) fn oldest_window(&self) -> usize {
        (self.cwp + self.depth) % NWINDOWS
    }

    /// Reads a register by flat fault-space index (see
    /// [`INT_REG_SPACE`]): `0..7` are `%g1`–`%g7`, then each window
    /// contributes its 8 `ins` followed by its 8 `locals`.
    pub fn flat_get(&self, index: usize) -> u32 {
        assert!(index < INT_REG_SPACE, "flat register index out of range");
        match index {
            0..=6 => self.cur[index + 1],
            _ => {
                let w = (index - 7) / 16;
                let r = (index - 7) % 16;
                if r < 8 {
                    // Mirrored banks read through `cur`, which holds
                    // truth between window rotations.
                    if w == self.cwp {
                        self.cur[24 + r]
                    } else if w == self.outs_bank() {
                        self.cur[8 + r]
                    } else {
                        self.ins[w][r]
                    }
                } else if w == self.cwp {
                    self.cur[16 + (r - 8)]
                } else {
                    self.locals[w][r - 8]
                }
            }
        }
    }

    /// Writes a register by flat fault-space index (see [`flat_get`]).
    ///
    /// [`flat_get`]: Cpu::flat_get
    pub fn flat_set(&mut self, index: usize, value: u32) {
        assert!(index < INT_REG_SPACE, "flat register index out of range");
        match index {
            0..=6 => self.cur[index + 1] = value,
            _ => {
                let w = (index - 7) / 16;
                let r = (index - 7) % 16;
                if r < 8 {
                    // Mirrored banks write through `cur`; a bank write
                    // there would be clobbered by the next writeback.
                    if w == self.cwp {
                        self.cur[24 + r] = value;
                    } else if w == self.outs_bank() {
                        self.cur[8 + r] = value;
                    } else {
                        self.ins[w][r] = value;
                    }
                } else if w == self.cwp {
                    self.cur[16 + (r - 8)] = value;
                } else {
                    self.locals[w][r - 8] = value;
                }
            }
        }
    }

    /// Reads an FP register as raw bits.
    #[inline]
    pub fn fget(&self, r: FReg) -> u32 {
        self.f[r.num() as usize]
    }

    /// Writes an FP register as raw bits.
    #[inline]
    pub fn fset(&mut self, r: FReg, bits: u32) {
        self.f[r.num() as usize] = bits;
    }

    /// Reads an even/odd FP register pair as a double. The caller must
    /// have validated that `r` is even.
    #[inline]
    pub fn fget_d(&self, r: FReg) -> f64 {
        let n = r.num() as usize;
        let bits = ((self.f[n] as u64) << 32) | self.f[n + 1] as u64;
        f64::from_bits(bits)
    }

    /// Writes a double into an even/odd FP register pair.
    #[inline]
    pub fn fset_d(&mut self, r: FReg, value: f64) {
        let bits = value.to_bits();
        let n = r.num() as usize;
        self.f[n] = (bits >> 32) as u32;
        self.f[n + 1] = bits as u32;
    }

    /// Reads an FP register as a single.
    #[inline]
    pub fn fget_s(&self, r: FReg) -> f32 {
        f32::from_bits(self.fget(r))
    }

    /// Writes an FP register as a single.
    #[inline]
    pub fn fset_s(&mut self, r: FReg, value: f32) {
        self.fset(r, value.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn g0_reads_zero_and_ignores_writes() {
        let mut cpu = Cpu::new();
        cpu.set(Reg::g(0), 0xdead);
        assert_eq!(cpu.get(Reg::g(0)), 0);
    }

    #[test]
    fn globals_are_window_independent() {
        let mut cpu = Cpu::new();
        cpu.set(Reg::g(3), 7);
        assert!(cpu.window_save());
        assert_eq!(cpu.get(Reg::g(3)), 7);
    }

    #[test]
    fn outs_become_ins_across_save() {
        let mut cpu = Cpu::new();
        cpu.set(Reg::o(0), 11);
        cpu.set(Reg::o(7), 99);
        assert!(cpu.window_save());
        assert_eq!(cpu.get(Reg::i(0)), 11);
        assert_eq!(cpu.get(Reg::i(7)), 99);
        // Locals are private to the new window.
        cpu.set(Reg::l(0), 5);
        assert!(cpu.window_restore());
        assert_eq!(cpu.get(Reg::l(0)), 0);
        assert_eq!(cpu.get(Reg::o(0)), 11);
    }

    #[test]
    fn window_overflow_detected() {
        let mut cpu = Cpu::new();
        for _ in 0..NWINDOWS - 2 {
            assert!(cpu.window_save());
        }
        assert!(!cpu.window_save());
        assert_eq!(cpu.window_depth(), NWINDOWS - 2);
    }

    #[test]
    fn window_underflow_detected() {
        let mut cpu = Cpu::new();
        assert!(!cpu.window_restore());
    }

    #[test]
    fn spill_then_fill_roundtrips_oldest_frame() {
        let mut cpu = Cpu::new();
        cpu.set(Reg::l(3), 0x1111);
        cpu.set(Reg::i(2), 0x2222);
        // Exhaust the windows, then spill to make room for one more.
        for d in 0..NWINDOWS - 2 {
            cpu.set(Reg::o(5), o_marker(d));
            assert!(cpu.window_save());
        }
        assert!(!cpu.window_save());
        assert!(cpu.window_spill());
        assert_eq!(cpu.spilled_frames(), 1);
        assert!(cpu.window_save());

        // Unwind all the way; the final restore underflows and needs a
        // fill, which must bring back the original frame's registers.
        for _ in 0..NWINDOWS - 2 {
            assert!(cpu.window_restore());
        }
        assert!(!cpu.window_restore());
        assert!(cpu.window_fill());
        assert!(cpu.window_restore());
        assert_eq!(cpu.get(Reg::l(3)), 0x1111);
        assert_eq!(cpu.get(Reg::i(2)), 0x2222);
        assert_eq!(cpu.spilled_frames(), 0);
    }

    fn o_marker(d: usize) -> u32 {
        0xa000 + d as u32
    }

    #[test]
    fn fill_without_spill_reports_stale() {
        let mut cpu = Cpu::new();
        assert!(!cpu.window_fill());
        // The fill raised depth so a retried restore succeeds.
        assert!(cpu.window_restore());
        assert_eq!(cpu.window_depth(), 0);
    }

    #[test]
    fn flat_index_roundtrip_covers_whole_space() {
        let mut cpu = Cpu::new();
        for i in 0..INT_REG_SPACE {
            cpu.flat_set(i, i as u32 + 1);
        }
        for i in 0..INT_REG_SPACE {
            assert_eq!(cpu.flat_get(i), i as u32 + 1, "index {i}");
        }
        // Flat index 0 is %g1, never %g0.
        assert_eq!(cpu.get(Reg::g(1)), 1);
        assert_eq!(cpu.get(Reg::g(0)), 0);
    }

    #[test]
    fn flat_index_aliases_current_window() {
        let mut cpu = Cpu::new();
        cpu.set(Reg::l(4), 77);
        // Window 0's locals sit after its ins in the flat layout.
        assert_eq!(cpu.flat_get(7 + 8 + 4), 77);
    }

    #[test]
    fn double_registers_are_big_endian_pairs() {
        let mut cpu = Cpu::new();
        cpu.fset_d(FReg::new(2), 1.5);
        let bits = 1.5f64.to_bits();
        assert_eq!(cpu.fget(FReg::new(2)), (bits >> 32) as u32);
        assert_eq!(cpu.fget(FReg::new(3)), bits as u32);
        assert_eq!(cpu.fget_d(FReg::new(2)), 1.5);
    }

    #[test]
    fn single_roundtrip() {
        let mut cpu = Cpu::new();
        cpu.fset_s(FReg::new(1), -3.25);
        assert_eq!(cpu.fget_s(FReg::new(1)), -3.25);
    }
}
