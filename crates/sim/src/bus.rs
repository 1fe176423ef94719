//! Memory bus: a flat big-endian RAM plus the memory-mapped console.
//!
//! The layout follows the LEON3 convention of RAM at `0x4000_0000`.
//! The built-in [`ConsoleDevice`] claims the [`CONSOLE_BASE`] window
//! outside RAM and provides the bare-metal "UART" the workloads use
//! for output and result reporting.

use std::fmt;

/// Base address of RAM (LEON3 convention).
pub const RAM_BASE: u32 = 0x4000_0000;

/// Default RAM size: 64 MiB, comfortably larger than any workload image.
pub const DEFAULT_RAM_SIZE: u32 = 64 << 20;

/// Base address of the console device.
pub const CONSOLE_BASE: u32 = 0x8000_0000;

/// Console register: write a byte to the text output.
pub const CONSOLE_TX: u32 = CONSOLE_BASE;

/// Console register: write a 32-bit word to the structured result
/// stream (used by workloads to emit checksums the harness verifies).
pub const CONSOLE_EMIT: u32 = CONSOLE_BASE + 4;

/// Log2 of the dirty-tracking page size (4 KiB pages).
pub const PAGE_SHIFT: u32 = 12;

/// Dirty-tracking page size in bytes.
pub const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Contents of every dirty RAM page at a point in time, as captured by
/// [`Bus::snapshot_ram`]. Together with the boot-time pristine images
/// this is enough to rebuild the exact RAM state later, without copying
/// the full (mostly untouched) RAM.
#[derive(Debug, Clone)]
pub struct RamSnapshot {
    /// Dirty bitmap at snapshot time, one bit per page.
    dirty: Vec<u64>,
    /// `(page index, page contents)` for every dirty page.
    pages: Vec<(usize, Vec<u8>)>,
}

impl RamSnapshot {
    /// Number of pages captured.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

/// Access fault raised by the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BusFault {
    /// No RAM or device claims the address.
    Unmapped { addr: u32 },
    /// The access is not naturally aligned for its width.
    Misaligned { addr: u32, size: u32 },
    /// A bulk image load overlaps a segment loaded earlier; accepting
    /// it would make checkpoint re-pristining order-dependent and is
    /// almost always a malformed guest image.
    ImageOverlap { addr: u32, len: u32 },
}

impl fmt::Display for BusFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusFault::Unmapped { addr } => write!(f, "unmapped address 0x{addr:08x}"),
            BusFault::Misaligned { addr, size } => {
                write!(f, "misaligned {size}-byte access at 0x{addr:08x}")
            }
            BusFault::ImageOverlap { addr, len } => {
                write!(
                    f,
                    "image segment [0x{addr:08x}, 0x{:08x}) overlaps an earlier segment",
                    addr.wrapping_add(*len)
                )
            }
        }
    }
}

impl std::error::Error for BusFault {}

/// Length of the console's window at [`CONSOLE_BASE`] in bytes.
const CONSOLE_LEN: u32 = 8;

/// The console/host device: text output plus a structured word stream.
/// Accesses are word-granular; the bus performs alignment checks before
/// dispatching.
#[derive(Debug, Default)]
pub struct ConsoleDevice {
    /// Accumulated text written through [`CONSOLE_TX`].
    pub text: String,
    /// Accumulated words written through [`CONSOLE_EMIT`].
    pub words: Vec<u32>,
}

impl ConsoleDevice {
    /// Whether `addr` lies in the console's window.
    fn claims(addr: u32) -> bool {
        addr.wrapping_sub(CONSOLE_BASE) < CONSOLE_LEN
    }

    /// Word store at `addr`, inside the window.
    fn store(&mut self, addr: u32, value: u32) {
        if addr == CONSOLE_TX {
            self.text.push((value & 0xff) as u8 as char);
        } else {
            self.words.push(value);
        }
    }
}

/// The system bus: RAM plus the console.
pub struct Bus {
    ram: Vec<u8>,
    ram_base: u32,
    /// One bit per [`PAGE_SIZE`] page, set by CPU-initiated stores.
    /// Bulk image loads ([`Bus::write_bytes`]) are recorded as pristine
    /// overlays instead, so checkpoints only carry run-time mutations.
    dirty: Vec<u64>,
    /// Boot-time images applied by [`Bus::write_bytes`], in order.
    pristine: Vec<(u32, Vec<u8>)>,
    /// The console is built in so the run harness can read it back.
    pub console: ConsoleDevice,
}

impl Bus {
    /// A bus with the default RAM configuration.
    pub fn new() -> Self {
        Self::with_ram(RAM_BASE, DEFAULT_RAM_SIZE)
    }

    /// A bus with RAM of `size` bytes at `base`.
    pub fn with_ram(base: u32, size: u32) -> Self {
        let pages = (size as usize).div_ceil(PAGE_SIZE);
        Bus {
            ram: vec![0; size as usize],
            ram_base: base,
            dirty: vec![0; pages.div_ceil(64)],
            pristine: Vec::new(),
            console: ConsoleDevice::default(),
        }
    }

    /// The RAM base address.
    pub fn ram_base(&self) -> u32 {
        self.ram_base
    }

    /// The RAM size in bytes.
    pub fn ram_size(&self) -> u32 {
        self.ram.len() as u32
    }

    /// RAM offset of `addr` if the whole `size`-byte access fits in
    /// RAM. An access that *starts* in RAM but runs past the end (a
    /// RAM that is not a multiple of the access width, or a truncated
    /// image) is rejected here instead of panicking on the slice.
    #[inline]
    fn ram_index(&self, addr: u32, size: usize) -> Option<usize> {
        let off = addr.wrapping_sub(self.ram_base) as usize;
        if off < self.ram.len() && size <= self.ram.len() - off {
            Some(off)
        } else {
            None
        }
    }

    #[inline]
    fn mark_dirty(&mut self, ram_index: usize) {
        let page = ram_index >> PAGE_SHIFT;
        self.dirty[page >> 6] |= 1u64 << (page & 63);
    }

    /// Bulk-loads `bytes` into RAM at `addr` (harness use). The write
    /// is recorded as a pristine overlay, not a dirty page: it is part
    /// of the boot image that [`Bus::restore_ram`] rebuilds from.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), BusFault> {
        let idx = self
            .ram_index(addr, bytes.len())
            .ok_or(BusFault::Unmapped { addr })?;
        let len = bytes.len() as u32;
        let overlaps = self
            .pristine
            .iter()
            .any(|&(base, ref b)| addr < base.wrapping_add(b.len() as u32) && base < addr + len);
        if len > 0 && overlaps {
            return Err(BusFault::ImageOverlap { addr, len });
        }
        self.ram[idx..idx + bytes.len()].copy_from_slice(bytes);
        self.pristine.push((addr, bytes.to_vec()));
        Ok(())
    }

    /// Bulk-reads RAM (harness use).
    pub fn read_bytes(&self, addr: u32, len: usize) -> Result<&[u8], BusFault> {
        let idx = self
            .ram_index(addr, len)
            .ok_or(BusFault::Unmapped { addr })?;
        Ok(&self.ram[idx..idx + len])
    }

    /// Captures the contents of every page dirtied since boot (or since
    /// the last [`Bus::restore_ram`] that shrank the dirty set).
    pub fn snapshot_ram(&self) -> RamSnapshot {
        let mut pages = Vec::new();
        for page in self.dirty_pages() {
            let start = page << PAGE_SHIFT;
            let end = (start + PAGE_SIZE).min(self.ram.len());
            pages.push((page, self.ram[start..end].to_vec()));
        }
        RamSnapshot {
            dirty: self.dirty.clone(),
            pages,
        }
    }

    /// Rewinds RAM to the state captured by `snap`: pages dirty now but
    /// clean at snapshot time are rebuilt from zeros plus the pristine
    /// overlays; pages dirty at snapshot time are copied back. The
    /// snapshot must come from this bus (same RAM geometry and boot
    /// images).
    pub fn restore_ram(&mut self, snap: &RamSnapshot) {
        for page in self.dirty_pages() {
            let in_snap = snap
                .dirty
                .get(page >> 6)
                .is_some_and(|w| w >> (page & 63) & 1 != 0);
            if !in_snap {
                self.repristine_page(page);
            }
        }
        for (page, contents) in &snap.pages {
            let start = page << PAGE_SHIFT;
            self.ram[start..start + contents.len()].copy_from_slice(contents);
        }
        self.dirty.copy_from_slice(&snap.dirty);
    }

    /// Rebuilds one page from the boot state: zeros overlaid with any
    /// intersecting pristine images.
    fn repristine_page(&mut self, page: usize) {
        let start = page << PAGE_SHIFT;
        let end = (start + PAGE_SIZE).min(self.ram.len());
        self.ram[start..end].fill(0);
        // Split borrows: the overlay list is disjoint from `ram`.
        let pristine = std::mem::take(&mut self.pristine);
        for (addr, bytes) in &pristine {
            let img_start = addr.wrapping_sub(self.ram_base) as usize;
            let img_end = img_start + bytes.len();
            let lo = img_start.max(start);
            let hi = img_end.min(end);
            if lo < hi {
                self.ram[lo..hi].copy_from_slice(&bytes[lo - img_start..hi - img_start]);
            }
        }
        self.pristine = pristine;
    }

    /// Indices of all currently dirty pages, ascending.
    fn dirty_pages(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (wi, &word) in self.dirty.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(wi * 64 + b);
                bits &= bits - 1;
            }
        }
        out
    }

    /// Byte ranges `(addr, len)` of all currently dirty pages, with
    /// adjacent pages coalesced. Fault campaigns use this to aim RAM
    /// upsets at live data instead of the untouched bulk of memory.
    pub fn dirty_ranges(&self) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = Vec::new();
        for page in self.dirty_pages() {
            let start = self.ram_base + (page << PAGE_SHIFT) as u32;
            match out.last_mut() {
                Some((base, len)) if *base + *len == start => *len += PAGE_SIZE as u32,
                _ => out.push((start, PAGE_SIZE as u32)),
            }
        }
        out
    }

    /// Byte ranges `(addr, len)` of the boot-time images loaded through
    /// [`Bus::write_bytes`].
    pub fn pristine_ranges(&self) -> Vec<(u32, u32)> {
        self.pristine
            .iter()
            .map(|(addr, bytes)| (*addr, bytes.len() as u32))
            .collect()
    }

    #[inline]
    fn check_align(addr: u32, size: u32) -> Result<(), BusFault> {
        if !addr.is_multiple_of(size) {
            Err(BusFault::Misaligned { addr, size })
        } else {
            Ok(())
        }
    }

    /// 8-bit load.
    #[inline]
    pub fn load8(&mut self, addr: u32) -> Result<u8, BusFault> {
        match self.ram_index(addr, 1) {
            Some(i) => Ok(self.ram[i]),
            None => Ok(self.device_load(addr)? as u8),
        }
    }

    /// 16-bit big-endian load.
    #[inline]
    pub fn load16(&mut self, addr: u32) -> Result<u16, BusFault> {
        Self::check_align(addr, 2)?;
        match self.ram_index(addr, 2) {
            Some(i) => Ok(u16::from_be_bytes([self.ram[i], self.ram[i + 1]])),
            None => Ok(self.device_load(addr)? as u16),
        }
    }

    /// 32-bit big-endian load.
    #[inline]
    pub fn load32(&mut self, addr: u32) -> Result<u32, BusFault> {
        Self::check_align(addr, 4)?;
        match self.ram_index(addr, 4) {
            Some(i) => Ok(u32::from_be_bytes([
                self.ram[i],
                self.ram[i + 1],
                self.ram[i + 2],
                self.ram[i + 3],
            ])),
            None => self.device_load(addr),
        }
    }

    /// 64-bit big-endian load (for `ldd`/`lddf`). SPARC V8 requires
    /// doubleword (8-byte) alignment; a merely word-aligned address
    /// faults with `size: 8`.
    #[inline]
    pub fn load64(&mut self, addr: u32) -> Result<u64, BusFault> {
        Self::check_align(addr, 8)?;
        if let Some(i) = self.ram_index(addr, 8) {
            let mut b = [0u8; 8];
            b.copy_from_slice(&self.ram[i..i + 8]);
            return Ok(u64::from_be_bytes(b));
        }
        if self.ram_index(addr, 1).is_some() {
            // Starts in RAM but runs past the end: fault, never split.
            return Err(BusFault::Unmapped { addr });
        }
        let hi = self.load32(addr)? as u64;
        let lo = self.load32(addr + 4)? as u64;
        Ok((hi << 32) | lo)
    }

    /// 8-bit store.
    #[inline]
    pub fn store8(&mut self, addr: u32, value: u8) -> Result<(), BusFault> {
        match self.ram_index(addr, 1) {
            Some(i) => {
                self.ram[i] = value;
                self.mark_dirty(i);
                Ok(())
            }
            None => self.device_store(addr, value as u32),
        }
    }

    /// 16-bit big-endian store.
    #[inline]
    pub fn store16(&mut self, addr: u32, value: u16) -> Result<(), BusFault> {
        Self::check_align(addr, 2)?;
        match self.ram_index(addr, 2) {
            Some(i) => {
                self.ram[i..i + 2].copy_from_slice(&value.to_be_bytes());
                self.mark_dirty(i);
                Ok(())
            }
            None => self.device_store(addr, value as u32),
        }
    }

    /// 32-bit big-endian store.
    #[inline]
    pub fn store32(&mut self, addr: u32, value: u32) -> Result<(), BusFault> {
        Self::check_align(addr, 4)?;
        match self.ram_index(addr, 4) {
            Some(i) => {
                self.ram[i..i + 4].copy_from_slice(&value.to_be_bytes());
                self.mark_dirty(i);
                Ok(())
            }
            None => self.device_store(addr, value),
        }
    }

    /// 64-bit big-endian store (for `std`/`stdf`). SPARC V8 requires
    /// doubleword (8-byte) alignment; a merely word-aligned address
    /// faults with `size: 8`. The RAM path validates the whole access
    /// before writing, so a doubleword straddling the end of RAM faults
    /// without committing its first half (no torn store).
    #[inline]
    pub fn store64(&mut self, addr: u32, value: u64) -> Result<(), BusFault> {
        Self::check_align(addr, 8)?;
        if let Some(i) = self.ram_index(addr, 8) {
            self.ram[i..i + 8].copy_from_slice(&value.to_be_bytes());
            self.mark_dirty(i);
            // An 8-aligned doubleword never crosses a page boundary.
            return Ok(());
        }
        if self.ram_index(addr, 1).is_some() {
            // Starts in RAM but runs past the end: fault before any
            // half commits (no torn store).
            return Err(BusFault::Unmapped { addr });
        }
        self.store32(addr, (value >> 32) as u32)?;
        self.store32(addr + 4, value as u32)
    }

    /// A load outside RAM: the console's window reads as zero.
    #[cold]
    fn device_load(&mut self, addr: u32) -> Result<u32, BusFault> {
        if ConsoleDevice::claims(addr) {
            return Ok(0);
        }
        Err(BusFault::Unmapped { addr })
    }

    /// A store outside RAM: only the console's window takes it.
    #[cold]
    fn device_store(&mut self, addr: u32, value: u32) -> Result<(), BusFault> {
        if ConsoleDevice::claims(addr) {
            self.console.store(addr, value);
            return Ok(());
        }
        Err(BusFault::Unmapped { addr })
    }
}

impl Default for Bus {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_bus() -> Bus {
        Bus::with_ram(RAM_BASE, 4096)
    }

    #[test]
    fn big_endian_word_layout() {
        let mut bus = small_bus();
        bus.store32(RAM_BASE, 0x1122_3344).unwrap();
        assert_eq!(bus.load8(RAM_BASE).unwrap(), 0x11);
        assert_eq!(bus.load8(RAM_BASE + 3).unwrap(), 0x44);
        assert_eq!(bus.load16(RAM_BASE + 2).unwrap(), 0x3344);
    }

    #[test]
    fn double_word_roundtrip() {
        let mut bus = small_bus();
        bus.store64(RAM_BASE + 8, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(bus.load64(RAM_BASE + 8).unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(bus.load32(RAM_BASE + 8).unwrap(), 0x0102_0304);
    }

    #[test]
    fn misaligned_accesses_fault() {
        let mut bus = small_bus();
        assert_eq!(
            bus.load32(RAM_BASE + 2),
            Err(BusFault::Misaligned {
                addr: RAM_BASE + 2,
                size: 4
            })
        );
        assert_eq!(
            bus.store16(RAM_BASE + 1, 0),
            Err(BusFault::Misaligned {
                addr: RAM_BASE + 1,
                size: 2
            })
        );
        assert!(bus.load64(RAM_BASE + 4).is_err());
    }

    #[test]
    fn word_aligned_doubles_still_fault_with_size_8() {
        // SPARC V8 doubleword accesses need 8-byte alignment; an
        // address that is only word-aligned must report the full
        // 8-byte access size, not 4.
        let mut bus = small_bus();
        let addr = RAM_BASE + 12;
        assert_eq!(
            bus.load64(addr),
            Err(BusFault::Misaligned { addr, size: 8 })
        );
        assert_eq!(
            bus.store64(addr, 0),
            Err(BusFault::Misaligned { addr, size: 8 })
        );
    }

    #[test]
    fn double_store_at_ram_end_does_not_tear() {
        // An 8-aligned doubleword whose second word falls past the end
        // of RAM must fault without committing the first half.
        let mut bus = Bus::with_ram(RAM_BASE, 4100);
        let addr = RAM_BASE + 4096;
        assert!(bus.store64(addr, 0xdead_beef_0123_4567).is_err());
        assert_eq!(bus.load32(addr).unwrap(), 0, "no partial write");
        assert!(bus.load64(addr).is_err());
    }

    #[test]
    fn unmapped_accesses_fault() {
        let mut bus = small_bus();
        assert_eq!(
            bus.load32(0x1000_0000),
            Err(BusFault::Unmapped { addr: 0x1000_0000 })
        );
        // one past the end of RAM
        let end = RAM_BASE + 4096;
        assert_eq!(bus.load8(end), Err(BusFault::Unmapped { addr: end }));
    }

    #[test]
    fn console_collects_text_and_words() {
        let mut bus = small_bus();
        for b in b"hi" {
            bus.store32(CONSOLE_TX, *b as u32).unwrap();
        }
        bus.store32(CONSOLE_EMIT, 0xabcd).unwrap();
        assert_eq!(bus.console.text, "hi");
        assert_eq!(bus.console.words, vec![0xabcd]);
    }

    #[test]
    fn bulk_image_load() {
        let mut bus = small_bus();
        bus.write_bytes(RAM_BASE + 16, &[1, 2, 3, 4]).unwrap();
        assert_eq!(bus.read_bytes(RAM_BASE + 16, 4).unwrap(), &[1, 2, 3, 4]);
        assert_eq!(bus.load32(RAM_BASE + 16).unwrap(), 0x0102_0304);
    }

    #[test]
    fn bulk_access_out_of_range_is_an_error() {
        let mut bus = small_bus();
        assert!(bus.write_bytes(0x1000_0000, &[0]).is_err());
        assert!(bus.write_bytes(RAM_BASE + 4094, &[0; 8]).is_err());
        assert!(bus.read_bytes(RAM_BASE + 4094, 8).is_err());
    }

    #[test]
    fn overlapping_image_segments_are_rejected() {
        let mut bus = small_bus();
        bus.write_bytes(RAM_BASE + 64, &[1; 32]).unwrap();
        // Disjoint on both sides is fine, including exactly adjacent.
        bus.write_bytes(RAM_BASE + 32, &[2; 32]).unwrap();
        bus.write_bytes(RAM_BASE + 96, &[3; 32]).unwrap();
        // Any intersection with an earlier segment is rejected.
        for (addr, len) in [
            (RAM_BASE + 64, 1usize),
            (RAM_BASE + 60, 8),
            (RAM_BASE + 95, 2),
        ] {
            assert_eq!(
                bus.write_bytes(addr, &vec![9; len]),
                Err(BusFault::ImageOverlap {
                    addr,
                    len: len as u32
                })
            );
        }
        // A rejected segment must leave RAM untouched.
        assert_eq!(bus.load8(RAM_BASE + 64).unwrap(), 1);
    }

    #[test]
    fn ragged_ram_edge_faults_instead_of_panicking() {
        // A RAM whose size is not a multiple of the access width used
        // to slice out of bounds for an access that starts on the last
        // bytes; every width must fault cleanly instead.
        let mut bus = Bus::with_ram(RAM_BASE, 4098);
        let last2 = RAM_BASE + 4096;
        assert!(bus.load16(last2).is_ok());
        assert!(bus.load32(last2).is_err());
        assert!(bus.store32(last2, 0).is_err());
        let mut odd = Bus::with_ram(RAM_BASE, 4097);
        let last = RAM_BASE + 4096;
        assert!(odd.load8(last).is_ok());
        assert!(odd.load16(last).is_err());
        assert!(odd.store16(last, 0).is_err());
    }

    #[test]
    fn snapshot_restore_rewinds_cpu_stores() {
        let mut bus = small_bus();
        bus.write_bytes(RAM_BASE, &[9; 64]).unwrap(); // boot image
        bus.store32(RAM_BASE + 128, 0xaaaa_bbbb).unwrap();
        let snap = bus.snapshot_ram();

        bus.store32(RAM_BASE + 128, 0xdead_beef).unwrap();
        bus.store8(RAM_BASE + 4, 0).unwrap(); // clobber boot image
        bus.restore_ram(&snap);

        assert_eq!(bus.load32(RAM_BASE + 128).unwrap(), 0xaaaa_bbbb);
        assert_eq!(bus.load8(RAM_BASE + 4).unwrap(), 9);
    }

    #[test]
    fn restore_repristines_pages_clean_at_snapshot_time() {
        let mut bus = Bus::with_ram(RAM_BASE, 64 * 1024);
        bus.write_bytes(RAM_BASE + 8192, &[7; 16]).unwrap();
        let snap = bus.snapshot_ram();
        assert_eq!(snap.page_count(), 0); // boot images are not dirty

        // Dirty a page that was clean at snapshot time, both over the
        // boot image and over untouched zeros.
        bus.store32(RAM_BASE + 8192, 0xffff_ffff).unwrap();
        bus.store32(RAM_BASE + 4096, 0x1234_5678).unwrap();
        bus.restore_ram(&snap);

        assert_eq!(bus.load32(RAM_BASE + 8192).unwrap(), 0x0707_0707);
        assert_eq!(bus.load32(RAM_BASE + 4096).unwrap(), 0);
        assert!(bus.dirty_ranges().is_empty());
    }

    #[test]
    fn dirty_ranges_coalesce_adjacent_pages() {
        let mut bus = Bus::with_ram(RAM_BASE, 64 * 1024);
        bus.store8(RAM_BASE, 1).unwrap();
        bus.store8(RAM_BASE + 4096, 1).unwrap();
        bus.store8(RAM_BASE + 3 * 4096, 1).unwrap();
        assert_eq!(
            bus.dirty_ranges(),
            vec![(RAM_BASE, 8192), (RAM_BASE + 3 * 4096, 4096)]
        );
    }
}
