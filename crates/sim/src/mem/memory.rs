//! Flat, byte-addressable data memory.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use pandora_isa::Width;

/// A fault raised by an out-of-bounds data memory access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemFault {
    /// The faulting byte address.
    pub addr: u64,
    /// The access size in bytes.
    pub len: usize,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "memory fault: {}-byte access at {:#x} out of bounds",
            self.len, self.addr
        )
    }
}

impl std::error::Error for MemFault {}

/// Log2 of the dirty-tracking page size: restore moves memory in 4 KiB
/// pages.
const PAGE_SHIFT: usize = 12;

/// Process-wide source of sealed-image ids; 0 means "no image". The
/// ids publish no other data (only their uniqueness matters), so
/// `Relaxed` suffices.
static NEXT_IMAGE: AtomicU64 = AtomicU64::new(1);

/// Flat, byte-addressable data memory.
///
/// The simulator uses a single physical address space (virtual ==
/// physical); software-level protection is provided by the sandbox
/// verifier, not by paging — which is exactly the setting of the
/// paper's DMP attack (§V-B).
///
/// Besides the bytes, a memory keeps two pieces of bookkeeping that
/// make recycling and checkpoint restore proportional to what a trial
/// wrote rather than to the memory size:
///
/// * the **write high-water mark** ([`Memory::dirty_hi`]): every byte
///   at or above it is zero, so the whole-memory [`Memory::clear`] of a
///   machine reset zero-fills only `..dirty_hi`;
/// * a **page-dirty bitmap** over 4 KiB pages plus the id of the
///   **sealed image** the memory descends from. Invariant: when the id
///   is nonzero, the memory equals that image except on pages whose
///   bit is set. [`Machine::snapshot`] seals the checkpoint's copy
///   (fresh id, empty bitmap); every [`Memory::write`],
///   [`Memory::write_bytes`] and [`Memory::clear`] sets the bits of
///   the pages it touches; and [`Memory::restore_from`] between two
///   memories of the same image copies only the pages either side
///   dirtied.
///
/// The image id is drawn from a process-wide counter, so it depends on
/// the order checkpoints were taken in. It is pure bookkeeping: it
/// never reaches equality, `Debug` output, digests or reports.
///
/// ```
/// use pandora_sim::Memory;
/// let mut m = Memory::new(4096);
/// m.write_u64(16, 0xdead_beef).unwrap();
/// assert_eq!(m.read_u64(16).unwrap(), 0xdead_beef);
/// assert!(m.read_u64(4090).is_err());
/// ```
///
/// [`Machine::snapshot`]: crate::Machine::snapshot
#[derive(Clone, Eq)]
pub struct Memory {
    bytes: Vec<u8>,
    /// Exclusive upper bound of bytes that may be nonzero.
    dirty_hi: usize,
    /// One bit per page (bit `p % 64` of word `p / 64`): set when the
    /// page may differ from the sealed image `base`.
    dirty: Vec<u64>,
    /// The sealed image this memory equals outside its dirty pages;
    /// 0 when it descends from none.
    base: u64,
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("size", &self.bytes.len())
            .field("dirty_hi", &self.dirty_hi)
            .finish()
    }
}

/// Equality is over contents only: the dirty high-water mark and the
/// page bitmap are conservative bookkeeping bounds (a cleared-then-
/// reused memory may carry a higher mark and more dirty pages than a
/// fresh one with identical bytes), and the image id is process-order
/// dependent.
impl PartialEq for Memory {
    fn eq(&self, other: &Memory) -> bool {
        self.bytes == other.bytes
    }
}

impl Memory {
    /// Creates a zero-filled memory of `size` bytes.
    #[must_use]
    pub fn new(size: usize) -> Memory {
        let pages = size.div_ceil(1 << PAGE_SHIFT);
        Memory {
            bytes: vec![0; size],
            dirty_hi: 0,
            dirty: vec![0; pages.div_ceil(64)],
            base: 0,
        }
    }

    /// The memory size in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Whether an access of `len` bytes at `addr` lies in bounds.
    #[must_use]
    pub fn contains(&self, addr: u64, len: usize) -> bool {
        (addr as usize)
            .checked_add(len)
            .is_some_and(|end| end <= self.bytes.len())
    }

    fn check(&self, addr: u64, len: usize) -> Result<usize, MemFault> {
        if self.contains(addr, len) {
            Ok(addr as usize)
        } else {
            Err(MemFault { addr, len })
        }
    }

    /// Sets the dirty bit of the page holding byte `at`.
    #[inline]
    fn mark(&mut self, at: usize) {
        let page = at >> PAGE_SHIFT;
        self.dirty[page / 64] |= 1 << (page % 64);
    }

    /// Sets the dirty bits of every page overlapping `lo..hi`.
    fn mark_range(&mut self, lo: usize, hi: usize) {
        if lo < hi {
            for page in lo >> PAGE_SHIFT..=(hi - 1) >> PAGE_SHIFT {
                self.dirty[page / 64] |= 1 << (page % 64);
            }
        }
    }

    /// Reads `width` bytes at `addr` as a little-endian value,
    /// zero-extended to 64 bits.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the access is out of bounds.
    pub fn read(&self, addr: u64, width: Width) -> Result<u64, MemFault> {
        let n = width.bytes();
        let base = self.check(addr, n)?;
        let mut v: u64 = 0;
        for (i, &b) in self.bytes[base..base + n].iter().enumerate() {
            v |= u64::from(b) << (8 * i);
        }
        Ok(v)
    }

    /// Writes the low `width` bytes of `value` at `addr`, little-endian.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the access is out of bounds.
    pub fn write(&mut self, addr: u64, value: u64, width: Width) -> Result<(), MemFault> {
        let n = width.bytes();
        let base = self.check(addr, n)?;
        for i in 0..n {
            self.bytes[base + i] = (value >> (8 * i)) as u8;
        }
        self.dirty_hi = self.dirty_hi.max(base + n);
        // An access of at most 8 bytes spans at most two pages: two
        // unconditional bit-sets, no loop, on the store-drain hot path.
        self.mark(base);
        self.mark(base + n - 1);
        Ok(())
    }

    /// Reads a `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the access is out of bounds.
    pub fn read_u64(&self, addr: u64) -> Result<u64, MemFault> {
        self.read(addr, Width::Dword)
    }

    /// Writes a `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the access is out of bounds.
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), MemFault> {
        self.write(addr, value, Width::Dword)
    }

    /// Reads a single byte at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the access is out of bounds.
    pub fn read_u8(&self, addr: u64) -> Result<u8, MemFault> {
        self.read(addr, Width::Byte).map(|v| v as u8)
    }

    /// Writes a single byte at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the access is out of bounds.
    pub fn write_u8(&mut self, addr: u64, value: u8) -> Result<(), MemFault> {
        self.write(addr, u64::from(value), Width::Byte)
    }

    /// Copies `data` into memory starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the region is out of bounds.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
        let base = self.check(addr, data.len())?;
        self.bytes[base..base + data.len()].copy_from_slice(data);
        self.dirty_hi = self.dirty_hi.max(base + data.len());
        self.mark_range(base, base + data.len());
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the region is out of bounds.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<&[u8], MemFault> {
        let base = self.check(addr, len)?;
        Ok(&self.bytes[base..base + len])
    }

    /// The write high-water mark: the exclusive upper bound of bytes
    /// that may be nonzero. Exposed so checkpoint/restore code (and its
    /// regression tests) can prove the mark travels with the contents.
    #[must_use]
    pub fn dirty_hi(&self) -> usize {
        self.dirty_hi
    }

    /// Seals this memory as a new immutable image: a fresh
    /// process-wide image id and an empty page bitmap, so every memory
    /// later cloned from it or restored from it moves only the pages it
    /// dirtied. [`Machine::snapshot`] seals the checkpoint's own copy,
    /// which is never written again; clones keep the id, which is sound
    /// because their contents are identical.
    ///
    /// [`Machine::snapshot`]: crate::Machine::snapshot
    pub(crate) fn seal(&mut self) {
        self.base = NEXT_IMAGE.fetch_add(1, Ordering::Relaxed);
        self.dirty.fill(0);
    }

    /// Makes `self` equal to `src` in place — contents, high-water
    /// mark, page bitmap and image id — and returns how many 4 KiB
    /// pages it rewrote.
    ///
    /// When both memories descend from the same sealed image and have
    /// the same size (a checkpoint fork being restored from its
    /// checkpoint), each equals the image outside its own dirty pages,
    /// so copying `src`'s bytes over the union of the two bitmaps makes
    /// them equal everywhere: a trial that wrote two pages costs two
    /// page copies. Otherwise the high-water-mark path runs: zero
    /// `self`'s stale tail above `src`'s mark and copy `src`'s whole
    /// dirty prefix (across sizes, copy everything).
    ///
    /// Adopting `src`'s bookkeeping is a correctness requirement, not
    /// an optimization detail: [`Memory`] equality is contents-only,
    /// a partial [`Memory::clear`] keeps the mark, and the next
    /// whole-memory clear (the recycled-pool `reset_to` path) and the
    /// next restore trust the mark and the bitmap. A stale lower mark,
    /// or a bitmap missing a page, would let the previous trial's
    /// bytes survive — leaking one trial's secrets into the next.
    pub fn restore_from(&mut self, src: &Memory) -> usize {
        let len = self.bytes.len();
        let pages = if self.base != 0 && self.base == src.base && len == src.bytes.len() {
            let mut copied = 0;
            for (w, (&mine, &theirs)) in self.dirty.iter().zip(&src.dirty).enumerate() {
                let mut bits = mine | theirs;
                while bits != 0 {
                    let lo = (w * 64 + bits.trailing_zeros() as usize) << PAGE_SHIFT;
                    let hi = (lo + (1 << PAGE_SHIFT)).min(len);
                    self.bytes[lo..hi].copy_from_slice(&src.bytes[lo..hi]);
                    copied += 1;
                    bits &= bits - 1;
                }
            }
            copied
        } else if len == src.bytes.len() {
            let touched = self.dirty_hi.max(src.dirty_hi);
            if self.dirty_hi > src.dirty_hi {
                self.bytes[src.dirty_hi..self.dirty_hi].fill(0);
            }
            self.bytes[..src.dirty_hi].copy_from_slice(&src.bytes[..src.dirty_hi]);
            touched.div_ceil(1 << PAGE_SHIFT)
        } else {
            self.bytes.clone_from(&src.bytes);
            src.bytes.len().div_ceil(1 << PAGE_SHIFT)
        };
        self.dirty_hi = src.dirty_hi;
        self.dirty.clone_from(&src.dirty);
        self.base = src.base;
        pages
    }

    /// Zero-fills `len` bytes starting at `addr`. A clear that covers
    /// the whole dirty prefix (notably the whole-memory clear issued by
    /// machine reset) zero-fills only up to the write high-water mark —
    /// everything beyond it is already zero — and rewinds the mark.
    /// The pages it zero-fills are marked dirty.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the region is out of bounds.
    pub fn clear(&mut self, addr: u64, len: usize) -> Result<(), MemFault> {
        let base = self.check(addr, len)?;
        if base == 0 && len >= self.dirty_hi {
            self.bytes[..self.dirty_hi].fill(0);
            self.mark_range(0, self.dirty_hi);
            self.dirty_hi = 0;
        } else {
            self.bytes[base..base + len].fill(0);
            self.mark_range(base, base + len);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip_all_widths() {
        let mut m = Memory::new(64);
        for (w, mask) in [
            (Width::Byte, 0xffu64),
            (Width::Half, 0xffff),
            (Width::Word, 0xffff_ffff),
            (Width::Dword, u64::MAX),
        ] {
            m.write(8, 0x1122_3344_5566_7788, w).unwrap();
            assert_eq!(m.read(8, w).unwrap(), 0x1122_3344_5566_7788 & mask);
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new(16);
        m.write_u64(0, 0x0807_0605_0403_0201).unwrap();
        for i in 0..8 {
            assert_eq!(m.read_u8(i).unwrap(), (i + 1) as u8);
        }
    }

    #[test]
    fn out_of_bounds_faults() {
        let m = Memory::new(16);
        assert_eq!(m.read_u64(9), Err(MemFault { addr: 9, len: 8 }));
        assert_eq!(m.read_u64(16), Err(MemFault { addr: 16, len: 8 }));
        assert!(m.read_u8(15).is_ok());
        assert!(m.read_u8(16).is_err());
    }

    #[test]
    fn overflowing_address_faults_instead_of_panicking() {
        let m = Memory::new(16);
        assert!(m.read_u64(u64::MAX - 3).is_err());
        assert!(!m.contains(u64::MAX, 8));
    }

    #[test]
    fn bulk_bytes() {
        let mut m = Memory::new(32);
        m.write_bytes(4, &[1, 2, 3, 4]).unwrap();
        assert_eq!(m.read_bytes(4, 4).unwrap(), &[1, 2, 3, 4]);
        m.clear(5, 2).unwrap();
        assert_eq!(m.read_bytes(4, 4).unwrap(), &[1, 0, 0, 4]);
        assert!(m.write_bytes(30, &[0; 4]).is_err());
    }

    #[test]
    fn whole_memory_clear_rewinds_the_dirty_mark() {
        let mut m = Memory::new(1 << 16);
        m.write_u64(0x100, 0x1111).unwrap();
        m.write_bytes(0x4000, &[0xff; 32]).unwrap();
        assert_eq!(m.dirty_hi, 0x4020);
        m.clear(0, 1 << 16).unwrap();
        assert_eq!(m.dirty_hi, 0, "full clear rewinds the mark");
        assert_eq!(m, Memory::new(1 << 16), "cleared memory equals fresh");
        // Partial clears zero their range but keep the mark (they
        // cannot prove anything about bytes above them).
        m.write_u8(0x200, 7).unwrap();
        m.clear(0x200, 1).unwrap();
        assert_eq!(m.read_u8(0x200).unwrap(), 0);
        assert_eq!(m.dirty_hi, 0x201);
        // A clear covering the dirty prefix from 0 counts as full even
        // if shorter than the memory.
        m.write_u8(0x80, 3).unwrap();
        m.clear(0, 0x1000).unwrap();
        assert_eq!(m.dirty_hi, 0);
        assert_eq!(m, Memory::new(1 << 16));
    }

    #[test]
    fn restore_from_adopts_contents_and_dirty_mark() {
        // The checkpoint: a small dirty prefix.
        let mut ck = Memory::new(1 << 16);
        ck.write_u64(0x100, 0xc0ff_ee).unwrap();
        assert_eq!(ck.dirty_hi(), 0x108);

        // A recycled machine whose previous trial wrote "secrets" far
        // above the checkpoint's mark.
        let mut m = Memory::new(1 << 16);
        m.write_u64(0x100, 0xdead).unwrap();
        m.write_bytes(0x8000, &[0xaa; 64]).unwrap();
        assert_eq!(m.dirty_hi(), 0x8040);

        m.restore_from(&ck);
        assert_eq!(m, ck, "contents restored");
        assert_eq!(
            m.dirty_hi(),
            0x108,
            "the mark must be restored with the contents"
        );
        assert_eq!(
            m.read_bytes(0x8000, 64).unwrap(),
            &[0u8; 64],
            "stale bytes above the restored mark are zeroed, not leaked"
        );

        // The hazard the mark-restore prevents: the next whole-memory
        // clear trusts the mark, so a stale lower mark would leave the
        // previous trial's bytes alive.
        m.write_u64(0x4000, 0x5ec2e7).unwrap();
        m.clear(0, 1 << 16).unwrap();
        assert_eq!(m, Memory::new(1 << 16), "recycle leaves no residue");

        // Size mismatch falls back to a full adopt.
        let mut other = Memory::new(1 << 12);
        other.write_u8(7, 9).unwrap();
        other.restore_from(&ck);
        assert_eq!(other.size(), 1 << 16);
        assert_eq!(other, ck);
        assert_eq!(other.dirty_hi(), ck.dirty_hi());
    }

    #[test]
    fn restore_between_forks_of_one_image_copies_only_dirty_pages() {
        let mut image = Memory::new(1 << 16);
        image.write_bytes(0x100, &[7; 32]).unwrap();
        image.write_u64(0x8000, 0x1234).unwrap();
        image.seal();

        let mut fork = image.clone();
        assert_eq!(
            fork.restore_from(&image),
            0,
            "an untouched fork copies nothing"
        );
        fork.write_u64(0x2ffc, u64::MAX).unwrap(); // straddles pages 2 and 3
        fork.write_u8(0xffff, 1).unwrap(); // the last page, above the image's mark
        assert_eq!(fork.restore_from(&image), 3);
        assert_eq!(fork, image);
        assert_eq!(fork.dirty_hi(), image.dirty_hi());
        assert_eq!(
            fork.restore_from(&image),
            0,
            "the image's bitmap was adopted"
        );

        // Fork to fork: the union of both bitmaps moves, and the
        // destination inherits the source's dirty pages.
        let mut a = image.clone();
        a.write_u8(0x1000, 1).unwrap();
        let mut b = image.clone();
        b.write_u8(0x5000, 2).unwrap();
        assert_eq!(a.restore_from(&b), 2);
        assert_eq!(a, b);
        assert_eq!(a.restore_from(&image), 1);
        assert_eq!(a, image);

        // Clears mark what they zero, including the whole-memory clear
        // of a reset, which leaves a fork equal to a fresh memory.
        a.clear(0x8000, 8).unwrap();
        assert_eq!(a.restore_from(&image), 1);
        a.clear(0, 1 << 16).unwrap();
        assert_eq!(a, Memory::new(1 << 16));
        assert_eq!(a.restore_from(&image), 9, "pages below the old mark 0x8008");
        assert_eq!(a, image);

        // A memory of no image takes the high-water-mark path and then
        // joins the image.
        let mut cold = Memory::new(1 << 16);
        cold.write_u8(0x9000, 5).unwrap();
        assert_eq!(
            cold.restore_from(&image),
            10,
            "pages below max(0x9001, 0x8008)"
        );
        assert_eq!(cold, image);
        assert_eq!(cold.restore_from(&image), 0);
    }

    #[test]
    fn fault_display() {
        let e = MemFault { addr: 0x20, len: 8 };
        assert!(e.to_string().contains("0x20"));
    }
}
