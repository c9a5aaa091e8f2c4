use std::fmt;

use crate::frames::Frames;
use crate::{PageId, PAGE_SIZE};

/// Software page protection, mirroring the rights an `mprotect`-based DSM
/// would set on each page.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum AccessRights {
    /// Page is invalid; any access faults.
    #[default]
    None,
    /// Page is read-only; writes fault (write trapping for twin creation
    /// or ownership acquisition).
    Read,
    /// Page is fully accessible.
    Write,
}

impl AccessRights {
    /// Can the page be read under these rights?
    #[inline]
    pub fn readable(self) -> bool {
        self != AccessRights::None
    }

    /// Can the page be written under these rights?
    #[inline]
    pub fn writable(self) -> bool {
        self == AccessRights::Write
    }

    /// Does `kind` succeed under these rights?
    #[inline]
    fn permits(self, kind: FaultKind) -> bool {
        match kind {
            FaultKind::Read => self.readable(),
            FaultKind::Write => self.writable(),
        }
    }
}

impl fmt::Display for AccessRights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessRights::None => "none",
            AccessRights::Read => "ro",
            AccessRights::Write => "rw",
        };
        f.write_str(s)
    }
}

/// Kind of a denied access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A load touched a page without read rights.
    Read,
    /// A store touched a page without write rights.
    Write,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Read => f.write_str("read"),
            FaultKind::Write => f.write_str("write"),
        }
    }
}

/// A denied access: the software analogue of SIGSEGV delivered by the MMU.
///
/// The protocol layer resolves the fault (fetching pages/diffs, acquiring
/// ownership, twinning) and the access is retried.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PageFault {
    /// Page whose protection denied the access.
    pub page: PageId,
    /// Whether the denied access was a load or a store.
    pub kind: FaultKind,
}

impl fmt::Display for PageFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} fault on {}", self.kind, self.page)
    }
}

impl std::error::Error for PageFault {}

/// One processor's copy of the shared address space, with per-page
/// software protection.
///
/// `PagedMemory` is purely mechanical: it checks rights and moves bytes.
/// Which rights a page has at any moment is protocol policy and lives in
/// `adsm-core`.
///
/// # Examples
///
/// ```
/// use adsm_mempage::{AccessRights, FaultKind, PagedMemory, PageId};
///
/// let mut mem = PagedMemory::new(2);
/// // Everything starts invalid: loads fault.
/// assert_eq!(mem.try_read(0, 4).unwrap_err().kind, FaultKind::Read);
///
/// mem.set_rights(PageId::new(0), AccessRights::Write);
/// mem.try_write(0, &7u32.to_le_bytes()).unwrap();
/// let mut buf = [0u8; 4];
/// mem.try_read(0, 4).map(|b| buf.copy_from_slice(b)).unwrap();
/// assert_eq!(u32::from_le_bytes(buf), 7);
/// ```
#[derive(Clone, Debug)]
pub struct PagedMemory {
    bytes: Frames,
    rights: Vec<AccessRights>,
    /// Per-page dirty watermarks `[lo, hi)` (page-relative bytes): the
    /// window every modification since the last
    /// [`clear_dirty_span`](PagedMemory::clear_dirty_span) is known to
    /// fall into. `lo > hi` encodes "clean". Ranged mutation paths
    /// ([`try_write`](PagedMemory::try_write),
    /// [`span_unchecked_mut`](PagedMemory::span_unchecked_mut)) widen
    /// the window exactly; whole-page ones
    /// ([`page_mut`](PagedMemory::page_mut),
    /// [`install_page`](PagedMemory::install_page)) widen it to the
    /// whole page, so the window is always a sound bound for diffing.
    /// A page no mutating path has touched since the memory was made
    /// reads [`PRISTINE`]: the only pages a pooled frame has to zero
    /// again when it is given back.
    dirty: Vec<(u16, u16)>,
    /// The processor slot of the frame pool this memory's frame goes
    /// back to when it is dropped ([`PagedMemory::pooled`]).
    slot: Option<usize>,
}

/// "Clean" watermark sentinel: `lo` past the page end, `hi` at zero.
const CLEAN: (u16, u16) = (PAGE_SIZE as u16, 0);

/// "Clean, and never written" sentinel: as clean as [`CLEAN`] to
/// [`PagedMemory::dirty_span`], and turned into an ordinary window by
/// the first widening (its `hi` of 1 is below every widened `hi`), so
/// telling untouched pages apart costs the write paths nothing.
const PRISTINE: (u16, u16) = (PAGE_SIZE as u16, 1);

// The watermarks store page-relative offsets in u16.
const _: () = assert!(PAGE_SIZE <= u16::MAX as usize);

impl PagedMemory {
    /// Creates a zero-filled space of `npages` pages, all invalid, in a
    /// frame of its own: unlike [`PagedMemory::pooled`]'s, it neither
    /// comes from nor goes back to the frame pool.
    pub fn new(npages: usize) -> Self {
        PagedMemory::with_frames(Frames::zeroed(npages * PAGE_SIZE), npages, None)
    }

    /// Like [`PagedMemory::new`], for processor `slot` of a cluster:
    /// the bytes come from a process-wide pool of page frames. Dropping
    /// the memory zeroes the pages written through it and gives the
    /// frame back for `slot`, so the next run — of any size — reuses
    /// its resident pages instead of faulting fresh ones in (a frame
    /// keeps its mapping for a smaller space and grows it in place for
    /// a larger one). The pool keeps at most one frame per slot.
    pub fn pooled(npages: usize, slot: usize) -> Self {
        PagedMemory::with_frames(
            Frames::recycled(npages * PAGE_SIZE, slot),
            npages,
            Some(slot),
        )
    }

    fn with_frames(bytes: Frames, npages: usize, slot: Option<usize>) -> Self {
        PagedMemory {
            bytes,
            rights: vec![AccessRights::None; npages],
            dirty: vec![PRISTINE; npages],
            slot,
        }
    }

    /// Size of the space in pages.
    pub fn npages(&self) -> usize {
        self.rights.len()
    }

    /// Widens the dirty watermark of every page touched by
    /// `[addr, addr+len)` with the touched sub-range.
    #[inline]
    fn widen_dirty(&mut self, addr: usize, len: usize) {
        if len == 0 {
            return;
        }
        let end = addr + len;
        let first = addr / PAGE_SIZE;
        let last = (end - 1) / PAGE_SIZE;
        for idx in first..=last {
            let base = idx * PAGE_SIZE;
            let lo = addr.max(base) - base;
            let hi = end.min(base + PAGE_SIZE) - base;
            let w = &mut self.dirty[idx];
            w.0 = w.0.min(lo as u16);
            w.1 = w.1.max(hi as u16);
        }
    }

    /// Current rights of `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn rights(&self, page: PageId) -> AccessRights {
        self.rights[page.index()]
    }

    /// Sets the rights of `page` (the software `mprotect`).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn set_rights(&mut self, page: PageId, rights: AccessRights) {
        self.rights[page.index()] = rights;
    }

    /// Checked load of `len` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// Returns the first [`PageFault`] if any touched page lacks read
    /// rights; no bytes are returned in that case.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the address space.
    #[inline]
    pub fn try_read(&self, addr: usize, len: usize) -> Result<&[u8], PageFault> {
        self.check(addr, len, FaultKind::Read)?;
        Ok(&self.bytes[addr..addr + len])
    }

    /// Checked store of `data` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns the first [`PageFault`] if any touched page lacks write
    /// rights; the store is not performed in that case (stores are
    /// all-or-nothing at the API level, unlike hardware, so a fault can
    /// never leave a half-written range).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the address space.
    #[inline]
    pub fn try_write(&mut self, addr: usize, data: &[u8]) -> Result<(), PageFault> {
        self.check(addr, data.len(), FaultKind::Write)?;
        self.bytes[addr..addr + data.len()].copy_from_slice(data);
        self.widen_dirty(addr, data.len());
        Ok(())
    }

    /// Mutable slice of `[addr, addr+len)` with **no rights check** —
    /// the one unchecked store, used by a span guard whose rights were
    /// checked once when it faulted its whole span in. The whole range
    /// counts as written: the dirty watermarks of every covered page
    /// are widened over it immediately. A caller passes exactly the
    /// range it writes (one element for a scalar store, the view for a
    /// bulk one), so the watermark stays exact.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the address space. Debug builds
    /// additionally assert every touched page is writable.
    #[inline]
    pub fn span_unchecked_mut(&mut self, addr: usize, len: usize) -> &mut [u8] {
        debug_assert!(
            self.check(addr, len, FaultKind::Write).is_ok(),
            "span_unchecked_mut outside a writable span"
        );
        self.widen_dirty(addr, len);
        &mut self.bytes[addr..addr + len]
    }

    /// The dirty watermark of `page`: the page-relative byte window
    /// `[lo, hi)` every modification since the last
    /// [`clear_dirty_span`](PagedMemory::clear_dirty_span) is contained
    /// in, or `None` if the page is clean. The window is conservative
    /// (never narrower than the true modified range), which is what
    /// makes it a sound scan bound for
    /// [`Diff::encode_span_into`](crate::Diff::encode_span_into).
    #[inline]
    pub fn dirty_span(&self, page: PageId) -> Option<(usize, usize)> {
        let (lo, hi) = self.dirty[page.index()];
        (lo < hi).then_some((lo as usize, hi as usize))
    }

    /// Resets `page`'s dirty watermark to clean — called when a twin is
    /// taken, so the watermark bounds exactly the bytes that can differ
    /// from that twin.
    #[inline]
    pub fn clear_dirty_span(&mut self, page: PageId) {
        self.dirty[page.index()] = CLEAN;
    }

    /// First page in `[addr, addr+len)` whose rights deny `kind`, if any.
    #[inline]
    pub fn first_fault(&self, addr: usize, len: usize, kind: FaultKind) -> Option<PageFault> {
        self.check(addr, len, kind).err()
    }

    /// Rights check for `[addr, addr+len)` in a single pass over the
    /// touched page indices. The common case — an access within one page
    /// — costs one bounds assert and one table load; no iterator is
    /// constructed.
    #[inline]
    fn check(&self, addr: usize, len: usize, kind: FaultKind) -> Result<(), PageFault> {
        assert!(
            addr + len <= self.bytes.len(),
            "access [{addr}, +{len}) beyond shared space of {} bytes",
            self.bytes.len()
        );
        if len == 0 {
            return Ok(());
        }
        let first = addr / PAGE_SIZE;
        let last = (addr + len - 1) / PAGE_SIZE;
        for idx in first..=last {
            if !self.rights[idx].permits(kind) {
                return Err(PageFault {
                    page: PageId::new(idx),
                    kind,
                });
            }
        }
        Ok(())
    }

    /// Unchecked view of one page (protocol-side use: serving remote
    /// requests, twinning, diffing — the protocol bypasses protection just
    /// like a kernel would).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn page(&self, page: PageId) -> &[u8] {
        let base = page.base_addr();
        &self.bytes[base..base + PAGE_SIZE]
    }

    /// Unchecked mutable view of one page (protocol-side use). The
    /// caller may rewrite anything, so the page's dirty watermark
    /// conservatively widens to the whole page.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn page_mut(&mut self, page: PageId) -> &mut [u8] {
        self.dirty[page.index()] = (0, PAGE_SIZE as u16);
        let base = page.base_addr();
        &mut self.bytes[base..base + PAGE_SIZE]
    }

    /// Replaces the contents of `page` (installing a fetched copy).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one page or `page` is out of range.
    pub fn install_page(&mut self, page: PageId, data: &[u8]) {
        assert_eq!(data.len(), PAGE_SIZE, "installed copy must be one page");
        self.page_mut(page).copy_from_slice(data);
    }

    /// Unchecked read used by the protocol and by post-run collection.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the address space.
    pub fn raw(&self, addr: usize, len: usize) -> &[u8] {
        &self.bytes[addr..addr + len]
    }
}

impl Drop for PagedMemory {
    fn drop(&mut self) {
        let Some(slot) = self.slot else {
            return;
        };
        for (idx, &window) in self.dirty.iter().enumerate() {
            if window != PRISTINE {
                self.bytes[idx * PAGE_SIZE..(idx + 1) * PAGE_SIZE].fill(0);
            }
        }
        std::mem::replace(&mut self.bytes, Frames::zeroed(0)).recycle(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessRights as AR;

    #[test]
    fn fresh_memory_is_invalid() {
        let mem = PagedMemory::new(3);
        for i in 0..3 {
            assert_eq!(mem.rights(PageId::new(i)), AR::None);
        }
    }

    #[test]
    fn read_requires_read_rights() {
        let mut mem = PagedMemory::new(1);
        assert!(mem.try_read(0, 1).is_err());
        mem.set_rights(PageId::new(0), AR::Read);
        assert!(mem.try_read(0, 1).is_ok());
    }

    #[test]
    fn write_requires_write_rights() {
        let mut mem = PagedMemory::new(1);
        mem.set_rights(PageId::new(0), AR::Read);
        let fault = mem.try_write(0, &[1]).unwrap_err();
        assert_eq!(fault.kind, FaultKind::Write);
        assert_eq!(fault.page, PageId::new(0));
        mem.set_rights(PageId::new(0), AR::Write);
        assert!(mem.try_write(0, &[1]).is_ok());
    }

    #[test]
    fn spanning_access_faults_on_first_bad_page() {
        let mut mem = PagedMemory::new(2);
        mem.set_rights(PageId::new(0), AR::Write);
        // Page 1 still invalid: a write spanning both faults on page 1.
        let fault = mem.try_write(PAGE_SIZE - 2, &[1, 2, 3, 4]).unwrap_err();
        assert_eq!(fault.page, PageId::new(1));
        // And nothing was written to page 0.
        assert_eq!(mem.raw(PAGE_SIZE - 2, 2), &[0, 0]);
    }

    #[test]
    fn install_page_replaces_contents() {
        let mut mem = PagedMemory::new(1);
        let data = vec![7u8; PAGE_SIZE];
        mem.install_page(PageId::new(0), &data);
        assert_eq!(mem.page(PageId::new(0)), &data[..]);
    }

    #[test]
    #[should_panic(expected = "beyond shared space")]
    fn out_of_range_access_panics() {
        let mem = PagedMemory::new(1);
        let _ = mem.try_read(PAGE_SIZE - 1, 2);
    }

    #[test]
    fn dirty_span_tracks_checked_writes() {
        let mut mem = PagedMemory::new(2);
        let pg = PageId::new(0);
        mem.set_rights(pg, AR::Write);
        assert_eq!(mem.dirty_span(pg), None);
        mem.try_write(8, &[1, 2, 3, 4]).unwrap();
        assert_eq!(mem.dirty_span(pg), Some((8, 12)));
        mem.try_write(100, &[9]).unwrap();
        assert_eq!(mem.dirty_span(pg), Some((8, 101)));
        // Zero-length writes leave the watermark alone.
        mem.try_write(0, &[]).unwrap();
        assert_eq!(mem.dirty_span(pg), Some((8, 101)));
        mem.clear_dirty_span(pg);
        assert_eq!(mem.dirty_span(pg), None);
    }

    #[test]
    fn dirty_span_splits_across_pages() {
        let mut mem = PagedMemory::new(2);
        mem.set_rights(PageId::new(0), AR::Write);
        mem.set_rights(PageId::new(1), AR::Write);
        mem.span_unchecked_mut(PAGE_SIZE - 2, 4)
            .copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(
            mem.dirty_span(PageId::new(0)),
            Some((PAGE_SIZE - 2, PAGE_SIZE))
        );
        assert_eq!(mem.dirty_span(PageId::new(1)), Some((0, 2)));
    }

    /// Holds the pool to this test; the pool's state survives a test
    /// that panicked while holding it.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        crate::frames::TEST_SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Makes every page writable and writes through every mutating
    /// path, into pages 1, 5-6, 9 and 12.
    fn scribble(mem: &mut PagedMemory) {
        for pg in 0..mem.npages() {
            mem.set_rights(PageId::new(pg), AR::Write);
        }
        mem.try_write(PAGE_SIZE + 3, &[1, 2, 3]).unwrap();
        mem.span_unchecked_mut(6 * PAGE_SIZE - 2, 4).fill(0xEE);
        mem.install_page(PageId::new(9), &vec![0xAB; PAGE_SIZE]);
        mem.page_mut(PageId::new(12))[100] = 7;
    }

    #[test]
    fn a_recycled_frame_reads_all_zero_after_every_write_path() {
        let _serial = serial();
        let mut mem = PagedMemory::pooled(16, 2);
        scribble(&mut mem);
        let base = mem.bytes.as_ptr();
        drop(mem);
        let again = PagedMemory::pooled(16, 2);
        assert_eq!(again.bytes.as_ptr(), base, "slot 2's frame was not reused");
        assert!(again.raw(0, 16 * PAGE_SIZE).iter().all(|&b| b == 0));
        for pg in 0..16 {
            assert_eq!(again.rights(PageId::new(pg)), AR::None);
            assert_eq!(again.dirty_span(PageId::new(pg)), None);
        }
    }

    /// A frame reused for a smaller or a larger space reads all zero
    /// across its whole mapping — the tail a smaller space does not
    /// show included — after every write path of the space before.
    #[test]
    fn a_request_of_another_shape_never_sees_stale_bytes() {
        let _serial = serial();
        let mut mem = PagedMemory::pooled(16, 0);
        scribble(&mut mem);
        drop(mem);
        for npages in [17, 16, 13, 24, 14] {
            let (_, held) = crate::frames::pool_contents(0);
            let mapping = held.expect("slot 0's frame is back in the pool");
            assert!(mapping.len() >= npages.min(16) * PAGE_SIZE);
            assert!(mapping.iter().all(|&b| b == 0), "before {npages} pages");
            let mut other = PagedMemory::pooled(npages, 0);
            assert_eq!(other.npages(), npages);
            assert!(other.raw(0, npages * PAGE_SIZE).iter().all(|&b| b == 0));
            scribble(&mut other);
        }
    }

    #[test]
    fn the_pool_holds_at_most_one_frame_per_slot() {
        let _serial = serial();
        let total = || crate::frames::pool_contents(0).0;
        let held = |k| crate::frames::pool_contents(k).1.is_some();
        let before = total();
        // Two concurrent runs of four processors, of two sizes: the
        // frames that find their slot taken are unmapped.
        let runs: Vec<Vec<PagedMemory>> = [16, 40]
            .into_iter()
            .map(|npages| (0..4).map(|k| PagedMemory::pooled(npages, k)).collect())
            .collect();
        drop(runs);
        assert!((0..4).all(held));
        let after = total();
        assert!(
            after <= before + 4,
            "eight frames of four slots: {before} -> {after}"
        );
        // Unpooled memories and clones never enter it.
        let mut mem = PagedMemory::new(16);
        scribble(&mut mem);
        drop(mem.clone());
        drop(mem);
        assert_eq!(total(), after);
        // A smaller cluster of another size takes slots 0 and 1's
        // frames and gives them back: still one frame a slot.
        drop(
            (0..2)
                .map(|k| PagedMemory::pooled(4, k))
                .collect::<Vec<_>>(),
        );
        assert_eq!(total(), after);
    }

    #[test]
    fn unchecked_mutation_widens_to_full_page() {
        let mut mem = PagedMemory::new(1);
        let pg = PageId::new(0);
        let _ = mem.page_mut(pg);
        assert_eq!(mem.dirty_span(pg), Some((0, PAGE_SIZE)));
        mem.clear_dirty_span(pg);
        mem.install_page(pg, &vec![3u8; PAGE_SIZE]);
        assert_eq!(mem.dirty_span(pg), Some((0, PAGE_SIZE)));
    }
}
