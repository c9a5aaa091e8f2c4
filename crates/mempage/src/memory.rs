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
    /// fall into. `lo > hi` encodes "clean". Checked mutation paths
    /// ([`try_write`](PagedMemory::try_write),
    /// [`write_unchecked`](PagedMemory::write_unchecked)) widen the
    /// window exactly; unchecked ones
    /// ([`page_mut`](PagedMemory::page_mut),
    /// [`install_page`](PagedMemory::install_page)) widen it to the
    /// whole page, so the window is always a sound bound for diffing.
    dirty: Vec<(u16, u16)>,
}

/// "Clean" watermark sentinel: `lo` past the page end, `hi` at zero.
const CLEAN: (u16, u16) = (PAGE_SIZE as u16, 0);

// The watermarks store page-relative offsets in u16.
const _: () = assert!(PAGE_SIZE <= u16::MAX as usize);

impl PagedMemory {
    /// Creates a zero-filled space of `npages` pages, all invalid.
    pub fn new(npages: usize) -> Self {
        PagedMemory {
            bytes: Frames::zeroed(npages * PAGE_SIZE),
            rights: vec![AccessRights::None; npages],
            dirty: vec![CLEAN; npages],
        }
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

    /// Number of pages in the space.
    pub fn page_len(&self) -> usize {
        self.rights.len()
    }

    /// Size of the space in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
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

    /// Store of `data` at `addr` with **no rights check**: the write
    /// half of a span guard, whose rights were checked once when the
    /// guard faulted its whole span in. Widens the dirty watermark by
    /// exactly the stored range.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the address space. Debug builds
    /// additionally assert every touched page is writable (a guard
    /// holding the memory lock cannot lose rights mid-span).
    #[inline]
    pub fn write_unchecked(&mut self, addr: usize, data: &[u8]) {
        debug_assert!(
            self.check(addr, data.len(), FaultKind::Write).is_ok(),
            "write_unchecked outside a writable span"
        );
        self.bytes[addr..addr + data.len()].copy_from_slice(data);
        self.widen_dirty(addr, data.len());
    }

    /// Mutable slice of `[addr, addr+len)` with **no rights check** —
    /// the bulk-write surface of a span guard whose rights were checked
    /// at creation. The whole range counts as written: the dirty
    /// watermarks of every covered page are widened over it immediately
    /// (callers that write only part of the span should use
    /// [`write_unchecked`](PagedMemory::write_unchecked) instead, which
    /// tracks exactly).
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
        assert_eq!(mem.byte_len(), 3 * PAGE_SIZE);
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
        mem.write_unchecked(PAGE_SIZE - 2, &[1, 2, 3, 4]);
        assert_eq!(
            mem.dirty_span(PageId::new(0)),
            Some((PAGE_SIZE - 2, PAGE_SIZE))
        );
        assert_eq!(mem.dirty_span(PageId::new(1)), Some((0, 2)));
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
