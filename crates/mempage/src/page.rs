use std::fmt;

/// Size of a DSM page in bytes (the SPARC/SunOS page size used by
/// TreadMarks and by the paper's measurements).
pub const PAGE_SIZE: usize = 4096;

/// Diffing granularity in bytes: diffs compare 32-bit words.
pub const WORD_SIZE: usize = 4;

/// Identifier of a page of the shared address space.
///
/// Pages are dense: a shared space of `n` pages uses ids `0..n`.
///
/// # Examples
///
/// ```
/// use adsm_mempage::{page_of, PageId, PAGE_SIZE};
/// assert_eq!(page_of(0), PageId::new(0));
/// assert_eq!(page_of(PAGE_SIZE + 1), PageId::new(1));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(u32);

impl PageId {
    /// Creates a page id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds the 32-bit id space.
    #[inline]
    pub fn new(index: usize) -> Self {
        assert!(index <= u32::MAX as usize, "page index {index} too large");
        PageId(index as u32)
    }

    /// Dense index of the page, usable for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Byte address of the first byte of this page.
    #[inline]
    pub fn base_addr(self) -> usize {
        self.index() * PAGE_SIZE
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pg{}", self.0)
    }
}

/// Page containing byte address `addr`.
pub fn page_of(addr: usize) -> PageId {
    PageId::new(addr / PAGE_SIZE)
}

/// Number of pages needed to hold `bytes` bytes.
pub fn page_count(bytes: usize) -> usize {
    bytes.div_ceil(PAGE_SIZE)
}

/// Iterates over the pages touched by the byte range `[addr, addr+len)`.
///
/// An empty range yields no pages.
///
/// # Examples
///
/// ```
/// use adsm_mempage::{page_span, PageId, PAGE_SIZE};
/// let pages: Vec<_> = page_span(PAGE_SIZE - 1, 2).collect();
/// assert_eq!(pages, vec![PageId::new(0), PageId::new(1)]);
/// assert_eq!(page_span(10, 0).count(), 0);
/// ```
pub fn page_span(addr: usize, len: usize) -> impl Iterator<Item = PageId> {
    let first = addr / PAGE_SIZE;
    let last = if len == 0 {
        first // empty: produce an empty range below
    } else {
        (addr + len - 1) / PAGE_SIZE + 1
    };
    let end = if len == 0 { first } else { last };
    (first..end).map(PageId::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_of_boundaries() {
        assert_eq!(page_of(0).index(), 0);
        assert_eq!(page_of(PAGE_SIZE - 1).index(), 0);
        assert_eq!(page_of(PAGE_SIZE).index(), 1);
    }

    #[test]
    fn page_count_rounds_up() {
        assert_eq!(page_count(0), 0);
        assert_eq!(page_count(1), 1);
        assert_eq!(page_count(PAGE_SIZE), 1);
        assert_eq!(page_count(PAGE_SIZE + 1), 2);
    }

    #[test]
    fn span_within_one_page() {
        let pages: Vec<_> = page_span(8, 16).collect();
        assert_eq!(pages, vec![PageId::new(0)]);
    }

    #[test]
    fn span_across_pages() {
        let pages: Vec<_> = page_span(PAGE_SIZE / 2, 2 * PAGE_SIZE).collect();
        assert_eq!(pages, vec![PageId::new(0), PageId::new(1), PageId::new(2)]);
    }

    #[test]
    fn base_addr_is_page_aligned() {
        assert_eq!(PageId::new(3).base_addr(), 3 * PAGE_SIZE);
    }
}
