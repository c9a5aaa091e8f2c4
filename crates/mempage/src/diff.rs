use std::fmt;

use crate::{PAGE_SIZE, WORD_SIZE};

const WORDS_PER_PAGE: usize = PAGE_SIZE / WORD_SIZE;

/// Scan granularity of the chunked encoder: each 64-byte block is
/// compared with one wide vector compare; identical blocks never reach
/// per-word work.
const BLOCK_BYTES: usize = 64;
const BLOCK_WORDS: usize = BLOCK_BYTES / WORD_SIZE;
/// Short-run threshold below which `emit` copies bytes inline instead
/// of calling `memcpy` (two `u64` lanes).
const LANE_BYTES: usize = 8;

const BLOCKS_PER_PAGE: usize = PAGE_SIZE / BLOCK_BYTES;

/// Most diffs [`Diff::apply_many`] merges in one pass. The pass is
/// O(k · segments); 63 diffs of one page (IS under MW at 64 processors)
/// spent 40 % of that run inside it.
const MERGE_MAX_FAN_IN: usize = 8;

// The chunked scan assumes pages split evenly into blocks, tracks dirty
// blocks in a single u64 bitmap, and keeps one 16-bit word mask per
// block.
const _: () = assert!(PAGE_SIZE.is_multiple_of(BLOCK_BYTES) && BLOCKS_PER_PAGE <= 64);
const _: () = assert!(BLOCK_WORDS <= 16 && BLOCK_BYTES.is_multiple_of(WORD_SIZE));
// Sizing a diff packs four full masks into a `u64`.
const _: () = assert!(BLOCK_WORDS == 16 && BLOCKS_PER_PAGE.is_multiple_of(4));
// Both dirty-mask implementations compare 32-bit lanes; the mask layout
// is wrong for any other word size.
const _: () = assert!(WORD_SIZE == 4);

/// One 64-byte block as a fixed-size array (bounds-check free access).
type Block = [u8; BLOCK_BYTES];

/// Whether the AVX-512 single-instruction word-mask path is compiled in.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
const HAS_WIDE_MASK: bool = true;
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
const HAS_WIDE_MASK: bool = false;

/// Per-word dirty mask of a block pair: bit `w` is set iff 32-bit word
/// `w` of the blocks differs. One `vpcmpneqd` on a 64-byte block.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline(always)]
fn block_dirty_mask(a: &Block, b: &Block) -> u32 {
    use std::arch::x86_64::{_mm512_cmpneq_epu32_mask, _mm512_loadu_si512};
    // SAFETY: both pointers cover exactly 64 readable bytes (`Block`),
    // the loads are unaligned-tolerant, and `avx512f` is statically
    // enabled under this cfg.
    unsafe {
        let va = _mm512_loadu_si512(a.as_ptr().cast());
        let vb = _mm512_loadu_si512(b.as_ptr().cast());
        _mm512_cmpneq_epu32_mask(va, vb) as u32
    }
}

/// Portable per-word dirty mask, built from `u64` lane XORs. The
/// little-endian lane load guarantees the low half of lane `l` is word
/// `2l` regardless of host endianness.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
#[inline(always)]
fn block_dirty_mask(a: &Block, b: &Block) -> u32 {
    let mut mask = 0u32;
    for l in 0..BLOCK_BYTES / LANE_BYTES {
        let o = l * LANE_BYTES;
        let la = u64::from_le_bytes(a[o..o + LANE_BYTES].try_into().expect("lane"));
        let lb = u64::from_le_bytes(b[o..o + LANE_BYTES].try_into().expect("lane"));
        let x = la ^ lb;
        mask |= (((x & 0xFFFF_FFFF) != 0) as u32) << (2 * l);
        mask |= (((x >> 32) != 0) as u32) << (2 * l + 1);
    }
    mask
}

/// Per-diff wire overhead: page id, interval id, run count (TreadMarks
/// ships a small header with every diff).
const DIFF_HEADER_BYTES: usize = 12;
/// Per-run overhead: 16-bit word offset + 16-bit word count.
const RUN_HEADER_BYTES: usize = 4;

/// One maximal run of consecutive modified words. The run's bytes live
/// in the diff's shared `data` buffer (runs in order, back to back), so
/// a diff costs two allocations however many runs it has.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run {
    /// Word offset of the run within the page.
    word_offset: u16,
    /// Length of the run in words.
    len_words: u16,
}

impl Run {
    #[inline]
    fn len_bytes(self) -> usize {
        self.len_words as usize * WORD_SIZE
    }
}

/// A run-length encoded record of the modifications made to one page,
/// produced by comparing the page against its *twin* word by word —
/// TreadMarks' diff representation.
///
/// Applying a diff overwrites exactly the words the diff records and
/// leaves every other word untouched, which is what lets multiple
/// concurrent writers of a falsely-shared page merge without losing each
/// other's updates.
///
/// # Examples
///
/// ```
/// use adsm_mempage::{Diff, PAGE_SIZE};
///
/// let twin = vec![1u8; PAGE_SIZE];
/// let mut cur = twin.clone();
/// cur[0] = 9;
/// let d = Diff::encode(&twin, &cur);
/// assert!(!d.is_empty());
/// assert_eq!(d.modified_bytes(), 4); // word granularity
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Diff {
    runs: Vec<Run>,
    /// The modified bytes of every run, concatenated in run order.
    data: Vec<u8>,
}

impl Diff {
    /// Compares `current` against `twin` at word granularity and records
    /// every modified run.
    ///
    /// The scan is chunked: each 64-byte block is compared with one wide
    /// vector comparison (identical blocks are skipped outright) and
    /// only differing blocks fall back to word granularity, so
    /// sparsely-written pages cost far less than a word walk. The
    /// resulting runs — and therefore the wire format — are
    /// byte-for-byte identical to [`Diff::encode_naive`].
    ///
    /// # Panics
    ///
    /// Panics unless both slices are exactly one page long.
    pub fn encode(twin: &[u8], current: &[u8]) -> Self {
        // `encode_into` sizes both buffers exactly, once.
        let mut diff = Diff::default();
        Self::encode_into(twin, current, &mut diff);
        diff
    }

    /// Like [`Diff::encode`], but reuses `out`'s run and data buffers:
    /// in steady state (same caller re-encoding pages of similar write
    /// density) no heap allocation is performed.
    ///
    /// # Panics
    ///
    /// Panics unless both slices are exactly one page long.
    pub fn encode_into(twin: &[u8], current: &[u8], out: &mut Diff) {
        assert_eq!(twin.len(), PAGE_SIZE, "twin must be one page");
        assert_eq!(current.len(), PAGE_SIZE, "page must be one page");
        Self::encode_blocks_into(twin, current, 0, BLOCKS_PER_PAGE, out);
    }

    /// Like [`Diff::encode_into`], but scans only the 64-byte blocks
    /// overlapping the page-relative byte window `[lo, hi)` — the dirty
    /// watermark a span guard (or any tracked write path) recorded.
    ///
    /// The caller guarantees every byte outside the window is identical
    /// between `twin` and `current` (debug builds assert it); under that
    /// contract the result is run-for-run identical to a full
    /// [`Diff::encode`], because a run can only extend through equal
    /// words inside the scanned window. `lo >= hi` means "nothing was
    /// written" and produces an empty diff.
    ///
    /// # Panics
    ///
    /// Panics unless both slices are exactly one page long and
    /// `hi <= PAGE_SIZE`.
    pub fn encode_span_into(twin: &[u8], current: &[u8], lo: usize, hi: usize, out: &mut Diff) {
        assert_eq!(twin.len(), PAGE_SIZE, "twin must be one page");
        assert_eq!(current.len(), PAGE_SIZE, "page must be one page");
        assert!(hi <= PAGE_SIZE, "window [{lo}, {hi}) beyond the page");
        if lo >= hi {
            out.runs.clear();
            out.data.clear();
            debug_assert_eq!(twin, current, "clean window over a modified page");
            return;
        }
        debug_assert!(
            twin[..lo] == current[..lo] && twin[hi..] == current[hi..],
            "bytes outside the dirty window [{lo}, {hi}) differ"
        );
        Self::encode_blocks_into(
            twin,
            current,
            lo / BLOCK_BYTES,
            hi.div_ceil(BLOCK_BYTES),
            out,
        );
    }

    /// Shared body of [`Diff::encode_into`] and
    /// [`Diff::encode_span_into`]: scans blocks `blo..bhi`.
    fn encode_blocks_into(twin: &[u8], current: &[u8], blo: usize, bhi: usize, out: &mut Diff) {
        out.runs.clear();
        out.data.clear();
        // Phase 1: one streaming sweep over both pages building the
        // dirty-block bitmap and every dirty block's per-word mask. With
        // the wide-mask path the mask falls out of the block compare
        // itself; portably, the fixed-size array equality compiles to
        // inline vector compares (no `memcmp` call) and only blocks that
        // differ pay for a mask.
        let mut masks = [0u16; BLOCKS_PER_PAGE];
        let mut dirty_blocks = 0u64;
        {
            let blocks = twin[blo * BLOCK_BYTES..bhi * BLOCK_BYTES]
                .chunks_exact(BLOCK_BYTES)
                .zip(current[blo * BLOCK_BYTES..bhi * BLOCK_BYTES].chunks_exact(BLOCK_BYTES));
            for (bi, (tb, cb)) in blocks.enumerate() {
                let bi = blo + bi;
                let tb: &Block = tb.try_into().expect("exact chunk");
                let cb: &Block = cb.try_into().expect("exact chunk");
                let m = if HAS_WIDE_MASK || tb != cb {
                    block_dirty_mask(tb, cb) as u16
                } else {
                    0
                };
                masks[bi] = m;
                dirty_blocks |= ((m != 0) as u64) << bi;
            }
        }
        // The masks say how many words and runs the diff will have — a
        // run starts at every set bit whose predecessor is clear — so
        // both buffers are sized once, not grown by doubling. Four
        // 16-bit masks side by side are 64 consecutive words of the
        // page, so the count is two popcounts per 256 bytes scanned,
        // whatever they look like.
        let (mut words, mut runs, mut prev_top) = (0u32, 0u32, 0u64);
        for four in masks[blo / 4 * 4..bhi.next_multiple_of(4)].chunks_exact(4) {
            let x = four.iter().rev().fold(0u64, |x, &m| x << 16 | m as u64);
            words += x.count_ones();
            runs += (x & !(x << 1 | prev_top)).count_ones();
            prev_top = x >> 63;
        }
        out.runs.reserve(runs as usize);
        out.data.reserve(words as usize * WORD_SIZE);

        // The open run, [run_start, run_stop) in words; closed and
        // emitted as soon as a word fails to extend it, so runs crossing
        // block boundaries come out maximal exactly like the word scan.
        let mut run_start = 0usize;
        let mut run_stop = 0usize; // == 0: no open run (word 0 opens one)
        let mut emit = |start: usize, stop: usize| {
            out.runs.push(Run {
                word_offset: start as u16,
                len_words: (stop - start) as u16,
            });
            let bytes = &current[start * WORD_SIZE..stop * WORD_SIZE];
            if bytes.len() <= 2 * LANE_BYTES {
                // Short runs dominate fine-grained pages; whole words of
                // a width the compiler knows beat a `memcpy` call at
                // these sizes.
                for word in bytes.chunks_exact(WORD_SIZE) {
                    let word: [u8; WORD_SIZE] = word.try_into().expect("exact chunk");
                    out.data.extend_from_slice(&word);
                }
            } else {
                out.data.extend_from_slice(bytes);
            }
        };
        // Phase 2: visit only the dirty blocks, in ascending order so
        // runs crossing block boundaries merge through the extend logic.
        while dirty_blocks != 0 {
            let bi = dirty_blocks.trailing_zeros() as usize;
            dirty_blocks &= dirty_blocks - 1;
            let mut mask = masks[bi] as u32;
            // Walk the dirty-word groups of the mask (each group is a
            // maximal run of set bits).
            let base = bi * BLOCK_WORDS;
            while mask != 0 {
                let first = mask.trailing_zeros() as usize;
                let len = (!(mask >> first)).trailing_zeros() as usize;
                let w = base + first;
                if run_stop == w && run_stop != 0 {
                    run_stop = w + len; // contiguous across blocks: extend
                } else {
                    if run_stop != 0 {
                        emit(run_start, run_stop);
                    }
                    run_start = w;
                    run_stop = w + len;
                }
                mask &= !(((1u32 << len) - 1) << first);
            }
        }
        if run_stop != 0 {
            emit(run_start, run_stop);
        }
        debug_assert_eq!(
            (out.runs.len(), out.data.len()),
            (runs as usize, words as usize * WORD_SIZE),
            "phase 1 miscounted the diff"
        );
    }

    /// Reference encoder: the plain one-word-at-a-time scan. Kept as the
    /// correctness and performance baseline for the chunked
    /// [`Diff::encode`] (property tests assert run-for-run equality; the
    /// `hotpaths` benches report the speedup against it).
    ///
    /// # Panics
    ///
    /// Panics unless both slices are exactly one page long.
    pub fn encode_naive(twin: &[u8], current: &[u8]) -> Self {
        assert_eq!(twin.len(), PAGE_SIZE, "twin must be one page");
        assert_eq!(current.len(), PAGE_SIZE, "page must be one page");
        let mut diff = Diff::default();
        let mut w = 0;
        while w < WORDS_PER_PAGE {
            let off = w * WORD_SIZE;
            if twin[off..off + WORD_SIZE] == current[off..off + WORD_SIZE] {
                w += 1;
                continue;
            }
            // Start of a modified run; extend while words differ.
            let start = w;
            while w < WORDS_PER_PAGE {
                let o = w * WORD_SIZE;
                if twin[o..o + WORD_SIZE] == current[o..o + WORD_SIZE] {
                    break;
                }
                w += 1;
            }
            diff.runs.push(Run {
                word_offset: start as u16,
                len_words: (w - start) as u16,
            });
            diff.data
                .extend_from_slice(&current[start * WORD_SIZE..w * WORD_SIZE]);
        }
        diff
    }

    /// Overwrites the recorded runs in `page`.
    ///
    /// # Panics
    ///
    /// Panics unless `page` is exactly one page long.
    pub fn apply(&self, page: &mut [u8]) {
        assert_eq!(page.len(), PAGE_SIZE, "target must be one page");
        let mut off = 0usize;
        for run in &self.runs {
            let start = run.word_offset as usize * WORD_SIZE;
            let len = run.len_bytes();
            page[start..start + len].copy_from_slice(&self.data[off..off + len]);
            off += len;
        }
    }

    /// Copies `base` into the caller-provided `out` buffer and applies
    /// the recorded runs on top — the merge step without an intermediate
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics unless both slices are exactly one page long.
    pub fn apply_onto(&self, base: &[u8], out: &mut [u8]) {
        assert_eq!(base.len(), PAGE_SIZE, "base must be one page");
        out.copy_from_slice(base);
        self.apply(out);
    }

    /// Applies several diffs: byte-for-byte equivalent to calling
    /// [`Diff::apply`] for each diff in slice order. Up to
    /// eight diffs (`MERGE_MAX_FAN_IN`) go through one k-way merge pass that
    /// writes every page word **at most once**; beyond that the pass —
    /// which rescans all k cursors for every output segment — costs
    /// more than the overwrites it saves, and the diffs are simply
    /// applied in order.
    ///
    /// The slice order is the happened-before order of the merge
    /// procedure (§3.1.1): where two diffs modify the same word, the
    /// later diff's value is the one that survives a sequential apply,
    /// so the merge resolves each word to the last covering diff —
    /// last-writer-wins per word is exactly sequential application.
    /// Runs within a diff are offset-sorted by construction, which is
    /// what lets the merge advance one cursor per diff instead of
    /// re-scanning.
    ///
    /// The slice is generic over [`Borrow`](std::borrow::Borrow) so
    /// callers can merge straight from whatever owns their diffs —
    /// `&[&Diff]`, `&[Arc<Diff>]`, or a keyed wrapper — without
    /// materialising a reference list first.
    ///
    /// # Panics
    ///
    /// Panics unless `page` is exactly one page long.
    pub fn apply_many<D: std::borrow::Borrow<Diff>>(diffs: &[D], page: &mut [u8]) {
        assert_eq!(page.len(), PAGE_SIZE, "target must be one page");
        if diffs.len() < 2 || diffs.len() > MERGE_MAX_FAN_IN {
            for d in diffs {
                d.borrow().apply(page);
            }
            return;
        }
        // One cursor per diff: the current run and its data offset.
        struct Cursor<'a> {
            runs: &'a [Run],
            data: &'a [u8],
            idx: usize,
            data_off: usize,
        }
        let mut cursors: Vec<Cursor<'_>> = diffs
            .iter()
            .map(|d| {
                let d = d.borrow();
                Cursor {
                    runs: &d.runs,
                    data: &d.data,
                    idx: 0,
                    data_off: 0,
                }
            })
            .collect();
        // Sweep the page in maximal segments over which the set of
        // covering runs is constant. `pos` is the first unresolved word.
        let mut pos = 0usize;
        loop {
            // Retire runs that end at or before `pos` and find the next
            // segment start: the smallest not-yet-applied run word.
            let mut seg_start = usize::MAX;
            for c in cursors.iter_mut() {
                while let Some(r) = c.runs.get(c.idx) {
                    if r.word_offset as usize + r.len_words as usize <= pos {
                        c.data_off += r.len_bytes();
                        c.idx += 1;
                    } else {
                        break;
                    }
                }
                if let Some(r) = c.runs.get(c.idx) {
                    seg_start = seg_start.min((r.word_offset as usize).max(pos));
                }
            }
            if seg_start == usize::MAX {
                break; // every cursor exhausted
            }
            // The segment ends where any covering run ends or any later
            // run begins; among the runs covering `seg_start`, the diff
            // latest in the slice wins the whole segment.
            let mut seg_end = WORDS_PER_PAGE;
            let mut winner = usize::MAX;
            for (i, c) in cursors.iter().enumerate() {
                let Some(r) = c.runs.get(c.idx) else { continue };
                let start = r.word_offset as usize;
                let end = start + r.len_words as usize;
                if start <= seg_start {
                    // Covers the segment (end > seg_start holds: a run
                    // ending at or before seg_start would have had an
                    // effective start below the minimum).
                    seg_end = seg_end.min(end);
                    winner = i;
                } else {
                    seg_end = seg_end.min(start);
                }
            }
            let c = &cursors[winner];
            let r = c.runs[c.idx];
            let src = c.data_off + (seg_start - r.word_offset as usize) * WORD_SIZE;
            let dst = seg_start * WORD_SIZE;
            let len = (seg_end - seg_start) * WORD_SIZE;
            page[dst..dst + len].copy_from_slice(&c.data[src..src + len]);
            pos = seg_end;
        }
    }

    /// `true` when the twin and the page were identical.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of maximal modified runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Total bytes of modified data (a multiple of the word size).
    ///
    /// This is the paper's *write granularity* measure for the page.
    pub fn modified_bytes(&self) -> usize {
        self.data.len()
    }

    /// Bytes this diff occupies on the wire and in the diff store:
    /// header + per-run headers + data.
    pub fn wire_size(&self) -> usize {
        DIFF_HEADER_BYTES + self.runs.len() * RUN_HEADER_BYTES + self.modified_bytes()
    }

    /// Do `self` and `other` modify at least one common word?
    ///
    /// Two *concurrent* diffs of the same page that do **not** overlap are
    /// the signature of write-write false sharing; overlapping concurrent
    /// diffs would be a data race in the application.
    pub fn overlaps(&self, other: &Diff) -> bool {
        // Runs are sorted by construction; merge-scan.
        let mut a = self.runs.iter().peekable();
        let mut b = other.runs.iter().peekable();
        while let (Some(ra), Some(rb)) = (a.peek(), b.peek()) {
            let a_start = ra.word_offset as usize;
            let a_end = a_start + ra.len_words as usize;
            let b_start = rb.word_offset as usize;
            let b_end = b_start + rb.len_words as usize;
            if a_end <= b_start {
                a.next();
            } else if b_end <= a_start {
                b.next();
            } else {
                return true;
            }
        }
        false
    }
}

impl fmt::Display for Diff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "diff[{} runs, {} B data, {} B wire]",
            self.run_count(),
            self.modified_bytes(),
            self.wire_size()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_with(vals: &[(usize, u8)]) -> Vec<u8> {
        let mut p = vec![0u8; PAGE_SIZE];
        for &(i, v) in vals {
            p[i] = v;
        }
        p
    }

    #[test]
    fn identical_pages_produce_empty_diff() {
        let twin = page_with(&[(5, 1)]);
        let d = Diff::encode(&twin, &twin.clone());
        assert!(d.is_empty());
        assert_eq!(d.modified_bytes(), 0);
        assert_eq!(d.wire_size(), DIFF_HEADER_BYTES);
    }

    #[test]
    fn single_byte_change_costs_one_word() {
        let twin = page_with(&[]);
        let cur = page_with(&[(9, 3)]);
        let d = Diff::encode(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.modified_bytes(), WORD_SIZE);
    }

    #[test]
    fn adjacent_words_coalesce_into_one_run() {
        let twin = page_with(&[]);
        let cur = page_with(&[(0, 1), (4, 2), (8, 3)]);
        let d = Diff::encode(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.modified_bytes(), 3 * WORD_SIZE);
    }

    #[test]
    fn separated_words_form_separate_runs() {
        let twin = page_with(&[]);
        let cur = page_with(&[(0, 1), (100, 2)]);
        let d = Diff::encode(&twin, &cur);
        assert_eq!(d.run_count(), 2);
    }

    #[test]
    fn apply_reproduces_current() {
        let twin = page_with(&[(0, 7)]);
        let cur = page_with(&[(0, 9), (4000, 5)]);
        let d = Diff::encode(&twin, &cur);
        let mut target = twin.clone();
        d.apply(&mut target);
        assert_eq!(target, cur);
    }

    #[test]
    fn apply_leaves_unmodified_words_alone() {
        let twin = page_with(&[]);
        let cur = page_with(&[(8, 1)]);
        let d = Diff::encode(&twin, &cur);
        // Apply onto a page with unrelated content; only word 2 changes.
        let mut target = page_with(&[(100, 42)]);
        d.apply(&mut target);
        assert_eq!(target[100], 42);
        assert_eq!(target[8], 1);
    }

    #[test]
    fn full_page_diff_is_one_run() {
        let twin = vec![0u8; PAGE_SIZE];
        let cur = vec![1u8; PAGE_SIZE];
        let d = Diff::encode(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.modified_bytes(), PAGE_SIZE);
        assert!(d.wire_size() > PAGE_SIZE);
    }

    #[test]
    fn overlap_detection() {
        let twin = vec![0u8; PAGE_SIZE];
        let a = Diff::encode(&twin, &page_with(&[(0, 1)]));
        let b = Diff::encode(&twin, &page_with(&[(2, 1)])); // same word 0
        let c = Diff::encode(&twin, &page_with(&[(40, 1)]));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(!c.overlaps(&a));
    }

    #[test]
    #[should_panic(expected = "twin must be one page")]
    fn encode_rejects_short_twin() {
        let _ = Diff::encode(&[0u8; 8], &[0u8; PAGE_SIZE]);
    }

    /// Edge cases of the chunked scan: changes at block boundaries, in
    /// the second word of a lane, and runs crossing block edges must
    /// reproduce the naive reference exactly.
    #[test]
    fn chunked_scan_matches_naive_at_boundaries() {
        let cases: &[&[usize]] = &[
            &[],                       // identical pages
            &[0],                      // first byte
            &[PAGE_SIZE - 1],          // last byte
            &[63, 64],                 // run across a block edge
            &[4, 5, 6, 7],             // second word of the first lane
            &[60, 61, 62, 63, 64, 65], // straddles blocks mid-run
            &[127, 128, 191, 192],     // multiple block edges
            &[8, 72, 136],             // same lane offset, many blocks
        ];
        for bytes in cases {
            let twin = vec![0u8; PAGE_SIZE];
            let mut cur = twin.clone();
            for &b in *bytes {
                cur[b] = 0xEE;
            }
            assert_eq!(
                Diff::encode(&twin, &cur),
                Diff::encode_naive(&twin, &cur),
                "mismatch for dirty bytes {bytes:?}"
            );
        }
        // Whole-page change: one maximal run under both encoders.
        let twin = vec![1u8; PAGE_SIZE];
        let cur = vec![2u8; PAGE_SIZE];
        assert_eq!(Diff::encode(&twin, &cur), Diff::encode_naive(&twin, &cur));
    }

    /// The windowed encoder must reproduce the full scan exactly when
    /// the window covers every modified byte — including windows cut
    /// mid-block, at page edges, and empty windows.
    #[test]
    fn encode_span_matches_full_encode() {
        let cases: &[(&[usize], (usize, usize))] = &[
            (&[], (0, 0)),  // clean page, empty window
            (&[0], (0, 1)), // first byte, 1-byte window
            (&[PAGE_SIZE - 1], (PAGE_SIZE - 1, PAGE_SIZE)),
            (&[63, 64], (63, 65)),               // run across a block edge
            (&[100, 101, 102, 103], (100, 104)), // window not block-aligned
            (&[8, 72, 136], (8, 137)),           // multiple blocks
            (&[500], (400, 700)),                // window wider than the change
        ];
        for (bytes, (lo, hi)) in cases {
            let twin = vec![0u8; PAGE_SIZE];
            let mut cur = twin.clone();
            for &b in *bytes {
                cur[b] = 0xEE;
            }
            let mut windowed = Diff::default();
            Diff::encode_span_into(&twin, &cur, *lo, *hi, &mut windowed);
            assert_eq!(
                windowed,
                Diff::encode(&twin, &cur),
                "mismatch for dirty bytes {bytes:?} window [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn encode_span_empty_window_clears_reused_buffers() {
        let twin = page_with(&[]);
        let cur = page_with(&[(8, 1)]);
        let mut d = Diff::encode(&twin, &cur);
        assert!(!d.is_empty());
        Diff::encode_span_into(&twin, &twin.clone(), 10, 10, &mut d);
        assert!(d.is_empty());
    }

    #[test]
    fn encode_into_truncates_stale_runs() {
        let twin = page_with(&[]);
        let dense = page_with(&[(0, 1), (100, 2), (500, 3)]);
        let sparse = page_with(&[(8, 1)]);
        let mut d = Diff::encode(&twin, &dense);
        assert_eq!(d.run_count(), 3);
        Diff::encode_into(&twin, &sparse, &mut d);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d, Diff::encode(&twin, &sparse));
        // And an empty diff clears everything.
        Diff::encode_into(&twin, &twin.clone(), &mut d);
        assert!(d.is_empty());
    }

    /// Applies `diffs` one by one — the reference semantics apply_many
    /// must reproduce.
    fn apply_seq(diffs: &[&Diff], page: &mut [u8]) {
        for d in diffs {
            d.apply(page);
        }
    }

    #[test]
    fn apply_many_of_nothing_is_identity() {
        let mut page = page_with(&[(3, 9)]);
        let orig = page.clone();
        Diff::apply_many::<&Diff>(&[], &mut page);
        assert_eq!(page, orig);
        let empty = Diff::default();
        Diff::apply_many(&[&empty, &empty], &mut page);
        assert_eq!(page, orig);
    }

    #[test]
    fn apply_many_single_matches_apply() {
        let twin = page_with(&[]);
        let cur = page_with(&[(0, 1), (100, 2)]);
        let d = Diff::encode(&twin, &cur);
        let mut a = twin.clone();
        let mut b = twin.clone();
        d.apply(&mut a);
        Diff::apply_many(&[&d], &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn apply_many_disjoint_diffs_union() {
        let twin = page_with(&[]);
        let a = Diff::encode(&twin, &page_with(&[(0, 1)]));
        let b = Diff::encode(&twin, &page_with(&[(400, 2)]));
        let mut merged = twin.clone();
        Diff::apply_many(&[&a, &b], &mut merged);
        assert_eq!(merged, page_with(&[(0, 1), (400, 2)]));
    }

    #[test]
    fn apply_many_last_writer_wins_on_overlap() {
        let twin = page_with(&[]);
        // Both diffs write word 0; runs extend differently.
        let a = Diff::encode(&twin, &page_with(&[(0, 1), (4, 1), (8, 1)]));
        let b = Diff::encode(&twin, &page_with(&[(0, 2)]));
        let mut merged = twin.clone();
        Diff::apply_many(&[&a, &b], &mut merged);
        let mut expect = twin.clone();
        apply_seq(&[&a, &b], &mut expect);
        assert_eq!(merged, expect);
        assert_eq!(merged[0], 2, "later diff wins word 0");
        assert_eq!(merged[4], 1, "earlier diff keeps its exclusive words");
        // And the reverse order flips the winner.
        let mut merged = twin.clone();
        Diff::apply_many(&[&b, &a], &mut merged);
        assert_eq!(merged[0], 1);
    }

    #[test]
    fn apply_many_runs_crossing_each_other() {
        let twin = vec![0u8; PAGE_SIZE];
        // a: words 0..6 = 0xA; b: words 3..9 = 0xB; c: word 5 = 0xC.
        let mut pa = twin.clone();
        pa[0..24].fill(0xA);
        let mut pb = twin.clone();
        pb[12..36].fill(0xB);
        let mut pc = twin.clone();
        pc[20..24].fill(0xC);
        let a = Diff::encode(&twin, &pa);
        let b = Diff::encode(&twin, &pb);
        let c = Diff::encode(&twin, &pc);
        for order in [[&a, &b, &c], [&c, &b, &a], [&b, &a, &c]] {
            let mut merged = page_with(&[(1000, 7)]);
            let mut expect = merged.clone();
            Diff::apply_many(&order, &mut merged);
            apply_seq(&order, &mut expect);
            assert_eq!(merged, expect);
        }
    }

    #[test]
    fn apply_onto_merges_into_caller_buffer() {
        let twin = page_with(&[(0, 7)]);
        let cur = page_with(&[(0, 9), (4000, 5)]);
        let d = Diff::encode(&twin, &cur);
        let mut out = vec![0xFFu8; PAGE_SIZE];
        d.apply_onto(&twin, &mut out);
        assert_eq!(out, cur);
    }
}
