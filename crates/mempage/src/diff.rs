use std::fmt;

use crate::{PAGE_SIZE, WORD_SIZE};

/// Scan granularity of the codec: each 64-byte block is compared with
/// one wide vector compare; identical blocks never reach per-word work.
const BLOCK_BYTES: usize = 64;
const BLOCK_WORDS: usize = BLOCK_BYTES / WORD_SIZE;
const BLOCKS_PER_PAGE: usize = PAGE_SIZE / BLOCK_BYTES;
/// A dirty block's word mask as stored: 16 bits, little-endian.
const MASK_BYTES: usize = 2;

// A page's dirty blocks are one `u64` bitmap and a block's dirty words
// one `u16` mask; sizing a diff packs four full masks into a `u64`.
const _: () = assert!(PAGE_SIZE == BLOCKS_PER_PAGE * BLOCK_BYTES && BLOCKS_PER_PAGE == 64);
const _: () = assert!(BLOCK_WORDS == 16 && BLOCKS_PER_PAGE.is_multiple_of(4));
// Every kernel below works on 32-bit lanes.
const _: () = assert!(WORD_SIZE == 4);

/// One 64-byte block as a fixed-size array (bounds-check free access).
type Block = [u8; BLOCK_BYTES];

/// Indices of the set bits of `x`, ascending.
#[inline(always)]
fn set_bits(mut x: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (x != 0).then(|| {
            let i = x.trailing_zeros() as usize;
            x &= x - 1;
            i
        })
    })
}

/// The three per-block kernels on AVX-512: one `vpcmpneqd`, one
/// `vpcompressd`, one `vpexpandd`. Every `unsafe` block of the codec is
/// here.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod wide {
    use super::{Block, WORD_SIZE};
    use std::arch::x86_64::{
        _mm512_cmpneq_epu32_mask, _mm512_loadu_si512, _mm512_mask_storeu_epi32,
        _mm512_maskz_compress_epi32, _mm512_maskz_expandloadu_epi32,
    };

    /// Whether the block compare yields the word mask directly.
    pub const HAS_WIDE_MASK: bool = true;

    /// Bit `w` is set iff 32-bit word `w` of the blocks differs.
    #[inline(always)]
    pub fn dirty_mask(a: &Block, b: &Block) -> u16 {
        // SAFETY: both pointers cover exactly 64 readable bytes
        // (`Block`), the loads are unaligned-tolerant, and `avx512f` is
        // statically enabled under this module's cfg.
        unsafe {
            let va = _mm512_loadu_si512(a.as_ptr().cast());
            let vb = _mm512_loadu_si512(b.as_ptr().cast());
            _mm512_cmpneq_epu32_mask(va, vb)
        }
    }

    /// Appends the words of `block` selected by `mask`, ascending.
    #[inline(always)]
    pub fn compress(block: &Block, mask: u16, out: &mut Vec<u8>) {
        let n = mask.count_ones();
        let bytes = n as usize * WORD_SIZE;
        out.reserve(bytes);
        // SAFETY: the load covers exactly the 64 bytes of `block`. The
        // selected words are packed into lanes `0..n` of a register and
        // the store is masked to those lanes, so it writes exactly the
        // `bytes` bytes after `out.len()`, which `reserve` made part of
        // the allocation; they are initialised by the time `set_len`
        // counts them. `avx512f` is statically enabled.
        unsafe {
            let words = _mm512_loadu_si512(block.as_ptr().cast());
            let packed = _mm512_maskz_compress_epi32(mask, words);
            let low = ((1u32 << n) - 1) as u16;
            _mm512_mask_storeu_epi32(out.as_mut_ptr().add(out.len()).cast(), low, packed);
            out.set_len(out.len() + bytes);
        }
    }

    /// Overwrites the words of `block` selected by `mask`, ascending,
    /// with the words of `src`; the other words are left alone.
    #[inline(always)]
    pub fn expand(src: &[u8], mask: u16, block: &mut Block) {
        assert_eq!(src.len(), mask.count_ones() as usize * WORD_SIZE);
        // SAFETY: an expand-load reads one contiguous word per set bit
        // of `mask` — exactly `src`, as asserted — and the store is
        // masked to the same bits, all lanes of the 64-byte `block`.
        // `avx512f` is statically enabled.
        unsafe {
            let spread = _mm512_maskz_expandloadu_epi32(mask, src.as_ptr().cast());
            _mm512_mask_storeu_epi32(block.as_mut_ptr().cast(), mask, spread);
        }
    }
}

/// The same three kernels without wide vectors: `u64` lane XORs and a
/// walk over the set bits. Compiled on every host so that a host with
/// the wide arm can check the two against each other.
#[cfg_attr(
    all(target_arch = "x86_64", target_feature = "avx512f"),
    allow(dead_code)
)]
mod portable {
    use super::{set_bits, Block, BLOCK_BYTES, WORD_SIZE};

    pub const HAS_WIDE_MASK: bool = false;

    /// Bit `w` is set iff 32-bit word `w` of the blocks differs. The
    /// little-endian lane load makes the low half of lane `l` word `2l`
    /// whatever the host's endianness.
    #[inline(always)]
    pub fn dirty_mask(a: &Block, b: &Block) -> u16 {
        const LANE_BYTES: usize = 8;
        let mut mask = 0u16;
        for l in 0..BLOCK_BYTES / LANE_BYTES {
            let o = l * LANE_BYTES;
            let la = u64::from_le_bytes(a[o..o + LANE_BYTES].try_into().expect("lane"));
            let lb = u64::from_le_bytes(b[o..o + LANE_BYTES].try_into().expect("lane"));
            let x = la ^ lb;
            mask |= (((x & 0xFFFF_FFFF) != 0) as u16) << (2 * l);
            mask |= (((x >> 32) != 0) as u16) << (2 * l + 1);
        }
        mask
    }

    /// Appends the words of `block` selected by `mask`, ascending.
    #[inline(always)]
    pub fn compress(block: &Block, mask: u16, out: &mut Vec<u8>) {
        if mask == u16::MAX {
            return out.extend_from_slice(block);
        }
        let words = block.as_chunks::<WORD_SIZE>().0;
        for w in set_bits(mask.into()) {
            out.extend_from_slice(&words[w]);
        }
    }

    /// Overwrites the words of `block` selected by `mask`, ascending,
    /// with the words of `src`; the other words are left alone.
    #[inline(always)]
    pub fn expand(src: &[u8], mask: u16, block: &mut Block) {
        assert_eq!(src.len(), mask.count_ones() as usize * WORD_SIZE);
        if mask == u16::MAX {
            return block.copy_from_slice(src);
        }
        let words = block.as_chunks_mut::<WORD_SIZE>().0;
        for (w, word) in set_bits(mask.into()).zip(src.chunks_exact(WORD_SIZE)) {
            words[w].copy_from_slice(word);
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
use portable as arm;
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
use wide as arm;

/// Per-diff wire overhead: page id, interval id, run count (TreadMarks
/// ships a small header with every diff).
const DIFF_HEADER_BYTES: usize = 12;
/// Per-run overhead: 16-bit word offset + 16-bit word count.
const RUN_HEADER_BYTES: usize = 4;

/// A record of the modifications made to one page, produced by comparing
/// the page against its *twin* word by word. On the wire it is
/// TreadMarks' run-length encoding and is costed as such
/// ([`Diff::wire_size`]); in memory it is the set of modified words as a
/// bitmap — which 64-byte blocks are dirty, and one 16-bit word mask per
/// dirty block — followed by the modified words, packed in ascending
/// order, so that encoding is one compress per dirty block and applying
/// one expand.
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
    /// Bit `b` is set iff block `b` of the page has a modified word.
    dirty: u64,
    /// Maximal runs of consecutive modified words: the set bits of the
    /// page's word bitmap whose predecessor is clear. The masks determine
    /// it; the encoder counts it while they are at hand.
    runs: u32,
    /// The word masks of the dirty blocks, ascending, then the modified
    /// words, ascending — one allocation, nothing in it beyond `len`.
    buf: Vec<u8>,
}

impl Diff {
    /// Compares `current` against `twin` at word granularity and records
    /// every modified word.
    ///
    /// Each 64-byte block is compared with one wide vector comparison
    /// and only differing blocks contribute a mask and a compress, so
    /// sparsely-written pages cost far less than a word walk. The result
    /// equals [`Diff::encode_naive`]'s.
    ///
    /// # Panics
    ///
    /// Panics unless both slices are exactly one page long.
    pub fn encode(twin: &[u8], current: &[u8]) -> Self {
        // `encode_into` sizes the buffer exactly, once.
        let mut diff = Diff::default();
        Self::encode_into(twin, current, &mut diff);
        diff
    }

    /// Like [`Diff::encode`], but reuses `out`'s buffer: in steady state
    /// (same caller re-encoding pages of similar write density) no heap
    /// allocation is performed.
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
    /// contract the result equals a full [`Diff::encode`]. `lo >= hi`
    /// means "nothing was written" and produces an empty diff.
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
            debug_assert_eq!(twin, current, "clean window over a modified page");
            return Self::encode_blocks_into(twin, current, 0, 0, out);
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
        // One streaming sweep over both pages building the dirty-block
        // bitmap and every dirty block's per-word mask. On the wide arm
        // the mask falls out of the block compare itself; portably, the
        // fixed-size array equality compiles to inline vector compares
        // (no `memcmp` call) and only blocks that differ pay for a mask.
        let mut masks = [0u16; BLOCKS_PER_PAGE];
        let mut dirty = 0u64;
        let window = blo * BLOCK_BYTES..bhi * BLOCK_BYTES;
        let (twin_blocks, _) = twin[window.clone()].as_chunks::<BLOCK_BYTES>();
        let (cur_blocks, _) = current[window].as_chunks::<BLOCK_BYTES>();
        for (bi, (tb, cb)) in (blo..bhi).zip(twin_blocks.iter().zip(cur_blocks)) {
            let m = if arm::HAS_WIDE_MASK || tb != cb {
                arm::dirty_mask(tb, cb)
            } else {
                0
            };
            masks[bi] = m;
            dirty |= ((m != 0) as u64) << bi;
        }
        // The masks say how many words and runs the diff has — a run
        // starts at every set bit whose predecessor is clear. Four
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
        out.dirty = dirty;
        out.runs = runs;
        out.buf.clear();
        let head = dirty.count_ones() as usize * MASK_BYTES;
        out.buf.reserve(head + words as usize * WORD_SIZE);
        for bi in set_bits(dirty) {
            out.buf.extend_from_slice(&masks[bi].to_le_bytes());
        }
        // Ascending blocks, ascending words within each: the packed
        // words are in page order.
        for bi in set_bits(dirty) {
            arm::compress(&cur_blocks[bi - blo], masks[bi], &mut out.buf);
        }
        debug_assert_eq!(out.modified_bytes(), words as usize * WORD_SIZE);
    }

    /// Reference encoder: the plain one-word-at-a-time scan into a list
    /// of runs — offset, length, bytes — which is then written down as
    /// bitmap, masks and words bit by bit; no block compare, no mask
    /// kernel, no popcount. Kept as the correctness and performance
    /// baseline for [`Diff::encode`] (property tests assert equality; the
    /// `hotpaths` benches report the speedup against it).
    ///
    /// # Panics
    ///
    /// Panics unless both slices are exactly one page long.
    pub fn encode_naive(twin: &[u8], current: &[u8]) -> Self {
        assert_eq!(twin.len(), PAGE_SIZE, "twin must be one page");
        assert_eq!(current.len(), PAGE_SIZE, "page must be one page");
        const WORDS_PER_PAGE: usize = PAGE_SIZE / WORD_SIZE;
        let same = |w: usize| {
            let off = w * WORD_SIZE;
            twin[off..off + WORD_SIZE] == current[off..off + WORD_SIZE]
        };
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut w = 0;
        while w < WORDS_PER_PAGE {
            if same(w) {
                w += 1;
                continue;
            }
            // Start of a modified run; extend while words differ.
            let start = w;
            while w < WORDS_PER_PAGE && !same(w) {
                w += 1;
            }
            runs.push((start, w));
        }

        let mut masks = [0u16; BLOCKS_PER_PAGE];
        for &(start, end) in &runs {
            for w in start..end {
                masks[w / BLOCK_WORDS] |= 1 << (w % BLOCK_WORDS);
            }
        }
        let mut diff = Diff {
            runs: runs.len() as u32,
            ..Diff::default()
        };
        for (bi, mask) in masks.iter().enumerate().filter(|(_, &m)| m != 0) {
            diff.dirty |= 1 << bi;
            diff.buf.extend_from_slice(&mask.to_le_bytes());
        }
        for &(start, end) in &runs {
            diff.buf
                .extend_from_slice(&current[start * WORD_SIZE..end * WORD_SIZE]);
        }
        diff
    }

    /// The word masks of the dirty blocks, ascending.
    fn masks(&self) -> impl Iterator<Item = u16> + '_ {
        let (masks, _) = self.buf[..self.head_len()].as_chunks::<MASK_BYTES>();
        masks.iter().map(|&m| u16::from_le_bytes(m))
    }

    /// Bytes of `buf` taken by the masks.
    fn head_len(&self) -> usize {
        self.dirty.count_ones() as usize * MASK_BYTES
    }

    /// Overwrites the recorded words in `page`.
    ///
    /// # Panics
    ///
    /// Panics unless `page` is exactly one page long.
    pub fn apply(&self, page: &mut [u8]) {
        assert_eq!(page.len(), PAGE_SIZE, "target must be one page");
        let (blocks, _) = page.as_chunks_mut::<BLOCK_BYTES>();
        let mut words = &self.buf[self.head_len()..];
        for (bi, mask) in set_bits(self.dirty).zip(self.masks()) {
            let (src, rest) = words.split_at(mask.count_ones() as usize * WORD_SIZE);
            arm::expand(src, mask, &mut blocks[bi]);
            words = rest;
        }
    }

    /// Copies `base` into the caller-provided `out` buffer and applies
    /// the recorded words on top — the merge step without an
    /// intermediate allocation.
    ///
    /// # Panics
    ///
    /// Panics unless both slices are exactly one page long.
    pub fn apply_onto(&self, base: &[u8], out: &mut [u8]) {
        assert_eq!(base.len(), PAGE_SIZE, "base must be one page");
        out.copy_from_slice(base);
        self.apply(out);
    }

    /// Applies several diffs in slice order — the happened-before order
    /// of the merge procedure (§3.1.1): where two diffs modify the same
    /// word, the later diff's value survives.
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
        for d in diffs {
            d.borrow().apply(page);
        }
    }

    /// `true` when the twin and the page were identical.
    pub fn is_empty(&self) -> bool {
        self.dirty == 0
    }

    /// Number of maximal runs of modified words.
    pub fn run_count(&self) -> usize {
        self.runs as usize
    }

    /// Total bytes of modified data (a multiple of the word size).
    ///
    /// This is the paper's *write granularity* measure for the page.
    pub fn modified_bytes(&self) -> usize {
        self.buf.len() - self.head_len()
    }

    /// Bytes this diff occupies on the wire and in the diff store, as
    /// the run-length encoding TreadMarks ships: header + per-run
    /// headers + data.
    pub fn wire_size(&self) -> usize {
        DIFF_HEADER_BYTES + self.run_count() * RUN_HEADER_BYTES + self.modified_bytes()
    }

    /// Do `self` and `other` modify at least one common word?
    ///
    /// Two *concurrent* diffs of the same page that do **not** overlap are
    /// the signature of write-write false sharing; overlapping concurrent
    /// diffs would be a data race in the application.
    pub fn overlaps(&self, other: &Diff) -> bool {
        let mask_of = |d: &Diff, bi: usize| {
            let at = (d.dirty & ((1 << bi) - 1)).count_ones() as usize * MASK_BYTES;
            u16::from_le_bytes([d.buf[at], d.buf[at + 1]])
        };
        set_bits(self.dirty & other.dirty).any(|bi| mask_of(self, bi) & mask_of(other, bi) != 0)
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

    /// Applies `diffs` one by one — what `apply_many` is defined as.
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

    /// Seeded block pairs of every density from no word to all.
    fn seeded_blocks() -> impl Iterator<Item = (Block, Block)> {
        let mix = |z: u64| {
            let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 27)
        };
        (0..2_000u64).map(move |seed| {
            let mut a = [0u8; BLOCK_BYTES];
            for (i, byte) in a.iter_mut().enumerate() {
                *byte = mix(seed << 8 | i as u64) as u8;
            }
            let mut b = a;
            // Densities 0/16 to 16/16, single-byte and whole-word edits.
            let keep = mix(seed ^ 0xd1f7) % 17;
            for w in 0..BLOCK_WORDS {
                if mix(seed << 4 | w as u64) % 16 < keep {
                    b[w * WORD_SIZE + (seed % 4) as usize] ^= 0x5a;
                }
            }
            (a, b)
        })
    }

    /// The portable kernels are the specification of the wide ones:
    /// same masks, same packed words, same expanded blocks. On a host
    /// without the wide arm this pins the portable arm against a
    /// word-by-word model instead. Prints which arm this build uses.
    #[test]
    fn wide_and_portable_arms_agree() {
        println!("diff codec: HAS_WIDE_MASK = {}", arm::HAS_WIDE_MASK);
        for (a, b) in seeded_blocks() {
            let mut model = 0u16;
            for w in 0..BLOCK_WORDS {
                let r = w * WORD_SIZE..(w + 1) * WORD_SIZE;
                model |= ((a[r.clone()] != b[r]) as u16) << w;
            }
            let mask = portable::dirty_mask(&a, &b);
            assert_eq!(mask, model);
            assert_eq!(arm::dirty_mask(&a, &b), mask);

            // Appended after what is already there, nothing else touched.
            let (mut packed, mut packed_arm) = (vec![0xAB; 3], vec![0xAB; 3]);
            portable::compress(&b, mask, &mut packed);
            arm::compress(&b, mask, &mut packed_arm);
            assert_eq!(packed.len(), 3 + mask.count_ones() as usize * WORD_SIZE);
            assert_eq!(packed, packed_arm);

            let (mut spread, mut spread_arm) = (a, a);
            portable::expand(&packed[3..], mask, &mut spread);
            arm::expand(&packed_arm[3..], mask, &mut spread_arm);
            assert_eq!(spread, b);
            assert_eq!(spread_arm, b);
        }
    }

    /// What a diff costs to keep: the bitmap and the run count inline,
    /// two bytes a dirty block and four a dirty word in one buffer.
    #[test]
    fn a_one_word_diff_is_a_few_bytes_in_one_buffer() {
        let twin = page_with(&[]);
        let d = Diff::encode(&twin, &page_with(&[(2000, 1)]));
        assert_eq!(d.buf.len(), MASK_BYTES + WORD_SIZE);
        assert!(d.buf.capacity() <= 8, "capacity {}", d.buf.capacity());
        let dense = Diff::encode(&twin, &vec![1u8; PAGE_SIZE]);
        assert_eq!(dense.buf.len(), BLOCKS_PER_PAGE * MASK_BYTES + PAGE_SIZE);
        assert_eq!(dense.buf.capacity(), dense.buf.len());
        assert!(std::mem::size_of::<Diff>() <= 40);
    }
}
