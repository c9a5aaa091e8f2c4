//! Property-based tests of the twin/diff machinery.

use adsm_mempage::{Diff, PAGE_SIZE, WORD_SIZE};
use proptest::prelude::*;

/// A page described as a sparse set of byte edits over a base value.
fn page_strategy() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<u8>(),
        prop::collection::vec((0usize..PAGE_SIZE, any::<u8>()), 0..64),
    )
        .prop_map(|(base, edits)| {
            let mut page = vec![base; PAGE_SIZE];
            for (i, v) in edits {
                page[i] = v;
            }
            page
        })
}

/// The reference encoder: a plain one-word-at-a-time scan into the
/// maximal runs of modified words, `[start, end)` in word indices — no
/// block compare, no mask kernel, no popcount. The correctness baseline
/// [`Diff::encode`] is checked against.
fn naive_runs(twin: &[u8], cur: &[u8]) -> Vec<(usize, usize)> {
    assert_eq!(twin.len(), PAGE_SIZE, "twin must be one page");
    assert_eq!(cur.len(), PAGE_SIZE, "page must be one page");
    let same = |w: usize| {
        let off = w * WORD_SIZE;
        twin[off..off + WORD_SIZE] == cur[off..off + WORD_SIZE]
    };
    let mut runs = Vec::new();
    let mut w = 0;
    while w < WORDS {
        if same(w) {
            w += 1;
            continue;
        }
        // Start of a modified run; extend while words differ.
        let start = w;
        while w < WORDS && !same(w) {
            w += 1;
        }
        runs.push((start, w));
    }
    runs
}

/// Asserts that `diff` records exactly the words the naive scan finds
/// modified between `twin` and `cur`, with `cur`'s values, in as many
/// runs. Applied onto the complement of `cur`, where every word differs
/// from `cur`'s, a recorded word shows as `cur`'s and any other as the
/// complement's.
fn assert_matches_naive(diff: &Diff, twin: &[u8], cur: &[u8]) {
    let runs = naive_runs(twin, cur);
    let words: usize = runs.iter().map(|&(start, end)| end - start).sum();
    let complement: Vec<u8> = cur.iter().map(|b| !b).collect();
    let mut expected = complement.clone();
    for &(start, end) in &runs {
        expected[start * WORD_SIZE..end * WORD_SIZE]
            .copy_from_slice(&cur[start * WORD_SIZE..end * WORD_SIZE]);
    }
    let mut applied = complement;
    diff.apply(&mut applied);
    assert!(applied == expected, "recorded words differ from the scan's");
    assert_eq!(diff.is_empty(), runs.is_empty());
    assert_eq!(diff.run_count(), runs.len());
    assert_eq!(diff.modified_bytes(), words * WORD_SIZE);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// apply(encode(twin, cur), twin) == cur — the fundamental round trip.
    #[test]
    fn encode_apply_round_trip(twin in page_strategy(), cur in page_strategy()) {
        let diff = Diff::encode(&twin, &cur);
        let mut target = twin.clone();
        diff.apply(&mut target);
        prop_assert_eq!(target, cur);
    }

    /// Encoding a page against itself is empty, and applying an empty diff
    /// is the identity.
    #[test]
    fn self_diff_is_identity(page in page_strategy(), other in page_strategy()) {
        let diff = Diff::encode(&page, &page);
        prop_assert!(diff.is_empty());
        let mut target = other.clone();
        diff.apply(&mut target);
        prop_assert_eq!(target, other);
    }

    /// Words outside the diff are never touched by apply().
    #[test]
    fn apply_touches_only_modified_words(
        twin in page_strategy(),
        cur in page_strategy(),
        canvas in page_strategy(),
    ) {
        let diff = Diff::encode(&twin, &cur);
        let mut target = canvas.clone();
        diff.apply(&mut target);
        for w in 0..(PAGE_SIZE / WORD_SIZE) {
            let r = w * WORD_SIZE..(w + 1) * WORD_SIZE;
            if twin[r.clone()] == cur[r.clone()] {
                prop_assert_eq!(&target[r.clone()], &canvas[r.clone()],
                    "untouched word {} was modified", w);
            } else {
                prop_assert_eq!(&target[r.clone()], &cur[r.clone()],
                    "modified word {} not applied", w);
            }
        }
    }

    /// The windowed encoder agrees with the full scan whenever the
    /// window covers every modified byte — the contract the dirty
    /// watermarks guarantee: edits are confined to a random window and
    /// the window is additionally widened by random slack.
    #[test]
    fn encode_span_matches_full_scan(
        base in page_strategy(),
        (lo, hi) in (0usize..PAGE_SIZE, 0usize..=PAGE_SIZE)
            .prop_map(|(a, b)| (a.min(b), a.max(b))),
        edits in prop::collection::vec((0usize..PAGE_SIZE, any::<u8>()), 0..32),
        slack in (0usize..128, 0usize..128),
    ) {
        let twin = base.clone();
        let mut cur = base;
        for (i, v) in edits {
            if i >= lo && i < hi {
                cur[i] = v;
            }
        }
        let full = Diff::encode(&twin, &cur);
        let mut windowed = Diff::default();
        // Exact window.
        Diff::encode_span_into(&twin, &cur, lo, hi, &mut windowed);
        prop_assert_eq!(&windowed, &full);
        // Widened window (the watermark is allowed to be conservative).
        let wlo = lo.saturating_sub(slack.0);
        let whi = (hi + slack.1).min(PAGE_SIZE);
        Diff::encode_span_into(&twin, &cur, wlo, whi, &mut windowed);
        prop_assert_eq!(&windowed, &full);
    }

    /// Diff size accounting: modified_bytes is word-aligned, bounded by the
    /// page size, and wire_size is consistent with it.
    #[test]
    fn size_accounting(twin in page_strategy(), cur in page_strategy()) {
        let diff = Diff::encode(&twin, &cur);
        prop_assert_eq!(diff.modified_bytes() % WORD_SIZE, 0);
        prop_assert!(diff.modified_bytes() <= PAGE_SIZE);
        prop_assert!(diff.wire_size() >= diff.modified_bytes());
        prop_assert!(diff.run_count() <= diff.modified_bytes() / WORD_SIZE + 1);
    }

    /// The block encoder agrees with the naive word-scan reference:
    /// same words, same bytes, same run count.
    #[test]
    fn chunked_encode_matches_naive_reference(
        twin in page_strategy(),
        cur in page_strategy(),
    ) {
        assert_matches_naive(&Diff::encode(&twin, &cur), &twin, &cur);
    }

    /// Buffer-reusing `encode_into` produces the same diff as the
    /// allocating API, whatever state the reused diff was left in, and
    /// applying it to a copy of its twin round-trips.
    #[test]
    fn pooled_encode_into_and_apply_round_trip(
        twin_a in page_strategy(),
        cur_a in page_strategy(),
        twin_b in page_strategy(),
        cur_b in page_strategy(),
    ) {
        let mut reused = Diff::default();
        // First fill leaves a buffer behind for the second encode to
        // recycle.
        Diff::encode_into(&twin_a, &cur_a, &mut reused);
        prop_assert_eq!(&reused, &Diff::encode(&twin_a, &cur_a));

        Diff::encode_into(&twin_b, &cur_b, &mut reused);
        prop_assert_eq!(&reused, &Diff::encode(&twin_b, &cur_b));

        let mut out = twin_b.clone();
        reused.apply(&mut out);
        prop_assert_eq!(out, cur_b);
    }

    /// `apply_many` over a random happened-before chain — each page
    /// derived from the previous by random edits, each diff encoded
    /// against its predecessor — is byte-for-byte the sequential apply,
    /// and lands on the chain's final page. Chains are as drawn (up to
    /// 5 diffs) or stretched to 9, 32 or 63 by reusing the edit sets,
    /// shifted.
    #[test]
    fn apply_many_matches_sequential_over_chains(
        base in page_strategy(),
        edit_sets in prop::collection::vec(
            prop::collection::vec((0usize..PAGE_SIZE, any::<u8>()), 0..48),
            0..6,
        ),
        fan_in in 0usize..4,
    ) {
        let k = [edit_sets.len(), 9, 32, 63][fan_in];
        let mut pages = vec![base.clone()];
        let mut diffs = Vec::new();
        for (round, edits) in edit_sets.iter().cycle().take(k).enumerate() {
            let mut next = pages.last().expect("nonempty").clone();
            for &(i, v) in edits {
                next[(i + round * 52) % PAGE_SIZE] = v ^ round as u8;
            }
            diffs.push(Diff::encode(pages.last().expect("nonempty"), &next));
            pages.push(next);
        }
        let refs: Vec<&Diff> = diffs.iter().collect();
        let mut seq = base.clone();
        for d in &refs {
            d.apply(&mut seq);
        }
        let mut merged = base.clone();
        Diff::apply_many(&refs, &mut merged);
        prop_assert_eq!(&merged, &seq);
        prop_assert_eq!(&merged, pages.last().expect("nonempty"));
    }

    /// `apply_many` equals sequential apply for *arbitrary* diff lists
    /// on an arbitrary canvas: overlapping runs, empty diffs, repeated
    /// diffs — last writer wins per word either way, at the drawn fan-in
    /// and at 9, 32 and 63.
    #[test]
    fn apply_many_matches_sequential_on_any_canvas(
        canvas in page_strategy(),
        sources in prop::collection::vec(
            (page_strategy(), page_strategy()),
            0..5,
        ),
        include_empty in any::<bool>(),
        fan_in in 0usize..4,
    ) {
        let k = [sources.len(), 9, 32, 63][fan_in];
        let mut diffs: Vec<Diff> = sources
            .iter()
            .cycle()
            .take(k)
            .map(|(twin, cur)| Diff::encode(twin, cur))
            .collect();
        if include_empty {
            diffs.insert(diffs.len() / 2, Diff::default());
        }
        // Re-apply the first diff at the end too (the merge procedure's
        // own-delta case: a processor's old diff rides behind foreign
        // ones).
        if let Some(first) = diffs.first().cloned() {
            diffs.push(first);
        }
        let refs: Vec<&Diff> = diffs.iter().collect();
        let mut seq = canvas.clone();
        for d in &refs {
            d.apply(&mut seq);
        }
        let mut merged = canvas.clone();
        Diff::apply_many(&refs, &mut merged);
        prop_assert_eq!(merged, seq);
    }

    /// Applying two diffs with disjoint word sets commutes.
    #[test]
    fn disjoint_diffs_commute(
        base in page_strategy(),
        edits_a in prop::collection::vec((0usize..512, any::<u8>()), 1..32),
        edits_b in prop::collection::vec((512usize..1024, any::<u8>()), 1..32),
    ) {
        // Builds two diffs over disjoint word ranges (words 0..128 and 128..256).
        let mut pa = base.clone();
        for &(w, v) in &edits_a {
            pa[w * WORD_SIZE % 512] = v;
        }
        let mut pb = base.clone();
        for &(w, v) in &edits_b {
            let off = 512 + (w - 512) % 512;
            pb[off] = v;
        }
        let da = Diff::encode(&base, &pa);
        let db = Diff::encode(&base, &pb);
        prop_assert!(!da.overlaps(&db));

        let mut ab = base.clone();
        da.apply(&mut ab);
        db.apply(&mut ab);
        let mut ba = base.clone();
        db.apply(&mut ba);
        da.apply(&mut ba);
        prop_assert_eq!(ab, ba);
    }
}

// ---- the shapes the block codec has edges at ---------------------------

const WORDS: usize = PAGE_SIZE / WORD_SIZE;
/// Words in one 64-byte block of the codec.
const BLOCK_WORDS: usize = 16;

/// A zero twin and a page with exactly `words` modified.
fn pages_with_dirty_words(words: impl IntoIterator<Item = usize>) -> (Vec<u8>, Vec<u8>) {
    let twin = vec![0u8; PAGE_SIZE];
    let mut cur = twin.clone();
    for w in words {
        cur[w * WORD_SIZE + w % WORD_SIZE] = 1 + (w % 255) as u8;
    }
    (twin, cur)
}

/// Encodes, checks every observable against the word-scan oracle and
/// the round trip, and hands the diff back.
fn checked_encode(twin: &[u8], cur: &[u8]) -> Diff {
    let diff = Diff::encode(twin, cur);
    assert_matches_naive(&diff, twin, cur);
    let mut target = twin.to_vec();
    diff.apply(&mut target);
    assert_eq!(target, cur);
    diff
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
        assert_matches_naive(&Diff::encode(&twin, &cur), &twin, &cur);
    }
    // Whole-page change: one maximal run under both encoders.
    let twin = vec![1u8; PAGE_SIZE];
    let cur = vec![2u8; PAGE_SIZE];
    assert_matches_naive(&Diff::encode(&twin, &cur), &twin, &cur);
}

#[test]
fn first_and_last_word_of_the_page() {
    for words in [vec![0], vec![WORDS - 1], vec![0, WORDS - 1]] {
        let (twin, cur) = pages_with_dirty_words(words.clone());
        let diff = checked_encode(&twin, &cur);
        assert_eq!(diff.run_count(), words.len());
        assert_eq!(diff.modified_bytes(), words.len() * WORD_SIZE);
    }
}

#[test]
fn a_run_across_every_block_boundary() {
    // One boundary at a time, then all 63 at once.
    for b in 1..WORDS / BLOCK_WORDS {
        let (twin, cur) = pages_with_dirty_words([b * BLOCK_WORDS - 1, b * BLOCK_WORDS]);
        assert_eq!(checked_encode(&twin, &cur).run_count(), 1, "boundary {b}");
    }
    let straddling = (1..WORDS / BLOCK_WORDS).flat_map(|b| [b * BLOCK_WORDS - 1, b * BLOCK_WORDS]);
    let (twin, cur) = pages_with_dirty_words(straddling);
    let diff = checked_encode(&twin, &cur);
    assert_eq!(diff.run_count(), 63);
    assert_eq!(diff.modified_bytes(), 63 * 2 * WORD_SIZE);
}

#[test]
fn all_dirty_and_none_dirty() {
    let (twin, cur) = pages_with_dirty_words(0..WORDS);
    let all = checked_encode(&twin, &cur);
    assert_eq!((all.run_count(), all.modified_bytes()), (1, PAGE_SIZE));
    let none = checked_encode(&twin, &twin);
    assert!(none.is_empty());
    assert_eq!((none.run_count(), none.modified_bytes()), (0, 0));
    assert_eq!(none, Diff::default());
}

/// A red/black half-sweep over a row of `f64`: every other element, two
/// words each — the densest a page gets in runs.
#[test]
fn every_other_f64() {
    for colour in [0, 1] {
        let doubles = (0..WORDS / 2).filter(|d| d % 2 == colour);
        let (twin, cur) = pages_with_dirty_words(doubles.flat_map(|d| [2 * d, 2 * d + 1]));
        let diff = checked_encode(&twin, &cur);
        assert_eq!(diff.run_count(), WORDS / 4);
        assert_eq!(diff.modified_bytes(), PAGE_SIZE / 2);
        assert_eq!(diff.wire_size(), 12 + 4 * (WORDS / 4) + PAGE_SIZE / 2);
    }
}

#[test]
fn windowed_encode_into_a_diff_that_held_something_else() {
    let (twin, dense) = pages_with_dirty_words((0..WORDS).filter(|w| w % 3 != 0));
    let (_, sparse) = pages_with_dirty_words([300, 301, 340]);
    let (lo, hi) = (300 * WORD_SIZE, 341 * WORD_SIZE);
    let mut out = Diff::default();
    for (cur, window) in [
        (&sparse, (lo, hi)),
        (&twin, (0, 0)),
        (&sparse, (lo - 100, hi + 7)),
    ] {
        Diff::encode_into(&twin, &dense, &mut out);
        assert_eq!(out, checked_encode(&twin, &dense));
        Diff::encode_span_into(&twin, cur, window.0, window.1, &mut out);
        assert_eq!(out, checked_encode(&twin, cur), "window {window:?}");
    }
}

#[test]
fn apply_many_over_overlapping_diffs_is_sequential_apply() {
    for k in [1usize, 2, 8, 63] {
        // Diff `i` rewrites a band every later diff cuts into, plus a
        // stripe of its own.
        let diffs: Vec<Diff> = (0..k)
            .map(|i| {
                let twin = vec![0u8; PAGE_SIZE];
                let mut cur = twin.clone();
                cur[i * 8..PAGE_SIZE / 2 + i * 20].fill(i as u8 + 1);
                cur[PAGE_SIZE - 4 * (i + 1)] = 0x80 | i as u8;
                checked_encode(&twin, &cur)
            })
            .collect();
        let canvas: Vec<u8> = (0..PAGE_SIZE).map(|i| (i * 7) as u8).collect();
        let mut seq = canvas.clone();
        for d in &diffs {
            d.apply(&mut seq);
        }
        let mut merged = canvas.clone();
        Diff::apply_many(&diffs, &mut merged);
        assert_eq!(merged, seq, "k = {k}");
        if k > 1 {
            assert!(diffs[0].overlaps(&diffs[k - 1]));
            assert_ne!(merged[PAGE_SIZE / 4], 1, "the first diff does not survive");
        }
    }
}

#[test]
fn overlaps_is_about_words() {
    let diff_of = |words: &[usize]| {
        let (twin, cur) = pages_with_dirty_words(words.iter().copied());
        checked_encode(&twin, &cur)
    };
    let cases: &[(&[usize], &[usize], bool)] = &[
        (&[5], &[5], true),
        (&[5], &[6], false),           // same block, neighbouring words
        (&[0, 15], &[1, 14], false),   // interleaved within one block
        (&[15], &[16], false),         // either side of a block boundary
        (&[3, 700], &[40, 700], true), // the common word is in a later block
        (&[3, 700], &[3], true),       // ... or in an earlier one
        (&[1023], &[0, 1023], true),
        (&[], &[7], false),
        (&[], &[], false),
    ];
    for &(a, b, want) in cases {
        let (da, db) = (diff_of(a), diff_of(b));
        assert_eq!(da.overlaps(&db), want, "{a:?} vs {b:?}");
        assert_eq!(db.overlaps(&da), want, "{b:?} vs {a:?}");
    }
}
