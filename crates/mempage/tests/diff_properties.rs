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

    /// The chunked encoder is run-for-run identical to the naive
    /// word-scan reference: same runs, same offsets, same bytes, same
    /// wire size.
    #[test]
    fn chunked_encode_matches_naive_reference(
        twin in page_strategy(),
        cur in page_strategy(),
    ) {
        let chunked = Diff::encode(&twin, &cur);
        let naive = Diff::encode_naive(&twin, &cur);
        prop_assert_eq!(&chunked, &naive);
        prop_assert_eq!(chunked.run_count(), naive.run_count());
        prop_assert_eq!(chunked.modified_bytes(), naive.modified_bytes());
        prop_assert_eq!(chunked.wire_size(), naive.wire_size());
    }

    /// Buffer-reusing `encode_into` produces the same diff as the
    /// allocating API, whatever state the reused diff was left in, and
    /// `apply_onto` round-trips through a caller-provided buffer.
    #[test]
    fn pooled_encode_into_and_apply_round_trip(
        twin_a in page_strategy(),
        cur_a in page_strategy(),
        twin_b in page_strategy(),
        cur_b in page_strategy(),
    ) {
        let mut reused = Diff::default();
        // First fill leaves runs/data buffers behind for the second
        // encode to recycle.
        Diff::encode_into(&twin_a, &cur_a, &mut reused);
        prop_assert_eq!(&reused, &Diff::encode(&twin_a, &cur_a));

        Diff::encode_into(&twin_b, &cur_b, &mut reused);
        prop_assert_eq!(&reused, &Diff::encode(&twin_b, &cur_b));

        let mut out = vec![0xAAu8; PAGE_SIZE];
        reused.apply_onto(&twin_b, &mut out);
        prop_assert_eq!(out, cur_b);
    }

    /// `apply_many` over a random happened-before chain — each page
    /// derived from the previous by random edits, each diff encoded
    /// against its predecessor — is byte-for-byte the sequential apply,
    /// and lands on the chain's final page. Chains are as drawn (up to
    /// 5 diffs, the one-pass merge) or stretched to 9, 32 or 63 (past
    /// the merge's fan-in limit) by reusing the edit sets, shifted.
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
