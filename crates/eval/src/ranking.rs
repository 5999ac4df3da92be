//! Top-N selection over per-item scores.

use std::collections::HashSet;

/// Select the `n` highest-scoring item ids from `scores` (indexed by item
/// id, with id 0 the padding slot), skipping the padding id and every id in
/// `exclude` (the user's fold-in items — recommending something the user
/// already consumed is not a valid recommendation under the protocol).
///
/// Ties break toward the lower item id for determinism. Runs in
/// `O(items · log n)` via a bounded min-heap, which matters when scoring a
/// 12 k-item catalogue for 1 200 held-out users per epoch.
pub fn top_n_excluding(scores: &[f32], n: usize, exclude: &HashSet<u32>) -> Vec<u32> {
    top_n_excluding_pairs(
        scores.iter().enumerate().map(|(item, &score)| (item as u32, score)),
        n,
        exclude,
    )
}

/// [`top_n_excluding`] over explicit `(item, score)` pairs instead of a
/// dense score slice — the entry point the clustered retrieval path uses
/// (its candidates are the sparse survivors of the probed clusters).
///
/// Both paths share this one heap and comparator, so the selection is a
/// pure function of the *set* of pairs fed in: insertion order never
/// affects the result (the comparator `(score desc, item asc)` is a total
/// order over the finite pairs, and the heap keeps the n best under it).
/// That is the property that makes clustered top-k bit-identical, in
/// order, to the exact path whenever the index's walk visits every
/// cluster that could hold a top-k item: a full probe, slack 1, or any
/// reply it certifies.
pub fn top_n_excluding_pairs<I>(pairs: I, n: usize, exclude: &HashSet<u32>) -> Vec<u32>
where
    I: IntoIterator<Item = (u32, f32)>,
{
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// Min-heap entry: reversed ordering on (score, reversed id).
    struct Entry {
        score: f32,
        item: u32,
    }
    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reverse: BinaryHeap is a max-heap, we want the *worst* kept
            // entry on top. Lower score = greater entry. For equal scores a
            // *higher* id is "worse" (so low ids win ties).
            other
                .score
                .partial_cmp(&self.score)
                .unwrap_or(Ordering::Equal)
                .then_with(|| self.item.cmp(&other.item))
        }
    }

    if n == 0 {
        return Vec::new();
    }
    let pairs = pairs.into_iter();
    // Reserve for what the candidates can fill: `n` may exceed the catalog
    // by any amount, `usize::MAX` included.
    let reserve = n.min(pairs.size_hint().0).saturating_add(1);
    let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(reserve);
    for (item, score) in pairs {
        if item == 0 || exclude.contains(&item) || !score.is_finite() {
            continue;
        }
        if heap.len() < n {
            heap.push(Entry { score, item });
        } else if let Some(worst) = heap.peek() {
            let better = score > worst.score || (score == worst.score && item < worst.item);
            if better {
                heap.pop();
                heap.push(Entry { score, item });
            }
        }
    }
    let mut out: Vec<Entry> = heap.into_vec();
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.item.cmp(&b.item))
    });
    out.into_iter().map(|e| e.item).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_exclusions() -> HashSet<u32> {
        HashSet::new()
    }

    #[test]
    fn selects_highest_scores_in_order() {
        let scores = vec![9.9, 0.1, 0.5, 0.3, 0.9, 0.2];
        let top = top_n_excluding(&scores, 3, &no_exclusions());
        assert_eq!(top, vec![4, 2, 3]);
    }

    #[test]
    fn padding_item_zero_is_never_recommended() {
        let scores = vec![100.0, 1.0, 2.0];
        let top = top_n_excluding(&scores, 3, &no_exclusions());
        assert_eq!(top, vec![2, 1]);
    }

    #[test]
    fn exclusions_are_respected() {
        let scores = vec![0.0, 5.0, 4.0, 3.0, 2.0];
        let exclude: HashSet<u32> = [1, 3].into_iter().collect();
        let top = top_n_excluding(&scores, 3, &exclude);
        assert_eq!(top, vec![2, 4]);
    }

    #[test]
    fn ties_break_to_lower_id() {
        let scores = vec![0.0, 1.0, 1.0, 1.0, 1.0];
        let top = top_n_excluding(&scores, 2, &no_exclusions());
        assert_eq!(top, vec![1, 2]);
    }

    #[test]
    fn handles_n_larger_than_catalogue() {
        let scores = vec![0.0, 0.3, 0.7];
        let top = top_n_excluding(&scores, 10, &no_exclusions());
        assert_eq!(top, vec![2, 1]);
    }

    #[test]
    fn nan_scores_are_skipped() {
        let scores = vec![0.0, f32::NAN, 1.0, 0.5];
        let top = top_n_excluding(&scores, 3, &no_exclusions());
        assert_eq!(top, vec![2, 3]);
    }

    #[test]
    fn zero_n_is_empty() {
        assert!(top_n_excluding(&[0.0, 1.0], 0, &no_exclusions()).is_empty());
    }

    #[test]
    fn pairs_selection_is_insertion_order_independent() {
        // Equal scores everywhere: the outcome must be a pure function of
        // the pair *set*, whatever order the clusters fed them in.
        let fwd: Vec<(u32, f32)> = (1..=20).map(|i| (i, 1.0)).collect();
        let mut rev = fwd.clone();
        rev.reverse();
        let mut interleaved: Vec<(u32, f32)> = Vec::new();
        for i in 0..10 {
            interleaved.push(fwd[i]);
            interleaved.push(fwd[19 - i]);
        }
        let expect: Vec<u32> = (1..=5).collect();
        for order in [fwd, rev, interleaved] {
            assert_eq!(top_n_excluding_pairs(order, 5, &no_exclusions()), expect);
        }
    }

    #[test]
    fn pairs_ties_break_to_lower_id_with_mixed_scores() {
        let pairs = vec![(7u32, 2.0f32), (3, 5.0), (9, 5.0), (2, 5.0), (8, 2.0)];
        let mut shuffled = pairs.clone();
        shuffled.rotate_left(2);
        assert_eq!(top_n_excluding_pairs(pairs, 4, &no_exclusions()), vec![2, 3, 9, 7]);
        assert_eq!(top_n_excluding_pairs(shuffled, 4, &no_exclusions()), vec![2, 3, 9, 7]);
    }

    #[test]
    fn pairs_matches_dense_path() {
        let scores: Vec<f32> = (0..64).map(|i| ((i * 13 % 31) as f32).cos()).collect();
        let exclude: HashSet<u32> = [4, 9].into_iter().collect();
        let dense = top_n_excluding(&scores, 7, &exclude);
        let sparse = top_n_excluding_pairs(
            scores.iter().enumerate().map(|(i, &s)| (i as u32, s)),
            7,
            &exclude,
        );
        assert_eq!(dense, sparse);
    }

    #[test]
    fn matches_full_sort_on_random_input() {
        // Cross-check the heap against a straightforward full sort.
        let scores: Vec<f32> =
            (0..200).map(|i| ((i * 37 % 101) as f32 * 0.17).sin()).collect();
        let exclude: HashSet<u32> = (0..200).filter(|i| i % 7 == 0).map(|i| i as u32).collect();
        let fast = top_n_excluding(&scores, 10, &exclude);
        let mut slow: Vec<u32> = (1..200u32).filter(|i| !exclude.contains(i)).collect();
        slow.sort_by(|&a, &b| {
            scores[b as usize]
                .partial_cmp(&scores[a as usize])
                .unwrap()
                .then_with(|| a.cmp(&b))
        });
        assert_eq!(fast, slow[..10].to_vec());
    }
}
