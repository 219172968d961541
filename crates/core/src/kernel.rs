//! The SoA (min,+) convolution kernel of the binary DP's Stage 1.
//!
//! Each row keeps its costs in a column of their own (`Vec<u64>`, with
//! the branch tags or splits in a second column), so the convolution of
//! a parent reads its children's costs as two dense `&[u64]` slices —
//! no split bytes in the stride, and contiguous for the hardware
//! prefetcher. Every builder checks [`crate::COST_BOUND`] at entry, so
//! every cost, and every sum of two, stays below `u64::MAX`: the kernel
//! runs in one `u64` lane, which the compiler turns into straight-line
//! SIMD.

use crate::INFINITE_COST;

/// The SoA (min,+) convolution of the two-stage k-summation:
/// `out[j] = min_{l1+l2=j} c1[l1] + c2[l2]`, cost-only, into a
/// caller-owned buffer.
///
/// The kernel carries **no argmin column** — dropping it is what makes
/// the inner loop an unconditional `min` over a contiguous window, free
/// of data-dependent branches and stores of a second array. Extraction
/// resolves the one argmin it needs per visited node afterwards with
/// [`minplus_argmin`].
///
/// Output length is `c1.len() + c2.len() - 1` (empty when either input
/// is empty). Costs must be finite and within the DP's entry bound: the
/// DP guarantees every dense cell is reachable (the special×special
/// block always provides a finite fallback), so plain `+` cannot
/// overflow here.
pub(crate) fn convolve_into(c1: &[u64], c2: &[u64], out: &mut Vec<u64>) {
    out.clear();
    if c1.is_empty() || c2.is_empty() {
        return;
    }
    out.resize(c1.len() + c2.len() - 1, INFINITE_COST);
    for (l1, &base) in c1.iter().enumerate() {
        // Row l1 lands on the contiguous output window [l1, l1+a2);
        // zipped slices kill the bounds checks.
        let window = &mut out[l1..l1 + c2.len()];
        for (slot, &c) in window.iter_mut().zip(c2) {
            *slot = (*slot).min(base + c);
        }
    }
}

/// Allocating wrapper over the kernel — the reference surface for
/// property tests of the kernel.
pub fn minplus_convolve(c1: &[u64], c2: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    convolve_into(c1, c2, &mut out);
    out
}

/// Ascending rescan of convolution diagonal `j` for the smallest `l1`
/// with `c1[l1] + c2[j − l1] == target` (the diagonal's minimum, as
/// computed by [`minplus_convolve`]). This is exactly the representative
/// a strict-`<` update rule with `l1` ascending records, so split
/// extraction through this function is bit-identical to an argmin
/// column — the tie-break is part of the bit-identity contract with the
/// row-wise DP.
///
/// `None` when no pair on the diagonal sums to `target` — including an
/// empty diagonal (`j ≥ c1.len() + c2.len() − 1`, or an empty input). A
/// corrupted row reaches this; it never panics or overflows.
pub fn minplus_argmin(c1: &[u64], c2: &[u64], j: usize, target: u64) -> Option<u32> {
    let lo = j.saturating_add(1).saturating_sub(c2.len());
    // Ascending l1 from lo pairs with descending l2 from j − lo.
    let left = c1.get(lo..=j.min(c1.len().checked_sub(1)?))?;
    let right = c2.get(..=j.checked_sub(lo)?)?.iter().rev();
    let hit = left.iter().zip(right).position(|(&a, &b)| a.checked_add(b) == Some(target))?;
    Some((lo + hit) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::COST_BOUND;

    #[test]
    fn convolve_matches_naive_reference() {
        let c1 = [5u64, 2, 9];
        let c2 = [1u64, 1, 3, 0];
        let cost = minplus_convolve(&c1, &c2);
        assert_eq!(cost.len(), 6);
        for (j, &got) in cost.iter().enumerate() {
            let mut best = INFINITE_COST;
            let mut best_l1 = 0;
            for (l1, &a) in c1.iter().enumerate() {
                for (l2, &b) in c2.iter().enumerate() {
                    if l1 + l2 == j && a + b < best {
                        best = a + b;
                        best_l1 = l1 as u32;
                    }
                }
            }
            assert_eq!(got, best, "j={j}");
            assert_eq!(minplus_argmin(&c1, &c2, j, got), Some(best_l1), "argmin at j={j}");
        }
    }

    #[test]
    fn argmin_ties_keep_smallest_l1() {
        // c1[0]+c2[1] == c1[1]+c2[0] at j=1; the earlier l1 must win.
        let cost = minplus_convolve(&[4, 4], &[4, 4]);
        assert_eq!(cost, vec![8, 8, 8]);
        assert_eq!(minplus_argmin(&[4, 4], &[4, 4], 1, 8), Some(0));
        assert_eq!(minplus_argmin(&[4, 4], &[4, 4], 2, 8), Some(1));
    }

    #[test]
    fn argmin_without_a_witness_is_none_not_a_panic() {
        assert_eq!(minplus_argmin(&[4, 4], &[4, 4], 1, 7), None, "no pair sums to 7");
        assert_eq!(minplus_argmin(&[4, 4], &[4, 4], 3, 8), None, "j past the last diagonal");
        assert_eq!(minplus_argmin(&[], &[4, 4], 0, 4), None, "empty c1");
        assert_eq!(minplus_argmin(&[4, 4], &[], 0, 4), None, "empty c2");
        let max = INFINITE_COST;
        assert_eq!(minplus_argmin(&[max], &[1], 0, 0), None, "a sum past u64 overflows to none");
    }

    #[test]
    fn costs_at_the_bound_sum_exactly_below_the_sentinel() {
        // Two costs at the entry bound sum to 2⁶³: exact, and no sum of
        // in-bound costs reaches the INFINITE_COST sentinel.
        let top = COST_BOUND as u64;
        let c1 = [top, 3];
        let c2 = [top - 1, 0, 5];
        let cost = minplus_convolve(&c1, &c2);
        assert_eq!(cost, vec![2 * top - 1, top, 3, 8]);
        assert!(cost.iter().all(|&c| c < INFINITE_COST));
        assert_eq!(minplus_argmin(&c1, &c2, 0, 2 * top - 1), Some(0));
        assert_eq!(minplus_argmin(&c1, &c2, 1, top), Some(0));
    }

    #[test]
    fn convolve_empty_inputs_yield_empty_output() {
        assert_eq!(minplus_convolve(&[], &[1, 2]), Vec::<u64>::new());
        assert_eq!(minplus_convolve(&[1, 2], &[]), Vec::<u64>::new());
    }
}
