//! The SoA (min,+) convolution kernel of the binary DP's Stage 1.
//!
//! Each row keeps its costs in a column of their own (`Vec<u128>`, with
//! the branch tags or splits in a second column), so the convolution of
//! a parent reads its children's costs as two dense `&[u128]` slices —
//! no split bytes in the stride, and contiguous for the hardware
//! prefetcher.

/// Costs small enough for the u64 fast lane of [`ConvKernel`]: sums of
/// two stay below `u64::MAX` with headroom.
const NARROW_LIMIT: u128 = (u64::MAX / 4) as u128;

/// The SoA (min,+) convolution kernel of the two-stage k-summation:
/// `out[j] = min_{l1+l2=j} c1[l1] + c2[l2]`, cost-only.
///
/// The kernel carries **no argmin column** — dropping it is what makes
/// the inner loop an unconditional `min` over a contiguous window, free
/// of data-dependent branches and stores of a second array. Extraction
/// resolves the one argmin it needs per visited node afterwards with
/// [`minplus_argmin`]. When every input cost is below 2⁶² (the
/// common case: costs are exact `area·users` products), the loop runs in
/// u64 lanes, which the compiler turns into straight-line SIMD; a u128
/// scalar lane with the same update rule covers the rest. Both lanes
/// compute identical integer minima.
///
/// Output length is `c1.len() + c2.len() - 1` (empty when either input
/// is empty). Costs must be finite: the DP guarantees every dense cell
/// is reachable (the special×special block always provides a finite
/// fallback), so plain `+` cannot overflow here.
#[derive(Debug, Default)]
pub struct ConvKernel {
    c1_64: Vec<u64>,
    c2_64: Vec<u64>,
    conv_64: Vec<u64>,
}

impl ConvKernel {
    /// Widen-copies `src` into `dst` while checking the narrow-lane limit
    /// in the same pass. Returns `false` on the first violating cost;
    /// `dst` is then partially filled and the caller must take the wide
    /// lane (which reads only the original `u128` inputs).
    fn load_narrow(dst: &mut Vec<u64>, src: &[u128]) -> bool {
        dst.clear();
        dst.reserve(src.len());
        for &c in src {
            if c > NARROW_LIMIT {
                return false;
            }
            dst.push(c as u64);
        }
        true
    }

    /// Convolves `c1 ⊗ c2` into `out` (reusing the kernel's u64 lanes).
    pub fn convolve_into(&mut self, c1: &[u128], c2: &[u128], out: &mut Vec<u128>) {
        let (a1, a2) = (c1.len(), c2.len());
        let conv_len = if a1 > 0 && a2 > 0 { a1 + a2 - 1 } else { 0 };
        out.clear();
        if conv_len == 0 {
            return;
        }
        // One fused pass per input: the limit check and the widen-copy
        // share the same scan (the second operand is not even touched when
        // the first already forced the wide lane).
        let narrow =
            Self::load_narrow(&mut self.c1_64, c1) && Self::load_narrow(&mut self.c2_64, c2);
        if narrow {
            self.conv_64.clear();
            self.conv_64.resize(conv_len, u64::MAX);
            for (l1, &base) in self.c1_64.iter().enumerate() {
                // Row l1 lands on the contiguous output window
                // [l1, l1+a2); zipped slices kill the bounds checks.
                let window = &mut self.conv_64[l1..l1 + a2];
                for (slot, &c) in window.iter_mut().zip(&self.c2_64) {
                    let cand = base + c;
                    *slot = (*slot).min(cand);
                }
            }
            // Every j ∈ [0, conv_len) is covered by some (l1, l2) pair,
            // so no u64::MAX sentinel survives to be widened.
            out.extend(self.conv_64.iter().map(|&c| c as u128));
        } else {
            out.resize(conv_len, crate::INFINITE_COST);
            for (l1, &base) in c1.iter().enumerate() {
                let window = &mut out[l1..l1 + a2];
                for (slot, &c) in window.iter_mut().zip(c2) {
                    let cand = base + c;
                    if cand < *slot {
                        *slot = cand;
                    }
                }
            }
        }
    }
}

/// Allocating wrapper over [`ConvKernel::convolve_into`] — the reference
/// surface for property tests of the kernel.
pub fn minplus_convolve(c1: &[u128], c2: &[u128]) -> Vec<u128> {
    let mut out = Vec::new();
    ConvKernel::default().convolve_into(c1, c2, &mut out);
    out
}

/// Ascending rescan of convolution diagonal `j` for the smallest `l1`
/// with `c1[l1] + c2[j − l1] == target` (the diagonal's minimum, as
/// computed by [`ConvKernel`]). This is exactly the representative a
/// strict-`<` update rule with `l1` ascending records, so split
/// extraction through this function is bit-identical to an argmin
/// column — the tie-break is part of the bit-identity contract with the
/// row-wise DP.
///
/// `None` when no pair on the diagonal sums to `target` — including an
/// empty diagonal (`j ≥ c1.len() + c2.len() − 1`, or an empty input). A
/// corrupted row reaches this; it never panics or overflows.
pub fn minplus_argmin(c1: &[u128], c2: &[u128], j: usize, target: u128) -> Option<u32> {
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
    use crate::INFINITE_COST;

    #[test]
    fn convolve_matches_naive_reference() {
        let c1 = [5u128, 2, 9];
        let c2 = [1u128, 1, 3, 0];
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
        assert_eq!(minplus_argmin(&[max], &[1], 0, 0), None, "a sum past u128 overflows to none");
    }

    #[test]
    fn wide_costs_take_the_u128_lane_and_agree_with_naive() {
        // One cost above the u64 fast-lane limit forces the scalar lane;
        // results must be the same exact integers either way.
        let big = super::NARROW_LIMIT + 7;
        let c1 = [big, 3u128];
        let c2 = [1u128, 0, 5];
        let cost = minplus_convolve(&c1, &c2);
        assert_eq!(cost, vec![big + 1, 4, 3, 8]);
    }

    #[test]
    fn convolve_empty_inputs_yield_empty_output() {
        assert_eq!(minplus_convolve(&[], &[1, 2]), Vec::<u128>::new());
        assert_eq!(minplus_convolve(&[1, 2], &[]), Vec::<u128>::new());
    }
}
