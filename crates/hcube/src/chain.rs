//! Dimension-ordered and cube-ordered chains (Section 4 of the paper).
//!
//! All chain functions operate in *canonical* address space, i.e. the
//! space in which the router resolves addresses high-to-low (see
//! [`Resolution::canon`]). In that space:
//!
//! * the dimension-order relation `<_d` is ordinary numeric order, so a
//!   *dimension-ordered chain* is a strictly ascending address list;
//! * a *`d₀`-relative dimension-ordered chain* is obtained by XOR-ing each
//!   address with `d₀` and sorting;
//! * a *cube-ordered chain* (Definition 5) is one whose members of any
//!   subcube are contiguous. Every dimension-ordered chain is cube-ordered
//!   (Theorem 4), but not vice versa — `weighted_sort` exploits exactly
//!   that freedom.

use crate::addr::NodeId;
use crate::error::HcubeError;
use crate::routing::Resolution;
use crate::subcube::Subcube;

/// The dimension-order relation `a <_d b` for a router with the given
/// resolution order (strict version; equal addresses are not related).
///
/// With high-to-low resolution this is numeric `<`; with low-to-high it is
/// numeric `<` of the bit-reversed addresses, matching the paper's two
/// worked orderings of `{10100, 00110, 10010}`.
#[inline]
#[must_use]
pub fn dim_lt(res: Resolution, n: u8, a: NodeId, b: NodeId) -> bool {
    res.canon(a, n).0 < res.canon(b, n).0
}

/// Whether a canonical-space chain is dimension-ordered (strictly
/// ascending, hence duplicate-free).
#[must_use]
pub fn is_dimension_ordered(chain: &[NodeId]) -> bool {
    chain.windows(2).all(|w| w[0].0 < w[1].0)
}

/// Builds the source-relative dimension-ordered chain `Φ` used by every
/// algorithm in the paper: each destination is canonicalized, XOR-ed with
/// the canonical source, and sorted ascending; the source contributes the
/// leading `0`.
///
/// The returned chain lives in canonical *relative* space: element 0 is
/// always `0` (the source), and a node's physical address is recovered as
/// `res.canon(rel ⊕ canon(source))`… i.e. by [`from_relative`].
///
/// # Errors
/// * [`HcubeError::DuplicateAddress`] if a destination repeats or equals
///   the source.
///
/// ```
/// use hcube::{NodeId, Resolution};
/// use hcube::chain::relative_chain;
///
/// // The paper's Figure 5: source 0100 in a 4-cube.
/// let dests: Vec<NodeId> =
///     [0b0001u32, 0b0011, 0b0101, 0b0111, 0b1000, 0b1010, 0b1011, 0b1111]
///         .into_iter().map(NodeId).collect();
/// let chain = relative_chain(Resolution::HighToLow, 4, NodeId(0b0100), &dests)?;
/// let phi: Vec<u32> = chain.iter().map(|v| v.0).collect();
/// assert_eq!(phi, [0b0000, 0b0001, 0b0011, 0b0101, 0b0111,
///                  0b1011, 0b1100, 0b1110, 0b1111]);
/// # Ok::<(), hcube::HcubeError>(())
/// ```
pub fn relative_chain(
    res: Resolution,
    n: u8,
    source: NodeId,
    dests: &[NodeId],
) -> Result<Vec<NodeId>, HcubeError> {
    let mut chain = Vec::with_capacity(dests.len() + 1);
    relative_chain_into(res, n, source, dests, &mut chain)?;
    Ok(chain)
}

/// [`relative_chain`] written into a caller-owned buffer, which is
/// cleared first, so a caller that builds many chains allocates only
/// when one outgrows the buffer.
///
/// # Errors
/// The errors of [`relative_chain`]; `chain` then holds no valid chain.
#[inline]
pub fn relative_chain_into(
    res: Resolution,
    n: u8,
    source: NodeId,
    dests: &[NodeId],
    chain: &mut Vec<NodeId>,
) -> Result<(), HcubeError> {
    let src_c = res.canon(source, n);
    chain.clear();
    chain.push(NodeId(0));
    for &d in dests {
        chain.push(NodeId(res.canon(d, n).xor(src_c)));
    }
    chain[1..].sort_unstable();
    for w in chain.windows(2) {
        if w[0] == w[1] {
            // Report the duplicate in physical space for the caller.
            return Err(HcubeError::DuplicateAddress {
                node: from_relative(res, n, source, w[1]),
            });
        }
    }
    Ok(())
}

/// Maps a canonical-relative chain element back to its physical node
/// address. Inverse of the transform in [`relative_chain`].
#[inline]
#[must_use]
pub fn from_relative(res: Resolution, n: u8, source: NodeId, rel: NodeId) -> NodeId {
    let src_c = res.canon(source, n);
    res.canon(NodeId(rel.xor(src_c)), n)
}

/// Brute-force cube-ordering oracle (Definition 5, literal): for every
/// triple `i ≤ j ≤ k`, if `d_i` and `d_k` lie in a common subcube then so
/// does `d_j`. O(m³) — intended for tests and small inputs.
///
/// Returns `Ok(())` or the index of a witness violating contiguity.
pub fn check_cube_ordered_naive(chain: &[NodeId]) -> Result<(), usize> {
    for i in 0..chain.len() {
        for k in (i + 2)..chain.len() {
            let s = Subcube::enclosing_pair(chain[i], chain[k]);
            // Subcubes containing a fixed node are nested, so it suffices
            // to test the smallest subcube containing d_i and d_k.
            for (j, &dj) in chain.iter().enumerate().take(k).skip(i + 1) {
                if !s.contains(dj) {
                    return Err(j);
                }
            }
        }
    }
    Ok(())
}

/// Efficient cube-ordering check: recursively verifies that within every
/// subcube level the chain's members of each half form one contiguous
/// block. O(m · n).
///
/// Returns `Ok(())` or the index of the first element that breaks
/// contiguity.
pub fn check_cube_ordered(chain: &[NodeId], n: u8) -> Result<(), usize> {
    if chain.len() <= 2 {
        // Any chain of ≤ 2 distinct addresses is trivially cube-ordered.
        return check_duplicates(chain);
    }
    check_duplicates(chain)?;
    check_rec(chain, 0, Subcube::whole(n))
}

fn check_duplicates(chain: &[NodeId]) -> Result<(), usize> {
    // Cube-ordered chains must have distinct elements (they are address
    // sequences); duplicates would also break the recursion below.
    let mut sorted: Vec<NodeId> = chain.to_vec();
    sorted.sort_unstable();
    if sorted.windows(2).any(|w| w[0] == w[1]) {
        // Identify one duplicate index for the error.
        for (i, &v) in chain.iter().enumerate() {
            if chain[..i].contains(&v) {
                return Err(i);
            }
        }
    }
    Ok(())
}

fn check_rec(chain: &[NodeId], base: usize, s: Subcube) -> Result<(), usize> {
    if chain.len() <= 1 || s.dim == 0 {
        return Ok(());
    }
    // Split the segment into maximal runs by half membership; more than
    // one run per half means some subcube's members are not contiguous.
    let mut switches = 0usize;
    let mut split = chain.len();
    for i in 1..chain.len() {
        if s.high_half(chain[i]) != s.high_half(chain[i - 1]) {
            switches += 1;
            if switches == 1 {
                split = i;
            } else {
                return Err(base + i);
            }
        }
    }
    let (first, second) = chain.split_at(split);
    let (lo, hi) = s.halves();
    let first_cube = if s.high_half(first[0]) { hi } else { lo };
    check_rec(first, base, first_cube)?;
    if !second.is_empty() {
        let second_cube = if s.high_half(second[0]) { hi } else { lo };
        check_rec(second, base + split, second_cube)?;
    }
    Ok(())
}

/// `cube_center` from Figure 7: given a cube-ordered segment whose
/// elements all lie in one subcube of dimensionality `n_s`, returns the
/// index (relative to the segment) of the first element in the half *not*
/// containing the segment's first element — or `segment.len()` if the
/// entire segment lies in one half.
///
/// # Panics
/// If the segment is empty or `n_s == 0` with more than one element.
#[must_use]
pub fn cube_center(segment: &[NodeId], n_s: u8) -> usize {
    assert!(
        !segment.is_empty(),
        "cube_center requires a non-empty segment"
    );
    if segment.len() == 1 {
        return 1;
    }
    assert!(
        n_s >= 1,
        "multiple nodes cannot share a 0-dimensional subcube"
    );
    let enclosing = Subcube::new(n_s, segment[0].0 >> n_s);
    let h0 = enclosing.high_half(segment[0]);
    segment
        .iter()
        .position(|&v| enclosing.high_half(v) != h0)
        .unwrap_or(segment.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn paper_dimension_order_examples() {
        // High-to-low resolution: 00110 <_d 10010 <_d 10100.
        let r = Resolution::HighToLow;
        assert!(dim_lt(r, 5, NodeId(0b00110), NodeId(0b10010)));
        assert!(dim_lt(r, 5, NodeId(0b10010), NodeId(0b10100)));
        // Low-to-high resolution: 10100 <_d 10010 <_d 00110.
        let r = Resolution::LowToHigh;
        assert!(dim_lt(r, 5, NodeId(0b10100), NodeId(0b10010)));
        assert!(dim_lt(r, 5, NodeId(0b10010), NodeId(0b00110)));
    }

    #[test]
    fn relative_chain_of_figure_5() {
        // Source 0100, destinations of Figure 5; expected Φ from the paper.
        let dests = ids(&[
            0b0001, 0b0011, 0b0101, 0b0111, 0b1000, 0b1010, 0b1011, 0b1111,
        ]);
        let chain = relative_chain(Resolution::HighToLow, 4, NodeId(0b0100), &dests).unwrap();
        assert_eq!(
            chain,
            ids(&[0b0000, 0b0001, 0b0011, 0b0101, 0b0111, 0b1011, 0b1100, 0b1110, 0b1111])
        );
        // Physical addresses round-trip through from_relative.
        for &rel in &chain[1..] {
            let phys = from_relative(Resolution::HighToLow, 4, NodeId(0b0100), rel);
            assert!(dests.contains(&phys));
        }
        assert_eq!(
            from_relative(Resolution::HighToLow, 4, NodeId(0b0100), NodeId(0)),
            NodeId(0b0100)
        );
    }

    #[test]
    fn relative_chain_rejects_duplicates_and_source() {
        let r = Resolution::HighToLow;
        assert_eq!(
            relative_chain(r, 4, NodeId(2), &ids(&[5, 5])),
            Err(HcubeError::DuplicateAddress { node: NodeId(5) })
        );
        assert_eq!(
            relative_chain(r, 4, NodeId(2), &ids(&[2])),
            Err(HcubeError::DuplicateAddress { node: NodeId(2) })
        );
    }

    #[test]
    fn dimension_ordered_is_cube_ordered() {
        // Theorem 4 on an explicit instance (the Figure 8 chain).
        let d = ids(&[0, 1, 3, 5, 7, 11, 12, 14, 15]);
        assert!(is_dimension_ordered(&d));
        assert_eq!(check_cube_ordered(&d, 4), Ok(()));
        assert_eq!(check_cube_ordered_naive(&d), Ok(()));
    }

    #[test]
    fn weighted_figure_8_chain_is_cube_ordered_but_not_dimension_ordered() {
        let d = ids(&[0, 1, 3, 5, 7, 14, 15, 12, 11]);
        assert!(!is_dimension_ordered(&d));
        assert_eq!(check_cube_ordered(&d, 4), Ok(()));
        assert_eq!(check_cube_ordered_naive(&d), Ok(()));
    }

    #[test]
    fn non_cube_ordered_chain_is_rejected() {
        // 0 and 3 share subcube {0..3} but 8 interrupts them.
        let d = ids(&[0, 8, 3]);
        assert!(check_cube_ordered(&d, 4).is_err());
        assert!(check_cube_ordered_naive(&d).is_err());
    }

    #[test]
    fn fast_and_naive_checks_agree_on_small_chains() {
        // Exhaustive over all permutations of a 5-element set in a 3-cube.
        let base = [0u32, 1, 3, 6, 7];
        let mut perm = base;
        // Heap's algorithm, iterative.
        let mut c = [0usize; 5];
        let check = |p: &[u32; 5]| {
            let chain = ids(p);
            assert_eq!(
                check_cube_ordered(&chain, 3).is_ok(),
                check_cube_ordered_naive(&chain).is_ok(),
                "disagree on {p:?}"
            );
        };
        check(&perm);
        let mut i = 0;
        while i < 5 {
            if c[i] < i {
                if i % 2 == 0 {
                    perm.swap(0, i);
                } else {
                    perm.swap(c[i], i);
                }
                check(&perm);
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn duplicates_fail_cube_ordering() {
        let d = ids(&[0, 5, 5]);
        assert!(check_cube_ordered(&d, 3).is_err());
    }

    #[test]
    fn cube_center_matches_figure_7_description() {
        // Segment {11, 12, 14, 15} within subcube (3, 1): halves are
        // {8..11} and {12..15}; first element 11 is in the low half, so the
        // center is the index of 12.
        let seg = ids(&[11, 12, 14, 15]);
        assert_eq!(cube_center(&seg, 3), 1);
        // All in one half ⇒ segment length ("last + 1").
        let seg = ids(&[12, 14, 15]);
        assert_eq!(cube_center(&seg, 3), 3);
        // Singleton.
        assert_eq!(cube_center(&ids(&[9]), 3), 1);
    }

    #[test]
    fn cube_center_of_whole_chain() {
        let d = ids(&[0, 1, 3, 5, 7, 11, 12, 14, 15]);
        // Halves of the 4-cube: {0..7} (5 elements) then {8..15}.
        assert_eq!(cube_center(&d, 4), 5);
    }
}
