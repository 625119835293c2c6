//! Separate addressing: the naive baseline in which the source sends one
//! unicast per destination (Section 2's first strawman).
//!
//! On a one-port node the `m` sends serialize into `m` steps; on an
//! all-port node destinations sharing a first channel still serialize per
//! port, so the step count is the maximum number of destinations behind
//! any single channel.

use crate::schedule::SendPlan;

/// Builds the separate-addressing plan: the source transmits directly to
/// every chain position, in chain order.
pub(crate) fn separate_plan(chain_len: usize) -> SendPlan {
    let mut plan = SendPlan::with_capacity(chain_len.saturating_sub(1));
    for d in 1..chain_len {
        plan.push(0, d);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sends_from_source() {
        let plan = separate_plan(5).nested(5);
        assert_eq!(plan[0], vec![1, 2, 3, 4]);
        assert!(plan[1..].iter().all(|v| v.is_empty()));
    }

    #[test]
    fn no_destinations() {
        assert_eq!(separate_plan(1).nested(1), vec![Vec::<usize>::new()]);
    }
}
