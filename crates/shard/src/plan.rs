//! Slot-to-shard placement.

use crate::ShardError;

/// Block-cyclic placement of backing-store slots across `shards` shards:
/// slot `i` lives on shard `(i / block) % shards`. Contiguous blocks keep
/// window scans and chunk folds touching few shards; cycling blocks keeps
/// load even as the stream appends monotonically increasing slots.
///
/// The plan is pure data — placement must be a deterministic function of
/// the slot index alone so every node (and a restarted node) computes the
/// same owner without coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of shards `S ≥ 1`.
    pub shards: usize,
    /// Slots per placement block (`≥ 1`).
    pub block: usize,
}

impl ShardPlan {
    /// Default placement-block size (one engine chunk's worth of slots).
    pub const DEFAULT_BLOCK: usize = 64;

    /// Largest shard count a plan accepts. The coordinator sends every log
    /// batch to every shard, so a count beyond this (a corrupt snapshot's)
    /// would stall the first broadcast rather than run.
    pub const MAX_SHARDS: usize = 1 << 16;

    /// Validate and build a plan: `1 ≤ shards ≤ MAX_SHARDS`, `block ≥ 1`.
    pub fn new(shards: usize, block: usize) -> Result<Self, ShardError> {
        if shards == 0 || shards > Self::MAX_SHARDS || block == 0 {
            return Err(ShardError::InvalidPlan { shards, block });
        }
        Ok(Self { shards, block })
    }

    /// The shard owning `slot`.
    #[inline]
    pub fn owner(&self, slot: usize) -> usize {
        (slot / self.block) % self.shards
    }

    /// Split `range` into maximal same-owner runs `(owner, start, end)`,
    /// in ascending slot order. Concatenating the runs reproduces the
    /// range exactly — this is what lets a chunk fold chain through the
    /// owning shards while still visiting slots in ascending order.
    pub fn segments(&self, range: std::ops::Range<usize>) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        let mut start = range.start;
        while start < range.end {
            let owner = self.owner(start);
            let mut end = ((start / self.block + 1) * self.block).min(range.end);
            // With a single shard (or blocks aligned to the same owner)
            // consecutive blocks coalesce into one run.
            while end < range.end && self.owner(end) == owner {
                end = ((end / self.block + 1) * self.block).min(range.end);
            }
            out.push((owner, start, end));
            start = end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_plans() {
        assert!(ShardPlan::new(0, 64).is_err());
        assert!(ShardPlan::new(2, 0).is_err());
        assert!(ShardPlan::new(1, 1).is_ok());
    }

    #[test]
    fn segments_partition_the_range_in_slot_order() {
        for shards in 1..5 {
            let plan = ShardPlan::new(shards, 8).unwrap();
            for (lo, hi) in [(0, 0), (0, 7), (3, 29), (8, 64), (5, 100)] {
                let segs = plan.segments(lo..hi);
                let mut pos = lo;
                for &(owner, start, end) in &segs {
                    assert_eq!(start, pos, "contiguous");
                    assert!(end > start, "non-empty");
                    for s in start..end {
                        assert_eq!(plan.owner(s), owner);
                    }
                    pos = end;
                }
                assert_eq!(pos, hi);
                // Maximal: adjacent segments have different owners.
                for pair in segs.windows(2) {
                    assert_ne!(pair[0].0, pair[1].0);
                }
            }
        }
    }

    #[test]
    fn single_shard_yields_one_segment() {
        let plan = ShardPlan::new(1, 64).unwrap();
        assert_eq!(plan.segments(0..1000), vec![(0, 0, 1000)]);
    }
}
