//! Executor metrics: per-kernel FLOP counters and panel-pack traffic,
//! registered in the process-wide [`mmc_obs`] registry.
//!
//! Counter names are stable API (the `mmc counters` subcommand and the
//! golden reconciliation tests key on them):
//!
//! * `exec.flops.<variant>` — useful FLOPs retired through the tiled
//!   executors (`gemm_parallel*`, `gemm_accumulate`), counted as
//!   `2·q³` per block FMA and bumped **once per tile** so the hot loop
//!   pays one relaxed atomic add per task, not per block.
//! * `exec.flops.schedule` — FLOPs retired by the exact schedule
//!   replayer ([`crate::ExecSink`]), counted per `fma` event.
//! * `exec.tiles.<variant>` — tasks (tiles, or tile strips when tiles
//!   are cut across threads) completed per kernel variant.
//! * `exec.pack_bytes` — bytes written into packing arenas by
//!   [`crate::kernel::pack::pack_a_panel`] / `pack_b_panel`: the real
//!   memory traffic the packed path adds in exchange for contiguous
//!   micro-panel streams.

use crate::kernel::KernelVariant;
use mmc_obs::{global, Counter};
use std::sync::{Arc, OnceLock};

/// The `exec.flops.<variant>` counter for `variant`, cached after first
/// lookup so the tile loop never touches the registry mutex.
pub fn flops(variant: KernelVariant) -> &'static Counter {
    static FLOPS: OnceLock<[Arc<Counter>; 3]> = OnceLock::new();
    &FLOPS.get_or_init(|| {
        [
            global().counter("exec.flops.scalar"),
            global().counter("exec.flops.avx2_fma"),
            global().counter("exec.flops.neon"),
        ]
    })[variant_index(variant)]
}

/// The `exec.tiles.<variant>` counter for `variant`.
pub fn tiles(variant: KernelVariant) -> &'static Counter {
    static TILES: OnceLock<[Arc<Counter>; 3]> = OnceLock::new();
    &TILES.get_or_init(|| {
        [
            global().counter("exec.tiles.scalar"),
            global().counter("exec.tiles.avx2_fma"),
            global().counter("exec.tiles.neon"),
        ]
    })[variant_index(variant)]
}

/// The `exec.flops.schedule` counter (exact schedule replay).
pub fn schedule_flops() -> &'static Counter {
    static SCHEDULE: OnceLock<Arc<Counter>> = OnceLock::new();
    SCHEDULE.get_or_init(|| global().counter("exec.flops.schedule"))
}

/// The `exec.pack_bytes` counter (panel-packing arena traffic).
pub fn pack_bytes() -> &'static Counter {
    static PACK: OnceLock<Arc<Counter>> = OnceLock::new();
    PACK.get_or_init(|| global().counter("exec.pack_bytes"))
}

/// Total `exec.flops.*` across every kernel variant plus the schedule
/// replayer, read from a snapshot of the global registry.
pub fn total_flops_snapshot() -> u64 {
    mmc_obs::global()
        .snapshot()
        .counters
        .iter()
        .filter(|c| c.name.starts_with("exec.flops."))
        .map(|c| c.value)
        .sum()
}

fn variant_index(variant: KernelVariant) -> usize {
    match variant {
        KernelVariant::Scalar => 0,
        KernelVariant::Avx2Fma => 1,
        KernelVariant::Neon => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_cached_and_shared() {
        let before = flops(KernelVariant::Scalar).get();
        flops(KernelVariant::Scalar).add(10);
        assert_eq!(flops(KernelVariant::Scalar).get(), before + 10);
        // The cached Arc and a fresh registry lookup see the same metric.
        assert_eq!(global().counter("exec.flops.scalar").get(), before + 10);
    }
}
