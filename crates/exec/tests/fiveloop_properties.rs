//! Property tests for the 5-loop macro-kernel executor.
//!
//! The load-bearing invariant: the blocking plan is a *performance*
//! parameter, never a *semantics* parameter. For any shape (ragged
//! included), any kernel variant, and any pair of plans, the products
//! are bit-identical — the plan moves macro-loop (panel) boundaries,
//! while each `C` element's accumulation stays one multiply-accumulate
//! per ascending `k` step regardless of where the panels cut.

use mmc_exec::{
    gemm_accumulate, gemm_naive, gemm_parallel_with_kernel, gemm_parallel_with_plan, kernel,
    BlockMatrix, BlockMatrixOf, BlockingPlan, Tiling,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// f64: every available variant, ragged shapes, random tilings and
    /// random plans — all plans produce the same bits as the degenerate
    /// one-block-per-step plan.
    #[test]
    fn plan_never_changes_f64_bits(
        m in 1u32..7,
        n in 1u32..7,
        z in 1u32..9,
        q in 1usize..14,
        tm in 1u32..5,
        tn in 1u32..5,
        tk in 1u32..5,
        mc in 1usize..40,
        kc in 1usize..40,
        nc in 1usize..40,
    ) {
        let a = BlockMatrix::pseudo_random(m, z, q, 71);
        let b = BlockMatrix::pseudo_random(z, n, q, 72);
        let tiling = Tiling { tile_m: tm, tile_n: tn, tile_k: tk };
        for v in kernel::variants_available() {
            let baseline =
                gemm_parallel_with_plan(&a, &b, tiling, v, BlockingPlan { mc: 1, kc: 1, nc: 1 });
            let c = gemm_parallel_with_plan(&a, &b, tiling, v, BlockingPlan { mc, kc, nc });
            prop_assert_eq!(&c, &baseline, "variant {} plan {}/{}/{}", v, mc, kc, nc);
        }
    }

    /// f32: the same plan invariance holds for the narrow element type.
    #[test]
    fn plan_never_changes_f32_bits(
        m in 1u32..6,
        n in 1u32..6,
        z in 1u32..8,
        q in 1usize..20,
        mc in 1usize..50,
        kc in 1usize..50,
        nc in 1usize..50,
    ) {
        let a = BlockMatrixOf::<f32>::pseudo_random(m, z, q, 81);
        let b = BlockMatrixOf::<f32>::pseudo_random(z, n, q, 82);
        let tiling = Tiling { tile_m: 3, tile_n: 2, tile_k: 2 };
        for v in kernel::variants_available() {
            let baseline =
                gemm_parallel_with_plan(&a, &b, tiling, v, BlockingPlan { mc: 1, kc: 1, nc: 1 });
            let c = gemm_parallel_with_plan(&a, &b, tiling, v, BlockingPlan { mc, kc, nc });
            prop_assert_eq!(&c, &baseline, "variant {} plan {}/{}/{}", v, mc, kc, nc);
        }
    }

    /// f32 executors track the f64 oracle of the same pseudo-random
    /// stream to single-precision accuracy: `pseudo_random::<f32>`
    /// narrows the exact f64 values, so the products differ only by f32
    /// rounding — bounded well under 1e-3 for these magnitudes (inputs
    /// in [0,1), dot products of length ≤ `z·q` ≤ 133).
    #[test]
    fn f32_product_stays_within_f32_rounding_of_f64(
        m in 1u32..5,
        n in 1u32..5,
        z in 1u32..7,
        q in 1usize..20,
    ) {
        let a64 = BlockMatrix::pseudo_random(m, z, q, 91);
        let b64 = BlockMatrix::pseudo_random(z, n, q, 92);
        let a32 = BlockMatrixOf::<f32>::pseudo_random(m, z, q, 91);
        let b32 = BlockMatrixOf::<f32>::pseudo_random(z, n, q, 92);
        let oracle = gemm_naive(&a64, &b64);
        let tiling = Tiling { tile_m: 2, tile_n: 3, tile_k: 3 };
        for v in kernel::variants_available() {
            let c = gemm_parallel_with_kernel(&a32, &b32, tiling, v);
            let mut worst = 0.0f64;
            for i in 0..m as usize * q {
                for j in 0..n as usize * q {
                    worst = worst.max((c.get(i, j) as f64 - oracle.get(i, j)).abs());
                }
            }
            prop_assert!(worst < 1e-3, "variant {} worst gap {}", v, worst);
        }
    }

    /// Tiles cut across threads: under 1–4-thread pools, ragged shapes
    /// whose tiling yields fewer tiles than threads — one whole-grid tile
    /// for the overwrite path, at most two row tiles for the accumulate
    /// path — stay `==` the naive oracle for every SIMD variant.
    #[test]
    fn tiles_cut_across_threads_match_the_oracle(
        threads in 1usize..5,
        m in 1u32..9,
        n in 1u32..9,
        z in 1u32..7,
        q in 1usize..14,
    ) {
        let a = BlockMatrix::pseudo_random(m, z, q, 101);
        let b = BlockMatrix::pseudo_random(z, n, q, 102);
        let oracle = gemm_naive(&a, &b);
        let whole = Tiling { tile_m: m, tile_n: n, tile_k: z };
        let halves = Tiling { tile_m: m.div_ceil(2), tile_n: n, tile_k: 2 };
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        for v in kernel::variants_available().into_iter().filter(|v| v.is_simd()) {
            let (c, acc) = pool.install(|| {
                let c = gemm_parallel_with_kernel(&a, &b, whole, v);
                let mut acc = BlockMatrix::zeros(m, n, q);
                gemm_accumulate(&mut acc, &a, &b, halves, v);
                (c, acc)
            });
            prop_assert_eq!(&c, &oracle, "variant {} on {} threads", v, threads);
            prop_assert_eq!(&acc, &oracle, "accumulate, variant {} on {} threads", v, threads);
        }
    }
}
