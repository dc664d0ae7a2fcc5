//! # mmc-exec — real execution of the paper's schedules
//!
//! While `mmc-sim` counts the cache misses of each schedule, this crate
//! *runs* them: dense block-major matrices generic over `f64`/`f32`
//! ([`BlockMatrix`] / [`BlockMatrixOf`]), a register-blocked `q×q`
//! micro-kernel subsystem with runtime CPU dispatch and panel packing
//! ([`kernel`]), analytic 5-loop blocking derived from the paper's cache
//! model ([`blocking`]), an exact schedule replayer ([`ExecSink`] /
//! [`run_schedule`]) and rayon-parallel tiled executors
//! ([`gemm_parallel`]) whose tilings come straight from the paper's
//! parameters (`λ`, `√p·µ`, `(α, β)`).
//!
//! Every path accumulates contributions in ascending `k` order with the
//! same dispatched kernel, so all executors produce bit-identical
//! results — across code paths *and* across blocking plans — and the
//! tests compare them with `==`. See [`kernel`] for the dispatch rules
//! and the `MMC_KERNEL` override, and [`blocking`] for `MMC_BLOCKING`.
//!
//! ```
//! use mmc_exec::{gemm_parallel, gemm_naive, BlockMatrix, Tiling};
//! use mmc_sim::MachineConfig;
//!
//! let machine = MachineConfig::quad_q32();
//! let a = BlockMatrix::pseudo_random(6, 4, 8, 1);
//! let b = BlockMatrix::pseudo_random(4, 5, 8, 2);
//! let c = gemm_parallel(&a, &b, Tiling::shared_opt(&machine).unwrap());
//! assert_eq!(c, gemm_naive(&a, &b));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blocking;
pub mod job;
pub mod kernel;
pub mod matrix;
pub mod metrics;
pub mod naive;
pub mod runner;
pub mod tracing;

pub use blocking::{parse_bytes, BlockingPlan};
pub use job::CancelToken;
pub use kernel::elem::Element;
pub use kernel::KernelVariant;
pub use matrix::{BlockMatrix, BlockMatrixOf};
pub use naive::gemm_naive;
/// The data-parallel pool the executor runs on, for callers that build
/// pools of their own (the serve daemon's job pool).
pub use rayon;
pub use runner::{
    gemm_accumulate, gemm_accumulate_cancellable, gemm_blocked, gemm_blocked_traced, gemm_parallel,
    gemm_parallel_cancellable, gemm_parallel_traced, gemm_parallel_with_kernel,
    gemm_parallel_with_plan, run_schedule, task_spans_to_chrome, ExecSink, TaskSpan, Tiling,
};
pub use tracing::{exec_drift, run_traced, spans_to_chrome, task_spans, ExecModel, TracedRun};
