//! `incore`: one caller, closed loop, over a fixed mix of in-memory
//! products and an LU factorisation, all through the entry points
//! `mmc exec` and `mmc lu` use (`gemm_parallel` under the paper's
//! Tradeoff tiling for the `q32` preset; `lu_factor_parallel`).

use multicore_matmul::exec::{gemm_naive, gemm_parallel, BlockMatrix, BlockMatrixOf, Tiling};
use multicore_matmul::lu::{exec::diagonally_dominant, lu_factor_parallel, residual};
use multicore_matmul::sim::MachineConfig;

use crate::check::{self, OpLog};
use crate::gen::{shuffled_round, Rng};
use crate::stats::median;
use crate::tracer;
use crate::Workload;
use std::path::Path;
use std::sync::Mutex;

/// Name of the f64 n = 1024 class, the product the waterfall follows.
const N1024: &str = "f64_n1024";

/// Panel width of the LU factorisation (the `mmc lu` default).
pub const LU_PANEL: u32 = 8;

/// The tiling `mmc exec` runs by default: Tradeoff on the `q32` preset.
pub fn exec_tiling() -> Tiling {
    Tiling::tradeoff(&MachineConfig::quad_q32()).expect("Tradeoff is feasible on the q32 preset")
}

enum Inputs {
    F64 { a: BlockMatrix, b: BlockMatrix, want: BlockMatrix },
    F32 { a: BlockMatrixOf<f32>, b: BlockMatrixOf<f32>, want: BlockMatrix, bound: f64 },
    Lu { input: BlockMatrix, want: BlockMatrix },
}

/// One operation class of the mix.
pub struct Class {
    /// Short name, as in the report.
    pub name: &'static str,
    /// Classic flop count: `2·m·n·z·q³`, or `⅔·n³` for LU.
    pub flops: f64,
    inputs: Inputs,
}

/// Copies per round of each class, in set-up order (f64 n512, f64 n1024,
/// ragged, f32 n1024, LU). The two slowest classes, f64 n1024 and LU
/// (about 80 ms each on the reference host, a 2-vCPU Xeon), are kept to
/// about 3% of operations, so the tail percentile (p99, about 13 samples
/// beyond it in a 30-second run) falls near the middle of their
/// latencies. At a larger share it falls on their slowest tenth, which
/// moved by a third between sets of runs as contention on the shared host
/// came and went. Their share of loop time is about 10% and 5%; the
/// other three take about 28% each.
const PER_ROUND: [usize; 5] = [48, 2, 48, 12, 1];

/// `seconds`' worth of shuffled rounds of the mix, as class indices.
pub fn plan(seed: u64, seconds: u64) -> Vec<Vec<usize>> {
    let mut rng = Rng::new(seed, "incore.order");
    let rounds = ((seconds as f64 / ROUND_S).round() as usize).max(1);
    (0..rounds).map(|_| shuffled_round(&mut rng, &PER_ROUND)).collect()
}

/// Generated inputs and references for the `incore` mix.
pub struct Incore {
    /// The classes, in a fixed order.
    pub classes: Vec<Class>,
    /// `gemm_parallel`'s tiling.
    pub tiling: Tiling,
    /// Seconds of each checked f64 n = 1024 product run with the
    /// benchmark's spans off.
    n1024_secs: Mutex<Vec<f64>>,
}

fn widen(m: &BlockMatrixOf<f32>) -> BlockMatrix {
    BlockMatrix::from_vec(
        m.rows(),
        m.cols(),
        m.q(),
        m.data().iter().map(|&x| f64::from(x)).collect(),
    )
}

fn max_abs(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |m, x| m.max(x.abs()))
}

fn product(name: &'static str, (m, n, z, q): (u32, u32, u32, usize), seeds: &[u64]) -> Class {
    let a = BlockMatrix::pseudo_random(m, z, q, seeds[0]);
    let b = BlockMatrix::pseudo_random(z, n, q, seeds[1]);
    let want = gemm_naive(&a, &b);
    let flops = 2.0 * f64::from(m) * f64::from(n) * f64::from(z) * (q as f64).powi(3);
    Class { name, flops, inputs: Inputs::F64 { a, b, want } }
}

fn f32_product(seeds: &[u64]) -> Class {
    let a = BlockMatrixOf::<f32>::pseudo_random(16, 16, 64, seeds[0]);
    let b = BlockMatrixOf::<f32>::pseudo_random(16, 16, 64, seeds[1]);
    let (a64, b64) = (widen(&a), widen(&b));
    let bound = check::f32_bound(1024, max_abs(a64.data()), max_abs(b64.data()));
    Class {
        name: "f32_n1024",
        flops: 2.0 * 1024f64.powi(3),
        inputs: Inputs::F32 { want: gemm_naive(&a64, &b64), a, b, bound },
    }
}

fn lu(seed: u64) -> Result<Class, String> {
    let input = diagonally_dominant(16, 64, seed);
    let mut want = input.clone();
    lu_factor_parallel(&mut want, LU_PANEL).map_err(|e| format!("reference LU: {e}"))?;
    let r = residual(&want, &input);
    if r.is_nan() || r >= 1e-10 {
        return Err(format!("reference LU residual {r:e} is not below 1e-10"));
    }
    Ok(Class {
        name: "lu_n1024",
        flops: 2.0 / 3.0 * 1024f64.powi(3),
        inputs: Inputs::Lu { input, want },
    })
}

/// Seconds of `--seconds` per round. A round takes about 1.7 s on the
/// reference host; the rest of its slot is think time, which also takes
/// up the timed set-ups and slow spells of the host.
const ROUND_S: f64 = 2.4;

impl Workload for Incore {
    type Op = usize;

    /// Generate every input and reference for `seed`. References come
    /// from `gemm_naive` (block-at-a-time, no packing, no tiling), and the
    /// LU reference is accepted only if its residual is below 1e-10.
    fn setup(seed: u64, _dir: &Path) -> Result<Incore, String> {
        let mut rng = Rng::new(seed, "incore");
        let s: [u64; 9] = std::array::from_fn(|_| rng.next_u64());
        let classes = vec![
            product("f64_n512", (8, 8, 8, 64), &s[0..2]),
            product(N1024, (16, 16, 16, 64), &s[2..4]),
            // Ragged: q = 50 is a multiple of neither MR = 6 nor NR = 8.
            product("f64_ragged_10x7x13_q50", (10, 7, 13, 50), &s[4..6]),
            f32_product(&s[6..8]),
            lu(s[8])?,
        ];
        Ok(Incore { classes, tiling: exec_tiling(), n1024_secs: Mutex::new(Vec::new()) })
    }

    fn plan(&self, seed: u64, seconds: u64) -> Vec<Vec<usize>> {
        plan(seed, seconds)
    }

    /// Run the operations of `plan` back to back, checking each.
    fn run(&self, plan: &[usize], log: &mut OpLog) {
        for &ci in plan {
            let class = &self.classes[ci];
            tracer::begin_op();
            let _op = tracer::span("op.incore");
            let (secs, verdict) = match &class.inputs {
                Inputs::F64 { a, b, want } => {
                    let (c, dt) = tracer::timed("sched", || gemm_parallel(a, b, self.tiling));
                    (dt, check::exact(&c, want))
                }
                Inputs::F32 { a, b, want, bound } => {
                    let (c, dt) = tracer::timed("sched", || gemm_parallel(a, b, self.tiling));
                    (dt, check::within(&c, want, *bound))
                }
                Inputs::Lu { input, want } => {
                    let mut m = input.clone();
                    let (r, dt) = tracer::timed("lu", || lu_factor_parallel(&mut m, LU_PANEL));
                    let verdict = match r {
                        Ok(()) => check::exact(&m, want),
                        Err(e) => Err(format!("LU failed: {e}")),
                    };
                    (dt, verdict)
                }
            };
            if class.name == N1024 && verdict.is_ok() && !tracer::enabled() {
                self.n1024_secs.lock().expect("n1024 times poisoned").push(secs);
            }
            log.record(secs, class.flops, verdict.map_err(|e| format!("{}: {e}", class.name)));
        }
    }

    fn n1024_rate(&self) -> Option<f64> {
        let secs = self.n1024_secs.lock().expect("n1024 times poisoned");
        (!secs.is_empty()).then(|| 2.0 * 1024f64.powi(3) / median(&secs))
    }
}
