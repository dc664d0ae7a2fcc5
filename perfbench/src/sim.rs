//! `sim_figures`: one caller regenerating the paper's Fig. 4 (LRU
//! against the closed form for Shared Opt's `M_S`) one matrix order at a
//! time through `run_figure_sharded`, with the on-disk cache off and
//! `jobs` = nproc. The simulator, the core algorithms and the points
//! runner do all the work; no executor, I/O or socket is involved.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;

use mmc_bench::{run_figure_sharded, simulate, HarnessOpts, Panel, Setting, SweepOpts};
use multicore_matmul::core::{algorithms::SharedOpt, formulas, ProblemSpec};
use multicore_matmul::sim::MachineConfig;

use crate::check::OpLog;
use crate::gen::Rng;
use crate::host;
use crate::tracer;
use crate::Workload;

/// The order sweep (blocks). Order 240 costs about a second per policy;
/// these cost well under that, so a run holds many figure points. An odd
/// count keeps the median latency inside one order's class.
pub const ORDERS: [u32; 7] = [40, 60, 80, 100, 120, 140, 160];

/// Orders that get a serial `simulate` reference in set-up.
const REFERENCE_ORDERS: [u32; 2] = [80, 100];

/// Block side of the `q32` preset Fig. 4 simulates.
const Q: f64 = 32.0;

/// One sweep over [`ORDERS`] takes about this long on the reference host
/// (a 2-vCPU Xeon).
const ROUND_S: f64 = 1.0;

/// Harness options: no cache, all cores.
pub fn harness(serial: bool) -> HarnessOpts {
    HarnessOpts { jobs: Some(host::nproc()), resume: false, cache_dir: None, serial }
}

/// Fig. 4 at one order.
pub fn figure_at(order: u32, h: &HarnessOpts) -> Result<Vec<Panel>, String> {
    let opts = SweepOpts { orders: Some(vec![order]), ..SweepOpts::default() };
    let (panels, report) = run_figure_sharded("fig4", &opts, h);
    if report.failed > 0 {
        return Err(format!("{} figure points failed: {:?}", report.failed, report.errors));
    }
    Ok(panels)
}

/// `[LRU (C), LRU (2C), Formula (C)]` values of the panel at `order`.
pub fn values(panels: &[Panel], order: u32) -> Result<[f64; 3], String> {
    let panel = panels.first().ok_or("figure produced no panel")?;
    let at = |i: usize| {
        panel
            .series
            .get(i)
            .and_then(|s| s.points.iter().find(|p| p.0 == f64::from(order)))
            .map(|p| p.1)
            .ok_or_else(|| format!("series {i} has no point at order {order}"))
    };
    Ok([at(0)?, at(1)?, at(2)?])
}

/// Sweeps over [`ORDERS`], each in a seeded order.
pub fn plan(seed: u64, seconds: u64) -> Vec<Vec<u32>> {
    let mut rng = Rng::new(seed, "sim_figures.order");
    let rounds = ((seconds as f64 / ROUND_S).round() as usize).max(1);
    (0..rounds)
        .map(|_| {
            let mut r = ORDERS.to_vec();
            rng.shuffle(&mut r);
            r
        })
        .collect()
}

/// Set-up state of `sim_figures`: the closed form at every order, and
/// serial `simulate` references at [`REFERENCE_ORDERS`].
pub struct SimFigures {
    formula: HashMap<u32, f64>,
    reference: HashMap<u32, [f64; 2]>,
    /// Values first seen in this run, which every later sweep must repeat.
    seen: Mutex<HashMap<u32, [f64; 3]>>,
}

impl Workload for SimFigures {
    type Op = u32;

    fn setup(_seed: u64, _dir: &Path) -> Result<SimFigures, String> {
        let machine = MachineConfig::quad_q32();
        let formula = ORDERS
            .iter()
            .map(|&d| {
                formulas::shared_opt(&ProblemSpec::square(d), &machine)
                    .map(|p| (d, p.ms))
                    .ok_or_else(|| format!("no closed form at order {d}"))
            })
            .collect::<Result<_, String>>()?;
        // The two cache settings run side by side, one thread each (the
        // two vCPUs of the reference host), as the loop's harness runs
        // nproc shards, so set-up does not hang on whichever one vCPU the
        // scheduler picks.
        let lru = |s: Setting| -> Result<Vec<f64>, String> {
            REFERENCE_ORDERS
                .iter()
                .map(|&d| {
                    simulate(&SharedOpt, &machine, s, ProblemSpec::square(d))
                        .map(|st| st.ms() as f64)
                        .map_err(|e| format!("simulate order {d}: {e}"))
                })
                .collect()
        };
        let (c1, c2) = std::thread::scope(|scope| {
            let c2 = scope.spawn(|| lru(Setting::LruAt(2)));
            (lru(Setting::LruAt(1)), c2.join().expect("reference thread panicked"))
        });
        let (c1, c2) = (c1?, c2?);
        let reference =
            (0..REFERENCE_ORDERS.len()).map(|i| (REFERENCE_ORDERS[i], [c1[i], c2[i]])).collect();
        Ok(SimFigures { formula, reference, seen: Mutex::new(HashMap::new()) })
    }

    fn plan(&self, seed: u64, seconds: u64) -> Vec<Vec<u32>> {
        plan(seed, seconds)
    }

    /// Each op is one figure column (two simulated points). Its values
    /// must equal the closed form where Fig. 4 plots one, the serial
    /// reference where set-up made one, and every earlier sweep.
    fn run(&self, orders: &[u32], log: &mut OpLog) {
        let h = harness(false);
        for &d in orders {
            tracer::begin_op();
            let _op = tracer::span("op.sim_figures");
            let (r, secs) = tracer::timed("harness", || figure_at(d, &h));
            let verdict = r.and_then(|p| values(&p, d)).and_then(|v| {
                if v[2] != self.formula[&d] {
                    return Err(format!(
                        "order {d}: formula {} != closed form {}",
                        v[2], self.formula[&d]
                    ));
                }
                if let Some(want) = self.reference.get(&d) {
                    if [v[0], v[1]] != *want {
                        return Err(format!(
                            "order {d}: LRU M_S {v:?} != serial simulate {want:?}"
                        ));
                    }
                }
                let mut seen = self.seen.lock().expect("seen map poisoned");
                let first = *seen.entry(d).or_insert(v);
                if first != v {
                    return Err(format!(
                        "order {d}: {v:?} differs from an earlier sweep {first:?}"
                    ));
                }
                Ok(())
            });
            // Two simulated d×d-block products of q = 32 blocks per column.
            log.record(secs, 2.0 * 2.0 * (f64::from(d) * Q).powi(3), verdict);
        }
    }
}
