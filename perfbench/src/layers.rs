//! Per-layer probes, run by every traced run.
//!
//! Each probe times calls into one layer's public functions from outside
//! and reads the fields those calls return (`OocReport`,
//! `StrassenReport`, `JobReport`, the serve `stats` reply) and the
//! global metrics registry. The library gets no new tracing or knob.
//! Timings are medians of a few repetitions; counts are exact.
//!
//! The n = 1024 f64 product is timed at five layers — packed
//! micro-kernel, one whole-matrix 5-loop tile on one thread, the tile
//! scheduler on nproc threads, a served request, and out-of-core at a
//! 5× undersized budget — and the adjacent ratios form the waterfall.
//! Its in-core stage is compared with the same product's rate measured
//! apart from the probes.

use std::path::Path;
use std::time::Instant;

use mmc_bench::Setting;
use multicore_matmul::core::{algorithms::SharedOpt, formulas, ProblemSpec};
use multicore_matmul::exec::kernel::{self, pack, packed, KernelVariant};
use multicore_matmul::exec::{
    blocking, gemm_naive, gemm_parallel, gemm_parallel_with_plan, BlockMatrix, BlockMatrixOf,
    Element, Tiling,
};
use multicore_matmul::lu::{exec::diagonally_dominant, lu_factor_parallel, residual};
use multicore_matmul::obs::{global, span};
use multicore_matmul::ooc::{ooc_multiply, ooc_verify, OocOpts, OocReport};
use multicore_matmul::sim::{choose_algorithm, CostEnv, MachineConfig};
use multicore_matmul::strassen::morton::{MortonLayout, MortonMatrix};
use multicore_matmul::strassen::{
    comparison_tolerance, strassen_multiply, StrassenOpts, DEFAULT_CUTOFF,
};
use serde::Value;

use crate::gen::Rng;
use crate::incore::{exec_tiling, LU_PANEL};
use crate::ooc::{budget, OocFiles, OPERAND_BYTES};
use crate::report::obj;
use crate::serve::{mem_job, Client, ServeMix};
use crate::stats::{median, slope};
use crate::{host, sim, tracer, Workload};

/// What the probes measured.
pub struct Probes {
    /// Per-layer metric values.
    pub values: Vec<(&'static str, f64)>,
    /// Checks that failed.
    pub failures: Vec<String>,
    /// Checks made.
    pub checks: u64,
    /// The n = 1024 waterfall, stage by stage.
    pub waterfall: Value,
}

#[derive(Default)]
struct Acc {
    values: Vec<(&'static str, f64)>,
    failures: Vec<String>,
    checks: u64,
}

impl Acc {
    fn set(&mut self, name: &'static str, v: f64) {
        self.values.push((name, v));
    }

    fn check(&mut self, what: &str, r: Result<(), String>) {
        self.checks += 1;
        if let Err(e) = r {
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

const MIB: f64 = 1024.0 * 1024.0;
const N1024_FLOPS: f64 = 2.0 * 1024.0 * 1024.0 * 1024.0;

/// Median seconds of `reps` calls of `f`, each in a span named `name`.
fn med_secs<R>(reps: usize, name: &'static str, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| tracer::timed(name, &mut f).1).collect();
    median(&times)
}

/// Median over `segments` of the per-call seconds of `calls` calls.
fn per_call_secs(segments: usize, calls: usize, name: &'static str, mut f: impl FnMut()) -> f64 {
    med_secs(segments, name, || {
        for _ in 0..calls {
            f();
        }
    }) / calls as f64
}

fn registry(name: &str) -> u64 {
    global().counter(name).get()
}

/// Flops per second of the packed micro-kernel on one `q = 64` block
/// with pre-packed, cache-resident `KC`-deep panels.
fn kernel_rate<T: Element>(rng: &mut Rng) -> f64 {
    let q = 64;
    let kb = (blocking::active_plan::<T>().kc / q).max(1) as u32;
    let kc = kb as usize * q;
    let a = BlockMatrixOf::<T>::pseudo_random(1, kb, q, rng.next_u64());
    let b = BlockMatrixOf::<T>::pseudo_random(kb, 1, q, rng.next_u64());
    let (mut ap, mut bp) = (Vec::new(), Vec::new());
    pack::pack_a_panel(&mut ap, &a, 0, 1, 0, kb);
    pack::pack_b_panel(&mut bp, &b, 0, 1, 0, kb);
    let mut c = vec![T::ZERO; q * q];
    let v = kernel::variant();
    let secs = per_call_secs(5, 400, "kernel", || {
        packed::block_mul_packed(v, &mut c, q, kc, &ap, &bp);
        std::hint::black_box(&mut c);
    });
    2.0 * (q * q * kc) as f64 / secs
}

/// Dispatched over scalar `block_fma` rate on `q = 64` f64 blocks.
fn simd_speedup(rng: &mut Rng) -> f64 {
    let q = 64;
    let a = BlockMatrix::pseudo_random(1, 1, q, rng.next_u64());
    let b = BlockMatrix::pseudo_random(1, 1, q, rng.next_u64());
    let mut c = vec![0.0; q * q];
    let mut time = |v: KernelVariant| {
        per_call_secs(3, 200, "kernel", || {
            kernel::block_fma_with(v, &mut c, a.data(), b.data(), q);
            std::hint::black_box(&mut c);
        })
    };
    let scalar = time(KernelVariant::Scalar);
    scalar / time(kernel::variant())
}

fn kernel_and_pack(acc: &mut Acc, rng: &mut Rng, a: &BlockMatrix, b: &BlockMatrix) -> f64 {
    let k64 = kernel_rate::<f64>(rng);
    acc.set("kernel.gflops_f64", k64 / 1e9);
    acc.set("kernel.gflops_f32", kernel_rate::<f32>(rng) / 1e9);
    acc.set("kernel.simd_speedup", simd_speedup(rng));

    // Pack A and B panels at the active plan's MC×KC and KC×NC sizes.
    let plan = blocking::active_plan::<f64>();
    let blocks = |elems: usize| ((elems / 64).max(1) as u32).min(16);
    let (th, kb, tw) = (blocks(plan.mc), blocks(plan.kc), blocks(plan.nc));
    let (mut ap, mut bp) = (Vec::new(), Vec::new());
    let secs = per_call_secs(5, 20, "pack", || {
        pack::pack_a_panel(&mut ap, a, 0, th, 0, kb);
        pack::pack_b_panel(&mut bp, b, 0, tw, 0, kb);
    });
    acc.set("pack.gbs", ((ap.len() + bp.len()) * 8) as f64 / secs / 1e9);

    let v = kernel::variant();
    let (p0, f0) = (registry("exec.pack_bytes"), registry(&format!("exec.flops.{}", v.name())));
    let c = gemm_parallel(a, b, exec_tiling());
    let (p1, f1) = (registry("exec.pack_bytes"), registry(&format!("exec.flops.{}", v.name())));
    acc.set("pack.bytes_per_flop", (p1 - p0) as f64 / (f1 - f0).max(1) as f64);
    std::hint::black_box(c);
    k64
}

/// `[1-thread whole-matrix tile, default scheduler]` flops per second of
/// `a·b`, both checked against `want`.
fn macro_and_sched(
    acc: &mut Acc,
    a: &BlockMatrix,
    b: &BlockMatrix,
    want: &BlockMatrix,
) -> [f64; 2] {
    let flops = 2.0 * (a.rows() as f64 * a.q() as f64).powi(3);
    let whole = Tiling { tile_m: a.rows(), tile_n: b.cols(), tile_k: a.cols() };
    let plan = blocking::active_plan::<f64>();
    let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("1-thread pool");
    let mut c1 = None;
    let t1 = med_secs(5, "macro", || {
        c1 = Some(one.install(|| gemm_parallel_with_plan(a, b, whole, kernel::variant(), plan)))
    });
    let mut cn = None;
    let tn = med_secs(5, "sched", || cn = Some(gemm_parallel(a, b, exec_tiling())));
    acc.check("macro product", crate::check::exact(c1.as_ref().expect("ran"), want));
    acc.check("sched product", crate::check::exact(cn.as_ref().expect("ran"), want));
    [flops / t1, flops / tn]
}

fn sched_extras(acc: &mut Acc, rng: &mut Rng, a: &BlockMatrix, b: &BlockMatrix) {
    let nproc = host::nproc() as u32;
    let t = exec_tiling();
    let split = Tiling { tile_m: a.rows().div_ceil(nproc), tile_n: b.cols(), tile_k: t.tile_k };
    acc.set(
        "sched.gflops_rowsplit",
        N1024_FLOPS / med_secs(5, "sched", || gemm_parallel(a, b, split)) / 1e9,
    );

    let a8 = BlockMatrix::pseudo_random(8, 8, 64, rng.next_u64());
    let b8 = BlockMatrix::pseudo_random(8, 8, 64, rng.next_u64());
    let [r1, rn] = macro_and_sched(acc, &a8, &b8, &gemm_naive(&a8, &b8));
    acc.set("sched.parallel_eff_n512", rn / (nproc as f64 * r1));

    // Tasks per call at each incore shape, from the registry (exact).
    let tiles = format!("exec.tiles.{}", kernel::variant().name());
    let tasks = |f: &mut dyn FnMut()| {
        let t0 = registry(&tiles);
        f();
        (registry(&tiles) - t0) as f64
    };
    let (ar, br) = (
        BlockMatrix::pseudo_random(10, 13, 50, rng.next_u64()),
        BlockMatrix::pseudo_random(13, 7, 50, rng.next_u64()),
    );
    let (a32, b32) = (
        BlockMatrixOf::<f32>::pseudo_random(16, 16, 64, rng.next_u64()),
        BlockMatrixOf::<f32>::pseudo_random(16, 16, 64, rng.next_u64()),
    );
    let n512 = tasks(&mut || drop(gemm_parallel(&a8, &b8, t)));
    let n1024 = tasks(&mut || drop(gemm_parallel(a, b, t)));
    let ragged = tasks(&mut || drop(gemm_parallel(&ar, &br, t)));
    let f32n = tasks(&mut || drop(gemm_parallel(&a32, &b32, t)));
    acc.set("sched.tasks.f64_n512", n512);
    acc.set("sched.tasks.f64_n1024", n1024);
    acc.set("sched.tasks.f64_ragged", ragged);
    acc.set("sched.tasks.f32_n1024", f32n);

    let (a1, b1) = (BlockMatrix::pseudo_random(1, 1, 8, 1), BlockMatrix::pseudo_random(1, 1, 8, 2));
    let floor =
        per_call_secs(5, 400, "sched", || drop(std::hint::black_box(gemm_parallel(&a1, &b1, t))));
    acc.set("sched.call_floor_us", floor * 1e6);

    // The library's own span recorder off and on, same product.
    let was = span::enabled();
    let mut off = Vec::new();
    let mut on = Vec::new();
    for _ in 0..3 {
        span::set_enabled(false);
        off.push(tracer::timed("sched", || gemm_parallel(a, b, t)).1);
        span::set_enabled(true);
        on.push(tracer::timed("sched", || gemm_parallel(a, b, t)).1);
    }
    span::set_enabled(was);
    acc.set("trace.overhead_frac", median(&on) / median(&off) - 1.0);
}

fn strassen_probe(
    acc: &mut Acc,
    rng: &mut Rng,
    a: &BlockMatrix,
    b: &BlockMatrix,
    want: &BlockMatrix,
    classic_s: f64,
) {
    let t = exec_tiling();
    let opts = StrassenOpts {
        cutoff: DEFAULT_CUTOFF,
        variant: kernel::variant(),
        plan: blocking::active_plan::<f64>(),
        tiling: t,
    };
    let mut out = None;
    let ts = med_secs(5, "strassen", || out = Some(strassen_multiply(a, b, &opts)));
    let (c, report) = out.expect("ran");
    let tol = comparison_tolerance(a, b, &report, f64::EPSILON / 2.0);
    let err = c.max_abs_diff(want);
    acc.check(
        "strassen tolerance",
        if err <= tol { Ok(()) } else { Err(format!("{err:e} > {tol:e}")) },
    );
    acc.set("strassen.gflops_eff", N1024_FLOPS / ts / 1e9);
    acc.set("strassen.workspace_mib", report.workspace_bytes as f64 / MIB);
    let layout = MortonLayout::for_shape(a.rows(), b.cols(), a.cols(), DEFAULT_CUTOFF, a.q());
    let tm = med_secs(5, "morton", || {
        let ma = MortonMatrix::from_blocks(a, layout);
        let mb = MortonMatrix::from_blocks(b, layout);
        let mc = MortonMatrix::<f64>::zeros(layout, a.rows(), b.cols()).to_blocks();
        (ma, mb, mc)
    });
    acc.set("strassen.morton_share", tm / ts);

    // Time of the model's pick over the faster of the two at the two
    // square incore shapes, with `mmc exec --algo auto`'s cost model; the
    // metric is the worse of the two.
    let env = CostEnv::for_machine(
        &MachineConfig::quad_q32(),
        t.tile_m as u64,
        t.tile_k as u64,
        t.tile_n as u64,
    );
    let a8 = BlockMatrix::pseudo_random(8, 8, 64, rng.next_u64());
    let b8 = BlockMatrix::pseudo_random(8, 8, 64, rng.next_u64());
    let c8 = med_secs(5, "sched", || gemm_parallel(&a8, &b8, t));
    let s8 = med_secs(5, "strassen", || strassen_multiply(&a8, &b8, &opts));
    let regret = |order: u64, c: f64, s: f64| {
        let pick = choose_algorithm(order, 64, u64::from(DEFAULT_CUTOFF), &env);
        (if pick.use_strassen { s } else { c }) / c.min(s)
    };
    acc.set("algo.choice_regret", regret(8, c8, s8).max(regret(16, classic_s, ts)));
}

fn lu_probe(acc: &mut Acc, rng: &mut Rng, gemm_rate: f64) {
    let input = diagonally_dominant(16, 64, rng.next_u64());
    let mut out = input.clone();
    let t = med_secs(5, "lu", || {
        out = input.clone();
        lu_factor_parallel(&mut out, LU_PANEL)
    });
    let r = residual(&out, &input);
    acc.check("lu residual", if r < 1e-10 { Ok(()) } else { Err(format!("{r:e}")) });
    let rate = 2.0 / 3.0 * 1024f64.powi(3) / t;
    acc.set("lu.gflops", rate / 1e9);
    acc.set("lu.over_gemm", rate / gemm_rate);
}

/// Returns the out-of-core flops per second at the 5× budget.
fn ooc_probe(acc: &mut Acc, rng: &mut Rng, dir: &Path, incore_rate: f64) -> Result<f64, String> {
    let files = OocFiles::write(dir, "probe", crate::ooc::ORDER, crate::ooc::Q, rng)?;
    let out = dir.join("probe_c.tiled");
    let opts = OocOpts::new(budget(5));
    let mut reports: Vec<OocReport> = Vec::new();
    for _ in 0..3 {
        let (r, _) = tracer::timed("ooc", || ooc_multiply(&files.a, &files.b, &out, &opts));
        reports.push(r.map_err(|e| format!("ooc_multiply: {e}"))?);
        acc.check("ooc product", files.check_output(&out));
    }
    acc.check(
        "ooc_verify",
        match ooc_verify(&files.a, &files.b, &out, kernel::variant(), &opts.machine) {
            Ok(0) => Ok(()),
            Ok(n) => Err(format!("{n} elements differ")),
            Err(e) => Err(e.to_string()),
        },
    );
    reports.sort_by(|x, y| x.elapsed_seconds.total_cmp(&y.elapsed_seconds));
    let r = &reports[1];
    let p = &r.prefetch;
    acc.check(
        "ooc within budget",
        if r.within_budget { Ok(()) } else { Err("over budget".into()) },
    );
    acc.set("ooc.compute_frac", r.compute_seconds / r.elapsed_seconds);
    acc.set("ooc.stall_s", p.stall_seconds);
    acc.set("ooc.read_mibps", p.bytes_read as f64 / MIB / p.io_seconds.max(1e-9));
    acc.set("ooc.bytes_read", p.bytes_read as f64);
    acc.set("ooc.read_over_operands", p.bytes_read as f64 / (2 * OPERAND_BYTES) as f64);
    acc.set("ooc.accumulate_calls", r.compute_spans.len() as f64);
    acc.set("ooc.peak_over_budget", r.peak_resident_bytes as f64 / r.budget_bytes as f64);
    let rate = N1024_FLOPS / r.elapsed_seconds;
    acc.set("ooc.over_incore", rate / incore_rate);
    Ok(rate)
}

/// Returns the served n = 1024 product's flops per second (submit to
/// wait reply).
fn serve_probe(acc: &mut Acc, rng: &mut Rng, dir: &Path) -> Result<f64, String> {
    let w = ServeMix::setup(rng.next_u64(), dir)?;
    let result = serve_probe_on(acc, rng, &w);
    w.finish();
    result
}

/// Per-job execution times (`JobReport.elapsed_seconds`) by class, and
/// reply latency minus execution time.
#[derive(Default)]
struct ServedLog {
    exec: Vec<(&'static str, f64)>,
    waits: Vec<f64>,
}

impl ServedLog {
    /// Run one job; returns its reply latency, seconds.
    fn run(&mut self, w: &ServeMix, c: &mut Client, job: &crate::serve::Job, acc: &mut Acc) -> f64 {
        let t = Instant::now();
        let r = w.submit_wait(c, job, 0);
        let total = t.elapsed().as_secs_f64();
        let r = r.and_then(|report| w.check(job, 0, &report).map(|()| report));
        let e = r.as_ref().ok().and_then(|rep| rep.get("elapsed_seconds")).and_then(Value::as_f64);
        acc.check(job.class(), r.map(drop));
        if let Some(e) = e {
            self.exec.push((job.class(), e));
            self.waits.push(total - e);
        }
        total
    }

    fn exec_of(&self, class: &str) -> Vec<f64> {
        self.exec.iter().filter(|(k, _)| *k == class).map(|&(_, e)| e).collect()
    }
}

fn serve_probe_on(acc: &mut Acc, rng: &mut Rng, w: &ServeMix) -> Result<f64, String> {
    let mut c = Client::connect(w.addr())?;
    let rtt = med_secs(21, "serve.stats", || c.call(r#"{"cmd":"stats"}"#));
    acc.set("serve.rtt_ms", rtt * 1e3);

    let mut log = ServedLog::default();
    for job in &w.catalog {
        log.run(w, &mut c, job, acc);
    }
    for (class, name) in [
        ("tiny", "serve.exec_ms.tiny"),
        ("order8", "serve.exec_ms.order8"),
        ("strassen", "serve.exec_ms.strassen"),
        ("ooc", "serve.exec_ms.ooc"),
    ] {
        acc.set(name, median(&log.exec_of(class)) * 1e3);
    }
    // Served over direct: the same order-8 spec through the same call
    // the server makes, on inputs generated the same way.
    if let Some(crate::serve::Job::Mem { m, n, z, q, seed_a, seed_b, .. }) =
        w.catalog.iter().find(|j| j.class() == "order8").cloned()
    {
        let direct =
            med_secs(5, "sched", || crate::serve::direct(m, n, z, q, seed_a, seed_b, false));
        acc.set("serve.exec_over_direct", median(&log.exec_of("order8")) / direct);
    }

    // Slope of this process's RSS over sequential tiny jobs.
    let tiny = w.catalog[0].clone();
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for i in 0..30 {
        log.run(w, &mut c, &tiny, acc);
        xs.push(f64::from(i));
        ys.push(host::rss_kib() as f64);
    }
    acc.set("serve.rss_kib_per_job", slope(&xs, &ys));

    let big = mem_job(16, 16, 16, 64, rng, false)?;
    let served = median(&[log.run(w, &mut c, &big, acc), log.run(w, &mut c, &big, acc)]);
    acc.set("serve.wait_ms", median(&log.waits) * 1e3);
    let stats = c.call(r#"{"cmd":"stats"}"#)?;
    let field = |k: &str| {
        stats
            .get("stats")
            .and_then(|s| s.get(k))
            .and_then(Value::as_f64)
            .ok_or(format!("stats reply has no {k}"))
    };
    acc.set("serve.ram_peak_frac", field("ram_peak_bytes")? / field("ram_budget_bytes")?);
    Ok(N1024_FLOPS / served)
}

fn sim_probe(acc: &mut Acc) -> Result<(), String> {
    let machine = MachineConfig::quad_q32();
    let d = 120;
    let problem = ProblemSpec::square(d);
    let run = |s: Setting| {
        let (r, secs) =
            tracer::timed("sim", || mmc_bench::simulate(&SharedOpt, &machine, s, problem));
        r.map(|st| (st, secs)).map_err(|e| format!("simulate: {e}"))
    };
    let (lru, t_lru) = run(Setting::LruAt(1))?;
    let (lru2, _) = run(Setting::LruAt(1))?;
    let (ideal, t_ideal) = run(Setting::Ideal)?;
    acc.set("sim.block_fmas_per_s_lru", lru.total_fmas() as f64 / t_lru);
    acc.set("sim.block_fmas_per_s_ideal", ideal.total_fmas() as f64 / t_ideal);
    acc.set("sim.ms", ideal.ms() as f64);
    acc.set("sim.md", ideal.md() as f64);
    acc.check(
        "sim LRU repeat",
        if (lru.ms(), lru.md()) == (lru2.ms(), lru2.md()) { Ok(()) } else { Err("differs".into()) },
    );
    // Fig. 4's closed form is for M_S; M_D is recorded as counted.
    let f = formulas::shared_opt(&problem, &machine).ok_or("no closed form")?;
    acc.check(
        "sim ideal closed form",
        if ideal.ms() as f64 == f.ms {
            Ok(())
        } else {
            Err(format!("M_S {} vs formula {}", ideal.ms(), f.ms))
        },
    );

    let mut serial = None;
    let ts = med_secs(3, "harness", || serial = Some(sim::figure_at(d, &sim::harness(true))));
    let mut sharded = None;
    let tp = med_secs(3, "harness", || sharded = Some(sim::figure_at(d, &sim::harness(false))));
    let (vs, vp) =
        (sim::values(&serial.expect("ran")?, d)?, sim::values(&sharded.expect("ran")?, d)?);
    acc.check(
        "harness serial == sharded",
        if vs == vp { Ok(()) } else { Err(format!("{vs:?} vs {vp:?}")) },
    );
    acc.set("harness.parallel_eff", ts / (host::nproc() as f64 * tp));
    Ok(())
}

/// Run every probe. Fails only if a probe could not run at all; wrong
/// results are counted in [`Probes::failures`]. `measured` is the f64
/// n = 1024 rate the workload's untraced rounds measured, if it runs
/// that product; otherwise the product is repeated after the probes,
/// checked as the `incore` loop checks it, for the waterfall to be
/// compared with.
pub fn probe_all(seed: u64, dir: &Path, measured: Option<f64>) -> Result<Probes, String> {
    let mut acc = Acc::default();
    let mut rng = Rng::new(seed, "layers");
    let a = BlockMatrix::pseudo_random(16, 16, 64, rng.next_u64());
    let b = BlockMatrix::pseudo_random(16, 16, 64, rng.next_u64());
    let want = gemm_naive(&a, &b);

    let k = kernel_and_pack(&mut acc, &mut rng, &a, &b);
    let [m, s] = macro_and_sched(&mut acc, &a, &b, &want);
    acc.set("macro.gflops_1t", m / 1e9);
    acc.set("macro.over_kernel", m / k);
    acc.set("sched.gflops_nt", s / 1e9);
    acc.set("sched.parallel_eff", s / (host::nproc() as f64 * m));
    sched_extras(&mut acc, &mut rng, &a, &b);
    strassen_probe(&mut acc, &mut rng, &a, &b, &want, N1024_FLOPS / s);
    lu_probe(&mut acc, &mut rng, s);
    let o = ooc_probe(&mut acc, &mut rng, dir, s)?;
    let v = serve_probe(&mut acc, &mut rng, dir)?;
    sim_probe(&mut acc)?;

    let stages = [("kernel", k), ("macro_1t", m), ("sched_nt", s), ("served", v), ("ooc_5x", o)];
    acc.set("waterfall.sched_over_macro", s / m);
    acc.set("waterfall.served_gflops", v / 1e9);
    acc.set("waterfall.served_over_sched", v / s);
    acc.set("waterfall.ooc_gflops", o / 1e9);
    acc.set("waterfall.ooc_over_served", o / v);
    let (measured, source) = match measured {
        Some(rate) => (rate, "incore loop: untraced f64_n1024 operations"),
        None => {
            let mut times = Vec::new();
            for _ in 0..5 {
                let (c, dt) = tracer::timed("sched", || gemm_parallel(&a, &b, exec_tiling()));
                acc.check("repeated n1024 product", crate::check::exact(&c, &want));
                times.push(dt);
            }
            (N1024_FLOPS / median(&times), "repeat of the product after the probes")
        }
    };
    // Kernel rate times the kernel → macro and macro → sched ratios is the
    // waterfall's in-core rate; it should match the rate measured apart.
    let incore = k * (m / k) * (s / m);
    acc.set("waterfall.incore_over_measured", incore / measured);
    let rows = stages
        .iter()
        .enumerate()
        .map(|(i, &(name, rate))| {
            let ratio = if i == 0 { Value::Null } else { Value::Float(rate / stages[i - 1].1) };
            obj(vec![
                ("stage", Value::Str(name.into())),
                ("gflops", Value::Float(rate / 1e9)),
                ("over_previous", ratio),
            ])
        })
        .collect();
    let waterfall = obj(vec![
        ("product", Value::Str("f64 n=1024 (16x16 blocks, q=64)".into())),
        ("stages", Value::Array(rows)),
        ("incore_kernel_times_ratios_gflops", Value::Float(incore / 1e9)),
        ("measured_incore_gflops", Value::Float(measured / 1e9)),
        ("measured_source", Value::Str(source.into())),
    ]);
    Ok(Probes { values: acc.values, failures: acc.failures, checks: acc.checks, waterfall })
}
