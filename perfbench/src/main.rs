//! Layered benchmark of the multicore-matmul library.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload incore|serve_mix|sim_figures \
//!     --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- compare A.json B.json
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with the benchmark's own spans off; `--trace 1` runs the
//! workload with spans on, probes every layer and prints the per-layer
//! metrics. The last line of standard output is the result object; the
//! line before it is the full report, also written under `.bench_out/`.
//! See `perfbench/README.md` for what each workload and metric means.

mod check;
mod gen;
mod host;
mod incore;
mod layers;
mod ooc;
mod report;
mod serve;
mod sim;
mod stats;
mod tracer;

use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

use serde::Value;

use check::OpLog;
use report::{obj, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: perfbench --workload incore|serve_mix|sim_figures \
                     --seed N --seconds S --trace 0|1\n       perfbench compare A.json B.json";

/// Where results and traces go, relative to the repository root.
const OUT_DIR: &str = ".bench_out";
/// Scratch files (`.tiled` operands and outputs), removed at exit.
const WORK_DIR: &str = ".bench_work";

/// The loop runs in `PARTS` equal parts, each after one timed set-up;
/// `setup_s` is the median of them, so it samples the host across the
/// run as the loop does. On the shared reference host, the time a set-up
/// takes swings by up to 2× with spells of contention that last seconds,
/// so many set-ups spread thinly over the run give a steadier median
/// than a few bunched together. The untimed first set-up builds the
/// state the loop runs on, which keeps process start-up (page faults,
/// lazy statics) out of the figure.
const PARTS: usize = 15;

/// Rounds never start after this much loop time, so a run on a slow
/// tree still ends well inside its time limit.
const LOOP_DEADLINE_S: f64 = 120.0;

/// Parsed command line of a run.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|_| format!("{flag}: not a number: {val:?}"));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {val:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// The workloads, as `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["incore", "serve_mix", "sim_figures"];

/// One benchmark workload: seeded set-up, a plan of rounds, and a
/// closed-loop run over a slice of them.
pub trait Workload: Sized {
    /// One operation of the plan.
    type Op;
    /// Generate inputs and references from `seed`; scratch files go in `dir`.
    fn setup(seed: u64, dir: &Path) -> Result<Self, String>;
    /// The rounds of a run lasting about `seconds` on the reference host.
    /// The count is fixed per `seconds`, so every run does the same work.
    fn plan(&self, seed: u64, seconds: u64) -> Vec<Vec<Self::Op>>;
    /// Run `ops` closed loop, checking each result into `log`. For a
    /// single caller `log.busy_s` is the sum of operation latencies; a
    /// workload with concurrent callers sets it to the loop's wall time.
    fn run(&self, ops: &[Self::Op], log: &mut OpLog);
    /// Release what set-up started (servers); default nothing.
    fn finish(self) {}
    /// Flops per second of the f64 n = 1024 product as this workload's
    /// untraced rounds measured it, if the workload runs that product.
    fn n1024_rate(&self) -> Option<f64> {
        None
    }
}

/// A directory removed (with its contents) when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(workload: &str) -> Result<ScratchDir, String> {
        let p = Path::new(WORK_DIR).join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&p).map_err(|e| format!("create {}: {e}", p.display()))?;
        Ok(ScratchDir(p))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

/// Time one more set-up, then release it.
fn time_setup<W: Workload>(seed: u64, dir: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let extra = W::setup(seed, dir)?;
    let secs = t.elapsed().as_secs_f64();
    extra.finish();
    Ok(secs)
}

/// Per-round figures and operation logs of one run, kept apart for
/// rounds run with the benchmark's spans off (`[0]`) and on (`[1]`).
#[derive(Default)]
struct Halves {
    logs: [OpLog; 2],
    /// Each round's `(flops, busy seconds, succeeded operations)`.
    per_round: [Vec<[f64; 3]>; 2],
}

/// Run `rounds`, the rounds numbered from `first` of a loop that started
/// at `t0`, closed loop: round `i` starts no earlier than `i · slot`
/// seconds after `t0`, and none starts past the deadline. Rounds that
/// finish early leave the caller idle until the next slot (think time),
/// so a workload whose round count is capped still samples the host over
/// the whole run. With `trace`, odd-numbered rounds run with the
/// benchmark's spans on and even ones with them off, so both sides of
/// the tracing-overhead comparison sample the same host conditions.
fn run_rounds<W: Workload>(
    w: &W,
    rounds: &[Vec<W::Op>],
    first: usize,
    (t0, slot, trace): (Instant, f64, bool),
    out: &mut Halves,
) {
    for (i, round) in rounds.iter().enumerate() {
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed > LOOP_DEADLINE_S {
            eprintln!("perfbench: loop deadline reached; remaining rounds skipped");
            break;
        }
        let start = (first + i) as f64 * slot;
        if start > elapsed {
            std::thread::sleep(std::time::Duration::from_secs_f64(start - elapsed));
        }
        let traced = usize::from(trace && (first + i) % 2 == 1);
        tracer::set_enabled(traced == 1);
        let log = &mut out.logs[traced];
        let before = (log.flops, log.busy_s, log.succeeded());
        w.run(round, log);
        out.per_round[traced].push([
            log.flops - before.0,
            log.busy_s - before.1,
            (log.succeeded() - before.2) as f64,
        ]);
    }
    tracer::set_enabled(false);
}

/// Median over rounds of `x / busy seconds`, where `x` is the round's
/// flops (`i = 0`) or succeeded operations (`i = 2`). Rounds have a fixed
/// composition, so the median discards rounds slowed by interference
/// from outside the process without biasing the mix.
fn round_rate(per_round: &[[f64; 3]], i: usize) -> f64 {
    let rates: Vec<f64> = per_round.iter().map(|r| r[i] / r[1].max(1e-9)).collect();
    stats::median(&rates)
}

/// The end-to-end metrics of one untraced loop, plus report details.
fn end_to_end(
    log: &OpLog,
    per_round: &[[f64; 3]],
    (setup_s, peak_rss_kib): (f64, u64),
) -> (Vec<(&'static str, f64)>, Value) {
    let tail = stats::tail(&log.latencies_s, 10);
    let busy = log.busy_s.max(1e-9);
    let values = vec![
        ("gflops", round_rate(per_round, 0) / 1e9),
        ("ops_per_s", round_rate(per_round, 2)),
        ("latency_p50_ms", stats::median(&log.latencies_s) * 1e3),
        ("latency_tail_ms", tail.value * 1e3),
        ("peak_rss_mib", peak_rss_kib as f64 / 1024.0),
        ("setup_s", setup_s),
    ];
    let detail = obj(vec![
        ("latency_tail_percentile", Value::Float(tail.percentile)),
        ("latency_tail_beyond", Value::UInt(tail.beyond as u64)),
        ("latency_samples", Value::UInt(tail.samples as u64)),
        ("failed_frac", Value::Float(log.failed_frac())),
        ("loop_seconds", Value::Float(log.busy_s)),
        ("mean_gflops", Value::Float(log.flops / busy / 1e9)),
        ("mean_ops_per_s", Value::Float(log.succeeded() as f64 / busy)),
        ("failures", Value::Array(log.failures.iter().cloned().map(Value::Str).collect())),
    ]);
    (values, detail)
}

/// What one run produced, before printing.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    detail: Vec<(&'static str, Value)>,
}

fn bench<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let dir = ScratchDir::new(&args.workload)?;
    let w = W::setup(args.seed, &dir.0)?;
    let rounds = w.plan(args.seed, args.seconds);
    let slot = args.seconds as f64 / rounds.len().max(1) as f64;
    let part = rounds.len().div_ceil(PARTS).max(1);
    let mut halves = Halves::default();
    let mut setup_times = Vec::with_capacity(PARTS);
    // The peak resident set of each part of the loop alone: the count
    // restarts after the timed set-up before it has been released, so
    // the benchmark's own extra copies of the inputs never enter it.
    let mut part_peaks_kib = Vec::with_capacity(PARTS);
    let mut peak_reset = true;
    let t0 = Instant::now();
    for k in 0..PARTS {
        setup_times.push(time_setup::<W>(args.seed, &dir.0)?);
        let chunk = rounds.get(k * part..).unwrap_or_default();
        let chunk = &chunk[..part.min(chunk.len())];
        if chunk.is_empty() {
            continue;
        }
        peak_reset &= host::reset_peak_rss();
        run_rounds(&w, chunk, k * part, (t0, slot, args.trace), &mut halves);
        part_peaks_kib.push(host::peak_rss_kib());
    }
    let setup_s = stats::median(&setup_times);
    let peak_rss_kib = part_peaks_kib.iter().copied().max().unwrap_or(0);
    let Halves { logs: [off, on], per_round } = halves;
    let mut out = if !args.trace {
        let (metrics, detail) = end_to_end(&off, &per_round[0], (setup_s, peak_rss_kib));
        Outcome {
            correct: off.failed == 0,
            attempted: off.attempted,
            failed: off.failed,
            metrics,
            detail: vec![("end_to_end_detail", detail)],
        }
    } else {
        let overhead = if per_round[1].is_empty() {
            0.0
        } else {
            round_rate(&per_round[0], 2) / round_rate(&per_round[1], 2) - 1.0
        };
        let measured = w.n1024_rate();
        tracer::set_enabled(true);
        let probes = layers::probe_all(args.seed, &dir.0, measured)?;
        tracer::set_enabled(false);
        let spans = tracer::take();
        write_file(
            &format!("{}-seed{}.trace.json", args.workload, args.seed),
            &tracer::chrome(&spans, &format!("perfbench {}", args.workload)),
        );
        let table = tracer::layer_table(&spans);
        let mut metrics = probes.values;
        metrics.push(("bench.trace_overhead_frac", overhead));
        let layer_rows = table
            .iter()
            .map(|r| {
                obj(vec![
                    ("layer", Value::Str(r.name.to_string())),
                    ("calls", Value::UInt(r.calls)),
                    ("busy_s", Value::Float(r.busy_s)),
                    ("self_s", Value::Float(r.self_s)),
                ])
            })
            .collect();
        let mut log = off;
        log.merge(on);
        Outcome {
            correct: log.failed == 0 && probes.failures.is_empty(),
            attempted: log.attempted + probes.checks,
            failed: log.failed + probes.failures.len() as u64,
            metrics,
            detail: vec![
                ("layer_table", Value::Array(layer_rows)),
                ("waterfall", probes.waterfall),
                (
                    "probe_failures",
                    Value::Array(probes.failures.into_iter().map(Value::Str).collect()),
                ),
                (
                    "workload_failures",
                    Value::Array(log.failures.into_iter().map(Value::Str).collect()),
                ),
            ],
        }
    };
    out.detail
        .push(("setup_times_s", Value::Array(setup_times.into_iter().map(Value::Float).collect())));
    out.detail.push(("rounds", Value::UInt(rounds.len() as u64)));
    out.detail.push((
        "part_peak_rss_kib",
        Value::Array(part_peaks_kib.into_iter().map(Value::UInt).collect()),
    ));
    out.detail.push(("part_peak_rss_reset", Value::Bool(peak_reset)));
    w.finish();
    Ok(out)
}

fn write_file(name: &str, text: &str) {
    let path = Path::new(OUT_DIR).join(name);
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn run(args: &Args) -> Result<(), String> {
    let out = match args.workload.as_str() {
        "incore" => bench::<incore::Incore>(args)?,
        "serve_mix" => bench::<serve::ServeMix>(args)?,
        "sim_figures" => bench::<sim::SimFigures>(args)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = report::metrics_object(defs, &out.metrics)?;
    let mut full = vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::UInt(args.seed)),
        ("seconds", Value::UInt(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("fingerprint", host::fingerprint()),
        ("correct", Value::Bool(out.correct)),
        ("attempted", Value::UInt(out.attempted)),
        ("failed", Value::UInt(out.failed)),
        ("metrics", metrics.clone()),
        ("moves", obj(defs.iter().map(|d| (d.name, Value::Str(d.moves.to_string()))).collect())),
    ];
    full.extend(out.detail);
    let full = serde_json::to_string(&obj(full)).expect("report serialises");
    write_file(
        &format!("{}-seed{}-trace{}.json", args.workload, args.seed, u8::from(args.trace)),
        &full,
    );
    println!("{full}");
    println!("{}", report::result_line(out.correct, out.attempted, out.failed, metrics));
    Ok(())
}

/// `compare A B`: per-metric ratios of two saved reports, refused when
/// their host fingerprints differ.
fn compare(paths: &[String]) -> Result<(), String> {
    let [a, b] = paths else { return Err(USAGE.into()) };
    let load = |p: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (ra, rb) = (load(a)?, load(b)?);
    let host = |r: &Value| {
        r.get("fingerprint")
            .and_then(|f| f.get("host"))
            .map(|h| serde_json::to_string(h).unwrap_or_default())
    };
    match (host(&ra), host(&rb)) {
        (Some(ha), Some(hb)) if ha == hb => {}
        (ha, hb) => {
            return Err(format!(
                "refusing to compare results from different hosts:\n  {a}: {}\n  {b}: {}",
                ha.unwrap_or_else(|| "no fingerprint".into()),
                hb.unwrap_or_else(|| "no fingerprint".into())
            ))
        }
    }
    if ra.get("workload").and_then(Value::as_str) != rb.get("workload").and_then(Value::as_str) {
        return Err("refusing to compare different workloads".into());
    }
    let metrics =
        |r: &Value| r.get("metrics").and_then(Value::as_object).cloned().unwrap_or_default();
    let mb = metrics(&rb);
    println!("{:<32} {:>14} {:>14} {:>9}", "metric", "A", "B", "B/A");
    for (name, va) in metrics(&ra) {
        let val = |v: &Value| v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let Some((_, vb)) = mb.iter().find(|(n, _)| *n == name) else { continue };
        let (x, y) = (val(&va), val(vb));
        let better = report::def(&name).map_or("", |d| d.better);
        println!("{name:<32} {x:>14.6} {y:>14.6} {:>9.4} ({better} is better)", y / x);
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("compare") {
        compare(&argv[1..])
    } else {
        match parse_args(&argv) {
            Ok(args) => run(&args),
            Err(e) => {
                eprintln!("perfbench: {e}\n{USAGE}");
                exit(2);
            }
        }
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv("--workload incore --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("incore", 7, 10, true));
    }

    #[test]
    fn the_generator_is_deterministic_per_seed() {
        assert_eq!(incore::plan(3, 20), incore::plan(3, 20));
        assert_ne!(incore::plan(3, 20), incore::plan(4, 20));
        assert_eq!(serve::plan(3, 20), serve::plan(3, 20));
        assert_ne!(serve::plan(3, 20), serve::plan(4, 20));
        assert_eq!(sim::plan(3, 20), sim::plan(3, 20));
        assert_ne!(sim::plan(3, 20), sim::plan(4, 20));
        let catalog = |seed| serve::catalog(&mut gen::Rng::new(seed, "serve_mix")).unwrap();
        assert_eq!(catalog(3), catalog(3));
        assert_ne!(catalog(3), catalog(4));
    }

    #[test]
    fn one_seed_writes_identical_files() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../.bench_work/gen-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |tag, seed| {
            let f = ooc::OocFiles::write(&dir, tag, 2, 8, &mut gen::Rng::new(seed, "t")).unwrap();
            (std::fs::read(&f.a).unwrap(), std::fs::read(&f.b).unwrap(), f.want)
        };
        let (a1, b1, c1) = write("x", 9);
        let (a2, b2, c2) = write("y", 9);
        let (a3, _, _) = write("z", 10);
        assert!(a1 == a2 && b1 == b2 && c1 == c2);
        assert_ne!(a1, a3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compare_refuses_reports_from_different_hosts() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../.bench_work/compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let report = |name: &str, nproc: u64| {
            let mut fp = host::fingerprint();
            if let Value::Object(fields) = &mut fp {
                fields[0].1 = obj(vec![("nproc", Value::UInt(nproc))]);
            }
            let r = obj(vec![
                ("workload", Value::Str("incore".into())),
                ("fingerprint", fp),
                ("metrics", metrics_for_test()),
            ]);
            let p = dir.join(name);
            std::fs::write(&p, serde_json::to_string(&r).unwrap()).unwrap();
            p.to_string_lossy().into_owned()
        };
        let (a, b, c) = (report("a.json", 2), report("b.json", 2), report("c.json", 4));
        assert!(compare(&[a.clone(), b]).is_ok());
        assert!(compare(&[a, c]).unwrap_err().contains("different hosts"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn metrics_for_test() -> Value {
        report::metrics_object(&END_TO_END[..1], &[("gflops", 1.0)]).unwrap()
    }

    /// Records each op's value as its flops.
    struct Rounds;

    impl Workload for Rounds {
        type Op = u32;
        fn setup(_: u64, _: &Path) -> Result<Rounds, String> {
            Ok(Rounds)
        }
        fn plan(&self, _: u64, _: u64) -> Vec<Vec<u32>> {
            (0..6).map(|i| vec![i]).collect()
        }
        fn run(&self, ops: &[u32], log: &mut OpLog) {
            for &op in ops {
                log.record(0.0, f64::from(op), Ok(()));
            }
        }
    }

    #[test]
    fn traced_and_untraced_rounds_alternate() {
        let rounds = Rounds.plan(0, 0);
        let flops = |h: &Halves, i: usize| h.per_round[i].iter().map(|r| r[0]).collect::<Vec<_>>();
        let mut h = Halves::default();
        run_rounds(&Rounds, &rounds[..3], 0, (Instant::now(), 0.0, true), &mut h);
        run_rounds(&Rounds, &rounds[3..], 3, (Instant::now(), 0.0, true), &mut h);
        assert_eq!((flops(&h, 0), flops(&h, 1)), (vec![0.0, 2.0, 4.0], vec![1.0, 3.0, 5.0]));
        let mut h = Halves::default();
        run_rounds(&Rounds, &rounds, 0, (Instant::now(), 0.0, false), &mut h);
        assert_eq!((h.per_round[0].len(), h.logs[1].attempted), (6, 0));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload incore --seconds 1 --trace 0",
            "--workload incore --seed x --seconds 1 --trace 0",
            "--workload incore --seed 1 --seconds 1 --trace 2",
            "--workload incore --seed 1 --seconds 1 --bogus 0",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
