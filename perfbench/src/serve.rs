//! `serve_mix`: an in-process `serve::Server` with its default config on
//! 127.0.0.1 and two client connections, each running `submit` → `wait`
//! closed loop over a seeded job sequence: mostly tiny classic jobs,
//! some order-8 jobs, some order-16 Strassen jobs and a few out-of-core
//! jobs over files written in set-up.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use multicore_matmul::exec::{blocking, gemm_parallel_with_plan, BlockMatrix};
use multicore_matmul::serve::{checksum_f64, default_tiling, serve_variant, ServeConfig, Server};
use multicore_matmul::strassen::{
    comparison_tolerance, strassen_multiply, StrassenOpts, DEFAULT_CUTOFF,
};
use serde::Value;

use crate::check::OpLog;
use crate::gen::{shuffled_round, Rng};
use crate::ooc::OocFiles;
use crate::tracer;
use crate::Workload;

/// Concurrent client connections (the host's `nproc`).
pub const CLIENTS: usize = 2;

/// Seconds of `--seconds` per round of 20 jobs. A round takes about a
/// second; the rest of its slot is think time. As the library stands, every job
/// leaks about 5 MiB of span rings, so the 200 jobs of a 30-second run
/// take the process to about 1.1 GiB.
const ROUND_S: f64 = 3.0;

/// Jobs per round of each class: tiny, order 8, Strassen, ooc. The
/// slowest class (ooc) is 10% of jobs, so the tail percentile (p95 at
/// 200 jobs) falls inside it rather than on a class boundary.
const ROUND: [usize; 4] = [13, 3, 2, 2];

/// Distinct specs per class in the catalog the rounds draw from.
const CATALOG: [usize; 4] = [12, 4, 2, 1];

/// Out-of-core operands: 8 × 8 blocks of side 64, streamed with a budget
/// 5× below their combined size.
const OOC_ORDER: u32 = 8;
const OOC_BUDGET: u64 = 2 * (OOC_ORDER as u64 * 64).pow(2) * 8 / 5;

/// A request the clients can submit, with what its reply must show.
#[derive(Clone, Debug, PartialEq)]
pub enum Job {
    /// An in-memory product the server generates from two seeds.
    Mem {
        /// Block rows of `A`.
        m: u32,
        /// Block columns of `B`.
        n: u32,
        /// Inner block dimension.
        z: u32,
        /// Block side.
        q: usize,
        /// Seed of `A`.
        seed_a: u64,
        /// Seed of `B`.
        seed_b: u64,
        /// `"algo":"strassen"` instead of classic.
        strassen: bool,
        /// `checksum_f64` of the direct-API product.
        checksum: u64,
    },
    /// A product of the set-up `.tiled` files.
    Ooc,
}

impl Job {
    /// Classic flop count.
    pub fn flops(&self) -> f64 {
        match *self {
            Job::Mem { m, n, z, q, .. } => {
                2.0 * f64::from(m) * f64::from(n) * f64::from(z) * (q as f64).powi(3)
            }
            Job::Ooc => 2.0 * (f64::from(OOC_ORDER) * 64.0).powi(3),
        }
    }

    /// Class name, as in the report.
    pub fn class(&self) -> &'static str {
        match self {
            Job::Mem { strassen: true, .. } => "strassen",
            Job::Mem { m, .. } if *m <= 4 => "tiny",
            Job::Mem { .. } => "order8",
            Job::Ooc => "ooc",
        }
    }
}

/// The direct-API result of a mem job, computed the way the server
/// computes it (same tiling, kernel variant and blocking plan).
pub fn direct(
    m: u32,
    n: u32,
    z: u32,
    q: usize,
    sa: u64,
    sb: u64,
    strassen: bool,
) -> Result<BlockMatrix, String> {
    let a = BlockMatrix::pseudo_random(m, z, q, sa);
    let b = BlockMatrix::pseudo_random(z, n, q, sb);
    let tiling = default_tiling(&ServeConfig::default().machine);
    let plan = blocking::active_plan::<f64>();
    let classic = gemm_parallel_with_plan(&a, &b, tiling, serve_variant(), plan);
    if !strassen {
        return Ok(classic);
    }
    let opts = StrassenOpts { cutoff: DEFAULT_CUTOFF, variant: serve_variant(), plan, tiling };
    let (c, report) = strassen_multiply(&a, &b, &opts);
    let tol = comparison_tolerance(&a, &b, &report, f64::EPSILON / 2.0);
    let err = c.max_abs_diff(&classic);
    if err <= tol {
        Ok(c)
    } else {
        Err(format!("direct Strassen differs from classic by {err:e} > {tol:e}"))
    }
}

/// Build a mem job and its expected checksum.
pub fn mem_job(
    m: u32,
    n: u32,
    z: u32,
    q: usize,
    rng: &mut Rng,
    strassen: bool,
) -> Result<Job, String> {
    let (seed_a, seed_b) = (rng.below(1 << 40), rng.below(1 << 40));
    let c = direct(m, n, z, q, seed_a, seed_b, strassen)?;
    Ok(Job::Mem { m, n, z, q, seed_a, seed_b, strassen, checksum: checksum_f64(c.data()) })
}

/// A blocking line-protocol client: one `write_all` per request line,
/// one line per reply.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        Ok(Client { reader: BufReader::new(s.try_clone().map_err(|e| e.to_string())?), writer: s })
    }

    /// Send one request line and parse the reply line.
    pub fn call(&mut self, request: &str) -> Result<Value, String> {
        let _s = tracer::span("serve.call");
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => serde_json::from_str(&line).map_err(|e| format!("bad reply {line:?}: {e}")),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// The job id of an accepted `submit`, or why it was refused.
pub fn accepted(reply: &Value) -> Result<u64, String> {
    if reply.get("ok").and_then(Value::as_bool) != Some(true) {
        let why = reply.get("error").and_then(Value::as_str).unwrap_or("no reason given");
        return Err(format!("submit refused: {why}"));
    }
    reply.get("job_id").and_then(Value::as_u64).ok_or_else(|| "submit reply has no job_id".into())
}

/// The report of a job that reached `done`, or why it did not.
pub fn done_report(reply: &Value) -> Result<&Value, String> {
    let state = reply.get("state").and_then(Value::as_str).unwrap_or("?");
    if reply.get("ok").and_then(Value::as_bool) != Some(true) || state != "done" {
        let why = reply.get("error").and_then(Value::as_str).unwrap_or("");
        return Err(format!("job ended in state {state:?} {why}"));
    }
    reply
        .get("report")
        .filter(|r| !matches!(r, Value::Null))
        .ok_or_else(|| "done reply has no report".into())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&Value::Str(s.to_string())).expect("string serialises")
}

/// Set-up state of `serve_mix`.
pub struct ServeMix {
    server: Server,
    /// Job catalog; a plan indexes into it.
    pub catalog: Vec<Job>,
    files: OocFiles,
    dir: PathBuf,
}

impl ServeMix {
    /// The submit request line of `job` for client `client`.
    fn submit_line(&self, job: &Job, client: usize) -> String {
        match job {
            Job::Mem { m, n, z, q, seed_a, seed_b, strassen, .. } => format!(
                r#"{{"cmd":"submit","kind":"mem","m":{m},"n":{n},"z":{z},"q":{q},"seed_a":{seed_a},"seed_b":{seed_b},"algo":"{}"}}"#,
                if *strassen { "strassen" } else { "classic" }
            ),
            Job::Ooc => format!(
                r#"{{"cmd":"submit","kind":"ooc","a":{},"b":{},"out":{},"mem_budget_bytes":{OOC_BUDGET},"io_threads":2}}"#,
                json_str(&self.files.a.to_string_lossy()),
                json_str(&self.files.b.to_string_lossy()),
                json_str(&self.out_path(client).to_string_lossy()),
            ),
        }
    }

    fn out_path(&self, client: usize) -> PathBuf {
        self.dir.join(format!("serve_c_{client}.tiled"))
    }

    /// Submit `job` and wait for it: the served round trip. Returns the
    /// job report of a job that reached `done`.
    pub fn submit_wait(&self, c: &mut Client, job: &Job, client: usize) -> Result<Value, String> {
        let id = accepted(&c.call(&self.submit_line(job, client))?)?;
        let reply = c.call(&format!(r#"{{"cmd":"wait","job_id":{id}}}"#))?;
        done_report(&reply).cloned()
    }

    /// Check a finished job's report (and, for ooc, its output file).
    pub fn check(&self, job: &Job, client: usize, report: &Value) -> Result<(), String> {
        match job {
            Job::Mem { checksum, .. } => {
                let got = report.get("checksum").and_then(Value::as_u64);
                if got != Some(*checksum) {
                    return Err(format!("checksum {got:?} != direct-API {checksum}"));
                }
            }
            Job::Ooc => {
                if report.get("within_budget").and_then(Value::as_bool) != Some(true) {
                    return Err("ooc job exceeded its budget".into());
                }
                self.files.check_output(&self.out_path(client))?;
            }
        }
        Ok(())
    }

    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

/// The job catalog, [`CATALOG`] specs per class, with the checksums of
/// their direct-API results.
pub fn catalog(rng: &mut Rng) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::new();
    for _ in 0..CATALOG[0] {
        let (m, n, z) = (rng.range(2, 4), rng.range(2, 4), rng.range(2, 4));
        jobs.push(mem_job(m, n, z, 32, rng, false)?);
    }
    for _ in 0..CATALOG[1] {
        jobs.push(mem_job(8, 8, 8, 64, rng, false)?);
    }
    for _ in 0..CATALOG[2] {
        jobs.push(mem_job(16, 16, 16, 32, rng, true)?);
    }
    jobs.push(Job::Ooc);
    Ok(jobs)
}

/// Rounds of [`ROUND`] jobs, each drawn from its class's catalog slice.
pub fn plan(seed: u64, seconds: u64) -> Vec<Vec<usize>> {
    let mut rng = Rng::new(seed, "serve_mix.order");
    let starts: Vec<usize> =
        CATALOG.iter().scan(0, |s, &k| Some(std::mem::replace(s, *s + k))).collect();
    let rounds = ((seconds as f64 / ROUND_S).round() as usize).max(1);
    (0..rounds)
        .map(|_| {
            shuffled_round(&mut rng, &ROUND)
                .into_iter()
                .map(|class| starts[class] + rng.below(CATALOG[class] as u64) as usize)
                .collect()
        })
        .collect()
}

/// One client's closed loop over `jobs`.
fn client_loop(w: &ServeMix, client: usize, jobs: &[usize]) -> OpLog {
    let mut log = OpLog::default();
    let mut conn = match Client::connect(w.addr()) {
        Ok(c) => c,
        Err(e) => {
            for &j in jobs {
                log.record(0.0, w.catalog[j].flops(), Err(e.clone()));
            }
            return log;
        }
    };
    for &j in jobs {
        let job = &w.catalog[j];
        tracer::begin_op();
        let _op = tracer::span("op.serve_mix");
        let (r, secs) = tracer::timed("serve.job", || w.submit_wait(&mut conn, job, client));
        let verdict = r.and_then(|report| w.check(job, client, &report));
        log.record(secs, job.flops(), verdict.map_err(|e| format!("{}: {e}", job.class())));
    }
    log
}

impl Workload for ServeMix {
    type Op = usize;

    fn setup(seed: u64, dir: &Path) -> Result<ServeMix, String> {
        let mut rng = Rng::new(seed, "serve_mix");
        let catalog = catalog(&mut rng)?;
        let files = OocFiles::write(dir, "serve", OOC_ORDER, 64, &mut rng)?;
        let server =
            Server::start(ServeConfig::default()).map_err(|e| format!("serve start: {e}"))?;
        Ok(ServeMix { server, catalog, files, dir: dir.to_path_buf() })
    }

    fn plan(&self, seed: u64, seconds: u64) -> Vec<Vec<usize>> {
        plan(seed, seconds)
    }

    /// Deal the round's jobs to [`CLIENTS`] connections, alternately, and
    /// run them concurrently. The round's rate is over its wall time.
    fn run(&self, ops: &[usize], log: &mut OpLog) {
        let t = Instant::now();
        let logs: Vec<OpLog> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let mine: Vec<usize> =
                        ops.iter().copied().skip(client).step_by(CLIENTS).collect();
                    s.spawn(move || client_loop(self, client, &mine))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let busy_before = log.busy_s;
        for l in logs {
            log.merge(l);
        }
        log.busy_s = busy_before + t.elapsed().as_secs_f64();
    }

    fn finish(self) {
        self.server.shutdown();
        self.server.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Value {
        serde_json::from_str(s).unwrap()
    }

    fn run_job(w: &ServeMix, c: &mut Client, job: &Job) -> Result<(), String> {
        let report = w.submit_wait(c, job, 0)?;
        w.check(job, 0, &report)
    }

    #[test]
    fn a_refused_submit_counts_as_failed() {
        let refused = parse(
            r#"{"ok":false,"rejected":true,"error":"over budget","predicted_footprint_bytes":9,"ram_budget_bytes":1}"#,
        );
        let verdict = accepted(&refused).map(drop);
        assert!(verdict.as_ref().unwrap_err().contains("over budget"));
        let mut log = OpLog::default();
        log.record(0.01, 1.0, verdict);
        log.record(0.01, 1.0, accepted(&parse(r#"{"ok":true,"job_id":3}"#)).map(drop));
        assert_eq!((log.attempted, log.failed), (2, 1));
        assert_eq!(log.failed_frac(), 0.5);
    }

    #[test]
    fn only_done_replies_with_a_report_pass() {
        assert!(
            done_report(&parse(r#"{"ok":true,"state":"done","report":{"checksum":1}}"#)).is_ok()
        );
        assert!(done_report(&parse(r#"{"ok":true,"state":"failed","error":"io"}"#)).is_err());
        assert!(done_report(&parse(r#"{"ok":true,"state":"done","report":null}"#)).is_err());
        assert!(done_report(&parse(r#"{"ok":false,"error":"unknown job 9"}"#)).is_err());
    }

    #[test]
    fn served_jobs_match_the_direct_api_and_a_refusal_is_counted() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../.bench_work/serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let w = ServeMix::setup(5, &dir).unwrap();
        let mut c = Client::connect(w.addr()).unwrap();
        let mut log = OpLog::default();
        for job in w.catalog.iter().take(2) {
            log.record(0.0, job.flops(), run_job(&w, &mut c, job));
        }
        // A wrong expected checksum is a failed check.
        let mut wrong = w.catalog[0].clone();
        if let Job::Mem { checksum, .. } = &mut wrong {
            *checksum ^= 1;
        }
        log.record(0.0, 1.0, run_job(&w, &mut c, &wrong));
        // A shape the admission controller refuses (over the RAM budget).
        let huge = Job::Mem {
            m: 256,
            n: 256,
            z: 256,
            q: 32,
            seed_a: 1,
            seed_b: 2,
            strassen: false,
            checksum: 0,
        };
        log.record(0.0, 1.0, run_job(&w, &mut c, &huge));
        assert_eq!((log.attempted, log.failed), (4, 2), "{:?}", log.failures);
        assert!(log.failures[1].contains("refused"), "{:?}", log.failures);
        drop(c);
        w.finish();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
