//! Served jobs run on `max_concurrent` persistent runner threads, so a
//! long run of jobs starts no thread per job and leaves no span ring
//! behind per job (every thread that records spans keeps its ring for
//! the life of the process). One test, so the process's thread count and
//! resident set are this test's alone.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use multicore_matmul::serve::{ServeConfig, Server};
use serde::Value;

/// `(threads, resident KiB)` of this process, from procfs.
#[cfg(target_os = "linux")]
fn threads_and_rss() -> (usize, u64) {
    let threads = std::fs::read_dir("/proc/self/task").expect("list /proc/self/task").count();
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let rss = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS in /proc/self/status");
    (threads, rss)
}

#[test]
fn sequential_jobs_reuse_the_runner_threads() {
    let server = Server::start(ServeConfig { max_concurrent: 2, ..ServeConfig::default() })
        .expect("start server");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut call = |request: String| -> Value {
        writer.write_all(format!("{request}\n").as_bytes()).expect("send request");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read reply");
        serde_json::from_str(&line).expect("reply is JSON")
    };

    #[cfg(target_os = "linux")]
    let mut after_fifth = (0, 0);
    for i in 0..40u64 {
        let submit = call(format!(
            r#"{{"cmd":"submit","kind":"mem","m":3,"n":3,"z":3,"q":32,"seed_a":{i},"seed_b":{}}}"#,
            i + 100
        ));
        let id = submit.get("job_id").and_then(Value::as_u64).expect("job accepted");
        let done = call(format!(r#"{{"cmd":"wait","job_id":{id}}}"#));
        assert_eq!(done.get("state").and_then(Value::as_str), Some("done"), "{done:?}");
        #[cfg(target_os = "linux")]
        if i == 4 {
            after_fifth = threads_and_rss();
        }
    }
    #[cfg(target_os = "linux")]
    {
        let ((threads, rss_kib), (threads_after, rss_after_kib)) = (after_fifth, threads_and_rss());
        assert!(threads_after <= threads, "threads grew from {threads} to {threads_after}");
        // A thread per job grew it by ~10 MiB over these 35 jobs.
        let grown_mib = rss_after_kib.saturating_sub(rss_kib) / 1024;
        assert!(grown_mib < 4, "resident set grew {grown_mib} MiB over 35 jobs");
    }

    server.shutdown();
    server.wait();
}
