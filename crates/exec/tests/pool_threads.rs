//! Products whose tiles are cut across threads run on the persistent
//! worker pool: repeating them starts no threads and does not grow the
//! resident set. Every thread that records a span keeps its span ring for
//! the life of the process, so threads started per call would leak one
//! ring per product. Kept alone in its own test binary so no concurrently
//! running test changes the thread count or the resident set.

use mmc_exec::{gemm_naive, gemm_parallel, BlockMatrix, Tiling};
use mmc_obs::span;

/// `(threads, resident KiB)` of this process, from procfs.
fn threads_and_rss() -> Option<(usize, u64)> {
    let threads = std::fs::read_dir("/proc/self/task").ok()?.count();
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rss = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some((threads, rss))
}

#[test]
fn split_products_with_spans_start_no_threads_and_leak_no_rings() {
    span::set_enabled(true);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    let (a, b) = (BlockMatrix::pseudo_random(4, 3, 16, 1), BlockMatrix::pseudo_random(3, 4, 16, 2));
    let want = gemm_naive(&a, &b);
    // One tile for the whole grid: cut into two row strips on two threads.
    let whole = Tiling { tile_m: 4, tile_n: 4, tile_k: 3 };
    let product = || {
        let job = span::new_job();
        let c = pool.install(|| gemm_parallel(&a, &b, whole));
        assert_eq!(c, want);
        span::collect_job(job)
    };
    // The first product starts the pool worker and its span ring.
    product();
    let Some((threads, rss_kib)) = threads_and_rss() else {
        return; // no procfs on this platform
    };
    for _ in 0..200 {
        product();
    }
    let (threads_after, rss_after_kib) = threads_and_rss().expect("procfs read once already");
    assert_eq!(threads_after, threads, "split products started threads");
    // A span ring per started thread would add ~100 MiB over 200 products.
    let grown_mib = rss_after_kib.saturating_sub(rss_kib) / 1024;
    assert!(grown_mib < 32, "resident set grew {grown_mib} MiB over 200 products");
}
