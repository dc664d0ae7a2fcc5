//! Where a served job's arithmetic runs.
//!
//! A job predicted at [`SMALL_JOB_FLOPS`] or more is *large*: large jobs
//! run one at a time on the server's own worker pool, which spans every
//! CPU the process may use, so each one gets the whole machine. Two large
//! jobs never split the cores between them by the timing of their
//! parallel calls (on a shared pool, a call that finds the pool busy runs
//! inline), so a large job takes the same time whatever else is in
//! flight. A smaller job runs single-threaded on its runner, next to
//! whatever large job is running, so a tiny product never queues behind
//! a large one.
//!
//! On Linux the threads are pinned: every job runner to the first CPU the
//! process may use, and pool worker `k` to the `k`-th. A large job's
//! runner is the pool's participant 0, so a large job runs on every CPU
//! once each, and small jobs share the first CPU with its runner only.
//! Left to the kernel, these long-lived threads are placed by wake-up
//! affinity, and on a two-CPU virtual machine that was observed to keep
//! every runner and worker on one CPU for the life of the process, which
//! halves the speed of every large job.

use std::sync::{Mutex, PoisonError};

use crate::exec::rayon;

/// Predicted flops below which a job runs single-threaded: about a
/// millisecond of one core, less than it costs to wake the pool and far
/// less than waiting for a large job would.
pub(crate) const SMALL_JOB_FLOPS: f64 = (1u64 << 25) as f64;

/// The pools a job's product runs on, and the turn-taking between large
/// jobs.
pub(crate) struct Compute {
    /// One thread per CPU: the large job's runner is participant 0 on
    /// `cpus[0]`, worker `k` is pinned to `cpus[k]`.
    pool: rayon::ThreadPool,
    /// A one-thread pool: parallel calls under it run inline on the runner.
    inline: rayon::ThreadPool,
    /// Held by the large job running on `pool`.
    large: Mutex<()>,
    /// The CPUs the process may run on (empty where unknown).
    cpus: Vec<usize>,
}

impl Compute {
    /// Build both pools; `pool`'s workers start at its first large job.
    pub(crate) fn new() -> Compute {
        let cpus = affinity::allowed();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let worker_cpus = cpus.clone();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .start_handler(move |k| {
                if !worker_cpus.is_empty() {
                    affinity::pin(&[worker_cpus[k % worker_cpus.len()]]);
                }
            })
            .build()
            .expect("the pool shim never fails to build");
        let inline = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("the pool shim never fails to build");
        Compute { pool, inline, large: Mutex::new(()), cpus }
    }

    /// Pin the calling job runner to the first CPU (once, as it starts).
    pub(crate) fn enter_runner(&self) {
        affinity::pin(&self.cpus[..self.cpus.len().min(1)]);
    }

    /// Run `op`, the whole of a job predicted at `flops`: inline when the
    /// job is small, else alone on the pool.
    pub(crate) fn run<R>(&self, flops: f64, op: impl FnOnce() -> R) -> R {
        if flops < SMALL_JOB_FLOPS {
            return self.inline.install(op);
        }
        let _turn = self.large.lock().unwrap_or_else(PoisonError::into_inner);
        self.pool.install(op)
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    use std::os::raw::c_int;

    /// glibc's `cpu_set_t`: a 1024-bit mask.
    type CpuSet = [u64; 16];
    const MAX_CPUS: usize = 1024;

    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    }

    /// The CPUs the calling thread may run on, ascending.
    pub fn allowed() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: pid 0 is the calling thread, and the kernel writes at
        // most `size` bytes into `set`.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
            return Vec::new();
        }
        (0..MAX_CPUS).filter(|&c| set[c / 64] >> (c % 64) & 1 == 1).collect()
    }

    /// Restrict the calling thread to `cpus` (best effort; nothing for an
    /// empty list).
    pub fn pin(cpus: &[usize]) {
        let mut set: CpuSet = [0; 16];
        for &c in cpus.iter().filter(|&&c| c < MAX_CPUS) {
            set[c / 64] |= 1 << (c % 64);
        }
        if set != [0; 16] {
            // SAFETY: pid 0 is the calling thread; the kernel only reads
            // `size` bytes of `set`. A failure leaves the mask unchanged.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpus: &[usize]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_jobs_run_inline_and_large_ones_on_every_cpu() {
        let compute = Compute::new();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(compute.run(SMALL_JOB_FLOPS / 2.0, rayon::current_num_threads), 1);
        assert_eq!(compute.run(SMALL_JOB_FLOPS, rayon::current_num_threads), threads);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn runners_and_workers_are_pinned_one_cpu_each() {
        use rayon::prelude::*;
        use std::sync::Mutex;

        let compute = Compute::new();
        let all = affinity::allowed();
        compute.enter_runner();
        assert_eq!(affinity::allowed(), all[..1]);
        let seen = Mutex::new(Vec::new());
        compute.run(SMALL_JOB_FLOPS, || {
            (0..256u32).into_par_iter().for_each(|_| {
                let who = (rayon::current_thread_index(), affinity::allowed());
                seen.lock().unwrap().push(who);
            })
        });
        for (index, cpus) in seen.into_inner().unwrap() {
            let k = index.expect("inside a parallel call");
            assert_eq!(cpus, [all[k % all.len()]], "participant {k}");
        }
    }
}
