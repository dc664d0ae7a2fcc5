//! Operation bookkeeping and output checks.
//!
//! Every timed operation ends in [`OpLog::record`] with the verdict of
//! its check. A failed, refused or wrong operation counts in `failed`
//! and enters the latency sample as `+∞`, so it can only push the tail
//! up, never hide in it.

use multicore_matmul::exec::{BlockMatrix, BlockMatrixOf, Element};

/// What a workload's timed loop did.
#[derive(Clone, Debug, Default)]
pub struct OpLog {
    /// Per-operation latency, seconds (`+∞` for a failed operation).
    pub latencies_s: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were refused or failed their check.
    pub failed: u64,
    /// Classic flop count of the operations that succeeded.
    pub flops: f64,
    /// Time the rates are taken over, seconds.
    pub busy_s: f64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl OpLog {
    /// Account one operation that took `secs`, does `flops` classic
    /// flops, and passed (`Ok`) or failed (`Err`) its check.
    pub fn record(&mut self, secs: f64, flops: f64, verdict: Result<(), String>) {
        self.attempted += 1;
        self.busy_s += secs;
        match verdict {
            Ok(()) => {
                self.latencies_s.push(secs);
                self.flops += flops;
            }
            Err(msg) => {
                self.failed += 1;
                self.latencies_s.push(f64::INFINITY);
                if self.failures.len() < 8 {
                    self.failures.push(msg);
                }
            }
        }
    }

    /// Fold another caller's log into this one (concurrent clients).
    pub fn merge(&mut self, other: OpLog) {
        self.latencies_s.extend(other.latencies_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.flops += other.flops;
        self.busy_s += other.busy_s;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }

    /// Operations that completed and passed their check.
    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// `got == want`, element by element (bit-exact for every finite value).
pub fn exact<T: Element>(got: &BlockMatrixOf<T>, want: &BlockMatrixOf<T>) -> Result<(), String> {
    same_shape(got, want)?;
    let bad = got.data().iter().zip(want.data()).filter(|(g, w)| g != w).count();
    if bad == 0 {
        Ok(())
    } else {
        Err(format!("{bad} of {} elements differ from the reference", got.data().len()))
    }
}

/// Max-abs distance of `got` from the f64 `want`, which must stay
/// within `bound`.
pub fn within<T: Element>(
    got: &BlockMatrixOf<T>,
    want: &BlockMatrix,
    bound: f64,
) -> Result<(), String> {
    if (got.rows(), got.cols(), got.q()) != (want.rows(), want.cols(), want.q()) {
        return Err("result has the wrong shape".into());
    }
    let err = got
        .data()
        .iter()
        .zip(want.data())
        .map(|(&g, &w)| (g.to_f64() - w).abs())
        .fold(0.0, f64::max);
    if err <= bound {
        Ok(())
    } else {
        Err(format!("max |error| {err:e} exceeds the bound {bound:e}"))
    }
}

/// Forward error bound of an f32 product with inner dimension `k`
/// against the exact product of the same (widened) inputs: `γ_k · k ·
/// max|A| · max|B|` with `γ_k = k·u / (1 − k·u)` and `u = 2⁻²⁴`.
pub fn f32_bound(k: usize, amax: f64, bmax: f64) -> f64 {
    let ku = k as f64 * f64::from(f32::EPSILON) / 2.0;
    ku / (1.0 - ku) * k as f64 * amax * bmax
}

fn same_shape<T: Element, U: Element>(
    got: &BlockMatrixOf<T>,
    want: &BlockMatrixOf<U>,
) -> Result<(), String> {
    if (got.rows(), got.cols(), got.q()) == (want.rows(), want.cols(), want.q()) {
        Ok(())
    } else {
        Err(format!(
            "result is {}x{} blocks of q={}, expected {}x{} of q={}",
            got.rows(),
            got.cols(),
            got.q(),
            want.rows(),
            want.cols(),
            want.q()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multicore_matmul::exec::{gemm_naive, gemm_parallel, Tiling};

    #[test]
    fn a_wrong_result_counts_as_failed() {
        let a = BlockMatrix::pseudo_random(3, 2, 8, 1);
        let b = BlockMatrix::pseudo_random(2, 3, 8, 2);
        let want = gemm_naive(&a, &b);
        let tiling = Tiling { tile_m: 2, tile_n: 2, tile_k: 1 };
        let mut log = OpLog::default();
        let good = gemm_parallel(&a, &b, tiling);
        log.record(0.001, 1.0, exact(&good, &want));
        let mut bad = good.clone();
        bad.set(5, 7, bad.get(5, 7) + 1e-12);
        log.record(0.001, 1.0, exact(&bad, &want));
        assert_eq!((log.attempted, log.failed), (2, 1));
        assert_eq!(log.failed_frac(), 0.5);
        assert_eq!(log.flops, 1.0, "a failed operation earns no flops");
        assert!(log.latencies_s[1].is_infinite());
        assert!(log.failures[0].contains("1 of"));
    }

    #[test]
    fn tolerance_checks_reject_large_errors() {
        let want = BlockMatrix::pseudo_random(2, 2, 4, 3);
        let mut got = BlockMatrixOf::<f32>::zeros(2, 2, 4);
        for i in 0..8 {
            for j in 0..8 {
                got.set(i, j, want.get(i, j) as f32);
            }
        }
        assert!(within(&got, &want, 1e-6).is_ok());
        got.set(0, 0, got.get(0, 0) + 0.5);
        assert!(within(&got, &want, 1e-6).is_err());
        assert!(within(&BlockMatrixOf::<f32>::zeros(1, 1, 4), &want, 1.0).is_err());
    }

    #[test]
    fn shape_mismatch_is_a_failure() {
        let a = BlockMatrix::zeros(2, 2, 4);
        let b = BlockMatrix::zeros(2, 3, 4);
        assert!(exact(&a, &b).is_err());
    }
}
