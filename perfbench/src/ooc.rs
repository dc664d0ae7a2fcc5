//! Out-of-core operands: seeded `.tiled` files with their in-core
//! reference, shared by `serve_mix`'s ooc jobs and the ooc layer probe.
//! The files are written in set-up and read back from the page cache,
//! not from disk.

use std::path::{Path, PathBuf};

use multicore_matmul::exec::{gemm_naive, BlockMatrix};
use multicore_matmul::ooc::{write_pseudo_random, TiledFile};

use crate::check;
use crate::gen::Rng;

/// Operand order of the probe's product in blocks: 16 × 64 = 1024.
pub const ORDER: u32 = 16;
/// Block side.
pub const Q: usize = 64;
/// Bytes of one operand.
pub const OPERAND_BYTES: u64 = (ORDER as u64 * Q as u64).pow(2) * 8;

/// Seeded operand files plus the product they must give.
pub struct OocFiles {
    /// Path of `A`.
    pub a: PathBuf,
    /// Path of `B`.
    pub b: PathBuf,
    /// `A·B` from `gemm_naive` on the same values.
    pub want: BlockMatrix,
}

impl OocFiles {
    /// Write `order × order` operands of side `q` into `dir`.
    pub fn write(
        dir: &Path,
        tag: &str,
        order: u32,
        q: usize,
        rng: &mut Rng,
    ) -> Result<OocFiles, String> {
        let (sa, sb) = (rng.next_u64(), rng.next_u64());
        let a = dir.join(format!("{tag}_a.tiled"));
        let b = dir.join(format!("{tag}_b.tiled"));
        write_pseudo_random(&a, order, order, q, sa)
            .map_err(|e| format!("write {}: {e}", a.display()))?;
        write_pseudo_random(&b, order, order, q, sb)
            .map_err(|e| format!("write {}: {e}", b.display()))?;
        let want = gemm_naive(
            &BlockMatrix::pseudo_random(order, order, q, sa),
            &BlockMatrix::pseudo_random(order, order, q, sb),
        );
        Ok(OocFiles { a, b, want })
    }

    /// Check a product written to `out` against the reference.
    pub fn check_output(&self, out: &Path) -> Result<(), String> {
        let c = TiledFile::open(out)
            .and_then(|f| f.read_matrix())
            .map_err(|e| format!("read {}: {e}", out.display()))?;
        check::exact(&c, &self.want)
    }
}

/// The budget `OPERAND_BYTES · 2 / under`.
pub fn budget(under: u64) -> u64 {
    2 * OPERAND_BYTES / under
}
