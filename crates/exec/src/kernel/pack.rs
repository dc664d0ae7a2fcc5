//! Panel packing: contiguous micro-panel operands for the register kernels.
//!
//! The parallel executor's tasks stream `A` row-panels and `B`
//! column-panels out of block-major [`BlockMatrixOf`] storage. The
//! 5-loop macro-kernel copies the panels it is about to reuse into a
//! thread-local scratch arena, laid out exactly in the order the
//! `MR×NR` micro-kernels consume them:
//!
//! * `A` panels: per local block row, `⌈q/MR⌉` micro-panels of `MR`
//!   values per `k` step (`[ip][k][r]`, rows past `q` zero-padded);
//! * `B` panels: per local block column, `⌈q/NR⌉` micro-panels of `NR`
//!   values per `k` step (`[jp][k][c]`, columns past `q` zero-padded).
//!
//! This materializes the Maximum Reuse residency pattern — a register
//! tile of `C`, a sliver of `A`, a sliver of `B` — in actual memory
//! order: the micro-kernel's entire `k` loop reads two forward-moving
//! contiguous streams. Padding is multiplied by zero only in lanes that
//! are never written back, so it cannot perturb results.
//!
//! Reused arena buffers are **not** re-zeroed: every slot below the
//! packed length, padding lanes included, is written explicitly, so the
//! buffers only grow (`resize` fires solely when a larger panel arrives)
//! and repacking costs one pass instead of a memset plus a pass.

use super::elem::Element;
use crate::blocking::BlockingPlan;
use crate::matrix::BlockMatrixOf;

/// Thread-local packing scratch, reused across a task's `k` panels and
/// across tasks run by the same worker thread. One arena exists per
/// element type per thread (see [`Element::with_arena`]).
pub struct PackArena<T = f64> {
    /// Packed `A` row-panel buffer.
    pub a: Vec<T>,
    /// Packed `B` column-panel buffer.
    pub b: Vec<T>,
}

impl<T> PackArena<T> {
    /// An empty arena (the per-type thread-local slots start here).
    pub const fn new() -> PackArena<T> {
        PackArena { a: Vec::new(), b: Vec::new() }
    }
}

impl<T> Default for PackArena<T> {
    fn default() -> Self {
        PackArena::new()
    }
}

/// Run `f` with the current thread's packing arena for element type `T`.
pub fn with_arena<T: Element, R>(f: impl FnOnce(&mut PackArena<T>) -> R) -> R {
    T::with_arena(f)
}

/// Packed size of one block row's `A` micro-panels for a depth-`kc` panel.
pub fn a_panel_stride<T: Element>(q: usize, kc: usize) -> usize {
    q.div_ceil(T::MR) * kc * T::MR
}

/// Packed size of one block column's `B` micro-panels for a depth-`kc` panel.
pub fn b_panel_stride<T: Element>(q: usize, kc: usize) -> usize {
    q.div_ceil(T::NR) * kc * T::NR
}

/// Upper bound on the packing-arena bytes of one `m×n×z`-block product
/// of `q×q` blocks under `plan`: per packing thread, one `A` panel of
/// `MC` block rows and one `B` panel of `NC` block columns, both `KC`
/// deep, at their padded packed sizes (steps rounded to whole blocks and
/// clamped to the problem, as the 5-loop runner does). Each thread packs
/// into its own thread-local arena, and the threads of one product are
/// the caller plus the pool workers that join it,
/// `rayon::current_num_threads()` in all. `None` when the bound
/// overflows `u64`.
pub fn arena_bound_bytes<T: Element>(
    m: u32,
    n: u32,
    z: u32,
    q: usize,
    plan: BlockingPlan,
) -> Option<u64> {
    let steps = |elems: usize, extent: u32| ((elems / q.max(1)).max(1) as u64).min(extent as u64);
    let q64 = q as u64;
    let kc = steps(plan.kc, z).checked_mul(q64)?;
    let a_stride = q64.div_ceil(T::MR as u64).checked_mul(T::MR as u64)?.checked_mul(kc)?;
    let b_stride = q64.div_ceil(T::NR as u64).checked_mul(T::NR as u64)?.checked_mul(kc)?;
    let a_panel = steps(plan.mc, m).checked_mul(a_stride)?;
    let b_panel = steps(plan.nc, n).checked_mul(b_stride)?;
    a_panel
        .checked_add(b_panel)?
        .checked_mul(std::mem::size_of::<T>() as u64)?
        .checked_mul(rayon::current_num_threads() as u64)
}

/// Size `dst` for `len` packed elements without re-zeroing retained
/// capacity: grow (zero-filling only the new tail) or truncate, never
/// clear-and-refill. Callers overwrite every slot below `len`.
fn size_for_pack<T: Element>(dst: &mut Vec<T>, len: usize) {
    if dst.len() < len {
        dst.resize(len, T::ZERO);
    } else {
        dst.truncate(len);
    }
    crate::metrics::pack_bytes().add((len * std::mem::size_of::<T>()) as u64);
}

/// Pack the `A` row-panel `A[i0..i0+th, k0..k0+kb]` into `dst`.
///
/// Layout: block row `bi`, then micro-panel `ip`, then `k` ascending over
/// the whole `kb·q`-deep panel, then `MR` row values (zero-padded past
/// `q`). `dst` is sized to `th · `[`a_panel_stride`]` elements. While one
/// source block streams out, the next block's rows are prefetched.
pub fn pack_a_panel<T: Element>(
    dst: &mut Vec<T>,
    a: &BlockMatrixOf<T>,
    i0: u32,
    th: u32,
    k0: u32,
    kb: u32,
) {
    let q = a.q();
    let kc = kb as usize * q;
    let mr = T::MR;
    let n_ip = q.div_ceil(mr);
    let len = th as usize * a_panel_stride::<T>(q, kc);
    size_for_pack(dst, len);
    let mut off = 0;
    for bi in 0..th {
        for ip in 0..n_ip {
            let rows = ip * mr..((ip + 1) * mr).min(q);
            for kblk in 0..kb {
                let blk = a.block(i0 + bi, k0 + kblk);
                if kblk + 1 < kb {
                    let next = a.block(i0 + bi, k0 + kblk + 1);
                    for row in rows.clone() {
                        super::prefetch_read(&next[row * q]);
                    }
                }
                for kk in 0..q {
                    for r in 0..mr {
                        let row = ip * mr + r;
                        dst[off] = if row < q { blk[row * q + kk] } else { T::ZERO };
                        off += 1;
                    }
                }
            }
        }
    }
    debug_assert_eq!(off, len, "packed A panel length must match tile geometry");
}

/// Pack the `B` column-panel `B[k0..k0+kb, j0..j0+tw]` into `dst`.
///
/// Layout: block column `bj`, then micro-panel `jp`, then `k` ascending
/// over the whole `kb·q`-deep panel, then `NR` column values
/// (zero-padded past `q`). `dst` is sized to `tw · `[`b_panel_stride`]`
/// elements. While one source block streams out, the next block's first
/// rows are prefetched.
pub fn pack_b_panel<T: Element>(
    dst: &mut Vec<T>,
    b: &BlockMatrixOf<T>,
    j0: u32,
    tw: u32,
    k0: u32,
    kb: u32,
) {
    let q = b.q();
    let kc = kb as usize * q;
    let nr = T::NR;
    let n_jp = q.div_ceil(nr);
    let len = tw as usize * b_panel_stride::<T>(q, kc);
    size_for_pack(dst, len);
    let mut off = 0;
    for bj in 0..tw {
        for jp in 0..n_jp {
            for kblk in 0..kb {
                let blk = b.block(k0 + kblk, j0 + bj);
                if kblk + 1 < kb {
                    let next = b.block(k0 + kblk + 1, j0 + bj);
                    for kk in 0..q.min(4) {
                        super::prefetch_read(&next[kk * q + jp * nr]);
                    }
                }
                for kk in 0..q {
                    let row = &blk[kk * q..(kk + 1) * q];
                    for c in 0..nr {
                        let col = jp * nr + c;
                        dst[off] = if col < q { row[col] } else { T::ZERO };
                        off += 1;
                    }
                }
            }
        }
    }
    debug_assert_eq!(off, len, "packed B panel length must match tile geometry");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::BlockMatrix;

    const MR: usize = <f64 as Element>::MR;
    const NR: usize = <f64 as Element>::NR;

    #[test]
    fn a_panel_layout_round_trips() {
        // 1 block row, 2 k blocks, q = 5 (ragged: n_ip = 1, rows 5..6 padded).
        let q = 5;
        let a = BlockMatrix::from_fn(1, 2, q, |i, j| (i * 100 + j) as f64);
        let mut dst = Vec::new();
        pack_a_panel(&mut dst, &a, 0, 1, 0, 2);
        let kc = 2 * q;
        assert_eq!(dst.len(), a_panel_stride::<f64>(q, kc));
        // Element (row r, global k) lives at [k][r]; global k spans both blocks.
        for k in 0..kc {
            for r in 0..MR {
                let want = if r < q { (r * 100 + k) as f64 } else { 0.0 };
                assert_eq!(dst[k * MR + r], want, "k={k} r={r}");
            }
        }
    }

    #[test]
    fn b_panel_layout_round_trips() {
        // 2 k blocks, 1 block col, q = 6 (n_jp = 1, cols 6..8 of the panel padded).
        let q = 6;
        let b = BlockMatrix::from_fn(2, 1, q, |i, j| (i * 10 + j) as f64);
        let mut dst = Vec::new();
        pack_b_panel(&mut dst, &b, 0, 1, 0, 2);
        let kc = 2 * q;
        assert_eq!(dst.len(), b_panel_stride::<f64>(q, kc));
        for jp in 0..q.div_ceil(NR) {
            for k in 0..kc {
                for c in 0..NR {
                    let col = jp * NR + c;
                    let want = if col < q { (k * 10 + col) as f64 } else { 0.0 };
                    assert_eq!(dst[jp * kc * NR + k * NR + c], want, "jp={jp} k={k} c={c}");
                }
            }
        }
    }

    /// Shrinking repacks leave no stale tail and growing repacks pad
    /// correctly — the grow-only sizing never exposes old data because
    /// every slot below the packed length is overwritten.
    #[test]
    fn repacking_after_shrink_holds_no_stale_data() {
        let big = BlockMatrix::from_fn(1, 2, 9, |i, j| (i * 50 + j) as f64 + 1.0);
        let small = BlockMatrix::from_fn(1, 1, 3, |i, j| -((i * 10 + j) as f64) - 1.0);
        let mut dst = Vec::new();
        pack_a_panel(&mut dst, &big, 0, 1, 0, 2);
        pack_a_panel(&mut dst, &small, 0, 1, 0, 1);
        assert_eq!(dst.len(), a_panel_stride::<f64>(3, 3));
        // q = 3 < MR: lanes 3..MR of each k group must be freshly zeroed,
        // not residue from the larger pack.
        for k in 0..3 {
            for r in 0..MR {
                let want = if r < 3 { -((r * 10 + k) as f64) - 1.0 } else { 0.0 };
                assert_eq!(dst[k * MR + r], want, "k={k} r={r}");
            }
        }
    }

    #[test]
    fn arena_is_reused() {
        let cap = with_arena::<f64, _>(|ar| {
            ar.a.resize(1024, 0.0);
            ar.a.capacity()
        });
        let cap2 = with_arena::<f64, _>(|ar| ar.a.capacity());
        assert_eq!(cap, cap2, "same thread sees the same arena");
    }

    #[test]
    fn arena_bound_covers_what_a_product_packs() {
        use crate::runner::{gemm_parallel_with_plan, Tiling};
        let plan = BlockingPlan { mc: 2 * 5, kc: 3 * 5, nc: 2 * 5 };
        let (m, n, z, q) = (7u32, 6u32, 9u32, 5usize);
        // A fresh thread running a one-thread pool: the only arena touched
        // is this thread's, and it starts empty.
        let (packed, bound) = std::thread::spawn(move || {
            let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
            one.install(|| {
                let a = BlockMatrixOf::<f64>::pseudo_random(m, z, q, 1);
                let b = BlockMatrixOf::<f64>::pseudo_random(z, n, q, 2);
                let whole = Tiling { tile_m: m, tile_n: n, tile_k: z };
                let v = crate::kernel::variant();
                drop(gemm_parallel_with_plan(&a, &b, whole, v, plan));
                let packed = with_arena::<f64, _>(|ar| (ar.a.len() + ar.b.len()) as u64 * 8);
                (packed, arena_bound_bytes::<f64>(m, n, z, q, plan).unwrap())
            })
        })
        .join()
        .unwrap();
        assert!(packed <= bound, "packed {packed} B over the bound {bound} B");
        // A hostile block side overflows instead of wrapping.
        assert_eq!(arena_bound_bytes::<f64>(1, 1, 1, usize::MAX / 2, plan), None);
    }
}
