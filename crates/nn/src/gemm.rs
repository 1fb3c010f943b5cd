//! Dual-path GEMM kernels behind [`crate::matrix::Matrix`]'s three products.
//!
//! Every product ships in two implementations selected at run time:
//!
//! * **Reference** — the naive loops the reproduction has used since the
//!   seed (ikj order for `matmul`, streaming rank-1 updates for `t_matmul`,
//!   scalar dot products for `matmul_t`). Simple enough to audit by eye;
//!   this is the semantic ground truth.
//! * **Fast** — kernels fitted to the shapes the update and collection
//!   run. Products with at least `SMALL_M` rows and a 3-or-wider output go
//!   through blocked, register-tiled kernels: `B` is packed into
//!   [`NR`]-column panels per [`KC`]-deep stripe (from a per-thread scratch
//!   buffer, so a warm thread allocates nothing), and an [`MR`]×[`NR`]
//!   micro-kernel reads `A` in place and accumulates `chunks_exact` f32
//!   lanes the compiler autovectorizes. When `A` is mostly exact zeros (an
//!   observation's blind entities) and `B` is finite, `matmul` and
//!   `t_matmul` run `A`'s zero index instead (its `ZeroLists`, kept by the
//!   `Matrix`): each output row runs only its live depth steps. Batch-1–7
//!   products run one register strip per row, which leaves out zero
//!   operands when `B` is finite, and 1–2-wide outputs (or a 1–2-deep
//!   `matmul_t`) run small direct kernels. On x86-64 with AVX2 (detected at
//!   run time) the same safe-Rust kernels are compiled with
//!   `#[target_feature]` so the lanes widen to 256-bit ymm registers.
//!
//! ## Equivalence contract
//!
//! The two paths are **bit-identical for every input whose result is
//! NaN-free** (infinities included), enforced by
//! `tests/gemm_equivalence.rs` and the cross-kernel golden suites. This is
//! by construction, not by tolerance:
//!
//! * each output element is one accumulation chain in ascending-`k` order,
//!   started from `+0.0` — the tiled kernels load the partial sum back from
//!   the output between `KC` stripes, which *continues* the same chain
//!   rather than reassociating it;
//! * no FMA contraction: `acc += a * b` rounds the multiply and the add
//!   separately on both paths (Rust never contracts implicitly), and IEEE
//!   multiplies/adds round identically at every SIMD width;
//! * zero-padded panel tails only feed lanes that are discarded on store;
//! * a skipped term is `±0 · finite = ±0`, and adding `±0` to a chain that
//!   started at `+0.0` changes no bit: such a chain can never hold `-0.0`
//!   (`+0 + -0 = +0`, and `x + -x = +0` under round-to-nearest), so every
//!   `±0` addend leaves it as it was.
//!
//! Inputs that *produce* NaN (`0·∞`, `∞−∞`, NaN operands) are the one
//! carve-out: both paths agree each affected element is NaN, but not on
//! its bit pattern — IEEE 754 leaves the sign/payload of a NaN result
//! unspecified, and x86 propagates whichever operand the compiled
//! instruction order favours, a codegen artifact that differs between
//! loop shapes. The harness pins exactly this: bitwise equality away from
//! NaN, NaN-for-NaN agreement on the rest.
//!
//! The reference loops never skip a zero term. The fast path skips them
//! only once a scan (remembered per `Matrix` content) proves `B` finite:
//! against `±∞` or NaN a skipped `0 · B` term would be NaN, so a call with
//! a non-finite `B` stays dense and NaN-for-NaN agreement holds exactly as
//! for any other input.
//!
//! ## Selection
//!
//! `AGSC_GEMM=ref|fast` (default `fast`) picks the process-wide default;
//! [`set_kernel_override`] forces a path in-process (tests use this to run
//! both paths in one binary), and the `*_with` methods on `Matrix` pin a
//! single call. FLOP accounting happens in the `Matrix` wrappers *before*
//! dispatch, so both paths charge the identical `2·m·n·k` regardless of
//! tiling remainders or skipped terms.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Micro-kernel height: output rows accumulated per register tile.
pub const MR: usize = 6;
/// Micro-kernel width: output columns per packed panel (two ymm registers).
pub const NR: usize = 16;
/// Depth of one packed `B` stripe; bounds the panel working set to L1/L2.
pub const KC: usize = 256;

/// Below this many output rows a tile cannot fill: the fast `matmul` and
/// `t_matmul` run one register strip per row instead (bit-identical either
/// way, so this is purely a performance heuristic).
const SMALL_M: usize = 8;

/// A matrix gets zero lists only when at most `MAX_LIVE.0 / MAX_LIVE.1`
/// of its entries are nonzero; denser operands keep the tiled kernels
/// (DESIGN §17 has the census behind the cut).
const MAX_LIVE: (usize, usize) = (1, 2);

/// Nor does a matrix of fewer entries than this: its dense products take
/// a few microseconds, about what building and reading lists costs.
const MIN_LISTED: usize = 4096;

/// Which GEMM implementation a product dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmKernel {
    /// The seed's naive loops (semantic ground truth).
    Reference,
    /// Blocked, packed, register-tiled kernels (AVX2 when available).
    Fast,
}

impl GemmKernel {
    /// Short label used by bench result points and log lines.
    pub fn label(self) -> &'static str {
        match self {
            GemmKernel::Reference => "ref",
            GemmKernel::Fast => "fast",
        }
    }
}

/// 0 = no override, 1 = force Reference, 2 = force Fast.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Force every subsequent kernel dispatch in this process onto one path
/// (`None` restores the `AGSC_GEMM` default). Tests use this to exercise
/// both paths inside one binary without racing on the environment.
pub fn set_kernel_override(kernel: Option<GemmKernel>) {
    let v = match kernel {
        None => 0,
        Some(GemmKernel::Reference) => 1,
        Some(GemmKernel::Fast) => 2,
    };
    OVERRIDE.store(v, Ordering::Relaxed);
}

/// The kernel the next `Matrix` product will dispatch to: the in-process
/// override if set, otherwise the `AGSC_GEMM` environment default.
pub fn active_kernel() -> GemmKernel {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => GemmKernel::Reference,
        2 => GemmKernel::Fast,
        _ => env_default(),
    }
}

/// Parses an `AGSC_GEMM` value: `fast` or `ref`/`reference`, any case.
impl std::str::FromStr for GemmKernel {
    type Err = ();

    fn from_str(v: &str) -> Result<Self, ()> {
        match v.trim().to_ascii_lowercase().as_str() {
            "" | "fast" => Ok(GemmKernel::Fast),
            "ref" | "reference" => Ok(GemmKernel::Reference),
            _ => Err(()),
        }
    }
}

fn env_default() -> GemmKernel {
    static DEFAULT: OnceLock<GemmKernel> = OnceLock::new();
    *DEFAULT.get_or_init(|| agsc_telemetry::knobs::parse("AGSC_GEMM", GemmKernel::Fast))
}

/// Whether the CPU has AVX2, detected once; the elementwise kernels of
/// [`crate::lanes`] dispatch on it too.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_available() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

// ---------------------------------------------------------------------------
// Dispatch. All three entry points *accumulate into* `out`, which the Matrix
// wrappers pre-zero; shapes are asserted there, so the slices are trusted to
// be exactly m×k / (dims per product) / m×n long.
// ---------------------------------------------------------------------------

/// Route one call to the widest instantiation the CPU supports.
macro_rules! dispatch_fast {
    ($product:ident($($arg:expr),*)) => {{
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            // SAFETY: `tiled_avx2::*` only *requires* AVX2 (its body is safe
            // Rust compiled with the feature enabled), and the runtime check
            // above proved the CPU has it.
            return unsafe { tiled_avx2::$product($($arg),*) };
        }
        tiled_portable::$product($($arg),*)
    }};
}

/// The kernel family a fast `matmul` or `t_matmul` into an `m×n` output
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// A 1–2-wide output (the action and value heads).
    Narrow,
    /// Fewer than `SMALL_M` output rows: one register strip per row.
    Strips,
    /// Register tiles, or `A`'s zero lists.
    Tiles,
}

/// The route of a fast `matmul` or `t_matmul` into an `m×n` output: the
/// kernels dispatch on it, and `Matrix` asks it which facts (zero lists,
/// finiteness) a product could use before computing any.
pub(crate) fn route(m: usize, n: usize) -> Route {
    if n <= 2 {
        Route::Narrow
    } else if m < SMALL_M {
        Route::Strips
    } else {
        Route::Tiles
    }
}

/// What a fast `matmul` or `t_matmul` may leave out of `A`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Skip<'a> {
    /// Every term runs (`B` not known finite, or nothing to skip).
    Dense,
    /// `B` is finite, so strips may leave out zero operands.
    Zeros,
    /// `B` is finite and these are `A`'s zero lists, one per output row.
    Lists(&'a ZeroLists),
}

/// `out[m×n] += a[m×k] · b[k×n]` (all row-major).
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul(
    kernel: GemmKernel,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    skip: Skip<'_>,
    out: &mut [f32],
) {
    match kernel {
        GemmKernel::Reference => reference::matmul(m, n, k, a, b, out),
        GemmKernel::Fast => dispatch_fast!(matmul(m, n, k, a, b, skip, out)),
    }
}

/// `out[m×n] += aᵀ · b` where `a` is `k×m` and `b` is `k×n` (row-major).
#[allow(clippy::too_many_arguments)]
pub(crate) fn t_matmul(
    kernel: GemmKernel,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    skip: Skip<'_>,
    out: &mut [f32],
) {
    match kernel {
        GemmKernel::Reference => reference::t_matmul(m, n, k, a, b, out),
        GemmKernel::Fast => dispatch_fast!(t_matmul(m, n, k, a, b, skip, out)),
    }
}

/// `out[m×n] += a · bᵀ` where `a` is `m×k` and `b` is `n×k` (row-major).
pub(crate) fn matmul_t(
    kernel: GemmKernel,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    match kernel {
        GemmKernel::Reference => reference::matmul_t(m, n, k, a, b, out),
        GemmKernel::Fast => dispatch_fast!(matmul_t(m, n, k, a, b, out)),
    }
}

/// Whether `b` holds no ±∞ and no NaN.
pub(crate) fn all_finite(b: &[f32]) -> bool {
    dispatch_fast!(all_finite(b))
}

// ---------------------------------------------------------------------------
// Zero lists: a sparse copy of a mostly-zero operand, built once per matrix
// content (the `Matrix` memo keeps it) and read by the list kernels.
// ---------------------------------------------------------------------------

/// One matrix's live entries, row by row: row `r`'s nonzero entries as
/// ascending column indices and their values. A `matmul` runs its left
/// operand's row lists; a `t_matmul` runs the lists of its left operand's
/// transpose (the column lists), since output row `i` of `aᵀ·b` sums over
/// column `i` of `a`. Entries are counted live unless they compare equal to
/// zero, so NaN and ±∞ stay in and `±0` is left out.
#[derive(Debug, PartialEq)]
pub(crate) struct ZeroLists {
    /// Row `r`'s entries are `idx[starts[r]..starts[r + 1]]`.
    starts: Vec<u32>,
    idx: Vec<u16>,
    val: Vec<f32>,
}

impl ZeroLists {
    /// The row lists of row-major `a` (`rows × cols`), or `None` when more
    /// than [`MAX_LIVE`] of it is live, it has fewer than [`MIN_LISTED`]
    /// entries, or a column index would not fit the `u16` lists.
    pub(crate) fn of_rows(rows: usize, cols: usize, a: &[f32]) -> Option<Self> {
        if a.len() < MIN_LISTED || cols > 1 << 16 || a.len() > u32::MAX as usize {
            return None;
        }
        let live = sparse_live_count(a)?;
        Some(Self::build(rows, cols, a, live))
    }

    /// The row lists of `a`, which has `live` nonzero entries.
    fn build(rows: usize, cols: usize, a: &[f32], live: usize) -> Self {
        // Every entry is written at the next free slot and kept only if it
        // is live, so the fill has no branch; the last slot absorbs the
        // writes after the last live entry.
        let (mut idx, mut val) = (vec![0u16; live + 1], vec![0.0f32; live + 1]);
        let mut starts = Vec::with_capacity(rows + 1);
        starts.push(0);
        let mut len = 0;
        for row in a.chunks_exact(cols) {
            for (c, &x) in row.iter().enumerate() {
                idx[len] = c as u16;
                val[len] = x;
                len += usize::from(x != 0.0);
            }
            starts.push(len as u32);
        }
        idx.truncate(live);
        val.truncate(live);
        Self { starts, idx, val }
    }

    /// The lists of the `width`-column matrix's transpose: one list per
    /// column, rows ascending. `None` when a row index would not fit.
    pub(crate) fn transpose(&self, width: usize) -> Option<Self> {
        let rows = self.rows();
        if rows > 1 << 16 {
            return None;
        }
        let mut starts = vec![0u32; width + 1];
        for &c in &self.idx {
            starts[usize::from(c) + 1] += 1;
        }
        for c in 0..width {
            starts[c + 1] += starts[c];
        }
        let mut next: Vec<u32> = starts[..width].to_vec();
        let (mut idx, mut val) = (vec![0u16; self.idx.len()], vec![0.0f32; self.val.len()]);
        for r in 0..rows {
            let (cs, vs) = self.row(r);
            for (&c, &v) in cs.iter().zip(vs) {
                let at = &mut next[usize::from(c)];
                idx[*at as usize] = r as u16;
                val[*at as usize] = v;
                *at += 1;
            }
        }
        Some(Self { starts, idx, val })
    }

    /// The given rows of the given lists, in order: the lists of the
    /// matrix stacked from those rows.
    pub(crate) fn concat<'a>(rows: impl Iterator<Item = (&'a ZeroLists, usize)>) -> Self {
        let mut out = Self { starts: vec![0], idx: Vec::new(), val: Vec::new() };
        for (lists, r) in rows {
            let (cs, vs) = lists.row(r);
            out.idx.extend_from_slice(cs);
            out.val.extend_from_slice(vs);
            out.starts.push(out.idx.len() as u32);
        }
        out
    }

    /// Number of lists.
    pub(crate) fn rows(&self) -> usize {
        self.starts.len() - 1
    }

    /// Row `r`'s live column indices and values.
    fn row(&self, r: usize) -> (&[u16], &[f32]) {
        let span = self.starts[r] as usize..self.starts[r + 1] as usize;
        (&self.idx[span.clone()], &self.val[span])
    }
}

/// The number of nonzero entries of `a`, or `None` once more than
/// [`MAX_LIVE`] of them are: a dense operand is turned away after about
/// half a scan.
fn sparse_live_count(a: &[f32]) -> Option<usize> {
    let bound = a.len() * MAX_LIVE.0 / MAX_LIVE.1;
    let mut live = 0;
    for c in a.chunks(256) {
        live += c.iter().map(|&x| u32::from(x != 0.0)).sum::<u32>() as usize;
        if live > bound {
            return None;
        }
    }
    Some(live)
}

// ---------------------------------------------------------------------------
// Reference kernels: the seed's loops minus the sparsity shortcut (the
// module docs say why only the fast path may skip zero terms).
// ---------------------------------------------------------------------------

mod reference {
    pub(super) fn matmul(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (kk, &av) in a_row.iter().enumerate() {
                let b_row = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += av * bv;
                }
            }
        }
    }

    pub(super) fn t_matmul(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        for r in 0..k {
            let a_row = &a[r * m..(r + 1) * m];
            let b_row = &b[r * n..(r + 1) * n];
            for (i, &av) in a_row.iter().enumerate() {
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += av * bv;
                }
            }
        }
    }

    pub(super) fn matmul_t(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                    acc += av * bv;
                }
                out[i * n + j] += acc;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-thread scratch. The fast path packs operands into buffers it takes
// from here and hands back, so a thread that has run its largest shape once
// allocates nothing more. Every pack routine writes each element the
// kernels later read (panel tails and a copied edge block's missing lanes
// are zero-filled), so a previous call's values can never reach the next
// call's output.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Scratch {
    bpack: Vec<f32>,
    apack: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Take this thread's scratch; a nested call would start from an empty one.
fn take_scratch() -> Scratch {
    SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

fn return_scratch(s: Scratch) {
    SCRATCH.with(|c| *c.borrow_mut() = s);
}

/// `buf[..len]`, growing `buf` first if it is shorter.
fn prefix(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

// ---------------------------------------------------------------------------
// Fast kernels. One macro body, two instantiations: `tiled_portable`
// (baseline ISA) and, on x86-64, `tiled_avx2` where every function carries
// `#[target_feature(enable = "avx2")]` so the identical safe-Rust loops
// vectorize to ymm lanes. Same source ⇒ same rounding ⇒ the two
// instantiations are bit-identical to each other and to the reference.
// ---------------------------------------------------------------------------

macro_rules! define_tiled {
    ($mod_name:ident $(, $feat:literal)?) => {
        mod $mod_name {
            use super::{prefix, return_scratch, route, take_scratch, Route, Skip, ZeroLists};
            use super::{KC, MR, NR};

            /// Rows a 1–2-wide `matmul` advances together.
            const NARROW_ROWS: usize = 8;
            /// Output rows a 1–2-wide `t_matmul` advances together.
            const NARROW_T: usize = 32;
            /// Outputs a batch-1–7 `matmul_t` row advances together.
            const DOTS: usize = 8;

            /// Whether `b` holds no ±∞ and no NaN.
            $( #[target_feature(enable = $feat)] )?
            pub(super) fn all_finite(b: &[f32]) -> bool {
                b.chunks(256).all(|c| {
                    c.iter().fold(0u32, |hi, x| hi.max(x.to_bits() & 0x7fff_ffff)) < 0x7f80_0000
                })
            }

            /// Pack `b[k0..k0+kc, :]` (row-major `k×n`) into NR-column,
            /// k-major panels; tails beyond `n` are zero-filled (those lanes
            /// are discarded on store, so the padding never rounds anything).
            $( #[target_feature(enable = $feat)] )?
            fn pack_b(n: usize, k0: usize, kc: usize, b: &[f32], bpack: &mut [f32]) {
                for (p, dst) in bpack.chunks_exact_mut(kc * NR).enumerate() {
                    let j0 = p * NR;
                    let jw = NR.min(n - j0);
                    for (kk, d) in dst.chunks_exact_mut(NR).enumerate() {
                        d[..jw].copy_from_slice(&b[(k0 + kk) * n + j0..][..jw]);
                        d[jw..].fill(0.0);
                    }
                }
            }

            /// Pack `bᵀ[k0..k0+kc, :]` where `b` is row-major `n×k`: panel
            /// element `(kk, jj)` reads `b[(j0+jj)·k + k0+kk]`.
            $( #[target_feature(enable = $feat)] )?
            fn pack_bt(n: usize, k: usize, k0: usize, kc: usize, b: &[f32], bpack: &mut [f32]) {
                for (p, dst) in bpack.chunks_exact_mut(kc * NR).enumerate() {
                    let j0 = p * NR;
                    let jw = NR.min(n - j0);
                    dst.fill(0.0);
                    for jj in 0..jw {
                        let src = &b[(j0 + jj) * k + k0..][..kc];
                        for (kk, &v) in src.iter().enumerate() {
                            dst[kk * NR + jj] = v;
                        }
                    }
                }
            }

            /// Copy the `mh < MR` columns of a k-major `a` (`k×m`, starting
            /// at the block's first column) over rows `k0..k0+kc` into one
            /// block of `MR` lanes a step, zero-padded.
            $( #[target_feature(enable = $feat)] )?
            fn pack_a_kmajor(m: usize, mh: usize, k0: usize, a: &[f32], dst: &mut [f32]) {
                dst.fill(0.0);
                for (kk, d) in dst.chunks_exact_mut(MR).enumerate() {
                    for (x, &v) in d.iter_mut().zip(&a[(k0 + kk) * m..][..mh]) {
                        *x = v;
                    }
                }
            }

            /// Where one `MR`-row block's A-operands live.
            trait Lhs: Copy {
                /// The `MR` operands of depth step `kk` of the stripe.
                fn at(self, kk: usize) -> [f32; MR];
            }

            /// A row-major block read in place: one `kc`-long slice per
            /// row, rows past the block's height repeating its last row
            /// (their lanes are never stored).
            #[derive(Clone, Copy)]
            struct Rows<'a>([&'a [f32]; MR]);

            impl Lhs for Rows<'_> {
                #[inline]
                fn at(self, kk: usize) -> [f32; MR] {
                    let r = self.0;
                    [r[0][kk], r[1][kk], r[2][kk], r[3][kk], r[4][kk], r[5][kk]]
                }
            }

            /// A k-major block: step `kk`'s operands are the contiguous
            /// `a[kk·stride..][..MR]`.
            #[derive(Clone, Copy)]
            struct Steps<'a>(&'a [f32], usize);

            impl Lhs for Steps<'_> {
                #[inline]
                fn at(self, kk: usize) -> [f32; MR] {
                    self.0[kk * self.1..kk * self.1 + MR].try_into().unwrap()
                }
            }

            /// One `MR×NR` register tile: loads the partial sums of the live
            /// `mh×jw` corner at `out[at..]` (row stride `n`), extends every
            /// chain by the stripe's depth steps in ascending order, and
            /// stores the corner back. `FULL` is `mh == MR && jw == NR`.
            /// Lanes outside the corner compute on padding and are never
            /// stored. `acc` is only ever indexed by constants or copied
            /// whole, so it stays in registers.
            $( #[target_feature(enable = $feat)] )?
            fn tile<const FULL: bool>(
                lhs: impl Lhs,
                panel: &[f32],
                out: &mut [f32],
                at: usize,
                n: usize,
                (mh, jw): (usize, usize),
            ) {
                let mut acc = [[0.0f32; NR]; MR];
                for (mm, acc_m) in acc.iter_mut().enumerate() {
                    if FULL {
                        acc_m.copy_from_slice(&out[at + mm * n..at + mm * n + NR]);
                    } else if mm < mh {
                        // Through a local, so `acc` is only copied whole.
                        let mut v = [0.0f32; NR];
                        v[..jw].copy_from_slice(&out[at + mm * n..][..jw]);
                        *acc_m = v;
                    }
                }
                for (kk, bl) in panel.chunks_exact(NR).enumerate() {
                    let bl: &[f32; NR] = bl.try_into().unwrap();
                    let av = lhs.at(kk);
                    for mm in 0..MR {
                        for jj in 0..NR {
                            acc[mm][jj] += av[mm] * bl[jj];
                        }
                    }
                }
                for (mm, acc_m) in acc.iter().enumerate() {
                    if FULL {
                        out[at + mm * n..at + mm * n + NR].copy_from_slice(acc_m);
                    } else if mm < mh {
                        let v = *acc_m;
                        out[at + mm * n..][..jw].copy_from_slice(&v[..jw]);
                    }
                }
            }

            /// Every panel of the `mh`-row block at row `i0` over a stripe.
            $( #[target_feature(enable = $feat)] )?
            fn block(
                lhs: impl Lhs,
                kc: usize,
                bpack: &[f32],
                out: &mut [f32],
                n: usize,
                (i0, mh): (usize, usize),
            ) {
                for (p, panel) in bpack.chunks_exact(kc * NR).enumerate() {
                    let j0 = p * NR;
                    let live = (mh, NR.min(n - j0));
                    if live == (MR, NR) {
                        tile::<true>(lhs, panel, out, i0 * n + j0, n, live);
                    } else {
                        tile::<false>(lhs, panel, out, i0 * n + j0, n, live);
                    }
                }
            }

            /// The tiled product: per `KC` stripe, `B` (or `Bᵀ` when
            /// `b_rows_are_n`) is packed into `NR`-column panels, and every
            /// `MR`-row block of `A` runs against all of them, read in place
            /// (row-major, or k-major for the `t_matmul` walk when
            /// `a_kmajor`; a k-major partial block is copied out). Each out
            /// element continues its single ascending-k chain: partial sums
            /// are loaded from `out`, extended, and stored back.
            $( #[target_feature(enable = $feat)] )?
            fn tiled(
                m: usize,
                n: usize,
                k: usize,
                a: &[f32],
                b: &[f32],
                out: &mut [f32],
                (a_kmajor, b_rows_are_n): (bool, bool),
            ) {
                let mut scratch = take_scratch();
                let super::Scratch { bpack, apack } = &mut scratch;
                let npanels = n.div_ceil(NR);
                let mut k0 = 0;
                while k0 < k {
                    let kc = KC.min(k - k0);
                    let bpack = prefix(bpack, npanels * kc * NR);
                    if b_rows_are_n {
                        pack_bt(n, k, k0, kc, b, bpack);
                    } else {
                        pack_b(n, k0, kc, b, bpack);
                    }
                    let apack = prefix(apack, kc * MR);
                    for i0 in (0..m).step_by(MR) {
                        let mh = MR.min(m - i0);
                        let blk = (i0, mh);
                        if !a_kmajor {
                            let mut rows = [&a[..0]; MR];
                            for (mm, row) in rows.iter_mut().enumerate() {
                                *row = &a[(i0 + mm.min(mh - 1)) * k + k0..][..kc];
                            }
                            block(Rows(rows), kc, bpack, out, n, blk);
                        } else if mh == MR {
                            block(Steps(&a[k0 * m + i0..], m), kc, bpack, out, n, blk);
                        } else {
                            pack_a_kmajor(m, mh, k0, &a[i0..], apack);
                            block(Steps(apack, MR), kc, bpack, out, n, blk);
                        }
                    }
                    k0 += kc;
                }
                return_scratch(scratch);
            }

            /// `W` columns of one output row from `j0` on, in registers:
            /// `out_row[j0..j0+W] += Σ_e val[e] · b[idx[e], j0..j0+W]`, the
            /// terms in list order.
            $( #[target_feature(enable = $feat)] )?
            fn list_block<const W: usize>(
                n: usize,
                j0: usize,
                (idx, val): (&[u16], &[f32]),
                b: &[f32],
                out_row: &mut [f32],
            ) {
                let mut acc = [0.0f32; W];
                acc.copy_from_slice(&out_row[j0..j0 + W]);
                for (&kk, &av) in idx.iter().zip(val) {
                    let bl: &[f32; W] = b[usize::from(kk) * n + j0..][..W].try_into().unwrap();
                    for jj in 0..W {
                        acc[jj] += av * bl[jj];
                    }
                }
                out_row[j0..j0 + W].copy_from_slice(&acc);
            }

            /// One output row of a listed product: `out_row += Σ_e val[e] ·
            /// b[idx[e], :]` with `idx` ascending, so each chain runs its
            /// live depth steps in the reference's order. Columns go in
            /// register blocks of 64, 32, 16 and 8, then a last partial one.
            $( #[target_feature(enable = $feat)] )?
            fn list_row(n: usize, list: (&[u16], &[f32]), b: &[f32], out_row: &mut [f32]) {
                let mut j0 = 0;
                while j0 + 64 <= n {
                    list_block::<64>(n, j0, list, b, out_row);
                    j0 += 64;
                }
                if j0 + 32 <= n {
                    list_block::<32>(n, j0, list, b, out_row);
                    j0 += 32;
                }
                if j0 + 16 <= n {
                    list_block::<16>(n, j0, list, b, out_row);
                    j0 += 16;
                }
                if j0 + 8 <= n {
                    list_block::<8>(n, j0, list, b, out_row);
                    j0 += 8;
                }
                if j0 < n {
                    // Through a local, so `acc` is only copied whole.
                    let jw = n - j0;
                    let mut acc = [0.0f32; 8];
                    acc[..jw].copy_from_slice(&out_row[j0..]);
                    for (&kk, &av) in list.0.iter().zip(list.1) {
                        let bl = &b[usize::from(kk) * n + j0..][..jw];
                        for (o, &bv) in acc[..jw].iter_mut().zip(bl) {
                            *o += av * bv;
                        }
                    }
                    out_row[j0..].copy_from_slice(&acc[..jw]);
                }
            }

            /// The listed product: output row `r` runs `lists`' row `r`
            /// against `b` (`k×n`).
            $( #[target_feature(enable = $feat)] )?
            fn listed(n: usize, lists: &ZeroLists, b: &[f32], out: &mut [f32]) {
                for (r, out_row) in out.chunks_exact_mut(n).enumerate() {
                    list_row(n, lists.row(r), b, out_row);
                }
            }

            /// One output row of a product with too few rows to fill a
            /// tile: `out_row += Σ_kk a[at + kk·stride] · b[kk, :]`. Each
            /// `KC` stripe's operands are listed on the stack and run by the
            /// list kernel; when `skip` (`B` finite) the list leaves out the
            /// zero operands, whose terms are `±0`.
            #[allow(clippy::too_many_arguments)]
            $( #[target_feature(enable = $feat)] )?
            fn strip(
                n: usize,
                k: usize,
                a: &[f32],
                at: usize,
                stride: usize,
                b: &[f32],
                out_row: &mut [f32],
                skip: bool,
            ) {
                let (mut idx, mut val) = ([0u16; KC], [0.0f32; KC]);
                for k0 in (0..k).step_by(KC) {
                    let kc = KC.min(k - k0);
                    let mut len = 0;
                    for kk in 0..kc {
                        let v = a[at + (k0 + kk) * stride];
                        idx[len] = kk as u16;
                        val[len] = v;
                        len += usize::from(!skip || v != 0.0);
                    }
                    list_row(n, (&idx[..len], &val[..len]), &b[k0 * n..], out_row);
                }
            }

            /// `matmul` into an `N`-wide output (`N` = 1 or 2): eight rows
            /// advance together so their independent chains hide the add
            /// latency one row's chain would wait on.
            $( #[target_feature(enable = $feat)] )?
            fn narrow_matmul<const N: usize>(m: usize, k: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
                for i0 in (0..m).step_by(NARROW_ROWS) {
                    let rh = NARROW_ROWS.min(m - i0);
                    // Rows past `m` repeat the last row; they are never stored.
                    let mut rows = [&a[..0]; NARROW_ROWS];
                    for (r, row) in rows.iter_mut().enumerate() {
                        *row = &a[(i0 + r.min(rh - 1)) * k..][..k];
                    }
                    let mut acc = [[0.0f32; NARROW_ROWS]; N];
                    for r in 0..rh {
                        for j in 0..N {
                            acc[j][r] = out[(i0 + r) * N + j];
                        }
                    }
                    for kk in 0..k {
                        for j in 0..N {
                            let bv = b[kk * N + j];
                            for r in 0..NARROW_ROWS {
                                acc[j][r] += rows[r][kk] * bv;
                            }
                        }
                    }
                    for r in 0..rh {
                        for j in 0..N {
                            out[(i0 + r) * N + j] = acc[j][r];
                        }
                    }
                }
            }

            /// `t_matmul` into an `N`-wide output (`N` = 1 or 2): a depth
            /// step's A-operands are one contiguous run of `a`'s row, so
            /// `NARROW_T` output rows advance together as vector lanes.
            $( #[target_feature(enable = $feat)] )?
            fn narrow_t_matmul<const N: usize>(m: usize, k: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
                for i0 in (0..m).step_by(NARROW_T) {
                    let iw = NARROW_T.min(m - i0);
                    let mut acc = [[0.0f32; NARROW_T]; N];
                    for ii in 0..iw {
                        for j in 0..N {
                            acc[j][ii] = out[(i0 + ii) * N + j];
                        }
                    }
                    for kk in 0..k {
                        // Lanes past `m` read zeros; they are never stored.
                        let mut av = [0.0f32; NARROW_T];
                        if iw == NARROW_T {
                            av.copy_from_slice(&a[kk * m + i0..][..NARROW_T]);
                        } else {
                            av[..iw].copy_from_slice(&a[kk * m + i0..][..iw]);
                        }
                        for j in 0..N {
                            let bv = b[kk * N + j];
                            for ii in 0..NARROW_T {
                                acc[j][ii] += av[ii] * bv;
                            }
                        }
                    }
                    for ii in 0..iw {
                        for j in 0..N {
                            out[(i0 + ii) * N + j] = acc[j][ii];
                        }
                    }
                }
            }

            /// `matmul_t` over a `K`-deep product (`K` = 1 or 2): each chain
            /// is `K` terms, summed from `+0.0` as the reference's dot
            /// product does, then added to `out`.
            $( #[target_feature(enable = $feat)] )?
            fn narrow_matmul_t<const K: usize>(n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
                for (a_row, out_row) in a.chunks_exact(K).zip(out.chunks_exact_mut(n)) {
                    for (o, b_row) in out_row.iter_mut().zip(b.chunks_exact(K)) {
                        let mut acc = 0.0f32;
                        for kk in 0..K {
                            acc += a_row[kk] * b_row[kk];
                        }
                        *o += acc;
                    }
                }
            }

            /// `matmul_t` with too few rows to fill a tile: every output is
            /// the reference's dot product, `+0.0` plus each term in
            /// ascending `k`, then added to `out`. `DOTS` outputs of a row
            /// advance together so their chains overlap; outputs past `n`
            /// repeat the last one and are never stored.
            $( #[target_feature(enable = $feat)] )?
            fn dot_rows(n: usize, k: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
                for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
                    for j0 in (0..n).step_by(DOTS) {
                        let jw = DOTS.min(n - j0);
                        let mut rows = [&b[..0]; DOTS];
                        for (jj, row) in rows.iter_mut().enumerate() {
                            *row = &b[(j0 + jj.min(jw - 1)) * k..][..k];
                        }
                        let mut acc = [0.0f32; DOTS];
                        for (kk, &av) in a_row.iter().enumerate() {
                            for jj in 0..DOTS {
                                acc[jj] += av * rows[jj][kk];
                            }
                        }
                        for (o, &x) in out_row[j0..j0 + jw].iter_mut().zip(&acc) {
                            *o += x;
                        }
                    }
                }
            }

            $( #[target_feature(enable = $feat)] )?
            pub(super) fn matmul(
                m: usize,
                n: usize,
                k: usize,
                a: &[f32],
                b: &[f32],
                skip: Skip<'_>,
                out: &mut [f32],
            ) {
                if m == 0 || n == 0 || k == 0 {
                    return;
                }
                match (route(m, n), skip) {
                    (Route::Narrow, _) if n == 1 => narrow_matmul::<1>(m, k, a, b, out),
                    (Route::Narrow, _) => narrow_matmul::<2>(m, k, a, b, out),
                    (Route::Strips, _) => {
                        let skip = !matches!(skip, Skip::Dense);
                        for (i, row) in out.chunks_exact_mut(n).enumerate() {
                            strip(n, k, a, i * k, 1, b, row, skip);
                        }
                    }
                    (Route::Tiles, Skip::Lists(lists)) => listed(n, lists, b, out),
                    (Route::Tiles, _) => tiled(m, n, k, a, b, out, (false, false)),
                }
            }

            $( #[target_feature(enable = $feat)] )?
            pub(super) fn t_matmul(
                m: usize,
                n: usize,
                k: usize,
                a: &[f32],
                b: &[f32],
                skip: Skip<'_>,
                out: &mut [f32],
            ) {
                if m == 0 || n == 0 || k == 0 {
                    return;
                }
                match (route(m, n), skip) {
                    (Route::Narrow, _) if n == 1 => narrow_t_matmul::<1>(m, k, a, b, out),
                    (Route::Narrow, _) => narrow_t_matmul::<2>(m, k, a, b, out),
                    (Route::Strips, _) => {
                        let skip = !matches!(skip, Skip::Dense);
                        for (i, row) in out.chunks_exact_mut(n).enumerate() {
                            strip(n, k, a, i, m, b, row, skip);
                        }
                    }
                    (Route::Tiles, Skip::Lists(lists)) => listed(n, lists, b, out),
                    (Route::Tiles, _) => tiled(m, n, k, a, b, out, (true, false)),
                }
            }

            $( #[target_feature(enable = $feat)] )?
            pub(super) fn matmul_t(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
                if m == 0 || n == 0 || k == 0 {
                    return;
                }
                match k {
                    1 => narrow_matmul_t::<1>(n, a, b, out),
                    2 => narrow_matmul_t::<2>(n, a, b, out),
                    _ if m < super::SMALL_M => dot_rows(n, k, a, b, out),
                    _ => tiled(m, n, k, a, b, out, (false, true)),
                }
            }
        }
    };
}

define_tiled!(tiled_portable);
#[cfg(target_arch = "x86_64")]
define_tiled!(tiled_avx2, "avx2");

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill with exact zeros sprinkled in.
    fn fill(len: usize, salt: u64) -> Vec<f32> {
        let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..len)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if i % 7 == 0 {
                    0.0
                } else {
                    ((state >> 33) as i32 as f32) / 1e9
                }
            })
            .collect()
    }

    type Product = fn(GemmKernel, usize, usize, usize, &[f32], &[f32], &mut [f32]);

    fn matmul(
        kernel: GemmKernel,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        super::matmul(kernel, m, n, k, a, b, Skip::Dense, out)
    }

    fn t_matmul(
        kernel: GemmKernel,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        super::t_matmul(kernel, m, n, k, a, b, Skip::Dense, out)
    }

    fn run(
        product: Product,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        kernel: GemmKernel,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        product(kernel, m, n, k, a, b, &mut out);
        out
    }

    /// Shapes chosen to hit full tiles, every remainder edge (MR/NR/KC ± 1),
    /// and degenerate dims.
    fn shape_grid() -> Vec<(usize, usize, usize)> {
        vec![
            (0, 0, 0),
            (0, 5, 3),
            (4, 0, 3),
            (4, 5, 0),
            (1, 1, 1),
            (MR, NR, 8),
            (MR + 1, NR + 1, KC + 1),
            (MR - 1, NR - 1, 5),
            (3, 17, 5),
            (13, 2, 29),
            (9, 33, KC - 1),
            (64, 64, 64),
            (65, 31, 130),
        ]
    }

    #[test]
    fn fast_matmul_is_bit_identical_to_reference() {
        for (m, n, k) in shape_grid() {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let r = run(matmul, m, n, k, &a, &b, GemmKernel::Reference);
            let f = run(matmul, m, n, k, &a, &b, GemmKernel::Fast);
            assert!(
                r.iter().zip(&f).all(|(x, y)| x.to_bits() == y.to_bits()),
                "matmul diverged at {m}x{n}x{k}"
            );
        }
    }

    #[test]
    fn fast_t_matmul_is_bit_identical_to_reference() {
        for (m, n, k) in shape_grid() {
            let a = fill(k * m, 3);
            let b = fill(k * n, 4);
            let r = run(t_matmul, m, n, k, &a, &b, GemmKernel::Reference);
            let f = run(t_matmul, m, n, k, &a, &b, GemmKernel::Fast);
            assert!(
                r.iter().zip(&f).all(|(x, y)| x.to_bits() == y.to_bits()),
                "t_matmul diverged at {m}x{n}x{k}"
            );
        }
    }

    #[test]
    fn fast_matmul_t_is_bit_identical_to_reference() {
        for (m, n, k) in shape_grid() {
            let a = fill(m * k, 5);
            let b = fill(n * k, 6);
            let r = run(matmul_t, m, n, k, &a, &b, GemmKernel::Reference);
            let f = run(matmul_t, m, n, k, &a, &b, GemmKernel::Fast);
            assert!(
                r.iter().zip(&f).all(|(x, y)| x.to_bits() == y.to_bits()),
                "matmul_t diverged at {m}x{n}x{k}"
            );
        }
    }

    #[test]
    fn tiled_portable_matches_dispatched_fast_path() {
        // Whatever the Fast path routed to (the AVX2 or the portable
        // instantiation), the portable kernels must agree bitwise: this is
        // what makes the equivalence contract ISA-independent.
        for (m, n, k) in shape_grid() {
            let a = fill(m * k, 7);
            let b = fill(k * n, 8);
            let f = run(matmul, m, n, k, &a, &b, GemmKernel::Fast);
            let mut p = vec![0.0f32; m * n];
            tiled_portable::matmul(m, n, k, &a, &b, Skip::Dense, &mut p);
            assert!(
                f.iter().zip(&p).all(|(x, y)| x.to_bits() == y.to_bits()),
                "portable tiling diverged at {m}x{n}x{k}"
            );
        }
    }

    /// Mostly zeros: about one entry in four live, some `-0.0`.
    fn sparse(len: usize, salt: u64) -> Vec<f32> {
        let dense = fill(len, salt);
        (0..len)
            .map(|i| {
                if (i * 7 + salt as usize).is_multiple_of(4) {
                    dense[i]
                } else {
                    [0.0, -0.0][i % 2]
                }
            })
            .collect()
    }

    /// `a`'s row lists, whatever its size and density.
    fn lists(rows: usize, cols: usize, a: &[f32]) -> ZeroLists {
        ZeroLists::build(rows, cols, a, a.iter().filter(|&&x| x != 0.0).count())
    }

    #[test]
    fn zero_lists_hold_the_live_entries_in_order_and_transpose_to_the_columns() {
        let (rows, cols) = (5, 9);
        let a = sparse(rows * cols, 3);
        let lists = lists(rows, cols, &a);
        assert_eq!(lists.rows(), rows);
        for r in 0..rows {
            let (idx, val) = lists.row(r);
            let want: Vec<(u16, f32)> = (0..cols)
                .filter(|&c| a[r * cols + c] != 0.0)
                .map(|c| (c as u16, a[r * cols + c]))
                .collect();
            let got: Vec<(u16, f32)> = idx.iter().copied().zip(val.iter().copied()).collect();
            assert_eq!(got, want, "row {r}");
        }
        let mut at = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                at[c * rows + r] = a[r * cols + c];
            }
        }
        assert_eq!(lists.transpose(cols), Some(super::tests::lists(cols, rows, &at)));
        let picked = ZeroLists::concat([(&lists, 4), (&lists, 0), (&lists, 4)].into_iter());
        let mut rows_a = a[4 * cols..].to_vec();
        rows_a.extend_from_slice(&a[..cols]);
        rows_a.extend_from_slice(&a[4 * cols..]);
        assert_eq!(picked, super::tests::lists(3, cols, &rows_a));
    }

    #[test]
    fn dense_empty_and_too_wide_operands_get_no_lists() {
        assert_eq!(ZeroLists::of_rows(64, 64, &fill(64 * 64, 1)), None, "six in seven live");
        assert_eq!(ZeroLists::of_rows(0, 8, &[]), None);
        assert_eq!(ZeroLists::of_rows(63, 64, &[0.0; 63 * 64]), None, "below MIN_LISTED");
        assert!(ZeroLists::of_rows(64, 64, &[0.0; 64 * 64]).is_some());
        assert_eq!(ZeroLists::of_rows(1, (1 << 16) + 1, &vec![0.0; (1 << 16) + 1]), None);
        assert!(ZeroLists::of_rows(1, 1 << 16, &vec![0.0; 1 << 16]).is_some());
        // Exactly half live is still listed.
        assert!(ZeroLists::of_rows(64, 64, &[1.0, 0.0, 2.0, -0.0].repeat(1024)).is_some());
    }

    #[test]
    fn listed_and_skipping_strips_are_bit_identical_to_reference() {
        for (m, n, k) in
            [(1, 64, 312), (3, 19, 40), (7, 192, KC + 9), (9, 16, 7), (100, 64, 312), (40, 3, 50)]
        {
            let a = sparse(m * k, (m + n) as u64);
            let at = sparse(k * m, (m * n) as u64);
            let b = fill(k * n, 9);
            let rows = lists(m, k, &a);
            let cols = lists(k, m, &at).transpose(m).unwrap();
            for skip in [Skip::Zeros, Skip::Lists(&rows)] {
                let mut f = vec![0.0f32; m * n];
                super::matmul(GemmKernel::Fast, m, n, k, &a, &b, skip, &mut f);
                assert_eq!(
                    bits(&f),
                    bits(&run(matmul, m, n, k, &a, &b, GemmKernel::Reference)),
                    "{m}x{n}x{k}"
                );
            }
            for skip in [Skip::Zeros, Skip::Lists(&cols)] {
                let mut f = vec![0.0f32; m * n];
                super::t_matmul(GemmKernel::Fast, m, n, k, &at, &b, skip, &mut f);
                let r = run(t_matmul, m, n, k, &at, &b, GemmKernel::Reference);
                assert_eq!(bits(&f), bits(&r), "t {m}x{n}x{k}");
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn parse_kernel_accepts_documented_spellings() {
        assert_eq!("fast".parse(), Ok(GemmKernel::Fast));
        assert_eq!("".parse(), Ok(GemmKernel::Fast));
        assert_eq!("ref".parse(), Ok(GemmKernel::Reference));
        assert_eq!("Reference".parse(), Ok(GemmKernel::Reference));
        assert_eq!(" REF ".parse(), Ok(GemmKernel::Reference));
        assert_eq!("simd".parse::<GemmKernel>(), Err(()));
    }

    #[test]
    fn override_wins_over_default_and_clears() {
        set_kernel_override(Some(GemmKernel::Reference));
        assert_eq!(active_kernel(), GemmKernel::Reference);
        set_kernel_override(Some(GemmKernel::Fast));
        assert_eq!(active_kernel(), GemmKernel::Fast);
        set_kernel_override(None);
        // Back to the env default — whichever it is, it must parse.
        let _ = active_kernel();
    }

    #[test]
    fn labels_are_the_bench_spellings() {
        assert_eq!(GemmKernel::Reference.label(), "ref");
        assert_eq!(GemmKernel::Fast.label(), "fast");
    }
}
