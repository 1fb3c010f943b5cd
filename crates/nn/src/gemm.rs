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
//!   lanes the compiler autovectorizes. When `A` is at least half exact
//!   zeros (an observation's blind entities) and `B` is finite, `matmul`
//!   and `t_matmul` skip the depth steps whose `MR` A-operands are all
//!   zero. Batch-1–7 products run one register strip per row, and 1–2-wide
//!   outputs (or a 1–2-deep `matmul_t`) run small direct kernels. On
//!   x86-64 with AVX2 (detected at run time) the same safe-Rust kernels are
//!   compiled with `#[target_feature]` so the lanes widen to 256-bit ymm
//!   registers.
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
//! only after one scan proves `B` finite: against `±∞` or NaN a skipped
//! `0 · B` term would be NaN, so a call with a non-finite `B` stays dense
//! and NaN-for-NaN agreement holds exactly as for any other input.
//!
//! ## Selection
//!
//! `AGSC_GEMM=ref|fast` (default `fast`) picks the process-wide default;
//! [`set_kernel_override`] forces a path in-process (tests use this to run
//! both paths in one binary), and the `*_with` methods on `Matrix` pin a
//! single call. FLOP accounting happens in the `Matrix` wrappers *before*
//! dispatch, so both paths charge the identical `2·m·n·k` regardless of
//! tiling remainders.

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

/// Route one product to the widest tiled variant the CPU supports.
macro_rules! dispatch_fast {
    ($product:ident($($arg:expr),*)) => {{
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            // SAFETY: `tiled_avx2::*` only *requires* AVX2 (its body is safe
            // Rust compiled with the feature enabled), and the runtime check
            // above proved the CPU has it.
            unsafe { tiled_avx2::$product($($arg),*) }
            return;
        }
        tiled_portable::$product($($arg),*)
    }};
}

/// `out[m×n] += a[m×k] · b[k×n]` (all row-major).
pub(crate) fn matmul(
    kernel: GemmKernel,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    match kernel {
        GemmKernel::Reference => reference::matmul(m, n, k, a, b, out),
        GemmKernel::Fast => dispatch_fast!(matmul(m, n, k, a, b, out)),
    }
}

/// `out[m×n] += aᵀ · b` where `a` is `k×m` and `b` is `k×n` (row-major).
pub(crate) fn t_matmul(
    kernel: GemmKernel,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    match kernel {
        GemmKernel::Reference => reference::t_matmul(m, n, k, a, b, out),
        GemmKernel::Fast => dispatch_fast!(t_matmul(m, n, k, a, b, out)),
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
// are zero-filled), and a live-step list is written before it is read, so
// a previous call's values can never reach the next call's output.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Scratch {
    bpack: Vec<f32>,
    apack: Vec<f32>,
    steps: Vec<u16>,
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
fn prefix<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
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
            use super::{prefix, return_scratch, take_scratch, KC, MR, NR, SMALL_M};

            /// Lanes one small-`m` strip keeps in registers per pass.
            const STRIP: usize = 32;
            /// Rows a 1–2-wide `matmul` advances together.
            const NARROW_ROWS: usize = 8;
            /// Output rows a 1–2-wide `t_matmul` advances together.
            const NARROW_T: usize = 32;

            /// Whether at least half of `a` is exact zeros (either sign).
            /// Counts a chunk at a time and stops once the answer is known.
            $( #[target_feature(enable = $feat)] )?
            fn mostly_zero(a: &[f32]) -> bool {
                let (mut zeros, mut seen) = (0, 0);
                for c in a.chunks(256) {
                    zeros += c.iter().map(|&x| u32::from(x == 0.0)).sum::<u32>() as usize;
                    seen += c.len();
                    if 2 * zeros >= a.len() {
                        return true;
                    }
                    if 2 * (zeros + a.len() - seen) < a.len() {
                        return false;
                    }
                }
                false
            }

            /// Whether `b` holds no ±∞ and no NaN.
            $( #[target_feature(enable = $feat)] )?
            fn all_finite(b: &[f32]) -> bool {
                b.chunks(256).all(|c| {
                    c.iter().fold(0u32, |hi, x| hi.max(x.to_bits() & 0x7fff_ffff)) < 0x7f80_0000
                })
            }

            /// Whether a `matmul`/`t_matmul` may skip the depth steps whose
            /// A-operands are zero. Every output chain starts at `+0.0` and
            /// so never holds `-0.0`; a skipped term is `±0 · finite = ±0`,
            /// and adding `±0` to such a chain changes no bit. With a
            /// non-finite `b` the term could be NaN, so the call stays dense.
            /// A block's list of live steps only repays its scan when more
            /// than one panel (`n > NR`) runs over it, and a dense `a` is
            /// turned away by one cheap count before any block scans it.
            $( #[target_feature(enable = $feat)] )?
            fn skip_zeros(n: usize, a: &[f32], b: &[f32]) -> bool {
                n > NR && mostly_zero(a) && all_finite(b)
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

            /// The depth steps `0..kc` whose `MR` A-operands are not all
            /// zero, written into `buf`: the only steps a zero-skipping tile
            /// has to run. `None` when more than three quarters are live:
            /// too few are zero to repay the indirection (DESIGN §17 has
            /// the census behind the cutoff).
            $( #[target_feature(enable = $feat)] )?
            fn live_steps(lhs: impl Lhs, kc: usize, buf: &mut [u16]) -> Option<&[u16]> {
                let mut len = 0;
                for kk in 0..kc {
                    buf[len] = kk as u16;
                    len += usize::from(lhs.at(kk).iter().fold(false, |live, &x| live | (x != 0.0)));
                }
                (4 * len <= 3 * kc).then_some(&buf[..len])
            }

            /// One `MR×NR` register tile: loads the partial sums of the live
            /// `mh×jw` corner at `out[at..]` (row stride `n`), extends every
            /// chain by the stripe's depth steps in ascending order (only
            /// those `steps` lists, when zero steps are skipped), and stores
            /// the corner back. `FULL` is `mh == MR && jw == NR`. Lanes
            /// outside the corner compute on padding and are never stored.
            /// `acc` is only ever indexed by constants or copied whole, so
            /// it stays in registers.
            #[allow(clippy::too_many_arguments)]
            $( #[target_feature(enable = $feat)] )?
            fn tile<const FULL: bool>(
                lhs: impl Lhs,
                steps: Option<&[u16]>,
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
                match steps {
                    None => {
                        for (kk, bl) in panel.chunks_exact(NR).enumerate() {
                            let bl: &[f32; NR] = bl.try_into().unwrap();
                            let av = lhs.at(kk);
                            for mm in 0..MR {
                                for jj in 0..NR {
                                    acc[mm][jj] += av[mm] * bl[jj];
                                }
                            }
                        }
                    }
                    Some(steps) => {
                        for &kk in steps {
                            let kk = usize::from(kk);
                            let bl: &[f32; NR] = panel[kk * NR..(kk + 1) * NR].try_into().unwrap();
                            let av = lhs.at(kk);
                            for mm in 0..MR {
                                for jj in 0..NR {
                                    acc[mm][jj] += av[mm] * bl[jj];
                                }
                            }
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
            /// When skipping zeros, the block's live steps are listed once
            /// for all its panels.
            #[allow(clippy::too_many_arguments)]
            $( #[target_feature(enable = $feat)] )?
            fn block(
                lhs: impl Lhs,
                skip: bool,
                kc: usize,
                bpack: &[f32],
                steps: &mut [u16],
                out: &mut [f32],
                n: usize,
                (i0, mh): (usize, usize),
            ) {
                let steps = if skip { live_steps(lhs, kc, steps) } else { None };
                for (p, panel) in bpack.chunks_exact(kc * NR).enumerate() {
                    let j0 = p * NR;
                    let live = (mh, NR.min(n - j0));
                    if live == (MR, NR) {
                        tile::<true>(lhs, steps, panel, out, i0 * n + j0, n, live);
                    } else {
                        tile::<false>(lhs, steps, panel, out, i0 * n + j0, n, live);
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
            #[allow(clippy::too_many_arguments)]
            $( #[target_feature(enable = $feat)] )?
            fn tiled(
                m: usize,
                n: usize,
                k: usize,
                a: &[f32],
                b: &[f32],
                out: &mut [f32],
                (a_kmajor, b_rows_are_n): (bool, bool),
                skip: bool,
            ) {
                let mut scratch = take_scratch();
                let super::Scratch { bpack, apack, steps } = &mut scratch;
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
                    let (apack, steps) = (prefix(apack, kc * MR), prefix(steps, kc));
                    for i0 in (0..m).step_by(MR) {
                        let mh = MR.min(m - i0);
                        let blk = (i0, mh);
                        if !a_kmajor {
                            let mut rows = [&a[..0]; MR];
                            for (mm, row) in rows.iter_mut().enumerate() {
                                *row = &a[(i0 + mm.min(mh - 1)) * k + k0..][..kc];
                            }
                            block(Rows(rows), skip, kc, bpack, steps, out, n, blk);
                        } else if mh == MR {
                            let lhs = Steps(&a[k0 * m + i0..], m);
                            block(lhs, skip, kc, bpack, steps, out, n, blk);
                        } else {
                            pack_a_kmajor(m, mh, k0, &a[i0..], apack);
                            block(Steps(apack, MR), skip, kc, bpack, steps, out, n, blk);
                        }
                    }
                    k0 += kc;
                }
                return_scratch(scratch);
            }

            /// One output row of a product with too few rows to fill a
            /// tile: `out_row += Σ_kk a[at + kk·stride] · b[kk, :]`, the
            /// row's chains held in registers `STRIP` lanes at a time.
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
            ) {
                for j0 in (0..n).step_by(STRIP) {
                    let jw = STRIP.min(n - j0);
                    let mut acc = [0.0f32; STRIP];
                    acc[..jw].copy_from_slice(&out_row[j0..][..jw]);
                    if jw == STRIP {
                        for kk in 0..k {
                            let av = a[at + kk * stride];
                            let bl: &[f32; STRIP] = b[kk * n + j0..][..STRIP].try_into().unwrap();
                            for jj in 0..STRIP {
                                acc[jj] += av * bl[jj];
                            }
                        }
                    } else {
                        for kk in 0..k {
                            let av = a[at + kk * stride];
                            for (o, &bv) in acc[..jw].iter_mut().zip(&b[kk * n + j0..][..jw]) {
                                *o += av * bv;
                            }
                        }
                    }
                    out_row[j0..][..jw].copy_from_slice(&acc[..jw]);
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

            $( #[target_feature(enable = $feat)] )?
            pub(super) fn matmul(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
                if m == 0 || n == 0 || k == 0 {
                    return;
                }
                match n {
                    1 => narrow_matmul::<1>(m, k, a, b, out),
                    2 => narrow_matmul::<2>(m, k, a, b, out),
                    _ if m < SMALL_M => {
                        for (i, row) in out.chunks_exact_mut(n).enumerate() {
                            strip(n, k, a, i * k, 1, b, row);
                        }
                    }
                    _ => tiled(m, n, k, a, b, out, (false, false), skip_zeros(n, a, b)),
                }
            }

            $( #[target_feature(enable = $feat)] )?
            pub(super) fn t_matmul(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
                if m == 0 || n == 0 || k == 0 {
                    return;
                }
                match n {
                    1 => narrow_t_matmul::<1>(m, k, a, b, out),
                    2 => narrow_t_matmul::<2>(m, k, a, b, out),
                    _ if m < SMALL_M => {
                        for (i, row) in out.chunks_exact_mut(n).enumerate() {
                            strip(n, k, a, i, m, b, row);
                        }
                    }
                    _ => tiled(m, n, k, a, b, out, (true, false), skip_zeros(n, a, b)),
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
                    _ => tiled(m, n, k, a, b, out, (false, true), false),
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
            tiled_portable::matmul(m, n, k, &a, &b, &mut p);
            assert!(
                f.iter().zip(&p).all(|(x, y)| x.to_bits() == y.to_bits()),
                "portable tiling diverged at {m}x{n}x{k}"
            );
        }
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
