//! Dual-path GEMM equivalence harness: the fast tiled kernels must be
//! indistinguishable from the naive reference loops everywhere the stack
//! can observe them.
//!
//! The contract (see `crates/nn/src/gemm.rs`): every product is
//! **bit-identical** across kernels for every input whose result is
//! NaN-free — degenerate shapes, tile remainders, and all three transpose
//! variants included. Inputs that produce NaN get NaN-for-NaN agreement
//! (IEEE 754 leaves a NaN result's sign/payload unspecified, so the bit
//! pattern is a codegen artifact, not a semantic one). On top of the raw
//! kernels, the fused bias+activation entry point and whole-network
//! forward/backward/optimise loops must land on the same bits under
//! either kernel.
//!
//! Tests that flip the process-wide kernel override serialise on one
//! mutex; everything else pins kernels per call via the `*_with` methods.

use std::sync::Mutex;

use agsc::nn::gemm::{self, KC, MR, NR};
use agsc::nn::{loss, Activation, Adam, GemmKernel, Init, Linear, Matrix, Mlp};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

static KERNEL_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with the process-wide kernel override forced to `kernel`,
/// holding the override mutex so concurrent tests cannot interleave.
fn with_kernel<R>(kernel: GemmKernel, f: impl FnOnce() -> R) -> R {
    let _guard = KERNEL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    gemm::set_kernel_override(Some(kernel));
    let out = f();
    gemm::set_kernel_override(None);
    out
}

/// Deterministic mixed fill: an LCG stream with exact zeros sprinkled in
/// (zeros exercise the lanes the seed's old sparsity shortcut used to
/// skip) and both signs represented.
fn fill(rows: usize, cols: usize, salt: u64) -> Matrix {
    let mut state = salt.wrapping_add(0x9E37_79B9_7F4A_7C15);
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if i % 9 == 0 {
                    0.0
                } else {
                    ((state >> 33) as i32) as f32 / 2.0f32.powi(31)
                }
            })
            .collect(),
    )
}

/// Like [`fill`] but laced with NaN, ±∞, and ±0.0 so `0·∞` and `∞−∞`
/// actually occur inside the accumulation chains.
fn fill_non_finite(rows: usize, cols: usize, salt: u64) -> Matrix {
    let base = fill(rows, cols, salt);
    Matrix::from_vec(
        rows,
        cols,
        base.as_slice()
            .iter()
            .enumerate()
            .map(|(i, &v)| match i % 11 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => -0.0,
                _ => v,
            })
            .collect(),
    )
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The documented contract, element by element: bitwise equality away
/// from NaN, NaN-for-NaN agreement on the rest.
fn assert_nan_identical(a: &Matrix, b: &Matrix, ctx: &str) {
    assert_eq!(a.shape(), b.shape(), "{ctx}: shape");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        if x.is_nan() || y.is_nan() {
            assert!(x.is_nan() && y.is_nan(), "{ctx}: elem {i} NaN on one path only: {x} vs {y}");
        } else {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: elem {i} diverged: {x} vs {y}");
        }
    }
}

/// Shapes covering every boundary the tiled kernels have: empty operands,
/// scalars, exact tile multiples, off-by-one remainders around the
/// `MR`/`NR` register tile and the `KC` packing stripe, and a few bulk
/// shapes that span several panels and stripes.
fn shape_grid() -> Vec<(usize, usize, usize)> {
    vec![
        (0, 0, 0),
        (0, 5, 3),
        (4, 0, 3),
        (4, 5, 0),
        (1, 1, 1),
        (MR, NR, 8),
        (MR - 1, NR - 1, 3),
        (MR + 1, NR + 1, KC + 1),
        (2 * MR + 3, NR + 5, KC - 1),
        (1, 2 * NR + 1, 9),
        (13, 2, KC + 44),
        (64, 64, 64),
        (65, 31, 130),
    ]
}

/// All three products on one (m, n, k) cell, ref vs fast, bitwise.
fn assert_cell_bit_identical(m: usize, n: usize, k: usize, salt: u64) {
    let a = fill(m, k, salt);
    let b = fill(k, n, salt ^ 0xABCD);
    let at = a.transpose(); // k×m, so atᵀ·b reproduces a·b
    let bt = b.transpose(); // n×k, so a·btᵀ reproduces a·b
    let ctx = format!("{m}x{n}x{k}");
    assert_eq!(
        bits(&a.matmul_with(&b, GemmKernel::Fast)),
        bits(&a.matmul_with(&b, GemmKernel::Reference)),
        "matmul {ctx}"
    );
    assert_eq!(
        bits(&at.t_matmul_with(&b, GemmKernel::Fast)),
        bits(&at.t_matmul_with(&b, GemmKernel::Reference)),
        "t_matmul {ctx}"
    );
    assert_eq!(
        bits(&a.matmul_t_with(&bt, GemmKernel::Fast)),
        bits(&a.matmul_t_with(&bt, GemmKernel::Reference)),
        "matmul_t {ctx}"
    );
}

#[test]
fn all_three_products_bit_identical_across_the_shape_grid() {
    for (m, n, k) in shape_grid() {
        assert_cell_bit_identical(m, n, k, (m * 31 + n * 7 + k) as u64);
    }
}

#[test]
fn all_three_products_bit_identical_on_random_shapes() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x6E44);
    for trial in 0..60 {
        let m = rng.gen_range(0..48);
        let n = rng.gen_range(0..48);
        let k = rng.gen_range(0..72);
        assert_cell_bit_identical(m, n, k, trial);
    }
}

#[test]
fn degenerate_products_have_the_right_shape_and_zero_contents() {
    // k = 0 is a real case (empty rollout slices): the product must be an
    // all-zero m×n matrix on both paths, not a panic.
    for kernel in [GemmKernel::Reference, GemmKernel::Fast] {
        let a = fill(4, 0, 1);
        let b = fill(0, 5, 2);
        let y = a.matmul_with(&b, kernel);
        assert_eq!(y.shape(), (4, 5), "{kernel:?}");
        assert!(y.as_slice().iter().all(|v| v.to_bits() == 0), "{kernel:?}: k=0 must yield +0.0");
    }
}

#[test]
fn non_finite_inputs_agree_up_to_nan_identity() {
    // 0·∞ and ∞−∞ occur inside the chains; the kernels must agree on
    // *which* elements are NaN and match bitwise on all others. (The old
    // reference skipped zero lhs terms, which would have turned some of
    // these NaNs into finite values — that shortcut is gone precisely so
    // this holds.)
    for (m, n, k) in [(5usize, 15usize, 17usize), (7, 17, 300), (64, 33, 64)] {
        let a = fill_non_finite(m, k, 3);
        let b = fill_non_finite(k, n, 4);
        let at = a.transpose();
        let bt = b.transpose();
        assert_nan_identical(
            &a.matmul_with(&b, GemmKernel::Fast),
            &a.matmul_with(&b, GemmKernel::Reference),
            &format!("matmul {m}x{n}x{k}"),
        );
        assert_nan_identical(
            &at.t_matmul_with(&b, GemmKernel::Fast),
            &at.t_matmul_with(&b, GemmKernel::Reference),
            &format!("t_matmul {m}x{n}x{k}"),
        );
        assert_nan_identical(
            &a.matmul_t_with(&bt, GemmKernel::Fast),
            &a.matmul_t_with(&bt, GemmKernel::Reference),
            &format!("matmul_t {m}x{n}x{k}"),
        );
    }
}

#[test]
fn fused_bias_activation_is_bit_identical_to_unfused_on_both_kernels() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    for act in [Activation::Tanh, Activation::Relu, Activation::Sigmoid, Activation::Linear] {
        let mut l = Linear::new(19, 23, Init::XavierUniform, &mut rng);
        for (i, bv) in l.b.value.as_mut_slice().iter_mut().enumerate() {
            *bv = (i as f32 * 0.37).sin();
        }
        let x = fill(9, 19, 5);
        for kernel in [GemmKernel::Reference, GemmKernel::Fast] {
            let (fused, unfused) = with_kernel(kernel, || {
                let fused = l.forward_act(&x, act);
                let unfused =
                    act.forward(&x.matmul(&l.w.value).add_row_broadcast(l.b.value.row(0)));
                (fused, unfused)
            });
            assert_eq!(bits(&fused), bits(&unfused), "{act:?} under {kernel:?}");
        }
    }
}

#[test]
fn mlp_batched_forward_is_kernel_invariant() {
    let net = Mlp::tanh(&[21, 32, 32, 2], &mut ChaCha8Rng::seed_from_u64(21));
    let x = fill(33, 21, 6); // batch spans several MR tiles with remainder
    let y_ref = with_kernel(GemmKernel::Reference, || net.forward_batch(&x));
    let y_fast = with_kernel(GemmKernel::Fast, || net.forward_batch(&x));
    assert_eq!(bits(&y_ref), bits(&y_fast), "batched MLP forward must not depend on the kernel");
}

#[test]
fn training_loop_parameters_are_kernel_invariant() {
    // A complete optimise loop — forward, MSE, backward, Adam — must land
    // on bit-identical parameters whichever kernel ran every GEMM. This is
    // the in-process miniature of the trainer golden suites.
    let x = fill(17, 7, 8);
    let target = fill(17, 3, 9);
    let run = |kernel| {
        with_kernel(kernel, || {
            let mut net = Mlp::tanh(&[7, 24, 3], &mut ChaCha8Rng::seed_from_u64(77));
            let mut opt = Adam::new(1e-2);
            for _ in 0..25 {
                net.zero_grad();
                let pred = net.forward(&x);
                let (_, grad) = loss::mse(&pred, &target);
                net.backward(&x, &grad);
                opt.step(&mut net.params_mut());
            }
            net.flat_values()
        })
    };
    let p_ref = run(GemmKernel::Reference);
    let p_fast = run(GemmKernel::Fast);
    assert_eq!(p_ref.len(), p_fast.len());
    for (i, (r, f)) in p_ref.iter().zip(&p_fast).enumerate() {
        assert_eq!(r.to_bits(), f.to_bits(), "param {i} diverged after training: {r} vs {f}");
    }
}

#[test]
fn kernel_selection_spellings_and_labels() {
    // The override helper itself: forced kernels win and clear correctly,
    // and the labels are the spellings the bench results and CI grep for.
    assert_eq!(GemmKernel::Reference.label(), "ref");
    assert_eq!(GemmKernel::Fast.label(), "fast");
    let _guard = KERNEL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    gemm::set_kernel_override(Some(GemmKernel::Reference));
    assert_eq!(gemm::active_kernel(), GemmKernel::Reference);
    gemm::set_kernel_override(Some(GemmKernel::Fast));
    assert_eq!(gemm::active_kernel(), GemmKernel::Fast);
    gemm::set_kernel_override(None);
}

/// An observation-like matrix: each row is one time step of entities of
/// three features (the last one possibly cut short), and each entity is
/// blind — blanked to zeros — about 70% of the time, as out-of-range
/// entities are (§IV-B1). Like an agent's consecutive time steps, an
/// entity keeps its state over runs of rows: each row redraws it with
/// probability 1/6. A blind entity's row is blanked to `-0.0` rather than
/// `+0.0` one time in five. Visible entities hold values in `[0, 1)`.
fn fill_observation(rows: usize, cols: usize, salt: u64) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(salt);
    let mut blind: Vec<bool> = (0..cols.div_ceil(3)).map(|_| rng.gen::<f32>() < 0.7).collect();
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows {
        for (e, blind) in blind.iter_mut().enumerate() {
            if rng.gen::<f32>() < 1.0 / 6.0 {
                *blind = rng.gen::<f32>() < 0.7;
            }
            let blank = if rng.gen::<f32>() < 0.2 { -0.0 } else { 0.0 };
            for _ in 3 * e..cols.min(3 * e + 3) {
                data.push(if *blind { blank } else { rng.gen::<f32>() });
            }
        }
    }
    Matrix::from_vec(rows, cols, data)
}

/// The share of depth steps over `a`'s full `MR`-wide blocks whose `MR`
/// operands are all zero: the steps a zero-skipping full tile drops.
/// Blocks run down the rows of an `m×k` `a` (`matmul`), or across the
/// columns of a `k×m` one (`t_matmul`, `depth_is_row`).
fn all_zero_step_share(a: &Matrix, depth_is_row: bool) -> f64 {
    let (width, depth) = if depth_is_row { (a.cols(), a.rows()) } else { (a.rows(), a.cols()) };
    let operand = |i: usize, d: usize| if depth_is_row { a[(d, i)] } else { a[(i, d)] };
    let (mut zero, mut steps) = (0usize, 0usize);
    for i0 in (0..width / MR * MR).step_by(MR) {
        for d in 0..depth {
            steps += 1;
            zero += usize::from((i0..i0 + MR).all(|i| operand(i, d) == 0.0));
        }
    }
    zero as f64 / steps.max(1) as f64
}

/// Assert `a` is sparse enough for the zero-skipping full tiles to run:
/// half zeros passes the whole-matrix check, and with at least a quarter
/// of the full blocks' depth steps all-zero, some block and stripe is
/// bound to list at most three quarters of its steps as live.
fn assert_skips_full_tiles(a: &Matrix, depth_is_row: bool) {
    let zeros = a.as_slice().iter().filter(|v| **v == 0.0).count();
    assert!(2 * zeros >= a.len(), "an observation-like fill must be at least half zeros");
    let share = all_zero_step_share(a, depth_is_row);
    assert!(share >= 0.25, "only {share:.2} of the full blocks' depth steps are all-zero");
}

/// Shapes that reach the zero-skipping tiles (more than one panel, enough
/// work to scan for) next to the grid's edge cases: the actor's first
/// layer at batch 100 both ways round, and a depth past one `KC` stripe.
fn observation_shape_grid() -> Vec<(usize, usize, usize)> {
    let mut shapes = shape_grid();
    shapes.extend([(100, 64, 312), (312, 64, 100), (2 * MR + 1, 2 * NR + 3, KC + 60)]);
    shapes
}

#[test]
fn observation_sparse_lhs_is_bit_identical_for_all_three_products() {
    for (m, n, k) in observation_shape_grid() {
        let salt = (m * 131 + n * 17 + k) as u64;
        let a = fill_observation(m, k, salt); // m×k for matmul and matmul_t
        let at = fill_observation(k, m, salt ^ 1); // k×m for t_matmul
        let b = fill(k, n, salt ^ 2);
        let bt = fill(n, k, salt ^ 3);
        if m * k >= 1000 {
            assert_skips_full_tiles(&a, false);
            assert_skips_full_tiles(&at, true);
        }
        let ctx = format!("{m}x{n}x{k}");
        assert_eq!(
            bits(&a.matmul_with(&b, GemmKernel::Fast)),
            bits(&a.matmul_with(&b, GemmKernel::Reference)),
            "matmul {ctx}"
        );
        assert_eq!(
            bits(&at.t_matmul_with(&b, GemmKernel::Fast)),
            bits(&at.t_matmul_with(&b, GemmKernel::Reference)),
            "t_matmul {ctx}"
        );
        assert_eq!(
            bits(&a.matmul_t_with(&bt, GemmKernel::Fast)),
            bits(&a.matmul_t_with(&bt, GemmKernel::Reference)),
            "matmul_t {ctx}"
        );
    }
}

/// `b` with ±∞ and NaN written into the given depth rows (`k×n`, so a
/// depth row is a row) or depth columns (`n×k`, `depth_is_col`).
fn poison(b: &Matrix, depths: &[usize], depth_is_col: bool) -> Matrix {
    let mut b = b.clone();
    let specials = [f32::INFINITY, f32::NAN, f32::NEG_INFINITY];
    for (i, &d) in depths.iter().enumerate() {
        let other = if depth_is_col { b.rows() } else { b.cols() };
        let o = (i * 7) % other;
        let at = if depth_is_col { (o, d) } else { (d, o) };
        b[at] = specials[i % specials.len()];
    }
    b
}

/// The depth indices where `a` has at least one zero operand: column `c`
/// of an `m×k` `a`, or row `r` of a `k×m` one (`depth_is_row`).
fn zero_depths(a: &Matrix, depth_is_row: bool) -> Vec<usize> {
    let depth = if depth_is_row { a.rows() } else { a.cols() };
    (0..depth)
        .filter(|&d| {
            if depth_is_row {
                a.row(d).contains(&0.0)
            } else {
                (0..a.rows()).any(|r| a[(r, d)] == 0.0)
            }
        })
        .step_by(5)
        .collect()
}

#[test]
fn non_finite_rhs_behind_zero_lhs_operands_stays_nan_where_reference_is() {
    // 0 · ∞ is NaN: a zero-skipping kernel that dropped these terms would
    // return finite values where the reference returns NaN.
    for (m, n, k) in [(100, 64, 312), (312, 64, 100), (2 * MR + 1, 2 * NR + 3, KC + 60)] {
        let a = fill_observation(m, k, 5);
        let at = fill_observation(k, m, 6);
        assert_skips_full_tiles(&a, false);
        assert_skips_full_tiles(&at, true);
        let b = poison(&fill(k, n, 7), &zero_depths(&a, false), false);
        let bt_rows = poison(&fill(k, n, 8), &zero_depths(&at, true), false);
        let bt = poison(&fill(n, k, 9), &zero_depths(&a, false), true);
        let fast = a.matmul_with(&b, GemmKernel::Fast);
        assert!(fast.as_slice().iter().any(|v| v.is_nan()), "the poison must reach the output");
        assert_nan_identical(
            &fast,
            &a.matmul_with(&b, GemmKernel::Reference),
            &format!("matmul {m}x{n}x{k}"),
        );
        assert_nan_identical(
            &at.t_matmul_with(&bt_rows, GemmKernel::Fast),
            &at.t_matmul_with(&bt_rows, GemmKernel::Reference),
            &format!("t_matmul {m}x{n}x{k}"),
        );
        assert_nan_identical(
            &a.matmul_t_with(&bt, GemmKernel::Fast),
            &a.matmul_t_with(&bt, GemmKernel::Reference),
            &format!("matmul_t {m}x{n}x{k}"),
        );
    }
}

#[test]
fn small_batches_and_narrow_heads_are_bit_identical() {
    // Batch 1–7 rows (the register-strip kernels), and 1–2-wide outputs or
    // 1–2-deep products (the narrow kernels), against every other size.
    let widths = [1, 2, 3, NR + 1, 2 * NR + 5];
    for m in (1..=7).chain([8, 9, 17, 33, 100]) {
        for &n in &widths {
            for &k in &widths {
                assert_cell_bit_identical(m, n, k, (m * 1000 + n * 10 + k) as u64);
            }
        }
    }
    for (m, n, k) in [(64, 1, 100), (64, 2, 100), (100, 64, 1), (100, 64, 2), (1, 2, KC + 9)] {
        assert_cell_bit_identical(m, n, k, (m + n + k) as u64);
    }
}

#[test]
fn reused_scratch_never_leaks_into_a_later_product() {
    // A fresh thread starts with empty pack buffers; big, then small, then
    // big shapes make each call reuse what the one before it left behind.
    std::thread::spawn(|| {
        let shapes = [
            (100, 64, 312),
            (9, 17, 3),
            (7, 40, 5),
            (312, 64, 100),
            (13, NR + 1, KC + 1),
            (8, 3, 2),
            (65, 100, 300),
            (1, 1, 1),
            (100, 64, 312),
        ];
        for (i, &(m, n, k)) in shapes.iter().enumerate() {
            assert_cell_bit_identical(m, n, k, i as u64);
            let a = fill_observation(m, k, i as u64);
            let b = fill(k, n, i as u64 + 50);
            assert_eq!(
                bits(&a.matmul_with(&b, GemmKernel::Fast)),
                bits(&a.matmul_with(&b, GemmKernel::Reference)),
                "observation matmul {m}x{n}x{k} after the shapes before it"
            );
        }
    })
    .join()
    .expect("the scratch-reuse sequence must match the reference");
}

// ---------------------------------------------------------------------------
// Zero lists: the fast path's index of a mostly-zero left operand, kept by
// the matrix and rebuilt after every mutation.
// ---------------------------------------------------------------------------

/// A mostly-zero `rows × cols` matrix whose rows have distinct live sets:
/// row `r` is live where `(c·(r+2) + r) mod 5 == 0` (about a fifth of its
/// entries), every seventh row and every eleventh column are all zeros,
/// and the blanks alternate `+0.0` and `-0.0`.
fn fill_listed(rows: usize, cols: usize, salt: u64) -> Matrix {
    let dense = fill(rows, cols, salt);
    let live =
        |r: usize, c: usize| (c * (r + 2) + r).is_multiple_of(5) && r % 7 != 3 && c % 11 != 4;
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| {
                let (r, c) = (i / cols, i % cols);
                if live(r, c) {
                    dense.as_slice()[i] + 2.0
                } else {
                    [0.0, -0.0][i % 2]
                }
            })
            .collect(),
    )
}

/// `matmul` and `t_matmul` of sparse left operands (which get zero lists)
/// against `b`, fast against reference, bitwise.
fn assert_listed_products_match(m: usize, n: usize, k: usize, salt: u64) {
    let a = fill_listed(m, k, salt);
    let at = fill_listed(k, m, salt ^ 1);
    let b = fill(k, n, salt ^ 2);
    let ctx = format!("{m}x{n}x{k}");
    assert_eq!(
        bits(&a.matmul_with(&b, GemmKernel::Fast)),
        bits(&a.matmul_with(&b, GemmKernel::Reference)),
        "listed matmul {ctx}"
    );
    assert_eq!(
        bits(&at.t_matmul_with(&b, GemmKernel::Fast)),
        bits(&at.t_matmul_with(&b, GemmKernel::Reference)),
        "listed t_matmul {ctx}"
    );
}

#[test]
fn listed_products_are_bit_identical_across_widths_and_depths() {
    // Widths the critics run (16, 64), several register blocks (192), and
    // one that is no multiple of 8; depths inside one KC stripe and past it.
    for n in [16, 64, 192, 13] {
        for k in [7, 100, 312, KC + 40] {
            for m in [8, 50, 100] {
                assert_listed_products_match(m, n, k, (m * 7 + n * 3 + k) as u64);
            }
        }
    }
}

#[test]
fn listed_products_read_the_right_list_on_every_call() {
    // One left operand, reused as the memo keeps its lists: the forward and
    // weight-gradient products again and again, and against a second `b`.
    let a = fill_listed(100, 312, 1);
    for salt in 0..3 {
        let b = fill(312, 64, salt);
        let dy = fill(100, 64, salt + 10);
        for _ in 0..2 {
            assert_eq!(
                bits(&a.matmul_with(&b, GemmKernel::Fast)),
                bits(&a.matmul_with(&b, GemmKernel::Reference))
            );
            assert_eq!(
                bits(&a.t_matmul_with(&dy, GemmKernel::Fast)),
                bits(&a.t_matmul_with(&dy, GemmKernel::Reference))
            );
        }
    }
}

#[test]
fn non_finite_rhs_behind_listed_zeros_falls_back_to_dense() {
    // ±∞ and NaN in `b` exactly where the left operand is zero: a kernel that
    // skipped those terms would miss `0·∞ = NaN`.
    for (m, n, k) in [(100, 64, 312), (50, 13, KC + 40), (9, 192, 20)] {
        let a = fill_listed(m, k, 3);
        let at = fill_listed(k, m, 4);
        let b = poison(&fill(k, n, 5), &zero_depths(&a, false), false);
        let b_rows = poison(&fill(k, n, 6), &zero_depths(&at, true), false);
        let fast = a.matmul_with(&b, GemmKernel::Fast);
        assert!(fast.as_slice().iter().any(|v| v.is_nan()), "the poison must reach the output");
        let ctx = format!("{m}x{n}x{k}");
        assert_nan_identical(&fast, &a.matmul_with(&b, GemmKernel::Reference), &ctx);
        let fast_t = at.t_matmul_with(&b_rows, GemmKernel::Fast);
        assert!(fast_t.as_slice().iter().any(|v| v.is_nan()), "the poison must reach the output");
        assert_nan_identical(&fast_t, &at.t_matmul_with(&b_rows, GemmKernel::Reference), &ctx);
    }
}

#[test]
fn small_batch_strips_skip_zero_operands_bit_identically() {
    // Batch 1–7 rows with zero entries, against finite and non-finite `b`.
    for m in 1..=7 {
        for (n, k) in [(16, 5), (64, 312), (13, KC + 9), (3, 40)] {
            let salt = (m * 100 + n + k) as u64;
            let a = fill_listed(m, k, salt);
            let at = fill_listed(k, m, salt ^ 1);
            let b = fill(k, n, salt ^ 2);
            let ctx = format!("{m}x{n}x{k}");
            assert_eq!(
                bits(&a.matmul_with(&b, GemmKernel::Fast)),
                bits(&a.matmul_with(&b, GemmKernel::Reference)),
                "strip matmul {ctx}"
            );
            assert_eq!(
                bits(&at.t_matmul_with(&b, GemmKernel::Fast)),
                bits(&at.t_matmul_with(&b, GemmKernel::Reference)),
                "strip t_matmul {ctx}"
            );
            let bad = poison(&b, &zero_depths(&a, false), false);
            assert_nan_identical(
                &a.matmul_with(&bad, GemmKernel::Fast),
                &a.matmul_with(&bad, GemmKernel::Reference),
                &format!("strip matmul, non-finite b, {ctx}"),
            );
        }
    }
}

#[test]
fn small_batch_matmul_t_is_bit_identical() {
    // `dY·Wᵀ` at batch 1–7: one ascending-k dot product per output.
    for m in 1..=7 {
        for (n, k) in [(64, 312), (312, 64), (13, 3), (1, 40), (9, KC + 1)] {
            let a = fill(m, k, (m + n) as u64);
            let b = fill(n, k, (m * k) as u64);
            assert_eq!(
                bits(&a.matmul_t_with(&b, GemmKernel::Fast)),
                bits(&a.matmul_t_with(&b, GemmKernel::Reference)),
                "matmul_t {m}x{n}x{k}"
            );
        }
    }
}

#[test]
fn stacked_and_gathered_operands_match_reference() {
    // `vstack` and `gather_rows` derive their lists from their sources':
    // sparse sources, a dense one among them (no lists), and repeats.
    let parts = [fill_listed(40, 312, 1), fill_listed(30, 312, 2), fill_listed(30, 312, 3)];
    let dense = fill(20, 312, 4);
    let b = fill(312, 64, 5);
    let sparse = Matrix::vstack(&[&parts[0], &parts[1], &parts[2]]);
    let mixed = Matrix::vstack(&[&parts[0], &dense, &parts[2]]);
    for stacked in [&sparse, &mixed] {
        let picks: Vec<usize> = (0..stacked.rows()).rev().step_by(3).chain([0, 0, 7]).collect();
        let gathered = stacked.gather_rows(&picks);
        let dy = fill(gathered.rows(), 64, 6);
        for x in [stacked, &gathered] {
            assert_eq!(
                bits(&x.matmul_with(&b, GemmKernel::Fast)),
                bits(&x.matmul_with(&b, GemmKernel::Reference))
            );
        }
        assert_eq!(
            bits(&gathered.t_matmul_with(&dy, GemmKernel::Fast)),
            bits(&gathered.t_matmul_with(&dy, GemmKernel::Reference))
        );
    }
}

/// `a` after one mutation, and the fast products on it against the
/// reference on the same content: a stale zero index would read the old
/// content's lists.
fn assert_mutation_is_seen(what: &str, mutate: impl Fn(&mut Matrix)) {
    let mut a = fill_listed(80, 60, 9);
    let b = fill(60, 16, 10);
    let dy = fill(80, 16, 11);
    // Build the index (and the column lists) on the old content.
    let _ = a.matmul_with(&b, GemmKernel::Fast);
    let _ = a.t_matmul_with(&dy, GemmKernel::Fast);
    mutate(&mut a);
    assert_eq!(a.rows(), 80, "{what}: the mutations keep the shape");
    assert_eq!(
        bits(&a.matmul_with(&b, GemmKernel::Fast)),
        bits(&a.matmul_with(&b, GemmKernel::Reference)),
        "{what}: matmul"
    );
    assert_eq!(
        bits(&a.t_matmul_with(&dy, GemmKernel::Fast)),
        bits(&a.t_matmul_with(&dy, GemmKernel::Reference)),
        "{what}: t_matmul"
    );
}

#[test]
fn every_mutation_drops_the_zero_index() {
    // Each mutation turns zeros live (and some live entries to zero), so a
    // kept index would miss or invent terms.
    let other = fill_listed(80, 60, 12);
    assert_mutation_is_seen("as_mut_slice", |a| a.as_mut_slice()[3] = 1.5);
    assert_mutation_is_seen("row_mut", |a| a.row_mut(3).fill(0.25));
    assert_mutation_is_seen("index_mut", |a| a[(10, 4)] = -2.0);
    assert_mutation_is_seen("map_inplace", |a| a.map_inplace(|x| if x == 0.0 { 0.5 } else { 0.0 }));
    assert_mutation_is_seen("fill_zero", |a| a.fill_zero());
    assert_mutation_is_seen("add_scaled", |a| a.add_scaled(&other, 0.5));
    assert_mutation_is_seen("add_assign", |a| *a += &other);
    assert_mutation_is_seen("clone_from", |a| a.clone_from(&other));
    assert_mutation_is_seen("push_rows", |a| {
        // Same shape afterwards: the first 79 rows of `other`, then one more.
        let mut grown = Matrix::default();
        grown.push_rows(79, &other.as_slice()[..79 * 60]);
        let _ = grown.matmul_with(&fill(60, 16, 1), GemmKernel::Fast);
        grown.push_rows(1, &[0.75; 60]);
        *a = grown;
    });
}

#[test]
fn two_threads_racing_to_first_use_agree_with_reference() {
    // Both threads find the matrix unindexed; one builds the lists while
    // the other waits, and both products read the same finished lists.
    for round in 0..8 {
        let a = fill_listed(100, 312, round);
        let b = fill(312, 64, round + 1);
        let dy = fill(100, 64, round + 2);
        let want = (
            bits(&a.matmul_with(&b, GemmKernel::Reference)),
            bits(&a.t_matmul_with(&dy, GemmKernel::Reference)),
        );
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let run = || {
                barrier.wait();
                (
                    bits(&a.matmul_with(&b, GemmKernel::Fast)),
                    bits(&a.t_matmul_with(&dy, GemmKernel::Fast)),
                )
            };
            let other = s.spawn(run);
            assert_eq!(run(), want, "round {round}: this thread");
            assert_eq!(other.join().unwrap(), want, "round {round}: the other thread");
        });
    }
}

#[test]
fn poisoning_one_weight_clears_its_finite_memo() {
    // A batch-1 strip skips `x`'s zeros once `w` is known finite; a NaN
    // written into `w` behind one of those zeros must reach the output.
    let x = fill_listed(1, 312, 3);
    let mut w = fill(312, 64, 4);
    let _ = x.matmul_with(&w, GemmKernel::Fast);
    let _ = fill_listed(100, 312, 5).matmul_with(&w, GemmKernel::Fast);
    let zero = (0..312).find(|&c| x[(0, c)] == 0.0).expect("x has zeros");
    w[(zero, 7)] = f32::NAN;
    for x in [x, fill_listed(100, 312, 5)] {
        let fast = x.matmul_with(&w, GemmKernel::Fast);
        assert!(fast.as_slice().iter().any(|v| v.is_nan()), "the NaN must reach the output");
        assert_nan_identical(&fast, &x.matmul_with(&w, GemmKernel::Reference), "poisoned weight");
    }
}
