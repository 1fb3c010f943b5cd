//! Elementwise kernels at the GEMM's SIMD width.
//!
//! The bias+tanh epilogue of a layer's forward, the tanh backward and the
//! Adam step run once per element of every activation, gradient and
//! parameter, so they follow [`crate::gemm`]'s recipe: one safe-Rust
//! source, instantiated twice. `portable` is compiled for the baseline ISA;
//! on x86-64, `avx2` carries `#[target_feature(enable = "avx2")]`, so the
//! same loops run 8 lanes wide when the CPU has AVX2 (detected once, at
//! run time). Every operation is an IEEE-754 multiply, add, divide, square
//! root, compare or select, each rounded on its own (Rust never contracts
//! `a * b + c` into an FMA), and those round the same at any vector width.
//! So the two instantiations are bit-identical, which the tests below check
//! on the awkward inputs: signed zeros, subnormals, infinities, NaN, the
//! small-|x| branch of [`tanh`](crate::activation::tanh) and its clamp.

/// The constants of one Adam step (`crate::optim::Adam::step`), each
/// already rounded to `f32` exactly as the step's expression rounds it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AdamStep {
    pub beta1: f32,
    pub beta2: f32,
    /// `1 − β1`.
    pub one_minus_beta1: f32,
    /// `1 − β2`.
    pub one_minus_beta2: f32,
    /// `1 − β1ᵗ`.
    pub b1t: f32,
    /// `1 − β2ᵗ`.
    pub b2t: f32,
    pub lr: f32,
    pub eps: f32,
}

macro_rules! define_lanes {
    ($mod_name:ident $(, $feat:literal)?) => {
        pub(super) mod $mod_name {
            use super::AdamStep;
            use crate::activation::tanh;

            /// `z[r·n + j] = tanh(z[r·n + j] + bias[j])` for `n = bias.len()`.
            $( #[target_feature(enable = $feat)] )?
            pub(crate) fn bias_tanh(z: &mut [f32], bias: &[f32]) {
                for row in z.chunks_exact_mut(bias.len()) {
                    for (v, &b) in row.iter_mut().zip(bias) {
                        *v = tanh(*v + b);
                    }
                }
            }

            /// `g *= 1 − y²`: tanh's derivative from its output.
            $( #[target_feature(enable = $feat)] )?
            pub(crate) fn tanh_backward(g: &mut [f32], y: &[f32]) {
                for (g, &y) in g.iter_mut().zip(y) {
                    *g *= 1.0 - y * y;
                }
            }

            /// One Adam step of `x` from its gradient `g` and moments `m`,
            /// `v`; leaves `g` zeroed.
            $( #[target_feature(enable = $feat)] )?
            pub(crate) fn adam(x: &mut [f32], g: &mut [f32], m: &mut [f32], v: &mut [f32], c: AdamStep) {
                // Once `1 − β1ᵗ` rounds to 1.0 the division is `m / 1.0`,
                // which is `m` exactly, so it is skipped.
                if c.b1t == 1.0 {
                    adam_loop::<true>(x, g, m, v, c)
                } else {
                    adam_loop::<false>(x, g, m, v, c)
                }
            }

            #[inline(always)]
            fn adam_loop<const UNBIASED_M: bool>(
                x: &mut [f32],
                g: &mut [f32],
                m: &mut [f32],
                v: &mut [f32],
                c: AdamStep,
            ) {
                let slots = x.iter_mut().zip(g.iter_mut()).zip(m.iter_mut().zip(v.iter_mut()));
                for ((x, g), (m, v)) in slots {
                    let grad = *g;
                    *m = c.beta1 * *m + c.one_minus_beta1 * grad;
                    let mhat = if UNBIASED_M { *m } else { *m / c.b1t };
                    *v = c.beta2 * *v + c.one_minus_beta2 * grad * grad;
                    let vhat = *v / c.b2t;
                    *x -= c.lr * mhat / (vhat.sqrt() + c.eps);
                    *g = 0.0;
                }
            }
        }
    };
}

define_lanes!(portable);
#[cfg(target_arch = "x86_64")]
define_lanes!(avx2, "avx2");

/// Call `$kernel` in the widest instantiation the CPU supports.
macro_rules! widest {
    ($kernel:ident($($arg:expr),*)) => {{
        #[cfg(target_arch = "x86_64")]
        if crate::gemm::avx2_available() {
            // SAFETY: `avx2::*` only *requires* AVX2 (its body is safe Rust
            // compiled with the feature enabled), and the runtime check
            // above proved the CPU has it.
            return unsafe { avx2::$kernel($($arg),*) };
        }
        portable::$kernel($($arg),*)
    }};
}

/// `z[r·n + j] = tanh(z[r·n + j] + bias[j])` over the rows of a row-major
/// `z` with `n = bias.len() > 0` columns.
pub(crate) fn bias_tanh(z: &mut [f32], bias: &[f32]) {
    widest!(bias_tanh(z, bias))
}

/// `g[i] *= 1 − y[i]²`.
pub(crate) fn tanh_backward(g: &mut [f32], y: &[f32]) {
    widest!(tanh_backward(g, y))
}

/// One Adam step over one parameter's slices; zeroes `g`.
pub(crate) fn adam(x: &mut [f32], g: &mut [f32], m: &mut [f32], v: &mut [f32], c: AdamStep) {
    widest!(adam(x, g, m, v, c))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The inputs the kernels must agree on: signed zeros, subnormals,
    /// infinities, NaN, tanh's small-|x| branch edge (4e-4), its clamp
    /// (±7.9053106) and the floats around both, plus a sweep.
    fn awkward() -> Vec<f32> {
        let mut xs = vec![
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE / 3.0,
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MAX,
            f32::MIN,
        ];
        for edge in [4e-4f32, 7.905_310_6] {
            for d in -3i32..=3 {
                let x = f32::from_bits((edge.to_bits() as i32 + d) as u32);
                xs.extend([x, -x]);
            }
        }
        xs.extend((0..997).map(|i| (i as f32 - 498.0) * 0.021));
        xs.extend((0..64).map(|i| 3.9e-4 * (i as f32 / 63.0) - 1.9e-4));
        xs
    }

    /// Equal bit for bit, except that a NaN matches any NaN: IEEE 754
    /// leaves a NaN result's sign and payload open, and x86 propagates
    /// whichever operand the compiled instruction order favours (the GEMM's
    /// carve-out, `crate::gemm`).
    fn assert_same(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: lengths");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let same = x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
            assert!(
                same,
                "{what}: element {i}: {x:e} ({:#010x}) vs {y:e} ({:#010x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }

    /// Whether this host runs the AVX2 instantiation; without it the
    /// dispatched kernels are the portable ones and there is nothing to
    /// compare.
    fn have_avx2() -> bool {
        #[cfg(target_arch = "x86_64")]
        return crate::gemm::avx2_available();
        #[allow(unreachable_code)]
        false
    }

    #[test]
    fn bias_tanh_is_bit_identical_across_widths_and_equal_to_apply() {
        let xs = awkward();
        let bias = [0.0f32, -0.0, 1e-3, -7.0, f32::from_bits(3), 0.5, -2.5];
        // Every awkward value meets every bias, at every lane position.
        let mut z: Vec<f32> = xs.iter().flat_map(|&x| std::iter::repeat_n(x, bias.len())).collect();
        let want: Vec<f32> = z
            .chunks(bias.len())
            .flat_map(|r| r.iter().zip(&bias).map(|(&v, &b)| tanh_of(v + b)))
            .collect();
        let mut p = z.clone();
        portable::bias_tanh(&mut p, &bias);
        assert_same(&p, &want, "portable vs scalar tanh");
        bias_tanh(&mut z, &bias);
        assert_same(&z, &p, &format!("dispatched (avx2: {}) vs portable", have_avx2()));
    }

    fn tanh_of(x: f32) -> f32 {
        crate::activation::tanh(x)
    }

    #[test]
    fn tanh_backward_is_bit_identical_across_widths() {
        let xs = awkward();
        let ys: Vec<f32> = xs.iter().rev().copied().collect();
        let want: Vec<f32> = xs.iter().zip(&ys).map(|(&g, &y)| g * (1.0 - y * y)).collect();
        let mut p = xs.clone();
        portable::tanh_backward(&mut p, &ys);
        assert_same(&p, &want, "portable vs scalar");
        let mut d = xs.clone();
        tanh_backward(&mut d, &ys);
        assert_same(&d, &p, &format!("dispatched (avx2: {}) vs portable", have_avx2()));
    }

    /// The Adam step as `Adam::step` wrote it before the kernels: every
    /// division in place, the gradient zeroed afterwards.
    fn adam_by_division(x: &mut [f32], g: &mut [f32], m: &mut [f32], v: &mut [f32], c: AdamStep) {
        for i in 0..x.len() {
            m[i] = c.beta1 * m[i] + (1.0 - c.beta1) * g[i];
            let mhat = m[i] / c.b1t;
            v[i] = c.beta2 * v[i] + (1.0 - c.beta2) * g[i] * g[i];
            let vhat = v[i] / c.b2t;
            x[i] -= c.lr * mhat / (vhat.sqrt() + c.eps);
        }
        g.fill(0.0);
    }

    #[test]
    fn adam_matches_the_division_form_at_every_step_and_width() {
        let (beta1, beta2) = (0.9f32, 0.999f32);
        let xs = awkward();
        // Each lane keeps its awkward value's kind from step to step, so
        // the finite lanes stay finite through all 400 steps while the
        // others carry infinities and NaN.
        let grads =
            |t: i32| -> Vec<f32> { xs.iter().map(|&x| x * ((t % 7) as f32 - 3.0)).collect() };
        let start = [xs.clone(), xs.clone(), xs.iter().map(|x| x.abs()).collect()];
        let (mut want, mut state, mut wide) = (start.clone(), start.clone(), start);
        let mut first_shortcut = None;
        for t in 1..=400 {
            let c = AdamStep {
                beta1,
                beta2,
                one_minus_beta1: 1.0 - beta1,
                one_minus_beta2: 1.0 - beta2,
                b1t: 1.0 - beta1.powi(t),
                b2t: 1.0 - beta2.powi(t),
                lr: 3e-4,
                eps: 1e-8,
            };
            if c.b1t == 1.0 && first_shortcut.is_none() {
                first_shortcut = Some(t);
            }
            let [x, m, v] = &mut want;
            adam_by_division(x, &mut grads(t), m, v, c);
            let mut g = grads(t);
            let [x, m, v] = &mut state;
            portable::adam(x, &mut g, m, v, c);
            assert!(g.iter().all(|&g| g.to_bits() == 0), "the step zeroes the gradient");
            let [x, m, v] = &mut wide;
            adam(x, &mut grads(t), m, v, c);
            for (what, (a, b)) in ["x", "m", "v"].iter().zip(want.iter().zip(&state)) {
                assert_same(a, b, &format!("t = {t}: portable {what} vs division form"));
            }
            for (what, (a, b)) in ["x", "m", "v"].iter().zip(state.iter().zip(&wide)) {
                assert_same(a, b, &format!("t = {t}: dispatched {what} (avx2: {})", have_avx2()));
            }
        }
        let finite = want[0].iter().filter(|x| x.is_finite()).count();
        assert!(finite > 1000, "most lanes must stay finite ({finite})");
        // `Adam::step`'s docs name this step.
        assert_eq!(first_shortcut, Some(165), "the first step whose `1 − β1ᵗ` is 1.0");
    }
}
