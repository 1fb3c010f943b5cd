//! Element-wise activations with analytic derivatives.

use crate::lanes;
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Supported element-wise activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Hyperbolic tangent — the paper's default for policy/value trunks.
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid (used inside the GRU gates).
    Sigmoid,
    /// Identity (no-op), for output layers.
    Linear,
}

impl Activation {
    /// Apply the activation to a single scalar. [`forward`](Self::forward)
    /// routes through this, and the fused bias+activation epilogue of
    /// [`crate::linear::Linear`] computes the same expression per scalar,
    /// which is what keeps the fused and unfused paths bit-identical.
    #[inline]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            Activation::Tanh => tanh(v),
            Activation::Relu => v.max(0.0),
            Activation::Sigmoid => sigmoid(v),
            Activation::Linear => v,
        }
    }

    /// `z[r·n + j] = act(z[r·n + j] + bias[j])` over the rows of a
    /// row-major GEMM output with `n = bias.len()` columns: the
    /// bias+activation epilogue. Per scalar it is exactly
    /// [`apply`](Self::apply) of the sum, but it matches on the activation
    /// once per matrix, so each arm is a plain loop the compiler vectorises;
    /// tanh, the hidden layers' activation, runs at the GEMM's SIMD width
    /// ([`crate::lanes`]).
    pub(crate) fn bias_act(self, z: &mut [f32], bias: &[f32]) {
        if bias.is_empty() {
            return;
        }
        match self {
            Activation::Tanh => lanes::bias_tanh(z, bias),
            Activation::Relu => each_row(z, bias, |v, b| (v + b).max(0.0)),
            Activation::Sigmoid => each_row(z, bias, |v, b| sigmoid(v + b)),
            Activation::Linear => each_row(z, bias, |v, b| v + b),
        }
    }

    /// Apply the activation element-wise.
    pub fn forward(self, x: &Matrix) -> Matrix {
        x.map(|v| self.apply(v))
    }

    /// Chain `grad` (`dL/dy`) through the activation in place, giving
    /// `dL/dz = dL/dy · f'(z)` with `f'` written in terms of the cached
    /// output `y = f(z)`, so layers cache only the output. Tanh's runs at
    /// the GEMM's SIMD width ([`crate::lanes`]). `Linear` leaves
    /// `grad` untouched, which is what `g · 1.0` computes.
    ///
    /// # Panics
    /// Panics if `grad` and `y` differ in shape.
    pub(crate) fn backward_from_output(self, grad: &mut Matrix, y: &Matrix) {
        assert_eq!(grad.shape(), y.shape(), "gradient and output shapes differ");
        let (grad, y) = (grad.as_mut_slice(), y.as_slice());
        match self {
            Activation::Tanh => lanes::tanh_backward(grad, y),
            Activation::Relu => {
                grad.iter_mut().zip(y).for_each(|(g, &y)| *g *= if y > 0.0 { 1.0 } else { 0.0 })
            }
            Activation::Sigmoid => grad.iter_mut().zip(y).for_each(|(g, &y)| *g *= y * (1.0 - y)),
            Activation::Linear => {}
        }
    }
}

/// `z[r·n + j] = f(z[r·n + j], bias[j])` for `n = bias.len()`.
fn each_row(z: &mut [f32], bias: &[f32], f: impl Fn(f32, f32) -> f32) {
    for row in z.chunks_exact_mut(bias.len()) {
        row.iter_mut().zip(bias).for_each(|(v, &b)| *v = f(*v, b));
    }
}

/// Hyperbolic tangent built from IEEE-754 multiply, add and divide alone,
/// so its bits are the same on every platform (libm's `tanhf` differs
/// between C libraries) and a loop over it vectorises.
///
/// This is Eigen's `ptanh` float form: an odd degree-13 numerator over an
/// even degree-6 denominator in Horner form, each step a plain multiply
/// then add (never a fused `mul_add`), and one division. The input is
/// first clamped to ±7.9053106, the largest bound below which this
/// evaluation order stays under 1 (Eigen's bound for its FMA form,
/// 7.9988117, rounds to exactly 1.0 at 108 inputs in between). Below
/// |x| = 4e-4 it returns `x`. Its largest error against `tanh` on
/// [-10, 10] is 4.1e-7, and |y| < 1 even at ±∞. NaN stays NaN and -0.0
/// stays -0.0 (`f32::clamp` passes NaN through, where `max`/`min` would
/// turn it into ±1 and hide it from the NaN guard).
#[inline]
pub fn tanh(x: f32) -> f32 {
    const CLAMP: f32 = 7.905_310_6;
    // Numerator x·(A1 + A3·x² + … + A13·x¹²).
    const A1: f32 = 4.893_524_6e-3;
    const A3: f32 = 6.372_619_5e-4;
    const A5: f32 = 1.485_722_35e-5;
    const A7: f32 = 5.122_297_3e-8;
    const A9: f32 = -8.604_672e-11;
    const A11: f32 = 2.000_188e-13;
    const A13: f32 = -2.760_768_4e-16;
    // Denominator B0 + B2·x² + B4·x⁴ + B6·x⁶.
    const B0: f32 = 4.893_525e-3;
    const B2: f32 = 2.268_434_7e-3;
    const B4: f32 = 1.185_347_1e-4;
    const B6: f32 = 1.198_258_4e-6;
    let c = x.clamp(-CLAMP, CLAMP);
    let x2 = c * c;
    let p = ((((((A13 * x2 + A11) * x2 + A9) * x2 + A7) * x2 + A5) * x2 + A3) * x2 + A1) * c;
    let q = ((B6 * x2 + B4) * x2 + B2) * x2 + B0;
    if x.abs() < 4e-4 {
        x
    } else {
        p / q
    }
}

/// Numerically-stable logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

/// Row-wise softmax (numerically stable: subtracts the row max).
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
    out
}

/// Row-wise log-softmax.
pub fn log_softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let log_sum = row.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
        for v in row.iter_mut() {
            *v -= log_sum;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn tanh_forward_and_derivative() {
        let x = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 1.0]);
        let y = Activation::Tanh.forward(&x);
        assert!(approx(y.as_slice()[1], 0.0));
        let mut d = Matrix::full(1, 3, 1.0);
        Activation::Tanh.backward_from_output(&mut d, &y);
        // tanh'(0) = 1
        assert!(approx(d.as_slice()[1], 1.0));
        // symmetric
        assert!(approx(d.as_slice()[0], d.as_slice()[2]));
    }

    /// Every `step`-th f32 bit pattern from `lo` up to `hi` (both finite
    /// and of one sign), in order.
    fn floats(lo: f32, hi: f32, step: u32) -> impl Iterator<Item = f32> {
        (lo.to_bits()..=hi.to_bits()).step_by(step as usize).map(f32::from_bits)
    }

    #[test]
    fn tanh_is_within_5e7_of_f64_tanh_on_a_dense_grid() {
        let mut worst = (0.0f64, 0.0f32);
        for i in 0..=2_000_000 {
            let x = -10.0 + i as f32 * 1e-5;
            let err = (tanh(x) as f64 - (x as f64).tanh()).abs();
            if err > worst.0 {
                worst = (err, x);
            }
        }
        assert!(worst.0 <= 5e-7, "error {:e} at x = {}", worst.0, worst.1);
    }

    #[test]
    fn tanh_is_odd_to_the_bit() {
        let grid = (0..=200_000).map(|i| i as f32 * 5e-5);
        for x in grid.chain(floats(1e-6, 1e-3, 997)).chain([f32::MAX, f32::INFINITY]) {
            assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "x = {x}");
        }
    }

    #[test]
    fn tanh_stays_inside_the_open_unit_interval() {
        // Every f32 in [6, 8], where the form comes closest to 1 (beyond
        // the clamp the output is constant), then a sweep of the rest.
        let near_one = floats(6.0, 8.0, 1);
        let sweep = floats(f32::MIN_POSITIVE, f32::MAX, 4099);
        for x in near_one.chain(sweep).chain([f32::MAX]) {
            let y = tanh(x);
            assert!(y < 1.0 && tanh(-x) > -1.0, "tanh({x}) = {y}");
        }
    }

    #[test]
    fn tanh_keeps_nan_infinities_and_signed_zero() {
        assert!(tanh(f32::NAN).is_nan());
        assert!(Activation::Tanh.apply(f32::NAN).is_nan(), "the NaN guard must see it");
        let (pos, neg) = (tanh(f32::INFINITY), tanh(f32::NEG_INFINITY));
        assert!(pos.is_finite() && pos > 0.999_999 && pos < 1.0, "{pos}");
        assert_eq!(neg.to_bits(), (-pos).to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(0.0).to_bits(), 0);
    }

    #[test]
    fn tanh_bits_are_fixed_by_ieee_754_alone() {
        // Multiply, add and divide in one order, with no fused multiply-add,
        // round the same way on every conforming platform, so these bits
        // hold everywhere. libm's `tanhf` promises no such thing.
        let pins = [
            (1e-5, 0x3727_c5ac),
            (4e-4, 0x39d1_b714),
            (0.1, 0x3dcc_1ebb),
            (0.5, 0x3eec_9a9f),
            (-1.0, 0xbf42_f7d6),
            (2.0, 0x3f76_ca83),
            (3.0, 0x3f7e_bbe8),
            (7.0, 0x3f7f_ffe4),
            (100.0, 0x3f7f_fffd),
        ];
        for (x, bits) in pins {
            assert_eq!(tanh(x).to_bits(), bits, "tanh({x}) = {}", tanh(x));
        }
    }

    #[test]
    fn relu_clips_negatives() {
        let x = Matrix::from_vec(1, 3, vec![-2.0, 0.0, 2.0]);
        let y = Activation::Relu.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
        let mut d = Matrix::full(1, 3, 1.0);
        Activation::Relu.backward_from_output(&mut d, &y);
        assert_eq!(d.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert!(approx(sigmoid(0.0), 0.5));
        assert!(sigmoid(100.0) <= 1.0 && sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) >= 0.0 && sigmoid(-100.0) < 1e-3);
    }

    #[test]
    fn softmax_rows_normalised() {
        let x = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let p = softmax_rows(&x);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!(approx(s, 1.0));
            assert!(p.row(r).iter().all(|&v| v > 0.0));
        }
        // monotone in logits
        assert!(p[(0, 2)] > p[(0, 1)] && p[(0, 1)] > p[(0, 0)]);
    }

    #[test]
    fn softmax_invariant_to_shift() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![101.0, 102.0, 103.0]);
        let pa = softmax_rows(&a);
        let pb = softmax_rows(&b);
        for (x, y) in pa.as_slice().iter().zip(pb.as_slice()) {
            assert!(approx(*x, *y));
        }
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = Matrix::from_vec(1, 4, vec![0.5, -0.5, 2.0, 0.0]);
        let ls = log_softmax_rows(&x);
        let p = softmax_rows(&x);
        for (a, b) in ls.as_slice().iter().zip(p.as_slice()) {
            assert!(approx(*a, b.ln()));
        }
    }
}
