//! Trainable parameters and the Adam optimizer.
//!
//! Parameters live *outside* the tape so a fresh tape can be built per
//! training step without copying optimizer state. Gradients computed by
//! [`crate::Tensor::backward`] are accumulated directly into each
//! [`Param`]'s `grad` buffer.

use std::cell::RefCell;
use std::rc::Rc;

use rand::Rng;

use crate::matrix::Matrix;

pub(crate) struct ParamInner {
    pub name: String,
    pub value: Matrix,
    pub grad: Matrix,
    /// Adam first-moment estimate.
    m: Matrix,
    /// Adam second-moment estimate.
    v: Matrix,
}

/// A trainable parameter: a matrix plus its gradient and Adam state.
///
/// Cloning a `Param` clones the *handle*; both clones refer to the same
/// underlying storage.
#[derive(Clone)]
pub struct Param {
    pub(crate) inner: Rc<RefCell<ParamInner>>,
}

impl Param {
    /// Creates a parameter from an initial value.
    pub fn new(name: impl Into<String>, value: Matrix) -> Self {
        let (r, c) = value.shape();
        Param {
            inner: Rc::new(RefCell::new(ParamInner {
                name: name.into(),
                value,
                grad: Matrix::zeros(r, c),
                m: Matrix::zeros(r, c),
                v: Matrix::zeros(r, c),
            })),
        }
    }

    /// Creates a zero-initialized parameter (used for biases).
    pub fn zeros(name: impl Into<String>, rows: usize, cols: usize) -> Self {
        Param::new(name, Matrix::zeros(rows, cols))
    }

    /// Creates a Xavier-initialized parameter (used for weights).
    pub fn xavier<R: Rng>(name: impl Into<String>, rows: usize, cols: usize, rng: &mut R) -> Self {
        Param::new(name, Matrix::xavier(rows, cols, rng))
    }

    /// Creates a uniformly-initialized parameter with the given limit.
    pub fn uniform<R: Rng>(
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        limit: f32,
        rng: &mut R,
    ) -> Self {
        Param::new(name, Matrix::uniform(rows, cols, limit, rng))
    }

    /// The parameter's name (used in diagnostics).
    pub fn name(&self) -> String {
        self.inner.borrow().name.clone()
    }

    /// `(rows, cols)` of the parameter value.
    pub fn shape(&self) -> (usize, usize) {
        self.inner.borrow().value.shape()
    }

    /// A copy of the current value.
    pub fn value(&self) -> Matrix {
        self.inner.borrow().value.clone()
    }

    /// Reads the current value in place, without the copy [`Param::value`]
    /// makes.
    pub fn with_value<R>(&self, read: impl FnOnce(&Matrix) -> R) -> R {
        read(&self.inner.borrow().value)
    }

    /// A copy of the accumulated gradient.
    pub fn grad(&self) -> Matrix {
        self.inner.borrow().grad.clone()
    }

    /// Overwrites the value (used by step-by-step training and tests).
    pub fn set_value(&self, value: Matrix) {
        let mut inner = self.inner.borrow_mut();
        assert_eq!(inner.value.shape(), value.shape(), "set_value shape mismatch");
        inner.value = value;
    }

    /// Adds `delta` to the accumulated gradient.
    pub(crate) fn accumulate_grad(&self, delta: &Matrix) {
        self.inner.borrow_mut().grad.add_assign(delta);
    }

    /// Adds `delta` to the gradient rows selected by `indices`
    /// (scatter-add, used by embedding gathers).
    pub(crate) fn accumulate_grad_rows(&self, indices: &[usize], delta: &Matrix) {
        let mut inner = self.inner.borrow_mut();
        assert_eq!(indices.len(), delta.rows());
        for (i, &row) in indices.iter().enumerate() {
            let cols = inner.grad.cols();
            let dst = &mut inner.grad.row_slice_mut(row)[..cols];
            for (d, s) in dst.iter_mut().zip(delta.row_slice(i)) {
                *d += *s;
            }
        }
    }

    /// Resets the gradient to zero.
    pub fn zero_grad(&self) {
        self.inner.borrow_mut().grad.fill_zero();
    }

    /// Resets the Adam moment estimates to zero. Incremental training
    /// resets moments at the start of every increment so each increment is
    /// a pure function of the parameter *values* — the state a model
    /// snapshot actually persists — rather than of hidden optimizer state
    /// that would diverge after a save/load round trip.
    pub fn reset_moments(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.m.fill_zero();
        inner.v.fill_zero();
    }

    /// Number of scalar entries.
    pub fn num_elements(&self) -> usize {
        let (r, c) = self.shape();
        r * c
    }

    /// True when both handles point at the same storage.
    pub fn same_as(&self, other: &Param) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }
}

impl std::fmt::Debug for Param {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        write!(f, "Param({}, {:?})", inner.name, inner.value.shape())
    }
}

/// A set of parameters plus an Adam optimizer, mirroring the paper's training
/// configuration (§VI-A4): Adam with learning rate 1e-3, weight decay 1e-2 and
/// linear learning-rate decay.
pub struct ParamSet {
    params: Vec<Param>,
    /// Base learning rate.
    pub lr: f32,
    /// Decoupled weight decay (AdamW style).
    pub weight_decay: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step: usize,
    /// When set, the learning rate decays linearly to zero at this step count.
    pub total_steps: Option<usize>,
    /// Gradient-norm clipping threshold; `None` disables clipping.
    pub grad_clip: Option<f32>,
}

impl ParamSet {
    /// Creates an empty set with the paper's default hyperparameters.
    pub fn new(lr: f32) -> Self {
        ParamSet {
            params: Vec::new(),
            lr,
            weight_decay: 0.01,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step: 0,
            total_steps: None,
            grad_clip: Some(5.0),
        }
    }

    /// Registers a parameter and returns it for convenience.
    pub fn register(&mut self, p: Param) -> Param {
        self.params.push(p.clone());
        p
    }

    /// Registers every parameter of another set (used to combine sub-models).
    pub fn extend(&mut self, other: &ParamSet) {
        for p in &other.params {
            self.params.push(p.clone());
        }
    }

    /// Registered parameters.
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// Total number of trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.params.iter().map(Param::num_elements).sum()
    }

    /// Zeroes every gradient.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// Zeroes every parameter's Adam moments (see [`Param::reset_moments`]).
    pub fn reset_moments(&self) {
        for p in &self.params {
            p.reset_moments();
        }
    }

    /// Effective learning rate after linear decay.
    pub fn current_lr(&self) -> f32 {
        match self.total_steps {
            Some(total) if total > 0 => {
                let frac = 1.0 - (self.step.min(total) as f32) / total as f32;
                self.lr * frac.max(0.0)
            }
            _ => self.lr,
        }
    }

    /// Applies one AdamW update using the accumulated gradients, then zeroes
    /// them. `scale` divides the gradients first (use `1/batch` to average).
    pub fn step(&mut self, scale: f32) {
        self.step += 1;
        let lr = self.current_lr();
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);

        // Global gradient-norm clipping across all parameters.
        let clip_scale = match self.grad_clip {
            Some(max_norm) => {
                let mut sq = 0.0f64;
                for p in &self.params {
                    let inner = p.inner.borrow();
                    sq += inner
                        .grad
                        .data()
                        .iter()
                        .map(|&g| (g as f64 * scale as f64).powi(2))
                        .sum::<f64>();
                }
                let norm = sq.sqrt() as f32;
                if norm > max_norm {
                    max_norm / norm
                } else {
                    1.0
                }
            }
            None => 1.0,
        };

        for p in &self.params {
            let mut inner = p.inner.borrow_mut();
            let ParamInner { value, grad, m, v, .. } = &mut *inner;
            for i in 0..value.len() {
                let g = grad.data()[i] * scale * clip_scale;
                if g == 0.0 && m.data()[i] == 0.0 && v.data()[i] == 0.0 {
                    // Untouched entry (common for embedding tables): skip the
                    // update entirely, including weight decay, to keep sparse
                    // steps cheap and rare rows stable.
                    continue;
                }
                let mi = self.beta1 * m.data()[i] + (1.0 - self.beta1) * g;
                let vi = self.beta2 * v.data()[i] + (1.0 - self.beta2) * g * g;
                m.data_mut()[i] = mi;
                v.data_mut()[i] = vi;
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                let update =
                    m_hat / (v_hat.sqrt() + self.eps) + self.weight_decay * value.data()[i];
                value.data_mut()[i] -= lr * update;
            }
            grad.fill_zero();
        }
    }

    /// Number of optimizer steps taken so far.
    pub fn steps_taken(&self) -> usize {
        self.step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn param_handles_share_storage() {
        let p = Param::zeros("w", 2, 2);
        let q = p.clone();
        p.set_value(Matrix::full(2, 2, 3.0));
        assert_eq!(q.value().get(1, 1), 3.0);
        assert!(p.same_as(&q));
    }

    #[test]
    fn accumulate_and_zero_grad() {
        let p = Param::zeros("w", 1, 2);
        p.accumulate_grad(&Matrix::row(vec![1.0, 2.0]));
        p.accumulate_grad(&Matrix::row(vec![1.0, 2.0]));
        assert_eq!(p.grad().data(), &[2.0, 4.0]);
        p.zero_grad();
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
    }

    #[test]
    fn scatter_add_rows() {
        let p = Param::zeros("emb", 3, 2);
        let delta = Matrix::from_vec(2, 2, vec![1.0, 1.0, 2.0, 2.0]);
        p.accumulate_grad_rows(&[2, 2], &delta);
        assert_eq!(p.grad().row_slice(2), &[3.0, 3.0]);
        assert_eq!(p.grad().row_slice(0), &[0.0, 0.0]);
    }

    #[test]
    fn adam_descends_quadratic() {
        // minimize f(w) = (w - 3)^2, grad = 2(w - 3)
        let p = Param::new("w", Matrix::row(vec![0.0]));
        let mut set = ParamSet::new(0.1);
        set.weight_decay = 0.0;
        set.grad_clip = None;
        set.register(p.clone());
        for _ in 0..400 {
            let w = p.value().get(0, 0);
            p.accumulate_grad(&Matrix::row(vec![2.0 * (w - 3.0)]));
            set.step(1.0);
        }
        assert!((p.value().get(0, 0) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn linear_decay_reaches_zero() {
        let mut set = ParamSet::new(1.0);
        set.total_steps = Some(10);
        assert!((set.current_lr() - 1.0).abs() < 1e-6);
        for _ in 0..10 {
            set.step(1.0);
        }
        assert!(set.current_lr() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_touched_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = Param::xavier("w", 4, 4, &mut rng);
        let before = p.value().norm();
        let mut set = ParamSet::new(0.01);
        set.register(p.clone());
        for _ in 0..50 {
            // tiny but nonzero grads so every entry is "touched"
            p.accumulate_grad(&Matrix::full(4, 4, 1e-12));
            set.step(1.0);
        }
        assert!(p.value().norm() < before);
    }

    #[test]
    fn untouched_rows_are_not_decayed() {
        let p = Param::new("emb", Matrix::full(2, 2, 1.0));
        let mut set = ParamSet::new(0.1);
        set.register(p.clone());
        // Only row 0 receives gradient.
        p.accumulate_grad_rows(&[0], &Matrix::row(vec![1.0, 1.0]));
        set.step(1.0);
        assert_eq!(p.value().row_slice(1), &[1.0, 1.0]);
        assert!(p.value().get(0, 0) < 1.0);
    }

    #[test]
    fn grad_clipping_bounds_update() {
        let p = Param::new("w", Matrix::row(vec![0.0]));
        let mut set = ParamSet::new(1.0);
        set.weight_decay = 0.0;
        set.grad_clip = Some(1.0);
        set.register(p.clone());
        p.accumulate_grad(&Matrix::row(vec![1e6]));
        set.step(1.0);
        // Adam caps per-step movement at ~lr regardless, but with clipping the
        // second moment stays small and the value remains modest.
        assert!(p.value().get(0, 0).abs() <= 1.5);
    }
}
