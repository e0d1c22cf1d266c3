//! First-order optimizers: SGD, RMSProp (the paper's choice, Appendix C)
//! and Adam.
//!
//! Optimizers hold per-parameter state keyed by the parameter's position in
//! the `Parameterized::params_mut` ordering, which every model keeps stable.

use crate::matrix::Matrix;
use crate::param::{Param, Parameterized};

/// A first-order gradient-descent optimizer.
pub trait Optimizer {
    /// Apply one update step to every parameter using its accumulated
    /// gradient, then leave the gradients untouched (callers `zero_grad`).
    fn step(&mut self, model: &mut dyn Parameterized);
}

/// Plain stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: Vec<Matrix>,
}

impl Sgd {
    /// SGD with learning rate `lr` and momentum coefficient `momentum`
    /// (0 disables momentum).
    pub fn new(lr: f64, momentum: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut dyn Parameterized) {
        let mut params = model.params_mut();
        ensure_state(&mut self.velocity, &params);
        for (p, v) in params.iter_mut().zip(&mut self.velocity) {
            let cells = p.value.data_mut().iter_mut().zip(p.grad.data());
            for ((x, &g), vel) in cells.zip(v.data_mut()) {
                *vel = self.momentum * *vel + g;
                *x -= self.lr * *vel;
            }
        }
    }
}

/// RMSProp: divide the learning rate by a running RMS of gradients.
/// The paper trains with RMSProp at lr = 1e-3 (Appendix C).
#[derive(Debug, Clone)]
pub struct RmsProp {
    lr: f64,
    decay: f64,
    eps: f64,
    mean_square: Vec<Matrix>,
}

impl RmsProp {
    /// RMSProp with learning rate `lr` and squared-gradient decay `decay`
    /// (PyTorch default 0.99; we default `eps` to 1e-8).
    pub fn new(lr: f64, decay: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&decay), "decay must be in [0,1)");
        RmsProp {
            lr,
            decay,
            eps: 1e-8,
            mean_square: Vec::new(),
        }
    }

    /// The paper's configuration: lr 1e-3, decay 0.99.
    pub fn paper_default() -> Self {
        RmsProp::new(1e-3, 0.99)
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self, model: &mut dyn Parameterized) {
        let mut params = model.params_mut();
        ensure_state(&mut self.mean_square, &params);
        for (p, ms) in params.iter_mut().zip(&mut self.mean_square) {
            let cells = p.value.data_mut().iter_mut().zip(p.grad.data());
            for ((x, &g), m) in cells.zip(ms.data_mut()) {
                *m = self.decay * *m + (1.0 - self.decay) * g * g;
                *x -= self.lr * g / (m.sqrt() + self.eps);
            }
        }
    }
}

/// Adam: bias-corrected first and second moment estimates.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with the usual (0.9, 0.999) betas.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, model: &mut dyn Parameterized) {
        let mut params = model.params_mut();
        ensure_state(&mut self.m, &params);
        ensure_state(&mut self.v, &params);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            let cells = p.value.data_mut().iter_mut().zip(p.grad.data());
            for (((x, &g), mi), vi) in cells.zip(m.data_mut()).zip(v.data_mut()) {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *x -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

/// Lazily create per-parameter state matrices matching the model's shapes.
fn ensure_state(state: &mut Vec<Matrix>, params: &[&mut Param]) {
    if state.len() != params.len() {
        *state = params
            .iter()
            .map(|p| Matrix::zeros(p.value.rows(), p.value.cols()))
            .collect();
    }
}

#[cfg(test)]
// Exact float assertions in these tests are deliberate (bitwise-reproducible
// quantities); float_cmp stays deny in library code.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    /// A 1-D quadratic bowl f(x) = (x - 3)²; gradient 2(x-3).
    struct Bowl {
        x: Param,
    }
    impl Parameterized for Bowl {
        fn params_mut(&mut self) -> Vec<&mut Param> {
            vec![&mut self.x]
        }
    }
    impl Bowl {
        fn new(x0: f64) -> Self {
            let mut p = Param::zeros(1, 1);
            p.value[(0, 0)] = x0;
            Bowl { x: p }
        }
        fn fill_grad(&mut self) {
            let x = self.x.value[(0, 0)];
            self.x.grad[(0, 0)] = 2.0 * (x - 3.0);
        }
        fn x(&self) -> f64 {
            self.x.value[(0, 0)]
        }
    }

    fn optimize(opt: &mut dyn Optimizer, steps: usize) -> f64 {
        let mut bowl = Bowl::new(10.0);
        for _ in 0..steps {
            bowl.zero_grad();
            bowl.fill_grad();
            opt.step(&mut bowl);
        }
        bowl.x()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let x = optimize(&mut Sgd::new(0.1, 0.0), 200);
        assert!((x - 3.0).abs() < 1e-6, "x={x}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let x = optimize(&mut Sgd::new(0.05, 0.9), 400);
        assert!((x - 3.0).abs() < 1e-6, "x={x}");
    }

    #[test]
    fn rmsprop_converges_on_quadratic() {
        let x = optimize(&mut RmsProp::new(0.05, 0.9), 2000);
        assert!((x - 3.0).abs() < 1e-2, "x={x}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = optimize(&mut Adam::new(0.1), 2000);
        assert!((x - 3.0).abs() < 1e-3, "x={x}");
    }

    #[test]
    fn optimizers_are_deterministic() {
        let a = optimize(&mut Adam::new(0.1), 100);
        let b = optimize(&mut Adam::new(0.1), 100);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_learning_rate_panics() {
        let _ = Sgd::new(0.0, 0.0);
    }
}
