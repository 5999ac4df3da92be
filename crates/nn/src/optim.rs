//! Optimizers: SGD (with optional momentum and weight decay) and Adam
//! (Kingma & Ba 2015) — the paper trains every neural model with Adam at
//! learning rate 1e-3 (§V-D).

use crate::param::{ParamId, ParamStore};
use std::collections::HashMap;
use vsan_autograd::Gradients;
use vsan_tensor::Tensor;

/// Common interface so trainers can swap optimizers.
pub trait Optimizer {
    /// Apply one update step from the given gradients.
    fn step(&mut self, store: &mut ParamStore, grads: &Gradients);
    /// Current learning rate.
    fn learning_rate(&self) -> f32;
    /// Override the learning rate (for decay schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain SGD with optional momentum and decoupled L2 weight decay.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: HashMap<ParamId, Tensor>,
}

impl Sgd {
    /// SGD with the given learning rate, no momentum, no weight decay.
    pub fn new(lr: f32) -> Self {
        Sgd { lr, momentum: 0.0, weight_decay: 0.0, velocity: HashMap::new() }
    }

    /// Builder: set momentum coefficient.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Builder: set decoupled L2 weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore, grads: &Gradients) {
        for (&id, grad) in grads.iter() {
            let lr = self.lr;
            if self.momentum > 0.0 {
                let vel = self
                    .velocity
                    .entry(id)
                    .or_insert_with(|| Tensor::zeros_like(grad));
                for (v, &g) in vel.data_mut().iter_mut().zip(grad.data()) {
                    *v = self.momentum * *v + g;
                }
                let vel = self.velocity[&id].clone();
                let p = store.get_mut(id);
                for (w, &v) in p.data_mut().iter_mut().zip(vel.data()) {
                    *w -= lr * v;
                }
            } else {
                let p = store.get_mut(id);
                for (w, &g) in p.data_mut().iter_mut().zip(grad.data()) {
                    *w -= lr * g;
                }
            }
            if self.weight_decay > 0.0 {
                let wd = lr * self.weight_decay;
                let p = store.get_mut(id);
                p.map_in_place(|w| w - wd * w);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam with bias-corrected first/second moments.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: HashMap<ParamId, Tensor>,
    v: HashMap<ParamId, Tensor>,
}

impl Adam {
    /// Adam with the paper's defaults: β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    pub fn new(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: HashMap::new(), v: HashMap::new() }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore, grads: &Gradients) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for (&id, grad) in grads.iter() {
            let m = self.m.entry(id).or_insert_with(|| Tensor::zeros_like(grad));
            let v = self.v.entry(id).or_insert_with(|| Tensor::zeros_like(grad));
            let p = store.get_mut(id);
            for (((w, &g), mv), vv) in p
                .data_mut()
                .iter_mut()
                .zip(grad.data())
                .zip(m.data_mut())
                .zip(v.data_mut())
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * g;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * g * g;
                let m_hat = *mv / b1t;
                let v_hat = *vv / b2t;
                *w -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsan_autograd::Graph;

    /// One gradient step on loss = (w − 3)² should move w toward 3.
    fn quadratic_step(opt: &mut dyn Optimizer, store: &mut ParamStore, id: ParamId) -> f32 {
        let mut g = Graph::new();
        let w = store.var(&mut g, id);
        let shifted = g.affine(w, 1.0, -3.0);
        let sq = g.mul(shifted, shifted).unwrap();
        let loss = g.sum_all(sq);
        let grads = g.backward(loss).unwrap();
        opt.step(store, &grads);
        store.get(id).data()[0]
    }

    #[test]
    fn sgd_descends_quadratic() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(vec![0.0], &[1, 1]).unwrap());
        let mut opt = Sgd::new(0.1);
        let mut prev_dist = 3.0f32;
        for _ in 0..50 {
            let w = quadratic_step(&mut opt, &mut store, id);
            let dist = (w - 3.0).abs();
            assert!(dist <= prev_dist + 1e-6);
            prev_dist = dist;
        }
        assert!(prev_dist < 0.01, "did not converge: dist {prev_dist}");
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let mut plain_store = ParamStore::new();
        let p = plain_store.add("w", Tensor::from_vec(vec![0.0], &[1, 1]).unwrap());
        let mut mom_store = ParamStore::new();
        let m = mom_store.add("w", Tensor::from_vec(vec![0.0], &[1, 1]).unwrap());
        let mut plain = Sgd::new(0.01);
        let mut with_mom = Sgd::new(0.01).with_momentum(0.9);
        for _ in 0..20 {
            quadratic_step(&mut plain, &mut plain_store, p);
            quadratic_step(&mut with_mom, &mut mom_store, m);
        }
        let d_plain = (plain_store.get(p).data()[0] - 3.0).abs();
        let d_mom = (mom_store.get(m).data()[0] - 3.0).abs();
        assert!(d_mom < d_plain, "momentum {d_mom} vs plain {d_plain}");
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(vec![10.0], &[1, 1]).unwrap());
        let mut opt = Sgd::new(0.1).with_weight_decay(0.5);
        // Zero-gradient step: only decay applies.
        let mut g = Graph::new();
        let w = store.var(&mut g, id);
        let z = g.scale(w, 0.0);
        let loss = g.sum_all(z);
        let grads = g.backward(loss).unwrap();
        opt.step(&mut store, &grads);
        assert!(store.get(id).data()[0] < 10.0);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(vec![-5.0], &[1, 1]).unwrap());
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            quadratic_step(&mut opt, &mut store, id);
        }
        let w = store.get(id).data()[0];
        assert!((w - 3.0).abs() < 0.05, "adam ended at {w}");
        assert_eq!(opt.steps(), 300);
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, |Δw| of the very first Adam step ≈ lr.
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::from_vec(vec![0.0], &[1, 1]).unwrap());
        let mut opt = Adam::new(0.01);
        let w1 = quadratic_step(&mut opt, &mut store, id);
        assert!((w1.abs() - 0.01).abs() < 1e-4, "first step {w1}");
    }

    #[test]
    fn learning_rate_is_adjustable() {
        let mut opt = Adam::new(0.001);
        assert_eq!(opt.learning_rate(), 0.001);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
        let mut sgd = Sgd::new(0.1);
        sgd.set_learning_rate(0.2);
        assert_eq!(sgd.learning_rate(), 0.2);
    }
}
