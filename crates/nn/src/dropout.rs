//! Inverted dropout (Srivastava et al. 2014).

use rand::Rng;
use vsan_autograd::{Graph, Result, Var};

/// Inverted dropout: at train time each activation is dropped with
/// probability `p` and survivors are scaled by `1/(1-p)`, so evaluation is
/// a no-op. §V-G-3 of the paper sweeps `p` from 0 to 0.9 (Fig. 5).
#[derive(Debug, Clone, Copy)]
pub struct Dropout {
    p: f32,
}

impl Dropout {
    /// Create a dropout layer; `p` must be in `[0, 1)`.
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0,1), got {p}");
        Dropout { p }
    }

    /// The configured drop probability.
    pub fn rate(&self) -> f32 {
        self.p
    }

    /// Apply dropout. At evaluation time (`train = false`) or with `p = 0`
    /// the input is returned unchanged (no tape node is added).
    pub fn forward<R: Rng + ?Sized>(
        &self,
        g: &mut Graph,
        rng: &mut R,
        x: Var,
        train: bool,
    ) -> Result<Var> {
        if !train || self.p == 0.0 {
            return Ok(x);
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let n = g.value(x).numel();
        // Branch-free: at p = 0.5 a select on the draw is a coin-flip branch
        // per element. `scale·1.0 = scale` and `scale·0.0 = +0.0` are the
        // bit patterns the select produced, from the same draws.
        let mask = (0..n).map(|_| scale * f32::from(u8::from(rng.gen::<f32>() < keep))).collect();
        g.dropout(x, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vsan_tensor::Tensor;

    #[test]
    fn eval_mode_is_identity() {
        let d = Dropout::new(0.5);
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(&[4, 4]));
        let mut rng = StdRng::seed_from_u64(0);
        let y = d.forward(&mut g, &mut rng, x, false).unwrap();
        assert_eq!(x, y); // same node — no work done
    }

    #[test]
    fn zero_rate_is_identity_even_in_train() {
        let d = Dropout::new(0.0);
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(&[4]));
        let mut rng = StdRng::seed_from_u64(0);
        let y = d.forward(&mut g, &mut rng, x, true).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn train_mode_preserves_expectation() {
        let d = Dropout::new(0.3);
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(&[10_000]));
        let mut rng = StdRng::seed_from_u64(7);
        let y = d.forward(&mut g, &mut rng, x, true).unwrap();
        let mean: f32 =
            g.value(y).data().iter().sum::<f32>() / g.value(y).numel() as f32;
        assert!((mean - 1.0).abs() < 0.05, "inverted dropout should be mean-preserving, got {mean}");
        // Survivors carry the 1/(1-p) scale; the rest are exactly zero.
        for &v in g.value(y).data() {
            assert!(v == 0.0 || (v - 1.0 / 0.7).abs() < 1e-6);
        }
    }

    #[test]
    fn drop_fraction_tracks_rate() {
        let d = Dropout::new(0.8);
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(&[10_000]));
        let mut rng = StdRng::seed_from_u64(9);
        let y = d.forward(&mut g, &mut rng, x, true).unwrap();
        let dropped = g.value(y).data().iter().filter(|&&v| v == 0.0).count();
        let frac = dropped as f32 / 10_000.0;
        assert!((frac - 0.8).abs() < 0.02, "dropped fraction {frac}");
    }

    #[test]
    fn branch_free_mask_is_the_select_on_the_same_draws_bit_for_bit() {
        // The mask expression `forward` uses, held to the select it
        // replaced (written out here): same draw count, same stream,
        // same two bit patterns.
        for p in [0.2f32, 0.5] {
            let d = Dropout::new(p);
            let mut g = Graph::new();
            let x = g.constant(Tensor::ones(&[10_000]));
            let y = d.forward(&mut g, &mut StdRng::seed_from_u64(11), x, true).unwrap();

            let keep = 1.0 - p;
            let scale = 1.0 / keep;
            let mut rng = StdRng::seed_from_u64(11);
            for (i, &got) in g.value(y).data().iter().enumerate() {
                let want = if rng.gen::<f32>() < keep { scale } else { 0.0 };
                assert_eq!(got.to_bits(), want.to_bits(), "p = {p}, draw {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "dropout rate")]
    fn rejects_rate_one() {
        Dropout::new(1.0);
    }
}
