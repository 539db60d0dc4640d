//! Seeded input generation shared by the workloads.

use ic_core::TmSeries;

/// splitmix64: a stateless, seedable 64-bit mixer.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Uniform in `(0, 1)` from stream `seed`, position `i`.
pub fn uniform(seed: u64, i: u64) -> f64 {
    ((splitmix(seed ^ splitmix(i)) >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// Standard normal (Box–Muller) from stream `seed`, position `i`.
pub fn normal(seed: u64, i: u64) -> f64 {
    let u1 = uniform(seed, 2 * i);
    let u2 = uniform(seed, 2 * i + 1);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Multiplies every entry of `series` by independent mean-one lognormal
/// noise of coefficient of variation `cv`: the departure from the exact
/// IC structure that real traffic shows and the estimators must absorb.
pub fn perturb(series: &mut TmSeries, cv: f64, seed: u64) {
    let sigma = (1.0 + cv * cv).ln().sqrt();
    for (k, v) in series.as_matrix_mut().as_mut_slice().iter_mut().enumerate() {
        *v *= (sigma * normal(seed, k as u64) - 0.5 * sigma * sigma).exp();
    }
}

/// `n` positive weights in `[lo, hi)`, normalized to sum to one.
pub fn weights(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
    let mut w: Vec<f64> = (0..n)
        .map(|i| lo + (hi - lo) * uniform(seed, i as u64))
        .collect();
    let sum: f64 = w.iter().sum();
    for v in &mut w {
        *v /= sum;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_seeded_and_well_formed() {
        assert_eq!(normal(7, 3), normal(7, 3));
        assert_ne!(normal(7, 3), normal(8, 3));
        let m: f64 = (0..20_000).map(|i| normal(1, i)).sum::<f64>() / 20_000.0;
        assert!(m.abs() < 0.05, "{m}");
        let w = weights(10, 0.5, 2.0, 3);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w.iter().all(|&v| v > 0.0));
    }
}
