//! Offline stand-in for the subset of `rand_distr` 0.4 the PERQ crates
//! use: `Distribution`, `Normal<f64>` and `LogNormal<f64>`. Normal
//! deviates come from the Box–Muller transform, so the streams differ
//! from the real crate's ziggurat sampler (see the `rand` stand-in).

use rand::Rng;

/// Types that can be sampled from.
pub trait Distribution<T> {
    /// Draws one value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

/// Invalid distribution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamError;

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("standard deviation must be finite and non-negative")
    }
}

impl std::error::Error for ParamError {}

/// The normal distribution `N(mean, std_dev²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal<F> {
    mean: F,
    std_dev: F,
}

impl Normal<f64> {
    /// Builds the distribution; `std_dev` must be finite and ≥ 0.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, ParamError> {
        if std_dev.is_finite() && std_dev >= 0.0 {
            Ok(Normal { mean, std_dev })
        } else {
            Err(ParamError)
        }
    }
}

fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Box–Muller; `1 - u` keeps the log argument in (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

impl Distribution<f64> for Normal<f64> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }
}

/// The log-normal distribution `exp(N(mu, sigma²))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal<F> {
    norm: Normal<F>,
}

impl LogNormal<f64> {
    /// Builds the distribution from the parameters of the underlying
    /// normal.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, ParamError> {
        Ok(LogNormal {
            norm: Normal::new(mu, sigma)?,
        })
    }
}

impl Distribution<f64> for LogNormal<f64> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.norm.sample(rng).exp()
    }
}
