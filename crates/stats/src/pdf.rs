//! Probability density functions over fixed-width bins.

use serde::{Deserialize, Serialize};

use crate::binning::Binner;
use crate::error::{invalid, StatsError};

/// A discretized probability density function.
///
/// Densities are per-unit-of-x; `density * bin_width` is the bin probability
/// and the densities integrate to 1 over the binned range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pdf {
    binner: Binner,
    densities: Vec<f64>,
}

impl Pdf {
    /// Construct from raw densities. Verifies length, finiteness and
    /// non-negativity, but intentionally does not force exact unit mass
    /// (ratios and smoothed curves need not be normalized).
    pub fn from_densities(binner: Binner, densities: Vec<f64>) -> Result<Self, StatsError> {
        if densities.len() != binner.n_bins() {
            return Err(invalid(
                "densities",
                format!(
                    "length {} does not match bin count {}",
                    densities.len(),
                    binner.n_bins()
                ),
            ));
        }
        if densities.iter().any(|d| !d.is_finite() || *d < 0.0) {
            return Err(StatsError::NonFinite("pdf densities"));
        }
        Ok(Pdf { binner, densities })
    }

    /// The binner underlying this PDF.
    pub fn binner(&self) -> &Binner {
        &self.binner
    }

    /// Density of bin `i`.
    pub fn density(&self, i: usize) -> f64 {
        self.densities[i]
    }

    /// All densities, in bin order.
    pub fn densities(&self) -> &[f64] {
        &self.densities
    }

    /// Density at a continuous point `x` (the density of the containing bin),
    /// or `None` if `x` falls outside the binned range.
    pub fn density_at(&self, x: f64) -> Option<f64> {
        self.binner.index_of(x).map(|i| self.densities[i])
    }

    /// Total probability mass (should be ~1 for a normalized PDF).
    pub fn mass(&self) -> f64 {
        self.densities.iter().sum::<f64>() * self.binner.width()
    }

    /// Mean of the distribution, using bin centers.
    pub fn mean(&self) -> f64 {
        let w = self.binner.width();
        self.densities
            .iter()
            .enumerate()
            .map(|(i, d)| d * w * self.binner.center(i))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::OutOfRange;

    fn binner() -> Binner {
        Binner::new(0.0, 100.0, 10.0, OutOfRange::Discard).unwrap()
    }

    fn uniform_pdf() -> Pdf {
        Pdf::from_densities(binner(), vec![0.01; 10]).unwrap()
    }

    #[test]
    fn from_densities_validates() {
        assert!(Pdf::from_densities(binner(), vec![0.01; 9]).is_err());
        assert!(Pdf::from_densities(binner(), vec![-0.01; 10]).is_err());
        let mut bad = vec![0.01; 10];
        bad[3] = f64::NAN;
        assert!(Pdf::from_densities(binner(), bad).is_err());
    }

    #[test]
    fn mass_and_mean_of_uniform() {
        let p = uniform_pdf();
        assert!((p.mass() - 1.0).abs() < 1e-12);
        assert!((p.mean() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn density_at_maps_through_binner() {
        let p = uniform_pdf();
        assert_eq!(p.density_at(55.0), Some(0.01));
        assert_eq!(p.density_at(-1.0), None);
        assert_eq!(p.density_at(100.0), None);
    }
}
