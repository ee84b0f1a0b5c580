//! Read-reference voltage sets.
//!
//! A TLC read compares cell V_TH against a subset of seven references
//! R1–R7. When decoding fails, a conventional controller re-reads with
//! the references stepped downward, because retention loss shifts the
//! distributions down (paper §II-B2).

use crate::vth::{StateParam, TlcModel};

/// A complete set of seven read-reference voltages.
///
/// # Example
///
/// ```
/// use rif_flash::ReadVoltages;
///
/// let refs = ReadVoltages::new([0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5]);
/// let shifted = refs.offset_all(-0.1);
/// assert!((shifted.get(1) - 0.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadVoltages {
    refs: [f64; 7],
}

impl ReadVoltages {
    /// Wraps seven reference voltages, R1 first.
    ///
    /// # Panics
    ///
    /// Panics if the references are not strictly increasing.
    pub fn new(refs: [f64; 7]) -> Self {
        for w in refs.windows(2) {
            assert!(w[0] < w[1], "read references must be strictly increasing");
        }
        ReadVoltages { refs }
    }

    /// Reference `Rr` for `r` in 1–7.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ r ≤ 7`.
    pub fn get(&self, r: usize) -> f64 {
        assert!((1..=7).contains(&r), "reference index {r} out of range");
        self.refs[r - 1]
    }

    /// All seven references as an array (R1 first).
    pub fn as_array(&self) -> &[f64; 7] {
        &self.refs
    }

    /// A copy with every reference shifted by `delta`.
    pub fn offset_all(&self, delta: f64) -> ReadVoltages {
        let mut refs = self.refs;
        for v in &mut refs {
            *v += delta;
        }
        ReadVoltages { refs }
    }
}

impl From<[f64; 7]> for ReadVoltages {
    fn from(refs: [f64; 7]) -> Self {
        ReadVoltages::new(refs)
    }
}

/// Helper: optimal references for the given state distributions.
pub fn optimal_voltages(model: &TlcModel, params: [StateParam; 8]) -> ReadVoltages {
    ReadVoltages::new(model.optimal_refs(params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vth::OperatingPoint;

    #[test]
    fn new_validates_ordering() {
        let _ = ReadVoltages::new([0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn new_rejects_unordered() {
        let _ = ReadVoltages::new([0.5, 0.4, 2.5, 3.5, 4.5, 5.5, 6.5]);
    }

    #[test]
    fn offsets_apply() {
        let v = ReadVoltages::new([0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5]);
        let down = v.offset_all(-0.2);
        for r in 1..=7 {
            assert!((down.get(r) - (v.get(r) - 0.2)).abs() < 1e-12);
        }
    }

    #[test]
    fn optimal_voltages_match_model() {
        let model = TlcModel::calibrated();
        let params = model.state_params(OperatingPoint::new(500, 10.0), 1.0);
        let v = optimal_voltages(&model, params);
        let direct = model.optimal_refs(params);
        for r in 1..=7 {
            assert!((v.get(r) - direct[r - 1]).abs() < 1e-12);
        }
    }
}
