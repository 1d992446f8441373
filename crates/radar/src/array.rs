//! TDM-MIMO virtual antenna array geometry.
//!
//! The IWR1443 forms a virtual array by cycling 3 TX antennas against 4
//! always-on RX antennas (paper §III). We reproduce the standard layout:
//! RX elements λ/2 apart along the azimuth axis; TX1 and TX3 spaced 2λ so
//! their virtual rows abut into an 8-element azimuth ULA; TX2 raised λ/2
//! to create an elevation-sensitive row. Positions are in the radar's
//! aperture plane: `x` = azimuth axis, `z` = elevation axis (the radar
//! looks along `+y`).

use crate::config::ChirpConfig;
use mmhand_math::Vec3;

/// One virtual element: the TX/RX pair and its effective phase centre.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VirtualElement {
    /// Transmit antenna index.
    pub tx: usize,
    /// Receive antenna index.
    pub rx: usize,
    /// Effective phase-centre position (sum of TX and RX positions), metres.
    pub position: Vec3,
}

/// The virtual antenna array.
#[derive(Clone, Debug)]
pub struct VirtualArray {
    tx_positions: Vec<Vec3>,
    rx_positions: Vec<Vec3>,
    elements: Vec<VirtualElement>,
    /// Indices (into `elements`) of the 2·rx azimuth ULA, sorted by x.
    azimuth_row: Vec<usize>,
    /// Indices of the elevated (TX2) row, sorted by x.
    elevated_row: Vec<usize>,
    /// Indices in the azimuth row that sit at the same x as the elevated
    /// row (used for elevation interferometry), sorted by x.
    azimuth_overlap: Vec<usize>,
    wavelength_m: f64,
}

impl VirtualArray {
    /// Builds the IWR1443-style array for a chirp configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not have 3 TX and 4 RX antennas;
    /// other MIMO layouts are not modelled.
    pub fn new(config: &ChirpConfig) -> Self {
        assert_eq!(config.tx_count, 3, "virtual array models the 3-TX IWR1443");
        assert_eq!(config.rx_count, 4, "virtual array models the 4-RX IWR1443");
        let lambda = config.wavelength_m() as f32;
        let half = lambda / 2.0;
        // RX ULA along x.
        let rx_positions: Vec<Vec3> =
            (0..4).map(|i| Vec3::new(i as f32 * half, 0.0, 0.0)).collect();
        // TX0 at origin, TX1 shifted 2λ (extends the azimuth ULA),
        // TX2 shifted λ in x and λ/2 up (elevation row).
        let tx_positions = vec![
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(4.0 * half, 0.0, 0.0),
            Vec3::new(2.0 * half, 0.0, half),
        ];
        let mut elements = Vec::with_capacity(12);
        for (ti, &t) in tx_positions.iter().enumerate() {
            for (ri, &r) in rx_positions.iter().enumerate() {
                elements.push(VirtualElement { tx: ti, rx: ri, position: t + r });
            }
        }
        let mut azimuth_row: Vec<usize> = elements
            .iter()
            .enumerate()
            // Element positions at z = 0 are constructed exactly, not computed.
            .filter(|(_, e)| e.position.z == 0.0)
            .map(|(i, _)| i)
            .collect();
        azimuth_row.sort_by(|&a, &b| {
            elements[a].position.x.total_cmp(&elements[b].position.x)
        });
        let mut elevated_row: Vec<usize> = elements
            .iter()
            .enumerate()
            .filter(|(_, e)| e.position.z > 0.0)
            .map(|(i, _)| i)
            .collect();
        elevated_row.sort_by(|&a, &b| {
            elements[a].position.x.total_cmp(&elements[b].position.x)
        });
        let azimuth_overlap: Vec<usize> = elevated_row
            .iter()
            .filter_map(|&e| {
                let x = elements[e].position.x;
                azimuth_row
                    .iter()
                    .copied()
                    .find(|&a| (elements[a].position.x - x).abs() < 1e-9)
            })
            .collect();
        VirtualArray {
            tx_positions,
            rx_positions,
            elements,
            azimuth_row,
            elevated_row,
            azimuth_overlap,
            wavelength_m: config.wavelength_m(),
        }
    }

    /// All virtual elements in `(tx, rx)` row-major order.
    pub fn elements(&self) -> &[VirtualElement] {
        &self.elements
    }

    /// Index of the `(tx, rx)` virtual element in [`VirtualArray::elements`].
    pub fn element_index(&self, tx: usize, rx: usize) -> usize {
        tx * self.rx_positions.len() + rx
    }

    /// The azimuth ULA element indices (8 elements, λ/2 spacing).
    pub fn azimuth_row(&self) -> &[usize] {
        &self.azimuth_row
    }

    /// The elevated-row element indices (4 elements at z = λ/2).
    pub fn elevated_row(&self) -> &[usize] {
        &self.elevated_row
    }

    /// Azimuth-row elements x-aligned with the elevated row.
    pub fn azimuth_overlap(&self) -> &[usize] {
        &self.azimuth_overlap
    }

    /// TX phase-centre positions.
    pub fn tx_positions(&self) -> &[Vec3] {
        &self.tx_positions
    }

    /// RX phase-centre positions.
    pub fn rx_positions(&self) -> &[Vec3] {
        &self.rx_positions
    }

    /// Carrier wavelength in metres.
    pub fn wavelength_m(&self) -> f64 {
        self.wavelength_m
    }

    /// Far-field steering phase (radians) of `element` toward unit
    /// direction `dir` (pointing from the radar to the target).
    pub fn steering_phase(&self, element: usize, dir: Vec3) -> f32 {
        let p = self.elements[element].position;
        2.0 * std::f32::consts::PI * p.dot(dir) / self.wavelength_m as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> VirtualArray {
        VirtualArray::new(&ChirpConfig::default())
    }

    #[test]
    fn twelve_virtual_elements() {
        let a = array();
        assert_eq!(a.elements().len(), 12);
        assert_eq!(a.azimuth_row().len(), 8);
        assert_eq!(a.elevated_row().len(), 4);
    }

    #[test]
    fn azimuth_row_is_uniform_half_wavelength() {
        let a = array();
        let half = (a.wavelength_m() / 2.0) as f32;
        let xs: Vec<f32> = a
            .azimuth_row()
            .iter()
            .map(|&i| a.elements()[i].position.x)
            .collect();
        for (k, w) in xs.windows(2).enumerate() {
            assert!(
                (w[1] - w[0] - half).abs() < 1e-9,
                "gap {} at {k}",
                w[1] - w[0]
            );
        }
    }

    #[test]
    fn elevated_row_overlaps_azimuth_row() {
        let a = array();
        assert_eq!(a.azimuth_overlap().len(), 4, "all elevated x positions overlap");
        for (&e, &z) in a.elevated_row().iter().zip(a.azimuth_overlap()) {
            assert!((a.elements()[e].position.x - a.elements()[z].position.x).abs() < 1e-9);
            assert!(a.elements()[e].position.z > 0.0);
            assert_eq!(a.elements()[z].position.z, 0.0);
        }
    }

    #[test]
    fn element_index_round_trips() {
        let a = array();
        for tx in 0..3 {
            for rx in 0..4 {
                let i = a.element_index(tx, rx);
                assert_eq!(a.elements()[i].tx, tx);
                assert_eq!(a.elements()[i].rx, rx);
            }
        }
    }

    #[test]
    fn steering_phase_progression_matches_angle() {
        // A source at azimuth θ puts a linear phase of π·sin(θ) per element
        // across the λ/2 ULA.
        let a = array();
        let theta = mmhand_math::deg_to_rad(18.0);
        let dir = Vec3::new(theta.sin(), theta.cos(), 0.0);
        let row = a.azimuth_row();
        let phases: Vec<f32> = row.iter().map(|&i| a.steering_phase(i, dir)).collect();
        let expected = std::f32::consts::PI * theta.sin();
        for w in phases.windows(2) {
            assert!((w[1] - w[0] - expected).abs() < 1e-4);
        }
    }

    #[test]
    fn boresight_has_zero_phase_spread() {
        let a = array();
        let dir = Vec3::Y;
        for e in 0..12 {
            assert!(a.steering_phase(e, dir).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "3-TX")]
    fn wrong_tx_count_panics() {
        let cfg = ChirpConfig { tx_count: 2, ..ChirpConfig::default() };
        VirtualArray::new(&cfg);
    }
}
