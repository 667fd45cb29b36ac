//! Table-III-style descriptors of the applications used in the evaluation.
//!
//! The FRaZ paper's Table III lists, for each SDRBench application, its
//! domain, number of time-steps, dimensionality, field count and total size.
//! [`paper_catalog`] reproduces that table verbatim (for documentation and
//! the `tab03_datasets` experiment binary), while [`describe`] builds the
//! equivalent row for a synthetic instance actually generated in this
//! workspace.

use serde::{Deserialize, Serialize};

use crate::synthetic::SyntheticDataset;

/// One row of Table III.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetDescriptor {
    /// Application name (e.g. "Hurricane").
    pub name: String,
    /// Science domain (e.g. "Meteorology").
    pub domain: String,
    /// Number of time-steps in the archive.
    pub timesteps: usize,
    /// Grid dimensionality of each field.
    pub dimensionality: usize,
    /// Number of fields.
    pub fields: usize,
    /// Total uncompressed size in bytes.
    pub total_bytes: u64,
}

impl DatasetDescriptor {
    /// Human-readable size (GB with one decimal, as the paper prints it).
    pub fn size_gb(&self) -> f64 {
        self.total_bytes as f64 / 1e9
    }
}

/// The rows of Table III exactly as printed in the paper.
pub fn paper_catalog() -> Vec<DatasetDescriptor> {
    vec![
        DatasetDescriptor {
            name: "Hurricane".into(),
            domain: "Meteorology".into(),
            timesteps: 48,
            dimensionality: 3,
            fields: 13,
            total_bytes: 59_000_000_000,
        },
        DatasetDescriptor {
            name: "HACC".into(),
            domain: "Cosmology".into(),
            timesteps: 101,
            dimensionality: 1,
            fields: 6,
            total_bytes: 11_000_000_000,
        },
        DatasetDescriptor {
            name: "CESM".into(),
            domain: "Climate".into(),
            timesteps: 62,
            dimensionality: 2,
            fields: 6,
            total_bytes: 48_000_000_000,
        },
        DatasetDescriptor {
            name: "Exaalt".into(),
            domain: "Molecular Dyn.".into(),
            timesteps: 82,
            dimensionality: 1,
            fields: 3,
            total_bytes: 1_100_000_000,
        },
        DatasetDescriptor {
            name: "NYX".into(),
            domain: "Cosmology".into(),
            timesteps: 8,
            dimensionality: 3,
            fields: 5,
            total_bytes: 35_000_000_000,
        },
    ]
}

/// Describe a synthetic application instance in the same format.
pub fn describe(app: &SyntheticDataset) -> DatasetDescriptor {
    DatasetDescriptor {
        name: app.application().to_string(),
        domain: app.domain().to_string(),
        timesteps: app.timesteps(),
        dimensionality: app.dims().ndims(),
        fields: app.num_fields(),
        total_bytes: app.total_bytes() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic;

    #[test]
    fn paper_catalog_matches_table_iii() {
        let rows = paper_catalog();
        assert_eq!(rows.len(), 5);
        let hurricane = &rows[0];
        assert_eq!(hurricane.timesteps, 48);
        assert_eq!(hurricane.dimensionality, 3);
        assert_eq!(hurricane.fields, 13);
        assert!((hurricane.size_gb() - 59.0).abs() < 0.5);
        let hacc = &rows[1];
        assert_eq!(hacc.dimensionality, 1);
        assert_eq!(hacc.timesteps, 101);
    }

    #[test]
    fn describe_matches_generator_shape() {
        let app = synthetic::cesm(10, 20, 3, 1);
        let d = describe(&app);
        assert_eq!(d.name, "cesm");
        assert_eq!(d.domain, "Climate");
        assert_eq!(d.dimensionality, 2);
        assert_eq!(d.fields, 6);
        assert_eq!(d.timesteps, 3);
        assert_eq!(d.total_bytes, 6 * 3 * 200 * 4);
    }

    #[test]
    fn synthetic_domains_match_table_iii() {
        for (row, name) in
            paper_catalog()
                .iter()
                .zip(["hurricane", "hacc", "cesm", "exaalt", "nyx"])
        {
            let app = synthetic::by_name(name, 0).unwrap();
            assert_eq!(describe(&app).domain, row.domain, "{name}");
        }
    }

    #[test]
    fn descriptor_size_helper() {
        let rows = paper_catalog();
        assert!((rows[3].size_gb() - 1.1).abs() < 1e-9);
    }
}
