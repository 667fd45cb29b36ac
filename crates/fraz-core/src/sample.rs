//! The part of a field a cold ratio search measures before the field itself.
//!
//! A sample's ratio stands in for the field's the way sampling-based ratio
//! estimation uses it (Di et al.'s survey, PAPERS.md): the same codec on a
//! smaller piece of the same data, so its ratio-vs-bound curve has the
//! field's slope, offset by what a smaller stream pays in header and tables.
//! The piece is the field's central box, of the same rank — a sub-grid of
//! neighbouring values, so a predictor or a block transform sees the
//! field's own smoothness, not a coarser one.

use fraz_data::Dataset;

/// The fewest values a sample holds: a smaller stream is mostly header and
/// tables, and its ratio says little about the field's.  A sample also holds
/// at most a quarter of the field, so a field under `4 × FLOOR` values is
/// never sampled.
pub(crate) const FLOOR: usize = 4096;

/// The central box of `dataset` whose longest axis (the slowest among
/// equals) has been halved until the box holds an eighth of the field or
/// one more halving would take it under [`FLOOR`] values; `None` unless the
/// box ends with at least [`FLOOR`] values and at most a quarter of the
/// field's.
pub(crate) fn central(dataset: &Dataset) -> Option<Dataset> {
    let dims = dataset.dims.as_slice();
    let n = dataset.len();
    let mut shape = dims.to_vec();
    loop {
        let held: usize = shape.iter().product();
        let axis = (0..shape.len()).max_by_key(|&a| (shape[a], std::cmp::Reverse(a)))?;
        let halved = held / shape[axis] * (shape[axis] / 2);
        if held * 8 <= n || halved < FLOOR {
            break;
        }
        shape[axis] /= 2;
    }
    let held: usize = shape.iter().product();
    if held < FLOOR || held * 4 > n {
        return None;
    }
    let origin: Vec<usize> = dims.iter().zip(&shape).map(|(d, s)| (d - s) / 2).collect();
    Some(dataset.sub_box(&origin, &shape))
}

#[cfg(test)]
mod tests {
    use fraz_data::{DataBuffer, Dims};

    use super::*;

    fn field(dims: &[usize]) -> Dataset {
        let n: usize = dims.iter().product();
        let values = (0..n).map(|i| i as f64).collect();
        Dataset::from_f64("a", "f", 3, Dims::new(dims), values)
    }

    #[test]
    fn a_sample_is_the_central_box_of_the_same_rank() {
        for (dims, shape) in [
            (vec![32, 32, 32], vec![16, 16, 16]),
            (vec![28, 28, 28], vec![14, 14, 28]),
            (vec![16, 48, 48], vec![16, 12, 24]),
            (vec![128, 128], vec![64, 64]),
            (vec![16384], vec![4096]),
            (vec![2, 3, 64, 64], vec![2, 3, 32, 32]),
        ] {
            let d = field(&dims);
            let s = central(&d).unwrap_or_else(|| panic!("{dims:?} is sampled"));
            assert_eq!(s.dims.as_slice(), shape, "{dims:?}");
            assert!(s.len() >= FLOOR && 4 * s.len() <= d.len(), "{dims:?}");
            assert_eq!((s.field.as_str(), s.timestep), ("f", 3));
            // Every value sits where the centred box puts it.
            let origin: Vec<usize> = dims.iter().zip(&shape).map(|(d, s)| (d - s) / 2).collect();
            let source = Dims::new(&dims);
            let values = s.values_f64();
            for (i, v) in values.iter().enumerate() {
                let coords = s.dims.coords(i);
                let at: Vec<usize> = coords.iter().zip(&origin).map(|(c, o)| c + o).collect();
                assert_eq!(
                    *v,
                    source.linear_index(&at) as f64,
                    "{dims:?} at {coords:?}"
                );
            }
        }
    }

    #[test]
    fn a_field_under_four_floors_is_never_sampled() {
        for dims in [
            vec![48, 48],
            vec![8, 20, 20],
            vec![16383],
            vec![25, 25, 26],
            vec![64, 64],
        ] {
            assert!(central(&field(&dims)).is_none(), "{dims:?}");
        }
        let f32_field = Dataset::from_f32("a", "f", 0, Dims::d1(20000), vec![0.5; 20000]);
        assert_eq!(
            central(&f32_field).unwrap().buffer,
            DataBuffer::F32(vec![0.5; 5000])
        );
    }
}
