//! The blockwise prediction + linear-scaling quantization pipeline.
//!
//! This is SZ's stages 1 and 2: the grid is split into non-overlapping
//! blocks, each block chooses between the Lorenzo predictor and a per-block
//! regression plane, every point's prediction error is quantized against the
//! absolute error bound, and points whose quantized reconstruction would
//! violate the bound are stored exactly ("unpredictable" points).
//!
//! Encoding and decoding traverse blocks (and points within a block) in the
//! same raster order, and the Lorenzo predictor only ever reads values that
//! the decoder will already have reconstructed, so the two sides stay
//! bit-identical.
//!
//! A region needs only part of that traversal.  The Lorenzo predictor reads
//! only lower neighbours (`z−1`, `y−1`, `x−1`) and a regression block reads
//! none, so the blocks a region needs are exactly those whose origin lies
//! below the region's far corner on every axis: a box from the grid's
//! origin, much smaller than the prefix of the traversal that ends at the
//! same block.  [`decode`] rebuilds that box and stops after its last block
//! ([`Reach`]); a block it passes over on the way still consumes its
//! regression coefficients and its unpredictable values.  Up to the grid's
//! far corner it is the whole-grid decode — there is one decoder.  What a
//! region still pays for in full is upstream of this stage: the
//! dictionary-coded (LZSS) frame, and the Huffman codes of every block
//! before the last needed one (the caller decodes only that prefix).
//!
//! One call does work proportional to the grid and allocates a fixed number
//! of times: blocks are enumerated, not listed; the regression plane's
//! normal-equation matrix is looked up by block extent (a grid has at most
//! eight) while one walk of the block accumulates its right-hand side and
//! the Lorenzo estimate together; the plane's estimate stops as soon as it
//! has lost; and a prediction error is rounded to its quantization code
//! with an add and a subtract instead of a libm call.  The input is read
//! through `T: Into<f64>`, so an `f32` field is not widened into a second
//! array first.  None of this moves a bit: every value is the one the
//! straightforward form computes, from the same floating-point operations
//! in the same order (`tests/codec_golden.rs` holds it to that).
//!
//! What is left is the quantisation walk, and it is latency, not work:
//! under Lorenzo a point's prediction waits for its left neighbour's
//! reconstruction — five dependent adds, the `/ (2·eb)` division, the
//! rounding, the `f32` round trip — and the order of those operations is
//! the stream format.

use fraz_data::quant::LinearQuantizer;
use fraz_data::CodecError;

use crate::predict::{lorenzo3, Dims3, RegressionPlane};

/// The quantization code reserved for unpredictable points.
pub const UNPREDICTABLE: u32 = LinearQuantizer::UNPREDICTABLE;

/// Output of the prediction/quantization stage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EncodedBlocks {
    /// One flag per block, `true` when the block uses the regression
    /// predictor instead of Lorenzo.
    pub regression_flags: Vec<bool>,
    /// `f32`-rounded plane coefficients for each regression block, in block
    /// order.
    pub reg_coeffs: Vec<[f32; 4]>,
    /// One quantization code per point, in traversal order; `UNPREDICTABLE`
    /// marks points stored exactly.
    pub quant_codes: Vec<u32>,
    /// Exactly-stored values for unpredictable points, in traversal order.
    pub unpredictable: Vec<f64>,
}

/// Parameters shared by [`encode`] and [`decode`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineParams {
    /// Absolute error bound (must be positive).
    pub error_bound: f64,
    /// Block edge length.
    pub block_size: usize,
    /// Number of quantization bins (SZ's `quantization_intervals`).
    pub capacity: u32,
}

impl PipelineParams {
    fn quantizer(&self) -> LinearQuantizer {
        LinearQuantizer::new(self.error_bound, self.capacity)
    }
}

/// The `(origin, extent)` of every block of a padded 3-D grid, in raster
/// order; blocks on the high faces are clipped to the grid.
fn blocks(dims: Dims3, block: usize) -> impl Iterator<Item = ([usize; 3], [usize; 3])> {
    let along = move |axis: usize| (0..dims[axis]).step_by(block);
    along(0).flat_map(move |z| {
        along(1).flat_map(move |y| {
            along(2).map(move |x| {
                let extent = [
                    block.min(dims[0] - z),
                    block.min(dims[1] - y),
                    block.min(dims[2] - x),
                ];
                ([z, y, x], extent)
            })
        })
    })
}

/// Visit the points of a block in raster order — the order both sides
/// traverse in — as (index in a row-major `dims` array, `[z, y, x]`,
/// `[dz, dy, dx]`), until `visit` returns `false`.
#[inline(always)]
fn walk(
    dims: Dims3,
    origin: [usize; 3],
    extent: [usize; 3],
    mut visit: impl FnMut(usize, [usize; 3], [usize; 3]) -> bool,
) {
    for dz in 0..extent[0] {
        for dy in 0..extent[1] {
            let (z, y) = (origin[0] + dz, origin[1] + dy);
            let row = (z * dims[1] + y) * dims[2] + origin[2];
            for dx in 0..extent[2] {
                if !visit(row + dx, [z, y, origin[2] + dx], [dz, dy, dx]) {
                    return;
                }
            }
        }
    }
}

/// Run prediction + quantization over the whole grid; returns the encoded
/// blocks and the reconstruction the predictions were made from — the grid
/// [`decode`] rebuilds from those blocks, bit for bit.
///
/// `finalize` rounds a reconstructed value to the precision it will have
/// after being stored back into the original buffer type (`f32` cast for
/// single-precision data); the error-bound check is performed on the
/// finalized value, so the bound holds end-to-end.
pub fn encode<T: Copy + Into<f64>>(
    values: &[T],
    dims: Dims3,
    params: &PipelineParams,
    finalize: impl Fn(f64) -> f64,
) -> (EncodedBlocks, Vec<f64>) {
    assert!(params.error_bound > 0.0, "error bound must be positive");
    assert!(params.block_size > 0, "block size must be positive");
    assert!(params.capacity >= 4, "quantization capacity too small");
    let n = values.len();
    let quantizer = params.quantizer();
    let block_count: usize = dims.iter().map(|d| d.div_ceil(params.block_size)).product();
    let mut out = EncodedBlocks {
        regression_flags: Vec::with_capacity(block_count),
        quant_codes: Vec::with_capacity(n),
        ..Default::default()
    };
    let mut recon = vec![0.0f64; n];
    // Normal-equation matrices by block extent: full, or ragged on any of
    // the three high faces.
    let mut grams: Vec<([usize; 3], [[f64; 4]; 4])> = Vec::with_capacity(8);

    for (origin, extent) in blocks(dims, params.block_size) {
        let gram = match grams.iter().find(|(e, _)| *e == extent) {
            Some(&(_, gram)) => gram,
            None => {
                let gram = RegressionPlane::gram(extent);
                grams.push((extent, gram));
                gram
            }
        };
        // One walk of the original values: the plane's right-hand side, and
        // what Lorenzo would miss by — estimated, as SZ's sampling heuristic
        // does, on *original* neighbours (a cheap stand-in for reconstructed
        // ones).
        let mut atv = [0.0f64; 4];
        let mut lorenzo_err = 0.0;
        walk(dims, origin, extent, |idx, [z, y, x], local| {
            let v: f64 = values[idx].into();
            RegressionPlane::add_to_rhs(&mut atv, local, v);
            lorenzo_err += (v - lorenzo3(values, dims, z, y, x)).abs();
            true
        });
        let points = extent[0] * extent[1] * extent[2];
        let plane = RegressionPlane::solve(gram, atv, points).quantized();
        // The predictor with the smaller total absolute error wins.  The
        // plane's total only grows (or turns NaN), so it has lost — for
        // good — the moment it stops being the smaller one.
        let mut regression_err = 0.0;
        walk(dims, origin, extent, |idx, _, [dz, dy, dx]| {
            let v: f64 = values[idx].into();
            regression_err += (v - plane.predict(dz, dy, dx)).abs();
            regression_err < lorenzo_err
        });
        let use_regression = regression_err < lorenzo_err;
        out.regression_flags.push(use_regression);
        if use_regression {
            out.reg_coeffs.push(plane.coeffs.map(|c| c as f32));
        }

        walk(dims, origin, extent, |idx, [z, y, x], [dz, dy, dx]| {
            let orig: f64 = values[idx].into();
            let pred = if use_regression {
                plane.predict(dz, dy, dx)
            } else {
                lorenzo3(&recon, dims, z, y, x)
            };
            match quantizer.encode(orig, pred, &finalize) {
                Some((code, recon_val)) => {
                    out.quant_codes.push(code);
                    recon[idx] = recon_val;
                }
                None => {
                    out.quant_codes.push(UNPREDICTABLE);
                    out.unpredictable.push(finalize(orig));
                    recon[idx] = finalize(orig);
                }
            }
            true
        });
    }
    (out, recon)
}

/// The part of the traversal a decode up to `upto` covers.
///
/// A block is needed when its origin lies below `upto` on every axis: the
/// Lorenzo predictor reads only lower neighbours, so the blocks a needed
/// block's points predict from are needed too, and a regression block reads
/// none.  Those blocks fill the lower box of the grid that ends at the
/// block edge past `upto`, and the last of them in traversal order is the
/// one at that box's far corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reach {
    /// The lower box of the grid the needed blocks fill: what [`decode`]
    /// returns, in row-major order.
    pub box_dims: Dims3,
    /// Blocks in traversal order up to and including the last needed one.
    pub blocks: usize,
    /// Points in those blocks: the quantization codes the decode reads.
    pub points: usize,
}

impl Reach {
    /// The reach of a decode up to `upto` (exclusive, each axis in
    /// `1..=dims[axis]`) of a `dims` grid cut into `block`-edged blocks.
    ///
    /// # Panics
    /// Panics if `upto` is outside that range.
    pub fn of(dims: Dims3, upto: [usize; 3], block: usize) -> Self {
        assert!(
            (0..3).all(|a| (1..=dims[a]).contains(&upto[a])),
            "decode end {upto:?} outside the grid {dims:?}"
        );
        // The origin of the last needed block, and the box's end, per axis.
        let last = upto.map(|u| (u - 1) / block * block);
        let box_dims = [0, 1, 2].map(|a| (last[a] + block).min(dims[a]));
        let counts = dims.map(|d| d.div_ceil(block));
        let [bz, by, bx] = [0, 1, 2].map(|a| last[a] / block);
        // Whole z-slabs before the last one, whole rows of blocks before the
        // last one in it, then that row up to and including the last block.
        let (ez, ey) = (box_dims[0] - last[0], box_dims[1] - last[1]);
        Self {
            box_dims,
            blocks: (bz * counts[1] + by) * counts[2] + bx + 1,
            points: last[0] * dims[1] * dims[2] + ez * last[1] * dims[2] + ez * ey * box_dims[2],
        }
    }
}

/// Reconstruct the lower box of the grid a region ending at `upto` needs
/// (see [`Reach`]; `upto == dims` is the whole grid) from an
/// [`EncodedBlocks`] stream, and stop after its last block.
///
/// `enc` need hold only the traversal up to there: [`Reach::points`]
/// quantization codes, the flags of [`Reach::blocks`] blocks, and the
/// coefficients and unpredictable values those consume.  A block outside
/// the box still consumes its coefficients and its unpredictable values.
pub fn decode(
    enc: &EncodedBlocks,
    dims: Dims3,
    upto: [usize; 3],
    params: &PipelineParams,
    finalize: impl Fn(f64) -> f64,
) -> Result<Vec<f64>, CodecError> {
    let reach = Reach::of(dims, upto, params.block_size);
    if enc.quant_codes.len() < reach.points {
        return Err(CodecError::Codec(format!(
            "expected {} quantization codes, found {}",
            reach.points,
            enc.quant_codes.len()
        )));
    }
    // Everything the traversal will consume is counted first, so the walk
    // itself cannot run dry.
    let codes = &enc.quant_codes[..reach.points];
    let flags = enc
        .regression_flags
        .get(..reach.blocks)
        .filter(|flags| flags.iter().filter(|&&f| f).count() <= enc.reg_coeffs.len())
        .ok_or_else(|| CodecError::Codec("regression metadata truncated".into()))?;
    if codes.iter().filter(|&&c| c == UNPREDICTABLE).count() > enc.unpredictable.len() {
        return Err(CodecError::Codec(
            "unpredictable-value list truncated".into(),
        ));
    }

    let quantizer = params.quantizer();
    let boxd = reach.box_dims;
    let mut recon = vec![0.0f64; boxd.iter().product()];
    let mut codes = codes.iter();
    let mut unpredictable = enc.unpredictable.iter();
    let mut coeffs = enc.reg_coeffs.iter();

    for ((origin, extent), &use_regression) in blocks(dims, params.block_size).zip(flags) {
        let coeffs = use_regression.then(|| coeffs.next().expect("counted above"));
        if (0..3).any(|a| origin[a] >= upto[a]) {
            let points = extent[0] * extent[1] * extent[2];
            let skipped = codes
                .by_ref()
                .take(points)
                .filter(|&&c| c == UNPREDICTABLE)
                .count();
            if skipped > 0 {
                unpredictable.nth(skipped - 1);
            }
            continue;
        }
        let plane = coeffs.map(|c| RegressionPlane::from_coeffs(c.map(|c| c as f64)));
        walk(boxd, origin, extent, |idx, [z, y, x], [dz, dy, dx]| {
            let code = *codes.next().expect("counted above");
            recon[idx] = if code == UNPREDICTABLE {
                *unpredictable.next().expect("counted above")
            } else {
                let pred = match &plane {
                    Some(p) => p.predict(dz, dy, dx),
                    None => lorenzo3(&recon, boxd, z, y, x),
                };
                quantizer.decode(code, pred, &finalize)
            };
            true
        });
    }
    Ok(recon)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(eb: f64) -> PipelineParams {
        PipelineParams {
            error_bound: eb,
            block_size: 6,
            capacity: 65536,
        }
    }

    fn smooth_grid(dims: Dims3) -> Vec<f64> {
        let mut v = Vec::with_capacity(dims[0] * dims[1] * dims[2]);
        for z in 0..dims[0] {
            for y in 0..dims[1] {
                for x in 0..dims[2] {
                    v.push(
                        (x as f64 * 0.2).sin() * 3.0
                            + (y as f64 * 0.15).cos() * 2.0
                            + z as f64 * 0.05,
                    );
                }
            }
        }
        v
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn check_roundtrip(values: &[f64], dims: Dims3, eb: f64) {
        let p = params(eb);
        let (enc, recon) = encode(values, dims, &p, |v| v);
        let dec = decode(&enc, dims, dims, &p, |v| v).unwrap();
        assert_eq!(dec.len(), values.len());
        assert_eq!(
            bits(&recon),
            bits(&dec),
            "the encoder's reconstruction is the decoder's"
        );
        for (i, (&a, &b)) in values.iter().zip(dec.iter()).enumerate() {
            assert!(
                (a - b).abs() <= eb,
                "point {i}: |{a} - {b}| = {} > {eb}",
                (a - b).abs()
            );
        }
    }

    #[test]
    fn roundtrip_3d_within_bound() {
        let dims = [10, 13, 17];
        check_roundtrip(&smooth_grid(dims), dims, 1e-2);
        check_roundtrip(&smooth_grid(dims), dims, 1e-5);
    }

    #[test]
    fn roundtrip_2d_and_1d() {
        let dims2 = [1, 25, 31];
        check_roundtrip(&smooth_grid(dims2), dims2, 1e-3);
        let dims1 = [1, 1, 500];
        check_roundtrip(&smooth_grid(dims1), dims1, 1e-3);
    }

    #[test]
    fn constant_field_uses_few_unpredictable_points() {
        let dims = [8, 8, 8];
        let values = vec![4.2f64; 512];
        let (enc, _) = encode(&values, dims, &params(1e-3), |v| v);
        assert!(enc.unpredictable.len() <= 1, "{}", enc.unpredictable.len());
        let dec = decode(&enc, dims, dims, &params(1e-3), |v| v).unwrap();
        for v in dec {
            assert!((v - 4.2).abs() <= 1e-3);
        }
    }

    #[test]
    fn random_field_is_still_bounded() {
        // Pseudo-random, highly unpredictable data: many unpredictable
        // points, but the bound must still hold.
        let dims = [6, 7, 9];
        let mut state = 1u64;
        let values: Vec<f64> = (0..dims[0] * dims[1] * dims[2])
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as f64 / 2e9) * 1e6 - 2.5e5
            })
            .collect();
        check_roundtrip(&values, dims, 1e-8);
    }

    #[test]
    fn f32_finalization_keeps_bound() {
        let dims = [5, 9, 11];
        let values: Vec<f64> = smooth_grid(dims)
            .into_iter()
            .map(|v| v as f32 as f64)
            .collect();
        let p = params(1e-4);
        let f32ize = |v: f64| v as f32 as f64;
        let (enc, recon) = encode(&values, dims, &p, f32ize);
        let dec = decode(&enc, dims, dims, &p, f32ize).unwrap();
        assert_eq!(bits(&recon), bits(&dec));
        for (&a, &b) in values.iter().zip(dec.iter()) {
            assert!((a - b).abs() <= 1e-4);
            assert_eq!(b as f32 as f64, b, "reconstruction must be f32-exact");
        }
    }

    #[test]
    fn tighter_bound_means_more_codes_spread() {
        let dims = [8, 16, 16];
        let values = smooth_grid(dims);
        let (loose, _) = encode(&values, dims, &params(0.5), |v| v);
        let (tight, _) = encode(&values, dims, &params(1e-4), |v| v);
        let distinct = |codes: &[u32]| {
            let mut set: Vec<u32> = codes.to_vec();
            set.sort_unstable();
            set.dedup();
            set.len()
        };
        assert!(distinct(&tight.quant_codes) > distinct(&loose.quant_codes));
    }

    #[test]
    fn regression_blocks_appear_on_planar_data() {
        // A strongly linear field should favour the regression predictor in
        // at least some blocks.
        let dims = [12, 12, 12];
        let mut values = Vec::new();
        for z in 0..12 {
            for y in 0..12 {
                for x in 0..12 {
                    values.push(3.0 * z as f64 - 2.0 * y as f64 + 0.5 * x as f64);
                }
            }
        }
        let (enc, _) = encode(&values, dims, &params(1e-3), |v| v);
        assert_eq!(enc.regression_flags.len(), 8);
        assert_eq!(
            enc.reg_coeffs.len(),
            enc.regression_flags.iter().filter(|&&f| f).count()
        );
    }

    #[test]
    fn truncated_streams_are_errors() {
        let dims = [4, 4, 4];
        let values = smooth_grid(dims);
        let p = params(1e-3);
        let (enc, _) = encode(&values, dims, &p, |v| v);

        let mut missing_codes = enc.clone();
        missing_codes.quant_codes.pop();
        assert_eq!(
            decode(&missing_codes, dims, dims, &p, |v| v),
            Err(CodecError::Codec(
                "expected 64 quantization codes, found 63".into()
            ))
        );

        let mut missing_flags = enc.clone();
        missing_flags.regression_flags.clear();
        assert_eq!(
            decode(&missing_flags, dims, dims, &p, |v| v),
            Err(CodecError::Codec("regression metadata truncated".into()))
        );
    }

    #[test]
    fn missing_unpredictable_is_an_error() {
        let dims = [1, 1, 64];
        let mut state = 7u64;
        let values: Vec<f64> = (0..64)
            .map(|_| {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                (state >> 32) as f64
            })
            .collect();
        let p = params(1e-12);
        let (mut enc, _) = encode(&values, dims, &p, |v| v);
        assert!(!enc.unpredictable.is_empty());
        enc.unpredictable.clear();
        assert_eq!(
            decode(&enc, dims, dims, &p, |v| v),
            Err(CodecError::Codec(
                "unpredictable-value list truncated".into()
            ))
        );
    }

    #[test]
    #[should_panic(expected = "error bound must be positive")]
    fn zero_bound_panics() {
        let _ = encode(&[1.0], [1, 1, 1], &params(0.0), |v| v);
    }

    /// Every decode end, on grids with ragged blocks on each face, a mix
    /// of regression and Lorenzo blocks and unpredictable points: the box
    /// is the whole decode's, bit for bit, and the reach is what a walk of
    /// the blocks counts.
    #[test]
    fn a_region_decode_is_the_whole_decode_on_its_box() {
        for (dims, block) in [
            ([7, 9, 11], 4),
            ([1, 13, 17], 5),
            ([1, 1, 40], 6),
            ([6, 6, 6], 6),
        ] {
            let mut values = smooth_grid(dims);
            for (i, v) in values.iter_mut().enumerate() {
                if i % 17 == 3 {
                    *v += 1e3;
                }
                if i % 29 == 0 {
                    *v = 2.0 * i as f64 - 0.5 * (i % 7) as f64;
                }
            }
            let p = PipelineParams {
                block_size: block,
                ..params(1e-3)
            };
            let (enc, _) = encode(&values, dims, &p, |v| v);
            assert!(!enc.unpredictable.is_empty(), "{dims:?}");
            let whole = decode(&enc, dims, dims, &p, |v| v).unwrap();
            for z in 1..=dims[0] {
                for y in 1..=dims[1] {
                    for x in 1..=dims[2] {
                        let upto = [z, y, x];
                        let reach = Reach::of(dims, upto, block);
                        let needed = |o: [usize; 3]| (0..3).all(|a| o[a] < upto[a]);
                        let all: Vec<_> = blocks(dims, block).collect();
                        let last = all.iter().rposition(|&(o, _)| needed(o)).unwrap();
                        let points: usize = all[..=last]
                            .iter()
                            .map(|(_, e)| e.iter().product::<usize>())
                            .sum();
                        assert_eq!((reach.blocks, reach.points), (last + 1, points), "{upto:?}");
                        // Only the traversal up to the last needed block.
                        let mut cut = enc.clone();
                        cut.quant_codes.truncate(reach.points);
                        cut.regression_flags.truncate(reach.blocks);
                        let part = decode(&cut, dims, upto, &p, |v| v).unwrap();
                        let boxd = reach.box_dims;
                        assert_eq!(part.len(), boxd.iter().product::<usize>());
                        for (i, &v) in part.iter().enumerate() {
                            let (bz, by, bx) =
                                (i / (boxd[1] * boxd[2]), i / boxd[2] % boxd[1], i % boxd[2]);
                            let at = (bz * dims[1] + by) * dims[2] + bx;
                            assert_eq!(v.to_bits(), whole[at].to_bits(), "{dims:?} {upto:?} {i}");
                        }
                        assert!((0..3).all(|a| boxd[a] >= upto[a]), "{upto:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn block_origins_cover_everything() {
        let origins: Vec<[usize; 3]> = blocks([7, 5, 9], 4).map(|(origin, _)| origin).collect();
        assert_eq!(origins.len(), 2 * 2 * 3);
        assert_eq!(origins[0], [0, 0, 0]);
        assert!(origins.contains(&[4, 4, 8]));
    }
}
