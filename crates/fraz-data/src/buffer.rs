//! Typed value storage for datasets (single or double precision).

use serde::{Deserialize, Serialize};

/// Element type of a [`DataBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DType {
    /// IEEE-754 single precision (the storage type of every SDRBench field
    /// used in the paper).
    F32,
    /// IEEE-754 double precision.
    F64,
}

/// Hand-written (rather than derived) so that manifest files can spell the
/// type the way SDRBench file extensions do (`"f32"`/`"f64"`) as well as
/// the variant name the derived `Serialize` emits (`"F32"`/`"F64"`).
impl Deserialize for DType {
    fn from_json_value(value: &serde::value::Value) -> Result<Self, serde::de::Error> {
        match value.as_str() {
            Some("f32") | Some("F32") => Ok(DType::F32),
            Some("f64") | Some("F64") => Ok(DType::F64),
            Some(other) => Err(serde::de::Error::new(format!(
                "unknown dtype `{other}`, expected \"f32\" or \"f64\""
            ))),
            None => Err(serde::de::invalid_type(
                "a dtype string (\"f32\"/\"f64\")",
                value,
            )),
        }
    }
}

impl DType {
    /// Size of one element in bytes.
    pub fn byte_width(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F64 => 8,
        }
    }

    /// The one-byte tag every FRaZ wire format stores for this type.
    pub fn tag(self) -> u8 {
        match self {
            DType::F32 => 0,
            DType::F64 => 1,
        }
    }

    /// Inverse of [`DType::tag`]; `None` for a tag no writer emits.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(DType::F32),
            1 => Some(DType::F64),
            _ => None,
        }
    }
}

/// The raw values of one field at one time-step.
#[derive(Debug, Clone, PartialEq)]
pub enum DataBuffer {
    F32(Vec<f32>),
    F64(Vec<f64>),
}

impl DataBuffer {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            DataBuffer::F32(v) => v.len(),
            DataBuffer::F64(v) => v.len(),
        }
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        match self {
            DataBuffer::F32(_) => DType::F32,
            DataBuffer::F64(_) => DType::F64,
        }
    }

    /// Total size in bytes of the uncompressed values.
    pub fn byte_size(&self) -> usize {
        self.len() * self.dtype().byte_width()
    }

    /// Widen (or copy) the values to `f64`.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        match self {
            DataBuffer::F32(v) => v.iter().map(|&x| x as f64).collect(),
            DataBuffer::F64(v) => v.clone(),
        }
    }

    /// Narrow (or copy) the values to `f32`.
    pub fn to_f32_vec(&self) -> Vec<f32> {
        match self {
            DataBuffer::F32(v) => v.clone(),
            DataBuffer::F64(v) => v.iter().map(|&x| x as f32).collect(),
        }
    }

    /// Rebuild a buffer of the given `dtype` from `f64` values (used by
    /// decompressors so the reconstructed buffer matches the original type).
    pub fn from_f64(values: Vec<f64>, dtype: DType) -> Self {
        match dtype {
            DType::F32 => DataBuffer::F32(values.into_iter().map(|x| x as f32).collect()),
            DType::F64 => DataBuffer::F64(values),
        }
    }

    /// Serialize the raw values as little-endian bytes (the SDRBench file
    /// layout).
    pub fn to_le_bytes(&self) -> Vec<u8> {
        match self {
            DataBuffer::F32(v) => {
                let mut out = Vec::with_capacity(v.len() * 4);
                for &x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
                out
            }
            DataBuffer::F64(v) => {
                let mut out = Vec::with_capacity(v.len() * 8);
                for &x in v {
                    out.extend_from_slice(&x.to_le_bytes());
                }
                out
            }
        }
    }

    /// Parse little-endian bytes into a buffer of the given type.
    ///
    /// Returns `None` if the byte count is not a multiple of the element
    /// width.
    pub fn from_le_bytes(bytes: &[u8], dtype: DType) -> Option<Self> {
        let width = dtype.byte_width();
        if bytes.len() % width != 0 {
            return None;
        }
        Some(match dtype {
            DType::F32 => DataBuffer::F32(
                bytes
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect(),
            ),
            DType::F64 => DataBuffer::F64(
                bytes
                    .chunks_exact(8)
                    .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
                    .collect(),
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_widths_and_tags() {
        assert_eq!(DType::F32.byte_width(), 4);
        assert_eq!(DType::F64.byte_width(), 8);
        for dtype in [DType::F32, DType::F64] {
            assert_eq!(DType::from_tag(dtype.tag()), Some(dtype));
        }
        assert_eq!(DType::from_tag(2), None);
    }

    #[test]
    fn len_and_byte_size() {
        let b = DataBuffer::F32(vec![1.0; 10]);
        assert_eq!(b.len(), 10);
        assert_eq!(b.byte_size(), 40);
        assert!(!b.is_empty());
        let b = DataBuffer::F64(vec![]);
        assert!(b.is_empty());
        assert_eq!(b.byte_size(), 0);
    }

    #[test]
    fn widening_and_narrowing() {
        let b = DataBuffer::F32(vec![1.5, -2.0]);
        assert_eq!(b.to_f64_vec(), vec![1.5, -2.0]);
        let b = DataBuffer::F64(vec![3.25, 4.0]);
        assert_eq!(b.to_f32_vec(), vec![3.25f32, 4.0]);
    }

    #[test]
    fn from_f64_respects_dtype() {
        let b = DataBuffer::from_f64(vec![1.0, 2.0], DType::F32);
        assert_eq!(b.dtype(), DType::F32);
        let b = DataBuffer::from_f64(vec![1.0, 2.0], DType::F64);
        assert_eq!(b.dtype(), DType::F64);
    }

    #[test]
    fn le_bytes_roundtrip_f32() {
        let b = DataBuffer::F32(vec![1.0, -2.5, 3.25e-7, f32::MAX]);
        let bytes = b.to_le_bytes();
        assert_eq!(bytes.len(), 16);
        assert_eq!(DataBuffer::from_le_bytes(&bytes, DType::F32).unwrap(), b);
    }

    #[test]
    fn le_bytes_roundtrip_f64() {
        let b = DataBuffer::F64(vec![1.0, -2.5e100, 3.25e-300]);
        let bytes = b.to_le_bytes();
        assert_eq!(bytes.len(), 24);
        assert_eq!(DataBuffer::from_le_bytes(&bytes, DType::F64).unwrap(), b);
    }

    #[test]
    fn misaligned_bytes_rejected() {
        assert!(DataBuffer::from_le_bytes(&[0u8; 7], DType::F32).is_none());
        assert!(DataBuffer::from_le_bytes(&[0u8; 12], DType::F64).is_none());
    }
}
