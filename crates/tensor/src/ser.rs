//! Compact binary serialization for tensors.
//!
//! Format (little-endian):
//! `magic "NTSR" | u32 version | u32 rank | u64 dim... | f32 data...`
//!
//! Used by the checkpoint store and the materialized-feature store. The
//! format is deliberately self-describing so that a store chunk can be read
//! back without consulting its manifest.

use crate::{Shape, Tensor, TensorError};
use nautilus_util::bytesio::{PutBytes, TakeBytes};

const MAGIC: &[u8; 4] = b"NTSR";
const VERSION: u32 = 1;

/// Errors produced when decoding serialized tensors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with the expected magic bytes.
    BadMagic,
    /// The version field is not supported by this build.
    BadVersion(u32),
    /// The buffer ended before the declared payload.
    Truncated,
    /// The declared shape implies an implausibly large payload.
    TooLarge(u64),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bad tensor magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported tensor format version {v}"),
            DecodeError::Truncated => write!(f, "truncated tensor buffer"),
            DecodeError::TooLarge(n) => write!(f, "declared tensor size {n} too large"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Upper bound on a single serialized tensor's element count (16 Gi elements),
/// guarding decode against corrupt headers.
const MAX_ELEMENTS: u64 = 1 << 34;

/// Serialized size in bytes of a tensor of the given shape.
pub fn encoded_len(shape: &Shape) -> usize {
    4 + 4 + 4 + 8 * shape.rank() + crate::ELEM_BYTES * shape.num_elements()
}

/// Appends the tensor's serialized form to `buf`.
pub fn encode_into(t: &Tensor, buf: &mut Vec<u8>) {
    buf.reserve(encoded_len(t.shape()));
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(t.shape().rank() as u32);
    for &d in &t.shape().0 {
        buf.put_u64_le(d as u64);
    }
    for &x in t.data() {
        buf.put_f32_le(x);
    }
}

/// Serializes one tensor into a fresh buffer.
pub fn encode(t: &Tensor) -> Vec<u8> {
    let mut buf = Vec::with_capacity(encoded_len(t.shape()));
    encode_into(t, &mut buf);
    buf
}

/// Decodes one tensor from the front of `buf`, advancing it past the payload.
pub fn decode_from(buf: &mut &[u8]) -> Result<Tensor, DecodeError> {
    let magic = buf.take_slice(4).ok_or(DecodeError::Truncated)?;
    if magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = buf.take_u32_le().ok_or(DecodeError::Truncated)?;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let rank = buf.take_u32_le().ok_or(DecodeError::Truncated)? as usize;
    // Every dim takes 8 bytes: bound the rank by the buffer before
    // allocating for it.
    if rank > buf.remaining() / 8 {
        return Err(DecodeError::Truncated);
    }
    let mut dims = Vec::with_capacity(rank);
    let mut elems: u64 = 1;
    for _ in 0..rank {
        let d = buf.take_u64_le().ok_or(DecodeError::Truncated)?;
        // Multiply in `Shape::num_elements` order, so a later zero dim
        // cannot hide an overflowing prefix.
        elems = elems.checked_mul(d).ok_or(DecodeError::TooLarge(u64::MAX))?;
        dims.push(d as usize);
    }
    if elems > MAX_ELEMENTS {
        return Err(DecodeError::TooLarge(elems));
    }
    let n = elems as usize;
    if buf.remaining() < n * crate::ELEM_BYTES {
        return Err(DecodeError::Truncated);
    }
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(buf.take_f32_le().ok_or(DecodeError::Truncated)?);
    }
    Tensor::from_vec(dims, data).map_err(|_| DecodeError::Truncated)
}

/// Decodes a single tensor that occupies the whole buffer.
pub fn decode(bytes: &[u8]) -> Result<Tensor, DecodeError> {
    let mut cur = bytes;
    decode_from(&mut cur)
}

/// Serializes a sequence of tensors back-to-back.
pub fn encode_many(tensors: &[Tensor]) -> Vec<u8> {
    let total: usize = tensors.iter().map(|t| encoded_len(t.shape())).sum();
    let mut buf = Vec::with_capacity(total);
    for t in tensors {
        encode_into(t, &mut buf);
    }
    buf
}

/// Decodes back-to-back tensors until the buffer is exhausted.
pub fn decode_many(bytes: &[u8]) -> Result<Vec<Tensor>, DecodeError> {
    let mut cur = bytes;
    let mut out = Vec::new();
    while cur.remaining() > 0 {
        out.push(decode_from(&mut cur)?);
    }
    Ok(out)
}

impl From<DecodeError> for TensorError {
    fn from(e: DecodeError) -> Self {
        TensorError::Incompatible(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{randn, seeded_rng};

    #[test]
    fn round_trip_single() {
        let t = randn([3, 4, 5], 1.0, &mut seeded_rng(1));
        let b = encode(&t);
        assert_eq!(b.len(), encoded_len(t.shape()));
        assert_eq!(decode(&b).unwrap(), t);
    }

    #[test]
    fn round_trip_scalar_and_empty() {
        let s = Tensor::scalar(3.5);
        assert_eq!(decode(&encode(&s)).unwrap(), s);
        let e = Tensor::zeros([0]);
        assert_eq!(decode(&encode(&e)).unwrap(), e);
    }

    #[test]
    fn round_trip_many() {
        let ts: Vec<Tensor> =
            (0..5).map(|i| randn([2, i + 1], 1.0, &mut seeded_rng(i as u64))).collect();
        let b = encode_many(&ts);
        assert_eq!(decode_many(&b).unwrap(), ts);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut b = Vec::new();
        b.put_slice(b"XXXX");
        b.put_u32_le(1);
        b.put_u32_le(0);
        assert_eq!(decode(&b), Err(DecodeError::BadMagic));
    }

    #[test]
    fn rejects_truncation() {
        let t = randn([4, 4], 1.0, &mut seeded_rng(2));
        let b = encode(&t);
        assert_eq!(decode(&b[..b.len() - 3]), Err(DecodeError::Truncated));
    }

    #[test]
    fn rejects_oversized_header() {
        let mut b = Vec::new();
        b.put_slice(MAGIC);
        b.put_u32_le(VERSION);
        b.put_u32_le(2);
        b.put_u64_le(1 << 40);
        b.put_u64_le(1 << 40);
        assert!(matches!(decode(&b), Err(DecodeError::TooLarge(_))));
    }

    #[test]
    fn rejects_rank_beyond_buffer_without_allocating() {
        let mut b = Vec::new();
        b.put_slice(MAGIC);
        b.put_u32_le(VERSION);
        b.put_u32_le(u32::MAX);
        assert_eq!(decode(&b), Err(DecodeError::Truncated));
    }

    #[test]
    fn rejects_dims_whose_product_overflows_before_a_zero() {
        let mut b = Vec::new();
        b.put_slice(MAGIC);
        b.put_u32_le(VERSION);
        b.put_u32_le(3);
        b.put_u64_le(1 << 40);
        b.put_u64_le(1 << 40);
        b.put_u64_le(0);
        assert!(matches!(decode(&b), Err(DecodeError::TooLarge(_))));
    }

    /// Byte soup built from back-to-back valid encodings (a matrix, a
    /// scalar, an empty tensor): truncations, bit flips and spliced random
    /// bytes, plus every header field (rank, each dim) overwritten with an
    /// extreme value. `decode_from` must return on every input, never
    /// panic or allocate past the buffer; whatever it decodes must be the
    /// exact bytes it consumed; and every strict prefix of a valid
    /// encoding must be an error.
    #[test]
    fn decode_from_is_total_over_byte_soup() {
        use nautilus_util::prop::{mutations_of, prop_check};

        let tensors =
            [randn([3, 2], 1.0, &mut seeded_rng(5)), Tensor::scalar(2.5), Tensor::zeros([0, 4])];
        let valid = encode_many(&tensors);
        let total = |bytes: &[u8]| -> Result<(), String> {
            let mut cur = bytes;
            while cur.remaining() > 0 {
                let before = cur.remaining();
                let Ok(t) = decode_from(&mut cur) else { break };
                let used = before - cur.remaining();
                let start = bytes.len() - before;
                nautilus_util::prop_assert!(
                    encode(&t) == bytes[start..start + used],
                    "decoded {t:?} is not the {used} bytes consumed"
                );
            }
            Ok(())
        };
        prop_check(0x5E12_0001, 600, &mutations_of(valid.clone(), &[]), |b| total(b));

        let extremes = [0u64, 1, 7, u32::MAX as u64, 1 << 40, u64::MAX];
        let matrix = encode(&tensors[0]);
        for (at, width) in [(8usize, 4usize), (12, 8), (20, 8)] {
            for &x in &extremes {
                let mut b = matrix.clone();
                b[at..at + width].copy_from_slice(&x.to_le_bytes()[..width]);
                total(&b).unwrap();
            }
        }

        for t in &tensors {
            let one = encode(t);
            for cut in 0..one.len() {
                assert!(decode_from(&mut &one[..cut]).is_err(), "prefix of {cut} bytes decoded");
            }
        }
    }
}
