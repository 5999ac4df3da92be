//! Compact binary tensor serialization over plain byte slices.
//!
//! Used by the checkpointing layer in `vsan-nn` to persist model parameters
//! between training and evaluation binaries. The format is deliberately
//! trivial:
//!
//! ```text
//! magic  u32  = 0x5653_414E  ("VSAN")
//! rank   u32
//! dims   u64 × rank
//! data   f32 × numel        (little-endian)
//! ```

use crate::{Result, Tensor, TensorError};

/// Format magic: ASCII "VSAN".
pub const MAGIC: u32 = 0x5653_414E;

/// Encode a tensor into a fresh byte buffer.
pub fn encode(t: &Tensor) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + t.rank() * 8 + t.numel() * 4);
    encode_into(t, &mut buf);
    buf
}

/// Encode a tensor, appending to an existing buffer (for multi-tensor
/// checkpoint files).
pub fn encode_into(t: &Tensor, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&(t.rank() as u32).to_le_bytes());
    for &d in t.dims() {
        buf.extend_from_slice(&(d as u64).to_le_bytes());
    }
    buf.extend(t.data().iter().flat_map(|v| v.to_le_bytes()));
}

/// Split the first `N` bytes off `buf`, or fail with `short`.
fn take<const N: usize>(buf: &mut &[u8], short: &'static str) -> Result<[u8; N]> {
    let (head, rest) = buf.split_first_chunk().ok_or(TensorError::Decode(short))?;
    *buf = rest;
    Ok(*head)
}

/// Decode one tensor from the front of `buf`, advancing it.
///
/// A hostile or truncated buffer is a [`TensorError::Decode`], never a
/// panic: every length is checked against what is left before it is
/// read, and `numel` and its byte count are checked products.
pub fn decode(buf: &mut &[u8]) -> Result<Tensor> {
    const HEADER: &str = "buffer too short for header";
    if u32::from_le_bytes(take(buf, HEADER)?) != MAGIC {
        return Err(TensorError::Decode("bad magic"));
    }
    let rank = u32::from_le_bytes(take(buf, HEADER)?) as usize;
    if rank > 8 {
        return Err(TensorError::Decode("implausible rank"));
    }
    let dims = (0..rank)
        .map(|_| Ok(u64::from_le_bytes(take(buf, "buffer too short for dims")?) as usize))
        .collect::<Result<Vec<usize>>>()?;
    let len = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d)).and_then(|n| n.checked_mul(4));
    let len = len.ok_or(TensorError::Decode("dims overflow"))?;
    let (data, rest) =
        buf.split_at_checked(len).ok_or(TensorError::Decode("buffer too short for data"))?;
    *buf = rest;
    let words = data.chunks_exact(4).map(|w| f32::from_le_bytes([w[0], w[1], w[2], w[3]]));
    Tensor::from_vec(words.collect(), &dims)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_tensor() {
        let t = Tensor::from_vec(vec![1.5, -2.25, 0.0, 3.75, 9.125, -0.5], &[2, 3]).unwrap();
        let enc = encode(&t);
        let mut buf = &enc[..];
        let back = decode(&mut buf).unwrap();
        assert_eq!(back, t);
        assert!(buf.is_empty());
    }

    #[test]
    fn round_trip_scalar() {
        let t = Tensor::scalar(42.5);
        let back = decode(&mut &encode(&t)[..]).unwrap();
        assert_eq!(back.numel(), 1);
        assert_eq!(back.data()[0], 42.5);
    }

    #[test]
    fn multiple_tensors_in_one_buffer() {
        let a = Tensor::ones(&[3]);
        let b = Tensor::full(&[2, 2], 7.0);
        let mut buf = Vec::new();
        encode_into(&a, &mut buf);
        encode_into(&b, &mut buf);
        let mut bytes = &buf[..];
        assert_eq!(decode(&mut bytes).unwrap(), a);
        assert_eq!(decode(&mut bytes).unwrap(), b);
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        let header = |magic: u32, dims: &[u64]| {
            let mut buf = magic.to_le_bytes().to_vec();
            buf.extend_from_slice(&(dims.len() as u32).to_le_bytes());
            dims.iter().for_each(|d| buf.extend_from_slice(&d.to_le_bytes()));
            buf
        };
        // Too short.
        assert!(decode(&mut &[1u8, 2, 3][..]).is_err());
        // Bad magic.
        let mut bad = header(0xDEAD_BEEF, &[1]);
        bad.extend_from_slice(&1.0f32.to_le_bytes());
        assert!(decode(&mut &bad[..]).is_err());
        // Truncated data.
        let enc = encode(&Tensor::ones(&[10]));
        assert!(decode(&mut &enc[..enc.len() - 4]).is_err());
        // Dims whose product, or its byte count, overflows a usize.
        for dims in [&[1u64 << 33, 1 << 33][..], &[1 << 62]] {
            assert_eq!(
                decode(&mut &header(MAGIC, dims)[..]),
                Err(TensorError::Decode("dims overflow")),
                "{dims:?}"
            );
        }
    }
}
