//! The one shape of ARMCI's data API (§IV, §VI-A, §VI-C).
//!
//! Every get, put and accumulate — contiguous, strided or I/O vector,
//! blocking or nonblocking — is one [`Armci::xfer`](crate::Armci::xfer)
//! call: the shape of its remote side ([`Remote`]) and its local buffer
//! ([`Local`]), whose variant is the operation. The trait's fifteen ARMCI
//! verbs are provided one-liners over that method, and every backend's
//! `xfer` starts with the one shape check, [`Remote::check`].

use crate::acc::AccKind;
use crate::error::{ArmciError, ArmciResult};
use crate::stride::{extent, validate};
use crate::types::{GlobalAddr, IovDesc};
use std::ops::Range;

/// The remote side of a transfer.
#[derive(Debug, Clone, Copy)]
pub enum Remote<'a> {
    /// As many contiguous bytes as the local buffer holds.
    Contig(GlobalAddr),
    /// A strided patch (Table I): `count[0]` contiguous bytes repeated
    /// per the higher counts, `strides` apart at the target and
    /// `local_strides` apart in the local buffer.
    Strided {
        addr: GlobalAddr,
        strides: &'a [usize],
        local_strides: &'a [usize],
        count: &'a [usize],
    },
    /// A generalized I/O vector.
    Iov(&'a IovDesc),
}

/// The local side of a transfer. Its variant is the operation.
#[derive(Debug)]
pub enum Local<'a> {
    /// Destination of a get.
    Get(&'a mut [u8]),
    /// Source of a put.
    Put(&'a [u8]),
    /// Source of an accumulate, with its element type and scale.
    Acc(AccKind, &'a [u8]),
}

impl Local<'_> {
    /// Bytes in the local buffer.
    pub fn len(&self) -> usize {
        match self {
            Local::Get(b) => b.len(),
            Local::Put(b) | Local::Acc(_, b) => b.len(),
        }
    }

    /// True when the local buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for an accumulate.
    pub fn is_acc(&self) -> bool {
        matches!(self, Local::Acc(..))
    }

    /// The same operation on `range` of the local buffer.
    pub fn slice(&mut self, range: Range<usize>) -> Local<'_> {
        match self {
            Local::Get(b) => Local::Get(&mut b[range]),
            Local::Put(b) => Local::Put(&b[range]),
            Local::Acc(kind, b) => Local::Acc(*kind, &b[range]),
        }
    }
}

impl Remote<'_> {
    /// The shape check every backend's `xfer` runs before it moves a
    /// byte: the strided or IOV descriptor is valid, the origin shape
    /// fits in the local buffer, and an accumulate's segments are whole
    /// elements. `Ok(false)` means the transfer moves no bytes (an empty
    /// buffer or IOV), which completes at once.
    #[inline]
    pub fn check(&self, local: &Local<'_>) -> ArmciResult<bool> {
        let len = local.len();
        let (seg, end, empty) = match *self {
            Remote::Contig(_) => (len, len, len == 0),
            Remote::Strided {
                strides,
                local_strides,
                count,
                ..
            } => {
                validate(local_strides, count)?;
                validate(strides, count)?;
                (count[0], extent(local_strides, count), false)
            }
            Remote::Iov(desc) => {
                desc.validate()?;
                (desc.bytes, desc.local_end(), desc.is_empty())
            }
        };
        if end > len {
            return Err(ArmciError::BadDescriptor(format!(
                "origin extent {end} exceeds buffer {len}"
            )));
        }
        if let Local::Acc(kind, _) = local {
            kind.check_len(seg)?;
        }
        Ok(!empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_rejects_a_short_origin() {
        let src = [0u8; 100];
        let strided = Remote::Strided {
            addr: GlobalAddr::new(0, 64),
            strides: &[64],
            local_strides: &[32],
            count: &[16, 4],
        };
        assert!(matches!(
            strided.check(&Local::Put(&src)),
            Err(ArmciError::BadDescriptor(_))
        ));
        let desc = IovDesc {
            rank: 0,
            bytes: 16,
            local_offsets: vec![0, 96],
            remote_addrs: vec![64, 128],
        };
        assert!(matches!(
            Remote::Iov(&desc).check(&Local::Put(&src)),
            Err(ArmciError::BadDescriptor(_))
        ));
        assert!(Remote::Iov(&desc).check(&Local::Put(&[0u8; 112])).unwrap());
    }

    #[test]
    fn check_reports_empty_transfers_and_odd_accumulates() {
        let at = Remote::Contig(GlobalAddr::new(0, 64));
        assert!(!at.check(&Local::Get(&mut [])).unwrap());
        assert!(at
            .check(&Local::Acc(AccKind::Double(1.0), &[0u8; 16]))
            .unwrap());
        assert!(at
            .check(&Local::Acc(AccKind::Double(1.0), &[0u8; 12]))
            .is_err());
        let empty = IovDesc {
            rank: 0,
            bytes: 8,
            local_offsets: vec![],
            remote_addrs: vec![],
        };
        assert!(!Remote::Iov(&empty).check(&Local::Put(&[])).unwrap());
    }

    #[test]
    fn slice_keeps_the_operation() {
        let mut buf = [1u8, 2, 3, 4];
        let mut get = Local::Get(&mut buf);
        if let Local::Get(b) = get.slice(1..3) {
            b.copy_from_slice(&[9, 9]);
        }
        assert_eq!(buf, [1, 9, 9, 4]);
        let src = [5u8; 8];
        let mut acc = Local::Acc(AccKind::Long(2), &src);
        assert!(matches!(acc.slice(0..8), Local::Acc(AccKind::Long(2), b) if b.len() == 8));
    }
}
