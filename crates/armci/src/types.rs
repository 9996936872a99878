//! Core ARMCI data types.

use crate::error::{ArmciError, ArmciResult};

/// A PGAS global address: `⟨process id, address⟩` (§IV).
///
/// Addresses are opaque byte offsets in the owning process's global
/// allocation space, handed out by `ARMCI_Malloc`; pointer arithmetic via
/// [`GlobalAddr::offset`] mirrors the C idiom `base + n`. The all-zero
/// address plays the role of `NULL` (used for zero-size allocation slices,
/// §V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalAddr {
    /// Absolute process id (rank in the ARMCI world group).
    pub rank: usize,
    /// Byte address in that process's global space; `0` = NULL.
    pub addr: usize,
}

impl GlobalAddr {
    /// The NULL global address (zero-size allocation slices).
    pub const NULL: GlobalAddr = GlobalAddr { rank: 0, addr: 0 };

    /// New address.
    pub fn new(rank: usize, addr: usize) -> GlobalAddr {
        GlobalAddr { rank, addr }
    }

    /// Is this the NULL address?
    pub fn is_null(&self) -> bool {
        self.addr == 0
    }

    /// Pointer arithmetic: `self + bytes`.
    #[must_use]
    pub fn offset(&self, bytes: usize) -> GlobalAddr {
        debug_assert!(!self.is_null(), "offsetting NULL global address");
        GlobalAddr {
            rank: self.rank,
            addr: self.addr + bytes,
        }
    }

    /// Byte distance to `other` (must be on the same rank and not before
    /// `self`).
    pub fn distance_to(&self, other: GlobalAddr) -> ArmciResult<usize> {
        if self.rank != other.rank || other.addr < self.addr {
            return Err(ArmciError::BadDescriptor(format!(
                "distance from {self:?} to {other:?} undefined"
            )));
        }
        Ok(other.addr - self.addr)
    }
}

/// Generalized I/O vector descriptor (`armci_giov_t`, §VI-A): a series of
/// equal-size transfers between one local buffer and one remote process.
///
/// The C struct carries raw pointer arrays for both sides; the Rust shape
/// keeps the local side as offsets into a caller-provided slice and the
/// remote side as addresses on a single target process (matching
/// `ARMCI_PutV(desc, len, proc)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IovDesc {
    /// Target process (absolute id).
    pub rank: usize,
    /// Byte length of every segment (`bytes`).
    pub bytes: usize,
    /// Local offset of each segment within the user buffer
    /// (`src_ptr_array` / `dst_ptr_array`, local side).
    pub local_offsets: Vec<usize>,
    /// Remote global address of each segment (remote side).
    pub remote_addrs: Vec<usize>,
}

impl IovDesc {
    /// Validates shape: equal-length arrays and non-zero segment size.
    pub fn validate(&self) -> ArmciResult<()> {
        if self.local_offsets.len() != self.remote_addrs.len() {
            return Err(ArmciError::BadDescriptor(format!(
                "IOV: {} local vs {} remote segments",
                self.local_offsets.len(),
                self.remote_addrs.len()
            )));
        }
        if self.bytes == 0 && !self.local_offsets.is_empty() {
            return Err(ArmciError::BadDescriptor("IOV: zero-byte segments".into()));
        }
        Ok(())
    }

    /// Number of segments (`ptr_array_len`).
    pub fn len(&self) -> usize {
        self.remote_addrs.len()
    }

    /// Is the descriptor empty?
    pub fn is_empty(&self) -> bool {
        self.remote_addrs.is_empty()
    }

    /// Total payload bytes.
    pub fn total_bytes(&self) -> usize {
        self.bytes * self.len()
    }

    /// The minimal remote address touched, if any.
    pub fn remote_min(&self) -> Option<usize> {
        self.remote_addrs.iter().copied().min()
    }

    /// One past the maximal remote byte touched, if any.
    pub fn remote_end(&self) -> Option<usize> {
        self.remote_addrs.iter().map(|&a| a + self.bytes).max()
    }

    /// Required length of the local buffer.
    pub fn local_end(&self) -> usize {
        self.local_offsets
            .iter()
            .map(|&o| o + self.bytes)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_address() {
        assert!(GlobalAddr::NULL.is_null());
        assert!(!GlobalAddr::new(0, 64).is_null());
    }

    #[test]
    fn offset_arithmetic() {
        let a = GlobalAddr::new(3, 0x1000);
        let b = a.offset(0x40);
        assert_eq!(b, GlobalAddr::new(3, 0x1040));
        assert_eq!(a.distance_to(b).unwrap(), 0x40);
    }

    #[test]
    fn distance_rejects_cross_rank_and_backwards() {
        let a = GlobalAddr::new(1, 100);
        assert!(a.distance_to(GlobalAddr::new(2, 200)).is_err());
        assert!(a.distance_to(GlobalAddr::new(1, 50)).is_err());
    }

    #[test]
    fn iov_validation() {
        let good = IovDesc {
            rank: 1,
            bytes: 8,
            local_offsets: vec![0, 16],
            remote_addrs: vec![100, 200],
        };
        good.validate().unwrap();
        assert_eq!(good.len(), 2);
        assert_eq!(good.total_bytes(), 16);
        assert_eq!(good.remote_min(), Some(100));
        assert_eq!(good.remote_end(), Some(208));
        assert_eq!(good.local_end(), 24);

        let bad = IovDesc {
            rank: 1,
            bytes: 8,
            local_offsets: vec![0],
            remote_addrs: vec![100, 200],
        };
        assert!(bad.validate().is_err());

        let zero = IovDesc {
            rank: 0,
            bytes: 0,
            local_offsets: vec![0],
            remote_addrs: vec![4],
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn empty_iov_is_valid() {
        let e = IovDesc {
            rank: 0,
            bytes: 0,
            local_offsets: vec![],
            remote_addrs: vec![],
        };
        e.validate().unwrap();
        assert!(e.is_empty());
        assert_eq!(e.remote_min(), None);
        assert_eq!(e.local_end(), 0);
    }
}
