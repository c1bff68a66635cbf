//! FNV-1a 64: the crate's one deterministic hash.
//!
//! Used for snapshot, WAL-record and wire-frame checksums
//! ([`crate::persist`], [`crate::wire`]) and for shard routing
//! ([`crate::shard`]) — places where the hash is part of what is stored
//! or sent, so it must be stable across process runs (`std`'s default
//! hasher is seeded) and never change.

/// The FNV-1a 64 offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into a running FNV-1a state (seed with [`FNV_OFFSET`]).
pub(crate) fn fnv1a_with(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64 of one byte slice.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_with(FNV_OFFSET, bytes)
}
