//! FNV-1a 64, kept where it is part of what is stored: shard routing
//! ([`crate::shard`]; placement is persisted with every durable store),
//! and the seal of a snapshot of version 1 or 2, which
//! [`crate::persist`] checks only to refuse such a snapshot by its
//! version and leave it alone. It must be stable across process runs
//! (`std`'s default hasher is seeded) and never change. Frames, log
//! records and current snapshots are sealed by the word-wise
//! `checksum64` instead.

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
