//! `checksum64`, the seal of every frame, log record and snapshot
//! ([`crate::wire`], [`crate::persist`]): four lanes of multiply-xor over
//! 8-byte little-endian words, the lanes combined, the 0–7 tail bytes
//! folded in one at a time, the length mixed in, then an avalanche. It is
//! part of what is stored and sent, so it is portable (no `std::arch`, no
//! CPU-feature fork), unseeded and fixed for the formats that carry it:
//! frame magic `GWF3`, log version 4, snapshot version 3. The lanes are
//! independent multiply chains a core runs side by side, where
//! byte-serial FNV-1a waited on one multiply a byte.

/// The one odd multiplier: multiplying by it is a bijection of `u64`.
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The lanes' starting states.
const SEEDS: [u64; 4] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// Fold `word` into `state`: a bijection of the state for a fixed word,
/// and of the word for a fixed state.
fn step(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(MUL).rotate_left(29)
}

/// The checksum of `bytes`; word `i` goes to lane `i % 4`.
pub(crate) fn checksum64(bytes: &[u8]) -> u64 {
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("eight bytes"));
    let mut lanes = SEEDS;
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = step(*lane, word(w));
        }
    }
    let mut words = stripes.remainder().chunks_exact(8);
    for (lane, w) in lanes.iter_mut().zip(&mut words) {
        *lane = step(*lane, word(w));
    }
    let mut h = lanes.into_iter().fold(bytes.len() as u64, step);
    for &b in words.remainder() {
        h = step(h, u64::from(b));
    }
    h = (h ^ h >> 32).wrapping_mul(MUL);
    h ^ h >> 29
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every single-bit flip of a buffer of every length from 0 to 71
    /// bytes (every tail length, every lane, up to three stripes) changes
    /// the sum, and by construction: the flip changes one word or tail
    /// byte and nothing before it. The step taking it in is a bijection
    /// of the word, so its lane's state differs, and each later step of
    /// the lane is a bijection of the state. Combining that lane is a
    /// bijection of the lane, each later combine and tail step one of the
    /// running sum, and the final xor-shifts and multiply are bijections.
    #[test]
    fn every_bit_flip_of_every_length_changes_the_checksum() {
        let mut buf: Vec<u8> = (0..72u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..72 {
            let sum = checksum64(&buf[..len]);
            for bit in 0..len * 8 {
                buf[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum64(&buf[..len]), sum, "length {len}, bit {bit}");
                buf[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }
}
