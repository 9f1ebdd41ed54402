//! The checksum shared by the WAL, the page file, the meta file, and the
//! wire protocol: FNV-1a taken a 64-bit word at a time.
//!
//! The classic byte-wise FNV-1a spends one dependent multiply per byte
//! — 4–5 µs on a 4 KiB page, paid on every page read, page write, WAL
//! frame and meta seal. This variant keeps the xor-then-multiply step
//! but feeds it eight little-endian bytes per multiply (64-bit FNV
//! prime and offset basis), folds the high half of the state back into
//! the low half after every step so a flipped top bit cannot stay
//! confined to its lane, and finishes by mixing in the total length
//! (so a zero-padded tail differs from real zero bytes) and folding to
//! 32 bits. Every step is a bijection of the state for a fixed word and
//! of the word for a fixed state, so damage confined to one word always
//! changes the 64-bit state; the 32-bit fold keeps the usual
//! 1-in-4-billion miss rate per check.
//!
//! It is not cryptographic — it exists to catch torn writes, bit rot,
//! and misdirected I/O, not adversaries. The 32-bit result is used
//! everywhere a frame or page already carries enough context (length,
//! offset, page id) that the miss rate is acceptable.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming state: the hash so far plus up to seven bytes that have
/// not yet filled a word. Carrying the partial word across calls is
/// what makes [`fnv1a_multi`] equal the checksum of the concatenation
/// however the parts are cut.
struct WordHasher {
    h: u64,
    /// Pending bytes, little-endian, lowest byte first.
    carry: u64,
    ncarry: u32,
    len: u64,
}

impl WordHasher {
    fn new() -> Self {
        WordHasher { h: OFFSET_BASIS, carry: 0, ncarry: 0, len: 0 }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        let x = (self.h ^ w).wrapping_mul(PRIME);
        self.h = x ^ (x >> 32);
    }

    #[inline]
    fn byte(&mut self, b: u8) {
        self.carry |= u64::from(b) << (8 * self.ncarry);
        self.ncarry += 1;
        if self.ncarry == 8 {
            self.word(self.carry);
            self.carry = 0;
            self.ncarry = 0;
        }
    }

    fn update(&mut self, mut part: &[u8]) {
        self.len = self.len.wrapping_add(part.len() as u64);
        // Top up a partial word left by the previous part.
        while self.ncarry != 0 {
            let Some((&b, rest)) = part.split_first() else { return };
            self.byte(b);
            part = rest;
        }
        while let Some((w, rest)) = part.split_first_chunk::<8>() {
            self.word(u64::from_le_bytes(*w));
            part = rest;
        }
        for &b in part {
            self.byte(b);
        }
    }

    fn finish(mut self) -> u32 {
        if self.ncarry != 0 {
            self.word(self.carry);
        }
        self.word(self.len);
        (self.h ^ (self.h >> 32)) as u32
    }
}

/// 32-bit word-wise FNV-1a over one buffer.
pub fn fnv1a(data: &[u8]) -> u32 {
    fnv1a_multi(&[data])
}

/// 32-bit word-wise FNV-1a over the concatenation of several buffers,
/// without materialising the concatenation. Callers mix positional
/// context (offsets, page ids) into the hash by passing it as a leading
/// slice.
pub fn fnv1a_multi(parts: &[&[u8]]) -> u32 {
    let mut hasher = WordHasher::new();
    for part in parts {
        hasher.update(part);
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic non-repeating filler.
    fn filler(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i.wrapping_mul(2_654_435_761) >> 7) as u8).collect()
    }

    #[test]
    fn multi_matches_concatenation_however_the_parts_are_cut() {
        // Odd lengths, empty parts, and cuts that land mid-word.
        let data = filler(131);
        let whole = fnv1a(&data);
        for cut_a in [0, 1, 3, 7, 8, 9, 15, 64, 130, 131] {
            for cut_b in [cut_a, cut_a + 1, cut_a + 5, 131] {
                let cut_b = cut_b.min(data.len());
                let (a, rest) = data.split_at(cut_a);
                let (b, c) = rest.split_at(cut_b - cut_a);
                assert_eq!(fnv1a_multi(&[a, b, c]), whole, "cuts at {cut_a}/{cut_b}");
            }
        }
        // One byte per part is the extreme case.
        let singles: Vec<&[u8]> = data.chunks(1).collect();
        assert_eq!(fnv1a_multi(&singles), whole);
    }

    #[test]
    fn length_is_part_of_the_sum() {
        // A zero-padded tail word must not collide with real zero bytes.
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ab\0"));
        assert_ne!(fnv1a(b""), fnv1a(&[0u8; 8]));
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn any_single_bit_flip_in_a_page_changes_the_sum() {
        let mut page = filler(crate::PAGE_PAYLOAD);
        let clean = fnv1a_multi(&[&7u32.to_le_bytes(), &page]);
        for bit in 0..page.len() * 8 {
            page[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(fnv1a_multi(&[&7u32.to_le_bytes(), &page]), clean, "bit {bit}");
            page[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn top_bit_flips_in_two_words_do_not_cancel() {
        // The failure mode of an unfolded word-wise FNV: bit 63 never
        // mixes downward, so two top-bit flips cancel. The per-step fold
        // is what prevents it.
        let mut data = filler(64);
        let clean = fnv1a(&data);
        data[7] ^= 0x80;
        data[23] ^= 0x80;
        assert_ne!(fnv1a(&data), clean);
    }
}
