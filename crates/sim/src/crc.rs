//! Shared table-driven CRC-32 (IEEE 802.3, reflected).
//!
//! One implementation serves both the network frames (`nlft-net`) and the
//! kernel's data-integrity seals (`nlft-kernel`); before this module each
//! carried its own bitwise 8-iterations-per-byte copy, which was both slow
//! (the CRC sits on the campaign hot path — every frame encode/decode and
//! every sealed-message check) and a maintenance hazard: two independently
//! maintained polynomials can drift apart silently.
//!
//! The variant is the classic CRC-32 ("CRC-32/ISO-HDLC"): polynomial
//! `0xEDB88320` (reflected), initial value and final XOR `0xFFFFFFFF`.
//! Its check value over the ASCII digits `"123456789"` is `0xCBF43926`,
//! pinned by known-answer tests here *and* at both call sites so the
//! convention can never silently regress.
//!
//! The implementation is slicing-by-four: four 256-entry tables, built at
//! compile time, let the inner loop consume one 32-bit word per iteration
//! instead of one bit. The result is bit-identical to the bitwise
//! definition (a property test below checks this against a reference
//! implementation on random buffers).

/// The reflected IEEE 802.3 generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The classic one-byte-at-a-time table: `TABLE[0][b]` advances the CRC
/// state by one input byte `b`.
const fn base_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Slicing-by-four tables: `TABLE[k][b]` is the CRC contribution of byte
/// `b` positioned `k` bytes before the end of a four-byte block.
const fn slice_tables() -> [[u32; 256]; 4] {
    let t0 = base_table();
    let mut tables = [[0u32; 256]; 4];
    tables[0] = t0;
    let mut i = 0;
    while i < 256 {
        let mut crc = t0[i];
        let mut k = 1;
        while k < 4 {
            crc = (crc >> 8) ^ t0[(crc & 0xFF) as usize];
            tables[k][i] = crc;
            k += 1;
        }
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 4] = slice_tables();

/// Advances a raw (pre-inverted) CRC state by one aligned 32-bit block
/// given as a little-endian word.
#[inline]
fn step_word(crc: u32, word: u32) -> u32 {
    let x = crc ^ word;
    TABLES[3][(x & 0xFF) as usize]
        ^ TABLES[2][((x >> 8) & 0xFF) as usize]
        ^ TABLES[1][((x >> 16) & 0xFF) as usize]
        ^ TABLES[0][(x >> 24) as usize]
}

/// Advances a raw (pre-inverted) CRC state by one input byte.
#[inline]
fn step_byte(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize]
}

/// CRC-32 (IEEE 802.3, reflected) over raw bytes, one word at a time.
///
/// # Examples
///
/// ```
/// use nlft_sim::crc::crc32;
///
/// assert_eq!(crc32(b"123456789"), 0xCBF43926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(4);
    for chunk in chunks.by_ref() {
        let word = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        crc = step_word(crc, word);
    }
    for &b in chunks.remainder() {
        crc = step_byte(crc, b);
    }
    !crc
}

/// CRC-32 over 32-bit words, each contributing its four bytes in
/// little-endian order: `crc32_words(&[w])` equals
/// [`crc32`]`(&w.to_le_bytes())`.
///
/// Because the byte stream is word-aligned by construction, this is the
/// pure word-at-a-time path — no per-byte tail.
pub fn crc32_words(words: &[u32]) -> u32 {
    crc32_word_stream(words.iter().copied())
}

/// [`crc32_words`] over a word stream, so a CRC over words that are not
/// contiguous in memory (a header word followed by a payload slice, say)
/// needs no concatenated copy.
pub fn crc32_word_stream(words: impl IntoIterator<Item = u32>) -> u32 {
    !words.into_iter().fold(0xFFFF_FFFFu32, step_word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngStream;

    /// The bitwise textbook definition the tables must reproduce.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let lsb = crc & 1;
                crc >>= 1;
                if lsb != 0 {
                    crc ^= POLY;
                }
            }
        }
        !crc
    }

    #[test]
    fn ieee_known_answer() {
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
    }

    #[test]
    fn zeros_known_answer() {
        assert_eq!(crc32(&[0u8; 32]), 0x190A55AD);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(&[]), crc32_bitwise(&[]));
        assert_eq!(crc32_words(&[]), crc32(&[]));
    }

    #[test]
    fn word_stream_matches_contiguous_words() {
        let payload = [0x4B0, 7, 0xDEAD_BEEF];
        let stream = crc32_word_stream(std::iter::once(42).chain(payload.iter().copied()));
        assert_eq!(stream, crc32_words(&[42, 0x4B0, 7, 0xDEAD_BEEF]));
    }

    #[test]
    fn table_matches_bitwise_on_random_buffers() {
        let mut rng = RngStream::new(0x51C3).fork("crc-prop");
        for len in 0..64usize {
            let buf: Vec<u8> = (0..len).map(|_| rng.uniform_range(0, 256) as u8).collect();
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "len={len} buf={buf:?}");
        }
        // A longer buffer exercises many word blocks plus every tail size.
        for tail in 0..4usize {
            let buf: Vec<u8> = (0..1021 + tail)
                .map(|_| rng.uniform_range(0, 256) as u8)
                .collect();
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "tail={tail}");
        }
    }

    #[test]
    fn words_match_bytes() {
        let mut rng = RngStream::new(0xC4C).fork("crc-words");
        let words: Vec<u32> = (0..37)
            .map(|_| rng.uniform_range(0, 1 << 32) as u32)
            .collect();
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(crc32_words(&words), crc32(&bytes));
    }

    #[test]
    fn single_bit_sensitivity() {
        let base = crc32(b"node-level fault tolerance");
        let mut buf = b"node-level fault tolerance".to_vec();
        buf[7] ^= 0x01;
        assert_ne!(crc32(&buf), base);
    }
}
