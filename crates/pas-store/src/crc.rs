//! CRC-32 (IEEE 802.3 polynomial, reflected) — the per-record and
//! per-header integrity check of the segment format.
//!
//! Implemented in-crate so the store has no external dependency. Its speed
//! matters: a warm open checks the whole segment log, which usually comes
//! from the page cache, so a loop that folds one byte per step would be
//! most of the open's time. The loop here is slicing-by-8: eight 256-entry
//! tables, built at compile time, fold eight bytes per step, and the last
//! `len % 8` bytes go through the first table one at a time. Table `k`
//! holds the CRC of a byte followed by `k` zero bytes, so the eight lookups
//! of one step XOR to what eight bytewise steps compute, and the value is
//! the same.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xedb8_8320;

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` advances
/// `TABLES[k - 1][b]` by one zero byte.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes` (standard init/final XOR with `0xffff_ffff`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc ^ 0xffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plain bytewise loop over the first table.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        crc ^ 0xffff_ffff
    }

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
        assert_eq!(bytewise(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_loop() {
        // Every tail length and every start alignment.
        let data: Vec<u8> =
            (0..308u32).map(|i| (i.wrapping_mul(0x9e37_79b9) >> 13) as u8).collect();
        for offset in 0..8 {
            for len in 0..=300 {
                let bytes = &data[offset..offset + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "offset {offset}, len {len}");
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"pas-store segment record");
        let mut flipped = b"pas-store segment record".to_vec();
        flipped[7] ^= 0x01;
        assert_ne!(base, crc32(&flipped));
    }
}
