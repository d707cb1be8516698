//! Page checksums.
//!
//! A slice-by-16 CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`)
//! computed in-crate — no external dependency — with its sixteen 256-entry
//! tables generated at compile time by a `const fn`. Slice-by-16 folds
//! sixteen input bytes per step through sixteen independent table lookups
//! instead of one byte per dependent lookup, which makes verifying a 16 KiB
//! page several times cheaper than the byte-at-a-time loop while producing
//! the identical digest. [`FileStore`](crate::FileStore) writes a checksum
//! trailer next to every page payload and verifies it on read, so torn
//! writes and bit rot surface as a typed
//! [`ChecksumMismatch`](crate::StorageError::ChecksumMismatch) instead of
//! silently corrupt scan results.
//!
//! Page checksums are **keyed by page number**: the digest covers the
//! little-endian page number followed by the payload. A page written to the
//! wrong slot (a misdirected write) therefore fails verification even when
//! its bytes are individually intact.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC contribution of byte `b` followed by `k` zero bytes, so the sixteen
/// bytes of one step can be looked up independently and XORed together.
const fn make_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
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
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = make_tables();

/// Streaming CRC-32 state. Feed byte slices with [`Crc32::update`], extract
/// the digest with [`Crc32::finish`].
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// A fresh digest.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.0;
        let (blocks, tail) = bytes.as_chunks::<16>();
        for b in blocks {
            let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[15][(lo & 0xFF) as usize]
                ^ t[14][((lo >> 8) & 0xFF) as usize]
                ^ t[13][((lo >> 16) & 0xFF) as usize]
                ^ t[12][(lo >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in tail {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// The final checksum.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// The checksum persisted with a page: CRC-32 over the little-endian page
/// number followed by the payload (padded to the slot's full page size by
/// the store before hashing, so re-verification needs no length metadata).
pub fn page_checksum(page_no: u64, payload: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(&page_no.to_le_bytes());
    c.update(payload);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time CRC the sliced update must equal.
    fn bytewise(crc: u32, bytes: &[u8]) -> u32 {
        bytes
            .iter()
            .fold(crc, |crc, &b| (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize])
    }

    /// A deterministic, non-periodic 16 KiB page payload.
    fn pinned_payload() -> Vec<u8> {
        (0..16384usize).map(|i| ((i * 131 + 7) ^ (i >> 8)) as u8).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random lengths up to three 16 KiB pages, random start offsets
        /// (so 16-byte blocks start at every alignment) and a random split
        /// into two streaming updates: the sliced digest always equals the
        /// bytewise one.
        #[test]
        fn sliced_update_equals_bytewise(
            seed in any::<u64>(),
            len in 0usize..3 * 16384,
            offset in 0usize..16,
            split in any::<u32>(),
        ) {
            let mut x = seed | 1;
            let data: Vec<u8> = (0..offset + len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let bytes = &data[offset..];
            let cut = split as usize % (len + 1);
            let mut c = Crc32::new();
            c.update(&bytes[..cut]);
            c.update(&bytes[cut..]);
            prop_assert_eq!(c.finish(), bytewise(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF);
        }
    }

    #[test]
    fn page_checksums_match_the_persisted_trailer_values() {
        // Values the byte-at-a-time implementation wrote into every
        // checksummed chain file: the on-disk trailer must not move.
        assert_eq!(page_checksum(42, &pinned_payload()), 0x8EDC_0667);
        assert_eq!(page_checksum(0, &[0u8; 16384]), 0x5CC2_A53E);
    }

    #[test]
    fn matches_the_ieee_reference_vector() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = b"page as you go: piecewise columnar access";
        let mut c = Crc32::new();
        c.update(&data[..10]);
        c.update(&data[10..]);
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn page_checksum_is_keyed_by_page_number() {
        let payload = vec![0xAB; 64];
        assert_ne!(page_checksum(0, &payload), page_checksum(1, &payload));
        assert_eq!(page_checksum(3, &payload), page_checksum(3, &payload));
    }

    #[test]
    fn single_bit_flips_change_the_digest() {
        let payload = vec![0u8; 256];
        let base = page_checksum(0, &payload);
        for bit in [0usize, 7, 1000, 2047] {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(page_checksum(0, &flipped), base, "bit {bit} went undetected");
        }
    }
}
