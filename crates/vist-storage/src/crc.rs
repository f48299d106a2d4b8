//! CRC32C (Castagnoli) checksums, used for page trailers and WAL records.
//!
//! Every frame read, frame write and WAL record crosses this module, so
//! its cost is part of what one page miss and one page write cost. Two
//! kernels, both eight input bytes per step, produce the same values:
//!
//! * **SSE4.2** (the `crc32` instruction): x86_64 CPUs that report the
//!   feature. 0.45 µs per 4 KiB frame (4,100 bytes) on the benchmark host.
//! * **Slicing-by-8** (eight const-built 256-entry tables, 8 KiB): every
//!   other target (the aarch64 CRC intrinsics are newer than the workspace's
//!   `rust-version`) and x86_64 CPUs without SSE4.2. 3.0 µs per frame.
//!
//! The one-table, one-byte-per-step loop they replaced cost 12 µs per frame
//! on the same host — most of a 13 µs page miss (DESIGN.md, "The cold
//! path"). The Castagnoli polynomial is the one used by iSCSI, ext4 and
//! Btrfs metadata — better error-detection properties for short messages
//! than CRC32 (IEEE).

/// Reflected CRC32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[k][b]` is the CRC state after byte `b` and then `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
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

static TABLES: [[u32; 256]; 8] = build_tables();

fn word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"))
}

/// The portable kernel: slicing-by-8.
fn update_slicing8(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let w = word(chunk) ^ u64::from(crc);
        crc = TABLES[7][(w & 0xFF) as usize]
            ^ TABLES[6][((w >> 8) & 0xFF) as usize]
            ^ TABLES[5][((w >> 16) & 0xFF) as usize]
            ^ TABLES[4][((w >> 24) & 0xFF) as usize]
            ^ TABLES[3][((w >> 32) & 0xFF) as usize]
            ^ TABLES[2][((w >> 40) & 0xFF) as usize]
            ^ TABLES[1][((w >> 48) & 0xFF) as usize]
            ^ TABLES[0][(w >> 56) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// The hardware kernel: the SSE4.2 `crc32` instruction.
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_sse42(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut chunks = bytes.chunks_exact(8);
    let mut crc = u64::from(crc);
    for chunk in &mut chunks {
        crc = _mm_crc32_u64(crc, word(chunk));
    }
    let mut crc = crc as u32; // the instruction leaves the upper half zero
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// Kernel selection, by CPU detection only. `is_x86_feature_detected!`
/// probes CPUID once per process and caches the answer.
fn update(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the CPU reports SSE4.2, the one requirement of
        // `update_sse42`.
        return unsafe { update_sse42(crc, bytes) };
    }
    update_slicing8(crc, bytes)
}

/// Incremental CRC32C state, for checksumming non-contiguous inputs
/// without copying them into one buffer.
#[derive(Debug, Clone, Copy)]
pub struct Crc32c(u32);

impl Crc32c {
    /// Fresh state.
    #[must_use]
    pub fn new() -> Self {
        Crc32c(0xFFFF_FFFF)
    }

    /// Fold `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        self.0 = update(self.0, bytes);
        self
    }

    /// The final checksum value.
    #[must_use]
    pub fn finish(&self) -> u32 {
        !self.0
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC32C of a single buffer.
#[must_use]
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    type Kernel = fn(u32, &[u8]) -> u32;

    /// Every kernel this host can run; slicing-by-8 runs everywhere.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: SSE4.2 was detected just above.
            let sse42: Kernel = |crc, bytes| unsafe { update_sse42(crc, bytes) };
            return vec![("slicing8", update_slicing8), ("sse4.2", sse42)];
        }
        vec![("slicing8", update_slicing8)]
    }

    /// Bit-at-a-time reference: the polynomial division as written down.
    fn reference_update(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        crc
    }

    fn random_bytes(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 test vectors for CRC32C.
        for (name, k) in kernels() {
            let crc = |bytes: &[u8]| !k(!0, bytes);
            assert_eq!(crc(b"123456789"), 0xE306_9283, "{name}");
            assert_eq!(crc(&[0u8; 32]), 0x8A91_36AA, "{name}");
            assert_eq!(crc(&[0xFFu8; 32]), 0x62A8_AB43, "{name}");
            assert_eq!(crc(b""), 0, "{name}");
        }
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn kernels_match_reference_at_every_length_and_alignment() {
        let data = random_bytes(4_200 + 8);
        for (name, k) in kernels() {
            for start in 0..8 {
                // The reference state after `len` bytes extends the state
                // after `len - 1`, so the sweep stays linear.
                let mut expect = !0u32;
                for len in 0..=4_200 {
                    let got = k(!0, &data[start..start + len]);
                    assert_eq!(got, expect, "{name}: start {start}, len {len}");
                    expect = reference_update(expect, &data[start + len..start + len + 1]);
                }
            }
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = random_bytes(64);
        let expect = reference_update(!0, &data);
        for (name, k) in kernels() {
            for split in 0..=data.len() {
                let got = k(k(!0, &data[..split]), &data[split..]);
                assert_eq!(got, expect, "{name}: split at {split}");
            }
        }
        let mut c = Crc32c::new();
        c.update(&data[..13]).update(&data[13..]);
        assert_eq!(c.finish(), !expect);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut data = vec![0xA5u8; 512];
        let base = crc32c(&data);
        for bit in [0usize, 7, 2048, 4095] {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&data), base, "bit {bit}");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32c(&data), base);
    }
}
