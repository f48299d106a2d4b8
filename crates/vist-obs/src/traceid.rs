//! 128-bit trace-id minting and hex formatting.
//!
//! A trace id names one request (or one background operation) across
//! every layer it touches: the serve front-end mints or accepts one,
//! the engine carries it on its options, and the request's record (wide
//! event, access-log line, span tree) and histogram exemplars all key on
//! it. Zero is reserved as the wire encoding for "absent" — [`mint`]
//! never returns it.
//!
//! Ids are minted std-only: wall-clock nanoseconds, the process id, and
//! a process-global sequence number pushed through a SplitMix64 mixer.
//! That makes them unique per process and overwhelmingly likely unique
//! across processes, which is all a debugging correlator needs — they
//! are not a cryptographic surface.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

static SEQ: AtomicU64 = AtomicU64::new(0);

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mint a fresh, never-zero 128-bit trace id.
#[must_use]
pub fn mint() -> u128 {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let pid = u64::from(std::process::id());
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let hi = splitmix64(nanos ^ pid.rotate_left(32));
    let lo = splitmix64(seq ^ nanos.rotate_left(17) ^ pid);
    let id = (u128::from(hi) << 64) | u128::from(lo);
    if id == 0 {
        1
    } else {
        id
    }
}

/// Render a trace id as 32 lowercase hex digits (the `X-Vist-Trace-Id`
/// wire form).
#[must_use]
pub fn format(id: u128) -> String {
    format!("{id:032x}")
}

/// Parse a hex trace id (1–32 digits, leading zeros optional,
/// surrounding whitespace ignored). `None` on empty or non-hex input.
#[must_use]
pub fn parse(s: &str) -> Option<u128> {
    let s = s.trim();
    if s.is_empty() || s.len() > 32 {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_is_unique_and_nonzero() {
        let a = mint();
        let b = mint();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn format_parse_roundtrip() {
        for id in [1u128, 0xdead_beef, u128::MAX, mint()] {
            let hex = format(id);
            assert_eq!(hex.len(), 32);
            assert_eq!(parse(&hex), Some(id));
        }
        assert_eq!(parse("  00ff  "), Some(255));
        assert_eq!(parse("ff"), Some(255));
        assert_eq!(parse(""), None);
        assert_eq!(parse("xyz"), None);
        assert_eq!(parse(&"f".repeat(33)), None);
    }
}
