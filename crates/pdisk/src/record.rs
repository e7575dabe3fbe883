//! Record abstraction.
//!
//! The paper sorts fixed-size records by a key.  We require every record
//! type to expose a `u64` sort key and a fixed-size binary encoding so the
//! same algorithms run unchanged on the in-memory backend (where encoding is
//! never exercised) and on the real-file backend.

/// A sortable, fixed-size record.
///
/// Keys need not be distinct: the merge engines break ties deterministically
/// by run order, so the paper's "all keys distinct" simplification is not a
/// requirement of this implementation.
pub trait Record: Copy + Send + Sync + 'static {
    /// Encoded size in bytes (fixed per type).
    const ENCODED_LEN: usize;

    /// The sort key.
    fn key(&self) -> u64;

    /// Serialize into exactly `Self::ENCODED_LEN` bytes.
    ///
    /// # Panics
    /// Implementations may panic if `out.len() != Self::ENCODED_LEN`.
    fn encode(&self, out: &mut [u8]);

    /// Deserialize from exactly `Self::ENCODED_LEN` bytes.
    fn decode(bytes: &[u8]) -> Self;
}

/// The minimal record: the key is the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct U64Record(pub u64);

impl Record for U64Record {
    const ENCODED_LEN: usize = 8;

    #[inline]
    fn key(&self) -> u64 {
        self.0
    }

    #[inline]
    fn encode(&self, out: &mut [u8]) {
        out.copy_from_slice(&self.0.to_le_bytes());
    }

    #[inline]
    #[expect(clippy::expect_used, reason = "decode's length contract")]
    fn decode(bytes: &[u8]) -> Self {
        U64Record(u64::from_le_bytes(bytes.try_into().expect("8-byte record")))
    }
}

/// A key plus an opaque fixed-size payload — the shape of a typical database
/// tuple or log entry.  `P` is the payload size in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KeyPayloadRecord<const P: usize> {
    /// Sort key.
    pub key: u64,
    /// Payload carried along unchanged by sorting.
    pub payload: [u8; P],
}

impl<const P: usize> KeyPayloadRecord<P> {
    /// Build a record with a payload derived from the key (useful for
    /// tests that must check payloads travel with their keys).
    pub fn with_derived_payload(key: u64) -> Self {
        let mut payload = [0u8; P];
        let tag = key.to_le_bytes();
        for (i, b) in payload.iter_mut().enumerate() {
            *b = tag[i % 8] ^ (i as u8);
        }
        KeyPayloadRecord { key, payload }
    }
}

impl<const P: usize> Record for KeyPayloadRecord<P> {
    const ENCODED_LEN: usize = 8 + P;

    #[inline]
    fn key(&self) -> u64 {
        self.key
    }

    fn encode(&self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.key.to_le_bytes());
        out[8..].copy_from_slice(&self.payload);
    }

    fn decode(bytes: &[u8]) -> Self {
        #[expect(clippy::expect_used, reason = "decode's length contract")]
        let key = u64::from_le_bytes(bytes[..8].try_into().expect("key bytes"));
        let mut payload = [0u8; P];
        payload.copy_from_slice(&bytes[8..]);
        KeyPayloadRecord { key, payload }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_record_roundtrip() {
        let r = U64Record(0xDEAD_BEEF_0123_4567);
        let mut buf = [0u8; 8];
        r.encode(&mut buf);
        assert_eq!(U64Record::decode(&buf), r);
        assert_eq!(r.key(), 0xDEAD_BEEF_0123_4567);
    }

    #[test]
    fn payload_record_roundtrip() {
        let r = KeyPayloadRecord::<24>::with_derived_payload(42);
        let mut buf = [0u8; 32];
        r.encode(&mut buf);
        let back = KeyPayloadRecord::<24>::decode(&buf);
        assert_eq!(back, r);
        assert_eq!(back.key(), 42);
    }

    #[test]
    fn derived_payloads_differ_across_keys() {
        let a = KeyPayloadRecord::<16>::with_derived_payload(1);
        let b = KeyPayloadRecord::<16>::with_derived_payload(2);
        assert_ne!(a.payload, b.payload);
    }

    #[test]
    fn encoded_len_matches_constant() {
        assert_eq!(U64Record::ENCODED_LEN, 8);
        assert_eq!(KeyPayloadRecord::<24>::ENCODED_LEN, 32);
    }
}
