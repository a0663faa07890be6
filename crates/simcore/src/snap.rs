//! Versioned binary snapshot framing for crash-safe checkpoints.
//!
//! A checkpoint file is a `pfcsim-checkpoint/1` frame: a magic string, the
//! configuration digest of the run that wrote it, a length-prefixed binary
//! encoding of the serialized simulator state, and a trailing [`fnv1a`]
//! checksum over everything before it. The encoding is written straight
//! from any [`Serialize`] type as a [`serde::Encoder`]; a [`Value`] tree
//! encodes to the same bytes as the typed value it came from. It is
//! fully deterministic — integers are fixed-width little-endian, floats
//! are written via [`f64::to_bits`] so restore is bit-exact — which is
//! what lets a resumed run reproduce the exact digest of an uninterrupted
//! one.
//!
//! Corruption never panics: truncation, a foreign magic, a flipped bit,
//! or a malformed payload all surface as a typed [`SnapError`].

use serde::value::{Number, Value};
use serde::{Encoder, Serialize};

/// Magic prefix of every checkpoint frame (also its format version).
pub const MAGIC: &[u8; 19] = b"pfcsim-checkpoint/1";

/// Why a checkpoint frame could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the frame (or a value inside it) did.
    Truncated,
    /// The frame does not start with [`MAGIC`] — not a checkpoint, or a
    /// different format version.
    BadMagic,
    /// The trailing FNV-1a checksum does not match the frame contents.
    ChecksumMismatch {
        /// Checksum stored in the frame.
        stored: u64,
        /// Checksum recomputed over the frame contents.
        computed: u64,
    },
    /// The payload bytes are not a valid value encoding.
    Malformed(String),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "checkpoint truncated"),
            SnapError::BadMagic => write!(
                f,
                "not a {} frame",
                std::str::from_utf8(MAGIC).expect("magic is ascii")
            ),
            SnapError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapError::Malformed(why) => write!(f, "malformed checkpoint payload: {why}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a-style 64-bit hash, the workspace's standard content digest.
///
/// It uses the published FNV-64 offset basis `0xcbf2_9ce4_8422_2325`
/// but the prime `0x1000_0000_01b3`, not the published
/// `0x100_0000_01b3`, so it is not the standard FNV-1a-64. Config
/// digests, state digests, checkpoint frame checksums, the golden digest
/// and every other pinned digest in the workspace depend on this prime:
/// "fixing" it would invalidate every frame on disk and every recorded
/// constant.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.put(bytes);
    h.0
}

/// Where a [`Writer`] sends the encoding: a byte buffer, or a running
/// hash that digests the same bytes without storing them.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Streaming [`fnv1a`]: feeding it the chunks of a byte string yields
/// [`fnv1a`] of the whole string.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Sink for Fnv1a {
    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

// Value-encoding tag bytes.
const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_POS_INT: u8 = 3;
const TAG_NEG_INT: u8 = 4;
const TAG_FLOAT: u8 = 5;
const TAG_STRING: u8 = 6;
const TAG_ARRAY: u8 = 7;
const TAG_OBJECT: u8 = 8;

/// The one definition of the binary value encoding: an [`Encoder`] that
/// writes each event to a [`Sink`]. A typed value and its [`Value`] tree
/// (whose `serialize` replays the tree's events) encode to the same bytes.
struct Writer<'a, S: Sink>(&'a mut S);

impl<S: Sink> Writer<'_, S> {
    fn len(&mut self, n: usize) {
        self.0.put(&(n as u64).to_le_bytes());
    }

    /// Length-prefixed bytes (a string or an object key).
    fn prefixed(&mut self, bytes: &[u8]) {
        self.len(bytes.len());
        self.0.put(bytes);
    }
}

impl<S: Sink> Encoder for Writer<'_, S> {
    fn null(&mut self) {
        self.0.put(&[TAG_NULL]);
    }

    fn bool(&mut self, b: bool) {
        self.0.put(&[if b { TAG_TRUE } else { TAG_FALSE }]);
    }

    fn number(&mut self, n: Number) {
        let (tag, bits) = match n {
            Number::PosInt(n) => (TAG_POS_INT, n),
            Number::NegInt(n) => (TAG_NEG_INT, n as u64),
            Number::Float(x) => (TAG_FLOAT, x.to_bits()),
        };
        self.0.put(&[tag]);
        self.0.put(&bits.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.0.put(&[TAG_STRING]);
        self.prefixed(s.as_bytes());
    }

    fn begin_array(&mut self, len: usize) {
        self.0.put(&[TAG_ARRAY]);
        self.len(len);
    }

    fn begin_object(&mut self, len: usize) {
        self.0.put(&[TAG_OBJECT]);
        self.len(len);
    }

    fn key(&mut self, k: &str) {
        self.prefixed(k.as_bytes());
    }

    fn end(&mut self) {}
}

/// Append the deterministic binary encoding of `v` to `out`.
pub fn encode_value<T: Serialize + ?Sized>(v: &T, out: &mut Vec<u8>) {
    v.serialize(&mut Writer(out));
}

/// [`fnv1a`] of `v`'s binary encoding — the workspace's canonical
/// structural digest (a run's configuration fingerprint and a session's
/// state digest). Hashes the bytes [`encode_value`] would emit as they
/// are produced, straight from `v`: nothing is buffered and no [`Value`]
/// tree is built.
pub fn value_digest<T: Serialize + ?Sized>(v: &T) -> u64 {
    let mut h = Fnv1a::new();
    v.serialize(&mut Writer(&mut h));
    h.0
}

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], SnapError> {
    let end = pos.checked_add(n).ok_or(SnapError::Truncated)?;
    if end > buf.len() {
        return Err(SnapError::Truncated);
    }
    let out = &buf[*pos..end];
    *pos = end;
    Ok(out)
}

fn take_u64(buf: &[u8], pos: &mut usize) -> Result<u64, SnapError> {
    let bytes = take(buf, pos, 8)?;
    Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
}

fn take_len(buf: &[u8], pos: &mut usize) -> Result<usize, SnapError> {
    let n = take_u64(buf, pos)?;
    // A length can never exceed the bytes remaining (each element costs at
    // least one byte), so an absurd prefix is corruption, not an OOM.
    if n > (buf.len() - *pos) as u64 {
        return Err(SnapError::Truncated);
    }
    Ok(n as usize)
}

fn take_string(buf: &[u8], pos: &mut usize) -> Result<String, SnapError> {
    let n = take_len(buf, pos)?;
    let bytes = take(buf, pos, n)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Malformed("non-UTF-8 string".into()))
}

/// Decode one value starting at `pos`, advancing it past the value.
pub fn decode_value(buf: &[u8], pos: &mut usize) -> Result<Value, SnapError> {
    let tag = take(buf, pos, 1)?[0];
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_POS_INT => Ok(Value::Number(Number::PosInt(take_u64(buf, pos)?))),
        TAG_NEG_INT => Ok(Value::Number(Number::NegInt(take_u64(buf, pos)? as i64))),
        TAG_FLOAT => Ok(Value::Number(Number::Float(f64::from_bits(take_u64(
            buf, pos,
        )?)))),
        TAG_STRING => Ok(Value::String(take_string(buf, pos)?)),
        TAG_ARRAY => {
            let n = take_len(buf, pos)?;
            let mut items = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                items.push(decode_value(buf, pos)?);
            }
            Ok(Value::Array(items))
        }
        TAG_OBJECT => {
            let n = take_len(buf, pos)?;
            let mut pairs = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let key = take_string(buf, pos)?;
                let val = decode_value(buf, pos)?;
                pairs.push((key, val));
            }
            Ok(Value::Object(pairs))
        }
        other => Err(SnapError::Malformed(format!("unknown value tag {other}"))),
    }
}

/// Encode a complete checkpoint frame: magic, `config_digest`, the
/// length-prefixed payload encoding, and a trailing [`fnv1a`] checksum
/// over everything before it. The payload is encoded in place, straight
/// from `payload`.
pub fn encode_frame<T: Serialize + ?Sized>(config_digest: u64, payload: &T) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&config_digest.to_le_bytes());
    let len_at = out.len();
    out.extend_from_slice(&[0; 8]);
    encode_value(payload, &mut out);
    let body_len = (out.len() - len_at - 8) as u64;
    out[len_at..len_at + 8].copy_from_slice(&body_len.to_le_bytes());
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Decode and fully validate a checkpoint frame, returning the stored
/// config digest and the payload value. Every corruption mode maps to a
/// typed [`SnapError`]; this function never panics on untrusted bytes.
pub fn decode_frame(bytes: &[u8]) -> Result<(u64, Value), SnapError> {
    if bytes.len() < MAGIC.len() {
        // Too short to even say what it is — but if what's there doesn't
        // match the magic prefix, "wrong format" is the better diagnosis.
        if MAGIC.starts_with(bytes) {
            return Err(SnapError::Truncated);
        }
        return Err(SnapError::BadMagic);
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let mut pos = MAGIC.len();
    let config_digest = take_u64(bytes, &mut pos)?;
    let payload_len = take_u64(bytes, &mut pos)?;
    let expected_total = (pos as u64)
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(8))
        .ok_or(SnapError::Truncated)?;
    if (bytes.len() as u64) < expected_total {
        return Err(SnapError::Truncated);
    }
    if bytes.len() as u64 != expected_total {
        return Err(SnapError::Malformed(format!(
            "trailing garbage: frame says {expected_total} bytes, file has {}",
            bytes.len()
        )));
    }
    let checksum_at = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[checksum_at..].try_into().expect("8 bytes"));
    let computed = fnv1a(&bytes[..checksum_at]);
    if stored != computed {
        return Err(SnapError::ChecksumMismatch { stored, computed });
    }
    let payload = decode_value(bytes, &mut pos)?;
    if pos != checksum_at {
        return Err(SnapError::Malformed(
            "payload length disagrees with its encoding".into(),
        ));
    }
    Ok((config_digest, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::Object(vec![
            ("n".into(), Value::Number(Number::PosInt(u64::MAX))),
            ("i".into(), Value::Number(Number::NegInt(-42))),
            (
                "f".into(),
                Value::Number(Number::Float(0.1 + 0.2)), // non-representable sum
            ),
            ("s".into(), Value::String("paused ×2".into())),
            ("b".into(), Value::Bool(true)),
            ("z".into(), Value::Null),
            (
                "a".into(),
                Value::Array(vec![
                    Value::Number(Number::PosInt(1)),
                    Value::Object(vec![("k".into(), Value::Bool(false))]),
                ]),
            ),
        ])
    }

    #[test]
    fn value_round_trip_is_exact() {
        let v = sample();
        let mut bytes = Vec::new();
        encode_value(&v, &mut bytes);
        let mut pos = 0;
        let back = decode_value(&bytes, &mut pos).unwrap();
        assert_eq!(pos, bytes.len());
        assert_eq!(back, v);
    }

    #[test]
    fn float_bits_survive() {
        for x in [0.0, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300] {
            let mut bytes = Vec::new();
            encode_value(&Value::Number(Number::Float(x)), &mut bytes);
            let mut pos = 0;
            match decode_value(&bytes, &mut pos).unwrap() {
                Value::Number(Number::Float(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }

    #[test]
    fn frame_round_trip() {
        let v = sample();
        let frame = encode_frame(0xDEAD_BEEF, &v);
        let (digest, back) = decode_frame(&frame).unwrap();
        assert_eq!(digest, 0xDEAD_BEEF);
        assert_eq!(back, v);
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let frame = encode_frame(7, &sample());
        for len in 0..frame.len() {
            let err = decode_frame(&frame[..len]).unwrap_err();
            assert!(
                matches!(err, SnapError::Truncated | SnapError::BadMagic),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn bit_flips_are_detected() {
        let frame = encode_frame(7, &sample());
        // Flip one bit in every byte position; none may decode cleanly.
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x10;
            assert!(
                decode_frame(&bad).is_err(),
                "flip at byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn foreign_bytes_are_bad_magic_not_panic() {
        assert_eq!(
            decode_frame(b"not a checkpoint at all"),
            Err(SnapError::BadMagic)
        );
        assert_eq!(decode_frame(b""), Err(SnapError::Truncated));
        assert_eq!(decode_frame(b"pfcsim-chec"), Err(SnapError::Truncated));
    }

    #[test]
    fn trailing_garbage_is_malformed() {
        let mut frame = encode_frame(7, &sample());
        frame.extend_from_slice(b"extra");
        assert!(matches!(decode_frame(&frame), Err(SnapError::Malformed(_))));
    }

    #[test]
    fn value_digest_is_stable_and_sensitive() {
        let a = value_digest(&sample());
        assert_eq!(a, value_digest(&sample()));
        let mut other = sample();
        if let Value::Object(pairs) = &mut other {
            pairs[0].1 = Value::Number(Number::PosInt(1));
        }
        assert_ne!(a, value_digest(&other));
    }

    #[test]
    fn value_digest_hashes_exactly_the_encoding() {
        let nested = Value::Array(vec![
            sample(),
            Value::Array(vec![]),
            Value::Object(vec![]),
            Value::Array(vec![
                Value::Number(Number::NegInt(i64::MIN)),
                Value::Number(Number::Float(-0.0)),
                Value::Number(Number::Float(f64::NAN)),
                Value::String(String::new()),
                Value::Object(vec![(
                    "deep".into(),
                    Value::Array(vec![Value::String("ünï".into()), Value::Null]),
                )]),
            ]),
        ]);
        for v in [
            sample(),
            nested,
            Value::Null,
            Value::Number(Number::NegInt(-1)),
            Value::Number(Number::Float(1e-300)),
            Value::String("x".into()),
        ] {
            let mut bytes = Vec::new();
            encode_value(&v, &mut bytes);
            assert_eq!(value_digest(&v), fnv1a(&bytes), "{v:?}");
        }
    }

    /// Every shape the derive emits, plus std containers and a
    /// `#[serde(with = ...)]` field.
    mod typed {
        use serde::{Deserialize, Encoder, Serialize};
        use std::collections::{BTreeMap, VecDeque};

        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        pub struct Unit;

        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        pub struct Newtype(pub u16);

        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        pub struct Pair(pub i8, pub Option<char>);

        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        pub enum Shape {
            Empty,
            One(Newtype),
            Two(u128, f32),
            Named { tag: String, deep: Vec<Shape> },
        }

        mod via_with {
            use super::*;

            /// Serializes like the plain `Vec`, through the `with` path.
            pub fn serialize<E: Encoder>(v: &[u32], e: &mut E) {
                v.serialize(e)
            }

            pub fn from_value(v: &serde::value::Value) -> Result<Vec<u32>, serde::de::Error> {
                Vec::from_value(v)
            }
        }

        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        pub struct All {
            pub unit: Unit,
            pub pair: Pair,
            pub shapes: Vec<Shape>,
            pub map: BTreeMap<(u8, i64), Option<bool>>,
            pub queue: VecDeque<f64>,
            pub boxed: Box<Newtype>,
            #[serde(with = "via_with")]
            pub listed: Vec<u32>,
        }

        pub fn sample() -> All {
            All {
                unit: Unit,
                pair: Pair(-3, Some('é')),
                shapes: vec![
                    Shape::Empty,
                    Shape::One(Newtype(7)),
                    Shape::Two(u128::MAX, -0.5),
                    Shape::Two(5, f32::INFINITY),
                    Shape::Named {
                        tag: "n".into(),
                        deep: vec![
                            Shape::Empty,
                            Shape::Named {
                                tag: String::new(),
                                deep: vec![],
                            },
                        ],
                    },
                ],
                map: [((1, -1), None), ((2, i64::MIN), Some(true))].into(),
                queue: [0.1, -0.0, f64::NAN].into(),
                boxed: Box::new(Newtype(u16::MAX)),
                listed: vec![3, 1, 2],
            }
        }
    }

    #[test]
    fn typed_values_encode_exactly_like_their_trees() {
        let typed = typed::sample();
        let tree = serde::Serialize::to_value(&typed);
        let (mut from_typed, mut from_tree) = (Vec::new(), Vec::new());
        encode_value(&typed, &mut from_typed);
        encode_value(&tree, &mut from_tree);
        assert_eq!(from_typed, from_tree);
        assert_eq!(value_digest(&typed), fnv1a(&from_tree));
        assert_eq!(encode_frame(9, &typed), encode_frame(9, &tree));
        let back: typed::All = serde::Deserialize::from_value(&tree).unwrap();
        assert_eq!(back.shapes, typed.shapes);
        assert_eq!(back.listed, typed.listed);
    }

    #[test]
    fn absurd_length_prefix_is_rejected_without_allocation() {
        // TAG_ARRAY claiming u64::MAX elements.
        let mut bytes = vec![TAG_ARRAY];
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut pos = 0;
        assert_eq!(decode_value(&bytes, &mut pos), Err(SnapError::Truncated));
    }
}
