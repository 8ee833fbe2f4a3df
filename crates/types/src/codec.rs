//! A small, self-contained binary codec.
//!
//! Stable storage records (Section 2.1: `log`/`retrieve`) and wire frames
//! need a byte representation.  Rather than pulling in an external
//! serialization format, the workspace uses this hand-rolled,
//! length-prefixed, little-endian codec: it is deterministic, versioned by
//! construction (each record type owns its layout) and lets the storage
//! substrate measure *exactly* how many bytes each log operation writes —
//! which is what experiments E1 and E5 (minimal and incremental logging)
//! measure.
//!
//! The API mirrors the usual `Encode`/`Decode` pair:
//!
//! ```
//! use abcast_types::codec::{Decode, Encode, Encoder, Decoder};
//!
//! let value: (u64, String) = (42, "hello".to_string());
//! let bytes = abcast_types::codec::to_bytes(&value);
//! let back: (u64, String) = abcast_types::codec::from_bytes(&bytes).unwrap();
//! assert_eq!(value, back);
//! ```
//!
//! # Zero-copy payloads
//!
//! Opaque payloads (`bytes::Bytes`) travel through the codec without being
//! re-materialized:
//!
//! * a [`Decoder`] built over a `Bytes` buffer ([`Decoder::over`]) hands
//!   payloads out as **zero-copy sub-slices** of that buffer
//!   ([`Decoder::take_payload`]) — decoding a wire frame or a WAL record
//!   yields payload views that share the frame's backing allocation;
//! * a *chunked* [`Encoder`] ([`Encoder::chunked`]) appends `Bytes` payloads
//!   as reference-counted segments instead of copying them into a
//!   contiguous buffer ([`Encoder::into_chunks`]), which backends turn into
//!   vectored writes;
//! * contiguous encoders pre-sized with [`Encode::encoded_len`] never
//!   reallocate mid-encode ([`Encoder::reallocated`] is the regression
//!   hook).
//!
//! Every payload memcpy that still happens is counted by
//! [`crate::copymeter`], which experiment E13 reads.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use bytes::Bytes;

use crate::copymeter::{self, CopyMode};

/// Error produced when decoding malformed or truncated bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    message: String,
}

impl DecodeError {
    /// Creates a decode error describing truncated input.
    pub fn truncated(expected: usize, remaining: usize) -> Self {
        DecodeError {
            message: format!("truncated input: needed {expected} bytes, {remaining} remaining"),
        }
    }

    /// Creates a decode error describing an invalid encoding.
    pub fn invalid(what: impl Into<String>) -> Self {
        DecodeError {
            message: what.into(),
        }
    }

    /// Human-readable description of the failure.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.message)
    }
}

impl std::error::Error for DecodeError {}

/// A sequence of refcounted segments built by a chunked encoder: small
/// metadata runs interleaved with zero-copy payload views.
#[derive(Debug, Default)]
struct ChunkedBuf {
    segments: Vec<Bytes>,
    tail: Vec<u8>,
    len: usize,
}

impl ChunkedBuf {
    fn write(&mut self, bytes: &[u8]) {
        self.tail.extend_from_slice(bytes);
        self.len += bytes.len();
    }

    fn push_chunk(&mut self, chunk: &Bytes) {
        if !self.tail.is_empty() {
            self.segments.push(Bytes::from(std::mem::take(&mut self.tail)));
        }
        self.len += chunk.len();
        self.segments.push(chunk.clone());
    }

    fn into_segments(mut self) -> Vec<Bytes> {
        if !self.tail.is_empty() {
            self.segments.push(Bytes::from(self.tail));
        }
        self.segments
    }
}

/// Where an [`Encoder`] sends its bytes: a real buffer, a counter that only
/// measures how long the encoding would be, or a chain of refcounted
/// segments that keeps payloads unflattened.
#[derive(Debug)]
enum Sink {
    Buffer(Vec<u8>),
    Counter(usize),
    Chunks(ChunkedBuf),
}

/// Incrementally builds the byte representation of a record.
///
/// A *counting* encoder ([`Encoder::counting`]) implements the same
/// interface without buffering anything, so size queries
/// ([`Encode::encoded_len`]) are allocation-free.  A *chunked* encoder
/// ([`Encoder::chunked`]) keeps [`Bytes`] payloads as shared segments
/// instead of copying them.
#[derive(Debug)]
pub struct Encoder {
    sink: Sink,
    /// Capacity of the buffer at construction time, for the
    /// "pre-sized hot-path encoders never reallocate" regression check.
    initial_capacity: usize,
}

impl Default for Encoder {
    fn default() -> Self {
        Encoder {
            sink: Sink::Buffer(Vec::new()),
            initial_capacity: 0,
        }
    }
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Creates an encoder with pre-allocated capacity.
    ///
    /// Hot paths size this with [`Encode::encoded_len`] so the encode never
    /// reallocates; [`Encoder::reallocated`] checks that it indeed did not.
    pub fn with_capacity(capacity: usize) -> Self {
        let buf = Vec::with_capacity(capacity);
        let initial_capacity = buf.capacity();
        Encoder {
            sink: Sink::Buffer(buf),
            initial_capacity,
        }
    }

    /// Creates an encoder that discards the bytes and only counts them.
    pub fn counting() -> Self {
        Encoder {
            sink: Sink::Counter(0),
            initial_capacity: 0,
        }
    }

    /// Creates a chunked encoder: [`Encoder::put_payload`] appends `Bytes`
    /// values as refcounted segments without copying them; drain the result
    /// with [`Encoder::into_chunks`].
    pub fn chunked() -> Self {
        Encoder {
            sink: Sink::Chunks(ChunkedBuf::default()),
            initial_capacity: 0,
        }
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        match &mut self.sink {
            Sink::Buffer(buf) => buf.extend_from_slice(bytes),
            Sink::Counter(count) => *count += bytes.len(),
            Sink::Chunks(chunks) => chunks.write(bytes),
        }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        match &mut self.sink {
            Sink::Buffer(buf) => buf.push(v),
            Sink::Counter(count) => *count += 1,
            Sink::Chunks(chunks) => chunks.write(&[v]),
        }
    }

    /// Appends a boolean as one byte (`0` or `1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a `u32` in little-endian order.
    pub fn put_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Appends a `u64` in little-endian order.
    pub fn put_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Appends an `i64` in little-endian order.
    pub fn put_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.write(v);
    }

    /// Appends a length-prefixed *payload*.
    ///
    /// In a chunked encoder the payload is appended as a refcounted segment
    /// — no copy.  In a buffering encoder the payload's bytes must be
    /// flattened into the buffer; that memcpy is recorded with the
    /// [`crate::copymeter`] so experiment E13 can count what the wire/WAL
    /// paths still copy.  A counting encoder only measures.
    pub fn put_payload(&mut self, v: &Bytes) {
        self.put_u64(v.len() as u64);
        match &mut self.sink {
            Sink::Buffer(buf) => {
                copymeter::record_copy(v.len());
                buf.extend_from_slice(v);
            }
            Sink::Counter(count) => *count += v.len(),
            Sink::Chunks(chunks) => chunks.push_chunk(v),
        }
    }

    /// Appends raw bytes without a length prefix.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.write(v);
    }

    /// Number of bytes written (or counted) so far.
    pub fn len(&self) -> usize {
        match &self.sink {
            Sink::Buffer(buf) => buf.len(),
            Sink::Counter(count) => *count,
            Sink::Chunks(chunks) => chunks.len,
        }
    }

    /// `true` when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if a buffering encoder outgrew the capacity it was created
    /// with.  Pre-sized hot-path encoders (wire frames, WAL records) must
    /// never trip this; a regression test asserts it.
    pub fn reallocated(&self) -> bool {
        match &self.sink {
            Sink::Buffer(buf) => buf.capacity() != self.initial_capacity,
            Sink::Counter(_) | Sink::Chunks(_) => false,
        }
    }

    /// Consumes the encoder and returns the encoded bytes.
    ///
    /// A counting encoder holds no bytes and returns an empty vector; a
    /// chunked encoder flattens its segments (copying any payload chunks).
    pub fn into_bytes(self) -> Vec<u8> {
        match self.sink {
            Sink::Buffer(buf) => buf,
            Sink::Counter(_) => Vec::new(),
            Sink::Chunks(chunks) => {
                let mut out = Vec::with_capacity(chunks.len);
                for segment in chunks.into_segments() {
                    out.extend_from_slice(&segment);
                }
                out
            }
        }
    }

    /// Consumes the encoder and returns the encoded bytes as a refcounted
    /// buffer (no copy beyond what [`Encoder::into_bytes`] performs).
    pub fn into_payload(self) -> Bytes {
        Bytes::from(self.into_bytes())
    }

    /// Consumes the encoder and returns its refcounted segments: metadata
    /// runs interleaved with the payload views appended by
    /// [`Encoder::put_payload`].  Storage backends feed these to vectored
    /// writes so payload bytes go from the protocol state to the syscall
    /// without intermediate copies.
    pub fn into_chunks(self) -> Vec<Bytes> {
        match self.sink {
            Sink::Chunks(chunks) => chunks.into_segments(),
            Sink::Counter(_) => Vec::new(),
            Sink::Buffer(buf) => vec![Bytes::from(buf)],
        }
    }
}

/// Reads values back out of a byte slice produced by an [`Encoder`].
///
/// A decoder built with [`Decoder::over`] knows the refcounted buffer the
/// slice belongs to, and [`Decoder::take_payload`] then returns zero-copy
/// sub-slices of it.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    backing: Option<&'a Bytes>,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.  Payloads decoded through this
    /// decoder are copied out (there is no refcounted buffer to share).
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder {
            buf,
            pos: 0,
            backing: None,
        }
    }

    /// Creates a decoder over the refcounted buffer `bytes`: payloads come
    /// out as zero-copy views sharing its backing allocation.
    pub fn over(bytes: &'a Bytes) -> Self {
        Decoder {
            buf: bytes,
            pos: 0,
            backing: Some(bytes),
        }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take_slice(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < len {
            return Err(DecodeError::truncated(len, self.remaining()));
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Reads a single byte.
    pub fn take_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take_slice(1)?[0])
    }

    /// Reads a boolean encoded as one byte.
    pub fn take_bool(&mut self) -> Result<bool, DecodeError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::invalid(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, DecodeError> {
        let slice = self.take_slice(4)?;
        Ok(u32::from_le_bytes(slice.try_into().expect("length checked")))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, DecodeError> {
        let slice = self.take_slice(8)?;
        Ok(u64::from_le_bytes(slice.try_into().expect("length checked")))
    }

    /// Reads a little-endian `i64`.
    pub fn take_i64(&mut self) -> Result<i64, DecodeError> {
        let slice = self.take_slice(8)?;
        Ok(i64::from_le_bytes(slice.try_into().expect("length checked")))
    }

    /// Reads a length-prefixed byte slice, borrowed from the input.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.take_u64()? as usize;
        self.take_slice(len)
    }

    /// Reads a length-prefixed *payload*.
    ///
    /// When the decoder was built [`Decoder::over`] a refcounted buffer
    /// (and the thread is in the default [`CopyMode::ZeroCopy`]), the
    /// returned `Bytes` is a zero-copy view of that buffer.  Otherwise the
    /// payload is copied out and the copy is recorded with the
    /// [`crate::copymeter`].
    pub fn take_payload(&mut self) -> Result<Bytes, DecodeError> {
        let len = self.take_u64()? as usize;
        if self.remaining() < len {
            return Err(DecodeError::truncated(len, self.remaining()));
        }
        let start = self.pos;
        self.pos += len;
        match self.backing {
            Some(backing) if copymeter::mode() == CopyMode::ZeroCopy => {
                Ok(backing.slice(start..start + len))
            }
            _ => {
                copymeter::record_copy(len);
                Ok(Bytes::copy_from_slice(&self.buf[start..start + len]))
            }
        }
    }
}

/// Types that can be written to the binary codec.
pub trait Encode {
    /// Appends the binary representation of `self` to `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// Convenience: encodes `self` into a fresh byte vector.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.into_bytes()
    }

    /// Number of bytes the encoding of `self` occupies.
    ///
    /// Runs the encoding against a counting sink, so no intermediate
    /// buffer is allocated — callers on hot paths (`byte_len`, metrics)
    /// can query sizes for free.
    fn encoded_len(&self) -> usize {
        let mut enc = Encoder::counting();
        self.encode(&mut enc);
        enc.len()
    }
}

/// Types that can be read back from the binary codec.
pub trait Decode: Sized {
    /// Reads one value from `dec`.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError>;
}

/// Encodes `value` into a fresh byte vector.
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    value.encode_to_vec()
}

/// Encodes `value` into a refcounted buffer pre-sized with
/// [`Encode::encoded_len`], so the hot path performs exactly one allocation
/// and no mid-encode reallocation.
pub fn to_payload<T: Encode + ?Sized>(value: &T) -> Bytes {
    let mut enc = Encoder::with_capacity(value.encoded_len());
    value.encode(&mut enc);
    debug_assert!(!enc.reallocated(), "encoded_len must pre-size exactly");
    enc.into_payload()
}

/// Decodes a value of type `T` from `bytes`, requiring that every byte is
/// consumed.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut dec = Decoder::new(bytes);
    let value = T::decode(&mut dec)?;
    if !dec.is_exhausted() {
        return Err(DecodeError::invalid(format!(
            "{} trailing bytes after value",
            dec.remaining()
        )));
    }
    Ok(value)
}

/// Decodes a value of type `T` from the refcounted buffer `bytes`,
/// requiring that every byte is consumed.  Payload fields of the decoded
/// value are zero-copy views of `bytes`.
pub fn from_payload<T: Decode>(bytes: &Bytes) -> Result<T, DecodeError> {
    let mut dec = Decoder::over(bytes);
    let value = T::decode(&mut dec)?;
    if !dec.is_exhausted() {
        return Err(DecodeError::invalid(format!(
            "{} trailing bytes after value",
            dec.remaining()
        )));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Implementations for primitives and std containers
// ---------------------------------------------------------------------------

impl Encode for u8 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(*self);
    }
}

impl Decode for u8 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.take_u8()
    }
}

impl Encode for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(*self);
    }
}

impl Decode for bool {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.take_bool()
    }
}

impl Encode for u32 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(*self);
    }
}

impl Decode for u32 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.take_u32()
    }
}

impl Encode for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self);
    }
}

impl Decode for u64 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.take_u64()
    }
}

impl Encode for i64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_i64(*self);
    }
}

impl Decode for i64 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.take_i64()
    }
}

impl Encode for usize {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self as u64);
    }
}

impl Decode for usize {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let v = dec.take_u64()?;
        usize::try_from(v).map_err(|_| DecodeError::invalid("usize overflow"))
    }
}

impl Encode for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let bytes = dec.take_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::invalid("invalid UTF-8"))
    }
}

impl Encode for Bytes {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_payload(self);
    }
}

impl Decode for Bytes {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.take_payload()
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_bool(false),
            Some(v) => {
                enc.put_bool(true);
                v.encode(enc);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        if dec.take_bool()? {
            Ok(Some(T::decode(dec)?))
        } else {
            Ok(None)
        }
    }
}

/// A reference encodes as its referent, so records can be encoded from
/// borrowed parts without cloning them.
impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, enc: &mut Encoder) {
        (**self).encode(enc);
    }
}

/// A slice encodes exactly like the `Vec` holding the same items.
impl<T: Encode> Encode for [T] {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.len() as u64);
        for item in self {
            item.encode(enc);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        self.as_slice().encode(enc);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = dec.take_u64()? as usize;
        // Guard against absurd lengths from corrupted input: never
        // pre-allocate more than the remaining bytes could possibly hold.
        let mut out = Vec::with_capacity(len.min(dec.remaining()));
        for _ in 0..len {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for VecDeque<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.len() as u64);
        for item in self {
            item.encode(enc);
        }
    }
}

impl<T: Decode> Decode for VecDeque<T> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let v: Vec<T> = Vec::decode(dec)?;
        Ok(v.into())
    }
}

impl<T: Encode + Ord> Encode for BTreeSet<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.len() as u64);
        for item in self {
            item.encode(enc);
        }
    }
}

impl<T: Decode + Ord> Decode for BTreeSet<T> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = dec.take_u64()? as usize;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<K: Encode + Ord, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.len() as u64);
        for (k, v) in self {
            k.encode(enc);
            v.encode(enc);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = dec.take_u64()? as usize;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(dec)?;
            let v = V::decode(dec)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
        self.2.encode(enc);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(dec)?, B::decode(dec)?, C::decode(dec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(from_bytes::<u8>(&to_bytes(&7u8)).unwrap(), 7u8);
        assert_eq!(from_bytes::<u32>(&to_bytes(&99u32)).unwrap(), 99u32);
        assert_eq!(
            from_bytes::<u64>(&to_bytes(&u64::MAX)).unwrap(),
            u64::MAX
        );
        assert_eq!(
            from_bytes::<i64>(&to_bytes(&(-42i64))).unwrap(),
            -42i64
        );
        assert!(from_bytes::<bool>(&to_bytes(&true)).unwrap());
        assert_eq!(
            from_bytes::<String>(&to_bytes(&"héllo".to_string())).unwrap(),
            "héllo"
        );
    }

    #[test]
    fn option_round_trip() {
        let some: Option<u64> = Some(5);
        let none: Option<u64> = None;
        assert_eq!(from_bytes::<Option<u64>>(&to_bytes(&some)).unwrap(), some);
        assert_eq!(from_bytes::<Option<u64>>(&to_bytes(&none)).unwrap(), none);
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u64, 2, 3];
        assert_eq!(from_bytes::<Vec<u64>>(&to_bytes(&v)).unwrap(), v);

        let mut set = BTreeSet::new();
        set.insert("a".to_string());
        set.insert("b".to_string());
        assert_eq!(
            from_bytes::<BTreeSet<String>>(&to_bytes(&set)).unwrap(),
            set
        );

        let mut map = BTreeMap::new();
        map.insert(1u32, "one".to_string());
        map.insert(2u32, "two".to_string());
        assert_eq!(
            from_bytes::<BTreeMap<u32, String>>(&to_bytes(&map)).unwrap(),
            map
        );

        let dq: VecDeque<u32> = vec![9, 8, 7].into();
        assert_eq!(from_bytes::<VecDeque<u32>>(&to_bytes(&dq)).unwrap(), dq);
    }

    #[test]
    fn tuples_round_trip() {
        let pair = (3u64, "x".to_string());
        assert_eq!(
            from_bytes::<(u64, String)>(&to_bytes(&pair)).unwrap(),
            pair
        );
        let triple = (1u32, 2u64, true);
        assert_eq!(
            from_bytes::<(u32, u64, bool)>(&to_bytes(&triple)).unwrap(),
            triple
        );
    }

    #[test]
    fn truncated_input_is_an_error() {
        let bytes = to_bytes(&12345u64);
        let err = from_bytes::<u64>(&bytes[..4]).unwrap_err();
        assert!(err.message().contains("truncated"));
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut bytes = to_bytes(&1u32);
        bytes.push(0xFF);
        let err = from_bytes::<u32>(&bytes).unwrap_err();
        assert!(err.message().contains("trailing"));
    }

    #[test]
    fn invalid_bool_is_an_error() {
        let err = from_bytes::<bool>(&[3]).unwrap_err();
        assert!(err.message().contains("bool"));
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut enc = Encoder::new();
        enc.put_bytes(&[0xFF, 0xFE]);
        let err = from_bytes::<String>(&enc.into_bytes()).unwrap_err();
        assert!(err.message().contains("UTF-8"));
    }

    #[test]
    fn corrupted_length_prefix_does_not_overallocate() {
        // A Vec<u64> claiming u64::MAX elements but with no payload must fail
        // cleanly instead of trying to allocate.
        let mut enc = Encoder::new();
        enc.put_u64(u64::MAX);
        let err = from_bytes::<Vec<u64>>(&enc.into_bytes()).unwrap_err();
        assert!(err.message().contains("truncated"));
    }

    #[test]
    fn encoded_len_matches_actual_encoding() {
        let v = vec!["abc".to_string(), "defg".to_string()];
        assert_eq!(v.encoded_len(), to_bytes(&v).len());
    }

    #[test]
    fn borrowed_parts_encode_like_the_owned_value() {
        let v = vec![1u64, 2, 3];
        let owned = (9u64, v.clone());
        let borrowed = (9u64, &v[1..]);
        assert_eq!(to_bytes(&(9u64, &v)), to_bytes(&owned));
        let back: (u64, Vec<u64>) = from_bytes(&to_bytes(&borrowed)).unwrap();
        assert_eq!(back, (9, vec![2, 3]));
        assert_eq!(borrowed.encoded_len(), to_bytes(&borrowed).len());
    }

    #[test]
    fn counting_encoder_measures_without_buffering() {
        let value = (
            vec![1u64, 2, 3],
            Some("nested".to_string()),
            Bytes::from_static(b"raw"),
        );
        let mut counting = Encoder::counting();
        value.encode(&mut counting);
        assert_eq!(counting.len(), to_bytes(&value).len());
        assert!(!counting.is_empty());
        assert!(counting.into_bytes().is_empty(), "a counter holds no bytes");

        let mut empty = Encoder::counting();
        assert!(empty.is_empty());
        empty.put_raw(b"xy");
        empty.put_bytes(b"z");
        assert_eq!(empty.len(), 2 + 8 + 1);
    }

    #[test]
    fn decoder_over_bytes_returns_zero_copy_payload_views() {
        let payload = Bytes::from_static(b"the actual payload bytes");
        let frame = to_payload(&(7u64, payload.clone()));
        let (n, decoded): (u64, Bytes) = from_payload(&frame).unwrap();
        assert_eq!(n, 7);
        assert_eq!(decoded, payload);
        assert!(
            decoded.shares_allocation_with(&frame),
            "a payload decoded from a Bytes-backed frame must be a view of it"
        );
        // The borrowed-slice decoder cannot share and must copy instead.
        let (_, copied): (u64, Bytes) = from_bytes(&frame.to_vec()).unwrap();
        assert!(!copied.shares_allocation_with(&frame));
        assert_eq!(copied, payload);
    }

    #[test]
    fn presized_encoder_never_reallocates_and_chunked_encoder_never_copies() {
        let value = (
            vec![Bytes::from_static(b"abc"), Bytes::from_static(b"defgh")],
            42u64,
        );
        let mut enc = Encoder::with_capacity(value.encoded_len());
        value.encode(&mut enc);
        assert!(!enc.reallocated(), "encoded_len must pre-size exactly");
        assert_eq!(enc.len(), value.encoded_len());

        let big = Bytes::from(vec![7u8; 64]);
        let mut chunked = Encoder::chunked();
        chunked.put_u8(1);
        chunked.put_payload(&big);
        chunked.put_u64(5);
        assert_eq!(chunked.len(), 1 + 8 + 64 + 8);
        let chunks = chunked.into_chunks();
        assert!(
            chunks.iter().any(|c| c.shares_allocation_with(&big)),
            "the payload must ride through as a shared segment"
        );
        // Flattening the same encoding is byte-identical to a plain encode.
        let mut chunked2 = Encoder::chunked();
        chunked2.put_u8(1);
        chunked2.put_payload(&big);
        chunked2.put_u64(5);
        let mut plain = Encoder::new();
        plain.put_u8(1);
        plain.put_payload(&big);
        plain.put_u64(5);
        assert_eq!(chunked2.into_bytes(), plain.into_bytes());
    }

    proptest! {
        #[test]
        fn prop_u64_round_trip(x: u64) {
            prop_assert_eq!(from_bytes::<u64>(&to_bytes(&x)).unwrap(), x);
        }

        #[test]
        fn prop_string_round_trip(s in ".*") {
            let s = s.to_string();
            prop_assert_eq!(from_bytes::<String>(&to_bytes(&s)).unwrap(), s);
        }

        #[test]
        fn prop_vec_round_trip(v in proptest::collection::vec(any::<u64>(), 0..64)) {
            prop_assert_eq!(from_bytes::<Vec<u64>>(&to_bytes(&v)).unwrap(), v);
        }

        #[test]
        fn prop_map_round_trip(m in proptest::collection::btree_map(any::<u32>(), ".{0,8}", 0..32)) {
            prop_assert_eq!(from_bytes::<BTreeMap<u32, String>>(&to_bytes(&m)).unwrap(), m);
        }

        #[test]
        fn prop_bytes_never_panic_on_arbitrary_input(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            // Decoding arbitrary bytes may fail but must never panic.
            let _ = from_bytes::<Vec<String>>(&data);
            let _ = from_bytes::<(u64, String)>(&data);
            let _ = from_bytes::<BTreeMap<u32, u64>>(&data);
            // Nor may the zero-copy decoder.
            let buf = Bytes::from(data);
            let _ = from_payload::<Vec<Bytes>>(&buf);
            let _ = from_payload::<(u64, Bytes)>(&buf);
        }

        #[test]
        fn prop_payload_round_trip_is_zero_copy(
            payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..8)) {
            let value: Vec<Bytes> = payloads.iter().map(|p| Bytes::from(p.clone())).collect();
            let frame = to_payload(&value);
            let back: Vec<Bytes> = from_payload(&frame).unwrap();
            prop_assert_eq!(&back, &value);
            for b in &back {
                // Empty payloads may be represented without touching the
                // backing buffer; every non-empty one must share it.
                if !b.is_empty() {
                    prop_assert!(b.shares_allocation_with(&frame));
                }
            }
        }

        #[test]
        fn prop_truncated_frames_error_cleanly(
            payload in proptest::collection::vec(any::<u8>(), 1..64),
            cut in 0usize..72) {
            // A frame torn at any byte boundary must decode to an error,
            // never panic and never produce a wrong value.
            let frame = to_payload(&Bytes::from(payload.clone()));
            let cut = cut.min(frame.len().saturating_sub(1));
            let torn = frame.slice(..cut);
            prop_assert!(from_payload::<Bytes>(&torn).is_err());
        }
    }
}
