//! On-disk format of one WAL segment: CRC-framed records, their
//! encode/decode, and file-level replay.
//!
//! Every segment — active, sealed or the compacted base — is the same
//! append-only run of CRC-framed records (`len ‖ crc32 ‖ payload`), so one
//! scanner serves them all.  The segments differ only in *policy*:
//!
//! * the **active** segment is the only file ever appended to, and the only
//!   one where a torn tail is legal (a crash mid-write); replay truncates
//!   it to the intact prefix;
//! * **sealed** segments were fsynced before the rename that sealed them,
//!   so a torn or CRC-corrupt record there is *corruption*, not a tail —
//!   replay refuses it;
//! * the **base** is a sealed segment written by compaction; its first
//!   record is a [`TAG_BASE_META`] header naming the highest sealed-segment
//!   sequence number whose records it covers, which is what makes segment
//!   deletion crash-safe (a segment file that outlives the base covering it
//!   is detected and reaped on open instead of being replayed twice).
//!
//! Naming is derived from the active path `p.wal`: sealed segments are
//! `p.wal.seg-<seq>`, the base is `p.wal.base`, and the compaction
//! temporary is `p.wal.compact`.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{IoSlice, Write};
use std::path::{Path, PathBuf};

use bytes::Bytes;

use abcast_types::codec::{Decoder, Encoder};
use abcast_types::{AbcastError, Result};

use crate::api::StorageKey;
use crate::batch::BatchOp;

/// `len` (u32) plus `crc` (u32).
pub(crate) const FRAME_HEADER: usize = 8;

/// Byte-indexed lookup table for the IEEE CRC-32 (reflected polynomial),
/// built at compile time.  The checksum runs on every journal write, so it
/// must be one table lookup per byte, not eight shift/xor rounds.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Initial state of a streaming CRC-32 computation.
const CRC32_INIT: u32 = 0xFFFF_FFFF;

/// Folds `data` into a streaming CRC-32 state (start from [`CRC32_INIT`],
/// finish with a bitwise NOT).  Streaming lets the journal checksum a
/// record whose payload is a separate refcounted segment without first
/// flattening the record into one buffer.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    for &byte in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// IEEE CRC-32 over `data`.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    !crc32_update(CRC32_INIT, data)
}

/// Makes a just-performed rename (or create) of `path` durable by syncing
/// its parent directory.  File data reaches disk through `sync_data` on the
/// file itself; the *directory entry* pointing at it only becomes crash-safe
/// once the directory is synced too.
pub(crate) fn sync_parent_dir(path: &Path) -> Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            File::open(parent)?.sync_all()?;
        }
    }
    Ok(())
}

/// Record tags on the journal.
pub(crate) const TAG_STORE: u8 = 1;
pub(crate) const TAG_APPEND: u8 = 2;
pub(crate) const TAG_REMOVE: u8 = 3;
/// Base-header record: `covered_seq` (u64), the highest sealed-segment
/// sequence number merged into this base.  Legal only as the first record
/// of a base file.
pub(crate) const TAG_BASE_META: u8 = 4;

// ---------------------------------------------------------------------------
// Segment naming
// ---------------------------------------------------------------------------

/// A sibling file of the active segment: same directory, `suffix` appended
/// to the active file name.
fn sibling(active: &Path, suffix: &str) -> PathBuf {
    let mut name = active.file_name().unwrap_or_default().to_os_string();
    name.push(suffix);
    active.with_file_name(name)
}

/// The compacted base for the journal at `active`.
pub(crate) fn base_path(active: &Path) -> PathBuf {
    sibling(active, ".base")
}

/// The compaction temporary for the journal at `active`.  Exists only
/// between a compaction's rewrite and its commit rename; anything found
/// here on open is a crash leftover and is reaped.
pub(crate) fn temp_path(active: &Path) -> PathBuf {
    sibling(active, ".compact")
}

/// The sealed segment `seq` of the journal at `active`.
pub(crate) fn sealed_path(active: &Path, seq: u64) -> PathBuf {
    sibling(active, &format!(".seg-{seq:08}"))
}

/// Lists the sealed segments of the journal at `active`, sorted by
/// sequence number.
pub(crate) fn list_sealed(active: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let Some(parent) = active.parent() else {
        return Ok(Vec::new());
    };
    let Some(stem) = active.file_name().and_then(|n| n.to_str()) else {
        return Ok(Vec::new());
    };
    let prefix = format!("{stem}.seg-");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(parent)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq) = name.strip_prefix(&prefix) else {
            continue;
        };
        let Ok(seq) = seq.parse::<u64>() else { continue };
        out.push((seq, entry.path()));
    }
    out.sort_by_key(|(seq, _)| *seq);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Record encode / decode
// ---------------------------------------------------------------------------

/// Journal bytes one record occupies: frame header, tag, length-prefixed
/// key and (for store/append) length-prefixed value.
pub(crate) fn record_encoded_len(op: &BatchOp) -> usize {
    FRAME_HEADER
        + 1
        + 8
        + op.key().as_str().len()
        + match op {
            BatchOp::Store { value, .. } | BatchOp::Append { value, .. } => 8 + value.len(),
            BatchOp::Remove { .. } => 0,
        }
}

/// Journal bytes one record of `value_len` payload under a key of
/// `key_len` characters occupies (frame + tag + two length prefixes) —
/// also the exact size compaction rewrites it at.
pub(crate) fn record_cost(key_len: usize, value_len: usize) -> u64 {
    (FRAME_HEADER + 17 + key_len + value_len) as u64
}

/// Encodes `ops` as one contiguous record group into `enc`.
///
/// On disk every record is `len(u32) ‖ crc32(u32) ‖ tag ‖ key ‖ [value]`
/// (key and value carry u64 length prefixes).  Values go through
/// [`Encoder::put_payload`], so the chunked encoder keeps them as shared
/// refcounted segments for a vectored write (no flattening).  `scratch` is
/// a reused per-record buffer holding the payload metadata so the record
/// checksum (which precedes the payload on disk) can be computed streaming
/// before anything is emitted.
fn encode_group(ops: &[BatchOp], enc: &mut Encoder, scratch: &mut Vec<u8>) {
    for op in ops {
        let key = op.key().as_str().as_bytes();
        let (tag, value) = match op {
            BatchOp::Store { value, .. } => (TAG_STORE, Some(value)),
            BatchOp::Append { value, .. } => (TAG_APPEND, Some(value)),
            BatchOp::Remove { .. } => (TAG_REMOVE, None),
        };
        scratch.clear();
        scratch.push(tag);
        scratch.extend_from_slice(&(key.len() as u64).to_le_bytes());
        scratch.extend_from_slice(key);
        // `put_payload` below emits the value's u64 length prefix itself;
        // the checksum must cover it in stream order all the same.
        let payload_len = scratch.len() + value.map(|v| 8 + v.len()).unwrap_or(0);
        let mut crc = crc32_update(CRC32_INIT, scratch);
        if let Some(value) = value {
            crc = crc32_update(crc, &(value.len() as u64).to_le_bytes());
            crc = crc32_update(crc, value);
        }
        enc.put_u32(payload_len as u32);
        enc.put_u32(!crc);
        enc.put_raw(scratch);
        if let Some(value) = value {
            enc.put_payload(value);
        }
    }
}

/// Writes `ops` as one record group: a chunked encoding fed to interleaved
/// vectored writes, so payload bytes go from the protocol state to the
/// `writev` syscall uncopied.  Returns the journal bytes written.
pub(crate) fn write_group_to(file: &mut File, ops: &[BatchOp]) -> Result<u64> {
    let total: usize = ops.iter().map(record_encoded_len).sum();
    let mut scratch = Vec::new();
    let mut enc = Encoder::chunked();
    encode_group(ops, &mut enc, &mut scratch);
    debug_assert_eq!(enc.len(), total, "record groups must be pre-sized exactly");
    let segments = enc.into_chunks();
    let parts: Vec<&[u8]> = segments.iter().map(|b| &b[..]).collect();
    write_all_vectored(file, &parts)?;
    Ok(total as u64)
}

/// Writes the base-header record: `covered_seq`, CRC-framed like every
/// other record.  Returns the bytes written.
pub(crate) fn write_base_meta(file: &mut File, covered_seq: u64) -> Result<u64> {
    let mut payload = Vec::with_capacity(9);
    payload.push(TAG_BASE_META);
    payload.extend_from_slice(&covered_seq.to_le_bytes());
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    file.write_all(&frame)?;
    Ok(frame.len() as u64)
}

/// Writes every part of `parts`, in order, using vectored writes and
/// handling short writes.
fn write_all_vectored(file: &mut File, parts: &[&[u8]]) -> std::io::Result<()> {
    let mut index = 0;
    let mut offset = 0;
    while index < parts.len() {
        if parts[index].len() == offset {
            index += 1;
            offset = 0;
            continue;
        }
        let slices: Vec<IoSlice<'_>> = std::iter::once(IoSlice::new(&parts[index][offset..]))
            .chain(parts[index + 1..].iter().map(|p| IoSlice::new(p)))
            .collect();
        let mut written = file.write_vectored(&slices)?;
        if written == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "failed to write whole record group",
            ));
        }
        // Advance the cursor across however many parts the write covered.
        while index < parts.len() && written > 0 {
            let remaining = parts[index].len() - offset;
            if written >= remaining {
                written -= remaining;
                index += 1;
                offset = 0;
            } else {
                offset += written;
                written = 0;
            }
        }
    }
    Ok(())
}

/// Decodes one record payload back into a [`BatchOp`].
///
/// `payload` is a refcounted slice of the segment read buffer, so the
/// decoded value is a zero-copy view of it.
fn decode_op(payload: &Bytes) -> Result<BatchOp> {
    let mut dec = Decoder::over(payload);
    let tag = dec.take_u8()?;
    if tag == TAG_BASE_META {
        return Err(AbcastError::storage(
            "base meta record outside the head of a base segment",
        ));
    }
    let key_bytes = dec.take_bytes()?;
    let key = StorageKey::new(
        String::from_utf8(key_bytes.to_vec()) // Replay materializes each record key once per reopen, off the hot path
            .map_err(|_| AbcastError::storage("WAL record key is not UTF-8"))?,
    );
    Ok(match tag {
        TAG_STORE => BatchOp::Store {
            key,
            value: dec.take_payload()?,
        },
        TAG_APPEND => BatchOp::Append {
            key,
            value: dec.take_payload()?,
        },
        TAG_REMOVE => BatchOp::Remove { key },
        other => {
            return Err(AbcastError::storage(format!(
                "unknown WAL record tag {other}"
            )))
        }
    })
}

// ---------------------------------------------------------------------------
// Materialized state and replay
// ---------------------------------------------------------------------------

/// The in-memory image a replayed journal materializes into: slots, logs
/// and the running live-byte estimate.
///
/// Slots and log records are refcounted [`Bytes`]: right after replay they
/// are zero-copy views of the segment read buffers; afterwards they share
/// the buffers committed by the protocol.
#[derive(Debug, Default)]
pub(crate) struct MaterializedState {
    pub slots: BTreeMap<StorageKey, Bytes>,
    pub logs: BTreeMap<StorageKey, Vec<Bytes>>,
    /// Bytes of live data (what a fully compacted journal would hold),
    /// kept incrementally in step with the materialized view — compaction
    /// decisions on the commit path must be O(1), not a scan of the whole
    /// state.
    pub live_bytes: u64,
}

impl MaterializedState {
    /// Applies one journal record, keeping `live_bytes` current.
    pub(crate) fn apply(&mut self, op: BatchOp) {
        match op {
            BatchOp::Store { key, value } => {
                let key_len = key.as_str().len();
                self.live_bytes += record_cost(key_len, value.len());
                if let Some(old) = self.slots.insert(key, value) {
                    self.live_bytes -= record_cost(key_len, old.len());
                }
            }
            BatchOp::Append { key, value } => {
                self.live_bytes += record_cost(key.as_str().len(), value.len());
                self.logs.entry(key).or_default().push(value);
            }
            BatchOp::Remove { key } => {
                let key_len = key.as_str().len();
                if let Some(old) = self.slots.remove(&key) {
                    self.live_bytes -= record_cost(key_len, old.len());
                }
                if let Some(entries) = self.logs.remove(&key) {
                    for entry in entries {
                        self.live_bytes -= record_cost(key_len, entry.len());
                    }
                }
            }
        }
    }

    /// The live state as one flat record group (slots first, then logs in
    /// append order) — exactly what compaction rewrites.  Clones only
    /// refcounted views; the payload bytes themselves stay shared.
    pub(crate) fn to_live_ops(&self) -> Vec<BatchOp> {
        self.slots
            .iter()
            .map(|(key, value)| BatchOp::Store {
                key: key.clone(),
                value: value.clone(),
            })
            .chain(self.logs.iter().flat_map(|(key, entries)| {
                entries.iter().map(|value| BatchOp::Append {
                    key: key.clone(),
                    value: value.clone(),
                })
            }))
            .collect()
    }
}

/// How a scan treats a torn or CRC-corrupt suffix.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum TailRule {
    /// Active segment: a bad suffix is a crash artifact; stop at the
    /// intact prefix and report its length for truncation.
    Truncate,
    /// Sealed/base segment: the file was fsynced before it became
    /// immutable, so a bad suffix is corruption — fail the open.
    Corruption,
}

/// Outcome of scanning one segment file.
pub(crate) struct ScanOutcome {
    /// Length of the intact record prefix.
    pub intact_len: u64,
    /// Total file length (equals `intact_len` for a clean file).
    pub file_len: u64,
}

/// Scans the CRC-framed records of `data`, feeding each intact payload to
/// `on_record` in order.  The callback returns `Ok(true)` to continue,
/// `Ok(false)` to end the intact prefix *before* the record it was handed
/// (how the active segment rejects an undecodable but CRC-clean record).
/// Under [`TailRule::Corruption`] any bad record — torn, CRC-mismatched or
/// undecodable — is an error naming `path`.
fn scan(
    path: &Path,
    data: &Bytes,
    rule: TailRule,
    mut on_record: impl FnMut(Bytes) -> Result<bool>,
) -> Result<ScanOutcome> {
    let corrupt = |what: &str| {
        AbcastError::storage(format!(
            "{what} in sealed WAL segment {} — sealed segments are immutable, this is corruption, not a torn tail",
            path.display()
        ))
    };
    let mut offset = 0usize;
    while offset + FRAME_HEADER <= data.len() {
        let len = u32::from_le_bytes(
            data[offset..offset + 4].try_into().expect("length checked"),
        ) as usize;
        let crc = u32::from_le_bytes(
            data[offset + 4..offset + 8].try_into().expect("length checked"),
        );
        let body_start = offset + FRAME_HEADER;
        if body_start + len > data.len() {
            // The record was never fully written.
            if rule == TailRule::Corruption {
                return Err(corrupt("torn record"));
            }
            break;
        }
        let payload = data.slice(body_start..body_start + len);
        if crc32(&payload) != crc {
            if rule == TailRule::Corruption {
                return Err(corrupt("CRC mismatch"));
            }
            break;
        }
        if !on_record(payload)? {
            break;
        }
        offset = body_start + len;
    }
    if offset < data.len() && rule == TailRule::Corruption {
        return Err(corrupt("trailing partial frame"));
    }
    Ok(ScanOutcome {
        intact_len: offset as u64,
        file_len: data.len() as u64,
    })
}

/// Replays the active segment at `path` into `state`, tolerant of a torn
/// tail.  Returns the scan outcome so the caller can truncate the file to
/// the intact prefix.  A missing file replays as empty.
pub(crate) fn replay_active(path: &Path, state: &mut MaterializedState) -> Result<ScanOutcome> {
    let data = match std::fs::read(path) {
        Ok(d) => Bytes::from(d),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Bytes::new(),
        Err(e) => return Err(e.into()),
    };
    scan(path, &data, TailRule::Truncate, |payload| {
        // An undecodable but CRC-clean record ends the intact prefix too —
        // treated like corruption of the tail, not an error.
        match decode_op(&payload) {
            Ok(op) => {
                state.apply(op);
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    })
}

/// Replays the sealed segment at `path` into `state`.  Any irregularity is
/// corruption.  Returns the segment length in bytes.
pub(crate) fn replay_sealed(path: &Path, state: &mut MaterializedState) -> Result<u64> {
    let data = Bytes::from(std::fs::read(path)?);
    let outcome = scan(path, &data, TailRule::Corruption, |payload| {
        state.apply(decode_op(&payload)?);
        Ok(true)
    })?;
    Ok(outcome.file_len)
}

/// Replays the base segment at `path` into `state`.  The first record must
/// be the [`TAG_BASE_META`] header; returns `(covered_seq, file_len)`.
pub(crate) fn replay_base(path: &Path, state: &mut MaterializedState) -> Result<(u64, u64)> {
    let data = Bytes::from(std::fs::read(path)?);
    let mut covered: Option<u64> = None;
    let outcome = scan(path, &data, TailRule::Corruption, |payload| {
        if covered.is_none() {
            if payload.len() != 9 || payload[0] != TAG_BASE_META {
                return Err(AbcastError::storage(format!(
                    "WAL base {} does not start with a meta record",
                    path.display()
                )));
            }
            covered = Some(u64::from_le_bytes(
                payload[1..9].try_into().expect("length checked"),
            ));
            return Ok(true);
        }
        state.apply(decode_op(&payload)?);
        Ok(true)
    })?;
    let covered = covered.ok_or_else(|| {
        AbcastError::storage(format!("WAL base {} is empty", path.display()))
    })?;
    Ok((covered, outcome.file_len))
}
