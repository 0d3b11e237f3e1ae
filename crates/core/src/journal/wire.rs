//! Wire format of the evolution WAL: record encoding, framing, CRC32.
//!
//! Each journal record carries one [`RecordedOp`] — the same vocabulary
//! [`crate::history::History`] records and replays — in a compact,
//! human-greppable text payload, wrapped in a binary frame:
//!
//! ```text
//! [seq: u64 LE] [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! ```
//!
//! `seq` is the global operation sequence number (1-based, monotonically
//! increasing across checkpoints), `crc` is CRC-32 (IEEE) over the `seq`
//! bytes followed by the payload, so a frame whose body was spliced from
//! another position fails its checksum even if the payload itself is valid.
//!
//! [`read_frame`] classifies what it finds at an offset: a valid
//! [`Frame`], a **torn tail** (the buffer ends before the frame does — the
//! signature of a crash mid-append, safe to truncate), or **corruption**
//! (a complete frame with a bad checksum or undecodable payload — bit rot
//! or tampering, *not* safe to silently drop in strict mode).

use crate::history::RecordedOp;
use crate::ids::{PropId, TypeId};
use crate::snapshot::{parse_ids, quote, take_bracketed, take_quoted};

/// Frame header size: seq (8) + len (4) + crc (4).
pub const FRAME_HEADER: usize = 16;

/// Upper bound on a record payload; anything larger is corruption (the
/// encoder never produces payloads near this size).
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Magic first line of a WAL file.
pub const WAL_MAGIC: &[u8] = b"axbwal1\n";

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, built at compile time.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `parts` concatenated.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        for &b in *part {
            c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

// ---------------------------------------------------------------------
// Checksummed files: checkpoints and fork metadata
// ---------------------------------------------------------------------

/// Render a checksummed file of `kind` (`checkpoint`, `fork`): the header
/// line `axb<kind> v1 seq <seq> crc <crc32-of-body>`, then `body`.
pub(crate) fn render_header(kind: &str, seq: u64, body: &str) -> Vec<u8> {
    let crc = crc32(&[body.as_bytes()]);
    let mut out = format!("axb{kind} v1 seq {seq} crc {crc:08x}\n").into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// Parse a file [`render_header`] wrote: the header's sequence number and
/// the body, once the body matches its checksum. The error says what was
/// wrong.
pub(crate) fn parse_header<'a>(kind: &str, data: &'a [u8]) -> Result<(u64, &'a str), String> {
    let text = std::str::from_utf8(data).map_err(|e| format!("not UTF-8: {e}"))?;
    let (header, body) = text
        .split_once('\n')
        .ok_or_else(|| "missing header line".to_string())?;
    let words: Vec<&str> = header.split_whitespace().collect();
    let (seq, crc_hex) = match words.as_slice() {
        [tag, "v1", "seq", seq, "crc", crc] if tag.strip_prefix("axb") == Some(kind) => {
            (*seq, *crc)
        }
        _ => return Err(format!("bad header {header:?}")),
    };
    let seq = seq
        .parse()
        .map_err(|_| format!("bad seq {seq:?} in header"))?;
    let want = u32::from_str_radix(crc_hex, 16).map_err(|_| format!("bad crc {crc_hex:?}"))?;
    let got = crc32(&[body.as_bytes()]);
    if got != want {
        return Err(format!(
            "checksum mismatch (stored {want:#010x}, computed {got:#010x})"
        ));
    }
    Ok((seq, body))
}

// ---------------------------------------------------------------------
// Record payload: RecordedOp <-> text
// ---------------------------------------------------------------------

/// Encode a [`RecordedOp`] as its journal payload text.
pub fn encode_op(op: &RecordedOp) -> String {
    fn ids<I: Iterator<Item = usize>>(it: I) -> String {
        let v: Vec<String> = it.map(|x| x.to_string()).collect();
        v.join(",")
    }
    match op {
        RecordedOp::AddProperty { name } => format!("ap {}", quote(name)),
        RecordedOp::RenameProperty { p, name } => {
            format!("rp {} {}", p.index(), quote(name))
        }
        RecordedOp::DropProperty { p } => format!("dp {}", p.index()),
        RecordedOp::AddRootType { name } => format!("art {}", quote(name)),
        RecordedOp::AddBaseType { name } => format!("abt {}", quote(name)),
        RecordedOp::AddType {
            name,
            supers,
            props,
        } => format!(
            "at {} s[{}] p[{}]",
            quote(name),
            ids(supers.iter().map(|t| t.index())),
            ids(props.iter().map(|p| p.index()))
        ),
        RecordedOp::DropType { t } => format!("dt {}", t.index()),
        RecordedOp::RenameType { t, name } => format!("rt {} {}", t.index(), quote(name)),
        RecordedOp::FreezeType { t } => format!("ft {}", t.index()),
        RecordedOp::AddEssentialSupertype { t, s } => {
            format!("asr {} {}", t.index(), s.index())
        }
        RecordedOp::DropEssentialSupertype { t, s } => {
            format!("dsr {} {}", t.index(), s.index())
        }
        RecordedOp::AddEssentialProperty { t, p } => {
            format!("ab {} {}", t.index(), p.index())
        }
        RecordedOp::DropEssentialProperty { t, p } => {
            format!("db {} {}", t.index(), p.index())
        }
    }
}

/// Decode a journal payload back into a [`RecordedOp`].
pub fn decode_op(text: &str) -> Result<RecordedOp, String> {
    let text = text.trim();
    let (kind, rest) = match text.split_once(' ') {
        Some((k, r)) => (k, r.trim()),
        None => return Err(format!("op {text:?}: missing operands")),
    };
    let idx = |w: &str| -> Result<usize, String> {
        w.parse::<usize>().map_err(|_| format!("bad id {w:?}"))
    };
    let ty = |w: &str| TypeId::try_from_index(idx(w)?).map_err(|e| e.to_string());
    let prop = |w: &str| PropId::try_from_index(idx(w)?).map_err(|e| e.to_string());
    fn two_ids(rest: &str) -> Result<(&str, &str), String> {
        let (a, b) = rest
            .split_once(' ')
            .ok_or_else(|| format!("expected two ids, got {rest:?}"))?;
        Ok((a.trim(), b.trim()))
    }
    let name_only = |rest: &str| -> Result<String, String> {
        let (name, tail) = take_quoted(rest).ok_or_else(|| format!("bad quoting in {rest:?}"))?;
        if !tail.trim().is_empty() {
            return Err(format!("trailing junk after name: {tail:?}"));
        }
        Ok(name)
    };
    match kind {
        "ap" => Ok(RecordedOp::AddProperty {
            name: name_only(rest)?,
        }),
        "rp" => {
            let (p, tail) = rest
                .split_once(' ')
                .ok_or_else(|| format!("rp: missing name in {rest:?}"))?;
            Ok(RecordedOp::RenameProperty {
                p: prop(p)?,
                name: name_only(tail.trim())?,
            })
        }
        "dp" => Ok(RecordedOp::DropProperty { p: prop(rest)? }),
        "art" => Ok(RecordedOp::AddRootType {
            name: name_only(rest)?,
        }),
        "abt" => Ok(RecordedOp::AddBaseType {
            name: name_only(rest)?,
        }),
        "at" => {
            let (name, tail) =
                take_quoted(rest).ok_or_else(|| format!("at: bad quoting in {rest:?}"))?;
            let tail = tail.trim();
            let (s_str, tail) = take_bracketed(tail, "s")
                .ok_or_else(|| format!("at: missing s[...] in {tail:?}"))?;
            let (p_str, tail) = take_bracketed(tail.trim(), "p")
                .ok_or_else(|| format!("at: missing p[...] in {tail:?}"))?;
            if !tail.trim().is_empty() {
                return Err(format!("at: trailing junk {tail:?}"));
            }
            Ok(RecordedOp::AddType {
                name,
                supers: parse_ids(s_str)?
                    .into_iter()
                    .map(TypeId::from_index)
                    .collect(),
                props: parse_ids(p_str)?
                    .into_iter()
                    .map(PropId::from_index)
                    .collect(),
            })
        }
        "dt" => Ok(RecordedOp::DropType { t: ty(rest)? }),
        "rt" => {
            let (t, tail) = rest
                .split_once(' ')
                .ok_or_else(|| format!("rt: missing name in {rest:?}"))?;
            Ok(RecordedOp::RenameType {
                t: ty(t)?,
                name: name_only(tail.trim())?,
            })
        }
        "ft" => Ok(RecordedOp::FreezeType { t: ty(rest)? }),
        "asr" => {
            let (t, s) = two_ids(rest)?;
            Ok(RecordedOp::AddEssentialSupertype {
                t: ty(t)?,
                s: ty(s)?,
            })
        }
        "dsr" => {
            let (t, s) = two_ids(rest)?;
            Ok(RecordedOp::DropEssentialSupertype {
                t: ty(t)?,
                s: ty(s)?,
            })
        }
        "ab" => {
            let (t, p) = two_ids(rest)?;
            Ok(RecordedOp::AddEssentialProperty {
                t: ty(t)?,
                p: prop(p)?,
            })
        }
        "db" => {
            let (t, p) = two_ids(rest)?;
            Ok(RecordedOp::DropEssentialProperty {
                t: ty(t)?,
                p: prop(p)?,
            })
        }
        other => Err(format!("unknown op kind {other:?}")),
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Append the frame for (`seq`, `op`) to `out`.
pub fn encode_frame(out: &mut Vec<u8>, seq: u64, op: &RecordedOp) {
    let payload = encode_op(op);
    let payload = payload.as_bytes();
    let seq_bytes = seq.to_le_bytes();
    let crc = crc32(&[&seq_bytes, payload]);
    out.extend_from_slice(&seq_bytes);
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("payload < 4GiB")
            .to_le_bytes(),
    );
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
}

/// A successfully decoded journal frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Global operation sequence number.
    pub seq: u64,
    /// The decoded operation.
    pub op: RecordedOp,
    /// Offset of the first byte after this frame.
    pub next: usize,
}

/// What [`read_frame`] found at an offset.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameResult {
    /// A complete, checksum-valid, decodable frame.
    Record(Frame),
    /// The buffer ends cleanly at this offset — no more frames.
    End,
    /// The buffer ends *inside* a frame: a torn append. Recovery truncates
    /// here in both strict and salvage mode (the record was never
    /// acknowledged — see the module docs on the applied-prefix guarantee).
    TornTail {
        /// Offset of the incomplete frame.
        offset: usize,
        /// How many bytes of it are present.
        bytes: usize,
    },
    /// A complete frame that fails its checksum or does not decode: real
    /// corruption, distinct from a torn tail.
    Corrupt {
        /// Offset of the corrupt frame.
        offset: usize,
        /// What was wrong.
        detail: String,
    },
}

/// Classify the bytes of `buf` starting at `offset`.
pub fn read_frame(buf: &[u8], offset: usize) -> FrameResult {
    let rest = &buf[offset.min(buf.len())..];
    if rest.is_empty() {
        return FrameResult::End;
    }
    if rest.len() < FRAME_HEADER {
        return FrameResult::TornTail {
            offset,
            bytes: rest.len(),
        };
    }
    let seq_bytes: [u8; 8] = rest[0..8].try_into().expect("sized slice");
    let seq = u64::from_le_bytes(seq_bytes);
    let len = u32::from_le_bytes(rest[8..12].try_into().expect("sized slice"));
    let crc = u32::from_le_bytes(rest[12..16].try_into().expect("sized slice"));
    if len > MAX_PAYLOAD {
        // A length field this large is never produced by the encoder; the
        // header itself is damaged. With a trashed length we cannot tell a
        // short buffer from a complete frame, so classify by completeness
        // of what a *plausible* frame could be: treat as corruption.
        return FrameResult::Corrupt {
            offset,
            detail: format!("implausible payload length {len}"),
        };
    }
    let total = FRAME_HEADER + len as usize;
    if rest.len() < total {
        return FrameResult::TornTail {
            offset,
            bytes: rest.len(),
        };
    }
    let payload = &rest[FRAME_HEADER..total];
    let want = crc32(&[&seq_bytes, payload]);
    if want != crc {
        return FrameResult::Corrupt {
            offset,
            detail: format!("checksum mismatch (stored {crc:#010x}, computed {want:#010x})"),
        };
    }
    let text = match std::str::from_utf8(payload) {
        Ok(t) => t,
        Err(e) => {
            return FrameResult::Corrupt {
                offset,
                detail: format!("payload not UTF-8: {e}"),
            }
        }
    };
    match decode_op(text) {
        Ok(op) => FrameResult::Record(Frame {
            seq,
            op,
            next: offset + total,
        }),
        Err(detail) => FrameResult::Corrupt {
            offset,
            detail: format!("undecodable op: {detail}"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_answer() {
        // The standard CRC-32 (IEEE) check value.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b""]), 0);
    }

    fn all_ops() -> Vec<RecordedOp> {
        let t = TypeId::from_index(3);
        let s = TypeId::from_index(1);
        let p = PropId::from_index(2);
        vec![
            RecordedOp::AddProperty {
                name: "plain".into(),
            },
            RecordedOp::AddProperty {
                name: "weird \"q\" \\ new\nline".into(),
            },
            RecordedOp::RenameProperty {
                p,
                name: "renamed".into(),
            },
            RecordedOp::DropProperty { p },
            RecordedOp::AddRootType {
                name: "T_object".into(),
            },
            RecordedOp::AddBaseType {
                name: "T_null".into(),
            },
            RecordedOp::AddType {
                name: "A".into(),
                supers: vec![s, t],
                props: vec![p],
            },
            RecordedOp::AddType {
                name: "empty".into(),
                supers: vec![],
                props: vec![],
            },
            RecordedOp::DropType { t },
            RecordedOp::RenameType {
                t,
                name: "B".into(),
            },
            RecordedOp::FreezeType { t },
            RecordedOp::AddEssentialSupertype { t, s },
            RecordedOp::DropEssentialSupertype { t, s },
            RecordedOp::AddEssentialProperty { t, p },
            RecordedOp::DropEssentialProperty { t, p },
        ]
    }

    #[test]
    fn op_text_roundtrip_all_variants() {
        for op in all_ops() {
            let text = encode_op(&op);
            let back = decode_op(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            assert_eq!(back, op, "{text:?}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        for bad in [
            "",
            "zz 1 2",
            "ap noquote",
            "ap \"unterminated",
            "at \"A\" s[1",
            "at \"A\" s[x] p[]",
            "asr 1",
            "dt notanumber",
            "rp 5",
            "ap \"x\" trailing",
        ] {
            assert!(decode_op(bad).is_err(), "{bad:?} should not decode");
        }
    }

    /// An id past the `u32` id space is refused with the arena bound's
    /// message, not a panic in the id constructor.
    #[test]
    fn decode_refuses_ids_past_the_id_space() {
        let types = "type arena index 4294967296 exceeds the u32::MAX id space";
        let props = "property arena index 4294967296 exceeds the u32::MAX id space";
        for (bad, want) in [
            ("dt 4294967296", types),
            ("ft 4294967296", types),
            ("rt 4294967296 \"A\"", types),
            ("asr 4294967296 0", types),
            ("dsr 0 4294967296", types),
            ("ab 4294967296 0", types),
            ("db 0 4294967296", props),
            ("dp 4294967296", props),
            ("rp 4294967296 \"a\"", props),
        ] {
            assert_eq!(decode_op(bad), Err(want.to_string()), "{bad:?}");
        }
    }

    #[test]
    fn frame_roundtrip_multiple_records() {
        let ops = all_ops();
        let mut buf = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            encode_frame(&mut buf, i as u64 + 1, op);
        }
        let mut off = 0usize;
        let mut seen = Vec::new();
        loop {
            match read_frame(&buf, off) {
                FrameResult::Record(f) => {
                    assert_eq!(f.seq, seen.len() as u64 + 1);
                    seen.push(f.op);
                    off = f.next;
                }
                FrameResult::End => break,
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(seen, ops);
    }

    #[test]
    fn torn_tail_at_every_cut_point() {
        let mut buf = Vec::new();
        encode_frame(
            &mut buf,
            7,
            &RecordedOp::AddProperty {
                name: "tear-me".into(),
            },
        );
        for cut in 1..buf.len() {
            match read_frame(&buf[..cut], 0) {
                FrameResult::TornTail { offset: 0, bytes } => assert_eq!(bytes, cut),
                other => panic!("cut={cut}: {other:?}"),
            }
        }
        assert!(matches!(read_frame(&buf, 0), FrameResult::Record(_)));
        assert!(matches!(read_frame(&buf, buf.len()), FrameResult::End));
    }

    #[test]
    fn every_single_bitflip_is_detected() {
        let mut pristine = Vec::new();
        encode_frame(
            &mut pristine,
            42,
            &RecordedOp::DropType {
                t: TypeId::from_index(5),
            },
        );
        for byte in 0..pristine.len() {
            for bit in 0..8 {
                let mut buf = pristine.clone();
                buf[byte] ^= 1 << bit;
                match read_frame(&buf, 0) {
                    FrameResult::Record(f) => {
                        panic!("bitflip at {byte}.{bit} went undetected: {f:?}")
                    }
                    // A flip in the length field can make the frame look
                    // longer than the buffer (torn) or implausible/corrupt;
                    // any flip elsewhere must fail the checksum.
                    FrameResult::Corrupt { .. } | FrameResult::TornTail { .. } => {}
                    FrameResult::End => panic!("nonempty buffer cannot be End"),
                }
            }
        }
    }

    #[test]
    fn splice_from_other_position_fails_checksum() {
        // A valid frame re-stamped with a different seq must not validate:
        // the CRC covers the seq bytes.
        let mut buf = Vec::new();
        encode_frame(
            &mut buf,
            1,
            &RecordedOp::FreezeType {
                t: TypeId::from_index(0),
            },
        );
        buf[0] = 9; // change seq 1 -> 9 without recomputing the CRC
        assert!(matches!(read_frame(&buf, 0), FrameResult::Corrupt { .. }));
    }

    #[test]
    fn implausible_length_is_corrupt_not_torn() {
        let mut buf = Vec::new();
        encode_frame(
            &mut buf,
            1,
            &RecordedOp::DropProperty {
                p: PropId::from_index(0),
            },
        );
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&buf, 0),
            FrameResult::Corrupt { detail, .. } if detail.contains("implausible")
        ));
    }
}
