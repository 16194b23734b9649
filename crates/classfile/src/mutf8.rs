//! Modified UTF-8 (JVMS §4.4.7): the string encoding of `CONSTANT_Utf8`.
//!
//! Differences from standard UTF-8: `U+0000` is encoded as the two-byte
//! sequence `0xC0 0x80`, and characters above `U+FFFF` are encoded as CESU-8
//! style surrogate pairs (two three-byte sequences).

/// Encodes a Rust string into modified UTF-8 bytes. The serializer uses
/// the allocation-free [`encode_into`]; this owned form remains for the
/// round-trip tests.
#[cfg(test)]
pub(crate) fn encode(s: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(s.len());
    encode_into(s, &mut out);
    out
}

/// Appends the modified UTF-8 encoding of `s` to `out` without allocating.
///
/// ASCII (sans NUL) is its own modified-UTF-8 encoding, and almost every
/// string a classfile carries — names, descriptors, attribute names — is
/// ASCII, so that case is a straight byte copy.
pub(crate) fn encode_into(s: &str, out: &mut Vec<u8>) {
    if s.bytes().all(|b| b != 0 && b < 0x80) {
        out.extend_from_slice(s.as_bytes());
        return;
    }
    for ch in s.chars() {
        let c = ch as u32;
        match c {
            0 => out.extend_from_slice(&[0xC0, 0x80]),
            0x01..=0x7F => out.push(c as u8),
            0x80..=0x7FF => {
                out.push(0xC0 | (c >> 6) as u8);
                out.push(0x80 | (c & 0x3F) as u8);
            }
            0x800..=0xFFFF => {
                out.push(0xE0 | (c >> 12) as u8);
                out.push(0x80 | ((c >> 6) & 0x3F) as u8);
                out.push(0x80 | (c & 0x3F) as u8);
            }
            _ => {
                // Encode as a surrogate pair, each half as a 3-byte sequence.
                let v = c - 0x10000;
                let hi = 0xD800 + (v >> 10);
                let lo = 0xDC00 + (v & 0x3FF);
                for half in [hi, lo] {
                    out.push(0xE0 | (half >> 12) as u8);
                    out.push(0x80 | ((half >> 6) & 0x3F) as u8);
                    out.push(0x80 | (half & 0x3F) as u8);
                }
            }
        }
    }
}

/// Decodes modified UTF-8 bytes into a Rust string. The parser uses the
/// allocation-free [`decode_into`]; this owned form remains for the
/// round-trip tests.
#[cfg(test)]
pub(crate) fn decode(bytes: &[u8]) -> Option<String> {
    let mut out = String::new();
    decode_into(bytes, &mut out).then_some(out)
}

/// Appends the decoding of modified UTF-8 `bytes` to `out`.
///
/// Returns `false`, with `out` as it was, on malformed input (truncated
/// sequences, bad continuation bytes, or an unpaired surrogate).
pub(crate) fn decode_into(bytes: &[u8], out: &mut String) -> bool {
    let start = out.len();
    let ok = decode_chars(bytes, out).is_some();
    if !ok {
        out.truncate(start);
    }
    ok
}

fn decode_chars(bytes: &[u8], out: &mut String) -> Option<()> {
    // The mirror of `encode_into`'s fast path: NUL-free ASCII decodes to
    // itself, so it is copied once instead of pushed char by char.
    if bytes.is_ascii() && !bytes.contains(&0) {
        out.push_str(std::str::from_utf8(bytes).ok()?);
        return Some(());
    }
    let mut i = 0;
    while i < bytes.len() {
        let b0 = bytes[i];
        if b0 & 0x80 == 0 {
            if b0 == 0 {
                return None; // raw NUL is illegal in modified UTF-8
            }
            out.push(b0 as char);
            i += 1;
        } else if b0 & 0xE0 == 0xC0 {
            let b1 = *bytes.get(i + 1)?;
            if b1 & 0xC0 != 0x80 {
                return None;
            }
            let c = ((b0 as u32 & 0x1F) << 6) | (b1 as u32 & 0x3F);
            out.push(char::from_u32(c)?);
            i += 2;
        } else if b0 & 0xF0 == 0xE0 {
            let b1 = *bytes.get(i + 1)?;
            let b2 = *bytes.get(i + 2)?;
            if b1 & 0xC0 != 0x80 || b2 & 0xC0 != 0x80 {
                return None;
            }
            let c = ((b0 as u32 & 0x0F) << 12) | ((b1 as u32 & 0x3F) << 6) | (b2 as u32 & 0x3F);
            if (0xD800..=0xDBFF).contains(&c) {
                // High surrogate: a low surrogate 3-byte sequence must follow.
                let b3 = *bytes.get(i + 3)?;
                let b4 = *bytes.get(i + 4)?;
                let b5 = *bytes.get(i + 5)?;
                if b3 & 0xF0 != 0xE0 || b4 & 0xC0 != 0x80 || b5 & 0xC0 != 0x80 {
                    return None;
                }
                let lo =
                    ((b3 as u32 & 0x0F) << 12) | ((b4 as u32 & 0x3F) << 6) | (b5 as u32 & 0x3F);
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return None;
                }
                let v = 0x10000 + ((c - 0xD800) << 10) + (lo - 0xDC00);
                out.push(char::from_u32(v)?);
                i += 6;
            } else if (0xDC00..=0xDFFF).contains(&c) {
                return None; // unpaired low surrogate
            } else {
                out.push(char::from_u32(c)?);
                i += 3;
            }
        } else {
            return None; // 4-byte standard UTF-8 is illegal in modified UTF-8
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: &str) {
        assert_eq!(decode(&encode(s)).as_deref(), Some(s));
    }

    #[test]
    fn ascii_roundtrip() {
        roundtrip("java/lang/Object");
        roundtrip("<clinit>");
        roundtrip("");
    }

    #[test]
    fn nul_uses_two_bytes() {
        let e = encode("\0");
        assert_eq!(e, vec![0xC0, 0x80]);
        assert_eq!(decode(&e).as_deref(), Some("\0"));
        assert_eq!(decode(&[0x00]), None);
        // A raw NUL inside otherwise-ASCII text is still rejected.
        assert_eq!(decode(b"ab\0c"), None);
    }

    #[test]
    fn bmp_and_supplementary_roundtrip() {
        roundtrip("héllo wörld");
        roundtrip("日本語クラス");
        roundtrip("emoji \u{1F600} class");
    }

    #[test]
    fn malformed_rejected() {
        assert_eq!(decode(&[0xC0]), None);
        assert_eq!(decode(&[0xE0, 0x80]), None);
        assert_eq!(decode(&[0xF0, 0x90, 0x80, 0x80]), None); // 4-byte UTF-8
        assert_eq!(decode(&[0xED, 0xB0, 0x80]), None); // lone low surrogate
    }
}
