//! DNS wire format: the subset needed to run a DNSBL over real UDP.
//!
//! The paper's DNSBLv6 works "under unmodified DNS" (§7.1) — a /25 bitmap
//! rides in the 128 bits of an ordinary AAAA answer. To make that claim
//! concrete, this module implements RFC 1035 message encoding/decoding
//! for queries and responses with A and AAAA records (including name
//! compression on decode), and [`crate::UdpDnsbl`] serves it over a real
//! socket.

use std::fmt;

/// DNS record/query types used by DNSBLs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordType {
    /// IPv4 address record (classic DNSBL answers).
    A,
    /// IPv6 address record (DNSBLv6 bitmap answers).
    Aaaa,
}

impl RecordType {
    /// The wire TYPE value.
    pub fn code(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Aaaa => 28,
        }
    }

    /// Parses a wire TYPE value.
    fn from_code(code: u16) -> Option<RecordType> {
        match code {
            1 => Some(RecordType::A),
            28 => Some(RecordType::Aaaa),
            _ => None,
        }
    }
}

/// DNS response codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Name does not exist.
    NxDomain,
    /// Any other code (`FORMERR` is 1, `SERVFAIL` 2, `REFUSED` 5), its
    /// four bits as they came.
    Other(u8),
}

impl Rcode {
    fn bits(self) -> u16 {
        match self {
            Rcode::NoError => 0,
            Rcode::NxDomain => 3,
            Rcode::Other(b) => u16::from(b & 0xF),
        }
    }

    fn from_bits(b: u16) -> Rcode {
        match b & 0xF {
            0 => Rcode::NoError,
            3 => Rcode::NxDomain,
            other => Rcode::Other(other as u8),
        }
    }
}

/// A DNS question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Query name (dotted, no trailing dot).
    pub name: String,
    /// Query type.
    pub qtype: RecordType,
}

/// One answer record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Owner name (dotted).
    pub name: String,
    /// Record type.
    pub rtype: RecordType,
    /// Time to live, seconds.
    pub ttl: u32,
    /// RDATA: 4 bytes for A, 16 for AAAA.
    pub rdata: Vec<u8>,
}

/// A decoded DNS message (query or response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction id.
    pub id: u16,
    /// Whether this is a response.
    pub response: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Answer>,
}

impl Message {
    /// Builds a query for `name`/`qtype`.
    pub fn query(id: u16, name: impl Into<String>, qtype: RecordType) -> Message {
        Message {
            id,
            response: false,
            rcode: Rcode::NoError,
            questions: vec![Question {
                name: name.into(),
                qtype,
            }],
            answers: Vec::new(),
        }
    }

    /// Builds a response echoing this query with the given answers.
    pub fn respond(&self, rcode: Rcode, answers: Vec<Answer>) -> Message {
        Message {
            id: self.id,
            response: true,
            rcode,
            questions: self.questions.clone(),
            answers,
        }
    }

    /// Encodes to wire bytes.
    ///
    /// # Panics
    ///
    /// Panics if a name label exceeds 63 bytes (caller-constructed names
    /// from [`spamaware_netaddr::QueryName`] never do).
    pub fn encode(&self) -> Vec<u8> {
        let mut flags = 0u16;
        if self.response {
            flags |= 0x8000; // QR
            flags |= 0x0400; // AA
        }
        flags |= 0x0100; // RD (harmless on authoritative answers)
        flags |= self.rcode.bits();
        let mut b = Vec::with_capacity(64);
        let (qd, an) = (self.questions.len() as u16, self.answers.len() as u16);
        // ID, flags, QDCOUNT, ANCOUNT, NSCOUNT, ARCOUNT.
        for word in [self.id, flags, qd, an, 0, 0] {
            b.extend_from_slice(&word.to_be_bytes());
        }
        for q in &self.questions {
            encode_name(&mut b, &q.name);
            b.extend_from_slice(&q.qtype.code().to_be_bytes());
            b.extend_from_slice(&1u16.to_be_bytes()); // IN
        }
        for a in &self.answers {
            encode_name(&mut b, &a.name);
            b.extend_from_slice(&a.rtype.code().to_be_bytes());
            b.extend_from_slice(&1u16.to_be_bytes()); // IN
            b.extend_from_slice(&a.ttl.to_be_bytes());
            b.extend_from_slice(&(a.rdata.len() as u16).to_be_bytes());
            b.extend_from_slice(&a.rdata);
        }
        b
    }

    /// Decodes wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for truncated or malformed messages.
    pub fn decode(full: &[u8]) -> Result<Message, WireError> {
        let header = full
            .get(..12)
            .ok_or_else(|| WireError::new("truncated header"))?;
        // ID, flags, QDCOUNT, ANCOUNT; NSCOUNT and ARCOUNT are ignored.
        let word = |i: usize| u16::from_be_bytes([header[2 * i], header[2 * i + 1]]);
        let (id, flags, qd, an) = (word(0), word(1), word(2), word(3));
        let mut offset = 12usize;
        let mut questions = Vec::with_capacity(qd as usize);
        for _ in 0..qd {
            let (name, next) = decode_name(full, offset)?;
            offset = next;
            if full.len() < offset + 4 {
                return Err(WireError::new("truncated question"));
            }
            let qtype = u16::from_be_bytes([full[offset], full[offset + 1]]);
            offset += 4; // type + class
            questions.push(Question {
                name,
                qtype: RecordType::from_code(qtype)
                    .ok_or_else(|| WireError::new("unsupported qtype"))?,
            });
        }
        let mut answers = Vec::with_capacity(an as usize);
        for _ in 0..an {
            let (name, next) = decode_name(full, offset)?;
            offset = next;
            if full.len() < offset + 10 {
                return Err(WireError::new("truncated answer"));
            }
            let rtype = u16::from_be_bytes([full[offset], full[offset + 1]]);
            let ttl = u32::from_be_bytes([
                full[offset + 4],
                full[offset + 5],
                full[offset + 6],
                full[offset + 7],
            ]);
            let rdlen = u16::from_be_bytes([full[offset + 8], full[offset + 9]]) as usize;
            offset += 10;
            if full.len() < offset + rdlen {
                return Err(WireError::new("truncated rdata"));
            }
            answers.push(Answer {
                name,
                rtype: RecordType::from_code(rtype)
                    .ok_or_else(|| WireError::new("unsupported rtype"))?,
                ttl,
                rdata: full[offset..offset + rdlen].to_vec(),
            });
            offset += rdlen;
        }
        Ok(Message {
            id,
            response: flags & 0x8000 != 0,
            rcode: Rcode::from_bits(flags),
            questions,
            answers,
        })
    }
}

fn encode_name(b: &mut Vec<u8>, name: &str) {
    for label in name.split('.').filter(|l| !l.is_empty()) {
        assert!(label.len() <= 63, "label too long: {label:?}");
        b.push(label.len() as u8);
        b.extend_from_slice(label.as_bytes());
    }
    b.push(0);
}

/// Decodes a (possibly compressed) name starting at `offset`; returns the
/// name and the offset just past it in the original stream.
fn decode_name(full: &[u8], mut offset: usize) -> Result<(String, usize), WireError> {
    let mut labels: Vec<String> = Vec::new();
    let mut jumped = false;
    let mut after = offset;
    let mut hops = 0;
    loop {
        let len = *full
            .get(offset)
            .ok_or_else(|| WireError::new("truncated name"))? as usize;
        if len & 0xC0 == 0xC0 {
            // Compression pointer.
            let lo = *full
                .get(offset + 1)
                .ok_or_else(|| WireError::new("truncated pointer"))? as usize;
            let target = ((len & 0x3F) << 8) | lo;
            if !jumped {
                after = offset + 2;
                jumped = true;
            }
            offset = target;
            hops += 1;
            if hops > 16 {
                return Err(WireError::new("compression loop"));
            }
            continue;
        }
        if len == 0 {
            if !jumped {
                after = offset + 1;
            }
            break;
        }
        let end = offset + 1 + len;
        let bytes = full
            .get(offset + 1..end)
            .ok_or_else(|| WireError::new("truncated label"))?;
        labels.push(String::from_utf8_lossy(bytes).into_owned());
        offset = end;
    }
    Ok((labels.join("."), after))
}

/// Error decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    detail: &'static str,
}

impl WireError {
    fn new(detail: &'static str) -> WireError {
        WireError { detail }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed dns message: {}", self.detail)
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_roundtrip() {
        let q = Message::query(0x1234, "7.113.0.203.bl.example", RecordType::A);
        let wire = q.encode();
        let back = Message::decode(&wire).unwrap();
        assert_eq!(back, q);
        assert!(!back.response);
    }

    #[test]
    fn response_roundtrip_with_a_and_aaaa() {
        let q = Message::query(7, "0.113.0.203.bl.example", RecordType::Aaaa);
        let resp = q.respond(
            Rcode::NoError,
            vec![
                Answer {
                    name: "0.113.0.203.bl.example".into(),
                    rtype: RecordType::Aaaa,
                    ttl: 86_400,
                    rdata: (0u8..16).collect(),
                },
                Answer {
                    name: "0.113.0.203.bl.example".into(),
                    rtype: RecordType::A,
                    ttl: 60,
                    rdata: vec![127, 0, 0, 2],
                },
            ],
        );
        let back = Message::decode(&resp.encode()).unwrap();
        assert_eq!(back, resp);
        assert!(back.response);
        assert_eq!(back.answers[0].rdata.len(), 16);
    }

    #[test]
    fn nxdomain_rcode_roundtrips() {
        let q = Message::query(1, "x.bl.example", RecordType::A);
        let resp = q.respond(Rcode::NxDomain, vec![]);
        let back = Message::decode(&resp.encode()).unwrap();
        assert_eq!(back.rcode, Rcode::NxDomain);
        assert!(back.answers.is_empty());
    }

    #[test]
    fn servfail_and_refused_rcodes_roundtrip_as_themselves() {
        let q = Message::query(2, "x.bl.example", RecordType::Aaaa);
        for code in [2, 5] {
            let resp = q.respond(Rcode::Other(code), vec![]);
            let back = Message::decode(&resp.encode()).unwrap();
            assert_eq!(back.rcode, Rcode::Other(code));
        }
    }

    #[test]
    fn decode_handles_compression_pointers() {
        // Hand-built response where the answer name is a pointer to the
        // question name at offset 12.
        let q = Message::query(9, "a.bl.example", RecordType::A);
        let mut wire = q.encode();
        // Patch counts: 1 answer.
        wire[6] = 0;
        wire[7] = 1;
        // Append answer with compressed name 0xC00C, type A, class IN,
        // TTL 300, 4 bytes of rdata.
        wire.extend_from_slice(&[0xC0, 0x0C, 0, 1, 0, 1, 0, 0, 1, 44, 0, 4]);
        wire.extend_from_slice(&[127, 0, 0, 2]);
        // Flip QR.
        wire[2] |= 0x80;
        let msg = Message::decode(&wire).unwrap();
        assert_eq!(msg.answers.len(), 1);
        assert_eq!(msg.answers[0].name, "a.bl.example");
        assert_eq!(msg.answers[0].rdata, vec![127, 0, 0, 2]);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Message::decode(&[]).is_err());
        assert!(Message::decode(&[0; 5]).is_err());
        assert!(Message::decode(&[0; 11]).is_err());
        // Twelve bytes are a whole header: a message with no records.
        let bare = Message::decode(&[0; 12]).unwrap();
        assert!(bare.questions.is_empty() && bare.answers.is_empty());
        // Valid header claiming a question but no body.
        let mut junk = vec![0u8; 12];
        junk[5] = 1; // QDCOUNT = 1
        junk.push(0xC0); // dangling pointer
        assert!(Message::decode(&junk).is_err());
    }

    #[test]
    fn decode_rejects_compression_loop() {
        let mut wire = vec![0u8; 12];
        wire[5] = 1; // one question
        wire.extend_from_slice(&[0xC0, 12]); // pointer to itself
        assert!(Message::decode(&wire).is_err());
    }
}
