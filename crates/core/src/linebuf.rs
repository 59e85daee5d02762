//! Fixed-size line accumulation for socket dialogs.
//!
//! The paper's §5.2 security argument requires the master to read client
//! input into a *fixed-size* receive buffer: a pre-trust client must never
//! be able to grow server-side state without bound. [`LineBuffer`] is that
//! buffer, shared by the master's pre-trust event loop and the workers'
//! post-trust command loops.

/// Longest accepted command line, in bytes, excluding the terminator.
///
/// RFC 5321 §4.5.3.1.6 requires at least 512 octets; we allow 2 KiB to be
/// generous to long `MAIL FROM` parameter lists while still bounding
/// per-connection memory.
pub const MAX_LINE: usize = 2048;

/// Fixed-size line accumulator (the paper's "fixed-size receive buffer").
///
/// Bytes go in via [`LineBuffer::push`]; complete lines come out via
/// [`LineBuffer::pop_line`], lent from the buffer itself — splitting a
/// read into lines copies and allocates nothing. Line semantics are
/// deliberately forgiving, matching classic MTA behaviour:
///
/// * a line ends at the first `\n`, whatever precedes it;
/// * **all** trailing `\r` and `\n` bytes are stripped from the returned
///   line — `"HELO a\r\r\n"` yields `"HELO a"`, not `"HELO a\r"`;
/// * a buffer holding more than [`MAX_LINE`] bytes with no `\n` is an
///   overflow ([`LineOverflow`]): the peer is flooding and must be
///   disconnected.
///
/// Popped lines stay in place behind a read cursor until the next `push`
/// moves the unconsumed tail (at most a partial line, when the caller
/// pops until `None`) to the front. The allocation therefore settles at
/// the longest "partial line + one read" it has seen — [`MAX_LINE`] plus
/// the reader's chunk size — however much pipelined input passes through.
///
/// # Example
///
/// ```
/// use spamaware_core::LineBuffer;
/// let mut lb = LineBuffer::new();
/// lb.push(b"EHLO relay\r\nMAIL");
/// assert_eq!(lb.pop_line().unwrap().unwrap(), b"EHLO relay");
/// assert_eq!(lb.pop_line().unwrap(), None); // "MAIL" is incomplete
/// ```
#[derive(Debug, Default)]
pub struct LineBuffer {
    buf: Vec<u8>,
    /// Start of the unconsumed bytes in `buf`.
    head: usize,
}

/// Position of the first `\n` in `hay`, eight bytes at a time.
fn find_newline(hay: &[u8]) -> Option<usize> {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let (words, tail) = hay.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        // A byte of `x` is zero exactly where `word` holds a newline; the
        // subtraction's borrow sets the high bit of the lowest such byte
        // (and only of bytes above it, which `trailing_zeros` never sees).
        let x = u64::from_le_bytes(*word) ^ (LOW * b'\n' as u64);
        let zeros = x.wrapping_sub(LOW) & !x & HIGH;
        if zeros != 0 {
            return Some(i * 8 + zeros.trailing_zeros() as usize / 8);
        }
    }
    let at = tail.iter().position(|&b| b == b'\n')?;
    Some(words.len() * 8 + at)
}

impl LineBuffer {
    /// Creates an empty buffer.
    pub fn new() -> LineBuffer {
        LineBuffer::default()
    }

    /// Creates a buffer over an existing allocation, keeping its content —
    /// how a worker adopts both the leftover bytes a delegating master
    /// buffered and their allocation, and how a pooled buffer (cleared by
    /// the pool) is recycled into a fresh connection's line buffer.
    pub fn from_remaining(buf: Vec<u8>) -> LineBuffer {
        LineBuffer { buf, head: 0 }
    }

    /// Appends raw bytes read from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        // The only place consumed bytes are dropped, and so the only
        // memmove: of the partial line the last read ended in.
        self.buf.drain(..self.head);
        self.head = 0;
        // Grown exactly, so the capacity is a high-water mark of what was
        // needed and not a power of two above it.
        self.buf.reserve_exact(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Pops one complete line (without terminator), or signals overflow.
    /// The line is valid until the next call on this buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LineOverflow`] when more than [`MAX_LINE`] bytes have
    /// accumulated without a newline.
    pub fn pop_line(&mut self) -> Result<Option<&[u8]>, LineOverflow> {
        let start = self.head;
        let Some(at) = find_newline(&self.buf[start..]) else {
            return if self.buf.len() - start > MAX_LINE {
                Err(LineOverflow)
            } else {
                Ok(None)
            };
        };
        self.head = start + at + 1;
        let mut end = start + at;
        while end > start && self.buf[end - 1] == b'\r' {
            end -= 1;
        }
        Ok(Some(&self.buf[start..end]))
    }

    /// Consumes the buffer, yielding any unconsumed partial line (handed
    /// to a worker along with the delegated connection) and the
    /// allocation.
    pub fn into_remaining(mut self) -> Vec<u8> {
        self.buf.drain(..self.head);
        self.buf
    }
}

/// A command line exceeded [`MAX_LINE`] bytes without a terminator —
/// the connection must be answered with a 500 and dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineOverflow;

impl std::fmt::Display for LineOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line exceeds {MAX_LINE} bytes without a terminator")
    }
}

impl std::error::Error for LineOverflow {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_buffer_splits_crlf_and_lf() {
        let mut lb = LineBuffer::new();
        lb.push(b"HELO a\r\nMAIL");
        assert_eq!(lb.pop_line().unwrap().unwrap(), b"HELO a");
        assert_eq!(lb.pop_line().unwrap(), None);
        lb.push(b" FROM:<a@b.c>\n");
        assert_eq!(lb.pop_line().unwrap().unwrap(), b"MAIL FROM:<a@b.c>");
    }

    #[test]
    fn line_buffer_overflow_detected() {
        let mut lb = LineBuffer::new();
        lb.push(&vec![b'x'; MAX_LINE + 1]);
        assert!(lb.pop_line().is_err());
    }

    #[test]
    fn line_buffer_keeps_partial_remainder() {
        let mut lb = LineBuffer::new();
        lb.push(b"DATA\r\npartial body");
        assert_eq!(lb.pop_line().unwrap().unwrap(), b"DATA");
        assert_eq!(lb.into_remaining(), b"partial body");
    }

    #[test]
    fn terminator_split_across_pushes() {
        let mut lb = LineBuffer::new();
        lb.push(b"HELO a\r");
        assert_eq!(lb.pop_line().unwrap(), None);
        lb.push(b"\nNOOP");
        assert_eq!(lb.pop_line().unwrap().unwrap(), b"HELO a");
        assert_eq!(lb.pop_line().unwrap(), None);
        // A push that starts with the terminator of what came before.
        lb.push(b"\n\nQUIT\n");
        assert_eq!(lb.pop_line().unwrap().unwrap(), b"NOOP");
        assert_eq!(lb.pop_line().unwrap().unwrap(), b"");
        assert_eq!(lb.pop_line().unwrap().unwrap(), b"QUIT");
        assert_eq!(lb.pop_line().unwrap(), None);
    }

    #[test]
    fn newline_found_at_every_offset_of_a_word() {
        // 0x0b differs from `\n` in its lowest bit only: the byte the
        // word-at-a-time scan could mistake for one.
        for len in 0..40 {
            for at in 0..len {
                let mut hay = vec![0x0b; len];
                hay[at] = b'\n';
                assert_eq!(find_newline(&hay), Some(at), "len {len}");
                assert_eq!(find_newline(&hay[..at]), None);
            }
        }
    }

    #[test]
    fn overflow_counts_unconsumed_bytes_only() {
        let mut lb = LineBuffer::new();
        let mut bytes = vec![b'x'; MAX_LINE];
        bytes.push(b'\n');
        bytes.extend_from_slice(&[b'y'; MAX_LINE]);
        lb.push(&bytes);
        assert_eq!(lb.pop_line().unwrap().unwrap().len(), MAX_LINE);
        assert_eq!(lb.pop_line().unwrap(), None, "MAX_LINE pending is legal");
        lb.push(b"y");
        assert!(lb.pop_line().is_err());
    }

    #[test]
    fn all_trailing_carriage_returns_stripped() {
        let mut lb = LineBuffer::new();
        lb.push(b"NOOP\r\r\r\n");
        assert_eq!(lb.pop_line().unwrap().unwrap(), b"NOOP");
    }
}
