//! Minimal XDR-style (RFC 1014-flavoured) encoding for the NFS-like
//! front-end: big-endian 4-byte alignment, length-prefixed opaques.

/// Encoder writing XDR-aligned primitives.
#[derive(Debug, Default)]
pub struct XdrEncoder {
    buf: Vec<u8>,
}

impl XdrEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        XdrEncoder { buf: Vec::new() }
    }

    /// Writes one message of exactly `len` wire bytes over `out`,
    /// reusing its allocation: `write` puts the fields into `out`
    /// emptied, or, if its capacity is under `len`, into a new buffer
    /// of exactly `len` that replaces it (the old bytes are dropped,
    /// not copied). A buffer that has held a message this long before
    /// allocates nothing, and a fresh one allocates once.
    pub(crate) fn write_into(out: &mut Vec<u8>, len: usize, write: impl FnOnce(&mut XdrEncoder)) {
        let buf = if out.capacity() < len {
            Vec::with_capacity(len)
        } else {
            out.clear();
            std::mem::take(out)
        };
        let mut e = XdrEncoder { buf };
        write(&mut e);
        debug_assert_eq!(e.buf.len(), len, "message longer or shorter than its shape");
        *out = e.buf;
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u64` (XDR hyper).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a variable-length opaque with 4-byte padding.
    ///
    /// Panics if `data` exceeds the XDR length-prefix range (≥ 4 GiB):
    /// the old `as u32` cast silently truncated the prefix and produced
    /// a wire body that decoded as garbage. Use
    /// [`XdrEncoder::try_put_opaque`] to surface the error instead.
    pub fn put_opaque(&mut self, data: &[u8]) {
        self.try_put_opaque(data).expect("opaque exceeds XDR u32 length prefix");
    }

    /// Appends a variable-length opaque, rejecting lengths the u32 XDR
    /// prefix cannot represent.
    pub fn try_put_opaque(&mut self, data: &[u8]) -> Result<(), String> {
        let n = opaque_len(data.len())?;
        self.put_u32(n);
        self.buf.extend_from_slice(data);
        let pad = (4 - data.len() % 4) % 4;
        self.buf.extend(std::iter::repeat_n(0u8, pad));
        Ok(())
    }

    /// Appends a string as opaque bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_opaque(s.as_bytes());
    }

    /// Finishes, returning the wire bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Decoder over XDR wire bytes.
#[derive(Debug)]
pub struct XdrDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> XdrDecoder<'a> {
    /// Wraps wire bytes.
    pub fn new(buf: &'a [u8]) -> Self {
        XdrDecoder { buf, pos: 0 }
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a length-prefixed opaque (skipping padding), borrowed from
    /// the wire bytes.
    pub fn get_opaque(&mut self) -> Result<&'a [u8], String> {
        let n = self.get_u32()? as usize;
        let data = self.take(n)?;
        let pad = (4 - n % 4) % 4;
        self.take(pad)?;
        Ok(data)
    }

    /// Reads a UTF-8 string, borrowed from the wire bytes.
    pub fn get_str(&mut self) -> Result<&'a str, String> {
        std::str::from_utf8(self.get_opaque()?).map_err(|e| e.to_string())
    }

    /// True if all bytes were consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        // Checked: a hostile length prefix near usize::MAX must read as
        // an underrun, not wrap `pos + n` past the bound check (a real
        // overflow on 32-bit targets, where a u32 prefix spans usize).
        let end = self.pos.checked_add(n).ok_or_else(|| format!("xdr overflow at {}", self.pos))?;
        if end > self.buf.len() {
            return Err(format!("xdr underrun at {} (+{n})", self.pos));
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }
}

/// Wire size of an opaque (or string) of `len` bytes: the length
/// prefix plus the data padded to a multiple of 4.
pub(crate) const fn opaque_wire_len(len: usize) -> usize {
    4 + len.next_multiple_of(4)
}

/// Validates an opaque length against the u32 XDR prefix.
fn opaque_len(n: usize) -> Result<u32, String> {
    u32::try_from(n).map_err(|_| format!("opaque of {n} bytes exceeds XDR u32 length prefix"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut e = XdrEncoder::new();
        e.put_u32(7);
        e.put_u64(1 << 40);
        e.put_str("hello");
        e.put_opaque(&[1, 2, 3]);
        let wire = e.finish();
        assert_eq!(wire.len() % 4, 0, "xdr output stays aligned");
        let mut d = XdrDecoder::new(&wire);
        assert_eq!(d.get_u32().unwrap(), 7);
        assert_eq!(d.get_u64().unwrap(), 1 << 40);
        assert_eq!(d.get_str().unwrap(), "hello");
        assert_eq!(d.get_opaque().unwrap(), vec![1, 2, 3]);
        assert!(d.is_done());
    }

    #[test]
    fn underrun_detected() {
        let mut d = XdrDecoder::new(&[0, 0]);
        assert!(d.get_u32().is_err());
    }

    #[test]
    fn opaque_padding() {
        let mut e = XdrEncoder::new();
        e.put_opaque(b"abcde");
        let wire = e.finish();
        // 4 (len) + 5 (data) + 3 (pad).
        assert_eq!(wire.len(), 12);
        let mut reused = Vec::new();
        for n in (0..9).rev() {
            let mut wire = Vec::new();
            XdrEncoder::write_into(&mut wire, opaque_wire_len(n), |e| e.put_opaque(&vec![7u8; n]));
            assert_eq!(wire.len(), opaque_wire_len(n));
            assert_eq!(wire.capacity(), wire.len(), "sized exactly: never regrown");
            XdrEncoder::write_into(&mut reused, opaque_wire_len(n), |e| {
                e.put_opaque(&vec![7u8; n])
            });
            assert_eq!(reused, wire, "a reused buffer keeps no stale tail");
        }
    }

    #[test]
    fn opaque_length_guard_rejects_over_u32() {
        // Can't allocate 4 GiB in a test; the guard is the unit.
        assert!(opaque_len(u32::MAX as usize).is_ok());
        if usize::BITS > 32 {
            assert!(opaque_len(u32::MAX as usize + 1).is_err());
            assert!(opaque_len(usize::MAX).is_err());
        }
    }

    #[test]
    fn hostile_opaque_prefix_is_underrun_not_overflow() {
        // Length prefix 0xffff_ffff over a 4-byte buffer: `pos + n`
        // must not wrap on any target width.
        let mut e = XdrEncoder::new();
        e.put_u32(u32::MAX);
        let wire = e.finish();
        let mut d = XdrDecoder::new(&wire);
        assert!(d.get_opaque().is_err());
    }

    #[test]
    fn take_checked_add_never_wraps() {
        let mut d = XdrDecoder::new(&[0u8; 8]);
        let _ = d.get_u32().unwrap();
        // pos = 4; a request for usize::MAX - 2 bytes would wrap
        // `pos + n` under unchecked arithmetic.
        assert!(d.take(usize::MAX - 2).is_err());
        // The failed take must not move the cursor.
        assert_eq!(d.get_u32().unwrap(), 0);
        assert!(d.is_done());
    }
}
