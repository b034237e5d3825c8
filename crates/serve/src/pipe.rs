//! In-process byte-stream transport: a pair of connected duplex
//! endpoints with TCP-like semantics, no OS networking required.
//!
//! The campaign service speaks its protocol over any byte stream. For
//! tests, benches and the `selftest` mode of the binary, an in-process
//! pipe keeps the whole round trip hermetic: no ports, no firewalls, no
//! sandbox holes — the transport is two `Mutex<VecDeque<u8>>` ring
//! buffers with `Condvar` wakeups. Each [`PipeEnd`] reads from one
//! buffer and writes to the other; dropping a writer closes its
//! direction, which the peer observes as EOF exactly like a TCP
//! half-close.

use crate::server::{ConnBreaker, Duplex};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex};

#[derive(Debug, Default)]
struct Channel {
    buf: Mutex<ChannelBuf>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct ChannelBuf {
    data: VecDeque<u8>,
    closed: bool,
}

impl Channel {
    fn write(&self, data: &[u8]) -> io::Result<usize> {
        let mut buf = self.buf.lock().unwrap();
        if buf.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
        }
        buf.data.extend(data);
        drop(buf);
        self.ready.notify_all();
        Ok(data.len())
    }

    fn read(&self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut buf = self.buf.lock().unwrap();
        loop {
            if !buf.data.is_empty() {
                let n = out.len().min(buf.data.len());
                for slot in out.iter_mut().take(n) {
                    *slot = buf.data.pop_front().expect("length checked");
                }
                return Ok(n);
            }
            if buf.closed {
                return Ok(0); // EOF
            }
            buf = self.ready.wait(buf).unwrap();
        }
    }

    fn close(&self) {
        self.buf.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

/// The read half of a [`PipeEnd`]; EOF once the peer's writer is dropped
/// and the buffered bytes are drained.
#[derive(Debug)]
pub struct PipeReader(Arc<Channel>);

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        self.0.read(out)
    }
}

/// The write half of a [`PipeEnd`]; dropping it closes the direction
/// (the peer reads EOF after draining).
#[derive(Debug)]
pub struct PipeWriter(Arc<Channel>);

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.0.write(data)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Severs a pipe connection's directions from outside the threads that
/// own the reader/writer halves — the drain supervisor's cutoff lever.
/// Breaking the inbound direction makes a blocked [`PipeReader`] observe
/// EOF (after any already-buffered bytes drain); breaking both also
/// turns further peer writes into `BrokenPipe`.
#[derive(Debug)]
pub struct PipeBreaker {
    inbound: Arc<Channel>,
    outbound: Arc<Channel>,
}

impl ConnBreaker for PipeBreaker {
    fn break_read(&self) {
        self.inbound.close();
    }

    fn break_both(&self) {
        self.inbound.close();
        self.outbound.close();
    }
}

/// One endpoint of an in-process duplex connection (see [`pipe`]).
#[derive(Debug)]
pub struct PipeEnd {
    reader: PipeReader,
    writer: PipeWriter,
}

impl PipeEnd {
    /// Split into independently owned read and write halves.
    pub fn split(self) -> (PipeReader, PipeWriter) {
        (self.reader, self.writer)
    }
}

impl Duplex for PipeEnd {
    type Reader = PipeReader;
    type Writer = PipeWriter;
    type Breaker = PipeBreaker;
    fn split(self) -> io::Result<(PipeReader, PipeWriter, PipeBreaker)> {
        let breaker = PipeBreaker {
            inbound: Arc::clone(&self.reader.0),
            outbound: Arc::clone(&self.writer.0),
        };
        Ok((self.reader, self.writer, breaker))
    }
}

impl Read for PipeEnd {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        self.reader.read(out)
    }
}

impl Write for PipeEnd {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.writer.write(data)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Create a connected pair of duplex endpoints: everything written to one
/// is read from the other, in order, with drop-as-half-close semantics.
pub fn pipe() -> (PipeEnd, PipeEnd) {
    let a_to_b = Arc::new(Channel::default());
    let b_to_a = Arc::new(Channel::default());
    let a = PipeEnd {
        reader: PipeReader(Arc::clone(&b_to_a)),
        writer: PipeWriter(a_to_b.clone()),
    };
    let b = PipeEnd {
        reader: PipeReader(a_to_b),
        writer: PipeWriter(b_to_a),
    };
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_cross_in_both_directions() {
        let (mut a, mut b) = pipe();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn dropping_writer_yields_eof_after_drain() {
        let (a, b) = pipe();
        let (_a_read, mut a_write) = a.split();
        let (mut b_read, _b_write) = b.split();
        a_write.write_all(b"tail").unwrap();
        drop(a_write);
        let mut out = Vec::new();
        b_read.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"tail");
    }

    #[test]
    fn write_after_peer_close_is_broken_pipe() {
        let (a, b) = pipe();
        let (_b_read, b_write) = b.split();
        drop(b_write);
        // a's *reader* sees EOF; writing a→b is still open.
        let (mut a_read, mut a_write) = a.split();
        let mut buf = [0u8; 1];
        assert_eq!(a_read.read(&mut buf).unwrap(), 0);
        assert!(a_write.write(b"x").is_ok());
    }

    #[test]
    fn breaker_unblocks_a_parked_reader() {
        let (a, b) = pipe();
        let (mut b_read, _b_write, breaker) = Duplex::split(b).unwrap();
        let t = std::thread::spawn(move || {
            let mut out = Vec::new();
            b_read.read_to_end(&mut out).map(|_| out)
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        breaker.break_read();
        assert_eq!(t.join().unwrap().unwrap(), b"", "EOF, not a hang");
        // break_both: the peer's writes now fail too.
        breaker.break_both();
        let (_a_read, mut a_write) = a.split();
        assert!(a_write.write(b"x").is_err());
    }

    #[test]
    fn blocked_reader_wakes_on_write() {
        let (a, b) = pipe();
        let (mut b_read, _b_write) = b.split();
        let (_a_read, mut a_write) = a.split();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 3];
            b_read.read_exact(&mut buf).unwrap();
            buf
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        a_write.write_all(b"abc").unwrap();
        assert_eq!(&t.join().unwrap(), b"abc");
    }
}
