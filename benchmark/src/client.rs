//! The harness's own JSON-lines client: `TCP_NODELAY`, and exactly one
//! write per request.
//!
//! A request sent as two writes (line, then newline) stalls on Nagle's
//! algorithm meeting the peer's delayed ACK — tens of milliseconds that
//! belong to neither the client nor the server (see README, findings).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A closed-loop connection: one request out, one response line back.
#[derive(Debug)]
pub struct Client<S> {
    stream: S,
    /// The outgoing request, newline included, so it leaves in one write.
    out: Vec<u8>,
    /// Bytes received but not yet returned as a line.
    pending: Vec<u8>,
}

impl Client<TcpStream> {
    /// Connects with `TCP_NODELAY` set and a read timeout, so a server
    /// that stops answering fails the run instead of hanging it.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: &str) -> io::Result<Client<TcpStream>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client::over(stream))
    }
}

impl<S: Read + Write> Client<S> {
    pub fn over(stream: S) -> Client<S> {
        Client {
            stream,
            out: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Sends `line` and its newline in a single `write_all`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.stream.write_all(&self.out)
    }

    /// Receives one response line (without its newline).
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a connection closed mid-line is
    /// `UnexpectedEof`.
    pub fn recv(&mut self) -> io::Result<String> {
        loop {
            if let Some(at) = self.pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.pending.drain(..=at).collect();
                return String::from_utf8(line[..at].to_vec())
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => self.pending.extend_from_slice(&chunk[..n]),
            }
        }
    }

    /// One request, one response.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts `write` calls and answers every read from a canned script.
    struct Counting {
        writes: usize,
        written: Vec<u8>,
        script: io::Cursor<Vec<u8>>,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Read for Counting {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            // Three bytes at a time: responses arrive split across reads.
            let n = buf.len().min(3);
            self.script.read(&mut buf[..n])
        }
    }

    fn scripted(responses: &str) -> Client<Counting> {
        Client::over(Counting {
            writes: 0,
            written: Vec::new(),
            script: io::Cursor::new(responses.as_bytes().to_vec()),
        })
    }

    #[test]
    fn a_request_is_exactly_one_write() {
        let mut client = scripted("{\"a\":1}\n{\"b\":2}\n");
        assert_eq!(
            client.roundtrip("{\"cmd\":\"ping\"}").expect("answer"),
            "{\"a\":1}"
        );
        assert_eq!(client.stream.writes, 1, "line and newline leave together");
        assert_eq!(client.stream.written, b"{\"cmd\":\"ping\"}\n");
        assert_eq!(client.roundtrip("{}").expect("answer"), "{\"b\":2}");
        assert_eq!(client.stream.writes, 2);
    }

    #[test]
    fn a_connection_closed_mid_line_is_an_error() {
        let mut client = scripted("{\"torn\":");
        let err = client.roundtrip("{}").expect_err("torn line");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
