//! A std-only HTTP/1.1 client, just enough for `sixgen serve`: one
//! request per connection, `Content-Length` and chunked bodies, and
//! timestamps at the first and last body byte.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Incremental decoder for a `Transfer-Encoding: chunked` body. Feed it
/// bytes as they arrive, in any split; it hands out payload bytes and
/// reports when the terminal chunk and its trailer have been read.
#[derive(Debug, Default)]
pub struct ChunkedDecoder {
    state: ChunkState,
    /// Partial size line or trailer line carried across feeds.
    line: Vec<u8>,
    remaining: usize,
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum ChunkState {
    #[default]
    Size,
    Data,
    DataEnd,
    Trailer,
    Done,
}

impl ChunkedDecoder {
    /// Consumes `input`, passing payload bytes to `out`. Returns `true`
    /// once the body is complete; bytes past the end are ignored.
    pub fn feed(&mut self, mut input: &[u8], out: &mut impl FnMut(&[u8])) -> Result<bool, String> {
        while !input.is_empty() && self.state != ChunkState::Done {
            match self.state {
                ChunkState::Size | ChunkState::DataEnd | ChunkState::Trailer => {
                    let Some(end) = input.iter().position(|&b| b == b'\n') else {
                        self.line.extend_from_slice(input);
                        if self.line.len() > 1024 {
                            return Err("chunk framing line too long".into());
                        }
                        return Ok(false);
                    };
                    self.line.extend_from_slice(&input[..end]);
                    input = &input[end + 1..];
                    let line = std::mem::take(&mut self.line);
                    let line = line.strip_suffix(b"\r").unwrap_or(&line);
                    match self.state {
                        ChunkState::Size => {
                            let text = std::str::from_utf8(line).map_err(|_| "bad chunk size")?;
                            let hex = text.split(';').next().unwrap_or("").trim();
                            let size = usize::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad chunk size {text:?}"))?;
                            if size == 0 {
                                self.state = ChunkState::Trailer;
                            } else {
                                self.remaining = size;
                                self.state = ChunkState::Data;
                            }
                        }
                        ChunkState::DataEnd => {
                            if !line.is_empty() {
                                return Err("chunk not followed by CRLF".into());
                            }
                            self.state = ChunkState::Size;
                        }
                        _ => {
                            // Trailer fields end at the first empty line.
                            if line.is_empty() {
                                self.state = ChunkState::Done;
                            }
                        }
                    }
                }
                ChunkState::Data => {
                    let take = self.remaining.min(input.len());
                    out(&input[..take]);
                    self.remaining -= take;
                    input = &input[take..];
                    if self.remaining == 0 {
                        self.state = ChunkState::DataEnd;
                    }
                }
                ChunkState::Done => {}
            }
        }
        Ok(self.state == ChunkState::Done)
    }
}

/// What a request returned, with timings taken from the moment the
/// request was sent.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    /// When the request started to go out.
    pub sent: Instant,
    /// False when the sink stopped the read before the body ended.
    pub complete: bool,
    /// Body bytes (only kept when the caller asked for them).
    pub body: Vec<u8>,
    /// Payload bytes received.
    pub body_len: usize,
    /// First response byte (status line).
    pub first_response: Duration,
    /// First payload byte; `None` for an empty body.
    pub first_body: Option<Duration>,
    /// Last byte of the response.
    pub done: Duration,
}

/// Receives payload bytes as they arrive; returns `false` to stop reading.
pub type Sink<'a> = &'a mut dyn FnMut(&[u8]) -> bool;

/// Sends one request on a fresh connection and reads the whole
/// response. With `sink`, payload bytes go there instead of `body`; the
/// sink returns `false` to stop reading early.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
    mut sink: Option<Sink>,
) -> Result<Reply, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let sent = Instant::now();
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    stream
        .write_all(body)
        .map_err(|e| format!("send body: {e}"))?;

    let mut buf = vec![0u8; 64 * 1024];
    let mut header = Vec::new();
    let mut first_response = None;
    // Read until the blank line that ends the header block.
    let body_start = loop {
        let n = stream.read(&mut buf).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed before response headers".into());
        }
        first_response.get_or_insert_with(|| sent.elapsed());
        header.extend_from_slice(&buf[..n]);
        if let Some(end) = header.windows(4).position(|w| w == b"\r\n\r\n") {
            break end + 4;
        }
        if header.len() > 64 * 1024 {
            return Err("response headers too long".into());
        }
    };
    let rest = header.split_off(body_start);
    let head = String::from_utf8_lossy(&header).to_ascii_lowercase();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let chunked = head.contains("transfer-encoding: chunked");
    let length: Option<usize> = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length:"))
        .and_then(|v| v.trim().parse().ok());

    let mut reply = Reply {
        status,
        sent,
        complete: true,
        body: Vec::new(),
        body_len: 0,
        first_response: first_response.expect("read at least one byte"),
        first_body: None,
        done: Duration::ZERO,
    };
    let mut take = |bytes: &[u8], reply: &mut Reply| {
        if bytes.is_empty() {
            return;
        }
        reply.first_body.get_or_insert_with(|| sent.elapsed());
        reply.body_len += bytes.len();
        match sink.as_mut() {
            Some(sink) => {
                if !sink(bytes) {
                    reply.complete = false;
                }
            }
            None => reply.body.extend_from_slice(bytes),
        }
    };
    let mut decoder = ChunkedDecoder::default();
    let mut pending = rest;
    loop {
        let complete = if chunked {
            let mut out = |bytes: &[u8]| take(bytes, &mut reply);
            decoder.feed(&pending, &mut out)?
        } else {
            take(&pending, &mut reply);
            length.is_some_and(|l| reply.body_len >= l)
        };
        if complete || !reply.complete {
            break;
        }
        let n = stream
            .read(&mut buf)
            .map_err(|e| format!("read body: {e}"))?;
        if n == 0 {
            if chunked {
                return Err("chunked stream ended without its terminal chunk".into());
            }
            if length.is_some() {
                return Err("body shorter than Content-Length".into());
            }
            break;
        }
        pending = buf[..n].to_vec();
    }
    reply.done = sent.elapsed();
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_split(wire: &[u8], split: usize) -> (Vec<u8>, bool) {
        let mut decoder = ChunkedDecoder::default();
        let mut out = Vec::new();
        let mut sink = |b: &[u8]| out.extend_from_slice(b);
        let first = decoder.feed(&wire[..split], &mut sink).unwrap();
        let done = first || decoder.feed(&wire[split..], &mut sink).unwrap();
        (out, done)
    }

    #[test]
    fn decodes_chunked_body_at_every_split() {
        let wire =
            b"6\r\nhello \r\n6;ext=1\r\nworld\n\r\n0\r\nX-Trailer: 1\r\n\r\ntrailing garbage";
        for split in 0..=wire.len() {
            let (out, done) = decode_split(wire, split);
            assert!(done, "split {split}: body must complete");
            assert_eq!(out, b"hello world\n", "split {split}");
        }
    }

    #[test]
    fn byte_at_a_time_and_large_chunks() {
        let payload: Vec<u8> = (0..70_000u32).map(|i| (i % 251) as u8).collect();
        let mut wire = format!("{:x}\r\n", payload.len()).into_bytes();
        wire.extend_from_slice(&payload);
        wire.extend_from_slice(b"\r\n0\r\n\r\n");
        let mut decoder = ChunkedDecoder::default();
        let mut out = Vec::new();
        let mut done = false;
        for byte in &wire {
            assert!(!done, "completed before the terminal chunk");
            done = decoder
                .feed(std::slice::from_ref(byte), &mut |b| {
                    out.extend_from_slice(b)
                })
                .unwrap();
        }
        assert!(done);
        assert_eq!(out, payload);
    }

    #[test]
    fn truncated_stream_is_not_complete_and_bad_framing_errors() {
        let (out, done) = decode_split(b"5\r\nabcde\r\n", 4);
        assert_eq!(out, b"abcde");
        assert!(!done, "no terminal chunk: incomplete");
        let mut decoder = ChunkedDecoder::default();
        assert!(decoder.feed(b"zz\r\n", &mut |_| {}).is_err());
        let mut decoder = ChunkedDecoder::default();
        assert!(decoder.feed(b"2\r\nabXY\r\n", &mut |_| {}).is_err());
    }
}
