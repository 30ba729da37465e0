//! The client half of the wire: request bytes, an incremental decoder
//! for one chunked NDJSON response, and the per-job stream audit.
//!
//! The decoder is push-style so the blocking closed-loop client and the
//! non-blocking open-loop client share it byte for byte.

use lightrw::walker::VertexId;

/// Render a `POST /jobs` request for `body`.
pub fn job_request(body: &str, keep_alive: bool) -> Vec<u8> {
    format!(
        "POST /jobs HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )
    .into_bytes()
}

/// What the decoder found in the bytes fed so far.
#[derive(Debug, PartialEq)]
pub enum Event<'a> {
    /// The status line and header block are complete.
    Head { status: u16 },
    /// One complete NDJSON line of a chunked body (newline stripped).
    Line(&'a [u8]),
    /// The response is complete (terminal chunk, or the whole
    /// `Content-Length` body).
    End,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    StatusLine,
    Headers,
    ChunkSize,
    ChunkData(usize),
    ChunkEnd,
    Trailer,
    Fixed(usize),
    Done,
}

/// Longest status, header or chunk-size line accepted.
const MAX_LINE: usize = 8192;

/// Incremental decoder for one HTTP/1.1 response whose body is either
/// chunked NDJSON or a `Content-Length` document.
#[derive(Debug)]
pub struct Decoder {
    state: State,
    line: Vec<u8>,
    ndjson: Vec<u8>,
    status: u16,
    chunked: bool,
    length: usize,
    /// Body bytes received (chunk payloads, excluding framing).
    pub body_bytes: u64,
}

impl Default for Decoder {
    fn default() -> Self {
        Self {
            state: State::StatusLine,
            line: Vec::new(),
            ndjson: Vec::new(),
            status: 0,
            chunked: false,
            length: 0,
            body_bytes: 0,
        }
    }
}

impl Decoder {
    /// True once the whole response has been decoded.
    pub fn done(&self) -> bool {
        self.state == State::Done
    }

    /// The connection closed: an error unless the response was complete.
    pub fn eof(&self) -> Result<(), String> {
        if self.done() {
            Ok(())
        } else {
            Err(format!("stream truncated ({:?})", self.state))
        }
    }

    /// Feed received bytes, calling `on` for every event they complete.
    /// Bytes after the end of the response are an error: the client
    /// never pipelines, so the server must not send any.
    pub fn feed(
        &mut self,
        mut bytes: &[u8],
        on: &mut dyn FnMut(Event<'_>) -> Result<(), String>,
    ) -> Result<(), String> {
        while !bytes.is_empty() {
            match self.state {
                State::Done => return Err("bytes after the end of the response".into()),
                State::StatusLine | State::Headers | State::ChunkSize | State::Trailer => {
                    let Some(line) = self.take_line(&mut bytes)? else {
                        return Ok(());
                    };
                    self.on_line(&line, on)?;
                }
                State::ChunkData(left) => {
                    let n = left.min(bytes.len());
                    self.body_bytes += n as u64;
                    let mut data = &bytes[..n];
                    while let Some(i) = data.iter().position(|&b| b == b'\n') {
                        if self.ndjson.is_empty() {
                            on(Event::Line(&data[..i]))?;
                        } else {
                            self.ndjson.extend_from_slice(&data[..i]);
                            on(Event::Line(&self.ndjson))?;
                            self.ndjson.clear();
                        }
                        data = &data[i + 1..];
                    }
                    self.ndjson.extend_from_slice(data);
                    bytes = &bytes[n..];
                    self.state = if n == left {
                        State::ChunkEnd
                    } else {
                        State::ChunkData(left - n)
                    };
                }
                State::ChunkEnd => {
                    let Some(line) = self.take_line(&mut bytes)? else {
                        return Ok(());
                    };
                    if !line.is_empty() {
                        return Err("chunk not followed by CRLF".into());
                    }
                    self.state = State::ChunkSize;
                }
                State::Fixed(left) => {
                    let n = left.min(bytes.len());
                    self.body_bytes += n as u64;
                    bytes = &bytes[n..];
                    if n == left {
                        self.state = State::Done;
                        on(Event::End)?;
                    } else {
                        self.state = State::Fixed(left - n);
                    }
                }
            }
        }
        Ok(())
    }

    /// Split one CRLF-terminated line off `bytes` into an owned buffer,
    /// or keep the partial line for the next feed.
    fn take_line(&mut self, bytes: &mut &[u8]) -> Result<Option<Vec<u8>>, String> {
        match bytes.iter().position(|&b| b == b'\n') {
            Some(i) => {
                self.line.extend_from_slice(&bytes[..i]);
                *bytes = &bytes[i + 1..];
                if self.line.last() != Some(&b'\r') {
                    return Err("line not terminated by CRLF".into());
                }
                self.line.pop();
                Ok(Some(std::mem::take(&mut self.line)))
            }
            None => {
                self.line.extend_from_slice(bytes);
                *bytes = &[];
                if self.line.len() > MAX_LINE {
                    return Err("header or chunk-size line too long".into());
                }
                Ok(None)
            }
        }
    }

    fn on_line(
        &mut self,
        line: &[u8],
        on: &mut dyn FnMut(Event<'_>) -> Result<(), String>,
    ) -> Result<(), String> {
        let text = std::str::from_utf8(line).map_err(|_| "non-UTF-8 framing line")?;
        match self.state {
            State::StatusLine => {
                let mut parts = text.splitn(3, ' ');
                if !parts.next().unwrap_or("").starts_with("HTTP/1.") {
                    return Err(format!("bad status line {text:?}"));
                }
                self.status = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad status line {text:?}"))?;
                self.state = State::Headers;
            }
            State::Headers if text.is_empty() => {
                on(Event::Head {
                    status: self.status,
                })?;
                self.state = if self.chunked {
                    State::ChunkSize
                } else if self.length == 0 {
                    on(Event::End)?;
                    State::Done
                } else {
                    State::Fixed(self.length)
                };
            }
            State::Headers => {
                let (name, value) = text
                    .split_once(':')
                    .ok_or_else(|| format!("header without a colon: {text:?}"))?;
                let (name, value) = (name.trim(), value.trim());
                if name.eq_ignore_ascii_case("transfer-encoding") {
                    self.chunked = value.eq_ignore_ascii_case("chunked");
                } else if name.eq_ignore_ascii_case("content-length") {
                    self.length = value
                        .parse()
                        .map_err(|_| format!("bad Content-Length {value:?}"))?;
                }
            }
            State::ChunkSize => {
                let size = usize::from_str_radix(text.trim(), 16)
                    .map_err(|_| format!("bad chunk size {text:?}"))?;
                self.state = if size == 0 {
                    State::Trailer
                } else {
                    State::ChunkData(size)
                };
            }
            State::Trailer => {
                if !text.is_empty() {
                    return Err("unexpected trailer".into());
                }
                if !self.ndjson.is_empty() {
                    return Err("body ended inside an NDJSON line".into());
                }
                self.state = State::Done;
                on(Event::End)?;
            }
            _ => unreachable!("on_line is only called in line states"),
        }
        Ok(())
    }
}

/// The server's terminal `done` line.
#[derive(Debug, Clone, PartialEq)]
pub struct DoneLine {
    pub status: String,
    pub paths: usize,
    pub steps: u64,
    pub latency_ms: f64,
    pub queue_wait_ms: f64,
    pub exec_ms: f64,
}

/// Audit of one job's NDJSON event stream: `admitted` first, then every
/// query's `path` exactly once in ascending id order, then `done` with
/// a matching path count.
#[derive(Debug)]
pub struct StreamAudit {
    queries: usize,
    admitted: bool,
    next: usize,
    /// Walk steps across the streamed paths.
    pub steps: u64,
    /// The terminal summary, once seen.
    pub done: Option<DoneLine>,
    /// Reusable buffer holding the last path parsed.
    pub path: Vec<VertexId>,
}

/// What one NDJSON line was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineKind {
    Admitted,
    /// A path, now in [`StreamAudit::path`].
    Path,
    Done,
}

impl StreamAudit {
    /// Expect `queries` paths.
    pub fn new(queries: usize) -> Self {
        Self {
            queries,
            admitted: false,
            next: 0,
            steps: 0,
            done: None,
            path: Vec::new(),
        }
    }

    /// Paths streamed so far.
    pub fn paths(&self) -> usize {
        self.next
    }

    /// Check one NDJSON line against the stream contract.
    pub fn line(&mut self, line: &[u8]) -> Result<LineKind, String> {
        let text = std::str::from_utf8(line).map_err(|_| "non-UTF-8 NDJSON line")?;
        if self.done.is_some() {
            return Err("event after done".into());
        }
        let event = str_field(text, "event").ok_or("line without an event")?;
        match event {
            "admitted" if !self.admitted && self.next == 0 => {
                self.admitted = true;
                Ok(LineKind::Admitted)
            }
            "path" if self.admitted => {
                let query = num_field(text, "query").ok_or("path without a query id")? as usize;
                if query != self.next {
                    return Err(format!(
                        "path for query {query} where query {} was due",
                        self.next
                    ));
                }
                if query >= self.queries {
                    return Err(format!(
                        "query {query} beyond the {} requested",
                        self.queries
                    ));
                }
                parse_path(text, &mut self.path)?;
                self.next += 1;
                self.steps += self.path.len().saturating_sub(1) as u64;
                Ok(LineKind::Path)
            }
            "done" if self.admitted => {
                let done = DoneLine {
                    status: str_field(text, "status")
                        .ok_or("done without status")?
                        .into(),
                    paths: num_field(text, "paths").ok_or("done without paths")? as usize,
                    steps: num_field(text, "steps").ok_or("done without steps")? as u64,
                    latency_ms: num_field(text, "latency_ms").ok_or("done without latency")?,
                    queue_wait_ms: num_field(text, "queue_wait_ms").unwrap_or(0.0),
                    exec_ms: num_field(text, "exec_ms").unwrap_or(0.0),
                };
                if done.status != "completed" {
                    return Err(format!("job ended {}", done.status));
                }
                if done.paths != self.next || self.next != self.queries {
                    return Err(format!(
                        "done reports {} paths, {} streamed, {} requested",
                        done.paths, self.next, self.queries
                    ));
                }
                if done.steps != self.steps {
                    return Err(format!(
                        "done reports {} steps, {} streamed",
                        done.steps, self.steps
                    ));
                }
                self.done = Some(done);
                Ok(LineKind::Done)
            }
            other => Err(format!("unexpected {other:?} event")),
        }
    }

    /// The response ended: the stream must have reached `done`.
    pub fn finish(&self) -> Result<&DoneLine, String> {
        self.done
            .as_ref()
            .ok_or_else(|| format!("stream ended after {} paths without done", self.next))
    }
}

/// The raw text after `"key": ` in a flat JSON object line.
fn field<'t>(text: &'t str, key: &str) -> Option<&'t str> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    Some(text[at..].trim_start())
}

fn str_field<'t>(text: &'t str, key: &str) -> Option<&'t str> {
    let rest = field(text, key)?.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// The number after `"key":` in a flat JSON object.
pub fn num_field(text: &str, key: &str) -> Option<f64> {
    let rest = field(text, key)?;
    let end = rest
        .find(|c: char| c == ',' || c == '}' || c.is_whitespace())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn parse_path(text: &str, out: &mut Vec<VertexId>) -> Result<(), String> {
    out.clear();
    let rest = field(text, "path")
        .and_then(|r| r.strip_prefix('['))
        .ok_or("path line without a path array")?;
    let body = &rest[..rest.find(']').ok_or("unterminated path array")?];
    for v in body.split(',') {
        out.push(v.trim().parse().map_err(|_| format!("bad vertex {v:?}"))?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A well-formed streamed response for `paths`, chunked one line
    /// per chunk like the server writes it.
    fn response(paths: &[(u32, &[u32])], done_paths: usize) -> Vec<u8> {
        let mut lines = vec!["{\"event\": \"admitted\", \"job\": 7}\n".to_string()];
        let mut steps = 0;
        for (q, p) in paths {
            let vs: Vec<String> = p.iter().map(|v| v.to_string()).collect();
            lines.push(format!(
                "{{\"event\": \"path\", \"query\": {q}, \"path\": [{}]}}\n",
                vs.join(",")
            ));
            steps += p.len() - 1;
        }
        lines.push(format!(
            "{{\"event\": \"done\", \"status\": \"completed\", \"paths\": {done_paths}, \
             \"steps\": {steps}, \"latency_ms\": 1.500, \"queue_wait_ms\": 0.250, \
             \"exec_ms\": 1.250}}\n"
        ));
        let mut out = b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                        Transfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n"
            .to_vec();
        for l in lines {
            out.extend(format!("{:x}\r\n{l}\r\n", l.len()).bytes());
        }
        out.extend(b"0\r\n\r\n");
        out
    }

    /// Decode and audit `bytes` fed in `step`-byte pieces; the error of
    /// the first failing layer, or the done line.
    fn run(bytes: &[u8], queries: usize, step: usize) -> Result<DoneLine, String> {
        let mut dec = Decoder::default();
        let mut audit = StreamAudit::new(queries);
        for piece in bytes.chunks(step) {
            dec.feed(piece, &mut |ev| match ev {
                Event::Head { status: 200 } => Ok(()),
                Event::Head { status } => Err(format!("status {status}")),
                Event::Line(l) => audit.line(l).map(|_| ()),
                Event::End => Ok(()),
            })?;
        }
        dec.eof()?;
        audit.finish().cloned()
    }

    const PATHS: [(u32, &[u32]); 3] = [(0, &[1, 2, 3]), (1, &[4, 5]), (2, &[6])];

    #[test]
    fn accepts_a_complete_stream_in_any_split() {
        let bytes = response(&PATHS, 3);
        for step in [1, 2, 7, 64, bytes.len()] {
            let done = run(&bytes, 3, step).unwrap();
            assert_eq!((done.paths, done.steps), (3, 3));
            assert_eq!(done.exec_ms, 1.25);
        }
    }

    #[test]
    fn rejects_truncated_streams() {
        let bytes = response(&PATHS, 3);
        // Every proper prefix fails: mid-header, mid-chunk, before the
        // terminal chunk.
        for cut in [10, 90, bytes.len() / 2, bytes.len() - 5, bytes.len() - 1] {
            assert!(
                run(&bytes[..cut], 3, 5).is_err(),
                "prefix of {cut} bytes passed"
            );
        }
    }

    #[test]
    fn rejects_out_of_order_missing_and_duplicate_paths() {
        let swapped = [(0, &[1, 2][..]), (2, &[6]), (1, &[4, 5])];
        assert!(run(&response(&swapped, 3), 3, 64)
            .unwrap_err()
            .contains("query 2"));
        let duplicate = [(0, &[1, 2][..]), (0, &[1, 2]), (1, &[4, 5])];
        assert!(run(&response(&duplicate, 3), 3, 64).is_err());
        // A path missing from the stream, with done claiming it anyway.
        assert!(run(&response(&PATHS[..2], 3), 3, 64).is_err());
        // Fewer paths than the job asked for.
        assert!(run(&response(&PATHS, 3), 4, 64).is_err());
    }

    #[test]
    fn rejects_bytes_after_the_response() {
        let mut bytes = response(&PATHS, 3);
        bytes.extend(b"HTTP/1.1");
        assert!(run(&bytes, 3, 64).unwrap_err().contains("after the end"));
    }

    #[test]
    fn decodes_content_length_bodies() {
        let bytes = b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 4\r\n\r\nshed";
        let mut dec = Decoder::default();
        let mut seen = Vec::new();
        dec.feed(bytes, &mut |ev| {
            seen.push(format!("{ev:?}"));
            Ok(())
        })
        .unwrap();
        assert!(dec.done());
        assert_eq!(seen, ["Head { status: 429 }", "End"]);
    }
}
