//! The load generator: a closed-loop keep-alive client for corpus jobs
//! and an open-loop client on non-blocking sockets for small jobs. Each
//! runs on one thread; together they never exceed two client threads.

use std::fs::File;
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::client::{job_request, Decoder, DoneLine, Event, LineKind, StreamAudit};
use crate::workloads::{Class, Plan};

/// The clock of one serving phase: jobs due before `start` are warm-up,
/// the metrics cover `[start, end)`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub origin: Instant,
    pub start: Instant,
    pub end: Instant,
}

impl Window {
    pub fn contains(&self, t: Instant) -> bool {
        t >= self.start && t < self.end
    }
}

/// How long a job may take before the client gives up on it.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Everything the client saw of one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Position in its client's job stream (the spool's job key).
    pub seq: u32,
    pub class: Class,
    /// When the job was due: its scheduled send time (open loop) or the
    /// moment the client started it (closed loop).
    pub due: Instant,
    /// How late the open-loop generator sent it (zero in a closed loop).
    pub late: Duration,
    /// Connect time, for jobs that opened a connection.
    pub connect: Option<Duration>,
    /// Request fully written.
    pub written: Option<Instant>,
    pub status: Option<u16>,
    pub head_at: Option<Instant>,
    pub first_path_at: Option<Instant>,
    pub end_at: Option<Instant>,
    pub done: Option<DoneLine>,
    pub steps: u64,
    pub paths: u64,
    pub body_bytes: u64,
    /// Client time spent decoding, auditing and spooling the stream.
    pub parse: Duration,
    pub error: Option<String>,
}

impl JobRecord {
    fn new(seq: u32, class: Class, due: Instant) -> Self {
        Self {
            seq,
            class,
            due,
            late: Duration::ZERO,
            connect: None,
            written: None,
            status: None,
            head_at: None,
            first_path_at: None,
            end_at: None,
            done: None,
            steps: 0,
            paths: 0,
            body_bytes: 0,
            parse: Duration::ZERO,
            error: None,
        }
    }

    /// Shed by admission control (429) or a draining server (503).
    pub fn shed(&self) -> bool {
        matches!(self.status, Some(429 | 503))
    }

    /// Streamed to a completed `done` and passed the stream audit.
    pub fn ok(&self) -> bool {
        self.error.is_none() && self.done.is_some()
    }

    /// Due-to-`done` latency.
    pub fn latency(&self) -> Option<Duration> {
        Some(self.end_at? - self.due)
    }

    pub fn ttfp(&self) -> Option<Duration> {
        Some(self.first_path_at? - self.due)
    }

    /// Request written until the status line arrived.
    pub fn admit(&self) -> Option<Duration> {
        Some(self.head_at? - self.written?)
    }
}

/// Paths with a query id divisible by this are validated hop by hop.
/// Every path of every job gets the stream audit; validating all of
/// them against a graph larger than the LLC would take longer than the
/// run itself.
pub const VALIDATE_EVERY: usize = 8;

/// Paths of fixed-length jobs, spooled to disk for validation after
/// the window (validating inline would steal cores from the server).
pub struct Spool {
    out: BufWriter<File>,
}

impl Spool {
    pub fn create(path: &std::path::Path) -> Result<Self, String> {
        let f = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self {
            out: BufWriter::with_capacity(1 << 20, f),
        })
    }

    fn path(&mut self, seq: u32, path: &[u32]) -> std::io::Result<()> {
        self.out.write_all(&seq.to_le_bytes())?;
        self.out.write_all(&(path.len() as u32).to_le_bytes())?;
        for v in path {
            self.out.write_all(&v.to_le_bytes())?;
        }
        Ok(())
    }

    pub fn finish(mut self) -> Result<(), String> {
        self.out.flush().map_err(|e| e.to_string())
    }
}

/// Read back every spooled `(job seq, path)`.
pub fn read_spool(path: &std::path::Path, mut each: impl FnMut(u32, &[u32])) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let words: Vec<u32> = bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    let mut at = 0;
    while at + 2 <= words.len() {
        let (seq, n) = (words[at], words[at + 1] as usize);
        let path = words
            .get(at + 2..at + 2 + n)
            .ok_or("spool truncated inside a path")?;
        each(seq, path);
        at += 2 + n;
    }
    if at != words.len() {
        return Err("spool truncated inside a record".into());
    }
    Ok(())
}

/// One job's response in flight: decoder, audit and record.
struct InFlight {
    decoder: Decoder,
    audit: StreamAudit,
    record: JobRecord,
}

impl InFlight {
    fn new(seq: usize, plan: &Plan, due: Instant) -> Self {
        Self {
            decoder: Decoder::default(),
            audit: StreamAudit::new(plan.queries),
            record: JobRecord::new(seq as u32, plan.class, due),
        }
    }

    /// Feed bytes that arrived at `now`. Returns whether the response is
    /// complete; a wire or audit error ends the job as failed.
    fn feed(&mut self, bytes: &[u8], now: Instant, spool: &mut Option<Spool>) -> bool {
        let t = Instant::now();
        let rec = &mut self.record;
        let audit = &mut self.audit;
        let result = self.decoder.feed(bytes, &mut |ev| {
            match ev {
                Event::Head { status } => {
                    rec.status = Some(status);
                    rec.head_at = Some(now);
                    if status != 200 && !matches!(status, 429 | 503) {
                        return Err(format!("status {status}"));
                    }
                }
                Event::Line(line) => match audit.line(line)? {
                    LineKind::Path => {
                        rec.first_path_at.get_or_insert(now);
                        let query = audit.paths() - 1;
                        if let Some(s) = spool
                            .as_mut()
                            .filter(|_| query.is_multiple_of(VALIDATE_EVERY))
                        {
                            s.path(rec.seq, &audit.path)
                                .map_err(|e| format!("spool: {e}"))?;
                        }
                    }
                    LineKind::Admitted | LineKind::Done => {}
                },
                Event::End => rec.end_at = Some(now),
            }
            Ok(())
        });
        self.record.parse += t.elapsed();
        self.record.body_bytes = self.decoder.body_bytes;
        if let Err(e) = result {
            self.fail(e);
            return true;
        }
        if self.decoder.done() {
            self.complete();
            return true;
        }
        false
    }

    fn complete(&mut self) {
        let rec = &mut self.record;
        rec.steps = self.audit.steps;
        rec.paths = self.audit.paths() as u64;
        if rec.shed() {
            rec.error = Some(format!("shed with status {}", rec.status.unwrap_or(0)));
            return;
        }
        match self.audit.finish() {
            Ok(done) => rec.done = Some(done.clone()),
            Err(e) => rec.error = Some(e),
        }
    }

    fn fail(&mut self, why: String) {
        if self.record.error.is_none() {
            self.record.error = Some(why);
        }
    }
}

/// Closed loop: one keep-alive connection, the next job sent as soon as
/// the previous one's stream ends, until the window closes.
pub fn closed_loop(
    addr: SocketAddr,
    plans: &[Plan],
    window: &Window,
    mut spool: Option<Spool>,
) -> (Vec<JobRecord>, Option<Spool>) {
    let mut records = Vec::new();
    let mut conn: Option<TcpStream> = None;
    let mut buf = vec![0u8; 1 << 16];
    for (seq, plan) in plans.iter().cycle().enumerate() {
        let due = Instant::now();
        if due >= window.end {
            break;
        }
        let mut job = InFlight::new(seq, plan, due);
        if conn.is_none() {
            match TcpStream::connect(addr) {
                Ok(s) => {
                    job.record.connect = Some(due.elapsed());
                    let _ = s.set_nodelay(true);
                    let _ = s.set_read_timeout(Some(JOB_TIMEOUT));
                    conn = Some(s);
                }
                Err(e) => {
                    job.fail(format!("connect: {e}"));
                    records.push(job.record);
                    // Back off rather than record a failure per spin.
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            }
        }
        let stream = conn.as_mut().expect("connected above");
        let sent = stream.write_all(&job_request(&plan.body, true));
        job.record.written = Some(Instant::now());
        let mut keep = sent.is_ok();
        if let Err(e) = sent {
            job.fail(format!("send: {e}"));
        }
        while keep {
            match stream.read(&mut buf) {
                Ok(0) => {
                    if let Err(e) = job.decoder.eof() {
                        job.fail(e);
                    }
                    keep = false;
                }
                Ok(n) => {
                    if job.feed(&buf[..n], Instant::now(), &mut spool) {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    job.fail(format!("read: {e}"));
                    keep = false;
                }
            }
        }
        if !keep || job.record.error.is_some() {
            // The framing can no longer be trusted: start over.
            conn = None;
        }
        records.push(job.record);
    }
    (records, spool)
}

/// One open-loop connection.
struct Conn {
    stream: TcpStream,
    job: InFlight,
    pending: Vec<u8>,
}

/// Open loop: every plan is sent at its due time on its own
/// non-blocking connection, whether or not earlier jobs finished; the
/// thread multiplexes all connections with `ppoll`.
pub fn open_loop(
    addr: SocketAddr,
    plans: &[Plan],
    window: &Window,
    mut spool: Option<Spool>,
) -> (Vec<JobRecord>, Option<Spool>) {
    let mut records = Vec::with_capacity(plans.len());
    let mut conns: Vec<Conn> = Vec::new();
    let mut next = 0;
    let mut buf = vec![0u8; 1 << 16];
    let give_up = window.end + JOB_TIMEOUT;
    loop {
        let now = Instant::now();
        while next < plans.len() && window.origin + plans[next].due <= now {
            let plan = &plans[next];
            let due = window.origin + plan.due;
            let mut job = InFlight::new(next, plan, due);
            job.record.late = Instant::now() - due;
            next += 1;
            let t = Instant::now();
            match TcpStream::connect(addr).and_then(|s| s.set_nonblocking(true).map(|_| s)) {
                Ok(stream) => {
                    job.record.connect = Some(t.elapsed());
                    let _ = stream.set_nodelay(true);
                    let mut c = Conn {
                        stream,
                        job,
                        pending: job_request(&plan.body, false),
                    };
                    if write_pending(&mut c) {
                        conns.push(c);
                    } else {
                        records.push(c.job.record);
                    }
                }
                Err(e) => {
                    job.fail(format!("connect: {e}"));
                    records.push(job.record);
                }
            }
        }
        if next == plans.len() && conns.is_empty() {
            break;
        }
        let now = Instant::now();
        if now >= give_up {
            for mut c in conns.drain(..) {
                c.job.fail("timed out".into());
                records.push(c.job.record);
            }
            break;
        }
        let wake = plans
            .get(next)
            .map_or(give_up, |p| window.origin + p.due)
            .min(now + Duration::from_millis(100));
        let ready = poll(&conns, wake.saturating_duration_since(now));
        // Back to front, so `swap_remove` only moves connections that
        // were already serviced this round.
        for i in (0..conns.len()).rev() {
            if ready[i] && service(&mut conns[i], &mut buf, &mut spool) {
                records.push(conns.swap_remove(i).job.record);
            }
        }
    }
    (records, spool)
}

/// Write what is left of the request. False when the job already ended
/// (write error).
fn write_pending(c: &mut Conn) -> bool {
    while !c.pending.is_empty() {
        match c.stream.write(&c.pending) {
            Ok(n) => {
                c.pending.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                c.job.fail(format!("send: {e}"));
                return false;
            }
        }
    }
    c.job.record.written.get_or_insert_with(Instant::now);
    true
}

/// Make progress on a ready connection; true once its job has ended.
fn service(c: &mut Conn, buf: &mut [u8], spool: &mut Option<Spool>) -> bool {
    if !c.pending.is_empty() {
        return !write_pending(c);
    }
    loop {
        match c.stream.read(buf) {
            Ok(0) => {
                if let Err(e) = c.job.decoder.eof() {
                    c.job.fail(e);
                }
                return true;
            }
            Ok(n) => {
                if c.job.feed(&buf[..n], Instant::now(), spool) {
                    return true;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                c.job.fail(format!("read: {e}"));
                return true;
            }
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Wait up to `timeout` for any connection to become readable (or
/// writable, while its request is still pending); one flag per
/// connection. Nanosecond timeouts keep open-loop sends on schedule.
fn poll(conns: &[Conn], timeout: Duration) -> Vec<bool> {
    use std::os::fd::AsRawFd;
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: if c.pending.is_empty() {
                POLLIN
            } else {
                POLLOUT
            },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of
    // `fds.len()` `struct pollfd`s (same layout: int, short, short);
    // `ts` is a valid `struct timespec` on 64-bit Linux; a null sigmask
    // means "leave the signal mask alone". The kernel writes only the
    // `revents` fields, within the array.
    let n = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if n <= 0 {
        // Timeout, or EINTR: nothing ready, the caller loops.
        return vec![false; conns.len()];
    }
    fds.iter().map(|f| f.revents != 0).collect()
}

/// `GET /stats` over a fresh connection: the JSON document.
pub fn get_stats(addr: SocketAddr) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    s.write_all(b"GET /stats HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let resp = lightrw::http::read_response(&mut std::io::BufReader::new(s))?;
    if resp.status != 200 {
        return Err(format!("stats answered {}", resp.status));
    }
    String::from_utf8(resp.body).map_err(|_| "stats body is not UTF-8".into())
}
