//! The load generator: a lean keep-alive HTTP/1.1 client, the closed-loop
//! and open-loop phases, and the `/metrics` scrape.
//!
//! All client threads live in this one process, at most one per
//! connection and at most `nproc` connections. The server runs one
//! connection per connection worker at a time, so every request of a
//! phase — including the `/metrics` scrape — goes over connections the
//! phase already holds; a spare connection would wait for a worker.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One keep-alive connection with a reusable read buffer.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

/// One parsed response.
#[derive(Default)]
pub struct Reply {
    pub status: u16,
    /// `X-Artifact-Epoch`, when the response carries it.
    pub epoch: Option<u64>,
    pub body: Vec<u8>,
}

fn open(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))?;
    Ok(s)
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        Ok(Conn {
            addr,
            stream: open(addr)?,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Replace a broken connection.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        self.stream = open(self.addr)?;
        self.buf.clear();
        Ok(())
    }

    /// Send one request (head and body in one write) and read its reply.
    pub fn call(&mut self, request: &[u8], reply: &mut Reply) -> std::io::Result<()> {
        self.stream.write_all(request)?;
        self.read_reply(reply)
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_reply(&mut self, reply: &mut Reply) -> std::io::Result<()> {
        let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
        let head_end = loop {
            if let Some(at) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break at;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad())?;
        let mut lines = head.split("\r\n");
        reply.status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(bad)?;
        reply.epoch = None;
        let mut len = 0usize;
        for line in lines {
            let (name, value) = line.split_once(':').ok_or_else(bad)?;
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                len = value.parse().map_err(|_| bad())?;
            } else if name.eq_ignore_ascii_case("x-artifact-epoch") {
                reply.epoch = value.parse().ok();
            }
        }
        let body_at = head_end + 4;
        while self.buf.len() < body_at + len {
            self.fill()?;
        }
        reply.body.clear();
        reply
            .body
            .extend_from_slice(&self.buf[body_at..body_at + len]);
        self.buf.drain(..body_at + len);
        Ok(())
    }
}

/// `POST path` with a JSON body, as one buffer.
pub fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// A seeded request stream: request `seq` is a pure function of the seed
/// and `seq`.
pub trait Stream: Sync {
    /// Write request `seq` into `out` (cleared by the caller); returns a
    /// tag the verifier needs (the group index, the user, …).
    fn request(&self, seq: u64, out: &mut Vec<u8>) -> u32;
    /// Check a 200 reply as it arrives; an error fails the run.
    fn check(&self, _seq: u64, _tag: u32, _reply: &Reply) -> Result<(), String> {
        Ok(())
    }
    /// Keep this request's 200 body for a check after the phase (at most
    /// [`MAX_KEPT`] per client thread and phase, so the kept bodies do not
    /// grow with throughput).
    fn keep(&self, _seq: u64) -> bool {
        false
    }
}

/// Most bodies one client thread keeps per phase.
pub const MAX_KEPT: usize = 256;

/// Request outcomes of one phase. A refused request (429/503) and a failed
/// one (another status, or a connection error) both miss any latency
/// limit.
#[derive(Clone, Copy, Debug, Default, serde::Serialize)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub refused: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.refused += o.refused;
        self.failed += o.failed;
    }

    pub fn error_rate(&self) -> f64 {
        (self.refused + self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// CPU readings at one window boundary.
#[derive(Clone)]
pub struct Mark {
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// Machine-wide `/proc/stat` counters (for the steal share).
    pub ticks: Vec<u64>,
}

impl Mark {
    fn now() -> Mark {
        Mark {
            cpu_s: crate::util::cpu_s(),
            ticks: crate::util::cpu_ticks(),
        }
    }
}

/// A kept 200 body.
pub struct Sample {
    pub seq: u64,
    pub tag: u32,
    pub epoch: Option<u64>,
    pub body: Vec<u8>,
}

/// Everything one phase measured.
#[derive(Default)]
pub struct PhaseOut {
    pub tally: Tally,
    pub elapsed_s: f64,
    /// Per-request latency in ns: send → reply for the closed loop, due
    /// time → reply for the open loop.
    pub latency_ns: Vec<u64>,
    /// Open loop only: how late each request was sent after its due time.
    pub late_ns: Vec<u64>,
    /// Open loop only: each request's due time, µs after the phase start
    /// (aligned with `latency_ns`), for per-window quantiles.
    pub due_us: Vec<u64>,
    /// Closed loop only: completion offsets (µs since the phase start) of
    /// the 200-answered requests, for per-window rates.
    pub done_us: Vec<u64>,
    pub samples: Vec<Sample>,
    /// The first failed inline check, and how many failed.
    pub mismatch: Option<String>,
    pub mismatches: u64,
    /// Readings at every window boundary of the phase (`marks[k]` at `k`
    /// windows in).
    pub marks: Vec<Mark>,
}

impl PhaseOut {
    fn merge(&mut self, o: PhaseOut) {
        self.tally.add(&o.tally);
        self.latency_ns.extend(o.latency_ns);
        self.late_ns.extend(o.late_ns);
        self.due_us.extend(o.due_us);
        self.done_us.extend(o.done_us);
        self.samples.extend(o.samples);
        self.mismatches += o.mismatches;
        if self.mismatch.is_none() {
            self.mismatch = o.mismatch;
        }
    }

    /// Open loop: quantile `q` of the latencies (µs) of the requests due in
    /// each `window` of the phase; the partial last window is dropped.
    pub fn window_quantiles(&self, window: Duration, q: f64) -> Vec<f64> {
        let w = window.as_micros().max(1) as u64;
        let full = (self.elapsed_s * 1e6) as u64 / w;
        let mut bins: Vec<Vec<u64>> = vec![Vec::new(); full as usize];
        for (&due, &lat) in self.due_us.iter().zip(&self.latency_ns) {
            if let Some(b) = bins.get_mut((due / w) as usize) {
                b.push(lat);
            }
        }
        bins.iter()
            .filter(|b| !b.is_empty())
            .map(|b| crate::util::quantile_us(b, q))
            .collect()
    }

    /// Closed loop: 200-answered requests completed in each of the first
    /// `n` windows.
    fn done_per_window(&self, window: Duration, n: usize) -> Vec<u64> {
        let w = window.as_micros().max(1) as u64;
        let mut counts = vec![0u64; n];
        for &t in &self.done_us {
            if let Some(c) = counts.get_mut((t / w) as usize) {
                *c += 1;
            }
        }
        counts
    }

    /// Closed loop: 200-answered requests per process CPU-second in each
    /// window between two marks.
    pub fn window_ops_per_cpu(&self, window: Duration) -> Vec<f64> {
        self.done_per_window(window, self.marks.len().saturating_sub(1))
            .iter()
            .zip(self.marks.windows(2))
            .map(|(&c, m)| c as f64 / (m[1].cpu_s - m[0].cpu_s))
            .collect()
    }

    /// Machine-wide steal share in each window between two marks.
    pub fn window_steal(&self) -> Vec<f64> {
        self.marks
            .windows(2)
            .map(|m| crate::util::steal_share(&m[0].ticks, &m[1].ticks))
            .collect()
    }

    /// 200-answered requests per second in each `window` of the phase;
    /// the partial last window is dropped.
    pub fn window_rates(&self, window: Duration) -> Vec<f64> {
        let full = (self.elapsed_s / window.as_secs_f64()) as usize;
        self.done_per_window(window, full)
            .into_iter()
            .map(|c| c as f64 / window.as_secs_f64())
            .collect()
    }
}

/// Issue one request and classify it into `out`.
fn one(
    conn: &mut Conn,
    stream: &dyn Stream,
    seq: u64,
    wire: &mut Vec<u8>,
    reply: &mut Reply,
    out: &mut PhaseOut,
) -> bool {
    wire.clear();
    let tag = stream.request(seq, wire);
    out.tally.attempted += 1;
    match conn.call(wire, reply) {
        Ok(()) => match reply.status {
            200 => {
                out.tally.ok += 1;
                if let Err(e) = stream.check(seq, tag, reply) {
                    out.mismatches += 1;
                    out.mismatch.get_or_insert(format!("request {seq}: {e}"));
                }
                if out.samples.len() < MAX_KEPT && stream.keep(seq) {
                    out.samples.push(Sample {
                        seq,
                        tag,
                        epoch: reply.epoch,
                        body: std::mem::take(&mut reply.body),
                    });
                }
                true
            }
            429 | 503 => {
                out.tally.refused += 1;
                false
            }
            _ => {
                out.tally.failed += 1;
                false
            }
        },
        Err(_) => {
            out.tally.failed += 1;
            let _ = conn.reconnect();
            false
        }
    }
}

/// Send requests `seqs` one after another on `conn`, timing each from
/// send to reply into `out`.
pub fn sequential(
    conn: &mut Conn,
    stream: &dyn Stream,
    seqs: std::ops::Range<u64>,
    out: &mut PhaseOut,
) {
    let (mut wire, mut reply) = (Vec::new(), Reply::default());
    for seq in seqs {
        let t0 = Instant::now();
        one(conn, stream, seq, &mut wire, &mut reply, out);
        out.latency_ns.push(t0.elapsed().as_nanos() as u64);
    }
}

/// Closed loop: every connection sends its next request as soon as the
/// previous reply is in, for `dur`. Sequence numbers come from `next`. A
/// sampler thread marks process CPU time at every `window` boundary.
pub fn closed_loop(
    conns: &mut [Conn],
    stream: &dyn Stream,
    next: &AtomicU64,
    dur: Duration,
    window: Duration,
) -> PhaseOut {
    let start = Instant::now();
    let end = start + dur;
    let (parts, marks) = std::thread::scope(|s| {
        let sampler = s.spawn(move || marks(start, end, window));
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                s.spawn(move || {
                    let mut out = PhaseOut::default();
                    let (mut wire, mut reply) = (Vec::new(), Reply::default());
                    while Instant::now() < end {
                        let seq = next.fetch_add(1, Ordering::Relaxed);
                        let t0 = Instant::now();
                        let ok = one(conn, stream, seq, &mut wire, &mut reply, &mut out);
                        let t1 = Instant::now();
                        out.latency_ns.push((t1 - t0).as_nanos() as u64);
                        if ok {
                            out.done_us.push((t1 - start).as_micros() as u64);
                        }
                    }
                    out
                })
            })
            .collect();
        let parts: Vec<PhaseOut> = handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect();
        (parts, sampler.join().expect("sampler panicked"))
    });
    let mut out = PhaseOut {
        elapsed_s: start.elapsed().as_secs_f64(),
        marks,
        ..PhaseOut::default()
    };
    for p in parts {
        out.merge(p);
    }
    out.elapsed_s = out.elapsed_s.min(dur.as_secs_f64());
    out
}

/// CPU and steal readings at `start + k·window` for every whole window
/// that ends by `end`.
fn marks(start: Instant, end: Instant, window: Duration) -> Vec<Mark> {
    let mut out = vec![Mark::now()];
    let mut k = 1u32;
    while start + window * k <= end {
        let at = start + window * k;
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        out.push(Mark::now());
        k += 1;
    }
    out
}

/// Open loop at `rate` requests/s for `dur`: request `i` is due at
/// `start + i/rate` and goes out on connection `i mod C`. Latency runs from
/// the due time, so a stall also charges the requests queued behind it;
/// `late_ns` records how far behind schedule the generator itself ran.
pub fn open_loop(
    conns: &mut [Conn],
    stream: &dyn Stream,
    seq_base: u64,
    rate: f64,
    dur: Duration,
    window: Duration,
) -> PhaseOut {
    let c = conns.len() as u64;
    let total = (rate * dur.as_secs_f64()) as u64;
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: u64| start + Duration::from_secs_f64(i as f64 / rate);
    let (parts, marks) = std::thread::scope(|s| {
        let sampler = s.spawn(move || {
            let now = Instant::now();
            if start > now {
                std::thread::sleep(start - now);
            }
            marks(start, start + dur, window)
        });
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(ci, conn)| {
                s.spawn(move || {
                    let mut out = PhaseOut::default();
                    let (mut wire, mut reply) = (Vec::new(), Reply::default());
                    precise_sleep();
                    let mut i = ci as u64;
                    while i < total {
                        let at = due(i);
                        let now = Instant::now();
                        if at > now {
                            std::thread::sleep(at - now);
                        }
                        let sent = Instant::now();
                        let ok = one(conn, stream, seq_base + i, &mut wire, &mut reply, &mut out);
                        let done = Instant::now();
                        out.late_ns.push((sent - at).as_nanos() as u64);
                        out.due_us.push((at - start).as_micros() as u64);
                        // A refused or failed request misses every limit.
                        out.latency_ns.push(if ok {
                            (done - at).as_nanos() as u64
                        } else {
                            u64::MAX
                        });
                        i += c;
                    }
                    out
                })
            })
            .collect();
        let parts: Vec<PhaseOut> = handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client panicked"))
            .collect();
        (parts, sampler.join().expect("sampler panicked"))
    });
    let mut out = PhaseOut {
        elapsed_s: start.elapsed().as_secs_f64(),
        marks,
        ..PhaseOut::default()
    };
    for p in parts {
        out.merge(p);
    }
    out
}

/// Shrink this thread's timer slack from the default 50 µs to 1 µs, so
/// the open-loop generator wakes on schedule without spinning (a spinning
/// client would take CPU from the server on a small machine).
fn precise_sleep() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes a nanosecond count and touches only
    // the calling thread's scheduling state; no pointers are passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

/// `GET /metrics` over an open connection.
pub fn scrape(conn: &mut Conn) -> std::io::Result<String> {
    let mut reply = Reply::default();
    conn.call(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n", &mut reply)?;
    if reply.status != 200 {
        return Err(std::io::Error::other(format!(
            "/metrics answered {}",
            reply.status
        )));
    }
    String::from_utf8(reply.body).map_err(std::io::Error::other)
}

/// Cumulative `(le, count)` buckets of histogram `name` in a Prometheus
/// text exposition (`+Inf` as infinity).
pub fn buckets(text: &str, name: &str) -> Vec<(f64, u64)> {
    let prefix = format!("{name}_bucket{{");
    text.lines()
        .filter(|l| l.starts_with(&prefix))
        .filter_map(|l| {
            let le = l.split("le=\"").nth(1)?.split('"').next()?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            let count = l
                .split("} ")
                .nth(1)?
                .split_whitespace()
                .next()?
                .parse()
                .ok()?;
            Some((le, count))
        })
        .collect()
}

/// Quantile `q` (as a bucket upper bound) of the observations recorded
/// between two scrapes of the same histogram. NaN when nothing was
/// recorded.
pub fn delta_quantile(before: &[(f64, u64)], after: &[(f64, u64)], q: f64) -> f64 {
    let cum_before = |le: f64| {
        before
            .iter()
            .filter(|(b, _)| *b <= le)
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(0)
    };
    let delta: Vec<(f64, u64)> = after
        .iter()
        .map(|&(le, c)| (le, c.saturating_sub(cum_before(le))))
        .collect();
    let total = delta.iter().map(|&(_, c)| c).max().unwrap_or(0);
    if total == 0 {
        return f64::NAN;
    }
    let want = (q * total as f64).ceil() as u64;
    delta
        .iter()
        .filter(|(le, _)| le.is_finite())
        .find(|&&(_, c)| c >= want)
        .map_or(f64::NAN, |&(le, _)| le)
}
