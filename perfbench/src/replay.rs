//! The traced run's in-process replay: the benchmark calls each layer's
//! public function in the order the program does and records its own span
//! around every call. The program itself is not instrumented.

use crate::client::{self, Conn, PhaseOut, Stream};
use crate::util::{incorrect, quantile_us, secs, self_us, Fail, Sheet, Tracer};
use od_serve::{Engine, ScoredResponse, Submit};
use odnet_core::GroupInput;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Sequence base of the in-process replay.
pub const REPLAY_SEQ: u64 = 1 << 50;

/// One replayed request: each call into a layer's public function wrapped
/// in a span of `tr`, in the order the server makes them.
pub trait Replay {
    fn one(&mut self, tr: &mut Tracer, seq: u64) -> Result<(), Fail>;
}

/// The traced run's interleaved part.
pub struct Interleaved {
    /// The one-connection HTTP chunks: the wire latency with one request
    /// in flight, which the sequential replay matches. Empty without a
    /// server.
    pub single: PhaseOut,
    pub traced: Tracer,
    /// Replay rate with tracing off and on.
    pub off_per_s: f64,
    pub on_per_s: f64,
    pub replayed: u64,
}

/// For `seconds`, rounds of: `chunk` requests over one HTTP connection
/// (when `wire` names a server and its request stream), `chunk` replayed
/// untraced, `chunk` replayed traced. Interleaving puts the wire and the
/// in-process figures, traced and untraced, under the same machine
/// conditions, so their differences mean something.
pub fn interleave(
    wire: Option<(SocketAddr, &dyn Stream)>,
    seconds: f64,
    chunk: u64,
    replay: &mut dyn Replay,
) -> Result<Interleaved, Fail> {
    let mut conn = match wire {
        Some((addr, _)) => Some(Conn::connect(addr).map_err(|e| format!("connect: {e}"))?),
        None => None,
    };
    let mut single = PhaseOut::default();
    let (mut traced, mut untraced) = (Tracer::new(true), Tracer::new(false));
    let (mut t_on, mut t_off, mut n) = (0.0, 0.0, 0u64);
    let (mut http_seq, mut seq) = (crate::serving::CLOSED_SEQ, REPLAY_SEQ);
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < end {
        if let (Some(conn), Some((_, stream))) = (conn.as_mut(), wire) {
            client::sequential(conn, stream, http_seq..http_seq + chunk, &mut single);
            http_seq += chunk;
        }
        for on in [false, true] {
            let t = Instant::now();
            for _ in 0..chunk {
                replay.one(if on { &mut traced } else { &mut untraced }, seq)?;
                seq += 1;
            }
            *(if on { &mut t_on } else { &mut t_off }) += secs(t);
        }
        n += chunk;
    }
    if conn.take().is_some() {
        // Let the server's connection worker see the close.
        std::thread::sleep(Duration::from_millis(100));
    }
    crate::serving::checked(&single)?;
    Ok(Interleaved {
        single,
        traced,
        off_per_s: n as f64 / t_off,
        on_per_s: n as f64 / t_on,
        replayed: 2 * n,
    })
}

/// The per-layer figures every serving replay gives: the wire codec and
/// engine self times, the HTTP residual, and the tracing overhead.
/// `in_process` names the spans of the request's in-process work (funnel
/// or engine), which the residual subtracts with the codec.
pub fn put_replay(sheet: &mut Sheet, il: &Interleaved, in_process: &[&str]) {
    let selfs = il.traced.self_times();
    for (metric, span) in [
        ("http.parse_us", "http.parse"),
        ("http.decode_us", "http.decode"),
        ("http.encode_us", "http.encode"),
        ("engine.submit_wait_us", "engine.submit_wait"),
    ] {
        sheet.put(metric, self_us(&selfs, span), "us");
    }
    let codec: f64 = ["http.parse", "http.decode", "http.encode"]
        .iter()
        .map(|s| self_us(&selfs, s))
        .sum();
    let wire_p50 = quantile_us(&il.single.latency_ns, 0.5);
    let work = quantile_us(&per_request_sum(&il.traced, in_process), 0.5);
    sheet.put("http.e2e_p50_us", wire_p50, "us");
    sheet.put("http.residual_us", wire_p50 - work - codec, "us");
    sheet.put("obs.trace_overhead", il.off_per_s / il.on_per_s, "ratio");
    sheet.put("replay.requests", il.replayed as f64, "count");
}

/// Per request root, the summed durations of its children named in
/// `names`, in ns.
fn per_request_sum(tr: &Tracer, names: &[&str]) -> Vec<u64> {
    let spans = tr.spans();
    let mut sums = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if names.contains(&s.name) {
                sums[p] += s.end_ns - s.start_ns;
            }
        }
    }
    spans
        .iter()
        .zip(sums)
        .filter(|(s, _)| s.parent.is_none())
        .map(|(_, n)| n)
        .collect()
}

/// `od_http::parse_request` over one request's bytes, in an `http.parse`
/// span under `root`.
pub fn parse(
    tr: &mut Tracer,
    seq: u64,
    root: usize,
    wire: &[u8],
) -> Result<od_http::ParsedRequest, Fail> {
    let limits = od_http::Limits {
        max_header_bytes: 8 * 1024,
        max_body_bytes: 1024 * 1024,
    };
    let abort = std::sync::atomic::AtomicBool::new(false);
    let t = Duration::from_secs(5);
    tr.span("http.parse", seq, Some(root), || {
        let mut reader = od_http::ConnReader::new(std::io::Cursor::new(wire));
        od_http::parse_request(&mut reader, &limits, t, t, &abort)
    })
    .map_err(|e| incorrect(format!("replay request {seq}: parse: {e:?}")))
}

/// `Engine::submit` → `Ticket::wait_versioned`, in an
/// `engine.submit_wait` span under `root`.
pub fn submit_wait(
    tr: &mut Tracer,
    seq: u64,
    root: usize,
    engine: &Engine,
    group: GroupInput,
) -> Result<ScoredResponse, Fail> {
    tr.span("engine.submit_wait", seq, Some(root), || {
        match engine.submit(group) {
            Submit::Accepted(t) => t.wait_versioned().map_err(|e| format!("{e:?}")),
            Submit::Rejected(_) => Err("rejected".to_string()),
            Submit::Invalid { error, .. } => Err(format!("invalid: {error:?}")),
        }
    })
    .map_err(|e| Fail::Error(format!("replay request {seq}: engine: {e}")))
}

/// Median and count of each span name's self time, for the result file.
pub fn self_time_summary(tr: &Tracer) -> serde_json::Value {
    serde_json::Value::Map(
        tr.self_times()
            .into_iter()
            .map(|(name, ns)| {
                let summary = jobj! {
                    "self_p50_us": quantile_us(&ns, 0.5),
                    "self_p90_us": quantile_us(&ns, 0.9),
                    "spans": ns.len(),
                };
                (name.to_string(), summary)
            })
            .collect(),
    )
}
