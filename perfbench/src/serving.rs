//! What the two HTTP workloads share: the server sizing, warm-up, the
//! untraced measured phases, and the traced HTTP phases.

use crate::client::{self, Conn, PhaseOut, Stream, Tally};
use crate::util::{cpu_s, incorrect, median, quantile_us, Fail, Sheet};
use od_http::{Featurizer, Server, ServerConfig};
use od_serve::{Engine, EngineConfig, EngineStats, Funnel};
use std::net::SocketAddr;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

/// Window of the closed-loop throughput median.
pub const RATE_WINDOW: Duration = Duration::from_millis(500);
/// Sequence-number bases keep warm-up, closed-loop and open-loop inputs
/// apart.
pub const CLOSED_SEQ: u64 = 1 << 20;
pub const OPEN_SEQ: u64 = 1 << 40;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Engine sizing of the single shard: `nproc` workers, defaults otherwise.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: nproc(),
        ..EngineConfig::default()
    }
}

/// One shard, `nproc` connection workers, defaults otherwise.
pub fn start(funnel: Arc<Funnel>, featurizer: Featurizer) -> Result<Server, String> {
    Server::start(
        vec![funnel],
        featurizer,
        ServerConfig {
            conn_workers: nproc(),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("server start: {e}"))
}

/// Warm the server up with `n` closed-loop requests on one connection,
/// then close that connection. An idle keep-alive connection would pin a
/// connection worker for the whole header timeout (5 s), and the measured
/// clients would queue behind it.
pub fn warm_up(addr: SocketAddr, stream: &dyn Stream, n: u64) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("warm-up connect: {e}"))?;
    let mut reply = client::Reply::default();
    let mut wire = Vec::new();
    for seq in 0..n {
        wire.clear();
        stream.request(seq, &mut wire);
        conn.call(&wire, &mut reply)
            .map_err(|e| format!("warm-up request: {e}"))?;
        if reply.status != 200 {
            return Err(format!("warm-up request answered {}", reply.status));
        }
    }
    drop(conn);
    // Give the server's connection worker its read slice to see the close.
    std::thread::sleep(Duration::from_millis(100));
    Ok(())
}

pub fn connect_all(addr: SocketAddr, n: usize) -> Result<Vec<Conn>, String> {
    (0..n)
        .map(|_| Conn::connect(addr).map_err(|e| format!("connect: {e}")))
        .collect()
}

/// The untraced measurement: a closed loop over `nproc` connections for
/// two thirds of the run, then an open loop at `rate` for the rest.
pub struct Measured {
    pub closed: PhaseOut,
    pub open: PhaseOut,
    pub rss_mb: f64,
    /// Process CPU seconds of the open loop, server and clients together.
    pub open_cpu_s: f64,
}

impl Measured {
    pub fn tally(&self) -> Tally {
        let mut t = self.closed.tally;
        t.add(&self.open.tally);
        t
    }
}

pub fn measure(
    addr: SocketAddr,
    stream: &dyn Stream,
    seconds: f64,
    rate: f64,
) -> Result<Measured, Fail> {
    let mut conns = connect_all(addr, nproc())?;
    let next = AtomicU64::new(CLOSED_SEQ);
    let closed_for = Duration::from_secs_f64(seconds * 2.0 / 3.0);
    let closed = client::closed_loop(&mut conns, stream, &next, closed_for, RATE_WINDOW);
    let c0 = cpu_s();
    let open_for = Duration::from_secs_f64(seconds / 3.0);
    let open = client::open_loop(&mut conns, stream, OPEN_SEQ, rate, open_for, RATE_WINDOW);
    let open_cpu_s = cpu_s() - c0;
    let rss_mb = crate::util::rss_mb();
    drop(conns);
    checked(&closed)?;
    checked(&open)?;
    Ok(Measured {
        closed,
        open,
        rss_mb,
        open_cpu_s,
    })
}

/// The metrics every serving run reports. The end-to-end ones:
///
/// - `ops_per_cpu_s`: closed-loop 200-answered requests per CPU-second
///   the process (server and clients) used, as the median over
///   [`RATE_WINDOW`] windows. On a shared VM the wall-clock rate moves
///   with the CPU time the hypervisor steals; CPU time does not.
/// - `ok_rate`: 200-answered / attempted over both phases.
///
/// The open-loop latencies (from the due time) are printed and kept in the
/// result file but carry no bound: on a VM whose neighbours steal up to a
/// third of the CPU for minutes at a time, they measure the neighbours.
pub fn put_e2e(sheet: &mut Sheet, m: &Measured, setup_s: f64) {
    let t = m.tally();
    sheet.put("setup_s", setup_s, "s");
    sheet.put(
        "ops_per_cpu_s",
        median(&m.closed.window_ops_per_cpu(RATE_WINDOW)),
        "1/s",
    );
    sheet.put("ok_rate", t.ok as f64 / t.attempted.max(1) as f64, "ratio");
    sheet.put("rss_mb", m.rss_mb, "MiB");

    sheet.put("rps", median(&m.closed.window_rates(RATE_WINDOW)), "1/s");
    sheet.put("p50_us", quantile_us(&m.open.latency_ns, 0.5), "us");
    sheet.put("p90_us", quantile_us(&m.open.latency_ns, 0.9), "us");
    sheet.put("p99_us", quantile_us(&m.open.latency_ns, 0.99), "us");
    sheet.put("error_rate", t.error_rate(), "ratio");
    sheet.put(
        "loadgen.late_p50_us",
        quantile_us(&m.open.late_ns, 0.5),
        "us",
    );
    sheet.put(
        "loadgen.late_p90_us",
        quantile_us(&m.open.late_ns, 0.9),
        "us",
    );
    sheet.put(
        "open_cpu_us_per_op",
        m.open_cpu_s * 1e6 / m.open.tally.ok.max(1) as f64,
        "us",
    );
    sheet.put("steal.closed", mean(&m.closed.window_steal()), "ratio");
    sheet.put("steal.open", mean(&m.open.window_steal()), "ratio");
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Fail the run on the first inline check that failed in `p`.
pub fn checked(p: &PhaseOut) -> Result<(), Fail> {
    match &p.mismatch {
        None => Ok(()),
        Some(e) => Err(incorrect(format!(
            "{e} ({} mismatched answers in the phase)",
            p.mismatches
        ))),
    }
}

/// Phase tallies for the result file.
pub fn phase_json(name: &str, p: &PhaseOut) -> serde_json::Value {
    jobj! {
        "phase": name,
        "attempted": p.tally.attempted,
        "succeeded": p.tally.ok,
        "refused": p.tally.refused,
        "failed": p.tally.failed,
        "elapsed_s": p.elapsed_s,
    }
}

/// The traced run's open loop at `rate`, with `GET /metrics` scraped
/// before and after it over one of its connections (for the engine's
/// queue wait) and the engine's counters read around it.
pub struct OpenPhase {
    pub open: PhaseOut,
    pub queue_wait_p50_us: f64,
    pub queue_wait_p90_us: f64,
    pub before: EngineStats,
    pub after: EngineStats,
}

pub fn traced_open(
    addr: SocketAddr,
    stream: &dyn Stream,
    seconds: f64,
    rate: f64,
    engine: &Engine,
) -> Result<OpenPhase, Fail> {
    let dur = Duration::from_secs_f64(seconds);
    let mut conns = connect_all(addr, nproc())?;
    let scrape = |c: &mut Conn| client::scrape(c).map_err(|e| format!("scrape: {e}"));
    let before = engine.stats();
    let text_before = scrape(&mut conns[0])?;
    let open = client::open_loop(&mut conns, stream, OPEN_SEQ, rate, dur, RATE_WINDOW);
    let text_after = scrape(&mut conns[0])?;
    let after = engine.stats();
    drop(conns);
    checked(&open)?;
    let name = "od_request_queue_wait_ns";
    let (b, a) = (
        client::buckets(&text_before, name),
        client::buckets(&text_after, name),
    );
    Ok(OpenPhase {
        open,
        queue_wait_p50_us: client::delta_quantile(&b, &a, 0.5) / 1e3,
        queue_wait_p90_us: client::delta_quantile(&b, &a, 0.9) / 1e3,
        before,
        after,
    })
}

/// Engine counters over the traced open loop, the queue wait scraped
/// around it, and the generator's lateness.
pub fn put_engine(sheet: &mut Sheet, p: &OpenPhase) {
    let forwards = p.after.forwards - p.before.forwards;
    let completed = p.after.completed - p.before.completed;
    sheet.put(
        "engine.requests_per_forward",
        completed as f64 / forwards.max(1) as f64,
        "ratio",
    );
    sheet.put(
        "engine.rejected",
        (p.after.rejected - p.before.rejected) as f64,
        "count",
    );
    sheet.put("engine.queue_wait_p50_us", p.queue_wait_p50_us, "us");
    sheet.put("engine.queue_wait_p90_us", p.queue_wait_p90_us, "us");
    sheet.put(
        "loadgen.late_p50_us",
        quantile_us(&p.open.late_ns, 0.5),
        "us",
    );
    sheet.put(
        "loadgen.late_p90_us",
        quantile_us(&p.open.late_ns, 0.9),
        "us",
    );
}

/// Per-window series of the untraced phases, for the result file.
pub fn windows_json(m: &Measured) -> serde_json::Value {
    jobj! {
        "window_s": RATE_WINDOW.as_secs_f64(),
        "closed_ops_per_cpu_s": m.closed.window_ops_per_cpu(RATE_WINDOW),
        "closed_rps": m.closed.window_rates(RATE_WINDOW),
        "closed_steal": m.closed.window_steal(),
        "open_p50_us": m.open.window_quantiles(RATE_WINDOW, 0.5),
        "open_p90_us": m.open.window_quantiles(RATE_WINDOW, 0.9),
        "open_steal": m.open.window_steal(),
    }
}
