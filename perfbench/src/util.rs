//! Shared pieces: seeded input generation, order statistics, the
//! benchmark's own span recorder, the metric sheet, and process facts.

use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64: the seed → input stream generator. Every input the
/// benchmark hands the program is a pure function of `--seed` through it.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A sub-seed for one named purpose, so inputs stay independent.
pub fn derive(seed: u64, purpose: u64) -> u64 {
    mix(seed ^ mix(purpose))
}

/// Uniform float in `[0, 1)` from a hash.
pub fn unit(x: u64) -> f32 {
    (mix(x) >> 40) as f32 / (1u64 << 24) as f32
}

/// Median of a sample (the mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of a sample; NaN when
/// the sample is empty so callers cannot mistake "no data" for zero.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nanosecond samples → microsecond quantile.
pub fn quantile_us(ns: &[u64], q: f64) -> f64 {
    let v: Vec<f64> = ns.iter().map(|&x| x as f64 / 1e3).collect();
    quantile(&v, q)
}

/// Resident set size of this process in MiB (`VmRSS` of
/// `/proc/self/status`), NaN where the file is unavailable.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The metric sheet of one run: name, value, unit, in emission order.
#[derive(Default)]
pub struct Sheet {
    rows: Vec<(String, f64, &'static str)>,
}

impl Sheet {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.rows.iter_mut().find(|r| r.0 == name) {
            Some(r) => {
                r.1 = value;
                r.2 = unit;
            }
            None => self.rows.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    pub fn rows(&self) -> &[(String, f64, &'static str)] {
        &self.rows
    }

    /// The `{"name": {"value": v, "unit": "u"}, …}` object, restricted to
    /// `names` in that order. Fails on a missing or non-finite value: a
    /// number the run did not measure must not reach the result line.
    pub fn json_object(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, (name, unit)) in names.iter().enumerate() {
            let (v, u) = self
                .rows
                .iter()
                .find(|r| r.0 == *name)
                .map(|r| (r.1, r.2))
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if u != *unit {
                return Err(format!("metric {name} measured in {u}, declared in {unit}"));
            }
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        Ok(out)
    }
}

/// One recorded span: a named interval inside one request, with the span
/// that caused it (`parent`, an index into the span list, or `None` for a
/// request root).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// The benchmark's own tracer. It wraps calls the benchmark makes into the
/// program's public functions; the program itself is not instrumented.
/// With `on == false` every call is a branch and no clock is read, which is
/// the untraced side of the trace-overhead ratio.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its handle (meaningless when tracing is off).
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if self.on {
            let end = self.now_ns();
            self.spans[id].end_ns = end;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, request, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span (its duration minus the time its children
    /// cover), in nanoseconds, grouped by span name.
    pub fn self_times(&self) -> Vec<(&'static str, Vec<u64>)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: Vec<(&'static str, Vec<u64>)> = Vec::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, v)) => v.push(own),
                None => by_name.push((s.name, vec![own])),
            }
        }
        by_name
    }

    /// The spans as a Chrome `trace_event` document (loadable in Perfetto
    /// or `chrome://tracing`); one track per request id.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"request\":{}}}}}",
                s.name,
                s.request,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.request
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// How a run can fail. A wrong output is not a number: it fails the run.
#[derive(Debug)]
pub enum Fail {
    /// The program answered, but an output did not match its oracle.
    Incorrect(String),
    /// The run could not be carried out (set-up, I/O, a refused request
    /// where none may be refused, …).
    Error(String),
}

pub fn incorrect(msg: impl Into<String>) -> Fail {
    Fail::Incorrect(msg.into())
}

impl From<String> for Fail {
    fn from(msg: String) -> Fail {
        Fail::Error(msg)
    }
}

/// What one workload run hands back to `main`.
pub struct Outcome {
    pub sheet: Sheet,
    /// Operations attempted and failed over the measured phases.
    pub attempted: u64,
    pub failed: u64,
    /// Phase tallies and workload facts for the result file.
    pub detail: serde_json::Value,
    /// Chrome-format spans of the traced run.
    pub spans: Option<String>,
}

/// A per-run scratch directory under `.bench_tmp/` in the working
/// directory, removed when dropped.
pub struct Scratch(std::path::PathBuf);

impl Scratch {
    pub fn new() -> Result<Scratch, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::path::Path::new(".bench_tmp").join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn file(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_tmp` itself only when no other run uses it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Median self time (µs) of the spans named `name`, NaN when none.
pub fn self_us(selfs: &[(&'static str, Vec<u64>)], name: &str) -> f64 {
    selfs
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(f64::NAN, |(_, v)| quantile_us(v, 0.5))
}

/// CPU time (user + system) this process has used so far, in seconds.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut r = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `Rusage` has the layout of Linux's `struct rusage` on 64-bit
    // targets (two `timeval`s of two longs, then fourteen longs), so the
    // call writes only inside `r`; `RUSAGE_SELF` is 0.
    let rc = unsafe { getrusage(0, &mut r) };
    if rc != 0 {
        return f64::NAN;
    }
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    tv(r.utime) + tv(r.stime)
}

/// Machine-wide CPU time stolen by the hypervisor, as a share of all CPU
/// time, between two readings of `/proc/stat` (see [`cpu_ticks`]).
pub fn steal_share(before: &[u64], after: &[u64]) -> f64 {
    let d: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = d.iter().sum();
    d.get(7)
        .map_or(f64::NAN, |&s| s as f64 / total.max(1) as f64)
}

/// The machine-wide CPU counters of `/proc/stat`'s `cpu` line.
pub fn cpu_ticks() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().next().map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|x| x.parse().ok())
                    .collect()
            })
        })
        .unwrap_or_default()
}

/// CPU time the calling thread has used, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut [i64; 2]) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = [0i64; 2];
    // SAFETY: Linux's `struct timespec` on 64-bit targets is two longs
    // (seconds, nanoseconds), which `ts` provides; the call writes only
    // there.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts[0] as u64 * 1_000_000_000 + ts[1] as u64
}

/// Two score lists equal bit for bit (so `-0.0 ≠ 0.0` and NaN = NaN).
pub fn bit_equal(a: &[(f32, f32)], b: &[(f32, f32)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0.to_bits() == y.0.to_bits() && x.1.to_bits() == y.1.to_bits())
}
