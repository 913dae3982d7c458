//! `recommend-k64`: `POST /v1/recommend`, k = 64, against a paper-scale
//! (2.6M users × 200 cities, d = 16) ODNET−G artifact frozen from the
//! seed, written to `.odz` and served through mmap by the deployed funnel
//! (`FunnelConfig::default()`: the pruned tier plus the 1-in-64 recall
//! probe). Users are hash-spread uniformly over the whole universe, so the
//! 333 MB tables exceed every cache and no answer is ever reused.

use crate::client::{post, Stream};
use crate::replay;
use crate::serving;
use crate::util::{
    bit_equal, derive, incorrect, median, mix, quantile_us, secs, self_us, unit, Fail, Outcome,
    Scratch, Sheet, Tracer,
};
use od_hsg::{CityId, UserId};
use od_http::wire::{RecommendRequest, RecommendResponse, WirePair};
use od_http::{Featurizer, Server};
use od_retrieval::{recall_against_exact, Retriever, ScoredPair, Tier};
use od_serve::{Funnel, FunnelConfig};
use odnet_core::{
    CandidateInput, FrozenOdNet, GroupInput, OdNetModel, OdnetConfig, Variant, XST_DIM,
};
use std::sync::Arc;
use std::time::Instant;

pub const USERS: usize = 2_600_000;
pub const CITIES: usize = 200;
pub const EMBED_DIM: usize = 16;
pub const K: usize = 64;
/// Open-loop rate: about 20% of the closed-loop rate on a 2-core VM, low
/// enough that a burst of outside load does not build a lasting backlog.
pub const RATE: f64 = 500.0;
const SETUPS: usize = 3;
const WARM_UP: u64 = 200;
/// Every 8th answer (up to `client::MAX_KEPT` per client and phase) is
/// kept and checked bit-exactly after its phase.
const KEEP_EVERY: u64 = 8;
/// History lengths the featurizer attaches: the model's full PEC window.
const LONG: usize = 12;
const SHORT: usize = 8;
const DAY: u32 = 400;

/// The seeded request stream: request `seq` asks for user
/// `hash(seed, seq) mod 2.6M`.
struct Requests {
    users: u64,
}

impl Requests {
    fn new(seed: u64) -> Requests {
        Requests {
            users: derive(seed, 0x05E5),
        }
    }

    fn user(&self, seq: u64) -> u32 {
        (mix(self.users ^ mix(seq)) % USERS as u64) as u32
    }
}

impl Stream for Requests {
    fn request(&self, seq: u64, out: &mut Vec<u8>) -> u32 {
        let user = self.user(seq);
        let body = format!("{{\"user\":{user},\"k\":{K}}}");
        out.extend_from_slice(&post("/v1/recommend", body.as_bytes()));
        user
    }

    /// Every answer must come from the one served generation.
    fn check(&self, _seq: u64, _tag: u32, reply: &crate::client::Reply) -> Result<(), String> {
        match reply.epoch {
            Some(0) => Ok(()),
            e => Err(format!("answered by epoch {e:?}, want 0")),
        }
    }

    fn keep(&self, seq: u64) -> bool {
        seq.is_multiple_of(KEEP_EVERY)
    }
}

/// The benchmark-side featurizer: a deterministic full-length history
/// (12 long, 8 short) and temporal features for each retrieved pair, so
/// the PEC trunk does its full work. Candidates keep retrieval order.
fn featurize(seed: u64, user: UserId, pairs: &[ScoredPair]) -> GroupInput {
    let h = |i: u64| mix(seed ^ mix(((user.0 as u64) << 8) | i));
    let city = |i: u64| CityId((h(i) % CITIES as u64) as u32);
    let xst = |c: CityId, side: u64| -> [f32; XST_DIM] {
        std::array::from_fn(|j| unit(seed ^ ((c.0 as u64) << 16) ^ (side << 8) ^ j as u64))
    };
    GroupInput {
        user,
        day: DAY,
        current_city: city(0),
        lt_origins: (0..LONG as u64).map(|i| city(1 + i)).collect(),
        lt_dests: (0..LONG as u64).map(|i| city(32 + i)).collect(),
        lt_days: (0..LONG as u32).map(|i| DAY - 360 + 25 * i).collect(),
        st_origins: (0..SHORT as u64).map(|i| city(64 + i)).collect(),
        st_dests: (0..SHORT as u64).map(|i| city(96 + i)).collect(),
        st_days: (0..SHORT as u32).map(|i| DAY - 7 + i % 7).collect(),
        candidates: pairs
            .iter()
            .map(|p| CandidateInput {
                origin: p.origin,
                dest: p.dest,
                xst_o: xst(p.origin, 1),
                xst_d: xst(p.dest, 2),
                label_o: 0.0,
                label_d: 0.0,
            })
            .collect(),
    }
}

struct Fixture {
    model: Arc<FrozenOdNet>,
    checksum: u32,
    funnel: Arc<Funnel>,
    server: Server,
    scratch: Scratch,
    freeze_s: f64,
    save_s: f64,
    load_ms: f64,
    bytes: u64,
    setup_s: f64,
    /// Seed of the benchmark-side featurizer's histories.
    hist_seed: u64,
}

/// Everything from the start to the first measured request: freeze the
/// seeded model, write the `.odz`, map it, build the funnel (engine and
/// retrieval index), start the server, warm up.
fn setup(seed: u64, stream: &Requests) -> Result<Fixture, Fail> {
    let t0 = Instant::now();
    let scratch = Scratch::new()?;
    let t = Instant::now();
    let config = OdnetConfig {
        embed_dim: EMBED_DIM,
        seed: derive(seed, 0x0A27),
        ..OdnetConfig::default()
    };
    let frozen = OdNetModel::new(Variant::OdnetG, config, USERS, CITIES, None).freeze();
    let freeze_s = secs(t);
    let path = scratch.file("artifact.odz");
    let t = Instant::now();
    frozen
        .save_bin(&path)
        .map_err(|e| format!("save .odz: {e:?}"))?;
    let save_s = secs(t);
    drop(frozen);
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let t = Instant::now();
    let model =
        Arc::new(FrozenOdNet::load_bin_mmap(&path).map_err(|e| format!("mmap .odz: {e:?}"))?);
    let load_ms = secs(t) * 1e3;
    let checksum = odnet_core::read_odz_checksum(&path).map_err(|e| format!("checksum: {e:?}"))?;
    let funnel = Arc::new(Funnel::new(
        Arc::clone(&model),
        checksum,
        serving::engine_config(),
        FunnelConfig::default(),
    ));
    let hist_seed = derive(seed, 0x0F1A);
    let featurizer: Featurizer = Arc::new(move |user, pairs| featurize(hist_seed, user, pairs));
    let server = serving::start(Arc::clone(&funnel), featurizer)?;
    serving::warm_up(server.addr(), stream, WARM_UP)?;
    Ok(Fixture {
        model,
        checksum,
        funnel,
        server,
        scratch,
        freeze_s,
        save_s,
        load_ms,
        bytes,
        setup_s: secs(t0),
        hist_seed,
    })
}

/// The answer the funnel must give for `user`: `Retriever::top_k` on the
/// funnel's tier, the same featurized group through
/// `FrozenOdNet::score_group`, blended with θ and rank-ordered.
fn oracle(f: &Fixture, retriever: &Retriever, user: UserId) -> Vec<WirePair> {
    let got = retriever.top_k(user, K, f.funnel.config().tier);
    let group = featurize(f.hist_seed, user, &got.pairs);
    ranked(&f.model, &got.pairs, &f.model.score_group(&group))
}

fn same_pair(a: &WirePair, b: &WirePair) -> bool {
    a.origin == b.origin
        && a.dest == b.dest
        && a.retrieval_score.to_bits() == b.retrieval_score.to_bits()
        && a.p_origin.to_bits() == b.p_origin.to_bits()
        && a.p_dest.to_bits() == b.p_dest.to_bits()
        && a.rank_score.to_bits() == b.rank_score.to_bits()
}

/// Check every kept answer: exactly k pairs, rank-ordered, both stamps on
/// the served generation, and bit-exact against the oracle.
fn verify(f: &Fixture, samples: &[crate::client::Sample]) -> Result<usize, Fail> {
    let retriever = Retriever::build(Arc::clone(&f.model), f.funnel.config().retrieval);
    for s in samples {
        let r: RecommendResponse = serde_json::from_str(std::str::from_utf8(&s.body).unwrap_or(""))
            .map_err(|e| incorrect(format!("request {}: undecodable body: {e}", s.seq)))?;
        let ctx = |what: &str| incorrect(format!("request {} (user {}): {what}", s.seq, s.tag));
        if r.pairs.len() != K {
            return Err(ctx(&format!("{} pairs, want {K}", r.pairs.len())));
        }
        if r.pairs.windows(2).any(|w| {
            w[0].rank_score < w[1].rank_score
                || (w[0].rank_score == w[1].rank_score
                    && (w[0].origin, w[0].dest) > (w[1].origin, w[1].dest))
        }) {
            return Err(ctx("pairs not in rank order"));
        }
        for v in [&r.retrieved_by, &r.ranked_by] {
            if v.epoch != 0 || v.checksum != f.checksum || s.epoch != Some(0) {
                return Err(ctx("stamp is not the served generation"));
            }
        }
        let want = oracle(f, &retriever, UserId(s.tag));
        if !r.pairs.iter().zip(&want).all(|(a, b)| same_pair(a, b)) {
            return Err(ctx("answer differs from Retriever::top_k + score_group"));
        }
    }
    Ok(samples.len())
}

fn teardown(f: Fixture) {
    f.server.shutdown();
    f.funnel.shutdown();
}

fn put_artifact(sheet: &mut Sheet, f: &Fixture) {
    sheet.put("artifact.freeze_s", f.freeze_s, "s");
    sheet.put("artifact.save_s", f.save_s, "s");
    sheet.put("artifact.load_ms", f.load_ms, "ms");
    sheet.put("artifact.bytes", f.bytes as f64, "B");
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, Fail> {
    let stream = Requests::new(seed);
    if trace {
        return run_traced(seed, seconds, &stream);
    }
    let mut setups = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUPS {
        if let Some(old) = fixture.take() {
            teardown(old);
        }
        let f = setup(seed, &stream)?;
        setups.push(f.setup_s);
        fixture = Some(f);
    }
    let f = fixture.expect("at least one set-up");
    let m = serving::measure(f.server.addr(), &stream, seconds, RATE)?;
    let mut sheet = Sheet::default();
    serving::put_e2e(&mut sheet, &m, median(&setups));
    put_artifact(&mut sheet, &f);
    let checked = verify(&f, &m.closed.samples)? + verify(&f, &m.open.samples)?;
    let tally = m.tally();
    let detail = jobj! {
        "phases": vec![
            serving::phase_json("closed_loop", &m.closed),
            serving::phase_json("open_loop", &m.open),
        ],
        "windows": serving::windows_json(&m),
        "setup_s_each": setups,
        "checked_bit_exact": checked,
    };
    teardown(f);
    Ok(Outcome {
        sheet,
        attempted: tally.attempted,
        failed: tally.refused + tally.failed,
        detail,
        spans: None,
    })
}

/// One replayed request, in the order the server runs it: parse → decode
/// → retrieve → featurize → engine → encode. Outside the request tree the
/// same group goes once more through `score_group_into`, the rank layer
/// alone, which must agree with the engine bit for bit.
struct Replay<'a> {
    f: &'a Fixture,
    retriever: Retriever,
    stream: &'a Requests,
    ws: od_tensor::Workspace,
    scores: Vec<(f32, f32)>,
    forward_ns: Vec<u64>,
    retrieval: Vec<od_retrieval::RetrievalStats>,
    request_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
}

impl replay::Replay for Replay<'_> {
    fn one(&mut self, tr: &mut Tracer, seq: u64) -> Result<(), Fail> {
        let mut wire = Vec::new();
        self.stream.request(seq, &mut wire);
        let root = tr.open("request", seq, None);
        let parsed = replay::parse(tr, seq, root, &wire)?;
        let ask: RecommendRequest = tr
            .span("http.decode", seq, Some(root), || {
                serde_json::from_str(std::str::from_utf8(&parsed.body).unwrap_or(""))
            })
            .map_err(|e| format!("replay decode: {e}"))?;
        let user = UserId(ask.user as u32);
        let tier = self.f.funnel.config().tier;
        let got = tr.span("retrieval.top_k", seq, Some(root), || {
            self.retriever.top_k(user, ask.k, tier)
        });
        let hist_seed = self.f.hist_seed;
        let group = tr.span("bench.featurize", seq, Some(root), || {
            featurize(hist_seed, user, &got.pairs)
        });
        let engine = self.f.funnel.engine();
        let scored = replay::submit_wait(tr, seq, root, engine, group.clone())?;
        let model = &self.f.model;
        let pairs = ranked(model, &got.pairs, &scored.scores);
        let body = tr.span("http.encode", seq, Some(root), || {
            serde_json::to_string(&RecommendResponse {
                pairs,
                retrieved_by: scored.version.into(),
                ranked_by: scored.version.into(),
            })
        });
        let body = body.map_err(|e| format!("replay encode: {e}"))?;
        tr.close(root);
        let t = Instant::now();
        model.score_group_into(&mut self.ws, &group, &mut self.scores);
        self.forward_ns.push(t.elapsed().as_nanos() as u64);
        if !bit_equal(&self.scores, &scored.scores) {
            return Err(incorrect(format!(
                "replay request {seq}: engine scores differ from score_group_into"
            )));
        }
        self.retrieval.push(got.stats);
        self.request_bytes.push(wire.len() as f64);
        self.response_bytes.push(body.len() as f64);
        Ok(())
    }
}

fn run_traced(seed: u64, seconds: f64, stream: &Requests) -> Result<Outcome, Fail> {
    let f = setup(seed, stream)?;
    let mut sheet = Sheet::default();
    sheet.put("setup.once_s", f.setup_s, "s");
    put_artifact(&mut sheet, &f);
    let mut replay = Replay {
        f: &f,
        retriever: Retriever::build(Arc::clone(&f.model), f.funnel.config().retrieval),
        stream,
        ws: od_tensor::Workspace::new(),
        scores: Vec::new(),
        forward_ns: Vec::new(),
        retrieval: Vec::new(),
        request_bytes: Vec::new(),
        response_bytes: Vec::new(),
    };
    let il = replay::interleave(
        Some((f.server.addr(), stream)),
        seconds * 0.75,
        25,
        &mut replay,
    )?;
    verify(&f, &il.single.samples)?;
    let open = serving::traced_open(
        f.server.addr(),
        stream,
        seconds * 0.25,
        RATE,
        f.funnel.engine(),
    )?;
    verify(&f, &open.open.samples)?;
    replay::put_replay(
        &mut sheet,
        &il,
        &["retrieval.top_k", "bench.featurize", "engine.submit_wait"],
    );
    serving::put_engine(&mut sheet, &open);
    let selfs = il.traced.self_times();
    sheet.put(
        "retrieval.top_k_us",
        self_us(&selfs, "retrieval.top_k"),
        "us",
    );
    sheet.put(
        "bench.featurize_us",
        self_us(&selfs, "bench.featurize"),
        "us",
    );
    let forward = quantile_us(&replay.forward_ns, 0.5);
    sheet.put("rank.forward_us", forward, "us");
    sheet.put(
        "engine.overhead_us",
        self_us(&selfs, "engine.submit_wait") - forward,
        "us",
    );
    sheet.put("http.request_bytes", median(&replay.request_bytes), "B");
    sheet.put("http.response_bytes", median(&replay.response_bytes), "B");
    let stat = |f: fn(&od_retrieval::RetrievalStats) -> u64| {
        replay.retrieval.iter().map(f).collect::<Vec<u64>>()
    };
    sheet.put(
        "retrieval.route_us",
        quantile_us(&stat(|s| s.route_ns), 0.5),
        "us",
    );
    sheet.put(
        "retrieval.scan_us",
        quantile_us(&stat(|s| s.scan_ns), 0.5),
        "us",
    );
    sheet.put(
        "retrieval.select_us",
        quantile_us(&stat(|s| s.select_ns), 0.5),
        "us",
    );
    let scanned = stat(|s| s.scanned);
    sheet.put(
        "retrieval.scanned",
        scanned.iter().sum::<u64>() as f64 / scanned.len().max(1) as f64,
        "count",
    );
    sheet.put("retrieval.recall_at_k", recall(&f, stream, 200), "ratio");
    sheet.put("swap.publishes", 0.0, "count");
    sheet.put("swap.publish_us", 0.0, "us");
    sheet.put(
        "swap.responses_per_generation",
        (il.single.tally.ok + open.open.tally.ok) as f64,
        "count",
    );

    // Layer probes.
    let probe_user = UserId(stream.user(replay::REPLAY_SEQ));
    let ctx = featurize(
        f.hist_seed,
        probe_user,
        &replay.retriever.top_k(probe_user, K, Tier::Pruned).pairs,
    );
    crate::probes::rank(&f.model, &ctx, &mut sheet);
    crate::probes::kernels(f.model.config(), &mut sheet);
    sheet.put("artifact.cold_start_ms", cold_start(&f, &ctx)?, "ms");

    let mut tally = il.single.tally;
    tally.add(&open.open.tally);
    let detail = jobj! {
        "phases": vec![
            serving::phase_json("single_connection_chunks", &il.single),
            serving::phase_json("open_loop", &open.open),
        ],
        "self_times": replay::self_time_summary(&il.traced),
    };
    let spans = il.traced.to_chrome_json();
    drop(replay);
    teardown(f);
    Ok(Outcome {
        sheet,
        attempted: tally.attempted + il.replayed,
        failed: tally.refused + tally.failed,
        detail,
        spans: Some(spans),
    })
}

/// Retrieved pairs with their scores, blended with θ and in rank order
/// (rank score descending, then origin and destination ascending) — what
/// the funnel answers.
fn ranked(model: &FrozenOdNet, pairs: &[ScoredPair], scores: &[(f32, f32)]) -> Vec<WirePair> {
    let mut out: Vec<WirePair> = pairs
        .iter()
        .zip(scores)
        .map(|(p, &(po, pd))| WirePair {
            origin: p.origin.0,
            dest: p.dest.0,
            retrieval_score: p.score,
            p_origin: po,
            p_dest: pd,
            rank_score: model.serving_score(po, pd),
        })
        .collect();
    out.sort_by(|x, y| {
        y.rank_score
            .total_cmp(&x.rank_score)
            .then_with(|| (x.origin, x.dest).cmp(&(y.origin, y.dest)))
    });
    out
}

/// Mean recall@k of the funnel's tier against the exact tier over
/// `n` users of the stream: useful (exact top-k) over attempted pairs.
fn recall(f: &Fixture, stream: &Requests, n: u64) -> f64 {
    let r = Retriever::build(Arc::clone(&f.model), f.funnel.config().retrieval);
    let tier = f.funnel.config().tier;
    let total: f64 = (0..n)
        .map(|i| {
            let user = UserId(stream.user(replay::REPLAY_SEQ + i));
            let exact = r.top_k(user, K, Tier::Exact);
            let served = r.top_k(user, K, tier);
            recall_against_exact(&exact.pairs, &served.pairs)
        })
        .sum();
    total / n as f64
}

/// Load → `Retriever::build` → first score, on a fresh mapping of the
/// artifact (its pages are already in the page cache).
fn cold_start(f: &Fixture, ctx: &GroupInput) -> Result<f64, Fail> {
    let path = f.scratch.file("artifact.odz");
    let t = Instant::now();
    let model =
        Arc::new(FrozenOdNet::load_bin_mmap(&path).map_err(|e| format!("mmap .odz: {e:?}"))?);
    let r = Retriever::build(Arc::clone(&model), f.funnel.config().retrieval);
    let got = r.top_k(ctx.user, K, Tier::Pruned);
    let first = model.score_group(ctx);
    let ms = secs(t) * 1e3;
    if got.pairs.is_empty() || first != f.model.score_group(ctx) {
        return Err(incorrect("cold-started artifact scores differently"));
    }
    Ok(ms)
}
