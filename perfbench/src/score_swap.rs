//! `score-swap`: `POST /v1/score` with featurized groups (~7 candidates,
//! real histories) of a 200-user × 120-city Fliggy dataset, while a
//! publisher calls `Funnel::publish` every 250 ms, alternating two
//! distinct ODNET generations initialised from different seeds. The wire
//! (parse and JSON decode of a ~1.3 KB body) and the engine's per-request
//! cost dominate; retrieval is bypassed; publishes are writes beside the
//! reads on the same engine and model handle.

use crate::client::{post, Stream};
use crate::replay;
use crate::serving;
use crate::util::{
    bit_equal, derive, incorrect, median, mix, quantile_us, secs, self_us, Fail, Outcome, Scratch,
    Sheet, Tracer,
};
use od_data::{FliggyConfig, FliggyDataset};
use od_hsg::HsgBuilder;
use od_http::wire::ScoreResponse;
use od_http::{Featurizer, Server};
use od_retrieval::Retriever;
use od_serve::{Funnel, FunnelConfig};
use odnet_core::{FeatureExtractor, FrozenOdNet, GroupInput, OdNetModel, OdnetConfig, Variant};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const USERS: usize = 200;
pub const CITIES: usize = 120;
/// Open-loop rate: about 15% of the closed-loop rate on a 2-core VM, low
/// enough that a burst of outside load does not build a lasting backlog.
pub const RATE: f64 = 1500.0;
pub const PUBLISH_EVERY: Duration = Duration::from_millis(250);
const SETUPS: usize = 3;
const WARM_UP: u64 = 500;

/// One model generation: the mapped artifact and its `.odz` checksum.
struct Gen {
    model: Arc<FrozenOdNet>,
    checksum: u32,
}

/// Request `seq` posts group `hash(seed, seq) mod pool` of the dataset.
struct Requests {
    pick: u64,
    wires: Vec<Vec<u8>>,
}

impl Stream for Requests {
    fn request(&self, seq: u64, out: &mut Vec<u8>) -> u32 {
        let g = (mix(self.pick ^ mix(seq)) % self.wires.len() as u64) as usize;
        out.extend_from_slice(&self.wires[g]);
        g as u32
    }
}

/// The request stream with every 200 body checked as it arrives: the
/// scores must equal, bit for bit, those of the generation its `epoch`
/// names. Publishes alternate generations starting from generation 0 at
/// epoch 0, so epoch `e` names generation `e mod 2`; after the phase,
/// [`confirm_epochs`] checks that against the versions `publish` returned.
struct Checked<'a> {
    requests: &'a Requests,
    expected: [Vec<Vec<(f32, f32)>>; 2],
    checksums: [u32; 2],
    seen: std::sync::Mutex<std::collections::BTreeSet<u64>>,
}

impl Stream for Checked<'_> {
    fn request(&self, seq: u64, out: &mut Vec<u8>) -> u32 {
        self.requests.request(seq, out)
    }

    fn check(&self, _seq: u64, tag: u32, reply: &crate::client::Reply) -> Result<(), String> {
        let text = std::str::from_utf8(&reply.body).map_err(|_| "body is not utf-8")?;
        let r: ScoreResponse =
            serde_json::from_str(text).map_err(|e| format!("undecodable body: {e}"))?;
        let gen = (r.epoch % 2) as usize;
        if reply.epoch != Some(r.epoch) || r.checksum != self.checksums[gen] {
            return Err(format!("stamp disagrees with epoch {}", r.epoch));
        }
        if !bit_equal(&r.scores, &self.expected[gen][tag as usize]) {
            return Err(format!(
                "scores differ from generation {gen} (epoch {})",
                r.epoch
            ));
        }
        self.seen
            .lock()
            .expect("a checking client panicked")
            .insert(r.epoch);
        Ok(())
    }
}

impl Fixture {
    fn checked(&self) -> Checked<'_> {
        let score = |g: &Gen| self.groups.iter().map(|x| g.model.score_group(x)).collect();
        Checked {
            requests: &self.stream,
            expected: [score(&self.gens[0]), score(&self.gens[1])],
            checksums: [self.gens[0].checksum, self.gens[1].checksum],
            seen: Default::default(),
        }
    }
}

struct Fixture {
    gens: [Gen; 2],
    groups: Vec<GroupInput>,
    stream: Requests,
    funnel: Arc<Funnel>,
    server: Server,
    scratch: Scratch,
    generate_s: f64,
    hsg_ms: f64,
    featurize_ms: f64,
    freeze_s: f64,
    save_s: f64,
    load_ms: f64,
    bytes: u64,
    setup_s: f64,
}

/// Generate the dataset, build the HSG, featurize every labelled group,
/// freeze and write both generations, map them, build the funnel, start
/// the server, warm up.
fn setup(seed: u64) -> Result<Fixture, Fail> {
    let t0 = Instant::now();
    let scratch = Scratch::new()?;
    let t = Instant::now();
    let ds = FliggyDataset::generate(FliggyConfig {
        num_users: USERS,
        num_cities: CITIES,
        seed: derive(seed, 0xDA7A),
        ..FliggyConfig::default()
    });
    let generate_s = secs(t);
    let t = Instant::now();
    let coords = ds.world.cities.iter().map(|c| c.coords).collect();
    let mut builder = HsgBuilder::new(ds.world.num_users(), coords);
    for it in ds.hsg_interactions() {
        builder.add_interaction(it);
    }
    let hsg = builder.build();
    let hsg_ms = secs(t) * 1e3;
    let config = OdnetConfig::default();
    let fx = FeatureExtractor::new(config.max_long_seq, config.max_short_seq);
    let t = Instant::now();
    let mut groups = fx.groups_from_samples(&ds, &ds.train);
    groups.extend(fx.groups_from_samples(&ds, &ds.test));
    let featurize_ms = secs(t) * 1e3;
    let (mut freeze_s, mut save_s, mut load_ms, mut bytes) = (0.0, 0.0, 0.0, 0);
    let mut gen = |i: usize, purpose: u64| -> Result<Gen, Fail> {
        let t = Instant::now();
        let cfg = OdnetConfig {
            seed: derive(seed, purpose),
            ..config.clone()
        };
        let frozen = OdNetModel::new(
            Variant::Odnet,
            cfg,
            ds.world.num_users(),
            ds.world.num_cities(),
            Some(hsg.clone()),
        )
        .freeze();
        freeze_s += secs(t);
        let path = scratch.file(&format!("gen{i}.odz"));
        let t = Instant::now();
        frozen
            .save_bin(&path)
            .map_err(|e| format!("save .odz: {e:?}"))?;
        save_s += secs(t);
        bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        let t = Instant::now();
        let model = FrozenOdNet::load_bin_mmap(&path).map_err(|e| format!("mmap .odz: {e:?}"))?;
        load_ms += secs(t) * 1e3;
        let checksum =
            odnet_core::read_odz_checksum(&path).map_err(|e| format!("checksum: {e:?}"))?;
        Ok(Gen {
            model: Arc::new(model),
            checksum,
        })
    };
    let gens = [gen(0, 0x6E0)?, gen(1, 0x6E1)?];
    if gens[0].checksum == gens[1].checksum {
        return Err(Fail::Error("the two generations have one checksum".into()));
    }
    let funnel = Arc::new(Funnel::new(
        Arc::clone(&gens[0].model),
        gens[0].checksum,
        serving::engine_config(),
        FunnelConfig::default(),
    ));
    // `/v1/recommend` is not part of this workload.
    let featurizer: Featurizer = Arc::new(|user, _pairs| GroupInput {
        user,
        day: 0,
        current_city: od_hsg::CityId(0),
        lt_origins: Vec::new(),
        lt_dests: Vec::new(),
        lt_days: Vec::new(),
        st_origins: Vec::new(),
        st_dests: Vec::new(),
        st_days: Vec::new(),
        candidates: Vec::new(),
    });
    let server = serving::start(Arc::clone(&funnel), featurizer)?;
    let stream = Requests {
        pick: derive(seed, 0x91C),
        wires: groups
            .iter()
            .map(|g| {
                post(
                    "/v1/score",
                    serde_json::to_string(g)
                        .expect("group serializes")
                        .as_bytes(),
                )
            })
            .collect(),
    };
    serving::warm_up(server.addr(), &stream, WARM_UP)?;
    Ok(Fixture {
        gens,
        groups,
        stream,
        funnel,
        server,
        scratch,
        generate_s,
        hsg_ms,
        featurize_ms,
        freeze_s,
        save_s,
        load_ms,
        bytes,
        setup_s: secs(t0),
    })
}

fn teardown(f: Fixture) {
    f.server.shutdown();
    f.funnel.shutdown();
}

/// One successful publish, as `Funnel::publish` returned it.
struct Published {
    epoch: u64,
    gen: usize,
    checksum: u32,
    ns: u64,
}

/// Run `body` while a publisher thread swaps generations every
/// [`PUBLISH_EVERY`], alternating, starting with the one not serving.
fn publishing<T>(
    f: &Fixture,
    body: impl FnOnce() -> Result<T, Fail>,
) -> Result<(T, Vec<Published>), Fail> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let publisher = s.spawn(|| -> Result<Vec<Published>, String> {
            let mut log = Vec::new();
            let mut next = 1;
            loop {
                let wake = Instant::now() + PUBLISH_EVERY;
                while Instant::now() < wake {
                    if stop.load(Ordering::SeqCst) {
                        return Ok(log);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                let g = &f.gens[next];
                let t = Instant::now();
                let v = f
                    .funnel
                    .publish(Arc::clone(&g.model), g.checksum)
                    .map_err(|e| format!("publish refused: {e:?}"))?;
                log.push(Published {
                    epoch: v.epoch,
                    gen: next,
                    checksum: v.checksum,
                    ns: t.elapsed().as_nanos() as u64,
                });
                next ^= 1;
            }
        });
        let out = body();
        stop.store(true, Ordering::SeqCst);
        let log = publisher.join().expect("publisher panicked")?;
        Ok((out?, log))
    })
}

/// Confirm the `e mod 2` rule the inline check used against the versions
/// `publish` returned (epoch 0 is the construction-time generation 0), and
/// that every epoch that answered was published. Returns how many
/// generations answered.
fn confirm_epochs(f: &Fixture, log: &[Published], checked: &Checked) -> Result<usize, Fail> {
    let mut published = HashSet::from([0u64]);
    for p in log {
        if p.checksum != f.gens[p.gen].checksum || (p.epoch % 2) as usize != p.gen {
            return Err(incorrect(format!(
                "publish of generation {} returned epoch {}, checksum {:#x}",
                p.gen, p.epoch, p.checksum
            )));
        }
        published.insert(p.epoch);
    }
    let seen = checked.seen.lock().expect("a checking client panicked");
    match seen.iter().find(|e| !published.contains(e)) {
        Some(e) => Err(incorrect(format!(
            "epoch {e} answered but was never published"
        ))),
        None => Ok(seen.len()),
    }
}

fn put_setup_layers(sheet: &mut Sheet, f: &Fixture) {
    sheet.put("data.generate_s", f.generate_s, "s");
    sheet.put("data.featurize_ms", f.featurize_ms, "ms");
    sheet.put("hsg.build_ms", f.hsg_ms, "ms");
    sheet.put("artifact.freeze_s", f.freeze_s, "s");
    sheet.put("artifact.save_s", f.save_s, "s");
    sheet.put("artifact.load_ms", f.load_ms, "ms");
    sheet.put("artifact.bytes", f.bytes as f64, "B");
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, Fail> {
    if trace {
        return run_traced(seed, seconds);
    }
    let mut setups = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUPS {
        if let Some(old) = fixture.take() {
            teardown(old);
        }
        let f = setup(seed)?;
        setups.push(f.setup_s);
        fixture = Some(f);
    }
    let f = fixture.expect("at least one set-up");
    let checked = f.checked();
    let (m, log) = publishing(&f, || {
        serving::measure(f.server.addr(), &checked, seconds, RATE)
    })?;
    let mut sheet = Sheet::default();
    serving::put_e2e(&mut sheet, &m, median(&setups));
    put_setup_layers(&mut sheet, &f);
    let generations = confirm_epochs(&f, &log, &checked)?;
    let tally = m.tally();
    let detail = jobj! {
        "phases": vec![
            serving::phase_json("closed_loop", &m.closed),
            serving::phase_json("open_loop", &m.open),
        ],
        "windows": serving::windows_json(&m),
        "setup_s_each": setups,
        "publishes": log.len(),
        "generations_answering": generations,
        "checked_bit_exact": tally.ok,
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

/// One replayed request: parse → decode → engine → encode, then the rank
/// layer alone on the same group, which must agree with the engine and
/// with the generation's expected scores bit for bit.
struct Replay<'a> {
    f: &'a Fixture,
    expected: &'a [Vec<Vec<(f32, f32)>>; 2],
    ws: od_tensor::Workspace,
    direct: Vec<(f32, f32)>,
    forward_ns: Vec<u64>,
    request_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
}

impl replay::Replay for Replay<'_> {
    fn one(&mut self, tr: &mut Tracer, seq: u64) -> Result<(), Fail> {
        let mut wire = Vec::new();
        let tag = self.f.stream.request(seq, &mut wire);
        let root = tr.open("request", seq, None);
        let parsed = replay::parse(tr, seq, root, &wire)?;
        let group: GroupInput = tr
            .span("http.decode", seq, Some(root), || {
                serde_json::from_str(std::str::from_utf8(&parsed.body).unwrap_or(""))
            })
            .map_err(|e| format!("replay decode: {e}"))?;
        let engine = self.f.funnel.engine();
        let scored = replay::submit_wait(tr, seq, root, engine, group.clone())?;
        let body = tr.span("http.encode", seq, Some(root), || {
            serde_json::to_string(&ScoreResponse {
                scores: scored.scores.clone(),
                epoch: scored.version.epoch,
                checksum: scored.version.checksum,
            })
        });
        let body = body.map_err(|e| format!("replay encode: {e}"))?;
        tr.close(root);
        let gen = (scored.version.epoch % 2) as usize;
        let t = Instant::now();
        self.f.gens[gen]
            .model
            .score_group_into(&mut self.ws, &group, &mut self.direct);
        self.forward_ns.push(t.elapsed().as_nanos() as u64);
        if !bit_equal(&scored.scores, &self.expected[gen][tag as usize])
            || !bit_equal(&self.direct, &scored.scores)
        {
            return Err(incorrect(format!("replay request {seq}: scores differ")));
        }
        self.request_bytes.push(wire.len() as f64);
        self.response_bytes.push(body.len() as f64);
        Ok(())
    }
}

fn run_traced(seed: u64, seconds: f64) -> Result<Outcome, Fail> {
    let f = setup(seed)?;
    let mut sheet = Sheet::default();
    sheet.put("setup.once_s", f.setup_s, "s");
    put_setup_layers(&mut sheet, &f);
    let checked = f.checked();
    let mut replay = Replay {
        f: &f,
        expected: &checked.expected,
        ws: od_tensor::Workspace::new(),
        direct: Vec::new(),
        forward_ns: Vec::new(),
        request_bytes: Vec::new(),
        response_bytes: Vec::new(),
    };
    let il = replay::interleave(
        Some((f.server.addr(), &checked)),
        seconds * 0.75,
        100,
        &mut replay,
    )?;
    // Publishes run beside the open loop only, so the interleaved wire and
    // replay figures are not split across generations.
    let (open, log) = publishing(&f, || {
        serving::traced_open(
            f.server.addr(),
            &checked,
            seconds * 0.25,
            RATE,
            f.funnel.engine(),
        )
    })?;
    let generations = confirm_epochs(&f, &log, &checked)?;
    replay::put_replay(&mut sheet, &il, &["engine.submit_wait"]);
    serving::put_engine(&mut sheet, &open);
    let forward = quantile_us(&replay.forward_ns, 0.5);
    sheet.put("rank.forward_us", forward, "us");
    let selfs = il.traced.self_times();
    sheet.put(
        "engine.overhead_us",
        self_us(&selfs, "engine.submit_wait") - forward,
        "us",
    );
    sheet.put("http.request_bytes", median(&replay.request_bytes), "B");
    sheet.put("http.response_bytes", median(&replay.response_bytes), "B");
    let publish_ns: Vec<u64> = log.iter().map(|p| p.ns).collect();
    sheet.put("swap.publish_us", quantile_us(&publish_ns, 0.5), "us");
    sheet.put("swap.publishes", log.len() as f64, "count");
    sheet.put(
        "swap.responses_per_generation",
        (il.single.tally.ok + open.open.tally.ok) as f64 / generations.max(1) as f64,
        "count",
    );

    let ctx = &f.groups[0];
    crate::probes::rank(&f.gens[0].model, ctx, &mut sheet);
    crate::probes::kernels(f.gens[0].model.config(), &mut sheet);
    sheet.put("artifact.cold_start_ms", cold_start(&f, ctx)?, "ms");

    let mut tally = il.single.tally;
    tally.add(&open.open.tally);
    let detail = jobj! {
        "phases": vec![
            serving::phase_json("single_connection_chunks", &il.single),
            serving::phase_json("open_loop", &open.open),
        ],
        "self_times": replay::self_time_summary(&il.traced),
        "publishes": log.len(),
        "generations_answering": generations,
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

/// Load → `Retriever::build` → first score of generation 0.
fn cold_start(f: &Fixture, ctx: &GroupInput) -> Result<f64, Fail> {
    let path = f.scratch.file("gen0.odz");
    let t = Instant::now();
    let model =
        Arc::new(FrozenOdNet::load_bin_mmap(&path).map_err(|e| format!("mmap .odz: {e:?}"))?);
    let _index = Retriever::build(Arc::clone(&model), f.funnel.config().retrieval);
    let first = model.score_group(ctx);
    let ms = secs(t) * 1e3;
    if !bit_equal(&first, &f.gens[0].model.score_group(ctx)) {
        return Err(incorrect("cold-started artifact scores differently"));
    }
    Ok(ms)
}
