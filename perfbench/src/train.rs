//! `train-odnet`: `odnet_core::train` of full ODNET (HSGC K = 2, cap 5,
//! d = 16, 4 heads) on a 300-user × 120-city Fliggy dataset for 5 epochs
//! with `nproc` workers, then `evaluate_on_fliggy`. The paper's Table V
//! efficiency claim, and the only workload that runs HSGC, autograd
//! backward and Adam; it bypasses every serving layer.

use crate::replay;
use crate::serving::nproc;
use crate::util::{
    cpu_s, derive, incorrect, median, mix, quantile_us, secs, self_us, thread_cpu_ns, Fail,
    Outcome, Scratch, Sheet, Tracer,
};
use od_data::{FliggyConfig, FliggyDataset};
use od_hsg::{Hsg, HsgBuilder};
use od_retrieval::Retriever;
use od_tensor::Graph;
use odnet_core::{
    evaluate_on_fliggy, try_train, FeatureExtractor, FliggyEvaluation, FrozenOdNet, GroupInput,
    OdNetModel, OdnetConfig, TrainReport, Variant,
};
use std::sync::Arc;
use std::time::Instant;

pub const USERS: usize = 300;
pub const CITIES: usize = 120;
pub const EPOCHS: usize = 5;
const SETUPS: usize = 3;
/// Groups whose single-group step (forward + backward) is timed for the
/// latency metrics.
const STEP_GROUPS: usize = 400;

struct Fixture {
    ds: FliggyDataset,
    fx: FeatureExtractor,
    hsg: Hsg,
    groups: Vec<GroupInput>,
    config: OdnetConfig,
    model: Option<OdNetModel>,
    generate_s: f64,
    hsg_ms: f64,
    featurize_ms: f64,
    setup_s: f64,
}

impl Fixture {
    fn model(&self, variant: Variant, epochs: usize) -> OdNetModel {
        let hsg = variant.uses_graph().then(|| self.hsg.clone());
        let config = OdnetConfig {
            epochs,
            ..self.config.clone()
        };
        OdNetModel::new(variant, config, USERS, CITIES, hsg)
    }
}

/// Generate the dataset, build the HSG, featurize the training groups,
/// assemble the model.
fn setup(seed: u64) -> Fixture {
    let t0 = Instant::now();
    let t = Instant::now();
    let ds = FliggyDataset::generate(FliggyConfig {
        num_users: USERS,
        num_cities: CITIES,
        seed: derive(seed, 0x7EA1),
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
    let config = OdnetConfig {
        epochs: EPOCHS,
        workers: nproc(),
        seed: derive(seed, 0x0DE7),
        ..OdnetConfig::default()
    };
    let fx = FeatureExtractor::new(config.max_long_seq, config.max_short_seq);
    let t = Instant::now();
    let groups = fx.groups_from_samples(&ds, &ds.train);
    let featurize_ms = secs(t) * 1e3;
    let mut f = Fixture {
        ds,
        fx,
        hsg,
        groups,
        config,
        model: None,
        generate_s,
        hsg_ms,
        featurize_ms,
        setup_s: 0.0,
    };
    f.model = Some(f.model(Variant::Odnet, EPOCHS));
    f.setup_s = secs(t0);
    f
}

struct Trained {
    model: OdNetModel,
    report: TrainReport,
    /// Process CPU seconds `try_train` used.
    cpu_s: f64,
    eval: FliggyEvaluation,
}

fn train_once(f: &mut Fixture) -> Result<Trained, Fail> {
    let mut model = match f.model.take() {
        Some(m) => m,
        None => f.model(Variant::Odnet, EPOCHS),
    };
    let c0 = cpu_s();
    let report = try_train(&mut model, &f.groups)
        .map_err(|e| incorrect(format!("training aborted: {e}")))?;
    let cpu_s = cpu_s() - c0;
    if !report.epoch_losses.iter().all(|l| l.is_finite()) {
        return Err(incorrect("non-finite epoch loss"));
    }
    let eval = evaluate_on_fliggy(&model, &f.ds, &f.fx);
    Ok(Trained {
        model,
        report,
        cpu_s,
        eval,
    })
}

/// The same seed and worker count must give the same losses and AUCs, bit
/// for bit.
fn same_run(a: &Trained, b: &Trained) -> bool {
    let bits = |t: &Trained| {
        let mut v: Vec<u64> = t
            .report
            .epoch_losses
            .iter()
            .map(|l| l.to_bits() as u64)
            .collect();
        v.push(t.eval.auc_o.to_bits());
        v.push(t.eval.auc_d.to_bits());
        v
    };
    bits(a) == bits(b)
}

/// Groups in a seeded order.
fn order(seed: u64, n: usize) -> Vec<usize> {
    let key = derive(seed, 0x0DD);
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| mix(key ^ i as u64));
    idx
}

/// One replayed training step of one group: `group_loss` then
/// `Graph::backward`, each in a span.
struct Steps<'a> {
    model: &'a OdNetModel,
    groups: &'a [GroupInput],
    order: Vec<usize>,
    graph: Graph,
}

impl replay::Replay for Steps<'_> {
    fn one(&mut self, tr: &mut Tracer, seq: u64) -> Result<(), Fail> {
        let group = &self.groups[self.order[seq as usize % self.order.len()]];
        let (model, g) = (self.model, &mut self.graph);
        let root = tr.open("train.step", seq, None);
        g.reset();
        let loss = tr.span("train.forward", seq, Some(root), || {
            model.group_loss(g, group)
        });
        if !g.value(loss).item().is_finite() {
            return Err(incorrect(format!("non-finite loss on replayed step {seq}")));
        }
        tr.span("train.backward", seq, Some(root), || g.backward(loss));
        tr.close(root);
        Ok(())
    }
}

fn put_setup_layers(sheet: &mut Sheet, f: &Fixture) {
    sheet.put("data.generate_s", f.generate_s, "s");
    sheet.put("data.featurize_ms", f.featurize_ms, "ms");
    sheet.put("hsg.build_ms", f.hsg_ms, "ms");
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, Fail> {
    if trace {
        return run_traced(seed, seconds);
    }
    let mut times = Vec::new();
    let mut f = setup(seed);
    times.push(f.setup_s);
    for _ in 1..SETUPS {
        drop(f);
        f = setup(seed);
        times.push(f.setup_s);
    }
    let start = Instant::now();
    let mut runs: Vec<Trained> = Vec::new();
    while runs.len() < 2 || secs(start) < seconds {
        let t = train_once(&mut f)?;
        if let Some(first) = runs.first() {
            if !same_run(first, &t) {
                return Err(incorrect(
                    "losses or AUCs differ between repeats at one seed and worker count",
                ));
            }
        }
        runs.push(t);
    }
    // The single-group training step of the trained model, group by group,
    // in thread CPU time (the step is single-threaded, so this is its cost
    // without the hypervisor's steal): its latency distribution.
    let last = runs.last().expect("at least one training");
    let mut g = Graph::new();
    let mut step_ns = Vec::new();
    for &i in order(seed, f.groups.len()).iter().take(STEP_GROUPS) {
        let t = thread_cpu_ns();
        g.reset();
        let loss = last.model.group_loss(&mut g, &f.groups[i]);
        g.backward(loss);
        step_ns.push(thread_cpu_ns() - t);
    }
    let rss = crate::util::rss_mb();
    let per_group = (f.groups.len() * EPOCHS) as f64;
    let rates: Vec<f64> = runs.iter().map(|r| per_group / r.cpu_s).collect();
    let wall: Vec<f64> = runs.iter().map(|r| r.report.groups_per_second).collect();
    let mut sheet = Sheet::default();
    sheet.put("setup_s", median(&times), "s");
    sheet.put("ops_per_cpu_s", median(&rates), "1/s");
    sheet.put("train_groups_per_s", median(&wall), "1/s");
    sheet.put("p50_us", quantile_us(&step_ns, 0.5), "us");
    sheet.put("p90_us", quantile_us(&step_ns, 0.9), "us");
    sheet.put("ok_rate", 1.0, "ratio");
    sheet.put("rss_mb", rss, "MiB");
    sheet.put("auc_o", last.eval.auc_o, "ratio");
    sheet.put("auc_d", last.eval.auc_d, "ratio");
    put_setup_layers(&mut sheet, &f);
    let trained = (f.groups.len() * EPOCHS * runs.len()) as u64;
    let detail = jobj! {
        "setup_s_each": times,
        "trainings": runs.len(),
        "groups": f.groups.len(),
        "epochs": EPOCHS,
        "groups_per_cpu_s_each": rates,
        "groups_per_s_each": wall,
        "epoch_losses": last.report.epoch_losses,
        "auc_o": last.eval.auc_o,
        "auc_d": last.eval.auc_d,
        "hr5": last.eval.ranking.hr5,
        "mrr5": last.eval.ranking.mrr5,
        "timed_steps": step_ns.len(),
    };
    Ok(Outcome {
        sheet,
        attempted: trained,
        failed: 0,
        detail,
        spans: None,
    })
}

fn run_traced(seed: u64, seconds: f64) -> Result<Outcome, Fail> {
    let mut f = setup(seed);
    let mut sheet = Sheet::default();
    sheet.put("setup.once_s", f.setup_s, "s");
    put_setup_layers(&mut sheet, &f);
    let trained = train_once(&mut f)?;
    let epochs: Vec<f64> = trained.report.epochs.iter().map(|e| e.wall_secs).collect();
    sheet.put("train.epoch_s", median(&epochs), "s");
    sheet.put("train.auc_o", trained.eval.auc_o, "ratio");
    sheet.put("train.auc_d", trained.eval.auc_d, "ratio");
    sheet.put(
        "train_groups_per_s",
        trained.report.groups_per_second,
        "1/s",
    );

    // Replay of single-group steps in a seeded order, untraced and traced
    // chunks alternating.
    let model = &trained.model;
    let mut steps = Steps {
        model,
        groups: &f.groups,
        order: order(seed, f.groups.len()),
        graph: Graph::new(),
    };
    let il = replay::interleave(None, seconds / 2.0, 20, &mut steps)?;
    let selfs = il.traced.self_times();
    sheet.put("train.forward_us", self_us(&selfs, "train.forward"), "us");
    sheet.put("train.backward_us", self_us(&selfs, "train.backward"), "us");
    sheet.put("obs.trace_overhead", il.off_per_s / il.on_per_s, "ratio");
    sheet.put("replay.steps", il.replayed as f64, "count");

    // HSGC's share of training: one epoch of ODNET−G against one epoch of
    // ODNET on the same groups.
    let epoch_wall = |variant: Variant| -> Result<f64, Fail> {
        let mut m = f.model(variant, 1);
        let r = try_train(&mut m, &f.groups)
            .map_err(|e| incorrect(format!("training aborted: {e}")))?;
        Ok(r.wall_time.as_secs_f64())
    };
    let without = epoch_wall(Variant::OdnetG)?;
    let with = epoch_wall(Variant::Odnet)?;
    sheet.put("train.hsgc_share", 1.0 - without / with, "ratio");

    // The trained model through the artifact layer.
    let scratch = Scratch::new()?;
    let t = Instant::now();
    let frozen = model.freeze();
    sheet.put("artifact.freeze_s", secs(t), "s");
    let path = scratch.file("trained.odz");
    let t = Instant::now();
    frozen
        .save_bin(&path)
        .map_err(|e| format!("save .odz: {e:?}"))?;
    sheet.put("artifact.save_s", secs(t), "s");
    sheet.put(
        "artifact.bytes",
        std::fs::metadata(&path).map_or(0, |m| m.len()) as f64,
        "B",
    );
    let ctx = f.fx.groups_from_samples(&f.ds, &f.ds.test)[0].clone();
    let t = Instant::now();
    let loaded =
        Arc::new(FrozenOdNet::load_bin_mmap(&path).map_err(|e| format!("mmap .odz: {e:?}"))?);
    sheet.put("artifact.load_ms", secs(t) * 1e3, "ms");
    let _index = Retriever::build(Arc::clone(&loaded), Default::default());
    let first = loaded.score_group(&ctx);
    sheet.put("artifact.cold_start_ms", secs(t) * 1e3, "ms");
    if first != model.score_group(&ctx) || first != frozen.score_group(&ctx) {
        return Err(incorrect(
            "frozen artifact scores differ from the trained model",
        ));
    }
    crate::probes::rank(&loaded, &ctx, &mut sheet);
    crate::probes::kernels(&f.config, &mut sheet);

    let detail = jobj! {
        "groups": f.groups.len(),
        "epochs": EPOCHS,
        "epoch_losses": trained.report.epoch_losses,
        "one_epoch_s": jobj!{"odnet": with, "odnet_g": without},
        "self_times": replay::self_time_summary(&il.traced),
    };
    Ok(Outcome {
        sheet,
        attempted: (f.groups.len() * EPOCHS) as u64 + il.replayed,
        failed: 0,
        detail,
        spans: Some(il.traced.to_chrome_json()),
    })
}
