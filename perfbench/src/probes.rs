//! Layer probes that time one public function in isolation: the GEMM
//! kernel at the frozen head's shapes, and the frozen forward at 1 and 64
//! candidates (which separates the per-request trunk from the
//! per-candidate head).

use crate::util::{median, unit, Sheet};
use od_tensor::infer::{matmul_into, Workspace};
use odnet_core::{FrozenOdNet, GroupInput, OdnetConfig};
use std::hint::black_box;
use std::time::Instant;

/// Rows per kernel call: one 64-candidate request.
const ROWS: usize = 64;

/// Mean ns per call of `f` over `reps` calls.
fn per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_nanos() as f64 / reps as f64
}

/// `infer::matmul_into` at the expert (`64×q⊕×d_r`), gate (`64×q⊕×E`) and
/// tower-output (`64×h×1`) shapes of the frozen MMoE head. Rates are
/// measured; MACs and bytes moved per call are computed from the tensor
/// sizes (f32 operands read once, result written once).
pub fn kernels(cfg: &OdnetConfig, sheet: &mut Sheet) {
    let q_cat = 2 * cfg.q_dim();
    let shapes = [
        ("expert", q_cat, cfg.expert_dim),
        ("gate", q_cat, cfg.experts),
        ("tower", cfg.tower_hidden, 1),
    ];
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); shapes.len()];
    let data: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = shapes
        .iter()
        .map(|&(_, k, n)| {
            let a = (0..ROWS * k).map(|i| unit(i as u64) - 0.5).collect();
            let b = (0..k * n).map(|i| unit(!(i as u64)) - 0.5).collect();
            (a, b, vec![0.0; ROWS * n])
        })
        .collect();
    let mut data = data;
    // Interleaved rounds, so interference on a shared machine lands on
    // every shape alike; the median round is kept.
    for _ in 0..15 {
        for (i, &(_, k, n)) in shapes.iter().enumerate() {
            let (a, b, out) = &mut data[i];
            let reps = (2_000_000 / (ROWS * k * n)).clamp(50, 20_000);
            times[i].push(per_call(reps, || {
                matmul_into(black_box(a), ROWS, k, black_box(b), n, out);
                black_box(&out);
            }));
        }
    }
    for (i, &(name, k, n)) in shapes.iter().enumerate() {
        let macs = (ROWS * k * n) as f64;
        let bytes = (4 * (ROWS * k + k * n + ROWS * n)) as f64;
        let ns = median(&times[i]);
        sheet.put(&format!("kernel.{name}_gmacs"), macs / ns, "GMAC/s");
        sheet.put(&format!("kernel.{name}_macs_computed"), macs, "count");
        sheet.put(&format!("kernel.{name}_bytes_computed"), bytes, "B");
    }
}

/// The frozen forward of `ctx`'s context at 1 and at 64 candidates (its
/// candidates cycled), timed interleaved; the intercept of the line through
/// the two medians is the per-request trunk, the slope the per-candidate
/// cost of q assembly, MMoE and towers. Sets `rank.forward_us` to the
/// 64-candidate time when the workload has not measured it on its own
/// requests.
pub fn rank(model: &FrozenOdNet, ctx: &GroupInput, sheet: &mut Sheet) {
    assert!(!ctx.candidates.is_empty(), "rank probe needs a candidate");
    let with = |n: usize| GroupInput {
        candidates: ctx.candidates.iter().cycle().take(n).copied().collect(),
        ..ctx.clone()
    };
    let (one, full) = (with(1), with(ROWS));
    let mut ws = Workspace::new();
    let mut out = Vec::new();
    let (mut t1, mut t64) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        t1.push(per_call(200, || {
            model.score_group_into(&mut ws, black_box(&one), &mut out)
        }));
        t64.push(per_call(40, || {
            model.score_group_into(&mut ws, black_box(&full), &mut out)
        }));
    }
    let (a, b) = (median(&t1), median(&t64));
    if sheet.get("rank.forward_us").is_none() {
        sheet.put("rank.forward_us", b / 1e3, "us");
    }
    let slope = (b - a) / (ROWS - 1) as f64;
    sheet.put("rank.trunk_us", (a - slope) / 1e3, "us");
    sheet.put("rank.per_candidate_us", slope / 1e3, "us");
}
