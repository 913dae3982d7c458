//! O&D Joint Learning Component (paper §IV-C, Figure 5) — a Multi-gate
//! Mixture-of-Experts head, plus the single-task head used by the STL
//! ablation variants.
//!
//! Both heads emit *logits*; training applies the numerically stable
//! BCE-with-logits (the fold of Eqs. 9–10), and serving applies the sigmoid
//! to recover the paper's probabilities `p^O_c`, `p^D_c`.

use od_tensor::infer::{self, Workspace};
use od_tensor::nn::{Activation, FrozenLinear, FrozenMlp, Linear, Mlp};
use od_tensor::{Graph, ParamStore, Shape, Tensor, Value};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The MMoE joint-learning head: `experts` expert networks shared by both
/// tasks, two softmax gates (one per task), two tower networks.
#[derive(Clone, Debug)]
pub struct MmoeHead {
    experts: Vec<Linear>,
    gate_o: Linear,
    gate_d: Linear,
    tower_o: Mlp,
    tower_d: Mlp,
    expert_dim: usize,
}

impl MmoeHead {
    /// Register the head under `name`. `input_dim` is `2·d_q` (the width of
    /// `q⊕ = concat(q^O, q^D)`); `expert_dim` is `d_r`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        input_dim: usize,
        num_experts: usize,
        expert_dim: usize,
        tower_hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(num_experts >= 1, "need at least one expert");
        // Eq. 6: r_i = W^{expert_i} · q⊕. The paper calls the experts MLPs;
        // we follow Eq. 6's linear form plus a ReLU (the minimal MLP).
        let experts = (0..num_experts)
            .map(|i| {
                Linear::new(
                    store,
                    &format!("{name}.expert{i}"),
                    input_dim,
                    expert_dim,
                    true,
                    rng,
                )
            })
            .collect();
        // Eq. 7: r_g = softmax(W^{gate} · q⊕), bias-free as written.
        let gate_o = Linear::new(
            store,
            &format!("{name}.gate_o"),
            input_dim,
            num_experts,
            false,
            rng,
        );
        let gate_d = Linear::new(
            store,
            &format!("{name}.gate_d"),
            input_dim,
            num_experts,
            false,
            rng,
        );
        // Towers: "nonlinear transformation of the input with a sigmoid
        // layer" — one hidden ReLU layer, logit output.
        let tower_dims = [expert_dim, tower_hidden, 1];
        let tower_o = Mlp::new(
            store,
            &format!("{name}.tower_o"),
            &tower_dims,
            Activation::Relu,
            Activation::None,
            rng,
        );
        let tower_d = Mlp::new(
            store,
            &format!("{name}.tower_d"),
            &tower_dims,
            Activation::Relu,
            Activation::None,
            rng,
        );
        MmoeHead {
            experts,
            gate_o,
            gate_d,
            tower_o,
            tower_d,
            expert_dim,
        }
    }

    /// Forward `q⊕` (a `1×2d_q` row or vector) to the pair of task logits
    /// `(logit_O, logit_D)`, each `1×1`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, q_cat: Value) -> (Value, Value) {
        // Expert outputs stacked into [experts × d_r].
        let outs: Vec<Value> = self
            .experts
            .iter()
            .map(|e| {
                let lin = e.forward(g, store, q_cat);
                g.relu(lin)
            })
            .collect();
        let expert_matrix = g.concat_rows(&outs);
        let mix = |g: &mut Graph, gate: &Linear, tower: &Mlp| -> Value {
            let gate_logits = gate.forward(g, store, q_cat); // 1×experts
            let weights = g.softmax_rows(gate_logits);
            // Sum pooling with gate weights (Fig. 5): weights · experts.
            let r = g.matmul(weights, expert_matrix); // 1×d_r
            tower.forward(g, store, r) // 1×1 logit
        };
        let logit_o = mix(g, &self.gate_o, &self.tower_o);
        let logit_d = mix(g, &self.gate_d, &self.tower_d);
        (logit_o, logit_d)
    }

    /// Batched forward: `q_cat` is `[n × 2d_q]` with one row per candidate;
    /// output is the pair of `n×1` logit columns. Each expert, gate, and
    /// tower runs one matmul for the whole group. The gate mixing unrolls
    /// the `weights · experts` product over experts in ascending order —
    /// per element the same f32 accumulation order as [`MmoeHead::forward`],
    /// so the two paths agree to rounding.
    pub fn forward_batched(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        q_cat: Value,
    ) -> (Value, Value) {
        // Expert outputs, each [n × d_r].
        let outs: Vec<Value> = self
            .experts
            .iter()
            .map(|e| {
                let lin = e.forward(g, store, q_cat);
                g.relu(lin)
            })
            .collect();
        let mix = |g: &mut Graph, gate: &Linear, tower: &Mlp| -> Value {
            let gate_logits = gate.forward(g, store, q_cat); // n×experts
            let weights = g.softmax_rows(gate_logits);
            let mut r: Option<Value> = None;
            for (e, &out_e) in outs.iter().enumerate() {
                let w_e = g.slice_cols(weights, e, e + 1); // one weight per row
                let scaled = g.scale_rows(out_e, w_e); // n×d_r
                r = Some(match r {
                    Some(acc) => g.add(acc, scaled),
                    None => scaled,
                });
            }
            let r = r.expect("at least one expert");
            tower.forward(g, store, r) // n×1 logits
        };
        let logit_o = mix(g, &self.gate_o, &self.tower_o);
        let logit_d = mix(g, &self.gate_d, &self.tower_d);
        (logit_o, logit_d)
    }

    /// Expert output width `d_r`.
    pub fn expert_dim(&self) -> usize {
        self.expert_dim
    }

    /// Gate weights for diagnostics/tests: `(gate_O, gate_D)` rows over
    /// experts (each sums to 1).
    pub fn gate_weights(&self, g: &mut Graph, store: &ParamStore, q_cat: Value) -> (Value, Value) {
        let lo = self.gate_o.forward(g, store, q_cat);
        let go = g.softmax_rows(lo);
        let ld = self.gate_d.forward(g, store, q_cat);
        let gd = g.softmax_rows(ld);
        (go, gd)
    }

    /// Snapshot the head's current weights into a [`FrozenMmoeHead`].
    pub fn freeze(&self, store: &ParamStore) -> FrozenMmoeHead {
        FrozenMmoeHead::from_wire(FrozenMmoeWire {
            experts: self.experts.iter().map(|e| e.freeze(store)).collect(),
            gate_o: self.gate_o.freeze(store),
            gate_d: self.gate_d.freeze(store),
            tower_o: self.tower_o.freeze(store),
            tower_d: self.tower_d.freeze(store),
            expert_dim: self.expert_dim,
        })
    }
}

/// Inference-time snapshot of an [`MmoeHead`].
///
/// The `E` experts and both gates all read q⊕, so freezing fuses their
/// weights into one `in×stride` matrix with columns
/// `[W_expert₁ | … | W_expert_E | W_gate_O | W_gate_D | 0-pad]`
/// (`stride` = `E·d_r + 2E` rounded up to [`infer::GEMM_TILE`], so the GEMM
/// runs only full register tiles); one GEMM replaces `E + 2`. The expert
/// biases ride alongside (gates are bias-free, Eq. 7). Every output element
/// is the same sequential-`k` sum it was as a separate layer, so the fused
/// forward is bit-identical to the live tape.
///
/// On the wire (JSON artifact, `.odz` meta block) the head keeps its
/// per-layer schema ([`FrozenMmoeWire`]), so files written before the
/// fusion load unchanged and re-save to identical bytes.
#[derive(Clone, Debug)]
pub struct FrozenMmoeHead {
    /// `in_dim×stride` row-major fused weight.
    fused: Vec<f32>,
    /// `[b_expert₁ | … | b_expert_E]`, length `E·d_r`.
    expert_bias: Vec<f32>,
    in_dim: usize,
    experts: usize,
    expert_dim: usize,
    tower_o: FrozenMlp,
    tower_d: FrozenMlp,
    /// Why the wire layers could not be fused (mutually inconsistent
    /// geometry in an untrusted file). Such a head is empty and
    /// [`FrozenMmoeHead::check`] reports this, so the load fails typed.
    unfusable: Option<String>,
}

/// The per-layer serialized form of a [`FrozenMmoeHead`] — the artifact
/// schema since the first format version.
#[derive(Serialize, Deserialize)]
struct FrozenMmoeWire {
    experts: Vec<FrozenLinear>,
    gate_o: FrozenLinear,
    gate_d: FrozenLinear,
    tower_o: FrozenMlp,
    tower_d: FrozenMlp,
    expert_dim: usize,
}

impl Serialize for FrozenMmoeHead {
    fn to_content(&self) -> serde::Content {
        self.to_wire().to_content()
    }
}

impl Deserialize for FrozenMmoeHead {
    fn from_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        FrozenMmoeWire::from_content(content).map(FrozenMmoeHead::from_wire)
    }
}

impl FrozenMmoeHead {
    /// Fused width: expert columns, both gates, padding to the GEMM tile.
    fn stride(&self) -> usize {
        (self.experts * (self.expert_dim + 2)).next_multiple_of(infer::GEMM_TILE)
    }

    /// Fuse the per-layer form. Geometry that cannot be fused (layers that
    /// disagree on input width, an expert off the declared width, a gate
    /// with a bias) yields an empty head carrying the reason.
    fn from_wire(w: FrozenMmoeWire) -> Self {
        let (num, dr, in_dim) = (w.experts.len(), w.expert_dim, w.gate_o.in_dim());
        let mut head = FrozenMmoeHead {
            fused: Vec::new(),
            expert_bias: Vec::new(),
            in_dim: 0,
            experts: 0,
            expert_dim: dr,
            tower_o: w.tower_o,
            tower_d: w.tower_d,
            unfusable: None,
        };
        if let Err(why) = fusable(&w.experts, &w.gate_o, &w.gate_d, dr) {
            head.unfusable = Some(why);
            return head;
        }
        (head.in_dim, head.experts) = (in_dim, num);
        let stride = head.stride();
        let mut fused = vec![0.0f32; in_dim * stride];
        let layers = w.experts.iter().chain([&w.gate_o, &w.gate_d]);
        let mut col = 0;
        for layer in layers {
            let width = layer.out_dim();
            for (p, src) in layer.weight().as_slice().chunks_exact(width).enumerate() {
                fused[p * stride + col..p * stride + col + width].copy_from_slice(src);
            }
            col += width;
        }
        head.fused = fused;
        head.expert_bias = w
            .experts
            .iter()
            .flat_map(|e| e.bias().map_or(&[][..], |b| b.as_slice()))
            .copied()
            .collect();
        head
    }

    /// Split the fused weight back into the per-layer wire form.
    fn to_wire(&self) -> FrozenMmoeWire {
        let (num, dr, in_dim, stride) = (self.experts, self.expert_dim, self.in_dim, self.stride());
        let columns = |col: usize, width: usize| {
            let data = (0..in_dim)
                .flat_map(|p| &self.fused[p * stride + col..p * stride + col + width])
                .copied()
                .collect();
            Tensor::new(Shape::Matrix(in_dim, width), data)
        };
        let experts = (0..num)
            .map(|e| {
                let bias = self.expert_bias[e * dr..(e + 1) * dr].to_vec();
                FrozenLinear::from_parts(
                    columns(e * dr, dr),
                    Some(Tensor::new(Shape::Vector(dr), bias)),
                )
            })
            .collect();
        FrozenMmoeWire {
            experts,
            gate_o: FrozenLinear::from_parts(columns(num * dr, num), None),
            gate_d: FrozenLinear::from_parts(columns(num * dr + num, num), None),
            tower_o: self.tower_o.clone(),
            tower_d: self.tower_d.clone(),
            expert_dim: dr,
        }
    }

    /// Validate the fused geometry against the concatenated task dimension
    /// and the configured expert pool: fused width `E·d_r + 2E` padded to
    /// the GEMM tile, bias length `E·d_r`, finite weights, and both towers.
    pub(crate) fn check(
        &self,
        what: &str,
        q_cat_dim: usize,
        experts: usize,
        expert_dim: usize,
    ) -> Result<(), od_tensor::nn::FrozenCheckError> {
        use od_tensor::nn::FrozenCheckError;
        if let Some(why) = &self.unfusable {
            return Err(FrozenCheckError::Shape(format!("{what}.{why}")));
        }
        if self.experts != experts {
            return Err(FrozenCheckError::Shape(format!(
                "{what}: {} experts but the config declares {experts}",
                self.experts
            )));
        }
        if self.expert_dim != expert_dim {
            return Err(FrozenCheckError::Shape(format!(
                "{what}: expert width {} but the config declares {expert_dim}",
                self.expert_dim
            )));
        }
        if self.in_dim != q_cat_dim {
            return Err(FrozenCheckError::Shape(format!(
                "{what}: experts and gates read {} features, expected {q_cat_dim}",
                self.in_dim
            )));
        }
        let stride = self.stride();
        if self.fused.len() != q_cat_dim * stride {
            return Err(FrozenCheckError::Shape(format!(
                "{what}.fused: {} values, expected {q_cat_dim}x{stride} \
                 ({experts}·{expert_dim} expert + {} gate columns, padded)",
                self.fused.len(),
                2 * experts
            )));
        }
        if self.expert_bias.len() != experts * expert_dim {
            return Err(FrozenCheckError::Shape(format!(
                "{what}.expert_bias: {} values, expected {}",
                self.expert_bias.len(),
                experts * expert_dim
            )));
        }
        if !self
            .fused
            .iter()
            .chain(&self.expert_bias)
            .all(|v| v.is_finite())
        {
            return Err(FrozenCheckError::NonFinite(format!(
                "{what} expert/gate weights contain NaN or infinite values"
            )));
        }
        self.tower_o
            .check(&format!("{what}.tower_o"), expert_dim, 1)?;
        self.tower_d
            .check(&format!("{what}.tower_d"), expert_dim, 1)
    }

    /// Tape-free counterpart of [`MmoeHead::forward_batched`]: `q_cat` is
    /// `n×2d_q`; returns the `(logit_O, logit_D)` columns as length-`n`
    /// workspace buffers. One GEMM yields every expert and gate column;
    /// per row, the expert columns get bias then ReLU (Eq. 6) and each
    /// gate's slice a softmax (Eq. 7), the same elementwise kernels as the
    /// live path. The gate mix then accumulates experts in ascending order
    /// with a separate multiply-then-add per element, reading each expert's
    /// strided columns — the live path's order, so the logits are
    /// bit-identical.
    pub fn forward_batched(
        &self,
        ws: &mut Workspace,
        q_cat: &[f32],
        n: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        let (num, dr, stride) = (self.experts, self.expert_dim, self.stride());
        let ew = num * dr;
        let mut h = ws.take(n * stride);
        infer::matmul_into(q_cat, n, self.in_dim, &self.fused, stride, &mut h);
        for row in h.chunks_exact_mut(stride) {
            infer::add_row_in_place(&mut row[..ew], ew, &self.expert_bias);
            infer::relu_in_place(&mut row[..ew]);
            infer::softmax_rows_in_place(&mut row[ew..ew + 2 * num], num);
        }
        let mut mix = |gate: usize, tower: &FrozenMlp| -> Vec<f32> {
            let mut r = ws.take(n * dr);
            for (row, hrow) in r.chunks_exact_mut(dr).zip(h.chunks_exact(stride)) {
                for e in 0..num {
                    let w = hrow[gate + e];
                    for (acc, &x) in row.iter_mut().zip(&hrow[e * dr..(e + 1) * dr]) {
                        if e == 0 {
                            *acc = w * x;
                        } else {
                            *acc += w * x;
                        }
                    }
                }
            }
            let logits = tower.forward(ws, &r, n); // n×1
            ws.give(r);
            logits
        };
        let logit_o = mix(ew, &self.tower_o);
        let logit_d = mix(ew + num, &self.tower_d);
        ws.give(h);
        (logit_o, logit_d)
    }
}

/// Can these layers fuse into one matrix? Every expert and gate must read
/// the same width, experts must emit `expert_dim` with a bias, and gates
/// must emit one logit per expert without one. Buffer/shape agreement of
/// each layer is checked first so the fusion copy cannot go out of bounds.
fn fusable(
    experts: &[FrozenLinear],
    gate_o: &FrozenLinear,
    gate_d: &FrozenLinear,
    expert_dim: usize,
) -> Result<(), String> {
    use od_tensor::nn::FrozenCheckError;
    let num = experts.len();
    if num == 0 || expert_dim == 0 {
        return Err(format!("experts: {num} of width {expert_dim}"));
    }
    let in_dim = gate_o.in_dim();
    let named = experts
        .iter()
        .enumerate()
        .map(|(e, l)| (format!("expert{e}"), l, expert_dim, true))
        .chain([
            ("gate_o".to_string(), gate_o, num, false),
            ("gate_d".to_string(), gate_d, num, false),
        ]);
    for (name, layer, width, biased) in named {
        if let Err(FrozenCheckError::Shape(why)) = layer.check(&name) {
            return Err(why);
        }
        if layer.in_dim() != in_dim || layer.out_dim() != width {
            return Err(format!(
                "{name}: maps {}→{}, expected {in_dim}→{width}",
                layer.in_dim(),
                layer.out_dim()
            ));
        }
        if layer.bias().is_some() != biased {
            return Err(format!(
                "{name}: {} a bias",
                if biased { "lacks" } else { "carries" }
            ));
        }
    }
    Ok(())
}

/// Single-task head for the STL variants: two independent towers, one over
/// `q^O` and one over `q^D`, with no shared parameters and no expert mixing
/// — exactly "learning O and D in a separate manner".
#[derive(Clone, Debug)]
pub struct SingleTaskHead {
    tower_o: Mlp,
    tower_d: Mlp,
}

impl SingleTaskHead {
    /// Register the head under `name`. `q_dim` is the width of each task's
    /// own representation.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        q_dim: usize,
        tower_hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let dims = [q_dim, tower_hidden, 1];
        SingleTaskHead {
            tower_o: Mlp::new(
                store,
                &format!("{name}.tower_o"),
                &dims,
                Activation::Relu,
                Activation::None,
                rng,
            ),
            tower_d: Mlp::new(
                store,
                &format!("{name}.tower_d"),
                &dims,
                Activation::Relu,
                Activation::None,
                rng,
            ),
        }
    }

    /// Forward the two task representations independently to `(logit_O,
    /// logit_D)`.
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        q_o: Value,
        q_d: Value,
    ) -> (Value, Value) {
        (
            self.tower_o.forward(g, store, q_o),
            self.tower_d.forward(g, store, q_d),
        )
    }

    /// Snapshot the head's current weights into a [`FrozenSingleHead`].
    pub fn freeze(&self, store: &ParamStore) -> FrozenSingleHead {
        FrozenSingleHead {
            tower_o: self.tower_o.freeze(store),
            tower_d: self.tower_d.freeze(store),
        }
    }
}

/// Inference-time snapshot of a [`SingleTaskHead`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FrozenSingleHead {
    tower_o: FrozenMlp,
    tower_d: FrozenMlp,
}

impl FrozenSingleHead {
    /// Validate both towers against the task dimension `q_dim`.
    pub(crate) fn check(
        &self,
        what: &str,
        q_dim: usize,
    ) -> Result<(), od_tensor::nn::FrozenCheckError> {
        self.tower_o.check(&format!("{what}.tower_o"), q_dim, 1)?;
        self.tower_d.check(&format!("{what}.tower_d"), q_dim, 1)
    }

    /// Tape-free counterpart of [`SingleTaskHead::forward`] over `n×d_q`
    /// task representations; returns length-`n` logit buffers.
    pub fn forward_batched(
        &self,
        ws: &mut Workspace,
        q_o: &[f32],
        q_d: &[f32],
        n: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        (
            self.tower_o.forward(ws, q_o, n),
            self.tower_d.forward(ws, q_d, n),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_tensor::{init, Shape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const Q2: usize = 12;

    fn head(store: &mut ParamStore) -> MmoeHead {
        MmoeHead::new(store, "mmoe", Q2, 3, 6, 5, &mut StdRng::seed_from_u64(2))
    }

    fn q(g: &mut Graph, seed: u64) -> Value {
        g.input(init::gaussian(
            Shape::Matrix(1, Q2),
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(seed),
        ))
    }

    #[test]
    fn logits_are_scalarish() {
        let mut store = ParamStore::new();
        let h = head(&mut store);
        assert_eq!(h.expert_dim(), 6);
        let mut g = Graph::new();
        let qv = q(&mut g, 1);
        let (lo, ld) = h.forward(&mut g, &store, qv);
        assert_eq!(g.value(lo).len(), 1);
        assert_eq!(g.value(ld).len(), 1);
    }

    #[test]
    fn gate_outputs_sum_to_one() {
        let mut store = ParamStore::new();
        let h = head(&mut store);
        let mut g = Graph::new();
        let qv = q(&mut g, 3);
        let (go, gd) = h.gate_weights(&mut g, &store, qv);
        for gate in [go, gd] {
            let t = g.value(gate);
            assert_eq!(t.len(), 3);
            assert!((t.sum() - 1.0).abs() < 1e-5);
            assert!(t.as_slice().iter().all(|&w| w >= 0.0));
        }
    }

    #[test]
    fn tasks_see_different_mixtures() {
        // The whole point of MMoE: the two gates can weight experts
        // differently for the two tasks.
        let mut store = ParamStore::new();
        let h = head(&mut store);
        let mut g = Graph::new();
        let qv = q(&mut g, 4);
        let (go, gd) = h.gate_weights(&mut g, &store, qv);
        assert_ne!(g.value(go).as_slice(), g.value(gd).as_slice());
    }

    #[test]
    fn gradients_reach_both_towers_and_all_experts() {
        let mut store = ParamStore::new();
        let h = head(&mut store);
        let mut g = Graph::new();
        let qv = q(&mut g, 5);
        let (lo, ld) = h.forward(&mut g, &store, qv);
        let s = g.add(lo, ld);
        let loss = g.sum_all(s);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        for name in [
            "mmoe.expert0.w",
            "mmoe.expert1.w",
            "mmoe.expert2.w",
            "mmoe.gate_o.w",
            "mmoe.gate_d.w",
            "mmoe.tower_o.l0.w",
            "mmoe.tower_d.l1.w",
        ] {
            let id = store.lookup(name).unwrap();
            assert!(store.grad(id).sq_norm() > 0.0, "no grad at {name}");
        }
    }

    #[test]
    fn single_task_head_is_independent() {
        let mut store = ParamStore::new();
        let h = SingleTaskHead::new(&mut store, "stl", 6, 4, &mut StdRng::seed_from_u64(9));
        let mut g = Graph::new();
        let qo = g.input(init::gaussian(
            Shape::Matrix(1, 6),
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(10),
        ));
        let qd = g.input(init::gaussian(
            Shape::Matrix(1, 6),
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(11),
        ));
        let (lo, ld) = h.forward(&mut g, &store, qo, qd);
        // Backprop through the O logit only: D-tower params must stay
        // untouched (no parameter sharing between the tasks).
        let loss = g.sum_all(lo);
        g.backward(loss);
        g.accumulate_param_grads(&mut store);
        let od_grad = store.grad(store.lookup("stl.tower_d.l0.w").unwrap());
        assert_eq!(od_grad.sq_norm(), 0.0);
        let o_grad = store.grad(store.lookup("stl.tower_o.l0.w").unwrap());
        assert!(o_grad.sq_norm() > 0.0);
        let _ = ld;
    }

    #[test]
    fn frozen_mmoe_matches_batched_live_bitwise() {
        let mut store = ParamStore::new();
        let h = head(&mut store);
        let frozen = h.freeze(&store);
        let x = init::gaussian(
            Shape::Matrix(4, Q2),
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(7),
        );
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let (lo, ld) = h.forward_batched(&mut g, &store, xv);
        let mut ws = Workspace::new();
        let (fo, fd) = frozen.forward_batched(&mut ws, x.as_slice(), 4);
        assert_eq!(fo.as_slice(), g.value(lo).as_slice());
        assert_eq!(fd.as_slice(), g.value(ld).as_slice());
    }

    #[test]
    fn frozen_single_head_matches_live_bitwise() {
        let mut store = ParamStore::new();
        let h = SingleTaskHead::new(&mut store, "stl", 6, 4, &mut StdRng::seed_from_u64(9));
        let frozen = h.freeze(&store);
        let qo = init::gaussian(
            Shape::Matrix(3, 6),
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(10),
        );
        let qd = init::gaussian(
            Shape::Matrix(3, 6),
            0.0,
            1.0,
            &mut StdRng::seed_from_u64(11),
        );
        let mut g = Graph::new();
        let qov = g.input(qo.clone());
        let qdv = g.input(qd.clone());
        let (lo, ld) = h.forward(&mut g, &store, qov, qdv);
        let mut ws = Workspace::new();
        let (fo, fd) = frozen.forward_batched(&mut ws, qo.as_slice(), qd.as_slice(), 3);
        assert_eq!(fo.as_slice(), g.value(lo).as_slice());
        assert_eq!(fd.as_slice(), g.value(ld).as_slice());
    }

    #[test]
    #[should_panic(expected = "at least one expert")]
    fn rejects_zero_experts() {
        MmoeHead::new(
            &mut ParamStore::new(),
            "m",
            4,
            0,
            4,
            4,
            &mut StdRng::seed_from_u64(0),
        );
    }
}
