//! Structural analyses over CDFGs used by the schedulers.
//!
//! The central export is [`lambda`], the expected delay-weighted longest
//! path from each operation to a primary output — the λ(op) quantity of
//! Eq. (5) in the paper, which (multiplied by the probability of the
//! operation's speculation condition) ranks candidates during operation
//! selection.

use crate::{Cdfg, OpId, OpKind, PortKind};
use std::collections::HashMap;

/// Branch probabilities: for each conditional operation, the probability
/// that it evaluates true. Conditions absent from the map default to 0.5.
///
/// Profiling (running the behavioral golden model over representative
/// traces) produces these; see `hls-sim`'s profiler.
#[derive(Debug, Clone, Default)]
pub struct BranchProbs {
    map: HashMap<OpId, f64>,
}

impl BranchProbs {
    /// Creates an empty table (everything defaults to 0.5).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `P(op = true)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn set(&mut self, op: OpId, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.map.insert(op, p);
    }

    /// Looks up `P(op = true)`, defaulting to 0.5.
    pub fn get(&self, op: OpId) -> f64 {
        self.map.get(&op).copied().unwrap_or(0.5)
    }

    /// Iterates over explicitly set probabilities.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, f64)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }
}

impl FromIterator<(OpId, f64)> for BranchProbs {
    fn from_iter<I: IntoIterator<Item = (OpId, f64)>>(iter: I) -> Self {
        BranchProbs {
            map: iter.into_iter().collect(),
        }
    }
}

/// Topologically orders operations over intra-wave wire edges
/// (loop-carried edges are feedback and excluded).
///
/// # Errors
///
/// Returns the operations on a combinational cycle if one exists.
pub fn intra_topo_order(g: &Cdfg) -> Result<Vec<OpId>, Vec<OpId>> {
    let n = g.ops().len();
    let mut state = vec![0u8; n]; // 0 = white, 1 = gray, 2 = black
    let mut order = Vec::with_capacity(n);
    let mut cycle = Vec::new();

    fn visit(
        g: &Cdfg,
        id: OpId,
        state: &mut [u8],
        order: &mut Vec<OpId>,
        cycle: &mut Vec<OpId>,
    ) -> bool {
        match state[id.index()] {
            2 => return true,
            1 => {
                cycle.push(id);
                return false;
            }
            _ => {}
        }
        state[id.index()] = 1;
        let op = g.op(id);
        for p in op.ports().iter().chain(op.order_deps()) {
            // Exit views depend on the loop's interior exactly like wires;
            // loop-carried edges are feedback and are skipped.
            let dep = match *p {
                PortKind::Wire(s) | PortKind::Exit { src: s, .. } => Some(s),
                PortKind::Carried { .. } => None,
            };
            if let Some(s) = dep {
                if !visit(g, s, state, order, cycle) {
                    if cycle.len() < 32 {
                        cycle.push(id);
                    }
                    return false;
                }
            }
        }
        state[id.index()] = 2;
        order.push(id);
        true
    }

    for i in 0..n {
        if !visit(g, OpId::new(i as u32), &mut state, &mut order, &mut cycle) {
            cycle.reverse();
            return Err(cycle);
        }
    }
    Ok(order)
}

/// Wire-edge consumer adjacency: for each op, the ops that consume its
/// result (or ordering token) in the same wave.
pub fn wire_consumers(g: &Cdfg) -> Vec<Vec<OpId>> {
    let mut out = vec![Vec::new(); g.ops().len()];
    for op in g.ops() {
        for p in op.ports().iter().chain(op.order_deps()) {
            if let PortKind::Wire(s) | PortKind::Exit { src: s, .. } = *p {
                out[s.index()].push(op.id());
            }
        }
    }
    out
}

/// Expected number of body executions of each loop, derived from the
/// continue-condition probability as a geometric series
/// `p + p² + … = p / (1 − p)`, capped at `cap` to keep the metric finite
/// when profiling says the loop almost never exits.
pub fn expected_iterations(g: &Cdfg, probs: &BranchProbs, cap: f64) -> Vec<f64> {
    g.loops()
        .iter()
        .map(|l| {
            let p = probs.get(l.cond()).clamp(0.0, 0.999_999);
            (p / (1.0 - p)).min(cap)
        })
        .collect()
}

/// The λ metric of Eq. (5): for each operation, the expected
/// delay-weighted longest path from it to a primary output.
///
/// The acyclic part is the classic longest path over intra-wave wire edges
/// computed in reverse topological order. Loop feedback is accounted for
/// by adding, for every loop enclosing the operation, the expected number
/// of remaining iterations times the loop body's critical path — so
/// operations inside (deeply nested, long-running) loops rank as more
/// critical than operations past them, exactly the pressure the paper's
/// selection heuristic needs.
///
/// `delay(op)` gives each operation's execution time in cycles (the
/// resource library provides this; selects, constants and inputs should
/// report 0).
///
/// # Panics
///
/// Panics if the CDFG has a combinational cycle (validated CDFGs never
/// do).
pub fn lambda(g: &Cdfg, probs: &BranchProbs, delay: &dyn Fn(OpId) -> f64) -> Vec<f64> {
    let order = intra_topo_order(g).expect("validated CDFG is acyclic over wire edges");
    let mut consumers = wire_consumers(g);
    // Conditions inherit the criticality of everything they gate: a
    // comparison steering a branch or loop stands on the critical path of
    // every dependent operation even though no data edge connects them.
    for op in g.ops() {
        for d in op.ctrl_deps() {
            if d.cond != op.id() {
                consumers[d.cond.index()].push(op.id());
            }
        }
    }
    let n = g.ops().len();

    // Acyclic longest path to any sink, in reverse topological order.
    let mut lam0 = vec![0.0f64; n];
    for &id in order.iter().rev() {
        let mut best = 0.0f64;
        for &c in &consumers[id.index()] {
            best = best.max(lam0[c.index()]);
        }
        lam0[id.index()] = delay(id) + best;
    }

    // Loop weighting.
    let e_iters = expected_iterations(g, probs, 1.0e4);
    let mut body_path = vec![0.0f64; g.loops().len()];
    for l in g.loops() {
        let mut longest = 0.0f64;
        for &m in l.members() {
            // Longest intra path *within* the loop from m: approximate by
            // delay sums along the acyclic order restricted to members.
            longest = longest.max(delay(m));
        }
        // A tighter bound: longest chain within members.
        let members: std::collections::HashSet<OpId> = l.members().iter().copied().collect();
        let mut chain = vec![0.0f64; n];
        for &id in order.iter().rev() {
            if !members.contains(&id) {
                continue;
            }
            let mut best = 0.0f64;
            for &c in &consumers[id.index()] {
                if members.contains(&c) {
                    best = best.max(chain[c.index()]);
                }
            }
            chain[id.index()] = delay(id) + best;
            longest = longest.max(chain[id.index()]);
        }
        body_path[l.id().index()] = longest;
    }

    let mut lam = lam0;
    for op in g.ops() {
        let mut extra = 0.0;
        for &l in op.loop_path() {
            extra += e_iters[l.index()] * body_path[l.index()];
        }
        lam[op.id().index()] += extra;
    }
    lam
}

/// Default delay model used when no resource library is in scope: one
/// cycle for everything schedulable, zero for sources, selects and
/// outputs.
pub fn unit_delay(g: &Cdfg) -> impl Fn(OpId) -> f64 + '_ {
    move |id: OpId| {
        let k = g.op(id).kind();
        if k.is_source() || k.is_select() || matches!(k, OpKind::Output(_)) {
            0.0
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CdfgBuilder, Src};

    fn chain() -> Cdfg {
        // a -> inc -> inc -> out
        let mut b = CdfgBuilder::new("chain");
        let a = b.input("a");
        let x = b.op(OpKind::Inc, &[Src::Op(a)]);
        let y = b.op(OpKind::Inc, &[Src::Op(x)]);
        b.output("o", Src::Op(y));
        b.finish().unwrap()
    }

    #[test]
    fn topo_order_respects_wires() {
        let g = chain();
        let order = intra_topo_order(&g).unwrap();
        let pos: HashMap<OpId, usize> = order.iter().enumerate().map(|(i, &o)| (o, i)).collect();
        for op in g.ops() {
            for p in op.ports() {
                if let PortKind::Wire(s) = *p {
                    assert!(pos[&s] < pos[&op.id()]);
                }
            }
        }
    }

    #[test]
    fn lambda_decreases_along_chain() {
        let g = chain();
        let lam = lambda(&g, &BranchProbs::new(), &unit_delay(&g));
        let incs: Vec<OpId> = g
            .ops()
            .iter()
            .filter(|o| o.kind() == OpKind::Inc)
            .map(|o| o.id())
            .collect();
        assert!(lam[incs[0].index()] > lam[incs[1].index()]);
        assert_eq!(lam[incs[1].index()], 1.0);
        assert_eq!(lam[incs[0].index()], 2.0);
    }

    #[test]
    fn lambda_boosts_loop_members() {
        let mut b = CdfgBuilder::new("loopy");
        let n = b.input("n");
        let zero = b.constant(0);
        b.begin_loop();
        let i = b.carried(zero);
        let c = b.op(OpKind::Lt, &[Src::Carried(i), Src::Op(n)]);
        b.loop_condition(c);
        let i1 = b.op(OpKind::Inc, &[Src::Carried(i)]);
        b.set_carried(i, i1);
        b.end_loop();
        let e = b.exit_value(i);
        let post = b.op(OpKind::Inc, &[Src::Op(e)]);
        b.output("o", Src::Op(post));
        let g = b.finish().unwrap();

        let mut probs = BranchProbs::new();
        probs.set(c, 0.9); // loop runs ~9 extra iterations on average
        let lam = lambda(&g, &probs, &unit_delay(&g));
        let in_loop = lam[i1.index()];
        let after = lam[post.index()];
        assert!(
            in_loop > after,
            "loop member ({in_loop}) should outrank post-loop op ({after})"
        );
    }

    #[test]
    fn expected_iterations_geometric() {
        let mut b = CdfgBuilder::new("l");
        let n = b.input("n");
        let zero = b.constant(0);
        b.begin_loop();
        let i = b.carried(zero);
        let c = b.op(OpKind::Lt, &[Src::Carried(i), Src::Op(n)]);
        b.loop_condition(c);
        let i1 = b.op(OpKind::Inc, &[Src::Carried(i)]);
        b.set_carried(i, i1);
        b.end_loop();
        let e = b.exit_value(i);
        b.output("o", Src::Op(e));
        let g = b.finish().unwrap();
        let mut probs = BranchProbs::new();
        probs.set(c, 0.5);
        let e = expected_iterations(&g, &probs, 100.0);
        assert!((e[0] - 1.0).abs() < 1e-12, "p=0.5 → 1 expected iteration");
        probs.set(c, 0.999_999_9);
        let e = expected_iterations(&g, &probs, 100.0);
        assert_eq!(e[0], 100.0, "capped");
    }

    #[test]
    fn branch_probs_default() {
        let p = BranchProbs::new();
        assert_eq!(p.get(OpId::new(0)), 0.5);
        let p: BranchProbs = [(OpId::new(1), 0.25)].into_iter().collect();
        assert_eq!(p.get(OpId::new(1)), 0.25);
        assert_eq!(p.iter().count(), 1);
    }
}
