//! Analytic expected cycle counts from the STG's absorbing Markov chain.
//!
//! Under the paper's independence assumption for branch outcomes, an STG
//! is an absorbing Markov chain: each state takes one cycle, each
//! transition fires with the product of its condition-literal
//! probabilities, and STOP absorbs. The expected number of cycles from
//! the start state solves the linear system
//! `E[s] = 1 + Σ_t P(t)·E[target(t)]`, `E[STOP] = 0` — which this module
//! does exactly by Gaussian elimination, providing an independent check
//! on simulated averages (and the closed forms of Eqs. 1–4 of the
//! paper).
//!
//! # Sparse rows
//!
//! A state has a handful of transitions, so `I − P` is stored as sorted
//! sparse rows — the diagonal plus one entry per distinct target — and
//! memory is O(transitions + fill), not O(states²). Elimination visits
//! the columns in order with the dense algorithm's partial pivot (the
//! *last* row of maximal magnitude, a missing entry reading as 0.0) and
//! performs exactly its nonzero floating-point operations in the same
//! order, so the result is bit-identical to dense elimination; the dense
//! solver is kept as a test oracle.

use cdfg::analysis::BranchProbs;
use std::cmp::Ordering;
use stg::Stg;

/// One row of `I − P`: `(column, value)` entries in ascending column
/// order. An absent column holds 0.0.
type Row = Vec<(u32, f64)>;

/// Expected number of cycles from start to STOP, or `None` if STOP is
/// unreachable (probability mass diverges) or the system is singular
/// (e.g. a loop taken with probability exactly 1).
pub fn expected_cycles(stg: &Stg, probs: &BranchProbs) -> Option<f64> {
    let (a, b) = system(stg, probs);
    // `reachable` lists the start state first.
    let v = solve(a, b)?[0];
    if v.is_finite() && v >= 0.0 {
        Some(v)
    } else {
        None
    }
}

/// `A·E = b` over the reachable states in [`Stg::reachable`] order, where
/// `A = I − P` (STOP's row is the identity) and `b` is 1 for every
/// transient state. Repeated targets and self-loops accumulate in
/// transition order.
fn system(stg: &Stg, probs: &BranchProbs) -> (Vec<Row>, Vec<f64>) {
    let reach = stg.reachable();
    // Matrix row of each reachable state, by state index; every target
    // of a reachable state is reachable.
    let mut row = vec![u32::MAX; stg.states().len()];
    for (i, sid) in reach.iter().enumerate() {
        row[sid.index()] = i as u32;
    }
    let mut a: Vec<Row> = Vec::with_capacity(reach.len());
    let mut b = vec![0.0f64; reach.len()];
    for (i, &sid) in reach.iter().enumerate() {
        let transitions = &stg.state(sid).transitions;
        let mut r: Row = Vec::with_capacity(1 + transitions.len());
        r.push((i as u32, 1.0));
        if sid != stg.stop() {
            b[i] = 1.0;
            for t in transitions {
                let mut p = 1.0;
                for &(slot, v) in &t.when {
                    let pt = probs.get(stg.inst(slot).op);
                    p *= if v { pt } else { 1.0 - pt };
                }
                let j = row[t.target.index()];
                let k = match r.iter().position(|e| e.0 == j) {
                    Some(k) => k,
                    None => {
                        r.push((j, 0.0));
                        r.len() - 1
                    }
                };
                r[k].1 -= p;
            }
            r.sort_unstable_by_key(|e| e.0);
        }
        a.push(r);
    }
    (a, b)
}

/// Sparse Gaussian elimination with partial pivoting. Returns `None` for
/// singular systems.
///
/// Invariant: before column `col` is eliminated, rows `col..` hold no
/// entry left of `col` (eliminated entries are dropped, never read
/// again), so a row's entry in column `col`, if any, is its first.
fn solve(mut a: Vec<Row>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    let mut merged: Row = Vec::new();
    for col in 0..n {
        let lead = |r: &Row| match r.first() {
            Some(&(c, v)) if c as usize == col => v,
            _ => 0.0,
        };
        // Pivot.
        let piv = (col..n).max_by(|&i, &j| {
            lead(&a[i])
                .abs()
                .partial_cmp(&lead(&a[j]).abs())
                .expect("finite")
        })?;
        let pv = lead(&a[piv]);
        if pv.abs() < 1e-12 {
            return None;
        }
        a.swap(col, piv);
        b.swap(col, piv);
        let (done, below) = a.split_at_mut(col + 1);
        let pivot_row = &done[col][1..];
        for (row, r) in (col + 1..n).zip(below) {
            if r.first().is_none_or(|&(c, _)| c as usize != col) {
                continue;
            }
            let f = r[0].1 / pv;
            if f == 0.0 {
                r.remove(0);
                continue;
            }
            // r[1..] −= f · pivot_row, merging the two sorted rows; a
            // column absent from `r` starts from 0.0, as in the dense
            // matrix.
            let rest = &r[1..];
            merged.clear();
            let (mut x, mut y) = (0, 0);
            while x < rest.len() && y < pivot_row.len() {
                let ((cx, vx), (cy, vy)) = (rest[x], pivot_row[y]);
                match cx.cmp(&cy) {
                    Ordering::Less => {
                        merged.push((cx, vx));
                        x += 1;
                    }
                    Ordering::Greater => {
                        merged.push((cy, 0.0 - f * vy));
                        y += 1;
                    }
                    Ordering::Equal => {
                        merged.push((cx, vx - f * vy));
                        x += 1;
                        y += 1;
                    }
                }
            }
            merged.extend_from_slice(&rest[x..]);
            merged.extend(pivot_row[y..].iter().map(|&(c, v)| (c, 0.0 - f * v)));
            std::mem::swap(r, &mut merged);
            b[row] -= f * b[col];
        }
    }
    // Back-substitute: each row now starts with its diagonal.
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for &(k, v) in &a[row][1..] {
            acc -= v * x[k as usize];
        }
        x[row] = acc / a[row][0].1;
    }
    Some(x)
}

/// The dense solver this module replaced, kept verbatim as the oracle
/// the sparse one must match bit for bit.
#[cfg(test)]
mod dense {
    use cdfg::analysis::BranchProbs;
    use stg::Stg;

    pub fn expected_cycles(stg: &Stg, probs: &BranchProbs) -> Option<f64> {
        let reach = stg.reachable();
        let n = reach.len();
        let mut row = vec![None; stg.states().len()];
        for (i, sid) in reach.iter().enumerate() {
            row[sid.index()] = Some(i);
        }
        let index_of = |sid: stg::StateId| row[sid.index()];
        let mut a = vec![vec![0.0f64; n]; n];
        let mut b = vec![0.0f64; n];
        for (i, &sid) in reach.iter().enumerate() {
            if sid == stg.stop() {
                a[i][i] = 1.0;
                b[i] = 0.0;
                continue;
            }
            a[i][i] = 1.0;
            b[i] = 1.0;
            for t in &stg.state(sid).transitions {
                let mut p = 1.0;
                for &(slot, v) in &t.when {
                    let pt = probs.get(stg.inst(slot).op);
                    p *= if v { pt } else { 1.0 - pt };
                }
                let j = index_of(t.target)?;
                a[i][j] -= p;
            }
        }
        let e = solve(a, b)?;
        let start = index_of(stg.start())?;
        let v = e[start];
        if v.is_finite() && v >= 0.0 {
            Some(v)
        } else {
            None
        }
    }

    fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
        let n = b.len();
        for col in 0..n {
            let piv = (col..n).max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("finite")
            })?;
            if a[piv][col].abs() < 1e-12 {
                return None;
            }
            a.swap(col, piv);
            b.swap(col, piv);
            for row in (col + 1)..n {
                let f = a[row][col] / a[col][col];
                if f == 0.0 {
                    continue;
                }
                #[allow(clippy::needless_range_loop)]
                for k in col..n {
                    a[row][k] -= f * a[col][k];
                }
                b[row] -= f * b[col];
            }
        }
        let mut x = vec![0.0f64; n];
        for row in (0..n).rev() {
            let mut acc = b[row];
            for k in (row + 1)..n {
                acc -= a[row][k] * x[k];
            }
            x[row] = acc / a[row][row];
        }
        Some(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdfg::OpId;
    use spec_support::props;
    use spec_support::proptest_lite as pl;
    use stg::{OpInst, StateId, Transition};

    fn edge(target: StateId) -> Transition {
        Transition {
            when: vec![],
            target,
            renames: vec![],
        }
    }

    #[test]
    fn linear_chain() {
        // start → s → stop: 2 cycles.
        let mut g = Stg::new("t");
        let s = g.add_state();
        let stop = g.stop();
        g.state_mut(g.start()).transitions.push(edge(s));
        g.state_mut(s).transitions.push(edge(stop));
        let e = expected_cycles(&g, &BranchProbs::new()).unwrap();
        assert!((e - 2.0).abs() < 1e-9);
    }

    #[test]
    fn geometric_loop() {
        // start loops back to itself with P(c)=p, exits with 1−p:
        // E = 1/(1−p).
        let mut g = Stg::new("t");
        let stop = g.stop();
        let start = g.start();
        let c = g.intern(&OpInst::new(OpId::new(0), vec![0]));
        g.state_mut(start).transitions.push(Transition {
            when: vec![(c, true)],
            target: start,
            renames: vec![],
        });
        g.state_mut(start).transitions.push(Transition {
            when: vec![(c, false)],
            target: stop,
            renames: vec![],
        });
        let mut probs = BranchProbs::new();
        probs.set(OpId::new(0), 0.75);
        let e = expected_cycles(&g, &probs).unwrap();
        assert!((e - 4.0).abs() < 1e-9, "1/(1−0.75) = 4, got {e}");
    }

    #[test]
    fn unreachable_stop_is_none() {
        let mut g = Stg::new("t");
        let start = g.start();
        g.state_mut(start).transitions.push(edge(start));
        assert_eq!(expected_cycles(&g, &BranchProbs::new()), None);
    }

    #[test]
    fn branch_weighting() {
        // start →(c) a → stop ; →(!c) stop. E = 1 + P(c)·1.
        let mut g = Stg::new("t");
        let a = g.add_state();
        let stop = g.stop();
        let start = g.start();
        let c = g.intern(&OpInst::root(OpId::new(0)));
        g.state_mut(start).transitions.push(Transition {
            when: vec![(c, true)],
            target: a,
            renames: vec![],
        });
        g.state_mut(start).transitions.push(Transition {
            when: vec![(c, false)],
            target: stop,
            renames: vec![],
        });
        g.state_mut(a).transitions.push(edge(stop));
        let mut probs = BranchProbs::new();
        probs.set(OpId::new(0), 0.3);
        let e = expected_cycles(&g, &probs).unwrap();
        assert!((e - 1.3).abs() < 1e-9);
    }

    #[test]
    fn five_thousand_state_ring_is_solved_sparsely() {
        // s_0 → … → s_{n−1} → s_0 ring: every s_k stays put with P(c_k)
        // and otherwise moves on; s_{n−1} leaves for STOP with P(!d) and
        // wraps to s_0 otherwise. A pass costs Σ 1/(1 − P(c_k)), and
        // 1/(1 − P(d)) passes are expected. The wrap edge fills one entry
        // per eliminated column; a dense solve would need 200 MB.
        const N: usize = 5000;
        const P: [f64; 4] = [0.0, 0.2, 0.4, 0.6];
        let mut g = Stg::new("ring");
        let stop = g.stop();
        let ring: Vec<StateId> = std::iter::once(g.start())
            .chain((1..N).map(|_| g.add_state()))
            .collect();
        let mut probs = BranchProbs::new();
        for (k, p) in P.iter().enumerate() {
            probs.set(OpId::new(k as u32), *p);
        }
        let d = g.intern(&OpInst::root(OpId::new(P.len() as u32)));
        probs.set(g.inst(d).op, 0.5);
        for (k, &s) in ring.iter().enumerate() {
            let c = g.intern(&OpInst::root(OpId::new((k % P.len()) as u32)));
            let stay = Transition {
                when: vec![(c, true)],
                target: s,
                renames: vec![],
            };
            let moves: Vec<Transition> = if k + 1 < N {
                vec![Transition {
                    when: vec![(c, false)],
                    target: ring[k + 1],
                    renames: vec![],
                }]
            } else {
                [(true, ring[0]), (false, stop)]
                    .into_iter()
                    .map(|(dv, target)| Transition {
                        when: vec![(c, false), (d, dv)],
                        target,
                        renames: vec![],
                    })
                    .collect()
            };
            g.state_mut(s).transitions = std::iter::once(stay).chain(moves).collect();
        }
        let pass: f64 = (0..N).map(|k| 1.0 / (1.0 - P[k % P.len()])).sum();
        let want = pass / (1.0 - 0.5);
        let got = expected_cycles(&g, &probs).unwrap();
        assert!(
            ((got - want) / want).abs() < 1e-9,
            "expected {want}, got {got}"
        );
    }

    /// States in a random chain: index 0 is start, 1 is STOP.
    const CHAIN_STATES: usize = 8;

    /// One random edge `(from, to, condition)`: condition codes `0..3`
    /// test op `c` true, `3..6` op `c − 3` false, 6 is unconditional.
    type Edge = (usize, usize, u32);

    /// A probability that is often exactly 0, ½ or 1, so self-loops and
    /// cancellations hit exact singularities.
    fn arb_prob() -> pl::Gen<f64> {
        pl::one_of(vec![
            pl::just(0.0),
            pl::just(0.5),
            pl::just(1.0),
            pl::f64_range(0.0..1.0),
        ])
    }

    fn arb_edges() -> pl::Gen<Vec<Edge>> {
        pl::vec_of(
            pl::tuple3(
                pl::range(0..CHAIN_STATES),
                pl::range(0..CHAIN_STATES),
                pl::range(0u32..7),
            ),
            0..24,
        )
    }

    fn chain(probs: &[f64], edges: &[Edge]) -> (Stg, BranchProbs) {
        let mut g = Stg::new("chain");
        while g.states().len() < CHAIN_STATES {
            g.add_state();
        }
        assert_eq!((g.start(), g.stop()), (StateId(0), StateId(1)));
        for &(from, to, cond) in edges {
            let when = match cond {
                0..=5 => vec![(g.intern(&OpInst::root(OpId::new(cond % 3))), cond < 3)],
                _ => vec![],
            };
            g.state_mut(StateId(from as u32))
                .transitions
                .push(Transition {
                    when,
                    target: StateId(to as u32),
                    renames: vec![],
                });
        }
        let mut bp = BranchProbs::new();
        for (op, p) in probs.iter().enumerate() {
            bp.set(OpId::new(op as u32), *p);
        }
        (g, bp)
    }

    props! {
        /// The sparse solve returns the dense solve's result bit for
        /// bit — or `None` exactly when it does — on random chains with
        /// self-loops, repeated targets, unreachable states and singular
        /// systems.
        fn sparse_matches_dense_bit_for_bit(
            probs in pl::vec_of(arb_prob(), 3..4),
            edges in arb_edges(),
        ) {
            let (g, bp) = chain(&probs, &edges);
            assert_eq!(
                expected_cycles(&g, &bp).map(f64::to_bits),
                dense::expected_cycles(&g, &bp).map(f64::to_bits),
            );
        }
    }

    #[test]
    fn random_chains_cover_the_hard_cases() {
        // The property above only means something if its chains hit
        // every case the sparse bookkeeping treats specially.
        use spec_support::rng::Xoshiro256StarStar;
        let (probs, edges) = (pl::vec_of(arb_prob(), 3..4), arb_edges());
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        let (mut self_loop, mut repeat, mut unreachable, mut solved, mut singular) =
            (0, 0, 0, 0, 0);
        for _ in 0..256 {
            let (p, e) = (probs.generate(&mut rng), edges.generate(&mut rng));
            let (g, bp) = chain(&p, &e);
            self_loop += e.iter().any(|&(f, t, _)| f == t) as u32;
            repeat += e
                .iter()
                .enumerate()
                .any(|(i, a)| e[..i].iter().any(|b| (a.0, a.1) == (b.0, b.1)))
                as u32;
            unreachable += (g.reachable().len() < CHAIN_STATES) as u32;
            let (a, b) = system(&g, &bp);
            match solve(a, b) {
                Some(_) => solved += 1,
                None => singular += 1,
            }
        }
        for (what, n) in [
            ("self-loop", self_loop),
            ("repeated target", repeat),
            ("unreachable state", unreachable),
            ("solvable system", solved),
            ("singular system", singular),
        ] {
            assert!(n >= 8, "only {n} of 256 chains have a {what}");
        }
    }
}
