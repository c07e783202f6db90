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

use cdfg::analysis::BranchProbs;
use stg::Stg;

/// Expected number of cycles from start to STOP, or `None` if STOP is
/// unreachable (probability mass diverges) or the system is singular
/// (e.g. a loop taken with probability exactly 1).
pub fn expected_cycles(stg: &Stg, probs: &BranchProbs) -> Option<f64> {
    let reach = stg.reachable();
    let n = reach.len();
    // Matrix row of each reachable state, by state index.
    let mut row = vec![None; stg.states().len()];
    for (i, sid) in reach.iter().enumerate() {
        row[sid.index()] = Some(i);
    }
    let index_of = |sid: stg::StateId| row[sid.index()];
    // Build A·E = b where A = I − P (restricted to transient states),
    // b = 1.
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
            for (inst, v) in &t.when {
                let pt = probs.get(inst.op);
                p *= if *v { pt } else { 1.0 - pt };
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

/// Dense Gaussian elimination with partial pivoting. Returns `None` for
/// singular systems.
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
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
            // Indexed on purpose: `a[row]` and `a[col]` are two rows of
            // one matrix, so an iterator over either would conflict with
            // the other borrow.
            #[allow(clippy::needless_range_loop)]
            for k in col..n {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    // Back-substitute.
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

#[cfg(test)]
mod tests {
    use super::*;
    use stg::{StateId, Transition};

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
        use cdfg::OpId;
        use stg::OpInst;
        let mut g = Stg::new("t");
        let stop = g.stop();
        let start = g.start();
        let c = OpInst::new(OpId::new(0), vec![0]);
        g.state_mut(start).transitions.push(Transition {
            when: vec![(c.clone(), true)],
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
        use cdfg::OpId;
        use stg::OpInst;
        let mut g = Stg::new("t");
        let a = g.add_state();
        let stop = g.stop();
        let start = g.start();
        let c = OpInst::root(OpId::new(0));
        g.state_mut(start).transitions.push(Transition {
            when: vec![(c.clone(), true)],
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
}
