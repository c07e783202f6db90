//! Property-based tests for the guard algebra: Boolean laws, Shannon
//! expansion, cofactor semantics, and probability axioms on randomly
//! generated expressions. Runs on `spec_support::proptest_lite`, so the
//! whole suite is deterministic and offline.

use guards::{BddManager, Cond, CondProbs, Guard};
use spec_support::fxhash::FxHashMap;
use spec_support::props;
use spec_support::proptest_lite as pl;

const NVARS: u32 = 5;

/// A random Boolean expression tree over `NVARS` conditions.
#[derive(Debug, Clone)]
enum Expr {
    Const(bool),
    Lit(u32, bool),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
}

impl Expr {
    fn build(&self, m: &mut BddManager) -> Guard {
        match self {
            Expr::Const(true) => Guard::TRUE,
            Expr::Const(false) => Guard::FALSE,
            Expr::Lit(v, pol) => m.literal(Cond::new(*v), *pol),
            Expr::Not(e) => {
                let g = e.build(m);
                m.not(g)
            }
            Expr::And(a, b) => {
                let ga = a.build(m);
                let gb = b.build(m);
                m.and(ga, gb)
            }
            Expr::Or(a, b) => {
                let ga = a.build(m);
                let gb = b.build(m);
                m.or(ga, gb)
            }
        }
    }

    fn eval(&self, asg: &[bool]) -> bool {
        match self {
            Expr::Const(b) => *b,
            Expr::Lit(v, pol) => asg[*v as usize] == *pol,
            Expr::Not(e) => !e.eval(asg),
            Expr::And(a, b) => a.eval(asg) && b.eval(asg),
            Expr::Or(a, b) => a.eval(asg) || b.eval(asg),
        }
    }
}

fn arb_expr() -> pl::Gen<Expr> {
    let leaf = pl::one_of(vec![
        pl::boolean().map(Expr::Const),
        pl::tuple2(pl::range(0u32..NVARS), pl::boolean()).map(|(v, p)| Expr::Lit(v, p)),
    ]);
    pl::recursive(4, leaf, |inner| {
        pl::one_of(vec![
            inner.clone().map(|e| Expr::Not(Box::new(e))),
            pl::tuple2(inner.clone(), inner.clone())
                .map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            pl::tuple2(inner.clone(), inner).map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
        ])
    })
}

fn all_valuations() -> Vec<Vec<bool>> {
    (0..(1u32 << NVARS))
        .map(|bits| (0..NVARS).map(|v| bits & (1 << v) != 0).collect())
        .collect()
}

/// Evaluates `g` under a total assignment by cofactoring it by every
/// variable in turn: what is left must be a constant.
fn eval_by_cofactor(m: &mut BddManager, g: Guard, asg: &[bool]) -> bool {
    let mut cur = g;
    for (v, &b) in asg.iter().enumerate() {
        cur = m.cofactor(cur, Cond::new(v as u32), b);
    }
    assert!(
        cur.is_const(),
        "a guard cofactored by every variable is constant"
    );
    cur.is_true()
}

props! {
    /// The BDD build agrees with direct evaluation on every assignment —
    /// the fundamental soundness property — read off by cofactoring, so
    /// it checks `cofactor` as well.
    fn bdd_matches_truth_table(e in arb_expr()) {
        let mut m = BddManager::new();
        let g = e.build(&mut m);
        for asg in all_valuations() {
            assert_eq!(eval_by_cofactor(&mut m, g, &asg), e.eval(&asg));
        }
    }

    /// Canonicity: semantically equal expressions produce identical handles.
    fn bdd_canonical(e in arb_expr()) {
        let mut m = BddManager::new();
        let g = e.build(&mut m);
        // Double negation is syntactically different, semantically equal.
        let n = m.not(g);
        let nn = m.not(n);
        assert_eq!(g, nn);
        // g ∨ g == g ∧ g == g (idempotence).
        assert_eq!(m.or(g, g), g);
        assert_eq!(m.and(g, g), g);
    }

    /// Shannon expansion: g == (c ∧ g|c=1) ∨ (¬c ∧ g|c=0) for every var.
    fn shannon_expansion(e in arb_expr(), v in pl::range(0u32..NVARS)) {
        let mut m = BddManager::new();
        let g = e.build(&mut m);
        let c = Cond::new(v);
        let hi = m.cofactor(g, c, true);
        let lo = m.cofactor(g, c, false);
        let lit = m.literal(c, true);
        let nlit = m.literal(c, false);
        let a = m.and(lit, hi);
        let b = m.and(nlit, lo);
        let rebuilt = m.or(a, b);
        assert_eq!(rebuilt, g);
        // Cofactors never mention the resolved condition.
        assert!(!m.support(hi).contains(&c));
        assert!(!m.support(lo).contains(&c));
    }

    /// De Morgan / distributivity on random pairs.
    fn boolean_laws(a in arb_expr(), b in arb_expr(), c in arb_expr()) {
        let mut m = BddManager::new();
        let (ga, gb, gc) = (a.build(&mut m), b.build(&mut m), c.build(&mut m));
        let and_ab = m.and(ga, gb);
        let lhs = m.not(and_ab);
        let na = m.not(ga);
        let nb = m.not(gb);
        let rhs = m.or(na, nb);
        assert_eq!(lhs, rhs, "De Morgan");
        let or_bc = m.or(gb, gc);
        let lhs = m.and(ga, or_bc);
        let ab = m.and(ga, gb);
        let ac = m.and(ga, gc);
        let rhs = m.or(ab, ac);
        assert_eq!(lhs, rhs, "distributivity");
    }

    /// Probability axioms: P ∈ [0,1], P(g) + P(¬g) = 1, and P equals the
    /// weighted truth-table sum.
    fn probability_axioms(
        e in arb_expr(),
        ps in pl::vec_of(pl::f64_range(0.0..1.0), NVARS as usize..NVARS as usize + 1),
    ) {
        let mut m = BddManager::new();
        let g = e.build(&mut m);
        let mut probs = CondProbs::new();
        for (i, &p) in ps.iter().enumerate() {
            probs.set(Cond::new(i as u32), p);
        }
        let mut memo = FxHashMap::default();
        let pg = probs.probability_with(&m, g, &mut memo);
        assert!((0.0..=1.0 + 1e-12).contains(&pg));
        let ng = m.not(g);
        let png = probs.probability_with(&m, ng, &mut memo);
        assert!((pg + png - 1.0).abs() < 1e-9);
        // Weighted truth-table sum.
        let mut sum = 0.0;
        for asg in all_valuations() {
            if e.eval(&asg) {
                let mut w = 1.0;
                for (i, &b) in asg.iter().enumerate() {
                    w *= if b { ps[i] } else { 1.0 - ps[i] };
                }
                sum += w;
            }
        }
        assert!((pg - sum).abs() < 1e-9, "pg={pg} sum={sum}");
    }

    /// Placement alone decides the variable order. Two managers first use
    /// the variables in two random orders, each placing a variable by one
    /// comparator at its first use and building a guard over the
    /// variables seen so far; the guard `e` then built in both renders,
    /// tokenizes and has its support identically. The early guards stay
    /// canonical as later variables land between theirs, and placing an
    /// already placed variable again, even by the opposite comparator,
    /// changes nothing.
    fn placement_decides_variable_order(
        e in arb_expr(),
        keys in pl::vec_of(pl::range(0u32..4), NVARS as usize..NVARS as usize + 1),
        firsts in pl::tuple2(
            pl::vec_of(pl::range(0u32..NVARS), 0..8),
            pl::vec_of(pl::range(0u32..NVARS), 0..8),
        ),
    ) {
        let less = |a: Cond, b: Cond| {
            (keys[a.index() as usize], a) < (keys[b.index() as usize], b)
        };
        let name = |c: Cond| c.to_string();
        let tokens = |m: &BddManager, g: Guard| {
            let mut out = Vec::new();
            m.sop_tokens(g, &mut |c, out| out.push(u64::from(c.index())), &mut out);
            out
        };
        let run = |first: &[u32], rev: bool| {
            let mut m = BddManager::new();
            let mut order: Vec<u32> = first.to_vec();
            let rest: Vec<u32> = if rev { (0..NVARS).rev().collect() } else { (0..NVARS).collect() };
            order.extend(rest);
            let mut early = Vec::new();
            let mut acc = Guard::FALSE;
            for &v in &order {
                m.place(Cond::new(v), less);
                let l = m.literal(Cond::new(v), v % 2 == 0);
                let nl = m.not(l);
                acc = m.ite(acc, nl, l);
                early.push((v, acc));
            }
            let mut again = Guard::FALSE;
            for &(v, g) in &early {
                let l = m.literal(Cond::new(v), v % 2 == 0);
                let nl = m.not(l);
                again = m.ite(again, nl, l);
                assert_eq!(again, g, "a guard built before later placements stays canonical");
            }
            let g = e.build(&mut m);
            let view = (m.to_sop_string(g, &name), tokens(&m, g), m.support(g));
            for v in 0..NVARS {
                m.place(Cond::new(v), |a, b| less(b, a));
            }
            assert_eq!(view, (m.to_sop_string(g, &name), tokens(&m, g), m.support(g)));
            assert_eq!(e.build(&mut m), g, "placing twice is a no-op");
            view
        };
        assert_eq!(run(&firsts.0, false), run(&firsts.1, true));
    }

    /// A conjunction of random literals — a cube — is FALSE exactly when
    /// two literals contradict; otherwise it renders as a single product
    /// term listing each distinct literal once, in condition order (the
    /// order the conditions are placed in).
    fn cube_guard_agrees(
        lits in pl::vec_of(pl::tuple2(pl::range(0u32..NVARS), pl::boolean()), 0..6),
    ) {
        let mut m = BddManager::new();
        for v in 0..NVARS {
            m.place(Cond::new(v), |a, b| a < b);
        }
        let parts: Vec<Guard> = lits.iter().map(|&(v, p)| m.literal(Cond::new(v), p)).collect();
        let g = parts.iter().fold(Guard::TRUE, |acc, &l| m.and(acc, l));
        let mut distinct = lits.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let contradictory = distinct.windows(2).any(|w| w[0].0 == w[1].0);
        assert_eq!(g.is_false(), contradictory);
        if !contradictory {
            let term: Vec<String> = distinct
                .iter()
                .map(|&(v, p)| if p { format!("c{v}") } else { format!("!c{v}") })
                .collect();
            let want = if term.is_empty() { "1".to_string() } else { term.join(".") };
            assert_eq!(m.to_sop_string(g, &|c| c.to_string()), want);
        }
    }
}
