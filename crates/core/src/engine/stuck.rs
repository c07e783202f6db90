//! The structured liveness report of a stuck context.

use super::*;

impl Engine<'_> {
    /// Builds the structured liveness report for a stuck context: every
    /// candidate that cannot issue (and why), every obligation with no
    /// candidate at all (and what its resolution is waiting on), the
    /// starved functional-unit classes, and the loop bookkeeping.
    ///
    /// Only runs on the failure path, so it may be as slow as it likes.
    pub(super) fn stuck_report(&mut self, ctx: &mut Ctx) -> StuckReport {
        let mut starved: BTreeSet<String> = BTreeSet::new();
        let cands = ctx.cands.clone();
        let mut obls: Vec<(InstId, Guard)> =
            ctx.obligations.iter().map(|(i, g)| (*i, *g)).collect();
        obls.sort_by(|a, b| cmp_inst(&self.it, a.0, b.0));
        // Every candidate, then every obligation that has none.
        let no_cand = obls
            .iter()
            .filter(|(i, _)| cands.iter().all(|c| c.inst != *i));
        let insts = cands
            .iter()
            .map(|c| (c.inst, c.guard))
            .chain(no_cand.copied());
        let mut blocked: Vec<BlockedInst> = Vec::new();
        for (n, (inst, gd)) in insts.enumerate() {
            let (op, iter) = self.it.pair(inst);
            let (op, iter) = (op, *iter);
            let reason = match cands.get(n) {
                Some(cand) => self.why_infeasible(ctx, cand, &mut starved),
                None => self.why_no_candidate(ctx, op, &iter),
            };
            blocked.push(BlockedInst {
                op: self.g.op(op).name().to_string(),
                iter: iter.to_vec(),
                guard: self.guard_sop(gd),
                reason,
            });
        }
        let headline = match obls.first() {
            Some((inst, _)) => {
                let (op, iter) = self.it.pair(*inst);
                format!(
                    "no progress towards {}{:?} — check the allocation",
                    self.g.op(op).name(),
                    iter
                )
            }
            None => "no progress".into(),
        };
        let mut loop_state = Vec::new();
        for ((l, prefix), h) in ctx.horizon.iter() {
            let fl = ctx.floor.get(&(*l, *prefix)).copied().unwrap_or(0);
            let wf = ctx.work_floor.get(&(*l, *prefix)).copied().unwrap_or(0);
            loop_state.push(format!(
                "loop l{}@{:?}: horizon={h} floor={fl} work_floor={wf}",
                l.index(),
                prefix
            ));
        }
        StuckReport {
            headline,
            starved_classes: starved.into_iter().collect(),
            blocked,
            loop_state,
        }
    }

    /// Names the first failing [`Self::feasible`] check for a candidate
    /// in a *stalled* (empty) state, recording zero-unit classes in
    /// `starved`. The per-state `issued`/`class_use` sets are empty by
    /// construction: nothing was issued in a stalled state.
    fn why_infeasible(
        &mut self,
        ctx: &Ctx,
        cand: &Candidate,
        starved: &mut BTreeSet<String>,
    ) -> String {
        let Err(reject) = self.feasible(ctx, cand, &FxHashSet::default(), &FxHashMap::default())
        else {
            return "feasible by every static check (transient stall)".into();
        };
        let name = |k: &Key| {
            let (op, iter) = self.it.pair(k.inst);
            format!("{}{:?}v{}", self.g.op(op).name(), iter, k.version)
        };
        match reject {
            Reject::SideEffect => {
                "side effect awaiting full control resolution (never speculates)".into()
            }
            Reject::Unresolved => "guard unresolved (non-speculative mode)".into(),
            Reject::OffPath => {
                "guard off the predicted path or beyond the speculation depth".into()
            }
            Reject::TooDeep(support) => format!(
                "guard support {support} exceeds max_spec_depth {}",
                self.cfg.max_spec_depth
            ),
            Reject::DeadToken(t) => format!("memory-order token {} is not live", name(&t)),
            Reject::TokenIssuedThisState => "memory-order token issued this state".into(),
            Reject::OperandMissing(i, k) => {
                format!("operand {i} version {} was collected", name(&k))
            }
            Reject::OperandInFlight(i, n) => format!("operand {i} still in flight ({n} cycles)"),
            Reject::Chaining => "chained path exceeds the clock period".into(),
            Reject::NoUnit(class) => {
                if self.alloc.limit(class).allows(0) {
                    format!("every {class} unit is busy with multi-cycle work")
                } else {
                    starved.insert(class.to_string());
                    format!("allocation grants zero {class} units")
                }
            }
        }
    }

    /// Explains why an obligation has no candidate at all: an unsettled
    /// memory-order token, an operand with no derivable value version,
    /// or the version/speculation-depth caps.
    fn why_no_candidate(&mut self, ctx: &mut Ctx, op: OpId, iter: &[u32]) -> String {
        let g = self.g;
        let mut r = self.res();
        for p in g.op(op).order_deps() {
            if r.token(ctx, p, op, iter).is_err() {
                return format!(
                    "memory-order token through {} not settled",
                    describe_port(r.g, p)
                );
            }
        }
        for (i, p) in g.op(op).ports().iter().enumerate() {
            let mut versions: Vec<(ValSrc, _)> = Vec::new();
            r.port_versions(ctx, p, op, iter, &mut versions);
            if versions.is_empty() {
                return format!(
                    "no value version for operand {i} ({})",
                    describe_port(r.g, p)
                );
            }
        }
        "candidates exist but exceeded the version or speculation-depth cap".into()
    }
}

/// Human-readable description of a dependency port for stall
/// diagnostics.
fn describe_port(g: &Cdfg, p: &PortKind) -> String {
    match *p {
        PortKind::Wire(s) => format!("wire from {}", g.op(s).name()),
        PortKind::Carried { lp, src, .. } => format!(
            "loop l{} carried value from {}",
            lp.index(),
            g.op(src).name()
        ),
        PortKind::Exit { lp, src, .. } => {
            format!("loop l{} exit of {}", lp.index(), g.op(src).name())
        }
    }
}
