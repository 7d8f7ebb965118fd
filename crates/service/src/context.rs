//! The epoch-scoped evaluation context: everything one snapshot's
//! queries may share with each other, and nothing a later epoch may
//! ever see.
//!
//! The paper's automaton/equation formulation makes evaluation
//! *shareable*: per-source runs over one equation system traverse
//! overlapping state, and §4's virtual-relation probes depend only on
//! the database version, never on which query demanded them.  A
//! snapshot epoch is exactly the unit over which that sharing is sound
//! — the database is immutable for the epoch's lifetime — so each
//! [`crate::Snapshot`] owns one [`EpochContext`]:
//!
//! * the engine's [`EvalContext`] — completed machine traversals,
//!   reused at the root and at machine-instance expansion time;
//! * one [`ProbeSpace`] per §4 plan — the tuple interner and
//!   virtual-probe memo a batch of adorned queries shares, so each
//!   probe joins the base relations once per epoch instead of once per
//!   query;
//! * the SCC-path counter — how many all-free queries the epoch served
//!   through the shared [`rq_engine::all_pairs_scc`] condensation
//!   instead of the per-source loop;
//! * one [`FiniteSide`] per §3 `(plan, pred, direction)` — the constants
//!   whose point queries need no `m·n` iteration bound on this epoch's
//!   data.  Never carried: an ingest can close a cycle, so each epoch
//!   recomputes it on first use.
//!
//! Invalidation is wholesale by default: publishing a new epoch
//! creates a new snapshot, which creates a new (empty) context; the
//! old one dies with the last reader of the old snapshot.  The one
//! deliberate exception is [`EpochContext::carry_from`]: the service's
//! ingest path moves entries of **clean-read-set plans** — plans that
//! read none of the shards the publish dirtied — into the new context,
//! mirroring the result cache's `carry_forward`.  That keeps long-
//! lived clients at warm-epoch throughput across unrelated ingests
//! while preserving the invariant that no entry can outlive the data
//! it was computed from (a carried entry's entire read-set is
//! pointer-identical across the two epochs).

use crate::spec::Adornment;
use rq_adorn::ProbeSpace;
use rq_common::{FxHashMap, Pred};
use rq_datalog::Program;
use rq_engine::{EvalContext, FiniteSide};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Aggregated statistics of one [`EpochContext`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochContextStats {
    /// Engine machine-memo lookups answered from the context.
    pub eval_hits: u64,
    /// Engine machine-memo lookups that found nothing.
    pub eval_misses: u64,
    /// Memoized machine-traversal answer sets.
    pub eval_entries: usize,
    /// §4 virtual-relation probes answered from a shared memo.
    pub probe_hits: u64,
    /// §4 virtual-relation probes that ran their defining join.
    pub probe_misses: u64,
    /// Memoized virtual-relation probe results across all plans.
    pub probe_entries: usize,
    /// All-free queries served through the shared-SCC path.
    pub scc_served: u64,
    /// Machine-memo entries inherited from the previous epoch's context
    /// (plans whose read-set the publish left clean).
    pub eval_carried: u64,
    /// §4 probe spaces inherited from the previous epoch's context.
    /// A carried space keeps its cumulative hit/miss counters — its
    /// memo (and the tuple interner the machine memo's answers are
    /// encoded in) survives the publish as one unit.
    pub probe_spaces_carried: u64,
}

/// The sharing state of one snapshot epoch.  See the module docs.
pub struct EpochContext {
    eval: EvalContext,
    probes: RwLock<FxHashMap<(Pred, Adornment), Arc<ProbeSpace>>>,
    /// `(plan id, pred, inverse) → finite-side set`.
    finite_sides: RwLock<FxHashMap<(u64, Pred, bool), Arc<FiniteSide>>>,
    scc_served: AtomicU64,
    eval_carried: AtomicU64,
    probe_spaces_carried: AtomicU64,
}

impl EpochContext {
    /// Fresh, empty context.
    pub fn new() -> Self {
        Self {
            eval: EvalContext::new(),
            probes: RwLock::new(FxHashMap::default()),
            finite_sides: RwLock::new(FxHashMap::default()),
            scc_served: AtomicU64::new(0),
            eval_carried: AtomicU64::new(0),
            probe_spaces_carried: AtomicU64::new(0),
        }
    }

    /// Inherit from the previous epoch's context everything the caller
    /// vouches survives the publish:
    ///
    /// * `chain_machines` — the §3 chain plan's id plus the machine
    ///   indices whose predicate's read-set is disjoint from the
    ///   publish's dirty shards: those machines' memo entries carry
    ///   (their answers are real program constants, whose interned ids
    ///   are stable across epochs);
    /// * `nary_plans` — clean-read-set §4 plans, as `((pred,
    ///   adornment), plan id)` pairs.  A §4 plan's probe space and its
    ///   machine-memo entries travel **as a unit**, because the
    ///   memoized answers are encoded in that probe space's tuple
    ///   interner.  Probe spaces are therefore carried *first*, and a
    ///   plan's memo entries are only carried when its previous-epoch
    ///   probe space actually became this epoch's space — if a racing
    ///   query already created a fresh space (fresh interner) on this
    ///   epoch, the old entries are discarded rather than paired with
    ///   an interner that numbers tuples differently.
    ///
    /// Everything else starts cold, exactly as before.  The carried
    /// counts land in [`EpochContextStats::eval_carried`] /
    /// [`EpochContextStats::probe_spaces_carried`].
    pub fn carry_from(
        &self,
        prev: &EpochContext,
        chain_machines: Option<&(u64, rq_common::FxHashSet<u32>)>,
        nary_plans: &[((Pred, Adornment), u64)],
    ) {
        // Phase 1: probe spaces, collecting the plan ids whose old
        // space (and so whose tuple interner) survives into this epoch.
        let mut keep_nary: rq_common::FxHashSet<u64> = rq_common::FxHashSet::default();
        if !nary_plans.is_empty() {
            let survivors: Vec<((Pred, Adornment), u64, Arc<ProbeSpace>)> = {
                let prev_map = prev.probes.read().expect("probe space map poisoned");
                nary_plans
                    .iter()
                    .filter_map(|&(key, plan)| {
                        prev_map
                            .get(&key)
                            .map(|space| (key, plan, Arc::clone(space)))
                    })
                    .collect()
            };
            let mut map = self.probes.write().expect("probe space map poisoned");
            let mut carried_spaces = 0;
            for (key, plan, space) in survivors {
                match map.entry(key) {
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(space);
                        carried_spaces += 1;
                        keep_nary.insert(plan);
                    }
                    std::collections::hash_map::Entry::Occupied(existing) => {
                        if Arc::ptr_eq(existing.get(), &space) {
                            // Already carried (idempotent re-run): the
                            // interner matches, entries may carry too.
                            keep_nary.insert(plan);
                        }
                        // Otherwise a racing query created a fresh
                        // space: keep it (its interner may already
                        // anchor new memo entries) and let this plan's
                        // old entries die with the old epoch.
                    }
                }
            }
            self.probe_spaces_carried
                .fetch_add(carried_spaces, Ordering::Relaxed);
        }
        // Phase 2: machine-memo entries, gated on phase 1 for §4 plans.
        let carried = self.eval.carry_from(&prev.eval, |plan, machine| {
            keep_nary.contains(&plan)
                || chain_machines
                    .is_some_and(|(id, machines)| *id == plan && machines.contains(&machine))
        }) as u64;
        self.eval_carried.fetch_add(carried, Ordering::Relaxed);
    }

    /// The engine-level machine-traversal memo.
    pub fn eval(&self) -> &EvalContext {
        &self.eval
    }

    /// The shared [`ProbeSpace`] for one §4 plan, created on first use.
    /// Keyed by `(pred, adornment)` — the same key as the plan cache,
    /// so every query compiled to one [`rq_adorn::NaryPlan`] shares one
    /// space.
    pub fn probe_space(
        &self,
        pred: Pred,
        adornment: Adornment,
        program: &Program,
    ) -> Arc<ProbeSpace> {
        if let Some(space) = self
            .probes
            .read()
            .expect("probe space map poisoned")
            .get(&(pred, adornment))
        {
            return Arc::clone(space);
        }
        let mut map = self.probes.write().expect("probe space map poisoned");
        Arc::clone(
            map.entry((pred, adornment))
                .or_insert_with(|| Arc::new(ProbeSpace::new(program))),
        )
    }

    /// The shared [`ProbeSpace`] for one §4 plan **if it already
    /// exists**, without creating one.  The delta-repair path forks the
    /// *previous* epoch's space; a `None` here means there is nothing
    /// to repair.
    pub fn peek_probe_space(&self, pred: Pred, adornment: Adornment) -> Option<Arc<ProbeSpace>> {
        self.probes
            .read()
            .expect("probe space map poisoned")
            .get(&(pred, adornment))
            .cloned()
    }

    /// Install a repaired probe space for one §4 plan, vacant-only:
    /// returns `false` (discarding `space`) when a racing query already
    /// created a fresh space for the key — the racer's interner may
    /// anchor new memo entries, so last-write-wins would corrupt them.
    /// A successful adopt counts toward
    /// [`EpochContextStats::probe_spaces_carried`] (the space *did*
    /// travel from the previous epoch, repaired en route).
    pub fn adopt_probe_space(
        &self,
        pred: Pred,
        adornment: Adornment,
        space: Arc<ProbeSpace>,
    ) -> bool {
        let mut map = self.probes.write().expect("probe space map poisoned");
        match map.entry((pred, adornment)) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(space);
                drop(map);
                self.probe_spaces_carried.fetch_add(1, Ordering::Relaxed);
                true
            }
            std::collections::hash_map::Entry::Occupied(_) => false,
        }
    }

    /// Copy every machine-memo entry of plan `plan` from `src` (the
    /// delta-repair scratch context) into this epoch's memo, counting
    /// the copies toward [`EpochContextStats::eval_carried`].  Returns
    /// how many entries were adopted.
    ///
    /// Repair runs against a detached scratch so racing queries on the
    /// already-published snapshot never observe a half-patched memo;
    /// entries land here only once they are complete on the new
    /// database.
    pub fn adopt_eval_entries(&self, src: &EvalContext, plan: u64) -> u64 {
        let adopted = self.eval.carry_from(src, |p, _| p == plan) as u64;
        self.eval_carried.fetch_add(adopted, Ordering::Relaxed);
        adopted
    }

    /// The [`FiniteSide`] of §3 plan `plan`'s `pred` in one query
    /// direction, computed by `compute` on first use in this epoch.
    /// Racing first users may both compute; the first insert wins and
    /// both values are identical on the immutable snapshot.
    pub(crate) fn finite_side(
        &self,
        plan: u64,
        pred: Pred,
        inverse: bool,
        compute: impl FnOnce() -> FiniteSide,
    ) -> Arc<FiniteSide> {
        let key = (plan, pred, inverse);
        if let Some(side) = self
            .finite_sides
            .read()
            .expect("finite side map poisoned")
            .get(&key)
        {
            return Arc::clone(side);
        }
        let side = Arc::new(compute());
        let mut map = self.finite_sides.write().expect("finite side map poisoned");
        Arc::clone(map.entry(key).or_insert(side))
    }

    /// Record one all-free query served through the shared-SCC path.
    pub fn note_scc_served(&self) {
        self.scc_served.fetch_add(1, Ordering::Relaxed);
    }

    /// Aggregated hit/miss/entry counts across the engine memo and all
    /// probe spaces.
    pub fn stats(&self) -> EpochContextStats {
        let eval = self.eval.stats();
        let mut stats = EpochContextStats {
            eval_hits: eval.hits,
            eval_misses: eval.misses,
            eval_entries: eval.entries,
            scc_served: self.scc_served.load(Ordering::Relaxed),
            eval_carried: self.eval_carried.load(Ordering::Relaxed),
            probe_spaces_carried: self.probe_spaces_carried.load(Ordering::Relaxed),
            ..EpochContextStats::default()
        };
        // Aggregate the probe spaces with the saturating
        // `ProbeStats::merge`, outside any write lock (the map is only
        // read-locked; each space reads its own atomics).
        let mut probes = rq_adorn::ProbeStats::default();
        for space in self
            .probes
            .read()
            .expect("probe space map poisoned")
            .values()
        {
            probes.merge(&space.stats());
        }
        stats.probe_hits = probes.hits;
        stats.probe_misses = probes.misses;
        stats.probe_entries = probes.entries;
        stats
    }
}

impl Default for EpochContext {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for EpochContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochContext")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_datalog::parse_program;

    #[test]
    fn probe_spaces_are_per_plan_and_created_once() {
        let program = parse_program("e(a,b).").unwrap();
        let ctx = EpochContext::new();
        let bf = Adornment::from_bound(2, [0]);
        let fb = Adornment::from_bound(2, [1]);
        let p = Pred(0);
        let s1 = ctx.probe_space(p, bf, &program);
        let s2 = ctx.probe_space(p, bf, &program);
        assert!(Arc::ptr_eq(&s1, &s2), "one space per (pred, adornment)");
        let s3 = ctx.probe_space(p, fb, &program);
        assert!(
            !Arc::ptr_eq(&s1, &s3),
            "different adornment, different space"
        );
    }

    #[test]
    fn carry_pairs_probe_space_with_its_plan_or_drops_both() {
        let program = parse_program("e(a,b).").unwrap();
        let key = (Pred(0), Adornment::from_bound(2, [0]));
        let plan_id = 77u64;

        // Vacant destination: the old space carries, same Arc.
        let prev = EpochContext::new();
        let old_space = prev.probe_space(key.0, key.1, &program);
        let fresh = EpochContext::new();
        fresh.carry_from(&prev, None, &[(key, plan_id)]);
        assert_eq!(fresh.stats().probe_spaces_carried, 1);
        assert!(Arc::ptr_eq(
            &old_space,
            &fresh.probe_space(key.0, key.1, &program)
        ));
        // Idempotent re-run: the already-carried space still counts as
        // paired (same interner), but is not carried twice.
        fresh.carry_from(&prev, None, &[(key, plan_id)]);
        assert_eq!(fresh.stats().probe_spaces_carried, 1);

        // A racing query created a fresh space first: the old space —
        // and with it the plan's memo entries, whose answers are
        // encoded in the old space's interner — must NOT carry.
        let racing = EpochContext::new();
        let racing_space = racing.probe_space(key.0, key.1, &program);
        racing.carry_from(&prev, None, &[(key, plan_id)]);
        assert_eq!(racing.stats().probe_spaces_carried, 0);
        assert!(Arc::ptr_eq(
            &racing_space,
            &racing.probe_space(key.0, key.1, &program)
        ));

        // A plan whose previous epoch never built a space carries
        // nothing and counts nothing.
        let empty_prev = EpochContext::new();
        let target = EpochContext::new();
        target.carry_from(&empty_prev, None, &[(key, plan_id)]);
        assert_eq!(target.stats().probe_spaces_carried, 0);
        assert_eq!(target.stats().eval_carried, 0);
    }

    #[test]
    fn stats_aggregate_scc_counter() {
        let ctx = EpochContext::new();
        ctx.note_scc_served();
        ctx.note_scc_served();
        assert_eq!(ctx.stats().scc_served, 2);
        assert_eq!(ctx.stats().eval_entries, 0);
    }
}
