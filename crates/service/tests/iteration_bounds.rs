//! The per-epoch finite-side set decides which §3 point queries skip
//! the `m·n` iteration bound.  It must never outlive its epoch: an
//! ingest that closes a cycle makes the next epoch compute the bound
//! again, and the answer must still be complete.

use rq_common::{Const, ConstValue};
use rq_engine::EvalOptions;
use rq_service::{QueryService, ServiceConfig};

/// A levelled, acyclic same-generation snapshot: `up` and `down` only
/// step between consecutive levels.
const SG: &str = "sg(X,Y) :- flat(X,Y).\n\
                  sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
                  up(u0_0, u1_0). up(u0_0, u1_1). up(u1_0, u2_0). up(u1_1, u2_0).\n\
                  flat(u2_0, d2_0). flat(u1_1, d1_1).\n\
                  down(d2_0, d1_0). down(d1_0, d0_0). down(d1_1, d0_1). down(d1_0, d0_2).";

/// A service over [`SG`] with an explicit node budget.  Skipping the
/// bound on a cyclic side would make the traversal diverge; the budget
/// turns that into a fast `converged = false` instead of a hang.  Every
/// correct run here stays far below it.
fn service() -> QueryService {
    let config = ServiceConfig {
        options: EvalOptions {
            node_budget: Some(100_000),
            ..EvalOptions::default()
        },
        ..ServiceConfig::default()
    };
    QueryService::with_config(rq_datalog::parse_program(SG).unwrap(), config)
}

/// `(computed, skipped)` iteration-bound counters.
fn bounds(service: &QueryService) -> (u64, u64) {
    let report = service.stats_report();
    (
        report.iteration_bounds_computed,
        report.iteration_bounds_skipped,
    )
}

/// `sg(u0_0, Y)` from the seminaive oracle on the current snapshot.
fn oracle_rows(service: &QueryService) -> Vec<Vec<Const>> {
    let snapshot = service.snapshot();
    let program = snapshot.program();
    let sg = program.pred_by_name("sg").unwrap();
    let u0 = program.consts.get(&ConstValue::Str("u0_0".into())).unwrap();
    let mut rows: Vec<Vec<Const>> = rq_datalog::seminaive_eval(program)
        .unwrap()
        .tuples(sg)
        .into_iter()
        .filter(|t| t[0] == u0)
        .map(|t| vec![t[1]])
        .collect();
    rows.sort_unstable();
    rows.dedup();
    rows
}

#[test]
fn finite_side_set_does_not_outlive_its_epoch() {
    let service = service();
    let q = service.parse_query("sg(u0_0, Y)").unwrap();

    // Acyclic epoch: the bound is skipped.
    let before = bounds(&service);
    let out = service.query(&q).unwrap();
    assert!(out.converged);
    assert_eq!(*out.rows, oracle_rows(&service));
    assert_eq!(bounds(&service), (before.0, before.1 + 1));

    // Close the cycle u0_0 → u1_0 → u2_0 → u0_0: the new epoch must
    // not inherit the old finite-side set.
    let before = bounds(&service);
    service.ingest("up(u2_0, u0_0).").unwrap();
    let out = service.query(&q).unwrap();
    assert!(out.converged, "the m·n bound is sufficient");
    assert_eq!(*out.rows, oracle_rows(&service));
    assert_eq!(
        bounds(&service),
        (before.0 + 1, before.1),
        "the cyclic epoch computes the bound (during the ingest's \
         re-derive or the re-query) and skips nothing"
    );
}

#[test]
fn inverse_queries_skip_on_a_finite_far_side() {
    let service = service();
    for text in ["sg(X, d0_0)", "sg(X, d0_1)", "sg(X, d0_2)"] {
        let out = service.query(&service.parse_query(text).unwrap()).unwrap();
        assert!(out.converged);
        assert!(!out.rows.is_empty(), "{text}");
    }
    assert_eq!(bounds(&service), (0, 3));
    // A `down` cycle (d0_0 ⇄ d1_0) taints the inverse side only.  Ask
    // specs the ingest cannot have re-derived into the result cache.
    service.ingest("down(d0_0, d1_0).").unwrap();
    let before = bounds(&service);
    for text in ["sg(X, d1_1)", "sg(X, d1_0)", "sg(u1_0, Y)"] {
        let out = service.query(&service.parse_query(text).unwrap()).unwrap();
        assert!(out.converged, "{text}");
        assert!(!out.from_cache, "{text}");
    }
    assert_eq!(bounds(&service), (before.0 + 1, before.1 + 2));
}
