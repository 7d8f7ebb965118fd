//! Overlapping memo-teleport fan-in: a root query whose continuation
//! terms are all memoized routes every child's answer set straight into
//! the parent state.  Sibling answer sets overlap, so most routed nodes
//! are already in `G`; the traversal must still visit each node once,
//! count exactly the nodes it inserts, and give the cold answers.

use rq_common::{Const, FxHashSet};
use rq_datalog::{seminaive_eval, Database};
use rq_engine::{EdbSource, EvalContext, EvalOptions, Evaluator};
use rq_relalg::{lemma1, Lemma1Options};
use rq_workloads::graphs::sg_random;

fn sorted(answers: &FxHashSet<Const>) -> Vec<Const> {
    let mut v: Vec<Const> = answers.iter().copied().collect();
    v.sort_unstable();
    v
}

#[test]
fn overlapping_teleport_fan_in_matches_cold_and_seminaive() {
    let w = sg_random(6, 40, 0.08, 11);
    let program = &w.program;
    let sg = program.pred_by_name("sg").unwrap();
    let up = program.pred_by_name("up").unwrap();
    let db = Database::from_program(program);
    let sys = lemma1(program, &Lemma1Options::default()).unwrap().system;
    let source = EdbSource::new(&db);
    let oracle = seminaive_eval(program).unwrap();
    let opts = EvalOptions::default();

    // The root: the level-0 constant whose up-children's answer sets
    // overlap the most (answers routed minus distinct answers routed).
    let cold = |c: Const| sorted(&Evaluator::new(&sys, &source).evaluate(sg, c, &opts).answers);
    let fan_in = |a: Const| -> (Vec<Const>, usize) {
        let children: Vec<Const> = oracle
            .tuples(up)
            .into_iter()
            .filter(|t| t[0] == a)
            .map(|t| t[1])
            .collect();
        let routed: Vec<Const> = children.iter().flat_map(|&k| cold(k)).collect();
        let distinct: FxHashSet<Const> = routed.iter().copied().collect();
        let overlap = routed.len() - distinct.len();
        (children, overlap)
    };
    let (root, (children, overlap)) = (0..program.consts.len())
        .map(Const::from_index)
        .filter(|&c| program.consts.display(c).starts_with("u0_"))
        .map(|c| (c, fan_in(c)))
        .max_by_key(|(c, (_, overlap))| (*overlap, std::cmp::Reverse(c.0)))
        .unwrap();
    assert!(
        overlap > 0,
        "the fixture must fan in overlapping sibling answer sets"
    );

    // Warm the context with every child's complete answer set.
    let ctx = EvalContext::new();
    let warm_evaluator = Evaluator::new(&sys, &source).with_context(&ctx);
    for &child in &children {
        assert!(warm_evaluator.evaluate(sg, child, &opts).converged);
    }

    let warm = warm_evaluator.evaluate(sg, root, &opts);
    let cold = Evaluator::new(&sys, &source).evaluate(sg, root, &opts);
    let expected: Vec<Const> = oracle
        .tuples(sg)
        .into_iter()
        .filter(|t| t[0] == root)
        .map(|t| t[1])
        .collect();

    assert!(warm.converged);
    assert!(
        warm.memo_teleports > 0,
        "every continuation term is memoized"
    );
    assert_eq!(warm.instances, 1, "no child copy is spliced");
    assert_eq!(sorted(&warm.answers), sorted(&cold.answers));
    assert_eq!(sorted(&warm.answers), expected);
    assert!(!expected.is_empty());
    assert_eq!(warm.counters.nodes_inserted, warm.graph_nodes);
    assert_eq!(cold.counters.nodes_inserted, cold.graph_nodes);
}
