//! Seeded inputs: the program each server loads, the query specs the
//! clients ask, the facts the writer ingests, and reference answers
//! from an in-process service over the same program.

use crate::stats::Rng;
use rq_common::{FxHashSet, Json};
use rq_service::QueryService;

/// `flights::network(AIRPORTS, FLIGHTS_PER_AIRPORT, seed)`.
pub const AIRPORTS: usize = 200;
pub const FLIGHTS_PER_AIRPORT: usize = 12;
/// `graphs::sg_random(SG_LEVELS, SG_WIDTH, SG_P, seed)`.
pub const SG_LEVELS: usize = 12;
pub const SG_WIDTH: usize = 400;
pub const SG_P: f64 = 0.01;

/// One generated program plus the query texts asked of it.
pub struct Dataset {
    pub program_text: String,
    pub specs: Vec<String>,
}

/// §4 flights: all `cnx(pA, dep, D, AT)` specs of the network.
pub fn flights(seed: u64) -> Dataset {
    let w = rq_workloads::flights::network(AIRPORTS, FLIGHTS_PER_AIRPORT, seed);
    Dataset {
        program_text: rq_datalog::display_program(&w.program),
        specs: rq_workloads::flights::serve_queries(AIRPORTS, FLIGHTS_PER_AIRPORT),
    }
}

/// §3 same generation: `sg(u<l>_<i>, Y)` for every up-side node the
/// generated forest mentions.
pub fn same_generation(seed: u64) -> Dataset {
    let w = rq_workloads::graphs::sg_random(SG_LEVELS, SG_WIDTH, SG_P, seed);
    let program_text = rq_datalog::display_program(&w.program);
    let mut specs = Vec::new();
    for l in 0..SG_LEVELS {
        for i in 0..SG_WIDTH {
            let node = format!("u{l}_{i}");
            if w.program
                .consts
                .get(&rq_common::ConstValue::Str(node.as_str().into()))
                .is_some()
            {
                specs.push(format!("sg({node}, Y)"));
            }
        }
    }
    Dataset {
        program_text,
        specs,
    }
}

/// New facts for a writer to ingest, none already in the program, each
/// with the spec whose answer it extends and the row it adds there.
pub enum NewFacts {
    /// `flight(pA, dep, pB, arr)`: a departure on the network's hourly
    /// grid (so `is_deptime` already lists it) with a 75-minute leg,
    /// which the generator never emits; it adds `[pB, arr]` to
    /// `cnx(pA, dep, D, AT)`.
    Flights {
        rng: Rng,
        used: FxHashSet<(usize, usize, usize)>,
        /// Only the last two departure slots.
        late: bool,
    },
    /// `flat(u<top>_i, d<top>_j)` for a pair the forest lacks; it adds
    /// `[d<top>_j]` to `sg(u<top>_i, Y)`.
    SameGeneration {
        rng: Rng,
        used: FxHashSet<(usize, usize)>,
        /// Top-level `i` whose spec is served.
        served: Vec<usize>,
    },
}

impl NewFacts {
    pub fn flights(seed: u64, late: bool) -> Self {
        Self::Flights {
            rng: Rng::new(seed ^ 0x1f1f_1f1f),
            used: FxHashSet::default(),
            late,
        }
    }

    pub fn same_generation(seed: u64, data: &Dataset) -> Self {
        let top = SG_LEVELS - 1;
        let prefix = format!("flat(u{top}_");
        let used = data
            .program_text
            .lines()
            .filter_map(|l| l.strip_prefix(&prefix))
            .filter_map(|rest| {
                let (i, rest) = rest.split_once(',')?;
                let j = rest.trim().strip_prefix(&format!("d{top}_"))?;
                Some((i.parse().ok()?, j.trim_end_matches(").").parse().ok()?))
            })
            .collect();
        let served = (0..SG_WIDTH)
            .filter(|i| data.specs.contains(&format!("sg(u{top}_{i}, Y)")))
            .collect();
        Self::SameGeneration {
            rng: Rng::new(seed ^ 0x5e5e_5e5e),
            used,
            served,
        }
    }

    /// `(fact text, the spec it extends, the row it adds)`.
    pub fn next_fact(&mut self) -> (String, String, String) {
        match self {
            Self::Flights { rng, used, late } => loop {
                let a = rng.below(AIRPORTS);
                let f = if *late {
                    FLIGHTS_PER_AIRPORT - 1 - rng.below(2)
                } else {
                    rng.below(FLIGHTS_PER_AIRPORT)
                };
                let mut b = rng.below(AIRPORTS - 1);
                if b >= a {
                    b += 1;
                }
                if used.insert((a, f, b)) {
                    let dep = 360 + 60 * f;
                    let arr = dep + 75;
                    return (
                        format!("flight(p{a}, {dep}, p{b}, {arr})."),
                        format!("cnx(p{a}, {dep}, D, AT)"),
                        format!("[\"p{b}\",{arr}]"),
                    );
                }
            },
            Self::SameGeneration { rng, used, served } => loop {
                let top = SG_LEVELS - 1;
                let i = served[rng.below(served.len())];
                let j = rng.below(SG_WIDTH);
                if used.insert((i, j)) {
                    return (
                        format!("flat(u{top}_{i}, d{top}_{j})."),
                        format!("sg(u{top}_{i}, Y)"),
                        format!("[\"d{top}_{j}\"]"),
                    );
                }
            },
        }
    }
}

/// The JSON request body asking `spec`.
pub fn query_body(spec: &str) -> String {
    format!("{{\"query\":{}}}", Json::Str(spec.to_string()).encode())
}

/// The JSON request body asking `specs` as one batch.
pub fn batch_body(specs: &[&str]) -> String {
    let items: Vec<Json> = specs.iter().map(|s| Json::Str(s.to_string())).collect();
    format!("{{\"queries\":{}}}", Json::Array(items).encode())
}

/// The JSON request body ingesting `facts`.
pub fn ingest_body(facts: &str) -> String {
    format!("{{\"facts\":{}}}", Json::Str(facts.to_string()).encode())
}

/// One answer's rows in a form independent of row order: each row's
/// JSON encoding, sorted, newline-joined.
pub fn canonical_rows(answer: &Json) -> Option<String> {
    let mut rows: Vec<String> = answer
        .get("rows")?
        .as_array()?
        .iter()
        .map(Json::encode)
        .collect();
    rows.sort_unstable();
    Some(rows.join("\n"))
}

/// One reference answer: its rows in canonical form, and the `rows`
/// array exactly as the server's encoder writes it.
#[derive(Clone, Debug, PartialEq)]
pub struct Expected {
    pub rows: String,
    pub raw: String,
}

/// Reference answers for `specs` from `service`, routed through the
/// same `/batch` handler the server runs, so both sides encode
/// constants identically.
pub fn reference_answers(service: &QueryService, specs: &[String]) -> Vec<Expected> {
    let refs: Vec<&str> = specs.iter().map(String::as_str).collect();
    let resp = rq_wire::handle(service, "POST", "/batch", batch_body(&refs).as_bytes());
    assert_eq!(resp.status, 200, "reference batch failed: {:?}", resp.body);
    let answers = resp
        .body
        .get("answers")
        .and_then(Json::as_array)
        .expect("batch answers");
    assert_eq!(answers.len(), specs.len(), "one reference answer per spec");
    answers
        .iter()
        .map(|answer| Expected {
            rows: canonical_rows(answer).expect("reference answer has rows"),
            raw: answer.get("rows").map(Json::encode).unwrap_or_default(),
        })
        .collect()
}

/// The encoded `rows` array of a single-answer response body and whether
/// it came from the cache, found by position (the server writes
/// `"rows"` before `"converged"` and `"from_cache"` last); `None` when
/// the body has another shape.
pub fn raw_rows(body: &str) -> Option<(&str, bool)> {
    let start = body.find("\"rows\":")? + "\"rows\":".len();
    let end = start + body[start..].rfind(",\"converged\":")?;
    let cached = body.ends_with("\"from_cache\":true}");
    Some((&body[start..end], cached))
}

/// An in-process service over `program_text` (the reference, and the
/// replay's twin of the server).
pub fn service(program_text: &str) -> QueryService {
    QueryService::from_source(program_text).expect("generated program parses")
}

/// A service that recomputes every answer: no result cache, no shared
/// epoch context, no delta repair.  The sequential reference for runs
/// that ingest, where each ingest must stay cheap.
pub fn uncached_service(program_text: &str) -> QueryService {
    let program = rq_datalog::parse_program(program_text).expect("generated program parses");
    let config = rq_service::ServiceConfig {
        memoize_results: false,
        share_epoch_context: false,
        delta_repair: false,
        ..rq_service::ServiceConfig::default()
    };
    QueryService::with_config(program, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_are_seeded() {
        let a = flights(3);
        assert_eq!(a.program_text, flights(3).program_text);
        assert_ne!(a.program_text, flights(4).program_text);
        assert_eq!(a.specs.len(), AIRPORTS * FLIGHTS_PER_AIRPORT);
        let sg = same_generation(3);
        assert!(
            sg.specs.len() > SG_LEVELS * SG_WIDTH * 9 / 10,
            "{}",
            sg.specs.len()
        );
    }

    fn assert_new_and_answerable(data: &Dataset, mut gen: NewFacts) {
        let svc = service(&data.program_text);
        for _ in 0..3 {
            let (fact, spec, row) = gen.next_fact();
            assert!(data.specs.contains(&spec), "{spec}");
            let before = reference_answers(&svc, std::slice::from_ref(&spec));
            assert!(
                !before[0].rows.lines().any(|r| r == row),
                "{fact} is not new"
            );
            svc.ingest(&fact).unwrap();
            let after = reference_answers(&svc, std::slice::from_ref(&spec));
            assert!(
                after[0].rows.lines().any(|r| r == row),
                "{fact}: {}",
                after[0].rows
            );
        }
    }

    #[test]
    fn new_facts_are_new_and_answerable() {
        assert_new_and_answerable(&flights(1), NewFacts::flights(1, false));
        assert_new_and_answerable(&flights(1), NewFacts::flights(1, true));
        let sg = same_generation(1);
        let gen = NewFacts::same_generation(1, &sg);
        assert_new_and_answerable(&sg, gen);
    }

    #[test]
    fn raw_rows_match_the_server_encoding() {
        let data = flights(2);
        let svc = service(&data.program_text);
        let expected = reference_answers(&svc, &data.specs[..3]);
        for (spec, want) in data.specs[..3].iter().zip(&expected) {
            let resp = rq_wire::handle(&svc, "POST", "/query", query_body(spec).as_bytes());
            let body = resp.payload();
            let (raw, _) = raw_rows(&body).expect("single-answer shape");
            assert_eq!(raw, want.raw);
        }
        assert_eq!(raw_rows("{\"error\":\"x\"}"), None);
    }

    #[test]
    fn canonical_rows_ignore_row_order() {
        let a = Json::parse(r#"{"rows":[["b",1],["a",2]]}"#).unwrap();
        let b = Json::parse(r#"{"rows":[["a",2],["b",1]]}"#).unwrap();
        assert_eq!(canonical_rows(&a), canonical_rows(&b));
        assert_eq!(canonical_rows(&Json::Null), None);
    }
}
