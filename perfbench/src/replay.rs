//! The traced run: the first round's requests replayed in-process, in
//! send order, on the benchmark's own thread, with a span around each
//! public call into a layer.  Storage, plan and CSR calls are timed on
//! inputs sized from the live run.

use crate::live::{Bench, Run, Sent};
use crate::stats::{percentile, Rng};
use crate::trace::{self, Recorder};
use crate::workloads;
use rq_common::{Json, Pred};
use rq_service::{EpochContextStats, QueryService, ServiceError};
use rq_store::{FileBackend, FsyncPolicy, StorageBackend};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Specs (an ingest counts as one) replayed per server process: a
/// prefix of each phase list, in send order.
pub const REPLAY_SPECS: usize = 2_000;
/// Repetitions of each sized storage, plan and CSR call.
const REPEATS: usize = 15;
/// Appends timed for the WAL append distribution.
const APPENDS: usize = 1_000;
/// Ingests timed per warm-cache size.
const WARM_INGESTS: usize = 8;

/// What the replay measured (µs unless named otherwise).
#[derive(Default)]
pub struct Replayed {
    pub handle_us: Vec<f64>,
    pub handle_hit_us: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub parse_us: Vec<f64>,
    pub query_hit_us: Vec<f64>,
    pub query_miss_us: Vec<f64>,
    pub publish_us: Vec<f64>,
    /// `(warm specs, ingest µs samples)`.
    pub publish_warm_us: Vec<(usize, Vec<f64>)>,
    pub plan_compile_us: Vec<f64>,
    pub csr_build_us: Vec<f64>,
    pub append_us: Vec<f64>,
    pub checkpoint_us: Vec<f64>,
    pub load_us: Vec<f64>,
    pub open_us: Vec<f64>,
    /// Epoch-context counters summed over every epoch the service pass
    /// published.
    pub context: EpochContextStats,
    pub traced_wall_s: f64,
    pub untraced_wall_s: f64,
    /// Self time per span name: `(total ns, spans)`.
    pub self_time: BTreeMap<&'static str, (u64, u64)>,
}

/// The replayed prefix of each phase list.
fn prefixes(run: &Run) -> Vec<&[Sent]> {
    run.sent
        .iter()
        .map(|phase| {
            let mut specs = 0;
            let end = phase
                .iter()
                .position(|s| {
                    specs += spec_count(s);
                    specs > REPLAY_SPECS
                })
                .unwrap_or(phase.len());
            &phase[..end]
        })
        .collect()
}

fn spec_count(sent: &Sent) -> usize {
    if sent.path == "/batch" {
        texts(sent).len()
    } else {
        1
    }
}

/// The query texts of a `/query` or `/batch` body, or the facts of an
/// `/ingest` body.
fn texts(sent: &Sent) -> Vec<String> {
    let json = Json::parse(&sent.body).expect("the benchmark's own request bodies parse");
    let field = |key: &str| json.get(key).and_then(Json::as_str).map(str::to_string);
    match sent.path {
        "/batch" => json
            .get("queries")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|q| q.as_str().map(str::to_string))
            .collect(),
        "/ingest" => field("facts").into_iter().collect(),
        _ => field("query").into_iter().collect(),
    }
}

pub fn replay(bench: &Bench<'_>, run: &Run, dir: &Path) -> Result<Replayed, String> {
    let mut out = Replayed::default();
    let phases = prefixes(run);

    // Untraced: the wire handler, as the server runs it.  Run before and
    // after the traced pass, so neither side alone pays the warm-up.
    let untraced = || {
        let start = Instant::now();
        for phase in &phases {
            let service = workloads::service(&bench.data.program_text);
            for sent in *phase {
                let resp = rq_wire::handle(&service, "POST", sent.path, sent.body.as_bytes());
                std::hint::black_box(resp.payload());
            }
        }
        start.elapsed().as_secs_f64()
    };
    out.untraced_wall_s = untraced() / 2.0;

    // Traced, the same calls: `wire.request` → `wire.handle`, `wire.encode`.
    let mut rec = Recorder::new();
    let start = Instant::now();
    for phase in &phases {
        let service = workloads::service(&bench.data.program_text);
        for sent in *phase {
            rec.next_request();
            let ((handle, encode, cached), _) = rec.span("wire.request", |rec| {
                let (resp, handle) = rec.span("wire.handle", |_| {
                    rq_wire::handle(&service, "POST", sent.path, sent.body.as_bytes())
                });
                let (_, encode) = rec.span("wire.encode", |_| std::hint::black_box(resp.payload()));
                let cached = resp.body.get("from_cache").and_then(Json::as_bool);
                (handle, encode, cached)
            });
            out.handle_us.push(rec.dur_us(handle));
            out.encode_us.push(rec.dur_us(encode));
            if cached == Some(true) {
                out.handle_hit_us.push(rec.dur_us(handle));
            }
        }
    }
    out.traced_wall_s = start.elapsed().as_secs_f64();
    out.untraced_wall_s += untraced() / 2.0;

    // Traced, one layer down: `service.request` → `service.parse`,
    // `service.query` (per spec) or `service.ingest`.
    for phase in &phases {
        let service = workloads::service(&bench.data.program_text);
        for sent in *phase {
            rec.next_request();
            rec.span("service.request", |rec| {
                service_calls(&service, sent, rec, &mut out);
            });
        }
        add_context(&mut out.context, &service.snapshot().context().stats());
    }
    out.self_time = trace::self_time_by_name(&rec.spans);
    let spans_dir = Path::new(".bench_runs").join("traces");
    std::fs::create_dir_all(&spans_dir)
        .map_err(|e| format!("create {}: {e}", spans_dir.display()))?;
    let name = format!("{:?}-seed{}.json", bench.workload, bench.seed).to_lowercase();
    std::fs::write(spans_dir.join(name), trace::to_json(&rec.spans))
        .map_err(|e| format!("write spans: {e}"))?;

    plan_and_storage(bench, &mut out);
    warm_ingests(bench, &mut out);
    durable_store(bench, run, dir, &mut out)?;
    Ok(out)
}

fn service_calls(service: &QueryService, sent: &Sent, rec: &mut Recorder, out: &mut Replayed) {
    if sent.path == "/ingest" {
        for facts in texts(sent) {
            // Epoch-scoped counters reset at each publish: bank them.
            add_context(&mut out.context, &service.snapshot().context().stats());
            let (result, span) = rec.span("service.ingest", |_| service.ingest(&facts));
            if result.is_ok() {
                out.publish_us.push(rec.dur_us(span));
            }
        }
        return;
    }
    let snapshot = service.snapshot();
    for text in texts(sent) {
        let (parsed, span) = rec.span("service.parse", |_| service.parse_query(&text));
        out.parse_us.push(rec.dur_us(span));
        let spec = match parsed {
            Ok(spec) => spec,
            Err(ServiceError::UnknownConstant(_)) => continue,
            Err(e) => panic!("replayed query `{text}` does not parse: {e}"),
        };
        let (answer, span) = rec.span("service.query", |_| service.query_on(&snapshot, &spec));
        match answer {
            Ok(a) if a.from_cache => out.query_hit_us.push(rec.dur_us(span)),
            Ok(_) => out.query_miss_us.push(rec.dur_us(span)),
            Err(e) => panic!("replayed query `{text}` failed: {e}"),
        }
    }
}

fn add_context(total: &mut EpochContextStats, epoch: &EpochContextStats) {
    total.eval_hits += epoch.eval_hits;
    total.eval_misses += epoch.eval_misses;
    total.probe_hits += epoch.probe_hits;
    total.probe_misses += epoch.probe_misses;
}

/// Plan compilation per distinct `(pred, adornment)` the workload asks,
/// each on a fresh plan cache, and the CSR build of the program's
/// database.
fn plan_and_storage(bench: &Bench<'_>, out: &mut Replayed) {
    let service = workloads::service(&bench.data.program_text);
    let snapshot = service.snapshot();
    let mut keys: Vec<(Pred, rq_service::Adornment, bool)> = Vec::new();
    for text in &bench.data.specs {
        let Ok(spec) = service.parse_query(text) else {
            continue;
        };
        let key = (spec.pred, spec.adornment(), spec.arity() == 2);
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    for (pred, adornment, binary) in keys {
        for _ in 0..REPEATS {
            let plans = rq_service::PlanCache::new();
            let start = Instant::now();
            if binary {
                let _ = std::hint::black_box(plans.chain_plan_for(&snapshot, pred, adornment));
            } else {
                let _ = std::hint::black_box(plans.nary_plan_for(&snapshot, pred, adornment));
            }
            out.plan_compile_us
                .push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    let program = rq_datalog::parse_program(&bench.data.program_text).expect("program parses");
    for _ in 0..REPEATS {
        let db = rq_datalog::Database::from_program(&program);
        let start = Instant::now();
        std::hint::black_box(db.build_compact_stores());
        out.csr_build_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
}

/// `QueryService::ingest` cost against the warm result-cache size: the
/// flights network of the run's seed with 0, 600 and 2,400 of its
/// `hot_reads` specs (most popular first) warm before each ingest.
fn warm_ingests(bench: &Bench<'_>, out: &mut Replayed) {
    let data = workloads::flights(bench.seed);
    let mut popularity: Vec<usize> = (0..data.specs.len()).collect();
    Rng::new(bench.seed).shuffle(&mut popularity);
    for warm in [0, 600, 2_400] {
        let service = workloads::service(&data.program_text);
        let mut facts = workloads::NewFacts::flights(bench.seed ^ 0x3a3a, false);
        let mut samples = Vec::with_capacity(WARM_INGESTS);
        let specs: Vec<_> = popularity[..warm]
            .iter()
            .map(|&i| {
                service
                    .parse_query(&data.specs[i])
                    .expect("served spec parses")
            })
            .collect();
        for _ in 0..WARM_INGESTS {
            for spec in &specs {
                service.query(spec).expect("warm-up query answers");
            }
            let (fact, _, _) = facts.next_fact();
            let start = Instant::now();
            service.ingest(&fact).expect("new fact ingests");
            samples.push(start.elapsed().as_secs_f64() * 1e6);
        }
        out.publish_warm_us.push((warm, samples));
    }
}

/// The durable store, sized from the run: WAL appends under
/// `FsyncPolicy::Always` at the run's mean record size, checkpoint
/// installs at its `checkpoint.snap` size, and load / recovery of
/// copies of its data dir.
fn durable_store(
    bench: &Bench<'_>,
    run: &Run,
    dir: &Path,
    out: &mut Replayed,
) -> Result<(), String> {
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    let (records, bytes) = run
        .ingest_scrapes
        .iter()
        .fold((0.0, 0.0), |(r, b), (before, after)| {
            (
                r + after.metric("rq_wal_records_total") - before.metric("rq_wal_records_total"),
                b + after.metric("rq_wal_bytes_total") - before.metric("rq_wal_bytes_total"),
            )
        });
    let record_size = if records > 0.0 {
        (bytes / records) as usize
    } else {
        64
    };
    let scratch = dir.join("replay-store");
    std::fs::create_dir_all(&scratch).map_err(|e| io("create store dir", e))?;
    let backend =
        FileBackend::open(&scratch, FsyncPolicy::Always).map_err(|e| io("open store", e))?;
    let payload = vec![0x5au8; record_size];
    for epoch in 1..=APPENDS as u64 {
        let start = Instant::now();
        backend
            .append(epoch, &payload)
            .map_err(|e| io("append", e))?;
        out.append_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let kept = run.kept_data_dir.as_deref().ok_or("no data dir kept")?;
    let snap_size =
        std::fs::metadata(kept.join("checkpoint.snap")).map_or(record_size, |m| m.len() as usize);
    let snap = vec![0xa5u8; snap_size];
    for i in 0..REPEATS as u64 {
        let start = Instant::now();
        backend
            .install_checkpoint(APPENDS as u64 + i, &snap)
            .map_err(|e| io("install checkpoint", e))?;
        out.checkpoint_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(backend);
    let program = rq_datalog::parse_program(&bench.data.program_text).expect("program parses");
    for i in 0..REPEATS {
        let copy = copy_dir(kept, &dir.join(format!("replay-load-{i}")))
            .map_err(|e| io("copy data dir", e))?;
        let backend =
            FileBackend::open(&copy, FsyncPolicy::Always).map_err(|e| io("open copy", e))?;
        let start = Instant::now();
        std::hint::black_box(backend.load().map_err(|e| io("load", e))?);
        out.load_us.push(start.elapsed().as_secs_f64() * 1e6);
        drop(backend);
        let copy = copy_dir(kept, &dir.join(format!("replay-open-{i}")))
            .map_err(|e| io("copy data dir", e))?;
        let program = program.clone();
        let start = Instant::now();
        let service =
            QueryService::open_with_config(program, &copy, rq_service::ServiceConfig::default())
                .map_err(|e| format!("recover copy: {e}"))?;
        out.open_us.push(start.elapsed().as_secs_f64() * 1e6);
        drop(service);
    }
    Ok(())
}

/// Copy the regular files in `from` into a new directory `to`.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(to.to_path_buf())
}

/// The p50 of `samples` (0 when there are none).
pub fn p50(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}
