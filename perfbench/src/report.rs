//! Turning a run into the printed result: run metadata, then one JSON
//! line `{"correct", "attempted", "failed", "metrics"}`.

use crate::live::{Run, Series, Workload};
use crate::replay::{p50, Replayed};
use crate::scrape::{ratio, Delta, Scrape};
use crate::stats::{mean, median, percentile};
use rq_common::Json;

/// Run metadata, printed on its own stdout line before the result.
pub struct Meta {
    json: Json,
}

fn command_line(program: &str, args: &[&str]) -> Json {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or(Json::Null, |o| {
            Json::Str(String::from_utf8_lossy(&o.stdout).trim().to_string())
        })
}

impl Meta {
    pub fn collect(seed: u64, workload: &str, run: &Run, traced: bool) -> Meta {
        let durability = rq_service::DurabilityConfig::default();
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let pairs: Vec<(&str, Json)> = vec![
            ("workload", Json::Str(workload.to_string())),
            ("seed", Json::Int(seed as i64)),
            ("trace", Json::Bool(traced)),
            ("nproc", Json::Int(nproc as i64)),
            ("rustc", command_line("rustc", &["-V"])),
            ("git_revision", command_line("git", &["rev-parse", "HEAD"])),
            ("server_query_threads", Json::Int(run.query_threads as i64)),
            ("server_wire_workers", Json::Int(run.wire_workers as i64)),
            ("client_connections", Json::Int(crate::live::CLIENTS as i64)),
            ("fsync_policy", Json::Str(format!("{:?}", durability.fsync))),
            (
                "checkpoint_interval",
                Json::Int(durability.checkpoint_interval as i64),
            ),
            ("rounds", Json::Int(run.rounds as i64)),
            ("worker_panics", Json::Int(run.panics as i64)),
            (
                "durability_check",
                Json::Str(
                    "SIGKILL + restart: proves process-crash durability only; the OS page \
                     cache survives the kill, so power loss is not tested"
                        .into(),
                ),
            ),
            (
                "not_covered",
                Json::Str(
                    "client connections never exceed the server's wire workers, so \
                     idle-connection starvation of the worker pool is out of reach"
                        .into(),
                ),
            ),
        ];
        Meta {
            json: Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()),
        }
    }
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn line(self, meta: &Meta, run: &Run) -> String {
        let metrics = self
            .0
            .into_iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { value } else { 0.0 };
                (
                    name,
                    Json::Object(vec![
                        ("value".into(), Json::Float(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        let result = Json::Object(vec![
            (
                "correct".into(),
                Json::Bool(run.tally.wrong + run.tally.lost == 0),
            ),
            (
                "attempted".into(),
                Json::Int(run.tally.attempted.max(1) as i64),
            ),
            ("failed".into(), Json::Int(run.tally.failed() as i64)),
            ("metrics".into(), Json::Object(metrics)),
        ]);
        format!("{}\n{}", meta.json.encode(), result.encode())
    }
}

fn pct(samples: &[f64], q: f64) -> f64 {
    percentile(samples, q).unwrap_or(0.0)
}

/// Samples a slice needs before its own percentile is used: ten beyond
/// the p99.
const WINDOW_SAMPLES: usize = 1_000;

/// The `q`-quantile of a request type's round trips (µs).  When every
/// slice holds enough samples, the median of the per-slice quantiles,
/// so a burst of host contention in one slice cannot move it; otherwise
/// the quantile of all samples pooled.
fn quantile(slices: &[Series], q: f64) -> f64 {
    if !slices.is_empty() && slices.iter().all(|s| s.rtt_us.len() >= WINDOW_SAMPLES) {
        let per_slice: Vec<f64> = slices.iter().map(|s| pct(&s.rtt_us, q)).collect();
        median(&per_slice).unwrap_or(0.0)
    } else {
        let pooled: Vec<f64> = slices
            .iter()
            .flat_map(|s| s.rtt_us.iter().copied())
            .collect();
        pct(&pooled, q)
    }
}

/// Items per second: the median over slices of each slice's rate.
fn rate(slices: &[Series]) -> f64 {
    let rates: Vec<f64> = slices
        .iter()
        .filter(|s| s.wall_s > 0.0)
        .map(|s| s.items as f64 / s.wall_s)
        .collect();
    median(&rates).unwrap_or(0.0)
}

pub fn end_to_end(meta: &Meta, run: &Run) -> String {
    let query = run.series("/query");
    let batch = run.series("/batch");
    let ingest = run.series("/ingest");
    let mut m = Metrics(Vec::new());
    m.add("setup_s", median(&run.setup_s).unwrap_or(0.0), "s");
    m.add("query_p50_us", quantile(query, 0.50), "us");
    m.add("query_p99_us", quantile(query, 0.99), "us");
    m.add("queries_per_s", rate(query), "1/s");
    m.add("batch_p50_ms", quantile(batch, 0.50) / 1e3, "ms");
    m.add("specs_per_s", rate(batch), "1/s");
    m.add("ingest_p50_us", quantile(ingest, 0.50), "us");
    m.add("restart_s", median(&run.restart_s).unwrap_or(0.0), "s");
    m.add(
        "peak_rss_mb",
        median(&run.peak_rss_kib).unwrap_or(0.0) / 1024.0,
        "MiB",
    );
    m.add(
        "disk_bytes_per_user_byte",
        ratio(run.data_dir_bytes as f64, run.user_bytes as f64),
        "ratio",
    );
    m.line(meta, run)
}

/// Sum of `f` over each `(before, after)` pair.
fn sum(pairs: &[(Scrape, Scrape)], f: impl Fn(&Delta<'_>) -> f64) -> f64 {
    pairs
        .iter()
        .map(|(before, after)| f(&Delta { before, after }))
        .sum()
}

pub fn per_layer(meta: &Meta, run: &Run, rp: &Replayed, workload: Workload) -> String {
    let main = &run.main_scrapes;
    let ingest = &run.ingest_scrapes;
    let mut m = Metrics(Vec::new());

    // Client-observed tails that ride on fsync and host wake-up latency:
    // their run-to-run spread on a shared host is wider than any bound
    // a gate could hold, so they are reported here, ungated.
    m.add(
        "batch_p99_ms",
        quantile(run.series("/batch"), 0.99) / 1e3,
        "ms",
    );
    m.add("ingest_p99_us", quantile(run.series("/ingest"), 0.99), "us");
    m.add("ingests_per_s", rate(run.series("/ingest")), "1/s");

    // rq-wire
    let handle_hit = p50(&rp.handle_hit_us);
    let rtt_hit = p50(&run.rtt_hit_us);
    m.add("wire.handle_us", p50(&rp.handle_us), "us");
    m.add("wire.encode_us", p50(&rp.encode_us), "us");
    m.add("wire.rtt_hit_us", rtt_hit, "us");
    m.add("wire.rtt_miss_us", p50(&run.rtt_miss_us), "us");
    m.add("wire.socket_us", rtt_hit - handle_hit, "us");
    m.add(
        "wire.response_bytes",
        ratio(run.response_bytes as f64, run.responses as f64),
        "bytes",
    );
    m.add("wire.reconnects", run.reconnects as f64, "count");
    m.add("wire.worker_panics", run.panics as f64, "count");

    // rq-service `service`
    m.add("service.parse_us", p50(&rp.parse_us), "us");
    m.add("service.query_hit_us", p50(&rp.query_hit_us), "us");
    m.add("service.query_miss_us", p50(&rp.query_miss_us), "us");

    // rq-service `results`
    let hits = sum(main, |d| d.stat("result_cache.hits"));
    let misses = sum(main, |d| d.stat("result_cache.misses"));
    m.add("results.hit_ratio", ratio(hits, hits + misses), "ratio");
    m.add(
        "results.evictions",
        sum(main, |d| d.stat("result_cache.evictions")),
        "count",
    );

    // rq-service `plan`
    m.add("plan.compile_us", p50(&rp.plan_compile_us), "us");
    let plan_hits = sum(main, |d| d.stat("plan_cache.hits"));
    let plan_misses = sum(main, |d| d.stat("plan_cache.misses"));
    m.add(
        "plan.hit_ratio",
        ratio(plan_hits, plan_hits + plan_misses),
        "ratio",
    );

    // rq-service `context` + rq-engine `traversal`.  The epoch
    // context's counters restart at every publish, so a workload that
    // ingests during its reads takes them from the replay's sum over
    // epochs; the others from the live scrape.
    let (eval_hits, eval_misses, probe_hits, probe_misses) = if workload == Workload::IngestMixed {
        let c = &rp.context;
        (
            c.eval_hits as f64,
            c.eval_misses as f64,
            c.probe_hits as f64,
            c.probe_misses as f64,
        )
    } else {
        (
            sum(main, |d| d.stat("epoch_context.machine_memo.hits")),
            sum(main, |d| d.stat("epoch_context.machine_memo.misses")),
            sum(main, |d| d.stat("epoch_context.probe_memo.hits")),
            sum(main, |d| d.stat("epoch_context.probe_memo.misses")),
        )
    };
    m.add(
        "context.machine_memo_hit_ratio",
        ratio(eval_hits, eval_hits + eval_misses),
        "ratio",
    );
    m.add(
        "context.probe_memo_hit_ratio",
        ratio(probe_hits, probe_hits + probe_misses),
        "ratio",
    );
    m.add(
        "engine.graph_nodes_per_miss",
        ratio(
            sum(main, |d| d.metric("rq_engine_graph_nodes_total")),
            misses,
        ),
        "count",
    );
    m.add(
        "engine.teleports_per_miss",
        ratio(
            sum(main, |d| d.metric("rq_engine_memo_teleports_total")),
            misses,
        ),
        "count",
    );

    // rq-datalog `db`
    m.add("storage.csr_build_us", p50(&rp.csr_build_us), "us");
    let csr = sum(main, |d| d.stat("storage.csr_probes"));
    let trie = sum(main, |d| d.stat("storage.trie_probes"));
    m.add("storage.csr_probe_share", ratio(csr, csr + trie), "ratio");

    // rq-service `snapshot` + delta repair
    let ingests = sum(ingest, |d| d.stat("durability.wal.records"));
    m.add("ingest.publish_us", p50(&rp.publish_us), "us");
    for (warm, samples) in &rp.publish_warm_us {
        m.add(&format!("ingest.publish_us.warm{warm}"), p50(samples), "us");
    }
    m.add(
        "ingest.repair_ratio",
        ratio(sum(ingest, |d| d.stat("delta_repair.repairs")), ingests),
        "ratio",
    );
    m.add(
        "ingest.fallback_cold_ratio",
        ratio(
            sum(ingest, |d| d.stat("delta_repair.fallback_cold")),
            ingests,
        ),
        "ratio",
    );

    // rq-store `backend` + rq-service `durable`
    m.add("store.append_us", p50(&rp.append_us), "us");
    m.add("store.append_us.p99", pct(&rp.append_us, 0.99), "us");
    m.add("store.checkpoint_us", p50(&rp.checkpoint_us), "us");
    m.add(
        "store.wal_bytes_per_record",
        ratio(sum(ingest, |d| d.stat("durability.wal.bytes")), ingests),
        "bytes",
    );
    m.add(
        "store.checkpoints",
        sum(ingest, |d| d.stat("durability.wal.checkpoints")),
        "count",
    );
    m.add("store.load_us", p50(&rp.load_us), "us");
    m.add("recovery.open_us", p50(&rp.open_us), "us");
    let replayed: Vec<f64> = run
        .restart_scrapes
        .iter()
        .map(|s| s.stat("durability.recovery.replayed_records"))
        .collect();
    m.add(
        "recovery.replayed_records",
        mean(&replayed).unwrap_or(0.0),
        "count",
    );

    // Whole-run accounting and the tracing cost.
    m.add(
        "error_ratio",
        ratio(run.tally.failed() as f64, run.tally.attempted as f64),
        "ratio",
    );
    m.add(
        "trace.overhead_ratio",
        ratio(rp.traced_wall_s, rp.untraced_wall_s),
        "ratio",
    );
    m.line(meta, run)
}
