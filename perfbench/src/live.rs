//! The timed runs: `rqc serve --http` child processes driven over
//! loopback by at most two client threads, one keep-alive connection
//! each, in a closed loop.  Every answer is checked.

use crate::http::{Client, Failure, Response};
use crate::scrape::Scrape;
use crate::server::{self, Server};
use crate::stats::{Rng, Zipf};
use crate::workloads::{self, Dataset, Expected, NewFacts};
use rq_common::{FxHashMap, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Per-request client timeout: a stalled server costs a counted
/// failure, never a hung run.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// Client threads, each with one keep-alive connection — never more
/// than the server's wire workers.
pub const CLIENTS: usize = 2;
/// SIGKILL-and-restart cycles at the end of an `ingest_mixed` round.
pub const RESTARTS: usize = 5;
/// Slices each round's phases are cut into and alternated by.
pub const SLICES: usize = 10;
/// Read requests a side phase sends per round: a thousand per slice, so
/// each slice's p99 has ten samples beyond it.
pub const SIDE_REQUESTS: usize = 10_000;
/// Ingests a writer sends per round: a thousand per slice beside
/// `hot_reads` and `cold_sg`, and `ingest_mixed`'s fixed thousand.
pub const INGESTS: usize = 10_000;
pub const MIXED_INGESTS: usize = 1_000;
/// Specs per `/batch` request.
pub const BATCH: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotReads,
    ColdSg,
    IngestMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "hot_reads" => Some(Self::HotReads),
            "cold_sg" => Some(Self::ColdSg),
            "ingest_mixed" => Some(Self::IngestMixed),
            _ => None,
        }
    }

    pub fn dataset(self, seed: u64) -> Dataset {
        match self {
            Self::HotReads | Self::IngestMixed => workloads::flights(seed),
            Self::ColdSg => workloads::same_generation(seed),
        }
    }
}

/// One request as sent, for the in-process replay.
#[derive(Clone, Debug)]
pub struct Sent {
    /// Send time from the start of its phase.
    pub at: Duration,
    pub path: &'static str,
    pub body: String,
}

/// Failure accounting over every request a run attempts.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub non_2xx: u64,
    pub resets: u64,
    pub timeouts: u64,
    pub wrong: u64,
    pub lost: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.non_2xx + self.resets + self.timeouts + self.wrong + self.lost
    }

    fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.non_2xx += other.non_2xx;
        self.resets += other.resets;
        self.timeouts += other.timeouts;
        self.wrong += other.wrong;
        self.lost += other.lost;
    }

    /// Send one request, timing it.  `None` (counted) on a transport
    /// failure or a non-2xx status.
    fn send(
        &mut self,
        client: &mut Client,
        method: &str,
        path: &str,
        body: &str,
    ) -> Option<(Response, f64)> {
        self.attempted += 1;
        let start = Instant::now();
        let result = client.request(method, path, body);
        let secs = start.elapsed().as_secs_f64();
        match result {
            Ok(resp) if (200..300).contains(&resp.status) => Some((resp, secs)),
            Ok(_) => {
                self.non_2xx += 1;
                None
            }
            Err(Failure::Timeout) => {
                self.timeouts += 1;
                None
            }
            Err(Failure::Reset) => {
                self.resets += 1;
                None
            }
        }
    }
}

/// Round trips of one request type.
#[derive(Clone, Debug, Default)]
pub struct Series {
    pub rtt_us: Vec<f64>,
    /// Wall time of the phases that sent them (per phase, the longest
    /// client's).
    pub wall_s: f64,
    /// Specs the responses answered (or facts they acked).
    pub items: u64,
}

/// What one client thread (or one merged phase) observed.
#[derive(Default)]
struct ClientLog {
    tally: Tally,
    by_path: BTreeMap<&'static str, Series>,
    /// Round trip per answered spec (µs), split by whether every answer
    /// came from the result cache.
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    response_bytes: u64,
    responses: u64,
    server_closes: u64,
    sent: Vec<Sent>,
    /// `(spec index, epoch, canonical rows)` checked after the round
    /// against the sequential reference (`ingest_mixed` only).
    deferred: Vec<(usize, u64, String)>,
    /// Acked ingests in ack order: `(fact, spec index, row)`.
    acked: Vec<(String, usize, String)>,
}

impl ClientLog {
    fn merge(&mut self, other: ClientLog) {
        self.tally.merge(&other.tally);
        for (path, series) in other.by_path {
            let mine = self.by_path.entry(path).or_default();
            mine.rtt_us.extend(series.rtt_us);
            mine.wall_s = mine.wall_s.max(series.wall_s);
            mine.items += series.items;
        }
        self.hit_us.extend(other.hit_us);
        self.miss_us.extend(other.miss_us);
        self.response_bytes += other.response_bytes;
        self.responses += other.responses;
        self.server_closes += other.server_closes;
        self.sent.extend(other.sent);
        self.deferred.extend(other.deferred);
        self.acked.extend(other.acked);
    }

    fn finish(&mut self, client: &Client, start: Instant) {
        let wall = start.elapsed().as_secs_f64();
        for series in self.by_path.values_mut() {
            series.wall_s = wall;
        }
        self.server_closes = client.server_closes;
    }

    /// Keep a request for the replay, which only reads a prefix of each
    /// phase.
    fn keep(&mut self, sent: Sent) {
        if self.sent.len() < crate::replay::REPLAY_SPECS {
            self.sent.push(sent);
        }
    }

    fn record(&mut self, path: &'static str, body: &str, secs: f64, items: u64) {
        let series = self.by_path.entry(path).or_default();
        series.rtt_us.push(secs * 1e6);
        series.items += items;
        self.response_bytes += body.len() as u64;
        self.responses += 1;
    }

    /// Check one `/query` or `/batch` response: every answer's rows must
    /// equal the fixed reference (or are deferred to the epoch check),
    /// and the per-spec round trip lands in the hit or miss series.
    fn answers(
        &mut self,
        path: &'static str,
        body: &str,
        secs: f64,
        specs: &[usize],
        check: &Check<'_>,
    ) {
        self.record(path, body, secs, specs.len() as u64);
        // Fast path: a single answer whose rows are byte-identical to the
        // reference encoding needs no parse.
        if let (Check::Fixed(reference), [spec]) = (check, specs) {
            if let Some((raw, cached)) = workloads::raw_rows(body) {
                if raw == reference[*spec].raw {
                    let us = secs * 1e6;
                    if cached {
                        self.hit_us.push(us);
                    } else {
                        self.miss_us.push(us);
                    }
                    return;
                }
            }
        }
        let Ok(json) = Json::parse(body) else {
            self.tally.wrong += 1;
            return;
        };
        let answers: Vec<&Json> = match json.get("answers").and_then(Json::as_array) {
            Some(items) => items.iter().collect(),
            None => vec![&json],
        };
        if answers.len() != specs.len() {
            self.tally.wrong += 1;
            return;
        }
        let mut all_cached = true;
        for (answer, &spec) in answers.iter().zip(specs) {
            all_cached &= answer.get("from_cache").and_then(Json::as_bool) == Some(true);
            match (check, workloads::canonical_rows(answer)) {
                (Check::Fixed(reference), Some(rows)) => {
                    if rows != reference[spec].rows {
                        self.tally.wrong += 1;
                    }
                }
                (Check::AtEpoch, Some(rows)) => {
                    let epoch = answer.get("epoch").and_then(Json::as_i64).unwrap_or(-1);
                    self.deferred.push((spec, epoch as u64, rows));
                }
                (_, None) => self.tally.wrong += 1,
            }
        }
        let per_spec = secs * 1e6 / specs.len() as f64;
        if all_cached {
            self.hit_us.push(per_spec);
        } else {
            self.miss_us.push(per_spec);
        }
    }
}

/// How a phase checks answers.
enum Check<'a> {
    /// Against answers fixed for the whole phase (no ingests).
    Fixed(&'a [Expected]),
    /// Against the sequential reference at the epoch the response names.
    AtEpoch,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Run {
    pub tally: Tally,
    pub setup_s: Vec<f64>,
    pub restart_s: Vec<f64>,
    /// Round trips and wall time by request path: one entry per phase
    /// slice that sent that path, over every round.
    pub series: BTreeMap<&'static str, Vec<Series>>,
    pub peak_rss_kib: Vec<f64>,
    pub data_dir_bytes: u64,
    pub user_bytes: u64,
    pub panics: u64,
    pub rtt_hit_us: Vec<f64>,
    pub rtt_miss_us: Vec<f64>,
    pub response_bytes: u64,
    pub responses: u64,
    pub reconnects: u64,
    /// `/stats` + `/metrics` around each round's main phase.
    pub main_scrapes: Vec<(Scrape, Scrape)>,
    /// The same around each round's ingests.
    pub ingest_scrapes: Vec<(Scrape, Scrape)>,
    /// A scrape of each restarted server.
    pub restart_scrapes: Vec<Scrape>,
    /// The first round's requests in send order, for the replay: A's,
    /// then the first ingest slice's.
    pub sent: Vec<Vec<Sent>>,
    /// The first ingested data dir after its restart, for the storage
    /// replay.
    pub kept_data_dir: Option<PathBuf>,
    pub wire_workers: u64,
    pub query_threads: u64,
    pub rounds: u64,
}

impl Run {
    pub fn series(&self, path: &str) -> &[Series] {
        self.series.get(path).map_or(&[], Vec::as_slice)
    }
}

/// The sequential reference after a round's acked ingests.
struct Reference {
    /// Answers at the final epoch for the specs the restart verifies.
    finals: FxHashMap<usize, String>,
}

/// Fixed inputs of a run.
pub struct Bench<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub rqc: &'a Path,
    pub dir: &'a Path,
    pub data: &'a Dataset,
    /// Reference answer per spec on the unmodified program.
    pub reference: &'a [Expected],
    /// Data dirs made so far (for unique names).
    pub dirs: AtomicUsize,
}

impl Bench<'_> {
    fn program_path(&self) -> PathBuf {
        self.dir.join("program.dl")
    }

    /// A new, empty data dir.  Nothing is deleted while a run measures,
    /// so the filesystem's delete work cannot land in the fsyncs being
    /// timed; the whole run dir goes at exit.
    fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let n = self.dirs.fetch_add(1, Ordering::Relaxed);
        let dir = self.dir.join(format!("{name}-{n}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Spawn a server on `data_dir` and time it to its first correct
    /// answer: `/healthz` answering `200`, then (when `first` names a
    /// spec and its expected rows) that spec answered correctly.
    fn spawn_checked(
        &self,
        data_dir: &Path,
        run: &mut Run,
        first: Option<(usize, &str)>,
    ) -> Result<(Server, f64), String> {
        let start = Instant::now();
        let server = Server::spawn(self.rqc, &self.program_path(), Some(data_dir))?;
        let mut client = Client::new(server.addr, REQUEST_TIMEOUT);
        let mut correct = run.tally.send(&mut client, "GET", "/healthz", "").is_some();
        if let Some((spec, expected)) = first {
            let body = workloads::query_body(&self.data.specs[spec]);
            let answer = run
                .tally
                .send(&mut client, "POST", "/query", &body)
                .and_then(|(resp, _)| Json::parse(&resp.body).ok())
                .and_then(|json| workloads::canonical_rows(&json));
            correct &= answer.as_deref() == Some(expected);
        }
        let secs = start.elapsed().as_secs_f64();
        if !correct {
            run.tally.wrong += 1;
        }
        run.wire_workers = server.wire_workers;
        run.query_threads = server.query_threads;
        Ok((server, secs))
    }

    /// Run rounds until the main phases have measured about `seconds`.
    pub fn run(&self) -> Result<Run, String> {
        std::fs::write(self.program_path(), &self.data.program_text)
            .map_err(|e| format!("write program: {e}"))?;
        let mut run = Run::default();
        // Another round only while less than half the target is
        // measured: `hot_reads` fills it in one, `cold_sg` passes over
        // every spec once, `ingest_mixed` sends its fixed counts.
        let mut measured = 0.0;
        while run.rounds == 0 || measured < self.seconds / 2.0 {
            let clock = Instant::now();
            measured += self.round(&mut run)?;
            eprintln!(
                "perfbench: round {} took {:.2}s",
                run.rounds,
                clock.elapsed().as_secs_f64()
            );
            run.rounds += 1;
        }
        Ok(run)
    }

    /// One round.  Server A (fresh) takes the main phase and the side
    /// phase.  Each phase is cut into `SLICES` slices that alternate,
    /// with a set-up sample between and (beside `hot_reads` and
    /// `cold_sg`) an ingest slice on its own server, so every metric
    /// samples the whole round rather than one stretch of it.
    /// `ingest_mixed` ingests on A beside its reads; A is then
    /// SIGKILLed and restarted `RESTARTS` times and must show every
    /// acked fact.  Returns the main phase's wall time.
    fn round(&self, run: &mut Run) -> Result<f64, String> {
        let first = run.rounds == 0;
        let start = Instant::now();
        let check0 = Some((0, self.reference[0].rows.as_str()));
        let a_dir = self.fresh_dir("data-a")?;
        let (mut a, secs) = self.spawn_checked(&a_dir, run, check0)?;
        run.setup_s.push(secs);
        let (zipf, popularity) = self.popularity();
        // Spec 0 was asked by A's set-up check: the pass asks the rest,
        // so every spec is asked once and the pass never hits the cache.
        let mut cold_order: Vec<usize> = (1..self.data.specs.len()).collect();
        Rng::new(self.seed ^ 0xb47c).shuffle(&mut cold_order);
        let cold_batches: Vec<Vec<usize>> =
            cold_order.chunks(BATCH).map(<[usize]>::to_vec).collect();
        let mut mixed_facts = self.new_facts(0);
        let mut acked: Vec<(String, usize, String)> = Vec::new();
        let mut deferred = Vec::new();
        let mut main_secs = 0.0;
        for slice in 0..SLICES {
            // A set-up sample on a throwaway server.
            let dir = self.fresh_dir("data-setup")?;
            let (throwaway, secs) = self.spawn_checked(&dir, run, check0)?;
            drop(throwaway);
            run.setup_s.push(secs);

            let before = self.scrape(&mut a, run);
            let check = Check::Fixed(self.reference);
            let main = match self.workload {
                Workload::HotReads => {
                    let share = Duration::from_secs_f64(self.seconds / SLICES as f64);
                    let pool = Pool::Zipf(&zipf, &popularity);
                    self.queries(
                        &a,
                        CLIENTS,
                        usize::MAX,
                        Some(share),
                        &pool,
                        slice,
                        start,
                        &check,
                    )
                }
                Workload::ColdSg => {
                    let span = slice_range(cold_batches.len(), slice);
                    self.batches(&a, CLIENTS, &cold_batches[span], start, &check)
                }
                Workload::IngestMixed => self.mixed(&a, &mut mixed_facts, acked.len(), start),
            };
            let after = self.scrape(&mut a, run);
            main_secs += main.by_path.values().map(|s| s.wall_s).fold(0.0, f64::max);
            acked.extend(main.acked.iter().cloned());
            self.absorb(run, main, first.then_some(0), &mut deferred);
            if let (Some(before), Some(after)) = (before, after) {
                if self.workload == Workload::IngestMixed {
                    run.ingest_scrapes.push((before.clone(), after.clone()));
                }
                run.main_scrapes.push((before, after));
            }

            // Side phase, from one client: the read type the main phase
            // does not send.  Beside `hot_reads` and `cold_sg` it runs
            // at the same time as an ingest slice from the other client,
            // so both CPUs stay busy as in the main phase: lone
            // ping-pong requests would time the host's idle wake-ups.
            let side_count = slice_range(SIDE_REQUESTS, slice).len();
            let side = || match self.workload {
                Workload::HotReads => self.batch_tail(&a, side_count, slice, start, &check),
                Workload::IngestMixed => {
                    self.batch_tail(&a, side_count, slice, start, &Check::AtEpoch)
                }
                Workload::ColdSg => {
                    // Uniform over the specs the main pass has already
                    // asked, so its batches never meet a cached answer.
                    let asked = slice_range(cold_batches.len(), slice).end * BATCH;
                    let pool = Pool::Uniform(&cold_order[..asked.min(cold_order.len())]);
                    let stream = SLICES + slice;
                    self.queries(&a, 1, side_count, None, &pool, stream, start, &check)
                }
            };
            if self.workload == Workload::IngestMixed {
                self.absorb(run, side(), first.then_some(0), &mut deferred);
            } else {
                let mut ingest = self.ingest_slice(slice, run)?;
                let (side, writer) = std::thread::scope(|scope| {
                    let side = scope.spawn(side);
                    let writer = scope.spawn(|| ingest.write(self, start));
                    (
                        side.join().expect("side client thread"),
                        writer.join().expect("writer thread"),
                    )
                });
                self.absorb(run, side, first.then_some(0), &mut deferred);
                ingest.finish(self, writer, first && slice == 0, run)?;
            }
        }
        if let Some(kib) = a.peak_rss_kib() {
            run.peak_rss_kib.push(kib as f64);
        }
        if self.workload == Workload::IngestMixed {
            let reference = self.sequential_reference(&acked, &deferred, run);
            for _ in 0..RESTARTS {
                self.restart(&mut a, &a_dir, &acked, &reference, run)?;
            }
            self.verify_restart(&mut a, &a_dir, &acked, &reference, first, run)?;
        }
        run.panics += server::panics(&a.kill());
        Ok(main_secs)
    }

    /// Open an ingest slice, beside `hot_reads` and `cold_sg`: a fresh
    /// server on a fresh data dir, so every slice starts from the same
    /// program and nothing warm makes an ingest repair state.
    fn ingest_slice(&self, slice: usize, run: &mut Run) -> Result<IngestSlice, String> {
        let dir = self.fresh_dir("data-b")?;
        let mut server = self.spawn_checked(&dir, run, None)?.0;
        let before = self.scrape(&mut server, run);
        Ok(IngestSlice {
            dir,
            server,
            before,
            facts: self.new_facts(slice),
            count: slice_range(INGESTS, slice).len(),
        })
    }

    /// SIGKILL `server` and restart it on `data_dir`, timed to its first
    /// correct answer: the spec of the last acked fact, as the
    /// sequential reference answers it.
    fn restart(
        &self,
        server: &mut Server,
        data_dir: &Path,
        acked: &[(String, usize, String)],
        reference: &Reference,
        run: &mut Run,
    ) -> Result<(), String> {
        let spec = acked.last().map_or(0, |(_, spec, _)| *spec);
        let rows = reference.finals.get(&spec).cloned().unwrap_or_default();
        run.panics += server::panics(&server.kill());
        let killed = Instant::now();
        *server = self.spawn_checked(data_dir, run, Some((spec, &rows)))?.0;
        run.restart_s.push(killed.elapsed().as_secs_f64());
        Ok(())
    }

    /// Scrape `server`.  A failed scrape counts as a failed request
    /// (the server has died) and its stderr tail goes to ours.
    fn scrape(&self, server: &mut Server, run: &mut Run) -> Option<Scrape> {
        run.tally.attempted += 2;
        match Scrape::take(&mut Client::new(server.addr, REQUEST_TIMEOUT)) {
            Ok(scrape) => Some(scrape),
            Err(e) => {
                run.tally.resets += 2;
                let stderr = server.kill();
                run.panics += server::panics(&stderr);
                let tail = &stderr[stderr.len().saturating_sub(12)..];
                eprintln!(
                    "perfbench: scrape failed ({e}); server stderr: {}",
                    tail.join(" | ")
                );
                None
            }
        }
    }

    /// Fold one phase's client log into the run.  `replay` keeps its
    /// requests for the replay, listed by the server they went to
    /// (0 = A, 1 = B).
    fn absorb(
        &self,
        run: &mut Run,
        log: ClientLog,
        replay: Option<usize>,
        deferred: &mut Vec<(usize, u64, String)>,
    ) {
        run.tally.merge(&log.tally);
        for (path, series) in log.by_path {
            run.series.entry(path).or_default().push(series);
        }
        run.rtt_hit_us.extend(&log.hit_us);
        run.rtt_miss_us.extend(&log.miss_us);
        run.response_bytes += log.response_bytes;
        run.responses += log.responses;
        run.reconnects += log.server_closes;
        deferred.extend(log.deferred);
        if let Some(server) = replay {
            if run.sent.len() <= server {
                run.sent.resize_with(server + 1, Vec::new);
            }
            let list = &mut run.sent[server];
            list.extend(log.sent);
            list.sort_by_key(|s| s.at);
        }
    }

    /// Popularity order of the specs: Zipf rank `k` asks
    /// `specs[popularity[k]]`.
    fn popularity(&self) -> (Zipf, Vec<usize>) {
        let mut popularity: Vec<usize> = (0..self.data.specs.len()).collect();
        Rng::new(self.seed).shuffle(&mut popularity);
        (Zipf::new(popularity.len(), 1.0), popularity)
    }

    /// `/query` reads drawn from `pool` by `clients` clients, `count` in
    /// total or for `share` of wall time, whichever ends first.
    /// `stream` seeds the draws.
    #[allow(clippy::too_many_arguments)]
    fn queries(
        &self,
        server: &Server,
        clients: usize,
        count: usize,
        share: Option<Duration>,
        pool: &Pool<'_>,
        stream: usize,
        start: Instant,
        check: &Check<'_>,
    ) -> ClientLog {
        let issued = AtomicUsize::new(0);
        let begin = Instant::now();
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let issued = &issued;
                    scope.spawn(move || {
                        let mut rng = Rng::new(stream_seed(self.seed, stream * CLIENTS + c));
                        let mut client = Client::new(server.addr, REQUEST_TIMEOUT);
                        let mut log = ClientLog::default();
                        while share.is_none_or(|d| begin.elapsed() < d)
                            && issued.fetch_add(1, Ordering::Relaxed) < count
                        {
                            let spec = pool.draw(&mut rng);
                            let body = workloads::query_body(&self.data.specs[spec]);
                            log.keep(Sent {
                                at: start.elapsed(),
                                path: "/query",
                                body: body.clone(),
                            });
                            if let Some((resp, secs)) =
                                log.tally.send(&mut client, "POST", "/query", &body)
                            {
                                log.answers("/query", &resp.body, secs, &[spec], check);
                            }
                        }
                        log.finish(&client, begin);
                        log
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        merged(logs)
    }

    /// `count` `/batch` requests of four specs drawn uniformly (so the
    /// tail does not hinge on which few specs a seed makes popular),
    /// from one client.
    fn batch_tail(
        &self,
        server: &Server,
        count: usize,
        stream: usize,
        start: Instant,
        check: &Check<'_>,
    ) -> ClientLog {
        let all: Vec<usize> = (0..self.data.specs.len()).collect();
        let pool = Pool::Uniform(&all);
        let mut rng = Rng::new(stream_seed(self.seed ^ 0xba7c4, stream));
        let batches: Vec<Vec<usize>> = (0..count)
            .map(|_| (0..BATCH).map(|_| pool.draw(&mut rng)).collect())
            .collect();
        self.batches(server, 1, &batches, start, check)
    }

    /// Send `batches` from `clients` clients sharing one work queue.
    fn batches(
        &self,
        server: &Server,
        clients: usize,
        batches: &[Vec<usize>],
        start: Instant,
        check: &Check<'_>,
    ) -> ClientLog {
        let bodies: Vec<String> = batches
            .iter()
            .map(|b| {
                let texts: Vec<&str> = b.iter().map(|&i| self.data.specs[i].as_str()).collect();
                workloads::batch_body(&texts)
            })
            .collect();
        let next = AtomicUsize::new(0);
        let begin = Instant::now();
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let (bodies, next) = (&bodies, &next);
                    scope.spawn(move || {
                        let mut client = Client::new(server.addr, REQUEST_TIMEOUT);
                        let mut log = ClientLog::default();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(body) = bodies.get(i) else { break };
                            log.keep(Sent {
                                at: start.elapsed(),
                                path: "/batch",
                                body: body.clone(),
                            });
                            if let Some((resp, secs)) =
                                log.tally.send(&mut client, "POST", "/batch", body)
                            {
                                log.answers("/batch", &resp.body, secs, &batches[i], check);
                            }
                        }
                        log.finish(&client, begin);
                        log
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        merged(logs)
    }

    /// The facts a writer sends: `stream` gives each ingest slice facts
    /// of its own.
    fn new_facts(&self, stream: usize) -> NewFacts {
        let seed = stream_seed(self.seed, stream);
        match self.workload {
            Workload::ColdSg => NewFacts::same_generation(seed, self.data),
            // Beside `hot_reads` the new legs all leave in the last two
            // slots, so checking them stays cheap however many land (a
            // late leg has no onward connection).
            Workload::HotReads => NewFacts::flights(seed, true),
            Workload::IngestMixed => NewFacts::flights(seed, false),
        }
    }

    /// One client sending `count` single-fact ingests after `acked`
    /// earlier ones; each ack must name the next epoch and be durable.
    fn ingest_writer(
        &self,
        server: &Server,
        facts: &mut NewFacts,
        count: usize,
        acked: usize,
        start: Instant,
    ) -> ClientLog {
        let index: FxHashMap<&str, usize> = self
            .data
            .specs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.as_str(), i))
            .collect();
        let mut client = Client::new(server.addr, REQUEST_TIMEOUT);
        let mut log = ClientLog::default();
        let mut epoch = acked as i64;
        let begin = Instant::now();
        for _ in 0..count {
            let (fact, spec, row) = facts.next_fact();
            let body = workloads::ingest_body(&fact);
            log.keep(Sent {
                at: start.elapsed(),
                path: "/ingest",
                body: body.clone(),
            });
            let Some((resp, secs)) = log.tally.send(&mut client, "POST", "/ingest", &body) else {
                continue;
            };
            log.record("/ingest", &resp.body, secs, 1);
            let ack = Json::parse(&resp.body).ok();
            let acked_epoch = ack
                .as_ref()
                .and_then(|a| a.get("epoch"))
                .and_then(Json::as_i64);
            let durable = ack
                .as_ref()
                .and_then(|a| a.get("durable"))
                .and_then(Json::as_bool);
            // A single writer owns the epoch sequence: each ack names
            // the next epoch.
            epoch += 1;
            if acked_epoch != Some(epoch) || durable != Some(true) {
                log.tally.wrong += 1;
            }
            let spec = index[spec.as_str()];
            log.acked.push((fact, spec, row));
        }
        log.finish(&client, begin);
        log
    }

    /// `ingest_mixed`'s main slice: one client sends its share of
    /// `MIXED_INGESTS` while the other reads until the writer is done.
    fn mixed(
        &self,
        server: &Server,
        facts: &mut NewFacts,
        acked: usize,
        start: Instant,
    ) -> ClientLog {
        let writing = AtomicBool::new(true);
        let count = MIXED_INGESTS / SLICES;
        let (writer, reader) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let log = self.ingest_writer(server, facts, count, acked, start);
                writing.store(false, Ordering::Release);
                log
            });
            let reader = scope.spawn(|| self.zipf_reader(server, start, acked, &writing));
            (
                writer.join().expect("writer thread"),
                reader.join().expect("reader thread"),
            )
        });
        merged(vec![writer, reader])
    }

    /// The `ingest_mixed` reader: Zipf `/query` reads on one connection
    /// while `writing` holds, each checked later at the epoch it names.
    fn zipf_reader(
        &self,
        server: &Server,
        start: Instant,
        stream: usize,
        writing: &AtomicBool,
    ) -> ClientLog {
        let (zipf, popularity) = self.popularity();
        let pool = Pool::Zipf(&zipf, &popularity);
        let mut rng = Rng::new(stream_seed(self.seed ^ 0x4ead, stream));
        let mut client = Client::new(server.addr, REQUEST_TIMEOUT);
        let mut log = ClientLog::default();
        let begin = Instant::now();
        while writing.load(Ordering::Acquire) {
            let spec = pool.draw(&mut rng);
            let body = workloads::query_body(&self.data.specs[spec]);
            log.keep(Sent {
                at: start.elapsed(),
                path: "/query",
                body: body.clone(),
            });
            match log.tally.send(&mut client, "POST", "/query", &body) {
                Some((resp, secs)) => {
                    log.answers("/query", &resp.body, secs, &[spec], &Check::AtEpoch)
                }
                // A dead server refuses at once: do not spin on it.
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        log.finish(&client, begin);
        log
    }

    /// Replay the acked ingests, in ack order, into an uncached
    /// in-process service; at each epoch check the deferred answers that
    /// name it.  Returns the final-epoch answers the restart verifies.
    fn sequential_reference(
        &self,
        acked: &[(String, usize, String)],
        deferred: &[(usize, u64, String)],
        run: &mut Run,
    ) -> Reference {
        let service = &workloads::uncached_service(&self.data.program_text);
        let mut by_epoch: BTreeMap<u64, Vec<(usize, &str)>> = BTreeMap::new();
        for (spec, epoch, rows) in deferred {
            by_epoch.entry(*epoch).or_default().push((*spec, rows));
        }
        let check_epoch = |service: &rq_service::QueryService, answers: &[(usize, &str)]| {
            let mut specs: Vec<usize> = answers.iter().map(|(s, _)| *s).collect();
            specs.sort_unstable();
            specs.dedup();
            let texts: Vec<String> = specs.iter().map(|&s| self.data.specs[s].clone()).collect();
            let expected: FxHashMap<usize, String> = specs
                .into_iter()
                .zip(
                    workloads::reference_answers(service, &texts)
                        .into_iter()
                        .map(|e| e.rows),
                )
                .collect();
            let wrong: Vec<&(usize, &str)> = answers
                .iter()
                .filter(|(spec, rows)| expected[spec] != *rows)
                .collect();
            for (spec, rows) in wrong.iter().take(3) {
                let served: Vec<&str> = rows
                    .lines()
                    .filter(|r| !expected[spec].lines().any(|e| e == *r))
                    .collect();
                let missing: Vec<&str> = expected[spec]
                    .lines()
                    .filter(|e| !rows.lines().any(|r| r == *e))
                    .collect();
                eprintln!(
                    "perfbench: wrong answer for `{}`: served {} rows, reference {} rows; extra {:?} missing {:?}",
                    self.data.specs[*spec],
                    rows.lines().count(),
                    expected[spec].lines().count(),
                    served, missing
                );
            }
            wrong.len() as u64
        };
        for epoch in 0..=acked.len() as u64 {
            if let Some(answers) = by_epoch.remove(&epoch) {
                run.tally.wrong += check_epoch(service, &answers);
            }
            if let Some((fact, _, _)) = acked.get(epoch as usize) {
                service.ingest(fact).expect("acked facts ingest");
            }
        }
        // Answers naming an epoch no acked ingest produced.
        run.tally.wrong += by_epoch.values().map(|v| v.len() as u64).sum::<u64>();
        let verify: Vec<usize> = if self.workload == Workload::IngestMixed {
            (0..self.data.specs.len()).collect()
        } else {
            let mut specs: Vec<usize> = acked.iter().map(|(_, s, _)| *s).collect();
            specs.sort_unstable();
            specs.dedup();
            specs
        };
        let texts: Vec<String> = verify.iter().map(|&s| self.data.specs[s].clone()).collect();
        let finals = verify
            .into_iter()
            .zip(
                workloads::reference_answers(service, &texts)
                    .into_iter()
                    .map(|e| e.rows),
            )
            .collect();
        Reference { finals }
    }

    /// After the restart: check the server (below), scrape its recovery
    /// counters, kill it, and account its data dir (kept for the
    /// storage replay when `keep`).
    fn verify_restart(
        &self,
        server: &mut Server,
        data_dir: &Path,
        acked: &[(String, usize, String)],
        reference: &Reference,
        keep: bool,
        run: &mut Run,
    ) -> Result<(), String> {
        self.check_restarted(server, acked, reference, run);
        if let Some(scrape) = self.scrape(server, run) {
            run.restart_scrapes.push(scrape);
        }
        run.panics += server::panics(&server.kill());
        run.data_dir_bytes += dir_bytes(data_dir);
        run.user_bytes += acked.iter().map(|(f, _, _)| f.len() as u64).sum::<u64>();
        if keep {
            run.kept_data_dir = Some(data_dir.to_path_buf());
        }
        Ok(())
    }

    /// The recovered epoch counts every acked ingest, each acked row is
    /// visible, and every verified spec equals the sequential
    /// reference.  Lost rows count as `lost`.
    fn check_restarted(
        &self,
        server: &Server,
        acked: &[(String, usize, String)],
        reference: &Reference,
        run: &mut Run,
    ) {
        let mut client = Client::new(server.addr, REQUEST_TIMEOUT);
        let epoch = run
            .tally
            .send(&mut client, "GET", "/healthz", "")
            .and_then(|(resp, _)| Json::parse(&resp.body).ok())
            .and_then(|j| j.get("epoch").and_then(Json::as_i64));
        if epoch != Some(acked.len() as i64) {
            run.tally.wrong += 1;
        }
        let mut specs: Vec<usize> = reference.finals.keys().copied().collect();
        specs.sort_unstable();
        let mut served: FxHashMap<usize, String> = FxHashMap::default();
        for chunk in specs.chunks(64) {
            let texts: Vec<&str> = chunk.iter().map(|&s| self.data.specs[s].as_str()).collect();
            let Some((resp, _)) = run.tally.send(
                &mut client,
                "POST",
                "/batch",
                &workloads::batch_body(&texts),
            ) else {
                continue;
            };
            let json = Json::parse(&resp.body).ok();
            let answers = json
                .as_ref()
                .and_then(|j| j.get("answers"))
                .and_then(Json::as_array)
                .unwrap_or(&[]);
            for (&spec, answer) in chunk.iter().zip(answers) {
                if let Some(rows) = workloads::canonical_rows(answer) {
                    served.insert(spec, rows);
                }
            }
        }
        for (_, spec, row) in acked {
            if !served
                .get(spec)
                .is_some_and(|rows| rows.lines().any(|r| r == row))
            {
                run.tally.lost += 1;
            }
        }
        run.tally.wrong += specs
            .iter()
            .filter(|s| served.get(s) != reference.finals.get(s))
            .count() as u64;
    }
}

/// An open ingest slice (see [`Bench::ingest_slice`]).
struct IngestSlice {
    dir: PathBuf,
    server: Server,
    before: Option<Scrape>,
    facts: NewFacts,
    count: usize,
}

impl IngestSlice {
    /// The slice's single-fact ingests, from one client.
    fn write(&mut self, bench: &Bench<'_>, start: Instant) -> ClientLog {
        bench.ingest_writer(&self.server, &mut self.facts, self.count, 0, start)
    }

    /// SIGKILL and restart the server, timed to its first correct
    /// answer; it must then show every acked fact.
    fn finish(
        mut self,
        bench: &Bench<'_>,
        log: ClientLog,
        keep: bool,
        run: &mut Run,
    ) -> Result<(), String> {
        let after = bench.scrape(&mut self.server, run);
        if let (Some(before), Some(after)) = (self.before, after) {
            run.ingest_scrapes.push((before, after));
        }
        let acked = log.acked.clone();
        bench.absorb(run, log, keep.then_some(1), &mut Vec::new());
        let reference = bench.sequential_reference(&acked, &[], run);
        bench.restart(&mut self.server, &self.dir, &acked, &reference, run)?;
        bench.verify_restart(&mut self.server, &self.dir, &acked, &reference, keep, run)
    }
}

/// Where reads draw their specs from.
enum Pool<'a> {
    /// By Zipf rank: rank `k` asks `specs[k]`.
    Zipf(&'a Zipf, &'a [usize]),
    /// Uniformly.
    Uniform(&'a [usize]),
}

impl Pool<'_> {
    fn draw(&self, rng: &mut Rng) -> usize {
        match self {
            Pool::Zipf(zipf, specs) => specs[zipf.sample(rng)],
            Pool::Uniform(specs) => specs[rng.below(specs.len())],
        }
    }
}

/// The seed of draw stream `stream` of a run seeded `seed`.
fn stream_seed(seed: u64, stream: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9)
        .wrapping_add(stream as u64 + 1)
}

/// Slice `slice` of `0..n` cut into `SLICES` near-equal parts.
fn slice_range(n: usize, slice: usize) -> std::ops::Range<usize> {
    n * slice / SLICES..n * (slice + 1) / SLICES
}

fn merged(logs: Vec<ClientLog>) -> ClientLog {
    let mut log = ClientLog::default();
    for l in logs {
        log.merge(l);
    }
    log
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
