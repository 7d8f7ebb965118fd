//! Counter scrapes of a live server: `GET /stats` (JSON) and
//! `GET /metrics` (Prometheus text), read before and after a timed
//! phase so per-layer counts are deltas over that phase.

use crate::http::Client;
use rq_common::Json;
use std::collections::BTreeMap;

/// One scrape: `/stats` as JSON and `/metrics` as `series → value`.
#[derive(Clone)]
pub struct Scrape {
    pub stats: Json,
    pub metrics: BTreeMap<String, f64>,
}

/// Parse Prometheus text exposition into `series → value`, where a
/// series is the metric name plus its label set as written.
pub fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

impl Scrape {
    pub fn take(client: &mut Client) -> Result<Scrape, String> {
        let get = |client: &mut Client, path: &str| match client.request("GET", path, "") {
            Ok(resp) if resp.status == 200 => Ok(resp.body),
            Ok(resp) => Err(format!("GET {path}: status {}", resp.status)),
            Err(e) => Err(format!("GET {path}: {e:?}")),
        };
        let stats = Json::parse(&get(client, "/stats")?).map_err(|e| format!("/stats: {e}"))?;
        let metrics = parse_prometheus(&get(client, "/metrics")?);
        Ok(Scrape { stats, metrics })
    }

    /// A `/stats` integer at a `.`-separated path (0 when absent).
    pub fn stat(&self, path: &str) -> f64 {
        path.split('.')
            .try_fold(&self.stats, |json, key| json.get(key))
            .and_then(Json::as_i64)
            .unwrap_or(0) as f64
    }

    /// A `/metrics` series value (0 when absent).
    pub fn metric(&self, series: &str) -> f64 {
        self.metrics.get(series).copied().unwrap_or(0.0)
    }
}

/// Counts over a phase: `after − before`.
pub struct Delta<'a> {
    pub before: &'a Scrape,
    pub after: &'a Scrape,
}

impl Delta<'_> {
    pub fn stat(&self, path: &str) -> f64 {
        self.after.stat(path) - self.before.stat(path)
    }

    pub fn metric(&self, series: &str) -> f64 {
        self.after.metric(series) - self.before.metric(series)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_prometheus_series() {
        let text = "# HELP rq_queries_total Queries.\n# TYPE rq_queries_total counter\n\
                    rq_queries_total 12\n\
                    rq_http_requests_total{endpoint=\"/query\"} 7\n\
                    rq_http_request_seconds_bucket{endpoint=\"/query\",le=\"+Inf\"} 7\n";
        let m = parse_prometheus(text);
        assert_eq!(m["rq_queries_total"], 12.0);
        assert_eq!(m["rq_http_requests_total{endpoint=\"/query\"}"], 7.0);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
