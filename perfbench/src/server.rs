//! The server under test: a release `rqc serve --http 127.0.0.1:0`
//! child process, one per round, with its stderr captured.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a spawned server may take to print its bound address.
const BANNER_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    pub wire_workers: u64,
    pub query_threads: u64,
    stderr: Option<JoinHandle<Vec<String>>>,
}

/// Parse `rqc serve --http <addr> — <n> wire worker(s), <m> query
/// thread(s), epoch <e>` into `(addr, n, m)`.
fn parse_banner(line: &str) -> Option<(SocketAddr, u64, u64)> {
    let rest = line.strip_prefix("rqc serve --http ")?;
    let (addr, rest) = rest.split_once(' ')?;
    let numbers: Vec<u64> = rest
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((addr.parse().ok()?, *numbers.first()?, *numbers.get(1)?))
}

impl Server {
    /// Start `rqc serve <program> --http 127.0.0.1:0 [--data-dir <dir>]`
    /// and wait for its bound-address banner.
    pub fn spawn(rqc: &Path, program: &Path, data_dir: Option<&Path>) -> Result<Server, String> {
        let mut cmd = Command::new(rqc);
        cmd.arg("serve")
            .arg(program)
            .args(["--http", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", rqc.display()))?;
        let pipe = child.stderr.take().expect("stderr is piped");
        let (banner_tx, banner_rx) = mpsc::channel();
        let stderr = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(pipe).lines() {
                let Ok(line) = line else { break };
                if let Some(banner) = parse_banner(&line) {
                    let _ = banner_tx.send(banner);
                }
                lines.push(line);
            }
            lines
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            wire_workers: 0,
            query_threads: 0,
            stderr: Some(stderr),
        };
        match banner_rx.recv_timeout(BANNER_TIMEOUT) {
            Ok((addr, workers, threads)) => {
                server.addr = addr;
                server.wire_workers = workers;
                server.query_threads = threads;
                Ok(server)
            }
            Err(_) => {
                let lines = server.kill();
                Err(format!("server printed no banner: {}", lines.join(" | ")))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// SIGKILL the server, reap it, and return everything it wrote to
    /// stderr.
    pub fn kill(&mut self) -> Vec<String> {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Worker panics in a server's stderr.
pub fn panics(stderr: &[String]) -> u64 {
    stderr.iter().filter(|l| l.contains("panicked at")).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_bound_address_banner() {
        let line =
            "rqc serve --http 127.0.0.1:40123 — 2 wire worker(s), 2 query thread(s), epoch 0";
        let (addr, workers, threads) = parse_banner(line).unwrap();
        assert_eq!(addr.port(), 40123);
        assert_eq!((workers, threads), (2, 2));
        assert!(parse_banner("rqc serve — data dir recovered to epoch 3").is_none());
    }
}
