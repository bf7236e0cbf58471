//! Hand-rolled std-only HTTP/1.0 listener for the live plane.
//!
//! Serves two read-only paths from the shared collector:
//! * `GET /metrics` — Prometheus text exposition of the merged live
//!   registry, with the plane's self-metrics
//!   (`gmg_live_scrape_duration_ns`, `gmg_live_snapshot_age_ns`,
//!   `gmg_live_frames_lost_total`) appended;
//! * `GET /status` — the collector's JSON status document.
//!
//! The bind address comes from `GMG_PROM_ADDR` (default
//! `127.0.0.1:0`, i.e. an ephemeral port reported by [`PromServer::addr`]).
//! One request per connection, `Connection: close`, no keep-alive, no
//! TLS, no routing beyond the two paths — it exists so `curl` and a
//! Prometheus scraper work mid-solve, nothing more. The accept loop
//! doubles as the collector's clock: it ticks the alert engine every
//! poll interval, which is what lets a *silent* rank (producing no
//! frames to ingest) still trip its alert.

use crate::collect::CollectorHandle;
use gmg_metrics::prom::{render_prometheus_with_self, SelfMetrics};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A running Prometheus/status endpoint. Dropping it stops the listener.
pub struct PromServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl PromServer {
    /// Bind (per `GMG_PROM_ADDR`, default ephemeral loopback) and start
    /// serving `collector`. Also drives `Collector::tick` on a 10 ms
    /// cadence so time-based alerts fire without traffic.
    pub fn start(collector: CollectorHandle) -> std::io::Result<PromServer> {
        let listener = TcpListener::bind(gmg_trace::ObsConfig::from_env().prom_addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("gmg-live-http".to_string())
            .spawn(move || serve(listener, collector, stop2))?;
        Ok(PromServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for PromServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn serve(listener: TcpListener, collector: CollectorHandle, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => handle(stream, &collector),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Idle: advance the alert engine's clock, then nap.
                if let Ok(mut c) = collector.lock() {
                    c.tick();
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle(mut stream: TcpStream, collector: &CollectorHandle) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 2048];
    let n = match stream.read(&mut buf) {
        Ok(n) => n,
        Err(_) => return,
    };
    let request = String::from_utf8_lossy(&buf[..n]);
    let path = request
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, ctype, body) = match path {
        "/metrics" | "/metrics/" => {
            let t0 = Instant::now();
            let c = match collector.lock() {
                Ok(c) => c,
                Err(_) => return,
            };
            let snap = c.merged();
            let this = SelfMetrics {
                scrape_duration_ns: t0.elapsed().as_nanos() as u64,
                snapshot_age_ns: c.snapshot_age_ns(),
                frames_lost_total: c.frames_lost(),
            };
            drop(c);
            (
                "200 OK",
                "text/plain; version=0.0.4",
                render_prometheus_with_self(&snap, &this),
            )
        }
        "/status" | "/status/" => {
            let c = match collector.lock() {
                Ok(c) => c,
                Err(_) => return,
            };
            ("200 OK", "application/json", c.status_json().to_string())
        }
        _ => (
            "404 Not Found",
            "text/plain",
            "try /metrics or /status\n".to_string(),
        ),
    };
    let _ = write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

/// Minimal HTTP/1.0 GET for tests and the bench driver (std-only —
/// nothing in the workspace may pull an HTTP client crate).
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    // One write: `write!` would send the request in pieces, and a server
    // that answers the first piece and closes with the rest unread resets
    // the connection.
    stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: gmg\r\n\r\n").as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.0 200") => Ok(body.to_string()),
        Some((head, _)) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            head.lines().next().unwrap_or("bad response").to_string(),
        )),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "no header/body split",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::AlertConfig;
    use crate::collect::Collector;
    use crate::ship::Shipper;

    #[test]
    fn serves_metrics_and_status_over_http() {
        let collector = Collector::new(AlertConfig::default()).into_handle();
        // Push something through the real shipper path so the scrape has
        // content. Metrics gate may be off in this test process; beacons
        // flow regardless.
        let mut shipper = Shipper::local(1, Arc::clone(&collector)).expect("live enabled");
        shipper.beacon(&crate::ship::Beacon {
            rank: 1,
            cycle: 3,
            residual: 1e-6,
            epoch: 0,
            level_seconds: vec![0.5],
            done: false,
        });
        let server = PromServer::start(collector).expect("bind ephemeral");
        let addr = server.addr();

        let metrics = http_get(addr, "/metrics").expect("scrape");
        assert!(metrics.contains("gmg_live_scrape_duration_ns"));
        assert!(metrics.contains("gmg_live_frames_lost_total"));
        assert!(metrics.contains("gmg_live_progress_cycles"));
        let parsed = gmg_metrics::prom::parse_prometheus(&metrics).expect("parseable");
        assert!(!parsed.entries.is_empty());

        let status = http_get(addr, "/status").expect("status");
        let doc = gmg_trace::Json::parse(&status).expect("json");
        assert_eq!(doc.get("schema").and_then(|v| v.as_u64()), Some(1));

        let err = http_get(addr, "/nope").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
