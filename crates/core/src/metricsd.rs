//! Dependency-free metrics scrape endpoint (DESIGN.md §11).
//!
//! A minimal HTTP/1.x responder on a std [`TcpListener`] — no async
//! runtime, no HTTP crate — serving exactly two read-only routes:
//!
//! * `GET /metrics` — Prometheus text exposition format
//!   (`text/plain; version=0.0.4`), rendered by the
//!   [`MetricsSource`] (for a service:
//!   [`crate::service::GemmService::metrics_text`]).
//! * `GET /status` — the `dgemm-telem-v1` JSON snapshot
//!   (for a service: [`crate::service::GemmService::status_json`]).
//!
//! Everything else answers `404`. Connections are `Connection: close`,
//! one request per connection, with short read/write timeouts so a
//! stuck scraper cannot wedge the acceptor. The endpoint is explicitly
//! *not* a general web server: it binds where told
//! ([`crate::service::GemmService::serve_metrics`], or
//! `DGEMM_METRICS_ADDR` via
//! [`crate::service::GemmService::serve_metrics_from_env`]) and shuts
//! down when the [`MetricsServer`] handle drops.

#![forbid(unsafe_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// What the endpoint serves. Implemented by the service layer; any
/// other component can expose itself the same way.
pub trait MetricsSource: Send + Sync + 'static {
    /// The `/metrics` body: Prometheus text exposition format.
    fn metrics_text(&self) -> String;
    /// The `/status` body: `dgemm-telem-v1` JSON.
    fn status_json(&self) -> String;
}

/// A running scrape endpoint. Dropping it stops the acceptor thread
/// (best-effort nudge + join).
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl core::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MetricsServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

/// Per-connection IO timeout: generous for a loopback scrape, short
/// enough that a wedged peer cannot hold the single-threaded acceptor
/// for long.
const IO_TIMEOUT: Duration = Duration::from_millis(500);

impl MetricsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9464"`; port 0 picks a free port —
    /// read it back with [`MetricsServer::local_addr`]) and start the
    /// acceptor thread serving `source`.
    pub fn spawn(addr: &str, source: Arc<dyn MetricsSource>) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let acceptor = thread::Builder::new()
            .name("dgemm-metricsd".into())
            .spawn(move || accept_loop(&listener, &stop2, source.as_ref()))
            .map_err(std::io::Error::other)?;
        Ok(MetricsServer {
            addr: local,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The address actually bound (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Nudge the blocking accept() with a throwaway connection so the
        // acceptor observes the stop flag promptly.
        if let Ok(s) = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT) {
            drop(s);
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool, source: &dyn MetricsSource) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = conn else { continue };
        // One bad connection must not kill the endpoint.
        let _ = serve_one(stream, source);
    }
}

/// Read one request head, answer, close. Bodies are ignored — both
/// routes are GET-shaped reads; any method works (scrapers send GET,
/// health checkers sometimes send HEAD — answering the body anyway is
/// harmless).
fn serve_one(mut stream: TcpStream, source: &dyn MetricsSource) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut buf = [0u8; 2048];
    let mut len = 0usize;
    // Read until the end of the request head (or the buffer fills — a
    // head that big is not a scraper; the path is in the first line).
    while len < buf.len() {
        let n = stream.read(&mut buf[len..])?;
        if n == 0 {
            break;
        }
        len += n;
        if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        if buf[..len].contains(&b'\n') && len >= 4 {
            // Tolerate bare-LF clients once the request line is in.
            if buf[..len].windows(2).any(|w| w == b"\n\n") {
                break;
            }
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    let path = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            source.metrics_text(),
        ),
        "/status" => ("200 OK", "application/json", source.status_json()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "404: try /metrics or /status\n".to_string(),
        ),
    };
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Resolve `DGEMM_METRICS_ADDR`: `Ok(None)` when unset or empty,
/// `Err` when set but unresolvable or not unicode (`InvalidInput`):
/// typed at startup, not at scrape time.
pub(crate) fn addr_from_env() -> std::io::Result<Option<String>> {
    let addr = crate::env::METRICS_ADDR
        .value()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?
        .filter(|v| !v.is_empty());
    if let Some(addr) = &addr {
        // Fail fast on garbage; actual binding happens in spawn().
        addr.to_socket_addrs()?;
    }
    Ok(addr)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed;

    impl MetricsSource for Fixed {
        fn metrics_text(&self) -> String {
            "# TYPE dgemm_up gauge\ndgemm_up 1\n".to_string()
        }

        fn status_json(&self) -> String {
            "{\"schema\":\"dgemm-telem-v1\"}".to_string()
        }
    }

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        let (head, body) = out.split_once("\r\n\r\n").unwrap_or((out.as_str(), ""));
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_status_and_404() {
        let srv = MetricsServer::spawn("127.0.0.1:0", Arc::new(Fixed)).unwrap();
        let addr = srv.local_addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        assert_eq!(body, "# TYPE dgemm_up gauge\ndgemm_up 1\n");

        let (head, body) = get(addr, "/status");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        assert_eq!(body, "{\"schema\":\"dgemm-telem-v1\"}");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        // Query strings are tolerated.
        let (head, _) = get(addr, "/metrics?x=1");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");

        drop(srv); // joins the acceptor
    }

    #[test]
    fn addr_env_parses_or_errors() {
        crate::env::tests::check(crate::env::tests::METRICS_ROWS);
        // The scrape endpoint reports a non-unicode address as invalid
        // input.
        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStrExt;
            let _env = crate::env::lock();
            let name = crate::env::METRICS_ADDR.name;
            std::env::set_var(name, std::ffi::OsStr::from_bytes(b"\xff"));
            let kind = addr_from_env().map_err(|e| e.kind());
            std::env::remove_var(name);
            assert_eq!(kind, Err(std::io::ErrorKind::InvalidInput));
        }
    }
}
