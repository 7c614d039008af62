//! The serving loop: routing, responses, and the TCP front door.
//!
//! The server is deliberately serial — one connection at a time, one
//! request at a time — because the engine is a single deterministic
//! state machine and the house invariants confine threads and locks to
//! `rrs_core::par` and `rrs-obs`. Parallelism lives *inside* an epoch
//! (the detector fan-out uses the deterministic pool), not across
//! requests. A serial loop is also exactly what the crash-replay
//! guarantee needs: the WAL orders events totally, so recovery is a
//! linear replay with no interleaving to reconstruct.
//!
//! [`Server::handle`] is generic over any `Read + Write` stream, so the
//! full request/response path — parsing, routing, engine mutation,
//! serialization — is unit-tested in memory without sockets; the
//! TCP accept loop in [`Server::run`] is a thin shell around it.
//!
//! ## Routes
//!
//! | Method & path              | Meaning                                  |
//! |----------------------------|------------------------------------------|
//! | `GET /healthz`             | liveness + engine counters               |
//! | `GET /metrics`             | Prometheus exposition of the obs registry|
//! | `POST /ratings`            | submit a JSONL batch (all-or-nothing)    |
//! | `POST /epochs`             | run one trust/detection epoch            |
//! | `POST /checkpoint`         | write an atomic checkpoint               |
//! | `POST /shutdown`           | checkpoint, answer, stop accepting       |
//! | `GET /trust`               | full trust table, JSONL, sorted by rater |
//! | `GET /raters/{id}/trust`   | one rater's trust record                 |
//! | `GET /products/{id}/score` | one product's filtered aggregate score   |
//! | `GET /suspicious`          | current suspicion set, resolved, JSONL   |
//!
//! Responses that enumerate state (`/trust`, `/suspicious`) render
//! floats through [`rrs_core::io::json_number`]'s shortest-roundtrip
//! encoding and iterate ordered containers, so two engines holding
//! bit-identical state serve byte-identical bodies — the crash-replay
//! smoke test `diff`s them directly.

use crate::dto::parse_submission_body;
use crate::engine::Engine;
use crate::http::{read_request, Method, Parsed, Request, Response};
use rrs_core::io::{json_number, parse_product_id, parse_rater_id};
use rrs_obs::{rrs_info, rrs_warn};
use std::io::{BufReader, Read, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::Duration;

/// The [`rrs_obs`] collection level a live server runs at: metrics
/// only. `GET /metrics` serves the registry, whose size is bounded by
/// its series names; spans and decision records would pile up with
/// every epoch, since nothing in a server ever drains them.
pub const COLLECTION: rrs_obs::Collection = rrs_obs::Collection::Metrics;

/// How long one read or write on an accepted connection may block. A
/// client that sends nothing for this long is answered 408 and closed,
/// so an idle keep-alive connection cannot hold the serial accept loop.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// How the TCP front door binds and advertises itself.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port `0` lets the OS pick).
    pub addr: String,
    /// If set, the actual bound address is written here once listening
    /// — the hook scripts and the smoke test use it to discover an
    /// OS-assigned port.
    pub addr_file: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            addr_file: None,
        }
    }
}

/// What one connection did to the serving loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionOutcome {
    /// Requests answered on this connection.
    pub requests: u64,
    /// Whether a `POST /shutdown` asked the accept loop to stop.
    pub shutdown: bool,
}

/// The HTTP server: an [`Engine`] plus the routing table.
#[derive(Debug)]
pub struct Server {
    engine: Engine,
}

impl Server {
    /// Wraps an opened engine.
    #[must_use]
    pub fn new(engine: Engine) -> Server {
        Server { engine }
    }

    /// Read access to the engine (used by tests and the CLI).
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Serves one connection to completion: requests are answered in
    /// order until clean EOF, a `Connection: close`, a malformed
    /// request (answered, then closed), or a shutdown request.
    pub fn handle<S: Read + Write>(&mut self, stream: S) -> ConnectionOutcome {
        let mut outcome = ConnectionOutcome {
            requests: 0,
            shutdown: false,
        };
        let mut reader = BufReader::new(stream);
        loop {
            let (response, close) = match read_request(&mut reader) {
                Ok(Parsed::Eof) => break,
                Ok(Parsed::Request(request)) => {
                    outcome.requests += 1;
                    let response = self.route(&request);
                    if request.method == Method::Post && request.path == "/shutdown" {
                        outcome.shutdown = response.status == 200;
                    }
                    let close = request.close || response.close || outcome.shutdown;
                    (response, close)
                }
                Err(e) => {
                    outcome.requests += 1;
                    (Response::from(e), true)
                }
            };
            let stream = reader.get_mut();
            if let Err(e) = response.write_to(stream) {
                rrs_warn!("dropped connection mid-response: {e}");
                break;
            }
            if close {
                break;
            }
        }
        outcome
    }

    /// Dispatches one request to the engine: the path picks the
    /// resource, each resource names the one method it answers, and a
    /// path outside the table is 404.
    fn route(&mut self, request: &Request) -> Response {
        let segments: Vec<&str> = request.path.split('/').skip(1).collect();
        match segments.as_slice() {
            ["healthz"] => self.on(Method::Get, request, |s| {
                Response::json(format!(
                    "{{\"status\":\"ok\",\"epochs\":{},\"ratings\":{},\"wal_events\":{}}}\n",
                    s.engine.epochs(),
                    s.engine.ratings(),
                    s.engine.wal_events(),
                ))
            }),
            ["metrics"] => self.on(Method::Get, request, |s| {
                // The trust gauges cost O(raters), so a scrape pays for
                // them once instead of every epoch.
                s.engine.publish_trust_gauges();
                Response::text(rrs_obs::metrics::snapshot().to_prometheus())
            }),
            ["ratings"] => self.on(Method::Post, request, |s| s.submit(&request.body)),
            ["epochs"] => self.on(Method::Post, request, |s| match s.engine.advance_epoch() {
                Ok(()) => Response::json(format!(
                    "{{\"epochs\":{},\"suspicious\":{}}}\n",
                    s.engine.epochs(),
                    s.engine.suspicious().len(),
                )),
                Err(e) => Response::error(500, &format!("epoch failed: {e}")),
            }),
            ["checkpoint"] => self.on(Method::Post, request, |s| match s.engine.checkpoint() {
                Ok(()) => Response::json(format!(
                    "{{\"checkpointed\":true,\"epochs\":{},\"wal_events\":{}}}\n",
                    s.engine.epochs(),
                    s.engine.wal_events(),
                )),
                Err(e) => Response::error(500, &format!("checkpoint failed: {e}")),
            }),
            ["shutdown"] => self.on(Method::Post, request, |s| match s.engine.checkpoint() {
                Ok(()) => Response::json("{\"shutting_down\":true}\n".to_string()),
                Err(e) => Response::error(500, &format!("shutdown checkpoint failed: {e}")),
            }),
            ["trust"] => self.on(Method::Get, request, |s| {
                let mut body = String::new();
                for view in s.engine.trust_table() {
                    body.push_str(&trust_line(&view));
                }
                Response::json(body)
            }),
            ["raters", id, "trust"] => self.on(Method::Get, request, |s| match parse_rater_id(id) {
                Ok(rater) => match s.engine.trust_record(rater) {
                    Some(view) => Response::json(trust_line(&view)),
                    None => Response::json(format!(
                        "{{\"rater\":{},\"trust\":{},\"successes\":0,\"failures\":0,\"observed\":false}}\n",
                        rater.value(),
                        json_number(s.engine.trust_of(rater)),
                    )),
                },
                Err(e) => Response::error(400, &e),
            }),
            ["products", id, "score"] => self.on(Method::Get, request, |s| match parse_product_id(id) {
                Ok(product) => match s.engine.score_of(product) {
                    Some(report) => Response::json(format!(
                        "{{\"product\":{},\"score\":{},\"ratings_scored\":{},\"ratings_total\":{}}}\n",
                        report.product.value(),
                        match report.score {
                            Some(score) => json_number(score),
                            None => "null".to_string(),
                        },
                        report.ratings_scored,
                        report.ratings_total,
                    )),
                    None => Response::error(
                        404,
                        &format!("product {} has no ratings", product.value()),
                    ),
                },
                Err(e) => Response::error(400, &e),
            }),
            ["suspicious"] => self.on(Method::Get, request, |s| {
                let mut body = String::new();
                for d in s.engine.suspicious_details() {
                    body.push_str(&format!(
                        "{{\"id\":{},\"rater\":{},\"product\":{},\"day\":{},\"value\":{}}}\n",
                        d.id.value(),
                        d.rater.value(),
                        d.product.value(),
                        json_number(d.day.as_days()),
                        json_number(d.value),
                    ));
                }
                Response::json(body)
            }),
            _ => Response::error(404, &format!("no such resource {}", request.path)),
        }
    }

    /// Answers `request` with `handler` when it uses `method`, the one
    /// method its resource takes, and with 405 otherwise.
    fn on(
        &mut self,
        method: Method,
        request: &Request,
        handler: impl FnOnce(&mut Self) -> Response,
    ) -> Response {
        if request.method == method {
            handler(self)
        } else {
            Response::error(405, &format!("wrong method for {}", request.path))
        }
    }

    /// `POST /ratings`: validate the whole batch, then accept it
    /// atomically (WAL fsync before the in-memory insert).
    fn submit(&mut self, body: &[u8]) -> Response {
        let text = match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) => return Response::error(400, "body must be UTF-8 JSONL"),
        };
        let batch = match parse_submission_body(text) {
            Ok(batch) => batch,
            Err((line, message)) => {
                return Response::error(400, &format!("line {line}: {message}"))
            }
        };
        match self.engine.submit(&batch) {
            Ok(ids) => {
                let id_range = match (ids.first(), ids.last()) {
                    (Some(first), Some(last)) => {
                        format!(
                            ",\"first_id\":{},\"last_id\":{}",
                            first.value(),
                            last.value()
                        )
                    }
                    _ => String::new(),
                };
                Response::json(format!(
                    "{{\"accepted\":{}{id_range},\"wal_events\":{}}}\n",
                    ids.len(),
                    self.engine.wal_events(),
                ))
            }
            Err(e) => Response::error(500, &format!("write-ahead log append failed: {e}")),
        }
    }

    /// Binds, optionally advertises the bound address, and serves
    /// connections serially until a `POST /shutdown`. Each connection's
    /// reads and writes time out after 2 s; a read that times out is
    /// answered `408 Request Timeout` and the connection closed, so one
    /// idle client delays the others by at most that long.
    ///
    /// # Errors
    ///
    /// Propagates bind/advertise failures. Per-connection errors are
    /// logged and do not stop the loop.
    pub fn run(&mut self, config: &ServerConfig) -> std::io::Result<()> {
        let listener = TcpListener::bind(&config.addr)?;
        let bound = listener.local_addr()?;
        if let Some(path) = &config.addr_file {
            // Write-then-rename so a watcher never reads a torn address.
            let tmp = path.with_extension("tmp");
            std::fs::write(&tmp, format!("{bound}\n"))?;
            std::fs::rename(&tmp, path)?;
        }
        rrs_info!(
            "serving on http://{bound} (dir {})",
            self.engine.dir().display()
        );
        for incoming in listener.incoming() {
            let stream = match incoming {
                Ok(s) => s,
                Err(e) => {
                    rrs_warn!("accept failed: {e}");
                    continue;
                }
            };
            if let Err(e) = stream
                .set_read_timeout(Some(IO_TIMEOUT))
                .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
            {
                rrs_warn!("cannot set socket timeouts: {e}");
                continue;
            }
            let outcome = self.handle(stream);
            if outcome.shutdown {
                rrs_info!("shutdown requested; {} epochs served", self.engine.epochs());
                break;
            }
        }
        Ok(())
    }
}

fn trust_line(view: &crate::engine::TrustView) -> String {
    format!(
        "{{\"rater\":{},\"trust\":{},\"successes\":{},\"failures\":{}}}\n",
        view.rater.value(),
        json_number(view.trust),
        json_number(view.successes),
        json_number(view.failures),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use std::io::Cursor;
    use std::path::PathBuf;

    /// An in-memory duplex stream: requests come from a cursor, the
    /// responses accumulate in a buffer.
    struct MemStream {
        input: Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl Read for MemStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for MemStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rrs-server-{}-{name}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clean scratch dir");
        }
        dir
    }

    fn server(dir: &std::path::Path) -> Server {
        Server::new(Engine::open(dir, EngineConfig::paper(30.0)).expect("open"))
    }

    /// Runs raw request bytes through a server, returning the raw
    /// response bytes and the outcome.
    fn exchange(server: &mut Server, request: &str) -> (String, ConnectionOutcome) {
        let mut stream = MemStream {
            input: Cursor::new(request.as_bytes().to_vec()),
            output: Vec::new(),
        };
        let outcome = server.handle(&mut stream);
        (
            String::from_utf8(stream.output).expect("UTF-8 response"),
            outcome,
        )
    }

    fn body_of(response: &str) -> &str {
        response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b)
            .unwrap_or("")
    }

    #[test]
    fn healthz_reports_counters() {
        let dir = scratch("healthz");
        let mut server = server(&dir);
        let (response, outcome) = exchange(&mut server, "GET /healthz HTTP/1.1\r\n\r\n");
        assert!(
            response.starts_with("HTTP/1.1 200 OK\r\n"),
            "got {response}"
        );
        assert_eq!(
            body_of(&response),
            "{\"status\":\"ok\",\"epochs\":0,\"ratings\":0,\"wal_events\":0}\n"
        );
        assert_eq!(outcome.requests, 1);
        assert!(!outcome.shutdown);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn submission_epoch_and_queries_flow() {
        let dir = scratch("flow");
        let mut server = server(&dir);
        let batch = "{\"rater\":0,\"product\":0,\"day\":0,\"value\":4}\n\
                     {\"rater\":1,\"product\":0,\"day\":1,\"value\":4}\n\
                     {\"rater\":2,\"product\":0,\"day\":2,\"value\":4}\n";
        let request = format!(
            "POST /ratings HTTP/1.1\r\nContent-Length: {}\r\n\r\n{batch}",
            batch.len()
        );
        let (response, _) = exchange(&mut server, &request);
        assert!(response.starts_with("HTTP/1.1 200"), "got {response}");
        assert_eq!(
            body_of(&response),
            "{\"accepted\":3,\"first_id\":0,\"last_id\":2,\"wal_events\":3}\n"
        );

        let (response, _) = exchange(
            &mut server,
            "POST /epochs HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(body_of(&response), "{\"epochs\":1,\"suspicious\":0}\n");

        let (response, _) = exchange(&mut server, "GET /trust HTTP/1.1\r\n\r\n");
        let trust_body = body_of(&response);
        assert_eq!(trust_body.lines().count(), 3, "got {trust_body}");
        assert!(
            trust_body.starts_with("{\"rater\":0,\"trust\":"),
            "got {trust_body}"
        );

        let (response, _) = exchange(&mut server, "GET /raters/0/trust HTTP/1.1\r\n\r\n");
        assert!(body_of(&response).starts_with("{\"rater\":0,\"trust\":"));
        let (response, _) = exchange(&mut server, "GET /raters/55/trust HTTP/1.1\r\n\r\n");
        assert_eq!(
            body_of(&response),
            "{\"rater\":55,\"trust\":0.5,\"successes\":0,\"failures\":0,\"observed\":false}\n"
        );

        let (response, _) = exchange(&mut server, "GET /products/0/score HTTP/1.1\r\n\r\n");
        let score_body = body_of(&response);
        assert!(
            score_body.starts_with("{\"product\":0,\"score\":"),
            "got {score_body}"
        );
        assert!(
            score_body.contains("\"ratings_scored\":3"),
            "got {score_body}"
        );

        let (response, _) = exchange(&mut server, "GET /suspicious HTTP/1.1\r\n\r\n");
        assert_eq!(body_of(&response), "");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn invalid_submissions_are_rejected_with_the_line_number() {
        let dir = scratch("reject");
        let mut server = server(&dir);
        let batch = "{\"rater\":0,\"product\":0,\"day\":0,\"value\":4}\n\
                     {\"rater\":-1,\"product\":0,\"day\":0,\"value\":4}\n";
        let request = format!(
            "POST /ratings HTTP/1.1\r\nContent-Length: {}\r\n\r\n{batch}",
            batch.len()
        );
        let (response, _) = exchange(&mut server, &request);
        assert!(response.starts_with("HTTP/1.1 400"), "got {response}");
        assert!(body_of(&response).contains("line 2"), "got {response}");
        // The all-or-nothing contract: nothing was accepted.
        let (response, _) = exchange(&mut server, "GET /healthz HTTP/1.1\r\n\r\n");
        assert!(
            body_of(&response).contains("\"ratings\":0"),
            "got {response}"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Every route and a few unknown paths under both methods, sent in
    /// this order to one fresh server, each with the exact response it
    /// must answer: 405 for a known path under the wrong method, 404 for
    /// an unknown path under either.
    const ROUTE_TABLE: &[(&str, &str)] = &[
        ("GET /healthz", "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 54\r\n\r\n{\"status\":\"ok\",\"epochs\":0,\"ratings\":0,\"wal_events\":0}\n"),
        ("POST /healthz", "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\nContent-Length: 38\r\n\r\n{\"error\":\"wrong method for /healthz\"}\n"),
        ("GET /metrics", "HTTP/1.1 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: 0\r\n\r\n"),
        ("POST /metrics", "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\nContent-Length: 38\r\n\r\n{\"error\":\"wrong method for /metrics\"}\n"),
        ("GET /trust", "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 0\r\n\r\n"),
        ("POST /trust", "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\nContent-Length: 36\r\n\r\n{\"error\":\"wrong method for /trust\"}\n"),
        ("GET /suspicious", "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 0\r\n\r\n"),
        ("POST /suspicious", "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\nContent-Length: 41\r\n\r\n{\"error\":\"wrong method for /suspicious\"}\n"),
        ("GET /raters/7/trust", "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 68\r\n\r\n{\"rater\":7,\"trust\":0.5,\"successes\":0,\"failures\":0,\"observed\":false}\n"),
        ("POST /raters/7/trust", "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\nContent-Length: 45\r\n\r\n{\"error\":\"wrong method for /raters/7/trust\"}\n"),
        ("GET /raters/x/trust", "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nContent-Length: 54\r\nConnection: close\r\n\r\n{\"error\":\"bad rater id \\\"x\\\": invalid float literal\"}\n"),
        ("POST /raters/x/trust", "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\nContent-Length: 45\r\n\r\n{\"error\":\"wrong method for /raters/x/trust\"}\n"),
        ("GET /products/0/score", "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 37\r\n\r\n{\"error\":\"product 0 has no ratings\"}\n"),
        ("POST /products/0/score", "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\nContent-Length: 47\r\n\r\n{\"error\":\"wrong method for /products/0/score\"}\n"),
        ("GET /products/x/score", "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\nContent-Length: 56\r\nConnection: close\r\n\r\n{\"error\":\"bad product id \\\"x\\\": invalid float literal\"}\n"),
        ("POST /products/x/score", "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\nContent-Length: 47\r\n\r\n{\"error\":\"wrong method for /products/x/score\"}\n"),
        ("GET /ratings", "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\nContent-Length: 38\r\n\r\n{\"error\":\"wrong method for /ratings\"}\n"),
        ("POST /ratings", "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 30\r\n\r\n{\"accepted\":0,\"wal_events\":0}\n"),
        ("GET /epochs", "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\nContent-Length: 37\r\n\r\n{\"error\":\"wrong method for /epochs\"}\n"),
        ("POST /epochs", "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 28\r\n\r\n{\"epochs\":1,\"suspicious\":0}\n"),
        ("GET /checkpoint", "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\nContent-Length: 41\r\n\r\n{\"error\":\"wrong method for /checkpoint\"}\n"),
        ("POST /checkpoint", "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 48\r\n\r\n{\"checkpointed\":true,\"epochs\":1,\"wal_events\":1}\n"),
        ("GET /", "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 31\r\n\r\n{\"error\":\"no such resource /\"}\n"),
        ("POST /", "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 31\r\n\r\n{\"error\":\"no such resource /\"}\n"),
        ("GET /nope", "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 35\r\n\r\n{\"error\":\"no such resource /nope\"}\n"),
        ("POST /nope", "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 35\r\n\r\n{\"error\":\"no such resource /nope\"}\n"),
        ("GET /healthz/", "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 39\r\n\r\n{\"error\":\"no such resource /healthz/\"}\n"),
        ("POST /healthz/", "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 39\r\n\r\n{\"error\":\"no such resource /healthz/\"}\n"),
        ("GET /Healthz", "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 38\r\n\r\n{\"error\":\"no such resource /Healthz\"}\n"),
        ("POST /Healthz", "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 38\r\n\r\n{\"error\":\"no such resource /Healthz\"}\n"),
        ("GET /raters/7", "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 39\r\n\r\n{\"error\":\"no such resource /raters/7\"}\n"),
        ("POST /raters/7", "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 39\r\n\r\n{\"error\":\"no such resource /raters/7\"}\n"),
        ("GET /products/0/score/extra", "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 53\r\n\r\n{\"error\":\"no such resource /products/0/score/extra\"}\n"),
        ("POST /products/0/score/extra", "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 53\r\n\r\n{\"error\":\"no such resource /products/0/score/extra\"}\n"),
        ("GET /trust?full=1", "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 0\r\n\r\n"),
        ("POST /trust?full=1", "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\nContent-Length: 36\r\n\r\n{\"error\":\"wrong method for /trust\"}\n"),
        ("GET /shutdown", "HTTP/1.1 405 Method Not Allowed\r\nContent-Type: application/json\r\nContent-Length: 39\r\n\r\n{\"error\":\"wrong method for /shutdown\"}\n"),
        ("POST /shutdown", "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 23\r\n\r\n{\"shutting_down\":true}\n"),
    ];

    #[test]
    fn unknown_paths_and_wrong_methods_are_distinguished() {
        let dir = scratch("route-table");
        let mut server = server(&dir);
        for (request_line, expected) in ROUTE_TABLE {
            let request = format!("{request_line} HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
            let (response, _) = exchange(&mut server, &request);
            assert_eq!(response, *expected, "{request_line}");
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let dir = scratch("pipeline");
        let mut server = server(&dir);
        let (response, outcome) = exchange(
            &mut server,
            "GET /healthz HTTP/1.1\r\n\r\nGET /trust HTTP/1.1\r\n\r\n",
        );
        assert_eq!(outcome.requests, 2);
        assert_eq!(
            response.matches("HTTP/1.1 200 OK").count(),
            2,
            "got {response}"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn malformed_requests_answer_and_close() {
        let dir = scratch("malformed");
        let mut server = server(&dir);
        let (response, outcome) = exchange(
            &mut server,
            "BANANA /x HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n",
        );
        // The 405 answers the first request and the connection closes:
        // the pipelined /healthz is never served.
        assert_eq!(outcome.requests, 1);
        assert!(response.starts_with("HTTP/1.1 405"), "got {response}");
        assert!(!response.contains("\"status\":\"ok\""), "got {response}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn shutdown_checkpoints_and_stops_the_connection() {
        let dir = scratch("shutdown");
        let mut server = server(&dir);
        let (response, outcome) = exchange(
            &mut server,
            "POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n",
        );
        assert!(outcome.shutdown);
        assert_eq!(outcome.requests, 1, "no request after shutdown is served");
        assert_eq!(body_of(&response), "{\"shutting_down\":true}\n");
        assert!(
            dir.join(crate::checkpoint::CHECKPOINT_FILE).exists(),
            "shutdown writes a checkpoint"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn connection_close_is_honored() {
        let dir = scratch("close");
        let mut server = server(&dir);
        let (response, outcome) = exchange(
            &mut server,
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\nGET /trust HTTP/1.1\r\n\r\n",
        );
        assert_eq!(outcome.requests, 1);
        assert_eq!(response.matches("HTTP/1.1").count(), 1, "got {response}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn an_idle_client_cannot_hold_the_server() {
        use std::net::{SocketAddr, TcpStream};
        use std::time::{Duration, Instant};
        let dir = scratch("idle");
        let addr_file = dir.with_extension("addr");
        let _ = std::fs::remove_file(&addr_file);
        let mut server = server(&dir);
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            addr_file: Some(addr_file.clone()),
        };
        let serving = std::thread::spawn(move || server.run(&config));
        let started = Instant::now();
        let addr: SocketAddr = loop {
            if let Some(addr) = std::fs::read_to_string(&addr_file)
                .ok()
                .and_then(|text| text.trim().parse().ok())
            {
                break addr;
            }
            assert!(started.elapsed() < Duration::from_secs(10), "no address");
            std::thread::sleep(Duration::from_millis(10));
        };
        let ask = |request: &[u8]| -> String {
            let mut client = TcpStream::connect(addr).expect("connect");
            client
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            client.write_all(request).expect("send");
            let mut reply = String::new();
            client.read_to_string(&mut reply).expect("read reply");
            reply
        };

        // A connects first and sends nothing; the serial loop takes it.
        let mut idle = TcpStream::connect(addr).expect("connect A");
        std::thread::sleep(Duration::from_millis(100));
        let asked = Instant::now();
        let reply = ask(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        let waited = asked.elapsed();
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "got {reply}");
        assert!(
            waited < IO_TIMEOUT + Duration::from_secs(1),
            "B waited {waited:?} behind an idle client"
        );
        // A was answered 408 and closed: the reply, then EOF.
        idle.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut answer = String::new();
        idle.read_to_string(&mut answer).expect("read to EOF");
        assert!(
            answer.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
            "got {answer}"
        );
        assert!(answer.contains("Connection: close\r\n"), "got {answer}");

        let reply = ask(b"POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "got {reply}");
        serving.join().expect("server thread").expect("server run");
        let _ = std::fs::remove_file(&addr_file);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
