//! The in-process replay: the exact request sequence a workload sent,
//! answered again by the program's own request handler, with the
//! benchmark's own spans around calls into each serving layer.
//!
//! Every request runs through `rrs_serve::Server::handle` over an
//! in-memory stream: the program's whole path (parse, route, engine,
//! response) without a socket. Its engine is the oracle the served state
//! is compared against.
//!
//! The traced replay times that call as the request's `program.<class>`
//! span. The handler's layers cannot be timed from inside it, so a
//! *mirror* makes the same calls into the layers' public functions on its
//! own copy of the state, each in a span under the request's
//! `mirror.<class>` span: `http::read_request`, `parse_submission_body`,
//! `WalWriter::append_batch`, `RatingDataset::insert`, and for epochs
//! `TrustManager::snapshot`, `JointDetector::detect_all_online` and
//! `TrustManager::update_epoch`, step for step as `Engine::apply_epoch`
//! does. Reads and scans call `Engine::score_of` and friends on the
//! handler's engine. What the handler spends beyond the mirrored calls
//! (routing, rendering the response) is the class's `other` time; a
//! mirror that no longer matches the program shows there.

use crate::plan::{Class, Request, Route};
use rrs_core::{RaterId, RatingDataset, RatingId, TimeWindow, Timestamp};
use rrs_detectors::{JointDetector, OnlineState};
use rrs_serve::http::{read_request, Parsed};
use rrs_serve::{
    parse_submission_body, Engine, EngineConfig, RatingSubmission, Server, WalEvent, WalWriter,
};
use rrs_trust::TrustManager;
use std::collections::BTreeSet;
use std::io::{Cursor, Read, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    /// Layer or request name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the timed request this span belongs to, if any.
    pub request: Option<usize>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    /// Every span, in open order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    request: Option<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: None,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now();
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// The spans as JSONL: name, start, end, parent, request.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request.map_or("null".to_string(), |r| r.to_string()),
            ));
        }
        out
    }
}

/// The server's write path and epoch step, rebuilt from public parts.
struct Mirror {
    period_days: f64,
    wal: WalWriter,
    dataset: RatingDataset,
    trust: TrustManager,
    online: OnlineState,
    detector: JointDetector,
    marks: BTreeSet<RatingId>,
    epochs: u64,
}

/// Work counts gathered during the timed phase.
#[derive(Default)]
pub struct Counts {
    /// Ratings ingested.
    pub ratings: u64,
    /// WAL appends (one fsync each).
    pub fsyncs: u64,
    /// WAL bytes written for rating events.
    pub rating_wal_bytes: u64,
    /// WAL rating events encoded.
    pub events: u64,
}

/// The replay state.
pub struct Replay {
    /// The program's request handler, around the oracle engine.
    server: Server,
    mirror: Option<Mirror>,
    /// The spans recorded so far.
    pub tracer: Tracer,
    /// Work counts for the timed phase.
    pub counts: Counts,
}

/// One request's bytes in, the handler's response bytes out.
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

impl Replay {
    /// Opens a replay on a fresh directory. With `traced`, requests are
    /// timed and the mirror runs.
    pub fn open(dir: &Path, period_days: f64, traced: bool) -> Result<Replay, String> {
        let config = EngineConfig::paper(period_days);
        let engine =
            Engine::open(&dir.join("engine"), config).map_err(|e| format!("replay engine: {e}"))?;
        let mirror = if traced {
            // `rrs serve` runs with the program's telemetry on; so does the
            // traced replay, so its times include that work.
            rrs_obs::enable();
            let mirror_dir = dir.join("mirror");
            std::fs::create_dir_all(&mirror_dir).map_err(|e| format!("mirror dir: {e}"))?;
            Some(Mirror {
                period_days,
                wal: WalWriter::open(&mirror_dir, 0).map_err(|e| format!("mirror WAL: {e}"))?,
                dataset: RatingDataset::new(),
                trust: TrustManager::new(),
                online: OnlineState::new(),
                detector: JointDetector::new(config.detectors),
                marks: BTreeSet::new(),
                epochs: 0,
            })
        } else {
            None
        };
        Ok(Replay {
            server: Server::new(engine),
            mirror,
            tracer: Tracer::new(),
            counts: Counts::default(),
        })
    }

    /// The oracle engine.
    pub fn engine(&self) -> &Engine {
        self.server.engine()
    }

    /// Replays one request; `timed` is its index in the timed phase.
    pub fn apply(&mut self, request: &Request, timed: Option<usize>) -> Result<(), String> {
        self.tracer.request = timed;
        // The two sides take turns going first, so that neither always
        // pays for cold caches or for the disk's first flush.
        let mirror_first = timed.is_none_or(|i| i % 2 == 0);
        if mirror_first {
            self.mirror(request, timed)?;
        }
        self.handle(request)?;
        if !mirror_first {
            self.mirror(request, timed)?;
        }
        self.tracer.request = None;
        Ok(())
    }

    /// The request's mirrored layer calls, if traced.
    fn mirror(&mut self, request: &Request, timed: Option<usize>) -> Result<(), String> {
        let Some(mirror) = self.mirror.as_mut() else {
            return Ok(());
        };
        let counts = timed.map(|_| &mut self.counts);
        let root = self.tracer.open(mirror_name(request.route.class()));
        let mirrored = mirror.apply(&mut self.tracer, self.server.engine(), counts, request);
        self.tracer.close(root);
        mirrored
    }

    /// The program's handler on the request's bytes, timed if traced.
    fn handle(&mut self, request: &Request) -> Result<(), String> {
        let class = request.route.class();
        let mut stream = MemStream {
            input: Cursor::new(request.bytes.clone()),
            output: Vec::new(),
        };
        let server = &mut self.server;
        let outcome = if self.mirror.is_some() {
            self.tracer
                .time(program_name(class), || server.handle(&mut stream))
        } else {
            server.handle(&mut stream)
        };
        if outcome.requests != 1 || !stream.output.starts_with(b"HTTP/1.1 200 ") {
            let head = String::from_utf8_lossy(&stream.output);
            return Err(format!(
                "replayed {:?} was not answered 200: {}",
                request.route,
                head.lines().next().unwrap_or("no response")
            ));
        }
        Ok(())
    }

    /// Whether the mirror holds exactly the engine's trust records and
    /// suspicion set (a check on the benchmark's own mirror).
    pub fn mirror_matches_engine(&self) -> bool {
        let engine = self.engine();
        self.mirror.as_ref().is_none_or(|m| {
            let records: Vec<(RaterId, u64, u64)> = m
                .trust
                .records()
                .map(|(r, b)| (r, b.successes().to_bits(), b.failures().to_bits()))
                .collect();
            let served: Vec<(RaterId, u64, u64)> = engine
                .trust_table()
                .iter()
                .map(|v| (v.rater, v.successes.to_bits(), v.failures.to_bits()))
                .collect();
            records == served && &m.marks == engine.suspicious() && m.epochs == engine.epochs()
        })
    }

    /// Times `f` as a root span (used for the recovery calls).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.time(name, f)
    }
}

impl Mirror {
    /// One request's layer calls, each in its own span.
    fn apply(
        &mut self,
        t: &mut Tracer,
        engine: &Engine,
        counts: Option<&mut Counts>,
        request: &Request,
    ) -> Result<(), String> {
        let body = t.time("http.parse", || request_body(request))?;
        match request.route {
            Route::Ingest(_) => {
                let batch = t.time("dto.parse", || parse_batch(&body))?;
                let events: Vec<WalEvent> = batch.iter().map(|s| WalEvent::Rating(*s)).collect();
                t.time("wal.append", || self.wal.append_batch(&events))
                    .map_err(|e| format!("mirror WAL append: {e}"))?;
                let dataset = &mut self.dataset;
                t.time("store.insert", || {
                    for s in &batch {
                        dataset.insert(s.rating(), s.source);
                    }
                });
                if let Some(counts) = counts {
                    let encoded: Vec<String> = t.time("probe.wal.encode", || {
                        events.iter().map(WalEvent::to_jsonl).collect()
                    });
                    counts.ratings += batch.len() as u64;
                    counts.fsyncs += 1;
                    counts.events += encoded.len() as u64;
                    counts.rating_wal_bytes +=
                        encoded.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
                }
            }
            Route::Epoch => {
                t.time("wal.append", || self.wal.append_batch(&[WalEvent::Epoch]))
                    .map_err(|e| format!("mirror WAL append: {e}"))?;
                self.epoch(t);
                if let Some(counts) = counts {
                    counts.fsyncs += 1;
                }
            }
            Route::Checkpoint => {}
            Route::Score(product) => {
                t.time("engine.score", || engine.score_of(product))
                    .ok_or_else(|| format!("product {product} has no ratings"))?;
            }
            Route::RaterTrust(rater) => {
                t.time("engine.trust_record", || engine.trust_record(rater));
            }
            Route::Suspicious => {
                t.time("engine.suspicious", || engine.suspicious_details());
            }
            Route::TrustTable => {
                t.time("engine.trust_table", || engine.trust_table());
            }
        }
        Ok(())
    }

    /// `Engine::apply_epoch`, step for step.
    fn epoch(&mut self, t: &mut Tracer) {
        let index = self.epochs as f64;
        let period = TimeWindow::ordered(
            Timestamp::saturating(index * self.period_days),
            Timestamp::saturating((index + 1.0) * self.period_days),
        );
        let prefix_window = TimeWindow::ordered(Timestamp::ZERO, period.end());
        let prefix = self.dataset.prefix_view(prefix_window);
        let snapshot = t.time("trust.snapshot", || self.trust.snapshot());
        let trust_fn = |r: RaterId| snapshot.get(&r).copied().unwrap_or(0.5);
        let (detector, online) = (&self.detector, &mut self.online);
        let (marks, _) = t.time("detect.epoch", || {
            detector.detect_all_online(&prefix, prefix_window, trust_fn, online)
        });
        let trust = &mut self.trust;
        t.time("trust.update", || {
            trust.update_epoch(&prefix, period, &marks)
        });
        self.marks = marks;
        self.epochs += 1;
    }
}

/// `http::read_request` over the request's bytes; returns its body.
fn request_body(request: &Request) -> Result<Vec<u8>, String> {
    match read_request(&mut Cursor::new(&request.bytes)) {
        Ok(Parsed::Request(r)) => Ok(r.body),
        other => Err(format!("replayed request did not parse: {other:?}")),
    }
}

/// `parse_submission_body` over a `POST /ratings` body.
fn parse_batch(body: &[u8]) -> Result<Vec<RatingSubmission>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    parse_submission_body(text).map_err(|(line, e)| format!("line {line}: {e}"))
}

/// The span around a request's `Server::handle` call.
pub fn program_name(class: Class) -> &'static str {
    match class {
        Class::Ingest => "program.ingest",
        Class::Epoch => "program.epoch",
        Class::Read => "program.read",
        Class::Scan => "program.scan",
        Class::Admin => "program.admin",
    }
}

/// The span that holds a request's mirrored layer calls.
fn mirror_name(class: Class) -> &'static str {
    match class {
        Class::Ingest => "mirror.ingest",
        Class::Epoch => "mirror.epoch",
        Class::Read => "mirror.read",
        Class::Scan => "mirror.scan",
        Class::Admin => "mirror.admin",
    }
}
