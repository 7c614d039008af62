//! Workloads and the exact request sequences they send.
//!
//! Every workload has the same shape, so every run reports every
//! end-to-end metric:
//!
//! * **setup** — post the first `preload_days` one period at a time (one
//!   batch, then `POST /epochs`), `POST /checkpoint`, post a further
//!   `suffix_days` of ratings, then SIGKILL and restart the server;
//! * **timed phase** — rounds of one rating batch followed by point reads,
//!   with a full-state scan every few rounds and `POST /epochs` whenever
//!   the stream crosses a period boundary. The phase always sends the
//!   whole plan, up to the workload's day cap; a plan that does not finish
//!   within `--seconds` fails the run.
//!
//! The workloads differ in population, period, batch size and read mix;
//! see `README.md` for why each was chosen.

use crate::stream::Stream;
use rrs_core::rng::{derive_seed, RrsRng, Xoshiro256pp};
use rrs_core::{ProductId, RaterId};
use rrs_serve::RatingSubmission;
use std::collections::BTreeSet;

/// One workload's parameters.
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Paper instances laid side by side.
    pub instances: usize,
    /// The server's `--period`, in days.
    pub period_days: f64,
    /// Days posted during setup, one period per batch.
    pub preload_days: f64,
    /// Days posted after the checkpoint, before the crash.
    pub suffix_days: f64,
    /// Ratings per timed batch; `None` posts one whole day per batch.
    pub batch: Option<usize>,
    /// Point reads sent after every `read_every`-th batch.
    pub reads: usize,
    /// See `reads`.
    pub read_every: usize,
    /// A full-state scan follows every `scan_every`-th batch.
    pub scan_every: usize,
    /// The timed phase stops at this day.
    pub end_day: f64,
}

/// The three workloads. Every one must yield enough samples of every
/// request class for steady percentiles, hence the short periods on
/// `ingest` and `read-mix` (README.md, "Workloads"). Every plan must also
/// finish well inside `--seconds`, with room for any slowdown the bounds
/// allow, since an unfinished plan fails the run.
pub const WORKLOADS: [Workload; 3] = [
    // Write path: small batches of a small population, a weekly epoch.
    Workload {
        name: "ingest",
        instances: 3,
        period_days: 7.0,
        preload_days: 28.0,
        suffix_days: 2.0,
        batch: Some(48),
        reads: 1,
        read_every: 3,
        scan_every: 8,
        end_day: 180.0,
    },
    // Epoch path: a large population, one day per batch and one epoch per
    // day.
    Workload {
        name: "epoch",
        instances: 40,
        period_days: 1.0,
        preload_days: 1.0,
        suffix_days: 1.0,
        batch: None,
        reads: 1,
        read_every: 4,
        scan_every: 10,
        end_day: 170.0,
    },
    // Read path: a third of the stream preloaded, then mostly point reads
    // with small batches and epochs mixed in.
    Workload {
        name: "read-mix",
        instances: 4,
        period_days: 3.0,
        preload_days: 60.0,
        suffix_days: 2.0,
        batch: Some(200),
        reads: 4,
        read_every: 1,
        scan_every: 3,
        end_day: 180.0,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What a request does, as the benchmark classifies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /ratings` with this many ratings.
    Ingest(usize),
    /// `POST /epochs`.
    Epoch,
    /// `POST /checkpoint`.
    Checkpoint,
    /// `GET /products/{id}/score`.
    Score(ProductId),
    /// `GET /raters/{id}/trust`.
    RaterTrust(RaterId),
    /// `GET /suspicious`.
    Suspicious,
    /// `GET /trust`.
    TrustTable,
}

/// The latency class a route reports under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Rating batches.
    Ingest,
    /// Epochs.
    Epoch,
    /// Point reads.
    Read,
    /// Full-state reads.
    Scan,
    /// Setup-only requests.
    Admin,
}

impl Class {
    /// Every class that carries latency metrics.
    pub const TIMED: [Class; 4] = [Class::Ingest, Class::Epoch, Class::Read, Class::Scan];

    /// The class's metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            Class::Ingest => "ingest",
            Class::Epoch => "epoch",
            Class::Read => "read",
            Class::Scan => "scan",
            Class::Admin => "admin",
        }
    }
}

impl Route {
    /// A short label for records.
    pub fn label(self) -> &'static str {
        match self {
            Route::Ingest(_) => "ratings",
            Route::Epoch => "epochs",
            Route::Checkpoint => "checkpoint",
            Route::Score(_) => "score",
            Route::RaterTrust(_) => "rater_trust",
            Route::Suspicious => "suspicious",
            Route::TrustTable => "trust",
        }
    }

    /// The route's latency class.
    pub fn class(self) -> Class {
        match self {
            Route::Ingest(_) => Class::Ingest,
            Route::Epoch => Class::Epoch,
            Route::Checkpoint => Class::Admin,
            Route::Score(_) | Route::RaterTrust(_) => Class::Read,
            Route::Suspicious | Route::TrustTable => Class::Scan,
        }
    }
}

/// One request, rendered to the exact bytes sent in a single write.
pub struct Request {
    /// What it does.
    pub route: Route,
    /// Request line, headers and body.
    pub bytes: Vec<u8>,
}

fn render(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut bytes = if method == "GET" {
        format!("{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n").into_bytes()
    } else {
        format!(
            "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes()
    };
    bytes.extend_from_slice(body);
    bytes
}

impl Request {
    /// Renders one request.
    pub fn new(route: Route, ratings: &[RatingSubmission]) -> Request {
        let bytes = match route {
            Route::Ingest(_) => {
                let mut body = String::new();
                for s in ratings {
                    body.push_str(&s.to_jsonl());
                    body.push('\n');
                }
                render("POST", "/ratings", body.as_bytes())
            }
            Route::Epoch => render("POST", "/epochs", b""),
            Route::Checkpoint => render("POST", "/checkpoint", b""),
            Route::Score(p) => render("GET", &format!("/products/{}/score", p.value()), b""),
            Route::RaterTrust(r) => render("GET", &format!("/raters/{}/trust", r.value()), b""),
            Route::Suspicious => render("GET", "/suspicious", b""),
            Route::TrustTable => render("GET", "/trust", b""),
        };
        Request { route, bytes }
    }
}

/// A workload's full request sequence.
pub struct Plan {
    /// Setup requests sent before the checkpoint (preload).
    pub preload: Vec<Request>,
    /// Setup requests sent after the checkpoint, before the crash.
    pub suffix: Vec<Request>,
    /// The timed phase.
    pub timed: Vec<Request>,
}

/// Walks the stream in order, emitting batches and the epochs that
/// close each period once all of its ratings are in.
struct Cursor<'a> {
    ratings: &'a [RatingSubmission],
    next: usize,
    epochs: u64,
    period: f64,
    seen_products: BTreeSet<ProductId>,
    seen_raters: BTreeSet<RaterId>,
}

impl<'a> Cursor<'a> {
    fn boundary(&self) -> f64 {
        (self.epochs + 1) as f64 * self.period
    }

    /// Closes every period that ends at or before `day`.
    fn close_periods(&mut self, day: f64, out: &mut Vec<Request>) {
        while self.boundary() <= day {
            out.push(Request::new(Route::Epoch, &[]));
            self.epochs += 1;
        }
    }

    /// Takes at most `limit` ratings (unbounded if `None`) dated before
    /// `stop` as one batch.
    fn take(&mut self, stop: f64, limit: Option<usize>) -> Option<Request> {
        let start = self.next;
        while self.next < self.ratings.len()
            && self.ratings[self.next].day.as_days() < stop
            && limit.is_none_or(|n| self.next - start < n)
        {
            let s = self.ratings[self.next];
            self.seen_products.insert(s.product);
            self.seen_raters.insert(s.rater);
            self.next += 1;
        }
        let batch = &self.ratings[start..self.next];
        (!batch.is_empty()).then(|| Request::new(Route::Ingest(batch.len()), batch))
    }

    /// Closes any finished period, then emits one batch from the current
    /// period, ending before `until`. Returns whether a batch was emitted.
    fn batch(&mut self, limit: Option<usize>, until: f64, out: &mut Vec<Request>) -> bool {
        if let Some(s) = self.ratings.get(self.next) {
            self.close_periods(s.day.as_days().min(until), out);
        }
        match self.take(self.boundary().min(until), limit) {
            Some(request) => {
                out.push(request);
                true
            }
            None => false,
        }
    }

    fn done(&self, until: f64) -> bool {
        self.ratings
            .get(self.next)
            .is_none_or(|s| s.day.as_days() >= until)
    }
}

/// Builds a workload's plan from its stream and seed.
pub fn build(workload: &Workload, stream: &Stream, seed: u64) -> Plan {
    let mut cursor = Cursor {
        ratings: &stream.ratings,
        next: 0,
        epochs: 0,
        period: workload.period_days,
        seen_products: BTreeSet::new(),
        seen_raters: BTreeSet::new(),
    };
    let mut preload = Vec::new();
    while !cursor.done(workload.preload_days) {
        cursor.batch(None, workload.preload_days, &mut preload);
    }
    cursor.close_periods(workload.preload_days, &mut preload);
    preload.push(Request::new(Route::Checkpoint, &[]));

    // Ratings only: the epochs the suffix completes belong to the timed
    // phase, so recovery replays ratings past the checkpoint and no epoch.
    let suffix_end = workload.preload_days + workload.suffix_days;
    let suffix: Vec<Request> = cursor.take(suffix_end, None).into_iter().collect();

    let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(seed, 0x5e_7e));
    let mut timed = Vec::new();
    let mut rounds = 0usize;
    while !cursor.done(workload.end_day) {
        if !cursor.batch(workload.batch, workload.end_day, &mut timed) {
            continue;
        }
        rounds += 1;
        if rounds.is_multiple_of(workload.read_every) {
            for _ in 0..workload.reads {
                timed.push(Request::new(point_read(&mut rng, stream, &cursor), &[]));
            }
        }
        if rounds.is_multiple_of(workload.scan_every) {
            let route = if (rounds / workload.scan_every).is_multiple_of(2) {
                Route::Suspicious
            } else {
                Route::TrustTable
            };
            timed.push(Request::new(route, &[]));
        }
    }
    cursor.close_periods(workload.end_day, &mut timed);
    Plan {
        preload,
        suffix,
        timed,
    }
}

/// A point read, skewed toward attacked targets and attacker raters: half
/// of them hit the hot set, the rest are uniform over everything posted.
fn point_read(rng: &mut Xoshiro256pp, stream: &Stream, cursor: &Cursor<'_>) -> Route {
    let hot = rng.gen_bool(0.5);
    if rng.gen_bool(0.5) {
        let targets: Vec<ProductId> = stream
            .targets
            .iter()
            .copied()
            .filter(|p| cursor.seen_products.contains(p))
            .collect();
        let product = if hot && !targets.is_empty() {
            targets[rng.gen_range(0..targets.len())]
        } else {
            pick(rng, &cursor.seen_products)
        };
        Route::Score(product)
    } else {
        let rater = if hot {
            stream.attackers[rng.gen_range(0..stream.attackers.len())]
        } else {
            pick(rng, &cursor.seen_raters)
        };
        Route::RaterTrust(rater)
    }
}

fn pick<T: Copy>(rng: &mut Xoshiro256pp, set: &BTreeSet<T>) -> T {
    let index = rng.gen_range(0..set.len());
    *set.iter().nth(index).expect("index is within the set")
}
