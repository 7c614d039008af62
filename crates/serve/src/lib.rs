//! # rrs-serve — the serving front end
//!
//! A zero-dependency HTTP/1.1 service over the rating engine: validated
//! rating submission, live trust/suspicion/score queries, health and
//! Prometheus metrics endpoints — backed by a durable write-ahead log
//! and atomic checkpoint/restore, so a crash at any instant loses
//! nothing that was acknowledged.
//!
//! The crate is layered bottom-up:
//!
//! * [`http`] — a strict, bounded HTTP/1.1 parser and response writer.
//!   Everything it accepts is exactly the subset the service speaks;
//!   everything else is a specific 4xx/5xx, never a guess or a panic.
//! * [`dto`] — validated submission objects. Every field goes through
//!   the same fixed parsers CSV ingest uses, so ids can never be
//!   truncated or wrapped into another rater's identity at this door.
//! * [`wal`] — the append-only JSONL write-ahead log (fsync-on-batch,
//!   torn-tail tolerant, corruption refusing).
//! * [`checkpoint`] — atomic bit-exact snapshots of what the WAL cannot
//!   rebuild: the trust table and the suspicion set.
//! * [`engine`] — the durable P-scheme epoch loop: WAL append before
//!   memory mutation, recovery = checkpoint + WAL-suffix replay,
//!   bit-identical to an uninterrupted run at any thread count.
//! * [`server`] — routing and the serial TCP accept loop.
//!
//! The binary entry point is `rrs serve` in the CLI crate; the smoke
//! script in `verify.sh` SIGKILLs a live server mid-ingest and proves
//! the recovered trust table byte-matches an uninterrupted run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod dto;
pub mod engine;
pub mod http;
pub mod server;
pub mod wal;

pub use checkpoint::Checkpoint;
pub use dto::{parse_submission, parse_submission_body, RatingSubmission};
pub use engine::{Engine, EngineConfig, ProductScore, SuspiciousRating, TrustView};
pub use http::{HttpError, Method, Request, Response};
pub use server::{ConnectionOutcome, Server, ServerConfig, COLLECTION};
pub use wal::{WalEvent, WalWriter};
