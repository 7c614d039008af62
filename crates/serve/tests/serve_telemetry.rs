//! A live server's telemetry stays bounded.
//!
//! `rrs serve` runs at [`rrs_serve::COLLECTION`]: metrics only. Nothing
//! in a server drains the span or decision sinks, so if they recorded,
//! every epoch would leave thousands of spans behind for the life of the
//! process. This test applies the server's level, drives a `Server`
//! through submissions and epochs, and checks that those sinks stay
//! empty while `/metrics` keeps reporting. It lives in its own test
//! binary because the collection level and the sinks are process-wide.

use rrs_serve::{Engine, EngineConfig, Server};
use std::io::{Cursor, Read, Write};
use std::path::PathBuf;

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

fn exchange(server: &mut Server, request: &str) -> String {
    let mut stream = MemStream {
        input: Cursor::new(request.as_bytes().to_vec()),
        output: Vec::new(),
    };
    server.handle(&mut stream);
    let response = String::from_utf8(stream.output).expect("UTF-8 response");
    assert!(response.starts_with("HTTP/1.1 200 "), "got {response}");
    response
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clean scratch dir");
    }
    dir
}

/// Six 10-day epochs of 40 ratings over three products, with a low burst
/// on product 0 in the fourth; each epoch is followed by a score read.
fn drive(server: &mut Server) {
    for epoch in 0..6u32 {
        let mut body = String::new();
        for i in 0..40u32 {
            let day = f64::from(epoch) * 10.0 + f64::from(i) / 4.0;
            let (product, value) = if epoch == 3 && i % 2 == 0 {
                (0, 0.5)
            } else {
                (i % 3, 4.0 + f64::from(i % 5) * 0.2)
            };
            body.push_str(&format!(
                "{{\"rater\":{},\"product\":{product},\"day\":{day},\"value\":{value}}}\n",
                i + 100 * (epoch % 2)
            ));
        }
        exchange(
            server,
            &format!(
                "POST /ratings HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        exchange(server, "POST /epochs HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        exchange(server, "GET /products/0/score HTTP/1.1\r\n\r\n");
    }
}

/// The exposition line of one series, if present.
fn series_line<'a>(metrics: &'a str, name: &str) -> Option<&'a str> {
    metrics
        .lines()
        .find(|line| line.strip_prefix(name).is_some_and(|v| v.starts_with(' ')))
}

#[test]
fn a_served_run_records_metrics_but_no_spans_or_decisions() {
    let _guard = rrs_obs::trace::tests_lock();
    rrs_obs::reset();
    rrs_obs::set_collection(rrs_serve::COLLECTION);

    let dir = scratch("serve-telemetry");
    let engine = Engine::open(&dir, EngineConfig::paper(10.0)).expect("open");
    let mut server = Server::new(engine);
    drive(&mut server);
    let metrics = exchange(&mut server, "GET /metrics HTTP/1.1\r\n\r\n");
    let marked = server.engine().suspicious().len();

    let spans = rrs_obs::trace::drain_spans();
    let decisions = rrs_obs::decision::drain();
    let dumps = rrs_obs::recorder::dump_count();
    rrs_obs::reset();
    rrs_obs::disable();
    std::fs::remove_dir_all(&dir).expect("cleanup");

    assert_eq!(server.engine().epochs(), 6);
    assert!(spans.is_empty(), "{} spans recorded", spans.len());
    assert!(decisions.is_empty(), "{} decision records", decisions.len());
    assert_eq!(dumps, 0, "the flight recorder dumped");
    assert!(metrics.contains("\ntrust_epochs 6\n"), "got {metrics}");
    assert!(metrics.contains("# TYPE detect_marked_per_product summary\n"));
    // The engine steps the P-scheme's own epoch, so it reports the
    // scheme's series too.
    assert_eq!(
        series_line(&metrics, "scheme_suspicious_set_size"),
        Some(format!("scheme_suspicious_set_size {marked}").as_str()),
        "got {metrics}"
    );
}

#[test]
fn a_restarted_server_reports_the_trust_gauges_before_its_next_epoch() {
    let _guard = rrs_obs::trace::tests_lock();
    rrs_obs::reset();
    rrs_obs::set_collection(rrs_serve::COLLECTION);

    let dir = scratch("serve-telemetry-restart");
    let config = EngineConfig::paper(10.0);
    let mut server = Server::new(Engine::open(&dir, config).expect("open"));
    drive(&mut server);
    exchange(
        &mut server,
        "POST /checkpoint HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    );
    let uninterrupted = exchange(&mut server, "GET /metrics HTTP/1.1\r\n\r\n");
    drop(server);

    // A new process: empty registry, state from the checkpoint, and no
    // epoch replayed, because none followed the checkpoint.
    rrs_obs::reset();
    let mut restarted = Server::new(Engine::open(&dir, config).expect("reopen"));
    assert_eq!(restarted.engine().epochs(), 6);
    let metrics = exchange(&mut restarted, "GET /metrics HTTP/1.1\r\n\r\n");
    rrs_obs::reset();
    rrs_obs::disable();
    std::fs::remove_dir_all(&dir).expect("cleanup");

    for gauge in ["trust_mass_total", "trust_raters_tracked"] {
        let before = series_line(&uninterrupted, gauge);
        assert!(before.is_some(), "{gauge} missing before the restart");
        assert_eq!(
            series_line(&metrics, gauge),
            before,
            "{gauge} after the restart"
        );
    }
}
