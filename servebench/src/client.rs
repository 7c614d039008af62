//! The server process and the closed-loop HTTP client.
//!
//! The client keeps stock socket options (no `TCP_NODELAY`, no quick-ACK)
//! and sends each request with one write, so any transfer stall it
//! measures belongs to the server.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest wait for a spawned server to answer `/healthz`.
const START_TIMEOUT: Duration = Duration::from_secs(60);
/// Longest wait for any one response.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `rrs serve` child; killed and reaped on drop.
pub struct Server {
    child: Child,
    /// The bound address.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `rrs serve` on `dir` and waits until `/healthz` answers.
    /// Returns the server and the time from spawn to the answer's first
    /// byte; the rest of a small answer can stall on the transfer floor,
    /// which the timed phase measures as `http.tail_ms`.
    pub fn start(
        binary: &Path,
        dir: &Path,
        period_days: f64,
    ) -> Result<(Server, Duration), String> {
        let addr_file = dir.with_extension("addr");
        let _ = std::fs::remove_file(&addr_file);
        let log = std::fs::File::create(dir.with_extension("log"))
            .map_err(|e| format!("cannot create server log: {e}"))?;
        let started = Instant::now();
        let child = Command::new(binary)
            .arg("serve")
            .arg("--dir")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0", "--addr-file"])
            .arg(&addr_file)
            .args(["--period", &period_days.to_string(), "--quiet"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Ok(addr) = text.trim().parse() {
                    server.addr = addr;
                    break;
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited during start-up: {status}"));
            }
            if started.elapsed() > START_TIMEOUT {
                return Err("server did not advertise its address".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let mut conn = Conn::open(server.addr)?;
        let asked = started.elapsed();
        let reply = conn.send(b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")?;
        if reply.status != 200 {
            return Err(format!("/healthz answered {}", reply.status));
        }
        Ok((server, asked + reply.ttfb))
    }

    /// Resident and peak resident memory, in MB, from `/proc/<pid>/status`.
    pub fn memory_mb(&self) -> Result<(f64, f64), String> {
        let path = PathBuf::from(format!("/proc/{}/status", self.child.id()));
        let status = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let field = |name: &str| -> Result<f64, String> {
            status
                .lines()
                .find_map(|l| l.strip_prefix(name))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
                .map(|kb| kb / 1024.0)
                .ok_or_else(|| format!("{name} missing from {}", path.display()))
        };
        Ok((field("VmRSS:")?, field("VmHWM:")?))
    }

    /// SIGKILLs the server and waits for it to exit.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One answered request.
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Request written → first response byte.
    pub ttfb: Duration,
    /// Request written → last response byte.
    pub total: Duration,
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with stock socket options.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("set read timeout: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Sends one request (a single write) and reads its whole response.
    pub fn send(&mut self, request: &[u8]) -> Result<Reply, String> {
        self.buf.clear();
        let sent = Instant::now();
        self.stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;
        let mut first_byte = None;
        let mut chunk = [0u8; 64 * 1024];
        let (head_len, body_len, status) = loop {
            let n = self.read(&mut chunk)?;
            first_byte.get_or_insert_with(Instant::now);
            self.buf.extend_from_slice(&chunk[..n]);
            if let Some(end) = find(&self.buf, b"\r\n\r\n") {
                let (status, length) = parse_head(&self.buf[..end])?;
                break (end + 4, length, status);
            }
        };
        while self.buf.len() < head_len + body_len {
            let n = self.read(&mut chunk)?;
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let total = sent.elapsed();
        if self.buf.len() != head_len + body_len {
            return Err("response carried trailing bytes".to_string());
        }
        Ok(Reply {
            status,
            body: self.buf[head_len..].to_vec(),
            ttfb: first_byte.map_or(total, |t| t - sent),
            total,
        })
    }

    fn read(&mut self, chunk: &mut [u8]) -> Result<usize, String> {
        match self.stream.read(chunk) {
            Ok(0) => Err("connection closed mid-response".to_string()),
            Ok(n) => Ok(n),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Status code and `Content-Length` of a response head.
fn parse_head(head: &[u8]) -> Result<(u16, usize), String> {
    let text = std::str::from_utf8(head).map_err(|_| "non-UTF-8 response head".to_string())?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .and_then(|l| l.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| format!("bad status line in {text:?}"))?;
    let length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, value)| value.trim().parse().ok())
        .ok_or_else(|| format!("no content-length in {text:?}"))?;
    Ok((status, length))
}
