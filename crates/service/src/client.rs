//! The client library: a blocking connection speaking the
//! newline-delimited JSON protocol, with typed helpers for every
//! operation. The `cqchase request` CLI subcommand and the load
//! generator (`e15_service`) are both built on this.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use serde_json::Value;

use crate::proto::{FactSpec, Request};

/// Ways a client call can fail.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server's line did not parse as JSON.
    Protocol(String),
    /// The server answered `{"ok":false,…}`; carries the message.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One connection to a `cqchase-service` server. Requests are strictly
/// serial per connection (the protocol is request/response in order);
/// open several clients for concurrency.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Sends one raw protocol line and returns the raw response line.
    pub fn request_line(&mut self, line: &str) -> Result<String, ClientError> {
        debug_assert!(!line.contains('\n'), "one request per line");
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                return Ok(line);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(ClientError::Protocol(
                        "connection closed before a response arrived".into(),
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// Sends a request value; returns the decoded response object
    /// (which may be `{"ok":false,…}` — see [`Client::expect_ok`]).
    pub fn request_value(&mut self, v: &Value) -> Result<Value, ClientError> {
        let line = self.request_line(&v.to_string())?;
        serde_json::from_str(&line).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Sends a typed request.
    pub fn request(&mut self, req: &Request) -> Result<Value, ClientError> {
        self.request_value(&req.to_value())
    }

    /// Turns an `ok:false` response into [`ClientError::Server`].
    pub fn expect_ok(v: Value) -> Result<Value, ClientError> {
        if v["ok"] == true {
            Ok(v)
        } else {
            let msg = v["error"].as_str().unwrap_or("unknown server error");
            Err(ClientError::Server(msg.to_owned()))
        }
    }

    fn checked(&mut self, req: &Request) -> Result<Value, ClientError> {
        let v = self.request(req)?;
        Self::expect_ok(v)
    }

    /// Registers a session from program text. Session names are unique:
    /// registering a taken name is a server error (use
    /// [`Client::update`] to mutate a live session's facts).
    pub fn register(&mut self, session: &str, program: &str) -> Result<Value, ClientError> {
        self.checked(&Request::Register {
            session: session.into(),
            program: program.into(),
        })
    }

    /// Applies fact deltas to a registered session (deletes run before
    /// inserts; both are idempotent). To attach a deadline, send
    /// [`Request::Update`] with `deadline_ms` through [`Client::request`].
    pub fn update(
        &mut self,
        session: &str,
        insert: &[FactSpec],
        delete: &[FactSpec],
    ) -> Result<Value, ClientError> {
        self.checked(&Request::Update {
            session: session.into(),
            insert: insert.to_vec(),
            delete: delete.to_vec(),
            deadline_ms: None,
        })
    }

    /// Tests `Σ ⊨ q ⊆∞ q_prime` between two registered queries.
    pub fn check(&mut self, session: &str, q: &str, q_prime: &str) -> Result<Value, ClientError> {
        self.checked(&Request::Check {
            session: session.into(),
            q: q.into(),
            q_prime: q_prime.into(),
            deadline_ms: None,
        })
    }

    /// Evaluates a registered query over the session's facts.
    pub fn eval(&mut self, session: &str, query: &str) -> Result<Value, ClientError> {
        self.checked(&Request::Eval {
            session: session.into(),
            query: query.into(),
            deadline_ms: None,
        })
    }

    /// The session's Σ classification.
    pub fn classify(&mut self, session: &str) -> Result<Value, ClientError> {
        self.checked(&Request::Classify {
            session: session.into(),
        })
    }

    /// Server metrics snapshot.
    pub fn stats(&mut self) -> Result<Value, ClientError> {
        self.checked(&Request::Stats)
    }

    /// The Prometheus-style metrics exposition (the full response; the
    /// text body is under `"text"` — see [`Client::metrics_text`]).
    pub fn metrics(&mut self) -> Result<Value, ClientError> {
        self.checked(&Request::Metrics)
    }

    /// The Prometheus-style metrics exposition as plain text.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        let v = self.metrics()?;
        Ok(v["text"].as_str().unwrap_or_default().to_string())
    }

    /// Forces a snapshot of every session to the server's data
    /// directory (errors when the server runs without one).
    pub fn persist(&mut self) -> Result<Value, ClientError> {
        self.checked(&Request::Persist)
    }

    /// Health/readiness probe: uptime, lane count, shedding state, and
    /// the recovery summary. Answered inline by the server — never
    /// queued behind the admission lanes, never shed — so it stays
    /// responsive while the server is saturated.
    pub fn ping(&mut self) -> Result<Value, ClientError> {
        self.checked(&Request::Ping)
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<Value, ClientError> {
        self.checked(&Request::Shutdown)
    }

    /// Sends a typed request under a [`RetryPolicy`]: load-shed
    /// refusals (`ok:false` carrying a `retry_after_ms` hint) are
    /// retried with exponential backoff and jitter, sleeping at least
    /// the server's hint. Every other response — success, hard error,
    /// deadline — returns immediately; transport errors are not
    /// retried (the connection state is unknown).
    pub fn request_with_retry(
        &mut self,
        req: &Request,
        policy: &mut RetryPolicy,
    ) -> Result<Value, ClientError> {
        let mut attempt = 0u32;
        loop {
            let v = self.request(req)?;
            let hint = (v["ok"] != true)
                .then(|| v["retry_after_ms"].as_u64())
                .flatten();
            let Some(hint_ms) = hint else {
                return Self::expect_ok(v);
            };
            if attempt >= policy.max_retries {
                return Self::expect_ok(v);
            }
            std::thread::sleep(policy.backoff(attempt, hint_ms));
            attempt += 1;
        }
    }
}

/// Bounded exponential backoff with jitter for retrying load-shed
/// refusals. The delay for attempt *n* is
/// `max(hint, base · 2ⁿ)` plus up to 50% random jitter, capped at
/// `max_backoff_ms` — the jitter decorrelates a thundering herd of
/// clients all shed at the same instant.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 disables retrying).
    pub max_retries: u32,
    /// Base delay for the exponential schedule.
    pub base_backoff_ms: u64,
    /// Ceiling on any single delay (applied after jitter).
    pub max_backoff_ms: u64,
    /// xorshift64 state for the jitter (no external RNG dependency).
    rng: u64,
}

impl RetryPolicy {
    /// A policy with the given bounds; `seed` decorrelates the jitter
    /// across client instances (any nonzero value works — 0 is mapped
    /// to a fixed odd constant).
    pub fn new(max_retries: u32, base_backoff_ms: u64, max_backoff_ms: u64, seed: u64) -> Self {
        RetryPolicy {
            max_retries,
            base_backoff_ms,
            max_backoff_ms,
            rng: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64: tiny, seedable, plenty for jitter.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// The sleep before retry number `attempt` (0-based), honoring the
    /// server's `retry_after_ms` hint as a floor.
    pub fn backoff(&mut self, attempt: u32, retry_after_ms: u64) -> std::time::Duration {
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.min(16))
            .max(retry_after_ms);
        let jitter = self.next_rand() % (exp / 2).max(1);
        std::time::Duration::from_millis(exp.saturating_add(jitter).min(self.max_backoff_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_honors_hint_and_caps() {
        let mut p = RetryPolicy::new(5, 10, 500, 42);
        let d0 = p.backoff(0, 0);
        assert!(d0.as_millis() >= 10 && d0.as_millis() < 500 + 1);
        // The server hint floors the schedule.
        let hinted = p.backoff(0, 200);
        assert!(hinted.as_millis() >= 200);
        // Deep attempts saturate at the cap, jitter included.
        let deep = p.backoff(12, 0);
        assert_eq!(deep.as_millis(), 500);
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_varies_across_seeds() {
        let a = RetryPolicy::new(3, 10, 10_000, 1).backoff(3, 0);
        let b = RetryPolicy::new(3, 10, 10_000, 1).backoff(3, 0);
        let c = RetryPolicy::new(3, 10, 10_000, 2).backoff(3, 0);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seeds decorrelate");
    }
}
