//! The load generator: keep-alive connections, the open-loop schedule
//! and the open- and closed-loop phases.
//!
//! An open loop sends request `i` at its due time `start + i / rate`
//! whatever happened to earlier requests, so a stall shows up as latency
//! on every request due during it: latency is measured from the due
//! time, not from when the request finally left. The connection pool is
//! small (the host has two cores), so a request whose due time finds
//! every connection busy leaves late; that lateness is recorded per
//! request and is the check that the generator itself kept up.
//!
//! A closed loop sends a connection's next request only once the
//! previous answer arrived, so it measures capacity at the pool's
//! concurrency.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use newslink_serve::client;

/// Reconnect before reusing a connection idle this long: the server's
/// read timeout closes idle keep-alive connections after five seconds.
const IDLE_RECONNECT: Duration = Duration::from_secs(2);

/// One keep-alive client connection.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    last_used: Instant,
}

impl Conn {
    /// A connection to `addr`, opened on first use.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            last_used: Instant::now(),
        }
    }

    /// Send one request and read its answer as `(status, body)`. An I/O
    /// error drops the connection; the next call reconnects.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        if self.stream.is_none() || self.last_used.elapsed() > IDLE_RECONNECT {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let result = client::send_keep_alive(stream, method, path, body)
            .and_then(|()| client::read_response_framed(stream));
        self.last_used = Instant::now();
        match result {
            Ok((status, headers, body)) => {
                let closing = headers.iter().any(|(name, value)| {
                    name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close")
                });
                if closing {
                    self.stream = None;
                }
                Ok((status, body))
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// The open-loop schedule: slot `i` is due `i / rate` seconds after the
/// phase starts, and a phase of `duration` holds the slots due before it
/// ends.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    interval_ns: u64,
    slots: usize,
}

impl Schedule {
    /// `rate` requests per second for `duration`.
    pub fn new(rate: f64, duration: Duration) -> Self {
        assert!(rate > 0.0, "open-loop rate must be positive");
        let interval_ns = (1e9 / rate).round().max(1.0) as u64;
        let slots = (duration.as_nanos() as u64).div_ceil(interval_ns) as usize;
        Self { interval_ns, slots }
    }

    /// Number of requests the phase sends.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Offset of slot `i`'s due time from the phase start.
    pub fn due(&self, i: usize) -> Duration {
        Duration::from_nanos(self.interval_ns * i as u64)
    }
}

/// How one request fared. Offsets are from the phase start.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Position in the workload's request stream.
    pub seq: usize,
    /// When the request was due (open loop) or sent (closed loop).
    pub due: Duration,
    /// When it left the client.
    pub sent: Duration,
    /// When its answer arrived.
    pub done: Duration,
    /// HTTP status; 0 when the exchange failed at the socket.
    pub status: u16,
    /// What the caller kept from the answer body.
    pub kept: Option<Kept>,
}

impl Sample {
    /// Latency from the due time: includes any wait for a free
    /// connection, so stalls are charged to every request they delay.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the request left relative to its due time.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// The exchange answered 200.
    pub fn ok(&self) -> bool {
        self.status == 200
    }
}

/// What a phase keeps from an answer body: the ranking for the parity
/// check, or an acknowledged document id.
#[derive(Debug, Clone, PartialEq)]
pub enum Kept {
    /// `(doc, score bits)` of every ranked hit, best first.
    Ranking(Vec<(u32, u64)>),
    /// The id an insert was acknowledged under.
    DocId(u32),
}

/// The requests a phase draws from: position `seq` maps to a method,
/// path and body.
pub trait Source: Sync {
    /// The request at stream position `seq`, or `None` past the end.
    fn request(&self, seq: usize) -> Option<(&'static str, &'static str, &str)>;
    /// Keep what the parity check needs from a 200 answer.
    fn keep(&self, body: &str) -> Option<Kept>;
}

/// A phase's samples plus its wall-clock length.
#[derive(Debug)]
pub struct Phase {
    /// When the phase started; sample offsets count from here.
    pub start: Instant,
    /// One entry per request sent, in completion order.
    pub samples: Vec<Sample>,
    /// Wall-clock length of the phase.
    pub elapsed: Duration,
    /// The request stream ran out before the phase ended.
    pub exhausted: bool,
}

impl Phase {
    /// Requests that answered 200.
    pub fn ok(&self) -> usize {
        self.samples.iter().filter(|s| s.ok()).count()
    }

    /// Requests that did not.
    pub fn failed(&self) -> usize {
        self.samples.len() - self.ok()
    }
}

fn exchange(
    conn: &mut Conn,
    source: &dyn Source,
    seq: usize,
    start: Instant,
    due: Duration,
) -> Option<Sample> {
    let (method, path, body) = source.request(seq)?;
    let sent = start.elapsed();
    let (status, kept) = match conn.call(method, path, body) {
        Ok((status, answer)) => (
            status,
            (status == 200).then(|| source.keep(&answer)).flatten(),
        ),
        Err(_) => (0, None),
    };
    Some(Sample {
        seq,
        due,
        sent,
        done: start.elapsed(),
        status,
        kept,
    })
}

/// Send `schedule`'s slots over `conns`, slot `i` carrying stream
/// position `cursor + i`. Each connection takes the next unclaimed slot
/// as soon as it is free and waits for its due time.
pub fn open_loop(
    conns: &mut [Conn],
    source: &dyn Source,
    schedule: Schedule,
    cursor: &AtomicUsize,
) -> Phase {
    let base = cursor.load(Ordering::SeqCst);
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(schedule.slots()));
    let exhausted = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for conn in conns.iter_mut() {
            let (next, samples, exhausted) = (&next, &samples, &exhausted);
            scope.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= schedule.slots() {
                        break;
                    }
                    let due = schedule.due(i);
                    if let Some(wait) = due.checked_sub(start.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    match exchange(conn, source, base + i, start, due) {
                        Some(s) => mine.push(s),
                        None => {
                            exhausted.store(1, Ordering::SeqCst);
                            break;
                        }
                    }
                }
                samples.lock().expect("sample lock poisoned").extend(mine);
            });
        }
    });
    let elapsed = start.elapsed();
    cursor.fetch_add(schedule.slots(), Ordering::SeqCst);
    Phase {
        start,
        samples: samples.into_inner().expect("sample lock poisoned"),
        elapsed,
        exhausted: exhausted.load(Ordering::SeqCst) == 1,
    }
}

/// Keep every connection busy for `duration`, each sending its next
/// request as soon as the previous answer arrives. Stream positions are
/// claimed from `cursor` in send order.
pub fn closed_loop(
    conns: &mut [Conn],
    source: &dyn Source,
    duration: Duration,
    cursor: &AtomicUsize,
) -> Phase {
    let samples = Mutex::new(Vec::new());
    let exhausted = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for conn in conns.iter_mut() {
            let (samples, exhausted) = (&samples, &exhausted);
            scope.spawn(move || {
                let mut mine = Vec::new();
                while start.elapsed() < duration {
                    let seq = cursor.fetch_add(1, Ordering::SeqCst);
                    let due = start.elapsed();
                    match exchange(conn, source, seq, start, due) {
                        Some(s) => mine.push(s),
                        None => {
                            exhausted.store(1, Ordering::SeqCst);
                            break;
                        }
                    }
                }
                samples.lock().expect("sample lock poisoned").extend(mine);
            });
        }
    });
    Phase {
        start,
        samples: samples.into_inner().expect("sample lock poisoned"),
        elapsed: start.elapsed(),
        exhausted: exhausted.load(Ordering::SeqCst) == 1,
    }
}

/// Pull `(doc, score bits)` out of a `SearchResponse` body without a
/// full JSON parse (the client shares the host's two cores with the
/// server, so it stays cheap): the `"results"` array holds flat objects
/// whose `doc` and `score` fields are plain numbers.
pub fn parse_ranking(body: &str) -> Option<Vec<(u32, u64)>> {
    let start = body.find("\"results\":[")? + "\"results\":[".len();
    let list = &body[start..start + body[start..].find(']')?];
    let mut out = Vec::new();
    for item in list.split('}').filter(|s| s.contains('{')) {
        let field = |name: &str| -> Option<&str> {
            let key = format!("\"{name}\":");
            let at = item.find(&key)? + key.len();
            let rest = &item[at..];
            Some(&rest[..rest.find(',').unwrap_or(rest.len())])
        };
        let doc: u32 = field("doc")?.trim().parse().ok()?;
        let score: f64 = field("score")?.trim().parse().ok()?;
        out.push((doc, score.to_bits()));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_due_times_are_exact_multiples() {
        let s = Schedule::new(400.0, Duration::from_secs(2));
        assert_eq!(s.slots(), 800);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(1), Duration::from_micros(2_500));
        assert_eq!(s.due(799), Duration::from_micros(2_500 * 799));
        // A partial interval at the end still gets its slot.
        assert_eq!(Schedule::new(3.0, Duration::from_millis(1_001)).slots(), 4);
    }

    #[test]
    fn latency_counts_from_due_and_lateness_never_negative() {
        let sample = |due: u64, sent: u64, done: u64| Sample {
            seq: 0,
            due: Duration::from_micros(due),
            sent: Duration::from_micros(sent),
            done: Duration::from_micros(done),
            status: 200,
            kept: None,
        };
        // Left 300 µs late behind a busy connection: the wait is latency.
        let late = sample(1_000, 1_300, 1_800);
        assert_eq!(late.lateness(), Duration::from_micros(300));
        assert_eq!(late.latency(), Duration::from_micros(800));
        // Left on time (the generator woke a hair early): no lateness.
        let early = sample(1_000, 990, 1_500);
        assert_eq!(early.lateness(), Duration::ZERO);
        assert_eq!(early.latency(), Duration::from_micros(500));
    }

    #[test]
    fn ranking_parse_keeps_score_bits() {
        let body = r#"{"results":[{"doc":12,"score":0.7310585786300049,"bow":0.5,"bon":1},{"doc":3,"score":1e-7,"bow":0,"bon":0.2}],"embedding":{"groups":[]}}"#;
        let r = parse_ranking(body).unwrap();
        assert_eq!(
            r,
            vec![
                (12, 0.7310585786300049f64.to_bits()),
                (3, 1e-7f64.to_bits())
            ]
        );
        assert_eq!(parse_ranking(r#"{"results":[],"x":1}"#).unwrap(), vec![]);
        assert!(parse_ranking(r#"{"error":{"code":"bad_request"}}"#).is_none());
    }
}
