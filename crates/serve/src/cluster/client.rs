//! The router's pooled HTTP/1.1 client for one replica.
//!
//! Plain `std::net`, like everything else in this workspace: each call
//! prefers a parked kept-alive connection (the shard answered
//! `Connection: keep-alive`, so the stream is positioned at the next
//! request), falling back to a fresh connect. A parked connection can
//! have gone stale — the shard's idle read timeout closes it, or the
//! process died — so a pooled-connection failure is retried once on a
//! fresh socket before the error propagates. That retry is *not*
//! failover: failover across replicas is the [`super::Cluster`]'s job.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::protocol::client::{read_response_framed, send_keep_alive, FullResponse};

/// Parked kept-alive connections retained per replica. Kept small on
/// purpose: an idle kept-alive connection pins one of the shard's
/// workers until its read timeout, so hoarding them starves the shard.
const MAX_IDLE: usize = 2;

/// Read/connect budget when the request carries no deadline. Also the
/// hedged read path's overall race deadline when none is supplied.
pub(crate) const DEFAULT_CALL_BUDGET: Duration = Duration::from_secs(5);

/// A [`Read`] adapter that anchors every read to one absolute deadline,
/// re-arming the socket's read timeout with the *remaining* time before
/// each syscall. A plain `set_read_timeout` resets on every byte, so a
/// peer dripping one byte per timeout window (a throttled or slow-loris
/// replica) could hold a "bounded" call forever; through this wrapper
/// the call returns `TimedOut` once the wall-clock deadline passes, no
/// matter how the bytes arrive.
#[derive(Debug)]
struct DeadlineStream<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "deadline expired"));
        }
        self.stream.set_read_timeout(Some(left))?;
        match self.stream.read(buf) {
            // Map the timeout kinds (platform-dependent) onto TimedOut
            // so callers see one error for "the deadline passed".
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                Err(io::Error::new(io::ErrorKind::TimedOut, "deadline expired"))
            }
            other => other,
        }
    }
}

/// A blocking, connection-pooling client for a single replica address.
#[derive(Debug)]
pub struct ReplicaClient {
    addr: SocketAddr,
    idle: Mutex<Vec<TcpStream>>,
}

impl ReplicaClient {
    /// A client with an empty pool.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The replica this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Time left until `deadline` (a default budget when there is
    /// none); an already-expired deadline fails without touching the
    /// network.
    fn remaining(deadline: Option<Instant>) -> io::Result<Duration> {
        match deadline {
            None => Ok(DEFAULT_CALL_BUDGET),
            Some(d) => {
                let now = Instant::now();
                if now >= d {
                    Err(io::Error::new(io::ErrorKind::TimedOut, "deadline expired"))
                } else {
                    Ok((d - now).max(Duration::from_millis(1)))
                }
            }
        }
    }

    /// Issue `method path` with `body`, returning `(status, body)`.
    /// The remaining deadline bounds connect and read; responses the
    /// shard kept alive park the connection for the next call.
    pub fn call(
        &self,
        method: &str,
        path: &str,
        body: &str,
        deadline: Option<Instant>,
    ) -> io::Result<(u16, String)> {
        // Take the parked connection in its own statement: an `if let`
        // on `lock().pop()` would hold the pool guard for the whole
        // block, and `park` below re-locks the (non-reentrant) pool.
        let parked = self.idle.lock().pop();
        if let Some(mut stream) = parked {
            // A parked connection may have died since it was parked;
            // treat any failure as staleness and retry on a fresh
            // socket below.
            if let Ok(resp) = self.roundtrip(&mut stream, method, path, body, deadline) {
                self.park(stream, &resp);
                return Ok((resp.0, resp.2));
            }
        }
        let mut stream = TcpStream::connect_timeout(&self.addr, Self::remaining(deadline)?)?;
        // Internal hops are request/response ping-pong; Nagle only adds
        // latency here.
        stream.set_nodelay(true)?;
        let resp = self.roundtrip(&mut stream, method, path, body, deadline)?;
        self.park(stream, &resp);
        Ok((resp.0, resp.2))
    }

    fn roundtrip(
        &self,
        stream: &mut TcpStream,
        method: &str,
        path: &str,
        body: &str,
        deadline: Option<Instant>,
    ) -> io::Result<FullResponse> {
        let budget = Self::remaining(deadline)?;
        stream.set_read_timeout(Some(budget))?;
        send_keep_alive(stream, method, path, body)?;
        // Anchor the read to an absolute instant: the per-socket timeout
        // alone restarts on every received byte.
        let mut reader = DeadlineStream {
            stream,
            deadline: deadline.unwrap_or_else(|| Instant::now() + budget),
        };
        read_response_framed(&mut reader)
    }

    /// Park the connection for reuse if the server agreed to keep it.
    fn park(&self, stream: TcpStream, resp: &FullResponse) {
        let kept = resp
            .1
            .iter()
            .any(|(n, v)| n.eq_ignore_ascii_case("connection") && v.eq_ignore_ascii_case("keep-alive"));
        if kept {
            let mut idle = self.idle.lock();
            if idle.len() < MAX_IDLE {
                idle.push(stream);
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn remaining_respects_deadlines() {
        assert_eq!(ReplicaClient::remaining(None).unwrap(), DEFAULT_CALL_BUDGET);
        let soon = Instant::now() + Duration::from_secs(1);
        let left = ReplicaClient::remaining(Some(soon)).unwrap();
        assert!(left <= Duration::from_secs(1));
        assert!(left >= Duration::from_millis(1));
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(
            ReplicaClient::remaining(Some(past)).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
    }

    #[test]
    fn pooled_connection_is_reused_without_deadlock() {
        // A one-connection server: if the client opened a second socket
        // for the second call, that call would fail — so passing proves
        // the parked connection was popped, reused, and re-parked.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            for _ in 0..2 {
                let req = crate::protocol::read_request(&mut s, 1 << 20).unwrap();
                assert!(req.keep_alive, "client asks to keep the connection");
                crate::protocol::write_response_conn(&mut s, 200, &[], "{}", true).unwrap();
            }
        });
        let client = ReplicaClient::new(addr);
        let deadline = Instant::now() + Duration::from_secs(5);
        let (status, _) = client.call("GET", "/v1/healthz", "", Some(deadline)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(client.idle.lock().len(), 1, "kept-alive response parked");
        // The reuse path once self-deadlocked re-locking the pool.
        let (status, _) = client.call("GET", "/v1/healthz", "", Some(deadline)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(client.idle.lock().len(), 1, "re-parked after reuse");
        server.join().unwrap();
    }

    #[test]
    fn connect_failure_surfaces_as_io_error() {
        // A port nothing listens on: the call must fail, not hang.
        let client = ReplicaClient::new("127.0.0.1:1".parse().unwrap());
        let deadline = Instant::now() + Duration::from_millis(200);
        assert!(client.call("GET", "/v1/healthz", "", Some(deadline)).is_err());
    }
}
