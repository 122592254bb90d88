//! `http_churn` and the shared pieces of the HTTP workloads.
//!
//! `http_churn`: `Httpd` serving a few seeded static files, with two
//! client connections open at once. Each operation is one whole
//! connection: connect, GET one file, check the reply, close (the
//! client closes first, so its side parks in TIME_WAIT and is reaped
//! on the virtual clock).
//!
//! Why: the only workload on the connection lifecycle — handshake,
//! flow-table insert and remove, timer-wheel reaping, ukevent
//! registration. The other workloads keep their connections open.

use ukalloc::AllocBackend;
use ukapps::httpd::Httpd;
use uknetstack::stack::SocketHandle;
use uknetstack::tcp::TcpState;

use crate::rng::Rng;
use crate::rpc::fail;
use crate::trace::{Layer, Tracer};
use crate::wire::{server, Abort, OpLog, OpStart, Wire, STALL_NS};

/// HTTP port.
pub const HTTP_PORT: u16 = 80;
/// Files served.
const FILES: usize = 16;
/// Smallest and largest file, bytes.
const MIN_FILE: usize = 256;
const MAX_FILE: usize = 16 << 10;
/// Requests per file in the seeded request order (cycled).
const REQUESTS_PER_FILE: usize = 64;
/// Connections open at once.
const CONNS: usize = 2;

/// The exact reply `Httpd` sends for a body of `len` bytes, minus the
/// body.
pub fn reply_header(len: usize) -> Vec<u8> {
    format!(
        "HTTP/1.1 200 OK\r\nServer: unikraft-rs\r\nContent-Length: {len}\r\nConnection: keep-alive\r\n\r\n"
    )
    .into_bytes()
}

/// A `Httpd` on the server stack, backed by the TLSF allocator.
pub fn httpd(wire: &mut Wire) -> Result<Httpd, Abort> {
    let mut alloc = AllocBackend::Tlsf.instantiate();
    alloc
        .init(1 << 22, 8 << 20)
        .map_err(|e| Abort(format!("allocator init: {e:?}")))?;
    Httpd::new(wire.server(), HTTP_PORT, alloc).map_err(fail("httpd listen"))
}

/// Checks `chunk`, received at offset `at` of a reply, against the
/// expected reply `head ++ body`. False if any byte differs or the
/// chunk runs past the end.
pub fn matches(head: &[u8], body: &[u8], at: usize, chunk: &[u8]) -> bool {
    let end = at + chunk.len();
    if end > head.len() + body.len() {
        return false;
    }
    // Where the header ends inside this chunk (clamped to the chunk).
    let split = head.len().clamp(at, end);
    (split == at || chunk[..split - at] == head[at..split])
        && chunk[split - at..] == body[split - head.len()..end - head.len()]
}

enum Phase {
    /// No connection; the next turn opens one.
    Idle,
    /// Handshake in progress.
    Connecting(SocketHandle, usize, OpStart),
    /// Request sent; `(bytes received, all matched so far)`.
    Receiving(SocketHandle, usize, OpStart, usize, bool),
}

/// The `http_churn` harness.
pub struct HttpChurn {
    /// The two stacks and the wire.
    pub wire: Wire,
    httpd: Httpd,
    /// `(request, expected reply header, body)` per file.
    files: Vec<(Vec<u8>, Vec<u8>, Vec<u8>)>,
    order: Vec<usize>,
    next: usize,
    conns: [Phase; CONNS],
    buf: Vec<u8>,
}

impl HttpChurn {
    /// Generates the seeded files and request order, starts the
    /// server and warms up.
    pub fn setup(seed: u64) -> Result<Self, Abort> {
        let mut rng = Rng::new(seed, 2);
        let sizes = rng.stratified(FILES, |u| {
            MIN_FILE + (u * (MAX_FILE - MIN_FILE + 1) as f64) as usize
        });
        let mut wire = Wire::new(|_| {});
        let mut httpd = httpd(&mut wire)?;
        let mut files = Vec::with_capacity(FILES);
        for (i, &n) in sizes.iter().enumerate() {
            let body = rng.bytes(n);
            let path = format!("/f{i}-{:08x}.bin", rng.next_u64() as u32);
            httpd.add_file(path.clone(), body.clone());
            let req = format!("GET {path} HTTP/1.1\r\nHost: 10.0.0.2\r\n\r\n").into_bytes();
            files.push((req, reply_header(n), body));
        }
        let mut order: Vec<usize> = (0..FILES * REQUESTS_PER_FILE).map(|i| i % FILES).collect();
        rng.shuffle(&mut order);
        let mut h = HttpChurn {
            wire,
            httpd,
            files,
            order,
            next: 0,
            conns: [Phase::Idle, Phase::Idle],
            buf: vec![0; 64 << 10],
        };
        let mut t = crate::trace::Untraced;
        let mut log = OpLog::new(seed, 256);
        log.max_ops = Some(32);
        while !log.finished() {
            h.turn(&mut t, &mut log)?;
        }
        if log.failed > 0 {
            return Err(Abort("warm-up reply mismatch".into()));
        }
        Ok(h)
    }

    fn oldest_op(&self) -> u64 {
        self.conns
            .iter()
            .filter_map(|p| match p {
                Phase::Idle => None,
                Phase::Connecting(_, _, s) | Phase::Receiving(_, _, s, _, _) => Some(s.id),
            })
            .min()
            .unwrap_or(0)
    }

    /// One event-loop turn: each client connection advances, the
    /// server polls once, the wire steps once.
    pub fn turn<T: Tracer>(&mut self, t: &mut T, log: &mut OpLog) -> Result<(), Abort> {
        let now = self.wire.now_ns();
        for c in 0..CONNS {
            self.drive(c, t, log, now)?;
        }
        let op = self.oldest_op();
        let (httpd, stack) = (&mut self.httpd, self.wire.net.stack(self.wire.si));
        t.span(Layer::HttpdPoll, op, || httpd.poll(stack));
        self.wire.step(t, op);
        Ok(())
    }

    fn drive<T: Tracer>(
        &mut self,
        c: usize,
        t: &mut T,
        log: &mut OpLog,
        now: u64,
    ) -> Result<(), Abort> {
        let stack = self.wire.net.stack(self.wire.ci);
        let phase = std::mem::replace(&mut self.conns[c], Phase::Idle);
        self.conns[c] = match phase {
            Phase::Idle if log.finished() => Phase::Idle,
            Phase::Idle => {
                let file = self.order[self.next];
                self.next = (self.next + 1) % self.order.len();
                let start = t.span(Layer::Client, 0, || log.begin(now));
                let sock = t
                    .span(Layer::Connect, start.id, || {
                        stack.tcp_connect(server(HTTP_PORT))
                    })
                    .map_err(fail("connect"))?;
                Phase::Connecting(sock, file, start)
            }
            Phase::Connecting(sock, file, start) => match stack.tcp_state(sock) {
                Some(TcpState::Established) => {
                    let req = &self.files[file].0;
                    let n = t
                        .span(Layer::Send, start.id, || stack.tcp_send(sock, req))
                        .map_err(fail("send request"))?;
                    if n != req.len() {
                        return Err(Abort(format!("request send accepted {n} of {}", req.len())));
                    }
                    Phase::Receiving(sock, file, start, 0, true)
                }
                Some(TcpState::SynSent) if now - start.virt_ns <= STALL_NS => {
                    Phase::Connecting(sock, file, start)
                }
                s => return Err(Abort(format!("op {} connect ended in {s:?}", start.id))),
            },
            Phase::Receiving(sock, file, start, mut got, mut ok) => {
                let (_, head, body) = &self.files[file];
                let want = head.len() + body.len();
                let buf = &mut self.buf;
                loop {
                    let n = t
                        .span(Layer::Recv, start.id, || stack.tcp_recv_into(sock, buf))
                        .map_err(fail("recv reply"))?;
                    if n == 0 {
                        break;
                    }
                    log.tamper(start.id, &mut buf[..n]);
                    ok &= t.span(Layer::Client, start.id, || {
                        matches(head, body, got, &buf[..n])
                    });
                    got += n;
                }
                if got >= want {
                    t.span(Layer::Close, start.id, || stack.tcp_close(sock))
                        .map_err(fail("close"))?;
                    t.span(Layer::Client, start.id, || {
                        log.finish(&start, now, body.len() as u64, ok && got == want)
                    });
                    Phase::Idle
                } else if stack.tcp_state(sock) != Some(TcpState::Established) {
                    return Err(Abort(format!("op {} connection lost mid-reply", start.id)));
                } else if now - start.virt_ns > STALL_NS {
                    return Err(Abort(format!("op {} stalled", start.id)));
                } else {
                    Phase::Receiving(sock, file, start, got, ok)
                }
            }
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_checked_byte_for_byte_across_the_header_boundary() {
        let (head, body) = (b"HEAD".as_slice(), b"body".as_slice());
        assert!(matches(head, body, 0, b"HEADbody"));
        assert!(matches(head, body, 2, b"ADbo"));
        assert!(matches(head, body, 5, b"ody"));
        assert!(!matches(head, body, 2, b"AXbo"));
        assert!(!matches(head, body, 6, b"dyX"), "bytes past the end");
    }
}
