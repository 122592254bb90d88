//! `blob_clean` and `blob_lossy`: keep-alive `GET /blob/<size>` on one
//! connection, one request at a time, with seeded sizes from 64 KiB to
//! 4 MiB.
//!
//! Why `blob_clean`: the large-transfer offload fast path (TSO,
//! guest-TSO chains, GRO) on a lossless wire; nothing is retransmitted.
//!
//! Why `blob_lossy`: loss recovery. The wire drops every 32nd frame,
//! drops a 4-frame burst every 509th and swaps adjacent frames every
//! 7th; the client turns guest TSO off so the host cuts every
//! super-segment into MSS frames that meet the faults one by one. Flow
//! completion time on the virtual clock then measures how well SACK,
//! RACK-TLP and the RTO recover.

use ukapps::httpd::{blob_byte, Httpd, BLOB_MAX};
use uknetstack::stack::SocketHandle;
use uknetstack::tcp::TcpState;

use crate::http::{httpd, reply_header, HTTP_PORT};
use crate::rng::Rng;
use crate::rpc::fail;
use crate::trace::{Layer, Tracer};
use crate::wire::{server, Abort, OpLog, OpStart, Wire, STALL_NS};

/// Requests per pass. Each pass draws its own stratified sizes, so
/// every pass does statistically the same work, and a pass has more
/// than 200 requests, so its 95th percentile has ten samples beyond it.
pub const REQUESTS: usize = 256;
/// Passes generated per run (cycled). Fresh draws per pass spread the
/// sizes near each percentile, so the percentiles of flow completion
/// time do not jump between round-trip counts from seed to seed.
const PASSES: usize = 64;
/// Smallest blob, bytes (sizes are log-uniform up to [`BLOB_MAX`]).
const MIN_BLOB: usize = 64 << 10;
/// Period of the `blob_byte` pattern.
const PERIOD: usize = 251;
/// Client receive buffer, bytes: the most one check covers.
const RECV_BUF: usize = 64 << 10;

/// One request: where its request and expected reply header lie in
/// [`Blob::text`], and its body length.
struct Req {
    at: usize,
    req_len: usize,
    head_len: usize,
    body_len: usize,
}

/// Checks `chunk`, received at offset `at` of a blob reply, against
/// `head` followed by `len` bytes of the `blob_byte` pattern, of which
/// `pattern` holds one period plus [`RECV_BUF`] bytes.
fn blob_matches(head: &[u8], len: usize, pattern: &[u8], at: usize, chunk: &[u8]) -> bool {
    let (h, b) = chunk.split_at(head.len().saturating_sub(at).min(chunk.len()));
    // Offset of `b` in the body.
    let off = (at + h.len()).saturating_sub(head.len());
    let from = off % PERIOD;
    (h.is_empty() || head.get(at..at + h.len()) == Some(h))
        && off + b.len() <= len
        && pattern.get(from..from + b.len()) == Some(b)
}

/// The `blob_clean` / `blob_lossy` harness.
pub struct Blob {
    /// The two stacks and the wire.
    pub wire: Wire,
    httpd: Httpd,
    conn: SocketHandle,
    /// Every request, each followed by its expected reply header.
    text: Vec<u8>,
    reqs: Vec<Req>,
    /// The expected body bytes (`blob_byte` pattern) from offset 0,
    /// long enough for one check at any phase of the period.
    pattern: Vec<u8>,
    next: usize,
    /// Request in flight: index, start, bytes received, all matched.
    inflight: Option<(usize, OpStart, usize, bool)>,
    buf: Vec<u8>,
}

impl Blob {
    /// Generates the seeded request stream, starts the server, opens
    /// the connection on a clean wire and warms up with the largest
    /// size (so the server's blob source is fully grown), then arms
    /// the fault schedule when `lossy`.
    pub fn setup(seed: u64, lossy: bool) -> Result<Self, Abort> {
        let mut rng = Rng::new(seed, 3);
        let ratio = (BLOB_MAX / MIN_BLOB) as f64;
        let mut sizes = Vec::with_capacity(PASSES * REQUESTS);
        for _ in 0..PASSES {
            sizes.extend(rng.stratified(REQUESTS, |u| {
                ((MIN_BLOB as f64 * ratio.powf(u)) as usize).min(BLOB_MAX)
            }));
        }
        let mut text = Vec::new();
        let reqs: Vec<_> = sizes
            .iter()
            .map(|&n| {
                let at = text.len();
                text.extend_from_slice(format!("GET /blob/{n} HTTP/1.1\r\n\r\n").as_bytes());
                let req_len = text.len() - at;
                text.extend_from_slice(&reply_header(n));
                Req {
                    at,
                    req_len,
                    head_len: text.len() - at - req_len,
                    body_len: n,
                }
            })
            .collect();
        let biggest = (0..sizes.len()).max_by_key(|&i| sizes[i]).unwrap_or(0);
        let pattern: Vec<u8> = (0..PERIOD + RECV_BUF).map(blob_byte).collect();
        let mut wire = Wire::new(|c| c.guest_tso = !lossy);
        let httpd = httpd(&mut wire)?;
        let conn = wire
            .client()
            .tcp_connect(server(HTTP_PORT))
            .map_err(fail("connect"))?;
        let mut h = Blob {
            wire,
            httpd,
            conn,
            text,
            reqs,
            pattern,
            next: 0,
            inflight: None,
            buf: vec![0; RECV_BUF],
        };
        let mut t = crate::trace::Untraced;
        for _ in 0..64 {
            if h.wire.client().tcp_state(conn) == Some(TcpState::Established) {
                break;
            }
            h.httpd.poll(h.wire.net.stack(h.wire.si));
            h.wire.step(&mut t, 0);
        }
        // Warm up with the largest request alone: its size hardly
        // varies with the seed, so neither does the set-up's work.
        let mut log = OpLog::new(seed, 1);
        log.max_ops = Some(1);
        h.next = biggest;
        while !log.finished() {
            h.turn(&mut t, &mut log)?;
        }
        if log.failed > 0 {
            return Err(Abort("warm-up reply mismatch".into()));
        }
        h.next = 0;
        if lossy {
            let net = &mut h.wire.net;
            net.set_drop_every(32);
            net.set_drop_burst(509, 4);
            net.set_reorder_every(7);
        }
        Ok(h)
    }

    /// One event-loop turn: the client reads and checks reply bytes
    /// (or sends the next request), the server polls once, the wire
    /// steps once.
    pub fn turn<T: Tracer>(&mut self, t: &mut T, log: &mut OpLog) -> Result<(), Abort> {
        let now = self.wire.now_ns();
        let stack = self.wire.net.stack(self.wire.ci);
        let sock = self.conn;
        let op = match self.inflight {
            Some((i, start, mut got, mut ok)) => {
                let r = &self.reqs[i];
                let (head, len) = (&self.text[r.at + r.req_len..][..r.head_len], r.body_len);
                let (pattern, buf) = (&self.pattern, &mut self.buf);
                loop {
                    let n = t
                        .span(Layer::Recv, start.id, || stack.tcp_recv_into(sock, buf))
                        .map_err(fail("recv reply"))?;
                    if n == 0 {
                        break;
                    }
                    log.tamper(start.id, &mut buf[..n]);
                    ok &= t.span(Layer::Client, start.id, || {
                        blob_matches(head, len, pattern, got, &buf[..n])
                    });
                    got += n;
                }
                if got >= head.len() + len {
                    let inflight = &mut self.inflight;
                    t.span(Layer::Client, start.id, || {
                        log.finish(&start, now, len as u64, ok && got == head.len() + len);
                        *inflight = None;
                    });
                } else if stack.tcp_state(sock) != Some(TcpState::Established) {
                    return Err(Abort(format!("op {} connection lost mid-reply", start.id)));
                } else if now - start.virt_ns > STALL_NS {
                    return Err(Abort(format!("op {} stalled", start.id)));
                } else {
                    self.inflight = Some((i, start, got, ok));
                }
                start.id
            }
            None if log.finished() => 0,
            None => {
                let i = self.next;
                self.next = (i + 1) % self.reqs.len();
                let start = t.span(Layer::Client, 0, || log.begin(now));
                let r = &self.reqs[i];
                let req = &self.text[r.at..][..r.req_len];
                let n = t
                    .span(Layer::Send, start.id, || stack.tcp_send(sock, req))
                    .map_err(fail("send request"))?;
                if n != req.len() {
                    return Err(Abort(format!("request send accepted {n} of {}", req.len())));
                }
                self.inflight = Some((i, start, 0, true));
                start.id
            }
        };
        let (httpd, stack) = (&mut self.httpd, self.wire.net.stack(self.wire.si));
        t.span(Layer::HttpdPoll, op, || httpd.poll(stack));
        self.wire.step(t, op);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_blob_pattern_repeats_with_its_period() {
        assert!((0..BLOB_MAX).all(|i| blob_byte(i) == blob_byte(i % PERIOD)));
    }

    #[test]
    fn blob_replies_are_checked_byte_for_byte() {
        let head = b"HEAD".as_slice();
        let pattern: Vec<u8> = (0..PERIOD + RECV_BUF).map(blob_byte).collect();
        let len = 3 * PERIOD;
        let reply: Vec<u8> = head
            .iter()
            .copied()
            .chain((0..len).map(blob_byte))
            .collect();
        for at in [0, 2, 4, 5, 300, 700] {
            let chunk = &reply[at..(at + 100).min(reply.len())];
            assert!(blob_matches(head, len, &pattern, at, chunk), "at {at}");
            let mut bad = chunk.to_vec();
            *bad.last_mut().unwrap() ^= 1;
            assert!(!blob_matches(head, len, &pattern, at, &bad), "at {at}");
        }
        assert!(!blob_matches(head, len - 1, &pattern, 700, &reply[700..]));
    }
}
