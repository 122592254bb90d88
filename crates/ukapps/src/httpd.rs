//! An nginx-style HTTP/1.1 static file server — event-driven.
//!
//! Serves a static page over keep-alive connections, like the paper's
//! wrk benchmark (Figure 13: "static 612B page"). Request and response
//! buffers are allocated from a `ukalloc` backend per request, so the
//! allocator choice shows up in throughput exactly as in Figure 15.
//!
//! Since the `ukevent` subsystem landed, the server is a single-loop
//! event-driven design (the §4.1 epoll shape): one
//! [`EventQueue`](ukevent::EventQueue) multiplexes the listener plus
//! every live connection. The listener is watched for `EPOLLIN`
//! (accept-queue non-empty); each connection for `EPOLLIN`/`EPOLLRDHUP`,
//! plus `EPOLLOUT` while a response is partially written — responses
//! that do not fit the connection's send buffer (peer receive window
//! closed) are queued and drained on writability instead of dropped.

use std::collections::HashMap;

use ukalloc::Allocator;
use ukevent::{Event, EventMask, EventQueue};
use uknetstack::stack::{NetStack, SocketHandle};
use ukplat::{Errno, Result};

/// The paper's standard test page size.
pub const DEFAULT_PAGE_SIZE: usize = 612;

/// Largest body `/blob/<size>` serves (bounds the shared source
/// buffer).
pub const BLOB_MAX: usize = 4 << 20;

/// The deterministic byte at position `i` of every blob body (clients
/// verify transfers against this).
pub fn blob_byte(i: usize) -> u8 {
    ((i as u32).wrapping_mul(131).wrapping_add(7) % 251) as u8
}

/// Builds the standard 612-byte index page.
pub fn default_page() -> Vec<u8> {
    let mut body = b"<html><head><title>unikraft-rs</title></head><body>".to_vec();
    while body.len() < DEFAULT_PAGE_SIZE - 14 {
        body.extend_from_slice(b"A");
    }
    body.extend_from_slice(b"</body></html>");
    body.truncate(DEFAULT_PAGE_SIZE);
    body
}

struct Conn {
    sock: SocketHandle,
    /// Received bytes not yet forming a complete request.
    buf: Vec<u8>,
    /// Response bytes accepted by us but not yet by the socket (the
    /// partial-write backlog).
    out: Vec<u8>,
    /// An in-flight `/blob/<size>` body: `(size, offset)` into the
    /// server's shared blob source. The bytes go straight from that
    /// buffer into the connection's send queue (`tcp_send_queued`) —
    /// no per-request body copy, no backlog duplication. Further
    /// pipelined requests wait until the blob drains (responses stay
    /// ordered).
    blob: Option<(usize, usize)>,
    /// Close once `out` drains.
    closing: bool,
}

/// The HTTP server.
pub struct Httpd {
    listener: SocketHandle,
    queue: EventQueue,
    conns: HashMap<u64, Conn>,
    files: HashMap<String, Vec<u8>>,
    alloc: Box<dyn Allocator>,
    served: u64,
    errors: u64,
    /// Reusable landing area for one burst of received payload
    /// netbufs: socket reads take whole buffers via the zero-copy
    /// `tcp_recv_burst_netbuf` path, request bytes move into the
    /// connection's buffer, and every netbuf recycles to the stack's
    /// pool — no intermediate copy buffer.
    rx_bufs: Vec<uknetdev::netbuf::Netbuf>,
    /// Shared deterministic source for `/blob/<size>` bodies, grown
    /// lazily to the largest size requested. Every blob response
    /// streams out of this one buffer — the large-transfer fast path
    /// from application memory to super-segment without intermediate
    /// copies.
    blob_src: Vec<u8>,
    /// Reusable event buffer: one turn's ready events, then the
    /// connections resumed behind a drained blob — so a turn of the
    /// event loop allocates nothing for its own bookkeeping.
    events: Vec<Event>,
}

impl std::fmt::Debug for Httpd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Httpd")
            .field("conns", &self.conns.len())
            .field("served", &self.served)
            .finish()
    }
}

impl Httpd {
    /// Starts listening on `port` of `stack`, serving buffers from
    /// `alloc` (already initialized). The listener joins the server's
    /// event queue immediately.
    pub fn new(stack: &mut NetStack, port: u16, alloc: Box<dyn Allocator>) -> Result<Self> {
        let listener = stack.tcp_listen(port)?;
        let mut queue = EventQueue::new();
        let src = stack.ready_source(listener);
        queue.ctl_add(listener.0 as u64, &src, EventMask::IN)?;
        let mut files = HashMap::new();
        files.insert("/index.html".to_string(), default_page());
        files.insert("/".to_string(), default_page());
        Ok(Httpd {
            listener,
            queue,
            conns: HashMap::new(),
            files,
            alloc,
            served: 0,
            errors: 0,
            rx_bufs: Vec::new(),
            blob_src: Vec::new(),
            events: Vec::new(),
        })
    }

    /// Adds (or replaces) a served file.
    pub fn add_file(&mut self, path: impl Into<String>, contents: Vec<u8>) {
        self.files.insert(path.into(), contents);
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Malformed requests seen.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Live connections.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    /// The server's event queue (scheduler glue parks/wakes through it).
    pub fn event_queue_mut(&mut self) -> &mut EventQueue {
        &mut self.queue
    }

    /// Allocator statistics (live allocations should return to zero
    /// between requests).
    pub fn alloc_stats(&self) -> ukalloc::AllocStats {
        self.alloc.stats()
    }

    /// One turn of the event loop: drains the queue's ready events —
    /// accepting, reading, serving, and queueing partial writes — then
    /// emits every connection's pending output as **one TX burst**
    /// (`flush_output` once per turn, not once per send). Returns the
    /// number of responses completed this call.
    ///
    /// This is the single `EventQueue::wait`-shaped loop; callers embed
    /// it either by polling (benchmarks) or by parking a thread on the
    /// queue between turns (see the scheduler integration tests).
    pub fn poll(&mut self, stack: &mut NetStack) -> u64 {
        let before = self.served;
        let mut events = std::mem::take(&mut self.events);
        self.queue.poll_ready_into(&mut events, 64);
        for &ev in &events {
            if ev.token == self.listener.0 as u64 {
                self.accept_ready(stack);
            } else {
                self.drive_conn(stack, ev);
            }
        }
        // Requests that queued up behind a streaming blob response
        // become serviceable the turn the blob drains.
        events.clear();
        events.extend(
            self.conns
                .iter()
                .filter(|(_, c)| {
                    c.blob.is_none() && !c.closing && find_header_end(&c.buf).is_some()
                })
                .map(|(&token, _)| Event {
                    token,
                    events: EventMask::IN,
                }),
        );
        for &ev in &events {
            self.drive_conn(stack, ev);
        }
        self.events = events;
        let _ = stack.flush_output();
        self.reap_closed(stack);
        self.served - before
    }

    /// Accepts every queued connection and registers it on the queue.
    fn accept_ready(&mut self, stack: &mut NetStack) {
        while let Some(sock) = stack.tcp_accept(self.listener) {
            let token = sock.0 as u64;
            let src = stack.ready_source(sock);
            if self
                .queue
                .ctl_add(token, &src, EventMask::IN | EventMask::RDHUP)
                .is_ok()
            {
                self.conns.insert(
                    token,
                    Conn {
                        sock,
                        buf: Vec::new(),
                        out: Vec::new(),
                        blob: None,
                        closing: false,
                    },
                );
                // The handshake-completing ACK may have carried data.
                self.drive_conn(
                    stack,
                    Event {
                        token,
                        events: EventMask::IN,
                    },
                );
            }
        }
    }

    /// Handles one connection's readiness event.
    fn drive_conn(&mut self, stack: &mut NetStack, ev: Event) {
        let Some(conn) = self.conns.get_mut(&ev.token) else {
            return;
        };
        if ev.events.intersects(EventMask::IN | EventMask::RDHUP) {
            // Zero-copy request read: take the payload buffers whole,
            // append their bytes to the request buffer, recycle.
            loop {
                let n = stack.tcp_recv_burst_netbuf(conn.sock, &mut self.rx_bufs, 32);
                if n == 0 {
                    break;
                }
                for nb in self.rx_bufs.drain(..) {
                    conn.buf.extend_from_slice(nb.payload());
                    stack.recycle(nb);
                }
            }
            // Serve every complete request in the buffer (pipelining);
            // a streaming blob response pauses the loop so responses
            // stay ordered (poll resumes it once the blob drains).
            while conn.blob.is_none() {
                let Some(end) = find_header_end(&conn.buf) else {
                    break;
                };
                let req_gp = self.alloc.malloc(end.max(64));
                let request: Vec<u8> = conn.buf.drain(..end).collect();
                let response = match parse_request(&request) {
                    Ok(path) => {
                        if let Some(size) = parse_blob_path(&path) {
                            if size <= BLOB_MAX {
                                // Grow the shared source once; the body
                                // then streams straight from it into
                                // the connection's send queue — no
                                // per-request body materialization.
                                while self.blob_src.len() < size {
                                    self.blob_src.push(blob_byte(self.blob_src.len()));
                                }
                                conn.blob = Some((size, 0));
                                self.served += 1;
                                render_header(200, "OK", size)
                            } else {
                                self.errors += 1;
                                render_response(404, "Not Found", b"blob too large")
                            }
                        } else if path == "/stats" {
                            // The live observability plane: a JSON dump
                            // of the whole ukstats registry, served over
                            // the same queued send path as every other
                            // response.
                            self.served += 1;
                            render_json_response(ukstats::snapshot().to_json().as_bytes())
                        } else {
                            match self.files.get(&path) {
                                Some(body) => {
                                    let resp_gp = self.alloc.malloc(body.len() + 128);
                                    let r = render_response(200, "OK", body);
                                    if let Some(gp) = resp_gp {
                                        self.alloc.free(gp);
                                    }
                                    self.served += 1;
                                    r
                                }
                                None => {
                                    self.errors += 1;
                                    render_response(404, "Not Found", b"not found")
                                }
                            }
                        }
                    }
                    Err(_) => {
                        self.errors += 1;
                        conn.closing = true;
                        render_response(400, "Bad Request", b"bad request")
                    }
                };
                if let Some(gp) = req_gp {
                    self.alloc.free(gp);
                }
                conn.out.extend_from_slice(&response);
                if conn.closing {
                    break;
                }
            }
        }
        // Always try to flush: an EPOLLOUT edge (tx window reopened)
        // lands here, and freshly queued responses go out immediately.
        Self::flush_conn(&mut self.queue, stack, conn, &self.blob_src);
        // After the peer's FIN no bytes can complete a partial request,
        // so any non-request residue in `buf` is discardable garbage.
        if stack.tcp_peer_closed(conn.sock) && find_header_end(&conn.buf).is_none() {
            conn.closing = true;
        }
    }

    /// Queues pending response bytes on the socket (the device push
    /// happens once per event-loop turn in [`poll`](Self::poll)),
    /// keeping what the send buffer refuses (closed tx window) and
    /// adjusting `EPOLLOUT` interest so the event loop resumes exactly
    /// when it can progress. After the header backlog drains, an
    /// in-flight blob body streams directly from the shared source
    /// buffer into the send queue — the only copy the server makes.
    fn flush_conn(queue: &mut EventQueue, stack: &mut NetStack, conn: &mut Conn, blob: &[u8]) {
        if !crate::flush_partial_queued(stack, conn.sock, &mut conn.out) {
            // Connection is gone; nothing more can be delivered.
            conn.closing = true;
            conn.blob = None;
        } else if conn.out.is_empty() {
            if let Some((size, off)) = conn.blob.as_mut() {
                let mut dead = false;
                while *off < *size {
                    match stack.tcp_send_queued(conn.sock, &blob[*off..*size]) {
                        Ok(0) | Err(ukplat::Errno::Again) => break,
                        Ok(n) => *off += n,
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
                // The blob survives an unrelated `closing` mark (e.g.
                // the peer half-closed its write side): the promised
                // Content-Length worth of body still goes out, and
                // only then does the reap close the socket. Only a
                // failed connection abandons the stream.
                if *off >= *size || dead {
                    conn.blob = None;
                }
                if dead {
                    conn.closing = true;
                }
            }
        }
        let token = conn.sock.0 as u64;
        let mut interest = EventMask::IN | EventMask::RDHUP;
        if !conn.out.is_empty() || conn.blob.is_some() {
            interest |= EventMask::OUT;
        }
        let _ = queue.ctl_mod(token, interest);
    }

    /// Closes and deregisters connections whose work is done.
    fn reap_closed(&mut self, stack: &mut NetStack) {
        let queue = &mut self.queue;
        self.conns.retain(|&token, c| {
            let done = c.closing && c.out.is_empty() && c.blob.is_none();
            if done {
                let _ = stack.tcp_close(c.sock);
                let _ = queue.ctl_del(token);
            }
            !done
        });
    }
}

/// Index one past the `\r\n\r\n` terminating the header block.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// `/blob/<size>` → `Some(size)`; anything else → `None`.
fn parse_blob_path(path: &str) -> Option<usize> {
    path.strip_prefix("/blob/")?.parse().ok()
}

/// Renders just the response status line + headers for a body of
/// `len` bytes that will be streamed separately.
fn render_header(code: u16, reason: &str, len: usize) -> Vec<u8> {
    format!(
        "HTTP/1.1 {code} {reason}\r\nServer: unikraft-rs\r\nContent-Length: {len}\r\nConnection: keep-alive\r\n\r\n"
    )
    .into_bytes()
}

/// Parses the request line, returning the path.
fn parse_request(req: &[u8]) -> Result<String> {
    let line_end = req
        .windows(2)
        .position(|w| w == b"\r\n")
        .ok_or(Errno::Inval)?;
    let line = std::str::from_utf8(&req[..line_end]).map_err(|_| Errno::Inval)?;
    let mut parts = line.split(' ');
    let method = parts.next().ok_or(Errno::Inval)?;
    let path = parts.next().ok_or(Errno::Inval)?;
    let version = parts.next().ok_or(Errno::Inval)?;
    if method != "GET" && method != "HEAD" {
        return Err(Errno::Inval);
    }
    if !version.starts_with("HTTP/1.") {
        return Err(Errno::Inval);
    }
    Ok(path.to_string())
}

/// Renders a 200 response carrying a JSON body (the `/stats` plane).
fn render_json_response(body: &[u8]) -> Vec<u8> {
    let mut r = format!(
        "HTTP/1.1 200 OK\r\nServer: unikraft-rs\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    r.extend_from_slice(body);
    r
}

fn render_response(code: u16, reason: &str, body: &[u8]) -> Vec<u8> {
    let mut r = format!(
        "HTTP/1.1 {code} {reason}\r\nServer: unikraft-rs\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
        body.len()
    )
    .into_bytes();
    r.extend_from_slice(body);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use ukalloc::AllocBackend;
    use uknetdev::backend::VhostKind;
    use uknetdev::dev::{NetDev, NetDevConf};
    use uknetdev::VirtioNet;
    use uknetstack::stack::StackConfig;
    use uknetstack::testnet::Network;
    use uknetstack::{Endpoint, Ipv4Addr};
    use ukplat::time::Tsc;

    fn mk_stack(n: u8) -> NetStack {
        let tsc = Tsc::new(3_600_000_000);
        let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
        dev.configure(NetDevConf::default()).unwrap();
        NetStack::new(StackConfig::node(n), Box::new(dev))
    }

    fn mk_alloc() -> Box<dyn Allocator> {
        let mut a = AllocBackend::Tlsf.instantiate();
        a.init(1 << 22, 8 << 20).unwrap();
        a
    }

    #[test]
    fn default_page_is_612_bytes() {
        assert_eq!(default_page().len(), DEFAULT_PAGE_SIZE);
    }

    #[test]
    fn parse_request_extracts_path() {
        assert_eq!(
            parse_request(b"GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n").unwrap(),
            "/index.html"
        );
        assert!(parse_request(b"POST / HTTP/1.1\r\n\r\n").is_err());
        assert!(parse_request(b"garbage").is_err());
    }

    #[test]
    fn serves_request_over_real_stack() {
        let mut net = Network::new();
        let client_idx = net.attach(mk_stack(1));
        let mut server_stack = mk_stack(2);
        let mut httpd = Httpd::new(&mut server_stack, 80, mk_alloc()).unwrap();
        let server_idx = net.attach(server_stack);

        let server_ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80);
        let conn = net.stack(client_idx).tcp_connect(server_ep).unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(server_idx));
        }
        net.stack(client_idx)
            .tcp_send(conn, b"GET /index.html HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(server_idx));
        }
        let resp = net.stack(client_idx).tcp_recv(conn, 64 * 1024).unwrap();
        let text = String::from_utf8_lossy(&resp);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("Content-Length: 612"));
        assert_eq!(httpd.served(), 1);
        // No allocator leaks across requests.
        assert_eq!(httpd.alloc_stats().cur_bytes, 0);
    }

    #[test]
    fn stats_endpoint_serves_live_registry_json() {
        let mut net = Network::new();
        let ci = net.attach(mk_stack(1));
        let mut ss = mk_stack(2);
        let mut httpd = Httpd::new(&mut ss, 80, mk_alloc()).unwrap();
        let si = net.attach(ss);
        let conn = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        net.stack(ci)
            .tcp_send(conn, b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        let resp = net.stack(ci).tcp_recv(conn, 256 * 1024).unwrap();
        let text = String::from_utf8_lossy(&resp);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("Content-Type: application/json"));
        let body = &text[text.find("\r\n\r\n").unwrap() + 4..];
        assert!(body.starts_with('{') && body.ends_with('}'), "JSON body");
        if ukstats::COMPILED_IN {
            // The datapath that carried this very request shows up in
            // the report it served.
            assert!(body.contains("\"netstack.rx_frames\":"), "{body}");
            assert!(body.contains("\"netstack.demux_tcp\":"));
            assert!(body.contains("\"netdev.tx_frames\":"));
            assert!(body.contains("\"netstack.pump_ns\":{\"count\":"));
        }
        assert_eq!(httpd.served(), 1);
    }

    #[test]
    fn missing_file_is_404() {
        let mut net = Network::new();
        let ci = net.attach(mk_stack(1));
        let mut ss = mk_stack(2);
        let mut httpd = Httpd::new(&mut ss, 80, mk_alloc()).unwrap();
        let si = net.attach(ss);
        let conn = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        for _ in 0..4 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        net.stack(ci)
            .tcp_send(conn, b"GET /ghost HTTP/1.1\r\n\r\n")
            .unwrap();
        for _ in 0..4 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        let resp = net.stack(ci).tcp_recv(conn, 4096).unwrap();
        assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 404"));
        assert_eq!(httpd.errors(), 1);
    }

    #[test]
    fn multiplexes_concurrent_connections_over_one_queue() {
        let mut net = Network::new();
        let c1 = net.attach(mk_stack(1));
        let c2 = net.attach(mk_stack(3));
        let mut ss = mk_stack(2);
        let mut httpd = Httpd::new(&mut ss, 80, mk_alloc()).unwrap();
        let si = net.attach(ss);
        let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80);

        let conn1 = net.stack(c1).tcp_connect(ep).unwrap();
        let conn2 = net.stack(c2).tcp_connect(ep).unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        assert_eq!(httpd.conn_count(), 2, "both connections accepted");

        net.stack(c1)
            .tcp_send(conn1, b"GET / HTTP/1.1\r\n\r\n")
            .unwrap();
        net.stack(c2)
            .tcp_send(conn2, b"GET /index.html HTTP/1.1\r\n\r\n")
            .unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        for (ci, conn) in [(c1, conn1), (c2, conn2)] {
            let resp = net.stack(ci).tcp_recv(conn, 64 * 1024).unwrap();
            assert!(
                String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 200 OK"),
                "client {ci} got a response"
            );
        }
        assert_eq!(httpd.served(), 2);
    }

    #[test]
    fn partial_write_survives_closed_tx_window() {
        let mut net = Network::new();
        let ci = net.attach(mk_stack(1));
        let mut ss = mk_stack(2);
        let mut httpd = Httpd::new(&mut ss, 80, mk_alloc()).unwrap();
        // A body larger than the peer's whole receive window (65535)
        // cannot be delivered in one go: the tx window must close.
        let big = vec![0x42u8; 200 * 1024];
        httpd.add_file("/big", big.clone());
        let si = net.attach(ss);

        let conn = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        net.stack(ci)
            .tcp_send(conn, b"GET /big HTTP/1.1\r\n\r\n")
            .unwrap();
        // Drive the network while the client drains its side slowly;
        // the server must keep the undelivered tail queued and resume
        // on EPOLLOUT edges instead of dropping bytes.
        let mut received = Vec::new();
        for _ in 0..600 {
            net.run_until_quiet(32);
            httpd.poll(net.stack(si));
            if let Ok(chunk) = net.stack(ci).tcp_recv(conn, 16 * 1024) {
                received.extend_from_slice(&chunk);
            }
            let expected_len = big.len() + header_len(&received);
            if !received.is_empty() && received.len() >= expected_len {
                break;
            }
        }
        let text_head = String::from_utf8_lossy(&received[..64.min(received.len())]);
        assert!(text_head.starts_with("HTTP/1.1 200 OK"), "{text_head}");
        let hdr = header_len(&received);
        assert_eq!(
            received.len() - hdr,
            big.len(),
            "every body byte survived the closed-window stretch"
        );
        assert_eq!(&received[hdr..], &big[..], "no bytes dropped or reordered");
        assert_eq!(httpd.served(), 1);
    }

    fn header_len(resp: &[u8]) -> usize {
        resp.windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|p| p + 4)
            .unwrap_or(0)
    }

    #[test]
    fn blob_handler_streams_large_bodies_through_the_fast_path() {
        let mut net = Network::new();
        let ci = net.attach(mk_stack(1));
        let mut ss = mk_stack(2);
        let mut httpd = Httpd::new(&mut ss, 80, mk_alloc()).unwrap();
        let si = net.attach(ss);
        let conn = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        const SIZE: usize = 256 * 1024; // Several receive windows.
        net.stack(ci)
            .tcp_send(conn, format!("GET /blob/{SIZE} HTTP/1.1\r\n\r\n").as_bytes())
            .unwrap();
        let mut received = Vec::new();
        for _ in 0..2000 {
            net.run_until_quiet(32);
            httpd.poll(net.stack(si));
            if let Ok(chunk) = net.stack(ci).tcp_recv(conn, 64 * 1024) {
                received.extend_from_slice(&chunk);
            }
            if !received.is_empty() {
                let hdr = header_len(&received);
                if hdr > 0 && received.len() >= hdr + SIZE {
                    break;
                }
            }
        }
        let text_head = String::from_utf8_lossy(&received[..64.min(received.len())]);
        assert!(text_head.starts_with("HTTP/1.1 200 OK"), "{text_head}");
        assert!(String::from_utf8_lossy(&received[..header_len(&received)])
            .contains(&format!("Content-Length: {SIZE}")));
        let body = &received[header_len(&received)..];
        assert_eq!(body.len(), SIZE, "whole blob delivered");
        for (i, &b) in body.iter().enumerate() {
            assert_eq!(b, blob_byte(i), "blob byte {i}");
        }
        assert_eq!(httpd.served(), 1);
        // The transfer rode super-segments, not per-MSS frames.
        assert!(net.stack(si).stats().tso_super_frames > 0);
    }

    #[test]
    fn requests_pipelined_behind_a_blob_are_served_in_order() {
        let mut net = Network::new();
        let ci = net.attach(mk_stack(1));
        let mut ss = mk_stack(2);
        let mut httpd = Httpd::new(&mut ss, 80, mk_alloc()).unwrap();
        let si = net.attach(ss);
        let conn = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        const SIZE: usize = 100 * 1024;
        // A blob request and an index request in one write: the index
        // response must come after the full blob body.
        net.stack(ci)
            .tcp_send(
                conn,
                format!("GET /blob/{SIZE} HTTP/1.1\r\n\r\nGET /index.html HTTP/1.1\r\n\r\n")
                    .as_bytes(),
            )
            .unwrap();
        let mut received = Vec::new();
        for _ in 0..2000 {
            net.run_until_quiet(32);
            httpd.poll(net.stack(si));
            if let Ok(chunk) = net.stack(ci).tcp_recv(conn, 64 * 1024) {
                received.extend_from_slice(&chunk);
            }
            if httpd.served() == 2 && net.stack(si).tcp_send_capacity(conn) > 0 {
                // Both responses queued; drain the tail.
                let hdr1 = header_len(&received);
                if hdr1 > 0 && received.len() >= hdr1 + SIZE + 100 {
                    break;
                }
            }
        }
        assert_eq!(httpd.served(), 2, "both requests served");
        let hdr1 = header_len(&received);
        let body1 = &received[hdr1..hdr1 + SIZE];
        for (i, &b) in body1.iter().enumerate() {
            assert_eq!(b, blob_byte(i), "blob byte {i} precedes the second response");
        }
        let rest = &received[hdr1 + SIZE..];
        assert!(
            String::from_utf8_lossy(rest).starts_with("HTTP/1.1 200 OK"),
            "index response follows the blob intact"
        );
    }

    #[test]
    fn blob_completes_after_peer_half_close() {
        // A client that sends its request and immediately shuts its
        // write side (FIN) must still receive the entire promised
        // Content-Length body — a half-close is not an abort.
        let mut net = Network::new();
        let ci = net.attach(mk_stack(1));
        let mut ss = mk_stack(2);
        let mut httpd = Httpd::new(&mut ss, 80, mk_alloc()).unwrap();
        let si = net.attach(ss);
        let conn = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        const SIZE: usize = 200 * 1024; // Several receive windows.
        net.stack(ci)
            .tcp_send(conn, format!("GET /blob/{SIZE} HTTP/1.1\r\n\r\n").as_bytes())
            .unwrap();
        net.stack(ci).tcp_close(conn).unwrap(); // Half-close right away.
        let mut received = Vec::new();
        for _ in 0..2000 {
            net.run_until_quiet(32);
            httpd.poll(net.stack(si));
            if let Ok(chunk) = net.stack(ci).tcp_recv(conn, 64 * 1024) {
                received.extend_from_slice(&chunk);
            }
            let hdr = header_len(&received);
            if hdr > 0 && received.len() >= hdr + SIZE {
                break;
            }
        }
        let hdr = header_len(&received);
        assert_eq!(
            received.len() - hdr,
            SIZE,
            "full body delivered despite the early FIN"
        );
        let body = &received[hdr..];
        for (i, &b) in body.iter().enumerate() {
            assert_eq!(b, blob_byte(i), "blob byte {i}");
        }
        assert_eq!(httpd.conn_count(), 0, "connection reaped after the body");
    }

    #[test]
    fn oversized_blob_requests_are_rejected() {
        let mut net = Network::new();
        let ci = net.attach(mk_stack(1));
        let mut ss = mk_stack(2);
        let mut httpd = Httpd::new(&mut ss, 80, mk_alloc()).unwrap();
        let si = net.attach(ss);
        let conn = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        for _ in 0..4 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        net.stack(ci)
            .tcp_send(conn, format!("GET /blob/{} HTTP/1.1\r\n\r\n", BLOB_MAX + 1).as_bytes())
            .unwrap();
        for _ in 0..8 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        let resp = net.stack(ci).tcp_recv(conn, 4096).unwrap();
        assert!(String::from_utf8_lossy(&resp).starts_with("HTTP/1.1 404"));
        assert_eq!(httpd.errors(), 1);
    }

    #[test]
    fn partial_request_then_fin_is_reaped() {
        let mut net = Network::new();
        let ci = net.attach(mk_stack(1));
        let mut ss = mk_stack(2);
        let mut httpd = Httpd::new(&mut ss, 80, mk_alloc()).unwrap();
        let si = net.attach(ss);
        let conn = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        for _ in 0..4 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        assert_eq!(httpd.conn_count(), 1);
        // Half a request line, then FIN: no terminator will ever come.
        net.stack(ci).tcp_send(conn, b"GET / HTT").unwrap();
        net.stack(ci).tcp_close(conn).unwrap();
        for _ in 0..6 {
            net.run_until_quiet(16);
            httpd.poll(net.stack(si));
        }
        assert_eq!(
            httpd.conn_count(),
            0,
            "dead connection with unfinishable request must be reaped"
        );
        assert_eq!(httpd.event_queue_mut().len(), 1, "only the listener remains");
    }
}
