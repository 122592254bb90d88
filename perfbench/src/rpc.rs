//! `rpc_small`: closed-loop ping-pong of small messages over one TCP
//! connection and one UDP flow at once, echoed by a server written
//! against the raw socket API. An operation sends one message on each
//! flow and completes when both echoes are back and checked, so every
//! operation is alike and the latency median does not fall between a
//! TCP population and a UDP one.
//!
//! Why: per-frame cost dominates — device ring, demux, TCP/UDP input
//! and output, counters and the pump sweep — so this is the workload
//! per-packet optimisations move. There is no key-value workload: an
//! application-heavy server spends most of its time outside the
//! stack and would hide stack changes.

use uknetstack::stack::SocketHandle;

use crate::rng::Rng;
use crate::trace::{Layer, Tracer};
use crate::wire::{server, Abort, OpLog, OpStart, Wire, STALL_NS};

/// Messages generated per run (cycled).
const MESSAGES: usize = 4096;
/// Smallest and largest message, bytes.
const MIN_MSG: usize = 16;
const MAX_MSG: usize = 512;
const TCP_PORT: u16 = 7;
const UDP_PORT: u16 = 7;
const CLIENT_UDP_PORT: u16 = 40007;

/// The operation in flight: one message out on each flow.
#[derive(Clone, Copy)]
struct Inflight {
    /// Index of the TCP message; the UDP message is half the message
    /// list further on.
    msg: usize,
    start: OpStart,
    /// Echo bytes received so far on the TCP connection.
    tcp_got: usize,
    /// Whether the UDP echo matched, once it arrived.
    udp_ok: Option<bool>,
}

/// The `rpc_small` harness.
pub struct RpcSmall {
    /// The two stacks and the wire.
    pub wire: Wire,
    msgs: Vec<Vec<u8>>,
    tcp_client: SocketHandle,
    tcp_server: SocketHandle,
    udp_client: SocketHandle,
    udp_server: SocketHandle,
    next: usize,
    inflight: Option<Inflight>,
    /// Reply bytes of the TCP message in flight.
    reply: Vec<u8>,
    buf: Vec<u8>,
}

impl RpcSmall {
    /// Generates the seeded messages, builds the stacks, opens both
    /// flows and warms them up.
    pub fn setup(seed: u64) -> Result<Self, Abort> {
        let mut rng = Rng::new(seed, 1);
        let msgs: Vec<Vec<u8>> = (0..MESSAGES)
            .map(|_| {
                let n = MIN_MSG + rng.below((MAX_MSG - MIN_MSG + 1) as u64) as usize;
                rng.bytes(n)
            })
            .collect();
        let mut wire = Wire::new(|_| {});
        let mut t = crate::trace::Untraced;
        let listener = wire.server().tcp_listen(TCP_PORT).map_err(fail("listen"))?;
        let udp_server = wire.server().udp_bind(UDP_PORT).map_err(fail("udp bind"))?;
        let udp_client = wire
            .client()
            .udp_bind(CLIENT_UDP_PORT)
            .map_err(fail("udp bind"))?;
        let tcp_client = wire
            .client()
            .tcp_connect(server(TCP_PORT))
            .map_err(fail("connect"))?;
        let mut tcp_server = None;
        for _ in 0..64 {
            wire.step(&mut t, 0);
            if let Some(s) = wire.server().tcp_accept(listener) {
                tcp_server = Some(s);
                break;
            }
        }
        let tcp_server = tcp_server.ok_or_else(|| Abort("handshake did not complete".into()))?;
        let mut h = RpcSmall {
            wire,
            msgs,
            tcp_client,
            tcp_server,
            udp_client,
            udp_server,
            next: 0,
            inflight: None,
            reply: vec![0; MAX_MSG],
            buf: vec![0; 2048],
        };
        let mut log = OpLog::new(seed, 256);
        log.max_ops = Some(64);
        while !log.finished() {
            h.turn(&mut t, &mut log)?;
        }
        if log.failed > 0 {
            return Err(Abort("warm-up reply mismatch".into()));
        }
        Ok(h)
    }

    /// One event-loop turn: the client takes in echoes (or sends the
    /// next pair of messages), the server echoes what arrived, and the
    /// wire steps once.
    pub fn turn<T: Tracer>(&mut self, t: &mut T, log: &mut OpLog) -> Result<(), Abort> {
        let now = self.wire.now_ns();
        if let Some(op) = self.inflight {
            self.receive(t, log, now, op)?;
        }
        if self.inflight.is_none() && !log.finished() {
            self.send(t, log, now)?;
        }
        let op = self.inflight.map_or(0, |o| o.start.id);
        self.serve(t, op)?;
        self.wire.step(t, op);
        Ok(())
    }

    /// Sends the next message on each flow.
    fn send<T: Tracer>(&mut self, t: &mut T, log: &mut OpLog, now: u64) -> Result<(), Abort> {
        let stack = self.wire.net.stack(self.wire.ci);
        let m = self.next;
        self.next = (m + 1) % MESSAGES;
        let start = t.span(Layer::Client, 0, || log.begin(now));
        let (tcp, udp) = (self.tcp_client, self.udp_client);
        let msg = &self.msgs[m];
        let n = t
            .span(Layer::Send, start.id, || stack.tcp_send(tcp, msg))
            .map_err(fail("tcp send"))?;
        if n != msg.len() {
            return Err(Abort(format!(
                "tcp send accepted {n} of {} bytes",
                msg.len()
            )));
        }
        let msg = &self.msgs[(m + MESSAGES / 2) % MESSAGES];
        t.span(Layer::Send, start.id, || {
            stack.udp_send_to(udp, msg, server(UDP_PORT))
        })
        .map_err(fail("udp send"))?;
        self.inflight = Some(Inflight {
            msg: m,
            start,
            tcp_got: 0,
            udp_ok: None,
        });
        Ok(())
    }

    /// Takes in whatever echo bytes arrived and completes the
    /// operation once both echoes are in.
    fn receive<T: Tracer>(
        &mut self,
        t: &mut T,
        log: &mut OpLog,
        now: u64,
        mut op: Inflight,
    ) -> Result<(), Abort> {
        let stack = self.wire.net.stack(self.wire.ci);
        let id = op.start.id;
        let tcp_msg = &self.msgs[op.msg];
        let udp_msg = &self.msgs[(op.msg + MESSAGES / 2) % MESSAGES];
        if op.tcp_got < tcp_msg.len() {
            let (sock, reply, got) = (self.tcp_client, &mut self.reply, op.tcp_got);
            let n = t
                .span(Layer::Recv, id, || {
                    stack.tcp_recv_into(sock, &mut reply[got..])
                })
                .map_err(fail("tcp recv"))?;
            log.tamper(id, &mut reply[got..got + n]);
            op.tcp_got += n;
        }
        if op.udp_ok.is_none() {
            let (sock, buf) = (self.udp_client, &mut self.buf);
            if let Some((_, n)) = t.span(Layer::Recv, id, || stack.udp_recv_into(sock, buf)) {
                log.tamper(id, &mut buf[..n]);
                op.udp_ok = Some(t.span(Layer::Client, id, || buf[..n] == udp_msg[..]));
            }
        }
        match op.udp_ok {
            Some(udp_ok) if op.tcp_got >= tcp_msg.len() => {
                let reply = &self.reply;
                t.span(Layer::Client, id, || {
                    let ok =
                        udp_ok && op.tcp_got == tcp_msg.len() && reply[..op.tcp_got] == tcp_msg[..];
                    let bytes = (tcp_msg.len() + udp_msg.len()) as u64;
                    log.finish(&op.start, now, bytes, ok);
                });
                self.inflight = None;
            }
            _ if now - op.start.virt_ns > STALL_NS => {
                return Err(Abort(format!("op {id} stalled")));
            }
            _ => self.inflight = Some(op),
        }
        Ok(())
    }

    /// The echo server: everything that arrived goes straight back.
    fn serve<T: Tracer>(&mut self, t: &mut T, op: u64) -> Result<(), Abort> {
        let stack = self.wire.net.stack(self.wire.si);
        let (tcp, udp, buf) = (self.tcp_server, self.udp_server, &mut self.buf);
        loop {
            let n = t
                .span(Layer::Recv, op, || stack.tcp_recv_into(tcp, buf))
                .map_err(fail("server tcp recv"))?;
            if n == 0 {
                break;
            }
            let sent = t
                .span(Layer::Send, op, || stack.tcp_send(tcp, &buf[..n]))
                .map_err(fail("server tcp send"))?;
            if sent != n {
                return Err(Abort(format!(
                    "server tcp send accepted {sent} of {n} bytes"
                )));
            }
        }
        while let Some((from, n)) = t.span(Layer::Recv, op, || stack.udp_recv_into(udp, buf)) {
            t.span(Layer::Send, op, || stack.udp_send_to(udp, &buf[..n], from))
                .map_err(fail("server udp send"))?;
        }
        Ok(())
    }
}

/// Maps a socket error to an abort naming the call.
pub fn fail(what: &'static str) -> impl Fn(ukplat::Errno) -> Abort {
    move |e| Abort(format!("{what}: {e:?}"))
}
