//! Two stacks on the in-process `testnet` wire, a virtual clock, and
//! the per-operation log every workload reports into.

use std::time::Instant;

use uknetdev::backend::VhostKind;
use uknetdev::dev::{NetDev, NetDevConf};
use uknetdev::VirtioNet;
use uknetstack::stack::{NetStack, StackConfig};
use uknetstack::testnet::Network;
use uknetstack::{Endpoint, Ipv4Addr};
use ukplat::time::Tsc;

use crate::stats::{Reservoir, Sample};
use crate::trace::{Layer, Tracer};

/// Virtual time every wire step takes before serialization: one hop's
/// propagation and host latency (so a round trip is 2 ms). Idle steps,
/// which only let timers run, take exactly this long.
pub const STEP_NS: u64 = 1_000_000;

/// Bytes of per-frame line overhead (preamble, delimiter, FCS,
/// inter-frame gap) serialized with every frame.
const FRAME_OVERHEAD_BYTES: u64 = 24;

/// An operation older than this on the virtual clock has stalled.
pub const STALL_NS: u64 = 120_000_000_000;

/// The client node is 10.0.0.1, the server 10.0.0.2.
pub const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// `server:port`.
pub fn server(port: u16) -> Endpoint {
    Endpoint::new(SERVER_IP, port)
}

fn mk_stack(cfg: StackConfig) -> NetStack {
    let tsc = Tsc::new(ukplat::cost::CPU_FREQ_HZ);
    let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
    dev.configure(NetDevConf::default())
        .expect("default virtio-net configuration is valid");
    NetStack::new(cfg, Box::new(dev))
}

/// Gauges sampled after every step of a traced window.
#[derive(Debug, Clone, Copy)]
pub struct Peaks {
    /// Most timers armed on both wheels together.
    pub armed_timers: usize,
    /// Most TCP connections (any state) on both stacks together.
    pub conns: usize,
    /// Fewest free buffers in either stack's pool.
    pub pool_free_min: usize,
}

impl Default for Peaks {
    fn default() -> Self {
        Peaks {
            armed_timers: 0,
            conns: 0,
            pool_free_min: usize::MAX,
        }
    }
}

/// Client and server stacks joined by the in-process wire.
///
/// The virtual clock models the wire as a shared 10 Gbit/s segment
/// (testnet is a hub): a step takes [`STEP_NS`] plus the
/// serialization time of every byte and frame it moved. Flow
/// completion times therefore count the bytes a transfer put on the
/// wire, retransmissions included, and the round trips and timer
/// waits it needed.
pub struct Wire {
    /// The network (client at `ci`, server at `si`).
    pub net: Network,
    /// The shared virtual clock.
    pub clock: Tsc,
    /// Client stack index.
    pub ci: usize,
    /// Server stack index.
    pub si: usize,
    /// Steps taken.
    pub steps: u64,
    /// Steps that moved no frame (waiting on timers).
    pub idle_steps: u64,
    /// Frames the wire moved.
    pub frames: u64,
    /// Gauge extremes over traced steps.
    pub peaks: Peaks,
    tx_bytes: ukstats::Counter,
    last_tx_bytes: u64,
}

impl Wire {
    /// Builds both stacks (`StackConfig::node` defaults, adjusted by
    /// `client`), joins them and installs the virtual clock.
    pub fn new(client: impl FnOnce(&mut StackConfig)) -> Self {
        let mut ccfg = StackConfig::node(1);
        client(&mut ccfg);
        let mut net = Network::new();
        let ci = net.attach(mk_stack(ccfg));
        let si = net.attach(mk_stack(StackConfig::node(2)));
        let clock = Tsc::new(1_000_000_000); // 1 cycle = 1 ns.
        net.set_clock(&clock);
        let tx_bytes = ukstats::Counter::register("netdev.tx_bytes");
        Wire {
            net,
            clock,
            ci,
            si,
            steps: 0,
            idle_steps: 0,
            frames: 0,
            peaks: Peaks::default(),
            last_tx_bytes: tx_bytes.get(),
            tx_bytes,
        }
    }

    /// Current virtual time, ns.
    pub fn now_ns(&self) -> u64 {
        self.clock.cycles_to_ns(self.clock.now_cycles())
    }

    /// The client stack.
    pub fn client(&mut self) -> &mut NetStack {
        self.net.stack(self.ci)
    }

    /// The server stack.
    pub fn server(&mut self) -> &mut NetStack {
        self.net.stack(self.si)
    }

    /// One wire step: move frames, advance the clock, pump the client
    /// then the server — `Network::step` with the clock advanced by
    /// the link model. Returns frames moved.
    pub fn step<T: Tracer>(&mut self, t: &mut T, op: u64) -> usize {
        let net = &mut self.net;
        let moved = t.span(Layer::Transfer, op, || net.transfer());
        let sent = self.tx_bytes.get();
        let bytes = sent - self.last_tx_bytes + moved as u64 * FRAME_OVERHEAD_BYTES;
        self.last_tx_bytes = sent;
        // 10 Gbit/s: 0.8 ns per byte.
        self.clock.advance_ns(STEP_NS + bytes * 4 / 5);
        let (ci, si) = (self.ci, self.si);
        t.span(Layer::PumpClient, op, || net.stack(ci).pump());
        t.span(Layer::PumpServer, op, || net.stack(si).pump());
        self.steps += 1;
        self.frames += moved as u64;
        if moved == 0 {
            self.idle_steps += 1;
        }
        if T::ON {
            let c = net.stack(ci);
            let (timers, conns) = (c.armed_timer_count(), c.tcp_conn_count());
            let pool = c.pool_available().unwrap_or(usize::MAX);
            let s = net.stack(si);
            let p = &mut self.peaks;
            p.armed_timers = p.armed_timers.max(timers + s.armed_timer_count());
            p.conns = p.conns.max(conns + s.tcp_conn_count());
            let s_pool = s.pool_available().unwrap_or(usize::MAX);
            p.pool_free_min = p.pool_free_min.min(pool).min(s_pool);
        }
        moved
    }
}

/// An operation in flight.
#[derive(Debug, Clone, Copy)]
pub struct OpStart {
    /// Operation id (dense from 0 in a log).
    pub id: u64,
    /// Wall-clock start.
    pub wall: Instant,
    /// Virtual-clock start, ns.
    pub virt_ns: u64,
}

/// Why a run stopped before its time was up: a reset connection or a
/// stalled operation. The operation counts as failed.
#[derive(Debug, Clone)]
pub struct Abort(pub String);

/// Completed operations of the measured windows: counts, the sum of
/// their latencies, and a uniform sample of latencies and completion
/// times.
#[derive(Debug)]
pub struct OpLog {
    /// Operations whose reply checked out byte for byte.
    pub ok: u64,
    /// Operations with a wrong reply (or aborted).
    pub failed: u64,
    /// Verified reply payload bytes.
    pub bytes: u64,
    /// Wall-clock latencies of every completed operation, summed, µs.
    pub wall_us_sum: f64,
    /// Latency and completion-time sample.
    pub samples: Reservoir,
    next_op: u64,
    deadline: Option<Instant>,
    /// Whether an operation completed after the deadline.
    pub past_deadline: bool,
    /// Stop after this many completed operations (fixed-work runs).
    pub max_ops: Option<u64>,
    /// Operation whose first received byte is flipped before checking
    /// (proves the checks catch a corrupted reply).
    pub corrupt_op: Option<u64>,
}

impl OpLog {
    /// An empty log keeping up to `cap` samples (`seed` drives the
    /// reservoir's replacement draws).
    pub fn new(seed: u64, cap: usize) -> Self {
        OpLog {
            ok: 0,
            failed: 0,
            bytes: 0,
            wall_us_sum: 0.0,
            samples: Reservoir::new(seed, cap),
            next_op: 0,
            deadline: None,
            past_deadline: false,
            max_ops: None,
            corrupt_op: None,
        }
    }

    /// Starts a measured window ending at `deadline` (keeps counts and
    /// samples; the operation ids continue).
    pub fn start(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
        self.past_deadline = false;
    }

    /// Operations completed (ok or failed).
    pub fn done(&self) -> u64 {
        self.ok + self.failed
    }

    /// Whether the window is over.
    pub fn finished(&self) -> bool {
        self.past_deadline || self.max_ops.is_some_and(|m| self.done() >= m)
    }

    /// Starts an operation at virtual time `virt_ns`.
    pub fn begin(&mut self, virt_ns: u64) -> OpStart {
        let id = self.next_op;
        self.next_op += 1;
        OpStart {
            id,
            wall: Instant::now(),
            virt_ns,
        }
    }

    /// Flips the first byte of `data` if it is the start of the reply
    /// to the operation chosen for corruption.
    pub fn tamper(&mut self, op: u64, data: &mut [u8]) {
        if self.corrupt_op == Some(op) && !data.is_empty() {
            data[0] ^= 0xff;
            self.corrupt_op = None;
        }
    }

    /// Completes `op` at virtual time `virt_ns`; `bytes` of reply
    /// payload were verified when `ok`.
    pub fn finish(&mut self, op: &OpStart, virt_ns: u64, bytes: u64, ok: bool) {
        let now = Instant::now();
        if ok {
            self.ok += 1;
            self.bytes += bytes;
        } else {
            self.failed += 1;
        }
        let wall_us = (now - op.wall).as_nanos() as f64 / 1e3;
        self.wall_us_sum += wall_us;
        self.samples.push(Sample {
            wall_us,
            fct_ms: (virt_ns - op.virt_ns) as f64 / 1e6,
        });
        if self.deadline.is_some_and(|d| now >= d) {
            self.past_deadline = true;
        }
    }

    /// Records an aborted operation.
    pub fn abort(&mut self) {
        self.failed += 1;
    }
}
