//! Criterion benches for the zero-copy pooled **burst** datapath.
//!
//! Measures full stack round-trips over the in-process wire (client
//! stack → device → wire → server stack and back) in the ablation
//! matrix of the burst-datapath PR:
//!
//! - **per_frame vs burst32** — one echo per turn (every layer crossed
//!   once per packet) vs 32 echoes per turn (one staged TX burst, one
//!   `inject_rx` per wire hop, one demux sweep per `rx_burst` batch);
//! - **offload vs no_offload** — TCP/UDP checksums stamped as partial
//!   pseudo-header sums and completed by the virtio model vs computed
//!   in software by the stack;
//! - **pooled vs heap_bufs** — the PR 2 buffer-pool ablation, kept for
//!   trajectory continuity.
//!
//! Since the large-transfer fast path landed, the report also carries
//! a **bulk-throughput matrix**: 4 KB / 64 KB / 1 MB client→server
//! transfers across the `{tso, rx_csum_offload}` ablation grid —
//! bytes/s and allocs/frame per cell, with the 64 KB TSO-vs-software
//! speedup as the headline number.
//!
//! Since the receive-side fast path landed, a **receive-path matrix**
//! rides along: a per-MSS (non-TSO) sender streams 64 KB / 1 MB while
//! only the *receiver's* time is on the clock (`Network::transfer`
//! moves the wire, the two pumps are driven — and timed — separately),
//! across the `{gro, netbuf-vs-copy recv}` grid. The headline is the
//! 64 KB GRO-on vs GRO-off receive throughput.
//!
//! Since loss-tolerant TCP landed, a **goodput-vs-loss matrix** rides
//! along: a per-MSS sender streams 1 MB per rep through a wire
//! dropping every {∞, 64th, 16th, 8th} frame, with the virtual clock
//! arming the retransmission timers and NewReno switchable — goodput
//! (recovery overhead included) per cell, plus what the recovery did
//! (retransmits, fast retransmits, RTO fires). The headline asserts
//! goodput at 1/64 drop holds ≥ 50% of the lossless baseline.
//!
//! Since the lifecycle control plane landed, a **connection-scale
//! grid** rides along: 1K / 10K / 100K established-idle connections
//! on one lean-TCB stack (forged handshakes completed through the
//! wire capture), measuring establishment rate, resident bytes per
//! connection (linear in conn count, enforced), and the echo hot path
//! threading the idle population (allocation-free at every scale,
//! enforced) — plus connect/close churn rate through TIME_WAIT and
//! accept throughput under a 10×-backlog SYN flood.
//!
//! Since surgical loss recovery landed, a **recovery grid** rides
//! along: the single SACK + RACK-TLP engine, cc on, over wire
//! {lossless, 1/8 drop, adjacent reorder, both, burst drop}. Each cell
//! records wall-clock goodput *and* the deterministic virtual
//! wire-step count: the engine must hold ≥ 32% of lossless at a
//! 1-in-8 drop (2× the PR 7 figure), reorder-only cells must show
//! zero false fast retransmits, the burst-drop cell must exercise the
//! SACK scoreboard, and lossless cells stay allocation-free.
//!
//! The binary installs `ukalloc::stats::CountingAlloc` as its global
//! allocator, so alongside the ns/iter numbers it prints measured
//! **allocations per frame** (expected: 0.000 on every pooled config,
//! enforced), round-trips/s and ns/RTT. With `--json <path>` the
//! ablation table is also written as machine-readable JSON
//! (`make bench-json` → `BENCH_PR9.json`), so the perf trajectory is
//! diffable across PRs. Since the observability layer landed, each
//! JSON cell carries the `ukstats` counter deltas measured inside its
//! timed window (what the datapath *did*, not just how long it took),
//! the document ends with a full registry snapshot, and the human
//! tables ride the `ukcore` leveled log macros — `--json` runs drop
//! the level to `Warn`, so nothing pollutes machine-readable output.

use std::time::Instant;

use criterion::{criterion_group, Criterion};
use ukalloc::stats::AllocCounter;
use uknetdev::backend::VhostKind;
use uknetdev::dev::{NetDev, NetDevConf};
use uknetdev::VirtioNet;
use uknetstack::stack::{NetStack, SocketHandle, StackConfig};
use uknetstack::tcp::TcpCounters;
use uknetstack::testnet::Network;
use uknetstack::{Endpoint, Ipv4Addr};
use ukplat::time::Tsc;

#[global_allocator]
static COUNTING: ukalloc::stats::CountingAlloc = ukalloc::stats::CountingAlloc;

/// Non-zero `ukstats` counter deltas since `base`, as a JSON object.
/// Called only after the cell's `AllocCounter` window closed —
/// snapshotting allocates.
fn stats_delta_json(base: &ukstats::Snapshot) -> String {
    let mut out = String::from("{");
    for (i, c) in ukstats::snapshot().counters_since(base).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", c.name, c.value));
    }
    out.push('}');
    out
}

/// Echoes per burst turn (matches `MAX_BURST / 2` and the zero-alloc
/// guard's batch).
const BURST: usize = 32;

fn mk_stack(n: u8, pools: bool, offload: bool) -> NetStack {
    mk_stack_cfg(n, pools, offload, true, true)
}

fn mk_stack_cfg(n: u8, pools: bool, offload: bool, tso: bool, rx_csum: bool) -> NetStack {
    let tsc = Tsc::new(ukplat::cost::CPU_FREQ_HZ);
    let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
    dev.configure(NetDevConf::default()).unwrap();
    let mut cfg = StackConfig::node(n);
    cfg.use_pools = pools;
    cfg.tx_csum_offload = offload;
    cfg.tso = tso;
    cfg.rx_csum_offload = rx_csum;
    NetStack::new(cfg, Box::new(dev))
}

/// A stack for the receive-path matrix: TSO switchable on the sender
/// (off = the per-MSS workload GRO targets), GRO switchable on the
/// receiver.
fn mk_stack_recv(n: u8, tso: bool, gro: bool) -> NetStack {
    let tsc = Tsc::new(ukplat::cost::CPU_FREQ_HZ);
    let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
    dev.configure(NetDevConf::default()).unwrap();
    let mut cfg = StackConfig::node(n);
    cfg.tso = tso;
    cfg.gro = gro;
    NetStack::new(cfg, Box::new(dev))
}

/// A warmed-up two-node net with an established TCP echo connection.
struct TcpHarness {
    net: Network,
    ci: usize,
    si: usize,
    client: SocketHandle,
    server: SocketHandle,
    buf: Vec<u8>,
}

impl TcpHarness {
    fn new(pools: bool, offload: bool) -> Self {
        let mut net = Network::new();
        let ci = net.attach(mk_stack(1, pools, offload));
        let si = net.attach(mk_stack(2, pools, offload));
        let listener = net.stack(si).tcp_listen(7).unwrap();
        let client = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7))
            .unwrap();
        net.run_until_quiet(32);
        let server = net.stack(si).tcp_accept(listener).unwrap();
        let mut h = TcpHarness {
            net,
            ci,
            si,
            client,
            server,
            buf: vec![0; 4096],
        };
        for _ in 0..8 {
            h.round_trip(&[0x42; 512]);
        }
        for _ in 0..4 {
            h.burst_round_trip(&[0x42; 512]);
        }
        h
    }

    /// One echo per turn: the per-frame baseline.
    fn round_trip(&mut self, payload: &[u8]) {
        self.net.stack(self.ci).tcp_send(self.client, payload).unwrap();
        self.net.run_until_quiet(32);
        let n = self
            .net
            .stack(self.si)
            .tcp_recv_into(self.server, &mut self.buf)
            .unwrap();
        let buf = std::mem::take(&mut self.buf);
        self.net.stack(self.si).tcp_send(self.server, &buf[..n]).unwrap();
        self.buf = buf;
        self.net.run_until_quiet(32);
        self.net
            .stack(self.ci)
            .tcp_recv_into(self.client, &mut self.buf)
            .unwrap();
    }

    /// [`BURST`] echoes per turn through the burst path: requests are
    /// queued (`tcp_send_queued`) and emitted as one staged TX burst
    /// (`flush_output`); the wire then moves each hop's frames with
    /// one `deliver_burst` per step and the server echoes the whole
    /// batch back the same way.
    fn burst_round_trip(&mut self, payload: &[u8]) {
        for _ in 0..BURST {
            self.net
                .stack(self.ci)
                .tcp_send_queued(self.client, payload)
                .unwrap();
        }
        self.net.stack(self.ci).flush_output().unwrap();
        self.net.run_until_quiet(64);
        loop {
            let n = self
                .net
                .stack(self.si)
                .tcp_recv_into(self.server, &mut self.buf)
                .unwrap();
            if n == 0 {
                break;
            }
            let buf = std::mem::take(&mut self.buf);
            self.net
                .stack(self.si)
                .tcp_send_queued(self.server, &buf[..n])
                .unwrap();
            self.buf = buf;
        }
        self.net.stack(self.si).flush_output().unwrap();
        self.net.run_until_quiet(64);
        loop {
            let n = self
                .net
                .stack(self.ci)
                .tcp_recv_into(self.client, &mut self.buf)
                .unwrap();
            if n == 0 {
                break;
            }
        }
    }

    fn tx_frames(&mut self) -> u64 {
        self.net.stack(self.ci).stats().tx_frames + self.net.stack(self.si).stats().tx_frames
    }
}

/// A warmed-up two-node net with bound UDP sockets and resolved ARP.
struct UdpHarness {
    net: Network,
    ci: usize,
    si: usize,
    cs: SocketHandle,
    ss: SocketHandle,
    ep: Endpoint,
    buf: Vec<u8>,
    msgs: Vec<(Endpoint, usize)>,
}

impl UdpHarness {
    fn new(pools: bool, offload: bool) -> Self {
        let mut net = Network::new();
        let ci = net.attach(mk_stack(1, pools, offload));
        let si = net.attach(mk_stack(2, pools, offload));
        let ss = net.stack(si).udp_bind(9).unwrap();
        let cs = net.stack(ci).udp_bind(5000).unwrap();
        let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9);
        let mut h = UdpHarness {
            net,
            ci,
            si,
            cs,
            ss,
            ep,
            buf: vec![0; BURST * 2048],
            msgs: Vec::with_capacity(BURST),
        };
        for _ in 0..8 {
            h.round_trip(&[0x5a; 256]);
        }
        for _ in 0..4 {
            h.burst_round_trip(&[0x5a; 256]);
        }
        h
    }

    fn round_trip(&mut self, payload: &[u8]) {
        self.net.stack(self.ci).udp_send_to(self.cs, payload, self.ep).unwrap();
        self.net.run_until_quiet(16);
        let (from, n) = self
            .net
            .stack(self.si)
            .udp_recv_into(self.ss, &mut self.buf)
            .unwrap();
        let buf = std::mem::take(&mut self.buf);
        self.net.stack(self.si).udp_send_to(self.ss, &buf[..n], from).unwrap();
        self.buf = buf;
        self.net.run_until_quiet(16);
        self.net
            .stack(self.ci)
            .udp_recv_into(self.cs, &mut self.buf)
            .unwrap();
    }

    /// [`BURST`] datagrams per turn through `udp_send_burst` /
    /// `udp_recv_burst_into` (the recvmmsg/sendmmsg shape).
    fn burst_round_trip(&mut self, payload: &[u8]) {
        let ep = self.ep;
        let sent = self
            .net
            .stack(self.ci)
            .udp_send_burst(self.cs, std::iter::repeat((payload, ep)).take(BURST))
            .unwrap();
        assert_eq!(sent, BURST);
        self.net.run_until_quiet(16);
        self.msgs.clear();
        let n = self
            .net
            .stack(self.si)
            .udp_recv_burst_into(self.ss, &mut self.buf, &mut self.msgs, BURST);
        assert_eq!(n, BURST);
        let buf = std::mem::take(&mut self.buf);
        let mut off = 0;
        let replies = self.msgs.iter().map(|&(from, len)| {
            let s = &buf[off..off + len];
            off += len;
            (s, from)
        });
        self.net.stack(self.si).udp_send_burst(self.ss, replies).unwrap();
        self.buf = buf;
        self.net.run_until_quiet(16);
        self.msgs.clear();
        let m = self
            .net
            .stack(self.ci)
            .udp_recv_burst_into(self.cs, &mut self.buf, &mut self.msgs, BURST);
        assert_eq!(m, BURST);
    }
}

/// A warmed-up two-node net moving bulk data client → server: the
/// large-transfer fast path (scatter-gather super-segments + TSO
/// cutting + RX checksum offload), with both offloads switchable for
/// the ablation matrix.
struct BulkHarness {
    net: Network,
    ci: usize,
    si: usize,
    client: SocketHandle,
    server: SocketHandle,
    buf: Vec<u8>,
}

impl BulkHarness {
    fn new(tso: bool, rx_csum: bool) -> Self {
        let mut net = Network::new();
        let ci = net.attach(mk_stack_cfg(1, true, true, tso, rx_csum));
        let si = net.attach(mk_stack_cfg(2, true, true, tso, rx_csum));
        let listener = net.stack(si).tcp_listen(9000).unwrap();
        let client = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9000))
            .unwrap();
        net.run_until_quiet(32);
        let server = net.stack(si).tcp_accept(listener).unwrap();
        let mut h = BulkHarness {
            net,
            ci,
            si,
            client,
            server,
            buf: vec![0; 64 * 1024],
        };
        for _ in 0..3 {
            h.transfer(64 * 1024);
        }
        h
    }

    /// Streams `total` bytes client → server, draining as they
    /// arrive (window stays open).
    fn transfer(&mut self, total: usize) {
        const CHUNK: [u8; 64 * 1024] = [0x6b; 64 * 1024];
        let mut sent = 0;
        let mut got = 0;
        while got < total {
            if sent < total {
                let want = CHUNK.len().min(total - sent);
                let n = self
                    .net
                    .stack(self.ci)
                    .tcp_send_queued(self.client, &CHUNK[..want])
                    .unwrap_or(0);
                sent += n;
                self.net.stack(self.ci).flush_output().unwrap();
            }
            self.net.step();
            loop {
                let n = self
                    .net
                    .stack(self.si)
                    .tcp_recv_into(self.server, &mut self.buf)
                    .unwrap();
                if n == 0 {
                    break;
                }
                got += n;
            }
        }
    }

    fn tx_frames(&mut self) -> u64 {
        self.net.stack(self.ci).stats().tx_frames + self.net.stack(self.si).stats().tx_frames
    }
}

/// The receive-path harness: a per-MSS (non-TSO) sender streaming to a
/// receiver whose GRO and receive mode (zero-copy netbuf vs copy) are
/// the ablation axes. Unlike [`BulkHarness`] it drives the wire and
/// the two pumps separately (`Network::transfer`), timing **only the
/// receiver's share** — the pump that ingests the burst plus the
/// drain — so the cells isolate receive-path cost instead of diluting
/// it with sender-side segmentation.
struct RecvHarness {
    net: Network,
    ci: usize,
    si: usize,
    client: SocketHandle,
    server: SocketHandle,
    buf: Vec<u8>,
    bufs: Vec<uknetdev::netbuf::Netbuf>,
}

impl RecvHarness {
    fn new(gro: bool) -> Self {
        let mut net = Network::new();
        let ci = net.attach(mk_stack_recv(1, false, gro)); // tso off: per-MSS frames.
        let si = net.attach(mk_stack_recv(2, false, gro));
        let listener = net.stack(si).tcp_listen(9100).unwrap();
        let client = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9100))
            .unwrap();
        net.run_until_quiet(32);
        let server = net.stack(si).tcp_accept(listener).unwrap();
        let mut h = RecvHarness {
            net,
            ci,
            si,
            client,
            server,
            buf: vec![0; 64 * 1024],
            bufs: Vec::with_capacity(64),
        };
        for _ in 0..3 {
            h.transfer(64 * 1024, true);
            h.transfer(64 * 1024, false);
        }
        h
    }

    /// Streams `total` bytes client → server and returns the seconds
    /// spent on the receiver's side (ingest pump + drain). `netbuf`
    /// selects the zero-copy drain (`tcp_recv_burst_netbuf`, buffers
    /// recycled) vs the copy drain (`tcp_recv_into`).
    fn transfer(&mut self, total: usize, netbuf: bool) -> f64 {
        const CHUNK: [u8; 64 * 1024] = [0x6b; 64 * 1024];
        let mut recv_secs = 0.0;
        let mut sent = 0;
        let mut got = 0;
        while got < total {
            if sent < total {
                let want = CHUNK.len().min(total - sent);
                let n = self
                    .net
                    .stack(self.ci)
                    .tcp_send_queued(self.client, &CHUNK[..want])
                    .unwrap_or(0);
                sent += n;
                self.net.stack(self.ci).flush_output().unwrap();
            }
            self.net.transfer(); // Data frames to the receiver.
            let t0 = Instant::now();
            self.net.stack(self.si).pump();
            if netbuf {
                loop {
                    let n = self
                        .net
                        .stack(self.si)
                        .tcp_recv_burst_netbuf(self.server, &mut self.bufs, 64);
                    if n == 0 {
                        break;
                    }
                    for nb in self.bufs.drain(..) {
                        got += nb.payload().len();
                        self.net.stack(self.si).recycle(nb);
                    }
                }
            } else {
                loop {
                    let n = self
                        .net
                        .stack(self.si)
                        .tcp_recv_into(self.server, &mut self.buf)
                        .unwrap();
                    if n == 0 {
                        break;
                    }
                    got += n;
                }
            }
            recv_secs += t0.elapsed().as_secs_f64();
            self.net.transfer(); // ACKs / window updates back.
            self.net.stack(self.ci).pump();
        }
        recv_secs
    }

    fn rx_frames(&mut self) -> u64 {
        self.net.stack(self.si).stats().rx_frames
    }

    fn gro_runs(&mut self) -> u64 {
        self.net.stack(self.si).stats().gro_runs
    }
}

/// The loss-recovery harness: a per-MSS (non-TSO) sender — the frame
/// shape the testnet fault injector acts on — streaming through a
/// lossy wire with a shared virtual clock arming the retransmission
/// timers. The congestion-control ablation switch and the drop cadence
/// are the matrix axes; goodput is application bytes delivered per
/// wall-clock second, recovery overhead included.
struct LossHarness {
    net: Network,
    ci: usize,
    si: usize,
    client: SocketHandle,
    server: SocketHandle,
    buf: Vec<u8>,
    /// Wire steps driven so far (5 ms of virtual time each). The
    /// recovery grid measures goodput against this virtual clock —
    /// deterministic given the deterministic fault schedule, so its
    /// gates are exact instead of wall-clock-noise-tolerant.
    steps: u64,
}

impl LossHarness {
    /// The PR 7 matrix shape: drop cadence as the only fault.
    fn new(cc: bool, drop_every: u64) -> Self {
        Self::with_wire(cc, drop_every, 0, (0, 0))
    }

    /// Full-grid constructor: the adjacent-reorder cadence and a
    /// `(every, len)` drop-burst schedule become axes alongside the
    /// drop rate.
    fn with_wire(cc: bool, drop_every: u64, reorder_every: u64, burst: (u64, u64)) -> Self {
        let mk = |n: u8| {
            let tsc = Tsc::new(ukplat::cost::CPU_FREQ_HZ);
            let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
            dev.configure(NetDevConf::default()).unwrap();
            let mut cfg = StackConfig::node(n);
            cfg.tso = false; // Plain per-MSS frames: droppable.
            cfg.congestion_control = cc;
            NetStack::new(cfg, Box::new(dev))
        };
        let mut net = Network::new();
        let ci = net.attach(mk(1));
        let si = net.attach(mk(2));
        let clock = Tsc::new(1_000_000_000); // 1 cycle = 1 ns.
        net.set_clock(&clock);
        // 5 ms of virtual time per step: RTO waits (200 ms floor) cost
        // tens of steps, not thousands, while lossless cells never wait.
        net.set_step_ns(5_000_000);
        // Establish on a clean wire, then arm the schedule.
        let listener = net.stack(si).tcp_listen(9200).unwrap();
        let client = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9200))
            .unwrap();
        net.run_until_quiet(32);
        let server = net.stack(si).tcp_accept(listener).unwrap();
        net.set_drop_every(drop_every);
        net.set_reorder_every(reorder_every);
        net.set_drop_burst(burst.0, burst.1);
        let mut h = LossHarness {
            net,
            ci,
            si,
            client,
            server,
            buf: vec![0; 64 * 1024],
            steps: 0,
        };
        for _ in 0..3 {
            h.transfer(64 * 1024);
        }
        h
    }

    /// Streams `total` bytes client → server through the lossy wire,
    /// draining as they arrive.
    fn transfer(&mut self, total: usize) {
        const CHUNK: [u8; 64 * 1024] = [0x6b; 64 * 1024];
        let mut sent = 0;
        let mut got = 0;
        while got < total {
            if sent < total {
                let want = CHUNK.len().min(total - sent);
                let n = self
                    .net
                    .stack(self.ci)
                    .tcp_send_queued(self.client, &CHUNK[..want])
                    .unwrap_or(0);
                sent += n;
                self.net.stack(self.ci).flush_output().unwrap();
            }
            self.net.step();
            self.steps += 1;
            loop {
                let n = self
                    .net
                    .stack(self.si)
                    .tcp_recv_into(self.server, &mut self.buf)
                    .unwrap();
                if n == 0 {
                    break;
                }
                got += n;
            }
        }
    }

    /// The sender's per-connection counters.
    fn counters(&mut self) -> TcpCounters {
        self.net.stack(self.ci).tcp_counters(self.client)
    }

    fn tx_frames(&mut self) -> u64 {
        self.net.stack(self.ci).stats().tx_frames + self.net.stack(self.si).stats().tx_frames
    }
}

/// Resident-set size of this process (Linux `statm`), the basis of the
/// memory-vs-connection-count cells. Coarse (page granularity, shared
/// pages included) but the deltas at 10K–100K connections are tens of
/// megabytes — far above the noise.
fn rss_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    pages * 4096
}

/// Reads one `ukstats` counter (0 when stats are compiled out).
fn stat_counter(name: &str) -> u64 {
    ukstats::snapshot().counter(name).unwrap_or(0)
}

/// The connection-scale harness: one lean-TCB server stack holding
/// thousands of established-but-idle connections (forged handshakes
/// from spoofed peers, completed through the wire capture), plus one
/// real client connection threading the population so the hot path
/// can be timed — and allocation-checked — at scale.
struct ScaleHarness {
    net: Network,
    ci: usize,
    si: usize,
    listener: SocketHandle,
    client: SocketHandle,
    server: SocketHandle,
    established: Vec<SocketHandle>,
    next_peer: usize,
    buf: Vec<u8>,
}

impl ScaleHarness {
    fn new() -> Self {
        let mk = |n: u8, lean: bool| {
            let tsc = Tsc::new(ukplat::cost::CPU_FREQ_HZ);
            let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
            dev.configure(NetDevConf::default()).unwrap();
            let mut cfg = StackConfig::node(n);
            cfg.lean_tcbs = lean;
            cfg.listen_backlog = 1024;
            NetStack::new(cfg, Box::new(dev))
        };
        let mut net = Network::new();
        let ci = net.attach(mk(1, false));
        let si = net.attach(mk(2, true));
        let clock = Tsc::new(1_000_000_000); // 1 cycle = 1 ns.
        net.set_clock(&clock);
        net.set_step_ns(1_000_000); // 1 ms per step.
        let listener = net.stack(si).tcp_listen(9300).unwrap();
        let client = net
            .stack(ci)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9300))
            .unwrap();
        net.run_until_quiet(32);
        let server = net.stack(si).tcp_accept(listener).unwrap();
        let mut h = ScaleHarness {
            net,
            ci,
            si,
            listener,
            client,
            server,
            established: Vec::new(),
            next_peer: 0,
            buf: vec![0; 4096],
        };
        for _ in 0..8 {
            h.echo();
        }
        h
    }

    /// Grows the idle population to `target` established connections,
    /// in waves sized to the accept backlog.
    fn grow_to(&mut self, target: usize) {
        while self.established.len() < target {
            let wave = (target - self.established.len()).min(512);
            let done = self
                .net
                .forge_established(self.si, 9300, self.next_peer, wave, 64);
            assert_eq!(done, wave, "every forged handshake completed");
            self.next_peer += wave;
            while let Some(h) = self.net.stack(self.si).tcp_accept(self.listener) {
                self.established.push(h);
            }
        }
        assert_eq!(self.established.len(), target, "population reached");
    }

    /// One 512 B echo round-trip on the live connection threading the
    /// idle population — the hot path whose cost and allocation count
    /// the scale cells measure.
    fn echo(&mut self) {
        self.net
            .stack(self.ci)
            .tcp_send(self.client, &[0x42; 512])
            .unwrap();
        self.net.run_until_quiet(32);
        let n = self
            .net
            .stack(self.si)
            .tcp_recv_into(self.server, &mut self.buf)
            .unwrap();
        let buf = std::mem::take(&mut self.buf);
        self.net
            .stack(self.si)
            .tcp_send(self.server, &buf[..n])
            .unwrap();
        self.buf = buf;
        self.net.run_until_quiet(32);
        self.net
            .stack(self.ci)
            .tcp_recv_into(self.client, &mut self.buf)
            .unwrap();
    }
}

/// One row of the connection-scale grid.
struct ScaleRow {
    name: String,
    conns: usize,
    setup_per_s: f64,
    rss_bytes_per_conn: f64,
    echo_rtt_per_s: f64,
    allocs_per_rtt: f64,
    stats: String,
}

/// Connect/accept/close cycle rate on a clocked two-node net (active
/// closer walks FIN_WAIT → TIME_WAIT; the wheel reaps 2MSL parks as
/// virtual time advances, so TIME_WAIT population stays bounded while
/// cycles run back-to-back).
fn conn_churn_rate(cycles: usize) -> (f64, u64) {
    let mk = |n: u8| {
        let tsc = Tsc::new(ukplat::cost::CPU_FREQ_HZ);
        let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
        dev.configure(NetDevConf::default()).unwrap();
        NetStack::new(StackConfig::node(n), Box::new(dev))
    };
    let mut net = Network::new();
    let ci = net.attach(mk(1));
    let si = net.attach(mk(2));
    let clock = Tsc::new(1_000_000_000);
    net.set_clock(&clock);
    net.set_step_ns(5_000_000); // 5 ms: TIME_WAIT drains across cycles.
    let listener = net.stack(si).tcp_listen(9400).unwrap();
    let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9400);
    // Warmup.
    for _ in 0..16 {
        let c = net.stack(ci).tcp_connect(ep).unwrap();
        net.run_until_quiet(32);
        let s = net.stack(si).tcp_accept(listener).unwrap();
        net.stack(ci).tcp_close(c).unwrap();
        net.stack(si).tcp_close(s).unwrap();
        net.run_until_quiet(32);
    }
    let tw0 = stat_counter("netstack.tcp.timewait");
    let start = Instant::now();
    for _ in 0..cycles {
        let c = net.stack(ci).tcp_connect(ep).unwrap();
        net.run_until_quiet(32);
        let s = net.stack(si).tcp_accept(listener).expect("cycle accepted");
        net.stack(ci).tcp_close(c).unwrap();
        net.stack(si).tcp_close(s).unwrap();
        net.run_until_quiet(32);
    }
    let elapsed = start.elapsed().as_secs_f64();
    (
        cycles as f64 / elapsed,
        stat_counter("netstack.tcp.timewait") - tw0,
    )
}

/// Accept throughput for a legitimate client while a SYN flood ten
/// times the listener's backlog hammers the same port each round.
/// Returns `(accepts_per_s, syn_overflow_delta)` — and panics if the
/// legitimate client ever fails to get through, since surviving the
/// flood is the property the cell exists to measure.
fn accept_rate_under_flood(rounds: usize) -> (f64, u64) {
    let mk = |n: u8| {
        let tsc = Tsc::new(ukplat::cost::CPU_FREQ_HZ);
        let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
        dev.configure(NetDevConf::default()).unwrap();
        NetStack::new(StackConfig::node(n), Box::new(dev)) // backlog 64.
    };
    let mut net = Network::new();
    let ci = net.attach(mk(1));
    let si = net.attach(mk(2));
    let clock = Tsc::new(1_000_000_000);
    net.set_clock(&clock);
    net.set_step_ns(5_000_000);
    let listener = net.stack(si).tcp_listen(9500).unwrap();
    let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9500);
    let backlog = 64;
    let mut base = 0;
    let overflow0 = stat_counter("netstack.tcp.syn_overflow");
    let start = Instant::now();
    for _ in 0..rounds {
        net.syn_flood(si, 9500, base, 10 * backlog, 32);
        base += 10 * backlog;
        let c = net.stack(ci).tcp_connect(ep).unwrap();
        net.run_until_quiet(48);
        let s = net
            .stack(si)
            .tcp_accept(listener)
            .expect("legitimate client accepted despite the flood");
        net.stack(ci).tcp_close(c).unwrap();
        net.stack(si).tcp_close(s).unwrap();
        net.run_until_quiet(32);
    }
    let elapsed = start.elapsed().as_secs_f64();
    (
        rounds as f64 / elapsed,
        stat_counter("netstack.tcp.syn_overflow") - overflow0,
    )
}

fn bench_tcp_echo(c: &mut Criterion) {
    let mut g = c.benchmark_group("netpath/tcp_echo_512B");
    for (label, pools) in [("pooled", true), ("heap_bufs", false)] {
        g.bench_function(label, |b| {
            let mut h = TcpHarness::new(pools, true);
            b.iter(|| h.round_trip(&[0x42; 512]));
        });
    }
    g.bench_function("burst32", |b| {
        let mut h = TcpHarness::new(true, true);
        b.iter(|| h.burst_round_trip(&[0x42; 512]));
    });
    g.finish();
}

fn bench_udp_rtt(c: &mut Criterion) {
    let mut g = c.benchmark_group("netpath/udp_rtt_256B");
    for (label, pools) in [("pooled", true), ("heap_bufs", false)] {
        g.bench_function(label, |b| {
            let mut h = UdpHarness::new(pools, true);
            b.iter(|| h.round_trip(&[0x5a; 256]));
        });
    }
    g.bench_function("burst32", |b| {
        let mut h = UdpHarness::new(true, true);
        b.iter(|| h.burst_round_trip(&[0x5a; 256]));
    });
    g.finish();
}

/// One row of the ablation report.
struct Row {
    name: &'static str,
    proto: &'static str,
    mode: &'static str,
    pooled: bool,
    csum_offload: bool,
    rtt_per_s: f64,
    ns_per_rtt: f64,
    allocs_per_frame: f64,
    /// `ukstats` counter deltas inside the timed window (JSON object).
    stats: String,
}

/// One row of the bulk-throughput ablation matrix.
struct BulkRow {
    name: String,
    transfer_bytes: usize,
    tso: bool,
    rx_csum: bool,
    bytes_per_s: f64,
    mib_per_s: f64,
    allocs_per_frame: f64,
    stats: String,
}

/// One row of the receive-path ablation matrix (per-MSS sender;
/// receiver-side time only).
struct RecvRow {
    name: String,
    transfer_bytes: usize,
    gro: bool,
    netbuf_recv: bool,
    recv_bytes_per_s: f64,
    recv_mib_per_s: f64,
    allocs_per_frame: f64,
    stats: String,
}

/// One row of the goodput-vs-loss matrix (per-MSS sender over a lossy
/// wire; congestion control as the ablation switch).
struct LossRow {
    name: String,
    drop_every: u64,
    cc: bool,
    bytes_per_s: f64,
    mib_per_s: f64,
    goodput_vs_lossless: f64,
    rto_fires: u64,
    retransmits: u64,
    fast_retransmits: u64,
    stats: String,
}

/// One row of the recovery grid: one wire fault schedule on the
/// SACK + RACK-TLP engine (cc always on — the deployment shape the
/// recovery machinery has to win in).
struct RecoveryRow {
    name: String,
    drop_every: u64,
    reorder_every: u64,
    burst_every: u64,
    burst_len: u64,
    bytes_per_s: f64,
    mib_per_s: f64,
    goodput_vs_lossless: f64,
    /// Virtual wire steps (5 ms each) to complete the cell's
    /// transfers — deterministic, the basis of the A/B gates.
    wire_steps: u64,
    allocs_per_frame: f64,
    rto_fires: u64,
    retransmits: u64,
    fast_retransmits: u64,
    sack_rtx: u64,
    spurious_rtx: u64,
    tlp_probes: u64,
    stats: String,
}

/// The ablation matrix: per-frame vs burst, offload on/off, pooled vs
/// heap — rtt/s, ns/RTT and allocs/frame for each. Zero allocations
/// per frame is a hard guarantee on every pooled configuration.
fn ablation_report(json_path: Option<&str>) {
    const ROUNDS: u64 = 2_000;
    const BURST_ROUNDS: u64 = 250;

    /// Times `rounds` turns, each worth `rtts_per_round` round-trips.
    fn run_tcp(
        h: &mut TcpHarness,
        rounds: u64,
        burst: bool,
    ) -> (f64, f64, f64, String) {
        let before = h.tx_frames();
        let sbase = ukstats::snapshot();
        let counter = AllocCounter::start();
        let start = Instant::now();
        for _ in 0..rounds {
            if burst {
                h.burst_round_trip(&[0x42; 512]);
            } else {
                h.round_trip(&[0x42; 512]);
            }
        }
        let elapsed = start.elapsed();
        let allocs = counter.allocs();
        let rtts = (rounds * if burst { BURST as u64 } else { 1 }) as f64;
        let frames = (h.tx_frames() - before).max(1);
        (
            rtts / elapsed.as_secs_f64(),
            elapsed.as_nanos() as f64 / rtts,
            allocs as f64 / frames as f64,
            stats_delta_json(&sbase),
        )
    }

    let mut rows: Vec<Row> = Vec::new();
    for (name, mode, pooled, offload) in [
        ("tcp_per_frame/offload", "per_frame", true, true),
        ("tcp_per_frame/no_offload", "per_frame", true, false),
        ("tcp_burst32/offload", "burst32", true, true),
        ("tcp_burst32/no_offload", "burst32", true, false),
        // The PR 2 pooled-vs-heap ablation, kept for continuity.
        ("tcp_per_frame/heap_bufs", "per_frame", false, true),
    ] {
        let burst = mode == "burst32";
        let mut h = TcpHarness::new(pooled, offload);
        let rounds = if burst { BURST_ROUNDS } else { ROUNDS };
        let (rtt_per_s, ns_per_rtt, allocs_per_frame, stats) = run_tcp(&mut h, rounds, burst);
        rows.push(Row {
            name,
            proto: "tcp_512B",
            mode,
            pooled,
            csum_offload: offload,
            rtt_per_s,
            ns_per_rtt,
            allocs_per_frame,
            stats,
        });
    }

    for (name, mode, offload) in [
        ("udp_per_frame/offload", "per_frame", true),
        ("udp_burst32/offload", "burst32", true),
        ("udp_burst32/no_offload", "burst32", false),
    ] {
        let mut h = UdpHarness::new(true, offload);
        let sbase = ukstats::snapshot();
        let counter = AllocCounter::start();
        let start = Instant::now();
        let rtts = if mode == "per_frame" {
            for _ in 0..ROUNDS {
                h.round_trip(&[0x5a; 256]);
            }
            ROUNDS as f64
        } else {
            for _ in 0..BURST_ROUNDS {
                h.burst_round_trip(&[0x5a; 256]);
            }
            (BURST_ROUNDS * BURST as u64) as f64
        };
        let elapsed = start.elapsed();
        let allocs = counter.allocs();
        // Each UDP round-trip is exactly two frames.
        rows.push(Row {
            name,
            proto: "udp_256B",
            mode,
            pooled: true,
            csum_offload: offload,
            rtt_per_s: rtts / elapsed.as_secs_f64(),
            ns_per_rtt: elapsed.as_nanos() as f64 / rtts,
            allocs_per_frame: allocs as f64 / (rtts * 2.0),
            stats: stats_delta_json(&sbase),
        });
    }

    ukcore::log_info!(
        "{:<28} {:>12} {:>10} {:>14}",
        "netpath/ablation", "rtt/s", "ns/RTT", "allocs/frame"
    );
    for r in &rows {
        ukcore::log_info!(
            "{:<28} {:>12.0} {:>10.0} {:>14.3}",
            r.name, r.rtt_per_s, r.ns_per_rtt, r.allocs_per_frame
        );
        if r.pooled {
            assert_eq!(
                r.allocs_per_frame, 0.0,
                "pooled datapath must not touch the heap ({})",
                r.name
            );
        }
    }

    // --- Bulk-throughput matrix: {4 KB, 64 KB, 1 MB} × tso × rx_csum.
    let mut bulk_rows: Vec<BulkRow> = Vec::new();
    for (size, label, reps) in [
        (4 * 1024, "4KB", 600u64),
        (64 * 1024, "64KB", 120u64),
        (1024 * 1024, "1MB", 10u64),
    ] {
        for (tso, rx_csum) in [(true, true), (true, false), (false, true), (false, false)] {
            let mut h = BulkHarness::new(tso, rx_csum);
            // Per-size warmup: scratch and ring capacities reach the
            // steady state of *this* transfer size before counting
            // (the deepest backlogs take a few transfers to appear).
            for _ in 0..8 {
                h.transfer(size);
            }
            let frames_before = h.tx_frames();
            let sbase = ukstats::snapshot();
            let counter = AllocCounter::start();
            let start = Instant::now();
            for _ in 0..reps {
                h.transfer(size);
            }
            let elapsed = start.elapsed().as_secs_f64();
            let allocs = counter.allocs();
            let stats = stats_delta_json(&sbase);
            let frames = (h.tx_frames() - frames_before).max(1);
            let total = (size as u64 * reps) as f64;
            bulk_rows.push(BulkRow {
                name: format!(
                    "tcp_bulk_{label}/{}{}",
                    if tso { "tso" } else { "sw_seg" },
                    if rx_csum { "" } else { "+rx_sw_csum" }
                ),
                transfer_bytes: size,
                tso,
                rx_csum,
                bytes_per_s: total / elapsed,
                mib_per_s: total / elapsed / (1024.0 * 1024.0),
                allocs_per_frame: allocs as f64 / frames as f64,
                stats,
            });
        }
    }
    ukcore::log_info!(
        "{:<28} {:>12} {:>14}",
        "netpath/bulk", "MiB/s", "allocs/frame"
    );
    for r in &bulk_rows {
        ukcore::log_info!(
            "{:<28} {:>12.1} {:>14.3}",
            r.name, r.mib_per_s, r.allocs_per_frame
        );
        assert_eq!(
            r.allocs_per_frame, 0.0,
            "bulk pooled datapath must not touch the heap ({})",
            r.name
        );
    }
    // --- Receive-path matrix: {64 KB, 1 MB} × gro × {netbuf, copy}.
    // A per-MSS (non-TSO) sender streams; only the *receiver's* time
    // (ingest pump + drain) is on the clock, so the cells measure what
    // GRO coalescing and zero-copy receive actually buy on ingest.
    let mut recv_rows: Vec<RecvRow> = Vec::new();
    for (size, label, reps) in [(64 * 1024, "64KB", 1200u64), (1024 * 1024, "1MB", 80u64)] {
        for (gro, netbuf) in [(true, true), (true, false), (false, true), (false, false)] {
            let mut h = RecvHarness::new(gro);
            for _ in 0..12 {
                h.transfer(size, netbuf);
            }
            let frames_before = h.rx_frames();
            let runs_before = h.gro_runs();
            let sbase = ukstats::snapshot();
            let counter = AllocCounter::start();
            let mut recv_secs = 0.0;
            for _ in 0..reps {
                recv_secs += h.transfer(size, netbuf);
            }
            let allocs = counter.allocs();
            let stats = stats_delta_json(&sbase);
            let frames = (h.rx_frames() - frames_before).max(1);
            if gro {
                assert!(h.gro_runs() > runs_before, "GRO engaged on {label}");
            }
            let total = (size as u64 * reps) as f64;
            recv_rows.push(RecvRow {
                name: format!(
                    "tcp_recv_{label}/{}+{}",
                    if gro { "gro" } else { "nogro" },
                    if netbuf { "netbuf" } else { "copy" }
                ),
                transfer_bytes: size,
                gro,
                netbuf_recv: netbuf,
                recv_bytes_per_s: total / recv_secs,
                recv_mib_per_s: total / recv_secs / (1024.0 * 1024.0),
                allocs_per_frame: allocs as f64 / frames as f64,
                stats,
            });
        }
    }
    ukcore::log_info!(
        "{:<28} {:>12} {:>14}",
        "netpath/recv (rx-side)", "MiB/s", "allocs/frame"
    );
    for r in &recv_rows {
        ukcore::log_info!(
            "{:<28} {:>12.1} {:>14.3}",
            r.name, r.recv_mib_per_s, r.allocs_per_frame
        );
        assert_eq!(
            r.allocs_per_frame, 0.0,
            "pooled receive path must not touch the heap ({})",
            r.name
        );
    }
    let recv_cell = |size: usize, gro: bool, netbuf: bool| {
        recv_rows
            .iter()
            .find(|r| r.transfer_bytes == size && r.gro == gro && r.netbuf_recv == netbuf)
            .expect("recv cell")
    };
    let recv_gro_speedup = recv_cell(64 * 1024, true, true).recv_bytes_per_s
        / recv_cell(64 * 1024, false, true).recv_bytes_per_s;
    let recv_gro_speedup_copy = recv_cell(64 * 1024, true, false).recv_bytes_per_s
        / recv_cell(64 * 1024, false, false).recv_bytes_per_s;
    let recv_netbuf_speedup = recv_cell(64 * 1024, true, true).recv_bytes_per_s
        / recv_cell(64 * 1024, true, false).recv_bytes_per_s;
    ukcore::log_info!(
        "netpath/recv 64KB speedups: gro {recv_gro_speedup:.2}x (netbuf recv; \
         {recv_gro_speedup_copy:.2}x under copy recv), netbuf-vs-copy {recv_netbuf_speedup:.2}x"
    );

    // --- Goodput-vs-loss matrix: drop ∈ {0, 1/64, 1/16, 1/8} × cc.
    // A per-MSS sender streams 1 MB per rep through a lossy wire with
    // the retransmission timers armed; goodput is application bytes
    // per wall-clock second with all recovery overhead (dup-ACKs,
    // retransmits, RTO waits) on the bill. Each cell also records what
    // the recovery actually did.
    let mut loss_rows: Vec<LossRow> = Vec::new();
    const LOSS_TOTAL: usize = 1024 * 1024;
    for cc in [true, false] {
        for (drop_every, label, reps) in [
            (0u64, "lossless", 8u64),
            (64, "1_64", 4),
            (16, "1_16", 4),
            (8, "1_8", 2),
        ] {
            let mut h = LossHarness::new(cc, drop_every);
            for _ in 0..2 {
                h.transfer(LOSS_TOTAL);
            }
            let c0 = h.counters();
            let sbase = ukstats::snapshot();
            let start = Instant::now();
            for _ in 0..reps {
                h.transfer(LOSS_TOTAL);
            }
            let elapsed = start.elapsed().as_secs_f64();
            let stats = stats_delta_json(&sbase);
            let d = h.counters().since(&c0);
            let total = (LOSS_TOTAL as u64 * reps) as f64;
            loss_rows.push(LossRow {
                name: format!(
                    "tcp_loss_1mb/drop_{label}/{}",
                    if cc { "cc" } else { "nocc" }
                ),
                drop_every,
                cc,
                bytes_per_s: total / elapsed,
                mib_per_s: total / elapsed / (1024.0 * 1024.0),
                goodput_vs_lossless: 0.0, // Filled against the baseline below.
                rto_fires: d.rto_fires,
                retransmits: d.retransmits,
                fast_retransmits: d.fast_retransmits,
                stats,
            });
        }
    }
    for i in 0..loss_rows.len() {
        let base = loss_rows
            .iter()
            .find(|r| r.cc == loss_rows[i].cc && r.drop_every == 0)
            .expect("lossless baseline")
            .bytes_per_s;
        loss_rows[i].goodput_vs_lossless = loss_rows[i].bytes_per_s / base;
        if loss_rows[i].drop_every > 0 {
            assert!(
                loss_rows[i].retransmits > 0,
                "losses were repaired by retransmission ({})",
                loss_rows[i].name
            );
        }
    }
    ukcore::log_info!(
        "{:<28} {:>12} {:>12} {:>8} {:>8} {:>8}",
        "netpath/loss", "MiB/s", "vs lossless", "rtx", "fast", "rto"
    );
    for r in &loss_rows {
        ukcore::log_info!(
            "{:<28} {:>12.1} {:>11.0}% {:>8} {:>8} {:>8}",
            r.name,
            r.mib_per_s,
            r.goodput_vs_lossless * 100.0,
            r.retransmits,
            r.fast_retransmits,
            r.rto_fires
        );
    }
    let loss_cell = |drop: u64, cc: bool| {
        loss_rows
            .iter()
            .find(|r| r.drop_every == drop && r.cc == cc)
            .expect("loss cell")
    };
    let goodput_1_64 = loss_cell(64, true).goodput_vs_lossless;
    ukcore::log_info!(
        "netpath/loss headline: {:.0}% of lossless goodput at 1/64 drop (cc on), \
         {:.0}% at 1/16, {:.0}% at 1/8",
        goodput_1_64 * 100.0,
        loss_cell(16, true).goodput_vs_lossless * 100.0,
        loss_cell(8, true).goodput_vs_lossless * 100.0
    );
    assert!(
        goodput_1_64 >= 0.5,
        "goodput at 1/64 drop must hold at least half the lossless baseline \
         (got {:.0}%)",
        goodput_1_64 * 100.0
    );

    // --- Recovery grid: wire ∈ {lossless, 1/8 drop, reorder, both,
    // burst drop} on the SACK + RACK-TLP engine, cc on. Same per-MSS
    // 1 MB stream as the loss matrix. Each cell records two clocks:
    // wall-clock goodput (comparable to the loss matrix and the PR 7
    // baseline) and the *virtual* wire-step count — the testnet and
    // its fault schedule are deterministic, so step counts are exactly
    // reproducible. Each cell also records what the scoreboard, the
    // reordering window and the tail-loss probe actually did, and the
    // lossless cell stays allocation-free.
    let mut rec_rows: Vec<RecoveryRow> = Vec::new();
    for (drop_every, reorder_every, burst, wlabel) in [
        (0u64, 0u64, (0u64, 0u64), "lossless"),
        (8, 0, (0, 0), "drop_1_8"),
        (0, 3, (0, 0), "reorder_3"),
        (8, 3, (0, 0), "drop_1_8_reorder_3"),
        // Consecutive frames lost inside one window: the holes behind
        // the first are the scoreboard's to retransmit.
        (0, 0, (64, 4), "burst_64x4"),
    ] {
        let mut h = LossHarness::with_wire(true, drop_every, reorder_every, burst);
        for _ in 0..3 {
            h.transfer(LOSS_TOTAL); // Warm reps on the armed wire.
        }
        let c0 = h.counters();
        let frames0 = h.tx_frames();
        let steps0 = h.steps;
        let sbase = ukstats::snapshot();
        let counter = AllocCounter::start();
        let start = Instant::now();
        let reps = 2u64;
        for _ in 0..reps {
            h.transfer(LOSS_TOTAL);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let wire_steps = h.steps - steps0;
        let allocs = counter.allocs();
        let stats = stats_delta_json(&sbase);
        let frames = (h.tx_frames() - frames0).max(1);
        let d = h.counters().since(&c0);
        let total = (LOSS_TOTAL as u64 * reps) as f64;
        rec_rows.push(RecoveryRow {
            name: format!("tcp_recovery_1mb/{wlabel}"),
            drop_every,
            reorder_every,
            burst_every: burst.0,
            burst_len: burst.1,
            bytes_per_s: total / elapsed,
            mib_per_s: total / elapsed / (1024.0 * 1024.0),
            goodput_vs_lossless: 0.0, // Filled below.
            wire_steps,
            allocs_per_frame: allocs as f64 / frames as f64,
            rto_fires: d.rto_fires,
            retransmits: d.retransmits,
            fast_retransmits: d.fast_retransmits,
            sack_rtx: d.sack_rtx,
            spurious_rtx: d.spurious_rtx,
            tlp_probes: d.tlp_probes,
            stats,
        });
    }
    let lossless_bps = rec_rows[0].bytes_per_s;
    for r in &mut rec_rows {
        r.goodput_vs_lossless = r.bytes_per_s / lossless_bps;
    }
    ukcore::log_info!(
        "{:<44} {:>9} {:>11} {:>6} {:>6} {:>6} {:>6} {:>8} {:>6}",
        "netpath/recovery", "MiB/s", "vs lossless", "steps", "rtx", "fast", "rto", "sack", "tlp"
    );
    for r in &rec_rows {
        ukcore::log_info!(
            "{:<44} {:>9.1} {:>10.0}% {:>6} {:>6} {:>6} {:>6} {:>8} {:>6}",
            r.name,
            r.mib_per_s,
            r.goodput_vs_lossless * 100.0,
            r.wire_steps,
            r.retransmits,
            r.fast_retransmits,
            r.rto_fires,
            r.sack_rtx,
            r.tlp_probes
        );
    }
    let rec_cell = |wlabel: &str| {
        rec_rows
            .iter()
            .find(|r| r.name.ends_with(wlabel))
            .expect("recovery cell")
    };
    // Gate: the engine holds ≥ 32% of its lossless baseline at a
    // 1-in-8 drop — twice the PR 7 figure (16%).
    let headline_1_8 = rec_cell("/drop_1_8").goodput_vs_lossless;
    let reorder = rec_cell("/reorder_3");
    ukcore::log_info!(
        "netpath/recovery headline: {:.0}% of lossless goodput at 1/8 drop \
         (cc on); reorder-only false fast-rtx = {}",
        headline_1_8 * 100.0,
        reorder.fast_retransmits
    );
    assert!(
        headline_1_8 >= 0.32,
        "goodput at 1/8 drop must hold at least 32% of lossless \
         (2x the PR 7 baseline; got {:.0}%)",
        headline_1_8 * 100.0
    );
    // Gate: reorder-only wires never trigger a false fast retransmit
    // with the reordering window armed.
    assert_eq!(
        reorder.fast_retransmits, 0,
        "zero false fast retransmits on the reorder-only wire ({})",
        reorder.name
    );
    assert_eq!(
        reorder.retransmits, 0,
        "zero spurious data retransmissions on the reorder-only wire ({})",
        reorder.name
    );
    // Gate: a loss burst leaves holes behind the first, and the
    // scoreboard retransmits them.
    let burst = rec_cell("/burst_64x4");
    assert!(
        burst.sack_rtx > 0,
        "the burst-drop cell must exercise the SACK scoreboard ({})",
        burst.name
    );
    // Gate: the lossless cell stays allocation-free per frame with the
    // whole recovery engine armed.
    assert_eq!(
        rec_rows[0].allocs_per_frame, 0.0,
        "lossless recovery cell must stay allocation-free ({})",
        rec_rows[0].name
    );

    // --- Connection-scale grid: 1K / 10K / 100K established-idle
    // connections resident on one lean-TCB stack (forged handshakes
    // completed through the wire capture). Each cell records the
    // establishment rate, resident memory per connection (linear in
    // conn count is the claim), and the echo hot path threading the
    // idle population — which must stay allocation-free at every
    // scale.
    let mut scale_rows: Vec<ScaleRow> = Vec::new();
    {
        let mut h = ScaleHarness::new();
        let rss0 = rss_bytes();
        let mut prev_conns = 0usize;
        for (target, echo_reps) in [(1_000usize, 400u64), (10_000, 200), (100_000, 100)] {
            let sbase = ukstats::snapshot();
            let start = Instant::now();
            h.grow_to(target);
            let setup_secs = start.elapsed().as_secs_f64();
            let setup_per_s = (target - prev_conns) as f64 / setup_secs;
            prev_conns = target;
            let rss_per_conn = rss_bytes().saturating_sub(rss0) as f64 / target as f64;
            for _ in 0..8 {
                h.echo(); // Re-warm after the growth phase.
            }
            let counter = AllocCounter::start();
            let start = Instant::now();
            for _ in 0..echo_reps {
                h.echo();
            }
            let elapsed = start.elapsed().as_secs_f64();
            let allocs = counter.allocs();
            let stats = stats_delta_json(&sbase);
            scale_rows.push(ScaleRow {
                name: format!("tcp_scale/{}k_conns", target / 1000),
                conns: target,
                setup_per_s,
                rss_bytes_per_conn: rss_per_conn,
                echo_rtt_per_s: echo_reps as f64 / elapsed,
                allocs_per_rtt: allocs as f64 / echo_reps as f64,
                stats,
            });
        }
    }
    ukcore::log_info!(
        "{:<28} {:>10} {:>12} {:>12} {:>12}",
        "netpath/scale", "conns", "setup/s", "B/conn", "echo rtt/s"
    );
    for r in &scale_rows {
        ukcore::log_info!(
            "{:<28} {:>10} {:>12.0} {:>12.0} {:>12.0}",
            r.name, r.conns, r.setup_per_s, r.rss_bytes_per_conn, r.echo_rtt_per_s
        );
        assert_eq!(
            r.allocs_per_rtt, 0.0,
            "echo hot path must stay allocation-free with {} idle conns resident",
            r.conns
        );
    }
    let scale_cell = |conns: usize| {
        scale_rows
            .iter()
            .find(|r| r.conns == conns)
            .expect("scale cell")
    };
    let b_100k = scale_cell(100_000).rss_bytes_per_conn;
    let b_10k = scale_cell(10_000).rss_bytes_per_conn;
    assert!(
        b_100k < 4096.0,
        "an idle connection must stay small ({b_100k:.0} B/conn at 100K)"
    );
    assert!(
        b_100k <= 3.0 * b_10k.max(256.0),
        "memory must stay linear in connection count \
         ({b_10k:.0} B/conn at 10K vs {b_100k:.0} B/conn at 100K)"
    );
    ukcore::log_info!(
        "netpath/scale headline: {b_100k:.0} B/conn resident at 100K idle connections, \
         hot path allocation-free at every scale"
    );

    // --- Lifecycle rates: connect/close churn (TIME_WAIT walked and
    // reaped by the wheel) and accept throughput under a 10×-backlog
    // SYN flood.
    let (churn_per_s, churn_timewait) = conn_churn_rate(800);
    let (flood_accepts_per_s, flood_overflow) = accept_rate_under_flood(24);
    assert!(
        churn_timewait >= 800,
        "every churn cycle parks in TIME_WAIT (saw {churn_timewait})"
    );
    assert!(
        flood_overflow > 0,
        "the flood must overflow the SYN queue for the cell to mean anything"
    );
    ukcore::log_info!(
        "netpath/lifecycle: {churn_per_s:.0} connect/close cycles/s, \
         {flood_accepts_per_s:.1} accepts/s under 10x-backlog SYN flood \
         ({flood_overflow} evictions)"
    );

    // The PR's headline: the 64 KB fast path (TSO + RX csum offload)
    // vs the all-software segmentation ablation.
    let fast = bulk_rows
        .iter()
        .find(|r| r.transfer_bytes == 64 * 1024 && r.tso && r.rx_csum)
        .expect("fast cell");
    let soft = bulk_rows
        .iter()
        .find(|r| r.transfer_bytes == 64 * 1024 && !r.tso && !r.rx_csum)
        .expect("software cell");
    let speedup_64k = fast.bytes_per_s / soft.bytes_per_s;
    let soft_tso_only = bulk_rows
        .iter()
        .find(|r| r.transfer_bytes == 64 * 1024 && !r.tso && r.rx_csum)
        .expect("tso-off cell");
    let speedup_64k_tso_only = fast.bytes_per_s / soft_tso_only.bytes_per_s;
    ukcore::log_info!(
        "netpath/bulk 64KB speedup: fast-path {speedup_64k:.2}x vs all-software \
         ({speedup_64k_tso_only:.2}x vs tso-off alone)"
    );

    if let Some(path) = json_path {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"bench\": \"netpath\",\n");
        out.push_str("  \"baseline_pr2\": { \"name\": \"tcp_per_frame/pooled\", \"rtt_per_s\": 470000, \"allocs_per_frame\": 0.0 },\n");
        out.push_str("  \"configs\": [\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"name\": \"{}\", \"proto\": \"{}\", \"mode\": \"{}\", \"pooled\": {}, \"csum_offload\": {}, \"rtt_per_s\": {:.0}, \"ns_per_rtt\": {:.1}, \"allocs_per_frame\": {:.3}, \"stats\": {} }}{}\n",
                r.name,
                r.proto,
                r.mode,
                r.pooled,
                r.csum_offload,
                r.rtt_per_s,
                r.ns_per_rtt,
                r.allocs_per_frame,
                r.stats,
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"bulk_configs\": [\n");
        for (i, r) in bulk_rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"name\": \"{}\", \"transfer_bytes\": {}, \"tso\": {}, \"rx_csum_offload\": {}, \"bytes_per_s\": {:.0}, \"mib_per_s\": {:.1}, \"allocs_per_frame\": {:.3}, \"stats\": {} }}{}\n",
                r.name,
                r.transfer_bytes,
                r.tso,
                r.rx_csum,
                r.bytes_per_s,
                r.mib_per_s,
                r.allocs_per_frame,
                r.stats,
                if i + 1 == bulk_rows.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"recv_configs\": [\n");
        for (i, r) in recv_rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"name\": \"{}\", \"transfer_bytes\": {}, \"gro\": {}, \"netbuf_recv\": {}, \"recv_bytes_per_s\": {:.0}, \"recv_mib_per_s\": {:.1}, \"allocs_per_frame\": {:.3}, \"stats\": {} }}{}\n",
                r.name,
                r.transfer_bytes,
                r.gro,
                r.netbuf_recv,
                r.recv_bytes_per_s,
                r.recv_mib_per_s,
                r.allocs_per_frame,
                r.stats,
                if i + 1 == recv_rows.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"loss_configs\": [\n");
        for (i, r) in loss_rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"name\": \"{}\", \"drop_every\": {}, \"congestion_control\": {}, \"bytes_per_s\": {:.0}, \"mib_per_s\": {:.1}, \"goodput_vs_lossless\": {:.3}, \"retransmits\": {}, \"fast_retransmits\": {}, \"rto_fires\": {}, \"stats\": {} }}{}\n",
                r.name,
                r.drop_every,
                r.cc,
                r.bytes_per_s,
                r.mib_per_s,
                r.goodput_vs_lossless,
                r.retransmits,
                r.fast_retransmits,
                r.rto_fires,
                r.stats,
                if i + 1 == loss_rows.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"recovery_configs\": [\n");
        for (i, r) in rec_rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"name\": \"{}\", \"drop_every\": {}, \"reorder_every\": {}, \"burst_every\": {}, \"burst_len\": {}, \"bytes_per_s\": {:.0}, \"mib_per_s\": {:.1}, \"goodput_vs_lossless\": {:.3}, \"wire_steps\": {}, \"allocs_per_frame\": {:.3}, \"retransmits\": {}, \"fast_retransmits\": {}, \"rto_fires\": {}, \"sack_rtx\": {}, \"spurious_rtx\": {}, \"tlp_probes\": {}, \"stats\": {} }}{}\n",
                r.name,
                r.drop_every,
                r.reorder_every,
                r.burst_every,
                r.burst_len,
                r.bytes_per_s,
                r.mib_per_s,
                r.goodput_vs_lossless,
                r.wire_steps,
                r.allocs_per_frame,
                r.retransmits,
                r.fast_retransmits,
                r.rto_fires,
                r.sack_rtx,
                r.spurious_rtx,
                r.tlp_probes,
                r.stats,
                if i + 1 == rec_rows.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"conn_scale_configs\": [\n");
        for (i, r) in scale_rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"name\": \"{}\", \"conns\": {}, \"setup_per_s\": {:.0}, \"rss_bytes_per_conn\": {:.0}, \"echo_rtt_per_s\": {:.0}, \"allocs_per_rtt\": {:.3}, \"stats\": {} }}{}\n",
                r.name,
                r.conns,
                r.setup_per_s,
                r.rss_bytes_per_conn,
                r.echo_rtt_per_s,
                r.allocs_per_rtt,
                r.stats,
                if i + 1 == scale_rows.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"conn_churn_cycles_per_s\": {churn_per_s:.0},\n"
        ));
        out.push_str(&format!(
            "  \"accept_per_s_under_10x_syn_flood\": {flood_accepts_per_s:.1},\n"
        ));
        out.push_str(&format!(
            "  \"loss_1_64_goodput_vs_lossless\": {goodput_1_64:.3},\n"
        ));
        out.push_str(&format!(
            "  \"recovery_1_8_goodput_vs_lossless_sack_rack\": {headline_1_8:.3},\n"
        ));
        out.push_str(&format!(
            "  \"recv_64k_gro_speedup\": {recv_gro_speedup:.2},\n"
        ));
        out.push_str(&format!(
            "  \"recv_64k_gro_speedup_copy_recv\": {recv_gro_speedup_copy:.2},\n"
        ));
        out.push_str(&format!(
            "  \"recv_64k_netbuf_vs_copy_speedup\": {recv_netbuf_speedup:.2},\n"
        ));
        out.push_str(&format!(
            "  \"bulk_64k_speedup_vs_all_software\": {speedup_64k:.2},\n"
        ));
        out.push_str(&format!(
            "  \"bulk_64k_speedup_vs_tso_off\": {speedup_64k_tso_only:.2},\n"
        ));
        // The whole registry as the run left it — heap gauges included
        // — so the snapshot in the file matches what `/stats` serves.
        ukalloc::stats::publish_heap_stats();
        out.push_str(&format!("  \"registry\": {}\n", ukstats::snapshot().to_json()));
        out.push_str("}\n");
        std::fs::write(path, out).expect("write bench json");
        ukcore::log_warn!("netpath/ablation written to {path}");
    }
}

criterion_group!(benches, bench_tcp_echo, bench_udp_rtt);

fn main() {
    benches();
    let args: Vec<String> = std::env::args().collect();
    let json = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    if json.is_some() {
        // Machine-readable run: suppress the Info-level tables so the
        // only bench output is the JSON file (and Warn+ diagnostics on
        // stderr).
        ukcore::ukdebug::set_global_level(ukcore::ukdebug::LogLevel::Warn);
    }
    ablation_report(json.as_deref());
}
