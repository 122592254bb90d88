//! The stack proper: interface, demux, sockets — zero-copy **burst**
//! datapath.
//!
//! A [`NetStack`] owns a `uk_netdev` device and implements the socket
//! path of the paper's architecture (scenario ➁) with the §3.1
//! buffer-ownership discipline end to end. Since the burst rework, the
//! unit of work at every layer boundary is *a burst of netbufs*, not a
//! single packet; the steady-state lifecycle of a buffer is:
//!
//! ```text
//! pool ─take──▶ payload write ─▶ headers prepended in place
//!      ─stage─▶ tx_burst (whole batch; checksum completed by the
//!      device when offloaded) ─▶ harvest_tx ─▶ wire DMA-copies onto
//!      the receiver's pooled RX buffers ─▶ deliver_burst (one
//!      inject_rx per burst) ─▶ pump: rx_burst ─▶ per-burst demux
//!      sweep ─▶ socket queues ─▶ *_recv_into ─▶ recycle ─▶ pool
//! ```
//!
//! - **TX** is one buffer from application to wire. Payload bytes are
//!   written once into a pooled [`Netbuf`] behind [`TX_HEADROOM`]
//!   bytes of headroom; TCP/UDP/ICMP, IPv4 and Ethernet each *prepend*
//!   their header in place (`encode_into`). When the device advertises
//!   `tx_csum_offload`, TCP/UDP headers are stamped with only the
//!   partial pseudo-header sum (`encode_into_partial`) and the device
//!   completes the checksum at `tx_burst` time. Senders *stage* frames
//!   ([`udp_send_burst`], [`tcp_send_queued`]) and the whole batch
//!   crosses in one `tx_burst` sweep ([`flush_output`]); completions
//!   are reclaimed by the wire harness as netbufs ([`harvest_tx`]) and
//!   recycled into the pool ([`recycle`]).
//! - **RX** walks the same buffers up the stack in bursts: the wire
//!   injects a whole burst with one [`deliver_burst`], [`pump`] drains
//!   `rx_burst` and demuxes every frame of the burst (next-hop MACs
//!   memoized per burst) before running the transport/readiness sweep
//!   *once per burst*. UDP payloads are queued on sockets *as netbufs*
//!   — no per-datagram `Vec`. Readers copy out in batches
//!   ([`udp_recv_burst_into`]) or singly
//!   ([`udp_recv_into`]/[`tcp_recv_into`]) and buffers return to the
//!   pool.
//!
//! - **Bulk transfers** ride the large-transfer fast path:
//!   [`tcp_send_queued`] writes application bytes once into pooled
//!   buffers on the connection's zero-copy send queue; a flush moves
//!   a window's worth of them out as one scatter-gather
//!   **super-segment** chain carrying a `GsoRequest` (TSO,
//!   `VIRTIO_NET_F_HOST_TSO4`), and a peer that negotiated big
//!   receive (`VIRTIO_NET_F_GUEST_TSO4`) gets the chain delivered
//!   whole — one demux, one ingest, one coalesced ACK for what would
//!   otherwise be ~40 per-MSS frames' worth of per-segment work.
//!   Peers without the features fall back transparently: the host
//!   side cuts MSS frames (`uknetdev::gso`), and with `tso` off the
//!   stack segments per-MSS in software (the ablation baseline).
//!
//! # The receive-side fast path
//!
//! Ingest mirrors the send side since the GRO/netbuf-recv rework:
//!
//! - **Zero-copy receive queue.** The demux *keeps* the RX buffer a
//!   TCP payload arrived in: headers are pulled in place and the
//!   buffer moves into the connection's receive queue. Readers copy
//!   out ([`tcp_recv_into`]) or — the zero-copy path — take the
//!   buffers whole ([`tcp_recv_netbuf`] / [`tcp_recv_burst_netbuf`],
//!   and [`udp_recv_netbuf`] for datagrams), consuming the payload in
//!   place and handing each buffer back via [`recycle`]. Between the
//!   wire's DMA copy and the application there is **no copy at all**.
//! - **GRO coalescing** (`StackConfig::gro`). Consecutive in-order
//!   data segments of one `rx_burst` to the same connection are
//!   staged and merged into a single multi-part ingest with one
//!   coalesced ACK — the receive-side mirror of GSO, aimed at
//!   per-MSS (non-TSO) senders. A segment continuing the staged
//!   run's flow at exactly the expected sequence number is matched
//!   **without any demux-table lookup** (the `gro_list` flow-compare
//!   idea); control segments flush the stage first, so nothing ever
//!   overtakes staged data. Merging is work-shaping only: the wire
//!   conversation is property-tested byte-identical with GRO on and
//!   off.
//! - **In-order-only ingest, never silent.** A segment that does not
//!   land exactly at `rcv_nxt` is dropped *and answered with an
//!   immediate duplicate ACK*; a FIN is processed only in sequence
//!   position. See `tcp.rs` for the invariant.
//!
//! In steady state the rx/tx hot path performs **zero heap
//! allocations per packet** — per-frame, per-burst *and* per
//! 1 MB bulk transfer in either direction, asserted by the
//! `zero_alloc` integration test; all scratch vectors live in the
//! stack and are reused across turns.
//!
//! [`harvest_tx`]: NetStack::harvest_tx
//! [`recycle`]: NetStack::recycle
//! [`udp_recv_into`]: NetStack::udp_recv_into
//! [`udp_recv_burst_into`]: NetStack::udp_recv_burst_into
//! [`udp_recv_netbuf`]: NetStack::udp_recv_netbuf
//! [`udp_send_burst`]: NetStack::udp_send_burst
//! [`tcp_recv_into`]: NetStack::tcp_recv_into
//! [`tcp_recv_netbuf`]: NetStack::tcp_recv_netbuf
//! [`tcp_recv_burst_netbuf`]: NetStack::tcp_recv_burst_netbuf
//! [`tcp_send_queued`]: NetStack::tcp_send_queued
//! [`flush_output`]: NetStack::flush_output
//! [`deliver_burst`]: NetStack::deliver_burst
//! [`pump`]: NetStack::pump

use std::collections::{HashMap, VecDeque};

use ukevent::{EventMask, ReadySource};
use uknetdev::dev::{BurstStats, NetDev};
use uknetdev::netbuf::{Netbuf, NetbufPool, TcpHold};
use uknetdev::MAX_BURST;
use ukplat::{Errno, Result};

use crate::arp::{ArpCache, ArpOp, ArpPacket};
use crate::eth::{EthHeader, EtherType, ETH_HDR_LEN};
use crate::flow::{flow_key, FlowTable};
use crate::icmp::{self, ICMP_ECHO_LEN};
use crate::ipv4::{IpProto, Ipv4Header, IPV4_HDR_LEN};
use crate::tcp::{
    Tcb, TcpCounters, TcpFlags, TcpHeader, TcpOptions, TcpState, MSS, SACK_PERMITTED_OPT,
    TCP_HDR_LEN, TCP_MAX_OPT_LEN,
};
use crate::timer::{TimerToken, TimerWheel};
use crate::udp::{UdpHeader, UDP_HDR_LEN};
use crate::{Endpoint, Ipv4Addr, Mac};

/// Headroom reserved in every TX buffer: room for Ethernet + IPv4 +
/// the largest transport header **including TCP options** (SACK blocks
/// on pure ACKs need up to [`TCP_MAX_OPT_LEN`] extra bytes), so
/// payloads are written once and all headers are prepended in place.
pub const TX_HEADROOM: usize = 96;

/// Storage size of each packet buffer (MTU + headers, rounded up).
pub const BUF_CAP: usize = 2048;

/// Default ceiling on one GSO super-segment's TCP payload (Linux's
/// classic `GSO_MAX_SIZE` neighborhood; comfortably under the 16-bit
/// IPv4 total-length limit with headers included).
pub const GSO_MAX_SIZE: usize = 61440;

/// Most datagrams a UDP socket queues before new arrivals are dropped
/// (bounds how much of the pool a flooded socket can pin).
const UDP_RX_QUEUE_CAP: usize = 256;

/// Packets parked per next-hop awaiting ARP resolution before
/// *droppable* (non-TCP) packets start being evicted oldest-first
/// (Linux's `unres_qlen` idea). TCP segments are preferred survivors —
/// a dropped segment is recoverable only by a full RTO fire (200 ms
/// floor, then exponential backoff), so evicting one trades a queue
/// slot for orders of magnitude of added latency.
const ARP_PENDING_CAP: usize = 16;

/// Absolute per-next-hop parking bound. Parked packets pin pooled
/// buffers, so even TCP segments must stop accumulating at some point
/// (an application looping `tcp_connect` on an unreachable address
/// would otherwise pin the whole pool); beyond this the oldest packet
/// is dropped regardless of protocol.
const ARP_PENDING_HARD_CAP: usize = 64;

/// A who-has request is (re-)broadcast on the 1st, 9th, 17th, …
/// packet parked for a next-hop: self-healing if a request frame was
/// lost to RX-ring overflow, without the old request-per-packet storm.
const ARP_REQUEST_RETRY_EVERY: u64 = 8;

/// A who-has request is also re-broadcast every this-many `pump`
/// bursts while packets stay parked: a queue that went quiet after
/// parking (no new sends to trip the per-packet cadence above) still
/// makes progress.
const ARP_REQUEST_RETRY_PUMPS: u64 = 8;

/// Slots in the per-burst next-hop memo: resolved `(dst IP → MAC)`
/// pairs are remembered across one burst sweep so a burst of replies
/// to the same few peers does one ARP-table lookup per peer, not per
/// frame.
const ARP_MEMO_SIZE: usize = 8;

/// Listener handles carry this tag. It sits far above both the UDP
/// handle range (a small counter, < 2³²) and connection handles
/// (`generation << 32 | slot`, generation ≤ 0xffff, so < 2⁴⁸) — the
/// three handle spaces can never collide, and a garbage handle decodes
/// to generation 0, which no live connection ever carries.
const LISTENER_TAG: usize = 1 << 48;

/// TCP maximum segment lifetime against the virtual clock (TIME_WAIT
/// lingers 2×MSL before its port recycles). Deliberately compressed
/// versus RFC 793's 2 minutes — with a virtual clock the constant is
/// policy, and tests/benches drive hours of it in milliseconds.
pub const TCP_MSL_NS: u64 = 500_000_000;

/// A connection stuck in the handshake (SYN_SENT / SYN_RECEIVED) is
/// reaped after this long: generous against SYN-retransmit backoff,
/// finite against a peer that vanished mid-handshake.
pub const HANDSHAKE_TIMEOUT_NS: u64 = 6_000_000_000;

/// FIN_WAIT_2 orphan reaping: the peer acked our FIN but never sent
/// its own (Linux's `tcp_fin_timeout` shape).
pub const FINWAIT2_TIMEOUT_NS: u64 = 3_000_000_000;

/// Keepalive: idle time on an established connection before the first
/// probe is sent.
pub const KEEPALIVE_IDLE_NS: u64 = 5_000_000_000;

/// Keepalive: interval between unanswered probes.
pub const KEEPALIVE_INTVL_NS: u64 = 1_000_000_000;

/// Keepalive: unanswered probes before the peer is declared dead and
/// the connection torn down.
pub const KEEPALIVE_PROBES: u32 = 3;

/// A fully Closed connection lingers this long before its slot is
/// reclaimed (and keeps being re-checked on the same cadence while
/// the application still has readable data to drain).
pub const CLOSED_LINGER_NS: u64 = 10_000_000;

/// Netbuf-pool level below which the receive path sheds the newest
/// out-of-order reassembly extents back to the pool. Sustained loss
/// pins buffers on both ends (rtx extents on the sender, OOO extents
/// on the receiver); shedding the newest OOO data — the furthest from
/// being cumulatively acknowledged, and guaranteed to be retransmitted
/// by the peer — degrades goodput gracefully where a starved pool
/// would stall the whole stack.
pub const LOW_POOL_BUFS: usize = 16;

// Timer-key kinds (bits 63..48 of a wheel key; the low 48 bits carry
// `generation << 32 | slot`, validated against the slab at dispatch so
// a timer armed by a dead incarnation fires into nothing).
const TK_RTO: u64 = 0;
const TK_DELACK: u64 = 1;
const TK_LIFE: u64 = 2;
const TK_RACK: u64 = 3;

// Reap-reason codes carried by the `tcp_conn_reaped` tracepoint.
const REAP_CLOSED: u64 = 0;
const REAP_HANDSHAKE: u64 = 1;
const REAP_KEEPALIVE: u64 = 2;
const REAP_FINWAIT2: u64 = 3;
const REAP_TIMEWAIT: u64 = 4;
const REAP_SYN_EVICTED: u64 = 5;

/// Packs a connection handle from its slab coordinates.
fn conn_handle(slot: u32, gen: u16) -> usize {
    ((gen as usize) << 32) | slot as usize
}

/// Splits a handle back into `(slot, generation)` — `None` for
/// listener, UDP and garbage handles (generation 0 is never issued).
fn conn_parts(h: usize) -> Option<(u32, u16)> {
    if h >> 48 != 0 {
        return None;
    }
    let gen = (h >> 32) as u16;
    if gen == 0 {
        return None;
    }
    Some(((h & 0xffff_ffff) as u32, gen))
}

/// Packs a timer-wheel key: kind, then the same generation-tagged slab
/// coordinates a handle carries.
fn timer_key(kind: u64, slot: u32, gen: u16) -> u64 {
    (kind << 48) | ((gen as u64) << 32) | slot as u64
}

// All three header layers — options included — must fit the reserved
// headroom.
const _: () =
    assert!(TX_HEADROOM >= ETH_HDR_LEN + IPV4_HDR_LEN + TCP_HDR_LEN + TCP_MAX_OPT_LEN);

/// Interface configuration.
#[derive(Debug, Clone, Copy)]
pub struct StackConfig {
    /// Our MAC address.
    pub mac: Mac,
    /// Our IPv4 address.
    pub ip: Ipv4Addr,
    /// Whether TX buffers come from a pre-allocated pool.
    pub use_pools: bool,
    /// Pool size (buffers) when pooling.
    pub pool_size: usize,
    /// Whether to offload TCP/UDP transmit checksums to the device
    /// (effective only when the device advertises the capability;
    /// disable for the software-checksum ablation).
    pub tx_csum_offload: bool,
    /// Whether to offload TCP segmentation (`VIRTIO_NET_F_HOST_TSO4`):
    /// bulk sends leave the stack as one super-segment chain per
    /// window's worth of data and the host cuts the MSS frames.
    /// Effective only when the device advertises TSO *and* transmit
    /// checksum offload is on (the per-frame checksums only exist
    /// after the cut); otherwise the stack falls back to software
    /// per-MSS segmentation. Disable for the software-segmentation
    /// ablation.
    pub tso: bool,
    /// Ceiling on one super-segment's payload when `tso` is on.
    pub gso_max_size: usize,
    /// Whether to trust the wire/device's checksum-validated mark on
    /// received frames (`VIRTIO_NET_F_GUEST_CSUM`) and skip software
    /// verification. Unmarked frames are always verified. Disable for
    /// the software-verification ablation.
    pub rx_csum_offload: bool,
    /// Whether to accept oversized TCP frames delivered whole as
    /// buffer chains (`VIRTIO_NET_F_GUEST_TSO4` + `MRG_RXBUF`): a
    /// peer's super-segment crosses the wire as one chain — one demux,
    /// one ingest — instead of being cut into MSS frames at the host
    /// boundary. Effective only with `rx_csum_offload` on (the spec
    /// ties `GUEST_TSO4` to `GUEST_CSUM`); without it the host cuts.
    pub guest_tso: bool,
    /// Whether to GRO-coalesce received TCP segments: consecutive
    /// in-order data segments of one `rx_burst` to the same connection
    /// are merged into a single multi-part ingest with one coalesced
    /// ACK — the receive-side mirror of TSO, and the fast path for
    /// per-MSS (non-TSO) senders. Purely stack-internal (no device
    /// capability involved); disable for the ablation baseline.
    pub gro: bool,
    /// Maximum segment size for this stack's TCP connections.
    pub mss: usize,
    /// Whether TCP connections run NewReno congestion control (slow
    /// start / congestion avoidance / fast recovery): the congestion
    /// window bounds emission alongside the peer window. Disable for
    /// the peer-window-only ablation — loss recovery (RTO, fast
    /// retransmit, reassembly) works either way.
    pub congestion_control: bool,
    /// Whether ACKs for received data may be deferred onto the timer
    /// wheel (fire after ~40 ms or every second full segment, the
    /// RFC 1122 shape) instead of leaving with the next flush.
    /// Delivery is property-tested byte-identical with the switch on
    /// and off.
    pub delayed_ack: bool,
    /// Whether idle established connections probe the peer
    /// (keepalive) and tear down after unanswered probes — dead peers
    /// stop pinning TCBs and pooled buffers.
    pub keepalive: bool,
    /// Per-listener bound on both the half-open SYN queue and the
    /// accept backlog. When the SYN queue is full, the **oldest
    /// half-open** connection is evicted to admit a new SYN; when the
    /// accept backlog is full, handshake-completing ACKs are dropped
    /// (the client retransmits, the handshake timer bounds the
    /// half-open lifetime).
    pub listen_backlog: usize,
    /// Whether new TCBs start with empty send/receive/retransmit
    /// queues that grow on demand, instead of the steady-state
    /// preallocation. For connection-scale workloads (tens of
    /// thousands of mostly-idle connections) this shrinks an idle
    /// connection to its struct size; active connections grow to the
    /// same steady-state capacity after their first bursts, so the
    /// zero-alloc hot-path property still holds once warm.
    pub lean_tcbs: bool,
}

impl StackConfig {
    /// Config for test node `n` (10.0.0.n).
    pub fn node(n: u8) -> Self {
        StackConfig {
            mac: Mac::node(n),
            ip: Ipv4Addr::new(10, 0, 0, n),
            use_pools: true,
            pool_size: 512,
            tx_csum_offload: true,
            tso: true,
            gso_max_size: GSO_MAX_SIZE,
            rx_csum_offload: true,
            guest_tso: true,
            gro: true,
            mss: MSS,
            congestion_control: true,
            delayed_ack: false,
            keepalive: false,
            listen_backlog: 64,
            lean_tcbs: false,
        }
    }
}

/// Handle to a socket or connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SocketHandle(pub usize);

struct UdpSocket {
    port: u16,
    /// Received datagrams, held as the pooled buffers they arrived in
    /// (payload trimmed to the UDP body) — recycled on receive.
    rx: VecDeque<(Endpoint, Netbuf)>,
    /// Monotonic count of datagrams ever enqueued (readiness progress).
    rx_total: u64,
}

/// Which lifecycle timer (one per connection, multiplexed through
/// `TK_LIFE`) is armed for a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LifeKind {
    /// No lifecycle timer.
    None,
    /// Handshake timeout (SYN_SENT / SYN_RECEIVED reclamation).
    Handshake,
    /// Keepalive probing on an idle established connection.
    Keepalive,
    /// FIN_WAIT_2 orphan reaping.
    FinWait2,
    /// 2MSL TIME_WAIT expiry (port recycling).
    TimeWait,
    /// Closed-slot reclamation (short linger for EPOLLHUP delivery).
    Reap,
}

struct TcpConn {
    tcb: Tcb,
    remote: Endpoint,
    local_port: u16,
    /// Wheel mirror of the TCB's RTO/persist deadline.
    rto_tok: TimerToken,
    rto_armed_ns: Option<u64>,
    /// Wheel mirror of the TCB's delayed-ACK deadline.
    delack_tok: TimerToken,
    delack_armed_ns: Option<u64>,
    /// The single lifecycle timer (kind says which one is armed).
    life_tok: TimerToken,
    life_kind: LifeKind,
    /// Wheel mirror of the TCB's RACK deadline (reordering window or
    /// tail-loss probe, whichever is nearer).
    rack_tok: TimerToken,
    rack_armed_ns: Option<u64>,
    /// Last segment activity (keepalive idle reference).
    last_activity_ns: u64,
    /// Unanswered keepalive probes since the last activity.
    ka_probes: u32,
    /// Whether this connection sits on the stack's dirty list (its
    /// output and timers get reconciled by the next flush).
    dirty: bool,
}

impl TcpConn {
    /// Puts the connection (living in `slot`) on the stack's dirty
    /// list, once.
    fn mark_dirty(&mut self, slot: u32, dirty: &mut Vec<u32>) {
        if !self.dirty {
            self.dirty = true;
            dirty.push(slot);
        }
    }
}

/// Returns a buffer chain to the pool; without one, still unlinks the
/// chain so its fragments drop flat.
fn give_back(pool: &mut Option<NetbufPool>, mut nb: Netbuf) {
    match pool.as_mut() {
        Some(p) => p.give_back_chain(nb),
        None => while nb.pop_frag().is_some() {},
    }
}

/// One slab slot: the generation tag survives the connection, so a
/// handle minted for a reaped incarnation fails the lookup instead of
/// aliasing the slot's next occupant.
struct ConnSlot {
    gen: u16,
    conn: Option<TcpConn>,
}

/// Packets parked for one unresolved next-hop: IP-level packets with
/// Ethernet headroom still reserved, tagged with their transport
/// protocol so eviction can prefer droppable (non-TCP) traffic.
#[derive(Default)]
struct ArpPendingQueue {
    packets: Vec<(IpProto, Netbuf)>,
    /// Packets ever parked here (drives the who-has retry cadence).
    parked_total: u64,
    /// Pump bursts survived while parked (drives the quiet-queue
    /// who-has retry — see [`ARP_REQUEST_RETRY_PUMPS`]).
    pump_ticks: u64,
}

/// A readiness cell plus the last progress value published through it.
struct SourceEntry {
    src: ReadySource,
    progress: u64,
}

/// The expected continuation of the GRO run currently being staged:
/// the flow identity of its last segment and the sequence number the
/// next in-order segment must carry.
struct GroCont {
    src: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    conn: usize,
    next_seq: u32,
}

struct TcpListener {
    /// Half-open (SYN_RECEIVED) connections, oldest first — the
    /// bounded SYN queue. Overflow evicts the front.
    syn_queue: VecDeque<u32>,
    /// Fully established connections awaiting `tcp_accept`.
    backlog: VecDeque<SocketHandle>,
    /// Monotonic count of connections ever queued (readiness progress).
    accepted_total: u64,
}

/// Declares the stack's counters in one table: each entry becomes a
/// plain `u64` field of [`StackStats`] plus its `netstack.*` registry
/// name in [`StackStats::NAMES`].
macro_rules! stack_stats {
    ($($(#[doc = $doc:literal])+ $field:ident => $name:literal,)+) => {
        /// The stack's event counters — its only counter store. The
        /// datapath bumps these plain fields in place; the end of every
        /// TX flush (the exit of [`NetStack::pump`] and of every send
        /// path) adds their growth to the global `ukstats` registry
        /// under [`NAMES`](Self::NAMES), so the registry lags a stack
        /// by at most its unflushed work (drops counted by
        /// [`NetStack::deliver_burst`] wait for the next flush).
        #[derive(Debug, Default, Clone, Copy)]
        pub struct StackStats {
            $($(#[doc = $doc])+ pub $field: u64,)+
        }

        impl StackStats {
            /// Registry name of every field, in declaration order.
            pub const NAMES: [&'static str; [$($name),+].len()] = [$($name),+];

            /// Every field's value, in the order of [`NAMES`](Self::NAMES).
            pub fn values(&self) -> [u64; Self::NAMES.len()] {
                [$(self.$field),+]
            }
        }
    };
}

/// The registry side of [`StackStats`]: one `ukstats` counter per
/// field, plus the values last published into them.
struct StatsPublisher {
    handles: [ukstats::Counter; StackStats::NAMES.len()],
    last: [u64; StackStats::NAMES.len()],
}

impl StatsPublisher {
    fn register() -> Self {
        StatsPublisher {
            handles: StackStats::NAMES.map(ukstats::Counter::register),
            last: [0; StackStats::NAMES.len()],
        }
    }

    /// Adds each field's growth since the last publish to its registry
    /// counter (one relaxed atomic add per field that moved).
    fn publish(&mut self, stats: &StackStats) {
        if !ukstats::COMPILED_IN {
            return;
        }
        for ((h, last), v) in self.handles.iter().zip(&mut self.last).zip(stats.values()) {
            if v != *last {
                h.add(v - *last);
                *last = v;
            }
        }
    }
}

stack_stats! {
    /// Frames received and parsed.
    rx_frames => "netstack.rx_frames",
    /// Frames transmitted.
    tx_frames => "netstack.tx_frames",
    /// Payload bytes transmitted.
    tx_bytes => "netstack.tx_bytes",
    /// RX bursts swept by `pump` (`rx_frames / rx_bursts` is the
    /// per-burst amortization factor).
    rx_bursts => "netstack.rx_bursts",
    /// TX bursts pushed into the device.
    tx_bursts => "netstack.tx_bursts",
    /// TCP and UDP frames whose transport checksum was offloaded to
    /// the device.
    csum_offloaded => "netstack.csum_offloaded",
    /// GSO super-segments handed to the device for TSO cutting (each
    /// counts once in `tx_frames` but covers many wire frames).
    tso_super_frames => "netstack.tso_super_frames",
    /// Payload bytes that left in GSO super-segments.
    tso_super_bytes => "netstack.tso_super_bytes",
    /// Received frames whose software checksum verification was
    /// skipped because the wire/device marked them validated.
    rx_csum_skipped => "netstack.rx_csum_skipped",
    /// Super-segments received whole as buffer chains (big receive);
    /// each counts once in `rx_frames` but covers many MSS worth of
    /// stream.
    rx_super_frames => "netstack.rx_super_frames",
    /// GRO runs delivered: groups of ≥ 2 consecutive in-order TCP
    /// segments from one burst merged into a single multi-part ingest.
    gro_runs => "netstack.gro_runs",
    /// Frames that rode those runs (`gro_merged_frames / gro_runs` is
    /// the receive-side coalescing factor).
    gro_merged_frames => "netstack.gro_merged_frames",
    /// Frames dropped (parse errors, unknown ports, full queues).
    dropped => "netstack.dropped",
    /// TCP segments claimed by a connection or listener.
    demux_tcp => "netstack.demux_tcp",
    /// UDP datagrams queued on a socket.
    demux_udp => "netstack.demux_udp",
    /// ARP frames received.
    demux_arp => "netstack.demux_arp",
    /// ICMP echo requests and replies received.
    demux_icmp => "netstack.demux_icmp",
    /// TCP segments and UDP datagrams no socket claimed.
    demux_miss => "netstack.demux_miss",
    /// Immediate duplicate ACKs forced by dropped ingest data.
    dup_acks => "netstack.dup_acks",
    /// Retransmission-timeout fires.
    tcp_rto_fires => "netstack.tcp.rto_fires",
    /// Segments re-emitted (data, SYN, SYN-ACK, FIN retransmissions).
    tcp_retransmits => "netstack.tcp.retransmits",
    /// RACK reordering windows that expired with the hole still open.
    tcp_fast_retransmits => "netstack.tcp.fast_retransmits",
    /// Out-of-order extents filed into reassembly queues.
    tcp_ooo_queued => "netstack.tcp.ooo_queued",
    /// Scoreboard-driven (SACK) hole retransmissions beyond the
    /// cumulative-ACK front.
    tcp_sack_rtx => "netstack.tcp.sack_rtx",
    /// Spurious retransmissions detected via D-SACK.
    tcp_spurious_rtx => "netstack.tcp.spurious_rtx",
    /// Tail-loss probes fired in place of a full RTO.
    tcp_tlp_probes => "netstack.tcp.tlp_probes",
    /// Out-of-order extents shed under netbuf-pool pressure.
    tcp_ooo_shed => "netstack.tcp.ooo_shed",
    /// Connections that entered TIME_WAIT.
    tcp_timewait => "netstack.tcp.timewait",
    /// Connections reaped by keepalive dead-peer detection.
    tcp_keepalive_drops => "netstack.tcp.keepalive_drops",
    /// Listener overflow events: half-open connections evicted from a
    /// full SYN queue plus handshake-completing ACKs dropped against a
    /// full accept backlog.
    tcp_syn_overflow => "netstack.tcp.syn_overflow",
    /// RST segments generated for segments that missed the demux.
    tcp_rst_tx => "netstack.tcp.rst_tx",
    /// Packets parked behind an unresolved next-hop.
    arp_parked => "netstack.arp_parked",
    /// Parked packets evicted by the parking caps.
    arp_evicted => "netstack.arp_evicted",
    /// Who-has requests broadcast.
    arp_requests_tx => "netstack.arp_requests_tx",
    /// Completed `pump` sweeps.
    pump_sweeps => "netstack.pump_sweeps",
}

/// Typed tracepoints of the stack datapath. Each fires into the owning
/// stack's [`TraceRing`](uktrace::TraceRing) (drained via
/// [`NetStack::trace_events`]); with the `trace` feature off every call
/// site compiles to nothing.
pub mod tp {
    uktrace::tracepoints! {
        // ARP: resolution traffic and the parking queue.
        arp_request_tx(dst_ip),
        arp_request_rx(sender_ip),
        arp_reply_rx(sender_ip),
        arp_parked(dst_ip, queued),
        // TCP: connection lifecycle and the data fast paths.
        tcp_syn_rx(local_port, remote_port),
        tcp_established(conn),
        tcp_data_rx(conn, bytes),
        tcp_super_rx(conn, bytes),
        tcp_dup_ack(conn, seq),
        tcp_fin_rx(local_port, seq),
        tcp_segment_tx(dst_port, seq),
        tso_super_tx(bytes, mss),
        gro_merge(conn, frames),
        // TCP loss recovery.
        tcp_rto_fire(conn, backlog),
        tcp_retransmit(conn, count),
        tcp_fast_retransmit(conn, count),
        tcp_ooo_queue(conn, count),
        // TCP surgical recovery (SACK scoreboard / RACK-TLP).
        tcp_sack_rtx(conn, count),
        tcp_spurious_rtx(conn, count),
        tcp_tlp_probe(conn, count),
        tcp_ooo_shed(conn, count),
        // TCP connection lifecycle (timer wheel).
        tcp_rst_tx(dst_port, seq),
        tcp_time_wait(conn, port),
        tcp_conn_reaped(conn, reason),
        tcp_syn_evicted(port, slot),
        tcp_keepalive_probe(conn, probes),
        // Other demux outcomes.
        udp_rx(dst_port, bytes),
        icmp_echo_rx(ident, seq),
        demux_miss(proto, port),
    }
}

/// Records a trace ring holds before overwriting the oldest.
pub const TRACE_RING_CAP: usize = 1024;

/// The stack's registry handles that are not counts (those live in
/// [`StackStats`]). Registration (which may lock and allocate) happens
/// once in [`NetStack::new`].
struct StackCounters {
    /// Last observed RACK reordering window (ns; most recently polled
    /// connection).
    tcp_rack_reorder_window_ns: ukstats::Gauge,
    /// Last observed congestion window (bytes; most recently polled
    /// connection).
    tcp_cwnd: ukstats::Gauge,
    /// Wall-clock duration of one full `pump` sweep.
    pump_ns: ukstats::Histogram,
    /// Most pooled buffers ever in flight at once (pool high-water).
    pool_inflight_hiwater: ukstats::Gauge,
    /// Most packets ever parked behind one unresolved next-hop.
    arp_parked_hiwater: ukstats::Gauge,
}

impl StackCounters {
    fn register() -> Self {
        StackCounters {
            tcp_rack_reorder_window_ns: ukstats::Gauge::register(
                "netstack.tcp.rack_reorder_window_ns",
            ),
            tcp_cwnd: ukstats::Gauge::register("netstack.tcp.cwnd"),
            pump_ns: ukstats::Histogram::register("netstack.pump_ns"),
            pool_inflight_hiwater: ukstats::Gauge::register("netstack.pool_inflight_hiwater"),
            arp_parked_hiwater: ukstats::Gauge::register("netstack.arp_parked_hiwater"),
        }
    }
}

/// The network stack.
pub struct NetStack {
    config: StackConfig,
    dev: Box<dyn NetDev>,
    arp: ArpCache,
    pool: Option<NetbufPool>,
    udp_socks: HashMap<usize, UdpSocket>,
    udp_ports: HashMap<u16, usize>,
    /// Connection slab: TCBs live inline in slots; a slot's generation
    /// tag is baked into the connection handle, so a stale handle (a
    /// reaped connection whose slot was reused) fails the lookup
    /// instead of reaching the wrong TCB.
    conn_slots: Vec<ConnSlot>,
    /// Free slots awaiting reuse (LIFO keeps the working set warm).
    conn_free: Vec<u32>,
    /// Open-addressing demux: packed `(local port, remote)` flow key →
    /// slab slot. Replaces the old `HashMap<(u16, Endpoint), usize>` —
    /// lookup cost and memory stay flat at 100 K–1 M flows.
    flow: FlowTable,
    /// Hierarchical timer wheel driving every connection timer —
    /// RTO/persist, delayed ACK and the lifecycle set (handshake
    /// timeout, keepalive, FIN_WAIT_2 reaping, 2MSL TIME_WAIT) — off
    /// the virtual clock, O(1) per arm/cancel/advance.
    wheel: TimerWheel,
    /// Connections touched since the last flush (slot list,
    /// deduplicated by the per-connection `dirty` flag): the output
    /// and timer-sync passes walk this instead of every connection, so
    /// 100 K idle connections cost nothing per pump.
    dirty: Vec<u32>,
    /// Fired-timer scratch for `tcp_timer_tick` (reused).
    fired_scratch: Vec<(u64, u64)>,
    listeners: HashMap<u16, TcpListener>,
    next_handle: usize,
    next_ephemeral: u16,
    iss: u32,
    stats: StackStats,
    /// Packets waiting for ARP resolution, keyed by next-hop IP.
    arp_pending: HashMap<Ipv4Addr, ArpPendingQueue>,
    /// Echo replies received: (peer, ident, seq).
    ping_replies: Vec<(Ipv4Addr, u16, u16)>,
    /// Readiness cells handed out to event queues, keyed by handle,
    /// with the progress counter last published through each. Synced
    /// after every socket-mutating operation and each `pump`.
    sources: HashMap<usize, SourceEntry>,
    /// Ethernet-ready frames staged for the next `tx_burst` (reused).
    tx_stage: Vec<Netbuf>,
    /// TCP segments staged during `flush_tcp`, pre-ARP (reused).
    tcp_stage: Vec<(Ipv4Addr, Netbuf)>,
    /// RX burst scratch for `pump` (reused).
    rx_scratch: Vec<Netbuf>,
    /// Injection scratch for `deliver_frame` (reused).
    inject_scratch: Vec<Netbuf>,
    /// Key scratch for `sync_readiness` (reused).
    sync_scratch: Vec<usize>,
    /// Whether TCP/UDP TX checksums are completed by the device
    /// (config wish ∧ device capability).
    csum_offload: bool,
    /// Whether bulk TCP output leaves as GSO super-segments for the
    /// device to cut (config wish ∧ device TSO ∧ `csum_offload`).
    tso: bool,
    /// Whether software checksum verification is skipped for received
    /// frames the wire marked validated (config wish ∧ device
    /// capability).
    rx_csum_offload: bool,
    /// Whether peers' super-segments are delivered whole as chains
    /// (config wish ∧ device capability ∧ `rx_csum_offload`).
    guest_tso: bool,
    /// Whether received TCP data segments are GRO-coalesced before
    /// ingest (stack-internal, config switch only).
    gro: bool,
    /// GRO staging area: `(conn handle, header, payload buffer)` per
    /// mergeable data segment of the burst being swept, in arrival
    /// order (flushed whenever ordering demands it and at the end of
    /// every burst; reused storage).
    gro_stage: Vec<(usize, TcpHeader, Netbuf)>,
    /// The tail of the run being staged: a segment matching this flow
    /// at exactly this sequence number appends to the stage *without
    /// any demux-table lookup* — the GRO flow-match fast path (the
    /// role of Linux's `gro_list` flow compare).
    gro_cont: Option<GroCont>,
    /// Per-burst next-hop memo: `(dst IP, MAC)` pairs resolved during
    /// the current burst sweep (cleared each `pump` and on ARP-table
    /// updates; reused storage).
    arp_memo: Vec<(Ipv4Addr, Mac)>,
    /// Next-hops due a who-has re-broadcast this pump (reused).
    arp_retry_scratch: Vec<Ipv4Addr>,
    /// The registry counters `stats` is published into.
    published: StatsPublisher,
    /// Pre-registered global gauge/histogram handles.
    ustats: StackCounters,
    /// Tracepoint ring (a ZST no-op with the `trace` feature off).
    trace: uktrace::TraceRing,
    /// Virtual clock driving the timer wheel (every TCP timer). The
    /// stack owns one frozen at 0 until [`set_clock`](Self::set_clock)
    /// swaps in a shared, moving one.
    clock: ukplat::time::Tsc,
    /// Scratch for flattening returning held TX frames into their
    /// payload extents (reused).
    hold_scratch: Vec<Netbuf>,
}

impl std::fmt::Debug for NetStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetStack")
            .field("ip", &self.config.ip)
            .field("conns", &(self.conn_slots.len() - self.conn_free.len()))
            .field("stats", &self.stats)
            .finish()
    }
}

impl NetStack {
    /// Creates a stack over a configured device. Out-of-range tuning
    /// knobs are clamped to safe values: the MSS to what one wire
    /// frame and one pooled buffer can carry, the GSO budget to what
    /// the IPv4 16-bit total-length field admits.
    // ukcheck: allow(alloc) -- one-time stack construction: maps, the
    // pool, scratch vectors and the trace ring are all built here so the
    // per-frame pump never allocates (the zero_alloc suite enforces it)
    pub fn new(mut config: StackConfig, dev: Box<dyn NetDev>) -> Self {
        config.mss = config.mss.clamp(1, MSS);
        // Headers + super-segment payload must fit the u16 IPv4 total
        // length, or the frame would be unparseable on arrival — a
        // deterministic parse failure retransmission must not paper
        // over.
        const GSO_HARD_MAX: usize = 65_535 - IPV4_HDR_LEN - TCP_HDR_LEN;
        config.gso_max_size = config.gso_max_size.clamp(config.mss, GSO_HARD_MAX);
        config.listen_backlog = config.listen_backlog.clamp(1, 4096);
        let info = dev.info();
        let csum_offload = config.tx_csum_offload && info.tx_csum_offload;
        // TSO requires checksum offload (the cut frames' checksums are
        // completed host-side); without either capability the stack
        // falls back to software per-MSS segmentation.
        let tso = config.tso && info.tso && csum_offload;
        let rx_csum_offload = config.rx_csum_offload && info.rx_csum_offload;
        // Big receive needs the checksum-validated mark: a chained
        // super-frame's checksum was never materialized, so a stack
        // that insists on software verification must have the host
        // cut (and checksum) MSS frames instead.
        let guest_tso = config.guest_tso && info.guest_tso && rx_csum_offload;
        // Pooled buffers pre-reserve fragment-list capacity for the
        // largest super-segment chain, so chain building — GSO on TX,
        // big receive on RX — never grows a Vec on the hot path.
        let chain_frags = if tso || guest_tso {
            config.gso_max_size.div_ceil(BUF_CAP) + 2
        } else {
            // Even with both offloads down the sw-seg path builds
            // small chains: a sub-MSS frame coalesced from several
            // queued extents rides the spent (emptied) buffers as
            // fragments so they recycle with the frame.
            4
        };
        let pool = config.use_pools.then(|| {
            NetbufPool::with_chain_capacity(config.pool_size, BUF_CAP, TX_HEADROOM, chain_frags)
        });
        NetStack {
            config,
            dev,
            arp: ArpCache::new(),
            pool,
            udp_socks: HashMap::new(),
            udp_ports: HashMap::new(),
            conn_slots: Vec::new(),
            conn_free: Vec::new(),
            flow: FlowTable::new(),
            wheel: TimerWheel::new(),
            dirty: Vec::new(),
            fired_scratch: Vec::new(),
            listeners: HashMap::new(),
            next_handle: 1,
            next_ephemeral: 49152,
            iss: 1,
            stats: StackStats::default(),
            arp_pending: HashMap::new(),
            ping_replies: Vec::new(),
            sources: HashMap::new(),
            tx_stage: Vec::new(),
            tcp_stage: Vec::new(),
            rx_scratch: Vec::new(),
            inject_scratch: Vec::new(),
            sync_scratch: Vec::new(),
            csum_offload,
            tso,
            rx_csum_offload,
            guest_tso,
            gro: config.gro,
            gro_stage: Vec::new(),
            gro_cont: None,
            arp_memo: Vec::with_capacity(ARP_MEMO_SIZE),
            arp_retry_scratch: Vec::new(),
            published: StatsPublisher::register(),
            ustats: StackCounters::register(),
            trace: uktrace::TraceRing::new(TRACE_RING_CAP),
            clock: ukplat::time::Tsc::new(1_000_000_000),
            hold_scratch: Vec::with_capacity(MAX_BURST),
        }
    }

    /// Replaces the stack-owned clock (frozen at 0) with a shared
    /// virtual clock: every `pump` advances the timer wheel — RTO,
    /// RACK-TLP, delayed-ACK and lifecycle deadlines — to its time.
    /// Also stamps trace records with the same clock. Until a moving
    /// clock is installed no deadline ever expires.
    pub fn set_clock(&mut self, tsc: &ukplat::time::Tsc) {
        self.clock = tsc.clone();
        self.set_trace_clock(tsc);
    }

    /// Stamps this stack's trace records with the platform's virtual
    /// clock instead of the default per-ring sequence numbers.
    pub fn set_trace_clock(&mut self, tsc: &ukplat::time::Tsc) {
        self.trace.set_clock(tsc);
    }

    /// The stack's tracepoint ring (zero-sized no-op with the `trace`
    /// feature off).
    pub fn trace_ring(&mut self) -> &mut uktrace::TraceRing {
        &mut self.trace
    }

    /// Drains and returns the stack's buffered trace records, oldest
    /// first (always empty with the `trace` feature off).
    pub fn trace_events(&mut self) -> Vec<uktrace::TraceEvent> {
        self.trace.drain()
    }

    /// Whether TX transport checksums are being offloaded to the
    /// device (configuration wish ∧ device capability).
    pub fn csum_offload(&self) -> bool {
        self.csum_offload
    }

    /// Whether bulk TCP output leaves as GSO super-segments for TSO
    /// cutting (configuration wish ∧ device capability ∧ checksum
    /// offload on).
    pub fn tso(&self) -> bool {
        self.tso
    }

    /// Whether received frames marked checksum-validated by the wire
    /// skip software verification (configuration wish ∧ device
    /// capability).
    pub fn rx_csum_offload(&self) -> bool {
        self.rx_csum_offload
    }

    /// Whether this stack accepts peers' super-segments whole, as
    /// buffer chains (`VIRTIO_NET_F_GUEST_TSO4` shape) — the wire
    /// consults this to decide between whole-chain delivery and the
    /// host-side MSS cut.
    pub fn accepts_super_frames(&self) -> bool {
        self.guest_tso
    }

    /// Whether received TCP segments are GRO-coalesced before ingest.
    pub fn gro(&self) -> bool {
        self.gro
    }

    /// Our address.
    pub fn ip(&self) -> Ipv4Addr {
        self.config.ip
    }

    /// Our MAC.
    pub fn mac(&self) -> Mac {
        self.config.mac
    }

    /// This stack's counters, including work not yet published into
    /// the `ukstats` registry (see [`StackStats`]).
    pub fn stats(&self) -> StackStats {
        self.stats
    }

    /// Buffers currently available in the TX pool (diagnostics; `None`
    /// when pooling is off).
    pub fn pool_available(&self) -> Option<usize> {
        self.pool.as_ref().map(|p| p.available())
    }

    /// Allocates a UDP socket handle (plain counter; connection and
    /// listener handles live in disjoint ranges — see
    /// [`LISTENER_TAG`]).
    fn handle(&mut self) -> usize {
        let h = self.next_handle;
        self.next_handle += 1;
        h
    }

    /// Current virtual time.
    fn now_ns(&self) -> u64 {
        self.clock.cycles_to_ns(self.clock.now_cycles())
    }

    /// Resolves a generation-tagged handle to its live connection.
    fn conn(&self, h: usize) -> Option<&TcpConn> {
        let (slot, gen) = conn_parts(h)?;
        let cs = self.conn_slots.get(slot as usize)?;
        if cs.gen != gen {
            return None;
        }
        cs.conn.as_ref()
    }

    /// The handle of the connection in `slot` (one that resolves to
    /// nothing when the slot is empty).
    fn slot_handle(&self, slot: u32) -> usize {
        conn_handle(slot, self.conn_slots.get(slot as usize).map_or(0, |cs| cs.gen))
    }

    /// Mutable form of [`conn`](Self::conn).
    fn conn_mut(&mut self, h: usize) -> Option<&mut TcpConn> {
        let (slot, gen) = conn_parts(h)?;
        let cs = self.conn_slots.get_mut(slot as usize)?;
        if cs.gen != gen {
            return None;
        }
        cs.conn.as_mut()
    }

    /// Live TCP connections in the slab (any state, TIME_WAIT
    /// included) — diagnostics for tests and reports.
    pub fn tcp_conn_count(&self) -> usize {
        self.conn_slots.len() - self.conn_free.len()
    }

    /// Timers currently armed on the wheel (diagnostics).
    pub fn armed_timer_count(&self) -> usize {
        self.wheel.len()
    }

    /// Puts a connection on the dirty list (idempotent): the next
    /// flush polls its output and reconciles its wheel timers.
    fn mark_dirty_handle(&mut self, h: usize) {
        let Some((slot, gen)) = conn_parts(h) else {
            return;
        };
        if let Some(cs) = self.conn_slots.get_mut(slot as usize) {
            if cs.gen == gen {
                if let Some(c) = cs.conn.as_mut() {
                    c.mark_dirty(slot, &mut self.dirty);
                }
            }
        }
    }

    /// Folds what one TCB call counted (`after` minus `before`, two
    /// [`Tcb::counters`] snapshots around it) into the stack's stats
    /// and fires the matching tracepoints. `_seq` is the ingested
    /// segment's sequence number (the `tcp_dup_ack` argument).
    fn account_tcb(&mut self, _h: usize, _seq: u32, before: TcpCounters, after: TcpCounters) {
        let d = after.since(&before);
        let s = &mut self.stats;
        s.tcp_rto_fires += d.rto_fires;
        s.tcp_retransmits += d.retransmits;
        s.tcp_fast_retransmits += d.fast_retransmits;
        s.tcp_ooo_queued += d.ooo_queued;
        s.tcp_sack_rtx += d.sack_rtx;
        s.tcp_spurious_rtx += d.spurious_rtx;
        s.tcp_tlp_probes += d.tlp_probes;
        s.tcp_ooo_shed += d.ooo_shed;
        s.dup_acks += d.dup_acks;
        if d.rto_fires > 0 {
            uktrace::trace!(self.trace, tp::tcp_rto_fire, _h, after.rto_fires);
        }
        if d.dup_acks > 0 {
            uktrace::trace!(self.trace, tp::tcp_dup_ack, _h, _seq);
        }
        if d.fast_retransmits > 0 {
            uktrace::trace!(self.trace, tp::tcp_fast_retransmit, _h, d.fast_retransmits);
        }
        if d.tlp_probes > 0 {
            uktrace::trace!(self.trace, tp::tcp_tlp_probe, _h, d.tlp_probes);
        }
        if d.ooo_queued > 0 {
            uktrace::trace!(self.trace, tp::tcp_ooo_queue, _h, d.ooo_queued);
        }
        if d.spurious_rtx > 0 {
            uktrace::trace!(self.trace, tp::tcp_spurious_rtx, _h, d.spurious_rtx);
        }
        if d.ooo_shed > 0 {
            uktrace::trace!(self.trace, tp::tcp_ooo_shed, _h, d.ooo_shed);
        }
        if d.retransmits > 0 {
            uktrace::trace!(self.trace, tp::tcp_retransmit, _h, d.retransmits);
        }
        if d.sack_rtx > 0 {
            uktrace::trace!(self.trace, tp::tcp_sack_rtx, _h, d.sack_rtx);
        }
    }

    /// Ingests one segment's payload buffers (headers already pulled)
    /// into the connection behind `h`: stamps the clock and keepalive
    /// activity, applies the segment's TCP options, runs the TCB,
    /// sheds the newest reassembly extents while the pool runs low
    /// ([`LOW_POOL_BUFS`]), marks the connection dirty and accounts
    /// its counters. Returns the connection's new state, or `None`
    /// (buffers recycled) when `h` names no live connection.
    fn ingest<I>(
        &mut self,
        h: usize,
        tcp: &TcpHeader,
        opts: Option<&TcpOptions>,
        bufs: I,
    ) -> Option<TcpState>
    where
        I: Iterator<Item = Netbuf>,
    {
        let now = self.now_ns();
        let live = conn_parts(h).and_then(|(slot, gen)| {
            let cs = self.conn_slots.get_mut(slot as usize).filter(|cs| cs.gen == gen)?;
            Some((slot, cs.conn.as_mut()?))
        });
        let Some((slot, c)) = live else {
            bufs.for_each(|nb| self.recycle_plain(nb));
            return None;
        };
        c.tcb.set_now(now);
        c.last_activity_ns = now;
        c.ka_probes = 0;
        let before = c.tcb.counters();
        if let Some(opts) = opts {
            c.tcb.process_options(tcp, opts);
        }
        let mut pool = self.pool.take();
        c.tcb.on_segment_bufs(tcp, bufs, |b| give_back(&mut pool, b));
        while pool.as_ref().is_some_and(|p| p.available() < LOW_POOL_BUFS)
            && c.tcb.shed_newest_ooo(&mut |b| give_back(&mut pool, b))
        {}
        self.pool = pool;
        c.mark_dirty(slot, &mut self.dirty);
        let (state, after) = (c.tcb.state, c.tcb.counters());
        self.account_tcb(h, tcp.seq, before, after);
        Some(state)
    }

    /// Installs a connection into the slab + flow table, bumping the
    /// slot's generation, and marks it dirty (its first output — SYN
    /// or SYN-ACK — leaves with the next flush).
    fn alloc_conn(&mut self, tcb: Tcb, remote: Endpoint, local_port: u16, now: u64) -> usize {
        let slot = match self.conn_free.pop() {
            Some(s) => s,
            None => {
                self.conn_slots.push(ConnSlot { gen: 0, conn: None });
                (self.conn_slots.len() - 1) as u32
            }
        };
        let cs = &mut self.conn_slots[slot as usize];
        cs.gen = if cs.gen == u16::MAX { 1 } else { cs.gen + 1 };
        cs.conn = Some(TcpConn {
            tcb,
            remote,
            local_port,
            rto_tok: TimerToken::NONE,
            rto_armed_ns: None,
            delack_tok: TimerToken::NONE,
            delack_armed_ns: None,
            life_tok: TimerToken::NONE,
            life_kind: LifeKind::None,
            rack_tok: TimerToken::NONE,
            rack_armed_ns: None,
            last_activity_ns: now,
            ka_probes: 0,
            dirty: false,
        });
        let gen = cs.gen;
        self.flow.insert(flow_key(local_port, remote), slot);
        let h = conn_handle(slot, gen);
        self.mark_dirty_handle(h);
        h
    }

    /// Tears a connection down completely: cancels its wheel timers,
    /// removes its flow entry, scrubs it from its listener's queues,
    /// returns **every** buffer it holds (send, receive, reassembly,
    /// staged control) to the pool, frees the slab slot and publishes
    /// the final `EPOLLHUP`. In-flight TX frames tagged with the old
    /// generation fall through to the pool on return — nothing leaks.
    // `_reason` feeds only the `tcp_conn_reaped` tracepoint (unused
    // when tracing is compiled out, hence the underscore).
    fn reap_conn_slot(&mut self, slot: u32, _reason: u64) {
        let Some(cs) = self.conn_slots.get_mut(slot as usize) else {
            return;
        };
        let gen = cs.gen;
        let Some(mut c) = cs.conn.take() else {
            return;
        };
        let h = conn_handle(slot, gen);
        self.wheel.cancel(c.rto_tok);
        self.wheel.cancel(c.delack_tok);
        self.wheel.cancel(c.life_tok);
        self.wheel.cancel(c.rack_tok);
        self.flow.remove(flow_key(c.local_port, c.remote));
        if let Some(l) = self.listeners.get_mut(&c.local_port) {
            l.syn_queue.retain(|&s| s != slot);
            l.backlog.retain(|s| s.0 != h);
        }
        if self.gro_cont.as_ref().is_some_and(|g| g.conn == h) {
            self.gro_cont = None;
        }
        let mut pool = self.pool.take();
        c.tcb.drain_all_buffers(|nb| give_back(&mut pool, nb));
        self.pool = pool;
        self.conn_free.push(slot);
        uktrace::trace!(self.trace, tp::tcp_conn_reaped, h, _reason);
        self.sync_one(h);
    }

    // --- Readiness (ukevent integration) ------------------------------

    /// Computes the current level-triggered readiness of a socket:
    ///
    /// - listeners: `EPOLLIN` while the accept queue is non-empty;
    /// - UDP sockets: `EPOLLIN` while datagrams are queued, `EPOLLOUT`
    ///   always (sends never block);
    /// - TCP connections: `EPOLLIN` on buffered rx data, `EPOLLRDHUP`
    ///   (plus `EPOLLIN`) once the peer's FIN arrived, `EPOLLOUT` while
    ///   the send buffer has room, `EPOLLHUP` when fully closed;
    /// - unknown/closed handles: `EPOLLHUP`.
    pub fn readiness(&self, sock: SocketHandle) -> EventMask {
        if sock.0 & LISTENER_TAG != 0 {
            let port = (sock.0 & 0xffff) as u16;
            return match self.listeners.get(&port) {
                Some(l) if !l.backlog.is_empty() => EventMask::IN,
                Some(_) => EventMask::EMPTY,
                None => EventMask::HUP,
            };
        }
        if let Some(u) = self.udp_socks.get(&sock.0) {
            let mut m = EventMask::OUT;
            if !u.rx.is_empty() {
                m |= EventMask::IN;
            }
            return m;
        }
        if let Some(c) = self.conn(sock.0) {
            let mut m = EventMask::EMPTY;
            if c.tcb.readable() > 0 {
                m |= EventMask::IN;
            }
            if c.tcb.peer_fin_seen() {
                m |= EventMask::IN | EventMask::RDHUP;
            }
            if c.tcb.send_capacity() > 0 {
                m |= EventMask::OUT;
            }
            if c.tcb.state == TcpState::Closed {
                m |= EventMask::HUP;
            }
            return m;
        }
        EventMask::HUP
    }

    /// Returns the shared readiness cell for `sock`, creating it on
    /// first use. Event queues register this cell (it implements
    /// [`ukevent::Pollable`]); the stack publishes every state
    /// transition — accept-queue non-empty, rx data, tx window opening,
    /// FIN — through it as edges.
    pub fn ready_source(&mut self, sock: SocketHandle) -> ReadySource {
        let level = self.readiness(sock);
        let progress = self.rx_progress(sock);
        let entry = self.sources.entry(sock.0).or_insert_with(|| SourceEntry {
            src: ReadySource::new(),
            progress,
        });
        entry.progress = progress;
        let src = entry.src.clone();
        src.set_level(level);
        src
    }

    /// Monotonic "input happened" counter for a socket: bytes ingested
    /// on a connection, datagrams on a UDP socket, connections queued
    /// on a listener. Lets the readiness sync distinguish *new* input
    /// from *pending* input, which is what re-triggers `EPOLLET`
    /// watchers while the readable level is already high.
    fn rx_progress(&self, sock: SocketHandle) -> u64 {
        if sock.0 & LISTENER_TAG != 0 {
            return self
                .listeners
                .get(&((sock.0 & 0xffff) as u16))
                .map(|l| l.accepted_total)
                .unwrap_or(0);
        }
        if let Some(u) = self.udp_socks.get(&sock.0) {
            return u.rx_total;
        }
        self.conn(sock.0).map(|c| c.tcb.rx_total()).unwrap_or(0)
    }

    /// Number of live readiness cells the stack is publishing to (for
    /// tests and reports; defunct sockets' cells are pruned).
    pub fn watched_source_count(&self) -> usize {
        self.sources.len()
    }

    /// Whether the socket behind a handle is gone for good: a removed
    /// listener/UDP socket, or a fully closed connection with no
    /// residual readable data. Its readiness can never change again.
    fn socket_defunct(&self, sock: SocketHandle) -> bool {
        if sock.0 & LISTENER_TAG != 0 {
            return !self.listeners.contains_key(&((sock.0 & 0xffff) as u16));
        }
        if self.udp_socks.contains_key(&sock.0) {
            return false;
        }
        match self.conn(sock.0) {
            Some(c) => c.tcb.state == TcpState::Closed && c.tcb.readable() == 0,
            None => true,
        }
    }

    /// Publishes readiness for one watched socket (the one an operation
    /// just touched), dropping its cell when the socket is defunct.
    /// Per-socket operations use this so an event-loop turn stays O(N)
    /// overall; the full sweep below runs only from `pump`, where any
    /// number of sockets may have changed.
    fn sync_one(&mut self, key: usize) {
        if !self.sources.contains_key(&key) {
            return;
        }
        let level = self.readiness(SocketHandle(key));
        let progress = self.rx_progress(SocketHandle(key));
        let Some(entry) = self.sources.get_mut(&key) else {
            // Checked above; re-fetched only to scope the mutable borrow.
            return;
        };
        let had_in = entry.src.current().contains(EventMask::IN);
        let new_input = progress > entry.progress;
        entry.progress = progress;
        let src = entry.src.clone();
        src.set_level(level);
        // New input while already readable: no level transition, but
        // Linux re-triggers EPOLLET consumers — pulse the edge counter.
        if new_input && had_in && level.contains(EventMask::IN) {
            src.pulse();
        }
        if self.socket_defunct(SocketHandle(key)) {
            self.sources.remove(&key);
        }
    }

    /// Recomputes and publishes readiness for every socket an event
    /// queue is watching. The `ReadySource` cells detect rising edges
    /// themselves, so calling this after every mutation is idempotent.
    /// Sources for defunct sockets get a final `EPOLLHUP` level and are
    /// dropped, bounding the table to live sockets.
    fn sync_readiness(&mut self) {
        if self.sources.is_empty() {
            return;
        }
        let mut keys = std::mem::take(&mut self.sync_scratch);
        keys.clear();
        keys.extend(self.sources.keys().copied());
        for key in keys.drain(..) {
            self.sync_one(key);
        }
        self.sync_scratch = keys;
    }

    // --- UDP ----------------------------------------------------------

    /// Binds a UDP socket to `port`.
    // ukcheck: allow(alloc) -- socket creation is control plane; the
    // per-datagram path reuses the queue allocated here
    pub fn udp_bind(&mut self, port: u16) -> Result<SocketHandle> {
        if self.udp_ports.contains_key(&port) {
            return Err(Errno::AddrInUse);
        }
        let h = self.handle();
        self.udp_socks.insert(
            h,
            UdpSocket {
                port,
                rx: VecDeque::new(),
                rx_total: 0,
            },
        );
        self.udp_ports.insert(port, h);
        Ok(SocketHandle(h))
    }

    /// Builds and routes one datagram (payload written once, headers
    /// prepended in place, checksum offloaded when the device supports
    /// it) *without* flushing — the shared staging half of
    /// [`udp_send_to`](Self::udp_send_to) and
    /// [`udp_send_burst`](Self::udp_send_burst).
    fn stage_udp(&mut self, src_port: u16, data: &[u8], to: Endpoint) -> Result<()> {
        let mut nb = self.take_buf();
        if data.len() > nb.tailroom() {
            self.recycle(nb);
            return Err(Errno::Inval); // Larger than MTU-sized buffers.
        }
        nb.append(data);
        let ip = Ipv4Header {
            src: self.config.ip,
            dst: to.addr,
            proto: IpProto::Udp,
            payload_len: UDP_HDR_LEN + data.len(),
            ttl: 64,
        };
        let hdr = UdpHeader {
            src_port,
            dst_port: to.port,
        };
        if self.csum_offload {
            hdr.encode_into_partial(&ip, &mut nb);
            self.stats.csum_offloaded += 1;
        } else {
            hdr.encode_into(&ip, &mut nb);
        }
        ip.encode_into(&mut nb);
        self.send_ipv4_nb(to.addr, IpProto::Udp, nb);
        Ok(())
    }

    /// Sends a datagram: the payload is written once into a pooled
    /// buffer and UDP/IP/Ethernet headers are prepended in place.
    ///
    /// The stack does not fragment: payloads beyond a packet buffer's
    /// tailroom ([`BUF_CAP`] − [`TX_HEADROOM`] = 1952 bytes — already
    /// past the 1500-byte wire MTU) are rejected with `EINVAL`.
    pub fn udp_send_to(&mut self, sock: SocketHandle, data: &[u8], to: Endpoint) -> Result<()> {
        let src_port = self
            .udp_socks
            .get(&sock.0)
            .ok_or(Errno::BadF)?
            .port;
        self.stage_udp(src_port, data, to)?;
        self.flush_tx()
    }

    /// `sendmmsg`-style burst send: stages every `(payload, dest)`
    /// datagram, then pushes the whole batch to the device in bursts —
    /// one `tx_burst` sweep instead of one flush per datagram.
    ///
    /// Returns the datagrams sent. Like `sendmmsg(2)`, a failing
    /// datagram stops the burst and is reported as an error only when
    /// nothing was sent before it.
    pub fn udp_send_burst<'a, I>(&mut self, sock: SocketHandle, msgs: I) -> Result<usize>
    where
        I: IntoIterator<Item = (&'a [u8], Endpoint)>,
    {
        let src_port = self
            .udp_socks
            .get(&sock.0)
            .ok_or(Errno::BadF)?
            .port;
        let mut sent = 0;
        let mut first_err = None;
        for (data, to) in msgs {
            match self.stage_udp(src_port, data, to) {
                Ok(()) => sent += 1,
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            }
        }
        let flushed = self.flush_tx();
        if sent == 0 {
            if let Some(e) = first_err {
                return Err(e);
            }
            flushed?;
        }
        // Partial success wins over a late error (sendmmsg contract):
        // a flush failure leaves the tail staged for the next flush,
        // nothing is lost.
        Ok(sent)
    }

    /// Receives a datagram, if one is queued (allocating convenience
    /// wrapper over [`udp_recv_into`](Self::udp_recv_into)).
    // ukcheck: allow(alloc) -- documented allocating convenience API;
    // zero-copy callers use `udp_recv_into` instead
    pub fn udp_recv_from(&mut self, sock: SocketHandle) -> Option<(Endpoint, Vec<u8>)> {
        let (from, nb) = self.udp_socks.get_mut(&sock.0)?.rx.pop_front()?;
        let data = nb.payload().to_vec();
        self.recycle(nb);
        self.sync_one(sock.0);
        Some((from, data))
    }

    /// Copies the next queued datagram into `out` (truncating to fit)
    /// and recycles its buffer — the allocation-free receive path.
    /// Returns the sender and the copied length.
    pub fn udp_recv_into(
        &mut self,
        sock: SocketHandle,
        out: &mut [u8],
    ) -> Option<(Endpoint, usize)> {
        let (from, nb) = self.udp_socks.get_mut(&sock.0)?.rx.pop_front()?;
        let n = nb.len().min(out.len());
        out[..n].copy_from_slice(&nb.payload()[..n]);
        self.recycle(nb);
        self.sync_one(sock.0);
        Some((from, n))
    }

    /// Takes the next queued datagram as the pooled buffer it arrived
    /// in (payload trimmed to the UDP body) — the zero-copy UDP
    /// receive path, same ownership contract as
    /// [`tcp_recv_netbuf`](Self::tcp_recv_netbuf): the caller hands
    /// the buffer back via [`recycle`](Self::recycle) when done.
    pub fn udp_recv_netbuf(&mut self, sock: SocketHandle) -> Option<(Endpoint, Netbuf)> {
        let (from, nb) = self.udp_socks.get_mut(&sock.0)?.rx.pop_front()?;
        self.sync_one(sock.0);
        Some((from, nb))
    }

    /// `recvmmsg`-style burst receive: drains up to `max` queued
    /// datagrams, packing their payloads back-to-back into `buf` and
    /// appending one `(sender, length)` pair per datagram to `msgs`
    /// (the caller slices `buf` by running offset). Stops early when
    /// the remaining space cannot hold the next datagram whole (no
    /// truncation in burst mode — size `buf` for `max` MTU-sized
    /// datagrams). Returns the datagrams received this call.
    ///
    /// Allocation-free in steady state: payloads copy straight from
    /// the queued netbufs, which recycle into the pool.
    pub fn udp_recv_burst_into(
        &mut self,
        sock: SocketHandle,
        buf: &mut [u8],
        msgs: &mut Vec<(Endpoint, usize)>,
        max: usize,
    ) -> usize {
        let mut pool = self.pool.take();
        let mut received = 0;
        let mut off = 0;
        if let Some(s) = self.udp_socks.get_mut(&sock.0) {
            while received < max {
                let fits = match s.rx.front() {
                    Some((_, nb)) => off + nb.len() <= buf.len(),
                    None => false,
                };
                if !fits {
                    break;
                }
                let Some((from, nb)) = s.rx.pop_front() else {
                    // `fits` proved front() was Some; bail defensively
                    // rather than panic if that invariant ever breaks.
                    debug_assert!(false, "rx queue emptied between front() and pop_front()");
                    break;
                };
                buf[off..off + nb.len()].copy_from_slice(nb.payload());
                msgs.push((from, nb.len()));
                off += nb.len();
                received += 1;
                if let Some(p) = pool.as_mut() {
                    if p.owns(&nb) {
                        p.give_back(nb);
                    }
                }
            }
        }
        self.pool = pool;
        if received > 0 {
            self.sync_one(sock.0);
        }
        received
    }

    // --- TCP ----------------------------------------------------------

    /// Starts listening on `port`.
    // ukcheck: allow(alloc) -- listener creation is control plane; the
    // SYN/accept queues are pre-sized to the backlog here so the
    // handshake path never grows them
    pub fn tcp_listen(&mut self, port: u16) -> Result<SocketHandle> {
        if self.listeners.contains_key(&port) {
            return Err(Errno::AddrInUse);
        }
        self.listeners.insert(
            port,
            TcpListener {
                syn_queue: VecDeque::with_capacity(self.config.listen_backlog),
                backlog: VecDeque::with_capacity(self.config.listen_backlog),
                accepted_total: 0,
            },
        );
        Ok(SocketHandle(port as usize | LISTENER_TAG))
    }

    /// Accepts a pending connection, if any. Only fully established
    /// connections ever reach the accept backlog — half-open ones wait
    /// in the listener's SYN queue until their handshake completes.
    pub fn tcp_accept(&mut self, listener: SocketHandle) -> Option<SocketHandle> {
        if listener.0 & LISTENER_TAG == 0 {
            return None;
        }
        let port = (listener.0 & 0xffff) as u16;
        let r = self.listeners.get_mut(&port)?.backlog.pop_front();
        self.sync_one(listener.0);
        r
    }

    /// Starts an active connection; completes after network pumping.
    ///
    /// Ephemeral port selection scans for a port whose `(port, peer)`
    /// flow key is free: a flow lingering in TIME_WAIT blocks only its
    /// exact 4-tuple, and its 2MSL reap recycles the port.
    pub fn tcp_connect(&mut self, to: Endpoint) -> Result<SocketHandle> {
        let mut port = self.next_ephemeral;
        let mut chosen = None;
        for _ in 0..=(65535u32 - 49152) {
            if self.flow.get(flow_key(port, to)).is_none() {
                chosen = Some(port);
                break;
            }
            port = if port == 65535 { 49152 } else { port + 1 };
        }
        let local_port = chosen.ok_or(Errno::AddrInUse)?;
        self.next_ephemeral = if local_port == 65535 { 49152 } else { local_port + 1 };
        self.iss = self.iss.wrapping_add(64_000);
        let tcb = self.configure_tcb(Tcb::connect(local_port, to.port, self.iss));
        let h = self.alloc_conn(tcb, to, local_port, self.now_ns());
        self.flush_tcp()?;
        Ok(SocketHandle(h))
    }

    /// Applies this stack's per-connection configuration to a new TCB
    /// (connect and SYN-accept paths alike) and stamps it with the
    /// current time.
    fn configure_tcb(&self, mut tcb: Tcb) -> Tcb {
        if self.config.lean_tcbs {
            tcb.shrink_queues();
        }
        tcb.set_mss(self.config.mss);
        tcb.set_congestion_control(self.config.congestion_control);
        tcb.set_delayed_ack(self.config.delayed_ack);
        tcb.set_now(self.now_ns());
        tcb
    }

    /// Connection state.
    pub fn tcp_state(&self, conn: SocketHandle) -> Option<TcpState> {
        self.conn(conn.0).map(|c| c.tcb.state)
    }

    /// Queues data on a connection, returning the bytes accepted — a
    /// partial write when the send buffer is short on space (`EAGAIN`
    /// when it is full because the peer's window stays closed).
    pub fn tcp_send(&mut self, conn: SocketHandle, data: &[u8]) -> Result<usize> {
        let accepted = self.tcp_send_queued(conn, data)?;
        self.flush_tcp()?;
        Ok(accepted)
    }

    /// Queues data on a connection *without* flushing segments to the
    /// device — the burst-TX half of [`tcp_send`](Self::tcp_send).
    /// Callers batch any number of sends across any number of
    /// connections inside one event-loop turn, then emit everything as
    /// a single burst with [`flush_output`](Self::flush_output).
    ///
    /// The bytes are written **once**, directly into pooled buffers on
    /// the connection's zero-copy send queue; emission moves those
    /// buffers into outgoing frames (chained into super-segments on
    /// the TSO path) without ever re-copying the payload.
    pub fn tcp_send_queued(&mut self, conn: SocketHandle, data: &[u8]) -> Result<usize> {
        let mut pool = self.pool.take();
        let r = match self.conn_mut(conn.0) {
            Some(c) => c.tcb.app_send_with(data, || {
                pool.as_mut()
                    .and_then(|p| p.take())
                    .unwrap_or_else(|| Netbuf::alloc(BUF_CAP, TX_HEADROOM))
            }),
            None => Err(Errno::BadF),
        };
        self.pool = pool;
        let accepted = r?;
        self.mark_dirty_handle(conn.0);
        self.sync_one(conn.0);
        Ok(accepted)
    }

    /// Emits all pending transport output as one burst: segments every
    /// connection's send queue into pooled buffers and pushes the
    /// staged frames through `tx_burst` sweeps. The companion to
    /// [`tcp_send_queued`](Self::tcp_send_queued) (idempotent when
    /// there is nothing to send) — one event-loop turn, one flush.
    pub fn flush_output(&mut self) -> Result<()> {
        self.flush_tcp()
    }

    /// Reads up to `max` bytes from a connection (allocating
    /// convenience wrapper over [`tcp_recv_into`](Self::tcp_recv_into)).
    // ukcheck: allow(alloc) -- documented allocating convenience API;
    // zero-copy callers use `tcp_recv_into` instead
    pub fn tcp_recv(&mut self, conn: SocketHandle, max: usize) -> Result<Vec<u8>> {
        let readable = self.conn(conn.0).ok_or(Errno::BadF)?.tcb.readable();
        let mut data = vec![0u8; max.min(readable)];
        let n = self.tcp_recv_into(conn, &mut data)?;
        data.truncate(n);
        Ok(data)
    }

    /// Copies buffered received bytes into `out` — the allocation-free
    /// receive *copy* path (the zero-copy path is
    /// [`tcp_recv_netbuf`](Self::tcp_recv_netbuf)). Drained queue
    /// buffers recycle straight back to the pool. May emit a
    /// window-update ACK when a previously-zero receive window reopens.
    pub fn tcp_recv_into(&mut self, conn: SocketHandle, out: &mut [u8]) -> Result<usize> {
        let mut pool = self.pool.take();
        let r = match self.conn_mut(conn.0) {
            Some(c) => Ok(c.tcb.app_recv_into_with(out, |nb| give_back(&mut pool, nb))),
            None => Err(Errno::BadF),
        };
        self.pool = pool;
        let n = r?;
        self.mark_dirty_handle(conn.0);
        self.flush_tcp()?;
        self.sync_one(conn.0);
        Ok(n)
    }

    /// Takes the next received buffer whole — the **zero-copy receive
    /// path**: the pooled netbuf the peer's bytes arrived in (trimmed
    /// to its TCP payload extent) moves straight to the application,
    /// no copy anywhere between the wire and the caller.
    ///
    /// **Ownership contract:** the caller owns the buffer and must
    /// hand it back with [`recycle`](Self::recycle) once consumed —
    /// that returns it to the owning pool (buffers from other pools or
    /// the heap are simply dropped there). Holding buffers
    /// indefinitely pins pool capacity. A window-update ACK may be
    /// staged when a previously-zero receive window reopens; it is
    /// flushed here only when output is actually pending.
    pub fn tcp_recv_netbuf(&mut self, conn: SocketHandle) -> Option<Netbuf> {
        let c = self.conn_mut(conn.0)?;
        let nb = c.tcb.app_recv_netbuf()?;
        if c.tcb.has_pending_control() {
            self.mark_dirty_handle(conn.0);
            let _ = self.flush_tcp();
        }
        self.sync_one(conn.0);
        Some(nb)
    }

    /// Burst form of [`tcp_recv_netbuf`](Self::tcp_recv_netbuf):
    /// drains up to `max` queued payload buffers into `out` with one
    /// readiness sync and at most one output flush for the whole
    /// batch. Returns the buffers taken; the ownership/recycle
    /// contract is the same.
    pub fn tcp_recv_burst_netbuf(
        &mut self,
        conn: SocketHandle,
        out: &mut Vec<Netbuf>,
        max: usize,
    ) -> usize {
        let Some(c) = self.conn_mut(conn.0) else {
            return 0;
        };
        let mut taken = 0;
        while taken < max {
            match c.tcb.app_recv_netbuf() {
                Some(nb) => {
                    out.push(nb);
                    taken += 1;
                }
                None => break,
            }
        }
        let pending = c.tcb.has_pending_control();
        if taken > 0 {
            if pending {
                self.mark_dirty_handle(conn.0);
                let _ = self.flush_tcp();
            }
            self.sync_one(conn.0);
        }
        taken
    }

    /// Free send-buffer space on a connection (0 for closed handles).
    pub fn tcp_send_capacity(&self, conn: SocketHandle) -> usize {
        self.conn(conn.0).map(|c| c.tcb.send_capacity()).unwrap_or(0)
    }

    /// Whether the peer's advertised receive window admits no more data.
    pub fn tcp_window_closed(&self, conn: SocketHandle) -> bool {
        self.conn(conn.0).map(|c| c.tcb.window_closed()).unwrap_or(true)
    }

    /// One connection's cumulative event counts (all zero for a
    /// stale handle). The stack-wide `netstack.*` counters in
    /// [`StackStats`] aggregate the same events across connections.
    pub fn tcp_counters(&self, conn: SocketHandle) -> TcpCounters {
        self.conn(conn.0).map(|c| c.tcb.counters()).unwrap_or_default()
    }

    /// Current congestion window (bytes) for one connection.
    pub fn tcp_cwnd(&self, conn: SocketHandle) -> usize {
        self.conn(conn.0).map(|c| c.tcb.cwnd()).unwrap_or(0)
    }

    /// Bytes ready to read.
    pub fn tcp_readable(&self, conn: SocketHandle) -> usize {
        self.conn(conn.0).map(|c| c.tcb.readable()).unwrap_or(0)
    }

    /// Whether the peer closed (EOF).
    pub fn tcp_peer_closed(&self, conn: SocketHandle) -> bool {
        self.conn(conn.0).map(|c| c.tcb.peer_closed()).unwrap_or(true)
    }

    /// The remote endpoint of a connection (`getpeername` shape).
    pub fn tcp_peer(&self, conn: SocketHandle) -> Option<Endpoint> {
        self.conn(conn.0).map(|c| c.remote)
    }

    /// Starts an orderly close.
    pub fn tcp_close(&mut self, conn: SocketHandle) -> Result<()> {
        let c = self.conn_mut(conn.0).ok_or(Errno::BadF)?;
        c.tcb.app_close();
        self.mark_dirty_handle(conn.0);
        let r = self.flush_tcp();
        self.sync_one(conn.0);
        r
    }

    // --- Data path ----------------------------------------------------

    /// Takes a TX buffer (pool or heap — the application's choice,
    /// §3.1) with [`TX_HEADROOM`] reserved for headers.
    fn take_buf(&mut self) -> Netbuf {
        match self.pool.as_mut().and_then(|p| p.take()) {
            Some(nb) => nb,
            None => Netbuf::alloc(BUF_CAP, TX_HEADROOM),
        }
    }

    /// Takes an RX buffer (no headroom: the wire writes whole frames).
    /// The wire harness fills it and injects it with
    /// [`deliver_frame`](Self::deliver_frame).
    pub fn take_rx_buf(&mut self) -> Netbuf {
        match self.pool.as_mut().and_then(|p| p.take()) {
            Some(mut nb) => {
                nb.reset(0);
                nb
            }
            None => Netbuf::alloc(BUF_CAP, 0),
        }
    }

    /// Returns a finished buffer — or a whole scatter-gather chain —
    /// to the stack's pool (heap and foreign buffers are simply
    /// dropped). Everyone who takes a netbuf out of this stack — the
    /// wire harness via [`harvest_tx`](Self::harvest_tx), readers via
    /// the `*_recv_into` paths — hands it back here.
    pub fn recycle(&mut self, mut nb: Netbuf) {
        if let Some(hold) = nb.take_tcp_hold() {
            self.rtx_return_chain(hold, nb);
            return;
        }
        self.recycle_plain(nb);
    }

    /// Pool return without retransmission interception.
    fn recycle_plain(&mut self, nb: Netbuf) {
        give_back(&mut self.pool, nb);
    }

    /// A TCP data frame came back from the wire (TX-complete harvest or
    /// ARP-queue eviction): instead of returning it to the pool, strip
    /// the protocol headers off the head (restoring its headroom) and
    /// file the payload extents back into the owning connection's
    /// retransmission queue keyed by sequence number. Extents the TCB
    /// no longer needs — already acknowledged, duplicate coverage,
    /// connection gone — fall through to the pool as usual, so nothing
    /// leaks.
    fn rtx_return_chain(&mut self, hold: TcpHold, mut head: Netbuf) {
        head.take_csum_request();
        head.take_gso_request();
        // All protocol headers live in the head buffer.
        let hdr = head.chain_len().saturating_sub(hold.payload_len as usize);
        if hdr <= head.len() {
            head.pull_header(hdr);
        }
        let mut scratch = core::mem::take(&mut self.hold_scratch);
        scratch.clear();
        head.take_frags_into(&mut scratch);
        scratch.insert(0, head);
        let mut seq = hold.seq;
        for mut ext in scratch.drain(..) {
            let len = ext.len() as u32;
            ext.take_csum_request();
            ext.take_gso_request();
            let back = match self.conn_mut(hold.conn as usize) {
                Some(c) => c.tcb.rtx_return(seq, hold.sent_ns, ext),
                None => Some(ext),
            };
            if let Some(nb) = back {
                self.recycle_plain(nb);
            }
            seq = seq.wrapping_add(len);
        }
        self.hold_scratch = scratch;
        self.mark_dirty_handle(hold.conn as usize);
    }

    /// Prepends the Ethernet header and stages the frame for the next
    /// TX burst.
    fn stage_eth(&mut self, dst: Mac, ethertype: EtherType, mut nb: Netbuf) {
        EthHeader {
            dst,
            src: self.config.mac,
            ethertype,
        }
        .encode_into(&mut nb);
        self.tx_stage.push(nb);
    }

    /// Pushes staged frames into the device (one burst call per
    /// `MAX_BURST` frames; leftovers stay staged if the ring fills),
    /// then publishes the stack's counters into the registry.
    fn flush_tx(&mut self) -> Result<()> {
        let mut r = Ok(());
        while !self.tx_stage.is_empty() {
            match self.dev.tx_burst(0, &mut self.tx_stage) {
                Ok(st) if st.stats.frames > 0 => {
                    self.stats.tx_frames += st.stats.frames as u64;
                    self.stats.tx_bytes += st.stats.bytes as u64;
                    self.stats.tx_bursts += 1;
                }
                Ok(_) => break, // Ring full; retried on the next flush.
                Err(e) => {
                    r = Err(e);
                    break;
                }
            }
        }
        self.published.publish(&self.stats);
        r
    }

    /// Resolves a next-hop MAC through the per-burst memo first, then
    /// the ARP table (memoizing a hit). The memo is cleared at every
    /// `pump` and whenever the ARP table learns a mapping, so one
    /// burst's worth of frames to the same few peers pays one table
    /// lookup per peer.
    fn lookup_next_hop(&mut self, dst: Ipv4Addr) -> Option<Mac> {
        if let Some(&(_, mac)) = self.arp_memo.iter().find(|(ip, _)| *ip == dst) {
            return Some(mac);
        }
        let mac = self.arp.lookup(dst)?;
        if self.arp_memo.len() < ARP_MEMO_SIZE {
            self.arp_memo.push((dst, mac));
        }
        Some(mac)
    }

    /// Stages a broadcast who-has request for `dst`.
    fn stage_arp_request(&mut self, dst: Ipv4Addr) {
        let req = ArpPacket {
            op: ArpOp::Request,
            sha: self.config.mac,
            spa: self.config.ip,
            tha: Mac([0; 6]),
            tpa: dst,
        };
        let mut anb = self.take_buf();
        anb.append(&req.encode());
        self.stage_eth(Mac::BROADCAST, EtherType::Arp, anb);
        self.stats.arp_requests_tx += 1;
        uktrace::trace!(self.trace, tp::arp_request_tx, dst.0);
    }

    /// Routes an IP-level packet (headers already in place, Ethernet
    /// headroom reserved): resolved destinations are staged for TX,
    /// unresolved ones park under the pending ARP request. Parking is
    /// bounded (soft cap evicting droppable traffic first, hard cap
    /// evicting anything) so an unreachable next-hop cannot pin the
    /// buffer pool, and the who-has broadcast is re-issued every
    /// [`ARP_REQUEST_RETRY_EVERY`] parked packets.
    fn send_ipv4_nb(&mut self, dst: Ipv4Addr, proto: IpProto, nb: Netbuf) {
        match self.lookup_next_hop(dst) {
            Some(mac) => self.stage_eth(mac, EtherType::Ipv4, nb),
            None => {
                let (evicted, request_due, queued) = {
                    let pending = self.arp_pending.entry(dst).or_default();
                    pending.packets.push((proto, nb));
                    pending.parked_total += 1;
                    let evicted = if pending.packets.len() > ARP_PENDING_HARD_CAP {
                        Some(pending.packets.remove(0))
                    } else if pending.packets.len() > ARP_PENDING_CAP {
                        pending
                            .packets
                            .iter()
                            .position(|(p, _)| *p != IpProto::Tcp)
                            .map(|i| pending.packets.remove(i))
                    } else {
                        None
                    };
                    (
                        evicted,
                        pending.parked_total % ARP_REQUEST_RETRY_EVERY == 1,
                        pending.packets.len(),
                    )
                };
                self.stats.arp_parked += 1;
                self.ustats.arp_parked_hiwater.set_max(queued as u64);
                uktrace::trace!(self.trace, tp::arp_parked, dst.0, queued);
                if let Some((_, old)) = evicted {
                    self.stats.dropped += 1;
                    self.stats.arp_evicted += 1;
                    self.recycle(old);
                }
                if request_due {
                    self.stage_arp_request(dst);
                }
            }
        }
    }

    /// The quiet-queue who-has retry (run once per `pump`): every
    /// pending next-hop ticks a per-burst counter and re-broadcasts
    /// its request every [`ARP_REQUEST_RETRY_PUMPS`] pumps. The
    /// per-parked-packet cadence in [`send_ipv4_nb`](Self::send_ipv4_nb)
    /// only fires while *new* packets keep parking; this one keeps
    /// parked packets making progress after the application goes
    /// quiet.
    fn arp_retry_tick(&mut self) {
        if self.arp_pending.is_empty() {
            return;
        }
        let mut due = std::mem::take(&mut self.arp_retry_scratch);
        due.clear();
        for (dst, pending) in self.arp_pending.iter_mut() {
            if pending.packets.is_empty() {
                continue;
            }
            pending.pump_ticks += 1;
            if pending.pump_ticks % ARP_REQUEST_RETRY_PUMPS == 0 {
                due.push(*dst);
            }
        }
        for dst in due.drain(..) {
            self.stage_arp_request(dst);
        }
        self.arp_retry_scratch = due;
    }

    /// Emits all pending TCP output: each segment is cut from the send
    /// buffer straight into a pooled netbuf (payload first, then
    /// TCP/IP headers prepended in place) — no intermediate `Vec`s.
    ///
    /// With TSO on, a connection's whole sendable window leaves as
    /// *one* frame per `gso_max_size` bytes: the payload streams into
    /// a scatter-gather chain, the headers describe the super-segment,
    /// and a [`GsoRequest`](uknetdev::netbuf::GsoRequest) tells the
    /// host side to cut the per-MSS wire frames — the per-segment
    /// header encode / checksum stamp / staging / ring costs are paid
    /// once per super-segment instead of once per MSS.
    fn flush_tcp(&mut self) -> Result<()> {
        let mut staged = std::mem::take(&mut self.tcp_stage);
        // Both the TCB's buffer supplier and the frame finisher need
        // the pool, so it lives in a local cell for the duration.
        let pool = std::cell::RefCell::new(self.pool.take());
        let take_buf = || {
            pool.borrow_mut()
                .as_mut()
                .and_then(|p| p.take())
                .unwrap_or_else(|| Netbuf::alloc(BUF_CAP, TX_HEADROOM))
        };
        let src_ip = self.config.ip;
        let offload = self.csum_offload;
        let tso = self.tso;
        let gso_max = self.config.gso_max_size;
        let now = self.now_ns();
        // Only dirty connections are polled — at 100 K idle
        // connections the flush touches none of them. The list is
        // walked by index (not drained) because segment emission below
        // can re-mark connections mid-walk via `rtx_return_chain`.
        let mut i = 0;
        while i < self.dirty.len() {
            let slot = self.dirty[i];
            i += 1;
            let Some(cs) = self.conn_slots.get_mut(slot as usize) else {
                continue;
            };
            let gen = cs.gen;
            let Some(c) = cs.conn.as_mut() else { continue };
            if !c.dirty {
                continue;
            }
            c.dirty = false;
            let h = conn_handle(slot, gen);
            c.tcb.set_now(now);
            let dst = c.remote.addr;
            let mss = c.tcb.mss();
            // The GSO budget is floored to a multiple of the MSS so a
            // super-segment boundary never forces a short wire frame
            // mid-stream — the cut frames land on exactly the byte
            // boundaries software segmentation would produce.
            let max_seg = if tso { (gso_max / mss).max(1) * mss } else { mss };
            let before = c.tcb.counters();
            // The receiver half's SACK report for this poll: D-SACK
            // plus the reassembly queue's extents, encoded once and
            // attached to the first *pure ACK* the poll emits (the GSO
            // cutter forbids options on data frames, and a poll that
            // owes the peer a SACK always emits a pure ACK).
            let mut sack_opt = [0u8; TCP_MAX_OPT_LEN];
            let sack_len = c.tcb.fill_sack_option(&mut sack_opt);
            let mut sack_used = false;
            c.tcb.poll_output_chain_with(max_seg, &take_buf, |header, chain| {
                // Data rides in as the send queue's own buffers —
                // chained for a super-segment, a single moved buffer
                // otherwise; control segments get a fresh head.
                let was_data = chain.is_some();
                let mut nb = chain.unwrap_or_else(&take_buf);
                let plen = nb.chain_len();
                // Options ride only on control segments: SACK-permitted
                // on SYN / SYN-ACK, SACK blocks on the poll's first
                // pure ACK.
                let opts: &[u8] = if was_data || header.flags.rst {
                    &[]
                } else if header.flags.syn {
                    &SACK_PERMITTED_OPT
                } else if header.flags.ack && !header.flags.syn && !sack_used && sack_len > 0
                {
                    sack_used = true;
                    &sack_opt[..sack_len]
                } else {
                    &[]
                };
                let ip = Ipv4Header {
                    src: src_ip,
                    dst,
                    proto: IpProto::Tcp,
                    payload_len: TCP_HDR_LEN + opts.len() + plen,
                    ttl: 64,
                };
                if plen > mss {
                    // Super-segment: headers on the chain head, MSS
                    // cutting offloaded to the device's host side.
                    header.encode_into_gso(&ip, &mut nb, mss as u16);
                    self.stats.csum_offloaded += 1;
                    self.stats.tso_super_frames += 1;
                    self.stats.tso_super_bytes += plen as u64;
                    uktrace::trace!(self.trace, tp::tso_super_tx, plen, mss);
                } else if !opts.is_empty() {
                    if offload {
                        header.encode_into_partial_opts(&ip, &mut nb, opts);
                        self.stats.csum_offloaded += 1;
                    } else {
                        header.encode_into_opts(&ip, &mut nb, opts);
                    }
                } else if offload {
                    header.encode_into_partial(&ip, &mut nb);
                    self.stats.csum_offloaded += 1;
                } else {
                    header.encode_into(&ip, &mut nb);
                }
                uktrace::trace!(self.trace, tp::tcp_segment_tx, header.dst_port, header.seq);
                ip.encode_into(&mut nb);
                if was_data {
                    // Tag unacknowledged data so the recycle path files
                    // the payload into the retransmission queue instead
                    // of the pool (see `rtx_return_chain`), stamped
                    // with the transmit time RACK's loss logic keys on.
                    nb.set_tcp_hold(h as u64, header.seq, plen as u32, now);
                }
                staged.push((dst, nb));
            });
            self.ustats.tcp_cwnd.set(c.tcb.cwnd() as u64);
            self.ustats
                .tcp_rack_reorder_window_ns
                .set(c.tcb.reo_wnd_ns());
            let after = c.tcb.counters();
            self.account_tcb(h, 0, before, after);
        }
        self.pool = pool.into_inner();
        // Second pass: mirror every polled connection's timer wants
        // (RTO, RACK-TLP, delayed ACK, lifecycle) into the wheel.
        let mut i = 0;
        while i < self.dirty.len() {
            let slot = self.dirty[i];
            i += 1;
            self.sync_conn_timers(slot, now);
        }
        self.dirty.clear();
        for (dst, nb) in staged.drain(..) {
            self.send_ipv4_nb(dst, IpProto::Tcp, nb);
        }
        self.tcp_stage = staged;
        self.flush_tx()
    }

    /// Advances the hierarchical timer wheel to the virtual clock and
    /// dispatches every expired timer: RTO/persist fires, RACK-TLP
    /// deadlines, delayed-ACK deadlines, and lifecycle events
    /// (handshake timeout, keepalive probes, FIN-WAIT-2 orphan
    /// reaping, TIME_WAIT 2MSL expiry).
    /// Cost is O(expired timers), not O(connections) — 100 K idle
    /// connections cost the tick nothing.
    fn tcp_timer_tick(&mut self) {
        let now = self.now_ns();
        let mut fired = std::mem::take(&mut self.fired_scratch);
        fired.clear();
        self.wheel.advance(now, |key, deadline| fired.push((key, deadline)));
        for (key, _) in fired.drain(..) {
            self.dispatch_timer(key, now);
        }
        self.fired_scratch = fired;
    }

    /// Routes one expired wheel timer to its connection. The key
    /// carries the timer kind, the slot, and the generation the timer
    /// was armed under — a reused slot simply ignores stale fires.
    fn dispatch_timer(&mut self, key: u64, now: u64) {
        let kind = key >> 48;
        let gen = ((key >> 32) & 0xffff) as u16;
        let slot = (key & 0xffff_ffff) as u32;
        let h = conn_handle(slot, gen);
        let live = self.conn_slots.get_mut(slot as usize).filter(|cs| cs.gen == gen);
        let Some(c) = live.and_then(|cs| cs.conn.as_mut()) else {
            return;
        };
        let before = c.tcb.counters();
        let mut reap = None;
        match kind {
            TK_RTO => {
                c.rto_tok = TimerToken::NONE;
                c.rto_armed_ns = None;
                c.tcb.on_tick(now);
            }
            TK_DELACK => {
                c.delack_tok = TimerToken::NONE;
                c.delack_armed_ns = None;
                c.tcb.on_delack_timeout();
            }
            TK_RACK => {
                c.rack_tok = TimerToken::NONE;
                c.rack_armed_ns = None;
                c.tcb.on_rack_timeout(now);
            }
            TK_LIFE => {
                c.life_tok = TimerToken::NONE;
                let idle = now.saturating_sub(c.last_activity_ns) >= KEEPALIVE_IDLE_NS;
                reap = match c.life_kind {
                    LifeKind::Handshake => Some(REAP_HANDSHAKE),
                    LifeKind::FinWait2 => Some(REAP_FINWAIT2),
                    LifeKind::TimeWait => Some(REAP_TIMEWAIT),
                    LifeKind::Reap if c.tcb.readable() == 0 => Some(REAP_CLOSED),
                    LifeKind::Keepalive if idle && c.ka_probes >= KEEPALIVE_PROBES => {
                        self.stats.tcp_keepalive_drops += 1;
                        Some(REAP_KEEPALIVE)
                    }
                    LifeKind::Keepalive if idle => {
                        c.ka_probes += 1;
                        c.tcb.emit_keepalive_probe();
                        uktrace::trace!(
                            self.trace,
                            tp::tcp_keepalive_probe,
                            h,
                            c.ka_probes as usize
                        );
                        None
                    }
                    LifeKind::Keepalive => {
                        c.ka_probes = 0;
                        None
                    }
                    // A closed connection whose application still owes
                    // a read is checked again on the same cadence.
                    LifeKind::Reap | LifeKind::None => None,
                };
            }
            _ => {}
        }
        let after = c.tcb.counters();
        if reap.is_none() {
            c.mark_dirty(slot, &mut self.dirty);
        }
        self.account_tcb(h, 0, before, after);
        if let Some(reason) = reap {
            self.reap_conn_slot(slot, reason);
        }
    }

    /// Mirrors one connection's timer wants into the wheel: the TCB's
    /// RTO/persist deadline, its delayed-ACK deadline, and the
    /// lifecycle deadline implied by its state. Re-arms only on
    /// change, so steady-state data flow costs one compare per kind.
    fn sync_conn_timers(&mut self, slot: u32, now: u64) {
        let keepalive = self.config.keepalive;
        let Some(cs) = self.conn_slots.get_mut(slot as usize) else {
            return;
        };
        let gen = cs.gen;
        let Some(c) = cs.conn.as_mut() else { return };
        let want = c.tcb.rtx_deadline();
        if want != c.rto_armed_ns || (want.is_some() && c.rto_tok.is_none()) {
            self.wheel.cancel(c.rto_tok);
            c.rto_tok = TimerToken::NONE;
            c.rto_armed_ns = want;
            if let Some(d) = want {
                c.rto_tok = self.wheel.arm(d, timer_key(TK_RTO, slot, gen));
            }
        }
        let want = c.tcb.ack_deadline();
        if want != c.delack_armed_ns || (want.is_some() && c.delack_tok.is_none()) {
            self.wheel.cancel(c.delack_tok);
            c.delack_tok = TimerToken::NONE;
            c.delack_armed_ns = want;
            if let Some(d) = want {
                c.delack_tok = self.wheel.arm(d, timer_key(TK_DELACK, slot, gen));
            }
        }
        let want = c.tcb.rack_deadline();
        if want != c.rack_armed_ns || (want.is_some() && c.rack_tok.is_none()) {
            self.wheel.cancel(c.rack_tok);
            c.rack_tok = TimerToken::NONE;
            c.rack_armed_ns = want;
            if let Some(d) = want {
                c.rack_tok = self.wheel.arm(d, timer_key(TK_RACK, slot, gen));
            }
        }
        let (kind, deadline) = match c.tcb.state {
            TcpState::SynSent | TcpState::SynReceived => {
                (LifeKind::Handshake, now + HANDSHAKE_TIMEOUT_NS)
            }
            TcpState::Established | TcpState::CloseWait if keepalive => {
                let idle_deadline = c.last_activity_ns + KEEPALIVE_IDLE_NS;
                let d = if idle_deadline <= now {
                    now + KEEPALIVE_INTVL_NS
                } else {
                    idle_deadline
                };
                (LifeKind::Keepalive, d)
            }
            TcpState::FinWait2 => (LifeKind::FinWait2, now + FINWAIT2_TIMEOUT_NS),
            TcpState::TimeWait => (LifeKind::TimeWait, now + 2 * TCP_MSL_NS),
            TcpState::Closed => (LifeKind::Reap, now + CLOSED_LINGER_NS),
            _ => (LifeKind::None, 0),
        };
        if kind != c.life_kind || (kind != LifeKind::None && c.life_tok.is_none()) {
            if kind == LifeKind::TimeWait && c.life_kind != LifeKind::TimeWait {
                self.stats.tcp_timewait += 1;
                uktrace::trace!(
                    self.trace,
                    tp::tcp_time_wait,
                    conn_handle(slot, gen),
                    c.local_port as usize
                );
            }
            self.wheel.cancel(c.life_tok);
            c.life_tok = TimerToken::NONE;
            c.life_kind = kind;
            if kind != LifeKind::None {
                c.life_tok = self.wheel.arm(deadline, timer_key(TK_LIFE, slot, gen));
            }
        }
    }

    /// Answers a segment that matched no flow and no listener with a
    /// correctly-sequenced RST (RFC 793 §3.4): a connection that died
    /// here tells its peer immediately instead of letting it
    /// retransmit into a black hole. Never RSTs a RST.
    fn stage_rst(&mut self, dst: Ipv4Addr, tcp: &TcpHeader, payload_len: usize) {
        if tcp.flags.rst {
            return;
        }
        let (seq, ack, flags) = if tcp.flags.ack {
            // The peer told us what it expects next; answer from there
            // with a bare RST.
            (tcp.ack, 0, TcpFlags { rst: true, ..TcpFlags::default() })
        } else {
            // No ACK to echo: seq 0, and acknowledge everything the
            // segment occupied so the RST is acceptable to the peer.
            let occupied =
                payload_len as u32 + tcp.flags.syn as u32 + tcp.flags.fin as u32;
            (
                0,
                tcp.seq.wrapping_add(occupied),
                TcpFlags { rst: true, ack: true, ..TcpFlags::default() },
            )
        };
        let header = TcpHeader {
            src_port: tcp.dst_port,
            dst_port: tcp.src_port,
            seq,
            ack,
            flags,
            window: 0,
        };
        let mut nb = self.take_buf();
        let ip = Ipv4Header {
            src: self.config.ip,
            dst,
            proto: IpProto::Tcp,
            payload_len: TCP_HDR_LEN,
            ttl: 64,
        };
        if self.csum_offload {
            header.encode_into_partial(&ip, &mut nb);
        } else {
            header.encode_into(&ip, &mut nb);
        }
        ip.encode_into(&mut nb);
        self.stats.tcp_rst_tx += 1;
        uktrace::trace!(self.trace, tp::tcp_rst_tx, header.dst_port, header.seq);
        self.send_ipv4_nb(dst, IpProto::Tcp, nb);
    }

    /// Processes received frames in bursts and flushes replies once.
    /// Returns the number of frames handled.
    ///
    /// This is the per-burst sweep of the burst datapath: each
    /// `rx_burst` batch is fully decoded and demultiplexed (replies
    /// and ACKs *staging*, not flushing — next-hop MACs come from the
    /// per-burst memo), and only after the ring runs dry does the
    /// stack run its transport sweep: who-has retries for parked
    /// queues, one `flush_tcp` segmenting every connection, one staged
    /// `tx_burst` push, one readiness sync. Per-packet overheads
    /// become per-burst overheads.
    pub fn pump(&mut self) -> usize {
        let sweep_start = ukstats::COMPILED_IN.then(std::time::Instant::now);
        let mut handled = 0;
        let mut frames = std::mem::take(&mut self.rx_scratch);
        self.arp_memo.clear();
        loop {
            let st = match self.dev.rx_burst(0, &mut frames, MAX_BURST) {
                Ok(st) => st,
                Err(_) => break,
            };
            if st.received > 0 {
                self.stats.rx_bursts += 1;
            }
            for nb in frames.drain(..) {
                if self.handle_frame(nb).is_ok() {
                    handled += 1;
                } else {
                    self.stats.dropped += 1;
                }
            }
            if st.received == 0 && !st.more {
                break;
            }
        }
        self.rx_scratch = frames;
        // End of the burst sweep: deliver every staged GRO run before
        // the transport flush, so the coalesced ACKs ride it.
        self.gro_flush();
        self.arp_retry_tick();
        self.tcp_timer_tick();
        self.stats.pump_sweeps += 1;
        let _ = self.flush_tcp();
        self.sync_readiness();
        if let Some(t) = sweep_start {
            self.ustats.pump_ns.record(t.elapsed().as_nanos() as u64);
        }
        if let Some(p) = self.pool.as_ref() {
            self.ustats
                .pool_inflight_hiwater
                .set_max((p.capacity() - p.low_water()) as u64);
        }
        handled
    }

    /// Reclaims completed TX frames into `out` as netbufs — the wire
    /// handoff (no copy-out; the old `Vec<Vec<u8>>` path is gone). The
    /// harness copies each frame onto the destination's RX buffers and
    /// returns ours via [`recycle`](Self::recycle).
    pub fn harvest_tx(&mut self, out: &mut Vec<Netbuf>) -> usize {
        self.dev.reclaim_tx(0, out).unwrap_or(0)
    }

    /// Injects a whole burst of frames into this stack's device RX
    /// ring with a single `inject_rx` call (the wire side — one
    /// boundary crossing per burst instead of per frame). Frames that
    /// do not fit (ring full) are dropped and their buffers recycled,
    /// like a real NIC. Returns the device's burst accounting.
    pub fn deliver_burst(&mut self, frames: &mut Vec<Netbuf>) -> BurstStats {
        let stats = self.dev.inject_rx(0, frames).unwrap_or(BurstStats {
            frames: 0,
            bytes: 0,
            drops: frames.len(),
        });
        while let Some(rest) = frames.pop() {
            self.stats.dropped += 1;
            self.recycle(rest);
        }
        stats
    }

    /// Injects one frame into this stack's device RX ring (the wire
    /// side) — single-frame convenience over
    /// [`deliver_burst`](Self::deliver_burst).
    pub fn deliver_frame(&mut self, nb: Netbuf) {
        let mut scratch = std::mem::take(&mut self.inject_scratch);
        scratch.push(nb);
        self.deliver_burst(&mut scratch);
        self.inject_scratch = scratch;
    }

    fn handle_frame(&mut self, mut nb: Netbuf) -> Result<()> {
        self.stats.rx_frames += 1;
        let eth = match EthHeader::decode(nb.payload()) {
            Ok((h, _)) => h,
            Err(e) => {
                self.recycle(nb);
                return Err(e);
            }
        };
        if eth.dst != self.config.mac && eth.dst != Mac::BROADCAST {
            self.recycle(nb);
            return Err(Errno::Inval);
        }
        nb.pull_header(ETH_HDR_LEN);
        match eth.ethertype {
            EtherType::Arp => {
                self.stats.demux_arp += 1;
                let r = self.handle_arp(nb.payload());
                self.recycle(nb);
                r
            }
            EtherType::Ipv4 => self.handle_ipv4(nb),
        }
    }

    fn handle_arp(&mut self, data: &[u8]) -> Result<()> {
        let arp = ArpPacket::decode(data)?;
        match arp.op {
            ArpOp::Request => {
                uktrace::trace!(self.trace, tp::arp_request_rx, arp.spa.0);
            }
            ArpOp::Reply => {
                uktrace::trace!(self.trace, tp::arp_reply_rx, arp.spa.0);
            }
        }
        self.arp.insert(arp.spa, arp.sha);
        // The table changed: memoized next-hops may be stale.
        self.arp_memo.clear();
        // Release packets that were waiting on this mapping.
        if let Some(pending) = self.arp_pending.remove(&arp.spa) {
            for (_, nb) in pending.packets {
                self.stage_eth(arp.sha, EtherType::Ipv4, nb);
            }
        }
        if arp.op == ArpOp::Request && arp.tpa == self.config.ip {
            let reply = ArpPacket {
                op: ArpOp::Reply,
                sha: self.config.mac,
                spa: self.config.ip,
                tha: arp.sha,
                tpa: arp.spa,
            };
            let mut nb = self.take_buf();
            nb.append(&reply.encode());
            self.stage_eth(arp.sha, EtherType::Arp, nb);
        }
        Ok(())
    }

    /// Walks an IPv4 frame up the stack in place: the IP header is
    /// pulled, trailing Ethernet padding trimmed, and the same buffer
    /// continues to the transport layer.
    ///
    /// A frame the wire/device marked checksum-validated
    /// (`VIRTIO_NET_F_GUEST_CSUM`) skips the software IPv4-header and
    /// TCP/UDP checksum passes when RX checksum offload is on;
    /// unmarked frames are always fully verified.
    fn handle_ipv4(&mut self, mut nb: Netbuf) -> Result<()> {
        let trusted = self.rx_csum_offload && nb.csum_verified();
        if nb.has_frags() {
            // A big-receive super-segment: headers in the head buffer,
            // payload spanning the chain. Only the trusted wire
            // delivers these (GUEST_TSO4 requires GUEST_CSUM) — an
            // unmarked chain is a forgery and is dropped.
            if !trusted {
                self.recycle(nb);
                return Err(Errno::Inval);
            }
            return self.handle_super_frame(nb);
        }
        let decoded = if trusted {
            Ipv4Header::decode_trusted(nb.payload())
        } else {
            Ipv4Header::decode(nb.payload())
        };
        let (ip, body_len) = match decoded {
            Ok((h, body)) => (h, body.len()),
            Err(e) => {
                self.recycle(nb);
                return Err(e);
            }
        };
        if ip.dst != self.config.ip {
            self.recycle(nb);
            return Err(Errno::Inval);
        }
        if trusted && matches!(ip.proto, IpProto::Tcp | IpProto::Udp) {
            self.stats.rx_csum_skipped += 1;
        }
        nb.pull_header(IPV4_HDR_LEN);
        nb.truncate(body_len);
        match ip.proto {
            IpProto::Udp => self.handle_udp(&ip, nb, trusted),
            IpProto::Tcp => self.handle_tcp_nb(&ip, nb, trusted),
            IpProto::Icmp => {
                let r = self.handle_icmp(&ip, nb.payload());
                self.recycle(nb);
                r
            }
        }
    }

    fn handle_icmp(&mut self, ip: &Ipv4Header, data: &[u8]) -> Result<()> {
        let (request, ident, seq, payload) = icmp::decode_echo(data)?;
        self.stats.demux_icmp += 1;
        if request {
            uktrace::trace!(self.trace, tp::icmp_echo_rx, ident, seq);
            // Answer pings like lwIP does: echo the payload into a
            // fresh pooled buffer, headers prepended in place. A
            // request too large for a reply buffer (an injected
            // over-MTU frame) is dropped, not echoed.
            let mut nb = self.take_buf();
            if payload.len() > nb.tailroom() {
                self.recycle(nb);
                return Err(Errno::Inval);
            }
            nb.append(payload);
            icmp::encode_echo_into(false, ident, seq, &mut nb);
            let hdr = Ipv4Header {
                src: self.config.ip,
                dst: ip.src,
                proto: IpProto::Icmp,
                payload_len: ICMP_ECHO_LEN + payload.len(),
                ttl: 64,
            };
            hdr.encode_into(&mut nb);
            self.send_ipv4_nb(ip.src, IpProto::Icmp, nb);
            Ok(())
        } else {
            self.ping_replies.push((ip.src, ident, seq));
            Ok(())
        }
    }

    /// Sends an ICMP echo request to `dst`.
    pub fn ping(&mut self, dst: Ipv4Addr, ident: u16, seq: u16) -> Result<()> {
        let mut nb = self.take_buf();
        nb.append(b"unikraft-rs ping");
        icmp::encode_echo_into(true, ident, seq, &mut nb);
        let hdr = Ipv4Header {
            src: self.config.ip,
            dst,
            proto: IpProto::Icmp,
            payload_len: nb.len(),
            ttl: 64,
        };
        hdr.encode_into(&mut nb);
        self.send_ipv4_nb(dst, IpProto::Icmp, nb);
        self.flush_tx()
    }

    /// Drains echo replies received so far: (peer, ident, seq).
    pub fn ping_replies(&mut self) -> Vec<(Ipv4Addr, u16, u16)> {
        std::mem::take(&mut self.ping_replies)
    }

    /// Demultiplexes a UDP datagram: the receive buffer itself (payload
    /// trimmed to the UDP body) moves into the socket's queue.
    fn handle_udp(&mut self, ip: &Ipv4Header, mut nb: Netbuf, trusted: bool) -> Result<()> {
        let decoded = if trusted {
            UdpHeader::decode_trusted(ip, nb.payload())
        } else {
            UdpHeader::decode(ip, nb.payload())
        };
        let (udp, body_len) = match decoded {
            Ok((h, body)) => (h, body.len()),
            Err(e) => {
                self.recycle(nb);
                return Err(e);
            }
        };
        let Some(&h) = self.udp_ports.get(&udp.dst_port) else {
            self.stats.demux_miss += 1;
            uktrace::trace!(self.trace, tp::demux_miss, 17u64, udp.dst_port);
            self.recycle(nb);
            return Err(Errno::ConnRefused);
        };
        let queued = self.udp_socks.get(&h).map(|s| s.rx.len());
        match queued {
            None => {
                self.recycle(nb);
                return Err(Errno::BadF);
            }
            Some(n) if n >= UDP_RX_QUEUE_CAP => {
                self.recycle(nb);
                return Err(Errno::NoMem); // Queue full: drop (counted).
            }
            Some(_) => {}
        }
        nb.pull_header(UDP_HDR_LEN);
        nb.truncate(body_len);
        self.stats.demux_udp += 1;
        uktrace::trace!(self.trace, tp::udp_rx, udp.dst_port, body_len);
        let Some(sock) = self.udp_socks.get_mut(&h) else {
            // `queued` above proved the socket exists; drop the
            // datagram instead of panicking if that ever regresses.
            debug_assert!(false, "udp socket vanished between queue check and push");
            self.recycle(nb);
            return Err(Errno::BadF);
        };
        sock.rx
            .push_back((Endpoint::new(ip.src, udp.src_port), nb));
        sock.rx_total += 1;
        Ok(())
    }

    /// Validates a big-receive super-frame's headers (IPv4 + TCP, both
    /// in the head extent — the wire guarantees this) and returns the
    /// parsed TCP header plus the header bytes to strip off the head.
    fn parse_super_frame(nb: &Netbuf, my_ip: Ipv4Addr) -> Result<(TcpHeader, Ipv4Addr, usize)> {
        let head = nb.payload();
        let total = nb.chain_len();
        if head.len() < IPV4_HDR_LEN + TCP_HDR_LEN || head[0] != 0x45 {
            return Err(Errno::Inval);
        }
        let ip_total = u16::from_be_bytes([head[2], head[3]]) as usize;
        if ip_total != total || head[9] != 6 {
            return Err(Errno::Inval); // Chains carry exactly one TCP super-segment.
        }
        let ip = Ipv4Header {
            src: Ipv4Addr(u32::from_be_bytes([head[12], head[13], head[14], head[15]])),
            dst: Ipv4Addr(u32::from_be_bytes([head[16], head[17], head[18], head[19]])),
            proto: IpProto::Tcp,
            payload_len: total - IPV4_HDR_LEN,
            ttl: head[8],
        };
        if ip.dst != my_ip {
            return Err(Errno::Inval);
        }
        let (tcp, first) = TcpHeader::decode_trusted(&ip, &head[IPV4_HDR_LEN..])?;
        let consumed = head.len() - first.len();
        Ok((tcp, ip.src, consumed))
    }

    /// Ingests a big-receive super-segment **zero-copy**: headers are
    /// stripped off the chain head in place and the whole chain moves
    /// into the connection's receive queue as *one* multi-part segment
    /// — one demux, one ACK, no per-MSS work and no payload copy
    /// anywhere on the receive side.
    fn handle_super_frame(&mut self, mut nb: Netbuf) -> Result<()> {
        // A super-segment is TCP data: it must not overtake per-MSS
        // frames already staged for the same connection.
        self.gro_flush();
        let (tcp, src, consumed) = match Self::parse_super_frame(&nb, self.config.ip) {
            Ok(p) => p,
            Err(e) => {
                self.recycle(nb);
                return Err(e);
            }
        };
        let remote = Endpoint::new(src, tcp.src_port);
        let payload_len = nb.chain_len() - consumed;
        let Some(slot) = self.flow.get(flow_key(tcp.dst_port, remote)) else {
            self.stats.demux_miss += 1;
            uktrace::trace!(self.trace, tp::demux_miss, 6u64, tcp.dst_port);
            self.stage_rst(src, &tcp, payload_len);
            self.recycle(nb);
            return Err(Errno::ConnRefused);
        };
        let h = self.slot_handle(slot);
        nb.pull_header(consumed);
        // Only read by the `tcp_super_rx` tracepoint (unused when
        // tracing is compiled out, hence the underscore).
        let _bytes = nb.chain_len();
        if self.ingest(h, &tcp, None, std::iter::once(nb)).is_none() {
            self.stats.demux_miss += 1;
            uktrace::trace!(self.trace, tp::demux_miss, 6u64, tcp.dst_port);
            return Err(Errno::ConnRefused);
        }
        self.stats.demux_tcp += 1;
        uktrace::trace!(self.trace, tp::tcp_super_rx, h, _bytes);
        self.stats.rx_super_frames += 1;
        self.stats.rx_csum_skipped += 1;
        Ok(())
    }

    /// Demultiplexes one TCP segment, **keeping ownership of the RX
    /// buffer**: a mergeable data segment is staged for GRO, anything
    /// else is delivered to its TCB with the payload buffer moved into
    /// the receive queue (or recycled, if the data is not accepted).
    fn handle_tcp_nb(&mut self, ip: &Ipv4Header, mut nb: Netbuf, trusted: bool) -> Result<()> {
        let decoded = if trusted {
            TcpHeader::decode_trusted(ip, nb.payload())
        } else {
            TcpHeader::decode(ip, nb.payload())
        };
        let (tcp, doff) = match decoded {
            Ok((h, payload)) => (h, nb.len() - payload.len()),
            Err(e) => {
                self.recycle(nb);
                return Err(e);
            }
        };
        let payload_len = nb.len() - doff;
        // GRO: a plain data segment (ACK set, no SYN/FIN/RST) joins
        // the burst's staging area; consecutive ones merge into one
        // ingest at flush. A segment continuing the staged run's flow
        // at exactly the expected sequence number appends with *zero*
        // demux-table lookups — the flow-match fast path that makes
        // per-MSS receive cheap.
        let mergeable = self.gro
            && tcp.flags.ack
            && !tcp.flags.syn
            && !tcp.flags.fin
            && !tcp.flags.rst
            && nb.len() > doff;
        if mergeable {
            if let Some(cont) = self.gro_cont.as_mut() {
                let flow_match = cont.src_port == tcp.src_port
                    && cont.dst_port == tcp.dst_port
                    && cont.src == ip.src;
                if flow_match && cont.next_seq == tcp.seq {
                    nb.pull_header(doff);
                    cont.next_seq = tcp.seq.wrapping_add(nb.len() as u32);
                    let conn = cont.conn;
                    self.gro_stage.push((conn, tcp, nb));
                    self.stats.demux_tcp += 1;
                    return Ok(());
                }
                if flow_match {
                    // Sequence gap in the staged flow (a drop or
                    // reorder on the wire): deliver the staged run
                    // *now* so coalescing never merges across the
                    // hole — the gapped segment takes the demux path
                    // below and lands in the reassembly queue.
                    self.gro_flush();
                }
            }
        }
        let remote = Endpoint::new(ip.src, tcp.src_port);
        let fkey = flow_key(tcp.dst_port, remote);
        let mut hit = self.flow.get(fkey);
        // TIME_WAIT assassination (RFC 1122 §4.2.2.13): a fresh SYN
        // landing on a connection parked in TIME_WAIT reaps it on the
        // spot and falls through to the listener below — the port
        // recycles without waiting out the full 2MSL.
        if tcp.flags.syn && !tcp.flags.ack {
            if let Some(slot) = hit {
                let is_tw = self
                    .conn_slots
                    .get(slot as usize)
                    .and_then(|cs| cs.conn.as_ref())
                    .map(|c| c.tcb.state == TcpState::TimeWait)
                    .unwrap_or(false);
                if is_tw {
                    self.reap_conn_slot(slot, REAP_TIMEWAIT);
                    hit = None;
                }
            }
        }
        if let Some(slot) = hit {
            let h = self.slot_handle(slot);
            if let Some(state0) = self.conn(h).map(|c| c.tcb.state) {
                // TCP options (SACK-permitted on SYNs, SACK blocks on
                // pure ACKs) live between the fixed header and the
                // payload; capture them before the header is pulled.
                let opts = if doff > TCP_HDR_LEN {
                    Some(TcpOptions::parse(&nb.payload()[TCP_HDR_LEN..doff]))
                } else {
                    None
                };
                nb.pull_header(doff);
                // GRO staging is for flows in steady data transfer;
                // anything mid-handshake or mid-teardown takes the
                // direct path so state transitions apply immediately.
                if mergeable && state0 == TcpState::Established {
                    // Start (or interleave) a staged run for this flow.
                    self.gro_cont = Some(GroCont {
                        src: ip.src,
                        src_port: tcp.src_port,
                        dst_port: tcp.dst_port,
                        conn: h,
                        next_seq: tcp.seq.wrapping_add(nb.len() as u32),
                    });
                    self.gro_stage.push((h, tcp, nb));
                    self.stats.demux_tcp += 1;
                    return Ok(());
                }
                // Control flags take the direct path — after flushing
                // the stage, so nothing overtakes data already queued
                // for this connection.
                self.gro_flush();
                if state0 == TcpState::SynReceived
                    && tcp.flags.ack
                    && !tcp.flags.syn
                    && !tcp.flags.rst
                {
                    // The handshake-completing ACK would move this
                    // connection onto the accept backlog; if that is
                    // full, drop the ACK — the connection stays
                    // half-open until the peer retransmits or the
                    // handshake timer reclaims it.
                    let full = self
                        .listeners
                        .get(&tcp.dst_port)
                        .map(|l| l.backlog.len() >= self.config.listen_backlog)
                        .unwrap_or(false);
                    if full {
                        self.stats.tcp_syn_overflow += 1;
                        self.recycle(nb);
                        return Err(Errno::NoMem);
                    }
                }
                if tcp.flags.fin {
                    uktrace::trace!(self.trace, tp::tcp_fin_rx, tcp.dst_port, tcp.seq);
                }
                let bytes = nb.len();
                let Some(state) = self.ingest(h, &tcp, opts.as_ref(), std::iter::once(nb)) else {
                    // The flow table named this slot, so it must be
                    // occupied; the segment was dropped rather than
                    // panic if the table and slab ever disagree.
                    debug_assert!(false, "flow table points at an empty connection slot");
                    return Err(Errno::BadF);
                };
                if state0 != TcpState::Established && state == TcpState::Established {
                    uktrace::trace!(self.trace, tp::tcp_established, h, tcp.dst_port);
                    if state0 == TcpState::SynReceived {
                        // Handshake complete: graduate from the SYN
                        // queue to the accept backlog.
                        if let Some(l) = self.listeners.get_mut(&tcp.dst_port) {
                            if let Some(pos) = l.syn_queue.iter().position(|&s| s == slot) {
                                l.syn_queue.remove(pos);
                            }
                            l.backlog.push_back(SocketHandle(h));
                            l.accepted_total += 1;
                            self.sync_one(LISTENER_TAG | tcp.dst_port as usize);
                        }
                    }
                }
                if bytes > 0 && !tcp.flags.syn {
                    uktrace::trace!(self.trace, tp::tcp_data_rx, h, bytes);
                }
                self.stats.demux_tcp += 1;
                return Ok(());
            }
        }
        // No connection: a SYN to a listener spawns a half-open one on
        // the listener's bounded SYN queue.
        if tcp.flags.syn && !tcp.flags.ack {
            if self.listeners.contains_key(&tcp.dst_port) {
                uktrace::trace!(self.trace, tp::tcp_syn_rx, tcp.dst_port, tcp.src_port);
                // At capacity the *oldest* half-open connection is
                // evicted (its buffers pool-returned, its flow entry
                // and timers dropped) — a SYN flood churns the queue
                // but can neither grow it nor starve established
                // connections.
                let victim = self.listeners.get(&tcp.dst_port).and_then(|l| {
                    if l.syn_queue.len() >= self.config.listen_backlog {
                        l.syn_queue.front().copied()
                    } else {
                        None
                    }
                });
                if let Some(v) = victim {
                    self.stats.tcp_syn_overflow += 1;
                    uktrace::trace!(self.trace, tp::tcp_syn_evicted, tcp.dst_port, v as usize);
                    self.reap_conn_slot(v, REAP_SYN_EVICTED);
                }
                let mut tcb = self.configure_tcb(Tcb::listen(tcp.dst_port));
                self.iss = self.iss.wrapping_add(64_000);
                if doff > TCP_HDR_LEN {
                    let opts = TcpOptions::parse(&nb.payload()[TCP_HDR_LEN..doff]);
                    tcb.process_options(&tcp, &opts);
                }
                tcb.on_segment(&tcp, &nb.payload()[doff..]);
                self.recycle(nb);
                let counted = tcb.counters();
                let h = self.alloc_conn(tcb, remote, tcp.dst_port, self.now_ns());
                self.account_tcb(h, tcp.seq, TcpCounters::default(), counted);
                let slot = (h & 0xffff_ffff) as u32;
                if let Some(l) = self.listeners.get_mut(&tcp.dst_port) {
                    l.syn_queue.push_back(slot);
                } else {
                    // Guarded by contains_key above and alloc_conn does
                    // not touch listeners; the half-open connection will
                    // simply time out if this invariant ever breaks.
                    debug_assert!(false, "listener vanished while spawning half-open conn");
                }
                self.stats.demux_tcp += 1;
                return Ok(());
            }
        }
        // Nothing claimed the segment: count the miss and answer with
        // a RST (suppressed for incoming RSTs — including in-window
        // RSTs aimed at a bare listener, which are simply dropped).
        self.stats.demux_miss += 1;
        uktrace::trace!(self.trace, tp::demux_miss, 6u64, tcp.dst_port);
        self.stage_rst(ip.src, &tcp, payload_len);
        self.recycle(nb);
        Err(Errno::ConnRefused)
    }

    /// Delivers everything staged for GRO, in arrival order: adjacent
    /// stage entries for the same connection whose sequence numbers
    /// are consecutive collapse into **one** multi-buffer ingest —
    /// one demux-table access, one TCB pass, one coalesced ACK for
    /// the run. The merged header takes the run's first sequence
    /// number and the *last* segment's cumulative ACK and window (the
    /// freshest peer state), exactly what a hardware GRO engine
    /// presents. Buffers drain straight out of the stage into the
    /// receive queue — no intermediate move.
    fn gro_flush(&mut self) {
        self.gro_cont = None;
        if self.gro_stage.is_empty() {
            return;
        }
        let mut stage = std::mem::take(&mut self.gro_stage);
        while !stage.is_empty() {
            // The run at the stage front: adjacent entries, same
            // connection, consecutive sequence numbers.
            let (conn, first) = (stage[0].0, stage[0].1);
            let mut next_seq = first.seq.wrapping_add(stage[0].2.len() as u32);
            let mut j = 1;
            while j < stage.len() && stage[j].0 == conn && stage[j].1.seq == next_seq {
                next_seq = next_seq.wrapping_add(stage[j].2.len() as u32);
                j += 1;
            }
            let last = stage[j - 1].1;
            // Only read by the `tcp_data_rx` tracepoint (unused when
            // tracing is compiled out, hence the underscore).
            let _run_bytes = next_seq.wrapping_sub(first.seq);
            if j > 1 {
                self.stats.gro_runs += 1;
                self.stats.gro_merged_frames += j as u64;
                uktrace::trace!(self.trace, tp::gro_merge, conn, j);
            }
            let merged = TcpHeader {
                src_port: first.src_port,
                dst_port: first.dst_port,
                seq: first.seq,
                ack: last.ack,
                flags: TcpFlags {
                    ack: true,
                    psh: first.flags.psh || last.flags.psh,
                    ..Default::default()
                },
                window: last.window,
            };
            let bufs = stage.drain(..j).map(|(_, _, nb)| nb);
            if self.ingest(conn, &merged, None, bufs).is_some() {
                uktrace::trace!(self.trace, tp::tcp_data_rx, conn, _run_bytes);
            }
        }
        self.gro_stage = stage;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uknetdev::backend::VhostKind;
    use uknetdev::dev::NetDevConf;
    use uknetdev::VirtioNet;
    use ukplat::time::Tsc;

    fn stack(n: u8) -> NetStack {
        let tsc = Tsc::new(3_600_000_000);
        let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
        dev.configure(NetDevConf::default()).unwrap();
        NetStack::new(StackConfig::node(n), Box::new(dev))
    }

    #[test]
    fn udp_bind_conflicts_detected() {
        let mut s = stack(1);
        s.udp_bind(5000).unwrap();
        assert_eq!(s.udp_bind(5000).unwrap_err(), Errno::AddrInUse);
    }

    #[test]
    fn udp_send_without_arp_parks_and_requests() {
        let mut s = stack(1);
        let sock = s.udp_bind(5000).unwrap();
        s.udp_send_to(sock, b"ping", Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7))
            .unwrap();
        // One broadcast ARP request must have left the stack.
        assert_eq!(s.stats().tx_frames, 1);
        assert_eq!(s.arp_pending.len(), 1);
    }

    #[test]
    fn unresolved_arp_parking_is_capped_and_buffers_recycled() {
        let mut s = stack(1);
        let sock = s.udp_bind(5000).unwrap();
        let dst = Endpoint::new(Ipv4Addr::new(10, 0, 0, 99), 7);
        // Far more sends than the per-next-hop cap; nobody ever answers
        // the ARP request.
        for _ in 0..64 {
            s.udp_send_to(sock, b"black hole", dst).unwrap();
        }
        assert_eq!(
            s.arp_pending.get(&dst.addr).unwrap().packets.len(),
            ARP_PENDING_CAP,
            "parked packets bounded per destination"
        );
        assert_eq!(
            s.stats().dropped,
            64 - ARP_PENDING_CAP as u64,
            "evicted packets are counted as drops"
        );
        // Who-has re-broadcast on a fixed cadence, not per packet.
        let requests = 64u64.div_ceil(ARP_REQUEST_RETRY_EVERY);
        assert_eq!(s.stats().tx_frames, requests, "bounded retry cadence");
        // Pool accounting: the capped parked packets plus the ARP
        // request frames (in the device done-list until the wire
        // harvests them) are the only outstanding buffers.
        let outstanding =
            s.config.pool_size - s.pool_available().unwrap();
        assert_eq!(
            outstanding,
            ARP_PENDING_CAP + requests as usize,
            "no buffer leak"
        );
    }

    #[test]
    fn arp_parking_hard_cap_bounds_even_tcp() {
        let mut s = stack(1);
        // An app looping connects on an unreachable address must not
        // pin the pool without bound.
        for _ in 0..100 {
            s.tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 99), 80))
                .unwrap();
        }
        let pending = s.arp_pending.get(&Ipv4Addr::new(10, 0, 0, 99)).unwrap();
        assert_eq!(pending.packets.len(), ARP_PENDING_HARD_CAP);
        assert_eq!(s.stats().dropped, 100 - ARP_PENDING_HARD_CAP as u64);
    }

    #[test]
    fn arp_eviction_never_drops_tcp_segments() {
        let mut s = stack(1);
        // Park a SYN on an unresolved next-hop…
        s.tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 99), 80))
            .unwrap();
        // …then flood the same next-hop with droppable datagrams.
        let sock = s.udp_bind(5000).unwrap();
        let dst = Endpoint::new(Ipv4Addr::new(10, 0, 0, 99), 7);
        for _ in 0..32 {
            s.udp_send_to(sock, b"flood", dst).unwrap();
        }
        let pending = s.arp_pending.get(&dst.addr).unwrap();
        assert_eq!(pending.packets.len(), ARP_PENDING_CAP);
        let tcp_parked = pending
            .packets
            .iter()
            .filter(|(p, _)| *p == IpProto::Tcp)
            .count();
        assert_eq!(
            tcp_parked, 1,
            "the SYN survives eviction (recovering it would cost a full RTO)"
        );
    }

    #[test]
    fn quiet_queue_arp_retry_fires_on_pump_cadence() {
        let mut s = stack(1);
        let sock = s.udp_bind(5000).unwrap();
        // One send parks one packet and broadcasts one who-has.
        s.udp_send_to(sock, b"hello?", Endpoint::new(Ipv4Addr::new(10, 0, 0, 99), 7))
            .unwrap();
        assert_eq!(s.stats().tx_frames, 1);
        // The application goes quiet: no new packets ever park, so the
        // per-parked-packet cadence can never fire again — but pumping
        // must still retry on the per-burst counter.
        for _ in 0..ARP_REQUEST_RETRY_PUMPS * 2 {
            s.pump();
        }
        assert_eq!(
            s.stats().tx_frames,
            3,
            "two who-has retries after 2×{ARP_REQUEST_RETRY_PUMPS} quiet pumps"
        );
        assert_eq!(
            s.arp_pending.get(&Ipv4Addr::new(10, 0, 0, 99)).unwrap().packets.len(),
            1,
            "the parked packet still waits"
        );
    }

    #[test]
    fn udp_send_burst_reports_sendmmsg_counts() {
        let mut s = stack(1);
        let sock = s.udp_bind(5000).unwrap();
        let dst = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7);
        let ok = [0x11u8; 64];
        let too_big = vec![0u8; BUF_CAP];
        // A failing datagram mid-burst stops the burst; the count of
        // datagrams already staged is returned.
        let n = s
            .udp_send_burst(sock, [(&ok[..], dst), (&too_big[..], dst), (&ok[..], dst)])
            .unwrap();
        assert_eq!(n, 1, "burst stops at the first failure");
        // A failing *first* datagram surfaces the error.
        assert_eq!(
            s.udp_send_burst(sock, [(&too_big[..], dst)]).unwrap_err(),
            Errno::Inval
        );
        assert_eq!(
            s.udp_send_burst(sock, std::iter::empty()).unwrap(),
            0,
            "empty burst is a no-op"
        );
    }

    #[test]
    fn csum_offload_tracks_config_and_device_capability() {
        let s = stack(1);
        assert!(s.csum_offload(), "VirtioNet advertises tx csum offload");
        let tsc = Tsc::new(3_600_000_000);
        let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
        dev.configure(NetDevConf::default()).unwrap();
        let mut cfg = StackConfig::node(1);
        cfg.tx_csum_offload = false;
        let s = NetStack::new(cfg, Box::new(dev));
        assert!(!s.csum_offload(), "ablation switch wins over capability");
    }

    #[test]
    fn tso_requires_tx_csum_offload() {
        // The cut frames' checksums are completed host-side, so TSO
        // without checksum offload is a contradiction: the stack must
        // fall back to software segmentation.
        let tsc = Tsc::new(3_600_000_000);
        let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
        dev.configure(NetDevConf::default()).unwrap();
        let mut cfg = StackConfig::node(1);
        cfg.tx_csum_offload = false; // tso wish stays on
        let s = NetStack::new(cfg, Box::new(dev));
        assert!(!s.tso(), "TSO gated on checksum offload");
        assert!(!s.csum_offload());
    }

    #[test]
    fn oversized_icmp_echo_request_is_dropped_not_echoed() {
        // An injected over-MTU echo request must not panic the reply
        // path (`append` would assert on tailroom) — it is dropped.
        let mut s = stack(1);
        let mut nb = uknetdev::netbuf::Netbuf::alloc(4096, TX_HEADROOM);
        nb.append(&[0x77u8; BUF_CAP]); // larger than any reply buffer
        crate::icmp::encode_echo_into(true, 1, 1, &mut nb);
        let ip = Ipv4Header {
            src: Ipv4Addr::new(10, 0, 0, 2),
            dst: s.ip(),
            proto: IpProto::Icmp,
            payload_len: nb.len(),
            ttl: 64,
        };
        ip.encode_into(&mut nb);
        EthHeader {
            dst: s.mac(),
            src: Mac::node(2),
            ethertype: EtherType::Ipv4,
        }
        .encode_into(&mut nb);
        s.deliver_frame(nb);
        let pool_before = s.pool_available().unwrap();
        s.pump();
        assert_eq!(s.stats().dropped, 1, "oversized request dropped");
        assert_eq!(
            s.pool_available().unwrap(),
            pool_before,
            "reply buffer recycled"
        );
    }

    #[test]
    fn oversized_udp_payload_rejected_and_buffer_recycled() {
        let mut s = stack(1);
        let sock = s.udp_bind(5000).unwrap();
        let before = s.pool_available().unwrap();
        let big = vec![0u8; BUF_CAP];
        let err = s
            .udp_send_to(sock, &big, Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7))
            .unwrap_err();
        assert_eq!(err, Errno::Inval);
        assert_eq!(s.pool_available().unwrap(), before, "no pool leak");
    }

    #[test]
    fn tcp_listen_twice_fails() {
        let mut s = stack(1);
        s.tcp_listen(80).unwrap();
        assert_eq!(s.tcp_listen(80).unwrap_err(), Errno::AddrInUse);
    }

    #[test]
    fn recv_on_bad_handle_errors() {
        let mut s = stack(1);
        assert_eq!(s.tcp_recv(SocketHandle(99), 10).unwrap_err(), Errno::BadF);
    }

    #[test]
    fn handle_spaces_are_disjoint() {
        let mut s = stack(1);
        let udp = s.udp_bind(9000).unwrap();
        let listener = s.tcp_listen(80).unwrap();
        let conn = s
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        assert_eq!(listener.0 & LISTENER_TAG, LISTENER_TAG);
        assert!(udp.0 < 1 << 32, "UDP handles stay in the counter range");
        assert_eq!(conn.0 & LISTENER_TAG, 0);
        assert!(conn.0 >> 32 > 0, "conn handles carry a generation tag");
        assert!(s.tcp_state(conn).is_some());
        assert_eq!(s.tcp_state(SocketHandle(99)), None, "garbage handle");
    }

    #[test]
    fn source_for_unknown_handle_reports_hup_and_is_pruned() {
        let mut s = stack(1);
        let src = s.ready_source(SocketHandle(4242));
        assert!(src.current().contains(EventMask::HUP));
        let sock = s.udp_bind(9000).unwrap();
        let _live = s.ready_source(sock);
        assert_eq!(s.watched_source_count(), 2);
        // Per-socket ops only sync their own cell; the full sweep in
        // `pump` prunes defunct ones.
        s.pump();
        assert_eq!(s.watched_source_count(), 1, "only the live socket stays");
    }
}
