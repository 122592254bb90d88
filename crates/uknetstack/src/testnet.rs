//! An in-process network: wires stacks together through their devices.
//!
//! Frames harvested from one stack's TX completions are injected into the
//! destination stack's RX ring, selected by destination MAC (broadcast
//! goes everywhere). This replaces the paper's physical 10 GbE cable
//! between two Shuttle machines with a lossless in-memory link — the code
//! under test (drivers, stack, sockets) is identical.
//!
//! The wire moves *netbufs*, not owned byte vectors — and it moves
//! them in **bursts**: TX completions are reclaimed as pooled buffers
//! ([`NetStack::harvest_tx`]), each frame is "DMA"-copied onto a
//! buffer posted from the receiver's own pool (one copy, exactly what
//! a NIC does on the cable) and staged per destination, and every
//! destination gets its whole batch with a single
//! [`NetStack::deliver_burst`] — one ring crossing per burst, not per
//! frame. The sender's buffers are recycled. In steady state a `step`
//! performs zero heap allocations — buffers just circulate through
//! the pools.
//!
//! The wire is also the **host side of the device's offloads**, the
//! role vhost plays for virtio-net:
//!
//! - a harvested frame carrying a `GsoRequest`
//!   (`VIRTIO_NET_F_HOST_TSO4`) is cut into per-MSS wire frames by
//!   [`uknetdev::gso::cut_frame`] *directly onto the receiver's
//!   pooled RX buffers* — the cut and the DMA copy are the same pass,
//!   so an oversized super-segment chain costs one ring crossing and
//!   one staging entry on the TX side no matter how many MSS frames
//!   it becomes;
//! - every frame the wire delivers is marked checksum-validated
//!   (`VIRTIO_NET_F_GUEST_CSUM`): the sending device completed or
//!   verified the checksums before the frame reached the cable, so
//!   the receiving stack may skip its software verification pass.
//!   Frames injected by other means (tests forging corruption) stay
//!   unmarked and are always verified.
//!
//! For receive-path robustness tests the wire can also be made
//! **imperfect**: [`Network::set_dup_every`] duplicates every n-th
//! delivered plain frame, [`Network::set_reorder_every`] swaps
//! every n-th with its predecessor in the same destination's batch,
//! [`Network::set_drop_every`] silently discards every n-th, and
//! [`Network::set_drop_burst`] discards a whole run of consecutive
//! frames on a cadence (congestive tail loss) — deterministic
//! stand-ins for the duplicated/reordered/lost deliveries a real L2
//! can produce, which the TCP loss-recovery machinery must survive
//! with byte-identical delivery (retransmit the hole, reassemble the
//! out-of-order tail, never desync on a reordered FIN). Injected
//! faults are visible both through [`Network::faults_injected`] and,
//! for drops, through the `testnet.drops_injected` counter in the
//! global `ukstats` registry, so fault schedules show up in `/stats`
//! and bench snapshots.
//!
//! [`Network::set_bandwidth_delay`] turns the ideal cable into a
//! bandwidth-delay pipe: delivered frames sit in an in-flight line for
//! a fixed number of steps (propagation delay) and at most a budget of
//! frames drains per step (link rate), so congestion-control tests see
//! queueing, RTT, and a real in-flight cap. [`Network::set_clock`]
//! shares one virtual [`ukplat::time::Tsc`] across every attached
//! stack and advances it per step ([`Network::set_step_ns`]), driving
//! the stacks' retransmission timers deterministically.

use uknetdev::netbuf::Netbuf;

use crate::arp::{ArpOp, ArpPacket};
use crate::eth::{EthHeader, EtherType};
use crate::ipv4::{IpProto, Ipv4Header};
use crate::stack::NetStack;
use crate::tcp::{TcpFlags, TcpHeader, TCP_HDR_LEN};
use crate::{Endpoint, Ipv4Addr, Mac};

/// A hub connecting multiple stacks.
#[derive(Debug, Default)]
pub struct Network {
    stacks: Vec<NetStack>,
    /// Harvest scratch, reused across steps.
    wire_scratch: Vec<Netbuf>,
    /// Per-destination injection staging (reused across steps).
    inject_stage: Vec<Vec<Netbuf>>,
    /// When capturing, every delivered wire frame's bytes in delivery
    /// order (post-TSO-cut — what the receivers actually see).
    wire_log: Option<Vec<Vec<u8>>>,
    /// Duplicate every n-th delivered plain frame (0 = off).
    dup_every: u64,
    /// Swap every n-th delivered plain frame with its predecessor in
    /// the same destination batch (0 = off).
    reorder_every: u64,
    /// Discard every n-th delivered plain frame (0 = off).
    drop_every: u64,
    /// Bit-flip every n-th delivered plain IPv4 frame (0 = off).
    corrupt_every: u64,
    /// Start a drop burst every n-th plain frame (0 = off).
    drop_burst_every: u64,
    /// Length of each drop burst (frames).
    drop_burst_len: u64,
    /// Frames still to discard in the current burst.
    drop_burst_left: u64,
    /// Plain frames delivered since the fault counters were armed.
    fault_tick: u64,
    /// Faults injected so far (tests assert against this).
    faults_injected: u64,
    /// Propagation delay in steps for the bandwidth-delay pipe
    /// (0 with `bw_per_step == 0` = ideal cable).
    delay_steps: u64,
    /// Frames released from the in-flight line per step (0 = no cap).
    bw_per_step: usize,
    /// In-flight frames: (release step, destination, frame).
    delay_line: std::collections::VecDeque<(u64, usize, Netbuf)>,
    /// Steps taken (drives the delay line).
    step_no: u64,
    /// Shared virtual clock, advanced per step when armed.
    clock: Option<ukplat::time::Tsc>,
    /// Nanoseconds the clock advances per step.
    step_ns: u64,
}

/// The wire-side drop counter, shared by every [`Network`] in the
/// process (the `ukstats` registry is global; registration dedups by
/// name, so this is one slot no matter how many wires exist).
fn drops_counter() -> ukstats::Counter {
    static C: std::sync::OnceLock<ukstats::Counter> = std::sync::OnceLock::new();
    *C.get_or_init(|| ukstats::Counter::register("testnet.drops_injected"))
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a stack; returns its index.
    pub fn attach(&mut self, stack: NetStack) -> usize {
        self.stacks.push(stack);
        // Pre-sized for the deepest step backlogs the bulk workloads
        // reach: harvest and stage depth shifts between runs with the
        // stacks' recovery/ACK timing, and the zero-alloc guards would
        // see a mid-measurement Vec growth as a datapath allocation.
        self.inject_stage.push(Vec::with_capacity(256));
        if self.wire_scratch.capacity() < 256 {
            self.wire_scratch.reserve(256 - self.wire_scratch.capacity());
        }
        self.stacks.len() - 1
    }

    /// Access a stack by index.
    pub fn stack(&mut self, idx: usize) -> &mut NetStack {
        &mut self.stacks[idx]
    }

    /// Starts recording every delivered wire frame (post-TSO-cut).
    /// Tests use this to prove framing properties — e.g. that TSO
    /// device cutting and software segmentation are byte-identical on
    /// the wire. Capturing allocates; perf paths leave it off.
    pub fn start_wire_capture(&mut self) {
        self.wire_log = Some(Vec::new());
    }

    /// Takes the captured frames recorded since
    /// [`start_wire_capture`](Self::start_wire_capture) (capture stays
    /// on with an empty log).
    pub fn take_wire_capture(&mut self) -> Vec<Vec<u8>> {
        self.wire_log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Stops recording wire frames and discards anything captured —
    /// capturing allocates per frame, so drivers that interleave
    /// capture-assisted setup with allocation-sensitive measurement
    /// turn it off before the timed window.
    pub fn stop_wire_capture(&mut self) {
        self.wire_log = None;
    }

    /// Duplicates every `n`-th delivered plain (unchained) frame: the
    /// receiver sees the frame twice back-to-back, like a flapping
    /// switch path. `0` disables. Deterministic — tests get the same
    /// fault pattern every run.
    pub fn set_dup_every(&mut self, n: u64) {
        self.dup_every = n;
        self.fault_tick = 0;
    }

    /// Swaps every `n`-th delivered plain frame with the frame staged
    /// just before it for the same destination (adjacent reorder).
    /// `0` disables.
    pub fn set_reorder_every(&mut self, n: u64) {
        self.reorder_every = n;
        self.fault_tick = 0;
    }

    /// Discards every `n`-th delivered plain frame before it reaches
    /// the receiver's ring, like congestive loss on a real cable. `0`
    /// disables. Each drop bumps `testnet.drops_injected` in the
    /// global stats registry. Datagram traffic (UDP, pings) loses
    /// those frames for good; TCP streams recover them through the
    /// stack's retransmission machinery.
    pub fn set_drop_every(&mut self, n: u64) {
        self.drop_every = n;
        self.fault_tick = 0;
        drops_counter(); // Register the slot up front.
    }

    /// Flips one payload bit in every `n`-th delivered plain IPv4
    /// frame — in-flight corruption a real cable or a flaky NIC can
    /// produce. `0` disables. The corrupted frame loses its
    /// device-verified checksum mark (`VIRTIO_NET_F_GUEST_CSUM` no
    /// longer vouches for it), so the receiving stack's software
    /// verification pass detects the damage and drops the frame — to
    /// TCP it looks like loss and is recovered by retransmission.
    /// Non-IP frames (ARP) are exempt: they carry no checksum to
    /// detect the damage with.
    pub fn set_corrupt_every(&mut self, n: u64) {
        self.corrupt_every = n;
        self.fault_tick = 0;
    }

    /// Discards `len` *consecutive* plain frames starting at every
    /// `every`-th delivery — the congestive tail-loss pattern that
    /// defeats fast retransmit (not enough dup-ACKs survive) and
    /// forces the RTO path. `every == 0` disables.
    pub fn set_drop_burst(&mut self, every: u64, len: u64) {
        self.drop_burst_every = every;
        self.drop_burst_len = len;
        self.drop_burst_left = 0;
        self.fault_tick = 0;
        drops_counter(); // Register the slot up front.
    }

    /// Turns the ideal cable into a bandwidth-delay pipe: every
    /// delivered frame sits in flight for `delay_steps` steps
    /// (propagation delay), and at most `per_step` frames drain from
    /// the line per step (the link rate; `0` = uncapped). Frames
    /// beyond the budget queue behind — the standing queue a
    /// congestion controller is supposed to regulate. `(0, 0)`
    /// restores the ideal cable (any frames still in flight are
    /// delivered on the following steps).
    pub fn set_bandwidth_delay(&mut self, delay_steps: u64, per_step: usize) {
        self.delay_steps = delay_steps;
        self.bw_per_step = per_step;
    }

    /// Shares one virtual clock across every *currently attached*
    /// stack (arming their retransmission timers) and keeps a handle
    /// so [`step`](Self::step) can advance it. Pair with
    /// [`set_step_ns`](Self::set_step_ns).
    pub fn set_clock(&mut self, tsc: &ukplat::time::Tsc) {
        for s in &mut self.stacks {
            s.set_clock(tsc);
        }
        self.clock = Some(tsc.clone());
    }

    /// Nanoseconds the shared clock advances at the start of every
    /// [`step`](Self::step) (default 0 — the clock only moves when the
    /// test advances it by hand).
    pub fn set_step_ns(&mut self, ns: u64) {
        self.step_ns = ns;
    }

    /// Faults (duplicates + reorders + drops) injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// Moves frames between stacks once **without** pumping them — the
    /// pure wire half of [`step`](Self::step). Callers that need to
    /// attribute work per side (the receive-path benches time the
    /// receiver's pump separately) drive the pumps themselves.
    pub fn transfer(&mut self) -> usize {
        let mut moved = 0;
        let mut scratch = std::mem::take(&mut self.wire_scratch);
        let mut stage = std::mem::take(&mut self.inject_stage);
        for src in 0..self.stacks.len() {
            self.stacks[src].harvest_tx(&mut scratch);
            for nb in scratch.drain(..) {
                // The device must have completed any offloaded
                // checksum before the frame reached the wire — except
                // on a GSO frame, whose per-frame checksums only exist
                // after the cut below services the request.
                debug_assert!(
                    nb.csum_request().is_none() || nb.gso_request().is_some(),
                    "frame crossed the wire with an unserviced csum request"
                );
                let dst = match EthHeader::decode(nb.payload()) {
                    Ok((h, _)) => h.dst,
                    Err(_) => {
                        self.stacks[src].recycle(nb);
                        continue;
                    }
                };
                let deliverable = dst == Mac::BROADCAST
                    || self
                        .stacks
                        .iter()
                        .enumerate()
                        .any(|(i, s)| i != src && dst == s.mac());
                if !deliverable {
                    // Addressed to a MAC nobody owns (e.g. a response
                    // drawn by forged traffic): the frame vanishes on
                    // the wire — but the capture still sees it, so
                    // drivers can observe what the victim answered.
                    if let Some(log) = self.wire_log.as_mut() {
                        log.push(nb.chain_segments().flatten().copied().collect());
                    }
                }
                for i in 0..self.stacks.len() {
                    if i == src {
                        continue;
                    }
                    if dst != self.stacks[i].mac() && dst != Mac::BROADCAST {
                        continue;
                    }
                    let staged_from = stage[i].len();
                    if let Some(gso) = nb.gso_request() {
                        if self.stacks[i].accepts_super_frames() {
                            // Guest-to-guest fast path
                            // (`VIRTIO_NET_F_GUEST_TSO4`/`MRG_RXBUF`):
                            // the super-segment is never cut — it
                            // crosses as one chain, DMA-copied extent
                            // by extent onto the receiver's pooled
                            // buffers. One delivery, one demux, one
                            // ingest on the other side.
                            let stack = &mut self.stacks[i];
                            let mut segs = nb.chain_segments();
                            let mut rx = stack.take_rx_buf();
                            rx.set_payload(segs.next().expect("chain head"));
                            for seg in segs {
                                let mut frag = stack.take_rx_buf();
                                frag.set_payload(seg);
                                rx.chain_append(frag);
                            }
                            stage[i].push(rx);
                            moved += 1;
                        } else {
                            // Host-side TSO cut
                            // (`VIRTIO_NET_F_HOST_TSO4` without a
                            // big-receive peer): cut MSS frames
                            // straight onto the receiver's pooled RX
                            // buffers — the cut is the DMA copy.
                            let stack = &mut self.stacks[i];
                            match uknetdev::gso::cut_frame(
                                &nb,
                                gso.mss,
                                || stack.take_rx_buf(),
                                &mut stage[i],
                            ) {
                                Ok(n) => moved += n,
                                Err(_) => continue, // Malformed: dropped.
                            }
                        }
                    } else {
                        // Wire "DMA": copy the frame onto a buffer
                        // from the receiver's pool and stage it for
                        // that destination's burst.
                        let mut rx = self.stacks[i].take_rx_buf();
                        rx.set_payload(nb.payload());
                        stage[i].push(rx);
                        moved += 1;
                    }
                    for rx in &mut stage[i][staged_from..] {
                        // The sending device completed/verified every
                        // checksum (`VIRTIO_NET_F_GUEST_CSUM`).
                        rx.mark_csum_verified();
                    }
                    if let Some(log) = self.wire_log.as_mut() {
                        for rx in &stage[i][staged_from..] {
                            // A chain logs as one flattened frame.
                            log.push(rx.chain_segments().flatten().copied().collect());
                        }
                    }
                    // Configured wire faults: drop, duplicate delivery
                    // and adjacent reorder of plain frames, on
                    // deterministic cadences. Every plain frame staged
                    // by this delivery ticks the cadence once — a
                    // host-cut super-segment exposes each cut frame to
                    // the schedule individually, exactly as it would
                    // travel a real lossy link. Chained big-receive
                    // frames stay exempt (they never exist on a real
                    // wire as one frame).
                    if self.dup_every > 0
                        || self.reorder_every > 0
                        || self.drop_every > 0
                        || self.drop_burst_every > 0
                        || self.corrupt_every > 0
                    {
                        let mut k = staged_from;
                        while k < stage[i].len() {
                            if stage[i][k].has_frags() {
                                k += 1;
                                continue;
                            }
                            self.fault_tick += 1;
                            let mut drop =
                                self.drop_every > 0 && self.fault_tick % self.drop_every == 0;
                            if self.drop_burst_left > 0 {
                                // Mid-burst: this frame goes down too.
                                self.drop_burst_left -= 1;
                                drop = true;
                            } else if self.drop_burst_every > 0
                                && self.fault_tick % self.drop_burst_every == 0
                            {
                                self.drop_burst_left = self.drop_burst_len.saturating_sub(1);
                                drop = true;
                            }
                            if drop {
                                // The frame came off the receiver's pool;
                                // recycle it there so loss never leaks.
                                let lost = stage[i].remove(k);
                                self.stacks[i].recycle(lost);
                                moved -= 1;
                                self.faults_injected += 1;
                                drops_counter().inc();
                                continue; // `k` now names the next frame.
                            }
                            if self.corrupt_every > 0
                                && self.fault_tick % self.corrupt_every == 0
                            {
                                // Only IPv4 frames: a flipped ARP byte
                                // has no checksum to be caught by and
                                // would poison address resolution
                                // outside the fault model.
                                let rx = &mut stage[i][k];
                                let is_ipv4 = rx.payload().len() > 14
                                    && rx.payload()[12..14] == [0x08, 0x00];
                                if is_ipv4 {
                                    // Flip a bit in the last byte —
                                    // always inside the transport
                                    // checksum's coverage.
                                    let end = rx.payload().len() - 1;
                                    rx.payload_mut()[end] ^= 0x10;
                                    // The device's checksum guarantee
                                    // no longer holds: the receiver
                                    // must software-verify (and drop).
                                    rx.clear_csum_verified();
                                    self.faults_injected += 1;
                                }
                            }
                            if self.dup_every > 0 && self.fault_tick % self.dup_every == 0 {
                                let mut dup = self.stacks[i].take_rx_buf();
                                dup.set_payload(stage[i][k].payload());
                                // The copy inherits the original's
                                // checksum state: duplicating a frame
                                // the corrupt fault just touched must
                                // not restore the trusted mark.
                                if stage[i][k].csum_verified() {
                                    dup.mark_csum_verified();
                                }
                                stage[i].insert(k + 1, dup);
                                moved += 1;
                                self.faults_injected += 1;
                                k += 1; // The copy itself never ticks.
                            }
                            if self.reorder_every > 0
                                && self.fault_tick % self.reorder_every == 0
                                && k >= 1
                            {
                                stage[i].swap(k, k - 1);
                                self.faults_injected += 1;
                            }
                            k += 1;
                        }
                    }
                }
                self.stacks[src].recycle(nb);
            }
        }
        // Bandwidth-delay pipe: staged frames enter the in-flight
        // line; only the frames whose propagation delay has elapsed —
        // at most the per-step link budget — reach the rings below.
        self.step_no += 1;
        if self.delay_steps > 0 || self.bw_per_step > 0 || !self.delay_line.is_empty() {
            for (i, frames) in stage.iter_mut().enumerate() {
                for nb in frames.drain(..) {
                    self.delay_line
                        .push_back((self.step_no + self.delay_steps, i, nb));
                }
            }
            let budget = if self.bw_per_step == 0 {
                usize::MAX
            } else {
                self.bw_per_step
            };
            let mut released = 0;
            while released < budget {
                match self.delay_line.front() {
                    Some(&(due, _, _)) if due <= self.step_no => {}
                    _ => break,
                }
                let (_, i, nb) = self.delay_line.pop_front().expect("checked front");
                stage[i].push(nb);
                released += 1;
            }
            if !self.delay_line.is_empty() {
                // Frames still in flight: keep `run_until_quiet`
                // stepping until the pipe drains.
                moved += 1;
            }
        }
        // One ring injection per destination per step.
        for (i, frames) in stage.iter_mut().enumerate() {
            if !frames.is_empty() {
                self.stacks[i].deliver_burst(frames);
            }
        }
        self.wire_scratch = scratch;
        self.inject_stage = stage;
        moved
    }

    /// Moves frames between stacks once and lets every stack process
    /// what arrived; returns frames moved (wire frames, i.e. a TSO
    /// super-segment counts once per cut frame).
    pub fn step(&mut self) -> usize {
        if let Some(c) = self.clock.as_ref() {
            c.advance_ns(self.step_ns);
        }
        let moved = self.transfer();
        for s in &mut self.stacks {
            s.pump();
        }
        moved
    }

    /// Steps until no frames move (or `max_rounds` to bound livelock).
    pub fn run_until_quiet(&mut self, max_rounds: usize) -> usize {
        let mut total = 0;
        for _ in 0..max_rounds {
            let moved = self.step();
            total += moved;
            if moved == 0 {
                break;
            }
        }
        total
    }

    /// Teaches stack `dst` an ARP mapping by injecting a forged reply,
    /// the way an attacker on the L2 segment would poison the cache.
    /// The mapping lets the victim's responses (SYN-ACKs, RSTs) leave
    /// the stack instead of parking on a never-answered ARP request —
    /// they cross the wire to a MAC nobody owns and are recycled, so
    /// robustness tests can leak-check the victim's pool.
    pub fn inject_arp_reply(&mut self, dst: usize, ip: Ipv4Addr, mac: Mac) {
        let victim_mac = self.stacks[dst].mac();
        let victim_ip = self.stacks[dst].ip();
        let mut nb = Netbuf::alloc(2048, 64);
        nb.append(
            &ArpPacket {
                op: ArpOp::Reply,
                sha: mac,
                spa: ip,
                tha: victim_mac,
                tpa: victim_ip,
            }
            .encode(),
        );
        EthHeader {
            dst: victim_mac,
            src: mac,
            ethertype: EtherType::Arp,
        }
        .encode_into(&mut nb);
        self.stacks[dst].deliver_frame(nb);
    }

    /// Forges a bare TCP segment (no payload) from a spoofed remote
    /// endpoint and delivers it straight into stack `dst`'s RX ring.
    /// The segment carries a valid checksum and is wire-marked, so it
    /// exercises the demux and state machine, not the verification
    /// pass. This is the raw material for SYN floods, stray-segment
    /// RST tests, and handshake-timeout reclamation.
    pub fn inject_tcp(
        &mut self,
        dst: usize,
        from: Endpoint,
        from_mac: Mac,
        dst_port: u16,
        flags: TcpFlags,
        seq: u32,
        ack: u32,
    ) {
        let victim_mac = self.stacks[dst].mac();
        let victim_ip = self.stacks[dst].ip();
        let mut nb = Netbuf::alloc(2048, 64);
        let ip = Ipv4Header {
            src: from.addr,
            dst: victim_ip,
            proto: IpProto::Tcp,
            payload_len: TCP_HDR_LEN,
            ttl: 64,
        };
        TcpHeader {
            src_port: from.port,
            dst_port,
            seq,
            ack,
            flags,
            window: 65_535,
        }
        .encode_into(&ip, &mut nb);
        ip.encode_into(&mut nb);
        EthHeader {
            dst: victim_mac,
            src: from_mac,
            ethertype: EtherType::Ipv4,
        }
        .encode_into(&mut nb);
        nb.mark_csum_verified();
        self.stacks[dst].deliver_frame(nb);
    }

    /// The spoofed source endpoint and MAC the flood driver uses for
    /// attacker index `i` — a disjoint address plane (10.66.x.y) so
    /// forged traffic can never collide with attached stacks (10.0.0.n).
    pub fn spoofed_peer(i: usize) -> (Endpoint, Mac) {
        let ep = Endpoint::new(
            Ipv4Addr::new(10, 66, (i >> 8) as u8, i as u8),
            40_000 + (i % 20_000) as u16,
        );
        let mac = Mac([0x66, 0x66, 0x00, 0x00, (i >> 8) as u8, i as u8]);
        (ep, mac)
    }

    /// SYN-floods stack `dst`'s listener on `dst_port` with `count`
    /// forged handshake openers from distinct spoofed endpoints
    /// (`spoofed_peer(base)` through `spoofed_peer(base + count - 1)`)
    /// that will never complete — half-open connections. Each spoofed
    /// peer first teaches the victim its MAC so SYN-ACK replies drain
    /// onto the wire (and vanish) instead of pinning pool buffers
    /// under a pending ARP request. Frames are delivered in bursts of
    /// `per_step` with a wire step between bursts, like a real flood
    /// arriving across ring interrupts. Pass a fresh `base` per call
    /// to keep four-tuples distinct across calls.
    pub fn syn_flood(
        &mut self,
        dst: usize,
        dst_port: u16,
        base: usize,
        count: usize,
        per_step: usize,
    ) {
        let syn = TcpFlags {
            syn: true,
            ..TcpFlags::default()
        };
        let mut i = base;
        while i < base + count {
            let end = (i + per_step.max(1)).min(base + count);
            for j in i..end {
                let (ep, mac) = Self::spoofed_peer(j);
                self.inject_arp_reply(dst, ep.addr, mac);
                self.inject_tcp(dst, ep, mac, dst_port, syn, 0x1000_0000 + j as u32, 0);
            }
            self.step();
            i = end;
        }
    }

    /// Establishes `count` connections on stack `dst`'s listener on
    /// `dst_port` from spoofed peers `base..base + count`, completing
    /// each forged handshake: per burst of `per_step`, the driver
    /// poisons ARP, injects the SYNs, reads the listener's SYN-ACKs
    /// off the wire capture, and answers each with its matching ACK.
    /// The graduated connections land in the listener's accept backlog
    /// — the caller drains them with `tcp_accept` (so `count` per call
    /// must fit the backlog). Returns how many handshakes completed.
    /// This is the connection-scale driver: thousands of established
    /// TCBs on one stack without thousands of peer stacks.
    pub fn forge_established(
        &mut self,
        dst: usize,
        dst_port: u16,
        base: usize,
        count: usize,
        per_step: usize,
    ) -> usize {
        let victim_ip = self.stacks[dst].ip();
        let syn = TcpFlags {
            syn: true,
            ..TcpFlags::default()
        };
        let ack_flags = TcpFlags {
            ack: true,
            ..TcpFlags::default()
        };
        let mut completed = 0;
        let mut i = base;
        while i < base + count {
            let end = (i + per_step.max(1)).min(base + count);
            self.start_wire_capture();
            let mut burst: std::collections::HashMap<(Ipv4Addr, u16), (usize, Mac)> =
                std::collections::HashMap::new();
            for j in i..end {
                let (ep, mac) = Self::spoofed_peer(j);
                burst.insert((ep.addr, ep.port), (j, mac));
                self.inject_arp_reply(dst, ep.addr, mac);
                self.inject_tcp(dst, ep, mac, dst_port, syn, 0x1000_0000 + j as u32, 0);
            }
            // Two steps: the first pump processes the SYNs and stages
            // the SYN-ACKs; the second step's transfer carries them
            // across the (captured) wire.
            self.step();
            self.step();
            for frame in self.take_wire_capture() {
                let Ok((eth, rest)) = EthHeader::decode(&frame) else {
                    continue;
                };
                if eth.ethertype != EtherType::Ipv4 {
                    continue;
                }
                let Ok((ip, seg)) = Ipv4Header::decode_trusted(rest) else {
                    continue;
                };
                if ip.proto != IpProto::Tcp || ip.src != victim_ip {
                    continue;
                }
                let Ok((h, _)) = TcpHeader::decode_trusted(&ip, seg) else {
                    continue;
                };
                let Some(&(j, mac)) = burst.get(&(ip.dst, h.dst_port)) else {
                    continue;
                };
                if !(h.flags.syn && h.flags.ack) || h.src_port != dst_port {
                    continue;
                }
                let ep = Endpoint::new(ip.dst, h.dst_port);
                self.inject_tcp(
                    dst,
                    ep,
                    mac,
                    dst_port,
                    ack_flags,
                    0x1000_0000 + j as u32 + 1,
                    h.seq.wrapping_add(1),
                );
                completed += 1;
            }
            self.step(); // ACKs graduate embryos into the backlog.
            i = end;
        }
        self.stop_wire_capture();
        completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{SocketHandle, StackConfig};
    use crate::tcp::TcpState;
    use crate::{Endpoint, Ipv4Addr};
    use uknetdev::backend::VhostKind;
    use uknetdev::dev::{NetDev, NetDevConf};
    use uknetdev::VirtioNet;
    use ukplat::time::Tsc;

    fn mk_stack(n: u8) -> NetStack {
        let tsc = Tsc::new(3_600_000_000);
        let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
        dev.configure(NetDevConf::default()).unwrap();
        NetStack::new(StackConfig::node(n), Box::new(dev))
    }

    fn two_node_net() -> Network {
        let mut net = Network::new();
        net.attach(mk_stack(1));
        net.attach(mk_stack(2));
        net
    }

    #[test]
    fn forge_established_graduates_into_the_backlog() {
        let mut net = Network::new();
        net.attach(mk_stack(1));
        let victim = {
            let tsc = Tsc::new(3_600_000_000);
            let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
            dev.configure(NetDevConf::default()).unwrap();
            let mut cfg = StackConfig::node(2);
            cfg.listen_backlog = 128;
            cfg.lean_tcbs = true;
            NetStack::new(cfg, Box::new(dev))
        };
        let si = net.attach(victim);
        let clock = Tsc::new(1_000_000_000);
        net.set_clock(&clock);
        net.set_step_ns(1_000_000);
        let listener = net.stack(si).tcp_listen(9300).unwrap();
        let completed = net.forge_established(si, 9300, 0, 96, 32);
        assert_eq!(completed, 96, "every forged handshake answered");
        let mut got = Vec::new();
        while let Some(h) = net.stack(si).tcp_accept(listener) {
            got.push(h);
        }
        assert_eq!(got.len(), 96, "every completion graduated");
        for h in got {
            assert_eq!(net.stack(si).tcp_state(h), Some(TcpState::Established));
        }
        // Forged frames are heap buffers and SYN-ACKs went to the
        // wire: the victim's pool is whole.
        net.run_until_quiet(16);
        assert_eq!(net.stack(si).pool_available(), Some(512));
    }

    #[test]
    fn udp_round_trip_through_real_packets() {
        let mut net = two_node_net();
        let server_sock = net.stack(1).udp_bind(7).unwrap();
        let client_sock = net.stack(0).udp_bind(5000).unwrap();
        let server_ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7);
        net.stack(0)
            .udp_send_to(client_sock, b"echo me", server_ep)
            .unwrap();
        net.run_until_quiet(16);
        let (from, data) = net.stack(1).udp_recv_from(server_sock).unwrap();
        assert_eq!(data, b"echo me");
        assert_eq!(from.addr, Ipv4Addr::new(10, 0, 0, 1));
        // Reply.
        net.stack(1).udp_send_to(server_sock, b"reply", from).unwrap();
        net.run_until_quiet(16);
        let (_, data) = net.stack(0).udp_recv_from(client_sock).unwrap();
        assert_eq!(data, b"reply");
    }

    #[test]
    fn tcp_connect_accept_exchange() {
        let mut net = two_node_net();
        let listener = net.stack(1).tcp_listen(80).unwrap();
        let server_ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80);
        let client = net.stack(0).tcp_connect(server_ep).unwrap();
        net.run_until_quiet(32);
        assert_eq!(net.stack(0).tcp_state(client), Some(TcpState::Established));
        let server_conn: SocketHandle = net.stack(1).tcp_accept(listener).unwrap();
        assert_eq!(
            net.stack(1).tcp_state(server_conn),
            Some(TcpState::Established)
        );
        // Request/response.
        net.stack(0).tcp_send(client, b"GET /\r\n").unwrap();
        net.run_until_quiet(32);
        let req = net.stack(1).tcp_recv(server_conn, 1024).unwrap();
        assert_eq!(req, b"GET /\r\n");
        net.stack(1).tcp_send(server_conn, b"200 OK\r\n").unwrap();
        net.run_until_quiet(32);
        let resp = net.stack(0).tcp_recv(client, 1024).unwrap();
        assert_eq!(resp, b"200 OK\r\n");
        // Teardown.
        net.stack(0).tcp_close(client).unwrap();
        net.run_until_quiet(32);
        assert!(net.stack(1).tcp_peer_closed(server_conn));
    }

    #[test]
    fn large_tcp_transfer_crosses_segmentation() {
        let mut net = two_node_net();
        let listener = net.stack(1).tcp_listen(9000).unwrap();
        let server_ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9000);
        let client = net.stack(0).tcp_connect(server_ep).unwrap();
        net.run_until_quiet(32);
        let conn = net.stack(1).tcp_accept(listener).unwrap();
        let blob: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        net.stack(0).tcp_send(client, &blob).unwrap();
        net.run_until_quiet(64);
        let got = net.stack(1).tcp_recv(conn, usize::MAX).unwrap();
        assert_eq!(got, blob);
    }

    #[test]
    fn et_retriggers_on_new_data_while_level_high() {
        use ukevent::{EventMask, EventQueue};
        let mut net = two_node_net();
        let listener = net.stack(1).tcp_listen(8100).unwrap();
        let client = net
            .stack(0)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 8100))
            .unwrap();
        net.run_until_quiet(32);
        let conn = net.stack(1).tcp_accept(listener).unwrap();
        let src = net.stack(1).ready_source(conn);
        let mut q = EventQueue::new();
        q.ctl_add(1, &src, EventMask::IN | EventMask::ET).unwrap();

        net.stack(0).tcp_send(client, b"first").unwrap();
        net.run_until_quiet(32);
        assert_eq!(q.poll_ready(4).len(), 1);
        assert!(q.poll_ready(4).is_empty(), "edge consumed");
        // More data lands while the first is still unread: the level
        // never falls, but Linux ET re-triggers on each new arrival.
        net.stack(0).tcp_send(client, b"second").unwrap();
        net.run_until_quiet(32);
        assert_eq!(
            q.poll_ready(4).len(),
            1,
            "new arrival must re-trigger the edge watcher"
        );
    }

    #[test]
    fn window_closed_is_visible_through_stack_api() {
        let mut net = two_node_net();
        let listener = net.stack(1).tcp_listen(8000).unwrap();
        let client = net
            .stack(0)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 8000))
            .unwrap();
        net.run_until_quiet(32);
        let conn = net.stack(1).tcp_accept(listener).unwrap();
        assert!(!net.stack(0).tcp_window_closed(client));

        // Flood more than one receive window; the server does not read.
        let big = vec![0x11u8; 80_000];
        let accepted = net.stack(0).tcp_send(client, &big).unwrap();
        assert_eq!(accepted, crate::tcp::SND_BUF_CAP, "partial write at cap");
        net.run_until_quiet(64);
        assert!(net.stack(0).tcp_window_closed(client), "peer window exhausted");
        assert!(net.stack(0).tcp_send_capacity(client) < crate::tcp::SND_BUF_CAP);

        // Server drains; the window update reopens the sender.
        let got = net.stack(1).tcp_recv(conn, usize::MAX).unwrap();
        assert_eq!(got.len(), crate::tcp::RCV_BUF_CAP);
        net.run_until_quiet(64);
        assert!(!net.stack(0).tcp_window_closed(client));
        let rest = net.stack(1).tcp_recv(conn, usize::MAX).unwrap();
        assert_eq!(got.len() + rest.len(), accepted, "no byte lost");
    }

    #[test]
    fn udp_burst_apis_round_trip_a_full_batch() {
        let mut net = two_node_net();
        let ss = net.stack(1).udp_bind(7).unwrap();
        let cs = net.stack(0).udp_bind(5000).unwrap();
        let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7);
        // Warm ARP so the whole burst goes out as one staged batch.
        net.stack(0).udp_send_to(cs, b"warm", ep).unwrap();
        net.run_until_quiet(16);
        let mut scratch = [0u8; 2048];
        net.stack(1).udp_recv_into(ss, &mut scratch).unwrap();

        let payloads: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; 64 + i as usize]).collect();
        let sent = net
            .stack(0)
            .udp_send_burst(cs, payloads.iter().map(|p| (&p[..], ep)))
            .unwrap();
        assert_eq!(sent, 32, "whole batch staged in one burst");
        net.run_until_quiet(16);

        // recvmmsg-style drain: all 32 datagrams in one call, packed
        // back-to-back, order preserved.
        let mut buf = vec![0u8; 32 * 2048];
        let mut msgs = Vec::new();
        let n = net.stack(1).udp_recv_burst_into(ss, &mut buf, &mut msgs, 64);
        assert_eq!(n, 32);
        let mut off = 0;
        for (i, &(from, len)) in msgs.iter().enumerate() {
            assert_eq!(from.addr, Ipv4Addr::new(10, 0, 0, 1));
            assert_eq!(&buf[off..off + len], &payloads[i][..], "datagram {i}");
            off += len;
        }
        // Echo the batch back through the burst send path.
        let mut off = 0;
        let replies = msgs.iter().map(|&(from, len)| {
            let s = &buf[off..off + len];
            off += len;
            (s, from)
        });
        assert_eq!(net.stack(1).udp_send_burst(ss, replies).unwrap(), 32);
        net.run_until_quiet(16);
        let mut back = vec![0u8; 32 * 2048];
        let mut back_msgs = Vec::new();
        assert_eq!(
            net.stack(0).udp_recv_burst_into(cs, &mut back, &mut back_msgs, 64),
            32,
            "all replies arrive"
        );
    }

    #[test]
    fn udp_recv_burst_respects_max_and_buffer_space() {
        let mut net = two_node_net();
        let ss = net.stack(1).udp_bind(7).unwrap();
        let cs = net.stack(0).udp_bind(5000).unwrap();
        let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7);
        for _ in 0..8 {
            net.stack(0).udp_send_to(cs, &[0x5a; 100], ep).unwrap();
        }
        net.run_until_quiet(16);
        let mut buf = [0u8; 4096];
        let mut msgs = Vec::new();
        // `max` caps the batch…
        assert_eq!(net.stack(1).udp_recv_burst_into(ss, &mut buf, &mut msgs, 3), 3);
        // …and a buffer with room for only two more stops early
        // without truncating (the rest stays queued).
        msgs.clear();
        assert_eq!(
            net.stack(1).udp_recv_burst_into(ss, &mut buf[..250], &mut msgs, 64),
            2
        );
        msgs.clear();
        assert_eq!(net.stack(1).udp_recv_burst_into(ss, &mut buf, &mut msgs, 64), 3);
    }

    #[test]
    fn csum_offload_ablation_interoperates_with_software_path() {
        // One node offloads TX checksums to the device, the other
        // computes them in software; the wire traffic must be
        // indistinguishable and every checksum valid on receive.
        let mut net = Network::new();
        let mut cfg = StackConfig::node(1);
        cfg.tx_csum_offload = false;
        let tsc = Tsc::new(3_600_000_000);
        let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
        dev.configure(NetDevConf::default()).unwrap();
        let soft = net.attach(NetStack::new(cfg, Box::new(dev)));
        let hard = net.attach(mk_stack(2));
        assert!(!net.stack(soft).csum_offload());
        assert!(net.stack(hard).csum_offload());

        let listener = net.stack(hard).tcp_listen(80).unwrap();
        let client = net
            .stack(soft)
            .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        net.run_until_quiet(32);
        let conn = net.stack(hard).tcp_accept(listener).unwrap();
        net.stack(soft).tcp_send(client, b"no-offload -> offload").unwrap();
        net.run_until_quiet(32);
        assert_eq!(
            net.stack(hard).tcp_recv(conn, 1024).unwrap(),
            b"no-offload -> offload"
        );
        net.stack(hard).tcp_send(conn, b"offload -> no-offload").unwrap();
        net.run_until_quiet(32);
        assert_eq!(
            net.stack(soft).tcp_recv(client, 1024).unwrap(),
            b"offload -> no-offload"
        );
        assert_eq!(
            net.stack(soft).stats().csum_offloaded,
            0,
            "software node never offloads"
        );
        assert!(
            net.stack(hard).stats().csum_offloaded > 0,
            "offload node stamps partial sums"
        );
    }

    /// Establishes a client→server connection on an arbitrary net and
    /// returns the server-side conn handle.
    fn establish(net: &mut Network, ci: usize, si: usize, port: u16) -> (SocketHandle, SocketHandle) {
        let listener = net.stack(si).tcp_listen(port).unwrap();
        let server_ip = net.stack(si).ip();
        let client = net
            .stack(ci)
            .tcp_connect(Endpoint::new(server_ip, port))
            .unwrap();
        net.run_until_quiet(32);
        let conn = net.stack(si).tcp_accept(listener).unwrap();
        (client, conn)
    }

    /// Sends `data` client→server (chunked through the send buffer)
    /// and returns what the server read.
    fn bulk_send(
        net: &mut Network,
        ci: usize,
        si: usize,
        client: SocketHandle,
        conn: SocketHandle,
        data: &[u8],
    ) -> Vec<u8> {
        let mut got = Vec::new();
        let mut sent = 0;
        let mut buf = vec![0u8; 64 * 1024];
        for _ in 0..10_000 {
            if sent < data.len() {
                let n = net
                    .stack(ci)
                    .tcp_send_queued(client, &data[sent..])
                    .unwrap_or(0);
                sent += n;
                net.stack(ci).flush_output().unwrap();
            }
            net.step();
            loop {
                let n = net.stack(si).tcp_recv_into(conn, &mut buf).unwrap();
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            if got.len() == data.len() {
                break;
            }
        }
        got
    }

    #[test]
    fn tso_bulk_transfer_moves_super_segments_and_stays_intact() {
        let mut net = two_node_net();
        assert!(net.stack(0).tso(), "VirtioNet advertises TSO");
        let (client, conn) = establish(&mut net, 0, 1, 9100);
        let blob: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let got = bulk_send(&mut net, 0, 1, client, conn, &blob);
        assert_eq!(got.len(), blob.len(), "every byte arrived");
        assert_eq!(got, blob, "stream intact across TSO cutting");
        let stats = net.stack(0).stats();
        assert!(
            stats.tso_super_frames > 0,
            "bulk data left as GSO super-segments"
        );
        assert!(
            stats.tso_super_bytes >= 150_000,
            "most of the stream rode super-segments ({} bytes)",
            stats.tso_super_bytes
        );
        // The whole point: far fewer device/staging crossings than
        // wire frames. 200 KB is ~137 MSS frames; the sender should
        // have pushed an order of magnitude fewer TX frames.
        assert!(
            stats.tx_frames < 60,
            "super-segments amortize the TX path ({} tx frames)",
            stats.tx_frames
        );
        // And the receiver negotiated big receive: the supers arrived
        // whole as chains — one demux each — not as cut MSS frames.
        let rx = net.stack(1).stats();
        assert!(net.stack(1).accepts_super_frames());
        assert_eq!(
            rx.rx_super_frames, stats.tso_super_frames,
            "every super-segment was delivered whole (guest TSO)"
        );
        assert!(
            rx.rx_frames < 60,
            "big receive amortizes the RX path ({} rx frames)",
            rx.rx_frames
        );
    }

    #[test]
    fn supers_are_cut_to_mss_for_receivers_without_guest_tso() {
        // The receiver declines big receive (software RX checksums ⇒
        // no GUEST_TSO4, per the virtio feature dependency): the host
        // side must cut MSS frames — with valid checksums, since the
        // receiver verifies them in software.
        let mut net = Network::new();
        net.attach(mk_stack(1));
        let tsc = Tsc::new(3_600_000_000);
        let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
        dev.configure(NetDevConf::default()).unwrap();
        let mut cfg = StackConfig::node(2);
        cfg.rx_csum_offload = false;
        let rx = net.attach(NetStack::new(cfg, Box::new(dev)));
        assert!(!net.stack(rx).accepts_super_frames());

        let (client, conn) = establish(&mut net, 0, rx, 9600);
        let blob: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let got = bulk_send(&mut net, 0, rx, client, conn, &blob);
        assert_eq!(got, blob, "stream intact through the host-side cut");
        assert!(net.stack(0).stats().tso_super_frames > 0, "sender used TSO");
        let stats = net.stack(rx).stats();
        assert_eq!(stats.rx_super_frames, 0, "nothing arrived as a chain");
        assert!(
            stats.rx_frames > 70,
            "the wire delivered per-MSS cut frames ({})",
            stats.rx_frames
        );
        assert_eq!(stats.rx_csum_skipped, 0, "software verification ran");
    }

    #[test]
    fn tso_chain_buffers_recycle_to_sender_pool() {
        let mut net = two_node_net();
        let (client, conn) = establish(&mut net, 0, 1, 9200);
        let blob = vec![0x42u8; 100_000];
        let got = bulk_send(&mut net, 0, 1, client, conn, &blob);
        assert_eq!(got.len(), blob.len());
        net.run_until_quiet(32);
        let outstanding =
            net.stack(0).stats().tx_frames; // just to touch stats
        let _ = outstanding;
        let cfg_pool = 512;
        assert_eq!(
            net.stack(0).pool_available(),
            Some(cfg_pool),
            "every chain head and fragment returned to the client pool"
        );
        assert_eq!(
            net.stack(1).pool_available(),
            Some(cfg_pool),
            "every RX buffer returned to the server pool"
        );
    }

    #[test]
    fn tso_ablation_interoperates_with_software_segmentation() {
        // One node cuts on the device (TSO), the other segments in
        // software; streams in both directions must be intact.
        let mut net = Network::new();
        let mut cfg = StackConfig::node(1);
        cfg.tso = false;
        let tsc = Tsc::new(3_600_000_000);
        let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
        dev.configure(NetDevConf::default()).unwrap();
        let soft = net.attach(NetStack::new(cfg, Box::new(dev)));
        let hard = net.attach(mk_stack(2));
        assert!(!net.stack(soft).tso());
        assert!(net.stack(hard).tso());

        let (client, conn) = establish(&mut net, soft, hard, 9300);
        let blob: Vec<u8> = (0..80_000u32).map(|i| (i.wrapping_mul(7) % 256) as u8).collect();
        let got = bulk_send(&mut net, soft, hard, client, conn, &blob);
        assert_eq!(got, blob, "software-segmentation → TSO node");
        assert_eq!(net.stack(soft).stats().tso_super_frames, 0);

        // And back: the TSO node serves the software node.
        let back: Vec<u8> = blob.iter().rev().copied().collect();
        let mut sent = 0;
        let mut got2 = Vec::new();
        let mut buf = vec![0u8; 64 * 1024];
        for _ in 0..10_000 {
            if sent < back.len() {
                let n = net.stack(hard).tcp_send_queued(conn, &back[sent..]).unwrap_or(0);
                sent += n;
                net.stack(hard).flush_output().unwrap();
            }
            net.step();
            loop {
                let n = net.stack(soft).tcp_recv_into(client, &mut buf).unwrap();
                if n == 0 {
                    break;
                }
                got2.extend_from_slice(&buf[..n]);
            }
            if got2.len() == back.len() {
                break;
            }
        }
        assert_eq!(got2, back, "TSO node → software node");
        assert!(net.stack(hard).stats().tso_super_frames > 0);
    }

    #[test]
    fn stack_falls_back_to_software_segmentation_without_device_tso() {
        // The wire peer (device/host) does not advertise
        // VIRTIO_NET_F_HOST_TSO4: the stack's `tso` wish degrades to
        // the software per-MSS fallback transparently.
        let mut net = Network::new();
        let tsc = Tsc::new(3_600_000_000);
        let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
        dev.set_tso(false);
        dev.configure(NetDevConf::default()).unwrap();
        let cfg = StackConfig::node(1); // tso wish is on…
        let soft = net.attach(NetStack::new(cfg, Box::new(dev)));
        let hard = net.attach(mk_stack(2));
        assert!(!net.stack(soft).tso(), "…but the device lacks the feature");

        let (client, conn) = establish(&mut net, soft, hard, 9400);
        let blob = vec![0x5au8; 50_000];
        let got = bulk_send(&mut net, soft, hard, client, conn, &blob);
        assert_eq!(got, blob);
        assert_eq!(
            net.stack(soft).stats().tso_super_frames,
            0,
            "no super-segments without the device feature"
        );
    }

    #[test]
    fn out_of_range_tuning_knobs_are_clamped_safe() {
        // An oversized MSS would overflow a pooled buffer's usable
        // payload and an oversized GSO budget the IPv4 16-bit total
        // length; both must clamp rather than panic or stall.
        let mut net = Network::new();
        let mk = |n: u8| {
            let tsc = Tsc::new(3_600_000_000);
            let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
            dev.configure(NetDevConf::default()).unwrap();
            let mut cfg = StackConfig::node(n);
            cfg.mss = 5000;
            cfg.gso_max_size = 1_000_000;
            NetStack::new(cfg, Box::new(dev))
        };
        let ci = net.attach(mk(1));
        let si = net.attach(mk(2));
        let (client, conn) = establish(&mut net, ci, si, 9700);
        let blob: Vec<u8> = (0..150_000u32).map(|i| (i % 251) as u8).collect();
        let got = bulk_send(&mut net, ci, si, client, conn, &blob);
        assert_eq!(got, blob, "clamped knobs still move the stream intact");
        assert!(net.stack(ci).stats().tso_super_frames > 0);
    }

    #[test]
    fn rx_csum_offload_skips_software_verification() {
        let mut net = two_node_net();
        let (client, conn) = establish(&mut net, 0, 1, 9500);
        net.stack(0).tcp_send(client, b"marked frames skip the csum pass").unwrap();
        net.run_until_quiet(32);
        assert_eq!(
            net.stack(1).tcp_recv(conn, 1024).unwrap(),
            b"marked frames skip the csum pass"
        );
        assert!(
            net.stack(1).stats().rx_csum_skipped > 0,
            "wire-marked frames bypassed software verification"
        );
    }

    #[test]
    fn corrupted_unmarked_frames_are_still_dropped() {
        use crate::ipv4::{IpProto, Ipv4Header};
        use crate::udp::UdpHeader;
        let mut net = two_node_net();
        let sock = net.stack(1).udp_bind(7).unwrap();

        // Forge a full frame with a corrupted UDP payload byte and
        // inject it *without* the wire's checksum-validated mark.
        let forge = |corrupt: bool, marked: bool| -> Netbuf {
            let mut nb = Netbuf::alloc(2048, 64);
            nb.append(b"checksummed payload");
            let ip = Ipv4Header {
                src: Ipv4Addr::new(10, 0, 0, 1),
                dst: Ipv4Addr::new(10, 0, 0, 2),
                proto: IpProto::Udp,
                payload_len: 8 + nb.len(),
                ttl: 64,
            };
            UdpHeader {
                src_port: 5000,
                dst_port: 7,
            }
            .encode_into(&ip, &mut nb);
            ip.encode_into(&mut nb);
            EthHeader {
                dst: Mac::node(2),
                src: Mac::node(1),
                ethertype: crate::eth::EtherType::Ipv4,
            }
            .encode_into(&mut nb);
            if corrupt {
                let last = nb.len() - 1;
                nb.payload_mut()[last] ^= 0xff;
            }
            if marked {
                nb.mark_csum_verified();
            }
            nb
        };

        // Corrupt + unmarked: the software verification pass runs and
        // drops it, RX checksum offload notwithstanding.
        let dropped_before = net.stack(1).stats().dropped;
        let nb = forge(true, false);
        net.stack(1).deliver_frame(nb);
        net.stack(1).pump();
        assert_eq!(net.stack(1).stats().dropped, dropped_before + 1);
        assert!(net.stack(1).udp_recv_from(sock).is_none(), "nothing queued");

        // Corrupt + marked: the mark short-circuits verification —
        // proof the skip is real (a real NIC would not mark it).
        let nb = forge(true, true);
        net.stack(1).deliver_frame(nb);
        net.stack(1).pump();
        assert!(
            net.stack(1).udp_recv_from(sock).is_some(),
            "marked frame skipped the software checksum pass"
        );

        // Corrupt + marked, but the receiver disabled RX offload: the
        // ablation switch restores full software verification.
        let mut net2 = Network::new();
        let tsc = Tsc::new(3_600_000_000);
        let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
        dev.configure(NetDevConf::default()).unwrap();
        let mut cfg = StackConfig::node(2);
        cfg.rx_csum_offload = false;
        net2.attach(mk_stack(1));
        let rx = net2.attach(NetStack::new(cfg, Box::new(dev)));
        assert!(!net2.stack(rx).rx_csum_offload());
        let sock2 = net2.stack(rx).udp_bind(7).unwrap();
        let dropped_before = net2.stack(rx).stats().dropped;
        let nb = forge(true, true);
        net2.stack(rx).deliver_frame(nb);
        net2.stack(rx).pump();
        assert_eq!(net2.stack(rx).stats().dropped, dropped_before + 1);
        assert!(net2.stack(rx).udp_recv_from(sock2).is_none());
    }

    /// A wire that duplicates frames: the receiver must drop every
    /// stale copy (answering with a dup-ACK, not silence), keep the
    /// stream byte-exact, and recycle the dropped buffers — no pool
    /// leak. The sender runs without TSO so real per-MSS data frames
    /// are what get duplicated.
    #[test]
    fn duplicated_wire_frames_leave_the_stream_exact_and_leak_nothing() {
        let mut net = Network::new();
        let tsc = Tsc::new(3_600_000_000);
        let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
        dev.configure(NetDevConf::default()).unwrap();
        let mut cfg = StackConfig::node(1);
        cfg.tso = false; // Per-MSS frames on the wire.
        let ci = net.attach(NetStack::new(cfg, Box::new(dev)));
        let si = net.attach(mk_stack(2));
        net.set_dup_every(4);
        let (client, conn) = establish(&mut net, ci, si, 9800);
        let blob: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let got = bulk_send(&mut net, ci, si, client, conn, &blob);
        assert_eq!(got.len(), blob.len(), "every byte arrived exactly once");
        assert_eq!(got, blob, "stream exact despite duplicated deliveries");
        assert!(net.faults_injected() > 10, "the wire really duplicated");
        net.run_until_quiet(32);
        assert_eq!(
            net.stack(si).pool_available(),
            Some(512),
            "every dropped duplicate was recycled to the pool"
        );
        assert_eq!(net.stack(ci).pool_available(), Some(512));
    }

    /// The FIN-reorder regression at wire level: the wire swaps the
    /// final data segment with the FIN behind it, so the FIN arrives
    /// first (out of order). The receiver must drop the FIN without
    /// touching the sequence space — the data that follows still lands
    /// in order and the stream stays exact. (The old ingest advanced
    /// `rcv_nxt` for the early FIN and transitioned to CloseWait,
    /// after which the real data could never be accepted.)
    #[test]
    fn reordered_fin_does_not_desync_the_stream() {
        let mut net = two_node_net();
        let (client, conn) = establish(&mut net, 0, 1, 9900);
        // Everything already settled; now arm adjacent reordering for
        // every delivery whose batch has two frames.
        net.set_reorder_every(1);
        let payload = b"the last chunk before close";
        net.stack(0).tcp_send_queued(client, payload).unwrap();
        net.stack(0).tcp_close(client).unwrap(); // Data + FIN, one batch.
        net.run_until_quiet(32);
        assert!(net.faults_injected() > 0, "the wire really reordered");
        let got = net.stack(1).tcp_recv(conn, 1024).unwrap();
        assert_eq!(got, payload, "data accepted despite the early FIN");
        // The reordered FIN was dropped, not processed out of order:
        // the connection is still Established (the stacks' clocks
        // never move here, so the peer's FIN retransmission never
        // fires — the sequence
        // space staying intact is the property under test).
        assert_eq!(
            net.stack(1).tcp_state(conn),
            Some(TcpState::Established),
            "no bogus CloseWait from an out-of-order FIN"
        );
        assert!(!net.stack(1).tcp_peer_closed(conn));
    }

    /// GRO engages on per-MSS bursts: a non-TSO sender's consecutive
    /// segments are merged into multi-frame ingests, and the received
    /// stream plus the zero-copy netbuf drain are byte-exact.
    #[test]
    fn gro_coalesces_per_mss_bursts_and_netbuf_recv_drains_them() {
        let mut net = Network::new();
        let tsc = Tsc::new(3_600_000_000);
        let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
        dev.configure(NetDevConf::default()).unwrap();
        let mut cfg = StackConfig::node(1);
        cfg.tso = false; // Per-MSS sender: the GRO target workload.
        let ci = net.attach(NetStack::new(cfg, Box::new(dev)));
        let si = net.attach(mk_stack(2));
        assert!(net.stack(si).gro());
        let (client, conn) = establish(&mut net, ci, si, 9950);
        let blob: Vec<u8> = (0..120_000u32).map(|i| (i.wrapping_mul(13) % 251) as u8).collect();

        let mut got = Vec::new();
        let mut bufs: Vec<Netbuf> = Vec::new();
        let mut sent = 0;
        for _ in 0..10_000 {
            if sent < blob.len() {
                sent += net.stack(ci).tcp_send_queued(client, &blob[sent..]).unwrap_or(0);
                net.stack(ci).flush_output().unwrap();
            }
            net.step();
            // Zero-copy drain: whole payload buffers, recycled after.
            loop {
                let n = net.stack(si).tcp_recv_burst_netbuf(conn, &mut bufs, 64);
                if n == 0 {
                    break;
                }
                for nb in bufs.drain(..) {
                    got.extend_from_slice(nb.payload());
                    net.stack(si).recycle(nb);
                }
            }
            if got.len() == blob.len() {
                break;
            }
        }
        assert_eq!(got, blob, "stream exact through GRO + netbuf recv");
        let stats = net.stack(si).stats();
        assert!(stats.gro_runs > 0, "GRO really merged runs");
        assert!(
            stats.gro_merged_frames >= 2 * stats.gro_runs,
            "runs contain at least two frames each"
        );
        net.run_until_quiet(32);
        assert_eq!(
            net.stack(si).pool_available(),
            Some(512),
            "all receive-queue buffers returned to the pool"
        );
    }

    /// A fine-grained sender (many small segments, never drained) must
    /// not pin one pool buffer per segment: small extents coalesce
    /// into the receive-queue tail's tailroom (`tcp_try_coalesce`
    /// shape), so the buffers pinned stay proportional to the *bytes*
    /// buffered, not the segment count.
    #[test]
    fn small_segment_flood_does_not_pin_a_buffer_per_segment() {
        let mut net = two_node_net();
        let (client, conn) = establish(&mut net, 0, 1, 9850);
        // 300 separate 100-byte segments: sent one per step so the
        // send queue cannot merge them into MSS segments — each is
        // its own wire frame. The server never reads.
        let chunk = [0x4du8; 100];
        for _ in 0..300 {
            net.stack(0).tcp_send(client, &chunk).unwrap();
            net.step();
        }
        assert_eq!(net.stack(1).tcp_readable(conn), 300 * 100, "all buffered");
        let pinned = 512 - net.stack(1).pool_available().unwrap();
        assert!(
            pinned <= 32,
            "30 KB of 100-byte segments must coalesce into few buffers \
             ({pinned} pinned)"
        );
        // The stream is intact and every buffer comes back.
        let got = net.stack(1).tcp_recv(conn, usize::MAX).unwrap();
        assert_eq!(got.len(), 300 * 100);
        assert!(got.iter().all(|&b| b == 0x4d));
        net.run_until_quiet(16);
        assert_eq!(net.stack(1).pool_available(), Some(512), "no leak");
    }

    /// A lossy wire: every 3rd plain frame is silently discarded. The
    /// surviving datagrams arrive intact and in order, the loss shows
    /// up in both the wire's fault counter and the global
    /// `testnet.drops_injected` stat, and the dropped buffers are
    /// recycled — no pool leak. UDP carries the test so nothing
    /// retransmits and every injected loss stays visible end to end.
    #[test]
    fn dropped_wire_frames_are_counted_and_leak_nothing() {
        let mut net = two_node_net();
        let ss = net.stack(1).udp_bind(7).unwrap();
        let cs = net.stack(0).udp_bind(5000).unwrap();
        let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7);
        // Warm ARP before arming the fault so the resolution exchange
        // itself cannot be eaten.
        net.stack(0).udp_send_to(cs, b"warm", ep).unwrap();
        net.run_until_quiet(16);
        net.stack(1).udp_recv_from(ss).unwrap();

        let base = ukstats::snapshot();
        net.set_drop_every(3);
        for i in 0..30u8 {
            net.stack(0).udp_send_to(cs, &[i; 32], ep).unwrap();
            net.run_until_quiet(16);
        }
        let mut got = Vec::new();
        while let Some((_, data)) = net.stack(1).udp_recv_from(ss) {
            got.push(data[0]);
        }
        assert_eq!(got.len(), 20, "every 3rd of 30 datagrams was lost");
        // Survivors arrive in order with their payloads intact.
        assert!(got.windows(2).all(|w| w[0] < w[1]), "order preserved: {got:?}");
        assert_eq!(net.faults_injected(), 10, "the wire really dropped");
        if ukstats::COMPILED_IN {
            let snap = ukstats::snapshot();
            let before = base.counter("testnet.drops_injected").unwrap_or(0);
            assert_eq!(
                snap.counter("testnet.drops_injected").unwrap() - before,
                10,
                "drops are observable in the stats registry"
            );
        }
        net.run_until_quiet(16);
        assert_eq!(net.stack(1).pool_available(), Some(512), "no leak on loss");
        assert_eq!(net.stack(0).pool_available(), Some(512));

        // Disarming restores the lossless wire.
        net.set_drop_every(0);
        net.stack(0).udp_send_to(cs, b"clean", ep).unwrap();
        net.run_until_quiet(16);
        assert_eq!(net.stack(1).udp_recv_from(ss).unwrap().1, b"clean");
    }

    #[test]
    fn ping_round_trip() {
        let mut net = two_node_net();
        net.stack(0)
            .ping(Ipv4Addr::new(10, 0, 0, 2), 0x77, 1)
            .unwrap();
        net.run_until_quiet(16);
        let replies = net.stack(0).ping_replies();
        assert_eq!(replies, vec![(Ipv4Addr::new(10, 0, 0, 2), 0x77, 1)]);
        // The target recorded no stray replies.
        assert!(net.stack(1).ping_replies().is_empty());
    }

    #[test]
    fn three_stacks_share_the_wire() {
        let mut net = Network::new();
        net.attach(mk_stack(1));
        net.attach(mk_stack(2));
        net.attach(mk_stack(3));
        let s2 = net.stack(1).udp_bind(1000).unwrap();
        let s3 = net.stack(2).udp_bind(1000).unwrap();
        let c = net.stack(0).udp_bind(2000).unwrap();
        net.stack(0)
            .udp_send_to(c, b"to-2", Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 1000))
            .unwrap();
        net.stack(0)
            .udp_send_to(c, b"to-3", Endpoint::new(Ipv4Addr::new(10, 0, 0, 3), 1000))
            .unwrap();
        net.run_until_quiet(16);
        assert_eq!(net.stack(1).udp_recv_from(s2).unwrap().1, b"to-2");
        assert_eq!(net.stack(2).udp_recv_from(s3).unwrap().1, b"to-3");
    }
}
