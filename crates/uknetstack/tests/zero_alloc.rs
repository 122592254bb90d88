//! The zero-allocation guard for the pooled datapath.
//!
//! This binary installs [`ukalloc::stats::CountingAlloc`] as its global
//! allocator, so every heap allocation the process performs is counted.
//! After warm-up (scratch vectors sized, ARP resolved, ring buffers and
//! socket queues at steady capacity), a full TCP echo round-trip and a
//! full UDP request/response round-trip through the in-process wire
//! must perform **exactly zero** heap allocations: payloads are written
//! once into pooled netbufs, headers are prepended in the headroom, the
//! wire hands buffers between pools, and readers copy into caller-owned
//! storage via the `*_recv_into` paths.

use std::sync::{Mutex, MutexGuard};

use ukalloc::stats::{AllocCounter, CountingAlloc};
use ukevent::{Event, EventMask, EventQueue};
use uknetdev::backend::VhostKind;
use uknetdev::dev::{NetDev, NetDevConf};
use uknetdev::VirtioNet;
use uknetstack::stack::{NetStack, StackConfig, StackStats};
use uknetstack::testnet::Network;
use uknetstack::{Endpoint, Ipv4Addr};
use ukplat::time::Tsc;

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// The allocation counters are process-global and libtest runs the
/// tests in this binary on parallel threads, so each test holds this
/// lock for its whole body — otherwise a sibling test's setup
/// allocations would land inside another test's measured window.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn mk_stack(n: u8) -> NetStack {
    let tsc = Tsc::new(3_600_000_000);
    let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
    dev.configure(NetDevConf::default()).unwrap();
    NetStack::new(StackConfig::node(n), Box::new(dev))
}

#[test]
fn tcp_echo_round_trip_is_allocation_free_in_steady_state() {
    let _guard = serial();
    let mut net = Network::new();
    let ci = net.attach(mk_stack(1));
    let si = net.attach(mk_stack(2));
    // Arm the loss-recovery machinery: with a clock installed every
    // pump runs the RTO scan and every data frame is filed into the
    // retransmission queue on recycle. The wire is lossless, so no
    // timer ever fires — but the whole armed path must still stay
    // allocation-free. 1 µs steps keep virtual time far below the
    // 200 ms RTO floor.
    let clock = Tsc::new(1_000_000_000);
    net.set_clock(&clock);
    net.set_step_ns(1_000);
    let listener = net.stack(si).tcp_listen(7).unwrap();
    let client = net
        .stack(ci)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7))
        .unwrap();
    net.run_until_quiet(32);
    let server = net.stack(si).tcp_accept(listener).unwrap();

    let request = [0x42u8; 512];
    let mut buf = [0u8; 2048];

    let mut echo_round_trip = |net: &mut Network| {
        assert_eq!(net.stack(ci).tcp_send(client, &request).unwrap(), 512);
        net.run_until_quiet(32);
        let n = net.stack(si).tcp_recv_into(server, &mut buf).unwrap();
        assert_eq!(&buf[..n], &request[..]);
        assert_eq!(net.stack(si).tcp_send(server, &buf[..n]).unwrap(), n);
        net.run_until_quiet(32);
        let m = net.stack(ci).tcp_recv_into(client, &mut buf).unwrap();
        assert_eq!(&buf[..m], &request[..]);
    };

    // Warm up: scratch vectors, ring done-lists, recv/send rings and
    // HashMap capacities all reach their steady-state sizes.
    for _ in 0..4 {
        echo_round_trip(&mut net);
    }

    // Stats and tracing are ON in this build (default features): the
    // round-trip below must advance counters and write trace records
    // while STILL performing zero heap allocations — that is the whole
    // "observability without perturbing the hot path" contract.
    // Snapshotting and draining allocate, so both stay outside the
    // measured window.
    let base = ukstats::snapshot();
    net.stack(si).trace_events();

    let counter = AllocCounter::start();
    echo_round_trip(&mut net);
    assert_eq!(
        counter.allocs(),
        0,
        "steady-state TCP echo round-trip must not touch the heap \
         (with stats + tracing enabled)"
    );

    if ukstats::COMPILED_IN {
        let snap = ukstats::snapshot();
        let delta = |name: &str| {
            snap.counter(name).unwrap_or(0) - base.counter(name).unwrap_or(0)
        };
        assert!(delta("netstack.rx_frames") > 0, "counters advanced in the window");
        assert!(delta("netstack.demux_tcp") > 0, "TCP demux was counted");
        assert!(delta("netstack.pump_sweeps") > 0, "pump sweeps were counted");
    }
    if uktrace::COMPILED_IN {
        assert!(
            !net.stack(si).trace_ring().is_empty(),
            "the round-trip wrote trace records"
        );
    }
}

/// The readiness path: every request the server socket receives
/// publishes an edge to an edge-triggered `EventQueue` watching it, and
/// the event loop drains the queue into a reused buffer with
/// `poll_ready_into`. In steady state neither the edge (the source
/// notifying its watchers) nor the drain touches the heap.
#[test]
fn edge_triggered_readiness_is_allocation_free_in_steady_state() {
    let _guard = serial();
    let mut net = Network::new();
    let ci = net.attach(mk_stack(1));
    let si = net.attach(mk_stack(2));
    let clock = Tsc::new(1_000_000_000);
    net.set_clock(&clock);
    net.set_step_ns(1_000);
    let listener = net.stack(si).tcp_listen(7).unwrap();
    let client = net
        .stack(ci)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7))
        .unwrap();
    net.run_until_quiet(32);
    let server = net.stack(si).tcp_accept(listener).unwrap();
    let mut queue = EventQueue::new();
    let src = net.stack(si).ready_source(server);
    queue.ctl_add(7, &src, EventMask::IN | EventMask::ET).unwrap();

    let request = [0x42u8; 512];
    let mut buf = [0u8; 2048];
    let mut events: Vec<Event> = Vec::new();
    let mut round_trip = |net: &mut Network, queue: &mut EventQueue, ev: &mut Vec<Event>| {
        assert_eq!(net.stack(ci).tcp_send(client, &request).unwrap(), 512);
        net.run_until_quiet(32);
        assert_eq!(queue.poll_ready_into(ev, 8), 1, "the arrival is one edge");
        assert_eq!(ev[0].token, 7);
        assert!(ev[0].events.contains(EventMask::IN));
        assert_eq!(queue.poll_ready_into(ev, 8), 0, "edge consumed");
        let n = net.stack(si).tcp_recv_into(server, &mut buf).unwrap();
        assert_eq!(n, 512);
        assert_eq!(net.stack(si).tcp_send(server, &buf[..n]).unwrap(), n);
        net.run_until_quiet(32);
        assert_eq!(net.stack(ci).tcp_recv_into(client, &mut buf).unwrap(), 512);
    };
    for _ in 0..4 {
        round_trip(&mut net, &mut queue, &mut events);
    }

    let edges = queue.edges_seen();
    let counter = AllocCounter::start();
    round_trip(&mut net, &mut queue, &mut events);
    let allocs = counter.allocs();
    assert!(queue.edges_seen() > edges, "the window published edges");
    assert_eq!(
        allocs, 0,
        "steady-state edge delivery and poll_ready_into drain must not touch the heap"
    );
}

#[test]
fn udp_round_trip_is_allocation_free_in_steady_state() {
    let _guard = serial();
    let mut net = Network::new();
    let ci = net.attach(mk_stack(1));
    let si = net.attach(mk_stack(2));
    let server_sock = net.stack(si).udp_bind(9).unwrap();
    let client_sock = net.stack(ci).udp_bind(5000).unwrap();
    let server_ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9);

    let payload = [0x5au8; 256];
    let mut buf = [0u8; 2048];

    let mut round_trip = |net: &mut Network| {
        net.stack(ci)
            .udp_send_to(client_sock, &payload, server_ep)
            .unwrap();
        net.run_until_quiet(16);
        let (from, n) = net
            .stack(si)
            .udp_recv_into(server_sock, &mut buf)
            .unwrap();
        assert_eq!(&buf[..n], &payload[..]);
        net.stack(si)
            .udp_send_to(server_sock, &buf[..n], from)
            .unwrap();
        net.run_until_quiet(16);
        let (_, m) = net
            .stack(ci)
            .udp_recv_into(client_sock, &mut buf)
            .unwrap();
        assert_eq!(&buf[..m], &payload[..]);
    };

    for _ in 0..4 {
        round_trip(&mut net);
    }

    let counter = AllocCounter::start();
    round_trip(&mut net);
    assert_eq!(
        counter.allocs(),
        0,
        "steady-state UDP round-trip must not touch the heap"
    );
}

#[test]
fn tcp_echo_burst_of_32_is_allocation_free_in_steady_state() {
    let _guard = serial();
    let mut net = Network::new();
    let ci = net.attach(mk_stack(1));
    let si = net.attach(mk_stack(2));
    let listener = net.stack(si).tcp_listen(7).unwrap();
    let client = net
        .stack(ci)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7))
        .unwrap();
    net.run_until_quiet(32);
    let server = net.stack(si).tcp_accept(listener).unwrap();

    let request = [0x42u8; 512];
    let mut buf = [0u8; 2048];

    // 32 echoes per turn through the burst path: requests queue on the
    // connection (`tcp_send_queued`), one `flush_output` emits them as
    // MSS-sized segments in one staged tx burst, and the wire moves
    // each hop's frames with one `deliver_burst` per step.
    let mut echo_burst = |net: &mut Network| {
        for _ in 0..32 {
            assert_eq!(net.stack(ci).tcp_send_queued(client, &request).unwrap(), 512);
        }
        net.stack(ci).flush_output().unwrap();
        net.run_until_quiet(64);
        let mut echoed = 0;
        loop {
            let n = net.stack(si).tcp_recv_into(server, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            assert_eq!(net.stack(si).tcp_send_queued(server, &buf[..n]).unwrap(), n);
            echoed += n;
        }
        assert_eq!(echoed, 32 * 512, "whole burst arrived at the server");
        net.stack(si).flush_output().unwrap();
        net.run_until_quiet(64);
        let mut got = 0;
        loop {
            let n = net.stack(ci).tcp_recv_into(client, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            got += n;
        }
        assert_eq!(got, 32 * 512, "whole burst echoed back");
    };

    for _ in 0..4 {
        echo_burst(&mut net);
    }

    let counter = AllocCounter::start();
    echo_burst(&mut net);
    assert_eq!(
        counter.allocs(),
        0,
        "steady-state burst of 32 TCP echoes must not touch the heap"
    );
}

#[test]
fn udp_burst_of_32_datagrams_is_allocation_free_in_steady_state() {
    let _guard = serial();
    let mut net = Network::new();
    let ci = net.attach(mk_stack(1));
    let si = net.attach(mk_stack(2));
    let server_sock = net.stack(si).udp_bind(9).unwrap();
    let client_sock = net.stack(ci).udp_bind(5000).unwrap();
    let server_ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9);

    let payload = [0x5au8; 256];
    let payloads = [payload; 32];
    let mut rx_buf = vec![0u8; 32 * 2048];
    let mut msgs: Vec<(Endpoint, usize)> = Vec::with_capacity(32);

    // Resolve ARP first: an unresolved next-hop would park the first
    // burst and the droppable-packet cap would evict half of it.
    net.stack(ci)
        .udp_send_to(client_sock, b"warm", server_ep)
        .unwrap();
    net.run_until_quiet(16);
    let mut warm = [0u8; 64];
    net.stack(si)
        .udp_recv_into(server_sock, &mut warm)
        .unwrap();
    net.stack(si)
        .udp_send_to(server_sock, b"warm", Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 5000))
        .unwrap();
    net.run_until_quiet(16);
    net.stack(ci)
        .udp_recv_into(client_sock, &mut warm)
        .unwrap();

    // 32 datagrams per turn: one sendmmsg-style burst out, one
    // recvmmsg-style drain into a flat buffer, one burst of replies
    // sliced straight out of that buffer, one burst drain back.
    let round_trip = |net: &mut Network, msgs: &mut Vec<(Endpoint, usize)>,
                      rx_buf: &mut Vec<u8>| {
        let sent = net
            .stack(ci)
            .udp_send_burst(client_sock, payloads.iter().map(|p| (&p[..], server_ep)))
            .unwrap();
        assert_eq!(sent, 32);
        net.run_until_quiet(16);
        msgs.clear();
        let n = net
            .stack(si)
            .udp_recv_burst_into(server_sock, rx_buf, msgs, 32);
        assert_eq!(n, 32, "whole batch received in one call");
        let mut off = 0;
        let replies = msgs.iter().map(|&(from, len)| {
            let s = &rx_buf[off..off + len];
            off += len;
            (s, from)
        });
        assert_eq!(net.stack(si).udp_send_burst(server_sock, replies).unwrap(), 32);
        net.run_until_quiet(16);
        msgs.clear();
        let m = net
            .stack(ci)
            .udp_recv_burst_into(client_sock, rx_buf, msgs, 32);
        assert_eq!(m, 32, "all replies received in one call");
    };

    for _ in 0..4 {
        round_trip(&mut net, &mut msgs, &mut rx_buf);
    }

    let counter = AllocCounter::start();
    round_trip(&mut net, &mut msgs, &mut rx_buf);
    assert_eq!(
        counter.allocs(),
        0,
        "steady-state burst of 32 UDP datagrams must not touch the heap"
    );
}

#[test]
fn bulk_1mb_tso_transfer_is_allocation_free_in_steady_state() {
    let _guard = serial();
    let mut net = Network::new();
    let ci = net.attach(mk_stack(1));
    let si = net.attach(mk_stack(2));
    // Same arming as the echo guard: clock installed, RTO scan live,
    // every data frame filed for retransmission on recycle — and the
    // lossless bulk path still must not allocate.
    let clock = Tsc::new(1_000_000_000);
    net.set_clock(&clock);
    net.set_step_ns(1_000);
    assert!(net.stack(ci).tso(), "bulk path runs over TSO super-segments");
    let listener = net.stack(si).tcp_listen(9000).unwrap();
    let client = net
        .stack(ci)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9000))
        .unwrap();
    net.run_until_quiet(32);
    let server = net.stack(si).tcp_accept(listener).unwrap();

    const TOTAL: usize = 1024 * 1024;
    let chunk = [0x6bu8; 64 * 1024];
    let mut buf = vec![0u8; 64 * 1024];

    // One bulk transfer: the client streams 1 MB through the send
    // buffer (GSO super-segment chains on the wire), the server
    // drains as it arrives, keeping the window open.
    let transfer = |net: &mut Network, buf: &mut Vec<u8>| {
        let mut sent = 0;
        let mut got = 0;
        while got < TOTAL {
            if sent < TOTAL {
                let want = chunk.len().min(TOTAL - sent);
                let n = net
                    .stack(ci)
                    .tcp_send_queued(client, &chunk[..want])
                    .unwrap_or(0);
                sent += n;
                net.stack(ci).flush_output().unwrap();
            }
            net.step();
            loop {
                let n = net.stack(si).tcp_recv_into(server, buf).unwrap();
                if n == 0 {
                    break;
                }
                got += n;
            }
        }
        assert_eq!(got, TOTAL, "whole megabyte arrived");
    };

    for _ in 0..2 {
        transfer(&mut net, &mut buf);
    }

    let frames_before =
        net.stack(ci).stats().tx_frames + net.stack(si).stats().tx_frames;
    // As in the echo guard: stats + tracing are enabled and must ride
    // along allocation-free (snapshot/drain allocate, so outside).
    let base = ukstats::snapshot();
    net.stack(ci).trace_events();
    let counter = AllocCounter::start();
    transfer(&mut net, &mut buf);
    let allocs = counter.allocs();
    let frames =
        net.stack(ci).stats().tx_frames + net.stack(si).stats().tx_frames - frames_before;
    assert!(frames > 0);
    assert_eq!(
        allocs, 0,
        "steady-state 1 MB pooled transfer must not touch the heap \
         ({allocs} allocs over {frames} frames, stats + tracing enabled)"
    );
    // And it really rode the fast path: super-segments, not per-MSS.
    assert!(net.stack(ci).stats().tso_super_frames > 0);
    if ukstats::COMPILED_IN {
        let snap = ukstats::snapshot();
        let delta = |name: &str| {
            snap.counter(name).unwrap_or(0) - base.counter(name).unwrap_or(0)
        };
        assert!(delta("netstack.tso_super_frames") > 0, "registry saw the supers");
        assert!(delta("netstack.tx_bytes") >= TOTAL as u64, "bytes were counted");
        let hist = snap.hist("netstack.pump_ns").expect("pump histogram");
        let base_hist = base.hist("netstack.pump_ns").expect("pump histogram");
        assert!(hist.count > base_hist.count, "pump latency was recorded");
    }
    if uktrace::COMPILED_IN {
        assert!(
            !net.stack(ci).trace_ring().is_empty(),
            "the transfer wrote trace records (tso_super_tx et al.)"
        );
    }
}

/// The receive-side guard: a 1 MB transfer from a **per-MSS sender**
/// (TSO off — every wire frame is an MSS segment, the workload GRO
/// exists for) drained through the zero-copy netbuf receive path must
/// be allocation-free: frames coalesce in the reused GRO stage, the
/// payload buffers move from the demux into the connection's receive
/// queue and out to the application, and recycling returns each to
/// the pool. Not one byte of payload is copied on the receive side
/// and not one heap allocation happens anywhere.
#[test]
fn recv_1mb_gro_netbuf_path_is_allocation_free_in_steady_state() {
    let _guard = serial();
    let mut net = Network::new();
    let tsc = Tsc::new(3_600_000_000);
    let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
    dev.configure(NetDevConf::default()).unwrap();
    let mut cfg = StackConfig::node(1);
    cfg.tso = false; // Per-MSS frames on the wire.
    let ci = net.attach(NetStack::new(cfg, Box::new(dev)));
    let si = net.attach(mk_stack(2));
    assert!(net.stack(si).gro(), "receive path runs over GRO");
    let listener = net.stack(si).tcp_listen(9100).unwrap();
    let client = net
        .stack(ci)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9100))
        .unwrap();
    net.run_until_quiet(32);
    let server = net.stack(si).tcp_accept(listener).unwrap();

    const TOTAL: usize = 1024 * 1024;
    let chunk = [0x2eu8; 64 * 1024];
    let mut bufs: Vec<uknetdev::netbuf::Netbuf> = Vec::with_capacity(64);

    // One bulk transfer, drained entirely through tcp_recv_burst_netbuf
    // with every buffer recycled to the receiver's pool.
    let transfer = |net: &mut Network, bufs: &mut Vec<uknetdev::netbuf::Netbuf>| {
        let mut sent = 0;
        let mut got = 0;
        while got < TOTAL {
            if sent < TOTAL {
                let want = chunk.len().min(TOTAL - sent);
                let n = net
                    .stack(ci)
                    .tcp_send_queued(client, &chunk[..want])
                    .unwrap_or(0);
                sent += n;
                net.stack(ci).flush_output().unwrap();
            }
            net.step();
            loop {
                let n = net.stack(si).tcp_recv_burst_netbuf(server, bufs, 64);
                if n == 0 {
                    break;
                }
                for nb in bufs.drain(..) {
                    got += nb.payload().len();
                    net.stack(si).recycle(nb);
                }
            }
        }
        assert_eq!(got, TOTAL, "whole megabyte received as netbufs");
    };

    for _ in 0..2 {
        transfer(&mut net, &mut bufs);
    }

    let frames_before = net.stack(si).stats().rx_frames;
    let counter = AllocCounter::start();
    transfer(&mut net, &mut bufs);
    let allocs = counter.allocs();
    let frames = net.stack(si).stats().rx_frames - frames_before;
    assert!(frames > 500, "per-MSS receive really happened ({frames} frames)");
    assert_eq!(
        allocs, 0,
        "steady-state 1 MB GRO + netbuf receive must not touch the heap \
         ({allocs} allocs over {frames} frames)"
    );
    // And it really rode the receive fast path: coalesced runs.
    assert!(net.stack(si).stats().gro_runs > 0, "GRO merged runs");
}

/// The pool-layer guard beneath all the round-trip guards above: raw
/// take/give-back circulation performs zero heap allocations. This
/// holds in the default (tier-1) build — proving the `netbuf-sanitizer`
/// feature compiles out to literally nothing the allocator can see —
/// and under `make verify-sanitize` too, where poisoning is a byte fill
/// into existing storage and provenance is `&'static Location`, so even
/// the sanitized pool never touches the heap while circulating.
#[test]
fn pool_circulation_is_allocation_free_in_both_feature_modes() {
    let _guard = serial();
    let mut pool = uknetdev::netbuf::NetbufPool::new(8, 2048, 64);
    let mut held = Vec::with_capacity(8);
    // Warm one cycle (nothing to size, but keep the shape uniform).
    for _ in 0..8 {
        held.push(pool.take().unwrap());
    }
    for nb in held.drain(..) {
        pool.give_back(nb);
    }

    let counter = AllocCounter::start();
    for _ in 0..32 {
        for _ in 0..8 {
            held.push(pool.take().unwrap());
        }
        for nb in held.drain(..) {
            pool.give_back(nb);
        }
    }
    assert_eq!(
        counter.allocs(),
        0,
        "pool circulation must not touch the heap (netbuf-sanitizer {})",
        if cfg!(feature = "netbuf-sanitizer") { "on" } else { "off" },
    );
    assert_eq!(pool.available(), 8, "every buffer came home");
}

#[test]
fn buffers_circulate_without_draining_the_pools() {
    let _guard = serial();
    let mut net = Network::new();
    let ci = net.attach(mk_stack(1));
    let si = net.attach(mk_stack(2));
    let server_sock = net.stack(si).udp_bind(9).unwrap();
    let client_sock = net.stack(ci).udp_bind(5000).unwrap();
    let server_ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9);
    let mut buf = [0u8; 2048];

    // Settle, then record pool levels.
    net.stack(ci)
        .udp_send_to(client_sock, b"warm", server_ep)
        .unwrap();
    net.run_until_quiet(16);
    net.stack(si).udp_recv_into(server_sock, &mut buf).unwrap();
    let ci_avail = net.stack(ci).pool_available().unwrap();
    let si_avail = net.stack(si).pool_available().unwrap();

    for _ in 0..100 {
        net.stack(ci)
            .udp_send_to(client_sock, b"ping", server_ep)
            .unwrap();
        net.run_until_quiet(16);
        net.stack(si).udp_recv_into(server_sock, &mut buf).unwrap();
    }
    assert_eq!(
        net.stack(ci).pool_available(),
        Some(ci_avail),
        "every TX buffer returned to the client pool"
    );
    assert_eq!(
        net.stack(si).pool_available(),
        Some(si_avail),
        "every RX buffer returned to the server pool"
    );
}

/// One source of truth for every counter: the registry's `netstack.*`
/// counters are fed only from the stacks' own [`StackStats`], so over
/// a UDP demux miss, a UDP and a TCP echo (checksums offloaded) and a
/// lossy TSO-to-GRO bulk transfer, each registry delta equals the sum
/// of both stacks' `stats()` deltas. Serialized with the allocation
/// guards because the registry is process-global.
#[test]
fn registry_counters_are_the_sum_of_stack_stats() {
    if !ukstats::COMPILED_IN {
        return;
    }
    let _guard = serial();
    let mut net = Network::new();
    let ci = net.attach(mk_stack(1));
    let tsc = Tsc::new(3_600_000_000);
    let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
    dev.configure(NetDevConf::default()).unwrap();
    let mut cfg = StackConfig::node(2);
    cfg.guest_tso = false; // The client's supers are cut, then GRO-merged.
    let si = net.attach(NetStack::new(cfg, Box::new(dev)));
    let clock = Tsc::new(1_000_000_000);
    net.set_clock(&clock);
    net.set_step_ns(5_000_000);
    let base = ukstats::snapshot();
    let stats0 = [net.stack(ci).stats(), net.stack(si).stats()];
    let mut buf = vec![0u8; 64 * 1024];

    // UDP: a datagram to an unbound port, then an echo.
    let client_sock = net.stack(ci).udp_bind(5000).unwrap();
    let server_ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9);
    net.stack(ci)
        .udp_send_to(client_sock, b"miss", server_ep)
        .unwrap();
    net.run_until_quiet(16);
    let server_sock = net.stack(si).udp_bind(9).unwrap();
    net.stack(ci)
        .udp_send_to(client_sock, b"echo", server_ep)
        .unwrap();
    net.run_until_quiet(16);
    let (from, n) = net.stack(si).udp_recv_into(server_sock, &mut buf).unwrap();
    net.stack(si)
        .udp_send_to(server_sock, &buf[..n], from)
        .unwrap();
    net.run_until_quiet(16);
    assert_eq!(
        net.stack(ci)
            .udp_recv_into(client_sock, &mut buf)
            .unwrap()
            .1,
        n
    );

    // TCP: an echo, then a bulk transfer over a lossy wire.
    let listener = net.stack(si).tcp_listen(7).unwrap();
    let client = net
        .stack(ci)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 7))
        .unwrap();
    net.run_until_quiet(32);
    let server = net.stack(si).tcp_accept(listener).unwrap();
    net.stack(ci).tcp_send(client, b"hello").unwrap();
    net.run_until_quiet(32);
    let n = net.stack(si).tcp_recv_into(server, &mut buf).unwrap();
    net.stack(si).tcp_send(server, &buf[..n]).unwrap();
    net.run_until_quiet(32);
    assert_eq!(net.stack(ci).tcp_recv_into(client, &mut buf).unwrap(), n);
    net.set_drop_every(13);
    const TOTAL: usize = 256 * 1024;
    let chunk = [0x3cu8; 32 * 1024];
    let (mut sent, mut got) = (0, 0);
    for _ in 0..20_000 {
        if got == TOTAL {
            break;
        }
        if sent < TOTAL {
            let want = chunk.len().min(TOTAL - sent);
            sent += net
                .stack(ci)
                .tcp_send_queued(client, &chunk[..want])
                .unwrap_or(0);
            net.stack(ci).flush_output().unwrap();
        }
        net.step();
        got += net.stack(si).tcp_recv_into(server, &mut buf).unwrap();
    }
    assert_eq!(got, TOTAL, "the lossy transfer completed");
    net.set_drop_every(0);
    net.run_until_quiet(64);

    let snap = ukstats::snapshot();
    let moved = snap.counters_since(&base);
    let registry = |name: &str| moved.iter().find(|c| c.name == name).map_or(0, |c| c.value);
    let stats1 = [net.stack(ci).stats(), net.stack(si).stats()];
    for (i, name) in StackStats::NAMES.iter().enumerate() {
        let summed: u64 = (0..2)
            .map(|s| stats1[s].values()[i] - stats0[s].values()[i])
            .sum();
        assert_eq!(registry(name), summed, "{name}: registry vs sum of stats()");
    }
    // Every `netstack.*` counter the registry moved is a StackStats field.
    for c in moved.iter().filter(|c| c.name.starts_with("netstack.")) {
        assert!(
            StackStats::NAMES.contains(&c.name),
            "{} has no StackStats field",
            c.name
        );
    }
    for name in [
        "netstack.csum_offloaded",
        "netstack.demux_miss",
        "netstack.demux_udp",
        "netstack.gro_runs",
        "netstack.tso_super_frames",
        "netstack.tcp.retransmits",
    ] {
        assert!(registry(name) > 0, "{name} was exercised");
    }
}
