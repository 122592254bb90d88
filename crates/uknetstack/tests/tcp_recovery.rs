//! Wire-level TCP loss-recovery tests: retransmission timers, fast
//! retransmit, out-of-order reassembly and congestion control driven
//! through real stacks over the testnet's deterministic fault modes.
//!
//! Every test follows the same shape: establish on a clean wire (so
//! ARP and the handshake cannot be eaten), arm a fault schedule and a
//! shared virtual clock, then prove the stream still arrives
//! byte-identical — and that the recovery showed up in the
//! `netstack.tcp.*` loss counters, not by accident.

use uknetdev::backend::VhostKind;
use uknetdev::dev::{NetDev, NetDevConf};
use uknetdev::VirtioNet;
use uknetstack::stack::{NetStack, SocketHandle, StackConfig};
use uknetstack::tcp::TcpCounters;
use uknetstack::testnet::Network;
use uknetstack::{Endpoint, Ipv4Addr};
use ukplat::time::Tsc;

const POOL: usize = 512;

fn mk_stack(n: u8, tso: bool, cc: bool) -> NetStack {
    let tsc = Tsc::new(3_600_000_000);
    let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
    dev.configure(NetDevConf::default()).unwrap();
    let mut cfg = StackConfig::node(n);
    cfg.tso = tso;
    cfg.congestion_control = cc;
    NetStack::new(cfg, Box::new(dev))
}

/// A stack with an arbitrary config tweak on top of the node defaults
/// (per-MSS frames, cc on) — for the recovery-ablation tests.
fn mk_stack_cfg(n: u8, f: impl FnOnce(&mut StackConfig)) -> NetStack {
    let tsc = Tsc::new(3_600_000_000);
    let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc);
    dev.configure(NetDevConf::default()).unwrap();
    let mut cfg = StackConfig::node(n);
    cfg.tso = false;
    f(&mut cfg);
    NetStack::new(cfg, Box::new(dev))
}

/// A two-node clocked net where both stacks get the same config tweak.
fn clocked_net_cfg(step_ns: u64, f: impl Fn(&mut StackConfig)) -> Network {
    let mut net = Network::new();
    net.attach(mk_stack_cfg(1, &f));
    net.attach(mk_stack_cfg(2, &f));
    let tsc = Tsc::new(1_000_000_000); // 1 cycle = 1 ns.
    net.set_clock(&tsc);
    net.set_step_ns(step_ns);
    net
}

/// A two-node net with a shared virtual clock advancing `step_ns` per
/// step. `tso = false` keeps data on per-MSS plain wire frames — the
/// shape the fault injector acts on.
fn clocked_net(tso: bool, cc: bool, step_ns: u64) -> Network {
    let mut net = Network::new();
    net.attach(mk_stack(1, tso, cc));
    net.attach(mk_stack(2, tso, cc));
    let tsc = Tsc::new(1_000_000_000); // 1 cycle = 1 ns.
    net.set_clock(&tsc);
    net.set_step_ns(step_ns);
    net
}

fn establish(net: &mut Network, port: u16) -> (SocketHandle, SocketHandle) {
    let listener = net.stack(1).tcp_listen(port).unwrap();
    let server_ip = net.stack(1).ip();
    let client = net
        .stack(0)
        .tcp_connect(Endpoint::new(server_ip, port))
        .unwrap();
    net.run_until_quiet(32);
    let conn = net.stack(1).tcp_accept(listener).unwrap();
    (client, conn)
}

/// Sends `data` client→server, draining the server each step; panics
/// if the transfer does not complete within `rounds` steps.
fn bulk_send(
    net: &mut Network,
    client: SocketHandle,
    conn: SocketHandle,
    data: &[u8],
    rounds: usize,
) -> Vec<u8> {
    let mut got = Vec::with_capacity(data.len());
    let mut sent = 0;
    let mut buf = vec![0u8; 64 * 1024];
    for _ in 0..rounds {
        if sent < data.len() {
            let n = net
                .stack(0)
                .tcp_send_queued(client, &data[sent..])
                .unwrap_or(0);
            sent += n;
            net.stack(0).flush_output().unwrap();
        }
        net.step();
        loop {
            let n = net.stack(1).tcp_recv_into(conn, &mut buf).unwrap();
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

fn patterned(len: usize, mul: u32) -> Vec<u8> {
    (0..len as u32).map(|i| (i.wrapping_mul(mul) % 251) as u8).collect()
}

/// The tentpole satellite: a 1 MB bulk transfer completes
/// byte-identical with every 7th wire frame silently dropped, the
/// recovery visible in the retransmission counters, and every pooled
/// buffer back home afterwards.
#[test]
fn bulk_1mb_completes_under_drop_every_7() {
    let mut net = clocked_net(false, true, 5_000_000); // 5 ms steps.
    let (client, conn) = establish(&mut net, 9001);
    net.set_drop_every(7);
    let blob = patterned(1 << 20, 31);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got.len(), blob.len(), "every byte recovered");
    assert_eq!(got, blob, "stream byte-identical under 1/7 loss");
    assert!(net.faults_injected() > 50, "the wire really dropped");
    let TcpCounters {
        rto_fires: rto,
        retransmits: rtx,
        fast_retransmits: fast,
        ooo_queued: ooo,
        ..
    } = net.stack(0).tcp_counters(client);
    assert!(rtx > 0, "losses were repaired by retransmission");
    assert!(
        fast > 0 || rto > 0,
        "recovery engaged (fast={fast}, rto={rto})"
    );
    let TcpCounters { ooo_queued: srv_ooo, .. } = net.stack(1).tcp_counters(conn);
    assert!(
        srv_ooo > 0 || ooo > 0,
        "segments behind the holes were reassembled, not discarded"
    );
    net.set_drop_every(0);
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL), "client pool whole");
    assert_eq!(net.stack(1).pool_available(), Some(POOL), "server pool whole");
}

/// Loss bursts long enough to eat the dup-ACK signal force the RTO
/// path; the stream still arrives byte-identical.
#[test]
fn drop_bursts_force_rto_and_still_deliver_exactly() {
    // 50 ms steps: bursts can eat whole retransmit+ACK exchanges and
    // double the RTO toward its cap, so each round must buy enough
    // virtual time for deep backoffs to elapse within the round budget.
    let mut net = clocked_net(false, true, 50_000_000);
    let (client, conn) = establish(&mut net, 9002);
    net.set_drop_burst(40, 8); // 8 consecutive frames, every 40th.
    let blob = patterned(300_000, 17);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    if got != blob {
        let diff = got
            .iter()
            .zip(blob.iter())
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(blob.len()));
        panic!(
            "stream corrupted under burst loss: got {} bytes (want {}), first diff at {} (got {:?} want {:?})",
            got.len(),
            blob.len(),
            diff,
            &got[diff..(diff + 16).min(got.len())],
            &blob[diff..(diff + 16).min(blob.len())],
        );
    }
    assert!(net.faults_injected() > 20, "bursts really hit");
    let TcpCounters { retransmits: rtx, .. } = net.stack(0).tcp_counters(client);
    assert!(rtx > 0, "burst holes were retransmitted");
    net.set_drop_burst(0, 0);
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// A dropped FIN is retransmitted on RTO: the close completes without
/// any help from the application.
#[test]
fn dropped_fin_is_retransmitted_until_the_close_completes() {
    let mut net = clocked_net(false, true, 50_000_000); // 50 ms steps.
    let (client, conn) = establish(&mut net, 9003);
    // Eat everything while the FIN goes out…
    net.set_drop_every(1);
    net.stack(0).tcp_close(client).unwrap();
    net.step();
    assert!(!net.stack(1).tcp_peer_closed(conn), "the FIN was eaten");
    // …then heal the wire and let the retransmission timer work.
    net.set_drop_every(0);
    for _ in 0..40 {
        net.step();
        if net.stack(1).tcp_peer_closed(conn) {
            break;
        }
    }
    assert!(
        net.stack(1).tcp_peer_closed(conn),
        "the retransmitted FIN completed the close"
    );
    let TcpCounters { rto_fires: rto, retransmits: rtx, .. } = net.stack(0).tcp_counters(client);
    assert!(rto >= 1, "the RTO timer fired for the lost FIN");
    assert!(rtx >= 1, "the FIN was re-emitted");
}

/// RTO backoff doubles deterministically on a black-holed wire, and
/// the doubling is observable through the `netstack.tcp.rto_fires`
/// counter in the global stats registry.
#[test]
fn rto_backoff_doubling_is_observable_via_stats() {
    let mut net = clocked_net(false, true, 50_000_000); // 50 ms steps.
    let (client, _conn) = establish(&mut net, 9004);
    let base = ukstats::snapshot();
    // Black-hole the wire, then send one segment into the void: the
    // initial RTO is 1 s (no RTT sample yet), so fires land ~1 s, ~3 s
    // and ~7 s after the send — gaps of 2 s then 4 s.
    net.set_drop_every(1);
    net.stack(0).tcp_send(client, b"into the void").unwrap();
    let mut fire_steps = Vec::new();
    let mut seen = 0;
    for step in 0..160 {
        net.step();
        let TcpCounters { rto_fires: rto, .. } = net.stack(0).tcp_counters(client);
        if rto > seen {
            seen = rto;
            fire_steps.push(step as i64);
        }
        if fire_steps.len() == 3 {
            break;
        }
    }
    assert_eq!(fire_steps.len(), 3, "three RTO fires within 8 s: {fire_steps:?}");
    let gap1 = fire_steps[1] - fire_steps[0];
    let gap2 = fire_steps[2] - fire_steps[1];
    assert!(
        (gap2 - 2 * gap1).abs() <= 2,
        "backoff doubled: gaps {gap1} vs {gap2} steps"
    );
    if ukstats::COMPILED_IN {
        let before = base.counter("netstack.tcp.rto_fires").unwrap_or(0);
        let after = ukstats::snapshot().counter("netstack.tcp.rto_fires").unwrap();
        assert_eq!(after - before, seen, "fires visible in the registry");
    }
    net.set_drop_every(0);
}

/// A dropped SYN does not wedge the connect: the handshake completes
/// through SYN retransmission.
#[test]
fn dropped_syn_is_retransmitted() {
    let mut net = clocked_net(false, true, 50_000_000);
    // ARP first, so only the SYN is at risk.
    net.stack(0).ping(Ipv4Addr::new(10, 0, 0, 2), 1, 1).unwrap();
    net.run_until_quiet(16);
    let listener = net.stack(1).tcp_listen(9005).unwrap();
    net.set_drop_every(1);
    let client = net
        .stack(0)
        .tcp_connect(Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 9005))
        .unwrap();
    net.step();
    net.set_drop_every(0);
    // `run_until_quiet` would stop at the first idle step; the wire
    // stays idle until the 1 s initial RTO fires (20 × 50 ms steps).
    for _ in 0..40 {
        net.step();
        if net.stack(0).tcp_state(client) == Some(uknetstack::tcp::TcpState::Established) {
            break;
        }
    }
    assert_eq!(
        net.stack(0).tcp_state(client),
        Some(uknetstack::tcp::TcpState::Established),
        "handshake completed through SYN retransmission"
    );
    // The handshake-completing ACK needs one more wire hop before the
    // server moves the connection onto its accept backlog.
    net.run_until_quiet(8);
    let conn = net.stack(1).tcp_accept(listener).unwrap();
    net.stack(0).tcp_send(client, b"post-loss hello").unwrap();
    net.run_until_quiet(32);
    assert_eq!(net.stack(1).tcp_recv(conn, 1024).unwrap(), b"post-loss hello");
}

/// The GRO gap regression: with coalescing on and a lossy wire, a
/// staged run must flush at the sequence hole instead of merging
/// across it — the stream stays byte-identical and out-of-order
/// segments still reach the reassembly queue.
#[test]
fn gro_staging_flushes_on_sequence_gaps_under_loss() {
    let mut net = clocked_net(false, true, 5_000_000);
    assert!(net.stack(1).gro(), "receiver coalesces");
    let (client, conn) = establish(&mut net, 9006);
    net.set_drop_every(5);
    let blob = patterned(400_000, 13);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got.len(), blob.len(), "every byte recovered with GRO on");
    assert_eq!(got, blob, "no merge across a sequence hole");
    let TcpCounters { ooo_queued: ooo, .. } = net.stack(1).tcp_counters(conn);
    assert!(ooo > 0, "gapped segments were queued out of order");
    assert!(net.stack(1).stats().gro_runs > 0, "GRO still engaged");
    net.set_drop_every(0);
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// A bandwidth-delay pipe (latency + per-step link budget) with
/// NewReno on: the transfer completes, the congestion window grew
/// past its initial value, and the cwnd gauge is live.
#[test]
fn bandwidth_delay_pipe_completes_with_congestion_control() {
    let mut net = clocked_net(false, true, 2_000_000); // 2 ms steps.
    let (client, conn) = establish(&mut net, 9007);
    net.set_bandwidth_delay(4, 24); // 8 ms one-way, 24 frames/step.
    let blob = patterned(400_000, 7);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got, blob, "stream intact through the pipe");
    let cwnd = net.stack(0).tcp_cwnd(client);
    assert!(cwnd > 0, "cwnd gauge live");
    net.set_bandwidth_delay(0, 0);
    net.run_until_quiet(128);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// The ablation switch: the same lossy transfer completes with
/// congestion control off (pure window-limited recovery), so NewReno
/// is a measurable policy, not a correctness crutch.
#[test]
fn loss_recovery_works_with_congestion_control_off() {
    let mut net = clocked_net(false, false, 5_000_000);
    let (client, conn) = establish(&mut net, 9008);
    net.set_drop_every(9);
    let blob = patterned(300_000, 29);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got, blob, "byte-identical with the ablation off");
    let TcpCounters { retransmits: rtx, .. } = net.stack(0).tcp_counters(client);
    assert!(rtx > 0, "recovery still ran");
    net.set_drop_every(0);
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// TSO sender over a lossy wire: super-segments are host-cut into
/// plain frames (the receiver declines big receive), the fault
/// injector eats some, and the sender's chained extents still
/// retransmit correctly through the recycle-back queue.
#[test]
fn tso_super_segments_survive_loss_via_host_cut_retransmission() {
    let mut net = Network::new();
    net.attach(mk_stack(1, true, true));
    let tsc0 = Tsc::new(3_600_000_000);
    let mut dev = VirtioNet::new(VhostKind::VhostUser, &tsc0);
    dev.configure(NetDevConf::default()).unwrap();
    let mut cfg = StackConfig::node(2);
    cfg.rx_csum_offload = false; // Declines big receive: supers get cut.
    let _ = net.attach(NetStack::new(cfg, Box::new(dev)));
    let tsc = Tsc::new(1_000_000_000);
    net.set_clock(&tsc);
    net.set_step_ns(5_000_000);
    let (client, conn) = establish(&mut net, 9009);
    net.set_drop_every(11);
    let blob = patterned(500_000, 37);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got, blob, "stream byte-identical: chained rtx extents work");
    assert!(net.stack(0).stats().tso_super_frames > 0, "sender used TSO");
    let TcpCounters { retransmits: rtx, .. } = net.stack(0).tcp_counters(client);
    assert!(rtx > 0, "cut-frame losses were retransmitted");
    net.set_drop_every(0);
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// The SACK scoreboard: a multi-hole drop schedule where the sender
/// retransmits *only the holes* (the `sack_rtx` counter proves the
/// hole-walk ran past the first hole). Congestion control is off so
/// flights stay window-limited (~45 MSS): a 1-in-8 drop then leaves
/// several holes per window, which is the multi-hole episode the
/// scoreboard exists for.
#[test]
fn sack_scoreboard_retransmits_only_the_holes() {
    let mut net = clocked_net_cfg(5_000_000, |cfg| {
        cfg.congestion_control = false;
    });
    let (client, conn) = establish(&mut net, 9010);
    net.set_drop_every(8);
    let blob = patterned(300_000, 23);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got, blob, "byte-identical");
    let TcpCounters { sack_rtx, retransmits: rtx, .. } = net.stack(0).tcp_counters(client);
    assert!(rtx > 0, "losses were repaired");
    assert!(
        sack_rtx > 0,
        "the scoreboard drove hole retransmissions beyond the first hole"
    );
    net.set_drop_every(0);
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// RACK, part 1: a reorder-prone but lossless wire (duplicated ACKs
/// and adjacent data reorder) must trigger *zero* retransmissions of
/// any kind — the reordering window waits its `min_rtt / 4`, sees the
/// cumulative ACK advance, and never declares loss.
#[test]
fn rack_reordering_window_suppresses_false_fast_retransmits() {
    let mut net = clocked_net_cfg(5_000_000, |_| {});
    let (client, conn) = establish(&mut net, 9011);
    // Duplicated ACKs + adjacent data reorder: classic dup-ACK
    // noise with nothing actually lost.
    net.set_dup_every(2);
    net.set_reorder_every(3);
    let blob = patterned(300_000, 41);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got, blob, "byte-identical through reorder noise");
    assert!(net.faults_injected() > 0, "the wire really perturbed");
    let TcpCounters { retransmits: rtx, fast_retransmits: fast, .. } =
        net.stack(0).tcp_counters(client);
    assert_eq!(fast, 0, "no false fast retransmit on a lossless reordering wire");
    assert_eq!(rtx, 0, "no spurious data retransmission at all");
    net.set_dup_every(0);
    net.set_reorder_every(0);
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// RACK, part 2: on a wire that both drops and reorders, the
/// time-based reordering window recovers through timely fast
/// recoveries instead of stalling until the 200 ms RTO floor, and the
/// stream arrives byte-identical.
#[test]
fn rack_converts_rto_stalls_into_fast_recoveries_under_reorder() {
    let mut net = clocked_net_cfg(5_000_000, |cfg| {
        cfg.congestion_control = false; // Window-limited flights.
    });
    let (client, conn) = establish(&mut net, 9016);
    net.set_drop_every(8);
    net.set_reorder_every(3);
    let blob = patterned(300_000, 59);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got, blob, "byte-identical");
    net.set_drop_every(0);
    net.set_reorder_every(0);
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// The tail-loss probe: the last segment of a flight is dropped, so
/// no duplicate ACK can ever signal it. The PTO (2·SRTT ≪ the 200 ms
/// RTO floor) re-emits the tail and the stream completes without a
/// single RTO fire.
#[test]
fn tail_loss_probe_rescues_a_dropped_tail_without_rto() {
    let mut net = clocked_net_cfg(5_000_000, |_| {});
    let (client, conn) = establish(&mut net, 9012);
    // Warm up: a clean transfer seeds the RTT estimator.
    let warm = patterned(64_000, 19);
    let got = bulk_send(&mut net, client, conn, &warm, 2_000);
    assert_eq!(got, warm, "warmup clean");
    // Drop exactly the flight's tail: one small segment, eaten whole.
    net.set_drop_every(1);
    net.stack(0).tcp_send(client, b"the tail of the flight").unwrap();
    net.step();
    net.set_drop_every(0);
    let mut buf = [0u8; 64];
    let mut got = Vec::new();
    for _ in 0..30 {
        net.step();
        let n = net.stack(1).tcp_recv_into(conn, &mut buf).unwrap();
        got.extend_from_slice(&buf[..n]);
        if !got.is_empty() {
            break;
        }
    }
    assert_eq!(&got[..], b"the tail of the flight", "the tail arrived");
    let TcpCounters { rto_fires: rto, tlp_probes: tlp, .. } = net.stack(0).tcp_counters(client);
    assert_eq!(rto, 0, "rescued before the RTO (30 steps ≪ 200 ms floor × backoff)");
    assert!(tlp >= 1, "the probe fired");
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// Establishes a connection on a 5 ms-step clocked wire, seeds the
/// RTT estimator with a clean transfer and lets the wire go quiet —
/// the start of the single-flight RACK tests below.
fn warmed_up(port: u16) -> (Network, SocketHandle, SocketHandle) {
    let mut net = clocked_net_cfg(5_000_000, |_| {});
    let (client, conn) = establish(&mut net, port);
    let warm = patterned(64_000, 29);
    let got = bulk_send(&mut net, client, conn, &warm, 2_000);
    assert_eq!(got, warm, "warmup clean");
    net.run_until_quiet(64);
    (net, client, conn)
}

/// Queues `blob` and steps the wire once with `faults` applied to
/// exactly that step's frames — the whole flight, one frame per MSS.
fn send_flight(
    net: &mut Network,
    client: SocketHandle,
    blob: &[u8],
    faults: impl FnOnce(&mut Network),
) {
    let sent = net.stack(0).tcp_send_queued(client, blob).unwrap();
    assert_eq!(sent, blob.len(), "the flight fits the send buffer");
    net.stack(0).flush_output().unwrap();
    faults(net);
    net.step();
    net.set_drop_every(0);
    net.set_reorder_every(0);
}

/// Steps the wire (at most `steps` times) until `want` bytes are
/// readable in order at the server, calling `each` after every step.
fn drain_until(
    net: &mut Network,
    conn: SocketHandle,
    want: usize,
    steps: usize,
    mut each: impl FnMut(&mut Network),
) -> Vec<u8> {
    let mut got = Vec::with_capacity(want);
    let mut buf = vec![0u8; 64 * 1024];
    for _ in 0..steps {
        loop {
            let n = net.stack(1).tcp_recv_into(conn, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        if got.len() >= want {
            break;
        }
        net.step();
        each(net);
    }
    got
}

/// RACK across a partial cumulative ACK: one flight whose 2nd and 3rd
/// segments swap and whose 6th is dropped. The receiver's single ACK
/// for the sweep both advances the cumulative point past the swapped
/// pair and SACKs everything after the hole, so the hole's reordering
/// window must survive the cumulative progress: it expires one
/// `min_rtt / 4` later and fast-retransmits the hole, well before the
/// 2·SRTT tail-loss probe would re-send a tail that was never lost.
#[test]
fn sacked_hole_surviving_a_partial_ack_is_fast_retransmitted() {
    let (mut net, client, conn) = warmed_up(9017);
    let c0 = net.stack(0).tcp_counters(client);
    let blob = patterned(10 * 1460, 31);
    send_flight(&mut net, client, &blob, |net| {
        net.set_reorder_every(3);
        net.set_drop_every(6);
    });
    let got = drain_until(&mut net, conn, blob.len(), 100, |_| {});
    assert_eq!(got, blob, "byte-identical");
    let d = net.stack(0).tcp_counters(client).since(&c0);
    assert_eq!(d.fast_retransmits, 1, "the reordering window declared the loss");
    assert_eq!(d.retransmits, 1, "only the hole was re-sent");
    assert_eq!(d.tlp_probes, 0, "no probe of a tail that arrived");
    assert_eq!(d.spurious_rtx, 0);
    assert_eq!(d.rto_fires, 0);
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// The hole walk's timer: a flight loses its 6th segment, the RACK
/// window fast-retransmits it, and the retransmission is dropped too.
/// No ACK can arrive to re-run the walk (the receiver got nothing
/// new), so the recovery timer — armed at the hole's last
/// transmission plus `srtt + reo_wnd` — re-sends it, instead of the
/// 200 ms RTO.
#[test]
fn dropped_retransmission_of_a_hole_is_resent_by_the_rack_timer() {
    let (mut net, client, conn) = warmed_up(9018);
    let c0 = net.stack(0).tcp_counters(client);
    let blob = patterned(10 * 1460, 37);
    send_flight(&mut net, client, &blob, |net| net.set_drop_every(6));
    let mut dropped_rtx = false;
    let got = drain_until(&mut net, conn, blob.len(), 100, |net| {
        let rtx = net.stack(0).tcp_counters(client).since(&c0).retransmits;
        if rtx == 1 && !dropped_rtx {
            // The first retransmission sits in the client's TX ring:
            // eat it on the wire.
            dropped_rtx = true;
            net.set_drop_every(1);
            net.step();
            net.set_drop_every(0);
        }
    });
    assert!(dropped_rtx, "the first retransmission was dropped");
    assert_eq!(got, blob, "byte-identical");
    let d = net.stack(0).tcp_counters(client).since(&c0);
    assert_eq!(d.fast_retransmits, 1, "one loss episode");
    assert_eq!(d.retransmits, 2, "the hole, then its lost retransmission");
    assert_eq!(d.rto_fires, 0, "the recovery timer beat the RTO");
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}

/// The pool-pressure guard: a receiver with a deliberately small
/// buffer pool rides out sustained loss (out-of-order extents pin
/// pool buffers) by shedding its newest reassembly extents instead of
/// exhausting the pool. The sender's RTO distrusts the scoreboard
/// (RFC 6675 §5.1 reneging), so shed data is retransmitted and the
/// stream still completes.
#[test]
fn sustained_loss_cannot_exhaust_a_small_receiver_pool() {
    const SMALL: usize = 48;
    let mut net = Network::new();
    // Window-limited flights (~45 MSS) so a drop burst early in a
    // flight strands most of a window out of order at the receiver —
    // enough pinned extents to push a 48-buffer pool under the
    // low-water mark.
    net.attach(mk_stack_cfg(1, |cfg| cfg.congestion_control = false));
    net.attach(mk_stack_cfg(2, |cfg| {
        cfg.pool_size = SMALL;
        cfg.congestion_control = false;
    }));
    let tsc = Tsc::new(1_000_000_000);
    net.set_clock(&tsc);
    net.set_step_ns(50_000_000); // Deep backoffs must elapse in-budget.
    let (client, conn) = establish(&mut net, 9014);
    net.set_drop_burst(30, 6); // Recurring multi-hole episodes.
    let blob = patterned(300_000, 47);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got, blob, "stream complete despite shedding");
    let TcpCounters { ooo_shed: shed, .. } = net.stack(1).tcp_counters(conn);
    assert!(shed > 0, "pool pressure shed out-of-order extents");
    net.set_drop_burst(0, 0);
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL), "client pool whole");
    assert_eq!(net.stack(1).pool_available(), Some(SMALL), "small pool whole");
}

/// The corruption satellite: bit-flipped frames are never delivered
/// with the trusted-checksum mark (including duplicates of a
/// corrupted frame — the dup fault must inherit, not restore, the
/// mark), so the checksum drop path turns corruption into plain loss
/// and recovery delivers the stream byte-identical.
#[test]
fn corrupted_frames_are_dropped_by_checksum_and_recovered() {
    let mut net = clocked_net_cfg(5_000_000, |_| {});
    let (client, conn) = establish(&mut net, 9015);
    net.set_corrupt_every(9);
    net.set_dup_every(6); // Collides with corruption every 18 ticks.
    let blob = patterned(300_000, 53);
    let got = bulk_send(&mut net, client, conn, &blob, 20_000);
    assert_eq!(got, blob, "corruption never reaches the stream");
    assert!(net.faults_injected() > 50, "the wire really corrupted");
    let TcpCounters { retransmits: rtx, .. } = net.stack(0).tcp_counters(client);
    assert!(rtx > 0, "checksum drops were recovered as losses");
    net.set_corrupt_every(0);
    net.set_dup_every(0);
    net.run_until_quiet(64);
    assert_eq!(net.stack(0).pool_available(), Some(POOL));
    assert_eq!(net.stack(1).pool_available(), Some(POOL));
}
