//! Integration: the paper's specialization claims hold end to end.

use unikraft_rs::apps::udpkv::{UdpKvMode, UdpKvServer, BATCH};
use unikraft_rs::apps::webcache::{CacheBackend, WebCache};
use unikraft_rs::build::config::BuildConfig;
use unikraft_rs::build::image::{link_image, LinkPass};
use unikraft_rs::build::registry::LibRegistry;
use unikraft_rs::plat::cost;
use unikraft_rs::plat::time::{Stopwatch, Tsc};

/// Figure 22's claim: the SHFS open path beats the vfscore path, which
/// beats the Linux VM.
#[test]
fn shfs_beats_vfs_beats_linux() {
    let files: Vec<(String, Vec<u8>)> = (0..64)
        .map(|i| (format!("f{i}.html"), vec![0u8; 612]))
        .collect();
    let refs: Vec<(&str, &[u8])> = files.iter().map(|(n, d)| (n.as_str(), d.as_slice())).collect();
    let run = |backend: CacheBackend| -> u64 {
        let tsc = Tsc::new(cost::CPU_FREQ_HZ);
        let mut cache = WebCache::new(backend, &refs, &tsc).unwrap();
        // Warm up (dentry cache etc.), then measure.
        for i in 0..64 {
            let _ = cache.open_request(&format!("f{i}.html"));
        }
        let sw = Stopwatch::start(&tsc);
        for round in 0..20 {
            for i in 0..64 {
                let _ = round;
                cache.open_request(&format!("f{i}.html")).unwrap();
            }
        }
        sw.elapsed_ns() / (20 * 64)
    };
    // Take the best of three to de-noise CI machines.
    let best = |b: CacheBackend| (0..3).map(|_| run(b)).min().unwrap();
    let shfs = best(CacheBackend::Shfs);
    let vfs = best(CacheBackend::Vfs);
    let linux = best(CacheBackend::LinuxVm);
    assert!(shfs < vfs, "shfs {shfs} ns !< vfs {vfs} ns");
    assert!(vfs < linux, "vfs {vfs} ns !< linux {linux} ns");
    assert!(
        vfs as f64 / shfs as f64 >= 1.5,
        "specialization should be a clear multiple: {shfs} vs {vfs}"
    );
}

/// Table 4's claim: raw uknetdev matches DPDK and crushes the socket
/// paths, batching beats single-syscall mode.
///
/// Rates are taken on the cost-model clock (`Stopwatch::virtual_ns`):
/// the per-mode I/O charges are the claim, and the real-time share of
/// `elapsed_ns` (identical hash-table work in every mode, plus
/// scheduling noise) would only blur it. On the virtual clock every
/// run of a mode yields the same rate, so one run per mode suffices.
#[test]
fn udp_kv_mode_ordering() {
    let requests: Vec<Vec<u8>> = (0..BATCH)
        .map(|i| format!("G k{i}").into_bytes())
        .collect();
    let refs: Vec<&[u8]> = requests.iter().map(|r| r.as_slice()).collect();
    let rate = |mode: UdpKvMode| -> f64 {
        let tsc = Tsc::new(cost::CPU_FREQ_HZ);
        let mut server = UdpKvServer::new(mode, &tsc);
        for i in 0..BATCH {
            server.handle(format!("S k{i} v").as_bytes());
        }
        let sw = Stopwatch::start(&tsc);
        for _ in 0..200 {
            std::hint::black_box(server.serve_batch(&refs));
        }
        (200 * BATCH) as f64 * 1e9 / sw.virtual_ns() as f64
    };
    let uknetdev = rate(UdpKvMode::UnikraftUknetdev);
    let dpdk = rate(UdpKvMode::UnikraftDpdk);
    let lwip = rate(UdpKvMode::UnikraftLwip);
    let guest_single = rate(UdpKvMode::LinuxGuestSingle);
    let guest_batch = rate(UdpKvMode::LinuxGuestBatch);
    let bare_single = rate(UdpKvMode::LinuxSingle);
    let bare_batch = rate(UdpKvMode::LinuxBatch);

    assert!(
        uknetdev > 2.0 * guest_single,
        "specialization >> sockets ({uknetdev:.0} vs {guest_single:.0})"
    );
    assert!(
        (uknetdev / dpdk - 1.0).abs() < 0.5,
        "uknetdev ~ DPDK ({uknetdev:.0} vs {dpdk:.0}; identical I/O costs)"
    );
    assert!(guest_batch > guest_single, "batching wins in the guest");
    assert!(bare_batch > bare_single, "batching wins bare metal");
    assert!(lwip < guest_single, "paper: lwip slowest socket path");
}

/// §6.4's image claim: the specialized appliance is smaller than the
/// socket-path build.
#[test]
fn specialized_build_is_smaller() {
    let reg = LibRegistry::standard();
    let full = link_image(&reg, &BuildConfig::new("app-nginx"), LinkPass::DceLto).unwrap();
    let slim = link_image(
        &reg,
        &BuildConfig::new("app-nginx")
            .without_lib("lwip")
            .without_lib("ukschedcoop")
            .with_lib("uknetdev"),
        LinkPass::DceLto,
    )
    .unwrap();
    assert!(slim.size_bytes < full.size_bytes);
    assert!(!slim.libs.contains(&"lwip"));
    assert!(!slim.libs.contains(&"uksched"));
}

/// Fig 8's claim: every default image stays under 2 MB and DCE+LTO is
/// the smallest configuration.
#[test]
fn images_stay_small() {
    let reg = LibRegistry::standard();
    for app in ["app-helloworld", "app-nginx", "app-redis", "app-sqlite"] {
        let default = link_image(&reg, &BuildConfig::new(app), LinkPass::Default).unwrap();
        let best = link_image(&reg, &BuildConfig::new(app), LinkPass::DceLto).unwrap();
        assert!(default.size_bytes < 2_000_000, "{app}");
        assert!(best.size_bytes < default.size_bytes, "{app}");
    }
}
