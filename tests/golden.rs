//! Byte-identity against committed golden files.
//!
//! The files under `tests/golden/` were written by the program before the
//! scheduler and telemetry hot paths were flattened. Those paths must stay
//! invisible in every deterministic artifact: the in-sim serving summary
//! (16384 clients in 2^12-client cells, with and without mid-campaign
//! partitions, at 1 and 2 threads), the partitioned run's `--metrics`
//! export (the engine's per-request counters: requests, queries, exact
//! and fallback hits, bytes in and out) and the campaign's `--metrics`
//! export.
//! `fullspace_20b_events.json` was written before the probe path was
//! flattened: a 2^20-address sweep whose access links are degraded and
//! partitioned mid-sweep, so the link layer, the block cache and host
//! eviction all run.
//! To regenerate after an intended behaviour change:
//!
//! ```text
//! beware simserve --clients 16384 --cell-bits 12 [--partition] --out <file>
//! beware simserve --clients 16384 --cell-bits 12 --partition \
//!     --metrics tests/golden/simserve_16k_cb12_partition_metrics.json
//! beware campaign --blocks 48 --survey-blocks 12 --rounds 12 --scans 4 \
//!     --out <dir> --metrics tests/golden/campaign_metrics.json
//! ```
//!
//! The fullspace file is `fullspace_summary(1)` below written out (the
//! CLI takes only one `--event`).

use beware::bench::{fullspace, simserve, FullSpaceCfg, SimServeCfg};
use beware::netsim::{LinkEvent, LinkEventKind, LinkId};

fn simserve_report(partition: bool, threads: usize) -> simserve::SimServeReport {
    let cfg =
        SimServeCfg { clients: 16_384, cell_bits: 12, partition, threads, ..Default::default() };
    simserve::run(&cfg).expect("valid simserve configuration")
}

fn simserve_summary(partition: bool, threads: usize) -> String {
    simserve_report(partition, threads).summary_json()
}

#[test]
fn simserve_summary_matches_golden_at_every_thread_count() {
    let golden = include_str!("golden/simserve_16k_cb12.json");
    for threads in [1, 2] {
        assert_eq!(simserve_summary(false, threads), golden, "threads {threads}");
    }
}

#[test]
fn partitioned_simserve_summary_matches_golden_at_every_thread_count() {
    let golden = include_str!("golden/simserve_16k_cb12_partition.json");
    for threads in [1, 2] {
        assert_eq!(simserve_summary(true, threads), golden, "threads {threads}");
    }
}

#[test]
fn partitioned_simserve_metrics_export_matches_golden_at_every_thread_count() {
    let golden = include_str!("golden/simserve_16k_cb12_partition_metrics.json");
    for threads in [1, 2] {
        assert_eq!(simserve_report(true, threads).registry.to_json(), golden, "threads {threads}");
    }
}

#[test]
fn campaign_metrics_export_matches_golden() {
    let dir = std::env::temp_dir().join(format!("beware-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join("metrics.json");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_beware"))
        .args(["campaign", "--blocks", "48", "--survey-blocks", "12", "--rounds", "12"])
        .args(["--scans", "4", "--metrics"])
        .arg(&metrics)
        .arg("--out")
        .arg(dir.join("out"))
        .stdout(std::process::Stdio::null())
        .status()
        .expect("campaign runs");
    assert!(status.success(), "campaign failed");
    let json = std::fs::read_to_string(&metrics).expect("metrics file written");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(json, include_str!("golden/campaign_metrics.json"));
}

fn fullspace_summary(threads: usize) -> String {
    let cfg = FullSpaceCfg {
        space_bits: 20,
        base_addr: 0x0100_0000,
        total_blocks: 4096,
        seed: 7,
        threads,
        host_cap: 256,
        chunk_bits: 16,
        link_events: vec![
            LinkEvent {
                link: LinkId::Access(0x0100),
                at_secs: 0.0,
                until_secs: f64::INFINITY,
                kind: LinkEventKind::Degrade { capacity_scale: 0.5 },
            },
            LinkEvent {
                link: LinkId::Access(0x0108),
                at_secs: 5.0,
                until_secs: 6.0,
                kind: LinkEventKind::Partition,
            },
        ],
        ..FullSpaceCfg::default()
    };
    fullspace::run(&cfg).expect("valid fullspace configuration").summary_json()
}

#[test]
fn fullspace_summary_with_link_events_matches_golden_at_every_thread_count() {
    let golden = include_str!("golden/fullspace_20b_events.json");
    for threads in [1, 2] {
        assert_eq!(fullspace_summary(threads), golden, "threads {threads}");
    }
}
