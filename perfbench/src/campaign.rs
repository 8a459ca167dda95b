//! `campaign_snapshot`: the paper's data path end to end, over eager
//! (`Space::Routed`) scenario worlds at two threads.
//!
//! Set-up builds the two vantage scenarios and one eager world per task.
//! The timed part runs the survey at vantages `w` and `c` (each followed
//! by `run_pipeline_with`) and a few zmap scans on `run_tasks`, then
//! `merge_samples`, `build_snapshot`, and a BWTS `write_snapshot` /
//! `read_snapshot` round trip that must reproduce the snapshot exactly.
//! The honest unit is the pipeline record: a survey record the probers
//! produced and the pipeline consumed.

use crate::report::{fnv, repeat, Outcome, Repetition, FNV0};
use crate::{alloc, trace, Args};
use beware_bench::ctx::survey_block_sample;
use beware_core::pipeline::{merge_samples, run_pipeline_with, PipelineCfg};
use beware_dataset::snapshot::{read_snapshot, snapshot_checksum, write_snapshot};
use beware_dataset::ScanMeta;
use beware_netsim::scenario::{vantage, Scenario, ScenarioCfg};
use beware_netsim::{run_tasks, World};
use beware_probe::prelude::*;
use beware_runtime::rng::derive_seed;
use beware_serve::{build_snapshot, SnapshotCfg};
use std::time::Instant;

const BLOCKS: u32 = 384;
const SURVEY_BLOCKS: u32 = 48;
/// Few rounds keep a repetition's working set near 35 MB: at 40 rounds
/// (about 50 MB) the run-to-run spread on a VM sharing its last-level
/// cache was three times wider.
const ROUNDS: u32 = 16;
const SCANS: u64 = 2;
const SCAN_SECS: f64 = 600.0;
const THREADS: usize = 2;

enum Job {
    Survey(char, World),
    Scan(u64, World),
}

/// Per-task outcome, in task order.
struct TaskOut {
    survey: bool,
    records: u64,
    kept: u64,
    probes: u64,
    /// Survey probes matched to a reply (0 for scans).
    matched: u64,
    samples: Option<std::collections::BTreeMap<u32, beware_core::LatencySamples>>,
    busy_s: f64,
    table: trace::Table,
    allocs: u64,
}

/// One repetition's result.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    fan_out_s: f64,
    records: u64,
    digest: u64,
    round_trip_ok: bool,
    tasks: Vec<TaskOut>,
    table: trace::Table,
    allocs: u64,
    snapshot_bytes: u64,
}

fn scenario(seed: u64, v: char) -> Scenario {
    Scenario::new(ScenarioCfg {
        year: 2015,
        seed,
        total_blocks: BLOCKS,
        vantage: vantage(v).expect("known vantage"),
    })
}

fn rep(seed: u64, timed: bool) -> Rep {
    // Set-up: scenarios and one eager world per task.
    let t0 = Instant::now();
    if timed {
        trace::enable();
    }
    let sc_w = scenario(seed, 'w');
    let sc_c = scenario(seed, 'c');
    let survey_blocks = survey_block_sample(&sc_w, SURVEY_BLOCKS);
    let scan_blocks: Vec<u32> = sc_w.plan.blocks().map(|(b, _)| b).collect();
    let build = |sc: &Scenario| trace::span("netsim.scenario.build_world", || sc.build_world());
    let mut jobs = vec![Job::Survey('w', build(&sc_w)), Job::Survey('c', build(&sc_c))];
    jobs.extend((0..SCANS).map(|slot| Job::Scan(slot, build(&sc_w))));
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let a0 = alloc::thread_allocs();
    let mut tasks = run_tasks(THREADS, jobs, |_, job| {
        let busy = Instant::now();
        if timed {
            trace::enable();
        }
        let a0 = alloc::thread_allocs();
        let mut reg = Registry::disabled();
        let mut out = match job {
            Job::Survey(v, mut world) => {
                let cfg = SurveyCfg {
                    blocks: survey_blocks.clone(),
                    rounds: ROUNDS,
                    seed: derive_seed(seed, u64::from(v as u32)),
                    ..SurveyCfg::default()
                };
                let ((records, stats), _) = trace::span("probe.survey.run", || {
                    cfg.build(Vec::new()).run_with(&mut world, &mut reg)
                });
                let pipe = trace::span("core.pipeline.run", || {
                    run_pipeline_with(&records, &PipelineCfg::paper(), &mut reg)
                });
                let kept: usize = pipe.samples.values().map(|s| s.len()).sum();
                TaskOut {
                    survey: true,
                    records: records.len() as u64,
                    kept: kept as u64,
                    probes: stats.probes(),
                    matched: stats.matched,
                    samples: Some(pipe.samples),
                    busy_s: 0.0,
                    table: trace::Table::new(),
                    allocs: 0,
                }
            }
            Job::Scan(slot, mut world) => {
                let cfg = ZmapCfg {
                    blocks: scan_blocks.clone(),
                    duration_secs: SCAN_SECS,
                    cooldown_secs: 240.0,
                    seed: derive_seed(seed, 0x2a00 + slot),
                    ..ZmapCfg::default()
                };
                let meta = ScanMeta {
                    label: format!("scan {slot}"),
                    day: "Fri".into(),
                    begin: "00:00".into(),
                };
                let (scan, summary) = trace::span("probe.zmap.run", || {
                    cfg.build(meta).run_with(&mut world, &mut reg)
                });
                TaskOut {
                    survey: false,
                    records: scan.records.len() as u64,
                    kept: 0,
                    probes: summary.packets_sent,
                    matched: 0,
                    samples: None,
                    busy_s: 0.0,
                    table: trace::Table::new(),
                    allocs: 0,
                }
            }
        };
        out.allocs = alloc::thread_allocs() - a0;
        if timed {
            out.table = trace::take();
        }
        out.busy_s = busy.elapsed().as_secs_f64();
        out
    });
    let fan_out_s = t1.elapsed().as_secs_f64();
    if timed {
        trace::enable();
    }
    let parts = vec![
        tasks[0].samples.take().expect("w survey samples"),
        tasks[1].samples.take().expect("c survey samples"),
    ];
    let merged = trace::span("core.merge_samples", || merge_samples(parts));
    let snap = trace::span("serve.builder.build_snapshot", || {
        build_snapshot(&merged, &SnapshotCfg::default()).expect("campaign snapshot builds")
    });
    let mut bytes = Vec::new();
    trace::span("dataset.snapshot.encode", || write_snapshot(&mut bytes, &snap))
        .expect("in-memory write");
    let back = trace::span("dataset.snapshot.decode", || read_snapshot(&mut &bytes[..]))
        .expect("snapshot decodes");
    let wall_s = t1.elapsed().as_secs_f64();
    let allocs = alloc::thread_allocs() - a0;
    let table = if timed { trace::take() } else { trace::Table::new() };

    let round_trip_ok = back == snap && snapshot_checksum(&back) == snapshot_checksum(&snap);
    let mut digest = fnv(FNV0, &bytes);
    for t in &tasks {
        digest = fnv(digest, &t.records.to_le_bytes());
        digest = fnv(digest, &t.kept.to_le_bytes());
    }
    Rep {
        setup_s,
        wall_s,
        fan_out_s,
        records: tasks[0].records + tasks[1].records,
        digest,
        round_trip_ok,
        tasks,
        table,
        allocs,
        snapshot_bytes: bytes.len() as u64,
    }
}

/// Round trips exact and digests equal across `reps`: one check each.
fn check_reps(out: &mut Outcome, reps: &[&Rep]) {
    let exact = reps.iter().filter(|r| r.round_trip_ok).count();
    out.check(
        "snapshot_round_trip",
        exact == reps.len(),
        format!("{exact} of {} repetitions: read_snapshot(write_snapshot(s)) == s", reps.len()),
    );
    let same = reps.iter().filter(|r| r.digest == reps[0].digest).count();
    out.check(
        "summary_stable",
        same == reps.len(),
        format!("{same} of {} repetitions match digest {:016x}", reps.len(), reps[0].digest),
    );
}

/// End-to-end: fresh campaigns back to back for the measuring window.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    out.note(
        "config",
        "384 /24s, survey 48 blocks x 16 rounds at w and c, 2 zmap scans of 600 s, 2 threads",
    );
    let (mut reps, mut exact) = (0, 0);
    repeat(&mut out, args.seconds, |out| {
        let r = rep(args.seed, false);
        reps += 1;
        exact += usize::from(r.round_trip_ok);
        out.attempted += r.records;
        Repetition { setup_s: r.setup_s, wall_s: r.wall_s, ops: r.records, digest: r.digest }
    });
    out.check(
        "snapshot_round_trip",
        exact == reps,
        format!("{exact} of {reps} repetitions: read_snapshot(write_snapshot(s)) == s"),
    );
    out
}

/// Traced: an untraced repetition, a traced one, another untraced one.
pub fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let plain = rep(args.seed, false);
    alloc::set_counting(true);
    let timed = rep(args.seed, true);
    alloc::set_counting(false);
    let after = rep(args.seed, false);
    check_reps(&mut out, &[&plain, &timed, &after]);
    out.attempted = timed.records;

    let mut table = timed.table.clone();
    let mut allocs = timed.allocs;
    for t in &timed.tasks {
        trace::merge(&mut table, &t.table);
        allocs += t.allocs;
    }
    out.overhead((plain.wall_s + after.wall_s) / 2.0, timed.wall_s);
    // The timed part runs two workers, then merges on one thread: the
    // time to account for is threads x wall.
    out.note("sum_check_denominator", "threads x traced wall (set-up excluded)");
    let mut timed_only = table.clone();
    timed_only.remove("netsim.scenario.build_world");
    out.spans(&timed_only, timed.wall_s * THREADS as f64);
    out.note(
        "span netsim.scenario.build_world",
        format!("{:?} (set-up, outside the sum check)", table.get("netsim.scenario.build_world")),
    );
    if let Some(s) = table.get("netsim.scenario.build_world") {
        out.metric("netsim.scenario.build_world.allocs_per_call", s.allocs_per_call());
    }

    let ns = |name: &str| table.get(name).map_or(0.0, |s| s.total_ns as f64);
    let (mut survey, mut zmap) = ((0u64, 0u64, 0u64), (0u64, 0u64));
    for t in &timed.tasks {
        if t.survey {
            survey.0 += t.records;
            survey.1 += t.probes;
            survey.2 += t.matched;
        } else {
            zmap.0 += t.records;
            zmap.1 += t.probes;
        }
    }
    let kept: u64 = timed.tasks.iter().map(|t| t.kept).sum();
    let busy: f64 = timed.tasks.iter().map(|t| t.busy_s).sum();
    out.metric(
        "netsim.scenario.build_world_ns",
        ns("netsim.scenario.build_world") / (2 + SCANS) as f64,
    );
    out.metric("probe.survey.ns_per_record", ns("probe.survey.run") / survey.0 as f64);
    out.metric("probe.survey.match_ratio", survey.2 as f64 / survey.1 as f64);
    out.metric("probe.zmap.ns_per_record", ns("probe.zmap.run") / zmap.0 as f64);
    out.metric("probe.zmap.response_ratio", zmap.0 as f64 / zmap.1 as f64);
    out.metric("core.pipeline.ns_per_record", ns("core.pipeline.run") / survey.0 as f64);
    out.metric("core.pipeline.kept_ratio", kept as f64 / survey.0 as f64);
    out.metric("core.merge_samples_ns", ns("core.merge_samples"));
    out.metric("serve.builder.build_snapshot_ns", ns("serve.builder.build_snapshot"));
    out.metric("dataset.snapshot.encode_ns", ns("dataset.snapshot.encode"));
    out.metric("dataset.snapshot.decode_ns", ns("dataset.snapshot.decode"));
    out.metric("dataset.snapshot.bytes", timed.snapshot_bytes as f64);
    out.metric("netsim.exec.idle_frac", 1.0 - busy / (THREADS as f64 * timed.fan_out_s));
    out.metric("alloc.per_record", allocs as f64 / timed.records as f64);
    out
}
