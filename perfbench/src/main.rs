//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload from a seed, checks every output it can, prints a
//! context-stamped report and, as the last line of standard output, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, measured untraced;
//! with `--trace 1` they are the per-layer set from a separate traced
//! run. `--manifest` prints the `BENCHMARK.json` this binary satisfies.
//! See `perfbench/README.md` for why each workload exists.

mod alloc;
mod campaign;
mod fullspace;
mod report;
mod simserve;
mod tcp;
mod trace;

use report::{json_str, Outcome, END_TO_END};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// A workload: name, why it exists, generator threads, whether
/// `BENCHMARK.json` bounds it, entry points.
pub struct Workload {
    name: &'static str,
    why: &'static str,
    threads: usize,
    bounded: bool,
    run: fn(&Args) -> Outcome,
    traced: fn(&Args) -> Outcome,
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "simserve_partition",
        why: "in-sim oracle at 1 thread with mid-campaign partitions: wheel timers, link \
              traverse, engine dispatch, proto and oracle LPM, no sockets",
        threads: 1,
        bounded: true,
        run: simserve::run,
        traced: simserve::traced,
    },
    Workload {
        name: "serve_tcp_mixed",
        why: "REPORT+QUERY pairs over 2 loopback TCP connections to a 1-shard codel-quantile \
              server, closed loop and an open-loop rate ladder: reactor, syscalls, policy writes",
        threads: 2,
        // Run by hand only: its end-to-end spread on the reference VM
        // exceeded every bound the harness allows (see README.md).
        bounded: false,
        run: tcp::run,
        traced: tcp::traced,
    },
    Workload {
        name: "fullspace_dense",
        why: "procedural zmap sweep of densely routed space at 2 threads with host eviction \
              and a link degrade: space, profile cache, host table, World::probe",
        threads: 2,
        bounded: true,
        run: fullspace::run,
        traced: fullspace::traced,
    },
    Workload {
        name: "campaign_snapshot",
        why: "survey and zmap scans over eager worlds, then pipeline, merge, snapshot build \
              and BWTS round trip: the paper's data path at 2 threads",
        threads: 2,
        bounded: true,
        run: campaign::run,
        traced: campaign::traced,
    },
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement length, seconds.
    pub seconds: f64,
    /// Traced run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--manifest" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    }))
}

/// Where the numbers were measured.
fn context(w: &Workload, args: &Args) -> String {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name").map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = read("/proc/sys/kernel/osrelease").trim().to_string();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"rev\": {}, \"available_parallelism\": {parallelism}, \"cpu\": {}, \"kernel\": {}, \
         \"workload\": {}, \"threads\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        json_str(&source_rev()),
        json_str(&cpu),
        json_str(&kernel),
        json_str(w.name),
        w.threads,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

/// The revision under test: the git commit when run from a clone,
/// otherwise a hash of the program's sources (`crates/`, `src/`), so a
/// report names exactly the code it measured either way.
fn source_rev() -> String {
    if let Ok(head) = std::fs::read_to_string(".git/HEAD") {
        let head = head.trim();
        if let Some(r) = head.strip_prefix("ref: ") {
            if let Ok(id) = std::fs::read_to_string(format!(".git/{r}")) {
                return id.trim().to_string();
            }
        }
        return head.to_string();
    }
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    walk(std::path::Path::new("src"), &mut files);
    files.sort();
    let mut h = report::FNV0;
    for f in &files {
        h = report::fnv(h, f.to_string_lossy().as_bytes());
        h = report::fnv(h, &std::fs::read(f).unwrap_or_default());
    }
    format!("tree-fnv1a:{h:016x} ({} files)", files.len())
}

fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perfbench\"],\n  \"run_seconds\": 10,\n  \"workloads\": [\n");
    let bounded: Vec<&Workload> = WORKLOADS.iter().filter(|w| w.bounded).collect();
    let n = bounded.len();
    for (i, w) in bounded.iter().enumerate() {
        let comma = if i + 1 < n { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{comma}\n",
            json_str(w.name),
            json_str(w.why)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = report::per_layer_all();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better)
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{}", manifest());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("perfbench: unknown workload {:?} (one of {})", args.workload, names.join(", "));
        return ExitCode::from(2);
    };
    println!("context: {}", context(w, &args));
    let mut out = if args.trace { (w.traced)(&args) } else { (w.run)(&args) };
    if !args.trace {
        out.metric("peak_rss_mb", report::peak_rss_mb());
    }

    for (k, v) in &out.notes {
        println!("note: {k}: {v}");
    }
    for (name, ok, detail) in &out.checks {
        println!("check: {} {name}: {detail}", if *ok { "PASS" } else { "FAIL" });
    }
    let defs: Vec<(&str, &str)> = if args.trace {
        report::per_layer_all().iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut metrics = Vec::new();
    for (name, unit) in defs {
        let value = out.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("metric: {name} = {value} {unit}");
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    let correct = out.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: {}: a correctness check failed", w.name);
        ExitCode::FAILURE
    }
}
