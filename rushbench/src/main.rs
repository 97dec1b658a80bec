//! Rush-hour benchmark for PTRider.
//!
//! Replays the morning peak of the scaled Shanghai city (see `rush.rs`) from
//! 07:30 through the program's public API as a closed loop with one dispatcher,
//! checks every output apart from the program, and prints every metric by
//! name with its unit. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path rushbench/Cargo.toml -- \
//!     --workload rush_alt --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of untraced rounds run for at
//! least `--seconds` of timed wall time.
//! `--trace 1` runs one untraced and one traced round and reports the
//! per-layer metrics; it writes the benchmark's spans and a per-layer table
//! under `.rushbench/`.

mod checks;
mod rush;
mod stats;
mod wire;

#[global_allocator]
static ALLOC: stats::CountingAlloc = stats::CountingAlloc;

use checks::Checker;
use ptrider_core::{HistogramSnapshot, Stage, TelemetryConfig};
use rush::{Pass, Spec, OPS, WORKLOADS};
use stats::{median, quantile, ratio};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(e.to_string()))?),
            "--seconds" => {
                seconds =
                    Some(value.parse::<f64>().map_err(|e| bad(e.to_string()))?).filter(|s| *s > 0.0)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    // `PTRIDER_*` variables move defaults process-wide (pool size, backend,
    // offer TTL, telemetry, chaos faults, traffic epochs); a run under any
    // of them would not measure the configuration it reports.
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("PTRIDER_"))
        .collect();
    if !set.is_empty() {
        eprintln!("refusing to run with {} set", set.join(", "));
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: rushbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let spec = args.workload;
    let out = PathBuf::from(".rushbench").join(format!("{}-seed{}", spec.name, args.seed));
    let journal = out.join(format!("journal-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("cannot create {}: {e}", out.display());
        return ExitCode::from(1);
    }
    let mut checker = Checker::default();
    println!(
        "workload {} seed {} seconds {} trace {}",
        spec.name, args.seed, args.seconds, args.trace as u8
    );
    let (passes, metrics) = if args.trace {
        traced(spec, &args, &journal, &out, &mut checker)
    } else {
        untraced(spec, &args, &journal, &mut checker)
    };
    let _ = std::fs::remove_dir_all(&journal);
    // Untraced runs leave nothing behind; this removes only an empty dir.
    let _ = std::fs::remove_dir(&out);

    for traced in [false, true] {
        let group: Vec<&Pass> = passes.iter().filter(|p| p.traced == traced).collect();
        if !group.is_empty() {
            print_counts(&group);
        }
    }
    for (name, value, unit) in &metrics {
        println!("{name:<36} {value:>14.4} {unit}");
    }
    println!(
        "checks {} violations {}",
        checker.checks, checker.violations
    );
    for v in &checker.first {
        println!("  {v}");
    }
    let attempted: u64 = passes.iter().map(Pass::attempted).sum();
    let failed: u64 = passes.iter().map(Pass::failed).sum();
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        checker.violations == 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// A round during which the hypervisor took more than this share of the
/// machine's CPU time is not measured: on the 2-CPU VM the benchmark was
/// written on, steal ran from 0 to 85% of a round and stretched a round
/// threefold, while the program's work stayed the same.
const CLEAN_STEAL: f64 = 0.03;

/// Untraced rounds at the shipped telemetry level until their timed phases
/// hold `--seconds` of wall time; every end-to-end metric. The rounds
/// measured are the clean ones, and never fewer than the least-stolen half.
/// The closed loop's timings are medians over them of each round's figure.
/// Traffic epochs and recoveries, a few per round that differ with the
/// round's state, are pooled over them. `heap_peak_mb`, which no steal
/// moves, is the median of every round's peak.
fn untraced(
    spec: &Spec,
    args: &Args,
    journal: &Path,
    checker: &mut Checker,
) -> (Vec<Pass>, Metrics) {
    let telemetry = TelemetryConfig::counters();
    let mut all: Vec<Pass> = Vec::new();
    let mut timed_ns = 0.0;
    while timed_ns < args.seconds * 1e9 {
        let k = all.len() as u32;
        let mut pass = Pass::new(false);
        let seed = rush::round_seed(args.seed, k);
        rush::round(spec, seed, telemetry, journal, &mut pass, checker, k == 0);
        timed_ns += pass.timed_ns as f64;
        println!(
            "round {k:>2} steal {:>5.1}% timed_s {:.3} offer_p50_ms {:.4} location_p50_us {:.2} sessions_per_s {:.2} recover_s {:.4} ({} recoveries) heap_peak_mb {:.3}",
            pass.steal_share * 100.0,
            pass.timed_ns as f64 / 1e9,
            quantile(&pass.offer_ns, 0.5) as f64 / 1e6,
            quantile(&pass.location_ns, 0.5) as f64 / 1e3,
            ratio(pass.sessions as f64, pass.timed_ns as f64 / 1e9),
            median(&pass.recover_s),
            pass.recover_s.len(),
            pass.heap_peak_mb,
        );
        all.push(pass);
    }
    let mut order: Vec<&Pass> = all.iter().collect();
    order.sort_by(|a, b| a.steal_share.total_cmp(&b.steal_share));
    let clean = order
        .iter()
        .filter(|p| p.steal_share <= CLEAN_STEAL)
        .count();
    let rounds = &order[..clean.max(order.len().div_ceil(2))];
    let mut setup_s: Vec<f64> = rounds.iter().map(|p| p.setup_s).collect();
    while setup_s.len() < 3 {
        let seed = rush::round_seed(args.seed, setup_s.len() as u32);
        setup_s.push(rush::setup_only(spec, seed, telemetry, journal));
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    let us = |ns: u64| ns as f64 / 1e3;
    let per_round =
        |f: &dyn Fn(&Pass) -> f64| median(&rounds.iter().map(|p| f(p)).collect::<Vec<_>>());
    let metrics = vec![
        (
            "offer_p50_ms",
            per_round(&|p| ms(quantile(&p.offer_ns, 0.5))),
            "ms",
        ),
        (
            "offer_p90_ms",
            per_round(&|p| ms(quantile(&p.offer_ns, 0.9))),
            "ms",
        ),
        (
            "confirm_p50_ms",
            per_round(&|p| ms(quantile(&p.confirm_ns, 0.5))),
            "ms",
        ),
        (
            "location_p50_us",
            per_round(&|p| us(quantile(&p.location_ns, 0.5))),
            "us",
        ),
        (
            "location_p90_us",
            per_round(&|p| us(quantile(&p.location_ns, 0.9))),
            "us",
        ),
        (
            "sessions_per_s",
            per_round(&|p| ratio(p.sessions as f64, p.timed_ns as f64 / 1e9)),
            "1/s",
        ),
        (
            "traffic_update_ms",
            ms(quantile(
                &rounds
                    .iter()
                    .flat_map(|p| p.traffic_ns.clone())
                    .collect::<Vec<_>>(),
                0.5,
            )),
            "ms",
        ),
        (
            "recover_s",
            median(
                &rounds
                    .iter()
                    .flat_map(|p| p.recover_s.clone())
                    .collect::<Vec<_>>(),
            ),
            "s",
        ),
        ("setup_s", median(&setup_s), "s"),
        (
            "heap_peak_mb",
            median(&all.iter().map(|p| p.heap_peak_mb).collect::<Vec<_>>()),
            "MB",
        ),
    ];
    println!(
        "rounds {} measured {} (steal {}) sessions {} timed_s {:.3} offers {} locations {} epochs {} vm_hwm_mb {:.1}",
        all.len(),
        rounds.len(),
        order
            .iter()
            .map(|p| format!("{:.1}%", p.steal_share * 100.0))
            .collect::<Vec<_>>()
            .join(" "),
        rounds.iter().map(|p| p.sessions).sum::<u64>(),
        rounds.iter().map(|p| p.timed_ns).sum::<u64>() as f64 / 1e9,
        rounds.iter().map(|p| p.offer_ns.len()).sum::<usize>(),
        rounds.iter().map(|p| p.location_ns.len()).sum::<usize>(),
        rounds.iter().map(|p| p.traffic_ns.len()).sum::<usize>(),
        stats::peak_rss_mb()
    );
    (all, metrics)
}

/// One untraced and one traced round; every per-layer metric, the span
/// file and the per-layer table.
fn traced(
    spec: &Spec,
    args: &Args,
    journal: &Path,
    out: &Path,
    checker: &mut Checker,
) -> (Vec<Pass>, Metrics) {
    let mut passes = Vec::new();
    let plain = least_stolen(spec, args.seed, false, journal, checker, &mut passes);
    let pass = least_stolen(spec, args.seed, true, journal, checker, &mut passes);
    let (plain, pass) = (&passes[plain], &passes[pass]);

    let stage = |s: Stage| -> HistogramSnapshot {
        pass.stages
            .iter()
            .find(|(x, _)| *x == s)
            .map_or_else(HistogramSnapshot::empty, |(_, h)| h.clone())
    };
    let us = |ns: u64| ns as f64 / 1e3;
    let q_us = |s: Stage, q: f64| us(stage(s).quantile(q));
    let wire = spec.wire;
    let (loc, arr) = if wire {
        (&pass.handle_location_ns, &pass.handle_arrived_ns)
    } else {
        (&pass.location_ns, &pass.arrived_ns)
    };
    let w = pass.work;
    let req = w.requests as f64;
    let probe = pass.probe.as_ref().expect("traced rounds probe the oracle");
    let metrics = vec![
        (
            "service.submit_us.p50",
            q_us(Stage::ServiceSubmit, 0.5),
            "us",
        ),
        (
            "service.submit_us.p90",
            q_us(Stage::ServiceSubmit, 0.9),
            "us",
        ),
        (
            "service.respond_us.p50",
            q_us(Stage::ServiceRespond, 0.5),
            "us",
        ),
        (
            "service.location_update_us.p50",
            us(quantile(loc, 0.5)),
            "us",
        ),
        (
            "service.location_update_us.p99",
            us(quantile(loc, 0.99)),
            "us",
        ),
        (
            "service.vehicle_arrived_us.p50",
            us(quantile(arr, 0.5)),
            "us",
        ),
        ("service.tick_us.p50", q_us(Stage::ServiceTick, 0.5), "us"),
        (
            "service.tick_us.max",
            us(stage(Stage::ServiceTick).max()),
            "us",
        ),
        (
            "service.submit_unattributed_us.p50",
            us(quantile(&pass.submit_unattributed_ns, 0.5)),
            "us",
        ),
        (
            "service.lock_wait_us.p99",
            q_us(Stage::ServiceLockWait, 0.99),
            "us",
        ),
        (
            "events.per_session",
            ratio(pass.events as f64, pass.sessions as f64),
            "count",
        ),
        (
            "matching.match_ms.p50",
            quantile(&pass.match_ns, 0.5) as f64 / 1e6,
            "ms",
        ),
        (
            "matching.match_ms.p90",
            quantile(&pass.match_ns, 0.9) as f64 / 1e6,
            "ms",
        ),
        (
            "matching.candidates_us.p50",
            q_us(Stage::MatchCandidates, 0.5),
            "us",
        ),
        ("matching.prune_us.p50", q_us(Stage::MatchPrune, 0.5), "us"),
        (
            "matching.verify_us.p50",
            q_us(Stage::MatchVerify, 0.5),
            "us",
        ),
        (
            "matching.skyline_us.p50",
            q_us(Stage::MatchSkyline, 0.5),
            "us",
        ),
        (
            "matching.considered_per_req",
            ratio(w.considered as f64, req),
            "count",
        ),
        (
            "matching.pruned_per_req",
            ratio(w.pruned as f64, req),
            "count",
        ),
        (
            "matching.verified_per_req",
            ratio(w.verified as f64, req),
            "count",
        ),
        (
            "matching.cells_per_req",
            ratio(w.cells as f64, req),
            "count",
        ),
        (
            "matching.candidates_per_req",
            ratio(w.candidates as f64, req),
            "count",
        ),
        (
            "matching.options_per_req",
            ratio(w.options as f64, req),
            "count",
        ),
        (
            "matching.prune_ratio",
            ratio(w.pruned as f64, w.considered as f64),
            "ratio",
        ),
        (
            "matching.verify_yield",
            ratio(w.options as f64, w.verified as f64),
            "ratio",
        ),
        (
            "runtime.jobs_per_req",
            ratio(stage(Stage::PoolJob).count() as f64, req),
            "count",
        ),
        ("runtime.job_us.p50", q_us(Stage::PoolJob, 0.5), "us"),
        ("oracle.exact_per_req", ratio(w.exact as f64, req), "count"),
        (
            "oracle.lower_bounds_per_req",
            ratio(w.lower_bounds as f64, req),
            "count",
        ),
        (
            "oracle.cache_hits_per_req",
            ratio(w.cache_hits as f64, req),
            "count",
        ),
        (
            "oracle.cache_hit_ratio",
            ratio(w.cache_hits as f64, (w.cache_hits + w.exact) as f64),
            "ratio",
        ),
        ("oracle.evictions", pass.evictions as f64, "count"),
        (
            "oracle.distance_cold_us.p50",
            us(quantile(&probe.distance_cold_ns, 0.5)),
            "us",
        ),
        (
            "oracle.lower_bound_us.p50",
            us(quantile(&probe.lower_bound_ns, 0.5)),
            "us",
        ),
        (
            "oracle.customize_ms.p50",
            quantile(&probe.customize_ns, 0.5) as f64 / 1e6,
            "ms",
        ),
        (
            "kinetic.nodes_mean",
            ratio(pass.fleet.0 as f64, pass.fleet.3 as f64),
            "count",
        ),
        (
            "kinetic.stops_mean",
            ratio(pass.fleet.1 as f64, pass.fleet.3 as f64),
            "count",
        ),
        (
            "vehicles.onboard_mean",
            ratio(pass.fleet.2 as f64, pass.fleet.3 as f64),
            "count",
        ),
        (
            "kinetic.verify_us_per_vehicle",
            ratio(us(stage(Stage::MatchVerify).sum()), w.verified as f64),
            "us",
        ),
        (
            "generator.self_share",
            1.0 - ratio(pass.call_ns as f64, pass.timed_ns as f64),
            "ratio",
        ),
        (
            "trace.overhead_pct",
            (ratio(pass.call_ns as f64, plain.call_ns as f64) - 1.0) * 100.0,
            "%",
        ),
    ];

    // Layers that only the wire workload has: printed and written to the
    // table, not part of the metric set every workload reports.
    let mut extra: Metrics = Vec::new();
    if wire {
        let facts = pass.journal.as_ref().expect("the wire round journals");
        extra = vec![
            ("server.read_us.p50", q_us(Stage::ServerRead, 0.5), "us"),
            ("server.handle_us.p50", q_us(Stage::ServerHandle, 0.5), "us"),
            ("server.write_us.p50", q_us(Stage::ServerWrite, 0.5), "us"),
            (
                "server.rtt_minus_handle_us.p50",
                us(quantile(&pass.rtt_minus_handle_ns, 0.5)),
                "us",
            ),
            ("journal.ops", facts.ops as f64, "count"),
            (
                "journal.bytes_per_op",
                ratio(facts.wal_bytes as f64, facts.wal_ops as f64),
                "B",
            ),
            (
                "journal.append_us.p50",
                q_us(Stage::JournalAppend, 0.5),
                "us",
            ),
            (
                "journal.fsync_ms.p50",
                stage(Stage::JournalFsync).quantile(0.5) as f64 / 1e6,
                "ms",
            ),
            (
                "journal.snapshot_ms.max",
                stage(Stage::JournalSnapshot).max() as f64 / 1e6,
                "ms",
            ),
            ("journal.tail_ops", facts.tail_ops as f64, "count"),
        ];
    }
    let mut table = String::new();
    let _ = writeln!(
        table,
        "# {} seed {}: traced round; wire-only layers",
        spec.name, args.seed
    );
    for (name, value, unit) in &extra {
        let _ = writeln!(table, "{name:<36} {value:>14.4} {unit}");
    }
    layer_table(&mut table, pass, wire);
    let _ = writeln!(
        table,
        "tracing overhead: program-call time {:.3} s traced vs {:.3} s untraced ({:+.2}%)",
        pass.call_ns as f64 / 1e9,
        plain.call_ns as f64 / 1e9,
        (ratio(pass.call_ns as f64, plain.call_ns as f64) - 1.0) * 100.0
    );
    print!("{table}");
    let spans_path = out.join("spans.jsonl");
    let table_path = out.join("layers.txt");
    let written = pass
        .spans
        .write(&spans_path)
        .and_then(|()| std::fs::write(&table_path, &table));
    match written {
        Ok(()) => println!(
            "wrote {} spans to {} and the layer table to {}",
            pass.spans.spans.len(),
            spans_path.display(),
            table_path.display()
        ),
        Err(e) => eprintln!("cannot write trace output: {e}"),
    }
    let steal = format!(
        "steal {:.1}% untraced, {:.1}% traced",
        plain.steal_share * 100.0,
        pass.steal_share * 100.0
    );
    println!("{steal}");
    (passes, metrics)
}

/// Runs round 0 of the seed, untraced or traced, a second time when the
/// hypervisor took more than `CLEAN_STEAL` of the machine during the first;
/// returns the index in `passes` of the less-stolen attempt.
fn least_stolen(
    spec: &Spec,
    seed: u64,
    traced: bool,
    journal: &Path,
    checker: &mut Checker,
    passes: &mut Vec<Pass>,
) -> usize {
    let telemetry = if traced {
        TelemetryConfig::spans()
    } else {
        TelemetryConfig::counters()
    };
    let first = passes.len();
    for _ in 0..2 {
        let mut pass = Pass::new(traced);
        rush::round(spec, seed, telemetry, journal, &mut pass, checker, traced);
        let clean = pass.steal_share <= CLEAN_STEAL;
        passes.push(pass);
        if clean {
            break;
        }
    }
    (first..passes.len())
        .min_by(|&a, &b| passes[a].steal_share.total_cmp(&passes[b].steal_share))
        .expect("at least one attempt")
}

/// Per operation type, the mean time per traced call in each program stage
/// its span tree holds (joined by trace id), nested as the program nests
/// them, and what no stage accounts for.
fn layer_table(out: &mut String, pass: &Pass, wire: bool) {
    let at = |b: &rush::CallStages, s: Stage| b.stage_ns[rush::stage_index(s)];
    let ops: [(&str, &str, Option<Stage>); 5] = if wire {
        [
            ("submit", "http.rides", Some(Stage::ServiceSubmit)),
            ("respond", "http.respond", Some(Stage::ServiceRespond)),
            ("location", "http.location", None),
            ("arrived", "http.arrived", None),
            ("tick", "http.tick", Some(Stage::ServiceTick)),
        ]
    } else {
        [
            ("submit", "service.submit", Some(Stage::ServiceSubmit)),
            ("respond", "service.respond", Some(Stage::ServiceRespond)),
            ("location", "service.location_update", None),
            ("arrived", "service.vehicle_arrived", None),
            ("tick", "service.tick", Some(Stage::ServiceTick)),
        ]
    };
    let matching = [
        Stage::MatchCandidates,
        Stage::MatchPrune,
        Stage::MatchVerify,
        Stage::MatchSkyline,
    ];
    for (op, span, service_stage) in ops {
        let Some(b) = pass.call_stages.get(span) else {
            let _ = writeln!(
                out,
                "layer table: {op}: no program spans (the call takes no trace context)"
            );
            continue;
        };
        let n = b.calls.max(1) as f64;
        let call = b.call_ns;
        let service = service_stage.map_or(0, |s| at(b, s));
        let lock = at(b, Stage::ServiceLockWait);
        let append = at(b, Stage::JournalAppend);
        let mut rows: Vec<(String, u64)> = vec![(format!("{span} (benchmark span)"), call)];
        let mut indent = "  ".to_string();
        let outer = if wire {
            let handle = at(b, Stage::ServerHandle);
            rows.push(("  server.handle".into(), handle));
            let inner = if service_stage.is_some() {
                service
            } else {
                append
            };
            rows.push((
                "    server.handle self".into(),
                handle.saturating_sub(inner),
            ));
            indent = "    ".into();
            handle
        } else {
            service
        };
        if let Some(s) = service_stage {
            rows.push((format!("{indent}{}", s.name()), service));
            rows.push((format!("{indent}  service.lock_wait"), lock));
            let mut inner = lock + append;
            if op == "submit" {
                rows.push((format!("{indent}  matching (total_match_secs)"), b.match_ns));
                for s in matching {
                    rows.push((format!("{indent}    {}", s.name()), at(b, s)));
                }
                let stages: u64 = matching.iter().map(|&s| at(b, s)).sum();
                rows.push((
                    format!("{indent}    matching unattributed"),
                    b.match_ns.saturating_sub(stages),
                ));
                inner += b.match_ns;
            }
            if op == "tick" {
                rows.push((
                    format!("{indent}  journal.snapshot"),
                    at(b, Stage::JournalSnapshot),
                ));
                inner += at(b, Stage::JournalSnapshot);
            }
            rows.push((format!("{indent}  journal.append"), append));
            rows.push((
                format!("{indent}  {} unattributed", s.name()),
                service.saturating_sub(inner),
            ));
        } else if wire {
            rows.push(("    journal.append".into(), append));
        }
        rows.push((
            if wire {
                "  unattributed (client, kernel, loopback, server read and write)".into()
            } else {
                "  unattributed (outside any program stage)".into()
            },
            call.saturating_sub(outer),
        ));
        let _ = writeln!(
            out,
            "layer table: {op}, {} traced calls, {} without a span tree (mean us per call, share of the call)",
            b.calls, b.unjoined
        );
        for (name, ns) in rows {
            let _ = writeln!(
                out,
                "  {name:<64} {:>10.2} {:>6.1}%",
                ns as f64 / 1e3 / n,
                ratio(ns as f64, call as f64) * 100.0
            );
        }
        let _ = writeln!(
            out,
            "  {:<64} {:>10.2}",
            "runtime.pool_job (on pool threads, overlaps the above)",
            at(b, Stage::PoolJob) as f64 / 1e3 / n
        );
    }
}

fn print_counts(passes: &[&Pass]) {
    let sum = |f: &dyn Fn(&Pass) -> u64| passes.iter().map(|p| f(p)).sum::<u64>();
    let mut line = format!(
        "ops ({}, {} rounds):",
        if passes[0].traced {
            "traced"
        } else {
            "untraced"
        },
        passes.len()
    );
    for (i, (_, name)) in OPS.iter().enumerate() {
        let _ = write!(
            line,
            " {name} {}/{}",
            sum(&|p| p.counts[i].attempted),
            sum(&|p| p.counts[i].failed)
        );
    }
    let _ = write!(
        line,
        " assignment_failed {} http {}/{} non-2xx",
        sum(&|p| p.assignment_failed),
        sum(&|p| p.http.attempted),
        sum(&|p| p.http.failed)
    );
    println!("{line} (attempted/failed)");
}
