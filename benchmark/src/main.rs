//! xlink-rs benchmark: one command, one workload per run.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fleet_short --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics, in wall time
//! corrected for contention on a shared host (see `contention`); with
//! `--trace 1` it alternates untraced and traced passes, checks that they
//! produce identical outputs, and reports the per-layer metrics. The last
//! line of standard output is the result object; the line before it holds
//! the QoE and failure figures with their sample counts. See
//! `benchmark/NOTES.md`.

mod contention;
mod layers;
mod workloads;

use contention::Meter;
use layers::{calls_within, ratio, span};
use std::time::{Duration, Instant};
use workloads::{Pass, Scale, WORKLOADS};
use xlink_obs::json::JsonWriter;
use xlink_obs::prof::ProfReport;

/// Times the input is set up; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// No pass starts that would end after this, whatever `--seconds` says
/// (the 180 s budget).
const HARD_STOP: Duration = Duration::from_secs(120);

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 4] = [
    ("sessions_per_s", "1/s"),
    ("sim_packets_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 33] = [
    ("harness.fleet.admit_us_per_session", "us"),
    ("harness.fleet.finalize_us_per_session", "us"),
    ("harness.fleet.heap_pop_ns_per_event", "ns"),
    ("harness.fleet.events", "count"),
    ("harness.fleet.peak_live_sessions", "count"),
    ("harness.pop.unattributed_s", "s"),
    ("netsim.link_delivery_self_ns_per_packet", "ns"),
    ("netsim.step_to_self_ns_per_call", "ns"),
    ("netsim.step_to_calls", "count"),
    ("netsim.allocs_per_packet", "allocs/packet"),
    ("quic.aead_seal_ns_per_call", "ns"),
    ("quic.aead_open_ns_per_call", "ns"),
    ("quic.aead_allocs_per_packet", "allocs/packet"),
    ("quic.packet_decode_ns_per_call", "ns"),
    ("quic.recovery_ack_ns_per_call", "ns"),
    ("core.reinject_calls", "count"),
    ("core.reinject_self_ns_per_call", "ns"),
    ("core.reinject_allocs_per_call", "allocs/call"),
    ("core.reinject_yield", "packets/call"),
    ("core.sched_decide_ns_per_call", "ns"),
    ("core.qoe_gate_ns_per_call", "ns"),
    ("video.client_on_tick_ns_per_call", "ns"),
    ("harness.client_on_datagram_ns_per_call", "ns"),
    ("harness.server_poll_transmit_ns_per_call", "ns"),
    ("harness.server_poll_transmit_empty_frac", "ratio"),
    ("edge.datagrams_in", "count"),
    ("edge.retries_sent", "count"),
    ("edge.admit_yield", "ratio"),
    ("edge.peak_conns", "count"),
    ("edge.peak_pending_retries", "count"),
    ("traces.pool_generate_s", "s"),
    ("obs.traced_overhead_pct", "%"),
    ("core.reinject_self_share", "ratio"),
];

const USAGE: &str = "usage: xlink-benchmark --workload <fleet_short|mobility_video|pop_admission> \
                     --seed <n> --seconds <n> --trace <0|1> [--scale full|tiny]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = Scale::Full;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? == 1),
            "--scale" if value == "full" => scale = Scale::Full,
            "--scale" if value == "tiny" => scale = Scale::Tiny,
            _ => return Err(format!("unexpected {flag} {value}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.filter(|s| *s > 0.0).ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        scale,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });

    // Untraced runs time every unit of work against the reference loop;
    // traced runs report no wall-clock metric that needs it.
    let mut meter = Meter::new(!args.trace);

    // Set-up: build the input SETUP_REPS times (traced: recording the
    // trace-generation spans), keep the last.
    let mut setup_units = Vec::new();
    let mut setup_profile = ProfReport::default();
    let mut checks: Vec<(&'static str, bool)> = Vec::new();
    let mut input = None;
    for _ in 0..SETUP_REPS {
        let (((inp, setup_checks), report), unit) = meter.time(|| {
            if args.trace {
                layers::record(|| workloads::setup(&args.workload, args.seed, args.scale))
            } else {
                (workloads::setup(&args.workload, args.seed, args.scale), ProfReport::default())
            }
        });
        setup_units.push(unit);
        setup_profile.merge(&report);
        checks.extend(setup_checks);
        input = Some(inp);
    }
    let input = input.expect("at least one set-up");

    // Timed region: whole passes over the fixed input, at least one, and
    // another only while it should end within `--seconds`. A traced run
    // pairs every untraced pass with a traced one.
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    loop {
        untraced.push(workloads::pass(&input, false, &mut meter));
        if args.trace {
            traced.push(workloads::pass(&input, true, &mut meter));
        }
        let used = t0.elapsed();
        let per_round = used / untraced.len() as u32;
        if used + per_round > budget.min(HARD_STOP) {
            break;
        }
    }

    let first = &untraced[0];
    let deterministic = untraced.iter().all(|p| p.fingerprint == first.fingerprint);
    let traced_matches = traced.iter().all(|p| p.fingerprint == first.fingerprint);
    checks.push(("repeated passes give identical outputs", deterministic));
    checks.extend(workloads::recheck(&input, first));
    if args.trace {
        checks.push(("traced outputs equal untraced outputs bit-for-bit", traced_matches));
    }
    for p in untraced.iter().chain(&traced) {
        checks.extend(p.checks.iter().copied());
    }
    checks.push(("every pass attempted work", untraced.iter().all(|p| p.attempted > 0)));

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        per_layer(&untraced, &traced, &setup_profile)
    } else {
        let pass_s = pass_time(&untraced, &meter);
        let values = [
            ratio(first.completed as f64, pass_s),
            ratio(first.packets as f64, pass_s),
            median(setup_units.iter().map(|u| meter.corrected(u)).collect()),
            peak_rss_mb(),
        ];
        END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name, unit, v)).collect()
    };
    checks.push(("every metric is a finite number", metrics.iter().all(|m| m.2.is_finite())));
    if !args.trace {
        checks.push(("every end-to-end metric is above zero", metrics.iter().all(|m| m.2 > 0.0)));
    }

    let passes = untraced.len() + traced.len();
    let attempted: u64 = untraced.iter().chain(&traced).map(|p| p.attempted).sum();
    let failed: u64 =
        untraced.iter().chain(&traced).map(|p| p.attempted.saturating_sub(p.completed)).sum();
    let correct = checks.iter().all(|c| c.1);
    for (what, ok) in &checks {
        if !ok {
            eprintln!("CHECK FAILED: {what}");
        }
    }
    if !traced.is_empty() {
        let passes_profile = merged_profile(&traced);
        print_top_spans(
            &passes_profile,
            traced.iter().flat_map(|p| &p.units).map(|u| u.wall).sum(),
        );
        let mut profile = passes_profile;
        profile.merge(&setup_profile);
        write_profile(&args, &profile);
    }
    let walls: Vec<String> = untraced
        .iter()
        .map(|p| format!("{:.3}", p.units.iter().map(|u| u.wall).sum::<f64>()))
        .collect();
    eprintln!("{} seed {}: untraced pass walls (s): {}", args.workload, args.seed, walls.join(" "));
    let (fastest, median_ref, samples) = meter.reference_times();
    if samples > 0 {
        eprintln!(
            "reference loop over {samples} samples: {:.2} ms median, {:.2} ms fastest, {:.2} ms \
             nominal",
            median_ref * 1e3,
            fastest * 1e3,
            contention::REFERENCE_NOMINAL_S * 1e3,
        );
    }

    println!("{}", figures_line(&args, first, passes));
    println!("{}", result_line(correct, attempted, failed, &metrics));
}

/// Per-layer metrics from the traced passes. Span counts are per pass
/// (the traced passes are identical, so their merged counts divide
/// exactly).
fn per_layer(
    untraced: &[Pass],
    traced: &[Pass],
    setup_profile: &ProfReport,
) -> Vec<(&'static str, &'static str, f64)> {
    let profile = merged_profile(traced);
    let k = traced.len() as f64;
    let p = |leaf: &str| span(&profile, leaf);
    let packets = traced[0].packets as f64 * k;
    let seal = p("quic;aead_seal");
    let open = p("quic;aead_open");
    let reinject = p("core;reinject");
    let netsim_self_allocs: u64 = ["netsim;link_delivery", "netsim;step_to", "netsim;run_until"]
        .iter()
        .map(|l| p(l).self_allocs)
        .sum();
    // The meter is off in traced runs, so these are plain wall times.
    let idle = Meter::new(false);
    let (wall_untraced, wall_traced) = (pass_time(untraced, &idle), pass_time(traced, &idle));
    let profiled_ns = profile.total_incl_ns() as f64;
    let traces_ns = span(setup_profile, "traces;pool_generate").incl_ns
        + span(setup_profile, "traces;mobility_trace_pairs").incl_ns;

    let mut values: Vec<(&'static str, f64)> = vec![
        ("harness.fleet.admit_us_per_session", p("fleet;admit").incl_per_call() / 1e3),
        ("harness.fleet.finalize_us_per_session", p("fleet;finalize").incl_per_call() / 1e3),
        ("harness.fleet.heap_pop_ns_per_event", p("fleet;heap_pop").incl_per_call()),
        ("harness.pop.unattributed_s", p("harness;run_pop").self_ns as f64 / k / 1e9),
        (
            "netsim.link_delivery_self_ns_per_packet",
            ratio(p("netsim;link_delivery").self_ns as f64, packets),
        ),
        ("netsim.step_to_self_ns_per_call", p("netsim;step_to").self_per_call()),
        ("netsim.step_to_calls", p("netsim;step_to").calls as f64 / k),
        ("netsim.allocs_per_packet", ratio(netsim_self_allocs as f64, packets)),
        ("quic.aead_seal_ns_per_call", seal.incl_per_call()),
        ("quic.aead_open_ns_per_call", open.incl_per_call()),
        ("quic.aead_allocs_per_packet", ratio((seal.allocs + open.allocs) as f64, packets)),
        ("quic.packet_decode_ns_per_call", p("quic;packet_decode").incl_per_call()),
        ("quic.recovery_ack_ns_per_call", p("quic;recovery_ack").incl_per_call()),
        ("core.reinject_calls", reinject.calls as f64 / k),
        ("core.reinject_self_ns_per_call", reinject.self_per_call()),
        (
            "core.reinject_allocs_per_call",
            ratio(reinject.self_allocs as f64, reinject.calls as f64),
        ),
        (
            "core.reinject_yield",
            ratio(
                calls_within(&profile, "core;reinject", "quic;aead_seal") as f64,
                reinject.calls as f64,
            ),
        ),
        ("core.sched_decide_ns_per_call", p("core;sched_decide").incl_per_call()),
        ("core.qoe_gate_ns_per_call", p("core;qoe_gate").incl_per_call()),
        ("video.client_on_tick_ns_per_call", p("video;client_on_tick").incl_per_call()),
        ("harness.client_on_datagram_ns_per_call", p("harness;client_on_datagram").incl_per_call()),
        (
            "harness.server_poll_transmit_ns_per_call",
            p("harness;server_poll_transmit").incl_per_call(),
        ),
        ("traces.pool_generate_s", traces_ns as f64 / SETUP_REPS as f64 / 1e9),
        ("obs.traced_overhead_pct", (ratio(wall_traced, wall_untraced) - 1.0) * 100.0),
        ("core.reinject_self_share", ratio(reinject.self_ns as f64, profiled_ns)),
    ];
    values.extend(traced[0].counters.iter().copied());
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = values.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
            (name, unit, v)
        })
        .collect()
}

fn merged_profile(traced: &[Pass]) -> ProfReport {
    let mut merged = ProfReport::default();
    for p in traced {
        if let Some(profile) = &p.profile {
            merged.merge(profile);
        }
    }
    merged
}

/// Time of one pass: each unit of work (a whole run, or one session)
/// takes the median of its corrected times over the passes, and the pass
/// time is the sum of those medians.
fn pass_time(passes: &[Pass], meter: &Meter) -> f64 {
    let units = passes.first().map_or(0, |p| p.units.len());
    (0..units).map(|u| median(passes.iter().map(|p| meter.corrected(&p.units[u])).collect())).sum()
}

/// Median (mean of the middle two for an even count); 0 when empty.
fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn figures_line(args: &Args, pass: &Pass, passes: usize) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("workload", &args.workload);
    w.field_u64("seed", args.seed);
    w.field_bool("trace", args.trace);
    w.field_u64("passes", passes as u64);
    w.key("figures");
    w.begin_object();
    for f in &pass.figures {
        w.key(f.name);
        w.begin_object();
        w.field_f64("value", f.value);
        w.field_str("unit", f.unit);
        w.field_u64("samples", f.samples);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

/// The result object. A non-finite value prints as `null` and has
/// already failed the finiteness check.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_bool("correct", correct);
    w.field_u64("attempted", attempted);
    w.field_u64("failed", failed);
    w.key("metrics");
    w.begin_object();
    for &(name, unit, value) in metrics {
        w.key(name);
        w.begin_object();
        w.field_f64("value", value);
        w.field_str("unit", unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

/// Keep the recorded spans: `.bench_out/<workload>-seed<n>.prof.json`
/// (the `xlink-prof-v1` schema) under the working directory.
fn write_profile(args: &Args, profile: &ProfReport) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{}-seed{}.prof.json", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, profile.to_json()));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Human summary on stderr: the spans of the traced passes with the most
/// self time, as a share of those passes' wall time.
fn print_top_spans(profile: &ProfReport, traced_wall_s: f64) {
    let mut rows: Vec<_> = profile.rows.iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.excl_ns));
    eprintln!("{:<64} {:>10} {:>10} {:>7}", "span (self time)", "calls", "self ms", "% wall");
    for r in rows.iter().take(12) {
        eprintln!(
            "{:<64} {:>10} {:>10.1} {:>6.1}%",
            r.path,
            r.calls,
            r.excl_ns as f64 / 1e6,
            ratio(r.excl_ns as f64 / 1e9, traced_wall_s) * 100.0
        );
    }
}
