//! The three workloads: inputs built from the seed, one untraced or
//! traced pass over them, and what each pass must satisfy.

use crate::contention::{Meter, Unit};
use crate::layers::{self, ratio, Timed};
use std::time::Duration as WallDuration;
use xlink_clock::{Duration, Instant};
use xlink_core::WirelessTech;
use xlink_harness::fleet::{stable_hash, ArmAgg, ShardCounters, TracePool};
use xlink_harness::video_session::{
    client_endpoint_for_probe, server_endpoint_for_probe, VideoClientEndpoint, VideoServerEndpoint,
};
use xlink_harness::{
    run_fleet, run_fleet_profiled, run_pop, run_session, EdgeAttackKind, FleetConfig, PathSpec,
    PopReport, PopRunConfig, Scheme, SessionConfig, SessionResult,
};
use xlink_lab::rng::Rng;
use xlink_lab::stream::LogHistogram;
use xlink_netsim::World;
use xlink_obs::prof::{self, ProfReport};
use xlink_video::Video;

/// Input size: `Full` is what the benchmark measures, `Tiny` is for the
/// benchmark's own test.
#[derive(Clone, Copy)]
pub enum Scale {
    Full,
    Tiny,
}

/// A value the pass reports beside the end-to-end metrics (QoE and
/// failure figures), with the number of samples behind it.
pub struct Figure {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: u64,
}

/// What one pass over the workload's input produced.
pub struct Pass {
    /// Each unit of work in the pass, in a fixed order: the whole run for
    /// the fleet and the PoP, each session for mobility.
    pub units: Vec<Unit>,
    pub attempted: u64,
    pub completed: u64,
    pub packets: u64,
    /// Identity of the program's outputs, one line per unit of work:
    /// equal across repeated passes and between the traced and untraced
    /// runs.
    pub fingerprint: String,
    pub figures: Vec<Figure>,
    /// Invariants the outputs must hold: (description, held).
    pub checks: Vec<(&'static str, bool)>,
    /// Per-layer values read from the outputs rather than from spans.
    pub counters: Vec<(&'static str, f64)>,
    /// Spans recorded by a traced pass.
    pub profile: Option<ProfReport>,
}

/// One workload's input, built from the seed by [`setup`].
pub enum Input {
    Fleet(Vec<FleetConfig>),
    Mobility(Vec<MobilitySession>),
    Pop(Vec<PopRunConfig>),
}

pub struct MobilitySession {
    pub arm_b: bool,
    pub cfg: SessionConfig,
    pub paths: [PathSpec; 2],
}

pub const WORKLOADS: [&str; 3] = ["fleet_short", "mobility_video", "pop_admission"];

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Build the workload's input from `seed` and run one small warm-up pass
/// over inputs of the same shape, so lazy allocation is done before the
/// timed region. Returns the checks the warm-up made.
pub fn setup(workload: &str, seed: u64, scale: Scale) -> (Input, Vec<(&'static str, bool)>) {
    match workload {
        "fleet_short" => {
            let runs = fleet_configs(seed, scale);
            // The fleet draws every user's paths from this pool; the
            // engine builds its own copy per run, so this one only
            // warms up (and, traced, times) the trace generator.
            {
                let _s = prof::span!("traces/pool_generate");
                let cfg = &runs[0];
                std::hint::black_box(TracePool::generate(cfg.seed, cfg.trace_pool, 30_000));
            }
            let mut warm = runs[0].clone();
            warm.users_per_day = 16;
            let r = run_fleet(&warm);
            let ok = r.arm_a.sessions + r.arm_b.sessions == warm.sessions_total();
            (Input::Fleet(runs), vec![("warm-up fleet arm sessions sum to its population", ok)])
        }
        "mobility_video" => {
            let sessions = mobility_sessions(seed, scale);
            // Warm up on the first session: a single-path one, whose cost
            // varies little from seed to seed.
            let warm = &sessions[0];
            std::hint::black_box(session(&warm.cfg, build_paths(&warm.paths), false));
            (Input::Mobility(sessions), Vec::new())
        }
        "pop_admission" => {
            let runs = pop_configs(seed, scale);
            let warm = PopRunConfig {
                users: POP_WARM_USERS,
                attack: Some((EdgeAttackKind::InitialFlood, POP_WARM_USERS as u64)),
                ..runs[0].clone()
            };
            let r = run_pop(&warm);
            (
                Input::Pop(runs),
                vec![(
                    "warm-up PoP admitted every user",
                    r.stats.admitted == POP_WARM_USERS as u64,
                )],
            )
        }
        other => panic!("unknown workload {other}"),
    }
}

/// `fleet_short`: SP vs XLINK, 4 s / 400 kbps videos in 64 KiB ranges,
/// every arrival inside 3 s so each run's whole population is live at
/// once, in [`FLEET_RUNS`] runs of their own. Each run is a unit of work
/// short enough for the contention correction to track.
fn fleet_configs(seed: u64, scale: Scale) -> Vec<FleetConfig> {
    let (runs, users) = match scale {
        Scale::Full => (FLEET_RUNS, FLEET_SESSIONS_PER_RUN),
        Scale::Tiny => (2, 12),
    };
    (0..runs)
        .map(|run| {
            let mut cfg = FleetConfig::new(Scheme::Sp { path: 0 }, Scheme::Xlink);
            cfg.users_per_day = users;
            cfg.shards = 2;
            cfg.video = Video::synth(4, 25, 400_000, 8.0);
            cfg.arrival_window = Duration::from_secs(3);
            cfg.deadline = Duration::from_secs(45);
            cfg.seed = stable_hash(&[seed, run, 0x666c74]);
            cfg
        })
        .collect()
}

/// Fleet runs per `fleet_short` pass.
pub const FLEET_RUNS: u64 = 4;

/// Sessions per fleet run.
pub const FLEET_SESSIONS_PER_RUN: u64 = 125;

/// Mobility trace length: longer than any session, so traces never wrap.
const MOBILITY_TRACE_MS: u64 = 60_000;

/// Passes over the ten mobility trace pairs per `mobility_video` pass.
pub const MOBILITY_REPS: u64 = 8;

/// Random loss on both mobility paths, on top of the traces' outages.
const MOBILITY_LOSS: f64 = 0.002;

/// `mobility_video`: each of the ten subway/HSR trace pairs, `reps`
/// times, played by an SP and an XLINK session with the program's
/// `short_video` defaults and a 20 s / 2 Mbps video. The seed draws the
/// loss pattern of every path and the session seeds.
fn mobility_sessions(seed: u64, scale: Scale) -> Vec<MobilitySession> {
    let pairs = {
        let _s = prof::span!("traces/mobility_trace_pairs");
        xlink_traces::mobility_trace_pairs(MOBILITY_TRACE_MS)
    };
    let (reps, n_pairs) = match scale {
        Scale::Full => (MOBILITY_REPS, pairs.len()),
        Scale::Tiny => (1, 1),
    };
    let video = Video::synth(20, 25, 2_000_000, 10.0);
    let mut sessions = Vec::new();
    for rep in 0..reps {
        for (i, (cellular, wifi)) in pairs.iter().take(n_pairs).enumerate() {
            let mut rng = Rng::new(stable_hash(&[seed, rep, i as u64, 0x6d0b]));
            let wifi = PathSpec::new(WirelessTech::Wifi, wifi.clone(), rng.next_u64())
                .with_loss(MOBILITY_LOSS);
            let cellular = PathSpec::new(WirelessTech::Lte, cellular.clone(), rng.next_u64())
                .with_loss(MOBILITY_LOSS);
            let session_seed = rng.next_u64();
            for scheme in [Scheme::Sp { path: 0 }, Scheme::Xlink] {
                let mut cfg = SessionConfig::short_video(scheme, session_seed);
                cfg.video = video.clone();
                sessions.push(MobilitySession {
                    arm_b: scheme == Scheme::Xlink,
                    cfg,
                    paths: [wifi.clone(), cellular.clone()],
                });
            }
        }
    }
    sessions
}

/// `pop_admission`: byte-verified 20 KB single-path downloads through
/// one PoP with Retry admission, plus an Initial flood of equal size, in
/// [`POP_RUNS`] runs of their own. Each run is a unit of work short
/// enough for the contention correction to track.
fn pop_configs(seed: u64, scale: Scale) -> Vec<PopRunConfig> {
    let (runs, users) = match scale {
        Scale::Full => (POP_RUNS, POP_USERS_PER_RUN),
        Scale::Tiny => (2, 20),
    };
    (0..runs)
        .map(|run| PopRunConfig {
            users,
            addrs: 16,
            shards: vec![1, 2, 3, 4],
            admission: true,
            request_bytes: 20_000,
            seed: stable_hash(&[seed, run, 0x706f70]),
            attack: Some((EdgeAttackKind::InitialFlood, users as u64)),
            ..PopRunConfig::default()
        })
        .collect()
}

/// PoP runs per `pop_admission` pass.
pub const POP_RUNS: u64 = 4;

/// Honest users per PoP run.
pub const POP_USERS_PER_RUN: usize = 250;

/// Honest users in the `pop_admission` warm-up run.
const POP_WARM_USERS: usize = 100;

fn build_paths(specs: &[PathSpec; 2]) -> Vec<xlink_netsim::Path> {
    specs.iter().map(PathSpec::build).collect()
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

/// Run the workload once over `input`, each unit of work timed by
/// `meter`; `traced` records spans.
pub fn pass(input: &Input, traced: bool, meter: &mut Meter) -> Pass {
    match input {
        Input::Fleet(runs) => fleet_pass(runs, traced, meter),
        Input::Mobility(sessions) => mobility_pass(sessions, traced, meter),
        Input::Pop(runs) => pop_pass(runs, traced, meter),
    }
}

/// Checks made after the timed region, untimed and untraced, against
/// `first`, the first pass's outputs: the first unit of work, run once
/// more, reproduces them (so a run of one pass still repeats work); and
/// for mobility, the program's own `run_session` reproduces the first
/// multipath session that the passes drove in the benchmark's world.
pub fn recheck(input: &Input, first: &Pass) -> Vec<(&'static str, bool)> {
    let meter = &mut Meter::new(false);
    let line = |pass: &Pass, i: usize| pass.fingerprint.lines().nth(i).map(str::to_string);
    let again = match input {
        Input::Fleet(runs) => fleet_pass(&runs[..1], false, meter),
        Input::Mobility(sessions) => mobility_pass(&sessions[..1], false, meter),
        Input::Pop(runs) => pop_pass(&runs[..1], false, meter),
    };
    let mut checks = vec![(
        "a repeated unit of work gives identical outputs",
        line(first, 0) == line(&again, 0),
    )];
    if let Input::Mobility(sessions) = input {
        let i = sessions.iter().position(|s| s.arm_b).unwrap_or(0);
        let s = &sessions[i];
        let program = run_session(&s.cfg, build_paths(&s.paths));
        checks.push((
            "sessions driven here match run_session",
            line(first, i) == Some(format!("{program:?}")),
        ));
    }
    checks
}

fn fleet_pass(runs: &[FleetConfig], traced: bool, meter: &mut Meter) -> Pass {
    let mut units = Vec::with_capacity(runs.len());
    let mut reports = Vec::with_capacity(runs.len());
    let mut profile: Option<ProfReport> = None;
    for cfg in runs {
        let ((report, inner), unit) = meter.time(|| {
            if traced {
                let (report, inner) = run_fleet_profiled(cfg);
                (report, Some(inner))
            } else {
                (run_fleet(cfg), None)
            }
        });
        if let Some(inner) = inner {
            let wall = WallDuration::from_secs_f64(unit.wall);
            let grafted = layers::graft("harness;run_fleet_profiled", wall, &inner);
            profile.get_or_insert_with(ProfReport::default).merge(&grafted);
        }
        units.push(unit);
        reports.push(report);
    }
    let (mut a, mut b) = (ArmAgg::default(), ArmAgg::default());
    let mut counters = ShardCounters::default();
    for r in &reports {
        a.merge(&r.arm_a);
        b.merge(&r.arm_b);
        counters.merge(&r.counters);
    }
    let (a, b) = (&a, &b);
    let cfg = &runs[0];
    let attempted: u64 = runs.iter().map(FleetConfig::sessions_total).sum();
    let completed = a.completed + b.completed;
    let per_session = cfg.video.chunks(cfg.chunk_bytes).len() as u64;
    let deadline_ms = cfg.deadline.as_secs_f64() * 1e3;
    let rct = |arm: &ArmAgg, p: f64| {
        hist_percentile_ms(&arm.rct, arm.sessions * per_session, p, deadline_ms)
    };
    let ff = |p: f64| hist_percentile_ms(&b.first_frame, b.sessions, p, deadline_ms);
    let (p95_a, p95_b) = (rct(a, 95.0), rct(b, 95.0));
    let rct_samples = b.sessions * per_session;
    let figures = vec![
        failed_frac(attempted, completed),
        fig("rct_p50_ms", "ms", rct(b, 50.0), rct_samples),
        fig("rct_p95_ms", "ms", p95_b, rct_samples),
        fig("rct_p95_gain_pct", "%", gain_pct(p95_a, p95_b), a.sessions * per_session),
        fig("first_frame_p50_ms", "ms", ff(50.0), b.sessions),
        fig("first_frame_p95_ms", "ms", ff(95.0), b.sessions),
        fig("rebuffer_rate", "ratio", b.rebuffer_rate(), b.sessions),
        fig("redundancy_ratio", "ratio", b.redundancy.mean(), b.sessions),
        fig("rct_missing", "count", missing(a, per_session) + missing(b, per_session), 0),
    ];
    let checks = vec![
        (
            "fleet arm sessions sum to the population",
            runs.iter()
                .zip(&reports)
                .all(|(c, r)| r.arm_a.sessions + r.arm_b.sessions == c.sessions_total()),
        ),
        (
            "no arm records more chunk requests than it issued",
            a.rct.count() <= a.sessions * per_session && b.rct.count() <= b.sessions * per_session,
        ),
        ("every fleet run simulated packets", reports.iter().all(|r| r.counters.packets > 0)),
    ];
    Pass {
        units,
        attempted,
        completed,
        packets: counters.packets,
        fingerprint: reports
            .iter()
            .map(|r| {
                format!(
                    "digest={:016x} events={} packets={} peak_live={} peak_concurrent={}\n",
                    r.digest(),
                    r.counters.events,
                    r.counters.packets,
                    r.counters.peak_live_sessions,
                    r.peak_concurrent
                )
            })
            .collect(),
        figures,
        checks,
        counters: vec![
            ("harness.fleet.events", counters.events as f64),
            ("harness.fleet.peak_live_sessions", counters.peak_live_sessions as f64),
        ],
        profile,
    }
}

fn missing(arm: &ArmAgg, per_session: u64) -> f64 {
    (arm.sessions * per_session).saturating_sub(arm.rct.count()) as f64
}

/// Percentile `p` of a histogram of seconds, in ms, over `expected`
/// samples: the ones the histogram lacks (requests that never completed,
/// sessions that never showed a frame) count as misses at `miss_ms`.
fn hist_percentile_ms(h: &LogHistogram, expected: u64, p: f64, miss_ms: f64) -> f64 {
    let n = h.count();
    if expected == 0 {
        return 0.0;
    }
    let rank = (p / 100.0 * (expected - 1) as f64).round();
    if rank >= n as f64 {
        return miss_ms;
    }
    // Same nearest-rank rule as `LogHistogram::percentile`, at the rank
    // the full population puts it.
    let p_within = if n > 1 { rank / (n - 1) as f64 * 100.0 } else { 0.0 };
    h.percentile(p_within) * 1e3
}

fn mobility_pass(sessions: &[MobilitySession], traced: bool, meter: &mut Meter) -> Pass {
    let mut results = Vec::with_capacity(sessions.len());
    let mut units = Vec::with_capacity(sessions.len());
    let (mut polls, mut empty_polls) = (0u64, 0u64);
    let mut packets = 0u64;
    let mut run_all = || {
        for s in sessions {
            let paths = build_paths(&s.paths);
            let (out, unit) = meter.time(|| session(&s.cfg, paths, traced));
            units.push(unit);
            results.push(out.result);
            packets += out.packets;
            polls += out.polls;
            empty_polls += out.empty_polls;
        }
    };
    let profile = if traced {
        Some(layers::record(run_all).1)
    } else {
        run_all();
        None
    };

    let arm = |b: bool| sessions.iter().zip(&results).filter(move |(s, _)| s.arm_b == b);
    let deadline_ms = sessions.first().map_or(0.0, |s| s.cfg.deadline.as_secs_f64() * 1e3);
    // Per-arm chunk request times with the requests that never
    // completed counted as misses at the deadline.
    let rcts = |b: bool| {
        let mut v: Vec<f64> = Vec::new();
        for (s, r) in arm(b) {
            let expected = s.cfg.video.chunks(s.cfg.chunk_bytes).len();
            v.extend(r.chunk_rct.iter().map(|d| d.as_secs_f64() * 1e3));
            v.extend(std::iter::repeat_n(deadline_ms, expected.saturating_sub(r.chunk_rct.len())));
        }
        v.sort_by(f64::total_cmp);
        v
    };
    let (rct_a, rct_b) = (rcts(false), rcts(true));
    let mut ff: Vec<f64> = arm(true)
        .map(|(_, r)| r.first_frame_latency.map_or(deadline_ms, |d| d.as_secs_f64() * 1e3))
        .collect();
    ff.sort_by(f64::total_cmp);
    let (stall, play, redundancy, n_b) = arm(true).fold((0.0, 0.0, 0.0, 0u64), |acc, (_, r)| {
        (
            acc.0 + r.player.rebuffer_time.as_secs_f64(),
            acc.1 + r.player.play_time.as_secs_f64(),
            acc.2 + r.server_transport.redundancy_ratio(),
            acc.3 + 1,
        )
    });
    let attempted = sessions.len() as u64;
    let completed = results.iter().filter(|r| r.completed).count() as u64;
    let missing =
        rct_a.len() + rct_b.len() - results.iter().map(|r| r.chunk_rct.len()).sum::<usize>();
    let p95_b = percentile(&rct_b, 95.0);
    let figures = vec![
        failed_frac(attempted, completed),
        fig("rct_p50_ms", "ms", percentile(&rct_b, 50.0), rct_b.len() as u64),
        fig("rct_p95_ms", "ms", p95_b, rct_b.len() as u64),
        fig("rct_p95_gain_pct", "%", gain_pct(percentile(&rct_a, 95.0), p95_b), rct_a.len() as u64),
        fig("first_frame_p50_ms", "ms", percentile(&ff, 50.0), ff.len() as u64),
        fig("first_frame_p95_ms", "ms", percentile(&ff, 95.0), ff.len() as u64),
        fig("rebuffer_rate", "ratio", ratio(stall, play), n_b),
        fig("redundancy_ratio", "ratio", ratio(redundancy, n_b as f64), n_b),
        fig("rct_missing", "count", missing as f64, 0),
    ];
    let checks = vec![
        ("every mobility session ran", results.len() == sessions.len()),
        (
            "no session records more chunk requests than the video has",
            sessions
                .iter()
                .zip(&results)
                .all(|(s, r)| r.chunk_rct.len() <= s.cfg.video.chunks(s.cfg.chunk_bytes).len()),
        ),
        (
            "single-path sessions re-inject nothing",
            arm(false).all(|(_, r)| r.server_transport.reinjected_bytes == 0),
        ),
    ];
    let mut counters = Vec::new();
    if traced {
        counters.push((
            "harness.server_poll_transmit_empty_frac",
            ratio(empty_polls as f64, polls as f64),
        ));
    }
    Pass {
        units,
        attempted,
        completed,
        packets,
        // Debug output prints every field, floats to round-trip
        // precision: equal strings mean bit-identical results.
        fingerprint: results.iter().map(|r| format!("{r:?}\n")).collect(),
        figures,
        checks,
        counters,
        profile,
    }
}

/// One session in a world built here from the program's endpoints, so
/// its packet count can be read; `traced` wraps both endpoints in
/// [`Timed`]. The result is assembled exactly as `run_session` does it.
fn session(cfg: &SessionConfig, paths: Vec<xlink_netsim::Path>, traced: bool) -> SessionOutput {
    let client = client_endpoint_for_probe(cfg, Instant::ZERO);
    let server = server_endpoint_for_probe(cfg, Instant::ZERO);
    let deadline = Instant::ZERO + cfg.deadline;
    if traced {
        let mut world =
            World::new(Timed::<_, false>::new(client), Timed::<_, true>::new(server), paths);
        let ended_at = {
            let _s = prof::span!("netsim/run_until");
            world.run_until(deadline)
        };
        SessionOutput {
            result: session_result(&mut world.client.inner, &world.server.inner, ended_at),
            packets: world.total_packets_enqueued(),
            polls: world.server.polls,
            empty_polls: world.server.empty_polls,
        }
    } else {
        let mut world = World::new(client, server, paths);
        let ended_at = world.run_until(deadline);
        SessionOutput {
            result: session_result(&mut world.client, &world.server, ended_at),
            packets: world.total_packets_enqueued(),
            polls: 0,
            empty_polls: 0,
        }
    }
}

struct SessionOutput {
    result: SessionResult,
    packets: u64,
    /// Server `poll_transmit` calls and how many returned nothing
    /// (traced sessions only).
    polls: u64,
    empty_polls: u64,
}

fn session_result(
    client: &mut VideoClientEndpoint,
    server: &VideoServerEndpoint,
    ended_at: Instant,
) -> SessionResult {
    let completed = client.video_finished();
    let player = client.finish(ended_at);
    SessionResult {
        chunk_rct: client.sorted_chunk_rct(),
        first_frame_latency: player
            .first_frame_at
            .map(|t| t.saturating_duration_since(Instant::ZERO)),
        player,
        client_transport: client.transport_stats(),
        server_transport: server.transport_stats(),
        server_bytes_per_path: server.bytes_per_path(),
        ended_at,
        completed,
    }
}

fn pop_pass(runs: &[PopRunConfig], traced: bool, meter: &mut Meter) -> Pass {
    let mut units = Vec::with_capacity(runs.len());
    let mut reports = Vec::with_capacity(runs.len());
    let mut profile: Option<ProfReport> = None;
    for cfg in runs {
        let ((report, run_profile), unit) = meter.time(|| {
            if traced {
                let (report, profile) = layers::record(|| {
                    let _s = prof::span!("harness/run_pop");
                    run_pop(cfg)
                });
                (report, Some(profile))
            } else {
                (run_pop(cfg), None)
            }
        });
        units.push(unit);
        reports.push(report);
        if let Some(p) = run_profile {
            profile.get_or_insert_with(ProfReport::default).merge(&p);
        }
    }
    let sum = |f: &dyn Fn(&PopReport) -> u64| reports.iter().map(f).sum::<u64>();
    let max = |f: &dyn Fn(&PopReport) -> u64| reports.iter().map(f).max().unwrap_or(0);
    let all = |f: &dyn Fn(&PopReport) -> bool| reports.iter().all(f);
    let attempted = sum(&|r| r.users as u64);
    let completed = sum(&|r| if r.bytes_ok { r.completed as u64 } else { 0 });
    let admitted = sum(&|r| r.stats.admitted);
    let initials = sum(&|r| r.stats.admitted + r.stats.retries_sent + r.stats.rejected_total());
    let datagrams_in = sum(&|r| r.stats.datagrams_in);
    Pass {
        units,
        attempted,
        completed,
        packets: datagrams_in,
        fingerprint: reports.iter().map(|r| format!("{r:?}\n")).collect(),
        figures: vec![failed_frac(attempted, completed)],
        checks: vec![
            ("completed downloads are byte-verified", all(&|r| r.bytes_ok)),
            ("the PoP kept its 3x anti-amplification budget", all(&|r| r.amp_ok)),
            ("the PoP's state stayed within its caps", all(&|r| r.bounded.within_caps())),
            ("admitted equals the honest users", all(&|r| r.stats.admitted == r.users as u64)),
        ],
        counters: vec![
            ("edge.datagrams_in", datagrams_in as f64),
            ("edge.retries_sent", sum(&|r| r.stats.retries_sent) as f64),
            ("edge.admit_yield", ratio(admitted as f64, initials as f64)),
            ("edge.peak_conns", max(&|r| r.bounded.peak_conns as u64) as f64),
            ("edge.peak_pending_retries", max(&|r| r.bounded.peak_pending_retries as u64) as f64),
        ],
        profile,
    }
}

// ---------------------------------------------------------------------------
// Figures
// ---------------------------------------------------------------------------

fn fig(name: &'static str, unit: &'static str, value: f64, samples: u64) -> Figure {
    Figure { name, unit, value, samples }
}

fn failed_frac(attempted: u64, completed: u64) -> Figure {
    let failed = attempted.saturating_sub(completed);
    fig("failed_frac", "ratio", ratio(failed as f64, attempted as f64), attempted)
}

/// Relative p95 reduction of arm B over arm A, in percent.
fn gain_pct(a: f64, b: f64) -> f64 {
    ratio((a - b) * 100.0, a)
}

/// Nearest-rank percentile of sorted samples (the program's rule).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}
