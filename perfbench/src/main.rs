//! Serving benchmark for Cordial.
//!
//! `perfbench --workload <onboard|steady|journaled> --seed N --seconds S
//! --trace <0|1> --cli <cordial-cli> --work-dir <dir>` generates the
//! workload's event stream from the seed, replays it in-process through
//! every layer (the correctness reference, and with `--trace 1` the
//! per-layer costs), then runs `cordial-cli serve` rounds against it for
//! about `S` seconds. Each round spawns a fresh daemon, drives it closed
//! loop over one client connection, checks its plans and statistics
//! against the reference, and shuts it down. The last stdout line is the
//! result: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md`.

mod daemon;
mod layers;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use cordial_served::ServedStats;
use serde_json::Value;

use crate::daemon::{copy_store, send, Daemon, DaemonSpec, Ops, Sent};
use crate::layers::Replay;
use crate::trace::{percentile, quartiles, Tracer};
use crate::workload::{Stream, Workload, BATCH_SIZE, JOURNAL_FSYNC};

/// Rounds every run makes, however short `--seconds` is, so `setup_s`
/// and `events_per_s` are medians.
const MIN_ROUNDS: usize = 3;

/// Batches every run acks in its timed windows, however short `--seconds`
/// is, so `ack_p99_ms` has at least ten samples beyond it.
const MIN_ACKED_BATCHES: usize = 1000;

/// No round starts after this many seconds of the run, keeping one run
/// well inside three minutes.
const HARD_STOP_S: f64 = 120.0;

/// The end-to-end metrics on the result line, as `BENCHMARK.json` lists
/// them. The record also carries `events_per_s`, `ack_p99_ms` and
/// `setup_wall_s`, which follow the host's speed on a shared VM (see
/// `perfbench/README.md`).
const RESULT_END_TO_END: [&str; 6] = [
    "events_per_cpu_s",
    "ack_p50_ms",
    "rss_per_device_kb",
    "setup_s",
    "uer_absorbed_share",
    "completed_share",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    cli: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag `{}` has no value", pair[0]));
        };
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, found `{flag}`"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let number = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("--{name} must be a whole number"))
    };
    Ok(Args {
        workload: Workload::parse(get("workload")?)
            .ok_or("--workload must be onboard, steady or journaled")?,
        seed: number("seed")?,
        seconds: number("seconds")? as f64,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        cli: PathBuf::from(get("cli")?),
        work_dir: PathBuf::from(get("work-dir")?),
    })
}

/// One daemon round's measurements.
#[derive(Debug, Default)]
struct Round {
    setup_s: f64,
    setup_wall_s: f64,
    events_per_s: f64,
    events_per_cpu_s: f64,
    drain_s: f64,
    rss_per_device_kb: f64,
    timed: Sent,
    stats: ServedStats,
    correct: bool,
}

/// Everything one round needs besides the daemon.
struct Plan<'a> {
    spec: DaemonSpec,
    stream: &'a Stream,
    workload: Workload,
    reference: &'a Replay,
    /// A pristine journal to restart from (`journaled`), and the events
    /// it holds, all acked by the daemon that wrote it.
    journal: Option<(&'a Path, u64)>,
}

/// Spawns a daemon, sends the round's stream and checks the outcome.
fn run_round(plan: &Plan<'_>, retry_seed: u64, ops: &mut Ops) -> Round {
    let w = plan.workload;
    let mut round = Round::default();
    let pre_acked = match plan.journal {
        Some((pristine, events)) => {
            let Some((dir, _)) = &plan.spec.journal else {
                return round;
            };
            if copy_store(pristine, dir).is_err() {
                ops.attempted += 1;
                ops.fail("journal copy", 1);
                return round;
            }
            events
        }
        None => 0,
    };
    let Ok(mut daemon) = Daemon::spawn(&plan.spec, retry_seed, ops) else {
        return round;
    };
    round.setup_s = daemon.setup_s;
    round.setup_wall_s = daemon.setup_wall_s;
    // Lead passes build the fixed device set's monitors before timing
    // (`steady`); a restarted `journaled` daemon has them from its boot
    // replay, and `onboard` has none.
    let (lead, timed) = match w {
        Workload::Steady => (
            plan.stream.passes(0, w.lead_passes()),
            plan.stream.passes(w.lead_passes(), plan.stream.passes),
        ),
        Workload::Journaled => (
            &[][..],
            plan.stream.passes(w.lead_passes(), plan.stream.passes),
        ),
        Workload::Onboard => (&[][..], &plan.stream.events[..]),
    };
    let mut lead_sent = Sent::default();
    send(&mut daemon.client, lead, ops, &mut lead_sent);
    let before = pre_acked + lead_sent.acked_events;
    let ready = !lead_sent.broken && daemon.await_ingested(before, ops).is_some();
    if !ready {
        daemon.kill();
        return round;
    }
    let started = Instant::now();
    let cpu_before = daemon.cpu_ns();
    send(&mut daemon.client, timed, ops, &mut round.timed);
    let last_ack = Instant::now();
    let acked = before + round.timed.acked_events;
    let drained = if round.timed.broken {
        None
    } else {
        daemon.await_ingested(acked, ops)
    };
    let Some((stats, ingested)) = drained else {
        daemon.kill();
        return round;
    };
    let cpu_s = daemon.cpu_ns().saturating_sub(cpu_before) as f64 / 1e9;
    let window = ingested.duration_since(started).as_secs_f64();
    let ingested_events = (stats.events as u64).saturating_sub(before) as f64;
    round.events_per_s = ingested_events / window;
    round.events_per_cpu_s = ingested_events / cpu_s;
    round.drain_s = ingested.duration_since(last_ack).as_secs_f64();
    let growth_kb = daemon
        .status_kb("VmHWM")
        .saturating_sub(daemon.rss_at_ping_kb);
    round.rss_per_device_kb = growth_kb as f64 / stats.devices.max(1) as f64;
    round.stats = stats;
    let plans = daemon.plans(ops);
    let exited_cleanly = daemon.shutdown(ops);
    round.correct = exited_cleanly
        && stats.events as u64 == acked
        && stats == plan.reference.stats
        && plans.as_ref() == Some(&plan.reference.plans);
    round
}

/// Journals the lead passes through a daemon that is then SIGKILLed,
/// leaving a crash-recovered journal for every round to restart from.
/// Returns the events that daemon acked.
fn prepare_journal(plan: &Plan<'_>, retry_seed: u64, ops: &mut Ops) -> Option<u64> {
    let w = plan.workload;
    let mut daemon = Daemon::spawn(&plan.spec, retry_seed, ops).ok()?;
    let mut sent = Sent::default();
    let lead = plan.stream.passes(0, w.lead_passes());
    send(&mut daemon.client, lead, ops, &mut sent);
    daemon.kill();
    (!sent.broken).then_some(sent.acked_events)
}

/// A JSON object from key/value pairs.
fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A JSON number (`null` when not finite).
fn num(value: f64) -> Value {
    if value.is_finite() {
        Value::F64(value)
    } else {
        Value::Null
    }
}

/// A JSON string.
fn text(value: impl Into<String>) -> Value {
    Value::Str(value.into())
}

/// The CPU model and hardware thread count.
fn host() -> (String, usize) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    (cpu, nproc)
}

/// The checkout's git revision, when it is a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// One reported metric: its value plus the spread of the samples behind
/// it.
struct Metric {
    value: f64,
    unit: &'static str,
    better: &'static str,
    samples: Vec<f64>,
}

impl Metric {
    /// A metric whose value is the median of per-round samples.
    fn median_of(samples: Vec<f64>, unit: &'static str, better: &'static str) -> Metric {
        Metric {
            value: quartiles(&samples).1,
            unit,
            better,
            samples,
        }
    }

    /// A metric measured once.
    fn single(value: f64, unit: &'static str, better: &'static str) -> Metric {
        Metric {
            value,
            unit,
            better,
            samples: vec![value],
        }
    }

    fn record(&self) -> Value {
        let (q1, q2, q3) = quartiles(&self.samples);
        obj([
            ("value", num(self.value)),
            ("unit", text(self.unit)),
            ("better", text(self.better)),
            ("samples", Value::U64(self.samples.len() as u64)),
            ("median", num(q2)),
            ("q1", num(q1)),
            ("q3", num(q3)),
        ])
    }
}

/// The end-to-end metrics over a run's rounds.
fn end_to_end(rounds: &[Round], ops: &Ops) -> BTreeMap<&'static str, Metric> {
    let per_round = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let acks: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.timed.ack_ms.iter().copied())
        .collect();
    let mut metrics = BTreeMap::new();
    metrics.insert(
        "events_per_s",
        Metric::median_of(per_round(|r| r.events_per_s), "1/s", "higher"),
    );
    metrics.insert(
        "events_per_cpu_s",
        Metric::median_of(per_round(|r| r.events_per_cpu_s), "1/s", "higher"),
    );
    for (name, p) in [("ack_p50_ms", 50.0), ("ack_p99_ms", 99.0)] {
        metrics.insert(
            name,
            Metric {
                value: percentile(&acks, p),
                unit: "ms",
                better: "lower",
                samples: acks.clone(),
            },
        );
    }
    metrics.insert(
        "rss_per_device_kb",
        Metric::median_of(per_round(|r| r.rss_per_device_kb), "kB", "lower"),
    );
    metrics.insert(
        "setup_s",
        Metric::median_of(per_round(|r| r.setup_s), "s", "lower"),
    );
    metrics.insert(
        "setup_wall_s",
        Metric::median_of(per_round(|r| r.setup_wall_s), "s", "lower"),
    );
    metrics.insert(
        "uer_absorbed_share",
        Metric::median_of(
            per_round(|r| {
                let s = r.stats;
                s.uers_absorbed as f64 / (s.uers_absorbed + s.uers_missed).max(1) as f64
            }),
            "share",
            "higher",
        ),
    );
    metrics.insert(
        "completed_share",
        Metric::single(
            1.0 - ops.failed as f64 / ops.attempted.max(1) as f64,
            "share",
            "higher",
        ),
    );
    metrics
}

/// The per-layer metrics of a traced run.
fn per_layer(
    tracer: &Tracer,
    reference: &Replay,
    events: usize,
    rounds: &[Round],
    model_bytes: usize,
) -> BTreeMap<&'static str, Metric> {
    let events = events.max(1) as f64;
    let plans = reference.plans.len().max(1) as f64;
    let monitors = reference.monitors.max(1) as f64;
    let totals = tracer.totals();
    let ns = |name: &str| totals.get(name).map_or(0.0, |t| t.1 as f64);
    let offers: u64 = rounds.iter().map(|r| r.timed.offers).sum();
    let retries: u64 = rounds.iter().map(|r| r.timed.retries).sum();
    let (from, to) = reference.data_path_ns;
    let mut metrics = BTreeMap::new();
    let mut put = |name, value, unit, better| {
        metrics.insert(name, Metric::single(value, unit, better));
    };
    put(
        "codec.encode_ns_per_event",
        ns("codec.encode") / events,
        "ns",
        "lower",
    );
    put(
        "codec.decode_ns_per_event",
        ns("codec.decode") / events,
        "ns",
        "lower",
    );
    put(
        "codec.bytes_per_event",
        reference.wire_bytes as f64 / events,
        "B",
        "lower",
    );
    put(
        "served.retry_share",
        retries as f64 / offers.max(1) as f64,
        "share",
        "lower",
    );
    put(
        "store.append_ns_per_event",
        ns("store.append") / events,
        "ns",
        "lower",
    );
    put(
        "store.bytes_per_event",
        reference.journal_bytes as f64 / events,
        "B",
        "lower",
    );
    put("store.open_s", ns("store.open") / 1e9, "s", "lower");
    put(
        "store.replay_ns_per_event",
        ns("store.replay") / events,
        "ns",
        "lower",
    );
    put(
        "monitor.new_us_per_device",
        ns("monitor.new") / 1e3 / monitors,
        "us",
        "lower",
    );
    put(
        "monitor.bytes_per_device",
        reference.rss_growth_bytes as f64 / monitors,
        "B",
        "lower",
    );
    put(
        "monitor.ingest_ns_per_event",
        ns("monitor.ingest") / events,
        "ns",
        "lower",
    );
    put(
        "monitor.plans_per_kevent",
        plans * 1e3 / events,
        "count",
        "higher",
    );
    put(
        "monitor.rows_per_plan",
        reference.planned_rows as f64 / plans,
        "count",
        "lower",
    );
    put("pipeline.fit_s", ns("pipeline.fit") / 1e9, "s", "lower");
    put(
        "pipeline.plan_us_per_plan",
        ns("pipeline.plan_batch") / 1e3 / plans,
        "us",
        "lower",
    );
    put("pipeline.model_bytes", model_bytes as f64, "B", "lower");
    put(
        "traced.unattributed_share",
        tracer.unattributed_ns(from, to) as f64 / (to - from).max(1) as f64,
        "share",
        "lower",
    );
    metrics.insert(
        "served.drain_s",
        Metric::median_of(rounds.iter().map(|r| r.drain_s).collect(), "s", "lower"),
    );
    metrics
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let run_started = Instant::now();
    if !args.cli.is_file() {
        return Err(format!("no daemon binary at {}", args.cli.display()));
    }
    if daemon::proc_cpu_ns(std::process::id()) == 0 {
        return Err("cannot read a process's CPU clock on this system".into());
    }
    let w = args.workload;
    let (cpu, nproc) = host();
    let work = args
        .work_dir
        .join(format!("{}-{}-{}", w.name(), args.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;

    let base = workload::base_fleet();
    let stream = workload::generate(w, args.seed, w.passes(), &base);

    // In-process replay: the reference every daemon round must match, and
    // with tracing on, the per-layer costs.
    let mut tracer = Tracer::new(args.trace);
    let pipeline = layers::train_like_serve(&mut tracer)?;
    let inproc_journal = work.join("inproc-journal");
    let reference = layers::replay(
        &pipeline,
        &stream.events,
        BATCH_SIZE,
        args.trace
            .then_some((inproc_journal.as_path(), JOURNAL_FSYNC)),
        &mut tracer,
    )?;
    // Every pass must plan exactly as many banks as the base fleet does.
    let base_plans = layers::replay(&pipeline, &base, BATCH_SIZE, None, &mut Tracer::new(false))?
        .plans
        .len();
    let plans_at_base_rate = reference.plans.len() == base_plans * stream.passes;
    let model_bytes = serde_json::to_string(&pipeline)
        .map_err(|e| e.to_string())?
        .len();
    drop(pipeline);
    let _ = std::fs::remove_dir_all(&inproc_journal);

    // Daemon rounds.
    let mut ops = Ops::default();
    // One `RetryAfter` jitter seed per daemon connection.
    let retry_seed = |connection: u64| (args.seed << 16) | connection;
    let journaled = w == Workload::Journaled;
    let pristine = work.join("journal-pristine");
    let mut plan = Plan {
        spec: DaemonSpec {
            cli: args.cli.clone(),
            shards: nproc,
            journal: journaled.then(|| (pristine.clone(), JOURNAL_FSYNC)),
            dir: work.join("daemon"),
        },
        stream: &stream,
        workload: w,
        reference: &reference,
        journal: None,
    };
    let mut prepared = true;
    if journaled {
        match prepare_journal(&plan, retry_seed(0), &mut ops) {
            Some(acked) => plan.journal = Some((pristine.as_path(), acked)),
            None => prepared = false,
        }
        plan.spec.journal = Some((work.join("journal-round"), JOURNAL_FSYNC));
    }
    let mut rounds: Vec<Round> = Vec::new();
    let rounds_started = Instant::now();
    let mut last_round_s = 0.0;
    let acked_batches =
        |rounds: &[Round]| rounds.iter().map(|r| r.timed.ack_ms.len()).sum::<usize>();
    while prepared
        && (rounds.len() < MIN_ROUNDS
            || acked_batches(&rounds) < MIN_ACKED_BATCHES
            || rounds_started.elapsed().as_secs_f64() + last_round_s <= args.seconds)
        && run_started.elapsed().as_secs_f64() < HARD_STOP_S
    {
        let round_started = Instant::now();
        let round = run_round(&plan, retry_seed(rounds.len() as u64 + 1), &mut ops);
        last_round_s = round_started.elapsed().as_secs_f64();
        eprintln!(
            "round {}: {:.1}s, setup {:.3}s ({:.3}s wall), {:.0} events/s, {:.0} events/cpu-s, drain {:.3}s, {} retries/{} offers, correct {}",
            rounds.len() + 1,
            last_round_s,
            round.setup_s,
            round.setup_wall_s,
            round.events_per_s,
            round.events_per_cpu_s,
            round.drain_s,
            round.timed.retries,
            round.timed.offers,
            round.correct
        );
        let failed = !round.correct;
        rounds.push(round);
        if failed {
            // A daemon that failed a round is not measured further.
            break;
        }
    }
    let correct = prepared
        && plans_at_base_rate
        && reference.plans_agree
        && reference.journal_agrees
        && !rounds.is_empty()
        && rounds.iter().all(|r| r.correct);

    let e2e = end_to_end(&rounds, &ops);
    let layers = args.trace.then(|| {
        per_layer(
            &tracer,
            &reference,
            stream.events.len(),
            &rounds,
            model_bytes,
        )
    });
    let reported: Vec<(&str, &Metric)> = match &layers {
        Some(layers) => layers.iter().map(|(name, m)| (*name, m)).collect(),
        None => RESULT_END_TO_END
            .iter()
            .filter_map(|name| Some((*name, e2e.get(name)?)))
            .collect(),
    };

    // The full record, then the result line.
    let records = |metrics: &BTreeMap<&'static str, Metric>| {
        Value::Map(
            metrics
                .iter()
                .map(|(name, m)| ((*name).to_string(), m.record()))
                .collect(),
        )
    };
    let stages = Value::Map(
        tracer
            .totals()
            .into_iter()
            .map(|(name, (calls, total))| {
                let stage = obj([
                    ("calls", Value::U64(calls)),
                    ("total_s", num(total as f64 / 1e9)),
                ]);
                (name.to_string(), stage)
            })
            .collect(),
    );
    let record = obj([
        ("workload", text(w.name())),
        ("seed", Value::U64(args.seed)),
        ("trace", Value::Bool(args.trace)),
        ("cpu", text(cpu)),
        ("nproc", Value::U64(nproc as u64)),
        ("git_rev", text(git_rev())),
        ("shards", Value::U64(nproc as u64)),
        ("batch_size", Value::U64(BATCH_SIZE as u64)),
        (
            "fsync",
            text(if journaled {
                JOURNAL_FSYNC.to_string()
            } else {
                "off (no journal)".into()
            }),
        ),
        ("events_per_round", Value::U64(stream.events.len() as u64)),
        ("devices", Value::U64(reference.stats.devices as u64)),
        (
            "banks_planned",
            Value::U64(reference.stats.banks_planned as u64),
        ),
        (
            "base_plans_per_kevent",
            num(base_plans as f64 * 1e3 / base.len() as f64),
        ),
        ("rounds", Value::U64(rounds.len() as u64)),
        (
            "rounds_correct",
            Value::U64(rounds.iter().filter(|r| r.correct).count() as u64),
        ),
        (
            "offers",
            Value::U64(rounds.iter().map(|r| r.timed.offers).sum()),
        ),
        (
            "retries",
            Value::U64(rounds.iter().map(|r| r.timed.retries).sum()),
        ),
        ("attempted", Value::U64(ops.attempted)),
        ("failed", Value::U64(ops.failed)),
        (
            "failed_share",
            num(ops.failed as f64 / ops.attempted.max(1) as f64),
        ),
        (
            "failed_by",
            Value::Map(
                ops.failed_by
                    .iter()
                    .map(|(how, n)| ((*how).to_string(), Value::U64(*n)))
                    .collect(),
            ),
        ),
        ("end_to_end", records(&e2e)),
        ("per_layer", layers.as_ref().map_or(Value::Null, records)),
        ("stages", stages),
    ]);
    let line = |value: &Value| serde_json::to_string(value).unwrap_or_default();
    println!("{}", line(&obj([("record", record)])));
    let _ = std::fs::remove_dir_all(&work);
    let metrics = Value::Map(
        reported
            .into_iter()
            .map(|(name, m)| {
                let metric = obj([("value", num(m.value)), ("unit", text(m.unit))]);
                ((*name).to_string(), metric)
            })
            .collect(),
    );
    let result = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(ops.attempted.max(1))),
        ("failed", Value::U64(ops.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", line(&result));
    Ok(())
}
