//! `kv-steal`: the service grid's bursty MMPP-2 zipfian trace (gets,
//! transfers and range scans over 96 keys) served by two RH NOrec session
//! workers under work stealing, replayed under the controlled scheduler.
//!
//! Controlled replay makes the run open loop in modeled time and every
//! modeled latency a pure function of the seed: each replay of the same
//! trace must reproduce the first one exactly, which the benchmark
//! checks. The store, the steal scheduler and the deterministic
//! scheduler do the work; transactions are short and fit in HTM.
//!
//! The end-to-end figures come from the trace's requests offered all at
//! once: the service then drains a full queue, its modeled throughput is
//! its capacity, and the sojourn quantiles are positions in the drain.
//! The same requests at the grid's 20 µs calm interarrival (bursts 1000x
//! denser) give the per-layer sojourn figures of the traced run; their
//! tail swings several-fold from seed to seed under stealing, too much
//! for an end-to-end bound.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use rh_kv::gen::{self, Mix, OpClass, TraceConfig};
use rh_kv::service::{run_service_controlled, SchedPolicy, ServiceConfig, ServiceReport};
use rh_norec::prelude::Algorithm;
use sim_htm::sched::SchedConfig;

use crate::report::{cpu_seconds, peak_rss_mb, Metrics, Outcome};
use crate::spans::{Span, Spans, ROOT};
use crate::stats::{median, ratio};
use crate::RunArgs;

/// Requests per trace.
const REQUESTS: usize = 8_000;
/// Keys `1..=KEYSPACE`.
const KEYSPACE: u64 = 96;
/// Zipf exponent of the key sampler.
const ZIPF_THETA: f64 = 0.99;
/// Calm-period mean interarrival of the bursty trace.
const BURSTY_INTERARRIVAL_NS: u64 = 20_000;
/// Mean interarrival that offers every request at once (bursts clamp
/// to 1 ns too): the whole trace arrives within a few microseconds.
const AT_ONCE_INTERARRIVAL_NS: u64 = 1;
/// Arrival-rate multiplier inside a burst.
const BURST_FACTOR: u64 = 1_000;
/// Mean requests per burst or calm period.
const BURST_LEN: u64 = 256;
/// Session workers.
const WORKERS: usize = 2;

fn trace_config(seed: u64, mean_interarrival_ns: u64) -> TraceConfig {
    TraceConfig {
        requests: REQUESTS,
        keyspace: KEYSPACE,
        zipf_theta: ZIPF_THETA,
        mix: Mix::service_bursty(),
        mean_interarrival_ns,
        burst_factor: BURST_FACTOR,
        burst_len: BURST_LEN,
        seed,
    }
}

fn service_config(trace: TraceConfig) -> ServiceConfig {
    ServiceConfig {
        sched: SchedPolicy::Steal { enabled: true },
        ..ServiceConfig::new(Algorithm::RhNorec, WORKERS, trace)
    }
}

/// The controlled scheduler's interleaving source for `seed`.
fn sched_config(seed: u64) -> SchedConfig {
    SchedConfig {
        step_cap: 50_000u64.saturating_mul(REQUESTS as u64).max(5_000_000),
        ..SchedConfig::from_seed(seed ^ 0x9d)
    }
}

/// One controlled replay and its host timings.
struct Replay {
    report: ServiceReport,
    /// Scheduler yield points passed and multi-way decisions taken (the
    /// decision log itself is dropped: it grows with the replay).
    steps: u64,
    decisions: usize,
    /// Call entry to `on_ready` (heap, store load, trace generation).
    ready_s: f64,
    /// `on_ready` to return (the replay itself).
    replay_s: f64,
}

impl Replay {
    /// Everything a replay of the same trace must reproduce exactly.
    fn signature(&self) -> String {
        let r = &self.report;
        format!(
            "{:?} {:?} {} {} {} {} {}",
            r.overall, r.classes, r.commits, r.aborts, r.stolen, self.steps, self.decisions
        )
    }
}

/// Replays `trace` once; with `spans`, records the run span, its set-up
/// child and one child per worker.
fn replay(trace: TraceConfig, sched_seed: u64, spans: Option<&mut Spans>) -> Replay {
    let config = service_config(trace);
    let sched = sched_config(sched_seed);
    let ready = Mutex::new(None);
    let traced = spans.is_some();
    let workers: Mutex<Vec<(usize, Instant, Option<Instant>)>> = Mutex::new(Vec::new());
    let on_ready = |_: &sim_mem::Heap, _: &rh_kv::KvStore| {
        *ready.lock().expect("ready stamp") = Some(Instant::now());
    };
    let on_start = |me: usize| {
        if traced {
            workers
                .lock()
                .expect("worker stamps")
                .push((me, Instant::now(), None));
        }
    };
    let on_done = |me: usize| {
        if traced {
            let mut w = workers.lock().expect("worker stamps");
            if let Some(entry) = w.iter_mut().find(|(id, _, end)| *id == me && end.is_none()) {
                entry.2 = Some(Instant::now());
            }
        }
    };
    let start = Instant::now();
    let (report, run) = run_service_controlled(&config, &sched, &on_ready, &on_start, &on_done);
    let end = Instant::now();
    let ready = ready
        .into_inner()
        .expect("ready stamp")
        .expect("on_ready runs before the workers");
    if let Some(spans) = spans {
        let run_id = spans.push(Span {
            name: "run_service_controlled",
            start_ns: spans.ns(start),
            end_ns: spans.ns(end),
            parent: ROOT,
            request: trace.mean_interarrival_ns,
            label: "",
            cycles: 0,
        });
        spans.push(Span {
            name: "kv.setup",
            start_ns: spans.ns(start),
            end_ns: spans.ns(ready),
            parent: run_id,
            request: trace.mean_interarrival_ns,
            label: "",
            cycles: 0,
        });
        for (me, from, to) in workers.into_inner().expect("worker stamps") {
            spans.push(Span {
                name: "kv.worker",
                start_ns: spans.ns(from),
                end_ns: spans.ns(to.unwrap_or(end)),
                parent: run_id,
                request: trace.mean_interarrival_ns,
                label: ["worker0", "worker1"][me.min(1)],
                cycles: 0,
            });
        }
    }
    Replay {
        report,
        steps: run.steps,
        decisions: run.decisions.len(),
        ready_s: (ready - start).as_secs_f64(),
        replay_s: (end - ready).as_secs_f64(),
    }
}

/// Requests per class in the benchmark's own copy of the trace.
fn class_counts(trace: &TraceConfig) -> Vec<(OpClass, u64)> {
    let requests = gen::generate(trace);
    OpClass::ALL
        .iter()
        .map(|&c| (c, requests.iter().filter(|r| r.class == c).count() as u64))
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// Checks one replay against the benchmark's own count of the trace.
fn check_replay(report: &ServiceReport, expected: &[(OpClass, u64)]) -> Result<(), String> {
    let requests: u64 = expected.iter().map(|&(_, n)| n).sum();
    if report.requests != requests || report.overall.count != requests {
        return Err(format!(
            "served {} ({} timed) of {requests} requests",
            report.requests, report.overall.count
        ));
    }
    let served: Vec<(OpClass, u64)> = report
        .classes
        .iter()
        .map(|c| (c.class, c.latency.count))
        .collect();
    if served != expected {
        return Err(format!(
            "per-class counts {served:?}, the trace holds {expected:?}"
        ));
    }
    if report.conserved != Some(true) {
        return Err(format!("balance conservation {:?}", report.conserved));
    }
    for l in std::iter::once(&report.overall).chain(report.classes.iter().map(|c| &c.latency)) {
        if !(l.p50_ns <= l.p99_ns && l.p99_ns <= l.max_ns) {
            return Err(format!("quantiles out of order: {l:?}"));
        }
    }
    Ok(())
}

/// Replays `trace` until `length` has passed (at least once), checking
/// every replay against the first; also returns the host CPU seconds the
/// replays used.
fn replay_for(
    trace: TraceConfig,
    seed: u64,
    length: Duration,
    mut spans: Option<&mut Spans>,
    errors: &mut Vec<String>,
) -> (Vec<Replay>, f64) {
    let cpu_start = cpu_seconds();
    let mut replays: Vec<Replay> = Vec::new();
    let deadline = Instant::now() + length;
    while replays.is_empty() || Instant::now() < deadline {
        let r = replay(trace, seed, spans.as_deref_mut());
        if let Some(first) = replays.first() {
            if r.signature() != first.signature() {
                errors.push(format!(
                    "replay diverged: {} vs {}",
                    r.signature(),
                    first.signature()
                ));
            }
        }
        replays.push(r);
    }
    (replays, cpu_seconds() - cpu_start)
}

/// Requests served per host CPU second, over replays that used `cpu_s`.
fn host_rate(replays: &[Replay], cpu_s: f64) -> f64 {
    ratio(
        replays.iter().map(|r| r.report.requests).sum::<u64>() as f64,
        cpu_s,
    )
}

/// Runs the workload; see the module docs.
pub fn run(args: RunArgs) -> Outcome {
    let at_once = trace_config(args.seed, AT_ONCE_INTERARRIVAL_NS);
    let expected = class_counts(&at_once);
    let mut errors: Vec<String> = Vec::new();

    let untraced_len = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let (replays, cpu_s) = replay_for(at_once, args.seed, untraced_len, None, &mut errors);
    let first = &replays[0];
    if let Err(e) = check_replay(&first.report, &expected) {
        errors.push(e);
    }
    let rep = &first.report;
    let host = host_rate(&replays, cpu_s);
    let mut metrics = Metrics::default();
    metrics.set(
        "setup_s",
        median(&replays.iter().map(|r| r.ready_s).collect::<Vec<_>>()),
    );
    metrics.set("host_tx_per_cpu_s", host);
    metrics.set(
        "modeled_tx_per_s",
        ratio(rep.requests as f64, rep.overall.max_ns as f64) * 1e9,
    );
    metrics.set("lat_p50_ns", rep.overall.p50_ns as f64);
    metrics.set("lat_p99_ns", rep.overall.p99_ns as f64);
    eprintln!(
        "kv-steal: {} replays of {REQUESTS} requests offered at once: drained in {} ns, p50 {} ns, p99 {} ns over {} samples",
        replays.len(),
        rep.overall.max_ns,
        rep.overall.p50_ns,
        rep.overall.p99_ns,
        rep.overall.count
    );
    let mut attempted: u64 = replays.iter().map(|r| r.report.requests).sum();

    if args.trace {
        let mut spans = Spans::new(Instant::now());
        let (traced, traced_cpu_s) = replay_for(
            at_once,
            args.seed,
            args.seconds - untraced_len,
            Some(&mut spans),
            &mut errors,
        );
        if traced[0].signature() != first.signature() {
            errors.push("the traced replay diverged from the untraced one".into());
        }
        let bursty_trace = trace_config(args.seed, BURSTY_INTERARRIVAL_NS);
        let bursty = replay(bursty_trace, args.seed, Some(&mut spans));
        if let Err(e) = check_replay(&bursty.report, &class_counts(&bursty_trace)) {
            errors.push(e);
        }
        attempted += traced.iter().map(|r| r.report.requests).sum::<u64>() + bursty.report.requests;
        layer_metrics(&mut metrics, &replays, &traced, &bursty);
        metrics.set(
            "trace.overhead_pct",
            (host - host_rate(&traced, traced_cpu_s)) / host * 100.0,
        );
        print_layer_times(&spans);
        crate::write_spans("kv-steal", &spans);
    }
    metrics.set("peak_rss_mb", peak_rss_mb());
    for e in &errors {
        eprintln!("kv-steal: {e}");
    }
    Outcome {
        correct: errors.is_empty(),
        attempted,
        failed: 0,
        metrics,
    }
}

/// Per-layer metrics: host timings and scheduler counts of the at-once
/// replays, per-class sojourns and steals of the bursty replay.
fn layer_metrics(metrics: &mut Metrics, replays: &[Replay], traced: &[Replay], bursty: &Replay) {
    let rep = &bursty.report;
    let class = |c: OpClass| rep.classes.iter().find(|s| s.class == c).map(|s| s.latency);
    for (c, p50, p99, count) in [
        (
            OpClass::Get,
            "kv.get_p50_ns",
            "kv.get_p99_ns",
            "kv.get_count",
        ),
        (
            OpClass::Transfer,
            "kv.transfer_p50_ns",
            "kv.transfer_p99_ns",
            "kv.transfer_count",
        ),
        (
            OpClass::Range,
            "kv.range_p50_ns",
            "kv.range_p99_ns",
            "kv.range_count",
        ),
    ] {
        let l = class(c);
        metrics.set(p50, l.map_or(0.0, |l| l.p50_ns as f64));
        metrics.set(p99, l.map_or(0.0, |l| l.p99_ns as f64));
        metrics.set(count, l.map_or(0.0, |l| l.count as f64));
    }
    metrics.set("kv.stolen", rep.stolen as f64);
    metrics.set(
        "kv.aborts_per_request",
        ratio(rep.aborts as f64, rep.requests as f64),
    );
    eprintln!(
        "kv-steal: bursty trace ({BURSTY_INTERARRIVAL_NS} ns calm interarrival): p50 {} ns p99 {} ns max {} ns, {} stolen",
        rep.overall.p50_ns, rep.overall.p99_ns, rep.overall.max_ns, rep.stolen
    );
    let first = &replays[0];
    metrics.set("lat.samples", first.report.overall.count as f64);
    metrics.set(
        "kv.ready_s",
        median(&replays.iter().map(|r| r.ready_s).collect::<Vec<_>>()),
    );
    metrics.set(
        "kv.replay_s",
        median(&replays.iter().map(|r| r.replay_s).collect::<Vec<_>>()),
    );
    metrics.set("sched.steps", first.steps as f64);
    metrics.set("sched.decisions", first.decisions as f64);
    metrics.set(
        "sched.steps_per_tx",
        ratio(first.steps as f64, first.report.requests as f64),
    );
    let per_step: Vec<f64> = traced
        .iter()
        .map(|r| r.replay_s * 1e9 / r.steps.max(1) as f64)
        .collect();
    metrics.set("sched.host_ns_per_step", median(&per_step));
}

/// Prints each span name's total and self time.
fn print_layer_times(spans: &Spans) {
    for (name, t) in spans.layer_times() {
        eprintln!(
            "kv-steal: span {name}: {} spans, {:.3} s total, {:.3} s self",
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> TraceConfig {
        TraceConfig {
            requests: 300,
            ..trace_config(seed, BURSTY_INTERARRIVAL_NS)
        }
    }

    fn replay_small(seed: u64) -> Replay {
        replay(small(seed), seed, None)
    }

    #[test]
    fn replays_repeat_exactly_and_pass_the_checks() {
        let (a, b) = (replay_small(11), replay_small(11));
        assert_eq!(a.signature(), b.signature());
        check_replay(&a.report, &class_counts(&small(11))).expect("a correct replay passes");
    }

    #[test]
    fn a_served_count_off_by_one_is_rejected() {
        let expected = class_counts(&small(5));
        let mut report = replay_small(5).report;
        check_replay(&report, &expected).expect("a correct replay passes");
        for delta in [-1i64, 1] {
            let mut r = report.clone();
            r.requests = r.requests.wrapping_add_signed(delta);
            assert!(
                check_replay(&r, &expected).is_err(),
                "served count off by {delta}"
            );
        }
        report.classes[0].latency.count += 1;
        assert!(
            check_replay(&report, &expected).is_err(),
            "a class count off by one"
        );
    }
}
