//! `rbtree-smt`: the paper's Figure 4 red-black tree (10,000 nodes, 40 %
//! mutations) on RH NOrec, driven by two free-running workers pinned to
//! the two SMT siblings of one simulated core.
//!
//! SMT halves each sibling's HTM capacity and adds sibling-eviction
//! aborts, so a share of transactions leaves the hardware fast path for
//! the prefix/postfix slow path. The controlled scheduler, the KV tier
//! and the batch executor stay idle.
//!
//! Worker `w` only mutates keys `k` with `k % 2 == w`. It keeps its own
//! model of which of its keys are present (seeded with the initial
//! population), checks every result of its own operations against it,
//! and at the end the tree's key set must equal the union of the models.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rh_norec::cost::MODEL_HZ;
use rh_norec::prelude::{Algorithm, TmConfig, TmRuntime, TxKind};
use rh_norec::{ThreadReport, TmThreadStats};
use sim_htm::{Htm, HtmConfig, HtmThreadStats, Topology};
use sim_mem::{Heap, HeapConfig};
use tm_workloads::structures::RbTree;

use crate::report::{cpu_seconds, peak_rss_mb, Metrics, Outcome};
use crate::spans::{Span, Spans, ROOT};
use crate::stats::{self, median, mid_quantile, ratio, Tally};
use crate::RunArgs;

/// Initial tree size (Figure 4).
const INITIAL_KEYS: u64 = 10_000;
/// Keys are drawn from twice the initial size, so 50/50 put/remove
/// mutations keep the tree near its initial size.
const KEY_RANGE: u64 = 2 * INITIAL_KEYS;
/// Share of operations that mutate (half puts, half removes), percent.
const MUTATION_PCT: u32 = 40;
/// Workers, one per SMT sibling.
const WORKERS: usize = 2;
/// Operations per worker per round; the timed phase runs whole rounds.
const OPS_PER_ROUND: u64 = 4_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rounds of the traced phase: a fixed count keeps the span file to a
/// few tens of MB.
const TRACED_ROUNDS: u64 = 12;
/// Simulated heap, in words.
const HEAP_WORDS: u64 = 1 << 22;

/// The simulated machine: one core with two SMT siblings, the paper's
/// cache geometry and a 1e-4 per-access interrupt rate.
fn machine() -> HtmConfig {
    HtmConfig {
        topology: Topology {
            cores: 1,
            smt_ways: 2,
        },
        spurious_abort_per_access: 1e-4,
        ..HtmConfig::default()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Get,
    Put,
    Remove,
}

/// A populated tree and the per-worker residue models.
struct World {
    heap: Arc<Heap>,
    rt: Arc<TmRuntime>,
    tree: RbTree,
}

/// `own[w][i]`: key `2 * i + w` is present — worker `w`'s model.
type Models = [Vec<bool>; WORKERS];

struct SetupTimes {
    heap_new_s: f64,
    populate_s: f64,
    total_s: f64,
}

fn setup(seed: u64) -> (World, Models, SetupTimes) {
    let start = Instant::now();
    let heap = Arc::new(Heap::new(HeapConfig { words: HEAP_WORDS }));
    let heap_new_s = start.elapsed().as_secs_f64();
    let htm = Htm::new(Arc::clone(&heap), machine());
    let config = TmConfig::builder(Algorithm::RhNorec)
        .interleave_accesses(2)
        .build()
        .expect("RH NOrec configuration is valid");
    let rt = TmRuntime::new(Arc::clone(&heap), htm, config).expect("runtime construction");
    let tree = RbTree::create(&heap);
    let mut own = [
        vec![false; (KEY_RANGE / 2) as usize],
        vec![false; (KEY_RANGE / 2) as usize],
    ];
    let populate = Instant::now();
    {
        let mut session = rt.open_session().expect("free worker slot");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut inserted = 0;
        while inserted < INITIAL_KEYS {
            let key = rng.gen_range(0..KEY_RANGE);
            if session
                .execute(TxKind::ReadWrite, |tx| tree.put(tx, key, key))
                .is_none()
            {
                own[(key % 2) as usize][(key / 2) as usize] = true;
                inserted += 1;
            }
        }
    }
    let populate_s = populate.elapsed().as_secs_f64();
    let times = SetupTimes {
        heap_new_s,
        populate_s,
        total_s: start.elapsed().as_secs_f64(),
    };
    (World { heap, rt, tree }, own, times)
}

/// What one worker did in one round.
struct WorkerRound {
    ops: u64,
    report: ThreadReport,
    /// Modeled cycles per operation, begin to commit, retries included.
    cycles: Tally,
    /// Results that disagreed with the worker's model.
    mismatches: u64,
    spans: Option<Spans>,
}

/// Span label: operation kind and the commit path the stats delta
/// across the call shows.
fn label(op: Op, before: &TmThreadStats, after: &TmThreadStats) -> &'static str {
    let path = if after.serial_commits > before.serial_commits {
        2
    } else if after.slow_path_commits > before.slow_path_commits {
        1
    } else {
        0
    };
    const LABELS: [[&str; 3]; 3] = [
        ["get/fast", "get/slow", "get/serial"],
        ["put/fast", "put/slow", "put/serial"],
        ["remove/fast", "remove/slow", "remove/serial"],
    ];
    LABELS[op as usize][path]
}

/// Worker `w`'s part of round `round`: a closed loop of
/// [`OPS_PER_ROUND`] operations on its own residue class.
fn worker_round(
    world: &World,
    own: &mut [bool],
    w: usize,
    seed: u64,
    round: u64,
    trace: Option<(Instant, u32)>,
) -> WorkerRound {
    let mut session = world.rt.open_session().expect("free worker slot");
    session.reset_stats();
    let mut rng =
        SmallRng::seed_from_u64(seed ^ (round << 8 | w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut spans = trace.map(|(epoch, _)| Spans::new(epoch));
    let mut cycles = Tally::new();
    let mut mismatches = 0;
    let tree = world.tree;
    for i in 0..OPS_PER_ROUND {
        let slot = rng.gen_range(0..KEY_RANGE / 2);
        let key = 2 * slot + w as u64;
        let op = if rng.gen_range(0..100) < MUTATION_PCT {
            if rng.gen_bool(0.5) {
                Op::Put
            } else {
                Op::Remove
            }
        } else {
            Op::Get
        };
        let started = spans.as_ref().map(|_| Instant::now());
        let before = session.stats();
        let result = match op {
            Op::Get => session.execute(TxKind::ReadOnly, |tx| tree.get(tx, key)),
            Op::Put => session.execute(TxKind::ReadWrite, |tx| tree.put(tx, key, key)),
            Op::Remove => session.execute(TxKind::ReadWrite, |tx| tree.remove(tx, key)),
        };
        let after = session.stats();
        let spent = after.cycles - before.cycles;
        stats::record(&mut cycles, spent);
        let present = &mut own[slot as usize];
        if result != present.then_some(key) {
            mismatches += 1;
        }
        match op {
            Op::Get => {}
            Op::Put => *present = true,
            Op::Remove => *present = false,
        }
        if let (Some(spans), Some(started), Some((_, parent))) = (spans.as_mut(), started, trace) {
            let end = Instant::now();
            spans.push(Span {
                name: "session.execute",
                start_ns: spans.ns(started),
                end_ns: spans.ns(end),
                parent,
                request: round << 32 | (w as u64) << 24 | i,
                label: label(op, &before, &after),
                cycles: spent,
            });
        }
    }
    WorkerRound {
        ops: OPS_PER_ROUND,
        report: session.report(),
        cycles,
        mismatches,
        spans,
    }
}

/// Totals over the rounds of one phase.
#[derive(Default)]
struct Phase {
    rounds: u64,
    ops: u64,
    /// Host CPU seconds the phase used.
    cpu_s: f64,
    modeled_rates: Vec<f64>,
    cycles: Tally,
    tm: TmThreadStats,
    htm: HtmThreadStats,
    mismatches: u64,
}

/// Runs whole rounds until `length` has passed (at least one) or
/// `max_rounds` have run, starting at round number `first_round`.
fn run_phase(
    world: &World,
    models: &mut Models,
    seed: u64,
    first_round: u64,
    (length, max_rounds): (Duration, u64),
    mut spans: Option<&mut Spans>,
) -> Phase {
    let mut phase = Phase::default();
    let cpu_start = cpu_seconds();
    let deadline = Instant::now() + length;
    loop {
        let round = first_round + phase.rounds;
        let started = Instant::now();
        let trace = spans.as_mut().map(|s| {
            let at = s.ns(started);
            let id = s.push(Span {
                name: "round",
                start_ns: at,
                end_ns: at,
                parent: ROOT,
                request: round,
                label: "",
                cycles: 0,
            });
            (s.epoch(), id)
        });
        let results: Vec<WorkerRound> = std::thread::scope(|scope| {
            let handles: Vec<_> = models
                .iter_mut()
                .enumerate()
                .map(|(w, own)| {
                    scope.spawn(move || worker_round(world, own, w, seed, round, trace))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        if let (Some(s), Some((_, id))) = (spans.as_mut(), trace) {
            s.close(id, Instant::now());
        }
        let mut ops = 0;
        let mut modeled = 0.0;
        for r in results {
            ops += r.ops;
            modeled += ratio(r.ops as f64, r.report.tm.cycles as f64) * MODEL_HZ;
            for (&c, &n) in &r.cycles {
                *phase.cycles.entry(c).or_insert(0) += n;
            }
            phase.tm = phase.tm.merge(&r.report.tm);
            phase.htm = phase.htm.merge(&r.report.htm);
            phase.mismatches += r.mismatches;
            if let (Some(s), Some(worker_spans)) = (spans.as_mut(), r.spans) {
                s.absorb(worker_spans);
            }
        }
        phase.rounds += 1;
        phase.ops += ops;
        phase.modeled_rates.push(modeled);
        if Instant::now() >= deadline || phase.rounds >= max_rounds {
            phase.cpu_s = cpu_seconds() - cpu_start;
            return phase;
        }
    }
}

/// Checks the final tree: red-black invariants, every value equal to its
/// key, and the key set equal to the union of the workers' models.
fn check_tree(world: &World, models: &Models) -> Result<(), String> {
    world.tree.check_invariants(&world.heap)?;
    let entries = world.tree.collect(&world.heap);
    if let Some((k, v)) = entries.iter().find(|(k, v)| k != v) {
        return Err(format!("key {k} carries value {v}"));
    }
    let keys: Vec<u64> = entries.iter().map(|&(k, _)| k).collect();
    let expected = model_keys(models);
    if keys != expected {
        let extra = keys.iter().find(|k| expected.binary_search(k).is_err());
        let missing = expected.iter().find(|k| keys.binary_search(k).is_err());
        return Err(format!(
            "tree holds {} keys, the residue model {} (first extra {extra:?}, first missing {missing:?})",
            keys.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// The models' key set, ascending.
fn model_keys(models: &Models) -> Vec<u64> {
    let mut keys: Vec<u64> = models
        .iter()
        .enumerate()
        .flat_map(|(w, own)| {
            own.iter()
                .enumerate()
                .filter(|(_, p)| **p)
                .map(move |(i, _)| 2 * i as u64 + w as u64)
        })
        .collect();
    keys.sort_unstable();
    keys
}

/// Runs the workload; see the module docs.
pub fn run(args: RunArgs) -> Outcome {
    let mut setups = Vec::new();
    let mut heap_news = Vec::new();
    let mut populates = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let (world, models, times) = setup(args.seed);
        setups.push(times.total_s);
        heap_news.push(times.heap_new_s);
        populates.push(times.populate_s);
        built = Some((world, models));
    }
    let (world, mut models) = built.expect("at least one set-up");
    let initial_keys = model_keys(&models).len() as u64;

    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setups));
    let (untraced_len, traced) = if args.trace {
        (args.seconds / 2, true)
    } else {
        (args.seconds, false)
    };
    let untraced = run_phase(
        &world,
        &mut models,
        args.seed,
        0,
        (untraced_len, u64::MAX),
        None,
    );
    let mut spans = Spans::new(Instant::now());
    let traced_phase = traced.then(|| {
        let length = (args.seconds - untraced_len, TRACED_ROUNDS);
        run_phase(
            &world,
            &mut models,
            args.seed,
            untraced.rounds,
            length,
            Some(&mut spans),
        )
    });

    let mut correct =
        untraced.mismatches == 0 && traced_phase.as_ref().is_none_or(|p| p.mismatches == 0);
    if let Err(e) = check_tree(&world, &models) {
        eprintln!("rbtree-smt: {e}");
        correct = false;
    }
    if initial_keys != INITIAL_KEYS {
        eprintln!("rbtree-smt: population holds {initial_keys} keys, expected {INITIAL_KEYS}");
        correct = false;
    }
    if untraced.mismatches > 0 {
        eprintln!(
            "rbtree-smt: {} own-key results disagreed with the model",
            untraced.mismatches
        );
    }
    let attempted = untraced.ops + traced_phase.as_ref().map_or(0, |p| p.ops);

    let host = ratio(untraced.ops as f64, untraced.cpu_s);
    let ns = |cycles: f64| cycles / MODEL_HZ * 1e9;
    metrics.set("peak_rss_mb", peak_rss_mb());
    metrics.set("host_tx_per_cpu_s", host);
    metrics.set("modeled_tx_per_s", median(&untraced.modeled_rates));
    metrics.set("lat_p50_ns", ns(mid_quantile(&untraced.cycles, 0.50)));
    metrics.set("lat_p99_ns", ns(mid_quantile(&untraced.cycles, 0.99)));
    eprintln!(
        "rbtree-smt: {} rounds, {} tx, {} latency samples",
        untraced.rounds,
        untraced.ops,
        stats::count(&untraced.cycles)
    );

    if let Some(phase) = traced_phase {
        layer_metrics(&mut metrics, &phase, &spans);
        metrics.set("mem.heap_new_s", median(&heap_news));
        metrics.set("rbtree.populate_s", median(&populates));
        metrics.set(
            "trace.overhead_pct",
            (host - ratio(phase.ops as f64, phase.cpu_s)) / host * 100.0,
        );
        crate::write_spans("rbtree-smt", &spans);
    }
    Outcome {
        correct,
        attempted,
        failed: 0,
        metrics,
    }
}

/// Per-layer metrics of the traced phase.
fn layer_metrics(metrics: &mut Metrics, phase: &Phase, spans: &Spans) {
    let tx = phase.ops as f64;
    let (tm, htm) = (&phase.tm, &phase.htm);
    metrics.set("htm.begins", ratio(htm.begins as f64, tx));
    metrics.set(
        "htm.commit_ratio",
        ratio(htm.commits as f64, htm.begins as f64),
    );
    metrics.set("htm.capacity_aborts", ratio(htm.capacity_aborts as f64, tx));
    metrics.set("htm.conflict_aborts", ratio(htm.conflict_aborts as f64, tx));
    let other = htm.total_aborts() - htm.capacity_aborts - htm.conflict_aborts;
    metrics.set("htm.other_aborts", ratio(other as f64, tx));
    metrics.set("tm.fast_commits", ratio(tm.fast_path_commits as f64, tx));
    metrics.set("tm.slow_commits", ratio(tm.slow_path_commits as f64, tx));
    metrics.set("tm.serial_commits", ratio(tm.serial_commits as f64, tx));
    metrics.set(
        "tm.slow_share",
        ratio(tm.slow_path_entries as f64, tm.commits as f64),
    );
    metrics.set("tm.prefix_success", tm.prefix_success_ratio());
    metrics.set("tm.postfix_success", tm.postfix_success_ratio());
    metrics.set("tm.restarts_per_slow", tm.restarts_per_slow_path());
    metrics.set(
        "tm.cycles_per_commit",
        ratio(tm.cycles as f64, tm.commits as f64),
    );
    metrics.set("lat.samples", stats::count(&phase.cycles) as f64);

    // Derived from the spans: host time by operation kind, modeled
    // cycles by commit path.
    let mut host_by_kind: [Tally; 3] = Default::default();
    let mut all_host = Tally::new();
    let (mut fast, mut slow) = (Tally::new(), Tally::new());
    for s in spans.spans().iter().filter(|s| s.name == "session.execute") {
        let host_ns = s.end_ns - s.start_ns;
        let (kind, path) = s.label.split_once('/').expect("kind/path label");
        let k = ["get", "put", "remove"]
            .iter()
            .position(|n| *n == kind)
            .expect("known kind");
        stats::record(&mut host_by_kind[k], host_ns);
        stats::record(&mut all_host, host_ns);
        match path {
            "fast" => stats::record(&mut fast, s.cycles),
            "slow" => stats::record(&mut slow, s.cycles),
            _ => {}
        }
    }
    metrics.set("rbtree.get_host_ns", mid_quantile(&host_by_kind[0], 0.5));
    metrics.set("rbtree.put_host_ns", mid_quantile(&host_by_kind[1], 0.5));
    metrics.set("rbtree.remove_host_ns", mid_quantile(&host_by_kind[2], 0.5));
    metrics.set("tm.execute_host_ns_p50", mid_quantile(&all_host, 0.5));
    metrics.set("tm.fast_tx_cycles_p50", mid_quantile(&fast, 0.5));
    metrics.set("tm.slow_tx_cycles_p50", mid_quantile(&slow, 0.5));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_run_passes_every_check() {
        let (world, mut models, _) = setup(3);
        assert_eq!(model_keys(&models).len() as u64, INITIAL_KEYS);
        let phase = run_phase(&world, &mut models, 3, 0, (Duration::ZERO, 1), None);
        assert_eq!(phase.rounds, 1);
        assert_eq!(phase.mismatches, 0);
        assert_eq!(stats::count(&phase.cycles), phase.ops);
        check_tree(&world, &models).expect("a correct run passes");
    }

    #[test]
    fn the_residue_model_rejects_a_missing_or_an_extra_key() {
        let (world, mut models, _) = setup(5);
        check_tree(&world, &models).expect("a fresh population passes");
        let slot = models[1].iter().position(|p| *p).expect("some odd key");
        models[1][slot] = false;
        let err = check_tree(&world, &models).expect_err("an extra tree key must fail");
        assert!(err.contains("first extra Some("), "{err}");
        models[1][slot] = true;
        let slot = models[0]
            .iter()
            .position(|p| !*p)
            .expect("some absent even key");
        models[0][slot] = true;
        let err = check_tree(&world, &models).expect_err("a missing tree key must fail");
        assert!(err.contains("first missing Some("), "{err}");
    }
}
