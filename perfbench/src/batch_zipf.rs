//! `batch-zipf`: a stream of zipf-0.99 transfer blocks over 64 accounts
//! through the Block-STM executor with two workers under the controlled
//! scheduler, each block also run through `execute_sequential` as the
//! reference.
//!
//! The multi-version map and the batch scheduler do all the work; no
//! session engine runs. Every block starts from freshly opened accounts,
//! and its final balances must equal the benchmark's own rank-order
//! replay on a plain array, on both the parallel and the sequential heap.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rh_norec::batch::{execute_sequential, BatchConfig, BatchReport, BatchTxn, ParallelExecutor};
use rh_norec::cost::MODEL_HZ;
use sim_htm::sched::SchedConfig;
use sim_mem::{Heap, HeapConfig};
use tm_workloads::batch::{BatchWorkload, Transfer, TransferBatch, TransferBatchConfig};

use crate::report::{cpu_seconds, peak_rss_mb, Metrics, Outcome};
use crate::spans::{Span, Spans, ROOT};
use crate::stats::{self, median, mid_quantile, ratio, Tally};
use crate::RunArgs;

/// Accounts per table.
const ACCOUNTS: u64 = 64;
/// Opening balance of every account.
const INITIAL: u64 = 1_000;
/// Transfers per block.
const BLOCK_TXS: usize = 64;
/// Blocks in the stream.
const BLOCKS: usize = 1_000;
/// Zipf exponent of the account sampler.
const ZIPF_THETA: f64 = 0.99;
/// Executor workers.
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The generated stream, on two heaps: one the executor commits into,
/// one the sequential reference does.
struct Stream {
    parallel: Arc<Heap>,
    sequential: Arc<Heap>,
    blocks: Vec<Block>,
}

struct Block {
    on_parallel: TransferBatch,
    on_sequential: TransferBatch,
    txns: Vec<Box<dyn BatchTxn>>,
    reference_txns: Vec<Box<dyn BatchTxn>>,
    /// The benchmark's own rank-order replay: final balances.
    expected: Vec<u64>,
}

fn block_seed(seed: u64, block: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ block as u64
}

/// Rank-order replay of `transfers` on a plain array, with the transfer
/// semantics (every account open; the amount clamps to the source
/// balance).
fn model(transfers: &[Transfer]) -> Vec<u64> {
    let mut balances = vec![INITIAL; ACCOUNTS as usize];
    for t in transfers {
        let amount = t.amount.min(balances[t.from as usize]);
        balances[t.from as usize] -= amount;
        balances[t.to as usize] += amount;
    }
    balances
}

struct SetupTimes {
    heap_new_s: f64,
    gen_s: f64,
    total_s: f64,
}

fn setup(seed: u64) -> (Stream, SetupTimes) {
    let start = Instant::now();
    let words = (BLOCKS as u64 * ACCOUNTS * 2 * 2)
        .next_power_of_two()
        .max(1 << 16);
    let parallel = Arc::new(Heap::new(HeapConfig { words }));
    let sequential = Arc::new(Heap::new(HeapConfig { words }));
    let heap_new_s = start.elapsed().as_secs_f64();
    let generate = Instant::now();
    let blocks = (0..BLOCKS)
        .map(|b| {
            let config = TransferBatchConfig {
                accounts: ACCOUNTS,
                initial: INITIAL,
                transfers: BLOCK_TXS,
                zipf_theta: ZIPF_THETA,
                seed: block_seed(seed, b),
            };
            let on_parallel = TransferBatch::generate(&parallel, &config);
            let on_sequential = TransferBatch::generate(&sequential, &config);
            Block {
                txns: on_parallel.batch(),
                reference_txns: on_sequential.batch(),
                expected: model(on_parallel.transfers()),
                on_parallel,
                on_sequential,
            }
        })
        .collect();
    let gen_s = generate.elapsed().as_secs_f64();
    let times = SetupTimes {
        heap_new_s,
        gen_s,
        total_s: start.elapsed().as_secs_f64(),
    };
    (
        Stream {
            parallel,
            sequential,
            blocks,
        },
        times,
    )
}

/// Reopens every account of every block at its opening balance.
fn reset(stream: &Stream) {
    for block in &stream.blocks {
        for (heap, table) in [
            (&stream.parallel, block.on_parallel.table()),
            (&stream.sequential, block.on_sequential.table()),
        ] {
            for i in 0..ACCOUNTS {
                heap.store(table.balance(i), INITIAL);
            }
        }
    }
}

/// Compares a block's balances on both heaps with the model.
fn check_block(stream: &Stream, block: &Block) -> Result<(), String> {
    let total = ACCOUNTS * INITIAL;
    for (name, heap, table) in [
        ("parallel", &stream.parallel, block.on_parallel.table()),
        (
            "sequential",
            &stream.sequential,
            block.on_sequential.table(),
        ),
    ] {
        for (i, &want) in block.expected.iter().enumerate() {
            let got = heap.load(table.balance(i as u64));
            if got != want {
                return Err(format!(
                    "{name} account {i} holds {got}, the rank-order model {want}"
                ));
            }
        }
        if table.total(heap) != total {
            return Err(format!("{name} total {} is not {total}", table.total(heap)));
        }
    }
    Ok(())
}

fn sched_config(seed: u64, block: usize) -> SchedConfig {
    SchedConfig::from_seed(block_seed(seed, block) ^ 0x5c4e)
}

/// One pass over the stream.
struct Pass {
    reports: Vec<BatchReport>,
    sequential: Vec<BatchReport>,
    /// Scheduler steps and decisions per block.
    runs: Vec<(u64, usize)>,
    /// Host seconds inside `execute_controlled`, per block.
    host_s: Vec<f64>,
    errors: Vec<String>,
}

impl Pass {
    fn signature(&self) -> Vec<(u64, u64, u64, u64, u64, u32, u64)> {
        self.reports
            .iter()
            .zip(&self.runs)
            .map(|(r, run)| {
                (
                    r.makespan_cycles(),
                    r.total_cycles(),
                    r.executions(),
                    r.aborts(),
                    r.validations(),
                    r.max_incarnation(),
                    run.0,
                )
            })
            .collect()
    }
}

fn run_pass(
    stream: &Stream,
    exec: &ParallelExecutor,
    seed: u64,
    mut spans: Option<&mut Spans>,
) -> Pass {
    reset(stream);
    let mut pass = Pass {
        reports: Vec::new(),
        sequential: Vec::new(),
        runs: Vec::new(),
        host_s: Vec::new(),
        errors: Vec::new(),
    };
    for (b, block) in stream.blocks.iter().enumerate() {
        let t0 = Instant::now();
        let (report, run) = exec.execute_controlled(&block.txns, &sched_config(seed, b));
        let t1 = Instant::now();
        let reference = execute_sequential(&stream.sequential, &block.reference_txns);
        let t2 = Instant::now();
        if let Err(e) = check_block(stream, block) {
            pass.errors.push(format!("block {b}: {e}"));
        }
        let t3 = Instant::now();
        if let Some(spans) = spans.as_mut() {
            let span = |spans: &Spans, name, from, to, parent, cycles| Span {
                name,
                start_ns: spans.ns(from),
                end_ns: spans.ns(to),
                parent,
                request: b as u64,
                label: "",
                cycles,
            };
            let id = spans.push(span(spans, "batch.block", t0, t3, ROOT, 0));
            let s = span(
                spans,
                "execute_controlled",
                t0,
                t1,
                id,
                report.makespan_cycles(),
            );
            spans.push(s);
            let s = span(
                spans,
                "execute_sequential",
                t1,
                t2,
                id,
                reference.makespan_cycles(),
            );
            spans.push(s);
            let s = span(spans, "check", t2, t3, id, 0);
            spans.push(s);
        }
        pass.host_s.push((t1 - t0).as_secs_f64());
        pass.reports.push(report);
        pass.sequential.push(reference);
        pass.runs.push((run.steps, run.decisions.len()));
    }
    pass
}

/// Runs the workload; see the module docs.
pub fn run(args: RunArgs) -> Outcome {
    let mut setups = Vec::new();
    let mut heap_news = Vec::new();
    let mut gens = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let (stream, times) = setup(args.seed);
        setups.push(times.total_s);
        heap_news.push(times.heap_new_s);
        gens.push(times.gen_s);
        built = Some(stream);
    }
    let stream = built.expect("at least one set-up");
    let exec = ParallelExecutor::new(
        Arc::clone(&stream.parallel),
        BatchConfig::with_workers(WORKERS),
    )
    .expect("batch executor configuration is valid");

    let (untraced_len, traced_len) = if args.trace {
        (args.seconds / 2, args.seconds - args.seconds / 2)
    } else {
        (args.seconds, Duration::ZERO)
    };
    // Later passes keep only what the checks and the host rate need.
    let tx_per_pass = (BLOCKS * BLOCK_TXS) as f64;
    let cpu_start = cpu_seconds();
    let first = run_pass(&stream, &exec, args.seed, None);
    let signature = first.signature();
    let mut errors: Vec<String> = first.errors.clone();
    // Checks a later pass; returns its wall seconds inside the executor.
    let repeat = |pass: Pass, errors: &mut Vec<String>| {
        if pass.signature() != signature {
            errors.push("a pass over the same stream diverged from the first".into());
        }
        errors.extend(pass.errors.iter().cloned());
        pass.host_s.iter().sum::<f64>()
    };
    let mut passes = 1;
    let deadline = Instant::now() + untraced_len;
    while Instant::now() < deadline {
        repeat(run_pass(&stream, &exec, args.seed, None), &mut errors);
        passes += 1;
    }
    let host = ratio(passes as f64 * tx_per_pass, cpu_seconds() - cpu_start);
    let mut spans = Spans::new(Instant::now());
    let mut traced_passes = 0;
    let mut traced_exec_s = 0.0;
    let traced_cpu_start = cpu_seconds();
    let deadline = Instant::now() + traced_len;
    while args.trace && (traced_passes == 0 || Instant::now() < deadline) {
        traced_exec_s += repeat(
            run_pass(&stream, &exec, args.seed, Some(&mut spans)),
            &mut errors,
        );
        traced_passes += 1;
    }
    let traced_host = ratio(
        traced_passes as f64 * tx_per_pass,
        cpu_seconds() - traced_cpu_start,
    );
    let attempted = (passes + traced_passes) as u64 * tx_per_pass as u64;

    let mut makespans = Tally::new();
    for r in &first.reports {
        stats::record(&mut makespans, r.makespan_cycles());
    }
    let txs: u64 = first.reports.iter().map(BatchReport::txs).sum();
    let makespan: u64 = first.reports.iter().map(BatchReport::makespan_cycles).sum();
    let ns = |cycles: f64| cycles / MODEL_HZ * 1e9;

    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setups));
    metrics.set("peak_rss_mb", peak_rss_mb());
    metrics.set("host_tx_per_cpu_s", host);
    metrics.set(
        "modeled_tx_per_s",
        ratio(txs as f64, makespan as f64) * MODEL_HZ,
    );
    metrics.set("lat_p50_ns", ns(mid_quantile(&makespans, 0.50)));
    metrics.set("lat_p99_ns", ns(mid_quantile(&makespans, 0.99)));
    let seq: u64 = first
        .sequential
        .iter()
        .map(BatchReport::makespan_cycles)
        .sum();
    eprintln!(
        "batch-zipf: {} passes of {BLOCKS} blocks x {BLOCK_TXS} tx, {:.2} modeled ns/tx parallel, {:.2} sequential",
        passes,
        ns(ratio(makespan as f64, txs as f64)),
        ns(ratio(seq as f64, txs as f64))
    );

    if args.trace {
        let sum = |f: fn(&BatchReport) -> u64| first.reports.iter().map(f).sum::<u64>() as f64;
        let tx = txs as f64;
        metrics.set("mem.heap_new_s", median(&heap_news));
        metrics.set("batch.gen_s", median(&gens));
        metrics.set("batch.executions_per_tx", sum(BatchReport::executions) / tx);
        metrics.set("batch.aborts_per_tx", sum(BatchReport::aborts) / tx);
        metrics.set("batch.blocked_per_tx", sum(BatchReport::blocked) / tx);
        metrics.set(
            "batch.validations_per_tx",
            sum(BatchReport::validations) / tx,
        );
        let max_inc = first
            .reports
            .iter()
            .map(BatchReport::max_incarnation)
            .max()
            .unwrap_or(0);
        metrics.set("batch.max_incarnation", f64::from(max_inc));
        metrics.set(
            "batch.commit_share",
            sum(BatchReport::commit_cycles) / makespan as f64,
        );
        metrics.set(
            "batch.parallel_efficiency",
            sum(BatchReport::total_cycles) / (WORKERS as f64 * makespan as f64),
        );
        metrics.set("batch.speedup_vs_seq", ratio(seq as f64, makespan as f64));
        metrics.set("lat.samples", stats::count(&makespans) as f64);
        let steps: u64 = first.runs.iter().map(|r| r.0).sum();
        let decisions: usize = first.runs.iter().map(|r| r.1).sum();
        metrics.set("sched.steps", steps as f64);
        metrics.set("sched.decisions", decisions as f64);
        metrics.set("sched.steps_per_tx", ratio(steps as f64, tx));
        let traced_steps = steps * traced_passes as u64;
        metrics.set(
            "sched.host_ns_per_step",
            traced_exec_s * 1e9 / traced_steps.max(1) as f64,
        );
        let mut block_ns = Tally::new();
        for s in spans
            .spans()
            .iter()
            .filter(|s| s.name == "execute_controlled")
        {
            stats::record(&mut block_ns, s.end_ns - s.start_ns);
        }
        metrics.set(
            "batch.block_host_ms_p50",
            mid_quantile(&block_ns, 0.5) / 1e6,
        );
        metrics.set("trace.overhead_pct", (host - traced_host) / host * 100.0);
        crate::write_spans("batch-zipf", &spans);
    }
    for e in errors.iter().take(5) {
        eprintln!("batch-zipf: {e}");
    }
    Outcome {
        correct: errors.is_empty(),
        attempted,
        failed: 0,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_model_conserves_and_clamps() {
        let t = |from, to, amount| Transfer { from, to, amount };
        let balances = model(&[t(0, 1, 300), t(0, 2, 900), t(2, 0, 5)]);
        assert_eq!(&balances[..3], &[5, 1_300, 1_695]);
        assert_eq!(balances.iter().sum::<u64>(), ACCOUNTS * INITIAL);
    }

    #[test]
    fn a_corrupted_balance_is_rejected() {
        let (stream, _) = setup(9);
        let exec = ParallelExecutor::new(
            Arc::clone(&stream.parallel),
            BatchConfig::with_workers(WORKERS),
        )
        .expect("valid configuration");
        reset(&stream);
        let block = &stream.blocks[0];
        exec.execute_controlled(&block.txns, &sched_config(9, 0));
        execute_sequential(&stream.sequential, &block.reference_txns);
        check_block(&stream, block).expect("a correct block passes");
        let addr = block.on_parallel.table().balance(3);
        let value = stream.parallel.load(addr);
        stream.parallel.store(addr, value + 1);
        let err = check_block(&stream, block).expect_err("one corrupted balance must fail");
        assert!(err.contains("parallel account 3"), "{err}");
    }
}
