//! `mfn-perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload query_hot|query_cold|refine|train --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives the public APIs in one process: an in-process `mfn_serve::Server`
//! (shipped defaults) over loopback `Client`s for the serving workloads,
//! and `make_batch` → `Trainer::step` for `train`. Every client is closed
//! loop: it waits for its reply before sending the next request. Replies
//! are checked bit-for-bit against the in-process model after the timed
//! window; a wrong, refused or failed reply counts in `failed`.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! window with tracing switched on in alternate slices, then the per-layer
//! replay (see `replay.rs`), checks that layer times add up to the
//! operations they make up, and writes every span to
//! `perfbench/out/trace-<workload>-<seed>.json`. The last stdout line is the
//! result JSON. See `perfbench/README.md` for what each metric should move.

mod gen;
mod replay;
mod report;
mod serving;
mod trace;
mod train;

use report::{median, peak_rss_mb, put, quantile, result_line, Metric};
use serving::{Record, Stack};
use std::path::{Path, PathBuf};
use std::time::Duration;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    QueryHot,
    QueryCold,
    Refine,
    Train,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "query_hot" => Workload::QueryHot,
            "query_cold" => Workload::QueryCold,
            "refine" => Workload::Refine,
            "train" => Workload::Train,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::QueryHot => "query_hot",
            Workload::QueryCold => "query_cold",
            Workload::Refine => "refine",
            Workload::Train => "train",
        }
    }

    /// The highest latency percentile with at least ten samples beyond it
    /// in a window.
    fn tail_quantile(self) -> f64 {
        match self {
            Workload::QueryHot | Workload::QueryCold => 0.99,
            Workload::Refine | Workload::Train => 0.90,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: mfn-perfbench --workload query_hot|query_cold|refine|train \
                     --seed N --seconds S --trace 0|1";

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("seconds {value} outside (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Set-ups per run; `setup_s` is the median of the CPU seconds they took.
/// On a shared two-vCPU VM, wall-clock set-up time spread by 17-74% between
/// runs, mostly `fsync` and wake-up latency.
const SETUP_REPS: usize = 25;
/// Pause between set-ups. The same VM has bursts, up to about 1.5 s long,
/// in which everything runs up to twice as slow on the CPU clock too;
/// spread over 3-4 s, most set-ups miss a burst and the median holds.
const SETUP_GAP: Duration = Duration::from_millis(100);
/// Untimed lead-in before the window (pools, caches, a full LRU).
const WARMUP_S: f64 = 0.5;

/// Runs `setup` `SETUP_REPS` times, keeping the last result; returns it
/// with the median CPU seconds.
fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        if rep > 0 {
            std::thread::sleep(SETUP_GAP);
        }
        let cpu = report::cpu_seconds();
        last = Some(setup()?);
        times.push(report::cpu_seconds() - cpu);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// What a timed window runs against.
enum Target<'a> {
    Serve(&'a Stack),
    Train(&'a mfn_core::Corpus, Box<mfn_core::Trainer>),
}

/// What one timed window produced, serving or training.
struct Outcome {
    records: Vec<Record>,
    /// The latency probe's requests (serving workloads only).
    probe: Vec<Record>,
    spans: Vec<trace::Span>,
    /// Process CPU seconds over the window (warm-up and probe included).
    cpu_s: f64,
    /// Failed, refused or wrong replies (non-finite losses for `train`).
    failed: u64,
    loss_final: Option<f32>,
}

fn window(w: Workload, target: Target<'_>, args: &Args, slices: bool) -> Result<Outcome, String> {
    let cpu0 = report::cpu_seconds();
    let (records, probe, spans, cpu_s, mismatches, loss_final) = match target {
        Target::Train(corpus, trainer) => {
            let (records, spans, loss) =
                train::train_loop(corpus, *trainer, args.seed, WARMUP_S, args.seconds, slices);
            let cpu_s = report::cpu_seconds() - cpu0;
            (records, Vec::new(), spans, cpu_s, 0, Some(loss))
        }
        Target::Serve(stack) => {
            let win = serving::closed_loop(stack, w, args.seed, WARMUP_S, args.seconds, slices)?;
            let cpu_s = report::cpu_seconds() - cpu0;
            let mismatches = serving::verify(stack, w, args.seed, &win.records)
                + serving::verify(stack, w, args.seed, &win.probe);
            (win.records, win.probe, win.spans, cpu_s, mismatches, None)
        }
    };
    let errors = records.iter().chain(&probe).filter(|r| !r.ok).count() as u64;
    Ok(Outcome { records, probe, spans, cpu_s, failed: mismatches + errors, loss_final })
}

/// `wall.latency_alone_ms`: wall-clock latency of an operation running
/// alone — the probe's requests, or a step of the (sequential) train loop.
/// The median of each request size, averaged over the sizes, so the figure
/// stays inside one size's cluster instead of sitting between two.
fn alone_latency_ms(o: &Outcome) -> f64 {
    let alone = if o.probe.is_empty() { &o.records } else { &o.probe };
    let mut sizes: Vec<u32> = alone.iter().map(|r| r.points).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let size_median = |n: u32| {
        let ms: Vec<f64> = alone
            .iter()
            .filter(|r| r.ok && r.start_s >= 0.0 && r.points == n)
            .map(|r| f64::from(r.latency_s) * 1e3)
            .collect();
        median(&ms)
    };
    sizes.iter().map(|&n| size_median(n)).sum::<f64>() / sizes.len().max(1) as f64
}

/// What one window measured, over the records `keep` selects.
struct Figures {
    /// The closed-loop clients' median and tail latency, and completed
    /// requests and query points per wall-clock second, over the timed
    /// window, the probe's phases included.
    p50_ms: f64,
    tail_ms: f64,
    req_per_s: f64,
    points_per_s: f64,
    /// Completed requests and query points, the probe's included, per
    /// CPU-second of this process (server, clients and trainer all run in
    /// it), over the whole window, warm-up included, as the CPU clock does.
    req_per_cpu_s: f64,
    points_per_cpu_s: f64,
}

fn figures(w: Workload, o: &Outcome, seconds: f64, keep: impl Fn(&Record) -> bool) -> Figures {
    let ok: Vec<&Record> = o.records.iter().filter(|r| r.ok && keep(r)).collect();
    let timed: Vec<&Record> =
        ok.iter().copied().filter(|r| r.start_s >= 0.0 && f64::from(r.start_s) < seconds).collect();
    let lat_ms: Vec<f64> = timed.iter().map(|r| f64::from(r.latency_s) * 1e3).collect();
    let points = |rs: &[&Record]| rs.iter().map(|r| f64::from(r.points)).sum::<f64>();
    let served: Vec<&Record> = ok.iter().copied().chain(o.probe.iter().filter(|r| r.ok)).collect();
    Figures {
        p50_ms: quantile(&lat_ms, 0.5),
        tail_ms: quantile(&lat_ms, w.tail_quantile()),
        req_per_s: timed.len() as f64 / seconds,
        points_per_s: points(&timed) / seconds,
        req_per_cpu_s: served.len() as f64 / o.cpu_s,
        points_per_cpu_s: points(&served) / o.cpu_s,
    }
}

fn untraced(args: &Args, dir: &Path) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let w = args.workload;
    let (outcome, setup_s) = if w == Workload::Train {
        let files = train::CorpusFiles::write(dir)?;
        let ((corpus, trainer), setup_s) =
            timed_setup(|| Ok((files.load()?, train::new_trainer())))?;
        (window(w, Target::Train(&corpus, Box::new(trainer)), args, false)?, setup_s)
    } else {
        let (stack, setup_s) = timed_setup(|| Stack::start(args.seed, w == Workload::Refine, dir))?;
        let outcome = window(w, Target::Serve(&stack), args, false)?;
        stack.server.shutdown();
        (outcome, setup_s)
    };
    if let Some(loss) = outcome.loss_final {
        eprintln!("[perfbench] train_loss_final {loss:?}");
    }
    let f = figures(w, &outcome, args.seconds, |_| true);
    let latency_ms = alone_latency_ms(&outcome);
    eprintln!(
        "[perfbench] {}: wall clock {:.1} req/s, {:.0} points/s, p50 {:.3} ms, p{:.0} {:.3} ms",
        w.name(),
        f.req_per_s,
        f.points_per_s,
        f.p50_ms,
        w.tail_quantile() * 100.0,
        f.tail_ms
    );
    eprintln!(
        "[perfbench] {}: latency alone {:.3} ms over {} operations",
        w.name(),
        latency_ms,
        if outcome.probe.is_empty() { outcome.records.len() } else { outcome.probe.len() }
    );
    let mut m = Vec::new();
    put(&mut m, "setup_s", setup_s, "s");
    put(&mut m, "req_per_cpu_s", f.req_per_cpu_s, "1/s");
    put(&mut m, "points_per_cpu_s", f.points_per_cpu_s, "1/s");
    put(&mut m, "peak_rss_mb", peak_rss_mb(), "MiB");
    let attempted = (outcome.records.len() + outcome.probe.len()) as u64;
    Ok((outcome.failed == 0 && attempted > 0, attempted, outcome.failed, m))
}

fn traced(args: &Args, dir: &Path) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let w = args.workload;
    let stack = Stack::start(args.seed, w == Workload::Refine, dir)?;
    // Built on every workload: the replay steps the trainer too.
    let corpus = train::CorpusFiles::write(dir)?.load()?;
    let pool_before = mfn_tensor::workspace::stats();
    let target = match w {
        Workload::Train => Target::Train(&corpus, Box::new(train::new_trainer())),
        _ => Target::Serve(&stack),
    };
    let outcome = window(w, target, args, true)?;
    let pool = mfn_tensor::workspace::stats();

    let all = figures(w, &outcome, args.seconds, |_| true);
    let on = figures(w, &outcome, args.seconds, |r| r.traced);
    let off = figures(w, &outcome, args.seconds, |r| !r.traced);
    // Traced minus untraced slices of one window: bounded by host noise
    // (20-40% between slices), so it goes to the trace file and stderr only.
    let slice_delta_pct = 100.0 * (on.p50_ms - off.p50_ms) / off.p50_ms;
    eprintln!("[perfbench] traced minus untraced slice p50: {slice_delta_pct:+.1}% (host noise)");

    let replay = replay::run(&stack, &corpus, args.seed, dir)?;
    stack.server.shutdown();
    // What recording spans costs, where it is paid: the spans this run
    // recorded times the measured cost of one span, as a share of the time
    // spent in the operations they cover.
    let roots = outcome.spans.iter().chain(&replay.tracer.spans).filter(|s| s.parent.is_none());
    let traced_us: f64 = roots.map(trace::Span::us).sum();
    let span_count = (outcome.spans.len() + replay.tracer.spans.len()) as f64;
    let overhead_pct = 100.0 * span_count * trace::span_cost_us() / traced_us;

    // Share of the window's requests answered from a cached latent: 1 on
    // `query_hot` and `refine`, 0 by design on `query_cold` (every patch is
    // new) and `train` (no requests). The reply's flag is also checked bit
    // for bit, so a wrong hit or miss fails the run.
    let ok = || outcome.records.iter().filter(|r| r.ok);
    let hits = ok().filter(|r| r.hit).count();
    let hit_rate = hits as f64 / ok().count().max(1) as f64;
    let pool_hits = (pool.hits - pool_before.hits) as f64;
    let pool_all = pool_hits + (pool.misses - pool_before.misses) as f64;

    let mut m = replay.metrics;
    put(&mut m, "cache.hit_rate", hit_rate, "ratio");
    put(
        &mut m,
        "workspace.hit_rate",
        if pool_all > 0.0 { pool_hits / pool_all } else { 0.0 },
        "ratio",
    );
    put(&mut m, "trace.overhead_pct", overhead_pct, "%");
    put(&mut m, "wall.latency_p50_ms", all.p50_ms, "ms");
    put(&mut m, "wall.req_per_s", all.req_per_s, "1/s");
    put(&mut m, "wall.points_per_s", all.points_per_s, "1/s");
    put(&mut m, "wall.latency_tail_ms", all.tail_ms, "ms");
    put(&mut m, "wall.latency_alone_ms", alone_latency_ms(&outcome), "ms");

    let mut sums_ok = true;
    let mut sums_json = Vec::new();
    for s in &replay.sums {
        let (layers_us, op_us) = s.totals();
        eprintln!(
            "[perfbench] stage sum {}: median layers/operation {:.3} (totals {layers_us:.0} / {op_us:.0} us)",
            s.name,
            s.ratio()
        );
        sums_ok &= s.ok();
        sums_json.push(format!(
            "\"{}\": {{\"median_ratio\": {:.4}, \"layers_us\": {layers_us:.1}, \"op_us\": {op_us:.1}}}",
            s.name,
            s.ratio()
        ));
    }
    if !sums_ok {
        eprintln!(
            "[perfbench] stage-sum check failed: layer times miss an operation by more than {:.0}%",
            replay::STAGE_SUM_TOLERANCE * 100.0
        );
    }
    let metrics_json = |ms: &[Metric]| {
        ms.iter().map(|x| format!("\"{}\": {:?}", x.name, x.value)).collect::<Vec<_>>().join(", ")
    };
    let slices_json = |f: &Figures| {
        format!("{{\"latency_p50_ms\": {:?}, \"latency_tail_ms\": {:?}}}", f.p50_ms, f.tail_ms)
    };
    let path = dir.join(format!("trace-{}-{}.json", w.name(), args.seed));
    let doc = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {},\n\
         \"untraced_slices\": {},\n\"traced_slices\": {},\n\
         \"slice_delta_pct\": {slice_delta_pct:?},\n\
         \"trace_overhead_pct\": {overhead_pct:?},\n\"stage_sums\": {{{}}},\n\
         \"per_layer\": {{{}}},\n\"window_spans\": {},\n\"replay_spans\": {}}}\n",
        w.name(),
        args.seed,
        args.seconds,
        slices_json(&off),
        slices_json(&on),
        sums_json.join(", "),
        metrics_json(&m),
        trace::to_json(&outcome.spans),
        trace::to_json(&replay.tracer.spans),
    );
    std::fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("[perfbench] spans written to {}", path.display());

    let attempted = outcome.records.len() as u64 + replay.attempted;
    let mut failed = outcome.failed + replay.failed;
    // The window's trainer and the replay's start from the same pinned init
    // and draw the same seeded batches: the loss must repeat bit-exactly.
    if let Some(loss) = outcome.loss_final {
        if loss.to_bits() != replay.loss_final.to_bits() {
            eprintln!("[perfbench] train_loss_final {loss:?} vs replay {:?}", replay.loss_final);
            failed += 1;
        }
    }
    Ok((failed == 0 && sums_ok && attempted > 0, attempted, failed, m))
}

fn main() {
    let args = parse().unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let dir = PathBuf::from("perfbench/out");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let run = if args.trace { traced(&args, &dir) } else { untraced(&args, &dir) };
    match run {
        Ok((correct, attempted, failed, metrics)) => {
            println!("{}", result_line(correct, attempted, failed, &metrics));
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
