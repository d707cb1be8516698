//! `e2e`: the paper's Table 2 query shapes driven end to end through
//! `Table::session()` → `Snapshot::execute`, on a real `FileStore` and on a
//! `LatencyStore`, with every answer checked and a per-layer split from a
//! separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path e2e/Cargo.toml -- \
//!     --workload point_warm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! See `e2e/README.md` for the workloads and what each metric should move.

mod client;
mod oracle;
mod setup;
mod spans;
mod stats;
mod store;
mod workload;

use client::{by_rounds, reader, warm_all, writer, ClientOut, Ctx, KeepAwake, TraceCtl};
use oracle::{Oracle, Shape};
use payg_core::ScanOptions;
use payg_obs::{names, SpanKind};
use payg_resman::{MemoryStats, PoolLimits};
use payg_storage::PoolMetrics;
use payg_workload::TableProfile;
use setup::Built;
use spans::SpanAcc;
use stats::{median_f64, median_sorted, percentile, sorted, tail_percentile};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use store::StoreCounts;
use workload::{Args, Params};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// How long the shapes outside a workload's mix run before the window.
const PROBE_FOR: Duration = Duration::from_secs(3);
/// Distinct queries per probed shape (cycled for [`PROBE_FOR`]).
const PROBE_QUERIES: usize = 200;
/// Distinct queries in a workload's plan (cycled through the window).
const PLAN_QUERIES: usize = 4_096;
const MIB: f64 = 1024.0 * 1024.0;

/// Metrics in print order: (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Every layer's counters at one instant.
struct Counters {
    pool: PoolMetrics,
    mem: MemoryStats,
    store: StoreCounts,
    obs: payg_obs::ObsSnapshot,
    spans_dropped: u64,
}

impl Counters {
    fn take(b: &Built) -> Self {
        Counters {
            pool: b.table.pool().metrics(),
            mem: b.resman.stats(),
            store: b.store.counts(),
            obs: b.table.registry().snapshot(),
            spans_dropped: b.table.registry().tracer().spans_dropped(),
        }
    }
}

/// One set-up's timings.
struct SetupTimes {
    total_s: f64,
    merge_s: f64,
    /// Rows per second of each block of inserts.
    insert_rates: Vec<f64>,
}

/// Everything a run measured, for the metric tables.
struct Run<'a> {
    p: &'a Params,
    built: &'a Built,
    setups: Vec<SetupTimes>,
    /// The window's clients.
    out: ClientOut,
    /// Shapes outside the mix, run untraced before the window (traced runs
    /// only).
    probe: ClientOut,
    window_ns: u64,
    before: Counters,
    after: Counters,
}

impl Run<'_> {
    /// Median over set-ups of `f`.
    fn setup_median(&self, f: impl Fn(&SetupTimes) -> f64) -> f64 {
        median_f64(&self.setups.iter().map(f).collect::<Vec<_>>())
    }

    /// Insert rate in rows per second: the median block of the writer's
    /// inserts on `ingest_merge`, of all set-ups' inserts elsewhere.
    fn insert_rate(&self) -> f64 {
        let rates: Vec<f64> = if self.p.ingest_batch.is_some() {
            self.out
                .insert_ns
                .chunks(setup::INSERT_BLOCK as usize)
                .map(|b| b.len() as f64 * 1e9 / b.iter().sum::<u64>().max(1) as f64)
                .collect()
        } else {
            self.setups
                .iter()
                .flat_map(|s| s.insert_rates.iter().copied())
                .collect()
        };
        median_f64(&rates)
    }

    /// Median of one component of the window's resman samples.
    fn memory(&self, pick: impl Fn(&(u64, u64)) -> u64) -> f64 {
        median_f64(
            &self
                .out
                .memory
                .iter()
                .map(|m| pick(m) as f64)
                .collect::<Vec<_>>(),
        )
    }

    fn end_to_end(&self, lines: &mut String) -> Metrics {
        let out = &self.out;
        let all = out.latencies(|_| true);
        let (qps, p99) = by_rounds(&out.samples, self.window_ns);
        let m: Metrics = vec![
            ("setup_s", self.setup_median(|s| s.total_s), "s"),
            ("qps", qps, "1/s"),
            ("p50_us", us(median_sorted(&all)), "us"),
            ("p99_us", us(p99), "us"),
            (
                "ok_frac",
                1.0 - ratio(out.failed as f64, out.attempted as f64),
                "frac",
            ),
            ("footprint_mib", self.memory(|m| m.0) / MIB, "MiB"),
        ];

        if let Some(tail) = tail_percentile(all.len()) {
            let at = us(percentile(&all, tail) as f64);
            let beyond = stats::beyond(all.len(), tail);
            writeln!(
                lines,
                "tail: p{tail} = {at:.1} us over {} queries ({beyond} beyond it)",
                all.len()
            )
            .expect("write to string");
        }
        for shape in Shape::ALL {
            let v = out.latencies(|x| x.shape == shape);
            if let Some(max) = v.last() {
                let (p50, p99) = (us(median_sorted(&v)), us(percentile(&v, 99.0) as f64));
                let max = us(*max as f64);
                writeln!(
                    lines,
                    "{shape:?}: {} queries, p50 {p50:.1} us, p99 {p99:.1} us, max {max:.1} us",
                    v.len()
                )
                .expect("write to string");
            }
        }
        m
    }

    fn per_layer(&self, acc: &SpanAcc, lines: &mut String) -> Metrics {
        let (out, p, before, after) = (&self.out, self.p, &self.before, &self.after);
        let sd = after.store.delta(&before.store);
        let pd = after.pool.delta(&before.pool);
        let q = out.queries.max(1) as f64;
        let traced_q = out.samples.iter().filter(|s| s.traced).count().max(1) as f64;
        let c = |name: &str| (after.obs.counter(name) - before.obs.counter(name)) as f64;
        let pinned = c(names::SCAN_PAGES_PINNED);
        let guard_hits = c(names::SCAN_GUARD_CACHE_HITS);
        let pins = (pd.hits + pd.misses) as f64;
        let load_ns = after
            .obs
            .histogram(names::POOL_LOAD_NS)
            .delta(&before.obs.histogram(names::POOL_LOAD_NS));
        let evictions =
            |m: &MemoryStats| m.proactive_evictions + m.reactive_evictions + m.weighted_evictions;
        let evicted = (evictions(&after.mem) - evictions(&before.mem)) as f64;
        let evicted_bytes = (after.mem.evicted_bytes - before.mem.evicted_bytes) as f64;
        // Writes: the window's merges on ingest_merge; elsewhere the window
        // writes nothing, so the set-up's bulk merge of the measured table.
        let (wbytes, wns, user, merges) = if p.ingest_batch.is_some() {
            (
                sd.bytes_written,
                sd.write_ns,
                out.ingest_user_bytes,
                out.merge_ns.len(),
            )
        } else {
            (
                before.store.bytes_written,
                before.store.write_ns,
                self.built.user_bytes,
                1,
            )
        };
        let insert_ns = if p.ingest_batch.is_some() {
            median_sorted(&sorted(out.insert_ns.clone()))
        } else {
            1e9 / self.insert_rate()
        };
        let merge_ns = if p.ingest_batch.is_some() {
            median_sorted(&sorted(out.merge_ns.clone()))
        } else {
            self.setup_median(|s| s.merge_s) * 1e9
        };
        let reread = if sd.pages_read == 0 {
            0.0
        } else {
            1.0 - sd.distinct_pages as f64 / sd.pages_read as f64
        };
        let overhead = ratio(
            median_sorted(&out.latencies(|s| s.traced)),
            median_sorted(&out.latencies(|s| !s.traced)),
        ) - 1.0;
        let counts: Vec<String> = spans::KINDS
            .iter()
            .map(|&k| format!("{} {}", k.name(), acc.count(k)))
            .collect();
        writeln!(lines, "spans settled: {}", counts.join(", ")).expect("write to string");
        let self_per_q = |k: SpanKind| acc.self_ns(k) as f64 / traced_q;
        let shapes = Shape::ALL.map(|s| {
            let from = if p.mix.iter().any(|(x, _)| *x == s) {
                out
            } else {
                &self.probe
            };
            (s.metric(), us(from.shape_p50(s)), "us")
        });
        let mut m = vec![
            (
                "table.session_ns",
                median_sorted(&sorted(out.session_ns.clone())),
                "ns",
            ),
            (
                "table.execute_ns",
                median_sorted(&sorted(out.execute_ns.clone())),
                "ns",
            ),
            ("table.query_self_ns", self_per_q(SpanKind::Query), "ns/q"),
            (
                "table.sessions_queued",
                c(names::TABLE_SESSIONS_QUEUED),
                "count",
            ),
            (
                "table.sessions_rejected",
                c(names::TABLE_SESSIONS_REJECTED),
                "count",
            ),
            ("table.insert_ns", insert_ns, "ns"),
            ("table.merge_ns", merge_ns, "ns"),
            (
                "table.versions_live_max",
                out.versions_live_max as f64,
                "count",
            ),
            ("core.pages_pinned_per_q", pinned / q, "1/q"),
            (
                "core.chunks_per_q",
                c(names::SCAN_CHUNKS_SCANNED) / q,
                "1/q",
            ),
            (
                "core.guard_cache_hit_frac",
                ratio(guard_hits, guard_hits + pinned),
                "frac",
            ),
            (
                "core.scan_self_ns",
                self_per_q(SpanKind::ScanPartition),
                "ns/q",
            ),
            (
                "core.dispatch_ns",
                self_per_q(SpanKind::ChunkDispatch),
                "ns/q",
            ),
            ("pool.pins_per_q", pins / q, "1/q"),
            ("pool.hit_frac", ratio(pd.hits as f64, pins), "frac"),
            ("pool.loads_per_q", pd.loads as f64 / q, "1/q"),
            ("pool.load_waits_per_q", pd.load_waits as f64 / q, "1/q"),
            ("pool.load_ns_p50", load_ns.percentile(0.5) as f64, "ns"),
            ("pool.contended", pd.contended as f64, "count"),
            ("pool.page_wait_ns", self_per_q(SpanKind::PageWait), "ns/q"),
            ("iostage.submitted_per_q", pd.io_submitted as f64 / q, "1/q"),
            (
                "iostage.shed_frac",
                ratio(pd.io_shed as f64, pd.io_submitted as f64),
                "frac",
            ),
            (
                "iostage.pages_per_read",
                ratio(pd.io_completions as f64, pd.io_physical_reads as f64),
                "1/read",
            ),
            ("iostage.batch_ns", self_per_q(SpanKind::IoBatch), "ns/q"),
            ("store.read_calls_per_q", sd.read_calls as f64 / q, "1/q"),
            ("store.pages_read_per_q", sd.pages_read as f64 / q, "1/q"),
            ("store.read_ns_per_q", sd.read_ns as f64 / q, "ns/q"),
            ("store.reread_frac", reread, "frac"),
            (
                "store.write_bytes_per_user_byte",
                ratio(wbytes as f64, user as f64),
                "B/B",
            ),
            ("store.write_ns", ratio(wns as f64, merges as f64), "ns"),
            ("resman.evictions_per_q", evicted / q, "1/q"),
            ("resman.evicted_bytes_per_q", evicted_bytes / q, "B/q"),
            ("resman.paged_mib", self.memory(|m| m.1) / MIB, "MiB"),
            ("obs.trace_overhead_frac", overhead, "frac"),
            (
                "obs.spans_dropped",
                (after.spans_dropped - before.spans_dropped) as f64,
                "count",
            ),
        ];
        m.extend(shapes);
        m
    }
}

/// Waits until no read is in flight: the store's read count and the pool's
/// completions stop moving (prefetches may still be landing when the last
/// client returns).
fn settle(b: &Built) {
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut last = (
        b.store.counts().read_calls,
        b.table.pool().metrics().io_completions,
    );
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        let now = (
            b.store.counts().read_calls,
            b.table.pool().metrics().io_completions,
        );
        if now == last {
            break;
        }
        last = now;
    }
    b.resman.quiesce();
}

/// The store decorator against the pool's own counts over the window:
/// `(ok, description)`. Resident columns load whole chains straight from
/// the store, past the pool, so where one reloaded (after a merge) the
/// store may have seen more, never less.
fn store_check(before: &Counters, after: &Counters) -> (bool, String) {
    let sd = after.store.delta(&before.store);
    let pd = after.pool.delta(&before.pool);
    let full_loads =
        after.obs.counter(names::COLUMN_FULL_LOADS) - before.obs.counter(names::COLUMN_FULL_LOADS);
    let exact = sd.pages_read == pd.loads && sd.read_calls == pd.io_physical_reads;
    let covered = sd.pages_read >= pd.loads && sd.read_calls >= pd.io_physical_reads;
    let note = format!(
        "store saw {} pages in {} read calls; pool counted {} loads in {} physical reads; \
         {full_loads} resident full-column loads",
        sd.pages_read, sd.read_calls, pd.loads, pd.io_physical_reads
    );
    (exact || (full_loads > 0 && covered), note)
}

/// A digest of the program's sources, standing in for a commit id where
/// the checkout is not a git repository.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
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
    for d in ["crates", "e2e/src"] {
        walk(&root.join(d), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn us(ns: f64) -> f64 {
    ns / 1_000.0
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = Args::parse().unwrap_or_else(|e| {
        eprintln!("e2e: {e}\n{}", Args::usage());
        std::process::exit(2);
    });
    let root = std::env::current_dir().expect("current directory");
    if !root.join("crates").is_dir() {
        eprintln!("e2e: run from the root of a checkout (no crates/ here)");
        std::process::exit(2);
    }
    let p = args.workload.params();
    let profile = TableProfile::erp(p.rows, workload::COLUMNS, args.seed);

    // Set-up, several times; the last table is the one measured.
    let data = root.join(".bench_build").join("e2e-data");
    let mut setups = Vec::new();
    let mut built: Option<Built> = None;
    for rep in 0..SETUP_REPS {
        drop(built.take());
        let dir = data.join(format!(
            "{}-{}-{rep}",
            args.workload.name(),
            std::process::id()
        ));
        let b = setup::build(&profile, p.store, dir);
        setups.push(SetupTimes {
            total_s: b.setup_s,
            merge_s: b.merge_s,
            insert_rates: b.insert_rates.clone(),
        });
        built = Some(b);
    }
    let mut b = built.expect("at least one set-up");
    if p.scan_workers > 1 {
        b.table
            .set_scan_options(ScanOptions::with_workers(p.scan_workers));
    }

    let oracle = Oracle::new(&profile);
    let plan = oracle.plan(args.seed ^ 0x9E37, p.mix, PLAN_QUERIES);
    let probe_mix: Vec<(Shape, u32)> = Shape::ALL
        .into_iter()
        .filter(|s| !p.mix.iter().any(|(m, _)| m == s))
        .map(|s| (s, 1))
        .collect();
    let probes = oracle.plan(
        args.seed ^ 0x51,
        &probe_mix,
        PROBE_QUERIES * probe_mix.len(),
    );

    // Pool limits (sized from the fully loaded table) and warm-up.
    warm_all(&b.table, &profile);
    let paged_bytes = b.resman.stats().paged_bytes;
    let mut pool_limit = 0;
    if let Some(share) = p.pool_share {
        pool_limit = (paged_bytes as f64 * share) as usize;
        b.resman
            .set_paged_limits(Some(PoolLimits::new(pool_limit * 4 / 5, pool_limit)));
        b.table.unload_all();
        b.resman.quiesce();
    }
    let ctx = Ctx {
        table: &b.table,
        resman: &b.resman,
        tracer: b.table.registry().tracer().clone(),
        versions_live: b.table.registry().gauge(names::TABLE_VERSIONS_LIVE),
        origin: Instant::now(),
    };
    let awake = p.keep_awake.then(KeepAwake::start);

    // For the traced run's per-shape medians, the shapes outside the mix,
    // interleaved on one client, untraced, before the window: each query
    // cold on a limited pool (its pages dropped first), warm on an
    // unlimited one (loaded above).
    let mut probe = ClientOut::default();
    if args.trace {
        let until = Instant::now() + PROBE_FOR;
        for (i, q) in probes.iter().cycle().enumerate() {
            if i >= probes.len() && Instant::now() >= until {
                break;
            }
            if p.pool_share.is_some() {
                b.table.pool().clear();
            }
            ctx.run(q, &mut probe);
        }
    }
    let mut warm = ClientOut::default();
    for q in plan.iter().cycle().take(p.warmup) {
        ctx.run(q, &mut warm);
    }

    // The measured window.
    b.store.reset_distinct();
    let before = Counters::take(&b);
    let window = Duration::from_secs(args.seconds);
    let ctx = Ctx {
        origin: Instant::now(),
        ..ctx
    };
    let end = ctx.origin + window;
    let done = AtomicBool::new(false);
    let mut ctl = args
        .trace
        .then(|| TraceCtl::new(ctx.tracer.clone(), window));
    let mut out = ClientOut::default();
    let past_end = || Instant::now() >= end;
    let writer_done = || done.load(Ordering::Acquire);
    std::thread::scope(|s| {
        let (ctx, plan, profile, done) = (&ctx, &plan, &profile, &done);
        match p.ingest_batch {
            Some(batch) => {
                // One writer for a fixed number of batches (one per second
                // of the window) beside one reader that stops with it.
                let w = s.spawn(move || {
                    let o = writer(ctx, profile, args.seconds, batch);
                    done.store(true, Ordering::Release);
                    o
                });
                out.absorb(reader(ctx, plan, 0, &writer_done, true, ctl.as_mut()));
                out.absorb(w.join().expect("writer thread"));
            }
            None => {
                let stop = &past_end;
                let others: Vec<_> = (1..p.sessions)
                    .map(|i| {
                        let offset = i * plan.len() / p.sessions;
                        s.spawn(move || reader(ctx, plan, offset, stop, false, None))
                    })
                    .collect();
                out.absorb(reader(ctx, plan, 0, stop, true, ctl.as_mut()));
                for h in others {
                    out.absorb(h.join().expect("reader thread"));
                }
            }
        }
    });
    let window_ns = ctx.origin.elapsed().as_nanos() as u64;
    drop(awake);
    let acc = ctl.map(TraceCtl::finish);
    settle(&b);
    let after = Counters::take(&b);
    let (store_ok, store_note) = store_check(&before, &after);

    let fingerprint = format!(
        "{{\"workload\": \"{}\", \"cpus\": {}, \"store\": \"{}\", \"page_latency_us\": {}, \
         \"pool_limit_bytes\": {pool_limit}, \"paged_bytes\": {paged_bytes}, \"rows\": {}, \"columns\": {}, \
         \"seed\": {}, \"sessions\": {}, \"scan_workers\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": \"{}\"}}",
        args.workload.name(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        p.store.name(),
        p.store.latency_us(),
        p.rows,
        workload::COLUMNS,
        args.seed,
        p.sessions,
        p.scan_workers,
        args.seconds,
        args.trace as u8,
        source_digest(&root),
    );
    let wrong = out.wrong + probe.wrong + warm.wrong;
    let first_wrong = [&out, &probe, &warm]
        .into_iter()
        .find_map(|o| o.first_wrong.clone());
    let correct = wrong == 0 && store_ok;
    let run = Run {
        p: &p,
        built: &b,
        setups,
        out,
        probe,
        window_ns,
        before,
        after,
    };

    let mut lines = String::new();
    for (i, s) in run.setups.iter().enumerate() {
        let rate = median_f64(&s.insert_rates);
        writeln!(
            lines,
            "set-up {i}: {:.3} s, {rate:.0} inserts/s, merge {:.3} s",
            s.total_s, s.merge_s
        )
        .expect("write to string");
    }
    let metrics = match &acc {
        None => run.end_to_end(&mut lines),
        Some(acc) => run.per_layer(acc, &mut lines),
    };

    // Human-readable lines, then the fingerprint, then the result.
    println!(
        "workload {}: {} queries in {:.3} s",
        args.workload.name(),
        run.out.queries,
        window_ns as f64 / 1e9
    );
    print!("{lines}");
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    println!(
        "store check {}: {store_note}",
        if store_ok { "ok" } else { "FAILED" }
    );
    if let Some(w) = first_wrong {
        println!("wrong answers: {wrong}; first: {w}");
    }
    println!("{{\"fingerprint\": {fingerprint}}}");
    println!(
        "{}",
        result_json(correct, run.out.attempted, run.out.failed, &metrics)
    );
    // `exit` skips destructors: drop the table first, so its directory and
    // the pool's I/O threads are gone before the process ends.
    drop(run);
    drop(ctx);
    drop(b);
    if !correct {
        std::process::exit(1);
    }
}
