//! The closed-loop clients: readers running a query plan through
//! `Table::session()` → `Snapshot::execute`, the ingest writer, and the
//! traced run's tracer control.

use crate::oracle::{ingest_row, user_bytes, Planned, Shape};
use crate::spans::SpanAcc;
use crate::stats::{median_f64, median_sorted, percentile, sorted};
use payg_core::ValuePredicate;
use payg_obs::{Gauge, SpanKind, Tracer};
use payg_resman::ResourceManager;
use payg_table::{Projection, Query, Table};
use payg_workload::TableProfile;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the traced run's first client drains the span store.
const DRAIN_EVERY: Duration = Duration::from_millis(20);
/// How often the first client samples the resource manager's footprint.
const SAMPLE_EVERY: Duration = Duration::from_millis(25);
/// Most rounds the window is split into for `p99_us`.
const ROUNDS: usize = 5;
/// Fewest samples a `p99_us` round may hold.
const ROUND_MIN: usize = 1_000;
/// Traced and untraced slices alternate this many times in a traced run.
const TRACE_SLICES: u32 = 10;

/// One query's latency, stamped with when it finished.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, ns after the window opened (0 before it).
    pub at_ns: u64,
    /// Latency in ns; `u64::MAX` for a failed or refused query, which
    /// misses every latency limit.
    pub ns: u64,
    pub shape: Shape,
    /// The column the shape targets ([`Planned::target`]).
    pub target: usize,
    /// Whether the tracer was on for the whole query.
    pub traced: bool,
}

/// What one client thread measured.
#[derive(Default)]
pub struct ClientOut {
    /// Every query whose tracer state did not change while it ran.
    pub samples: Vec<Sample>,
    pub session_ns: Vec<u64>,
    pub execute_ns: Vec<u64>,
    pub insert_ns: Vec<u64>,
    pub merge_ns: Vec<u64>,
    pub ingest_user_bytes: u64,
    /// Queries run (inserts and merges count only in `attempted`).
    pub queries: u64,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub first_wrong: Option<String>,
    pub versions_live_max: u64,
    /// Resman `(total_bytes, paged_bytes)` sampled through the window.
    pub memory: Vec<(u64, u64)>,
}

impl ClientOut {
    pub fn absorb(&mut self, o: ClientOut) {
        self.samples.extend(o.samples);
        self.session_ns.extend(o.session_ns);
        self.execute_ns.extend(o.execute_ns);
        self.insert_ns.extend(o.insert_ns);
        self.merge_ns.extend(o.merge_ns);
        self.ingest_user_bytes += o.ingest_user_bytes;
        self.queries += o.queries;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.first_wrong = self.first_wrong.take().or(o.first_wrong);
        self.versions_live_max = self.versions_live_max.max(o.versions_live_max);
        self.memory.extend(o.memory);
    }

    /// Ascending latencies of the samples `keep` selects.
    pub fn latencies(&self, keep: impl Fn(&Sample) -> bool) -> Vec<u64> {
        sorted(
            self.samples
                .iter()
                .filter(|s| keep(s))
                .map(|s| s.ns)
                .collect(),
        )
    }

    /// A shape's typical latency in ns over its untraced samples: the
    /// median over its target columns of each column's median. Unlike the
    /// median of the pooled samples, it cannot jump between a cheap and a
    /// costly column when their shares shift by a query or two.
    pub fn shape_p50(&self, shape: Shape) -> f64 {
        let of_shape = |s: &Sample| s.shape == shape && !s.traced;
        let mut targets: Vec<usize> = self
            .samples
            .iter()
            .filter(|s| of_shape(s))
            .map(|s| s.target)
            .collect();
        targets.sort_unstable();
        targets.dedup();
        let per_column: Vec<f64> = targets
            .iter()
            .map(|&t| median_sorted(&self.latencies(|s| of_shape(s) && s.target == t)))
            .collect();
        median_f64(&per_column)
    }

    fn note_versions(&mut self, gauge: &Gauge) {
        self.versions_live_max = self.versions_live_max.max(gauge.get());
    }
}

/// Queries per second and p99 latency as medians over rounds of the
/// window, so a burst of interference moves only the rounds it hits.
/// `qps` uses one-second rounds. `p99` uses as many equal rounds as keep
/// ≥ [`ROUND_MIN`] samples each (at most [`ROUNDS`]), so every round's
/// p99 has ≥ 10 samples beyond it.
pub fn by_rounds(samples: &[Sample], window_ns: u64) -> (f64, f64) {
    let per_round = |rounds: u64, stat: &dyn Fn(Vec<u64>, f64) -> f64| -> f64 {
        let len = window_ns.div_ceil(rounds).max(1);
        let mut lat: Vec<Vec<u64>> = vec![Vec::new(); rounds as usize];
        for s in samples {
            lat[(s.at_ns / len).min(rounds - 1) as usize].push(s.ns);
        }
        median_f64(
            &lat.into_iter()
                .map(|l| stat(sorted(l), len as f64 / 1e9))
                .collect::<Vec<_>>(),
        )
    };
    let seconds = (window_ns / 1_000_000_000).max(1);
    let qps = per_round(seconds, &|lat, secs| {
        lat.iter().filter(|&&ns| ns != u64::MAX).count() as f64 / secs
    });
    let rounds = (samples.len() / ROUND_MIN).clamp(1, ROUNDS) as u64;
    let p99 = per_round(rounds, &|lat, _| percentile(&lat, 99.0) as f64);
    (qps, p99)
}

/// The handles every client shares.
pub struct Ctx<'a> {
    pub table: &'a Table,
    pub resman: &'a ResourceManager,
    pub tracer: Tracer,
    pub versions_live: Gauge,
    /// When the measured window opened (set just before it does).
    pub origin: Instant,
}

impl Ctx<'_> {
    /// One query through the public path: `session()` then `execute`, under
    /// the benchmark's own `query` and `admission` spans.
    pub fn run(&self, p: &Planned, out: &mut ClientOut) {
        let traced = self.tracer.enabled();
        let t0 = Instant::now();
        let (t1, result) = {
            let _query = self.tracer.span(SpanKind::Query, p.shape as u64);
            let session = {
                let _admission = self.tracer.span(SpanKind::Admission, 0);
                self.table.session()
            };
            let t1 = Instant::now();
            (t1, session.and_then(|s| s.execute(&p.query)))
        };
        let t2 = Instant::now();
        out.queries += 1;
        out.attempted += 1;
        let ns = match result {
            Ok(got) => {
                if !p.expect.holds(&got) {
                    out.wrong += 1;
                    if out.first_wrong.is_none() {
                        out.first_wrong = Some(format!("{:?} returned {got:?}", p.query));
                    }
                }
                (t2 - t0).as_nanos() as u64
            }
            Err(_) => {
                out.failed += 1;
                u64::MAX
            }
        };
        if traced == self.tracer.enabled() {
            let at_ns = t2.saturating_duration_since(self.origin).as_nanos() as u64;
            out.samples.push(Sample {
                at_ns,
                ns,
                shape: p.shape,
                target: p.target,
                traced,
            });
        }
        out.session_ns.push((t1 - t0).as_nanos() as u64);
        out.execute_ns.push((t2 - t1).as_nanos() as u64);
        out.note_versions(&self.versions_live);
    }
}

/// The traced run's tracer control, owned by the first client: alternates
/// untraced and traced slices and drains the span store before it fills.
pub struct TraceCtl {
    tracer: Tracer,
    acc: SpanAcc,
    slice: Duration,
    next_toggle: Instant,
    next_drain: Instant,
}

impl TraceCtl {
    pub fn new(tracer: Tracer, window: Duration) -> Self {
        let now = Instant::now();
        let slice = window / TRACE_SLICES;
        TraceCtl {
            tracer,
            acc: SpanAcc::default(),
            slice,
            next_toggle: now + slice,
            next_drain: now,
        }
    }

    pub fn tick(&mut self) {
        let now = Instant::now();
        if now >= self.next_toggle {
            if self.tracer.enabled() {
                self.tracer.disable();
            } else {
                self.tracer.enable();
            }
            self.next_toggle = now + self.slice;
        }
        if now >= self.next_drain {
            self.acc.drain(&self.tracer);
            self.next_drain = now + DRAIN_EVERY;
        }
    }

    pub fn finish(mut self) -> SpanAcc {
        self.tracer.disable();
        self.acc.drain(&self.tracer);
        self.acc.finish();
        self.acc
    }
}

/// A closed-loop reader: runs `plan` from `offset` until `stop` says so.
/// The first reader (`lead`) also samples memory and, in a traced run,
/// drives the tracer.
pub fn reader(
    ctx: &Ctx,
    plan: &[Planned],
    offset: usize,
    stop: &(dyn Fn() -> bool + Sync),
    lead: bool,
    mut ctl: Option<&mut TraceCtl>,
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut i = offset;
    let mut next_sample = Instant::now();
    while !stop() {
        ctx.run(&plan[i % plan.len()], &mut out);
        i += 1;
        if let Some(ctl) = ctl.as_deref_mut() {
            ctl.tick();
        }
        if lead && Instant::now() >= next_sample {
            let m = ctx.resman.stats();
            out.memory
                .push((m.total_bytes as u64, m.paged_bytes as u64));
            next_sample = Instant::now() + SAMPLE_EVERY;
        }
    }
    out
}

/// The ingest writer: `batches` batches of inserts back to back, each
/// followed by an online `delta_merge_all` under the benchmark's `merge`
/// span.
pub fn writer(ctx: &Ctx, profile: &TableProfile, batches: u64, batch: u64) -> ClientOut {
    let mut out = ClientOut::default();
    for b in 0..batches {
        for k in 0..batch {
            let row = ingest_row(profile, b * batch + k);
            out.ingest_user_bytes += user_bytes(&row);
            let t0 = Instant::now();
            let r = ctx.table.insert(row);
            out.insert_ns.push(t0.elapsed().as_nanos() as u64);
            out.attempted += 1;
            out.failed += r.is_err() as u64;
        }
        let t0 = Instant::now();
        let r = {
            let _merge = ctx.tracer.span(SpanKind::Merge, b);
            ctx.table.delta_merge_all()
        };
        out.merge_ns.push(t0.elapsed().as_nanos() as u64);
        out.attempted += 1;
        out.failed += r.is_err() as u64;
        out.note_versions(&ctx.versions_live);
    }
    out
}

/// Loads every page a workload can touch: each column's dictionary
/// (`DISTINCT`) and data vector (an equality `COUNT`), and the resident PK.
pub fn warm_all(table: &Table, profile: &TableProfile) {
    let session = table.session().expect("admission during warm-up");
    for (c, spec) in profile.columns.iter().enumerate().skip(1) {
        let v = payg_workload::gen::value_at(profile, c, 0);
        for q in [
            Query::full(Projection::Distinct(spec.name.clone())),
            Query::filtered(spec.name.clone(), ValuePredicate::Eq(v), Projection::Count),
        ] {
            session.execute(&q).expect("warm-up query");
        }
    }
    let pk = payg_workload::gen::value_at(profile, 0, 0);
    session
        .execute(&Query::filtered(
            profile.columns[0].name.clone(),
            ValuePredicate::Eq(pk),
            Projection::All,
        ))
        .expect("warm-up query");
}

/// Keeps every cpu busy with threads that only yield, until dropped.
///
/// On a virtual machine an idle cpu is parked in the host, and waking it
/// for the next page-load handoff costs from 10 µs to several ms with the
/// host's load. Yielding threads keep the cpus out of that state while
/// giving way to every runnable thread of the program, so the cold
/// workloads time the program's handoffs rather than the host's.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // A yield loop cannot panic; nothing to report.
            let _ = t.join();
        }
    }
}
