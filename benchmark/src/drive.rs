//! Load generation: closed-loop readers, the open-loop `live_rw` writer,
//! and the slicing of a timed run.
//!
//! A timed run is an untimed warm-up followed by half-second slices. The
//! box this runs on is a 2-vCPU virtual machine whose neighbours steal
//! whole seconds of CPU at a time (30 % stolen for ten seconds running is
//! common), which slows a closed loop of six threads far more than in
//! proportion. `/proc/stat` reports the stolen time, so every metric is
//! computed over the *quiet* slices only: those that lost at most
//! [`QUIET_STOLEN_FRAC`] of their CPU time to the hypervisor, or the
//! quietest quarter of the run when fewer than that qualify; and of their
//! per-slice readings the favourable quartile is reported. Neither choice
//! depends on anything the program under test does.

use std::thread;
use std::time::{Duration, Instant};

use crate::inputs::{Inputs, BURST_BATCH_ROWS, BURST_ROWS, INGEST_BATCH_ROWS, INGEST_PERIOD_MS};
use crate::stats::{
    dur_ns, iqr, median, nproc, ns_to_ms, percentile_sorted, process_cpu, quantile, stolen_cpu,
};
use crate::surface::Row;
use crate::verify::Charged;
use crate::world::{Client, Door, World, SESSION_PLANS};

/// The quiet slices must hold this many latency samples between them for
/// their p99 to stand on at least ten samples beyond it.
pub const MIN_P99_SAMPLES: usize = 1_000;
/// A slice is quiet when the hypervisor stole at most this share of its
/// CPU time (two clock ticks of a half-second slice on two CPUs).
pub const QUIET_STOLEN_FRAC: f64 = 0.02;
/// A writer batch is late when it starts more than this after its due
/// time (a tenth of the period).
const LATE_AFTER: Duration = Duration::from_millis(INGEST_PERIOD_MS / 10);
const SLICE: Duration = Duration::from_millis(500);

/// Warm-up and slicing of one timed run.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub warmup: Duration,
    /// Number of [`SLICE`]-long slices.
    pub slices: usize,
}

impl Schedule {
    /// `seconds` of measurement in half-second slices, after a warm-up of
    /// a twentieth of that (between 250 ms and 1 s).
    pub fn for_seconds(seconds: f64) -> Schedule {
        Schedule {
            warmup: Duration::from_secs_f64((seconds / 20.0).clamp(0.25, 1.0)),
            slices: ((seconds / SLICE.as_secs_f64()).round() as usize).max(1),
        }
    }

    pub fn total(&self) -> Duration {
        self.warmup + SLICE * self.slices as u32
    }
}

struct Record {
    done: Duration,
    latency: Duration,
    first_snapshot: Option<Duration>,
}

#[derive(Default)]
struct ReaderLog {
    records: Vec<Record>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

struct Ack {
    due: Duration,
    late: Duration,
    acked: Duration,
    refreshed: bool,
}

#[derive(Default)]
struct WriterLog {
    acks: Vec<Ack>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// The clocks as the sampler read them at one slice boundary.
struct Mark {
    at: Duration,
    cpu: Duration,
    stolen: Duration,
}

/// One slice of a timed run.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Measured length (the sampler may wake late).
    pub seconds: f64,
    /// Share of the slice's CPU time the hypervisor gave to someone else.
    pub stolen_frac: f64,
    /// Process CPU time spent in the slice.
    pub cpu_us: f64,
    /// Latencies (ns) of the plans completed in the slice, sorted.
    pub latencies: Vec<u64>,
    /// First-snapshot times (ms) of the slice's online plans.
    pub first_snapshots: Vec<f64>,
}

impl Slice {
    pub fn plans_per_s(&self) -> f64 {
        self.latencies.len() as f64 / self.seconds
    }

    pub fn percentile_ms(&self, p: f64) -> f64 {
        ns_to_ms(percentile_sorted(&self.latencies, p) as f64)
    }

    pub fn cpu_us_per_plan(&self) -> f64 {
        self.cpu_us / self.latencies.len().max(1) as f64
    }
}

/// A metric over the quiet slices, as it is printed: its value, the
/// interquartile range of the per-slice readings, and the number of plans
/// behind it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Estimate {
    pub value: f64,
    pub iqr: f64,
    pub samples: usize,
}

/// What the writer saw over the timed slices.
#[derive(Debug, Clone, Default)]
pub struct WriterSummary {
    pub batches: usize,
    pub refreshes: usize,
    pub ingest_ack_p50_ms: f64,
    pub refresh_ack_p50_ms: f64,
    pub late_frac: f64,
}

/// The outcome of one timed run.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    pub slices: Vec<Slice>,
    /// Indices of the quiet slices, quietest first.
    pub quiet: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub writer: Option<WriterSummary>,
}

/// The slices every metric is computed over: all that lost at most
/// [`QUIET_STOLEN_FRAC`] to the hypervisor, and never fewer than the
/// quietest quarter.
fn quiet_slices(slices: &[Slice]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..slices.len()).collect();
    order.sort_by(|&a, &b| slices[a].stolen_frac.total_cmp(&slices[b].stolen_frac));
    let quiet = order
        .iter()
        .take_while(|&&k| slices[k].stolen_frac <= QUIET_STOLEN_FRAC)
        .count();
    order.truncate(quiet.max(slices.len().div_ceil(4)));
    order
}

impl Timed {
    fn quiet(&self) -> impl Iterator<Item = &Slice> {
        self.quiet.iter().map(|&k| &self.slices[k])
    }

    /// Plans completed in the quiet slices.
    pub fn samples(&self) -> usize {
        self.quiet().map(|s| s.latencies.len()).sum()
    }

    /// The per-slice readings of the quiet slices that completed a plan.
    fn per_slice(&self, reading: impl Fn(&Slice) -> f64) -> Vec<f64> {
        self.quiet()
            .filter(|s| !s.latencies.is_empty())
            .map(reading)
            .collect()
    }

    /// The favourable quartile of the quiet slices' readings (`q` = 0.25
    /// where lower is better, 0.75 where higher is). Interference only
    /// ever slows a slice, and not all of it shows as stolen time (a
    /// neighbour on the sibling hardware thread steals nothing), so the
    /// better readings are the truer ones; a quartile, not the extreme,
    /// so that no single lucky slice decides the value.
    fn favourable(&self, q: f64, reading: impl Fn(&Slice) -> f64) -> Estimate {
        let values = self.per_slice(reading);
        Estimate {
            value: quantile(&values, q),
            iqr: iqr(&values),
            samples: self.samples(),
        }
    }

    pub fn plans_per_s(&self) -> Estimate {
        self.favourable(0.75, Slice::plans_per_s)
    }

    pub fn p50_ms(&self) -> Estimate {
        self.favourable(0.25, |s| s.percentile_ms(50.0))
    }

    pub fn cpu_us_per_plan(&self) -> Estimate {
        self.favourable(0.25, Slice::cpu_us_per_plan)
    }

    /// The p99 over all plans of the quiet slices together: a tail needs
    /// the samples of more than one slice.
    pub fn p99_ms(&self) -> Estimate {
        let mut pooled: Vec<u64> = self.quiet().flat_map(|s| &s.latencies).copied().collect();
        pooled.sort_unstable();
        Estimate {
            value: ns_to_ms(percentile_sorted(&pooled, 99.0) as f64),
            iqr: iqr(&self.per_slice(|s| s.percentile_ms(99.0))),
            samples: pooled.len(),
        }
    }

    /// Median first-snapshot time of the online plans; `None` when the
    /// workload has none.
    pub fn first_snapshot_ms(&self) -> Option<Estimate> {
        let pooled: Vec<f64> = self
            .quiet()
            .flat_map(|s| &s.first_snapshots)
            .copied()
            .collect();
        (!pooled.is_empty()).then(|| Estimate {
            value: median(&pooled),
            iqr: iqr(&pooled),
            samples: pooled.len(),
        })
    }

    /// Whether the quiet slices hold too few samples to report a p99.
    pub fn undersampled(&self) -> bool {
        self.samples() < MIN_P99_SAMPLES
    }

    /// Whether at least half the window was quiet (the quarter kept
    /// regardless is less than that): only then does a missed sample count
    /// or a late writer say something about the workload and not about the
    /// machine's neighbours.
    pub fn calm(&self) -> bool {
        2 * self.quiet.len() >= self.slices.len()
    }

    /// Share of the timed window's CPU time the hypervisor stole.
    pub fn stolen_frac(&self) -> f64 {
        let seconds: f64 = self.slices.iter().map(|s| s.seconds).sum();
        self.slices
            .iter()
            .map(|s| s.stolen_frac * s.seconds)
            .sum::<f64>()
            / seconds.max(f64::MIN_POSITIVE)
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        thread::sleep(deadline - now);
    }
}

/// Closed loop: the next plan is sent only after the previous answer
/// arrived. Starts at `offset` in the plan list and cycles. Every
/// `SESSION_PLANS` plans the session's ledger is checked and a fresh
/// session opened (between plans, so no latency sample includes it).
fn reader_loop(
    identity: &str,
    door: &Door,
    mut client: Client,
    inputs: &Inputs,
    offset: usize,
    start: Instant,
    end: Instant,
) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut charged = Charged::default();
    let mut session = 0u32;
    let mut session_identity = identity.to_owned();
    let mut next = offset;
    loop {
        if charged.plans >= SESSION_PLANS {
            if let Err(e) = charged.check_ledger(&session_identity, &mut client) {
                log.failed += 1;
                log.errors.push(e);
            }
            session += 1;
            session_identity = format!("{identity}-s{session}");
            match door.client(&session_identity) {
                Ok(fresh) => client = fresh,
                Err(e) => {
                    log.failed += 1;
                    log.errors.push(e);
                    break;
                }
            }
            charged = Charged::default();
        }
        let begin = Instant::now();
        if begin >= end {
            break;
        }
        let spec = &inputs.plans[next % inputs.plans.len()];
        next += 1;
        log.attempted += 1;
        match client.run(&inputs.schema, spec) {
            Ok(served) => {
                let done = Instant::now();
                charged.add(&served.answer);
                log.records.push(Record {
                    done: done - start,
                    latency: done - begin,
                    first_snapshot: served.first_snapshot,
                });
            }
            Err(e) => {
                log.failed += 1;
                if log.errors.len() < 3 {
                    log.errors.push(format!("{identity}: {e}"));
                }
            }
        }
    }
    if let Err(e) = charged.check_ledger(&session_identity, &mut client) {
        log.failed += 1;
        log.errors.push(e);
    }
    log
}

/// Open loop: one batch is due every `INGEST_PERIOD_MS` regardless of how
/// the previous one fared; each ack is timed from its due time.
fn writer_loop(mut client: Client, inputs: &Inputs, start: Instant, end: Instant) -> WriterLog {
    let mut log = WriterLog::default();
    let period = Duration::from_millis(INGEST_PERIOD_MS);
    let n_providers = inputs.partitions.len();
    let Some(conn) = client.remote() else {
        log.errors.push("the writer needs a live server".into());
        log.failed += 1;
        return log;
    };
    for k in 0.. {
        let due = start + period * k as u32;
        if due >= end {
            break;
        }
        let batch = inputs.stream_batch(k * INGEST_BATCH_ROWS, INGEST_BATCH_ROWS);
        sleep_until(due);
        let begin = Instant::now();
        log.attempted += 1;
        match conn.ingest((k % n_providers) as u32, &batch) {
            Ok(ack) if ack.accepted == batch.len() as u64 => log.acks.push(Ack {
                due: due - start,
                late: begin - due,
                acked: Instant::now() - due,
                refreshed: ack.refreshed,
            }),
            Ok(ack) => {
                log.failed += 1;
                log.errors.push(format!(
                    "ingest batch {k}: accepted {} of {} rows",
                    ack.accepted,
                    batch.len()
                ));
            }
            Err(e) => {
                log.failed += 1;
                if log.errors.len() < 3 {
                    log.errors.push(format!("ingest batch {k}: {e}"));
                }
            }
        }
    }
    log
}

/// Drives `readers` closed-loop clients (and, with `writer`, the paced
/// open-loop writer) through the world's front door for one schedule.
/// `tag` keeps the identities of successive runs on one world apart, so
/// each run's ledger check starts from zero.
pub fn run_timed(
    world: &World,
    inputs: &Inputs,
    tag: &str,
    readers: usize,
    writer: bool,
    schedule: Schedule,
) -> Result<Timed, String> {
    let identities: Vec<String> = (0..readers).map(|k| format!("{tag}-reader-{k}")).collect();
    let mut clients = Vec::with_capacity(readers);
    for identity in &identities {
        clients.push(world.client(identity)?);
    }
    let writer_client = if writer {
        Some(world.client(&format!("{tag}-writer"))?)
    } else {
        None
    };

    let start = Instant::now();
    let timed_from = start + schedule.warmup;
    let end = timed_from + SLICE * schedule.slices as u32;
    let (reader_logs, writer_log, marks) = thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&identities)
            .enumerate()
            .map(|(k, (client, identity))| {
                let offset = k * inputs.plans.len() / readers;
                let door = &world.door;
                scope.spawn(move || reader_loop(identity, door, client, inputs, offset, start, end))
            })
            .collect();
        let writer_handle = writer_client
            .map(|client| scope.spawn(move || writer_loop(client, inputs, start, end)));
        // This thread reads the clocks at every slice boundary; a slice
        // is what lies between two readings, however late the second is.
        let marks: Vec<Mark> = (0..=schedule.slices)
            .map(|k| {
                sleep_until(timed_from + SLICE * k as u32);
                Mark {
                    at: start.elapsed(),
                    cpu: process_cpu(),
                    stolen: stolen_cpu(),
                }
            })
            .collect();
        let reader_logs: Vec<ReaderLog> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        let writer_log = writer_handle.map(|h| h.join().expect("writer thread panicked"));
        (reader_logs, writer_log, marks)
    });

    let mut timed = Timed::default();
    for log in &reader_logs {
        timed.attempted += log.attempted;
        timed.failed += log.failed;
        timed.errors.extend(log.errors.iter().cloned());
    }
    let slice_of = |at: Duration| -> Option<usize> {
        let k = marks.partition_point(|mark| mark.at <= at);
        (1..marks.len()).contains(&k).then(|| k - 1)
    };
    let cpus = nproc() as f64;
    timed.slices = marks
        .windows(2)
        .map(|pair| {
            let (from, to) = (&pair[0], &pair[1]);
            let seconds = (to.at - from.at).as_secs_f64().max(f64::MIN_POSITIVE);
            Slice {
                seconds,
                stolen_frac: to.stolen.saturating_sub(from.stolen).as_secs_f64() / (seconds * cpus),
                cpu_us: to.cpu.saturating_sub(from.cpu).as_secs_f64() * 1e6,
                ..Slice::default()
            }
        })
        .collect();
    for record in reader_logs.iter().flat_map(|log| &log.records) {
        if let Some(k) = slice_of(record.done) {
            timed.slices[k]
                .latencies
                .push(record.latency.as_nanos() as u64);
            if let Some(first) = record.first_snapshot {
                timed.slices[k]
                    .first_snapshots
                    .push(ns_to_ms(dur_ns(first)));
            }
        }
    }
    for slice in &mut timed.slices {
        slice.latencies.sort_unstable();
    }
    timed.quiet = quiet_slices(&timed.slices);
    if let Some(log) = writer_log {
        timed.attempted += log.attempted;
        timed.failed += log.failed;
        timed.errors.extend(log.errors);
        // Counts are over the whole timed window (the schedule fixes
        // them); times and lateness over the quiet slices, like the rest.
        let in_window = || log.acks.iter().filter(|a| slice_of(a.due).is_some());
        let in_quiet: Vec<&Ack> = log
            .acks
            .iter()
            .filter(|a| slice_of(a.due).is_some_and(|k| timed.quiet.contains(&k)))
            .collect();
        let ack_ms = |refreshed: bool| -> f64 {
            let v: Vec<f64> = in_quiet
                .iter()
                .filter(|a| a.refreshed == refreshed)
                .map(|a| ns_to_ms(dur_ns(a.acked)))
                .collect();
            median(&v)
        };
        timed.writer = Some(WriterSummary {
            batches: in_window().count(),
            refreshes: in_window().filter(|a| a.refreshed).count(),
            ingest_ack_p50_ms: ack_ms(false),
            refresh_ack_p50_ms: ack_ms(true),
            late_frac: in_quiet.iter().filter(|a| a.late > LATE_AFTER).count() as f64
                / in_quiet.len().max(1) as f64,
        });
    }
    Ok(timed)
}

/// The `live_rw` fixed-work burst: exactly `BURST_ROWS` rows in
/// `BURST_BATCH_ROWS`-row batches with no reader; rows ÷ wall.
pub fn ingest_burst(world: &World, inputs: &Inputs, first_row: usize) -> Result<f64, String> {
    let mut client = world.client("burst-writer")?;
    let conn = client.remote().ok_or("the burst needs a live server")?;
    let n_providers = inputs.partitions.len();
    let batches: Vec<Vec<Row>> = (0..BURST_ROWS / BURST_BATCH_ROWS)
        .map(|b| inputs.stream_batch(first_row + b * BURST_BATCH_ROWS, BURST_BATCH_ROWS))
        .collect();
    let begin = Instant::now();
    for (b, batch) in batches.iter().enumerate() {
        let ack = conn
            .ingest((b % n_providers) as u32, batch)
            .map_err(|e| format!("burst batch {b}: {e}"))?;
        if ack.accepted != batch.len() as u64 {
            return Err(format!(
                "burst batch {b}: accepted {} of {} rows",
                ack.accepted,
                batch.len()
            ));
        }
    }
    Ok(BURST_ROWS as f64 / begin.elapsed().as_secs_f64())
}
