//! The serve-churn workload: `pba_stream::ingest::serve_ingest` fed by an
//! in-memory client (layers `stream`, `wire`, `snapshot`).
//!
//! The loop is closed, with one client and one batch in flight, because
//! the ingest protocol is half-duplex. The client's reader hands the
//! server the frame of batch k+1 only after the server wrote ack k, and
//! generates and encodes that batch before the server's first read of
//! it, so input generation stays outside the service time. A batch's
//! service time runs from the server's first read of its frame to the
//! server's write of its ack. No kernel socket is involved: cross-vCPU
//! wake-ups would measure the host, not the program.

use std::cell::RefCell;
use std::io::{Read, Write};
use std::time::Instant;

use pba_stream::ingest::serve_ingest;
use pba_stream::{IngestFrame, IngestSummary, PolicyKind, StreamAllocator, Workload, WorkloadCfg};

use crate::metrics::{EndToEnd, Layers};
use crate::report::{nanos_since, repeat_for, Outcome};
use crate::stats::{median_of, percentile, secs};
use crate::trace::Tracer;
use crate::{host, Opts};

/// Bins of the service.
pub const BINS: u32 = 1 << 12;
/// Balls resident once warmed, and after every churn batch: 16n.
pub const RESIDENT: u64 = 16 * BINS as u64;
/// Arrivals per batch (and departures, once warmed): 2n.
pub const BATCH: u64 = 2 * BINS as u64;
/// Batches per session; each session starts from the warmed snapshot.
pub const SESSION_BATCHES: u64 = 64;

const POLICY: PolicyKind = PolicyKind::BatchedTwoChoice;

/// The warmed service state every session starts from.
#[derive(Debug, Clone)]
pub struct Warmed {
    pub snapshot: Vec<u8>,
    /// The client's generator, positioned after the warm-up, with churn 1.
    pub traffic: Workload,
}

/// Warm a fresh allocator to `RESIDENT` balls with growth-only batches,
/// then snapshot it. All inputs derive from `seed`.
pub fn warm(seed: u64) -> Warmed {
    let mut alloc = StreamAllocator::new(BINS, seed, POLICY);
    let mut traffic = Workload::new(WorkloadCfg::uniform(BATCH), traffic_seed(seed));
    while alloc.resident() < RESIDENT {
        alloc.ingest(&traffic.next_batch());
    }
    traffic.set_churn(1.0);
    Warmed {
        snapshot: alloc.snapshot(),
        traffic,
    }
}

/// The client's generator seed: distinct from the allocator's placement
/// stream, derived from the same run seed.
fn traffic_seed(seed: u64) -> u64 {
    pba_core::SplitMix64::mix(seed ^ 0x5EED_CA11_C0FF_EE00)
}

/// The client half of the in-memory pipe, shared by its reader and
/// writer ends.
struct Client {
    traffic: Workload,
    batches: u64,
    /// Acks received so far (= index of the batch in flight).
    acked: u64,
    /// Bytes the server has yet to read.
    inbound: Vec<u8>,
    pos: usize,
    /// The next read is the server's first of a batch frame.
    batch_pending: bool,
    first_read: Option<Instant>,
    /// Bytes of the frame the server is writing.
    outbound: Vec<u8>,
    write_start: Option<Instant>,
    hello_ok: Option<Instant>,
    latencies_ns: Vec<u64>,
    bytes: u64,
    summary: Option<IngestSummary>,
    failures: Vec<String>,
}

impl Client {
    fn new(hello: IngestFrame, traffic: Workload, batches: u64) -> Client {
        Client {
            traffic,
            batches,
            acked: 0,
            inbound: hello.encode(),
            pos: 0,
            batch_pending: false,
            first_read: None,
            outbound: Vec::new(),
            write_start: None,
            hello_ok: None,
            latencies_ns: Vec::new(),
            bytes: 0,
            summary: None,
            failures: Vec::new(),
        }
    }

    /// Queue the next batch frame, or `done` once every batch is acked.
    fn queue_next(&mut self) {
        self.inbound = if self.acked < self.batches {
            self.batch_pending = true;
            IngestFrame::Batch {
                batch: self.acked,
                payload: self.traffic.next_batch(),
            }
            .encode()
        } else {
            IngestFrame::Done.encode()
        };
        self.pos = 0;
    }

    /// The server flushed one whole frame.
    fn receive(&mut self, frame: IngestFrame, written: Instant) {
        match frame {
            IngestFrame::HelloOk => {
                self.hello_ok = Some(written);
                self.queue_next();
            }
            IngestFrame::Ack {
                batch, resident, ..
            } => {
                if batch != self.acked || resident != RESIDENT {
                    self.failures.push(format!(
                        "ack {batch} (expected {}) reports resident {resident} (expected {RESIDENT})",
                        self.acked
                    ));
                }
                if let Some(read) = self.first_read.take() {
                    self.latencies_ns
                        .push(written.saturating_duration_since(read).as_nanos() as u64);
                }
                self.acked += 1;
                self.queue_next();
            }
            IngestFrame::Summary {
                batches,
                balls,
                resident,
                max_load,
                gap,
            } => {
                self.summary = Some(IngestSummary {
                    batches,
                    balls,
                    resident,
                    max_load,
                    gap,
                });
            }
            other => self.failures.push(format!("server sent {other:?}")),
        }
    }
}

struct ClientReader<'a>(&'a RefCell<Client>);
struct ClientWriter<'a>(&'a RefCell<Client>);

impl Read for ClientReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut c = self.0.borrow_mut();
        if c.batch_pending {
            c.batch_pending = false;
            c.first_read = Some(Instant::now());
        }
        let n = buf.len().min(c.inbound.len() - c.pos);
        buf[..n].copy_from_slice(&c.inbound[c.pos..c.pos + n]);
        c.pos += n;
        c.bytes += n as u64;
        Ok(n)
    }
}

impl Write for ClientWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut c = self.0.borrow_mut();
        if c.outbound.is_empty() {
            c.write_start = Some(Instant::now());
        }
        c.outbound.extend_from_slice(buf);
        c.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    /// `serve_ingest` flushes after every frame it writes.
    fn flush(&mut self) -> std::io::Result<()> {
        let mut c = self.0.borrow_mut();
        if c.outbound.is_empty() {
            return Ok(());
        }
        let bytes = std::mem::take(&mut c.outbound);
        let written = c.write_start.take().unwrap_or_else(Instant::now);
        match IngestFrame::decode(&bytes) {
            Ok(frame) => c.receive(frame, written),
            Err(e) => c.failures.push(format!("undecodable server frame: {e}")),
        }
        Ok(())
    }
}

/// What one served session measured.
#[derive(Debug, Clone)]
pub struct Session {
    /// `StreamAllocator::restore` of the warmed snapshot plus the
    /// hello/hello_ok exchange.
    pub setup_ns: u64,
    /// Service time of every batch, in order.
    pub latencies_ns: Vec<u64>,
    /// Ingest frame bytes, both directions.
    pub bytes: u64,
    pub arrivals: u64,
    pub minor_faults: u64,
    pub summary: IngestSummary,
    /// Share of the VM's CPU the hypervisor left it during the session.
    pub kept: f64,
}

impl Session {
    /// The `q`-quantile of this session's batch service times, in ms,
    /// scaled by the CPU share the VM kept during the session.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let ms: Vec<f64> = self
            .latencies_ns
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        self.kept * percentile(&ms, q).unwrap_or(0.0)
    }
}

/// Serve one session of `batches` churn batches from the warmed state
/// and check it: every ack in order reporting `RESIDENT`, and a summary
/// that agrees with both the acks and `serve_ingest`'s own return.
pub fn serve_session(warmed: &Warmed, batches: u64) -> Result<Session, String> {
    let faults_before = host::minor_faults();
    let steal = host::StealWindow::open();
    let start = Instant::now();
    let mut alloc = StreamAllocator::restore(&warmed.snapshot)
        .map_err(|e| format!("snapshot restore failed: {e}"))?;
    let restore_ns = nanos_since(start);
    let meta = alloc.meta();
    let hello = IngestFrame::Hello {
        n: meta.bins,
        seed: meta.seed,
        policy: meta.policy.to_owned(),
    };
    let client = RefCell::new(Client::new(hello, warmed.traffic.clone(), batches));
    let called = Instant::now();
    let served = serve_ingest(
        &mut ClientReader(&client),
        &mut ClientWriter(&client),
        &mut alloc,
    );
    let kept = steal.kept_share();
    let client = client.into_inner();
    let minor_faults = host::minor_faults().saturating_sub(faults_before);
    let served = served.map_err(|e| format!("serve_ingest failed: {e}"))?;
    if let Some(why) = client.failures.first() {
        return Err(why.clone());
    }
    let expected = IngestSummary {
        batches,
        balls: batches * BATCH,
        resident: RESIDENT,
        max_load: served.max_load,
        gap: served.gap,
    };
    if client.summary != Some(served) || served != expected || client.acked != batches {
        return Err(format!(
            "session summary {:?} / served {served:?} after {} acks, expected {expected:?}",
            client.summary, client.acked
        ));
    }
    let hello_ns = client
        .hello_ok
        .map_or(0, |t| t.saturating_duration_since(called).as_nanos() as u64);
    Ok(Session {
        setup_ns: restore_ns + hello_ns,
        latencies_ns: client.latencies_ns,
        bytes: client.bytes,
        arrivals: batches * BATCH,
        minor_faults,
        summary: served,
        kept,
    })
}

/// Every session replays the same batches, so every summary must match.
fn check_session(first: &mut Option<IngestSummary>, s: &Session) -> Result<(), String> {
    match first {
        Some(f) if *f != s.summary => Err(format!(
            "sessions over identical input ended differently: {f:?} vs {:?}",
            s.summary
        )),
        _ => {
            *first = Some(s.summary);
            Ok(())
        }
    }
}

/// Serve one session and count its batches as operations; a failed
/// session fails all of them.
fn step(
    warmed: &Warmed,
    first: &mut Option<IngestSummary>,
    outcome: &mut Outcome,
) -> Option<Session> {
    outcome.attempted += SESSION_BATCHES;
    let result = serve_session(warmed, SESSION_BATCHES).and_then(|s| {
        check_session(first, &s)?;
        Ok(s)
    });
    result
        .map_err(|why| outcome.fail(SESSION_BATCHES, why))
        .ok()
}

/// The timed run: warm once, serve one untimed session, then sessions
/// until `opts.seconds` have passed. Each session's times are scaled by
/// the CPU share the VM kept during it.
pub fn timed(opts: &Opts) -> Outcome {
    let warmed = warm(opts.seed);
    let mut outcome = Outcome::default();
    let mut first = None;
    step(&warmed, &mut first, &mut outcome);
    let mut sessions = Vec::new();
    repeat_for(opts.seconds, 3, |_| {
        sessions.extend(step(&warmed, &mut first, &mut outcome));
    });
    let per_session = |f: &dyn Fn(&Session) -> f64| median_of(sessions.iter().map(f));
    let e2e = EndToEnd {
        balls_per_s: per_session(&|s| {
            s.arrivals as f64 / (s.kept * secs(s.latencies_ns.iter().sum::<u64>()))
        }),
        setup_s: per_session(&|s| s.kept * secs(s.setup_ns)),
        peak_rss_mb: host::peak_rss_mb(),
        batch_p50_ms: per_session(&|s| s.latency_ms(0.5)),
        batch_p90_ms: per_session(&|s| s.latency_ms(0.9)),
        wire_bytes_per_ball: per_session(&|s| s.bytes as f64 / s.arrivals as f64),
    };
    outcome.metrics = e2e.metrics();
    outcome.kept = per_session(&|s| s.kept);
    outcome
}

/// One traced session: the same batches, with the server's layer calls
/// (`IngestFrame::decode`, `StreamAllocator::ingest`,
/// `IngestFrame::encode`) made directly, each in its own span.
pub fn replay_session(
    warmed: &Warmed,
    batches: u64,
    tracer: &mut Tracer,
) -> Result<IngestSummary, String> {
    let mut alloc = tracer
        .span("snapshot", "restore", || {
            StreamAllocator::restore(&warmed.snapshot)
        })
        .map_err(|e| format!("snapshot restore failed: {e}"))?;
    let mut traffic = warmed.traffic.clone();
    for t in 0..batches {
        let payload = tracer.span("stream", "gen", || traffic.next_batch());
        let frame = tracer.span("wire", "encode_batch", || {
            IngestFrame::Batch { batch: t, payload }.encode()
        });
        let payload = match tracer.span("wire", "decode_batch", || IngestFrame::decode(&frame)) {
            Ok(IngestFrame::Batch { batch, payload }) if batch == t => payload,
            other => return Err(format!("batch {t} decoded as {other:?}")),
        };
        tracer.span("stream", "ingest", || alloc.ingest(&payload));
        let ack = tracer.span("wire", "encode_ack", || {
            IngestFrame::Ack {
                batch: t,
                resident: alloc.resident(),
                max_load: alloc.bin_state().max_load(),
            }
            .encode()
        });
        if alloc.resident() != RESIDENT || ack.is_empty() {
            return Err(format!(
                "replayed batch {t} left {} resident (expected {RESIDENT})",
                alloc.resident()
            ));
        }
    }
    tracer.span("snapshot", "encode", || alloc.snapshot());
    Ok(IngestSummary {
        batches,
        balls: batches * BATCH,
        resident: alloc.resident(),
        max_load: alloc.bin_state().max_load(),
        gap: alloc.bin_state().gap(),
    })
}

/// The traced run: served sessions and traced replays alternate until
/// `opts.seconds` have passed. The replays must end exactly where the
/// served sessions do.
pub fn traced(opts: &Opts, tracer: &mut Tracer) -> (Outcome, Layers) {
    let warmed = warm(opts.seed);
    let mut outcome = Outcome::default();
    let mut first = None;
    step(&warmed, &mut first, &mut outcome);
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut sessions = Vec::new();
    repeat_for(opts.seconds, 2, |_| {
        let start = Instant::now();
        if let Some(s) = step(&warmed, &mut first, &mut outcome) {
            plain_walls.push(nanos_since(start) as f64);
            sessions.push(s);
        }
        let root = tracer.enter("bench", "op");
        let replayed = replay_session(&warmed, SESSION_BATCHES, tracer);
        let wall = tracer.exit(root);
        outcome.attempted += SESSION_BATCHES;
        match replayed {
            Ok(summary) if Some(summary) == first => traced_walls.push(wall as f64),
            Ok(summary) => outcome.fail(
                SESSION_BATCHES,
                format!("replay ended at {summary:?}, served sessions at {first:?}"),
            ),
            Err(why) => outcome.fail(SESSION_BATCHES, why),
        }
    });

    let med_of =
        |layer: &str, name: &str| median_of(tracer.durations(layer, name).into_iter().map(secs));
    let latencies: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.latencies_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    let batch_frame = IngestFrame::Batch {
        batch: 0,
        payload: warmed.traffic.clone().next_batch(),
    }
    .encode();
    let mut layers = Layers {
        core_minor_faults: median_of(
            sessions
                .iter()
                .map(|s| s.minor_faults as f64 / SESSION_BATCHES as f64),
        ),
        stream_ingest_s: med_of("stream", "ingest"),
        stream_gen_s: med_of("stream", "gen"),
        wire_decode_s: med_of("wire", "decode_batch"),
        wire_encode_s: med_of("wire", "encode_batch") + med_of("wire", "encode_ack"),
        wire_bytes_per_batch: batch_frame.len() as f64,
        snapshot_restore_s: med_of("snapshot", "restore"),
        snapshot_encode_s: med_of("snapshot", "encode"),
        snapshot_bytes: warmed.snapshot.len() as f64,
        serve_batch_p99_ms: percentile(&latencies, 0.99).unwrap_or(0.0),
        serve_batch_max_ms: percentile(&latencies, 1.0).unwrap_or(0.0),
        ..Layers::default()
    };
    layers.fill_trace(tracer, &plain_walls, &traced_walls);
    // Self times are per served batch, like the other stream/wire times.
    for v in layers.self_s.values_mut() {
        *v /= SESSION_BATCHES as f64;
    }
    layers.trace_unattributed_s /= SESSION_BATCHES as f64;
    (outcome, layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_three_batch_session_ends_where_direct_ingest_does() {
        let warmed = warm(5);
        let session = serve_session(&warmed, 3).expect("session");
        assert_eq!(session.latencies_ns.len(), 3);
        assert!(session.setup_ns > 0);

        let mut alloc = StreamAllocator::restore(&warmed.snapshot).unwrap();
        let mut traffic = warmed.traffic.clone();
        for _ in 0..3 {
            alloc.ingest(&traffic.next_batch());
        }
        let direct = IngestSummary {
            batches: 3,
            balls: 3 * BATCH,
            resident: alloc.resident(),
            max_load: alloc.bin_state().max_load(),
            gap: alloc.bin_state().gap(),
        };
        assert_eq!(session.summary, direct);
        assert_eq!(direct.resident, RESIDENT);

        let mut tracer = Tracer::new();
        assert_eq!(replay_session(&warmed, 3, &mut tracer), Ok(direct));
        assert_eq!(tracer.durations("stream", "ingest").len(), 3);
    }

    #[test]
    fn a_wrong_resident_count_fails_the_session() {
        let mut warmed = warm(6);
        // Growth-only batches push resident past 16n: the first ack fails.
        warmed.traffic.set_churn(0.0);
        let err = serve_session(&warmed, 2).unwrap_err();
        assert!(err.contains("resident"), "{err}");
    }
}
