//! Load generators over plain `TcpStream`s: a closed loop (binary frames at
//! a fixed depth, or blocking HTTP), and an open loop that sends on a
//! schedule whatever the server does.
//!
//! Inside a timed window the generators only write pre-encoded bytes, read,
//! and take timestamps; requests are encoded before it and replies decoded
//! and checked after it.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::layers::{self, BinaryStep, RawReply};

/// A reply that has not come this long after it was asked for never will.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// How often an open-loop receiver looks up from a quiet socket to see
/// whether the run is over.
const RECEIVER_POLL: Duration = Duration::from_millis(50);
/// How long after the last scheduled send an open loop waits for stragglers.
const OPEN_LOOP_GRACE: Duration = Duration::from_secs(2);

/// What the generator saw for each request, by request index. Times are
/// nanoseconds since the run's epoch; 0 means "never".
#[derive(Debug, Default)]
pub struct LoadResult {
    /// When the request was written (closed loop) or actually sent (open).
    pub sent_ns: Vec<u64>,
    /// When its reply had been read.
    pub done_ns: Vec<u64>,
    pub replies: Vec<Option<RawReply>>,
    /// First write to last read of the phase.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Connection-level failures (each also leaves its requests unanswered).
    pub broken: Vec<String>,
    /// CPU the generator's own threads used (they are gone by the time the
    /// caller could look them up under `/proc`).
    pub cpu_us: u64,
}

/// Opens `n` connections to the gateway.
pub fn connect(addr: SocketAddr, n: usize) -> std::io::Result<Vec<TcpStream>> {
    (0..n)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(REPLY_TIMEOUT))?;
            s.set_write_timeout(Some(REPLY_TIMEOUT))?;
            Ok(s)
        })
        .collect()
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn atomics(n: usize) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

fn plain(v: Vec<AtomicU64>) -> Vec<u64> {
    v.into_iter().map(AtomicU64::into_inner).collect()
}

/// What one generator thread brings back: `(request index, reply)` pairs,
/// why its connection failed if it did, and the CPU the thread used.
type Harvest = (Vec<(usize, RawReply)>, Option<String>, u64);

/// Ends a generator thread's work: stamps its CPU time onto its harvest.
fn harvest(got: Vec<(usize, RawReply)>, failure: Option<String>) -> Harvest {
    (got, failure, crate::proc::thread_cpu_us())
}

fn assemble(
    n: usize,
    sent: Vec<AtomicU64>,
    done: Vec<AtomicU64>,
    harvests: Vec<Harvest>,
) -> LoadResult {
    let (sent_ns, done_ns) = (plain(sent), plain(done));
    let mut replies: Vec<Option<RawReply>> = vec![None; n];
    let mut broken = Vec::new();
    let mut cpu_us = 0;
    for (pairs, failure, thread_cpu_us) in harvests {
        for (i, raw) in pairs {
            replies[i] = Some(raw);
        }
        broken.extend(failure);
        cpu_us += thread_cpu_us;
    }
    let start_ns = sent_ns.iter().copied().filter(|&t| t != 0).min().unwrap_or(0);
    let end_ns = done_ns.iter().copied().max().unwrap_or(0).max(start_ns);
    LoadResult { sent_ns, done_ns, replies, start_ns, end_ns, broken, cpu_us }
}

/// Reads whatever the socket has and hands every complete reply frame to
/// `on_frame(request index, reply)`. `Ok(false)` means the read timed out.
fn read_frames(
    mut stream: &TcpStream,
    acc: &mut Vec<u8>,
    chunk: &mut [u8],
    mut on_frame: impl FnMut(usize, RawReply),
) -> Result<bool, String> {
    let n = match stream.read(chunk) {
        Ok(0) => return Err("server closed the connection".into()),
        Ok(n) => n,
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            return Ok(false)
        }
        Err(e) => return Err(format!("read: {e}")),
    };
    acc.extend_from_slice(&chunk[..n]);
    let mut pos = 0;
    loop {
        match layers::next_binary_reply(&acc[pos..]) {
            BinaryStep::NeedMore => break,
            BinaryStep::Frame(corr_id, raw, used) => {
                on_frame(corr_id as usize, raw);
                pos += used;
            }
            BinaryStep::Broken(why) => return Err(why),
        }
    }
    acc.drain(..pos);
    Ok(true)
}

/// Closed loop over binary frames: each connection keeps `depth` requests in
/// flight, taking the next unsent frame whenever a reply lands, until the
/// frames run out or `deadline_ns` passes; then it collects what is owed.
/// `frames[i]` must carry correlation id `i`.
pub fn closed_binary(
    conns: &[TcpStream],
    frames: &[Vec<u8>],
    depth: usize,
    epoch: Instant,
    deadline_ns: u64,
) -> LoadResult {
    let (sent, done) = (atomics(frames.len()), atomics(frames.len()));
    let next = AtomicUsize::new(0);
    let harvests = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let (sent, done, next) = (&sent, &done, &next);
                std::thread::Builder::new()
                    .name(format!("bench-loadgen-{c}"))
                    .spawn_scoped(scope, move || -> Harvest {
                        let mut stream = stream;
                        let mut got = Vec::new();
                        let mut acc = Vec::new();
                        let mut chunk = vec![0u8; 64 * 1024];
                        let mut out = Vec::new();
                        let mut batch = Vec::with_capacity(depth);
                        let (mut in_flight, mut filling) = (0usize, true);
                        loop {
                            out.clear();
                            batch.clear();
                            while filling && in_flight < depth {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= frames.len() || now_ns(epoch) >= deadline_ns {
                                    filling = false;
                                    break;
                                }
                                out.extend_from_slice(&frames[i]);
                                batch.push(i);
                                in_flight += 1;
                            }
                            if !batch.is_empty() {
                                let t = now_ns(epoch);
                                for &i in &batch {
                                    sent[i].store(t, Ordering::Relaxed);
                                }
                                if let Err(e) = stream.write_all(&out) {
                                    return harvest(got, Some(format!("write: {e}")));
                                }
                            }
                            if in_flight == 0 {
                                return harvest(got, None);
                            }
                            let mut landed = 0;
                            let read = read_frames(stream, &mut acc, &mut chunk, |i, raw| {
                                done[i].store(now_ns(epoch), Ordering::Relaxed);
                                got.push((i, raw));
                                landed += 1;
                            });
                            in_flight -= landed.min(in_flight);
                            match read {
                                Ok(true) => {}
                                Ok(false) => return harvest(got, Some("reply timed out".into())),
                                Err(why) => return harvest(got, Some(why)),
                            }
                        }
                    })
                    .expect("spawn load generator thread")
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("load generator panicked")).collect()
    });
    assemble(frames.len(), sent, done, harvests)
}

/// Closed loop over HTTP keep-alive: each connection is one blocking client
/// (write a request, read its response, repeat).
pub fn closed_http(
    conns: &[TcpStream],
    requests: &[Vec<u8>],
    epoch: Instant,
    deadline_ns: u64,
) -> LoadResult {
    let (sent, done) = (atomics(requests.len()), atomics(requests.len()));
    let next = AtomicUsize::new(0);
    let harvests = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let (sent, done, next) = (&sent, &done, &next);
                std::thread::Builder::new()
                    .name(format!("bench-loadgen-{c}"))
                    .spawn_scoped(scope, move || -> Harvest {
                        let mut writer = stream;
                        let mut reader = BufReader::new(stream);
                        let mut got = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= requests.len() || now_ns(epoch) >= deadline_ns {
                                return harvest(got, None);
                            }
                            sent[i].store(now_ns(epoch), Ordering::Relaxed);
                            if let Err(e) = writer.write_all(&requests[i]) {
                                return harvest(got, Some(format!("write: {e}")));
                            }
                            match layers::read_http_reply(&mut reader) {
                                Ok(raw) => {
                                    done[i].store(now_ns(epoch), Ordering::Relaxed);
                                    got.push((i, raw));
                                }
                                Err(why) => return harvest(got, Some(why)),
                            }
                        }
                    })
                    .expect("spawn load generator thread")
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("load generator panicked")).collect()
    });
    assemble(requests.len(), sent, done, harvests)
}

/// Open loop over binary frames: frame `i` is due at `due_ns[i]` (ascending)
/// and goes out on connection `i % connections` then, or at once if that
/// moment has passed — never held back because earlier replies are late. One
/// thread sends; one thread per connection receives.
pub fn open_binary(
    conns: &[TcpStream],
    frames: &[Vec<u8>],
    due_ns: &[u64],
    epoch: Instant,
) -> LoadResult {
    assert_eq!(frames.len(), due_ns.len(), "one due time per frame");
    let (sent, done) = (atomics(frames.len()), atomics(frames.len()));
    let owed: Vec<AtomicI64> = conns.iter().map(|_| AtomicI64::new(0)).collect();
    let all_sent = AtomicBool::new(false);
    let harvests = std::thread::scope(|scope| {
        let receivers: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let (done, owed, all_sent) = (&done, &owed[c], &all_sent);
                std::thread::Builder::new()
                    .name(format!("bench-loadgen-recv-{c}"))
                    .spawn_scoped(scope, move || -> Harvest {
                        let _ = stream.set_read_timeout(Some(RECEIVER_POLL));
                        let mut got = Vec::new();
                        let mut acc = Vec::new();
                        let mut chunk = vec![0u8; 64 * 1024];
                        let mut quiet_since: Option<Instant> = None;
                        let outcome = loop {
                            if all_sent.load(Ordering::Acquire) {
                                if owed.load(Ordering::Acquire) <= 0 {
                                    break None;
                                }
                                let since = *quiet_since.get_or_insert_with(Instant::now);
                                if since.elapsed() > OPEN_LOOP_GRACE {
                                    break Some("replies still owed after the grace period".into());
                                }
                            }
                            let mut landed = 0;
                            let read = read_frames(stream, &mut acc, &mut chunk, |i, raw| {
                                done[i].store(now_ns(epoch), Ordering::Relaxed);
                                got.push((i, raw));
                                landed += 1;
                            });
                            owed.fetch_sub(landed, Ordering::AcqRel);
                            if let Err(why) = read {
                                break Some(why);
                            }
                        };
                        let _ = stream.set_read_timeout(Some(REPLY_TIMEOUT));
                        harvest(got, outcome)
                    })
                    .expect("spawn receiver thread")
            })
            .collect();

        let send_failure = std::thread::Builder::new()
            .name("bench-loadgen-send".into())
            .spawn_scoped(scope, || -> Harvest {
                let mut failure = None;
                for (i, frame) in frames.iter().enumerate() {
                    let now = now_ns(epoch);
                    if now < due_ns[i] {
                        std::thread::sleep(Duration::from_nanos(due_ns[i] - now));
                    }
                    let c = i % conns.len();
                    owed[c].fetch_add(1, Ordering::AcqRel);
                    sent[i].store(now_ns(epoch), Ordering::Relaxed);
                    if let Err(e) = (&conns[c]).write_all(frame) {
                        owed[c].fetch_sub(1, Ordering::AcqRel);
                        sent[i].store(0, Ordering::Relaxed);
                        failure = Some(format!("write: {e}"));
                        break;
                    }
                }
                all_sent.store(true, Ordering::Release);
                harvest(Vec::new(), failure)
            })
            .expect("spawn sender thread")
            .join()
            .expect("sender panicked");
        let mut harvests: Vec<Harvest> =
            receivers.into_iter().map(|r| r.join().expect("receiver panicked")).collect();
        harvests.push(send_failure);
        harvests
    });
    assemble(frames.len(), sent, done, harvests)
}

/// Due times for an open loop: Poisson arrivals (independent users) at each
/// rung's rate for the rung's duration, rungs back to back from time zero.
/// Returns the due times (nanoseconds) and each rung's `[first, last)` index
/// range. Exponential gaps come from the seeded generator, so a seed fixes
/// the schedule as well as the requests.
pub fn schedule(
    rungs: &[(f64, f64)],
    rng: &mut impl rand::Rng,
) -> (Vec<u64>, Vec<std::ops::Range<usize>>) {
    let mut due = Vec::new();
    let mut ranges = Vec::new();
    let mut rung_start = 0.0;
    for &(rate_rps, seconds) in rungs {
        let first = due.len();
        let rung_end = rung_start + seconds * 1e9;
        let mut t = rung_start;
        loop {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate_rps * 1e9;
            if t >= rung_end {
                break;
            }
            due.push(t as u64);
        }
        ranges.push(first..due.len());
        rung_start = rung_end;
    }
    (due, ranges)
}

/// How late each request went out: `sent − due`, for requests that were sent.
pub fn lateness_ns(due_ns: &[u64], sent_ns: &[u64]) -> Vec<u64> {
    due_ns
        .iter()
        .zip(sent_ns)
        .filter(|&(_, &sent)| sent != 0)
        .map(|(&due, &sent)| sent.saturating_sub(due))
        .collect()
}

/// One GET over a fresh connection (the gateway's spare worker serves it).
pub fn http_get(addr: SocketAddr, path: &str) -> Result<Vec<u8>, String> {
    let conns = connect(addr, 1).map_err(|e| format!("connect: {e}"))?;
    (&conns[0]).write_all(&layers::http_get(path)).map_err(|e| format!("write: {e}"))?;
    match layers::read_http_reply(&mut BufReader::new(&conns[0]))? {
        RawReply::Http { status: 200, body } => Ok(body),
        RawReply::Http { status, .. } => Err(format!("GET {path}: status {status}")),
        RawReply::Binary { .. } => unreachable!("read_http_reply yields HTTP replies"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn schedule_has_the_asked_rates_and_is_seeded() {
        let rungs = [(1_000.0, 2.0), (2_000.0, 2.0), (4_000.0, 2.0)];
        let (due, ranges) = schedule(&rungs, &mut StdRng::seed_from_u64(1));
        assert_eq!(ranges.len(), 3);
        assert!(due.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        for (range, &(rate, seconds)) in ranges.iter().zip(&rungs) {
            let want = rate * seconds;
            let got = range.len() as f64;
            assert!((got - want).abs() < 5.0 * want.sqrt(), "rung at {rate}/s sent {got}");
        }
        // Every due time falls inside its own rung.
        assert!(due[ranges[1].start] >= 2_000_000_000);
        assert!(due[ranges[1].end - 1] < 4_000_000_000);
        let (again, _) = schedule(&rungs, &mut StdRng::seed_from_u64(1));
        let (other, _) = schedule(&rungs, &mut StdRng::seed_from_u64(2));
        assert_eq!(due, again);
        assert_ne!(due, other);
    }

    #[test]
    fn lateness_counts_from_the_due_time_and_skips_unsent() {
        // A fake clock: the generator stalled for 700 ns before request 2
        // and caught up after; request 3 was never sent.
        let due = [100, 200, 300, 400];
        let sent = [100, 250, 1_000, 0];
        assert_eq!(lateness_ns(&due, &sent), vec![0, 50, 700]);
        // Sent early (clock skew between threads) counts as on time.
        assert_eq!(lateness_ns(&[500], &[499]), vec![0]);
    }
}
