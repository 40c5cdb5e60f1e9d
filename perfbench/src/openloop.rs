//! Open-loop generator for newline-delimited request/response servers.
//!
//! Requests are sent on a fixed schedule whether or not earlier replies
//! have arrived, so a stalled server receives the load it would get from
//! independent users, and every latency is timed from the moment the
//! request was *due* — the wait a stall imposes on later requests is
//! counted, not omitted.
//!
//! One sender thread writes every connection's requests at their due
//! times; one receiver thread per connection blocks on reads and stamps
//! each reply the instant it arrives. The server answers a connection's
//! lines in order, so the `k`-th reply on a connection pairs with the
//! `k`-th request sent on it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// When the request is due, as an offset from the phase start.
    pub due: Duration,
    /// Which connection carries it.
    pub conn: usize,
    /// The request line, without its newline.
    pub line: String,
    /// Caller-defined request class (e.g. read or write).
    pub class: usize,
    /// Caller-defined tag the reply judge may check (e.g. an agent id).
    pub tag: u64,
}

/// How a reply judged against its request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The request succeeded.
    Ok,
    /// The server refused or failed the request (counts as a failure and
    /// as over any latency limit).
    Failed,
    /// The reply does not belong to the request: pairing or content is
    /// wrong. The run's output check fails.
    Wrong,
}

/// What happened to one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// Due offset from the phase start.
    pub due: Duration,
    /// When the line was actually written (offset from the phase start).
    pub sent: Duration,
    /// When the reply arrived, `None` if it never did.
    pub recv: Option<Duration>,
    /// Reply verdict (`Failed` when no reply arrived).
    pub verdict: Verdict,
    /// The request's class.
    pub class: usize,
}

impl Outcome {
    /// Latency from the due time, or `None` for a failed, wrong, or
    /// unanswered request (which misses every latency limit).
    pub fn latency(&self) -> Option<Duration> {
        match (self.verdict, self.recv) {
            (Verdict::Ok, Some(recv)) => Some(recv.saturating_sub(self.due)),
            _ => None,
        }
    }

    /// How late the generator sent the request.
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// How long the sender sleeps short of a due time before yielding its
/// way up to it: OS sleeps overshoot by tens of microseconds, and an
/// overshoot is generator lateness that would land in every latency.
/// Yielding rather than spinning hands the CPU to any runnable server
/// thread meanwhile.
const SPIN_MARGIN: Duration = Duration::from_micros(80);

/// Sends `plan` (sorted by due time) over `conns` on schedule and collects
/// one [`Outcome`] per request, in plan order.
///
/// Replies still missing `drain` after the last due time count as
/// failed. `judge(request, reply_line)` classifies each reply.
///
/// # Panics
///
/// Panics if a planned request names a connection that does not exist.
pub fn run_phase<J>(
    conns: &[TcpStream],
    plan: &[Planned],
    drain: Duration,
    judge: &J,
) -> Vec<Outcome>
where
    J: Fn(&Planned, &str) -> Verdict,
{
    // Per-connection plan indices, in send order.
    let mut per_conn: Vec<Vec<usize>> = vec![Vec::new(); conns.len()];
    for (i, p) in plan.iter().enumerate() {
        per_conn[p.conn].push(i);
    }
    let last_due = plan.last().map_or(Duration::ZERO, |p| p.due);
    let start = Instant::now();
    let deadline = start + last_due + drain;

    let (sent, replies) = std::thread::scope(|scope| {
        let receivers: Vec<_> = conns
            .iter()
            .zip(&per_conn)
            .map(|(conn, indices)| {
                scope.spawn(move || receive(conn, indices.len(), start, deadline))
            })
            .collect();
        let sent = send(conns, plan, start);
        let replies: Vec<(Vec<u8>, Vec<Duration>)> = receivers
            .into_iter()
            .map(|h| h.join().expect("receiver thread panicked"))
            .collect();
        (sent, replies)
    });

    let mut outcomes: Vec<Outcome> = plan
        .iter()
        .zip(&sent)
        .map(|(p, &sent)| Outcome {
            due: p.due,
            sent,
            recv: None,
            verdict: Verdict::Failed,
            class: p.class,
        })
        .collect();
    for (indices, (bytes, stamps)) in per_conn.iter().zip(replies) {
        let lines = bytes.split(|b| *b == b'\n').zip(stamps);
        for (k, (line, recv)) in lines.enumerate() {
            // A reply beyond the requests sent breaks the pairing.
            let Some(&i) = indices.get(k) else {
                if let Some(&last) = indices.last() {
                    outcomes[last].verdict = Verdict::Wrong;
                }
                break;
            };
            outcomes[i].recv = Some(recv);
            outcomes[i].verdict = match std::str::from_utf8(line) {
                Ok(text) => judge(&plan[i], text),
                Err(_) => Verdict::Wrong,
            };
        }
    }
    outcomes
}

/// The sender: writes each request once it is due, batching every line
/// already due into one write per connection. Returns send offsets.
fn send(conns: &[TcpStream], plan: &[Planned], start: Instant) -> Vec<Duration> {
    let mut sent = vec![Duration::ZERO; plan.len()];
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); conns.len()];
    let mut writers: Vec<&TcpStream> = conns.iter().collect();
    let mut next = 0;
    while next < plan.len() {
        let due = plan[next].due;
        let mut now = start.elapsed();
        if now < due {
            let wait = due - now;
            if wait > SPIN_MARGIN {
                std::thread::sleep(wait - SPIN_MARGIN);
            }
            while start.elapsed() < due {
                std::thread::yield_now();
            }
            now = start.elapsed();
        }
        let first = next;
        while next < plan.len() && plan[next].due <= now {
            let p = &plan[next];
            bufs[p.conn].extend_from_slice(p.line.as_bytes());
            bufs[p.conn].push(b'\n');
            next += 1;
        }
        for slot in &mut sent[first..next] {
            *slot = now;
        }
        for (writer, buf) in writers.iter_mut().zip(&mut bufs) {
            if !buf.is_empty() {
                // A failed write surfaces as missing replies.
                let _ = writer.write_all(buf);
                buf.clear();
            }
        }
    }
    sent
}

/// A receiver: reads replies off one connection until `expected` lines
/// arrived or the deadline passed. It only stamps each line's arrival
/// and keeps the bytes; judging waits until the phase is over, so the
/// generator spends as little CPU as possible while the server is
/// measured.
fn receive(
    conn: &TcpStream,
    expected: usize,
    start: Instant,
    deadline: Instant,
) -> (Vec<u8>, Vec<Duration>) {
    let mut bytes: Vec<u8> = Vec::with_capacity(expected * 64);
    let mut stamps = Vec::with_capacity(expected);
    let mut reader = conn;
    // Only bounds the wait for a reply that never comes; a reply that
    // does arrive wakes the read at once, so stamps stay exact.
    let _ = conn.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = vec![0u8; 1 << 16];
    while stamps.len() < expected && Instant::now() < deadline {
        let n = match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => break,
        };
        let now = start.elapsed();
        let lines = buf[..n].iter().filter(|b| **b == b'\n').count();
        stamps.extend(std::iter::repeat_n(now, lines));
        bytes.extend_from_slice(&buf[..n]);
    }
    (bytes, stamps)
}

/// In-flight requests (sent, not yet answered) at offset `t`.
pub fn inflight_at(outcomes: &[Outcome], t: Duration) -> usize {
    outcomes
        .iter()
        .filter(|o| o.sent <= t && o.recv.is_none_or(|r| r > t))
        .count()
}

/// The largest number of requests in flight at any instant.
pub fn inflight_max(outcomes: &[Outcome]) -> usize {
    // +1 at each send, -1 at each reply; sends sort before replies at the
    // same instant so the peak is never under-counted.
    let mut events: Vec<(Duration, i8)> = Vec::with_capacity(outcomes.len() * 2);
    for o in outcomes {
        events.push((o.sent, 0));
        if let Some(r) = o.recv {
            events.push((r, 1));
        }
    }
    events.sort();
    let mut live = 0i64;
    let mut peak = 0i64;
    for (_, kind) in events {
        live += if kind == 0 { 1 } else { -1 };
        peak = peak.max(live);
    }
    peak as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A scripted stub server: echoes each line back as `ok <line>`, one
    /// connection at a time, and stalls for `stall` before answering the
    /// line numbered `stall_at`.
    fn stub(
        stall_at: usize,
        stall: Duration,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let reader = BufReader::new(stream);
            for (n, line) in reader.lines().enumerate() {
                let Ok(line) = line else { return };
                if n == stall_at {
                    std::thread::sleep(stall);
                }
                if writeln!(writer, "ok {line}").is_err() {
                    return;
                }
            }
        });
        (addr, handle)
    }

    fn plan(n: usize, every: Duration) -> Vec<Planned> {
        (0..n)
            .map(|i| Planned {
                due: every * i as u32,
                conn: 0,
                line: format!("req-{i}"),
                class: i % 2,
                tag: i as u64,
            })
            .collect()
    }

    fn judge(p: &Planned, reply: &str) -> Verdict {
        if reply == format!("ok {}", p.line) {
            Verdict::Ok
        } else {
            Verdict::Wrong
        }
    }

    #[test]
    fn a_stall_shows_in_the_requests_due_after_it() {
        let stall = Duration::from_millis(60);
        let (addr, server) = stub(10, stall);
        let conn = TcpStream::connect(addr).unwrap();
        conn.set_nodelay(true).unwrap();
        let every = Duration::from_millis(2);
        let plan = plan(60, every);
        let out = run_phase(
            std::slice::from_ref(&conn),
            &plan,
            Duration::from_secs(5),
            &judge,
        );
        drop(conn);
        server.join().unwrap();

        assert_eq!(out.len(), 60);
        assert!(out.iter().all(|o| o.verdict == Verdict::Ok), "{out:?}");
        let lat: Vec<Duration> = out.iter().map(|o| o.latency().unwrap()).collect();
        // Requests before the stall are fast.
        assert!(
            lat[..10].iter().all(|l| *l < Duration::from_millis(20)),
            "{lat:?}"
        );
        // The stalled request waits the full stall.
        assert!(lat[10] >= stall, "{lat:?}");
        // Requests due during the stall were sent on time (open loop) and
        // queued behind it; timed from their due times they show the
        // remaining stall, shrinking by one send interval each. A closed
        // loop would have sent them late and reported them fast.
        for k in 1..20 {
            let expected = stall.saturating_sub(every * k as u32);
            assert!(
                lat[10 + k] + Duration::from_millis(3) >= expected,
                "request {} latency {:?} < expected {:?}",
                10 + k,
                lat[10 + k],
                expected
            );
            assert!(
                out[10 + k].late() < Duration::from_millis(5),
                "{:?}",
                out[10 + k]
            );
        }
        // Long after the stall drained, latency is small again.
        assert!(lat[59] < Duration::from_millis(20), "{lat:?}");
        // The stall piled up requests in flight.
        assert!(inflight_max(&out) >= 20, "{}", inflight_max(&out));
    }

    #[test]
    fn mismatched_replies_are_wrong_and_missing_ones_fail() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            // Answer the first request with garbage, then go silent.
            reader.read_line(&mut line).unwrap();
            writeln!(writer, "nonsense").unwrap();
            std::thread::sleep(Duration::from_millis(400));
        });
        let conn = TcpStream::connect(addr).unwrap();
        let plan = plan(3, Duration::from_millis(1));
        let out = run_phase(
            std::slice::from_ref(&conn),
            &plan,
            Duration::from_millis(150),
            &judge,
        );
        server.join().unwrap();
        assert_eq!(out[0].verdict, Verdict::Wrong);
        assert_eq!(out[1].verdict, Verdict::Failed);
        assert_eq!(out[2].verdict, Verdict::Failed);
        assert!(out.iter().all(|o| o.latency().is_none()));
        assert_eq!(inflight_at(&out, Duration::from_millis(100)), 2);
    }
}
