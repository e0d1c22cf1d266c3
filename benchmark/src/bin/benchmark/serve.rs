//! The `serve-*` workloads: range queries answered by the `stpt-serve`
//! daemon over real loopback sockets. The daemon runs in this process
//! via [`stpt_serve::serve`], set up as the `stpt-serve` binary sets it
//! up; a closed-loop load generator with one client thread per CPU
//! drives it, so the load never needs more connections than `nproc`.

use crate::context::nproc;
use crate::report::{field, Counts, Report};
use crate::stats::{median, ClientWindows, Summary, WindowSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stpt_queries::{generate_queries, QueryClass, RangeQuery};
use stpt_serve::{serve, CachedRelease, ReleaseCache, ReleaseSpec, ServeHandle, ServerState};

/// Traffic mix of one serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `GET /query` with one Random-class range per connection.
    Point,
    /// `POST /query` with 1024 Random-class ranges per body.
    Batch,
    /// Point GETs (1 in 20 hostile) and 64-query POSTs, three to one, with
    /// operator polling of `/releases` (every 100 ms) and `/metrics`
    /// (every 1 s) from one client.
    Mixed,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests per client pool; clients cycle through their pool.
const POINT_POOL: usize = 4096;
const BATCH_POOL: usize = 16;
const BATCH64_POOL: usize = 64;
/// One request in this many (every pool holds a multiple of it) has its
/// answers compared bit for bit with the engine's.
const CHECK_ONE_IN: usize = 16;
/// One point query in this many in `serve-mixed` is hostile.
const HOSTILE_ONE_IN: u32 = 20;
const RELEASES_EVERY: Duration = Duration::from_millis(100);
const METRICS_EVERY: Duration = Duration::from_secs(1);
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The served release: CER at the paper's 32×32×220, ε_tot = 30 split
/// 1/3 : 2/3 as `stpt-serve --eps 30` splits it, post-processed; or the
/// daemon's 8×8×16 smoke release.
pub fn spec(seed: u64, quick: bool) -> ReleaseSpec {
    let eps_total = 30.0;
    ReleaseSpec {
        dataset: "CER".to_string(),
        grid: if quick { 8 } else { 32 },
        hours: if quick { 16 } else { 220 },
        eps_pattern: eps_total / 3.0,
        eps_sanitize: eps_total * 2.0 / 3.0,
        seed,
        postprocess: true,
        smoke: quick,
    }
}

/// Live telemetry and its 1 s collector, as `stpt-serve`'s `main` turns
/// them on before building releases.
pub fn enable_live_telemetry() {
    stpt_obs::set_live_enabled(true);
    stpt_obs::timeseries::start_collector(Duration::from_secs(1));
}

/// Serve `cache` on an ephemeral loopback port with one acceptor per CPU
/// and wait for the first `/healthz` 200.
pub fn start_daemon(cache: ReleaseCache) -> Result<ServeHandle, String> {
    let handle = serve(Arc::new(ServerState::new(cache)), "127.0.0.1:0", nproc())
        .map_err(|e| e.to_string())?;
    let deadline = Instant::now() + IO_TIMEOUT;
    let healthz = get_request("/healthz");
    while Instant::now() < deadline {
        if matches!(round_trip(handle.addr, &healthz), Ok((200, _))) {
            return Ok(handle);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    stop(handle);
    Err("daemon never answered /healthz".to_string())
}

/// Shut the daemon down and wait for every acceptor to exit.
pub fn stop(handle: ServeHandle) {
    handle.shutdown();
    if let Err(e) = handle.join() {
        eprintln!("benchmark: daemon shutdown: {e}");
    }
}

/// One connection: send `request`, read the response until the daemon
/// closes. Returns the status code and body.
pub fn round_trip(addr: SocketAddr, request: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream.write_all(request).map_err(|e| e.to_string())?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| e.to_string())?;
    let status = response
        .get(9..12)
        .and_then(|s| std::str::from_utf8(s).ok())
        .and_then(|s| s.parse().ok())
        .ok_or("response without a status line")?;
    let body_at = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(response.len(), |p| p + 4);
    Ok((status, response.split_off(body_at)))
}

pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

pub fn point_request(q: &RangeQuery) -> Vec<u8> {
    get_request(&format!(
        "/query?x0={}&x1={}&y0={}&y1={}&t0={}&t1={}",
        q.x.0, q.x.1, q.y.0, q.y.1, q.t.0, q.t.1
    ))
}

pub fn batch_request(queries: &[RangeQuery]) -> Vec<u8> {
    let items: Vec<String> = queries
        .iter()
        .map(|q| {
            format!(
                "{{\"x\":[{},{}],\"y\":[{},{}],\"t\":[{},{}]}}",
                q.x.0, q.x.1, q.y.0, q.y.1, q.t.0, q.t.1
            )
        })
        .collect();
    let body = format!("{{\"queries\":[{}]}}", items.join(","));
    format!(
        "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// What a response must be for the request to count as answered.
#[derive(Debug, Clone)]
enum Expect {
    /// 200; for a sampled request, the `sum` bit-equal to the engine's.
    Point(Option<f64>),
    /// 200; for a sampled request, every `sum` bit-equal to the engine's.
    Batch(Option<Vec<f64>>),
    /// 400: a hostile query must be refused.
    Refused,
    /// 200 with a verified, ε-free proof for every release.
    Releases,
    /// 200 with a non-empty exposition.
    Metrics,
}

#[derive(Debug, Clone)]
struct Request {
    class: &'static str,
    bytes: Vec<u8>,
    expect: Expect,
}

/// Bitwise equality, except that the daemon's JSON encoder writes an
/// integral value such as -0.0 without its sign.
fn same_answer(got: f64, want: f64) -> bool {
    got.to_bits() == want.to_bits() || (got == 0.0 && want == 0.0)
}

fn engine_answer(release: &CachedRelease, q: &RangeQuery) -> f64 {
    release.prefix.try_range_sum(q).unwrap_or(f64::NAN)
}

/// The requests one client cycles through, built before the timed window
/// from the run seed and the client's index. In `serve-mixed` every
/// client sends three point GETs per 64-query POST, so the mix does not
/// drift with the relative speed of the two kinds and the median stays
/// inside the point-query mode.
fn plan(mix: Mix, release: &CachedRelease, seed: u64, client: usize) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ (0xbe0c_u64 << 32) ^ client as u64);
    match mix {
        Mix::Point => points(release, &mut rng, false),
        Mix::Batch => batches(release, &mut rng, BATCH_POOL, 1024),
        Mix::Mixed => {
            let batches = batches(release, &mut rng, BATCH64_POOL, 64);
            let mut plan = Vec::new();
            for (i, point) in points(release, &mut rng, true).into_iter().enumerate() {
                plan.push(point);
                if i % 3 == 2 {
                    plan.push(batches[(i / 3) % batches.len()].clone());
                }
            }
            plan
        }
    }
}

/// Requests to check: one residue class, chosen by the seed, of each pool.
fn sampler(rng: &mut StdRng) -> impl Fn(usize) -> bool {
    let offset = rng.gen_range(0..CHECK_ONE_IN);
    move |i| i % CHECK_ONE_IN == offset
}

/// Point GETs over Random-class ranges; with `hostile`, one in
/// [`HOSTILE_ONE_IN`] asks for an inverted or out-of-range box instead.
fn points(release: &CachedRelease, rng: &mut StdRng, hostile: bool) -> Vec<Request> {
    let shape = release.shape;
    let sampled = sampler(rng);
    generate_queries(QueryClass::Random, POINT_POOL, shape, rng)
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            if hostile && rng.gen_range(0..HOSTILE_ONE_IN) == 0 {
                let bad = if rng.gen_bool(0.5) {
                    RangeQuery {
                        x: (q.x.1, q.x.0),
                        ..q
                    }
                } else {
                    RangeQuery {
                        t: (q.t.0, shape.2 + 5),
                        ..q
                    }
                };
                return Request {
                    class: "hostile",
                    bytes: point_request(&bad),
                    expect: Expect::Refused,
                };
            }
            Request {
                class: "point",
                bytes: point_request(&q),
                expect: Expect::Point(sampled(i).then(|| engine_answer(release, &q))),
            }
        })
        .collect()
}

/// `n` POST bodies of `size` Random-class ranges each.
fn batches(release: &CachedRelease, rng: &mut StdRng, n: usize, size: usize) -> Vec<Request> {
    let sampled = sampler(rng);
    (0..n)
        .map(|i| {
            let queries = generate_queries(QueryClass::Random, size, release.shape, rng);
            let check =
                sampled(i).then(|| queries.iter().map(|q| engine_answer(release, q)).collect());
            Request {
                class: "batch",
                bytes: batch_request(&queries),
                expect: Expect::Batch(check),
            }
        })
        .collect()
}

fn parse_json(body: &[u8]) -> Option<Value> {
    serde_json::from_str(std::str::from_utf8(body).ok()?).ok()
}

/// Outcome of one response: the request failed (wrong status, I/O
/// error, timeout), or it was answered and, if checked, `Some(correct)`.
enum Verdict {
    Failed(String),
    Answered(Option<bool>),
}

fn judge(expect: &Expect, response: Result<(u16, Vec<u8>), String>) -> Verdict {
    let (status, body) = match response {
        Ok(r) => r,
        Err(e) => return Verdict::Failed(e),
    };
    let want_status = if matches!(expect, Expect::Refused) {
        400
    } else {
        200
    };
    if status != want_status {
        return Verdict::Failed(format!("status {status}, expected {want_status}"));
    }
    Verdict::Answered(match expect {
        Expect::Point(None) | Expect::Batch(None) | Expect::Refused => None,
        Expect::Point(Some(want)) => Some(
            parse_json(&body)
                .and_then(|v| field(&v, "sum")?.as_f64())
                .is_some_and(|got| same_answer(got, *want)),
        ),
        Expect::Batch(Some(want)) => Some(
            parse_json(&body)
                .and_then(|v| {
                    let answers = field(&v, "answers")?.as_array()?;
                    Some(
                        answers.len() == want.len()
                            && answers.iter().zip(want).all(|(a, w)| {
                                field(a, "sum")
                                    .and_then(Value::as_f64)
                                    .is_some_and(|got| same_answer(got, *w))
                            }),
                    )
                })
                .unwrap_or(false),
        ),
        Expect::Releases => Some(
            parse_json(&body)
                .and_then(|v| {
                    let releases = v.as_array()?;
                    Some(
                        !releases.is_empty()
                            && releases.iter().all(|r| {
                                let proof = field(r, "proof");
                                proof.and_then(|p| field(p, "verified")) == Some(&Value::Bool(true))
                                    && proof
                                        .and_then(|p| field(p, "epsilon_spent_serving"))
                                        .and_then(Value::as_f64)
                                        .is_some_and(|e| e.to_bits() == 0.0f64.to_bits())
                            }),
                    )
                })
                .unwrap_or(false),
        ),
        Expect::Metrics => Some(!body.is_empty()),
    })
}

/// What the clients of one closed-loop run saw.
#[derive(Debug, Default)]
pub struct Load {
    /// Timed latencies, summarised over whole one-second windows.
    pub summary: Summary,
    pub counts: BTreeMap<&'static str, Counts>,
    /// Sampled answers compared, and how many differed.
    pub checked: u64,
    pub wrong: u64,
    /// First failure seen, for the report.
    pub first_error: Option<String>,
}

impl Load {
    fn merge(&mut self, other: Load) {
        for (class, c) in other.counts {
            let mine = self.counts.entry(class).or_default();
            mine.attempted += c.attempted;
            mine.failed += c.failed;
        }
        self.checked += other.checked;
        self.wrong += other.wrong;
        self.first_error = self.first_error.take().or(other.first_error);
    }

    /// Add the request counts and answer checks to `report`.
    pub fn record(&self, report: &mut Report, label: &str) {
        for (class, c) in &self.counts {
            report.count(class, *c);
        }
        report.check(
            format!("{label}answers_match_engine"),
            self.checked > 0 && self.wrong == 0,
            format!(
                "{} of {} sampled responses differ",
                self.wrong, self.checked
            ),
        );
        if let Some(e) = &self.first_error {
            report.note_text(format!("{label}first_error"), e.clone());
        }
    }
}

/// One client's closed loop: send the next request as soon as the last
/// one completes, from now until `end`; time those sent after `start`.
/// Only `polls` clients send the operator's `/releases` and `/metrics`.
fn client(
    addr: SocketAddr,
    requests: &[Request],
    polls: bool,
    mut samples: ClientWindows,
    start: Instant,
    end: Instant,
) -> Load {
    let releases = Request {
        class: "releases",
        bytes: get_request("/releases"),
        expect: Expect::Releases,
    };
    let metrics = Request {
        class: "metrics",
        bytes: get_request("/metrics"),
        expect: Expect::Metrics,
    };
    let mut next_releases = Instant::now() + RELEASES_EVERY;
    let mut next_metrics = Instant::now() + METRICS_EVERY;
    let mut load = Load::default();
    let mut next = 0;
    loop {
        let t0 = Instant::now();
        if t0 >= end {
            break;
        }
        let req = if polls && t0 >= next_releases {
            while next_releases <= t0 {
                next_releases += RELEASES_EVERY;
            }
            &releases
        } else if polls && t0 >= next_metrics {
            while next_metrics <= t0 {
                next_metrics += METRICS_EVERY;
            }
            &metrics
        } else {
            next += 1;
            &requests[(next - 1) % requests.len()]
        };
        let response = round_trip(addr, &req.bytes);
        let t1 = Instant::now();
        let counts = load.counts.entry(req.class).or_default();
        counts.attempted += 1;
        match judge(&req.expect, response) {
            Verdict::Failed(e) => {
                counts.failed += 1;
                load.first_error
                    .get_or_insert(format!("{}: {e}", req.class));
            }
            Verdict::Answered(checked) => {
                if let Some(ok) = checked {
                    load.checked += 1;
                    load.wrong += u64::from(!ok);
                }
                if t0 >= start {
                    samples.push((t1 - start).as_secs() as usize, t1 - t0);
                }
            }
        }
    }
    samples.finish();
    load
}

/// Drive the daemon at `addr` with `mix` for `warmup + seconds`,
/// timing the last `seconds`, with one client thread per CPU.
pub fn drive(
    mix: Mix,
    addr: SocketAddr,
    release: &CachedRelease,
    seed: u64,
    warmup: f64,
    seconds: f64,
) -> Load {
    let plans: Vec<Vec<Request>> = (0..nproc()).map(|c| plan(mix, release, seed, c)).collect();
    let start = Instant::now() + Duration::from_secs_f64(warmup);
    let end = start + Duration::from_secs_f64(seconds);
    let sink = WindowSink::new(plans.len());
    let mut total = Load::default();
    // xtask-allow(XT07): load-generator clients are the benchmark's own threads, each blocking on a socket; they are not data-parallel work for the rayon seam
    std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, reqs)| {
                let polls = mix == Mix::Mixed && c == 0;
                let samples = ClientWindows::new(&sink);
                scope.spawn(move || client(addr, reqs, polls, samples, start, end))
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("client thread panicked"));
        }
    });
    total.summary = sink.summarize(seconds.floor() as usize);
    total
}

/// Run one serving workload: set the daemon up [`SETUPS`] times, keep
/// the last one, warm up 2 s, measure `seconds`, shut down, and prove the
/// serving window ε-free.
pub fn measure(mix: Mix, seed: u64, seconds: f64, quick: bool, report: &mut Report) {
    enable_live_telemetry();
    let spec = spec(seed, quick);
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut totals = Vec::new();
    let mut daemon: Option<(Arc<CachedRelease>, ServeHandle)> = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let mut cache = ReleaseCache::new();
        let built = cache.insert(&spec);
        builds.push(t0.elapsed().as_secs_f64());
        let up = built
            .map_err(|e| e.to_string())
            .and_then(|release| Ok((release, start_daemon(cache)?)));
        setups.push(t0.elapsed().as_secs_f64());
        if let Some((_, previous)) = daemon.take() {
            stop(previous);
        }
        match up {
            Ok((release, handle)) => {
                totals.push(release.prefix.total().to_bits());
                daemon = Some((release, handle));
            }
            Err(e) => return report.check("daemon_setup", false, e),
        }
    }
    report.check(
        "setup_is_deterministic",
        totals.windows(2).all(|w| w[0] == w[1]),
        "every set-up built a release with the same total",
    );
    let (release, handle) = daemon.expect("SETUPS > 0");
    report.note("peak_rss_after_setup_mb", crate::context::peak_rss_mb());
    let warmup = if quick { 0.2 } else { 2.0 };
    let load = drive(mix, handle.addr, &release, seed, warmup, seconds);
    stop(handle);
    load.record(report, "");
    verify_zero_spend(&release, report);

    let summary = load.summary;
    report.metric("setup_s", median(&setups), "s");
    report.metric("stpt_release_s", median(&builds), "s");
    report.metric("throughput_per_s", summary.throughput, "1/s");
    report.metric("latency_p50_ms", summary.p50_ms, "ms");
    report.metric("latency_p99_ms", summary.p99_ms, "ms");
    report.note("timed_requests", summary.samples as f64);
    report.note("p99_windows", summary.p99_windows as f64);
}

/// Close the serving bracket: the proof must verify and serving must
/// have spent exactly zero ε.
pub fn verify_zero_spend(release: &CachedRelease, report: &mut Report) {
    match release.prove() {
        Ok(p) => report.check(
            "serving_is_epsilon_free",
            p.verified && p.epsilon_spent_serving.to_bits() == 0.0f64.to_bits(),
            format!(
                "epsilon_spent_serving {} over {} stages",
                p.epsilon_spent_serving, p.stages
            ),
        ),
        Err(e) => report.check("serving_is_epsilon_free", false, e),
    }
}
