//! Order statistics over measured samples.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Median, as Python's `statistics.median` defines it: the mean of the
/// two middle values of an even-length sample. `NaN` for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 0 => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        n => v[n / 2],
    }
}

/// Nearest-rank percentile `p` (in `0..=100`) of an ascending sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// A window's p99 counts only when at least this many samples lie beyond
/// it, so a single slow request cannot stand for a whole window.
const SAMPLES_BEYOND_P99: usize = 10;

/// Order statistics of the requests all clients completed in one
/// one-second window.
#[derive(Debug, Clone, Copy)]
struct WindowStat {
    window: usize,
    count: usize,
    p50_ms: f64,
    p99_ms: f64,
}

impl WindowStat {
    fn of(window: usize, mut ms: Vec<f64>) -> Self {
        ms.sort_by(f64::total_cmp);
        WindowStat {
            window,
            count: ms.len(),
            p50_ms: median(&ms),
            p99_ms: nearest_rank(&ms, 99.0),
        }
    }
}

#[derive(Debug, Default)]
struct SinkState {
    /// Windows some client has not handed in yet: clients handed in so
    /// far, and their samples (ms).
    open: BTreeMap<usize, (usize, Vec<f64>)>,
    closed: Vec<WindowStat>,
}

/// Latencies of a closed-loop run, pooled over clients and summarised one
/// one-second window at a time. Each client hands in a window's samples
/// when it moves past the window; the last one to do so summarises it. So
/// only open windows are held, and the load generator's memory does not
/// grow with throughput or run length, and cannot move `peak_rss_mb`.
/// Pooling matters: on a small machine one client is often descheduled
/// and twice as slow as another, and a median per client would land
/// between the two.
#[derive(Debug)]
pub struct WindowSink {
    clients: usize,
    windows: Mutex<SinkState>,
}

impl WindowSink {
    pub fn new(clients: usize) -> Self {
        WindowSink {
            clients,
            windows: Mutex::default(),
        }
    }

    fn hand_in(&self, window: usize, samples: &mut Vec<f64>) {
        let mut state = self
            .windows
            .lock()
            .expect("no client panics while holding the sink");
        let (handed, pooled) = state.open.entry(window).or_default();
        *handed += 1;
        pooled.append(samples);
        if *handed == self.clients {
            let (_, pooled) = state.open.remove(&window).expect("entry exists");
            state.closed.push(WindowStat::of(window, pooled));
        }
    }

    /// Summarise the first `full_windows` windows (later completions
    /// straddle the end of the run).
    pub fn summarize(self, full_windows: usize) -> Summary {
        let mut state = self.windows.into_inner().expect("clients have finished");
        let leftover = std::mem::take(&mut state.open);
        for (window, (_, pooled)) in leftover {
            state.closed.push(WindowStat::of(window, pooled));
        }
        let counts: Vec<f64> = (0..full_windows)
            .map(|w| {
                state
                    .closed
                    .iter()
                    .filter(|s| s.window == w)
                    .map(|s| s.count as f64)
                    .sum()
            })
            .collect();
        // Latency statistics exist only for windows with completions.
        let stats: Vec<WindowStat> = state
            .closed
            .into_iter()
            .filter(|s| s.window < full_windows && s.count > 0)
            .collect();
        let p50s: Vec<f64> = stats.iter().map(|s| s.p50_ms).collect();
        let qualified: Vec<f64> = stats
            .iter()
            .filter(|s| s.count >= SAMPLES_BEYOND_P99 * 100)
            .map(|s| s.p99_ms)
            .collect();
        let p99_windows = qualified.len();
        let p99_ms = if qualified.is_empty() {
            median(&stats.iter().map(|s| s.p99_ms).collect::<Vec<_>>())
        } else {
            median(&qualified)
        };
        Summary {
            throughput: median(&counts),
            p50_ms: median(&p50s),
            p99_ms,
            p99_windows,
            samples: counts.iter().sum::<f64>() as usize,
        }
    }
}

/// One client's view of a [`WindowSink`]: the samples of its open window.
#[derive(Debug)]
pub struct ClientWindows<'a> {
    sink: &'a WindowSink,
    open: usize,
    samples_ms: Vec<f64>,
}

impl<'a> ClientWindows<'a> {
    pub fn new(sink: &'a WindowSink) -> Self {
        ClientWindows {
            sink,
            open: 0,
            samples_ms: Vec::new(),
        }
    }

    /// Record one latency that completed in window `w` (windows only
    /// move forward).
    pub fn push(&mut self, w: usize, latency: std::time::Duration) {
        while self.open < w {
            self.sink.hand_in(self.open, &mut self.samples_ms);
            self.open += 1;
        }
        self.samples_ms.push(latency.as_secs_f64() * 1e3);
    }

    /// Hand in the open window.
    pub fn finish(mut self) {
        self.sink.hand_in(self.open, &mut self.samples_ms);
    }
}

/// Medians over the one-second windows of a closed-loop run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Median over windows of the requests completed in the window, per
    /// second.
    pub throughput: f64,
    /// Median over windows of the window's median latency, ms.
    pub p50_ms: f64,
    /// Median over windows of the window's nearest-rank p99, ms, over the
    /// windows with at least [`SAMPLES_BEYOND_P99`] samples beyond their
    /// p99. When none has (short smoke runs), over all windows, and
    /// `p99_windows` is zero.
    pub p99_ms: f64,
    pub p99_windows: usize,
    /// Requests in the summarised windows.
    pub samples: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn nearest_rank_p99_of_small_samples_is_the_maximum() {
        assert_eq!(nearest_rank(&[1.0, 5.0], 99.0), 5.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 99.0), 990.0);
        assert_eq!(nearest_rank(&v, 50.0), 500.0);
    }

    fn run(clients: &[&[&[u64]]], full_windows: usize) -> Summary {
        let sink = WindowSink::new(clients.len());
        for windows in clients {
            let mut c = ClientWindows::new(&sink);
            for (w, lat) in windows.iter().enumerate() {
                for &ms in *lat {
                    c.push(w, std::time::Duration::from_millis(ms));
                }
            }
            c.finish();
        }
        sink.summarize(full_windows)
    }

    #[test]
    fn windows_pool_every_client_before_taking_medians() {
        let full: Vec<u64> = (0..1000).collect();
        let slow: Vec<u64> = (1000..1500).collect();
        let s = run(&[&[&full, &full, &[7]], &[&slow, &slow, &[7]]], 2);
        assert_eq!(s.throughput, 1500.0);
        // Pooled, the slow client's 500 requests shift the median to the
        // 750th of 1500 values, not to the middle of the two clients.
        assert_eq!(s.p50_ms, 749.5);
        assert_eq!(s.p99_ms, 1484.0);
        assert_eq!(s.p99_windows, 2);
        assert_eq!(s.samples, 3000);
    }

    #[test]
    fn sparse_and_skipped_windows_still_summarise() {
        let s = run(&[&[&[1, 3], &[], &[2, 4]]], 3);
        assert_eq!(s.throughput, 2.0);
        assert_eq!(s.p50_ms, 2.5);
        assert_eq!((s.p99_ms, s.p99_windows), (3.5, 0));
        assert_eq!(s.samples, 4);
    }
}
