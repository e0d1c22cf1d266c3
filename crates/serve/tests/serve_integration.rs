//! End-to-end tests over a real daemon on a loopback socket: boot,
//! query (benign and hostile), scrape, prove ε-freeness, shut down
//! cleanly — and pin that concurrent clients on several acceptors get
//! byte-identical answers.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use stpt_serve::{serve, CachedRelease, ReleaseCache, ReleaseSpec, ServeHandle, ServerState};

/// One smoke release, sanitized once for the whole test binary. Sharing
/// the `Arc` is safe: serving is read-only over the prefix table, and
/// every test asserts proof fields that are monotone across daemons.
fn release() -> Arc<CachedRelease> {
    static RELEASE: OnceLock<Arc<CachedRelease>> = OnceLock::new();
    Arc::clone(RELEASE.get_or_init(|| {
        let spec = ReleaseSpec {
            grid: 8,
            hours: 16,
            seed: 7,
            smoke: true,
            ..ReleaseSpec::default()
        };
        Arc::new(spec.build().expect("smoke release builds"))
    }))
}

fn boot(acceptors: usize) -> ServeHandle {
    // Live telemetry on, so /metrics has families to render. Never
    // switched back off: tests in this binary run concurrently.
    stpt_obs::set_live_enabled(true);
    let mut cache = ReleaseCache::new();
    cache.insert_prebuilt(release());
    let state = Arc::new(ServerState::new(cache));
    serve(state, "127.0.0.1:0", acceptors).expect("bind loopback")
}

/// Send one raw request, return the full response (headers + body).
fn http(addr: SocketAddr, raw: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read response");
    out
}

fn get(addr: SocketAddr, path: &str) -> String {
    http(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> String {
    http(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// The body of a raw HTTP response.
fn body(response: &str) -> &str {
    response.split_once("\r\n\r\n").map_or("", |(_, b)| b)
}

/// Check a `GET /releases` body: every release's proof verified, and its
/// `epsilon_spent_serving` is bitwise `+0.0`. The value is parsed and its
/// bits compared, because a substring match on `"epsilon_spent_serving":0`
/// also accepts `0.5`. Returns the number of releases checked.
fn check_epsilon_free(body: &str) -> Result<usize, String> {
    let value: serde::Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let releases = value.as_array().ok_or("`/releases` is not an array")?;
    if releases.is_empty() {
        return Err("no releases listed".to_owned());
    }
    let field = |v: &serde::Value, name: &str| -> Result<serde::Value, String> {
        let fields = v.as_object().ok_or(format!("no object around `{name}`"))?;
        serde::get_field(fields, name)
            .cloned()
            .map_err(|e| e.to_string())
    };
    for release in releases {
        let proof = field(release, "proof")?;
        if field(&proof, "verified")? != serde::Value::Bool(true) {
            return Err("proof not verified".to_owned());
        }
        let spent = field(&proof, "epsilon_spent_serving")?
            .as_f64()
            .ok_or("`epsilon_spent_serving` is not a number")?;
        if spent.to_bits() != 0.0f64.to_bits() {
            return Err(format!("serving spent ε = {spent:?}"));
        }
    }
    Ok(releases.len())
}

#[test]
fn epsilon_free_check_compares_bits_not_text() {
    let proof = |spent: &str, verified: &str| {
        format!(
            r#"[{{"id":"r","proof":{{"stages":2,"epsilon_spent_serving":{spent},"epsilon_spent_total":30,"ledger_entries":4,"verified":{verified}}}}}]"#
        )
    };
    assert_eq!(check_epsilon_free(&proof("0", "true")), Ok(1));
    // `0.5` starts with the text the old substring check looked for.
    let half = proof("0.5", "true");
    assert!(half.contains("\"epsilon_spent_serving\":0"));
    assert!(check_epsilon_free(&half).is_err());
    // Negative zero equals +0.0 under `==` but not bit for bit.
    assert!(check_epsilon_free(&proof("-0", "true")).is_err());
    assert!(check_epsilon_free(&proof("0", "false")).is_err());
    assert!(check_epsilon_free("[]").is_err());
    assert!(check_epsilon_free("not json").is_err());
}

#[test]
fn daemon_serves_hostile_and_benign_queries_then_shuts_down_cleanly() {
    let handle = boot(2);
    let addr = handle.addr;

    assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200"));

    // Benign single query.
    let ok = get(addr, "/query?x0=0&x1=4&y0=0&y1=4&t0=0&t1=8");
    assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
    assert!(ok.contains("\"sum\""), "{ok}");

    // Hostile singles: inverted, out-of-bounds, missing, junk — all 400.
    for bad in [
        "/query?x0=5&x1=1&y0=0&y1=4&t0=0&t1=8",
        "/query?x0=0&x1=999&y0=0&y1=4&t0=0&t1=8",
        "/query?x0=0&x1=4&y0=0&y1=4&t0=0",
        "/query?x0=zero&x1=4&y0=0&y1=4&t0=0&t1=8",
        "/query?x0=0&x1=4&y0=0&y1=4&t0=0&t1=8&boom=1",
    ] {
        let resp = get(addr, bad);
        assert!(resp.starts_with("HTTP/1.1 400"), "{bad}: {resp}");
    }

    // Unknown release is a 404, not a fresh sanitization.
    let resp = get(addr, "/query?release=nope&x0=0&x1=4&y0=0&y1=4&t0=0&t1=8");
    assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");

    // Batch: valid and out-of-bounds queries answered side by side.
    let batch = r#"{"queries":[
        {"x":[0,4],"y":[0,4],"t":[0,8]},
        {"x":[0,4],"y":[0,4],"t":[0,4000]}
    ]}"#;
    let resp = post(addr, "/query", batch);
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("\"error\":null"), "{resp}");
    assert!(resp.contains("\"sum\":null"), "{resp}");

    // Structurally hostile batches are 400s.
    for bad in [
        "not json at all",
        r#"{"queries":[{"x":[5,1],"y":[0,2],"t":[0,2]}]}"#,
        r#"{"queries":"yes"}"#,
        r#"{}"#,
    ] {
        let resp = post(addr, "/query", bad);
        assert!(resp.starts_with("HTTP/1.1 400"), "{bad}: {resp}");
    }

    // Unknown route.
    assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));

    // Telemetry flows into the Prometheus exposition.
    let metrics = get(addr, "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
    assert!(metrics.contains("stpt_serve_queries_total"), "{metrics}");
    assert!(metrics.contains("stpt_serve_requests_total"), "{metrics}");

    // The ε-freeness proof verifies over the live ledger.
    let releases = get(addr, "/releases");
    assert!(releases.starts_with("HTTP/1.1 200"), "{releases}");
    assert_eq!(check_epsilon_free(body(&releases)), Ok(1), "{releases}");

    // Clean cooperative shutdown through the wire.
    assert!(post(addr, "/shutdown", "").starts_with("HTTP/1.1 200"));
    handle.join().expect("acceptors exit cleanly");
}

#[test]
fn concurrent_clients_get_bit_identical_answers() {
    let handle = boot(4);
    let addr = handle.addr;

    // A deterministic batch covering varied shapes.
    let queries: Vec<String> = (0..16)
        .map(|i| {
            let x1 = 1 + (i % 8);
            let y1 = 1 + ((i * 3) % 8);
            let t1 = 1 + ((i * 5) % 16);
            format!("{{\"x\":[0,{x1}],\"y\":[0,{y1}],\"t\":[0,{t1}]}}")
        })
        .collect();
    let body = format!("{{\"queries\":[{}]}}", queries.join(","));

    let reference = post(addr, "/query", &body);
    assert!(reference.starts_with("HTTP/1.1 200"), "{reference}");

    // Hammer the daemon from more clients than it has acceptors.
    let mut clients = Vec::new();
    for _ in 0..8 {
        let body = body.clone();
        // xtask-allow(XT07): test clients must be independent OS threads hitting the socket concurrently
        clients.push(std::thread::spawn(move || {
            (0..4)
                .map(|_| post(addr, "/query", &body))
                .collect::<Vec<_>>()
        }));
    }
    for client in clients {
        for resp in client.join().expect("client thread") {
            assert_eq!(resp, reference, "answers must not depend on the client");
        }
    }

    handle.shutdown();
    handle.join().expect("acceptors exit cleanly");
}
