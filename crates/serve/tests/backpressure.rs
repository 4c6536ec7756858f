//! The per-session in-flight bound, end to end. The serve gauges are
//! process-wide and their high-water marks never fall, so this is one test
//! in a binary of its own, running its cases from the tightest bound up.

use std::time::{Duration, Instant};

use sibylfs_check::{check_trace, render_checked_trace, CheckOptions};
use sibylfs_core::obs::m;
use sibylfs_exec::{execute_script, ExecOptions};
use sibylfs_fsimpl::configs;
use sibylfs_script::{parse_trace, render_trace};
use sibylfs_serve::protocol::parse_spec_config;
use sibylfs_serve::{start, BlockingClient, Response, ServeOptions, ServerHandle};
use sibylfs_testgen::{loadgen_scripts, LoadgenOptions};

const REQUESTS: usize = 64;

fn corpus() -> Vec<String> {
    let profile = configs::by_name("linux/ext4").unwrap();
    loadgen_scripts(LoadgenOptions { scripts: REQUESTS, ..Default::default() })
        .iter()
        .map(|s| render_trace(&execute_script(&profile, s, ExecOptions::default())))
        .collect()
}

fn one_worker(max_inflight_per_session: usize) -> ServerHandle {
    start(ServeOptions { workers: 1, max_inflight_per_session, ..Default::default() }).unwrap()
}

/// Wait for every session to end, then for the serve gauges to settle at
/// zero (checks a gone client left in the pool still have to finish).
fn assert_gauges_return_to_zero(server: &ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_sessions() > 0
        || m::SERVE_INFLIGHT.get() != 0
        || m::SERVE_REORDER_DEPTH.get() != 0
    {
        assert!(
            Instant::now() < deadline,
            "after the sessions ended: {} sessions, inflight {}, reorder depth {}",
            server.active_sessions(),
            m::SERVE_INFLIGHT.get(),
            m::SERVE_REORDER_DEPTH.get()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn inflight_stays_within_the_session_bound_and_replies_stay_in_order() {
    let cfg = parse_spec_config("linux").unwrap();
    let texts = corpus();
    let expected: Vec<String> = texts
        .iter()
        .map(|t| {
            render_checked_trace(&check_trace(&cfg, &parse_trace(t).unwrap(), CheckOptions::default()))
        })
        .collect();
    for bound in [1, 2] {
        let server = one_worker(bound);
        let mut client = BlockingClient::connect_tcp(server.addr()).unwrap();
        // Every request goes out before any reply is read, so the server's
        // reader always has more to accept than the bound allows.
        for t in &texts {
            client.send_check("linux", t).unwrap();
        }
        for (i, want) in expected.iter().enumerate() {
            let resp = client.recv().unwrap();
            let Response::Verdict(got) = resp else {
                panic!("bound {bound}: reply {i} is not a verdict: {resp:?}")
            };
            assert_eq!(&got, want, "bound {bound}: reply {i} differs from local checking");
        }
        let hwm = m::SERVE_INFLIGHT.high_water();
        assert!(hwm <= bound as i64, "bound {bound}: {hwm} requests were in flight at once");
        drop(client);
        assert_gauges_return_to_zero(&server);
    }

    // A client that hangs up with replies still owed: the session stops
    // accepting, and the gauges still drain to zero.
    let server = one_worker(2);
    let mut client = BlockingClient::connect_tcp(server.addr()).unwrap();
    for t in &texts {
        client.send_check("linux", t).unwrap();
    }
    let resp = client.recv().unwrap();
    assert!(matches!(resp, Response::Verdict(_)), "first reply: {resp:?}");
    drop(client);
    assert_gauges_return_to_zero(&server);
    let hwm = m::SERVE_INFLIGHT.high_water();
    assert!(hwm <= 2, "after a hang-up: {hwm} requests were in flight at once");
}
