//! The `serve` workload: the oracle server as a separate process, driven
//! closed-loop by this process over two connections, each with one request
//! in flight.
//!
//! The server process is this benchmark binary re-executed with
//! `--serve-child`, which runs `sibylfs_serve::start` (the call
//! `sibylfs serve` makes) with one checker worker on an ephemeral loopback
//! port. It exits when its stdin closes, so it cannot outlive the benchmark.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sibylfs_check::{check_trace, render_checked_trace, CheckOptions};
use sibylfs_core::obs::MetricsSnapshot;
use sibylfs_exec::{execute_script, ExecOptions};
use sibylfs_fsimpl::configs;
use sibylfs_script::{parse_trace, render_trace};
use sibylfs_serve::{BlockingClient, Response, ServeOptions};
use sibylfs_testgen::{loadgen_scripts, LoadgenOptions};

use crate::report::{RoundAcc, RoundMeasure};
use crate::rng::Rng;
use crate::spans::span;
use crate::sys;
use crate::workloads::{linux, Scale};

pub const CONNECTIONS: usize = 2;
pub const SERVER_WORKERS: usize = 1;

/// Entry point of the server process.
pub fn child_main() -> ! {
    let opts = ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: SERVER_WORKERS,
        ..ServeOptions::default()
    };
    let mut server = match sibylfs_serve::start(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve child: cannot start: {e}");
            std::process::exit(2);
        }
    };
    println!("listening on {}", server.addr());
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    server.shutdown();
    std::process::exit(0);
}

struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn() -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--serve-child")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().ok_or("server stdout")?;
        let read = BufReader::new(stdout).read_line(&mut line);
        match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => Ok(Server {
                addr: addr.to_string(),
                child,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not report its address: {line:?}"))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Closing stdin asks the server to shut down; kill it if it has not
        // exited shortly after.
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub struct Serve {
    server: Server,
    clients: Vec<BlockingClient>,
    requests: Vec<String>,
    /// Expected verdict text per request, from a sequential check.
    expected: Vec<String>,
    /// Per connection: the seeded order in which it sends the requests,
    /// and its position in that order.
    orders: Vec<Vec<usize>>,
    next: Vec<usize>,
}

/// One timed phase's measurements.
#[derive(Debug, Default)]
pub struct ServePhase {
    /// One segment of closed-loop load each, scaled to the nominal
    /// reference speed.
    pub rounds: Vec<RoundMeasure>,
    pub raw_rounds: Vec<RoundMeasure>,
    pub rtts_ms: Vec<f64>,
    pub replies: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Time under load (the segments, without the pauses between them).
    pub loaded: Duration,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

/// Load runs in segments of this length; between two segments the clients
/// pause while the reference workload is timed.
const SEGMENT: Duration = Duration::from_secs(2);

impl Serve {
    /// Start the server, pre-render the request traces, and connect.
    pub fn setup(seed: u64, scale: Scale) -> Result<Serve, String> {
        let server = Server::spawn()?;
        let n = if scale == Scale::Full { 240 } else { 24 };
        let scripts = loadgen_scripts(LoadgenOptions {
            scripts: n,
            ops_per_script: 8,
        });
        let ext4 = configs::by_name("linux/ext4").ok_or("no linux/ext4 profile")?;
        let requests: Vec<String> = scripts
            .iter()
            .map(|s| render_trace(&execute_script(&ext4, s, ExecOptions::default())))
            .collect();
        let clients = (0..CONNECTIONS)
            .map(|_| BlockingClient::connect_tcp(server.addr.as_str()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect to server: {e}"))?;
        let orders = (0..CONNECTIONS)
            .map(|c| {
                let mut order: Vec<usize> = (0..requests.len()).collect();
                Rng::new(seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9)).shuffle(&mut order);
                order
            })
            .collect();
        Ok(Serve {
            server,
            clients,
            requests,
            expected: Vec::new(),
            orders,
            next: vec![0; CONNECTIONS],
        })
    }

    /// The known answers: each request's verdict from a sequential
    /// `check_trace` + `render_checked_trace` (not part of set-up time).
    pub fn prepare_oracle(&mut self) -> Result<(), String> {
        self.expected = self
            .requests
            .iter()
            .map(|text| {
                let t = parse_trace(text).map_err(|e| format!("request parse: {e:?}"))?;
                let checked = check_trace(&linux(), &t, CheckOptions::default());
                if !checked.accepted {
                    return Err(format!("{}: loadgen trace is not accepted", checked.name));
                }
                Ok(render_checked_trace(&checked))
            })
            .collect::<Result<_, String>>()?;
        Ok(())
    }

    fn metrics(&mut self) -> MetricsSnapshot {
        self.clients[0].metrics().unwrap_or_default()
    }

    /// Drive the server for `seconds` of closed-loop load, in segments.
    pub fn phase(&mut self, seconds: f64, phase_no: u64) -> ServePhase {
        let mut out = ServePhase {
            before: self.metrics(),
            ..ServePhase::default()
        };
        let mut reference = sys::reference_time().as_secs_f64();
        let segments = (seconds / SEGMENT.as_secs_f64()).ceil().max(1.0) as u64;
        for seg in 0..segments {
            let cpu0 = sys::pid_cpu(self.server.pid()).unwrap_or_default();
            sys::reset_peak_rss(self.server.pid());
            let t0 = Instant::now();
            let deadline = t0 + SEGMENT;
            let (requests, expected) = (&self.requests, &self.expected);
            let lanes = self
                .clients
                .iter_mut()
                .zip(&self.orders)
                .zip(self.next.iter_mut());
            let per_client: Vec<(Vec<f64>, u64, Vec<String>)> = std::thread::scope(|s| {
                let handles: Vec<_> = lanes
                    .enumerate()
                    .map(|(c, ((client, order), next))| {
                        s.spawn(move || {
                            drive(
                                client,
                                requests,
                                expected,
                                order,
                                next,
                                deadline,
                                (phase_no, seg, c),
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            let wall = t0.elapsed();
            let cpu = sys::pid_cpu(self.server.pid())
                .unwrap_or_default()
                .saturating_sub(cpu0);
            let mut lat = Vec::new();
            for (rtts, failed, errors) in per_client {
                lat.extend(rtts);
                out.failed += failed;
                out.errors.extend(errors);
            }
            let now = sys::reference_time().as_secs_f64();
            let mut acc = RoundAcc::default();
            acc.add(lat.len() as u64, (wall, cpu), &lat, (reference + now) / 2.0);
            reference = now;
            let (scaled, raw) = acc.finish(sys::peak_rss_mib(self.server.pid()).unwrap_or(0.0));
            out.rounds.push(scaled);
            out.raw_rounds.push(raw);
            out.rtts_ms.extend(lat);
            out.loaded += wall;
        }
        out.replies = out.rtts_ms.len() as u64;
        out.after = self.metrics();
        out
    }
}

/// One client's closed loop until `deadline`: send a request, wait for its
/// reply, compare the reply with the known answer, repeat. Returns the
/// round-trip times, the failure count and the first few failures.
fn drive(
    client: &mut BlockingClient,
    requests: &[String],
    expected: &[String],
    order: &[usize],
    next: &mut usize,
    deadline: Instant,
    (phase_no, seg, c): (u64, u64, usize),
) -> (Vec<f64>, u64, Vec<String>) {
    let (mut rtts, mut failed, mut errors) = (Vec::new(), 0u64, Vec::new());
    while Instant::now() < deadline {
        let i = order[*next % order.len()];
        *next += 1;
        let id = (phase_no << 48) | (seg << 36) | ((c as u64) << 32) | (*next as u64 & 0xffff_ffff);
        let t = Instant::now();
        let reply = {
            let _req = span("serve.request", id);
            let sent = {
                let _g = span("serve.send", id);
                client.send_check("linux", &requests[i])
            };
            let _g = span("serve.recv", id);
            sent.and_then(|()| client.recv())
        };
        rtts.push(t.elapsed().as_secs_f64() * 1e3);
        let why = match reply {
            Ok(Response::Verdict(v)) if v == expected[i] => continue,
            Ok(Response::Verdict(_)) => {
                format!("request {i}: verdict differs from sequential check")
            }
            Ok(other) => format!("request {i}: unexpected reply {other:?}"),
            Err(e) => format!("request {i}: {e}"),
        };
        failed += 1;
        if errors.len() < 8 {
            errors.push(why);
        }
        if failed > 1000 {
            break;
        }
    }
    (rtts, failed, errors)
}
