//! `serve_vet`: one resident sentinel session (k=4 fat-tree, 16 CBR flows,
//! warmed to 50 µs) driven in a closed loop through
//! `ServeSession::handle_line` by a single controller that waits for each
//! reply, as a pre-commit controller does.
//!
//! An episode opens the session and sends a fixed number of seeded
//! requests: mostly vetted `route_update`s, a share of which close a
//! two-switch loop above the Eq. 3 boundary and must be refused; `cbd` and
//! `status` queries; small `advance`s; and occasional `flow_add` /
//! `flow_remove`, which rebuild the resident. Episodes repeat for the whole
//! measuring window and every episode must reproduce the first one's
//! digest.
//!
//! The traced run mirrors every request on a twin `Session` opened from the
//! same spec and driven through the typed API right before (even requests)
//! or right after (odd requests) the request goes through the protocol.
//! For a vet it also replays the what-if phases on the twin through public
//! calls: capture, encode, digest, resume, probe, capture, encode, digest
//! and static CBD. The twin's spans become mirror children of the request's
//! `serve.handle_line` span, so the self time of that span is the protocol
//! layer's time.

use std::time::Instant;

use serde_json::Value;

use pfcsim_net::prelude::*;
use pfcsim_net::serve::DEFAULT_HORIZON;
use pfcsim_simcore::prelude::*;
use pfcsim_simcore::snap;
use pfcsim_topo::prelude::*;
use pfcsim_topo::routing::trace_path;

use crate::trace::Tracer;
use crate::util::{secs, variant_seed, Checks, Digest, Rng};
use crate::{traced_repeat, Outcome, Samples};

const K: usize = 4;
/// Sessions (traffic matrix and request order) a run cycles through. The
/// 95th percentile of vet latency differs by up to 1.3× between sessions,
/// so a run averages over eight.
const VARIANTS: u64 = 8;
const WARM_US: u64 = 50;
const WINDOW_US: u64 = 200;
const REQUESTS: usize = {
    let mut n = 0;
    let mut i = 0;
    while i < MIX.len() {
        n += MIX[i].0;
        i += 1;
    }
    n
};
/// Flow rates in quarter Gbps: 2 to 9.5 Gbps, all above the 1.25 Gbps
/// Eq. 3 boundary of a two-switch loop at TTL 64.
const RATES: std::ops::Range<u64> = 8..40;
/// Loop-closing pushes target flows at least this fast.
const LOOP_RATE: BitRate = BitRate::from_gbps(6);
/// One vet in `ORACLE_EVERY` is also answered by the batch oracle.
const ORACLE_EVERY: usize = 8;

/// The requests of one episode, in seeded order.
const MIX: &[(usize, Kind)] = &[
    (66, Kind::VetSafe),
    (18, Kind::VetLoop),
    (10, Kind::Cbd),
    (8, Kind::Status),
    (12, Kind::Advance),
    (3, Kind::FlowAdd),
    (3, Kind::FlowRemove),
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    VetSafe,
    VetLoop,
    Cbd,
    Status,
    Advance,
    FlowAdd,
    FlowRemove,
}

/// The controller's view: fabric, committed tables and traffic matrix.
struct Controller {
    built: Built,
    tables: ForwardingTables,
    base: ForwardingTables,
    flows: Vec<(FlowSpec, bool)>,
    next_id: u32,
    now_us: u64,
    rng: Rng,
    kinds: Vec<Kind>,
}

fn cbr(id: u32, src: NodeId, dst: NodeId, quarter_gbps: u64) -> FlowSpec {
    FlowSpec::cbr(id, src, dst, BitRate::from_mbps(quarter_gbps * 250))
}

fn flow_json(f: &FlowSpec) -> String {
    let gbps = match f.demand {
        Demand::Cbr(r) => r.bps() as f64 / 1e9,
        _ => unreachable!("the controller only sends CBR flows"),
    };
    format!(
        "{{\"id\":{},\"src\":{},\"dst\":{},\"gbps\":{gbps}}}",
        f.id.0, f.src.0, f.dst.0
    )
}

fn push_json(node: NodeId, dst: NodeId, ports: &[PortNo]) -> String {
    let ports: Vec<String> = ports.iter().map(|p| p.0.to_string()).collect();
    format!(
        "\"node\":{},\"dst\":{},\"ports\":[{}]",
        node.0,
        dst.0,
        ports.join(",")
    )
}

impl Controller {
    fn new(seed: u64) -> Self {
        let built = fat_tree(K, LinkSpec::default());
        let base = shortest_path_tables(&built.topo);
        let mut rng = Rng::new(seed, 3);
        let pod = |h: usize| h / (K * K / 4);
        let n = built.hosts.len();
        // A random host cycle whose every hop leaves its pod, so each flow
        // crosses the core and the offered load is alike for every seed.
        let mut order: Vec<usize> = (0..n).collect();
        loop {
            rng.shuffle(&mut order);
            if (0..n).all(|i| pod(order[i]) != pod(order[(i + 1) % n])) {
                break;
            }
        }
        let mut rates: Vec<u64> = RATES.step_by(2).collect();
        rng.shuffle(&mut rates);
        let flows = (0..n)
            .map(|i| {
                let (s, d) = (built.hosts[order[i]], built.hosts[order[(i + 1) % n]]);
                (cbr(i as u32, s, d, rates[i]), true)
            })
            .collect();
        let mut kinds: Vec<Kind> = MIX
            .iter()
            .flat_map(|&(count, kind)| std::iter::repeat_n(kind, count))
            .collect();
        rng.shuffle(&mut kinds);
        Controller {
            tables: base.clone(),
            base,
            flows,
            next_id: n as u32,
            now_us: 0,
            rng,
            kinds,
            built,
        }
    }

    fn open_line(&self, seed: u64) -> String {
        let flows: Vec<String> = self.flows.iter().map(|(f, _)| flow_json(f)).collect();
        format!(
            "{{\"op\":\"open\",\"topo\":{{\"builder\":\"fat_tree\",\"k\":{K}}},\"seed\":{seed},\"horizon_us\":{},\"flows\":[{}]}}",
            DEFAULT_HORIZON.as_us(),
            flows.join(",")
        )
    }

    /// The same session, opened through the typed API.
    fn twin_spec(&self, seed: u64) -> SessionSpec {
        let flows = self.flows.iter().map(|(f, _)| f.clone()).collect();
        let mut spec = SessionSpec::new(self.built.topo.clone(), flows);
        spec.config.seed = seed;
        spec
    }

    fn active(&self) -> Vec<usize> {
        (0..self.flows.len()).filter(|&i| self.flows[i].1).collect()
    }

    fn switch_path(&self, f: &FlowSpec) -> Vec<NodeId> {
        let t = trace_path(
            &self.built.topo,
            &self.tables,
            f.id,
            f.src,
            f.dst,
            f.ttl as usize,
        );
        let nodes = t.nodes();
        nodes[1..nodes.len() - 1].to_vec()
    }

    /// Draw the next request.
    fn next(&mut self) -> Request {
        let kind = self.kinds.pop().expect("an episode has REQUESTS requests");
        let active = self.active();
        match kind {
            Kind::VetSafe => {
                // A non-empty subset of a switch's shortest-path next hops:
                // up-down routes stay free of buffer dependency cycles.
                let (f, _) = &self.flows[active[self.rng.below(active.len())]];
                let path = self.switch_path(f);
                let node = path[self.rng.below(path.len())];
                let hops = self.base.next_hops(node, f.dst).to_vec();
                let keep = 1 + self.rng.below(hops.len());
                let start = self.rng.below(hops.len());
                let ports: Vec<PortNo> =
                    (0..keep).map(|i| hops[(start + i) % hops.len()]).collect();
                Request::vet(kind, node, f.dst, ports)
            }
            Kind::VetLoop => {
                // Send a fast flow's traffic back from the second switch of
                // one of its hops: a two-switch loop fed at over four times
                // n·B/TTL, which deadlocks well inside the probe window.
                let candidates: Vec<(usize, Vec<NodeId>)> = active
                    .iter()
                    .filter(
                        |&&i| matches!(self.flows[i].0.demand, Demand::Cbr(r) if r >= LOOP_RATE),
                    )
                    .map(|&i| (i, self.switch_path(&self.flows[i].0)))
                    .filter(|(_, p)| p.len() >= 2)
                    .collect();
                let (i, path) = &candidates[self.rng.below(candidates.len())];
                let hop = self.rng.below(path.len() - 1);
                let (u, v) = (path[hop], path[hop + 1]);
                let back = self
                    .built
                    .topo
                    .port_towards(v, u)
                    .expect("consecutive switches are linked")
                    .port;
                Request::vet(kind, v, self.flows[*i].0.dst, vec![back])
            }
            Kind::Cbd => Request::plain(kind, "{\"op\":\"query\",\"kind\":\"cbd\"}".into()),
            Kind::Status => Request::plain(kind, "{\"op\":\"query\",\"kind\":\"status\"}".into()),
            Kind::Advance => {
                let to = self.now_us + 2 + self.rng.below(9) as u64;
                Request::update(
                    kind,
                    format!("{{\"op\":\"advance\",\"to_us\":{to}}}"),
                    Update::AdvanceTo(SimTime::from_us(to)),
                )
            }
            Kind::FlowAdd => {
                let n = self.built.hosts.len();
                let s = self.rng.below(n);
                let d = (s + 1 + self.rng.below(n - 1)) % n;
                let f = cbr(
                    self.next_id,
                    self.built.hosts[s],
                    self.built.hosts[d],
                    RATES.start + self.rng.below(RATES.clone().count()) as u64,
                );
                self.next_id += 1;
                let line = format!("{{\"op\":\"flow_add\",{}", &flow_json(&f)[1..]);
                self.flows.push((f.clone(), true));
                Request::update(kind, line, Update::FlowAdd(f))
            }
            Kind::FlowRemove => {
                let i = active[self.rng.below(active.len())];
                self.flows[i].1 = false;
                let id = self.flows[i].0.id;
                Request::update(
                    kind,
                    format!("{{\"op\":\"flow_remove\",\"flow\":{}}}", id.0),
                    Update::FlowRemove(id),
                )
            }
        }
    }
}

struct Request {
    kind: Kind,
    line: String,
    /// The candidate route of a vet.
    push: Option<RoutePush>,
    /// The typed form of a mutation other than a vet.
    update: Option<Update>,
}

impl Request {
    fn vet(kind: Kind, node: NodeId, dst: NodeId, ports: Vec<PortNo>) -> Self {
        let line = format!(
            "{{\"op\":\"route_update\",{},\"window_us\":{WINDOW_US}}}",
            push_json(node, dst, &ports)
        );
        Request {
            kind,
            line,
            push: Some(RoutePush { node, dst, ports }),
            update: None,
        }
    }

    fn plain(kind: Kind, line: String) -> Self {
        Request {
            kind,
            line,
            push: None,
            update: None,
        }
    }

    fn update(kind: Kind, line: String, update: Update) -> Self {
        Request {
            kind,
            line,
            push: None,
            update: Some(update),
        }
    }
}

/// Send one line and parse the reply.
fn send(serve: &mut ServeSession, line: &str) -> Value {
    let (resp, _) = serve.handle_line(line);
    serde_json::from_str(&resp.expect("a request line gets a reply")).expect("replies are JSON")
}

fn field<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, k| v.get(k))
}

/// Fold a reply into the digest, leaving out the checkpoint digests: they
/// fingerprint the encoding, not the simulated results.
fn fold(d: &mut Digest, v: &Value) {
    match v {
        Value::Object(pairs) => {
            for (k, x) in pairs {
                if !k.contains("digest") {
                    d.bytes(k.as_bytes());
                    fold(d, x);
                }
            }
        }
        Value::Array(xs) => xs.iter().for_each(|x| fold(d, x)),
        other => d.bytes(serde_json::to_string(other).expect("scalar").as_bytes()),
    }
}

/// Per-episode tallies.
#[derive(Default)]
struct Tally {
    refused: u64,
    probe_events: u64,
    vet_s: f64,
    busy_s: f64,
}

/// Layer timings the traced run gathers beyond its spans.
#[derive(Default)]
struct Traced {
    frame_bytes: Vec<f64>,
    phases_s: f64,
    what_if_s: f64,
}

/// The what-if phases of `Session::what_if`, replayed on the twin through
/// public calls, each as its own span.
fn replay(tr: &mut Tracer, twin: &mut Session, push: &RoutePush, t: &mut Traced) {
    let now = twin.now();
    let bound = (now + SimDuration::from_us(WINDOW_US)).min(twin.horizon());
    let start = Instant::now();
    let ckpt = tr.span("checkpoint.capture", || twin.snapshot().expect("live twin"));
    let bytes = tr.span("checkpoint.encode", || ckpt.to_bytes());
    tr.span("checkpoint.digest", || snap::fnv1a(&bytes));
    t.frame_bytes.push(bytes.len() as f64);
    let mut probe = tr.span("checkpoint.resume", || {
        NetSim::resume(ckpt).expect("resume")
    });
    tr.span("net.probe_run", || {
        probe.schedule_route_update(now, push.node, push.dst, push.ports.clone());
        match probe.advance_until(bound, twin.horizon()) {
            Some(r) => r.verdict.is_deadlock(),
            None => probe.deadlock_state().is_some() || probe.analyze_deadlock().is_some(),
        }
    });
    let after = tr.span("checkpoint.capture", || twin.snapshot().expect("live twin"));
    let bytes = tr.span("checkpoint.encode", || after.to_bytes());
    tr.span("checkpoint.digest", || snap::fnv1a(&bytes));
    let mut tables = twin.tables().clone();
    tables.set(push.node, push.dst, push.ports.clone());
    tr.span("serve.static_cbd", || {
        static_cbd(twin.topo(), &tables, twin.flows(), now)
    });
    t.phases_s += secs(start);
}

/// The request on the twin, through the typed API, as one span.
fn mirror(tr: &mut Tracer, twin: &mut Session, req: &Request, t: &mut Traced) {
    let window = SimDuration::from_us(WINDOW_US);
    match req.kind {
        Kind::VetSafe | Kind::VetLoop => {
            let push = req.push.as_ref().expect("vets carry a push");
            let m = tr.mark();
            replay(tr, twin, push, t);
            let start = Instant::now();
            let w = tr.begin("serve.what_if");
            let doc = twin
                .what_if(std::slice::from_ref(push), window)
                .expect("twin what-if");
            tr.end(w);
            t.what_if_s += secs(start);
            tr.adopt_mirrors(m, tr.mark(), w);
            if !doc.verdict.deadlock {
                tr.span("serve.commit", || {
                    twin.apply(Update::RouteUpdate(push.clone()))
                        .expect("twin commit")
                });
            }
        }
        Kind::Cbd => {
            tr.span("serve.query", || twin.query(Query::Cbd).expect("twin cbd"));
        }
        Kind::Status => {
            tr.span("serve.query", || {
                twin.query(Query::Status).expect("twin status")
            });
        }
        Kind::Advance | Kind::FlowAdd | Kind::FlowRemove => {
            let update = req.update.clone().expect("mutations carry an update");
            let name = if req.kind == Kind::Advance {
                "serve.advance"
            } else {
                "serve.rebuild"
            };
            tr.span(name, || twin.apply(update).expect("twin update"));
        }
    }
}

/// Check a reply against what the request must produce.
fn check_reply(req: &Request, v: &Value, checks: &mut Checks, tally: &mut Tally) {
    let ok = v.get("ok").and_then(Value::as_bool) == Some(true);
    checks.check(ok, || {
        format!("serve_vet {:?}: error reply {v:?}", req.kind)
    });
    if !ok {
        return;
    }
    let committed = field(v, &["result", "committed"]).and_then(Value::as_bool);
    match req.kind {
        Kind::VetSafe => checks.check(committed == Some(true), || {
            format!("serve_vet: CBD-free push refused: {}", req.line)
        }),
        Kind::VetLoop => checks.check(committed == Some(false), || {
            format!("serve_vet: loop above n·B/TTL committed: {}", req.line)
        }),
        Kind::Cbd => checks.check(
            field(v, &["result", "cbd"]).and_then(Value::as_bool) == Some(false),
            || "serve_vet: committed routes show a CBD".into(),
        ),
        _ => {}
    }
    if committed == Some(false) {
        tally.refused += 1;
        checks.check(
            field(v, &["result", "what_if", "resident_unchanged"]).and_then(Value::as_bool)
                == Some(true),
            || format!("serve_vet: refusal without resident_unchanged: {v:?}"),
        );
    }
    if let Some(e) = field(v, &["result", "what_if", "probe_events"]).and_then(Value::as_u64) {
        tally.probe_events += e;
    }
}

/// Open the session and warm it up; returns the seconds it took.
fn open(serve: &mut ServeSession, c: &Controller, seed: u64) -> (f64, Value, Value) {
    let t = Instant::now();
    let opened = send(serve, &c.open_line(seed));
    let warmed = send(
        serve,
        &format!("{{\"op\":\"advance\",\"to_us\":{WARM_US}}}"),
    );
    (secs(t), opened, warmed)
}

/// Repeat episodes, cycling through the variants, until `seconds` have
/// passed and every variant ran once and one twice.
pub fn measure(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut s = Samples::default();
    let mut traced = Traced::default();
    let mut first = None;
    let begin = Instant::now();
    let mut episode = 0u64;
    while episode <= VARIANTS || secs(begin) < seconds {
        let variant = episode % VARIANTS;
        let seed = variant_seed(seed, variant);
        tr.enable(traced_repeat(episode, VARIANTS));
        let mut c = Controller::new(seed);
        let mut serve = ServeSession::new(ServeConfig::default());
        s.tick(tr);
        let (setup, opened, warmed) = open(&mut serve, &c, seed);
        let mut vet_ms = Vec::new();
        let mut digest = Digest::new();
        for v in [&opened, &warmed] {
            out.checks.check(v["ok"].as_bool() == Some(true), || {
                format!("serve_vet open: {v:?}")
            });
            fold(&mut digest, v);
        }
        c.now_us = WARM_US;
        let mut twin = tr.is_on().then(|| {
            let mut t = Session::open(c.twin_spec(seed)).expect("twin opens");
            t.apply(Update::AdvanceTo(SimTime::from_us(WARM_US)))
                .expect("twin warm-up");
            t
        });
        let mut tally = Tally::default();
        let mut vets = 0;
        for i in 0..REQUESTS {
            let req = c.next();
            tr.set_id(episode * REQUESTS as u64 + i as u64);
            let is_vet = req.push.is_some();
            let oracle = (is_vet && vets % ORACLE_EVERY == 0).then(|| {
                let p = req.push.as_ref().expect("vet");
                send(
                    &mut serve,
                    &format!(
                        "{{\"op\":\"query\",\"kind\":\"what_if_oracle\",\"updates\":[{{{}}}],\"window_us\":{WINDOW_US}}}",
                        push_json(p.node, p.dst, &p.ports)
                    ),
                )
            });
            // The twin goes first on even requests and second on odd ones,
            // so warm caches favour neither side of the protocol estimate.
            let twin_first = i % 2 == 0;
            s.tick(tr);
            let m = tr.mark();
            if let (Some(twin), true) = (twin.as_mut(), twin_first) {
                mirror(tr, twin, &req, &mut traced);
            }
            let start = Instant::now();
            let h = tr.begin("serve.handle_line");
            let (resp, _) = serve.handle_line(&req.line);
            tr.end(h);
            let took = secs(start);
            if let (Some(twin), false) = (twin.as_mut(), twin_first) {
                mirror(tr, twin, &req, &mut traced);
            }
            tr.adopt_mirrors(m, tr.mark(), h);
            let v: Value = serde_json::from_str(&resp.expect("reply")).expect("JSON reply");
            tally.busy_s += took;
            if is_vet {
                vets += 1;
                tally.vet_s += took;
                vet_ms.push(took * 1e3);
            }
            check_reply(&req, &v, &mut out.checks, &mut tally);
            if let Some(o) = oracle {
                let a = serde_json::to_string(&o["result"]["verdict"]).expect("verdict");
                let b = serde_json::to_string(&v["result"]["what_if"]["verdict"]).expect("verdict");
                out.checks
                    .check(a == b, || format!("serve_vet: oracle {a} != probe {b}"));
            }
            if field(&v, &["result", "committed"]).and_then(Value::as_bool) == Some(true) {
                let p = req.push.as_ref().expect("commits carry a push");
                c.tables.set(p.node, p.dst, p.ports.clone());
            }
            if let Some(now) = field(&v, &["result", "now_us"]).and_then(Value::as_u64) {
                c.now_us = now;
            }
            fold(&mut digest, &v);
        }
        if let Some(twin) = twin.as_mut() {
            let a = twin.state_digest().expect("twin digest");
            let b = serve
                .session_mut()
                .expect("open session")
                .state_digest()
                .expect("digest");
            out.checks
                .check(a == b, || "serve_vet: twin and resident diverged".into());
        }
        s.repeat(
            setup,
            tally.probe_events as f64 / tally.vet_s,
            REQUESTS as f64 / tally.busy_s,
            &vet_ms,
            tr.is_on(),
        );
        out.ops += REQUESTS as u64;
        out.agree(variant, digest.0, || format!("serve_vet episode {episode}"));
        first.get_or_insert(tally);
        episode += 1;
    }
    let t = first.expect("at least one episode");
    let l = &mut out.layers;
    l.insert("serve.refused", t.refused as f64);
    l.insert("net.probe_events", t.probe_events as f64);
    if tr.is_traced_run() {
        let frames = &traced.frame_bytes;
        l.insert(
            "checkpoint.frame_bytes",
            frames.iter().sum::<f64>() / frames.len() as f64,
        );
        let coverage = traced.phases_s / traced.what_if_s;
        l.insert("serve.what_if_coverage", coverage);
        // Two separately timed executions: host noise alone can move the
        // ratio, so a stray value is a warning, not a failed check.
        if !(0.7..=1.4).contains(&coverage) {
            eprintln!("warning: serve_vet: replayed what-if phases cover {coverage:.3} of what_if");
        }
        // Protocol time of a request: its handle_line span minus the
        // session work mirrored on the twin, averaged so that the order
        // effect of twin-first and twin-second requests cancels.
        let spans = tr.spans();
        let mut mirrored = vec![0.0; spans.len()];
        for sp in spans.iter().filter(|sp| sp.mirror) {
            mirrored[sp.parent.expect("mirrors have a parent")] += sp.dur_s();
        }
        let protocol: Vec<f64> = spans
            .iter()
            .enumerate()
            .filter(|(_, sp)| sp.name == "serve.handle_line")
            .map(|(i, sp)| sp.dur_s() - mirrored[i])
            .collect();
        l.insert(
            "serve.protocol_s",
            protocol.iter().sum::<f64>() / protocol.len() as f64,
        );
    }
    out.summary = format!(
        "episodes={episode} requests_per_episode={REQUESTS} refused={} probe_events={}",
        t.refused, t.probe_events
    );
    out.set_e2e(&s);
    out
}
