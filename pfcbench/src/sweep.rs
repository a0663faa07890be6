//! `paper_sweep`: many short runs of the paper's own scenarios, each built
//! with `SimArenas` through the experiment crate's `scenarios::*_in`
//! constructors.
//!
//! A pass is a fixed, stratified mix of points whose parameters are drawn
//! from the seed: Case 1 routing loops (2 to 4 switches) below and above
//! the Eq. 3 boundary; the Case 2/3 square with or without flow 3 and an
//! optional RX2 limiter well away from the Fig. 5 crossover; and the square
//! with flows 1 and 3 only, which pause each other but close no dependency
//! cycle. Each point gets a static CBD check (a point without a CBD must
//! not deadlock) and, for Case 1, an Eq. 3 prediction; each point
//! that deadlocks gets a mitigation plan (a rate cap for loops, TTL classes
//! for the square) and a re-run that must be deadlock-free. The pass is
//! repeated for the whole measuring window and every pass must reproduce
//! the first one's digest.

use std::time::Instant;

use pfcsim_core::bdg::BufferDependencyGraph;
use pfcsim_core::boundary::BoundaryModel;
use pfcsim_experiments::scenarios::{
    paper_config, routing_loop_n_in, square_flow3, square_flows, square_scenario_in, Scenario,
};
use pfcsim_mitigation::prelude::*;
use pfcsim_net::prelude::*;
use pfcsim_simcore::prelude::*;
use pfcsim_topo::prelude::*;

use crate::trace::Tracer;
use crate::util::{secs, variant_seed, Checks, Digest, Rng};
use crate::{traced_repeat, Outcome, Samples};

const HORIZON: SimTime = SimTime::from_us(1_000);
/// Passes, each with its own seeded parameters, that a run cycles through.
/// The slowest points set the 95th percentile, so a run averages over eight
/// draws of them.
const VARIANTS: u64 = 8;
const LINK: BitRate = BitRate::from_gbps(40);

#[derive(Clone, Copy, Debug)]
enum Point {
    /// Case 1: one CBR flow trapped in an `n`-switch routing loop.
    Loop { n: usize, ttl: u8, rate: BitRate },
    /// Case 2 (`flow3` false) and Case 3: the square, optionally with a
    /// limiter on B's host-facing ingress RX2.
    Square {
        flow3: bool,
        limiter: Option<BitRate>,
    },
    /// The square with flows 1 and 3 only, optionally limited at RX2: they
    /// share B→C and pause each other, but no buffer dependency cycle
    /// forms.
    Open { limiter: Option<BitRate> },
}

fn gbps(g: f64) -> BitRate {
    BitRate::from_bps((g * 1e9) as u64)
}

/// One pass: the same strata for every seed, parameters from the seed.
fn points(seed: u64) -> Vec<Point> {
    let mut rng = Rng::new(seed, 2);
    let mut pts = Vec::new();
    for n in 2..=4usize {
        for above in [false, false, false, true, true, true, true, true] {
            let ttl = [8u8, 12, 16, 24, 32][rng.below(5)];
            let threshold = BoundaryModel::new(n as u32, LINK, u32::from(ttl))
                .deadlock_threshold()
                .as_gbps_f64();
            let factor = if above {
                rng.range_f64(1.5, 3.0)
            } else {
                rng.range_f64(0.3, 0.7)
            };
            let rate = (threshold * factor).min(30.0);
            pts.push(Point::Loop {
                n,
                ttl,
                rate: gbps(rate),
            });
        }
    }
    for flow3 in [false, true] {
        for _ in 0..2 {
            pts.push(Point::Square {
                flow3,
                limiter: None,
            });
        }
        for safe in [true, false] {
            for _ in 0..2 {
                let g = if safe {
                    rng.range_f64(1.0, 4.0)
                } else {
                    rng.range_f64(7.0, 10.0)
                };
                pts.push(Point::Square {
                    flow3,
                    limiter: Some(gbps(g)),
                });
            }
        }
    }
    for _ in 0..2 {
        pts.push(Point::Open { limiter: None });
    }
    for _ in 0..2 {
        let g = rng.range_f64(1.0, 10.0);
        pts.push(Point::Open {
            limiter: Some(gbps(g)),
        });
    }
    pts
}

/// The square with flows 1 and 3, built like `square_scenario_in`.
fn open_square_in(cfg: SimConfig, limiter: Option<BitRate>, arenas: &mut SimArenas) -> Scenario {
    let built = square(LinkSpec::default());
    let mut sim = SimBuilder::new(&built.topo).config(cfg).build_in(arenas);
    for f in open_flows(&built) {
        sim.add_flow(f);
    }
    if let Some(rate) = limiter {
        let rx2 = built
            .topo
            .port_towards(built.switches[1], built.hosts[1])
            .expect("B has a host port")
            .port;
        sim.try_set_ingress_shaper(built.switches[1], rx2, rate, Bytes::from_kb(2))
            .expect("set_ingress_shaper");
    }
    Scenario {
        built,
        sim,
        cycle: Vec::new(),
    }
}

fn open_flows(b: &Built) -> Vec<FlowSpec> {
    vec![square_flows(b).swap_remove(0), square_flow3(b)]
}

fn build(p: Point, cfg: SimConfig, arenas: &mut SimArenas) -> Scenario {
    match p {
        Point::Loop { n, ttl, rate } => routing_loop_n_in(cfg, rate, ttl, n, arenas),
        Point::Square { flow3, limiter } => square_scenario_in(cfg, flow3, limiter, arenas),
        Point::Open { limiter } => open_square_in(cfg, limiter, arenas),
    }
}

/// The flows a point's constructor adds, for the static analysis.
fn specs(p: Point, sc: &Scenario) -> Vec<FlowSpec> {
    let b = &sc.built;
    match p {
        Point::Loop { ttl, rate, .. } => {
            vec![FlowSpec::cbr(0, b.hosts[0], b.hosts[1], rate).with_ttl(ttl)]
        }
        Point::Square { flow3, .. } => {
            let mut f = square_flows(b);
            if flow3 {
                f.push(square_flow3(b));
            }
            f
        }
        Point::Open { .. } => open_flows(b),
    }
}

fn fold(d: &mut Digest, r: &RunReport) {
    d.u64(r.events);
    d.u64(r.end_time.as_ps());
    d.u64(u64::from(r.verdict.is_deadlock()));
    d.u64(r.stats.pause_frames);
    for (id, fs) in &r.stats.flows {
        d.u64(u64::from(id.0));
        d.u64(fs.delivered_bytes.get());
    }
}

/// Per-pass tallies for the layer metrics.
#[derive(Default)]
struct Tally {
    events: u64,
    run_s: f64,
    pause_frames: u64,
    scans_run: u64,
    scans_skipped: u64,
    deadlocks: u64,
    /// Points without a static CBD.
    acyclic: u64,
    case1: u64,
    eq3_agree: u64,
    mitigated: u64,
    fixed: u64,
}

impl Tally {
    fn add(&mut self, r: &RunReport, run_s: f64) {
        self.events += r.events + r.events_elided;
        self.run_s += run_s;
        self.pause_frames += r.stats.pause_frames;
        self.scans_run += r.deadlock_scans_run;
        self.scans_skipped += r.deadlock_scans_skipped;
        self.deadlocks += u64::from(r.verdict.is_deadlock());
    }
}

/// Time a scenario run, as a `net.run` span.
fn run(tr: &mut Tracer, sc: Scenario, arenas: &mut SimArenas) -> (RunReport, f64) {
    let t = Instant::now();
    let r = tr.span("net.run", || sc.run_in(HORIZON, arenas));
    (r, secs(t))
}

/// What the points of one pass accumulate.
#[derive(Default)]
struct Pass {
    tally: Tally,
    digest: Digest,
}

/// One point: build, analyse, run, and mitigate if it deadlocked.
fn point(p: Point, tr: &mut Tracer, arenas: &mut SimArenas, checks: &mut Checks, pass: &mut Pass) {
    let Pass { tally, digest } = pass;
    let sc = tr.span("net.build", || build(p, paper_config(), arenas));
    let flows = specs(p, &sc);
    let cbd = tr.span("core.cbd", || {
        let g = BufferDependencyGraph::from_specs(&sc.built.topo, sc.sim.tables(), &flows);
        !g.cbd_cycles(8).is_empty()
    });
    let predicted = match p {
        Point::Loop { n, ttl, rate } => {
            Some(BoundaryModel::new(n as u32, LINK, u32::from(ttl)).predicts_deadlock(rate))
        }
        Point::Square { .. } | Point::Open { .. } => None,
    };
    let (report, run_s) = run(tr, sc, arenas);
    tally.add(&report, run_s);
    fold(digest, &report);
    tally.acyclic += u64::from(!cbd);
    let deadlock = report.verdict.is_deadlock();
    checks.check(cbd || !deadlock, || {
        format!("paper_sweep {p:?}: deadlock without a static CBD")
    });
    if let Some(predicted) = predicted {
        tally.case1 += 1;
        tally.eq3_agree += u64::from(predicted == deadlock);
    }
    if !deadlock {
        return;
    }
    tally.mitigated += 1;
    // Loops get a rate cap under the Eq. 3 boundary on the injecting
    // ingress; the square gets per-hop TTL classes.
    let mut cfg = paper_config();
    if !matches!(p, Point::Loop { .. }) {
        tr.span("mitigation.plan", || {
            let plan = TtlClassPlan::new(1, 0, 4);
            cfg.ttl_class_mode = Some(TtlClassConfig {
                width: plan.class_width,
                base_class: plan.base_class,
                classes: plan.classes_available,
            });
        });
    }
    let mut sc = tr.span("net.build", || build(p, cfg, arenas));
    if let Point::Loop { n, ttl, .. } = p {
        let plan = tr.span("mitigation.plan", || {
            let cap = loop_rate_cap(n as u32, LINK, u32::from(ttl), 0.8);
            plan_rate_limits(
                &sc.built.topo,
                sc.sim.tables(),
                &flows,
                cap,
                Bytes::from_kb(2),
            )
        });
        checks.check(!plan.is_empty(), || {
            format!("paper_sweep {p:?}: empty rate plan")
        });
        plan.apply(&mut sc.sim);
    }
    let (fixed, run_s) = run(tr, sc, arenas);
    tally.add(&fixed, run_s);
    fold(digest, &fixed);
    let ok = !fixed.verdict.is_deadlock();
    tally.fixed += u64::from(ok);
    checks.check(ok, || {
        format!("paper_sweep {p:?}: mitigated re-run deadlocked")
    });
}

/// Repeat the passes, cycling through the variants, until `seconds` have
/// passed and every variant ran once and one twice.
pub fn measure(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let passes: Vec<Vec<Point>> = (0..VARIANTS)
        .map(|v| points(variant_seed(seed, v)))
        .collect();
    let mut out = Outcome::default();
    let mut s = Samples::default();
    let mut arenas = SimArenas::new();
    let begin = Instant::now();
    let mut pass = 0u64;
    let mut first = None;
    while pass <= VARIANTS || secs(begin) < seconds {
        let variant = pass % VARIANTS;
        let pts = &passes[variant as usize];
        tr.enable(traced_repeat(pass, VARIANTS));
        // Set-up: the pass's scenarios built back to back, each handed
        // straight back to the arenas; the points then build their own.
        // Timed one by one inside the points, after a simulation run or
        // the host-speed kernel, these 50 µs constructors grew with about
        // the square of the host's slowdown, which dividing by it leaves.
        s.tick(tr);
        let t = Instant::now();
        for &p in pts {
            build(p, paper_config(), &mut arenas)
                .sim
                .recycle(&mut arenas);
        }
        let setup_s = secs(t);
        let mut acc = Pass::default();
        let mut op_ms = Vec::new();
        for (i, &p) in pts.iter().enumerate() {
            tr.set_id(pass * pts.len() as u64 + i as u64);
            s.tick(tr);
            let root = tr.begin("bench.point");
            let t = Instant::now();
            point(p, tr, &mut arenas, &mut out.checks, &mut acc);
            op_ms.push(secs(t) * 1e3);
            tr.end(root);
        }
        let ops_per_s = pts.len() as f64 / (op_ms.iter().sum::<f64>() * 1e-3);
        let Pass { tally, digest } = acc;
        s.repeat(
            setup_s,
            tally.events as f64 / tally.run_s,
            ops_per_s,
            &op_ms,
            tr.is_on(),
        );
        out.ops += pts.len() as u64;
        out.agree(variant, digest.0, || format!("paper_sweep pass {pass}"));
        first.get_or_insert(tally);
        pass += 1;
    }
    let t = first.expect("at least one pass");
    let l = &mut out.layers;
    l.insert("net.events", t.events as f64);
    l.insert("net.ns_per_event", t.run_s * 1e9 / t.events as f64);
    l.insert("net.pause_frames", t.pause_frames as f64);
    l.insert("net.scans_run", t.scans_run as f64);
    l.insert("net.scans_skipped", t.scans_skipped as f64);
    l.insert("net.deadlocks", t.deadlocks as f64);
    l.insert("core.eq3_agreement", t.eq3_agree as f64 / t.case1 as f64);
    l.insert(
        "mitigation.fixed_ratio",
        t.fixed as f64 / t.mitigated.max(1) as f64,
    );
    out.summary = format!(
        "passes={pass} points_per_pass={} acyclic={} deadlocked={} eq3_agree={}/{} fixed={}/{}",
        passes[0].len(),
        t.acyclic,
        t.mitigated,
        t.eq3_agree,
        t.case1,
        t.fixed,
        t.mitigated
    );
    out.set_e2e(&s);
    out
}
