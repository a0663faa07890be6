//! `fabric_k8`: one long run on a k=8 fat-tree under ECMP shortest-path
//! tables and the default `SimConfig`, repeated for the whole measuring
//! window over a few seeded traffic matrices. Half the hosts send CBR flows
//! to the other half across pods, and four 8-to-1 incasts of infinite flows
//! keep PFC pausing. Every flow stops at `STOP` and the fabric drains until
//! `END`, so per-flow conservation is exact at the end of each run.
//!
//! The run is advanced in `SLICE` steps of simulated time with
//! `NetSim::advance_until` (bit-identical to one uninterrupted run); the
//! host time of one step is this workload's operation latency.

use std::time::Instant;

use pfcsim_net::prelude::*;
use pfcsim_simcore::prelude::*;
use pfcsim_topo::prelude::*;

use crate::trace::Tracer;
use crate::util::{median, secs, variant_seed, Checks, Digest, Rng};
use crate::{traced_repeat, Layers, Outcome, Samples};

const K: usize = 8;
/// Traffic matrices a run cycles through.
const VARIANTS: u64 = 8;
const STOP: SimTime = SimTime::from_us(500);
const END: SimTime = SimTime::from_us(1_100);
const SLICE: SimDuration = SimDuration::from_us(10);
const INCASTS: usize = 4;
const FAN_IN: usize = 8;
/// Permutation flows are CBR at a rate that no ECMP collision of up to
/// four flows can congest, so their load does not depend on the seed.
const PERMUTATION_RATE: BitRate = BitRate::from_gbps(10);

/// The seeded traffic matrix: `(src, dst, rate)` by host index, `None`
/// for infinite demand.
fn traffic(seed: u64) -> Vec<(usize, usize, Option<BitRate>)> {
    let hosts = K * K * K / 4;
    let pod = |h: usize| h / (K * K / 4);
    let mut rng = Rng::new(seed, 1);
    let mut order: Vec<usize> = (0..hosts).collect();
    rng.shuffle(&mut order);
    // Half the hosts send to the other half. Every permutation pair and
    // every incast sender spans two pods, so each flow crosses the core
    // and the work per run is alike for every seed.
    let (send, recv) = order.split_at_mut(hosts / 2);
    for i in 0..send.len() {
        while pod(recv[i]) == pod(send[i]) {
            let j = rng.below(recv.len());
            if pod(recv[j]) != pod(send[i]) && pod(recv[i]) != pod(send[j]) {
                recv.swap(i, j);
            }
        }
    }
    let mut pairs: Vec<(usize, usize, Option<BitRate>)> = send
        .iter()
        .zip(recv.iter())
        .map(|(&s, &d)| (s, d, Some(PERMUTATION_RATE)))
        .collect();
    rng.shuffle(&mut order);
    for &t in &order[..INCASTS] {
        let mut senders = Vec::new();
        while senders.len() < FAN_IN {
            let s = rng.below(hosts);
            if pod(s) != pod(t) && !senders.contains(&s) {
                senders.push(s);
            }
        }
        pairs.extend(senders.into_iter().map(|s| (s, t, None)));
    }
    pairs
}

/// A built fabric, flows added, stops scheduled.
fn setup(tr: &mut Tracer, seed: u64, variant: u64, cfg: &SimConfig) -> NetSim {
    let built = tr.span("topo.build", || fat_tree(K, LinkSpec::default()));
    let tables = tr.span("topo.routing", || shortest_path_tables(&built.topo));
    let pairs = traffic(variant_seed(seed, variant));
    tr.span("net.build", || {
        let mut sim = SimBuilder::new(&built.topo)
            .config(cfg.clone())
            .tables(tables)
            .build();
        for (i, &(s, d, rate)) in pairs.iter().enumerate() {
            let (s, d) = (built.hosts[s], built.hosts[d]);
            sim.add_flow(match rate {
                Some(r) => FlowSpec::cbr(i as u32, s, d, r),
                None => FlowSpec::infinite(i as u32, s, d),
            });
        }
        sim.schedule_flow_stops(STOP);
        sim
    })
}

/// One fabric run: its report and the host seconds of each slice, calling
/// `before` right before each slice.
fn run(
    tr: &mut Tracer,
    sim: &mut NetSim,
    mut before: impl FnMut(&mut Tracer),
) -> (RunReport, Vec<f64>) {
    let mut slices = Vec::new();
    let mut t = SimTime::ZERO;
    loop {
        t = (t + SLICE).min(END);
        before(tr);
        let start = Instant::now();
        let out = tr.span("net.run", || sim.advance_until(t, END));
        slices.push(secs(start));
        if let Some(report) = out {
            return (report, slices);
        }
    }
}

/// Slices while traffic flows: this workload's operations.
const ACTIVE_SLICES: usize = (STOP.as_ps() / SLICE.as_ps()) as usize;

/// Check the run and fold its simulated results into a digest.
fn check(report: &RunReport, checks: &mut Checks) -> u64 {
    checks.check(!report.verdict.is_deadlock(), || {
        "fabric_k8: up-down fat-tree routes deadlocked".into()
    });
    checks.check(report.buffered.is_zero(), || {
        format!(
            "fabric_k8: {} still buffered after the drain",
            report.buffered
        )
    });
    let mut d = Digest::new();
    d.u64(report.events);
    d.u64(report.end_time.as_ps());
    d.u64(u64::from(report.verdict.is_deadlock()));
    d.u64(report.stats.pause_frames);
    d.u64(report.stats.resume_frames);
    for (id, fs) in &report.stats.flows {
        let accounted = fs.delivered_packets
            + fs.dropped_ttl
            + fs.dropped_no_route
            + fs.dropped_overflow
            + fs.dropped_recovery
            + fs.dropped_link_down
            + fs.dropped_pause_loss
            + fs.unsent_packets
            + fs.stuck_packets;
        checks.check(fs.injected_packets == accounted, || {
            format!(
                "fabric_k8: flow {} injected {} but accounted {accounted}",
                id.0, fs.injected_packets
            )
        });
        d.u64(u64::from(id.0));
        d.u64(fs.delivered_bytes.get());
        d.u64(fs.injected_packets);
    }
    d.0
}

/// Repeat set-up and run, cycling through the traffic variants, until
/// `seconds` have passed and every variant ran once and one twice; every
/// repeat of a variant must reproduce its first digest.
pub fn measure(seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
    let cfg = SimConfig::default();
    let mut out = Outcome::default();
    let mut s = Samples::default();
    let begin = Instant::now();
    let mut rep = 0;
    let (mut events, mut run_total) = (0u64, 0.0);
    while rep <= VARIANTS || secs(begin) < seconds {
        let variant = rep % VARIANTS;
        tr.enable(traced_repeat(rep, VARIANTS));
        tr.set_id(rep);
        let root = tr.begin("bench.run");
        s.tick(tr);
        let t = Instant::now();
        let mut sim = setup(tr, seed, variant, &cfg);
        let setup_s = secs(t);
        let (report, slices) = run(tr, &mut sim, |tr| s.tick(tr));
        tr.end(root);
        let run_s: f64 = slices.iter().sum();
        events += report.events;
        run_total += run_s;
        let op_ms: Vec<f64> = slices[..ACTIVE_SLICES].iter().map(|x| x * 1e3).collect();
        s.repeat(
            setup_s,
            report.events as f64 / run_s,
            op_ms.len() as f64 / (op_ms.iter().sum::<f64>() * 1e-3),
            &op_ms,
            tr.is_on(),
        );
        out.ops += op_ms.len() as u64;
        let digest = check(&report, &mut out.checks);
        out.agree(variant, digest, || format!("fabric_k8 repeat {rep}"));
        if rep == 0 {
            let l = &mut out.layers;
            l.insert("net.events", report.events as f64);
            l.insert("net.pause_frames", report.stats.pause_frames as f64);
            l.insert("net.scans_run", report.deadlock_scans_run as f64);
            l.insert("net.scans_skipped", report.deadlock_scans_skipped as f64);
            l.insert(
                "net.deadlocks",
                u64::from(report.verdict.is_deadlock()) as f64,
            );
        }
        rep += 1;
    }
    out.layers
        .insert("net.ns_per_event", run_total * 1e9 / events as f64);
    out.summary = format!(
        "flows={} events_per_run={}",
        K * K * K / 8 + INCASTS * FAN_IN,
        out.layers["net.events"]
    );
    out.set_e2e(&s);
    out
}

/// The ablations, interleaved round-robin so host noise hits each alike:
/// the default configuration and three variants that differ in one
/// public `SimConfig` field. Records the layer shares, and the default
/// configuration's digests.
pub fn ablate(seed: u64, seconds: f64, out: &mut Outcome) {
    let base = SimConfig::default();
    let mut no_sampling = base.clone();
    no_sampling.sample_interval = None;
    let mut no_scans = base.clone();
    no_scans.deadlock_scan_interval = None;
    let mut heap = base.clone();
    heap.scheduler = Some(SchedulerBackend::Heap);
    let configs = [base, no_sampling, no_scans, heap];
    let mut times: [Vec<f64>; 4] = Default::default();
    let mut digests: [std::collections::BTreeMap<u64, u64>; 4] = Default::default();
    let mut off = Tracer::new(false);
    let begin = Instant::now();
    let mut round = 0;
    while round < 2 || secs(begin) < seconds {
        let variant = round % VARIANTS;
        for (i, cfg) in configs.iter().enumerate() {
            let mut sim = setup(&mut off, seed, variant, cfg);
            let (report, slices) = run(&mut off, &mut sim, |_| {});
            times[i].push(slices.iter().sum());
            out.ops += ACTIVE_SLICES as u64;
            let d = check(&report, &mut out.checks);
            let first = *digests[i].entry(variant).or_insert(d);
            out.checks.check(first == d, || {
                format!("fabric_k8 ablation {i}: repeats disagree")
            });
        }
        round += 1;
    }
    out.checks.check(digests[0] == digests[3], || {
        "fabric_k8: heap and wheel schedulers disagree".into()
    });
    let t: Vec<f64> = times.iter().map(|v| median(v)).collect();
    let l: &mut Layers = &mut out.layers;
    l.insert("net.sampling_share", 1.0 - t[1] / t[0]);
    l.insert("net.scan_share", 1.0 - t[2] / t[0]);
    l.insert("simcore.heap_over_wheel", t[3] / t[0]);
    for (&v, &d) in &digests[0] {
        out.agree(v, d, || format!("fabric_k8 ablation default, variant {v}"));
    }
}
