//! Integration tests for simulator knobs not exercised by the paper's
//! core scenarios: quanta pauses, priority isolation, lossy classes,
//! timed route faults, and PFC-ignoring hosts.

use pfcsim_net::prelude::*;
use pfcsim_simcore::prelude::*;
use pfcsim_topo::prelude::*;

fn incast_topo() -> (Topology, NodeId, NodeId, NodeId) {
    let spec = LinkSpec::default();
    let mut t = Topology::new();
    let s0 = t.add_switch("s0");
    let s1 = t.add_switch("s1");
    let h0 = t.add_host("h0");
    let h1 = t.add_host("h1");
    let sink = t.add_host("sink");
    t.connect(s0, s1, spec.rate, spec.delay);
    t.connect(h0, s0, spec.rate, spec.delay);
    t.connect(h1, s0, spec.rate, spec.delay);
    t.connect(sink, s1, spec.rate, spec.delay);
    (t, h0, h1, sink)
}

#[test]
fn quanta_mode_incast_is_lossless_and_fair() {
    let (t, h0, h1, sink) = incast_topo();
    let mut cfg = SimConfig::default();
    cfg.pfc.mode = PauseMode::Quanta { quanta: 65535 };
    let mut sim = SimBuilder::new(&t).config(cfg).build();
    sim.add_flow(FlowSpec::infinite(0, h0, sink));
    sim.add_flow(FlowSpec::infinite(1, h1, sink));
    let report = sim.run(SimTime::from_ms(1));
    assert_eq!(
        report.stats.drops_overflow, 0,
        "quanta pauses keep losslessness"
    );
    assert!(report.stats.pause_frames > 0);
    for f in [FlowId(0), FlowId(1)] {
        let bps = report.stats.flows[&f]
            .meter
            .average_bps(SimTime::ZERO, report.end_time)
            .unwrap();
        assert!((bps - 20e9).abs() / 20e9 < 0.15, "flow {f}: {bps}");
    }
}

#[test]
fn quanta_pause_expires_without_resume_frame() {
    // With a short quantum and no refresh need (congestion clears), the
    // transmitter resumes on timer expiry alone.
    let (t, h0, h1, sink) = incast_topo();
    let mut cfg = SimConfig::default();
    cfg.pfc.mode = PauseMode::Quanta { quanta: 2048 };
    let mut sim = SimBuilder::new(&t).config(cfg).build();
    // A short finite burst congests, then everything drains.
    sim.add_flow(FlowSpec::infinite(0, h0, sink).stopping_at(SimTime::from_us(100)));
    sim.add_flow(FlowSpec::infinite(1, h1, sink).stopping_at(SimTime::from_us(100)));
    let report = sim.run_with_drain(SimTime::from_us(100), SimTime::from_ms(5));
    assert!(!report.verdict.is_deadlock());
    assert_eq!(
        report.buffered,
        Bytes::ZERO,
        "everything drains after expiry"
    );
    let total: u64 = report
        .stats
        .flows
        .values()
        .map(|f| f.delivered_packets)
        .sum();
    assert!(total > 500);
}

#[test]
fn priority_classes_are_isolated_by_pfc() {
    // Two flows on the same links, different classes. The incast congests
    // only the high class; the low class must keep its throughput and its
    // channel must never be paused.
    let spec = LinkSpec::default();
    let mut t = Topology::new();
    let s0 = t.add_switch("s0");
    let s1 = t.add_switch("s1");
    let h0 = t.add_host("h0");
    let h1 = t.add_host("h1");
    let sink = t.add_host("sink");
    let quiet = t.add_host("quiet");
    t.connect(s0, s1, spec.rate, spec.delay);
    t.connect(h0, s0, spec.rate, spec.delay);
    t.connect(h1, s0, spec.rate, spec.delay);
    t.connect(sink, s1, spec.rate, spec.delay);
    t.connect(quiet, s1, spec.rate, spec.delay);

    let mut sim = SimBuilder::new(&t).config(SimConfig::default()).build();
    // Class 3: 2:1 incast to `sink` (saturates the fabric link and pauses
    // the sending hosts for class 3).
    sim.add_flow(FlowSpec::infinite(0, h0, sink).with_priority(Priority::new(3)));
    sim.add_flow(FlowSpec::infinite(1, h1, sink).with_priority(Priority::new(3)));
    // Class 6 (strictly higher): CBR crossing the same fabric link.
    sim.add_flow(
        FlowSpec::cbr(2, h0, quiet, BitRate::from_gbps(5)).with_priority(Priority::new(6)),
    );
    let report = sim.run(SimTime::from_ms(2));
    let p6 = report.stats.pause_count(s0, s1, Priority::new(6));
    assert_eq!(p6, 0, "the quiet class must never be paused");
    let bps2 = report.stats.flows[&FlowId(2)]
        .meter
        .average_bps(SimTime::ZERO, report.end_time)
        .unwrap();
    assert!(
        (bps2 - 5e9).abs() / 5e9 < 0.1,
        "quiet class keeps its 5 Gbps through the congested fabric: {bps2}"
    );
    // The incast still shares the remaining ~35 Gbps fairly.
    for f in [FlowId(0), FlowId(1)] {
        let bps = report.stats.flows[&f]
            .meter
            .average_bps(SimTime::ZERO, report.end_time)
            .unwrap();
        assert!((bps - 17.5e9).abs() / 17.5e9 < 0.15, "flow {f}: {bps}");
    }
    assert_eq!(report.stats.drops_overflow, 0);
}

#[test]
fn lossy_class_tail_drops_instead_of_pausing() {
    let (t, h0, h1, sink) = incast_topo();
    let mut cfg = SimConfig::default();
    // Only class 3 is lossless; run the incast on class 6 (lossy).
    cfg.pfc.lossless_classes = 0b0000_1000;
    let mut sim = SimBuilder::new(&t).config(cfg).build();
    sim.add_flow(FlowSpec::infinite(0, h0, sink).with_priority(Priority::new(6)));
    sim.add_flow(FlowSpec::infinite(1, h1, sink).with_priority(Priority::new(6)));
    let report = sim.run(SimTime::from_ms(1));
    assert_eq!(report.stats.pause_frames, 0, "lossy classes never pause");
    assert!(
        report.stats.drops_overflow > 100,
        "2:1 oversubscription must tail-drop: {}",
        report.stats.drops_overflow
    );
}

#[test]
fn timed_route_faults_black_hole_and_recover() {
    let b = line(2, LinkSpec::default());
    let mut sim = SimBuilder::new(&b.topo)
        .config(SimConfig::default())
        .build();
    sim.add_flow(FlowSpec::cbr(
        0,
        b.hosts[0],
        b.hosts[1],
        BitRate::from_gbps(5),
    ));
    // 100..300 us: s0 loses its route to h1 (packets arriving there drop).
    sim.schedule_route_update(SimTime::from_us(100), b.switches[0], b.hosts[1], vec![]);
    let repair = b
        .topo
        .port_towards(b.switches[0], b.switches[1])
        .unwrap()
        .port;
    sim.schedule_route_update(
        SimTime::from_us(300),
        b.switches[0],
        b.hosts[1],
        vec![repair],
    );
    let report = sim.run_with_drain(SimTime::from_ms(1), SimTime::from_ms(3));
    let fs = &report.stats.flows[&FlowId(0)];
    assert!(
        fs.dropped_no_route > 50,
        "black-hole window drops: {}",
        fs.dropped_no_route
    );
    assert!(fs.delivered_packets > 400, "traffic resumes after repair");
    assert_eq!(
        fs.injected_packets,
        fs.delivered_packets + fs.dropped_ttl + fs.dropped_no_route + fs.unsent_packets
    );
}

#[test]
fn disrespectful_hosts_break_losslessness() {
    let (t, h0, h1, sink) = incast_topo();
    let mut cfg = SimConfig::default();
    cfg.host_respects_pfc = false;
    // A small switch buffer makes the failure visible quickly.
    cfg.switch_buffer = Bytes::from_kb(200);
    let mut sim = SimBuilder::new(&t).config(cfg).build();
    sim.add_flow(FlowSpec::infinite(0, h0, sink));
    sim.add_flow(FlowSpec::infinite(1, h1, sink));
    let report = sim.run(SimTime::from_ms(1));
    assert!(
        report.stats.drops_overflow > 0,
        "hosts ignoring PFC overflow the shared buffer"
    );
}

#[test]
fn empty_simulation_quiesces_immediately() {
    let b = line(2, LinkSpec::default());
    let mut sim = SimBuilder::new(&b.topo)
        .config(SimConfig::default())
        .build();
    let report = sim.run(SimTime::from_ms(1));
    assert!(report.quiesced);
    assert!(!report.verdict.is_deadlock());
    assert_eq!(report.events, 0);
}

#[test]
fn flow_start_stop_windows_respected() {
    let b = line(2, LinkSpec::default());
    let mut sim = SimBuilder::new(&b.topo)
        .config(SimConfig::default())
        .build();
    sim.add_flow(
        FlowSpec::cbr(0, b.hosts[0], b.hosts[1], BitRate::from_gbps(10))
            .starting_at(SimTime::from_us(100))
            .stopping_at(SimTime::from_us(200)),
    );
    let report = sim.run(SimTime::from_ms(1));
    let fs = &report.stats.flows[&FlowId(0)];
    // 100 us at 10 Gbps = 125 packets of 1000 B.
    assert!(
        (120..=130).contains(&fs.injected_packets),
        "{}",
        fs.injected_packets
    );
    let first = fs.meter.last_delivery().unwrap();
    assert!(first > SimTime::from_us(100));
}

#[test]
fn pfc_overshoot_is_bounded_by_bandwidth_delay_headroom() {
    // The occupancy overshoot above XOFF is bounded by what arrives during
    // the pause feedback loop: one in-flight packet at the sender, the
    // PAUSE frame's serialization + propagation, plus the propagation of
    // data already on the wire. For 40 Gbps / 1 us links and 1000 B
    // packets: <= 40G/8 * (2*1us) + 2*MTU ≈ 12 KB of headroom.
    let (t, h0, h1, sink) = incast_topo();
    let mut sim = SimBuilder::new(&t).config(SimConfig::default()).build();
    sim.add_flow(FlowSpec::infinite(0, h0, sink));
    sim.add_flow(FlowSpec::infinite(1, h1, sink));
    let report = sim.run(SimTime::from_ms(2));
    let xoff = 40_000u64;
    let headroom = 12_000u64;
    let mut checked = 0;
    for (key, series) in &report.stats.occupancy {
        let max = series.max();
        assert!(
            max <= xoff + headroom,
            "ingress {key:?} overshot to {max} bytes (> {xoff} + {headroom})"
        );
        checked += 1;
    }
    assert!(checked > 0, "occupancy was sampled");
}

#[test]
fn watch_only_restricts_sampling() {
    let b = line(2, LinkSpec::default());
    let mut sim = SimBuilder::new(&b.topo)
        .config(SimConfig::default())
        .build();
    sim.add_flow(FlowSpec::infinite(0, b.hosts[0], b.hosts[1]));
    let key = IngressKey {
        node: b.switches[1],
        port: b
            .topo
            .port_towards(b.switches[1], b.switches[0])
            .unwrap()
            .port,
        priority: Priority::DEFAULT,
    };
    sim.watch_only([key]);
    let report = sim.run(SimTime::from_us(200));
    assert_eq!(report.stats.occupancy.len(), 1, "only the watched queue");
    assert!(report.stats.occupancy.contains_key(&key));
}

#[test]
fn buffered_bytes_and_now_accessors() {
    let b = line(2, LinkSpec::default());
    let mut sim = SimBuilder::new(&b.topo)
        .config(SimConfig::default())
        .build();
    assert_eq!(sim.now(), SimTime::ZERO);
    assert_eq!(sim.buffered_bytes(), Bytes::ZERO);
    sim.add_flow(FlowSpec::infinite(0, b.hosts[0], b.hosts[1]));
    let _ = sim.run(SimTime::from_us(50));
}

#[test]
#[should_panic(expected = "run methods may be called once")]
fn double_run_rejected() {
    let b = line(2, LinkSpec::default());
    let mut sim = SimBuilder::new(&b.topo)
        .config(SimConfig::default())
        .build();
    sim.add_flow(FlowSpec::infinite(0, b.hosts[0], b.hosts[1]));
    let _ = sim.run(SimTime::from_us(10));
    let _ = sim.run(SimTime::from_us(20));
}

#[test]
#[should_panic(expected = "cannot add flows after the run started")]
fn late_flow_addition_rejected() {
    let b = line(2, LinkSpec::default());
    let mut sim = SimBuilder::new(&b.topo)
        .config(SimConfig::default())
        .build();
    sim.add_flow(FlowSpec::infinite(0, b.hosts[0], b.hosts[1]));
    let _ = sim.run(SimTime::from_us(10));
    sim.add_flow(FlowSpec::infinite(1, b.hosts[1], b.hosts[0]));
}

#[test]
fn fig4_deadlock_is_threshold_scale_invariant_under_infinite_demand() {
    // Raising the PFC threshold does NOT save the Fig. 4 workload: with
    // infinite demand the queue dynamics rescale with the threshold, the
    // pauses arrive later but align all the same. Buffer/threshold size is
    // not a deadlock mitigation (the paper's point that buffer-management
    // schemes need *classes*, not capacity).
    for kb in [40u64, 400] {
        let b = square(LinkSpec::default());
        let mut cfg = SimConfig::default();
        cfg.pfc.xoff = Bytes::from_kb(kb);
        cfg.pfc.xon = Bytes::from_kb(kb / 2);
        let mut sim = SimBuilder::new(&b.topo).config(cfg).build();
        let (s, h) = (&b.switches, &b.hosts);
        sim.add_flow(
            FlowSpec::infinite(1, h[0], h[3]).pinned(vec![h[0], s[0], s[1], s[2], s[3], h[3]]),
        );
        sim.add_flow(
            FlowSpec::infinite(2, h[2], h[1]).pinned(vec![h[2], s[2], s[3], s[0], s[1], h[1]]),
        );
        sim.add_flow(FlowSpec::infinite(3, h[1], h[2]).pinned(vec![h[1], s[1], s[2], h[2]]));
        let r = sim.run(SimTime::from_ms(10));
        assert!(
            r.verdict.is_deadlock(),
            "threshold {kb} KB must not prevent the Fig. 4 deadlock"
        );
    }
}

#[test]
fn dynamic_thresholds_absorb_finite_bursts_without_pausing() {
    // Where dynamic (alpha) thresholds genuinely help: finite bursts on a
    // deep buffer. A 2:1 incast burst of 200 KB per sender crosses a
    // static 40 KB threshold and pauses; with alpha-DT on the 12 MB buffer
    // the effective threshold sits in the megabytes and the fabric absorbs
    // the burst silently.
    let run = |dynamic: bool| {
        let (t, h0, h1, sink) = incast_topo();
        let mut cfg = SimConfig::default();
        if dynamic {
            cfg.pfc.xoff = Bytes::from_mb(4);
            cfg.pfc.xon = Bytes::from_mb(2);
            cfg.pfc.dynamic_alpha = Some((1, 4));
        }
        let mut sim = SimBuilder::new(&t).config(cfg).build();
        for (i, h) in [h0, h1].into_iter().enumerate() {
            let mut f = FlowSpec::cbr(i as u32, h, sink, BitRate::from_gbps(40));
            f.demand = Demand::CbrFinite {
                rate: BitRate::from_gbps(40),
                total: Bytes::from_kb(200),
            };
            sim.add_flow(f);
        }
        sim.run_with_drain(SimTime::from_ms(1), SimTime::from_ms(3))
    };
    let fixed = run(false);
    assert!(fixed.stats.pause_frames > 0, "static 40 KB must pause");
    let dt = run(true);
    assert_eq!(dt.stats.pause_frames, 0, "alpha-DT absorbs the burst");
    assert_eq!(dt.stats.drops_overflow, 0);
    // Both deliver everything.
    for r in [&fixed, &dt] {
        let delivered: u64 = r.stats.flows.values().map(|f| f.delivered_packets).sum();
        assert_eq!(delivered, 400, "2 x 200 KB in 1 KB packets");
    }
}

#[test]
fn dynamic_thresholds_clamp_down_as_buffer_fills() {
    // Shallow buffer + DT: the threshold scales with the free buffer, so
    // heavy incast still pauses and still never drops.
    let (t, h0, h1, sink) = incast_topo();
    let mut cfg = SimConfig::default();
    cfg.switch_buffer = Bytes::from_kb(300);
    cfg.pfc.xoff = Bytes::from_kb(100);
    cfg.pfc.xon = Bytes::from_kb(50);
    cfg.pfc.dynamic_alpha = Some((1, 4));
    let mut sim = SimBuilder::new(&t).config(cfg).build();
    sim.add_flow(FlowSpec::infinite(0, h0, sink));
    sim.add_flow(FlowSpec::infinite(1, h1, sink));
    let report = sim.run(SimTime::from_ms(1));
    assert!(report.stats.pause_frames > 0, "DT must still pause");
    assert_eq!(report.stats.drops_overflow, 0, "and still be lossless");
    assert!(!report.verdict.is_deadlock());
}

#[test]
fn wrr_class_scheduling_prevents_low_class_starvation() {
    // Two infinite flows on different classes share one egress. Strict
    // priority starves the lower class completely; WRR splits ~50/50.
    let run = |policy: ClassScheduling| {
        let b = line(2, LinkSpec::default());
        let spec = LinkSpec::default();
        // Two sources on s0 so each class has its own ingress.
        let mut t = Topology::new();
        let s0 = t.add_switch("s0");
        let s1 = t.add_switch("s1");
        let ha = t.add_host("ha");
        let hb = t.add_host("hb");
        let sink = t.add_host("sink");
        t.connect(s0, s1, spec.rate, spec.delay);
        t.connect(ha, s0, spec.rate, spec.delay);
        t.connect(hb, s0, spec.rate, spec.delay);
        t.connect(sink, s1, spec.rate, spec.delay);
        let _ = b;
        let mut cfg = SimConfig::default();
        cfg.class_scheduling = policy;
        let mut sim = SimBuilder::new(&t).config(cfg).build();
        sim.add_flow(FlowSpec::infinite(0, ha, sink).with_priority(Priority::new(6)));
        sim.add_flow(FlowSpec::infinite(1, hb, sink).with_priority(Priority::new(1)));
        let r = sim.run(SimTime::from_ms(1));
        let gbps = |f: u32| {
            r.stats.flows[&FlowId(f)]
                .meter
                .average_bps(SimTime::ZERO, r.end_time)
                .unwrap_or(0.0)
                / 1e9
        };
        (gbps(0), gbps(1))
    };

    let (hi_strict, lo_strict) = run(ClassScheduling::Strict);
    assert!(
        hi_strict > 35.0,
        "strict: high class takes the link: {hi_strict}"
    );
    assert!(lo_strict < 2.0, "strict: low class starves: {lo_strict}");

    let (hi_wrr, lo_wrr) = run(ClassScheduling::Wrr);
    assert!(
        (hi_wrr - 20.0).abs() < 3.0 && (lo_wrr - 20.0).abs() < 3.0,
        "WRR splits the egress: {hi_wrr} / {lo_wrr}"
    );
}

fn loop_deadlock_sim(cfg: SimConfig) -> (NetSim, SimTime) {
    let b = two_switch_loop(LinkSpec::default());
    let mut tables = pfcsim_topo::routing::shortest_path_tables(&b.topo);
    pfcsim_topo::routing::install_cycle_route(
        &b.topo,
        &mut tables,
        &[b.switches[0], b.switches[1]],
        b.hosts[1],
    );
    let mut sim = SimBuilder::new(&b.topo).config(cfg).tables(tables).build();
    sim.add_flow(FlowSpec::cbr(0, b.hosts[0], b.hosts[1], BitRate::from_gbps(10)).with_ttl(16));
    (sim, SimTime::from_ms(10))
}

#[test]
fn scan_interval_none_detects_only_at_final_scan() {
    // With periodic scanning disabled the deadlock still forms, but it can
    // only be confirmed by the end-of-run scan: detection time equals the
    // run's end, and no periodic scan ever ran.
    let mut cfg = SimConfig::default();
    cfg.deadlock_scan_interval = None;
    let (mut sim, horizon) = loop_deadlock_sim(cfg);
    let r = sim.run(horizon);
    match r.verdict {
        Verdict::Deadlock { detected_at, .. } => {
            assert_eq!(detected_at, r.end_time, "final-scan detection only");
        }
        ref v => panic!("expected deadlock, got {v:?}"),
    }
    assert_eq!(r.deadlock_scans_run, 0, "no periodic scans were armed");
    assert_eq!(r.deadlock_scans_skipped, 0);
}

#[test]
fn scan_landing_exactly_at_horizon_still_fires() {
    // Scans at t = 0 and t = horizon only. The horizon-edge event must be
    // processed (the run loop pops events with t == horizon) and must not
    // reschedule past the horizon.
    let horizon = SimTime::from_ms(10);
    let mut cfg = SimConfig::default();
    cfg.deadlock_scan_interval = Some(SimDuration::from_ms(10));
    let (mut sim, _) = loop_deadlock_sim(cfg);
    let r = sim.run(horizon);
    match r.verdict {
        Verdict::Deadlock { detected_at, .. } => {
            assert_eq!(
                detected_at, horizon,
                "the scan landing exactly at the horizon detects it"
            );
        }
        ref v => panic!("expected deadlock, got {v:?}"),
    }
}

#[test]
fn epoch_heuristic_skips_redundant_scans() {
    // A slow trickle (one packet every ~120 us) against a 5 us scan
    // cadence: most scan ticks see no pause flip and no byte movement
    // since the previous clean scan and must skip the analysis.
    let (t, h0, _, sink) = incast_topo();
    let mut cfg = SimConfig::default();
    cfg.deadlock_scan_interval = Some(SimDuration::from_us(5));
    let mut sim = SimBuilder::new(&t).config(cfg).build();
    sim.add_flow(
        FlowSpec::cbr(0, h0, sink, BitRate::from_mbps(100)).stopping_at(SimTime::from_ms(1)),
    );
    let r = sim.run(SimTime::from_ms(1));
    assert!(!r.verdict.is_deadlock());
    assert!(r.deadlock_scans_run > 0, "some scans must run");
    assert!(
        r.deadlock_scans_skipped > r.deadlock_scans_run,
        "idle gaps dominate: {} skipped vs {} run",
        r.deadlock_scans_skipped,
        r.deadlock_scans_run
    );
}

/// FNV-1a over the canonical JSON of a run's stats.
fn stats_digest(stats: &NetStats) -> u64 {
    let json = serde_json::to_string(stats).expect("stats serialize");
    json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// The sampler's edge cases in one incast run: `watch_only` narrows the
/// watched set mid-run at 100 µs and widens it again at 300 µs (a key
/// watched again continues its series), a reboot of `s0` at 150 µs
/// clears its ingress flow ledgers while flows keep arriving after the
/// restore, and a flow that starts at 250 µs joins a ledger mid-run
/// ahead of a flow already there (flow ids order the ledger).
/// `checkpoint_at_watch` round-trips the run through checkpoint bytes
/// right after each `watch_only` call.
fn sampler_edge_run(checkpoint_at_watch: bool) -> (RunReport, [IngressKey; 3]) {
    let (t, h0, h1, sink) = incast_topo();
    let s0 = t.find("s0").expect("s0");
    let s1 = t.find("s1").expect("s1");
    let key = |node, peer| IngressKey {
        node,
        port: t.port_towards(node, peer).expect("adjacent").port,
        priority: Priority::DEFAULT,
    };
    let keys = [key(s0, h0), key(s0, h1), key(s1, s0)];
    let mut sim = SimBuilder::new(&t).config(SimConfig::default()).build();
    sim.add_flow(FlowSpec::infinite(1, h0, sink));
    sim.add_flow(FlowSpec::infinite(2, h1, sink));
    sim.add_flow(FlowSpec::infinite(0, h0, sink).starting_at(SimTime::from_us(250)));
    sim.set_fault_plan(FaultPlan::new().switch_reboot(
        SimTime::from_us(150),
        s0,
        SimDuration::from_us(30),
    ))
    .expect("valid plan");
    sim.schedule_flow_stops(SimTime::from_us(400));
    let horizon = SimTime::from_us(600);
    let watch = |mut sim: NetSim, at_us: u64, keys: &[IngressKey]| -> NetSim {
        assert!(sim
            .advance_until(SimTime::from_us(at_us), horizon)
            .is_none());
        sim.watch_only(keys.iter().copied());
        if !checkpoint_at_watch {
            return sim;
        }
        let bytes = sim.checkpoint().expect("checkpointable").to_bytes();
        let ckpt = Checkpoint::from_bytes(&bytes).expect("frame round-trips");
        NetSim::resume(ckpt).expect("restorable")
    };
    sim = watch(sim, 100, &[keys[0], keys[2]]);
    sim = watch(sim, 300, &keys);
    (sim.resume_run(), keys)
}

#[test]
fn sampler_survives_mid_run_watch_only_and_reboot() {
    let (report, [s0_h0, s0_h1, _]) = sampler_edge_run(false);
    let stats = &report.stats;
    assert!(stats
        .faults
        .iter()
        .any(|r| matches!(r.action, FaultAction::SwitchRebooted { .. })));
    // Unwatched from 100 to 300 µs, then the same series continues.
    let gap = stats.occupancy[&s0_h1]
        .samples()
        .iter()
        .filter(|(t, _)| (SimTime::from_us(101)..SimTime::from_us(300)).contains(t))
        .count();
    assert_eq!(gap, 0, "no samples while unwatched");
    assert!(stats.occupancy[&s0_h1].samples().last().unwrap().0 > SimTime::from_us(300));
    // Flow 1's series continues after the reboot cleared the ledger.
    let f1 = &stats.flow_occupancy[&(s0_h0, FlowId(1))];
    assert!(f1.samples().first().unwrap().0 < SimTime::from_us(150));
    assert!(f1.samples().last().unwrap().0 > SimTime::from_us(180));
    let f0 = &stats.flow_occupancy[&(s0_h0, FlowId(0))];
    assert!(f0.samples().first().unwrap().0 >= SimTime::from_us(250));
    assert_eq!(
        stats_digest(stats),
        SAMPLER_EDGE_DIGEST,
        "sampled series moved: {:#018x}",
        stats_digest(stats)
    );
    let (split, _) = sampler_edge_run(true);
    assert_eq!(
        serde_json::to_string(&split.stats).unwrap(),
        serde_json::to_string(stats).unwrap(),
        "checkpoint/resume at the watch_only calls changed the stats"
    );
}

/// Recorded with the map-based sampler the slot sampler replaced.
const SAMPLER_EDGE_DIGEST: u64 = 0xb4ea_5ed4_d9e2_437c;
