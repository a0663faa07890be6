//! Anchors the plain `cargo test` pins:
//!
//! * the fault-laden golden run reproduces `GOLDEN_DIGEST` under both
//!   scheduler backends, and across a mid-run checkpoint written to bytes
//!   and resumed in a fresh simulator;
//! * the checkpoint byte format: the golden run's frame at 1.5 ms and the
//!   default configuration's digest hash to recorded constants, and the
//!   streamed state digest equals the digest of the value tree;
//! * probe ≡ oracle on a small resident session: a what-if verdict is
//!   byte-equal to a fresh batch replay's, and the probe leaves the
//!   resident's digest untouched.
//!
//! The full matrices (arena reuse, corrupted frames, config mismatches,
//! random sessions) live in `crates/net/tests/determinism_golden.rs` and
//! `crates/net/tests/serve_protocol.rs`.

use pfcsim::net::checkpoint::{config_digest, Checkpoint};
use pfcsim::net::config::{SchedulerBackend, SimConfig};
use pfcsim::net::flow::FlowSpec;
use pfcsim::net::golden::{self, DRAIN_UNTIL, GOLDEN_DIGEST, STOP_AT};
use pfcsim::net::sim::{NetSim, SimArenas};
use pfcsim::session::{RoutePush, Session, SessionSpec, Update};
use pfcsim::simcore::snap;
use pfcsim::simcore::time::{SimDuration, SimTime};
use pfcsim::simcore::units::BitRate;
use pfcsim::topo::builders::{fat_tree, LinkSpec};
use pfcsim::topo::ids::NodeId;
use pfcsim::topo::routing::trace_path;

const BACKENDS: [SchedulerBackend; 2] = [SchedulerBackend::Wheel, SchedulerBackend::Heap];

/// [`snap::fnv1a`] of the golden run's checkpoint frame at 1.5 ms, under
/// each of [`BACKENDS`]: any change to the frame bytes moves it.
const GOLDEN_FRAME_FNV: [u64; 2] = [0x86bc22529bda102d, 0x8306541bfed90ec7];

/// `config_digest(&SimConfig::default())`.
const DEFAULT_CONFIG_DIGEST: u64 = 0x59645b386ee1d2ce;

/// The golden run paused at 1.5 ms (still busy), and its checkpoint.
fn golden_checkpoint(sched: SchedulerBackend) -> Checkpoint {
    let mut sim = golden::build_sim(Some(sched), &mut SimArenas::new());
    sim.schedule_flow_stops(STOP_AT);
    assert!(
        sim.advance_until(SimTime::from_us(1500), DRAIN_UNTIL)
            .is_none(),
        "golden run should still be busy at the pause point"
    );
    sim.checkpoint().expect("checkpointable")
}

#[test]
fn golden_digest_under_wheel_and_heap() {
    for sched in BACKENDS {
        let d = golden::digest(&golden::run_with(Some(sched), &mut SimArenas::new()));
        assert_eq!(
            d, GOLDEN_DIGEST,
            "golden digest moved under {sched:?}: {d:#018x}"
        );
    }
}

/// Pause at 1.5 ms, encode the checkpoint frame, decode it, resume in a
/// fresh simulator: the finished run lands on the golden digest.
#[test]
fn golden_digest_survives_checkpoint_bytes_and_resume() {
    for sched in BACKENDS {
        let bytes = golden_checkpoint(sched).to_bytes();
        let ckpt = Checkpoint::from_bytes(&bytes).expect("frame round-trips");
        assert_eq!(ckpt.sim_time(), SimTime::from_us(1500));
        let d = golden::digest(&NetSim::resume(ckpt).expect("restorable").resume_run());
        assert_eq!(
            d, GOLDEN_DIGEST,
            "checkpoint/resume diverged under {sched:?}: {d:#018x}"
        );
    }
}

/// The frame bytes and the config digest are pinned, and the streamed
/// state digest is the digest of the checkpoint's value tree.
#[test]
fn checkpoint_bytes_and_digests_are_pinned() {
    let d = config_digest(&SimConfig::default());
    assert_eq!(
        d, DEFAULT_CONFIG_DIGEST,
        "default config digest moved: {d:#018x}"
    );
    for (sched, want) in BACKENDS.into_iter().zip(GOLDEN_FRAME_FNV) {
        let ckpt = golden_checkpoint(sched);
        let frame = snap::fnv1a(&ckpt.to_bytes());
        assert_eq!(
            frame, want,
            "frame bytes moved under {sched:?}: {frame:#018x}"
        );
        let tree = serde_json::to_value(&ckpt).expect("checkpoint serializes");
        assert_eq!(ckpt.state_digest(), snap::value_digest(&tree), "{sched:?}");
    }
}

/// A k=4 fat-tree session with four cross-pod CBR flows, warmed to 50 µs.
fn small_session() -> (Session, Vec<FlowSpec>) {
    let built = fat_tree(4, LinkSpec::default());
    let h = &built.hosts;
    let flows = vec![
        FlowSpec::cbr(0, h[0], h[4], BitRate::from_gbps(8)),
        FlowSpec::cbr(1, h[5], h[10], BitRate::from_gbps(3)),
        FlowSpec::cbr(2, h[11], h[14], BitRate::from_gbps(5)),
        FlowSpec::cbr(3, h[15], h[1], BitRate::from_gbps(2)),
    ];
    let mut spec = SessionSpec::new(built.topo, flows.clone());
    spec.config.seed = 7;
    let mut s = Session::open(spec).expect("session opens");
    s.apply(Update::AdvanceTo(SimTime::from_us(50)))
        .expect("warm-up");
    (s, flows)
}

/// The switches `f` crosses under the session's committed tables.
fn switch_path(s: &Session, f: &FlowSpec) -> Vec<NodeId> {
    let t = trace_path(s.topo(), s.tables(), f.id, f.src, f.dst, f.ttl as usize);
    let nodes = t.nodes();
    nodes[1..nodes.len() - 1].to_vec()
}

/// Vet `push` on the resident and on the batch oracle: the verdicts are
/// byte-equal and both what-if digests equal the status digest. Returns
/// whether the probe found a deadlock (a `route_update` vet refuses
/// exactly those pushes).
fn vet(s: &mut Session, push: RoutePush) -> bool {
    let window = SimDuration::from_us(200);
    let status = s.status().expect("live").state_digest.expect("digest");
    let doc = s
        .what_if(std::slice::from_ref(&push), window)
        .expect("what_if");
    let oracle = s
        .oracle_what_if(std::slice::from_ref(&push), window)
        .expect("oracle");
    assert_eq!(
        serde_json::to_string(&doc.verdict.to_value()).unwrap(),
        serde_json::to_string(&oracle.to_value()).unwrap(),
        "probe and oracle disagree on {push:?}"
    );
    assert!(doc.resident_unchanged);
    assert_eq!(doc.state_digest_before, status);
    assert_eq!(doc.state_digest_after, status);
    doc.verdict.deadlock
}

#[test]
fn what_if_matches_oracle_and_leaves_the_resident_untouched() {
    let (mut s, flows) = small_session();
    let f = &flows[0];
    let path = switch_path(&s, f);
    assert!(
        path.len() >= 3,
        "a cross-pod flow crosses edge, agg and core: {path:?}"
    );

    // Keep the first switch's shortest-path next hops: no new dependency.
    let hops = s.tables().next_hops(path[0], f.dst).to_vec();
    let safe = RoutePush {
        node: path[0],
        dst: f.dst,
        ports: hops,
    };
    assert!(!vet(&mut s, safe), "a shortest-path push must pass");

    // Send the 8 Gbps flow back from its second switch: a two-switch loop
    // fed far above the Eq. 3 boundary, which deadlocks inside the window.
    let back = s
        .topo()
        .port_towards(path[1], path[0])
        .expect("linked")
        .port;
    let looped = RoutePush {
        node: path[1],
        dst: f.dst,
        ports: vec![back],
    };
    assert!(
        vet(&mut s, looped),
        "a two-switch loop push must be refused"
    );
}
