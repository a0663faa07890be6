//! Golden anchors the plain `cargo test` pins: the fault-laden golden run
//! reproduces `GOLDEN_DIGEST` under both scheduler backends, and across a
//! mid-run checkpoint written to bytes and resumed in a fresh simulator.
//! The full matrix (arena reuse, corrupted frames, config mismatches)
//! lives in `crates/net/tests/determinism_golden.rs`.

use pfcsim::net::checkpoint::Checkpoint;
use pfcsim::net::config::SchedulerBackend;
use pfcsim::net::golden::{self, DRAIN_UNTIL, GOLDEN_DIGEST, STOP_AT};
use pfcsim::net::sim::{NetSim, SimArenas};
use pfcsim::simcore::time::SimTime;

const BACKENDS: [SchedulerBackend; 2] = [SchedulerBackend::Wheel, SchedulerBackend::Heap];

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
        let mut sim = golden::build_sim(Some(sched), &mut SimArenas::new());
        sim.schedule_flow_stops(STOP_AT);
        let pause = SimTime::from_us(1500);
        assert!(
            sim.advance_until(pause, DRAIN_UNTIL).is_none(),
            "golden run should still be busy at the pause point"
        );
        let bytes = sim.checkpoint().expect("checkpointable").to_bytes();
        drop(sim);
        let ckpt = Checkpoint::from_bytes(&bytes).expect("frame round-trips");
        assert_eq!(ckpt.sim_time(), pause);
        let d = golden::digest(&NetSim::resume(ckpt).expect("restorable").resume_run());
        assert_eq!(
            d, GOLDEN_DIGEST,
            "checkpoint/resume diverged under {sched:?}: {d:#018x}"
        );
    }
}
