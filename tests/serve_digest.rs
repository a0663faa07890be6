//! The serve state-digest contract, through the stable `pfcsim::session`
//! facade: one definition of "state digest" (`Checkpoint::state_digest`)
//! behind `status`, both what-if digests, and the `checkpoint` op; vets
//! that refuse or commit report the pre-push digest on both sides; and
//! the digest moves whenever the resident state does.

use pfcsim::session::{Checkpoint, ServeConfig, ServeSession};
use serde_json::Value;

/// The square fabric one push away from the paper's Fig. 3 deadlock:
/// three clockwise 2-hop routes, the fourth pinned counter-clockwise.
const OPEN: &str = concat!(
    r#"{"id":1,"op":"open","topo":{"builder":"square"},"#,
    r#""flows":[{"id":0,"src":"h0","dst":"h2","ttl":16},"#,
    r#"{"id":1,"src":"h1","dst":"h3","ttl":16},"#,
    r#"{"id":2,"src":"h2","dst":"h0","ttl":16},"#,
    r#"{"id":3,"src":"h3","dst":"h1","ttl":16}],"#,
    r#""routes":[{"node":"S0","dst":"h2","ports":["S1"]},"#,
    r#"{"node":"S1","dst":"h3","ports":["S2"]},"#,
    r#"{"node":"S2","dst":"h0","ports":["S3"]},"#,
    r#"{"node":"S3","dst":"h1","ports":["S2"]}],"#,
    r#""horizon_us":20000,"seed":5}"#
);

fn send(serve: &mut ServeSession, req: &str) -> Value {
    let (resp, _) = serve.handle_line(req);
    let resp: Value = serde_json::from_str(&resp.expect("a response")).expect("JSON response");
    assert_eq!(resp["ok"], true, "{req} failed: {resp:?}");
    resp["result"].clone()
}

fn status_digest(serve: &mut ServeSession) -> u64 {
    send(serve, r#"{"op":"query","kind":"status"}"#)["state_digest"]
        .as_u64()
        .expect("a live session reports a digest")
}

/// Assert the what-if block of a vet reports `prior` on both sides.
fn assert_vet_digests(result: &Value, prior: u64) {
    let w = &result["what_if"];
    assert_eq!(w["state_digest_before"].as_u64(), Some(prior), "{w:?}");
    assert_eq!(w["state_digest_after"].as_u64(), Some(prior), "{w:?}");
    assert_eq!(w["resident_unchanged"], true);
}

#[test]
fn vets_report_the_prior_digest_and_the_digest_tracks_state() {
    let mut serve = ServeSession::new(ServeConfig::default());
    send(&mut serve, OPEN);
    let opened = status_digest(&mut serve);
    assert_eq!(opened, status_digest(&mut serve), "status is read-only");

    send(&mut serve, r#"{"op":"advance","to_us":100}"#);
    let advanced = status_digest(&mut serve);
    assert_ne!(advanced, opened, "advancing the clock moves the digest");

    // Closing the cycle is refused; the resident stays put.
    let refused = send(
        &mut serve,
        r#"{"op":"route_update","node":"S3","dst":"h1","ports":["S0"],"window_us":1500}"#,
    );
    assert_eq!(refused["committed"], false, "{refused:?}");
    assert_eq!(refused["what_if"]["verdict"]["deadlock"], true);
    assert_vet_digests(&refused, advanced);
    assert_eq!(status_digest(&mut serve), advanced);

    // A push that no flow crosses is safe: vetted against the prior
    // state, then committed, which moves the digest.
    let safe = send(
        &mut serve,
        r#"{"op":"route_update","node":"S1","dst":"h0","ports":["S0"],"window_us":200}"#,
    );
    assert_eq!(safe["committed"], true, "{safe:?}");
    assert_eq!(safe["what_if"]["verdict"]["deadlock"], false);
    assert_vet_digests(&safe, advanced);
    let committed = status_digest(&mut serve);
    assert_ne!(committed, advanced, "a committed push moves the digest");
}

#[test]
fn checkpoint_op_digest_matches_status_and_the_file() {
    let dir = std::env::temp_dir().join(format!("pfcsim_serve_digest_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("session.ck");
    let path_str = path.to_str().expect("UTF-8 temp path");

    let mut serve = ServeSession::new(ServeConfig::default());
    send(&mut serve, OPEN);
    send(&mut serve, r#"{"op":"advance","to_us":60}"#);
    let saved = send(
        &mut serve,
        &format!(r#"{{"op":"checkpoint","path":"{path_str}"}}"#),
    );
    let digest = saved["state_digest"].as_u64().expect("checkpoint digest");
    assert_eq!(digest, status_digest(&mut serve));
    let loaded = Checkpoint::load(&path).expect("checkpoint loads");
    assert_eq!(loaded.state_digest(), digest);
    std::fs::remove_dir_all(&dir).ok();
}
