//! pfcbench: the seeded end-to-end and per-layer benchmark of pfcsim.
//!
//! ```text
//! cargo run --release --manifest-path pfcbench/Cargo.toml -- \
//!     --workload fabric_k8|paper_sweep|serve_vet --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! alternates untraced and traced repeats and reports the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics`. See `pfcbench/README.md`
//! for the workloads and metrics.

mod calib;
mod fabric;
mod serve;
mod sweep;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;

use trace::Tracer;
use util::{median, quantile, Checks};

/// Per-layer metrics by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The end-to-end metrics of `--trace 0`, as `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_events_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Calls timed by the traced run, as `(metric, span name)`: mean host
/// seconds per call.
const PER_CALL: &[(&str, &str)] = &[
    ("topo.build_s", "topo.build"),
    ("topo.routing_s", "topo.routing"),
    ("net.build_s", "net.build"),
    ("net.run_s", "net.run"),
    ("core.cbd_s", "core.cbd"),
    ("mitigation.plan_s", "mitigation.plan"),
    ("serve.what_if_s", "serve.what_if"),
    ("checkpoint.capture_s", "checkpoint.capture"),
    ("checkpoint.encode_s", "checkpoint.encode"),
    ("checkpoint.digest_s", "checkpoint.digest"),
    ("checkpoint.resume_s", "checkpoint.resume"),
    ("net.probe_run_s", "net.probe_run"),
    ("serve.static_cbd_s", "serve.static_cbd"),
    ("serve.commit_s", "serve.commit"),
    ("serve.rebuild_s", "serve.rebuild"),
];

/// Every per-layer metric of `--trace 1`, as `(name, unit)`. A workload
/// that does not exercise a layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("topo.build_s", "s"),
    ("topo.routing_s", "s"),
    ("net.build_s", "s"),
    ("net.run_s", "s"),
    ("net.events", "count"),
    ("net.ns_per_event", "ns"),
    ("net.pause_frames", "count"),
    ("net.scans_run", "count"),
    ("net.scans_skipped", "count"),
    ("net.deadlocks", "count"),
    ("net.sampling_share", "ratio"),
    ("net.scan_share", "ratio"),
    ("simcore.heap_over_wheel", "ratio"),
    ("core.cbd_s", "s"),
    ("core.eq3_agreement", "ratio"),
    ("mitigation.plan_s", "s"),
    ("mitigation.fixed_ratio", "ratio"),
    ("serve.what_if_s", "s"),
    ("checkpoint.capture_s", "s"),
    ("checkpoint.encode_s", "s"),
    ("checkpoint.digest_s", "s"),
    ("checkpoint.frame_bytes", "bytes"),
    ("checkpoint.resume_s", "s"),
    ("net.probe_run_s", "s"),
    ("net.probe_events", "count"),
    ("serve.static_cbd_s", "s"),
    ("serve.what_if_coverage", "ratio"),
    ("serve.commit_s", "s"),
    ("serve.rebuild_s", "s"),
    ("serve.protocol_s", "s"),
    ("serve.refused", "count"),
    ("trace.overhead_share", "ratio"),
    ("bench.self_share", "ratio"),
    ("topo.self_share", "ratio"),
    ("net.self_share", "ratio"),
    ("core.self_share", "ratio"),
    ("mitigation.self_share", "ratio"),
    ("checkpoint.self_share", "ratio"),
    ("serve.self_share", "ratio"),
];

/// Samples a workload collects for the end-to-end metrics, by repeat: one
/// fabric run, one sweep pass or one serve episode. Every time is divided,
/// and every rate multiplied, by the host's median slowdown while the
/// repeat ran (see `calib`); the raw figures are kept for the `#` line.
#[derive(Default)]
pub struct Samples {
    setup_s: Vec<f64>,
    events_per_s: Vec<f64>,
    ops_per_s: Vec<f64>,
    /// Every operation's latency, pooled over the repeats.
    op_ms: Vec<f64>,
    raw_ops_per_s: Vec<f64>,
    raw_op_p50_ms: Vec<f64>,
    slowdown: Vec<f64>,
    /// Whether each repeat was traced.
    traced: Vec<bool>,
    /// Host slowdown samples of the current repeat.
    ticks: Vec<f64>,
}

impl Samples {
    /// Sample the host's slowdown, as a `calib.kernel` span. Call it right
    /// before each timed step of a repeat (its set-up and each operation),
    /// so every step follows the kernel alike.
    pub fn tick(&mut self, tr: &mut Tracer) {
        self.ticks.push(tr.span("calib.kernel", calib::slowdown));
    }

    /// Record one repeat: its set-up time, simulated events per second,
    /// operations per second and operation latencies, all raw, and
    /// whether it was traced.
    pub fn repeat(
        &mut self,
        setup_s: f64,
        events_per_s: f64,
        ops_per_s: f64,
        op_ms: &[f64],
        traced: bool,
    ) {
        let f = median(&std::mem::take(&mut self.ticks));
        assert!(f.is_finite(), "a repeat samples the host's slowdown");
        self.setup_s.push(setup_s / f);
        self.events_per_s.push(events_per_s * f);
        self.ops_per_s.push(ops_per_s * f);
        self.op_ms.extend(op_ms.iter().map(|x| x / f));
        self.raw_ops_per_s.push(ops_per_s);
        self.raw_op_p50_ms.push(quantile(op_ms, 0.5));
        self.slowdown.push(f);
        self.traced.push(traced);
    }

    /// Untraced over traced `ops_per_s`, minus 1, when both kinds ran.
    fn trace_overhead(&self) -> Option<f64> {
        let pick = |traced: bool| -> Vec<f64> {
            let pairs = self.ops_per_s.iter().zip(&self.traced);
            pairs
                .filter(|(_, &t)| t == traced)
                .map(|(&x, _)| x)
                .collect()
        };
        let (off, on) = (pick(false), pick(true));
        (!off.is_empty() && !on.is_empty()).then(|| median(&off) / median(&on) - 1.0)
    }
}

/// The repeats of a traced run alternate between untraced and traced
/// cycles of `variants` repeats, so both see every input variant.
pub fn traced_repeat(rep: u64, variants: u64) -> bool {
    (rep / variants) % 2 == 1
}

/// What one measuring run produced.
#[derive(Default)]
pub struct Outcome {
    pub ops: u64,
    pub checks: Checks,
    /// Digest of the simulated results of each input variant; every
    /// repeat of a variant must agree with its first.
    pub digests: BTreeMap<u64, u64>,
    pub e2e: Vec<(&'static str, f64)>,
    pub layers: Layers,
    pub summary: String,
}

impl Outcome {
    /// Record one repeat's digest of input `variant`; a disagreement with
    /// the variant's first repeat is a failed check.
    pub fn agree(&mut self, variant: u64, digest: u64, what: impl FnOnce() -> String) {
        match self.digests.get(&variant) {
            None => {
                self.digests.insert(variant, digest);
            }
            Some(&first) => self.checks.check(first == digest, || {
                format!("{}: result digest {digest:#018x} != {first:#018x}", what())
            }),
        }
    }

    /// One digest over every variant's.
    fn digest(&self) -> u64 {
        let mut d = util::Digest::new();
        for (&v, &x) in &self.digests {
            d.u64(v);
            d.u64(x);
        }
        d.0
    }

    pub fn set_e2e(&mut self, s: &Samples) {
        self.e2e = vec![
            ("setup_s", median(&s.setup_s)),
            ("sim_events_per_s", median(&s.events_per_s)),
            ("ops_per_s", median(&s.ops_per_s)),
            ("op_p50_ms", quantile(&s.op_ms, 0.5)),
            ("op_p95_ms", quantile(&s.op_ms, 0.95)),
        ];
        self.summary = format!(
            "repeats={} ops={} host_slowdown={:.3} raw_ops_per_s={:.4} raw_op_p50_ms={:.4} {}",
            s.slowdown.len(),
            s.op_ms.len(),
            median(&s.slowdown),
            median(&s.raw_ops_per_s),
            median(&s.raw_op_p50_ms),
            self.summary
        );
        if let Some(o) = s.trace_overhead() {
            self.layers.insert("trace.overhead_share", o);
        }
    }

    pub fn e2e(&self, name: &str) -> f64 {
        self.e2e
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    FabricK8,
    PaperSweep,
    ServeVet,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "fabric_k8" => Some(Workload::FabricK8),
            "paper_sweep" => Some(Workload::PaperSweep),
            "serve_vet" => Some(Workload::ServeVet),
            _ => None,
        }
    }

    fn measure(self, seed: u64, seconds: f64, tr: &mut Tracer) -> Outcome {
        match self {
            Workload::FabricK8 => fabric::measure(seed, seconds, tr),
            Workload::PaperSweep => sweep::measure(seed, seconds, tr),
            Workload::ServeVet => serve::measure(seed, seconds, tr),
        }
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace").as_deref() {
        Ok("0") | Err(_) => false,
        Ok("1") => true,
        Ok(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
    })
}

/// The traced run. Its repeats alternate between untraced and traced
/// cycles; on `fabric_k8` half the window first goes to the ablations.
fn traced(a: &Args) -> Outcome {
    let mut base = Outcome::default();
    let mut seconds = a.seconds;
    if a.workload == Workload::FabricK8 {
        seconds /= 2.0;
        fabric::ablate(a.seed, seconds, &mut base);
    }
    let mut tr = Tracer::new(true);
    let mut out = a.workload.measure(a.seed, seconds, &mut tr);
    out.ops += base.ops;
    out.checks.run += base.checks.run;
    out.checks.failed += base.checks.failed;
    for (&v, &d) in &base.digests {
        out.agree(v, d, || {
            format!("variant {v}: ablation default vs measured")
        });
    }
    out.layers.extend(base.layers);
    for &(metric, span) in PER_CALL {
        let calls = tr.spans().iter().filter(|s| s.name == span).count();
        if calls > 0 {
            out.layers.insert(metric, tr.total_s(span) / calls as f64);
        }
    }
    // The host-speed kernel is the benchmark's own reference, not a layer.
    let mut selfs = tr.self_times();
    selfs.remove("calib");
    let total: f64 = selfs.values().sum();
    for (layer, t) in selfs {
        if let Some(&(name, _)) = PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_suffix(".self_share") == Some(layer))
        {
            out.layers.insert(name, t / total);
        }
    }
    let path = std::path::PathBuf::from(format!("pfcbench/out/trace_{}_{}.jsonl", a.name, a.seed));
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!("wrote {} spans to {}", tr.spans().len(), path.display()),
        Err(e) => out
            .checks
            .check(false, || format!("write {}: {e}", path.display())),
    }
    out
}

fn json_metrics(list: &[(&str, &str)], value: impl Fn(&str) -> f64) -> Result<String, String> {
    let mut parts = Vec::new();
    for &(name, unit) in list {
        let v = value(name);
        if !v.is_finite() {
            return Err(format!("metric {name} is not a finite number ({v})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(parts.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pfcbench: {e}");
            eprintln!(
                "usage: pfcbench --workload fabric_k8|paper_sweep|serve_vet --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    // The environment levers of the simulator (scheduler, hybrid backend,
    // partitions, threads) would change what is measured: every workload
    // runs the default configuration.
    for (k, _) in std::env::vars() {
        if k.starts_with("PFCSIM_") {
            std::env::remove_var(k);
        }
    }
    let mut out = if args.trace {
        traced(&args)
    } else {
        args.workload
            .measure(args.seed, args.seconds, &mut Tracer::new(false))
    };
    let kernel_mb = calib::RESIDENT_BYTES as f64 / (1 << 20) as f64;
    out.e2e
        .push(("peak_rss_mb", util::peak_rss_mb() - kernel_mb));
    let failed = out.checks.failed.min(out.ops.max(1));
    let attempted = out.ops.max(1);
    println!(
        "# workload={} seed={} digest={:#018x} checks={} failed={} error_rate={} {}",
        args.name,
        args.seed,
        out.digest(),
        out.checks.run,
        failed,
        failed as f64 / attempted as f64,
        out.summary
    );
    let metrics = if args.trace {
        json_metrics(PER_LAYER, |n| out.layers.get(n).copied().unwrap_or(0.0))
    } else {
        json_metrics(END_TO_END, |n| out.e2e(n))
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("pfcbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        failed == 0
    );
    ExitCode::SUCCESS
}
