//! Criterion bench for the observability layer's overhead contract:
//! the same end-to-end equivalence proof (32-bit adder pair) with
//!
//! - `disabled`: the default disabled recorder — the cost every
//!   untraced run pays (a branch on `Option<Arc<_>>` per site, no
//!   clock reads, no allocation). The contract is <2% over a build
//!   with no instrumentation at all; compare against `t7`'s 1-thread
//!   row for the pre-instrumentation baseline.
//! - `enabled`: a live recorder accumulating the full event stream
//!   (spans, instants, per-call args) in memory, drained after each
//!   iteration.
//! - `enabled-jsonl`: as above, plus serializing the drained events
//!   through the JSONL exporter into a sink.
//!
//! The measured ratios are recorded in `DESIGN.md` ("Observability").

use aig::gen::{kogge_stone_adder, ripple_carry_adder};
use cec::{EngineConfig, Session, SharedContext};
use criterion::{criterion_group, criterion_main, Criterion};

fn prove(ctx: &SharedContext, a: &aig::Aig, b: &aig::Aig) {
    let outcome = Session::new(EngineConfig::default(), ctx)
        .check(a, b)
        .expect("prove runs");
    assert!(outcome.is_equivalent());
}

fn bench_t9(c: &mut Criterion) {
    let a = ripple_carry_adder(32);
    let b = kogge_stone_adder(32);
    let mut group = c.benchmark_group("t9");
    group.sample_size(10);

    group.bench_function("add-rca/ks-32/disabled", |bch| {
        let ctx = SharedContext::disabled();
        bch.iter(|| prove(&ctx, &a, &b));
    });

    group.bench_function("add-rca/ks-32/enabled", |bch| {
        let recorder = obs::Recorder::new();
        let ctx = SharedContext::new(recorder.clone(), obs::metrics::Metrics::disabled());
        bch.iter(|| {
            prove(&ctx, &a, &b);
            let events = recorder.take_events();
            assert!(!events.is_empty());
        });
    });

    group.bench_function("add-rca/ks-32/enabled-jsonl", |bch| {
        let recorder = obs::Recorder::new();
        let ctx = SharedContext::new(recorder.clone(), obs::metrics::Metrics::disabled());
        bch.iter(|| {
            prove(&ctx, &a, &b);
            let events = recorder.take_events();
            obs::export::write_jsonl(&events, &mut std::io::sink()).expect("sink write");
        });
    });

    group.finish();
}

criterion_group!(benches, bench_t9);
criterion_main!(benches);
