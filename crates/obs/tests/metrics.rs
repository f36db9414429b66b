//! Integration tests of the live-metrics registry: exactness under
//! thread contention, snapshot determinism, sampler thread hygiene,
//! and the disabled mode's zero-allocation guarantee.

use obs::json::Value;
use obs::metrics::{Metrics, Sampler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

/// Counting wrapper over the system allocator so tests can assert that
/// a code path allocates nothing.
struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Per thread, because the
    /// test harness runs other tests (which allocate) concurrently; a
    /// const-initialized `Cell` needs no allocation or destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates verbatim to `System`, adding only a thread-local
// counter bump that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn contended_counters_are_exact() {
    let metrics = Metrics::new();
    let threads = 8;
    let per_thread = 10_000u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let metrics = metrics.clone();
            scope.spawn(move || {
                // Every thread resolves the shared cell by name and
                // also owns a private cell; both must come out exact.
                let shared = metrics.counter("test.shared");
                let own = metrics.counter(&format!("test.thread{t}"));
                let gauge = metrics.gauge("test.gauge");
                let hist = metrics.histogram("test.hist");
                for i in 0..per_thread {
                    shared.inc();
                    own.add(2);
                    gauge.add(1);
                    gauge.add(-1);
                    hist.record(i % 64);
                }
            });
        }
    });
    assert_eq!(
        metrics.counter("test.shared").get(),
        threads as u64 * per_thread
    );
    for t in 0..threads {
        assert_eq!(
            metrics.counter(&format!("test.thread{t}")).get(),
            2 * per_thread
        );
    }
    assert_eq!(metrics.gauge("test.gauge").get(), 0);
    assert_eq!(
        metrics.histogram("test.hist").load().count(),
        threads as u64 * per_thread
    );
}

#[test]
fn snapshots_are_deterministic_under_fake_clock() {
    let build = || {
        let (metrics, clock) = Metrics::with_fake_clock();
        // Register in scrambled order: snapshots must sort by name.
        metrics.counter("z.last").add(3);
        metrics.gauge("m.middle").set(-7);
        metrics.counter("a.first").add(1);
        metrics.histogram("h.lat").record(100);
        clock.advance_us(1_234_567);
        metrics.snapshot(42).expect("enabled registry snapshots")
    };
    let one = build();
    let two = build();
    // Byte-identical across two fresh registries with the same history
    // (rss is the only environment-dependent member; with a fake clock
    // it is still read live, so compare the stable members).
    let strip_rss = |v: &Value| {
        let members: Vec<(String, Value)> = v
            .as_object()
            .unwrap()
            .iter()
            .filter(|(k, _)| k != "rss_bytes")
            .cloned()
            .collect();
        Value::Object(members)
    };
    assert_eq!(strip_rss(&one).to_string(), strip_rss(&two).to_string());

    assert_eq!(
        one.get("schema").and_then(Value::as_str),
        Some("metrics-v1")
    );
    assert_eq!(one.get("seq").and_then(Value::as_u64), Some(42));
    assert_eq!(one.get("ts_us").and_then(Value::as_u64), Some(1_234_567));
    let counters = one.get("counters").unwrap().as_object().unwrap();
    let names: Vec<&str> = counters.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["a.first", "z.last"], "name-sorted");
    assert_eq!(
        one.get("gauges")
            .and_then(|g| g.get("m.middle"))
            .and_then(Value::as_f64),
        Some(-7.0)
    );
    let hist = one.get("hists").and_then(|h| h.get("h.lat")).unwrap();
    assert_eq!(hist.get("count").and_then(Value::as_u64), Some(1));
}

/// Live thread count of this process, from /proc (Linux-only; the
/// sampler-leak assertion is skipped elsewhere).
fn thread_count() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[test]
fn sampler_stops_cleanly_without_leaking_threads() {
    let before = thread_count();
    let mut all_lines = 0u64;
    for _ in 0..5 {
        let metrics = Metrics::new();
        metrics.counter("s.ticks").inc();
        let buf: Vec<u8> = Vec::new();
        let sampler = Sampler::start(metrics, Duration::from_millis(1), buf);
        std::thread::sleep(Duration::from_millis(10));
        // stop() joins the thread and flushes a final snapshot.
        all_lines += sampler.stop().expect("sampler writer never fails");
    }
    assert!(
        all_lines >= 5,
        "each cycle writes at least a final snapshot"
    );
    if let (Some(b), Some(a)) = (before, thread_count()) {
        assert!(a <= b, "sampler threads leaked: {b} -> {a}");
    }
}

#[test]
fn sampler_output_is_parseable_metrics_v1_jsonl() {
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    /// Shared sink so the test can read back what the sampler thread
    /// wrote after joining it.
    #[derive(Clone, Default)]
    struct Sink(Arc<Mutex<Vec<u8>>>);
    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let metrics = Metrics::new();
    let sink = Sink::default();
    let sampler = Sampler::start(metrics.clone(), Duration::from_millis(2), sink.clone());
    metrics.counter("x.count").add(9);
    std::thread::sleep(Duration::from_millis(15));
    let lines = sampler.stop().unwrap();
    let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let parsed: Vec<Value> = text
        .lines()
        .map(|l| obs::json::parse(l).expect("every line parses"))
        .collect();
    assert_eq!(parsed.len() as u64, lines);
    assert!(!parsed.is_empty());
    for (i, snap) in parsed.iter().enumerate() {
        assert_eq!(
            snap.get("schema").and_then(Value::as_str),
            Some("metrics-v1")
        );
        assert_eq!(snap.get("seq").and_then(Value::as_u64), Some(i as u64));
    }
    // The final (stop-time) snapshot sees the counter.
    assert_eq!(
        parsed
            .last()
            .unwrap()
            .get("counters")
            .and_then(|c| c.get("x.count"))
            .and_then(Value::as_u64),
        Some(9)
    );
}

#[test]
fn disabled_mode_does_not_allocate() {
    let metrics = Metrics::disabled();
    // Warm up outside the measured window (name formatting below uses
    // a stack literal, so the measured region is allocation-free).
    let c = metrics.counter("warm");
    c.inc();

    let start = ALLOCATIONS.with(Cell::get);
    let counter = metrics.counter("hot.counter");
    let gauge = metrics.gauge("hot.gauge");
    let hist = metrics.histogram("hot.hist");
    for i in 0..1000 {
        counter.inc();
        counter.add(3);
        gauge.set(7);
        gauge.add(-1);
        hist.record(i);
    }
    assert!(metrics.snapshot(0).is_none(), "disabled never snapshots");
    let end = ALLOCATIONS.with(Cell::get);
    assert_eq!(end - start, 0, "disabled metrics path allocated");
    assert_eq!(counter.get(), 0);
    assert_eq!(gauge.get(), 0);
    assert_eq!(hist.load().count(), 0);
}
