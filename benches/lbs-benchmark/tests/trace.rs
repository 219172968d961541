//! Span self-time arithmetic: a span's self time is its length minus what
//! its direct children cover, so the self times under a root sum to the
//! root's length.

use lbs_benchmark::trace::{root_total_ns, self_times, Span, Tracer};
use std::time::Duration;

fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span { name, parent, key: 0, start_ns, end_ns, derived: false }
}

#[test]
fn nested_spans_split_the_root_into_self_times() {
    let spans = [
        span("epoch", None, 0, 100),           // 0
        span("pump", Some(0), 10, 40),         // 1: 30 long, 10 of it in its child
        span("stage.commit", Some(1), 15, 25), // 2
        span("serve", Some(0), 50, 70),        // 3
        span("serve", Some(0), 70, 90),        // 4
        span("epoch", None, 200, 250),         // 5: a second root, no children
        span("setup", None, 300, 400),         // 6: not a requested root
        span("serve", Some(6), 310, 320),      // 7: under `setup`, so excluded
    ];
    let selfs = self_times(&spans, &["epoch"]);
    assert_eq!(selfs.get("epoch"), Some(&(100 - 30 - 20 - 20 + 50)));
    assert_eq!(selfs.get("pump"), Some(&20));
    assert_eq!(selfs.get("stage.commit"), Some(&10));
    assert_eq!(selfs.get("serve"), Some(&40));
    assert_eq!(selfs.get("setup"), None);
    let total: u64 = selfs.values().sum();
    assert_eq!(total, root_total_ns(&spans, "epoch"));
    assert_eq!(root_total_ns(&spans, "epoch"), 150);
}

#[test]
fn derived_children_are_laid_end_to_end_inside_their_parent() {
    let mut tracer = Tracer::new(true);
    let root = tracer.open("step", None, 7);
    std::thread::sleep(Duration::from_millis(2));
    tracer.close(root);
    tracer.derived(root, "stage.dp", Duration::from_micros(300));
    tracer.derived(root, "stage.extract", Duration::ZERO);
    tracer.derived(root, "stage.extract", Duration::from_micros(200));

    let spans = tracer.spans();
    assert_eq!(spans.len(), 3, "zero-length stages are skipped");
    let (step, dp, extract) = (&spans[0], &spans[1], &spans[2]);
    assert!(dp.derived && extract.derived && !step.derived);
    assert_eq!((dp.key, extract.key), (7, 7));
    assert_eq!(dp.start_ns, step.start_ns);
    assert_eq!(extract.start_ns, dp.end_ns);
    assert_eq!(extract.duration_ns(), 200_000);

    let selfs = self_times(spans, &["step"]);
    assert_eq!(selfs.get("step"), Some(&(step.duration_ns() - 500_000)));
    assert_eq!(selfs.values().sum::<u64>(), step.duration_ns());
}

#[test]
fn a_disabled_tracer_records_nothing() {
    let mut tracer = Tracer::new(false);
    let id = tracer.open("step", None, 0);
    tracer.derived(id, "stage.dp", Duration::from_millis(1));
    tracer.close(id);
    assert!(tracer.spans().is_empty());
}
