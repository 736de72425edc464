//! Self time per span name from a Chrome trace-event file.
//!
//! A span's self time is its duration minus the part of it covered by its
//! child spans on the same thread. A pool thread that waits inside an open
//! span (`pool.scope`) and meanwhile runs another unit's task records that
//! task's spans nested inside the wait; subtracting them charges the time
//! to the task that ran, so each instant of a thread counts once.
//!
//! The nesting is rebuilt from timestamps alone. The program also records,
//! for each span, the depth and name of the span that was open around it
//! on its thread (`args.depth`, `args.parent`); the rebuilt nesting is
//! compared with that record, and every span where the two disagree is
//! counted. A duplicated span, spans that overlap without nesting, or a
//! parent lost from the trace all show up there.
//!
//! The program truncates both ends of a span to microseconds, so a true
//! child never leaves its parent and true siblings never overlap. Spans of
//! non-zero duration then have exactly one nesting that fits the
//! timestamps, and each is checked. A zero-length span that starts in the
//! microsecond where one subtree ends and the next begins fits either, so
//! zero-length spans are not checked.

use nautilus_util::json::Json;
use std::collections::BTreeMap;

/// Aggregates of one trace.
#[derive(Debug, Default)]
pub struct TraceProfile {
    /// Span name → (count, self seconds).
    pub spans: BTreeMap<String, (u64, f64)>,
    /// Counter name → last value.
    pub counters: BTreeMap<String, f64>,
    /// Threads that recorded at least one span.
    pub threads: usize,
    /// Seconds from the first span's start to the last span's end.
    pub wall_secs: f64,
    /// Sum of every span's self time.
    pub total_self_secs: f64,
    /// Smallest self time seen, or 0 if none is negative. Children are
    /// clipped to their parent, so this holds by construction.
    pub min_self_secs: f64,
    /// Spans of non-zero duration that carry the program's recorded depth
    /// and parent.
    pub nesting_checked: u64,
    /// Spans whose rebuilt depth or parent differs from the recorded one.
    pub nesting_mismatches: u64,
    /// The first such span, for the error message.
    pub first_mismatch: Option<String>,
}

impl TraceProfile {
    /// Self seconds summed over the spans named in `names`.
    pub fn self_secs(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .filter_map(|n| self.spans.get(*n))
            .map(|s| s.1)
            .sum()
    }

    /// Number of spans named in `names`.
    pub fn count(&self, names: &[&str]) -> u64 {
        names
            .iter()
            .filter_map(|n| self.spans.get(*n))
            .map(|s| s.0)
            .sum()
    }

    /// Last value of counter `name`, 0 when absent.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Sum over the members of a labeled counter family whose label block
    /// contains `label` (`gemm.kernel{path="naive"}` for `label` =
    /// `path="naive"`); an empty `label` sums the whole family.
    pub fn counter_family(&self, base: &str, label: &str) -> f64 {
        self.counters
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(base)
                    .and_then(|rest| rest.strip_prefix('{'))
                    .is_some_and(|labels| labels.contains(label))
            })
            .map(|(_, v)| v)
            .sum()
    }
}

struct Open {
    name: String,
    end: u64,
    dur: u64,
    covered: u64,
}

/// One complete span as exported, with the nesting the program recorded.
struct Span {
    ts: u64,
    dur: u64,
    name: String,
    /// `args.depth` and `args.parent`, when the event has them.
    recorded: Option<(usize, Option<String>)>,
}

impl Span {
    fn recorded_depth(&self) -> Option<usize> {
        self.recorded.as_ref().map(|r| r.0)
    }
}

fn close(open: Open, profile: &mut TraceProfile) {
    let self_us = open.dur as f64 - open.covered as f64;
    let secs = self_us / 1e6;
    let entry = profile.spans.entry(open.name).or_insert((0, 0.0));
    entry.0 += 1;
    entry.1 += secs;
    profile.total_self_secs += secs;
    profile.min_self_secs = profile.min_self_secs.min(secs);
}

/// Computes self times from a parsed Chrome trace (`{"traceEvents": [...]}`
/// with complete `"ph": "X"` events and `"ph": "C"` counter events).
pub fn profile(trace: &Json) -> Result<TraceProfile, String> {
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("trace has no traceEvents array")?;
    let mut by_thread: BTreeMap<i64, Vec<Span>> = BTreeMap::new();
    let mut profile = TraceProfile::default();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        match ph {
            "X" => {
                let tid = ev
                    .get("tid")
                    .and_then(Json::as_i64)
                    .ok_or("span without tid")?;
                let ts = ev
                    .get("ts")
                    .and_then(Json::as_u64)
                    .ok_or("span without ts")?;
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_u64)
                    .ok_or("span without dur")?;
                let args = ev.get("args");
                let recorded = args
                    .and_then(|a| a.get("depth"))
                    .and_then(Json::as_u64)
                    .map(|depth| {
                        let parent = args
                            .and_then(|a| a.get("parent"))
                            .and_then(Json::as_str)
                            .map(str::to_string);
                        (depth as usize, parent)
                    });
                by_thread.entry(tid).or_default().push(Span {
                    ts,
                    dur,
                    name,
                    recorded,
                });
            }
            "C" => {
                if let Some(v) = ev
                    .get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(Json::as_f64)
                {
                    profile.counters.insert(name, v);
                }
            }
            _ => {}
        }
    }
    let (mut first, mut last) = (u64::MAX, 0u64);
    profile.threads = by_thread.len();
    for (tid, mut spans) in by_thread {
        // Parents first: earlier start, then the later end, then (for spans
        // that round to the same microseconds) the shallower recorded depth.
        spans.sort_by(|a, b| {
            a.ts.cmp(&b.ts)
                .then((b.ts + b.dur).cmp(&(a.ts + a.dur)))
                .then(a.recorded_depth().cmp(&b.recorded_depth()))
        });
        let mut stack: Vec<Open> = Vec::new();
        for span in spans {
            let (ts, end) = (span.ts, span.ts + span.dur);
            first = first.min(ts);
            last = last.max(end);
            // A span that ended before this one started is closed. Both ends
            // are truncated to microseconds, so a span that ends in the very
            // microsecond this one starts cannot hold it if it has non-zero
            // duration, but may hold a zero-length one: for that, the
            // recorded depth decides, and without one it is a sibling.
            while let Some(top) = stack.last() {
                let boundary_ends =
                    span.dur > 0 || span.recorded_depth().is_none_or(|d| stack.len() > d);
                let ended = top.end < ts || (top.end == ts && boundary_ends);
                if !ended {
                    break;
                }
                close(stack.pop().expect("non-empty stack"), &mut profile);
            }
            if let Some((depth, parent)) = span.recorded.as_ref().filter(|_| span.dur > 0) {
                profile.nesting_checked += 1;
                let rebuilt = stack.last().map(|o| o.name.as_str());
                if stack.len() != *depth || rebuilt != parent.as_deref() {
                    profile.nesting_mismatches += 1;
                    profile.first_mismatch.get_or_insert_with(|| {
                        format!(
                            "{} at {ts} µs on thread {tid}: nested at depth {} under {rebuilt:?}, \
                             recorded at depth {depth} under {parent:?}",
                            span.name,
                            stack.len()
                        )
                    });
                }
            }
            if let Some(parent) = stack.last_mut() {
                // Only the part of a child inside its parent is the parent's.
                parent.covered += end.min(parent.end) - ts;
            }
            stack.push(Open {
                name: span.name,
                end,
                dur: span.dur,
                covered: 0,
            });
        }
        while let Some(open) = stack.pop() {
            close(open, &mut profile);
        }
    }
    if first <= last {
        profile.wall_secs = (last - first) as f64 / 1e6;
    }
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: i64, ts: u64, dur: u64) -> Json {
        Json::obj([
            ("name", Json::Str(name.into())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Int(ts as i128)),
            ("dur", Json::Int(dur as i128)),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(tid as i128)),
        ])
    }

    /// A span carrying the depth and parent the program recorded for it.
    fn nested(name: &str, tid: i64, ts: u64, dur: u64, depth: i128, parent: Option<&str>) -> Json {
        let Json::Obj(mut fields) = span(name, tid, ts, dur) else {
            unreachable!("span() builds an object")
        };
        let mut args = vec![("depth".to_string(), Json::Int(depth))];
        if let Some(p) = parent {
            args.push(("parent".to_string(), Json::Str(p.into())));
        }
        fields.push(("args".to_string(), Json::Obj(args)));
        Json::Obj(fields)
    }

    fn trace_of(events: Vec<Json>) -> TraceProfile {
        profile(&Json::obj([("traceEvents", Json::Arr(events))])).expect("valid trace")
    }

    fn counter(name: &str, value: i128) -> Json {
        Json::obj([
            ("name", Json::Str(name.into())),
            ("ph", Json::Str("C".into())),
            ("ts", Json::Int(0)),
            ("pid", Json::Int(1)),
            ("args", Json::obj([("value", Json::Int(value))])),
        ])
    }

    fn close_to(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn stolen_task_inside_an_open_wait_is_charged_to_the_task() {
        // Thread 1: unit A's train.unit (0–1000 µs) opens pool.scope
        // (100–900) to wait for its forward tasks; while waiting it runs a
        // task stolen from unit B, whose train.unit (200–700) contains a
        // dnn.forward (300–600). Thread 2 runs unit A's own forward
        // (100–500) and a backward (500–800) in parallel.
        let trace = Json::obj([(
            "traceEvents",
            Json::Arr(vec![
                span("train.unit", 1, 0, 1000),
                span("pool.scope", 1, 100, 800),
                span("train.unit", 1, 200, 500),
                span("dnn.forward", 1, 300, 300),
                span("dnn.forward", 2, 100, 400),
                span("dnn.backward", 2, 500, 300),
                counter("pool.tasks", 7),
                counter("gemm.kernel{path=\"naive\"}", 3),
                counter("gemm.kernel{path=\"safe\"}", 1),
            ]),
        )]);
        let p = profile(&trace).expect("valid trace");
        // pool.scope waited 800 µs but 500 of them ran unit B's task.
        assert!(close_to(p.self_secs(&["pool.scope"]), 300e-6));
        // Both train.unit spans: A's 1000 − 800 covered, B's 500 − 300.
        assert!(close_to(p.self_secs(&["train.unit"]), 200e-6 + 200e-6));
        assert_eq!(p.count(&["train.unit"]), 2);
        assert!(close_to(p.self_secs(&["dnn.forward"]), 300e-6 + 400e-6));
        assert!(close_to(p.self_secs(&["dnn.backward"]), 300e-6));
        // Each instant of each thread counts once: thread 1 is covered for
        // 1000 µs, thread 2 for 700 µs, so self times sum to 1700 µs —
        // while inclusive durations would sum to 3300 µs.
        assert!(close_to(p.total_self_secs, 1700e-6));
        assert_eq!(p.threads, 2);
        assert!(close_to(p.wall_secs, 1000e-6));
        assert!(p.total_self_secs <= p.threads as f64 * p.wall_secs);
        assert!(p.min_self_secs >= 0.0);
        assert_eq!(p.counter("pool.tasks"), 7.0);
        assert_eq!(p.counter_family("gemm.kernel", "path=\"naive\""), 3.0);
        assert_eq!(p.counter_family("gemm.kernel", ""), 4.0);
    }

    #[test]
    fn rejects_a_file_that_is_not_a_trace() {
        assert!(profile(&Json::obj([("spans", Json::Arr(vec![]))])).is_err());
    }

    #[test]
    fn siblings_and_rounding_overhang_never_go_negative() {
        // Two back-to-back children fill their parent exactly; a third span
        // on the same thread starts after the parent ended; a child whose
        // rounded end pokes 1 µs past its parent is clipped.
        let trace = Json::obj([(
            "traceEvents",
            Json::Arr(vec![
                span("cycle.fit", 5, 0, 100),
                span("cycle.materialize", 5, 0, 40),
                span("cycle.train", 5, 40, 60),
                span("bench.fit", 5, 200, 50),
                span("gemm", 5, 210, 41),
            ]),
        )]);
        let p = profile(&trace).expect("valid trace");
        assert!(close_to(p.self_secs(&["cycle.fit"]), 0.0));
        assert!(close_to(
            p.self_secs(&["cycle.materialize", "cycle.train"]),
            100e-6
        ));
        assert!(close_to(p.self_secs(&["bench.fit"]), 10e-6));
        assert!(close_to(p.self_secs(&["gemm"]), 41e-6));
        assert!(p.min_self_secs >= 0.0);
    }

    #[test]
    fn recorded_nesting_agrees_with_timestamps() {
        // fit (0–100) holds materialize (0–40) and train (40–100), which
        // start at the same microsecond or one ends as the other starts;
        // train holds a gemm (99–100) that began in train's last
        // microsecond and a zero-length forward at 100. A sibling fit
        // (100–150) follows on the same thread, with a zero-length span of
        // its own at 100, which timestamps alone cannot tell from train's.
        let p = trace_of(vec![
            nested("cycle.fit", 1, 0, 100, 0, None),
            nested("cycle.materialize", 1, 0, 40, 1, Some("cycle.fit")),
            nested("cycle.train", 1, 40, 60, 1, Some("cycle.fit")),
            nested("gemm", 1, 99, 1, 2, Some("cycle.train")),
            nested("dnn.forward", 1, 100, 0, 2, Some("cycle.train")),
            nested("cycle.fit", 1, 100, 50, 0, None),
            nested("store.open", 1, 100, 0, 1, Some("cycle.fit")),
            nested("dnn.forward", 2, 10, 5, 0, None),
        ]);
        assert_eq!(p.nesting_checked, 6);
        assert_eq!(p.nesting_mismatches, 0, "{:?}", p.first_mismatch);
        assert!(close_to(p.self_secs(&["cycle.fit"]), 50e-6));
    }

    #[test]
    fn mis_nested_duplicated_and_orphaned_spans_are_counted() {
        // Two spans on one thread that overlap without nesting.
        let p = trace_of(vec![
            nested("a", 1, 0, 100, 0, None),
            nested("b", 1, 50, 100, 0, None),
        ]);
        assert_eq!(p.nesting_mismatches, 1);
        assert!(p
            .first_mismatch
            .as_deref()
            .is_some_and(|m| m.starts_with("b at 50")));
        // The same span exported twice nests inside its copy.
        let p = trace_of(vec![
            nested("fit", 1, 0, 100, 0, None),
            nested("fit", 1, 0, 100, 0, None),
        ]);
        assert_eq!(p.nesting_mismatches, 1);
        // A child whose recorded parent is missing from the trace.
        let p = trace_of(vec![nested("gemm", 1, 10, 5, 1, Some("dnn.forward"))]);
        assert_eq!(p.nesting_mismatches, 1);
        // A child recorded under another parent than the one around it.
        let p = trace_of(vec![
            nested("fit", 1, 0, 100, 0, None),
            nested("gemm", 1, 10, 5, 1, Some("dnn.forward")),
        ]);
        assert_eq!(p.nesting_mismatches, 1);
    }
}
