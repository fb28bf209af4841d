//! Golden wire bytes: one literal line per frame kind, the rendered
//! payload of every accumulator the cache store and `lease-done` frames
//! carry, and the error text of malformed input.
//!
//! `wire_roundtrip.rs` checks that frames survive their own encoding; this
//! file pins *what* the encoding is, so a change to the codec cannot move a
//! byte that an older client, worker or persisted `--cache-dir` relies on.
//! The tables are kept one entry per line, so they are not rustfmt'ed.

use std::collections::BTreeMap;
use std::fmt::Debug;

use service::wire::{
    decode_line, decode_stream_line, encode_line, ErrorFrame, ErrorKind, Frame, FromWire, JobDone,
    JobSpec, LeaseDone, LeaseFailed, LeaseGrant, QueryKind, QueryResult, ScopeSpec, ShardDone,
    TaskSpec, ToWire, Value,
};
use sweep::experiments::{
    Fig4Acc, Fig4Row, Prop2ExhaustiveRow, Prop2Report, Prop2Targeted, Thm1Case, Thm1Outcome,
    Thm3Acc, Thm3Row,
};
use sweep::{CursorStats, SweepStats};
use telemetry::{HistogramSnapshot, MetricsSnapshot};

const JOB: &str = r#"{"type":"job","id":7,"query":"omission","scope":{"n":4,"t":2,"k":1,"max_value":1,"max_crash_round":3,"partial_delivery":true},"shards":4,"seed":42,"shard_cache":true}"#;
const SHARD_DONE: &str = r#"{"type":"shard-done","job":9,"case":1,"cases":4,"shard":2,"shards":8,"start":300,"end":450,"cached":false,"stats":{"scenarios":1200,"cache_hits":40,"cache_misses":3,"runs_simulated":75,"runs_reused":1125,"cursor_materialized":2,"cursor_stepped":1198,"patterns_unranked":75}}"#;
/// A `partial` frame as daemons built as `0.1.0+fold.v3` before its
/// retirement streamed it; readers skip it.
const PARENT_LEASE_REVOKE: &str = r#"{"type":"lease-revoke","lease":11,"generation":2}"#;
const PARENT_PARTIAL: &str = r#"{"type":"partial","job":9,"case":1,"shards_done":3,"shards":8,"scenarios_done":450,"fold":{"violations":3,"beaten":[true,false],"structure":7}}"#;
const JOB_DONE_THM1: &str = r#"{"type":"job-done","job":9,"result":{"query":"thm1","rows":[{"n":3,"t":2,"k":1,"adversaries":200,"correctness_violations":0,"beaten_by":1,"structure_violations":2},{"n":4,"t":2,"k":1,"adversaries":1180591620717411303424,"correctness_violations":0,"beaten_by":1,"structure_violations":2}]},"stats":{"scenarios":1200,"cache_hits":40,"cache_misses":3,"runs_simulated":75,"runs_reused":1125,"cursor_materialized":2,"cursor_stepped":1198,"patterns_unranked":75},"shards_total":8,"shards_cached":5,"shards_executed":3,"fleet_workers":2,"shards_remote":1,"leases_requeued":0,"wall_ms":12.5}"#;
const JOB_DONE_OMISSION: &str = r#"{"type":"job-done","job":9,"result":{"query":"omission","rows":[{"n":4,"t":2,"k":1,"adversaries":14256,"correctness_violations":0,"beaten_by":1,"structure_violations":2}]},"stats":{"scenarios":1200,"cache_hits":40,"cache_misses":3,"runs_simulated":75,"runs_reused":1125,"cursor_materialized":2,"cursor_stepped":1198,"patterns_unranked":75},"shards_total":8,"shards_cached":5,"shards_executed":3,"fleet_workers":2,"shards_remote":1,"leases_requeued":0,"wall_ms":12.5}"#;
const JOB_DONE_THM3: &str = r#"{"type":"job-done","job":9,"result":{"query":"thm3","rows":[{"n":8,"t":6,"k":2,"f":4,"runs":310,"worst":3,"bound":3,"violations":0}]},"stats":{"scenarios":1200,"cache_hits":40,"cache_misses":3,"runs_simulated":75,"runs_reused":1125,"cursor_materialized":2,"cursor_stepped":1198,"patterns_unranked":75},"shards_total":8,"shards_cached":5,"shards_executed":3,"fleet_workers":2,"shards_remote":1,"leases_requeued":0,"wall_ms":12.5}"#;
const JOB_DONE_FIG4: &str = r#"{"type":"job-done","job":9,"result":{"query":"fig4","rows":[{"k":2,"t":6,"n":9,"bound":4,"latest":[2,2,4,4],"violations":0}]},"stats":{"scenarios":1200,"cache_hits":40,"cache_misses":3,"runs_simulated":75,"runs_reused":1125,"cursor_materialized":2,"cursor_stepped":1198,"patterns_unranked":75},"shards_total":8,"shards_cached":5,"shards_executed":3,"fleet_workers":2,"shards_remote":1,"leases_requeued":0,"wall_ms":12.5}"#;
const JOB_DONE_PROP2: &str = r#"{"type":"job-done","job":9,"result":{"query":"prop2","rows":{"exhaustive":[{"n":3,"t":1,"states":52,"with_capacity":20,"connected":20,"counterexamples":0}],"targeted":{"hidden_capacity":2,"executions":512,"star_states":64,"star_facets":27,"star_betti":[1,0],"star_connected":true,"link_betti":[1],"link_connected":false}}},"stats":{"scenarios":1200,"cache_hits":40,"cache_misses":3,"runs_simulated":75,"runs_reused":1125,"cursor_materialized":2,"cursor_stepped":1198,"patterns_unranked":75},"shards_total":8,"shards_cached":5,"shards_executed":3,"fleet_workers":2,"shards_remote":1,"leases_requeued":0,"wall_ms":12.5}"#;
const ERROR: &str =
    r#"{"type":"error","job":9,"kind":"merge","message":"shard 7 \"range\" mismatch\n"}"#;
const LEASE: &str = r#"{"type":"lease","lease":11,"generation":2,"task":{"query":"omission","case":0,"scope":{"n":4,"t":2,"k":1,"max_value":1,"max_crash_round":3,"partial_delivery":true},"seed":42,"shards":8,"shard":5}}"#;
const LEASE_DONE: &str = r#"{"type":"lease-done","lease":11,"generation":2,"worker":3,"start":750,"end":900,"stats":{"scenarios":1200,"cache_hits":40,"cache_misses":3,"runs_simulated":75,"runs_reused":1125,"cursor_materialized":2,"cursor_stepped":1198,"patterns_unranked":75},"payload":{"violations":3,"beaten":[true,false],"structure":7}}"#;
const LEASE_FAILED: &str =
    r#"{"type":"lease-failed","lease":11,"generation":2,"message":"case 9 out of range"}"#;
const STATS_RESULT: &str = r#"{"type":"stats-result","counters":[["jobs.total",4]],"gauges":[["queue.depth",-1]],"histograms":[{"name":"phase.merge_ms","count":2,"sum_us":30,"max_us":20,"p50_us":12.0,"p95_us":20.5,"p99_us":20.5}]}"#;

const THM1_ACC: &str = r#"{"violations":3,"beaten":[true,false],"structure":7}"#;
const THM3_ACC: &str = r#"{"per_f":[[0,1,40],[2,3,17]],"violations":0}"#;
const FIG4_ACC: &str = "[[0,2,2,3,3,0],[5,2,4,4,6,1]]";
const PROP2: &str = r#"{"exhaustive":[{"n":3,"t":1,"states":52,"with_capacity":20,"connected":20,"counterexamples":0}],"targeted":{"hidden_capacity":2,"executions":512,"star_states":64,"star_facets":27,"star_betti":[1,0],"star_connected":true,"link_betti":[1],"link_connected":false}}"#;

fn stats() -> SweepStats {
    SweepStats {
        scenarios: 1200,
        cache: knowledge::CacheStats { hits: 40, misses: 3 },
        runs: set_consensus::RunReuseStats { simulated: 75, reused: 1125 },
        cursor: CursorStats { materialized: 2, stepped: 1198, patterns_unranked: 75 },
    }
}

fn scope() -> ScopeSpec {
    ScopeSpec { n: 4, t: 2, k: 1, max_value: 1, max_crash_round: 3, partial_delivery: true }
}

fn thm1_outcome() -> Thm1Outcome {
    Thm1Outcome { violations: 3, beaten: [true, false], structure: 7 }
}

#[rustfmt::skip]
fn prop2_report() -> Prop2Report {
    Prop2Report {
        exhaustive: vec![Prop2ExhaustiveRow { n: 3, t: 1, states: 52, with_capacity: 20, connected: 20, counterexamples: 0 }],
        targeted: Prop2Targeted {
            hidden_capacity: 2, executions: 512, star_states: 64, star_facets: 27,
            star_betti: vec![1, 0], star_connected: true, link_betti: vec![1], link_connected: false,
        },
    }
}

fn thm1_case(n: usize, adversaries: u128) -> Thm1Case {
    let (t, k, correctness_violations, beaten_by, structure_violations) = (2, 1, 0, 1, 2);
    Thm1Case { n, t, k, adversaries, correctness_violations, beaten_by, structure_violations }
}

#[rustfmt::skip]
fn job_done(result: QueryResult) -> Frame {
    Frame::JobDone(JobDone {
        job: 9, result, stats: stats(), shards_total: 8, shards_cached: 5, shards_executed: 3,
        fleet_workers: 2, shards_remote: 1, leases_requeued: 0, wall_ms: 12.5,
    })
}

/// One fixed value of every frame kind (one `job-done` per result kind),
/// paired with its exact line.
#[rustfmt::skip]
fn golden_frames() -> Vec<(Frame, &'static str)> {
    let task = TaskSpec { query: QueryKind::Omission, case: 0, scope: Some(scope()), seed: 42, shards: 8, shard: 5 };
    let histogram = HistogramSnapshot { name: "phase.merge_ms".into(), count: 2, sum_us: 30, max_us: 20, p50_us: 12.0, p95_us: 20.5, p99_us: 20.5 };
    vec![
        (Frame::Job(JobSpec { id: 7, query: QueryKind::Omission, scope: Some(scope()), shards: 4, seed: 42, shard_cache: true }), JOB),
        (Frame::Cancel { job: 7 }, r#"{"type":"cancel","job":7}"#),
        (Frame::Shutdown, r#"{"type":"shutdown"}"#),
        (Frame::ShuttingDown, r#"{"type":"shutting-down"}"#),
        (Frame::CancelAck { job: 7, found: true }, r#"{"type":"cancel-ack","job":7,"found":true}"#),
        (Frame::ShardDone(ShardDone { job: 9, case: 1, cases: 4, shard: 2, shards: 8, start: 300, end: 450, cached: false, stats: stats() }), SHARD_DONE),
        (job_done(QueryResult::Thm1(vec![thm1_case(3, 200), thm1_case(4, 1 << 70)])), JOB_DONE_THM1),
        (job_done(QueryResult::Omission(vec![thm1_case(4, 14_256)])), JOB_DONE_OMISSION),
        (job_done(QueryResult::Thm3(vec![Thm3Row { n: 8, t: 6, k: 2, f: 4, runs: 310, worst: 3, bound: 3, violations: 0 }])), JOB_DONE_THM3),
        (job_done(QueryResult::Fig4(vec![Fig4Row { k: 2, t: 6, n: 9, bound: 4, latest: [2, 2, 4, 4], violations: 0 }])), JOB_DONE_FIG4),
        (job_done(QueryResult::Prop2(prop2_report())), JOB_DONE_PROP2),
        (Frame::Error(ErrorFrame { job: Some(9), kind: ErrorKind::Merge, message: "shard 7 \"range\" mismatch\n".into() }), ERROR),
        (Frame::Error(ErrorFrame { job: None, kind: ErrorKind::Protocol, message: "bad frame".into() }), r#"{"type":"error","kind":"protocol","message":"bad frame"}"#),
        (Frame::Hello { token: "s3cret".into() }, r#"{"type":"hello","token":"s3cret"}"#),
        (Frame::Register { fold: Some("0.1.0+fold.v3".into()) }, r#"{"type":"register","fold":"0.1.0+fold.v3"}"#),
        (Frame::Registered { worker: 3, lease_ttl_ms: 5000, heartbeat_ms: 1000, fold: Some("0.1.0+fold.v3".into()) }, r#"{"type":"registered","worker":3,"lease_ttl_ms":5000,"heartbeat_ms":1000,"fold":"0.1.0+fold.v3"}"#),
        (Frame::Heartbeat { worker: 3 }, r#"{"type":"heartbeat","worker":3}"#),
        (Frame::Lease(LeaseGrant { lease: 11, generation: 2, task }), LEASE),
        (Frame::LeaseDone(LeaseDone { lease: 11, generation: 2, worker: 3, start: 750, end: 900, stats: stats(), payload: thm1_outcome().to_wire() }), LEASE_DONE),
        (Frame::LeaseFailed(LeaseFailed { lease: 11, generation: 2, message: "case 9 out of range".into() }), LEASE_FAILED),
        (Frame::Stats, r#"{"type":"stats"}"#),
        (Frame::StatsResult(MetricsSnapshot { counters: vec![("jobs.total".into(), 4)], gauges: vec![("queue.depth".into(), -1)], histograms: vec![histogram] }), STATS_RESULT),
    ]
}

#[test]
fn every_frame_kind_encodes_to_its_golden_line_and_back() {
    let frames = golden_frames();
    let mut kinds: Vec<&str> =
        frames.iter().map(|(_, line)| line.split('"').nth(3).unwrap()).collect();
    kinds.dedup();
    assert_eq!(kinds.len(), 17, "one golden line per frame kind: {kinds:?}");
    for (frame, golden) in frames {
        assert_eq!(encode_line(&frame), format!("{golden}\n"), "encoding of {frame:?}");
        assert_eq!(decode_line(golden).as_ref(), Ok(&frame), "decoding of {golden}");
    }
}

/// A stream from a parent daemon: its `partial` line is skipped and the
/// `job-done` line after it is read.  A lone `partial` line is no frame,
/// and any other unknown type is still refused on a stream.
#[test]
fn a_parent_partial_line_is_skipped_before_the_job_done_it_precedes() {
    let frames: Vec<Frame> = [PARENT_PARTIAL, JOB_DONE_THM1]
        .iter()
        .filter_map(|line| decode_stream_line(line).expect(line))
        .collect();
    assert_eq!(frames, [decode_line(JOB_DONE_THM1).expect("golden job-done")]);
    assert!(decode_line(PARENT_PARTIAL).is_err(), "a partial line decodes to no frame");
    let unknown = PARENT_PARTIAL.replacen("partial", "preview", 1);
    assert!(decode_stream_line(&unknown).is_err(), "other unknown types stay errors");
}

/// A stream from a parent coordinator: the `lease-revoke` it sent an
/// expired worker is skipped, and the frame after it is read.  A lone
/// `lease-revoke` line is no frame.
#[test]
fn a_parent_lease_revoke_line_is_skipped_before_the_frame_it_precedes() {
    let frames: Vec<Frame> = [PARENT_LEASE_REVOKE, LEASE]
        .iter()
        .filter_map(|line| decode_stream_line(line).expect(line))
        .collect();
    assert_eq!(frames, [decode_line(LEASE).expect("golden lease")]);
    assert!(decode_line(PARENT_LEASE_REVOKE).is_err(), "a lease-revoke line decodes to no frame");
}

fn check_payload<A: ToWire + FromWire + PartialEq + Debug>(acc: A, golden: &str) {
    assert_eq!(acc.to_wire().render(), golden, "rendering of {acc:?}");
    let parsed = Value::parse(golden).expect("golden payload parses");
    assert_eq!(A::from_wire(&parsed).as_ref(), Ok(&acc), "decoding of {golden}");
}

#[test]
fn accumulator_payloads_render_to_their_golden_bytes_and_back() {
    check_payload(thm1_outcome(), THM1_ACC);
    check_payload(
        Thm3Acc { per_f: BTreeMap::from([(0, (1, 40)), (2, (3, 17))]), violations: 0 },
        THM3_ACC,
    );
    check_payload::<Fig4Acc>(
        BTreeMap::from([(0, ([2, 2, 3, 3], 0)), (5, ([2, 4, 4, 6], 1))]),
        FIG4_ACC,
    );
    check_payload(prop2_report(), PROP2);
}

/// Malformed lines: a golden line with its first occurrence of `from`
/// replaced by `to`, and a substring the decode error must contain — one
/// wrong-typed scalar per record prefix, missing fields, and wrong-length
/// fixed arrays.
#[rustfmt::skip]
const MALFORMED_FRAMES: &[(&str, &str, &str, &str)] = &[
    (JOB, r#""n":4"#, r#""n":"4""#, "scope.n must be an integer"),
    (JOB, r#","partial_delivery":true"#, "", r#"missing field "partial_delivery""#),
    (JOB, r#""shards":4"#, r#""shards":-1"#, "job.shards out of usize range"),
    (JOB, r#""query":"omission""#, r#""query":7"#, "job.query must be a string"),
    (JOB, r#""omission""#, r#""thm9""#, r#"unknown query "thm9""#),
    (JOB, r#""seed":42"#, r#""seed":4.2"#, "job.seed must be an integer"),
    (JOB, r#","shard_cache":true"#, "", r#"missing field "shard_cache""#),
    (LEASE, r#""shard":5"#, r#""shard":"5""#, "task.shard must be an integer"),
    (LEASE, r#""case":0"#, r#""case":-3"#, "task.case out of usize range"),
    (LEASE, r#""generation":2"#, r#""generation":true"#, "lease.generation must be an integer"),
    (LEASE_DONE, r#""end":900"#, r#""end":1.5"#, "lease-done.end must be an integer"),
    (LEASE_DONE, r#""scenarios":1200"#, r#""scenarios":"1""#, "stats.scenarios must be an integer"),
    (LEASE_DONE, r#""payload""#, r#""pay""#, r#"missing field "payload""#),
    (LEASE_FAILED, r#""case 9 out of range""#, "5", "lease-failed.message must be a string"),
    (SHARD_DONE, r#""cached":false"#, r#""cached":1"#, "shard-done.cached must be a boolean"),
    (JOB_DONE_THM1, r#""wall_ms":12.5"#, r#""wall_ms":"slow""#, "job-done.wall_ms must be a number"),
    (JOB_DONE_THM1, r#""adversaries":200"#, r#""adversaries":-1"#, "thm1.adversaries out of u128 range"),
    (JOB_DONE_THM1, r#""adversaries":200"#, r#""adversaries":"many""#, "thm1.adversaries must be an integer"),
    (JOB_DONE_THM1, r#""query":"thm1""#, r#""query":3"#, "result.query must be a string"),
    (JOB_DONE_THM3, r#""worst":3"#, r#""worst":4294967296"#, "thm3.worst out of u32 range"),
    (JOB_DONE_FIG4, "[2,2,4,4]", "[2,2,4]", "fig4.latest must have exactly 4 entries"),
    (JOB_DONE_FIG4, "[2,2,4,4]", r#"[2,2,4,"4"]"#, "fig4.latest entry must be an integer"),
    (JOB_DONE_FIG4, "[2,2,4,4]", "7", "fig4.latest must be an array"),
    (JOB_DONE_PROP2, r#""star_connected":true"#, r#""star_connected":1"#, "prop2.star_connected must be a boolean"),
    (JOB_DONE_PROP2, "[1,0]", "[1,true]", "prop2.star_betti must be an integer"),
    (ERROR, r#""job":9"#, r#""job":"9""#, "error.job must be an integer"),
    (ERROR, r#""shard 7 \"range\" mismatch\n""#, "false", "error.message must be a string"),
    (STATS_RESULT, r#"["jobs.total",4]"#, r#"["jobs.total",-1]"#, "stats-result counter out of u64 range"),
    (STATS_RESULT, r#""count":2"#, r#""count":2.0"#, "histogram.count must be an integer"),
    (STATS_RESULT, r#""p50_us":12.0"#, r#""p50_us":"x""#, "histogram.p50_us must be a number"),
    (r#"{"type":"cancel","job":7}"#, "7", r#""7""#, "cancel.job must be an integer"),
    (r#"{"type":"cancel","job":7}"#, r#","job":7"#, "", r#"missing field "job""#),
    (r#"{"type":"cancel-ack","job":7,"found":true}"#, "true", r#""yes""#, "cancel-ack.found must be a boolean"),
    (r#"{"type":"hello","token":"s3cret"}"#, r#""s3cret""#, "1", "hello.token must be a string"),
    (r#"{"type":"registered","worker":3,"lease_ttl_ms":5000,"heartbeat_ms":1000}"#, "5000", "-1", "registered.lease_ttl_ms out of u64 range"),
    (r#"{"type":"heartbeat","worker":3}"#, "3", "null", "heartbeat.worker must be an integer"),
    (r#"{"type":"shutdown"}"#, r#""shutdown""#, "5", "frame type must be a string"),
    (r#"{"type":"shutdown"}"#, "shutdown", "launch", r#"unknown frame type "launch""#),
];

#[test]
fn malformed_frames_fail_with_the_field_named() {
    for &(golden, from, to, expected) in MALFORMED_FRAMES {
        let line = golden.replacen(from, to, 1);
        assert_ne!(line, golden, "{from:?} does not occur in {golden}");
        let error = decode_line(&line).expect_err(&line);
        assert!(error.message.contains(expected), "{line}\n  error: {error}\n  want: {expected}");
    }
}

fn decode_error<A: FromWire + Debug>(payload: &str) -> String {
    let value = Value::parse(payload).expect("malformed payloads are valid JSON");
    A::from_wire(&value).expect_err(payload).message
}

#[test]
#[rustfmt::skip]
fn malformed_payloads_fail_with_the_field_named() {
    let thm1: fn(&str) -> String = decode_error::<Thm1Outcome>;
    for (decode, golden, from, to, expected) in [
        (thm1, THM1_ACC, "[true,false]", "[true]", "thm1-acc.beaten must have exactly 2 entries"),
        (thm1, THM1_ACC, "[true,false]", "[true,false,true]", "thm1-acc.beaten must have exactly 2 entries"),
        (thm1, THM1_ACC, "[true,false]", "[true,0]", "thm1-acc.beaten entry must be a boolean"),
        (thm1, THM1_ACC, r#""violations":3"#, r#""violations":-3"#, "thm1-acc.violations out of u64 range"),
        (thm1, THM1_ACC, r#","structure":7"#, "", r#"missing field "structure""#),
        (decode_error::<Thm3Acc>, THM3_ACC, "[0,1,40]", "[0,1]", "thm3-acc.per_f entries must be [f, worst, runs]"),
        (decode_error::<Thm3Acc>, THM3_ACC, "[0,1,40]", "[0,-1,40]", "thm3-acc.per_f worst out of u32 range"),
        (decode_error::<Fig4Acc>, FIG4_ACC, "[0,2,2,3,3,0]", "[0,2,2,3,3]", "fig4-acc entries must be [index, l0, l1, l2, l3, violations]"),
        (decode_error::<Fig4Acc>, FIG4_ACC, "[0,2,2,3,3,0]", r#"[0,2,2,3,"3",0]"#, "fig4-acc latest entry must be an integer"),
        (decode_error::<Prop2Report>, PROP2, r#","t":1"#, "", r#"missing field "t""#),
    ] {
        let error = decode(&golden.replacen(from, to, 1));
        assert!(error.contains(expected), "error: {error}\n  want: {expected}");
    }
}
