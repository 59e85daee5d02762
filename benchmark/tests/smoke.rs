//! Boots the real `bench_server` / load-generator pair at test sizes.

use spamaware_benchmark::compare::{read_json, BenchmarkSpec};
use spamaware_benchmark::layers;
use spamaware_benchmark::script::{seed_key, Bodies, Script, Sizing, Workload};
use spamaware_benchmark::suite::{run_suite, SuiteOpts, MIN_SPAN_COVERAGE};
use spamaware_benchmark::verify::{self, Evidence};
use spamaware_mfs::{DataRef, MailId};
use std::path::{Path, PathBuf};
use std::time::Instant;

fn tmp(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec() -> BenchmarkSpec {
    read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")).unwrap()
}

#[test]
fn smoke_suite_runs_all_four_workloads_and_verifies() {
    let out_dir = tmp("smoke");
    let opts = SuiteOpts {
        seed: 1,
        runs: 1,
        seconds: 1,
        smoke: true,
        server_exe: PathBuf::from(env!("CARGO_BIN_EXE_bench_server")),
        out_dir: out_dir.clone(),
        commit: "test".to_owned(),
    };
    let started = Instant::now();
    let mut lines = Vec::new();
    let (result, all_correct) = run_suite(&opts, |l| lines.push(l.to_owned())).unwrap();
    let took = started.elapsed();
    assert!(all_correct, "{lines:#?}");
    assert!(took.as_secs() < 20, "smoke took {took:?}");

    let spec = spec();
    let gated: Vec<&str> = spec.end_to_end.iter().map(|g| g.name.as_str()).collect();
    assert_eq!(result.workloads.len(), 4);
    for w in &result.workloads {
        assert!(w.attempted > 0 && w.failed == 0, "{}", w.name);
        let names: Vec<&str> = w.end_to_end.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names, gated,
            "{}: end-to-end metrics are the ones BENCHMARK.json gates",
            w.name
        );
        for series in &w.end_to_end {
            assert!(
                series.values.iter().all(|v| *v > 0.0),
                "{} {}",
                w.name,
                series.name
            );
        }
        let value = |name: &str| w.per_layer.iter().find(|m| m.name == name).unwrap().value;
        assert!(value("client.span_coverage") >= MIN_SPAN_COVERAGE);
        let pop3 = value("pop3.sessions_s");
        assert_eq!(pop3 > 0.0, w.name == "pop3_mixed", "{}", w.name);
        assert!(out_dir.join(format!("trace-{}.jsonl", w.name)).is_file());
    }
    // No spool, scratch directory or server survives a run.
    let left: Vec<_> = std::fs::read_dir(&out_dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().into_string().unwrap())
        .filter(|n| !n.starts_with("trace-"))
        .collect();
    assert!(left.is_empty(), "left behind: {left:?}");

    // A traced contract run prints the workload's layers and the shared
    // ones; together they are exactly BENCHMARK.json's per_layer list.
    let shared = layers::probe_shared(&Bodies::generate(1), &out_dir).unwrap();
    let mut printed: Vec<&str> = result.workloads[0]
        .per_layer
        .iter()
        .map(|m| m.name.as_str())
        .collect();
    printed.extend(shared.iter().map(|m| m.name.as_str()));
    let listed: Vec<&str> = spec.per_layer.iter().map(|l| l.name.as_str()).collect();
    assert_eq!(printed, listed);
    let workloads: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
}

#[test]
fn verifier_accepts_a_faithful_spool_and_counts_each_defect() {
    let script = Script::generate(Workload::Pop3Mixed, 1, Sizing::smoke());
    let bodies = Bodies::generate(1);
    let spool = tmp("verify");
    verify::preseed(&spool, &script, &bodies).unwrap();

    // Deliver sessions 0..6 as the server would, ids above the seeds.
    let store = verify::open(&spool).unwrap();
    let mut acked = Vec::new();
    let mut body = Vec::new();
    for key in 0..6u64 {
        let spec = script.spec(key);
        let id = 1000 + key;
        body.clear();
        bodies.write_body(key, spec.size, &mut body);
        let names: Vec<String> = spec.rcpts.iter().map(|m| format!("user{m}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        store
            .deliver(MailId(id), &refs, DataRef::Bytes(&body))
            .unwrap();
        acked.push((key, id));
    }
    // One delivered mail and one seeded mail get deleted.
    let gone_mailbox = script.spec(0).rcpts[0];
    store
        .delete(&format!("user{gone_mailbox}"), MailId(1000))
        .unwrap();
    store
        .delete("user2", MailId(verify::seed_id(&script, 2, 3)))
        .unwrap();
    drop(store);
    let deleted = vec![(gone_mailbox, 0u64), (2, seed_key(2, 3))];

    let problems = |acked: &[(u64, u64)], deleted: &[(u32, u64)], unacked: &[u64]| {
        let evidence = Evidence {
            script: &script,
            bodies: &bodies,
            acked,
            deleted,
            unacked,
        };
        let verdict = verify::verify_spool(&spool, &evidence).unwrap();
        (verdict.problems, verdict.messages)
    };
    assert_eq!(
        problems(&acked, &deleted, &[]).0,
        0,
        "{:?}",
        problems(&acked, &deleted, &[]).1
    );
    // An ack the spool does not hold.
    let mut lost = acked.clone();
    lost.push((6, 1006));
    assert_eq!(problems(&lost, &deleted, &[]).0, 1);
    // A stored mail nobody was told about, unless it was in flight.
    assert_eq!(problems(&acked[..5], &deleted, &[]).0, 1);
    assert_eq!(problems(&acked[..5], &deleted, &[5]).0, 0);
    // A delete that did not happen: the spool lacks a mail it should hold.
    assert_eq!(problems(&acked, &deleted[..1], &[]).0, 1);
    // A body that is not the one its key implies.
    let store = verify::open(&spool).unwrap();
    store
        .deliver(MailId(2000), &["user1"], DataRef::Bytes(&body))
        .unwrap();
    drop(store);
    let mut forged = acked.clone();
    forged.push((7, 2000));
    let mut script_to_user1 = script.clone();
    script_to_user1.sessions[7].rcpts = vec![1];
    let evidence = Evidence {
        script: &script_to_user1,
        bodies: &bodies,
        acked: &forged,
        deleted: &deleted,
        unacked: &[],
    };
    assert_eq!(verify::verify_spool(&spool, &evidence).unwrap().problems, 1);
    let _ = std::fs::remove_dir_all(&spool);
}
