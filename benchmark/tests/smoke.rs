//! The benchmark checked against itself at the smoke scale (10 sim-s
//! cells): its names match `BENCHMARK.json`, its exact fields are exact,
//! planted faults are counted, and its span files add up.

use ldr_bench::forensics::Json;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::{Mutex, MutexGuard, OnceLock};

const EXE: &str = env!("CARGO_BIN_EXE_ldr-benchmark");
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// Runs of one workload share `out/spans-<workload>.jsonl`, and `all`
/// runs every workload, so tests take turns at the binary.
fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn bench(args: &[&str]) -> Output {
    Command::new(EXE).args(args).output().expect("the benchmark binary starts")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

/// The result a run ends its standard output with.
fn result_of(o: &Output) -> Json {
    assert!(o.status.success(), "run failed: {}", String::from_utf8_lossy(&o.stderr));
    let text = stdout(o);
    Json::parse(text.lines().last().expect("a run prints its result")).expect("the result is JSON")
}

fn run(workload: &str, seed: &str, trace: &str, extra: &[&str]) -> Json {
    let mut args = vec!["run", "--smoke", "--workload", workload, "--seed", seed, "--trace", trace];
    args.extend_from_slice(extra);
    result_of(&bench(&args))
}

fn names(list: Option<&Json>) -> BTreeSet<String> {
    match list {
        Some(Json::Arr(items)) => {
            items.iter().map(|m| m.str_field("name").expect("a name").to_string()).collect()
        }
        _ => panic!("not a list"),
    }
}

fn keys(obj: Option<&Json>) -> BTreeSet<String> {
    match obj {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => panic!("not an object"),
    }
}

fn number(v: Option<&Json>) -> f64 {
    match v {
        Some(Json::Num(n)) => *n,
        other => panic!("not a number: {other:?}"),
    }
}

fn workload_names() -> BTreeSet<String> {
    names(Json::parse(SPEC).expect("BENCHMARK.json parses").get("workloads"))
}

/// One smoke `all`, shared by the tests that read its result file.
fn all_doc() -> &'static (String, String) {
    static DOC: OnceLock<(String, String)> = OnceLock::new();
    DOC.get_or_init(|| {
        let _turn = turn();
        let path = out_dir().join("test-all.json");
        let o = bench(&["all", "--smoke", "--seed", "7", "--out", path.to_str().expect("utf-8")]);
        assert!(o.status.success(), "all failed: {}", String::from_utf8_lossy(&o.stderr));
        (stdout(&o), std::fs::read_to_string(&path).expect("all wrote its result file"))
    })
}

#[test]
fn names_match_benchmark_json_in_both_directions() {
    let spec = Json::parse(SPEC).expect("BENCHMARK.json parses");
    let (end_to_end, per_layer) = (names(spec.get("end_to_end")), names(spec.get("per_layer")));
    let _turn = turn();
    for w in workload_names() {
        let untraced = run(&w, "3", "0", &[]);
        assert_eq!(keys(untraced.get("metrics")), end_to_end, "{w}: end-to-end names");
        let traced = run(&w, "3", "1", &[]);
        assert_eq!(keys(traced.get("metrics")), per_layer, "{w}: per-layer names");
        for r in [&untraced, &traced] {
            assert_eq!(
                keys(Some(r)),
                ["attempted", "correct", "failed", "metrics"].map(String::from).into(),
                "a result has exactly the four keys"
            );
            assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{w}: {r:?}");
            assert_eq!(r.u64_field("failed"), Some(0), "{w}");
            assert!(r.u64_field("attempted") >= Some(1), "{w}");
        }
    }
    drop(_turn);
    // The other direction: the program knows no workload the file lacks.
    let o = bench(&["run", "--smoke", "--workload", "no-such-workload"]);
    assert!(!o.status.success());
    let listed = String::from_utf8_lossy(&o.stderr).into_owned();
    let listed: BTreeSet<String> = listed
        .rsplit("the workloads are ")
        .next()
        .expect("the error lists the workloads")
        .trim()
        .split(", ")
        .map(String::from)
        .collect();
    assert_eq!(listed, workload_names());
}

#[test]
fn all_prints_every_metric_of_every_workload_by_name() {
    let spec = Json::parse(SPEC).expect("BENCHMARK.json parses");
    let (printed, file) = all_doc();
    for name in names(spec.get("end_to_end")).iter().chain(&names(spec.get("per_layer"))) {
        let lines = printed.lines().filter(|l| l.split_whitespace().next() == Some(name)).count();
        assert_eq!(lines, 4, "{name} is printed once per workload");
    }
    let doc = Json::parse(file).expect("the result file is JSON");
    assert_eq!(names(doc.get("workloads")), workload_names());
    assert_eq!(doc.get("manifest").and_then(|m| m.get("smoke")), Some(&Json::Bool(true)));
}

#[test]
fn exact_fields_repeat_and_follow_the_seed() {
    let exact = |seed: &str| {
        let _turn = turn();
        let detail = out_dir().join("test-exact-detail.json");
        let mut fields = Vec::new();
        for trace in ["0", "1"] {
            let r = run("traced-faults", seed, trace, &["--detail-out", detail.to_str().unwrap()]);
            let d = Json::parse(&std::fs::read_to_string(&detail).unwrap()).unwrap();
            fields.push(d.str_field("sim_digest").unwrap().to_string());
            fields.push(number(d.get("delivery_ratio")).to_string());
            for (name, m) in match r.get("metrics") {
                Some(Json::Obj(fields)) => fields.iter(),
                _ => panic!("no metrics"),
            } {
                let exact = name == "world.events"
                    || name.starts_with("metrics.")
                    || name.starts_with("faults.");
                if exact {
                    fields.push(format!("{name}={}", number(m.get("value"))));
                }
            }
        }
        fields
    };
    let (a, b, other) = (exact("11"), exact("11"), exact("12"));
    assert_eq!(a, b, "exact fields repeat for one seed");
    assert_eq!(a[0], a[2], "the traced run simulates what the untraced run does");
    assert_ne!(a[0], other[0], "another seed simulates something else");
    assert!(a.iter().any(|f| f.starts_with("faults.injected=") && !f.ends_with("=0")), "{a:?}");
}

#[test]
fn planted_faults_are_counted_as_failures() {
    let _turn = turn();
    let clean = run("dense-reactive", "5", "0", &[]);
    assert_eq!(clean.u64_field("failed"), Some(0));
    for plant in ["panic", "digest"] {
        let r = run("dense-reactive", "5", "0", &["--plant", plant]);
        assert_eq!(r.u64_field("failed"), Some(1), "--plant {plant}: {r:?}");
        assert_eq!(r.get("correct"), Some(&Json::Bool(false)), "--plant {plant}");
        assert_eq!(r.u64_field("attempted"), clean.u64_field("attempted"));
    }
    // A failed cell's simulated seconds do not count as throughput.
    let throughput = |r: &Json| {
        number(r.get("metrics").unwrap().get("sim_pkts_per_wall_s").unwrap().get("value"))
    };
    let planted = run("dense-reactive", "5", "0", &["--plant", "panic"]);
    assert!(throughput(&planted) > 0.0);
    let o = bench(&["run", "--smoke", "--workload", "dense-reactive", "--plant", "panic"]);
    assert!(
        stdout(&o).contains("FAILED") && stdout(&o).contains("planted panic"),
        "one line of reason"
    );
}

#[test]
fn span_files_nest_and_self_times_sum_to_the_root() {
    let _turn = turn();
    for w in workload_names() {
        run(&w, "9", "1", &[]);
        let text = std::fs::read_to_string(out_dir().join(format!("spans-{w}.jsonl"))).unwrap();
        let mut lines = text.lines();
        let header = Json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(header.str_field("schema"), Some("ldr-benchmark-spans"));
        assert_eq!(header.str_field("workload"), Some(w.as_str()));
        let records: Vec<Json> = lines.map(|l| Json::parse(l).expect("a JSON line")).collect();
        let spans: Vec<&Json> = records.iter().filter(|r| r.get("id").is_some()).collect();
        let at = |s: &Json, key: &str| s.u64_field(key).unwrap();
        let mut roots = 0;
        let mut self_sum = 0;
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(at(s, "id"), i as u64, "ids are positions");
            assert!(at(s, "start_ns") <= at(s, "end_ns"), "{w}: span {i} ends before it starts");
            self_sum += at(s, "self_ns");
            match s.u64_field("parent") {
                None => roots += 1,
                Some(p) => {
                    let parent = spans[p as usize];
                    assert!(p < i as u64, "{w}: a parent opens before its child");
                    assert!(
                        at(parent, "start_ns") <= at(s, "start_ns")
                            && at(s, "end_ns") <= at(parent, "end_ns"),
                        "{w}: span {i} ({:?}) leaves its parent",
                        s.str_field("name")
                    );
                }
            }
        }
        assert_eq!(roots, 1, "{w}: one root");
        let root = at(spans[0], "end_ns") - at(spans[0], "start_ns");
        if w == "paper-sweep" {
            // Cells overlap on the pool's threads, so their self times
            // sum to more than the wall time they cover.
            assert!(self_sum >= root, "{w}: {self_sum} < {root}");
        } else {
            assert_eq!(self_sum, root, "{w}: self times sum to the root");
        }
        for name in ["run", "setup", "cell", "runner.build_world", "world.run_until", "probes"] {
            assert!(spans.iter().any(|s| s.str_field("name") == Some(name)), "{w}: no {name} span");
        }
        let phases = records.iter().filter(|r| r.get("phase").is_some()).count();
        assert_eq!(phases > 0, w != "paper-sweep", "{w}: profiler phases hang under run_until");
    }
}

#[test]
fn compare_judges_by_the_bounds_and_refuses_what_it_cannot_compare() {
    let (_, smoke) = all_doc();
    let write = |name: &str, text: &str| {
        let path = out_dir().join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    };
    let smoke_file = write("test-compare-smoke.json", smoke);
    let o = bench(&["compare", &smoke_file, &smoke_file]);
    assert_eq!(o.status.code(), Some(2), "a smoke file is refused");
    assert!(String::from_utf8_lossy(&o.stderr).contains("smoke"));

    // The same numbers, relabelled as a full run, to exercise the tables.
    let full = smoke.replace("\"smoke\":true", "\"smoke\":false");
    let base = write("test-compare-base.json", &full);
    let o = bench(&["compare", &base, &base]);
    assert_eq!(o.status.code(), Some(0), "{}", String::from_utf8_lossy(&o.stderr));
    let text = stdout(&o);
    assert!(text.contains("  within-bound") && !text.contains("  regressed"), "{text}");
    assert_eq!(text.matches("simulated statistics identical").count(), 4);
    assert!(text.contains("world.fel_pop_ns_per_event"), "the per-layer table is printed");

    let other_seed = write("test-compare-seed.json", &full.replace("\"seed\":7", "\"seed\":8"));
    assert_eq!(bench(&["compare", &base, &other_seed]).status.code(), Some(2));

    // Halve every throughput: regressed, and the exit code says so.
    let doc = Json::parse(&full).unwrap();
    let mut slow = full.clone();
    for w in match doc.get("workloads") {
        Some(Json::Arr(items)) => items,
        _ => panic!("no workloads"),
    } {
        let v = number(
            w.get("untraced")
                .unwrap()
                .get("metrics")
                .unwrap()
                .get("sim_pkts_per_wall_s")
                .unwrap()
                .get("value"),
        );
        slow = slow.replace(
            &format!("\"sim_pkts_per_wall_s\":{{\"value\":{v}"),
            &format!("\"sim_pkts_per_wall_s\":{{\"value\":{}", v / 2.0),
        );
    }
    let slow = write("test-compare-slow.json", &slow);
    let o = bench(&["compare", &base, &slow]);
    assert_eq!(o.status.code(), Some(1));
    assert_eq!(stdout(&o).matches("  regressed").count(), 4, "{}", stdout(&o));
    let o = bench(&["compare", &slow, &base]);
    assert_eq!(o.status.code(), Some(0));
    assert_eq!(stdout(&o).matches("  improved").count(), 4);

    // Different simulated statistics: timings are not comparable.
    let digest = doc.get("workloads").and_then(|w| match w {
        Json::Arr(items) => items[0].get("untraced")?.str_field("sim_digest"),
        _ => None,
    });
    let changed = write(
        "test-compare-changed.json",
        &full.replace(digest.unwrap(), "00000000000000000000000000000000"),
    );
    let text = stdout(&bench(&["compare", &base, &changed]));
    assert!(text.contains("simulated statistics CHANGED") && text.contains("unresolved"), "{text}");
}
