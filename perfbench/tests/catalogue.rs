//! The metric and workload names the benchmark prints are exactly the
//! ones `BENCHMARK.json` declares.

use obda_server::Json;
use perfbench::report::Report;
use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let src = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&src).expect("BENCHMARK.json parses")
}

fn declared(j: &Json, key: &str) -> Vec<(String, String, String)> {
    j.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("`{key}` is an array"))
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

fn owned(c: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
    c.iter()
        .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
        .collect()
}

#[test]
fn catalogues_match_benchmark_json() {
    let j = benchmark_json();
    assert_eq!(declared(&j, "end_to_end"), owned(END_TO_END));
    assert_eq!(declared(&j, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = j
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("`workloads` is an array")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let j = benchmark_json();
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let out = Report::default().render(trace);
        let last = Json::parse(out.lines().last().expect("a result line")).expect("result is JSON");
        let Some(Json::Obj(metrics)) = last.get("metrics") else {
            panic!("result has a metrics object")
        };
        let printed: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                )
            })
            .collect();
        let mut expected: Vec<(String, String)> = declared(&j, key)
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect();
        let mut printed_sorted = printed.clone();
        printed_sorted.sort();
        expected.sort();
        assert_eq!(printed_sorted, expected, "{key}");
    }
}
