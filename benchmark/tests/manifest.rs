//! `BENCHMARK.json` at the repository root repeats the names defined in
//! `spec.rs` for the driver; the two must not drift apart.

use abcast_benchmark::cli;
use abcast_benchmark::json::Json;

#[test]
fn benchmark_json_is_what_the_spec_says() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        on_disk,
        cli::manifest(),
        "regenerate it with `abcast_benchmark manifest`"
    );
    assert!(text.len() <= 64 * 1024);
    let keys: Vec<&str> = on_disk.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}
