//! The experiment server's input contract: every built-in
//! [`ExperimentSpec`] must survive JSON serialize → deserialize *bit*-equal
//! (structurally identical spec, and a re-serialization that reproduces the
//! first byte stream exactly). `specs/quickstart.json` is the committed
//! exemplar clients submit to `cdcs-serve`; it must stay in lockstep with
//! `specs::quickstart()`.

use cdcs_bench::exp::ExperimentSpec;
use cdcs_bench::specs;

#[test]
fn all_builtin_specs_round_trip_bit_equal() {
    let all = specs::all_smoke_specs();
    assert_eq!(all.len(), 22, "the built-in spec catalogue");
    for spec in all {
        let json = serde_json::to_string_pretty(&spec)
            .unwrap_or_else(|e| panic!("serializing {}: {e}", spec.name));
        let back: ExperimentSpec = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("deserializing {}: {e}", spec.name));
        assert_eq!(back, spec, "{} drifted through JSON", spec.name);
        // Byte-level fixpoint: the round-tripped spec serializes to the
        // very same bytes (floats shortest-round-trip, field order stable).
        let again = serde_json::to_string_pretty(&back)
            .unwrap_or_else(|e| panic!("re-serializing {}: {e}", spec.name));
        assert_eq!(again, json, "{} JSON is not a fixpoint", spec.name);
    }
}

const QUICKSTART_SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/quickstart.json");
const MEGA_MESH_SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/mega_mesh.json");
const DYNAMIC_MIX_SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/dynamic_mix.json");

/// The committed exemplar specs and the constructors they must track.
fn committed_specs() -> Vec<(&'static str, ExperimentSpec)> {
    vec![
        (QUICKSTART_SPEC, specs::quickstart()),
        (MEGA_MESH_SPEC, specs::mega_mesh(1, 2)),
        (DYNAMIC_MIX_SPEC, specs::dynamic_mix()),
    ]
}

/// `CDCS_WRITE_SPECS=1 cargo test -p cdcs-bench --test spec_roundtrip`
/// first rewrites the committed specs from the constructors, then checks
/// them — in this one test, so the check can never read a file a
/// parallel test has not written yet.
#[test]
fn committed_specs_match_their_constructors() {
    let regenerate = std::env::var("CDCS_WRITE_SPECS").is_ok();
    for (path, spec) in committed_specs() {
        let canonical = serde_json::to_string_pretty(&spec).expect("serializes");
        if regenerate {
            std::fs::write(path, format!("{canonical}\n")).expect("writing spec");
        }
        let committed =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path} is committed: {e}"));
        let parsed: ExperimentSpec =
            serde_json::from_str(&committed).expect("committed spec parses");
        assert_eq!(parsed, spec, "{path} drifted from its constructor");
        // And the file itself is the canonical serialization (regenerate
        // with `CDCS_WRITE_SPECS=1`).
        assert_eq!(
            committed,
            format!("{canonical}\n"),
            "{path} is not the canonical pretty serialization"
        );
    }
}
