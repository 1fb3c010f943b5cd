//! The one reader of every runtime `AGSC_*` variable.
//!
//! [`KNOBS`] names every variable the workspace reads; README.md's
//! "Configuration" table documents each one, and `tests/knobs.rs` keeps the
//! two (and the code) in step. Reads happen uncached at the call site that
//! owns the default, through one of four readers:
//!
//! * [`parse`] — any [`FromStr`] value,
//! * [`flag`] — a boolean: `1|true|on` or `0|false|off`, case-insensitive,
//! * [`millis`] — a millisecond deadline where `0` or unset means none,
//! * [`text`] — a free-form string such as an address or a path.
//!
//! Every reader trims the value, and an empty value counts as unset. A
//! malformed value never panics and is never silently dropped: the reader
//! emits one `config_warning` naming the variable, the raw value and the
//! default, then returns the default.
//!
//! [`crate::init_run`] / [`crate::init_from_env`] also warn once
//! (`unknown_knob`) for every set `AGSC_*` variable missing from [`KNOBS`],
//! and [`crate::RunManifest::new`] records every set, registered knob under
//! `knobs`, so a run's log names its effective configuration.

use std::fmt::{self, Debug};
use std::str::FromStr;
use std::time::Duration;

/// Every runtime `AGSC_*` variable, grouped by the crate that reads it.
#[rustfmt::skip]
pub const KNOBS: &[&str] = &[
    // agsc-telemetry
    "AGSC_LOG", "AGSC_TELEMETRY_DIR", "AGSC_PROF", "AGSC_PROF_FOLDED",
    "AGSC_METRICS_WINDOW_SECS", "AGSC_METRICS_WINDOW_BUCKETS",
    // agsc-nn and agsc-madrl
    "AGSC_GEMM", "AGSC_TEST_THREADS", "AGSC_DIAG", "AGSC_DIAG_REPORT_EVERY",
    // agsc-bench, the examples and the dist bins
    "AGSC_ITERS", "AGSC_SEED", "AGSC_EVAL_EPISODES", "AGSC_BENCH_DIR",
    // agsc-serve: server and admin plane
    "AGSC_SERVE_ADDR", "AGSC_SERVE_MAX_BATCH", "AGSC_SERVE_MAX_WAIT_US", "AGSC_SERVE_QUEUE_CAP",
    "AGSC_SERVE_READ_TIMEOUT_MS", "AGSC_SERVE_WRITE_TIMEOUT_MS", "AGSC_SERVE_IDLE_TIMEOUT_MS",
    "AGSC_SERVE_MAX_CONNS", "AGSC_METRICS_ADDR", "AGSC_METRICS_HEALTH_QUEUE_FRAC",
    // agsc-serve: client, retries and the load generator
    "AGSC_CLIENT_CONNECT_TIMEOUT_MS", "AGSC_CLIENT_READ_TIMEOUT_MS", "AGSC_CLIENT_WRITE_TIMEOUT_MS",
    "AGSC_RETRY_MAX_ATTEMPTS", "AGSC_RETRY_BASE_MS", "AGSC_RETRY_CAP_MS", "AGSC_RETRY_BUDGET_MS",
    "AGSC_RETRY_SEED", "AGSC_SERVE_CKPT", "AGSC_LOADGEN_CLIENTS", "AGSC_LOADGEN_SECS",
    "AGSC_LOADGEN_RETRY", "AGSC_LOADGEN_TRACE",
    // agsc-dist
    "AGSC_DIST_ADDR", "AGSC_DIST_SHARDS", "AGSC_DIST_CHUNK", "AGSC_DIST_GEN_TIMEOUT_MS",
    "AGSC_DIST_MAX_FRAME_MB", "AGSC_DIST_COMPRESS", "AGSC_DIST_MAX_SEGMENTS", "AGSC_DIST_VERIFY",
    "AGSC_DIST_WORKER_ID",
];

/// `name` parsed as `T`, or `default` when unset or malformed (with one
/// `config_warning` for a malformed value).
pub fn parse<T: FromStr + Debug>(name: &str, default: T) -> T {
    parse_raw(name, std::env::var(name).ok().as_deref(), default)
}

/// `name` as a boolean flag (`1|true|on`, `0|false|off`), or `default`.
pub fn flag(name: &str, default: bool) -> bool {
    parse(name, Flag(default)).0
}

/// `name` as a millisecond deadline; `0`, unset and malformed mean none.
pub fn millis(name: &str) -> Option<Duration> {
    match parse(name, 0u64) {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    }
}

/// `name` trimmed, or `None` when unset or empty.
pub fn text(name: &str) -> Option<String> {
    trimmed(std::env::var(name).ok().as_deref()).map(str::to_string)
}

fn trimmed(raw: Option<&str>) -> Option<&str> {
    raw.map(str::trim).filter(|s| !s.is_empty())
}

/// [`parse`] over an injected raw value, for tests.
fn parse_raw<T: FromStr + Debug>(name: &str, raw: Option<&str>, default: T) -> T {
    let Some(value) = trimmed(raw) else { return default };
    value.parse().unwrap_or_else(|_| {
        crate::warn("config_warning", |e| {
            e.str("var", name)
                .str("value", value)
                .str("default", format!("{default:?}"))
                .msg(format!("ignoring {name}={value:?}; using default {default:?}"))
        });
        default
    })
}

/// The one boolean grammar every [`flag`] shares.
struct Flag(bool);

impl FromStr for Flag {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s.to_ascii_lowercase().as_str() {
            "1" | "true" | "on" => Ok(Flag(true)),
            "0" | "false" | "off" => Ok(Flag(false)),
            _ => Err(()),
        }
    }
}

impl Debug for Flag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Debug::fmt(&self.0, f)
    }
}

/// Every set `AGSC_*` variable as `(name, raw value)`, sorted by name.
pub(crate) fn set_vars() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars_os()
        .filter_map(|(k, v)| Some((k.into_string().ok()?, v.to_string_lossy().into_owned())))
        .filter(|(k, _)| k.starts_with("AGSC_"))
        .collect();
    vars.sort();
    vars
}

/// The names in `vars` that are not in [`KNOBS`].
fn unknown(vars: &[(String, String)]) -> impl Iterator<Item = &str> {
    vars.iter().map(|(k, _)| k.as_str()).filter(|k| !KNOBS.contains(k))
}

/// One `unknown_knob` warning per set `AGSC_*` variable that nothing reads
/// — most likely a typo that would otherwise go unnoticed.
pub(crate) fn warn_unknown() {
    for name in unknown(&set_vars()) {
        crate::warn("unknown_knob", |e| {
            e.str("var", name).msg(format!("{name} is not a known AGSC_* variable; it is ignored"))
        });
    }
}

/// The registered knobs in `vars` as one JSON object of raw values.
pub(crate) fn effective_json(vars: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (k, v) in vars.iter().filter(|(k, _)| KNOBS.contains(&k.as_str())) {
        if out.len() > 1 {
            out.push(',');
        }
        crate::event::push_json_str(&mut out, k);
        out.push(':');
        crate::event::push_json_str(&mut out, v);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::with_global;
    use crate::{install, Level, MemorySink, Value};
    use std::num::NonZeroUsize;
    use std::sync::Arc;

    fn vars(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    #[test]
    fn knobs_are_unique_agsc_names() {
        let mut names = KNOBS.to_vec();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), KNOBS.len(), "duplicate entry in KNOBS");
        assert!(KNOBS.iter().all(|k| k.starts_with("AGSC_")));
    }

    #[test]
    fn malformed_falls_back_to_the_default_and_padding_still_parses() {
        assert_eq!(parse_raw("AGSC_ITERS", Some("twenty-five"), 25u64), 25);
        assert_eq!(parse_raw("AGSC_SEED", Some(" 99 "), 42u64), 99);
        assert_eq!(parse_raw("AGSC_SEED", None, 42u64), 42);
        assert_eq!(parse_raw("AGSC_SEED", Some("  "), 42u64), 42, "empty means unset");
        assert_eq!(parse_raw("AGSC_METRICS_HEALTH_QUEUE_FRAC", Some("0.5"), 0.9f64), 0.5);
    }

    #[test]
    fn zero_is_malformed_for_a_positive_count() {
        let three = NonZeroUsize::new(3).unwrap();
        assert_eq!(parse_raw("AGSC_EVAL_EPISODES", Some("0"), three), three);
        assert_eq!(parse_raw("AGSC_EVAL_EPISODES", Some("5"), three).get(), 5);
    }

    #[test]
    fn flags_share_one_case_insensitive_grammar() {
        let flag =
            |raw: &str, default: bool| parse_raw("AGSC_DIST_VERIFY", Some(raw), Flag(default)).0;
        for on in ["1", "true", "on", "TRUE", " On "] {
            assert!(flag(on, false), "{on:?} must enable");
        }
        for off in ["0", "false", "off", "FALSE", "Off"] {
            assert!(!flag(off, true), "{off:?} must disable");
        }
        for garbage in ["2", "yes", "enabled"] {
            assert!(flag(garbage, true) && !flag(garbage, false), "{garbage:?} keeps the default");
        }
    }

    #[test]
    fn a_malformed_value_warns_exactly_once_naming_var_value_and_default() {
        let events = with_global(|| {
            let mem = Arc::new(MemorySink::new());
            install(vec![mem.clone()], Level::Info);
            assert_eq!(parse_raw("AGSC_ITERS", Some("7"), 25u64), 7);
            assert_eq!(parse_raw("AGSC_ITERS", Some(" nope "), 25u64), 25);
            mem.events()
        });
        assert_eq!(events.len(), 1, "{events:?}");
        let field = |key: &str| events[0].fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
        assert_eq!(events[0].kind, "config_warning");
        assert_eq!(field("var"), Some(&Value::Str("AGSC_ITERS".into())));
        assert_eq!(field("value"), Some(&Value::Str("nope".into())));
        assert_eq!(field("default"), Some(&Value::Str("25".into())));
    }

    #[test]
    fn unknown_names_are_the_unregistered_ones() {
        let v = vars(&[("AGSC_ITERS", "1"), ("AGSC_ITRES", "1"), ("AGSC_LOG", "info")]);
        assert_eq!(unknown(&v).collect::<Vec<_>>(), vec!["AGSC_ITRES"]);
    }

    #[test]
    fn effective_json_maps_registered_knobs_to_raw_values() {
        let v = vars(&[("AGSC_GEMM", "ref"), ("AGSC_ITRES", "1"), ("AGSC_LOG", " \"x\" ")]);
        assert_eq!(effective_json(&v), r#"{"AGSC_GEMM":"ref","AGSC_LOG":" \"x\" "}"#);
        assert_eq!(effective_json(&[]), "{}");
    }
}
