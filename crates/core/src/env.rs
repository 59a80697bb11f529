//! The environment: one row per `DGEMM_*` variable the library reads,
//! and the one reader. No other module calls `std::env::var`.
//!
//! A row is a variable's name and the one [`GemmError::BadConfig`]
//! message it reports. [`Var::parse`] trims the value and applies the
//! caller's rule (a range, a keyword set, what `0` means); the caller's
//! default stands in for an unset variable. A non-unicode value, or one
//! the rule rejects, is the row's error, reported by the entry point
//! that reads it (README, "Environment variables").

#![forbid(unsafe_code)]

use crate::GemmError;
use std::env::VarError;
use std::path::PathBuf;

/// One environment variable the library reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Var {
    /// The variable's name.
    pub(crate) name: &'static str,
    /// What a non-unicode or malformed value reports.
    bad: &'static str,
}

impl Var {
    /// The row's typed error.
    pub(crate) fn err(self) -> GemmError {
        GemmError::BadConfig(self.bad)
    }

    /// The trimmed value; `None` when unset.
    pub(crate) fn value(self) -> Result<Option<String>, GemmError> {
        match std::env::var(self.name) {
            Ok(v) => Ok(Some(v.trim().to_owned())),
            Err(VarError::NotPresent) => Ok(None),
            Err(VarError::NotUnicode(_)) => Err(self.err()),
        }
    }

    /// The trimmed value through `rule`: `None` when unset, the row's
    /// error when `rule` rejects it.
    pub(crate) fn parse<T>(
        self,
        rule: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, GemmError> {
        self.value()?
            .map(|v| rule(&v).ok_or(self.err()))
            .transpose()
    }
}

/// Declares one `Var` per row, named `DGEMM_<ROW>` with the message
/// `DGEMM_<ROW> <rule>`, and `ALL` listing them.
macro_rules! table {
    ($($(#[$attr:meta])* $row:ident: $rule:literal,)*) => {
        $($(#[$attr])* pub(crate) const $row: Var = Var {
            name: concat!("DGEMM_", stringify!($row)),
            bad: concat!("DGEMM_", stringify!($row), " ", $rule),
        };)*

        /// Every row: each variable the library reads, once.
        #[cfg(test)]
        pub(crate) const ALL: &[Var] = &[$($row),*];
    };
}

table! {
    // `Config::auto`, either kernel family.
    NUM_THREADS: "must be a positive integer",
    EPOCH_TIMEOUT_MS: "must be a non-negative integer of milliseconds",
    PACK_CACHE: "must be 0/1/true/false",
    DISPATCH: "must be auto|fixed",
    TELEMETRY: "must be off, summary or json",
    PEAK_GFLOPS: "must be a positive number",
    AUTOTUNE: "must be off|read|full",
    // `Config::auto` when `DGEMM_AUTOTUNE` is not `off`.
    TUNE_DB: "must be a non-empty path",
    AUTOTUNE_BUDGET: "must be a positive integer",
    AUTOTUNE_REPS: "must be a positive integer",
    TUNE_MAX_AGE_DAYS: "must be an integer day count",
    // `ServiceConfig::from_env`.
    SERVICE_QUEUE: "must be an integer ≥ 1",
    SERVICE_TENANT_QUOTA: "must be an integer ≥ 1",
    SERVICE_DEADLINE_MS: "must be an integer (ms, 0 = none)",
    SERVICE_SHARDS: "must be an integer",
    SERVICE_RETRIES: "must be an integer",
    SERVICE_COALESCE: "must be an integer ≥ 1",
    SERVICE_CACHE_ENTRIES: "must be an integer",
    WEIGHT_STORE: "must be a unicode path",
    // `GemmService::serve_metrics_from_env`, as `io::ErrorKind::InvalidInput`.
    METRICS_ADDR: "must be a unicode host:port",
    // `faults::install_from_env`, in `fault-injection` builds.
    #[cfg_attr(not(feature = "fault-injection"), allow(dead_code))]
    FAULT_SEED: "must be an unsigned 64-bit integer",
}

/// The tuning DB's default directory when `DGEMM_TUNE_DB` is unset:
/// `$XDG_CACHE_HOME`, else `$HOME/.cache`; `None` when neither is set
/// and non-empty.
pub(crate) fn cache_home() -> Option<PathBuf> {
    std::env::var_os("XDG_CACHE_HOME")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
        .or_else(|| {
            std::env::var_os("HOME")
                .filter(|v| !v.is_empty())
                .map(|h| PathBuf::from(h).join(".cache"))
        })
}

/// Serializes every unit test that reads or writes the environment.
#[cfg(test)]
pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::autotune::{db_path, max_age_from_env, TuneOptions};
    use crate::gemm::GemmConfig;
    use crate::pool::WorkerPool;
    use crate::sgemm::SgemmConfig;
    use crate::telemetry::{mode_from_env, peak_gflops_from_env};
    use std::fmt::{Debug, Display};

    /// How a case reads its variables back: through the entry point
    /// that reports them, the parsed value rendered with `{:?}`.
    type Read = fn() -> Result<String, String>;

    /// The variables set (every other row unset), how they are read
    /// back, and the parsed value (`None`: rejected).
    type Case = (&'static [(Var, &'static str)], Read, Option<&'static str>);

    fn shown<T: Debug, E: Display>(r: Result<T, E>) -> Result<String, String> {
        r.map(|v| format!("{v:?}")).map_err(|e| e.to_string())
    }

    fn parallelism() -> Result<String, String> {
        shown(GemmConfig::auto().map(|c| c.parallelism))
    }
    fn threads_are_the_hosts() -> Result<String, String> {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        shown(GemmConfig::auto().map(|c| c.threads() == host && c.parallelism.validate().is_ok()))
    }
    fn threads_are_the_cap() -> Result<String, String> {
        shown(GemmConfig::auto().map(|c| c.threads() == WorkerPool::max_workers()))
    }
    fn epoch_timeout() -> Result<String, String> {
        shown(GemmConfig::auto().map(|c| c.epoch_timeout))
    }
    fn pack_cache() -> Result<String, String> {
        shown(GemmConfig::auto().map(|c| c.pack_cache))
    }
    fn dispatch() -> Result<String, String> {
        shown(GemmConfig::auto().map(|c| c.dispatch))
    }
    fn autotune() -> Result<String, String> {
        shown(GemmConfig::auto().map(|c| c.autotune))
    }
    fn telemetry() -> Result<String, String> {
        shown(GemmConfig::auto().and_then(|_| mode_from_env()))
    }
    fn peak() -> Result<String, String> {
        shown(GemmConfig::auto().and_then(|_| peak_gflops_from_env()))
    }
    fn auto_f64() -> Result<String, String> {
        shown(GemmConfig::auto().map(|_| ()))
    }
    fn auto_f32() -> Result<String, String> {
        shown(SgemmConfig::auto().map(|_| ()))
    }
    fn tune_options() -> Result<String, String> {
        shown(TuneOptions::from_env())
    }
    fn tune_db() -> Result<String, String> {
        shown(db_path())
    }
    fn tune_db_is_the_default() -> Result<String, String> {
        shown(db_path().map(|p| p.is_none_or(|p| p.ends_with("dgemm/tune.json"))))
    }
    fn max_age() -> Result<String, String> {
        shown(max_age_from_env())
    }
    fn metrics_addr() -> Result<String, String> {
        shown(crate::metricsd::addr_from_env())
    }

    fn set(vars: &[(Var, &str)]) {
        for v in ALL {
            std::env::remove_var(v.name);
        }
        for (v, value) in vars {
            std::env::set_var(v.name, value);
        }
    }

    /// `Config::auto`'s own rows (dispatch and the tuner have theirs).
    #[rustfmt::skip]
    pub(crate) const GEMM_ROWS: &[Case] = &[
        (&[], threads_are_the_hosts, Some("true")),
        (&[(NUM_THREADS, "3")], parallelism, Some("Pool(3)")),
        (&[(NUM_THREADS, "1")], parallelism, Some("Serial")),
        (&[(NUM_THREADS, "0")], parallelism, None),
        (&[(NUM_THREADS, "-2")], parallelism, None),
        (&[(NUM_THREADS, "lots")], parallelism, None),
        (&[(NUM_THREADS, "")], parallelism, None),
        // clamped to the pool's cap, not millions of zero-work jobs
        (&[(NUM_THREADS, "18446744073709551615")], threads_are_the_cap, Some("true")),

        (&[], epoch_timeout, Some("None")),
        (&[(EPOCH_TIMEOUT_MS, "0")], epoch_timeout, Some("None")),
        (&[(EPOCH_TIMEOUT_MS, "250")], epoch_timeout, Some("Some(250ms)")),
        (&[(EPOCH_TIMEOUT_MS, "99999999999999")], epoch_timeout, Some("Some(3600s)")),
        (&[(EPOCH_TIMEOUT_MS, "-5")], epoch_timeout, None),
        (&[(EPOCH_TIMEOUT_MS, "soon")], epoch_timeout, None),
        (&[(EPOCH_TIMEOUT_MS, "")], epoch_timeout, None),
        (&[(EPOCH_TIMEOUT_MS, "1.5")], epoch_timeout, None),

        (&[], pack_cache, Some("false")),
        (&[(PACK_CACHE, "1")], pack_cache, Some("true")),
        (&[(PACK_CACHE, "true")], pack_cache, Some("true")),
        (&[(PACK_CACHE, " true ")], pack_cache, Some("true")),
        (&[(PACK_CACHE, "0")], pack_cache, Some("false")),
        (&[(PACK_CACHE, "false")], pack_cache, Some("false")),
        (&[(PACK_CACHE, "")], pack_cache, Some("false")),
        (&[(PACK_CACHE, "yes")], pack_cache, None),
        (&[(PACK_CACHE, "2")], pack_cache, None),
        (&[(PACK_CACHE, "on")], pack_cache, None),

        (&[], telemetry, Some("Off")),
        (&[(TELEMETRY, "off")], telemetry, Some("Off")),
        (&[(TELEMETRY, "")], telemetry, Some("Off")),
        (&[(TELEMETRY, "summary")], telemetry, Some("Summary")),
        (&[(TELEMETRY, "json")], telemetry, Some("Json")),
        (&[(TELEMETRY, " JSON ")], telemetry, Some("Json")),
        (&[(TELEMETRY, "jsno")], telemetry, None),
        (&[(TELEMETRY, "on")], telemetry, None),

        (&[], peak, Some("None")),
        (&[(PEAK_GFLOPS, "90")], peak, Some("Some(90.0)")),
        (&[(PEAK_GFLOPS, " 75.5 ")], peak, Some("Some(75.5)")),
        (&[(PEAK_GFLOPS, "")], peak, Some("None")),
        (&[(PEAK_GFLOPS, "fast")], peak, None),
        (&[(PEAK_GFLOPS, "0")], peak, None),
        (&[(PEAK_GFLOPS, "-3")], peak, None),
        (&[(PEAK_GFLOPS, "inf")], peak, None),
        (&[(PEAK_GFLOPS, "NaN")], peak, None),
    ];

    #[rustfmt::skip]
    pub(crate) const DISPATCH_ROWS: &[Case] = &[
        (&[], dispatch, Some("Fixed")),
        (&[(DISPATCH, "auto")], dispatch, Some("Auto")),
        (&[(DISPATCH, "fixed")], dispatch, Some("Fixed")),
        (&[(DISPATCH, "")], dispatch, Some("Fixed")),
        (&[(DISPATCH, " auto ")], dispatch, Some("Auto")),
        (&[(DISPATCH, "sometimes")], dispatch, None),
        // the runtime itself is Parallelism's to say
        (&[(DISPATCH, "serial")], dispatch, None),
        (&[(DISPATCH, "pool")], dispatch, None),
        (&[(DISPATCH, "parallel")], dispatch, None),
        (&[(DISPATCH, "2")], dispatch, None),
        (&[(DISPATCH, "on")], dispatch, None),
    ];

    #[rustfmt::skip]
    pub(crate) const AUTOTUNE_ROWS: &[Case] = &[
        (&[], autotune, Some("Off")),
        (&[(AUTOTUNE, "off")], autotune, Some("Off")),
        (&[(AUTOTUNE, "")], autotune, Some("Off")),
        (&[(AUTOTUNE, "read")], autotune, Some("Read")),
        (&[(AUTOTUNE, "full")], autotune, Some("Full")),
        (&[(AUTOTUNE, " full ")], autotune, Some("Full")),
        (&[(AUTOTUNE, "on")], autotune, None),
        (&[(AUTOTUNE, "1")], autotune, None),
        (&[(AUTOTUNE, "tune")], autotune, None),

        (&[], tune_options, Some("TuneOptions { budget: 16, reps: 9 }")),
        (&[(AUTOTUNE_BUDGET, "100")], tune_options, Some("TuneOptions { budget: 32, reps: 9 }")),
        (&[(AUTOTUNE_BUDGET, "1")], tune_options, Some("TuneOptions { budget: 2, reps: 9 }")),
        (&[(AUTOTUNE_REPS, "99")], tune_options, Some("TuneOptions { budget: 16, reps: 9 }")),
        (&[(AUTOTUNE_BUDGET, "0")], tune_options, None),
        (&[(AUTOTUNE_BUDGET, "-1")], tune_options, None),
        (&[(AUTOTUNE_BUDGET, "many")], tune_options, None),
        (&[(AUTOTUNE_BUDGET, "")], tune_options, None),
        (&[(AUTOTUNE_REPS, "0")], tune_options, None),
        (&[(AUTOTUNE_REPS, "x")], tune_options, None),
        (&[(AUTOTUNE_REPS, "")], tune_options, None),

        (&[(TUNE_DB, "/tmp/somewhere/tune.json")], tune_db, Some("Some(\"/tmp/somewhere/tune.json\")")),
        (&[(TUNE_DB, "  ")], tune_db, None),
        (&[], tune_db_is_the_default, Some("true")),

        (&[(TUNE_MAX_AGE_DAYS, "30")], max_age, Some("Some(30)")),
        (&[(TUNE_MAX_AGE_DAYS, "a fortnight")], max_age, None),
        // with the tuner off it is never read
        (&[(TUNE_MAX_AGE_DAYS, "a fortnight")], auto_f64, Some("()")),
        (&[(TUNE_MAX_AGE_DAYS, "a fortnight")], auto_f32, Some("()")),
        (&[(TUNE_MAX_AGE_DAYS, "a fortnight"), (AUTOTUNE, "read")], auto_f64, None),
        (&[(TUNE_MAX_AGE_DAYS, "a fortnight"), (AUTOTUNE, "read")], auto_f32, None),
        (&[(TUNE_MAX_AGE_DAYS, "a fortnight"), (AUTOTUNE, "full")], auto_f64, None),
        (&[(TUNE_MAX_AGE_DAYS, "a fortnight"), (AUTOTUNE, "full")], auto_f32, None),
    ];

    #[rustfmt::skip]
    pub(crate) const METRICS_ROWS: &[Case] = &[
        (&[], metrics_addr, Some("None")),
        (&[(METRICS_ADDR, "127.0.0.1:0")], metrics_addr, Some("Some(\"127.0.0.1:0\")")),
        (&[(METRICS_ADDR, "not an address")], metrics_addr, None),
    ];

    /// Checks every row of `rows`, one at a time under the environment
    /// lock (the environment is process-global), and leaves every
    /// variable unset.
    pub(crate) fn check(rows: &[Case]) {
        let _env = lock();
        for &(vars, read, want) in rows {
            set(vars);
            let got = read();
            match want {
                Some(want) => assert_eq!(got.as_deref(), Ok(want), "{vars:?}"),
                None => assert!(got.is_err(), "{vars:?} accepted: {got:?}"),
            }
        }
        // A non-unicode value is the row's own error, read back as the
        // first case that sets that variable alone reads it.
        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStrExt;
            let mut seen = Vec::new();
            for &(vars, read, _) in rows {
                let [(var, _)] = vars else { continue };
                if !seen.contains(var) {
                    seen.push(*var);
                    set(&[]);
                    std::env::set_var(var.name, std::ffi::OsStr::from_bytes(b"\xff"));
                    assert_eq!(read(), Err(var.err().to_string()), "{}", var.name);
                }
            }
        }
        set(&[]);
    }

    /// README's environment table lists exactly the rows, both ways.
    #[test]
    fn readme_lists_every_variable() {
        let readme = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
        let readme = std::fs::read_to_string(readme).expect("README.md");
        let mut documented: Vec<&str> = readme
            .lines()
            .filter_map(|l| l.strip_prefix("| `DGEMM_"))
            .filter_map(|l| l.split('`').next())
            .collect();
        let mut rows: Vec<&str> = ALL.iter().map(|v| &v.name["DGEMM_".len()..]).collect();
        documented.sort_unstable();
        rows.sort_unstable();
        assert_eq!(documented, rows);
    }
}
