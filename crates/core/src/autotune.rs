//! Closed-loop, model-seeded autotuning with a persistent per-host
//! tuning DB (DESIGN.md §14).
//!
//! The paper derives its blocking analytically for one machine (the
//! X-Gene). On any other host, [`crate::gemm::Config::for_kernel`]
//! still solves eqs. (15)–(20) against the *paper's* cache geometry —
//! the model is a diagnostic, not a feedback loop. This module closes
//! the loop, following the "model prunes the empirical search"
//! programme of Veras et al. and Martínez et al. (PAPERS.md):
//!
//! 1. **Candidates** come from `perfmodel::tuning`: the analytic seed,
//!    the Goto heuristic, and Table VI-axis neighbors — never a grid —
//!    then model-pruned by the eq. (4) bound. The sweep never measures
//!    more than [`MAX_CANDIDATES`] `(kernel, blocking, runtime)`
//!    configurations.
//! 2. **Measurement** runs through the existing telemetry path
//!    ([`crate::telemetry::reset`] / [`snapshot`](crate::telemetry::snapshot)
//!    / [`GemmReport::from_run`]); the score is achieved GFLOPS, with
//!    [`GemmReport::achieved_vs_bound`] recorded alongside so the DB
//!    says how much of the model-promised performance the winner
//!    extracts. Candidates measuring far slower than the current best
//!    are abandoned after their warm-up call.
//! 3. **Persistence**: winners land in a versioned JSON DB (schema
//!    [`SCHEMA`]) at `DGEMM_TUNE_DB` or `~/.cache/dgemm/tune.json`,
//!    keyed by `(cpu-id, dtype, shape-class)`, together with the
//!    dispatcher's per-runtime EWMA calibration ratios so a new process
//!    predicts accurately from its first call
//!    ([`crate::dispatch::seed_calibration_ratios`]).
//! 4. **Consultation**: [`crate::gemm::Config::auto`] (either kernel
//!    family) reads `DGEMM_AUTOTUNE`:
//!    `off` (default) changes nothing, `read` applies stored winners,
//!    `full` additionally tunes on the first miss of each shape class.
//!
//! Tuning failures never fail a GEMM: a missing, corrupt or
//! stale-schema DB silently degrades to the analytic defaults.

#![forbid(unsafe_code)]

use crate::dispatch::DispatchMode;
use crate::gemm::{Config, KernelFamily};
use crate::pool::{Parallelism, WorkerPool};
use crate::scalar::Scalar;
use crate::telemetry::GemmReport;
use crate::util::json_escape;
use crate::{GemmError, Transpose};
use perfmodel::cacheblock::{solve_blocking, BlockSizes};
use perfmodel::tuning::{self, ShapeClass};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, Once, OnceLock, PoisonError};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// DB schema tag; a file carrying any other tag is treated as absent.
pub const SCHEMA: &str = "dgemm-tune-v1";

/// The library version stamped into every [`TuneEntry`] this build
/// writes. Entries carrying a *different* version are stale — blocking
/// winners do not transfer across kernel/runtime changes — and the
/// parser drops them exactly like corrupt ones: silent fallback to the
/// analytic model, re-tuned on the next `DGEMM_AUTOTUNE=full` miss.
pub const LIB_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Hard cap on measured `(kernel, blocking, runtime)` configurations
/// per sweep — the "model-pruned, not brute force" contract.
pub const MAX_CANDIDATES: usize = 32;

/// Model-pruning slack: candidates whose eq. (4) bound exceeds the best
/// candidate's by this factor are dropped before measuring (the model
/// is a bound, not a stopwatch, so a generous factor keeps genuinely
/// competitive candidates in).
const PRUNE_KEEP: f64 = 1.6;

/// A candidate measuring slower than this multiple of the best call so
/// far on its warm-up is abandoned without timed reps.
const EARLY_SKIP: f64 = 2.5;

/// Default / clamp values for the sweep knobs.
const DEFAULT_BUDGET: usize = 16;
const DEFAULT_REPS: usize = 3;
const MAX_REPS: usize = 9;

/// Minimum wall time the timed reps of one candidate must cover. Small
/// representative shapes run in a fraction of a millisecond, where a
/// single call times mostly host scheduling noise; reps are scaled up
/// (beyond `TuneOptions::reps`, capped at [`REPS_CAP`]) until the
/// measured interval is at least this long.
const MIN_SWEEP_SECS: f64 = 0.02;

/// Upper bound on the time-scaled rep count per candidate.
const REPS_CAP: usize = 200;

/// A non-baseline candidate must beat the measured analytic baseline by
/// this factor to be stored; anything closer is within measurement
/// noise, and the sweep falls back to the baseline so a noise-lucky
/// winner is never persisted over the model's choice.
const WIN_MARGIN: f64 = 1.03;

/// What `DGEMM_AUTOTUNE` selects per config (default [`Off`]).
///
/// [`Off`]: AutotuneMode::Off
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AutotuneMode {
    /// Never consult the tuning DB; analytic blockings only.
    #[default]
    Off,
    /// Apply stored winners; never measure.
    Read,
    /// Apply stored winners and tune on the first miss of each shape
    /// class (once per class per process).
    Full,
}

impl AutotuneMode {
    /// Parse `DGEMM_AUTOTUNE`: absent/`off` disables, `read` applies
    /// stored winners, `full` also tunes on miss; anything else is a
    /// typed error (the `DGEMM_DISPATCH` pattern).
    pub fn from_env() -> Result<Self, GemmError> {
        match std::env::var("DGEMM_AUTOTUNE") {
            Ok(v) => match v.trim() {
                "read" => Ok(AutotuneMode::Read),
                "full" => Ok(AutotuneMode::Full),
                "" | "off" => Ok(AutotuneMode::Off),
                _ => Err(GemmError::BadConfig("DGEMM_AUTOTUNE must be off|read|full")),
            },
            Err(std::env::VarError::NotUnicode(_)) => {
                Err(GemmError::BadConfig("DGEMM_AUTOTUNE is not unicode"))
            }
            Err(std::env::VarError::NotPresent) => Ok(AutotuneMode::Off),
        }
    }
}

/// Sweep knobs, from `DGEMM_AUTOTUNE_BUDGET` (max configurations per
/// sweep, clamped to `2..=32`, default 16) and `DGEMM_AUTOTUNE_REPS`
/// (timed calls per configuration, clamped to `1..=9`, default 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneOptions {
    /// Max `(kernel, blocking, runtime)` configurations measured.
    pub budget: usize,
    /// Timed GEMM calls per configuration (after one warm-up).
    pub reps: usize,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            budget: DEFAULT_BUDGET,
            reps: DEFAULT_REPS,
        }
    }
}

impl TuneOptions {
    /// Read the sweep knobs from the environment; malformed values are
    /// typed errors, absent ones take the defaults.
    pub fn from_env() -> Result<Self, GemmError> {
        let budget = match std::env::var("DGEMM_AUTOTUNE_BUDGET") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n > 0 => n.clamp(2, MAX_CANDIDATES),
                _ => {
                    return Err(GemmError::BadConfig(
                        "DGEMM_AUTOTUNE_BUDGET must be a positive integer",
                    ))
                }
            },
            Err(std::env::VarError::NotUnicode(_)) => {
                return Err(GemmError::BadConfig("DGEMM_AUTOTUNE_BUDGET is not unicode"))
            }
            Err(std::env::VarError::NotPresent) => DEFAULT_BUDGET,
        };
        let reps = match std::env::var("DGEMM_AUTOTUNE_REPS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n > 0 => n.min(MAX_REPS),
                _ => {
                    return Err(GemmError::BadConfig(
                        "DGEMM_AUTOTUNE_REPS must be a positive integer",
                    ))
                }
            },
            Err(std::env::VarError::NotUnicode(_)) => {
                return Err(GemmError::BadConfig("DGEMM_AUTOTUNE_REPS is not unicode"))
            }
            Err(std::env::VarError::NotPresent) => DEFAULT_REPS,
        };
        Ok(TuneOptions { budget, reps })
    }
}

/// Where the tuning DB lives: `DGEMM_TUNE_DB` when set (must be a
/// non-empty unicode path — typed error otherwise), else
/// `$XDG_CACHE_HOME/dgemm/tune.json`, else `$HOME/.cache/dgemm/tune.json`,
/// else `None` (no home: tuning is memory-only for the process).
pub fn db_path() -> Result<Option<PathBuf>, GemmError> {
    match std::env::var("DGEMM_TUNE_DB") {
        Ok(v) => {
            let t = v.trim();
            if t.is_empty() {
                Err(GemmError::BadConfig(
                    "DGEMM_TUNE_DB must be a non-empty path",
                ))
            } else {
                Ok(Some(PathBuf::from(t)))
            }
        }
        Err(std::env::VarError::NotUnicode(_)) => {
            Err(GemmError::BadConfig("DGEMM_TUNE_DB is not unicode"))
        }
        Err(std::env::VarError::NotPresent) => {
            let base = std::env::var_os("XDG_CACHE_HOME")
                .filter(|v| !v.is_empty())
                .map(PathBuf::from)
                .or_else(|| {
                    std::env::var_os("HOME")
                        .filter(|v| !v.is_empty())
                        .map(|h| PathBuf::from(h).join(".cache"))
                });
            Ok(base.map(|b| b.join("dgemm").join("tune.json")))
        }
    }
}

/// Age bound on tuned entries: `DGEMM_TUNE_MAX_AGE_DAYS` as a day
/// count (`None` when unset — entries never expire by age, the
/// pre-existing behavior). `0` expires every dated entry immediately;
/// garbage is a typed error ([`crate::gemm::Config::auto`]
/// validates this eagerly so a bad value fails config construction,
/// not a later consultation).
pub fn max_age_from_env() -> Result<Option<u64>, GemmError> {
    crate::gemm::env_u64(
        "DGEMM_TUNE_MAX_AGE_DAYS",
        "DGEMM_TUNE_MAX_AGE_DAYS must be an integer day count",
    )
}

/// Whether `entry` is older than `max_age_days`. Entries with an
/// unknown sweep time (`tuned_at == 0`) never expire — age-based
/// re-tuning must not churn on DBs written before timestamps existed.
fn entry_expired(entry: &TuneEntry, max_age_days: Option<u64>) -> bool {
    let Some(days) = max_age_days else {
        return false;
    };
    if entry.tuned_at == 0 {
        return false;
    }
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    now.saturating_sub(entry.tuned_at) > days.saturating_mul(86_400)
}

/// Stable identifier of the host CPU the tunings belong to: the
/// `/proc/cpuinfo` model name slugged to `[a-z0-9.-]` plus the logical
/// core count, e.g. `intel-r-xeon-r-cpu-...-8c`. Falls back to the
/// target architecture when `/proc/cpuinfo` is unavailable.
#[must_use]
pub fn cpu_id() -> &'static str {
    static ID: OnceLock<String> = OnceLock::new();
    ID.get_or_init(|| {
        let model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines().find_map(|l| {
                    let (key, v) = l.split_once(':')?;
                    matches!(key.trim(), "model name" | "Processor" | "cpu model")
                        .then(|| v.trim().to_owned())
                })
            })
            .unwrap_or_else(|| std::env::consts::ARCH.to_owned());
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let mut slug = String::new();
        for c in model.to_lowercase().chars() {
            if c.is_ascii_alphanumeric() || c == '.' {
                slug.push(c);
            } else if !slug.ends_with('-') {
                slug.push('-');
            }
        }
        format!("{}-{cores}c", slug.trim_matches('-'))
    })
}

// ---------------------------------------------------------------------
// The DB model.
// ---------------------------------------------------------------------

/// One tuned winner: the best `(kernel, blocking, runtime)` measured
/// for a `(cpu, dtype, shape-class)` key, with the evidence.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneEntry {
    /// Host key ([`cpu_id`]).
    pub cpu: String,
    /// `"f64"` or `"f32"`.
    pub dtype: String,
    /// Shape-class key ([`ShapeClass::label`]).
    pub class: String,
    /// Winning register block rows.
    pub mr: usize,
    /// Winning register block columns.
    pub nr: usize,
    /// Winning `kc`.
    pub kc: usize,
    /// Winning `mc`.
    pub mc: usize,
    /// Winning `nc`.
    pub nc: usize,
    /// `"serial"` or `"pool"`.
    pub runtime: String,
    /// Parallel degree of the winning runtime (1 for serial).
    pub threads: usize,
    /// Measured GFLOPS of the winner at the class representative shape.
    pub gflops: f64,
    /// Measured GFLOPS of the untuned analytic default in the same sweep.
    pub untuned_gflops: f64,
    /// Winner's [`GemmReport::achieved_vs_bound`] score.
    pub achieved_vs_bound: f64,
    /// Configurations the sweep considered (≤ [`MAX_CANDIDATES`]).
    pub candidates: usize,
    /// Seconds since the Unix epoch when the sweep ran (0 = unknown).
    /// Staleness is decided by `version` (mismatches are dropped at
    /// parse) *and*, when `DGEMM_TUNE_MAX_AGE_DAYS` is set, by age:
    /// under Full mode an over-age entry is treated as a miss and
    /// re-tuned in the background ([`max_age_from_env`]).
    pub tuned_at: u64,
    /// [`LIB_VERSION`] of the build that produced the entry; a
    /// mismatch marks the entry stale and the parser drops it.
    pub version: String,
}

impl TuneEntry {
    /// The stored blocking as [`BlockSizes`].
    #[must_use]
    pub fn blocks(&self) -> BlockSizes {
        BlockSizes::custom(self.mr, self.nr, self.kc, self.mc, self.nc)
    }

    /// Tuned-over-untuned speedup (1.0 when the default won).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.untuned_gflops > 0.0 {
            self.gflops / self.untuned_gflops
        } else {
            1.0
        }
    }
}

/// Per-host dispatcher calibration, persisted so a fresh process starts
/// from the learned ratios instead of the neutral 1.0 prior.
#[derive(Clone, Debug, PartialEq)]
pub struct HostCalibration {
    /// Host key ([`cpu_id`]).
    pub cpu: String,
    /// Serial-runtime measured/model EWMA ratio.
    pub serial_cal: f64,
    /// Pool-runtime measured/model EWMA ratio.
    pub pool_cal: f64,
}

/// The whole tuning DB (schema [`SCHEMA`]): calibration per host plus
/// tuned winners per `(cpu, dtype, shape-class)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TuneDb {
    /// Dispatcher calibration, one entry per host.
    pub hosts: Vec<HostCalibration>,
    /// Tuned winners.
    pub entries: Vec<TuneEntry>,
}

impl TuneDb {
    /// The stored winner for a key, if any.
    #[must_use]
    pub fn find(&self, cpu: &str, dtype: &str, class: &str) -> Option<&TuneEntry> {
        self.entries
            .iter()
            .find(|e| e.cpu == cpu && e.dtype == dtype && e.class == class)
    }

    /// Insert or replace the winner for `entry`'s key.
    pub fn upsert(&mut self, entry: TuneEntry) {
        match self
            .entries
            .iter_mut()
            .find(|e| e.cpu == entry.cpu && e.dtype == entry.dtype && e.class == entry.class)
        {
            Some(slot) => *slot = entry,
            None => self.entries.push(entry),
        }
    }

    /// The stored calibration for a host, if any.
    #[must_use]
    pub fn host(&self, cpu: &str) -> Option<&HostCalibration> {
        self.hosts.iter().find(|h| h.cpu == cpu)
    }

    /// Insert or replace a host's calibration.
    pub fn upsert_host(&mut self, cal: HostCalibration) {
        match self.hosts.iter_mut().find(|h| h.cpu == cal.cpu) {
            Some(slot) => *slot = cal,
            None => self.hosts.push(cal),
        }
    }

    /// Serialize to the versioned JSON the parser round-trips.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut hosts = String::new();
        for (i, h) in self.hosts.iter().enumerate() {
            if i > 0 {
                hosts.push(',');
            }
            hosts.push_str(&format!(
                "{{\"cpu\":\"{}\",\"serial_cal\":{},\"pool_cal\":{}}}",
                json_escape(&h.cpu),
                json_num(h.serial_cal),
                json_num(h.pool_cal)
            ));
        }
        let mut entries = String::new();
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                entries.push(',');
            }
            entries.push_str(&format!(
                "{{\"cpu\":\"{}\",\"dtype\":\"{}\",\"class\":\"{}\",\
                 \"mr\":{},\"nr\":{},\"kc\":{},\"mc\":{},\"nc\":{},\
                 \"runtime\":\"{}\",\"threads\":{},\"gflops\":{},\
                 \"untuned_gflops\":{},\"achieved_vs_bound\":{},\
                 \"candidates\":{},\"tuned_at\":{},\"version\":\"{}\"}}",
                json_escape(&e.cpu),
                json_escape(&e.dtype),
                json_escape(&e.class),
                e.mr,
                e.nr,
                e.kc,
                e.mc,
                e.nc,
                json_escape(&e.runtime),
                e.threads,
                json_num(e.gflops),
                json_num(e.untuned_gflops),
                json_num(e.achieved_vs_bound),
                e.candidates,
                e.tuned_at,
                json_escape(&e.version)
            ));
        }
        format!("{{\"schema\":\"{SCHEMA}\",\"hosts\":[{hosts}],\"entries\":[{entries}]}}")
    }

    /// Parse a DB file's contents. `None` on malformed JSON, a missing
    /// or mismatched schema tag, or entries that don't type-check —
    /// callers treat that exactly like an absent file (the corrupt /
    /// stale-version fallback the tests pin).
    #[must_use]
    pub fn from_json(text: &str) -> Option<TuneDb> {
        let v = Json::parse(text)?;
        if v.get("schema")?.as_str()? != SCHEMA {
            return None;
        }
        let mut db = TuneDb::default();
        for h in v.get("hosts")?.as_arr()? {
            db.hosts.push(HostCalibration {
                cpu: h.get("cpu")?.as_str()?.to_owned(),
                serial_cal: h.get("serial_cal")?.as_f64()?,
                pool_cal: h.get("pool_cal")?.as_f64()?,
            });
        }
        for e in v.get("entries")?.as_arr()? {
            // Per-entry triage: a malformed entry or one stamped by a
            // different library build is dropped *silently* — exactly
            // the corrupt-file contract, but scoped to the entry so one
            // stale winner doesn't discard the rest of the DB. Full
            // mode re-tunes the dropped class on its next first miss.
            let Some(entry) = parse_entry(e) else {
                continue;
            };
            if entry.version != LIB_VERSION {
                continue;
            }
            db.entries.push(entry);
        }
        Some(db)
    }
}

/// Type-check one `entries[]` element. `None` on any missing or
/// mistyped field (the caller skips it).
fn parse_entry(e: &Json) -> Option<TuneEntry> {
    Some(TuneEntry {
        cpu: e.get("cpu")?.as_str()?.to_owned(),
        dtype: e.get("dtype")?.as_str()?.to_owned(),
        class: e.get("class")?.as_str()?.to_owned(),
        mr: e.get("mr")?.as_usize()?,
        nr: e.get("nr")?.as_usize()?,
        kc: e.get("kc")?.as_usize()?,
        mc: e.get("mc")?.as_usize()?,
        nc: e.get("nc")?.as_usize()?,
        runtime: e.get("runtime")?.as_str()?.to_owned(),
        threads: e.get("threads")?.as_usize()?,
        gflops: e.get("gflops")?.as_f64()?,
        untuned_gflops: e.get("untuned_gflops")?.as_f64()?,
        achieved_vs_bound: e.get("achieved_vs_bound")?.as_f64()?,
        candidates: e.get("candidates")?.as_usize()?,
        tuned_at: e.get("tuned_at")?.as_usize()? as u64,
        version: e.get("version")?.as_str()?.to_owned(),
    })
}

/// A finite f64 as a JSON number (Rust's shortest round-trip `Display`
/// repr is valid JSON for finite values); non-finite degrades to 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

// ---------------------------------------------------------------------
// Minimal JSON reader (the workspace has no serde; the DB grammar is
// small and fully covered by objects/arrays/strings/numbers/atoms).
// ---------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Option<Json> {
        let mut p = JsonParser {
            s: text.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        (p.i == p.s.len()).then_some(v)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) if n.is_finite() => Some(*n),
            _ => None,
        }
    }

    fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        (n >= 0.0 && n <= 2f64.powi(52) && n.fract() == 0.0).then_some(n as usize)
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    s: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.s.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        (self.s.get(self.i) == Some(&b)).then(|| self.i += 1)
    }

    fn lit(&mut self, word: &str, v: Json) -> Option<Json> {
        let end = self.i.checked_add(word.len())?;
        (self.s.get(self.i..end)? == word.as_bytes()).then(|| {
            self.i = end;
            v
        })
    }

    fn value(&mut self) -> Option<Json> {
        self.skip_ws();
        match *self.s.get(self.i)? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Json::Str),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}').is_some() {
            return Some(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            if self.eat(b',').is_some() {
                continue;
            }
            self.eat(b'}')?;
            return Some(Json::Obj(fields));
        }
    }

    fn array(&mut self) -> Option<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']').is_some() {
            return Some(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b',').is_some() {
                continue;
            }
            self.eat(b']')?;
            return Some(Json::Arr(items));
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match *self.s.get(self.i)? {
                b'"' => {
                    self.i += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.i += 1;
                    match *self.s.get(self.i)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let end = self.i.checked_add(5)?;
                            let hex = std::str::from_utf8(self.s.get(self.i + 1..end)?).ok()?;
                            let code = u32::from_str_radix(hex, 16).ok()?;
                            // Surrogates are not worth supporting for
                            // cpu-id slugs; reject rather than mangle.
                            out.push(char::from_u32(code)?);
                            self.i = end - 1;
                        }
                        _ => return None,
                    }
                    self.i += 1;
                }
                c if c < 0x20 => return None,
                _ => {
                    // Copy a full UTF-8 scalar (the input came from
                    // &str, so boundaries are valid).
                    let start = self.i;
                    self.i += 1;
                    while self.i < self.s.len() && (self.s[self.i] & 0xC0) == 0x80 {
                        self.i += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.s[start..self.i]).ok()?);
                }
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.i;
        if self.s.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while matches!(
            self.s.get(self.i),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()?
            .parse::<f64>()
            .ok()
            .map(Json::Num)
    }
}

// ---------------------------------------------------------------------
// Load/store with a per-path in-memory cache.
// ---------------------------------------------------------------------

fn db_cache() -> &'static Mutex<HashMap<PathBuf, TuneDb>> {
    static CACHE: OnceLock<Mutex<HashMap<PathBuf, TuneDb>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Load the DB at `path`, through a process-wide per-path cache (one
/// disk read per path per process; [`store_db`] keeps the cache
/// coherent with what this process writes — concurrent writers from
/// *other* processes are last-writer-wins, which is fine for a cache of
/// measurements). Missing, unreadable, corrupt or stale-schema files
/// all load as an empty DB.
#[must_use]
pub fn load_db(path: &Path) -> TuneDb {
    let mut cache = db_cache().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(db) = cache.get(path) {
        return db.clone();
    }
    let db = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| TuneDb::from_json(&text))
        .unwrap_or_default();
    cache.insert(path.to_path_buf(), db.clone());
    db
}

/// Write the DB atomically (temp file + rename, so readers never see a
/// torn file) and refresh the in-memory cache. IO errors are returned
/// so explicit tuning drivers can report them; the transparent
/// `gemm()`-path callers ignore them (tuning must never fail a GEMM).
pub fn store_db(path: &Path, db: &TuneDb) -> std::io::Result<()> {
    db_cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert(path.to_path_buf(), db.clone());
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, db.to_json())?;
    std::fs::rename(&tmp, path)
}

/// Drop the in-memory DB cache (tests re-reading files they rewrote).
pub fn invalidate_db_cache() {
    db_cache()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// Seed the dispatcher's EWMA calibration from the DB's entry for this
/// host, once per process (later calls are no-ops so a live, adapted
/// calibration is never clobbered mid-run). Silently does nothing
/// without a DB path or host entry.
pub fn seed_dispatch_calibration() {
    static SEEDED: Once = Once::new();
    SEEDED.call_once(|| {
        if let Ok(Some(path)) = db_path() {
            let db = load_db(&path);
            if let Some(h) = db.host(cpu_id()) {
                crate::dispatch::seed_calibration_ratios(h.serial_cal, h.pool_cal);
            }
        }
    });
}

/// Persist the dispatcher's current calibration ratios into the DB at
/// `path` (the closing half of [`seed_dispatch_calibration`]).
pub fn persist_calibration(path: &Path) -> std::io::Result<()> {
    let mut db = load_db(path);
    let (serial_cal, pool_cal) = crate::dispatch::calibration_ratios();
    db.upsert_host(HostCalibration {
        cpu: cpu_id().to_owned(),
        serial_cal,
        pool_cal,
    });
    store_db(path, &db)
}

// ---------------------------------------------------------------------
// The measured sweep.
// ---------------------------------------------------------------------

/// Nominal clock used to express model cycle bounds as GFLOPS in the
/// achieved-vs-bound score (same constant the dispatcher uses; the
/// score only ranks candidates against each other, so the absolute
/// clock cancels out of the comparison).
const SCORE_GHZ: f64 = 2.4;

struct SweepBest<K> {
    kernel: K,
    blocks: BlockSizes,
    runtime: Parallelism,
    gflops: f64,
    achieved_vs_bound: f64,
    untuned_gflops: f64,
    candidates: usize,
}

/// Measure one configuration: one warm-up call (doubling as the
/// early-skip probe), then `reps` timed calls through the telemetry
/// interval. Returns `(gflops, achieved_vs_bound, seconds_per_call)`.
#[allow(clippy::too_many_arguments)]
fn measure_config<K: KernelFamily>(
    kernel: K,
    blocks: &BlockSizes,
    runtime: Parallelism,
    a: &crate::matrix::Matrix<K::Elem>,
    b: &crate::matrix::Matrix<K::Elem>,
    c: &mut crate::matrix::Matrix<K::Elem>,
    dims: (usize, usize, usize),
    reps: usize,
    skip_above_s: Option<f64>,
) -> Option<(f64, f64, f64)> {
    let run = |c: &mut crate::matrix::Matrix<K::Elem>| {
        crate::gemm::gemm_with(
            Transpose::No,
            Transpose::No,
            K::Elem::ONE,
            &a.view(),
            &b.view(),
            K::Elem::ZERO,
            &mut c.view_mut(),
            kernel,
            *blocks,
            runtime,
            None,
            false,
            DispatchMode::Fixed,
        )
    };
    // Warm-up (arena/pool spin-up) doubles as the early-skip probe.
    let warm = Instant::now();
    run(c).ok()?;
    let warm_s = warm.elapsed().as_secs_f64();
    if let Some(limit) = skip_above_s {
        if warm_s > limit {
            return None;
        }
    }
    // Scale reps so the timed interval covers at least MIN_SWEEP_SECS;
    // sub-millisecond shapes otherwise time host scheduling noise.
    let reps = reps
        .max((MIN_SWEEP_SECS / warm_s.max(1e-9)).ceil() as usize)
        .min(REPS_CAP);
    crate::telemetry::reset();
    let start = Instant::now();
    for _ in 0..reps {
        run(c).ok()?;
    }
    let elapsed = start.elapsed();
    let snap = crate::telemetry::snapshot();
    let report = GemmReport::from_run(dims, reps as u64, runtime.degree(), elapsed, blocks, &snap);
    let per_call = elapsed.as_secs_f64() / reps.max(1) as f64;
    Some((report.gflops, report.achieved_vs_bound(SCORE_GHZ), per_call))
}

/// The closed loop for one kernel family: assemble the model-seeded
/// candidate set, measure through telemetry, return the winner.
/// `kernels[0]` is the configured kernel (its analytic blocking is the
/// untuned baseline); later entries contribute one analytic candidate
/// each when the budget is rich enough.
fn sweep<K: KernelFamily>(
    kernels: &[K],
    threads: usize,
    dims: (usize, usize, usize),
    opts: &TuneOptions,
) -> Option<SweepBest<K>> {
    let (m, n, k) = dims;
    let machine = &K::machine();
    let main = *kernels.first()?;
    if m == 0 || n == 0 || k == 0 {
        return None;
    }
    let threads = threads.clamp(1, WorkerPool::max_workers());
    let budget = opts.budget.clamp(2, MAX_CANDIDATES);
    let default_rt = Parallelism::from_threads(threads);
    let runtimes: &[Parallelism] = if threads > 1 {
        &[Parallelism::Pool(threads), Parallelism::Serial]
    } else {
        &[Parallelism::Serial]
    };

    // Kernel axis: alternates cost one config each; include them only
    // when the per-runtime budget still leaves room for the blocking
    // neighbors that motivate the sweep.
    let alts: Vec<K> = if budget / runtimes.len() >= 8 {
        kernels[1..].to_vec()
    } else {
        Vec::new()
    };
    let max_blockings = (budget.saturating_sub(alts.len()) / runtimes.len()).max(1);

    // Blocking axis: model-seeded neighbors, clamped to the probe shape
    // (so equivalent-after-clamping candidates collapse), deduplicated,
    // then model-pruned.
    let raw = tuning::candidate_blockings(main.mr(), main.nr(), threads, machine, max_blockings);
    let mut blockings: Vec<BlockSizes> = Vec::new();
    for b in &raw {
        let cb = tuning::clamp_to_shape(b, m, n, k);
        if !blockings
            .iter()
            .any(|o| (o.kc, o.mc, o.nc) == (cb.kc, cb.mc, cb.nc))
        {
            blockings.push(cb);
        }
    }
    let blockings = tuning::prune_by_model(blockings, m, n, k, PRUNE_KEEP);

    // Assemble configs, the untuned default (main kernel, analytic
    // blocking, configured runtime) strictly first.
    let mut configs: Vec<(K, BlockSizes, Parallelism)> = Vec::new();
    configs.push((main, *blockings.first()?, default_rt));
    for rt in runtimes {
        for (i, b) in blockings.iter().enumerate() {
            if i == 0 && *rt == default_rt {
                continue;
            }
            configs.push((main, *b, *rt));
        }
    }
    for alt in alts {
        if let Ok(seed) = solve_blocking(alt.mr(), alt.nr(), threads, machine) {
            configs.push((alt, tuning::clamp_to_shape(&seed, m, n, k), default_rt));
        }
    }
    configs.truncate(budget);

    let a = crate::matrix::Matrix::<K::Elem>::random(m, k, 0xA5);
    let b = crate::matrix::Matrix::<K::Elem>::random(k, n, 0xB6);
    let mut c = crate::matrix::Matrix::<K::Elem>::zeros(m, n);

    let candidates = configs.len();
    let mut best: Option<SweepBest<K>> = None;
    let mut baseline: Option<SweepBest<K>> = None;
    let mut untuned_gflops = 0.0;
    let mut best_call_s = f64::INFINITY;
    for (idx, (kernel, blocks, runtime)) in configs.into_iter().enumerate() {
        // The baseline is always fully measured — speedups are reported
        // against it — later candidates may be abandoned early.
        let skip = (idx > 0 && best_call_s.is_finite()).then_some(best_call_s * EARLY_SKIP);
        let Some((gflops, avb, per_call)) = measure_config(
            kernel, &blocks, runtime, &a, &b, &mut c, dims, opts.reps, skip,
        ) else {
            continue;
        };
        let measured = SweepBest {
            kernel,
            blocks,
            runtime,
            gflops,
            achieved_vs_bound: avb,
            untuned_gflops: 0.0,
            candidates,
        };
        if idx == 0 {
            untuned_gflops = gflops;
            baseline = Some(SweepBest { ..measured });
        }
        best_call_s = best_call_s.min(per_call);
        if best.as_ref().is_none_or(|b| gflops > b.gflops) {
            best = Some(measured);
        }
    }
    // Hysteresis: a candidate that doesn't clearly beat the analytic
    // baseline is measurement noise — persist the baseline instead, so
    // `tuned` can never regress below the model's choice.
    let mut best = best?;
    if let Some(base) = baseline {
        if best.gflops < untuned_gflops * WIN_MARGIN {
            best = base;
        }
    }
    best.untuned_gflops = untuned_gflops;
    Some(best)
}

fn entry_from_best<K: KernelFamily>(best: &SweepBest<K>, class: &ShapeClass) -> TuneEntry {
    let (runtime, threads) = match best.runtime {
        Parallelism::Pool(p) if p > 1 => ("pool", p),
        _ => ("serial", 1),
    };
    TuneEntry {
        cpu: cpu_id().to_owned(),
        dtype: K::DTYPE.to_owned(),
        class: class.label(),
        mr: best.kernel.mr(),
        nr: best.kernel.nr(),
        kc: best.blocks.kc,
        mc: best.blocks.mc,
        nc: best.blocks.nc,
        runtime: runtime.to_owned(),
        threads,
        gflops: best.gflops,
        untuned_gflops: best.untuned_gflops,
        achieved_vs_bound: best.achieved_vs_bound,
        candidates: best.candidates,
        tuned_at: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        version: LIB_VERSION.to_owned(),
    }
}

/// Run one tuning sweep for `kernel`'s family at `class`'s
/// representative shape and return the winner (not yet persisted).
/// `kernel` is the configured kernel whose analytic blocking anchors the
/// candidate set and the untuned baseline. `None` when nothing could be
/// measured.
#[must_use]
pub fn tune<K: KernelFamily>(
    kernel: K,
    threads: usize,
    class: ShapeClass,
    opts: &TuneOptions,
) -> Option<TuneEntry> {
    let mut kernels = vec![kernel];
    kernels.extend(K::ALL.iter().copied().filter(|k| *k != kernel));
    let best = sweep(&kernels, threads, class.representative(), opts)?;
    Some(entry_from_best(&best, &class))
}

/// Tune and persist: run the sweep, upsert the winner and this host's
/// dispatcher calibration into the DB at `path`, write it back. Returns
/// the stored entry; `None` when the sweep measured nothing (the DB is
/// then left untouched).
#[must_use]
pub fn tune_and_store<K: KernelFamily>(
    path: &Path,
    kernel: K,
    threads: usize,
    class: ShapeClass,
    opts: &TuneOptions,
) -> Option<TuneEntry> {
    let entry = tune(kernel, threads, class, opts)?;
    store_entry(path, entry.clone());
    Some(entry)
}

fn store_entry(path: &Path, entry: TuneEntry) {
    let mut db = load_db(path);
    db.upsert(entry);
    let (serial_cal, pool_cal) = crate::dispatch::calibration_ratios();
    db.upsert_host(HostCalibration {
        cpu: cpu_id().to_owned(),
        serial_cal,
        pool_cal,
    });
    // Tuning must never fail the surrounding GEMM; an unwritable DB
    // just means the winner lives only in the in-memory cache (which
    // store_db updated before attempting the disk write).
    let _ = store_db(path, &db);
}

// ---------------------------------------------------------------------
// Consultation from the gemm()/sgemm() paths.
// ---------------------------------------------------------------------

/// Shape classes this process has already attempted to tune (Full mode
/// tunes each class at most once per process, hit or miss).
fn attempted() -> &'static Mutex<HashSet<(&'static str, String)>> {
    static SET: OnceLock<Mutex<HashSet<(&'static str, String)>>> = OnceLock::new();
    SET.get_or_init(|| Mutex::new(HashSet::new()))
}

fn first_attempt(dtype: &'static str, class: &ShapeClass) -> bool {
    attempted()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .insert((dtype, class.label()))
}

/// Join handles of warm-up tuning sweeps spawned by Full-mode first
/// misses (one per `(dtype, class)` per process, gated by
/// [`first_attempt`]).
fn background_tunes() -> &'static Mutex<Vec<std::thread::JoinHandle<()>>> {
    static TUNES: OnceLock<Mutex<Vec<std::thread::JoinHandle<()>>>> = OnceLock::new();
    TUNES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Block until every background tuning sweep spawned so far has
/// persisted its winner (or given up). Test and shutdown scaffolding;
/// production callers never need it — they keep serving the analytic
/// config until the DB entry lands.
pub fn wait_for_background_tuning() {
    let handles: Vec<_> = std::mem::take(
        &mut *background_tunes()
            .lock()
            .unwrap_or_else(PoisonError::into_inner),
    );
    for h in handles {
        let _ = h.join();
    }
}

/// Launch one tuning sweep on a warm-up thread so the triggering
/// `gemm()` call is never blocked behind a multi-second sweep. The
/// sweep persists through the same [`tune_and_store`] path the
/// synchronous `dgemm-autotune` tool uses, so the per-path DB cache is
/// refreshed and the *next* call of the class picks the winner up.
/// Options are captured in the caller (environment reads stay on the
/// submitting thread); if the thread cannot be spawned the sweep runs
/// synchronously — slower, never lost.
fn spawn_background_tune(
    path: PathBuf,
    opts: TuneOptions,
    tune: impl Fn(&Path, &TuneOptions) + Clone + Send + 'static,
) {
    let spawned = std::thread::Builder::new()
        .name("dgemm-tune-warmup".into())
        .spawn({
            let path = path.clone();
            let tune = tune.clone();
            move || tune(&path, &opts)
        });
    match spawned {
        Ok(h) => background_tunes()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(h),
        Err(_) => tune(&path, &opts),
    }
}

fn runtime_from_entry(entry: &TuneEntry) -> Parallelism {
    if entry.runtime == "pool" && entry.threads > 1 {
        Parallelism::Pool(entry.threads.min(WorkerPool::max_workers()))
    } else {
        Parallelism::Serial
    }
}

/// Resolve the tuned configuration for one GEMM call of `cfg`'s kernel
/// family — exactly what [`crate::gemm::try_gemm`] will run for an
/// `m×n×k` problem: the stored winner if the DB has one, else (Full mode,
/// first miss of the class) the analytic config now and a sweep on a
/// warm-up thread. Every failure path returns the config unchanged. The
/// stored runtime only overrides [`DispatchMode::Fixed`] configs — an
/// explicit dispatch mode keeps runtime authority with the dispatcher.
#[must_use]
pub fn tuned<K: KernelFamily>(cfg: &Config<K>, m: usize, n: usize, k: usize) -> Config<K> {
    if cfg.autotune == AutotuneMode::Off || m == 0 || n == 0 || k == 0 {
        return *cfg;
    }
    let Ok(Some(path)) = db_path() else {
        return *cfg;
    };
    let class = ShapeClass::of(m, n, k);
    let mut entry = load_db(&path)
        .find(cpu_id(), K::DTYPE, &class.label())
        .cloned();
    // Age expiry (DGEMM_TUNE_MAX_AGE_DAYS): under Full an over-age
    // entry is a miss — drop it so the background re-tune below fires
    // and the analytic config serves meanwhile. Under Read the stale
    // winner still applies (Read never measures, and a dated winner
    // beats the untuned default).
    let max_age = max_age_from_env().unwrap_or(None);
    if cfg.autotune == AutotuneMode::Full
        && entry.as_ref().is_some_and(|e| entry_expired(e, max_age))
    {
        entry = None;
    }
    if entry.is_none() && cfg.autotune == AutotuneMode::Full && first_attempt(K::DTYPE, &class) {
        // First miss of this class under Full mode: tune on a warm-up
        // thread and serve the analytic config *now* — the triggering
        // call must not stall behind a multi-second sweep. Subsequent
        // calls pick the winner up once `tune_and_store` lands it in the
        // DB (and its in-memory cache).
        let opts = TuneOptions::from_env().unwrap_or_default();
        let (kernel, threads) = (cfg.kernel, cfg.threads());
        spawn_background_tune(path, opts, move |p, o| {
            let _ = tune_and_store(p, kernel, threads, class, o);
        });
        return *cfg;
    }
    let Some(entry) = entry else {
        return *cfg;
    };
    let Some(kernel) = K::ALL
        .iter()
        .copied()
        .find(|kk| kk.mr() == entry.mr && kk.nr() == entry.nr)
    else {
        return *cfg;
    };
    let mut out = *cfg;
    out.kernel = kernel;
    out.blocks = entry.blocks();
    if out.dispatch == DispatchMode::Fixed {
        out.parallelism = runtime_from_entry(&entry);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microkernel::MicroKernelKind;

    fn sample_entry() -> TuneEntry {
        TuneEntry {
            cpu: "test-cpu-4c".to_owned(),
            dtype: "f64".to_owned(),
            class: "m512-n512-k512".to_owned(),
            mr: 8,
            nr: 6,
            kc: 256,
            mc: 48,
            nc: 960,
            runtime: "pool".to_owned(),
            threads: 4,
            gflops: 12.5,
            untuned_gflops: 11.0,
            achieved_vs_bound: 0.61,
            candidates: 14,
            tuned_at: 1_700_000_000,
            version: LIB_VERSION.to_owned(),
        }
    }

    #[test]
    fn db_json_round_trips() {
        let mut db = TuneDb::default();
        db.upsert(sample_entry());
        db.upsert_host(HostCalibration {
            cpu: "test-cpu-4c".to_owned(),
            serial_cal: 1.25,
            pool_cal: 0.8,
        });
        let text = db.to_json();
        assert!(text.starts_with("{\"schema\":\"dgemm-tune-v1\""), "{text}");
        let back = TuneDb::from_json(&text).expect("round trip");
        assert_eq!(back, db);
        let e = back.find("test-cpu-4c", "f64", "m512-n512-k512").unwrap();
        assert_eq!(e.blocks().label(), "8x6x256x48x960");
        assert!((e.speedup() - 12.5 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn version_mismatched_entries_are_dropped_like_corrupt_ones() {
        let mut db = TuneDb::default();
        db.upsert(sample_entry());
        let mut stale = sample_entry();
        stale.class = "m64-n64-k64".to_owned();
        stale.version = "0.0.0-previous-build".to_owned();
        db.upsert(stale);
        db.upsert_host(HostCalibration {
            cpu: "test-cpu-4c".to_owned(),
            serial_cal: 1.0,
            pool_cal: 1.0,
        });
        let back = TuneDb::from_json(&db.to_json()).expect("schema still parses");
        // The current-version entry and the host calibration survive;
        // the stale entry vanishes silently (Full mode re-tunes it).
        assert!(back.find("test-cpu-4c", "f64", "m512-n512-k512").is_some());
        assert!(back.find("test-cpu-4c", "f64", "m64-n64-k64").is_none());
        assert_eq!(back.hosts.len(), 1);
    }

    #[test]
    fn malformed_entry_is_skipped_without_discarding_the_rest() {
        let good = {
            let mut db = TuneDb::default();
            db.upsert(sample_entry());
            db.to_json()
        };
        // Splice in an entry missing most fields.
        let text = good.replace(
            "\"entries\":[",
            "\"entries\":[{\"cpu\":\"test-cpu-4c\",\"dtype\":\"f64\"},",
        );
        let back = TuneDb::from_json(&text).expect("file still parses");
        assert_eq!(back.entries.len(), 1);
        assert!(back.find("test-cpu-4c", "f64", "m512-n512-k512").is_some());
    }

    #[test]
    fn upsert_replaces_same_key() {
        let mut db = TuneDb::default();
        db.upsert(sample_entry());
        let mut improved = sample_entry();
        improved.kc = 512;
        improved.gflops = 13.0;
        db.upsert(improved);
        assert_eq!(db.entries.len(), 1);
        assert_eq!(db.entries[0].kc, 512);
        // a different class is a new row
        let mut other = sample_entry();
        other.class = "m32-n512-k512".to_owned();
        db.upsert(other);
        assert_eq!(db.entries.len(), 2);
    }

    #[test]
    fn stale_schema_and_corrupt_json_fall_back() {
        assert!(TuneDb::from_json("").is_none());
        assert!(TuneDb::from_json("{not json").is_none());
        assert!(
            TuneDb::from_json("{\"schema\":\"dgemm-tune-v0\",\"hosts\":[],\"entries\":[]}")
                .is_none()
        );
        // missing required field in an entry: the entry is dropped,
        // the (otherwise valid) file is not
        let partial = TuneDb::from_json(
            "{\"schema\":\"dgemm-tune-v1\",\"hosts\":[],\"entries\":[{\"cpu\":\"x\"}]}",
        )
        .expect("valid file with one bad entry");
        assert!(partial.entries.is_empty());
        // trailing garbage after the document
        assert!(
            TuneDb::from_json("{\"schema\":\"dgemm-tune-v1\",\"hosts\":[],\"entries\":[]} x")
                .is_none()
        );
        // negative / fractional counts don't type-check into usize
        assert!(Json::parse("-3").unwrap().as_usize().is_none());
        assert!(Json::parse("2.5").unwrap().as_usize().is_none());
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = Json::parse(r#"{"a":[1,2,{"b":"x\ny A"}],"c":true,"d":null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        let b = v.get("a").unwrap().as_arr().unwrap()[2].get("b").unwrap();
        assert_eq!(b.as_str().unwrap(), "x\ny A");
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Null));
        // escape round trip through the serializer
        let db = TuneDb {
            hosts: vec![HostCalibration {
                cpu: "we\"ird\\cpu".to_owned(),
                serial_cal: 1.0,
                pool_cal: 1.0,
            }],
            entries: vec![],
        };
        let back = TuneDb::from_json(&db.to_json()).unwrap();
        assert_eq!(back.hosts[0].cpu, "we\"ird\\cpu");
    }

    #[test]
    fn cpu_id_is_a_stable_slug() {
        let id = cpu_id();
        assert!(!id.is_empty());
        assert!(id.ends_with('c'), "{id}");
        assert!(
            id.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '.'),
            "{id}"
        );
        assert_eq!(id, cpu_id(), "memoized");
    }

    #[test]
    fn mode_and_options_parse_from_env() {
        let _env = crate::dispatch::env_lock();
        std::env::remove_var("DGEMM_AUTOTUNE");
        assert_eq!(AutotuneMode::from_env().unwrap(), AutotuneMode::Off);
        for (v, want) in [
            ("off", AutotuneMode::Off),
            ("", AutotuneMode::Off),
            ("read", AutotuneMode::Read),
            ("full", AutotuneMode::Full),
            (" full ", AutotuneMode::Full),
        ] {
            std::env::set_var("DGEMM_AUTOTUNE", v);
            assert_eq!(AutotuneMode::from_env().unwrap(), want, "value {v:?}");
        }
        for bad in ["on", "1", "tune"] {
            std::env::set_var("DGEMM_AUTOTUNE", bad);
            assert!(AutotuneMode::from_env().is_err(), "accepted {bad:?}");
        }
        std::env::remove_var("DGEMM_AUTOTUNE");

        std::env::remove_var("DGEMM_AUTOTUNE_BUDGET");
        std::env::remove_var("DGEMM_AUTOTUNE_REPS");
        assert_eq!(TuneOptions::from_env().unwrap(), TuneOptions::default());
        std::env::set_var("DGEMM_AUTOTUNE_BUDGET", "100");
        assert_eq!(TuneOptions::from_env().unwrap().budget, MAX_CANDIDATES);
        std::env::set_var("DGEMM_AUTOTUNE_BUDGET", "1");
        assert_eq!(TuneOptions::from_env().unwrap().budget, 2);
        std::env::set_var("DGEMM_AUTOTUNE_REPS", "99");
        assert_eq!(TuneOptions::from_env().unwrap().reps, MAX_REPS);
        for bad in ["0", "-1", "many", ""] {
            std::env::set_var("DGEMM_AUTOTUNE_BUDGET", bad);
            assert!(TuneOptions::from_env().is_err(), "accepted {bad:?}");
        }
        std::env::remove_var("DGEMM_AUTOTUNE_BUDGET");
        for bad in ["0", "x", ""] {
            std::env::set_var("DGEMM_AUTOTUNE_REPS", bad);
            assert!(TuneOptions::from_env().is_err(), "accepted {bad:?}");
        }
        std::env::remove_var("DGEMM_AUTOTUNE_REPS");

        // DGEMM_TUNE_DB: explicit path, empty (error), absent (default)
        std::env::set_var("DGEMM_TUNE_DB", "/tmp/somewhere/tune.json");
        assert_eq!(
            db_path().unwrap(),
            Some(PathBuf::from("/tmp/somewhere/tune.json"))
        );
        std::env::set_var("DGEMM_TUNE_DB", "  ");
        assert!(db_path().is_err());
        std::env::remove_var("DGEMM_TUNE_DB");
        let default = db_path().unwrap();
        if let Some(p) = default {
            assert!(p.ends_with("dgemm/tune.json"), "{}", p.display());
        }

        // DGEMM_TUNE_MAX_AGE_DAYS: a day count, or a typed error from
        // `auto()` of either kernel family as soon as a mode consults the
        // DB; with the tuner off it is never read.
        let bad_age = GemmError::BadConfig("DGEMM_TUNE_MAX_AGE_DAYS must be an integer day count");
        std::env::set_var("DGEMM_TUNE_MAX_AGE_DAYS", "30");
        assert_eq!(max_age_from_env().unwrap(), Some(30));
        std::env::set_var("DGEMM_TUNE_MAX_AGE_DAYS", "a fortnight");
        assert_eq!(max_age_from_env().unwrap_err(), bad_age);
        assert!(crate::gemm::GemmConfig::auto().is_ok());
        assert!(crate::sgemm::SgemmConfig::auto().is_ok());
        for mode in ["read", "full"] {
            std::env::set_var("DGEMM_AUTOTUNE", mode);
            assert_eq!(
                crate::gemm::GemmConfig::auto().unwrap_err(),
                bad_age,
                "f64 {mode}"
            );
            assert_eq!(
                crate::sgemm::SgemmConfig::auto().unwrap_err(),
                bad_age,
                "f32 {mode}"
            );
        }
        std::env::remove_var("DGEMM_AUTOTUNE");
        std::env::remove_var("DGEMM_TUNE_MAX_AGE_DAYS");
    }

    #[test]
    fn entry_runtime_resolution() {
        let mut e = sample_entry();
        assert_eq!(runtime_from_entry(&e), Parallelism::Pool(4));
        e.runtime = "serial".to_owned();
        assert_eq!(runtime_from_entry(&e), Parallelism::Serial);
        e.runtime = "pool".to_owned();
        e.threads = 1; // inconsistent row: degrade to serial
        assert_eq!(runtime_from_entry(&e), Parallelism::Serial);
    }

    /// A tiny but real closed loop: sweep a small class with a 4-config
    /// budget, persist, re-load, and check the winner is well-formed
    /// and the baseline was measured.
    #[test]
    fn tune_and_store_small_class() {
        let dir = std::env::temp_dir().join(format!("dgemm-tune-test-{}", std::process::id()));
        let path = dir.join("tune.json");
        let _ = std::fs::remove_file(&path);
        let class = ShapeClass::of(48, 48, 48);
        let opts = TuneOptions { budget: 4, reps: 1 };
        let entry = tune_and_store(&path, MicroKernelKind::Mk8x6, 2, class, &opts)
            .expect("sweep measured something");
        assert_eq!(entry.dtype, "f64");
        assert_eq!(entry.class, class.label());
        assert!(entry.candidates <= 4);
        assert!(entry.gflops > 0.0);
        assert!(entry.untuned_gflops > 0.0, "baseline must be measured");
        assert!(
            entry.gflops + 1e-12 >= entry.untuned_gflops,
            "winner beats or ties baseline"
        );
        // persisted and re-readable, bypassing the in-memory cache
        invalidate_db_cache();
        let db = load_db(&path);
        let found = db.find(cpu_id(), "f64", &class.label()).expect("persisted");
        assert_eq!(found, &entry);
        assert!(db.host(cpu_id()).is_some(), "calibration stored too");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn load_db_tolerates_missing_and_corrupt_files() {
        let dir = std::env::temp_dir().join(format!("dgemm-tune-corrupt-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let missing = dir.join("nope.json");
        assert_eq!(load_db(&missing), TuneDb::default());
        let corrupt = dir.join("corrupt.json");
        std::fs::write(&corrupt, "{]{]").unwrap();
        invalidate_db_cache();
        assert_eq!(load_db(&corrupt), TuneDb::default());
        let stale = dir.join("stale.json");
        std::fs::write(
            &stale,
            "{\"schema\":\"dgemm-tune-v0\",\"hosts\":[],\"entries\":[]}",
        )
        .unwrap();
        invalidate_db_cache();
        assert_eq!(load_db(&stale), TuneDb::default());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
