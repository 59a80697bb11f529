//! Closed-loop, model-seeded autotuning with a persistent per-host
//! tuning DB (DESIGN.md §14).
//!
//! The paper derives its blocking analytically for one machine (the
//! X-Gene). On any other host, [`crate::gemm::Config::for_kernel`]
//! still solves `kc` and `nc` against the *paper's* cache geometry (only
//! `mc` reads the host's L2) — the model is a diagnostic, not a feedback
//! loop. This module closes the loop, following the "model prunes the
//! empirical search" programme of Veras et al. and Martínez et al.
//! (PAPERS.md):
//!
//! 1. **Candidates** are the configured analytic blocking (the
//!    baseline) and, from `perfmodel::tuning`, the paper machine's seed,
//!    the Goto heuristic, and Table VI-axis neighbors — never a grid —
//!    then model-pruned by the eq. (4) bound. The sweep never measures
//!    more than [`MAX_CANDIDATES`] `(kernel, blocking)` configurations.
//! 2. **Measurement** is a wall clock around batches of calls: each
//!    candidate is timed in alternating pairs against the analytic
//!    baseline, under the runtime the caller configured, and replaces
//!    the baseline only if it is faster in every pair.
//! 3. **Persistence**: winners land in a versioned JSON DB (schema
//!    [`SCHEMA`]) at `DGEMM_TUNE_DB` or `~/.cache/dgemm/tune.json`,
//!    keyed by `(cpu-id, dtype, shape-class)`.
//! 4. **Consultation**: [`crate::gemm::Config::auto`] (either kernel
//!    family) reads `DGEMM_AUTOTUNE`:
//!    `off` (default) changes nothing, `read` applies stored winners,
//!    `full` additionally tunes on the first miss of each shape class.
//!
//! The tuner decides kernel and blocking only; the runtime is the
//! dispatcher's (DESIGN.md §13). Tuning failures never fail a GEMM: a
//! missing, corrupt or stale-schema DB silently degrades to the
//! analytic defaults.

#![forbid(unsafe_code)]

use crate::dispatch::DispatchMode;
use crate::env;
use crate::gemm::{Config, KernelFamily};
use crate::pool::{Parallelism, WorkerPool};
use crate::scalar::Scalar;
use crate::util::json_escape;
use crate::{GemmError, Transpose};
use perfmodel::cacheblock::BlockSizes;
use perfmodel::tuning::{self, ShapeClass};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// DB schema tag; a file carrying any other tag is treated as absent.
/// (v2 winners were timed against an `mc` of 56, the paper machine's,
/// and would put it back under `Read`; v3's against this host's.)
pub const SCHEMA: &str = "dgemm-tune-v3";

/// The library version stamped into every [`TuneEntry`] this build
/// writes. Entries carrying a *different* version are stale — blocking
/// winners do not transfer across kernel/runtime changes — and the
/// parser drops them exactly like corrupt ones: silent fallback to the
/// analytic model, re-tuned on the next `DGEMM_AUTOTUNE=full` miss.
pub const LIB_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Hard cap on measured `(kernel, blocking)` configurations per sweep —
/// the "model-pruned, not brute force" contract.
pub const MAX_CANDIDATES: usize = 32;

/// Model-pruning slack: candidates whose eq. (4) bound exceeds the best
/// candidate's by this factor are dropped before measuring (the model
/// is a bound, not a stopwatch, so a generous factor keeps genuinely
/// competitive candidates in).
const PRUNE_KEEP: f64 = 1.6;

/// Default / clamp values for the sweep knobs. Pairs default to the
/// maximum: a candidate no faster than the baseline still wins a pair
/// half the time, so it passes `r` pairs with odds `2^-r` — 1 in 8 at
/// three pairs, which over a dozen candidates stores a noise winner in
/// most sweeps, and 1 in 512 at nine. A candidate stops at its first
/// lost pair, so the extra pairs cost only the ones that keep winning.
const DEFAULT_BUDGET: usize = 16;
const DEFAULT_REPS: usize = 9;
const MAX_REPS: usize = 9;

/// Minimum wall time of one timed sample. Small representative shapes
/// run in a fraction of a millisecond, where a single call times mostly
/// host scheduling noise, so a sample is a batch of calls (at most
/// [`CALLS_CAP`]) sized from the warm-up to last at least this long.
const MIN_SWEEP_SECS: f64 = 0.02;

/// Upper bound on the calls in one timed sample.
const CALLS_CAP: usize = 200;

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

/// Sweep knobs, from `DGEMM_AUTOTUNE_BUDGET` (max configurations per
/// sweep, clamped to `2..=32`, default 16) and `DGEMM_AUTOTUNE_REPS`
/// (timed pairs per candidate, clamped to `1..=9`, default 9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneOptions {
    /// Max `(kernel, blocking)` configurations measured, the baseline
    /// included.
    pub budget: usize,
    /// Timed pairs per candidate against the baseline.
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
        let positive = |v: &str| v.parse::<usize>().ok().filter(|&n| n > 0);
        Ok(TuneOptions {
            budget: env::AUTOTUNE_BUDGET
                .parse(positive)?
                .map_or(DEFAULT_BUDGET, |n| n.clamp(2, MAX_CANDIDATES)),
            reps: env::AUTOTUNE_REPS
                .parse(positive)?
                .map_or(DEFAULT_REPS, |n| n.min(MAX_REPS)),
        })
    }
}

/// Where the tuning DB lives: `DGEMM_TUNE_DB` when set (must be a
/// non-empty unicode path — typed error otherwise), else
/// `$XDG_CACHE_HOME/dgemm/tune.json`, else `$HOME/.cache/dgemm/tune.json`,
/// else `None` (no home: tuning is memory-only for the process).
pub fn db_path() -> Result<Option<PathBuf>, GemmError> {
    let db = env::TUNE_DB.parse(|v| (!v.is_empty()).then(|| PathBuf::from(v)))?;
    Ok(db.or_else(|| env::cache_home().map(|b| b.join("dgemm").join("tune.json"))))
}

/// Age bound on tuned entries: `DGEMM_TUNE_MAX_AGE_DAYS` as a day
/// count (`None` when unset — entries never expire by age). `0` expires
/// every dated entry immediately; garbage is a typed error
/// ([`crate::gemm::Config::auto`] validates this eagerly so a bad value
/// fails config construction, not a later consultation).
pub(crate) fn max_age_from_env() -> Result<Option<u64>, GemmError> {
    env::TUNE_MAX_AGE_DAYS.parse(|v| v.parse::<u64>().ok())
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

/// One tuned winner: the `(kernel, blocking)` stored for a
/// `(cpu, dtype, shape-class)` key, with the evidence.
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
    /// Median GFLOPS of the winner over its timed pairs at the class
    /// representative shape.
    pub gflops: f64,
    /// Median GFLOPS of the analytic baseline over the same pairs
    /// (equal to `gflops` when the baseline itself is stored).
    pub untuned_gflops: f64,
    /// Configurations the sweep considered (≤ [`MAX_CANDIDATES`]).
    pub candidates: usize,
    /// Seconds since the Unix epoch when the sweep ran (0 = unknown).
    /// Staleness is decided by `version` (mismatches are dropped at
    /// parse) *and*, when `DGEMM_TUNE_MAX_AGE_DAYS` is set, by age:
    /// under Full mode an over-age entry is treated as a miss and
    /// re-tuned in the background.
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

/// The whole tuning DB (schema [`SCHEMA`]): tuned winners per
/// `(cpu, dtype, shape-class)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TuneDb {
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

    /// Serialize to the versioned JSON the parser round-trips.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut entries = String::new();
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                entries.push(',');
            }
            entries.push_str(&format!(
                "{{\"cpu\":\"{}\",\"dtype\":\"{}\",\"class\":\"{}\",\
                 \"mr\":{},\"nr\":{},\"kc\":{},\"mc\":{},\"nc\":{},\
                 \"gflops\":{},\"untuned_gflops\":{},\
                 \"candidates\":{},\"tuned_at\":{},\"version\":\"{}\"}}",
                json_escape(&e.cpu),
                json_escape(&e.dtype),
                json_escape(&e.class),
                e.mr,
                e.nr,
                e.kc,
                e.mc,
                e.nc,
                json_num(e.gflops),
                json_num(e.untuned_gflops),
                e.candidates,
                e.tuned_at,
                json_escape(&e.version)
            ));
        }
        format!("{{\"schema\":\"{SCHEMA}\",\"entries\":[{entries}]}}")
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
        gflops: e.get("gflops")?.as_f64()?,
        untuned_gflops: e.get("untuned_gflops")?.as_f64()?,
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

// ---------------------------------------------------------------------
// The measured sweep.
// ---------------------------------------------------------------------

struct SweepBest<K> {
    kernel: K,
    blocks: BlockSizes,
    gflops: f64,
    untuned_gflops: f64,
    candidates: usize,
}

/// The middle element of a non-empty sample (the upper one of an even
/// count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The closed loop for one kernel family: assemble the model-seeded
/// candidate set, time each candidate against the baseline in
/// alternating pairs, return the winner. `kernels[0]` is the configured
/// kernel; its analytic blocking is the baseline. Later entries
/// contribute one analytic candidate each when the budget is rich
/// enough. Every configuration runs under the configured runtime
/// ([`Parallelism::from_threads`]) with [`DispatchMode::Fixed`].
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
    let runtime = Parallelism::from_threads(threads);

    // Kernel axis: alternates cost one config each; include them only
    // when the budget still leaves room for the blocking neighbors that
    // motivate the sweep.
    let alts: &[K] = if budget >= 8 { &kernels[1..] } else { &[] };
    let max_blockings = budget.saturating_sub(alts.len()).max(1);

    // Blocking axis: the configured analytic blocking (the baseline), then
    // model-seeded neighbors, clamped to the probe shape (so
    // equivalent-after-clamping candidates collapse), deduplicated, then
    // model-pruned.
    let analytic = |kernel: K| Config::<K>::for_kernel(kernel, threads).blocks;
    let neighbors =
        tuning::candidate_blockings(main.mr(), main.nr(), threads, machine, max_blockings);
    let mut blockings: Vec<BlockSizes> = Vec::new();
    for b in std::iter::once(&analytic(main)).chain(&neighbors) {
        let cb = tuning::clamp_to_shape(b, m, n, k);
        if !blockings
            .iter()
            .any(|o| (o.kc, o.mc, o.nc) == (cb.kc, cb.mc, cb.nc))
        {
            blockings.push(cb);
        }
    }
    let blockings = tuning::prune_by_model(blockings, m, n, k, PRUNE_KEEP);

    // The baseline (main kernel, analytic blocking) strictly first.
    let mut configs: Vec<(K, BlockSizes)> = blockings.iter().map(|b| (main, *b)).collect();
    for &alt in alts {
        configs.push((alt, tuning::clamp_to_shape(&analytic(alt), m, n, k)));
    }
    configs.truncate(budget);
    let candidates = configs.len();
    let (&baseline, rest) = configs.split_first()?;

    let a = crate::matrix::Matrix::<K::Elem>::random(m, k, 0xA5);
    let b = crate::matrix::Matrix::<K::Elem>::random(k, n, 0xB6);
    let mut c = crate::matrix::Matrix::<K::Elem>::zeros(m, n);
    // One sample: seconds per call over `calls` back-to-back calls of
    // one configuration; `None` if a call fails.
    let mut time = |(kernel, blocks): (K, BlockSizes), calls: usize| {
        let start = Instant::now();
        let cfg = Config {
            kernel,
            blocks,
            parallelism: runtime,
            epoch_timeout: None,
            pack_cache: false,
            dispatch: DispatchMode::Fixed,
            autotune: AutotuneMode::Off,
        };
        for _ in 0..calls {
            crate::gemm::try_gemm(
                Transpose::No,
                Transpose::No,
                K::Elem::ONE,
                &a.view(),
                &b.view(),
                K::Elem::ZERO,
                &mut c.view_mut(),
                &cfg,
            )
            .ok()?;
        }
        Some(start.elapsed().as_secs_f64() / calls as f64)
    };
    let gflops = |per_call: f64| 2.0 * (m * n * k) as f64 / per_call.max(1e-12) / 1e9;

    // Warm-up (arena/pool spin-up); its time sizes the batches.
    let base_call = time(baseline, 1)?;
    let mut base_samples = vec![gflops(base_call)];
    let mut best: Option<(f64, SweepBest<K>)> = None;
    'candidates: for &cand in rest {
        let Some(cand_call) = time(cand, 1) else {
            continue;
        };
        let calls = ((MIN_SWEEP_SECS / base_call.min(cand_call).max(1e-9)).ceil() as usize)
            .clamp(1, CALLS_CAP);
        let (mut ratios, mut cand_g, mut base_g) = (Vec::new(), Vec::new(), Vec::new());
        for pair in 0..opts.reps.max(1) {
            // Alternate which side runs first, so a drift in host speed
            // within a pair favours neither side.
            let timed = if pair % 2 == 0 {
                time(cand, calls)
                    .zip(time(baseline, calls))
                    .map(|(tc, tb)| (tb, tc))
            } else {
                time(baseline, calls).zip(time(cand, calls))
            };
            let Some((t_base, t_cand)) = timed else {
                continue 'candidates;
            };
            base_samples.push(gflops(t_base));
            // A lost (or tied) pair ends the candidate: it can no
            // longer be faster in every pair.
            if t_cand >= t_base {
                continue 'candidates;
            }
            ratios.push(t_base / t_cand);
            cand_g.push(gflops(t_cand));
            base_g.push(gflops(t_base));
        }
        let ratio = median(ratios);
        if best.as_ref().is_none_or(|(r, _)| ratio > *r) {
            let winner = SweepBest {
                kernel: cand.0,
                blocks: cand.1,
                gflops: median(cand_g),
                untuned_gflops: median(base_g),
                candidates,
            };
            best = Some((ratio, winner));
        }
    }
    // No candidate won every pair: the model's choice stays.
    Some(best.map_or_else(
        || {
            let g = median(base_samples);
            SweepBest {
                kernel: baseline.0,
                blocks: baseline.1,
                gflops: g,
                untuned_gflops: g,
                candidates,
            }
        },
        |(_, winner)| winner,
    ))
}

/// Run one tuning sweep for `kernel`'s family at `class`'s
/// representative shape and return the winner (not yet persisted).
/// `kernel` is the configured kernel whose analytic blocking anchors the
/// candidate set and the untuned baseline; `threads` is the configured
/// parallel degree every candidate runs at. `None` when nothing could be
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
    Some(TuneEntry {
        cpu: cpu_id().to_owned(),
        dtype: K::DTYPE.to_owned(),
        class: class.label(),
        mr: best.kernel.mr(),
        nr: best.kernel.nr(),
        kc: best.blocks.kc,
        mc: best.blocks.mc,
        nc: best.blocks.nc,
        gflops: best.gflops,
        untuned_gflops: best.untuned_gflops,
        candidates: best.candidates,
        tuned_at: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        version: LIB_VERSION.to_owned(),
    })
}

/// Tune and persist: run the sweep, upsert the winner into the DB at
/// `path`, write it back. Returns the stored entry; `None` when the
/// sweep measured nothing (the DB is then left untouched).
#[must_use]
pub fn tune_and_store<K: KernelFamily>(
    path: &Path,
    kernel: K,
    threads: usize,
    class: ShapeClass,
    opts: &TuneOptions,
) -> Option<TuneEntry> {
    let entry = tune(kernel, threads, class, opts)?;
    let mut db = load_db(path);
    db.upsert(entry.clone());
    // Tuning must never fail the surrounding GEMM; an unwritable DB
    // just means the winner lives only in the in-memory cache (which
    // store_db updated before attempting the disk write).
    let _ = store_db(path, &db);
    Some(entry)
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
/// synchronous `ext_autotune` driver uses, so the per-path DB cache is
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

/// Resolve the tuned configuration for one GEMM call of `cfg`'s kernel
/// family — exactly what [`crate::gemm::try_gemm`] will run for an
/// `m×n×k` problem: the stored winner's kernel and blocking if the DB has
/// one, else (Full mode, first miss of the class) the analytic config now
/// and a sweep on a warm-up thread. Parallelism and dispatch mode always
/// come back as configured, and every failure path returns the config
/// unchanged.
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
            gflops: 12.5,
            untuned_gflops: 11.0,
            candidates: 14,
            tuned_at: 1_700_000_000,
            version: LIB_VERSION.to_owned(),
        }
    }

    #[test]
    fn db_json_round_trips() {
        let mut db = TuneDb::default();
        db.upsert(sample_entry());
        let text = db.to_json();
        assert!(text.starts_with("{\"schema\":\"dgemm-tune-v3\""), "{text}");
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
        let back = TuneDb::from_json(&db.to_json()).expect("schema still parses");
        // The current-version entry survives; the stale entry vanishes
        // silently (Full mode re-tunes it).
        assert!(back.find("test-cpu-4c", "f64", "m512-n512-k512").is_some());
        assert!(back.find("test-cpu-4c", "f64", "m64-n64-k64").is_none());
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
        let partial =
            TuneDb::from_json("{\"schema\":\"dgemm-tune-v3\",\"entries\":[{\"cpu\":\"x\"}]}")
                .expect("valid file with one bad entry");
        assert!(partial.entries.is_empty());
        // trailing garbage after the document
        assert!(TuneDb::from_json("{\"schema\":\"dgemm-tune-v3\",\"entries\":[]} x").is_none());
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
        let mut entry = sample_entry();
        entry.cpu = "we\"ird\\cpu".to_owned();
        let db = TuneDb {
            entries: vec![entry],
        };
        let back = TuneDb::from_json(&db.to_json()).unwrap();
        assert_eq!(back.entries[0].cpu, "we\"ird\\cpu");
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
        crate::env::tests::check(crate::env::tests::AUTOTUNE_ROWS);
        // A rejected age is the row's own error, for either family.
        let _env = env::lock();
        let bad_age = env::TUNE_MAX_AGE_DAYS.err();
        std::env::set_var(env::TUNE_MAX_AGE_DAYS.name, "a fortnight");
        assert_eq!(max_age_from_env().unwrap_err(), bad_age);
        for mode in ["read", "full"] {
            std::env::set_var(env::AUTOTUNE.name, mode);
            let f64_err = crate::gemm::GemmConfig::auto().unwrap_err();
            let f32_err = crate::sgemm::SgemmConfig::auto().unwrap_err();
            assert_eq!(f64_err, bad_age, "f64 {mode}");
            assert_eq!(f32_err, bad_age, "f32 {mode}");
        }
        std::env::remove_var(env::AUTOTUNE.name);
        std::env::remove_var(env::TUNE_MAX_AGE_DAYS.name);
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
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    /// The sweep times with its own clock and leaves the process's
    /// telemetry alone: a record another thread made before a sweep is
    /// still there after it.
    #[cfg(feature = "telemetry")]
    #[test]
    fn tune_leaves_other_threads_records_alone() {
        use crate::telemetry::{self, TraceKind};
        // Held for the whole check, so no sibling test's reset lands in
        // between; a sweep that reset telemetry would block on it.
        let _gate = telemetry::reset_gate();
        let id = crate::trace::next_trace_id();
        telemetry::with_trace(id, || telemetry::event(id, TraceKind::Submitted, 0, 0));
        // The sweep runs on its own thread, so its spans fill that
        // thread's ring and not this one's.
        let (done, finished) = std::sync::mpsc::channel();
        let sweep = std::thread::spawn(move || {
            let opts = TuneOptions { budget: 2, reps: 1 };
            let entry = tune(MicroKernelKind::Mk8x6, 1, ShapeClass::of(48, 48, 48), &opts);
            let _ = done.send(());
            entry
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("the sweep blocked on the telemetry reset gate");
        let entry = sweep.join().expect("sweep thread");
        assert!(entry.is_some(), "sweep measured something");
        assert!(
            telemetry::events_for(id)
                .iter()
                .any(|e| e.kind == TraceKind::Submitted),
            "the sweep cleared another thread's records"
        );
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
