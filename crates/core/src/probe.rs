//! What the library reads of the machine it runs on: the per-core L2,
//! from the cache geometry Linux publishes under
//! `/sys/devices/system/cpu/cpu0/cache/index*/`. It is read once per
//! process; off Linux, or where sysfs cannot be read, there is nothing,
//! and blocking keeps the paper machine's figures
//! ([`crate::gemm::Config::for_kernel`]).

#![forbid(unsafe_code)]

use std::path::Path;
use std::sync::OnceLock;

/// A level-2 cache as one core sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct L2 {
    /// Its size in bytes.
    pub(crate) bytes: usize,
    /// How many CPUs share it (`shared_cpu_list`), at least one.
    pub(crate) sharers: usize,
}

/// This host's L2, read once per process. `None` off Linux or when sysfs
/// does not describe a unified level-2 cache.
pub(crate) fn l2() -> Option<L2> {
    static L2: OnceLock<Option<L2>> = OnceLock::new();
    *L2.get_or_init(|| {
        if cfg!(target_os = "linux") {
            read_l2(Path::new("/sys/devices/system/cpu/cpu0/cache"))
        } else {
            None
        }
    })
}

/// The unified level-2 entry among the `index*` directories of `dir`.
fn read_l2(dir: &Path) -> Option<L2> {
    let read = |entry: &Path, name: &str| std::fs::read_to_string(entry.join(name)).ok();
    std::fs::read_dir(dir)
        .ok()?
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with("index"))
        .map(|e| e.path())
        .find(|entry| {
            read(entry, "level").is_some_and(|l| l.trim() == "2")
                && read(entry, "type").is_some_and(|t| t.trim() == "Unified")
        })
        .and_then(|entry| {
            Some(L2 {
                bytes: parse_size(&read(&entry, "size")?)?,
                sharers: count_cpus(&read(&entry, "shared_cpu_list")?)?,
            })
        })
}

/// `2048K`, `2M` or `524288` in bytes; `None` for anything else or zero.
fn parse_size(text: &str) -> Option<usize> {
    let text = text.trim();
    let (digits, unit) = match text.strip_suffix(['K', 'M', 'G']) {
        Some(digits) => (digits, &text[digits.len()..]),
        None => (text, ""),
    };
    let scale = match unit {
        "K" => 1 << 10,
        "M" => 1 << 20,
        "G" => 1 << 30,
        _ => 1,
    };
    digits
        .parse::<usize>()
        .ok()?
        .checked_mul(scale)
        .filter(|&b| b > 0)
}

/// How many CPUs a list like `0`, `0-1` or `0,2-3` names; `None` when it
/// is malformed or names none.
fn count_cpus(list: &str) -> Option<usize> {
    let mut cpus = 0usize;
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi) = (lo.parse::<usize>().ok()?, hi.parse::<usize>().ok()?);
        cpus = cpus.checked_add(hi.checked_sub(lo)? + 1)?;
    }
    (cpus > 0).then_some(cpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory laid out like `cpu0/cache`: an L1d, an L2 with
    /// the given `size` and `shared_cpu_list`, an L3.
    fn sysfs(name: &str, size: &str, shared: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dgemm-probe-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (index, level, kind, size, shared) in [
            ("index0", "1", "Data", "48K", "0"),
            ("index2", "2", "Unified", size, shared),
            ("index3", "3", "Unified", "262144K", "0-1"),
        ] {
            let entry = dir.join(index);
            std::fs::create_dir_all(&entry).expect("scratch sysfs");
            for (file, text) in [
                ("level", level),
                ("type", kind),
                ("size", size),
                ("shared_cpu_list", shared),
            ] {
                std::fs::write(entry.join(file), format!("{text}\n")).expect("scratch sysfs");
            }
        }
        dir
    }

    #[test]
    fn the_l2_entry_is_read_from_a_sysfs_layout() {
        let cases = [
            ("private", "2048K", "0", Some((2 << 20, 1))),
            ("shared", "2048K", "0-1", Some((2 << 20, 2))),
            ("megabytes", "1M", "0,2-3", Some((1 << 20, 3))),
            ("malformed", "2048 KB", "0", None),
            ("empty-list", "2048K", "", None),
        ];
        for (name, size, shared, want) in cases {
            let dir = sysfs(name, size, shared);
            let got = read_l2(&dir).map(|l2| (l2.bytes, l2.sharers));
            assert_eq!(
                got, want,
                "{name}: size {size:?}, shared_cpu_list {shared:?}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert_eq!(read_l2(Path::new("/nonexistent/cpu0/cache")), None);
    }

    #[test]
    fn sizes_and_cpu_lists_parse_strictly() {
        assert_eq!(parse_size("2048K\n"), Some(2 << 20));
        assert_eq!(parse_size("524288"), Some(512 << 10));
        for bad in ["", "K", "0K", "-1K", "2048k", "2.5M"] {
            assert_eq!(parse_size(bad), None, "{bad:?}");
        }
        assert_eq!(count_cpus("0\n"), Some(1));
        assert_eq!(count_cpus("0-1"), Some(2));
        assert_eq!(count_cpus("0-3,8-11"), Some(8));
        for bad in ["", "1-0", "a", "0-", "0,,1"] {
            assert_eq!(count_cpus(bad), None, "{bad:?}");
        }
    }
}
