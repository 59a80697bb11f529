//! Shared plumbing for the per-table/figure reproduction binaries.
//!
//! Every binary under `src/bin/` regenerates one artifact of the paper's
//! Section V (see DESIGN.md §2 for the index) and prints it as an
//! aligned text table, with the paper's published numbers alongside
//! where the paper states them; the `ext_*` binaries are the extension
//! studies of DESIGN.md §8. The crate has no bench targets: native speed
//! is measured by the ladder under `benchmark/` (`BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use simgemm::experiments::{paper_sizes, quick_sizes};

/// Command-line options shared by the sweep binaries.
#[derive(Clone, Debug)]
pub struct SweepArgs {
    /// Problem sizes to evaluate.
    pub sizes: Vec<usize>,
    /// Optional CSV output path (`--csv file.csv`).
    pub csv: Option<std::path::PathBuf>,
}

impl SweepArgs {
    /// Parse `--quick` (step-512 grid), `--sizes a,b,c`, or default to
    /// the paper's 256..6400 step-128 grid.
    #[must_use]
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut sizes = None;
        let mut csv = None;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => sizes = Some(quick_sizes()),
                "--sizes" => {
                    i += 1;
                    let list = args
                        .get(i)
                        .expect("--sizes needs a comma-separated list")
                        .split(',')
                        .map(|s| s.trim().parse().expect("size must be an integer"))
                        .collect();
                    sizes = Some(list);
                }
                "--csv" => {
                    i += 1;
                    csv = Some(std::path::PathBuf::from(
                        args.get(i).expect("--csv needs a path"),
                    ));
                }
                "--help" | "-h" => {
                    eprintln!(
                        "options: --quick | --sizes a,b,c | --csv out.csv                           (default: paper grid 256..6400 step 128)"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown option {other}; try --help");
                    std::process::exit(2);
                }
            }
            i += 1;
        }
        SweepArgs {
            sizes: sizes.unwrap_or_else(paper_sizes),
            csv,
        }
    }

    /// Write curves as CSV (`n,<label1>,<label2>,...`) if `--csv` was
    /// given; prints the destination on success.
    pub fn maybe_write_csv(
        &self,
        curves: &[simgemm::experiments::Curve],
        value: impl Fn(&simgemm::estimate::SimPoint) -> f64,
    ) {
        let Some(path) = &self.csv else { return };
        let mut out = String::new();
        out.push('n');
        for c in curves {
            out.push(',');
            out.push_str(&c.label.replace(',', ";"));
        }
        out.push('\n');
        for (i, n) in self.sizes.iter().enumerate() {
            out.push_str(&n.to_string());
            for c in curves {
                out.push_str(&format!(",{:.6}", value(&c.points[i])));
            }
            out.push('\n');
        }
        std::fs::write(path, out).expect("writing CSV");
        println!("\n(csv written to {})", path.display());
    }
}

/// Print a header banner naming the artifact being reproduced.
pub fn banner(artifact: &str, summary: &str) {
    println!("================================================================");
    println!("{artifact}");
    println!("{summary}");
    println!("(simulated ARMv8 machine; see EXPERIMENTS.md for paper-vs-measured notes)");
    println!("================================================================");
}

/// Format a fraction as a percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:5.1}%", 100.0 * x)
}

/// Render curves as a size-indexed table (one column per curve).
pub fn print_curves(
    sizes: &[usize],
    curves: &[simgemm::experiments::Curve],
    value: impl Fn(&simgemm::estimate::SimPoint) -> f64,
    unit: &str,
) {
    print!("{:>6}", "n");
    for c in curves {
        print!("  {:>18}", c.label);
    }
    println!("   [{unit}]");
    for (i, n) in sizes.iter().enumerate() {
        print!("{n:>6}");
        for c in curves {
            print!("  {:>18.3}", value(&c.points[i]));
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.8725), " 87.2%");
        assert_eq!(pct(1.0), "100.0%");
    }
}
