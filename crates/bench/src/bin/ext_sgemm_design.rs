//! Extension — applying the paper's analytic method to single precision.
//!
//! The paper's whole point is that the performance-critical parameters
//! fall out of the machine description in closed form. This binary runs
//! the identical machinery with `element = 4` bytes (f32, 4 lanes per
//! 128-bit register) and prints the complete SGEMM design — register
//! block, cache blocking for 1 and 8 threads, prefetch distances — in
//! milliseconds, where ATLAS would re-run an empirical search.

use dgemm_bench::banner;
use perfmodel::cacheblock::solve_blocking;
use perfmodel::prefetch::prefetch_distances;
use perfmodel::ratio::gamma_gebp;
use perfmodel::regblock::{optimize_register_block, vector_registers_needed};
use perfmodel::MachineDesc;

fn design(label: &str, m: &MachineDesc) {
    println!("--- {label} (element = {} bytes) ---", m.element_bytes);
    let reg = optimize_register_block(m);
    println!(
        "register block: {}x{} (nrf {}), gamma = {:.3}, {} of 32 vector registers",
        reg.mr,
        reg.nr,
        reg.nrf,
        reg.gamma,
        vector_registers_needed(reg.mr, reg.nr, reg.nrf, m)
    );
    for threads in [1usize, 8] {
        let b = solve_blocking(reg.mr, reg.nr, threads, m).unwrap();
        let pf = prefetch_distances(&b, 2, 8, m.element_bytes);
        println!(
            "  {threads} thread(s): {}  gamma_GEBP {:.3}  PREFA {} B  PREFB {} B",
            b.label(),
            gamma_gebp(b.mr, b.nr, b.kc, b.mc),
            pf.prefa_bytes,
            pf.prefb_bytes
        );
    }
    println!(
        "  theoretical peak: {:.1} Gflops/core ({} flops per FMA)",
        m.freq_ghz * m.flops_per_cycle,
        2 * (m.vreg_bytes / m.element_bytes)
    );
    println!();
}

fn main() {
    banner(
        "Extension — SGEMM design from the same analytic model",
        "the paper's method re-applied with element = 4 bytes; zero tuning runs",
    );
    let dgemm = MachineDesc::xgene();
    design("DGEMM (the paper)", &dgemm);
    // one 128-bit FMA now does 8 flops: 4 flops/cycle at II=2
    design("SGEMM (derived here)", &dgemm_core::sgemm::machine_f32());

    println!("Observations:");
    println!("- four f32 lanes per register relax eq. (9): the optimal block grows");
    println!("  from 8x6 (gamma 6.857) to 12x8 (gamma 9.6) — more reuse per load,");
    println!("  which the wider SGEMM peak (9.6 Gflops/core) needs;");
    println!("- halving the element size doubles kc (eq. 15 is in bytes), keeping the");
    println!("  B sliver at 3/4 of the L1 exactly as in the paper;");
    println!("- the instruction-ratio bound improves: 12x8 issues 48 FMA slots per 5");
    println!("  loads vs the paper's 24 per 7 — the 2F+L model predicts ~95% of peak.");
}
