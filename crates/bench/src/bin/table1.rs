//! Table 1 — the simulated SMT processor baseline configuration: the
//! `rat_smt::config` constants (the memory hierarchy among them), the
//! perceptron geometry, and the swept register-file size at its baseline
//! value.

use rat_bench::{HarnessArgs, TableWriter};
use rat_core::bpred::PerceptronPredictor;
use rat_smt::config::{
    FETCH_THREADS, FRONTEND_DEPTH, FU_COUNT, HIERARCHY, IQ_SIZE, ROB_SIZE, WIDTH,
};
use rat_smt::SmtConfig;

fn main() {
    let args = HarnessArgs::from_env();
    let c = SmtConfig::hpca2008_baseline();
    let h = &HIERARCHY;
    let mut t = TableWriter::new(&["parameter", "value"]);
    let mut row = |k: &str, v: String| t.row(vec![k.to_string(), v]);
    row(
        "Processor depth",
        format!("{FRONTEND_DEPTH} front-end stages (+fetch, OoO back end)"),
    );
    row("Processor width", format!("{WIDTH} way"));
    row("Fetch threads/cycle", format!("{FETCH_THREADS}"));
    row("Reorder buffer size", format!("{ROB_SIZE} shared entries"));
    row("INT/FP registers", format!("{} / {}", c.regs, c.regs));
    row(
        "INT/FP/LS issue queues",
        format!("{} / {} / {}", IQ_SIZE[0], IQ_SIZE[1], IQ_SIZE[2]),
    );
    row(
        "INT/FP/LdSt units",
        format!("{} / {} / {}", FU_COUNT[0], FU_COUNT[1], FU_COUNT[2]),
    );
    row(
        "Branch predictor",
        format!(
            "Perceptron ({} entries, {} bits history)",
            PerceptronPredictor::TABLE_SIZE,
            PerceptronPredictor::HISTORY_LEN
        ),
    );
    row(
        "Icache",
        format!(
            "{} KB, {}-way, {} cyc pipelined",
            h.icache.size_bytes / 1024,
            h.icache.ways,
            h.icache.latency
        ),
    );
    row(
        "Dcache",
        format!(
            "{} KB, {}-way, {} cyc latency",
            h.dcache.size_bytes / 1024,
            h.dcache.ways,
            h.dcache.latency
        ),
    );
    row(
        "L2 cache",
        format!(
            "{} MB, {}-way, {} cyc latency",
            h.l2.size_bytes / (1024 * 1024),
            h.l2.ways,
            h.l2.latency
        ),
    );
    row("Caches line size", format!("{} bytes", h.dcache.line_bytes));
    row(
        "Main memory latency",
        format!("{} cycles", h.memory_latency),
    );
    row("L2 lookup ports", format!("{} / cycle", h.l2_ports));
    row(
        "Memory bus bandwidth",
        format!("1 line / {} cycle(s), FIFO", h.bus_cycles_per_line),
    );
    t.emit("Table 1. SMT processor baseline configuration", args.csv);
}
