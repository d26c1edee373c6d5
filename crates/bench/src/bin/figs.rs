//! Figures 1–6 from one sweep over the distinct cells they read: stdout
//! is `fig1` … `fig6`'s stdout, concatenated ([`rat_bench::figures`]).

use rat_bench::figures::{self, FIGURES};

fn main() {
    figures::main(&FIGURES);
}
