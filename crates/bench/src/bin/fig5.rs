//! Figure 5 — physical registers per cycle in normal vs. runahead mode
//! ([`Figure::Fig5`]).

use rat_bench::figures::{self, Figure};

fn main() {
    figures::main(&[Figure::Fig5]);
}
