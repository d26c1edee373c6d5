//! Figure 4 — sources of improvement of RaT, from its ablations
//! ([`Figure::Fig4`]).

use rat_bench::figures::{self, Figure};

fn main() {
    figures::main(&[Figure::Fig4]);
}
