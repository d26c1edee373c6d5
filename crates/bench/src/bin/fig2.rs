//! Figure 2 — throughput and fairness of the dynamic resource control
//! policies ([`Figure::Fig2`]).

use rat_bench::figures::{self, Figure};

fn main() {
    figures::main(&[Figure::Fig2]);
}
