//! Figure 3 — Energy-Delay² of every evaluated technique, normalized to
//! ICOUNT ([`Figure::Fig3`]).

use rat_bench::figures::{self, Figure};

fn main() {
    figures::main(&[Figure::Fig3]);
}
