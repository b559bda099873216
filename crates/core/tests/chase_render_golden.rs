//! Golden renderings of two chases: the paper's Figure 1 R-chase and an
//! FD-merging chase. Symbol names are derived from provenance on demand,
//! so these byte-exact strings pin the naming scheme
//! (`n{ord}_c{parent}i{ind}a{attr}L{level}`) and every renderer that
//! prints it.

use cqchase_core::chase::graph::{render_dot, render_levels};
use cqchase_core::chase::{Chase, ChaseBudget, ChaseMode};
use cqchase_core::{render_chase_witness, ChaseHomFinder};
use cqchase_ir::parse_program;

struct Rendered {
    conjuncts: String,
    witness: String,
    levels: String,
    dot: String,
}

fn render(src: &str, levels: u32, witness_query: &str) -> Rendered {
    let p = parse_program(src).unwrap();
    let mut ch = Chase::new(
        p.query("Q").unwrap(),
        &p.deps,
        &p.catalog,
        ChaseMode::Required,
    );
    ch.expand_to_level(levels, ChaseBudget::default());
    let st = ch.state();
    let conjuncts = (0..st.all_conjuncts().len())
        .map(|i| st.render_conjunct(cqchase_core::chase::ConjId(i as u32)) + "\n")
        .collect();
    let qp = p.query(witness_query).unwrap();
    let h = ChaseHomFinder::new(qp)
        .find(st, levels)
        .expect("witness exists");
    Rendered {
        conjuncts,
        witness: render_chase_witness(&h, qp, st),
        levels: render_levels(st),
        dot: render_dot(st, "g"),
    }
}

/// Figure 1 (R-chase to level 3), with a witness reaching level 2.
#[test]
fn figure1_renderings() {
    let r = render(
        "relation R(a, b, c). relation S(x, y, z). relation T(u, v).
         ind R[1] <= T[1].
         ind R[1, 3] <= S[1, 2].
         ind S[1, 3] <= R[1, 2].
         Q(c) :- R(a, b, c).
         W(c) :- R(a, b, c), S(a, c, z), R(a, z, w), T(a, t).",
        3,
        "W",
    );
    assert_eq!(
        r.conjuncts,
        r#"R(a, b, c)
T(a, n3_c0i0a1L1)
S(a, c, n4_c0i1a2L1)
R(a, n4_c0i1a2L1, n5_c2i2a2L2)
S(a, n5_c2i2a2L2, n6_c3i1a2L3)
"#
    );
    assert_eq!(
        r.witness,
        r#"witness homomorphism (max level 2):
  c -> c
  a -> a
  b -> b
  z -> n4_c0i1a2L1
  w -> n5_c2i2a2L2
  t -> n3_c0i0a1L1
  atom 0 -> [0] R(a, b, c) (level 0)
  atom 1 -> [2] S(a, c, n4_c0i1a2L1) (level 1)
  atom 2 -> [3] R(a, n4_c0i1a2L1, n5_c2i2a2L2) (level 2)
  atom 3 -> [1] T(a, n3_c0i0a1L1) (level 1)
"#
    );
    assert_eq!(
        r.levels,
        r#"level 0:
  [0] R(a, b, c)
level 1:
  [1] T(a, n3_c0i0a1L1)   <- [0] via IND#0
  [2] S(a, c, n4_c0i1a2L1)   <- [0] via IND#1
level 2:
  [3] R(a, n4_c0i1a2L1, n5_c2i2a2L2)   <- [2] via IND#2
level 3:
  [4] S(a, n5_c2i2a2L2, n6_c3i1a2L3)   <- [3] via IND#1
cross arcs:
  [3] -> [1] via IND#0
"#
    );
    assert_eq!(
        r.dot,
        r#"digraph g {
  rankdir=TB; node [shape=box, fontname=monospace];
  { rank=same; c0; }
  c0 [label="R(a, b, c)\nL0"];
  { rank=same; c1; c2; }
  c1 [label="T(a, n3_c0i0a1L1)\nL1"];
  c2 [label="S(a, c, n4_c0i1a2L1)\nL1"];
  { rank=same; c3; }
  c3 [label="R(a, n4_c0i1a2L1, n5_c2i2a2L2)\nL2"];
  { rank=same; c4; }
  c4 [label="S(a, n5_c2i2a2L2, n6_c3i1a2L3)\nL3"];
  c0 -> c1 [style=solid, label="IND#0"];
  c0 -> c2 [style=solid, label="IND#1"];
  c2 -> c3 [style=solid, label="IND#2"];
  c3 -> c1 [style=dashed, label="IND#0"];
  c3 -> c4 [style=solid, label="IND#1"];
}
"#
    );
}

/// An R-chase where the FD rule eliminates a created symbol (`n4` into
/// `n3`), rewrites a DV, and kills two conjuncts whose rows became
/// identical; dead slots keep their rewritten terms.
#[test]
fn fd_merging_renderings() {
    let r = render(
        "relation R(a, b). relation S(a, b, c).
         fd S: a -> c. fd S: a -> b.
         ind R[1, 2] <= S[1, 2]. ind S[3] <= R[1].
         Q(x, z) :- R(x, y), R(x, z).
         W(x, y) :- R(x, y), S(x, y, c), R(c, d), S(c, d, e).",
        4,
        "W",
    );
    assert_eq!(
        r.conjuncts,
        r#"R(x, z)
R(x, z)
S(x, z, n3_c0i0a2L1)
S(x, z, n3_c0i0a2L1)
R(n3_c0i0a2L1, n5_c2i1a1L2)
S(n3_c0i0a2L1, n5_c2i1a1L2, n6_c4i0a2L3)
R(n6_c4i0a2L3, n7_c5i1a1L4)
"#
    );
    assert_eq!(
        r.witness,
        r#"witness homomorphism (max level 3):
  x -> x
  y -> z
  c -> n3_c0i0a2L1
  d -> n5_c2i1a1L2
  e -> n6_c4i0a2L3
  atom 0 -> [0] R(x, z) (level 0)
  atom 1 -> [2] S(x, z, n3_c0i0a2L1) (level 1)
  atom 2 -> [4] R(n3_c0i0a2L1, n5_c2i1a1L2) (level 2)
  atom 3 -> [5] S(n3_c0i0a2L1, n5_c2i1a1L2, n6_c4i0a2L3) (level 3)
"#
    );
    assert_eq!(
        r.levels,
        r#"level 0:
  [0] R(x, z)
level 1:
  [2] S(x, z, n3_c0i0a2L1)   <- [0] via IND#0
level 2:
  [4] R(n3_c0i0a2L1, n5_c2i1a1L2)   <- [2] via IND#1
level 3:
  [5] S(n3_c0i0a2L1, n5_c2i1a1L2, n6_c4i0a2L3)   <- [4] via IND#0
level 4:
  [6] R(n6_c4i0a2L3, n7_c5i1a1L4)   <- [5] via IND#1
"#
    );
    assert_eq!(
        r.dot,
        r#"digraph g {
  rankdir=TB; node [shape=box, fontname=monospace];
  { rank=same; c0; }
  c0 [label="R(x, z)\nL0"];
  { rank=same; c2; }
  c2 [label="S(x, z, n3_c0i0a2L1)\nL1"];
  { rank=same; c4; }
  c4 [label="R(n3_c0i0a2L1, n5_c2i1a1L2)\nL2"];
  { rank=same; c5; }
  c5 [label="S(n3_c0i0a2L1, n5_c2i1a1L2, n6_c4i0a2L3)\nL3"];
  { rank=same; c6; }
  c6 [label="R(n6_c4i0a2L3, n7_c5i1a1L4)\nL4"];
  c0 -> c2 [style=solid, label="IND#0"];
  c0 -> c2 [style=solid, label="IND#0"];
  c2 -> c4 [style=solid, label="IND#1"];
  c4 -> c5 [style=solid, label="IND#0"];
  c5 -> c6 [style=solid, label="IND#1"];
}
"#
    );
}
