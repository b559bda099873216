//! Recursion audit for wire-sized input: a query at the registration cap
//! (1,000 atoms) must pass through every walk a `register` or `check`
//! reaches — the surface-language parser and printer, the isomorphism
//! key and test, the chase, its renderings and the chase homomorphism
//! search — on a 2 MiB thread, the stack of a service handler. A walk that recurses
//! once per atom overflows here long before it would on the main thread.

use cqchase_core::chase::graph::{render_dot, render_levels};
use cqchase_core::chase::{Chase, ChaseBudget, ChaseMode, ChaseStatus};
use cqchase_core::{is_isomorphic, iso_key, ChaseHomFinder};
use cqchase_ir::parse_program;

/// Atoms in the chain: the service's `MAX_QUERY_ATOMS`.
const ATOMS: usize = 1_000;

/// `Q(x0) :- R(x0, x1), …, R(x999, x1000).` and the same body listed
/// backwards as `P`, under a successor IND that grows the chase by one
/// conjunct per atom per level.
fn program() -> String {
    let atoms: Vec<String> = (0..ATOMS).map(|i| format!("R(x{i}, x{})", i + 1)).collect();
    let reversed: Vec<String> = atoms.iter().rev().cloned().collect();
    format!(
        "relation R(a, b). ind R[2] <= R[1].\nQ(x0) :- {}.\nP(x0) :- {}.\n",
        atoms.join(", "),
        reversed.join(", ")
    )
}

#[test]
fn thousand_atom_chain_fits_a_handler_stack() {
    let src = program();
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let p = parse_program(&src).unwrap();
            let (q, rev) = (p.query("Q").unwrap(), p.query("P").unwrap());
            assert_eq!(q.atoms.len(), ATOMS);
            let shown = cqchase_ir::display::query(rev, &p.catalog).to_string();
            assert_eq!(shown.matches("R(").count(), ATOMS);
            assert_eq!(iso_key(q), iso_key(rev));
            assert!(is_isomorphic(q, rev));

            let mut ch = Chase::new(q, &p.deps, &p.catalog, ChaseMode::Oblivious);
            let status = ch.expand_to_level(3, ChaseBudget::default());
            assert_eq!(status, ChaseStatus::LevelReached);
            let st = ch.state();
            assert_eq!(st.level_histogram(), vec![ATOMS; 4]);
            let levels = render_levels(st);
            assert_eq!(
                levels.lines().filter(|l| l.starts_with("level ")).count(),
                4
            );
            let dot = render_dot(st, "g");
            assert!(
                dot.matches(" -> ").count() >= 3 * ATOMS,
                "one arc per created conjunct"
            );

            let h = ChaseHomFinder::new(rev)
                .find(st, 3)
                .expect("a query maps into its own chase");
            assert_eq!(h.max_level, 0);
        })
        .unwrap()
        .join()
        .expect("no walk overflows a 2 MiB stack");
}
