//! `cqchase contain` prints a witness homomorphism as a certificate:
//! one `name -> image` line per variable and one `atom i -> [id] C`
//! line per atom of `Q′`. The certificate checks only if every printed
//! conjunct `C` is the image of atom `i` under the printed variable
//! map, so the chase the CLI renders must be the one the answer was
//! read from.

use std::collections::HashMap;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use cqchase::ir::{parse_program, Term};

/// Runs `cqchase contain` on `src` and checks every printed atom image
/// against h(atom). Returns the atom lines.
fn check_certificate(src: &str, q: &str, qp: &str) -> Vec<String> {
    static FILES: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "cqchase-cli-witness-{}-{}.cq",
        std::process::id(),
        FILES.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, src).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_cqchase"))
        .args(["contain", path.to_str().unwrap(), q, qp])
        .output()
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with(&format!("Σ ⊨ {q} ⊆ {qp}: true")), "{text}");

    let p = parse_program(src).unwrap();
    let query = p.query(qp).unwrap();
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    let vars: HashMap<&str, &str> = lines
        .iter()
        .filter(|l| !l.starts_with("atom "))
        .filter_map(|l| l.split_once(" -> "))
        .collect();
    let mut atoms = Vec::new();
    for line in lines.iter().filter(|l| l.starts_with("atom ")) {
        let (lhs, rhs) = line.split_once(" -> ").unwrap();
        let i: usize = lhs["atom ".len()..].parse().unwrap();
        // `[id] R(t, …) (level L)`: keep the conjunct.
        let conjunct = rhs.split_once("] ").unwrap().1;
        let conjunct = conjunct.rsplit_once(" (level ").unwrap().0;
        let atom = &query.atoms[i];
        let terms: Vec<String> = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(c) => c.to_string(),
                Term::Var(v) => vars[query.vars.name(*v)].to_string(),
            })
            .collect();
        let image = format!("{}({})", p.catalog.name(atom.relation), terms.join(", "));
        assert_eq!(conjunct, image, "atom {i} in:\n{text}");
        atoms.push(line.to_string());
    }
    assert_eq!(atoms.len(), query.atoms.len(), "{text}");
    atoms
}

/// An FD merge after the witness's level rewrites the conjunct the
/// witness maps onto: the certificate must show the merged conjunct.
#[test]
fn certificate_renders_the_chase_the_answer_was_read_from() {
    let atoms = check_certificate(
        "relation R(a, b).
         relation S(k, v).
         fd S: k -> v.
         ind R[1, 2] <= S[1, 2].
         Q(x) :- R(x, 5), S(x, y).
         Qp(x) :- S(x, 5).",
        "Q",
        "Qp",
    );
    assert_eq!(atoms, ["atom 0 -> [1] S(x, 5) (level 0)"]);
}

#[test]
fn certificates_check_without_fds() {
    check_certificate(
        "relation EMP(eno, sal, dept). relation DEP(dno, loc).
         ind EMP[dept] <= DEP[dno].
         Q1(e) :- EMP(e, s, d), DEP(d, l).
         Q2(e) :- EMP(e, s, d).",
        "Q2",
        "Q1",
    );
    check_certificate(
        "relation R(a, b).
         ind R[2] <= R[1].
         Q(x) :- R(x, y).
         Qp(x) :- R(x, y), R(y, z), R(z, w).",
        "Q",
        "Qp",
    );
}
