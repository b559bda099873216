//! `cqchase` — command-line front end.
//!
//! ```text
//! cqchase check FILE                    parse + validate + classify Σ
//! cqchase chase FILE Q [--levels N] [--mode r|o] [--dot]
//! cqchase contain FILE Q QP             test Σ ⊨ Q ⊆∞ QP (with witness)
//! cqchase equiv FILE Q QP               test Σ ⊨ Q ≡∞ QP
//! cqchase minimize FILE Q               minimal equivalent subquery
//! cqchase eval FILE Q                   evaluate Q over the file's facts
//! cqchase serve [--addr A] [--threads N] [--lanes N] [--conn-workers N]
//!               [--cache-capacity N] [--plan-cache-capacity N]
//!               [--data-dir DIR] [--wal-rotate-bytes N]
//!               [--slow-query-us N] [--trace]
//!               [--default-deadline-ms N] [--shed-queue-depth N]
//!               [--shed-resident-bytes N] [--write-timeout-ms N]
//!                                       run the containment/eval server
//! cqchase request [--addr A] JSON…|-    send protocol lines, print replies
//! ```
//!
//! `FILE` is a program in the surface language (`relation …`, `fd …`,
//! `ind …`, queries, and optional ground facts). `serve`/`request`
//! speak the newline-delimited JSON protocol documented in the README's
//! "Service" section — including the `update` op for live fact deltas,
//! e.g. `cqchase request
//! '{"op":"update","session":"s","insert":[["R",[1,2]]]}'`.
//!
//! With `--data-dir`, the server is crash-safe: sessions and updates
//! are write-ahead logged (fsync before acknowledgement), snapshots
//! rotate the WAL, and a restart restores the whole registry — see the
//! README "Durability" section.

use std::io::Read as _;
use std::process::ExitCode;

use cqchase::core::chase::{graph, Chase, ChaseBudget, ChaseMode};
use cqchase::core::classify::classify;
use cqchase::core::{contained, equivalent, minimize, render_chase_witness, ContainmentOptions};
use cqchase::ir::{display, parse_program, ConjunctiveQuery, Program};
use cqchase::service::{Client, ServeOptions, Server};
use cqchase::storage::{evaluate, Database, DbIndex};

fn load(path: &str) -> Result<Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_program(&src).map_err(|e| format!("{path}: {e}"))
}

fn query<'p>(p: &'p Program, name: &str) -> Result<&'p ConjunctiveQuery, String> {
    p.query(name).ok_or_else(|| {
        format!(
            "no query named `{name}` (declared: {})",
            p.queries
                .iter()
                .map(|q| q.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        )
    })
}

fn cmd_check(path: &str) -> Result<(), String> {
    let p = load(path)?;
    println!("{}", display::catalog(&p.catalog));
    if !p.deps.is_empty() {
        println!("{}", display::deps(&p.deps, &p.catalog));
    }
    for q in &p.queries {
        println!("{}", display::query(q, &p.catalog));
    }
    println!(
        "\nrelations: {}   dependencies: {} ({} FDs, {} INDs, max width {})   queries: {}   facts: {}",
        p.catalog.len(),
        p.deps.len(),
        p.deps.num_fds(),
        p.deps.num_inds(),
        p.deps.max_ind_width(),
        p.queries.len(),
        p.facts.len(),
    );
    println!("classification: {:?}", classify(&p.deps, &p.catalog));
    Ok(())
}

fn cmd_chase(
    path: &str,
    qname: &str,
    levels: u32,
    mode: ChaseMode,
    dot: bool,
) -> Result<(), String> {
    let p = load(path)?;
    let q = query(&p, qname)?;
    let mut ch = Chase::new(q, &p.deps, &p.catalog, mode);
    let status = ch.expand_to_level(levels, ChaseBudget::default());
    if dot {
        println!("{}", graph::render_dot(ch.state(), qname));
    } else {
        println!("{}", graph::render_levels(ch.state()));
        println!(
            "status: {status:?}   conjuncts: {}   levels: {:?}   complete: {}",
            ch.state().num_alive(),
            ch.state().level_histogram(),
            ch.is_complete(),
        );
    }
    Ok(())
}

fn cmd_contain(path: &str, a: &str, b: &str) -> Result<(), String> {
    let p = load(path)?;
    let q = query(&p, a)?;
    let qp = query(&p, b)?;
    let ans = contained(q, qp, &p.deps, &p.catalog, &ContainmentOptions::default())
        .map_err(|e| e.to_string())?;
    let mode = ans.class.preferred_mode();
    println!(
        "Σ ⊨ {a} ⊆ {b}: {}{}",
        ans.contained,
        if ans.exact {
            ""
        } else {
            "   (semi-decision: inconclusive negative)"
        }
    );
    let mode_name = match mode {
        ChaseMode::Oblivious => "O-chase",
        ChaseMode::Required => "R-chase",
    };
    println!(
        "class: {:?}   mode: {mode_name}   bound: {}   levels explored: {}   chase conjuncts: {}",
        ans.class, ans.bound, ans.levels_explored, ans.chase_conjuncts
    );
    if let Some(h) = &ans.witness {
        // Re-derive the chase for rendering (answers don't retain state).
        let mut ch = Chase::new(q, &p.deps, &p.catalog, mode);
        ch.expand_to_level(h.max_level, ChaseBudget::default());
        println!("{}", render_chase_witness(h, qp, ch.state()));
    }
    Ok(())
}

fn cmd_equiv(path: &str, a: &str, b: &str) -> Result<(), String> {
    let p = load(path)?;
    let eq = equivalent(
        query(&p, a)?,
        query(&p, b)?,
        &p.deps,
        &p.catalog,
        &ContainmentOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    println!("Σ ⊨ {a} ≡ {b}: {} (exact: {})", eq.equivalent(), eq.exact());
    Ok(())
}

fn cmd_minimize(path: &str, qname: &str) -> Result<(), String> {
    let p = load(path)?;
    let q = query(&p, qname)?;
    let m = minimize(q, &p.deps, &p.catalog, &ContainmentOptions::default())
        .map_err(|e| e.to_string())?;
    println!("{}", display::query(q, &p.catalog));
    println!("=> {}", display::query(&m.query, &p.catalog));
    println!("removed conjunct indices: {:?}", m.removed);
    Ok(())
}

fn cmd_eval(path: &str, qname: &str) -> Result<(), String> {
    let p = load(path)?;
    let q = query(&p, qname)?;
    let db = Database::from_facts(&p.catalog, &p.facts).map_err(|e| e.to_string())?;
    let rows = evaluate(q, &DbIndex::build(&db));
    println!("{} rows", rows.len());
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("({})", cells.join(", "));
    }
    Ok(())
}

fn cmd_serve(opts: &[String]) -> Result<(), String> {
    let mut serve = ServeOptions::default();
    let mut it = opts.iter();
    while let Some(o) = it.next() {
        let mut next = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs an argument"))
        };
        match o.as_str() {
            "--addr" => serve.addr = next("--addr")?,
            "--threads" => {
                serve.batch_threads = next("--threads")?
                    .parse()
                    .map_err(|_| "--threads needs a positive integer".to_string())?
            }
            "--lanes" => {
                serve.lanes = next("--lanes")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| "--lanes needs a positive integer".to_string())?
            }
            "--conn-workers" => {
                serve.conn_workers = next("--conn-workers")?
                    .parse()
                    .map_err(|_| "--conn-workers needs a positive integer".to_string())?
            }
            "--cache-capacity" => {
                serve.sem_cache_capacity = next("--cache-capacity")?
                    .parse()
                    .map_err(|_| "--cache-capacity needs an integer".to_string())?
            }
            "--plan-cache-capacity" => {
                serve.plan_cache_capacity = next("--plan-cache-capacity")?
                    .parse()
                    .map_err(|_| "--plan-cache-capacity needs an integer".to_string())?
            }
            "--data-dir" => serve.data_dir = Some(next("--data-dir")?.into()),
            "--wal-rotate-bytes" => {
                serve.wal_rotate_bytes = Some(
                    next("--wal-rotate-bytes")?
                        .parse()
                        .map_err(|_| "--wal-rotate-bytes needs an integer".to_string())?,
                )
            }
            "--slow-query-us" => {
                serve.slow_query_us = Some(
                    next("--slow-query-us")?
                        .parse()
                        .map_err(|_| "--slow-query-us needs an integer".to_string())?,
                )
            }
            "--trace" => serve.trace = true,
            "--default-deadline-ms" => {
                serve.default_deadline_ms = Some(
                    next("--default-deadline-ms")?
                        .parse()
                        .map_err(|_| "--default-deadline-ms needs an integer".to_string())?,
                )
            }
            "--shed-queue-depth" => {
                serve.shed_queue_depth = Some(
                    next("--shed-queue-depth")?
                        .parse()
                        .map_err(|_| "--shed-queue-depth needs an integer".to_string())?,
                )
            }
            "--shed-resident-bytes" => {
                serve.shed_resident_bytes = Some(
                    next("--shed-resident-bytes")?
                        .parse()
                        .map_err(|_| "--shed-resident-bytes needs an integer".to_string())?,
                )
            }
            "--write-timeout-ms" => {
                serve.write_timeout_ms = next("--write-timeout-ms")?
                    .parse()
                    .map_err(|_| "--write-timeout-ms needs an integer".to_string())?
            }
            other => return Err(format!("unknown serve option {other}")),
        }
    }
    let server = Server::bind(serve.clone()).map_err(|e| format!("bind {}: {e}", serve.addr))?;
    println!("cqchase-service listening on {}", server.local_addr());
    println!(
        "  batch threads: {}   lanes: {}   connection workers: {}   semantic cache: {} entries/session",
        serve.batch_threads, serve.lanes, serve.conn_workers, serve.sem_cache_capacity
    );
    if let Some(report) = server.recovery_report() {
        let dir = serve.data_dir.as_deref().unwrap_or_else(|| "?".as_ref());
        if report.fresh {
            println!("  durability: fresh data dir {}", dir.display());
        } else {
            println!(
                "  durability: restored {} session(s) + {} WAL record(s) from {}",
                report.snapshot_sessions,
                report.wal_records_replayed,
                dir.display()
            );
        }
        if let Some(tail) = &report.torn_tail {
            println!("  durability: {tail}");
        }
    }
    server.run().map_err(|e| format!("server error: {e}"))
}

fn cmd_request(opts: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut lines: Vec<String> = Vec::new();
    let mut it = opts.iter();
    while let Some(o) = it.next() {
        match o.as_str() {
            "--addr" => {
                addr = it
                    .next()
                    .cloned()
                    .ok_or_else(|| "--addr needs an argument".to_string())?
            }
            "-" => {
                let mut buf = String::new();
                std::io::stdin()
                    .read_to_string(&mut buf)
                    .map_err(|e| format!("reading stdin: {e}"))?;
                lines.extend(buf.lines().map(str::to_owned));
            }
            json => lines.push(json.to_owned()),
        }
    }
    if lines.is_empty() {
        return Err("no requests given (pass JSON objects or `-` for stdin)".into());
    }
    let mut client =
        Client::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut failed = false;
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let reply = client
            .request_line(line.trim())
            .map_err(|e| format!("request failed: {e}"))?;
        println!("{reply}");
        match serde_json_reply_ok(&reply) {
            Some(true) => {}
            _ => failed = true,
        }
    }
    if failed {
        return Err("one or more requests returned ok:false".into());
    }
    Ok(())
}

/// Whether a response line carries `"ok":true` (None when unparsable).
fn serde_json_reply_ok(line: &str) -> Option<bool> {
    serde_json::from_str(line).ok().map(|v| v["ok"] == true)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  cqchase check FILE\n  cqchase chase FILE Q [--levels N] [--mode r|o] [--dot]\n  cqchase contain FILE Q QP\n  cqchase equiv FILE Q QP\n  cqchase minimize FILE Q\n  cqchase eval FILE Q\n  cqchase serve [--addr HOST:PORT] [--threads N] [--lanes N] [--conn-workers N] [--cache-capacity N] [--plan-cache-capacity N] [--data-dir DIR] [--wal-rotate-bytes N] [--slow-query-us N] [--trace] [--default-deadline-ms N] [--shed-queue-depth N] [--shed-resident-bytes N] [--write-timeout-ms N]\n  cqchase request [--addr HOST:PORT] JSON...|-"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let result = match (cmd.as_str(), rest) {
        ("check", [file]) => cmd_check(file),
        ("chase", [file, q, opts @ ..]) => {
            let mut levels = 5u32;
            let mut mode = ChaseMode::Required;
            let mut dot = false;
            let mut it = opts.iter();
            while let Some(o) = it.next() {
                match o.as_str() {
                    "--levels" => levels = it.next().and_then(|v| v.parse().ok()).unwrap_or(levels),
                    "--mode" => {
                        mode = match it.next().map(String::as_str) {
                            Some("o") | Some("O") => ChaseMode::Oblivious,
                            _ => ChaseMode::Required,
                        }
                    }
                    "--dot" => dot = true,
                    other => {
                        return {
                            eprintln!("unknown option {other}");
                            usage()
                        }
                    }
                }
            }
            cmd_chase(file, q, levels, mode, dot)
        }
        ("contain", [file, a, b]) => cmd_contain(file, a, b),
        ("equiv", [file, a, b]) => cmd_equiv(file, a, b),
        ("minimize", [file, q]) => cmd_minimize(file, q),
        ("eval", [file, q]) => cmd_eval(file, q),
        ("serve", opts) => cmd_serve(opts),
        ("request", opts) => cmd_request(opts),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
