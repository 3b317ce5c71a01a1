//! Two-tier equivalence suite for the MiniWeb interpreter.
//!
//! The interpreter has two execution tiers, oracle and production:
//!
//! 1. [`Interpreter::run_session_treewalk`] — the historical AST walker
//!    with `BTreeMap` environments (the semantics oracle);
//! 2. [`Interpreter::run_compiled`] — the bytecode register VM, the tier
//!    every production caller goes through.
//!
//! Every test here asserts the two tiers agree **exactly** — the same
//! `Vec<SinkObservation>` on success (sites, renders, taint verdicts,
//! offending sources, in order), the same [`ExecError`] on failure — on:
//!
//! * generator-built corpora under attack / benign / multi-request
//!   sessions (the shapes production scanners actually run);
//! * property-generated programs covering every [`Expr`] and [`Stmt`]
//!   node kind, every [`BinOp`], every [`SanitizerKind`], every
//!   [`SinkKind`] and every [`SourceKind`], including programs that are
//!   deliberately malformed (undefined variables / functions, wrong
//!   arity) or runaway (fuel-bounded loops and recursion);
//! * dead-guard shapes: the VM resolves calls at compile time, so
//!   `UndefinedFunction` / `ArityMismatch` detection is *deferred* to
//!   execution for call sites that never run — a statically-broken call
//!   behind a never-taken branch must succeed on both tiers, and the same
//!   call made reachable must fail identically on both tiers;
//! * a **fuel sweep**: for every step budget from 1 up to the program's
//!   full cost, the two tiers return identical results — which proves
//!   `tick()` is charged at identical points (any divergence in charge
//!   position flips `StepLimit` vs `Ok` at some budget). Loop-iteration
//!   and call-depth bounds are swept the same way.
//!
//! The suite also pins the `InterpScratch` frame-pool invariant: failing
//! sessions must return their frames to the pool (the historical leak
//! grew the pool's *live* frame count on every error), so the pool size
//! stays stable across repeated failures on the VM.

use proptest::prelude::*;
use vdbench_corpus::ast::BinOp;
use vdbench_corpus::interp::ExecError;
use vdbench_corpus::{
    CompiledUnit, CorpusBuilder, Expr, Function, InterpScratch, Interpreter, Request,
    SanitizerKind, SinkKind, SiteId, SourceKind, Stmt, Unit,
};

/// Runs one session through both tiers and asserts exact agreement,
/// returning the (shared) outcome.
fn run_two_tiers(
    interp: &Interpreter,
    unit: &Unit,
    requests: &[Request],
) -> Result<Vec<vdbench_corpus::SinkObservation>, ExecError> {
    let oracle = interp.run_session_treewalk(unit, requests);
    let compiled = CompiledUnit::compile(unit);
    let mut scratch = InterpScratch::new();
    let vm = interp.run_compiled(&compiled, requests, &mut scratch);
    assert_eq!(
        vm, oracle,
        "bytecode VM diverged from treewalk oracle on unit {}",
        unit.id
    );
    oracle
}

/// A request that sets **every** source the unit references to an attack
/// payload (the shape the dynamic scanner sends).
fn attack_request(unit: &Unit) -> Request {
    let mut r = Request::new();
    for (kind, name) in unit.referenced_sources() {
        r = match kind {
            SourceKind::HttpParam => r.with_param(name, "x' OR '1'='1"),
            SourceKind::HttpHeader => r.with_header(name, "x' OR '1'='1"),
            SourceKind::Cookie => r.with_cookie(name, "x' OR '1'='1"),
        };
    }
    r
}

/// A benign request: every referenced source gets a harmless-looking
/// value (still attacker-controlled, so still tainted — but it exercises
/// different gate branches than the attack payload).
fn benign_request(unit: &Unit) -> Request {
    let mut r = Request::new();
    for (kind, name) in unit.referenced_sources() {
        r = match kind {
            SourceKind::HttpParam => r.with_param(name, "42"),
            SourceKind::HttpHeader => r.with_header(name, "curl/8.0"),
            SourceKind::Cookie => r.with_cookie(name, "session-abc"),
        };
    }
    r
}

// ---------------------------------------------------------------------------
// Generated corpora: the production shapes.
// ---------------------------------------------------------------------------

#[test]
fn generated_corpora_agree_across_tiers() {
    let interp = Interpreter::default();
    for seed in [1u64, 7, 42, 0xD5_2015] {
        let corpus = CorpusBuilder::new()
            .units(12)
            .seed(seed)
            .vulnerability_density(0.5)
            .build();
        for unit in corpus.units() {
            // Attack, benign, empty, and a two-request session that mixes
            // them (second-order flows hit the shared store).
            let attack = attack_request(unit);
            let benign = benign_request(unit);
            let _ = run_two_tiers(&interp, unit, std::slice::from_ref(&attack));
            let _ = run_two_tiers(&interp, unit, std::slice::from_ref(&benign));
            let _ = run_two_tiers(&interp, unit, &[Request::new()]);
            let _ = run_two_tiers(&interp, unit, &[benign.clone(), attack.clone()]);
        }
    }
}

#[test]
fn generated_corpora_agree_under_tight_fuel() {
    // Small budgets against real generated units: StepLimit must fire at
    // the identical point on every tier.
    let corpus = CorpusBuilder::new()
        .units(8)
        .seed(9)
        .vulnerability_density(0.5)
        .build();
    for unit in corpus.units() {
        let attack = attack_request(unit);
        for budget in [1usize, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144] {
            let interp = Interpreter::with_limits(budget, 256, 32);
            let _ = run_two_tiers(&interp, unit, std::slice::from_ref(&attack));
        }
    }
}

// ---------------------------------------------------------------------------
// Property-generated programs: every node kind, including malformed ones.
// ---------------------------------------------------------------------------

/// Small pools keep generated programs overlapping: reads frequently hit
/// variables/keys that an earlier statement actually wrote (and sometimes
/// deliberately don't, exercising `UndefinedVariable`).
const VARS: &[&str] = &["a", "b", "c"];
const KEYS: &[&str] = &["k1", "k2"];
const NAMES: &[&str] = &["id", "page", "user-agent"];
const STRS: &[&str] = &["", "x", "42", "asc", "x' OR '1'='1"];
const VALUES: &[&str] = &["", "1", "x' OR '1'='1", "asc"];

fn any_source_kind() -> impl Strategy<Value = SourceKind> {
    prop_oneof![
        Just(SourceKind::HttpParam),
        Just(SourceKind::HttpHeader),
        Just(SourceKind::Cookie),
    ]
}

fn any_sink_kind() -> impl Strategy<Value = SinkKind> {
    prop_oneof![
        Just(SinkKind::SqlQuery),
        Just(SinkKind::HtmlOutput),
        Just(SinkKind::ShellExec),
        Just(SinkKind::FileOpen),
        Just(SinkKind::Authenticate),
        Just(SinkKind::CryptoHash),
    ]
}

fn any_sanitizer_kind() -> impl Strategy<Value = SanitizerKind> {
    prop_oneof![
        Just(SanitizerKind::EscapeSql),
        Just(SanitizerKind::EscapeHtml),
        Just(SanitizerKind::ShellQuote),
        Just(SanitizerKind::NormalizePath),
        Just(SanitizerKind::ValidateInt),
        Just(SanitizerKind::WhitelistCheck),
    ]
}

fn any_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Gt),
        Just(BinOp::Add),
        Just(BinOp::Sub),
    ]
}

fn var_name() -> impl Strategy<Value = String> {
    (0usize..VARS.len()).prop_map(|i| VARS[i].to_string())
}

fn any_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-5i64..6).prop_map(Expr::Int),
        (0usize..STRS.len()).prop_map(|i| Expr::Str(STRS[i].to_string())),
        any::<bool>().prop_map(Expr::Bool),
        var_name().prop_map(Expr::Var),
        (any_source_kind(), 0usize..NAMES.len()).prop_map(|(kind, i)| Expr::Source {
            kind,
            name: NAMES[i].to_string(),
        }),
        (0usize..KEYS.len()).prop_map(|i| Expr::StoreRead {
            key: KEYS[i].to_string(),
        }),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::Concat(Box::new(a), Box::new(b))),
            (any_sanitizer_kind(), inner.clone()).prop_map(|(kind, arg)| Expr::Sanitize {
                kind,
                arg: Box::new(arg),
            }),
            (any_binop(), inner.clone(), inner).prop_map(|(op, lhs, rhs)| Expr::BinOp {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            }),
        ]
    })
}

/// Statements, recursively: every `Stmt` kind appears, including calls
/// with a wrong callee name or wrong arity (the defined helper takes
/// exactly one parameter).
fn any_stmt() -> impl Strategy<Value = Stmt> {
    let leaf = prop_oneof![
        (var_name(), any_expr()).prop_map(|(var, expr)| Stmt::Let { var, expr }),
        (var_name(), any_expr()).prop_map(|(var, expr)| Stmt::Assign { var, expr }),
        (any_sink_kind(), any_expr(), 0u32..4).prop_map(|(kind, arg, sink)| Stmt::Sink {
            kind,
            arg,
            site: SiteId { unit: 0, sink },
        }),
        (
            (any::<bool>(), var_name()).prop_map(|(bind, v)| bind.then_some(v)),
            any::<bool>(),
            proptest::collection::vec(any_expr(), 0..3),
        )
            .prop_map(|(var, defined, args)| Stmt::Call {
                var,
                func: if defined { "helper" } else { "nope" }.to_string(),
                args,
            }),
        any_expr().prop_map(Stmt::Return),
        ((0usize..KEYS.len()), any_expr()).prop_map(|(i, expr)| Stmt::StoreWrite {
            key: KEYS[i].to_string(),
            expr,
        }),
    ];
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            (
                any_expr(),
                proptest::collection::vec(inner.clone(), 0..3),
                proptest::collection::vec(inner.clone(), 0..3),
            )
                .prop_map(|(cond, then_branch, else_branch)| Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                }),
            (any_expr(), proptest::collection::vec(inner, 0..3))
                .prop_map(|(cond, body)| Stmt::While { cond, body }),
        ]
    })
}

/// A whole unit: an arbitrary handler plus one helper (`helper(p)`) whose
/// body is also arbitrary — so helper-internal sinks, store traffic and
/// nested (possibly recursive) calls all occur.
fn any_unit() -> impl Strategy<Value = Unit> {
    (
        proptest::collection::vec(any_stmt(), 1..6),
        proptest::collection::vec(any_stmt(), 0..4),
    )
        .prop_map(|(handler_body, helper_body)| Unit {
            id: 0,
            handler: Function::new("handler", vec![], handler_body),
            helpers: vec![Function::new("helper", vec!["p".to_string()], helper_body)],
        })
}

fn any_request() -> impl Strategy<Value = Request> {
    proptest::collection::vec(
        (any_source_kind(), 0usize..NAMES.len(), 0usize..VALUES.len()),
        0..4,
    )
    .prop_map(|entries| {
        let mut r = Request::new();
        for (kind, name_i, value_i) in entries {
            let (name, value) = (NAMES[name_i], VALUES[value_i]);
            r = match kind {
                SourceKind::HttpParam => r.with_param(name, value),
                SourceKind::HttpHeader => r.with_header(name, value),
                SourceKind::Cookie => r.with_cookie(name, value),
            };
        }
        r
    })
}

proptest! {
    /// The core property: arbitrary (frequently malformed, frequently
    /// runaway) programs behave identically on both tiers under a
    /// tight interpreter so every error kind is reachable quickly.
    #[test]
    fn arbitrary_programs_agree_across_tiers(
        unit in any_unit(),
        requests in proptest::collection::vec(any_request(), 1..3),
        budget in 1usize..400,
    ) {
        // Tight loop/depth bounds make runaway shapes terminate fast and
        // make LoopLimit-free semantics (bounded loops) and CallDepth both
        // reachable from small generated programs.
        let interp = Interpreter::with_limits(budget, 8, 4);
        let _ = run_two_tiers(&interp, &unit, &requests);
    }
}

// ---------------------------------------------------------------------------
// Deterministic full-surface unit: every node kind in one program.
// ---------------------------------------------------------------------------

/// Builds a unit that statically contains every statement kind, every
/// expression kind, every operator, every sanitizer, every sink and every
/// source — and runs clean (no errors) so the full observation list is
/// compared.
fn full_surface_unit() -> Unit {
    let site = |sink| SiteId { unit: 0, sink };
    let body = vec![
        // Let + Source(HttpParam) + Concat + Str.
        Stmt::Let {
            var: "a".into(),
            expr: Expr::concat(
                Expr::str("SELECT * FROM t WHERE id="),
                Expr::Source {
                    kind: SourceKind::HttpParam,
                    name: "id".into(),
                },
            ),
        },
        // Sanitize: every kind, folded into one value via Concat.
        Stmt::Let {
            var: "b".into(),
            expr: Expr::concat(
                Expr::sanitize(SanitizerKind::EscapeSql, Expr::var("a")),
                Expr::concat(
                    Expr::sanitize(
                        SanitizerKind::EscapeHtml,
                        Expr::Source {
                            kind: SourceKind::HttpHeader,
                            name: "user-agent".into(),
                        },
                    ),
                    Expr::concat(
                        Expr::sanitize(
                            SanitizerKind::ShellQuote,
                            Expr::Source {
                                kind: SourceKind::Cookie,
                                name: "session".into(),
                            },
                        ),
                        Expr::concat(
                            Expr::sanitize(SanitizerKind::NormalizePath, Expr::str("../etc")),
                            Expr::concat(
                                Expr::sanitize(SanitizerKind::ValidateInt, Expr::str("7")),
                                Expr::sanitize(SanitizerKind::WhitelistCheck, Expr::str("desc")),
                            ),
                        ),
                    ),
                ),
            ),
        },
        // If + BinOp(Eq) + Bool; Assign in both branches.
        Stmt::If {
            cond: Expr::BinOp {
                op: BinOp::Eq,
                lhs: Box::new(Expr::Bool(true)),
                rhs: Box::new(Expr::Bool(true)),
            },
            then_branch: vec![Stmt::Assign {
                var: "a".into(),
                expr: Expr::concat(Expr::var("a"), Expr::str("!")),
            }],
            else_branch: vec![Stmt::Assign {
                var: "a".into(),
                expr: Expr::str("unreachable"),
            }],
        },
        // While + BinOp(Lt/Add) + Int: the counting-loop superinstruction
        // shape.
        Stmt::Let {
            var: "i".into(),
            expr: Expr::Int(0),
        },
        Stmt::While {
            cond: Expr::BinOp {
                op: BinOp::Lt,
                lhs: Box::new(Expr::var("i")),
                rhs: Box::new(Expr::Int(3)),
            },
            body: vec![Stmt::Assign {
                var: "i".into(),
                expr: Expr::BinOp {
                    op: BinOp::Add,
                    lhs: Box::new(Expr::var("i")),
                    rhs: Box::new(Expr::Int(1)),
                },
            }],
        },
        // Remaining operators.
        Stmt::Let {
            var: "c".into(),
            expr: Expr::BinOp {
                op: BinOp::Sub,
                lhs: Box::new(Expr::var("i")),
                rhs: Box::new(Expr::Int(1)),
            },
        },
        Stmt::If {
            cond: Expr::BinOp {
                op: BinOp::Ne,
                lhs: Box::new(Expr::var("c")),
                rhs: Box::new(Expr::Int(99)),
            },
            then_branch: vec![Stmt::If {
                cond: Expr::BinOp {
                    op: BinOp::Gt,
                    lhs: Box::new(Expr::var("c")),
                    rhs: Box::new(Expr::Int(0)),
                },
                then_branch: vec![],
                else_branch: vec![],
            }],
            else_branch: vec![],
        },
        // StoreWrite / StoreRead: second-order flow through the store.
        Stmt::StoreWrite {
            key: "row".into(),
            expr: Expr::var("a"),
        },
        Stmt::Let {
            var: "stored".into(),
            expr: Expr::StoreRead { key: "row".into() },
        },
        // Call with bind; the helper exercises Return.
        Stmt::Call {
            var: Some("quoted".into()),
            func: "quote".into(),
            args: vec![Expr::var("stored")],
        },
        // Call discarding the result.
        Stmt::Call {
            var: None,
            func: "quote".into(),
            args: vec![Expr::Int(5)],
        },
        // Every sink kind.
        Stmt::Sink {
            kind: SinkKind::SqlQuery,
            arg: Expr::var("a"),
            site: site(0),
        },
        Stmt::Sink {
            kind: SinkKind::HtmlOutput,
            arg: Expr::var("b"),
            site: site(1),
        },
        Stmt::Sink {
            kind: SinkKind::ShellExec,
            arg: Expr::var("quoted"),
            site: site(2),
        },
        Stmt::Sink {
            kind: SinkKind::FileOpen,
            arg: Expr::var("stored"),
            site: site(3),
        },
        Stmt::Sink {
            kind: SinkKind::Authenticate,
            arg: Expr::str("admin"),
            site: site(4),
        },
        Stmt::Sink {
            kind: SinkKind::CryptoHash,
            arg: Expr::str("sha1"),
            site: site(5),
        },
        // A flow whose only taint is correctly sanitized for its sink.
        Stmt::Sink {
            kind: SinkKind::HtmlOutput,
            arg: Expr::sanitize(
                SanitizerKind::EscapeHtml,
                Expr::Source {
                    kind: SourceKind::HttpHeader,
                    name: "user-agent".into(),
                },
            ),
            site: site(6),
        },
        Stmt::Return(Expr::Int(0)),
    ];
    Unit {
        id: 0,
        handler: Function::new("handler", vec![], body),
        helpers: vec![Function::new(
            "quote",
            vec!["v".to_string()],
            vec![Stmt::Return(Expr::concat(
                Expr::str("'"),
                Expr::concat(Expr::var("v"), Expr::str("'")),
            ))],
        )],
    }
}

#[test]
fn full_surface_unit_agrees_and_observes_every_sink() {
    let unit = full_surface_unit();
    let request = Request::new()
        .with_param("id", "1 OR 1=1")
        .with_header("user-agent", "<script>")
        .with_cookie("session", "$(rm)");
    let obs = run_two_tiers(&Interpreter::default(), &unit, &[request])
        .expect("full-surface unit runs clean");
    assert_eq!(obs.len(), 7, "all seven sinks execute: {obs:#?}");
    assert!(obs[0].tainted, "unsanitized sql flow must stay tainted");
    assert_eq!(obs[0].offending_sources, vec!["id".to_string()]);
    // `b` mixes sql-escaped and shell-quoted data into an HTML sink:
    // those sanitizers protect *other* sinks, so the flow stays tainted.
    assert!(obs[1].tainted, "cross-sink sanitizers must not clear taint");
    // The html-escaped header flowing to an HTML sink is clean.
    assert!(!obs[6].tainted, "matching sanitizer must clear taint");
}

// ---------------------------------------------------------------------------
// Dead-guard deferral: compile-time resolution must not reject programs
// whose broken calls never execute.
// ---------------------------------------------------------------------------

/// A unit whose broken call (undefined callee or wrong arity) sits behind
/// `cond`; with `cond` false the unit must run clean on both tiers, with
/// `cond` true it must fail identically on both tiers.
fn gated_broken_call(cond: Expr, call: Stmt) -> Unit {
    Unit {
        id: 0,
        handler: Function::new(
            "handler",
            vec![],
            vec![
                Stmt::If {
                    cond,
                    then_branch: vec![call],
                    else_branch: vec![],
                },
                Stmt::Sink {
                    kind: SinkKind::HtmlOutput,
                    arg: Expr::str("ok"),
                    site: SiteId { unit: 0, sink: 0 },
                },
            ],
        ),
        helpers: vec![Function::new(
            "helper",
            vec!["p".to_string()],
            vec![Stmt::Return(Expr::var("p"))],
        )],
    }
}

#[test]
fn dead_guard_defers_undefined_function_and_arity_checks() {
    let interp = Interpreter::default();
    let undefined = Stmt::Call {
        var: None,
        func: "no_such_helper".into(),
        args: vec![],
    };
    let bad_arity = Stmt::Call {
        var: Some("x".into()),
        func: "helper".into(),
        args: vec![Expr::Int(1), Expr::Int(2)],
    };
    // Const-false gate (folded at compile time) and a runtime-false gate
    // (the branch exists in the bytecode but never executes): both must
    // leave the broken call latent.
    let runtime_false = Expr::BinOp {
        op: BinOp::Eq,
        lhs: Box::new(Expr::Source {
            kind: SourceKind::HttpParam,
            name: "page".into(),
        }),
        rhs: Box::new(Expr::str("never")),
    };
    for cond in [Expr::Bool(false), runtime_false.clone()] {
        for call in [undefined.clone(), bad_arity.clone()] {
            let unit = gated_broken_call(cond.clone(), call);
            let obs = run_two_tiers(&interp, &unit, &[Request::new()])
                .expect("guarded broken call must stay latent");
            assert_eq!(obs.len(), 1, "the sink after the dead guard runs");
        }
    }
    // Reachable versions must fail identically (run_two_tiers asserts
    // the tiers agree; here we also pin *which* error).
    let unit = gated_broken_call(Expr::Bool(true), undefined);
    assert_eq!(
        run_two_tiers(&interp, &unit, &[Request::new()]),
        Err(ExecError::UndefinedFunction("no_such_helper".into()))
    );
    let unit = gated_broken_call(Expr::Bool(true), bad_arity);
    assert_eq!(
        run_two_tiers(&interp, &unit, &[Request::new()]),
        Err(ExecError::ArityMismatch {
            func: "helper".into(),
            expected: 1,
            actual: 2,
        })
    );
}

// ---------------------------------------------------------------------------
// Fuel sweep: ticks are charged at identical points on every tier.
// ---------------------------------------------------------------------------

#[test]
fn fuel_exhaustion_fires_identically_at_every_budget() {
    // A unit that mixes every fuel-relevant construct: a counting loop
    // (batch-charged on the VM), a data-dependent loop, helper calls and
    // concat chains.
    let unit = full_surface_unit();
    let request = Request::new()
        .with_param("id", "1")
        .with_header("user-agent", "ua")
        .with_cookie("session", "s");
    // Find the full cost: the smallest budget where the unit runs clean
    // on the oracle.
    let full_cost = (1..10_000)
        .find(|&steps| {
            Interpreter::with_limits(steps, 256, 32)
                .run_session_treewalk(&unit, std::slice::from_ref(&request))
                .is_ok()
        })
        .expect("unit terminates under the default limits");
    assert!(full_cost > 40, "the sweep should cover a non-trivial range");
    for budget in 1..=full_cost {
        let interp = Interpreter::with_limits(budget, 256, 32);
        let outcome = run_two_tiers(&interp, &unit, std::slice::from_ref(&request));
        // Below the full cost every tier must report StepLimit — never a
        // different error, never a truncated success.
        if budget < full_cost {
            assert_eq!(outcome, Err(ExecError::StepLimit), "budget {budget}");
        } else {
            assert!(outcome.is_ok(), "budget {budget}");
        }
    }
}

#[test]
fn loop_and_depth_limits_fire_identically() {
    let interp_default = Interpreter::default();
    // Loop-iteration sweep on a loop that wants 3 iterations.
    let unit = full_surface_unit();
    let request = Request::new()
        .with_param("id", "1")
        .with_header("user-agent", "ua")
        .with_cookie("session", "s");
    for max_loop_iters in 1..=6 {
        let interp = Interpreter::with_limits(100_000, max_loop_iters, 32);
        let _ = run_two_tiers(&interp, &unit, std::slice::from_ref(&request));
    }
    // Call-depth sweep on self-recursion: `deep()` calls itself forever,
    // so every tier must report CallDepth at the same depth.
    let recursive = Unit {
        id: 0,
        handler: Function::new(
            "handler",
            vec![],
            vec![Stmt::Call {
                var: None,
                func: "deep".into(),
                args: vec![],
            }],
        ),
        helpers: vec![Function::new(
            "deep",
            vec![],
            vec![Stmt::Call {
                var: None,
                func: "deep".into(),
                args: vec![],
            }],
        )],
    };
    for max_depth in 1..=8 {
        let interp = Interpreter::with_limits(100_000, 256, max_depth);
        let outcome = run_two_tiers(&interp, &recursive, &[Request::new()]);
        assert_eq!(outcome, Err(ExecError::CallDepth), "depth {max_depth}");
    }
    // And under the default interpreter too.
    assert_eq!(
        run_two_tiers(&interp_default, &recursive, &[Request::new()]),
        Err(ExecError::CallDepth)
    );
}

// ---------------------------------------------------------------------------
// Frame-pool stability on error paths (the historical leak).
// ---------------------------------------------------------------------------

#[test]
fn failing_sessions_do_not_leak_pooled_frames() {
    // An error raised *inside* a helper call is the leaking shape: the
    // handler frame and the helper frame are both live when execution
    // unwinds.
    let failing = Unit {
        id: 0,
        handler: Function::new(
            "handler",
            vec![],
            vec![Stmt::Call {
                var: None,
                func: "boom".into(),
                args: vec![],
            }],
        ),
        helpers: vec![Function::new(
            "boom",
            vec![],
            vec![Stmt::Let {
                var: "x".into(),
                expr: Expr::var("never_assigned"),
            }],
        )],
    };
    let compiled = CompiledUnit::compile(&failing);
    let interp = Interpreter::default();
    let request = [Request::new()];
    let mut scratch = InterpScratch::new();
    // Warm the pool once, then the pooled-frame count must be stable
    // across repeated failing sessions: frames flow pool -> live -> pool
    // even when the session errors.
    let first = interp.run_compiled(&compiled, &request, &mut scratch);
    assert!(matches!(first, Err(ExecError::UndefinedVariable(_))));
    let warmed = scratch.pooled_frames();
    assert!(warmed >= 2, "handler + helper frames pooled");
    for round in 0..50 {
        let outcome = interp.run_compiled(&compiled, &request, &mut scratch);
        assert!(matches!(outcome, Err(ExecError::UndefinedVariable(_))));
        assert_eq!(
            scratch.pooled_frames(),
            warmed,
            "pool must not grow on failing round {round}"
        );
    }
    // StepLimit deep in a recursive call tower is the worst case: many
    // live frames unwind at once.
    let tower = Unit {
        id: 0,
        handler: Function::new(
            "handler",
            vec![],
            vec![Stmt::Call {
                var: None,
                func: "spin".into(),
                args: vec![],
            }],
        ),
        helpers: vec![Function::new(
            "spin",
            vec![],
            vec![
                Stmt::Let {
                    var: "i".into(),
                    expr: Expr::Int(0),
                },
                Stmt::While {
                    cond: Expr::BinOp {
                        op: BinOp::Lt,
                        lhs: Box::new(Expr::var("i")),
                        rhs: Box::new(Expr::Int(100)),
                    },
                    body: vec![Stmt::Assign {
                        var: "i".into(),
                        expr: Expr::BinOp {
                            op: BinOp::Add,
                            lhs: Box::new(Expr::var("i")),
                            rhs: Box::new(Expr::Int(1)),
                        },
                    }],
                },
                Stmt::Call {
                    var: None,
                    func: "spin".into(),
                    args: vec![],
                },
            ],
        )],
    };
    let compiled = CompiledUnit::compile(&tower);
    let interp = Interpreter::with_limits(500, 256, 32);
    let mut scratch = InterpScratch::new();
    let first = interp.run_compiled(&compiled, &request, &mut scratch);
    assert_eq!(first, Err(ExecError::StepLimit));
    let warmed = scratch.pooled_frames();
    for round in 0..20 {
        let outcome = interp.run_compiled(&compiled, &request, &mut scratch);
        assert_eq!(outcome, Err(ExecError::StepLimit));
        assert_eq!(
            scratch.pooled_frames(),
            warmed,
            "pool must not grow on StepLimit round {round}"
        );
    }
}
