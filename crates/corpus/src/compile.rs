//! Slot-compiled MiniWeb units: name interning and call resolution, the
//! intermediate form the bytecode VM is compiled from.
//!
//! The reference interpreter in [`crate::interp`] walks the AST and keeps
//! each function's environment in a `BTreeMap<String, Value>`, so every
//! variable read and write pays a string comparison chain and every call
//! clones the callee body to appease the borrow checker. Under the dynamic
//! scanner a single corpus scan executes the same handful of units tens of
//! thousands of times, which makes those lookups and clones the hottest
//! code in the workspace.
//!
//! Execution has **two tiers**, bit-identical to each other:
//!
//! 1. [`Interpreter::run_session_treewalk`] — the AST oracle defining the
//!    semantics;
//! 2. [`Interpreter::run_compiled`] — the flat bytecode register VM in
//!    `crate::bytecode`, the production path compiled from the
//!    slot-compiled form in this module.
//!
//! Compilation removes the lookup and clone costs while preserving the
//! reference semantics *exactly*:
//!
//! * **Name interning** — every variable and parameter name in a function
//!   is assigned a dense slot index at compile time (parameters first, then
//!   first textual occurrence). Environments become `Vec<Option<Value>>`
//!   frames indexed directly; `None` marks a never-assigned slot so
//!   [`ExecError::UndefinedVariable`] still fires with the original name
//!   (recovered from the function's slot table). MiniWeb environments are
//!   flat per function — `let` shadowing overwrites, there is no block
//!   scoping — so a per-function symbol table is exact, not approximate.
//! * **Call resolution** — callee names resolve to function indices at
//!   compile time using the same handler-first, first-match rule as
//!   [`Unit::function`]. Unresolvable names are *not* a compile error:
//!   they lower to `CallTarget::Undefined` and raise
//!   [`ExecError::UndefinedFunction`] only if the call executes, matching
//!   the reference interpreter (a call behind a dead guard must not fail).
//!   Arity is likewise checked at call execution time.
//! * **Frame pooling** — call frames are recycled through
//!   [`InterpScratch`], so steady-state execution allocates nothing for
//!   environments; the scratch is reusable across sessions, which is how
//!   the dynamic scanner amortizes a whole attack batch.
//!
//! Equivalence with the tree-walker is load-bearing (the scanner's
//! confirmations, and therefore every benchmark number downstream, flow
//! through here), so the execution-step budget is charged at *identical*
//! points: once per statement executed and once per expression node
//! evaluated. The `equivalence` tests and the corpus-level property tests
//! cross-check observations *and* errors against
//! [`Interpreter::run_session_treewalk`].
//!
//! Compilation also feeds the `interp.env.interned_slots` telemetry
//! counter (total slots interned), giving scan traces a cheap proxy for
//! how much environment traffic the slot representation absorbed.

use crate::ast::{BinOp, Expr, SiteId, Stmt, Unit};
use crate::interp::{ExecError, Interpreter, Request, SinkObservation, Value};
use crate::types::{SanitizerKind, SinkKind, SourceKind};
use std::collections::BTreeMap;

/// Records interned slots on the process-wide telemetry registry. The
/// counter handle is resolved once and cached; recording is a single
/// relaxed atomic add.
fn record_interned_slots(n: u64) {
    use std::sync::{Arc, OnceLock};
    use vdbench_telemetry::registry::Counter;
    static HANDLE: OnceLock<Arc<Counter>> = OnceLock::new();
    if n > 0 {
        HANDLE
            .get_or_init(|| {
                vdbench_telemetry::registry::global().counter("interp.env.interned_slots")
            })
            .add(n);
    }
}

/// A compiled expression: structurally identical to [`Expr`] except that
/// variable references carry slot indices instead of names.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CExpr {
    /// Integer literal.
    Int(i64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// Variable reference by environment slot.
    Var(u32),
    /// Attacker-controlled input.
    Source {
        /// Request surface.
        kind: SourceKind,
        /// Input name.
        name: String,
    },
    /// String concatenation.
    Concat(Box<CExpr>, Box<CExpr>),
    /// Sanitization of a sub-expression.
    Sanitize {
        /// The sanitizer applied.
        kind: SanitizerKind,
        /// The sanitized expression.
        arg: Box<CExpr>,
    },
    /// Binary operation.
    BinOp {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<CExpr>,
        /// Right operand.
        rhs: Box<CExpr>,
    },
    /// Persistent-store read.
    StoreRead {
        /// Store key.
        key: String,
    },
}

/// Where a compiled call dispatches to.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CallTarget {
    /// Index into [`CompiledUnit::functions`].
    Resolved(u32),
    /// The unit defines no function with this name; raising
    /// [`ExecError::UndefinedFunction`] is deferred until the call actually
    /// executes (reference semantics: dead code may be malformed).
    Undefined(String),
}

/// A compiled statement. `Let` and `Assign` collapse into one slot write —
/// the distinction is purely syntactic in MiniWeb's flat function scopes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CStmt {
    /// Slot write (`let x = e;` or `x = e;`).
    Assign {
        /// Destination slot.
        slot: u32,
        /// Value expression.
        expr: CExpr,
    },
    /// Conditional.
    If {
        /// Condition.
        cond: CExpr,
        /// Then branch.
        then_branch: Vec<CStmt>,
        /// Else branch.
        else_branch: Vec<CStmt>,
    },
    /// Bounded while loop.
    While {
        /// Loop condition.
        cond: CExpr,
        /// Loop body.
        body: Vec<CStmt>,
    },
    /// Security-sensitive sink call.
    Sink {
        /// Sink kind.
        kind: SinkKind,
        /// Argument expression.
        arg: CExpr,
        /// Benchmark case id.
        site: SiteId,
    },
    /// Helper call with optional result bind.
    Call {
        /// Destination slot for the return value, if bound.
        dst: Option<u32>,
        /// Resolved (or deferred-undefined) callee.
        target: CallTarget,
        /// Argument expressions.
        args: Vec<CExpr>,
    },
    /// `return e;`
    Return(CExpr),
    /// Persistent-store write.
    StoreWrite {
        /// Store key.
        key: String,
        /// The stored value.
        expr: CExpr,
    },
}

/// One compiled function: body over slot-indexed environments plus the
/// slot table needed to size frames and report `UndefinedVariable` with
/// the original name.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompiledFunction {
    /// Function name (for arity-mismatch diagnostics).
    pub(crate) name: String,
    /// Declared parameter count; parameters occupy slots `0..n_params`.
    pub(crate) n_params: usize,
    /// Slot index → variable name (parameters first, then first
    /// occurrence).
    pub(crate) slot_names: Vec<String>,
    /// Compiled body.
    pub(crate) body: Vec<CStmt>,
}

/// A [`Unit`] lowered to executable form: the handler at index 0 followed
/// by the helpers in declaration order, so name resolution by first index
/// match reproduces [`Unit::function`] exactly. Each function carries both
/// its slot-compiled body (`functions`, what the bytecode is lowered
/// from) and its bytecode (`code`, what [`Interpreter::run_compiled`]
/// executes).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledUnit {
    pub(crate) functions: Vec<CompiledFunction>,
    pub(crate) code: Vec<crate::bytecode::FuncCode>,
}

/// Per-function symbol table mapping variable names to dense slots.
struct SymbolTable {
    names: Vec<String>,
    index: BTreeMap<String, u32>,
}

impl SymbolTable {
    fn new(params: &[String]) -> Self {
        let mut t = SymbolTable {
            names: Vec::new(),
            index: BTreeMap::new(),
        };
        for p in params {
            t.slot(p);
        }
        t
    }

    fn slot(&mut self, name: &str) -> u32 {
        if let Some(&s) = self.index.get(name) {
            return s;
        }
        let s = u32::try_from(self.names.len()).expect("slot count fits in u32");
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), s);
        s
    }
}

impl CompiledUnit {
    /// Compiles a unit: interns every function's variables into dense
    /// slots, resolves call targets, and records the interned-slot total
    /// on the `interp.env.interned_slots` telemetry counter.
    pub fn compile(unit: &Unit) -> CompiledUnit {
        // Resolution order must match `Unit::function`: handler first,
        // then helpers, first match wins.
        let mut names: Vec<&str> = Vec::with_capacity(1 + unit.helpers.len());
        names.push(unit.handler.name.as_str());
        names.extend(unit.helpers.iter().map(|h| h.name.as_str()));
        let resolve = |func: &str| -> CallTarget {
            match names.iter().position(|n| *n == func) {
                Some(i) => CallTarget::Resolved(u32::try_from(i).expect("function index fits")),
                None => CallTarget::Undefined(func.to_string()),
            }
        };
        let mut functions = Vec::with_capacity(1 + unit.helpers.len());
        let mut total_slots = 0u64;
        for f in std::iter::once(&unit.handler).chain(&unit.helpers) {
            let mut syms = SymbolTable::new(&f.params);
            let body = compile_block(&f.body, &mut syms, &resolve);
            total_slots += syms.names.len() as u64;
            functions.push(CompiledFunction {
                name: f.name.clone(),
                n_params: f.params.len(),
                slot_names: syms.names,
                body,
            });
        }
        record_interned_slots(total_slots);
        let code = functions
            .iter()
            .map(|f| crate::bytecode::compile_fn(&functions, f))
            .collect();
        CompiledUnit { functions, code }
    }

    /// Total environment slots interned across all functions (the amount
    /// added to the `interp.env.interned_slots` counter at compile time).
    pub fn total_slots(&self) -> usize {
        self.functions.iter().map(|f| f.slot_names.len()).sum()
    }
}

fn compile_block(
    body: &[Stmt],
    syms: &mut SymbolTable,
    resolve: &impl Fn(&str) -> CallTarget,
) -> Vec<CStmt> {
    body.iter()
        .map(|s| compile_stmt(s, syms, resolve))
        .collect()
}

fn compile_stmt(
    stmt: &Stmt,
    syms: &mut SymbolTable,
    resolve: &impl Fn(&str) -> CallTarget,
) -> CStmt {
    match stmt {
        Stmt::Let { var, expr } | Stmt::Assign { var, expr } => {
            let expr = compile_expr(expr, syms);
            CStmt::Assign {
                slot: syms.slot(var),
                expr,
            }
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => CStmt::If {
            cond: compile_expr(cond, syms),
            then_branch: compile_block(then_branch, syms, resolve),
            else_branch: compile_block(else_branch, syms, resolve),
        },
        Stmt::While { cond, body } => CStmt::While {
            cond: compile_expr(cond, syms),
            body: compile_block(body, syms, resolve),
        },
        Stmt::Sink { kind, arg, site } => CStmt::Sink {
            kind: *kind,
            arg: compile_expr(arg, syms),
            site: *site,
        },
        Stmt::Call { var, func, args } => CStmt::Call {
            dst: var.as_deref().map(|v| syms.slot(v)),
            target: resolve(func),
            args: args.iter().map(|a| compile_expr(a, syms)).collect(),
        },
        Stmt::Return(expr) => CStmt::Return(compile_expr(expr, syms)),
        Stmt::StoreWrite { key, expr } => CStmt::StoreWrite {
            key: key.clone(),
            expr: compile_expr(expr, syms),
        },
    }
}

fn compile_expr(expr: &Expr, syms: &mut SymbolTable) -> CExpr {
    match expr {
        Expr::Int(i) => CExpr::Int(*i),
        Expr::Str(s) => CExpr::Str(s.clone()),
        Expr::Bool(b) => CExpr::Bool(*b),
        Expr::Var(name) => CExpr::Var(syms.slot(name)),
        Expr::Source { kind, name } => CExpr::Source {
            kind: *kind,
            name: name.clone(),
        },
        Expr::Concat(a, b) => CExpr::Concat(
            Box::new(compile_expr(a, syms)),
            Box::new(compile_expr(b, syms)),
        ),
        Expr::Sanitize { kind, arg } => CExpr::Sanitize {
            kind: *kind,
            arg: Box::new(compile_expr(arg, syms)),
        },
        Expr::BinOp { op, lhs, rhs } => CExpr::BinOp {
            op: *op,
            lhs: Box::new(compile_expr(lhs, syms)),
            rhs: Box::new(compile_expr(rhs, syms)),
        },
        Expr::StoreRead { key } => CExpr::StoreRead { key: key.clone() },
    }
}

/// Reusable execution scratch for [`Interpreter::run_compiled`]: a pool of
/// recycled environment frames plus the session's persistent store (whose
/// allocation is reused across sessions; its *contents* are cleared at
/// every session start, so reuse is invisible to semantics).
#[derive(Debug, Default)]
pub struct InterpScratch {
    pub(crate) frames: Vec<Vec<Option<Value>>>,
    pub(crate) store: BTreeMap<String, Value>,
}

impl InterpScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        InterpScratch::default()
    }

    /// Number of pooled frames currently available (diagnostic; exercised
    /// by the frame-reuse tests).
    pub fn pooled_frames(&self) -> usize {
        self.frames.len()
    }
}

/// Pops a pooled frame (or allocates one) and resets it to `n` empty
/// slots, retaining capacity.
pub(crate) fn take_frame(pool: &mut Vec<Vec<Option<Value>>>, n: usize) -> Vec<Option<Value>> {
    let mut f = pool.pop().unwrap_or_default();
    f.clear();
    f.resize_with(n, || None);
    f
}

impl Interpreter {
    /// Executes a session against a pre-compiled unit, reusing `scratch`
    /// for environment frames and the persistent store. Semantics are
    /// identical to [`Interpreter::run_session`] (which is implemented on
    /// top of this); the point of the split is that callers running many
    /// sessions against one unit — the dynamic scanner's attack batches —
    /// compile once and keep the scratch warm.
    ///
    /// This is the bytecode-VM tier (see `crate::bytecode`).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Interpreter::run_session`].
    pub fn run_compiled(
        &self,
        unit: &CompiledUnit,
        requests: &[Request],
        scratch: &mut InterpScratch,
    ) -> Result<Vec<SinkObservation>, ExecError> {
        crate::bytecode::run_vm(self, unit, requests, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Function;
    use crate::generator::CorpusBuilder;

    fn site(s: u32) -> SiteId {
        SiteId { unit: 0, sink: s }
    }

    fn param(name: &str) -> Expr {
        Expr::Source {
            kind: SourceKind::HttpParam,
            name: name.into(),
        }
    }

    fn unit(body: Vec<Stmt>, helpers: Vec<Function>) -> Unit {
        Unit {
            id: 0,
            handler: Function::new("handler", vec![], body),
            helpers,
        }
    }

    #[test]
    fn slots_intern_params_first_and_dedup() {
        let helper = Function::new(
            "h",
            vec!["a".into(), "b".into()],
            vec![
                Stmt::Let {
                    var: "x".into(),
                    expr: Expr::concat(Expr::var("a"), Expr::var("b")),
                },
                Stmt::Assign {
                    var: "x".into(),
                    expr: Expr::concat(Expr::var("x"), Expr::var("a")),
                },
                Stmt::Return(Expr::var("x")),
            ],
        );
        let u = unit(vec![], vec![helper]);
        let c = CompiledUnit::compile(&u);
        assert_eq!(c.functions.len(), 2);
        let h = &c.functions[1];
        assert_eq!(h.n_params, 2);
        // Params occupy slots 0 and 1; `x` interned once at slot 2.
        assert_eq!(h.slot_names, vec!["a", "b", "x"]);
        assert_eq!(c.total_slots(), 3);
    }

    #[test]
    fn undefined_function_deferred_to_execution() {
        // A call to a ghost function behind a dead guard must not fail…
        let guarded = unit(
            vec![Stmt::If {
                cond: Expr::Bool(false),
                then_branch: vec![Stmt::Call {
                    var: None,
                    func: "ghost".into(),
                    args: vec![],
                }],
                else_branch: vec![],
            }],
            vec![],
        );
        let interp = Interpreter::default();
        assert!(interp.run(&guarded, &Request::new()).is_ok());
        // …but the same call on the hot path still raises the error.
        let live = unit(
            vec![Stmt::Call {
                var: None,
                func: "ghost".into(),
                args: vec![],
            }],
            vec![],
        );
        assert_eq!(
            interp.run(&live, &Request::new()).unwrap_err(),
            ExecError::UndefinedFunction("ghost".into())
        );
    }

    #[test]
    fn frame_pool_recycles_across_sessions() {
        let helper = Function::new(
            "fmt",
            vec!["x".into()],
            vec![Stmt::Return(Expr::concat(Expr::str("v="), Expr::var("x")))],
        );
        let u = unit(
            vec![
                Stmt::Call {
                    var: Some("out".into()),
                    func: "fmt".into(),
                    args: vec![param("q")],
                },
                Stmt::Sink {
                    kind: SinkKind::HtmlOutput,
                    arg: Expr::var("out"),
                    site: site(0),
                },
            ],
            vec![helper],
        );
        let compiled = CompiledUnit::compile(&u);
        let interp = Interpreter::default();
        let mut scratch = InterpScratch::new();
        let req = [Request::new().with_param("q", "hello")];
        let first = interp.run_compiled(&compiled, &req, &mut scratch).unwrap();
        assert_eq!(first[0].rendered, "v=hello");
        // Handler frame + callee frame both returned to the pool.
        assert_eq!(scratch.pooled_frames(), 2);
        let second = interp.run_compiled(&compiled, &req, &mut scratch).unwrap();
        assert_eq!(first, second);
        // Reuse, not growth: the pool is back at its steady state.
        assert_eq!(scratch.pooled_frames(), 2);
    }

    #[test]
    fn store_cleared_between_sessions() {
        let u = unit(
            vec![
                Stmt::Sink {
                    kind: SinkKind::SqlQuery,
                    arg: Expr::StoreRead { key: "row".into() },
                    site: site(0),
                },
                Stmt::StoreWrite {
                    key: "row".into(),
                    expr: param("v"),
                },
            ],
            vec![],
        );
        let compiled = CompiledUnit::compile(&u);
        let interp = Interpreter::default();
        let mut scratch = InterpScratch::new();
        let req = [Request::new().with_param("v", "payload")];
        let first = interp.run_compiled(&compiled, &req, &mut scratch).unwrap();
        assert_eq!(first[0].rendered, "");
        // The write from session 1 must not leak into session 2.
        let second = interp.run_compiled(&compiled, &req, &mut scratch).unwrap();
        assert_eq!(second[0].rendered, "");
        assert_eq!(first, second);
    }

    #[test]
    fn compiled_matches_treewalk_on_generated_corpus() {
        // The strongest equivalence check: every unit of a generated
        // corpus (covering all vulnerability classes, flow shapes, gates,
        // stores and helper calls), several request shapes, observations
        // AND errors compared structurally.
        let corpus = CorpusBuilder::new()
            .units(60)
            .vulnerability_density(0.5)
            .seed(2024)
            .build();
        let interp = Interpreter::default();
        let requests = [
            Request::new(),
            Request::new().with_param("id", "x' OR '1'='1"),
            Request::new()
                .with_param("mode", "debug")
                .with_param("q", "<script>alert(1)</script>")
                .with_header("ua", "../../etc/passwd")
                .with_cookie("sid", "; cat /etc/passwd"),
        ];
        for u in corpus.units() {
            for req in &requests {
                let fast = interp.run(u, req);
                let slow = interp.run_session_treewalk(u, std::slice::from_ref(req));
                assert_eq!(fast, slow, "unit {} diverged", u.id);
            }
            // Two-request session with a shared store (second-order flows).
            let session = [requests[2].clone(), Request::new()];
            assert_eq!(
                interp.run_session(u, &session),
                interp.run_session_treewalk(u, &session),
                "unit {} session diverged",
                u.id
            );
        }
    }

    #[test]
    fn compiled_matches_treewalk_on_errors_and_limits() {
        let tight = Interpreter::with_limits(40, 4, 2);
        // Deep recursion: both interpreters must fail identically.
        let helper = Function::new(
            "h",
            vec![],
            vec![Stmt::Call {
                var: None,
                func: "h".into(),
                args: vec![],
            }],
        );
        let u = unit(
            vec![Stmt::Call {
                var: None,
                func: "h".into(),
                args: vec![],
            }],
            vec![helper],
        );
        let req = Request::new();
        assert_eq!(
            tight.run(&u, &req),
            tight.run_session_treewalk(&u, std::slice::from_ref(&req))
        );
        // Step budget: with a generous loop-iteration cap, a long loop
        // trips StepLimit on the same step in both implementations.
        let tight = Interpreter::with_limits(40, 1000, 2);
        let looped = unit(
            vec![
                Stmt::Let {
                    var: "i".into(),
                    expr: Expr::Int(0),
                },
                Stmt::While {
                    cond: Expr::BinOp {
                        op: BinOp::Lt,
                        lhs: Box::new(Expr::var("i")),
                        rhs: Box::new(Expr::Int(1000)),
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
            ],
            vec![],
        );
        assert_eq!(
            tight.run(&looped, &req),
            tight.run_session_treewalk(&looped, std::slice::from_ref(&req))
        );
        assert_eq!(tight.run(&looped, &req).unwrap_err(), ExecError::StepLimit);
    }

    #[test]
    fn telemetry_counter_advances_on_compile() {
        let counter = vdbench_telemetry::registry::global().counter("interp.env.interned_slots");
        let before = counter.get();
        let u = unit(
            vec![Stmt::Let {
                var: "x".into(),
                expr: Expr::Int(1),
            }],
            vec![],
        );
        let c = CompiledUnit::compile(&u);
        assert_eq!(c.total_slots(), 1);
        assert!(
            counter.get() > before,
            "counter must advance by at least the interned slots"
        );
    }
}
