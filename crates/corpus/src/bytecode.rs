//! Flat bytecode register VM: the interpreter's fastest execution tier.
//!
//! The slot-compiled form in [`crate::compile`] removes name lookups and
//! body clones; walking it would still pay tree-recursion overhead on every
//! expression node: a `match` dispatch, a `tick()` branch, and a fresh
//! [`Value`] allocation per node. This module linearizes each compiled
//! function into a flat instruction stream executed over a dense register
//! file, which is where the remaining interpretation cost lives:
//!
//! * **Batched fuel guards** — the step budget is charged per statement and
//!   per expression node at *identical* points to the tree-walker, but in
//!   one [`Insn::Guard`] per statement instead of one branch per node.
//!   Expressions cannot change the environment mid-evaluation (calls are
//!   statements in MiniWeb), so the compiler pre-computes the pre-order
//!   tick count between consecutive variable reads and the guard replays
//!   `tick… check-var… tick…` exactly: `StepLimit` versus
//!   `UndefinedVariable` is decided on the same step as the oracle.
//! * **Superinstructions** for the generator's hot shapes:
//!   [`Insn::Concat`] flattens a whole `Concat` tree into one n-ary append
//!   (a single string allocation, left-to-right taint merge identical to
//!   the pairwise merge), and [`Insn::BranchCmpFalse`] fuses the
//!   `if (source == "literal")` gate guards into an allocation-free
//!   compare-and-branch over operand *views* (no boolean [`Value`] is ever
//!   built).
//! * **Register allocation** — operands are `Const` (literal pool), `Slot`
//!   (a named variable), `Reg` (an expression temporary, consumed by move),
//!   or `Source` (request input read on demand). Temporaries use a
//!   stack-discipline allocator reset per statement; loop-iteration
//!   counters are pinned registers below the temp floor. Frames come from
//!   the [`InterpScratch`] pool and are returned on success *and* on
//!   error.
//! * **Inline-cached calls** — call targets and arity are resolved at
//!   compile time; a resolved call site is a direct [`Insn::Call`] (an
//!   inline-cache *hit* when executed). Unresolvable or wrong-arity sites
//!   lower to [`Insn::CallUndefined`] / [`Insn::CallArityErr`] stubs that
//!   raise only if control reaches them — dead-guard shapes must compile
//!   and run, exactly like the reference interpreter — and count as
//!   *misses*.
//!
//! Per-session instruction and inline-cache totals are flushed to the
//! telemetry registry (`interp.vm.instructions`,
//! `interp.vm.inline_cache.{hits,misses}`) with the same always-live
//! counter pattern as `interp.env.interned_slots`.
//!
//! Equivalence with [`Interpreter::run_session_treewalk`] is bit-for-bit:
//! observations, errors, and the step at which limits fire. The two-tier
//! property suite in `crates/corpus/tests/kernel_equivalence.rs` enforces
//! it over generated corpora and attack sessions.

use crate::ast::{BinOp, SiteId};
use crate::compile::{
    take_frame, CExpr, CStmt, CallTarget, CompiledFunction, CompiledUnit, InterpScratch,
};
use crate::interp::{
    apply_sanitizer, apply_sanitizer_raw, eval_binop, Data, ExecError, Interpreter, Request,
    SinkObservation, SinkSet, TaintList, TaintTag, Value,
};
use crate::types::{SanitizerKind, SinkKind, SourceKind};
use std::fmt::Write as _;
use std::sync::Arc;

/// Flushes one session's VM totals to the process-wide telemetry registry.
/// Counter handles are resolved once and cached; recording is a relaxed
/// atomic add per counter (always live, like `interp.env.interned_slots`).
fn record_vm_session(instructions: u64, ic_hits: u64, ic_misses: u64) {
    use std::sync::{Arc, OnceLock};
    use vdbench_telemetry::registry::Counter;
    static INSNS: OnceLock<Arc<Counter>> = OnceLock::new();
    static HITS: OnceLock<Arc<Counter>> = OnceLock::new();
    static MISSES: OnceLock<Arc<Counter>> = OnceLock::new();
    if instructions > 0 {
        INSNS
            .get_or_init(|| vdbench_telemetry::registry::global().counter("interp.vm.instructions"))
            .add(instructions);
    }
    if ic_hits > 0 {
        HITS.get_or_init(|| {
            vdbench_telemetry::registry::global().counter("interp.vm.inline_cache.hits")
        })
        .add(ic_hits);
    }
    if ic_misses > 0 {
        MISSES
            .get_or_init(|| {
                vdbench_telemetry::registry::global().counter("interp.vm.inline_cache.misses")
            })
            .add(ic_misses);
    }
}

/// Where an instruction reads a value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Operand {
    /// Index into the function's literal pool (always untainted).
    Const(u32),
    /// A named variable's register (read by clone; the variable persists).
    Slot(u32),
    /// An expression temporary (read by move; produced and consumed once).
    Reg(u32),
    /// Index into the function's source table: the request input is read
    /// on demand, so trivial `Source` operands never build an intermediate
    /// [`Value`].
    Source(u32),
}

/// One `tick… check-var` run inside a [`Insn::Guard`]: charge `ticks`
/// steps (pre-order node count since the previous check, including the
/// variable's own node), then require `slot` to be defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GuardCheck {
    /// Steps to charge before the check.
    pub(crate) ticks: u32,
    /// Register that must be `Some` afterwards.
    pub(crate) slot: u32,
}

/// One VM instruction.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Insn {
    /// Batched fuel charge + undefined-variable checks for one statement
    /// (see the module docs for why batching preserves error order).
    Guard {
        /// Interleaved `tick`/check runs, in source pre-order.
        pre: Box<[GuardCheck]>,
        /// Steps to charge after the last check.
        tail: u32,
    },
    /// `dst = operand` (the lowering of `Assign` from a trivial
    /// expression, and of argument/return materialization).
    Copy {
        /// Destination register.
        dst: u32,
        /// Source operand.
        src: Operand,
    },
    /// n-ary concatenation superinstruction over a flattened `Concat`
    /// tree: one output string, pre-order taint merge.
    Concat {
        /// Destination register.
        dst: u32,
        /// Flattened parts, left to right. In `append` mode the leading
        /// `Var(dst)` leaf is elided from the list.
        parts: Box<[Operand]>,
        /// Accumulator mode: `dst = dst + parts…`. The destination's
        /// string buffer and taint set are stolen and appended in place,
        /// so `acc = acc + x` loop bodies never re-copy the accumulator.
        append: bool,
    },
    /// Apply a sanitizer to the operand.
    Sanitize {
        /// Destination register.
        dst: u32,
        /// Sanitizer to apply.
        kind: SanitizerKind,
        /// Input operand.
        src: Operand,
    },
    /// In-place counter arithmetic superinstruction: the lowering of
    /// `x = x ± <int>` (`x`'s taints survive unchanged, exactly as the
    /// pairwise merge with an untainted literal leaves them).
    AddConst {
        /// Register mutated in place.
        slot: u32,
        /// Literal operand (already coerced at compile time).
        delta: i64,
        /// `true` for `Sub`, `false` for `Add` (both wrapping).
        sub: bool,
    },
    /// Generic binary operation (the fused compare-branches cover the hot
    /// conditional uses; this remains for arithmetic and bound values).
    Binary {
        /// Destination register.
        dst: u32,
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// Read a persistent-store key (missing keys yield `""`).
    StoreRead {
        /// Destination register.
        dst: u32,
        /// Index into the function's key table.
        key: u32,
    },
    /// Write a persistent-store key.
    StoreWrite {
        /// Index into the function's key table.
        key: u32,
        /// Stored operand.
        src: Operand,
    },
    /// Security-sensitive sink: record a [`SinkObservation`].
    Sink {
        /// Sink kind.
        kind: SinkKind,
        /// Benchmark case id.
        site: SiteId,
        /// Observed operand.
        src: Operand,
    },
    /// Unconditional jump.
    Jump {
        /// Target instruction index.
        target: u32,
    },
    /// Jump when the operand is falsy (generic conditional).
    BranchFalse {
        /// Condition operand.
        cond: Operand,
        /// Target when falsy.
        target: u32,
    },
    /// Fused compare-and-branch superinstruction: evaluates
    /// `lhs op rhs` over operand views (no boolean `Value` allocated) and
    /// jumps when the comparison is false. Only `Eq`/`Ne`/`Lt`/`Gt`
    /// conditions lower to this form.
    BranchCmpFalse {
        /// Comparison operator.
        op: BinOp,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
        /// Target when the comparison is false.
        target: u32,
    },
    /// Whole-loop summarization of the generator's counting shape
    /// `while (x < <int>) { x = x + <int>; }`: the iteration count (under
    /// the runtime `max_loop_iters` backstop) is computed arithmetically,
    /// the exact oracle tick total is charged in one batch after the first
    /// variable check, and the final counter value is written once. Fires
    /// the same `StepLimit`/`UndefinedVariable` as iterating would —
    /// nothing else in the loop can fail or observe intermediate states.
    CountLoop {
        /// Counter register (read, checked, and rewritten in place).
        slot: u32,
        /// Loop bound (the `Lt` right-hand literal).
        limit: i64,
        /// Per-iteration increment (the body's `Add` literal; wrapping).
        delta: i64,
    },
    /// Zero a loop-iteration counter register.
    LoopReset {
        /// Counter register.
        reg: u32,
    },
    /// Bounded-loop backstop: increment the counter and exit the loop once
    /// it exceeds `max_loop_iters` (the tree-walker's silent `break`).
    LoopBound {
        /// Counter register.
        reg: u32,
        /// Loop-exit instruction index.
        exit: u32,
    },
    /// Call-depth check for a resolved, arity-correct call site; runs
    /// before the argument guard so `CallDepth` outranks argument errors
    /// exactly as in the oracle.
    EnterCall,
    /// Dispatch to a compile-time-resolved callee (inline-cache hit).
    Call {
        /// Callee index into [`CompiledUnit::functions`].
        callee: u32,
        /// Argument operands (parameters occupy registers `0..argc`).
        args: Box<[Operand]>,
        /// Destination register of the bound result, if any.
        dst: Option<u32>,
    },
    /// Deferred [`ExecError::UndefinedFunction`]: the unit defines no such
    /// function, but dead-guard shapes must only fail if executed
    /// (inline-cache miss).
    CallUndefined {
        /// The unresolvable callee name.
        name: Box<str>,
    },
    /// Deferred [`ExecError::ArityMismatch`], same dead-guard rationale
    /// (inline-cache miss).
    CallArityErr {
        /// Callee name.
        func: Box<str>,
        /// Declared parameter count.
        expected: u32,
        /// Supplied argument count.
        actual: u32,
    },
    /// Return from the current function.
    Return {
        /// Returned operand.
        src: Operand,
    },
}

/// One function lowered to bytecode: the instruction stream plus the
/// per-function pools its operands index into.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FuncCode {
    /// Register-file size: named slots, then loop counters and expression
    /// temporaries (high-water mark across the body).
    pub(crate) n_regs: usize,
    /// Literal pool (deduplicated, always untainted).
    pub(crate) consts: Vec<Value>,
    /// Source table: request surface + input name per `Source` operand.
    /// The name is interned as an `Arc<str>` so the taint tag built on
    /// every `Source` load shares it instead of allocating.
    pub(crate) sources: Vec<(SourceKind, Arc<str>)>,
    /// Persistent-store key table.
    pub(crate) keys: Vec<String>,
    /// The linearized body.
    pub(crate) code: Vec<Insn>,
}

// ---------------------------------------------------------------------------
// Compiler: CStmt/CExpr → Insn stream
// ---------------------------------------------------------------------------

/// Lowers one slot-compiled function to bytecode. `funcs` is the whole
/// unit (handler first) so resolved call sites can check arity at compile
/// time.
pub(crate) fn compile_fn(funcs: &[CompiledFunction], f: &CompiledFunction) -> FuncCode {
    let n_slots = u32::try_from(f.slot_names.len()).expect("slot count fits in u32");
    let mut reads = vec![0u32; f.slot_names.len()];
    collect_reads(&f.body, &mut reads);
    let mut c = FnCompiler {
        funcs,
        reads,
        loop_depth: 0,
        consts: Vec::new(),
        sources: Vec::new(),
        keys: Vec::new(),
        code: Vec::new(),
        floor: n_slots,
        next: n_slots,
        max: n_slots,
    };
    c.compile_block(&f.body);
    FuncCode {
        n_regs: c.max as usize,
        consts: c.consts,
        sources: c.sources,
        keys: c.keys,
        code: c.code,
    }
}

struct FnCompiler<'a> {
    funcs: &'a [CompiledFunction],
    /// Per-slot read counts across the whole function. Zero-read slots
    /// are dead stores: they keep their fuel guard (ticks and variable
    /// checks are observable) but skip the value computation — MiniWeb
    /// expressions are pure (calls are statements), so nothing else can
    /// tell. Single-read slots outside loops get their one read promoted
    /// to a consuming register read (the value moves instead of cloning).
    reads: Vec<u32>,
    /// How many `while` constructs enclose the code being lowered.
    /// Inside a loop a textual read can execute many times, so last-read
    /// promotion is disabled.
    loop_depth: u32,
    consts: Vec<Value>,
    sources: Vec<(SourceKind, Arc<str>)>,
    keys: Vec<String>,
    code: Vec<Insn>,
    /// First register available as an expression temporary: named slots
    /// plus any live loop counters sit below the floor.
    floor: u32,
    /// Next free temporary (stack discipline, reset per statement).
    next: u32,
    /// Register-file high-water mark.
    max: u32,
}

impl FnCompiler<'_> {
    fn alloc(&mut self) -> u32 {
        let r = self.next;
        self.next += 1;
        self.max = self.max.max(self.next);
        r
    }

    fn const_idx(&mut self, v: Value) -> u32 {
        let i = self.consts.iter().position(|c| *c == v).unwrap_or_else(|| {
            self.consts.push(v);
            self.consts.len() - 1
        });
        u32::try_from(i).expect("const pool fits in u32")
    }

    fn source_idx(&mut self, kind: SourceKind, name: &str) -> u32 {
        let i = self
            .sources
            .iter()
            .position(|(k, n)| *k == kind && &**n == name)
            .unwrap_or_else(|| {
                self.sources.push((kind, Arc::from(name)));
                self.sources.len() - 1
            });
        u32::try_from(i).expect("source table fits in u32")
    }

    fn key_idx(&mut self, key: &str) -> u32 {
        let i = self.keys.iter().position(|k| k == key).unwrap_or_else(|| {
            self.keys.push(key.to_string());
            self.keys.len() - 1
        });
        u32::try_from(i).expect("key table fits in u32")
    }

    /// Emits the statement's fuel guard: `base` statement ticks, then the
    /// pre-order tick/variable-check interleaving of `exprs`.
    fn emit_guard(&mut self, base: u32, exprs: &[&CExpr]) {
        if let Some(g) = guard_insn(base, exprs) {
            self.code.push(g);
        }
    }

    fn emit_jump_placeholder(&mut self) -> usize {
        let at = self.code.len();
        self.code.push(Insn::Jump { target: u32::MAX });
        at
    }

    /// Points a placeholder branch/jump at the *next* instruction index.
    fn patch_here(&mut self, at: usize) {
        let t = u32::try_from(self.code.len()).expect("code length fits in u32");
        match &mut self.code[at] {
            Insn::Jump { target }
            | Insn::BranchFalse { target, .. }
            | Insn::BranchCmpFalse { target, .. } => *target = t,
            Insn::LoopBound { exit, .. } => *exit = t,
            other => unreachable!("patched a non-branch instruction: {other:?}"),
        }
    }

    fn compile_block(&mut self, body: &[CStmt]) {
        for s in body {
            self.compile_stmt(s);
        }
    }

    fn compile_stmt(&mut self, stmt: &CStmt) {
        self.next = self.floor;
        match stmt {
            CStmt::Assign { slot, expr } => {
                self.emit_guard(1, &[expr]);
                if self.reads[*slot as usize] == 0 {
                    return; // dead store: fuel and checks charged, value unobservable
                }
                if let Some(insn) = counter_arith(*slot, expr) {
                    self.code.push(insn);
                    return;
                }
                self.compile_into(*slot, expr);
            }
            CStmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.emit_guard(1, &[cond]);
                if let Some(taken) = const_truthy(cond) {
                    // Constant condition: no runtime dispatch, but the dead
                    // branch still compiles (deferred call stubs and their
                    // shapes must survive) behind a static jump.
                    let (live, dead) = if taken {
                        (then_branch, else_branch)
                    } else {
                        (else_branch, then_branch)
                    };
                    self.compile_block(live);
                    if !dead.is_empty() {
                        let jend = self.emit_jump_placeholder();
                        self.compile_block(dead);
                        self.patch_here(jend);
                    }
                    return;
                }
                // Branches that lower to the *same* guard sequence (the
                // generator's `{ let x = 20 } else { let x = 0 }` filler
                // with `x` dead) don't need the condition dispatched at
                // all: either path charges identical fuel.
                if let (Some(tg), Some(eg)) =
                    (self.guards_only(then_branch), self.guards_only(else_branch))
                {
                    if tg == eg {
                        self.code.extend(tg);
                        return;
                    }
                }
                let jfalse = self.compile_branch_false(cond);
                self.compile_block(then_branch);
                if else_branch.is_empty() {
                    self.patch_here(jfalse);
                } else {
                    let jend = self.emit_jump_placeholder();
                    self.patch_here(jfalse);
                    self.compile_block(else_branch);
                    self.patch_here(jend);
                }
            }
            CStmt::While { cond, body } => {
                // One statement tick up front; the per-iteration cost is
                // the condition guard at the loop head.
                self.emit_guard(1, &[]);
                if let Some(insn) = count_loop(cond, body) {
                    self.code.push(insn);
                    return;
                }
                self.loop_depth += 1;
                let ctr = self.floor;
                self.floor += 1;
                self.next = self.floor;
                self.max = self.max.max(self.floor);
                self.code.push(Insn::LoopReset { reg: ctr });
                let head = u32::try_from(self.code.len()).expect("code length fits in u32");
                self.emit_guard(0, &[cond]);
                let jexit = self.compile_branch_false(cond);
                let bound = self.code.len();
                self.code.push(Insn::LoopBound {
                    reg: ctr,
                    exit: u32::MAX,
                });
                self.compile_block(body);
                self.code.push(Insn::Jump { target: head });
                self.patch_here(jexit);
                self.patch_here(bound);
                self.floor -= 1;
                self.loop_depth -= 1;
            }
            CStmt::Sink { kind, arg, site } => {
                self.emit_guard(1, &[arg]);
                let src = self.compile_operand(arg);
                self.code.push(Insn::Sink {
                    kind: *kind,
                    site: *site,
                    src,
                });
            }
            CStmt::Call { dst, target, args } => {
                self.emit_guard(1, &[]);
                match target {
                    CallTarget::Undefined(name) => {
                        self.code.push(Insn::CallUndefined {
                            name: name.as_str().into(),
                        });
                    }
                    CallTarget::Resolved(idx) => {
                        let callee = &self.funcs[*idx as usize];
                        if callee.n_params == args.len() {
                            self.code.push(Insn::EnterCall);
                            let refs: Vec<&CExpr> = args.iter().collect();
                            self.emit_guard(0, &refs);
                            let ops: Vec<Operand> =
                                args.iter().map(|a| self.compile_operand(a)).collect();
                            self.code.push(Insn::Call {
                                callee: *idx,
                                args: ops.into(),
                                dst: *dst,
                            });
                        } else {
                            self.code.push(Insn::CallArityErr {
                                func: callee.name.as_str().into(),
                                expected: u32::try_from(callee.n_params)
                                    .expect("param count fits in u32"),
                                actual: u32::try_from(args.len()).expect("arg count fits in u32"),
                            });
                        }
                    }
                }
            }
            CStmt::Return(expr) => {
                self.emit_guard(1, &[expr]);
                let src = self.compile_operand(expr);
                self.code.push(Insn::Return { src });
            }
            CStmt::StoreWrite { key, expr } => {
                self.emit_guard(1, &[expr]);
                let src = self.compile_operand(expr);
                let key = self.key_idx(key);
                self.code.push(Insn::StoreWrite { key, src });
            }
        }
    }

    /// Returns the guard-only lowering of a block, if the block reduces to
    /// pure fuel accounting: every statement a dead store. Used to fold
    /// branches whose arms differ only in values nobody reads.
    fn guards_only(&self, body: &[CStmt]) -> Option<Vec<Insn>> {
        let mut out = Vec::new();
        for s in body {
            match s {
                CStmt::Assign { slot, expr } if self.reads[*slot as usize] == 0 => {
                    if let Some(g) = guard_insn(1, &[expr]) {
                        out.push(g);
                    }
                }
                _ => return None,
            }
        }
        Some(out)
    }

    /// Lowers a condition to a falsy-branch, fusing `Eq`/`Ne`/`Lt`/`Gt`
    /// comparisons into [`Insn::BranchCmpFalse`]. Returns the placeholder
    /// index for the caller to patch.
    fn compile_branch_false(&mut self, cond: &CExpr) -> usize {
        match cond {
            CExpr::BinOp {
                op: op @ (BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Gt),
                lhs,
                rhs,
            } => {
                let lhs = self.compile_operand(lhs);
                let rhs = self.compile_operand(rhs);
                let at = self.code.len();
                self.code.push(Insn::BranchCmpFalse {
                    op: *op,
                    lhs,
                    rhs,
                    target: u32::MAX,
                });
                at
            }
            other => {
                let cond = self.compile_operand(other);
                let at = self.code.len();
                self.code.push(Insn::BranchFalse {
                    cond,
                    target: u32::MAX,
                });
                at
            }
        }
    }

    /// Compiles an expression to an operand, emitting compute instructions
    /// for non-trivial nodes. Temporaries released by sub-expressions are
    /// reused for the result register.
    fn compile_operand(&mut self, e: &CExpr) -> Operand {
        match e {
            CExpr::Int(i) => Operand::Const(self.const_idx(Value::untainted(Data::Int(*i)))),
            CExpr::Str(s) => Operand::Const(self.const_idx(Value::untainted(Data::Str(s.clone())))),
            CExpr::Bool(b) => Operand::Const(self.const_idx(Value::untainted(Data::Bool(*b)))),
            // Last-read promotion: the sole read of a slot, outside any
            // loop, executes at most once per frame — lower it as a
            // consuming register read so the value moves instead of
            // cloning. Definedness is still enforced by the statement's
            // guard, which is keyed on the expression, not the operand.
            CExpr::Var(slot) if self.loop_depth == 0 && self.reads[*slot as usize] == 1 => {
                Operand::Reg(*slot)
            }
            CExpr::Var(slot) => Operand::Slot(*slot),
            CExpr::Source { kind, name } => Operand::Source(self.source_idx(*kind, name)),
            complex => {
                let mark = self.next;
                let parts = self.compile_complex_parts(complex);
                self.next = mark;
                let dst = self.alloc();
                self.emit_complex(dst, complex, parts);
                Operand::Reg(dst)
            }
        }
    }

    /// Compiles an expression directly into a destination register
    /// (assignment lowering: no trailing `Copy` for complex right-hand
    /// sides). Reading the destination as a part operand is safe because
    /// every instruction materializes its inputs before writing `dst`.
    fn compile_into(&mut self, dst: u32, e: &CExpr) {
        match e {
            CExpr::Int(_)
            | CExpr::Str(_)
            | CExpr::Bool(_)
            | CExpr::Var(_)
            | CExpr::Source { .. } => {
                let src = self.compile_operand(e);
                self.code.push(Insn::Copy { dst, src });
            }
            CExpr::Concat(..) => {
                let mut leaves = Vec::new();
                flatten_concat(e, &mut leaves);
                // `acc = acc + …` accumulator chains append into the
                // destination's own buffer when nothing else reads it.
                let is_dst = |l: &&CExpr| matches!(l, CExpr::Var(s) if *s == dst);
                let append = is_dst(&leaves[0]) && !leaves[1..].iter().any(is_dst);
                if append {
                    leaves.remove(0);
                }
                let mark = self.next;
                let parts: Vec<Operand> = leaves.iter().map(|l| self.compile_operand(l)).collect();
                self.next = mark;
                self.code.push(Insn::Concat {
                    dst,
                    parts: parts.into(),
                    append,
                });
            }
            complex => {
                let mark = self.next;
                let parts = self.compile_complex_parts(complex);
                self.next = mark;
                self.emit_complex(dst, complex, parts);
            }
        }
    }

    /// Compiles the sub-operands of a non-trivial expression (in source
    /// order, so guard pre-order and runtime order agree).
    fn compile_complex_parts(&mut self, e: &CExpr) -> Vec<Operand> {
        match e {
            CExpr::Concat(..) => {
                let mut leaves = Vec::new();
                flatten_concat(e, &mut leaves);
                leaves.iter().map(|l| self.compile_operand(l)).collect()
            }
            CExpr::Sanitize { arg, .. } => vec![self.compile_operand(arg)],
            CExpr::BinOp { lhs, rhs, .. } => {
                vec![self.compile_operand(lhs), self.compile_operand(rhs)]
            }
            CExpr::StoreRead { .. } => Vec::new(),
            trivial => unreachable!("trivial expression compiled as complex: {trivial:?}"),
        }
    }

    fn emit_complex(&mut self, dst: u32, e: &CExpr, mut parts: Vec<Operand>) {
        match e {
            CExpr::Concat(..) => self.code.push(Insn::Concat {
                dst,
                parts: parts.into(),
                append: false,
            }),
            CExpr::Sanitize { kind, .. } => self.code.push(Insn::Sanitize {
                dst,
                kind: *kind,
                src: parts.pop().expect("sanitize has one operand"),
            }),
            CExpr::BinOp { op, .. } => {
                let rhs = parts.pop().expect("binop has two operands");
                let lhs = parts.pop().expect("binop has two operands");
                self.code.push(Insn::Binary {
                    dst,
                    op: *op,
                    lhs,
                    rhs,
                });
            }
            CExpr::StoreRead { key } => {
                let key = self.key_idx(key);
                self.code.push(Insn::StoreRead { dst, key });
            }
            trivial => unreachable!("trivial expression compiled as complex: {trivial:?}"),
        }
    }
}

/// Collects the leaves of a `Concat` tree left to right (a leaf is any
/// non-`Concat` expression). Flattening preserves both the rendered bytes
/// (string concatenation is associative) and the taint-merge order (the
/// pairwise merge dedups against everything kept so far, which is exactly
/// the flat left-to-right merge).
fn flatten_concat<'e>(e: &'e CExpr, leaves: &mut Vec<&'e CExpr>) {
    match e {
        CExpr::Concat(a, b) => {
            flatten_concat(a, leaves);
            flatten_concat(b, leaves);
        }
        leaf => leaves.push(leaf),
    }
}

/// Builds a statement's fuel-guard instruction (`base` statement ticks,
/// then the pre-order tick/check interleaving of `exprs`), or `None` when
/// there is nothing to charge (zero-argument call guards).
fn guard_insn(base: u32, exprs: &[&CExpr]) -> Option<Insn> {
    let mut pre = Vec::new();
    let mut acc = base;
    for e in exprs {
        guard_walk(e, &mut acc, &mut pre);
    }
    if pre.is_empty() && acc == 0 {
        return None;
    }
    Some(Insn::Guard {
        pre: pre.into(),
        tail: acc,
    })
}

/// Marks every slot an expression reads.
fn expr_reads(e: &CExpr, reads: &mut [u32]) {
    match e {
        CExpr::Var(slot) => reads[*slot as usize] = reads[*slot as usize].saturating_add(1),
        CExpr::Concat(a, b) => {
            expr_reads(a, reads);
            expr_reads(b, reads);
        }
        CExpr::Sanitize { arg, .. } => expr_reads(arg, reads),
        CExpr::BinOp { lhs, rhs, .. } => {
            expr_reads(lhs, reads);
            expr_reads(rhs, reads);
        }
        CExpr::Int(_)
        | CExpr::Str(_)
        | CExpr::Bool(_)
        | CExpr::Source { .. }
        | CExpr::StoreRead { .. } => {}
    }
}

/// Collects the function-wide slot read set driving dead-store
/// elimination (writes don't count; a slot only the writer mentions is
/// dead).
fn collect_reads(body: &[CStmt], reads: &mut [u32]) {
    for s in body {
        match s {
            CStmt::Assign { expr, .. } | CStmt::Return(expr) | CStmt::StoreWrite { expr, .. } => {
                expr_reads(expr, reads);
            }
            CStmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                expr_reads(cond, reads);
                collect_reads(then_branch, reads);
                collect_reads(else_branch, reads);
            }
            CStmt::While { cond, body } => {
                expr_reads(cond, reads);
                collect_reads(body, reads);
            }
            CStmt::Sink { arg, .. } => expr_reads(arg, reads),
            CStmt::Call { args, .. } => {
                for a in args {
                    expr_reads(a, reads);
                }
            }
        }
    }
}

/// Matches the in-place counter lowering `slot = slot ± <int>`.
fn counter_arith(slot: u32, expr: &CExpr) -> Option<Insn> {
    let CExpr::BinOp {
        op: op @ (BinOp::Add | BinOp::Sub),
        lhs,
        rhs,
    } = expr
    else {
        return None;
    };
    match (&**lhs, &**rhs) {
        (CExpr::Var(s), CExpr::Int(delta)) if *s == slot => Some(Insn::AddConst {
            slot,
            delta: *delta,
            sub: matches!(op, BinOp::Sub),
        }),
        _ => None,
    }
}

/// Evaluates an expression built purely from literals (taints cannot
/// arise, and `eval_binop` is deterministic) for branch folding.
fn const_value(e: &CExpr) -> Option<Value> {
    match e {
        CExpr::Int(i) => Some(Value::untainted(Data::Int(*i))),
        CExpr::Str(s) => Some(Value::untainted(Data::Str(s.clone()))),
        CExpr::Bool(b) => Some(Value::untainted(Data::Bool(*b))),
        CExpr::BinOp { op, lhs, rhs } => {
            Some(eval_binop(*op, const_value(lhs)?, const_value(rhs)?))
        }
        _ => None,
    }
}

fn const_truthy(e: &CExpr) -> Option<bool> {
    const_value(e).map(|v| v.truthy())
}

/// Matches the generator's bounded counting loop
/// `while (x < <int>) { x = x + <int>; }` for [`Insn::CountLoop`]
/// summarization. The body must be exactly the counter update — any other
/// statement could observe intermediate states or fail mid-loop.
fn count_loop(cond: &CExpr, body: &[CStmt]) -> Option<Insn> {
    let CExpr::BinOp {
        op: BinOp::Lt,
        lhs,
        rhs,
    } = cond
    else {
        return None;
    };
    let (CExpr::Var(s), CExpr::Int(limit)) = (&**lhs, &**rhs) else {
        return None;
    };
    let [CStmt::Assign { slot, expr }] = body else {
        return None;
    };
    if slot != s {
        return None;
    }
    let CExpr::BinOp {
        op: BinOp::Add,
        lhs: blhs,
        rhs: brhs,
    } = expr
    else {
        return None;
    };
    match (&**blhs, &**brhs) {
        (CExpr::Var(bs), CExpr::Int(delta)) if bs == s => Some(Insn::CountLoop {
            slot: *s,
            limit: *limit,
            delta: *delta,
        }),
        _ => None,
    }
}

/// Pre-order tick/check walk used by [`FnCompiler::emit_guard`]: every
/// node costs one tick; a `Var` node additionally requires its slot to be
/// defined immediately after its own tick.
fn guard_walk(e: &CExpr, acc: &mut u32, pre: &mut Vec<GuardCheck>) {
    *acc += 1;
    match e {
        CExpr::Var(slot) => {
            pre.push(GuardCheck {
                ticks: *acc,
                slot: *slot,
            });
            *acc = 0;
        }
        CExpr::Concat(a, b) => {
            guard_walk(a, acc, pre);
            guard_walk(b, acc, pre);
        }
        CExpr::Sanitize { arg, .. } => guard_walk(arg, acc, pre),
        CExpr::BinOp { lhs, rhs, .. } => {
            guard_walk(lhs, acc, pre);
            guard_walk(rhs, acc, pre);
        }
        CExpr::Int(_)
        | CExpr::Str(_)
        | CExpr::Bool(_)
        | CExpr::Source { .. }
        | CExpr::StoreRead { .. } => {}
    }
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// Runs a session through the bytecode tier (the implementation behind
/// [`Interpreter::run_compiled`]). Frames — including every callee frame
/// on the error path — are returned to the scratch pool.
pub(crate) fn run_vm(
    interp: &Interpreter,
    unit: &CompiledUnit,
    requests: &[Request],
    scratch: &mut InterpScratch,
) -> Result<Vec<SinkObservation>, ExecError> {
    scratch.store.clear();
    let mut observations = Vec::new();
    let mut instructions = 0u64;
    let mut ic_hits = 0u64;
    let mut ic_misses = 0u64;
    let mut failure = None;
    for request in requests {
        let mut env = take_frame(&mut scratch.frames, unit.code[0].n_regs);
        let res = {
            let mut vm = Vm {
                interp,
                request,
                observations: &mut observations,
                store: &mut scratch.store,
                frames: &mut scratch.frames,
                steps: 0,
                executed: 0,
                ic_hits: 0,
                ic_misses: 0,
            };
            let res = vm.exec(unit, 0, &mut env, 0);
            instructions += vm.executed;
            ic_hits += vm.ic_hits;
            ic_misses += vm.ic_misses;
            res
        };
        scratch.frames.push(env);
        if let Err(e) = res {
            failure = Some(e);
            break;
        }
    }
    record_vm_session(instructions, ic_hits, ic_misses);
    match failure {
        Some(e) => Err(e),
        None => Ok(observations),
    }
}

/// A borrowed read of an operand: either an existing [`Value`] or a raw
/// request input (semantically an untainted-*string* view; its taint tag
/// is materialized only where taints matter).
enum View<'a> {
    Val(&'a Value),
    Raw(&'a str),
}

impl View<'_> {
    fn is_str(&self) -> bool {
        match self {
            View::Raw(_) => true,
            View::Val(v) => matches!(v.data, Data::Str(_)),
        }
    }

    fn as_int(&self) -> i64 {
        match self {
            View::Raw(s) => s.trim().parse().unwrap_or(0),
            View::Val(v) => v.as_int(),
        }
    }

    fn str_slice(&self) -> Option<&str> {
        match self {
            View::Raw(s) => Some(s),
            View::Val(v) => match &v.data {
                Data::Str(s) => Some(s),
                Data::Int(_) | Data::Bool(_) => None,
            },
        }
    }

    fn render(&self) -> String {
        match self {
            View::Raw(s) => (*s).to_string(),
            View::Val(v) => v.render(),
        }
    }

    fn truthy(&self) -> bool {
        match self {
            View::Raw(s) => !s.is_empty(),
            View::Val(v) => v.truthy(),
        }
    }
}

/// `Eq` with the reference coercion rule: compare as strings when either
/// side is a string, otherwise numerically.
fn views_eq(a: &View<'_>, b: &View<'_>) -> bool {
    if !(a.is_str() || b.is_str()) {
        return a.as_int() == b.as_int();
    }
    match (a.str_slice(), b.str_slice()) {
        (Some(x), Some(y)) => x == y,
        (Some(x), None) => x == b.render(),
        (None, Some(y)) => a.render() == y,
        (None, None) => a.render() == b.render(),
    }
}

/// Sanitizes a borrowed value (slot or literal-pool operand): string data
/// feeds the sanitizer core without the rendered clone `apply_sanitizer`
/// would make, and taints are cloned only when the sanitizer keeps them.
fn sanitize_ref(kind: SanitizerKind, v: &Value) -> Value {
    match &v.data {
        Data::Str(s) => apply_sanitizer_raw(kind, s, || v.taints.clone()),
        d @ (Data::Int(_) | Data::Bool(_)) => {
            let mut r = String::new();
            push_render(&mut r, d);
            apply_sanitizer_raw(kind, &r, || v.taints.clone())
        }
    }
}

/// Appends a value's rendering without allocating an intermediate string.
fn push_render(out: &mut String, d: &Data) {
    match d {
        Data::Str(s) => out.push_str(s),
        Data::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Data::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// Per-request VM state. `env` travels as an explicit parameter (one
/// register file per activation) so recursion borrows cleanly.
struct Vm<'a> {
    interp: &'a Interpreter,
    request: &'a Request,
    observations: &'a mut Vec<SinkObservation>,
    store: &'a mut std::collections::BTreeMap<String, Value>,
    frames: &'a mut Vec<Vec<Option<Value>>>,
    steps: usize,
    executed: u64,
    ic_hits: u64,
    ic_misses: u64,
}

impl Vm<'_> {
    fn view<'v>(&'v self, fcode: &'v FuncCode, env: &'v [Option<Value>], op: Operand) -> View<'v> {
        match op {
            Operand::Const(i) => View::Val(&fcode.consts[i as usize]),
            Operand::Slot(i) | Operand::Reg(i) => {
                View::Val(env[i as usize].as_ref().expect("operand checked by guard"))
            }
            Operand::Source(i) => {
                let (kind, name) = &fcode.sources[i as usize];
                View::Raw(self.request.get(*kind, name))
            }
        }
    }

    /// Produces an owned [`Value`] for an operand: constants and slots
    /// clone, temporaries move, sources build their tagged value.
    fn materialize(&self, fcode: &FuncCode, env: &mut [Option<Value>], op: Operand) -> Value {
        match op {
            Operand::Const(i) => fcode.consts[i as usize].clone(),
            Operand::Slot(i) => env[i as usize]
                .as_ref()
                .expect("operand checked by guard")
                .clone(),
            Operand::Reg(i) => env[i as usize].take().expect("temporary produced upstream"),
            Operand::Source(i) => {
                let (kind, name) = &fcode.sources[i as usize];
                Value {
                    data: Data::Str(self.request.get(*kind, name).to_string()),
                    taints: TaintList::one(TaintTag {
                        kind: *kind,
                        name: name.clone(),
                        sanitized_for: SinkSet::new(),
                    }),
                }
            }
        }
    }

    fn exec_concat(
        &mut self,
        fcode: &FuncCode,
        env: &mut [Option<Value>],
        dst: u32,
        parts: &[Operand],
        append: bool,
    ) {
        // The accumulator (append mode) or a leading temporary donates its
        // buffer and taint set; everything else appends into it.
        let take_base = |v: Value| -> (String, TaintList) {
            let Value { data, taints } = v;
            let s = match data {
                Data::Str(s) => s,
                d => {
                    let mut s = String::new();
                    push_render(&mut s, &d);
                    s
                }
            };
            (s, taints)
        };
        let (mut out, mut taints, rest) = if append {
            let v = env[dst as usize]
                .take()
                .expect("accumulator checked by guard");
            let (s, t) = take_base(v);
            (s, t, parts)
        } else if let Some((&Operand::Reg(i), rest)) = parts.split_first() {
            let v = env[i as usize].take().expect("temporary produced upstream");
            let (s, t) = take_base(v);
            (s, t, rest)
        } else {
            (String::new(), TaintList::None, parts)
        };
        // Size the output once up front (estimates for non-string data;
        // only capacity, never content, depends on them).
        let mut est = 0usize;
        for &p in rest {
            est += match self.view(fcode, env, p) {
                View::Raw(s) => s.len(),
                View::Val(v) => match &v.data {
                    Data::Str(s) => s.len(),
                    Data::Int(_) => 12,
                    Data::Bool(_) => 5,
                },
            };
        }
        out.reserve(est);
        for &p in rest {
            match p {
                Operand::Reg(i) => {
                    let v = env[i as usize].take().expect("temporary produced upstream");
                    push_render(&mut out, &v.data);
                    for t in v.taints {
                        if !taints.contains(&t) {
                            taints.push(t);
                        }
                    }
                }
                Operand::Slot(i) => {
                    let v = env[i as usize].as_ref().expect("operand checked by guard");
                    push_render(&mut out, &v.data);
                    for t in &v.taints {
                        if !taints.contains(t) {
                            taints.push(t.clone());
                        }
                    }
                }
                Operand::Const(i) => {
                    // Literal-pool values carry no taints by construction.
                    push_render(&mut out, &fcode.consts[i as usize].data);
                }
                Operand::Source(i) => {
                    let (kind, name) = &fcode.sources[i as usize];
                    out.push_str(self.request.get(*kind, name));
                    let tag = TaintTag {
                        kind: *kind,
                        name: name.clone(),
                        sanitized_for: SinkSet::new(),
                    };
                    if !taints.contains(&tag) {
                        taints.push(tag);
                    }
                }
            }
        }
        env[dst as usize] = Some(Value {
            data: Data::Str(out),
            taints,
        });
    }

    fn exec_sink(
        &mut self,
        fcode: &FuncCode,
        env: &mut [Option<Value>],
        kind: SinkKind,
        site: SiteId,
        src: Operand,
    ) {
        match src {
            Operand::Reg(i) => {
                // The temporary is consumed here: destructure it so the
                // rendered string and offending names move instead of
                // cloning.
                let v = env[i as usize].take().expect("temporary produced upstream");
                let tainted = v.tainted_for(kind);
                let Value { data, taints } = v;
                let offending = taints
                    .into_iter()
                    .filter(|t| !t.sanitized_for.contains(kind))
                    .map(|t| t.name.to_string())
                    .collect();
                let rendered = match data {
                    Data::Str(s) => s,
                    Data::Int(i) => i.to_string(),
                    Data::Bool(b) => b.to_string(),
                };
                self.observations.push(SinkObservation {
                    site,
                    kind,
                    rendered,
                    tainted,
                    offending_sources: offending,
                });
            }
            Operand::Slot(i) => {
                let v = env[i as usize].as_ref().expect("operand checked by guard");
                self.observe_ref(kind, site, v);
            }
            Operand::Const(i) => {
                let v = &fcode.consts[i as usize];
                self.observe_ref(kind, site, v);
            }
            Operand::Source(i) => {
                // A bare source at a sink: fresh tag, never sanitized.
                let (skind, name) = &fcode.sources[i as usize];
                let raw = self.request.get(*skind, name);
                self.observations.push(SinkObservation {
                    site,
                    kind,
                    rendered: raw.to_string(),
                    tainted: kind.is_taint_sink(),
                    offending_sources: vec![name.to_string()],
                });
            }
        }
    }

    fn observe_ref(&mut self, kind: SinkKind, site: SiteId, v: &Value) {
        let offending = v
            .taints
            .iter()
            .filter(|t| !t.sanitized_for.contains(kind))
            .map(|t| t.name.to_string())
            .collect();
        self.observations.push(SinkObservation {
            site,
            kind,
            rendered: v.render(),
            tainted: v.tainted_for(kind),
            offending_sources: offending,
        });
    }

    fn cmp(
        &self,
        fcode: &FuncCode,
        env: &[Option<Value>],
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
    ) -> bool {
        let a = self.view(fcode, env, lhs);
        let b = self.view(fcode, env, rhs);
        match op {
            BinOp::Eq => views_eq(&a, &b),
            BinOp::Ne => !views_eq(&a, &b),
            BinOp::Lt => a.as_int() < b.as_int(),
            BinOp::Gt => a.as_int() > b.as_int(),
            BinOp::Add | BinOp::Sub => {
                unreachable!("arithmetic is never fused into a compare-branch")
            }
        }
    }

    #[allow(clippy::too_many_lines)] // the dispatch loop is one flat match by design
    fn exec(
        &mut self,
        unit: &CompiledUnit,
        fidx: usize,
        env: &mut [Option<Value>],
        depth: usize,
    ) -> Result<Option<Value>, ExecError> {
        let fcode = &unit.code[fidx];
        let code = &fcode.code[..];
        let mut pc = 0usize;
        while let Some(insn) = code.get(pc) {
            self.executed += 1;
            match insn {
                Insn::Guard { pre, tail } => {
                    for c in pre.iter() {
                        self.steps += c.ticks as usize;
                        if self.steps > self.interp.max_steps {
                            return Err(ExecError::StepLimit);
                        }
                        if env[c.slot as usize].is_none() {
                            return Err(ExecError::UndefinedVariable(
                                unit.functions[fidx].slot_names[c.slot as usize].clone(),
                            ));
                        }
                    }
                    if *tail > 0 {
                        self.steps += *tail as usize;
                        if self.steps > self.interp.max_steps {
                            return Err(ExecError::StepLimit);
                        }
                    }
                }
                Insn::Copy { dst, src } => {
                    let v = self.materialize(fcode, env, *src);
                    env[*dst as usize] = Some(v);
                }
                Insn::Concat { dst, parts, append } => {
                    self.exec_concat(fcode, env, *dst, parts, *append);
                }
                Insn::Sanitize { dst, kind, src } => {
                    let v = match *src {
                        // Source shapes go straight from the raw request
                        // string through the sanitizer core: the tagged
                        // input Value (and for the validating sanitizers,
                        // even its taint vec) is never built.
                        Operand::Source(i) => {
                            let (skind, name) = &fcode.sources[i as usize];
                            let raw = self.request.get(*skind, name);
                            apply_sanitizer_raw(*kind, raw, || {
                                TaintList::one(TaintTag {
                                    kind: *skind,
                                    name: name.clone(),
                                    sanitized_for: SinkSet::new(),
                                })
                            })
                        }
                        Operand::Reg(i) => apply_sanitizer(
                            *kind,
                            env[i as usize].take().expect("temporary produced upstream"),
                        ),
                        Operand::Slot(i) => sanitize_ref(
                            *kind,
                            env[i as usize].as_ref().expect("operand checked by guard"),
                        ),
                        Operand::Const(i) => sanitize_ref(*kind, &fcode.consts[i as usize]),
                    };
                    env[*dst as usize] = Some(v);
                }
                Insn::AddConst { slot, delta, sub } => {
                    let v = env[*slot as usize]
                        .as_mut()
                        .expect("operand checked by guard");
                    let a = v.as_int();
                    v.data = Data::Int(if *sub {
                        a.wrapping_sub(*delta)
                    } else {
                        a.wrapping_add(*delta)
                    });
                    // Taints survive in place: merging with an untainted
                    // literal leaves the left side's tags unchanged.
                }
                Insn::Binary { dst, op, lhs, rhs } => {
                    let a = self.materialize(fcode, env, *lhs);
                    let b = self.materialize(fcode, env, *rhs);
                    env[*dst as usize] = Some(eval_binop(*op, a, b));
                }
                Insn::StoreRead { dst, key } => {
                    let v = self
                        .store
                        .get(&fcode.keys[*key as usize])
                        .cloned()
                        .unwrap_or_else(|| Value::untainted(Data::Str(String::new())));
                    env[*dst as usize] = Some(v);
                }
                Insn::StoreWrite { key, src } => {
                    let v = self.materialize(fcode, env, *src);
                    self.store.insert(fcode.keys[*key as usize].clone(), v);
                }
                Insn::Sink { kind, site, src } => self.exec_sink(fcode, env, *kind, *site, *src),
                Insn::Jump { target } => {
                    pc = *target as usize;
                    continue;
                }
                Insn::BranchFalse { cond, target } => {
                    if !self.view(fcode, env, *cond).truthy() {
                        pc = *target as usize;
                        continue;
                    }
                }
                Insn::BranchCmpFalse {
                    op,
                    lhs,
                    rhs,
                    target,
                } => {
                    if !self.cmp(fcode, env, *op, *lhs, *rhs) {
                        pc = *target as usize;
                        continue;
                    }
                }
                Insn::CountLoop { slot, limit, delta } => {
                    // Condition eval #1 pre-order: BinOp tick, Var tick,
                    // then the only variable check the loop can fail.
                    self.steps += 2;
                    if self.steps > self.interp.max_steps {
                        return Err(ExecError::StepLimit);
                    }
                    let Some(v) = env[*slot as usize].as_mut() else {
                        return Err(ExecError::UndefinedVariable(
                            unit.functions[fidx].slot_names[*slot as usize].clone(),
                        ));
                    };
                    // Replay the oracle's iteration structure on plain
                    // integers: each round evaluates the condition, breaks
                    // on the `max_loop_iters` backstop, then runs the
                    // counter update. `as_int` coercion only matters on
                    // the first round; afterwards the counter is an Int.
                    let mut a = v.as_int();
                    let max_iters = self.interp.max_loop_iters;
                    let mut cond_evals: usize = 1;
                    let mut body_execs: usize = 0;
                    while a < *limit {
                        if body_execs + 1 > max_iters {
                            break;
                        }
                        a = a.wrapping_add(*delta);
                        body_execs += 1;
                        cond_evals += 1;
                    }
                    // Exact oracle tick total: 3 per condition eval
                    // (BinOp, Var, Int — 2 already charged), 4 per body
                    // run (stmt, BinOp, Var, Int).
                    let remaining = cond_evals * 3 - 2 + body_execs * 4;
                    self.steps += remaining;
                    if self.steps > self.interp.max_steps {
                        return Err(ExecError::StepLimit);
                    }
                    if body_execs > 0 {
                        v.data = Data::Int(a);
                    }
                }
                Insn::LoopReset { reg } => {
                    env[*reg as usize] = Some(Value::untainted(Data::Int(0)));
                }
                Insn::LoopBound { reg, exit } => {
                    let iters = 1 + match &env[*reg as usize] {
                        Some(Value {
                            data: Data::Int(i), ..
                        }) => *i,
                        _ => 0,
                    };
                    if usize::try_from(iters).unwrap_or(usize::MAX) > self.interp.max_loop_iters {
                        pc = *exit as usize;
                        continue;
                    }
                    env[*reg as usize] = Some(Value::untainted(Data::Int(iters)));
                }
                Insn::EnterCall => {
                    if depth + 1 > self.interp.max_call_depth {
                        return Err(ExecError::CallDepth);
                    }
                }
                Insn::CallUndefined { name } => {
                    if depth + 1 > self.interp.max_call_depth {
                        return Err(ExecError::CallDepth);
                    }
                    self.ic_misses += 1;
                    return Err(ExecError::UndefinedFunction(name.to_string()));
                }
                Insn::CallArityErr {
                    func,
                    expected,
                    actual,
                } => {
                    if depth + 1 > self.interp.max_call_depth {
                        return Err(ExecError::CallDepth);
                    }
                    self.ic_misses += 1;
                    return Err(ExecError::ArityMismatch {
                        func: func.to_string(),
                        expected: *expected as usize,
                        actual: *actual as usize,
                    });
                }
                Insn::Call { callee, args, dst } => {
                    self.ic_hits += 1;
                    let cidx = *callee as usize;
                    let mut frame = take_frame(self.frames, unit.code[cidx].n_regs);
                    for (i, a) in args.iter().enumerate() {
                        frame[i] = Some(self.materialize(fcode, env, *a));
                    }
                    let res = self.exec(unit, cidx, &mut frame, depth + 1);
                    // The frame returns to the pool on success *and* error.
                    self.frames.push(frame);
                    let ret = res?;
                    if let Some(dst) = dst {
                        env[*dst as usize] =
                            Some(ret.unwrap_or_else(|| Value::untainted(Data::Str(String::new()))));
                    }
                }
                Insn::Return { src } => {
                    let v = self.materialize(fcode, env, *src);
                    return Ok(Some(v));
                }
            }
            pc += 1;
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, Function, Stmt, Unit};

    fn unit(body: Vec<Stmt>, helpers: Vec<Function>) -> Unit {
        Unit {
            id: 0,
            handler: Function::new("handler", vec![], body),
            helpers,
        }
    }

    fn compile(u: &Unit) -> CompiledUnit {
        CompiledUnit::compile(u)
    }

    fn param(name: &str) -> Expr {
        Expr::Source {
            kind: SourceKind::HttpParam,
            name: name.into(),
        }
    }

    #[test]
    fn concat_trees_flatten_into_one_superinstruction() {
        // sink(("SELECT " + id) + " FROM t"): the whole tree must lower to
        // a single n-ary Concat with the parts in source order.
        let u = unit(
            vec![Stmt::Sink {
                kind: SinkKind::SqlQuery,
                arg: Expr::concat(
                    Expr::concat(Expr::str("SELECT "), param("id")),
                    Expr::str(" FROM t"),
                ),
                site: SiteId { unit: 0, sink: 0 },
            }],
            vec![],
        );
        let c = compile(&u);
        let concats: Vec<_> = c.code[0]
            .code
            .iter()
            .filter_map(|i| match i {
                Insn::Concat { parts, .. } => Some(parts.len()),
                _ => None,
            })
            .collect();
        assert_eq!(concats, vec![3], "one 3-part superinstruction expected");
    }

    #[test]
    fn comparison_gates_fuse_into_branch_cmp() {
        // if (mode == "debug") { sink }: the gate must not allocate a
        // boolean Value — it lowers to a fused compare-branch over views.
        let u = unit(
            vec![Stmt::If {
                cond: Expr::BinOp {
                    op: BinOp::Eq,
                    lhs: Box::new(param("mode")),
                    rhs: Box::new(Expr::str("debug")),
                },
                then_branch: vec![Stmt::Sink {
                    kind: SinkKind::HtmlOutput,
                    arg: Expr::str("debug mode"),
                    site: SiteId { unit: 0, sink: 0 },
                }],
                else_branch: vec![],
            }],
            vec![],
        );
        let c = compile(&u);
        assert!(
            c.code[0]
                .code
                .iter()
                .any(|i| matches!(i, Insn::BranchCmpFalse { op: BinOp::Eq, .. })),
            "expected a fused compare-branch, got {:?}",
            c.code[0].code
        );
        assert!(
            !c.code[0]
                .code
                .iter()
                .any(|i| matches!(i, Insn::Binary { .. })),
            "gate comparison must not fall back to a generic Binary"
        );
    }

    #[test]
    fn unresolved_and_wrong_arity_calls_lower_to_deferred_stubs() {
        let helper = Function::new("h", vec!["a".into()], vec![]);
        let u = unit(
            vec![
                Stmt::If {
                    cond: Expr::Bool(false),
                    then_branch: vec![
                        Stmt::Call {
                            var: None,
                            func: "ghost".into(),
                            args: vec![],
                        },
                        Stmt::Call {
                            var: None,
                            func: "h".into(),
                            args: vec![], // arity 0 vs declared 1
                        },
                    ],
                    else_branch: vec![],
                },
                Stmt::Call {
                    var: None,
                    func: "h".into(),
                    args: vec![Expr::Int(1)],
                },
            ],
            vec![helper],
        );
        let c = compile(&u);
        let code = &c.code[0].code;
        assert!(code.iter().any(|i| matches!(i, Insn::CallUndefined { .. })));
        assert!(code.iter().any(|i| matches!(i, Insn::CallArityErr { .. })));
        assert!(code.iter().any(|i| matches!(i, Insn::Call { .. })));
        // The dead stubs must not fail at compile or run time.
        let interp = Interpreter::default();
        assert!(interp.run(&u, &Request::new()).is_ok());
    }

    #[test]
    fn guard_interleaves_ticks_and_var_checks_in_pre_order() {
        // x = (a + 1) + b — pre-order: BinOp(Add) tick, BinOp tick, Var(a)
        // tick+check, Int tick, Var(b) tick+check. Statement tick folds
        // into the first run.
        let u = unit(
            vec![
                Stmt::Let {
                    var: "a".into(),
                    expr: Expr::Int(1),
                },
                Stmt::Let {
                    var: "b".into(),
                    expr: Expr::Int(2),
                },
                Stmt::Let {
                    var: "x".into(),
                    expr: Expr::BinOp {
                        op: BinOp::Add,
                        lhs: Box::new(Expr::BinOp {
                            op: BinOp::Add,
                            lhs: Box::new(Expr::var("a")),
                            rhs: Box::new(Expr::Int(1)),
                        }),
                        rhs: Box::new(Expr::var("b")),
                    },
                },
            ],
            vec![],
        );
        let c = compile(&u);
        let guards: Vec<_> = c.code[0]
            .code
            .iter()
            .filter_map(|i| match i {
                Insn::Guard { pre, tail } => Some((pre.to_vec(), *tail)),
                _ => None,
            })
            .collect();
        // Third statement: 1 (stmt) + 2 (two Add nodes) + 1 (Var a) = 4
        // ticks to the first check, then 1 (Int) + 1 (Var b) = 2 to the
        // second, no tail.
        assert_eq!(
            guards[2],
            (
                vec![
                    GuardCheck { ticks: 4, slot: 0 },
                    GuardCheck { ticks: 2, slot: 1 }
                ],
                0
            )
        );
    }

    #[test]
    fn loop_counters_nest_without_colliding_with_temps() {
        // Two nested bounded loops with concat accumulation: counters pin
        // below the temp floor, so iteration state survives body temps.
        let u = unit(
            vec![
                Stmt::Let {
                    var: "i".into(),
                    expr: Expr::Int(0),
                },
                Stmt::Let {
                    var: "acc".into(),
                    expr: Expr::str(""),
                },
                Stmt::While {
                    cond: Expr::BinOp {
                        op: BinOp::Lt,
                        lhs: Box::new(Expr::var("i")),
                        rhs: Box::new(Expr::Int(3)),
                    },
                    body: vec![
                        Stmt::Let {
                            var: "j".into(),
                            expr: Expr::Int(0),
                        },
                        Stmt::While {
                            cond: Expr::BinOp {
                                op: BinOp::Lt,
                                lhs: Box::new(Expr::var("j")),
                                rhs: Box::new(Expr::Int(2)),
                            },
                            body: vec![
                                Stmt::Assign {
                                    var: "acc".into(),
                                    expr: Expr::concat(
                                        Expr::concat(Expr::var("acc"), Expr::str("x")),
                                        param("q"),
                                    ),
                                },
                                Stmt::Assign {
                                    var: "j".into(),
                                    expr: Expr::BinOp {
                                        op: BinOp::Add,
                                        lhs: Box::new(Expr::var("j")),
                                        rhs: Box::new(Expr::Int(1)),
                                    },
                                },
                            ],
                        },
                        Stmt::Assign {
                            var: "i".into(),
                            expr: Expr::BinOp {
                                op: BinOp::Add,
                                lhs: Box::new(Expr::var("i")),
                                rhs: Box::new(Expr::Int(1)),
                            },
                        },
                    ],
                },
                Stmt::Sink {
                    kind: SinkKind::HtmlOutput,
                    arg: Expr::var("acc"),
                    site: SiteId { unit: 0, sink: 0 },
                },
            ],
            vec![],
        );
        let interp = Interpreter::default();
        let req = Request::new().with_param("q", "<p>");
        let vm = interp.run(&u, &req).expect("vm run");
        let oracle = interp
            .run_session_treewalk(&u, std::slice::from_ref(&req))
            .expect("oracle run");
        assert_eq!(vm, oracle);
        assert_eq!(vm[0].rendered, "x<p>".repeat(6));
    }

    #[test]
    fn vm_telemetry_counters_advance() {
        let reg = vdbench_telemetry::registry::global();
        let insns = reg.counter("interp.vm.instructions");
        let hits = reg.counter("interp.vm.inline_cache.hits");
        let before_insns = insns.get();
        let before_hits = hits.get();
        let helper = Function::new(
            "fmt",
            vec!["x".into()],
            vec![Stmt::Return(Expr::concat(Expr::str("v="), Expr::var("x")))],
        );
        let u = unit(
            vec![Stmt::Call {
                var: Some("out".into()),
                func: "fmt".into(),
                args: vec![param("q")],
            }],
            vec![helper],
        );
        let interp = Interpreter::default();
        interp
            .run(&u, &Request::new().with_param("q", "1"))
            .expect("run");
        assert!(insns.get() > before_insns, "instruction counter advances");
        assert!(hits.get() > before_hits, "resolved call counts as IC hit");
    }
}
