//! Criterion kernel-bench suite: old-vs-new timings for the hot kernels.
//!
//! Five groups, one per optimized kernel family:
//!
//! * `kendall`  — Knight's O(n log n) τ-b vs the retained O(n²) oracle;
//! * `bootstrap` — `select_nth` quantiles vs clone-and-sort;
//! * `interp`   — both MiniWeb execution tiers over the same corpus:
//!   tree-walking reference and bytecode register VM;
//! * `vm`       — per-opcode-class microbenches isolating each bytecode
//!   superinstruction family (treewalk vs bytecode);
//! * `scan`     — the dynamic scanner's whole-corpus path (compiled units,
//!   pooled scratch, per-worker fold), new implementation only (the old
//!   path no longer exists at this granularity).
//!
//! Unlike the other bench targets this one has a custom `main`: after the
//! groups run it collects every measurement from the criterion driver and
//! writes `BENCH_kernels.json` at the workspace root, including computed
//! old/new speedups where both sides survive (paired "new" entries also
//! carry the ratio inline as `speedup`). In a full run it additionally
//! rewrites the README's speedup table between the `BENCH_TABLE` markers,
//! so the published numbers are always the measured ones. That file is
//! committed, so the repo carries its perf trajectory, and CI re-emits it
//! (in `--test` smoke mode, samples=1) as a build artifact.

use criterion::{black_box, BenchResult, BenchmarkId, Criterion};
use serde::Serialize;
use vdbench_corpus::ast::BinOp;
use vdbench_corpus::{
    CompiledUnit, CorpusBuilder, Expr, Function, InterpScratch, Interpreter, Request, SinkKind,
    SiteId, SourceKind, Stmt, Unit,
};
use vdbench_detectors::{Detector, DynamicScanner};
use vdbench_stats::correlation::{kendall_tau, kendall_tau_naive};
use vdbench_stats::descriptive::{quantile_sorted, quantile_unsorted};
use vdbench_stats::SeededRng;

/// Tie-heavy paired data (the regime rank statistics actually see: metric
/// scores quantized by small confusion-matrix counts).
fn tied_series(n: usize) -> (Vec<f64>, Vec<f64>) {
    let x: Vec<f64> = (0..n).map(|i| (i % 17) as f64).collect();
    let y: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 23) as f64).collect();
    (x, y)
}

fn bench_kendall(c: &mut Criterion) {
    let mut group = c.benchmark_group("kendall");
    for n in [128usize, 512, 2048] {
        let (x, y) = tied_series(n);
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| black_box(kendall_tau_naive(black_box(&x), black_box(&y)).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("knight", n), &n, |b, _| {
            b.iter(|| black_box(kendall_tau(black_box(&x), black_box(&y)).unwrap()))
        });
    }
    group.finish();
}

fn bench_bootstrap(c: &mut Criterion) {
    // Percentile endpoints: full clone-and-sort vs select_nth partition.
    let mut rng = SeededRng::new(5);
    let reps: Vec<f64> = (0..4096).map(|_| rng.uniform()).collect();
    c.bench_function("bootstrap/quantile-sort-4096", |b| {
        b.iter(|| {
            let mut v = reps.clone();
            v.sort_by(f64::total_cmp);
            black_box(quantile_sorted(&v, 0.025) + quantile_sorted(&v, 0.975))
        })
    });
    c.bench_function("bootstrap/quantile-select-4096", |b| {
        b.iter(|| {
            let mut v = reps.clone();
            let lo = quantile_unsorted(&mut v, 0.025);
            let hi = quantile_unsorted(&mut v, 0.975);
            black_box(lo + hi)
        })
    });
}

/// One attack-shaped request per unit: every discovered input set to a
/// recognizable payload (what the scanner's spray phase does).
fn attack_request(unit: &Unit) -> Request {
    let mut req = Request::new();
    for (kind, name) in unit.referenced_sources() {
        req.set(kind, name, "x' OR '1'='1");
    }
    req
}

fn bench_interp(c: &mut Criterion) {
    let corpus = CorpusBuilder::new()
        .units(20)
        .vulnerability_density(0.5)
        .seed(7)
        .build();
    let interp = Interpreter::default();
    let requests: Vec<[Request; 1]> = corpus.units().iter().map(|u| [attack_request(u)]).collect();
    // Per iteration: every unit executes an 8-session batch — the shape of
    // a scanner attack run. Compilation is hoisted like the scanner hoists
    // it (once per unit per `analyze_with`, amortized over the whole
    // batch; `thorough` runs up to 96 sessions per compile, so charging it
    // here would *overstate* its cost). The treewalk pays name lookups and
    // body clones per session; the VM runs frames recycled through one
    // scratch.
    c.bench_function("interp/treewalk-20units-x8", |b| {
        b.iter(|| {
            let mut sinks = 0usize;
            for (u, session) in corpus.units().iter().zip(&requests) {
                for _ in 0..8 {
                    sinks += interp
                        .run_session_treewalk(u, session)
                        .map_or(0, |o| o.len());
                }
            }
            black_box(sinks)
        })
    });
    let compiled: Vec<CompiledUnit> = corpus.units().iter().map(CompiledUnit::compile).collect();
    c.bench_function("interp/vm-20units-x8", |b| {
        let mut scratch = InterpScratch::new();
        b.iter(|| {
            let mut sinks = 0usize;
            for (cu, session) in compiled.iter().zip(&requests) {
                for _ in 0..8 {
                    sinks += interp
                        .run_compiled(cu, session, &mut scratch)
                        .map_or(0, |o| o.len());
                }
            }
            black_box(sinks)
        })
    });
}

/// One handler-only unit around the given body.
fn vm_unit(body: Vec<Stmt>, helpers: Vec<Function>) -> Unit {
    Unit {
        id: 0,
        handler: Function::new("handler", vec![], body),
        helpers,
    }
}

fn src(kind: SourceKind, name: &str) -> Expr {
    Expr::Source {
        kind,
        name: name.into(),
    }
}

/// Per-opcode-class microbenches: each unit isolates one superinstruction
/// family of the bytecode tier (fused compare-branch, accumulator concat,
/// n-ary concat into a sink, inline-cached calls, counting-loop
/// summarization), measured treewalk vs bytecode over the same sessions.
fn bench_vm(c: &mut Criterion) {
    let site = SiteId { unit: 0, sink: 0 };
    let cases: Vec<(&str, Unit)> = vec![
        (
            "guard-gate",
            vm_unit(
                vec![Stmt::If {
                    cond: Expr::BinOp {
                        op: BinOp::Eq,
                        lhs: Box::new(src(SourceKind::HttpParam, "mode")),
                        rhs: Box::new(Expr::str("debug")),
                    },
                    then_branch: vec![Stmt::Sink {
                        kind: SinkKind::HtmlOutput,
                        arg: Expr::str("<!-- debug -->"),
                        site,
                    }],
                    else_branch: vec![],
                }],
                vec![],
            ),
        ),
        (
            "concat-chain",
            vm_unit(
                vec![
                    Stmt::Let {
                        var: "acc".into(),
                        expr: Expr::str("ids:"),
                    },
                    Stmt::Let {
                        var: "i".into(),
                        expr: Expr::Int(0),
                    },
                    Stmt::While {
                        cond: Expr::BinOp {
                            op: BinOp::Lt,
                            lhs: Box::new(Expr::var("i")),
                            rhs: Box::new(Expr::Int(8)),
                        },
                        body: vec![
                            Stmt::Assign {
                                var: "acc".into(),
                                expr: Expr::concat(
                                    Expr::concat(Expr::var("acc"), Expr::str(",")),
                                    src(SourceKind::HttpParam, "id"),
                                ),
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
                        site,
                    },
                ],
                vec![],
            ),
        ),
        (
            "query-sink",
            vm_unit(
                vec![Stmt::Sink {
                    kind: SinkKind::SqlQuery,
                    arg: Expr::concat(
                        Expr::concat(
                            Expr::str("SELECT * FROM t WHERE id = '"),
                            src(SourceKind::HttpParam, "id"),
                        ),
                        Expr::str("'"),
                    ),
                    site,
                }],
                vec![],
            ),
        ),
        (
            "call-helper",
            vm_unit(
                vec![
                    Stmt::Call {
                        var: Some("q".into()),
                        func: "prepare".into(),
                        args: vec![src(SourceKind::HttpParam, "id")],
                    },
                    Stmt::Sink {
                        kind: SinkKind::SqlQuery,
                        arg: Expr::var("q"),
                        site,
                    },
                ],
                vec![Function::new(
                    "prepare",
                    vec!["raw".into()],
                    vec![Stmt::Return(Expr::concat(
                        Expr::str("SELECT * FROM records WHERE key = '"),
                        Expr::var("raw"),
                    ))],
                )],
            ),
        ),
        (
            "loop-count",
            vm_unit(
                vec![
                    Stmt::Let {
                        var: "c0".into(),
                        expr: Expr::Int(0),
                    },
                    Stmt::While {
                        cond: Expr::BinOp {
                            op: BinOp::Lt,
                            lhs: Box::new(Expr::var("c0")),
                            rhs: Box::new(Expr::Int(24)),
                        },
                        body: vec![Stmt::Assign {
                            var: "c0".into(),
                            expr: Expr::BinOp {
                                op: BinOp::Add,
                                lhs: Box::new(Expr::var("c0")),
                                rhs: Box::new(Expr::Int(1)),
                            },
                        }],
                    },
                    Stmt::Sink {
                        kind: SinkKind::CryptoHash,
                        arg: Expr::str("sha256"),
                        site,
                    },
                ],
                vec![],
            ),
        ),
    ];
    let interp = Interpreter::default();
    for (name, unit) in &cases {
        let session = [attack_request(unit)];
        let cu = CompiledUnit::compile(unit);
        c.bench_function(&format!("vm/treewalk-{name}-x64"), |b| {
            b.iter(|| {
                let mut sinks = 0usize;
                for _ in 0..64 {
                    sinks += interp
                        .run_session_treewalk(unit, &session)
                        .map_or(0, |o| o.len());
                }
                black_box(sinks)
            })
        });
        c.bench_function(&format!("vm/bytecode-{name}-x64"), |b| {
            let mut scratch = InterpScratch::new();
            b.iter(|| {
                let mut sinks = 0usize;
                for _ in 0..64 {
                    sinks += interp
                        .run_compiled(&cu, &session, &mut scratch)
                        .map_or(0, |o| o.len());
                }
                black_box(sinks)
            })
        });
    }
}

fn bench_scan(c: &mut Criterion) {
    let corpus = CorpusBuilder::new()
        .units(60)
        .vulnerability_density(0.35)
        .seed(41)
        .build();
    let scanner = DynamicScanner::thorough();
    c.bench_function("scan/pentest-96-dict-60units", |b| {
        b.iter(|| black_box(scanner.analyze_corpus(black_box(&corpus)).len()))
    });
}

/// Serialized form of one measurement. Entries that are the "new" side of
/// an old/new pair carry the computed speedup inline (the README table is
/// rendered from exactly these fields); unpaired entries omit the field
/// entirely, hence the hand-rolled impl (the vendored serde has no
/// `skip_serializing_if`).
struct JsonResult {
    id: String,
    mean_ns: f64,
    samples: u64,
    speedup: Option<f64>,
}

impl Serialize for JsonResult {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("id".to_string(), self.id.to_value()),
            ("mean_ns".to_string(), self.mean_ns.to_value()),
            ("samples".to_string(), self.samples.to_value()),
        ];
        if let Some(s) = self.speedup {
            fields.push(("speedup".to_string(), s.to_value()));
        }
        serde::Value::Object(fields)
    }
}

/// Old-vs-new ratio for a kernel where both implementations survive.
#[derive(Serialize)]
struct JsonSpeedup {
    kernel: String,
    old_id: String,
    new_id: String,
    speedup: f64,
}

#[derive(Serialize)]
struct JsonReport {
    generated_by: String,
    test_mode: bool,
    results: Vec<JsonResult>,
    speedups: Vec<JsonSpeedup>,
}

fn mean_of(results: &[BenchResult], id: &str) -> Option<f64> {
    results.iter().find(|r| r.id == id).map(|r| r.mean_ns)
}

/// The old/new kernel pairs the report and the README table are built
/// from: `(kernel, old_id, new_id)`.
const PAIRS: [(&str, &str, &str); 10] = [
    ("kendall-128", "kendall/naive/128", "kendall/knight/128"),
    ("kendall-512", "kendall/naive/512", "kendall/knight/512"),
    ("kendall-2048", "kendall/naive/2048", "kendall/knight/2048"),
    (
        "bootstrap-quantiles",
        "bootstrap/quantile-sort-4096",
        "bootstrap/quantile-select-4096",
    ),
    (
        "interp-session",
        "interp/treewalk-20units-x8",
        "interp/vm-20units-x8",
    ),
    (
        "vm-guard-gate",
        "vm/treewalk-guard-gate-x64",
        "vm/bytecode-guard-gate-x64",
    ),
    (
        "vm-concat-chain",
        "vm/treewalk-concat-chain-x64",
        "vm/bytecode-concat-chain-x64",
    ),
    (
        "vm-query-sink",
        "vm/treewalk-query-sink-x64",
        "vm/bytecode-query-sink-x64",
    ),
    (
        "vm-call-helper",
        "vm/treewalk-call-helper-x64",
        "vm/bytecode-call-helper-x64",
    ),
    (
        "vm-loop-count",
        "vm/treewalk-loop-count-x64",
        "vm/bytecode-loop-count-x64",
    ),
];

/// Human-readable row labels for the README table, keyed by pair kernel
/// name: `(old description, new description)`.
fn pair_labels(kernel: &str) -> Option<(&'static str, &'static str)> {
    Some(match kernel {
        "kendall-512" => ("O(n²) pair scan", "Knight's O(n log n)"),
        "kendall-2048" => ("O(n²) pair scan", "Knight's O(n log n)"),
        "bootstrap-quantiles" => ("clone + full sort", "`select_nth` partition"),
        "interp-session" => ("treewalk + name maps", "bytecode register VM"),
        "vm-guard-gate" => ("treewalk + name maps", "fused compare-branch"),
        "vm-concat-chain" => ("treewalk + name maps", "in-place accumulator concat"),
        "vm-query-sink" => ("treewalk + name maps", "n-ary concat superinsn"),
        "vm-call-helper" => ("treewalk + name maps", "inline-cached call"),
        "vm-loop-count" => ("treewalk + name maps", "counting-loop summarization"),
        _ => return None,
    })
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Rewrites the README's generated speedup table (between the marker
/// comments) from the measured pairs. Skipped in `--test` smoke mode:
/// samples=1 timings would churn the committed file with noise.
fn render_readme_table(speedups: &[JsonSpeedup], results: &[BenchResult]) {
    const START: &str = "<!-- BENCH_TABLE_START";
    const END: &str = "<!-- BENCH_TABLE_END";
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let Ok(readme) = std::fs::read_to_string(path) else {
        return;
    };
    let (Some(start), Some(end)) = (readme.find(START), readme.find(END)) else {
        return;
    };
    let head = &readme[..readme[..start].rfind('\n').map_or(start, |i| i + 1)];
    let tail = &readme[end..];
    let mut table = String::from(
        "<!-- BENCH_TABLE_START — generated by `cargo bench -p vdbench-bench \
         --bench kernels`; do not edit by hand -->\n\
         | Kernel | Before (oracle) | After (optimized) | Speedup |\n\
         |--------|-----------------|-------------------|--------:|\n",
    );
    for s in speedups {
        let Some((old_label, new_label)) = pair_labels(&s.kernel) else {
            continue;
        };
        let (Some(old), Some(new)) = (mean_of(results, &s.old_id), mean_of(results, &s.new_id))
        else {
            continue;
        };
        table.push_str(&format!(
            "| {} | {}, {} | {}, {} | {:.1}× |\n",
            s.kernel,
            old_label,
            fmt_ns(old),
            new_label,
            fmt_ns(new),
            s.speedup
        ));
    }
    std::fs::write(path, format!("{head}{table}{tail}")).expect("rewrite README table");
    println!("rendered README speedup table ({} rows)", speedups.len());
}

fn write_report(criterion: &Criterion) {
    let results = criterion.results();
    let speedups: Vec<JsonSpeedup> = PAIRS
        .iter()
        .filter_map(|(kernel, old_id, new_id)| {
            let old = mean_of(results, old_id)?;
            let new = mean_of(results, new_id)?;
            Some(JsonSpeedup {
                kernel: (*kernel).to_string(),
                old_id: (*old_id).to_string(),
                new_id: (*new_id).to_string(),
                speedup: old / new,
            })
        })
        .collect();
    let report = JsonReport {
        generated_by: "cargo bench -p vdbench-bench --bench kernels".to_string(),
        test_mode: criterion::test_mode(),
        results: results
            .iter()
            .map(|r| JsonResult {
                id: r.id.clone(),
                mean_ns: r.mean_ns,
                samples: r.samples,
                speedup: speedups
                    .iter()
                    .find(|s| s.new_id == r.id)
                    .map(|s| s.speedup),
            })
            .collect(),
        speedups,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(path, json + "\n").expect("write BENCH_kernels.json");
    println!("wrote {path}");
    for s in &report.speedups {
        println!("speedup {:<24} {:>8.2}x", s.kernel, s.speedup);
    }
    if !criterion::test_mode() {
        render_readme_table(&report.speedups, results);
    }
}

/// Appends this run to the perf-history ledger when capture is enabled
/// (`VDBENCH_PERF_HISTORY`). Gated series are the per-pair old/new speedup
/// ratios — both sides measured in-process, so the ratio is comparable
/// across hosts; absolute ns/iter series ride along as advisory context.
/// Skipped in `--test` smoke mode, whose single-warmup timings are noise.
fn append_perf_history(criterion: &Criterion) {
    let Some(dir) = vdbench_perfwatch::env_dir() else {
        return;
    };
    if criterion::test_mode() {
        return;
    }
    let results = criterion.results();
    let batches = |id: &str| {
        results
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.batch_means_ns.as_slice())
    };
    let mut series = Vec::new();
    for (kernel, old_id, new_id) in &PAIRS {
        let (Some(old), Some(new)) = (batches(old_id), batches(new_id)) else {
            continue;
        };
        let ratios: Vec<f64> = old
            .iter()
            .zip(new.iter())
            .filter(|(_, &n)| n > 0.0)
            .map(|(&o, &n)| o / n)
            .collect();
        if !ratios.is_empty() {
            series.push(vdbench_perfwatch::Series::delta(
                format!("{kernel}:speedup"),
                "ratio",
                "higher",
                true,
                ratios,
            ));
        }
    }
    for r in results {
        series.push(vdbench_perfwatch::Series::delta(
            format!("{}:ns", r.id),
            "ns/iter",
            "lower",
            false,
            r.batch_means_ns.clone(),
        ));
    }
    let entry = vdbench_perfwatch::RunEntry {
        source: "kernels".to_string(),
        unix_ms: vdbench_perfwatch::now_ms(),
        label: "kernels-bench".to_string(),
        provenance: String::new(),
        baseline: false,
        series,
    };
    match vdbench_perfwatch::append_entry(&dir, &entry) {
        Ok(path) => println!("appended perf history to {}", path.display()),
        Err(e) => eprintln!("perf history append failed: {e}"),
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_kendall(&mut criterion);
    bench_bootstrap(&mut criterion);
    bench_interp(&mut criterion);
    bench_vm(&mut criterion);
    bench_scan(&mut criterion);
    write_report(&criterion);
    append_perf_history(&criterion);
}
