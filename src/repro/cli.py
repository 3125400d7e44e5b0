"""Command-line interface: the framework's operations as subcommands.

::

    python -m repro check  "p: w(x)1 r(y)0 | q: w(y)1 r(x)0" --model TSO
    python -m repro check  --stream [--model SC,TSO,PRAM] [seed-history]
    python -m repro classify "p: w(x)1 r(y)0 | q: w(y)1 r(x)0"
    python -m repro explain fig1-sb SC
    python -m repro catalog [--name fig1-sb]
    python -m repro lattice [--procs 2] [--ops 2] [--jobs 4] [--dot]
    python -m repro sweep   [--source catalog] [--models SC,TSO,PC] [--jobs 4]
    python -m repro bakery  [--machine rc_pc] [--runs 100] [--adversarial]
    python -m repro fuzz    [--seed 0] [--count 500] [--shapes default] [--jobs 4]
    python -m repro lint history "p: w(x)1 | q: r(x)2" [--model SC]
    python -m repro lint spec [--broken-fixtures]
    python -m repro lint program figure6
    python -m repro trace fig1 TSO [--markdown]
    python -m repro profile [--models SC,TSO] [--repeat 3] [--markdown]
    python -m repro serve  [--host 127.0.0.1] [--port 8979] [--store URL]
    python -m repro store migrate results.jsonl sqlite:results.db
    python -m repro store compact results.db
    python -m repro store summary results.db
    python -m repro models

Commands that accept a history accept either litmus notation or a
catalog entry name; an unambiguous prefix of a catalog name (``fig1``
for ``fig1-sb``) also resolves.

Exit status: 0 on success; for ``check``, 0 when the history is allowed
and 1 when it is rejected (so the command composes in shell scripts);
2 on usage or parse errors.

Each command imports what it runs inside its ``_cmd_*`` function, so a
process loads only one command's stack: ``check`` loads neither numpy
nor networkx.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import __version__
from repro.checking import (
    MODELS,
    PAPER_MODELS,
    check,
    get_model,
    model_names,
    resolve_models,
)
from repro.core.errors import ReproError
from repro.litmus import CATALOG, parse_history
from repro.spec import MemoryModelSpec
from repro.viz.ascii import render_history, render_views

__all__ = ["main", "build_parser"]

#: The machines ``bakery --machine`` accepts (see :func:`_bakery_machine`).
_BAKERY_MACHINES = ("sc", "tso", "pram", "rc_sc", "rc_pc")


def _bakery_machine(name: str):
    """A fresh two-processor machine for the Bakery experiment."""
    from repro.machines import PRAMMachine, RCMachine, SCMachine, TSOMachine

    procs = ("p0", "p1")
    if name == "sc":
        return SCMachine(procs)
    if name == "tso":
        return TSOMachine(procs)
    if name == "pram":
        return PRAMMachine(procs)
    return RCMachine(procs, labeled_mode=name[len("rc_") :])


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for shell-completion generators and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Characterization framework for scalable shared memories "
        "(Kohli, Neiger & Ahamad, ICPP 1993).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide one history under one model")
    p_check.add_argument(
        "history",
        nargs="?",
        default=None,
        help="litmus notation, e.g. 'p: w(x)1 | q: r(x)1' "
        "(with --stream: an optional seed prefix)",
    )
    p_check.add_argument(
        "--model",
        default="SC",
        help="model name (see `models`); with --stream, a comma-separated "
        "model set",
    )
    p_check.add_argument(
        "--views", action="store_true", help="print witness views when allowed"
    )
    p_check.add_argument(
        "--stream",
        action="store_true",
        help="incremental mode: read op lines ('proc: op [op ...]') from "
        "stdin and print a per-op admit/deny verdict after each append",
    )

    p_classify = sub.add_parser("classify", help="decide one history under all models")
    p_classify.add_argument("history")

    p_explain = sub.add_parser(
        "explain",
        help="explain why a model rejects (or how it admits) a history",
    )
    p_explain.add_argument(
        "history", help="litmus notation or a catalog entry name (e.g. fig1-sb)"
    )
    p_explain.add_argument("model", help="spec-backed model name (see `models`)")

    p_catalog = sub.add_parser("catalog", help="sweep or show litmus catalog entries")
    p_catalog.add_argument("--name", help="show just this entry")

    p_lattice = sub.add_parser(
        "lattice", help="measure the model lattice by enumeration"
    )
    p_lattice.add_argument("--procs", type=int, default=2)
    p_lattice.add_argument("--ops", type=int, default=2)
    p_lattice.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = in-process)"
    )
    p_lattice.add_argument(
        "--models",
        default="all",
        help="comma-separated panel, or 'all' (every registered model; "
        "the default) or 'paper' (Figure 5's five)",
    )
    p_lattice.add_argument(
        "--paper",
        action="store_true",
        help="shorthand for --models paper: Figure 5's sub-lattice only",
    )
    p_lattice.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p_lattice.add_argument(
        "--report", metavar="FILE", help="write a markdown survey report"
    )

    p_sweep = sub.add_parser(
        "sweep", help="batch-check a history source against a model set"
    )
    p_sweep.add_argument(
        "--source",
        choices=("catalog", "space", "random"),
        default="catalog",
        help="where histories come from",
    )
    p_sweep.add_argument(
        "--models",
        default="all",
        help="comma-separated model names, or 'all' (default)",
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = in-process)"
    )
    p_sweep.add_argument(
        "--out",
        metavar="STORE",
        help="append results to this store (a JSONL path, or a store URL "
        "like sqlite:results.db — see `store`)",
    )
    p_sweep.add_argument(
        "--resume",
        action="store_true",
        help="skip keys already completed in --out",
    )
    p_sweep.add_argument(
        "--store-views",
        action="store_true",
        help="also record witness views in result records",
    )
    p_sweep.add_argument(
        "--procs", type=int, default=2, help="history shape (space/random)"
    )
    p_sweep.add_argument(
        "--ops", type=int, default=2, help="ops per processor (space/random)"
    )
    p_sweep.add_argument(
        "--count", type=int, default=100, help="sample count (random)"
    )
    p_sweep.add_argument("--seed", type=int, default=0, help="generator seed (random)")
    p_sweep.add_argument(
        "--p-write", type=float, default=0.5, help="write probability (random)"
    )

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: cross-examine the kernel, definitional "
        "oracle, fast paths and pre-pass on random histories",
    )
    p_fuzz.add_argument("--seed", type=int, default=0, help="base campaign seed")
    p_fuzz.add_argument(
        "--count", type=int, default=500, help="total histories across all shapes"
    )
    p_fuzz.add_argument(
        "--shapes",
        default="default",
        help="comma-separated shape presets, 'default', or 'all' "
        "(see docs/diff.md)",
    )
    p_fuzz.add_argument(
        "--models",
        default="all",
        help="comma-separated model names, 'all' (every spec-backed "
        "registered model, the default), or 'paper' (Figure 5 set)",
    )
    p_fuzz.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = in-process)"
    )
    p_fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="record discrepancies as found, without witness minimization",
    )
    p_fuzz.add_argument(
        "--corpus",
        metavar="FILE",
        help="append findings to this JSONL discrepancy corpus",
    )
    p_fuzz.add_argument(
        "--resume",
        action="store_true",
        help="skip samples already checked in --corpus",
    )

    p_bakery = sub.add_parser("bakery", help="run the Section 5 Bakery experiment")
    p_bakery.add_argument(
        "--machine", choices=sorted(_BAKERY_MACHINES), default="rc_pc"
    )
    p_bakery.add_argument("--runs", type=int, default=100)
    p_bakery.add_argument(
        "--adversarial",
        action="store_true",
        help="use the delivery-delaying scheduler instead of random ones",
    )

    p_spec = sub.add_parser(
        "spectrum", help="the strongest models allowing a history"
    )
    p_spec.add_argument("history")

    p_lint = sub.add_parser(
        "lint", help="static analysis: history pre-pass, spec linter, progcheck"
    )
    lint_sub = p_lint.add_subparsers(dest="lint_target", required=True)

    p_lint_history = lint_sub.add_parser(
        "history",
        help="polynomial DENY pre-pass on one history "
        "(exit 0: no denial; 1: some model denies; 2: usage error)",
    )
    p_lint_history.add_argument(
        "history", help="litmus notation or a catalog entry name"
    )
    p_lint_history.add_argument(
        "--model",
        default="all",
        help="spec-backed model name, or 'all' (default)",
    )
    p_lint_history.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )

    p_lint_spec = lint_sub.add_parser(
        "spec",
        help="lint memory-model specs (registry by default; exit 0: clean; "
        "1: error-level findings; 2: usage error)",
    )
    p_lint_spec.add_argument("--name", help="lint just this registered spec")
    p_lint_spec.add_argument(
        "--broken-fixtures",
        action="store_true",
        help="lint the deliberately broken fixture specs instead",
    )
    p_lint_spec.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )

    p_lint_program = lint_sub.add_parser(
        "program",
        help="static race/labeling analysis of a pseudocode program "
        "(exit 0: properly labeled; 1: potential races; 2: usage error)",
    )
    p_lint_program.add_argument(
        "program",
        nargs="?",
        help="a built-in name (figure6, peterson, naive-lock, "
        "mislabeled-bakery) — or use --file",
    )
    p_lint_program.add_argument(
        "--file", metavar="PATH", help="analyze pseudocode read from a file"
    )
    p_lint_program.add_argument(
        "--shared",
        default="",
        help="comma-separated bare shared names (with --file)",
    )
    p_lint_program.add_argument(
        "--threads", type=int, default=2, help="concurrent copies to assume"
    )
    p_lint_program.add_argument(
        "--fix",
        action="store_true",
        help="print the program with the minimal `sync` relabeling applied",
    )
    p_lint_program.add_argument(
        "--certify",
        action="store_true",
        help="emit a machine-checkable DRF certificate (JSON) when the "
        "program is certifiably race-free",
    )
    p_lint_program.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )

    p_trace = sub.add_parser(
        "trace",
        help="narrate one check's search as a human-readable trace",
    )
    p_trace.add_argument(
        "history", help="litmus notation or a catalog entry name (prefixes ok)"
    )
    p_trace.add_argument("model", help="spec-backed model name (see `models`)")
    p_trace.add_argument(
        "--markdown", action="store_true", help="render markdown instead of ASCII"
    )
    p_trace.add_argument(
        "--max-steps",
        type=int,
        default=400,
        help="cap on rendered search steps (placements + backtracks)",
    )

    p_profile = sub.add_parser(
        "profile",
        help="per-phase timing tables over the litmus catalog",
    )
    p_profile.add_argument(
        "--models",
        default="all",
        help="comma-separated spec-backed model names, or 'all' (default)",
    )
    p_profile.add_argument(
        "--repeat", type=int, default=1, help="profile each check this many times"
    )
    p_profile.add_argument(
        "--markdown", action="store_true", help="render markdown tables"
    )
    p_profile.add_argument(
        "--counters",
        action="store_true",
        help="also print the summed search-event counters",
    )

    p_serve = sub.add_parser(
        "serve",
        help="consistency checking as a service: an async HTTP front end "
        "over the engine",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument("--port", type=int, default=8979, help="bind port")
    p_serve.add_argument(
        "--store",
        metavar="STORE",
        help="persist verdicts to this store (JSONL path or sqlite: URL); "
        "omitted = memory only",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, help="checker worker threads"
    )
    p_serve.add_argument(
        "--sweep-jobs",
        type=int,
        default=1,
        help="worker processes per sweep job (1 = in the worker thread)",
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request wall-clock budget in seconds",
    )
    p_serve.add_argument(
        "--max-request-bytes",
        type=int,
        default=1 << 20,
        help="reject request bodies larger than this (HTTP 413)",
    )
    p_serve.add_argument(
        "--quiet", action="store_true", help="suppress per-request log lines"
    )

    p_store = sub.add_parser(
        "store",
        help="result-store maintenance: migrate between backends, compact, "
        "summarize",
    )
    store_sub = p_store.add_subparsers(dest="store_action", required=True)
    p_store_migrate = store_sub.add_parser(
        "migrate",
        help="stream every record of one store into another "
        "(e.g. JSONL -> sqlite:)",
    )
    p_store_migrate.add_argument("source", help="source store path or URL")
    p_store_migrate.add_argument("dest", help="destination store path or URL")
    p_store_compact = store_sub.add_parser(
        "compact", help="drop result records superseded by a later re-run"
    )
    p_store_compact.add_argument("store", help="store path or URL")
    p_store_summary = store_sub.add_parser(
        "summary", help="print a store's totals and per-model allowed counts"
    )
    p_store_summary.add_argument("store", help="store path or URL")

    sub.add_parser("models", help="list registered memory models")
    return parser


def _resolve_history(text: str):
    """A ``(history, label)`` pair from litmus notation or a catalog name.

    Exact catalog names win; otherwise an unambiguous prefix of a catalog
    name resolves (``fig1`` -> ``fig1-sb``); anything else is parsed as
    litmus notation.
    """
    entry = CATALOG.get(text)
    if entry is None:
        matches = [name for name in CATALOG if name.startswith(text)]
        if len(matches) == 1:
            entry = CATALOG[matches[0]]
    if entry is not None:
        return entry.history, entry.name
    return parse_history(text), None


def _spec_of(name: str) -> MemoryModelSpec:
    """The spec of a spec-backed model (explain, trace, lint, profile)."""
    spec = get_model(name, spec_only=True).spec
    assert spec is not None
    return spec


def _cmd_check(args: argparse.Namespace) -> int:
    if args.stream:
        return _cmd_check_stream(args)
    if args.history is None:
        print(
            "check: a history argument is required unless --stream",
            file=sys.stderr,
        )
        return 2
    history, _ = _resolve_history(args.history)
    result = check(history, args.model)
    verdict = "allowed" if result.allowed else "NOT allowed"
    print(f"{args.model}: {verdict}")
    if result.allowed and args.views and result.views:
        print(render_views(result.views))
    if not result.allowed and result.reason:
        print(f"reason: {result.reason}")
    return 0 if result.allowed else 1


def _cmd_check_stream(args: argparse.Namespace) -> int:
    """``check --stream``: per-op verdicts over an incremental session.

    Reads op lines from stdin (blank lines and ``#`` comments skipped),
    appends each operation to one :class:`~repro.engine.session.EngineSession`,
    and prints one verdict row per op.  A model's denial reason is shown
    once, on the append that flips it to DENY; the exit status reflects
    the *final* prefix (0 all-admit, 1 any-deny, 2 on a bad line).
    """
    from repro.engine.session import EngineSession

    models = tuple(m for m in args.model.split(",") if m)
    seed = label = None
    if args.history is not None:
        seed, label = _resolve_history(args.history)

    def row(results: dict) -> str:
        return "  ".join(
            f"{m}={'admit' if r.allowed else 'DENY'}"
            for m, r in results.items()
        )

    try:
        session = EngineSession(models, history=seed)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    denied = set(session.denying())
    if seed is not None:
        print(
            f"seed {label or 'history'}: "
            f"{len(session.history.operations)} op(s)  "
            f"{row(session.last_results)}",
            flush=True,
        )
    count = 0
    for line in sys.stdin:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            appended = session.append_line(line)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for op, results in appended:
            count += 1
            print(f"[{count}] {op}  {row(results)}", flush=True)
            for m, r in results.items():
                if not r.allowed and m not in denied and r.reason:
                    print(f"    {m}: {r.reason}", flush=True)
                    denied.add(m)
    print(f"-- {count} op(s) appended; final: {row(session.last_results)}")
    c = session.counters()
    print(
        f"-- reuse: {c['planes_grown']}/{c['appends']} append checks grew "
        f"the plane in place; {c['reuse_hits']} prefix-memory hit(s), "
        f"{c['fallbacks']} full search(es)"
    )
    if args.views:
        for m, r in session.last_results.items():
            if r.allowed and r.views:
                print(f"{m}:")
                print(render_views(r.views))
    return 0 if not session.denying() else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    history, _ = _resolve_history(args.history)
    print(render_history(history, title="history:"))
    for name in model_names():
        try:
            allowed = check(history, name).allowed
        except ReproError as exc:
            print(f"  {name:16s} not applicable ({exc})")
            continue
        print(f"  {name:16s} {'allowed' if allowed else 'NOT allowed'}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.kernel import explain_with_spec

    history, _ = _resolve_history(args.history)
    spec = _spec_of(args.model)
    print(render_history(history, title="history:"))
    result = explain_with_spec(spec, history)
    if result.allowed:
        print(f"\n{args.model}: allowed "
              f"(after {result.explored} candidate serialization(s))")
        if result.views:
            print(render_views(result.views))
        return 0
    print(f"\n{args.model}: NOT allowed")
    if result.counterexample is not None:
        print(result.counterexample.render())
    elif result.reason:
        print(result.reason)
    return 1


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.name:
        test = CATALOG.get(args.name)
        if test is None:
            print(f"unknown catalog entry {args.name!r}", file=sys.stderr)
            return 2
        print(render_history(test.history, title=f"{test.name}: {test.source}"))
        for model, expected in test.expected.items():
            got = check(test.history, model).allowed
            mark = "" if got == expected else "  <-- DIVERGES"
            print(f"  {model:16s} expected={expected} measured={got}{mark}")
        return 0
    for name, test in CATALOG.items():
        verdicts = " ".join(
            f"{m}={'Y' if check(test.history, m).allowed else 'N'}"
            for m in test.expected
        )
        print(f"{name:22s} {verdicts}")
    return 0


def _cmd_lattice(args: argparse.Namespace) -> int:
    from repro.engine import CheckEngine
    from repro.lattice import (
        FIGURE5_EDGES,
        HistorySpace,
        canonical_histories,
        classify_histories,
        containment_violations,
        empirical_hasse,
        extended_edges,
    )
    from repro.viz import lattice_to_dot, render_lattice

    space = HistorySpace(procs=args.procs, ops_per_proc=args.ops)
    histories = list(canonical_histories(space))
    # The panel defaults to every registered model and the edge set to
    # the registry-derived lattice, so newly registered models are
    # containment-checked without any CLI plumbing; --paper restricts
    # both to the verdict-locked Figure 5 sub-lattice.
    selector = "paper" if args.paper else args.models
    if selector == "paper":
        models: tuple[str, ...] = PAPER_MODELS
        edges = FIGURE5_EDGES
    else:
        models = resolve_models(selector)
        edges = extended_edges(models)
    result = classify_histories(histories, models, engine=CheckEngine(jobs=args.jobs))
    print(f"{len(histories)} canonical histories; counts: {result.counts()}")
    violations = containment_violations(result, edges)
    print(f"lattice violations ({len(edges)} claimed edges): {len(violations)}")
    g = empirical_hasse(result)
    print(lattice_to_dot(g) if args.dot else render_lattice(g))
    if args.report:
        from repro.lattice import lattice_report

        with open(args.report, "w") as fh:
            fh.write(lattice_report(result))
        print(f"report written to {args.report}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.engine import CheckEngine, SweepSpec, open_store

    models = ("all",) if args.models == "all" else tuple(args.models.split(","))
    spec = SweepSpec(
        source=args.source,
        models=models,
        procs=args.procs,
        ops_per_proc=args.ops,
        count=args.count,
        seed=args.seed,
        p_write=args.p_write,
    )
    engine = CheckEngine(jobs=args.jobs, store_views=args.store_views)
    if args.out:
        with open_store(args.out) as store:
            report = engine.run(spec, store=store, resume=args.resume)
    else:
        if args.resume:
            print("error: --resume needs --out", file=sys.stderr)
            return 2
        report = engine.run(spec)
    print(report.render())
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.diff import DiscrepancyCorpus, FuzzConfig, run_fuzz
    from repro.engine import CheckEngine

    # The fuzz panel's "all" is every spec-backed model.
    models = resolve_models("spec" if args.models == "all" else args.models)
    if args.resume and not args.corpus:
        print("error: --resume needs --corpus", file=sys.stderr)
        return 2
    config = FuzzConfig(
        seed=args.seed,
        count=args.count,
        shapes=tuple(args.shapes.split(",")),
        models=models,
        shrink=not args.no_shrink,
    )
    engine = CheckEngine(jobs=args.jobs) if args.jobs > 1 else None
    if args.corpus:
        with DiscrepancyCorpus(args.corpus) as corpus:
            report = run_fuzz(config, engine=engine, corpus=corpus, resume=args.resume)
        print(report.render())
        print(f"corpus written to {args.corpus}")
    else:
        report = run_fuzz(config, engine=engine)
        print(report.render())
    return 0 if report.clean else 1


def _cmd_bakery(args: argparse.Namespace) -> int:
    from repro.programs import DelayDeliveriesScheduler, RandomScheduler, run
    from repro.programs.mutex import bakery_program

    labeled = args.machine.startswith("rc_")
    program = bakery_program(2, labeled=labeled)
    if args.adversarial:
        result = run(
            _bakery_machine(args.machine),
            program,
            DelayDeliveriesScheduler(),
            max_steps=5000,
        )
        status = "VIOLATED" if result.mutex_violation else "held"
        print(f"{args.machine} adversarial: mutual exclusion {status}")
        return 0
    violations = 0
    for seed in range(args.runs):
        result = run(
            _bakery_machine(args.machine),
            program,
            RandomScheduler(seed),
            max_steps=5000,
        )
        if result.mutex_violation:
            violations += 1
    print(
        f"{args.machine}: {violations}/{args.runs} random schedules "
        "violated mutual exclusion"
    )
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    from repro.analysis.spectrum import accepting_models, strength_frontier

    history, _ = _resolve_history(args.history)
    print(render_history(history, title="history:"))
    frontier = strength_frontier(history)
    accepted = accepting_models(history)
    if not accepted:
        print("\nno model allows this history (a read observes an "
              "impossible value)")
        return 1
    print(f"\nstrength frontier: {', '.join(frontier)}")
    print(f"also allowed by: {', '.join(sorted(accepted - set(frontier))) or '(nothing weaker)'}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    return {
        "history": _lint_history,
        "spec": _lint_spec,
        "program": _lint_program,
    }[args.lint_target](args)


def _lint_history(args: argparse.Namespace) -> int:
    """Run the polynomial pre-pass; exit 1 when any model gets a DENY."""
    import json

    from repro.staticcheck import prepass_check

    history, _ = _resolve_history(args.history)
    names = resolve_models(args.model, spec_only=True)
    rows = []
    denied = 0
    for name in names:
        verdict = prepass_check(_spec_of(name), history)
        if verdict.decided:
            status, reason = "deny", verdict.reason
            denied += 1
        else:
            status = "unknown"
            reason = "search needed; ran " + ", ".join(verdict.checks_run)
        rows.append(
            {
                "model": name,
                "status": status,
                "check": verdict.check or None,
                "reason": reason,
            }
        )
    if args.json:
        print(json.dumps({"history": args.history, "verdicts": rows}, indent=2))
        return 1 if denied else 0
    print(render_history(history, title="history:"))
    for row in rows:
        name, status = row["model"], row["status"]
        if status == "deny":
            print(f"  {name:16s} DENY ({row['check']}): {row['reason']}")
        else:
            print(f"  {name:16s} unknown ({row['reason']})")
    return 1 if denied else 0


def _lint_spec(args: argparse.Namespace) -> int:
    """Lint specs; exit 1 when any error-level finding is reported."""
    import json

    from repro.staticcheck import broken_fixture_specs, lint_registry, lint_spec

    if args.broken_fixtures:
        reports = {
            spec.name: lint_spec(spec) for spec in broken_fixture_specs()
        }
    elif args.name:
        reports = {args.name: lint_spec(_spec_of(args.name))}
    else:
        reports = lint_registry()
    errors = sum(
        1
        for findings in reports.values()
        for finding in findings
        if finding.level == "error"
    )
    if args.json:
        payload = {
            name: [
                {
                    "code": finding.code,
                    "level": finding.level,
                    "message": finding.message,
                }
                for finding in findings
            ]
            for name, findings in reports.items()
        }
        print(json.dumps(payload, indent=2))
        return 1 if errors else 0
    for name, findings in reports.items():
        if not findings:
            print(f"{name}: clean")
            continue
        print(f"{name}:")
        for finding in findings:
            print(f"  {finding.render()}")
    return 1 if errors else 0


#: Built-in analyzable programs: name -> (text factory, shared names).
_LINT_PROGRAMS = {
    "figure6": ("repro.programs.figure6", "FIGURE6_TEXT", ("shared",)),
    "peterson": (
        "repro.programs.algorithm_texts",
        "PETERSON_TEXT",
        ("turn", "shared"),
    ),
    "naive-lock": ("repro.programs.algorithm_texts", "NAIVE_LOCK_TEXT", ("lock",)),
    "mislabeled-bakery": (
        "repro.programs.algorithm_texts",
        "MISLABELED_BAKERY_TEXT",
        ("shared",),
    ),
}


def _lint_program(args: argparse.Namespace) -> int:
    """Static race analysis; exit 1 when potential races are reported.

    ``--fix`` prints the program with the minimal ``sync`` relabeling
    applied (exit 0 — the fixed program has no races by construction);
    ``--certify`` emits a DRF certificate as JSON, exit 1 when the
    program is not certifiable.
    """
    import importlib
    import json

    from repro.staticcheck import analyze_program
    from repro.staticcheck.drf import certify_program
    from repro.staticcheck.progcheck import infer_labels

    if args.file:
        with open(args.file) as fh:
            text = fh.read()
        shared = tuple(s for s in args.shared.split(",") if s)
        name = args.file
    elif args.program in _LINT_PROGRAMS:
        module_name, attr, shared = _LINT_PROGRAMS[args.program]
        text = getattr(importlib.import_module(module_name), attr)
        name = args.program
    else:
        known = ", ".join(sorted(_LINT_PROGRAMS))
        print(
            f"unknown program {args.program!r} (known: {known}; "
            "or pass --file)",
            file=sys.stderr,
        )
        return 2

    if args.fix:
        patch = infer_labels(text, shared=shared, name=name, threads=args.threads)
        if args.json:
            print(
                json.dumps(
                    {
                        "program": name,
                        "lines": list(patch.lines),
                        "fixed_text": patch.apply(text),
                    },
                    indent=2,
                )
            )
            return 0
        print(f"# {patch.render().splitlines()[0]}")
        print(patch.apply(text), end="")
        return 0

    if args.certify:
        result = certify_program(
            text, shared=shared, name=name, threads=args.threads
        )
        if result.certified:
            assert result.certificate is not None
            print(result.certificate.to_json())
            return 0
        if args.json:
            print(json.dumps({"certified": False, "problems": list(result.problems)}))
        else:
            print(f"{name}: not certifiable:", file=sys.stderr)
            for problem in result.problems:
                print(f"  {problem}", file=sys.stderr)
        return 1

    report = analyze_program(text, shared=shared, name=name, threads=args.threads)
    if args.json:
        payload = {
            "program": name,
            "threads": report.threads,
            "properly_labeled": report.properly_labeled,
            "races": [race.render() for race in report.races],
            "cs_protected": [race.render() for race in report.cs_protected],
            "accesses": [access.render() for access in report.accesses],
        }
        print(json.dumps(payload, indent=2))
        return 1 if report.races else 0
    print(report.render())
    return 1 if report.races else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.kernel import check_with_spec
    from repro.obs import RecordingSink, render_trace

    history, label = _resolve_history(args.history)
    spec = _spec_of(args.model)
    title = f"history ({label}):" if label else "history:"
    if args.markdown:
        print("```text")
    print(render_history(history, title=title))
    if args.markdown:
        print("```")
    print()
    sink = RecordingSink()
    result = check_with_spec(spec, history, trace=sink)
    print(
        render_trace(sink.events, markdown=args.markdown, max_steps=args.max_steps)
    )
    if result.allowed and result.views:
        print("witness views:")
        if args.markdown:
            print("```text")
        print(render_views(result.views))
        if args.markdown:
            print("```")
    return 0 if result.allowed else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import ProfileAggregate, profile_check

    names = resolve_models(args.models, spec_only=True)
    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2
    agg = ProfileAggregate()
    checks = 0
    for entry in CATALOG.values():
        for name in names:
            spec = _spec_of(name)
            for _ in range(args.repeat):
                _, profile = profile_check(spec, entry.history)
                agg.add(profile)
                checks += 1
    print(
        f"profiled {checks} check(s): {len(CATALOG)} catalog histories x "
        f"{len(names)} model(s) x {args.repeat} repeat(s)"
    )
    print()
    print(agg.render(markdown=args.markdown))
    if args.counters:
        print()
        print(agg.render_counters(markdown=args.markdown))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeConfig, run_server

    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    config = ServeConfig(
        host=args.host,
        port=args.port,
        store_url=args.store,
        workers=args.workers,
        sweep_jobs=args.sweep_jobs,
        request_timeout=args.timeout,
        max_request_bytes=args.max_request_bytes,
        log_requests=not args.quiet,
    )
    return run_server(config)


def _cmd_store(args: argparse.Namespace) -> int:
    import json as _json

    from repro.engine import migrate_store, open_store

    if args.store_action == "migrate":
        out = migrate_store(args.source, args.dest)
        print(
            f"migrated {out['records']} record(s) from {args.source} "
            f"to {args.dest}"
        )
        print(_json.dumps(out["summary"], indent=2, sort_keys=True))
        return 0
    with open_store(args.store) as store:
        if args.store_action == "compact":
            out = store.compact()
            print(
                f"compacted {args.store}: kept {out['kept']} record(s), "
                f"dropped {out['dropped']} superseded"
            )
            return 0
        print(_json.dumps(store.summarize(), indent=2, sort_keys=True))
        return 0


def _cmd_models(args: argparse.Namespace) -> int:
    import re

    width = max(map(len, MODELS))
    for name, model in MODELS.items():
        spec = model.spec
        desc = spec.description if spec else "axiomatic reference model (no spec)"
        # A sentence ends at a period before a capital or a parenthesis,
        # so "et al. 1991" and "Section 3.2" stay inside it.
        first_sentence = re.split(r"(?<=\.)\s+(?=[A-Z(])", desc)[0]
        print(f"{name:{width}s} {first_sentence}")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "classify": _cmd_classify,
    "explain": _cmd_explain,
    "catalog": _cmd_catalog,
    "lattice": _cmd_lattice,
    "sweep": _cmd_sweep,
    "fuzz": _cmd_fuzz,
    "bakery": _cmd_bakery,
    "spectrum": _cmd_spectrum,
    "lint": _cmd_lint,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "serve": _cmd_serve,
    "store": _cmd_store,
    "models": _cmd_models,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
