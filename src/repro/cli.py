"""Command-line interface.

Subcommands::

    python -m repro gen --sf 1 --out store/                # TPC-H -> column store
    python -m repro run "select ..." --store store/        # mmap column store
    python -m repro run --file q.sql --tpch 0.002 --strategy auto
    python -m repro run "select ..." --tpch 0.002 --backend vector
    python -m repro run --list-strategies                  # registry listing
    python -m repro explain "select ..." --tpch 0.002 --strategy system-a-native
    python -m repro bench --figure fig4 --sf 0.005         # one paper figure
    python -m repro fuzz --iterations 500 --seed 42        # differential fuzz
    python -m repro fuzz --oracle sqlite                   # + external oracle
    python -m repro diff "select ..." --tpch 0.002         # vs real engine
    python -m repro serve --tpch 0.01 --port 8080          # HTTP/JSON server
    python -m repro strategies                             # list strategies

All execution goes through the Session API (:func:`repro.connect` /
:meth:`~repro.session.Session.prepare`); library errors surface as one
``error: ...`` line on stderr with a nonzero exit code.

Databases come from a memory-mapped column store written by ``gen`` /
:func:`repro.tpch.generate_stored` (``--store``), or from an in-memory
TPC-H instance generated on the fly (``--tpch <sf>``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

import repro
from .engine.catalog import Database
from .engine.metrics import collect
from .errors import ReproError


def _load_db(args: argparse.Namespace) -> Database:
    if getattr(args, "store", None):
        from .engine.colstore import load_stored_database

        # no paper indexes: a probe of one pulls the probed table's
        # rows into Python heap, defeating the zero-copy mmap scan path
        return load_stored_database(args.store)
    sf = getattr(args, "tpch", None)
    if sf is None:
        sf = 0.002
    return repro.tpch.generate(
        repro.tpch.TpchConfig(
            scale_factor=float(sf),
            seed=getattr(args, "seed", 42),
            price_not_null=getattr(args, "not_null", False),
        )
    )


def _read_sql(args: argparse.Namespace) -> str:
    if getattr(args, "file", None):
        with open(args.file) as handle:
            return handle.read()
    if args.sql:
        return args.sql
    raise SystemExit("provide SQL inline or with --file")


def cmd_gen(args: argparse.Namespace) -> int:
    from .engine.colstore import load_stored_database, store_size_bytes

    repro.tpch.generate_stored(
        args.out,
        repro.tpch.TpchConfig(
            scale_factor=args.sf,
            seed=args.seed,
            price_not_null=args.not_null,
            inject_null_fraction=args.inject_nulls,
        ),
        chunk_rows=args.chunk_rows,
    )
    size = store_size_bytes(args.out)
    print(f"wrote TPC-H sf={args.sf} column store to {args.out}/ "
          f"({size / 1_000_000:.1f} MB)")
    print(load_stored_database(args.out).summary())
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from .engine.trace import render_trace

    if args.list_strategies:
        print(repro.strategies.describe())
        return 0
    session = repro.connect(
        _load_db(args),
        plan_cache=not args.no_plan_cache,
        timeout_ms=args.timeout_ms,
        memory_limit_mb=args.memory_limit_mb,
        spill_dir=args.spill_dir,
        logic=args.logic,
    )
    prepared = session.prepare(_read_sql(args))
    trace = None
    with collect() as metrics:
        start = time.perf_counter()
        if args.trace:
            result, trace = prepared.trace(
                strategy=args.strategy, backend=args.backend
            )
        else:
            result = prepared.execute(
                strategy=args.strategy, backend=args.backend
            )
        elapsed = time.perf_counter() - start
    if trace is not None:
        rendered = (
            trace.to_json() if args.trace == "json"
            else render_trace(trace)
        )
        if args.trace_out:
            with open(args.trace_out, "w") as handle:
                handle.write(rendered + "\n")
            print(f"trace written to {args.trace_out}")
        else:
            print(rendered)
            print()
    print(result.to_table(max_rows=args.limit))
    backend_note = f", backend={args.backend}" if args.backend else ""
    print(
        f"\n{len(result)} row(s) in {elapsed:.4f}s "
        f"[strategy={args.strategy}{backend_note}, "
        f"weighted-cost={metrics.weighted_cost()}]"
    )
    if args.check:
        oracle = prepared.execute(strategy="nested-iteration")
        status = "agrees" if result == oracle else "DISAGREES"
        print(f"oracle check: {status} with nested-iteration")
        if result != oracle:
            return 1
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    session = repro.connect(_load_db(args))
    prepared = session.prepare(_read_sql(args))
    plan = prepared.explain(
        strategy=args.strategy,
        analyze=args.analyze,
        timings=not args.no_timings,
    )
    if args.format == "json":
        print(plan.render("json"))
        return 0
    print(prepared.describe())
    print()
    print(repro.TreeExpression(prepared.query).render())
    print()
    print(plan.render("text"))
    return 0


_FIGURES = {
    "fig4": "figure4_query1",
    "fig5": "figure5_query2a",
    "fig6": "figure6_query2b",
    "fig7": "figure7_query3a",
    "fig8": "figure8_query3b",
    "fig9": "figure9_query3c",
}


def cmd_bench(args: argparse.Namespace) -> int:
    import contextlib

    from . import bench
    from .bench.harness import capturing_traces, write_bench_artifact

    db = bench.default_db(sf=args.sf, seed=args.seed)
    if args.figure == "all":
        names = list(_FIGURES) + ["t-ir"]
    else:
        names = [args.figure]
    trace_dir = getattr(args, "trace_dir", None)
    capture = capturing_traces() if trace_dir else contextlib.nullcontext()
    with capture:
        for name in names:
            if name == "t-ir":
                from .bench.figures import format_profiles, text_intermediate_results

                print(format_profiles(text_intermediate_results(db)))
                continue
            if name not in _FIGURES:
                raise SystemExit(
                    f"unknown figure {name!r}; choose from {sorted(_FIGURES)} or 'all'"
                )
            result = getattr(bench, _FIGURES[name])(db)
            experiments = result.values() if isinstance(result, dict) else [result]
            for experiment in experiments:
                print(experiment.format_table("seconds"))
                print(experiment.format_table("cost"))
                if args.chart:
                    from .bench.plot import render_chart

                    print()
                    print(render_chart(experiment, metric="cost"))
                print()
            if trace_dir:
                path = write_bench_artifact(
                    name, list(experiments), trace_dir, args.sf
                )
                print(f"wrote {path}")
    return 0


def cmd_strategies(_args: argparse.Namespace) -> int:
    print(repro.strategies.describe())
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import (
        DifferentialRunner,
        FuzzConfig,
        MiscountingSpanStrategy,
        MutatedLinkStrategy,
        run_fuzz,
    )

    strategies = None
    if args.strategies:
        strategies = tuple(
            name.strip() for name in args.strategies.split(",") if name.strip()
        )
        # "auto" is the planner's rule, not an executable strategy: fuzzing
        # it would just re-test whichever strategy it delegates to.
        known = set(repro.strategies.names())
        unknown = [name for name in strategies if name not in known]
        if unknown:
            print(
                "error: unknown strategy name(s) for fuzz: "
                + ", ".join(unknown)
                + "\navailable: "
                + ", ".join(sorted(known)),
                file=sys.stderr,
            )
            return 2
    null_rate = args.null_rate
    if null_rate is None:
        # the 2VL leg checks the NULL-free equivalence 2VL == 3VL ==
        # external engine, so its default data is NULL-free (explicit
        # --null-rate still overrides for 2VL-vs-oracle exploration)
        null_rate = 0.0 if args.logic == "2vl" else 0.25
    try:
        config = FuzzConfig(
            iterations=args.iterations,
            seed=args.seed,
            max_depth=args.depth,
            null_rate=null_rate,
            max_rows=args.max_rows,
            strategies=strategies,
            logic=args.logic,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.oracle != "internal":
        from .oracle import engine_available

        if not engine_available(args.oracle):
            print(
                f"error: oracle engine {args.oracle!r} is not available "
                "(package not installed?)",
                file=sys.stderr,
            )
            return 2
    extra = [MutatedLinkStrategy()] if args.inject_bug else []
    if args.inject_trace_bug:
        extra.append(MiscountingSpanStrategy())
    runner = DifferentialRunner(
        strategies=config.strategies,
        extra_strategies=extra,
        oracle=args.oracle,
        logic=config.logic,
        memory_limit_mb=args.memory_limit_mb,
        spill_dir=args.spill_dir,
    )

    def progress(i: int, report) -> None:
        if not args.quiet and (i + 1) % 100 == 0:
            print(
                f"... {i + 1}/{config.iterations} cases, "
                f"{report.strategy_checks} strategy checks"
            )

    outcome = run_fuzz(
        config,
        runner=runner,
        corpus_dir=args.corpus_dir,
        shrink=not args.no_shrink,
        progress=progress,
    )
    print(outcome.report.summary())
    if outcome.ok:
        return 0
    failure = outcome.shrunk_failure or outcome.report.failures[0]
    print()
    print("minimized failure:" if outcome.shrunk_case else "failure:")
    print(failure.describe())
    if outcome.corpus_path:
        print(f"\nregression written to {outcome.corpus_path}")
        print("re-run it with: python -m pytest " + outcome.corpus_path)
    return 1


def cmd_diff(args: argparse.Namespace) -> int:
    from .oracle import cross_check, engine_available

    if not engine_available(args.engine):
        print(
            f"error: oracle engine {args.engine!r} is not available "
            "(package not installed?)",
            file=sys.stderr,
        )
        return 2
    strategies = tuple(
        name.strip() for name in args.strategies.split(",") if name.strip()
    ) or ("auto",)
    reports = cross_check(
        _load_db(args),
        _read_sql(args),
        engine=args.engine,
        strategies=strategies,
        backend=args.backend,
        capture_plans=args.explain,
    )
    diverged = False
    for report in reports:
        print(report.describe())
        if args.explain and report.plan_theirs:
            print(f"  {args.engine} plan:")
            for line in report.plan_theirs.splitlines():
                print(f"    {line}")
        if not report.acceptable:
            diverged = True
    return 1 if diverged else 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import signal

    from .options import ExecutionOptions
    from .serve import QueryServer, TenantConfig

    tenants = {}
    if args.tenants:
        with open(args.tenants) as handle:
            spec = json.load(handle)
        if not isinstance(spec, dict):
            raise ReproError(
                f"--tenants file must be a JSON object, got {type(spec).__name__}"
            )
        tenants = {
            name: TenantConfig.from_dict(name, entry)
            for name, entry in spec.items()
        }
    default_tenant = TenantConfig(
        "default",
        max_concurrent=args.max_concurrent,
        max_queued=args.max_queued,
        options=ExecutionOptions(
            timeout_ms=args.timeout_ms,
            memory_limit_mb=args.memory_limit_mb,
            spill_dir=args.spill_dir,
            logic=args.logic,
        ),
    )
    db = _load_db(args)
    server = QueryServer(
        db,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        tenants=tenants,
        default_tenant=default_tenant,
    )

    async def _main() -> None:
        shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, shutdown.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await server.start()
        print(f"serving on http://{server.host}:{server.port} "
              f"(workers={server.workers}, queue={server.queue_size})",
              flush=True)
        try:
            await shutdown.wait()
            print("draining: in-flight queries finishing, new requests "
                  "rejected", flush=True)
            await server.drain()
        finally:
            await server.stop()

    asyncio.run(_main())
    print("server drained and stopped", flush=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Nested relational subquery processing (SIGMOD 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "gen",
        help="generate TPC-H data as a memory-mapped column store",
    )
    p.add_argument("--sf", type=float, default=0.002)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True)
    p.add_argument("--not-null", action="store_true", dest="not_null",
                   help="declare NOT NULL on the price columns")
    p.add_argument("--inject-nulls", type=float, default=0.0)
    p.add_argument("--chunk-rows", type=int, default=100_000,
                   dest="chunk_rows",
                   help="rows buffered per column chunk while writing "
                        "(bounds generator memory)")
    p.set_defaults(func=cmd_gen)

    for name, func, help_text in (
        ("run", cmd_run, "execute a SQL query"),
        ("explain", cmd_explain, "show query structure and plan"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("sql", nargs="?", help="SQL text (or use --file)")
        p.add_argument("--file", help="read SQL from a file")
        p.add_argument("--store", help="column-store directory from 'gen' "
                                       "(tables scan zero-copy off mmap)")
        p.add_argument("--tpch", type=float, help="generate TPC-H at this sf")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--not-null", action="store_true", dest="not_null")
        p.add_argument("--strategy", default="auto")
        if name == "run":
            p.add_argument("--backend", choices=("row", "vector"),
                           help="execution substrate: tuple-at-a-time "
                                "iterators or columnar batches "
                                "(default: the strategy's own)")
            p.add_argument("--timeout-ms", type=float, dest="timeout_ms",
                           help="abort the query with a typed timeout "
                                "error once it runs past this deadline")
            p.add_argument("--memory-limit-mb", type=float,
                           dest="memory_limit_mb",
                           help="abort the query once its accounted "
                                "allocations exceed this budget")
            p.add_argument("--spill-dir", dest="spill_dir",
                           help="spill hash-join builds and grouping runs "
                                "to temp files under this directory instead "
                                "of failing on a memory-budget breach")
            p.add_argument("--no-plan-cache", action="store_true",
                           dest="no_plan_cache",
                           help="disable the session's cross-query "
                                "plan/build cache")
            p.add_argument("--logic", default="3vl",
                           choices=("3vl", "2vl"),
                           help="predicate semantics: SQL-standard "
                                "three-valued logic or Libkin two-valued "
                                "logic (NULL comparisons are plain FALSE)")
            p.add_argument("--list-strategies", action="store_true",
                           dest="list_strategies",
                           help="list registered strategies and exit")
            p.add_argument("--limit", type=int, default=20,
                           help="max rows to print")
            p.add_argument("--check", action="store_true",
                           help="verify against the tuple-iteration oracle")
            p.add_argument("--trace", choices=("json", "text"),
                           help="record an execution trace and print it "
                                "(or write it with --trace-out)")
            p.add_argument("--trace-out", dest="trace_out",
                           help="write the trace to this file instead of stdout")
        else:
            p.add_argument("--analyze", action="store_true",
                           help="execute the query and annotate the plan with "
                                "per-operator row counts and wall times")
            p.add_argument("--no-timings", action="store_true", dest="no_timings",
                           help="omit wall times from --analyze output "
                                "(deterministic)")
            p.add_argument("--format", choices=("text", "json"),
                           default="text",
                           help="plan rendering: human-readable text or the "
                                "machine-readable JSON document (estimated "
                                "rows under auto, spans when --analyze)")
        p.set_defaults(func=func)

    p = sub.add_parser("bench", help="regenerate a paper figure")
    p.add_argument("--figure", default="all",
                   help="fig4..fig9, t-ir, or 'all'")
    p.add_argument("--sf", type=float, default=0.005)
    p.add_argument("--seed", type=int, default=2005)
    p.add_argument("--chart", action="store_true",
                   help="also draw ASCII charts")
    p.add_argument("--trace-dir", dest="trace_dir",
                   help="capture per-operator execution traces and write "
                        "BENCH_<figure>.json files into this directory")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "fuzz",
        help="differentially fuzz every strategy against the oracle",
    )
    p.add_argument("--iterations", type=int, default=500,
                   help="number of random (query, database) cases")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed; (seed, iteration) reproduces a case")
    p.add_argument("--depth", type=int, default=3,
                   help="maximum subquery nesting depth (1-4)")
    p.add_argument("--null-rate", type=float, default=None, dest="null_rate",
                   help="per-cell NULL probability in generated data "
                        "(default 0.25; 0.0 under --logic=2vl, whose "
                        "default leg checks NULL-free 2VL==3VL==oracle "
                        "equivalence)")
    p.add_argument("--logic", default="3vl", choices=("3vl", "2vl"),
                   help="run every internal strategy under this logic "
                        "mode; external oracles always evaluate 3VL, so "
                        "a 2vl run grounds them against a separate 3VL "
                        "oracle execution")
    p.add_argument("--max-rows", type=int, default=8, dest="max_rows",
                   help="maximum rows per generated table")
    p.add_argument("--strategies",
                   help="comma-separated strategy names (default: all)")
    p.add_argument("--corpus-dir", default="tests/fuzz_corpus",
                   help="where minimized failures are written as pytest files")
    p.add_argument("--no-shrink", action="store_true",
                   help="report the raw failing case without minimizing")
    p.add_argument("--inject-bug", action="store_true", dest="inject_bug",
                   help="self-test: add a deliberately broken strategy and "
                        "verify the fuzzer catches it")
    p.add_argument("--inject-trace-bug", action="store_true",
                   dest="inject_trace_bug",
                   help="self-test: add a strategy whose results are right "
                        "but whose operator spans miscount rows; the trace "
                        "invariants must catch it")
    p.add_argument("--oracle", default="internal",
                   choices=("internal", "sqlite", "duckdb"),
                   help="also cross-check the tuple-iteration oracle "
                        "against a real engine on every case; external "
                        "divergences ddmin-shrink into the corpus like "
                        "internal disagreements (default: internal only)")
    p.add_argument("--memory-limit-mb", type=float, default=None,
                   dest="memory_limit_mb",
                   help="tiny-memory-budget mode: run every checked "
                        "strategy under a spilling governor with this "
                        "budget (the oracle stays ungoverned), so random "
                        "queries exercise the spill paths")
    p.add_argument("--spill-dir", dest="spill_dir",
                   help="spill directory for --memory-limit-mb "
                        "(default: a fresh temp dir)")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "diff",
        help="cross-check strategies against an external engine",
    )
    p.add_argument("sql", nargs="?", help="SQL text (or use --file)")
    p.add_argument("--file", help="read SQL from a file")
    p.add_argument("--tpch", type=float, help="generate TPC-H at this sf")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--not-null", action="store_true", dest="not_null")
    p.add_argument("--engine", default="sqlite",
                   choices=("sqlite", "duckdb", "internal"),
                   help="external engine to diff against")
    p.add_argument("--strategies", default="auto",
                   help="comma-separated strategy names (default: auto)")
    p.add_argument("--backend", choices=("row", "vector"))
    p.add_argument("--explain", action="store_true",
                   help="also print the external engine's plan text")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser(
        "serve",
        help="serve queries over HTTP/JSON (multi-tenant, governed)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port (0 binds an ephemeral port)")
    p.add_argument("--store", help="column-store directory from 'gen'")
    p.add_argument("--tpch", type=float, help="generate TPC-H at this sf")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--not-null", action="store_true", dest="not_null")
    p.add_argument("--workers", type=int, default=4,
                   help="worker processes, forked at startup (bounds "
                        "concurrent executions; memory scales with it)")
    p.add_argument("--queue-size", type=int, default=128, dest="queue_size",
                   help="global admission queue bound (429 beyond it)")
    p.add_argument("--max-concurrent", type=int, default=4,
                   dest="max_concurrent",
                   help="default per-tenant concurrent-query quota")
    p.add_argument("--max-queued", type=int, default=16, dest="max_queued",
                   help="default per-tenant waiting-query quota")
    p.add_argument("--timeout-ms", type=float, dest="timeout_ms",
                   help="default per-query timeout")
    p.add_argument("--memory-limit-mb", type=float, dest="memory_limit_mb",
                   help="default per-query memory budget")
    p.add_argument("--spill-dir", dest="spill_dir",
                   help="spill directory shared by all tenants (each "
                        "execution gets a private subdirectory)")
    p.add_argument("--logic", choices=("3vl", "2vl"),
                   help="default predicate semantics")
    p.add_argument("--tenants",
                   help="JSON file of per-tenant quotas/options "
                        '({"name": {"max_concurrent": ..., '
                        '"options": {...}}})')
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("strategies", help="list strategy names")
    p.set_defaults(func=cmd_strategies)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # every library error surfaces as one clean line, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) went away mid-print
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
