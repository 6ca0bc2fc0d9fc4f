"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tables``      regenerate the paper's Tables 1-7 and diff them
``figures``     regenerate Figures 1-4
``membership``  classify every implemented protocol against the class
``verify``      run the compatibility verification matrix (model checker)
``shootout``    the Arch85-style protocol performance comparison
``hierarchy``   the multi-bus (section 6) demonstration
``diagram``     emit a protocol state diagram (text or Graphviz DOT)
``ablation``    line-size / replacement / geometry sweeps
``run``         run one protocol over a synthetic workload or a trace file
``bench``       serial-vs-parallel performance suite -> BENCH_perf.json
``fuzz``        differential fuzzing campaign / replay a repro file
``serve``       run the memoizing NDJSON daemon over the warm pool
``submit``      submit a spec to a running daemon (or query its status)

Observability
-------------
Every command accepts ``--json`` and prints one machine-readable
envelope ``{"command", "ok", "data", "metrics"}`` instead of the human
report.  The simulation commands (``run``, ``verify``, ``shootout``,
``fuzz``, ``hierarchy``) also accept ``--trace FILE`` -- write the
structured trace in Chrome trace-event format (open it in Perfetto;
name the file ``*.jsonl`` for JSON-lines instead) -- and ``--metrics``
to print the metrics snapshot.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

__all__ = ["main", "build_parser"]


# ----------------------------------------------------------------------
# Shared plumbing: the --json envelope and the observability flags.
# ----------------------------------------------------------------------
def _emit(args: argparse.Namespace, command: str, ok: bool, data,
          metrics: Optional[dict] = None) -> int:
    """Print the uniform ``--json`` envelope and map ``ok`` to an exit
    code.  Only called when ``args.json`` is set."""
    envelope = {
        "command": command,
        "ok": bool(ok),
        "data": data,
        "metrics": metrics or {},
    }
    print(json.dumps(envelope, indent=2, sort_keys=True, default=str))
    return 0 if ok else 1


def _maybe_write_trace(args: argparse.Namespace, session) -> Optional[str]:
    """Export the session's trace when ``--trace FILE`` was given."""
    path = getattr(args, "trace", None)
    if not path:
        return None
    fmt = "jsonl" if str(path).endswith(".jsonl") else "chrome"
    return str(session.write_trace(path, fmt=fmt))


def _print_metrics(metrics: dict) -> None:
    if not metrics:
        print("(no metrics)")
        return
    width = max(len(name) for name in metrics)
    print("metrics:")
    for name in sorted(metrics):
        print(f"  {name:<{width}}  {metrics[name]}")


def _add_json_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--json", action="store_true",
        help='machine-readable envelope {"command","ok","data","metrics"} '
             "on stdout instead of the human report")


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace", metavar="FILE",
        help="write the structured trace: Chrome trace-event JSON "
             "(Perfetto), or JSON-lines if FILE ends in .jsonl")
    p.add_argument(
        "--metrics", action="store_true",
        help="print the metrics snapshot after the run")


# ----------------------------------------------------------------------
# Commands.
# ----------------------------------------------------------------------
def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.analysis.tables import (
        diff_all_tables,
        moesi_local_cells,
        moesi_snoop_cells,
        protocol_cells,
        render_cells,
    )
    from repro.protocols.registry import make_protocol

    diffs = diff_all_tables()
    ok = all(d.matches for d in diffs)
    if args.json:
        data = {
            "diffs": [
                {
                    "summary": d.summary(),
                    "matches": d.matches,
                    "mismatches": list(d.mismatches),
                }
                for d in diffs
            ]
        }
        metrics = {
            "tables.diffed": len(diffs),
            "tables.mismatches": sum(len(d.mismatches) for d in diffs),
        }
        return _emit(args, "tables", ok, data, metrics)
    for diff in diffs:
        print(diff.summary())
        for mismatch in diff.mismatches:
            print("  !!", mismatch)
    if args.render:
        print()
        print(render_cells(moesi_local_cells(), "Table 1: MOESI -- local"))
        print()
        print(render_cells(moesi_snoop_cells(), "Table 2: MOESI -- bus"))
        for number, name, columns in (
            (3, "berkeley", ("Read", "Write", 5, 6)),
            (4, "dragon", ("Read", "Write", 5, 8)),
            (5, "write-once", ("Read", "Write", 5, 6)),
            (6, "illinois", ("Read", "Write", 5, 6)),
            (7, "firefly", ("Read", "Write", 5, 8)),
        ):
            protocol = make_protocol(name)
            print()
            print(render_cells(protocol_cells(protocol, columns),
                               f"Table {number}: {protocol.name}"))
    return 0 if ok else 1


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis.figures import (
        figure1_broadcast_handshake,
        figure2_parallel_protocol,
        figure3_characteristics,
        figure4_state_pairs,
    )

    texts = [
        figure1_broadcast_handshake(),
        figure2_parallel_protocol(),
        figure3_characteristics(),
        figure4_state_pairs(),
    ]
    if args.json:
        return _emit(args, "figures", True, {"figures": texts},
                     {"figures.rendered": len(texts)})
    for text in texts:
        print(text)
        print()
    return 0


def _cmd_membership(args: argparse.Namespace) -> int:
    from repro.core.validation import check_membership
    from repro.protocols.registry import make_protocol, protocol_names

    names = args.protocol or protocol_names()
    reports = [(name, check_membership(make_protocol(name)))
               for name in names]
    if args.json:
        data = {
            "reports": [
                {
                    "protocol": name,
                    "summary": report.summary(),
                    "issues": [str(issue) for issue in report.issues],
                }
                for name, report in reports
            ]
        }
        return _emit(args, "membership", True, data,
                     {"membership.checked": len(reports)})
    for _, report in reports:
        print(report.summary())
        if args.verbose:
            for issue in report.issues:
                print("   ", issue)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_rows
    from repro.api import Session, plan

    suites = ("class-members", "homogeneous-foreign")
    if not args.quick:
        suites += ("incompatible", "mutants")
    session = Session(label="verify", trace=bool(args.trace))
    result = session.execute(plan("verify", suites=suites),
                             workers=args.workers)
    rows, bad = result.rows, result.failures
    metrics = {
        "verify.cases": len(rows),
        "verify.failures": len(bad),
        "verify.states": sum(r["states"] for r in rows),
        "verify.transitions": sum(r["transitions"] for r in rows),
    }
    trace_path = _maybe_write_trace(args, session)
    if args.json:
        return _emit(args, "verify", result.ok,
                     {"rows": rows, "trace_path": trace_path}, metrics)
    print(
        format_rows(
            rows,
            "Compatibility verification matrix",
            columns=["mix", "expected", "observed", "ok", "states",
                     "transitions"],
        )
    )
    print(f"\n{len(rows) - len(bad)}/{len(rows)} cases as expected")
    if trace_path:
        print(f"trace written to {trace_path}")
    if args.metrics:
        _print_metrics(metrics)
    return 0 if not bad else 1


def _cmd_shootout(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_rows
    from repro.api import Session, plan

    session = Session(label="shootout", trace=bool(args.trace))
    rows = session.execute(
        plan("shootout", references=args.references, seed=args.seed),
        workers=args.workers,
    )
    metrics = {
        "shootout.protocols": len(rows),
        "shootout.references": args.references,
    }
    trace_path = _maybe_write_trace(args, session)
    if args.json:
        return _emit(args, "shootout", True,
                     {"rows": rows, "trace_path": trace_path}, metrics)
    print(format_rows(rows, "Protocol comparison (timed Futurebus run)"))
    if trace_path:
        print(f"trace written to {trace_path}")
    if args.metrics:
        _print_metrics(metrics)
    return 0


def _batch_section_rows(section: dict) -> list:
    return [
        {"backend": name, **leg}
        for name, leg in section["backends"].items()
    ]


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_rows
    from repro.perf.bench import run_bench_suite, write_bench_json

    if getattr(args, "batch", False):
        # Batch-kernel section only: no matrix/DES/obs legs, no JSON
        # artifact -- the quick way to eyeball population throughput.
        from repro.perf.bench import _bench_batch

        section = _bench_batch(args.quick)
        ok = section["verified_ok"]
        if args.json:
            return _emit(
                args, "bench", ok, {"batch": section},
                {"bench.batch_backend": section["default_backend"]},
            )
        print(
            format_rows(
                _batch_section_rows(section),
                f"Batch kernel ({section['rows']} rows x "
                f"{section['events_per_row']} events/row, oracle check on "
                f"{section['verified_rows']} rows: "
                f"{'ok' if ok else 'MISMATCH'})",
            )
        )
        return 0 if ok else 1

    if getattr(args, "serve_batch", False):
        # Continuous-batching section only: coalesced population vs
        # one-at-a-time dispatch on a compatible burst.  Like --batch,
        # this never writes the JSON artifact (baseline hygiene: quick
        # numbers must not overwrite the committed full-suite report).
        from repro.perf.bench import _bench_serve_batch

        section = _bench_serve_batch(args.quick)
        ok = section["identical"]
        if args.json:
            return _emit(
                args, "bench", ok, {"serve_batch": section},
                {"bench.serve_batch_backend": section["backend"]},
            )
        print(
            f"serve batch ({section['requests']} compatible requests, "
            f"{section['backend']} backend): one-at-a-time "
            f"{section['scalar_s']:.4f}s ({section['scalar_rps']}/s), "
            f"coalesced {section['batched_s']:.4f}s "
            f"({section['batched_rps']}/s), speedup "
            f"{section['speedup']}x, payloads "
            f"{'identical' if ok else 'MISMATCH'}"
        )
        return 0 if ok else 1

    report = run_bench_suite(workers=args.workers, quick=args.quick)
    ok = (report["matrix"]["rows_identical"]
          and report["des"]["rows_identical"])
    if args.json:
        return _emit(args, "bench", ok, report,
                     {"bench.workers": report["workers"]})
    print(
        format_rows(
            report["explorer"],
            "Object-explorer baseline (single worker, exhaustive; "
            "the compiled search's oracle)",
        )
    )
    section_rows = []
    for name in ("matrix", "des"):
        section = report[name]
        section_rows.append(
            {
                "section": name,
                "serial_s": section["serial_s"],
                "parallel_s": section["parallel_s"],
                "speedup": section["speedup"],
                "identical": section["rows_identical"],
            }
        )
    print()
    print(
        format_rows(
            section_rows,
            f"Serial vs parallel ({report['workers']} workers, "
            f"{report['cpu_count']} cpus)",
        )
    )
    obs = report["obs"]
    print(f"\nobservability tax ({obs['references']} refs, best of "
          f"{obs['repeats']}): disabled {obs['overhead_disabled_pct']:+.2f}%,"
          f" traced {obs['overhead_traced_pct']:+.2f}% vs direct")
    batch = report.get("batch")
    if batch is not None:
        print()
        print(
            format_rows(
                _batch_section_rows(batch),
                f"Batch kernel ({batch['rows']} rows x "
                f"{batch['events_per_row']} events/row, oracle check on "
                f"{batch['verified_rows']} rows: "
                f"{'ok' if batch['verified_ok'] else 'MISMATCH'})",
            )
        )
    serve = report.get("serve")
    if serve is not None:
        cache = serve["cache"]
        print(f"\nserve tier ({serve['references']} refs): miss "
              f"{serve['miss_s']:.4f}s, hit p50 {serve['hit_ns_p50']} ns "
              f"p99 {serve['hit_ns_p99']} ns ({serve['hit_speedup']}x at "
              f"p50); cache hits {cache['hits']}, misses {cache['misses']}")
    serve_batch = report.get("serve_batch")
    if serve_batch is not None:
        print(f"serve batch ({serve_batch['requests']} compatible "
              f"requests, {serve_batch['backend']} backend): "
              f"{serve_batch['scalar_rps']}/s one-at-a-time -> "
              f"{serve_batch['batched_rps']}/s coalesced "
              f"({serve_batch['speedup']}x, payloads "
              f"{'identical' if serve_batch['identical'] else 'MISMATCH'})")
    regression = report.get("regression")
    if regression is not None:
        if regression["explorer"]:
            print()
            print(
                format_rows(
                    regression["explorer"],
                    "Regression vs baseline "
                    f"({regression['baseline_timestamp']})",
                )
            )
        for failure in regression["failures"]:
            print(f"REGRESSION: {failure}")
        if regression["ok"]:
            print("regression check: ok (budgets "
                  f"tps>={regression['budgets']['min_tps_ratio']}x, "
                  "traced<="
                  f"{regression['budgets']['max_traced_overhead_pct']:.0f}%)")
    path = write_bench_json(report, args.out)
    print(f"\nwrote {path}")
    return 0 if ok else 1


def _cmd_hierarchy(args: argparse.Namespace) -> int:
    import random

    from repro.hierarchy import HierarchicalSystem

    h = HierarchicalSystem.grid(args.clusters, args.cpus)
    tracer = None
    if args.trace:
        from repro.obs.trace import Tracer, attach_tracer

        tracer = Tracer(stream="hierarchy")
        attach_tracer(h, tracer)
    rng = random.Random(args.seed)
    units = list(h.controllers)
    for _ in range(args.references):
        unit = rng.choice(units)
        address = rng.randrange(args.lines) * 32
        if rng.random() < 0.4:
            h.write(unit, address)
        else:
            h.read(unit, address)
    violations = h.check_coherence()
    traffic = h.traffic()
    metrics = {f"hierarchy.{name}": value
               for name, value in sorted(traffic.items())}
    metrics["hierarchy.violations"] = len(violations)
    trace_path = None
    if tracer is not None:
        from repro.obs.export import write_chrome_trace, write_jsonl

        if str(args.trace).endswith(".jsonl"):
            trace_path = str(write_jsonl(args.trace, tracer.export()))
        else:
            trace_path = str(write_chrome_trace(
                args.trace, tracer.export(), label="hierarchy"))
    ok = not violations
    if args.json:
        data = {
            "clusters": args.clusters,
            "cpus": args.cpus,
            "references": args.references,
            "violations": len(violations),
            "traffic": traffic,
            "trace_path": trace_path,
        }
        return _emit(args, "hierarchy", ok, data, metrics)
    print(f"{args.clusters} clusters x {args.cpus} cpus, "
          f"{args.references} checked references")
    print(f"violations: {len(violations)}")
    print(f"global transactions: {traffic['global_transactions']}")
    print(f"local transactions:  {traffic['local_transactions']}")
    if trace_path:
        print(f"trace written to {trace_path}")
    if args.metrics:
        _print_metrics(metrics)
    return 0 if ok else 1


def _cmd_diagram(args: argparse.Namespace) -> int:
    from repro.analysis.diagram import render_adjacency, to_dot
    from repro.protocols.registry import make_protocol

    protocol = make_protocol(args.protocol)
    try:
        text = to_dot(protocol) if args.dot else render_adjacency(protocol)
    except ImportError as error:  # the optional [diagram] extra
        print(f"repro diagram: {error}", file=sys.stderr)
        return 2
    if args.json:
        data = {
            "protocol": args.protocol,
            "format": "dot" if args.dot else "text",
            "text": text,
        }
        return _emit(args, "diagram", True, data)
    print(text)
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.analysis.ablations import (
        geometry_sweep,
        line_size_sweep,
        replacement_policy_sweep,
    )
    from repro.analysis.report import format_rows

    sweeps = {
        "line-size": (line_size_sweep,
                      "Line-size selection (fixed capacity)"),
        "replacement": (replacement_policy_sweep,
                        "Replacement policy"),
        "geometry": (geometry_sweep,
                     "Associativity vs sets at fixed capacity"),
    }
    fn, title = sweeps[args.sweep]
    rows = fn(references=args.references)
    if args.json:
        return _emit(args, "ablation", True,
                     {"sweep": args.sweep, "rows": rows},
                     {"ablation.rows": len(rows)})
    print(format_rows(rows, title))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_rows
    from repro.api import Session, plan
    from repro.workloads.trace import Trace

    protocol = args.protocol_opt or args.protocol or "moesi"
    workload = Trace.load(args.workload) if args.workload else None
    references = len(workload) if workload is not None else args.references
    session = Session(label=protocol, trace=bool(args.trace))
    result = session.execute(plan(
        "experiment",
        protocol=protocol,
        workload=workload,
        processors=args.processors,
        references=args.references,
        seed=args.seed,
        p_shared=args.p_shared,
        p_write=args.p_write,
        timed=not args.atomic,
        check=args.check,
        discipline=args.discipline,
    ))
    trace_path = _maybe_write_trace(args, session)
    if args.json:
        data = {
            "row": result.report.row(),
            "violations": len(result.violations),
            "trace_path": trace_path,
        }
        return _emit(args, "run", result.ok, data, result.metrics)
    print(format_rows([result.report.row()],
                      f"{protocol} over {references} references"))
    if result.violations:
        print(f"\ncoherence violations: {len(result.violations)}")
    if trace_path:
        print(f"trace written to {trace_path}")
    if args.metrics:
        _print_metrics(result.metrics)
    return 0 if result.ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.api import Session, plan
    from repro.fuzz import (
        INJECTABLE_BUGS,
        ScenarioConfig,
        load_repro,
        run_scenario,
    )

    if args.replay:
        scenario, recorded, note = load_repro(args.replay)
        result = run_scenario(scenario)
        reproduced = result.failure is not None
        if args.json:
            data = {
                "replay": args.replay,
                "scenario": scenario.label,
                "note": note,
                "reproduced": reproduced,
                "failure": str(result.failure) if reproduced else None,
                "recorded": str(recorded) if recorded is not None else None,
            }
            return _emit(args, "fuzz", not reproduced, data)
        print(f"replaying {args.replay}: {scenario.label}")
        if note:
            print(f"  note: {note}")
        if not reproduced:
            print("  scenario PASSED (the recorded failure did not "
                  "reproduce)")
            if recorded is not None:
                print(f"  recorded was: {recorded}")
            return 0
        print(f"  reproduced: {result.failure}")
        return 1

    scenario_config = ScenarioConfig()
    if args.inject:
        if args.inject not in INJECTABLE_BUGS:
            known = ", ".join(sorted(INJECTABLE_BUGS))
            print(f"unknown bug {args.inject!r}; known: {known}",
                  file=sys.stderr)
            return 2
        scenario_config = dataclasses.replace(scenario_config,
                                              inject=args.inject)
    session = Session(label="fuzz", trace=bool(args.trace))
    result = session.execute(
        plan(
            "fuzz",
            seeds=args.seeds,
            seed_base=args.seed_base,
            scenario=scenario_config,
            shrink=not args.no_shrink,
        ),
        workers=args.workers,
        out_dir=args.out,
        shards=args.shards,
    )
    report = result.report
    metrics = {
        "fuzz.seeds_run": report.seeds_run,
        "fuzz.steps_run": report.steps_run,
        "fuzz.transitions_checked": report.transitions_checked,
        "fuzz.failures": len(report.failures),
    }
    trace_path = _maybe_write_trace(args, session)
    if args.json:
        data = dict(report.to_dict(), trace_path=trace_path)
        return _emit(args, "fuzz", result.ok, data, metrics)
    print(report.summary_text(), end="")
    if trace_path:
        print(f"trace written to {trace_path}")
    if args.metrics:
        _print_metrics(metrics)
    return 0 if result.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ServeConfig
    from repro.serve.server import run_server

    config = ServeConfig(
        host=args.host,
        port=None if args.unix and args.port is None else (args.port or 0),
        unix_socket=args.unix,
        concurrency=args.concurrency,
        max_pending=args.max_pending,
        cache_size=args.cache_size,
        workers=args.workers,
        retry_after_s=args.retry_after,
        batch_window_s=args.batch_window,
        batch_max=args.batch_max,
    )

    def ready(endpoints: dict) -> None:
        # One machine-readable ready line, flushed, so a launcher can
        # parse the OS-assigned port before the daemon blocks.
        print(json.dumps({
            "command": "serve",
            "ok": True,
            "data": {"ready": True, "endpoints": endpoints},
            "metrics": {},
        }, sort_keys=True), flush=True)

    try:
        asyncio.run(run_server(config, ready))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient

    if args.port is None and not args.unix:
        print("submit: need --port or --unix", file=sys.stderr)
        return 2
    client = ServeClient(
        host=args.host, port=args.port, unix_socket=args.unix,
        timeout_s=args.timeout,
    )
    if args.status:
        envelope = client.status()
    elif args.shutdown:
        envelope = client.shutdown()
    elif args.many:
        # A burst of specs over concurrent connections -- the client
        # shape that actually feeds the daemon's admission window.
        if not args.spec_json:
            print("submit: --many needs --spec-json (a JSON array, "
                  "'-' reads stdin)", file=sys.stderr)
            return 2
        text = (sys.stdin.read() if args.spec_json == "-"
                else args.spec_json)
        specs = json.loads(text)
        if not isinstance(specs, list):
            print("submit: --many expects a JSON array of specs",
                  file=sys.stderr)
            return 2
        results = client.execute_many(
            specs, deadline=args.deadline, stream=args.stream
        )
        envelope = {
            "command": "execute-many",
            "ok": all(r.get("ok") for r in results),
            "data": {"count": len(results), "results": results},
            "metrics": None,
        }
    else:
        if args.spec_json:
            text = (sys.stdin.read() if args.spec_json == "-"
                    else args.spec_json)
            spec = json.loads(text)
        else:
            from repro.api import plan

            kwargs = {}
            if args.kind == "experiment":
                kwargs = {
                    "protocol": args.protocol,
                    "references": args.references,
                    "processors": args.processors,
                    "seed": args.seed,
                    "timed": args.timed,
                    "check": args.check,
                    "discipline": args.discipline,
                    "trace": args.with_trace,
                }
            spec = plan(args.kind, **kwargs)
        envelope = client.execute(
            spec, deadline=args.deadline, stream=args.stream
        )
    print(json.dumps(envelope, sort_keys=True))
    return 0 if envelope.get("ok") else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MOESI / Futurebus (Sweazey & Smith, ISCA 1986) "
        "reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="regenerate + diff Tables 1-7")
    p.add_argument("--render", action="store_true",
                   help="print the full tables, not just the diffs")
    _add_json_arg(p)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("figures", help="regenerate Figures 1-4")
    _add_json_arg(p)
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("membership", help="classify protocols vs the class")
    p.add_argument("protocol", nargs="*", help="registry names (default all)")
    p.add_argument("-v", "--verbose", action="store_true")
    _add_json_arg(p)
    p.set_defaults(func=_cmd_membership)

    p = sub.add_parser("verify", help="run the model-checking matrix")
    p.add_argument("--quick", action="store_true",
                   help="positive cases only")
    p.add_argument("--workers", type=int, default=None,
                   help="fan cases out across N worker processes")
    _add_obs_args(p)
    _add_json_arg(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("shootout", help="protocol performance comparison")
    p.add_argument("--references", type=int, default=4000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workers", type=int, default=None,
                   help="fan protocols out across N worker processes")
    _add_obs_args(p)
    _add_json_arg(p)
    p.set_defaults(func=_cmd_shootout)

    p = sub.add_parser("hierarchy", help="multi-bus demonstration")
    p.add_argument("--clusters", type=int, default=2)
    p.add_argument("--cpus", type=int, default=2)
    p.add_argument("--references", type=int, default=2000)
    p.add_argument("--lines", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    _add_obs_args(p)
    _add_json_arg(p)
    p.set_defaults(func=_cmd_hierarchy)

    p = sub.add_parser("diagram", help="emit a protocol state diagram")
    p.add_argument("protocol", help="registry name")
    p.add_argument("--dot", action="store_true", help="Graphviz DOT output")
    _add_json_arg(p)
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("ablation", help="design-choice sweeps")
    p.add_argument("sweep", choices=["line-size", "replacement", "geometry"])
    p.add_argument("--references", type=int, default=4000)
    _add_json_arg(p)
    p.set_defaults(func=_cmd_ablation)

    p = sub.add_parser("run", help="run one protocol over a workload")
    p.add_argument("protocol", nargs="?", default=None,
                   help="registry name, e.g. moesi, berkeley "
                        "(default moesi)")
    p.add_argument("--protocol", dest="protocol_opt", metavar="NAME",
                   help="registry name (same as the positional)")
    p.add_argument("--workload", metavar="FILE",
                   help="trace file (unit R/W addr per line) instead of "
                        "the synthetic workload")
    p.add_argument("--references", type=int, default=4000)
    p.add_argument("--processors", type=int, default=4)
    p.add_argument("--p-shared", type=float, default=0.3)
    p.add_argument("--p-write", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--atomic", action="store_true",
                   help="atomic trace-order run instead of timed")
    p.add_argument("--discipline", default=None, metavar="NAME",
                   help="bus arbitration service discipline: fcfs, "
                        "round-robin, or priority[:master=level,...] "
                        "(implies an arbitrated timed run)")
    p.add_argument("--check", action="store_true",
                   help="runtime coherence checking on")
    _add_obs_args(p)
    _add_json_arg(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "bench",
        help="serial-vs-parallel performance suite -> BENCH_perf.json",
    )
    p.add_argument("--workers", type=int, default=4,
                   help="worker processes for the parallel legs")
    p.add_argument("--quick", action="store_true",
                   help="small bounds (smoke-test sized)")
    p.add_argument("--batch", action="store_true",
                   help="run only the struct-of-arrays batch-kernel "
                        "section (skips matrix/DES/obs; writes no file)")
    p.add_argument("--serve-batch", action="store_true",
                   help="run only the continuous-batching section "
                        "(coalesced vs one-at-a-time serve dispatch; "
                        "writes no file)")
    p.add_argument("--out", default="BENCH_perf.json",
                   help="where to write the machine-readable report")
    _add_json_arg(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing campaign (or --replay a repro file)",
    )
    p.add_argument("--seeds", type=int, default=200,
                   help="number of seeds to run")
    p.add_argument("--seed-base", type=int, default=0,
                   help="first seed (campaigns are pure functions of seeds)")
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes; 0 = serial (identical output)")
    p.add_argument("--shards", type=int, default=None,
                   help="partition the seed range into N pool tasks "
                        "(byte-identical report at any count; default: "
                        "one task per seed)")
    p.add_argument("--out", default="fuzz_repros",
                   help="directory for shrunk repro_seed<N>.json files")
    p.add_argument("--inject", metavar="BUG",
                   help="plant a known-broken protocol in every scenario "
                   "(fuzzer self-test)")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip counterexample minimisation")
    p.add_argument("--replay", metavar="FILE",
                   help="re-execute a repro file verbatim instead of "
                   "running a campaign")
    _add_obs_args(p)
    _add_json_arg(p)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser(
        "serve",
        help="run the memoizing NDJSON daemon over the warm worker pool",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help="TCP port (default 0 = OS-assigned; read it back "
                        "from the ready line)")
    p.add_argument("--unix", metavar="PATH", default=None,
                   help="also (or instead) listen on a unix socket")
    p.add_argument("--concurrency", type=int, default=2,
                   help="jobs executing at once")
    p.add_argument("--max-pending", type=int, default=8,
                   help="jobs allowed to queue beyond --concurrency before "
                        "requests are refused with retry_after")
    p.add_argument("--cache-size", type=int, default=128,
                   help="memoized results kept (LRU)")
    p.add_argument("--workers", type=int, default=None,
                   help="warm-pool worker processes per job")
    p.add_argument("--retry-after", type=float, default=0.5,
                   help="seconds suggested in busy rejections")
    p.add_argument("--batch-window", type=float, default=0.005,
                   help="continuous-batching admission window (seconds): "
                        "compatible batch specs arriving within it "
                        "coalesce into one SoA population; 0 = degenerate "
                        "populations of one, negative disables batching")
    p.add_argument("--batch-max", type=int, default=64,
                   help="population cap: a forming batch seals early "
                        "once this many requests have joined")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a spec to a running serve daemon",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None)
    p.add_argument("--unix", metavar="PATH", default=None)
    p.add_argument("--timeout", type=float, default=120.0,
                   help="client socket timeout (seconds)")
    p.add_argument("--spec-json", metavar="JSON",
                   help="spec as a kind-tagged JSON object "
                        "('-' reads stdin); overrides --kind and its args")
    p.add_argument("--many", action="store_true",
                   help="treat --spec-json as a JSON array and submit "
                        "every spec concurrently (feeds the daemon's "
                        "batching admission window)")
    p.add_argument("--kind", default="experiment",
                   choices=["experiment", "verify", "shootout", "fuzz",
                            "batch"],
                   help="plan this kind of spec from the args below")
    p.add_argument("--protocol", default="moesi")
    p.add_argument("--references", type=int, default=2000)
    p.add_argument("--processors", type=int, default=4)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--timed", action="store_true",
                   help="timed Futurebus run instead of atomic")
    p.add_argument("--check", action="store_true",
                   help="runtime coherence checking on")
    p.add_argument("--discipline", default=None, metavar="NAME",
                   help="bus arbitration service discipline")
    p.add_argument("--with-trace", action="store_true",
                   help="ask for the structured trace in the response")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-request deadline (seconds)")
    p.add_argument("--stream", action="store_true",
                   help="stream metrics/trace as incremental frames")
    p.add_argument("--status", action="store_true",
                   help="query daemon status instead of executing")
    p.add_argument("--shutdown", action="store_true",
                   help="ask the daemon to stop")
    p.set_defaults(func=_cmd_submit)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module entry
    sys.exit(main())
