"""Command-line interface: ``python -m repro``.

Subcommands
-----------
``list``
    List every reproduced experiment (id, paper reference, description).
``run EXPERIMENT [--quick] [--json] [--out FILE]``
    Run one experiment and print its paper-vs-measured table.
``report [--quick] [EXPERIMENT ...]``
    Run several experiments (all by default) and print the combined report.
``programs``
    List the transactions available in the transaction language.
``scenarios``
    List the registered network-fabric scenarios (topology, variants,
    traffic matrix size); run one via ``run`` with its experiment id.
``show PROGRAM``
    Print a transaction's source, its state analysis and the Domino-style
    atom pipeline it compiles to.
``trace SCENARIO [--variant V] [--quick] [--out spans.jsonl]
[--chrome FILE]``
    Run one scenario variant with the packet-trace collector attached
    and export per-hop spans (JSONL, optionally a chrome://tracing
    document); see :mod:`repro.obs.trace`.
``campaign run|list|report|verify|status``
    Execute, list and summarise parameter-sweep campaigns
    (:mod:`repro.campaign`): ``campaign run`` drives a campaign's run
    table serially or through the warm-worker engine and appends one
    JSONL record per run to a result store; ``campaign report`` streams
    a store into summary tables grouped by any factor; ``campaign
    status`` reads the live progress sidecar a run publishes
    (``--watch`` polls until the campaign ends).

Tables print to stdout.  The commands that produce machine-readable
results (``run --json``, ``campaign report --json``) accept ``--out FILE``
to write the JSON to a file instead; ``campaign run`` writes its result
store to ``--store`` (default ``campaign_<name>.jsonl``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from . import __version__
from .hardware.atoms import AtomPipelineAnalyzer
from .lang.analysis import analyze_program, spec_from_program
from .lang.programs import (
    DEFAULT_FACTORIES,
    PROGRAM_SOURCES,
    PROGRAM_STATE,
    SHAPING_PROGRAMS,
)
from .reporting import (
    generate_report,
    list_experiments,
    render_kv,
    render_table,
    run_experiment,
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Programmable Packet Scheduling at Line Rate' "
            "(SIGCOMM 2016): run the paper's experiments and inspect "
            "scheduling transactions."
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list reproduced experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", help="experiment id (see 'list')")
    run_parser.add_argument("--quick", action="store_true",
                            help="shorter simulation durations")
    run_parser.add_argument("--json", action="store_true",
                            help="print the result as JSON instead of a table")
    run_parser.add_argument("--out", metavar="FILE", default=None,
                            help="write the --json result to FILE instead of "
                                 "stdout (implies --json)")

    report_parser = subparsers.add_parser(
        "report", help="run several experiments and print the combined report"
    )
    report_parser.add_argument("experiments", nargs="*",
                               help="experiment ids (default: all)")
    report_parser.add_argument("--quick", action="store_true",
                               help="shorter simulation durations")

    subparsers.add_parser("programs",
                          help="list transaction-language programs")

    subparsers.add_parser("scenarios",
                          help="list network-fabric scenarios")

    show_parser = subparsers.add_parser(
        "show", help="show a program's source, analysis and atom pipeline"
    )
    show_parser.add_argument("program", help="program name (see 'programs')")
    show_parser.add_argument("--tree-kernel", action="store_true",
                             dest="tree_kernel",
                             help="also print the fused whole-tree kernel "
                                  "generated for a single-node tree running "
                                  "this program (spliced into it), and any "
                                  "program the kernel calls instead")
    show_parser.add_argument("--pifo-backend", default="sorted",
                             dest="pifo_backend", metavar="BACKEND",
                             help="PIFO backend to specialise the "
                                  "--tree-kernel source for")

    trace_parser = subparsers.add_parser(
        "trace", help="export per-hop packet spans for one scenario variant"
    )
    trace_parser.add_argument("scenario", help="scenario name "
                                              "(see 'scenarios')")
    trace_parser.add_argument("--variant", default=None, metavar="V",
                              help="scheduler variant to trace "
                                   "(default: the scenario's first)")
    trace_parser.add_argument("--quick", action="store_true",
                              help="shorter simulation duration")
    trace_parser.add_argument("--out", metavar="FILE", default="spans.jsonl",
                              help="span JSONL output path "
                                   "(default spans.jsonl)")
    trace_parser.add_argument("--chrome", metavar="FILE", default=None,
                              help="also write a chrome://tracing / "
                                   "Perfetto JSON document to FILE")
    trace_parser.add_argument("--json", action="store_true",
                              help="print the trace summary as JSON")

    campaign_parser = subparsers.add_parser(
        "campaign", help="run and summarise parameter-sweep campaigns"
    )
    campaign_sub = campaign_parser.add_subparsers(dest="campaign_command")

    campaign_sub.add_parser("list", help="list registered campaigns")

    crun = campaign_sub.add_parser("run", help="execute a campaign's run table")
    crun.add_argument("campaign", help="campaign name (see 'campaign list')")
    crun.add_argument("--quick", action="store_true",
                      help="shorter simulation durations")
    crun.add_argument("--workers", type=int, default=1, metavar="N",
                      help="worker processes (default 1; results are "
                           "identical for any worker count)")
    crun.add_argument("--store", metavar="FILE", default=None,
                      help="result store path (default campaign_<name>.jsonl)")
    crun.add_argument("--resume", action="store_true",
                      help="skip runs whose latest store record completed; "
                           "re-runs failed/timed-out/lost runs")
    crun.add_argument("--timeout", type=float, default=None, metavar="S",
                      help="per-run wall-clock budget in seconds; an "
                           "overrunning run is recorded as a timeout "
                           "failure (default: unbounded)")
    crun.add_argument("--max-attempts", type=int, default=1, metavar="N",
                      help="attempts per run before recording a failure "
                           "(default 1; retries cover transient exceptions)")
    crun.add_argument("--max-failures", type=int, default=None, metavar="N",
                      help="abort the campaign after more than N failed "
                           "runs (default: never abort; the store stays "
                           "resumable either way)")
    crun.add_argument("--json", action="store_true",
                      help="print the run summary as JSON instead of a table")
    crun.add_argument("--out", metavar="FILE", default=None,
                      help="write the --json summary to FILE instead of "
                           "stdout (implies --json)")

    cverify = campaign_sub.add_parser(
        "verify", help="check a result store's records without running"
    )
    cverify.add_argument("campaign", nargs="?", default=None,
                         help="campaign name (checks store coverage against "
                              "its run table and sets the default store path)")
    cverify.add_argument("--store", metavar="FILE", default=None,
                         help="result store to verify (default "
                              "campaign_<name>.jsonl)")
    cverify.add_argument("--quick", action="store_true",
                         help="expand the campaign's quick run table for "
                              "the coverage check")
    cverify.add_argument("--json", action="store_true",
                         help="print the verification summary as JSON")
    cverify.add_argument("--out", metavar="FILE", default=None,
                         help="write the --json summary to FILE instead of "
                              "stdout (implies --json)")

    creport = campaign_sub.add_parser(
        "report", help="summarise a campaign's result store"
    )
    creport.add_argument("campaign", nargs="?", default=None,
                         help="campaign name (used for the default store path)")
    creport.add_argument("--store", metavar="FILE", default=None,
                         help="result store to read (default "
                              "campaign_<name>.jsonl)")
    creport.add_argument("--group-by", metavar="FACTORS",
                         default="scenario,variant",
                         help="comma-separated factor columns "
                              "(default scenario,variant)")
    creport.add_argument("--json", action="store_true",
                         help="print summary rows as JSON instead of a table")
    creport.add_argument("--out", metavar="FILE", default=None,
                         help="write the --json rows to FILE instead of "
                              "stdout (implies --json)")

    cstatus = campaign_sub.add_parser(
        "status", help="read a campaign's live progress sidecar"
    )
    cstatus.add_argument("target",
                         help="result store path (reads <store>.progress)")
    cstatus.add_argument("--watch", action="store_true",
                         help="poll and reprint until the campaign leaves "
                              "the 'running' state")
    cstatus.add_argument("--interval", type=float, default=2.0, metavar="S",
                         help="seconds between --watch polls (default 2)")
    cstatus.add_argument("--json", action="store_true",
                         help="print the status as JSON (one document per "
                              "--watch poll)")

    return parser


# --------------------------------------------------------------------------- #
# Subcommand implementations                                                   #
# --------------------------------------------------------------------------- #
def _cmd_list() -> int:
    rows = [
        {
            "id": spec.experiment_id,
            "paper": spec.paper_reference,
            "description": spec.description,
        }
        for spec in list_experiments()
    ]
    print(render_table(rows, title="Reproduced experiments"))
    return 0


def _emit_json(payload, out: Optional[str]) -> None:
    """Print JSON to stdout or write it to ``--out FILE``."""
    text = json.dumps(payload, indent=2)
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {out}")


def _cmd_run(experiment: str, quick: bool, as_json: bool,
             out: Optional[str] = None) -> int:
    try:
        result = run_experiment(experiment, quick=quick)
    except KeyError as exc:
        print(str(exc.args[0]), file=sys.stderr)
        return 2
    if as_json or out is not None:
        _emit_json(result.to_dict(), out)
        return 0
    print(render_table(result.rows, title=result.title))
    if result.notes:
        print(f"\nNotes: {result.notes}")
    return 0


def _cmd_report(experiments: Sequence[str], quick: bool) -> int:
    ids = list(experiments) or None
    try:
        print(generate_report(ids, quick=quick))
    except KeyError as exc:
        print(str(exc.args[0]), file=sys.stderr)
        return 2
    return 0


def _cmd_programs() -> int:
    rows = []
    for name in sorted(PROGRAM_SOURCES):
        analysis = analyze_program(PROGRAM_SOURCES[name], state=PROGRAM_STATE[name])
        rows.append(
            {
                "program": name,
                "kind": "shaping" if name in SHAPING_PROGRAMS else "scheduling",
                "state_variables": len(PROGRAM_STATE[name]),
                "stateless_ops": analysis.stateless_ops,
            }
        )
    print(render_table(rows, title="Transaction-language programs"))
    return 0


def _cmd_scenarios() -> int:
    from .net import list_scenarios

    rows = []
    for scenario in list_scenarios():
        network = scenario.topology()
        rows.append(
            {
                "scenario": scenario.name,
                "paper": scenario.paper_reference,
                "topology": (f"{len(network.switches())} switches / "
                             f"{len(network.hosts())} hosts"),
                "variants": ", ".join(scenario.variants),
                "demands": len(scenario.demands),
            }
        )
    print(render_table(rows, title="Network-fabric scenarios"))
    print("\nRun one with: repro run SCENARIO [--quick] [--json]")
    return 0


# --------------------------------------------------------------------------- #
# Campaign subcommands                                                          #
# --------------------------------------------------------------------------- #
def _default_store_path(campaign_name: str) -> str:
    return f"campaign_{campaign_name}.jsonl"


def _cmd_campaign_list() -> int:
    from .campaign import list_campaigns

    rows = [
        {
            "campaign": campaign.name,
            "scenarios": ", ".join(campaign.scenarios),
            "runs": campaign.size(),
            "title": campaign.title,
        }
        for campaign in list_campaigns()
    ]
    print(render_table(rows, title="Registered campaigns"))
    print("\nRun one with: repro campaign run CAMPAIGN [--quick] [--workers N]")
    return 0


def _cmd_campaign_run(name: str, quick: bool, workers: int,
                      store_path: Optional[str], resume: bool,
                      as_json: bool, out: Optional[str],
                      timeout_s: Optional[float] = None,
                      max_attempts: int = 1,
                      max_failures: Optional[int] = None) -> int:
    from .campaign import (CampaignRunner, ResultStore, StoreError,
                           get_campaign, record_is_ok)

    try:
        campaign = get_campaign(name)
    except KeyError as exc:
        print(str(exc.args[0]), file=sys.stderr)
        return 2
    store = ResultStore(store_path or _default_store_path(name))
    try:
        runner = CampaignRunner(campaign, store, workers=workers, quick=quick,
                                resume=resume, timeout_s=timeout_s,
                                max_attempts=max_attempts,
                                max_failures=max_failures)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    def progress(record: Dict) -> None:
        if record_is_ok(record):
            print(f"  [{record['run_id']}] delivered={record['delivered']} "
                  f"dropped={record['dropped']} "
                  f"wall={record['wall_clock_s']:.2f}s")
        else:
            print(f"  [{record['run_id']}] {record['status'].upper()}: "
                  f"{record.get('error_type', '?')}: "
                  f"{record.get('error', '')} "
                  f"(attempt {record.get('attempts', 1)})")

    machine_readable = as_json or out is not None
    if not machine_readable:
        print(f"campaign {campaign.name}: {campaign.size()} runs "
              f"({workers} worker{'s' if workers != 1 else ''}"
              f"{', resume' if resume else ''}) -> {store.path}")
    try:
        report = runner.run(progress=None if machine_readable else progress)
    except StoreError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # The runner terminated its workers and flushed every committed
        # record before re-raising — tell the user how to pick it back up.
        print(f"\ninterrupted; store {store.path} is flushed and "
              f"resumable — rerun with --resume to finish",
              file=sys.stderr)
        return 130
    summary = {
        "campaign": report.campaign,
        "total_runs": report.total_runs,
        "executed": report.executed,
        "skipped": report.skipped,
        "failed": report.failed,
        "workers": report.workers,
        "wall_clock_s": report.wall_clock_s,
        "store": report.store_path,
    }
    if report.aborted:
        summary["aborted"] = report.aborted
    if machine_readable:
        # Kernel-cache telemetry (hits/misses/installs summed across the
        # engine's workers) rides along in the machine-readable summary
        # only — it nests, which the flat key/value table can't render.
        if runner.kernel_cache_totals is not None:
            summary["kernel_cache"] = runner.kernel_cache_totals
        _emit_json(summary, out)
        return 0
    print(render_kv(summary, title=f"Campaign {report.campaign} finished"))
    if report.failed:
        print(f"\n{report.failed} run(s) failed; re-run with --resume to "
              f"retry exactly the failed set")
    return 0 if not report.aborted else 3


def _cmd_campaign_verify(name: Optional[str], store_path: Optional[str],
                         quick: bool, as_json: bool,
                         out: Optional[str]) -> int:
    """Check every store record's schema and fingerprint without running."""
    from .campaign import ResultStore

    expected = None
    if name is not None:
        from .campaign import get_campaign

        try:
            campaign = get_campaign(name)
        except KeyError as exc:
            print(str(exc.args[0]), file=sys.stderr)
            return 2
        expected = {spec.fingerprint()
                    for spec in campaign.expand(quick=quick)}
    if store_path is None:
        if name is None:
            print("campaign verify needs a campaign name or --store FILE",
                  file=sys.stderr)
            return 2
        store_path = _default_store_path(name)
    store = ResultStore(store_path)
    if not store.exists():
        print(f"no result store at {store.path} "
              f"(run 'repro campaign run' first)", file=sys.stderr)
        return 2
    summary = store.verify_records(expected_fingerprints=expected)
    issues = summary["issues"]
    if as_json or out is not None:
        _emit_json(summary, out)
        return 1 if issues else 0
    status = {
        "store": summary["path"],
        "records": summary["records"],
        "ok": summary["ok"],
        "failed": summary["failed"],
        "issues": len(issues),
    }
    if expected is not None:
        status["expected runs"] = summary["expected"]
        status["missing runs"] = summary["missing"]
    print(render_kv(status, title="Store verification"))
    for issue in issues:
        print(f"  ISSUE: {issue}")
    if issues:
        print(f"\n{len(issues)} issue(s) found", file=sys.stderr)
        return 1
    print("\nall records verified")
    return 0


def _cmd_campaign_report(name: Optional[str], store_path: Optional[str],
                         group_by: str, as_json: bool,
                         out: Optional[str]) -> int:
    from .campaign import ResultStore, StoreError
    from .reporting.campaign import summarize_records

    if store_path is None:
        if name is None:
            print("campaign report needs a campaign name or --store FILE",
                  file=sys.stderr)
            return 2
        store_path = _default_store_path(name)
    store = ResultStore(store_path)
    if not store.exists():
        print(f"no result store at {store.path} "
              f"(run 'repro campaign run' first)", file=sys.stderr)
        return 2
    # Deduplicated streaming view: re-running a campaign into the same
    # store must not double-count runs (last record wins per
    # fingerprint), and the store is never loaded wholesale.
    records = store.iter_effective_records()
    if name is not None:
        records = (r for r in records if r.get("campaign") == name)
    factors = tuple(part.strip() for part in group_by.split(",") if part.strip())
    try:
        rows = summarize_records(records, group_by=factors)
    except (ValueError, StoreError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if as_json or out is not None:
        _emit_json(rows, out)
        return 0
    total_runs = sum(row["runs"] for row in rows)
    title = (f"Campaign summary ({store.path}, "
             f"{total_runs} runs by {', '.join(factors)})")
    print(render_table(rows, title=title))
    return 0


def _format_status_line(progress: Dict) -> str:
    """One-line human rendering of a progress snapshot (--watch mode)."""
    eta = progress.get("eta_s") or 0.0
    return (f"{progress.get('campaign', '?')}: "
            f"{progress.get('done', 0)}/{progress.get('total', '?')} done "
            f"({progress.get('ok', 0)} ok, {progress.get('failed', 0)} failed), "
            f"{progress.get('in_flight', 0)} in flight, "
            f"{progress.get('runs_per_s', 0.0):.2f} runs/s, "
            f"eta {eta:.0f}s [{progress.get('state', '?')}]")


def _collect_campaign_status(target: str) -> Optional[Dict]:
    """One status snapshot for a store path.

    Reads the store's ``<store>.progress`` sidecar and cross-checks it
    against the store's effective records.  Returns ``None`` when the
    target has no readable status at all.
    """
    from .campaign import ResultStore, record_is_ok
    from .obs.progress import progress_path_for, read_progress

    progress = read_progress(progress_path_for(target))
    store = ResultStore(target)
    counts = None
    if store.exists():
        ok = failed = 0
        for record in store.iter_effective_records():
            if record_is_ok(record):
                ok += 1
            else:
                failed += 1
        counts = {"store_records": ok + failed, "store_ok": ok,
                  "store_failed": failed}
    if progress is None and counts is None:
        return None
    payload = {"mode": "store", "source": target}
    if progress is not None:
        payload.update(progress)
    else:
        payload["state"] = "no-progress-file"
    if counts is not None:
        payload.update(counts)
    return payload


def _cmd_campaign_status(target: str, watch: bool, interval_s: float,
                         as_json: bool) -> int:
    """Read (and optionally poll) a campaign's live progress."""
    import time as _time

    while True:
        payload = _collect_campaign_status(target)
        if payload is None:
            print(f"no progress sidecar or result store at {target} "
                  f"(is the campaign running with this store?)",
                  file=sys.stderr)
            return 2
        if as_json:
            print(json.dumps(payload, sort_keys=True))
        elif watch:
            print(_format_status_line(payload))
        else:
            print(render_kv(payload, title=f"Campaign status ({target})"))
        if not watch or payload.get("state") != "running":
            return 0
        try:
            _time.sleep(interval_s)
        except KeyboardInterrupt:
            return 130


def _cmd_trace(scenario_name: str, variant: Optional[str], quick: bool,
               out: str, chrome_out: Optional[str], as_json: bool) -> int:
    """Run one scenario variant with the trace collector attached."""
    from .net import get_scenario
    from .obs.trace import TraceCollector, spans_to_chrome, write_spans

    try:
        scenario = get_scenario(scenario_name)
    except KeyError as exc:
        print(str(exc.args[0]), file=sys.stderr)
        return 2
    if variant is None:
        variant = next(iter(scenario.variants))
    collector = TraceCollector()
    try:
        # Tracing wraps the interpreted per-port seams, so the fused
        # kernels are forced off for this run (results are identical).
        results = scenario.run(quick=quick, variant=variant, telemetry=True,
                               tree_kernel=False, trace_hook=collector.attach)
    except KeyError as exc:
        print(str(exc.args[0]), file=sys.stderr)
        return 2
    count = write_spans(collector.spans, out)
    summary = {
        "scenario": scenario_name,
        "variant": variant,
        "spans": count,
        "nodes": len({span["node"] for span in collector.spans}),
        "delivered": results[variant].conservation.get("delivered", 0),
        "out": out,
    }
    if chrome_out is not None:
        doc = spans_to_chrome(collector.spans)
        with open(chrome_out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
            handle.write("\n")
        summary["chrome"] = chrome_out
    if as_json:
        _emit_json(summary, None)
        return 0
    print(render_kv(summary, title=f"Packet trace ({scenario_name})"))
    if chrome_out is not None:
        print(f"\nopen {chrome_out} in chrome://tracing or "
              f"https://ui.perfetto.dev")
    return 0


def _cmd_show(program: str, tree_kernel: bool = False,
              pifo_backend: str = "sorted") -> int:
    if program not in PROGRAM_SOURCES:
        known = ", ".join(sorted(PROGRAM_SOURCES))
        print(f"unknown program {program!r}; known programs: {known}",
              file=sys.stderr)
        return 2
    if tree_kernel:
        from .core.backend import resolve_backend

        try:
            resolve_backend(pifo_backend)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    source = PROGRAM_SOURCES[program]
    state = PROGRAM_STATE[program]
    kind = "shaping" if program in SHAPING_PROGRAMS else "scheduling"
    analysis = analyze_program(source, state=state)
    spec = spec_from_program(program, source, state=state, kind=kind)
    pipeline = AtomPipelineAnalyzer().analyze(spec)

    print(f"# {program} ({kind} transaction)")
    print(source.strip())
    print()
    print(render_kv(
        {
            "feasible at line rate": pipeline.feasible,
            "atoms": pipeline.total_atoms,
            "pipeline depth": pipeline.pipeline_depth,
            "atom area (mm^2)": pipeline.area_mm2,
        },
        title="Atom pipeline (Section 4.1)",
    ))
    print()
    print("Analysis")
    print("========")
    print(analysis.summary())
    transaction = DEFAULT_FACTORIES[program]()
    generated = getattr(transaction, "generated_source", lambda: None)()
    print()
    print(f"Execution backend: {transaction.backend}")
    if generated is not None:
        print()
        print("Generated Python (repro.lang.compiler)")
        print("======================================")
        print(generated.rstrip())
    if tree_kernel:
        from .algorithms.fifo import FIFOTransaction
        from .core.scheduler import ProgrammableScheduler
        from .core.tree import ScheduleTree, TreeNode, single_node_tree

        if program in SHAPING_PROGRAMS:
            # A shaping transaction paces a node towards its parent: show
            # it where it runs, on the child of a FIFO root, so the kernel
            # has the suspend and the resume block in it.
            root = TreeNode(name="root", scheduling=FIFOTransaction())
            root.add_child(TreeNode(name="shaped",
                                    scheduling=FIFOTransaction(),
                                    shaping=DEFAULT_FACTORIES[program]()))
            tree = ScheduleTree(root)
        else:
            tree = single_node_tree(DEFAULT_FACTORIES[program]())
        scheduler = ProgrammableScheduler(tree, pifo_backend=pifo_backend)
        print()
        print("Fused tree kernel (repro.lang.treekernel)")
        print("=========================================")
        kernel = scheduler.tree_kernel
        print(f"# cached as {kernel.filename} (backend={pifo_backend})")
        if kernel.called_programs:
            for node, name, reason in kernel.called_programs:
                print(f"# called, not spliced: {name} at node {node}: "
                      f"{reason}")
        else:
            print("# every program is spliced into the walk below")
        print(kernel.source.rstrip())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command is None:
        parser.print_help()
        return 1
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiment, args.quick, args.json, args.out)
    if args.command == "report":
        return _cmd_report(args.experiments, args.quick)
    if args.command == "programs":
        return _cmd_programs()
    if args.command == "scenarios":
        return _cmd_scenarios()
    if args.command == "show":
        return _cmd_show(args.program, args.tree_kernel, args.pifo_backend)
    if args.command == "trace":
        return _cmd_trace(args.scenario, args.variant, args.quick,
                          args.out, args.chrome, args.json)
    if args.command == "campaign":
        if args.campaign_command is None:
            print("usage: repro campaign "
                  "{run,list,report,verify,status} ...",
                  file=sys.stderr)
            return 2
        if args.campaign_command == "list":
            return _cmd_campaign_list()
        if args.campaign_command == "run":
            return _cmd_campaign_run(args.campaign, args.quick, args.workers,
                                     args.store, args.resume, args.json,
                                     args.out, args.timeout,
                                     args.max_attempts, args.max_failures)
        if args.campaign_command == "report":
            return _cmd_campaign_report(args.campaign, args.store,
                                        args.group_by, args.json, args.out)
        if args.campaign_command == "verify":
            return _cmd_campaign_verify(args.campaign, args.store,
                                        args.quick, args.json, args.out)
        if args.campaign_command == "status":
            return _cmd_campaign_status(args.target, args.watch,
                                        args.interval, args.json)
    parser.error(f"unhandled command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
