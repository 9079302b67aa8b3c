"""Command-line interface: ``python -m repro <command>``.

Commands
--------
translate
    Pthreads C in, RCCE C out (the paper's end product).
analyze
    Print Tables 4.1 / 4.2 and the partition plan for a program.
check
    Translation-time static analysis (docs/static_analysis.md): the
    interval abstract interpreter's run-time-error checks plus the
    static lockset race audit, without simulating anything.
run
    Simulate a program on the SCC model — the Pthreads original on one
    core, the translated RCCE variant on N cores, or both side by side;
    ``--bottlenecks`` reports where the RCCE run's cycles went.
bench
    Regenerate a figure of the paper's evaluation.
"""

import argparse
import json
import sys

from repro.bench.figures import render_bars
from repro.bench.harness import ExperimentHarness
from repro.cfront.errors import CFrontError
from repro.cfront.frontend import parse_program
from repro.core.framework import TranslationFramework
from repro.core.reports import format_table, table_4_1, table_4_2
from repro.faults import FaultSpecError, parse_fault_spec
from repro.obs.attribution import AttributionEngine
from repro.obs.profile import PipelineProfiler
from repro.rcce.api import RCCEAllocationError
from repro.recovery import (
    CheckpointWriteError,
    RecoveryOptions,
    SnapshotError,
)
from repro.scc.config import Table61Config
from repro.scc.memmap import UnmappedAddressError
from repro.sim.interpreter import InterpreterError
from repro.sim.runner import (
    run_pthread_single_core,
    run_rcce,
    run_rcce_supervised,
)
from repro.sim.watchdog import SimulationTimeout, WatchdogError

# sysexits.h-style exit codes so scripts and CI can tell failure
# classes apart (docs/robustness.md)
EXIT_OK = 0            # success
EXIT_USAGE = 2         # bad command line (argparse's own code)
EXIT_PARSE = 65        # EX_DATAERR: C parse / translation failure
EXIT_NOINPUT = 66      # EX_NOINPUT: input file missing/unreadable
EXIT_SIM = 70          # EX_SOFTWARE: simulated program failed
EXIT_CANTCREAT = 73    # EX_CANTCREAT: an output file cannot be written
EXIT_TIMEOUT = 75      # EX_TEMPFAIL: deadlock / step-budget timeout
EXIT_INTERRUPT = 130   # 128 + SIGINT: operator interrupt, unwound

# --ues ranges over the cores of Table 6.1's chip
MAX_UES = Table61Config().num_cores


class OutputError(Exception):
    """An output file could not be written (exit ``EXIT_CANTCREAT``)."""


def _int_range(low, high=None, note=""):
    """An argparse type: a whole number from ``low`` to ``high`` (no
    upper bound when ``high`` is None).  Out of range is a usage error
    naming the range, with ``note`` appended."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text)
        if high is not None and not low <= value <= high:
            raise argparse.ArgumentTypeError(
                "%d is outside %d..%d%s" % (value, low, high, note))
        if value < low:
            raise argparse.ArgumentTypeError(
                "%d is below the minimum, %d%s" % (value, low, note))
        return value
    return parse


_ues = _int_range(1, MAX_UES, " (the SCC's cores, Table 6.1)")
_count = _int_range(0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pthreads-to-RCCE translation and SCC simulation "
        "(DATE 2015 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    translate = sub.add_parser("translate",
                               help="translate Pthreads C to RCCE C")
    translate.add_argument("source", help="input C file ('-' for stdin)")
    translate.add_argument("-o", "--output", default=None,
                           help="output file (default: stdout)")
    _framework_args(translate)

    analyze = sub.add_parser("analyze",
                             help="print the analysis tables and the "
                             "partition plan (run --bottlenecks "
                             "explains where a run's cycles go)")
    analyze.add_argument("source", help="input C file ('-' for stdin)")
    _framework_args(analyze)

    check = sub.add_parser(
        "check", help="static analysis: interval run-time-error "
        "checks and the lockset race audit "
        "(docs/static_analysis.md)")
    check.add_argument("source", help="input C file ('-' for stdin)")
    check.add_argument("--ues", type=_ues, default=MAX_UES,
                       help="cores assumed for the stage-5 mutex/"
                       "register mapping, 1..%d (default %d)"
                       % (MAX_UES, MAX_UES))
    _framework_args(check)

    run = sub.add_parser("run", help="simulate on the SCC model")
    run.add_argument("source", help="input C file ('-' for stdin)")
    run.add_argument("--ues", type=_ues, default=8,
                     help="RCCE cores to simulate, 1..%d (default 8)"
                     % MAX_UES)
    run.add_argument("--mode", choices=["pthread", "rcce", "compare"],
                     default="compare")
    run.add_argument("--stats", action="store_true",
                     help="print chip counters after the RCCE run")
    run.add_argument("--bottlenecks", action="store_true",
                     help="attribute every cycle of the RCCE run: "
                     "print the breakdown, the critical path and the "
                     "chip counters with mesh/MPB heatmaps; --report "
                     "gains an \"attribution\" section")
    run.add_argument("--faults", default=None, metavar="SPEC",
                     help="inject deterministic faults, e.g. "
                     "'mpb_flip:p=1e-6,seed=7;mesh_drop:p=1e-4' "
                     "(see docs/robustness.md)")
    run.add_argument("--recover", action="store_true",
                     help="enable the recovery layer for the RCCE "
                     "run: ECC scrubbing of flipped reads and "
                     "retried RCCE_send messages "
                     "(see docs/robustness.md)")
    run.add_argument("--max-restarts", type=_count, default=0,
                     metavar="N",
                     help="supervise the RCCE run: after a core "
                     "crash, timeout, or uncorrectable ECC error, "
                     "restart from the newest checkpoint up to N "
                     "times")
    run.add_argument("--checkpoint-every", type=_count, default=0,
                     metavar="N",
                     help="write a snapshot every N barrier rounds "
                     "(default: every round when --max-restarts is "
                     "set, otherwise off)")
    run.add_argument("--checkpoint", default=None, metavar="FILE",
                     help="snapshot file for --checkpoint-every / "
                     "--max-restarts (default repro.ckpt)")
    run.add_argument("--restore", default=None, metavar="FILE",
                     help="restore a snapshot by verified replay, "
                     "then run to completion")
    run.add_argument("--race", action="store_true",
                     help="audit the run with the dynamic race "
                     "detector and HSM coherence checker (see "
                     "docs/race_detection.md); findings print as "
                     "diagnostics and, with --strict, fail the run")
    run.add_argument("--static-check", action="store_true",
                     help="audit the program at translation time "
                     "with the static analysis stage (see "
                     "docs/static_analysis.md); findings print as "
                     "diagnostics and, with --strict, fail the run")
    run.add_argument("--max-steps", type=_int_range(1),
                     default=200_000_000,
                     help="per-core step budget before the run is "
                     "aborted with a SimulationTimeout")
    _framework_args(run)

    for command in (analyze, check, run):
        command.add_argument(
            "--report", default=None, metavar="FILE",
            help="write the command's diagnostics, metrics and "
            "analyzer findings as one JSON document ('-' for stdout, "
            "which then carries the document alone)")

    bench = sub.add_parser("bench", help="regenerate a paper figure")
    bench.add_argument("figure", choices=["6.1", "6.2", "6.3"])
    bench.add_argument("--ues", type=_ues, default=32,
                       help="RCCE cores per run, 1..%d (default 32)"
                       % MAX_UES)

    return parser


def _framework_args(parser):
    parser.add_argument("--policy", default="size",
                        choices=["size", "frequency", "off-chip-only"],
                        help="Stage 4 partition policy")
    parser.add_argument("--capacity", type=_count, default=None,
                        help="on-chip shared capacity in bytes")
    parser.add_argument("--fold", action="store_true",
                        help="enable many-to-one thread folding (§7.2)")
    parser.add_argument("--split", action="store_true",
                        help="allow SRAM/DRAM split allocation (§4.4)")
    parser.add_argument("--profile", action="store_true",
                        help="print per-stage pipeline wall times")
    parser.add_argument("--strict", action="store_true",
                        help="fail fast on the first pipeline error "
                        "instead of collecting a diagnostics report")


def _read_source(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _source_name(path):
    """The file name front-end errors and diagnostics carry."""
    return "<stdin>" if path == "-" else path


def _framework(args):
    kwargs = {"partition_policy": args.policy,
              "fold_threads": args.fold,
              "allow_split": getattr(args, "split", False),
              # the CLI degrades gracefully by default: pass failures
              # become a diagnostics report; --strict restores fail-fast
              "strict": getattr(args, "strict", True)}
    if args.capacity is not None:
        kwargs["on_chip_capacity"] = args.capacity
    if getattr(args, "profile", False):
        kwargs["profiler"] = PipelineProfiler()
    return TranslationFramework(**kwargs)


def _report_diagnostics(result, err, doc):
    """Render the pipeline report to ``err`` and keep its diagnostics
    for ``doc``; True when it has errors (the caller should stop and
    exit ``EXIT_PARSE``)."""
    report = result.report
    if len(report):
        err.write(report.render() + "\n")
        doc["diagnostics"].extend(d.as_dict() for d in report.diagnostics)
    return report.has_errors


def _print_diagnostics(diagnostics, err, doc):
    """Print a simulation's diagnostics to ``err`` and keep them for
    ``doc``."""
    for diagnostic in diagnostics:
        err.write(diagnostic.format() + "\n")
        doc["diagnostics"].append(diagnostic.as_dict())


def _print_profile(framework, out, doc, prefix=""):
    """Print the ``--profile`` stage times and keep their spans for
    ``doc``."""
    if framework.profiler is not None:
        out.write(framework.profiler.render(prefix) + "\n")
        doc["profile"] = framework.profiler.report()


def _too_few_ues(result, ues, err):
    """Print why and return True when Stage 5's 1:1 mapping needs more
    UEs than ``--ues`` (the missing threads would never run); the
    caller exits ``EXIT_PARSE``."""
    needed = result.ues_needed
    if needed <= ues:
        return False
    err.write("repro: too few UEs: the program launches %d threads but "
              "--ues is %d; rerun with --fold (several threads per UE) "
              "or with --ues %d\n" % (needed, ues, needed))
    return True


def _write_output(path, text):
    """Write ``text`` to the file ``path``; raise :class:`OutputError`
    when it cannot be created or written."""
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise OutputError(exc) from exc


def _write_report(doc, path, out, text):
    """Write the one ``--report`` document; ``-`` writes it to ``out``
    (stdout), whose text lines the caller has sent to ``err``."""
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path == "-":
        out.write(payload)
    else:
        _write_output(path, payload)
    text.write("report written to %s\n"
               % ("stdout" if path == "-" else path))


def cmd_translate(args, out, err, doc):
    source = _read_source(args.source)
    framework = _framework(args)
    result = framework.translate(source, _source_name(args.source))
    if _report_diagnostics(result, err, doc):
        return EXIT_PARSE
    if args.output:
        _write_output(args.output, result.rcce_source)
        out.write("wrote %s\n" % args.output)
    else:
        out.write(result.rcce_source)
    # '// ' prefix keeps stdout a valid C translation unit
    _print_profile(framework, out, doc, "// ")
    return EXIT_OK


def cmd_analyze(args, out, err, doc):
    source = _read_source(args.source)
    framework = _framework(args)
    result = framework.partition(source, _source_name(args.source))
    if _report_diagnostics(result, err, doc):
        return EXIT_PARSE
    if framework.profiler is not None:
        _print_profile(framework, out, doc)
        out.write("\n")
    out.write(format_table(
        table_4_1(result),
        title="Per-variable information (post Stage 3)") + "\n\n")
    out.write(format_table(
        table_4_2(result), title="Sharing status per stage") + "\n\n")
    plan = result.plan
    out.write("Partition plan (%s, capacity %d B):\n"
              % (plan.policy, plan.capacity))
    for placement in sorted(plan.placements.values(),
                            key=lambda p: p.info.name):
        out.write("  %-12s %6d B  -> %s\n"
                  % (placement.info.name, placement.info.mem_size,
                     placement.bank))
    return EXIT_OK


def cmd_check(args, out, err, doc):
    """``repro check``: stages 1-3 plus the static-analysis stage,
    no simulation.  Findings exit ``EXIT_SIM`` under ``--strict``,
    mirroring the dynamic race detector."""
    from repro.obs.metrics import MetricsRegistry

    source = _read_source(args.source)
    framework = _framework(args)
    framework.num_cores = args.ues
    result = framework.check(source, _source_name(args.source))
    report = result.report
    if report.has_errors:
        err.write(report.render() + "\n")
        return EXIT_PARSE
    static = result.static_report
    out.write(static.render() + "\n")
    _print_profile(framework, out, doc)
    registry = MetricsRegistry()
    static.register_metrics(registry)
    doc["metrics"] = {"static": registry.snapshot()}
    doc["static"] = static.as_dict()
    if static.has_findings and args.strict:
        return EXIT_SIM
    return EXIT_OK


def cmd_run(args, out, err, doc):
    from repro.scc.chip import SCCChip
    from repro.scc.report import chip_report, render_report

    source = _read_source(args.source)
    filename = _source_name(args.source)
    faults = args.faults
    if faults:
        parse_fault_spec(faults)  # fail early, before any simulation
    if args.bottlenecks and args.mode == "pthread":
        err.write("repro: --bottlenecks attributes the RCCE run; use "
                  "--mode rcce or compare\n")
        return EXIT_USAGE
    max_restarts = args.max_restarts
    want_checkpoint = args.checkpoint_every > 0 or max_restarts > 0 \
        or args.checkpoint is not None
    recovery = None
    if args.recover or want_checkpoint or args.restore is not None:
        recovery = RecoveryOptions(
            ecc=args.recover, retry=args.recover,
            checkpoint_path=(args.checkpoint or "repro.ckpt")
            if want_checkpoint else None,
            checkpoint_every=args.checkpoint_every or 1,
            restore=args.restore)
    static_report = None
    if args.static_check:
        checked = _framework(args).check(source, filename)
        if _report_diagnostics(checked, err, doc):
            return EXIT_PARSE
        static_report = checked.static_report
        doc["static"] = static_report.as_dict()
        out.write(static_report.render().splitlines()[0] + "\n")
    unit = framework = None
    if args.mode in ("rcce", "compare"):
        # translate, and check the thread count, before simulating
        if "RCCE_APP" in source:
            # parsed here, not in the runner, so a parse error names
            # the file
            unit = parse_program(source, filename, share=True)
        else:
            framework = _framework(args)
            result = framework.translate(source, filename)
            if _report_diagnostics(result, err, doc):
                return EXIT_PARSE
            if _too_few_ues(result, args.ues, err):
                return EXIT_PARSE
            unit = result.unit
    race_reports = {}
    doc["metrics"] = snapshots = {}
    baseline = None
    if args.mode in ("pthread", "compare"):
        pthread_chip = SCCChip(Table61Config())
        # parsed here, not in the runner, so a parse error names the file
        baseline = run_pthread_single_core(parse_program(source, filename,
                                                         share=True),
                                           pthread_chip.config,
                                           pthread_chip,
                                           max_steps=args.max_steps,
                                           faults=faults,
                                           race=args.race)
        snapshots["pthread"] = baseline.metrics
        _print_diagnostics(baseline.diagnostics, err, doc)
        if baseline.race is not None:
            race_reports["pthread"] = baseline.race
            out.write(baseline.race.render().splitlines()[0] + "\n")
        out.write("pthread x1 core : %12d cycles  %s\n"
                  % (baseline.cycles,
                     baseline.stdout().strip().splitlines()[:1]))
    if unit is not None:
        if framework is not None:
            _print_profile(framework, out, doc)
        # a supervised run takes a fresh chip per attempt (a chip's
        # address space outlives a failed attempt); the last chip is
        # the one that finished
        chips = []

        def new_chip():
            chip = SCCChip(Table61Config())
            if args.bottlenecks:
                # the heatmap inputs are opt-in recordings (each costs
                # a lock or a dict bump on the hot path)
                chip.mesh.enable_traffic_recording()
                chip.mpb.enable_owner_tracking()
            chips.append(chip)
            return chip

        # one engine serves every attempt: each run's metrics reset
        # clears it, so it ends up holding the run that finished
        engine = AttributionEngine() if args.bottlenecks else None
        options = dict(max_steps=args.max_steps, faults=faults,
                       recovery=recovery, race=args.race,
                       attribution=engine)
        if max_restarts > 0:
            rcce = run_rcce_supervised(
                unit, args.ues, max_restarts=max_restarts,
                chip_factory=new_chip, **options)
        else:
            rcce = run_rcce(unit, args.ues, chip=new_chip(), **options)
        snapshots["rcce"] = rcce.metrics
        _print_diagnostics(rcce.diagnostics, err, doc)
        if rcce.race is not None:
            race_reports["rcce"] = rcce.race
            out.write(rcce.race.render().splitlines()[0] + "\n")
        first = rcce.stdout().strip().splitlines()[:1]
        out.write("rcce    x%d cores: %12d cycles  %s\n"
                  % (args.ues, rcce.cycles, first))
        if baseline is not None:
            out.write("speedup: %.2fx\n" % (baseline.cycles / rcce.cycles))
        if engine is not None:
            report = rcce.attribution
            doc["attribution"] = report.as_dict()
            out.write(report.render() + "\n\n")
            out.write(report.critical_path.render() + "\n\n")
        if args.stats or engine is not None:
            out.write(render_report(chip_report(chips[-1])) + "\n")
    if race_reports:
        doc["race"] = {mode: report.as_dict()
                       for mode, report in race_reports.items()}
    findings = any(report.has_findings
                   for report in race_reports.values()) \
        or (static_report is not None and static_report.has_findings)
    if findings and args.strict:
        # the soundness audit failed: the translated program can race
        # or read stale cacheable lines on the real chip
        return EXIT_SIM
    return EXIT_OK


def cmd_bench(args, out, err, doc):
    harness = ExperimentHarness(num_ues=args.ues)
    if args.figure == "6.1":
        rows = harness.figure_6_1()
        out.write(render_bars(rows, "benchmark", "speedup",
                              title="Figure 6.1") + "\n")
    elif args.figure == "6.2":
        rows = harness.figure_6_2()
        out.write(render_bars(rows, "benchmark", "improvement",
                              title="Figure 6.2") + "\n")
    else:
        rows = harness.figure_6_3()
        out.write(render_bars(rows, "cores", "speedup",
                              title="Figure 6.3") + "\n")
    return EXIT_OK


COMMANDS = {
    "translate": cmd_translate,
    "analyze": cmd_analyze,
    "check": cmd_check,
    "run": cmd_run,
    "bench": cmd_bench,
}


def _fail(err, code, kind, exc):
    message = str(exc).strip() or type(exc).__name__
    err.write("repro: %s: %s\n" % (kind, message.splitlines()[0]))
    # multi-line payloads (per-core dumps, deadlock cycles) follow the
    # one-line summary so scripts can still grab line one
    rest = message.splitlines()[1:]
    if rest:
        err.write("\n".join(rest) + "\n")
    return code


def main(argv=None, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    args = build_parser().parse_args(argv)
    report = getattr(args, "report", None)
    # the one machine-readable output of run/check/analyze: the
    # commands add the diagnostics they print and their sections
    doc = {"format": "repro-report", "version": 1,
           "command": args.command, "diagnostics": []}
    # `--report -` keeps stdout for the document: text goes to stderr
    text = err if report == "-" else out
    try:
        code = COMMANDS[args.command](args, text, err, doc)
        # a finished run, or --strict failing it on findings (70), is
        # reported; usage and translation failures are not
        if report is not None and code in (EXIT_OK, EXIT_SIM):
            _write_report(doc, report, out, text)
    except (OutputError, CheckpointWriteError) as exc:
        return _fail(err, EXIT_CANTCREAT, "cannot write output", exc)
    except FileNotFoundError as exc:
        return _fail(err, EXIT_NOINPUT,
                     "cannot read input", exc)
    except FaultSpecError as exc:
        return _fail(err, EXIT_USAGE, "bad --faults spec", exc)
    except CFrontError as exc:
        return _fail(err, EXIT_PARSE, "parse error", exc)
    except SnapshotError as exc:
        return _fail(err, EXIT_PARSE, "bad snapshot", exc)
    except SimulationTimeout as exc:
        return _fail(err, EXIT_TIMEOUT, "simulation timed out", exc)
    except WatchdogError as exc:
        return _fail(err, EXIT_TIMEOUT, "simulation deadlocked", exc)
    except (InterpreterError, RCCEAllocationError,
            UnmappedAddressError) as exc:
        return _fail(err, EXIT_SIM, "simulated program failed", exc)
    except KeyboardInterrupt as exc:
        # Ctrl-C: run_rcce has already stopped and joined every
        # simulated core; one line, then 128+SIGINT
        return _fail(err, EXIT_INTERRUPT, "interrupted",
                     exc if str(exc) else "every simulated core "
                     "stopped")
    return code


if __name__ == "__main__":
    sys.exit(main())
