"""Command-line interface: solve, convert, prenex, miniscope, generate.

Usage examples::

    python -m repro.cli solve instance.qdimacs
    python -m repro.cli solve instance.qtree --po --max-decisions 10000
    python -m repro.cli prenex instance.qtree --strategy eu_au -o flat.qdimacs
    python -m repro.cli miniscope flat.qdimacs -o tree.qtree
    python -m repro.cli generate ncf --dep 6 --var 4 --cls 12 --lpc 5 -o x.qtree
    python -m repro.cli stats instance.qtree
    python -m repro.cli evalx run ncf --jobs 4 --results ncf.jsonl
    python -m repro.cli bench -o BENCH_paper.json
    python -m repro.cli certify emit instance.qtree -o proof.jsonl
    python -m repro.cli certify check instance.qtree proof.jsonl
    python -m repro.cli certify stats proof.jsonl

``evalx run`` drives a whole TO-vs-PO suite sweep through the
fault-isolated parallel harness: ``--jobs N`` fans runs out over worker
processes (with hard per-run ``--wall-timeout`` kills and crash isolation),
``--results out.jsonl`` persists every measurement and makes an interrupted
sweep resumable (recorded runs are skipped on the next invocation); with
``--certify`` every run also records its clause/term resolution proof,
self-checks it against the original formula and stamps the verdict on the
results row.

``bench`` is the paper bench: the Table I suites, Figures 3-7, both
ablations, the incremental-vs-scratch diameter sweeps and the kernel rows
under every available engine, each run's decisions checked against
``counters`` and each of the paper's shape claims checked as a named gate.
It writes one ``BENCH_paper.json`` either way and exits 0 only when
identity holds and every gate passes.

``certify`` works with proofs directly: ``emit`` solves while logging the
resolution derivation to a JSONL certificate, ``check`` replays a
certificate against a formula with the independent checker (exit 0 only
when it verifies), ``stats`` summarizes a certificate file.

Formats are picked by extension: ``.qdimacs``/``.cnf`` (prenex) or
``.qtree`` (tree prefixes). ``-`` reads from stdin in QTREE format.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.core.formula import QBF
from repro.core.result import Outcome
from repro.core.solver import ENGINES, SolverConfig, default_engine, solve
from repro.generators.fpv import FpvParams, generate_fpv
from repro.generators.ncf import NcfParams, generate_ncf
from repro.io import qdimacs, qtree
from repro.prenexing.miniscoping import miniscope, structure_ratio
from repro.prenexing.strategies import STRATEGIES, prenex

#: stable exit-code contract for ``solve`` (SAT-solver convention). A budget
#: that ran dry and a preemption are different events: the former means the
#: instance is too hard at this budget, the latter that SIGTERM/SIGINT
#: stopped the search early; both print the partial stats.
EXIT_TRUE = 10
EXIT_FALSE = 20
EXIT_UNKNOWN = 2
EXIT_INTERRUPTED = 3


def _read(path: str) -> QBF:
    if path == "-":
        return qtree.loads(sys.stdin.read())
    if path.endswith((".qdimacs", ".cnf", ".dimacs")):
        return qdimacs.load(path)
    return qtree.load(path)


def _write(formula: QBF, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(qtree.dumps(formula))
        return
    if path.endswith((".qdimacs", ".cnf", ".dimacs")):
        qdimacs.dump(formula, path)
    else:
        qtree.dump(formula, path)


def cmd_solve(args: argparse.Namespace) -> int:
    from repro.robustness.interrupt import global_flag, handling_signals

    phi = _read(args.input)
    if args.to:
        phi = prenex(phi, args.strategy)
    config = SolverConfig(
        policy=args.policy,
        learn_clauses=not args.no_learning,
        learn_cubes=not args.no_learning,
        pure_literals=not args.no_pure,
        max_decisions=args.max_decisions,
        max_seconds=args.max_seconds,
        engine=args.engine,
    )
    flag = global_flag()
    flag.clear()
    with handling_signals(flag):
        result = solve(phi, config, interrupt=flag)
    stats = result.stats
    print("result      %s" % result.outcome.value.upper())
    if stats.engine_fallback:
        print("engine      %s (FELL BACK to %s: compiled kernel unavailable)"
              % (config.engine, stats.engine_fallback))
    else:
        print("engine      %s" % config.engine)
    print("decisions   %d" % stats.decisions)
    print("conflicts   %d" % stats.conflicts)
    print("solutions   %d" % stats.solutions)
    print("learned     %d nogoods, %d goods" % (stats.learned_clauses, stats.learned_cubes))
    print("visits      %d clause, %d cube" % (stats.clause_visits, stats.cube_visits))
    print("time        %.3fs" % result.seconds)
    if result.outcome is Outcome.UNKNOWN:
        if result.interrupted:
            print("interrupted")
            return EXIT_INTERRUPTED
        print("budget exhausted")
        return EXIT_UNKNOWN
    return EXIT_TRUE if result.value else EXIT_FALSE


def cmd_prenex(args: argparse.Namespace) -> int:
    phi = _read(args.input)
    _write(prenex(phi, args.strategy), args.output)
    return 0


def cmd_miniscope(args: argparse.Namespace) -> int:
    phi = _read(args.input)
    tree = miniscope(phi)
    print(
        "structure ratio: %.0f%% of (existential, universal) pairs freed"
        % (100 * structure_ratio(phi, tree)),
        file=sys.stderr,
    )
    _write(tree, args.output)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "ncf":
        phi = generate_ncf(
            NcfParams(dep=args.dep, var=args.var, cls=args.cls, lpc=args.lpc, seed=args.seed)
        )
    elif args.family == "fpv":
        phi = generate_fpv(FpvParams(seed=args.seed))
    else:
        raise AssertionError(args.family)
    _write(phi, args.output)
    return 0


def cmd_evalx_run(args: argparse.Namespace) -> int:
    """Run one Section-VII suite through the parallel batch harness."""
    from repro.evalx.runner import Budget
    from repro.evalx.report import render_scatter
    from repro.evalx.scatter import pair_points
    from repro.evalx.suites import run_suite, table1_rows
    from repro.evalx.table1 import render_table

    faults = None
    if args.fault_plan:
        from repro.robustness.faults import FaultPlan

        faults = FaultPlan.from_file(args.fault_plan)
    results, filtered_out = run_suite(
        args.suite,
        args.instances,
        Budget(decisions=args.decisions, seconds=args.seconds),
        jobs=args.jobs,
        results_path=args.results,
        wall_timeout=args.wall_timeout,
        certify=args.certify,
        engine=args.engine,
        faults=faults,
        mem_limit_mb=args.mem_limit,
    )
    print(render_table(table1_rows(args.suite, results, args.tie_margin)))
    if args.suite in ("prob", "fixed"):
        print("structure filter dropped %d instance(s)" % filtered_out)
    if args.scatter:
        triples = [(r.instance, r.to_best, r.po_run) for r in results]
        print()
        print(render_scatter(pair_points(triples), title="QUBE(TO) (y) vs QUBE(PO) (x)"))
    if args.results:
        print("measurements recorded in %s (rerun with the same path to resume)"
              % args.results)
    if args.certify:
        runs = [m for r in results for m in list(r.to_runs.values()) + [r.po_run]]
        bad = [m for m in runs if m.certificate_ok is False]
        certified = [m for m in runs if m.certificate_status is not None]
        print(
            "certificates: %d/%d checked, %d invalid"
            % (len(certified), len(runs), len(bad))
        )
        for m in bad:
            print("  INVALID certificate: %s %s" % (m.instance, m.solver))
        if bad:
            return 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the paper bench; exit 0 only when identity holds and every gate passes."""
    from repro.bench import EngineDivergence, render_report, run_bench, write_report

    try:
        report = run_bench()
    except EngineDivergence as exc:
        report = exc.report
        print("FAILED: %s" % exc, file=sys.stderr)
    write_report(report, args.output)
    print(render_report(report))
    print("report written to %s" % args.output)
    if not report["gates_ok"]:
        print("FAILED: a paper gate did not hold (see the gates above)", file=sys.stderr)
    return 0 if report["decision_identity_ok"] and report["gates_ok"] else 1


def cmd_certify_emit(args: argparse.Namespace) -> int:
    """Solve while logging the resolution proof; self-check unless asked not to."""
    from repro.certify import (
        JsonlSink,
        ProofLogger,
        certifying_config,
        check_certificate,
    )

    phi = _read(args.input)
    solved = prenex(phi, args.strategy) if args.to else phi
    config = certifying_config(
        SolverConfig(
            max_decisions=args.max_decisions,
            max_seconds=args.max_seconds,
            engine=args.engine,
        )
    )
    with JsonlSink(args.output) as sink:
        logger = ProofLogger(sink)
        from repro.core.solver import QdpllSolver

        result = QdpllSolver(solved, config, proof=logger).solve()
    print("result      %s" % result.outcome.value.upper())
    print("decisions   %d" % result.stats.decisions)
    print("certificate %s" % args.output)
    if args.no_check:
        return 0
    # Always check against the original formula: a TO proof must also be
    # valid under the tree's partial order (prenexing only extends it).
    report = check_certificate(phi, args.output)
    print("check       %s%s" % (report.status, ": %s" % report.error if report.error else ""))
    return 0 if report.ok else 1


def cmd_certify_check(args: argparse.Namespace) -> int:
    """Replay a certificate against a formula; exit 0 only on 'verified'."""
    from repro.certify import check_certificate

    phi = _read(args.input)
    report = check_certificate(phi, args.certificate)
    print("status      %s" % report.status)
    if report.outcome:
        print("outcome     %s" % report.outcome.upper())
    print("steps       %d" % report.steps)
    if report.error:
        print("error       %s" % report.error)
    return 0 if report.ok else 1


def cmd_certify_stats(args: argparse.Namespace) -> int:
    from repro.certify import certificate_stats

    stats = certificate_stats(args.certificate)
    for key, value in stats.to_dict().items():
        print("%-14s%s" % (key, value))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    phi = _read(args.input)
    prefix = phi.prefix
    print("variables     %d" % phi.num_vars)
    print("clauses       %d" % phi.num_clauses)
    print("prenex        %s" % ("yes" if phi.is_prenex else "no"))
    print("prefix level  %d" % prefix.prefix_level)
    print("blocks        %d" % len(prefix.blocks))
    print("top variables %d" % len(prefix.top_variables()))
    return 0


def cmd_serve_run(args: argparse.Namespace) -> int:
    """Run the persistent solver daemon until SIGTERM/SIGINT."""
    from repro.serve import run_daemon

    faults = None
    if args.fault_plan:
        from repro.robustness.faults import FaultPlan

        faults = FaultPlan.from_file(args.fault_plan)
    return run_daemon(
        args.socket,
        jobs=args.jobs,
        cache_path=args.cache,
        wall_timeout=args.wall_timeout,
        mem_limit_mb=args.mem_limit,
        faults=faults,
        max_inflight=args.max_inflight,
        failure_threshold=args.failure_threshold,
        breaker_cooldown=args.breaker_cooldown,
    )


def cmd_serve_chaos(args: argparse.Namespace) -> int:
    """Chaos smoke: drive a fault-injected daemon, check every invariant."""
    import json

    from repro.serve.chaos import render_report, run_serve_chaos

    report = run_serve_chaos(
        seed=args.seed,
        requests=args.requests,
        mem_limit_mb=args.mem_limit,
        keep_stats=args.stats_out,
    )
    print(render_report(report))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print("report written to %s" % args.output)
    return 0 if report["passed"] else 1


def cmd_serve_request(args: argparse.Namespace) -> int:
    """Send one JSON request (from a file, or stdin with '-') to a daemon."""
    import json

    from repro.serve import request

    if args.request == "-":
        payload = json.load(sys.stdin)
    else:
        with open(args.request) as handle:
            payload = json.load(handle)
    response = request(args.socket, payload, timeout=args.timeout)
    print(json.dumps(response, indent=2, sort_keys=True))
    if not response.get("ok"):
        return 1
    outcome = response.get("outcome")
    if outcome == "true":
        return EXIT_TRUE
    if outcome == "false":
        return EXIT_FALSE
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve",
        help="solve a QBF (exit 10=true, 20=false, 2=budget exhausted, "
        "3=interrupted by SIGTERM/SIGINT)",
    )
    p_solve.add_argument("input")
    p_solve.add_argument("--to", action="store_true", help="prenex first (QUBE(TO) pipeline)")
    p_solve.add_argument("--po", action="store_true", help="solve the tree directly (default)")
    p_solve.add_argument("--strategy", default="eu_au", choices=STRATEGIES)
    p_solve.add_argument("--policy", default="levelsub")
    p_solve.add_argument("--no-learning", action="store_true")
    p_solve.add_argument("--no-pure", action="store_true")
    p_solve.add_argument(
        "--engine", default=default_engine(), choices=ENGINES,
        help="propagation backend; decision-for-decision identical, only "
        "the speed differs (default: $REPRO_ENGINE or counters)",
    )
    p_solve.add_argument("--max-decisions", type=int, default=None)
    p_solve.add_argument("--max-seconds", type=float, default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_prenex = sub.add_parser("prenex", help="convert to prenex form")
    p_prenex.add_argument("input")
    p_prenex.add_argument("-o", "--output", default=None)
    p_prenex.add_argument("--strategy", default="eu_au", choices=STRATEGIES)
    p_prenex.set_defaults(func=cmd_prenex)

    p_mini = sub.add_parser("miniscope", help="minimize quantifier scopes")
    p_mini.add_argument("input")
    p_mini.add_argument("-o", "--output", default=None)
    p_mini.set_defaults(func=cmd_miniscope)

    p_gen = sub.add_parser("generate", help="generate a benchmark instance")
    p_gen.add_argument("family", choices=("ncf", "fpv"))
    p_gen.add_argument("--dep", type=int, default=5)
    p_gen.add_argument("--var", type=int, default=4)
    p_gen.add_argument("--cls", type=int, default=12)
    p_gen.add_argument("--lpc", type=int, default=4)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_stats = sub.add_parser("stats", help="describe an instance")
    p_stats.add_argument("input")
    p_stats.set_defaults(func=cmd_stats)

    p_bench = sub.add_parser(
        "bench",
        help="paper bench: Table I, Figures 3-7, the ablations, the incremental "
        "diameter sweeps and the kernel rows on every available engine "
        "(counters/native), decision identity "
        "against counters, the paper's shape gates, schema-versioned JSON report",
    )
    p_bench.add_argument(
        "-o", "--output", default="BENCH_paper.json", metavar="OUT.JSON",
        help="report path (default: %(default)s)",
    )
    p_bench.set_defaults(func=cmd_bench)

    p_serve = sub.add_parser(
        "serve", help="persistent solver daemon over a local socket"
    )
    serve_sub = p_serve.add_subparsers(dest="serve_command", required=True)
    p_srun = serve_sub.add_parser(
        "run",
        help="start the daemon (newline-delimited JSON requests; "
        "SIGTERM shuts it down cleanly)",
    )
    p_srun.add_argument("--socket", required=True, metavar="PATH",
                        help="unix socket path to listen on")
    p_srun.add_argument("--jobs", type=int, default=2,
                        help="concurrent solve slots (default 2)")
    p_srun.add_argument("--cache", default=None, metavar="PATH",
                        help="persistent verdict cache (JSONL results log), "
                        "reloaded on restart")
    p_srun.add_argument("--wall-timeout", type=float, default=None,
                        help="hard per-request seconds for worker-shard solves")
    p_srun.add_argument("--mem-limit", type=float, default=None, metavar="MB",
                        help="per-worker address-space ceiling (RLIMIT_AS) in "
                        "MiB; a breaching solve returns a structured 'memout' "
                        "instead of a host-level OOM kill")
    p_srun.add_argument("--max-inflight", type=int, default=16,
                        help="admission budget: solve-lane requests in flight "
                        "before new ones are shed with 'overloaded' "
                        "(default 16)")
    p_srun.add_argument("--failure-threshold", type=int, default=3,
                        help="consecutive crash/hang/memout outcomes before a "
                        "task key's circuit breaker trips open (default 3)")
    p_srun.add_argument("--breaker-cooldown", type=float, default=30.0,
                        help="seconds an open breaker waits before letting a "
                        "half-open probe through (default 30)")
    p_srun.add_argument("--fault-plan", default=None, metavar="PLAN.JSON",
                        help="deterministic fault-injection plan for chaos-"
                        "testing the serve path (use explicit 'assignments'; "
                        "see repro.robustness.faults.FaultPlan)")
    p_srun.set_defaults(func=cmd_serve_run)
    p_schaos = serve_sub.add_parser(
        "chaos",
        help="self-contained chaos smoke: boot a fault-injected daemon, "
        "drive a scripted client battery, verify every answer",
    )
    p_schaos.add_argument("--seed", type=int, default=0,
                          help="fault-plan seed (default 0)")
    p_schaos.add_argument("--requests", type=int, default=3,
                          help="rounds of the request battery (default 3)")
    p_schaos.add_argument("--mem-limit", type=float, default=512.0,
                          metavar="MB", help="worker memory ceiling for the "
                          "chaos daemon (default 512)")
    p_schaos.add_argument("-o", "--output", default=None, metavar="OUT.JSON",
                          help="also write the machine-readable report here")
    p_schaos.add_argument("--stats-out", default=None, metavar="STATS.JSON",
                          help="dump the daemon's post-chaos stats response "
                          "here (CI uploads this as an artifact)")
    p_schaos.set_defaults(func=cmd_serve_chaos)
    p_sreq = serve_sub.add_parser(
        "request", help="send one JSON request to a running daemon"
    )
    p_sreq.add_argument("--socket", required=True, metavar="PATH")
    p_sreq.add_argument("request", help="path to a JSON request file, or '-'")
    p_sreq.add_argument("--timeout", type=float, default=300.0)
    p_sreq.set_defaults(func=cmd_serve_request)

    p_cert = sub.add_parser(
        "certify", help="clause/term resolution certificates (emit, check, stats)"
    )
    cert_sub = p_cert.add_subparsers(dest="certify_command", required=True)
    p_emit = cert_sub.add_parser(
        "emit", help="solve while logging the resolution proof to a JSONL file"
    )
    p_emit.add_argument("input")
    p_emit.add_argument("-o", "--output", required=True, metavar="CERT.JSONL")
    p_emit.add_argument("--to", action="store_true",
                        help="prenex first (the certificate still checks "
                        "against the original tree)")
    p_emit.add_argument("--strategy", default="eu_au", choices=STRATEGIES)
    p_emit.add_argument("--max-decisions", type=int, default=None)
    p_emit.add_argument("--max-seconds", type=float, default=None)
    p_emit.add_argument("--no-check", action="store_true",
                        help="skip the self-check after emitting")
    p_emit.add_argument("--engine", default=default_engine(), choices=ENGINES,
                        help="propagation backend (certificates are "
                        "engine-independent; both must emit the same proof)")
    p_emit.set_defaults(func=cmd_certify_emit)
    p_check = cert_sub.add_parser(
        "check", help="verify a certificate against a formula, solver not involved"
    )
    p_check.add_argument("input")
    p_check.add_argument("certificate")
    p_check.set_defaults(func=cmd_certify_check)
    p_cstats = cert_sub.add_parser("stats", help="summarize a certificate file")
    p_cstats.add_argument("certificate")
    p_cstats.set_defaults(func=cmd_certify_stats)

    p_evalx = sub.add_parser(
        "evalx", help="batch TO-vs-PO experiment harness (parallel, resumable)"
    )
    evalx_sub = p_evalx.add_subparsers(dest="evalx_command", required=True)
    p_run = evalx_sub.add_parser("run", help="run one Section-VII suite sweep")
    p_run.add_argument("suite", choices=("ncf", "fpv", "dia", "prob", "fixed"))
    p_run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = serial in-process, the legacy path)",
    )
    p_run.add_argument(
        "--results", default=None, metavar="OUT.JSONL",
        help="append every measurement to this JSONL file; rerunning with "
        "the same file resumes by skipping recorded runs",
    )
    p_run.add_argument(
        "--wall-timeout", type=float, default=None, metavar="SECONDS",
        help="hard per-run cap enforced by killing the worker (jobs > 1)",
    )
    p_run.add_argument(
        "--decisions", type=int, default=4000,
        help="per-run decision budget (the reproduction's timeout analogue)",
    )
    p_run.add_argument(
        "--seconds", type=float, default=None,
        help="cooperative per-run wall cap; off by default so decision "
        "metrics stay machine-independent",
    )
    p_run.add_argument(
        "--instances", type=int, default=8,
        help="suite size (default 8): instances per setting (ncf), instance "
        "count (fpv, prob, fixed) or the cap on the tested bound n (dia)",
    )
    p_run.add_argument("--tie-margin", type=int, default=50)
    p_run.add_argument("--scatter", action="store_true",
                       help="also render the ASCII scatter of the sweep")
    p_run.add_argument(
        "--certify", action="store_true",
        help="log and self-check a resolution proof for every run "
        "(pure literals are disabled on certified runs); exits nonzero "
        "if any certificate is invalid",
    )
    p_run.add_argument(
        "--engine", default=default_engine(), choices=ENGINES,
        help="propagation backend for every run in the sweep; a non-default "
        "choice lands in the task fingerprints, so results files keyed on "
        "the default stay resumable (default: $REPRO_ENGINE or counters)",
    )
    p_run.add_argument(
        "--fault-plan", default=None, metavar="PLAN.JSON",
        help="deterministic fault-injection plan (see repro.robustness."
        "faults.FaultPlan) for chaos-testing the harness itself",
    )
    p_run.add_argument(
        "--mem-limit", type=float, default=None, metavar="MB",
        help="per-worker address-space ceiling (RLIMIT_AS) in MiB (jobs > "
        "1); a breaching run is recorded as status='memout' and never "
        "retried at the same ceiling",
    )
    p_run.set_defaults(func=cmd_evalx_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
