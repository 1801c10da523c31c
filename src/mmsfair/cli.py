"""Command line harness: solve instances, audit allocations, generate data.

Exit codes: 0 success, 1 input or usage error, 2 guarantee violation. Code 2
comes only from verify and sweep; it is a test-harness signal meaning an
allocation broke its advertised bound, not an I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from fractions import Fraction

from .chores import solve_chores
from .envy_graph import solve_additive
from .errors import FairDivisionError
from .generators import (
    ADDITIVE_KINDS,
    SUBMODULAR_KINDS,
    GeneratorSpec,
    fixture_ef1_not_mms,
    fixture_submodular_gap,
    generate,
)
from .io import (
    KIND_ADDITIVE_CHORES,
    KIND_ADDITIVE_GOODS,
    KIND_SUBMODULAR,
    MU_UNAVAILABLE,
    _field,
    _loads,
    _parse_value,
    _table_lines,
    build_report,
    kind_of,
    parse_allocation,
    parse_instance,
    report_to_json,
    report_to_table,
    serialize_allocation,
    serialize_instance,
)
from .model import AdditiveInstance, as_value, value_to_str
from .oracles import (
    DEFAULT_ORACLE_BUDGET,
    MATROID_SOLVERS,
    mms_approx_submodular,
    mms_exact_additive,
    mms_exact_submodular,
)
from .submodular.allocate import DEFAULT_DELTA, alg_sub
from .submodular.valuations import BudgetAdditive


def _rational(text: str) -> Fraction:
    try:
        return as_value(text)
    except FairDivisionError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_report(report, args) -> None:
    text = report_to_json(report) if args.format == "json" else report_to_table(report)
    _write_out(text, args.output)


def _select_agents(n: int, agent: int | None) -> list[int]:
    if agent is None:
        return list(range(n))
    if not 0 <= agent < n:
        raise FairDivisionError(f"agent {agent} out of range [0,{n})")
    return [agent]


def _with_article(kind: str) -> str:
    """An instance kind with its article: "an additive-goods", "a submodular"."""
    return ("an " if kind[0] in "aeiou" else "a ") + kind


def _solve(instance, delta):
    """Allocate with the solver for the instance's kind; delta is alg_sub's.

    The solvers are looked up as module globals at each call, so wrappers
    rebound onto this module's names after import are the ones called.
    """
    kind = kind_of(instance)
    if kind == KIND_ADDITIVE_GOODS:
        return solve_additive(instance)
    if kind == KIND_ADDITIVE_CHORES:
        return solve_chores(instance)
    allocation, _ = alg_sub(instance, delta=delta)
    return allocation


def _cmd_solve(args) -> int:
    instance = parse_instance(_read(args.input))
    if kind_of(instance) != args.instance_kind:
        raise FairDivisionError(f"this command needs {_with_article(args.instance_kind)} instance")
    delta = getattr(args, "delta", None)  # only solve-submodular takes --delta
    allocation = _solve(instance, delta)
    if args.allocation_out:
        _write_out(serialize_allocation(allocation), args.allocation_out)
    report = build_report(instance, allocation, delta=delta, budget=args.oracle_budget)
    _emit_report(report, args)
    return 0


def _cmd_mms_exact(args) -> int:
    instance = parse_instance(_read(args.input))
    if isinstance(instance, AdditiveInstance):
        agents = _select_agents(instance.n, args.agent)
        certs = [
            (i, mms_exact_additive(instance, i, budget=args.oracle_budget))
            for i in agents
        ]
    else:
        agents = _select_agents(len(instance), args.agent)
        certs = [
            (i, mms_exact_submodular(instance[i], len(instance), budget=args.oracle_budget))
            for i in agents
        ]
    if args.format == "json":
        doc = {
            "version": 1,
            "command": "mms-exact",
            "agents": [
                {
                    "agent": i,
                    "mms": value_to_str(cert.value),
                    "witness": cert.witness.as_lists(),
                }
                for i, cert in certs
            ],
        }
        _write_out(json.dumps(doc, indent=2) + "\n", args.output)
    else:
        lines = [
            f"agent {i}: mms {value_to_str(cert.value)}, witness {cert.witness.as_lists()}"
            for i, cert in certs
        ]
        _write_out("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_mms_approx(args) -> int:
    instance = parse_instance(_read(args.input))
    kind = kind_of(instance)
    if kind == KIND_ADDITIVE_CHORES:
        raise FairDivisionError("mms-approx handles goods or submodular instances")
    if kind == KIND_ADDITIVE_GOODS:
        # an additive row is the budget-additive family with a never-binding cap
        valuations = [BudgetAdditive(row, sum(row, Fraction(0))) for row in instance.values]
    else:
        valuations = instance
    n = len(valuations)
    agents = _select_agents(n, args.agent)
    rows = []
    for i in agents:
        result = mms_approx_submodular(
            valuations[i], n, solver=args.matroid_solver, epsilon=args.epsilon
        )
        worst = min(valuations[i].evaluate(b) for b in result.allocation.bundles)
        rows.append((i, result, worst))
    if args.format == "json":
        doc = {
            "version": 1,
            "command": "mms-approx",
            "solver": args.matroid_solver,
            "agents": [
                {
                    "agent": i,
                    "accepted_threshold": value_to_str(r.bound),
                    "bundle_floor": value_to_str(r.bound / 9),
                    "certified": r.certified,
                    "min_bundle_value": value_to_str(worst),
                    "bundles": r.allocation.as_lists(),
                }
                for i, r, worst in rows
            ],
        }
        _write_out(json.dumps(doc, indent=2) + "\n", args.output)
    else:
        lines = []
        for i, r, worst in rows:
            tag = "certified" if r.certified else "heuristic"
            lines.append(
                f"agent {i}: threshold {value_to_str(r.bound)} ({tag}), "
                f"bundle floor {value_to_str(r.bound / 9)}, "
                f"min bundle {value_to_str(worst)}, bundles {r.allocation.as_lists()}"
            )
        _write_out("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_verify(args) -> int:
    instance = parse_instance(_read(args.input))
    allocation = parse_allocation(_read(args.allocation))
    report = build_report(
        instance, allocation, delta=args.delta, budget=args.oracle_budget
    )
    _emit_report(report, args)
    return 0 if report.ok else 2


def _cmd_generate(args) -> int:
    chores = args.kind == "chores"
    lo = args.lo if args.lo is not None else (-100 if chores else 0)
    hi = args.hi if args.hi is not None else (0 if chores else 100)
    spec = GeneratorSpec(kind=args.kind, n=args.n, m=args.m, lo=lo, hi=hi, seed=args.seed)
    _write_out(serialize_instance(generate(spec)), args.output)
    return 0


def _cmd_fixtures(args) -> int:
    if args.name == "ef1-not-mms":
        instance, allocation = fixture_ef1_not_mms(args.n)
        if args.allocation_out:
            _write_out(serialize_allocation(allocation), args.allocation_out)
        _write_out(serialize_instance(instance), args.output)
    else:
        if args.allocation_out:
            raise FairDivisionError("submodular-gap has no reference allocation")
        _write_out(serialize_instance(fixture_submodular_gap()), args.output)
    return 0


def _span(raw, field: str) -> tuple[int, int]:
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw, raw
    if (
        isinstance(raw, list)
        and len(raw) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in raw)
        and raw[0] <= raw[1]
    ):
        return raw[0], raw[1]
    raise FairDivisionError(f"{field}: expected an int or [low, high] pair")


_SWEEP_SOLVERS = {
    KIND_ADDITIVE_GOODS: ADDITIVE_KINDS[:2],
    KIND_ADDITIVE_CHORES: ("chores",),
    KIND_SUBMODULAR: SUBMODULAR_KINDS,
}


def _run_sweep(entry: dict, index: int) -> dict:
    where = f"sweeps[{index}]"
    if not isinstance(entry, dict):
        raise FairDivisionError(f"{where}: expected an object")
    bound = entry.get("bound")
    if bound not in _SWEEP_SOLVERS:
        raise FairDivisionError(
            f"{where}.bound: expected one of {sorted(_SWEEP_SOLVERS)}, got {bound!r}"
        )
    kind = entry.get("kind", _SWEEP_SOLVERS[bound][0])
    if kind not in _SWEEP_SOLVERS[bound]:
        raise FairDivisionError(
            f"{where}.kind: {kind!r} does not produce {bound} instances"
        )
    name = _field(entry, "name", str, where, f"{bound}:{kind}")
    count = _field(entry, "count", int, where, 10)
    if count < 1:
        raise FairDivisionError(f"{where}.count: expected a positive int")
    n_lo, n_hi = _span(entry.get("n", [2, 4]), f"{where}.n")
    m_lo, m_hi = _span(entry.get("m", [2, 10]), f"{where}.m")
    chores = bound == KIND_ADDITIVE_CHORES
    lo = _field(entry, "lo", int, where, -100 if chores else 0)
    hi = _field(entry, "hi", int, where, 0 if chores else 100)
    base_seed = _field(entry, "seed", int, where, 0)
    delta = _parse_value(entry["delta"], f"{where}.delta") if "delta" in entry else DEFAULT_DELTA
    if delta <= 0:
        raise FairDivisionError(f"{where}.delta: expected a positive value, got {delta}")
    budget = _field(entry, "oracle-budget", int, where, DEFAULT_ORACLE_BUDGET)
    if n_lo < 1:
        raise FairDivisionError(f"{where}.n: need at least one agent")
    if m_hi < n_hi:
        raise FairDivisionError(f"{where}.m: upper end must cover n (draws use m >= n)")

    started = time.perf_counter()
    solve_seconds = audit_seconds = 0.0
    ratios: list[Fraction] = []
    violations = 0
    skipped = 0
    checked = 0
    for k in range(count):
        rng = random.Random(base_seed + k)
        n = rng.randint(n_lo, n_hi)
        m = rng.randint(max(m_lo, n), m_hi)
        spec = GeneratorSpec(kind=kind, n=n, m=m, lo=lo, hi=hi, seed=rng.getrandbits(32))
        instance = generate(spec)
        t0 = time.perf_counter()
        allocation = _solve(instance, delta)
        t1 = time.perf_counter()
        report = build_report(instance, allocation, delta=delta, budget=budget)
        t2 = time.perf_counter()
        solve_seconds += t1 - t0
        audit_seconds += t2 - t1
        for row in report.agents:
            if row.satisfied is None and row.mms_source == MU_UNAVAILABLE:
                skipped += 1
                continue
            checked += 1
            if row.satisfied is False:
                violations += 1
            if row.ratio is not None:
                ratios.append(row.ratio)
    seconds = time.perf_counter() - started

    def stat(fn):
        return fn(ratios) if ratios else None

    return {
        "name": name,
        "bound": bound,
        "count": count,
        "agents_checked": checked,
        "agents_skipped": skipped,
        "violations": violations,
        "min_ratio": stat(min),
        "max_ratio": stat(max),
        "mean_ratio": sum(ratios) / len(ratios) if ratios else None,
        "seconds": seconds,
        "solve_seconds": solve_seconds,
        "audit_seconds": audit_seconds,
    }


def _cmd_sweep(args) -> int:
    doc = _loads(_read(args.config))
    if not isinstance(doc.get("sweeps"), list):
        raise FairDivisionError("config must be an object with a 'sweeps' list")
    summaries = [_run_sweep(entry, k) for k, entry in enumerate(doc["sweeps"])]

    if args.format == "json":
        out = []
        for s in summaries:
            row = dict(s)
            for key in ("min_ratio", "max_ratio", "mean_ratio"):
                row[key] = None if s[key] is None else value_to_str(s[key])
            out.append(row)
        _write_out(json.dumps({"version": 1, "sweeps": out}, indent=2) + "\n", args.output)
    else:
        cols = [
            "name", "count", "checked", "violations", "min", "mean", "max",
            "seconds", "solve", "audit",
        ]
        body = []
        for s in summaries:
            body.append(
                [
                    s["name"],
                    str(s["count"]),
                    str(s["agents_checked"]),
                    str(s["violations"]),
                    "-" if s["min_ratio"] is None else f"{float(s['min_ratio']):.6f}",
                    "-" if s["mean_ratio"] is None else f"{float(s['mean_ratio']):.6f}",
                    "-" if s["max_ratio"] is None else f"{float(s['max_ratio']):.6f}",
                    f"{s['seconds']:.2f}",
                    f"{s['solve_seconds']:.2f}",
                    f"{s['audit_seconds']:.2f}",
                ]
            )
        _write_out("\n".join(_table_lines(cols, body)) + "\n", args.output)
    return 2 if any(s["violations"] for s in summaries) else 0


def _add_io_flags(p: argparse.ArgumentParser, needs_input: bool = True) -> None:
    if needs_input:
        p.add_argument("--input", required=True, help="instance file (JSON)")
    p.add_argument("--output", default=None, help="where to write the result (default stdout)")
    p.add_argument(
        "--format", choices=("json", "table"), default="table", help="output format"
    )


def _add_budget_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--oracle-budget",
        type=int,
        default=DEFAULT_ORACLE_BUDGET,
        metavar="N",
        help="largest n^m the exact oracle may enumerate",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="mmsfair",
        description="Approximately maximin-fair division of goods and chores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, kind, out_help in (
        ("solve-additive", KIND_ADDITIVE_GOODS, "also write the bare allocation"),
        ("solve-chores", KIND_ADDITIVE_CHORES, None),
        ("solve-submodular", KIND_SUBMODULAR, None),
    ):
        p = sub.add_parser(command, help=f"allocate {_with_article(kind)} instance")
        _add_io_flags(p)
        _add_budget_flag(p)
        if kind == KIND_SUBMODULAR:
            p.add_argument("--delta", type=_rational, default=DEFAULT_DELTA, metavar="P/Q")
        p.add_argument("--allocation-out", default=None, help=out_help)
        p.set_defaults(handler=_cmd_solve, instance_kind=kind)

    p = sub.add_parser("mms-exact", help="exact maximin shares with witnesses")
    _add_io_flags(p)
    _add_budget_flag(p)
    p.add_argument("--agent", type=int, default=None, help="restrict to one agent")
    p.set_defaults(handler=_cmd_mms_exact)

    p = sub.add_parser("mms-approx", help="certified 1/9-scale maximin bounds")
    _add_io_flags(p)
    p.add_argument("--agent", type=int, default=None)
    p.add_argument(
        "--matroid-solver", choices=sorted(MATROID_SOLVERS), default="exhaustive"
    )
    p.add_argument("--epsilon", type=_rational, default=Fraction(1, 100), metavar="P/Q")
    p.set_defaults(handler=_cmd_mms_approx)

    p = sub.add_parser("verify", help="audit an allocation against its guarantee")
    _add_io_flags(p)
    _add_budget_flag(p)
    p.add_argument("--allocation", required=True, help="allocation file to audit")
    p.add_argument("--delta", type=_rational, default=DEFAULT_DELTA, metavar="P/Q")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("generate", help="write a seeded random instance")
    p.add_argument("--output", default=None, help="where to write the instance (default stdout)")
    p.add_argument("--kind", required=True, choices=ADDITIVE_KINDS + SUBMODULAR_KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--lo", type=int, default=None, help="smallest integer value")
    p.add_argument("--hi", type=int, default=None, help="largest integer value")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("fixtures", help="write a hand-built fixture instance")
    p.add_argument("--output", default=None, help="where to write the instance (default stdout)")
    p.add_argument("--name", required=True, choices=("ef1-not-mms", "submodular-gap"))
    p.add_argument("--n", type=int, default=3, help="agent count for ef1-not-mms")
    p.add_argument("--allocation-out", default=None, help="write the reference allocation")
    p.set_defaults(handler=_cmd_fixtures)

    p = sub.add_parser("sweep", help="run seeded batches and audit every agent")
    _add_io_flags(p, needs_input=False)
    p.add_argument("--config", required=True, help="sweep description (JSON)")
    p.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed help (0) or a usage error (2)
        return 0 if exc.code == 0 else 1
    try:
        return args.handler(args)
    except (FairDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
