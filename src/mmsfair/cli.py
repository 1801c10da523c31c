"""Command line harness: solve instances, audit allocations, generate data.

Each reporting command builds its result once (a SolutionReport, or a JSON
document with every value already written), and _emit, the one reader of
--format, writes it as JSON or as its document rendered as text by _render:
a line per field, and a table per list of rows.

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
    DEFAULT_RANGES,
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
    _construct,
    _dumps,
    _field,
    _loads,
    _report_doc,
    build_report,
    kind_of,
    parse_allocation,
    parse_instance,
    report_to_json,
    serialize_allocation,
    serialize_instance,
)
from .model import AdditiveInstance, as_value, value_to_str
from .oracles import (
    DEFAULT_ORACLE_BUDGET,
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


def _render(doc: dict) -> str:
    """doc as text: each field a "name: value" line, in order, except a list
    of row objects, which is its name over an indented table with a
    left-justified column per key. None is "-", a boolean yes or no, a list
    compact JSON and a float (a timing) two decimals; no line ends in a blank."""

    def cell(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, list):
            return json.dumps(value, separators=(",", ":"))
        return f"{value:.2f}" if isinstance(value, float) else str(value)

    lines = []
    for name, value in doc.items():
        if not (value and isinstance(value, list) and all(isinstance(r, dict) for r in value)):
            lines.append(f"{name}: {cell(value)}")
            continue
        rows = [list(value[0])] + [list(map(cell, r.values())) for r in value]
        widths = [max(map(len, column)) for column in zip(*rows)]
        lines += [f"{name}:"] + ["  " + "  ".join(map(str.ljust, r, widths)) for r in rows]
    return "".join(line.rstrip() + "\n" for line in lines)


def _emit(args, result, to_json=_dumps, to_doc=lambda doc: doc) -> None:
    """Write result to --output as --format asks: to_json(result), or the
    text rendering of its document, to_doc(result)."""
    text = to_json(result) if args.format == "json" else _render(to_doc(result))
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
    _emit(args, report, report_to_json, _report_doc)
    return 0


def _cmd_mms_exact(args) -> int:
    instance = parse_instance(_read(args.input))
    budget = args.oracle_budget
    if isinstance(instance, AdditiveInstance):
        n, share = instance.n, lambda i: mms_exact_additive(instance, i, budget=budget)
    else:
        n, share = len(instance), lambda i: mms_exact_submodular(instance[i], n, budget=budget)
    certs = {i: share(i) for i in _select_agents(n, args.agent)}
    rows = [
        {"agent": i, "mms": value_to_str(cert.value), "witness": cert.witness.as_lists()}
        for i, cert in certs.items()
    ]
    _emit(args, {"command": "mms-exact", "agents": rows})
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
    rows = []
    for i in _select_agents(n, args.agent):
        r = mms_approx_submodular(valuations[i], n, epsilon=args.epsilon)
        rows.append(
            {
                "agent": i,
                "accepted_threshold": value_to_str(r.bound),
                "bundle_floor": value_to_str(r.bound / 9),
                "certified": r.certified,
                "min_bundle_value": value_to_str(r.min_bundle_value),
                "bundles": r.allocation.as_lists(),
            }
        )
    _emit(args, {"command": "mms-approx", "agents": rows})
    return 0


def _cmd_verify(args) -> int:
    instance = parse_instance(_read(args.input))
    allocation = parse_allocation(_read(args.allocation))
    report = build_report(
        instance, allocation, delta=args.delta, budget=args.oracle_budget
    )
    _emit(args, report, report_to_json, _report_doc)
    return 0 if report.ok else 2


def _cmd_generate(args) -> int:
    spec = GeneratorSpec(args.kind, args.n, args.m, args.lo, args.hi, args.seed)
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
    if not isinstance(bound, str) or bound not in _SWEEP_SOLVERS:
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
    lo, hi = DEFAULT_RANGES[kind]
    lo = _field(entry, "lo", int, where, lo)
    hi = _field(entry, "hi", int, where, hi)
    base_seed = _field(entry, "seed", int, where, 0)
    raw_delta = entry.get("delta", value_to_str(DEFAULT_DELTA))
    delta = _construct(lambda: as_value(raw_delta), f"{where}.delta")
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
        # an agent is checked when its verdict is proven either way
        verdicts = [row.satisfied for row in report.agents]
        checked += len(verdicts) - verdicts.count(None)
        skipped += verdicts.count(None)
        violations += verdicts.count(False)
        ratios += [row.ratio for row in report.agents if row.ratio is not None]
    seconds = time.perf_counter() - started

    def stat(fn):
        return value_to_str(fn(ratios)) if ratios else None

    return {
        "name": name,
        "bound": bound,
        "count": count,
        "agents_checked": checked,
        "agents_skipped": skipped,
        "violations": violations,
        "min_ratio": stat(min),
        "max_ratio": stat(max),
        "mean_ratio": stat(lambda rs: sum(rs) / len(rs)),
        "seconds": seconds,
        "solve_seconds": solve_seconds,
        "audit_seconds": audit_seconds,
    }


def _cmd_sweep(args) -> int:
    doc = _loads(_read(args.config))
    if not isinstance(doc.get("sweeps"), list):
        raise FairDivisionError("config must be an object with a 'sweeps' list")
    rows = [_run_sweep(entry, k) for k, entry in enumerate(doc["sweeps"])]
    _emit(args, {"sweeps": rows})
    return 2 if any(row["violations"] for row in rows) else 0


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
