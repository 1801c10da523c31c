"""Reading and writing instances, allocations, and solution reports.

Files are JSON. Every rational travels as a string ("p/q" or "p"; bare
integers, and every other spelling Fraction reads, are accepted on input),
so parse(serialize(x)) reproduces x exactly. Once its shape is checked, an
additive row, or a submodular agent's table, weights and cap, goes to its
constructor as read: each entry is read once, ints and "p/q" strings build
no Fraction, and only a refused construction is scanned to name its cause.
Explicit submodular tables are stored in subset-mask order: entry k is the
value of the bundle whose members are the set bits of k, bit 0 being good 0;
a table where some good adds more to a bundle than max(0, its own value) is
rejected, because the exact oracle's bounds assume it. Reports carry, per
agent, the achieved value, the maximin share with its provenance (exact,
certified-lower-bound, or unavailable), the achieved ratio where it is well
defined, and the verdict of the division-free guarantee comparison (none
where a negative value shows a submodular valuation not monotone). Past the
exact oracle's budget, a submodular share is certified from below by the
poorest bundle of the oracle's greedy n-partition, and is exact only where
that bound is 0 and a cap of 0 meets it; an additive one is unavailable.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, NoReturn, Sequence

from .errors import BudgetExceededError, InvalidInstanceError
from .model import (
    CHORES,
    GOODS,
    AdditiveInstance,
    Allocation,
    Value,
    as_ratio,
    value_to_str,
)
from .oracles import (
    DEFAULT_ORACLE_BUDGET,
    mms_exact_additive,
    mms_exact_submodular,
    mms_greedy_submodular,
)
from .submodular.allocate import DEFAULT_DELTA
from .submodular.valuations import (
    BudgetAdditive,
    ExplicitTable,
    SubmodularValuation,
    WeightedCoverage,
    detect_positive_mms,
    shared_ground,
)

FORMAT_VERSION = 1

KIND_ADDITIVE_GOODS = "additive-goods"
KIND_ADDITIVE_CHORES = "additive-chores"
KIND_SUBMODULAR = "submodular"

MU_EXACT = "exact"
MU_CERTIFIED = "certified-lower-bound"
MU_UNAVAILABLE = "unavailable"


def _fail(field: str, message: str) -> NoReturn:
    raise InvalidInstanceError(f"{field}: {message}")


def _loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInstanceError(
            f"not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    except ValueError as exc:  # an int literal past int()'s digit limit
        raise InvalidInstanceError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInstanceError("top level must be a JSON object")
    return doc


def _dumps(doc: dict) -> str:
    """doc as a JSON document of this format: the version, then doc's fields
    in order, indented two spaces, with one trailing newline."""
    return json.dumps({"version": FORMAT_VERSION, **doc}, indent=2) + "\n"


def _field(doc: dict, name: str, typ: type, where: str = "document", default=None):
    if name not in doc:
        if default is not None:
            return default
        _fail(f"{where}.{name}", "missing field")
    value = doc[name]
    if typ is int and isinstance(value, bool) or not isinstance(value, typ):
        _fail(f"{where}.{name}", f"expected {typ.__name__}, got {type(value).__name__}")
    return value


def _check_version(doc: dict) -> None:
    version = _field(doc, "version", int)
    if version != FORMAT_VERSION:
        _fail("version", f"unsupported version {version}, expected {FORMAT_VERSION}")


def _value_list(raw: object, count: int | None, field: str) -> tuple[list, Iterable]:
    """raw, once it is a list (of count entries, unless count is None), and
    its entries, each with its field, for _construct to scan."""
    if not isinstance(raw, list):
        _fail(field, "expected a list")
    if count is not None and len(raw) != count:
        _fail(field, f"expected {count} entries, got {len(raw)}")
    return raw, ((f"{field}[{k}]", v) for k, v in enumerate(raw))


def _construct(make: Callable, field: str | None = None, entries: Iterable = ()):
    """make(), whose refusal names its cause: the first of entries, (field,
    raw) pairs scanned only then, that as_ratio refuses, by its own field;
    else the refusal itself, under field (as raised when field is None)."""
    try:
        return make()
    except InvalidInstanceError as exc:
        for where, raw in entries:
            _construct(lambda: as_ratio(raw), where)
        if field is None:
            raise
        _fail(field, str(exc))


def _index_lists(raw: list, field: str, what: str) -> list:
    """raw, once each of its entries is a list of ints (no bools)."""
    for k, entry in enumerate(raw):
        if not isinstance(entry, list) or any(
            isinstance(x, bool) or not isinstance(x, int) for x in entry
        ):
            _fail(f"{field}[{k}]", f"expected a list of {what} indices")
    return raw


def _parse_agent_valuation(doc: object, m: int, field: str) -> SubmodularValuation:
    if not isinstance(doc, dict):
        _fail(field, "expected an object")
    family = _field(doc, "family", str, field)
    if family == "explicit":
        if m >= sys.maxsize.bit_length():  # no list has 2^m entries; 2^m is not built
            _fail(f"{field}.table", f"expected 2^{m} entries for m={m}")
        table, entries = _value_list(doc.get("table"), 1 << m, f"{field}.table")
        return _construct(lambda: ExplicitTable(m, table), f"{field}.table", entries)
    if family == "coverage":
        weights, entries = _value_list(doc.get("weights"), None, f"{field}.weights")
        covers = doc.get("covers")
        if not isinstance(covers, list) or len(covers) != m:
            _fail(f"{field}.covers", f"expected a list of {m} cover sets")
        _index_lists(covers, f"{field}.covers", "element")
        return _construct(lambda: WeightedCoverage(m, weights, covers), field, entries)
    if family == "budget-additive":
        weights, entries = _value_list(doc.get("weights"), m, f"{field}.weights")
        cap = doc.get("cap")
        entries = chain(entries, [(f"{field}.cap", cap)])
        return _construct(lambda: BudgetAdditive(weights, cap), field, entries)
    _fail(f"{field}.family", f"unknown family {family!r}")


def parse_instance(text: str) -> AdditiveInstance | list[SubmodularValuation]:
    """Parse an instance file; additive kinds give an AdditiveInstance,
    submodular files a list of per-agent valuations over a shared ground set."""
    doc = _loads(text)
    _check_version(doc)
    kind = _field(doc, "kind", str)
    n = _field(doc, "n", int)
    m = _field(doc, "m", int)
    if n < 1:
        _fail("n", "need at least one agent")
    if m < 0:
        _fail("m", "good count cannot be negative")

    if kind in (KIND_ADDITIVE_GOODS, KIND_ADDITIVE_CHORES):
        raw = _field(doc, "values", list)
        if len(raw) != n:
            _fail("values", f"expected {n} rows, got {len(raw)}")
        model_kind = GOODS if kind == KIND_ADDITIVE_GOODS else CHORES
        rows, entries = zip(*[_value_list(row, m, f"values[{i}]") for i, row in enumerate(raw)])
        return _construct(lambda: AdditiveInstance(rows, kind=model_kind), None, chain(*entries))
    if kind == KIND_SUBMODULAR:
        raw = _field(doc, "agents", list)
        if len(raw) != n:
            _fail("agents", f"expected {n} agents, got {len(raw)}")
        return [
            _parse_agent_valuation(a, m, f"agents[{i}]") for i, a in enumerate(raw)
        ]
    _fail("kind", f"unknown kind {kind!r}")


def kind_of(instance: AdditiveInstance | Sequence[SubmodularValuation]) -> str:
    """The instance's file kind: KIND_ADDITIVE_GOODS, KIND_ADDITIVE_CHORES or KIND_SUBMODULAR."""
    if not isinstance(instance, AdditiveInstance):
        return KIND_SUBMODULAR
    return KIND_ADDITIVE_GOODS if instance.kind == GOODS else KIND_ADDITIVE_CHORES


def _serialize_agent_valuation(f: SubmodularValuation) -> dict:
    if isinstance(f, ExplicitTable):
        return {"family": "explicit", "table": [value_to_str(v) for v in f.table]}
    if isinstance(f, WeightedCoverage):
        return {
            "family": "coverage",
            "weights": [value_to_str(w) for w in f.weights],
            "covers": [list(cov) for cov in f.covers],
        }
    if isinstance(f, BudgetAdditive):
        return {
            "family": "budget-additive",
            "weights": [value_to_str(w) for w in f.weights],
            "cap": value_to_str(f.cap),
        }
    raise InvalidInstanceError(
        f"cannot serialize valuation of type {type(f).__name__}"
    )


def serialize_instance(
    instance: AdditiveInstance | Sequence[SubmodularValuation],
) -> str:
    """Serialize an instance to JSON text; inverse of parse_instance."""
    if isinstance(instance, AdditiveInstance):
        doc = {
            "kind": kind_of(instance),
            "n": instance.n,
            "m": instance.m,
            "values": [[value_to_str(v) for v in row] for row in instance.values],
        }
    else:
        agents = list(instance)
        n, m = shared_ground(agents)
        doc = {
            "kind": KIND_SUBMODULAR,
            "n": n,
            "m": m,
            "agents": [_serialize_agent_valuation(f) for f in agents],
        }
    return _dumps(doc)


def parse_allocation(text: str) -> Allocation:
    doc = _loads(text)
    _check_version(doc)
    m = _field(doc, "m", int)
    bundles = _index_lists(_field(doc, "bundles", list), "bundles", "good")
    return _construct(lambda: Allocation(bundles, m), "bundles")


def serialize_allocation(allocation: Allocation) -> str:
    return _dumps({"m": allocation.m, "bundles": allocation.as_lists()})


@dataclass(frozen=True)
class AgentReport:
    """One agent's line in a solution report.

    satisfied is True/False when the guarantee comparison was decidable
    (exact mu, or a certified lower bound that already convicts) and None
    when nothing can be concluded. ratio is value/mu, present only when mu
    is exact and nonzero.
    """

    agent: int
    value: Value
    mms: Value | None
    mms_source: str
    ratio: Value | None
    satisfied: bool | None


@dataclass(frozen=True)
class SolutionReport:
    """Allocation plus per-agent audit against the advertised bound."""

    kind: str
    guarantee: str
    allocation: Allocation
    agents: tuple[AgentReport, ...]

    @property
    def ok(self) -> bool:
        """True when no agent is a proven violation."""
        return all(a.satisfied is not False for a in self.agents)


def _guarantee_for(kind: str, n: int, delta: Value | None) -> tuple[str, Value | int, int]:
    """Return (description, value multiplier, mu multiplier) for the bound
    value * vmul >= mu * mmul, all quantities exact integers or rationals."""
    if kind == KIND_ADDITIVE_GOODS:
        return (f"value*(3n-1) >= 2n*mu, n={n}", 3 * n - 1, 2 * n)
    if kind == KIND_ADDITIVE_CHORES:
        return (f"value*3n >= (4n-1)*mu, n={n}", 3 * n, 4 * n - 1)
    if kind == KIND_SUBMODULAR:
        vmul = 10 * (1 + delta)
        return (f"value*10*(1+delta) >= mu, delta={delta}", vmul, 1)
    raise InvalidInstanceError(f"unknown kind {kind!r}")


def _mms_additive(
    instance: AdditiveInstance, agent: int, budget: int
) -> tuple[Value | None, str]:
    try:
        return mms_exact_additive(instance, agent, budget=budget, witness=False).value, MU_EXACT
    except BudgetExceededError:
        return None, MU_UNAVAILABLE


def _mms_submodular(f: SubmodularValuation, n: int, budget: int) -> tuple[Value, str]:
    try:
        return mms_exact_submodular(f, n, budget=budget, witness=False).value, MU_EXACT
    except BudgetExceededError:
        pass
    bound = mms_greedy_submodular(f, n)
    if bound == 0 and not detect_positive_mms(f, n):
        # some bundle holds no good of positive value, so mu <= 0 <= bound
        return bound, MU_EXACT
    return bound, MU_CERTIFIED


def build_report(
    instance: AdditiveInstance | Sequence[SubmodularValuation],
    allocation: Allocation,
    delta: Value | None = None,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> SolutionReport:
    """Audit an allocation against the guarantee that applies to the instance.

    The allocation must be complete, a partition of all m goods, as every
    solver returns; submodular agents must share one ground set. Values are
    recomputed from the allocation; nothing is trusted from the solver.
    Where the exact oracle is over budget, a submodular agent's mu is
    bounded below by the poorest bundle of the oracle's greedy start
    (mms_greedy_submodular; a violation against a lower bound is still a
    violation). That bound is reported as exact only when it is 0 and fewer
    than n goods have positive value (detect_positive_mms): some bundle then
    holds none, and a good adds at most max(0, its own value), so mu <= 0.
    A submodular value or mu below 0 (each the value of a bundle) shows f is
    not monotone, as f(empty) = 0, and the guarantee is stated for monotone
    f only: that agent's verdict is None. Additive agents report mu as
    unavailable. The submodular delta (default DEFAULT_DELTA, 1/20) must be
    positive, as in alg_sub.
    """
    kind = kind_of(instance)
    if kind == KIND_SUBMODULAR:
        agents_f = list(instance)
        n, m = shared_ground(agents_f)
        if delta is None:
            delta = DEFAULT_DELTA
        elif delta <= 0:
            raise InvalidInstanceError("delta must be positive")
    else:
        n, m = instance.n, instance.m
    if allocation.n != n or allocation.m != m:
        raise InvalidInstanceError("allocation shape does not match the instance")
    if not allocation.is_complete():
        raise InvalidInstanceError("allocation leaves goods unassigned")
    if kind == KIND_SUBMODULAR:
        values = [agents_f[i].evaluate(allocation.bundles[i]) for i in range(n)]
        mus = [_mms_submodular(agents_f[i], n, budget) for i in range(n)]
    else:
        values = [instance.value(i, allocation.bundles[i]) for i in range(n)]
        mus = [_mms_additive(instance, i, budget) for i in range(n)]

    text, vmul, mmul = _guarantee_for(kind, n, delta)
    rows = []
    for i in range(n):
        mu, source = mus[i]
        if mu is None:
            satisfied = None
            ratio = None
        else:
            holds = values[i] * vmul >= mu * mmul
            if source == MU_EXACT:
                satisfied = holds
                ratio = values[i] / mu if mu != 0 else None
            else:
                satisfied = None if holds else False
                ratio = None
            if kind == KIND_SUBMODULAR and min(values[i], mu) < 0:
                satisfied = None  # f is not monotone: no guarantee applies
        rows.append(
            AgentReport(
                agent=i,
                value=values[i],
                mms=mu,
                mms_source=source,
                ratio=ratio,
                satisfied=satisfied,
            )
        )
    return SolutionReport(
        kind=kind, guarantee=text, allocation=allocation, agents=tuple(rows)
    )


def _report_doc(report: SolutionReport) -> dict:
    """The report's fields with every value written once, for both forms."""
    return {
        "kind": report.kind,
        "guarantee": report.guarantee,
        "ok": report.ok,
        "bundles": report.allocation.as_lists(),
        "agents": [
            {
                "agent": a.agent,
                "value": value_to_str(a.value),
                "mms": None if a.mms is None else value_to_str(a.mms),
                "mms_source": a.mms_source,
                "ratio": None if a.ratio is None else value_to_str(a.ratio),
                "satisfied": a.satisfied,
            }
            for a in report.agents
        ],
    }


def report_to_json(report: SolutionReport) -> str:
    return _dumps(_report_doc(report))
