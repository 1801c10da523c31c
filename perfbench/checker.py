"""Independent checks of the CLI's JSON outputs, stdlib only.

Nothing here imports mmsfair: instances are re-read from the benchmark's own
JSON, values are recomputed exactly, and every check returns a list of
problems instead of raising, so one bad output never aborts a run.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import lcm

DELTA = Fraction(1, 20)  # the CLI's default --delta for submodular guarantees


def _split(raw: int | str) -> tuple[int, int]:
    if isinstance(raw, int):
        return raw, 1
    p, _, q = raw.partition("/")
    return int(p), int(q or 1)


class Instance:
    """The benchmark's own reading of an instance file."""

    def __init__(self, text: str):
        doc = json.loads(text)
        self.kind = doc["kind"]
        self.n = doc["n"]
        self.m = doc["m"]
        if self.kind == "submodular":
            self._agents = doc["agents"]
            return
        # each row as integer numerators over one common denominator
        self._rows = []
        for row in doc["values"]:
            pairs = [_split(v) for v in row]
            denom = lcm(*(q for _, q in pairs)) if pairs else 1
            self._rows.append(([p * (denom // q) for p, q in pairs], denom))

    def value(self, agent: int, bundle) -> Fraction:
        if self.kind != "submodular":
            nums, denom = self._rows[agent]
            return Fraction(sum(nums[g] for g in bundle), denom)
        spec = self._agents[agent]
        if spec["family"] == "coverage":
            covered = set()
            for g in bundle:
                covered.update(spec["covers"][g])
            return sum((Fraction(spec["weights"][e]) for e in covered), Fraction(0))
        if spec["family"] == "budget-additive":
            total = sum((Fraction(spec["weights"][g]) for g in bundle), Fraction(0))
            return min(Fraction(spec["cap"]), total)
        raise ValueError(f"no checker for family {spec['family']!r}")

    def share_cap(self, agent: int) -> Fraction:
        """An upper bound on the agent's maximin share: v(all)/n when additive;
        min(f(all), sum of singletons / n) for submodular f, which is
        monotone and subadditive."""
        everything = self.value(agent, range(self.m))
        if self.kind != "submodular":
            return everything / self.n
        singles = sum((self.value(agent, [g]) for g in range(self.m)), Fraction(0))
        return min(everything, singles / self.n)


def guarantee_holds(kind: str, n: int, value: Fraction, mu: Fraction) -> bool:
    """The paper's division-free inequality for each kind."""
    if kind == "additive-goods":
        return value * (3 * n - 1) >= 2 * n * mu
    if kind == "additive-chores":
        return value * 3 * n >= (4 * n - 1) * mu
    return value * 10 * (1 + DELTA) >= mu


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _partition_problems(inst: Instance, bundles, where: str) -> list[str]:
    if not isinstance(bundles, list) or len(bundles) != inst.n:
        return [f"{where}: expected {inst.n} bundles"]
    seen = [g for b in bundles for g in b]
    if sorted(seen) != list(range(inst.m)):
        return [f"{where}: not a partition of [0,{inst.m})"]
    return []


class Audit:
    """Tallies of the audit's verdicts across checked reports."""

    def __init__(self):
        self.agents = 0
        self.unproven = 0


def check_report(inst: Instance, doc: dict, rc: int, audit: Audit) -> list[str]:
    """A solve-* report: partition, values, verdicts, exit code."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    if doc.get("kind") != inst.kind:
        problems.append(f"kind {doc.get('kind')!r}, expected {inst.kind!r}")
        return problems
    bundles = doc.get("bundles")
    problems += _partition_problems(inst, bundles, "bundles")
    if problems:
        return problems
    rows = doc.get("agents", [])
    if [a.get("agent") for a in rows] != list(range(inst.n)):
        return problems + ["agents: expected one row per agent, in order"]
    violated = False
    for i, row in enumerate(rows):
        value = inst.value(i, bundles[i])
        if Fraction(row["value"]) != value:
            problems.append(f"agent {i}: value {row['value']}, recomputed {value}")
        mu = None if row["mms"] is None else Fraction(row["mms"])
        exact = row["mms_source"] == "exact"
        if mu is not None and mu > inst.share_cap(i):
            problems.append(f"agent {i}: share {mu} above the v(all)/n cap")
        satisfied = row["satisfied"]
        audit.agents += 1
        if satisfied is None:
            audit.unproven += 1
        elif satisfied is True:
            if not exact or not guarantee_holds(inst.kind, inst.n, value, mu):
                problems.append(f"agent {i}: 'true' without an exact share that holds")
        elif satisfied is False:
            violated = True
            if mu is None or guarantee_holds(inst.kind, inst.n, value, mu):
                problems.append(f"agent {i}: 'false' but the inequality holds")
        else:
            problems.append(f"agent {i}: satisfied {satisfied!r}")
        if row["ratio"] is not None and (
            not exact or mu == 0 or Fraction(row["ratio"]) != value / mu
        ):
            problems.append(f"agent {i}: ratio {row['ratio']} inconsistent")
    if doc.get("ok") is not (not violated):
        problems.append(f"ok {doc.get('ok')!r} disagrees with the agent verdicts")
    return problems


def check_mms_exact(inst: Instance, doc: dict, rc: int) -> list[str]:
    """mms-exact output: every witness is a partition reaching its share."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    rows = doc.get("agents", [])
    if [a.get("agent") for a in rows] != list(range(inst.n)):
        return problems + ["agents: expected one row per agent, in order"]
    for i, row in enumerate(rows):
        mu = Fraction(row["mms"])
        witness = row["witness"]
        where = f"agent {i} witness"
        bad = _partition_problems(inst, witness, where)
        if bad:
            problems += bad
            continue
        worst = min(inst.value(i, b) for b in witness)
        if worst != mu:
            problems.append(f"{where}: reaches {worst}, reported share {mu}")
        if mu > inst.share_cap(i):
            problems.append(f"agent {i}: share {mu} above the v(all)/n cap")
    return problems


def golden_digests(command: str, doc: dict) -> dict[str, str]:
    """Digests of the deterministic parts of one output. Verdicts and
    provenance (satisfied, mms_source, ok) are left out: they are checked
    for soundness only, so a stronger audit does not read as a mismatch."""
    if command == "mms-exact":
        rows = doc.get("agents", [])
        return {
            "mms": digest([r.get("mms") for r in rows]),
            "witness": digest([r.get("witness") for r in rows]),
        }
    return {"bundles": digest(doc.get("bundles"))}
