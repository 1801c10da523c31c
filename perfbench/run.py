"""Benchmark of the mmsfair CLI pipeline, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (stdlib only; src/ is imported as is). The
benchmark draws its workload's instance pool from --seed (workloads.py),
writes the files under .perfbench/, and starts one fresh worker process
(worker.py) that imports mmsfair.cli and calls mmsfair.cli.main(argv) on
them: one client, a closed loop, each operation after the previous one
ends. Every output is checked (checker.py); on the default seed the
deterministic outputs must also match the digests in goldens/.

The pool comes in blocks, each a balanced sample of the workload, and the
worker times whole blocks, stopping at the block boundary nearest to S
seconds at the reference speed (below): every run measures the same
balanced set of blocks whatever the host's speed, and takes about S
seconds or less.

--trace 0 times that loop and prints the end-to-end metrics:
instances_per_s (instances completed and checked correct per second of
their CLI calls), instance_p50_ms and instance_tail_ms (the highest
percentile with at least ten samples beyond it) of one instance's CLI
calls, and setup_s (median over several spawns of spawn-to-imported time;
one untimed spawn first fills the bytecode cache). These times are scaled
to a reference host speed (REFERENCE_S in worker.py): the host's speed
drifts by tens of percent within seconds, and a fixed loop timed next to
each instance and each spawn follows that drift. The failed share of
operations is the result's failed / attempted; it, the worker's peak RSS, the raw
loop wall time and the reference loop's median time go in the run record,
the JSON line printed before the result.

--trace 1 runs the first TRACE_BLOCKS blocks untraced, then again with
tracer.py's wrappers installed, and prints the per-layer metrics: self
times, call counts and counters of each module, self time per layer, the
traced wall time against the untraced one, and the untraced pass's peak
RSS. Counters and RSS repeat exactly for a seed.

The layer each workload stresses, and what a change there should move, is
stated in the workloads' "why" in BENCHMARK.json.

Also: --size smoke (tiny shapes, for test_run.py) and --write-goldens
(refresh goldens/ from a full pass over the default seed's pool).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checker import (  # noqa: E402
    Audit, Instance, check_mms_exact, check_report, digest, golden_digests,
)
from tracer import LAYERS  # noqa: E402
from worker import REFERENCE_S, reference_s  # noqa: E402
from workloads import BLOCK, WORKLOADS, build_pool  # noqa: E402

DEFAULT_SEED = 0
SETUP_SPAWNS = 15
DEADLINE_S = 170  # every run ends well inside the 180 s a run may take

# Blocks a traced run covers: 14-22 s untraced on a 2-core x86 VM, so that
# with the traced pass a run takes 30-50 s. A fixed count makes the counters
# repeat exactly.
TRACE_BLOCKS = {"additive-large": 2, "audit-exact": 8, "submodular": 2}

END_TO_END_UNITS = {
    "instances_per_s": "1/s",
    "instance_p50_ms": "ms",
    "instance_tail_ms": "ms",
    "setup_s": "s",
}


class RunError(Exception):
    """The run itself could not be carried out."""


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"  # the same str-hash layout in every run
    return env


def _spawn(args: list[str], deadline: float) -> tuple[float, subprocess.Popen]:
    """Start a worker and wait for its ready line; return (setup seconds at
    the reference speed, process)."""
    before = _reference()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_worker_env(),
        cwd=str(ROOT),
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != b"ready":
        _finish(proc, deadline)
        raise RunError(f"worker did not start: {line!r}")
    return setup * REFERENCE_S / ((before + _reference()) / 2), proc


def _reference() -> float:
    return min(reference_s() for _ in range(3))


def _scaled_latencies(result: dict) -> list[float]:
    """Each instance's latency at the reference speed, scaled by the median
    of the reference times taken around it in the worker."""
    refs = result["references_s"]
    return [
        sum(op["s"] for op in record["ops"])
        * REFERENCE_S / statistics.median(refs[max(0, i - 2):i + 4])
        for i, record in enumerate(result["instances"])
    ]


def _finish(proc: subprocess.Popen, deadline: float) -> bytes:
    """Wait for a worker to end (killing it at the deadline); return its stderr."""
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker passed the run deadline")
    return err


def _probe(deadline: float) -> float:
    setup, proc = _spawn(["--probe"], deadline)
    _finish(proc, deadline)
    if proc.returncode != 0:
        raise RunError(f"probe worker exited with {proc.returncode}")
    return setup


def _run_worker(plan: dict, work: Path, deadline: float) -> tuple[float, dict]:
    path = work / f"plan-{plan['name']}.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    setup, proc = _spawn([str(path)], deadline)
    err = _finish(proc, deadline)
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}: {err.decode()[-2000:]}")
    return setup, json.loads(Path(plan["results"]).read_text(encoding="utf-8"))


def _write_cases(pool, work: Path) -> list[list[list[str]]]:
    """Write each case's instance file; return each case's CLI argument vectors."""
    case_dir = work / "cases"
    case_dir.mkdir()
    plans = []
    for case in pool:
        path = case_dir / f"{case.name}.json"
        path.write_text(case.instance, encoding="utf-8")
        plans.append([
            [command, "--input", str(path), "--format", "json", "--output", "{out}"]
            for command in case.commands
        ])
    return plans


class Checked:
    """Outcome of checking every operation of one worker pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.latencies: list[float] = []
        self.correct_instances = 0
        self.audit = Audit()
        self.digests: dict[str, dict] = {}


def _check_pass(pool, result: dict, goldens: dict | None, parsed: dict) -> Checked:
    out = Checked()
    out.latencies = _scaled_latencies(result)
    for record in result["instances"]:
        case = pool[record["case"]]
        if case.name not in parsed:
            parsed[case.name] = Instance(case.instance)
        inst = parsed[case.name]
        golden = None if goldens is None else goldens["cases"].get(case.name, {})
        stale = golden is not None and golden.get("instance") != digest(case.instance)
        exact_mms: dict[int, str] = {}
        op_digests = []
        instance_ok = True
        for k, op in enumerate(record["ops"]):
            command = case.commands[k]
            problems, doc = _check_op(inst, command, op, exact_mms, out.audit)
            if not problems:
                op_digests.append(golden_digests(command, doc))
                if stale:
                    problems = ["instance differs from the one its golden digests came from"]
                elif golden is not None and golden["ops"][k] != op_digests[-1]:
                    problems = ["output differs from its golden digest"]
            out.attempted += 1
            if problems:
                out.failed += 1
                instance_ok = False
                out.problems += [f"{case.name} {command}: {p}" for p in problems]
        if instance_ok:
            out.correct_instances += 1
            out.digests[case.name] = {"instance": digest(case.instance), "ops": op_digests}
    return out


def _check_op(inst, command, op, exact_mms, audit) -> tuple[list[str], dict]:
    """Problems with one operation's output, and the output itself."""
    if op["error"] is not None:
        return [op["error"]], {}
    try:
        doc = json.loads(Path(op["out"]).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"exit code {op['rc']}, unreadable output: {exc}"], {}
    try:
        if command == "mms-exact":
            problems = check_mms_exact(inst, doc, op["rc"])
            for i, row in enumerate(doc["agents"]):
                if i in exact_mms and Fraction(exact_mms[i]) != Fraction(row["mms"]):
                    problems.append(f"agent {i}: share differs from the solve report's")
        else:
            problems = check_report(inst, doc, op["rc"], audit)
            for row in doc["agents"]:
                if row["mms_source"] == "exact":
                    exact_mms[row["agent"]] = row["mms"]
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        problems = [f"malformed output: {type(exc).__name__}: {exc}"]
    return problems, doc


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, or the largest sample, with none beyond,
    when there are not eleven samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - 11 if n > 10 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _trace_metrics(
    summary: dict, traced_wall: float, untraced_wall: float, untraced_rss_kb: int
) -> dict:
    self_s, calls, count = summary["self_s"], summary["calls"], summary["count"]

    def s(name):
        return _metric(self_s.get(name, 0.0), "s")

    def c(name, source=calls):
        return _metric(source.get(name, 0), "count")

    def ratio(num, den, unit="ratio"):
        return _metric(num / den if den else 0.0, unit)

    agents = count.get("io.build_report.agents", 0)
    probes = calls.get("oracles.threshold_probe", 0)
    queries = calls.get("submodular.valuations", 0)
    alg_calls = calls.get("submodular.alg_sub", 0)
    metrics = {
        "cli.main.self_s": s("cli.main"),
        "cli.main.calls": c("cli.main"),
        "io.parse_instance.s": s("io.parse_instance"),
        "io.parse_instance.bytes": _metric(count.get("io.parse_instance.bytes", 0), "bytes"),
        "io.build_report.self_s": s("io.build_report"),
        "io.build_report.unproven_ratio": ratio(count.get("io.build_report.unproven", 0), agents),
        "io.report_to_json.s": s("io.report_to_json"),
        "model.value.calls": c("model.value"),
        "model.value.s": s("model.value"),
        "model.Allocation.calls": c("model.Allocation"),
        "ordering.to_ordered.s": s("ordering.to_ordered"),
        "ordering.lift_allocation.s": s("ordering.lift_allocation"),
        "envy_graph.envy_graph_allocate.s": s("envy_graph.envy_graph_allocate"),
        "envy_graph.build_envy_graph.s": s("envy_graph.build_envy_graph"),
        "envy_graph.build_envy_graph.calls": c("envy_graph.build_envy_graph"),
        "envy_graph.items": c("envy_graph.items", count),
        "envy_graph.rotations": c("envy_graph.rotations", count),
        "envy_graph.longest_cycle": c("envy_graph.longest_cycle", count),
        "chores.chores_envy_graph_allocate.s": s("chores.chores_envy_graph_allocate"),
        "chores.rotations": c("chores.rotations", count),
    }
    for oracle in ("mms_exact_additive", "mms_exact_submodular"):
        name = f"oracles.{oracle}"
        metrics[f"{name}.s"] = s(name)
        metrics[f"{name}.calls"] = c(name)
        metrics[f"{name}.refused"] = c(f"{name}.refused", count)
    metrics.update({
        "oracles.mms_approx_submodular.s": s("oracles.mms_approx_submodular"),
        "oracles.threshold_probe.calls": c("oracles.threshold_probe"),
        "oracles.threshold_probe.accept_ratio": ratio(
            count.get("oracles.threshold_probe.accepts", 0), probes
        ),
        "oracles.exact_ratio": ratio(count.get("oracles.exact", 0), agents),
        "submodular.alg_sub.s": s("submodular.alg_sub"),
        "submodular.alg_sub.iterations": ratio(  # mean per call
            count.get("submodular.alg_sub.iterations", 0), alg_calls, "count"
        ),
        "submodular.round_robin.s": s("submodular.round_robin"),
        "submodular.round_robin.calls": c("submodular.round_robin"),
        "submodular.valuations.s": s("submodular.valuations"),
        "submodular.valuations.queries": c("submodular.valuations"),
        "submodular.valuations.distinct": c("submodular.valuations.distinct", count),
        "submodular.valuations.hit_ratio": ratio(
            queries - count.get("submodular.valuations.distinct", 0), queries
        ),
    })
    layers: dict[str, float] = {}
    for name, seconds in self_s.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = _metric(layers.get(layer, 0.0), "s")
    metrics["process.peak_rss_mb"] = _metric(untraced_rss_kb / 1024, "MB")
    metrics["trace.overhead_ratio"] = _metric(traced_wall / untraced_wall, "ratio")
    metrics["trace.accounted_ratio"] = _metric(sum(layers.values()) / traced_wall, "ratio")
    return metrics


def _commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:  # no git on the machine
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )


def _goldens_path(workload: str) -> Path:
    return HERE / "goldens" / f"{workload}.json"


def _goldens_text(seed: int, digests: dict) -> str:
    """The goldens as JSON, one case a line."""
    cases = ",\n".join(
        f"  {json.dumps(name)}: {json.dumps(entry, sort_keys=True)}"
        for name, entry in sorted(digests.items())
    )
    return f'{{"seed": {seed}, "cases": {{\n{cases}\n}}}}\n'


def run(args) -> tuple[dict, dict]:
    """Carry out one run; return (result line, run record)."""
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)

    _probe(deadline)  # untimed: compiles the bytecode cache once
    setups = [] if args.trace else [_probe(deadline) for _ in range(SETUP_SPAWNS)]

    pool = build_pool(args.workload, args.seed, args.size)
    cases = _write_cases(pool, work)
    goldens = None
    if args.seed == DEFAULT_SEED and args.size == "full" and not args.write_goldens:
        goldens = json.loads(_goldens_path(args.workload).read_text(encoding="utf-8"))

    def plan(name, seconds, blocks, trace):
        out_dir = work / "out" / name
        out_dir.mkdir()
        return {
            "name": name, "cases": cases, "block": BLOCK[args.workload],
            "seconds": seconds, "blocks": blocks,
            "trace": trace, "out_dir": str(out_dir),
            "results": str(work / f"results-{name}.json"), "spans": str(work / "spans.jsonl"),
        }

    if args.write_goldens:
        seconds, blocks = None, len(pool) // BLOCK[args.workload]
    elif args.trace:
        seconds, blocks = None, TRACE_BLOCKS[args.workload]
    else:
        seconds, blocks = args.seconds, None
    setup, plain = _run_worker(plan("untraced", seconds, blocks, False), work, deadline)
    setups.append(setup)
    parsed: dict = {}
    checked = _check_pass(pool, plain, goldens, parsed)
    checks = [checked]
    traced = None
    if args.trace:
        _, traced = _run_worker(plan("traced", None, blocks, True), work, deadline)
        checks.append(_check_pass(pool, traced, goldens, parsed))

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    tail, tail_pct, beyond = _tail(checked.latencies)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_lines": _src_lines(),
        "pool_cases": len(pool),
        "blocks": plain["blocks"],
        "instances": len(checked.latencies),
        "operations": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 0.0,
        "unproven_ratio": checked.audit.unproven / max(1, checked.audit.agents),
        "goldens": "checked" if goldens is not None else "none for this seed",
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "setup_samples_s": setups,
        "loop_wall_s": plain["wall_s"],
        "reference_median_s": statistics.median(plain["references_s"]),
        "peak_rss_mb": plain["max_rss_kb"] / 1024,
        "problems": [p for c in checks for p in c.problems][:20],
    }
    if args.trace:
        metrics = _trace_metrics(
            traced["trace"], traced["wall_s"], plain["wall_s"], plain["max_rss_kb"]
        )
        layer_s = {k: v["value"] for k, v in metrics.items() if k.startswith("layer.")}
        total = sum(layer_s.values())
        record["layer_share"] = {k[6:-7]: round(v / total, 4) for k, v in layer_s.items()}
        record["traced_wall_s"] = traced["wall_s"]
        (work / "trace-summary.json").write_text(json.dumps(traced["trace"], indent=1))
    else:
        metrics = {
            "instances_per_s": checked.correct_instances / sum(checked.latencies),
            "instance_p50_ms": statistics.median(checked.latencies) * 1000,
            "instance_tail_ms": tail * 1000,
            "setup_s": statistics.median(setups),
        }
        metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    if args.write_goldens:
        if failed:
            raise RunError("refusing to write goldens from failing outputs")
        path = _goldens_path(args.workload)
        path.parent.mkdir(exist_ok=True)
        path.write_text(_goldens_text(args.seed, checked.digests), encoding="utf-8")
    (work / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for bulky in ("out", "cases"):
        shutil.rmtree(work / bulky, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "mmsfair" / "cli.py").is_file():
        print(f"error: no mmsfair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, record = run(args)
    except (RunError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
