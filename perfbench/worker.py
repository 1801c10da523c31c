"""One benchmark worker: import the CLI, then run planned operations in a closed loop.

    python3 perfbench/worker.py --probe      import mmsfair.cli, say ready, exit
    python3 perfbench/worker.py PLAN.json    ... then run the plan

The parent puts src/ on PYTHONPATH and times from spawn until the "ready"
line. A plan lists cases, each a list of CLI argument vectors whose
"{out}" is replaced by a fresh output path. The cases come in blocks of
the plan's block size, each block a balanced sample of the workload; the
worker runs whole blocks in order, one operation after another (cycling
when it runs out), and stops after the plan's number of blocks or at the
block boundary nearest to the plan's seconds of operations at the reference
speed (see REFERENCE_S). Before each instance, and after the last, it times
reference_s(), whose time is left out of the loop's wall time. The results
go to the file the plan names.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from fractions import Fraction

# Times are counted at a reference host speed: multiplied by REFERENCE_S
# over the time reference_s() took next to them. REFERENCE_S is that loop's
# time on a 2-core x86 VM (Python 3.11) in its slower and more common state,
# so scaled times read close to raw ones there and never far above them.
REFERENCE_S = 0.006


def reference_s() -> float:
    """Seconds a fixed pure-Python loop (Fraction and dict work, the kind the
    solvers do) takes, with the collector off so that the program's heap does
    not change it. The host's speed drifts by tens of percent over seconds;
    this loop, run next to each operation, tracks it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        total, seen = Fraction(0), {}
        for i in range(1, 1500):
            total += Fraction(i % 97, 7 + i % 5)
            seen[i & 63] = total
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run(plan: dict) -> dict:
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import mmsfair.cli

    main = mmsfair.cli.main  # after install(), so it is the traced one
    cases, block = plan["cases"], plan["block"]
    records = []
    references = []  # reference_s() before each instance, and after the last
    blocks = 0
    scaled = 0.0  # seconds of operations at the reference speed
    start = time.perf_counter()
    while blocks != plan["blocks"]:
        block_scaled = 0.0
        for j in range(block):
            index = (blocks * block + j) % len(cases)
            references.append(reference_s())
            ops = []
            for k, argv in enumerate(cases[index]):
                op = f"{len(records)}-{k}"
                out = f"{plan['out_dir']}/{op}.json"
                argv = [out if a == "{out}" else a for a in argv]
                if tracer is not None:
                    tracer.op = op
                error = None
                t0 = time.perf_counter()
                try:
                    rc = main(argv)
                except SystemExit as exc:  # argparse rejects a command line
                    rc, error = exc.code, f"SystemExit({exc.code})"
                except Exception as exc:  # a crash fails the operation, not the run
                    rc, error = None, f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end_op()
                ops.append({"out": out, "rc": rc, "s": elapsed, "error": error})
            records.append({"case": index, "ops": ops})
            block_scaled += (
                sum(op["s"] for op in ops) * REFERENCE_S / statistics.median(references[-5:])
            )
        blocks += 1
        scaled += block_scaled
        # stop at the block boundary nearest to the time limit; counted at
        # the reference speed, every seed's run covers the same blocks
        if plan["seconds"] is not None and scaled + block_scaled / 2 >= plan["seconds"]:
            break
    wall = time.perf_counter() - start - sum(references)
    references.append(reference_s())
    result = {
        "wall_s": wall,
        "references_s": references,
        "blocks": blocks,
        "instances": records,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.write_spans(plan["spans"])
        result["trace"] = tracer.summary()
    return result


if __name__ == "__main__":
    import mmsfair.cli  # noqa: F401  the import every CLI invocation pays

    print("ready", flush=True)
    if sys.argv[1:] != ["--probe"]:
        with open(sys.argv[1], encoding="utf-8") as fh:
            plan = json.load(fh)
        result = run(plan)
        with open(plan["results"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
