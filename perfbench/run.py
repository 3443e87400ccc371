"""Benchmark of the planram CLI: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; planram is loaded from ``src``.
Each operation is one CLI command in a fresh interpreter, run one after
another as a user would. A round is the workload's whole command list; a run
repeats rounds until ``--seconds`` have passed and reports medians over
rounds. Every output is checked by ``bench_checks`` (networkx, never
planram). The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (wall_s, peak_rss_mb,
setup_s). With ``--trace 1`` every command runs through ``tracing.py`` and
the metrics are the per-layer ones. See README.md for the workloads and what
each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import bench_checks as checks  # noqa: E402
import tracing  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # a run must end within 180 s
WORKERS = "2"


@dataclass
class Op:
    args: list[str]
    # check(output, facts) raises CheckFailed; its result is kept in facts
    check: Callable[[bytes, dict], object]
    fact: object = None


@dataclass
class Workload:
    modules: tuple[str, ...]  # what the commands import, for setup_s
    ops: Callable[[int], list[Op]]


def _c4free_ops(seed):
    return [Op(["enumerate", "--n", "8"],
               lambda out, facts: checks.check_c4free_classes(out.decode(), 8))]


def _tri_census_ops(seed):
    return [Op(["enumerate", "--mode", "triangulation", "--n", "11",
                "--format", "planar_code"],
               lambda out, facts: checks.check_triangulation_code(out, 11))]


def _tri_mindeg5_ops(seed):
    return [Op(["enumerate", "--mode", "triangulation", "--min-degree", "5",
                "--n", "14"],
               lambda out, facts: checks.check_min_degree5(out.decode(), 14))]


def _claims_ops(seed):
    """The fixed claim list; the seed picks the growth orders and the wheel
    in the degree-argument range, all of which verify at equal cost."""
    rng = random.Random(seed)
    ops = []
    for wheel in (3, 4, 5, 6, 7, 8, rng.randint(30, 45)):
        ops.append(Op(["verify", "pr-lower", "--wheel", str(wheel)],
                      lambda out, facts, w=wheel: checks.check_pr_lower(
                          out.decode(), w),
                      fact=("lower", wheel)))
    for wheel in (4, 6):
        ops.append(Op(["verify", "pr-upper", "--wheel", str(wheel),
                       "--host", "9"],
                      lambda out, facts, w=wheel: checks.check_pr_upper(
                          out.decode(), w, 9, facts.get(("lower", w)))))
    growth = (
        rng.randrange(11, 30),      # fig10, operations B and C
        rng.randrange(45, 64, 3),   # fig8b, operation A
        rng.randrange(49, 65, 3),   # fig8d, operation A
        rng.randrange(50, 63, 3),   # fig8e, operation A
    )
    for n in (8, 9) + growth:
        ops.append(Op(["verify", "delta", "--n", str(n)],
                      lambda out, facts, n=n: checks.check_delta(
                          out.decode(), n)))
    ops.append(Op(["verify", "lemmas", "--n", "7"],
                  lambda out, facts: checks.check_lemmas(out.decode())))
    for op in ops:
        if op.args[0] == "verify":
            op.args += ["--workers", WORKERS]
    return ops


ENUMERATE = ("planram.cli", "planram.enumeration")
WORKLOADS = {
    "c4free-enum": Workload(ENUMERATE, _c4free_ops),
    "tri-mindeg5": Workload(ENUMERATE, _tri_mindeg5_ops),
    "tri-census": Workload(ENUMERATE, _tri_census_ops),
    "claims": Workload(ENUMERATE + ("planram.ramsey",), _claims_ops),
}


# -- processes -----------------------------------------------------------------


def _env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PLANRAM_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, stdout, stderr, timeout):
    """Run argv to its end; returns (exit code, rusage of the reaped child).

    The rusage of the child includes every descendant it reaped, so a worker
    pool inside the program counts towards its CPU and peak memory.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(),
                                cwd=ROOT)
    watchdog = threading.Timer(max(timeout, 0.0), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


@dataclass
class Round:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    outputs: list = field(default_factory=list)  # bytes, or None if failed
    failed: int = 0
    layers: dict = field(default_factory=dict)  # span totals if traced


class Runner:
    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.ops = workload.ops(seed)
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.checked: dict = {}  # (op index, output digest) -> check result
        self.errors: list[str] = []

    def timed(self, argv, name):
        """Run argv; returns (exit code, rusage, wall seconds)."""
        t0 = time.perf_counter()
        code, usage = spawn(argv, self.work / f"{name}.out",
                            self.work / f"{name}.err",
                            self.deadline - time.monotonic())
        return code, usage, time.perf_counter() - t0

    def setup(self) -> list[float]:
        argv = [sys.executable, "-c",
                "import " + ", ".join(self.workload.modules)]
        samples = []
        for k in range(SETUP_SAMPLES + 1):  # the first one writes bytecode
            code, _, elapsed = self.timed(argv, "setup")
            if code:
                err = (self.work / "setup.err").read_text()
                raise SystemExit(f"planram does not import:\n{err}")
            if k:
                samples.append(elapsed)
        return samples

    def round(self, traced: bool) -> Round:
        r = Round()
        for i, op in enumerate(self.ops):
            if traced:
                argv = [sys.executable, str(BENCH / "tracing.py"),
                        str(self.work / f"{i}.spans"), *op.args]
            else:
                argv = [sys.executable, "-m", "planram.cli", *op.args]
            code, usage, elapsed = self.timed(argv, i)
            r.wall_s += elapsed
            r.cpu_s += usage.ru_utime + usage.ru_stime
            r.peak_rss_mb = max(r.peak_rss_mb, usage.ru_maxrss / 1024)
            if code:
                r.failed += 1
                err = (self.work / f"{i}.err").read_text()[-400:]
                self.errors.append(f"{' '.join(op.args)}: exit {code}\n{err}")
                r.outputs.append(None)
                continue
            r.outputs.append((self.work / f"{i}.out").read_bytes())
            if traced:
                for name, (calls, self_s, value) in tracing.load(
                        self.work / f"{i}.spans").items():
                    entry = r.layers.setdefault(name, [0, 0.0, 0])
                    entry[0] += calls
                    entry[1] += self_s
                    entry[2] += value
        return r

    def check(self, r: Round) -> bool:
        """Check every output of the round; outputs already checked in this
        run are not checked twice."""
        facts: dict = {}
        ok = True
        for i, (op, out) in enumerate(zip(self.ops, r.outputs)):
            if out is None:
                continue
            key = (i, hashlib.sha256(out).hexdigest())
            if key not in self.checked:
                try:
                    self.checked[key] = op.check(out, facts)
                except checks.CheckFailed as exc:
                    self.errors.append(f"{' '.join(op.args)}: {exc}")
                    ok = False
                    continue
            if op.fact is not None:
                facts[op.fact] = self.checked[key]
        return ok


# -- metrics -------------------------------------------------------------------

# span name -> per-layer metrics it yields
LAYER_SPANS = {
    "cli.main": ("self_s",),
    **{f"ramsey.{fn}": ("self_s",) for fn in tracing.TRACED["ramsey"]},
    "enumeration.enumerate_c4free_planar": ("calls", "self_s"),
    "enumeration.enumerate_triangulations": ("calls", "self_s"),
    "enumeration.is_maximal_c4free_planar": ("calls", "self_s"),
    "canon.marked_pair_form": ("calls", "self_s"),
    **{f"canon.canonical_form.by_{m}": ("calls", "self_s")
       for m in ("enumeration", "ramsey", "cli")},
    "planarity.is_planar": ("calls", "self_s", "reject_ratio"),
    "planarity.embed": ("calls", "self_s"),
    "graphs.adding_edge_creates_c4": ("calls", "self_s", "reject_ratio"),
    **{f"graphs.{fn}": ("calls", "self_s")
       for fn in ("contains_wheel", "cycle_of_length", "independence_number",
                  "connectivity")},
    **{f"construct.{fn}": ("calls", "self_s")
       for fn in tracing.TRACED["construct"]},
    "formats.to_graph6": ("calls", "self_s"),
    "formats.to_planar_code": ("self_s",),
}


def layer_metrics(layers: dict) -> dict:
    def get(name):
        return layers.get(name, (0, 0.0, 0))

    m = {}
    for name, kinds in LAYER_SPANS.items():
        calls, self_s, rejects = get(name)
        if "calls" in kinds:
            m[f"{name}.calls"] = calls
        if "self_s" in kinds:
            m[f"{name}.self_s"] = self_s
        if "reject_ratio" in kinds:
            m[f"{name}.reject_ratio"] = rejects / calls if calls else 0.0
    m["enumeration.nodes_visited"] = sum(
        get(f"enumeration.{fn}")[2]
        for fn in ("enumerate_c4free_planar", "enumerate_triangulations"))
    calls, validate_s, _ = get("graphs.Graph.__post_init__")
    m["graphs.Graph.constructed"] = calls
    m["graphs.Graph.validate_s"] = validate_s
    return m


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def median_metrics(dicts):
    """Per-metric median over rounds; counts stay integers."""
    out = {}
    for name in dicts[0]:
        values = [d[name] for d in dicts]
        value = statistics.median(values)
        if all(isinstance(v, int) for v in values) and value == int(value):
            value = int(value)
        out[name] = value
    return out


def run(workload_name, seed, seconds, trace):
    workload = WORKLOADS[workload_name]
    work = OUT / f"work-{workload_name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, seed, work)
        setup = [] if trace else runner.setup()
        rounds = []
        t0 = time.monotonic()
        while not rounds or time.monotonic() - t0 < seconds:
            rounds.append(runner.round(traced=bool(trace)))
        correct = all([runner.check(r) for r in rounds])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wall = statistics.median(r.wall_s for r in rounds)
    if trace:
        per_round = [layer_metrics(r.layers) for r in rounds]
        counts = [{k: v for k, v in m.items() if unit_of(k) == "count"}
                  for m in per_round]
        if any(c != counts[0] for c in counts):
            runner.errors.append("per-layer counts differ between rounds")
        metrics = median_metrics(per_round)
        metrics["proc.cpu_s"] = statistics.median(r.cpu_s for r in rounds)
        metrics["trace.wall_s"] = wall
    else:
        metrics = {
            "wall_s": wall,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
            "setup_s": statistics.median(setup),
        }
    return {
        "correct": correct,
        "attempted": len(runner.ops) * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }, runner.errors, len(rounds)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind so that the running command is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not (SRC / "planram" / "cli.py").is_file():
        print(f"no planram sources under {SRC}", file=sys.stderr)
        return 2
    result, errors, rounds = run(args.workload, args.seed, args.seconds,
                                 args.trace)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
          f"trace {args.trace}")
    for name, m in result["metrics"].items():
        print(f"  {name:50} {m['value']:>14.6g} {m['unit']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {str(result['correct']).lower()}")
    OUT.mkdir(exist_ok=True)
    line = json.dumps(result)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
