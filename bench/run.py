"""Benchmark of the infomarket CLI: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 bench/run.py --workload shipped --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from the seed into a scratch directory
inside the checkout before anything is timed. Each op is one fresh CLI
process (``python -m infomarket.cli SUB --scenario F --out D`` with
``PYTHONPATH=src``), started only after the previous one exits: a closed
loop with a single client. One untimed warm-up op compiles the bytecode
first. Passes over the workload's ops repeat until ``--seconds`` have
passed; every op's CSV is checked, and an op that exits non-zero, writes to
stderr or fails its check counts as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. With
``--trace 1`` each op runs untraced and then through ``shim.py``; the run
reports the per-layer metrics, medians over the traced passes, and the
tracing overhead. The last line of stdout is the JSON result; the lines
before it repeat the metrics for people and record the input descriptors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass

import check
import gen

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SHIM = os.path.join(BENCH, "shim.py")
GOLDEN = os.path.join(BENCH, "golden.json")
GOLDEN_SEED = 0
SETUP_SAMPLES = 7  # -X importtime samples in a traced run
SETUP_PER_PASS = 2  # set-up samples after each pass of an untraced run
IMPORT = ["-c", "import infomarket.cli"]
SUBCOMMANDS = ("equilibrium", "match", "game", "vote-fptp", "vote-meek",
               "dynamics", "sweep", "path")


@dataclass(frozen=True)
class Op:
    """One CLI run; it writes ``<out>/<name>_<sub>.csv``."""

    name: str
    sub: str
    scenario: str
    size: int = 0  # the scaled size (rounds, horizon) for ops run at 1x and 2x

    @property
    def label(self) -> str:
        return f"{self.name}_{self.sub}"


# Each workload writes its inputs into a directory and returns its ops, one
# pass in order, and the descriptors of the inputs.

def shipped(work_dir: str, seed: int):
    """The repo's own scenarios: start-up, parse and CSV write, tiny kernels."""
    scenario_dir = os.path.join(ROOT, "scenarios")
    ops = []
    for file in sorted(os.listdir(scenario_dir)):
        if file.endswith(".scn"):
            path = os.path.join(scenario_dir, file)
            name = check.read_scenario(path)[""]["name"]
            ops += [Op(name, sub, path) for sub in SUBCOMMANDS]
    return ops, {"scenarios": len(ops) // len(SUBCOMMANDS)}


def election(work_dir: str, seed: int):
    """The Meek count at both ends of prefix sharing, plus plurality tallies."""
    rng = random.Random(f"election-{seed}")
    info = {
        "party": gen.write_election(work_dir, "party", gen.party_election(rng, 20000, 12, 4), 4),
        "spread": gen.write_election(
            work_dir, "spread", gen.spread_election(rng, 6000, 20, 200), 6),
    }
    ops = [Op(name, sub, os.path.join(work_dir, f"{name}.scn"))
           for name in info for sub in ("vote-fptp", "vote-meek")]
    return ops, info


def long_horizon(work_dir: str, seed: int):
    """Game and dynamics at 1x and 2x size, so super-linear cost shows as a ratio."""
    rng = random.Random(f"long_horizon-{seed}")
    ops, info = [], {}
    for rounds in (3000, 6000):
        name = f"game{rounds}"
        info[name] = gen.write_game(work_dir, name, rng, rounds)
        ops.append(Op(name, "game", os.path.join(work_dir, f"{name}.scn"), rounds))
    for horizon in (1500, 3000):
        name = f"dynamics{horizon}"
        info[name] = gen.write_dynamics(work_dir, name, rng, horizon)
        ops.append(Op(name, "dynamics", os.path.join(work_dir, f"{name}.scn"), horizon))
    return ops, info


def large_market(work_dir: str, seed: int):
    """Big scenario parse, deferred acceptance, a long sweep and Dijkstra."""
    rng = random.Random(f"large_market-{seed}")
    info = {
        "profile": gen.write_matching(work_dir, "profile", rng, 600),
        "market": gen.write_market(work_dir, "market", rng, grid_points=5000,
                                   layers=100, width=200, fanout=4),
    }
    ops = [Op("profile", "match", os.path.join(work_dir, "profile.scn"))]
    ops += [Op("market", sub, os.path.join(work_dir, "market.scn"))
            for sub in ("equilibrium", "sweep", "path")]
    return ops, info


WORKLOADS = {
    "shipped": shipped,
    "election": election,
    "long_horizon": long_horizon,
    "large_market": large_market,
}


@dataclass
class OpRun:
    op: Op
    wall: float
    cpu: float
    rss_kb: int
    traced: bool
    error: str | None = None
    csv: bytes = b""
    trace: dict | None = None


def spawn(argv: list[str], err_path: str, env: dict):
    """Run one process to completion; return its exit code, wall time and rusage."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage


class Runner:
    """Runs and checks the ops of one workload inside a scratch directory."""

    def __init__(self, work_dir: str, golden: dict | None):
        self.work_dir = work_dir
        self.out_dirs = {False: os.path.join(work_dir, "out"),
                         True: os.path.join(work_dir, "out-traced")}
        self.err_path = os.path.join(work_dir, "stderr.txt")
        self.golden = golden  # label -> sha256 of the CSV, when the seed has one
        self.checked: dict[tuple[str, str], str | None] = {}
        # Bytecode is written so that only the warm-up op compiles, as after an
        # install; program logging stays off because stderr output fails an op.
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("INFOMARKET_LOG", "PYTHONDONTWRITEBYTECODE")}
        self.env["PYTHONPATH"] = SRC
        # The CLI never calls BLAS; numpy's idle BLAS threads would only add a
        # variable amount of CPU time on the other cores to every op.
        self.env["OPENBLAS_NUM_THREADS"] = "1"

    def run(self, op: Op, traced: bool = False) -> OpRun:
        """Run one op; read and check its output later, outside the timed pass."""
        cli_args = [op.sub, "--scenario", op.scenario, "--out", self.out_dirs[traced]]
        if traced:
            argv = [sys.executable, SHIM, self.trace_path(op), op.label, *cli_args]
        else:
            argv = [sys.executable, "-m", "infomarket.cli", *cli_args]
        code, wall, usage = spawn(argv, self.err_path, self.env)
        run = OpRun(op, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, traced)
        with open(self.err_path, "rb") as f:
            stderr = f.read()
        if code != 0 or stderr:
            run.error = f"exit {code}: {stderr.decode(errors='replace').strip()[:200]}"
        return run

    def finish(self, run: OpRun) -> None:
        """Read the op's CSV (and trace) and record whether it failed its checks."""
        if run.error:
            return
        with open(self.csv_path(run.op, run.traced), "rb") as f:
            run.csv = f.read()
        run.error = self.verify(run.op, run.csv)
        if run.traced:
            with open(self.trace_path(run.op), encoding="utf-8") as f:
                run.trace = json.load(f)

    def csv_path(self, op: Op, traced: bool = False) -> str:
        return os.path.join(self.out_dirs[traced], f"{op.label}.csv")

    def trace_path(self, op: Op) -> str:
        return os.path.join(self.work_dir, f"{op.label}.trace.json")

    def verify(self, op: Op, data: bytes) -> str | None:
        """None if the CSV is right: golden bytes where known, and the op's own check."""
        digest = hashlib.sha256(data).hexdigest()
        if self.golden is not None and self.golden.get(op.label) != digest:
            return "CSV bytes differ from golden.json"
        key = (op.label, digest)
        if key not in self.checked:
            try:
                check.check_csv(op.sub, op.scenario, data)
                self.checked[key] = None
            except check.CheckFailed as exc:
                self.checked[key] = f"check failed: {exc}"
        return self.checked[key]

    def timed(self, argv_tail: list[str]) -> tuple[float, str]:
        code, wall, _ = spawn([sys.executable, *argv_tail], self.err_path, self.env)
        with open(self.err_path, encoding="utf-8", errors="replace") as f:
            err = f.read()
        if code != 0:
            raise RuntimeError(f"{argv_tail} exited {code}: {err[:200]}")
        return wall, err


def load_golden(workload: str, seed: int) -> dict | None:
    with open(GOLDEN, encoding="utf-8") as f:
        golden = json.load(f)
    if workload == "shipped" or seed == golden["seed"]:
        return golden["sha256"][workload]
    return None


def importtime(err: str) -> tuple[float, float]:
    """(infomarket import, numpy import) seconds from ``-X importtime`` output."""
    package = numpy = 0.0
    for line in err.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if name.strip() == "numpy" and not numpy:
            numpy = int(cumulative) / 1e6
        if name.startswith(" infomarket"):  # one space: imported at top level
            package += int(cumulative) / 1e6
    return package, numpy


def layer_values(runs: list[OpRun]) -> dict[str, float]:
    """Per-layer totals of one traced pass; every time is a self time."""
    v: dict[str, float] = defaultdict(float)
    scaled: dict[tuple[str, int], float] = {}
    for run in runs:
        trace = run.trace
        for span in trace["spans"]:
            duration = span["end"] - span["start"]
            if span["name"] == "cli.main":
                v["cli.main_s"] += duration
                v["cli.self_s"] += span["self"]
                v["process.overhead_s"] += run.wall - duration
            else:
                v[span["name"] + "_s"] += span["self"]
            if span["name"] == "game.run_tournament":
                v["game.tournament_inclusive_s"] += duration
                scaled[("game", run.op.size)] = duration
        for name, (calls, _total, self_s) in trace["aggregates"].items():
            v[name + "_calls"] += calls
            v[name + "_s"] += self_s
        if run.op.sub == "dynamics":
            scaled[("dynamics", run.op.size)] = sum(
                a[2] for name, a in trace["aggregates"].items() if name.startswith("dynamics."))
        for name, count in trace["counts"].items():
            v[name] += count
        rows = list(csv.reader(io.StringIO(run.csv.decode("utf-8"))))[1:]
        v["cli.rows"] += len(rows)
        v["cli.csv_bytes"] += len(run.csv)
        v["scenario.bytes"] += os.path.getsize(run.op.scenario)
        if run.op.sub == "match":
            v["matching.proposals"] += sum(int(row[2]) for row in rows)
    v["scenario.mb_per_s"] = v["scenario.bytes"] / 1e6 / v["scenario.load_s"]
    if v["game.match_rounds"]:
        v["game.rounds_per_s"] = v["game.match_rounds"] / v["game.tournament_inclusive_s"]
    for layer in ("game", "dynamics"):
        sizes = sorted(size for lay, size in scaled if lay == layer and size)
        if len(sizes) == 2 and sizes[1] == 2 * sizes[0]:
            v[f"{layer}.scaling_ratio"] = scaled[(layer, sizes[1])] / scaled[(layer, sizes[0])]
    return v


def pass_wall(runs: list[OpRun]) -> float:
    return sum(run.wall for run in runs)


def end_to_end(passes: list[list[OpRun]], setup_walls: list[float]) -> dict:
    runs = [run for p in passes for run in p]
    per_op = defaultdict(list)
    for run in runs:
        per_op[run.op.label].append(run.wall)
    return {
        "wall_s": statistics.median(pass_wall(p) for p in passes),
        "cpu_s": statistics.median(sum(run.cpu for run in p) for p in passes),
        "op_p50_s": statistics.median(statistics.median(w) for w in per_op.values()),
        "peak_rss_mb": max(run.rss_kb for run in runs) / 1024,
        "setup_s": statistics.median(setup_walls),
    }


def per_layer(runner: Runner, passes: dict) -> dict:
    """Medians over the traced passes; the untraced ones give the tracing overhead."""
    per_pass = [layer_values(runs) for runs in passes[True]]
    metrics = {name: statistics.median(values[name] for values in per_pass)
               for name in per_pass[0]}
    samples = [importtime(runner.timed(["-X", "importtime", *IMPORT])[1])
               for _ in range(SETUP_SAMPLES)]
    metrics["setup.import_s"] = statistics.median(s[0] for s in samples)
    metrics["setup.import_numpy_s"] = statistics.median(s[1] for s in samples)
    # Each op ran untraced and then traced, so the pair saw the same machine
    # state and the difference cancels most of the machine's drift.
    metrics["trace.overhead_s"] = statistics.median(
        pass_wall(traced) - pass_wall(untraced)
        for untraced, traced in zip(passes[False], passes[True]))
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        wanted = json.load(f)["per_layer" if trace else "end_to_end"]
    ops, inputs = WORKLOADS[workload](work_dir, seed)
    runner = Runner(work_dir, load_golden(workload, seed))
    runner.run(ops[0])  # warm-up: bytecode compilation is not counted

    # A pass runs each op once; with tracing, each op runs untraced and then
    # traced, making one untraced and one traced pass.
    kinds = (False, True) if trace else (False,)
    passes: dict[bool, list[list[OpRun]]] = {False: [], True: []}
    setup_walls: list[float] = []
    start = time.perf_counter()
    while not passes[False] or time.perf_counter() - start < seconds:
        runs = [runner.run(op, traced) for op in ops for traced in kinds]
        for run in runs:
            runner.finish(run)
        for traced in kinds:
            passes[traced].append([run for run in runs if run.traced == traced])
        if not trace:
            # Set-up samples spread over the run see the machine states the ops see.
            setup_walls += [runner.timed(IMPORT)[0] for _ in range(SETUP_PER_PASS)]

    all_runs = [run for p in passes[False] + passes[True] for run in p]
    failures = [run for run in all_runs if run.error]
    if not trace:
        metrics = end_to_end(passes[False], setup_walls)
    elif not failures:
        metrics = per_layer(runner, passes)
    else:
        metrics = {}  # a failed op has no trace; the result is already incorrect

    print(f"workload {workload}, seed {seed}: {len(passes[False])} untraced and "
          f"{len(passes[True])} traced passes of {len(ops)} ops")
    print("inputs " + json.dumps(inputs, sort_keys=True))
    for run in failures[:10]:
        print(f"FAILED {run.op.label}: {run.error}")
    print(f"  {'op_fail_ratio':38s} {len(failures) / len(all_runs):.6g} "
          f"({len(failures)}/{len(all_runs)})")
    # A layer that the workload does not run reports 0.
    values = {m["name"]: metrics.get(m["name"], 0.0) for m in wanted}
    for m in wanted:
        print(f"  {m['name']:38s} {values[m['name']]:.6g} {m['unit']}")
    return {
        "correct": not failures,
        "attempted": len(all_runs),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "infomarket", "cli.py")):
        print(f"error: no infomarket sources under {SRC}", file=sys.stderr)
        return 2
    work_dir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
