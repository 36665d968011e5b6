"""Time-to-verdict benchmark for tailclip.

    python3 perfbench/run.py --workload paper_rates --seed 0 --seconds 12 --trace 0

Run from the root of a tailclip checkout; the program is taken from its
``src/`` tree. With ``--trace 0`` the command runs whole rounds of the
workload's CLI processes until their time adds up to ``--seconds`` (at
least two rounds), checks every round's outputs, and prints the end-to-end
metrics (medians over the rounds, see ``measure``). With ``--trace 1`` it
instead calls the layers' public functions in-process, timing each call
(see traced.py), and prints the per-layer metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Outputs go to ``perfbench/out/``. README.md describes the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import PROCS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_ROUNDS = 2  # so that every figure is a median over rounds


def child_env() -> dict:
    """Environment of every child: the checkout's tailclip, one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TAILCLIP_")}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Timed:
    wall: float
    cpu: float
    rss_mb: float
    exit: int
    stdout: str
    setup: float | None = None


def timed(argv: list[str], cwd: Path, env: dict, log: Path, mark: Path | None = None) -> Timed:
    """Run ``python argv`` to its end; CPU and peak RSS include its children.

    With ``mark``, the child is launch.py, and ``setup`` is the time from
    spawn to the set-up mark it writes there (None if it wrote none).
    """
    if mark is not None:
        env = {**env, "PERFBENCH_SETUP_MARK": str(mark)}
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                                stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = float(mark.read_text()) - t0 if mark is not None and mark.exists() else None
    return Timed(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, log.read_text(encoding="utf-8", errors="replace"), setup)


def run_round(procs, round_dir: Path, env: dict) -> list[Timed]:
    """Each process once, in order."""
    round_dir.mkdir(parents=True)
    timings = []
    for p in procs:
        (round_dir / p.out).mkdir(parents=True, exist_ok=True)
        timings.append(timed([str(BENCH / "launch.py"), *p.argv], round_dir, env,
                             round_dir / f"{p.out}.log", round_dir / f"{p.out}.setup"))
    return timings


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Whole rounds until their process time reaches ``seconds`` (and at least
    MIN_ROUNDS of them), then the checks.

    Each metric takes, for every process of the workload, the median over
    the rounds, and sums those medians (peak RSS: their maximum), so that a
    burst of load on the machine during one call moves the figure less.
    """
    procs = PROCS[workload](seed)
    env = child_env()
    work = OUT / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Compile tailclip's bytecode and load the libraries into the page cache
    # once, as any earlier use would have; users do not pay this per call.
    timed(["-c", "import tailclip.cli"], ROOT, env, work / "warmup.log")

    rounds = []
    spent = 0.0
    while spent < seconds or len(rounds) < MIN_ROUNDS:
        round_dir = work / f"round-{len(rounds) + 1}"
        timings = run_round(procs, round_dir, env)
        rounds.append((round_dir, timings))
        spent += sum(t.wall for t in timings)
        print(f"round {len(rounds)}: " + ", ".join(
            f"{p.out} {t.wall:.3f} s (set-up {t.setup or 0:.3f})" for p, t in zip(procs, timings)),
            flush=True)

    spec = work / "rounds.json"
    spec.write_text(json.dumps({"workload": workload, "seed": seed, "rounds": [
        {"dir": str(d), "stdout": {p.out: t.stdout for p, t in zip(procs, timings)}}
        for d, timings in rounds]}), encoding="utf-8")
    checked = timed([str(BENCH / "verify.py"), str(spec)], BENCH, env, work / "verify.log")
    last = checked.stdout.strip().splitlines()[-1] if checked.stdout.strip() else ""
    if checked.exit != 0 or not last.startswith("{"):
        raise RuntimeError(f"verify.py exited {checked.exit}: {checked.stdout[-2000:]}")
    attempted = failed = 0
    correct = True
    for (_, timings), ops in zip(rounds, json.loads(last)["ops"]):
        ops += [(f"{p.out} exited {t.exit}: {t.stdout[-300:]}", False, False)
                for p, t in zip(procs, timings) if t.exit not in p.expect_exit]
        ops += [(f"{p.out} never reached the end of its set-up", False, False)
                for p, t in zip(procs, timings) if t.setup is None]
        attempted += len(ops)
        failed += sum(1 for _, ok, _ in ops if not ok)
        correct = correct and all(c for _, _, c in ops)
    print("checks of the last round:")
    for name, ok, c in ops:
        print(f"  [{'ok' if ok else 'FAILED'}{'' if c else ', WRONG OUTPUT'}] {name}")

    def per_process(value) -> list[float]:
        return [statistics.median(value(timings[i]) for _, timings in rounds) for i in range(len(procs))]

    metrics = {
        "wall_s": (sum(per_process(lambda t: t.wall)), "s"),
        "setup_s": (sum(per_process(lambda t: t.setup or 0.0)), "s"),
        "cpu_s": (sum(per_process(lambda t: t.cpu)), "s"),
        "peak_rss_mb": (max(per_process(lambda t: t.rss_mb)), "MB"),
    }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROCS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tailclip" / "__init__.py").is_file():
        print(f"error: no tailclip source tree at {SRC}; run from a tailclip checkout",
              file=sys.stderr)
        return 2
    if args.trace:
        os.environ.update({k: v for k, v in child_env().items() if k.endswith("_NUM_THREADS")})
        from traced import run_traced

        result = run_traced(args.workload, args.seed, child_env())
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
