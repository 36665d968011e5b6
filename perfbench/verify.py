"""Checks on the outputs of a workload's rounds.

    python3 perfbench/verify.py ROUNDS.json

ROUNDS.json holds ``{"workload", "seed", "rounds": [{"dir", "stdout"}]}``;
the last line printed is ``{"ops": [[[name, passed, correct], ...], ...]}``,
one list per round. An operation is one verdict the program printed or one
reference check (checks.py). A verdict that fails is a failed operation and
leaves ``correct`` alone; a reference check that does not match fails its
operation and clears ``correct``. The expensive references (replays,
recalibrations) are computed once per checkout (see ``_reference``) and
compared with every round.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import re
import sys
from pathlib import Path

import numpy as np

import checks
from workloads import NOISE_PROBES, PAPER_SEEDS, PROCS, SUITES, TRACE_SEEDS, read_config

CHECKS_CODE = Path(checks.__file__).read_bytes()
REFERENCES = Path(__file__).resolve().parent / "out" / "references"
HISTOGRAM_MIN_PVALUE = 1e-6
HISTOGRAM_DRAWS = 10**5  # noise-probe histograms min(n, 1e5) draws; n defaults to 1e6


def _verdict_ops(path: Path, prefix: str = "") -> list[tuple[str, bool, bool]]:
    if not path.exists():
        return [(f"{prefix}{path.name} missing", False, False)]
    return [(f"{prefix}{c}", ok, True) for c, ok in checks.read_verdicts(path)]


def _cached(cache: dict, key, fn):
    if key not in cache:
        cache[key] = fn()
    return cache[key]


def _read(cache: dict, reader, path: Path):
    """``reader(path)``, parsed once per distinct file content (the rounds of
    a run repeat the same inputs, so they mostly write the same bytes)."""
    key = (reader.__name__, hashlib.sha256(path.read_bytes()).hexdigest())
    return _cached(cache, key, lambda: reader(path))


def _reference(cache: dict, fn, *args):
    """``fn(*args)`` from checks.py, computed once per checkout.

    Kept in memory for the run and pickled under ``out/references`` for the
    runs after it, keyed by the function, its arguments and the bytes of
    checks.py, so that inputs that do not change with ``--seed`` are not
    recomputed on every run.
    """
    key = hashlib.sha256(repr((fn.__name__, args)).encode() + CHECKS_CODE).hexdigest()
    if key not in cache:
        path = REFERENCES / f"{key}.pkl"
        if path.exists():
            cache[key] = pickle.loads(path.read_bytes())
        else:
            cache[key] = fn(*args)
            REFERENCES.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_bytes(pickle.dumps(cache[key]))
            tmp.replace(path)
    return cache[key]


def _calibrated_G(cfg: dict, master: int) -> float:
    return checks.calibrated_G(checks.Instance(cfg), master)


def _calibrated_B_norm2(cfg: dict, master: int) -> float:
    return float(np.linalg.norm(checks.calibrated_B(checks.Instance(cfg), master)))


def _calibration_ops(report: Path, cfg: dict, master: int, key: str, cache: dict):
    want = _reference(cache, _calibrated_G if key == "G" else _calibrated_B_norm2, cfg, master)
    got = checks.read_calibration(report).get(key)
    ok = got is not None and checks.close(got, want)
    return [(f"{report.stem} {key} = recomputed {want!r}", ok, ok)]


def _replay_op(name: str, rows: dict, cfg: dict, master: int, cache: dict, G=None):
    ref = _reference(cache, checks.replay, cfg, master, 0, G)
    ok = 0 in rows and checks.matches_replay(rows[0], ref)
    return (f"{name} seed 0 matches replay", ok, ok)


def paper_rates_check(out: Path, procs: list, cache: dict, _stdout: dict):
    ops = []
    for p in procs:
        cfg, name, d = read_config(p.cfg, p.overrides), p.cfg.stem, out / p.out
        ops += _verdict_ops(d / f"{name}.verdicts.jsonl")
        ops += _calibration_ops(d / f"{name}.report.txt", cfg, p.master, "G", cache)
        G = checks.read_calibration(d / f"{name}.report.txt").get("G")
        rows = _read(cache, checks.read_trace_csv, d / f"{name}.csv")
        grid = checks.log_grid(checks.Instance(cfg).iterations)
        ok = sorted(rows) == list(range(PAPER_SEEDS)) and all(
            np.array_equal(r["k"], grid) for r in rows.values())
        ops.append((f"{name} rows: {PAPER_SEEDS} seeds x log grid", ok, ok))
        ops.append(_replay_op(name, rows, cfg, p.master, cache, G))
    return ops


def clip_family_check(out: Path, procs: list, cache: dict, _stdout: dict):
    ops = []
    finals, starts = {}, {}
    for p in procs:
        cfg, name, d = read_config(p.cfg, p.overrides), p.cfg.stem, out / p.out
        if not name.startswith("d100_"):
            ops += _verdict_ops(d / f"{name}.verdicts.jsonl")
            continue
        alg = cfg["optimizer.algorithm"]
        rows = _read(cache, checks.read_trace_csv, d / f"{name}.csv")
        finals[alg] = [r["suboptimality"][-1] for r in rows.values()]
        inst = checks.Instance(cfg)
        starts[alg] = inst.suboptimality(inst.x0)
        if alg == "proj_gclip":
            ops += _calibration_ops(d / f"{name}.report.txt", cfg, p.master, "G", cache)
        elif alg == "cclip":
            ops += _calibration_ops(d / f"{name}.report.txt", cfg, p.master, "B_norm2", cache)
        elif alg == "acclip":
            ops.append(_replay_op(name, rows, cfg, p.master, cache))
    base = float(np.mean(finals["proj_gclip"]))
    for alg in ("cclip", "acclip"):
        ok = bool(np.mean(finals[alg]) < base)
        ops.append((f"d100 {alg} seed-mean final {np.mean(finals[alg]):.4g} < proj_gclip {base:.4g}", ok, ok))
    for alg in ("adamlike", "momentum_sgd"):
        ok = bool(all(math.isfinite(v) and v < starts[alg] for v in finals[alg]))
        ops.append((f"d100 {alg} finals {[float(v) for v in finals[alg]]} finite and < start "
                    f"{starts[alg]:.4g}", ok, ok))
    return ops


_VERDICT_LINE = re.compile(r"^\[(PASS|FAIL)\] (.*?):")
_TAIL_LINE = re.compile(r"tail index alpha_hat = ([0-9.]+)")


def probe_suites_check(out: Path, procs: list, cache: dict, stdout: dict):
    ops = []
    for fam, d in NOISE_PROBES:
        hist = np.loadtxt(out / f"noise_{fam}" / "noise_probe_histogram.csv", delimiter=",", skiprows=1)
        a = 1.5  # the noise-probe default tail index
        p = checks.histogram_pvalue(hist[:, 0], hist[:, 1], hist[:, 2], HISTOGRAM_DRAWS,
                                    checks.norm_cdf(fam, d, a))
        ok = p > HISTOGRAM_MIN_PVALUE
        ops.append((f"noise-probe {fam} histogram fits scipy.stats (p={p:.3g})", ok, ok))
        if fam == "stable":
            m = _TAIL_LINE.search(stdout.get(f"noise_{fam}", ""))
            ok = m is not None and abs(float(m.group(1)) - a) <= 0.1
            ops.append((f"noise-probe stable tail index {m.group(1) if m else None} within 0.1 of {a}", ok, ok))
    for cmd in SUITES:
        text = stdout.get(cmd, "")
        if cmd == "sandwich":
            ok = "violations=0 " in text
            ops.append(("sandwich fuzz: no violations", ok, True))
            continue
        lines = [m for m in (_VERDICT_LINE.match(s) for s in text.splitlines()) if m]
        if not lines:
            ops.append((f"{cmd} printed no verdicts", False, False))
        ops += [(f"{cmd} {m.group(2)}", m.group(1) == "PASS", True) for m in lines]
    return ops


def trace_io_check(out: Path, procs: list, cache: dict, _stdout: dict):
    run = procs[0]
    name = run.cfg.stem
    cfg = read_config(run.cfg, run.overrides)
    ops = _verdict_ops(out / "csv" / f"{name}.verdicts.jsonl")
    same = (out / "jsonl" / f"{name}.verdicts.jsonl").read_text() == (
        out / "csv" / f"{name}.verdicts.jsonl").read_text()
    ops.append(("json-lines run verdicts equal the csv run's", same, same))
    rows = _read(cache, checks.read_trace_csv, out / "csv" / f"{name}.csv")
    jrows = _read(cache, checks.read_trace_jsonl, out / "jsonl" / f"{name}.jsonl")
    K = checks.Instance(cfg).iterations
    want_k = np.arange(1, K + 1)
    ok = sorted(rows) == sorted(jrows) == list(range(TRACE_SEEDS)) and all(
        np.array_equal(r["k"], want_k) and np.array_equal(jrows[s]["k"], want_k) for s, r in rows.items()
    )
    ops.append((f"{TRACE_SEEDS} seeds x {K} rows in both formats", ok, ok))
    ok = ok and all(np.array_equal(rows[s][f], jrows[s][f]) for s in rows for f in checks.CSV_FIELDS)
    ops.append(("csv and json-lines values identical", ok, ok))
    G = checks.read_calibration(out / "csv" / f"{name}.report.txt").get("G")
    ops.append(_replay_op(f"{name} record=1", rows, cfg, run.master, cache, G))
    ops += _verdict_ops(out / "report" / f"{name}.verdicts.jsonl", "report ")
    ops.append(report_op((out / "report" / f"{name}.report.txt").read_text(encoding="utf-8"), name))
    return ops


_REPORT_SLOPE = re.compile(r"observed (\S+) \(r2=([^)\s]+)\)")


def report_op(text: str, experiment: str) -> tuple[str, bool, bool]:
    """The ``report`` read the run's CSV and fitted a slope.

    Holds for any fit of a decreasing trace, however it weights the points:
    the report names the run's experiment and gives a finite negative slope
    with r2 in [0, 1]. Whether the slope meets its expectation is the report's
    own verdict, counted apart.
    """
    m = _REPORT_SLOPE.search(text)
    slope, r2 = (float(m.group(1)), float(m.group(2))) if m else (math.nan, math.nan)
    ok = (f"experiment: {experiment}\n" in text and math.isfinite(slope) and slope < 0
          and 0.0 <= r2 <= 1.0)
    return (f"report of {experiment}: slope {slope:.4g}, r2 {r2:.3g}", ok, ok)


CHECKS = {
    "paper_rates": paper_rates_check,
    "clip_family": clip_family_check,
    "probe_suites": probe_suites_check,
    "trace_io": trace_io_check,
}


def verify(workload: str, seed: int, rounds: list[dict]) -> list[list[tuple[str, bool, bool]]]:
    check = CHECKS[workload]
    procs = PROCS[workload](seed)
    cache: dict = {}
    out = []
    for r in rounds:
        try:
            out.append(check(Path(r["dir"]), procs, cache, r["stdout"]))
        except Exception as exc:  # a missing or malformed output fails the round
            out.append([(f"checks raised {type(exc).__name__}: {exc}", False, False)])
    return out


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    print(json.dumps({"ops": verify(spec["workload"], spec["seed"], spec["rounds"])}))
