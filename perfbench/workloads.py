"""The four workloads: the tailclip CLI processes each round runs.

A process is the argument list of one ``python -m tailclip.cli`` call,
run from the round's output directory. This module uses the standard
library only, so that the process timing the workloads stays small: a
child's peak resident set counts the memory of the process that spawned it.
verify.py holds the checks made on what the processes leave behind.

Seeds. ``--seed n`` shifts the master seed of an input by n where every
verdict on it holds whatever the master seed. A verdict that, at the
benchmark's cut seed count, passes or fails with the master seed keeps its
config's own master seed (README: "Seeds"), and so do the two slope
verdicts that fail in ``trace_io`` because of the known fault.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIGS = ROOT / "configs"
OWN_CONFIGS = BENCH / "configs"

PAPER_SEEDS = 2
A4_SEEDS = 2
TRACE_SEEDS = 2
D100_ALGORITHMS = ("proj_gclip", "cclip", "acclip", "adamlike", "momentum_sgd")
NOISE_PROBES = (("gaussian", 10), ("pareto", 1), ("stable", 1))
SUITES = ("lemma-check", "lowerbound", "chain-check", "sandwich")
LOWERBOUND_SEED = 0  # the CLI default; its 4-se mean verdicts fail on some seeds


def read_config(path: Path, overrides: dict | None = None) -> dict:
    """Flat ``{"section.key": "raw value"}`` view of a config file.

    ``include`` files are read first and the including file wins key by key;
    ``overrides`` (same keys) win over both.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str
    parser.read(path, encoding="utf-8")
    flat: dict = {}
    include = parser.get("experiment", "include", fallback="").strip()
    if include:
        flat.update(read_config(path.parent / include))
    for section in parser.sections():
        for key, raw in parser.items(section):
            if key != "include":
                flat[f"{section}.{key}"] = raw.strip()
    flat.update(overrides or {})
    return flat


def master_seed(cfg_path: Path) -> int:
    return int(float(read_config(cfg_path)["experiment.master_seed"]))


@dataclass
class Proc:
    """One CLI call, run from the round's directory; ``out`` is its output
    directory there, and ``expect_exit`` the exit codes a finished call gives.
    A ``run`` call also records its config, overrides and master seed."""

    argv: list[str]
    out: str
    expect_exit: tuple[int, ...] = (0, 1)
    cfg: Path | None = None
    overrides: dict = field(default_factory=dict)
    master: int = 0


def _run(cfg: Path, out: str, shift: int, overrides: dict, *extra: str) -> Proc:
    """``tailclip run`` on a config, its master seed shifted by ``shift``."""
    master = master_seed(cfg) + shift
    argv = ["run", str(cfg)]
    for key, value in overrides.items():
        argv += ["-O", f"{key}={value}"]
    argv += [*extra, "--seed", str(master), "--out", out]
    return Proc(argv, out, cfg=cfg, overrides=overrides, master=master)


# ---------------------------------------------------------------------------
# paper_rates


def paper_rates_procs(seed: int) -> list[Proc]:
    seeds = {"experiment.seeds": str(PAPER_SEEDS)}
    return [
        _run(CONFIGS / "strongly_convex_alpha15.cfg", "alpha15", 0, seeds),
        _run(CONFIGS / "strongly_convex_gaussian.cfg", "gaussian", seed, seeds),
    ]


# ---------------------------------------------------------------------------
# clip_family


def clip_family_procs(seed: int) -> list[Proc]:
    procs = [
        _run(CONFIGS / f"{name}.cfg", name, 0, {"experiment.seeds": str(A4_SEEDS)}, "--parallel", "1")
        for name in ("sgd_divergence", "gclip_stabilizes")
    ]
    procs += [
        _run(OWN_CONFIGS / f"d100_{alg}.cfg", f"d100_{alg}", 0, {}, "--parallel", "1")
        for alg in D100_ALGORITHMS
    ]
    return procs


# ---------------------------------------------------------------------------
# probe_suites


def probe_suites_procs(seed: int) -> list[Proc]:
    procs = [
        Proc(["noise-probe", "--family", fam, "--dimension", str(d), "--seed", str(seed),
              "--out", f"noise_{fam}"], f"noise_{fam}", (0,))
        for fam, d in NOISE_PROBES
    ]
    procs += [
        Proc([cmd, "--seed", str(LOWERBOUND_SEED if cmd == "lowerbound" else seed), "--out", cmd], cmd)
        for cmd in SUITES
    ]
    return procs


# ---------------------------------------------------------------------------
# trace_io

TRACE_CFG = CONFIGS / "strongly_convex_alpha15.cfg"
TRACE_SLOPE = -0.6667
TRACE_KMIN = 100


def trace_io_procs(seed: int) -> list[Proc]:
    opts = {"experiment.seeds": str(TRACE_SEEDS), "optimizer.record": "1"}
    return [
        _run(TRACE_CFG, "csv", 0, opts, "--parallel", "1"),
        _run(TRACE_CFG, "jsonl", 0, opts, "--parallel", "1", "--format", "json-lines"),
        Proc(["report", "--csv", f"csv/{TRACE_CFG.stem}.csv", "--slope-expect", str(TRACE_SLOPE),
              "--kmin", str(TRACE_KMIN), "--out", "report"], "report"),
    ]


PROCS = {
    "paper_rates": paper_rates_procs,
    "clip_family": clip_family_procs,
    "probe_suites": probe_suites_procs,
    "trace_io": trace_io_procs,
}
