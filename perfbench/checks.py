"""Reference computations the benchmark checks tailclip's outputs against.

Everything here is written from the documented definitions, not from
tailclip's code, and imports nothing from tailclip:

- the per-seed noise stream ``SeedSequence([master_seed, i])`` and the
  calibration stream ``SeedSequence(master_seed, spawn_key=(918273,))``;
- the noise layout of one draw: stable and Pareto rows take ``2 d``
  uniforms (the first ``d`` for the angle or magnitude, the last ``d`` for
  the exponential or sign), gaussian rows take ``d`` standard normals;
- the Chambers-Mallows-Stuck transform for symmetric alpha-stable noise;
- projected clipped SGD with eta_k = 4/(mu (k+1)), tau_k = G k^(1/alpha),
  ball projection and j-weighted iterate averaging, and ACClip (momentum,
  moving average of |g|^alpha as the threshold, factor min{tau/(|m|+eps), 1});
- the "log" record grid: 1, K, every power of ten and round(1.25^j);
- the distribution of the noise norm, from ``scipy.stats``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

CALIBRATION_SPAWN_KEY = (918273,)
CSV_FIELDS = ("suboptimality", "grad_norm", "min_grad_stat", "clip_frac", "eff_step")


# ---------------------------------------------------------------------------
# Program outputs


def _by_seed(columns: dict[str, list]) -> dict[int, dict[str, np.ndarray]]:
    """Columns of a results table (raw values, in file order) grouped by seed."""
    seed = np.asarray(columns["seed"], dtype=float).astype(np.int64)
    k = np.asarray(columns["k"], dtype=float).astype(np.int64)
    fields = {f: np.asarray(columns[f], dtype=float) for f in CSV_FIELDS}
    out = {}
    for s in dict.fromkeys(seed.tolist()):
        mask = seed == s
        out[s] = {"k": k[mask]} | {f: v[mask] for f, v in fields.items()}
    return out


def read_trace_csv(path: Path) -> dict[int, dict[str, np.ndarray]]:
    """Rows of a results CSV grouped by seed, each field as an array by k."""
    with open(path, encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh))
    names = ("seed", "k", *CSV_FIELDS)
    table = np.loadtxt(path, delimiter=",", skiprows=1, usecols=[header.index(n) for n in names], ndmin=2)
    return _by_seed(dict(zip(names, table.T)))


def read_trace_jsonl(path: Path) -> dict[int, dict[str, np.ndarray]]:
    """Same grouping as read_trace_csv, from the JSON-lines format."""
    with open(path, encoding="utf-8") as fh:
        recs = [json.loads(line) for line in fh]
    return _by_seed({f: [r[f] for r in recs] for f in ("seed", "k", *CSV_FIELDS)})


def read_calibration(report_path: Path) -> dict[str, float]:
    """The ``calibration:`` block of a text report."""
    values: dict[str, float] = {}
    in_block = False
    for line in report_path.read_text(encoding="utf-8").splitlines():
        if line == "calibration:":
            in_block = True
        elif in_block and line.startswith("  ") and " = " in line:
            key, raw = line.strip().split(" = ", 1)
            values[key] = float(raw)
        else:
            in_block = False
    return values


def read_verdicts(path: Path) -> list[tuple[str, bool]]:
    """(criterion, passed) from a verdicts JSON-lines file."""
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        out.append((rec["criterion"], bool(rec["passed"])))
    return out


def close(a, b, rtol: float = 1e-9) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    return bool(np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b))))


# ---------------------------------------------------------------------------
# Noise streams


def seed_generator(master_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(index)]))


def calibration_generator(master_seed: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(int(master_seed), spawn_key=CALIBRATION_SPAWN_KEY)
    )


def cms_stable(v: np.ndarray, w: np.ndarray, a: float) -> np.ndarray:
    """Chambers-Mallows-Stuck: symmetric a-stable from V ~ U(-pi/2, pi/2), W ~ Exp(1)."""
    return (np.sin(a * v) / np.cos(v) ** (1.0 / a)) * (np.cos((1.0 - a) * v) / w) ** ((1.0 - a) / a)


def draw_noise(cfg: dict, rng: np.random.Generator, n: int) -> np.ndarray:
    """n noise rows of the config's [noise] section, shape (n, d)."""
    d = int(float(cfg["problem.dimension"]))
    family = cfg.get("noise.family", "gaussian")
    scale = float(cfg.get("noise.scale", "1.0"))
    a = float(cfg.get("noise.tail_index", "2.0"))
    if family == "gaussian":
        return rng.standard_normal((n, d)) * scale
    u = rng.random((n, 2 * d))
    if family == "pareto":
        signs = np.where(u[:, d:] < 0.5, -1.0, 1.0)
        return signs * (1.0 - u[:, :d]) ** (-1.0 / a) * scale
    if family != "stable":
        raise ValueError(f"no reference sampler for noise family {family!r}")
    return cms_stable((u[:, :d] - 0.5) * math.pi, -np.log1p(-u[:, d:]), a) * scale


def _vector(cfg: dict, key: str, d: int) -> np.ndarray:
    vals = [float(t) for t in cfg[key].replace(",", " ").split()]
    return np.full(d, vals[0]) if len(vals) == 1 else np.asarray(vals)


class Instance:
    """The quadratic problem of a config: f(x) = mu/2 ||x - x*||^2 on a ball."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.d = int(float(cfg["problem.dimension"]))
        self.mu = float(cfg.get("problem.mu", "1.0"))
        self.x_star = _vector(cfg, "problem.x_star", self.d)
        self.x0 = _vector(cfg, "problem.x0", self.d)
        radius = cfg.get("problem.radius", "auto")
        self.radius = 2.0 * float(np.linalg.norm(self.x0 - self.x_star)) if radius == "auto" else float(radius)
        self.iterations = int(float(cfg["experiment.iterations"]))
        self.alpha = float(cfg.get("schedule.alpha", "1.5"))
        self.draws = int(float(cfg.get("schedule.calibration_draws", "100000")))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.mu * (x - self.x_star)

    def suboptimality(self, x: np.ndarray) -> float:
        dev = x - self.x_star
        return 0.5 * self.mu * float(dev @ dev)

    def project(self, x: np.ndarray) -> np.ndarray:
        dev = x - self.x0
        dist = math.sqrt(float(dev @ dev))
        return x if dist <= self.radius else self.x0 + dev * (self.radius / dist)


# ---------------------------------------------------------------------------
# Calibration


def _calibration_blocks(inst: Instance, master_seed: int, chunk: int = 1 << 16):
    rng = calibration_generator(master_seed)
    g0 = inst.gradient(inst.x0)
    left = inst.draws
    while left > 0:
        n = min(chunk, left)
        yield draw_noise(inst.cfg, rng, n) + g0
        left -= n


def calibrated_G(inst: Instance, master_seed: int) -> float:
    """G with G^alpha = mean ||g(x0)||^alpha over the calibration stream."""
    total = 0.0
    for block in _calibration_blocks(inst, master_seed):
        total += float(np.sum(np.sum(block * block, axis=1) ** (inst.alpha / 2.0)))
    return (total / inst.draws) ** (1.0 / inst.alpha)


def calibrated_B(inst: Instance, master_seed: int) -> np.ndarray:
    """B_i with B_i^alpha = mean |g_i(x0)|^alpha over the calibration stream."""
    total = np.zeros(inst.d)
    for block in _calibration_blocks(inst, master_seed):
        total += np.sum(np.abs(block) ** inst.alpha, axis=0)
    return (total / inst.draws) ** (1.0 / inst.alpha)


# ---------------------------------------------------------------------------
# Trajectory replays


def log_grid(K: int) -> np.ndarray:
    pts = {1, K}
    k = 1.0
    while k <= K:
        pts.add(int(round(k)))
        k *= 1.25
    dec = 10
    while dec <= K:
        pts.add(dec)
        dec *= 10
    return np.array(sorted(p for p in pts if 1 <= p <= K))


def _record_points(cfg: dict, K: int) -> np.ndarray:
    record = cfg.get("optimizer.record", "log")
    if record == "log":
        return log_grid(K)
    stride = int(float(record))
    return np.array(sorted(set(range(stride, K + 1, stride)) | {1, K}))


def replay(cfg: dict, master_seed: int, index: int, G: float | None = None) -> dict[str, np.ndarray]:
    """Seed ``index`` of a proj_gclip or acclip config, recorded like the CSV."""
    inst = Instance(cfg)
    K = inst.iterations
    algorithm = cfg["optimizer.algorithm"]
    noise = draw_noise(cfg, seed_generator(master_seed, index), K)
    rec = _record_points(cfg, K)
    is_rec = np.zeros(K + 1, dtype=bool)
    is_rec[rec] = True
    out = {f: np.empty(len(rec)) for f in CSV_FIELDS}
    b1 = float(cfg.get("optimizer.beta1", "0.9"))
    b2 = float(cfg.get("optimizer.beta2", "0.99"))
    p = float(cfg.get("optimizer.acclip_alpha", "1.0"))
    eps = float(cfg.get("optimizer.epsilon", "1e-5"))
    x = inst.x0.copy()
    m = np.zeros(inst.d)
    tau_p = np.zeros(inst.d)
    weighted = np.zeros(inst.d)
    weight = 0.0
    row = 0
    for k in range(1, K + 1):
        weighted += k * x
        weight += k
        g = inst.gradient(x) + noise[k - 1]
        eta = 4.0 / (inst.mu * (k + 1))
        if algorithm == "proj_gclip":
            tau = G * k ** (1.0 / inst.alpha)
            norm = math.sqrt(float(g @ g))
            c = 1.0 if norm <= tau else tau / norm
            x = x - (eta * c) * g
            clip_frac, eff_step = (1.0 if c < 1.0 else 0.0), eta * c
        elif algorithm == "acclip":
            m = b1 * m + (1.0 - b1) * g
            tau_p = b2 * tau_p + (1.0 - b2) * np.abs(g) ** p
            factors = np.minimum(tau_p ** (1.0 / p) / (np.abs(m) + eps), 1.0)
            x = x - eta * (factors * m)
            clip_frac, eff_step = float(np.mean(factors < 1.0)), eta * float(np.mean(factors))
        else:
            raise ValueError(f"no replay for algorithm {algorithm!r}")
        x = inst.project(x)
        if is_rec[k]:
            gn = float(np.linalg.norm(inst.gradient(x)))
            out["suboptimality"][row] = inst.suboptimality(weighted / weight)
            out["grad_norm"][row] = gn
            out["min_grad_stat"][row] = min(gn, gn * gn)
            out["clip_frac"][row] = clip_frac
            out["eff_step"][row] = eff_step
            row += 1
    out["k"] = rec
    return out


def matches_replay(rows: dict[str, np.ndarray], ref: dict[str, np.ndarray], rtol: float = 1e-9) -> bool:
    if not np.array_equal(rows["k"], ref["k"]):
        return False
    return all(close(rows[f], ref[f], rtol) for f in CSV_FIELDS)


# ---------------------------------------------------------------------------
# Noise-norm histograms


def norm_cdf(family: str, dimension: int, a: float, scale: float = 1.0):
    """CDF of ||X|| for one noise draw."""
    from scipy import stats  # slow to import; only the probe_suites checks need it

    if family == "gaussian":
        return stats.chi(dimension, scale=scale).cdf
    if dimension != 1:
        raise ValueError(f"no reference norm law for {family} noise at d={dimension}")
    if family == "pareto":
        return lambda t: np.where(t < scale, 0.0, 1.0 - (np.maximum(t, scale) / scale) ** (-a))
    if family == "stable":
        return lambda t: 2.0 * stats.levy_stable.cdf(np.asarray(t) / scale, a, 0.0) - 1.0
    raise ValueError(f"no reference norm law for family {family!r}")


def histogram_pvalue(edges_lo, edges_hi, counts, n: int, cdf) -> float:
    """Chi-square goodness of fit of histogram counts against ``cdf``.

    Bins expecting fewer than 5 draws are merged into their left neighbour.
    """
    from scipy import stats

    lo = np.asarray(edges_lo, dtype=float)
    hi = np.asarray(edges_hi, dtype=float)
    probs = np.asarray(cdf(hi), dtype=float) - np.asarray(cdf(lo), dtype=float)
    expected, observed = [], []
    for e, o in zip(n * probs, np.asarray(counts, dtype=float)):
        if expected and (e < 5.0 or expected[-1] < 5.0):
            expected[-1] += e
            observed[-1] += o
        else:
            expected.append(e)
            observed.append(o)
    e = np.asarray(expected)
    o = np.asarray(observed)
    stat = float(np.sum((o - e) ** 2 / e))
    return float(stats.chi2.sf(stat, len(e) - 1))

