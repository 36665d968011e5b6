"""Traced run: per-layer metrics, timed from outside the program.

Calls each layer's public functions on a workload's inputs, in the order
the CLI calls them, and records a span (name, start, end, parent) around
every call together with work counts. Spans stay in memory and are written
to ``perfbench/out/trace/<workload>-seed<n>.json`` at the end. Nothing
inside tailclip is instrumented, and the timed run never imports this file.

Every traced run prints every per-layer metric that BENCHMARK.json lists.
The selected workload is traced first; a metric of a layer it does not reach
(no config is loaded in ``probe_suites``, no CSV is read back in
``paper_rates``) comes from the next workload in PER_LAYER_ORDER that
reaches it. Verdicts are counted for the selected workload alone.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import workloads as wl

OUT = wl.BENCH / "out"
PER_LAYER_ORDER = ("paper_rates", "clip_family", "probe_suites", "trace_io")
SAMPLER_ROWS = 10**6  # rows per sampler-rate call at d=1 (divided by d above that)
PROJECT_CALLS = 10**4
IMPORT_REPEATS = 3


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.verdicts: list[tuple[str, bool]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def n_calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)


# ---------------------------------------------------------------------------
# Shared pieces


def _sampler_rate(tr: Tracer, spec, seed: int) -> tuple[str, float]:
    """coords/s of sample_noise_batch on one spec, in the sampler's own chunking."""
    from tailclip.noise import sample_noise_batch

    rng = np.random.default_rng(seed)
    rows = max(SAMPLER_ROWS // spec.dimension, 1)
    name = f"noise.sample_noise_batch.{spec.family}"
    with tr.span(f"{name}.loop") as s:
        left = rows
        while left > 0:
            chunk = min(1 << 16, left)
            tr.call(name, sample_noise_batch, spec, rng, chunk)
            left -= chunk
    return f"noise.coords_per_s.{spec.family}", rows * spec.dimension / (s["end"] - s["start"])


def _project_rate(tr: Tracer, problem, seed: int) -> float:
    """us per problems.project call on points around the ball's edge."""
    from tailclip.problems import project

    rng = np.random.default_rng(seed)
    dom = problem.domain
    dirs = rng.standard_normal((PROJECT_CALLS, problem.dimension))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = dom.center + dirs * dom.radius * rng.uniform(0.5, 1.5, size=(PROJECT_CALLS, 1))
    with tr.span(f"problems.project.d{problem.dimension}") as s:
        for y in pts:
            project(dom, y)
    return (s["end"] - s["start"]) / PROJECT_CALLS * 1e6


def _experiment(tr: Tracer, args, csv_dir: Path) -> dict:
    """The call sequence of `tailclip run` (cmd_run, run_experiment) for the
    parsed CLI arguments ``args``, each call in a span."""
    from tailclip import optimizers, runner
    from tailclip.config import apply_overrides, load_config
    from tailclip.diagnostics import fit_loglog_slope

    with tr.span("config.load"):
        cfg = load_config(args.config)
        apply_overrides(cfg, args.override)
        cfg.master_seed = args.seed
    problem, x0 = tr.call("runner.build", runner.build_problem, cfg)
    with tr.span("problems.calibrate", draws=0) as cal_span:
        schedule, calibration = runner.build_schedule(cfg, problem, x0)
    if {"G", "B_norm2", "sigma"} & set(calibration):
        draws = cfg.schedule.calibration_draws
        cal_span["draws"] = draws
        tr.counts["problems.calibration_draws"] += draws
        tr.counts["noise.coords_drawn"] += draws * problem.dimension
    if cfg.problem.kind == "quadratic":
        calibration.setdefault("mu", cfg.problem.mu)
    opt = tr.call("runner.build", runner.build_optimizer_config, cfg, schedule, x0,
                  problem.domain is not None)
    alg, d, K = cfg.optimizer.algorithm, problem.dimension, cfg.iterations
    per_seed = f"optimizers.run.{alg}.d{d}"
    if args.parallel is None:  # pooled; then the same seeds one by one, for the speed-up
        traces = tr.call("optimizers.run_seeds", optimizers.run_seeds, problem, opt, cfg.seeds,
                         cfg.master_seed)
        for i in range(cfg.seeds):
            tr.call(per_seed, optimizers.run, problem, opt, optimizers.seed_stream(cfg.master_seed, i))
    else:
        with tr.span(per_seed):
            traces = tr.call("optimizers.run_seeds", optimizers.run_seeds, problem, opt, cfg.seeds,
                             cfg.master_seed, parallel=args.parallel)
    tr.counts["optimizers.seed_steps"] += cfg.seeds * K
    tr.counts["noise.coords_drawn"] += cfg.seeds * K * d
    tr.counts[f"steps.{alg}.d{d}"] += cfg.seeds * K
    path = csv_dir / f"{cfg.name}.csv"
    tr.call("runner.write_csv", runner.write_csv, path, cfg.name, traces)
    tr.counts["runner.csv_rows"] += sum(len(t.ks) for t in traces)
    tr.counts["runner.bytes_written"] += path.stat().st_size
    verdicts = tr.call("runner.evaluate_checks", runner.evaluate_checks, cfg, traces, calibration)
    tr.verdicts += [(v.criterion, v.passed) for v in verdicts]
    if cfg.checks.slope_expect != "":
        kmax = cfg.checks.slope_kmax if math.isfinite(cfg.checks.slope_kmax) else float(K)
        with tr.span("diagnostics.fit"):
            mean = optimizers.average_traces(traces, stat="mean")
            fit_loglog_slope(mean, cfg.checks.slope_metric, (cfg.checks.slope_kmin, kmax))
    return {"cfg": cfg, "problem": problem, "traces": traces, "path": path}


def _parsed(workload: str, seed: int) -> list:
    """The workload's CLI calls, parsed by tailclip's own argument parser."""
    from tailclip.cli import build_parser

    parser = build_parser()
    return [parser.parse_args(p.argv) for p in wl.PROCS[workload](seed)]


def _common(tr: Tracer) -> dict:
    """Metrics every config-running workload has, from its spans and counts."""
    m = {}
    t = tr.total
    if tr.n_calls("config.load"):
        m["config.load_s"] = t("config.load")
        m["runner.build_s"] = t("runner.build")
        m["runner.checks_s"] = t("runner.evaluate_checks")
        m["runner.csv_rows_per_s"] = tr.counts["runner.csv_rows"] / t("runner.write_csv")
        m["optimizers.run_seeds_s"] = t("optimizers.run_seeds")
        m["optimizers.seed_steps"] = tr.counts["optimizers.seed_steps"]
        m["optimizers.seed_steps_per_s"] = tr.counts["optimizers.seed_steps"] / t("optimizers.run_seeds")
        for key in [k for k in tr.counts if k.startswith("steps.")]:
            name = key.split(".", 1)[1]
            m[f"optimizers.us_per_step.{name}"] = t(f"optimizers.run.{name}") / tr.counts[key] * 1e6
    if tr.counts["problems.calibration_draws"]:
        m["problems.calibrate_s"] = t("problems.calibrate")
        m["problems.calibration_draws_per_s"] = tr.counts["problems.calibration_draws"] / sum(
            s["end"] - s["start"] for s in tr.spans if s["name"] == "problems.calibrate" and s["draws"])
    if tr.n_calls("diagnostics.fit"):
        m["diagnostics.fit_s"] = t("diagnostics.fit")
    if tr.counts["noise.coords_drawn"]:
        m["noise.coords_drawn"] = tr.counts["noise.coords_drawn"]
    return m


# ---------------------------------------------------------------------------
# The workloads' call sequences


def trace_paper_rates(tr: Tracer, seed: int, work_dir: Path) -> dict:
    m = {}
    for args in _parsed("paper_rates", seed):
        with tr.span("experiment", config=args.config):
            e = _experiment(tr, args, work_dir)
        m.setdefault("problems.project_us.d10", _project_rate(tr, e["problem"], seed))
        key, rate = _sampler_rate(tr, e["cfg"].noise.build(e["problem"].dimension), seed)
        m[key] = rate
    m["optimizers.pool_speedup"] = tr.total("optimizers.run.proj_gclip.d10") / tr.total("optimizers.run_seeds")
    return _common(tr) | m


def trace_clip_family(tr: Tracer, seed: int, work_dir: Path) -> dict:
    m = {}
    for args in _parsed("clip_family", seed):
        with tr.span("experiment", config=args.config):
            e = _experiment(tr, args, work_dir)
        if e["cfg"].optimizer.algorithm == "proj_gclip":
            m["problems.project_us.d100"] = _project_rate(tr, e["problem"], seed)
            key, rate = _sampler_rate(tr, e["cfg"].noise.build(e["problem"].dimension), seed)
            m[key] = rate
    return _common(tr) | m


def trace_probe_suites(tr: Tracer, seed: int, work_dir: Path) -> dict:
    """The suites' calls as the CLI's cmd_* functions make them, without the writes."""
    from tailclip.clip import bias_variance_grid
    from tailclip.diagnostics import sandwich_fuzz
    from tailclip.noise import NoiseSpec
    from tailclip.suites import chain_suite, lemma_check, lowerbound_suite, noise_probe

    m = {}
    drawn = 0
    for args in _parsed("probe_suites", seed):
        rng = np.random.default_rng(args.seed)
        if args.command in ("noise-probe", "lemma-check"):
            spec = NoiseSpec(family=args.family, dimension=args.dimension, scale=args.scale,
                             tail_index=args.a)
            n = int(float(args.n))
        if args.command == "noise-probe":
            tr.call("suites.noise_probe", noise_probe, spec, n, rng, block_size=args.block_size,
                    bins=args.bins)
            n_tail = max(n - n % args.block_size, 2 * args.block_size)
            drawn += (n + n_tail + min(n, 10**5)) * spec.dimension
            key, rate = _sampler_rate(tr, spec, seed)
            m[key] = rate
        elif args.command == "lemma-check":
            taus = [float(t) for t in args.taus.split(",")]
            res = tr.call("suites.lemma_check", lemma_check, spec, taus, n, rng, args.alpha,
                          grad_norm=args.grad_norm)
            tr.verdicts += [(v.criterion, v.passed) for v in res.verdicts]
            drawn += n * spec.dimension
            grad = np.zeros(spec.dimension)
            grad[0] = args.grad_norm
            rows = n // 10
            with tr.span("clip.bias_variance_grid") as s:
                bias_variance_grid(spec, grad, sorted(taus), rows, rng, args.alpha)
            m["clip.probe_rows_per_s"] = rows * len(taus) / (s["end"] - s["start"])
        elif args.command == "lowerbound":
            res = tr.call("suites.lowerbound", lowerbound_suite,
                          [float(e) for e in args.epsilons.split(",")],
                          [float(a) for a in args.alphas.split(",")], int(float(args.n)), rng)
            tr.verdicts += [(v.criterion, v.passed) for v in res.verdicts]
        elif args.command == "chain-check":
            res = tr.call("suites.chain", chain_suite, args.d, int(float(args.points)), rng, p=args.p)
            tr.verdicts += [(v.criterion, v.passed) for v in res.verdicts]
        else:
            res = tr.call("diagnostics.sandwich", sandwich_fuzz, int(float(args.fuzz)), rng,
                          v_max=args.v_max, g_max=args.g_max, a=args.a, beta2=args.beta2,
                          epsilon=args.epsilon)
            tr.verdicts.append(("sandwich", res.passed))
    m.update({
        "suites.noise_probe_s": tr.total("suites.noise_probe"),
        "suites.lemma_check_s": tr.total("suites.lemma_check"),
        "suites.lowerbound_s": tr.total("suites.lowerbound"),
        "suites.chain_s": tr.total("suites.chain"),
        "diagnostics.sandwich_s": tr.total("diagnostics.sandwich"),
        "noise.coords_drawn": float(drawn),
    })
    return m


def trace_trace_io(tr: Tracer, seed: int, work_dir: Path) -> dict:
    """One `run` (the CSV call), write_jsonl on its traces, then `report`'s reads and fit."""
    from tailclip import runner
    from tailclip.diagnostics import fit_loglog_slope
    from tailclip.optimizers import average_traces

    run_args, _, report_args = _parsed("trace_io", seed)
    with tr.span("experiment", config=run_args.config):
        e = _experiment(tr, run_args, work_dir)
    rows_out = sum(len(t.ks) for t in e["traces"])
    jsonl = work_dir / f"{e['cfg'].name}.jsonl"
    tr.call("runner.write_jsonl", runner.write_jsonl, jsonl, e["cfg"].name, e["traces"])
    tr.counts["runner.bytes_written"] += jsonl.stat().st_size
    rows = tr.call("runner.read_csv", runner.read_csv, e["path"])
    traces = tr.call("runner.traces_from_rows", runner.traces_from_rows, rows)
    with tr.span("diagnostics.fit"):
        mean = average_traces(traces, stat="mean")
        fit = fit_loglog_slope(mean, report_args.metric, (report_args.kmin, float(mean.ks[-1])))
    tr.verdicts.append(("report slope", abs(fit.slope - report_args.slope_expect) <= report_args.slope_tol))
    m = _common(tr)
    m.update({
        "runner.jsonl_rows_per_s": rows_out / tr.total("runner.write_jsonl"),
        "runner.read_rows_per_s": len(rows) / (tr.total("runner.read_csv") + tr.total("runner.traces_from_rows")),
        "runner.rows_written": float(2 * rows_out),
        "runner.mb_written": tr.counts["runner.bytes_written"] / 2**20,
    })
    return m


TRACERS = {
    "paper_rates": trace_paper_rates,
    "clip_family": trace_clip_family,
    "probe_suites": trace_probe_suites,
    "trace_io": trace_trace_io,
}


def import_seconds(env: dict) -> float:
    """Median time of ``import tailclip.cli`` in fresh interpreters."""
    code = "import time; t = time.perf_counter(); import tailclip.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=wl.ROOT, check=True,
                             capture_output=True, text=True).stdout
        times.append(float(out.strip().splitlines()[-1]))
    return statistics.median(times)


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, as BENCHMARK.json lists them."""
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_traced(workload: str, seed: int, env: dict) -> dict:
    """Trace ``workload``, then others until every per-layer metric has a value.

    ``attempted`` and ``failed`` count the verdicts of ``workload``'s own calls
    only. ``correct`` says that every figure is a finite positive number; the
    program's outputs are checked by the timed run, not here.
    """
    units = per_layer_units()
    sys.path.insert(0, env["PYTHONPATH"])
    work_dir = OUT / "trace" / f"{workload}-seed{seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    metrics: dict[str, float] = {"cli.import_s": import_seconds(env)}
    order = [workload] + [w for w in PER_LAYER_ORDER if w != workload]
    tracers: dict[str, Tracer] = {}
    for name in order:
        if all(k in metrics for k in units):
            break
        tr = tracers[name] = Tracer()
        with tr.span("workload", workload=name) as s:
            got = TRACERS[name](tr, seed, work_dir)
        print(f"traced {name}: {s['end'] - s['start']:.3f} s, {len(tr.spans)} spans")
        for k, v in got.items():
            print(f"  {k} = {v:.6g}{'' if k in metrics else ' (reported)'}")
            metrics.setdefault(k, v)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"traced run produced no value for {missing}")
    (OUT / "trace" / f"{workload}-seed{seed}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed,
         "traced": {name: {"counts": dict(t.counts), "spans": t.spans} for name, t in tracers.items()}},
        indent=1))
    verdicts = tracers[workload].verdicts
    for name, ok in verdicts:
        if not ok:
            print(f"  [FAILED] {name}")
    return {
        "correct": all(math.isfinite(metrics[k]) and metrics[k] > 0 for k in units),
        "attempted": len(verdicts),
        "failed": sum(1 for _, ok in verdicts if not ok),
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
