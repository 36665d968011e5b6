import configparser
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tailclip import cli, optimizers, runner, traces as trace_files
from tailclip.cli import main
from tailclip.config import ExperimentConfig, apply_overrides, dump_config, load_config
from tailclip.errors import ConfigurationError
from tailclip.noise import FAMILIES
from tailclip.optimizers import ALGORITHMS, record_points, run, run_seeds, seed_stream
from tailclip.problems import estimate_G, project
from tailclip.runner import evaluate_checks, run_experiment
from tailclip.traces import (
    CSV_COLUMNS,
    CSV_HEADER,
    CSV_METRICS,
    TRACE_METRICS,
    Trace,
    average_traces,
    read_csv,
    row_traces,
    traces_from_rows,
    write_csv,
    write_table,
)

MINIMAL = """
[experiment]
name = smoke
seeds = 2
master_seed = 3
iterations = 100

[problem]
kind = quadratic
dimension = 2
mu = 1.0
x_star = 0.0
x0 = 1.0

[noise]
family = gaussian
scale = 0.5

[schedule]
kind = constant
eta = 0.1
tau = 1.0

[optimizer]
algorithm = gclip
"""


@pytest.fixture
def minimal_cfg(tmp_path):
    path = tmp_path / "smoke.cfg"
    path.write_text(MINIMAL)
    return path


# A constant schedule whose alpha only the envelope check reads.
ENVELOPE_UNDER_CONSTANT = ["schedule.kind=constant", "optimizer.algorithm=gclip",
                           "problem.domain=none", "checks.envelope=strongly_convex",
                           "schedule.G=2.0"]

# The settings that take free text, in the order validate_config checks them.
TEXT_KEYS = ("name", "slope_id", "envelope_id", "ratio_id")


@st.composite
def config_settings(draw):
    """``section.key=value`` overrides that together make a valid config,
    except that the free-text values (TEXT_KEYS) may hold a ";" or "#"."""
    finite = st.floats(1e-3, 1e3)
    d = draw(st.integers(1, 4))
    vector = st.lists(finite, min_size=d, max_size=d).map(lambda v: ", ".join(map(repr, v)))
    algorithm = draw(st.sampled_from(ALGORITHMS))
    problem = draw(st.sampled_from(["quadratic", "nonconvex"]))
    kinds = ["constant"]
    if algorithm != "cclip":
        kinds.append("nonconvex")
    if problem == "quadratic":  # the strongly convex schedules need the quadratic's mu
        kinds.append("cclip" if algorithm == "cclip" else "strongly_convex")
    kind = draw(st.sampled_from(kinds))
    family = draw(st.sampled_from(FAMILIES))
    out = {
        "experiment.name": draw(st.text("abcXYZ019_-. %;#", min_size=1, max_size=12)
                                .filter(str.strip)),
        "experiment.seeds": draw(st.integers(1, 100)),
        "experiment.master_seed": draw(st.integers(0, 2**32)),
        "experiment.iterations": draw(st.integers(1000, 10**6)),
        "problem.kind": problem,
        "problem.dimension": d,
        "problem.mu": draw(finite),
        "problem.x_star": draw(vector),
        "problem.x0": draw(st.floats(-10.0, 10.0)),
        "problem.domain": "ball" if algorithm == "proj_gclip" else draw(st.sampled_from(["none", "ball"])),
        "problem.radius": draw(st.just("auto") | finite),
        "noise.family": family,
        "noise.tail_index": draw(st.floats(1.05, 2.0) if family == "stable" else st.floats(1.05, 5.0)),
        "noise.scale": draw(finite),
        "schedule.kind": kind,
        "schedule.eta": draw(finite),
        "schedule.tau": draw(st.just(math.inf) | finite),
        "schedule.alpha": draw(st.floats(1.05, 2.0)),
        "schedule.G": draw(st.just("auto") | finite),
        "schedule.B": draw(st.just("auto") | vector),
        "schedule.calibration_draws": draw(st.integers(1, 10**6)),
        "optimizer.algorithm": algorithm,
        "optimizer.averaging": draw(st.booleans()),
        "optimizer.beta1": draw(st.floats(0.0, 1.0, exclude_max=True)),
        "optimizer.record": draw(st.just("log") | st.integers(1, 100).map(str)),
        **{f"checks.{key}": draw(st.text("abcXYZ019_-. %;#", max_size=12))
           for key in TEXT_KEYS[1:]},
        "checks.slope_expect": draw(st.just("") | st.floats(-2.0, 0.0)),
        "checks.slope_kmin": draw(st.floats(1.0, 500.0)),  # 3 recorded points up to 1,000
        "checks.slope_tol": draw(finite),
        "outputs.plots": draw(st.booleans()),
    }
    calibrated = ("nonconvex", "strongly_convex", "cclip")
    for key, readers in (("eta", ["constant"]), ("tau", ["constant"]), ("G", ["strongly_convex"]),
                         ("B", ["cclip"]), ("alpha", calibrated),
                         ("calibration_draws", calibrated)):
        if kind not in readers:  # validate_config refuses a setting that the kind never reads
            del out[f"schedule.{key}"]
    return [f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}"
            for key, value in out.items()]


class TestConfig:
    def test_round_trip(self, minimal_cfg, tmp_path):
        cfg = load_config(minimal_cfg)
        out = tmp_path / "dumped.cfg"
        out.write_text(dump_config(cfg))
        again = load_config(out)
        assert cfg == again
        # serialize -> parse -> serialize is a fixed point
        assert dump_config(cfg) == dump_config(again)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_dump_load_round_trip_property(self, data):
        cfg = ExperimentConfig()
        overrides = data.draw(config_settings())
        # a ";" or "#" would start a comment in the dump: refused, naming the key
        commented = [key for key, _, value in (o.partition("=") for o in overrides)
                     if key.split(".")[1] in TEXT_KEYS and ("#" in value or ";" in value)]
        if commented:
            with pytest.raises(ConfigurationError, match=commented[0].split(".")[1]):
                apply_overrides(cfg, overrides)
            return
        apply_overrides(cfg, overrides)
        text = dump_config(cfg)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "dumped.cfg"
            path.write_text(text)
            again = load_config(path)
        assert again == cfg
        assert dump_config(again) == text

    def test_include_overrides(self, tmp_path):
        (tmp_path / "base.cfg").write_text(MINIMAL)
        child = tmp_path / "child.cfg"
        child.write_text(
            "[experiment]\ninclude = base.cfg\nname = child\n\n[schedule]\nkind = constant\neta = 0.2\n"
        )
        cfg = load_config(child)
        assert cfg.name == "child"
        assert cfg.schedule.eta == 0.2
        assert cfg.problem.dimension == 2  # inherited

    def test_include_cycle_detected(self, tmp_path):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text("[experiment]\ninclude = b.cfg\n")
        b.write_text("[experiment]\ninclude = a.cfg\n")
        with pytest.raises(ConfigurationError):
            load_config(a)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(MINIMAL.replace("algorithm = gclip", "algorithm = gclip\nbogus = 1"))
        with pytest.raises(ConfigurationError, match="bogus"):
            load_config(p)

    def test_validation_errors(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(MINIMAL.replace("algorithm = gclip", "algorithm = proj_gclip"))
        with pytest.raises(ConfigurationError, match="domain"):
            load_config(p)

    def test_overrides(self, minimal_cfg):
        cfg = load_config(minimal_cfg)
        apply_overrides(cfg, ["experiment.seeds=5", "schedule.eta=0.01", "noise.family=stable",
                              "noise.tail_index=1.5"])
        assert cfg.seeds == 5
        assert cfg.schedule.eta == 0.01
        assert cfg.noise.family == "stable"
        with pytest.raises(ConfigurationError):
            apply_overrides(cfg, ["nonsense"])
        with pytest.raises(ConfigurationError):
            apply_overrides(cfg, ["optimizer.bogus=1"])

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("experiment", "name", "renamed"),
            ("experiment", "seeds", "4"),
            ("experiment", "master_seed", "12"),
            ("experiment", "iterations", "2.5e3"),
            ("problem", "x0", "0.5, -0.25"),
            ("noise", "family", "stable"),
            ("schedule", "tau", "inf"),
            ("optimizer", "averaging", "yes"),
            ("checks", "slope_expect", "-0.5"),
            ("outputs", "plots", "true"),
        ],
    )
    def test_override_equals_file_key(self, minimal_cfg, tmp_path, section, key, value):
        header = "" if section == "experiment" else f"\n[{section}]\n"
        child = tmp_path / "child.cfg"
        child.write_text(f"[experiment]\ninclude = {minimal_cfg.name}\n{header}{key} = {value}\n")
        cfg = load_config(minimal_cfg)
        apply_overrides(cfg, [f"{section}.{key}={value}"])
        assert cfg == load_config(child)

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("experiment", "seeds", "2.7"),
            ("experiment", "iterations", "1999.9"),
            ("experiment", "seeds", "inf"),
            ("checks", "envelope_kmin", "10.2"),
            ("optimizer", "record", "2.5"),
            ("optimizer", "record", "10, 20.5"),
        ],
    )
    def test_fractional_integer_rejected(self, minimal_cfg, section, key, value):
        cfg = load_config(minimal_cfg)
        with pytest.raises(ConfigurationError, match=re.escape(f"[{section}] {key}")):
            apply_overrides(cfg, [f"{section}.{key}={value}"])

    def test_inverse_time_schedule_kind_rejected(self, tmp_path):
        path = tmp_path / "inverse.cfg"
        path.write_text(MINIMAL.replace("kind = constant", "kind = inverse_time"))
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "override,named",
        [
            ("problem.lo=0.0", "lo"),
            ("problem.hi=1.0", "hi"),
            ("problem.lower=-1.0", "lower"),
            ("problem.upper=1.0", "upper"),
            ("noise.per_coordinate_scales=1.0, 2.0", "per_coordinate_scales"),
            ("schedule.variant=simple", "variant"),
            ("problem.domain=box", "box"),
            ("problem.domain=interval", "interval"),
            ("checks.envelope=cclip", "cclip"),
            ("noise.family=normal", "normal"),
            ("schedule.mu=1.0", "mu"),
            ("schedule.L=2.0", "L"),
            ("optimizer.warmup=5", "warmup"),
            ("outputs.csv=x.csv", "csv"),
            ("outputs.report=x.txt", "report"),
            ("optimizer.record=10, 20", "record"),
        ],
    )
    def test_deleted_setting_rejected(self, minimal_cfg, override, named):
        cfg = load_config(minimal_cfg)
        with pytest.raises(ConfigurationError, match=named):
            apply_overrides(cfg, [override])

    @pytest.mark.parametrize(
        "overrides,named",
        [
            (["optimizer.record=0"], "stride"),
            (["optimizer.record=-3"], "stride"),
            (["optimizer.record=5, 200000"], "record"),
            (["optimizer.record=0, 50"], "record"),
            (["schedule.kind=cclip"], "cclip"),
            (["checks.ratio_metric=grad_norm", "checks.ratio_k_hi=50", "checks.ratio_k_lo=1"],
             "ratio_k_hi"),
            (["optimizer.record=7", "checks.ratio_metric=grad_norm", "checks.ratio_k_hi=100",
              "checks.ratio_k_lo=50"], "ratio_k_lo"),
            (["optimizer.record=10", "checks.ratio_metric=grad_norm",
              "checks.ratio_k_hi=35", "checks.ratio_k_lo=10"], "ratio_k_hi"),
            (["checks.envelope=strongly_convex"], "G constant"),
            (["checks.slope_expect=-0.5", "checks.slope_kmin=100"], "slope_kmin"),
            (["checks.slope_expect=-0.5", "checks.slope_kmin=20", "checks.slope_kmax=20"],
             "slope_kmin"),
            (["problem.kind=nonconvex", "schedule.kind=strongly_convex"], "nonconvex"),
            (["problem.kind=nonconvex", "schedule.kind=cclip", "optimizer.algorithm=cclip"],
             "nonconvex"),
            (["problem.kind=nonconvex", "checks.envelope=strongly_convex", "schedule.G=2.0"],
             "nonconvex"),
            (["checks.slope_expect=-0.5", "checks.slope_kmin=70"], "slope_kmin"),  # 87, 100
            (["checks.slope_expect=-0.5", "optimizer.record=50", "checks.slope_kmin=2"],
             "slope_kmax"),  # 50, 100
            (ENVELOPE_UNDER_CONSTANT + ["schedule.alpha=5"], r"alpha must lie in \(1, 2\]"),
            (ENVELOPE_UNDER_CONSTANT + ["schedule.alpha=0.5"], r"alpha must lie in \(1, 2\]"),
            (["schedule.calibration_draws=0"], "calibration_draws must be >= 1"),
            (["schedule.calibration_draws=-5"], "calibration_draws must be >= 1"),
            (["optimizer.acclip_alpha=0"], r"\[optimizer\] acclip_alpha = 0"),
            (["optimizer.acclip_alpha=-1"], r"\[optimizer\] acclip_alpha = -1"),
            (["optimizer.beta1=1.5"], r"\[optimizer\] beta1 = 1.5"),
            (["optimizer.beta1=-0.1"], r"\[optimizer\] beta1 = -0.1"),
            (["optimizer.beta2=1"], r"\[optimizer\] beta2 = 1"),
            (["optimizer.epsilon=-1"], r"\[optimizer\] epsilon = -1"),
            (["checks.slope_tol=-0.5"], "slope_tol must be >= 0"),
            (["checks.ratio_min=5", "checks.ratio_max=1"], "ratio_min must lie below ratio_max"),
            (["checks.ratio_min=1", "checks.ratio_max=1"], "ratio_min must lie below ratio_max"),
        ],
    )
    def test_bad_combination_rejected_before_run(self, minimal_cfg, overrides, named):
        cfg = load_config(minimal_cfg)
        with pytest.raises(ConfigurationError, match=named):
            apply_overrides(cfg, overrides)

    @pytest.mark.parametrize("record,k_hi,k_lo", [("7", 98, 1), ("7", 100, 7), ("log", 100, 1),
                                                  ("10", 20, 10)])
    def test_recorded_ratio_points_accepted(self, minimal_cfg, record, k_hi, k_lo):
        cfg = load_config(minimal_cfg)
        apply_overrides(cfg, [f"optimizer.record={record}", "checks.ratio_metric=grad_norm",
                              f"checks.ratio_k_hi={k_hi}", f"checks.ratio_k_lo={k_lo}"])
        assert cfg.checks.ratio_k_hi == k_hi

    @pytest.mark.parametrize("overrides", [
        ["checks.envelope=strongly_convex", "schedule.G=2.0"],
        ["checks.slope_expect=-0.5", "checks.slope_kmin=69"],  # 69, 87, 100: the fewest
        ["checks.slope_expect=-0.5", "checks.slope_kmin=10", "checks.slope_kmax=20"],
        ["optimizer.beta1=0", "optimizer.beta2=0", "optimizer.epsilon=0"],  # A11's reduction
        ["checks.slope_tol=0", "checks.ratio_min=0.5", "checks.ratio_max=0.6"],
    ])
    def test_checkable_combination_accepted(self, minimal_cfg, overrides):
        apply_overrides(load_config(minimal_cfg), overrides)

    @pytest.mark.parametrize("name", ["", "a,b", 'a"b', "a\rb", "a\nb", "a/b", "a\\b"])
    def test_unusable_experiment_name_rejected(self, minimal_cfg, name):
        cfg = load_config(minimal_cfg)
        with pytest.raises(ConfigurationError, match="name"):
            apply_overrides(cfg, [f"experiment.name={name}"])

    @pytest.mark.parametrize("override", [
        "noise.scale=nan", "noise.scale=inf", "noise.tail_index=nan", "problem.mu=-inf",
        "problem.x0=1.0, nan", "problem.x_star=inf", "schedule.B=1.0, inf", "schedule.B=nan",
        "schedule.eta=nan", "schedule.tau=nan", "schedule.G=inf", "schedule.alpha=nan",
        "optimizer.beta1=nan", "checks.slope_tol=nan", "checks.slope_kmax=nan",
        "checks.slope_expect=-inf", "checks.ratio_max=nan",
    ])
    def test_non_finite_setting_rejected(self, minimal_cfg, override):
        cfg = load_config(minimal_cfg)
        with pytest.raises(ConfigurationError, match=re.escape(override.split("=")[0].split(".")[1])):
            apply_overrides(cfg, [override])

    @pytest.mark.parametrize("key", ["schedule.G", "schedule.sigma", "schedule.f0", "schedule.B",
                                     "problem.radius"])
    def test_empty_auto_constant_rejected(self, minimal_cfg, key):
        cfg = load_config(minimal_cfg)
        with pytest.raises(ConfigurationError, match=re.escape(key.split(".")[1])):
            apply_overrides(cfg, [f"{key}="])

    @pytest.mark.parametrize("B,ok", [("0.5", True), ("0.5, 1.0", True), ("0.5, 1.0, 2.0", False)])
    def test_schedule_B_length_is_one_or_dimension(self, minimal_cfg, B, ok):
        cfg = load_config(minimal_cfg)  # dimension 2
        # tau back at its default: kind = cclip never reads it
        overrides = ["schedule.kind=cclip", "optimizer.algorithm=cclip", "schedule.tau=inf",
                     f"schedule.B={B}"]
        if ok:
            apply_overrides(cfg, overrides)
            return
        with pytest.raises(ConfigurationError, match=r"\[schedule\] B .*length 2"):
            apply_overrides(cfg, overrides)

    @pytest.mark.parametrize("key", ["checks.slope_expect", "checks.ratio_min", "checks.ratio_max"])
    def test_empty_optional_setting_is_unset(self, minimal_cfg, key):
        cfg = load_config(minimal_cfg)
        apply_overrides(cfg, [f"{key}=-0.5", f"{key}="])
        assert getattr(cfg.checks, key.split(".")[1]) == ""

    @pytest.mark.parametrize("override", ["schedule.tau=inf", "checks.slope_kmax=inf"])
    def test_infinite_default_accepted(self, minimal_cfg, override):
        cfg = load_config(minimal_cfg)
        apply_overrides(cfg, [override])

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text(MINIMAL + "\n[optimiser]\nalgorithm = sgd\n")
        with pytest.raises(ConfigurationError, match="optimiser"):
            load_config(p)


class TestRunner:
    def test_minimal_run_row_count(self, minimal_cfg, tmp_path):
        cfg = load_config(minimal_cfg)
        res = run_experiment(cfg, out_dir=tmp_path, parallel=1)
        lines = res.paths["data"].read_text().splitlines()
        assert lines[0] == CSV_HEADER
        n_rec = len(res.mean_trace.ks)
        assert len(lines) == 1 + 2 * n_rec  # header + seeds * recorded rows

    def test_same_seed_byte_identical(self, minimal_cfg, tmp_path):
        cfg = load_config(minimal_cfg)
        a = run_experiment(cfg, out_dir=tmp_path / "a", parallel=1)
        b = run_experiment(cfg, out_dir=tmp_path / "b", parallel=1)
        assert a.paths["data"].read_bytes() == b.paths["data"].read_bytes()

    def test_jsonl_format(self, minimal_cfg, tmp_path):
        cfg = load_config(minimal_cfg)
        res = run_experiment(cfg, out_dir=tmp_path, fmt="json-lines", parallel=1)
        rows = [json.loads(line) for line in res.paths["data"].read_text().splitlines()]
        assert set(rows[0]) == set(CSV_HEADER.split(","))
        assert rows[0]["experiment"] == "smoke"

    def test_csv_round_trip(self, minimal_cfg, tmp_path):
        cfg = load_config(minimal_cfg)
        res = run_experiment(cfg, out_dir=tmp_path, parallel=1)
        rows = read_csv(res.paths["data"])
        traces = traces_from_rows(rows)
        assert len(traces) == 2
        problem, x0 = runner.build_problem(cfg)
        schedule, _ = runner.build_schedule(cfg, problem, x0)
        opt = runner.build_optimizer_config(cfg, schedule, x0, problem.domain is not None)
        seed0 = run(problem, opt, seed_stream(cfg.master_seed, 0))
        assert np.array_equal(traces[0].ks, seed0.ks)
        assert np.array_equal(traces[0].suboptimality, seed0.suboptimality)

    def test_declared_check_verdicts(self, tmp_path):
        path = tmp_path / "checked.cfg"
        path.write_text(
            MINIMAL
            + "\n[checks]\nslope_id = demo\nslope_expect = -5.0\nslope_tol = 0.1\nslope_kmin = 1\n"
        )
        cfg = load_config(path)
        res = run_experiment(cfg, out_dir=tmp_path, parallel=1)
        assert not res.report.passed
        verdicts = [json.loads(l) for l in res.paths["verdicts"].read_text().splitlines()]
        assert verdicts[0]["criterion"] == "demo"
        assert verdicts[0]["passed"] is False

    @pytest.mark.parametrize("d", [1, 2, 10])
    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_divergent_run_fails_without_a_warning(self, minimal_cfg, tmp_path, alg, d):
        # Pareto tail 1.05 at constant eta = 50 and no threshold: sgd, momentum_sgd,
        # gclip and cclip overflow to inf.  filterwarnings = error makes any
        # RuntimeWarning from the loop or the value call a test failure.
        cfg = load_config(minimal_cfg)
        apply_overrides(cfg, [
            f"problem.dimension={d}", f"optimizer.algorithm={alg}", "optimizer.record=1",
            "noise.family=pareto", "noise.tail_index=1.05", "schedule.eta=50",
            "schedule.tau=inf", "experiment.iterations=1000", "checks.slope_expect=-1.0",
            *(["problem.domain=ball"] if alg == "proj_gclip" else []),
        ])
        res = run_experiment(cfg, out_dir=tmp_path / "out", parallel=1)
        assert [v.passed for v in res.report.verdicts] == [False]

    def test_divergent_cli_run_crosses_noise_blocks_without_a_warning(self, minimal_cfg, tmp_path):
        # at d = 10 the run loop sums its records per 1638-step noise block:
        # 4000 steps overflow early in the first block and carry inf and NaN
        # through two block ends
        argv = [sys.executable, "-W", "error", "-m", "tailclip.cli", "run", str(minimal_cfg),
                "--out", str(tmp_path), "--parallel", "1"]
        for override in ("problem.dimension=10", "optimizer.algorithm=sgd", "optimizer.record=1",
                         "noise.family=pareto", "noise.tail_index=1.05", "schedule.eta=50",
                         "experiment.iterations=4000", "checks.slope_expect=-1.0"):
            argv += ["-O", override]
        src = str(REPO / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == ""
        assert "[FAIL] slope" in proc.stdout and "result: FAIL" in proc.stdout
        assert "inf" in (tmp_path / "smoke.csv").read_text()

    def test_plot_script_emitted(self, minimal_cfg, tmp_path):
        cfg = load_config(minimal_cfg)
        cfg.outputs.plots = True
        res = run_experiment(cfg, out_dir=tmp_path, parallel=1)
        script = res.paths["plot"].read_text()
        assert "matplotlib" in script
        compile(script, str(res.paths["plot"]), "exec")  # syntactically valid


CHECK_KS = record_points(1000, "log")


def checked_config(ratio_bounds) -> ExperimentConfig:
    """A 1000-step config declaring a slope (S), an envelope (E) and a ratio (R)
    check that traces_for_checks passes."""
    cfg = ExperimentConfig(iterations=1000)
    cfg.schedule.G = 1.0
    c = cfg.checks
    c.slope_id, c.slope_expect, c.slope_kmin = "S", -0.5, 10.0
    c.envelope, c.envelope_id = "strongly_convex", "E"
    c.ratio_id, c.ratio_metric, c.ratio_k_hi, c.ratio_k_lo = "R", "grad_norm", 1000, 100
    c.ratio_min, c.ratio_max = ratio_bounds
    return cfg


def traces_for_checks(n_seeds: int) -> list[Trace]:
    """Suboptimality k^-1/2 (slope -1/2, under the envelope) and grad_norm 1."""
    return [
        Trace(ks=CHECK_KS, **{m: np.ones(len(CHECK_KS)) for m in TRACE_METRICS if m != "suboptimality"},
              suboptimality=CHECK_KS ** -0.5, seed=i, algorithm="sgd")
        for i in range(n_seeds)
    ]


class TestChecks:
    @pytest.mark.parametrize("ratio_bounds", [(0.5, ""), ("", 2.0), (0.5, 2.0)])
    def test_clean_traces_pass(self, ratio_bounds):
        verdicts = evaluate_checks(checked_config(ratio_bounds), traces_for_checks(2), {})
        assert [(v.criterion, v.passed) for v in verdicts] == [("S", True), ("E", True), ("R", True)]

    def test_nan_seed_fails_the_slope_and_names_its_k(self):
        # one of two seeds NaN at its last three records: the fit alone
        # drops those points and passes
        traces = traces_for_checks(2)
        traces[1].suboptimality[-3:] = math.nan
        verdict = evaluate_checks(checked_config((0.5, "")), traces, {})[0]
        assert not verdict.passed
        assert verdict.observed == f"non-finite value at k={CHECK_KS[-3]}"

    @settings(max_examples=200, deadline=None)
    @given(
        check=st.sampled_from(["S", "E", "R"]),
        ratio_bounds=st.sampled_from([(0.5, ""), ("", 2.0), (0.5, 2.0)]),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        data=st.data(),
    )
    def test_non_finite_checked_value_fails(self, check, ratio_bounds, bad, data):
        traces = traces_for_checks(data.draw(st.integers(1, 4)))
        seed = data.draw(st.integers(0, len(traces) - 1))
        if check == "R":
            metric, ks = "grad_norm", [100, 1000]
        else:  # the slope fits k in [10, 1000]; the envelope holds from k = 10
            metric, ks = "suboptimality", CHECK_KS[CHECK_KS >= 10]
        k = data.draw(st.sampled_from(list(ks)))
        traces[seed].metric(metric)[list(CHECK_KS).index(k)] = bad
        verdicts = evaluate_checks(checked_config(ratio_bounds), traces, {})
        (verdict,) = [v for v in verdicts if v.criterion == check]
        assert not verdict.passed


def row_wise_table(fmt, header, rows) -> bytes:
    """The bytes a row-at-a-time writer gives: repr and json.dumps per cell."""
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    else:
        lines = [json.dumps(dict(zip(header, row)), sort_keys=True) for row in rows]
    return "".join(line + "\n" for line in lines).encode("utf-8")


def same_floats(a, b) -> bool:
    """Bit-for-bit equal, any NaN equal to any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b))
                and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


names = st.text(st.characters(blacklist_characters=',"\r\n/\\', blacklist_categories=("Cs",)),
                min_size=1, max_size=12)


class TestTraceFiles:
    @pytest.mark.parametrize("block", [3, 4096])
    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_write_table_golden_bytes(self, tmp_path, monkeypatch, fmt, block):
        monkeypatch.setattr(trace_files, "_WRITE_BLOCK", block)
        floats = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1.7976931348623157e308]
        text = ['na\u00efve "q\u00fcote"', "plain"] * 3 + ["\u4e2d"]
        ints = list(range(-3, 4))
        finite = [1.5, -2.0, 1e-300, 3.0, 0.0, 2.5e-10, 123456789.0]
        header = ["zeta", "alpha", "mid", "beta"]
        columns = [np.array(text, dtype=object), np.array(floats), np.array(ints), np.array(finite)]
        write_table(tmp_path / "t", fmt, header, columns)
        rows = list(zip(text, floats, ints, finite))
        assert (tmp_path / "t").read_bytes() == row_wise_table(fmt, header, rows)

    def test_write_table_refuses_ragged_columns(self, tmp_path):
        with pytest.raises(ConfigurationError, match="length"):
            write_table(tmp_path / "t", "csv", ["a", "b"], [np.zeros(3), np.zeros(2)])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_csv_round_trip_is_exact(self, data):
        seeds = data.draw(st.lists(st.integers(0, 2**40), min_size=2, max_size=4, unique=True))
        assume(seeds != sorted(seeds))
        algorithm = data.draw(st.sampled_from(ALGORITHMS))  # a table holds one run
        traces = []
        for seed in seeds:
            ks = sorted(data.draw(st.lists(st.integers(1, 10**12), min_size=1, max_size=12,
                                           unique=True)))
            metrics = {m: np.array(data.draw(st.lists(st.floats(), min_size=len(ks),
                                                      max_size=len(ks))), dtype=float)
                       for m in CSV_METRICS}
            zeros = {m: np.zeros(len(ks)) for m in ("avg_grad_sq", "avg_min_stat")}
            traces.append(Trace(ks=np.array(ks), **metrics, **zeros, seed=seed,
                                algorithm=algorithm))
        name = data.draw(names)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            write_csv(path, name, traces)
            table = read_csv(path)
        assert len(table) == sum(len(t.ks) for t in traces)
        assert set(table["experiment"]) == {name}
        back = traces_from_rows(table)
        for want, got in zip(sorted(traces, key=lambda t: t.seed), back, strict=True):
            assert (got.seed, got.algorithm) == (want.seed, want.algorithm)
            assert np.array_equal(got.ks, want.ks)
            for m in CSV_METRICS:
                assert same_floats(got.metric(m), want.metric(m)), m

    def test_read_csv_spans_blocks(self, minimal_cfg, tmp_path, monkeypatch):
        res = run_experiment(load_config(minimal_cfg), out_dir=tmp_path, parallel=1)
        whole = read_csv(res.paths["data"])
        monkeypatch.setattr(trace_files, "_READ_BLOCK", 50)
        pieces = read_csv(res.paths["data"])
        assert list(whole) == list(pieces) == list(CSV_COLUMNS)
        for name in CSV_COLUMNS:
            assert np.array_equal(whole[name], pieces[name]), name
        for name, value in (("experiment", "smoke"), ("algorithm", "gclip")):  # stored once
            assert pieces[name].strides == (0,) and set(pieces[name]) == {value}, name

    @pytest.mark.parametrize("read_block", [50, 1 << 18])
    @pytest.mark.parametrize("column", ["experiment", "algorithm"])
    def test_read_csv_refuses_rows_of_two_runs(self, tmp_path, monkeypatch, column, read_block):
        # a table holds one run, so it stores each name once; rows of another
        # experiment or algorithm are refused, in the first block or a later one
        monkeypatch.setattr(trace_files, "_READ_BLOCK", read_block)
        ks = np.arange(1, 11)
        traces = [Trace(ks=ks, **{m: np.full(10, 0.5) for m in TRACE_METRICS}, seed=i,
                        algorithm="gclip") for i in range(2)]
        if column == "algorithm":
            traces[1].algorithm = "cclip"
            write_csv(tmp_path / "t.csv", "first", traces)
        else:
            write_csv(tmp_path / "a.csv", "first", traces[:1])
            write_csv(tmp_path / "b.csv", "second", traces[1:])
            second = (tmp_path / "b.csv").read_bytes().split(b"\n", 1)[1]
            (tmp_path / "t.csv").write_bytes((tmp_path / "a.csv").read_bytes() + second)
        mixed = "cclip, gclip" if column == "algorithm" else "first, second"
        with pytest.raises(ConfigurationError, match=f"the rows mix {column}s {mixed}$"):
            read_csv(tmp_path / "t.csv")


class TestCli:
    def test_run_exit_zero(self, minimal_cfg, tmp_path):
        assert main(["run", str(minimal_cfg), "--out", str(tmp_path)]) == 0

    def test_run_check_failure_exit_one(self, tmp_path, minimal_cfg):
        path = tmp_path / "fail.cfg"
        path.write_text(MINIMAL + "\n[checks]\nslope_expect = -9.0\nslope_tol = 0.01\n")
        assert main(["run", str(path), "--out", str(tmp_path)]) == 1

    def test_bad_config_exit_two(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("[problem]\nkind = fancy\n")
        assert main(["run", str(path), "--out", str(tmp_path)]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2

    def test_seed_flag_reproducible(self, minimal_cfg, tmp_path):
        main(["run", str(minimal_cfg), "--seed", "7", "--out", str(tmp_path / "x")])
        main(["run", str(minimal_cfg), "--seed", "7", "--out", str(tmp_path / "y")])
        a = (tmp_path / "x" / "smoke.csv").read_bytes()
        b = (tmp_path / "y" / "smoke.csv").read_bytes()
        assert a == b

    def test_override_flag(self, minimal_cfg, tmp_path):
        code = main(
            ["run", str(minimal_cfg), "-O", "experiment.iterations=50",
             "-O", "experiment.name=tweaked", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "tweaked.csv").exists()

    def test_sandwich_subcommand(self, tmp_path, capsys):
        assert main(["sandwich", "--fuzz", "1e4", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "violations=0" in out

    def test_sandwich_fails_when_the_fuzz_never_clips(self, tmp_path, capsys):
        # with g = 0 every pair sits at the no-clip ratio 1/2, so the band
        # holds but the minimum-ratio verdict fails
        assert main(["sandwich", "--g-max", "0", "--fuzz", "1e4", "--out", str(tmp_path)]) == 1
        assert "[FAIL] sandwich_min_ratio" in capsys.readouterr().out

    def test_chain_check_subcommand(self, tmp_path):
        assert main(["chain-check", "--d", "6", "--points", "2000", "--out", str(tmp_path)]) == 0

    def test_lowerbound_subcommand(self, tmp_path):
        assert main(
            ["lowerbound", "--epsilons", "0.125", "--alphas", "1.5", "--n", "1e4",
             "--out", str(tmp_path)]
        ) == 0

    def test_noise_probe_subcommand(self, tmp_path):
        assert main(
            ["noise-probe", "--family", "stable", "--a", "1.5", "--n", "2e4",
             "--out", str(tmp_path)]
        ) == 0
        assert (tmp_path / "noise_probe_variance.csv").exists()
        assert (tmp_path / "noise_probe_histogram.csv").exists()

    def test_noise_probe_jsonl(self, tmp_path):
        assert main(
            ["noise-probe", "--family", "gaussian", "--n", "1e4", "--format", "json-lines",
             "--out", str(tmp_path)]
        ) == 0
        assert (tmp_path / "noise_probe_variance.jsonl").exists()

    def test_lemma_check_subcommand(self, tmp_path):
        assert main(
            ["lemma-check", "--n", "1e4", "--taus", "2,10", "--dimension", "3",
             "--out", str(tmp_path)]
        ) == 0

    def test_report_rerender(self, minimal_cfg, tmp_path, capsys):
        main(["run", str(minimal_cfg), "--out", str(tmp_path)])
        code = main(
            ["report", "--csv", str(tmp_path / "smoke.csv"), "--metric", "suboptimality",
             "--slope-expect", "-1.0", "--slope-tol", "5.0", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "smoke.report.txt").exists()

    def test_report_does_not_invent_seed_or_wall_time(self, minimal_cfg, tmp_path, capsys):
        main(["run", str(minimal_cfg), "--seed", "777", "--out", str(tmp_path)])
        capsys.readouterr()
        assert main(["report", "--csv", str(tmp_path / "smoke.csv"), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "experiment: smoke\n" in out
        assert "master_seed: unknown\n" in out
        assert "wall_time_s: unknown\n" in out

    @pytest.mark.parametrize("slope", [[], ["--slope-expect", "-1.0"]])
    def test_report_refuses_metric_not_in_csv(self, minimal_cfg, tmp_path, capsys, slope):
        main(["run", str(minimal_cfg), "--out", str(tmp_path)])
        capsys.readouterr()
        code = main(["report", "--csv", str(tmp_path / "smoke.csv"), "--metric", "avg_grad_sq",
                     *slope, "--out", str(tmp_path / "r")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "avg_grad_sq" in err

    @pytest.mark.parametrize("kmax", ["0", "100", "50"])
    def test_report_refuses_kmax_not_above_kmin(self, minimal_cfg, tmp_path, capsys, kmax):
        # --kmax 0 is a bound like any other, not a request for the full range
        main(["run", str(minimal_cfg), "--out", str(tmp_path)])
        capsys.readouterr()
        code = main(["report", "--csv", str(tmp_path / "smoke.csv"), "--slope-expect", "-0.6667",
                     "--kmin", "100", "--kmax", kmax, "--out", str(tmp_path / "r")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert "--kmax" in captured.err

    def test_report_refuses_a_range_too_short_to_fit(self, minimal_cfg, tmp_path, capsys):
        # [88, 100] holds one of the recorded points (87 and 100 are the last two)
        main(["run", str(minimal_cfg), "--out", str(tmp_path)])
        capsys.readouterr()
        code = main(["report", "--csv", str(tmp_path / "smoke.csv"), "--slope-expect", "-0.6667",
                     "--kmin", "88", "--out", str(tmp_path / "r")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "r").exists()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and "3 positive points" in captured.err

    def test_run_refuses_a_slope_range_too_short_to_fit_before_drawing(self, tmp_path, capsys):
        # the Gaussian config records 1,972 and 2,000 last: [1990, 2000] holds one point
        out = tmp_path / "out"
        code = main(["run", str(REPO / "configs" / "strongly_convex_gaussian.cfg"),
                     "-O", "experiment.iterations=2000", "-O", "checks.slope_kmin=1990",
                     "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert "slope_kmin = 1990.0 and slope_kmax = inf hold 1 of the points" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            # flags the command would ignore
            ["report", "--csv", "smoke.csv", "--seed", "5"],
            ["report", "--csv", "smoke.csv", "--format", "json-lines"],
            ["lowerbound", "--format", "json-lines"],
            ["chain-check", "--format", "json-lines"],
            ["sandwich", "--format", "json-lines"],
            # counts that are not integers
            ["noise-probe", "--n", "2.5"],
            ["lowerbound", "--n", "nan"],
            ["chain-check", "--points", "1e-3"],
            ["sandwich", "--fuzz", "1500.5"],
            ["noise-probe", "--dimension", "2.5"],
            ["lemma-check", "--dimension", "0"],
            ["chain-check", "--d", "0"],
            # float flags that are not finite
            ["noise-probe", "--scale", "nan"],
            ["noise-probe", "--family", "pareto", "--a", "nan"],
            ["lemma-check", "--scale", "nan"],
            ["lemma-check", "--grad-norm", "nan"],
            ["lemma-check", "--alpha", "inf"],
            ["chain-check", "--p", "nan"],
            ["sandwich", "--a", "nan"],
            ["sandwich", "--g-max", "inf"],
            ["report", "--csv", "smoke.csv", "--kmin", "nan"],
            ["report", "--csv", "smoke.csv", "--slope-tol", "inf"],
            ["report", "--csv", "smoke.csv", "--slope-tol", "-1"],
            ["sandwich", "--v-max", "-5"],
            # counts below what the estimate needs
            ["noise-probe", "--block-size", "1"],
            ["noise-probe", "--block-size", "0"],
            ["noise-probe", "--bins", "0"],
            # numbers that do not parse
            ["noise-probe", "--scale", "abc"],
            ["chain-check", "--p", "x"],
        ],
        ids=" ".join,
    )
    def test_refused_argument_exits_two(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [["--a", "0"], ["--epsilon", "0", "--v-max", "0"],
                                       ["--beta2", "1.5"]],
                             ids=" ".join)
    def test_sandwich_refuses_parameters_outside_the_formula(self, tmp_path, capsys, flags):
        assert main(["sandwich", "--fuzz", "1e4", *flags, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")

    @pytest.mark.parametrize("argv", [["lemma-check", "--taus", "2,abc"],
                                      ["lemma-check", "--taus", ","],
                                      ["lowerbound", "--epsilons", "0.1,x"],
                                      ["lowerbound", "--alphas", "1.5;2"]], ids=" ".join)
    def test_number_list_flag_refused(self, tmp_path, capsys, argv):
        assert main([*argv, "--n", "1e4", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")

    @pytest.mark.parametrize("argv,name", [
        (["noise-probe", "--seed", "-1"], "--seed"),
        (["lowerbound", "--seed", "-1"], "--seed"),
        (["run", "SMOKE", "--seed", "-1"], "--seed"),
        (["run", "SMOKE", "-O", "experiment.master_seed=-1"], "master_seed"),
        (["chain-check", "--points", "0"], "point"),
        (["lowerbound", "--n", "1"], "n >= 2"),
        (["lowerbound", "--n", "0"], "n >= 2"),
        (["lowerbound", "--n", "1e19"], "at most 2**63 - 1"),
        (["lowerbound", "--epsilons", "0.125,0.3"], "epsilon must lie in (0, 1/8]"),
        (["noise-probe", "--n", "0"], "n >= 1"),
        (["run", "SMOKE", "--parallel", "0"], "--parallel"),
        (["run", "SMOKE", "--parallel", "-3"], "--parallel"),
        (["sandwich", "--v-max", "-1"], "--v-max"),
        (["report", "--csv", "MISSING"], "No such file"),
        (["report", "--csv", "DIR"], "Is a directory"),
        (["run", "SMOKE", "--out", "FILE"], "File exists"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_negative_seed_or_too_few_draws_is_one_error_line(self, minimal_cfg, tmp_path,
                                                               capsys, argv, name):
        (tmp_path / "file").write_text("")
        paths = {"SMOKE": minimal_cfg, "MISSING": tmp_path / "missing.csv", "DIR": tmp_path,
                 "FILE": tmp_path / "file"}
        argv = [str(paths.get(a, a)) for a in argv]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "out")]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the flag
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and name in errors[0]
        assert "Traceback" not in captured.err
        assert "[PASS]" not in captured.out and "[FAIL]" not in captured.out

    @pytest.mark.parametrize("alpha", ["0", "-1", "2.5"])
    def test_lemma_check_refuses_alpha_outside_the_lemma(self, tmp_path, capsys, alpha):
        assert main(["lemma-check", f"--alpha={alpha}", "--n", "1e4", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not any(tmp_path.iterdir())
        assert len(captured.err.splitlines()) == 1 and "alpha must lie in (1, 2]" in captured.err

    @pytest.mark.parametrize("flags", [["--a", "1.2", "--alpha", "1.5"],
                                       ["--family", "pareto", "--a", "1.1", "--alpha", "1.9"],
                                       ["--family", "pareto", "--a", "1.5", "--alpha", "1.5"]],
                             ids=" ".join)
    def test_lemma_check_refuses_alpha_at_or_above_the_tail_index(self, tmp_path, capsys, flags):
        # E||g||^alpha is infinite there: its bounds would read inf and every verdict pass
        assert main(["lemma-check", *flags, "--n", "1e5", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not any(tmp_path.iterdir())
        assert len(captured.err.splitlines()) == 1 and "E||g||^alpha is infinite" in captured.err

    @pytest.mark.parametrize("argv,message", [
        (["lemma-check", "--scale", "1e200"], "10000 draws estimate E||g||^alpha = inf"),
        (["lemma-check", "--grad-norm", "1e200"], "10000 draws estimate E||g||^alpha = inf"),
        (["lemma-check", "--scale", "1e150", "--taus", "1e150,1e152"], "second_moment_se = inf"),
        (["noise-probe", "--scale", "1e200"], "second moment of the first 1000 draws overflowed"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_overflowing_draws_are_refused_without_a_warning(self, tmp_path, capsys, argv,
                                                             message):
        # an overflowed square once printed a RuntimeWarning and then PASS lines
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--n", "1e4", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not any(tmp_path.iterdir())
        assert len(captured.err.splitlines()) == 1 and message in captured.err

    @pytest.mark.parametrize("taus", ["0,5", "-1,5", "nan"])
    def test_lemma_check_refuses_nonpositive_threshold(self, tmp_path, capsys, taus):
        assert main(["lemma-check", f"--taus={taus}", "--n", "1e4", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "thresholds must be positive" in err

    @pytest.mark.parametrize("taus", ["2,2", "5,2,5", "2,2.0,10"])
    def test_lemma_check_refuses_a_repeated_threshold(self, tmp_path, capsys, taus):
        # its monotonicity verdicts would compare a probe with itself and could not fail
        assert main(["lemma-check", f"--taus={taus}", "--n", "1e4", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not any(tmp_path.iterdir())
        assert len(captured.err.splitlines()) == 1 and "thresholds must differ" in captured.err

    @pytest.mark.parametrize("argv", [
        ["noise-probe", "--dimension", "1e1", "--n", "1e4"],
        ["lemma-check", "--dimension", "1e1", "--n", "1e4"],
        ["chain-check", "--d", "1e1", "--points", "1e3"],
    ], ids=" ".join)
    def test_count_flags_take_the_spellings_of_n(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path)]) == 0
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        ["experiment.name=a,b"],
        ["noise.scale=nan"],
        ["checks.envelope=strongly_convex"],
        ["checks.slope_expect=-0.5", "checks.slope_kmin=5000"],
        ["schedule.G="],
        ["problem.radius="],
        ["checks.ratio_stat=bogus", "checks.ratio_metric=grad_norm", "checks.ratio_k_hi=100",
         "checks.ratio_k_lo=1"],
        ["checks.slope_metric=bogus", "checks.slope_expect=-0.5"],
        ["checks.ratio_metric=bogus", "checks.ratio_k_hi=100", "checks.ratio_k_lo=1"],
        ["schedule.eta=abc"],
        ["problem.x0=1.0, x"],
        ["schedule.kind=cclip", "optimizer.algorithm=cclip", "schedule.B=1.0, 2.0, 3.0"],
        ["checks.ratio_min=x"],
        ["checks.slope_id=A1 ;x"],
        ["experiment.name=a#b"],
        ["schedule.calibration_draws=0"],
        ["optimizer.acclip_alpha=0"],
        ["optimizer.beta1=1.5"],
        ["optimizer.epsilon=-1"],
        ["checks.slope_tol=-0.5"],
        ["checks.ratio_min=5", "checks.ratio_max=1"],
    ])
    def test_refused_setting_exits_two_before_compute(self, minimal_cfg, tmp_path, capsys,
                                                       overrides):
        argv = ["run", str(minimal_cfg), "--out", str(tmp_path / "out")]
        for o in overrides:
            argv += ["-O", o]
        assert main(argv) == 2
        assert not (tmp_path / "out").exists()
        assert len(capsys.readouterr().err.splitlines()) == 1

    @pytest.mark.parametrize("config,overrides,named,kind", [
        ("smoke", ["schedule.tau=0.001"], "tau", "strongly_convex"),
        ("smoke", ["schedule.eta=0.2"], "eta", "strongly_convex"),
        ("smoke", ["schedule.sigma=3"], "sigma", "strongly_convex"),
        ("smoke", ["schedule.f0=2"], "f0", "strongly_convex"),
        ("smoke", ["schedule.B=5"], "B", "strongly_convex"),
        ("sgd_divergence", ["schedule.G=3"], "G", "constant"),
        ("sgd_divergence", ["schedule.B=1"], "B", "constant"),
        ("nonconvex_decay", ["schedule.G=3"], "G", "nonconvex"),
        ("nonconvex_decay", ["schedule.tau=2"], "tau", "nonconvex"),
        ("smoke", ["schedule.kind=cclip", "optimizer.algorithm=cclip", "schedule.G=3"], "G", "cclip"),
        ("smoke", ["schedule.kind=cclip", "optimizer.algorithm=cclip", "schedule.f0=1"], "f0", "cclip"),
        ("sgd_divergence", ["schedule.calibration_draws=7"], "calibration_draws", "constant"),
        ("sgd_divergence", ["schedule.alpha=1.9"], "alpha", "constant"),
        ("smoke", ["schedule.kind=constant", "optimizer.algorithm=gclip", "problem.domain=none"],
         "calibration_draws", "constant"),
    ])
    def test_setting_the_schedule_kind_never_reads_exits_two(self, tmp_path, capsys, config,
                                                             overrides, named, kind):
        argv = ["run", str(REPO / "configs" / f"{config}.cfg"), "--out", str(tmp_path / "out")]
        for o in overrides:
            argv += ["-O", o]
        assert main(argv) == 2
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"[schedule] {named} = " in err[0] and f"kind = {kind} never" in err[0]

    @pytest.mark.parametrize("overrides", [
        ["schedule.eta=0.1", "schedule.tau=inf", "schedule.sigma=auto", "schedule.B=auto"],
        ["checks.envelope=strongly_convex", "checks.envelope_kmin=10", "schedule.G=2.0",
         "schedule.kind=constant", "optimizer.algorithm=gclip", "problem.domain=none",
         "schedule.calibration_draws=100000", "schedule.alpha=1.8"],
    ])
    def test_schedule_defaults_and_an_envelope_G_are_accepted(self, overrides):
        apply_overrides(load_config(REPO / "configs" / "smoke.cfg"), overrides)

    @pytest.mark.parametrize("mangle", ["header", "short row", "long row", "short and long rows",
                                        "text metric", "fractional k", "empty cell"])
    def test_report_refuses_malformed_csv(self, minimal_cfg, tmp_path, capsys, mangle):
        main(["run", str(minimal_cfg), "--out", str(tmp_path)])
        path = tmp_path / "smoke.csv"
        lines = path.read_text().splitlines()
        cells = lines[5].split(",")
        if mangle == "header":
            lines[0] = lines[0].replace("grad_norm", "gradnorm")
        elif mangle == "short row":
            lines[5] = ",".join(cells[:-1])
        elif mangle == "long row":
            lines[5] = ",".join(cells + ["1.0"])
        elif mangle == "short and long rows":  # the cell count of the file still fits
            lines[5] = ",".join(cells[:-1])
            lines[6] = lines[6] + ",1.0"
        elif mangle == "text metric":
            lines[5] = ",".join(cells[:4] + ["abc"] + cells[5:])
        elif mangle == "fractional k":
            lines[5] = ",".join(cells[:3] + ["1.5"] + cells[4:])
        else:
            lines[5] = ",".join(cells[:6] + [""] + cells[7:])
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["report", "--csv", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("mangle", ["repeated rows", "two experiments", "two algorithms"])
    def test_report_refuses_mismatched_rows(self, minimal_cfg, tmp_path, capsys, mangle):
        # a CSV concatenated with its own rows, or one whose second seed comes
        # from another experiment or algorithm, would be averaged as one run
        main(["run", str(minimal_cfg), "--out", str(tmp_path)])
        path = tmp_path / "smoke.csv"
        header, *rows = path.read_text().splitlines()
        if mangle == "repeated rows":
            rows += rows
        else:
            other = "other,gclip,1," if mangle == "two experiments" else "smoke,sgd,1,"
            rows = [other + r[len("smoke,gclip,1,"):] if r.startswith("smoke,gclip,1,") else r
                    for r in rows]
        path.write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        argv = ["report", "--csv", str(path), "--slope-expect", "-1.0", "--slope-tol", "5.0"]
        assert main([*argv, "--out", str(tmp_path / "r")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert ("repeat" if mangle == "repeated rows" else "mix") in captured.err

    def test_report_reads_rows_in_any_order(self, minimal_cfg, tmp_path, capsys):
        # rows out of (seed, k) order are grouped by index arrays, not slices
        main(["run", str(minimal_cfg), "--out", str(tmp_path)])
        path = tmp_path / "smoke.csv"
        argv = ["report", "--csv", str(path), "--slope-expect", "-1.0", "--slope-tol", "5.0"]
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "a")]) == 0
        ordered = capsys.readouterr().out
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *rows[::-1]]) + "\n")
        assert main([*argv, "--out", str(tmp_path / "b")]) == 0
        assert capsys.readouterr().out == ordered

    def test_report_reads_csv_without_final_newline(self, minimal_cfg, tmp_path, capsys):
        main(["run", str(minimal_cfg), "--out", str(tmp_path)])
        path = tmp_path / "smoke.csv"
        argv = ["report", "--csv", str(path), "--slope-expect", "-1.0", "--slope-tol", "5.0"]
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "a")]) == 0
        whole = capsys.readouterr().out
        path.write_text(path.read_text().rstrip("\n"))
        assert main([*argv, "--out", str(tmp_path / "b")]) == 0
        assert capsys.readouterr().out == whole

    @staticmethod
    def _after_cli_import(expr: str) -> str:
        """``expr`` printed by a fresh interpreter that has imported tailclip.cli."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = f"import sys, tailclip.cli; print({expr})"
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout.strip()

    def test_closed_stdout_exits_two_without_a_traceback(self):
        # the reader of stdout is gone before the verdicts are written, as
        # when `tailclip lowerbound | head -3` stops reading
        src = str(REPO / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen([sys.executable, "-m", "tailclip.cli", "lowerbound", "--n", "1e4"],
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err == b""

    def test_broken_pipe_off_stdout_is_one_error_line(self, monkeypatch, capsys):
        # a pipe other than stdout breaks: stdout still takes its output
        def cmd(args):
            print("written")
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli, "cmd_lowerbound", cmd)
        assert main(["lowerbound"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "written\n"
        assert captured.err == "error: [Errno 32] Broken pipe\n"

    def test_cli_import_leaves_scipy_unloaded(self):
        assert self._after_cli_import(
            "any(m.split('.')[0] == 'scipy' for m in sys.modules)") == "False"

    def test_cli_import_leaves_the_process_pool_unloaded(self):
        assert self._after_cli_import("'concurrent.futures.process' in sys.modules") == "False"

    def test_no_command_imports_scipy(self, tmp_path):
        # every subcommand runs in one fresh interpreter, and none of them
        # (chain-check's erf included) loads scipy
        golden = REPO / "tests" / "data" / "golden" / "run_smoke" / "smoke.csv"
        commands = [
            ["chain-check", "--points", "2000"],
            ["noise-probe", "--n", "2e4"],
            ["lemma-check", "--n", "2e4"],
            ["lowerbound", "--n", "2e4"],
            ["sandwich", "--fuzz", "2e4"],
            ["report", "--csv", str(golden)],
            ["run", str(REPO / "configs" / "smoke.cfg"), "--parallel", "1",
             "-O", "schedule.calibration_draws=2000"],
        ]
        code = ("import contextlib, io, json, sys\n"
                "from tailclip.cli import main\n"
                "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        assert main([*argv, '--out', f'{sys.argv[2]}/{i}']) == 0, argv\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"),
                                                           os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands), str(tmp_path)],
                              env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"


REPO = Path(__file__).resolve().parents[1]

BUNDLED = [
    "strongly_convex_alpha15",
    "strongly_convex_gaussian",
    "sgd_divergence",
    "gclip_stabilizes",
    "nonconvex_decay",
    "smoke",
]
CONFIG_FILES = sorted((REPO / "configs").glob("*.cfg")) + sorted((REPO / "perfbench" / "configs").glob("*.cfg"))
# Config keys that no config file sets, each with the reader that keeps it.
KEPT_UNSET_KEYS = {
    "optimizer.beta1": "the paper's ACClip and Adam parameters",
    "optimizer.beta2": "the paper's ACClip and Adam parameters",
    "optimizer.acclip_alpha": "the paper's ACClip parameters",
    "optimizer.epsilon": "the paper's ACClip and Adam parameters",
    "optimizer.record": "perfbench/workloads.py overrides it",
    "checks.slope_kmax": "perfbench/traced.py reads it",
}


def seed_traces(cfg: ExperimentConfig) -> list[Trace]:
    """Every seed's trace of ``cfg``, as run_experiment runs them."""
    problem, x0 = runner.build_problem(cfg)
    schedule, _ = runner.build_schedule(cfg, problem, x0)
    opt = runner.build_optimizer_config(cfg, schedule, x0, problem.domain is not None)
    return run_seeds(problem, opt, cfg.seeds, cfg.master_seed, parallel=1)


class TestStreamedRun:
    """run_experiment writes and folds each seed's trace as it arrives."""

    @pytest.mark.parametrize("overrides", [
        ["experiment.iterations=1", "experiment.seeds=20", "noise.family=stable",
         "noise.tail_index=1.1"],  # one record
        ["experiment.seeds=1"],
        ["optimizer.record=7"],
        ["noise.family=pareto", "noise.tail_index=1.05", "schedule.eta=50", "schedule.tau=inf",
         "optimizer.algorithm=sgd", "experiment.iterations=1000", "experiment.seeds=3"],
    ], ids=["K=1,S=20", "S=1", "record=7", "divergent"])
    def test_mean_trace_equals_average_traces(self, minimal_cfg, tmp_path, overrides):
        cfg = load_config(minimal_cfg)
        apply_overrides(cfg, overrides)
        res = run_experiment(cfg, out_dir=tmp_path, parallel=1)
        traces = seed_traces(cfg)
        want = average_traces(traces, stat="mean")
        if "schedule.eta=50" in overrides:  # a seed's inf and NaN enter the mean
            assert not np.all(np.isfinite(traces[0].suboptimality))
            assert not np.all(np.isfinite(want.suboptimality))
        assert np.array_equal(res.mean_trace.ks, want.ks)
        for m in TRACE_METRICS:
            assert np.array_equal(res.mean_trace.metric(m).view(np.uint64),
                                  want.metric(m).view(np.uint64)), m

    def test_workers_give_the_same_bytes_and_mean(self, minimal_cfg, tmp_path):
        cfg = load_config(minimal_cfg)
        apply_overrides(cfg, ["experiment.seeds=5", "checks.slope_expect=-1.0",
                              "checks.slope_tol=5.0", "checks.slope_kmin=1"])
        one = run_experiment(cfg, out_dir=tmp_path / "one", parallel=1)
        two = run_experiment(cfg, out_dir=tmp_path / "two", parallel=2)
        for key in ("data", "verdicts"):
            assert one.paths[key].read_bytes() == two.paths[key].read_bytes(), key
        for m in TRACE_METRICS:
            assert np.array_equal(one.mean_trace.metric(m), two.mean_trace.metric(m)), m

    def test_failed_run_leaves_no_partial_data_file(self, minimal_cfg, tmp_path, monkeypatch):
        real = optimizers._run_indexed

        def seed_one_fails(job):
            if job[3] == 1:
                raise RuntimeError("seed 1 failed")
            return real(job)

        monkeypatch.setattr(optimizers, "_run_indexed", seed_one_fails)
        with pytest.raises(RuntimeError, match="seed 1"):
            run_experiment(load_config(minimal_cfg), out_dir=tmp_path / "out", parallel=1)
        assert list((tmp_path / "out").iterdir()) == []

    def test_seeds_that_finish_out_of_order_come_back_in_seed_order(
            self, minimal_cfg, tmp_path, monkeypatch):
        # the workers fork after the patch, so they run seed 0 last to finish
        real, done = optimizers._run_indexed, tmp_path / "done"
        done.mkdir()

        def seed_zero_is_slow(job):
            if job[3] == 0:
                time.sleep(0.5)
            trace = real(job)
            (done / str(job[3])).write_text(repr(time.monotonic()))
            return trace

        cfg = load_config(minimal_cfg)
        apply_overrides(cfg, ["experiment.seeds=5", "checks.slope_expect=-1.0",
                              "checks.slope_tol=5.0", "checks.slope_kmin=1"])
        one = run_experiment(cfg, out_dir=tmp_path / "one", parallel=1)
        monkeypatch.setattr(optimizers, "_run_indexed", seed_zero_is_slow)
        two = run_experiment(cfg, out_dir=tmp_path / "two", parallel=2)
        finished = {int(p.name): float(p.read_text()) for p in done.iterdir()}
        assert sorted(finished) == [0, 1, 2, 3, 4]
        assert finished[0] > max(finished[i] for i in (1, 2, 3, 4))
        for key in ("data", "verdicts"):
            assert two.paths[key].read_bytes() == one.paths[key].read_bytes(), key

    @pytest.mark.parametrize("stop", ["seed raises", "writer raises", "reader closes"])
    def test_an_early_stop_cancels_the_seeds_not_started(
            self, minimal_cfg, tmp_path, monkeypatch, stop):
        # 20 seeds on 2 workers: the seeds not yet started are cancelled, and
        # no data file, .part file or temporary trace file is left
        real, started, tmp = optimizers._run_indexed, tmp_path / "started", tmp_path / "tmp"
        started.mkdir()
        tmp.mkdir()

        def slow_seeds(job):
            (started / str(job[3])).touch()
            if stop == "seed raises" and job[3] == 1:
                raise RuntimeError("seed 1 failed")
            time.sleep(0.05)
            return real(job)

        def refuse_rows(writer, columns):
            raise OSError("disk full")

        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        monkeypatch.setattr(optimizers, "_run_indexed", slow_seeds)
        cfg = load_config(minimal_cfg)
        apply_overrides(cfg, ["experiment.seeds=20"])
        out = tmp_path / "out"
        if stop == "reader closes":
            problem, x0 = runner.build_problem(cfg)
            schedule, _ = runner.build_schedule(cfg, problem, x0)
            opt = runner.build_optimizer_config(cfg, schedule, x0, problem.domain is not None)
            seeds = optimizers.iter_seeds(problem, opt, cfg.seeds, cfg.master_seed, parallel=2)
            assert next(seeds).seed == 0
            seeds.close()
        else:
            if stop == "writer raises":  # on the first trace the reader takes
                monkeypatch.setattr(trace_files.TableWriter, "write", refuse_rows)
            with pytest.raises((RuntimeError, OSError), match="seed 1|disk full"):
                run_experiment(cfg, out_dir=out, parallel=2)
            assert list(out.iterdir()) == []
        assert 0 < len(list(started.iterdir())) < cfg.seeds
        assert list(tmp.iterdir()) == []

    def test_a_slope_range_without_three_positive_points_fails(self, tmp_path, capsys):
        # the seed-mean clip_frac of this run is positive at one record in [1, 2000]
        smoke = str(REPO / "configs" / "smoke.cfg")
        code = main(["run", smoke, "-O", "checks.slope_expect=-0.5", "-O",
                     "checks.slope_metric=clip_frac", "-O", "schedule.tau=inf",
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] slope: log-log slope of seed-mean clip_frac (observed 1 of " in out
        assert "points positive; the fit needs 3" in out
        assert (tmp_path / "smoke.report.txt").read_text() in out
        verdicts = [json.loads(l) for l in (tmp_path / "smoke.verdicts.jsonl").read_text().splitlines()]
        assert [v["passed"] for v in verdicts] == [False]
        code = main(["report", "--csv", str(tmp_path / "smoke.csv"), "--metric", "clip_frac",
                     "--slope-expect", "-0.5", "--out", str(tmp_path / "r")])
        out = capsys.readouterr().out
        assert code == 1 and "[FAIL] slope:" in out and "points positive; the fit needs 3" in out
        assert (tmp_path / "r" / "smoke.report.txt").read_text() == out
        assert (tmp_path / "r" / "smoke.verdicts.jsonl").read_text().count("\n") == 1

    def test_bench_call_shapes(self, minimal_cfg, tmp_path):
        # perfbench/traced.py makes these calls in these shapes: one run_seeds
        # list reused by write_csv, evaluate_checks and average_traces, then
        # write_jsonl, read_csv with len(), traces_from_rows and project
        cfg = load_config(minimal_cfg)
        apply_overrides(cfg, ["problem.domain=ball", "optimizer.algorithm=proj_gclip",
                              "checks.slope_expect=-1.0", "checks.slope_tol=5.0",
                              "checks.slope_kmin=1"])
        problem, x0 = runner.build_problem(cfg)
        schedule, calibration = runner.build_schedule(cfg, problem, x0)
        opt = runner.build_optimizer_config(cfg, schedule, x0, problem.domain is not None)
        traces = optimizers.run_seeds(problem, opt, cfg.seeds, cfg.master_seed, parallel=1)
        assert isinstance(traces, list) and [t.seed for t in traces] == [0, 1]
        runner.write_csv(tmp_path / "smoke.csv", cfg.name, traces)
        verdicts = runner.evaluate_checks(cfg, traces, calibration)
        mean = optimizers.average_traces(traces, stat="mean")
        runner.write_jsonl(tmp_path / "smoke.jsonl", cfg.name, traces)

        csv_run = run_experiment(cfg, out_dir=tmp_path / "csv", parallel=1)
        jsonl_run = run_experiment(cfg, out_dir=tmp_path / "jsonl", fmt="json-lines", parallel=1)
        assert (tmp_path / "smoke.csv").read_bytes() == csv_run.paths["data"].read_bytes()
        assert (tmp_path / "smoke.jsonl").read_bytes() == jsonl_run.paths["data"].read_bytes()
        assert [v.line() for v in verdicts] == [v.line() for v in csv_run.report.verdicts]
        for m in TRACE_METRICS:
            assert np.array_equal(mean.metric(m), csv_run.mean_trace.metric(m)), m

        rows = runner.read_csv(tmp_path / "smoke.csv")
        assert len(rows) == sum(len(t.ks) for t in traces)
        for got, want in zip(runner.traces_from_rows(rows), traces, strict=True):
            assert (got.seed, got.algorithm) == (want.seed, want.algorithm)
            assert np.array_equal(got.ks, want.ks)
            for m in CSV_METRICS:
                assert np.array_equal(got.metric(m), want.metric(m)), m

        dom = problem.domain
        far = dom.center + 3.0 * dom.radius * np.eye(problem.dimension)[0]
        assert np.array_equal(project(dom, dom.center), dom.center)
        assert np.linalg.norm(project(dom, far) - dom.center) == pytest.approx(dom.radius)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# A fresh interpreter that runs one experiment and prints its peak resident
# KiB.  It reads VmHWM, the peak of its own address space: on Linux its
# ru_maxrss also counts the peak of the test process it was started from.
_PEAK_RSS_CHILD = """
import re, sys
from tailclip.config import apply_overrides, load_config
from tailclip.runner import run_experiment
cfg = load_config(sys.argv[1])
apply_overrides(cfg, sys.argv[3:])
run_experiment(cfg, out_dir=sys.argv[2], parallel=1)
with open("/proc/self/status") as status:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1))
"""


def run_peak_rss(config: Path, out_dir: Path, overrides: list[str]) -> int:
    """Peak resident bytes of a child process that runs ``config`` with ``overrides``."""
    src = str(REPO / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, str(config), str(out_dir),
                           *overrides], env=env, capture_output=True, text=True, check=True)
    return int(proc.stdout) * 1024


# A fresh interpreter that runs one CLI command on two workers and prints
# the peak resident KiB of its largest process: its own VmHWM, or the
# largest ru_maxrss of the pool workers it has reaped.
_CLI_PEAK_RSS_CHILD = """
import contextlib, io, os, re, resource, sys
from tailclip.cli import main
os.cpu_count = lambda: 2
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
with open("/proc/self/status") as status:
    own = int(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1))
print(max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss))
"""


def cli_peak_rss(argv: list[str]) -> int:
    """Peak resident bytes of the largest process of a child that runs ``argv``."""
    src = str(REPO / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _CLI_PEAK_RSS_CHILD, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return int(proc.stdout) * 1024


def test_lemma_check_memory_does_not_grow_with_n(tmp_path):
    # Each stream group of 65,536 draws is summarised where it is drawn and
    # only its figures are kept; holding the n x d draws cost 80 MB at 1e6.
    peaks = {n: cli_peak_rss(["lemma-check", "--n", n, "--out", str(tmp_path / n)])
             for n in ("2e5", "1e6")}
    assert abs(peaks["1e6"] - peaks["2e5"]) <= 2 * 2**20, peaks


def test_sandwich_memory_does_not_grow_with_the_fuzz_size(tmp_path):
    # (v, g) are drawn a sub-block at a time; holding both whole cost 16 MB at 1e6
    peaks = {n: cli_peak_rss(["sandwich", "--fuzz", n, "--out", str(tmp_path / n)])
             for n in ("2e5", "1e6")}
    assert abs(peaks["1e6"] - peaks["2e5"]) <= 2 * 2**20, peaks


def test_noise_probe_holds_two_floats_per_draw(tmp_path):
    # the squared norms and, for the tail index, their logs; the signs and
    # block sums go a run of whole blocks at a time
    peaks = {n: cli_peak_rss(["noise-probe", "--n", n, "--out", str(tmp_path / n)])
             for n in ("2e5", "1e6")}
    assert peaks["1e6"] - peaks["2e5"] <= 2 * 8 * 800_000 + 2 * 2**20, peaks


def test_chain_check_peak_is_its_points_above_a_start_up(tmp_path):
    # lowerbound draws 40 binomials, so its peak is the interpreter's and
    # numpy's; chain-check adds its (1e5, 20) points and sub-block
    # temporaries, and no scipy
    peaks = {cmd: cli_peak_rss([cmd, "--out", str(tmp_path / cmd)])
             for cmd in ("lowerbound", "chain-check")}
    assert peaks["chain-check"] - peaks["lowerbound"] <= 10**5 * 20 * 8 + 12 * 2**20, peaks


def test_run_and_report_memory_do_not_grow_with_seeds(tmp_path):
    # At d = 10, K = 2e4 and every step recorded, a seed's trace is 1.3 MB.
    # run_experiment holds one trace and the seed-sum, whatever the seed
    # count; holding every trace and a table of their rows added 2.5 MB per seed.
    # Each seed count runs in its own process, one after the other.
    config = REPO / "configs" / "strongly_convex_alpha15.cfg"
    overrides = ["schedule.G=13.5", "experiment.iterations=20000", "optimizer.record=1"]
    peaks = {seeds: run_peak_rss(config, tmp_path / str(seeds),
                                 [*overrides, f"experiment.seeds={seeds}"]) for seeds in (2, 8)}
    assert abs(peaks[8] - peaks[2]) <= 2**20, peaks
    # report reads the 8-seed table once and averages slices of its columns;
    # the experiment and algorithm columns hold one stored value each
    path = tmp_path / "8" / f"{config.stem}.csv"
    table = read_csv(path)
    column_bytes = sum(table[name].nbytes for name in CSV_COLUMNS[2:])
    del table
    peak = traced_peak(lambda: average_traces(row_traces(read_csv(path))))
    assert peak <= 1.3 * column_bytes, peak / column_bytes


class TestBundledConfigs:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_parses_and_validates(self, name):
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")
        assert cfg.name == name

    @pytest.mark.parametrize("path", CONFIG_FILES, ids=lambda p: str(p.relative_to(REPO)))
    def test_config_round_trips(self, path, tmp_path):
        # every config the CLI, the tests and the benchmark run loads, and
        # none of its settings is lost in a dump
        cfg = load_config(path)
        (tmp_path / path.name).write_text(dump_config(cfg))
        assert load_config(tmp_path / path.name) == cfg

    def test_every_config_key_is_set_by_a_config_file(self):
        # a key that no config sets and no reader keeps is a setting only
        # tests reach; an auto or empty value counts as set
        keys = set()
        for name, value in vars(ExperimentConfig()).items():
            keys |= {f"{name}.{k}" for k in vars(value)} if is_dataclass(value) else {f"experiment.{name}"}
        set_keys = set()
        for path in CONFIG_FILES:
            parser = configparser.ConfigParser(interpolation=None)
            parser.optionxform = str
            parser.read(path, encoding="utf-8")
            set_keys |= {f"{section}.{key}" for section in parser.sections() for key in parser[section]}
        assert sorted(keys - set_keys - set(KEPT_UNSET_KEYS)) == []
        assert set(KEPT_UNSET_KEYS) <= keys - set_keys  # the keep-list names only live, unset keys

    def test_strongly_convex_alpha15_declares_acceptance_checks(self):
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "strongly_convex_alpha15.cfg")
        assert cfg.checks.slope_id == "A1"
        assert float(cfg.checks.slope_expect) == pytest.approx(-2.0 / 3.0, abs=1e-4)
        assert cfg.checks.envelope == "strongly_convex"
        assert cfg.checks.envelope_id == "A2"

    def test_a4_pair_passes_at_reduced_scale(self, tmp_path):
        cfgdir = Path(__file__).resolve().parents[1] / "configs"
        scale = ["-O", "experiment.iterations=10000", "-O", "checks.ratio_k_hi=10000",
                 "-O", "experiment.seeds=8", "--out", str(tmp_path)]
        assert main(["run", str(cfgdir / "sgd_divergence.cfg"), *scale]) == 0
        assert main(["run", str(cfgdir / "gclip_stabilizes.cfg"), *scale]) == 0

    @pytest.mark.parametrize("path", sorted((REPO / "perfbench" / "configs").glob("d100_*.cfg")),
                             ids=lambda p: p.stem)
    def test_benchmark_config_runs_and_lists_what_it_estimates(self, path, tmp_path, capsys):
        # each inherits G = auto from d100_proj_gclip.cfg; only gclip's and cclip's steps
        # read a calibrated constant
        assert main(["run", str(path), "-O", "experiment.iterations=200",
                     "-O", "schedule.calibration_draws=2000", "--parallel", "1",
                     "--out", str(tmp_path)]) == 0
        calibration = calibration_keys(capsys.readouterr().out)
        algorithm = load_config(path).optimizer.algorithm
        assert ("G" in calibration) == (algorithm == "proj_gclip")
        assert ("B_norm2" in calibration) == (algorithm == "cclip")


def calibration_keys(report: str) -> list[str]:
    """The keys of a report's ``calibration:`` block."""
    lines = report.splitlines()
    if "calibration:" not in lines:
        return []
    block = lines[lines.index("calibration:") + 1:]
    return [line.split(" = ")[0].strip() for line in block[:next(
        (i for i, line in enumerate(block) if not line.startswith("  ")), len(block))]]


SMOKE_CALIBRATED = ["schedule.calibration_draws=2000"]
# (algorithm, envelope): every algorithm on smoke.cfg's G = auto, cclip under its
# own schedule kind, where an envelope has no G to read and is refused
READ_CASES = [(alg, envelope) for alg in ALGORITHMS for envelope in (False, True)
              if not (alg == "cclip" and envelope)]


def smoke_run(out: Path, *overrides: str) -> int:
    argv = ["run", str(REPO / "configs" / "smoke.cfg"), "--parallel", "1", "--out", str(out)]
    for o in (*SMOKE_CALIBRATED, *overrides):
        argv += ["-O", o]
    return main(argv)


class TestCalibratedConstants:
    """A run estimates an auto constant only where a step or a check reads
    it, and refuses an estimate that no step could use."""

    @pytest.mark.parametrize("alg,envelope", READ_CASES,
                             ids=[f"{a}{'-envelope' * e}" for a, e in READ_CASES])
    def test_G_is_estimated_and_listed_exactly_where_it_is_read(self, tmp_path, capsys,
                                                               monkeypatch, alg, envelope):
        calls = []
        monkeypatch.setattr(runner, "estimate_G",
                            lambda *args: calls.append(args) or estimate_G(*args))
        overrides = [f"optimizer.algorithm={alg}"]
        overrides += ["schedule.kind=cclip"] if alg == "cclip" else []
        overrides += ["checks.envelope=strongly_convex"] if envelope else []
        assert smoke_run(tmp_path, *overrides) in (0, 1)
        reads = alg in ("gclip", "proj_gclip") or envelope
        assert len(calls) == reads
        assert ("G" in calibration_keys(capsys.readouterr().out)) == reads
        assert ("G" in calibration_keys((tmp_path / "smoke.report.txt").read_text())) == reads

    @pytest.mark.parametrize("alg", ["sgd", "momentum_sgd", "adamlike", "acclip"])
    def test_an_unread_G_leaves_the_bytes_of_a_run_given_the_estimate(self, tmp_path, alg):
        cfg = load_config(REPO / "configs" / "smoke.cfg")
        apply_overrides(cfg, SMOKE_CALIBRATED)
        problem, x0 = runner.build_problem(cfg)
        s = cfg.schedule
        G = estimate_G(problem, x0, s.alpha, s.calibration_draws,
                       runner.calibration_stream(cfg.master_seed))
        assert smoke_run(tmp_path / "auto", f"optimizer.algorithm={alg}") == 0
        assert smoke_run(tmp_path / "given", f"optimizer.algorithm={alg}", f"schedule.G={G!r}") == 0
        assert (tmp_path / "auto" / "smoke.csv").read_bytes() == \
            (tmp_path / "given" / "smoke.csv").read_bytes()

    @pytest.mark.parametrize("config,overrides,key,estimate", [
        ("smoke", ["noise.scale=1e200"], "G", "G = inf"),
        ("smoke", ["noise.scale=1e200", "optimizer.algorithm=sgd",
                   "checks.envelope=strongly_convex"], "G", "G = inf"),
        ("smoke", ["noise.family=zero", "problem.x0=0"], "G", "G = 0.0"),
        ("smoke", ["noise.scale=1e200", "optimizer.algorithm=cclip", "schedule.kind=cclip"],
         "B", "B_norm2 = inf"),
        ("nonconvex_decay", ["noise.scale=1e200", "experiment.iterations=100",
                             "checks.ratio_k_hi=100", "checks.ratio_k_lo=10"], "sigma", "sigma = inf"),
    ])
    def test_an_estimate_no_step_can_use_is_one_error_line(self, tmp_path, capsys, config,
                                                          overrides, key, estimate):
        argv = ["run", str(REPO / "configs" / f"{config}.cfg"), "--parallel", "1",
                "--out", str(tmp_path)]
        for o in (*SMOKE_CALIBRATED, *overrides):
            argv += ["-O", o]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not list(tmp_path.iterdir())  # before any seed runs
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: [schedule] {key} = auto: ")
        assert f"2000 calibration draws estimate {estimate}," in captured.err

    @pytest.mark.parametrize("alg", ["sgd", "momentum_sgd", "adamlike", "acclip"])
    def test_zero_noise_at_the_optimum_runs_where_no_step_reads_G(self, tmp_path, capsys, alg):
        assert smoke_run(tmp_path, "noise.family=zero", "problem.x0=0",
                         f"optimizer.algorithm={alg}") == 0
        assert calibration_keys(capsys.readouterr().out) == ["mu"]
