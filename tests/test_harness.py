import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tailclip.cli import main
from tailclip.config import apply_overrides, dump_config, load_config, save_config
from tailclip.errors import ConfigurationError
from tailclip.runner import CSV_HEADER, read_csv, run_experiment, traces_from_rows

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


class TestConfig:
    def test_round_trip(self, minimal_cfg, tmp_path):
        cfg = load_config(minimal_cfg)
        out = tmp_path / "dumped.cfg"
        save_config(cfg, out)
        again = load_config(out)
        assert cfg == again
        # serialize -> parse -> serialize is a fixed point
        assert dump_config(cfg) == dump_config(again)

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
            ("optimizer", "warmup", "3.5"),
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
        n_rec = len(res.traces[0].ks)
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
        assert np.array_equal(traces[0].ks, res.traces[0].ks)
        assert np.array_equal(traces[0].suboptimality, res.traces[0].suboptimality)

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

    def test_plot_script_emitted(self, minimal_cfg, tmp_path):
        cfg = load_config(minimal_cfg)
        cfg.outputs.plots = True
        res = run_experiment(cfg, out_dir=tmp_path, parallel=1)
        script = res.paths["plot"].read_text()
        assert "matplotlib" in script
        compile(script, str(res.paths["plot"]), "exec")  # syntactically valid


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
        ],
        ids=" ".join,
    )
    def test_refused_argument_exits_two(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_cli_import_leaves_scipy_unloaded(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, tailclip.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "False"


BUNDLED = [
    "strongly_convex_alpha15",
    "strongly_convex_gaussian",
    "sgd_divergence",
    "gclip_stabilizes",
    "nonconvex_decay",
    "smoke",
]


class TestBundledConfigs:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_parses_and_validates(self, name):
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")
        assert cfg.name == name

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
