"""Command-line interface.

Subcommands: run, noise-probe, lemma-check, lowerbound, chain-check,
sandwich, report.  Every subcommand accepts --out.  All but report take
--seed; run, noise-probe and lemma-check, which write tables, also take
--format {csv,json-lines}.  All but noise-probe print one [PASS]/[FAIL]
line per verdict.  Exit status: 0 every verdict passes (sandwich
included), 1 a verdict failed, 2 configuration or runtime error.
"""

from __future__ import annotations

import argparse
import math
import os
import select
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .config import apply_overrides, integer, load_config, number, numbers
from .diagnostics import sandwich_fuzz
from .errors import ConfigurationError
from .noise import NoiseSpec
from .report import Report
from .runner import run_experiment, slope_verdict
from .traces import CSV_METRICS, TABLE_SUFFIX, average_traces, read_csv, row_traces, write_table
from .suites import chain_suite, lemma_check, lowerbound_suite, noise_probe

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 2


def finite(raw) -> float:
    """``raw`` as a float flag value; NaN and +-inf raise, so that argparse
    refuses the flag with exit 2 before anything is drawn."""
    value = number(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def tolerance(raw) -> float:
    """``raw`` as a finite flag value of at least 0."""
    if (value := finite(raw)) < 0:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {raw!r}")
    return value


def at_least(lo: int):
    """An argparse type: an integer count of at least ``lo``."""

    def count(raw) -> int:
        value = integer(raw)
        if value < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {raw!r}")
        return value

    return count


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _table(args, stem: str, columns: dict) -> Path:
    """Write a probe table (column name -> values) as ``stem`` plus the
    --format suffix in --out."""
    path = _out_dir(args) / (stem + TABLE_SUFFIX[args.format])
    write_table(path, args.format, list(columns), [np.asarray(c) for c in columns.values()])
    return path


def _print_verdicts(verdicts) -> bool:
    ok = True
    for v in verdicts:
        print(v.line())
        ok = ok and v.passed
    return ok


def _add_common(parser: argparse.ArgumentParser, seed: bool = True, table: bool = False):
    """--out always; --seed for commands that draw, --format for those that write a table."""
    if seed:
        parser.add_argument("--seed", type=at_least(0), default=0, help="master seed (default 0)")
    parser.add_argument("--out", type=str, default="", help="output directory")
    if table:
        parser.add_argument("--format", choices=("csv", "json-lines"), default="csv",
                            help="tabular output format")


def _noise_spec_from_args(args) -> NoiseSpec:
    return NoiseSpec(
        family=args.family,
        dimension=args.dimension,
        scale=args.scale,
        tail_index=args.a,
    )


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.override:
        apply_overrides(cfg, args.override)
    if args.seed is not None:
        cfg.master_seed = args.seed
    result = run_experiment(
        cfg, out_dir=_out_dir(args), fmt=args.format, parallel=args.parallel
    )
    print(result.report.render_text(), end="")
    print(f"data: {result.paths['data']}")
    return EXIT_OK if result.report.passed else EXIT_CHECK_FAILED


def cmd_noise_probe(args) -> int:
    spec = _noise_spec_from_args(args)
    rng = np.random.default_rng(args.seed)
    res = noise_probe(spec, args.n, rng, block_size=args.block_size, bins=args.bins)
    counts, moments = zip(*res.variance_curve)
    path = _table(args, "noise_probe_variance", {"sample_count": counts, "second_moment": moments})
    hist_counts, edges = res.histogram
    _table(args, "noise_probe_histogram",
           {"bin_lo": edges[:-1], "bin_hi": edges[1:], "count": hist_counts})
    for c, v in res.variance_curve:
        print(f"n={c}: empirical second moment {v:.6g}")
    if res.tail is not None:
        print(f"tail index alpha_hat = {res.tail:.4f} (block size {args.block_size})")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_lemma_check(args) -> int:
    spec = _noise_spec_from_args(args)
    rng = np.random.default_rng(args.seed)
    taus = numbers(args.taus, "--taus")
    res = lemma_check(spec, taus, args.n, rng, args.alpha, grad_norm=args.grad_norm)
    fields = ("tau", "second_moment", "second_moment_se", "bias_norm", "bias_se",
              "bound_second_moment", "bound_bias")
    path = _table(args, "lemma_check",
                  {f: [getattr(p, f) for p in res.probes] for f in fields})
    ok = _print_verdicts(res.verdicts)
    print(f"wrote {path}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_lowerbound(args) -> int:
    rng = np.random.default_rng(args.seed)
    eps = numbers(args.epsilons, "--epsilons")
    alphas = numbers(args.alphas, "--alphas")
    res = lowerbound_suite(eps, alphas, args.n, rng)
    ok = _print_verdicts(res.verdicts)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_chain_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    res = chain_suite(args.d, args.points, rng, p=args.p)
    ok = _print_verdicts(res.verdicts)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_sandwich(args) -> int:
    rng = np.random.default_rng(args.seed)
    res = sandwich_fuzz(
        args.fuzz, rng, v_max=args.v_max, g_max=args.g_max,
        a=args.a, beta2=args.beta2, epsilon=args.epsilon,
    )
    print(
        f"fuzz n={res.n}: violations={res.violations} "
        f"min_ratio={res.min_ratio:.6f} max_ratio={res.max_ratio:.6f}"
    )
    ok = _print_verdicts(res.verdicts)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_report(args) -> int:
    # The CSV records neither the master seed nor the wall time of the run,
    # and carries only the CSV_METRICS columns.
    if args.metric not in CSV_METRICS:
        raise ConfigurationError(
            f"report: metric {args.metric!r} is not a CSV column; expected one of {CSV_METRICS}"
        )
    if args.kmax is not None and args.kmin >= args.kmax:
        raise ConfigurationError(f"report: --kmin {args.kmin:g} leaves no k to fit: it must "
                                 f"lie below --kmax {args.kmax:g}")
    table = read_csv(Path(args.csv))
    if not len(table["k"]):
        raise ConfigurationError(f"{args.csv}: no rows after the header")
    mean_trace = average_traces(row_traces(table))
    report = Report(experiment=table["experiment"][0], version=__version__)
    del table  # the fit's temporaries can take its memory
    if args.slope_expect is not None:
        kmax = float(mean_trace.ks[-1]) if args.kmax is None else args.kmax
        report.verdicts.append(slope_verdict("slope", mean_trace, args.metric, (args.kmin, kmax),
                                             args.slope_expect, args.slope_tol))
    report.write(_out_dir(args), Path(args.csv).stem)
    print(report.render_text(), end="")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailclip",
        description="Clipped stochastic gradient methods under heavy-tailed noise",
    )
    parser.add_argument("--version", action="version", version=f"tailclip {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a declarative experiment config")
    p.add_argument("config", type=str, help="path to the experiment config file")
    p.add_argument("--override", "-O", action="append", default=[],
                   metavar="SECTION.KEY=VALUE", help="override a config value")
    p.add_argument("--parallel", type=at_least(1), default=None,
                   help="worker processes across seeds and calibration draws")
    p.add_argument("--seed", type=at_least(0), default=None, help="override the master seed")
    _add_common(p, seed=False, table=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("noise-probe", help="histogram, variance curve and tail index of a noise spec")
    p.add_argument("--family", type=str, default="stable")
    p.add_argument("--a", type=finite, default=1.5, help="tail/stability index")
    p.add_argument("--scale", type=finite, default=1.0)
    p.add_argument("--dimension", type=at_least(1), default=1)
    p.add_argument("--n", type=integer, default="1e6")
    p.add_argument("--block-size", type=at_least(2), default=100)
    p.add_argument("--bins", type=at_least(1), default=50)
    _add_common(p, table=True)
    p.set_defaults(func=cmd_noise_probe)

    p = sub.add_parser("lemma-check", help="bias/variance probes over a threshold grid")
    p.add_argument("--family", type=str, default="stable")
    p.add_argument("--a", type=finite, default=1.55, help="tail/stability index of the sampler")
    p.add_argument("--scale", type=finite, default=1.0)
    p.add_argument("--dimension", type=at_least(1), default=10)
    p.add_argument("--alpha", type=finite, default=1.5, help="moment exponent of the bounds")
    p.add_argument("--taus", type=str, default="2,5,10,20,50")
    p.add_argument("--n", type=integer, default="1e6")
    p.add_argument("--grad-norm", type=finite, default=1.0)
    _add_common(p, table=True)
    p.set_defaults(func=cmd_lemma_check)

    p = sub.add_parser("lowerbound", help="validate the adversarial two-point oracle")
    p.add_argument("--epsilons", type=str, default="0.125,0.0625")
    p.add_argument("--alphas", type=str, default="1.5,2")
    p.add_argument("--n", type=integer, default="1e6")
    _add_common(p)
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser("chain-check", help="verify the chain hard instance's properties")
    p.add_argument("--d", type=at_least(1), default=20)
    p.add_argument("--points", type=integer, default="1e5")
    p.add_argument("--p", type=finite, default=0.5, help="oracle revealing probability")
    _add_common(p)
    p.set_defaults(func=cmd_chain_check)

    p = sub.add_parser("sandwich", help="fuzz the RMSProp/clipping step-size correspondence")
    p.add_argument("--fuzz", type=integer, default="1e6")
    p.add_argument("--v-max", type=tolerance, default=100.0)
    p.add_argument("--g-max", type=finite, default=100.0)
    p.add_argument("--a", type=finite, default=1e-3)
    p.add_argument("--beta2", type=finite, default=0.99)
    p.add_argument("--epsilon", type=finite, default=1e-8)
    _add_common(p)
    p.set_defaults(func=cmd_sandwich)

    p = sub.add_parser("report", help="re-render a report from a results CSV")
    p.add_argument("--csv", type=str, required=True)
    p.add_argument("--metric", type=str, default="suboptimality")
    p.add_argument("--slope-expect", type=finite, default=None)
    p.add_argument("--slope-tol", type=tolerance, default=0.15)
    p.add_argument("--kmin", type=finite, default=1.0)
    p.add_argument("--kmax", type=finite, default=None)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_report)

    return parser


def _stdout_reader_gone() -> bool:
    """Whether stdout is a pipe or socket whose reading end has closed."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no descriptor, as when captured
        return False
    poller = select.poll()
    poller.register(fd, select.POLLOUT)
    return any(events & select.POLLERR for _, events in poller.poll(0))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that has gone raises here, not at exit
        return code
    except BrokenPipeError as exc:
        if not _stdout_reader_gone():
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        # stdout's reader closed early (`| head`): the flush at exit would raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    except (ConfigurationError, OSError) as exc:  # after BrokenPipeError, an OSError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception:
        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
