"""Declarative experiment configs: a flat, sectioned key-value format.

One experiment per file, INI-style sections ([experiment], [problem],
[noise], [schedule], [optimizer], [checks], [outputs]).  An ``include``
key in [experiment] pulls defaults from another file, with the including
file winning key-by-key.  Parsing and serialization round-trip.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigurationError
from .noise import NoiseSpec
from .optimizers import ALGORITHMS, TRACE_METRICS, record_points

_SCHEDULE_KINDS = ("constant", "nonconvex", "strongly_convex", "cclip")
_PROBLEM_KINDS = ("quadratic", "nonconvex")
_DOMAIN_KINDS = ("none", "ball")


def integer(raw, key: str = "value") -> int:
    """``raw`` as an int: integral spellings such as ``1e6`` and ``2.5e3``
    pass; a fractional or non-finite value raises, naming ``key``."""
    text = str(raw).strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value.is_integer():
        raise ConfigurationError(f"{key}: expected an integer, got {raw!r}")
    return int(value)


def number(raw, key: str = "value") -> float:
    """``raw`` as a float; a spelling that is not a number raises, naming ``key``."""
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(f"{key}: expected a number, got {raw!r}") from None


def numbers(text: str, key: str = "value") -> list[float]:
    """A comma- or space-separated list of at least one number."""
    values = [number(tok, key) for tok in text.replace(",", " ").split()]
    if not values:
        raise ConfigurationError(f"{key}: expected a list of numbers, got {text!r}")
    return values


def parse_record(record: str) -> str | int:
    """``[optimizer] record`` as "log" or an integer stride."""
    return record if record == "log" else integer(record, "[optimizer] record")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


@dataclass
class ProblemSection:
    kind: str = "quadratic"
    dimension: int = 1
    mu: float = 1.0
    x_star: list[float] = field(default_factory=lambda: [0.0])
    x0: list[float] = field(default_factory=lambda: [1.0])
    domain: str = "none"
    radius: float | str = "auto"  # ball; "auto" = 2 * ||x0 - x_star||


@dataclass
class NoiseSection:
    family: str = "gaussian"
    tail_index: float = 2.0
    scale: float = 1.0

    def build(self, dimension: int) -> NoiseSpec:
        return NoiseSpec(
            family=self.family,
            dimension=dimension,
            scale=self.scale,
            tail_index=self.tail_index,
        )


@dataclass
class ScheduleSection:
    kind: str = "constant"
    eta: float = 0.1
    tau: float = math.inf
    alpha: float = 1.5
    G: float | str = "auto"
    sigma: float | str = "auto"
    f0: float | str = "auto"
    B: list[float] | str = "auto"
    calibration_draws: int = 100_000


@dataclass
class OptimizerSection:
    algorithm: str = "sgd"
    averaging: bool = False
    beta1: float = 0.9
    beta2: float = 0.99
    acclip_alpha: float = 1.0
    epsilon: float = 1e-5
    record: str = "log"  # "log" or an integer stride


@dataclass
class ChecksSection:
    slope_id: str = ""
    slope_metric: str = "suboptimality"
    slope_kmin: float = 1.0
    slope_kmax: float = math.inf
    slope_expect: float | str = ""
    slope_tol: float = 0.15
    envelope: str = ""  # "" or "strongly_convex"
    envelope_id: str = ""
    envelope_kmin: int = 10
    ratio_id: str = ""
    ratio_metric: str = ""
    ratio_k_hi: int = 0
    ratio_k_lo: int = 0
    ratio_stat: str = "median"
    ratio_min: float | str = ""
    ratio_max: float | str = ""

    def active(self) -> bool:
        return bool(self.slope_expect != "" or self.envelope or self.ratio_metric)


@dataclass
class OutputsSection:
    plots: bool = False


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    seeds: int = 1
    master_seed: int = 0
    iterations: int = 1000
    problem: ProblemSection = field(default_factory=ProblemSection)
    noise: NoiseSection = field(default_factory=NoiseSection)
    schedule: ScheduleSection = field(default_factory=ScheduleSection)
    optimizer: OptimizerSection = field(default_factory=OptimizerSection)
    checks: ChecksSection = field(default_factory=ChecksSection)
    outputs: OutputsSection = field(default_factory=OutputsSection)


_SECTIONS = ("problem", "noise", "schedule", "optimizer", "checks", "outputs")

_LIST_KEYS = {"x_star", "x0", "B"}
# Float settings whose default is inf; every other float setting must be finite.
_INF_KEYS = {("schedule", "tau"), ("checks", "slope_kmax")}
# An experiment name becomes file names and a CSV cell; in a dumped config a
# ";" or "#" in any text value would start a comment.
_NAME_FORBIDDEN = ',"\r\n/\\;#'
_ID_FORBIDDEN = "\r\n;#"
# Constants that "auto" estimates or derives, and settings that an empty value leaves unset.
_AUTO_KEYS = {"G", "sigma", "f0", "radius", "B"}
_UNSET_KEYS = {"slope_expect", "ratio_min", "ratio_max"}


def _coerce(section: str, key: str, raw: str, target):
    raw, where = raw.strip(), f"[{section}] {key}"
    if key in _AUTO_KEYS and raw.lower() == "auto":
        return "auto"
    if key in _LIST_KEYS:
        return numbers(raw, where)
    if key in _UNSET_KEYS:
        return number(raw, where) if raw else ""
    if key in _AUTO_KEYS:
        return number(raw, where)
    if isinstance(target, bool):
        if raw.lower() in ("true", "yes", "1", "on"):
            return True
        if raw.lower() in ("false", "no", "0", "off"):
            return False
        raise ConfigurationError(f"{where}: expected a boolean, got {raw!r}")
    if isinstance(target, int):
        return integer(raw, where)
    if isinstance(target, float):
        return number(raw, where)
    return raw


def _set_key(cfg: ExperimentConfig, section: str, key: str, raw: str, source):
    """Coerce ``raw`` and store it as [section] key; ``source`` names the
    file or override in error messages."""
    if section == "experiment":
        if key == "name":
            cfg.name = raw.strip()
        elif key in ("seeds", "master_seed", "iterations"):
            setattr(cfg, key, integer(raw, f"[experiment] {key}"))
        else:
            raise ConfigurationError(f"{source}: unknown key [experiment] {key}")
        return
    if section not in _SECTIONS:
        raise ConfigurationError(f"{source}: unknown section [{section}]")
    obj = getattr(cfg, section)
    if not hasattr(obj, key):
        raise ConfigurationError(f"{source}: unknown key [{section}] {key}")
    setattr(obj, key, _coerce(section, key, raw, getattr(obj, key)))


def _apply(cfg: ExperimentConfig, parser: configparser.ConfigParser, path: Path):
    for section in parser.sections():
        for key, raw in parser.items(section):
            if (section, key) != ("experiment", "include"):
                _set_key(cfg, section, key, raw, path)


def _read_parser(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    parser.optionxform = str  # keys are case-sensitive: [schedule] G and B
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    return parser


def load_config(path: str | Path, _seen: frozenset = frozenset()) -> ExperimentConfig:
    """Parse a config file, following includes, and validate it."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    resolved = path.resolve()
    if resolved in _seen:
        raise ConfigurationError(f"config include cycle at {path}")
    parser = _read_parser(path)
    include = None
    if parser.has_section("experiment") and parser.has_option("experiment", "include"):
        include = parser.get("experiment", "include").strip()
    if include:
        cfg = load_config(path.parent / include, _seen | {resolved})
    else:
        cfg = ExperimentConfig()
    _apply(cfg, parser, path)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig):
    if not cfg.name or any(ch in cfg.name for ch in _NAME_FORBIDDEN):
        raise ConfigurationError(
            f"[experiment] name = {cfg.name!r}: it names the output files and fills a CSV "
            "cell, so it must be non-empty and hold none of , \" CR LF / \\ ; #"
        )
    _check_finite(cfg)
    if cfg.seeds < 1:
        raise ConfigurationError("[experiment] seeds must be >= 1")
    if cfg.master_seed < 0:
        raise ConfigurationError("[experiment] master_seed must be >= 0")
    if cfg.iterations < 1:
        raise ConfigurationError("[experiment] iterations must be >= 1")
    p = cfg.problem
    if p.kind not in _PROBLEM_KINDS:
        raise ConfigurationError(f"[problem] kind must be one of {_PROBLEM_KINDS}")
    if p.dimension < 1:
        raise ConfigurationError("[problem] dimension must be >= 1")
    if p.kind == "quadratic" and p.mu <= 0:
        raise ConfigurationError("[problem] mu must be positive")
    if p.domain not in _DOMAIN_KINDS:
        raise ConfigurationError(f"[problem] domain = {p.domain!r}: expected one of {_DOMAIN_KINDS}")
    for section, key in (("problem", "x_star"), ("problem", "x0"), ("schedule", "B")):
        vec = getattr(getattr(cfg, section), key)
        if vec != "auto" and len(vec) not in (1, p.dimension):
            raise ConfigurationError(
                f"[{section}] {key} must be a scalar or have length {p.dimension}"
            )
    cfg.noise.build(p.dimension)  # refuses an unknown family, a bad scale or tail index
    s = cfg.schedule
    if s.kind not in _SCHEDULE_KINDS:
        raise ConfigurationError(f"[schedule] kind must be one of {_SCHEDULE_KINDS}")
    if s.kind in ("nonconvex", "strongly_convex", "cclip") and not (1.0 < s.alpha <= 2.0):
        raise ConfigurationError("[schedule] alpha must lie in (1, 2]")
    o = cfg.optimizer
    if o.algorithm not in ALGORITHMS:
        raise ConfigurationError(f"[optimizer] algorithm must be one of {ALGORITHMS}")
    if o.algorithm == "proj_gclip" and p.domain == "none":
        raise ConfigurationError("[optimizer] proj_gclip requires a [problem] domain")
    if o.algorithm == "cclip" and s.kind not in ("cclip", "constant"):
        raise ConfigurationError("[optimizer] cclip pairs with the cclip/constant schedules")
    if s.kind == "cclip" and o.algorithm != "cclip":
        raise ConfigurationError(
            "[schedule] kind = cclip gives per-coordinate thresholds, which only [optimizer] "
            f"algorithm = cclip takes (got {o.algorithm})"
        )
    record = parse_record(o.record)
    try:
        recorded = record_points(cfg.iterations, record)
    except ConfigurationError as exc:
        raise ConfigurationError(f"[optimizer] record: {exc}") from None
    c = cfg.checks
    for key in ("slope_id", "envelope_id", "ratio_id"):
        if any(ch in getattr(c, key) for ch in _ID_FORBIDDEN):
            raise ConfigurationError(
                f"[checks] {key} = {getattr(c, key)!r}: it must hold none of ; # CR LF"
            )
    for key in ("slope_metric", "ratio_metric") if c.ratio_metric else ("slope_metric",):
        if getattr(c, key) not in TRACE_METRICS:
            raise ConfigurationError(
                f"[checks] {key} = {getattr(c, key)!r}: expected one of {TRACE_METRICS}"
            )
    if c.ratio_stat not in ("median", "mean"):
        raise ConfigurationError(f"[checks] ratio_stat = {c.ratio_stat!r}: expected median or mean")
    if c.envelope and c.envelope != "strongly_convex":
        raise ConfigurationError(f"[checks] envelope = {c.envelope!r}: expected 'strongly_convex'")
    if p.kind == "nonconvex" and (s.kind in ("strongly_convex", "cclip") or c.envelope):
        raise ConfigurationError(
            "[problem] kind = nonconvex has no strong convexity constant mu, which [schedule] "
            "kind = strongly_convex or cclip and [checks] envelope need"
        )
    if c.envelope and s.kind != "strongly_convex" and isinstance(s.G, str):
        raise ConfigurationError(
            "[checks] envelope = strongly_convex needs the G constant: set [schedule] "
            "kind = strongly_convex or a numeric G"
        )
    if c.slope_expect != "" and c.slope_kmin >= min(c.slope_kmax, cfg.iterations):
        raise ConfigurationError(
            f"[checks] slope_kmin = {c.slope_kmin} leaves no k to fit: it must lie below "
            f"min(slope_kmax, iterations) = {min(c.slope_kmax, cfg.iterations)}"
        )
    if c.ratio_metric:
        if c.ratio_k_hi <= 0 or c.ratio_k_lo <= 0:
            raise ConfigurationError("[checks] ratio checks need ratio_k_hi and ratio_k_lo")
        for key in ("ratio_k_hi", "ratio_k_lo"):
            if getattr(c, key) not in recorded:
                raise ConfigurationError(
                    f"[checks] {key} = {getattr(c, key)} is not a point that [optimizer] "
                    f"record = {o.record} records in {cfg.iterations} iterations"
                )


def _check_finite(cfg: ExperimentConfig):
    """Refuse NaN in every float setting and +-inf outside _INF_KEYS."""
    for section in _SECTIONS:
        for key, value in vars(getattr(cfg, section)).items():
            inf_ok = (section, key) in _INF_KEYS
            for v in value if isinstance(value, list) else [value]:
                if isinstance(v, float) and not (math.isfinite(v) or inf_ok and not math.isnan(v)):
                    raise ConfigurationError(
                        f"[{section}] {key} = {v!r}: expected a finite number{' or inf' * inf_ok}"
                    )


def dump_config(cfg: ExperimentConfig) -> str:
    """Serialize to the sectioned key-value format (canonical key order)."""
    lines = ["[experiment]"]
    for key in ("name", "seeds", "master_seed", "iterations"):
        lines.append(f"{key} = {_fmt(getattr(cfg, key))}")
    for section in _SECTIONS:
        obj = getattr(cfg, section)
        lines.append("")
        lines.append(f"[{section}]")
        for key in vars(obj):
            val = getattr(obj, key)
            if val == "":
                continue
            lines.append(f"{key} = {_fmt(val)}")
    return "\n".join(lines) + "\n"


def apply_overrides(cfg: ExperimentConfig, overrides: list[str]):
    """Apply ``section.key=value`` overrides (CLI -O/--override)."""
    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(f"override {item!r} is not of the form section.key=value")
        target, raw = item.split("=", 1)
        if "." not in target:
            raise ConfigurationError(f"override {item!r} is not of the form section.key=value")
        section, key = target.split(".", 1)
        _set_key(cfg, section.strip(), key.strip(), raw, f"override {item!r}")
    validate_config(cfg)
