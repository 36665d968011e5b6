"""Per-seed traces: the record type, the seed mean, and trace tables.

A trace table file has the fixed, documented CSV schema
``experiment,algorithm,seed,k,suboptimality,grad_norm,min_grad_stat,clip_frac,eff_step``
with numbers serialized in full round-trip precision.  A JSON-lines
alternative carries the same fields.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import ConfigurationError

# Per-record metrics of a Trace, in field order.  The first five are the
# serialized columns; the running means exist only in memory.
CSV_METRICS = ("suboptimality", "grad_norm", "min_grad_stat", "clip_frac", "eff_step")
TRACE_METRICS = CSV_METRICS + ("avg_grad_sq", "avg_min_stat")


@dataclass
class Trace:
    """Strided per-iteration records of one optimization run.

    ``suboptimality`` is measured at the weighted-average iterate when the
    run used iterate averaging, else at the current iterate.  The running
    means ``avg_grad_sq`` and ``avg_min_stat`` accumulate over every step,
    not just recorded ones.
    """

    ks: np.ndarray
    suboptimality: np.ndarray
    grad_norm: np.ndarray
    min_grad_stat: np.ndarray
    clip_frac: np.ndarray
    eff_step: np.ndarray
    avg_grad_sq: np.ndarray
    avg_min_stat: np.ndarray
    seed: int
    algorithm: str

    def metric(self, name: str) -> np.ndarray:
        try:
            return getattr(self, name)
        except AttributeError:
            raise ConfigurationError(f"unknown trace metric {name!r}") from None


def average_traces(traces: Iterable[Trace], stat: str = "mean") -> Trace:
    """The seed mean of ``traces``, folded one at a time by SeedMean."""
    if stat != "mean":
        raise ConfigurationError(f"unknown seed statistic {stat!r}: only the mean is taken")
    mean = SeedMean()
    for trace in traces:
        mean.add(trace)
    return mean.mean()


class SeedMean:
    """The seed mean of traces added one at a time: per metric, their sum
    in the order added, from +0.0, divided by their count.  At K >= 2
    records that is np.mean of the (S, K) stack bit for bit (numpy adds its
    rows in order; at K = 1 it sums the column pairwise).  ``mean`` divides
    the sums in place, so it ends the fold."""

    def __init__(self):
        self.count = 0
        self.ks = self.algorithm = self.result = None
        self.sums: dict[str, np.ndarray] = {}

    def add(self, trace: Trace) -> None:
        if self.result is not None:
            raise ConfigurationError("the seed-mean is already taken")
        if self.ks is None:
            self.ks, self.algorithm = trace.ks.copy(), trace.algorithm
            self.sums = {f: np.zeros(len(self.ks)) for f in TRACE_METRICS}
        elif not np.array_equal(trace.ks, self.ks):
            raise ConfigurationError("traces have mismatched record points")
        for f, total in self.sums.items():
            total += trace.metric(f)
        self.count += 1

    def mean(self) -> Trace:
        if not self.count:
            raise ConfigurationError("no traces to average")
        if self.result is None:
            means = {f: np.divide(total, self.count, out=total) for f, total in self.sums.items()}
            self.sums = {}
            self.result = Trace(ks=self.ks, seed=-1, algorithm=self.algorithm, **means)
        return self.result


# ---------------------------------------------------------------------------
# Trace tables

CSV_COLUMNS = ("experiment", "algorithm", "seed", "k") + CSV_METRICS
CSV_HEADER = ",".join(CSV_COLUMNS)
TABLE_SUFFIX = {"csv": ".csv", "json-lines": ".jsonl"}
_WRITE_BLOCK = 1024  # rows formatted at a time; bounds the writer's memory
_READ_BLOCK = 1 << 18  # bytes of lines read at a time; bounds the reader's memory
# The type of each CSV column in a TraceTable but the experiment and
# algorithm names: a table holds one run, so it stores each name once.
_COLUMN_DTYPES = {"seed": np.int64, "k": np.int64, **{m: np.float64 for m in CSV_METRICS}}


def _repeated(value, dtype, n: int) -> np.ndarray:
    """A read-only column of ``n`` rows of ``value``, stored once."""
    return np.broadcast_to(np.array([value], dtype=dtype), (n,))  # object keeps a str's NULs


def _cells(col: np.ndarray, fmt: str) -> list[str]:
    """The text of a block of a column: floats as ``repr`` (JSON spells the
    non-finite ones NaN/Infinity), ints as ints, and strings as they are in
    CSV, JSON-encoded once per distinct value otherwise."""
    vals = col.tolist()
    if col.dtype.kind == "f":
        cells = list(map(float.__repr__, vals))
        if fmt != "csv":
            for i in np.flatnonzero(~np.isfinite(col)).tolist():
                cells[i] = json.dumps(vals[i])
        return cells
    if col.dtype.kind in "iu":
        return list(map(int.__repr__, vals))
    if fmt == "csv":
        return vals
    encoded = {v: json.dumps(v) for v in set(vals)}
    return [encoded[v] for v in vals]


class TableWriter:
    """Rows written to ``path`` a block of columns at a time: CSV, or the
    ``json.dumps(row, sort_keys=True)`` lines of the rows for any other
    ``fmt``, _WRITE_BLOCK rows formatted at a time.  CSV carries a header
    line and floats in full round-trip precision.

    Used as a context manager.  The rows go to ``<path>.part``, which
    replaces ``path`` when the block ends and is removed if it raises, so
    that no partial table is left at ``path``.
    """

    def __init__(self, path: Path, fmt: str, header):
        self.path, self.fmt = Path(path), fmt
        self.part = self.path.with_name(self.path.name + ".part")
        # A row is prefixes[0] cell prefixes[1] cell ... end.
        if fmt == "csv":
            self.order, head, self.end = range(len(header)), ",".join(header) + "\n", "\n"
            self.prefixes = [""] + [","] * (len(header) - 1)
        else:
            self.order, head, self.end = sorted(range(len(header)), key=header.__getitem__), "", "}\n"
            self.prefixes = [("{" if i == 0 else ", ") + json.dumps(header[j]) + ": "
                             for i, j in enumerate(self.order)]
        self.fh = open(self.part, "w", encoding="utf-8", newline="\n")
        self.fh.write(head)

    def write(self, columns: list[np.ndarray]) -> None:
        """Append the rows of ``columns``, arrays of floats, ints or str
        objects, one per header name."""
        n = len(columns[0]) if columns else 0
        if any(len(col) != n for col in columns):
            raise ConfigurationError(f"{self.path}: table columns differ in length")
        for lo in range(0, n, _WRITE_BLOCK):
            parts = []
            for prefix, j in zip(self.prefixes, self.order):
                parts += [repeat(prefix), _cells(columns[j][lo:lo + _WRITE_BLOCK], self.fmt)]
            self.fh.write("".join(chain.from_iterable(zip(*parts, repeat(self.end)))))

    def __enter__(self) -> "TableWriter":
        return self

    def __exit__(self, exc_type, *_) -> None:
        self.fh.close()
        if exc_type is None:
            self.part.replace(self.path)
        else:
            self.part.unlink(missing_ok=True)


def write_table(path: Path, fmt: str, header, columns: list[np.ndarray]):
    """Write one table, as TableWriter does."""
    with TableWriter(path, fmt, header) as writer:
        writer.write(columns)


class TraceTable(dict):
    """The rows of one run by CSV column name: the names as _repeated
    columns, the rest typed as _COLUMN_DTYPES says; ``len()`` counts rows."""

    def __len__(self) -> int:
        return len(self["k"])


def trace_columns(experiment: str, trace: Trace) -> list[np.ndarray]:
    """The CSV_COLUMNS of one trace's rows; the columns that hold one value
    are _repeated views of it."""
    n = len(trace.ks)
    return [_repeated(experiment, object, n), _repeated(trace.algorithm, object, n),
            _repeated(trace.seed, np.int64, n), np.asarray(trace.ks, dtype=np.int64),
            *(np.asarray(trace.metric(m), dtype=float) for m in CSV_METRICS)]


def _write_traces(path: Path, fmt: str, experiment: str, traces: list[Trace]):
    with TableWriter(path, fmt, CSV_COLUMNS) as writer:
        for t in sorted(traces, key=lambda t: t.seed):
            writer.write(trace_columns(experiment, t))


def write_csv(path: Path, experiment: str, traces: list[Trace]):
    """The rows of ``traces``, seeds ascending, as CSV."""
    _write_traces(path, "csv", experiment, traces)


def write_jsonl(path: Path, experiment: str, traces: list[Trace]):
    """The rows of ``traces``, seeds ascending, as JSON lines."""
    _write_traces(path, "json-lines", experiment, traces)


def read_csv(path: Path) -> TraceTable:
    """Read a trace CSV as written by write_csv.

    A first pass counts the lines, so that each column is allocated once,
    at its full length.  The second reads about _READ_BLOCK bytes of lines
    at a time: a block's cells are split once, and each column takes them
    by stride into its rows.  Raises ConfigurationError for a header other
    than CSV_HEADER, a line without len(CSV_COLUMNS) cells, a cell its
    column cannot parse, or rows that mix experiments or algorithms.
    """
    ncol = len(CSV_COLUMNS)
    with open(path, "rb") as fh:
        if fh.readline().rstrip(b"\r\n") != CSV_HEADER.encode():
            raise ConfigurationError(f"{path}: the header is not {CSV_HEADER}")
        body, n, last = fh.tell(), 0, b"\n"
        for chunk in iter(lambda: fh.read(_READ_BLOCK), b""):
            n, last = n + chunk.count(b"\n"), chunk[-1:]
        n += last != b"\n"  # a last line without its newline
        fh.seek(body)
        columns = {name: np.empty(n, dtype) for name, dtype in _COLUMN_DTYPES.items()}
        names: dict[str, str] = {}  # the run's experiment and algorithm
        done = 0
        for lines in iter(lambda: fh.readlines(_READ_BLOCK), []):
            bad = [i for i, line in enumerate(lines) if line.count(b",") != ncol - 1]
            if bad:
                raise ConfigurationError(f"{path}: line {2 + done + bad[0]} does not have {ncol} cells")
            if done + len(lines) > n:
                raise ConfigurationError(f"{path}: the file changed while it was read")
            cells = b",".join(lines).split(b",")  # the last column keeps its newline
            rows = slice(done, done + len(lines))
            for j, name in enumerate(CSV_COLUMNS):
                col = cells[j::ncol]
                try:
                    if name in columns:
                        columns[name][rows] = np.array(col, dtype=columns[name].dtype)
                        continue
                    values = {names.setdefault(name, col[0].decode()), *map(bytes.decode, set(col))}
                except (ValueError, OverflowError) as exc:
                    raise ConfigurationError(f"{path}: column {name}: {exc}") from None
                if len(values) > 1:
                    raise ConfigurationError(
                        f"{path}: the rows mix {name}s {', '.join(sorted(values))}")
            done += len(lines)
    if done != n:
        raise ConfigurationError(f"{path}: the file changed while it was read")
    return TraceTable({name: columns.get(name, _repeated(names.get(name, ""), object, n))
                       for name in CSV_COLUMNS})


def _seed_rows(table: TraceTable) -> list:
    """Each seed's rows of ``table``, seeds ascending and each by k: slices
    when the rows come in that order, as write_csv writes them, index arrays
    otherwise.  Raises ConfigurationError for a repeated (seed, k) row."""
    seed, k = table["seed"], table["k"]
    if not len(k):
        return []
    cuts = (np.flatnonzero(seed[1:] != seed[:-1]) + 1).tolist()
    bounds = list(zip([0] + cuts, cuts + [len(k)]))
    if (all(seed[a] < seed[b] for (a, _), (b, _) in zip(bounds, bounds[1:]))
            and all(np.all(k[a + 1:b] > k[a:b - 1]) for a, b in bounds)):
        return [slice(a, b) for a, b in bounds]
    order = np.lexsort((k, seed))
    groups = np.split(order, np.flatnonzero(np.diff(seed[order])) + 1)
    for idx in groups:
        same = np.flatnonzero(k[idx[1:]] == k[idx[:-1]])
        if same.size:
            raise ConfigurationError(
                f"the rows repeat seed {seed[idx[0]]} at k = {k[idx[same[0]]]}")
    return groups


def row_traces(table: TraceTable) -> Iterator[Trace]:
    """The traces of traces_from_rows, one at a time: slices of the table's
    columns when its rows come seed by seed, each by k."""
    for idx in _seed_rows(table):
        n = len(table["k"][idx])
        yield Trace(
            ks=table["k"][idx],
            **{m: table[m][idx] for m in CSV_METRICS},
            **{m: np.zeros(n) for m in TRACE_METRICS if m not in CSV_METRICS},
            seed=int(table["seed"][idx][0]),
            algorithm=table["algorithm"][0],
        )


def traces_from_rows(table: TraceTable) -> list[Trace]:
    """Per-seed traces, seeds ascending and each sorted by k.

    The CSV does not carry the running means, so those metrics are zeros.
    Raises ConfigurationError for a repeated (seed, k) row.
    """
    return list(row_traces(table))
