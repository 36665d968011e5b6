"""Per-seed traces: the record type, the seed mean, and trace tables.

A trace table file has the fixed, documented CSV schema
``experiment,algorithm,seed,k,suboptimality,grad_norm,min_grad_stat,clip_frac,eff_step``
with numbers serialized in full round-trip precision.  A JSON-lines
alternative carries the same fields.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
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


def average_traces(traces: list[Trace], stat: str = "mean") -> Trace:
    """Aggregate traces across seeds in metric space (mean or median)."""
    if not traces:
        raise ConfigurationError("no traces to average")
    ks = traces[0].ks
    for t in traces[1:]:
        if not np.array_equal(t.ks, ks):
            raise ConfigurationError("traces have mismatched record points")
    agg = np.mean if stat == "mean" else np.median
    stacked = {f: agg(np.stack([t.metric(f) for t in traces]), axis=0) for f in TRACE_METRICS}
    return Trace(ks=ks.copy(), seed=-1, algorithm=traces[0].algorithm, **stacked)


class SeedMean:
    """average_traces(traces, stat="mean") of traces added one at a time,
    bit for bit, holding one running sum per metric instead of the traces.

    np.mean of an (S, K) stack starts from zeros and, at K >= 2, adds row
    after row, as ``+=`` does; with one record it sums the (S, 1) column
    pairwise, so there the values are kept and averaged at the end.
    ``mean`` divides the sums in place, so it ends the fold.  Metrics left
    out of ``metrics`` are not read, and their mean is zeros.
    """

    def __init__(self, metrics: tuple[str, ...] = TRACE_METRICS):
        self.metrics = metrics
        self.count = 0
        self.ks = self.algorithm = self.result = None
        self.sums: dict[str, np.ndarray | list] = {}

    def add(self, trace: Trace) -> None:
        if self.result is not None:
            raise ConfigurationError("the seed-mean is already taken")
        if self.ks is None:
            self.ks, self.algorithm = trace.ks.copy(), trace.algorithm
            self.sums = {f: [] if len(self.ks) == 1 else np.zeros(len(self.ks))
                         for f in self.metrics}
        elif not np.array_equal(trace.ks, self.ks):
            raise ConfigurationError("traces have mismatched record points")
        for f, total in self.sums.items():
            if isinstance(total, list):
                total.append(np.array(trace.metric(f)))
            else:
                total += trace.metric(f)
        self.count += 1

    def mean(self) -> Trace:
        if not self.count:
            raise ConfigurationError("no traces to average")
        if self.result is None:
            means = {f: np.zeros(len(self.ks)) for f in TRACE_METRICS}
            means.update({f: np.mean(np.stack(total), axis=0) if isinstance(total, list)
                          else np.divide(total, self.count, out=total)
                          for f, total in self.sums.items()})
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
# The type of each CSV column in a TraceTable.
_COLUMN_DTYPES = {"experiment": object, "algorithm": object, "seed": np.int64, "k": np.int64,
                  **{m: np.float64 for m in CSV_METRICS}}


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
    """Trace columns by CSV column name, typed as _COLUMN_DTYPES says;
    ``len()`` is the row count."""

    def __len__(self) -> int:
        return len(self["k"])


def trace_columns(experiment: str, trace: Trace) -> list[np.ndarray]:
    """The CSV_COLUMNS of one trace's rows; the columns that hold one value
    are read-only views of it."""
    n = len(trace.ks)

    def same(value, dtype):  # an object array keeps a str's trailing NULs
        return np.broadcast_to(np.array([value], dtype=dtype), (n,))

    return [same(experiment, object), same(trace.algorithm, object), same(trace.seed, np.int64),
            np.asarray(trace.ks, dtype=np.int64),
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
    than CSV_HEADER, a line without len(CSV_COLUMNS) cells or a cell its
    column cannot parse.
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
        table = TraceTable({name: np.empty(n, _COLUMN_DTYPES[name]) for name in CSV_COLUMNS})
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
                    if _COLUMN_DTYPES[name] == object:  # one str per distinct value
                        col = list(map({c: c.decode() for c in set(col)}.__getitem__, col))
                    table[name][rows] = np.array(col, dtype=_COLUMN_DTYPES[name])
                except (ValueError, OverflowError) as exc:
                    raise ConfigurationError(f"{path}: column {name}: {exc}") from None
            done += len(lines)
    if done != n:
        raise ConfigurationError(f"{path}: the file changed while it was read")
    return table


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


def _row_traces(table: TraceTable) -> Iterator[Trace]:
    """The traces of traces_from_rows, one at a time."""
    for idx in _seed_rows(table):
        n = len(table["k"][idx])
        yield Trace(
            ks=table["k"][idx],
            **{m: table[m][idx] for m in CSV_METRICS},
            **{m: np.zeros(n) for m in TRACE_METRICS if m not in CSV_METRICS},
            seed=int(table["seed"][idx][0]),
            algorithm=table["algorithm"][idx][0],
        )


def traces_from_rows(table: TraceTable) -> list[Trace]:
    """Per-seed traces, seeds ascending and each sorted by k.

    The CSV does not carry the running means, so those metrics are zeros.
    Raises ConfigurationError for a repeated (seed, k) row.
    """
    return list(_row_traces(table))


def mean_trace_of_rows(table: TraceTable) -> Trace:
    """average_traces(traces_from_rows(table)), taken one seed's rows at a
    time.  Raises ConfigurationError for rows of more than one experiment
    or algorithm, a repeated (seed, k) row or seeds recorded at different ks."""
    for name in ("experiment", "algorithm"):
        values = set(table[name])
        if len(values) > 1:
            raise ConfigurationError(f"the rows mix {name}s {', '.join(sorted(values))}")
    mean = SeedMean(CSV_METRICS)  # the running means are zeros
    for trace in _row_traces(table):
        mean.add(trace)
    return mean.mean()
