#!/usr/bin/env python3
"""Plot smoke: seed-mean curves from smoke.csv.  Requires matplotlib."""

import csv
from collections import defaultdict

import matplotlib.pyplot as plt


def load(path):
    by_k = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for row in csv.DictReader(fh):
            k = int(row["k"])
            for field in ("suboptimality", "grad_norm", "clip_frac", "eff_step"):
                by_k[field][k].append(float(row[field]))
    return by_k


def seed_mean(series):
    ks = sorted(series)
    return ks, [sum(series[k]) / len(series[k]) for k in ks]


def main():
    data = load("smoke.csv")
    fig, axes = plt.subplots(1, 3, figsize=(13, 4))
    for ax, field, ylab in (
        (axes[0], "suboptimality", "f - f*"),
        (axes[1], "grad_norm", "||grad f||"),
        (axes[2], "clip_frac", "clip fraction"),
    ):
        ks, vals = seed_mean(data[field])
        if field == "clip_frac":
            ax.semilogx(ks, vals)
        else:
            positive = [(k, v) for k, v in zip(ks, vals) if v > 0]
            if positive:
                ax.loglog(*zip(*positive))
        ax.set_xlabel("iteration k")
        ax.set_ylabel(ylab)
        ax.grid(True, which="both", alpha=0.3)
    fig.suptitle("smoke")
    fig.tight_layout()
    out = "smoke.png"
    fig.savefig(out, dpi=150)
    print("wrote", out)


if __name__ == "__main__":
    main()
