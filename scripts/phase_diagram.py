#!/usr/bin/env python3
"""Phase diagram over Pareto/Pareto models.

Sweeps the two tail indices over a grid, classifies every cell, and
prints the verdict grid (rows: arrival index, columns: service index).
The expected picture: positive recurrence above the diagonal (service
tail lighter than arrival tail), loss of positive recurrence below it.
Cells with arrival index above 1 (finite-mean arrivals) and service index
below 1 are transient in closed form, with no series run (source
"analytic").

    python3 scripts/phase_diagram.py --n-max 20000 --reps 100 --csv out.csv
"""

import argparse
import csv
import sys

from maxdater import ModelSpec, Stream
from maxdater.classify import ClassifierConfig, classify
from maxdater.dists import Pareto

SHORT = {
    "positive_recurrent": "PR",
    "null_recurrent": "NR",
    "transient": "TR",
    "inconclusive": "??",
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--indices", type=float, nargs="+",
                    default=[0.3, 0.5, 0.8, 1.1, 1.5])
    ap.add_argument("--n-max", type=int, default=20_000)
    ap.add_argument("--reps", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args(argv)

    cfg = ClassifierConfig(n_max=args.n_max, reps=args.reps)
    rows = []
    cells = {}
    for i, a_arr in enumerate(args.indices):
        for j, a_svc in enumerate(args.indices):
            m = ModelSpec(Pareto(a_arr, 1.0), Pareto(a_svc, 1.0))
            stream = Stream.from_seed(args.seed).child(i * 100 + j)
            rep = classify(m, cfg, stream)
            cells[(a_arr, a_svc)] = rep.verdict.value
            rows.append((a_arr, a_svc, rep.verdict.value, rep.source.value))
            print(f"arr {a_arr:4.2f}  svc {a_svc:4.2f}  ->  "
                  f"{rep.verdict.value} ({rep.source.value})", file=sys.stderr)

    head = "arr\\svc " + " ".join(f"{a:5.2f}" for a in args.indices)
    print(head)
    for a_arr in args.indices:
        line = " ".join(f"{SHORT[cells[(a_arr, a_svc)]]:>5s}"
                        for a_svc in args.indices)
        print(f"{a_arr:7.2f} {line}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(("arrival_index", "service_index", "verdict", "source"))
            w.writerows(rows)
        print(f"wrote {args.csv}", file=sys.stderr)


if __name__ == "__main__":
    main()
