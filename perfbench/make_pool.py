"""Writes functor_pool.json: for each period band of functor_sweep, the
first 64 inputs (D, a, b) found by a fixed-seed draw whose theta' has a
continued-fraction period length L in [L0, 1.1*L0).  Finding them takes
seconds, so runs draw from this pool instead of searching at set-up.

    python3 perfbench/make_pool.py
"""

import json
import os
import random

import workloads

PER_BAND = 64


def main():
    rng = random.Random("functor_pool")
    pool = {}
    for L0, lo, hi in workloads.FunctorSweep.BANDS:
        cap = L0 + L0 // 10
        found = []
        while len(found) < PER_BAND:
            D = workloads._squarefree_in(rng, lo, hi)
            a, b = workloads._eps(rng, D)
            L = workloads.theta_period_length(D, a, b, cap)
            if L is not None and L >= L0:
                found.append([D, a, b, L])
        pool[str(L0)] = found
    path = os.path.join(workloads.HERE, "functor_pool.json")
    bands = [
        f'"{L0}": [\n' + ",\n".join(json.dumps(entry) for entry in entries) + "\n]"
        for L0, entries in pool.items()
    ]
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(bands) + "\n}\n")


if __name__ == "__main__":
    main()
