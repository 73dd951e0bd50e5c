"""Fixed work that measures how fast the machine is right now.

The benchmark runs this script as a child before and after every timed
`hotmine run` child and scales the child's wall time by the yardstick's
(see run.py). On a shared machine the speed of the same code drifts by
tens of percent within minutes; the yardstick drifts with it, so the
scaled time tracks the program instead of the machine.

It mixes the kinds of work the pipeline does: interpreter start-up and
numpy/scipy imports, parsing text triplets, Jaccard overlaps of small
frozensets, a row-wise argsort and sparse matrix-vector products. It does
not import hotmine, so no change to the program can change it.
"""

import numpy as np
import scipy.sparse as sp

lines = [f"{i} {i + 7} {0.1 + (i % 997) / 1e4!r}" for i in range(100_000)]
total = 0.0
for line in lines:
    i, j, v = line.split()
    total += int(j) - int(i) + float(v)

sets = [frozenset(range(k, k + 6)) for k in range(0, 200_000, 3)]
overlap = 0.0
for a, b in zip(sets, sets[1:]):
    overlap += len(a & b) / len(a | b)

rng = np.random.default_rng(0)
np.argsort(-rng.random((1000, 1000)), axis=1, kind="stable")
rows, cols = rng.integers(0, 20_000, size=(2, 200_000))
m = sp.csr_matrix((rng.random(200_000), (rows, cols)), shape=(20_000, 20_000))
x = np.ones(20_000)
for _ in range(100):
    x = m.T @ (m @ x) / max(float(x.max()), 1.0)
