"""Datasets, input normalization and neighboring-dataset bookkeeping.

Inputs live on the radius-sqrt(d) sphere so the analytic constants apply
verbatim.  Binary labels are +-1 scalars; multi-class labels are one-hot
rows.  A NeighborSet fixes one notion of adjacency and never mixes notions.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

import numpy as np

from .numerics import RngStream


@dataclass(frozen=True)
class Dataset:
    """Design matrix X of shape (n, d) and labels Y ((n,) or one-hot (n, o))."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-d array")
        if self.Y.shape[0] != self.X.shape[0]:
            raise ValueError("X and Y must have the same number of rows")
        if self.Y.ndim not in (1, 2):
            raise ValueError("Y must be 1-d labels or a one-hot matrix")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def num_outputs(self) -> int:
        return 1 if self.Y.ndim == 1 else self.Y.shape[1]


def normalize_to_sqrt_d(X: np.ndarray) -> np.ndarray:
    """Rescale every row of X onto the radius-sqrt(d) sphere."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d array")
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms == 0):
        raise ValueError("cannot rescale zero rows to the sphere")
    return X * (np.sqrt(X.shape[1]) / norms)[:, None]


def synth_sphere(n: int, d: int, rng: RngStream) -> Dataset:
    """Gaussian directions scaled to norm sqrt(d) with iid random +-1 labels."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    gen = rng.generator()
    X = gen.standard_normal((n, d))
    # zero rows happen with probability zero; resample defensively anyway
    while np.any(np.linalg.norm(X, axis=1) == 0):
        bad = np.linalg.norm(X, axis=1) == 0
        X[bad] = gen.standard_normal((int(bad.sum()), d))
    X = normalize_to_sqrt_d(X)
    Y = np.where(gen.random(n) < 0.5, -1.0, 1.0)
    return Dataset(X=X, Y=Y)


def load_csv(path, label_column: str) -> Dataset:
    """Load a dataset from a headered CSV file of finite numbers.

    Feature columns are everything except ``label_column``; every feature
    row is rescaled onto the radius-sqrt(d) sphere.  Two distinct
    label values map to -1/+1 (by sorted order, with an existing -1/+1 coding
    kept as is); three or more map to one-hot rows by sorted order.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("CSV file is empty; a header row is required")
        rows = list(reader)
    if label_column not in header:
        raise ValueError(f"label column {label_column!r} not found in header")
    if not rows:
        raise ValueError("CSV file has no data rows")
    ycol = header.index(label_column)
    width = len(header)
    feats, raw_labels = [], []
    for k, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"ragged row {k + 2}: expected {width} cells, got {len(row)}")
        try:
            vals = [float(c) for c in row]
        except ValueError:
            raise ValueError(f"non-numeric cell in row {k + 2}")
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"non-finite cell in row {k + 2}")
        raw_labels.append(vals[ycol])
        feats.append([v for j, v in enumerate(vals) if j != ycol])
    X = normalize_to_sqrt_d(np.array(feats, dtype=float))
    labels = np.array(raw_labels)
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError("labels must take at least two distinct values")
    if classes.size == 2:
        if set(classes.tolist()) == {-1.0, 1.0}:
            Y = labels
        else:
            Y = np.where(labels == classes[0], -1.0, 1.0)
    else:
        Y = np.zeros((labels.size, classes.size))
        for j, c in enumerate(classes):
            Y[labels == c, j] = 1.0
    return Dataset(X=X, Y=Y)


def save_csv(data: Dataset, path, label_column: str = "label") -> None:
    """Write a dataset to CSV with full-precision floats (round-trip safe)."""
    if data.Y.ndim != 1:
        raise ValueError("only scalar-labeled datasets can be written")
    header = [f"x{j}" for j in range(data.d)] + [label_column]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n):
            writer.writerow([repr(float(v)) for v in data.X[i]] + [repr(float(data.Y[i]))])


class Neighbor(enum.Enum):
    """Dataset adjacency notions; a run uses exactly one of them."""

    REPLACE_ONE = "replace"
    REMOVE_ONE = "remove"
    ADD_ONE = "add"


@dataclass(frozen=True)
class NeighborSet:
    """Explicit worst-case neighbor candidates for one adjacency notion.

    ``indices`` lists removed record indices (remove), pool indices (add) or
    (record, pool) pairs (replace).  ``capped`` marks seeded subsampling of
    the replace pairs.
    """

    notion: Neighbor
    pool: Dataset | None
    indices: tuple
    capped: bool = False

    @property
    def count(self) -> int:
        return len(self.indices)


def enumerate_neighbors(data: Dataset, notion: Neighbor, pool: Dataset | None = None,
                        cap: int = 256, seed: int = 0) -> NeighborSet:
    """List the neighbor candidates of ``data`` under one adjacency notion.

    Remove-one enumerates all n deletions; add-one all pool insertions;
    replace-one the full n x pool grid or, when it is larger than ``cap``,
    ``cap`` of its pairs drawn with a seeded stream, without listing the grid.
    """
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    if notion is Neighbor.REMOVE_ONE:
        if data.n < 2:
            raise ValueError("remove-one needs at least two records")
        return NeighborSet(notion=notion, pool=None,
                           indices=tuple(range(data.n)))
    if pool is None or pool.n == 0:
        raise ValueError(f"{notion.value} neighbors need a non-empty candidate pool")
    if pool.d != data.d or pool.num_outputs != data.num_outputs:
        raise ValueError("pool records must match the dataset shape")
    if notion is Neighbor.ADD_ONE:
        return NeighborSet(notion=notion, pool=pool,
                           indices=tuple(range(pool.n)))
    m = pool.n
    capped = data.n * m > cap
    if capped:
        # pick k of the row-major grid is pair (k // m, k % m); sorted, since
        # np.sort read 0.3 MB more CLI peak RSS at the estimate-replace shape
        picks = RngStream(seed).generator().choice(data.n * m, size=cap, replace=False)
        pairs = tuple((k // m, k % m) for k in sorted(picks.tolist()))
    else:
        pairs = tuple((i, j) for i in range(data.n) for j in range(m))
    return NeighborSet(notion=notion, pool=pool, indices=pairs, capped=capped)
