"""Datasets, input normalization and neighboring-dataset bookkeeping.

Inputs live on the radius-sqrt(d) sphere so the analytic constants apply
verbatim.  Binary labels are +-1 scalars; multi-class labels are one-hot
rows.  A NeighborSet fixes one notion of adjacency and never mixes notions.
"""

from __future__ import annotations

import csv
import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .numerics import RngStream


@dataclass(frozen=True)
class Dataset:
    """Finite design matrix X (n, d); labels Y +-1 ((n,) or (n, 1)) or one-hot rows (n, o)."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-d array")
        if self.Y.shape[0] != self.X.shape[0]:
            raise ValueError("X and Y must have the same number of rows")
        if self.Y.ndim not in (1, 2):
            raise ValueError("Y must be 1-d labels or a one-hot matrix")
        if not np.isfinite(self.X).all():
            raise ValueError("X must be finite")
        # the losses read one output's label as a sign, several outputs' as a one-hot row
        Y = self.Y
        if self.num_outputs == 1 and not ((Y == 1) | (Y == -1)).all():
            raise ValueError("single-output labels must be -1 or +1")
        if self.num_outputs > 1 and not (((Y == 0) | (Y == 1)).all() and (Y.sum(1) == 1).all()):
            raise ValueError("multi-output labels must be one-hot rows")

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
    X = normalize_to_sqrt_d(gen.standard_normal((n, d)))
    Y = np.where(gen.random(n) < 0.5, -1.0, 1.0)
    return Dataset(X=X, Y=Y)


def load_csv(path, label_column: str) -> Dataset:
    """Load a dataset from a headered CSV file of finite numbers.

    Feature columns are everything except ``label_column``; every feature
    row is rescaled onto the radius-sqrt(d) sphere.  Two distinct
    label values map to -1/+1 by sorted order, so an existing -1/+1 coding
    maps to itself; three or more map to one-hot rows by sorted order.
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
    """The neighbors of n records under one adjacency notion; checked when built.

    Remove-one deletes each record; add-one inserts each record of ``pool``;
    replace-one swaps record i for pool record j over the n x m grid or, in a
    capped set, over the sorted grid positions k = i m + j in ``kept``.
    """

    notion: Neighbor
    n: int
    pool: Dataset | None = None
    kept: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.notion is Neighbor.REMOVE_ONE:
            if self.n < 2 or self.pool is not None:
                raise ValueError("remove-one needs at least two records and takes no pool")
        elif self.pool is None or self.pool.n == 0:
            raise ValueError(f"{self.notion.value} neighbors need a non-empty candidate pool")
        if self.kept is not None:
            if self.notion is not Neighbor.REPLACE_ONE:
                raise ValueError(f"only replace-one keeps grid positions, not {self.notion.value}")
            # plain Python: a numpy range check read more CLI peak RSS
            kept, grid = self.kept, self.n * self.pool.n
            # a bool is an int, but no grid position
            bad = [k for k in kept if isinstance(k, bool) or not isinstance(k, numbers.Integral)]
            if bad:
                raise ValueError(f"kept grid positions must be integers, got {bad[0]!r}")
            if not kept or kept[0] < 0 or kept[-1] >= grid:
                raise ValueError(f"kept grid positions must be at least one, all in [0, {grid})")
            if not all(a < b for a, b in zip(kept, kept[1:])):
                raise ValueError("kept grid positions must be sorted and without repeats")

    @property
    def capped(self) -> bool:
        return self.kept is not None

    @property
    def count(self) -> int:
        if self.notion is Neighbor.REMOVE_ONE:
            return self.n
        if self.notion is Neighbor.ADD_ONE:
            return self.pool.n
        return self.n * self.pool.n if self.kept is None else len(self.kept)


def enumerate_neighbors(data: Dataset, notion: Neighbor, pool: Dataset | None = None,
                        cap: int = 256, seed: int = 0) -> NeighborSet:
    """The neighbors of ``data`` under one adjacency notion; remove-one takes no pool.

    Replace-one covers the n x pool grid or, when it is larger than ``cap``,
    ``cap`` of its positions drawn with a seeded stream.
    """
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    if notion is Neighbor.REMOVE_ONE:
        return NeighborSet(notion, data.n)
    if pool is not None and (pool.d != data.d or pool.num_outputs != data.num_outputs):
        raise ValueError("pool records must match the dataset shape")
    kept = None
    if notion is Neighbor.REPLACE_ONE and pool is not None and data.n * pool.n > cap:
        # sorted in Python: np.sort read 0.3 MB more CLI peak RSS (estimate-replace)
        picks = RngStream(seed).generator().choice(data.n * pool.n, size=cap, replace=False)
        kept = tuple(sorted(picks.tolist()))
    return NeighborSet(notion, data.n, pool, kept)
