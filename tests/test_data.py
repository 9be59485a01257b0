"""Tests for dataset construction, normalization, CSV IO and neighbor sets."""

import tracemalloc

import numpy as np
import pytest

from klpriv.data import (
    Dataset,
    Neighbor,
    enumerate_neighbors,
    load_csv,
    normalize_to_sqrt_d,
    save_csv,
    synth_sphere,
)
from klpriv.numerics import RngStream


class TestDataset:
    def test_properties(self):
        d = Dataset(X=np.zeros((4, 3)), Y=np.ones(4))
        assert (d.n, d.d, d.num_outputs) == (4, 3, 1)
        d2 = Dataset(X=np.zeros((4, 3)), Y=np.eye(4))
        assert d2.num_outputs == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(X=np.zeros(4), Y=np.ones(4))
        with pytest.raises(ValueError):
            Dataset(X=np.zeros((4, 3)), Y=np.ones(5))
        with pytest.raises(ValueError):
            Dataset(X=np.zeros((4, 3)), Y=np.ones((4, 2, 1)))


class TestNormalize:
    def test_exact_puts_rows_on_sphere(self):
        X = RngStream(1).generator().standard_normal((20, 7))
        out = normalize_to_sqrt_d(X)
        norms = np.linalg.norm(out, axis=1)
        assert np.max(np.abs(norms - np.sqrt(7.0))) <= 1e-12

    def test_row_already_on_sphere_unchanged(self):
        # (2, 0, 0, 0) has norm exactly sqrt(4): the scale factor is exactly 1
        X = np.array([[2.0, 0.0, 0.0, 0.0]])
        assert np.array_equal(normalize_to_sqrt_d(X), X)

    def test_idempotent(self):
        X = RngStream(2).generator().standard_normal((10, 5))
        once = normalize_to_sqrt_d(X)
        twice = normalize_to_sqrt_d(once)
        assert np.max(np.abs(twice - once)) <= 1e-15 * np.max(np.abs(once))

    def test_exact_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            normalize_to_sqrt_d(np.zeros((2, 3)))

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            normalize_to_sqrt_d(np.zeros(3))


class TestSynthSphere:
    def test_row_norms(self):
        data = synth_sphere(50, 9, RngStream(3))
        norms = np.linalg.norm(data.X, axis=1)
        assert np.max(np.abs(norms - 3.0)) <= 1e-12

    def test_labels_are_signs(self):
        data = synth_sphere(50, 4, RngStream(4))
        assert set(np.unique(data.Y)) <= {-1.0, 1.0}

    def test_deterministic(self):
        a = synth_sphere(10, 4, RngStream(5))
        b = synth_sphere(10, 4, RngStream(5))
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.Y, b.Y)

    def test_coordinate_means_clt(self):
        data = synth_sphere(1000, 2, RngStream(6))
        # each coordinate has mean 0 and variance d/d = 1 on the sphere
        means = data.X.mean(axis=0)
        assert np.max(np.abs(means)) <= 4.0 / np.sqrt(1000.0)

    def test_pairwise_non_parallel(self):
        data = synth_sphere(60, 5, RngStream(7))
        U = data.X / np.linalg.norm(data.X, axis=1)[:, None]
        C = np.abs(U @ U.T)
        np.fill_diagonal(C, 0.0)
        assert C.max() < 1.0 - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_sphere(0, 3, RngStream(0))
        with pytest.raises(ValueError):
            synth_sphere(3, 0, RngStream(0))


class TestCsvIO:
    def test_round_trip(self, tmp_path):
        data = synth_sphere(8, 5, RngStream(9))
        path = tmp_path / "d.csv"
        save_csv(data, path)
        back = load_csv(path, "label")
        assert back.n == 8 and back.d == 5
        assert np.max(np.abs(back.X - data.X)) <= 1e-15 * np.max(np.abs(data.X))
        assert np.array_equal(back.Y, data.Y)

    def test_existing_pm1_coding_kept(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,label\n2.0,1\n-1.0,-1\n0.5,1\n")
        data = load_csv(path, "label")
        assert np.array_equal(data.Y, [1.0, -1.0, 1.0])

    def test_two_classes_mapped_by_sorted_order(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,label\n2.0,0\n-1.0,5\n0.5,0\n")
        data = load_csv(path, "label")
        assert np.array_equal(data.Y, [-1.0, 1.0, -1.0])

    def test_three_classes_one_hot(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,x1,label\n1,0,2\n0,1,0\n1,1,1\n0,2,2\n")
        data = load_csv(path, "label")
        assert data.num_outputs == 3
        want = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        assert np.array_equal(data.Y, want)

    def test_label_column_position_free(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,x0,x1\n1,3.0,4.0\n-1,0.0,1.0\n")
        data = load_csv(path, "label")
        assert data.d == 2
        assert np.allclose(data.X[1], [0.0, np.sqrt(2.0)])

    def test_normalization_applied(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,x1,label\n3.0,4.0,1\n1.0,0.0,-1\n")
        data = load_csv(path, "label")
        norms = np.linalg.norm(data.X, axis=1)
        assert np.allclose(norms, np.sqrt(2.0), rtol=1e-12)

    def test_errors(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("")
        with pytest.raises(ValueError):
            load_csv(p, "label")
        p.write_text("x0,label\n")
        with pytest.raises(ValueError):
            load_csv(p, "label")
        p.write_text("x0,label\n1.0,1\n2.0\n")
        with pytest.raises(ValueError):
            load_csv(p, "label")
        p.write_text("x0,label\n1.0,abc\n2.0,1\n")
        with pytest.raises(ValueError):
            load_csv(p, "label")
        p.write_text("x0,label\n1.0,1\n2.0,1\n")
        with pytest.raises(ValueError):
            load_csv(p, "label")
        p.write_text("x0,y\n1.0,1\n")
        with pytest.raises(ValueError):
            load_csv(p, "label")
        with pytest.raises(ValueError):
            save_csv(Dataset(X=np.zeros((2, 2)), Y=np.eye(2)), tmp_path / "o.csv")

    @pytest.mark.parametrize("body, row", [
        ("nan,0.5,1\n1.0,2.0,-1\n", 2),
        ("1.0,0.5,1\n1.0,inf,-1\n", 3),
        ("1.0,0.5,1\n-inf,2.0,-1\n", 3),
        ("1.0,0.5,1\n1.0,2.0,-1\n0.5,0.5,nan\n", 4),
    ], ids=["nan-feature", "inf-feature", "minus-inf-feature", "nan-label"])
    def test_non_finite_cell_names_its_row(self, tmp_path, body, row):
        p = tmp_path / "bad.csv"
        p.write_text("x0,x1,label\n" + body)
        with pytest.raises(ValueError, match=f"^non-finite cell in row {row}$"):
            load_csv(p, "label")


class TestEnumerateNeighbors:
    def _data(self, n, d=3, seed=11):
        return synth_sphere(n, d, RngStream(seed))

    def test_remove_counts(self):
        ns = enumerate_neighbors(self._data(5), Neighbor.REMOVE_ONE)
        assert ns.count == 5
        assert ns.indices == tuple(range(5))
        assert ns.pool is None and not ns.capped

    def test_add_counts(self):
        ns = enumerate_neighbors(self._data(5), Neighbor.ADD_ONE, pool=self._data(3, seed=12))
        assert ns.count == 3

    def test_replace_counts(self):
        ns = enumerate_neighbors(self._data(2), Neighbor.REPLACE_ONE, pool=self._data(2, seed=13))
        assert ns.count == 4
        assert set(ns.indices) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert not ns.capped

    def test_replace_cap_deterministic(self):
        data, pool = self._data(20), self._data(20, seed=14)
        a = enumerate_neighbors(data, Neighbor.REPLACE_ONE, pool=pool, cap=100, seed=5)
        b = enumerate_neighbors(data, Neighbor.REPLACE_ONE, pool=pool, cap=100, seed=5)
        assert a.capped and a.count == 100
        assert a.indices == b.indices
        assert len(set(a.indices)) == 100
        c = enumerate_neighbors(data, Neighbor.REPLACE_ONE, pool=pool, cap=100, seed=6)
        assert c.indices != a.indices

    @pytest.mark.parametrize("n, m, cap, seed", [
        (64, 8, 256, 0), (64, 8, 256, 7), (5, 3, 4, 0), (100, 17, 99, 3), (6, 3, 256, 0),
        (2000, 50, 256, 1), (5, 3, 14, 2), (5, 3, 15, 2), (5, 3, 16, 2)])
    def test_replace_pairs_equal_the_listed_grid(self, n, m, cap, seed):
        # the reference lists the whole grid and subsamples the list
        pairs = [(i, j) for i in range(n) for j in range(m)]
        if len(pairs) > cap:
            picks = RngStream(seed).generator().choice(len(pairs), size=cap, replace=False)
            pairs = [pairs[k] for k in sorted(picks)]
        ns = enumerate_neighbors(self._data(n, d=2), Neighbor.REPLACE_ONE,
                                 pool=self._data(m, d=2, seed=17), cap=cap, seed=seed)
        assert ns.indices == tuple(pairs)
        assert all(type(k) is int for pair in ns.indices for k in pair)
        assert ns.capped == (n * m > cap)

    def test_capped_replace_pairs_take_memory_of_the_cap(self):
        # a grid of 10^6 pairs, listed in full, traces tens of MB
        data, pool = self._data(20_000, d=2), self._data(50, d=2, seed=18)
        tracemalloc.start()
        try:
            ns = enumerate_neighbors(data, Neighbor.REPLACE_ONE, pool=pool, cap=256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ns.capped and ns.count == 256
        assert peak < 256 * 1024

    def test_validation(self):
        one = self._data(2).X[:1]
        tiny = Dataset(X=one, Y=np.array([1.0]))
        with pytest.raises(ValueError):
            enumerate_neighbors(tiny, Neighbor.REMOVE_ONE)
        with pytest.raises(ValueError):
            enumerate_neighbors(self._data(4), Neighbor.ADD_ONE)
        with pytest.raises(ValueError):
            enumerate_neighbors(self._data(4), Neighbor.REPLACE_ONE, pool=None)
        with pytest.raises(ValueError):
            enumerate_neighbors(self._data(4, d=3), Neighbor.ADD_ONE,
                                pool=self._data(3, d=4, seed=15))
        for cap in (0, -5):
            with pytest.raises(ValueError, match="cap"):
                enumerate_neighbors(self._data(4), Neighbor.REPLACE_ONE,
                                    pool=self._data(3, seed=16), cap=cap)
