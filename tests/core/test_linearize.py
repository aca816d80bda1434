"""Unit tests for repro.core.linearize."""

import numpy as np
import pytest

from repro.core import (
    ShapeError,
    delinearize,
    delinearize_block_local,
    fold_coords_2d,
    fold_shape_2d,
    linearize,
    linearize_block_local,
)
from repro.core.linearize import row_major_box_intervals


class TestLinearize:
    def test_paper_fig1_addresses(self, fig1_tensor):
        """Fig 1(a): LINEAR column lists 1, 4, 5, 25, 26."""
        addr = linearize(fig1_tensor.coords, fig1_tensor.shape)
        assert addr.tolist() == [1, 4, 5, 25, 26]

    def test_row_major_formula(self):
        # addr = c1*m2*m3 + c2*m3 + c3
        coords = np.array([[2, 3, 4]], dtype=np.uint64)
        addr = linearize(coords, (5, 6, 7))
        assert addr[0] == 2 * 42 + 3 * 7 + 4

    def test_column_major(self):
        coords = np.array([[2, 3, 4]], dtype=np.uint64)
        addr = linearize(coords, (5, 6, 7), order="col")
        assert addr[0] == 2 + 3 * 5 + 4 * 30

    def test_out_of_bounds_raises(self):
        with pytest.raises(ShapeError, match="outside"):
            linearize(np.array([[5, 0]], dtype=np.uint64), (5, 5))

    def test_skip_validation(self):
        # validate=False allows the caller to take responsibility.
        addr = linearize(
            np.array([[5, 0]], dtype=np.uint64), (5, 5), validate=False
        )
        assert addr[0] == 25

    def test_wrong_dim_count(self):
        with pytest.raises(ShapeError):
            linearize(np.array([[1, 2, 3]], dtype=np.uint64), (5, 5))

    def test_empty(self):
        addr = linearize(np.empty((0, 3), dtype=np.uint64), (2, 2, 2))
        assert addr.shape == (0,)

    def test_bad_order(self):
        with pytest.raises(ValueError, match="order"):
            linearize(np.array([[0, 0]], dtype=np.uint64), (2, 2), order="zig")


class TestDelinearize:
    def test_inverse_row_major(self, rng):
        shape = (7, 11, 13)
        addr = rng.integers(0, 7 * 11 * 13, size=200, dtype=np.uint64)
        coords = delinearize(addr, shape)
        assert np.array_equal(linearize(coords, shape), addr)

    def test_inverse_column_major(self, rng):
        shape = (7, 11, 13)
        addr = rng.integers(0, 7 * 11 * 13, size=200, dtype=np.uint64)
        coords = delinearize(addr, shape, order="col")
        assert np.array_equal(linearize(coords, shape, order="col"), addr)

    def test_address_out_of_range(self):
        with pytest.raises(ShapeError, match="outside"):
            delinearize(np.array([8], dtype=np.uint64), (2, 4))

    def test_requires_1d(self):
        with pytest.raises(ShapeError):
            delinearize(np.zeros((2, 2), dtype=np.uint64), (4, 4))


class TestBlockLocal:
    def test_round_trip(self):
        coords = np.array([[100, 205], [130, 260]], dtype=np.uint64)
        addr = linearize_block_local(coords, (100, 200), (64, 64))
        back = delinearize_block_local(addr, (100, 200), (64, 64))
        assert np.array_equal(back, coords)

    def test_below_origin_rejected(self):
        with pytest.raises(ShapeError, match="below"):
            linearize_block_local(
                np.array([[10, 10]], dtype=np.uint64), (20, 0), (64, 64)
            )

    def test_local_addresses_are_small(self):
        # The whole point: block-local addresses fit narrow ranges even for
        # a far-away block of a huge tensor.
        coords = np.array([[2**50, 2**50 + 3]], dtype=np.uint64)
        addr = linearize_block_local(coords, (2**50, 2**50), (16, 16))
        assert addr[0] == 3


class TestFold2D:
    def test_fold_shape_rows(self):
        # min dim 3 becomes the row count for GCSR++.
        assert fold_shape_2d((4, 3, 5), min_dim_as="rows") == (3, 20)

    def test_fold_shape_cols(self):
        assert fold_shape_2d((4, 3, 5), min_dim_as="cols") == (20, 3)

    def test_fold_preserves_linear_address(self, rng):
        shape = (6, 4, 5)
        coords = np.column_stack(
            [rng.integers(0, m, size=100, dtype=np.uint64) for m in shape]
        )
        addr = linearize(coords, shape)
        coords2d, shape2d = fold_coords_2d(coords, shape)
        addr2d = linearize(coords2d, shape2d)
        assert np.array_equal(addr, addr2d)

    def test_fold_2d_input_is_identity_for_min_rows(self, rng):
        # A 2D tensor whose first dim is smallest folds to itself
        # (GCSR++ "is essentially the 2D CSR", paper §III-C).
        shape = (5, 9)
        coords = np.column_stack(
            [rng.integers(0, m, size=50, dtype=np.uint64) for m in shape]
        )
        coords2d, shape2d = fold_coords_2d(coords, shape)
        assert shape2d == shape
        assert np.array_equal(coords2d, coords)

    def test_zero_size_dim_rejected(self):
        with pytest.raises(ShapeError):
            fold_shape_2d((0, 5))

    def test_bad_min_dim_as(self):
        with pytest.raises(ValueError):
            fold_shape_2d((2, 3), min_dim_as="diag")


class TestRowMajorBoxIntervals:
    @staticmethod
    def oracle(origin, end, shape):
        grids = np.meshgrid(
            *[np.arange(o, min(e, m), dtype=np.uint64)
              for o, e, m in zip(origin, end, shape)],
            indexing="ij",
        )
        cells = np.column_stack([g.ravel() for g in grids])
        if not cells.size:
            return set()
        return set(linearize(cells, shape).tolist())

    def test_exact_cover_and_coarse_superset(self):
        """Over random small shapes and boxes (some hanging over the
        shape's edge or empty), exact intervals cover exactly the box's
        cell addresses and budget-coarsened ones a superset; both are
        ascending and disjoint, and ``select`` keeps exactly the covered
        addresses."""
        rng = np.random.default_rng(17)
        seen = set()
        for _ in range(300):
            d = int(rng.integers(1, 5))
            shape = tuple(int(m) for m in rng.integers(1, 7, size=d))
            origin = tuple(int(rng.integers(0, m + 1)) for m in shape)
            end = tuple(
                int(rng.integers(o, m + 3)) for o, m in zip(origin, shape)
            )
            want = self.oracle(origin, end, shape)
            every = np.arange(int(np.prod(shape)), dtype=np.uint64)
            for budget in (1 << 16, int(rng.integers(1, 6))):
                iv = row_major_box_intervals(
                    origin, end, shape, max_ranges=budget
                )
                lo, hi = iv.lo.tolist(), iv.hi.tolist()
                assert len(iv) <= budget
                assert all(a <= b for a, b in zip(lo, hi))
                assert all(b < a for b, a in zip(hi, lo[1:]))
                covered = set()
                for a, b in zip(lo, hi):
                    covered.update(range(a, b + 1))
                if iv.exact:
                    assert covered == want, (origin, end, shape, budget)
                else:
                    assert want < covered, (origin, end, shape, budget)
                assert set(every[iv.select(every)].tolist()) == covered
                seen.add(iv.exact)
        assert seen == {True, False}
