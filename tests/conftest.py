"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SparseTensor


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def fig1_tensor() -> SparseTensor:
    """The paper's Fig 1 example: a 3x3x3 tensor with five points."""
    return SparseTensor.from_points(
        (3, 3, 3),
        [(0, 0, 1), (0, 1, 1), (0, 1, 2), (2, 2, 1), (2, 2, 2)],
        [1.0, 2.0, 3.0, 4.0, 5.0],
    )


def random_tensor(
    shape: tuple[int, ...],
    n: int,
    rng: np.random.Generator,
) -> SparseTensor:
    """A random deduplicated sparse tensor with ``<= n`` points."""
    coords = np.column_stack(
        [rng.integers(0, m, size=n, dtype=np.uint64) for m in shape]
    )
    values = rng.standard_normal(n)
    return SparseTensor(shape, coords, values).deduplicated()


@pytest.fixture
def tensor_2d(rng) -> SparseTensor:
    return random_tensor((50, 70), 300, rng)


@pytest.fixture
def tensor_3d(rng) -> SparseTensor:
    return random_tensor((20, 30, 40), 500, rng)


@pytest.fixture
def tensor_4d(rng) -> SparseTensor:
    return random_tensor((10, 12, 14, 16), 700, rng)


@pytest.fixture(params=["2d", "3d", "4d"])
def any_tensor(request, tensor_2d, tensor_3d, tensor_4d) -> SparseTensor:
    return {"2d": tensor_2d, "3d": tensor_3d, "4d": tensor_4d}[request.param]


def query_mix(
    tensor: SparseTensor, rng: np.random.Generator, n_absent: int = 50
) -> tuple[np.ndarray, np.ndarray]:
    """Queries mixing all present points with random (possibly absent) cells.

    Returns ``(query_coords, expected_found_mask)``.
    """
    from repro.core import linearize

    absent = np.column_stack(
        [rng.integers(0, m, size=n_absent, dtype=np.uint64) for m in tensor.shape]
    )
    queries = np.vstack([tensor.coords, absent])
    stored = set(linearize(tensor.coords, tensor.shape).tolist())
    q_addr = linearize(queries, tensor.shape)
    expected = np.array([int(a) in stored for a in q_addr])
    return queries, expected


@pytest.fixture
def packed_sort_calls(monkeypatch):
    """Key counts of the sorts that reach ``stable_argsort``'s packed
    kernel while the test runs."""
    from repro.core import sorting

    calls = []
    real = sorting._packed_argsort

    def spy(keys):
        calls.append(keys.shape[0])
        return real(keys)

    monkeypatch.setattr(sorting, "_packed_argsort", spy)
    return calls
