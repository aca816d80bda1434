#!/usr/bin/env python3
"""CP decomposition of a stored sparse tensor (the paper's ML motivation).

Sparse tensors "play a pivotal role in … machine learning" (§I); the
canonical workload on them is CP decomposition driven by MTTKRP — the very
kernel CSF was designed for (SPLATT [14, 15]).  This example:

1. synthesizes a rank-3 tensor with noise, stores it as a CSF fragment,
2. reads it back from disk,
3. runs CP-ALS using the CSF-tree MTTKRP kernel,
4. reports the fit against the known ground truth.

Run:  python examples/tensor_decomposition.py
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro import SparseTensor
from repro.algebra import mttkrp_csf
from repro.formats import get_format
from repro.storage import FragmentStore, StoreOptions

SHAPE = (30, 40, 50)
RANK = 3
ITERATIONS = 15


def synthesize(rng) -> SparseTensor:
    """A genuinely sparse exactly-rank-3 tensor: sparse ground-truth
    factors make the outer-product union sparse without destroying the
    low-rank structure."""
    gt = []
    for m in SHAPE:
        u = np.abs(rng.standard_normal((m, RANK))) + 0.5
        u *= rng.random((m, RANK)) < 0.25  # sparse factor columns
        gt.append(u)
    dense = np.einsum("ir,jr,kr->ijk", *gt)
    noise = 0.001 * rng.standard_normal(SHAPE) * (dense != 0)
    return SparseTensor.from_dense(dense + noise)


def cp_als(payload, meta, shape, values, rng):
    """Plain CP-ALS over the CSF payload (unregularized, fixed iterations)."""
    factors = [rng.random((m, RANK)) + 0.1 for m in shape]
    for _ in range(ITERATIONS):
        for mode in range(len(shape)):
            m = mttkrp_csf(payload, meta, shape, values, factors, mode)
            gram = np.ones((RANK, RANK))
            for k, u in enumerate(factors):
                if k != mode:
                    gram *= u.T @ u
            factors[mode] = m @ np.linalg.pinv(gram)
    return factors


def fit(tensor: SparseTensor, factors) -> float:
    """1 - relative reconstruction error on the stored points."""
    recon = np.ones((tensor.nnz, RANK))
    for k, u in enumerate(factors):
        recon *= u[tensor.coords[:, k].astype(np.int64)]
    approx = recon.sum(axis=1)
    err = np.linalg.norm(tensor.values - approx)
    return 1.0 - err / np.linalg.norm(tensor.values)


def main() -> None:
    rng = np.random.default_rng(12)
    tensor = synthesize(rng)
    print(f"synthetic rank-{RANK} tensor {SHAPE}: nnz={tensor.nnz:,} "
          f"({tensor.density:.2%} dense)")

    root = Path(tempfile.mkdtemp(prefix="cp-"))
    try:
        store = FragmentStore(root, tensor.shape, "CSF",
                              options=StoreOptions(codec="zlib"))
        receipt = store.write_tensor(tensor)
        print(f"stored as CSF fragment: {receipt.file_nbytes:,} bytes "
              f"(zlib codec)")

        # Decompose straight off the on-disk payload.
        from repro.storage import load_fragment

        payload = load_fragment(store.fragments[0].path)
        factors = cp_als(payload.buffers, payload.meta, payload.shape,
                         payload.values, rng)
        score = fit(tensor, factors)
        print(f"CP-ALS ({ITERATIONS} iterations, CSF-tree MTTKRP): "
              f"fit = {score:.3f}")
        assert score > 0.95, "decomposition failed to recover the tensor"
        print("recovered the planted rank-3 structure.")
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
