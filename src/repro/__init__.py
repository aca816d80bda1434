"""repro — reproduction of *The Art of Sparsity: Mastering High-Dimensional
Tensor Storage* (Bin Dong, Kesheng Wu, Suren Byna; IPPS 2024).

The library implements the paper's five sparse-tensor storage organizations
(COO, LINEAR, GCSR++, GCSC++, CSF) plus extensions, the fragment-based
storage substrate of its benchmark system (Algorithm 3), its three
synthetic sparsity patterns (TSP/GSP/MSP), and regenerators for every table
and figure in the evaluation.

Quickstart
----------

>>> import numpy as np
>>> from repro import SparseTensor, get_format
>>> t = SparseTensor.from_points((3, 3, 3),
...     [(0, 0, 1), (0, 1, 1), (0, 1, 2), (2, 2, 1), (2, 2, 2)])
>>> encoded = get_format("LINEAR").encode(t)
>>> out = encoded.read_points(np.array([[0, 1, 1], [1, 1, 1]], dtype=np.uint64))
>>> bool(out.found[0]), bool(out.found[1])
(True, False)

Every queryable object — in-memory encodings, fragment stores, sharded
stores, blocked datasets — shares this ``read_points``/``read_box`` API
(:mod:`repro.readapi`), and the hot paths feed an always-on metrics layer
(:mod:`repro.obs`; see ``repro stats`` and ``obs.snapshot()``).

See ``examples/`` for full scenarios and ``benchmarks/`` for the paper's
tables and figures.
"""

from . import obs
from .algebra import inner, mttkrp, mttkrp_encoded, ttv
from .analysis import Workload, recommend
from .bench import run_experiment, run_sweep
from .build import (
    DUPLICATE_POLICY,
    CanonicalCoords,
    encode_all,
    merge_sorted_runs,
)
from .core import (
    Box,
    IndexOverflowError,
    OpCounter,
    ReproError,
    SparseTensor,
    delinearize,
    linearize,
)
from .formats import (
    EXTENSION_FORMATS,
    PAPER_FORMATS,
    EncodedTensor,
    SparseFormat,
    available_formats,
    get_format,
    register_format,
    resolve_format,
)
from .readapi import Readable, ReadOutcome
from .patterns import (
    GSPPattern,
    MSPPattern,
    TSPPattern,
    characterize,
    dataset_suite,
    make_pattern,
)
from .interop import fold_to_scipy, from_scipy, to_scipy
from .io import load_dataset, read_matrix_market, read_tns, write_matrix_market, write_tns
from .storage import (
    BlockedDataset,
    FragmentCache,
    FragmentStore,
    FsckReport,
    ReadOptions,
    ShardedStore,
    StoreOptions,
    StoreSnapshot,
    StreamingWriter,
    convert_store,
    fsck,
)

__version__ = "1.0.0"

__all__ = [
    "inner",
    "mttkrp",
    "mttkrp_encoded",
    "ttv",
    "Workload",
    "recommend",
    "run_experiment",
    "run_sweep",
    "CanonicalCoords",
    "DUPLICATE_POLICY",
    "encode_all",
    "merge_sorted_runs",
    "Box",
    "IndexOverflowError",
    "OpCounter",
    "ReproError",
    "SparseTensor",
    "delinearize",
    "linearize",
    "EXTENSION_FORMATS",
    "PAPER_FORMATS",
    "EncodedTensor",
    "SparseFormat",
    "available_formats",
    "get_format",
    "register_format",
    "resolve_format",
    "Readable",
    "ReadOutcome",
    "obs",
    "GSPPattern",
    "MSPPattern",
    "TSPPattern",
    "characterize",
    "dataset_suite",
    "make_pattern",
    "load_dataset",
    "read_matrix_market",
    "read_tns",
    "write_matrix_market",
    "write_tns",
    "fold_to_scipy",
    "from_scipy",
    "to_scipy",
    "StreamingWriter",
    "convert_store",
    "BlockedDataset",
    "FragmentCache",
    "FragmentStore",
    "FsckReport",
    "ReadOptions",
    "ShardedStore",
    "StoreOptions",
    "StoreSnapshot",
    "fsck",
    "__version__",
]
