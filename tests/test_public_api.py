"""Public API integrity: exports resolve, docstrings exist, doctest runs."""

import dataclasses
import doctest
import importlib
import inspect

import pytest

import repro

SUBPACKAGES = [
    "repro.core",
    "repro.formats",
    "repro.build",
    "repro.storage",
    "repro.patterns",
    "repro.bench",
    "repro.analysis",
    "repro.algebra",
    "repro.interop",
    "repro.cli",
    "repro.obs",
    "repro.readapi",
    "repro.testing",
    "repro.storage.durability",
]

#: The checked-in public surface.  A PR that changes `repro.__all__` must
#: update this list deliberately — additions and removals alike.
EXPECTED_PUBLIC_API = sorted([
    "inner", "mttkrp", "mttkrp_encoded", "ttv",
    "Workload", "recommend",
    "run_experiment", "run_sweep",
    "CanonicalCoords", "DUPLICATE_POLICY", "encode_all", "merge_sorted_runs",
    "Box", "IndexOverflowError", "OpCounter", "ReproError", "SparseTensor",
    "delinearize", "linearize",
    "EXTENSION_FORMATS", "PAPER_FORMATS",
    "EncodedTensor", "SparseFormat",
    "available_formats", "get_format", "register_format", "resolve_format",
    "Readable", "ReadOutcome",
    "obs",
    "GSPPattern", "MSPPattern", "TSPPattern",
    "characterize", "dataset_suite", "make_pattern",
    "load_dataset", "read_matrix_market", "read_tns",
    "write_matrix_market", "write_tns",
    "fold_to_scipy", "from_scipy", "to_scipy",
    "StreamingWriter", "convert_store",
    "BlockedDataset", "FragmentCache", "FragmentStore",
    "FsckReport", "fsck",
    "ReadOptions", "ShardedStore", "StoreOptions", "StoreSnapshot",
    "__version__",
])

#: Exports the observability subsystem must keep.
EXPECTED_OBS_API = sorted([
    "DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "NULL_SPAN", "Span", "counter_add", "disable", "enable",
    "enabled_from_env", "gauge_set", "get_registry", "is_enabled", "observe",
    "render_table", "reset", "snapshot", "span", "to_json",
])


class TestExports:
    @pytest.mark.parametrize("module_name", ["repro"] + SUBPACKAGES)
    def test_module_imports(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    @pytest.mark.parametrize("module_name",
                             ["repro", "repro.core", "repro.formats",
                              "repro.build", "repro.storage",
                              "repro.patterns", "repro.bench",
                              "repro.analysis"])
    def test_all_entries_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_version(self):
        assert repro.__version__

    def test_no_private_leaks_in_all(self):
        assert all(not n.startswith("_") or n == "__version__"
                   for n in repro.__all__)

    def test_public_surface_snapshot(self):
        """`repro.__all__` must match the checked-in surface list exactly."""
        assert sorted(repro.__all__) == EXPECTED_PUBLIC_API

    def test_obs_surface_snapshot(self):
        assert sorted(repro.obs.__all__) == EXPECTED_OBS_API

    def test_readapi_protocol_exports(self):
        from repro.readapi import Readable, ReadOutcome

        assert repro.Readable is Readable
        assert repro.ReadOutcome is ReadOutcome


class TestStoreReadTuningSurface:
    """Every storage-backed Readable shares one keyword-only tuning surface.

    ``repro.readapi.STORE_READ_TUNING`` is the checked-in snapshot; a PR
    that renames, adds or drops one of these parameters on any store's
    or view's ``read_points``/``read_box`` must update the snapshot
    deliberately (and with it ``docs/READ_PATH.md``).
    """

    def test_snapshot_value(self):
        from repro.readapi import STORE_READ_TUNING

        assert STORE_READ_TUNING == ("options",)

    @pytest.mark.parametrize("cls_name", [
        "FragmentStore", "BlockedDataset", "ShardedStore",
        "StoreSnapshot", "ShardedSnapshot",
    ])
    @pytest.mark.parametrize("method", ["read_points", "read_box"])
    def test_stores_accept_tuning_keywords(self, cls_name, method):
        """Exactly the snapshot's keyword-only parameters, no catch-all."""
        from repro.readapi import STORE_READ_TUNING

        cls = getattr(importlib.import_module("repro.storage"), cls_name)
        sig = inspect.signature(getattr(cls, method))
        keyword_only = tuple(
            name for name, param in sig.parameters.items()
            if param.kind is inspect.Parameter.KEYWORD_ONLY
        )
        assert keyword_only == STORE_READ_TUNING, f"{cls_name}.{method}"
        assert not any(
            param.kind is inspect.Parameter.VAR_KEYWORD
            for param in sig.parameters.values()
        ), f"{cls_name}.{method} takes **kwargs"

    def test_stores_are_readable(self):
        for cls_name in ("FragmentStore", "BlockedDataset", "ShardedStore"):
            cls = getattr(repro, cls_name)
            assert issubclass(cls, repro.Readable) or all(
                hasattr(cls, m) for m in ("read_points", "read_box")
            )

    def test_stores_accept_options_objects(self):
        """Constructors take ``options=StoreOptions`` (the consolidated API)."""
        for cls_name in ("FragmentStore", "BlockedDataset", "ShardedStore"):
            sig = inspect.signature(getattr(repro, cls_name).__init__)
            param = sig.parameters.get("options")
            assert param is not None, f"{cls_name} lacks options="
            assert param.kind is inspect.Parameter.KEYWORD_ONLY

    def test_constructors_take_no_option_keywords(self):
        """``options=`` is the only spelling of a StoreOptions field."""
        fields = {f.name for f in dataclasses.fields(repro.StoreOptions)}
        for cls_name in ("FragmentStore", "BlockedDataset", "ShardedStore"):
            sig = inspect.signature(getattr(repro, cls_name).__init__)
            keyword_only = {
                name for name, param in sig.parameters.items()
                if param.kind is inspect.Parameter.KEYWORD_ONLY
            }
            assert not keyword_only & fields, (
                f"{cls_name} spells {sorted(keyword_only & fields)} twice"
            )


class TestDocstrings:
    def test_package_doctest(self):
        """The quickstart in the package docstring must actually run."""
        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0
        assert results.attempted >= 2

    @pytest.mark.parametrize("obj", [
        repro.SparseTensor,
        repro.FragmentStore,
        repro.get_format,
        repro.recommend,
        repro.mttkrp,
        repro.linearize,
    ])
    def test_public_callables_documented(self, obj):
        assert inspect.getdoc(obj), f"{obj} lacks a docstring"

    def test_format_classes_documented(self):
        from repro.formats import available_formats, get_format

        for name in available_formats():
            fmt = get_format(name)
            assert inspect.getdoc(type(fmt)), name
            assert inspect.getdoc(type(fmt).build)
            assert inspect.getdoc(type(fmt).read_faithful) or inspect.getdoc(
                repro.formats.SparseFormat.read_faithful
            )
