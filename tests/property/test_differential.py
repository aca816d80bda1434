"""Property-based differential harness: every format vs a brute-force oracle.

The round-trip suite (``test_roundtrip.py``) checks each format against
*itself* — store then retrieve.  This suite checks each format against an
independent implementation: a plain Python dictionary (for point reads)
and a mask-filter-sort (for box reads), both deliberately free of
linearization, format machinery, and sorting tricks.  A disagreement
indicts the format, not the oracle.

Coverage axes, per the paper's input contract (§II-A):

* shapes from 1-D through 5-D with small sides,
* duplicate coordinates in the raw buffer (resolved newest-wins before
  encoding, matching the store's overlay semantics),
* empty tensors,
* float64 / float32 / int64 value dtypes,
* all five paper formats (COO, LINEAR, GCSR++, GCSC++, CSF) plus the
  HiCOO extension,
* ``read_points`` over mixed present/absent queries, and ``read_box``
  over random axis-aligned windows; store-level point queries also
  repeat rows and carry rows outside the shape (:func:`store_queries`).

Every case is seeded and reproducible: hypothesis runs derandomized, and
the store-level fuzz class derives everything from an explicit seed.
With 6 formats x ~90 examples (x2 read kinds) plus the store-level
sweeps, one run covers well over 500 differential cases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.build import encode_all
from repro.core import Box, SparseTensor
from repro.core.linearize import DEFAULT_ADDRESS_ORDER
from repro.formats import PAPER_FORMATS, get_format
from repro.storage import FragmentStore, ReadOptions, StoreOptions
from repro.storage.planner import MAX_INTERVALS
from repro.testing import (
    VALUE_DTYPES,
    oracle_read_box,
    oracle_read_points,
    random_box,
    random_queries,
    random_sparse_tensor,
)

#: Everything the differential harness sweeps: the paper's five formats
#: plus the HiCOO extension (ISSUE scope).
DIFF_FORMATS = tuple(PAPER_FORMATS) + ("HICOO",)


@st.composite
def raw_cases(draw):
    """A (tensor, queries, box) differential case.

    The raw coordinate list may contain duplicates; the tensor under test
    is the newest-wins deduplication of it, mirroring what a store's
    overlay merge would produce.
    """
    d = draw(st.integers(min_value=1, max_value=5))
    shape = tuple(
        draw(st.integers(min_value=1, max_value=6)) for _ in range(d)
    )
    n = draw(st.integers(min_value=0, max_value=40))
    coord = st.tuples(*(st.integers(0, m - 1) for m in shape))
    coords = draw(st.lists(coord, min_size=n, max_size=n))
    dtype = draw(st.sampled_from(VALUE_DTYPES))
    if np.issubdtype(np.dtype(dtype), np.integer):
        elem = st.integers(min_value=-10**6, max_value=10**6)
    else:
        elem = st.floats(min_value=-1e6, max_value=1e6,
                         allow_nan=False, allow_infinity=False)
    values = draw(st.lists(elem, min_size=n, max_size=n))
    raw = SparseTensor(
        shape,
        np.asarray(coords, dtype=np.uint64).reshape(n, d),
        np.asarray(values, dtype=dtype),
    )
    tensor = raw.deduplicated(keep="last")

    n_extra = draw(st.integers(min_value=0, max_value=8))
    extra = draw(st.lists(coord, min_size=n_extra, max_size=n_extra))
    queries = np.vstack([
        tensor.coords,
        np.asarray(extra, dtype=np.uint64).reshape(n_extra, d),
    ])

    origin = tuple(draw(st.integers(0, m - 1)) for m in shape)
    size = tuple(
        draw(st.integers(1, m - o)) for o, m in zip(origin, shape)
    )
    return tensor, queries, Box(origin, size)


def store_queries(rng, tensor):
    """:func:`random_queries` plus the rows a store's point executor
    treats specially: repeated rows, and rows outside the shape — one
    past an edge, far out, and ones whose row-major address aliases a
    stored cell.  The oracle finds none of the outside rows.
    """
    queries = random_queries(rng, tensor)
    shape = np.asarray(tensor.shape, dtype=np.uint64)
    d = shape.size
    edge = np.column_stack([
        rng.integers(0, m, size=d, dtype=np.uint64) for m in tensor.shape
    ])
    edge[np.arange(d), np.arange(d)] = shape
    far = np.full((1, d), 1 << 40, dtype=np.uint64)
    # (.., c, x) -> (.., c - 1, x + m_last): the same row-major address.
    alias = np.empty((0, d), dtype=np.uint64)
    if d > 1:
        alias = tensor.coords[tensor.coords[:, -2] > 0][:2].astype(np.uint64)
        alias[:, -2] -= 1
        alias[:, -1] += shape[-1]
    repeats = queries[rng.integers(0, queries.shape[0], size=3)]
    mixed = np.vstack([queries, edge, far, alias, repeats])
    return mixed[rng.permutation(mixed.shape[0])]


def store_boxes(rng, shape):
    """:func:`random_box` plus the boxes the box executor decomposes
    specially, as ``(kind, box, row-major interval cap or None)``: one
    covering every trailing mode whole, one hanging over the shape's
    edge, two empty ones (zero-sized; outside the shape), and one with
    more leading-mode prefixes than a lowered interval cap.
    """
    d = len(shape)
    lead = int(rng.integers(0, shape[0]))
    trailing = Box(
        (lead,) + (0,) * (d - 1),
        (int(rng.integers(1, shape[0] - lead + 1)),) + tuple(shape[1:]),
    )
    origin = tuple(int(rng.integers(0, m)) for m in shape)
    overhang = Box(origin, tuple(shape))
    prefixes = Box(
        (0,) * (d - 1) + (shape[-1] // 2,),
        tuple(shape[:-1]) + (max(1, shape[-1] // 2),),
    )
    return [
        ("random", random_box(rng, shape), None),
        ("trailing", trailing, None),
        ("overhang", overhang, None),
        ("zero-size", Box(origin, (0,) * d), None),
        ("outside", Box(tuple(shape), (1,) * d), None),
        ("prefixes", prefixes, 2),
    ]


def read_box_capped(view, box, ropts, cap):
    """``view.read_box`` with the row-major interval cap lowered to
    ``cap`` (``None``: the default cap)."""
    if cap is None:
        return view.read_box(box, options=ropts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(MAX_INTERVALS, DEFAULT_ADDRESS_ORDER, cap)
        return view.read_box(box, options=ropts)


def assert_points_match(outcome, tensor, queries, label):
    want_found, want_values = oracle_read_points(tensor, queries)
    np.testing.assert_array_equal(
        outcome.found, want_found,
        err_msg=f"{label}: found mask diverges from oracle",
    )
    assert outcome.values.shape[0] == want_values.shape[0], label
    np.testing.assert_array_equal(
        outcome.values, want_values.astype(outcome.values.dtype),
        err_msg=f"{label}: values diverge from oracle",
    )
    assert outcome.points_matched == int(want_found.sum()), label


def assert_box_match(got, tensor, box, label):
    want = oracle_read_box(tensor, box)
    assert got.shape == want.shape, label
    np.testing.assert_array_equal(
        got.coords, want.coords,
        err_msg=f"{label}: box coords diverge from oracle",
    )
    np.testing.assert_array_equal(
        got.values, want.values.astype(got.values.dtype),
        err_msg=f"{label}: box values diverge from oracle",
    )


class TestFormatDifferential:
    """Each encoded format must agree with the brute-force oracle."""

    @pytest.mark.parametrize("fmt_name", DIFF_FORMATS)
    @settings(max_examples=90, deadline=None, derandomize=True)
    @given(case=raw_cases())
    def test_read_points_matches_oracle(self, fmt_name, case):
        tensor, queries, _ = case
        enc = get_format(fmt_name).encode(tensor)
        assert_points_match(
            enc.read_points(queries), tensor, queries, fmt_name
        )

    @pytest.mark.parametrize("fmt_name", DIFF_FORMATS)
    @settings(max_examples=90, deadline=None, derandomize=True)
    @given(case=raw_cases())
    def test_read_box_matches_oracle(self, fmt_name, case):
        tensor, _, box = case
        enc = get_format(fmt_name).encode(tensor)
        assert_box_match(enc.read_box(box), tensor, box, fmt_name)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=raw_cases())
    def test_formats_agree_with_each_other(self, case):
        """All formats return bit-identical outcomes for the same case."""
        tensor, queries, box = case
        outcomes = []
        for name in DIFF_FORMATS:
            enc = get_format(name).encode(tensor)
            out = enc.read_points(queries)
            got_box = enc.read_box(box)
            outcomes.append((name, out, got_box))
        ref_name, ref_out, ref_box = outcomes[0]
        for name, out, got_box in outcomes[1:]:
            np.testing.assert_array_equal(
                out.found, ref_out.found,
                err_msg=f"{name} vs {ref_name}: found mask",
            )
            np.testing.assert_array_equal(
                out.values, ref_out.values,
                err_msg=f"{name} vs {ref_name}: values",
            )
            np.testing.assert_array_equal(
                got_box.coords, ref_box.coords,
                err_msg=f"{name} vs {ref_name}: box coords",
            )


class TestBuildPipelineDifferential:
    """The unified build pipeline vs the independent per-format path.

    ``encode_all`` shares one canonical intermediate across formats;
    these properties assert that the sharing is unobservable — payloads
    are bit-identical to independent encodes, conversions agree with the
    oracle, and merge compaction agrees with decode-and-rebuild — across
    the same 1-D..5-D duplicate-bearing case space as the read-side
    differential suite.
    """

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=raw_cases())
    def test_encode_all_bit_identical_to_independent_encodes(self, case):
        tensor, _, _ = case
        shared = encode_all(tensor, formats=DIFF_FORMATS)
        for name in DIFF_FORMATS:
            want = get_format(name).encode(tensor)
            got = shared[name]
            assert got.payload.keys() == want.payload.keys(), name
            for key in want.payload:
                assert got.payload[key].dtype == want.payload[key].dtype
                np.testing.assert_array_equal(
                    got.payload[key], want.payload[key],
                    err_msg=f"{name}: payload[{key}]",
                )
            assert got.meta == want.meta, name
            np.testing.assert_array_equal(
                got.values, want.values, err_msg=f"{name}: values"
            )

    @pytest.mark.parametrize("dst_name", DIFF_FORMATS)
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(case=raw_cases())
    def test_convert_round_trip_matches_oracle(self, dst_name, case):
        """src → dst → src (payload-level, no SparseTensor) must keep
        every point readable with oracle-identical results, and the
        second conversion must be bit-stable."""
        tensor, queries, _ = case
        src_index = sum(map(ord, dst_name)) % len(DIFF_FORMATS)
        src = get_format(DIFF_FORMATS[src_index])
        enc = src.encode(tensor)
        converted = enc.convert(dst_name)
        assert_points_match(
            converted.read_points(queries), tensor, queries,
            f"{src.name}->{dst_name}",
        )
        back = converted.convert(src.name)
        assert_points_match(
            back.read_points(queries), tensor, queries,
            f"{src.name}->{dst_name}->{src.name}",
        )
        # After one conversion the point order is canonical, so a repeat
        # round trip reproduces the converted payload bit for bit.
        again = back.convert(dst_name)
        assert again.payload.keys() == converted.payload.keys()
        for key in converted.payload:
            np.testing.assert_array_equal(
                again.payload[key], converted.payload[key],
                err_msg=f"{src.name}<->{dst_name}: payload[{key}] unstable",
            )
        np.testing.assert_array_equal(again.values, converted.values)

    @pytest.mark.parametrize("seed", range(12))
    def test_merge_compaction_equals_decode_rebuild(self, tmp_path, seed):
        """Store-level: both compaction strategies leave byte-identical
        fragment files behind."""
        fmt_name = DIFF_FORMATS[seed % len(DIFF_FORMATS)]
        relative = bool(seed % 2)
        frags = {}
        for strategy in ("merge", "decode"):
            rng = np.random.default_rng(1000 + seed)
            tensor = random_sparse_tensor(rng, max_points=48, max_side=6)
            store = FragmentStore(
                tmp_path / f"{strategy}{seed}", tensor.shape, fmt_name,
                options=StoreOptions(relative_coords=relative),
            )
            wrote = False
            for _ in range(int(rng.integers(2, 6))):
                chunk = random_sparse_tensor(
                    rng, tensor.shape, max_points=32,
                    dtype=str(tensor.values.dtype),
                )
                if chunk.nnz:
                    store.write(chunk.coords, chunk.values)
                    wrote = True
            if not wrote:
                store.write(
                    np.zeros((1, len(tensor.shape)), dtype=np.uint64),
                    np.ones(1, dtype=tensor.values.dtype),
                )
            store.compact(strategy=strategy)
            frags[strategy] = store.fragments[0]
        assert frags["merge"].bbox == frags["decode"].bbox
        assert frags["merge"].nnz == frags["decode"].nnz
        assert (frags["merge"].path.read_bytes()
                == frags["decode"].path.read_bytes()), (
            f"{fmt_name}/seed={seed}/relative={relative}"
        )


class TestStoreDifferential:
    """Multi-fragment stores vs the oracle, sequential and parallel alike.

    The oracle for a store is the newest-wins overlay of every tensor
    written, in write order — exactly the duplicate semantics the raw-case
    strategy models for single encodings.
    """

    SEEDS = range(20)

    @staticmethod
    def build_store(tmp_path, seed, fmt_name, options=None):
        rng = np.random.default_rng(seed)
        tensor = random_sparse_tensor(rng, max_points=48, max_side=6)
        store = FragmentStore(
            tmp_path / f"ds{seed}", tensor.shape, fmt_name, options=options
        )
        written = []
        for _ in range(int(rng.integers(1, 5))):
            chunk = random_sparse_tensor(
                rng, tensor.shape, max_points=32, dtype=str(tensor.values.dtype)
            )
            if chunk.nnz:
                chunk = chunk.deduplicated(keep="last")
                store.write(chunk.coords, chunk.values)
                written.append(chunk)
        if not written:
            base = SparseTensor.from_points(
                tensor.shape, [(0,) * len(tensor.shape)], [1.0]
            )
            store.write(base.coords, base.values)
            written.append(base)
        overlay = SparseTensor(
            tensor.shape,
            np.vstack([t.coords for t in written]),
            np.concatenate([t.values for t in written]),
        ).deduplicated(keep="last")
        return store, overlay, rng

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("parallel", ["none", "thread"])
    def test_store_matches_oracle(self, tmp_path, seed, parallel):
        fmt_name = PAPER_FORMATS[seed % len(PAPER_FORMATS)]
        store, overlay, rng = self.build_store(
            tmp_path, seed, fmt_name, options=StoreOptions(cache_bytes=1 << 20)
        )
        queries = store_queries(rng, overlay)
        out = store.read_points(queries, options=ReadOptions(parallel=parallel))
        assert_points_match(
            out, overlay, queries, f"{fmt_name}/seed={seed}/{parallel}"
        )
        box = random_box(rng, overlay.shape)
        assert_box_match(
            store.read_box(box, options=ReadOptions(parallel=parallel)),
            overlay, box, f"{fmt_name}/seed={seed}/{parallel}",
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_warm_cache_reads_identical(self, tmp_path, seed):
        """Cold-cache and warm-cache reads return bit-identical results."""
        store, overlay, rng = self.build_store(
            tmp_path, seed, "LINEAR", options=StoreOptions(cache_bytes=1 << 20)
        )
        queries = store_queries(rng, overlay)
        cold = store.read_points(queries)
        warm = store.read_points(
            queries, options=ReadOptions(parallel="thread")
        )
        np.testing.assert_array_equal(cold.found, warm.found)
        np.testing.assert_array_equal(cold.values, warm.values)
        assert store.cache.hits > 0 or store.cache.misses == 0


class TestWalDifferential:
    """WAL-routed ingest must be unobservable in reads.

    The same chunk sequence goes into one store via synchronous
    ``write`` (a fragment per chunk) and into another via durable
    ``append`` — left entirely unpacked, packed halfway, or fully
    packed, depending on the seed.  Whatever mix of fragments and WAL
    tail serves the read, results must be bit-identical to the
    synchronous store and to the newest-wins oracle, before and after
    a reopen (which exercises segment replay).  Seeds cycle all
    ``DIFF_FORMATS`` and both planner settings.
    """

    SEEDS = range(14)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_append_reads_identical_to_write(self, tmp_path, seed):
        fmt_name = DIFF_FORMATS[seed % len(DIFF_FORMATS)]
        plan = bool(seed % 2)
        pack_state = seed % 3  # 0: unpacked, 1: half-packed, 2: packed
        label = f"{fmt_name}/seed={seed}/plan={plan}/pack={pack_state}"

        rng = np.random.default_rng(7000 + seed)
        tensor = random_sparse_tensor(rng, max_points=48, max_side=6)
        chunks = []
        for _ in range(int(rng.integers(2, 6))):
            chunk = random_sparse_tensor(
                rng, tensor.shape, max_points=32,
                dtype=str(tensor.values.dtype),
            )
            if chunk.nnz:
                chunks.append(chunk.deduplicated(keep="last"))
        if not chunks:
            chunks.append(SparseTensor.from_points(
                tensor.shape, [(0,) * len(tensor.shape)], [1.0]
            ))

        synced = FragmentStore(
            tmp_path / "sync", tensor.shape, fmt_name,
            options=StoreOptions(planner=plan),
        )
        walled = FragmentStore(
            tmp_path / "wal", tensor.shape, fmt_name,
            options=StoreOptions(wal_segment_bytes=256, planner=plan),
        )
        for i, chunk in enumerate(chunks):
            synced.write(chunk.coords, chunk.values)
            walled.append(chunk.coords, chunk.values)
            if pack_state == 1 and i == len(chunks) // 2:
                walled.pack_wal()
        if pack_state == 2:
            walled.pack_wal()
            assert walled.wal_stats()["points"] == 0

        overlay = SparseTensor(
            tensor.shape,
            np.vstack([t.coords for t in chunks]),
            np.concatenate([t.values for t in chunks]),
        ).deduplicated(keep="last")
        queries = store_queries(rng, overlay)
        box = random_box(rng, overlay.shape)

        # Reopen replays whatever segments are still unpacked.
        reopened = FragmentStore(
            tmp_path / "wal", tensor.shape, fmt_name,
            options=StoreOptions(wal_segment_bytes=256, planner=plan),
        )
        want_points = synced.read_points(queries)
        want_box = synced.read_box(box)
        assert_points_match(want_points, overlay, queries, label)
        assert_box_match(want_box, overlay, box, label)
        for store, tag in ((walled, "live"), (reopened, "reopened")):
            got = store.read_points(queries)
            np.testing.assert_array_equal(
                got.found, want_points.found,
                err_msg=f"{label}/{tag}: found",
            )
            np.testing.assert_array_equal(
                got.values, want_points.values,
                err_msg=f"{label}/{tag}: values",
            )
            got_box = store.read_box(box)
            np.testing.assert_array_equal(
                got_box.coords, want_box.coords,
                err_msg=f"{label}/{tag}: box coords",
            )
            np.testing.assert_array_equal(
                got_box.values, want_box.values,
                err_msg=f"{label}/{tag}: box values",
            )


class TestCodecDifferential:
    """The codec axis must be unobservable in reads.

    Every format x {cascade, zlib} x WAL packed/unpacked x planner
    on/off reads bit-identically to an uncompressed (raw) baseline
    store fed the same chunk sequence.  Decode is driven by the tags
    each fragment carries, so mixing codecs across fragments of one
    store is also covered (the WAL tail is raw until packed).
    """

    @pytest.mark.parametrize("fmt_name", DIFF_FORMATS)
    @pytest.mark.parametrize("codec", ["cascade", "zlib"])
    @pytest.mark.parametrize("packed", [False, True])
    def test_codec_reads_identical_to_raw(
        self, tmp_path, fmt_name, codec, packed
    ):
        seed = 9000 + sum(map(ord, fmt_name + codec)) + int(packed)
        label = f"{fmt_name}/{codec}/packed={packed}"
        rng = np.random.default_rng(seed)
        tensor = random_sparse_tensor(rng, max_points=48, max_side=6)
        chunks = []
        for _ in range(int(rng.integers(2, 5))):
            chunk = random_sparse_tensor(
                rng, tensor.shape, max_points=32,
                dtype=str(tensor.values.dtype),
            )
            if chunk.nnz:
                chunks.append(chunk.deduplicated(keep="last"))
        if not chunks:
            chunks.append(SparseTensor.from_points(
                tensor.shape, [(0,) * len(tensor.shape)], [1.0]
            ))

        baseline = FragmentStore(
            tmp_path / "raw", tensor.shape, fmt_name,
            options=StoreOptions(codec="raw"),
        )
        coded = FragmentStore(
            tmp_path / "coded", tensor.shape, fmt_name,
            options=StoreOptions(codec=codec, wal_segment_bytes=256),
        )
        for chunk in chunks:
            baseline.write(chunk.coords, chunk.values)
            coded.append(chunk.coords, chunk.values)
        if packed:
            coded.pack_wal()

        overlay = SparseTensor(
            tensor.shape,
            np.vstack([t.coords for t in chunks]),
            np.concatenate([t.values for t in chunks]),
        ).deduplicated(keep="last")
        queries = store_queries(rng, overlay)
        box = random_box(rng, overlay.shape)

        want = baseline.read_points(queries)
        want_box = baseline.read_box(box)
        assert_points_match(want, overlay, queries, label)
        for plan in (True, False):
            reread = FragmentStore(
                tmp_path / "coded", tensor.shape, fmt_name,
                options=StoreOptions(
                    codec=codec, wal_segment_bytes=256, planner=plan
                ),
            )
            got = reread.read_points(queries)
            np.testing.assert_array_equal(
                got.found, want.found, err_msg=f"{label}/plan={plan}: found"
            )
            np.testing.assert_array_equal(
                got.values, want.values,
                err_msg=f"{label}/plan={plan}: values",
            )
            got_box = reread.read_box(box)
            np.testing.assert_array_equal(
                got_box.coords, want_box.coords,
                err_msg=f"{label}/plan={plan}: box coords",
            )
            np.testing.assert_array_equal(
                got_box.values, want_box.values,
                err_msg=f"{label}/plan={plan}: box values",
            )
        stats = coded.compression_stats()
        assert stats["codec"] == codec
        assert stats["raw_nbytes"] >= stats["encoded_nbytes"]
        if packed:  # unpacked stores hold everything in the WAL tail
            assert stats["fragments"] > 0
            assert stats["encoded_nbytes"] > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_compact_preserves_codec_and_reads(self, tmp_path, seed):
        """Compaction re-encodes under the store codec; reads stay
        oracle-identical and old mixed-codec fragments disappear."""
        fmt_name = DIFF_FORMATS[seed % len(DIFF_FORMATS)]
        codec = ("cascade", "zlib")[seed % 2]
        store, overlay, rng = TestStoreDifferential.build_store(
            tmp_path, 400 + seed, fmt_name,
            options=StoreOptions(codec=codec),
        )
        store.compact()
        queries = store_queries(rng, overlay)
        assert_points_match(
            store.read_points(queries), overlay, queries,
            f"{fmt_name}/{codec}/compacted",
        )
        assert len(store.fragments) == 1
        assert store.fragments[0].codecs is not None


class TestPlannerDifferential:
    """The query planner must be unobservable in results.

    Every store above already runs plan-on (the default); this class
    pins the other direction: plan-on vs plan-off (the seed's linear
    bbox scan), stale pre-zone-map manifests, degenerate fragments, and
    the memoized-CRC load variant all return byte-identical outcomes.
    ``ReadOutcome.fragments_visited`` is deliberately *not* compared —
    visiting fewer fragments is the planner's entire point.
    """

    SEEDS = range(12)

    @staticmethod
    def _assert_same_reads(store_a, store_b, overlay, rng, label):
        """Both stores, and a snapshot of each, read identically under
        the same ``ReadOptions``; point and box reads also match the
        oracle (boxes: :func:`store_boxes`)."""
        queries = store_queries(rng, overlay)
        boxes = store_boxes(rng, overlay.shape)
        for parallel in ("none", "thread"):
            ropts = ReadOptions(parallel=parallel)
            a = store_a.read_points(queries, options=ropts)
            assert_points_match(a, overlay, queries, f"{label}/{parallel}")
            tas = []
            for kind, box, cap in boxes:
                ta = read_box_capped(store_a, box, ropts, cap)
                assert_box_match(ta, overlay, box, f"{label}/{parallel}/{kind}")
                tas.append(ta)
            for tag, view in (
                ("b", store_b),
                ("snapshot-a", store_a.snapshot()),
                ("snapshot-b", store_b.snapshot()),
            ):
                where = f"{label}/{parallel}/{tag}"
                b = view.read_points(queries, options=ropts)
                np.testing.assert_array_equal(
                    a.found, b.found, err_msg=f"{where}: found"
                )
                np.testing.assert_array_equal(
                    a.values, b.values, err_msg=f"{where}: values"
                )
                assert a.points_matched == b.points_matched, where
                for (kind, box, cap), ta in zip(boxes, tas):
                    tb = read_box_capped(view, box, ropts, cap)
                    np.testing.assert_array_equal(
                        ta.coords, tb.coords, err_msg=f"{where}/{kind}: box"
                    )
                    np.testing.assert_array_equal(
                        ta.values, tb.values, err_msg=f"{where}/{kind}: box"
                    )
                if view is not store_b:
                    view.close()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_plan_on_off_byte_identical(self, tmp_path, seed):
        """Plan on vs off, for absolute and relative-coordinate stores."""
        fmt_name = DIFF_FORMATS[seed % len(DIFF_FORMATS)]
        for relative in (False, True):
            store_on, overlay, rng = TestStoreDifferential.build_store(
                tmp_path / f"relative={relative}", seed, fmt_name,
                options=StoreOptions(relative_coords=relative),
            )
            store_off = FragmentStore(
                store_on.directory, overlay.shape, fmt_name,
                options=StoreOptions(relative_coords=relative, planner=False),
            )
            self._assert_same_reads(
                store_on, store_off, overlay, rng,
                f"{fmt_name}/seed={seed}/relative={relative}/plan-on-vs-off",
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_stale_manifest_backfills_and_agrees(self, tmp_path, seed):
        """A pre-zone-map (v1) manifest reads identically after the lazy
        schema upgrade the first planned read performs."""
        import json

        fmt_name = DIFF_FORMATS[seed % len(DIFF_FORMATS)]
        store, overlay, rng = TestStoreDifferential.build_store(
            tmp_path, seed, fmt_name
        )
        path = store.directory / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest.pop("version", None)
        for entry in manifest["fragments"]:
            entry.pop("zone", None)
        path.write_text(json.dumps(manifest))
        stale = FragmentStore(store.directory, overlay.shape, fmt_name)
        off = FragmentStore(
            store.directory, overlay.shape, fmt_name,
            options=StoreOptions(planner=False),
        )
        self._assert_same_reads(
            stale, off, overlay, rng, f"{fmt_name}/seed={seed}/stale"
        )
        assert all(f.zone is not None for f in stale.fragments if f.nnz)

    @pytest.mark.parametrize("fmt_name", DIFF_FORMATS)
    def test_degenerate_fragments(self, tmp_path, fmt_name):
        """Empty and single-point fragments survive planning."""
        shape = (6, 6, 6)
        store = FragmentStore(tmp_path / "ds", shape, fmt_name)
        store.write(np.empty((0, 3), dtype=np.uint64), np.empty(0))
        store.write(np.array([[5, 5, 5]], dtype=np.uint64), np.ones(1))
        store.write(np.array([[0, 0, 0]], dtype=np.uint64), -np.ones(1))
        off = FragmentStore(tmp_path / "ds", shape, fmt_name,
                            options=StoreOptions(planner=False))
        queries = np.array(
            [[5, 5, 5], [0, 0, 0], [3, 3, 3]], dtype=np.uint64
        )
        a = store.read_points(queries)
        b = off.read_points(queries)
        np.testing.assert_array_equal(a.found, [True, True, False])
        np.testing.assert_array_equal(a.found, b.found)
        np.testing.assert_array_equal(a.values, b.values)
        box = Box((0, 0, 0), shape)
        np.testing.assert_array_equal(
            store.read_box(box).values, off.read_box(box).values
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_crc_once_and_lazy_agree_with_eager(self, tmp_path, seed):
        fmt_name = DIFF_FORMATS[seed % len(DIFF_FORMATS)]
        eager, overlay, rng = TestStoreDifferential.build_store(
            tmp_path, seed, fmt_name
        )
        tuned = FragmentStore(
            eager.directory, overlay.shape, fmt_name,
            options=StoreOptions(crc_mode="once"),
        )
        # Read twice so the second round exercises the CRC memo.
        for _ in range(2):
            self._assert_same_reads(
                eager, tuned, overlay, rng,
                f"{fmt_name}/seed={seed}/crc-once",
            )


class TestAddressOrderDifferential:
    """The address order must be unobservable in results.

    Sweeps every format x {row_major, alto} x plan on/off x {raw,
    cascade} against the brute-force oracle, reads a mixed-order store
    (legacy row-major fragments alongside new ALTO fragments, then the
    full ``set_addr_order`` migration), and pins the compatibility
    contract: a default store stays byte-identical to an explicit
    ``addr_order="row_major"`` store and serializes no ``addr_order``
    key anywhere — old readers see exactly the pre-ALTO layout.
    """

    ORDERS = ("row_major", "alto")

    @pytest.mark.parametrize("fmt_name", DIFF_FORMATS)
    @pytest.mark.parametrize("addr_order", ORDERS)
    @pytest.mark.parametrize("codec", ["raw", "cascade"])
    def test_order_reads_identical_to_oracle(
        self, tmp_path, fmt_name, addr_order, codec
    ):
        seed = 11000 + sum(map(ord, fmt_name + addr_order + codec))
        store, overlay, rng = TestStoreDifferential.build_store(
            tmp_path, seed, fmt_name,
            options=StoreOptions(addr_order=addr_order, codec=codec),
        )
        assert store.addr_order == addr_order
        for frag in store.fragments:
            assert frag.addr_order == addr_order
        queries = store_queries(rng, overlay)
        box = random_box(rng, overlay.shape)
        for plan in (True, False):
            reread = FragmentStore(
                store.directory, overlay.shape, fmt_name,
                options=StoreOptions(
                    addr_order=addr_order, codec=codec, planner=plan
                ),
            )
            label = f"{fmt_name}/{addr_order}/{codec}/plan={plan}"
            assert_points_match(
                reread.read_points(queries), overlay, queries, label
            )
            assert_box_match(reread.read_box(box), overlay, box, label)

    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_order_store_reads_correctly(self, tmp_path, seed):
        """Legacy row-major fragments + new ALTO fragments coexist; the
        planner prunes each fragment in its own tagged space, and the
        full migration afterwards changes nothing observable."""
        fmt_name = DIFF_FORMATS[seed % len(DIFF_FORMATS)]
        store, overlay, rng = TestStoreDifferential.build_store(
            tmp_path, 500 + seed, fmt_name
        )
        mixed = FragmentStore(
            store.directory, overlay.shape, fmt_name,
            options=StoreOptions(addr_order="alto"),
        )
        chunk = random_sparse_tensor(
            rng, overlay.shape, max_points=32,
            dtype=str(overlay.values.dtype),
        )
        if not chunk.nnz:
            chunk = SparseTensor.from_points(
                overlay.shape, [(0,) * len(overlay.shape)], [2.0]
            )
        chunk = chunk.deduplicated(keep="last")
        mixed.write(chunk.coords, chunk.values)
        overlay = SparseTensor(
            overlay.shape,
            np.vstack([overlay.coords, chunk.coords]),
            np.concatenate(
                [overlay.values, chunk.values.astype(overlay.values.dtype)]
            ),
        ).deduplicated(keep="last")
        assert {f.addr_order for f in mixed.fragments} == {
            "row_major", "alto"
        }
        queries = store_queries(rng, overlay)
        box = random_box(rng, overlay.shape)
        label = f"{fmt_name}/seed={seed}/mixed"
        for plan in (True, False):
            # ``addr_order=None`` adopts the committed order (alto).
            reread = FragmentStore(
                mixed.directory, overlay.shape, fmt_name,
                options=StoreOptions(planner=plan),
            )
            assert reread.addr_order == "alto"
            assert_points_match(
                reread.read_points(queries), overlay, queries,
                f"{label}/plan={plan}",
            )
            assert_box_match(
                reread.read_box(box), overlay, box, f"{label}/plan={plan}"
            )
            with reread.snapshot() as snap:
                assert_points_match(
                    snap.read_points(
                        queries, options=ReadOptions(parallel="thread")
                    ),
                    overlay, queries, f"{label}/plan={plan}/snapshot",
                )
        mixed.set_addr_order("alto")
        assert {f.addr_order for f in mixed.fragments} == {"alto"}
        assert_points_match(
            mixed.read_points(queries), overlay, queries,
            f"{label}/migrated",
        )
        assert_box_match(
            mixed.read_box(box), overlay, box, f"{label}/migrated"
        )

    def test_row_major_default_byte_identical(self, tmp_path):
        """Defaults serialize exactly the pre-ALTO layout: the same
        bytes as an explicit ``addr_order="row_major"`` store, and the
        ``addr_order`` key appears in no manifest or fragment file."""
        stores = {}
        for tag, options in (
            ("default", StoreOptions()),
            ("explicit", StoreOptions(addr_order="row_major")),
        ):
            rng = np.random.default_rng(4242)
            store = FragmentStore(
                tmp_path / tag, (9, 7, 5), "COO-SORTED", options=options
            )
            for _ in range(3):
                t = random_sparse_tensor(
                    rng, (9, 7, 5), max_points=40, dtype="float64"
                )
                if t.nnz:
                    t = t.deduplicated(keep="last")
                    store.write(t.coords, t.values)
            store.compact()
            stores[tag] = store
        frags = {
            tag: sorted(s.directory.glob("frag-*.bin"))
            for tag, s in stores.items()
        }
        assert frags["default"] and (
            len(frags["default"]) == len(frags["explicit"])
        )
        for a, b in zip(frags["default"], frags["explicit"]):
            assert a.read_bytes() == b.read_bytes(), (a.name, b.name)
            assert b"addr_order" not in a.read_bytes(), a.name
        for tag, store in stores.items():
            manifest = (store.directory / "manifest.json").read_text()
            assert "addr_order" not in manifest, tag
