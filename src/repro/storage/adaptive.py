"""Adaptive store: the advisor wired into the write path — and back in.

The paper's conclusion (§VI): "we plan to explore automatic strategies for
selecting different organization for applications based on the
characterization of sparsity in their data."  :class:`AdaptiveStore` does
exactly that per fragment: each write is characterized
(:func:`repro.patterns.stats.characterize`) and packaged in the
organization the advisor ranks best for the store's workload profile.

The write-time pick is a guess about future access; the **migration
policy** closes the loop.  The store's
:class:`~repro.obs.workload.WorkloadLedger` records what each fragment
actually served, and :meth:`AdaptiveStore.migrate_fragments` re-scores
every fragment against its *observed* workload (the paper's Table IV
applied online, see :mod:`repro.storage.migrate`), re-formatting the
winners through the direct-conversion kernels.
``StoreOptions(migrate="compact")`` runs the sweep automatically after
``compact()`` / ``pack_wal()``; ``"auto"`` additionally sweeps
opportunistically after reads.

Reads need no special handling — fragments carry their own format, and the
store's READ already dispatches per payload — so one dataset can freely mix
organizations (e.g. LINEAR for bulk archival fragments, CSF for hot
clustered regions).
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from ..analysis.advisor import BALANCED, Workload, recommend
from ..build.canonical import CanonicalCoords
from ..core.tensor import SparseTensor
from ..formats.base import SparseFormat
from ..formats.registry import PAPER_FORMATS, get_format, resolve_format
from ..obs import counter_add, gauge_set
from ..patterns.stats import characterize
from .fragment import FragmentInfo
from .migrate import MigrationDecision, MigrationPolicy, plan_migrations
from .options import StoreOptions
from .store import FragmentStore, WriteReceipt

#: With ``migrate="auto"``, re-examine the store after this many reads
#: (point or box) since the last sweep.  Sweeps are cheap when nothing
#: qualifies (scoring only), but not free — decode + characterize per
#: warm fragment — so they are rate-limited rather than per-read.
AUTO_MIGRATE_READ_INTERVAL = 64


class AdaptiveStore(FragmentStore):
    """A fragment store that picks each fragment's organization itself.

    ``candidates`` accepts registry names or
    :class:`~repro.formats.base.SparseFormat` instances; tuning arrives
    as one :class:`~repro.storage.options.StoreOptions` value.
    ``policy`` tunes the migration thresholds (:class:`~repro.storage.
    migrate.MigrationPolicy`); it only matters when
    ``StoreOptions.migrate`` is not ``"off"`` or
    :meth:`migrate_fragments` is called explicitly.
    """

    def __init__(
        self,
        directory: str | Path,
        shape: Sequence[int],
        *,
        workload: Workload = BALANCED,
        candidates: Sequence[str | SparseFormat] = PAPER_FORMATS,
        policy: MigrationPolicy | None = None,
        options: StoreOptions | None = None,
    ):
        candidates = tuple(resolve_format(c).name for c in candidates)
        # The parent needs *a* format for bookkeeping; each fragment is
        # built in the per-write pick (:meth:`_format_for`).
        super().__init__(directory, shape, candidates[0], options=options)
        self.workload = workload
        self.candidates = tuple(candidates)
        self.policy = policy or MigrationPolicy()
        #: Format chosen for each fragment, in decision order (in-session
        #: log; ``write_many`` decides its parts concurrently).  See
        #: :meth:`format_histogram` for stored state.
        self.choices: list[str] = []
        self._reads_since_sweep = 0

    def _format_for(
        self, canon: CanonicalCoords, values: np.ndarray
    ) -> SparseFormat:
        """Advisor pick for one fragment's point set.

        Every write path packages through this hook — ``write``,
        ``write_many``, ``pack_wal``, compaction and conversion — so a
        compacted adaptive store re-characterizes the merged point set
        rather than inheriting the last fragment's pick.
        """
        pick = self.candidates[0]
        if canon.n:
            stats = characterize(SparseTensor(self.shape, canon.coords, values))
            pick = recommend(stats, self.workload, formats=self.candidates).best
        self.choices.append(pick)
        counter_add("adaptive.decisions", format=pick)
        return get_format(pick)

    def format_histogram(
        self, *, include_retired: bool = False
    ) -> dict[str, int]:
        """Organization counts over the **live manifest fragments**.

        Counting the manifest (not the in-session :attr:`choices` log)
        keeps the accounting truthful across compaction and migration —
        a compacted store reports one fragment in one format, however
        many picks led up to it, and the numbers survive a store reopen.
        ``include_retired=True`` additionally counts superseded
        fragments still retained for snapshot time-travel (each retained
        generation's copy counted once — a fragment both live and
        retired under different formats contributes to both buckets,
        which is exactly the on-disk truth).  The raw write-time
        decision log remains available as :attr:`choices`.
        """
        pool: list[FragmentInfo] = list(self.fragments)
        if include_retired:
            with self._state_lock:
                pool.extend(self._retired)
        out: dict[str, int] = {}
        for frag in pool:
            out[frag.format_name] = out.get(frag.format_name, 0) + 1
        return out

    # ------------------------------------------------------------------
    # Online migration (the paper's Table IV scoring, applied per fragment)
    # ------------------------------------------------------------------

    def plan_migrations(
        self, *, policy: MigrationPolicy | None = None
    ) -> list[MigrationDecision]:
        """Score every live fragment; pure planning, nothing migrates."""
        return plan_migrations(
            self,
            workload=self.workload,
            policy=policy or self.policy,
            candidates=self.candidates,
        )

    def migrate_fragments(
        self, *, policy: MigrationPolicy | None = None
    ) -> list[MigrationDecision]:
        """One migration sweep: score, then re-format the winners.

        Each positive decision is applied through
        :meth:`~repro.storage.store.FragmentStore.migrate_fragment`
        (direct kernels when registered, canonical fallback otherwise;
        crash-safe per fragment).  Returns every decision — including
        the negative ones, with their reasons — for observability.
        """
        decisions = self.plan_migrations(policy=policy)
        for d in decisions:
            if d.migrate:
                self.migrate_fragment(d.index, d.target_format)
        self._reads_since_sweep = 0
        for name, count in self.format_histogram().items():
            gauge_set("adaptive.fragments", count, format=name)
        return decisions

    def _maybe_migrate(self) -> None:
        """Policy-gated sweep after a durable maintenance op."""
        if self.options.migrate == "off":
            return
        if len(self.fragments) == 0:
            return
        self.migrate_fragments()

    def _maybe_migrate_after_read(self) -> None:
        if self.options.migrate != "auto":
            return
        self._reads_since_sweep += 1
        if self._reads_since_sweep < AUTO_MIGRATE_READ_INTERVAL:
            return
        self.migrate_fragments()

    def compact(self, *, strategy: str = "merge") -> WriteReceipt:
        receipt = super().compact(strategy=strategy)
        self._maybe_migrate()
        return receipt

    def pack_wal(self) -> WriteReceipt | None:
        receipt = super().pack_wal()
        if receipt is not None:
            self._maybe_migrate()
        return receipt

    # The read overrides exist only to run the migration hook after
    # each read.
    def read_points(self, query_coords, *, options=None):
        out = super().read_points(query_coords, options=options)
        self._maybe_migrate_after_read()
        return out

    def read_box(self, box, *, options=None):
        out = super().read_box(box, options=options)
        self._maybe_migrate_after_read()
        return out
