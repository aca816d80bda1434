"""Exception hierarchy shared across the library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ShapeError(ReproError, ValueError):
    """A tensor shape or coordinate buffer is malformed or out of bounds."""


class FormatError(ReproError, ValueError):
    """A storage-organization payload is structurally invalid."""


class FragmentError(ReproError, IOError):
    """A fragment file is missing, truncated, or fails integrity checks."""


class ChecksumError(FragmentError):
    """A fragment's trailing CRC-32 does not match its contents.

    Subclass of :class:`FragmentError`, so existing ``except FragmentError``
    handlers keep working; raised by
    :func:`repro.storage.serialization.verify_crc`.
    """


class ManifestError(FragmentError):
    """A store manifest is unreadable, unparsable, or inconsistent.

    Subclass of :class:`FragmentError` for backward compatibility with
    callers that catch the broad class.
    """


class FragmentIOError(FragmentError):
    """The operating system failed to read or write a fragment file.

    Distinguished from corruption (:class:`ChecksumError`) because an
    ``EIO``/``EAGAIN`` from a parallel filesystem may be *transient* — the
    store's :class:`~repro.storage.durability.RetryPolicy` retries these but
    never retries checksum or parse failures.
    """


class WorkerError(ReproError):
    """Packaging one part of a batch write failed; ``part_index`` names it.

    Raised by :meth:`FragmentStore.write_many` (inline or on a pool
    thread, chained to the original error) so a partial-batch failure
    reports *which* input part died; nothing of the batch is committed.
    """

    def __init__(self, message: str, *, part_index: int | None = None):
        super().__init__(message)
        self.part_index = part_index


class PatternError(ReproError, ValueError):
    """A sparsity-pattern generator was configured inconsistently."""
