"""Exception hierarchy for the BlobCR reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without accidentally swallowing genuine
programming errors (``TypeError``, ``KeyError``, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigurationError(ReproError, ValueError):
    """An invalid or inconsistent configuration value was supplied.

    Also a ``ValueError``: it is the one error type for a bad argument value.
    """


class SimulationError(ReproError):
    """The discrete-event simulation reached an invalid state."""


# --- storage ---------------------------------------------------------------


class StorageError(ReproError):
    """Base class for storage-layer failures (BlobSeer, PVFS, local disks)."""


class ChunkNotFoundError(StorageError):
    """A chunk id was requested that no live data provider stores."""


class VersionNotFoundError(StorageError):
    """A BLOB version (snapshot) was requested that was never published."""


class SnapshotError(StorageError):
    """A disk-image snapshot operation (CLONE / COMMIT / savevm) failed."""


# --- checkpoint-restart ----------------------------------------------------


class CheckpointError(ReproError):
    """A global or per-VM checkpoint could not be taken."""


class RestartError(ReproError):
    """A restart from a previously taken checkpoint failed."""


class MigrationError(ReproError):
    """A live migration could not be performed (or is unsupported)."""


# --- guest environment -----------------------------------------------------


class GuestError(ReproError):
    """Base class for guest-environment failures (VM, guest FS, processes)."""


class FileSystemError(GuestError):
    """Guest file-system operation failed (missing file, bad path, ...)."""


class ProcessError(GuestError):
    """Guest process operation failed (dump/restore of a dead process, ...)."""


# --- message passing ---------------------------------------------------------


class MPIError(ReproError):
    """The simulated MPI runtime was used incorrectly or lost a rank."""


# --- fault injection ---------------------------------------------------------


class FailureInjected(ReproError):
    """Raised inside simulated activities interrupted by an injected failure."""

    def __init__(self, message: str = "", *, node: str | None = None):
        super().__init__(message or "fail-stop failure injected")
        self.node = node
