"""Checkpoint/resume support for long optimization runs.

A production LNA optimization sweeps thousands of MNA solves over
minutes to hours; losing the whole run to a crash, an OOM kill, or a
pre-empted worker node is not acceptable at that scale.  The optimizers
in :mod:`repro.optimize` therefore accept an injectable
:class:`CheckpointStore` and periodically persist their *complete*
algorithm state — population, fitness, RNG bit-generator state,
best-so-far, evaluation counters, and run-health telemetry.

Resume is **deterministic**: restoring a checkpoint replays the exact
RNG trajectory, so an interrupted-and-resumed run finishes bit-for-bit
identical to an uninterrupted one (enforced by
``tests/test_checkpoint.py``).

Two stores ship here:

* :class:`MemoryCheckpointStore` — in-process, for tests and
  supervisor processes that own the optimizer loop;
* :class:`FileCheckpointStore` — pickle on disk with atomic
  write-then-rename, for crash recovery across process boundaries.

The file store is hardened against the failure modes disks actually
have:

* every snapshot is framed with a magic tag, a schema version, and a
  CRC32 of the pickle payload, so truncation or bit rot is *detected*
  instead of resumed from; a file without the frame is corrupt too,
  and is never unpickled;
* the previously good snapshot is rotated to ``<path>.prev`` on every
  save, so a corrupt primary file quarantines to ``<path>.corrupt``
  and resume falls back to the last good checkpoint instead of
  aborting the run (strict guard mode restores the hard
  :class:`CheckpointError`);
* reads and writes retry transient ``OSError`` with the shared capped
  backoff of :func:`repro.optimize.faults.retry_transient`.
"""

from __future__ import annotations

import os
import pickle
import struct
import tempfile
import warnings
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.guards import modes as _guard_modes
from repro.obs import journal as _obs_journal
from repro.obs import metrics as _obs_metrics
from repro.optimize.faults import retry_transient

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "MemoryCheckpointStore",
    "FileCheckpointStore",
    "resume_or_none",
    "SCHEMA_VERSION",
]

#: File-format magic of framed checkpoint files.
_MAGIC = b"RPCK"
#: Bump when the framed layout (not the payload schema) changes.
SCHEMA_VERSION = 1
_HEADER = struct.Struct("<II")  # (schema_version, crc32)


class CheckpointError(RuntimeError):
    """A checkpoint exists but cannot be used (corrupt or mismatched)."""


@dataclass
class Checkpoint:
    """One snapshot of optimizer state.

    ``algorithm`` guards against resuming a DE checkpoint in PSO;
    ``iteration`` is the last *completed* generation; ``rng_state`` is
    the ``numpy`` bit-generator state dict (``None`` for deterministic
    stages); ``payload`` carries the algorithm-specific arrays.
    """

    algorithm: str
    iteration: int
    rng_state: Optional[dict]
    payload: Dict[str, Any] = field(default_factory=dict)


class CheckpointStore:
    """Interface the optimizers write to; subclass to customize."""

    def save(self, checkpoint: Checkpoint) -> None:
        raise NotImplementedError

    def load(self) -> Optional[Checkpoint]:
        """The latest checkpoint, or ``None`` when nothing was saved."""
        raise NotImplementedError

    def clear(self) -> None:
        """Drop the stored checkpoint (called on successful completion)."""
        raise NotImplementedError


class MemoryCheckpointStore(CheckpointStore):
    """Keeps the latest checkpoint in process memory."""

    def __init__(self):
        self._checkpoint: Optional[Checkpoint] = None
        self.n_saves = 0

    def save(self, checkpoint: Checkpoint) -> None:
        self._checkpoint = checkpoint
        self.n_saves += 1

    def load(self) -> Optional[Checkpoint]:
        return self._checkpoint

    def clear(self) -> None:
        self._checkpoint = None


class FileCheckpointStore(CheckpointStore):
    """Pickles the latest checkpoint to *path*, atomically and framed.

    The snapshot is written to a temporary file in the same directory
    and renamed over the target, so a crash mid-write can never leave a
    truncated checkpoint.  The file body is ``RPCK`` + schema version +
    CRC32 + pickle, the previous good file survives as
    ``<path>.prev``, and a file that fails validation on load is
    renamed to ``<file>.corrupt`` (quarantine) before resume falls
    back to the previous snapshot.  Plain-pickle files written by
    earlier releases still load.

    Parameters
    ----------
    path:
        Target file.
    retry_attempts:
        Transient-``OSError`` retries per read/write, with the shared
        capped backoff of :func:`repro.optimize.faults.retry_transient`.
    """

    def __init__(self, path: str, retry_attempts: int = 3):
        self.path = str(path)
        self.previous_path = self.path + ".prev"
        self.retry_attempts = int(retry_attempts)
        self.io_retries = 0

    # -- write --------------------------------------------------------------
    def save(self, checkpoint: Checkpoint) -> None:
        blob = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
        payload = _MAGIC + _HEADER.pack(SCHEMA_VERSION,
                                        zlib.crc32(blob)) + blob
        retry_transient(
            self._write_payload, payload,
            attempts=self.retry_attempts,
            no_retry=(),           # every OSError on write is retryable
            on_retry=self._count_retry,
        )

    def _write_payload(self, payload: bytes) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            # Keep the outgoing snapshot as the fallback generation
            # before the new one takes its place.  Two writers racing
            # the same path (a lease takeover whose previous owner is
            # still flushing its final snapshot) may both see the file
            # and rotate it; the loser's rename then finds it already
            # moved — that is a clean last-writer-wins interleaving,
            # not a transient disk fault, so it must not burn a retry.
            try:
                os.replace(self.path, self.previous_path)
            except FileNotFoundError:
                pass
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def _count_retry(self, exc: BaseException, attempt: int) -> None:
        self.io_retries += 1
        _obs_metrics.inc("checkpoint.io_retries")

    # -- read ---------------------------------------------------------------
    def load(self) -> Optional[Checkpoint]:
        """The newest valid checkpoint, falling back to ``<path>.prev``.

        A file that fails validation (truncated, bit-flipped, wrong
        object) is quarantined by renaming it to ``<file>.corrupt`` and
        the previous snapshot is tried next; only strict guard mode
        turns corruption into a raised :class:`CheckpointError`.
        """
        for candidate in (self.path, self.previous_path):
            try:
                data = retry_transient(
                    self._read_bytes, candidate,
                    attempts=self.retry_attempts,
                    on_retry=self._count_retry,
                )
            except FileNotFoundError:
                continue
            try:
                return self._parse(candidate, data)
            except CheckpointError as exc:
                if _guard_modes.get_mode() == _guard_modes.MODE_STRICT:
                    raise
                self._quarantine(candidate, exc)
        return None

    @staticmethod
    def _read_bytes(path: str) -> bytes:
        with open(path, "rb") as handle:
            return handle.read()

    @staticmethod
    def _parse(path: str, data: bytes) -> Checkpoint:
        if not data.startswith(_MAGIC):
            raise CheckpointError(
                f"checkpoint file {path!r} lacks the {_MAGIC!r} header"
            )
        header_end = len(_MAGIC) + _HEADER.size
        if len(data) < header_end:
            raise CheckpointError(
                f"checkpoint file {path!r} is truncated inside the header"
            )
        version, crc = _HEADER.unpack(data[len(_MAGIC):header_end])
        if version > SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint file {path!r} has schema version {version}, "
                f"newer than supported {SCHEMA_VERSION}"
            )
        blob = data[header_end:]
        if zlib.crc32(blob) != crc:
            raise CheckpointError(
                f"checkpoint file {path!r} failed its CRC32 check "
                f"(truncated or bit-flipped)"
            )
        try:
            checkpoint = pickle.loads(blob)
        except Exception as exc:  # noqa: BLE001 - any unpickle fault = corrupt
            raise CheckpointError(
                f"checkpoint file {path!r} is unreadable: {exc}"
            ) from exc
        if not isinstance(checkpoint, Checkpoint):
            raise CheckpointError(
                f"checkpoint file {path!r} does not contain a "
                f"Checkpoint (got {type(checkpoint).__name__})"
            )
        return checkpoint

    def _quarantine(self, path: str, reason: CheckpointError) -> None:
        corrupt_path = path + ".corrupt"
        try:
            os.replace(path, corrupt_path)
        except OSError:
            corrupt_path = path  # rename failed; leave it in place
        _obs_metrics.inc("checkpoint.quarantined")
        _obs_journal.emit("checkpoint_quarantined", path=str(path),
                          reason=str(reason)[:200])
        warnings.warn(
            f"quarantined corrupt checkpoint {path!r} -> {corrupt_path!r} "
            f"({reason}); resuming from the previous good snapshot if any",
            stacklevel=3,
        )

    def clear(self) -> None:
        for path in (self.path, self.previous_path):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass


def resume_or_none(store: Optional[CheckpointStore],
                   algorithm: str) -> Optional[Checkpoint]:
    """Load *store*'s checkpoint, validating the algorithm tag.

    Helper shared by the optimizers; returns ``None`` when there is no
    store or no saved state, raises :class:`CheckpointError` when the
    stored checkpoint belongs to a different algorithm.
    """
    if store is None:
        return None
    checkpoint = store.load()
    if checkpoint is None:
        return None
    if checkpoint.algorithm != algorithm:
        raise CheckpointError(
            f"checkpoint was written by {checkpoint.algorithm!r}, "
            f"cannot resume {algorithm!r} from it"
        )
    return checkpoint
