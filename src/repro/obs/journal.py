"""The durable-file layer, and the run journal built on it.

Everything in this repo that must outlive its producing process — a
run's journal, a campaign's job store, the recorder's ``jsonl_path``
sink — is the same two file shapes, implemented here once and described
once in ARCHITECTURE.md ("Durable files"):

* :class:`AppendLog` / :func:`read_records` / :func:`recover_tail` — the
  append-only JSONL log: line framing, ``seq``, the two flush policies,
  torn-tail recovery, the tolerant reader;
* :func:`atomic_write_json` — the replace-don't-rewrite JSON file that
  manifests are.

On top of that a *run directory* holds exactly two files::

    <root>/<run_id>/
        manifest.json     # who/what/how: config hash, seeds, fault plan
        journal.jsonl     # append-only stream of everything that happened

**Manifest** (:class:`RunManifest`): the run's identity — ``run_id``,
creation wall time, the workflow configuration and its SHA-256 hash,
every seed in play, the active fault plan (so a failure is replayable),
and the code version.

**Journal** (:class:`RunJournal`): an :class:`AppendLog` under the
batched flush policy (run journals see thousands of records; a process
crash loses nothing that reached the OS, and the ``atexit`` hook flushes
the buffered tail of a run that never closed).  Records carry a ``kind``
discriminator: ``run.start`` / ``event`` / ``span`` / ``metrics`` /
``failure`` / ``run.end``.  Unknown kinds are preserved by readers, so
the format is forward-compatible.
"""

from __future__ import annotations

import atexit
import errno
import hashlib
import json
import os
import subprocess
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Iterator

from .events import Event, _json_default
from .spans import Span

__all__ = [
    "JOURNAL_FILE",
    "MANIFEST_FILE",
    "AppendLog",
    "JournalView",
    "RunJournal",
    "RunManifest",
    "atomic_write_json",
    "config_hash",
    "detect_code_version",
    "find_journal",
    "read_journal",
    "read_records",
    "recover_tail",
]

MANIFEST_FILE = "manifest.json"
JOURNAL_FILE = "journal.jsonl"

#: Journal format tag written into every manifest.
JOURNAL_FORMAT = "repro-journal/1"

#: The batched flush policy hands the file to the OS every N records (the
#: atexit hook and ``close`` flush unconditionally; a torn final line is
#: recoverable).
DEFAULT_FLUSH_EVERY = 32

#: How far :func:`recover_tail` reads per backwards step.
TAIL_CHUNK = 1 << 20


def config_hash(config: dict[str, Any] | None) -> str:
    """Canonical SHA-256 of a configuration dict (sorted-key JSON)."""
    payload = json.dumps(config or {}, sort_keys=True, default=_json_default)
    return hashlib.sha256(payload.encode()).hexdigest()


def detect_code_version() -> str:
    """Best-effort code version: env override, git commit, or package."""
    env = os.environ.get("REPRO_CODE_VERSION")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            timeout=5.0,
            text=True,
        )
        if out.returncode == 0 and out.stdout.strip():
            return f"git:{out.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):  # pragma: no cover - no git
        pass
    from importlib.metadata import PackageNotFoundError, version

    try:
        return f"pkg:{version('repro')}"
    except PackageNotFoundError:  # pragma: no cover - not installed
        return "unknown"


@dataclass
class RunManifest:
    """The run's identity card (``manifest.json``)."""

    run_id: str
    created: float = 0.0  # epoch seconds
    config: dict[str, Any] = field(default_factory=dict)
    config_hash: str = ""
    seeds: dict[str, Any] = field(default_factory=dict)
    fault_plan: dict[str, Any] | None = None
    code_version: str = ""
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.config_hash:
            self.config_hash = config_hash(self.config)

    def to_dict(self) -> dict[str, Any]:
        return {"format": JOURNAL_FORMAT, **asdict(self)}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunManifest":
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})

    def save(self, path: str | os.PathLike) -> str:
        return atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | os.PathLike) -> "RunManifest":
        with open(os.fspath(path), "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def atomic_write_json(path: str | os.PathLike, payload: dict[str, Any]) -> str:
    """Write ``payload`` so a reader sees the old file or the new, never a mix.

    Temp file in the same directory, fsynced, then ``os.replace``.
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def recover_tail(path: str | os.PathLike) -> int:
    """Truncate an append-target log back to its last complete line.

    Returns the number of torn-tail bytes dropped (0 for a clean file).
    The file is scanned backwards a chunk at a time until a newline
    turns up, so a torn line of any length costs only that line.
    """
    path = os.fspath(path)
    try:
        size = os.path.getsize(path)
    except OSError:
        return 0
    keep = end = size
    with open(path, "rb+") as fh:
        while end > 0:
            start = max(0, end - TAIL_CHUNK)
            fh.seek(start)
            last_nl = fh.read(end - start).rfind(b"\n")
            if last_nl >= 0:
                keep = start + last_nl + 1
                break
            keep = end = start
        if keep < size:
            fh.truncate(keep)
    return size - keep


def read_records(path: str | os.PathLike) -> tuple[list[dict[str, Any]], bool, list[int]]:
    """The one tolerant log reader: ``(records, truncated, corrupt)``.

    Safe on a live or crashed log: an unterminated final line is dropped
    and flagged (``truncated``), never parsed.  A *terminated* line that
    does not parse cannot be a torn write of ours (a record never
    contains a raw newline) — it is skipped and its 1-based line number
    lands in ``corrupt``; the caller decides whether that is a warning
    (the console) or fatal (the campaign store).  A missing file reads
    as an empty log.
    """
    try:
        with open(os.fspath(path), "rb") as fh:
            lines = fh.read().split(b"\n")
    except FileNotFoundError:
        return [], False, []
    truncated = bool(lines.pop().strip())  # b"" for a newline-terminated file
    records: list[dict[str, Any]] = []
    corrupt: list[int] = []
    for i, raw in enumerate(lines, 1):
        if not raw.strip():
            continue
        try:
            records.append(json.loads(raw.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError):
            corrupt.append(i)
    return records, truncated, corrupt


class AppendLog:
    """The one append-only JSONL writer (ARCHITECTURE.md, "Durable files").

    Each record gets the next ``seq`` and is serialized to one
    newline-terminated line handed to the OS in a single buffered
    ``write`` under a lock, so concurrent writers never interleave within
    a line.  ``fsync_each`` picks the flush policy: flush every record and
    fsync per :meth:`batch` (survives power loss; the campaign store), or
    flush every :data:`DEFAULT_FLUSH_EVERY` records and fsync on ``close``
    (survives a process crash; run journals, which are far busier).
    """

    def __init__(self, path: str | os.PathLike, fsync_each: bool = False, seq0: int = 0):
        self.path = os.fspath(path)
        self.fsync_each = fsync_each
        #: torn-tail bytes :meth:`reopen` dropped
        self.recovered_bytes = 0
        self._lock = threading.Lock()
        self._seq = seq0
        self._fh = open(self.path, "a", encoding="utf-8")
        self._scope = threading.local()  # .depth: this thread's open commit scopes
        self._unsynced = False  # records handed to the OS since the last fsync

    @classmethod
    def reopen(
        cls, path: str | os.PathLike, fsync_each: bool = False
    ) -> tuple["AppendLog", list[dict[str, Any]], list[int]]:
        """Resume appending: ``(log, surviving records, corrupt line numbers)``.

        A torn final line (a crash mid-write) is truncated away first and
        ``seq`` continues from the surviving line count.  A path that
        does not exist yet reopens as an empty log.
        """
        dropped = recover_tail(path)
        records, _, corrupt = read_records(path)
        log = cls(path, fsync_each, seq0=len(records) + len(corrupt))
        log.recovered_bytes = dropped
        return log, records, corrupt

    def append(self, record: dict[str, Any]) -> int:
        """Append one record (adds ``seq``); returns its sequence number.

        Returns ``-1`` if the log is already closed (late writers during
        shutdown).
        """
        with self._lock:
            if self._fh.closed:
                return -1
            seq = self._seq
            self._fh.write(json.dumps({"seq": seq, **record}, default=_json_default) + "\n")
            self._seq += 1
            if self.fsync_each:
                self._fh.flush()  # in the OS before the caller applies the record
                self._unsynced = True
                if not getattr(self._scope, "depth", 0):  # else the scope's exit pays
                    self._sync()
            elif self._seq % DEFAULT_FLUSH_EVERY == 0:
                self._fh.flush()
            return seq

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Commit scope (per thread, re-entrant): appends inside still reach
        the OS one by one, the ``fsync`` is paid once, when the outermost
        scope exits — by an exception too (ARCHITECTURE.md, "Durable files")."""
        depth = getattr(self._scope, "depth", 0)
        self._scope.depth = depth + 1
        try:
            yield
        finally:
            self._scope.depth = depth
            with self._lock:
                if depth == 0 and self._unsynced and not self._fh.closed:
                    self._sync()

    def _sync(self) -> None:
        self._fh.flush()
        try:
            # looked up on the module at call time: benchmarks and tests
            # substitute the device there
            os.fsync(self._fh.fileno())
        except OSError as exc:
            if exc.errno not in (errno.EINVAL, errno.ENOTSUP):  # fd cannot sync
                raise
        self._unsynced = False

    def flush(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.flush()

    def close(self) -> None:
        """Flush, fsync and close (idempotent)."""
        with self._lock:
            if not self._fh.closed:
                try:
                    self._sync()
                finally:
                    self._fh.close()

    @property
    def closed(self) -> bool:
        return self._fh.closed


class RunJournal:
    """Append-only journal for one run directory.

    Use :meth:`create` for a fresh run and :meth:`open` to resume
    appending to an existing one (torn tail recovered first).  All
    writes are thread-safe; each record gets the next ``seq``.
    """

    def __init__(self, directory: str | os.PathLike, manifest: RunManifest, log: AppendLog):
        self.directory = os.fspath(directory)
        self.manifest = manifest
        self._log = log
        # crash-path flush: keep the buffered tail when a run never closes
        atexit.register(log.flush)

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(
        cls,
        root: str | os.PathLike,
        run_id: str,
        config: dict[str, Any] | None = None,
        seeds: dict[str, Any] | None = None,
        fault_plan: dict[str, Any] | None = None,
        code_version: str | None = None,
        extra: dict[str, Any] | None = None,
    ) -> "RunJournal":
        """Create ``<root>/<run_id>/`` with a manifest and empty journal.

        Raises :class:`FileExistsError` if the run directory already
        exists — run ids are unique per root by construction.
        """
        directory = Path(os.fspath(root)) / run_id
        directory.mkdir(parents=True, exist_ok=False)
        manifest = RunManifest(
            run_id=run_id,
            created=time.time(),
            config=dict(config or {}),
            config_hash=config_hash(config),
            seeds=dict(seeds or {}),
            fault_plan=fault_plan,
            code_version=code_version if code_version is not None else detect_code_version(),
            extra=dict(extra or {}),
        )
        manifest.save(directory / MANIFEST_FILE)
        journal = cls(directory, manifest, AppendLog(directory / JOURNAL_FILE))
        journal.write({"kind": "run.start", "run": run_id, "wall": manifest.created})
        return journal

    @classmethod
    def open(cls, path: str | os.PathLike) -> "RunJournal":
        """Re-open an existing run directory for appending.

        Any torn final line (a crash mid-flush) is truncated away first;
        ``seq`` continues from the surviving record count.
        """
        directory = Path(find_journal(path)).parent
        manifest_path = directory / MANIFEST_FILE
        if manifest_path.is_file():
            manifest = RunManifest.load(manifest_path)
        else:
            manifest = RunManifest(run_id=directory.name)
        log, _, _ = AppendLog.reopen(directory / JOURNAL_FILE)
        return cls(directory, manifest, log)

    # -- paths -----------------------------------------------------------------

    @property
    def journal_path(self) -> str:
        return os.path.join(self.directory, JOURNAL_FILE)

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_FILE)

    # -- writing ---------------------------------------------------------------

    def write(self, record: dict[str, Any]) -> int:
        """Append one record; returns its ``seq`` (``-1`` once closed)."""
        return self._log.append(record)

    def metrics_snapshot(self, values: dict[str, Any], label: str = "") -> int:
        """Journal a point-in-time metrics snapshot (flat name → value)."""
        record: dict[str, Any] = {"kind": "metrics", "values": values}
        if label:
            record["label"] = label
        return self.write(record)

    def failure(self, record: dict[str, Any]) -> int:
        """Journal one terminal-failure record (a ``FailureRecord`` dict)."""
        return self.write({"kind": "failure", **record})

    def flush(self) -> None:
        self._log.flush()

    def close(self, status: str = "ok", **fields: Any) -> None:
        """Write the terminal ``run.end`` record and close the file."""
        self.write(
            {"kind": "run.end", "run": self.manifest.run_id, "status": status, **fields}
        )
        self._log.close()
        atexit.unregister(self._log.flush)

    @property
    def closed(self) -> bool:
        return self._log.closed

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.closed:
            self.close(status="error" if exc is not None else "ok")


# -- reading -------------------------------------------------------------------


def find_journal(path: str | os.PathLike) -> str:
    """Resolve a user-supplied path to a ``journal.jsonl`` file.

    Accepts the journal file itself, a run directory containing one, or
    a root directory containing exactly one run directory.
    """
    p = Path(os.fspath(path))
    if p.is_file():
        return str(p)
    if p.is_dir():
        direct = p / JOURNAL_FILE
        if direct.is_file():
            return str(direct)
        candidates = sorted(d for d in p.iterdir() if (d / JOURNAL_FILE).is_file())
        if len(candidates) == 1:
            return str(candidates[0] / JOURNAL_FILE)
        if candidates:
            names = ", ".join(d.name for d in candidates)
            raise FileNotFoundError(
                f"{p}: contains multiple run journals ({names}); pass one run directory"
            )
    raise FileNotFoundError(f"{p}: no {JOURNAL_FILE} found")


@dataclass
class JournalView:
    """One read of a journal: parsed records + recovery diagnostics."""

    path: str
    manifest: RunManifest | None
    records: list[dict[str, Any]]
    truncated: bool = False  # a torn final line was dropped
    corrupt: int = 0  # terminated lines that failed to parse (never ours)

    @property
    def run_id(self) -> str | None:
        if self.manifest is not None:
            return self.manifest.run_id
        for r in self.records:
            if r.get("kind") == "run.start":
                return r.get("run")
        return None

    @property
    def complete(self) -> bool:
        """Whether the run closed cleanly (a ``run.end`` record exists)."""
        return any(r.get("kind") == "run.end" for r in self.records)

    def events(self) -> list[Event]:
        return [Event.from_dict(r) for r in self.records if r.get("kind") == "event"]

    def spans(self) -> list[Span]:
        return [Span.from_dict(r) for r in self.records if r.get("kind") == "span"]

    def failures(self) -> list[dict[str, Any]]:
        return [r for r in self.records if r.get("kind") == "failure"]

    def last_metrics(self) -> dict[str, float]:
        """The most recent journaled metrics snapshot (flat dict)."""
        for r in reversed(self.records):
            if r.get("kind") == "metrics":
                return dict(r.get("values") or {})
        return {}


def read_journal(path: str | os.PathLike) -> JournalView:
    """Read a journal (possibly live/crashed) into a :class:`JournalView`.

    Accepts anything :func:`find_journal` does, including a bare JSONL
    file such as the recorder's ``jsonl_path`` sink.  Tolerant the way
    :func:`read_records` is, so ``tail``/``report`` can follow a journal
    that is still being written.
    """
    journal_path = find_journal(path)
    directory = Path(journal_path).parent
    manifest: RunManifest | None = None
    manifest_path = directory / MANIFEST_FILE
    if manifest_path.is_file():
        manifest = RunManifest.load(manifest_path)

    records, truncated, corrupt = read_records(journal_path)
    return JournalView(
        path=journal_path,
        manifest=manifest,
        records=records,
        truncated=truncated,
        corrupt=len(corrupt),
    )
