"""The persistent, content-addressed artifact store (``repro.store``).

Every pipeline stage can memoize its output across *processes*: artifacts
are JSON envelopes written under a versioned on-disk layout, keyed by a
content digest of everything the artifact depends on (program
fingerprint, device, configuration, code version — see
:mod:`repro.store.keys`).

Design constraints, mirroring the in-memory fitness cache:

* **Atomic writes** — an artifact is staged to a temporary file in the
  same directory and ``os.replace``-d into place, so readers never see a
  half-written entry (and concurrent writers race benignly: last writer
  wins with an intact file).
* **Integrity-validated reads** — every envelope carries a SHA-256
  checksum of its canonical payload encoding; a read that fails JSON
  parsing, schema validation, key matching or the checksum is treated as
  a *miss*, the offending file is removed (poison recovery), and a
  warning is logged.  Store corruption can therefore degrade a run to a
  cold execution but never fail it.
* **Fail-soft writes** — an unwritable store (read-only filesystem, disk
  full) downgrades to warnings; the run proceeds uncached.
* **A memory tier in front of the disk** — :meth:`ArtifactStore.get_decoded`
  keeps what a read decoded (process-wide, keyed by root, namespace and
  key) and serves it again while the entry's file is unchanged, and
  :meth:`ArtifactStore.remember` keeps objects that exist only in memory,
  valid while every entry they were derived from is.  The disk stays the
  source of truth: the tier is filled by reads only, so a fresh root is
  cold and a hit returns what a disk read would have decoded.

Layout::

    <root>/v1/<namespace>/<key[:2]>/<key>.json

The root defaults to ``~/.cache/repro`` and is overridden by the
``REPRO_STORE`` environment variable or
:attr:`repro.api.TransformConfig.store_root`.  Wipe it with
``rm -rf <root>`` (or :meth:`ArtifactStore.wipe`) at any time — the
store is a pure cache and every entry can be regenerated.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from .. import __version__
from ..errors import StoreError
from ..observability.metrics import get_registry
from ..observability.tracing import span
from ..reliability import faults
from .keys import checksum_payload

logger = logging.getLogger(__name__)

#: bumped whenever the on-disk envelope format changes incompatibly
STORE_SCHEMA = "repro.store/1"
#: directory level encoding the layout version (independent of SCHEMA so a
#: layout change does not have to orphan readable envelopes and vice versa)
LAYOUT_DIR = "v1"

ENV_STORE = "REPRO_STORE"
DEFAULT_ROOT = "~/.cache/repro"

#: capacity of the process-wide memory tier, in entries (least recently
#: used evicted first).  One warm transform holds seven: five decoded
#: (metadata, targets, graphs, search result, verdict), the built problem
#: and the materialized program; a reseed adds none (its search result is
#: computed, and only reads fill the tier).  Sized on measured traffic: a
#: ``service-mixed`` worker's tier serves the same 144 of 240 warm
#: requests at 8, 16, 64 or 4 096 entries (a program's repeats follow its
#: first touch), while every entry beyond eight only costs worker RSS.
MEMORY_TIER_ENTRIES = 8

#: spellings that switch an environment variable off — the one definition,
#: shared with the ``REPRO_TELEMETRY`` half of the reader in :mod:`repro.api`
ENV_FALSY = frozenset({"0", "false", "off", "no"})


def default_store_root(environ: Optional[Dict[str, str]] = None) -> str:
    """The effective store root: ``REPRO_STORE`` or ``~/.cache/repro``."""
    env = os.environ if environ is None else environ
    raw = (env.get(ENV_STORE) or "").strip()
    if raw and raw.lower() not in ENV_FALSY:
        return raw
    return DEFAULT_ROOT


def store_enabled_from_env(environ: Optional[Dict[str, str]] = None) -> bool:
    """Whether the environment opts this process into the store.

    The store is opt-in: it activates when ``REPRO_STORE`` names a root
    (any non-falsy value), or when the caller asks for it explicitly
    (``--store`` / ``TransformConfig(store=True)``).
    """
    env = os.environ if environ is None else environ
    raw = (env.get(ENV_STORE) or "").strip()
    return bool(raw) and raw.lower() not in ENV_FALSY


#: what ``os.stat`` says about one entry file: inode, size, mtime, ctime
Stamp = Tuple[int, int, int, int]
#: the entry files (path, stamp) a tier object was decoded or derived from
Deps = Tuple[Tuple[str, Stamp], ...]
T = TypeVar("T")


def _stamp(st: os.stat_result) -> Stamp:
    return (st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def _unchanged(deps: Deps) -> bool:
    for path, stamp in deps:
        try:
            if _stamp(os.stat(path)) != stamp:
                return False
        except OSError:
            return False
    return True


class MemoryTier:
    """Decoded store objects, kept process-wide in front of the disk.

    A slot is ``(root, namespace, key)``; its value is valid only while
    every file in its ``deps`` still has the stamp it had when the value
    was decoded from it (or derived from what was) — so ``wipe()``, an
    ``rm -rf`` of the root, a rewrite or a corrupted file all fall
    through to the disk path.  Values are shared, never copied: whoever
    receives one must not mutate it.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._slots: "OrderedDict[Tuple[str, str, str], Tuple[Deps, Any]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:  # never the transient size inside a put
            return len(self._slots)

    def get(self, slot: Tuple[str, str, str]) -> Optional[Tuple[Deps, Any]]:
        with self._lock:
            entry = self._slots.get(slot)
            if entry is None:
                return None
            self._slots.move_to_end(slot)
        if _unchanged(entry[0]):
            return entry
        self.discard(slot)
        return None

    def put(self, slot: Tuple[str, str, str], deps: Deps, value: Any) -> None:
        with self._lock:
            self._slots[slot] = (deps, value)
            self._slots.move_to_end(slot)
            while len(self._slots) > self.capacity:
                self._slots.popitem(last=False)

    def discard(self, slot: Tuple[str, str, str]) -> None:
        with self._lock:
            self._slots.pop(slot, None)

    def clear(self) -> None:
        with self._lock:
            self._slots.clear()


#: the one memory tier of this process (tests clear it)
MEMORY_TIER = MemoryTier(MEMORY_TIER_ENTRIES)


@dataclass
class StoreStats:
    """Read/write counters for one :class:`ArtifactStore`."""

    #: every served read, memory tier included
    hits: int = 0
    #: the hits the memory tier answered without reading a file
    memory_hits: int = 0
    #: reads that found nothing, on disk (a memory-only entry's absence
    #: is not one: it is counted in ``memory_misses``)
    misses: int = 0
    #: :meth:`ArtifactStore.recall` lookups the tier could not answer
    memory_misses: int = 0
    #: entries rejected by envelope validation and removed (poison recovery)
    invalid: int = 0
    writes: int = 0
    write_errors: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    #: hits per namespace (provenance for ``run.json``)
    hit_namespaces: Dict[str, int] = field(default_factory=dict)
    #: per-namespace traffic table (hits/misses/writes/bytes each way),
    #: carried into ``run.json`` and the run ledger
    namespaces: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def namespace(self, name: str) -> Dict[str, int]:
        """The (created-on-demand) traffic row for one namespace."""
        return self.namespaces.setdefault(
            name,
            {
                "hits": 0,
                "memory_hits": 0,
                "misses": 0,
                "writes": 0,
                "bytes_read": 0,
                "bytes_written": 0,
            },
        )

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "misses": self.misses,
            "memory_misses": self.memory_misses,
            "invalid": self.invalid,
            "writes": self.writes,
            "write_errors": self.write_errors,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "hit_rate": round(self.hit_rate, 4),
            "hit_namespaces": dict(sorted(self.hit_namespaces.items())),
            "namespaces": {
                ns: dict(row)
                for ns, row in sorted(self.namespaces.items())
            },
        }


class ArtifactStore:
    """A cross-run cache of pipeline artifacts rooted at a directory."""

    def __init__(self, root: "str | Path | None" = None) -> None:
        raw = Path(root if root is not None else default_store_root())
        self.root = raw.expanduser()
        if self.root.exists() and not self.root.is_dir():
            raise StoreError(f"store root {self.root} is not a directory")
        self.stats = StoreStats()
        #: (path, stamp) of every entry this store served, in order — what
        #: an object derived from them depends on (:meth:`served_since`)
        self._served: List[Tuple[str, Stamp]] = []

    # --------------------------------------------------------------- layout

    def path_for(self, namespace: str, key: str) -> Path:
        return self.root / LAYOUT_DIR / namespace / key[:2] / f"{key}.json"

    # ----------------------------------------------------------------- read

    def get(self, namespace: str, key: str) -> Optional[Dict[str, Any]]:
        """The payload stored under ``(namespace, key)``, or ``None``.

        Every failure mode — missing file, unreadable file, malformed
        JSON, wrong schema/key, checksum mismatch, injected poison — is
        a miss; validation failures additionally remove the entry.
        """
        path = self.path_for(namespace, key)
        registry = get_registry()
        start = perf_counter()
        with span("store:get", namespace=namespace):
            try:
                with open(path) as fh:
                    stamp = _stamp(os.fstat(fh.fileno()))
                    raw = fh.read()
            except FileNotFoundError:
                self._record_miss(namespace, registry, "miss", start)
                return None
            except OSError as exc:
                logger.warning(
                    "store: unreadable entry %s (%s); treating as a miss",
                    path, exc,
                )
                self._record_miss(namespace, registry, "error", start)
                return None
            if faults.poison_cache_value("store"):
                raw = raw[: len(raw) // 2] + "\x00poisoned"
            payload = self._validate(namespace, key, raw)
            if payload is None:
                self._quarantine(path)
                self.stats.invalid += 1
                self._record_miss(namespace, registry, "invalid", start)
                return None
            nbytes = len(raw.encode("utf-8", "replace"))
            self._served.append((str(path), stamp))
            self._record_hit(namespace, registry, "hit")
            self.stats.bytes_read += nbytes
            self.stats.namespace(namespace)["bytes_read"] += nbytes
            registry.inc("store_read_bytes_total", nbytes, namespace=namespace)
            registry.observe(
                "store_read_seconds", perf_counter() - start,
                namespace=namespace,
            )
            return payload

    def _record_hit(self, namespace: str, registry, outcome: str) -> None:
        self.stats.hits += 1
        self.stats.hit_namespaces[namespace] = (
            self.stats.hit_namespaces.get(namespace, 0) + 1
        )
        row = self.stats.namespace(namespace)
        row["hits"] += 1
        if outcome == "memory":
            self.stats.memory_hits += 1
            row["memory_hits"] += 1
        registry.inc("store_reads_total", namespace=namespace, outcome=outcome)

    # ---------------------------------------------------------- memory tier

    def _slot(self, namespace: str, key: str) -> Tuple[str, str, str]:
        return (str(self.root), namespace, key)

    def _recall(
        self, namespace: str, key: str, on_disk: bool
    ) -> Optional[Tuple[Deps, Any]]:
        """The tier's entry for ``(namespace, key)``, counted as a hit.

        For an entry that stands in for a disk read (``on_disk``) the
        ``store`` fault seam fires as it would on the read: the entry is
        dropped, its file quarantined, and the read is an invalid miss —
        poison recovery behaves as it does on disk.
        """
        slot = self._slot(namespace, key)
        entry = MEMORY_TIER.get(slot)
        if entry is None:
            return None
        registry = get_registry()
        if on_disk and faults.poison_cache_value("store"):
            MEMORY_TIER.discard(slot)
            for path, _ in entry[0]:
                self._quarantine(Path(path))
            self.stats.invalid += 1
            self._record_miss(namespace, registry, "invalid")
            return None
        self._served.extend(entry[0])
        self._record_hit(namespace, registry, "memory")
        return entry

    def get_decoded(
        self, namespace: str, key: str, decode: Callable[[Dict[str, Any]], Optional[T]]
    ) -> Optional[T]:
        """``decode(get(namespace, key))``, served from the memory tier
        while the entry's file is unchanged since it was decoded.

        ``decode`` must be a pure function of the payload (``None`` for
        an unusable one) and its result is shared with every later hit,
        so callers must not mutate it.  Only a read fills the tier.
        """
        entry = self._recall(namespace, key, on_disk=True)
        if entry is not None:
            return entry[1]
        mark = len(self._served)
        payload = self.get(namespace, key)
        if payload is None:
            return None
        value = decode(payload)
        if value is not None:
            MEMORY_TIER.put(
                self._slot(namespace, key), tuple(self._served[mark:]), value
            )
        return value

    def recall(self, namespace: str, key: str) -> Optional[Any]:
        """A memory-only entry (:meth:`remember`), or ``None``.

        An absence is a ``memory_misses``, not a store miss: the disk
        never holds these entries.  While a fault plan is active the
        tier is not asked at all — a served entry would skip the seams
        (``analysis``, ``parse``, ``codegen``) that deriving it visits on
        a disk-served run.
        """
        if faults.active_plan() is None:
            entry = self._recall(namespace, key, on_disk=False)
            if entry is not None:
                return entry[1]
        self.stats.memory_misses += 1
        return None

    def remember(self, namespace: str, key: str, value: Any, deps: Deps) -> None:
        """Keep ``value`` in memory only, valid while ``deps`` are unchanged.

        ``deps`` are the entries it was derived from (:meth:`served_since`);
        an object derived from anything else must not be remembered, or a
        hit would differ from a disk-served run.  Nothing is kept while a
        fault plan is active: a seam that fired while ``value`` was
        derived degrades it (a conservatively described node, a demoted
        group), and that must not outlive the run.
        """
        if deps and faults.active_plan() is None:
            MEMORY_TIER.put(self._slot(namespace, key), deps, value)

    def mark(self) -> Tuple[int, int]:
        """A position to call :meth:`served_since` with."""
        return len(self._served), self.stats.misses

    def served_since(self, mark: Tuple[int, int]) -> Optional[Deps]:
        """The entries served since ``mark`` — ``None`` if a read missed."""
        served, misses = mark
        if self.stats.misses != misses:
            return None
        return tuple(self._served[served:])

    def _record_miss(
        self, namespace: str, registry, outcome: str,
        start: Optional[float] = None,
    ) -> None:
        self.stats.misses += 1
        self.stats.namespace(namespace)["misses"] += 1
        registry.inc("store_reads_total", namespace=namespace, outcome=outcome)
        if start is not None:
            registry.observe(
                "store_read_seconds", perf_counter() - start,
                namespace=namespace,
            )

    def _validate(
        self, namespace: str, key: str, raw: str
    ) -> Optional[Dict[str, Any]]:
        try:
            envelope = json.loads(raw)
        except (json.JSONDecodeError, ValueError):
            logger.warning(
                "store: corrupt entry %s/%s (unparseable JSON); "
                "degrading to a cold run for this artifact", namespace, key,
            )
            return None
        if not isinstance(envelope, dict):
            logger.warning("store: entry %s/%s is not an object", namespace, key)
            return None
        if envelope.get("schema") != STORE_SCHEMA:
            logger.warning(
                "store: entry %s/%s has schema %r (want %r)",
                namespace, key, envelope.get("schema"), STORE_SCHEMA,
            )
            return None
        if envelope.get("namespace") != namespace or envelope.get("key") != key:
            logger.warning(
                "store: entry %s/%s addressed as %s/%s — misplaced file",
                envelope.get("namespace"), envelope.get("key"), namespace, key,
            )
            return None
        payload = envelope.get("payload")
        if not isinstance(payload, dict):
            logger.warning("store: entry %s/%s has no payload", namespace, key)
            return None
        if envelope.get("sha256") != checksum_payload(payload):
            logger.warning(
                "store: entry %s/%s failed its checksum; removing it and "
                "degrading to a cold run for this artifact", namespace, key,
            )
            return None
        return payload

    def _quarantine(self, path: Path) -> None:
        """Remove a corrupt entry so it cannot poison later runs."""
        try:
            path.unlink()
        except OSError:  # pragma: no cover - removal is best effort
            pass

    # ---------------------------------------------------------------- write

    def put(self, namespace: str, key: str, payload: Dict[str, Any]) -> bool:
        """Atomically persist ``payload``; returns False on failure."""
        path = self.path_for(namespace, key)
        envelope = {
            "schema": STORE_SCHEMA,
            "namespace": namespace,
            "key": key,
            "repro_version": __version__,
            "sha256": checksum_payload(payload),
            "payload": payload,
        }
        registry = get_registry()
        start = perf_counter()
        with span("store:put", namespace=namespace):
            try:
                body = json.dumps(envelope, sort_keys=True) + "\n"
                nbytes = len(body.encode("utf-8"))
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(
                    dir=str(path.parent), prefix=".tmp-", suffix=".json"
                )
                try:
                    with os.fdopen(fd, "w") as fh:
                        fh.write(body)
                    os.replace(tmp, path)
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
            except (OSError, TypeError, ValueError) as exc:
                logger.warning(
                    "store: could not persist %s/%s (%s); continuing uncached",
                    namespace, key, exc,
                )
                self.stats.write_errors += 1
                registry.inc(
                    "store_writes_total", namespace=namespace, outcome="error"
                )
                return False
        self.stats.writes += 1
        self.stats.bytes_written += nbytes
        row = self.stats.namespace(namespace)
        row["writes"] += 1
        row["bytes_written"] += nbytes
        registry.inc("store_writes_total", namespace=namespace, outcome="ok")
        registry.inc("store_write_bytes_total", nbytes, namespace=namespace)
        registry.observe(
            "store_write_seconds", perf_counter() - start, namespace=namespace
        )
        return True

    # ----------------------------------------------------------- maintenance

    def wipe(self, namespace: Optional[str] = None) -> int:
        """Delete every entry (or one namespace); returns files removed."""
        base = self.root / LAYOUT_DIR
        if namespace is not None:
            base = base / namespace
        removed = 0
        if not base.exists():
            return 0
        for path in sorted(base.rglob("*.json")):
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover
                pass
        return removed

    def entry_count(self, namespace: Optional[str] = None) -> int:
        base = self.root / LAYOUT_DIR
        if namespace is not None:
            base = base / namespace
        if not base.exists():
            return 0
        return sum(1 for _ in base.rglob("*.json"))

    def describe(self) -> Dict[str, object]:
        """Provenance block for ``run.json``."""
        return {
            "root": str(self.root),
            "schema": STORE_SCHEMA,
            "stats": self.stats.as_dict(),
        }


def open_store(
    root: "str | Path | None" = None, *, create: bool = True
) -> Optional[ArtifactStore]:
    """Best-effort store construction: ``None`` instead of an exception.

    The pipeline must never fail because its cache is unusable, so the
    one construction-time error (:class:`StoreError`, root is a regular
    file) is logged and swallowed here.
    """
    try:
        store = ArtifactStore(root)
        if create:
            store.root.mkdir(parents=True, exist_ok=True)
        return store
    except (StoreError, OSError) as exc:
        logger.warning("store: disabled (%s)", exc)
        return None
