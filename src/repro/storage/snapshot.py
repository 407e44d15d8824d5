"""Snapshot persistence for cache tiers: save, stage, adopt.

A tier whose entries are only valid for the program they were computed
under (plan templates, plan-prefix results) is not mirrored write by
write; it is *snapshotted* into its backend namespace at flush time and
*staged* — not yet live — on warm start, until a program with the same
fingerprint claims the records.  A restarted mediator's epoch counter
starts from zero, so the fingerprint (a hash of rules, invariants and
planner configuration) is the cross-process epoch.

The routine is the same for every such tier; a tier supplies its
namespace, a record version, and ``encode``/``decode`` between an entry
and a JSON object (:class:`SnapshotTier`).  Records are versioned JSON:
``{"version", "fingerprint", "key", **tier.encode(entry)}``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Generic, Protocol

from repro.errors import ReproError
from repro.storage.backend import StorageBackend, wipe_store
from repro.storage.tier import E, Entry


def encode_bookkeeping(entry: Entry) -> dict[str, Any]:
    """The :class:`~repro.storage.tier.Entry` fields worth persisting
    (stamps are not: adoption re-stamps)."""
    return {
        "sources": sorted([domain, function] for domain, function in entry.sources),
        "answer_bytes": entry.answer_bytes,
        "hits": entry.hits,
    }


def decode_bookkeeping(payload: dict[str, Any]) -> dict[str, Any]:
    """Inverse of :func:`encode_bookkeeping`, as constructor keywords."""
    return {
        "sources": frozenset((domain, function) for domain, function in payload["sources"]),
        "answer_bytes": int(payload["answer_bytes"]),
        "hits": int(payload["hits"]),
    }


class SnapshotTier(Protocol[E]):
    """What :func:`save` / :func:`stage` / :func:`adopt` need of a tier."""

    #: backend store name the tier's records live under
    namespace: str
    #: bump when ``encode``'s layout changes; other versions are deleted
    record_version: int

    @property
    def epoch(self) -> int: ...

    def live_items(self, now_ms: float, dcsm_version: int) -> list[tuple[str, E]]:
        """The entries a lookup would accept right now."""
        ...

    def encode(self, entry: E) -> dict[str, Any]: ...

    def decode(self, payload: dict[str, Any]) -> E: ...

    def adopt(self, key: str, entry: E) -> None:
        """Install a re-stamped persisted entry."""
        ...


@dataclass(frozen=True)
class Staged(Generic[E]):
    """One record read back from a backend, awaiting a matching program."""

    key: str
    fingerprint: str
    entry: E


def save(
    tier: SnapshotTier[E],
    backend: StorageBackend,
    fingerprint: str,
    now_ms: float,
    dcsm_version: int,
) -> int:
    """Rewrite the tier's namespace with its currently valid entries.

    Wholesale, because memory is authoritative: what was evicted or
    invalidated since the last save must not resurrect on warm start.
    Invalidation is lazy, so entries a lookup would drop (older epoch,
    stale statistics version, expired) still sit in memory — writing
    them under the current fingerprint would pass them off as computed
    under the current program.  Returns the number of records written.
    """
    namespace = tier.namespace
    wipe_store(backend, namespace)
    count = 0
    for key, entry in tier.live_items(now_ms, dcsm_version):
        payload = {
            "version": tier.record_version,
            "fingerprint": fingerprint,
            "key": key,
            **tier.encode(entry),
        }
        data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        backend.put(namespace, f"{namespace}:{count:06d}", data)
        count += 1
    return count


def stage(tier: SnapshotTier[E], backend: StorageBackend) -> list[Staged[E]]:
    """Read the tier's records back without making them live.  Records
    that do not decode, or carry another version (an older release's
    format), are deleted: one bad write must not wedge every restart."""
    staged: list[Staged[E]] = []
    for backend_key, data in list(backend.scan_prefix(tier.namespace, "")):
        try:
            payload = json.loads(data.decode("utf-8"))
            if payload["version"] != tier.record_version:
                raise ValueError(f"record version {payload['version']!r}")
            staged.append(
                Staged(payload["key"], payload["fingerprint"], tier.decode(payload))
            )
        except (ValueError, LookupError, TypeError, ReproError):
            backend.delete(tier.namespace, backend_key)
    return staged


def adopt(
    tier: SnapshotTier[E],
    staged: list[Staged[E]],
    fingerprint: str,
    now_ms: float,
    dcsm_version: int,
) -> tuple[int, list[Staged[E]]]:
    """Install the staged records computed under ``fingerprint``,
    re-stamped with the live epoch, statistics version and clock.
    Returns ``(adopted, leftovers)``; the leftovers belong to another
    program — a later ``load_program`` may still claim them."""
    leftovers: list[Staged[E]] = []
    adopted = 0
    for record in staged:
        if record.fingerprint != fingerprint:
            leftovers.append(record)
            continue
        tier.adopt(
            record.key,
            replace(
                record.entry,
                epoch=tier.epoch,
                dcsm_version=dcsm_version,
                stored_at_ms=now_ms,
                last_used_ms=now_ms,
            ),
        )
        adopted += 1
    return adopted, leftovers
