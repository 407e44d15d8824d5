"""Pluggable persistent storage backends for the mediator's caches.

See :mod:`repro.storage.backend` for the protocol and
``docs/STORAGE.md`` for the architecture: hot state stays in process
memory; the CIM result cache, the DCSM cost-vector database, the plan
cache and the subplan tier mirror durable state through one namespaced
key/value backend, enabling warm restart and (with the sharded backend)
future cross-process sharing.

The in-memory side of every cache tier is here too:
:mod:`repro.storage.tier` (the one budgeted, source-indexed,
stamp-validated store the tiers hold) and :mod:`repro.storage.snapshot`
(the one save / stage / adopt routine of the tiers persisted per
program).
"""

from repro.storage.backend import (
    META_KEY,
    STORE_CIM,
    STORE_DCSM,
    STORE_PLANCACHE,
    StorageBackend,
    atomic_write_bytes,
    make_backend,
    shard_prefix,
)
from repro.storage.evictor import CostFrequencyEvictor
from repro.storage.memory import MemoryBackend
from repro.storage.sharded import ShardedBackend
from repro.storage.sqlite import SqliteBackend

__all__ = [
    "META_KEY",
    "STORE_CIM",
    "STORE_DCSM",
    "STORE_PLANCACHE",
    "StorageBackend",
    "atomic_write_bytes",
    "make_backend",
    "shard_prefix",
    "CostFrequencyEvictor",
    "MemoryBackend",
    "ShardedBackend",
    "SqliteBackend",
]
