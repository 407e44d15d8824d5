"""The cost-vector database (paper §6.1): raw per-call statistics.

For every executed domain call the database keeps ``(domain call, cost
vector, record.time)``.  It can answer any call-pattern estimate directly
by filtering + averaging — the "fully detailed statistics" the paper
warns is storage-hungry and aggregation-heavy, which is precisely what
summary tables exist to avoid.  Aggregation work is surfaced through
``AggregationTrace`` so the summarization benchmarks can show the
tradeoff.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro.dcsm.patterns import CallPattern
from repro.dcsm.vectors import CostVector, Observation

if TYPE_CHECKING:
    from repro.storage.backend import StorageBackend


@dataclass(frozen=True, slots=True)
class AggregationTrace:
    """How much work one raw-database estimate performed."""

    observations_scanned: int
    observations_matched: int


class CostVectorDatabase:
    """Append-only store of observations, bucketed per source function.

    With a :class:`~repro.storage.backend.StorageBackend` attached, every
    recorded observation also writes through to the backend's ``"dcsm"``
    store (and trimmed observations are deleted from it), so a later
    session can warm-restart the statistics cache via
    :meth:`load_from_backend`.  Estimates never read the backend — the
    in-memory buckets stay authoritative.
    """

    def __init__(self, max_observations_per_function: Optional[int] = None):
        self._buckets: dict[tuple[str, str], list[Observation]] = {}
        self.max_observations_per_function = max_observations_per_function
        self.total_recorded = 0
        # storage mirroring: per-bucket backend keys parallel the bucket
        # lists, and a per-bucket sequence number keeps keys unique
        self.backend: Optional[StorageBackend] = None
        self.store = "dcsm"
        self._backend_keys: dict[tuple[str, str], list[str]] = {}
        self._seq: dict[tuple[str, str], int] = {}
        self._mirror = True
        # per bucket: how many observations the cap dropped off the front,
        # and the recorded() count right after the latest such trim — the
        # two numbers behind recorded() and since(), kept off the
        # untrimmed record path
        self._trimmed: dict[tuple[str, str], int] = {}
        self._trimmed_at: dict[tuple[str, str], int] = {}
        # concurrent runtime workers record into shared buckets
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def record(self, observation: Observation) -> None:
        key = (observation.domain, observation.function)
        with self._lock:
            bucket = self._buckets.setdefault(key, [])
            bucket.append(observation)
            self.total_recorded += 1
            self._backend_append(key, observation)
            self._apply_cap(key, bucket)

    def _apply_cap(self, key: tuple[str, str], bucket: list[Observation]) -> None:
        limit = self.max_observations_per_function
        if limit is not None and len(bucket) > limit:
            trim = len(bucket) - limit
            del bucket[:trim]  # keep the most recent
            self._backend_trim(key, trim)
            self._trimmed[key] = self._trimmed.get(key, 0) + trim
            self._trimmed_at[key] = self._trimmed[key] + len(bucket)

    def observations(self, domain: str, function: str) -> tuple[Observation, ...]:
        with self._lock:
            return tuple(self._buckets.get((domain, function), ()))

    def recorded(self, domain: str, function: str) -> int:
        """How many observations of ``domain:function`` were ever recorded
        — monotonic: trimming by the cap does not lower it."""
        key = (domain, function)
        with self._lock:
            return self._trimmed.get(key, 0) + len(self._buckets.get(key, ()))

    def since(
        self, domain: str, function: str, mark: int
    ) -> Optional[tuple[Observation, ...]]:
        """The observations recorded after the first ``mark`` (a
        :meth:`recorded` reading), oldest first — or ``None`` once the cap
        has trimmed the bucket after ``mark``: state summarised up to
        ``mark`` then holds observations the log no longer has."""
        key = (domain, function)
        with self._lock:
            if self._trimmed_at.get(key, 0) > mark:
                return None
            bucket = self._buckets.get(key, [])
            return tuple(bucket[mark - self._trimmed.get(key, 0) :])

    # -- storage backend (persistence) -------------------------------------

    def attach_backend(self, backend: "StorageBackend", store: str = "dcsm") -> None:
        """Start mirroring recorded observations into ``backend``.

        Per-bucket sequence numbers resume *after* the highest key the
        backend already holds: a cold session (no
        :meth:`load_from_backend`) writing against a non-empty store
        must append to the previous session's records, not overwrite
        them from zero — overwriting would leave an interleaved mix of
        stale and fresh observations for the next warm start to load.
        """
        with self._lock:
            self.backend = backend
            self.store = store
            for key, __ in backend.scan_prefix(store, ""):
                head, _, seq_text = key.rpartition(":")
                domain, _, function = head.rpartition(":")
                if not domain or not seq_text.isdigit():
                    continue
                bucket_key = (domain, function)
                self._seq[bucket_key] = max(
                    self._seq.get(bucket_key, 0), int(seq_text) + 1
                )

    def load_from_backend(self) -> int:
        """Warm restart: replay every persisted observation into the
        in-memory buckets (per-function caps apply).  Undecodable records
        are dropped from the backend.  Returns the count restored."""
        if self.backend is None:
            from repro.errors import StorageError

            raise StorageError("no storage backend attached")
        from repro.dcsm.codec import decode_observation

        records = list(self.backend.scan_prefix(self.store, ""))
        count = 0
        with self._lock:
            self._mirror = False
            try:
                for key, data in records:
                    try:
                        observation = decode_observation(data)
                    except Exception:
                        self.backend.delete(self.store, key)
                        continue
                    bucket_key = (observation.domain, observation.function)
                    bucket = self._buckets.setdefault(bucket_key, [])
                    bucket.append(observation)
                    self._backend_keys.setdefault(bucket_key, []).append(key)
                    seq = int(key.rsplit(":", 1)[-1]) if key[-1].isdigit() else 0
                    self._seq[bucket_key] = max(
                        self._seq.get(bucket_key, 0), seq + 1
                    )
                    self.total_recorded += 1
                    count += 1
                    self._apply_cap(bucket_key, bucket)
            finally:
                self._mirror = True
        return count

    def sync_backend(self) -> int:
        """Make the attached backend hold exactly the in-memory log: the
        step a backend attached to an already-populated database needs
        (``attach_backend`` mirrors from then on; it does not look back).
        Returns the number of observations written."""
        if self.backend is None:
            return 0
        from repro.storage.backend import wipe_store

        with self._lock:
            wipe_store(self.backend, self.store)
            self._backend_keys.clear()
            self._seq.clear()
            for bucket_key, bucket in self._buckets.items():
                for observation in bucket:
                    self._backend_append(bucket_key, observation)
            return len(self)

    def _backend_append(self, key: tuple[str, str], observation: Observation) -> None:
        if self.backend is None or not self._mirror:
            return
        from repro.dcsm.codec import encode_observation, observation_key

        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        backend_key = observation_key(key[0], key[1], seq)
        self._backend_keys.setdefault(key, []).append(backend_key)
        self.backend.put(self.store, backend_key, encode_observation(observation))

    def _backend_trim(self, key: tuple[str, str], trim: int) -> None:
        if self.backend is None:
            return
        keys = self._backend_keys.get(key)
        if not keys:
            return
        for backend_key in keys[:trim]:
            self.backend.delete(self.store, backend_key)
        del keys[:trim]

    def functions(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self._buckets))

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def size_cells(self) -> int:
        """Storage footprint in metric cells (3 per observation) — the
        unit the summarization experiments compare against tables."""
        return 3 * len(self)

    # -- direct aggregation ---------------------------------------------------

    def estimate(
        self,
        pattern: CallPattern,
        now_ms: Optional[float] = None,
        decay_tau_ms: Optional[float] = None,
    ) -> tuple[CostVector, AggregationTrace]:
        """Average the matching observations (the expensive path).

        With ``decay_tau_ms`` set, observations are weighted by
        ``exp(-(now - record_time)/tau)`` — the paper's §6.2.2 suggestion
        of "giving precedence to more recent statistics".
        """
        bucket = self._buckets.get((pattern.domain, pattern.function), ())
        matched = [obs for obs in bucket if pattern.matches(obs.call)]
        trace = AggregationTrace(len(bucket), len(matched))
        return _weighted_average(matched, now_ms, decay_tau_ms), trace


def _weighted_average(
    observations: Iterable[Observation],
    now_ms: Optional[float],
    decay_tau_ms: Optional[float],
) -> CostVector:
    sums = {"tf": 0.0, "ta": 0.0, "card": 0.0}
    weights = {"tf": 0.0, "ta": 0.0, "card": 0.0}
    for obs in observations:
        weight = 1.0
        if decay_tau_ms is not None and now_ms is not None:
            age = max(now_ms - obs.record_time_ms, 0.0)
            weight = math.exp(-age / decay_tau_ms)
        vec = obs.vector
        if vec.t_first_ms is not None:
            sums["tf"] += weight * vec.t_first_ms
            weights["tf"] += weight
        # incomplete runs under-report T_all and Card; leave them out
        if obs.complete and vec.t_all_ms is not None:
            sums["ta"] += weight * vec.t_all_ms
            weights["ta"] += weight
        if obs.complete and vec.cardinality is not None:
            sums["card"] += weight * vec.cardinality
            weights["card"] += weight
    return CostVector(
        t_first_ms=sums["tf"] / weights["tf"] if weights["tf"] else None,
        t_all_ms=sums["ta"] / weights["ta"] if weights["ta"] else None,
        cardinality=sums["card"] / weights["card"] if weights["card"] else None,
    )
