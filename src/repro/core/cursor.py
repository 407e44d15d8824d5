"""Cursor-style interactive querying (paper §3's interactive mode as an
API instead of a callback).

The paper's mediator "calculates a first set of answers and presents them
to the user", who then asks for more or stops.  :class:`QueryCursor`
exposes exactly that: ``fetch(n)`` pulls the next batch (charging only the
simulated work actually needed), ``close()`` abandons the rest — like
HERMES killing still-running external programs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.core.plans import Plan
from repro.core.terms import Term, Value, Variable
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.core.executor import Executor
    from repro.net.clock import SimClock


class QueryCursor:
    """A lazy answer stream over one executing plan."""

    def __init__(
        self,
        executor: "Executor",
        plan: Plan,
        clock: "SimClock",
        initial_subst: Optional[dict[Variable, Term]] = None,
    ):
        self._plan = plan
        self._clock = clock
        self._start_ms = clock.now_ms
        self._stream: Optional[Iterator[tuple[Value, ...]]] = executor.stream(
            plan, initial_subst=initial_subst
        )
        self._fetched: list[tuple[Value, ...]] = []
        self._exhausted = False
        self._t_first_ms: Optional[float] = None

    # -- consumption -------------------------------------------------------

    def fetch(self, count: int = 10) -> list[tuple[Value, ...]]:
        """Pull up to ``count`` more answers (empty list = exhausted)."""
        if count < 1:
            raise ReproError("fetch count must be positive")
        if self._stream is None and not self._exhausted:
            raise ReproError("cursor is closed")
        batch: list[tuple[Value, ...]] = []
        while self._stream is not None and len(batch) < count:
            try:
                answer = next(self._stream)
            except StopIteration:
                self._exhausted = True
                self._stream = None
                break
            if self._t_first_ms is None:
                self._t_first_ms = self._clock.now_ms - self._start_ms
            batch.append(answer)
        self._fetched.extend(batch)
        return batch

    def fetch_all(self) -> list[tuple[Value, ...]]:
        """Drain the cursor; returns the remaining answers."""
        out: list[tuple[Value, ...]] = []
        while True:
            batch = self.fetch(64)
            if not batch:
                return out
            out.extend(batch)

    def close(self) -> None:
        """Abandon remaining work (idempotent)."""
        self._stream = None

    def __enter__(self) -> "QueryCursor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __iter__(self) -> Iterator[tuple[Value, ...]]:
        while True:
            batch = self.fetch(1)
            if not batch:
                return
            yield batch[0]

    # -- state ----------------------------------------------------------------

    @property
    def plan(self) -> Plan:
        return self._plan

    @property
    def answers_so_far(self) -> tuple[tuple[Value, ...], ...]:
        return tuple(self._fetched)

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    @property
    def closed(self) -> bool:
        return self._stream is None

    @property
    def t_first_ms(self) -> Optional[float]:
        """Simulated time from cursor open to the first answer."""
        return self._t_first_ms

    @property
    def elapsed_ms(self) -> float:
        """Simulated time charged so far by this cursor's consumption."""
        return self._clock.now_ms - self._start_ms
