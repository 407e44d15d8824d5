"""The mediator façade — the library's main entry point.

Wires together every subsystem of the paper's Figure 1 architecture:

* the **rule rewriter** (cost-guided plan search),
* the **rule cost estimator** (plan pricing via DCSM),
* the **DCSM** (statistics cache of actual call costs),
* the **CIM** (result cache + invariants),
* the **execution engine** (pipelined nested loops on a simulated clock),
* the **domain registry** (local substrates, optionally behind simulated
  remote sites).

Typical use::

    med = Mediator()
    med.register_domain(relational_engine, site="maryland")
    med.register_domain(avis, site="italy")
    med.load_program('''
        actors(A) :- in(Obj, video:actors_in('rope'))
                   & in(Row, relation:equal('cast', 'role', Obj))
                   & =(Row.name, A).
    ''')
    med.add_invariant("F1 <= F2 & L2 <= L1 => "
                      "video:frames_to_objects(V, F1, L1) >= "
                      "video:frames_to_objects(V, F2, L2).")
    result = med.query("?- actors(A).")
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import tempfile
import threading
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Union

from repro.cancellation import CancellationToken
from repro.cim.cache import POLICY_COST, ResultCache
from repro.cim.manager import CacheInvariantManager, CimPolicy
from repro.core.answers import QueryResult
from repro.core.estimator import EstimatorSession, PlanEstimate, RuleCostEstimator
from repro.core.executor import (
    MODE_ALL,
    MODE_INTERACTIVE,
    ContinueCallback,
    Executor,
    merge_results,
)
from repro.core.model import GroundCall, Invariant, Program, Query, Rule
from repro.core.parser import parse_invariant, parse_program, parse_query
from repro.core.plancache import CachedPlan, PlanCache, canonicalize, exact_key
from repro.core.plans import Plan, PlanStep
from repro.core.rewriter import Rewriter, RewriterConfig, SearchResult, SearchStats
from repro.core.subplan import SubplanResultCache, canonicalize_prefix, replay_cost_ms
from repro.core.terms import Constant, Variable
from repro.dcsm.module import DCSM
from repro.dcsm.vectors import CostVector
from repro.domains.base import Domain
from repro.domains.registry import DomainRegistry
from repro.errors import PlanningError, ReproError
from repro.metrics import MetricsRegistry
from repro.net.clock import SimClock
from repro.net.faults import FaultInjector, FaultSpec
from repro.net.health import HealthPolicy, HealthRegistry, HedgePolicy
from repro.net.policy import RetryPolicy
from repro.net.remote import RemoteDomain
from repro.net.sites import Site, make_site
from repro.runtime.repair import Completeness, PlanRepairer
from repro.runtime.singleflight import SingleFlight
from repro.storage import snapshot
from repro.storage.backend import StorageBackend, make_backend

if TYPE_CHECKING:
    from repro.analysis import AnalysisReport
    from repro.core.cursor import QueryCursor
    from repro.core.executor import ExecutionResult

#: use_cim values: route nothing, everything, or a chosen set of domains.
CimRouting = Union[bool, set, frozenset, None]

#: what ``storage=`` accepts: nothing (environment/default), a spec
#: string for :func:`~repro.storage.backend.make_backend`, or a backend.
StorageSpec = Union[None, str, StorageBackend]

#: distinguishes the storage paths of mediators created in one process
#: when a bare ``sqlite``/``sharded`` kind (no path) is requested.
_storage_seq = itertools.count()


def _default_storage_root() -> str:
    """A private, user-owned directory for default storage files.

    Whoever can write the stores chooses the answers, statistics and
    plans the next warm start serves.  The default therefore must never
    be the shared system temp dir itself — it is a per-user subdirectory
    created with mode 0700 and verified to belong to this user, falling
    back to a fresh ``mkdtemp`` (0700 by construction) if that fails.
    """
    uid = os.getuid() if hasattr(os, "getuid") else "user"
    root = os.path.join(tempfile.gettempdir(), f"repro-storage-{uid}")
    try:
        os.makedirs(root, mode=0o700, exist_ok=True)
        if hasattr(os, "getuid") and os.stat(root).st_uid != os.getuid():
            raise OSError(f"{root} is not owned by the current user")
        os.chmod(root, 0o700)
    except OSError:
        root = tempfile.mkdtemp(prefix="repro-storage-")
    return root


def _estimated_t_all(dcsm: DCSM, call: GroundCall) -> Optional[float]:
    """DCSM-estimated T_all of re-running ``call`` (the cost-aware
    evictor's notion of an entry's replacement value)."""
    try:
        return dcsm.cost(call).t_all_ms
    except ReproError:
        return None


def _expand_storage_spec(spec: str) -> str:
    """Give a path-less ``sqlite``/``sharded`` spec a private location.

    The CI backend matrix exports ``REPRO_STORAGE=sqlite`` for the whole
    test suite; every mediator must then get its *own* file (shared state
    across unrelated mediators would change observable behavior).  Files
    land under ``$REPRO_STORAGE_PATH`` (the conftest points it at a pytest
    temp dir) or a per-user 0700 directory (see
    :func:`_default_storage_root` for why never the shared temp dir).
    """
    kind = spec.strip().lower()
    if kind not in ("sqlite", "sharded"):
        return spec
    root = os.environ.get("REPRO_STORAGE_PATH") or _default_storage_root()
    unique = f"repro-storage-{os.getpid()}-{next(_storage_seq)}"
    if kind == "sqlite":
        return f"sqlite:{os.path.join(root, unique + '.db')}"
    return f"sharded:{os.path.join(root, unique)}"


class Mediator:
    """A HERMES-style mediator with cost-based optimization and caching."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        dcsm: Optional[DCSM] = None,
        cim: Optional[CacheInvariantManager] = None,
        rewriter_config: Optional[RewriterConfig] = None,
        cim_policy: CimPolicy = CimPolicy.SERIAL,
        record_statistics: bool = True,
        comparison_selectivity: float = 1.0,
        init_overhead_ms: float = 5.0,
        display_cost_ms: float = 0.05,
        use_predicate_first_stats: bool = False,
        memoize_calls: bool = False,
        retry_policy: Optional[RetryPolicy] = None,
        degrade_on_failure: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        verify_plans: bool = False,
        use_plan_cache: bool = True,
        plan_cache_entries: int = 256,
        jobs: Optional[int] = None,
        health_policy: Optional[HealthPolicy] = None,
        hedge_policy: Optional[HedgePolicy] = None,
        repair: bool = False,
        repair_max_attempts: int = 2,
        storage: StorageSpec = None,
        warm_start: bool = False,
        cache_max_bytes: Optional[int] = None,
        use_subplan_cache: bool = False,
        subplan_cache_entries: int = 256,
        subplan_max_bytes: Optional[int] = None,
        subplan_ttl_ms: Optional[float] = None,
    ):
        self.clock = clock if clock is not None else SimClock()
        self.registry = DomainRegistry()
        # one registry shared by every subsystem, so `repro stats` sees the
        # whole picture; components passed in with their own registry keep it
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.retry_policy = retry_policy
        # persistent cache storage: every cache keeps memory authoritative
        # and mirrors durable state through one backend (repro.storage).
        # storage=None consults $REPRO_STORAGE (the CI backend matrix)
        # before falling back to the in-process MemoryBackend.
        if storage is None:
            storage = os.environ.get("REPRO_STORAGE") or "memory"
        if isinstance(storage, str):
            self.storage: StorageBackend = make_backend(
                _expand_storage_spec(storage), metrics=self.metrics
            )
        else:
            self.storage = storage
            if getattr(self.storage, "metrics", None) is None:
                self.storage.metrics = self.metrics  # type: ignore[misc]
        self.warm_start = warm_start
        self.cache_max_bytes = cache_max_bytes
        # per snapshot tier, the records read back from the backend and
        # waiting for a load_program whose fingerprint matches the one
        # they were computed under (see _adopt_persisted_plans)
        self._staged: dict[str, list[snapshot.Staged[Any]]] = {}
        self._storage_closed = False
        self._close_lock = threading.Lock()
        # self-healing: a health registry (breakers + latency windows) is
        # created when either health tracking or hedging is requested;
        # repair=True turns terminal call failures into partial answers
        # and re-plans around the sources that caused them
        self.health: Optional[HealthRegistry] = None
        if health_policy is not None or hedge_policy is not None:
            self.health = HealthRegistry(health_policy, metrics=self.metrics)
        self.hedge_policy = hedge_policy
        self.repair = repair
        self.repair_max_attempts = repair_max_attempts
        self.dcsm = (
            dcsm if dcsm is not None else DCSM(clock=self.clock, metrics=self.metrics)
        )
        if self.dcsm.metrics is None:
            self.dcsm.metrics = self.metrics
        if self.dcsm.database.backend is None:
            self.dcsm.attach_backend(self.storage)
        if cim is not None:
            self.cim = cim
        else:
            # a byte budget switches the default result cache to the
            # cost-aware policy: victims are ranked by DCSM-estimated
            # recompute cost x hit frequency per byte, so cheap,
            # rarely-hit entries leave first
            if cache_max_bytes is not None:
                from repro.storage.evictor import CostFrequencyEvictor

                result_cache = ResultCache(
                    max_bytes=cache_max_bytes,
                    policy=POLICY_COST,
                    evictor=CostFrequencyEvictor(
                        functools.partial(_estimated_t_all, self.dcsm)
                    ),
                    backend=self.storage,
                    metrics=self.metrics,
                )
            else:
                result_cache = ResultCache(backend=self.storage, metrics=self.metrics)
            self.cim = CacheInvariantManager(
                self.registry,
                self.clock,
                cache=result_cache,
                policy=cim_policy,
                observer=self.dcsm.record if record_statistics else None,
                metrics=self.metrics,
            )
        if self.cim.metrics is None:
            self.cim.metrics = self.metrics
        if self.cim.cache.backend is None:
            self.cim.cache.attach_backend(self.storage, metrics=self.metrics)
        self.program = Program()
        self.rewriter_config = (
            rewriter_config if rewriter_config is not None else RewriterConfig()
        )
        self.cost_estimator = RuleCostEstimator(
            self.dcsm, comparison_selectivity=comparison_selectivity
        )
        # the middle caching tier (docs/CACHING.md): materialized plan-prefix
        # results keyed by constant-abstracted canonical sub-patterns.  The
        # budget is per-tier: the subplan tier gets its own pool (defaulting
        # to cache_max_bytes) instead of competing with the CIM for one,
        # so intermediate results can never starve ground-call entries.
        self.use_subplan_cache = use_subplan_cache
        if subplan_max_bytes is None:
            subplan_max_bytes = cache_max_bytes
        from repro.storage.evictor import CostFrequencyEvictor

        dcsm = self.dcsm  # the version callable must not hold the mediator
        self.subplan_cache = SubplanResultCache(
            max_entries=subplan_cache_entries,
            max_bytes=subplan_max_bytes,
            ttl_ms=subplan_ttl_ms,
            evictor=(
                CostFrequencyEvictor() if subplan_max_bytes is not None else None
            ),
            metrics=self.metrics,
            dcsm_version_fn=lambda: dcsm.version,
        )
        # single-flight over subplan keys, shared across queries: one
        # concurrent query's prefix materialization feeds another's
        self.subplan_flight = SingleFlight(self.metrics)
        self.executor = Executor(
            self.registry,
            self.clock,
            cim=self.cim,
            dcsm=self.dcsm,
            record_statistics=record_statistics,
            init_overhead_ms=init_overhead_ms,
            display_cost_ms=display_cost_ms,
            memoize_calls=memoize_calls,
            policy=retry_policy,
            degrade_on_failure=degrade_on_failure,
            metrics=self.metrics,
            verify_plans=verify_plans,
            health=self.health,
            hedge_policy=hedge_policy,
            partial_on_failure=repair,
            subplan=self.subplan_cache if use_subplan_cache else None,
            jobs=jobs or 1,
            subplan_flight=self.subplan_flight,
        )
        self._rewriter: Optional[Rewriter] = None
        # concurrent sessions may race the first query; without the lock
        # two threads could each build a Rewriter and split its state
        self._rewriter_lock = threading.Lock()
        # the plan cache memoizes Rewriter.search's winning plans per
        # constant-abstracted query shape
        self.use_plan_cache = use_plan_cache
        self.plan_cache = PlanCache(max_entries=plan_cache_entries)
        # the enabled tiers persisted per program (repro.storage.snapshot),
        # under the name their storage.warm_start.* metrics carry
        self._snapshot_tiers: dict[str, snapshot.SnapshotTier[Any]] = {}
        if use_plan_cache:
            self._snapshot_tiers["plans"] = self.plan_cache
        if use_subplan_cache:
            self._snapshot_tiers["subplans"] = self.subplan_cache
        # paper §8's proposed remedy for first-answer underprediction:
        # "cache ... the time for the first answer of predicates in the
        # same way we cache statistics for domain calls".  When enabled,
        # single-predicate queries record their measured T_first, and
        # later predictions for that predicate are floored by the
        # historical average (backtracking makes reality slower than the
        # Σ T_firstᵢ formula, never faster).
        self.use_predicate_first_stats = use_predicate_first_stats
        if warm_start:
            self._load_warm_start()

    # -- persistent storage (warm restart) -----------------------------------------

    def _load_warm_start(self) -> None:
        """Reload persisted cache state from the storage backend.

        CIM entries and DCSM observations restore immediately (they are
        valid regardless of what program gets loaded).  Plan templates
        and subplan results are only *staged*: they are valid for exactly
        the program they were computed under, so each one waits for a
        ``load_program`` / ``add_invariant`` whose fingerprint matches
        (see :meth:`_adopt_persisted_plans`); the rest are dropped at the
        next :meth:`flush_storage`, never replayed.
        """
        cim_loaded = self.cim.cache.load_from_backend(now_ms=self.clock.now_ms)
        dcsm_loaded = self.dcsm.load_from_backend()
        self._staged = {
            name: snapshot.stage(tier, self.storage)
            for name, tier in self._snapshot_tiers.items()
        }
        self.metrics.inc("storage.warm_start.cim_entries", float(cim_loaded))
        self.metrics.inc(
            "storage.warm_start.dcsm_observations", float(dcsm_loaded)
        )
        self.metrics.inc(
            "storage.warm_start.entries_loaded", float(cim_loaded + dcsm_loaded)
        )

    def _program_fingerprint(self) -> str:
        """Content hash of the planning inputs (rules + invariants +
        pre-rewrite configuration) — the cross-process equivalent of the
        in-process plan epoch.  The static-filter knob is part of the
        hash because it changes which program the rewriter actually
        plans: a template planned with filtering on must not be adopted
        by a mediator planning the unfiltered program (and vice versa).
        Only the *configuration* is hashed — running the analysis here
        would require building a Rewriter, which recursive programs
        (rightly) refuse."""
        hasher = hashlib.sha256()
        for text in sorted(str(rule) for rule in self.program):
            hasher.update(text.encode("utf-8"))
            hasher.update(b"\n")
        hasher.update(b"--invariants--\n")
        for text in sorted(str(inv) for inv in self.cim.invariants):
            hasher.update(text.encode("utf-8"))
            hasher.update(b"\n")
        hasher.update(b"--planner-config--\n")
        hasher.update(
            f"static_filter={'on' if self.rewriter_config.static_filter else 'off'}"
            f":v1\n".encode("utf-8")
        )
        return hasher.hexdigest()

    def _adopt_persisted_plans(self) -> None:
        """Install staged records if the program now matches them.

        Adopted entries are re-stamped with the live epoch and DCSM
        version; ``summarize()`` runs first — once, for every tier — so
        the version they carry is the one the next lookup will compare
        against (otherwise the first estimate would bump it and lazily
        drop every adopted entry).
        """
        if not any(self._staged.values()):
            return
        fingerprint = self._program_fingerprint()
        if not any(
            record.fingerprint == fingerprint
            for staged in self._staged.values()
            for record in staged
        ):
            return
        self.dcsm.summarize()
        for name, staged in self._staged.items():
            adopted, self._staged[name] = snapshot.adopt(
                self._snapshot_tiers[name],
                staged,
                fingerprint,
                now_ms=self.clock.now_ms,
                dcsm_version=self.dcsm.version,
            )
            if adopted:
                self.metrics.inc(f"storage.warm_start.{name}_adopted", float(adopted))
                self.metrics.inc("storage.warm_start.entries_loaded", float(adopted))

    def flush_storage(self) -> None:
        """Make the mirrored cache state durable.

        CIM entries re-sync (capturing hit counts accumulated since they
        were first mirrored), the plan and subplan tiers snapshot
        wholesale under the current program fingerprint — skipping
        lazily-invalidated entries whose epoch or DCSM version is stale,
        which must not masquerade as current-program entries on the next
        warm start — and the backend flushes crash-consistently.  Staged
        warm-start records that no program claimed are dropped here.

        Raises :class:`~repro.errors.ReproError` after :meth:`close` —
        the backend is gone, and silently "flushing" nowhere would let
        callers believe their cache state was made durable.
        """
        if self._storage_closed:
            raise ReproError("storage is closed; nothing to flush")
        self._flush_storage()

    def _flush_storage(self) -> None:
        self.cim.cache.sync_backend()
        fingerprint = self._program_fingerprint()
        for tier in self._snapshot_tiers.values():
            snapshot.save(
                tier,
                self.storage,
                fingerprint,
                now_ms=self.clock.now_ms,
                dcsm_version=self.dcsm.version,
            )
        for name, staged in self._staged.items():
            if staged:
                self.metrics.inc(
                    f"storage.warm_start.{name}_dropped", float(len(staged))
                )
        self._staged = {}
        self.storage.flush()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (storage detached)."""
        return self._storage_closed

    def close(self) -> None:
        """Flush and close the storage backend.

        The mediator stays usable for queries afterwards — the caches
        simply stop mirroring (memory remains authoritative).  Idempotent:
        the flag flips under a lock before the flush, so concurrent or
        repeated ``close()`` calls flush exactly once.
        """
        with self._close_lock:
            if self._storage_closed:
                return
            self._storage_closed = True
        try:
            self._flush_storage()
        finally:
            self.cim.cache.backend = None
            self.dcsm.database.backend = None
            self.storage.close()

    # -- runtime configuration -----------------------------------------------------

    @property
    def jobs(self) -> int:
        """Worker count of the execution engine (1 = always inline)."""
        return self.executor.jobs

    def set_jobs(self, jobs: int) -> None:
        """Set the execution engine's worker count.

        The engine is one :class:`~repro.core.executor.Executor` whatever
        the count: with ``jobs > 1`` a plan that has independent calls to
        overlap runs on a pool of that many workers (``repro.runtime``);
        everything else, and everything at ``jobs <= 1``, runs inline.
        Only the count changes — every other knob and all accumulated
        state stay where they are.
        """
        self.executor.jobs = max(1, jobs)

    # -- registration -------------------------------------------------------------

    def register_domain(
        self,
        domain: Domain,
        site: "str | Site | None" = None,
        seed: int = 0,
        faults: "FaultInjector | FaultSpec | None" = None,
    ) -> None:
        """Register a source; with ``site`` it is reached through the
        simulated network (by catalog name or an explicit ``Site``).
        ``faults`` injects probabilistic transient/timeout/permanent
        failures at that site (see :mod:`repro.net.faults`)."""
        if site is None:
            if faults is not None:
                raise ReproError(
                    "fault injection applies to remote sources; "
                    f"register {domain.name!r} with a site"
                )
            self.registry.add(domain)
            return
        if isinstance(site, str):
            site = make_site(site, seed=seed)
        self.registry.add(
            RemoteDomain(
                domain,
                site,
                self.clock,
                faults=faults,
                metrics=self.metrics,
                health=self.health,
            )
        )

    def load_program(self, program: "str | Program") -> None:
        """Add rules (text or a parsed Program) to the mediator."""
        if isinstance(program, str):
            program = parse_program(program)
        for rule in program:
            self.program.add(rule)
        self._program_changed()

    def add_rule(self, rule: "str | Rule") -> None:
        if isinstance(rule, str):
            program = parse_program(rule)
            for parsed in program:
                self.program.add(parsed)
        else:
            self.program.add(rule)
        self._program_changed()

    def add_invariant(self, invariant: "str | Invariant") -> None:
        if isinstance(invariant, str):
            invariant = parse_invariant(invariant)
        self.cim.add_invariant(invariant)
        # a new invariant changes what CIM routing can answer, so cached
        # plan choices (made without it) are stale
        self._program_changed()

    def _program_changed(self) -> None:
        """The planning inputs (rules, invariants) changed: rebuild the
        rewriter on next use, put every entry planned or materialized
        under the old program out of reach, and let staged warm-start
        records claim the new program if it is theirs."""
        self._rewriter = None
        self.plan_cache.bump_epoch()
        self.subplan_cache.bump_epoch()
        self._adopt_persisted_plans()

    def notify_source_changed(self, domain: str, function: Optional[str] = None) -> int:
        """Tell the mediator a source's data changed; drops the affected
        cached results so stale answers are not served.  Returns the
        number of cache entries dropped."""
        self.plan_cache.invalidate_source(domain, function)
        self.subplan_cache.invalidate_source(domain, function)
        return self.cim.notify_source_changed(domain, function)

    def analyze(
        self,
        queries: Iterable["str | Query"] = (),
        include_invariants: bool = True,
    ) -> "AnalysisReport":
        """Run the full static analyzer over the loaded program.

        ``queries`` (``?- ...`` strings or parsed :class:`Query` objects)
        become the analysis roots: the analyzer computes the binding
        patterns actually reachable from them and flags predicates both
        unreachable and infeasible under those patterns.  Invariants
        registered with the CIM are linted unless
        ``include_invariants=False``.  Returns an
        :class:`~repro.analysis.diagnostics.AnalysisReport`; outcomes are
        counted in the metrics registry under ``analysis.*``.
        """
        from repro.analysis import analyze_program

        parsed = tuple(
            parse_query(query) if isinstance(query, str) else query
            for query in queries
        )
        invariants = tuple(self.cim.invariants) if include_invariants else ()
        return analyze_program(
            self.program,
            registry=self.registry,
            invariants=invariants,
            queries=parsed,
            metrics=self.metrics,
        )

    # -- planning -------------------------------------------------------------------

    @property
    def rewriter(self) -> Rewriter:
        if self._rewriter is None:
            with self._rewriter_lock:
                if self._rewriter is None:
                    self._rewriter = Rewriter(self.program, self.rewriter_config)
        return self._rewriter

    def plans(
        self,
        query: "str | Query",
        use_cim: CimRouting = None,
        bindings: Optional[dict] = None,
    ) -> tuple[Plan, ...]:
        """The executable plans for a query, with CIM routing applied.

        ``bindings`` pre-binds query variables by name (parameterised
        queries): bound variables count as bound for adornment purposes,
        enabling orderings a free variable would forbid.
        """
        if isinstance(query, str):
            query = parse_query(query)
        bound_vars = frozenset(self._bindings_subst(bindings))
        plans = self.rewriter.plans(query, bound_vars=bound_vars)
        return tuple(self._route(plan, use_cim) for plan in plans)

    @staticmethod
    def _bindings_subst(bindings: Optional[dict]) -> dict:
        """{"Name": value} → {Variable("Name"): Constant(value)}."""
        if not bindings:
            return {}
        return {
            Variable(name): Constant(value) for name, value in bindings.items()
        }

    def _route(self, plan: Plan, use_cim: CimRouting) -> Plan:
        if use_cim is True:
            return plan.with_cim(None)
        if isinstance(use_cim, (set, frozenset)) and use_cim:
            return plan.with_cim(set(use_cim))
        return plan

    def _make_subplan_probe(
        self, initial_subst: Optional[dict] = None
    ) -> Optional[Callable[[tuple[PlanStep, ...]], Optional[tuple[float, float]]]]:
        """The planner's view of the subplan tier: price a candidate
        prefix at replay cost when its materialization is cached.

        Uses ``peek`` (no hit/miss accounting — pricing a prefix the
        search may discard must not skew executor hit rates).  The search
        applies the result as a discount only, so its cost bound stays
        admissible; returning the cached cardinality also tightens the
        downstream ``T_all`` products with the true prefix cardinality.
        """
        if not self.use_subplan_cache or self.subplan_cache.entry_count == 0:
            return None
        cache = self.subplan_cache
        base_ms = self.executor.memo_hit_cost_ms
        clock = self.clock
        subst = dict(initial_subst or {})

        def probe(steps: tuple[PlanStep, ...]) -> Optional[tuple[float, float]]:
            try:
                canon = canonicalize_prefix(steps, subst)
            except ReproError:
                return None
            # read the clock per probe: with subplan_ttl_ms a frozen
            # timestamp would price a prefix that expires before execution
            entry = cache.peek(canon.key, now_ms=clock.now_ms)
            if entry is None:
                return None
            return replay_cost_ms(len(entry.rows), base_ms), float(len(entry.rows))

        return probe

    def _plan_guided(
        self,
        query: Query,
        objective: str,
        use_cim: CimRouting,
        bindings: Optional[dict],
    ) -> tuple[Plan, Optional[PlanEstimate]]:
        """Plan via cost-guided search, consulting the plan cache first.

        On a cache hit the stored template is instantiated with this
        query's constants and returned without touching the rewriter or
        the DCSM.  On a miss the branch-and-bound search runs over the
        constant-abstracted query (so the resulting template is
        reusable); queries whose unfolding specialises on a constant
        value are replanned concretely and cached under an exact key.
        """
        user_bound = frozenset(self._bindings_subst(bindings))
        prefix = (
            f"{objective}|{','.join(sorted(v.name for v in user_bound))}|"
        )
        canonical = canonicalize(query)
        abstract_key = prefix + canonical.key
        epoch = self.plan_cache.epoch

        if self.use_plan_cache:
            entry = self.plan_cache.get(abstract_key, epoch, self.dcsm.version)
            if entry is not None and entry.value_dependent:
                entry = self.plan_cache.get(
                    prefix + exact_key(query), epoch, self.dcsm.version
                )
            if entry is not None and not entry.value_dependent:
                self.metrics.inc("planner.plan_cache_hits")
                plan = entry.instantiate(
                    canonical.constants if entry.params else ()
                )
                routed = self._route(plan, use_cim)
                estimate = (
                    PlanEstimate(plan=routed, vector=entry.vector, steps=())
                    if entry.vector is not None
                    else None
                )
                return routed, estimate
            self.metrics.inc("planner.plan_cache_misses")

        session = self.cost_estimator.session()
        bindings_subst = self._bindings_subst(bindings)

        def search(
            target: Query,
            params: tuple[Variable, ...] = (),
            const_subst: Optional[dict] = None,
        ) -> SearchResult:
            return self.rewriter.search(
                target,
                self.cost_estimator,
                objective=objective,
                bound_vars=user_bound | frozenset(params),
                track_vars=frozenset(params),
                session=session,
                const_subst=const_subst,
                subplan_probe=self._make_subplan_probe(
                    {**bindings_subst, **(const_subst or {})}
                ),
            )

        value_dependent = False
        if canonical.params:
            const_subst = dict(zip(canonical.params, canonical.constants))
            result = search(canonical.abstract, canonical.params, const_subst)
            value_dependent = bool(result.unified_away)
        if not canonical.params or value_dependent:
            # unfolding specialised on a parameter's value (a rule head
            # carries a constant there): the abstract template is not
            # reusable — plan the concrete query instead
            result = search(query)
            concrete = result.plan
        else:
            concrete = result.plan.substitute(const_subst)

        self._count_search(result.stats, session)
        routed, estimate = self._finish(
            concrete, result.vector, use_cim, user_bound, session
        )

        if self.use_plan_cache:
            # unpriced plans are not cached: a hit would keep serving the
            # fallback ordering and never notice statistics arriving
            version = self.dcsm.version
            if value_dependent:
                self.plan_cache.put(
                    abstract_key,
                    CachedPlan(
                        template=None,
                        vector=None,
                        params=(),
                        sources=frozenset(),
                        epoch=epoch,
                        dcsm_version=version,
                        value_dependent=True,
                    ),
                )
            if result.priced:
                self.plan_cache.put(
                    prefix + exact_key(query) if value_dependent else abstract_key,
                    CachedPlan(
                        template=result.plan,
                        vector=result.vector,
                        params=() if value_dependent else canonical.params,
                        sources=result.plan.sources(),
                        epoch=epoch,
                        dcsm_version=version,
                    ),
                )
        return routed, estimate

    def _count_search(self, stats: SearchStats, session: EstimatorSession) -> None:
        self.metrics.inc("planner.searches")
        self.metrics.inc("planner.states_expanded", stats.states_expanded)
        self.metrics.inc("planner.states_pruned", stats.states_pruned)
        self.metrics.inc("planner.estimator_lookups", session.lookups)
        self.metrics.inc("planner.estimator_memo_hits", session.memo_hits)
        self.metrics.inc("planner.tail_completions", stats.tail_completions)
        if stats.rules_filtered:
            self.metrics.inc("planner.rules_filtered", stats.rules_filtered)
        if stats.literals_filtered:
            self.metrics.inc("planner.literals_filtered", stats.literals_filtered)

    def _finish(
        self,
        plan: Plan,
        vector: Optional[CostVector],
        use_cim: CimRouting,
        user_bound: frozenset,
        session: Optional[EstimatorSession] = None,
    ) -> tuple[Plan, Optional[PlanEstimate]]:
        """Route a plan and price it step by step.  With a search's
        ``session`` the pricing reads its memo and an unpriced search
        result stays unpriced; without one (``optimize=False``) the plan
        is priced directly."""
        routed = self._route(plan, use_cim)
        if session is not None and vector is None:
            return routed, None
        estimate = self.cost_estimator.try_estimate(routed, user_bound, session)
        if estimate is None and vector is not None:
            estimate = PlanEstimate(plan=routed, vector=vector, steps=())
        return routed, estimate

    def choose_plan(
        self,
        query: "str | Query",
        objective: str = "all",
        use_cim: CimRouting = None,
        bindings: Optional[dict] = None,
        optimize: bool = True,
    ) -> tuple[Plan, Optional[PlanEstimate]]:
        """The plan :meth:`query` runs for ``query``, with its estimate.

        The mediator's one plan chooser (``query``, ``cursor`` and
        ``explain`` all ask it).  ``optimize=True`` consults the plan
        cache and otherwise runs :meth:`Rewriter.search` for the cheapest
        plan under ``objective`` (``"all"`` or ``"first"``); when nothing
        can be priced yet, the search returns the first executable
        ordering, unpriced.  ``optimize=False`` takes that first ordering
        directly.
        """
        if isinstance(query, str):
            query = parse_query(query)
        if optimize:
            return self._plan_guided(query, objective, use_cim, bindings)
        bound_vars = frozenset(self._bindings_subst(bindings))
        result = self.rewriter.search(query, None, bound_vars=bound_vars)
        return self._finish(result.plan, None, use_cim, bound_vars)

    def plan_avoiding(
        self,
        query: "str | Query",
        avoid_domains: frozenset,
        objective: str = "all",
        use_cim: CimRouting = None,
        bindings: Optional[dict] = None,
    ) -> Plan:
        """Plan ``query`` without dialing any domain in ``avoid_domains``.

        The repair path's planner entry point: rewritings that call an
        avoided domain are dropped, so only alternate rules (union
        branches, equality-invariant substitutes reaching the data
        through a different source) survive.  The plan cache is bypassed
        — avoid-sets describe a transient outage, not the program.
        Raises :class:`PlanningError` when nothing avoids the set.
        """
        if isinstance(query, str):
            query = parse_query(query)
        user_bound = frozenset(self._bindings_subst(bindings))
        result = self.rewriter.search(
            query,
            self.cost_estimator,
            objective=objective,
            bound_vars=user_bound,
            avoid_domains=frozenset(avoid_domains),
        )
        return self._route(result.plan, use_cim)

    # -- querying --------------------------------------------------------------------

    def query(
        self,
        query: "str | Query",
        mode: str = MODE_ALL,
        use_cim: CimRouting = None,
        optimize: bool = True,
        plan: Optional[Plan] = None,
        max_answers: Optional[int] = None,
        batch_size: int = 10,
        continue_callback: Optional[ContinueCallback] = None,
        semantics: str = "access-paths",
        deduplicate: bool = False,
        bindings: Optional[dict] = None,
        max_time_ms: Optional[float] = None,
        trace: bool = False,
        cancel_token: Optional["CancellationToken"] = None,
    ) -> QueryResult:
        """Plan, optimize, and execute a query.

        * ``optimize=True`` runs the cheapest plan the cost-guided search
          finds (T_all for ``mode="all"``, T_first for
          ``mode="interactive"``; see :meth:`choose_plan`).  Orderings the
          DCSM cannot price (no statistics yet) are never chosen over
          priced ones, and when *nothing* can be priced the first
          executable ordering runs (and its measured costs seed the
          statistics cache for next time).  ``optimize=False`` always
          runs that first ordering.
        * ``plan=`` bypasses planning and runs exactly that plan (used by
          the experiments to execute a specific rewriting).
        * ``use_cim`` routes calls through the Cache and Invariant
          Manager: ``True`` for all domains, a set of names for some.
        * ``semantics`` — ``"access-paths"`` (the paper's model: multiple
          rules per predicate are equivalent ways to reach the *same*
          relation, so exactly one rewriting runs) or ``"union"`` (datalog
          union: the cheapest ordering of every rule-choice combination
          runs, answers concatenated; ``deduplicate=True`` removes
          duplicate answer tuples across branches).
        """
        if isinstance(query, str):
            query = parse_query(query)
        if semantics not in ("access-paths", "union"):
            raise PlanningError(f"unknown query semantics {semantics!r}")
        initial_subst = self._bindings_subst(bindings)
        objective = "first" if mode == MODE_INTERACTIVE else "all"
        run_kwargs: dict[str, Any] = dict(
            mode=mode,
            max_answers=max_answers,
            batch_size=batch_size,
            continue_callback=continue_callback,
            initial_subst=initial_subst,
            max_time_ms=max_time_ms,
            trace=trace,
            cancel_token=cancel_token,
        )
        if semantics == "union" and plan is None:
            return self._query_union(
                query, objective, use_cim, optimize, deduplicate, run_kwargs
            )
        if plan is not None:
            chosen = plan
            chosen_estimate = self.cost_estimator.try_estimate(
                plan, frozenset(initial_subst)
            )
        else:
            chosen, chosen_estimate = self.choose_plan(
                query, objective, use_cim, bindings, optimize
            )

        chosen_estimate = self._apply_predicate_first(query, chosen_estimate)
        execution = self.executor.run(chosen, **run_kwargs)
        if self.repair and execution.missing_sources:
            # self-healing: re-plan around the sources that just failed,
            # fall back to CIM/stale answers, or keep annotated partials
            repairer = PlanRepairer(self, max_attempts=self.repair_max_attempts)
            chosen, execution, completeness = repairer.repair(
                query,
                chosen,
                execution,
                objective=objective,
                use_cim=use_cim,
                bindings=bindings,
                run_kwargs=run_kwargs,
            )
        else:
            completeness = Completeness.of(execution)
        self._record_predicate_first(query, execution)
        self._observe_query(execution, chosen_estimate)
        return QueryResult(
            query=query,
            execution=execution,
            chosen=chosen,
            chosen_estimate=chosen_estimate,
            candidate_plans=(chosen,),
            estimates=(chosen_estimate,),
            completeness=completeness,
        )

    def cursor(
        self,
        query: "str | Query",
        use_cim: CimRouting = None,
        optimize: bool = True,
        plan: Optional[Plan] = None,
        bindings: Optional[dict] = None,
    ) -> "QueryCursor":
        """Open a lazy cursor over the query (paper §3's interactive
        mode as an API): ``fetch(n)`` pulls batches, ``close()`` abandons
        the remaining simulated work."""
        from repro.core.cursor import QueryCursor

        if isinstance(query, str):
            query = parse_query(query)
        if plan is None:
            plan, __ = self.choose_plan(query, "first", use_cim, bindings, optimize)
        return QueryCursor(
            self.executor,
            plan,
            self.clock,
            initial_subst=self._bindings_subst(bindings),
        )

    def _observe_query(
        self,
        execution: "ExecutionResult",
        chosen_estimate: Optional[PlanEstimate],
    ) -> None:
        """Per-query metrics, including the DCSM's estimate-vs-actual error."""
        self.metrics.inc("mediator.queries")
        self.metrics.inc("mediator.answers", float(execution.cardinality))
        self.metrics.observe("mediator.query_ms", execution.t_all_ms)
        if execution.degraded_calls:
            self.metrics.inc("mediator.degraded_queries")
        if execution.missing_sources:
            self.metrics.inc("mediator.partial_queries")
        if execution.hedged_calls:
            self.metrics.inc("mediator.hedged_queries")
        if chosen_estimate is not None:
            self.dcsm.record_estimate_error(
                chosen_estimate.vector, execution.t_first_ms, execution.t_all_ms
            )

    # -- predicate-level first-answer statistics (paper §8 remedy) -----------------

    @staticmethod
    def _query_predicate_key(query: Query) -> Optional[tuple[str, int]]:
        from repro.core.model import Predicate

        if len(query.goals) == 1 and isinstance(query.goals[0], Predicate):
            goal = query.goals[0]
            return (goal.name, goal.arity)
        return None

    def _record_predicate_first(
        self, query: Query, execution: "ExecutionResult"
    ) -> None:
        if not self.use_predicate_first_stats:
            return
        key = self._query_predicate_key(query)
        if key is not None and execution.t_first_ms is not None:
            self.dcsm.record_predicate_first(key[0], key[1], execution.t_first_ms)

    def _apply_predicate_first(
        self, query: Query, estimate: Optional[PlanEstimate]
    ) -> Optional[PlanEstimate]:
        """Floor the formula's T_first with the predicate's history."""
        if not self.use_predicate_first_stats or estimate is None:
            return estimate
        key = self._query_predicate_key(query)
        if key is None:
            return estimate
        historical = self.dcsm.predicate_first_estimate(*key)
        if historical is None or estimate.t_first_ms >= historical:
            return estimate
        from dataclasses import replace

        corrected = CostVector(
            t_first_ms=historical,
            t_all_ms=estimate.vector.t_all_ms,
            cardinality=estimate.vector.cardinality,
        )
        return replace(estimate, vector=corrected)

    def _query_union(
        self,
        query: Query,
        objective: str,
        use_cim: CimRouting,
        optimize: bool,
        deduplicate: bool,
        run_kwargs: dict[str, Any],
    ) -> QueryResult:
        """Union semantics: run one plan per rewriting (rule-choice
        branch) — the search's cheapest under ``objective``, or with
        ``optimize=False`` its first executable ordering — and merge the
        answers.  ``run_kwargs`` are the caller's
        execution options; the answer, time and interactive limits span
        the union."""
        initial_subst = run_kwargs["initial_subst"]
        user_bound = frozenset(initial_subst)
        session = self.cost_estimator.session() if optimize else None
        results = self.rewriter.search_branches(
            query,
            self.cost_estimator if optimize else None,
            objective=objective,
            bound_vars=user_bound,
            session=session,
            subplan_probe=self._make_subplan_probe(initial_subst) if optimize else None,
        )
        if session is not None:
            self._count_search(results[0].stats, session)
        branches = [
            self._finish(result.plan, result.vector, use_cim, user_bound, session)
            for result in results
        ]
        chosen_plans = [plan for plan, __ in branches]

        max_answers = run_kwargs["max_answers"]
        max_time_ms = run_kwargs["max_time_ms"]
        continue_callback = run_kwargs["continue_callback"]
        answers: list[tuple] = []
        seen: set[tuple] = set()
        t_first: Optional[float] = None
        exhausted = True
        stopped = False

        def on_batch(batch: list[tuple], branch_total: int) -> bool:
            nonlocal stopped
            stopped = not continue_callback(batch, len(answers) + branch_total)
            return not stopped

        start_ms = self.clock.now_ms
        executions: list["ExecutionResult"] = []
        for index, branch_plan in enumerate(chosen_plans):
            elapsed = self.clock.now_ms - start_ms
            limits = dict(run_kwargs)
            if max_answers is not None:
                limits["max_answers"] = max_answers - len(answers)
            if max_time_ms is not None:
                limits["max_time_ms"] = max_time_ms - elapsed
            if continue_callback is not None:
                limits["continue_callback"] = on_batch
            if index and (
                stopped
                or (max_answers is not None and limits["max_answers"] <= 0)
                or (max_time_ms is not None and limits["max_time_ms"] <= 0)
            ):
                exhausted = False
                break
            execution = self.executor.run(branch_plan, **limits)
            executions.append(execution)
            if t_first is None and execution.t_first_ms is not None:
                t_first = elapsed + execution.t_first_ms
            for answer in execution.answers:
                if deduplicate:
                    if answer in seen:
                        continue
                    seen.add(answer)
                answers.append(answer)
        union = merge_results(
            executions,
            answers,
            query.answer_vars,
            t_first,
            self.clock.now_ms - start_ms,
            exhausted,
        )
        # no estimate-error sample here: branch estimates do not price the union
        self._observe_query(union, None)
        return QueryResult(
            query=query,
            execution=union,
            chosen=chosen_plans[0],
            chosen_estimate=branches[0][1],
            candidate_plans=tuple(chosen_plans),
            estimates=tuple(estimate for __, estimate in branches),
            completeness=Completeness.of(union),
        )

    # -- training helpers (experiments) ----------------------------------------------

    def train(self, queries: Iterable["str | Query"], **kwargs: Any) -> int:
        """Run queries purely to populate the statistics cache; returns
        how many observations DCSM now holds."""
        for q in queries:
            self.query(q, optimize=False, **kwargs)
        return self.dcsm.observation_count()
