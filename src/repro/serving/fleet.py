"""The process-parallel shard fleet: one worker process per shard.

:class:`ShardedIndex` proved the access-hash partitioning semantics but
serves every shard inside one interpreter, so under the GIL shards compete
for the same core and throughput *falls* with the shard count.  The fleet
gives each shard its own process:

* :func:`~repro.serving.sharding.shard_payloads` builds one picklable
  payload per shard — CQAP, compiled T-phase steps, and the shard's raw
  S-view slices (:class:`~repro.data.relation.Relation` pickles its
  payload, never its index caches);
* each shard gets its own **single-worker**
  :class:`~concurrent.futures.ProcessPoolExecutor`, so a shard's state
  lives in exactly one process for the fleet's lifetime (shard→process
  affinity — resubmissions hit warm per-shard hash indexes);
* the worker's initializer runs the *shard-aware preprocessing*: it
  rebuilds the per-PMTD Online-Yannakakis state — semijoin reduction and
  hash-index warm-up — from its own partition slice, inside its own
  process and sized by its own ``budget_split`` share, instead of
  inheriting a parent-side global build;
* probe groups are submitted per shard and answered entirely in-worker
  (one compiled T-phase pass + the per-PMTD OY passes, split back per
  binding); only the answer rows cross the process boundary.

Shard routing stays parent-side and uses the same
:func:`~repro.serving.sharding.access_hash` as the thread backend —
``stable_hash`` is process-stable, so both backends and every shard count
route identically (the ``serving_process`` differential path asserts the
answers bit-identical).

Failure contract: a dead worker (crash, OOM-kill) surfaces as
:class:`FleetError` on the *next* result, never as a hang; ``close()``
(or the context manager) shuts every pool down and reaps the worker
processes.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.index import CQAPIndex
from repro.core.online_yannakakis import OnlineYannakakis
from repro.core.two_phase import TwoPhaseExecutor
from repro.data.relation import Relation
from repro.obs import metrics_section
from repro.obs.hist import WORK_BUCKETS, Histogram
from repro.obs.registry import REGISTRY
from repro.obs.trace import TRACER, new_id
from repro.query.cq import normalize_access_binding
from repro.serving.sharding import (
    Binding,
    ShardPayload,
    access_hash,
    merge_counters,
    partition_prefixes,
    shard_payloads,
    split_by_binding,
)
from repro.serving.stats import stats_envelope
from repro.updates import patch_family
from repro.util.counters import Counters


class FleetError(RuntimeError):
    """A fleet worker died or could not be reached (not a query error)."""


# ----------------------------------------------------------------------
# worker-side code: runs inside each shard's dedicated process
# ----------------------------------------------------------------------

#: per-process serving state, set once by :func:`_init_worker`
_WORKER: Optional["_WorkerState"] = None


@dataclass
class _WorkerState:
    shard_id: int
    cqap: object
    access: Tuple[str, ...]
    head: Tuple[str, ...]
    answer_name: str
    steps: List
    executor: TwoPhaseExecutor
    yannakakis: List[OnlineYannakakis]
    #: the payload's *raw* per-PMTD view dicts, retained past the initial
    #: Yannakakis builds: a delta mutates these in place and rebuilds the
    #: affected passes from them (the passes themselves snapshot
    #: semijoin-reduced views, so they cannot be patched)
    pmtds: List
    pmtd_views: List[Dict]
    preprocess_seconds: float
    probes_served: int = 0
    online_phases: int = 0
    counters: Counters = field(default_factory=Counters)


def _init_worker(payload_bytes: bytes) -> None:
    """Unpickle the shard payload and run the shard's own preprocessing.

    Building :class:`OnlineYannakakis` here — not in the parent — is what
    makes the preprocessing shard-aware: the semijoin reductions and
    hash-index warm-ups run against this shard's partition slices, in this
    process, so the warm serving state never crosses a process boundary.
    """
    global _WORKER
    t0 = time.process_time()
    payload: ShardPayload = pickle.loads(payload_bytes)
    cqap = payload.cqap
    yannakakis = [
        OnlineYannakakis(pmtd, views)
        for pmtd, views in zip(payload.pmtds, payload.pmtd_views)
    ]
    _WORKER = _WorkerState(
        shard_id=payload.shard_id,
        cqap=cqap,
        access=tuple(cqap.access),
        head=tuple(cqap.head),
        answer_name=f"{cqap.name}_answer",
        steps=payload.steps,
        executor=TwoPhaseExecutor(
            cqap, budget_slack=payload.budget_slack,
            relation_backend=payload.relation_backend,
        ),
        yannakakis=yannakakis,
        pmtds=list(payload.pmtds),
        pmtd_views=list(payload.pmtd_views),
        preprocess_seconds=time.process_time() - t0,
    )


def _worker_state() -> "_WorkerState":
    """The process-local serving state, or a typed error before init."""
    if _WORKER is None:
        raise FleetError("worker initializer did not run")
    return _WORKER


def _worker_ping() -> Dict:
    """Warm-up probe: forces worker start-up, reports identity and cost."""
    state = _worker_state()
    return {
        "shard": state.shard_id,
        "pid": os.getpid(),
        "preprocess_seconds": state.preprocess_seconds,
    }


def _serve_group(keys: Sequence[Binding],
                 trace_ctx: Optional[Tuple[str, str]] = None,
                 ) -> Tuple[Tuple[str, ...], Dict[Binding, frozenset],
                            Counters, float, Optional[Dict]]:
    """Answer one probe group in-worker; ships rows, counters, CPU time.

    Mirrors :meth:`ShardedIndex.answer_on_shard` + the per-binding split,
    but returns plain ``frozenset`` row sets instead of Relations — the
    parent rebuilds Relations once, so no index caches ever cross back.

    ``trace_ctx`` is the scheduler's (trace id, parent span id) pair,
    riding the pickled submission; when present the worker additionally
    ships an observability payload — its own child span (stamped with
    this process's pid and CPU ``process_time``) and a group-local
    intrinsic-work histogram the parent merges exactly into
    ``repro_worker_probe_work``.
    """
    state = _worker_state()
    t0 = time.process_time()
    ctr = Counters()
    q_a = Relation("Q_A", state.access, keys)
    t_targets = state.executor.online_compiled(state.steps, q_a,
                                               counters=ctr)
    out_rows: set = set()
    for oy in state.yannakakis:
        t_views = CQAPIndex._assemble_views(oy.pmtd.t_views, t_targets)
        psi = oy.answer(q_a, t_views, counters=ctr)
        if set(psi.schema) == set(state.head):
            out_rows |= psi.project(state.head, counters=ctr).tuples
        elif psi.schema == ():
            out_rows |= psi.tuples
    batched = Relation(state.answer_name, state.head, out_rows)
    per_key = {
        key: frozenset(rel.tuples)
        for key, rel in split_by_binding(batched, state.access,
                                         keys).items()
    }
    state.probes_served += len(keys)
    state.online_phases += 1
    cpu = time.process_time() - t0
    obs_payload: Optional[Dict] = None
    if trace_ctx is not None:
        trace_id, parent_id = trace_ctx
        work_hist = Histogram(WORK_BUCKETS)
        amortized = ctr.online_work / len(keys) if keys else 0.0
        work_hist.record(amortized, n=len(keys))
        obs_payload = {
            "span": {
                "name": "worker.serve_group",
                "trace_id": trace_id,
                "parent_id": parent_id,
                "span_id": new_id("w"),
                "duration": cpu,
                "attrs": {"shard": state.shard_id, "pid": os.getpid(),
                          "process_time": cpu, "n_keys": len(keys),
                          "work": ctr.online_work},
            },
            "work_hist": work_hist,
        }
    return batched.schema, per_key, ctr, cpu, obs_payload


@dataclass
class _WorkerDelta:
    """One routed delta message, parent → worker (picklable).

    ``view_rows`` is already routed: for a partitioned target it carries
    only the rows whose access-prefix hash lands on this shard; for a
    replicated target every worker receives all rows.  ``step_slots``
    indexes the worker's copy of the compiled T-phase steps (same list,
    same order as the parent's — both came from one payload).
    """

    op: str
    relation: str
    row: tuple
    step_slots: Tuple[int, ...]
    #: (target variable set, added rows, removed rows) per touched S-view
    view_rows: List[Tuple[frozenset, frozenset, frozenset]]


def _apply_worker_delta(delta_bytes: bytes) -> Dict:
    """Apply one routed delta to this worker's serving state.

    Mirrors the parent-side maintenance on the worker's own copies through
    the same family helper (:func:`repro.updates.patch_family`): the
    touched steps' piece relations take the row delta and their probe
    plans recompile; the raw S-view slices take their routed row deltas
    and the affected Online-Yannakakis passes are rebuilt from them.
    """
    state = _worker_state()
    delta: _WorkerDelta = pickle.loads(delta_bytes)
    if delta.step_slots:
        members = [
            rel for slot in delta.step_slots
            for atom, rel in zip(state.cqap.atoms,
                                 state.steps[slot].relations)
            if atom.relation == delta.relation
        ]
        if delta.op == "insert":
            patch_family(members, added=(delta.row,))
        else:
            patch_family(members, removed=(delta.row,))
        for slot in delta.step_slots:
            plan = state.steps[slot].plan
            if plan is not None:
                plan._compile()
    rows_applied = 0
    changed_targets = set()
    for target, added, removed in delta.view_rows:
        if not (added or removed):
            continue
        changed_targets.add(target)
        rows_applied += patch_family(
            (rel for views in state.pmtd_views for rel in views.values()
             if rel.variables == target),
            added=added, removed=removed)
    if changed_targets:
        for p, views in enumerate(state.pmtd_views):
            if any(rel.variables in changed_targets
                   for rel in views.values()):
                state.yannakakis[p] = OnlineYannakakis(state.pmtds[p],
                                                       views)
    return {"shard": state.shard_id, "rows_applied": rows_applied}


def _crash() -> None:
    """Test hook: kill this worker the way a segfault/OOM-kill would."""
    os._exit(13)


# ----------------------------------------------------------------------
# parent-side fleet
# ----------------------------------------------------------------------

@dataclass
class FleetShardState:
    """Parent-side ledger for one shard's worker process."""

    shard_id: int
    pid: Optional[int] = None
    partitioned_tuples: int = 0
    preprocess_seconds: float = 0.0
    probes_served: int = 0
    online_phases: int = 0
    cpu_seconds: float = 0.0
    counters: Counters = field(default_factory=Counters)

    def snapshot(self) -> Dict:
        return {
            "shard": self.shard_id,
            "pid": self.pid,
            "partitioned_tuples": self.partitioned_tuples,
            "preprocess_seconds": self.preprocess_seconds,
            "probes_served": self.probes_served,
            "online_phases": self.online_phases,
            "cpu_seconds": self.cpu_seconds,
            "counters": self.counters.snapshot(),
        }


class _FleetFuture:
    """A pending shard answer; ``result()`` translates worker failures."""

    def __init__(self, fleet: "ProcessShardFleet", shard_id: int,
                 keys: List[Binding], future) -> None:
        self._fleet = fleet
        self._shard_id = shard_id
        self._keys = keys
        self._future = future

    def result(self) -> Tuple[Dict[Binding, Relation], Counters]:
        return self._fleet._collect(self._shard_id, self._keys,
                                    self._future)


def _pick_context() -> multiprocessing.context.BaseContext:
    """Fork where the platform has it (cheap worker start, payload bytes
    inherited copy-on-write), spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class ProcessShardFleet:
    """Access-hash sharded serving with one worker process per shard.

    Implements the same backend contract as :class:`~repro.serving.
    sharding.ShardedIndex` — ``normalize`` / ``shard_of`` / ``n_shards`` /
    ``answer_group`` / ``close`` / the stats sections — plus the native
    asynchronous ``submit_group`` the scheduler prefers, so the two
    backends are drop-in interchangeable behind ``serve(backend=...)``.
    """

    backend = "process"
    #: the scheduler may pass ``trace_ctx=`` to ``submit_group`` /
    #: ``answer_group``; it rides the pickled submission to the worker
    supports_trace_ctx = True

    def __init__(self, index: CQAPIndex, n_shards: int = 4,
                 mp_context: Optional[str] = None) -> None:
        if not index.ready:
            raise ValueError("ProcessShardFleet needs a preprocessed "
                             "CQAPIndex; call preprocess() (or "
                             "repro.prepare) first")
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        self.index = index
        self.cqap = index.cqap
        self.access: Tuple[str, ...] = tuple(index.cqap.access)
        self.n_shards = int(n_shards)
        self._ctx = (multiprocessing.get_context(mp_context) if mp_context
                     else _pick_context())
        self.shards: List[FleetShardState] = []
        self._pools: List[ProcessPoolExecutor] = []
        self._closed = False
        #: update-path accounting (stats envelope ``updates`` section)
        self.rebuilds = 0
        self.routed_rows = 0
        try:
            self._spawn_workers()
        except BaseException:
            self.close()
            raise
        index.register_delta_listener(self)

    def _spawn_workers(self) -> None:
        """Build payloads and start one warm single-worker pool per shard.

        Runs at construction and again wholesale after a drift
        re-selection replaced the index's frozen plan state (there is no
        delta message that can describe "everything you hold is gone").
        Parent-side :class:`FleetShardState` ledgers are kept across a
        respawn so lifecycle counters survive.
        """
        index = self.index
        payloads = shard_payloads(index, self.n_shards)
        # shard slices are disjoint and cover each partitioned target, so
        # their sizes sum to the global partitioned total
        self.partitioned_tuples = sum(p.partitioned_tuples for p in payloads)
        self.replicated_tuples = index.stored_tuples - self.partitioned_tuples
        self._partition_prefix = partition_prefixes(index, self.n_shards)
        previous = {state.shard_id: state for state in self.shards}
        self.shards = []
        self._pools = []
        for payload in payloads:
            state = previous.get(payload.shard_id)
            if state is None:
                state = FleetShardState(shard_id=payload.shard_id)
            state.partitioned_tuples = payload.partitioned_tuples
            self.shards.append(state)
            self._pools.append(ProcessPoolExecutor(
                max_workers=1,
                mp_context=self._ctx,
                initializer=_init_worker,
                initargs=(pickle.dumps(payload),),
            ))
        # warm-up ping: forces every worker to start (and run its
        # shard preprocessing) now, so initializer failures surface
        # here rather than on the first probe, and records the pids
        # close() must reap
        for shard_id, pool in enumerate(self._pools):
            info = self._guard(shard_id,
                               pool.submit(_worker_ping).result)
            self.shards[shard_id].pid = info["pid"]
            self.shards[shard_id].preprocess_seconds = \
                info["preprocess_seconds"]

    # ------------------------------------------------------------------
    # routing (parent-side, identical to the thread backend)
    # ------------------------------------------------------------------
    def normalize(self, binding) -> Binding:
        """One probe binding as a tuple matching the access arity."""
        return normalize_access_binding(self.access, binding)

    def shard_of(self, key: Binding) -> int:
        """The unique home shard of a normalized access binding."""
        if self.n_shards == 1 or not self.access:
            return 0
        return access_hash(key) % self.n_shards

    # ------------------------------------------------------------------
    # group answering
    # ------------------------------------------------------------------
    def _guard(self, shard_id: int, thunk):
        """Run ``thunk``, translating a dead worker into FleetError."""
        if self._closed:
            raise FleetError("fleet is closed")
        try:
            return thunk()
        except BrokenProcessPool as exc:
            raise FleetError(
                f"shard {shard_id} worker process died (pid "
                f"{self.shards[shard_id].pid}): the shard's serving state "
                f"is lost — rebuild the fleet to recover"
            ) from exc

    def submit_group(self, shard_id: int, group: Sequence[Binding],
                     trace_ctx: Optional[Tuple[str, str]] = None,
                     ) -> _FleetFuture:
        """Dispatch one shard group to its worker; returns a future.

        The scheduler detects this method and keeps every shard's group
        in flight concurrently — on a multi-core host the workers then
        genuinely run in parallel (no GIL in common).
        """
        keys = list(group)
        pool = self._pools[shard_id]
        future = self._guard(
            shard_id, lambda: pool.submit(_serve_group, keys, trace_ctx))
        return _FleetFuture(self, shard_id, keys, future)

    def answer_group(self, shard_id: int, group: Sequence[Binding],
                     trace_ctx: Optional[Tuple[str, str]] = None,
                     ) -> Tuple[Dict[Binding, Relation], Counters]:
        """Synchronous backend contract: submit and wait."""
        return self.submit_group(shard_id, group,
                                 trace_ctx=trace_ctx).result()

    def _collect(self, shard_id: int, keys: List[Binding], future,
                 ) -> Tuple[Dict[Binding, Relation], Counters]:
        schema, per_key, ctr, cpu, obs_payload = self._guard(
            shard_id, future.result)
        state = self.shards[shard_id]
        state.probes_served += len(keys)
        state.online_phases += 1
        state.cpu_seconds += cpu
        merge_counters(state.counters, ctr)
        if obs_payload is not None:
            span = obs_payload["span"]
            TRACER.add_span(span["name"], trace_id=span["trace_id"],
                            parent_id=span["parent_id"],
                            span_id=span["span_id"],
                            duration=span["duration"],
                            attrs=span["attrs"])
            REGISTRY.histogram(
                "repro_worker_probe_work",
                "per-probe intrinsic work recorded inside the worker "
                "processes, merged worker-to-parent",
                ("shard",), bounds=WORK_BUCKETS,
            ).labels(shard=shard_id).merge(obs_payload["work_hist"])
            REGISTRY.counter(
                "repro_shard_groups_total",
                "shard groups served, by backend and shard",
                ("backend", "shard"),
            ).labels(backend="process", shard=shard_id).inc()
        name = f"{self.cqap.name}_answer"
        return {
            key: Relation(name, schema, per_key[key]) for key in keys
        }, ctr

    def probe(self, binding,
              counters: Optional[Counters] = None) -> Relation:
        """Route one binding to its shard's worker and answer it there."""
        key = self.normalize(binding)
        answered, ctr = self.answer_group(self.shard_of(key), [key])
        if counters is not None:
            merge_counters(counters, ctr)
        return answered[key]

    # ------------------------------------------------------------------
    # incremental updates (repro.updates delta events)
    # ------------------------------------------------------------------
    def on_index_delta(self, event) -> None:
        """Ship one index delta to the worker processes that need it.

        The parent routes each S-target delta row exactly like a probe —
        by :func:`access_hash` of the row's access prefix — so a
        partitioned target's row crosses one process boundary, not
        ``n_shards``; replicated-target rows and T-phase step patches go
        to every worker.  Per-shard pools are single-worker and FIFO, so
        a delta submitted here is ordered after every in-flight probe
        group and before every later one — no worker can ever serve a
        half-applied update.  A drift re-selection replaced the frozen
        plan state wholesale, so the workers are respawned from fresh
        payloads instead.
        """
        if self._closed or not event.changed:
            return
        if event.reselected:
            for pool in self._pools:
                pool.shutdown(wait=True)
            self._spawn_workers()
            self.rebuilds += 1
            return
        if not (event.step_slots or event.targets_changed):
            return
        view_rows: List[List] = [[] for _ in range(self.n_shards)]
        for target, (added, removed) in event.target_deltas.items():
            if not (added or removed):
                continue
            prefix = self._partition_prefix.get(target)
            if prefix is None:
                self.replicated_tuples += len(added) - len(removed)
                for shard_id in range(self.n_shards):
                    view_rows[shard_id].append((target, added, removed))
                continue
            self.partitioned_tuples += len(added) - len(removed)
            schema = tuple(sorted(target))
            pos = tuple(schema.index(v) for v in prefix)
            added_by: List[set] = [set() for _ in range(self.n_shards)]
            removed_by: List[set] = [set() for _ in range(self.n_shards)]
            for row in added:
                shard_id = (access_hash(tuple(row[p] for p in pos))
                            % self.n_shards)
                added_by[shard_id].add(row)
            for row in removed:
                shard_id = (access_hash(tuple(row[p] for p in pos))
                            % self.n_shards)
                removed_by[shard_id].add(row)
            for shard_id in range(self.n_shards):
                gained, lost = added_by[shard_id], removed_by[shard_id]
                if gained or lost:
                    view_rows[shard_id].append(
                        (target, frozenset(gained), frozenset(lost)))
                    self.shards[shard_id].partitioned_tuples += \
                        len(gained) - len(lost)
        pending = []
        for shard_id, pool in enumerate(self._pools):
            if not (event.step_slots or view_rows[shard_id]):
                continue
            payload = pickle.dumps(_WorkerDelta(
                op=event.op,
                relation=event.relation,
                row=event.row,
                step_slots=event.step_slots,
                view_rows=view_rows[shard_id],
            ))
            pending.append((shard_id, self._guard(
                shard_id,
                lambda p=pool, b=payload: p.submit(_apply_worker_delta, b))))
        for shard_id, future in pending:
            ack = self._guard(shard_id, future.result)
            self.routed_rows += ack["rows_applied"]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut every worker pool down and reap the processes (idempotent)."""
        self._closed = True
        self.index.unregister_delta_listener(self)
        for pool in self._pools:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ProcessShardFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def inject_worker_fault(self, shard_id: int) -> None:
        """Test hook: hard-kill one shard's worker (as a crash would).

        The next submission against the shard raises :class:`FleetError`.
        """
        pool = self._pools[shard_id]
        try:
            pool.submit(_crash).result()
        except BrokenProcessPool:
            pass

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def stored_tuples(self) -> int:
        """Global S-tuples (partitioned once + replicated once)."""
        return self.index.stored_tuples

    def budget_split(self) -> Dict:
        """How the global space budget divides across worker processes."""
        per_shard = [s.partitioned_tuples for s in self.shards]
        return {
            "shards": self.n_shards,
            "global_budget": self.index.space_budget,
            "per_shard_budget": self.index.space_budget / self.n_shards,
            "partitioned_tuples": self.partitioned_tuples,
            "replicated_tuples": self.replicated_tuples,
            "per_shard_partitioned": per_shard,
            "max_shard_tuples": (max(per_shard) if per_shard else 0)
            + self.replicated_tuples,
        }

    def engine_section(self) -> Dict:
        """The envelope's ``engine`` section for this fleet."""
        split = self.budget_split()
        return {
            "n_shards": self.n_shards,
            "budget_split": split,
            "selection": self.index.selection.snapshot(budget_split=split),
            "probes_served": sum(s.probes_served for s in self.shards),
            "online_phases": sum(s.online_phases for s in self.shards),
            "worker_cpu_seconds": sum(s.cpu_seconds for s in self.shards),
        }

    def shard_sections(self) -> List[Dict]:
        """The envelope's per-shard ``shards`` entries (pid, CPU, counters)."""
        return [s.snapshot() for s in self.shards]

    def updates_section(self) -> Dict:
        """The envelope's ``updates`` section for this layer."""
        return {
            **self.index.updates_section(),
            "rebuilds": self.rebuilds,
            "routed_rows": self.routed_rows,
        }

    def stats(self) -> Dict:
        """Versioned stats envelope (engine + per-worker sections)."""
        return stats_envelope(
            query=self.cqap.name,
            backend=self.backend,
            engine=self.engine_section(),
            updates=self.updates_section(),
            metrics=metrics_section(),
            shards=self.shard_sections(),
        )
