"""One correctness-checked benchmark of the CQAP engine.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload online-uniform --seed 1 \\
        --seconds 20 --trace 0

``repro`` is imported from the checkout's ``src/``.  Every input is
generated here (``inputs.py``): each workload's database from a fixed
data seed, its probe stream and delta script from ``--seed``.  Every
answer is checked against an independent reference (``reference.py``),
and only the public API drives the program: ``repro.prepare``,
``repro.serving.serve``, ``PreparedQuery.probe_many`` and
``CQAPIndex.apply_delta``.

``--trace 0`` prints the end-to-end metrics, pooled over ``PARTS``
sub-runs in fresh interpreters.  ``--trace 1`` runs the workload twice in
this process, each for half of ``--seconds``, untraced and then with the
layer timers of ``layers.py``, and prints the per-layer metrics.  Each
pass first warms the caches with an untimed pass over its bindings.
``repro.obs`` stays off either way.
The last line of stdout is one JSON object; the exit code is 0 when every
answer matched, 1 when one did not or an operation raised, and 2 when
the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from inputs import DeltaScript, ProbeStream, binding_pool, path_edges
from layers import GroupLog, LayerClock, TimedBackend, UntracedClock, \
    time_scheduler
from reference import PathReference

ROOT = Path(__file__).resolve().parent.parent

#: sub-runs of an untraced run, each in a fresh interpreter.  Planning
#: tie-breaks follow the interpreter's string-hash seed, which is left
#: unpinned, so one process sees one of several plans; pooling parts
#: samples several seeds per run and keeps runs comparable.
PARTS = 3
SHARDS = 2
BATCH_SIZE = 32
#: deltas applied after the stream, per part, on the serve workloads
SERVE_DELTAS = 20
#: the most recent stream bindings, probed again after those deltas
VERIFY_KEYS = 256
#: uniform bindings probed untimed before the stream of ``online-uniform``;
#: the other workloads warm up on their whole binding pool
WARMUP_KEYS = 256
HOT_BINDINGS, HOT_POOL, HOT_SHARE = 4, 400, 0.5
ENGINE_POOL, ENGINE_BATCH = 600, 20
#: seed of every workload's database; ``--seed`` draws the probe stream
#: and the delta script, so runs at different seeds share one graph and
#: differ only in traffic
DATA_SEED = 1
#: a part that has not finished by then is killed and the run fails
PART_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    name: str
    full_head: bool
    n_edges: int
    domain: int
    budget_exponent: float
    #: shard backend for ``serve()``; None runs the engine's own
    #: ``probe_many`` loop with a delta after every call
    backend: Optional[str]
    prepare_shards: int = 1
    hot: bool = False

    @property
    def budget(self) -> float:
        return self.n_edges ** self.budget_exponent


WORKLOADS = {w.name: w for w in (
    Workload("online-uniform", full_head=False, n_edges=6000, domain=400,
             budget_exponent=1.0, backend="thread"),
    Workload("materialized-hot", full_head=True, n_edges=1500, domain=150,
             budget_exponent=1.6, backend="process", prepare_shards=SHARDS,
             hot=True),
    Workload("engine-mixed-writes", full_head=False, n_edges=1500,
             domain=150, budget_exponent=1.4, backend=None),
)}


def percentile(values: List[float], q: float) -> float:
    """The q-th percentile, interpolating between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def peak_rss_mib(worker_pids=()) -> float:
    """Peak RSS of this process plus each live worker's ``VmHWM``, MiB."""
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for pid in worker_pids:
        with open(f"/proc/{pid}/status") as status:
            total += next(int(line.split()[1]) for line in status
                          if line.startswith("VmHWM:")) / 1024.0
    return total


@dataclass
class Outcome:
    """What one pass over a workload measured and checked."""

    setup_times: List[float] = field(default_factory=list)
    space: int = 0
    probes: int = 0
    wall: float = 0.0
    latencies: List[float] = field(default_factory=list)
    delta_times: List[float] = field(default_factory=list)
    online_work: int = 0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    layers: Dict[str, float] = field(default_factory=dict)


def end_to_end(parts: List[Outcome]) -> Dict[str, float]:
    """The end-to-end metrics, pooling the samples of every part."""
    def pooled(attr: str) -> List[float]:
        return [x for part in parts for x in getattr(part, attr)]

    probes = sum(part.probes for part in parts)
    return {
        "setup_s": statistics.median(pooled("setup_times")),
        "throughput_pps": probes / sum(part.wall for part in parts),
        "probe_p50_ms": percentile(pooled("latencies"), 50) * 1e3,
        "probe_p95_ms": percentile(pooled("latencies"), 95) * 1e3,
        "delta_p50_ms": percentile(pooled("delta_times"), 50) * 1e3,
        "delta_p90_ms": percentile(pooled("delta_times"), 90) * 1e3,
        "space_tuples": statistics.median(part.space for part in parts),
        "ops_per_probe": sum(part.online_work for part in parts) / probes,
        "peak_rss_mb": statistics.median(part.peak_rss_mb for part in parts),
    }


class Session:
    """A prepared query, and the server fronting it on serve workloads."""

    def __init__(self, pq, server=None, backend=None) -> None:
        self.pq = pq
        self.server = server
        #: a prebuilt backend the server does not own (traced run)
        self.backend = backend

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        if self.backend is not None:
            self.backend.close()


@dataclass
class UpdateTally:
    """Running sums over the ``UpdateEvent``s of applied deltas."""

    affected_keys: int = 0
    target_rows_changed: int = 0
    noop_deltas: int = 0
    reselections: int = 0

    def add(self, event) -> None:
        self.affected_keys += len(event.affected_keys or ())
        self.target_rows_changed += sum(
            len(added) + len(removed)
            for added, removed in event.target_deltas.values())
        self.noop_deltas += not event.changed
        self.reselections += event.reselected

    def layers(self, clock: LayerClock,
               keys_invalidated: int) -> Dict[str, float]:
        return {
            "updates.maintain_s":
                clock.total["apply_delta"] - clock.total["listener"],
            "updates.listener_s": clock.total["listener"],
            "updates.affected_keys": self.affected_keys,
            "updates.keys_invalidated": keys_invalidated,
            "updates.target_rows_changed": self.target_rows_changed,
            "updates.noop_deltas": self.noop_deltas,
            "updates.reselections": self.reselections,
        }


class Bench:
    """One workload, one seed, one part; imports ``repro`` lazily."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 part: int = 0) -> None:
        import repro
        import repro.serving

        self.repro = repro
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.part = part
        self.edges = path_edges(workload.n_edges, workload.domain,
                                DATA_SEED)
        if workload.full_head:
            atoms = [repro.Atom(f"R{i}", (f"x{i}", f"x{i + 1}"))
                     for i in range(1, 4)]
            self.cqap = repro.CQAP(("x1", "x2", "x3", "x4"), ("x1", "x4"),
                                   atoms, name="path3_enum")
        else:
            self.cqap = repro.catalog.k_path_cqap(3)
        self.head = tuple(self.cqap.head)

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.seed}/{self.part}/{purpose}")

    def database(self):
        repro = self.repro
        return repro.Database(
            repro.Relation(name, (f"x{i}", f"x{i + 1}"), rows)
            for i, (name, rows) in enumerate(sorted(self.edges.items()),
                                             start=1))

    def space(self, session: Session) -> int:
        """Tuples the index holds: the base relations plus its S-targets."""
        base = sum(len(rows) for rows in self.edges.values())
        return base + session.pq.index.stored_tuples

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def setup(self, db) -> Session:
        """``prepare()`` then ``serve()``, as a user would call them."""
        w = self.w
        pq = self.repro.prepare(self.cqap, db, w.budget,
                                shards=w.prepare_shards)
        if w.backend is None:
            return Session(pq)
        return Session(pq, self.repro.serving.serve(
            pq, backend=w.backend, shards=SHARDS, batch_size=BATCH_SIZE))

    def traced_setup(self, db, clock: LayerClock, log: GroupLog) -> Session:
        """The same set-up as :meth:`setup`, one layer call at a time."""
        from repro.serving import ProcessShardFleet, ShardedIndex
        from repro.util.counters import Counters

        w = self.w
        with clock.span("configure"):
            index = self.repro.CQAPIndex(self.cqap, db, w.budget,
                                         shards=w.prepare_shards)
        clock.wrap(index.planner, "plan_rule")
        clock.wrap(index.planner, "best_online_target")
        clock.wrap(index.executor, "preprocess", "materialize")
        counters = Counters()
        with clock.span("index.preprocess"):
            index.preprocess(counters=counters)
        pq = self.repro.PreparedQuery(index, prepare_counters=counters)
        if w.backend is None:
            return Session(pq)
        with clock.span("spawn"):
            shard_cls = (ShardedIndex if w.backend == "thread"
                         else ProcessShardFleet)
            backend = shard_cls(index, n_shards=SHARDS)
            server = self.repro.serving.serve(
                pq, backend=TimedBackend(backend, log),
                batch_size=BATCH_SIZE)
        time_scheduler(server.scheduler, clock, log)
        return Session(pq, server, backend)

    @staticmethod
    def setup_layers(clock: LayerClock, session: Session):
        index = session.pq.index
        built = index.stats.preprocess_counters
        return {
            "tradeoff.configure_s": clock.total["configure"],
            "core.plan_s": (clock.own["plan_rule"]
                            + clock.own["best_online_target"]),
            "core.plan_calls": clock.calls["plan_rule"],
            "core.materialize_s": clock.own["materialize"],
            "core.materialize_scans": built["scans"],
            "core.materialize_stores": built["stores"],
            "core.budget_aborts": index.executor.budget_aborts,
            "core.compile_s": clock.own["index.preprocess"],
            "serving.spawn_s": clock.total["spawn"],
        }

    # ------------------------------------------------------------------
    # deltas
    # ------------------------------------------------------------------
    @staticmethod
    def apply_deltas(index, script: DeltaScript, reference, clock,
                     count: int, out: Outcome, tally: UpdateTally) -> None:
        """Apply ``count`` scripted deltas to the program and the
        reference."""
        for _ in range(count):
            op, name, row = script.next()
            out.attempted += 1
            start = perf_counter()
            try:
                with clock.span("apply_delta"):
                    event = index.apply_delta(op, name, row)
            except Exception:
                traceback.print_exc()
                out.failed += 1
            else:
                out.delta_times.append(perf_counter() - start)
                tally.add(event)
            reference.apply(op, name, row)

    @staticmethod
    def listeners(clock: LayerClock, *objects) -> None:
        for obj in objects:
            clock.wrap(obj, "on_index_delta", "listener")

    # ------------------------------------------------------------------
    # workloads
    # ------------------------------------------------------------------
    def run(self, traced: bool) -> Outcome:
        clock, log = ((LayerClock(), GroupLog()) if traced
                      else (UntracedClock(), None))
        out = Outcome()
        db = self.database()
        start = perf_counter()
        session = (self.traced_setup(db, clock, log) if traced
                   else self.setup(db))
        out.setup_times.append(perf_counter() - start)
        out.space = self.space(session)
        if traced:
            out.layers.update(self.setup_layers(clock, session))
        try:
            if self.w.backend is None:
                self.run_engine(session, clock, traced, out)
            else:
                self.run_serve(session, clock, log, out)
        finally:
            session.close()
            if traced:
                clock.close()
        if traced:
            out.layers.update({"runtime.gc_s": clock.gc_s,
                               "runtime.gc_full_collections": clock.gc_full})
        return out

    def run_serve(self, session: Session, clock, log: Optional[GroupLog],
                  out: Outcome) -> None:
        """A closed-loop probe stream through ``serve()``, then deltas."""
        server, head = session.server, self.head
        reference = PathReference(self.edges)
        rng = self.rng("stream")
        if self.w.hot:
            pool = binding_pool(rng, self.w.domain, HOT_BINDINGS + HOT_POOL)
            stream = ProbeStream.hot(rng, pool[:HOT_BINDINGS],
                                     pool[HOT_BINDINGS:], HOT_SHARE)
        else:
            pool = binding_pool(self.rng("warm-up"), self.w.domain,
                                WARMUP_KEYS)
            stream = ProbeStream.uniform(rng, self.w.domain)
        # an untimed pass fills the caches and lazy indexes first, so that
        # a part's timings do not depend on how much of it was cold
        out.failed += sum(not reference.matches(head, key, answer)
                          for key, answer in server.serve(pool))
        out.attempted += len(pool)
        warm_work = sum(s["counters"]["online_work"]
                        for s in server.stats()["shards"])
        clock.reset()
        if log is not None:
            log.reset()
        # answers are checked as they arrive rather than kept: a long list
        # of answer relations would load the garbage collector and slow
        # the stream it measures
        recent: deque = deque(maxlen=VERIFY_KEYS)
        start = perf_counter()
        try:
            for key, answer in server.serve(
                    stream.until(start + self.seconds)):
                out.latencies.append(perf_counter()
                                     - stream.pulled[len(out.latencies)])
                if not reference.matches(head, key, answer):
                    out.failed += 1
                recent.append(key)
        except Exception:
            traceback.print_exc()
            out.failed += 1
        out.wall = perf_counter() - start
        out.probes = len(out.latencies)
        stats = server.stats()
        out.online_work = sum(s["counters"]["online_work"]
                              for s in stats["shards"]) - warm_work
        if log is not None:
            out.layers.update(self.serve_layers(clock, log, stats, out.wall))
            self.listeners(clock, session.pq, server.scheduler,
                           session.backend)

        # deltas through the open server, then the recently served
        # bindings again, which the scheduler cache may still hold
        script = DeltaScript(self.rng("deltas"), self.edges, self.w.domain)
        tally = UpdateTally()
        self.apply_deltas(session.pq.index, script, reference, clock,
                          SERVE_DELTAS, out, tally)
        stats = server.stats()
        if log is not None:
            out.layers.update(tally.layers(
                clock, stats["scheduler"]["keys_invalidated"]))
        again = list(dict.fromkeys(recent))
        out.failed += sum(not reference.matches(head, key, answer)
                          for key, answer in server.serve(again))
        out.attempted += out.probes + len(again)
        out.peak_rss_mb = peak_rss_mib(
            s["pid"] for s in stats["shards"] if s.get("pid") is not None)

    @staticmethod
    def serve_layers(clock: LayerClock, log: GroupLog, stats,
                     wall: float) -> Dict[str, float]:
        shards = stats["shards"]
        scheduler = stats["scheduler"]
        groups = len(log.groups)
        process = stats["backend"] == "process"
        worker_cpu = sum(s["cpu_seconds"] for s in shards) if process else 0.0
        return {
            "serving.scheduler_self_s":
                clock.total["run_keyed"] - log.critical,
            "serving.batches": clock.calls["run_keyed"],
            "serving.cache_hit_rate": scheduler["cache"]["hit_rate"],
            "serving.dedupe_ratio": scheduler["dedupe_ratio"],
            "serving.group_s": log.busy,
            "serving.groups": groups,
            "serving.keys_per_group": log.keys / groups if groups else 0.0,
            "serving.worker_cpu_s": worker_cpu,
            "serving.ipc_wait_s": log.busy - worker_cpu if process else 0.0,
            "core.online_phases": sum(s["online_phases"] for s in shards),
            "bench.unattributed_s": wall - clock.total["run_keyed"],
        }

    def run_engine(self, session: Session, clock, traced: bool,
                   out: Outcome) -> None:
        """``probe_many`` on a binding pool, one delta after every call."""
        from repro.util.counters import Counters

        pq = session.pq
        if traced:
            self.listeners(clock, pq)
        reference = PathReference(self.edges)
        pool = binding_pool(self.rng("pool"), self.w.domain, ENGINE_POOL)
        # an untimed pass over the pool fills the cache first
        got = pq.probe_many(pool)
        out.failed += sum(not reference.matches(self.head, b, got[b])
                          for b in pool)
        out.attempted += len(pool)
        clock.reset()
        rng = self.rng("stream")
        script = DeltaScript(self.rng("deltas"), self.edges, self.w.domain)
        counters = Counters()
        tally = UpdateTally()
        start = perf_counter()
        deadline = start + self.seconds
        while perf_counter() < deadline:
            bindings = [rng.choice(pool) for _ in range(ENGINE_BATCH)]
            out.attempted += len(bindings)
            began = perf_counter()
            try:
                with clock.span("probe_many"):
                    got = pq.probe_many(bindings, counters=counters)
            except Exception:
                traceback.print_exc()
                out.failed += len(bindings)
            else:
                out.latencies.extend([perf_counter() - began]
                                     * len(bindings))
                out.failed += sum(
                    not reference.matches(self.head, b, got[b])
                    for b in bindings)
            self.apply_deltas(pq.index, script, reference, clock, 1, out,
                              tally)
        out.wall = perf_counter() - start
        out.probes = len(out.latencies)
        out.online_work = counters.online_work
        out.peak_rss_mb = peak_rss_mib()
        if traced:
            stats = pq.stats()
            out.layers.update({
                "engine.probe_many_s": clock.total["probe_many"],
                "engine.cache_hit_rate": stats["engine"]["cache"]["hit_rate"],
                "core.online_phases": stats["engine"]["online_phases"],
                "bench.unattributed_s": (out.wall - clock.total["probe_many"]
                                         - clock.total["apply_delta"]),
            })
            out.layers.update(tally.layers(
                clock, stats["updates"]["keys_invalidated"]))


def run_parts(args) -> List[Outcome]:
    """Run the workload's parts one after another in fresh interpreters."""
    parts = []
    for part in range(PARTS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--part", str(part)],
            stdout=subprocess.PIPE, text=True, timeout=PART_TIMEOUT_S,
            check=True)
        parts.append(Outcome(**json.loads(child.stdout.splitlines()[-1])))
    return parts


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as spec:
        return json.load(spec)


def measured(values: Dict[str, float], declared: List[dict]) -> Dict:
    """``values`` as ``{name: {value, unit}}`` in the declared order."""
    names = {m["name"] for m in declared}
    if names != set(values):
        raise RuntimeError(
            f"metrics not measured: {sorted(names - set(values))}; "
            f"not declared: {sorted(set(values) - names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, choices=range(PARTS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"no repro package under {src}: run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]

    if args.part is not None:
        # one sub-run of an untraced run: print the raw samples
        bench = Bench(workload, args.seed, args.seconds / PARTS, args.part)
        print(json.dumps(asdict(bench.run(traced=False))))
        return 0

    spec = load_spec()
    if args.trace:
        # two passes of half the time each; the untraced one gives
        # trace_overhead its base
        bench = Bench(workload, args.seed, args.seconds / 2)
        plain, traced = bench.run(traced=False), bench.run(traced=True)
        values = dict.fromkeys((m["name"] for m in spec["per_layer"]), 0)
        values.update(traced.layers)
        values["bench.trace_overhead"] = ((traced.probes / traced.wall)
                                          / (plain.probes / plain.wall))
        declared, passes = spec["per_layer"], [plain, traced]
    else:
        try:
            passes = run_parts(args)
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as exc:
            print(f"a sub-run failed: {exc}", file=sys.stderr)
            return 1
        values, declared = end_to_end(passes), spec["end_to_end"]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    metrics = measured(values, declared)
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{'error_frac':28s} {failed / max(1, attempted):14.6g} "
          f"ratio ({failed} of {attempted} probes and deltas)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
