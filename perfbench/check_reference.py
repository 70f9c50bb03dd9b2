"""Checks of the benchmark's own parts: ``python3 -m pytest perfbench``.

The reference answers are cross-checked against the brute-force
``repro.oracle`` on a small instance, for both CQAPs and through a delta
script; the oracle is far too slow at benchmark sizes.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import CQAP, Atom, Database, Relation, catalog, path_database  # noqa: E402
from repro.oracle import oracle_probe  # noqa: E402

from inputs import DeltaScript, path_edges  # noqa: E402
from layers import GroupLog, TimedBackend, covered  # noqa: E402
from reference import PathReference  # noqa: E402

N_EDGES, DOMAIN = 100, 20


def database(edges) -> Database:
    return Database(Relation(name, (f"x{i}", f"x{i + 1}"), rows)
                    for i, (name, rows) in enumerate(sorted(edges.items()),
                                                     start=1))


def cqaps():
    atoms = [Atom(f"R{i}", (f"x{i}", f"x{i + 1}")) for i in range(1, 4)]
    return [catalog.k_path_cqap(3),
            CQAP(("x1", "x2", "x3", "x4"), ("x1", "x4"), atoms,
                 name="path3_enum")]


def assert_agrees(reference: PathReference, db: Database) -> None:
    bindings = [(a, d) for a in range(DOMAIN) for d in range(DOMAIN)]
    for cqap in cqaps():
        head = tuple(cqap.head)
        for binding in bindings:
            expected = reference.expected(head, binding)
            assert expected == set(oracle_probe(cqap, db, binding)), \
                (cqap.name, binding)


def test_edges_match_path_database():
    edges = path_edges(N_EDGES, DOMAIN, seed=3)
    db = path_database(3, N_EDGES, DOMAIN, seed=3)
    assert {name: db[name].tuples for name in edges} == edges


def test_reference_matches_oracle_through_deltas():
    edges = path_edges(N_EDGES, DOMAIN, seed=5)
    db = database(edges)
    reference = PathReference(edges)
    assert_agrees(reference, db)
    script = DeltaScript(random.Random(9), edges, DOMAIN)
    for step in range(24):
        op, name, row = script.next()
        assert op == ("insert" if step % 2 == 0 else "delete")
        # every scripted delta changes the database
        changed = db.insert(name, row) if op == "insert" \
            else db.delete(name, row)
        assert changed, (op, name, row)
        reference.apply(op, name, row)
        if step % 8 == 7:
            assert_agrees(reference, db)


def test_matches_any_column_order():
    edges = path_edges(N_EDGES, DOMAIN, seed=5)
    reference = PathReference(edges)
    head = ("x1", "x2", "x3", "x4")
    binding = next((a, d) for a in range(DOMAIN) for d in range(DOMAIN)
                   if len(reference.paths(a, d)) > 1)
    rows = reference.paths(*binding)
    flipped = Relation("answer", tuple(reversed(head)),
                       [tuple(reversed(row)) for row in rows])
    assert reference.matches(head, binding, flipped)
    flipped.discard(next(iter(flipped.tuples)))
    assert not reference.matches(head, binding, flipped)


def test_timed_backend_keeps_dispatch_path():
    class Inline:
        n_shards = 1

        def answer_group(self, shard_id, group):
            return {}, None

    class Async(Inline):
        def submit_group(self, shard_id, group):
            class Done:
                def result(self):
                    return {}, None
            return Done()

    log = GroupLog()
    inline, fleet = TimedBackend(Inline(), log), TimedBackend(Async(), log)
    assert not hasattr(inline, "submit_group")
    assert inline.n_shards == 1
    inline.answer_group(0, [(1, 2)])
    fleet.submit_group(0, [(1, 2), (3, 4)]).result()
    log.close_batch()
    assert len(log.groups) == 2 and log.keys == 3


def test_covered_merges_overlaps():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert covered([]) == 0.0
