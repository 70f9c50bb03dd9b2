"""Seeded input generators for the benchmark.

Everything the program under test receives is made here from seeds: the
edge sets of the 3-path database, the probe streams, and the delta
script.  Nothing in this module imports ``repro``,
so the same inputs feed the program and the independent reference check.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Dict, Iterator, List, Set, Tuple

Edge = Tuple[int, int]

#: relation names of the 3-path database, ``Ri(xi, xi+1)``
RELATIONS = ("R1", "R2", "R3")


def edge_set(n_edges: int, domain: int, seed: int) -> Set[Edge]:
    """``n_edges`` distinct uniform pairs over ``[0, domain)``.

    The same draw sequence as ``repro.data.generators.random_edge_relation``
    without skew, so a seed names the same graph as ``path_database``.
    """
    rng = random.Random(seed)
    edges: Set[Edge] = set()
    attempts, max_attempts = 0, 50 * n_edges + 100
    while len(edges) < n_edges and attempts < max_attempts:
        attempts += 1
        src = rng.randrange(domain)
        edges.add((src, rng.randrange(domain)))
    return edges


def path_edges(n_edges: int, domain: int, seed: int) -> Dict[str, Set[Edge]]:
    """The three layers of a 3-path database; layer ``i`` uses ``seed + i``."""
    return {name: edge_set(n_edges, domain, seed + i)
            for i, name in enumerate(RELATIONS, start=1)}


def binding_pool(rng: random.Random, domain: int, size: int) -> List[Edge]:
    """``size`` distinct ``(x1, x4)`` bindings, in draw order."""
    pool: Dict[Edge, None] = {}
    while len(pool) < size:
        pool[(rng.randrange(domain), rng.randrange(domain))] = None
    return list(pool)


class ProbeStream:
    """An endless seeded binding stream that stops at a deadline.

    Iterating yields bindings until ``perf_counter()`` passes the
    deadline given to :meth:`until`; ``pulled`` records the time each
    binding was handed out, which is where a probe's latency starts.
    """

    def __init__(self, draw) -> None:
        self._draw = draw
        self.pulled: List[float] = []

    @classmethod
    def uniform(cls, rng: random.Random, domain: int) -> "ProbeStream":
        return cls(lambda: (rng.randrange(domain), rng.randrange(domain)))

    @classmethod
    def hot(cls, rng: random.Random, hot: List[Edge], pool: List[Edge],
            hot_share: float) -> "ProbeStream":
        return cls(lambda: rng.choice(hot) if rng.random() < hot_share
                   else rng.choice(pool))

    def until(self, deadline: float) -> Iterator[Edge]:
        while True:
            now = perf_counter()
            if now >= deadline:
                return
            self.pulled.append(now)
            yield self._draw()


class DeltaScript:
    """Alternating insert/delete deltas that always change the database.

    Inserts draw an absent edge and deletes a present one, so no delta is
    a silent no-op.  Each insert/delete pair goes to the next relation in
    turn, so every run applies the same mix of operations and only the
    rows are random.  The script tracks the current edge sets itself.
    """

    def __init__(self, rng: random.Random, edges: Dict[str, Set[Edge]],
                 domain: int) -> None:
        self._rng = rng
        self._domain = domain
        # a list per relation for uniform choice, plus each edge's slot
        self._rows = {name: sorted(rows) for name, rows in edges.items()}
        self._slot = {name: {row: i for i, row in enumerate(rows)}
                      for name, rows in self._rows.items()}
        self.issued = 0

    def next(self) -> Tuple[str, str, Edge]:
        rng = self._rng
        step = self.issued
        self.issued += 1
        name = RELATIONS[step // 2 % len(RELATIONS)]
        rows, slot = self._rows[name], self._slot[name]
        if step % 2 == 0:
            while True:
                row = (rng.randrange(self._domain), rng.randrange(self._domain))
                if row not in slot:
                    break
            slot[row] = len(rows)
            rows.append(row)
            return "insert", name, row
        row = rows[rng.randrange(len(rows))]
        last = rows.pop()
        if last != row:
            rows[slot[row]] = last
            slot[last] = slot[row]
        del slot[row]
        return "delete", name, row

