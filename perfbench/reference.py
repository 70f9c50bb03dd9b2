"""Independent expected answers for the 3-path CQAPs.

Plain adjacency sets, no ``repro`` code: the benchmark checks every
answer the program gives against these.  The brute-force
``repro.oracle`` is far too slow at benchmark sizes (about a second per
binding at 6,000 edges per relation); ``check_reference.py`` cross-checks
this module against it on a small instance instead.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set, Tuple

Edge = Tuple[int, int]
Row = Tuple[int, ...]


class PathReference:
    """Answers of the 3-path query ``R1(x1,x2) R2(x2,x3) R3(x3,x4)``.

    Access variables are ``(x1, x4)``.  :meth:`paths` gives the full-head
    answer (every witness ``(x1, x2, x3, x4)``); :meth:`reachable` the
    Boolean one.  Deltas are applied with :meth:`apply`.  Answers are
    memoized until the next delta, so checking a repeated binding is a
    lookup.
    """

    def __init__(self, edges: Dict[str, Set[Edge]]) -> None:
        self._succ: Dict[str, Dict[int, Set[int]]] = {}
        self._pred: Dict[str, Dict[int, Set[int]]] = {}
        for name, rows in edges.items():
            succ, pred = {}, {}
            for a, b in rows:
                succ.setdefault(a, set()).add(b)
                pred.setdefault(b, set()).add(a)
            self._succ[name], self._pred[name] = succ, pred
        self._two_hop: Dict[int, FrozenSet[int]] = {}
        self._paths: Dict[Edge, Set[Row]] = {}

    def apply(self, op: str, name: str, row: Edge) -> None:
        a, b = row
        if op == "insert":
            self._succ[name].setdefault(a, set()).add(b)
            self._pred[name].setdefault(b, set()).add(a)
        elif op == "delete":
            self._succ[name][a].discard(b)
            self._pred[name][b].discard(a)
        else:
            raise ValueError(f"unknown delta op {op!r}")
        self._two_hop.clear()
        self._paths.clear()

    def _x3_from(self, x1: int) -> FrozenSet[int]:
        """Every x3 reachable from x1 through R1 then R2 (memoized)."""
        found = self._two_hop.get(x1)
        if found is None:
            r2 = self._succ["R2"]
            found = frozenset(x3 for x2 in self._succ["R1"].get(x1, ())
                              for x3 in r2.get(x2, ()))
            self._two_hop[x1] = found
        return found

    def reachable(self, x1: int, x4: int) -> bool:
        """True iff some 3-path runs from x1 to x4."""
        into = self._pred["R3"].get(x4, ())
        return not self._x3_from(x1).isdisjoint(into)

    def paths(self, x1: int, x4: int) -> Set[Row]:
        """Every witness path ``(x1, x2, x3, x4)`` (do not mutate)."""
        found = self._paths.get((x1, x4))
        if found is None:
            r2, into = self._succ["R2"], self._pred["R3"].get(x4, set())
            found = {(x1, x2, x3, x4)
                     for x2 in self._succ["R1"].get(x1, ())
                     for x3 in r2.get(x2, set()) & into}
            self._paths[x1, x4] = found
        return found

    def expected(self, head: Tuple[str, ...], binding: Edge) -> Set[Row]:
        """Answer rows in ``head`` order for the CQAP with that head."""
        x1, x4 = binding
        if head == ("x1", "x4"):
            return {(x1, x4)} if self.reachable(x1, x4) else set()
        if head == ("x1", "x2", "x3", "x4"):
            return self.paths(x1, x4)
        raise ValueError(f"no reference for head {head}")

    def matches(self, head: Tuple[str, ...], binding: Edge, answer) -> bool:
        """True iff a served answer relation holds exactly the expected
        rows, whatever its column order."""
        expected = self.expected(head, binding)
        if tuple(answer.schema) == head:
            return answer.tuples == expected
        pos = [answer.schema.index(var) for var in head]
        return {tuple(row[p] for p in pos) for row in answer.tuples} \
            == expected
