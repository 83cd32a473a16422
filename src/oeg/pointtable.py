"""The point table: boundary points interned as int ids, so that the germ
and groupoid comparisons compare and shift ints.  A table is built for one
graph within one call and dropped with it; callers map ids back to their
own point lists.  It has a module of its own so that commands which never
intern a point do not compile it."""

from __future__ import annotations

from .boundary import BoundaryPoint, point_range
from .graphs import Edge, Graph, _least_rotation, _primitive_root_edges


class PointTable:
    """Hash-consed boundary points: one int id per canonical point, with
    equal suffixes shared.

    Node ``i`` is the point ``head[i] . tail[i]``, so the shift is a
    ``tail`` lookup.  A finite point ends at the end node of its range
    vertex (no head, tail -1).  An eventually periodic point ends on a
    closed cycle of nodes, one per rotation of its primitive period, each
    with the next rotation as its tail.  ``cons`` folds an edge into the
    cycle predecessor when it matches, so every id is a canonical point and
    equal points get equal ids.  ``root`` is the end node or the first node
    of the cycle: two points are shift equivalent exactly when their roots
    agree.  A table serves one graph; its edges must compose.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.head: list[Edge | None] = []
        self.tail: list[int] = []
        self.root: list[int] = []
        self._pred: list[int] = []  # cycle predecessor, -1 off the cycles
        self._conses: dict[tuple[Edge, int], int] = {}
        self._ends: dict[str, int] = {}
        self._cycles: dict[tuple[Edge, ...], int] = {}  # period -> its node

    def _node(self, head: Edge | None, tail: int, root: int, pred: int) -> int:
        self.head.append(head)
        self.tail.append(tail)
        self.root.append(root)
        self._pred.append(pred)
        return len(self.head) - 1

    def end(self, v: str) -> int:
        """The empty path at ``v``, where every finite point ending at ``v``
        ends."""
        i = self._ends.get(v)
        if i is None:
            i = self._ends[v] = self._node(None, -1, len(self.head), -1)
        return i

    def cycle(self, period: tuple[Edge, ...]) -> int:
        """The periodic point with this period (rotation as given)."""
        i = self._cycles.get(period)
        if i is None:
            root, _ = _primitive_root_edges(period)
            if root not in self._cycles:
                least = _least_rotation(root)
                p, base = len(least), len(self.head)
                for r in range(p):
                    self._node(least[r], base + (r + 1) % p, base, base + (r - 1) % p)
                    self._cycles[least[r:] + least[:r]] = base + r
            i = self._cycles[period] = self._cycles[root]
        return i

    def cons(self, e: Edge, i: int) -> int:
        """The point ``e . i``."""
        p = self._pred[i]
        if p >= 0 and self.head[p] == e:
            return p
        j = self._conses.get((e, i))
        if j is None:
            j = self._conses[e, i] = self._node(e, i, self.root[i], -1)
        return j

    def intern(self, x: BoundaryPoint) -> int:
        """The id of a canonical point."""
        i = self.cycle(x.period) if x.period else self.end(point_range(self.g, x))
        for e in reversed(x.pre):
            i = self.cons(e, i)
        return i

    def orbit(self, i: int, n: int) -> list[int]:
        """The ids of ``sigma^j`` of point ``i`` for j = 0..n, stopping at the
        end of a finite point."""
        out = [i]
        tail = self.tail
        for _ in range(n):
            i = tail[i]
            if i < 0:
                break
            out.append(i)
        return out
