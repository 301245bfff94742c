"""Disjoint-set structures: a plain one for verification passes and a
rollback variant for the forest / 2-independent partition search."""


class UnionFind:
    """Union-find with path halving and union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; False iff they were already together."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


class RollbackUnionFind:
    """Union-find whose unions can be undone in LIFO order.

    No path compression: finds must not mutate state, otherwise rollback
    would need a full journal. Union by size keeps trees O(log n) deep,
    which is what the forest / 2-independent partition search, its one
    solver, relies on.
    """

    __slots__ = ("parent", "size", "trail")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.trail: list[int] = []

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.trail.append(rb)
        return True

    def mark(self) -> int:
        return len(self.trail)

    def rollback(self, mark: int) -> None:
        trail = self.trail
        parent = self.parent
        size = self.size
        while len(trail) > mark:
            rb = trail.pop()
            size[parent[rb]] -= size[rb]
            parent[rb] = rb
