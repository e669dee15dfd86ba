"""Independent oracles used across the test suite.

Everything here works from raw (n, edge list) data with naive algorithms:
itertools enumeration, full subset scans, union-find.  Nothing routes
through the package's own counting or search code paths.
"""
from itertools import combinations, permutations


def mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def bits(m: int) -> list:
    out = []
    v = 0
    while m:
        if m & 1:
            out.append(v)
        m >>= 1
        v += 1
    return out


def brute_independent_rsets(n: int, edges, r: int) -> list:
    """Independent r-sets as sorted bitmask ints, by direct edge checking."""
    es = [frozenset(e) for e in edges]
    out = []
    for combo in combinations(range(n), r):
        cs = set(combo)
        if not any(e <= cs for e in es):
            out.append(mask(combo))
    return sorted(out)


def brute_all_independent_sets(n: int, edges, include_empty: bool = False) -> list:
    out = [] if not include_empty else [0]
    for r in range(1, n + 1):
        out.extend(brute_independent_rsets(n, edges, r))
    return sorted(out)


def brute_max_intersecting(cands, empty_common_only: bool = False):
    """(max size, one witness) over all subfamilies, full 2^k scan."""
    k = len(cands)
    assert k <= 20, "oracle is exponential; keep instances tiny"
    disj = []
    for i, a in enumerate(cands):
        row = 0
        for j, b in enumerate(cands):
            if i != j and not a & b:
                row |= 1 << j
        disj.append(row)
    best, best_members = 0, []
    for sub in range(1, 1 << k):
        ok = True
        m = sub
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            if disj[i] & sub:
                ok = False
                break
        if not ok:
            continue
        members = [cands[i] for i in range(k) if sub >> i & 1]
        if empty_common_only:
            common = -1
            for s in members:
                common &= s
            if common:
                continue
        if len(members) > best:
            best, best_members = len(members), members
    return best, best_members


def uf_find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def is_tree(n: int, edges) -> bool:
    es = list(edges)
    if len(es) != n - 1:
        return False
    parent = list(range(n))
    for u, v in es:
        ru, rv = uf_find(parent, u), uf_find(parent, v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def simple_prufer_decode(seq, n: int) -> list:
    """Quadratic textbook decoding, kept independent of the package's version."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    edges = []
    for x in seq:
        for v in range(n):
            if deg[v] == 1:
                edges.append((v, x))
                deg[v] -= 1
                deg[x] -= 1
                break
    u, v = [x for x in range(n) if deg[x] == 1]
    edges.append((u, v))
    return edges


def random_graph_edges(rng, n: int, m: int) -> list:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = min(m, len(pairs))
    return rng.sample(pairs, m)


def random_tree_edges(rng, n: int) -> list:
    if n <= 2:
        return simple_prufer_decode((), n)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return simple_prufer_decode(seq, n)


def brute_automorphisms(n: int, edges) -> set:
    """Every vertex permutation preserving the edge set."""
    es = {frozenset(e) for e in edges}
    return {perm for perm in permutations(range(n))
            if {frozenset((perm[u], perm[v])) for u, v in edges} == es}


def perm_closure(gens, n: int) -> set:
    """The permutation group generated by gens, listed by breadth-first search."""
    ident = tuple(range(n))
    seen = {ident}
    todo = [ident]
    while todo:
        p = todo.pop()
        for g in gens:
            q = tuple(g[x] for x in p)
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return seen
