"""Walls of square complexes.

A wall is a connected hypergraph dual to the complex: its vertices are edges
of the complex and its edges ("segments" below) pair two edges through a
common face. The standard pairing joins opposite edges of every face; the
red (blue) pairing turns inside red (blue) distinguished faces, joining each
shared edge with the adjacent non-shared edge that is not opposite to it.

This module paints strongly adjacent pairs, traces hypergraphs of all three
kinds, tests embeddedness (tree-ness), extracts collared diagrams from
non-tree witnesses, computes complement side maps and the wall pseudometric,
and checks the distance lower bound and geodesic windows. Paths are given
as sequences of edge ids, and vertices by their ids in the complex; since
every complex is connected, an id the complex lacks is the only way a
distance lookup can fail (KeyError).
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Mapping
from dataclasses import dataclass

from .complexes import SquareComplex, _idkey, shared_edge_pairs

KINDS = ("standard", "red", "blue")


class PaintingConflict(ValueError):
    pass


class TracingError(ValueError):
    pass


class ExtractionFailed(RuntimeError):
    pass


# -- strongly adjacent pairs and painting ---------------------------------------


@dataclass(frozen=True)
class PaintedComplex:
    base: SquareComplex
    pairs: tuple  # (face, face, shared edge ids), in canonical face order
    colors: dict  # face id -> "red" | "blue" | "regular"

    def partner(self, fid):
        for f1, f2, _shared in self.pairs:
            if fid == f1:
                return f2
            if fid == f2:
                return f1
        return None

    def shared_edges(self, fid):
        for f1, f2, shared in self.pairs:
            if fid in (f1, f2):
                return shared
        return ()


def paint(X: SquareComplex) -> PaintedComplex:
    """Color each strongly adjacent pair: the face with the smaller
    (label, start, orient) key red, its partner blue; faces of equal label
    inherit the color. Deterministic in face content, independent of ids.

    The pairs are a canonical maximal matching of the strongly adjacent
    pairs: candidates in face-key order (as shared_edge_pairs lists them),
    greedily, so a face adjacent to several others is paired with the first
    and the rest stay regular.
    """
    cand, _violations = shared_edge_pairs(X)
    matched: set = set()
    pairs = []
    for f1, f2, shared in cand:
        if f1 in matched or f2 in matched:
            continue
        matched.update((f1, f2))
        pairs.append((f1, f2, shared))
    label_color: dict = {}
    for f1, f2, _shared in pairs:
        keys = []
        for fid in (f1, f2):
            face = X.faces[fid]
            if face.label is None:
                raise PaintingConflict(f"distinguished face {fid!r} has no label")
            keys.append((face.label, face.start, face.orient))
        if keys[0] == keys[1]:
            raise PaintingConflict(f"pair {f1!r},{f2!r} has equal painting keys")
        red, blue = (f1, f2) if keys[0] < keys[1] else (f2, f1)
        for fid, color in ((red, "red"), (blue, "blue")):
            lab = X.faces[fid].label
            if label_color.setdefault(lab, color) != color:
                raise PaintingConflict(
                    f"label {lab!r} forced both {label_color[lab]} and {color}")
    colors = {}
    for fid, face in X.faces.items():
        colors[fid] = label_color.get(face.label, "regular")
    return PaintedComplex(X, tuple(pairs), colors)


# -- hypergraph tracing -----------------------------------------------------------


def _find(parent: dict, x):
    """Root of x in a union-find kept as a dict, halving the path."""
    while parent.setdefault(x, x) != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


@dataclass(frozen=True)
class Hypergraph:
    kind: str
    edges: tuple  # segments (edge, edge, face), each canonically sorted
    vertices: frozenset  # complex-edge ids the wall is dual to
    carrier: frozenset  # face ids the wall passes through


def _face_segments(painted: PaintedComplex, fid, kind):
    """The two segments a face contributes under the given tracing kind."""
    face = painted.base.faces[fid]
    walk_edges = [st.edge for st in face.walk]
    # The turn rule needs the pair's shared edges, so a face that only
    # inherited its color from a label has no turn: it traces standard.
    if (kind != "standard" and painted.colors.get(fid) == kind
            and painted.partner(fid) is not None):
        shared = set(painted.shared_edges(fid))
        dist_slots = [j for j, e in enumerate(walk_edges) if e in shared]
        if len(dist_slots) != 2:
            raise TracingError(
                f"face {fid!r}: expected 2 distinguished slots, got {dist_slots}")
        a, b = dist_slots
        if (a - b) % 4 == 2:
            raise TracingError(
                f"face {fid!r} shares opposite edges; turn pairing undefined")
        segs = []
        other = [j for j in range(4) if j not in dist_slots]
        for j in dist_slots:
            partners = [k for k in other if k != (j + 2) % 4]
            segs.append((walk_edges[j], walk_edges[partners[0]]))
        return segs
    return [(walk_edges[0], walk_edges[2]), (walk_edges[1], walk_edges[3])]


def trace_hypergraphs(painted: PaintedComplex, kind: str) -> list[Hypergraph]:
    """Connected dual hypergraphs of the given kind, deterministically
    ordered. Every face contributes exactly two segments."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    segments = []
    for fid in sorted(painted.base.faces, key=_idkey):
        for e1, e2 in _face_segments(painted, fid, kind):
            a, b = sorted((e1, e2), key=_idkey)
            segments.append((a, b, fid))
    parent: dict = {}
    for a, b, _f in segments:
        parent[_find(parent, a)] = _find(parent, b)
    groups: dict = {}
    for seg in segments:
        groups.setdefault(_find(parent, seg[0]), []).append(seg)
    out = []
    for root in sorted(groups, key=_idkey):
        segs = sorted(groups[root], key=lambda s: (_idkey(s[0]), _idkey(s[1]), _idkey(s[2])))
        verts = frozenset(x for s in segs for x in s[:2])
        out.append(Hypergraph(kind, tuple(segs), verts,
                              frozenset(s[2] for s in segs)))
    return out


# -- embedded-tree check ------------------------------------------------------------


@dataclass(frozen=True)
class TreeWitness:
    kind: str  # "repeated-face" | "cycle"
    face: object
    segments: tuple


@dataclass(frozen=True)
class TreeReport:
    tree: bool
    witness: TreeWitness | None


def is_embedded_tree(H: Hypergraph) -> TreeReport:
    """Tree iff no face carries two segments and the segment graph is
    acyclic; the repeated-face condition is checked first."""
    by_face = Counter(s[2] for s in H.edges)
    repeated = sorted((f for f, c in by_face.items() if c > 1), key=_idkey)
    if repeated:
        f = repeated[0]
        segs = tuple(s for s in H.edges if s[2] == f)
        return TreeReport(False, TreeWitness("repeated-face", f, segs))
    adj: dict = {v: [] for v in H.vertices}
    parent: dict = {}
    for seg in H.edges:
        a, b, _f = seg
        if a == b:
            return TreeReport(False, TreeWitness("cycle", None, (seg,)))
        ra, rb = _find(parent, a), _find(parent, b)
        if ra == rb:
            cycle = _segment_path(adj, a, b) + [seg]
            return TreeReport(False, TreeWitness("cycle", None, tuple(cycle)))
        parent[ra] = rb
        adj[a].append((b, seg))
        adj[b].append((a, seg))
    return TreeReport(True, None)


def _segment_path(adj, src, dst):
    """BFS path of segments between two wall vertices in the partial graph."""
    prev = {src: None}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        if x == dst:
            break
        for y, seg in adj[x]:
            if y not in prev:
                prev[y] = (x, seg)
                queue.append(y)
    path = []
    x = dst
    while prev[x] is not None:
        x, seg = prev[x]
        path.append(seg)
    path.reverse()
    return path


# -- collared diagrams ----------------------------------------------------------------


@dataclass(frozen=True)
class CollaredDiagram:
    complex: SquareComplex  # carrier subcomplex, horn partners included
    lam: tuple  # the collaring wall segments in order
    corner: object  # repeated face, None when cornerless
    cornerless: bool
    horns: tuple  # (partner face added, carrier face it collars)
    k: int  # number of wall segments in lam
    k_prime: int  # number of horns
    l: int  # number of distinct complex edges lam crosses


def _subcomplex(X: SquareComplex, face_ids) -> SquareComplex:
    edges = {}
    verts = set()
    for fid in face_ids:
        for st in X.faces[fid].walk:
            edges[st.edge] = X.edges[st.edge]
    for u, v in edges.values():
        verts.update((u, v))
    return SquareComplex(verts, edges, {f: X.faces[f] for f in face_ids})


def extract_collared_diagram(H: Hypergraph, painted: PaintedComplex,
                             witness: TreeWitness | None = None) -> CollaredDiagram:
    """Build the diagram collared by the witness's wall segment: carrier
    faces along the segment, plus horn partners for distinguished carrier
    faces whose partner the segment leaves out."""
    if witness is None:
        rep = is_embedded_tree(H)
        if rep.tree:
            raise ValueError("hypergraph is an embedded tree; nothing to extract")
        witness = rep.witness
    X = painted.base
    if witness.kind == "cycle":
        lam = list(witness.segments)
        corner = None
        cornerless = True
        for i, seg in enumerate(lam):
            nxt = lam[(i + 1) % len(lam)]
            if not set(seg[:2]) & set(nxt[:2]):
                raise ExtractionFailed("cycle witness segments do not chain")
    else:
        first, last = witness.segments[0], witness.segments[-1]
        lam = _collaring_path(H, first, last, witness.face)
        if lam is None:
            raise ExtractionFailed("carrier does not close around the corner")
        corner = witness.face
        cornerless = False
    faces = []
    for seg in lam:
        if seg[2] not in faces:
            faces.append(seg[2])
    by_face = Counter(s[2] for s in lam)
    for f, c in by_face.items():
        if f != corner and c > 1:
            raise ExtractionFailed(f"segment passes non-corner face {f!r} twice")
    if len(lam) < 2:
        raise ExtractionFailed("collaring segment shorter than 2")
    carrier = set(faces)
    sub0 = _subcomplex(X, faces)
    deg0 = sub0.degrees()
    if corner is not None:
        if not any(deg0[st.edge] == 1 for st in X.faces[corner].walk):
            raise ExtractionFailed("corner face is not external in the carrier")
    for fid in carrier:
        if not any(deg0[st.edge] == 1 for st in sub0.faces[fid].walk):
            raise ExtractionFailed(f"carrier face {fid!r} is internal")
    horns = []
    for fid in sorted(carrier, key=_idkey):
        partner = painted.partner(fid)
        if partner is not None and partner not in carrier:
            horns.append((partner, fid))
    sub = _subcomplex(X, faces + [p for p, _b in horns])
    return CollaredDiagram(
        complex=sub,
        lam=tuple(lam),
        corner=corner,
        cornerless=cornerless,
        horns=tuple(horns),
        k=len(lam),
        k_prime=len(horns),
        l=len({x for s in lam for x in s[:2]}),
    )


def _collaring_path(H: Hypergraph, first, last, corner):
    """Depth-first search for a segment path from `first` to `last` passing
    no face twice (the corner appears only at the two ends)."""
    by_vertex: dict = {}
    for seg in H.edges:
        by_vertex.setdefault(seg[0], []).append(seg)
        by_vertex.setdefault(seg[1], []).append(seg)

    def extend(path, used_faces, frontier):
        if path[-1] == last:
            return path
        for seg in by_vertex.get(frontier, ()):
            if seg in path:
                continue
            f = seg[2]
            if f == corner and seg != last:
                continue
            if f != corner and f in used_faces:
                continue
            nxt = seg[1] if seg[0] == frontier else seg[0]
            got = extend(path + [seg], used_faces | {f}, nxt)
            if got is not None:
                return got
        return None

    for start_vertex in first[:2]:
        got = extend([first], set(), start_vertex)
        if got is not None:
            return got
    return None


# -- complements and the wall pseudometric ----------------------------------------------


@dataclass(frozen=True)
class ComplementReport:
    count: int
    sides: dict  # vertex -> component index
    boundary_open: bool


def complement_components(X: SquareComplex, H: Hypergraph) -> ComplementReport:
    """Components of the vertex graph with the wall's dual edges removed.
    boundary_open records whether the wall meets the complex boundary (a dual
    edge of degree below two). It is read off the wall's own segments: every
    face slot ends exactly one segment under every kind, and all segments at
    an edge lie in its wall, so an edge's endpoint count in H.edges is its
    degree."""
    idx = X.skeleton
    side = [-1] * len(idx.vertices)
    count = 0
    for v0 in range(len(side)):
        if side[v0] >= 0:
            continue
        side[v0] = count
        stack = [v0]
        while stack:
            x = stack.pop()
            for y, eid in idx.adj[x]:
                if side[y] < 0 and eid not in H.vertices:
                    side[y] = count
                    stack.append(y)
        count += 1
    ends = Counter(x for seg in H.edges for x in seg[:2])
    boundary_open = any(c < 2 for c in ends.values())
    return ComplementReport(count, dict(zip(idx.vertices, side)), boundary_open)


@dataclass(frozen=True)
class WallDecomposition:
    walls: tuple  # Hypergraphs
    reports: tuple  # aligned ComplementReports


def wall_decomposition(painted: PaintedComplex,
                       kinds=KINDS) -> WallDecomposition:
    """All walls of the requested kinds, deduplicated by dual edge set: a
    wall traced under several rules is counted once, as the first kind that
    traces it. The complement depends on the dual edge set alone, so each
    distinct wall gets one complement search."""
    walls, reports, seen = [], [], set()
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        for H in trace_hypergraphs(painted, kind):
            if H.vertices in seen:
                continue
            seen.add(H.vertices)
            walls.append(H)
            reports.append(complement_components(painted.base, H))
    return WallDecomposition(tuple(walls), tuple(reports))


def wall_distance(W: WallDecomposition, x, y) -> int:
    """Number of walls whose complement side map separates x from y."""
    return sum(1 for rep in W.reports if rep.sides[x] != rep.sides[y])


class BFSTree(Mapping):
    """Breadth-first tree of the 1-skeleton from one source, over the
    complex's canonical index: maps every vertex to its edge distance and
    yields the deterministic geodesic to it. Every complex is connected, so
    every vertex is reached; an id not in the complex raises KeyError."""

    def __init__(self, X: SquareComplex, source):
        self.source = source
        self._index = X.skeleton
        self._dist, self._via = self._index.bfs(self._index.position[source])

    def __getitem__(self, v) -> int:
        return self._dist[self._index.position[v]]

    def __iter__(self):
        return iter(self._index.vertices)

    def __len__(self) -> int:
        return len(self._index.vertices)

    def geodesic(self, y):
        """(distance, edge ids of the deterministic shortest path to y)."""
        i = self._index.position[y]
        path = []
        while self._via[i] is not None:
            i, eid = self._via[i]
            path.append(eid)
        path.reverse()
        return len(path), path


def bfs_distances(X: SquareComplex, source) -> BFSTree:
    """Edge distances and geodesics from source: one breadth-first search
    over the complex's cached index."""
    return BFSTree(X, source)


def bfs_geodesic(X: SquareComplex, x, y):
    """(distance, edge ids of one deterministic shortest path)."""
    return bfs_distances(X, x).geodesic(y)


@dataclass(frozen=True)
class PairBoundReport:
    x: object
    y: object
    d_edge: int
    d_wall: int
    bound: int
    status: str  # "pass" | "violation" | "indeterminate"


def _one_sided_wall_crosses(W: WallDecomposition, edges: set) -> bool:
    """Does some wall crossing these edges have a complement count other
    than two? The separation argument needs two sides, so a check that
    fails there is indeterminate rather than failed."""
    return any(rep.count != 2 for H, rep in zip(W.walls, W.reports)
               if H.vertices & edges)


def check_wall_lower_bound(W: WallDecomposition, X: SquareComplex,
                           pairs) -> list[PairBoundReport]:
    """d_wall >= floor(d_edge / 15) per pair. A failing pair is only
    indeterminate when a wall crossing its geodesic has a complement count
    other than two (the separation argument needs two sides).

    One breadth-first search serves every consecutive pair with the same
    source, so pairs grouped by source cost one search per source."""
    out = []
    tree = None
    for x, y in pairs:
        if tree is None or tree.source != x:
            tree = bfs_distances(X, x)
        d_edge = tree[y]
        d_wall = wall_distance(W, x, y)
        bound = d_edge // 15
        if d_wall >= bound:
            status = "pass"
        else:
            bad = _one_sided_wall_crosses(W, set(tree.geodesic(y)[1]))
            status = "indeterminate" if bad else "violation"
        out.append(PairBoundReport(x, y, d_edge, d_wall, bound, status))
    return out


# -- geodesic windows ----------------------------------------------------------------------


WINDOW = 15
MIN_GEODESIC = 21


def _chain_vertices(X: SquareComplex, edge_path):
    """Vertex sequence of an edge path, resolving direction from chaining."""
    if not edge_path:
        raise ValueError("empty path")
    if len(edge_path) == 1:
        return list(X.edges[edge_path[0]])
    first = X.edges[edge_path[0]]
    second = set(X.edges[edge_path[1]])
    if first[1] in second:
        verts = [first[0], first[1]]
    elif first[0] in second:
        verts = [first[1], first[0]]
    else:
        raise ValueError("path edges do not chain")
    for eid in edge_path[1:]:
        u, v = X.edges[eid]
        if verts[-1] == u:
            verts.append(v)
        elif verts[-1] == v:
            verts.append(u)
        else:
            raise ValueError("path edges do not chain")
    return verts


@dataclass(frozen=True)
class WindowReport:
    geodesic_length: int
    statuses: tuple  # per window: "pass" | "fail" | "indeterminate"

    @property
    def all_pass(self) -> bool:
        return all(s == "pass" for s in self.statuses)


def check_window_crossing(X: SquareComplex, W: WallDecomposition,
                          gamma) -> WindowReport:
    """For every window of 15 consecutive geodesic edges of gamma, a
    sequence of edge ids: does some wall cross the geodesic exactly once, at
    an edge of that window? Failures become indeterminate when a wall
    crossing the window lacks a two-sided complement."""
    if len(gamma) < MIN_GEODESIC:
        raise ValueError(f"geodesic must have at least {MIN_GEODESIC} edges")
    verts = _chain_vertices(X, gamma)
    if bfs_distances(X, verts[0])[verts[-1]] != len(gamma):
        raise ValueError("path is not a geodesic")
    gset = set(gamma)
    single = []  # (crossing edge, wall index) for walls crossing exactly once
    for idx, H in enumerate(W.walls):
        crossings = H.vertices & gset
        if len(crossings) == 1:
            single.append((next(iter(crossings)), idx))
    statuses = []
    for i in range(len(gamma) - WINDOW + 1):
        window = set(gamma[i:i + WINDOW])
        if any(e in window for e, _idx in single):
            statuses.append("pass")
            continue
        bad = _one_sided_wall_crosses(W, window)
        statuses.append("indeterminate" if bad else "fail")
    return WindowReport(len(gamma), tuple(statuses))
