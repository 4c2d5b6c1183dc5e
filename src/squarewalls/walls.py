"""Walls of square complexes.

A wall is a connected hypergraph dual to the complex: its vertices are edges
of the complex and its edges ("segments" below) pair two edges through a
common face. The standard pairing joins opposite edges of every face; the
red (blue) pairing turns inside red (blue) distinguished faces, joining each
shared edge with the adjacent non-shared edge that is not opposite to it.

This module paints strongly adjacent pairs (faces sharing exactly two
edges), traces hypergraphs of all three kinds, tests embeddedness
(tree-ness), extracts collared diagrams from non-tree witnesses, computes
complement components and the wall pseudometric, and checks the distance
lower bound and geodesic windows. Distances and geodesics are read off the
breadth-first tree that the complex's index keeps for its last source. It
works on the complex's ids, which follow its names, so sorted ids are sorted
names. A wall decomposition keeps each vertex's sides of the two-sided walls
as the bits of one int (its signature) and, per edge id, the walls dual to
that edge, so a query costs what it touches rather than one lookup per wall.
Only check_window_crossing takes names (a geodesic of edge names), and error
messages name faces by name.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations

from .complexes import SquareComplex

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
    pairs: tuple  # (face, face, shared edge ids), in face id order
    colors: tuple  # per face id: "red" | "blue" | "regular"
    mates: dict  # paired face id -> (partner face id, shared edge ids)


def shared_edge_pairs(X: SquareComplex) -> list:
    """The pairs of faces sharing exactly 2 distinct edges, as (fid1, fid2,
    shared edge ids) with fid1 < fid2, in face id order, the shared edges in
    edge id order."""
    use: dict[int, set] = {}
    for fid, f in X.faces.items():
        for st in f.walk:
            use.setdefault(st.edge, set()).add(fid)
    shared: dict = {}
    for e in sorted(use):
        for pair in combinations(sorted(use[e]), 2):
            shared.setdefault(pair, []).append(e)
    return sorted((f1, f2, tuple(edges)) for (f1, f2), edges in shared.items()
                  if len(edges) == 2)


def paint(X: SquareComplex) -> PaintedComplex:
    """Color each strongly adjacent pair: the face with the smaller
    (label, start, orient) key red, its partner blue; faces of equal label
    inherit the color. Deterministic in face content, independent of ids.

    The pairs are a canonical maximal matching of the strongly adjacent
    pairs: candidates in face-key order (as shared_edge_pairs lists them),
    greedily, so a face adjacent to several others is paired with the first
    and the rest stay regular.
    """
    name = X.names.faces
    mates: dict = {}
    pairs = []
    for f1, f2, shared in shared_edge_pairs(X):
        if f1 in mates or f2 in mates:
            continue
        mates[f1], mates[f2] = (f2, shared), (f1, shared)
        pairs.append((f1, f2, shared))
    label_color: dict = {}
    for f1, f2, _shared in pairs:
        keys = []
        for fid in (f1, f2):
            face = X.faces[fid]
            if face.label is None:
                raise PaintingConflict(f"distinguished face {name[fid]!r} has no label")
            keys.append((face.label, face.start, face.orient))
        if keys[0] == keys[1]:
            raise PaintingConflict(f"pair {name[f1]!r},{name[f2]!r} has equal painting keys")
        red, blue = (f1, f2) if keys[0] < keys[1] else (f2, f1)
        for fid, color in ((red, "red"), (blue, "blue")):
            lab = X.faces[fid].label
            if label_color.setdefault(lab, color) != color:
                raise PaintingConflict(
                    f"label {lab!r} forced both {label_color[lab]} and {color}")
    colors = tuple(label_color.get(face.label, "regular") for face in X.faces.values())
    return PaintedComplex(X, tuple(pairs), colors, mates)


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
    edges: tuple  # segments (edge, edge, face), the edges in order, sorted
    vertices: frozenset  # complex-edge ids the wall is dual to
    carrier: frozenset  # face ids the wall passes through


def _face_segments(painted: PaintedComplex, fid, kind):
    """The two segments a face contributes under the given tracing kind."""
    face = painted.base.faces[fid]
    walk_edges = [st.edge for st in face.walk]
    # The turn rule needs the pair's shared edges, so a face that only
    # inherited its color from a label has no turn: it traces standard.
    if (kind != "standard" and painted.colors[fid] == kind
            and fid in painted.mates):
        shared = set(painted.mates[fid][1])
        name = painted.base.names.faces[fid]
        dist_slots = [j for j, e in enumerate(walk_edges) if e in shared]
        if len(dist_slots) != 2:
            raise TracingError(
                f"face {name!r}: expected 2 distinguished slots, got {dist_slots}")
        a, b = dist_slots
        if (a - b) % 4 == 2:
            raise TracingError(
                f"face {name!r} shares opposite edges; turn pairing undefined")
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
    for fid in painted.base.faces:
        for e1, e2 in _face_segments(painted, fid, kind):
            segments.append((min(e1, e2), max(e1, e2), fid))
    parent: dict = {}
    for a, b, _f in segments:
        parent[_find(parent, a)] = _find(parent, b)
    groups: dict = {}
    for seg in segments:
        groups.setdefault(_find(parent, seg[0]), []).append(seg)
    out = []
    for root in sorted(groups):
        segs = sorted(groups[root])
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
    repeated = [f for f, c in by_face.items() if c > 1]
    if repeated:
        f = min(repeated)
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


def extract_collared_diagram(H: Hypergraph, painted: PaintedComplex) -> CollaredDiagram:
    """Build the diagram collared by the wall segment of H's non-tree
    witness (a cycle witness chains by construction): carrier faces along
    the segment, plus horn partners for distinguished carrier faces whose
    partner the segment leaves out. lam, corner and horns use the ids of the
    painted complex; the diagram's complex is the subcomplex they span,
    numbered afresh."""
    rep = is_embedded_tree(H)
    if rep.tree:
        raise ValueError("hypergraph is an embedded tree; nothing to extract")
    witness = rep.witness
    X = painted.base
    if witness.kind == "cycle":
        lam = list(witness.segments)
        corner = None
        cornerless = True
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
            raise ExtractionFailed(f"segment passes non-corner face {X.names.faces[f]!r} twice")
    if len(lam) < 2:
        raise ExtractionFailed("collaring segment shorter than 2")
    carrier = set(faces)
    deg0 = Counter(st.edge for fid in faces for st in X.faces[fid].walk)
    if corner is not None:
        if not any(deg0[st.edge] == 1 for st in X.faces[corner].walk):
            raise ExtractionFailed("corner face is not external in the carrier")
    for fid in carrier:
        if not any(deg0[st.edge] == 1 for st in X.faces[fid].walk):
            raise ExtractionFailed(f"carrier face {X.names.faces[fid]!r} is internal")
    horns = []
    for fid in sorted(carrier):
        mate = painted.mates.get(fid)
        if mate is not None and mate[0] not in carrier:
            horns.append((mate[0], fid))
    sub = X.spanned(faces + [p for p, _b in horns])
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
    sides: list | None  # per vertex id its component index; None in a WallDecomposition
    boundary_open: bool


def complement_components(X: SquareComplex, H: Hypergraph) -> ComplementReport:
    """Components of the vertex graph with the wall's dual edges removed.
    boundary_open records whether the wall meets the complex boundary (a dual
    edge of degree below two). It is read off the wall's own segments: every
    face slot ends exactly one segment under every kind, and all segments at
    an edge lie in its wall, so an edge's endpoint count in H.edges is its
    degree."""
    adj = X.skeleton.adj
    side = [-1] * len(adj)
    count = 0
    for v0 in range(len(side)):
        if side[v0] >= 0:
            continue
        side[v0] = count
        stack = [v0]
        while stack:
            x = stack.pop()
            for y, eid in adj[x]:
                if side[y] < 0 and eid not in H.vertices:
                    side[y] = count
                    stack.append(y)
        count += 1
    ends = Counter(x for seg in H.edges for x in seg[:2])
    boundary_open = any(c < 2 for c in ends.values())
    return ComplementReport(count, side, boundary_open)


@dataclass(frozen=True)
class WallDecomposition:
    walls: tuple  # Hypergraphs
    reports: tuple  # aligned ComplementReports, without their sides
    signatures: list  # per vertex id: bit i set when on side 1 of two-sided wall i
    many_sided: tuple  # per wall of more than two sides: its component by vertex id
    crossing: list  # per edge id: indices of the walls dual to it


def wall_decomposition(painted: PaintedComplex,
                       kinds=KINDS) -> WallDecomposition:
    """All walls of the requested kinds, deduplicated by dual edge set: a
    wall traced under several rules is counted once, as the first kind that
    traces it. The complement depends on the dual edge set alone, so each
    distinct wall gets one complement search. A two-sided wall's sides are
    folded into the vertex signatures, a wall of more sides keeps its
    components, and a one-sided wall, which separates nothing, keeps none."""
    X = painted.base
    walls, reports, many_sided, seen = [], [], [], set()
    signatures = [0] * len(X.vertices)
    crossing = [[] for _ in X.edges]
    for kind in kinds:
        for H in trace_hypergraphs(painted, kind):
            if H.vertices in seen:
                continue
            seen.add(H.vertices)
            rep = complement_components(X, H)
            if rep.count == 2:
                bit = 1 << len(walls)
                for v, s in enumerate(rep.sides):
                    if s:
                        signatures[v] |= bit
            elif rep.count > 2:
                many_sided.append(rep.sides)
            for e in H.vertices:
                crossing[e].append(len(walls))
            walls.append(H)
            reports.append(ComplementReport(rep.count, None, rep.boundary_open))
    return WallDecomposition(tuple(walls), tuple(reports), signatures,
                             tuple(many_sided), crossing)


def wall_distance(W: WallDecomposition, x, y) -> int:
    """Number of walls that separate x from y: the two-sided walls whose
    bits differ in the two signatures, plus the walls of more sides that
    put x and y in different components. A vertex id outside 0..V-1
    raises IndexError."""
    if x < 0 or y < 0:
        raise IndexError(f"vertex id {min(x, y)} out of range")
    d = (W.signatures[x] ^ W.signatures[y]).bit_count()
    for side in W.many_sided:
        if side[x] != side[y]:
            d += 1
    return d


def bfs_geodesic(X: SquareComplex, x, y):
    """(distance, edge ids of one deterministic shortest path), walked back
    from y along x's breadth-first tree; geodesics from the last source cost
    no new search. A vertex id outside 0..V-1 raises IndexError."""
    if y < 0:
        raise IndexError(f"vertex id {y} out of range")
    via = X.skeleton.tree(x)[1]
    path = []
    while via[y] is not None:
        y, eid = via[y]
        path.append(eid)
    path.reverse()
    return len(path), path


@dataclass(frozen=True)
class PairBoundReport:
    x: object
    y: object
    d_edge: int
    d_wall: int
    bound: int
    status: str  # "pass" | "violation" | "indeterminate"


def _one_sided_wall_crosses(W: WallDecomposition, edges) -> bool:
    """Is some wall dual to one of these edge ids of complement count other
    than two? The separation argument needs two sides, so a check that
    fails there is indeterminate rather than failed."""
    reports = W.reports
    return any(reports[i].count != 2 for e in edges for i in W.crossing[e])


def check_wall_lower_bound(W: WallDecomposition, X: SquareComplex,
                           pairs) -> list[PairBoundReport]:
    """d_wall >= floor(d_edge / 15) per pair. A failing pair is only
    indeterminate when a wall crossing its geodesic has a complement count
    other than two (the separation argument needs two sides).

    d_edge is read off the source's breadth-first tree, which the complex's
    index keeps for the source searched last, so pairs grouped by source
    cost one search per source. A geodesic is walked only for a pair below
    its bound."""
    index = X.skeleton
    out = []
    for x, y in pairs:
        d_edge = index.tree(x)[0][y]
        d_wall = wall_distance(W, x, y)
        bound = d_edge // 15
        if d_wall >= bound:
            status = "pass"
        else:
            bad = _one_sided_wall_crosses(W, bfs_geodesic(X, x, y)[1])
            status = "indeterminate" if bad else "violation"
        out.append(PairBoundReport(x, y, d_edge, d_wall, bound, status))
    return out


# -- geodesic windows ----------------------------------------------------------------------


WINDOW = 15
MIN_GEODESIC = 21


def _chain_vertices(X: SquareComplex, edge_path):
    """Vertex sequence of an edge path, leaving the first edge at its source
    when the path chains that way and at its target otherwise."""
    if not edge_path:
        raise ValueError("empty path")
    for start in X.edges[edge_path[0]]:
        verts = [start]
        for eid in edge_path:
            u, v = X.edges[eid]
            if verts[-1] not in (u, v):
                break
            verts.append(v if verts[-1] == u else u)
        else:
            return verts
    raise ValueError("path edges do not chain")


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
    sequence of edge names: does some wall cross the geodesic exactly once,
    at an edge of that window? Failures become indeterminate when a wall
    crossing the window lacks a two-sided complement.

    Geodesicity is tested on the start's breadth-first tree, which the
    complex's index keeps, so geodesics from one source cost one search.
    Crossings are counted edge by edge through the decomposition's walls
    per edge, so the check touches only the walls gamma crosses."""
    if len(gamma) < MIN_GEODESIC:
        raise ValueError(f"geodesic must have at least {MIN_GEODESIC} edges")
    gamma = [X.ids.edges[e] for e in gamma]
    verts = _chain_vertices(X, gamma)
    if X.skeleton.tree(verts[0])[0][verts[-1]] != len(gamma):
        raise ValueError("path is not a geodesic")
    # a geodesic passes no edge twice, so a wall crosses it once for each
    # of its dual edges on gamma
    crossings = Counter(i for e in gamma for i in W.crossing[e])
    once = [any(crossings[i] == 1 for i in W.crossing[e]) for e in gamma]
    statuses = []
    for i in range(len(gamma) - WINDOW + 1):
        if any(once[i:i + WINDOW]):
            statuses.append("pass")
            continue
        bad = _one_sided_wall_crosses(W, gamma[i:i + WINDOW])
        statuses.append("indeterminate" if bad else "fail")
    return WindowReport(len(gamma), tuple(statuses))
