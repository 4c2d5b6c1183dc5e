"""Square complexes and their diagram machinery.

A SquareComplex is a combinatorial 2-complex whose faces are squares: each
face carries a closed attaching walk of exactly 4 directed edge slots.
Edge ids and vertex ids are arbitrary hashables (ints, strings, coordinate
tuples).

The two basic measurements are

    generalized boundary length   bt(Y)     = sum_e (2 - deg(e))
    cancellation                  Cancel(Y) = sum_e (deg(e) - 1)

where deg(e) counts attaching-walk slots, so a face traversing an edge twice
contributes 2. Both sums run over every edge of the complex (a bare edge of
degree 0 contributes +2 and -1 respectively); since sum_e deg(e) = 4|Y| the
identity bt(Y) = 4|Y| - 2*Cancel(Y) holds unconditionally.

Face reading convention (shared with the fulfillability machinery): a face
with relator label i, starting slot s and orientation o reads the t-th letter
of its word at walk slot (s + o*t) mod 4; the letter carried by the edge in
slot j, traversed with step direction dir, is word[t]^(dir*o).
"""

from __future__ import annotations

import json
import math
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Hashable, Iterable, NamedTuple

VALID_COLORS = ("regular", "red", "blue")


class ComplexStructureError(ValueError):
    pass


class HornError(ValueError):
    pass


class Step(NamedTuple):
    edge: Hashable
    dir: int  # +1 traverses src -> dst, -1 traverses dst -> src

    def reversed(self) -> "Step":
        return Step(self.edge, -self.dir)


@dataclass(frozen=True)
class Face:
    """A square 2-cell: 4-step closed walk plus reading decorations."""

    walk: tuple[Step, Step, Step, Step]
    label: int | None = None
    start: int = 0
    orient: int = 1
    color: str = "regular"

    def __post_init__(self):
        if len(self.walk) != 4:
            raise ComplexStructureError("face walk must have exactly 4 steps")
        for st in self.walk:
            if not isinstance(st, Step) or st.dir not in (1, -1):
                raise ComplexStructureError(f"bad step {st}")
        if self.start not in (0, 1, 2, 3):
            raise ComplexStructureError("start slot must be in 0..3")
        if self.orient not in (1, -1):
            raise ComplexStructureError("orientation must be +1 or -1")
        if self.color not in VALID_COLORS:
            raise ComplexStructureError(f"bad color {self.color!r}")

    def slot_of_position(self, k: int) -> int:
        """Walk slot reading relator position k."""
        return (self.start + self.orient * k) % 4

    def position_of_slot(self, j: int) -> int:
        """Relator position read at walk slot j."""
        return (self.orient * (j - self.start)) % 4


class SquareComplex:
    """Immutable-after-build square complex.

    vertices: iterable of vertex ids
    edges: dict edge_id -> (src, dst)
    faces: dict face_id -> Face
    """

    def __init__(self, vertices: Iterable[Hashable], edges: dict, faces: dict,
                 check: bool = True):
        self.vertices = frozenset(vertices)
        self.edges = dict(edges)
        self.faces = dict(faces)
        self._degrees: Counter | None = None
        if check:
            self._validate()

    # -- validation ---------------------------------------------------------

    def _validate(self):
        for e, (src, dst) in self.edges.items():
            if src not in self.vertices or dst not in self.vertices:
                raise ComplexStructureError(f"edge {e!r} endpoint missing")
        for fid, f in self.faces.items():
            if not isinstance(f, Face):
                raise ComplexStructureError(f"face {fid!r} is not a Face")
            for st in f.walk:
                if st.edge not in self.edges:
                    raise ComplexStructureError(f"face {fid!r} uses unknown edge {st.edge!r}")
            for i in range(4):
                if self.step_head(f.walk[i]) != self.step_tail(f.walk[(i + 1) % 4]):
                    raise ComplexStructureError(f"face {fid!r} walk does not chain at slot {i}")
        if self.vertices and not self._skeleton_connected():
            raise ComplexStructureError("1-skeleton is not connected")

    def _skeleton_connected(self) -> bool:
        start = next(iter(self.vertices))
        adj: dict[Hashable, list] = {v: [] for v in self.vertices}
        for src, dst in self.edges.values():
            adj[src].append(dst)
            adj[dst].append(src)
        seen = {start}
        q = deque([start])
        while q:
            v = q.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    q.append(w)
        return len(seen) == len(self.vertices)

    # -- traversal ----------------------------------------------------------

    def step_tail(self, st: Step) -> Hashable:
        src, dst = self.edges[st.edge]
        return src if st.dir == 1 else dst

    def step_head(self, st: Step) -> Hashable:
        src, dst = self.edges[st.edge]
        return dst if st.dir == 1 else src

    def walk_vertices(self, walk: Iterable[Step]) -> list:
        return [self.step_tail(st) for st in walk]

    # -- measurements -------------------------------------------------------

    def degrees(self, face_ids: Iterable | None = None) -> Counter:
        """Slot-occurrence count per edge. Restricting to face_ids counts only
        those faces' slots and only reports edges they touch."""
        if face_ids is None:
            if self._degrees is None:
                deg = Counter()
                for e in self.edges:
                    deg[e] = 0
                for f in self.faces.values():
                    for st in f.walk:
                        deg[st.edge] += 1
                self._degrees = deg
            return self._degrees
        deg = Counter()
        for fid in face_ids:
            for st in self.faces[fid].walk:
                deg[st.edge] += 1
        return deg

    @cached_property
    def skeleton(self) -> "SkeletonIndex":
        """The canonical 1-skeleton index, built on first use. A property
        rather than an attribute set here, so that the many complexes an
        enumeration builds and never searches carry no extra slot."""
        return SkeletonIndex.build(self)

    def edge_faces(self) -> dict:
        """edge id -> sorted list of (face id, slot) incidences."""
        out: dict[Hashable, list] = {e: [] for e in self.edges}
        for fid in sorted(self.faces, key=_idkey):
            for j, st in enumerate(self.faces[fid].walk):
                out[st.edge].append((fid, j))
        return out

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        verts = sorted(self.vertices, key=_idkey)
        edges = [
            {"id": _id_out(e), "src": _id_out(s), "dst": _id_out(d)}
            for e, (s, d) in sorted(self.edges.items(), key=lambda kv: _idkey(kv[0]))
        ]
        faces = []
        for fid in sorted(self.faces, key=_idkey):
            f = self.faces[fid]
            faces.append(
                {
                    "id": _id_out(fid),
                    "walk": [{"edge": _id_out(st.edge), "dir": st.dir} for st in f.walk],
                    "label": f.label,
                    "start": f.start,
                    "orient": f.orient,
                    "color": f.color,
                }
            )
        return json.dumps(
            {"vertices": [_id_out(v) for v in verts], "edges": edges, "faces": faces},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, s: str) -> "SquareComplex":
        d = json.loads(s)
        vertices = [_id_in(v) for v in d["vertices"]]
        edges = {_id_in(e["id"]): (_id_in(e["src"]), _id_in(e["dst"])) for e in d["edges"]}
        faces = {}
        for fd in d["faces"]:
            walk = tuple(Step(_id_in(sd["edge"]), sd["dir"]) for sd in fd["walk"])
            faces[_id_in(fd["id"])] = Face(
                walk=walk,
                label=fd.get("label"),
                start=fd.get("start", 0),
                orient=fd.get("orient", 1),
                color=fd.get("color", "regular"),
            )
        return cls(vertices, edges, faces)


@dataclass(frozen=True)
class SkeletonIndex:
    """The 1-skeleton in canonical order: vertices sorted by _idkey, and for
    each vertex position its (neighbour position, edge id) incidences with
    edges in _idkey order, an edge (u, v) listed at u and then at v."""

    vertices: tuple
    position: dict  # vertex id -> index into vertices
    adj: tuple  # per vertex position: tuple of (neighbour position, edge id)

    @classmethod
    def build(cls, X: "SquareComplex") -> "SkeletonIndex":
        verts = tuple(sorted(X.vertices, key=_idkey))
        pos = {v: i for i, v in enumerate(verts)}
        adj: list[list] = [[] for _ in verts]
        for eid, (u, v) in sorted(X.edges.items(), key=lambda kv: _idkey(kv[0])):
            adj[pos[u]].append((pos[v], eid))
            adj[pos[v]].append((pos[u], eid))
        return cls(verts, pos, tuple(map(tuple, adj)))

    def bfs(self, source: int) -> tuple[list, list]:
        """Breadth-first search from a vertex position: per position the edge
        distance (-1 when unreached) and the parent (position, edge id), which
        is the first incidence in canonical order to reach it (None at the
        source and when unreached)."""
        dist = [-1] * len(self.vertices)
        via: list = [None] * len(self.vertices)
        dist[source] = 0
        queue = [source]
        for cur in queue:
            d = dist[cur] + 1
            for nxt, eid in self.adj[cur]:
                if dist[nxt] < 0:
                    dist[nxt] = d
                    via[nxt] = (cur, eid)
                    queue.append(nxt)
        return dist, via


def _id_out(x):
    if isinstance(x, tuple):
        return list(_id_out(y) for y in x)
    return x


def _id_in(x):
    if isinstance(x, list):
        return tuple(_id_in(y) for y in x)
    return x


def _idkey(x) -> tuple:
    return (type(x).__name__, repr(x))


def generalized_boundary_length(Y: SquareComplex, face_ids: Iterable | None = None) -> int:
    """sum_e (2 - deg(e)); may be negative, returned as-is.

    With face_ids given, the measurement is of the subcomplex spanned by those
    faces (only edges they touch are counted).
    """
    deg = Y.degrees(face_ids)
    return sum(2 - d for d in deg.values())


def cancellation(Y: SquareComplex, face_ids: Iterable | None = None) -> int:
    """sum_e (deg(e) - 1) over the same edge set as generalized_boundary_length."""
    deg = Y.degrees(face_ids)
    return sum(d - 1 for d in deg.values())


class _SignedUnion:
    """Union-find tracking a +-1 sign between each element and its root."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.sign = [1] * n

    def find(self, x: int) -> tuple[int, int]:
        if self.parent[x] == x:
            return x, 1
        root, s = self.find(self.parent[x])
        self.parent[x] = root
        self.sign[x] *= s
        return root, self.sign[x]

    def union(self, x: int, y: int, s: int) -> bool:
        rx, sx = self.find(x)
        ry, sy = self.find(y)
        if rx == ry:
            return sx * sy == s
        self.parent[ry] = rx
        self.sign[ry] = sx * s * sy
        return True


class _Union:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def build_quotient(n_faces: int, identifications, labels=None, starts=None,
                   orients=None, colors=None) -> SquareComplex | None:
    """Glue n_faces disjoint squares along slot identifications.

    identifications: iterable of ((f, j), (g, k), sign): slot j of face f is
    the same edge as slot k of face g, traversed the same way (sign +1) or
    reversed (sign -1). Unmatched slots stay degree-1 edges. Returns None
    when an identification folds an edge onto itself reversed or the glued
    1-skeleton is disconnected.
    """
    slots = _SignedUnion(4 * n_faces)
    corners = _Union(4 * n_faces)

    def tail(f, j):
        return 4 * f + j

    def head(f, j):
        return 4 * f + (j + 1) % 4

    for (f, j), (g, k), sgn in identifications:
        if sgn not in (1, -1):
            raise ValueError("identification sign must be +1 or -1")
        if not slots.union(4 * f + j, 4 * g + k, sgn):
            return None
        if sgn == 1:
            corners.union(tail(f, j), tail(g, k))
            corners.union(head(f, j), head(g, k))
        else:
            corners.union(tail(f, j), head(g, k))
            corners.union(head(f, j), tail(g, k))

    edge_roots = sorted({slots.find(s)[0] for s in range(4 * n_faces)})
    edge_id = {r: f"e{i}" for i, r in enumerate(edge_roots)}
    vert_roots = sorted({corners.find(c) for c in range(4 * n_faces)})
    vert_id = {r: f"u{i}" for i, r in enumerate(vert_roots)}
    edges = {}
    for r in edge_roots:
        f, j = divmod(r, 4)
        edges[edge_id[r]] = (vert_id[corners.find(tail(f, j))],
                             vert_id[corners.find(head(f, j))])
    faces = {}
    for f in range(n_faces):
        walk = []
        for j in range(4):
            r, s = slots.find(4 * f + j)
            walk.append(Step(edge_id[r], s))
        faces[f] = Face(
            tuple(walk),
            label=None if labels is None else labels[f],
            start=0 if starts is None else starts[f],
            orient=1 if orients is None else orients[f],
            color="regular" if colors is None else colors[f],
        )
    try:
        return SquareComplex(vert_id.values(), edges, faces)
    except ComplexStructureError:
        return None


# -- diagrams ---------------------------------------------------------------


@dataclass(frozen=True)
class Diagram:
    """A complex with a distinguished closed boundary walk.

    rotations (optional) is a planar embedding witness: vertex -> cyclic list
    of (edge, end) darts. It is carried, not verified; the fixtures supply
    consistent ones and the checkers rely only on the boundary walk.
    """

    complex: SquareComplex
    boundary: tuple[Step, ...]
    rotations: Any = None

    def __post_init__(self):
        cx = self.complex
        n = len(self.boundary)
        for i, st in enumerate(self.boundary):
            if st.edge not in cx.edges:
                raise ComplexStructureError(f"boundary step {i} uses unknown edge")
            if n and cx.step_head(st) != cx.step_tail(self.boundary[(i + 1) % n]):
                raise ComplexStructureError(f"boundary walk does not chain at step {i}")

    @property
    def boundary_length(self) -> int:
        return len(self.boundary)

    @property
    def face_count(self) -> int:
        return len(self.complex.faces)


@dataclass(frozen=True)
class DiagramWithHorns:
    base: Diagram
    complex: SquareComplex  # base complex plus glued horn faces
    horns: tuple[tuple[Hashable, Hashable], ...]  # (horn face id, partner-in-base id)


@dataclass(frozen=True)
class DiagramWithLegs:
    """Disc basis with small attached complexes ("legs").

    Each leg is a connected complex of at most K faces containing at least one
    external (boundary) vertex of the basis; an edge may belong to at most two
    legs.
    """

    disc_basis: Diagram
    legs: tuple[SquareComplex, ...]
    K: int
    attachments: tuple[Hashable, ...]  # one external vertex of the basis per leg

    def __post_init__(self):
        ext = set(self.disc_basis.complex.walk_vertices(self.disc_basis.boundary))
        if len(self.attachments) != len(self.legs):
            raise ComplexStructureError("one attachment vertex required per leg")
        for leg, v in zip(self.legs, self.attachments):
            if len(leg.faces) > self.K:
                raise ComplexStructureError(f"leg exceeds K={self.K} faces")
            if v not in ext:
                raise ComplexStructureError("attachment vertex is not external")
            if v not in leg.vertices:
                raise ComplexStructureError("leg does not contain its attachment vertex")
        edge_use = Counter()
        for leg in self.legs:
            for e in leg.edges:
                edge_use[e] += 1
        if any(c > 2 for c in edge_use.values()):
            raise ComplexStructureError("an edge belongs to more than two legs")


@dataclass(frozen=True)
class IsoParams:
    d: float
    eps: float
    c_prime: float = 1.0
    scale_a: float = 1.0

    def __post_init__(self):
        if self.d <= 0 or self.eps <= 0 or self.c_prime <= 0:
            raise ValueError("d, eps, c_prime must be positive")


@dataclass(frozen=True)
class IsoReport:
    passed: bool
    boundary_length: int
    face_count: int
    threshold: float


@dataclass(frozen=True)
class GenIsoReport:
    violation: bool
    cancel: int
    cancel_threshold: float
    boundary_tilde: int
    boundary_threshold: float
    boundary_form_pass: bool
    face_count: int


def check_isoperimetric(D: Diagram, p: IsoParams) -> IsoReport:
    """Planar form: pass iff |dD| >= 4(1-2d-eps)|D|."""
    rhs = 4 * (1 - 2 * p.d - p.eps) * D.face_count
    return IsoReport(
        passed=D.boundary_length >= rhs,
        boundary_length=D.boundary_length,
        face_count=D.face_count,
        threshold=rhs,
    )


def check_generalized_iso(Y: SquareComplex, p: IsoParams,
                          face_ids: Iterable | None = None) -> GenIsoReport:
    """Cancellation form is authoritative: violation iff Cancel(Y) > 4(d+eps)|Y|.

    The boundary-tilde form bt(Y) >= 4(1-2d-eps)|Y| is evaluated and reported
    but never decides the outcome (its eps-scaling differs from the
    cancellation form by a factor of two under the bt = 4|Y| - 2 Cancel
    identity, so the two predicates are inequivalent for the same eps).
    """
    fids = list(face_ids) if face_ids is not None else list(Y.faces)
    size = len(fids)
    can = cancellation(Y, fids)
    bt = generalized_boundary_length(Y, fids)
    cancel_threshold = 4 * (p.d + p.eps) * size
    boundary_threshold = 4 * (1 - 2 * p.d - p.eps) * size
    return GenIsoReport(
        violation=can > cancel_threshold,
        cancel=can,
        cancel_threshold=cancel_threshold,
        boundary_tilde=bt,
        boundary_threshold=boundary_threshold,
        boundary_form_pass=bt >= boundary_threshold,
        face_count=size,
    )


# -- strong adjacency (shared helper; the walls module re-exports) ----------


def shared_edge_pairs(X: SquareComplex) -> tuple[list, list]:
    """(pairs sharing exactly 2 edges, pairs sharing >= 3 edges).

    Shared-edge count is by distinct edge id. Pairs are (fid1, fid2, shared
    edge tuple) with fid1 < fid2 in canonical order.
    """
    use: dict[Hashable, set] = {}
    for fid, f in X.faces.items():
        for st in f.walk:
            use.setdefault(st.edge, set()).add(fid)
    count: Counter = Counter()
    for e, fids in use.items():
        fl = sorted(fids, key=_idkey)
        for i in range(len(fl)):
            for j in range(i + 1, len(fl)):
                count[(fl[i], fl[j])] += 1
    strong, violating = [], []
    for (f1, f2), c in sorted(count.items(), key=lambda kv: (_idkey(kv[0][0]), _idkey(kv[0][1]))):
        if c < 2:
            continue
        shared = tuple(sorted((e for e, fs in use.items() if f1 in fs and f2 in fs), key=_idkey))
        if c == 2:
            strong.append((f1, f2, shared))
        else:
            violating.append((f1, f2, shared))
    return strong, violating


def add_horns(D: Diagram, X: SquareComplex,
              pairs: list | None = None) -> DiagramWithHorns:
    """Glue, for every boundary-touching face of D that is one member of a
    strongly adjacent pair of X whose partner is missing from D, that partner
    exactly as it sits in X.

    Raises HornError when a partner would share >= 3 edges with D's complex
    (corrupt ambient data) or when two horns would share an edge.
    """
    if pairs is None:
        pairs, viol = shared_edge_pairs(X)
        if viol:
            raise HornError(f"ambient complex has {len(viol)} pairs sharing >=3 edges")
    base_cx = D.complex
    partner: dict[Hashable, Hashable] = {}
    for f1, f2, _shared in pairs:
        partner[f1] = f2
        partner[f2] = f1
    boundary_edges = {st.edge for st in D.boundary}
    horns: list[tuple[Hashable, Hashable]] = []
    new_faces: dict[Hashable, Face] = {}
    for fid in sorted(base_cx.faces, key=_idkey):
        if fid not in partner or partner[fid] in base_cx.faces or partner[fid] in new_faces:
            continue
        touches = any(st.edge in boundary_edges for st in base_cx.faces[fid].walk)
        if not touches:
            continue
        pid = partner[fid]
        pface = X.faces[pid]
        shared_with_base = sum(1 for e in {st.edge for st in pface.walk} if e in base_cx.edges)
        if shared_with_base >= 3:
            raise HornError(f"horn {pid!r} would share {shared_with_base} edges with the base")
        new_faces[pid] = pface
        horns.append((pid, fid))
    horn_edges: list[set] = [
        {st.edge for st in X.faces[pid].walk} - set(base_cx.edges) for pid, _ in horns
    ]
    for i in range(len(horn_edges)):
        for j in range(i + 1, len(horn_edges)):
            if horn_edges[i] & horn_edges[j]:
                raise HornError("two horns share an edge")
    vertices = set(base_cx.vertices)
    edges = dict(base_cx.edges)
    faces = dict(base_cx.faces)
    for pid, _ in horns:
        pface = X.faces[pid]
        for st in pface.walk:
            if st.edge not in edges:
                edges[st.edge] = X.edges[st.edge]
            src, dst = X.edges[st.edge]
            vertices.add(src)
            vertices.add(dst)
        faces[pid] = pface
    merged = SquareComplex(vertices, edges, faces)
    return DiagramWithHorns(base=D, complex=merged, horns=tuple(horns))


# -- balanced cuts ----------------------------------------------------------


@dataclass(frozen=True)
class BalancedCut:
    path: tuple[Step, ...]
    from_position: int
    to_position: int
    arc_lengths: tuple[int, int]


def find_balanced_cut(D: Diagram, c_prime: float) -> BalancedCut | None:
    """Shortest interior path between two boundary positions whose two
    boundary arcs both have at least |dD|/4 edges.

    The path may not use boundary edges (so it genuinely splits the disc);
    its length is bounded by 4 + 8*log(|D|)/C'. Deterministic: the minimal
    (length, arc imbalance, i, j) is returned; None when |D| < 2 or nothing
    qualifies.
    """
    if D.face_count < 2:
        return None
    L = D.boundary_length
    bound = 4 + 8 * math.log(D.face_count) / c_prime
    cx = D.complex
    boundary_edges = {st.edge for st in D.boundary}
    adj: dict[Hashable, list[Step]] = {v: [] for v in cx.vertices}
    for e, (src, dst) in cx.edges.items():
        if e in boundary_edges:
            continue
        adj[src].append(Step(e, 1))
        adj[dst].append(Step(e, -1))
    bverts = cx.walk_vertices(D.boundary)

    def bfs(start):
        dist = {start: 0}
        back: dict[Hashable, Step] = {}
        q = deque([start])
        while q:
            v = q.popleft()
            for st in sorted(adj[v], key=lambda s: (_idkey(s.edge), s.dir)):
                w = cx.step_head(st)
                if w not in dist:
                    dist[w] = dist[v] + 1
                    back[w] = st
                    q.append(w)
        return dist, back

    cached: dict[Hashable, tuple] = {}
    best = None
    for i in range(L):
        vi = bverts[i]
        if vi not in cached:
            cached[vi] = bfs(vi)
        dist, _back = cached[vi]
        for j in range(i + 1, L):
            arc1 = j - i
            arc2 = L - arc1
            if arc1 < L / 4 or arc2 < L / 4:
                continue
            vj = bverts[j]
            if vj not in dist or vi == vj:
                continue
            dl = dist[vj]
            if dl == 0 or dl > bound:
                continue
            key = (dl, abs(arc1 - arc2), i, j)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    dl, _imbalance, i, j = best
    dist, back = cached[bverts[i]]
    path: list[Step] = []
    v = bverts[j]
    while v != bverts[i]:
        st = back[v]
        path.append(st)
        v = cx.step_tail(st)
    path.reverse()
    return BalancedCut(path=tuple(path), from_position=i, to_position=j,
                       arc_lengths=(j - i, L - (j - i)))
