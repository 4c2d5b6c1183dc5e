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
degree 0 contributes +2 and -1 respectively). Since sum_e deg(e) = 4|Y|,
over the whole complex both are closed forms, bt(Y) = 2|E| - 4|Y| and
Cancel(Y) = 4|Y| - |E|, and the identity bt(Y) = 4|Y| - 2*Cancel(Y) holds
unconditionally. Only a face subset needs the per-edge degrees.

Every SquareComplex is validated on construction, so its 1-skeleton is
connected and every vertex is reachable from every other.

Face reading convention (shared with the fulfillability machinery): a face
with relator label i, starting slot s and orientation o reads the t-th letter
of its word at walk slot (s + o*t) mod 4; the letter carried by the edge in
slot j, traversed with step direction dir, is word[t]^(dir*o).
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, NamedTuple


class ComplexStructureError(ValueError):
    pass


class Step(NamedTuple):
    edge: Hashable
    dir: int  # +1 traverses src -> dst, -1 traverses dst -> src

    def reversed(self) -> "Step":
        return Step(self.edge, -self.dir)


@dataclass(frozen=True, slots=True)
class Face:
    """A square 2-cell: 4-step closed walk plus reading decorations."""

    walk: tuple[Step, Step, Step, Step]
    label: int | None = None
    start: int = 0
    orient: int = 1

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

    def position_of_slot(self, j: int) -> int:
        """Relator position read at walk slot j."""
        return (self.orient * (j - self.start)) % 4


class SquareComplex:
    """Immutable-after-build square complex.

    vertices: iterable of vertex ids
    edges: dict edge_id -> (src, dst)
    faces: dict face_id -> Face
    """

    def __init__(self, vertices: Iterable[Hashable], edges: dict, faces: dict):
        self.vertices = frozenset(vertices)
        self.edges = dict(edges)
        self.faces = dict(faces)
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
            # (tail, head) of each step; step i must end where step i+1 starts
            ends = [self.edges[st.edge][::st.dir] for st in f.walk]
            for i in range(4):
                if ends[i][1] != ends[i - 3][0]:
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

    # -- measurements -------------------------------------------------------

    def degrees(self, face_ids: Iterable | None = None) -> Counter:
        """Slot-occurrence count per edge, counted afresh on every call. Over
        the whole complex every edge is reported, bare edges with 0;
        restricting to face_ids counts only those faces' slots and only
        reports edges they touch."""
        if face_ids is None:
            deg = Counter(dict.fromkeys(self.edges, 0))
            face_ids = self.faces
        else:
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
                    "color": "regular",
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
            if fd.get("color", "regular") != "regular":
                raise ComplexStructureError(f"bad color {fd['color']!r}")
            walk = tuple(Step(_id_in(sd["edge"]), sd["dir"]) for sd in fd["walk"])
            faces[_id_in(fd["id"])] = Face(
                walk=walk,
                label=fd.get("label"),
                start=fd.get("start", 0),
                orient=fd.get("orient", 1),
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
    """sum_e (2 - deg(e)); may be negative, returned as-is. Over the whole
    complex the degrees sum to 4|Y|, so it is 2|E| - 4|Y|.

    With face_ids given, the measurement is of the subcomplex spanned by those
    faces (only edges they touch are counted).
    """
    if face_ids is None:
        return 2 * len(Y.edges) - 4 * len(Y.faces)
    deg = Y.degrees(face_ids)
    return sum(2 - d for d in deg.values())


def cancellation(Y: SquareComplex, face_ids: Iterable | None = None) -> int:
    """sum_e (deg(e) - 1) over the same edge set as generalized_boundary_length.
    Over the whole complex the degrees sum to 4|Y|, so it is 4|Y| - |E|."""
    if face_ids is None:
        return 4 * len(Y.faces) - len(Y.edges)
    deg = Y.degrees(face_ids)
    return sum(d - 1 for d in deg.values())


def slot_table(n_faces: int, idents, base=None):
    """Edge classes of a gluing of n_faces squares, as flat lists over the
    4*n_faces slots (slot 4f + j is slot j of face f): root[x] is the slot
    that names the edge of slot x, and sign[x] is +1 when slot x traverses
    that edge the way the root slot does, -1 when reversed.

    idents are ((f, j), (g, k), sign) as for build_quotient. A union keeps
    the root of the first-named slot and relabels every slot of the second
    slot's class directly, so no lookup ever follows a parent chain. base, a
    table of the same n_faces (lists or tuples), is extended on a list copy
    and never changed.
    Returns None when an identification folds an edge onto itself reversed.
    """
    if base is None:
        root, sign = list(range(4 * n_faces)), [1] * (4 * n_faces)
    else:
        root, sign = list(base[0]), list(base[1])
    for (f, j), (g, k), s in idents:
        if s not in (1, -1):
            raise ValueError("identification sign must be +1 or -1")
        x, y = 4 * f + j, 4 * g + k
        rx, ry = root[x], root[y]
        if rx == ry:
            if sign[x] * sign[y] != s:
                return None
            continue
        flip = sign[x] * s * sign[y]
        for z, r in enumerate(root):
            if r == ry:
                root[z] = rx
                sign[z] *= flip
    return root, sign


# What build_quotient hands out, one object per value, so the many quotients
# of an enumeration share them: (edge id, dir) -> Step, (walk, label) ->
# Face, vertex count -> the vertex set {u0, u1, ...}, and prefix -> the id
# strings by index
_STEPS: dict = {}
_FACES: dict = {}
_VERTS: dict = {}
_IDS: dict = {"e": [], "u": []}


def _ids(prefix: str, n: int) -> list:
    """The shared id strings prefix0, prefix1, ...: at least n of them."""
    names = _IDS[prefix]
    names.extend(f"{prefix}{i}" for i in range(len(names), n))
    return names


def build_quotient(n_faces: int, identifications,
                   labels=None) -> SquareComplex | None:
    """Glue n_faces disjoint squares along slot identifications.

    identifications: iterable of ((f, j), (g, k), sign): slot j of face f is
    the same edge as slot k of face g, traversed the same way (sign +1) or
    reversed (sign -1). Unmatched slots stay degree-1 edges. Returns None
    when an identification folds an edge onto itself reversed or the glued
    1-skeleton is disconnected.

    Edges are read off slot_table: e0, e1, ... in the order of their root
    slots. Corner c = 4f + j is the tail of slot j of face f; corners are
    united in identification order, each union keeping the first-named
    corner's root, and vertices are u0, u1, ... in the order of their roots.
    """
    idents = list(identifications)
    table = slot_table(n_faces, idents)
    if table is None:
        return None
    return _quotient(n_faces, idents, table, labels)


def _quotient(n_faces: int, idents, table, labels) -> SquareComplex | None:
    """The complex build_quotient makes from idents, given their slot table:
    the (root, sign) pair that slot_table(n_faces, idents) returns, as lists
    or tuples, which must not fold and is only read. None when the glued
    1-skeleton is disconnected."""
    root, sign = table
    corner = list(range(4 * n_faces))

    def head(x):
        return x + 1 if x % 4 < 3 else x - 3

    for (f, j), (g, k), sgn in idents:
        x, y = 4 * f + j, 4 * g + k
        hx, hy = head(x), head(y)
        for a, b in ((x, y), (hx, hy)) if sgn == 1 else ((x, hy), (hx, y)):
            ra, rb = corner[a], corner[b]
            if ra != rb:
                for z, r in enumerate(corner):
                    if r == rb:
                        corner[z] = ra

    edge_roots = sorted(set(root))
    edge_id = dict(zip(edge_roots, _ids("e", len(edge_roots))))
    vert_roots = sorted(set(corner))
    vert_id = dict(zip(vert_roots, _ids("u", len(vert_roots))))
    verts = _VERTS.get(len(vert_roots))
    if verts is None:
        verts = _VERTS[len(vert_roots)] = frozenset(vert_id.values())
    edges = {edge_id[r]: (vert_id[corner[r]], vert_id[corner[head(r)]])
             for r in edge_roots}
    faces = {}
    for f in range(n_faces):
        walk = []
        for x in range(4 * f, 4 * f + 4):
            key = (edge_id[root[x]], sign[x])
            st = _STEPS.get(key)
            if st is None:
                st = _STEPS[key] = Step(*key)
            walk.append(st)
        key = (tuple(walk), None if labels is None else labels[f])
        face = _FACES.get(key)
        if face is None:
            face = _FACES[key] = Face(*key)
        faces[f] = face
    try:
        return SquareComplex(verts, edges, faces)
    except ComplexStructureError:
        return None


# -- diagrams ---------------------------------------------------------------


@dataclass(frozen=True)
class Diagram:
    """A complex with a distinguished closed boundary walk."""

    complex: SquareComplex
    boundary: tuple[Step, ...]

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


@dataclass(frozen=True)
class IsoParams:
    d: float
    eps: float

    def __post_init__(self):
        if self.d <= 0 or self.eps <= 0:
            raise ValueError("d, eps must be positive")


@dataclass(frozen=True)
class GenIsoReport:
    violation: bool
    cancel: int
    cancel_threshold: float
    boundary_tilde: int
    boundary_threshold: float
    boundary_form_pass: bool
    face_count: int


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
