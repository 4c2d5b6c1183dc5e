"""Square complexes and their diagram machinery.

A SquareComplex is a combinatorial 2-complex whose faces are squares: each
face carries a closed attaching walk of exactly 4 directed edge slots.
Vertices, edges and faces are numbered once, when the complex is built: the
ints 0..n-1 of each kind, in the order (type name, then repr) of the names
they were given. The library works on ids; the names live in one table on the
complex, which serialization and the entry points that take names read.

The two basic measurements are

    generalized boundary length   bt(Y)     = sum_e (2 - deg(e))
    cancellation                  Cancel(Y) = sum_e (deg(e) - 1)

where deg(e) counts attaching-walk slots, so a face traversing an edge twice
contributes 2. Both sums run over every edge of the complex (a bare edge of
degree 0 contributes +2 and -1 respectively). Since sum_e deg(e) = 4|Y|,
over the whole complex both are closed forms, bt(Y) = 2|E| - 4|Y| and
Cancel(Y) = 4|Y| - |E|, and the identity bt(Y) = 4|Y| - 2*Cancel(Y) holds
unconditionally. A face subset is measured on the subcomplex it spans.

Every SquareComplex is validated on construction, so its 1-skeleton is
connected and every vertex is reachable from every other.

Face reading convention (shared with the fulfillability machinery): a face
with relator label i, starting slot s and orientation o reads the t-th letter
of its word at walk slot (s + o*t) mod 4; the letter carried by the edge in
slot j, traversed with step direction dir, is word[t]^(dir*o).
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple


class ComplexStructureError(ValueError):
    pass


class Step(NamedTuple):
    edge: int  # an edge id; an edge name only on the way into SquareComplex.named
    dir: int  # +1 traverses src -> dst, -1 traverses dst -> src


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


class NameTable(NamedTuple):
    """Per kind, the name of each id of a complex: vertices[i] names vertex i."""

    vertices: tuple
    edges: tuple
    faces: tuple


class SquareComplex:
    """Immutable-after-build square complex on ids 0..n-1 of each kind.

    names: NameTable, the name of every id; ids inverts it
    vertices: range of the vertex ids
    edges: dict edge id -> (src, dst) vertex ids, in id order
    faces: dict face id -> Face, whose steps carry edge ids, in id order
    """

    def __init__(self, names: NameTable, edges: dict, faces: dict):
        self.names = names
        self.edges = edges
        self.faces = faces
        self._validate()

    @property
    def vertices(self) -> range:
        return range(len(self.names.vertices))

    @cached_property
    def ids(self) -> NameTable:
        """name -> id per kind, built on first use."""
        return NameTable(*({x: i for i, x in enumerate(kind)} for kind in self.names))

    @classmethod
    def named(cls, vertices: Iterable, edges: dict, faces: dict) -> "SquareComplex":
        """The complex given by names: vertex names, edge name -> (src name,
        dst name), face name -> Face whose steps carry edge names. Each kind
        is numbered in the order of its names."""
        names = NameTable(ordered_names(set(vertices)), ordered_names(edges),
                          ordered_names(faces))
        vid = {v: i for i, v in enumerate(names.vertices)}
        eid = {e: i for i, e in enumerate(names.edges)}
        try:
            ends = {i: (vid[edges[e][0]], vid[edges[e][1]])
                    for i, e in enumerate(names.edges)}
            walks = {i: _renumbered(faces[f], eid) for i, f in enumerate(names.faces)}
        except KeyError as exc:
            raise ComplexStructureError(f"unknown vertex or edge {exc.args[0]!r}") from None
        return cls(names, ends, walks)

    # -- validation ---------------------------------------------------------

    def _validate(self):
        if (list(self.edges) != list(range(len(self.names.edges)))
                or list(self.faces) != list(range(len(self.names.faces)))):
            raise ComplexStructureError("edges and faces must be 0..n-1 in order")
        vertices = self.vertices
        for e, (src, dst) in self.edges.items():
            if src not in vertices or dst not in vertices:
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
        if vertices and not self._skeleton_connected():
            raise ComplexStructureError("1-skeleton is not connected")

    def _skeleton_connected(self) -> bool:
        adj: list = [[] for _ in self.vertices]
        for src, dst in self.edges.values():
            adj[src].append(dst)
            adj[dst].append(src)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(adj)

    # -- traversal ----------------------------------------------------------

    def step_tail(self, st: Step) -> int:
        src, dst = self.edges[st.edge]
        return src if st.dir == 1 else dst

    def step_head(self, st: Step) -> int:
        src, dst = self.edges[st.edge]
        return dst if st.dir == 1 else src

    def spanned(self, face_ids) -> "SquareComplex":
        """The subcomplex of the given faces, their edges and the edges'
        endpoints, under the same names and numbered afresh."""
        vn, en, fn = self.names
        faces = {fn[f]: self.faces[f] for f in face_ids}
        edges = {en[st.edge]: tuple(vn[v] for v in self.edges[st.edge])
                 for face in faces.values() for st in face.walk}
        return SquareComplex.named({v for uv in edges.values() for v in uv}, edges,
                                   {f: _renumbered(face, en) for f, face in faces.items()})

    @cached_property
    def skeleton(self) -> "SkeletonIndex":
        """The 1-skeleton index, built on first use. A property rather than
        an attribute set here, so that the many complexes an enumeration
        builds and never searches carry no extra slot."""
        return SkeletonIndex.build(self)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        vn, en, fn = self.names
        edges = [
            {"id": _id_out(en[e]), "src": _id_out(vn[s]), "dst": _id_out(vn[d])}
            for e, (s, d) in self.edges.items()
        ]
        faces = [
            {
                "id": _id_out(fn[fid]),
                "walk": [{"edge": _id_out(en[st.edge]), "dir": st.dir} for st in f.walk],
                "label": f.label,
                "start": f.start,
                "orient": f.orient,
                "color": "regular",
            }
            for fid, f in self.faces.items()
        ]
        return json.dumps(
            {"vertices": [_id_out(v) for v in vn], "edges": edges, "faces": faces},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, s: str) -> "SquareComplex":
        """The complex to_json wrote. A vertex, edge or face id that appears
        twice, or a face label that is neither null nor an integer, raises
        ComplexStructureError."""
        d = json.loads(s)
        vertices = [_id_in(v) for v in d["vertices"]]
        edge_ids = [_id_in(e["id"]) for e in d["edges"]]
        face_ids = [_id_in(fd["id"]) for fd in d["faces"]]
        for kind, ids in (("vertex", vertices), ("edge", edge_ids), ("face", face_ids)):
            repeated = [x for x, c in Counter(ids).items() if c > 1]
            if repeated:
                raise ComplexStructureError(f"repeated {kind} id {repeated[0]!r}")
        edges = {e: (_id_in(ed["src"]), _id_in(ed["dst"]))
                 for e, ed in zip(edge_ids, d["edges"])}
        faces = {}
        for f, fd in zip(face_ids, d["faces"]):
            if fd.get("color", "regular") != "regular":
                raise ComplexStructureError(f"bad color {fd['color']!r}")
            walk = tuple(Step(_id_in(sd["edge"]), sd["dir"]) for sd in fd["walk"])
            label = fd.get("label")
            if label is not None and type(label) is not int:
                raise ComplexStructureError(f"bad label {label!r}")
            faces[f] = Face(
                walk=walk,
                label=label,
                start=fd.get("start", 0),
                orient=fd.get("orient", 1),
            )
        return cls.named(vertices, edges, faces)


def _renumbered(face: Face, edge_id) -> Face:
    """face with each step's edge replaced by edge_id[edge]."""
    walk = tuple(Step(edge_id[st.edge], st.dir) for st in face.walk)
    return Face(walk, face.label, face.start, face.orient)


@dataclass(frozen=True)
class SkeletonIndex:
    """The 1-skeleton by vertex id: per vertex its (neighbour, edge id)
    incidences in edge id order, an edge (u, v) listed at u and then at v.
    It also remembers the breadth-first tree of the last source tree() was
    asked for, so callers that walk pairs source by source search once per
    source. That one tree lives and dies with the index, and so with its
    complex; it takes no part in equality."""

    adj: tuple  # per vertex id: tuple of (neighbour id, edge id)
    last: list = field(compare=False, repr=False)  # [(source, bfs(source))], or []

    @classmethod
    def build(cls, X: "SquareComplex") -> "SkeletonIndex":
        adj: list[list] = [[] for _ in X.vertices]
        for eid, (u, v) in X.edges.items():
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        return cls(tuple(map(tuple, adj)), [])

    def tree(self, source: int) -> tuple[list, list]:
        """bfs(source), searched again only when source is not the last
        source asked for. Callers share the lists and only read them."""
        last = self.last
        if not last or last[0][0] != source:
            last[:] = [(source, self.bfs(source))]
        return last[0][1]

    def bfs(self, source: int) -> tuple[list, list]:
        """Breadth-first search from a vertex id: per vertex the edge
        distance (-1 when unreached) and the parent (vertex, edge id), which
        is the first incidence in id order to reach it (None at the source
        and when unreached). A source outside 0..V-1 raises IndexError."""
        if source < 0:
            raise IndexError(f"vertex id {source} out of range")
        dist = [-1] * len(self.adj)
        via: list = [None] * len(self.adj)
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


def ordered_names(names) -> tuple:
    """Names in id order: by type name, then repr."""
    return tuple(sorted(names, key=_idkey))


def generalized_boundary_length(Y: SquareComplex) -> int:
    """sum_e (2 - deg(e)); may be negative, returned as-is. The degrees sum
    to 4|Y|, so it is 2|E| - 4|Y|. A face subset is measured on the
    subcomplex it spans (SquareComplex.spanned)."""
    return 2 * len(Y.edges) - 4 * len(Y.faces)


def cancellation(Y: SquareComplex) -> int:
    """sum_e (deg(e) - 1) over every edge; the degrees sum to 4|Y|, so it is
    4|Y| - |E|."""
    return 4 * len(Y.faces) - len(Y.edges)


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
# Face, the (src, dst) of each edge in id order -> the edges dict, and
# (vertex, edge, face) counts -> the name table and each kind's ids by index
# (see _counted). Complexes only read their edges, so one dict can serve
# every quotient with the same ends.
_STEPS: dict = {}
_FACES: dict = {}
_EDGES: dict = {}
_COUNTED: dict = {}


def _counted(n_vertices: int, n_edges: int, n_faces: int) -> tuple:
    """(name table, vertex ids, edge ids, face ids) of a quotient with these
    counts: names u0.., e0.. (interned strings) and 0.., and per kind the id
    of each index, which is the index up to ten (e10 sorts before e2)."""
    key = (n_vertices, n_edges, n_faces)
    if key not in _COUNTED:
        natural = ([sys.intern(f"u{i}") for i in range(n_vertices)],
                   [sys.intern(f"e{i}") for i in range(n_edges)], list(range(n_faces)))
        names = NameTable(*map(ordered_names, natural))
        _COUNTED[key] = (names, *([kind.index(x) for x in xs]
                                  for kind, xs in zip(names, natural)))
    return _COUNTED[key]


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
    Face f is named f. Ids follow the names (see _counted). Quotients with
    the same edge ends share one edges dict, and equal steps and faces are
    shared objects too (see _EDGES): they are only read.
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
    1-skeleton is disconnected. The edges dict, steps and faces come from
    _EDGES, _STEPS and _FACES, one object per value."""
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
    vert_roots = sorted(set(corner))
    names, vert_ids, edge_ids, face_ids = _counted(
        len(vert_roots), len(edge_roots), n_faces)
    edge_id = dict(zip(edge_roots, edge_ids))
    vert_id = dict(zip(vert_roots, vert_ids))
    ends = tuple(uv for _e, uv in sorted(
        (edge_id[r], (vert_id[corner[r]], vert_id[corner[head(r)]])) for r in edge_roots))
    edges = _EDGES.get(ends)
    if edges is None:
        edges = _EDGES[ends] = dict(enumerate(ends))
    faces: list = [None] * n_faces
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
        faces[face_ids[f]] = face
    try:
        return SquareComplex(names, edges, dict(enumerate(faces)))
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


def check_generalized_iso(Y: SquareComplex, p: IsoParams) -> GenIsoReport:
    """Cancellation form is authoritative: violation iff Cancel(Y) > 4(d+eps)|Y|.

    The boundary-tilde form bt(Y) >= 4(1-2d-eps)|Y| is evaluated and reported
    but never decides the outcome (its eps-scaling differs from the
    cancellation form by a factor of two under the bt = 4|Y| - 2 Cancel
    identity, so the two predicates are inequivalent for the same eps). A
    face subset is checked on the subcomplex it spans.
    """
    size = len(Y.faces)
    can = cancellation(Y)
    bt = generalized_boundary_length(Y)
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
