"""Output checks that do not trust the program.

Every function here re-derives its answer from the artifact it is given
(or from coordinates, or from the presentation's words) with code of its
own, and raises CheckFailed on the first disagreement. Nothing here imports
squarewalls, so a bug in the library cannot hide in a shared helper.

Words are tuples of signed integers (+k the k-th generator, -k its inverse),
as in the artifacts.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter, deque
from itertools import combinations, product

WINDOW = 15
BOUND_DIVISOR = 15


class CheckFailed(AssertionError):
    pass


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# -- words -----------------------------------------------------------------


def parse_letter(tok: str) -> int:
    inv = tok.endswith("^-1")
    core = tok[:-3] if inv else tok
    require(core.startswith("a") and core[1:].isdigit(), f"bad letter {tok!r}")
    k = int(core[1:])
    return -k if inv else k


def free_reduce(w) -> tuple:
    out: list = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(w) -> tuple:
    return tuple(-x for x in reversed(w))


def is_reduced(w) -> bool:
    return all(w[i] != -w[i + 1] for i in range(len(w) - 1))


def relator_variants(relators) -> set:
    out = set()
    for r in relators:
        for k in range(len(r)):
            rot = tuple(r[k:]) + tuple(r[:k])
            out.add(rot)
            out.add(inverse(rot))
    return out


def replay_witness(relators, u, v, witness) -> bool:
    """True when inserting each (position, variant) in turn, with free
    reduction after each insertion, takes u·v⁻¹ to the empty word."""
    variants = relator_variants(relators)
    w = free_reduce(tuple(u) + inverse(v))
    for pos, var in witness:
        var = tuple(var)
        if var not in variants or not 0 <= pos <= len(w):
            return False
        w = free_reduce(w[:pos] + var + w[pos:])
    return w == ()


def cyclically_reduced_words(n: int, length: int = 4) -> list:
    letters = [s * k for k in range(1, n + 1) for s in (-1, 1)]
    out = []
    for w in product(letters, repeat=length):
        if is_reduced(w) and w[-1] != -w[0]:
            out.append(w)
    return out


def relator_count(n: int, d: float) -> int:
    """floor((2n-1)^(4d)), values within 1e-9 of an integer rounded first."""
    x = float(2 * n - 1) ** (4 * d)
    r = round(x)
    count = r if abs(x - r) < 1e-9 else math.floor(x)
    m = 2 * n - 1
    return max(1, min(count, m ** 4 + m))


def check_presentation(relators, n: int, d: float) -> None:
    """Sampled relators: floor((2n-1)^(4d)) distinct cyclically reduced
    length-4 words over n generators."""
    require(len(relators) == relator_count(n, d),
            f"{len(relators)} relators at rank {n}, density {d}")
    require(len(set(relators)) == len(relators), "relators repeat")
    for w in relators:
        require(len(w) == 4 and is_reduced(w) and w[-1] != -w[0]
                and all(1 <= abs(x) <= n for x in w),
                f"relator {w} is not a cyclically reduced length-4 word at rank {n}")


# -- ids and graphs --------------------------------------------------------


def as_id(x):
    """JSON id (nested lists) to the hashable tuple form."""
    if isinstance(x, list):
        return tuple(as_id(y) for y in x)
    return x


def id_order(x) -> tuple:
    """The program's documented canonical order on ids: type name, then repr."""
    return (type(x).__name__, repr(x))


def bfs(adj: dict, source) -> dict:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def components(vertices, edges, removed) -> dict:
    """vertex -> component index of the graph without the removed edge ids."""
    adj: dict = {v: [] for v in vertices}
    for eid, (s, d) in edges.items():
        if eid not in removed:
            adj[s].append(d)
            adj[d].append(s)
    side: dict = {}
    c = -1
    for v in vertices:
        if v in side:
            continue
        c += 1
        side[v] = c
        queue = deque([v])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in side:
                    side[y] = c
                    queue.append(y)
    return side


class Complex:
    """Vertices, edges (id -> (src, dst)) and faces (id -> dict with walk
    [(edge, dir)], label, start, orient) read from an artifact."""

    def __init__(self, doc: dict):
        self.vertices = [as_id(v) for v in doc["vertices"]]
        self.edges = {as_id(e["id"]): (as_id(e["src"]), as_id(e["dst"]))
                      for e in doc["edges"]}
        require(len(self.edges) == len(doc["edges"]), "edge ids repeat")
        self.faces = {}
        for f in doc["faces"]:
            require(all(as_id(s["edge"]) in self.edges for s in f["walk"]),
                    f"face {f['id']} uses an unknown edge")
            self.faces[as_id(f["id"])] = {
                "walk": [(as_id(s["edge"]), s["dir"]) for s in f["walk"]],
                "label": f["label"], "start": f["start"], "orient": f["orient"],
            }
        self.adj: dict = {v: [] for v in self.vertices}
        for s, d in self.edges.values():
            self.adj[s].append(d)
            self.adj[d].append(s)
        self.degree: dict = {e: 0 for e in self.edges}
        for f in self.faces.values():
            for e, _d in f["walk"]:
                self.degree[e] += 1

    def walk_vertices(self, walk) -> list:
        out = []
        for e, d in walk:
            s, t = self.edges[e]
            out.append((s, t) if d == 1 else (t, s))
        return out


# -- Cayley balls ----------------------------------------------------------


def check_ball(doc: dict) -> Complex:
    """Each vertex id is a reduced word as long as its own BFS distance from
    the identity, within the radius; at most one outgoing and one incoming
    edge per generator at each vertex; all 2n edge-ends inside the radius;
    every face spells its relator from its start slot in its orientation."""
    r = doc["radius"]
    pres = doc["presentation"]
    rank = pres["rank"]
    relators = [tuple(parse_letter(t) for t in w) for w in pres["relators"]]
    out_edges: dict = {}
    in_edges: dict = {}
    for edge in doc["edges"]:
        (w, g), s, d = as_id(edge["id"]), as_id(edge["src"]), as_id(edge["dst"])
        require(1 <= g <= rank and s == w, f"edge {(w, g)} does not start at {w}")
        require((s, g) not in out_edges, f"vertex {s} has two outgoing a{g}-edges")
        require((d, g) not in in_edges, f"vertex {d} has two incoming a{g}-edges")
        out_edges[(s, g)] = d
        in_edges[(d, g)] = s
    cx = Complex(doc)
    require(() in cx.adj, "ball has no identity vertex")
    dist = bfs(cx.adj, ())
    require(len(dist) == len(cx.vertices), "ball 1-skeleton is disconnected")
    for v in cx.vertices:
        require(is_reduced(v), f"vertex {v} is not a reduced word")
        require(len(v) == dist[v] <= r,
                f"vertex {v}: word length {len(v)}, BFS distance {dist[v]}, radius {r}")
    for v in cx.vertices:
        if dist[v] < r:
            ends = sum(((v, g) in out_edges) + ((v, g) in in_edges)
                       for g in range(1, rank + 1))
            require(ends == 2 * rank, f"interior vertex {v} has {ends} of "
                    f"{2 * rank} edge-ends")
    for fid, f in cx.faces.items():
        require(1 <= f["label"] <= len(relators), f"face {fid} label out of range")
        check_face_reading(cx, fid, f, relators[f["label"] - 1])
    return cx


def check_face_reading(cx: Complex, fid, face: dict, word) -> None:
    """The walk closes, and slot j's edge (w, g), which carries the letter g
    from w to w·g, reads word[k]^(dir*orient) with k = orient*(j - start)
    mod 4: the face spells its word from its start in its orientation."""
    steps = cx.walk_vertices(face["walk"])
    for i in range(4):
        require(steps[i][1] == steps[(i + 1) % 4][0],
                f"face {fid} walk does not chain at slot {i}")
    o, s = face["orient"], face["start"]
    for j, (e, d) in enumerate(face["walk"]):
        k = (o * (j - s)) % 4
        require(e[1] == word[k] * d * o,
                f"face {fid} slot {j} reads {e[1] * d * o}, "
                f"relator position {k} is {word[k]}")


# -- walls -----------------------------------------------------------------


def tree_witness(segments):
    """None for an embedded tree, else a replayable witness: a face carrying
    two segments, or a cycle of segments."""
    seen_faces = set()
    for a, b, f in segments:
        if f in seen_faces:
            return ("repeated-face", f)
        seen_faces.add(f)
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adj: dict = {}
    for seg in segments:
        a, b, _f = seg
        if find(a) == find(b):
            return ("cycle", _path(adj, b, a) + [seg])
        parent[find(a)] = find(b)
        adj.setdefault(a, []).append((b, seg))
        adj.setdefault(b, []).append((a, seg))
    return None


def _path(adj, src, dst) -> list:
    prev = {src: None}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y, seg in adj.get(x, ()):
            if y not in prev:
                prev[y] = (x, seg)
                queue.append(y)
    out = []
    x = dst
    while prev[x] is not None:
        x, seg = prev[x]
        out.append(seg)
    return out[::-1]


def replay_tree_witness(segments, witness) -> bool:
    kind, data = witness
    if kind == "repeated-face":
        return sum(1 for s in segments if s[2] == data) > 1
    cycle = data
    if not cycle or any(s not in segments for s in cycle):
        return False
    # consecutive segments share a dual vertex, and the chain closes
    for start in cycle[0][:2]:
        at = start
        for a, b, _f in cycle:
            if at not in (a, b):
                break
            at = b if at == a else a
        else:
            if at == start:
                return True
    return False


def check_walls(cx: Complex, doc: dict, kinds) -> list:
    """Per wall: valid segments, dual edges and carrier as the segments say,
    a connected segment graph, the tree verdict backed by a replayed witness,
    the complement count and boundary flag from the benchmark's own
    components. Every face gives the two opposite-edge segments of the
    standard kind and at most two segments of any kind. Returns the side
    maps of the walls, in artifact order."""
    per_kind: dict = {k: {} for k in kinds}
    sides = []
    for i, w in enumerate(doc["walls"]):
        kind = w["kind"]
        require(kind in kinds, f"wall {i} has kind {kind!r}")
        segs = [(as_id(a), as_id(b), as_id(f)) for a, b, f in w["segments"]]
        require(segs, f"wall {i} has no segments")
        verts = {x for s in segs for x in s[:2]}
        require(verts == {as_id(e) for e in w["dual_edges"]},
                f"wall {i}: dual edges differ from the segment ends")
        require({s[2] for s in segs} == {as_id(f) for f in w["carrier"]},
                f"wall {i}: carrier differs from the segment faces")
        for a, b, f in segs:
            require(f in cx.faces, f"wall {i}: unknown face {f}")
            walk = [e for e, _d in cx.faces[f]["walk"]]
            require(a in walk and b in walk, f"wall {i}: segment {a}-{b} "
                    f"is not inside face {f}")
            per_kind[kind].setdefault(f, []).append(frozenset((a, b)))
        adj: dict = {v: [] for v in verts}
        for a, b, _f in segs:
            adj[a].append(b)
            adj[b].append(a)
        require(len(bfs(adj, segs[0][0])) == len(verts),
                f"wall {i}: segment graph is disconnected")
        witness = tree_witness(segs)
        require((witness is None) == w["embedded_tree"],
                f"wall {i}: embedded_tree {w['embedded_tree']} but the "
                f"benchmark finds witness {witness}")
        require(witness is None or replay_tree_witness(segs, witness),
                f"wall {i}: tree witness {witness} does not replay")
        side = components(cx.vertices, cx.edges, verts)
        count = len(set(side.values()))
        require(count == w["complement_count"],
                f"wall {i}: complement count {w['complement_count']}, "
                f"benchmark counts {count}")
        require(w["boundary_open"] == any(cx.degree[e] < 2 for e in verts),
                f"wall {i}: boundary_open disagrees with edge degrees")
        sides.append(side)
    if "standard" in kinds:
        for fid, face in cx.faces.items():
            walk = [e for e, _d in face["walk"]]
            want = Counter([frozenset((walk[0], walk[2])),
                            frozenset((walk[1], walk[3]))])
            got = Counter(per_kind["standard"].get(fid, []))
            require(got == want, f"face {fid}: standard segments {got}, "
                    f"opposite edge pairs {want}")
    for kind, faces in per_kind.items():
        for fid, segs in faces.items():
            require(len(segs) <= 2, f"face {fid} gives {len(segs)} {kind} segments")
    return sides


def first_painting_conflict(cx: Complex):
    """The first conflict of the canonical painting, or None: faces sharing
    exactly two edges are matched greedily in face-id order; in that order
    a pair whose faces have equal (label, start, orient) keys cannot be
    coloured, and otherwise the smaller key is red, the other blue, and a
    label takes the colour of its faces. Returns ("pair", f1, f2) or
    ("label", label)."""
    use: dict = {}
    for fid, f in cx.faces.items():
        for e, _d in f["walk"]:
            use.setdefault(e, set()).add(fid)
    shared: dict = {}
    for fids in use.values():
        fl = sorted(fids, key=id_order)
        for i in range(len(fl)):
            for j in range(i + 1, len(fl)):
                shared[(fl[i], fl[j])] = shared.get((fl[i], fl[j]), 0) + 1
    pairs = sorted((p for p, c in shared.items() if c == 2),
                   key=lambda p: (id_order(p[0]), id_order(p[1])))
    matched: set = set()
    colour: dict = {}
    for f1, f2 in pairs:
        if f1 in matched or f2 in matched:
            continue
        matched.update((f1, f2))
        k1, k2 = ((cx.faces[f]["label"], cx.faces[f]["start"],
                   cx.faces[f]["orient"]) for f in (f1, f2))
        if k1 == k2:
            return ("pair", f1, f2)
        red, blue = (f1, f2) if k1 < k2 else (f2, f1)
        for fid, c in ((red, "red"), (blue, "blue")):
            lab = cx.faces[fid]["label"]
            if colour.setdefault(lab, c) != c:
                return ("label", lab)
    return None


def check_painting_conflict(cx: Complex, doc: dict) -> None:
    """A conflict artifact is a correct outcome only when the benchmark's own
    painting of the ball meets the same first conflict: the named label
    forced to both colours, or the named pair with equal keys."""
    msg = doc.get("painting_conflict", "")
    parts = msg.split()
    if len(parts) == 7 and parts[0] == "label" and parts[2:4] == ["forced", "both"] \
            and parts[5] == "and" and {parts[4], parts[6]} == {"red", "blue"}:
        named = ("label", int(parts[1]))
    elif len(parts) == 6 and parts[0] == "pair" and parts[2:] == ["has", "equal",
                                                                  "painting", "keys"]:
        named = ("pair", *map(int, parts[1].split(",")))
    else:
        raise CheckFailed(f"conflict message {msg!r} is neither a label forced "
                          f"to both colours nor a pair with equal keys")
    own = first_painting_conflict(cx)
    require(own == named, f"conflict {msg!r}, the benchmark's painting meets {own}")


# -- wall metric -----------------------------------------------------------


def parse_metric_csv(text: str) -> list:
    lines = text.splitlines()
    require(lines and lines[0].startswith("# {"), "wall-metric CSV has no envelope")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    require(rows and rows[0] == ["x", "y", "d_edge", "d_wall", "bound", "status"],
            "wall-metric CSV header")
    return [(as_id(json.loads(x)), as_id(json.loads(y)), int(de), int(dw), int(b), s)
            for x, y, de, dw, b, s in rows[1:]]


def check_metric_rows(rows, vertices, d_edge, d_wall=None) -> None:
    """One row per unordered vertex pair; d_edge as given by the benchmark's
    distance function, bound = d_edge // 15, status pass exactly when
    d_wall >= bound; d_wall as the benchmark's function says, where given
    (it returns None for pairs it makes no claim about)."""
    want = len(vertices) * (len(vertices) - 1) // 2
    require(len(rows) == want, f"{len(rows)} wall-metric rows for {want} pairs")
    seen = set()
    for x, y, de, dw, b, status in rows:
        pair = frozenset((x, y))
        require(len(pair) == 2 and pair not in seen, f"pair {x},{y} repeated")
        seen.add(pair)
        require(de == d_edge(x, y), f"pair {x},{y}: d_edge {de}, benchmark "
                f"distance {d_edge(x, y)}")
        require(b == de // BOUND_DIVISOR, f"pair {x},{y}: bound {b} for d_edge {de}")
        if dw >= b:
            require(status == "pass", f"pair {x},{y}: status {status} with "
                    f"d_wall {dw} >= bound {b}")
        else:
            require(status in ("violation", "indeterminate"),
                    f"pair {x},{y}: status {status} with d_wall {dw} < bound {b}")
        if d_wall is not None:
            expect = d_wall(x, y)
            require(expect is None or dw == expect,
                    f"pair {x},{y}: d_wall {dw}, benchmark counts {expect}")


def check_ball_metric(cx: Complex, rows, sides) -> None:
    """Wall metric of a sampled ball against the benchmark's BFS distances and
    its own count of walls whose complements separate the pair."""
    dist = {v: bfs(cx.adj, v) for v in cx.vertices}
    check_metric_rows(rows, cx.vertices, lambda x, y: dist[x][y],
                      lambda x, y: sum(s[x] != s[y] for s in sides))


def z2_cell_supported(v, radius: int) -> bool:
    """Some unit square with v as a corner lies in the |x|+|y| <= r diamond."""
    x, y = v
    for dx in (-1, 0):
        for dy in (-1, 0):
            corners = [(x + dx + a, y + dy + b) for a in (0, 1) for b in (0, 1)]
            if all(abs(cx) + abs(cy) <= radius for cx, cy in corners):
                return True
    return False


def check_z2_metric(rows, radius: int) -> None:
    """On the Z² diamond, d_edge = |dx|+|dy| for every pair, d_wall equals it
    for every pair of cell-supported vertices, and every row passes."""
    verts = [(x, y) for x in range(-radius, radius + 1)
             for y in range(-radius, radius + 1) if abs(x) + abs(y) <= radius]

    def l1(u, v):
        return abs(u[0] - v[0]) + abs(u[1] - v[1])

    supported = {v for v in verts if z2_cell_supported(v, radius)}

    def wall(u, v):
        return l1(u, v) if u in supported and v in supported else None

    check_metric_rows(rows, verts, l1, wall)
    require(all(r[5] == "pass" for r in rows), "a Z² wall-metric row does not pass")


# -- Z² geodesic windows ---------------------------------------------------


def z2_far_pairs(radius: int, min_length: int) -> list:
    verts = sorted((x, y) for x in range(-radius, radius + 1)
                   for y in range(-radius, radius + 1) if abs(x) + abs(y) <= radius)
    return [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]
            if abs(u[0] - v[0]) + abs(u[1] - v[1]) >= min_length]


def z2_monotone_path(u, v, radius: int, rng) -> list:
    """A random shortest lattice path from u to v inside the diamond, as
    z2_ball edge ids ("h", x, y) for (x,y)-(x+1,y) and ("v", x, y) for
    (x,y)-(x,y+1). Some monotone step always stays inside, since the
    diamond is convex and contains v."""
    x, y = u
    path = []
    while (x, y) != tuple(v):
        moves = []
        if x != v[0]:
            sx = 1 if v[0] > x else -1
            if abs(x + sx) + abs(y) <= radius:
                moves.append((sx, 0))
        if y != v[1]:
            sy = 1 if v[1] > y else -1
            if abs(x) + abs(y + sy) <= radius:
                moves.append((0, sy))
        dx, dy = moves[rng.randrange(len(moves))]
        if dx:
            path.append(("h", min(x, x + dx), y))
        else:
            path.append(("v", x, min(y, y + dy)))
        x, y = x + dx, y + dy
    return path


def check_z2_windows(path, statuses) -> None:
    """Every wall of the diamond is a lattice line, which a monotone path
    crosses at most once, so each of the len-14 windows passes."""
    require(len(statuses) == len(path) - WINDOW + 1,
            f"{len(statuses)} windows for a {len(path)}-edge geodesic")
    require(all(s == "pass" for s in statuses), f"a window fails: {statuses}")


# -- labeled complexes, the local-isoperimetry scan ------------------------


def class_faces(Y) -> tuple:
    """(edge ids, faces as (walk [(edge, dir)], label, start, orient)) read
    off a labeled complex's attributes."""
    faces = [([(st.edge, st.dir) for st in f.walk], f.label, f.start, f.orient)
             for _fid, f in sorted(Y.base.faces.items(), key=lambda kv: id_order(kv[0]))]
    return list(Y.base.edges), faces


def own_cancellation(edges, faces) -> int:
    deg = {e: 0 for e in edges}
    for walk, _lab, _s, _o in faces:
        for e, _d in walk:
            deg[e] += 1
    return sum(d - 1 for d in deg.values())


def incidences(faces) -> dict:
    """edge -> [(label, relator position, sign)] by the reading convention."""
    out: dict = {}
    for walk, lab, s, o in faces:
        for j, (e, d) in enumerate(walk):
            out.setdefault(e, []).append((lab, (o * (j - s)) % 4, d * o))
    return out


def locally_injective(inc: dict) -> bool:
    return all(len({(lab, k) for lab, k, _s in lst}) == len(lst)
               for lst in inc.values())


def consistent_letters(inc: dict, words: dict):
    """edge -> letter when every incidence of each edge agrees, else None."""
    letters = {}
    for e, lst in inc.items():
        got = {words[lab][k] * s for lab, k, s in lst}
        if len(got) != 1:
            return None
        letters[e] = got.pop()
    return letters


def check_violation(line: dict, relators, d: float, eps: float) -> None:
    """A reported violation uses words of R, gives every edge one letter
    re-derived from the faces' start and orientation, is locally injective,
    and its cancellation exceeds 4(d+eps)F."""
    cx = Complex(line["complex"])
    faces = [(f["walk"], f["label"], f["start"], f["orient"]) for f in cx.faces.values()]
    words = {int(k): tuple(parse_letter(t) for t in w)
             for k, w in line["assignment"].items()}
    rset = {tuple(r) for r in relators}
    require({lab for _w, lab, _s, _o in faces} == set(words),
            "violation assignment labels differ from the face labels")
    require(all(w in rset for w in words.values()), "violation uses a word not in R")
    inc = incidences(faces)
    require(locally_injective(inc), "violation complex is not locally injective")
    require(consistent_letters(inc, words) is not None,
            "violation gives some edge two letters")
    cancel = own_cancellation(cx.edges, faces)
    size = len(faces)
    require(cancel == line["cancel"] and size == line["size"],
            f"violation reports cancel {line['cancel']} / size {line['size']}, "
            f"benchmark counts {cancel} / {size}")
    require(cancel > 4 * (d + eps) * size, f"violation cancel {cancel} is not "
            f"above 4(d+eps)F = {4 * (d + eps) * size}")


def compile_classes(classes):
    """(index, labels, cancellation, faces, incidences) per labeled complex."""
    for i, Y in enumerate(classes):
        edges, faces = class_faces(Y)
        yield (i, len({f[1] for f in faces}), own_cancellation(edges, faces),
               len(faces), incidences(faces))


def brute_force_violations(compiled, relators, d: float, eps: float) -> set:
    """Indices of the classes whose cancellation exceeds 4(d+eps)F and that
    some label -> relator tuple labels consistently and locally injectively.
    compiled: [(index, n_labels, cancel, size, incidences)]."""
    out = set()
    rel = [tuple(r) for r in relators]
    for idx, n_labels, cancel, size, inc in compiled:
        if cancel <= 4 * (d + eps) * size or not locally_injective(inc):
            continue
        for choice in product(rel, repeat=n_labels):
            words = dict(zip(range(1, n_labels + 1), choice))
            if consistent_letters(inc, words) is not None:
                out.add(idx)
                break
    return out


def check_overlaps(relators, report: dict) -> None:
    """Every reported overlap glues letters that agree: u[k] == sign * v[l]."""
    for key in ("three_shares", "same_relator_three_shares", "strong_pairs",
                "same_relator_strong_pairs"):
        for item in report[key]:
            u, v = relators[item["i"]], relators[item["j"]]
            for k, l, s in item["gluings"]:
                require(u[k] == s * v[l], f"{key}: gluing {k},{l},{s} of "
                        f"{u} and {v} does not match letters")
    require(report["cross_witness_count"] == len(report["three_shares"])
            + len(report["third_face_witnesses"]), "cross_witness_count")


# -- fulfill probabilities -------------------------------------------------


def wilson(successes: int, trials: int, z: float) -> tuple:
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, min(centre - half, p)), min(1.0, max(centre + half, p))


def check_monte_carlo(report: dict, trials: int, exact: float, z_wide: float) -> None:
    """The estimate is a whole number of hits, the reported interval is the
    95% Wilson interval of that count, and the exact probability lies in the
    benchmark's own Wilson interval at z_wide (a 95% interval misses the
    exact value in one run of twenty by design, so it cannot be a check)."""
    hits = round(report["estimate"] * trials)
    require(abs(hits / trials - report["estimate"]) < 1e-12 and report["trials"] == trials,
            "Monte Carlo estimate is not a hit count over the trials")
    lo, hi = wilson(hits, trials, 1.96)
    require(abs(lo - report["ci_low"]) < 1e-12 and abs(hi - report["ci_high"]) < 1e-12,
            "Monte Carlo interval is not the 95% Wilson interval of its hits")
    wlo, whi = wilson(hits, trials, z_wide)
    require(wlo <= exact <= whi, f"exact probability {exact} outside the "
            f"z={z_wide} Wilson interval [{wlo}, {whi}] of {hits}/{trials}")


def set_fulfill_probability(faces, rank: int, r: int) -> float:
    """Probability that a uniform r-subset of the cyclically reduced length-4
    pool admits a consistent label -> word tuple: hypergeometric for one
    label, subset enumeration for two."""
    pool = cyclically_reduced_words(rank)
    inc = incidences(faces)
    n_labels = len({lab for _w, lab, _s, _o in faces})
    if not locally_injective(inc):
        return 0.0
    if n_labels == 1:
        good = sum(consistent_letters(inc, {1: w}) is not None for w in pool)
        return 1.0 - math.comb(len(pool) - good, r) / math.comb(len(pool), r)
    require(n_labels == 2, "only one- and two-label shapes are recomputed")
    feasible = [set() for _ in pool]
    for a, wa in enumerate(pool):
        for b, wb in enumerate(pool):
            if consistent_letters(inc, {1: wa, 2: wb}) is not None:
                feasible[a].add(b)
    hits = total = 0
    for subset in combinations(range(len(pool)), r):
        total += 1
        members = set(subset)
        if any(feasible[a] & members for a in subset):
            hits += 1
    return hits / total
