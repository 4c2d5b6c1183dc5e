"""Hand-built example complexes used by the tests and the CLI registry.

Small shapes (single square, shared-edge pairs) pin down the boundary/
cancellation arithmetic; the larger ones (staircase, comparison patch, house,
annulus, Z^2 ball) are the geometric configurations the wall machinery is
exercised on. Names are chosen so a fixture can be read off a drawing: grid
edges are ("h", x, y) / ("v", x, y), staircase square i uses ("ab", i) etc.
Complexes are built from names; what a fixture returns beside its complex
(paths, edge sets) is named too, and only diagram boundaries are in ids.
"""

from __future__ import annotations

import inspect

from .complexes import Diagram, Face, SquareComplex, Step


def _diagram(cx: SquareComplex, walk) -> Diagram:
    """The diagram of cx bounded by a walk of steps along named edges."""
    return Diagram(cx, tuple(Step(cx.ids.edges[st.edge], st.dir) for st in walk))


def single_square() -> Diagram:
    """One square, 4 distinct edges, boundary = the attaching walk."""
    edges = {"ab": ("a", "b"), "bc": ("b", "c"), "cd": ("c", "d"), "da": ("d", "a")}
    walk = (Step("ab", 1), Step("bc", 1), Step("cd", 1), Step("da", 1))
    cx = SquareComplex.named("abcd", edges, {"f": Face(walk, label=1)})
    return _diagram(cx, walk)


def edge_sharing_pair() -> SquareComplex:
    """Two squares sharing exactly one edge (the 2x1 strip)."""
    return grid(2, 1).complex


def _split_square() -> tuple[dict, dict]:
    """Named edges and faces of the square a-b-c-d split along the b-m-d
    path into faces A (label 1) and B (label 2), which share bm and md."""
    edges = {
        "ab": ("a", "b"), "bc": ("b", "c"), "cd": ("c", "d"), "da": ("d", "a"),
        "bm": ("b", "m"), "md": ("m", "d"),
    }
    faces = {
        "A": Face((Step("ab", 1), Step("bm", 1), Step("md", 1), Step("da", 1)), label=1),
        "B": Face((Step("bc", 1), Step("cd", 1), Step("md", -1), Step("bm", -1)), label=2),
    }
    return edges, faces


def strongly_adjacent_pair() -> SquareComplex:
    """Square a-b-c-d split along the b-m-d path into two faces A, B.

    A and B share the edges bm and md; m is the single internal vertex.
    """
    edges, faces = _split_square()
    return SquareComplex.named("abcdm", edges, faces)


def strongly_adjacent_diagram() -> Diagram:
    cx = strongly_adjacent_pair()
    walk = (Step("ab", 1), Step("bc", 1), Step("cd", 1), Step("da", 1))
    return _diagram(cx, walk)


def three_sharing_pair() -> SquareComplex:
    """Two faces sharing a path of three edges (Cancel = 3)."""
    edges = {
        "e1": ("v0", "v1"), "e2": ("v1", "v2"), "e3": ("v2", "v3"),
        "f4": ("v3", "v0"), "g4": ("v3", "v0"),
    }
    faces = {
        "F": Face((Step("e1", 1), Step("e2", 1), Step("e3", 1), Step("f4", 1)), label=1),
        "G": Face((Step("e1", 1), Step("e2", 1), Step("e3", 1), Step("g4", 1)), label=2),
    }
    return SquareComplex.named(["v0", "v1", "v2", "v3"], edges, faces)


def three_sharing_diagram() -> Diagram:
    cx = three_sharing_pair()
    return _diagram(cx, (Step("f4", 1), Step("g4", -1)))


def _lattice_parts(points) -> tuple[list, dict, dict]:
    """Named vertices, edges and faces of the unit square lattice on the
    given integer points: edge ("h", x, y) or ("v", x, y) joins (x, y) to
    the point one step east or north when both are points, and face
    ("f", x, y), reading h v h^-1 v^-1 (label 1), fills every unit square
    whose four corners are points."""
    points = list(points)
    have = set(points)
    edges, faces = {}, {}
    for x, y in points:
        if (x + 1, y) in have:
            edges[("h", x, y)] = ((x, y), (x + 1, y))
        if (x, y + 1) in have:
            edges[("v", x, y)] = ((x, y), (x, y + 1))
        if (x + 1, y) in have and (x, y + 1) in have and (x + 1, y + 1) in have:
            walk = (Step(("h", x, y), 1), Step(("v", x + 1, y), 1),
                    Step(("h", x, y + 1), -1), Step(("v", x, y), -1))
            faces[("f", x, y)] = Face(walk, label=1)
    return points, edges, faces


def grid(w: int, h: int) -> Diagram:
    """w x h square grid with the counterclockwise perimeter as boundary."""
    if w < 1 or h < 1:
        raise ValueError("grid needs w, h >= 1")
    cx = SquareComplex.named(*_lattice_parts(
        (x, y) for x in range(w + 1) for y in range(h + 1)))
    boundary = (
        [Step(("h", x, 0), 1) for x in range(w)]
        + [Step(("v", w, y), 1) for y in range(h)]
        + [Step(("h", x, h), -1) for x in range(w - 1, -1, -1)]
        + [Step(("v", 0, y), -1) for y in range(h - 1, -1, -1)]
    )
    return _diagram(cx, boundary)


def annulus(k: int) -> SquareComplex:
    """Ring of k squares: inner rim, outer rim, k spokes.

    Face j runs inner edge j, spoke j+1, outer edge j backwards, spoke j
    backwards, so the spoke-dual hypergraph closes into a k-cycle.
    """
    if k < 3:
        raise ValueError("annulus needs k >= 3")
    vertices = [("i", j) for j in range(k)] + [("o", j) for j in range(k)]
    edges = {}
    for j in range(k):
        edges[("in", j)] = (("i", j), ("i", (j + 1) % k))
        edges[("out", j)] = (("o", j), ("o", (j + 1) % k))
        edges[("s", j)] = (("i", j), ("o", j))
    faces = {}
    for j in range(k):
        walk = (Step(("in", j), 1), Step(("s", (j + 1) % k), 1),
                Step(("out", j), -1), Step(("s", j), -1))
        faces[("q", j)] = Face(walk, label=1)
    return SquareComplex.named(vertices, edges, faces)


def double_crossing() -> SquareComplex:
    """Two faces glued so one standard hypergraph passes face F twice.

    F's walk order (e1, e3, e2, e4) makes its opposite pairs (e1,e2) and
    (e3,e4); G contributes (e2,e3), so the component e1-e2-e3-e4 is an
    embedded path that carries F at both ends: a repeated-face witness
    without any cycle.
    """
    edges = {
        "e1": ("p0", "p1"), "e3": ("p1", "p2"), "e2": ("p2", "p3"),
        "e4": ("p3", "p0"), "g1": ("p3", "p1"), "g2": ("p2", "p2"),
    }
    faces = {
        "F": Face((Step("e1", 1), Step("e3", 1), Step("e2", 1), Step("e4", 1)), label=1),
        "G": Face((Step("e2", 1), Step("g1", 1), Step("e3", 1), Step("g2", 1)), label=2),
    }
    return SquareComplex.named(["p0", "p1", "p2", "p3"], edges, faces)


def staircase(n: int):
    """Chain of n corner-connected split squares (the wall-dodging shape).

    Square i has corners k_i, b_i, k_{i+1}, d_i and center m_i; it is split
    along b_i-m_i-d_i into faces ("A", i) (label 1) and ("B", i) (label 2),
    a strongly adjacent pair. Consecutive squares meet only at the corner
    vertex k_{i+1}.

    Returns (complex, gamma, x, y): gamma is the bottom-right boundary path
    k_0 -> b_0 -> k_1 -> ... -> k_n of length 2n, a geodesic between x = k_0
    and y = k_n.
    """
    if n < 1:
        raise ValueError("staircase needs n >= 1")
    vertices = [("k", i) for i in range(n + 1)]
    edges = {}
    faces = {}
    gamma = []
    for i in range(n):
        vertices += [("b", i), ("d", i), ("m", i)]
        edges[("ab", i)] = (("k", i), ("b", i))
        edges[("bc", i)] = (("b", i), ("k", i + 1))
        edges[("cd", i)] = (("k", i + 1), ("d", i))
        edges[("da", i)] = (("d", i), ("k", i))
        edges[("bm", i)] = (("b", i), ("m", i))
        edges[("md", i)] = (("m", i), ("d", i))
        faces[("A", i)] = Face((Step(("ab", i), 1), Step(("bm", i), 1),
                                Step(("md", i), 1), Step(("da", i), 1)), label=1)
        faces[("B", i)] = Face((Step(("bc", i), 1), Step(("cd", i), 1),
                                Step(("md", i), -1), Step(("bm", i), -1)), label=2)
        gamma += [Step(("ab", i), 1), Step(("bc", i), 1)]
    cx = SquareComplex.named(vertices, edges, faces)
    return cx, tuple(gamma), ("k", 0), ("k", n)


def staircase_diagram(n: int) -> Diagram:
    cx, gamma, _x, _y = staircase(n)
    back = []
    for i in range(n - 1, -1, -1):
        back += [Step(("cd", i), 1), Step(("da", i), 1)]
    return _diagram(cx, gamma + tuple(back))


def comparison():
    """Central split square A/B flanked by regular squares L, R, T.

    This is the patch on which the standard, red and blue hypergraphs
    entering through L's outer edge take three different routes. Returns
    (complex, expected) where expected maps kind -> the frozen Gamma-edge set
    of the wall through edge "da" (triples (edge, edge, face) with the two
    edges in sorted order).
    """
    edges, faces = _split_square()
    edges.update({
        "l1a": ("l1", "a"), "dl2": ("d", "l2"), "l2l1": ("l2", "l1"),
        "br1": ("b", "r1"), "r1r2": ("r1", "r2"), "r2c": ("r2", "c"),
        "ct1": ("c", "t1"), "t1t2": ("t1", "t2"), "t2d": ("t2", "d"),
    })
    faces.update({
        "L": Face((Step("l1a", 1), Step("da", -1), Step("dl2", 1), Step("l2l1", 1)), label=3),
        "R": Face((Step("br1", 1), Step("r1r2", 1), Step("r2c", 1), Step("bc", -1)), label=4),
        "T": Face((Step("ct1", 1), Step("t1t2", 1), Step("t2d", 1), Step("cd", -1)), label=5),
    })
    vertices = ["a", "b", "c", "d", "m", "l1", "l2", "r1", "r2", "t1", "t2"]
    cx = SquareComplex.named(vertices, edges, faces)
    expected = {
        "standard": frozenset({("da", "l2l1", "L"), ("bm", "da", "A"),
                               ("bm", "cd", "B"), ("cd", "t1t2", "T")}),
        "red": frozenset({("da", "l2l1", "L"), ("da", "md", "A"),
                          ("bc", "md", "B"), ("bc", "r1r2", "R")}),
        "blue": frozenset({("da", "l2l1", "L"), ("bm", "da", "A"),
                           ("bc", "bm", "B"), ("bc", "r1r2", "R")}),
    }
    return cx, expected


def house():
    """Two base squares sharing a vertical edge, plus a roof square over the
    top two edges.

    Returns (complex, gamma, wall_edges): gamma = a -> w -> c is the length-2
    geodesic over the roof apex, and wall_edges = {af, eb, dc} is the dual
    edge set of the hypergraph whose carrier gamma breaks away from.
    """
    edges = {
        "fe": ("f", "e"), "eb": ("e", "b"), "ba": ("b", "a"), "af": ("a", "f"),
        "ed": ("e", "d"), "dc": ("d", "c"), "cb": ("c", "b"),
        "aw": ("a", "w"), "wc": ("w", "c"),
    }
    faces = {
        "S1": Face((Step("fe", 1), Step("eb", 1), Step("ba", 1), Step("af", 1)), label=1),
        "S2": Face((Step("ed", 1), Step("dc", 1), Step("cb", 1), Step("eb", -1)), label=2),
        "roof": Face((Step("aw", 1), Step("wc", 1), Step("cb", 1), Step("ba", 1)), label=3),
    }
    cx = SquareComplex.named("abcdefw", edges, faces)
    gamma = (Step("aw", 1), Step("wc", 1))
    return cx, gamma, frozenset({"af", "eb", "dc"})


def house_diagram() -> Diagram:
    cx, _gamma, _wall = house()
    boundary = (Step("fe", 1), Step("ed", 1), Step("dc", 1), Step("wc", -1),
                Step("aw", -1), Step("af", 1))
    return _diagram(cx, boundary)


def three_roof():
    """3x1 grid with a 3-edge roof path over the top, which no face
    carries.

    Returns (complex, gamma): gamma = (0,1) -> w1 -> w2 -> (3,1), a geodesic
    (the top row also has length 3).
    """
    vertices, edges, faces = _lattice_parts((x, y) for x in range(4) for y in range(2))
    edges["roof0"] = ((0, 1), "w1")
    edges["roof1"] = ("w1", "w2")
    edges["roof2"] = ("w2", (3, 1))
    out = SquareComplex.named(vertices + ["w1", "w2"], edges, faces)
    gamma = (Step("roof0", 1), Step("roof1", 1), Step("roof2", 1))
    return out, gamma


def z2_ball(r: int) -> SquareComplex:
    """Radius-r ball of the unit square grid: vertices with |x|+|y| <= r,
    all edges between them, all faces with every corner inside.

    Faces read the commutator a1 a2 a1^-1 a2^-1 (label 1): horizontal edges
    carry a1 eastwards, vertical edges a2 northwards.
    """
    if r < 1:
        raise ValueError("z2_ball needs r >= 1")
    return SquareComplex.named(*_lattice_parts(
        (x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)
        if abs(x) + abs(y) <= r))


def special_pairs() -> SquareComplex:
    """Strongly adjacent pair A/B plus a third face C carrying two edges of
    the pair's union boundary (the forbidden three-cell pattern)."""
    edges, faces = _split_square()
    edges["cq"] = ("c", "q")
    edges["qa"] = ("q", "a")
    faces["C"] = Face((Step("ab", 1), Step("bc", 1), Step("cq", 1), Step("qa", 1)),
                      label=3)
    return SquareComplex.named("abcdmq", edges, faces)


def horn_overlap():
    """Two strongly adjacent pairs A/B and C/E whose members B and E share
    the edge cd: a small complex with two overlapping pairs for the generic
    measurement and serialization tests. Returns (ambient complex, the disc
    diagram of A and C).
    """
    edges, faces = _split_square()
    edges.update({"ae": ("a", "e"), "em2": ("e", "m2"), "m2d": ("m2", "d"),
                  "ec": ("e", "c")})
    faces.update({
        "C": Face((Step("ae", 1), Step("em2", 1), Step("m2d", 1), Step("da", 1)), label=3),
        "E": Face((Step("ec", 1), Step("cd", 1), Step("m2d", -1), Step("em2", -1)), label=4),
    })
    ambient = SquareComplex.named(["a", "b", "c", "d", "e", "m", "m2"], edges, faces)
    base_faces = {"A": faces["A"], "C": faces["C"]}
    base_edges = {e: edges[e] for e in
                  ["ab", "bm", "md", "da", "ae", "em2", "m2d"]}
    base_cx = SquareComplex.named(["a", "b", "d", "e", "m", "m2"], base_edges, base_faces)
    boundary = (Step("ab", 1), Step("bm", 1), Step("md", 1), Step("m2d", -1),
                Step("em2", -1), Step("ae", -1))
    return ambient, _diagram(base_cx, boundary)


def planar_fixtures() -> list:
    """20 planar disc diagrams; for each, |boundary| must equal the
    generalized boundary length."""
    out = [
        ("single_square", single_square()),
        ("strongly_adjacent", strongly_adjacent_diagram()),
        ("three_sharing", three_sharing_diagram()),
        ("house", house_diagram()),
    ]
    for w, h in [(2, 1), (1, 2), (3, 1), (2, 2), (3, 2), (4, 1), (3, 3),
                 (4, 2), (5, 1), (4, 3), (5, 2), (6, 1)]:
        out.append((f"grid_{w}x{h}", grid(w, h)))
    for n in [1, 2, 3, 4]:
        out.append((f"staircase_{n}", staircase_diagram(n)))
    return out


REGISTRY = {
    "z2": lambda radius=5: z2_ball(radius),
    "staircase": lambda length=8: staircase(length)[0],
    "comparison": lambda: comparison()[0],
    "annulus": lambda k=4: annulus(k),
    "house": lambda: house()[0],
    "special-pairs": special_pairs,
}


def make_fixture(name: str, **kwargs) -> SquareComplex:
    """The named fixture; a parameter it does not read is a ValueError."""
    if name not in REGISTRY:
        raise KeyError(f"unknown fixture {name!r}; known: {sorted(REGISTRY)}")
    unread = set(kwargs) - set(inspect.signature(REGISTRY[name]).parameters)
    if unread:
        raise ValueError(f"fixture {name!r} does not take {', '.join(sorted(unread))}")
    return REGISTRY[name](**kwargs)
