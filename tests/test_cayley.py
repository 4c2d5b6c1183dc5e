import json
import random
from collections import deque

import pytest

from squarewalls.cayley import (
    BudgetExhausted,
    CayleyBall,
    WordProblemBudget,
    WordsEqualResult,
    build_ball,
    replay_witness,
    words_equal,
)
from squarewalls.cayley import _exponent_sums, _in_row_lattice, _relator_variants
from squarewalls.complexes import SquareComplex
from squarewalls.fixtures import make_fixture
from squarewalls.presentation import (
    Presentation,
    alphabet,
    free_reduce,
    inverse_word,
    letter_key,
    sample_presentation,
)

TORUS = Presentation(rank=2, density=0.25, seed=0, relators=((1, 2, -1, -2),))


def abelianized(word, rank):
    v = [0] * rank
    for l in word:
        v[abs(l) - 1] += 1 if l > 0 else -1
    return tuple(v)


def lattice_contains(rows, target):
    """Is target in the integer row span?  Euclidean echelon, small inputs."""
    n = len(target)
    pool = [list(r) for r in rows if any(r)]
    pivots = []
    for col in range(n):
        live = [r for r in pool if r[col] != 0]
        pool = [r for r in pool if r[col] == 0]
        while live:
            live.sort(key=lambda r: abs(r[col]))
            p = live.pop(0)
            if p[col] < 0:
                p = [-x for x in p]
            nxt = []
            for r in live:
                q = r[col] // p[col]
                rr = [a - q * b for a, b in zip(r, p)]
                if rr[col] != 0:
                    nxt.append(rr)
                elif any(rr):
                    pool.append(rr)
            if not nxt:
                pivots.append((col, p))
                break
            live = nxt + [p]
    t = list(target)
    for col, p in pivots:
        if t[col] % p[col] == 0:
            q = t[col] // p[col]
            t = [a - q * b for a, b in zip(t, p)]
    return all(a == 0 for a in t)


def abelian_consistent(P, u, v):
    rows = [abelianized(r, P.rank) for r in P.relators]
    du = abelianized(u, P.rank)
    dv = abelianized(v, P.rank)
    return lattice_contains(rows, [a - b for a, b in zip(du, dv)])


def test_lattice_membership_helper():
    assert lattice_contains([[2, 0], [0, 3]], [4, -3])
    assert not lattice_contains([[2, 0], [0, 3]], [1, 0])
    assert lattice_contains([[2, 4]], [-6, -12])
    assert not lattice_contains([[2, 4]], [2, 2])
    assert lattice_contains([], [0, 0])
    assert not lattice_contains([], [1, 0])


def test_row_lattice_agrees_with_helper():
    rng = random.Random(3)
    for _ in range(400):
        n, m = rng.randint(1, 5), rng.randint(0, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        target = [rng.randint(-4, 4) for _ in range(n)]
        if rows and rng.random() < 0.5:  # a member, often a nonzero one
            target = [sum(rng.randint(-2, 2) * r[c] for r in rows)
                      for c in range(n)]
        assert _in_row_lattice(rows, target) == lattice_contains(rows, target)


def test_area_cap_values():
    b = WordProblemBudget()
    assert b.hard_cap == 10**6
    assert b.area_cap(2, 0.25) == 2
    assert b.area_cap(8, 0.25) == 5
    with pytest.raises(ValueError):
        b.area_cap(8, 0.48)


def test_commutator_words_equal():
    r = words_equal(TORUS, (1, 2), (2, 1))
    assert r.status == "equal"
    assert r.faces == 1
    assert replay_witness(TORUS, (1, 2), (2, 1), r.witness)


def test_identical_words_equal_without_faces():
    r = words_equal(TORUS, (1, 2), (1, 2))
    assert r.status == "equal" and r.faces == 0 and r.witness == ()


def test_generators_distinct():
    assert words_equal(TORUS, (1,), (2,)).status == "distinct"
    assert words_equal(TORUS, (1,), (-1,)).status == "distinct"


def test_words_must_be_reduced():
    with pytest.raises(ValueError):
        words_equal(TORUS, (1, -1), ())
    with pytest.raises(ValueError):
        words_equal(TORUS, (), (2, -2))


def test_density_budget_guard():
    fat = Presentation(rank=2, density=0.46, seed=0, relators=((1, 2, -1, -2),))
    with pytest.raises(ValueError):
        words_equal(fat, (1,), (2,))
    with pytest.raises(ValueError):
        build_ball(fat, 1)


def test_tiny_state_cap_gives_undecided():
    u, v = (1, 2, 1, 2), (2, 1, 2, 1)
    r = words_equal(TORUS, u, v, WordProblemBudget(hard_cap=10))
    assert r.status == "undecided"
    assert r.states > 10
    full = words_equal(TORUS, u, v)
    assert full.status == "equal" and full.faces == 2
    assert replay_witness(TORUS, u, v, full.witness)


def test_witness_replay_rejects_tampering():
    r = words_equal(TORUS, (1, 2), (2, 1))
    (pos, var), = r.witness
    assert not replay_witness(TORUS, (1, 2), (2, 1), ((pos, var[:2] + var[:2]),))
    assert not replay_witness(TORUS, (1, 2), (2, 1), ())
    assert not replay_witness(TORUS, (1, 2), (2, 1), ((pos + 9, var),))


def test_torus_verdicts_match_abelianization():
    # on the commutator presentation, equality is exactly abelianized equality
    rng = random.Random(5)
    letters = sorted(alphabet(2), key=letter_key)
    pairs = [((1, 2, 1), (1, 1, 2)), ((2, 2, 1), (1, 2, 2))]
    for _ in range(8):
        u = (rng.choice(letters),)
        v = [rng.choice(letters)]
        v.append(rng.choice([x for x in letters if x != -v[-1]]))
        pairs.append((u, tuple(v)))
    for u, v in pairs:
        r = words_equal(TORUS, u, v)
        same = abelianized(u, 2) == abelianized(v, 2)
        assert r.status == ("equal" if same else "distinct"), (u, v, r.status)


def test_constructed_equalities_are_proved():
    P = sample_presentation(2, 0.25, 3)
    rng = random.Random(11)
    letters = sorted(alphabet(2), key=letter_key)
    for trial in range(6):
        w = []
        for _ in range(6):
            w.append(rng.choice([x for x in letters if not w or x != -w[-1]]))
        u = tuple(w)
        var = rng.choice(P.relators)
        k = rng.randrange(4)
        var = var[k:] + var[:k]
        i = rng.randrange(len(u) + 1)
        v = free_reduce(u[:i] + var + u[i:])
        r = words_equal(P, u, v)
        assert r.status == "equal"
        assert replay_witness(P, u, v, r.witness)
        assert abelian_consistent(P, u, v)


def test_ball_radius_zero():
    b = build_ball(TORUS, 0)
    assert list(b.base.vertices) == [()]
    assert b.base.edges == {} and b.base.faces == {}
    assert b.complete == {(): False}


def test_torus_small_radii():
    b = build_ball(TORUS, 1)
    assert sorted(b.base.vertices) == [(), (-2,), (-1,), (1,), (2,)]
    assert len(b.base.edges) == 4
    assert len(b.base.faces) == 0
    for rad in range(1, 5):
        b = build_ball(TORUS, rad)
        assert len(b.base.vertices) == 2 * rad * rad + 2 * rad + 1


def test_torus_ball_matches_grid_fixture():
    b = build_ball(TORUS, 5)
    Z = make_fixture("z2", radius=5)
    assert len(b.base.vertices) == len(Z.vertices) == 61
    assert len(b.base.edges) == len(Z.edges)
    assert len(b.base.faces) == len(Z.faces)
    # interior vertices carry all four squares; that is exactly the 3-ball
    assert sum(b.complete.values()) == 25
    assert b.complete[()] and not b.complete[(1,) * 5]


def test_face_walks_read_the_relator():
    b = build_ball(TORUS, 2)
    assert len(b.base.faces) == 4
    for f in b.base.faces.values():
        relator = TORUS.relators[f.label - 1]
        word = [0] * 4
        for j, st in enumerate(f.walk):
            letter = st.edge[1] * st.dir
            word[f.position_of_slot(j)] = letter
        assert tuple(word) == relator
        # walk chains around the square
        for j, st in enumerate(f.walk):
            nxt = f.walk[(j + 1) % 4]
            assert b.base.step_head(st) == b.base.step_tail(nxt)


def test_ball_monotone_in_radius():
    small, big = build_ball(TORUS, 2), build_ball(TORUS, 3)
    assert set(small.base.vertices) <= set(big.base.vertices)
    assert set(small.base.edges) <= set(big.base.edges)
    sig = lambda X: {(f.label, tuple((st.edge, st.dir) for st in f.walk))
                     for f in X.faces.values()}
    assert sig(small.base) <= sig(big.base)


def test_sampled_presentation_small_ball():
    P5 = sample_presentation(5, 0.2, 0)
    b = build_ball(P5, 1)
    assert len(b.base.vertices) == 11
    assert len(b.base.edges) == 10
    assert len(b.base.faces) == 0


def test_sampled_ball_agrees_with_word_prover():
    # relators collapse the rank-5 sample well below the free tree; every
    # identification the table makes must hold in the abelianization, and the
    # ones provable inside the contract budget must come back "equal"
    P5 = sample_presentation(5, 0.2, 0)
    b = build_ball(P5, 2)
    assert (len(b.base.vertices), len(b.base.edges), len(b.base.faces)) == (65, 100, 28)
    gens = sorted(alphabet(5), key=letter_key)
    words = [(g, h) for g in gens for h in gens if h != -g]
    moves = {}  # (vertex, letter) -> vertex, read off the ball's edges
    for (_w, a), (src, dst) in b.base.edges.items():
        moves[(src, a)] = dst
        moves[(dst, -a)] = src
    merged = []
    for w in words:
        x = moves[(moves[((), w[0])], w[1])]
        if x != free_reduce(w):
            merged.append((w, x))
    assert len(merged) == 36
    proved = 0
    for w, x in merged:
        assert abelian_consistent(P5, w, x)
        r = words_equal(P5, w, x)
        if r.status == "equal":
            assert replay_witness(P5, w, x, r.witness)
            proved += 1
    # the other 18 identities need diagrams beyond the contract's area cap
    assert proved == 18
    rng = random.Random(7)
    verts = sorted(b.base.vertices)
    for _ in range(4):
        u, v = rng.sample(verts, 2)
        assert words_equal(P5, u, v).status != "equal"


def test_distinct_only_with_a_lattice_certificate():
    # every edge relation u·a = v of this ball holds in the group; the 7 that
    # need more faces than the area cap grants are undecided, not distinct
    P = sample_presentation(5, 0.15, 1)
    b = build_ball(P, 2)
    statuses = {}
    for (w, g), (_src, dst) in b.base.edges.items():
        u = w + (g,)
        if free_reduce(u) != dst:
            r = words_equal(P, u, dst)
            statuses[r.status] = statuses.get(r.status, 0) + 1
            if r.status == "equal":
                assert replay_witness(P, u, dst, r.witness)
    assert statuses == {"equal": 13, "undecided": 7}
    # pairs of ball vertices: distinct exactly when the abelianizations differ
    rng = random.Random(2)
    verts = sorted(b.base.vertices)
    verdicts = set()
    for _ in range(12):
        u, v = rng.sample(verts, 2)
        r = words_equal(P, u, v)
        if abelian_consistent(P, u, v):
            assert r.status in ("equal", "undecided")
        else:
            assert r.status == "distinct" and r.states == 0
        verdicts.add(r.status)
    assert "distinct" in verdicts


@pytest.mark.xfail(strict=True, reason="the r+2 margin misses coincidences "
                   "on presentations that collapse")
def test_collapsing_ball_finds_its_coincidences():
    # the group has order 4: with the margin one step wider the table closes
    # on 4 cosets, and the radius-1 ball has 3 vertices and 6 faces; at
    # margin r+2 the ball is the free 13-vertex star with no face
    b = build_ball(sample_presentation(6, 0.2, 2), 1)
    assert (len(b.base.vertices), len(b.base.faces)) == (3, 6)


def test_ball_of_a_whole_finite_group_is_complete():
    # the group has 6 elements and the radius-2 ball is all of its Cayley
    # complex; two of its faces at a vertex can share a vertex cycle and
    # differ in their edges, which must not make the vertex look incomplete
    b = build_ball(sample_presentation(3, 0.2, 0), 2)
    assert (len(b.base.vertices), len(b.base.faces)) == (6, 18)
    assert all(b.complete.values())


def test_ball_budget_exhausted():
    with pytest.raises(BudgetExhausted):
        build_ball(TORUS, 3, WordProblemBudget(hard_cap=10))


def test_ball_serialization():
    b = build_ball(TORUS, 2)
    s = b.to_json()
    assert s == build_ball(TORUS, 2).to_json()
    doc = json.loads(s)
    assert doc["radius"] == 2
    assert Presentation.from_json(json.dumps(doc["presentation"])) == TORUS
    assert len(doc["vertex_data"]) == 13
    origin, = [d for d in doc["vertex_data"] if d["representative"] == ""]
    assert origin["complete"] is True
    rebuilt = SquareComplex.from_json(s)
    assert set(rebuilt.edges) == set(b.base.edges)
    assert len(rebuilt.faces) == 4


def oracle_words_equal(P, u, v, budget=None):
    """words_equal with every child of the last layer below the area cap
    generated and stored: the full-expansion search the closing test
    replaced."""
    budget = budget or WordProblemBudget()
    u, v = tuple(u), tuple(v)
    w0 = free_reduce(u + inverse_word(v))
    if not w0:
        return WordsEqualResult("equal", faces=0)
    rows = [_exponent_sums(rel, P.rank) for rel in P.relators]
    if not _in_row_lattice(rows, _exponent_sums(w0, P.rank)):
        return WordsEqualResult("distinct")
    cap = budget.area_cap(len(u) + len(v), P.density)
    maxlen = len(w0) + 8
    variants = _relator_variants(P)
    parents: dict = {w0: None}
    queue = deque([(w0, 0)])
    states = 0
    while queue:
        w, depth = queue.popleft()
        if depth == cap:
            continue
        for i in range(len(w) + 1):
            for var in variants:
                nxt = free_reduce(w[:i] + var + w[i:])
                if len(nxt) > maxlen or nxt in parents:
                    continue
                states += 1
                if states > budget.hard_cap:
                    return WordsEqualResult("undecided", states=states)
                parents[nxt] = (w, i, var)
                if not nxt:
                    trail = []
                    x = nxt
                    while parents[x] is not None:
                        x, pos, used = parents[x]
                        trail.append((pos, used))
                    trail.reverse()
                    return WordsEqualResult("equal", faces=depth + 1,
                                            witness=tuple(trail), states=states)
                queue.append((nxt, depth + 1))
    return WordsEqualResult("undecided", states=states)


ORACLE_BALLS = [(5, 0.15, 1, 2), (5, 0.2, 0, 2), (4, 0.1, 0, 2), (2, 0.25, 3, 2),
                (3, 0.1, 0, 3), (6, 0.2, 2, 1), (4, 0.15, 7, 2)]


@pytest.mark.parametrize("rank,density,seed,radius", ORACLE_BALLS)
def test_closing_test_matches_full_expansion(rank, density, seed, radius):
    P = sample_presentation(rank, density, seed)
    b = build_ball(P, radius)
    pairs = []
    for (w, g), (_src, dst) in sorted(b.base.edges.items()):
        u = free_reduce(w + (g,))
        if u != dst:
            pairs.append((u, dst))
    rng = random.Random(seed)
    verts = sorted(b.base.vertices)
    pairs += [tuple(rng.sample(verts, 2)) for _ in range(30)]
    for u, v in pairs:
        got, want = words_equal(P, u, v), oracle_words_equal(P, u, v)
        assert (got.status, got.faces, got.witness) == \
            (want.status, want.faces, want.witness), (u, v)
        assert got.states <= want.states
