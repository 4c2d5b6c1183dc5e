import random
from collections import Counter
from itertools import islice, product

import pytest

from squarewalls.complexes import IsoParams, build_quotient, cancellation, check_generalized_iso
from squarewalls.enumeration import (
    EnumerationCursor,
    SpecialCellsReport,
    canonical_key,
    check_special_cells,
    random_labeled_complex,
    scan_local_iso,
)
from squarewalls import enumeration, fulfill
from squarewalls.fulfill import AbstractComplex, check_assignment, fulfill_search
from squarewalls.presentation import sample_presentation


@pytest.fixture(scope="module")
def local_iso_corpus():
    """The capped 3-face corpus that the local-iso benchmark scans."""
    return list(EnumerationCursor(3, parent_cap=10, level_cap=200))


# -- one-face oracle: subsets of slot gluings, classified by explicit iso -----


def single_face_iso(A, B):
    """Brute-force reading-preserving isomorphism test for one-face complexes:
    the walk pins the edge map position by position; only edge orientation
    flips remain free."""
    if len(A.edges) != len(B.edges) or len(A.vertices) != len(B.vertices):
        return False
    fa, fb = A.faces[0], B.faces[0]
    names = sorted(A.edges)
    for flips in product((1, -1), repeat=len(names)):
        flip = dict(zip(names, flips))
        emap, vmap, ok = {}, {}, True
        for k in range(4):
            sa, sb = fa.walk[k], fb.walk[k]
            if emap.setdefault(sa.edge, sb.edge) != sb.edge:
                ok = False
                break
            if sa.dir * flip[sa.edge] != sb.dir:
                ok = False
                break
            ua, va = A.edges[sa.edge]
            ub, vb = B.edges[sb.edge]
            if flip[sa.edge] == -1:
                ub, vb = vb, ub
            if vmap.setdefault(ua, ub) != ub or vmap.setdefault(va, vb) != vb:
                ok = False
                break
        if ok and len(set(emap.values())) == len(emap) \
                and len(set(vmap.values())) == len(vmap):
            return True
    return False


def test_one_face_enumeration_matches_partition_oracle():
    candidates = [((0, i), (0, j), s)
                  for i in range(4) for j in range(i + 1, 4) for s in (1, -1)]
    reps = []
    for mask in range(1 << len(candidates)):
        idents = [candidates[b] for b in range(len(candidates)) if mask >> b & 1]
        cx = build_quotient(1, idents, labels=[1])
        if cx is None:
            continue
        if not any(single_face_iso(cx, r) for r in reps):
            reps.append(cx)
    emitted = list(EnumerationCursor(1))
    assert len(reps) == len(emitted) == 49
    # exact one-to-one matching between the two enumerations
    for Y in emitted:
        assert sum(1 for r in reps if single_face_iso(Y.base, r)) == 1
    for r in reps:
        assert sum(1 for Y in emitted if single_face_iso(Y.base, r)) == 1


def test_cursor_rejects_bad_sizes():
    with pytest.raises(ValueError):
        EnumerationCursor(0)
    with pytest.raises(ValueError):
        EnumerationCursor(6)
    for caps in ({"parent_cap": -1}, {"level_cap": -1},
                 {"parent_cap": -74576, "level_cap": -1}):
        with pytest.raises(ValueError):
            EnumerationCursor(3, **caps)


# -- canonical key invariance ---------------------------------------------------


def permuted_spec(n, idents, labels, rng):
    perm = list(range(n))
    rng.shuffle(perm)

    def mp(slot):
        f, j = slot
        return (perm[f], j)

    new_idents = [((mp(a), mp(b), s) if rng.random() < 0.5
                   else (mp(b), mp(a), s)) for a, b, s in idents]
    rng.shuffle(new_idents)
    new_labels = [None] * n
    for old, new in enumerate(perm):
        new_labels[new] = labels[old]
    vals = sorted(set(new_labels))
    shuffled = vals[:]
    rng.shuffle(shuffled)
    rename = dict(zip(vals, shuffled))
    return new_idents, [rename[lab] for lab in new_labels]


def test_canonical_key_invariant_under_representation():
    rng = random.Random(3)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        slots = [(f, j) for f in range(n) for j in range(4)]
        idents = [(a, b, rng.choice((1, -1)))
                  for a, b in (rng.sample(slots, 2) for _ in range(rng.randint(1, 2 * n)))]
        labels = [rng.randint(1, 2) for _ in range(n)]
        key = canonical_key(n, idents, labels)
        if key is None or build_quotient(n, idents, labels=labels) is None:
            continue
        checked += 1
        for _ in range(4):
            pi, pl = permuted_spec(n, idents, labels, rng)
            assert canonical_key(n, pi, pl) == key
    assert checked > 60


def test_canonical_key_merges_equivalent_pair_presentations():
    a = canonical_key(2, [((0, 1), (1, 3), -1), ((0, 2), (1, 2), -1)], [1, 2])
    b = canonical_key(2, [((0, 3), (1, 1), -1), ((0, 2), (1, 2), -1)], [2, 1])
    assert a == b is not None
    # a genuinely different gluing has a different class
    c = canonical_key(2, [((0, 1), (1, 3), 1), ((0, 2), (1, 2), -1)], [1, 2])
    assert c != a


def test_canonical_key_none_on_fold():
    assert canonical_key(1, [((0, 0), (0, 0), -1)], [1]) is None


# -- two-face enumeration -------------------------------------------------------


def test_two_face_class_counts(corpus2):
    counts = Counter((len(Y.base.faces), Y.n_labels) for Y in corpus2.classes)
    assert counts == {(1, 1): 49, (2, 1): 37264, (2, 2): 37264}
    assert len(corpus2.classes) == 74577


def test_capped_corpus_begins_with_the_complete_levels(corpus2, local_iso_corpus):
    # growth only appends: the capped corpus repeats the K <= 2 enumeration
    # class for class, then holds level_cap 3-face classes
    n = len(corpus2.classes)
    for Y, Z in zip(local_iso_corpus[:n], corpus2.classes):
        assert Y.n_labels == Z.n_labels
        assert Y.base.edges == Z.base.edges
        assert Y.base.faces == Z.base.faces
    assert [len(Y.base.faces) for Y in local_iso_corpus[n:]] == [3] * 200


def test_cancellation_closed_form_on_local_iso_corpus(local_iso_corpus):
    assert len(local_iso_corpus) == 49 + 74528 + 200
    for Y in local_iso_corpus:
        assert cancellation(Y.base) == sum(d - 1 for d in Y.base.degrees().values())


def test_parents_are_the_head_of_the_sorted_pool(monkeypatch):
    """Growth takes as parents the first parent_cap classes of the level
    below sorted by (-cancellation, idents, labels), and is truncated exactly
    when that level holds more. The 2-face level is cut to 400 real specs
    (cancellation 6 and 7, each gluing with two labelings) and growth
    records its parents instead of attaching faces."""
    specs = {1: list(enumeration._complete_specs(1)),
             2: list(islice(enumeration._complete_specs(2), 400))}
    pool = [(idents, labels, cancellation(build_quotient(2, idents, list(labels))))
            for _key, idents, labels, _table in specs[2]]
    ordered = [(idents, labels) for idents, labels, _c
               in sorted(pool, key=lambda t: (-t[2], t[0], t[1]))]
    assert len({c for *_, c in pool}) > 1
    assert len({idents for idents, _l, _c in pool}) < len(pool)
    grown = []

    def record(n, idents, labels, seen, work):
        grown.append((idents, labels))
        return []

    monkeypatch.setattr(enumeration, "_complete_specs", lambda n, work: specs[n])
    monkeypatch.setattr(enumeration, "_attachments", record)
    for cap in (0, 1, len(pool), len(pool) + 1):
        grown.clear()
        cursor = EnumerationCursor(3, parent_cap=cap)
        assert sum(1 for _ in cursor) == 49 + len(pool)
        assert grown == ordered[:cap]
        assert cursor.truncated == (len(pool) > cap)


def test_multiplicities_sum_to_size(corpus2):
    for Y in corpus2.classes[::500]:
        mult = Counter(f.label for f in Y.base.faces.values())
        assert sum(mult.values()) == len(Y.base.faces)


def test_growth_smoke():
    cursor = EnumerationCursor(3, parent_cap=6, level_cap=80)
    classes = list(cursor)
    three = [Y for Y in classes if len(Y.base.faces) == 3]
    assert 0 < len(three) <= 80
    assert cursor.truncated  # tiny caps must trim and say so
    assert max(cancellation(Y.base) for Y in three) >= 4
    for Y in three[:20]:
        assert all(1 <= f.label <= Y.n_labels for f in Y.base.faces.values())


def test_complete_levels_not_truncated():
    cursor = EnumerationCursor(1)
    list(cursor)
    assert not cursor.truncated


def test_second_pass_repeats_the_first():
    # every pass starts afresh: the same classes, work counters and
    # truncation flag
    cursor = EnumerationCursor(3, parent_cap=2, level_cap=50)
    first = [Y.to_json() for Y in cursor]
    work, truncated = dict(cursor.work), cursor.truncated
    second = [Y.to_json() for Y in cursor]
    assert len(first) == 49 + 74528 + 50
    assert second == first
    assert cursor.work == work
    assert cursor.truncated == truncated
    assert truncated


def test_work_counters_are_deterministic():
    a, b = (EnumerationCursor(3, parent_cap=1, level_cap=20) for _ in range(2))
    yielded = sum(1 for _ in a)
    list(b)
    assert a.work == b.work
    assert a.work["classes"] == yielded == 49 + 74528 + 20
    # every key is new or a repeat; the growth level found more new keys
    # than its cap kept
    assert a.work["folded"] == a.work["disconnected"] == 0
    assert a.work["keys"] - a.work["repeats"] > yielded


def test_random_labeled_complex_deterministic():
    a = random_labeled_complex(17)
    b = random_labeled_complex(17)
    assert (a is None) == (b is None)
    if a is not None:
        assert a.to_json() == b.to_json()
    built = [random_labeled_complex(s) for s in range(60)]
    assert sum(1 for Y in built if Y is not None) > 20


# -- local generalized-isoperimetry scan -----------------------------------------


def test_scan_reports_three_share_pair(corpus2):
    R = [(1, 2, 3, 1), (1, 2, 3, 2)]
    p = IsoParams(d=0.3, eps=0.07)
    violations = scan_local_iso(R, 2, p, classes=corpus2.classes)
    assert violations
    for v in violations:
        assert check_assignment(v.complex, v.assignment)
        assert check_generalized_iso(v.complex.base, p).violation
        assert fulfill_search(v.complex, R) is not None
        assert v.cancel > v.threshold
    # the two-relator three-edge overlap shape is among them
    assert any(v.size == 2 and v.cancel == 3
               and set(v.assignment.words.values()) == set(R)
               for v in violations)
    line = violations[0].to_json_line()
    assert '"cancel"' in line and '"assignment"' in line


def test_scan_commutator_low_density_not_empty(corpus2):
    # the relator's own doubled-edge quotient has cancellation 2 on one face
    # and is fulfillable, so at d=0.05 the scan genuinely finds violations
    R = [(1, 2, -1, -2)]
    violations = scan_local_iso(R, 2, IsoParams(d=0.05, eps=0.01), classes=corpus2.classes)
    assert violations
    assert any(v.size == 1 and v.cancel == 2 for v in violations)


def test_scan_commutator_higher_density(corpus2):
    R = [(1, 2, -1, -2)]
    p = IsoParams(d=0.3, eps=0.01)
    violations = scan_local_iso(R, 2, p, classes=corpus2.classes)
    for v in violations:
        assert v.cancel > 4 * (p.d + p.eps) * v.size
    assert any(v.size == 1 and v.cancel == 2 for v in violations)


def test_scan_distinct_letter_relator(corpus2):
    # an all-distinct-letter relator admits no self-gluing, so no one-face
    # complex is fulfillable; on two faces only identity overlays survive
    # (both faces read the word in the same direction at equal positions)
    R = [(1, 2, 3, 4)]
    p = IsoParams(d=0.3, eps=0.01)
    assert scan_local_iso(R, 1, p) == []
    violations = scan_local_iso(R, 2, p, classes=corpus2.classes)
    assert violations
    for v in violations:
        assert v.size == 2
        assert all(w == R[0] for w in v.assignment.words.values())
        for inc in v.complex.slot_incidences().values():
            positions = {(k, s) for _f, _j, k, s, _lab in inc}
            assert len(positions) == 1  # equal position, equal direction


def test_second_scan_builds_no_constraint_table(corpus2, monkeypatch):
    # fresh wrappers of the shared corpus, so no table is built yet
    classes = [AbstractComplex(Y.base, Y.n_labels) for Y in corpus2.classes]
    built = []
    compile_table = fulfill._constraint_table

    def counting(Y):
        built.append(Y)
        return compile_table(Y)

    monkeypatch.setattr(fulfill, "_constraint_table", counting)
    R = [(1, 2, -1, -2)]
    p = IsoParams(d=0.05, eps=0.01)
    first = scan_local_iso(R, 2, p, classes=classes)
    hot = sum(Y.cancel > 4 * (p.d + p.eps) * len(Y.base.faces) for Y in classes)
    assert first and len(built) == hot
    del built[:]
    assert scan_local_iso(R, 2, p, classes=classes) == first
    assert scan_local_iso([(1, 2, 3, 1), (1, 2, 3, 2)], 2, p, classes=classes)
    assert built == []


# -- special cells -----------------------------------------------------------------


def test_special_cells_three_share_witness():
    R = [(1, 2, 3, -1), (1, 2, 3, -2)]
    rep = check_special_cells(R)
    assert rep.three_shares
    w = next(w for w in rep.three_shares
             if ((0, 0, 1), (1, 1, 1), (2, 2, 1)) == w.gluings)
    assert (w.i, w.j) == (0, 1)
    assert rep.cross_witness_count >= 1
    assert not rep.same_relator_three_shares


def test_special_cells_commutator_self_overlaps():
    rep = check_special_cells([(1, 2, -1, -2)])
    # every finding is in a same-relator category: the cross lists stay empty
    assert rep.three_shares == ()
    assert rep.strong_pairs == ()
    assert rep.third_face_witnesses == ()
    assert rep.cross_witness_count == 0
    assert rep.same_relator_strong_pairs  # translate overlaps, flagged apart
    # the letter pattern even admits a three-edge translate overlay; the
    # pattern search reports it here, not as a cross-relator witness
    assert rep.same_relator_three_shares
    for w in (rep.same_relator_strong_pairs + rep.same_relator_three_shares):
        assert w.i == w.j == 0
        assert w.same_relator
        assert all(k != l for k, l, _s in w.gluings)


def test_special_cells_rank_four_single_relator_clean():
    rep = check_special_cells([(1, 2, 3, 4)])
    assert rep == SpecialCellsReport((), (), (), (), (), ())
    assert rep.cross_witness_count == 0


def test_special_cells_json_dict():
    rep = check_special_cells([(1, 2, 3, -1), (1, 2, 3, -2)])
    d = rep.to_json_dict()
    assert d["cross_witness_count"] == rep.cross_witness_count
    assert d["three_shares"]


def test_special_cells_on_sampled_presentation():
    pres = sample_presentation(5, 0.2, 0)
    rep = check_special_cells(list(pres.relators))
    assert rep.cross_witness_count >= 0  # shape check: runs end to end
    assert isinstance(rep.to_json_dict()["cross_witness_count"], int)
