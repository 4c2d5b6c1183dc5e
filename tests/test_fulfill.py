import math
import random
from itertools import combinations, product

import pytest

from squarewalls import fixtures
from squarewalls import fulfill as fulfill_module
from squarewalls.complexes import (
    IsoParams,
    SquareComplex,
    _idkey,
    build_quotient,
    cancellation,
)
from squarewalls.enumeration import EnumerationCursor, scan_local_iso
from squarewalls.fulfill import (
    AbstractComplex,
    FulfillAssignment,
    FulfillError,
    InfeasibleError,
    SetFulfillReport,
    check_assignment,
    exact_fulfill_probability,
    exact_set_fulfill_probability,
    fulfill_probability_bound,
    fulfill_search,
    kappa,
    monte_carlo_set_fulfill,
    wilson_interval,
)
from squarewalls.presentation import (
    enumerate_cyclically_reduced,
    relator_count,
    sample_presentation,
)

W2 = enumerate_cyclically_reduced(2)


def wrap_quotient(n, idents, labels):
    cx = build_quotient(n, idents, labels=labels)
    assert cx is not None
    return AbstractComplex.wrap(cx)


# -- independent oracle: try every assignment by reading faces directly -------


def oracle_injective(Y):
    seen = {}
    for fid, f in Y.base.faces.items():
        for j, st in enumerate(f.walk):
            k = f.position_of_slot(j)
            if (f.label, k) in seen.setdefault(st.edge, set()):
                return False
            seen[st.edge].add((f.label, k))
    return True


def oracle_reads_consistently(Y, words):
    letters = {}
    for f in Y.base.faces.values():
        w = words[f.label]
        for j, st in enumerate(f.walk):
            k = f.position_of_slot(j)
            lt = w[k] if st.dir * f.orient == 1 else -w[k]
            if letters.setdefault(st.edge, lt) != lt:
                return False
    return True


def oracle_search(Y, R):
    if not oracle_injective(Y):
        return None
    order = Y.label_order()
    for combo in product(R, repeat=len(order)):
        words = dict(zip(order, combo))
        if oracle_reads_consistently(Y, words):
            return words
    return None


def oracle_tuple_count(Y, W):
    order = Y.label_order()
    return sum(1 for combo in product(W, repeat=len(order))
               if oracle_reads_consistently(Y, dict(zip(order, combo))))


# -- kappa ---------------------------------------------------------------------


def test_kappa_same_label_two_positions():
    # one edge read at positions 1 and 3 by two faces of the same label: the
    # position-1 incidence is minimal, so the position-3 face owns the overlap
    Y = wrap_quotient(2, [((0, 1), (1, 3), 1)], [1, 1])
    st = kappa(Y)
    assert st.labels == (1,)
    assert st.m == (2,)
    assert st.kappa == (1,)
    assert st.delta == {0: 0, 1: 1}
    assert st.cancel == 1


def test_kappa_two_labels():
    # equal multiplicities rank label 1 first, so the label-2 face owns it
    Y = wrap_quotient(2, [((0, 0), (1, 0), 1)], [1, 2])
    st = kappa(Y)
    assert st.labels == (1, 2)
    assert st.kappa == (0, 1)
    assert st.delta == {0: 0, 1: 1}


def test_kappa_single_face_doubled_edges():
    # the torus face meets each of its two edges twice; the second incidence
    # of each belongs to the face itself, so delta counts both
    Y = wrap_quotient(1, [((0, 0), (0, 2), -1), ((0, 1), (0, 3), -1)], [1])
    st = kappa(Y)
    assert st.kappa == (2,)
    assert st.delta == {0: 2}
    assert st.cancel == 2


def test_kappa_single_face_delta_zero_on_tree():
    single = fixtures.single_square().complex
    st = kappa(AbstractComplex.wrap(single))
    assert st.kappa == (0,)
    assert st.cancel == 0


def test_kappa_multiplicity_outranks_label():
    # label 2 has two faces, so it ranks first and label-1 incidences always
    # lose the minimum, piling both overlaps onto the label-1 face
    Y = wrap_quotient(3, [((0, 0), (1, 3), 1), ((0, 2), (2, 1), 1)], [1, 2, 2])
    st = kappa(Y)
    assert st.labels == (2, 1)
    assert st.m == (2, 1)
    assert st.kappa == (0, 2)
    assert st.delta == {0: 2, 1: 0, 2: 0}
    assert st.cancel == 2


def test_kappa_rejects_repeated_incidence():
    Y = wrap_quotient(2, [((0, 2), (1, 2), 1)], [1, 1])
    with pytest.raises(FulfillError):
        kappa(Y)


def test_kappa_strongly_adjacent_pair():
    Y = AbstractComplex.wrap(fixtures.strongly_adjacent_pair())
    st = kappa(Y)
    assert st.labels == (1, 2)
    assert st.kappa == (0, 2)
    assert st.cancel == 2
    # the ownership bound is tight here
    assert st.cancel == sum(m * k for m, k in zip(st.m, st.kappa))


def test_delta_matches_cancellation_on_random_quotients():
    rng = random.Random(19)
    checked = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        slots = [(f, j) for f in range(n) for j in range(4)]
        idents = [(a, b, rng.choice((1, -1)))
                  for a, b in (rng.sample(slots, 2) for _ in range(rng.randint(0, 2 * n)))]
        cx = build_quotient(n, idents, labels=[rng.randint(1, 2) for _ in range(n)])
        if cx is None:
            continue
        used = sorted({f.label for f in cx.faces.values()})
        remap = {lab: i + 1 for i, lab in enumerate(used)}
        cx = build_quotient(n, idents, labels=[remap[cx.faces[f].label] for f in range(n)])
        Y = AbstractComplex.wrap(cx)
        try:
            st = kappa(Y)
        except FulfillError:
            continue
        checked += 1
        assert sum(st.delta.values()) == st.cancel == cancellation(cx)
        assert st.cancel <= sum(m * k for m, k in zip(st.m, st.kappa))
    assert checked > 80


# -- abstract complex validation ------------------------------------------------


def test_wrap_rejects_label_gap():
    cx = build_quotient(2, [((0, 0), (1, 0), 1)], labels=[1, 3])
    with pytest.raises(FulfillError):
        AbstractComplex.wrap(cx)


def test_wrap_rejects_missing_labels():
    cx = build_quotient(2, [((0, 0), (1, 0), 1)], labels=[2, 2])
    with pytest.raises(FulfillError):
        AbstractComplex.wrap(cx)


def test_abstract_complex_json_round_trip():
    Y = AbstractComplex.wrap(fixtures.strongly_adjacent_pair())
    Z = AbstractComplex.from_json(Y.to_json())
    assert Z.n_labels == 2
    assert Z.base.faces == Y.base.faces
    assert Z.to_json() == Y.to_json()


# -- search ----------------------------------------------------------------------


def test_search_two_labels_one_shared_edge():
    # shared edge forces word1[1] == inverse(word2[1])
    Y = wrap_quotient(2, [((0, 1), (1, 1), -1)], [1, 2])
    r0 = (1, 2, 2, 2)
    r1 = (1, -2, -2, -2)
    asg = fulfill_search(Y, [r0, r1])
    assert asg is not None
    assert asg.words == {1: r0, 2: r1}
    assert check_assignment(Y, asg)
    assert fulfill_search(Y, [r0]) is None  # one word cannot pair with itself


def test_search_same_label_position_conflict():
    # both faces read the same word, with position 0 glued to position 2
    Y = wrap_quotient(2, [((0, 0), (1, 2), 1)], [1, 1])
    assert fulfill_search(Y, [(1, 2, -1, -2)]) is None
    asg = fulfill_search(Y, [(1, 2, 1, 2)])
    assert asg is not None and check_assignment(Y, asg)


def test_search_rejects_non_injective_complex():
    Y = wrap_quotient(2, [((0, 2), (1, 2), 1)], [1, 1])
    assert fulfill_search(Y, list(W2[:10])) is None


def test_search_empty_relator_list():
    Y = AbstractComplex.wrap(fixtures.single_square().complex)
    assert fulfill_search(Y, []) is None


def test_search_allows_repeating_a_word_across_labels():
    # two disjoint labels joined at a single vertex impose no shared letters
    Y = wrap_quotient(2, [((0, 0), (1, 0), 1)], [1, 2])
    w = (1, 2, 1, 2)  # word1[0] == word2[0] holds with the same word
    asg = fulfill_search(Y, [w])
    assert asg is not None
    assert asg.words == {1: w, 2: w}


@pytest.mark.parametrize("max_label", [2, 3], ids=["labels-1-2", "labels-1-3"])
def test_search_agrees_with_all_assignment_oracle(max_label):
    rng = random.Random(23)
    found = none = deepest = counted = 0
    for trial in range(250):
        n = rng.randint(1, 3)
        slots = [(f, j) for f in range(n) for j in range(4)]
        idents = [(a, b, rng.choice((1, -1)))
                  for a, b in (rng.sample(slots, 2) for _ in range(rng.randint(1, n + 1)))]
        labels = [rng.randint(1, max_label) for _ in range(n)]
        used = sorted(set(labels))
        labels = [used.index(lab) + 1 for lab in labels]
        cx = build_quotient(n, idents, labels=labels)
        if cx is None:
            continue
        Y = AbstractComplex.wrap(cx)
        R = list(sample_presentation(2, rng.choice((0.15, 0.2, 0.25)), trial).relators)
        expect = oracle_search(Y, R)
        got = fulfill_search(Y, R)
        deepest += Y.n_labels == 3
        if expect is None:
            none += 1
            assert got is None
        else:
            found += 1
            assert got is not None
            assert got.words == expect  # identical deterministic order
            assert check_assignment(Y, got)
        if Y.n_labels == 2 and counted < 15 and oracle_injective(Y):
            # full-depth prefix counts of the kernel against the oracle's
            counted += 1
            tuples = oracle_tuple_count(Y, W2)
            assert exact_fulfill_probability(Y, 2).counts[-1] == tuples
            assert exact_set_fulfill_probability(Y, 2, 0.25).feasible_tuples == tuples
    assert found >= 20 and none >= 20
    assert counted == 15
    if max_label == 3:
        assert deepest >= 10  # draws that reach the third search level


# -- probability bound ------------------------------------------------------------


def test_probability_bound_examples():
    Y = wrap_quotient(2, [((0, 1), (1, 1), -1)], [1, 2])  # |Y|=2, Cancel=1
    assert math.isclose(fulfill_probability_bound(Y, 2, 0.05), 3 ** -0.3, rel_tol=1e-12)
    sa = AbstractComplex.wrap(fixtures.strongly_adjacent_pair())  # Cancel=2
    assert fulfill_probability_bound(sa, 2, 0.25) == 1.0
    single = AbstractComplex.wrap(fixtures.single_square().complex)  # Cancel=0
    assert math.isclose(fulfill_probability_bound(single, 2, 0.25), 3.0, rel_tol=1e-12)
    assert fulfill_probability_bound(single, 2, 0.1) >= 1.0


# -- exact probabilities -----------------------------------------------------------


def test_exact_single_face_certain():
    Y = AbstractComplex.wrap(fixtures.single_square().complex)
    rep = exact_fulfill_probability(Y, 2)
    assert rep.probability == 1.0
    assert rep.counts == (84,)
    assert rep.ratios == (1.0,)
    assert rep.pool == 84


def test_exact_two_labels_shared_edge():
    Y = wrap_quotient(2, [((0, 1), (1, 1), -1)], [1, 2])
    rep = exact_fulfill_probability(Y, 2)
    # for every first word there are exactly 21 partners (one letter pinned)
    assert rep.counts == (84, 84 * 21)
    assert rep.probability == 0.25
    assert rep.ratios[1] == 0.25
    # per-label ownership bound with 10% slack
    assert rep.ratios[1] <= (1 / 3) * 1.10


def test_letter_class_sizes_are_uniform():
    for k in range(4):
        for c in (1, -1, 2, -2):
            assert sum(1 for w in W2 if w[k] == c) == 21


def test_exact_strongly_adjacent_pair():
    Y = AbstractComplex.wrap(fixtures.strongly_adjacent_pair())
    rep = exact_fulfill_probability(Y, 2)
    # two adjacent letters of the partner word are pinned: 7 completions each
    assert rep.counts == (84, 84 * 7)
    assert math.isclose(rep.probability, 1 / 12, rel_tol=1e-12)
    st = kappa(Y)
    bound = (1 / 3) ** st.kappa[1] * 1.10
    assert rep.ratios[1] <= bound


def test_exact_oracle_cross_check_on_pair_complexes():
    # independent recount over all word pairs using the face reader
    for idents, labels in [
        ([((0, 1), (1, 1), -1)], [1, 2]),
        ([((0, 0), (1, 3), 1)], [1, 2]),
        ([((0, 1), (1, 3), 1), ((0, 2), (1, 2), -1)], [1, 2]),
    ]:
        Y = wrap_quotient(2, idents, labels)
        rep = exact_fulfill_probability(Y, 2)
        direct = sum(
            1 for a, b in product(W2, repeat=2)
            if oracle_reads_consistently(Y, {1: a, 2: b})
        )
        assert rep.counts[1] == direct


def test_exact_forced_zero():
    # glued positions 0 and 3 with a flip would need w[3] == inverse(w[0]),
    # impossible for a cyclically reduced word
    Y = wrap_quotient(2, [((0, 0), (1, 3), -1)], [1, 1])
    rep = exact_fulfill_probability(Y, 2)
    assert rep.probability == 0.0
    assert rep.counts == (0,)


def test_exact_same_label_repeated_position():
    # same word read twice with positions 0 and 2 glued: w[0] == w[2]
    Y = wrap_quotient(2, [((0, 0), (1, 2), 1)], [1, 1])
    rep = exact_fulfill_probability(Y, 2)
    direct = sum(1 for w in W2 if w[0] == w[2])
    assert direct == 36
    assert rep.counts == (36,)
    assert math.isclose(rep.probability, 36 / 84, rel_tol=1e-12)


def test_repeated_position_ratio_exceeds_plain_ownership_bound():
    # kappa is 1 here, but the cyclically reduced pool is smaller than the
    # reduced pool by 108/84 while the constrained count stays the same, so
    # the plain (2m-1)^-kappa bound with 10% slack genuinely fails and only
    # the pool-inflation-adjusted form holds
    Y = wrap_quotient(2, [((0, 0), (1, 2), 1)], [1, 1])
    st = kappa(Y)
    assert st.kappa == (1,)
    rep = exact_fulfill_probability(Y, 2)
    ratio = rep.ratios[0]
    assert ratio > (1 / 3) * 1.10
    letters = (1, -1, 2, -2)
    reduced = [
        w for w in product(letters, repeat=4)
        if all(w[i] != -w[i + 1] for i in range(3))
    ]
    assert len(reduced) == 108
    assert sum(1 for w in reduced if w[0] == w[2]) == 36
    # on the reduced pool the per-position heuristic is exact: 36/108 == 1/3
    assert ratio <= (1 / 3) * 1.10 * (108 / 84)


def test_exact_guard_raises():
    Y = wrap_quotient(
        3, [((0, 0), (1, 0), 1), ((1, 1), (2, 1), 1)], [1, 2, 3])
    with pytest.raises(InfeasibleError):
        exact_fulfill_probability(Y, 3)  # 630^3 tuples
    with pytest.raises(InfeasibleError):
        exact_set_fulfill_probability(Y, 3, 0.25)


# -- set-level probabilities --------------------------------------------------------


def test_set_level_single_label_hypergeometric():
    Y = wrap_quotient(2, [((0, 0), (1, 2), 1)], [1, 1])
    rep = exact_set_fulfill_probability(Y, 2, 0.25)
    assert rep.r == relator_count(2, 0.25) == 3
    assert rep.method == "hypergeometric"
    assert rep.feasible_tuples == 36
    assert math.isclose(rep.probability, 1 - math.comb(48, 3) / math.comb(84, 3),
                        rel_tol=1e-12)
    assert math.isclose(rep.probability, 77988 / 95284, rel_tol=1e-12)


def test_set_level_two_labels_matches_letter_class_count():
    # the shared edge wants some pair a, b in R with b[1] == -a[1]; counting
    # bad 3-subsets by inclusion-exclusion over position-1 letter classes
    Y = wrap_quotient(2, [((0, 1), (1, 1), -1)], [1, 2])
    rep = exact_set_fulfill_probability(Y, 2, 0.25)
    assert rep.method == "subset-enumeration"
    assert rep.feasible_tuples == 84 * 21
    bad = 4 * math.comb(42, 3) - 4 * math.comb(21, 3)
    expected = 1 - bad / math.comb(84, 3)
    assert math.isclose(rep.probability, expected, rel_tol=1e-12)
    assert math.isclose(rep.probability, 54684 / 95284, rel_tol=1e-12)


def test_set_level_impossible_complex():
    Y = wrap_quotient(2, [((0, 0), (1, 3), -1)], [1, 1])
    rep = exact_set_fulfill_probability(Y, 2, 0.25)
    assert rep.probability == 0.0
    assert rep.feasible_tuples == 0


def test_set_level_guard():
    # density 0.4 at rank 2 draws 5 of the 84 pool words: C(84, 5) subsets
    Y = wrap_quotient(2, [((0, 1), (1, 1), -1)], [1, 2])
    with pytest.raises(InfeasibleError,
                       match="^30872016 subsets exceed the enumeration budget$"):
        exact_set_fulfill_probability(Y, 2, 0.4)


# -- monte carlo ----------------------------------------------------------------------


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert 0.4 < lo < 0.5 < hi < 0.6
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] == 1.0


def test_monte_carlo_report_fields_and_determinism():
    Y = AbstractComplex.wrap(fixtures.strongly_adjacent_pair())
    rep = monte_carlo_set_fulfill(Y, 2, 0.25, trials=200, seed=11)
    again = monte_carlo_set_fulfill(Y, 2, 0.25, trials=200, seed=11)
    assert rep == again
    assert rep.bound == 1.0
    assert 0.0 <= rep.ci_low <= rep.estimate <= rep.ci_high <= 1.0
    assert rep.ci_high <= rep.bound * 1.15
    assert list(rep.to_json_dict()) == [
        "bound", "estimate", "ci_low", "ci_high", "trials", "seed"]


def test_monte_carlo_interval_covers_exact_value():
    Y = wrap_quotient(2, [((0, 1), (1, 1), -1)], [1, 2])
    exact = exact_set_fulfill_probability(Y, 2, 0.25).probability
    rep = monte_carlo_set_fulfill(Y, 2, 0.25, trials=400, seed=5)
    assert rep.ci_low <= exact <= rep.ci_high


def test_monte_carlo_rejects_tiny_trial_counts():
    Y = AbstractComplex.wrap(fixtures.single_square().complex)
    with pytest.raises(ValueError):
        monte_carlo_set_fulfill(Y, 2, 0.25, trials=50, seed=1)


@pytest.mark.parametrize("seed", [7, 12])
def test_monte_carlo_hits_equal_per_trial_search(seed):
    # the criterion-10 shapes, plus one that is not locally injective; the
    # per-trial hits of the search and of its compile-per-call oracle agree
    trials = 300
    for Y in criterion_10_shapes():
        samples = [list(sample_presentation(2, 0.25, seed * 1_000_000_007 + i).relators)
                   for i in range(trials)]
        hits = sum(fulfill_search(Y, R) is not None for R in samples)
        assert hits == sum(oracle_fulfill_search(Y, R) is not None for R in samples)
        rep = monte_carlo_set_fulfill(Y, 2, 0.25, trials=trials, seed=seed)
        assert rep.estimate == hits / trials


# -- compiled constraint table against the compile-per-call path ---------------
# The search, counts and set-level probability as they read before each
# complex kept one compiled table, unchanged apart from their names: the
# compile sorted the slot incidences by _idkey, keyed the live letter map by
# edge id and ran once per call.


def oracle_compile(Y: AbstractComplex):
    """(label order, per-label constraints) for the search, or None when Y is
    not locally injective. Labels come in canonical order; each label's
    (edge, position, sign) constraints come in _idkey edge order."""
    order = Y.label_order()
    cons: dict = {lab: [] for lab in order}
    inc = Y.slot_incidences()
    for edge in sorted(inc, key=_idkey):
        seen = set()
        for _fid, _j, k, s, lab in inc[edge]:
            if (lab, k) in seen:
                return None
            seen.add((lab, k))
            cons[lab].append((edge, k, s))
    return order, [cons[lab] for lab in order]


def oracle_consistent_prefixes(cons: list, W):
    """Depth-first over word choices, labels in compiled order and words in W
    order: yields (prefix, letters) for every prefix of word indices whose
    induced edge letters agree, the empty prefix first. letters is the live
    edge -> letter map, valid until the generator resumes."""
    letters: dict = {}

    def rec(prefix: tuple):
        yield prefix, letters
        if len(prefix) == len(cons):
            return
        here = cons[len(prefix)]
        for wi, w in enumerate(W):
            trail = []
            for edge, k, s in here:
                lt = w[k] if s == 1 else -w[k]
                have = letters.get(edge)
                if have is None:
                    letters[edge] = lt
                    trail.append(edge)
                elif have != lt:
                    break
            else:
                yield from rec(prefix + (wi,))
            for edge in trail:
                del letters[edge]

    return rec(())


def oracle_fulfill_search(Y: AbstractComplex, R) -> FulfillAssignment | None:
    if not R:
        return None
    compiled = oracle_compile(Y)
    if compiled is None:
        return None
    order, cons = compiled
    for prefix, letters in oracle_consistent_prefixes(cons, R):
        if len(prefix) == len(order):
            return FulfillAssignment(
                words={lab: R[wi] for lab, wi in zip(order, prefix)},
                edge_letters=dict(letters))
    return None


def oracle_counts(Y: AbstractComplex, W) -> list:
    """Consistent prefixes per length 1..n_labels (exact_fulfill_probability's
    counts)."""
    counts = [0] * (Y.n_labels + 1)
    compiled = oracle_compile(Y)
    if compiled is not None:
        for prefix, _letters in oracle_consistent_prefixes(compiled[1], W):
            counts[len(prefix)] += 1
    return counts[1:]


def oracle_set_fulfill(Y: AbstractComplex, m: int, d: float) -> SetFulfillReport:
    n = Y.n_labels
    pool = fulfill_module.w_count(m)
    r = relator_count(m, d)
    W = enumerate_cyclically_reduced(m)
    if pool ** n > fulfill_module.ENUMERATION_GUARD:
        raise InfeasibleError("feasible-tuple table too large")
    compiled = oracle_compile(Y)
    feasible = set() if compiled is None else {
        prefix for prefix, _letters in oracle_consistent_prefixes(compiled[1], W)
        if len(prefix) == n}
    if n == 1:
        good = len(feasible)
        prob = 1.0 - math.comb(pool - good, r) / math.comb(pool, r)
        return SetFulfillReport(prob, r, "hypergeometric", good)
    total = math.comb(pool, r)
    if total > 2_000_000:
        raise InfeasibleError(f"{total} subsets exceed the enumeration budget")
    hits = 0
    if n == 2:
        partners = [0] * pool
        for a, b in feasible:
            partners[a] |= 1 << b
        for subset in combinations(range(pool), r):
            mask = 0
            for b in subset:
                mask |= 1 << b
            if any(partners[a] & mask for a in subset):
                hits += 1
    else:
        for subset in combinations(range(pool), r):
            if any(t in feasible for t in product(subset, repeat=n)):
                hits += 1
    return SetFulfillReport(hits / total, r, "subset-enumeration", len(feasible))


def criterion_10_shapes():
    """The three criterion-10 shapes, then one that is not locally injective."""
    return [wrap_quotient(2, [((0, 0), (1, 2), 1)], [1, 1]),
            wrap_quotient(2, [((0, 1), (1, 1), -1)], [1, 2]),
            AbstractComplex.wrap(fixtures.strongly_adjacent_pair()),
            wrap_quotient(2, [((0, 2), (1, 2), 1)], [1, 1])]


@pytest.fixture(scope="module")
def oracle_corpus():
    """The complete <=2-face corpus and a 100-class 3-face level."""
    classes = list(EnumerationCursor(3, parent_cap=3, level_cap=100))
    assert sum(len(Y.base.faces) == 3 for Y in classes) == 100
    return classes


def test_constraint_table_matches_oracle_compile(oracle_corpus):
    # the same labels, constraints and injectivity verdict, with edge
    # positions read back to ids; only the order within a label may differ
    injective = 0
    for Y in oracle_corpus:
        table, expect = Y.constraints, oracle_compile(Y)
        assert (table is None) == (expect is None)
        if table is None:
            continue
        injective += 1
        order, cons, edges = table
        assert list(order) == expect[0]
        assert len(set(edges)) == len(edges)
        for got, want in zip(cons, expect[1]):
            assert sorted((edges[e], k, s) for e, k, s in got) == sorted(want)
    assert 1000 < injective < len(oracle_corpus)


@pytest.mark.parametrize("rank, density, seed", [(2, 0.25, 3), (4, 0.2, 5), (6, 0.2, 8)])
def test_search_matches_oracle_on_corpus(oracle_corpus, rank, density, seed):
    R = list(sample_presentation(rank, density, seed).relators)
    found = 0
    for Y in oracle_corpus:
        got, expect = fulfill_search(Y, R), oracle_fulfill_search(Y, R)
        if expect is None:
            assert got is None
            continue
        found += 1
        assert got is not None
        assert got.words == expect.words
        assert got.edge_letters == expect.edge_letters
    assert found > 100


def test_exact_reports_match_oracle_on_criterion_10_shapes():
    for Y in criterion_10_shapes():
        assert list(exact_fulfill_probability(Y, 2).counts) == oracle_counts(Y, W2)
        assert exact_set_fulfill_probability(Y, 2, 0.25) == oracle_set_fulfill(Y, 2, 0.25)


def test_scan_cancellation_counts_bare_edges():
    # the doubled-edge torus face (Cancel 2 over its own edges) plus a bare
    # loop edge, which lowers Cancel(Y) to 1
    torus = wrap_quotient(1, [((0, 0), (0, 2), -1), ((0, 1), (0, 3), -1)], [1])
    (u,) = torus.base.vertices
    cx = SquareComplex(torus.base.vertices, {**torus.base.edges, "bare": (u, u)},
                       torus.base.faces)
    Y = AbstractComplex.wrap(cx)
    assert Y.cancel == cancellation(cx) == cancellation(torus.base) - 1 == 1
    R = [(1, 2, -1, -2)]
    # a threshold of 1.2 that Cancel 2 would beat and Cancel 1 does not
    assert scan_local_iso(R, 1, IsoParams(d=0.2, eps=0.1), classes=[torus])
    assert scan_local_iso(R, 1, IsoParams(d=0.2, eps=0.1), classes=[Y]) == []
    (v,) = scan_local_iso(R, 1, IsoParams(d=0.05, eps=0.01), classes=[Y])
    assert v.cancel == 1


def test_set_fulfill_refuses_before_listing_the_pool(monkeypatch):
    def refuse(m):
        raise AssertionError("the pool was listed")

    monkeypatch.setattr(fulfill_module, "enumerate_cyclically_reduced", refuse)
    three = wrap_quotient(3, [((0, 0), (1, 0), 1), ((1, 1), (2, 1), 1)], [1, 2, 3])
    with pytest.raises(InfeasibleError, match="^feasible-tuple table too large$"):
        exact_set_fulfill_probability(three, 3, 0.25)
    shared = wrap_quotient(2, [((0, 1), (1, 1), -1)], [1, 2])
    with pytest.raises(InfeasibleError,
                       match="^30872016 subsets exceed the enumeration budget$"):
        exact_set_fulfill_probability(shared, 2, 0.4)
