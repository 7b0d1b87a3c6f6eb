"""Sparse rational polynomials, division, and Buchberger postconditions."""

import random
from fractions import Fraction
from itertools import product as iter_product
from math import gcd, lcm

import pytest

from ktoric import (
    BudgetExceededError,
    CartanWord,
    CharacteristicMap,
    CoefficientSpec,
    Covector,
    DegRevLex,
    GroebnerBasis,
    Monomial,
    Poly,
    bott_presentation,
    bott_samelson_presentation,
    buchberger,
    build_presentation,
    cartan_matrix,
    compute_basis,
    cube,
    order_vertices,
    polyring,
    product,
    product_charmap,
    render_poly,
    simplex,
    simplex_charmap,
    standard_monomials,
)
from ktoric.bott import BottMatrix, bott_charmap
from ktoric.errors import KtoricError
from ktoric.intlinalg import det_int

from ladder import face_rungs, generic_functional, random_tower, twisted_square
from oracles import (
    box_standard_monomials,
    degrevlex_key,
    is_groebner,
    leading_monomial,
    mono_divides,
    mono_lcm,
    mono_quotient,
    monic,
    reference_division,
    remainder,
    s_polynomial,
)


def variables(n):
    return tuple(Poly.variable(n, i) for i in range(n))


def heads_of(gens, order):
    """One engine head per polynomial of gens, as buchberger makes the heads
    of its input."""
    return tuple(polyring._head(polyring._packed(g, order)[1], order)
                 for g in gens)


def basis_of(gens, order):
    """A basis of gens as given, with an empty table: reduction by it
    follows division's first-divisor rule over gens, whether or not they
    are a Groebner basis."""
    return GroebnerBasis(heads_of(gens, order), order, {})


def test_monomial_basics():
    m = Monomial((2, 1))
    assert m.degree == 3
    assert m.exponents == ((0, 2), (1, 1))
    assert m.pure_power() is None
    assert Monomial((3, 0)).pure_power() == (0, 3)
    # divisibility, quotients and lcms are the order's packed operations
    o = DegRevLex.standard(2)
    pack = o.pack
    assert o.divides(pack(Monomial((1, 1))), pack(m))
    assert o.unpack(pack(m) - pack(Monomial((1, 1)))) == Monomial((1, 0))
    assert o.unpack(o.lcm(pack(Monomial((0, 2))),
                          pack(Monomial((1, 1))))) == Monomial((1, 2))


def test_monomial_rejects_negative_exponents():
    with pytest.raises(ValueError):
        Monomial((-1, 0))


@pytest.mark.parametrize("exps", [(1.5, 0), (1.0, 0), (Fraction(1), 0), ("1", 0),
                                  (True, 0)])
def test_monomial_rejects_non_integer_exponents(exps):
    with pytest.raises(TypeError):
        Monomial(exps)
    with pytest.raises(TypeError):
        Poly(2, {exps: 1})


def test_monomial_arithmetic_stays_monomial():
    m, n = Monomial((2, 1)), Monomial((1, 3))
    o = DegRevLex.standard(2)
    pack = o.pack
    for result in (o.unpack(o.lcm(pack(m), pack(n))),
                   o.unpack(pack(m) - pack(Monomial((1, 0)))), m * n,
                   Monomial.one(2), Monomial.variable(2, 1)):
        assert type(result) is Monomial
    assert m * n == (3, 4)  # exponents add; the tuple is not repeated
    assert m.exps == (2, 1) and hash(m) == hash((2, 1))


def test_plain_tuple_keys_become_monomials():
    p = Poly(2, {(1, 0): 1})
    assert p == Poly.variable(2, 0)
    assert all(type(m) is Monomial for m in p.terms)


def test_poly_arithmetic():
    x, y = variables(2)
    o = DegRevLex.standard(2)
    assert render_poly((1 - x) * (1 + x), ("x", "y"), o) == "-x^2 + 1"
    assert render_poly((1 - x) ** 2, ("x", "y"), o) == "x^2 - 2*x + 1"
    assert ((x + y) - (x + y)).is_zero
    assert (x ** 0).terms == Poly.one(2).terms
    assert (Fraction(1, 2) * x + Fraction(1, 2) * x).terms == x.terms


def test_poly_universe_mismatch():
    with pytest.raises(ValueError):
        Poly.variable(2, 0) + Poly.variable(3, 0)


def test_degrevlex_tiebreak():
    # same degree: the variable later in priority decides, reversed sign
    o = DegRevLex.standard(2)
    x2, y2 = Monomial((1, 0)), Monomial((0, 1))
    assert o.key(x2) > o.key(y2)
    assert o.key(Monomial((0, 2))) < o.key(Monomial((1, 1)))


@pytest.mark.parametrize("priority", [(0,), (0, 1, 2), (2, 0, 1, 3)])
def test_degrevlex_key_is_degree_then_reverse_lex(priority):
    # the int key against the order spelled out as a tuple
    o = DegRevLex(priority)
    monos = [Monomial(e) for e in iter_product(range(5), repeat=len(priority))]
    by_int = sorted(monos, key=o.key)
    assert by_int == sorted(monos, key=degrevlex_key(o))
    assert len({o.key(m) for m in monos}) == len(monos)
    assert all(type(o.key(m)) is int for m in monos)


def test_packed_monomials_agree_with_exponent_tuples():
    # the engine's packed ints against the oracles' exponent-tuple
    # arithmetic and textbook order, with degrees up to the field limit and
    # products one past it
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    limit = polyring.DEGREE_LIMIT

    @st.composite
    def exponents(draw, n):
        # a vector of degree d: the gaps between n - 1 sorted cuts of [0, d]
        d = draw(st.sampled_from((0, 1, limit - 1, limit)) | st.integers(0, limit))
        cuts = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1,
                                    max_size=n - 1)))
        return Monomial(b - a for a, b in zip([0] + cuts, cuts + [d]))

    cases = st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.permutations(range(n)), exponents(n), exponents(n)))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(cases)
    def check(case):
        priority, a, b = case
        o = DegRevLex(priority)
        pa, pb = o.pack(a), o.pack(b)
        assert o.unpack(pa) == a and o.unpack(pb) == b
        assert o.degree(pa) == a.degree and o.degree(pb) == b.degree
        if a.degree + b.degree <= limit:
            assert pa + pb == o.pack(a * b)
            assert o.unpack(pa + pb) == a * b
        else:
            with pytest.raises(KtoricError, match=f"limit {limit}"):
                o.pack(a * b)
        for u, v, pu, pv in ((a, b, pa, pb), (b, a, pb, pa)):
            assert o.divides(pu, pv) == mono_divides(u, v)
            if mono_divides(u, v):
                assert pv - pu == o.pack(mono_quotient(v, u))
        l, ab = o.lcm(pa, pb), mono_lcm(a, b)
        assert o.unpack(l) == ab and o.degree(l) == sum(ab)
        if sum(ab) <= limit:
            assert l == o.pack(ab)
        key = degrevlex_key(o)
        ka, kb = key(a), key(b)
        assert ((ka > kb) - (ka < kb)
                == (o.packed_key(pa) > o.packed_key(pb))
                - (o.packed_key(pa) < o.packed_key(pb)))

    check()


def test_packing_is_memoized():
    # pack runs _pack once per distinct monomial, a Monomial and the plain
    # tuple of its exponents being one, and unpack runs _unpack once per
    # distinct int
    calls = []

    class Counted(DegRevLex):
        def _pack(self, mono):
            calls.append(("pack", mono))
            return super()._pack(mono)

        def _unpack(self, p):
            calls.append(("unpack", p))
            return super()._unpack(p)

    o = Counted((1, 0))
    monos = [Monomial((a, b)) for a in range(3) for b in range(3)]
    for _ in range(3):
        packed = [o.pack(m) for m in monos] + [o.pack(tuple(m)) for m in monos]
        assert [o.unpack(p) for p in packed] == monos + monos
    assert sorted(calls) == sorted([("pack", m) for m in monos]
                                   + [("unpack", p) for p in packed[:9]])


def test_packing_past_the_degree_limit_raises():
    o = DegRevLex.standard(2)
    limit = polyring.DEGREE_LIMIT
    assert o.unpack(o.pack(Monomial((limit, 0)))) == (limit, 0)
    with pytest.raises(KtoricError, match=f"degree {limit + 1} .* limit {limit}"):
        o.pack(Monomial((limit, 1)))
    x, y = variables(2)
    with pytest.raises(KtoricError, match=f"limit {limit}"):
        basis_of((x - y,), o).normal_form(Poly(2, {(limit, 1): 1}))
    # the inputs fit, the lcm of their leading monomials does not
    half = limit // 2 + 1
    with pytest.raises(KtoricError, match=f"degree {2 * half} .* limit {limit}"):
        buchberger([Poly(2, {(half, 1): 1, (0, 0): -1}),
                    Poly(2, {(1, half): 1, (0, 0): -1})], o)


def test_degrevlex_priority_changes_leader():
    x, y = variables(2)
    p = x + y
    assert leading_monomial(p, DegRevLex((0, 1))) == Monomial((1, 0))
    assert leading_monomial(p, DegRevLex((1, 0))) == Monomial((0, 1))


def test_render_poly_coefficients():
    x, y = variables(2)
    o = DegRevLex.standard(2)
    p = Fraction(1, 2) * x - 3 * y + 1
    assert render_poly(p, ("x", "y"), o) == "1/2*x - 3*y + 1"
    assert render_poly(Poly.zero(2), ("x", "y"), o) == "0"


def test_reduce_examples():
    o = DegRevLex.standard(2)
    x, y = variables(2)
    for reduce in (lambda p, gens: remainder(p, gens, o),
                   lambda p, gens: basis_of(gens, o).normal_form(p)):
        assert reduce(x * x, [x * x]).is_zero
        r = reduce(x * y + y, [x * y])
        assert r.terms == y.terms


def test_reduce_postcondition_no_divisible_terms():
    rng = random.Random(23)
    o = DegRevLex.standard(3)
    xs = variables(3)
    gens = [xs[0] * xs[1] - 1, xs[1] ** 2 + xs[2]]
    gb = buchberger(gens, o)
    for _ in range(15):
        p = Poly.zero(3)
        for _ in range(4):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            p = p + rng.randint(-3, 3) * Monomial_poly(exps)
        r = gb.normal_form(p)
        for mono in r.terms:
            assert not any(mono_divides(lm, mono)
                           for lm in gb.leading_monomials())


def Monomial_poly(exps):
    out = Poly.one(len(exps))
    for i, e in enumerate(exps):
        out = out * Poly.variable(len(exps), i) ** e
    return out


def test_buchberger_already_groebner():
    o = DegRevLex.standard(2)
    x, y = variables(2)
    gb = buchberger([x * x, x * y], o)
    assert sorted(m.exponents for m in gb.leading_monomials()) == [
        ((0, 1), (1, 1)), ((0, 2),)]
    assert standard_monomials(gb) is None  # y**k never hits a leader


def test_buchberger_hand_example():
    o = DegRevLex.standard(2)
    x, y = variables(2)
    gb = buchberger([x - y, y * y], o)
    assert [render_poly(g, ("x", "y"), o) for g in gb.generators] == ["x - y", "y^2"]
    assert standard_monomials(gb) == (Monomial((0, 0)), Monomial((0, 1)))


def test_buchberger_principal_ideal_made_monic():
    o = DegRevLex.standard(2)
    x, y = variables(2)
    gb = buchberger([3 * x * y + 6], o)
    assert len(gb.generators) == 1
    assert render_poly(gb.generators[0], ("x", "y"), o) == "x*y + 2"


def test_buchberger_membership():
    o = DegRevLex.standard(3)
    xs = variables(3)
    gens = [xs[0] + xs[1] + xs[2], xs[0] * xs[1] - xs[2] ** 2]
    gb = buchberger(gens, o)
    for g in gens:
        assert gb.normal_form(g).is_zero
    assert is_groebner(list(gb.generators), o)


def test_buchberger_s_polynomial_postcondition():
    # every pairwise S-polynomial of a finished basis reduces to zero
    o = DegRevLex.standard(3)
    xs = variables(3)
    gb = buchberger([xs[0] ** 2 + xs[1] * xs[2] - 1,
                     xs[0] * xs[1] + xs[2] ** 2,
                     xs[1] ** 2 - xs[0] * xs[2]], o)
    gens = list(gb.generators)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            sp = s_polynomial(gens[i], gens[j], o)
            assert remainder(sp, gens, o).is_zero


def test_buchberger_budget():
    o = DegRevLex.standard(3)
    xs = variables(3)
    gens = [xs[0] ** 2 + xs[1] * xs[2] - 1,
            xs[0] * xs[1] + xs[2] ** 2,
            xs[1] ** 2 - xs[0] * xs[2]]
    with pytest.raises(BudgetExceededError, match="buchberger"):
        buchberger(gens, o, budget=3)


def test_standard_monomials_unit_ideal():
    o = DegRevLex.standard(2)
    gb = buchberger([Poly.one(2)], o)
    assert standard_monomials(gb) == ()


def test_standard_monomials_cap():
    o = DegRevLex.standard(2)
    x, y = variables(2)
    gb = buchberger([x ** 400, y ** 250], o)
    assert len(standard_monomials(gb)) == polyring.RANK_CAP
    gb = buchberger([x ** 400, y ** 400], o)
    with pytest.raises(BudgetExceededError, match="more than 100000 monomials"):
        standard_monomials(gb)
    # under the cap, exponents up to the packing limit make degrees past it
    limit = polyring.DEGREE_LIMIT
    gb = buchberger([Poly(2, {(limit, 0): 1}), y ** 3], o)
    std = standard_monomials(gb)
    assert len(std) == 3 * limit and std[-1] == (limit - 1, 2)
    assert std == box_standard_monomials(gb)


def test_standard_monomials_few_in_a_large_box():
    # the pure powers x_i^10 bound a box of 10**6 monomials, but every
    # product of two distinct variables is a leading monomial: only 1 and
    # the powers x_i^k with 0 < k < 10 are standard
    o = DegRevLex.standard(6)
    xs = variables(6)
    gens = [x ** 10 for x in xs]
    gens += [xs[i] * xs[j] for i in range(6) for j in range(i + 1, 6)]
    std = standard_monomials(buchberger(gens, o))
    assert len(std) == 55
    assert set(std) == {Monomial.one(6)} | {
        Monomial.variable(6, i, k) for i in range(6) for k in range(1, 10)}


def staircase_cases():
    """(generators, order) of the face rungs' presentations, of Laurent
    presentations of seeded towers of height 1-4 and of the words 121 in
    A2, 1212 in B2 and 1212 in G2."""
    for case in face_rungs():
        pres = build_presentation(*case.values)
        yield pytest.param(pres.ideal_gens, pres.order, id=case.id)
    for seed in (5, 17):
        rng = random.Random(seed)
        for n in (1, 2, 3, 4):
            lp = bott_presentation(random_tower(n, rng))
            yield pytest.param(lp.ideal_gens, lp.order,
                               id=f"seed{seed}-laurent{n}")
    for kind, word in (("A", (1, 2, 1)), ("B", (1, 2, 1, 2)),
                       ("G", (1, 2, 1, 2))):
        lp = bott_samelson_presentation(
            CartanWord(cartan_matrix(kind, 2), word))
        yield pytest.param(lp.ideal_gens, lp.order,
                           id=f"{kind}2-word{''.join(map(str, word))}")


@pytest.mark.parametrize("gens, order", staircase_cases())
def test_standard_monomials_match_box_enumeration(gens, order):
    gb = buchberger(gens, order)
    assert standard_monomials(gb) == box_standard_monomials(gb)


@pytest.mark.parametrize("make", [
    pytest.param(lambda v: cartan_matrix("A", v), id="cartan_matrix"),
    pytest.param(lambda v: Covector((v, -2)), id="Covector"),
    pytest.param(lambda v: DegRevLex((0, v)), id="DegRevLex"),
    pytest.param(lambda v: Poly.variable(2, 0) ** v, id="Poly.__pow__"),
    pytest.param(lambda v: Poly(v, {}), id="Poly"),
    pytest.param(lambda v: det_int([[v, 0], [0, 1]]), id="det_bareiss"),
])
@pytest.mark.parametrize("value", [2.9, True])
def test_entry_points_reject_non_integers(make, value):
    with pytest.raises(TypeError):
        make(value)


@pytest.mark.parametrize("make", [
    pytest.param(lambda v: CoefficientSpec((v,)), id="CoefficientSpec"),
    pytest.param(lambda v: CoefficientSpec([1, v]), id="CoefficientSpec_list"),
    pytest.param(lambda v: Poly(1, {(1,): v}), id="Poly"),
    pytest.param(lambda v: Poly.constant(1, v), id="Poly.constant"),
    pytest.param(lambda v: Poly.variable(1, 0) * v, id="Poly.__mul__"),
    pytest.param(lambda v: v * Poly.variable(1, 0), id="Poly.__rmul__"),
])
@pytest.mark.parametrize("value", [0.1, True])
def test_coefficients_reject_floats_and_bools(make, value):
    # a float would bring in its binary expansion, a bool would count as 1
    with pytest.raises(TypeError):
        make(value)


def reduction_bases():
    """(basis, whether it is a Groebner basis): the simplex of dimension 2,
    the deformed simplex of dimension 3 with r = 2, 1/3, 5, the seed-17
    Laurent tower of height 3, and the non-Groebner generators of
    test_tabled_normal_forms_of_non_groebner_generators."""
    pres = build_presentation(simplex(2), simplex_charmap(2))
    yield buchberger(list(pres.ideal_gens), pres.order), True
    pres = build_presentation(simplex(3), simplex_charmap(3),
                              CoefficientSpec([2, Fraction(1, 3), 5]))
    yield buchberger(list(pres.ideal_gens), pres.order), True
    lp = bott_presentation(random_tower(3, random.Random(17)))
    yield buchberger(list(lp.ideal_gens), lp.order), True
    x, y, z = variables(3)
    for lead in (1, Fraction(2, 5)):
        yield basis_of((2 * x * y + 3 * z, 3 * y ** 2 - x + 1,
                        lead * x * z - y), DegRevLex((2, 0, 1))), False


def test_reduce_idempotent_and_multiplicative():
    # linearity is what lets a table of monomial normal forms reduce every
    # polynomial; multiplicativity holds modulo a Groebner basis only
    rng = random.Random(5)
    for gb, groebner in reduction_bases():
        nvars = gb.order.nvars
        for _ in range(10):
            p = random_poly(rng, nvars)
            q = random_poly(rng, nvars)
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            b = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            rp = gb.normal_form(p)
            assert gb.normal_form(rp).terms == rp.terms
            assert gb.normal_form(a * p + b * q) == a * rp + b * gb.normal_form(q)
            if groebner:
                assert (gb.normal_form(p * q).terms
                        == gb.normal_form(gb.normal_form(p) * gb.normal_form(q)).terms)


def random_poly(rng, nvars):
    p = Poly.zero(nvars)
    for _ in range(5):
        exps = tuple(rng.randint(0, 1) for _ in range(nvars))
        p = p + rng.randint(-2, 2) * Monomial_poly(exps)
    return p


def test_quotient_dimension_priority_independent():
    cases = []
    pres = build_presentation(simplex(2), simplex_charmap(2))
    cases.append((pres.ideal_gens, pres.nvars))
    p, lam = bott_charmap(BottMatrix(2, [(1, 2, 1)]))
    pres2 = build_presentation(p, lam)
    cases.append((pres2.ideal_gens, pres2.nvars))
    for gens, nvars in cases:
        sizes = set()
        for priority in (tuple(range(nvars)), tuple(reversed(range(nvars)))):
            gb = buchberger(list(gens), DegRevLex(priority))
            sizes.add(len(standard_monomials(gb)))
        assert len(sizes) == 1


def rescan_buchberger(gens, order):
    """Reference Buchberger that picks each pair by rescanning every pending
    pair with min(), as the library did before its pair heap, and tries
    every generator for the chain criterion against the set of pending
    pairs, as it did before its sets of popped partners. Returns the
    reduced basis and the number of S-polynomials reduced."""
    key = degrevlex_key(order)
    basis = [monic(g, order) for g in gens if not g.is_zero]
    lms = [leading_monomial(g, order) for g in basis]
    pending = {(i, j) for j in range(len(basis)) for i in range(j)}

    def pair_sort_key(pair):
        i, j = pair
        return (key(mono_lcm(lms[i], lms[j])), i, j)

    reduced = 0
    while pending:
        i, j = min(pending, key=pair_sort_key)
        pending.discard((i, j))
        l = mono_lcm(lms[i], lms[j])
        if sum(l) == lms[i].degree + lms[j].degree:
            continue
        if any(mono_divides(lms[k], l) and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k in range(len(basis)) if k not in (i, j)):
            continue
        reduced += 1
        r = remainder(s_polynomial(basis[i], basis[j], order), basis, order)
        if r.is_zero:
            continue
        pending.update((k, len(basis)) for k in range(len(basis)))
        basis.append(monic(r, order))
        lms.append(leading_monomial(basis[-1], order))
    basis.sort(key=lambda g: key(leading_monomial(g, order)))
    kept = []
    for g in basis:
        lm = leading_monomial(g, order)
        if not any(mono_divides(leading_monomial(h, order), lm) for h in kept):
            kept.append(g)
    return [remainder(g, kept[:i] + kept[i + 1:], order)
            for i, g in enumerate(kept)], reduced


def selection_cases():
    for seed in (5, 17):
        rng = random.Random(seed)
        for n in (1, 2, 3):
            c = random_tower(n, rng)
            yield pytest.param(bott_presentation(c), id=f"seed{seed}-n{n}-laurent")
            yield pytest.param(build_presentation(*bott_charmap(c)),
                               id=f"seed{seed}-n{n}-cube")
        # height 4, a first draw: 95 to 135 pairs reduced, a long pair queue
        c = random_tower(4, random.Random(seed))
        yield pytest.param(bott_presentation(c), id=f"seed{seed}-n4-laurent")
        yield pytest.param(build_presentation(*bott_charmap(c)),
                           id=f"seed{seed}-n4-cube")
    for kind, word in (("A", (1, 2, 1)), ("B", (1, 2, 1, 2))):
        yield pytest.param(bott_samelson_presentation(
            CartanWord(cartan_matrix(kind, 2), word)), id=f"{kind}2-word{len(word)}")


def counted_buchberger(pres, monkeypatch):
    """The basis of one Buchberger run on pres, and the number of
    S-polynomials it reduced."""
    calls = []
    of_heads = polyring.s_polynomial

    def counted(*args):
        calls.append(None)
        return of_heads(*args)

    monkeypatch.setattr(polyring, "s_polynomial", counted)
    gb = buchberger(list(pres.ideal_gens), pres.order)
    monkeypatch.undo()
    return gb, len(calls)


@pytest.mark.parametrize("pres", list(selection_cases()))
def test_heap_selection_matches_rescan(pres, monkeypatch):
    gb, calls = counted_buchberger(pres, monkeypatch)
    want, reduced = rescan_buchberger(list(pres.ideal_gens), pres.order)
    assert list(gb.generators) == want
    assert calls == reduced


@pytest.mark.parametrize("kind, rank, word, reduced", [
    pytest.param("A", 3, (1, 2, 1, 3, 2, 1), 1052, id="A3-longest"),
    pytest.param("G", 2, (1, 2, 1, 2, 1, 2), 1314, id="G2-longest"),
])
def test_longest_word_pairs_reduced(kind, rank, word, reduced, monkeypatch):
    # the frontier words, too large for the rescan oracle: a criterion that
    # drops a pair the rescan keeps, or keeps one it drops, moves the count
    pres = bott_samelson_presentation(
        CartanWord(cartan_matrix(kind, rank), word))
    assert counted_buchberger(pres, monkeypatch)[1] == reduced


def budget_cases():
    """(presentation, the steps its Buchberger run takes) for towers of
    heights 3 and 4 and the A3 longest word, none pinned by the benchmark."""
    yield pytest.param(bott_presentation(random_tower(3, random.Random(17))),
                       46, id="seed17-laurent3")
    c = random_tower(4, random.Random(17))
    yield pytest.param(bott_presentation(c), 133, id="seed17-laurent4")
    yield pytest.param(build_presentation(*bott_charmap(c)), 99,
                       id="seed17-cube4")
    yield pytest.param(bott_samelson_presentation(CartanWord(
        cartan_matrix("A", 3), (1, 2, 1, 3, 2, 1))), 1856, id="A3-longest")


@pytest.mark.parametrize("pres, steps", list(budget_cases()))
def test_buchberger_budget_boundary(pres, steps):
    # the exact number of reducible monomials whose normal form the run
    # works out; a different pair order, reduction or stale-entry rule
    # changes it
    gens = list(pres.ideal_gens)
    buchberger(gens, pres.order, budget=steps)
    with pytest.raises(BudgetExceededError,
                       match=f"buchberger budget exhausted after {steps - 1} "):
        buchberger(gens, pres.order, budget=steps - 1)


def test_reduced_basis_is_invariant_under_permuting_generators():
    # the reduced Groebner basis of an ideal under a fixed order is unique,
    # so the order in which its generators arrive must not show
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cases = [build_presentation(*rung.values) for rung in face_rungs()]
    for seed in (5, 17):
        rng = random.Random(seed)
        cases += [bott_presentation(random_tower(n, rng)) for n in (1, 2, 3)]
    reference = [buchberger(list(pres.ideal_gens), pres.order).generators
                 for pres in cases]

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.integers(0, len(cases) - 1).flatmap(
        lambda k: st.tuples(st.just(k), st.permutations(cases[k].ideal_gens))))
    def check(case):
        k, gens = case
        assert buchberger(list(gens), cases[k].order).generators == reference[k]

    check()


def sympy_oracle_cases():
    for n in (2, 3, 4):
        yield pytest.param(build_presentation(simplex(n), simplex_charmap(n)),
                           id=f"simplex{n}")
    for a in (0, 1, 2):
        yield pytest.param(build_presentation(cube(2), CharacteristicMap(
            ((1, 0), (-1, a), (0, 1), (0, -1)), base_vertex=0)), id=f"square{a}")
    yield pytest.param(build_presentation(
        product(simplex(1), simplex(2)),
        product_charmap(simplex(1), simplex_charmap(1), simplex(2), simplex_charmap(2))),
        id="prism")
    for v in range(-2, 3):
        c = BottMatrix(2, [(1, 2, v)])
        yield pytest.param(build_presentation(*bott_charmap(c)), id=f"tower{v}-cube")
        yield pytest.param(bott_presentation(c), id=f"tower{v}-laurent")


def sympy_reduced_basis(sympy, gens, order):
    """sympy's reduced grevlex basis of the Polys gens under order, each
    generator monic, sorted by leading monomial as buchberger lists them."""
    nvars = order.nvars
    syms = sympy.symbols(f"v0:{nvars}")
    ordered = [syms[i] for i in order.priority]  # most significant first

    def to_sympy(p):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.prod(s ** e for s, e in zip(syms, m))
                   for m, c in p.terms.items())

    def from_sympy(g):
        terms = {}
        for exps, c in sympy.Poly(g, *ordered).terms():
            mono = [0] * nvars
            for var, e in zip(order.priority, exps):
                mono[var] = e
            terms[tuple(mono)] = Fraction(int(c.p), int(c.q))
        return monic(Poly(nvars, terms), order)

    theirs = sympy.groebner([to_sympy(g) for g in gens], *ordered,
                            order="grevlex", domain=sympy.QQ)
    key = degrevlex_key(order)
    return sorted((from_sympy(g) for g in theirs.exprs),
                  key=lambda p: key(leading_monomial(p, order)))


@pytest.mark.parametrize("pres", list(sympy_oracle_cases()))
def test_buchberger_matches_sympy(pres):
    sympy = pytest.importorskip("sympy")
    order = pres.order
    ours = [monic(g, order)
            for g in buchberger(list(pres.ideal_gens), order).generators]
    assert ours == sympy_reduced_basis(sympy, pres.ideal_gens, order)


def test_buchberger_matches_sympy_on_random_ideals_property():
    # ideals no polytope gives: 2-4 variables, degree at most 3, a random
    # variable priority, most of them positive-dimensional
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = {"finite": 0, "positive-dimensional": 0}

    @st.composite
    def ideals(draw):
        n = draw(st.integers(2, 4))
        order = DegRevLex(draw(st.permutations(range(n))))
        monos = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(
            lambda exps: sum(exps) <= 3).map(tuple)
        coeffs = st.one_of(st.integers(-3, 3),
                           st.fractions(-2, 2, max_denominator=3)).filter(bool)
        polys = st.dictionaries(monos, coeffs, min_size=1, max_size=4).map(
            lambda terms: Poly(n, terms))
        return draw(st.lists(polys, min_size=1, max_size=3)), order

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(ideals())
    def check(ideal):
        gens, order = ideal
        gb = buchberger(list(gens), order)
        assert ([monic(g, order) for g in gb.generators]
                == sympy_reduced_basis(sympy, gens, order))
        finite = standard_monomials(gb) is not None
        seen["finite" if finite else "positive-dimensional"] += 1

    check()
    assert min(seen.values()) >= 10, seen


def assert_same_as_division_loop(gb, p):
    got = gb.normal_form(p)
    want = reference_division(p.terms, reference_heads(gb.heads, gb.order),
                              gb.order)
    assert got.terms == want
    assert got.nvars == p.nvars


@pytest.mark.parametrize("p, lam", list(face_rungs()))
def test_tabled_normal_forms_match_division_loop(p, lam):
    pres = build_presentation(p, lam)
    b = compute_basis(pres, order_vertices(p, generic_functional(p.dim)))
    gb = basis_of(b.groebner.generators, b.groebner.order)  # empty table
    d = pres.nvars
    monos = b.basis_monomials
    for mi in monos:
        assert_same_as_division_loop(gb, Poly(d, {mi: 1}))
        for mj in monos:
            assert_same_as_division_loop(gb, Poly(d, {mi * mj: 1}))
    assert gb.table


def test_tabled_normal_forms_of_non_groebner_generators():
    # heads that are neither monic nor a Groebner basis: the table must still
    # follow division's first-divisor rule, not the ideal; with the
    # lead 2/5 of test_division_loop_matches_reference_with_fractional_heads
    # a head's ratios are not all integers or inverses of integers
    o = DegRevLex((2, 0, 1))
    x, y, z = variables(3)
    for lead in (1, Fraction(2, 5)):
        gb = basis_of((2 * x * y + 3 * z, 3 * y ** 2 - x + 1,
                       lead * x * z - y), o)
        assert not is_groebner(list(gb.generators), o)
        for exps in iter_product(range(4), repeat=3):
            assert_same_as_division_loop(gb, Poly(3, {exps: 1}))
        # entries are int numerators over one denominator, in lowest terms
        entries = gb.table.values()
        assert any(den != 1 for den, _ in entries)
        assert all(gcd(den, *terms.values()) == 1 for den, terms in entries)


def test_tabled_normal_form_of_a_scaled_term():
    pres = build_presentation(simplex(3), simplex_charmap(3))
    gb = buchberger(list(pres.ideal_gens), pres.order)
    for exps in ((2, 1, 0, 0), (0, 0, 3, 1), (1, 1, 1, 1)):
        for c in (Fraction(3, 2), Fraction(-7), Fraction(1, 3)):
            assert_same_as_division_loop(gb, Poly(4, {exps: c}))
    assert gb.normal_form(Poly.zero(4)).is_zero


def test_bases_never_share_a_table():
    o = DegRevLex.standard(2)
    x, y = variables(2)
    first = basis_of((x * x - y,), o)
    same = basis_of((x * x - y,), o)
    other = basis_of((x * x - 2 * y,), o)
    cube_x = Poly(2, {(3, 0): 1})
    assert first.normal_form(cube_x) == x * y
    assert not same.table
    assert other.normal_form(cube_x) == 2 * x * y
    assert first.table is not other.table
    assert same.normal_form(cube_x) == x * y


def unpacked(order, terms):
    """The engine's pairs (packed monomial, a) as (Monomial, a)."""
    return tuple((order.unpack(m), a) for m, a in terms)


def reference_heads(heads, order):
    """(leading monomial, generator) for each (lm, den, rule) head, the
    generator rebuilt as den*lm minus the a*t of the rule: a multiple of the
    generator the head was read from, which divides alike."""
    out = []
    for lm, den, rule in heads:
        lm = order.unpack(lm)
        terms = {lm: den, **{t: -a for t, a in unpacked(order, rule)}}
        out.append((lm, Poly(len(lm), terms)))
    return out


class Steps:
    """A budget that counts its steps and passes each on to inner."""

    def __init__(self, inner=None):
        self.inner = inner
        self.spent = 0

    def spend(self):
        self.spent += 1
        if self.inner is not None:
            self.inner.spend()


class CheckedDivision:
    """Stands in for polyring._reduce, the int routine behind every S-pair
    reduction, interreduction and reduction by a finished basis: requires
    nonzero int numerators in and out over a positive int denominator, the
    reference's remainder on the same input by the Polys rebuilt from the
    heads, with the same terms, and one budget step for each entry the call
    adds to the table for a reducible monomial, none for a lookup. Counts
    the entries that leave a table between two calls sharing it."""

    def __init__(self, loop):
        self.loop = loop
        self.calls = 0
        self.tables = {}  # id of a table -> (that table, its keys after a call)
        self.dropped = 0

    def __call__(self, terms, heads, order, budget, table):
        before = self.tables.get(id(table), (table, set()))[1]
        self.dropped += len(before - table.keys())
        before = set(table)
        assert all(type(a) is int and a for a in terms.values())
        steps = Steps(budget)
        got = self.loop(terms, heads, order, steps, table)
        den, out = got
        assert type(den) is int and den > 0
        assert all(type(a) is int and a for a in out.values())
        want = reference_division(
            {t: Fraction(a) for t, a in unpacked(order, terms.items())},
            reference_heads(heads, order), order)
        assert ({m: Fraction(a, den) for m, a in unpacked(order, out.items())}
                == want)
        made = [m for m in table.keys() - before
                if any(order.divides(h[0], m) for h in heads)]
        assert steps.spent == len(made)
        self.tables[id(table)] = (table, set(table))
        self.calls += 1
        return got


@pytest.fixture
def checked_division(monkeypatch):
    checked = CheckedDivision(polyring._reduce)
    monkeypatch.setattr(polyring, "_reduce", checked)
    return checked


def division_rungs():
    for rung in face_rungs():
        yield pytest.param(build_presentation(*rung.values), id=rung.id)
    for kind, word in (("A", (1, 2, 1)), ("B", (1, 2, 1, 2))):
        yield pytest.param(bott_samelson_presentation(
            CartanWord(cartan_matrix(kind, 2), word)), id=f"{kind}2-word{len(word)}")


def fractional_square(nvars):
    """(1 + sum of x_i / (i + 2))**2: many terms, none of them integral."""
    p = Poly.one(nvars)
    for i in range(nvars):
        p = p + Poly.variable(nvars, i) * Fraction(1, i + 2)
    return p * p


@pytest.mark.parametrize("pres", list(division_rungs()))
def test_division_loop_matches_reference(pres, checked_division):
    # every reduction of a Buchberger run (a growing head list sharing one
    # table, then the interreduction), then multi-term normal forms with
    # non-integral coefficients against the finished basis's fixed heads
    gb = buchberger(list(pres.ideal_gens), pres.order)
    runs = checked_division.calls
    assert runs > len(gb.generators)
    p = fractional_square(pres.nvars)
    for q in (p, p * Poly.variable(pres.nvars, 0), p - Fraction(1, 3)):
        gb.normal_form(q)
    assert checked_division.calls == runs + 3


def test_division_loop_matches_reference_on_g2_word(checked_division):
    # the length-6 G2 word's full basis takes seconds, and many times that
    # through the reference loop; its reductions are compared up to the
    # budget of 500 of the 3595 normal forms the whole run works out
    pres = bott_samelson_presentation(
        CartanWord(cartan_matrix("G", 2), (1, 2, 1, 2, 1, 2)))
    with pytest.raises(BudgetExceededError):
        buchberger(list(pres.ideal_gens), pres.order, budget=500)
    assert checked_division.calls > 20


def test_division_loop_matches_reference_with_fractional_heads(checked_division):
    o = DegRevLex((2, 0, 1))
    x, y, z = variables(3)
    gens = (2 * x * y + 3 * z, 3 * y ** 2 - x + 1, Fraction(2, 5) * x * z - y)
    gb = basis_of(gens, o)
    for p in (fractional_square(3), fractional_square(3) * (x - y) ** 2,
              Fraction(7, 2) * x ** 3 * y - Fraction(1, 6) * z ** 2 + 1):
        gb.normal_form(p)
    assert checked_division.calls == 3


def test_buchberger_drops_stale_entries(checked_division):
    # a head appended during the run divides a monomial that an entry made
    # earlier in the run holds, so that entry is dropped
    pres = build_presentation(*twisted_square(1))
    buchberger(list(pres.ideal_gens), pres.order)
    assert checked_division.dropped > 0


def handoff_cases():
    yield from division_rungs()
    for seed in (5, 17):
        rng = random.Random(seed)
        for n in (1, 2, 3):
            yield pytest.param(bott_presentation(random_tower(n, rng)),
                               id=f"seed{seed}-laurent{n}")


@pytest.mark.parametrize("pres", list(handoff_cases()))
def test_buchberger_hands_its_heads_and_table_to_the_basis(pres):
    # the basis keeps the run's reduced heads and its table of normal forms,
    # so the table must be what the heads make from an empty one, where an
    # entry a new head left stale would differ; the generators are built
    # from the heads only when read, and give the heads back
    gb = buchberger(list(pres.ideal_gens), pres.order)
    assert "generators" not in vars(gb)
    table = gb.table
    assert table
    fresh = {}
    polyring._fill(fresh, list(table), gb.heads, gb.order, None)
    assert {m: fresh[m] for m in table} == table
    assert heads_of(gb.generators, gb.order) == gb.heads
    assert "generators" in vars(gb)


def test_s_polynomial_of_heads_matches_fraction_oracle():
    # the fractional heads of
    # test_division_loop_matches_reference_with_fractional_heads, one more
    # made from a remainder whose leading numerator is negative, and the
    # bases of reduction_bases, whose Groebner bases hold a run's heads
    o = DegRevLex((2, 0, 1))
    x, y, z = variables(3)
    r = [(Monomial((1, 1, 1)), -6), (Monomial((0, 2, 0)), 4),
         (Monomial((0, 0, 0)), -10)]
    gens = [2 * x * y + 3 * z, 3 * y ** 2 - x + 1, Fraction(2, 5) * x * z - y,
            Poly(3, dict(r))]
    heads = heads_of(gens, o)
    head = polyring._head({o.pack(m): a for m, a in r}, o)
    assert head == heads[-1]
    lm, den, rule = head
    assert (o.unpack(lm), den, unpacked(o, rule)) == (
        Monomial((1, 1, 1)), 3, ((Monomial((0, 2, 0)), 2),
                                 (Monomial((0, 0, 0)), -5)))
    cases = [(gens, heads, o)]
    cases += [(gb.generators, gb.heads, gb.order) for gb, _ in reduction_bases()]
    pairs = 0
    for gens, heads, order in cases:
        for i, j in iter_product(range(len(heads)), repeat=2):
            if i == j:
                continue
            l = order.lcm(heads[i][0], heads[j][0])
            terms = polyring.s_polynomial(heads[i], heads[j], l)
            den = lcm(heads[i][1], heads[j][1])
            assert all(type(a) is int and a for a in terms.values())
            assert ({m: Fraction(a, den)
                     for m, a in unpacked(order, terms.items())}
                    == s_polynomial(gens[i], gens[j], order).terms)
            pairs += 1
    assert pairs > 100
