import dataclasses
import math
import random
from fractions import Fraction
from itertools import product

import pytest

from ktoric import (
    BottMatrix,
    BudgetExceededError,
    CartanWord,
    DegRevLex,
    Poly,
    bott_charmap,
    bott_equivalence,
    bott_presentation,
    bott_samelson_presentation,
    buchberger,
    build_presentation,
    cartan_matrix,
    compute_basis,
    involution_check,
    jsonio,
    laurent_rank,
    order_vertices,
    quotient_basis,
    validate_charmap,
)
from ktoric.bott import _centred_swap, _inverse_relations, cartan_word_matrix
from ktoric.polyring import RANK_CAP, render_poly
from ladder import generic_functional, random_tower
from oracles import (
    reference_cartan_matrix,
    reference_cube_vectors,
    reference_stage_relations,
    reference_word_triples,
    swapped_involution_check,
    tower_structure,
)


def tower(n, *triples):
    return BottMatrix(n, triples)


def gens_rendered(lp):
    order = DegRevLex.standard(lp.nvars)
    return [render_poly(g, lp.var_names, order) for g in lp.ideal_gens]


# --- matrices ---------------------------------------------------------------


def test_matrix_basics():
    c = tower(3, (1, 2, 2), (1, 3, -1))
    assert c.n == 3
    assert c.triples == ((1, 2, 2), (1, 3, -1))
    # zero twists are dropped and the rest sorted, so equality is the matrix's
    assert tower(3, (2, 3, 0), (1, 3, -1), (1, 2, 2)) == c
    assert hash(tower(3, (1, 3, -1), (2, 3, 0), (1, 2, 2))) == hash(c)
    assert BottMatrix(2).triples == ()
    assert BottMatrix(1) == tower(1)


def test_matrix_rejects_bad_entries():
    with pytest.raises(ValueError, match="above the diagonal"):
        tower(2, (2, 1, 1))
    with pytest.raises(ValueError, match="above the diagonal"):
        tower(2, (1, 3, 1))
    with pytest.raises(ValueError, match="given twice"):
        tower(2, (1, 2, 1), (1, 2, 2))
    with pytest.raises(ValueError, match="at least 1"):
        BottMatrix(0)


def test_tower_height_is_checked_before_the_twists():
    # rank 2^n passes RANK_CAP from height 17 on; the height is refused
    # before a twist is read, and 2^n is never formed, so 2^70 stops as fast
    assert BottMatrix(16, [(1, 16, 3)]).triples == ((1, 16, 3),)

    def unread():
        raise AssertionError("twists read")
        yield

    for n in (17, 2 ** 70):
        with pytest.raises(BudgetExceededError) as exc:
            BottMatrix(n, unread())
        assert str(exc.value) == (
            f"a tower of height {n} has rank 2^{n}, more than {RANK_CAP}")


def pairing_formed(self, a, b):
    raise AssertionError("a pairing was formed")


def test_long_word_is_refused_before_its_pairings(monkeypatch):
    # a word of 40000 letters has about 8 * 10^8 pairings of letters; none is
    # formed once the tower's height is refused
    monkeypatch.setattr(CartanWord, "pairing", pairing_formed)
    cw = CartanWord(cartan_matrix("A", 2), (1, 2) * 20000)
    with pytest.raises(BudgetExceededError, match="height 40000 has rank"):
        cartan_word_matrix(cw)


# --- the labeled cube -------------------------------------------------------


def test_charmap_frozen():
    p, lam = bott_charmap(tower(2, (1, 2, 1)))
    assert (p.dim, p.facet_count) == (2, 4)
    assert lam.vectors == ((1, 0), (-1, -1), (0, 1), (0, -1))
    assert lam.base_vertex == 0
    assert validate_charmap(p, lam).ok

    p1, lam1 = bott_charmap(BottMatrix(1))
    assert lam1.vectors == ((1,), (-1,))


def test_charmap_validates_random_towers():
    rng = random.Random(3)
    for n in (1, 2, 3, 4, 5):
        for _ in range(5):
            triples = [(i, j, rng.randint(-2, 2))
                       for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            p, lam = bott_charmap(BottMatrix(n, triples))
            assert validate_charmap(p, lam).ok


# --- stage presentations ----------------------------------------------------


def test_presentation_stage_one():
    lp = bott_presentation(BottMatrix(1))
    assert lp.var_names == ("y1", "y1_inv")
    assert gens_rendered(lp) == ["y1^2 - 2*y1 + 1", "y1*y1_inv - 1"]


def test_presentation_twisted_stage():
    lp = bott_presentation(tower(2, (1, 2, 2)))
    assert lp.var_names == ("y1", "y2", "y1_inv", "y2_inv")
    assert gens_rendered(lp) == [
        "y1^2 - 2*y1 + 1",
        "-y2*y1_inv^2 + y2^2 + y1_inv^2 - y2",
        "y1*y1_inv - 1",
        "y2*y2_inv - 1",
    ]
    assert gens_rendered(bott_presentation(tower(2, (1, 2, -2)))) == [
        "y1^2 - 2*y1 + 1",
        "-y1^2*y2 + y1^2 + y2^2 - y2",
        "y1*y1_inv - 1",
        "y2*y2_inv - 1",
    ]
    # no twist: two independent stage squares
    assert gens_rendered(bott_presentation(BottMatrix(2)))[:2] == [
        "y1^2 - 2*y1 + 1",
        "y2^2 - 2*y2 + 1",
    ]


def test_presentation_variable_helpers():
    lp = bott_presentation(BottMatrix(2))
    # variables 0..n-1 are the generators, n..2n-1 their inverses
    assert lp.var_names == ("y1", "y2", "y1_inv", "y2_inv")
    assert [f.name for f in dataclasses.fields(lp)] == [
        "matrix", "defining", "order"]
    assert (lp.n, lp.nvars) == (2, 4)
    # the inverse relations follow from the height, built once per record;
    # a copy with other stage relations builds its own
    assert lp.ideal_gens is lp.ideal_gens
    assert lp.ideal_gens == lp.defining + _inverse_relations(2)
    one = dataclasses.replace(lp, defining=lp.defining[:1])
    assert one.ideal_gens == lp.defining[:1] + _inverse_relations(2)
    # letters 1 and 3 of A3 pair to 0: the word gives the untwisted tower,
    # and its report notes what each generator is
    cw = CartanWord(cartan_matrix("A", 3), (1, 3))
    assert bott_samelson_presentation(cw).matrix == lp.matrix
    assert jsonio.samelson_report(cw, lp, 4, True)["notes"] == [
        "y1 is the class of the line bundle O(-M1) of the stage-1 subvariety",
        "y2 is the class of the line bundle O(-M2) of the stage-2 subvariety",
    ]


def test_involution():
    assert involution_check(bott_presentation(BottMatrix(1)))
    assert involution_check(bott_presentation(tower(2, (1, 2, 1))))
    assert involution_check(bott_presentation(tower(2, (1, 2, -2))))


def perturbed_twist_20():
    # the twist-20 tower with y2^2 - y2*y1^20 - y2 + y1_inv^20 as its second
    # relation: its centred swap y2_inv - y1_inv^20 - 1 + y1^20*y2 is no
    # relation, and reducing it takes work
    pres = bott_presentation(tower(2, (1, 2, 20)))
    y1, y2, y1_inv = (Poly.variable(4, k) for k in (0, 1, 2))
    g = y2 ** 2 - y2 * y1 ** 20 - y2 + y1_inv ** 20
    return dataclasses.replace(pres, defining=(pres.defining[0], g))


def test_involution_check_spends_its_own_budget():
    # Buchberger takes 49 steps here, so a budget of 49 runs out in the
    # involution check, which needs 228 to finish
    pres = perturbed_twist_20()
    buchberger(pres.ideal_gens, pres.order, 49)
    with pytest.raises(BudgetExceededError, match="buchberger budget "
                       "exhausted after 48 cancellation steps"):
        buchberger(pres.ideal_gens, pres.order, 48)
    for budget in (49, 227):
        with pytest.raises(BudgetExceededError, match="involution check budget "
                           f"exhausted after {budget} cancellation steps"):
            involution_check(pres, budget=budget)
    assert involution_check(pres, budget=228) is False


def involution_cases():
    # every tower of height <= 2 with twists in [-3, 3], and three words
    towers = [pytest.param(bott_presentation(BottMatrix(1)), id="height1")]
    towers += [pytest.param(bott_presentation(tower(2, (1, 2, v))),
                            id=f"twist{v}") for v in range(-3, 4)]
    words = [pytest.param(bott_samelson_presentation(
        CartanWord(cartan_matrix(kind, 2), (1, 2, 1))), id=f"{kind}2-121")
        for kind in ("A", "B", "G")]
    return towers + words


@pytest.mark.parametrize("pres", involution_cases())
def test_involution_check_matches_swap_oracle(pres):
    assert involution_check(pres) is swapped_involution_check(pres) is True


def test_perturbed_relations_fail_the_involution_check():
    pres = bott_presentation(tower(2, (1, 2, 1)))
    y1 = Poly.variable(4, 0)
    for defining in ((y1 ** 2 - 2, pres.defining[1]),
                     (pres.defining[0], pres.defining[1] + y1)):
        bad = dataclasses.replace(pres, defining=defining)
        assert involution_check(bad) is swapped_involution_check(bad) is False


def test_centred_swap_of_tower_relations_property():
    # each stage relation's centred swap is the relation, each inverse
    # relation's is zero, so the involution check reduces only relations
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.integers(1, 3).flatmap(lambda n: cells(st, n, 3)))
    def check(case):
        pres = bott_presentation(BottMatrix(*case))
        for g in pres.defining:
            assert _centred_swap(g, pres.n) == g
        for g in _inverse_relations(pres.n):
            assert _centred_swap(g, pres.n).is_zero

    check()


def test_laurent_rank_doubles_per_stage():
    assert laurent_rank(bott_presentation(BottMatrix(1))) == 2
    assert laurent_rank(bott_presentation(tower(2, (1, 2, 2)))) == 4


# --- polytope ring vs Laurent ring ------------------------------------------


def test_equivalence_stage_one():
    rep = bott_equivalence(BottMatrix(1))
    assert (rep.dst_rank, rep.src_rank) == (2, 2)
    assert rep.ok and rep.unimodular


def test_equivalence_exhaustive_height_two():
    for v in range(-2, 3):
        rep = bott_equivalence(tower(2, (1, 2, v)))
        assert rep.dst_rank == 4 and rep.src_rank == 4
        assert rep.ok and rep.relations_zero and rep.spans
        assert rep.unimodular


def test_equivalence_height_three_sample():
    rep = bott_equivalence(tower(3, (1, 2, 2), (1, 3, -1), (2, 3, 1)))
    assert rep.dst_rank == 8 and rep.src_rank == 8
    assert rep.ok and rep.unimodular


# --- Cartan data ------------------------------------------------------------


def test_cartan_tables_frozen():
    assert cartan_matrix("A", 1) == ((2,),)
    assert cartan_matrix("A", 2) == ((2, -1), (-1, 2))
    assert cartan_matrix("B", 2) == ((2, -1), (-2, 2))
    assert cartan_matrix("C", 2) == ((2, -2), (-1, 2))
    assert cartan_matrix("G", 2) == ((2, -1), (-3, 2))
    assert cartan_matrix("F", 4) == (
        (2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))
    assert cartan_matrix("D", 4) == (
        (2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))


def test_cartan_rank_past_the_entry_cap_is_refused():
    # rank 316 has 99856 <= RANK_CAP entries and 317 has 100489; the rank is
    # refused before a row is built, whatever the kind
    assert math.isqrt(RANK_CAP) == 316
    assert len(cartan_matrix("A", 316)) == 316
    for kind, rank in (("A", 317), ("B", 318), ("C", 400), ("D", 1000)):
        with pytest.raises(BudgetExceededError) as exc:
            cartan_matrix(kind, rank)
        assert str(exc.value) == (
            f"a Cartan matrix of rank {rank} has more than {RANK_CAP} entries")


def outcome(f, *args):
    """f(*args), or the type and message of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", ["A", "B", "C", "D", "F", "G", "d", "E", "BC"])
def test_cartan_matrix_against_the_kind_by_kind_tables(kind):
    # the path of single bonds with each kind's entries set on it gives the
    # same matrix, or the same exception and message, as one table per kind
    for rank in range(-1, 41):
        assert (outcome(cartan_matrix, kind, rank)
                == outcome(reference_cartan_matrix, kind, rank))


def test_cartan_table_bounds():
    for kind, rank in (("E", 8), ("A", 0), ("B", 1), ("D", 2), ("F", 3),
                       ("G", 3)):
        with pytest.raises(ValueError):
            cartan_matrix(kind, rank)


def test_cartan_word_pairing_conventions():
    # row: pairing(i, j) reads the matrix at row j, column i
    b2 = cartan_matrix("B", 2)
    assert CartanWord(b2, (1, 2)).pairing(1, 2) == -2
    assert CartanWord(b2, (1, 2)).pairing(2, 1) == -1
    assert CartanWord(b2, (1, 2), convention="col").pairing(1, 2) == -1
    assert CartanWord(b2, (1, 2), convention="col").pairing(2, 1) == -2


def test_cartan_word_matrix_frozen():
    a2 = cartan_matrix("A", 2)
    assert cartan_word_matrix(CartanWord(a2, (1, 2))).triples == ((1, 2, -1),)
    assert cartan_word_matrix(CartanWord(a2, (1, 2, 1))).triples == (
        (1, 2, -1), (1, 3, 2), (2, 3, -1))
    b2 = cartan_matrix("B", 2)
    assert cartan_word_matrix(CartanWord(b2, (1, 2))).triples == ((1, 2, -2),)
    assert cartan_word_matrix(CartanWord(b2, (2, 1))).triples == ((1, 2, -1),)
    assert cartan_word_matrix(
        CartanWord(b2, (1, 2), convention="col")).triples == ((1, 2, -1),)
    # a repeated letter pairs with itself through the diagonal 2
    assert cartan_word_matrix(CartanWord(a2, (1, 1))).triples == ((1, 2, 2),)


@pytest.mark.parametrize("kind", ["A", "G", "B"])
@pytest.mark.parametrize("convention", ["row", "col"])
def test_cartan_word_matrix_against_rows(kind, convention):
    # every word of length <= 6 against the matrix built row by row
    mat = cartan_matrix(kind, 2)
    for length in range(1, 7):
        for word in product((1, 2), repeat=length):
            cw = CartanWord(mat, word, convention)
            c = cartan_word_matrix(cw)
            assert c.n == length
            assert c.triples == reference_word_triples(cw)


def test_cartan_word_validation():
    a2 = cartan_matrix("A", 2)
    with pytest.raises(ValueError, match="out of range"):
        CartanWord(a2, (1, 3))
    with pytest.raises(ValueError, match="must not be empty"):
        CartanWord(a2, ())
    with pytest.raises(ValueError, match="convention"):
        CartanWord(a2, (1, 2), convention="rows")
    with pytest.raises(ValueError, match="diagonal"):
        CartanWord(((2, -1), (-1, 3)), (1, 2))
    with pytest.raises(ValueError, match="nonpositive"):
        CartanWord(((2, 1), (-1, 2)), (1, 2))
    with pytest.raises(ValueError, match="square"):
        CartanWord(((2, -1),), (1,))


# --- word presentations -----------------------------------------------------


def test_word_presentation_frozen():
    cw = CartanWord(cartan_matrix("A", 2), (1, 2))
    bs = bott_samelson_presentation(cw)
    assert gens_rendered(bs) == [
        "y1^2 - 2*y1 + 1",
        "-y1*y2 + y2^2 + y1 - y2",
        "y1*y1_inv - 1",
        "y2*y2_inv - 1",
    ]
    _, std = quotient_basis(bs)
    assert len(std) == 4
    notes = jsonio.samelson_report(cw, bs, len(std), True)["notes"]
    assert len(notes) == 2
    assert "stage-1" in notes[0] and "stage-2" in notes[1]


def test_word_presentation_ranks():
    a2 = cartan_matrix("A", 2)
    _, std = quotient_basis(bott_samelson_presentation(CartanWord(a2, (1, 2, 1))))
    assert len(std) == 8
    a1 = cartan_matrix("A", 1)
    _, std = quotient_basis(bott_samelson_presentation(CartanWord(a1, (1,))))
    assert len(std) == 2


def test_word_tower_equivalence():
    # the word data goes through the ordinary tower pipeline unchanged
    cw = CartanWord(cartan_matrix("B", 2), (1, 2, 1, 2))
    rep = bott_equivalence(cartan_word_matrix(cw))
    assert rep.dst_rank == 16 and rep.src_rank == 16
    assert rep.ok and rep.unimodular


@pytest.mark.parametrize("n, rows", [
    (2, ((1.7,),)),
    (2, ((Fraction(1),),)),
    (2.0, ((1,),)),
    (2, ((True,),)),
])
def test_bott_matrix_rejects_non_integers(n, rows):
    # the entries above the diagonal, row by row, given as triples
    triples = [(i, j, v) for i, row in enumerate(rows, 1)
               for j, v in enumerate(row, i + 1)]
    with pytest.raises(TypeError):
        BottMatrix(n, triples)


@pytest.mark.parametrize("n, triples", [
    (2, [(1, 2, 1.7)]),
    (2, [(1.0, 2, 1)]),
    (2, [(1, 2, "1")]),
    (2.0, [(1, 2, 1)]),
    (2, [(1, 2, True)]),
])
def test_bott_matrix_from_triples_rejects_non_integers(n, triples):
    # a float or a boolean raises, never stored as a truncated twist
    with pytest.raises(TypeError):
        BottMatrix(n, triples)


def cells(st, n, bound):
    """A hypothesis strategy for (n, every cell (i, j, v) with
    1 <= i < j <= n, zeros included), each twist v in [-bound, bound]."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return st.lists(st.integers(-bound, bound), min_size=len(pairs),
                    max_size=len(pairs)).map(
        lambda vals: (n, [(i, j, v) for (i, j), v in zip(pairs, vals)]))


def test_tower_constructions_against_cells_property():
    # the one pass over the twists against the cell-by-cell constructions,
    # on towers given with every cell, zeros included, in shuffled order
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.integers(1, 5).flatmap(lambda n: cells(st, n, 4)),
                      st.randoms(use_true_random=False))
    def check(case, rng):
        n, full = case
        nonzero = [t for t in full if t[2]]
        c = BottMatrix(n, nonzero)
        assert c.triples == tuple(nonzero)
        rng.shuffle(full)
        assert BottMatrix(n, full) == c
        assert [list(g.terms.items()) for g in bott_presentation(c).ideal_gens] == [
            list(g.terms.items()) for g in reference_stage_relations(c)]
        p, lam = bott_charmap(c)
        assert (p.dim, p.facet_count) == (n, 2 * n)
        assert lam.vectors == reference_cube_vectors(c)
        assert lam.base_vertex == 0

    check()


# --- the cube ring against the triangular rewrite ---------------------------


def assert_structure_matches_rewrite(c):
    # with the functional (1, 2, 4, ...) each face class is the product of
    # the upper facets over a set of stages, the squarefree z_S of the
    # rewrite; every nonzero constant must be the rewrite's, and no other
    p, lam = bott_charmap(c)
    b = compute_basis(build_presentation(p, lam),
                      order_vertices(p, generic_functional(c.n)))
    assert all(f % 2 for fs in b.basis_facet_sets for f in fs)
    stages = [frozenset(f // 2 for f in fs) for fs in b.basis_facet_sets]
    got = {}
    for i, j, k, x in b.structure:
        got.setdefault((stages[i], stages[j]), {})[stages[k]] = x
    want = tower_structure(c)
    assert len(want) == len(stages) ** 2
    assert got == {st: cell for st, cell in want.items() if cell}


@pytest.mark.parametrize("seed", [5, 17])
def test_structure_matches_rewrite_at_height_five(seed):
    # heights the sympy oracle, which stops at height 2, cannot reach
    assert_structure_matches_rewrite(random_tower(5, random.Random(seed)))


def test_structure_matches_rewrite_on_a3_longest_word():
    assert_structure_matches_rewrite(cartan_word_matrix(
        CartanWord(cartan_matrix("A", 3), (1, 2, 1, 3, 2, 1))))


def test_structure_matches_rewrite_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.integers(1, 4).flatmap(lambda n: cells(st, n, 3)))
    def check(case):
        assert_structure_matches_rewrite(BottMatrix(*case))

    check()


@pytest.mark.parametrize("cartan, word", [
    (((2, -1.5), (-1, 2)), (1, 2)),
    (((2, -1), (-1, 2)), (1, 2.0)),
    (((2, -1), (-1, 2)), (Fraction(1), 2)),
    (((2, -1), (-1, 2)), (True, 2)),
])
def test_cartan_word_rejects_non_integers(cartan, word):
    with pytest.raises(TypeError):
        CartanWord(cartan, word)
