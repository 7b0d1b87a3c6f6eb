import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from ktoric import (
    BottMatrix,
    BudgetExceededError,
    CharacteristicMap,
    CoefficientSpec,
    Covector,
    DegRevLex,
    InfiniteDimensionError,
    KtoricError,
    NoBaseVertexError,
    NotAUnitError,
    OrderPropertyError,
    Poly,
    RankDeficientError,
    ValidationFailedError,
    VertexOrder,
    ascending_faces,
    bott_charmap,
    bott_equivalence,
    buchberger,
    build_presentation,
    compute_basis,
    covector_relation,
    cube,
    evaluate_in_quotient,
    invert_unit,
    minimal_nonfaces,
    order_vertices,
    product,
    product_charmap,
    quotient_basis,
    ring_map_check,
    simplex,
    simplex_charmap,
)
from ktoric import kring
from ktoric.polyring import Monomial, _packed, _unpacked, render_poly
from ktoric.polytope import SimplePolytope

from ladder import (
    face_rungs,
    generic_functional,
    random_tower,
    truncate,
    twisted_square,
)
from oracles import (
    cohomology_structure,
    dense_structure,
    face_change_inverse,
    fraction_coords,
    polynomial_presentation,
    reference_evaluate_in_quotient,
)


def var(d, j):
    return Poly.variable(d, j)


def triangle_basis(coeffs=None, functional=(1, 2)):
    p = simplex(2)
    pres = build_presentation(p, simplex_charmap(2), coeffs)
    return pres, compute_basis(pres, order_vertices(p, functional))


def hirzebruch(a):
    return CharacteristicMap(((1, 0), (-1, a), (0, 1), (0, -1)), base_vertex=0)


def rendered(pres, p):
    names = tuple(f"x{j}" for j in range(pres.polytope.facet_count))
    return render_poly(p, names, pres.order)


# --- covector relations ---------------------------------------------------


def test_covector_relation_interval():
    pres = build_presentation(simplex(1), simplex_charmap(1))
    z = covector_relation(pres.charmap, Covector((1,)), pres.coeffs,
                          pres.base_facets, minimal_nonfaces(pres.polytope))
    assert rendered(pres, z) == "-x1 + x0"


def test_covector_relation_interval_coefficient_two():
    # (1 - x1) - 2*(1 - x0): the unit 2 enters through the base facet pairing
    pres = build_presentation(simplex(1), simplex_charmap(1),
                              CoefficientSpec([2]))
    z = covector_relation(pres.charmap, Covector((1,)), pres.coeffs,
                          pres.base_facets, minimal_nonfaces(pres.polytope))
    assert rendered(pres, z) == "-x1 + 2*x0 - 1"


def test_covector_relation_zero_covector_vanishes():
    pres = build_presentation(simplex(1), simplex_charmap(1))
    z = covector_relation(pres.charmap, Covector((0,)), pres.coeffs,
                          pres.base_facets, minimal_nonfaces(pres.polytope))
    assert z.is_zero


def test_covector_relation_triangle_coefficients():
    pres = build_presentation(simplex(2), simplex_charmap(2),
                              CoefficientSpec([5, 7]))
    z = covector_relation(pres.charmap, Covector((1, 0)), pres.coeffs,
                          pres.base_facets, minimal_nonfaces(pres.polytope))
    assert rendered(pres, z) == "-x1 + 5*x0 - 4"


# --- coefficient specs ----------------------------------------------------


def test_coefficient_spec_constructors():
    s = CoefficientSpec([2, 3])
    assert s.values == (Fraction(2), Fraction(3))
    assert not s.integral
    assert CoefficientSpec((1, 1)).integral
    assert CoefficientSpec([Fraction(1, 2)]).values == (Fraction(1, 2),)


def test_coefficient_spec_rejects_zero():
    with pytest.raises(ValueError):
        CoefficientSpec([0, 1])


# --- presentations --------------------------------------------------------


def test_triangle_presentation_generators():
    pres, _ = triangle_basis()
    assert pres.base_facets == (1, 2)
    assert pres.order.priority == (1, 2, 0)
    assert [rendered(pres, g) for g in pres.nonface_gens] == ["x0*x1*x2"]
    assert [rendered(pres, g) for g in pres.covector_gens] == [
        "-x1 + x0",
        "-x2 + x0",
    ]


def test_presentation_coefficient_arity():
    with pytest.raises(ValueError):
        build_presentation(simplex(2), simplex_charmap(2),
                           CoefficientSpec([2]))


def test_presentation_requires_base_vertex():
    lam = CharacteristicMap(((-1, -1), (1, 0), (0, 1)))
    with pytest.raises(NoBaseVertexError):
        build_presentation(simplex(2), lam)


def test_presentation_validates_polytope():
    # two disjoint triangles fail the connectivity check
    shards = SimplePolytope(2, 6, (
        frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}),
        frozenset({3, 4}), frozenset({4, 5}), frozenset({3, 5})))
    with pytest.raises(ValidationFailedError):
        build_presentation(shards, simplex_charmap(2))


def test_presentation_validates_charmap():
    lam = CharacteristicMap(((1, 0), (-1, 0), (1, 0), (0, -1)), base_vertex=2)
    with pytest.raises(ValidationFailedError, match="facet vectors"):
        build_presentation(cube(2), lam)


# --- the triangle, fully pinned -------------------------------------------


def test_triangle_basis_frozen():
    _, b = triangle_basis()
    assert b.rank == 3 and b.m == 3
    assert b.change_det == 1
    assert b.warnings == ()
    assert b.basis_monomials == (
        Monomial((0, 0, 0)), Monomial((1, 0, 0)), Monomial((1, 1, 0)))
    assert b.basis_facet_sets == ((), (0,), (0, 1))
    assert b.std_monomials == (
        Monomial((0, 0, 0)), Monomial((1, 0, 0)), Monomial((2, 0, 0)))


def test_triangle_structure_constants():
    _, b = triangle_basis()
    c = dense_structure(b)
    z = (Fraction(0),) * 3
    assert c[1][1] == (Fraction(0), Fraction(0), Fraction(1))
    assert c[1][2] == z and c[2][2] == z


def test_structure_constants_reproduce_products():
    for coeffs in (None, CoefficientSpec([2, 3])):
        _, b = triangle_basis(coeffs)
        c = dense_structure(b)
        classes = [Poly(3, {m: 1}) for m in b.basis_monomials]
        for i in range(b.rank):
            for j in range(b.rank):
                expanded = sum(
                    (x * classes[k] for k, x in enumerate(c[i][j])),
                    Poly.zero(3))
                lhs = classes[i] * classes[j]
                assert b.groebner.normal_form(lhs - expanded).is_zero


def test_interval_rank_and_nilpotence():
    p = simplex(1)
    pres = build_presentation(p, simplex_charmap(1))
    b = compute_basis(pres, order_vertices(p, (1,)))
    assert b.rank == 2
    assert b.groebner.normal_form(var(2, 0) ** 2).is_zero
    assert b.groebner.normal_form(var(2, 0) * var(2, 1)).is_zero


def test_interval_coefficient_two_halves_the_square():
    # x0^2 = (1/2) x0 once the covector unit is 2; not an integral quotient
    p = simplex(1)
    pres = build_presentation(p, simplex_charmap(1), CoefficientSpec([2]))
    b = compute_basis(pres, order_vertices(p, (1,)))
    assert b.rank == 2
    assert b.warnings == ()
    assert not pres.coeffs.integral
    assert dense_structure(b)[1][1] == (Fraction(0), Fraction(1, 2))
    assert b.change_det == 1


def test_square_with_trivial_twist_is_a_product():
    p = cube(2)
    pres = build_presentation(p, hirzebruch(0))
    b = compute_basis(pres, order_vertices(p, (1, 2)))
    assert b.rank == 4
    assert abs(b.change_det) == 1
    x0, x2 = var(4, 0), var(4, 2)
    assert b.groebner.normal_form(x0 * x0).is_zero
    assert b.groebner.normal_form(x2 * x2).is_zero
    assert not b.groebner.normal_form(x0 * x2).is_zero
    # opposite facets carry the same class
    assert b.groebner.normal_form(var(4, 1) - x0).is_zero
    assert b.groebner.normal_form(var(4, 3) - x2).is_zero


# --- units ------------------------------------------------------------------


def test_invert_unit_frozen():
    _, b = triangle_basis()
    inv = invert_unit(1 - var(3, 0), b)
    assert rendered(b.presentation, inv) == "x0^2 + x0 + 1"
    assert inv == b.groebner.normal_form(1 + var(3, 0) + var(3, 0) * var(3, 1))
    assert b.groebner.normal_form((1 - var(3, 0)) * inv - 1).is_zero


def test_invert_unit_identity():
    _, b = triangle_basis()
    assert invert_unit(Poly.one(3), b) == Poly.one(3)


def test_invert_unit_rejects_nonunit():
    _, b = triangle_basis()
    with pytest.raises(NotAUnitError, match="not invertible"):
        invert_unit(var(3, 0), b)


def test_invert_unit_on_the_zero_ring():
    # the unit ideal leaves no standard monomial, so there is no 1 to solve for
    _, b = triangle_basis()
    zero = dataclasses.replace(
        b, groebner=buchberger([Poly.one(3)], b.groebner.order),
        std_monomials=())
    with pytest.raises(NotAUnitError, match="the quotient ring is zero"):
        invert_unit(Poly.one(3), zero)


def test_invert_unit_random_units():
    # 1 + nilpotent is always invertible; check against the defining identity
    _, b = triangle_basis()
    rng = random.Random(7)
    for _ in range(10):
        u = Poly.one(3) + sum(
            (rng.randint(-2, 2) * var(3, j) for j in range(3)), Poly.zero(3))
        inv = invert_unit(u, b)
        assert b.groebner.normal_form(u * inv - 1).is_zero


def test_invert_unit_nonintegral():
    # 1 - x0 stays a unit when the coefficients deform the relations
    _, b = triangle_basis(CoefficientSpec([2, 3]))
    u = 1 - var(3, 0)
    assert b.groebner.normal_form(u * invert_unit(u, b) - 1).is_zero


# --- ring map checks --------------------------------------------------------


def test_ring_map_check_identity():
    pres, b = triangle_basis()
    images = tuple(var(3, j) for j in range(3))
    rep = ring_map_check(pres, images, b, b.std_monomials)
    assert rep.ok and rep.relations_zero and rep.spans
    assert rep.change_det == 1 and rep.unimodular
    with pytest.raises(ValueError, match="one image per source variable"):
        ring_map_check(pres, images[:2], b, b.std_monomials)


def test_ring_map_check_truncated_polynomial_ring():
    # the triangle ring is Z[y]/(y - 1)^3 under y -> (1 - x0)^(-1)
    _, b = triangle_basis()
    y = var(1, 0)
    src = polynomial_presentation([(y - 1) ** 3], var_names=("y",))
    img = invert_unit(1 - var(3, 0), b)
    rep = ring_map_check(src, (img,), b, quotient_basis(src)[1])
    assert rep.ok
    assert rep.src_rank == 3
    assert rep.change_det == 1


def test_ring_map_check_zero_map_fails_to_span():
    pres, b = triangle_basis()
    rep = ring_map_check(pres, (Poly.zero(3),) * 3, b, b.std_monomials)
    assert rep.relations_zero
    assert not rep.spans and not rep.ok


@pytest.mark.parametrize("nvars", [4, 2])
@pytest.mark.parametrize("entry", [
    "normal_form", "basis_coords", "invert_unit", "ring_map_check",
    "buchberger"])
def test_polys_over_another_variable_count_are_refused(entry, nvars):
    # the triangle's order is over 3 variables, and packing a Poly checks
    # its variable count against the order's, so each Poly entering the
    # engine is checked there
    pres, b = triangle_basis()
    x = var(nvars, nvars - 1)
    calls = {
        "normal_form": lambda: b.groebner.normal_form(x),
        "basis_coords": lambda: b.basis_coords(x),
        "invert_unit": lambda: invert_unit(1 - x, b),
        "ring_map_check": lambda: ring_map_check(pres, (x,) * 3, b,
                                                 b.std_monomials),
        "buchberger": lambda: buchberger([x - 1], DegRevLex.standard(3)),
    }
    with pytest.raises(ValueError, match=f"a Poly over {nvars} variables "
                       "met an order over 3"):
        calls[entry]()


@pytest.mark.parametrize("nvars", [4, 2])
def test_zero_polys_over_another_variable_count_are_refused(nvars):
    # a zero Poly has no monomial to pack, so its variable count is checked
    # on its own; a monomial packed by itself keeps its length check
    pres, b = triangle_basis()
    zero = Poly.zero(nvars)
    match = f"a Poly over {nvars} variables met an order over 3"
    with pytest.raises(ValueError, match=match):
        b.groebner.normal_form(zero)
    with pytest.raises(ValueError, match=match):
        b.basis_coords(zero)
    with pytest.raises(ValueError, match=match):
        ring_map_check(pres, (zero,) * 3, b, b.std_monomials)
    with pytest.raises(ValueError, match=match):
        buchberger([zero, var(3, 0) - 1], DegRevLex.standard(3))
    with pytest.raises(ValueError, match=f"a monomial over {nvars} variables "
                       "met an order over 3"):
        b.groebner.order.pack(Monomial((0,) * nvars))
    assert b.groebner.normal_form(Poly.zero(3)) == Poly.zero(3)


def test_evaluate_in_quotient_needs_one_image_per_variable():
    _, b = triangle_basis()
    gb = b.groebner
    x0 = _packed(var(3, 0), gb.order)
    with pytest.raises(ValueError, match="one image per source variable"):
        evaluate_in_quotient(Poly.variable(2, 1), [], gb)
    with pytest.raises(ValueError, match="one image per source variable"):
        evaluate_in_quotient(Poly.variable(2, 1), [x0], gb)
    with pytest.raises(ValueError, match="one image per source variable"):
        evaluate_in_quotient(Poly.variable(2, 1), [x0] * 3, gb)
    got = evaluate_in_quotient(Poly.variable(2, 1), [x0] * 2, gb)
    assert _unpacked(*got, gb.order) == b.groebner.normal_form(var(3, 0))


def test_evaluate_in_quotient():
    _, b = triangle_basis()
    gb = b.groebner
    y = var(1, 0)
    img = _packed(invert_unit(1 - var(3, 0), b), gb.order)
    assert evaluate_in_quotient((y - 1) ** 3, (img,), gb)[1] == {}
    x0 = var(3, 0)
    got = evaluate_in_quotient(y * y, (_packed(x0 + 1, gb.order),), gb)
    assert _unpacked(*got, gb.order) == b.groebner.normal_form((x0 + 1) ** 2)


def test_quotient_products_keep_the_degree_limit():
    # x^19000 is a normal form modulo x^20000, and its square is past the
    # packed-monomial degree limit: the product must raise, not wrap a field
    x = var(1, 0)

    def power(e):
        return Poly(1, {(e,): 1})

    order = DegRevLex.standard(1)
    gb = buchberger([power(20000)], order)
    got = evaluate_in_quotient(x ** 2, (_packed(power(9000), order),), gb)
    assert _unpacked(*got, order) == power(18000)
    # the engine form carries no term order: the guard must find the
    # largest degree wherever it sits in the map, here after x's
    for image in (power(19000), power(1) + power(19000)):
        with pytest.raises(KtoricError, match="a monomial of degree 38000 is "
                           "past the packed-monomial degree limit 32767"):
            evaluate_in_quotient(x ** 2, (_packed(image, order),), gb)


# --- every covector relation lies in the ideal ------------------------------


def covectors_reduce_to_zero(p, lam, coeffs, functional, rng, trials):
    pres = build_presentation(p, lam, coeffs)
    b = compute_basis(pres, order_vertices(p, functional))
    for _ in range(trials):
        u = Covector(tuple(rng.randint(-3, 3) for _ in range(p.dim)))
        z = covector_relation(pres.charmap, u, pres.coeffs, pres.base_facets,
                              minimal_nonfaces(p))
        assert b.groebner.normal_form(z).is_zero


def test_covector_redundancy_triangle():
    covectors_reduce_to_zero(simplex(2), simplex_charmap(2),
                             CoefficientSpec([2, 3]), (1, 2),
                             random.Random(11), 100)


def test_covector_redundancy_twisted_square():
    covectors_reduce_to_zero(cube(2), hirzebruch(1), None, (1, 2),
                             random.Random(13), 60)


def test_nilpotency_across_catalog(prism):
    cases = [
        (simplex(2), simplex_charmap(2), (1, 2)),
        (cube(2), hirzebruch(1), (1, 2)),
        (prism[0], prism[1], (1, 2, 4)),
    ]
    for p, lam, functional in cases:
        pres = build_presentation(p, lam)
        b = compute_basis(pres, order_vertices(p, functional))
        d, n = p.facet_count, p.dim
        for j in range(d):
            assert b.groebner.normal_form(var(d, j) ** (n + 1)).is_zero
        assert b.rank <= b.m
        assert b.rank == len(p.vertices)


# --- functional independence ------------------------------------------------


def test_functional_choice_leaves_ideal_data_alone():
    p = cube(2)
    pres = build_presentation(p, hirzebruch(1))
    b1 = compute_basis(pres, order_vertices(p, (1, 2)))
    b2 = compute_basis(pres, order_vertices(p, (2, 5)))
    assert b1.rank == b2.rank
    assert b1.std_monomials == b2.std_monomials
    assert b1.groebner.generators == b2.groebner.generators


def relabel(w1, w2):
    # position in the first order -> position of the same vertex in the second
    return tuple(w2.positions[v] for v in w1.order)


def test_same_ascending_assignment_same_tensor():
    # (1,2) and (2,1) order the square's vertices differently but ascend
    # every edge the same way; the tensor matches after relabeling positions
    # by the common vertex
    p = cube(2)
    for lam, f2 in ((hirzebruch(0), (2, 1)), (hirzebruch(1), (2, 5))):
        pres = build_presentation(p, lam)
        w1, w2 = order_vertices(p, (1, 2)), order_vertices(p, f2)
        assert ascending_faces(p, w1) == ascending_faces(p, w2)
        b1, b2 = compute_basis(pres, w1), compute_basis(pres, w2)
        c1, c2 = dense_structure(b1), dense_structure(b2)
        s = relabel(w1, w2)
        for i in range(4):
            assert b2.basis_monomials[s[i]] == b1.basis_monomials[i]
            for j in range(4):
                for k in range(4):
                    assert c2[s[i]][s[j]][s[k]] == c1[i][j][k]
    assert relabel(order_vertices(p, (1, 2)), order_vertices(p, (2, 1))) != (
        0, 1, 2, 3)


def test_different_assignment_moves_classes_between_vertices():
    # (1,2) sends the middle vertex of the triangle to the edge class and
    # (3,1) to the point class; the per-vertex assignment is order data
    p = simplex(2)
    w1, w2 = order_vertices(p, (1, 2)), order_vertices(p, (3, 1))
    f1, f2 = ascending_faces(p, w1), ascending_faces(p, w2)
    assert f1[1] == frozenset({0})
    assert f2[1] == frozenset({0, 2})
    assert f1 != f2
    pres = build_presentation(p, simplex_charmap(2))
    b1, b2 = compute_basis(pres, w1), compute_basis(pres, w2)
    assert b1.basis_monomials != b2.basis_monomials
    # x0*x1 and x0*x2 are the same class here, so the tensors still agree
    assert b1.groebner.normal_form(var(3, 0) * var(3, 1)) == b2.groebner.normal_form(
        var(3, 0) * var(3, 2))
    assert b1.structure == b2.structure
    assert b1.rank == b2.rank
    assert b1.std_monomials == b2.std_monomials


# --- closed-form oracles ----------------------------------------------------


def simplex_orders():
    """(n, order): every vertex order of the simplices of dimension 1-3, and
    ten distinct seeded draws each on those of dimension 4 and 5."""
    for n in range(1, 6):
        perms = list(itertools.permutations(range(n + 1)))
        if n > 3:
            perms = random.Random(n).sample(perms, 10)
        for perm in perms:
            yield n, perm


@pytest.mark.parametrize("n, perm", [
    pytest.param(n, perm, id=f"simplex{n}-" + "".join(map(str, perm)))
    for n, perm in simplex_orders()])
def test_simplex_structure_in_closed_form(n, perm):
    # every order of the simplex's vertices comes from a height function, and
    # the face at the i-th vertex from the bottom has i facets; with b_i its
    # class, b_i b_j = b_{i+j}, and 0 past n
    pres = build_presentation(simplex(n), simplex_charmap(n))
    b = compute_basis(pres, VertexOrder(perm))
    assert b.structure == tuple((i, j, i + j, 1) for i in range(n + 1)
                                for j in range(n + 1 - i))


@pytest.mark.parametrize("a, c", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)])
def test_product_structure_is_the_tensor_product(a, c):
    # the generic functional on P x Q is P's plus 2^a times Q's, so the face
    # ascending from (v, w) is the product of those ascending from v and w,
    # its class the product of their classes, and each structure constant
    # the product of the factors' constants, matched by facet set
    p, lam_p, q, lam_q = simplex(a), simplex_charmap(a), simplex(c), simplex_charmap(c)
    fp, fq = (compute_basis(build_presentation(x, lam),
                            order_vertices(x, generic_functional(x.dim)))
              for x, lam in ((p, lam_p), (q, lam_q)))
    pq = product(p, q)
    pres = build_presentation(pq, product_charmap(p, lam_p, q, lam_q))
    b = compute_basis(pres, order_vertices(pq, generic_functional(pq.dim)))
    assert b.m == fp.m * fq.m
    index = {fs: i for i, fs in enumerate(b.basis_facet_sets)}

    def joint(i, j):
        shifted = tuple(f + p.facet_count for f in fq.basis_facet_sets[j])
        return index[fp.basis_facet_sets[i] + shifted]

    assert b.structure == tuple(sorted(
        (joint(i, j), joint(k, l), joint(r, s), x * y)
        for i, k, r, x in fp.structure for j, l, s, y in fq.structure))


# --- failure modes ----------------------------------------------------------


def test_infinite_quotient_detected():
    x, y = var(2, 0), var(2, 1)
    with pytest.raises(InfiniteDimensionError):
        quotient_basis(polynomial_presentation([x * y]))


def test_quotient_basis_finite():
    y = var(1, 0)
    gb, std = quotient_basis(polynomial_presentation([(y - 1) ** 3]))
    assert std == (Monomial((0,)), Monomial((1,)), Monomial((2,)))
    assert len(gb.generators) == 1


def test_basis_coords_frozen():
    _, b = triangle_basis()
    x0 = var(3, 0)
    one = (Fraction(0), Fraction(0), Fraction(1))
    assert b.basis_coords(x0 * x0) == one
    assert b.basis_coords(2 + 3 * x0) == (Fraction(2), Fraction(3), Fraction(0))


def deformed_simplices():
    for n, r in ((2, (2, 3)), (3, (2, Fraction(1, 3), 5)), (4, (3, 7, 2, 9))):
        yield pytest.param(simplex(n), simplex_charmap(n), CoefficientSpec(r),
                           id=f"deformed{n}")


@pytest.mark.parametrize(
    "p, lam, coeffs",
    [pytest.param(*rung.values, None, id=rung.id) for rung in face_rungs()]
    + list(deformed_simplices()))
def test_structure_constants_and_coords_match_fraction_accumulation(p, lam, coeffs):
    pres = build_presentation(p, lam, coeffs)
    b = compute_basis(pres, order_vertices(p, generic_functional(p.dim)))
    if coeffs is not None:
        assert any(x.denominator != 1
                   for row in face_change_inverse(b) for x in row)
        # every column of the inverse is over its one denominator
        assert b.change_inverse[0][0] != 1
    d, monos = pres.nvars, b.basis_monomials
    c = dense_structure(b)
    for i, mi in enumerate(monos):
        for j, mj in enumerate(monos):
            prod = Poly(d, {mi * mj: 1})
            assert c[i][j] == fraction_coords(b, prod)
            assert all(type(x) is Fraction for x in c[i][j])
            # coordinates with denominators of their own
            q = Fraction(2, 3) * prod - Fraction(5, 7) * Poly(d, {mi: 1}) + Fraction(1, 4)
            got = b.basis_coords(q)
            assert got == fraction_coords(b, q)
            assert all(type(x) is Fraction for x in got)


@pytest.mark.parametrize(
    "p, lam, coeffs",
    [pytest.param(*rung.values, None, id=rung.id) for rung in face_rungs()]
    + list(deformed_simplices())
    + [pytest.param(*bott_charmap(BottMatrix(4)), None, id="cube4"),
       # its products' sums reach their rows out of order
       pytest.param(*bott_charmap(random_tower(4, random.Random(0))), None,
                    id="seed0-tower4"),
       pytest.param(product(simplex(3), simplex(3)),
                    product_charmap(simplex(3), simplex_charmap(3),
                                    simplex(3), simplex_charmap(3)),
                    None, id="simplex3-simplex3")])
def test_structure_is_its_nonzero_entries(p, lam, coeffs):
    pres = build_presentation(p, lam, coeffs)
    b = compute_basis(pres, order_vertices(p, generic_functional(p.dim)))
    keys = [entry[:3] for entry in b.structure]
    assert keys == sorted(set(keys))  # sorted by (i, j, k), none repeated
    assert all(type(c) is Fraction and c != 0 for *_, c in b.structure)
    d, monos = pres.nvars, b.basis_monomials
    cells = [(i, j, k, x)
             for i, mi in enumerate(monos) for j, mj in enumerate(monos)
             for k, x in enumerate(fraction_coords(b, Poly(d, {mi * mj: 1})))
             if x]
    assert b.structure == tuple(cells)


def polys(st, nvars, degree, size):
    """A hypothesis strategy for Polys over nvars variables: up to size
    terms of degree at most degree, coefficients fractions in [-3, 3]."""
    monos = st.lists(st.integers(0, nvars - 1), max_size=degree).map(
        lambda vs: tuple(vs.count(v) for v in range(nvars)))
    coeffs = st.fractions(-3, 3, max_denominator=6)
    return st.dictionaries(monos, coeffs, max_size=size).map(
        lambda terms: Poly(nvars, terms))


@pytest.mark.parametrize(
    "p, lam, coeffs",
    [pytest.param(*rung.values, None, id=rung.id) for rung in face_rungs()]
    + list(deformed_simplices()))
def test_engine_form_arithmetic_matches_poly_oracle(p, lam, coeffs):
    # evaluate_in_quotient, invert_unit and basis_coords work in the
    # engine's form from the first reduction to the result; the oracles
    # reduce Polys through normal_form at every step
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    pres = build_presentation(p, lam, coeffs)
    b = compute_basis(pres, order_vertices(p, generic_functional(p.dim)))
    gb, d, order = b.groebner, pres.nvars, b.groebner.order
    inverted = []

    @hypothesis.settings(max_examples=12, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.data())
    def check(data):
        k = data.draw(st.integers(1, 3))
        source = data.draw(polys(st, k, 3, 4))
        images = [data.draw(polys(st, d, 2, 3)) for _ in range(k)]
        packed = [_packed(im, order) for im in images]
        assert (_unpacked(*evaluate_in_quotient(source, packed, gb), order)
                == reference_evaluate_in_quotient(source, images, gb))

        q = data.draw(polys(st, d, 3, 5))
        assert b.basis_coords(q) == fraction_coords(b, q)
        den, terms = gb.reduce(_packed(q, order))
        assert type(den) is int and den > 0
        assert all(type(a) is int and a != 0 for a in terms.values())
        assert _unpacked(den, terms, order) == gb.normal_form(q)
        # the input's terms in any order, over any common denominator
        qden, qterms = _packed(q, order)
        doubled = gb.reduce((2 * qden, {m: 2 * a for m, a in
                                        reversed(qterms.items())}))
        assert _unpacked(*doubled, order) == gb.normal_form(q)

        u = q - q.coefficient(Monomial.one(d)) + data.draw(
            st.fractions(-3, 3, max_denominator=6).filter(bool))
        try:
            inv = invert_unit(u, b)
        except NotAUnitError:
            return
        assert b.groebner.normal_form(u * inv - 1).is_zero
        inverted.append(u)

    check()
    assert inverted


def test_integrality_guard_fires(monkeypatch):
    # half the true inverse turns the integral triangle's x0^2 = b_2 into
    # b_2 / 2, which the guard must refuse
    true_inverse = kring.rat_inverse

    def halved(a):
        den, rows = true_inverse(a)
        return 2 * den, rows

    monkeypatch.setattr(kring, "rat_inverse", halved)
    with pytest.raises(KtoricError, match="non integer structure constant"):
        triangle_basis()


def test_intlinalg_gets_sorted_nonzero_pair_rows(monkeypatch):
    # perfbench keys intlinalg's distinct inputs on the rows kring hands
    # over, so equal matrices must give equal rows: each row its nonzero
    # (column, value) pairs in increasing column order, a value an int or a
    # Fraction that is not one
    seen = []
    for name in ("rat_rank", "rat_det", "rat_inverse", "rat_solve"):
        def spy(a, *rest, true=getattr(kring, name), name=name):
            seen.append((name, a))
            return true(a, *rest)
        monkeypatch.setattr(kring, name, spy)

    def handed(call):
        start = len(seen)
        call()
        return [name for name, _ in seen[start:]]

    pres, b = triangle_basis(CoefficientSpec([2, 3]))
    assert [name for name, _ in seen] == ["rat_rank", "rat_det", "rat_inverse"]
    assert handed(lambda: invert_unit(1 - var(3, 0), b)) == ["rat_solve"]
    images = tuple(var(3, j) for j in range(3))
    assert handed(lambda: ring_map_check(pres, images, b, b.std_monomials)) == [
        "rat_det"]
    assert handed(lambda: bott_equivalence(random_tower(3, random.Random(1))))
    fractions = 0
    for name, a in seen:
        for row in a:
            cols = [c for c, _ in row]
            assert cols == sorted(set(cols)), (name, row)
            for _, x in row:
                assert type(x) is int and x != 0 or (
                    type(x) is Fraction and x.denominator != 1), (name, row)
                fractions += type(x) is Fraction
    assert fractions


def test_basis_coords_need_invertible_change():
    _, b = triangle_basis()
    crippled = dataclasses.replace(b, change_inverse=None)
    with pytest.raises(RankDeficientError):
        crippled.basis_coords(var(3, 0))


def test_normal_forms_outside_the_standard_span_are_refused():
    # x0^3 leads a basis generator, so the triangle's standard monomials and
    # the inverse change matrix, keyed by them, both lack it
    _, b = triangle_basis()
    pack = b.groebner.order.pack
    index = {pack(mono): i for i, mono in enumerate(b.std_monomials)}
    outside = pack(Monomial((3, 0, 0)))
    assert outside not in index and outside not in b.change_inverse
    one, x0 = pack(Monomial.one(3)), pack(Monomial((1, 0, 0)))
    assert kring._matrix([(2, {one: 4, x0: 1})], index) == [
        [(0, 2)], [(0, Fraction(1, 2))], []]
    assert kring._accumulate(b.change_inverse, (3, {x0: 1})) == (3, {1: 1})
    span = "normal form left the standard monomial span"
    with pytest.raises(KtoricError, match=span):
        kring._matrix([(1, {one: 1}), (1, {outside: 1})], index)
    with pytest.raises(KtoricError, match=span):
        kring._matrix([(1, {3: 1})], range(3))
    with pytest.raises(KtoricError, match=span):
        kring._accumulate(b.change_inverse, (1, {one: 1, outside: 1}))


def test_budget_propagates_through_compute_basis():
    p = cube(2)
    pres = build_presentation(p, hirzebruch(1))
    with pytest.raises(BudgetExceededError):
        compute_basis(pres, order_vertices(p, (1, 2)), budget=1)


def test_bad_order_fails_before_buchberger():
    # the order is checked first, so no budget hides it
    p = cube(2)
    pres = build_presentation(p, hirzebruch(1))
    with pytest.raises(OrderPropertyError, match="face at vertex 3"):
        compute_basis(pres, VertexOrder((0, 3, 1, 2)), budget=0)


def test_cap_propagates_through_quotient_basis():
    x, y = var(2, 0), var(2, 1)
    with pytest.raises(BudgetExceededError,
                       match="quotient basis holds more than 100000 monomials"):
        quotient_basis(polynomial_presentation([x ** 400, y ** 400]))


# --- ring axioms of the structure constants -------------------------------


def assert_ring_axioms(pres, b):
    """b_i * b_j = sum_k c[i][j][k] b_k defines a commutative, associative
    ring whose unit is the class of the lowest vertex; with all
    coefficients 1 the constants are integers."""
    c, m = dense_structure(b), b.m
    assert b.basis_monomials[0].degree == 0  # the lowest vertex's face is P
    unit = [tuple(Fraction(int(k == j)) for k in range(m)) for j in range(m)]
    for i in range(m):
        assert c[0][i] == unit[i] and c[i][0] == unit[i]
        for j in range(m):
            assert c[i][j] == c[j][i]
            if pres.coeffs.integral:
                assert all(x.denominator == 1 for x in c[i][j])

    def times(vec, k):  # (sum_l vec[l] b_l) * b_k in coordinates
        out = [Fraction(0)] * m
        for l, x in enumerate(vec):
            if x:
                for s, y in enumerate(c[l][k]):
                    out[s] += x * y
        return out

    for i in range(m):
        for j in range(m):
            for k in range(m):
                # (b_i b_j) b_k == (b_j b_k) b_i, given commutativity
                assert times(c[i][j], k) == times(c[j][k], i)


@pytest.mark.parametrize("p, lam", list(face_rungs()))
def test_structure_constants_satisfy_ring_axioms(p, lam):
    pres = build_presentation(p, lam)
    b = compute_basis(pres, order_vertices(p, generic_functional(p.dim)))
    assert b.rank == b.m == p.vertex_count
    assert_ring_axioms(pres, b)


def signed_cuts():
    """(polytope, facet vectors, signs): the simplices of dimension 2 and 3
    with their last vertex cut 2/7 of the way along its edges, the new facet
    labeled with each sign pattern. All +1 is the toric blow-up; the mixed
    patterns label quasitoric manifolds that are not toric."""
    for n in (2, 3):
        for signs in itertools.product((1, -1), repeat=n):
            yield pytest.param(
                *truncate(simplex(n), simplex_charmap(n), n, Fraction(2, 7), signs),
                signs, id=f"simplex{n}-cut" + "".join("+-"[s < 0] for s in signs))


def every_base_vertex(p, lam):
    """compute_basis at each base vertex in turn, one vertex order."""
    vo = order_vertices(p, generic_functional(p.dim))
    return [compute_basis(build_presentation(p, CharacteristicMap(lam.vectors, w)), vo)
            for w in range(p.vertex_count)]


@pytest.mark.parametrize("p, lam, signs", list(signed_cuts()))
def test_signed_cut_is_one_ring_at_every_base_vertex(p, lam, signs):
    results = every_base_vertex(p, lam)
    assert all(b.rank == b.m == p.vertex_count for b in results)
    assert len({b.structure for b in results}) == 1
    # the covector relations alone leave the quotient infinite or too large
    # at some base vertex of each mixed cut, and only there do the x_j^(dim+1)
    # join the ideal
    fired = [b for b in results if b.presentation.nilpotent_gens]
    assert bool(fired) == (len(set(signs)) > 1)
    powers = tuple(var(p.facet_count, j) ** (p.dim + 1) for j in range(p.facet_count))
    assert all(b.presentation.nilpotent_gens == powers for b in fired)
    assert_ring_axioms(results[-1].presentation, results[-1])


def test_nilpotent_relations_only_in_the_integral_case():
    # with other coefficients x_j^(dim+1) need not hold, so a quotient too
    # large for the face classes is still refused
    p, lam = truncate(simplex(2), simplex_charmap(2), 2, Fraction(2, 7), (1, -1))
    vo = order_vertices(p, generic_functional(2))
    lam = CharacteristicMap(lam.vectors, 1)
    assert compute_basis(build_presentation(p, lam), vo).presentation.nilpotent_gens
    pres = build_presentation(p, lam, CoefficientSpec((2, 3)))
    with pytest.raises(KtoricError, match="quotient rank 5 exceeds the vertex count 4"):
        compute_basis(pres, vo)


def test_signed_ladders_are_one_ring_at_every_base_vertex_property():
    # one to three signed cuts of the 2- and 3-simplex, one or two of the
    # 4-simplex, at any vertex, with depths off 1/3: a depth of 1/3
    # everywhere makes the generic functional tie on most 3-dimensional
    # ladders
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    depths = st.sampled_from([Fraction(2, 7), Fraction(3, 8), Fraction(4, 11),
                              Fraction(5, 13), Fraction(5, 17), Fraction(9, 20)])
    fired = []

    @st.composite
    def ladders(draw):
        n = draw(st.integers(2, 4))
        p, lam = simplex(n), simplex_charmap(n)
        for _ in range(draw(st.integers(1, 3 if n < 4 else 2))):
            w = draw(st.integers(0, p.vertex_count - 1))
            signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
            p, lam = truncate(p, lam, w, draw(depths), signs)
        return p, lam

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(ladders())
    def check(case):
        p, lam = case
        results = every_base_vertex(p, lam)
        assert all(b.rank == b.m == p.vertex_count for b in results)
        assert len({b.structure for b in results}) == 1
        fired.extend(b for b in results if b.presentation.nilpotent_gens)

    check()
    assert fired


def assert_graded_like_cohomology(b, h):
    """The structure constants of b against h, the cohomology constants of
    the same polytope and facet vectors in b's face classes (see
    oracles.cohomology_structure): c_ij^k is 0 when |F_k| < |F_i| + |F_j|,
    and H's constant when |F_k| = |F_i| + |F_j|. When the rank is the vertex
    count the associated graded of the degree filtration is H, and the
    leading form of b_w is v_{F_w}."""
    size = [len(fs) for fs in b.basis_facet_sets]
    assert all(size[k] >= size[i] + size[j] for i, j, k, _ in b.structure)
    level = {}
    for i, j, k, c in b.structure:
        if size[k] == size[i] + size[j]:
            level.setdefault((i, j), {})[k] = c
    assert level == {ij: row for ij, row in h.items() if row}


@pytest.mark.parametrize(
    "p, lam",
    list(face_rungs())
    + [pytest.param(*cut.values[:2], id=cut.id) for cut in signed_cuts()])
def test_face_classes_are_graded_like_cohomology(p, lam):
    pytest.importorskip("sympy")
    results = every_base_vertex(p, lam)
    h = cohomology_structure(p, lam, results[0].basis_facet_sets)
    for b in results:
        assert b.rank == b.m == p.vertex_count
        assert_graded_like_cohomology(b, h)


def towers(st):
    """A hypothesis strategy for the towers of height 1-3 with twists in
    [-3, 3]."""

    def tower(n):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        return st.lists(st.integers(-3, 3), min_size=len(pairs),
                        max_size=len(pairs)).map(
            lambda vals: BottMatrix(
                n, [(i, j, v) for (i, j), v in zip(pairs, vals)]))

    return st.integers(1, 3).flatmap(tower)


def towers_and_squares(st):
    """A hypothesis strategy for (polytope, charmap): the cubes of the
    towers of towers(st) and the twisted squares with twists in [-4, 4]."""
    return st.one_of(towers(st).map(bott_charmap),
                     st.integers(-4, 4).map(twisted_square))


def test_covector_redundancy_property():
    # the relation of any covector, not only of the dual basis's, lies in
    # the ideal the presentation generates
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(towers_and_squares(st), st.randoms(use_true_random=False))
    def check(case, rng):
        p, lam = case
        covectors_reduce_to_zero(p, lam, None, generic_functional(p.dim), rng, 1)

    check()


def test_covector_relation_is_a_product_of_powers_property():
    # the relation's binomial expansions against repeated multiplication:
    # the product of the (1 - x_j)^e where u(v_j) = e > 0, minus the
    # product of the (1 - x_j)^-e where e < 0, all coefficients 1, less
    # exactly the terms whose support contains a minimal nonface, which lie
    # in the face ideal
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    dropped_any = []

    @hypothesis.settings(max_examples=50, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(towers(st).map(bott_charmap), st.data())
    def check(case, data):
        p, lam = case
        pres = build_presentation(p, lam)
        u = Covector(tuple(data.draw(st.lists(
            st.integers(-4, 4), min_size=p.dim, max_size=p.dim))))
        d = pres.nvars
        pos = neg = Poly.one(d)
        for j, v in enumerate(pres.charmap.vectors):
            e = u(v)
            if e > 0:
                pos = pos * (1 - var(d, j)) ** e
            elif e < 0:
                neg = neg * (1 - var(d, j)) ** -e
        full = (pos - neg).terms
        nonfaces = minimal_nonfaces(p)

        def on_nonface(mono):
            support = {j for j, _ in mono.exponents}
            return any(support.issuperset(nf) for nf in nonfaces)

        got = covector_relation(pres.charmap, u, pres.coeffs, pres.base_facets,
                                nonfaces)
        assert got == Poly(d, {m: c for m, c in full.items() if not on_nonface(m)})
        dropped = full.keys() - got.terms.keys()
        assert all(on_nonface(m) for m in dropped)
        dropped_any.extend(dropped)

    check()
    assert dropped_any


def test_structure_constants_satisfy_ring_axioms_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(towers_and_squares(st))
    def check(case):
        p, lam = case
        pres = build_presentation(p, lam)
        assert_ring_axioms(
            pres, compute_basis(pres, order_vertices(p, generic_functional(p.dim))))

    check()
