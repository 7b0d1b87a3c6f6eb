"""End-to-end checks, one printed verdict per criterion.

Run directly (python tests/test_acceptance.py) or through pytest -s.
"""

import random

from ktoric import (
    BottMatrix,
    CartanWord,
    CoefficientSpec,
    Covector,
    DegRevLex,
    Poly,
    bott_charmap,
    bott_equivalence,
    bott_samelson_presentation,
    build_presentation,
    cartan_matrix,
    compute_basis,
    covector_relation,
    cube,
    invert_unit,
    involution_check,
    laurent_rank,
    minimal_nonfaces,
    order_vertices,
    product,
    product_charmap,
    quotient_basis,
    ring_map_check,
    simplex,
    simplex_charmap,
)
from ktoric.polyring import render_poly

from ladder import generic_functional, random_tower
from oracles import dense_structure, is_groebner, polynomial_presentation


def verdict(label, ok, detail):
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def face_basis(p, lam, coeffs=None):
    pres = build_presentation(p, lam, coeffs)
    return pres, compute_basis(pres, order_vertices(p, generic_functional(p.dim)))


def test_criterion_1_simplex_is_truncated_polynomial_ring():
    ok = True
    for n in range(1, 5):
        pres, b = face_basis(simplex(n), simplex_charmap(n))
        y = Poly.variable(1, 0)
        src = polynomial_presentation([(y - 1) ** (n + 1)], var_names=("y",))
        rep = ring_map_check(src, (invert_unit(1 - Poly.variable(n + 1, 0), b),),
                             b, quotient_basis(src)[1])
        ok = ok and b.rank == n + 1 and rep.ok and rep.unimodular
    verdict("ACCEPTANCE 1", ok,
            "simplex rank n+1 and unit-class map onto Z[y]/(y-1)^(n+1), n=1..4")


def test_criterion_2_deformed_simplex():
    ok = True
    for n in range(1, 4):
        r = [k + 2 for k in range(n)]
        pres, b = face_basis(simplex(n), simplex_charmap(n),
                             CoefficientSpec(r))
        y = 1 - Poly.variable(n + 1, 0)
        rel = Poly.one(n + 1)
        for rk in [1] + r:
            rel = rel * (1 - rk * y)
        ok = ok and b.rank == n + 1 and b.normal_form(rel).is_zero
    verdict("ACCEPTANCE 2", ok,
            "deformed simplex keeps rank n+1 and kills prod(1 - r_i(1 - x0)), n=1..3")


def test_criterion_3_rank_equals_vertex_count():
    rng = random.Random(5)
    cases = []
    for n in range(1, 5):
        cases.append((simplex(n), simplex_charmap(n), None))
    for n in range(1, 4):
        for _ in range(5):
            cases.append(bott_charmap(random_tower(n, rng)) + (None,))
    prism = product(simplex(1), simplex(2))
    cases.append((prism,
                  product_charmap(simplex(1), simplex_charmap(1),
                                  simplex(2), simplex_charmap(2)), None))
    from ktoric import CharacteristicMap
    for a in (0, 1, 2):
        cases.append((cube(2),
                      CharacteristicMap(((1, 0), (-1, a), (0, 1), (0, -1)),
                                        base_vertex=0), None))
    ok = True
    for p, lam, coeffs in cases:
        pres, b = face_basis(p, lam, coeffs)
        ok = ok and b.rank == len(p.vertices) and b.rank == b.m and not b.warnings
    verdict("ACCEPTANCE 3", ok,
            f"rank = vertex count on {len(cases)} labeled polytopes")


def test_criterion_4_tower_equivalence():
    rng = random.Random(17)
    towers = ([BottMatrix(1)] + [BottMatrix(2, [(1, 2, v)]) for v in range(-2, 3)]
              + [random_tower(3, rng) for _ in range(25)])
    ok = True
    for c in towers:
        rep = bott_equivalence(c)
        ok = (ok and rep.ok and rep.unimodular
              and rep.dst_rank == rep.src_rank == 2 ** c.n)
    verdict("ACCEPTANCE 4", ok,
            "cube ring and stagewise ring are the same: n=1, all |c|<=2 at n=2, 25 random n=3")


def test_criterion_5_word_towers():
    a2 = cartan_matrix("A", 2)
    bs = bott_samelson_presentation(CartanWord(a2, (1, 2)))
    order = DegRevLex.standard(bs.nvars)
    rendered = [render_poly(g, bs.var_names, order) for g in bs.ideal_gens]
    ok = rendered[:2] == ["y1^2 - 2*y1 + 1", "-y1*y2 + y2^2 + y1 - y2"]
    ok = ok and len(quotient_basis(bs)[1]) == 4
    ok = ok and len(quotient_basis(
        bott_samelson_presentation(CartanWord(a2, (1, 2, 1))))[1]) == 8
    ok = ok and len(quotient_basis(
        bott_samelson_presentation(CartanWord(cartan_matrix("A", 1), (1,))))[1]) == 2
    verdict("ACCEPTANCE 5", ok,
            "word relations match the hand computation; ranks 4, 8, 2 for (1,2), (1,2,1), (1)")


def face_classes_are_integral_basis(b, d):
    """The face classes span the image of the integer polynomial ring exactly
    when 1 has integer coordinates, the structure constants are integers, and
    each generator times each class stays integral; the basis change to any
    integer basis of that image then has determinant +-1. The standard
    monomials do NOT certify this: their lattice can be strictly finer."""
    from fractions import Fraction
    for row in dense_structure(b):
        for cell in row:
            if any(c.denominator != 1 for c in cell):
                return False
    classes = [Poly(d, {m: 1}) for m in b.basis_monomials]
    for j in range(d):
        xj = Poly.variable(d, j)
        for cls in classes:
            if any(c.denominator != 1 for c in b.basis_coords(xj * cls)):
                return False
    return True


def relabel(w1, w2):
    return tuple(w2.positions[v] for v in w1.order)


def test_criterion_6_invariants():
    from ktoric import (CharacteristicMap, ascending_faces, bott_presentation,
                        involution_check)
    rng = random.Random(23)
    # last entry: a second functional expected to induce the same ascending
    # faces (the tensor must then agree) or different ones (only the ideal
    # side is order-free; the tensor follows the assignment, not the ring)
    catalog = [
        (simplex(2), simplex_charmap(2), CoefficientSpec([2, 3]), (2, 3), True),
        (simplex(2), simplex_charmap(2), None, (3, 1), False),
        (cube(2), CharacteristicMap(((1, 0), (-1, 1), (0, 1), (0, -1)),
                                    base_vertex=0), None, (3, 1), True),
        (cube(2), bott_charmap(BottMatrix(2, [(1, 2, 2)]))[1],
         None, (3, 1), True),
        (product(simplex(1), simplex(2)),
         product_charmap(simplex(1), simplex_charmap(1),
                         simplex(2), simplex_charmap(2)), None, (2, 3, 7), True),
    ]
    ok = True
    nontrivial_relabels = 0
    for p, lam, coeffs, second, same_faces in catalog:
        pres, b = face_basis(p, lam, coeffs)
        d, n = p.facet_count, p.dim
        # every covector relation already lies in the ideal
        for _ in range(100):
            u = Covector(tuple(rng.randint(-3, 3) for _ in range(n)))
            z = covector_relation(pres.charmap, u, pres.coeffs, pres.base_facets,
                                  minimal_nonfaces(p))
            ok = ok and b.normal_form(z).is_zero
        ok = ok and b.rank <= b.m
        if pres.coeffs.integral:
            # facet classes are nilpotent of order dim + 1
            for j in range(d):
                ok = ok and b.normal_form(Poly.variable(d, j) ** (n + 1)).is_zero
            ok = ok and face_classes_are_integral_basis(b, d)
        # the height functional never changes the ideal side of the answer
        w1 = order_vertices(p, generic_functional(n))
        w2 = order_vertices(p, second)
        other = compute_basis(pres, w2)
        ok = (ok and other.rank == b.rank
              and other.std_monomials == b.std_monomials
              and other.groebner.generators == b.groebner.generators)
        ok = ok and (ascending_faces(p, w1) == ascending_faces(p, w2)) == same_faces
        if same_faces:
            c1, c2 = dense_structure(b), dense_structure(other)
            s = relabel(w1, w2)
            if s != tuple(range(b.rank)):
                nontrivial_relabels += 1
            for i in range(b.rank):
                for j in range(b.rank):
                    for k in range(b.rank):
                        ok = ok and c2[s[i]][s[j]][s[k]] == c1[i][j][k]
    ok = ok and nontrivial_relabels >= 2
    # the duality swapping each stage class with its inverse is a ring map
    for v in range(-2, 3):
        ok = ok and involution_check(
            bott_presentation(BottMatrix(2, [(1, 2, v)])))
    ok = ok and involution_check(bott_samelson_presentation(
        CartanWord(cartan_matrix("A", 2), (1, 2, 1))))
    # the rational determinant, on rows of nonzero (column, value) pairs,
    # agrees with the int one on int matrices
    from ktoric.intlinalg import det_int, rat_det
    for _ in range(5):
        a = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        pairs = [[(c, x) for c, x in enumerate(row) if x] for row in a]
        ok = ok and rat_det(pairs) == det_int(a)
    # a finished basis reduces every S-polynomial to zero
    pres, _ = face_basis(simplex(2), simplex_charmap(2))
    gb = buchberger_of(pres)
    ok = ok and is_groebner(gb.generators, pres.order)
    verdict("ACCEPTANCE 6", ok,
            "covector redundancy, nilpotency, rank bound, integrality, "
            "functional independence, involution, linear algebra oracles")


def test_criterion_7_frontier_inside_the_default_budget():
    lp = bott_samelson_presentation(
        CartanWord(cartan_matrix("A", 3), (1, 2, 1, 3, 2, 1)))
    rank = laurent_rank(lp)
    ok = rank == 64 and involution_check(lp)
    ok = ok and bott_equivalence(random_tower(5, random.Random(17))).ok
    verdict("ACCEPTANCE 7", ok,
            f"A3 longest word rank {rank} of 64 with the involution, and the "
            "seed-17 height-5 tower cross-check, under the default budget")


def buchberger_of(pres):
    from ktoric.polyring import buchberger
    return buchberger(pres.nonface_gens + pres.covector_gens, pres.order)


if __name__ == "__main__":
    import sys
    failed = 0
    # every criterion in the module, in name order
    for name in sorted(n for n in globals() if n.startswith("test_criterion_")):
        try:
            globals()[name]()
        except AssertionError:
            failed += 1
    sys.exit(1 if failed else 0)
