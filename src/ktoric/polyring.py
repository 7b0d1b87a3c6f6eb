"""Exact multivariate polynomials, division, and Groebner bases.

Coefficients are rational, monomials are dense exponent tuples over a fixed
number of variables. Inside the Groebner engine a monomial is one int, packed
by its DegRevLex order. Everything here is deterministic: ties are broken by
the monomial order and then by generator position, so repeated runs produce
identical bases.
"""

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm
from operator import add

from .errors import BudgetExceededError, KtoricError
from .validation import strict_int, strict_rational

# most standard monomials standard_monomials will collect
RANK_CAP = 100000
# default cap on the cancellation steps of one basis computation: about 1.9
# times the 3678 of the largest run measured (seed-17 height-6 cube)
DEFAULT_BUDGET = 7000
# bits per field of a packed monomial, the top one a guard bit
FIELD_BITS = 16
# largest degree a packed monomial may have: every exponent and the degree
# then fit below the guard bit of their field; also the mask of the bits
# below it
DEGREE_LIMIT = (1 << FIELD_BITS - 1) - 1


class Monomial(tuple):
    """An exponent tuple over a fixed number of variables. It hashes and
    compares as the plain tuple of its exponents, so either can look up a
    term of a polynomial."""

    __slots__ = ()

    def __new__(cls, exps):
        exps = tuple(map(strict_int, exps))
        if any(e < 0 for e in exps):
            raise ValueError("exponents must be nonnegative")
        return tuple.__new__(cls, exps)

    _raw = classmethod(tuple.__new__)  # unchecked, for exponents known valid

    @classmethod
    def one(cls, nvars):
        return cls._raw((0,) * nvars)

    @classmethod
    def variable(cls, nvars, index, power=1):
        if not 0 <= index < nvars:
            raise ValueError("variable index out of range")
        return cls._raw(power if i == index else 0 for i in range(nvars))

    @property
    def exps(self):
        return self

    @property
    def nvars(self):
        return len(self)

    @property
    def degree(self):
        return sum(self)

    @property
    def exponents(self):
        """Sparse view: (index, exponent) for the variables that occur."""
        return tuple((i, e) for i, e in enumerate(self) if e)

    def __mul__(self, other):
        return Monomial._raw(map(add, self, other))

    def pure_power(self):
        """(index, exponent) when only one variable occurs, else None."""
        nz = self.exponents
        return nz[0] if len(nz) == 1 else None


class DegRevLex:
    """Degree order refined reverse-lexicographically.

    priority lists variable indices from most to least significant. Two
    orders compare equal exactly when their priorities do.

    The order packs monomials into the ints the Groebner engine works on
    (Bachmann-Schoenemann, ISSAC 1998), and its one key is the packed int's.
    Field k, FIELD_BITS wide from bit k*FIELD_BITS, holds the exponent of
    variable priority[k], and the field above the last holds the degree.
    The top bit of each field is a guard, clear while the degree is at most
    DEGREE_LIMIT. So a product is a + b and a quotient a - b; a divides b
    when ((b | guards) - a) & guards == guards, since no exponent field
    borrows from the next and a guard survives where b's exponent is at
    least a's. packed_key complements the exponent fields, so that comparing
    keys compares degrees first, then the exponents of the last variable in
    priority, reversed, and so on; key(mono) is the packed_key of
    pack(mono).
    """

    __slots__ = ("priority", "nvars", "_rev", "pack", "unpack", "guards",
                 "_low", "_spread", "_degree_field", "packed_key")

    def __init__(self, priority):
        priority = tuple(map(strict_int, priority))
        if sorted(priority) != list(range(len(priority))):
            raise ValueError("priority must be a permutation of the variables")
        self.priority = priority
        self.nvars = len(priority)
        self._rev = tuple(reversed(priority))
        # pack(mono): the packed int of an exponent tuple, ValueError unless
        # it has nvars exponents, KtoricError past DEGREE_LIMIT; unpack(p):
        # the Monomial of a packed int; each memoized
        self.pack = cache(self._pack)
        self.unpack = cache(self._unpack)
        top = self.nvars * FIELD_BITS
        ones = sum(1 << k for k in range(0, top, FIELD_BITS))
        self.guards = ones << FIELD_BITS - 1
        self._low = self.guards - ones  # every value bit of an exponent field
        # the product of the exponent fields with _spread holds their sum in
        # the degree field: no partial sum reaches a guard bit
        self._spread = ones << FIELD_BITS
        self._degree_field = ((1 << FIELD_BITS) - 1) << top
        self.packed_key = self._low.__xor__

    @classmethod
    def standard(cls, nvars):
        return cls(range(nvars))

    def key(self, mono):
        return self.packed_key(self.pack(mono))

    def _pack(self, mono):
        if len(mono) != self.nvars:
            raise ValueError(f"a monomial over {len(mono)} variables met an "
                             f"order over {self.nvars}")
        p = within_degree_limit(sum(mono))
        for v in self._rev:
            p = p << FIELD_BITS | mono[v]
        return p

    def _unpack(self, p):
        exps = [0] * self.nvars
        for v in self.priority:
            exps[v] = p & DEGREE_LIMIT
            p >>= FIELD_BITS
        return Monomial._raw(exps)

    def degree(self, p):
        return p >> self.nvars * FIELD_BITS

    def divides(self, a, b):
        g = self.guards
        return ((b | g) - a) & g == g

    def lcm(self, a, b):
        """The packed lcm of two packed monomials. Its degree may pass
        DEGREE_LIMIT, up to twice that, as long as it forms no product."""
        g = ((a | self.guards) - b) & self.guards  # where a's exponent wins
        wins = g - (g >> FIELD_BITS - 1)
        e = a & wins | b & (self._low ^ wins)
        return e | e * self._spread & self._degree_field

    def __eq__(self, other):
        return isinstance(other, DegRevLex) and self.priority == other.priority

    def __hash__(self):
        return hash(self.priority)

    def __repr__(self):
        return f"DegRevLex({self.priority})"


def within_degree_limit(degree):
    if degree > DEGREE_LIMIT:
        raise KtoricError(
            f"a monomial of degree {degree} is past the packed-monomial "
            f"degree limit {DEGREE_LIMIT}")
    return degree


class Poly:
    """A polynomial as a monomial-to-coefficient map. Zero coefficients are
    never stored; the zero polynomial has an empty map."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=()):
        self.nvars = strict_int(nvars)
        clean = {}
        for mono, coeff in dict(terms).items():
            if not isinstance(mono, Monomial):
                mono = Monomial(mono)
            if mono.nvars != self.nvars:
                raise ValueError("monomial has the wrong number of variables")
            coeff = strict_rational(coeff)
            if coeff:
                clean[mono] = coeff
        self.terms = clean

    @classmethod
    def _raw(cls, nvars, terms):
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, nvars):
        return cls._raw(nvars, {})

    @classmethod
    def one(cls, nvars):
        return cls._raw(nvars, {Monomial.one(nvars): Fraction(1)})

    @classmethod
    def constant(cls, nvars, c):
        c = strict_rational(c)
        return cls._raw(nvars, {Monomial.one(nvars): c} if c else {})

    @classmethod
    def variable(cls, nvars, index):
        return cls._raw(nvars, {Monomial.variable(nvars, index): Fraction(1)})

    @property
    def is_zero(self):
        return not self.terms

    def coefficient(self, mono):
        return self.terms.get(mono, Fraction(0))

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("polynomials live over different variable sets")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        self._check(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono)
            s = coeff if s is None else s + coeff
            if s:
                out[mono] = s
            else:
                del out[mono]
        return Poly._raw(self.nvars, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Poly._raw(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return Poly.constant(self.nvars, other).__sub__(self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = strict_rational(other)
            if not c:
                return Poly.zero(self.nvars)
            return Poly._raw(self.nvars, {m: co * c for m, co in self.terms.items()})
        self._check(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                s = out.get(m)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Poly._raw(self.nvars, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        n = strict_int(n)
        if n < 0:
            raise ValueError("negative powers are not defined here")
        out = Poly.one(self.nvars)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        parts = [f"{c}*{tuple(m)}" for m, c in sorted(self.terms.items())]
        return "Poly(" + " + ".join(parts) + ")"


class _Budget:
    """Counts the cancellation steps of one stage, one per reducible monomial
    whose normal form is worked out; raises once the allowance is spent."""

    __slots__ = ("stage", "limit", "left")

    def __init__(self, limit, stage):
        self.stage = stage
        self.limit = limit
        self.left = limit

    def spend(self):
        if self.left <= 0:
            raise BudgetExceededError(
                f"{self.stage} budget exhausted after {self.limit} cancellation "
                "steps; raise the budget to continue")
        self.left -= 1


def _packed(p, order):
    """p as the engine holds it, (den, terms): terms maps its monomials,
    packed by order, to nonzero int numerators over the lcm den of its
    denominators. ValueError unless p, zero too, has order's nvars."""
    if p.nvars != order.nvars:
        raise ValueError(f"a Poly over {p.nvars} variables met an order over "
                         f"{order.nvars}")
    pack = order.pack
    den = lcm(*[c.denominator for c in p.terms.values()])
    return den, {pack(m): c.numerator * (den // c.denominator)
                 for m, c in p.terms.items()}


def _unpacked(den, terms, order):
    """The Poly of the engine's map terms of int numerators over den, its
    monomials packed by order."""
    unpack = order.unpack
    return Poly._raw(order.nvars,
                     {unpack(m): Fraction(a, den) for m, a in terms.items()})


def _head(terms, order):
    """The head of the nonzero polynomial whose map terms takes its
    monomials, packed by order, to int numerators: its leading monomial lm,
    a positive int den and the rule ((t, a), ...) of its tail monomials t,
    largest first, so that modulo the polynomial lm is the sum of the
    (a/den)*t. The gcd of the numerators, with the sign of the leading one,
    brings the ratios a/den to lowest terms over their least common
    denominator. The one place that orders a polynomial's terms."""
    lm, *tail = sorted(terms, key=order.packed_key, reverse=True)
    a = terms[lm]
    g = gcd(*terms.values())
    if a < 0:
        g = -g
    return lm, a // g, tuple((t, -terms[t] // g) for t in tail)


def _combine(pairs, table):
    """The sum of a * table[t] over the pairs (t, a), each a a nonzero int,
    as (den, terms): terms maps monomials to nonzero int numerators over the
    lcm den of the entries' denominators. One pair (t, 1) gives the entry
    table[t] itself."""
    if len(pairs) == 1:
        (t, a), = pairs
        if a == 1:
            return table[t]
    entries = [(a, table[t]) for t, a in pairs]
    den = lcm(*[d for _, (d, _) in entries])
    acc = {}
    for a, (d, terms) in entries:
        a *= den // d
        for m, c in terms.items():
            acc[m] = acc.get(m, 0) + a * c
    return den, {m: c for m, c in acc.items() if c}


def _fill(table, monos, heads, order, budget):
    """Give each of monos, packed by order, an entry in table: its normal
    form by heads, as (den, {m: a}), int numerators a over one positive
    denominator den in lowest terms; modulo heads the monomial is the sum of
    the (a/den)*m, as a head's leading monomial is. Entries are shared, by
    _combine's results too, and never changed once made.

    Division that cancels the largest monomial against the first head
    dividing it is linear, and each monomial's remainder depends on the
    monomial and the heads alone (Cox-Little-O'Shea, ch. 2 section 3): the
    first head dividing it leaves (a / den) * t * factor for each term (t, a)
    of its rule, all smaller than it. So an entry is that combination of
    smaller entries, made here bottom-up with an explicit stack. budget,
    when given, is spent once for each entry made for a reducible monomial.
    """
    g = order.guards
    stack = list(monos)
    while stack:
        m = stack[-1]
        if m in table:
            stack.pop()
            continue
        mg = m | g
        # the first head whose leading monomial divides m; see DegRevLex
        for lm, den, rule in heads:
            if (mg - lm) & g == g:
                break
        else:
            table[m] = (1, {m: 1})
            stack.pop()
            continue
        if not rule:
            # a monomial head: m is 0 modulo it
            if budget is not None:
                budget.spend()
            table[m] = (1, {})
            stack.pop()
            continue
        factor = m - lm
        tail = [(t + factor, a) for t, a in rule]
        missing = [t for t, _ in tail if t not in table]
        if missing:
            stack.extend(missing)
            continue
        if budget is not None:
            budget.spend()
        common, terms = _combine(tail, table)
        den *= common
        c = gcd(den, *terms.values())
        table[m] = ((den, terms) if c == 1 else
                    (den // c, {t: a // c for t, a in terms.items()}))
        stack.pop()


def _reduce(terms, heads, order, budget, table):
    """Normal form by heads, as built by _head, of the sum of the a*t
    over the map terms {t: a}, each t packed and each a a nonzero int, as
    (den, terms) from _combine: the entries of the t combined, made by _fill
    as needed and kept in table. A table serves one head sequence, or one
    that has grown by appending once the entries it made stale are dropped."""
    if not terms.keys() <= table.keys():
        _fill(table, terms, heads, order, budget)
    return _combine(terms.items(), table)


def s_polynomial(hi, hj, l):
    """The S-polynomial of the monic generators of two heads whose leading
    monomials have the lcm l, as a map {m: a} of nonzero int numerators over
    the lcm of the heads' denominators. The leading monomials cancel, which
    leaves each head's rule, negated for hi, times the cofactor of its
    leading monomial in l."""
    (li, di, ri), (lj, dj, rj) = hi, hj
    ui, uj = l - li, l - lj
    den = lcm(di, dj)
    si, sj = den // di, den // dj
    out = {t + ui: -a * si for t, a in ri}
    for t, a in rj:
        m = t + uj
        c = out.get(m, 0) + a * sj
        if c:
            out[m] = c
        else:
            del out[m]
    return out


def _interreduce(heads, order, table):
    """Heads of the reduced basis, from the heads of a Groebner basis and a
    table of normal forms by them: each leading monomial that no other
    divides, smallest first, with its normal form as rule. Modulo a
    Groebner basis the normal form is unique, so it is the same through
    every head and free of every leading monomial."""
    key, divides = order.packed_key, order.divides
    kept = []
    for lm, _, _ in sorted(heads, key=lambda h: key(h[0])):
        if not any(divides(k, lm) for k in kept):
            kept.append(lm)
    forms = [_reduce({lm: 1}, heads, order, None, table) for lm in kept]
    return [_head({lm: den, **{t: -a for t, a in terms.items()}}, order)
            for lm, (den, terms) in zip(kept, forms)]


@dataclass(frozen=True, eq=False)
class GroebnerBasis:
    """A reduced basis as the engine holds it: the heads of its generators
    (see _head), their monomials packed by order, and the table of normal
    forms by those heads (see _fill). buchberger hands over its run's table:
    every entry left in it is a remainder modulo a Groebner basis, so the
    unique normal form, which the basis's own heads give as well."""

    heads: tuple
    order: DegRevLex
    table: dict

    @cached_property
    def generators(self):
        """The basis as monic Polys, built from the heads when first read."""
        return tuple(
            _unpacked(den, {lm: den, **{t: -a for t, a in rule}}, self.order)
            for lm, den, rule in self.heads)

    def leading_monomials(self):
        return tuple(self.order.unpack(h[0]) for h in self.heads)

    def reduce(self, x, budget=None):
        """Normal form of x = (den, terms), the engine's form that _packed
        makes: terms maps monomials packed by the basis's order to nonzero
        int numerators over a positive int den. Returned in that form, its
        map possibly a table entry's own, which must not be changed. budget,
        a _Budget when given, is spent once per table entry made."""
        den, terms = x
        common, terms = _reduce(terms, self.heads, self.order, budget, self.table)
        return den * common, terms

    def normal_form(self, p, budget=None):
        """Normal form of the Poly p as a Poly: reduce's one Poly edge."""
        return _unpacked(*self.reduce(_packed(p, self.order), budget), self.order)


def buchberger(gens, order, budget=DEFAULT_BUDGET):
    """Groebner basis by critical pairs, normal selection strategy.

    Each pair enters a heap once, when its second generator joins the basis,
    keyed by the order key of the least common multiple of the two leading
    monomials (degree first) and then by the generator indices; pairs are
    popped smallest key first. A popped pair with coprime leading monomials
    is dropped, as is one subsumed by a third generator whose pairs with
    both have already been popped. Every pair among the current generators
    is queued, so "already popped" is held as one set per generator, of the
    partners of its popped pairs, and the third generators to try are the
    intersection of the pair's two sets. budget caps the cancellation steps
    of the run, one per table entry made for a reducible monomial, including
    one made again after a new head left it stale; BudgetExceededError means
    the cap was hit, not that the computation would diverge.

    The run works on heads in int numerators and packed monomials from the
    input's heads to the reduced basis's, and the basis keeps the run's
    table of normal forms. The order is degree-compatible, so no monomial a
    run forms has a larger degree than an input monomial or the lcm of a
    pair it reduces; KtoricError means one of those passed DEGREE_LIMIT.
    """
    counter = _Budget(budget, "buchberger")
    # zero generators are dropped once packed, so their variable count is checked
    gens = [t for _, t in (_packed(p, order) for p in gens) if t]
    if not gens:
        raise ValueError("no nonzero generators")

    heads = [_head(t, order) for t in gens]
    key, g = order.packed_key, order.guards
    queue = []         # (order key of the lcm, i, j, lcm), a heap
    popped = []        # popped[k]: the heads whose pair with head k has popped
    table = {}         # normal forms by heads; see _fill

    def add_pairs(j):
        lm = heads[j][0]
        popped.append(set())
        for i in range(j):
            l = order.lcm(heads[i][0], lm)
            heapq.heappush(queue, (key(l), i, j, l))

    for j in range(len(heads)):
        add_pairs(j)

    while queue:
        _, i, j, l = heapq.heappop(queue)
        popped[i].add(j)
        popped[j].add(i)
        if l == heads[i][0] + heads[j][0]:
            continue  # coprime leading monomials reduce to zero for free
        lg = l | g
        if any((lg - heads[k][0]) & g == g for k in popped[i] & popped[j]):
            continue
        within_degree_limit(order.degree(l))
        _, r = _reduce(s_polynomial(heads[i], heads[j], l), heads, order,
                       counter, table)
        if not r:
            continue
        heads.append(_head(r, order))
        # an appended head is no monomial's first divisor where an earlier
        # head divides, so only entries holding a multiple of its leading
        # monomial are stale; every monomial an entry holds has an entry
        lm = heads[-1][0]
        dead = {t for t in table if ((t | g) - lm) & g == g}
        for m in [m for m, (_, terms) in table.items()
                  if not dead.isdisjoint(terms)]:
            del table[m]
        add_pairs(len(heads) - 1)

    return GroebnerBasis(tuple(_interreduce(heads, order, table)), order, table)


def standard_monomials(gb):
    """Monomials outside the leading ideal, sorted small to large.

    Returns () when the ideal is the whole ring, None when the quotient is
    infinite dimensional (some variable has no pure power among the leading
    monomials), and raises BudgetExceededError once more than RANK_CAP
    standard monomials are found.

    The standard monomials are closed under division, so they grow from 1
    one variable at a time: each one found so far is multiplied by the
    variable until the product has a leading monomial as divisor. Only a
    leading monomial whose last variable is that one can divide such a
    product, since the monomial multiplied is standard and free of the
    later variables.
    """
    order, nvars = gb.order, gb.order.nvars
    lms = gb.leading_monomials()
    if any(lm.degree == 0 for lm in lms):
        return ()
    if len({pp[0] for pp in map(Monomial.pure_power, lms) if pp}) < nvars:
        return None
    # packed: no exponent passes its variable's pure power, so none reaches
    # a guard bit, and the degree field on top has no bound to pass
    walls = [[] for _ in range(nvars)]
    for lm, (p, _, _) in zip(lms, gb.heads):
        walls[max(i for i, e in enumerate(lm) if e)].append(p)
    out = [order.pack(Monomial.one(nvars))]
    for i in range(nvars):
        step = order.pack(Monomial.variable(nvars, i))
        if step in walls[i]:
            continue
        for mono in out[:]:
            mono += step
            while not any(order.divides(lm, mono) for lm in walls[i]):
                out.append(mono)
                if len(out) > RANK_CAP:
                    raise BudgetExceededError(
                        f"quotient basis holds more than {RANK_CAP} monomials")
                mono += step
    out.sort(key=order.packed_key)
    return tuple(map(order.unpack, out))


def _render_monomial(mono, names):
    parts = []
    for i, e in mono.exponents:
        parts.append(names[i] if e == 1 else f"{names[i]}^{e}")
    return "*".join(parts) if parts else "1"


def render_poly(p, names, order):
    """Human-readable form, terms from largest to smallest."""
    if p.is_zero:
        return "0"
    if len(names) != p.nvars:
        raise ValueError("one name per variable required")
    monos = sorted(p.terms, key=order.key, reverse=True)
    pieces = []
    for idx, mono in enumerate(monos):
        coeff = p.terms[mono]
        sign = "-" if coeff < 0 else "+"
        mag = -coeff if coeff < 0 else coeff
        body = _render_monomial(mono, names)
        if mag != 1:
            body = str(mag) if body == "1" else f"{mag}*{body}"
        if idx == 0:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)
