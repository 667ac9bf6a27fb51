"""Finite unit groups of split basic algebras and their subgroups.

Groups are stored fully enumerated (element coordinates sorted, so ids are
canonical); products are computed on demand through the owning algebra, which
keeps memory flat for orders up to the configured cap. A FiniteGroup is built
only by intern_group, once per element set of its algebra, so identity is
equality: groups, and the characters on them, are compared by `is`.

Cache owners: the algebra keeps one FiniteGroup per element set
(intern_group, in algebra._groups), found there as well by the rows it was
built from, ("1+", rows) for one_plus and ("units", rows) for
units_of_subspace or gutkin.certify_stabilizer_subalgebra, and its
BasicDecomposition (J^n and the torus coordinates). Each FiniteGroup keeps
what is computed from it alone: generators, with what generators() records
while it grows them (_grow, on ids): the one product table (_right, right
multiplication of every id by each generator) and the spanning tree of the
Cayley graph on them (_tree, the edge that first reached each element); the
inverses and the conjugation permutations of the generators, read off that
tree with no product (_inverse, _conj_perms); conjugacy classes (_conj), the
power map (_powers, the classes of the powers of each class representative),
its character table (_table, set by chars.char_table), its linear characters
(_linear), the conjugation action of its generators on each normal subgroup
(_conj_action, set by check_normal) and the right multiplication of its ids
by the generators of each subgroup (_right_action, set by right_action).

The order cap is checked once, in unit_group: every other group here is a
subgroup of A^x, so no other function takes a cap.
"""

from itertools import product
from math import lcm

from .algebra import Algebra, Subspace, cached_decomposition, vec_add
from .errors import (CertificationFailure, GroupMismatch, InvalidConductor,
                     NotInsideRadical, NotNormal, NotSubgroup, TooLarge)
from .exact import rref


def intern_group(algebra, elements):
    """The algebra's one FiniteGroup on this element set, so that the
    conjugacy and character-table caches are shared across construction sites."""
    key = tuple(sorted(set(elements)))
    g = algebra._groups.get(key)
    if g is None:
        g = algebra._groups[key] = FiniteGroup(algebra, key)
    return g


class FiniteGroup:
    """Subgroup of the unit group of an algebra, enumerated by coordinates:
    elements is the sorted tuple of distinct elements that intern_group gives."""

    def __init__(self, algebra: Algebra, elements):
        self.algebra = algebra
        self.elements = elements
        self.index = {v: i for i, v in enumerate(self.elements)}
        if algebra.one not in self.index:
            raise NotSubgroup("identity missing from group element list")
        self.identity = self.index[algebra.one]
        self._gens = None
        self._right = None
        self._tree = None
        self._inverse = None
        self._conj_perms = None
        self._conj = None
        self._powers = None
        self._table = None
        self._linear = None
        self._conj_action = {}
        self._right_action = {}

    @property
    def order(self):
        return len(self.elements)

    def inv_id(self, i):
        return self.inverses()[i]

    def commutator_id(self, g, h):
        """id of [g,h] = g^-1 h^-1 g h."""
        A = self.algebra
        v = A.mul(self.elements[self.inv_id(g)], self.elements[self.inv_id(h)])
        v = A.mul(v, self.elements[g])
        v = A.mul(v, self.elements[h])
        return self.index[v]

    def generators(self):
        """Small deterministic generating set (greedy over sorted elements). Its
        growth records the product table right_table and the Schreier tree."""
        if self._gens is None:
            growth = reached, seen, gens, right, tree = _growth(self)
            for x in range(self.order):
                if x not in seen:
                    _grow(self, *growth, x)
                    if len(reached) == self.order:
                        break
            self._right, self._tree = tuple(map(tuple, right)), tuple(tree)
            self._gens = tuple(self.elements[g] for g in gens)
        return self._gens

    def schreier_tree(self):
        """Spanning tree of the right Cayley graph on generators() (a Schreier
        vector), as generators() recorded it: edges (y, x, s) with elements[y] =
        elements[x] * gens[s], parents first. Raises CertificationFailure if no
        tree was recorded for generators()."""
        self.generators()
        if self._tree is None:
            raise CertificationFailure("no Schreier tree recorded for the generators")
        return self._tree

    def right_table(self):
        """right[s][x] = id of elements[x] * gens[s], recorded with schreier_tree."""
        self.schreier_tree()
        return self._right

    def walk(self, start, step):
        """Values by id of a function fixed by its value at the identity and
        value(x * gens[s]) = step(value(x), s), read along schreier_tree()."""
        value = [None] * self.order
        value[self.identity] = start
        for y, x, s in self.schreier_tree():
            value[y] = step(value[x], s)
        return value

    def left(self, h):
        """ids of elements[h] * x by id x, read off the tree: h(x g) = (hx) g."""
        right = self.right_table()
        return self.walk(h, lambda v, s: right[s][v])

    def inverses(self):
        """Inverse ids by id, read off the tree with no product: (x g)^-1 =
        g^-1 x^-1, where left multiplication by g^-1 inverts that by g. Also
        keeps conjugations(): g x g^-1 = left_g(right_g^-1(x))."""
        if self._inverse is None:
            lefts = [self.left(self.index[g]) for g in self.generators()]
            left_inv = [_inverse_perm(L) for L in lefts]
            self._conj_perms = tuple(tuple(L[y] for y in _inverse_perm(R))
                                     for L, R in zip(lefts, self.right_table()))
            self._inverse = tuple(self.walk(self.identity, lambda v, s: left_inv[s][v]))
        return self._inverse

    def conjugations(self):
        """One permutation of ids per generator g: perm[x] = id of g x g^-1."""
        self.inverses()
        return self._conj_perms

    def power_classes(self):
        """The power map: per class representative g of order o, the classes
        of g^0, g^1, ..., g^(o-1); computed once."""
        if self._powers is None:
            A, conj = self.algebra, conjugacy_classes(self)
            powers = (_cyclic_powers(A.mul, A.one, self.elements[r]) for r in conj.reps)
            self._powers = tuple([conj.class_of[self.index[y]] for y in ys] for ys in powers)
        return self._powers

    def exponent(self):
        """lcm of the element orders, the lengths of the power map."""
        return lcm(*map(len, self.power_classes()))

    def contains_group(self, other):
        """Whether other lies in this group, tested on other's generators: a
        group that holds them holds other. True at once when other is this group."""
        return other is self or all(g in self.index for g in other.generators())

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def _inverse_perm(perm):
    return sorted(range(len(perm)), key=perm.__getitem__)


def _growth(G):
    """(reached, seen, gens, right, tree) of the trivial subgroup of G, for _grow."""
    return [G.identity], {G.identity}, [], [], []


def _grow(G, reached, seen, gens, right, tree, g):
    """Grow the subgroup <gens> to <gens, g>, on the ids of a group G containing it.

    reached lists the ids of <gens> in the order they were reached and seen
    holds them. Breadth-first search under right multiplication by the
    generators (the orbit algorithm): old elements are multiplied by g only,
    new ones by every generator, so a call costs O(|old| + |new| * |gens|)
    products; over the calls that build a group every element meets every
    generator exactly once. Each product is recorded as right[s][x] = id of
    x * gens[s], and the edge (y, x, s) that first reaches y is appended to
    tree, parents first. g is appended to gens unless it is seen; a product
    outside G raises CertificationFailure.
    """
    if g in seen:
        return
    A, E, index = G.algebra, G.elements, G.index
    gens.append(g)
    right.append([None] * G.order)
    last, old = len(gens) - 1, len(reached)
    for i, x in enumerate(reached):   # reached grows while it is read
        for s in range(last if i < old else 0, last + 1):
            y = right[s][x] = index.get(A.mul(E[x], E[gens[s]]))
            if y is None:
                raise CertificationFailure("a product leaves the group")
            if y not in seen:
                seen.add(y)
                reached.append(y)
                tree.append((y, x, s))


# ---------------------------------------------------------------------------
# construction of the standard subgroups
# ---------------------------------------------------------------------------

def torus_elements(A: Algebra, idempotents):
    """All sum_i t_i e_i with every t_i in F_p^x: the torus of orthogonal
    idempotents e_1..e_n summing to 1 (or of any vectors e_i, as the units
    of a subalgebra modulo its radical)."""
    return [A.combine(t, idempotents) for t in product(range(1, A.p), repeat=len(idempotents))]


def one_plus(A: Algebra, U: Subspace) -> FiniteGroup:
    """The group 1 + U, for U inside the radical and closed under products,
    looked up by U's echelon rows before any vector is built."""
    key = ("1+", U.rows)
    if key not in A._groups:
        A._groups[key] = intern_group(A, [vec_add(A.one, u, A.p) for u in U.vectors()])
    return A._groups[key]


def unit_group(A: Algebra, cap=None) -> FiniteGroup:
    """The full unit group G = A^x; order (p-1)^n * p^dim(J).

    The one order-cap check: the order is compared with the cap, when given,
    before any element is built; every other group is a subgroup of A^x."""
    dec = cached_decomposition(A)  # raises NotSplitBasic when appropriate
    order = unit_order(A, A.basis())
    if order != (A.p - 1) ** dec.n * A.p ** dec.radical.dim:
        raise CertificationFailure("unit group order differs from (p-1)^n p^dim(J)")
    if cap is not None and order > cap:
        raise TooLarge(f"group order {order} exceeds cap {cap}")
    return units_of_subspace(A, A.basis())


def torus_subgroup(A: Algebra) -> FiniteGroup:
    return intern_group(A, torus_elements(A, cached_decomposition(A).idempotents))


def radical_subgroup(A: Algebra) -> FiniteGroup:
    return one_plus(A, cached_decomposition(A).radical)


def ideal_subgroup(A: Algebra, I) -> FiniteGroup:
    """1 + I for an ideal I inside the radical; normal in A^x, order p^dim(I)."""
    dec = cached_decomposition(A)
    for row in I.rows:
        if not dec.radical.contains(row):
            raise NotInsideRadical("ideal is not contained in the radical")
    return one_plus(A, I)


def _unit_factors(A: Algebra, rows):
    """(tops, kernel) for a unital closed subspace B = span(rows).

    The torus map pi = torus_coeffs : A -> A/J = F_p^n is an algebra map,
    linear on B, with kernel B ∩ J (the radical of B). Its image is a unital
    subalgebra of F_p^n, whose echelon basis is the set of 0/1 indicators of
    the blocks of a partition of {1..n}; that shape is certified
    (CertificationFailure otherwise). tops are elements of B over the
    indicators and kernel spans B ∩ J, both from one echelon form of the
    rows (pi(b), b).
    """
    dec = cached_decomposition(A)
    n = dec.n
    red, pivots = rref([tuple(dec.torus_coeffs(r)) + tuple(r) for r in rows], A.p)
    blocks = [r[:n] for r, c in zip(red, pivots) if c < n]
    if (any(x > 1 for b in blocks for x in b)
            or [sum(col) for col in zip(*blocks)] != [1] * n):
        raise CertificationFailure("torus image of the subspace is not a partition algebra")
    tops = [r[n:] for r, c in zip(red, pivots) if c < n]
    return tops, [r[n:] for r, c in zip(red, pivots) if c >= n]


def unit_order(A: Algebra, rows) -> int:
    """|B^x| = (p-1)^m p^dim(B ∩ J) for a unital closed subspace B = span(rows)
    whose torus image has m blocks (see _unit_factors); no element is built."""
    tops, kernel = _unit_factors(A, rows)
    return (A.p - 1) ** len(tops) * A.p ** len(kernel)


def units_of_subspace(A: Algebra, rows) -> FiniteGroup:
    """Unit group of a unital closed subspace B = span(rows), as a subgroup of A^x.

    v in B is a unit of A exactly when every coordinate of pi(v) is nonzero,
    and then its inverse lies in B. With the certified partition of
    _unit_factors, B^x = {sum_i c_i s_i + j : c_i in F_p^x, j in B ∩ J} for
    the s_i over the block indicators: unit_order(A, rows) elements, built
    directly with no scan of the p^dim(B) vectors of B, once per rows.
    """
    key = ("units", tuple(map(tuple, rows)))
    if key not in A._groups:
        tops, kernel = _unit_factors(A, rows)
        jvecs = list(Subspace(A, kernel).vectors())
        A._groups[key] = intern_group(A, [vec_add(t, j, A.p)
                                          for t in torus_elements(A, tops) for j in jvecs])
    return A._groups[key]


def center(G: FiniteGroup) -> FiniteGroup:
    """The elements fixed by the conjugation permutation of every generator."""
    perms = G.conjugations()
    return intern_group(G.algebra, [v for x, v in enumerate(G.elements)
                                    if all(perm[x] == x for perm in perms)])


def set_product(G: FiniteGroup, H: FiniteGroup, K: FiniteGroup) -> FiniteGroup:
    """Subgroup H*K of G (valid when one factor normalizes the product set)."""
    growth = _growth(G)
    for g in H.generators() + K.generators():
        _grow(G, *growth, G.index[g])
    return intern_group(G.algebra, [G.elements[x] for x in growth[0]])


# ---------------------------------------------------------------------------
# conjugacy classes
# ---------------------------------------------------------------------------

class ConjData:
    """Conjugacy classes: representatives (least id), sizes, and the class map."""

    def __init__(self, reps, classes, class_of):
        self.reps = tuple(reps)
        self.classes = tuple(tuple(c) for c in classes)
        self.sizes = tuple(len(c) for c in self.classes)
        self.class_of = tuple(class_of)

    @property
    def k(self):
        return len(self.reps)


def conjugacy_classes(G: FiniteGroup) -> ConjData:
    """Conjugacy classes of G, computed once per group and kept on it."""
    if G._conj is not None:
        return G._conj
    perms = G.conjugations()
    class_of = [None] * G.order
    classes = []
    for start in range(G.order):
        if class_of[start] is not None:
            continue
        class_of[start] = len(classes)
        orbit = [start]
        for x in orbit:
            for perm in perms:
                y = perm[x]
                if class_of[y] is None:
                    class_of[y] = len(classes)
                    orbit.append(y)
        classes.append(sorted(orbit))
    order = sorted(range(len(classes)),
                   key=lambda c: (0 if classes[c][0] == G.identity else 1, classes[c][0]))
    remap = {old: new for new, old in enumerate(order)}
    classes = [classes[old] for old in order]
    class_of = [remap[c] for c in class_of]
    G._conj = ConjData([c[0] for c in classes], classes, class_of)
    return G._conj


# ---------------------------------------------------------------------------
# abelian structure and linear characters
# ---------------------------------------------------------------------------

def _cyclic_powers(mul, identity, g):
    """[g^0, g^1, ..., g^(o-1)] for an element g of finite order o."""
    out = [identity]
    y = g
    while y != identity:
        out.append(y)
        y = mul(y, g)
    return out


def _dual_exps(c, divisors, coords):
    """Exponent table mod m = divisors[0] of the character c of Z/d_1 x ... x Z/d_r.

    coords[x] are the coordinates a of an element x; the character sends it
    to zeta_m^(sum_j c_j a_j m/d_j).
    """
    m = divisors[0] if divisors else 1
    steps = [cj * (m // d) for cj, d in zip(c, divisors)]
    return [sum(s * a for s, a in zip(steps, x)) % m for x in coords]


def abelian_invariants(elems, mul, identity):
    """Cyclic decomposition of a finite abelian group by maximal-order extraction.

    Returns (divisors, generators, dlog) with divisors non-increasing, each
    dividing the previous, and dlog mapping every element to its exponent
    tuple with respect to the generators.
    """
    if len(elems) == 1:
        return (), (), {identity: ()}
    best = None
    for e in elems:
        o = len(_cyclic_powers(mul, identity, e))
        if best is None or o > best[0] or (o == best[0] and e < best[1]):
            best = (o, e)
    d1, g1 = best
    cyc = _cyclic_powers(mul, identity, g1)
    dlog_cyc = {h: i for i, h in enumerate(cyc)}
    if d1 == len(elems):
        return (d1,), (g1,), {e: (dlog_cyc[e],) for e in elems}
    coset_rep = {}
    for e in elems:
        coset_rep[e] = min(mul(e, h) for h in cyc)
    q_elems = sorted(set(coset_rep.values()))
    q_identity = coset_rep[identity]

    def q_mul(a, b):
        return coset_rep[mul(a, b)]

    q_divs, q_gens, _ = abelian_invariants(q_elems, q_mul, q_identity)
    gens = [g1]
    for gbar, d in zip(q_gens, q_divs):
        g = gbar
        gd = identity
        for _ in range(d):
            gd = mul(gd, g)
        s = dlog_cyc[gd]
        if s % d:
            raise CertificationFailure("lift adjustment failed: g^d is not a d-th power in <g1>")
        gens.append(mul(g, cyc[(d1 - s // d) % d1]))
    divisors = (d1,) + q_divs
    dlog = {}
    for exps in product(*(range(d) for d in divisors)):
        v = identity
        for e, g in zip(exps, gens):
            for _ in range(e):
                v = mul(v, g)
        dlog[v] = exps
    if len(dlog) != len(elems):
        raise CertificationFailure("cyclic factors do not span the group")
    return divisors, tuple(gens), dlog


def commutator_subgroup(G: FiniteGroup) -> FiniteGroup:
    """[G,G]: normal closure of the commutators of a generating set, closed
    under the conjugation permutations of G's generators."""
    gen_ids = [G.index[g] for g in G.generators()]
    growth = reached, seen, *_ = _growth(G)
    pending = {G.commutator_id(a, b) for a in gen_ids for b in gen_ids}
    while pending:
        for y in pending:
            _grow(G, *growth, y)
        pending = {perm[x] for perm in G.conjugations() for x in reached} - seen
    return intern_group(G.algebra, [G.elements[x] for x in reached])


def abelianization(G: FiniteGroup):
    """(elementary divisors, projection id -> exponent tuple) of G/[G,G]."""
    K = commutator_subgroup(G)
    A = G.algebra
    coset_rep = {}
    for v in G.elements:   # each coset vK labelled once, by its minimum
        if v not in coset_rep:
            coset = [A.mul(v, k) for k in K.elements]
            coset_rep.update(dict.fromkeys(coset, min(coset)))
    q_elems = sorted(set(coset_rep.values()))

    def q_mul(a, b):
        return coset_rep[A.mul(a, b)]

    divisors, gens, dlog = abelian_invariants(q_elems, q_mul, coset_rep[A.one])
    proj = tuple(dlog[coset_rep[v]] for v in G.elements)
    return divisors, proj


class LinearChar:
    """Linear character of a finite group, stored as an exponent table.

    Its value at element i is zeta_m ^ exps[i]; exps is a homomorphism to
    Z/m. The domain is a FiniteGroup or any group with elements and index,
    such as the residue units (Z/p^k)^x of localfield; conj_by, is_invariant
    and restrict need a FiniteGroup.
    """

    __slots__ = ("domain", "m", "exps")

    def __init__(self, domain, m, exps):
        self.domain = domain
        self.m = m
        self.exps = tuple(e % m for e in exps)

    def is_trivial(self):
        return all(e == 0 for e in self.exps)

    def conj_by(self, G: FiniteGroup, g):
        """The character x -> value(g x g^-1) on the same domain (g by id in G)."""
        Q = self.domain
        A = G.algebra
        gv = G.elements[g]
        gin = G.elements[G.inv_id(g)]
        exps = [self.exps[Q.index[A.mul(A.mul(gv, x), gin)]] for x in Q.elements]
        return LinearChar(Q, self.m, exps)

    def is_invariant(self, G: FiniteGroup):
        """Whether value(g x g^-1) = value(x) for every g in G, tested on the
        generators of G through check_normal's cached action."""
        e = self.exps
        return all(tuple(e[y] for y in perm) == e for perm in check_normal(G, self.domain))

    def restrict(self, H: FiniteGroup):
        exps = [self.exps[self.domain.index[v]] for v in H.elements]
        return LinearChar(H, self.m, exps)

    def rebase(self, m2):
        """Same character written with conductor m2 (m | m2)."""
        if m2 % self.m:
            raise InvalidConductor(f"conductor {m2} is not a multiple of {self.m}")
        step = m2 // self.m
        return LinearChar(self.domain, m2, [e * step for e in self.exps])

    def mul(self, other):
        if self.domain is not other.domain:
            raise GroupMismatch("characters live on different groups")
        L = lcm(self.m, other.m)
        a, b = self.rebase(L), other.rebase(L)
        return LinearChar(self.domain, L, [x + y for x, y in zip(a.exps, b.exps)])

    def __eq__(self, other):
        """Equality as functions on one domain, tolerating different conductors."""
        if not isinstance(other, LinearChar) or self.domain is not other.domain:
            return False
        L = lcm(self.m, other.m)
        return self.rebase(L).exps == other.rebase(L).exps

    def __hash__(self):
        raise TypeError("use .exps as a dict key within one enumeration")

    def __repr__(self):
        return f"LinearChar(m={self.m}, exps={self.exps})"


def linear_characters(G: FiniteGroup):
    """All |G/[G,G]| linear characters, ordered by exponent table; computed
    once per group and kept on it."""
    if G._linear is None:
        G._linear = tuple(dual_characters(G, *abelianization(G)))
    return G._linear


def dual_characters(domain, divisors, coords):
    """All characters of a domain ~ Z/d_1 x ... x Z/d_r whose element i has
    coordinates coords[i], ordered by exponent table."""
    m = divisors[0] if divisors else 1
    chars = [LinearChar(domain, m, _dual_exps(c, divisors, coords))
             for c in product(*(range(d) for d in divisors))]
    chars.sort(key=lambda ch: ch.exps)
    return chars


# ---------------------------------------------------------------------------
# conjugation orbits on characters
# ---------------------------------------------------------------------------

class CharOrbit:
    def __init__(self, base, orbit, stabilizer):
        self.base = base
        self.orbit = tuple(orbit)
        self.stabilizer = stabilizer

    @property
    def size(self):
        return len(self.orbit)


def check_normal(G: FiniteGroup, Q: FiniteGroup):
    """Check that Q is normal in G and return the conjugation action of G on Q.

    The action is one tuple per generator g of G, perm[x] = id in Q of
    g x g^-1 for x an id in Q: G's conjugation permutations restricted to Q.
    Building it is the normality test, since an image outside Q raises
    NotNormal. It is built once per (G, Q) and kept on G.
    """
    perms = G._conj_action.get(Q)
    if perms is not None:
        return perms
    ids = [G.index.get(q) for q in Q.elements]
    if None in ids:
        raise NotNormal("Q is not a subset of G")
    perms = tuple(tuple(Q.index.get(G.elements[conj[x]]) for x in ids)
                  for conj in G.conjugations())
    if any(None in perm for perm in perms):
        raise NotNormal("Q is not normal in G")
    G._conj_action[Q] = perms
    return perms


def right_action(G: FiniteGroup, Q: FiniteGroup):
    """Right multiplication of G's ids by the generators of a subgroup Q: one
    tuple per generator g of Q, perm[x] = id of elements[x] * g. Built once
    per (G, Q) with no product, as x g = (g^-1 x^-1)^-1 from G's inverses and
    left multiplication, and kept on G; with Q.walk it gives the ids of x*q
    for every q in Q with no further product."""
    perms = G._right_action.get(Q)
    if perms is None:
        if not G.contains_group(Q):
            raise GroupMismatch("Q is not a subgroup of G")
        inv = G.inverses()
        lefts = [G.left(inv[G.index[g]]) for g in Q.generators()]   # by g^-1
        perms = G._right_action[Q] = tuple(tuple(inv[L[y]] for y in inv) for L in lefts)
    return perms


def char_orbit(G: FiniteGroup, Q: FiniteGroup, theta: LinearChar) -> CharOrbit:
    """Orbit of theta in Q^ under conjugation by G, with its stabilizer.

    The orbit is a breadth-first search over the generators of G acting on
    exponent tables through the permutations of check_normal, recording the
    Schreier graph act[w][s] on orbit indices. As theta^(xs) = (theta^x)^s,
    the point of each g is read off G's Schreier tree with no product, and
    G_theta = {g : point(g) = theta}. The orbit-stabilizer identity
    |orbit| * |G_theta| = |G| certifies orbit and stabilizer together; a
    failure raises CertificationFailure.
    """
    perms = check_normal(G, Q)
    if theta.domain is not Q:
        raise GroupMismatch("theta is not a character of Q")
    points, act = {theta.exps: 0}, []
    queue = [theta.exps]
    for e in queue:
        row = []
        for perm in perms:
            img = tuple(e[y] for y in perm)
            if img not in points:
                points[img] = len(queue)
                queue.append(img)
            row.append(points[img])
        act.append(row)
    pt = G.walk(0, lambda w, s: act[w][s])
    stab = [g for g, w in zip(G.elements, pt) if w == 0]
    if len(queue) * len(stab) != G.order:
        raise CertificationFailure("orbit-stabilizer identity failed")
    orbit = [LinearChar(Q, theta.m, e) for e in sorted(queue)]
    return CharOrbit(theta, orbit, intern_group(G.algebra, stab))


def char_orbits(G: FiniteGroup, Q: FiniteGroup):
    """The orbits of G on the linear characters of Q (char_orbit), each based
    at its least exponent table, in increasing order of their bases."""
    seen, orbits = set(), []
    for ch in linear_characters(Q):
        if ch.exps not in seen:
            orbits.append(char_orbit(G, Q, ch))
            seen.update(member.exps for member in orbits[-1].orbit)
    return orbits
