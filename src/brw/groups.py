"""Finite unit groups of split basic algebras and their subgroups.

Groups are stored fully enumerated (element coordinates sorted, so ids are
canonical); products are computed on demand through the owning algebra, which
keeps memory flat for orders up to the configured cap.
"""

from functools import lru_cache
from itertools import product
from math import lcm

from .algebra import (Algebra, Subspace, cached_decomposition, vec_add,
                      vec_scale)
from .errors import (CertificationFailure, GroupMismatch, NotInsideRadical,
                     NotNormal, NotSplitBasic, TooLarge)
from .exact import Cyclotomic, mat_mul_vec, mod_matrix_inverse

DEFAULT_ORDER_CAP = 5000


_GROUP_INTERN = {}


def intern_group(algebra, elements, kind="subgroup"):
    """Canonical FiniteGroup per (algebra, element set), so that the conjugacy
    and character-table caches are shared across construction sites."""
    key = (id(algebra), tuple(sorted(set(elements))))
    g = _GROUP_INTERN.get(key)
    if g is None:
        g = FiniteGroup(algebra, key[1], kind)
        _GROUP_INTERN[key] = g
    return g


class FiniteGroup:
    """Subgroup of the unit group of an algebra, enumerated by coordinates."""

    def __init__(self, algebra: Algebra, elements, kind="subgroup"):
        self.algebra = algebra
        self.elements = tuple(sorted(set(elements)))
        self.index = {v: i for i, v in enumerate(self.elements)}
        self.kind = kind
        if algebra.one not in self.index:
            raise ValueError("identity missing from group element list")
        self.identity = self.index[algebra.one]
        self._inv = [None] * len(self.elements)
        self._gens = None
        self._conj = None
        self._conj_action = {}

    @property
    def order(self):
        return len(self.elements)

    def mul_ids(self, i, j):
        return self.index[self.algebra.mul(self.elements[i], self.elements[j])]

    def inv_id(self, i):
        if self._inv[i] is None:
            x = self.algebra.power(self.elements[i], self.order - 1)
            self._inv[i] = self.index[x]
        return self._inv[i]

    def conj_id(self, g, x):
        """id of g x g^-1."""
        A = self.algebra
        gi = self.elements[g]
        return self.index[A.mul(A.mul(gi, self.elements[x]), self.elements[self.inv_id(g)])]

    def commutator_id(self, g, h):
        """id of [g,h] = g^-1 h^-1 g h."""
        A = self.algebra
        v = A.mul(self.elements[self.inv_id(g)], self.elements[self.inv_id(h)])
        v = A.mul(v, self.elements[g])
        v = A.mul(v, self.elements[h])
        return self.index[v]

    def generators(self):
        """Small deterministic generating set (greedy over sorted elements)."""
        if self._gens is None:
            gens = []
            known = {self.algebra.one}
            for v in self.elements:
                if v not in known:
                    _grow(self.algebra, known, gens, v)
                    if len(known) == self.order:
                        break
            self._gens = tuple(gens)
        return self._gens

    def contains_group(self, other):
        return all(v in self.index for v in other.elements)

    def __repr__(self):
        return f"FiniteGroup({self.kind}, order={self.order})"


def _grow(A, elems, gens, g):
    """Grow the subgroup elems = <gens> (a set, updated in place) to <gens, g>.

    Breadth-first search under right multiplication by the generators (the
    orbit algorithm): old elements are multiplied by g only, new ones by every
    generator, so a call costs O(|old| + |new| * |gens|) products. g is
    appended to gens unless it already lies in elems.
    """
    if g in elems:
        return
    gens.append(g)
    frontier = []
    for x in list(elems):
        y = A.mul(x, g)
        if y not in elems:
            elems.add(y)
            frontier.append(y)
    while frontier:
        new = []
        for x in frontier:
            for h in gens:
                y = A.mul(x, h)
                if y not in elems:
                    elems.add(y)
                    new.append(y)
        frontier = new


# ---------------------------------------------------------------------------
# construction of the standard subgroups
# ---------------------------------------------------------------------------

class _DiagonalSplit:
    """Coordinate split A = D (+) J for reading off diagonal parts."""

    def __init__(self, A):
        dec = cached_decomposition(A)
        self.dec = dec
        rows = list(dec.idempotents) + list(dec.radical.rows)
        # transpose, then invert: coefficients c with c . rows = v
        n = A.dim
        mt = [[rows[i][j] for i in range(n)] for j in range(n)]
        self.inv_t = mod_matrix_inverse(mt, A.p)
        self.A = A

    def torus_coeffs(self, v):
        c = mat_mul_vec(self.inv_t, v, self.A.p)
        return c[: self.dec.n]

    def diagonal_part(self, v):
        c = self.torus_coeffs(v)
        out = tuple(0 for _ in range(self.A.dim))
        for ci, e in zip(c, self.dec.idempotents):
            if ci:
                out = vec_add(out, vec_scale(ci, e, self.A.p), self.A.p)
        return out

    def is_unit(self, v):
        return all(c != 0 for c in self.torus_coeffs(v))


@lru_cache(maxsize=None)
def _split(A) -> _DiagonalSplit:
    return _DiagonalSplit(A)


def unit_group(A: Algebra) -> FiniteGroup:
    """The full unit group G = A^x; order (p-1)^n * p^dim(J)."""
    dec = cached_decomposition(A)  # raises NotSplitBasic when appropriate
    p = A.p
    elems = []
    diag_choices = list(product(range(1, p), repeat=dec.n))
    jvecs = list(dec.radical.vectors())
    for t in diag_choices:
        d = tuple(0 for _ in range(A.dim))
        for c, e in zip(t, dec.idempotents):
            d = vec_add(d, vec_scale(c, e, p), p)
        for j in jvecs:
            elems.append(vec_add(d, j, p))
    G = intern_group(A, elems, kind="unit")
    if G.order != (p - 1) ** dec.n * p ** dec.radical.dim:
        raise CertificationFailure("unit group order differs from (p-1)^n p^dim(J)")
    return G


def torus_subgroup(A: Algebra) -> FiniteGroup:
    dec = cached_decomposition(A)
    p = A.p
    elems = []
    for t in product(range(1, p), repeat=dec.n):
        d = tuple(0 for _ in range(A.dim))
        for c, e in zip(t, dec.idempotents):
            d = vec_add(d, vec_scale(c, e, p), p)
        elems.append(d)
    return intern_group(A, elems, kind="torus")


def radical_subgroup(A: Algebra) -> FiniteGroup:
    dec = cached_decomposition(A)
    return intern_group(A, [vec_add(A.one, j, A.p) for j in dec.radical.vectors()],
                        kind="radical")


def ideal_subgroup(A: Algebra, I) -> FiniteGroup:
    """1 + I for an ideal I inside the radical; normal in A^x, order p^dim(I)."""
    dec = cached_decomposition(A)
    for row in I.rows:
        if not dec.radical.contains(row):
            raise NotInsideRadical("ideal is not contained in the radical")
    return intern_group(A, [vec_add(A.one, v, A.p) for v in I.vectors()], kind="ideal")


def algebra_subgroup(A: Algebra, U: Subspace) -> FiniteGroup:
    """1 + U for a multiplicatively closed subspace U of J (not necessarily an ideal)."""
    dec = cached_decomposition(A)
    for row in U.rows:
        if not dec.radical.contains(row):
            raise NotInsideRadical("subspace is not contained in the radical")
    for u in U.rows:
        for v in U.rows:
            if not U.contains(A.mul(u, v)):
                raise NotSplitBasic("subspace of J is not multiplicatively closed")
    return intern_group(A, [vec_add(A.one, v, A.p) for v in U.vectors()], kind="algebra")


def units_of_subspace(A: Algebra, rows) -> FiniteGroup:
    """Unit group of a unital closed subspace, as a subgroup of A^x.

    A unit of A lying in a closed unital subspace has its inverse in the
    subspace too, so filtering by invertibility in A is exact.
    """
    sp = Subspace(A, rows)
    split = _split(A)
    elems = [v for v in sp.vectors() if split.is_unit(v)]
    return intern_group(A, elems, kind="subalgebra-units")


def torus_factorization(A: Algebra, v):
    """Unique factorization v = t * x with t in T, x in P = 1 + J."""
    split = _split(A)
    t = split.diagonal_part(v)
    # t lies in the torus, where t^(p-1) = 1
    tinv = A.power(t, A.p - 2) if A.p > 2 else t
    x = A.mul(tinv, v)
    return t, x


def center(G: FiniteGroup) -> FiniteGroup:
    gens = G.generators()
    elems = []
    A = G.algebra
    for v in G.elements:
        if all(A.mul(v, g) == A.mul(g, v) for g in gens):
            elems.append(v)
    return intern_group(A, elems, kind="center")


def set_product(G: FiniteGroup, H: FiniteGroup, K: FiniteGroup) -> FiniteGroup:
    """Subgroup H*K of G (valid when one factor normalizes the product set)."""
    A = G.algebra
    elems, gens = {A.one}, []
    for g in H.generators() + K.generators():
        _grow(A, elems, gens, g)
    return intern_group(A, elems, kind="product")


# ---------------------------------------------------------------------------
# conjugacy classes
# ---------------------------------------------------------------------------

class ConjData:
    """Conjugacy classes: representatives (least id), sizes, and the class map."""

    def __init__(self, group, reps, classes, class_of):
        self.group = group
        self.reps = tuple(reps)
        self.classes = tuple(tuple(c) for c in classes)
        self.sizes = tuple(len(c) for c in self.classes)
        self.class_of = tuple(class_of)

    @property
    def k(self):
        return len(self.reps)


def conjugacy_classes(G: FiniteGroup, cap=None) -> ConjData:
    """Conjugacy classes of G, computed once per group and kept on it.

    The cap is checked only when given. Inner calls (building, inducing and
    restricting characters) pass none: the entry that took the caller's order
    cap, such as char_table, has checked it already.
    """
    if cap is not None and G.order > cap:
        raise TooLarge(f"group order {G.order} exceeds cap {cap}")
    if G._conj is not None:
        return G._conj
    gens = G.generators()
    gen_ids = [G.index[g] for g in gens]
    class_of = [None] * G.order
    classes = []
    for start in range(G.order):
        if class_of[start] is not None:
            continue
        orbit = [start]
        class_of[start] = len(classes)
        frontier = [start]
        while frontier:
            new = []
            for x in frontier:
                for g in gen_ids:
                    y = G.conj_id(g, x)
                    if class_of[y] is None:
                        class_of[y] = len(classes)
                        orbit.append(y)
                        new.append(y)
            frontier = new
        classes.append(sorted(orbit))
    order = sorted(range(len(classes)),
                   key=lambda c: (0 if classes[c][0] == G.identity else 1, classes[c][0]))
    remap = {old: new for new, old in enumerate(order)}
    classes = [classes[old] for old in order]
    class_of = [remap[c] for c in class_of]
    G._conj = ConjData(G, [c[0] for c in classes], classes, class_of)
    return G._conj


# ---------------------------------------------------------------------------
# abelian structure and linear characters
# ---------------------------------------------------------------------------

def _element_order(mul, identity, e):
    n = 1
    y = e
    while y != identity:
        y = mul(y, e)
        n += 1
    return n


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
        o = _element_order(mul, identity, e)
        if best is None or o > best[0] or (o == best[0] and e < best[1]):
            best = (o, e)
    d1, g1 = best
    cyc = [identity]
    y = g1
    while y != identity:
        cyc.append(y)
        y = mul(y, g1)
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
        corr = (d1 - s // d) % d1
        for _ in range(corr):
            g = mul(g, g1)
        gens.append(g)
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
    """[G,G]: normal closure of the commutators of a generating set."""
    A = G.algebra
    gen_ids = [G.index[g] for g in G.generators()]
    elems, gens = {A.one}, []
    pending = {G.elements[G.commutator_id(a, b)] for a in gen_ids for b in gen_ids}
    while pending:
        for y in pending:
            _grow(A, elems, gens, y)
        pending = {G.elements[G.conj_id(g, G.index[x])] for g in gen_ids for x in elems}
        pending -= elems
    return intern_group(A, elems, kind="commutator")


def abelianization(G: FiniteGroup, cap=None):
    """(elementary divisors, projection id -> exponent tuple) of G/[G,G].

    Like conjugacy_classes, checks the order cap only when one is given.
    """
    if cap is not None and G.order > cap:
        raise TooLarge(f"group order {G.order} exceeds cap {cap}")
    K = commutator_subgroup(G)
    A = G.algebra
    coset_rep = {}
    for v in G.elements:
        coset_rep[v] = min(A.mul(v, k) for k in K.elements)
    q_elems = sorted(set(coset_rep.values()))

    def q_mul(a, b):
        return coset_rep[A.mul(a, b)]

    divisors, gens, dlog = abelian_invariants(q_elems, q_mul, coset_rep[A.one])
    proj = tuple(dlog[coset_rep[v]] for v in G.elements)
    return divisors, proj


class LinearChar:
    """Linear character of a finite group, stored as an exponent table.

    value(g) = zeta_m ^ exps[g]; exps is a homomorphism to Z/m.
    """

    __slots__ = ("domain", "m", "exps")

    def __init__(self, domain, m, exps):
        self.domain = domain
        self.m = m
        self.exps = tuple(e % m for e in exps)

    def value(self, i) -> Cyclotomic:
        return Cyclotomic.root(self.m, self.exps[i])

    def value_coords(self, v) -> Cyclotomic:
        return self.value(self.domain.index[v])

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

    def restrict(self, H: FiniteGroup):
        exps = [self.exps[self.domain.index[v]] for v in H.elements]
        return LinearChar(H, self.m, exps)

    def rebase(self, m2):
        """Same character written with conductor m2 (m | m2)."""
        assert m2 % self.m == 0
        step = m2 // self.m
        return LinearChar(self.domain, m2, [e * step for e in self.exps])

    def same_values(self, other):
        """Equality as functions, tolerating different conductors."""
        if self.domain.elements != other.domain.elements:
            return False
        L = lcm(self.m, other.m)
        a = self.rebase(L)
        b = other.rebase(L)
        return a.exps == b.exps

    def mul(self, other):
        L = lcm(self.m, other.m)
        a, b = self.rebase(L), other.rebase(L)
        return LinearChar(self.domain, L, [x + y for x, y in zip(a.exps, b.exps)])

    def __eq__(self, other):
        return (isinstance(other, LinearChar) and self.domain is other.domain
                and self.same_values(other))

    def __hash__(self):
        raise TypeError("use .exps as a dict key within one enumeration")

    def __repr__(self):
        return f"LinearChar(m={self.m}, exps={self.exps})"


def linear_characters(G: FiniteGroup, cap=None):
    """All |G/[G,G]| linear characters, ordered by exponent table."""
    divisors, proj = abelianization(G, cap=cap)
    m = divisors[0] if divisors else 1
    chars = []
    for c in product(*(range(d) for d in divisors)):
        exps = [sum(ci * a * (m // d) for ci, a, d in zip(c, proj[i], divisors)) % m
                for i in range(G.order)]
        chars.append(LinearChar(G, m, exps))
    chars.sort(key=lambda ch: ch.exps)
    return chars


# ---------------------------------------------------------------------------
# conjugation orbits on characters
# ---------------------------------------------------------------------------

class CharOrbit:
    def __init__(self, base, acting, orbit, stabilizer):
        self.base = base
        self.acting = acting
        self.orbit = tuple(orbit)
        self.stabilizer = stabilizer

    @property
    def size(self):
        return len(self.orbit)


def check_normal(G: FiniteGroup, Q: FiniteGroup):
    """Check that Q is normal in G and return the conjugation action of G on Q.

    The action is one tuple per generator g of G, perm[x] = id in Q of
    g x g^-1 for x an id in Q; building it is the normality test, since an
    image outside Q raises NotNormal. It is built once per (G, Q) and kept
    on G.
    """
    perms = G._conj_action.get(Q)
    if perms is not None:
        return perms
    if not G.contains_group(Q):
        raise NotNormal("Q is not a subset of G")
    A = G.algebra
    index = Q.index
    perms = []
    for g in G.generators():
        gin = G.elements[G.inv_id(G.index[g])]
        perm = []
        for q in Q.elements:
            y = index.get(A.mul(A.mul(g, q), gin))
            if y is None:
                raise NotNormal("Q is not normal in G")
            perm.append(y)
        perms.append(tuple(perm))
    perms = tuple(perms)
    G._conj_action[Q] = perms
    return perms


def char_orbit(G: FiniteGroup, Q: FiniteGroup, theta: LinearChar) -> CharOrbit:
    """Orbit of theta in Q^ under conjugation by G, with its stabilizer.

    The orbit is a breadth-first search over the generators of G acting on
    exponent tables through the permutations of check_normal. The stabilizer
    is {g in G : theta(g q g^-1) = theta(q) for q in Q.generators()}: as Q is
    normal, theta o c_g and theta are both homomorphisms on Q, so they agree
    once they agree on generators. The orbit-stabilizer identity
    |orbit| * |G_theta| = |G| certifies orbit and stabilizer together; a
    failure raises CertificationFailure.
    """
    perms = check_normal(G, Q)
    if theta.domain is not Q:
        raise GroupMismatch("theta is not a character of Q")
    seen = {theta.exps: theta}
    frontier = [theta.exps]
    while frontier:
        new = []
        for e in frontier:
            for perm in perms:
                img = tuple(e[y] for y in perm)
                if img not in seen:
                    seen[img] = LinearChar(Q, theta.m, img)
                    new.append(img)
        frontier = new
    orbit = [seen[k] for k in sorted(seen)]
    A = G.algebra
    exps = theta.exps
    tests = [(q, exps[Q.index[q]]) for q in Q.generators()]
    stab = []
    for gid, g in enumerate(G.elements):
        gin = G.elements[G.inv_id(gid)]
        if all(exps[Q.index[A.mul(A.mul(g, q), gin)]] == e for q, e in tests):
            stab.append(g)
    if len(orbit) * len(stab) != G.order:
        raise CertificationFailure("orbit-stabilizer identity failed")
    return CharOrbit(theta, G, orbit, intern_group(A, stab, kind="stabilizer"))


def orbit_count_P_dual(q: int) -> int:
    """Number of G-orbits on the characters of P for G = B_2(F_q)."""
    from .algebra import borel_algebra
    A = borel_algebra(q, 2)
    G = unit_group(A)
    P = radical_subgroup(A)
    remaining = {ch.exps: ch for ch in linear_characters(P)}
    orbits = 0
    while remaining:
        _, ch = sorted(remaining.items())[0]
        for member in char_orbit(G, P, ch).orbit:
            remaining.pop(member.exps, None)
        orbits += 1
    return orbits
