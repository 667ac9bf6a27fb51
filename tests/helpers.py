"""Independent oracles used by the tests: these deliberately avoid the code
paths they are checking (plain subspace enumeration instead of the lattice
walk or the radical's ideal closure, all-pairs conjugation instead of the
generator BFS, and so on)."""

import os
import subprocess
import sys
import textwrap
from itertools import combinations, product
from math import lcm

from brw.algebra import (Algebra, algebra_from_spec, cached_decomposition, vec_add,
                         vec_scale)
from brw.chars import char_from_linear, char_table, induce, inner_product, restrict
from brw.corpus import corpus_spec
from brw.errors import NotNormal
from brw.exact import Cyclotomic, mod_matrix_inverse, reduce_vector, rref
from brw.groups import (abelian_invariants, center, char_orbit, check_normal,
                        commutator_subgroup, intern_group, linear_characters,
                        right_action, unit_order, units_of_subspace)
from brw.gutkin import SigmaData, _one_dim_ideal_steps


def echelon_subspaces(p, n, k):
    """All k-dimensional subspaces of F_p^n, one RREF basis each."""
    if k == 0:
        yield ()
        return
    for pivots in combinations(range(n), k):
        free_pos = []
        for i, c in enumerate(pivots):
            for j in range(c + 1, n):
                if j not in pivots:
                    free_pos.append((i, j))
        for vals in product(range(p), repeat=len(free_pos)):
            rows = [[0] * n for _ in range(k)]
            for i, c in enumerate(pivots):
                rows[i][c] = 1
            for (i, j), v in zip(free_pos, vals):
                rows[i][j] = v
            yield tuple(tuple(r) for r in rows)


def subspaces_containing_one(A):
    """All subspaces of A that contain the identity, via the quotient by <1>."""
    one_red, one_piv = rref([A.one], A.p)
    c0 = one_piv[0]
    free = [c for c in range(A.dim) if c != c0]
    q = A.dim - 1
    for k in range(q + 1):
        for qrows in echelon_subspaces(A.p, q, k):
            rows = [A.one]
            for r in qrows:
                v = [0] * A.dim
                for c, x in zip(free, r):
                    v[c] = x
                rows.append(tuple(v))
            red, _ = rref(rows, A.p)
            yield red


def is_closed_unital(A, rows):
    red, piv = rref(rows, A.p)
    from brw.exact import reduce_vector
    from brw.algebra import vec_is_zero
    res, _ = reduce_vector(A.one, red, piv, A.p)
    if not vec_is_zero(res):
        return False
    for u in red:
        for v in red:
            r, _ = reduce_vector(A.mul(u, v), red, piv, A.p)
            if not vec_is_zero(r):
                return False
    return True


def closure_oracle(A, rows):
    """RREF rows of the smallest unital closed subspace containing rows: the
    fixpoint of adding every product of two basis rows, all pairs each pass."""
    cur, pivots = rref(tuple(rows) + (A.one,), A.p)
    while True:
        extra = [A.mul(u, v) for u in cur for v in cur]
        extra = [w for w in extra if any(reduce_vector(w, cur, pivots, A.p)[0])]
        if not extra:
            return cur
        cur, pivots = rref(tuple(cur) + tuple(extra), A.p)


def recount_subalgebras(A):
    """Order-agnostic recount of the unital closed subspaces of A."""
    return {rows for rows in subspaces_containing_one(A) if is_closed_unital(A, rows)}


def brute_inverses(G):
    """Every element's inverse x^(|G|-1) by Algebra.mul (no product table)."""
    A = G.algebra
    return {v: A.power(v, G.order - 1) for v in G.elements}


def brute_conj_partition(G):
    """Conjugacy partition by all-pairs conjugation (no generator BFS)."""
    A = G.algebra
    inv = brute_inverses(G)
    classes = []
    seen = set()
    for x in G.elements:
        if x in seen:
            continue
        orbit = {A.mul(A.mul(g, x), inv[g]) for g in G.elements}
        seen |= orbit
        classes.append(frozenset(orbit))
    return set(classes)


def subspace_vectors(A, rows):
    out = []
    for coeffs in product(range(A.p), repeat=len(rows)):
        v = tuple(0 for _ in range(A.dim))
        for c, r in zip(coeffs, rows):
            if c:
                v = vec_add(v, vec_scale(c, r, A.p), A.p)
        out.append(v)
    return out


def units_oracle(A, rows):
    """The units of A in span(rows), by enumerating all p^dim vectors of the
    span and keeping those whose torus coordinates are all nonzero (no
    partition of the torus, no radical of the subspace)."""
    dec = cached_decomposition(A)
    return {v for v in subspace_vectors(A, rref(rows, A.p)[0]) if all(dec.torus_coeffs(v))}


def assert_units_match_oracle(A, rows):
    """units_of_subspace and unit_order against units_oracle on span(rows)."""
    want = units_oracle(A, rows)
    assert set(units_of_subspace(A, rows).elements) == want
    assert unit_order(A, rows) == len(want)


def commutator_subgroup_oracle(G):
    """Elements of [G,G] by Algebra.mul alone: the subgroup N generated by the
    [x, g] = x^-1 g^-1 x g for every x in G and generator g of G. N is normal,
    as z^-1 [x,g] z = [xz,g] [z,g]^-1, and G/N is abelian, being generated by
    the central images of the g."""
    A, inv = G.algebra, brute_inverses(G)
    comms = {A.mul(A.mul(inv[x], inv[g]), A.mul(x, g)) for x in G.elements for g in G.generators()}
    elems, queue = {A.one}, [A.one]
    for x in queue:
        for c in comms:
            y = A.mul(x, c)
            if y not in elems:
                elems.add(y)
                queue.append(y)
    return elems


def abelianization_oracle(G):
    """abelianization(G) with each element's coset representative taken
    separately, as min(v k for k in K) for every v in G (|G| |K| products)."""
    A, K = G.algebra, commutator_subgroup_oracle(G)
    coset_rep = {v: min(A.mul(v, k) for k in K) for v in G.elements}
    divisors, _, dlog = abelian_invariants(sorted(set(coset_rep.values())),
                                           lambda a, b: coset_rep[A.mul(a, b)], coset_rep[A.one])
    return divisors, tuple(dlog[coset_rep[v]] for v in G.elements)


def is_nilpotent(A, v):
    """Whether v^dim(A) = 0, by repeated multiplication."""
    y = v
    for _ in range(A.dim - 1):
        y = A.mul(y, v)
    return not any(y)


def split_basic_oracle(A):
    """(verdict, radical rows, primitive idempotents of A/J) by enumeration.

    J is the set of nilpotent elements (x^dim = 0); A is split basic when J
    is a subspace and an ideal, A/J is commutative and A/J has dim(A/J)
    primitive idempotents. Those are found by a scan of the classes mod J
    and written on the non-pivot coordinates of J, as the quotient's
    coordinates. Rows and idempotents are None when the verdict is False.
    No ideal generators, Frobenius or Lagrange splitting are used.
    """
    p = A.p
    elems = list(product(range(p), repeat=A.dim))
    nil = [v for v in elems if is_nilpotent(A, v)]
    rows, pivots = rref(nil, p)
    if len(nil) != p ** len(rows):
        return False, None, None

    def mod_j(v):
        return reduce_vector(v, rows, pivots, p)[0]

    basis = [A.basis_vector(i) for i in range(A.dim)]
    if any(any(mod_j(A.mul(u, v))) or any(mod_j(A.mul(v, u))) for u in basis for v in rows):
        return False, None, None
    if any(mod_j(A.mul(u, v)) != mod_j(A.mul(v, u)) for u in basis for v in basis):
        return False, None, None
    idems = [e for e in sorted({mod_j(v) for v in elems}) if mod_j(A.mul(e, e)) == e]
    prims = [e for e in idems if any(e)
             and sum(mod_j(A.mul(e, f)) == f for f in idems) == 2]  # only 0 and e below e
    free = [c for c in range(A.dim) if c not in pivots]
    if len(prims) != len(free):
        return False, None, None
    return True, rows, sorted((tuple(e[c] for c in free) for e in prims), reverse=True)


def ideal_oracle(A, gens):
    """RREF rows of the two-sided ideal generated by gens: the span of every
    x g y with x, y basis vectors (the triple form, no fixpoint)."""
    basis = [A.basis_vector(i) for i in range(A.dim)]
    return rref([A.mul(A.mul(x, g), y) for g in gens for x in basis for y in basis], A.p)[0]


def radical_power_oracle(A, rows, n):
    """J^n of the subalgebra spanned by rows, in A's coordinates, as RREF rows.

    J is the set of nilpotent elements, found by enumerating the subalgebra
    and testing x^dim(A) = 0; J^n is the span of every n-fold product of
    elements of J (no radical basis, no echelon shortcut, no memo).
    """
    nil = [v for v in subspace_vectors(A, rref(rows, A.p)[0]) if is_nilpotent(A, v)]
    prods = set(nil)
    for _ in range(n - 1):
        prods = {A.mul(x, y) for x in prods for y in nil}
    return rref(sorted(prods), A.p)[0]


def brute_char_orbit(G, theta):
    """(orbit exponent tables, stabilizer elements) of a linear character of a
    normal subgroup, by conjugating with every element of G through
    Algebra.mul (no generators, no cached action, no product table)."""
    A, Q, inv = G.algebra, theta.domain, brute_inverses(G)
    orbit, stab = set(), set()
    for g in G.elements:
        img = tuple(theta.exps[Q.index[A.mul(A.mul(g, q), inv[g])]] for q in Q.elements)
        orbit.add(img)
        if img == theta.exps:
            stab.add(g)
    return orbit, stab


def assert_orbits_match_oracle(G, Q):
    """char_orbit against brute_char_orbit, for every linear character of Q."""
    for theta in linear_characters(Q):
        orb = char_orbit(G, Q, theta)
        ref_orbit, ref_stab = brute_char_orbit(G, theta)
        assert [c.exps for c in orb.orbit] == sorted(ref_orbit)
        assert all(c.domain is Q and c.m == theta.m for c in orb.orbit)
        assert set(orb.stabilizer.elements) == ref_stab


def clifford_oracle(G, Q, theta, chi):
    """(eta, S) by a scan of the stabilizer's table: S = G_theta from
    brute_char_orbit, and eta the one irreducible of S over theta whose
    induction to G is chi."""
    _, stab = brute_char_orbit(G, theta)
    S = intern_group(G.algebra, stab)
    theta_char = char_from_linear(theta)
    matches = [eta for eta in char_table(S, cap=S.order).irreducibles
               if inner_product(restrict(S, Q, eta), theta_char) != 0
               and induce(G, S, eta) == chi]
    assert len(matches) == 1, len(matches)
    return matches[0], S


def lift_oracle(table):
    """Every multiplicity vector of a table by the exact DFT over Q(zeta_m).

    For each irreducible chi and class representative g of order o, the
    eigenvalue zeta_m^j of chi(g), j = t i with t = m/o, has multiplicity
    c_j = o^-1 sum_(s<o) chi(g^s) zeta_m^(-j s). The powers g^s are formed
    by Algebra.mul; each sum is one coefficient list in Q[C_m] (zeta^(-j s)
    times the normal form of chi(g^s)), made a Cyclotomic and divided by o,
    which must leave a natural number. No prime l and no root mod l are used;
    a value sequence met again reuses its DFT.
    Returns, per irreducible, per class the vector ((j, c_j), ...) over the
    nonzero c_j, in the layout of Character.vectors(m).
    """
    G, conj, m = table.group, table.conj, table.conductor
    A = G.algebra
    powers = []
    for r in conj.reps:
        g, y, pk = G.elements[r], A.one, []
        while True:
            pk.append(conj.class_of[G.index[y]])
            y = A.mul(y, g)
            if y == A.one:
                break
        powers.append(pk)
    done = {}   # the DFT of each sequence (chi(g^s))_s, computed once
    out = []
    for chi in table.irreducibles:
        terms = [tuple((e, x) for e, x in enumerate(v.embed(m).coeffs) if x) for v in chi.values]
        rows = []
        for pk in powers:
            seq = tuple(terms[c] for c in pk)
            if seq not in done:
                o = len(pk)
                row = []
                for j in range(0, m, m // o):
                    acc = [0] * m
                    for s, value in enumerate(seq):
                        for e, x in value:
                            acc[(e - j * s) % m] += x
                    mult = (Cyclotomic(m, acc) / o).rational()
                    assert mult.denominator == 1 and mult >= 0, mult
                    if mult:
                        row.append((j, int(mult)))
                done[seq] = tuple(row)
            rows.append(done[seq])
        out.append(tuple(rows))
    return out


def nondegenerate_step_oracle(level, n, sigma):
    """The first step ideal L_i with sigma([1+a, 1+u]) != 1 for some a in J and
    u in L_i, by testing all pairs; None if there is none."""
    for L in _one_dim_ideal_steps(level, n):
        S = SigmaData(level, n, L, sigma)
        for a in level.radical.vectors():
            if any(S.commutator_value(a, u) != 0 for u in L.vectors()):
                return L
    return None


def j_sigma_oracle(S):
    """RREF rows of J_sigma by testing every a in J against every u in L
    through commutator_value (no generators, no Schreier tree)."""
    lvecs = list(S.L.vectors())
    members = [a for a in S.level.radical.vectors()
               if all(S.commutator_value(a, u) == 0 for u in lvecs)]
    return rref(members, S.level.ambient.p)[0]


def assert_schreier_tree(G):
    """Every edge (y, x, s) of G's Schreier tree is exact by Algebra.mul,
    parents come before their children, and the tree reaches every element
    of G exactly once."""
    A, gens = G.algebra, G.generators()
    reached = {G.identity}
    for y, x, s in G.schreier_tree():
        assert x in reached and y not in reached
        assert G.elements[y] == A.mul(G.elements[x], gens[s])
        reached.add(y)
    assert len(reached) == G.order


def assert_tables_against_mul(G, subgroups=()):
    """G's product table, left multiplication by every generator and by a few
    other elements, inverses, conjugation permutations, center and commutator
    subgroup, and check_normal and right_action on each subgroup, entry by entry against
    Algebra.mul with inverses from brute_inverses."""
    A, E, idx, gens = G.algebra, G.elements, G.index, G.generators()
    inv = brute_inverses(G)
    for s, g in enumerate(gens):
        assert G.right_table()[s] == tuple(idx[A.mul(x, g)] for x in E)
        assert G.conjugations()[s] == tuple(idx[A.mul(A.mul(g, x), inv[g])] for x in E)
    for h in gens + E[::max(1, G.order // 4)]:
        assert G.left(idx[h]) == [idx[A.mul(h, x)] for x in E]
    assert G.inverses() == tuple(idx[inv[x]] for x in E)
    assert set(center(G).elements) == {v for v in E if all(A.mul(v, g) == A.mul(g, v) for g in gens)}
    assert set(commutator_subgroup(G).elements) == commutator_subgroup_oracle(G)
    for Q in subgroups:
        assert right_action(G, Q) == tuple(tuple(idx[A.mul(x, q)] for x in E)
                                           for q in Q.generators())
        perms = [[Q.index.get(A.mul(A.mul(g, q), inv[g])) for q in Q.elements] for g in gens]
        if any(None in perm for perm in perms):
            try:
                check_normal(G, Q)
            except NotNormal:
                continue
            raise AssertionError("check_normal accepted a subgroup that is not normal")
        assert check_normal(G, Q) == tuple(map(tuple, perms))


def group_exponent(G):
    """lcm of the orders of all elements of G, by repeated multiplication."""
    A = G.algebra
    m = 1
    for g in G.elements:
        y, o = g, 1
        while y != A.one:
            y, o = A.mul(y, g), o + 1
        m = lcm(m, o)
    return m


def fresh_corpus_algebra(name):
    """A new Algebra for a corpus spec, with none of the caches that
    corpus_algebra's shared instance gathers from earlier tests."""
    return algebra_from_spec(corpus_spec(name))


def matrix_algebra_2x2(p):
    """M_2(F_p) in the basis e11, e12, e21, e22."""
    basis = [(1, 1), (1, 2), (2, 1), (2, 2)]
    idx = {b: i for i, b in enumerate(basis)}
    sc = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for t1, (a, b) in enumerate(basis):
        for t2, (c, d) in enumerate(basis):
            if b == c:
                sc[t1][t2][idx[(a, d)]] = 1
    return Algebra(p, sc, [1, 0, 0, 1])


def polynomial_quotient(p, low):
    """F_p[x]/(f) in the basis 1, x, ..., x^(k-1), for the monic
    f = x^k + low[k-1] x^(k-1) + ... + low[0]."""
    k = len(low)

    def mul(u, v):
        out = [0] * (2 * k - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                out[i + j] += a * b
        for d in range(2 * k - 2, k - 1, -1):   # x^d = -x^(d-k) * (low . x^i)
            c, out[d] = out[d], 0
            for i, a in enumerate(low):
                out[d - k + i] -= c * a
        return [x % p for x in out[:k]]

    basis = [[int(i == t) for t in range(k)] for i in range(k)]
    return Algebra(p, [[mul(u, v) for v in basis] for u in basis], basis[0])


def product_algebra(A, B):
    """The direct product A x B, basis of A then basis of B."""
    n, m = A.dim, B.dim
    sc = [[[0] * (n + m) for _ in range(n + m)] for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            sc[i][j][:n] = A.sc[i][j]
    for i in range(m):
        for j in range(m):
            sc[n + i][n + j][n:] = B.sc[i][j]
    return Algebra(A.p, sc, A.one + B.one)


def rebased(A, rng):
    """A in a random basis b'_i = sum_k M[i][k] b_k, M invertible over F_p."""
    p, n = A.p, A.dim
    while True:
        M = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(n)]
        if len(rref(M, p)[0]) == n:
            break
    Minv = mod_matrix_inverse(M, p)

    def coords(v):  # c with c . M = v
        return [sum(v[k] * Minv[k][i] for k in range(n)) % p for i in range(n)]

    sc = [[coords(A.mul(M[i], M[j])) for j in range(n)] for i in range(n)]
    return Algebra(p, sc, coords(A.one))


def run_optimized(code):
    """stdout of code run under python -O (asserts stripped) with brw on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(code)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout
