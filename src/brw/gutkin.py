"""Constructive decomposition of irreducible characters of unit groups.

Implements the descent that writes every irreducible character of G = A^x as
the induction of a linear character of the unit group of a subalgebra:
diagonal centralisers, the commutator-kernel subalgebra of the radical with
its dual-valued homomorphism, character extension along one-dimensional ideal
steps, stabilizer-subalgebra certification, and the recursion tying it all
together. An exhaustive brute-force verifier over the subalgebras whose
unit group has a degree as its index provides an independent check of the
same statement.

Everything is in the ambient algebra's coordinates. Cache owners: the
ambient algebra keeps one Level per subalgebra basis (get_level, in
algebra._levels) and its own BasicDecomposition, which the top level reads;
any other Level keeps the BasicDecomposition made on its Subalgebra's rows,
which holds its J^n, and its one-dimensional ideal steps per n (_steps, set
by _one_dim_ideal_steps); a SigmaData keeps its J_sigma.
"""

from functools import cache
from itertools import combinations, product
from math import gcd, lcm

from .algebra import (Algebra, Subalgebra, Subspace, _closure_rows, basic_decomposition,
                      bimodule_complement, bimodule_decompose, cached_decomposition,
                      check_scan_bound, enumerate_subalgebras, vec_add, vec_sub)
from .chars import (Character, char_table, clifford_correspondent, induced_linear,
                    inner_product, restrict)
from .errors import (CertificationFailure, DecompositionFailure, NoExtension, NotInvariant,
                     PreconditionFailure, SpecError, VerificationFailure)
from .exact import kernel_basis, normal_form, rref
from .groups import (FiniteGroup, LinearChar, char_orbit, linear_characters,
                     one_plus, torus_elements, unit_order, units_of_subspace)


class Level:
    """A certified Subalgebra of the ambient algebra with its group context.

    Everything is in ambient coordinates, so characters move between
    recursion levels as they are. dec is the subalgebra's decomposition on
    its rows, or the ambient algebra's cached one at the top level.
    """

    def __init__(self, sub: Subalgebra):
        self.sub = sub
        self.ambient = ambient = sub.owner
        self.rows = sub.rows
        self.dim = sub.dim
        self.dec = (cached_decomposition(ambient) if sub.dim == ambient.dim
                    else basic_decomposition(sub))
        self.radical = self.dec.radical
        self.units = units_of_subspace(ambient, self.rows)
        self.P = one_plus(ambient, self.radical)
        self._steps = {}

    def radical_power(self, n):
        """J^n for the level algebra."""
        return self.dec.radical_power(n)

    def one_plus(self, subspace: Subspace) -> FiniteGroup:
        return one_plus(self.ambient, subspace)

    def is_ideal_of_level(self, subspace: Subspace) -> bool:
        return subspace.closed_under(self.rows, self.rows)


def get_level(sub: Subalgebra) -> Level:
    """The Level on sub, built once and kept on its owner by its rows."""
    levels = sub.owner._levels
    if sub.rows not in levels:
        levels[sub.rows] = Level(sub)
    return levels[sub.rows]


def top_level(A: Algebra) -> Level:
    """The Level on all of A, which reads A's cached decomposition."""
    return A._levels.get(A.basis()) or get_level(Subalgebra(A, A.basis()))


@cache
def _root_table(m, L, d):
    """The normal form at L of d zeta_m^e -> e, for e < m (m divides L)."""
    return {normal_form(((e, d),), m, L): e for e in range(m)}


def _root_exps(rows, mv, m, d=1):
    """e with x = d zeta_m^e for each sparse vector x in Q[C_mv] of rows, or
    None if some x / d is no such root."""
    L = lcm(m, mv)
    roots = _root_table(m, L, d)
    exps = [roots.get(normal_form(x, mv, L)) for x in rows]
    return None if None in exps else exps


def linear_char_from_character(chi: Character) -> LinearChar:
    """Exponent table of a degree-one character (values must be roots of unity)
    at the exponent m of its domain."""
    if chi.degree != 1:
        raise PreconditionFailure("a linear character needs a character of degree one")
    m = chi.group.exponent()
    class_exp = _root_exps(chi.rows, chi.m, m)
    if class_exp is None:
        raise DecompositionFailure("degree-one character value is not a root of unity")
    return LinearChar(chi.group, m, [class_exp[k] for k in chi.conj.class_of])


# ---------------------------------------------------------------------------
# diagonal centraliser  D_theta
# ---------------------------------------------------------------------------

def diag_centraliser_level(level: Level, I: Subspace, theta: LinearChar) -> Subalgebra:
    """D_theta = {d in D : theta(1+ad) = theta(1+da) for all a in I}, certified.

    The returned subspace of the diagonal is checked to be a unital closed
    subalgebra whose unit group is exactly the stabilizer of theta in T.
    """
    A = level.ambient
    Q = theta.domain
    members = []
    ivecs = list(I.vectors())
    for d in level.dec.diagonal.vectors():
        ok = True
        for a in ivecs:
            left = vec_add(A.one, A.mul(a, d), A.p)
            right = vec_add(A.one, A.mul(d, a), A.p)
            if theta.exps[Q.index[left]] != theta.exps[Q.index[right]]:
                ok = False
                break
        if ok:
            members.append(d)
    rows, _ = rref(members, A.p)
    if len(members) != A.p ** len(rows):
        raise CertificationFailure("diagonal centraliser set is not a subspace")
    try:
        sub = Subalgebra(A, rows)
    except SpecError as exc:
        raise CertificationFailure(f"diagonal centraliser not a subalgebra: {exc}")
    # unit group must be the stabilizer of theta in T
    stab = char_orbit(level.units, Q, theta).stabilizer.index
    t_stab = {t for t in torus_elements(A, level.dec.idempotents) if t in stab}
    units = set(units_of_subspace(A, rows).elements)
    if units != t_stab:
        raise CertificationFailure("unit group of D_theta differs from T_theta")
    return sub


# ---------------------------------------------------------------------------
# sigma data: N = 1 + J^n, one-dimensional step ideal L, Q = 1 + L
# ---------------------------------------------------------------------------

class SigmaData:
    """The (n, sigma, L) setup: N = 1+J^n, a P-invariant sigma on N,
    an ideal L with J^n <= L <= J^(n-1) of codimension one over J^n, Q = 1+L."""

    def __init__(self, level: Level, n: int, L: Subspace, sigma: LinearChar):
        self.level = level
        self.n = n
        self.L = L
        Jn = level.radical_power(n)
        Jn1 = level.radical_power(n - 1)
        if not all(L.contains(v) for v in Jn.rows):
            raise PreconditionFailure("J^n is not contained in L")
        if not all(Jn1.contains(v) for v in L.rows):
            raise PreconditionFailure("L is not contained in J^(n-1)")
        if L.dim != Jn.dim + 1:
            raise PreconditionFailure("L must have dimension dim J^n + 1")
        if not level.is_ideal_of_level(L):
            raise PreconditionFailure("L is not an ideal of the algebra")
        self.N = level.one_plus(Jn)
        self.Q = level.one_plus(L)
        if sigma.domain is not self.N:
            raise PreconditionFailure("sigma is not a character of N = 1 + J^n")
        self.sigma = sigma
        self._check_p_invariant()
        self._jsigma = None

    def _check_p_invariant(self):
        if not self.sigma.is_invariant(self.level.P):
            raise NotInvariant("sigma is not P-invariant")

    def is_g_invariant(self):
        return self.sigma.is_invariant(self.level.units)

    def commutator_value(self, x, u):
        """sigma([1+x, 1+u]) as an exponent mod sigma.m, for x in J, u in L;
        CertificationFailure if the commutator is outside N."""
        A, P = self.level.ambient, self.level.P
        c = P.commutator_id(P.index[vec_add(A.one, x, A.p)], P.index[vec_add(A.one, u, A.p)])
        k = self.N.index.get(P.elements[c])
        if k is None:
            raise CertificationFailure("[P, Q] is not contained in N")
        return self.sigma.exps[k]


def j_sigma(S: SigmaData) -> Subspace:
    """J_sigma = {a in J : sigma([1+a, 1+u]) = 1 for all u in L}, certified.

    For h in Q, chi_h: g -> sigma([g, h]) is a homomorphism on P while its
    commutators lie in N: [g1 g2, h] = g2^-1 [g1, h] g2 [g2, h], and sigma is
    P-invariant; the same holds for h -> sigma([g, h]) on Q, so Q's generators
    h suffice. Once chi_h vanishes on the generators of 1 + J^2, a ->
    chi_h(1+a) is F_p-linear on J ((1+a)(1+b) is 1+a+b times an element of
    1 + J^2), with values in (m / gcd(m, p)) Z/m (p chi_h(1+a) =
    chi_h(1+a^p) = 0). So J_sigma is the kernel, along J's rows r, of the
    |gens Q| x dim J matrix of chi_h(1+r). The 1 + r and the generators of
    1 + J^2 generate P, so commutator_value certifies [P, Q] <= N on them.
    Certificates: [P, Q] <= N, J^2 <= J_sigma, codimension at most one in J,
    closure under products; the set is a subspace by construction.
    """
    if S._jsigma is not None:
        return S._jsigma
    level = S.level
    A, J, m = level.ambient, level.radical, S.sigma.m
    us = [vec_sub(h, A.one, A.p) for h in S.Q.generators()]
    sq = [vec_sub(g, A.one, A.p) for g in level.one_plus(level.radical_power(2)).generators()]
    if any(S.commutator_value(x, u) for u in us for x in sq):
        raise CertificationFailure("J^2 is not contained in J_sigma")
    scale = m // gcd(m, A.p)
    M = [[S.commutator_value(r, u) // scale for r in J.rows] for u in us]
    js = Subspace(A, [A.combine(y, J.rows) for y in kernel_basis(M, J.dim, A.p)])
    if J.dim - js.dim > 1:
        raise CertificationFailure("J_sigma has codimension greater than one")
    if not js.closed_under(js.rows, ()):
        raise CertificationFailure("J_sigma is not multiplicatively closed")
    S._jsigma = js
    return js


def phi_sigma(S: SigmaData, g) -> LinearChar:
    """The character phi_sigma(g): h -> sigma([g,h]) on Q, for g in P (coords)."""
    A, Q = S.level.ambient, S.Q
    x = vec_sub(g, A.one, A.p)
    ch = LinearChar(Q, S.sigma.m, [S.commutator_value(x, vec_sub(h, A.one, A.p))
                                   for h in Q.elements])
    # image lies in the annihilator of N
    if any(ch.exps[Q.index[v]] for v in S.N.elements):
        raise CertificationFailure("phi_sigma(g) not trivial on N")
    return ch


def ideal_intersection_test(level: Level, I: Subspace, S: SigmaData) -> bool:
    """Whether I / J_sigma intersect to a two-sided ideal (requires G-invariant sigma)."""
    if not S.is_g_invariant():
        raise PreconditionFailure("sigma is not G-invariant")
    Jsq = level.radical_power(2)
    if not all(I.contains(v) for v in Jsq.rows):
        raise PreconditionFailure("I does not contain J^2")
    if not all(level.radical.contains(v) for v in I.rows):
        raise PreconditionFailure("I is not contained in J")
    if not level.is_ideal_of_level(I):
        raise PreconditionFailure("I is not an ideal")
    X = I.intersect(j_sigma(S))
    return level.is_ideal_of_level(X)


class ExtensionResult:
    stabilizer_identity = True   # extend_character returns one only when it holds

    def __init__(self, sigma_data, extensions, jsig, single_orbit, orbit):
        self.sigma_data = sigma_data
        self.extensions = tuple(extensions)
        self.j_sigma = jsig
        self.single_orbit = single_orbit
        self.orbit = orbit   # the P-orbit of theta

    @property
    def theta(self):
        return self.extensions[0]


def _kills_commutators(Q: FiniteGroup, N: FiniteGroup, sigma: LinearChar) -> bool:
    """Whether [Q,Q] <= ker sigma, for sigma on N <= Q invariant under Q.
    Tested on pairs of generators of Q: ker sigma is then normal in Q, so it
    holds their normal closure, which is [Q,Q]."""
    gens = [Q.index[g] for g in Q.generators()]
    cs = [N.index.get(Q.elements[Q.commutator_id(i, j)]) for i in gens for j in gens]
    return None not in cs and not any(sigma.exps[c] for c in cs)


def extend_character(S: SigmaData) -> ExtensionResult:
    """All extensions of sigma from N to Q, and the P-orbit of the first.

    Certifies: [Q,Q] <= ker sigma, on pairs of generators of Q (exact as
    sigma is P-invariant), there are exactly p = |Q/N| extensions, every
    extension has P-stabilizer 1 + J_sigma (the one interned group), and when
    that stabilizer is proper the extensions form a single P-orbit. One orbit
    shows both: 1 + J_sigma >= 1 + J^2 >= [P, P] is normal in P, so all points
    of an orbit share its stabilizer (when J_sigma = J, each is P-invariant).
    """
    level = S.level
    Q, N, sigma = S.Q, S.N, S.sigma
    if not _kills_commutators(Q, N, sigma):
        raise NoExtension("sigma does not kill [Q,Q]")
    exts = [ch for ch in linear_characters(Q) if ch.restrict(N) == sigma]
    if len(exts) != Q.order // N.order:
        raise NoExtension(f"expected {Q.order // N.order} extensions, found {len(exts)}")
    jsig = j_sigma(S)
    expected = one_plus(level.ambient, jsig)
    orbit = char_orbit(level.P, Q, exts[0])
    if orbit.stabilizer is not expected or (
            expected is level.P and not all(ch.is_invariant(level.P) for ch in exts)):
        raise CertificationFailure("P-stabilizer of an extension differs from 1 + J_sigma")
    single = None
    if expected is not level.P:
        single = {c.exps for c in orbit.orbit} == {c.exps for c in exts}
        if not single:
            raise CertificationFailure("extensions do not form a single P-orbit")
    return ExtensionResult(S, exts, jsig, single, orbit)


# ---------------------------------------------------------------------------
# stabilizer subalgebra certification
# ---------------------------------------------------------------------------

def certify_stabilizer_subalgebra(A: Algebra, G_theta: FiniteGroup) -> Subalgebra:
    """The subalgebra W = span(G_theta), certified to have unit group G_theta.

    G_theta is a group of units inside W, so it lies in W ∩ A^x = W^x, and
    equal orders (unit_order, with no element built) make the two equal.
    Nothing else can succeed where this fails: if G_theta = C^x for a
    subalgebra C, then W ⊆ C and W ∩ A^x ⊆ C^x = G_theta. Failure is
    reportable: it would contradict the finite-field theorem. A span that
    already has a Level (get_level) keeps its certified Subalgebra.

    W is closed under products, as G_theta is, so it is the closure of
    span{1} under G_theta's generators (_closure_rows), whose products give
    every element; echelon form is unique, so the rows are rref(G_theta).
    Once certified, G_theta is registered as the unit group of the rows
    (units_of_subspace), so a Level on them builds none of its units.
    """
    rows, pivots = rref([A.one], A.p)
    for g in G_theta.generators():
        rows = _closure_rows(A, rows, pivots, g, {})
        pivots = tuple(next(c for c, x in enumerate(r) if x) for r in rows)
    if unit_order(A, rows) != G_theta.order:
        raise CertificationFailure("stabilizer is not the unit group of its span")
    A._groups[("units", rows)] = G_theta
    level = A._levels.get(rows)
    return level.sub if level is not None else Subalgebra(A, rows)


# ---------------------------------------------------------------------------
# the constructive decomposition
# ---------------------------------------------------------------------------

def _witness_record(rows, H, lam):
    """The report fields of a witness Ind_H^G(lam), H = span(rows)^x, that the
    constructive summary and the brute-force first witness share."""
    return {"subalgebra_basis": [list(r) for r in rows], "subalgebra_dim": len(rows),
            "H_order": H.order, "lambda_conductor": lam.m, "lambda_exps": list(lam.exps)}


class GutkinWitness:
    """Chain of subalgebra descents ending in a linear character whose
    induction recovers the target irreducible."""

    def __init__(self, group, target, steps, subalgebra, H, lam):
        self.group = group
        self.target = target
        self.steps = steps
        self.subalgebra = subalgebra
        self.H = H
        self.lam = lam
        self.induced_matches = None

    def verify(self):
        sums, = induced_linear(self.group, self.H, [self.lam])
        self.induced_matches = (self.target.group is self.group
                                and _induces(self.lam, sums, self.target, normal_form))
        return self.induced_matches

    @property
    def subalgebra_rows(self):
        return self.subalgebra.rows

    @property
    def chain_dims(self):
        return [s["algebra_dim"] for s in self.steps]

    def summary(self):
        return {"degree": int(self.target.degree),
                **_witness_record(self.subalgebra_rows, self.H, self.lam),
                "chain_dims": self.chain_dims,
                "induced_matches": bool(self.induced_matches)}


def _scalar_restriction(level: Level, psi: Character, n):
    """LinearChar sigma with Res_{1+J^n} psi = deg(psi) * sigma, or None.
    psi / psi(1) is decided a root of unity once per class of P that meets
    N, and each element of N reads its exponent off its class."""
    N = level.one_plus(level.radical_power(n))
    P, class_of = psi.group, psi.conj.class_of
    ks = [class_of[P.index[x]] for x in N.elements]
    met = sorted(set(ks))
    exps = _root_exps([psi.rows[k] for k in met], psi.m, psi.m, int(psi.degree))
    if exps is None:
        return None
    exp_of = dict(zip(met, exps))
    return LinearChar(N, psi.m, [exp_of[k] for k in ks])


def _one_dim_ideal_steps(level: Level, n):
    """Ideals L_i with J^n <= L_i <= J^(n-1), dim(L_i/J^n) = 1, in the order
    induced by the homogeneous bimodule decomposition of a complement; kept per n."""
    if n not in level._steps:
        dec = level.dec
        Jn = dec.radical_power(n)
        comp = bimodule_complement(dec.diagonal, dec.radical_power(n - 1), Jn)
        level._steps[n] = tuple(Subspace(level.ambient, Jn.rows + (v,))
                                for _, _, comp_ij in bimodule_decompose(dec.diagonal, comp)
                                for v in comp_ij.rows)
    return level._steps[n]


def _decompose(level: Level, chi: Character, steps):
    H = level.units
    if chi.degree == 1:
        lam = linear_char_from_character(chi)
        steps.append({"branch": "leaf", "algebra_dim": level.dim, "group_order": H.order})
        return level, lam
    P = level.P
    if P is H:   # p = 2: Res_P chi = chi is irreducible, its own only constituent
        psi = chi
    else:
        resP = restrict(H, P, chi)
        psi = next((irr for irr in char_table(P).irreducibles
                    if inner_product(resP, irr) != 0), None)
        if psi is None:
            raise DecompositionFailure("the restriction to P has no constituent in P's table")

    step = {"algebra_dim": level.dim, "group_order": H.order}
    if psi.degree == 1:
        Q, theta, orbit = P, linear_char_from_character(psi), None
        step["branch"] = "linear-constituent"
    else:
        # deg psi >= 2: find the minimal scalar level n (J^n != 0 is guaranteed
        # before the search bottoms out, since 1 + J^max is central in P)
        n = None
        sigma = None
        cand = 1
        while level.radical_power(cand).dim > 0:
            sig = _scalar_restriction(level, psi, cand)
            if sig is not None:
                n, sigma = cand, sig
                break
            cand += 1
        if n is None or n < 2:
            raise DecompositionFailure("no scalar level found for a nonlinear constituent")
        if sigma.is_trivial():
            raise DecompositionFailure("scalar character is trivial at the minimal level")
        if n == 2 and level.radical.dim == level.radical_power(2).dim + 1:
            raise DecompositionFailure("extreme case n = 2 with dim J = dim J^2 + 1")
        # the first step ideal L_i on which phi_sigma is nondegenerate: J_sigma != J
        for L in _one_dim_ideal_steps(level, n):
            S = SigmaData(level, n, L, sigma)
            if j_sigma(S).dim < level.radical.dim:
                break
        else:
            raise DecompositionFailure("sigma kills all commutators [1+J, 1+L_i]")
        ext = extend_character(S)
        Q, theta = S.Q, ext.theta
        orbit = ext.orbit if P is H else None   # at p = 2, theta's orbit under H
        step.update(branch="sigma-extension", scalar_level=n)

    orbit = orbit or char_orbit(H, Q, theta)
    G_theta = orbit.stabilizer
    if G_theta.order == H.order:
        raise DecompositionFailure("stabilizer did not decrease at a nonlinear step")
    # a linear psi needs p odd (at p = 2, H = P and psi = chi); then
    # G_theta = T_theta P spans D_theta + J
    new_level = get_level(certify_stabilizer_subalgebra(level.ambient, G_theta))
    eta, _ = clifford_correspondent(H, Q, theta, chi, orbit=orbit)
    step.update(stabilizer_order=G_theta.order, next_dim=new_level.dim)
    steps.append(step)
    return _decompose(new_level, eta, steps)


def gutkin_decompose(A: Algebra, chi: Character) -> GutkinWitness:
    """Write the irreducible chi of G = A^x (a character of G itself) as
    Ind_H^G(lambda) for H the unit group of a subalgebra and lambda linear;
    the witness is verified by _induces, the brute search's decision."""
    level = top_level(A)
    if inner_product(chi, chi) != 1:
        raise PreconditionFailure("gutkin_decompose requires an irreducible character")
    steps = []
    leaf, lam = _decompose(level, chi, steps)
    witness = GutkinWitness(level.units, chi, steps, leaf.sub, leaf.units, lam)
    if not witness.verify():
        raise DecompositionFailure("induced character does not match the target")
    return witness


# ---------------------------------------------------------------------------
# brute-force verification
# ---------------------------------------------------------------------------

class BruteReport:
    def __init__(self, group, table, per_irr):
        self.group = group
        self.table = table
        self.per_irr = per_irr

    @property
    def all_witnessed(self):
        return all(entry["witness_count"] > 0 for entry in self.per_irr)


def _radical_seeds(J: Subspace, c):
    """Rows of each W <= J of codimension c: the kernel, along J's rows, of
    each c x dim J echelon matrix M of rank c, one row J_f - sum_i M[i][f]
    J_(q_i) per free column f, for M's pivot columns q_i."""
    A, d = J.owner, J.dim
    for piv in combinations(range(d), c):
        free = [f for f in range(d) if f not in piv]
        slots = [(i, f) for i, q in enumerate(piv) for f in free if f > q]
        for vals in product(range(A.p), repeat=len(slots)):
            M = dict(zip(slots, vals))
            yield [A.combine([1] + [-M.get((i, f), 0) for i in range(c)],
                             [J.rows[f]] + [J.rows[q] for q in piv]) for f in free]


def brute_candidates(A: Algebra, G: FiniteGroup, degrees, max_dim=None):
    """[(B, [G:B^x])] for the subalgebras B of A with [G:B^x] in degrees, in
    enumerate_subalgebras order, from its walk (within the scan budget) upward
    from span{1} + W for every W <= J of codimension c (verify_gutkin_brute)."""
    J = top_level(A).radical
    c = 0
    while c < J.dim and A.p ** (c + 1) <= max(degrees):
        c += 1
    subs = enumerate_subalgebras(A, max_dim=max_dim, seeds=_radical_seeds(J, c))
    return [(B, index) for B in subs if (index := G.order // unit_order(A, B.rows)) in degrees]


def _induces(lam, sums, chi, form):
    """Whether Ind_H^G lam = chi, for lam linear on H with class sums s_k
    (induced_linear) and chi on G: |G| s_k = |C_k| |H| chi(g_k) (Isaacs,
    Character Theory of Finite Groups, (5.2)) on the normal forms that form
    gives at lcm of the conductors, in Z, up to the first mismatching class."""
    g, h, L = chi.group.order, lam.domain.order, lcm(lam.m, chi.m)
    return all(all(a * g == b * size * h
                   for a, b in zip(form(s, lam.m, L), form(x, chi.m, L)))
               for s, x, size in zip(sums, chi.rows, chi.conj.sizes))


def _decisions(G: FiniteGroup, H: FiniteGroup, targets):
    """[(lam, i)] for the linear lam of H, in order, that induce a target:
    i is the first target (i, chi) with Ind_H^G lam = chi (_induces), each
    vector reduced once per conductor."""
    lams = linear_characters(H)
    form = cache(normal_form)   # one reduction per (vector, m, L) in this call
    found = ((lam, next((i for i, chi in targets if _induces(lam, sums, chi, form)), None))
             for lam, sums in zip(lams, induced_linear(G, H, lams)))
    return [(lam, i) for lam, i in found if i is not None]


def verify_gutkin_brute(A: Algebra, max_dim=None) -> BruteReport:
    """Exhaustive search: for every irreducible chi of G = A^x, every pair
    (subalgebra B, linear lambda of B^x) with Ind lambda = chi.

    The scan bound on dim A is checked first (TooLarge); the order cap is
    the caller's, checked by unit_group as the CLI does. Such a B has
    [G:B^x] = chi(1), and [G:B^x] = (p-1)^(n-m) p^(dim J - dim(B ∩ J)) for
    n and m the blocks of A/J and of B's image in it (unit_order). So B
    contains span{1} + W for some W <= J of codimension c, the largest
    c <= dim J with p^c <= max chi(1), and only the brute_candidates above
    these seeds are searched. The B with one unit group H share one
    decision per lambda (_decisions).
    """
    check_scan_bound(A, max_dim)
    G = top_level(A).units
    table = char_table(G)
    per_irr = [{"degree": int(irr.degree), "witness_count": 0, "first": None}
               for irr in table.irreducibles]
    decided = {}
    for B, index in brute_candidates(A, G, table.degrees, max_dim):
        H = units_of_subspace(A, B.rows)
        if H not in decided:
            decided[H] = _decisions(G, H, [(i, irr) for i, irr in enumerate(table.irreducibles)
                                           if int(irr.degree) == index])
        for lam, i in decided[H]:
            entry = per_irr[i]
            entry["witness_count"] += 1
            if entry["first"] is None:
                entry["first"] = _witness_record(B.rows, H, lam)
    report = BruteReport(G, table, per_irr)
    if not report.all_witnessed:
        missing = [i for i, e in enumerate(per_irr) if e["witness_count"] == 0]
        raise VerificationFailure(f"irreducibles without witness: {missing}")
    return report
