"""Exact character tables, induction/restriction and the Clifford correspondence.

Tables are computed by the class-sum eigenvector method (Dixon 1967,
Schneider 1990): the class multiplication matrices are simultaneously
diagonalized over F_l for the smallest prime l = 1 (mod exponent) with
l > 2*sqrt(|G|), and the eigenvalue data is lifted to cyclotomic integers
through discrete Fourier inversion at the root z^((l-1)/m) mod l. A class
matrix is built only when the split reaches its class (smallest classes
first), as sparse columns from |C_r| * k products, and acts on a sparse row
through the columns at its entries. In each subspace the eigenvalues are the
roots in F_l of the characteristic polynomial of the restricted matrix
(Hessenberg form, valid for any dimension), with one kernel solve per root.
The lift at a class of elements of order o is a length-o DFT of
s -> chi(g^s); its weights, the DFT of each tuple of values met, and the
normal form of each multiplicity vector are shared by all characters.

Each table has one certificate, CharTable.verify, run once and kept: it is
char_table's construction gate. It decides row orthonormality in Z[zeta_m]
by one Gram product mod a second prime l = 1 (mod m), above a bound on every
complex embedding, and an exact check that Gal(Q(zeta_m)/Q) permutes the
rows. Tables are kept on their group (FiniteGroup._table) next to its classes.

Ind_H^G lam = chi, for lam linear, is decided in one place, brw.gutkin's
_induces, for the constructive witnesses and the brute search alike: lam's
exponents are counted per class of G (induced_linear), with no classes of H
and no Character of Ind lam, and |G| s_k = |C_k| |H| chi(g_k) is compared
in Z. induce takes a Character only; no code in brw calls it.

The Clifford correspondent of chi over a linear theta of a normal Q is the
projection of Res chi to its theta-part on the stabilizer S = G_theta
(Isaacs, Character Theory of Finite Groups, Thm 6.11): no table of S is built.
Its sums run over s*q for q in Q, whose ids are read off Q's Schreier tree
through the right action of Q's generators on G (groups.right_action), with
no product once that action is built.

Where values live: a Character keeps one store, (m, rows), per class a sparse
((exponent, coeff), ...) vector in Q[C_m] at one conductor m per character,
not reduced mod Phi_m. For table characters these are the eigenvalue
multiplicities of the lift (at most deg(chi) nonzeros per class); induction
and restriction add up such vectors, and a linear character's value is
((exponent, 1),). exact.normal_form reduces a vector mod Phi only where a
value is compared or read: the degree, equality, the table's sort key and
rendering (one form per distinct vector, CharTable.forms), the rationality
of an inner product, the root-of-unity lookups and induction decisions of
brw.gutkin, and each Clifford sum before its exact division by |Q|. The
certificate evaluates integer vectors mod l. No Cyclotomic is built here.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from .errors import (CertificationFailure, GroupMismatch, LiftFailure,
                     NotOverTheta, NotSubgroup)
from .exact import _coeff, _prime_factors, is_prime, kernel_basis, mod_inv, normal_form
from .groups import (ConjData, FiniteGroup, LinearChar, char_orbit, conjugacy_classes,
                     right_action)


class Character:
    """Exact class function on a finite group. Its one store of values is
    (m, rows): rows[k] is a sparse ((e, x), ...) vector in Q[C_m] whose image
    in Q(zeta_m) is the value at class k, not reduced mod Phi_m."""

    __slots__ = ("group", "conj", "m", "rows")

    def __init__(self, group: FiniteGroup, conj: ConjData, m, rows):
        self.group = group
        self.conj = conj
        self.m = m
        self.rows = tuple(rows)
        if len(self.rows) != conj.k:
            raise GroupMismatch("a character needs one value per class of its group")

    @property
    def degree(self):
        one = normal_form(self.rows[0], self.m)
        if any(one[1:]):
            raise LiftFailure("the value at the identity is not rational")
        return Fraction(one[0])

    def vectors(self, m):
        """Per-class sparse vectors in Q[C_m]; the conductor must divide m."""
        if m == self.m:
            return self.rows
        step = m // self.m
        return tuple(tuple((e * step, x) for e, x in row) for row in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        L = lcm(self.m, other.m)
        return (self.group is other.group
                and all(normal_form(x, self.m, L) == normal_form(y, other.m, L)
                        for x, y in zip(self.rows, other.rows)))

    def __hash__(self):
        raise TypeError("characters are compared, not hashed")

    def __repr__(self):
        return f"Character(deg={self.degree}, k={self.conj.k})"


def char_from_linear(theta: LinearChar) -> Character:
    """A linear character as a class function on its domain."""
    G = theta.domain
    conj = conjugacy_classes(G)
    return Character(G, conj, theta.m, [((theta.exps[r], 1),) for r in conj.reps])


def _hermitian_sum(terms, m):
    """Coefficients of sum c * x * conj(y) over (c, x, y), for sparse vectors
    x, y in Q[C_m]: one list indexed by exponent difference, not reduced."""
    acc = [0] * m
    for c, x, y in terms:
        for e, a in x:
            ca = c * a
            for f, b in y:
                acc[e - f] += ca * b   # -m < e - f < m: a negative index wraps mod m
    return acc


def inner_product(chi: Character, psi: Character) -> Fraction:
    """(1/|G|) sum chi(g) conj(psi(g)), computed class-wise; exact rational."""
    if chi.group is not psi.group:
        raise GroupMismatch("characters live on different groups")
    m = lcm(chi.m, psi.m)
    acc = _hermitian_sum(zip(chi.conj.sizes, chi.vectors(m), psi.vectors(m)), m)
    total = normal_form(enumerate(acc), m)
    if any(total[1:]):
        raise LiftFailure("inner product is not rational")
    return Fraction(total[0]) / chi.group.order


def _orthonormal_at_split_prime(rows, sizes, order, m):
    """Whether sum_k |C_k| x_ik conj(x_jk) = order * delta_ij in Z[zeta_m] for
    all i, j, for rows of per-class sparse vectors x_ik in Z[C_m]; False on a
    coefficient that is not an int. Each distinct vector is evaluated and
    mapped by each sigma_a once; vectors are compared as given, so a row set
    written in another form may be refused, never accepted in error. The
    argument is in CharTable.verify."""
    ids = {}   # distinct vector -> its index
    table = [tuple(ids.setdefault(x, len(ids)) for x in row) for row in rows]
    vecs = list(ids)
    if any(type(c) is not int for v in vecs for _, c in v):
        return False
    # Galois closure, exact: sigma_a (exponents times a) permutes the rows
    row_set = set(table)
    for a in filter(lambda a: gcd(a, m) == 1, range(2, m)):
        image = [ids.get(tuple(sorted((e * a % m, c) for e, c in v))) for v in vecs]
        if any(tuple(map(image.__getitem__, row)) not in row_set for row in table):
            return False
    # the Gram matrix at one root of unity mod l, above the bound on |sigma(y_ij)|
    norm = max((sum(abs(c) for _, c in v) for v in vecs), default=0)
    l = _split_prime(order * (norm * norm + 1), m)
    w = _root_of_order(m, l)
    pw = [pow(w, e, l) for e in range(m)]
    at = [sum(c * pw[e % m] for e, c in v) % l for v in vecs]
    at_conj = [sum(c * pw[-e % m] for e, c in v) % l for v in vecs]
    X = [[at[i] for i in row] for row in table]
    Y = [[s * at_conj[i] % l for s, i in zip(sizes, row)] for row in table]
    diagonal = order % l
    return all(sum(map(mul, x, y)) % l == (diagonal if i == j else 0)
               for i, x in enumerate(X) for j, y in enumerate(Y))


# ---------------------------------------------------------------------------
# Dixon class-sum method
# ---------------------------------------------------------------------------

def _split_prime(bound, m):
    """Smallest prime l = 1 (mod m) with l > bound."""
    l = bound + 1 + (-bound) % m
    while not is_prime(l):
        l += m
    return l


def _root_of_order(m, l):
    """z^((l-1)/m) mod l for the smallest z >= 1 that gives multiplicative
    order exactly m, for a prime l = 1 (mod m)."""
    qs, e = _prime_factors(m), (l - 1) // m
    for z in range(1, l):
        w = pow(z, e, l)
        if all(pow(w, m // q, l) != 1 for q in qs):
            return w
    raise LiftFailure(f"no element of order {m} mod {l}")


def _class_matrix(G: FiniteGroup, conj: ConjData, r_inv):
    """Sparse columns of M_r[j][k] = #{(x,y) in C_r x C_j : x y = rep_k}.

    Column k is ((j, M_r[j][k]), ...) over the nonzero entries. C_r is given
    by r_inv, the class of its inverses: x runs over C_r as u = x^-1 in
    C_{r_inv}, and y = u rep_k lies in C_j, so that the matrix costs
    |C_r| * k products and no inversion.
    """
    A = G.algebra
    xs = [G.elements[u] for u in conj.classes[r_inv]]
    cols = []
    for i in conj.reps:
        z, col = G.elements[i], {}
        for x in xs:
            j = conj.class_of[G.index[A.mul(x, z)]]
            col[j] = col.get(j, 0) + 1
        cols.append(tuple(sorted(col.items())))
    return cols


def _charpoly(B, l):
    """det(x I - B) over F_l for a square matrix B, little-endian and monic.

    B is brought to upper Hessenberg form by similarity (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.2.9), then the polynomials
    of its leading blocks follow by a recurrence. Nothing divides by 1..d, so
    any size d works, d >= l included.
    """
    d = len(B)
    H = [[x % l for x in row] for row in B]
    for m in range(1, d - 1):
        piv = next((i for i in range(m, d) if H[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            H[piv], H[m] = H[m], H[piv]
            for row in H:
                row[piv], row[m] = row[m], row[piv]
        inv = mod_inv(H[m][m - 1], l)
        for i in range(m + 1, d):
            u = H[i][m - 1] * inv % l
            if u:
                # row i -= u row m, then column m += u column i
                H[i] = [(a - u * b) % l for a, b in zip(H[i], H[m])]
                for row in H:
                    row[m] = (row[m] + u * row[i]) % l
    polys = [[1]]
    for m in range(d):
        # p_(m+1) = (x - H[m][m]) p_m
        #           - sum_(i<m) H[i][m] H[i+1][i] ... H[m][m-1] p_i
        p = polys[m]
        new = [0] + p
        for e, c in enumerate(p):
            new[e] = (new[e] - H[m][m] * c) % l
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * H[i + 1][i] % l
            if not t:
                break
            c = t * H[i][m] % l
            for e, a in enumerate(polys[i]):
                new[e] = (new[e] - c * a) % l
        polys.append(new)
    return polys[d]


def _roots(poly, l):
    """Roots in F_l, ascending, of a little-endian polynomial (Horner at each point)."""
    out = []
    for lam in range(l):
        v = 0
        for c in reversed(poly):
            v = (v * lam + c) % l
        if not v:
            out.append(lam)
    return out


def _refine_spaces(G: FiniteGroup, conj: ConjData, inv_class, l):
    """Common one-dimensional eigenspaces of the class matrices over F_l.

    Each space is (rows, pivots) in reduced echelon form, every row sparse as
    ((k, x), ...) over its nonzero entries. Classes are taken smallest first,
    since the matrix of C_r costs |C_r| * k products, and a matrix is built
    only while some space still has dimension > 1. A matrix acts on a row by
    the sum of its columns at the row's entries, and a space on which it acts
    as a scalar is kept whole. Returns each spanning vector as {k: x}.
    """
    n = conj.k
    spaces = [(tuple(((i, 1),) for i in range(n)), tuple(range(n)))]
    for r in sorted(range(1, n), key=lambda r: conj.sizes[r]):
        if all(len(rows) == 1 for rows, _ in spaces):
            break
        cols = _class_matrix(G, conj, inv_class[r])
        new_spaces = []
        for rows, pivots in spaces:
            d = len(rows)
            if d == 1:
                new_spaces.append((rows, pivots))
                continue
            # B[i] = coordinates of M w_i in the basis rows: its entries at
            # the pivots, once M w_i - sum_j B[i][j] w_j is checked to vanish
            B = []
            for w in rows:
                u = {}
                for k, x in w:
                    for j, c in cols[k]:
                        u[j] = u.get(j, 0) + c * x
                coeffs = tuple(u.get(p, 0) % l for p in pivots)
                for f, v in zip(coeffs, rows):
                    if f:
                        for k, x in v:
                            u[k] = u.get(k, 0) - f * x
                if any(x % l for x in u.values()):
                    raise LiftFailure("class-matrix action left the subspace")
                B.append(coeffs)
            lam = B[0][0]
            if all(b == (lam if i == j else 0) for i, row in enumerate(B) for j, b in enumerate(row)):
                new_spaces.append((rows, pivots))
                continue
            # row eigenvectors a of B (a.B = lam.a): kernel of (B - lam I)^T,
            # one kernel per root lam of the characteristic polynomial. The
            # kernel is in reduced echelon form, so sum_i a_i w_i is too, with
            # its pivots at those of the w_i where a has its pivots.
            found = 0
            for lam in _roots(_charpoly(B, l), l):
                bt = [[(B[i][j] - (lam if i == j else 0)) % l for i in range(d)]
                      for j in range(d)]
                ker = kernel_basis(bt, d, l)
                vecs = []
                for a in ker:
                    v = [0] * n
                    for ai, w in zip(a, rows):
                        if ai:
                            for k, x in w:
                                v[k] += ai * x
                    vecs.append(tuple((k, x % l) for k, x in enumerate(v) if x % l))
                new_spaces.append((tuple(vecs),
                                   tuple(pivots[next(i for i, x in enumerate(a) if x)]
                                         for a in ker)))
                found += len(ker)
            if found != d:
                raise LiftFailure("class matrix is not diagonalizable mod l")
        spaces = new_spaces
    if not all(len(rows) == 1 for rows, _ in spaces):
        raise LiftFailure("class matrices not simultaneously diagonalizable")
    return [dict(w) for (w,), _ in spaces]


class CharTable:
    """Complete list of irreducible characters, certified once by verify()."""

    def __init__(self, group, conj, irreducibles, conductor, forms=None):
        self.group = group
        self.conj = conj
        self.irreducibles = tuple(irreducibles)
        self.conductor = conductor
        self.forms = forms   # char_table's: each distinct class vector -> its normal form
        self._verified = None

    @property
    def degrees(self):
        return [int(ch.degree) for ch in self.irreducibles]

    def verify(self):
        """Square shape, degree equation and <chi_i, chi_j> = delta_ij for all
        i, j, exact on the per-class vectors x_ik in Z[C_m], run once and kept.

        With L the largest l1 norm of an x_ik, B = |G| (L^2 + 1) bounds
        |sigma(y_ij)| for y_ij = sum_k |C_k| x_ik conj(x_jk) - |G| delta_ij
        under every complex embedding sigma. Take the smallest prime l = 1
        (mod m) with l > B and w of order m mod l. The rows are checked to be
        closed, as vectors, under e -> a e (mod m) for every unit a mod m, and
        X_w diag(|C_k|) X_(w^-1)^T = |G| I mod l on all k^2 pairs. Closure
        gives y_ij(w^a) = y_pi(i)pi(j)(w) = 0 mod l for every unit a, so y_ij
        lies in all phi(m) primes above l and l^phi(m) divides N(y_ij); as
        |N(y_ij)| <= B^phi(m) < l^phi(m), y_ij = 0.
        Every check returns False, none is an assert. Columns follow:
        X D X^H = |G| I for the square X, D = diag(|C_k|), so
        X^-1 = |G|^-1 D X^H and X^H X = |G| D^-1."""
        if self._verified is None:
            G, chars = self.group, self.irreducibles
            m = lcm(*(ch.m for ch in chars))
            self._verified = (len(chars) == self.conj.k
                              and sum(int(ch.degree) ** 2 for ch in chars) == G.order
                              and _orthonormal_at_split_prime(
                                  [ch.vectors(m) for ch in chars], self.conj.sizes, G.order, m))
        return self._verified


def _dft_weights(pk, m, zinvpow, l):
    """(classes, W, memo) for g of order o with pk[s] the class of g^s:
    classes are the distinct pk[s] and W[i][c] = o^-1 sum_(pk[s] = classes[c])
    z^(-t i s) mod l, t = m/o, so the multiplicity of zeta^(t i) in chi(g) is
    sum_c chi(classes[c]) W[i][c] mod l for every chi. memo keeps the
    multiplicities of each tuple of values at classes met so far."""
    o = len(pk)
    t, o_inv = m // o, mod_inv(o, l)
    exps = {}   # class -> the s with g^s in it
    for s, c in enumerate(pk):
        exps.setdefault(c, []).append(s)
    W = [tuple(sum(zinvpow[t * i * s % m] for s in ss) * o_inv % l for ss in exps.values())
         for i in range(o)]
    return list(exps), W, {}


def _multiplicities(vals_mod, weights, l):
    """Per class, the eigenvalue multiplicities (c_0, ..., c_(o-1)) of one
    character from its values mod l: c_i is the multiplicity of zeta^(t i).
    Characters that agree on the powers of g share one sum."""
    out = []
    for classes, W, memo in weights:
        x = tuple(vals_mod[c] for c in classes)
        mult = memo.get(x)
        if mult is None:
            mult = memo[x] = tuple(sum(map(mul, x, col)) % l for col in W)
        out.append(mult)
    return out


def _char_table(G: FiniteGroup) -> CharTable:
    conj = conjugacy_classes(G)
    n, order = conj.k, G.order
    powers = G.power_classes()
    m = lcm(*(len(pk) for pk in powers))
    l = _split_prime(isqrt(4 * order), m)   # l * l > 4 |G| (Dixon)
    inv_class = [pk[-1] for pk in powers]   # class of g^(o-1) = g^-1
    eigvecs = _refine_spaces(G, conj, inv_class, l)

    z = _root_of_order(m, l)
    zinvpow = [pow(z, -s, l) for s in range(m)]
    # g of order o has eigenvalues zeta^(t i) only, t = m/o: one length-o DFT
    weights = [_dft_weights(pk, m, zinvpow, l) for pk in powers]
    size_inv = [mod_inv(s % l, l) for s in conj.sizes]
    bound = 2 * isqrt(order)
    vecs = {}   # multiplicities -> sparse vector, shared by all rows

    rows = []
    for w in eigvecs:
        if not w.get(0):
            raise LiftFailure("central character vanishes on the identity class")
        scale = mod_inv(w[0], l)
        ratios = [w.get(k, 0) * scale * size_inv[k] % l for k in range(n)]
        den = sum(conj.sizes[k] * ratios[k] * ratios[inv_class[k]] for k in range(n)) % l
        chi1sq = (order % l) * mod_inv(den, l) % l
        deg = next((d for d in range(1, isqrt(order) + 1) if d * d % l == chi1sq), None)
        if deg is None:
            raise LiftFailure("no integral degree matches the eigenvector")
        mults = _multiplicities([(deg * x) % l for x in ratios], weights, l)
        for mult in mults:
            if max(mult) > bound:
                raise LiftFailure("eigenvalue multiplicity out of range")
            if sum(mult) != deg:
                raise LiftFailure("multiplicities do not sum to the degree")
            if mult not in vecs:
                t = m // len(mult)
                vecs[mult] = tuple((t * i, c) for i, c in enumerate(mult) if c)
        rows.append(Character(G, conj, m, [vecs[mult] for mult in mults]))

    forms = {x: normal_form(x, m) for x in vecs.values()}
    chars = sorted(rows, key=lambda ch: (forms[ch.rows[0]][0], [forms[x] for x in ch.rows]))
    table = CharTable(G, conj, chars, m, forms)
    if not table.verify():   # the construction gate, and the table's one certificate
        raise LiftFailure("lifted table failed its orthonormality certificate")
    return table


def char_table(G: FiniteGroup) -> CharTable:
    if G._table is None:
        G._table = _char_table(G)
    return G._table


# ---------------------------------------------------------------------------
# induction / restriction
# ---------------------------------------------------------------------------

def _check_subgroup(G: FiniteGroup, H: FiniteGroup):
    if H.algebra is not G.algebra or not G.contains_group(H):
        raise NotSubgroup("H is not a subgroup of G")


def induced_linear(G: FiniteGroup, H: FiniteGroup, lams):
    """For each linear lam of H, the class sums s_k of lam over H ∩ C_k, one
    sparse vector in Z[C_(lam.m)] per class k of G, with Ind_H^G lam (g_k) =
    |G| s_k / (|C_k| |H|) (Isaacs, Character Theory of Finite Groups, (5.2)):
    lam's exponents counted per class of G, with no classes of H. For H = G,
    s_k = |C_k| lam(g_k) at the class representative, as lam is constant on
    classes. H and the domains of the lams are checked once per call."""
    _check_subgroup(G, H)
    if any(lam.domain is not H for lam in lams):
        raise GroupMismatch("lambda is not a character of H")
    conj = conjugacy_classes(G)
    if H is G:
        return [[((lam.exps[r], size),) for r, size in zip(conj.reps, conj.sizes)]
                for lam in lams]
    ks = [conj.class_of[G.index[h]] for h in H.elements]
    return [_class_sums(conj.k, lam.m, ((k, e, 1) for k, e in zip(ks, lam.exps)))
            for lam in lams]


def _class_sums(n, m, terms):
    """Sparse per-class sums in Q[C_m], for n classes, of the terms (class, exponent, coeff)."""
    sums = {}
    for k, e, x in terms:
        sums.setdefault(k, [0] * m)[e] += x
    return [tuple((e, x) for e, x in enumerate(sums[k]) if x) if k in sums else ()
            for k in range(n)]


def induce(G: FiniteGroup, H: FiniteGroup, chi: Character) -> Character:
    """Frobenius induction of a Character chi of H up to G: with s_k the sum
    of chi over the elements of H in class k of G, Ind chi (g_k) =
    |G| s_k / (|C_k| |H|). A LinearChar is refused; brw.gutkin decides
    Ind lam = chi on induced_linear's class sums instead."""
    conj = conjugacy_classes(G)
    _check_subgroup(G, H)
    if not isinstance(chi, Character) or chi.group is not H:
        raise GroupMismatch("chi is not a character of H")
    class_of = chi.conj.class_of
    terms = ((k, e, x) for k, cls in enumerate(conj.classes) for xid in cls
             if (i := H.index.get(G.elements[xid])) is not None
             for e, x in chi.rows[class_of[i]])
    rows = [tuple((e, _coeff(x * Fraction(G.order, size * H.order))) for e, x in s)
            for s, size in zip(_class_sums(conj.k, chi.m, terms), conj.sizes)]
    return Character(G, conj, chi.m, rows)


def restrict(G: FiniteGroup, H: FiniteGroup, chi: Character) -> Character:
    """Restriction of a class function on G itself to the subgroup H: chi's
    vector at the class in G of each class representative of H."""
    _check_subgroup(G, H)
    if chi.group is not G:
        raise GroupMismatch("chi is not a character of G")
    conj, class_of = conjugacy_classes(H), chi.conj.class_of
    return Character(H, conj, chi.m, [chi.rows[class_of[G.index[H.elements[r]]]]
                                      for r in conj.reps])


def clifford_correspondent(G: FiniteGroup, Q: FiniteGroup, theta: LinearChar,
                           chi: Character, orbit=None):
    """(eta, S): the irreducible of S = G_theta over theta inducing chi, as
    eta(s) = |Q|^-1 sum_q chi(sq) conj(theta(q)) at M = lcm(chi's conductor, theta.m).

    Raises NotOverTheta when eta(1) = 0 (chi does not lie over theta), and
    CertificationFailure unless <eta, eta> = 1 and eta(1) [G:S] = chi(1).
    """
    if chi.group is not G:
        raise GroupMismatch("chi is not a character of G")
    if orbit is None:
        orbit = char_orbit(G, Q, theta)
    S = orbit.stabilizer
    M = lcm(chi.m, theta.m)
    vecs = chi.vectors(M)
    step = M // theta.m
    perms = right_action(G, Q)
    conj = conjugacy_classes(S)
    rows = []
    for r in conj.reps:
        acc = [0] * M
        # ids of s*q for every q of Q, along Q's Schreier tree
        ids = Q.walk(G.index[S.elements[r]], lambda x, t: perms[t][x])
        for g, e in zip(ids, theta.exps):
            shift = e * step
            for f, x in vecs[chi.conj.class_of[g]]:
                acc[(f - shift) % M] += x
        # reduced before the division by |Q|, which is exact on the normal
        # form of an algebraic integer: eta stays in Z[C_M]
        rows.append(tuple((e, _coeff(Fraction(x, Q.order)))
                          for e, x in enumerate(normal_form(enumerate(acc), M)) if x))
    if not rows[0]:
        raise NotOverTheta("chi does not lie over theta")
    eta = Character(S, conj, M, rows)
    index = G.order // S.order
    degree = normal_form(((e, x * index) for e, x in rows[0]), M)
    if inner_product(eta, eta) != 1 or degree != normal_form(chi.rows[0], chi.m, M):
        raise CertificationFailure("projection to theta is not the Clifford correspondent")
    return eta, S
