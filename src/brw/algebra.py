"""Split basic algebras presented by structure constants.

Everything here is exact over F_p: elements are coordinate tuples, subspaces
are reduced-echelon row matrices, and all certificates (associativity,
identity, ideal/subalgebra closure, idempotent orthogonality) are checked at
construction time. There is one coordinate system, the algebra's: a
subalgebra B is its echelon rows, and B is decomposed on them. A vector of B
has its coordinates along the rows at their pivot columns, so echelon forms,
reductions and the lexicographic order of B's vectors agree with those in a
basis of B. The radical and the primitive idempotents are found and
certified by linear algebra on a basis (an ideal closure, its chain of
powers and Lagrange splitting of A/J), in polynomial time; A/J is split on
its reduced representatives in A, and no quotient algebra is built.
Only the subalgebra walk (enumerate_subalgebras) enumerates, and its closures
stop at known spans.
"""

from itertools import product

from .errors import (CertificationFailure, NotBimodule, NotSplitBasic, SpecError,
                     TooLarge)
from .exact import (SUPPORTED_PRIMES, kernel_basis, mat_mul_vec, mod_inv,
                    mod_matrix_inverse, reduce_vector, rref)

# subalgebra enumeration caps: max algebra dimension per field, and a budget
# on closure computations for the lattice walk
DEFAULT_DIM_BOUND = {2: 6, 3: 5, 5: 4, 7: 4}
DEFAULT_SCAN_BUDGET = 200_000


def vec_add(u, v, p):
    return tuple((a + b) % p for a, b in zip(u, v))


def vec_sub(u, v, p):
    return tuple((a - b) % p for a, b in zip(u, v))


def vec_scale(c, u, p):
    return tuple((c * a) % p for a in u)


def vec_is_zero(u):
    return all(a == 0 for a in u)


def all_vectors(p, dim):
    """All coordinate tuples of F_p^dim, lexicographic."""
    return product(range(p), repeat=dim)


class Algebra:
    """Finite-dimensional unital associative algebra over F_p by structure constants.

    sc[i][j][k] is the coefficient of basis vector k in the product b_i * b_j.
    Associativity and the two-sided identity are certified at construction.

    The algebra owns every cache derived from it: its BasicDecomposition
    (set by cached_decomposition), its interned unit subgroups
    (groups.intern_group) and its descent levels (gutkin.get_level).
    """

    def __init__(self, p, sc, one, labels=None):
        if p not in SUPPORTED_PRIMES:
            raise SpecError(f"unsupported prime {p}")
        dim = len(sc)
        if dim == 0:
            raise SpecError("zero-dimensional algebra rejected (identity required)")
        for i, plane in enumerate(sc):
            if len(plane) != dim or any(len(row) != dim for row in plane):
                raise SpecError(f"sc[{i}] is not a {dim}x{dim} table")
        self.p = p
        self.dim = dim
        self.sc = tuple(tuple(tuple(int(c) % p for c in row) for row in plane) for plane in sc)
        self.one = tuple(int(c) % p for c in one)
        if len(self.one) != dim:
            raise SpecError("identity vector has wrong length")
        self.labels = tuple(labels) if labels is not None else tuple(f"b{i}" for i in range(dim))
        if len(self.labels) != dim:
            raise SpecError("labels length mismatch")
        # for each i, the j with b_i * b_j != 0 and the nonzero terms (k, c) of that product
        self._nz = tuple(tuple((j, tuple((k, c) for k, c in enumerate(row) if c))
                               for j, row in enumerate(plane) if any(row)) for plane in self.sc)
        # the one basis of A, and the certificate over it: 'one' is a two-sided
        # identity, then (b_i b_j) b_k = b_i (b_j b_k) for every basis triple
        E = self._basis = tuple(tuple(1 if k == i else 0 for k in range(dim))
                                for i in range(dim))
        for i, b in enumerate(E):
            if self.mul(self.one, b) != b or self.mul(b, self.one) != b:
                raise SpecError(f"'one' is not a two-sided identity (fails on basis {i})")
        for i, j, k in product(range(dim), repeat=3):
            if self.mul(self.sc[i][j], E[k]) != self.mul(E[i], self.sc[j][k]):
                raise SpecError(f"associativity fails at basis triple ({i},{j},{k})")
        self._dec = None
        self._groups = {}
        self._levels = {}

    # -- arithmetic on coordinate tuples --------------------------------------
    def mul(self, x, y):
        p = self.p
        out = [0] * self.dim
        for xi, nzi in zip(x, self._nz):
            if xi:
                for j, terms in nzi:
                    yj = y[j]
                    if yj:
                        f = xi * yj
                        for k, c in terms:
                            out[k] = (out[k] + f * c) % p
        return tuple(out)

    def power(self, x, n):
        out = self.one
        base = x
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def combine(self, coeffs, rows):
        """The linear combination sum_i coeffs[i] * rows[i] of coordinate tuples."""
        out = [0] * self.dim
        for c, row in zip(coeffs, rows):
            if c:
                for k, x in enumerate(row):
                    out[k] += c * x
        return tuple(x % self.p for x in out)

    def basis_vector(self, i):
        return self._basis[i]

    def basis(self):
        return self._basis

    def elements(self):
        return all_vectors(self.p, self.dim)

    def __repr__(self):
        return f"Algebra(p={self.p}, dim={self.dim})"


# ---------------------------------------------------------------------------
# subspaces, subalgebras, ideals
# ---------------------------------------------------------------------------

class Subspace:
    """Subspace of an Algebra, held as a reduced-echelon basis."""

    def __init__(self, owner, rows):
        self.owner = owner
        red, pivots = rref(rows, owner.p)
        self.rows = red
        self.pivots = pivots

    @property
    def dim(self):
        return len(self.rows)

    def contains(self, vec):
        res, _ = reduce_vector(vec, self.rows, self.pivots, self.owner.p)
        return vec_is_zero(res)

    def closed_under(self, left, right):
        """Whether a*v and v*b lie in the subspace for every row v, every a in
        left and every b in right."""
        A = self.owner
        return (all(self.contains(A.mul(a, v)) for a in left for v in self.rows)
                and all(self.contains(A.mul(v, b)) for v in self.rows for b in right))

    def vectors(self):
        """All vectors of the subspace (p^dim of them)."""
        for coeffs in all_vectors(self.owner.p, self.dim):
            yield self.owner.combine(coeffs, self.rows)

    def intersect(self, other):
        p = self.owner.p
        k, l = self.dim, other.dim
        if k == 0 or l == 0:
            return Subspace(self.owner, ())
        # left kernel of [[U],[-W]]: rows y with y[:k] U = y[k:] W
        stacked = [list(r) for r in self.rows] + [[(-x) % p for x in r] for r in other.rows]
        transposed = [[stacked[i][j] for i in range(k + l)] for j in range(self.owner.dim)]
        ker = kernel_basis(transposed, k + l, p)
        return Subspace(self.owner, [self.owner.combine(y[:k], self.rows) for y in ker])

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class Subalgebra(Subspace):
    """Unital multiplicatively closed subspace B, certified at construction
    (the identity and every product of two echelon rows lie in B). B has no
    basis of its own: basic_decomposition works on its rows in the owner."""

    def __init__(self, owner, rows):
        super().__init__(owner, rows)
        if not self.contains(owner.one):
            raise SpecError("subalgebra must contain the identity")
        if not self.closed_under(self.rows, ()):
            raise SpecError("subspace is not multiplicatively closed")
        self.contains_one = self.mult_closed = True   # both certified above
        self.idempotents = None  # set by basic_decomposition for the diagonal


class Ideal(Subspace):
    """Two-sided ideal of the subalgebra with echelon rows basis (default:
    the whole owner); closure under its multiplication certified."""

    def __init__(self, owner, rows, basis=None):
        super().__init__(owner, rows)
        basis = owner.basis() if basis is None else basis
        if not self.closed_under(basis, basis):
            raise SpecError("subspace is not a two-sided ideal")


class BasicDecomposition:
    """Orthogonal idempotents e_1..e_n, diagonal subalgebra D, radical J.

    It owns what is derived from the split A = D (+) J: the chain of powers
    J = J^1 > J^2 > ... > 0 that certified J nilpotent (powers, ending in
    the zero ideal), and the coordinates along D (+) J that give the torus
    part of an element.
    """

    def __init__(self, algebra, idempotents, diagonal, powers):
        self.algebra = algebra
        self.idempotents = idempotents
        self.diagonal = diagonal
        self.radical = powers[0]
        self.powers = powers
        self._torus_rows = None

    @property
    def n(self):
        return len(self.idempotents)

    def radical_power(self, n) -> Ideal:
        """J^n, the span of all n-fold products of radical elements (J^1 = J)."""
        if n < 1:
            raise SpecError(f"radical power needs n >= 1, got {n}")
        return self.powers[min(n, len(self.powers)) - 1]

    def torus_coeffs(self, v):
        """Coefficients of e_1..e_n when v is written in the basis idempotents + rows of J."""
        A = self.algebra
        if self._torus_rows is None:
            rows = self.idempotents + self.radical.rows
            transposed = [[r[j] for r in rows] for j in range(A.dim)]
            self._torus_rows = mod_matrix_inverse(transposed, A.p)[:self.n]
        return mat_mul_vec(self._torus_rows, v, A.p)


# ---------------------------------------------------------------------------
# radical / split-basic certification
# ---------------------------------------------------------------------------

def _insert_row(rows, pivots, vec, p):
    """RREF (rows, pivots) of rows + (vec,) by one reduction of vec and one
    clear of its pivot column in rows; None when vec lies in the span."""
    res, _ = reduce_vector(vec, rows, pivots, p)
    c = next((i for i, x in enumerate(res) if x), None)
    if c is None:
        return None
    new = vec_scale(mod_inv(res[c], p), res, p)
    rows = tuple(tuple((x - r[c] * y) % p for x, y in zip(r, new)) if r[c] else r for r in rows)
    k = sum(q < c for q in pivots)
    return rows[:k] + (new,) + rows[k:], pivots[:k] + (c,) + pivots[k:]


def _ideal_closure(A, basis, gens):
    """RREF (rows, pivots) of the two-sided ideal generated by gens in the
    subalgebra with echelon rows basis: each new independent vector is
    multiplied by every row of basis on both sides."""
    rows, pivots = (), ()
    todo = list(gens)
    while todo:
        w = todo.pop()
        grown = _insert_row(rows, pivots, w, A.p)
        if grown is None:
            continue
        rows, pivots = grown
        for b in basis:
            todo += [A.mul(b, w), A.mul(w, b)]
    return rows, pivots


def _split_idempotents(A, basis, rows, pivots):
    """Primitive idempotents of B/J = F_p^n, B with echelon rows basis and J
    its ideal with RREF rows and pivots, as reduced representatives (zero at
    J's pivot columns), sorted descending: the reduced identity split, for
    each row b of basis whose pivot is not J's, by the Lagrange idempotents
    1 - (b - c)^(p-1), c in F_p (the indicator of the coordinates where b
    equals c). Products are taken in A and reduced along rows: as J is a
    two-sided ideal of B, that is the product of B/J."""
    p = A.p

    def mod_j(v):
        return reduce_vector(v, rows, pivots, p)[0]

    one = mod_j(A.one)
    idems = [one]
    for b in (b for b in basis if next(c for c, x in enumerate(b) if x) not in pivots):
        lagrange = [vec_sub(one, mod_j(A.power(vec_sub(b, vec_scale(c, one, p), p), p - 1)), p)
                    for c in range(p)]
        idems = [f for e in idems for f in (mod_j(A.mul(e, l)) for l in lagrange) if not vec_is_zero(f)]
    return sorted(idems, reverse=True)


def _split_basic_analysis(A, basis):
    """(chain J > J^2 > ... > 0 as RREF rows, primitive idempotents of B/J as
    the reduced representatives of _split_idempotents), or raise NotSplitBasic,
    for B the subalgebra of A with echelon rows basis (A.basis() for A).

    Let I be the two-sided ideal of B generated by the commutators
    b_i b_j - b_j b_i and the b_i^p - b_i of the basis. B/I is commutative,
    so Frobenius is additive there and x^p = x on all of B/I: B/I is a
    product of copies of F_p, hence I contains the radical J. So B is split
    basic exactly when I is nilpotent, and then J = I. Nilpotency is
    certified by the chain I > I^2 > ... > 0 (I^(k+1) spanned by the
    products of the rows of I^k and I); a step that keeps a nonzero
    dimension means I^k = I^(k+1) != 0. The idempotents are certified
    dim B - dim J in number, orthogonal and summing to 1 modulo J.
    """
    gens = [vec_sub(A.mul(u, v), A.mul(v, u), A.p) for i, u in enumerate(basis) for v in basis[i + 1:]]
    gens += [vec_sub(A.power(b, A.p), b, A.p) for b in basis]
    rows, pivots = _ideal_closure(A, basis, gens)
    chain = [rows]
    while chain[-1]:
        nxt, _ = rref([A.mul(u, v) for u in chain[-1] for v in rows], A.p)
        if len(nxt) == len(chain[-1]):
            raise NotSplitBasic("the ideal generated by commutators and b^p - b is not nilpotent")
        chain.append(nxt)
    prims = _split_idempotents(A, basis, rows, pivots)
    if len(prims) != len(basis) - len(rows):
        raise NotSplitBasic("semisimple quotient is not split (wrong idempotent count)")
    for e in prims:
        for f in prims:
            if e != f and not vec_is_zero(reduce_vector(A.mul(e, f), rows, pivots, A.p)[0]):
                raise NotSplitBasic("quotient idempotents not orthogonal")
    if A.combine([1] * len(prims), prims) != reduce_vector(A.one, rows, pivots, A.p)[0]:
        raise NotSplitBasic("quotient idempotents do not sum to 1")
    return chain, prims


def radical(A: Algebra) -> Ideal:
    """The Jacobson radical, certified nilpotent and an ideal.

    Raises NotSplitBasic when A is not split basic.
    """
    return cached_decomposition(A).radical


def is_split_basic(A) -> tuple[bool, str]:
    """(verdict, reason). Accepts an Algebra or a certified Subalgebra."""
    try:
        (basic_decomposition if isinstance(A, Subalgebra) else cached_decomposition)(A)
    except NotSplitBasic as exc:
        return False, str(exc)
    return True, "split basic"


def _lift_idempotent(A, a, steps):
    # Newton iteration e -> 3e^2 - 2e^3 converges modulo nilpotents in any char
    e = a
    for _ in range(steps):
        e2 = A.mul(e, e)
        if e2 == e:
            return e
        e3 = A.mul(e2, e)
        e = vec_sub(vec_scale(3, e2, A.p), vec_scale(2, e3, A.p), A.p)
    if A.mul(e, e) != e:
        raise NotSplitBasic("idempotent lifting did not converge")
    return e


def basic_decomposition(B) -> BasicDecomposition:
    """Orthogonal idempotents summing to 1, the diagonal D and radical J, certified,
    of an Algebra, or of a certified Subalgebra B on its echelon rows in its
    owner A (each J^n certified an ideal of B)."""
    A, basis = (B.owner, B.rows) if isinstance(B, Subalgebra) else (B, B.basis())
    chain, prims = _split_basic_analysis(A, basis)
    steps = (len(basis) - 1).bit_length() + 2
    idems = []
    zero = s = (0,) * A.dim
    for a in prims:
        one_minus_s = vec_sub(A.one, s, A.p)
        a = A.mul(A.mul(one_minus_s, a), one_minus_s)
        e = _lift_idempotent(A, a, steps)
        idems.append(e)
        s = vec_add(s, e, A.p)
    if s != A.one:
        raise NotSplitBasic("lifted idempotents do not sum to 1")
    for i, e in enumerate(idems):
        for j, f in enumerate(idems):
            if A.mul(e, f) != (e if i == j else zero):
                raise NotSplitBasic("lifted idempotents not orthogonal")
    diagonal = Subalgebra(A, idems)
    diagonal.idempotents = tuple(idems)
    powers = tuple(Ideal(A, rows, basis) for rows in chain)
    if diagonal.dim + powers[0].dim != len(basis) or diagonal.intersect(powers[0]).dim != 0:
        raise NotSplitBasic("A is not the direct sum D + J")
    return BasicDecomposition(A, tuple(idems), diagonal, powers)


def cached_decomposition(A: Algebra) -> BasicDecomposition:
    """basic_decomposition(A), computed once and kept on A."""
    if A._dec is None:
        A._dec = basic_decomposition(A)
    return A._dec


def radical_power(A: Algebra, n: int) -> Ideal:
    """Span of all n-fold products of radical elements (J^1 = J)."""
    return cached_decomposition(A).radical_power(n)


# ---------------------------------------------------------------------------
# D-bimodule structure
# ---------------------------------------------------------------------------

def _check_bimodule(idems, V: Subspace):
    if not V.closed_under(idems, idems):
        raise NotBimodule("subspace not closed under the idempotent action")


def bimodule_decompose(D: Subalgebra, V: Subspace):
    """Homogeneous components e_i V e_j of a D-bimodule V, for D the diagonal
    of a BasicDecomposition (which sets its idempotents e_i).

    Returns [(i, j, Subspace)] for the nonzero components, ordered by (i, j).
    Every subspace of a homogeneous component is itself a sub-bimodule, so the
    rows of each component give its refinement into one-dimensional pieces.
    """
    A = D.owner
    idems = D.idempotents
    _check_bimodule(idems, V)
    comps = []
    total = 0
    for i, ei in enumerate(idems):
        for j, ej in enumerate(idems):
            rows = [A.mul(ei, A.mul(v, ej)) for v in V.rows]
            comp = Subspace(A, rows)
            if comp.dim:
                comps.append((i, j, comp))
                total += comp.dim
    if total != V.dim:
        raise CertificationFailure("homogeneous components do not exhaust V")
    return comps


def bimodule_complement(D: Subalgebra, V: Subspace, V1: Subspace) -> Subspace:
    """A sub-bimodule V2 with V = V1 (+) V2, built inside homogeneous components."""
    A = D.owner
    idems = D.idempotents
    _check_bimodule(idems, V)
    _check_bimodule(idems, V1)
    for v in V1.rows:
        if not V.contains(v):
            raise NotBimodule("V1 is not contained in V")
    rows, pivots = V1.rows, V1.pivots
    comp_rows = []
    for _, _, comp in bimodule_decompose(D, V):
        for v in comp.rows:
            grown = _insert_row(rows, pivots, v, A.p)
            if grown is not None:
                rows, pivots = grown
                comp_rows.append(v)
    V2 = Subspace(A, comp_rows)
    if V1.dim + V2.dim != V.dim or V1.intersect(V2).dim != 0:
        raise CertificationFailure("V1 and the complement do not span V as a direct sum")
    return V2


# ---------------------------------------------------------------------------
# subalgebra enumeration
# ---------------------------------------------------------------------------

def _closure_rows(A, rows, pivots, d, known):
    """RREF rows of the smallest multiplicatively closed subspace containing
    a closed subspace (RREF rows and pivots) and the vector d.

    span holds independent vectors spanning the running span W, starting with
    rows, whose products lie in W. Each new vector enters W by one echelon
    insert and is multiplied on both sides by every vector of span and by
    itself, so each ordered pair is multiplied at most once; products of a
    spanning set span the products of the span.

    known maps spans to closures. The closure stops at the first W in known,
    then maps each W it passed through to its result C (a closure that runs
    to its end passes C itself). This is exact: once d is in, V = rows + d
    lies in W and W in closure(V). A closed W is closure(V); a W passed by an
    earlier closure with result C has closure(V) = closure(W) = C.
    """
    span, todo, passed = list(rows), [d], []
    while todo:
        w = todo.pop()
        grown = _insert_row(rows, pivots, w, A.p)
        if grown is None:
            continue
        rows, pivots = grown
        if rows in known:
            rows = known[rows]
            break
        passed.append(rows)
        todo.append(A.mul(w, w))
        for u in span:
            todo += [A.mul(w, u), A.mul(u, w)]
        span.append(w)
    known.update(dict.fromkeys(passed, rows))
    return rows


def _coset_directions(A, pivots):
    """Canonical nonzero coset representatives of A / span(rows), rows with these pivots."""
    free = [c for c in range(A.dim) if c not in pivots]
    for coeffs in all_vectors(A.p, len(free)):
        if next((x for x in coeffs if x), None) == 1:
            v = [0] * A.dim
            for c, x in zip(free, coeffs):
                v[c] = x
            yield tuple(v)


def check_scan_bound(A: Algebra, max_dim=None):
    """TooLarge unless dim A <= max_dim (default: DEFAULT_DIM_BOUND[p])."""
    bound = max_dim if max_dim is not None else DEFAULT_DIM_BOUND[A.p]
    if A.dim > bound:
        raise TooLarge(f"dim {A.dim} exceeds subalgebra scan bound {bound} for p={A.p}")


def enumerate_subalgebras(A: Algebra, max_dim=None, seeds=None):
    """All unital multiplicatively closed subspaces of A containing a seed.

    seeds is an iterable of vector lists, read after the scan bound is
    checked; None means the one empty seed, so the whole lattice. Lattice
    walk: start at the closures of span{1} + span(seed), repeatedly extend a
    known subalgebra B by one coset direction d and complete the
    multiplicative closure, with one span -> closure map for the whole walk
    (_closure_rows); dedupe by echelon normal form. At most
    DEFAULT_SCAN_BUDGET closures are run, then TooLarge. Output sorted by
    dimension, then lexicographic echelon basis.
    """
    check_scan_bound(A, max_dim)
    start, _ = rref([A.one], A.p)
    known = {start: start}
    found, queue, spent = set(), [], 0

    def close(rows, d, pivots=None):
        nonlocal spent
        spent += 1
        if spent > DEFAULT_SCAN_BUDGET:
            raise TooLarge(f"subalgebra scan budget {DEFAULT_SCAN_BUDGET} exhausted")
        pivots = pivots or tuple(next(c for c, x in enumerate(r) if x) for r in rows)
        return _closure_rows(A, rows, pivots, d, known)

    for seed in seeds if seeds is not None else [()]:
        rows = start
        for w in seed:
            rows = close(rows, w)
        if rows not in found:
            found.add(rows)
            queue.append(rows)
    while queue:
        rows = queue.pop()
        pivots = tuple(next(c for c, x in enumerate(r) if x) for r in rows)
        for d in _coset_directions(A, pivots):
            closed = close(rows, d, pivots)
            if closed not in found:
                found.add(closed)
                if len(closed) < A.dim:
                    queue.append(closed)
    out = [Subalgebra(A, rows) for rows in found]
    out.sort(key=lambda s: (s.dim, s.rows))
    return out


# ---------------------------------------------------------------------------
# spec ingestion and named families
# ---------------------------------------------------------------------------

def pattern_algebra(p, n, closed_pairs) -> Algebra:
    """Pattern subalgebra of B_n(F_p): span of {e_ii} and {e_ij : (i,j) closed}.

    closed_pairs must satisfy i < j and be transitively closed.
    """
    if not isinstance(n, int) or n < 1:
        raise SpecError(f"pattern size must be a positive integer, got {n}")
    pairs = []
    for pair in closed_pairs:
        if len(pair) != 2:
            raise SpecError(f"closed pair {pair} must have two entries")
        i, j = int(pair[0]), int(pair[1])
        if not (1 <= i < j <= n):
            raise SpecError(f"closed pair ({i},{j}) must satisfy 1 <= i < j <= {n}")
        if (i, j) in pairs:
            raise SpecError(f"duplicate closed pair ({i},{j})")
        pairs.append((i, j))
    pair_set = set(pairs)
    for (i, j) in pairs:
        for (k, l) in pairs:
            if j == k and (i, l) not in pair_set:
                raise SpecError(f"closed_pairs not transitively closed: ({i},{j})*({k},{l}) needs ({i},{l})")
    basis = [(i, i) for i in range(1, n + 1)] + sorted(pairs)
    index = {b: t for t, b in enumerate(basis)}
    dim = len(basis)
    sc = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for t1, (a, b) in enumerate(basis):
        for t2, (c, d) in enumerate(basis):
            if b == c:
                sc[t1][t2][index[(a, d)]] = 1
    one = [0] * dim
    for i in range(1, n + 1):
        one[index[(i, i)]] = 1
    labels = [f"e{i}{j}" for (i, j) in basis]
    return Algebra(p, sc, one, labels)


def borel_algebra(p, n) -> Algebra:
    """Upper-triangular n x n matrices over F_p."""
    return pattern_algebra(p, n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def _check_int_array(value, shape, field):
    """Check that value is a nested list of ints of the given shape."""
    if not shape:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(f"{field} must be an integer, got {type(value).__name__}")
        return
    if not isinstance(value, list) or len(value) != shape[0]:
        raise SpecError(f"{field} must be a list of length {shape[0]}")
    for i, v in enumerate(value):
        _check_int_array(v, shape[1:], f"{field}[{i}]")


def algebra_from_spec(spec: dict) -> Algebra:
    """Build an Algebra from the JSON ingestion format.

    Either {"p", "dim", "one", "sc", "labels"?} with explicit structure
    constants, or {"p", "pattern": {"n", "closed_pairs"}}. Shapes and integer
    entries are checked here, so malformed input raises SpecError.
    """
    if not isinstance(spec, dict):
        raise SpecError("algebra spec must be a JSON object")
    if "p" not in spec:
        raise SpecError("algebra spec missing field 'p'")
    p = spec["p"]
    _check_int_array(p, (), "p")
    if "pattern" in spec:
        pat = spec["pattern"]
        if not isinstance(pat, dict) or "n" not in pat or "closed_pairs" not in pat:
            raise SpecError("pattern spec needs fields 'n' and 'closed_pairs'")
        _check_int_array(pat["n"], (), "pattern.n")
        pairs = pat["closed_pairs"]
        if not isinstance(pairs, list):
            raise SpecError("closed_pairs must be a list of [i, j] pairs")
        for t, pair in enumerate(pairs):
            _check_int_array(pair, (2,), f"closed_pairs[{t}]")
        return pattern_algebra(p, pat["n"], pairs)
    for field in ("dim", "one", "sc"):
        if field not in spec:
            raise SpecError(f"algebra spec missing field '{field}'")
    _check_int_array(spec["dim"], (), "dim")
    sc = spec["sc"]
    if not isinstance(sc, list) or len(sc) != spec["dim"]:
        raise SpecError("field 'dim' disagrees with the sc tensor")
    dim = len(sc)
    _check_int_array(sc, (dim, dim, dim), "sc")
    _check_int_array(spec["one"], (dim,), "one")
    labels = spec.get("labels")
    if labels is not None and not (isinstance(labels, list)
                                   and all(isinstance(x, str) for x in labels)):
        raise SpecError("field 'labels' must be a list of strings")
    return Algebra(p, sc, spec["one"], labels)
