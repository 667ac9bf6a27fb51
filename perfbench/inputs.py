"""Seeded inputs for the benchmark: spec files for each workload.

Every spec starts from a pattern algebra (span of the diagonal matrix units
and the listed e_ij) and is written in a seed-drawn basis:

- a *monomial* draw permutes the basis vectors and rescales each by a nonzero
  scalar, so the structure constants stay exactly as sparse as the pattern
  basis; seed 0 is the identity draw and writes the spec unchanged;
- a *dense* draw takes a uniformly random invertible matrix over F_p, so the
  structure constants fill in and the radical and idempotents no longer sit
  on coordinate axes.

Structure constants are computed here from the matrix units, not by brw, and
each file keeps its spec name as basename so report keys do not depend on the
seed. Shipped corpus files are only read, never written.
"""

import json
import os
import random

# the shipped default corpus, in its CLI order
DEFAULT_CORPUS = (
    "b2_f2", "b2_f3", "b2_f5",
    "b3_f2", "b3_f3", "b4_f2",
    "pattern3_f3", "pattern3_f2", "pattern4_f2",
    "diag2_f2", "diag2_f3", "diag1_f5",
)

# mid-size groups that are not in the shipped corpus
EXTRA_SPECS = {
    "b2_f7": {"p": 7, "pattern": {"n": 2, "closed_pairs": [[1, 2]]}},
    "row4_f3": {"p": 3, "pattern": {"n": 4, "closed_pairs": [[1, 2], [1, 3], [1, 4]]}},
}

CORPUS_DIR = os.path.join("src", "brw", "corpus_specs")


def source_spec(root, name):
    """(pattern spec, raw file bytes or None) for a corpus or extra spec."""
    if name in EXTRA_SPECS:
        return EXTRA_SPECS[name], None
    with open(os.path.join(root, CORPUS_DIR, name + ".json"), "rb") as f:
        raw = f.read()
    return json.loads(raw), raw


def pattern_shape(spec):
    """(p, n, closed pairs) of a pattern spec."""
    pat = spec["pattern"]
    return spec["p"], pat["n"], [tuple(q) for q in pat["closed_pairs"]]


def expected_order(spec):
    """|A^x| = (p-1)^n * p^dim J for a pattern algebra."""
    p, n, pairs = pattern_shape(spec)
    return (p - 1) ** n * p ** len(pairs)


def pattern_structure(p, n, pairs):
    """(sc, one) of the pattern algebra on matrix units: diagonal, then pairs."""
    basis = [(i, i) for i in range(1, n + 1)] + sorted(pairs)
    index = {b: t for t, b in enumerate(basis)}
    dim = len(basis)
    sc = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for s, (a, b) in enumerate(basis):
        for t, (c, d) in enumerate(basis):
            if b == c:
                sc[s][t][index[(a, d)]] = 1
    one = [1 if a == b else 0 for (a, b) in basis]
    return sc, one


def _inverse(m, p):
    """Inverse of a square matrix over F_p by Gauss-Jordan, or None if singular."""
    n = len(m)
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        r = next((i for i in range(c, n) if work[i][c] % p), None)
        if r is None:
            return None
        work[c], work[r] = work[r], work[c]
        inv = pow(work[c][c], p - 2, p)
        work[c] = [(x * inv) % p for x in work[c]]
        for i in range(n):
            if i != c and work[i][c]:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[c])]
    return [row[n:] for row in work]


def monomial_matrix(rng, p, dim):
    perm = list(range(dim))
    rng.shuffle(perm)
    m = [[0] * dim for _ in range(dim)]
    for i, j in enumerate(perm):
        m[i][j] = rng.randrange(1, p)
    return m


def dense_matrix(rng, p, dim):
    while True:
        m = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        if _inverse(m, p) is not None:
            return m


def rebase(p, sc, one, m):
    """Structure constants in the basis c_i = sum_k m[i][k] b_k."""
    dim = len(sc)
    minv = _inverse(m, p)
    # products c_i c_j in the old basis, then old basis -> new via minv
    new_sc = []
    for i in range(dim):
        plane = []
        for j in range(dim):
            old = [0] * dim
            for k, a in enumerate(m[i]):
                if not a:
                    continue
                for l, b in enumerate(m[j]):
                    if b:
                        for t, c in enumerate(sc[k][l]):
                            if c:
                                old[t] += a * b * c
            plane.append([sum(old[t] * minv[t][s] for t in range(dim)) % p
                          for s in range(dim)])
        new_sc.append(plane)
    new_one = [sum(one[t] * minv[t][s] for t in range(dim)) % p for s in range(dim)]
    return new_sc, new_one


def draw_spec(spec, raw, basis, rng, seed):
    """Bytes of the spec file for one draw ("monomial" or "dense")."""
    if basis == "monomial" and seed == 0:
        return raw if raw is not None else (json.dumps(spec, indent=2) + "\n").encode()
    p, n, pairs = pattern_shape(spec)
    sc, one = pattern_structure(p, n, pairs)
    draw = monomial_matrix if basis == "monomial" else dense_matrix
    sc, one = rebase(p, sc, one, draw(rng, p, len(sc)))
    out = {"p": p, "dim": len(sc), "one": one, "sc": sc}
    return (json.dumps(out, separators=(",", ":")) + "\n").encode()


def write_specs(root, out_dir, names, basis, seed):
    """Write one spec file per name into out_dir; returns [(name, path, spec)]."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name in names:
        spec, raw = source_spec(root, name)
        rng = random.Random(f"{basis}:{seed}:{name}")
        path = os.path.join(out_dir, name + ".json")
        with open(path, "wb") as f:
            f.write(draw_spec(spec, raw, basis, rng, seed))
        written.append((name, path, spec))
    return written
