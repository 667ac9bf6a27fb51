"""Output checks that use none of brw's code paths.

Each check returns a list of problems (empty when the output is right). The
reference values come from the pattern of each spec (group order), from the
recorded degree multisets in expected.json (isomorphism invariants, so the
same for every basis draw) and from arithmetic on the report itself.
"""

import csv
import io
import json

from inputs import expected_order, pattern_shape

# the CLI's default subalgebra-scan bound: brute mode runs iff dim <= bound[p]
SCAN_BOUND = {2: 6, 3: 5, 5: 4, 7: 4}


def check_gutkin(text, specs, expected_degrees):
    """Problems in a `gutkin --mode both` report over the given specs, in order."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    if report.get("all_ok") is not True:
        problems.append("all_ok is not true")
    results = report.get("results", [])
    names = [r.get("spec_name") for r in results]
    if names != [name for name, _ in specs]:
        return problems + [f"spec names {names} do not match the inputs"]
    for (name, spec), block in zip(specs, results):
        problems += [f"{name}: {p}" for p in _check_block(block, spec, expected_degrees[name])]
    return problems


def _check_block(block, spec, degrees):
    problems = []
    order = expected_order(spec)
    if block.get("group_order") != order:
        problems.append(f"group_order {block.get('group_order')} != {order}")
    if sorted(block.get("degrees", [])) != degrees:
        problems.append(f"degree multiset {sorted(block.get('degrees', []))} != {degrees}")
    if sum(d * d for d in block.get("degrees", [])) != order:
        problems.append("sum of squared degrees != |G|")
    p, n, pairs = pattern_shape(spec)
    brute_runs = n + len(pairs) <= SCAN_BOUND[p]
    if brute_runs == ("brute_skipped" in block):
        problems.append("brute mode ran where it should be skipped, or the reverse")
    witnesses = block.get("witnesses", [])
    if len(witnesses) != len(degrees):
        problems.append(f"{len(witnesses)} witnesses for {len(degrees)} irreducibles")
    for w in witnesses:
        if w.get("constructive", {}).get("induced_matches") is not True:
            problems.append(f"witness {w.get('index')}: induced_matches is not true")
        if brute_runs and not w.get("brute", {}).get("witness_count", 0) > 0:
            problems.append(f"witness {w.get('index')}: brute witness_count is 0")
    return problems


def check_chartable(text, spec, degrees):
    """Problems in a `chartable` CSV report."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        return ["missing header comment"]
    head = dict(f.split("=", 1) for f in lines[0].split() if "=" in f)
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    order = expected_order(spec)
    problems = []
    try:
        k = int(head["classes"])
        if int(head["group_order"]) != order:
            problems.append(f"group_order {head['group_order']} != {order}")
        sizes = [int(col.rsplit("_size", 1)[1]) for col in rows[0][1:]]
        degs = [int(r[0]) for r in rows[1:]]
    except (KeyError, IndexError, ValueError) as exc:
        return problems + [f"malformed table: {exc}"]
    if len(sizes) != k or sum(sizes) != order:
        problems.append("class columns do not partition |G|")
    if len(degs) != k or any(len(r) != k + 1 for r in rows[1:]):
        problems.append(f"table is not {k} x {k}")
    if sum(d * d for d in degs) != order:
        problems.append("sum of squared degrees != |G|")
    if sorted(degs) != degrees:
        problems.append(f"degree multiset {sorted(degs)} != {degrees}")
    return problems
