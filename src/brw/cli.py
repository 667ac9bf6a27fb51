"""Command-line interface: corpus info, character tables, witness reports,
orbit reports and the local-character utilities.

All reports are deterministic for a fixed (spec, seed): no timestamps, sorted
JSON keys, and the run configuration embedded in every file.

`gutkin` runs its specs in up to one process per CPU of its affinity mask
(the calling process and forked children, pulling the specs longest first
from one queue) and merges their blocks in spec order, so its reports are
identical to a run in one process. Run it under `taskset -c 0` for one
process when profiling or tracing.

Exit codes: 0 success, 2 spec error, 3 cap exceeded, 4 verification failure.
A report is written only when everything in it is verified: any verification
failure exits 4 with one stderr line and writes nothing.

Importing this module runs errors, exact, algebra and corpus only. The layers
groups, chars, gutkin and localfield are deferred (_deferred): each is
compiled and run when a command first reads one of its names. So `corpus`, a
spec error and `info` on a non-split algebra load none of them, `info` loads
groups, `chartable` groups and chars, `orbits` groups, chars and gutkin,
`local` groups and localfield, and `gutkin` all four, before it forks.
The layers are registered in sys.modules rather than imported inside each
command because perfbench/tracer.py reads them from sys.modules right after
importing this module; it loads each one as it wraps it.
"""

import argparse
import csv
import importlib.util
import io
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__
from .algebra import (DEFAULT_ORDER_CAP, Ideal, Subalgebra, _check_int_array,
                      cached_decomposition, is_split_basic, radical_power)
from .corpus import ALL_CORPUS, DEFAULT_CORPUS, load_spec, read_json, spec_algebra
from .errors import (BrwError, NotInsideRadical, NotSplitBasic, SpecError,
                     TooLarge, VerificationFailure)
from .exact import Cyclotomic


def _deferred(name):
    """The module brw.<name>, compiled and run when one of its attributes is
    first read. It is put in sys.modules and on the brw package now, as an
    import would put it, so `import brw.<name>` and sys.modules find it."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return sys.modules[fullname]


groups = _deferred("groups")
chars = _deferred("chars")
gutkin = _deferred("gutkin")
localfield = _deferred("localfield")

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_CAP = 3
EXIT_VERIFY = 4

REPORT_VERSION = 1


def _config_block(args, mode=None):
    block = {
        "version": __version__,
        "report_version": REPORT_VERSION,
        "seed": args.seed,
        "cap_order": args.cap_order,
        "cap_scan": args.cap_scan,
    }
    if mode is not None:
        block["mode"] = mode
    return block


def _emit(args, name, payload, ext="json"):
    """Write a report: payload is its text, or a JSON object to encode. A
    report that cannot be written is a SpecError, naming the path."""
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        path = os.path.join(args.out, f"{name}.{ext}")
        try:
            os.makedirs(args.out, exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(payload)
        except OSError as exc:
            raise SpecError(f"cannot write report '{path}': {exc}") from None
        print(path)
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------

def cmd_info(args):
    name, spec = load_spec(args.spec)
    A = spec_algebra(spec)
    ok, reason = is_split_basic(A)
    report = {
        "schema": "brw.info/1",
        "config": _config_block(args),
        "spec_name": name,
        "spec": spec,
        "p": A.p,
        "dim": A.dim,
        "labels": list(A.labels),
        "split_basic": ok,
        "split_basic_reason": reason,
    }
    if ok:
        dec = cached_decomposition(A)
        G = groups.unit_group(A, cap=args.cap_order)
        report.update({
            "idempotents": [list(e) for e in dec.idempotents],
            "radical_dims": [J.dim for J in dec.powers],
            "group_order": G.order,
            "torus_order": groups.torus_subgroup(A).order,
            "radical_group_order": groups.radical_subgroup(A).order,
        })
    _emit(args, f"info_{name}", report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# chartable
# ---------------------------------------------------------------------------

def cmd_chartable(args):
    name, spec = load_spec(args.spec)
    A = spec_algebra(spec)
    G = groups.unit_group(A, cap=args.cap_order)
    table = chars.char_table(G)
    buf = io.StringIO()
    buf.write(f"# brw.chartable/{REPORT_VERSION} spec={name} group_order={G.order} "
              f"classes={table.conj.k} conductor={table.conductor} "
              f"(z = primitive {table.conductor}-th root of unity)\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["degree"] + [f"class{k}_size{s}" for k, s in enumerate(table.conj.sizes)])
    cells = {x: Cyclotomic(table.conductor, f).render() for x, f in table.forms.items()}
    for chi in table.irreducibles:
        writer.writerow([int(chi.degree)] + [cells[x] for x in chi.rows])
    _emit(args, f"chartable_{name}", buf.getvalue(), ext="csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# gutkin
# ---------------------------------------------------------------------------

def _gutkin_one(name, spec, args):
    A = spec_algebra(spec)
    G = groups.unit_group(A, cap=args.cap_order)
    table = chars.char_table(G)
    block = {
        "spec_name": name,
        "group_order": G.order,
        "num_irreducibles": len(table.irreducibles),
        "degrees": table.degrees,
        "sum_degree_squares": sum(d * d for d in table.degrees),
    }
    constructive = args.mode in ("constructive", "both")
    brute_report = None
    if args.mode in ("brute", "both"):
        try:
            brute_report = gutkin.verify_gutkin_brute(A, max_dim=args.cap_scan)
        except TooLarge as exc:
            if args.mode == "brute":   # the one search asked for did not run
                raise
            block["brute_skipped"] = str(exc)
    # every check raises, so a block that is returned holds only passes
    witnesses = []
    for i, chi in enumerate(table.irreducibles):
        entry = {"index": i, "degree": int(chi.degree)}
        if constructive:
            witness = gutkin.gutkin_decompose(A, chi)
            summary = witness.summary()
            summary["admissible_shape"] = localfield.InductionDatum(
                A, witness.subalgebra).diag_contained
            entry["constructive"] = summary
        if args.mode in ("brute", "both"):
            entry["brute"] = (brute_report.per_irr[i] if brute_report is not None
                              else {"skipped": block["brute_skipped"]})
        if args.mode == "both":
            entry["agree"] = True
        witnesses.append(entry)
    block["witnesses"] = witnesses
    block["constructive_ok"] = True if constructive else None
    block["brute_ok"] = True if brute_report is not None else None
    if args.mode == "both":
        block["modes_agree"] = True
    return block


def _cpu_count():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _spec_cost(item):
    """log p^dim, dim = len(sc) or n + |closed_pairs| read off the spec; inf
    for a spec that cannot be read, so it fails first. Never raises."""
    try:
        spec = load_spec(item)[1]
        pat = spec.get("pattern")
        dim = len(spec["sc"]) if pat is None else pat["n"] + len(pat["closed_pairs"])
        return dim * math.log(spec["p"])
    except Exception:   # the worker that runs the spec reports the failure
        return math.inf


def _gutkin_share(items, pull, args):
    """[(i, (spec name, block text) or exception)] for the specs this
    worker pulls, each block encoded as indented in the report. After a
    failure at spec f only specs before f run: the rest cannot change which
    failure is raised."""
    out, failed = [], None
    while (i := pull()) is not None:
        if failed is not None and i > failed:
            continue
        try:
            block = _gutkin_one(*load_spec(items[i]), args)
        except Exception as exc:  # re-raised by _gutkin_blocks in spec order
            out.append((i, exc))
            failed = i
            continue
        text = json.dumps(block, sort_keys=True, indent=2).replace("\n", "\n    ")
        out.append((i, (block["spec_name"], "    " + text)))
    return out


def _gutkin_blocks(items, args):
    """The result of every spec, in spec order; the first failure in spec
    order is raised as the serial loop would raise it.

    No block reads another, so the specs go to W workers, W the number of
    CPUs this process may use, at most one per spec: this process and W - 1
    forked children (the CLI starts no thread, so the fork is safe), which
    pickle their [(i, result or exception)] to a pipe. The workers pull the
    specs longest first (by _spec_cost, ties in spec order) from one queue
    whose position is the one record on a pipe, taken by one read and put
    back advanced by one write; the workers that exist take all of it.
    """
    n = len(items)
    order = sorted(range(n), key=lambda i: -_spec_cost(items[i]))
    W = min(n, _cpu_count()) if hasattr(os, "fork") else 1
    queue = os.pipe()
    os.write(queue[1], bytes(8))

    def pull():
        pos = int.from_bytes(os.read(queue[0], 8), "little")
        os.write(queue[1], min(pos + 1, n).to_bytes(8, "little"))
        return order[pos] if pos < n else None

    if W > 1:
        import pickle
        import signal
    children = []    # (worker, pid, read end) of every child not yet reaped
    lost = {}        # worker -> exit code of a child that sent no result
    done = {}
    try:
        for w in range(1, W):
            r, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare
                os.close(r)
                os.close(wfd)
                break
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    for _, _, f in children:
                        f.close()
                    with os.fdopen(wfd, "wb") as f:
                        pickle.dump(_gutkin_share(items, pull, args), f)
                    status = 0
                finally:
                    os._exit(status)
            os.close(wfd)
            children.append((w, pid, os.fdopen(r, "rb")))
        done.update(_gutkin_share(items, pull, args))
        while children:
            w, pid, f = children[0]
            with f:
                data = f.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            try:
                done.update(pickle.loads(data))
            except Exception:  # the child died before or while writing
                lost[w] = os.waitstatus_to_exitcode(status)
    finally:
        os.close(queue[0])
        os.close(queue[1])
        for _, pid, f in children:
            f.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for i in range(n):
        if i not in done:   # pulled by a child that sent no result
            w = min(lost)
            raise VerificationFailure(f"gutkin worker {w} ended without a result "
                                      f"(exit code {lost[w]})")
        if isinstance(done[i], Exception):
            raise done[i]
    return [done[i] for i in range(n)]


def cmd_gutkin(args):
    names = list(args.spec) if args.spec else list(DEFAULT_CORPUS)
    for layer in (gutkin, localfield):   # run once here, not in each forked worker
        vars(layer)
    results = _gutkin_blocks(names, args)
    report = {
        "schema": "brw.gutkin/1",
        "config": _config_block(args, mode=args.mode),
        "results": [],
        "all_ok": True,   # a failed check raised in _gutkin_blocks
    }
    text = json.dumps(report, sort_keys=True, indent=2).replace(   # splice the blocks in
        '"results": []', '"results": [\n' + ",\n".join(t for _, t in results) + "\n  ]", 1)
    _emit(args, "gutkin" if len(names) > 1 else f"gutkin_{results[0][0]}", text + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

def _resolve_ideal(A, text):
    try:
        n = int(text)
        return f"J^{n}", radical_power(A, n)
    except ValueError:
        pass
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"--ideal must be a radical power or a JSON list of rows: {exc}")
    if not isinstance(rows, list):
        raise SpecError(f"--ideal must be a radical power or a JSON list of rows, not {text}")
    _check_int_array(rows, (len(rows), A.dim), "--ideal")
    return "custom", Ideal(A, [tuple(r) for r in rows])


def cmd_orbits(args):
    name, spec = load_spec(args.spec)
    A = spec_algebra(spec)
    G = groups.unit_group(A, cap=args.cap_order)
    label, I = _resolve_ideal(A, args.ideal)
    try:
        Q = groups.ideal_subgroup(A, I)
    except NotInsideRadical as exc:
        raise SpecError(f"--ideal: {exc}")
    orbits = []
    for orb in groups.char_orbits(G, Q):
        sub = gutkin.certify_stabilizer_subalgebra(A, orb.stabilizer)
        orbits.append({
            "base_exps": list(orb.base.exps),
            "conductor": orb.base.m,
            "size": orb.size,
            "stabilizer_order": orb.stabilizer.order,
            "stabilizer_subalgebra_dim": sub.dim,
            "stabilizer_subalgebra_basis": [list(r) for r in sub.rows],
            "certified": True,
            "conjugated": False,
        })
    report = {
        "schema": "brw.orbits/1",
        "config": _config_block(args),
        "spec_name": name,
        "ideal": label,
        "ideal_dim": I.dim,
        "num_orbits": len(orbits),
        "orbits": orbits,
    }
    _emit(args, f"orbits_{name}", report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# local
# ---------------------------------------------------------------------------

def _parse_fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"bad rational '{text}': {exc}")


def _parse_phase(text):
    try:
        m, e = text.split(":")
        return int(m), int(e)
    except ValueError:
        raise SpecError(f"--phase must look like 'conductor:exponent', got '{text}'")


def _witness_bases(path, name, dim):
    """(index, degree, subalgebra basis) of each constructive witness for the
    spec name in a gutkin report file; SpecError on any other shape."""
    wit = read_json(path, "witness file")
    try:
        blocks = [b for b in wit["results"] if b["spec_name"] == name]
        if not blocks:
            raise SpecError(f"witness file has no results for spec '{name}'")
        bases = [(e["index"], e["degree"], e["constructive"]["subalgebra_basis"])
                 for e in blocks[0]["witnesses"] if e.get("constructive")]
        for _, _, rows in bases:
            _check_int_array(rows, (len(rows), dim), "subalgebra_basis")
    except (KeyError, TypeError, AttributeError) as exc:
        raise SpecError(f"witness file '{path}' is not a gutkin report: {exc!r}")
    return bases


def cmd_local(args):
    if args.local_cmd == "chargroup":
        grp = localfield.LocalCharGroup(args.p, args.k, cap=args.cap_order)
        report = {
            "schema": "brw.local.chargroup/1",
            "config": _config_block(args),
            **grp.summary(),
        }
        _emit(args, f"chargroup_p{args.p}k{args.k}", report)
        return EXIT_OK
    if args.local_cmd == "factor":
        units = localfield.unit_characters(args.p, args.k, cap=args.cap_order)
        if not (0 <= args.unit < len(units)):
            raise SpecError(f"--unit index out of range (0..{len(units) - 1})")
        m, e = _parse_phase(args.phase)
        chi = localfield.SmoothCharLocal(args.p, args.k, units[args.unit],
                                         _parse_fraction(args.r), m, e)
        unitary, twist = localfield.factor_unitary(chi)
        if unitary.mul(twist) != chi:
            raise VerificationFailure("unitary * twist differs from the input character")
        report = {
            "schema": "brw.local.factor/1",
            "config": _config_block(args),
            "normalization": "r models the value at the uniformizer with "
                             "|pi|^(-1) = p; the character is unitary iff r = 1",
            "input": {"p": args.p, "k": args.k, "unit_index": args.unit,
                      "r": str(chi.r), "phase": f"{m}:{e}"},
            "unitary": {"r": str(unitary.r), "phase": f"{unitary.phase_m}:{unitary.phase_e}",
                        "unit_exps": list(unitary.unit_part.exps),
                        "unit_conductor": unitary.unit_part.m},
            "twist": {"r": str(twist.r), "phase": f"{twist.phase_m}:{twist.phase_e}",
                      "unit_trivial": twist.unit_part.is_trivial()},
            "round_trip": True,
        }
        _emit(args, f"factor_p{args.p}k{args.k}u{args.unit}", report)
        return EXIT_OK
    if args.local_cmd == "admissible":
        name, spec = load_spec(args.spec)
        A = spec_algebra(spec)
        out = []
        for index, degree, rows in _witness_bases(args.witness, name, A.dim):
            B = Subalgebra(A, [tuple(r) for r in rows])
            out.append({
                "index": index,
                "degree": degree,
                "admissible_shape": localfield.InductionDatum(A, B).diag_contained,
            })
        report = {
            "schema": "brw.local.admissible/1",
            "config": _config_block(args),
            "spec_name": name,
            "per_witness": out,
        }
        _emit(args, f"admissible_{name}", report)
        return EXIT_OK
    raise SpecError(f"unknown local subcommand {args.local_cmd}")


def cmd_corpus(args):
    report = {
        "schema": "brw.corpus/1",
        "default": list(DEFAULT_CORPUS),
        "gated": [n for n in ALL_CORPUS if n not in DEFAULT_CORPUS],
    }
    _emit(args, "corpus", report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _env_cap_order():
    """BRW_CAP_ORDER, the default of --cap-order; SpecError unless an integer."""
    text = os.environ.get("BRW_CAP_ORDER")
    if text is None:
        return DEFAULT_ORDER_CAP
    try:
        return int(text)
    except ValueError:
        raise SpecError(f"BRW_CAP_ORDER must be a positive integer, not {text!r}") from None


def _add_common(sub, cap_order):
    sub.add_argument("--cap-order", type=int, default=cap_order,
                     help="max group order for class/table computations")
    sub.add_argument("--cap-scan", type=int, default=None,
                     help="max algebra dimension for subalgebra enumeration")
    sub.add_argument("--seed", type=int, default=0, help="recorded in reports")
    sub.add_argument("--out", default=None, help="directory for report files")


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # one spec error line, exit 2; subparsers share the class
        raise SpecError(message)


def build_parser(cap_order=DEFAULT_ORDER_CAP):
    ap = _Parser(prog="brw",
                 description="unit groups of split basic algebras: "
                             "exact tables, orbits and induced-character witnesses")
    ap.add_argument("--version", action="version", version=f"brw {__version__}")
    subs = ap.add_subparsers(dest="command", required=True)

    p_info = subs.add_parser("info", help="algebra summary")
    p_info.add_argument("spec")
    _add_common(p_info, cap_order)
    p_info.set_defaults(fn=cmd_info)

    p_tab = subs.add_parser("chartable", help="exact character table as CSV")
    p_tab.add_argument("spec")
    _add_common(p_tab, cap_order)
    p_tab.set_defaults(fn=cmd_chartable)

    p_gut = subs.add_parser("gutkin", help="induced-character witness report")
    p_gut.add_argument("spec", nargs="*", help="spec names/paths (default: whole corpus)")
    p_gut.add_argument("--mode", choices=["constructive", "brute", "both"], default="both")
    _add_common(p_gut, cap_order)
    p_gut.set_defaults(fn=cmd_gutkin)

    p_orb = subs.add_parser("orbits", help="conjugation orbits on ideal-subgroup characters")
    p_orb.add_argument("spec")
    p_orb.add_argument("--ideal", default="1", help="radical power n (J^n) or JSON basis rows")
    _add_common(p_orb, cap_order)
    p_orb.set_defaults(fn=cmd_orbits)

    p_loc = subs.add_parser("local", help="smooth characters of the local multiplicative group")
    locsubs = p_loc.add_subparsers(dest="local_cmd", required=True)
    p_f = locsubs.add_parser("factor", help="unitary/twist factorization")
    p_f.add_argument("--p", type=int, required=True)
    p_f.add_argument("--k", type=int, required=True)
    p_f.add_argument("--unit", type=int, default=0, help="index into the unit character list")
    p_f.add_argument("--r", default="1", help="modulus at the uniformizer (rational)")
    p_f.add_argument("--phase", default="1:0", help="root-of-unity phase 'conductor:exponent'")
    _add_common(p_f, cap_order)
    p_f.set_defaults(fn=cmd_local)
    p_c = locsubs.add_parser("chargroup", help="structure of the unit character group")
    p_c.add_argument("--p", type=int, required=True)
    p_c.add_argument("--k", type=int, required=True)
    _add_common(p_c, cap_order)
    p_c.set_defaults(fn=cmd_local)
    p_a = locsubs.add_parser("admissible", help="admissible-shape flags for a witness file")
    p_a.add_argument("spec")
    p_a.add_argument("--witness", required=True)
    _add_common(p_a, cap_order)
    p_a.set_defaults(fn=cmd_local)

    p_cor = subs.add_parser("corpus", help="list built-in specs")
    _add_common(p_cor, cap_order)
    p_cor.set_defaults(fn=cmd_corpus)
    return ap


def main(argv=None):
    try:
        args = build_parser(_env_cap_order()).parse_args(argv)
        cap_scan = getattr(args, "cap_scan", None)
        if getattr(args, "cap_order", 1) <= 0 or (cap_scan is not None and cap_scan <= 0):
            raise SpecError("caps must be positive")
        return args.fn(args)
    except (SpecError, NotSplitBasic) as exc:
        # a non-split algebra is outside the theorem's domain: an input error
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except TooLarge as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except BrwError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
