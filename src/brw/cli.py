"""Command-line interface: corpus info, character tables, witness reports,
orbit reports and the local-character utilities.

All reports are deterministic for a fixed (spec, seed): no timestamps, sorted
JSON keys, and the run configuration embedded in every file.

`gutkin` runs its specs in up to one process per CPU of its affinity mask
(the calling process and forked children) and merges their blocks in spec
order, so its reports are identical to a run in one process. Run it under
`taskset -c 0` for one process when profiling or tracing.

Exit codes: 0 success, 2 spec error, 3 cap exceeded, 4 verification failure.
"""

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .algebra import (Ideal, Subalgebra, _check_int_array, cached_decomposition,
                      is_split_basic, radical_power)
from .chars import char_table
from .corpus import ALL_CORPUS, DEFAULT_CORPUS, load_spec, read_json, spec_algebra
from .errors import (BrwError, NotInsideRadical, NotSplitBasic, SpecError,
                     TooLarge, VerificationFailure)
from .groups import (DEFAULT_ORDER_CAP, char_orbits, ideal_subgroup,
                     radical_subgroup, torus_subgroup, unit_group)
from .gutkin import (certify_stabilizer_subalgebra, gutkin_decompose,
                     verify_gutkin_brute)
from .localfield import (InductionDatum, LocalCharGroup, SmoothCharLocal,
                         factor_unitary, is_admissible_shape, unit_characters)

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


def _emit(args, name, payload, fmt="json"):
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        ext = "json"
    else:
        text = payload
        ext = fmt
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{name}.{ext}")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        print(path)
    else:
        sys.stdout.write(text)


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
        G = unit_group(A, cap=args.cap_order)
        report.update({
            "idempotents": [list(e) for e in dec.idempotents],
            "radical_dims": [J.dim for J in dec.powers],
            "group_order": G.order,
            "torus_order": torus_subgroup(A).order,
            "radical_group_order": radical_subgroup(A).order,
        })
    _emit(args, f"info_{name}", report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# chartable
# ---------------------------------------------------------------------------

def cmd_chartable(args):
    name, spec = load_spec(args.spec)
    A = spec_algebra(spec)
    G = unit_group(A, cap=args.cap_order)
    table = char_table(G, cap=args.cap_order)
    buf = io.StringIO()
    buf.write(f"# brw.chartable/{REPORT_VERSION} spec={name} group_order={G.order} "
              f"classes={table.conj.k} conductor={table.conductor} "
              f"(z = primitive {table.conductor}-th root of unity)\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["degree"] + [f"class{k}_size{s}" for k, s in enumerate(table.conj.sizes)])
    for chi in table.irreducibles:
        writer.writerow([int(chi.degree)] + [v.render() for v in chi.values])
    _emit(args, f"chartable_{name}", buf.getvalue(), fmt="csv")
    return EXIT_OK if table.verify() else EXIT_VERIFY


# ---------------------------------------------------------------------------
# gutkin
# ---------------------------------------------------------------------------

def _gutkin_one(name, spec, args):
    A = spec_algebra(spec)
    G = unit_group(A, cap=args.cap_order)
    table = char_table(G, cap=args.cap_order)
    dec = cached_decomposition(A)
    block = {
        "spec_name": name,
        "group_order": G.order,
        "num_irreducibles": len(table.irreducibles),
        "degrees": table.degrees,
        "sum_degree_squares": sum(d * d for d in table.degrees),
    }
    witnesses = []
    constructive_ok = brute_ok = None
    brute_report = None
    if args.mode in ("brute", "both"):
        try:
            brute_report = verify_gutkin_brute(A, max_dim=args.cap_scan, cap=args.cap_order)
            brute_ok = True
        except TooLarge as exc:
            brute_report = None
            block["brute_skipped"] = str(exc)
        except VerificationFailure as exc:
            brute_ok = False
            block["brute_failure"] = str(exc)
    if args.mode in ("constructive", "both"):
        constructive_ok = True
    for i, chi in enumerate(table.irreducibles):
        entry = {"index": i, "degree": int(chi.degree)}
        if args.mode in ("constructive", "both"):
            witness = gutkin_decompose(A, chi, cap=args.cap_order)
            summary = witness.summary()
            B = Subalgebra(A, witness.subalgebra_rows)
            summary["admissible_shape"] = is_admissible_shape(InductionDatum(A, B))
            entry["constructive"] = summary
            if not summary["induced_matches"]:
                constructive_ok = False
        if args.mode in ("brute", "both"):
            if brute_report is None:
                entry["brute"] = {"skipped": block.get("brute_skipped", "unavailable")}
            else:
                entry["brute"] = brute_report.per_irr[i]
        if args.mode == "both":
            entry["agree"] = bool(
                entry.get("constructive", {}).get("induced_matches")
                and (brute_report is None or brute_report.per_irr[i]["witness_count"] > 0))
        witnesses.append(entry)
    block["witnesses"] = witnesses
    block["constructive_ok"] = constructive_ok
    block["brute_ok"] = brute_ok
    if args.mode == "both":
        block["modes_agree"] = all(w.get("agree", True) for w in witnesses)
    return block


def _cpu_count():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _gutkin_share(items, indices, args):
    """[(i, block or exception)] for the specs at `indices`, in order, up to
    and including the first that raises."""
    out = []
    for i in indices:
        try:
            out.append((i, _gutkin_one(*load_spec(items[i]), args)))
        except Exception as exc:  # re-raised by _gutkin_blocks in spec order
            out.append((i, exc))
            break
    return out


def _gutkin_blocks(items, args):
    """The block of every spec, in spec order; the first failure in spec
    order is raised as the serial loop would raise it.

    No block reads another, so spec i runs in worker i mod W, with W the
    number of CPUs this process may use, at most one per spec. Worker 0 is
    this process; workers 1..W-1 are forked children that pickle their
    [(i, block or exception)] to a pipe. The CLI starts no thread, so the
    fork is safe, and the children start with the parent's imports. The
    shares of workers that could not be forked run in this process.
    """
    n = len(items)
    W = min(n, _cpu_count()) if hasattr(os, "fork") else 1
    children = []    # (worker, pid, read end) of every child not yet reaped
    lost = {}        # worker -> exit code of a child that sent no result
    done = {}
    try:
        if W > 1:
            import pickle
            import signal
            for w in range(1, W):
                r, wfd = os.pipe()
                try:
                    pid = os.fork()
                except OSError:  # no process to spare: this one runs the rest
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
                            pickle.dump(_gutkin_share(items, range(w, n, W), args), f)
                        status = 0
                    finally:
                        os._exit(status)
                os.close(wfd)
                children.append((w, pid, os.fdopen(r, "rb")))
        own = [i for i in range(n) if i % W == 0 or i % W > len(children)]
        done.update(_gutkin_share(items, own, args))
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
        for _, pid, f in children:
            f.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for i in range(n):
        if i not in done:
            raise VerificationFailure(f"gutkin worker {i % W} ended without a result "
                                      f"(exit code {lost[i % W]})")
        if isinstance(done[i], Exception):
            raise done[i]
    return [done[i] for i in range(n)]


def cmd_gutkin(args):
    names = list(args.spec) if args.spec else list(DEFAULT_CORPUS)
    results = _gutkin_blocks(names, args)
    failed = any(b.get("constructive_ok") is False or b.get("brute_ok") is False
                 or (args.mode == "both" and not b.get("modes_agree", True))
                 for b in results)
    report = {
        "schema": "brw.gutkin/1",
        "config": _config_block(args, mode=args.mode),
        "results": results,
        "all_ok": not failed,
    }
    _emit(args, "gutkin" if len(names) > 1 else f"gutkin_{results[0]['spec_name']}", report)
    return EXIT_VERIFY if failed else EXIT_OK


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
    G = unit_group(A, cap=args.cap_order)
    label, I = _resolve_ideal(A, args.ideal)
    try:
        Q = ideal_subgroup(A, I)
    except NotInsideRadical as exc:
        raise SpecError(f"--ideal: {exc}")
    orbits = []
    for orb in char_orbits(G, Q, cap=args.cap_order):
        sub = certify_stabilizer_subalgebra(A, orb.stabilizer)
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
        grp = LocalCharGroup(args.p, args.k, cap=args.cap_order)
        report = {
            "schema": "brw.local.chargroup/1",
            "config": _config_block(args),
            **grp.summary(),
        }
        _emit(args, f"chargroup_p{args.p}k{args.k}", report)
        return EXIT_OK
    if args.local_cmd == "factor":
        chars = unit_characters(args.p, args.k, cap=args.cap_order)
        if not (0 <= args.unit < len(chars)):
            raise SpecError(f"--unit index out of range (0..{len(chars) - 1})")
        m, e = _parse_phase(args.phase)
        chi = SmoothCharLocal(args.p, args.k, chars[args.unit],
                              _parse_fraction(args.r), m, e)
        unitary, twist = factor_unitary(chi)
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
            "round_trip": unitary.mul(twist) == chi,
        }
        _emit(args, f"factor_p{args.p}k{args.k}u{args.unit}", report)
        return EXIT_OK if report["round_trip"] else EXIT_VERIFY
    if args.local_cmd == "admissible":
        name, spec = load_spec(args.spec)
        A = spec_algebra(spec)
        out = []
        for index, degree, rows in _witness_bases(args.witness, name, A.dim):
            B = Subalgebra(A, [tuple(r) for r in rows])
            out.append({
                "index": index,
                "degree": degree,
                "admissible_shape": is_admissible_shape(InductionDatum(A, B)),
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

def _add_common(sub):
    sub.add_argument("--cap-order", type=int,
                     default=int(os.environ.get("BRW_CAP_ORDER", DEFAULT_ORDER_CAP)),
                     help="max group order for class/table computations")
    sub.add_argument("--cap-scan", type=int, default=None,
                     help="max algebra dimension for subalgebra enumeration")
    sub.add_argument("--seed", type=int, default=0, help="recorded in reports")
    sub.add_argument("--out", default=None, help="directory for report files")


def build_parser():
    ap = argparse.ArgumentParser(prog="brw",
                                 description="unit groups of split basic algebras: "
                                             "exact tables, orbits and induced-character witnesses")
    ap.add_argument("--version", action="version", version=f"brw {__version__}")
    subs = ap.add_subparsers(dest="command", required=True)

    p_info = subs.add_parser("info", help="algebra summary")
    p_info.add_argument("spec")
    _add_common(p_info)
    p_info.set_defaults(fn=cmd_info)

    p_tab = subs.add_parser("chartable", help="exact character table as CSV")
    p_tab.add_argument("spec")
    _add_common(p_tab)
    p_tab.set_defaults(fn=cmd_chartable)

    p_gut = subs.add_parser("gutkin", help="induced-character witness report")
    p_gut.add_argument("spec", nargs="*", help="spec names/paths (default: whole corpus)")
    p_gut.add_argument("--mode", choices=["constructive", "brute", "both"], default="both")
    _add_common(p_gut)
    p_gut.set_defaults(fn=cmd_gutkin)

    p_orb = subs.add_parser("orbits", help="conjugation orbits on ideal-subgroup characters")
    p_orb.add_argument("spec")
    p_orb.add_argument("--ideal", default="1", help="radical power n (J^n) or JSON basis rows")
    _add_common(p_orb)
    p_orb.set_defaults(fn=cmd_orbits)

    p_loc = subs.add_parser("local", help="smooth characters of the local multiplicative group")
    locsubs = p_loc.add_subparsers(dest="local_cmd", required=True)
    p_f = locsubs.add_parser("factor", help="unitary/twist factorization")
    p_f.add_argument("--p", type=int, required=True)
    p_f.add_argument("--k", type=int, required=True)
    p_f.add_argument("--unit", type=int, default=0, help="index into the unit character list")
    p_f.add_argument("--r", default="1", help="modulus at the uniformizer (rational)")
    p_f.add_argument("--phase", default="1:0", help="root-of-unity phase 'conductor:exponent'")
    _add_common(p_f)
    p_f.set_defaults(fn=cmd_local)
    p_c = locsubs.add_parser("chargroup", help="structure of the unit character group")
    p_c.add_argument("--p", type=int, required=True)
    p_c.add_argument("--k", type=int, required=True)
    _add_common(p_c)
    p_c.set_defaults(fn=cmd_local)
    p_a = locsubs.add_parser("admissible", help="admissible-shape flags for a witness file")
    p_a.add_argument("spec")
    p_a.add_argument("--witness", required=True)
    _add_common(p_a)
    p_a.set_defaults(fn=cmd_local)

    p_cor = subs.add_parser("corpus", help="list built-in specs")
    _add_common(p_cor)
    p_cor.set_defaults(fn=cmd_corpus)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "cap_order", 1) <= 0 or (getattr(args, "cap_scan", None) or 1) <= 0:
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
