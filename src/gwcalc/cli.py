"""Command-line front end: compute tables, verify consistency, manage cache.

Exit codes: 0 success / all suites pass, 1 suite failure or I/O error,
2 bad flags or inputs, 3 inconsistent data (store conflicts, corrupt
cache, a seed sign the cache contradicts), 4 underdetermined system (a
free involution with no seed sign supplied).  ``verify`` needs
--max-degree >= 1, since no relation or recursion exists below degree
1, and a real suite named on an even-dimensional target is a usage
error; a suite that checks nothing in a window >= 1 fails.

Output is deterministic: identical flags on identical caches print
byte-identical text.  Everything runs in one thread; --threads is
accepted for compatibility and ignored (a negative value is still a
usage error).
"""

import argparse
import itertools
import os
import re
import sys
from collections import Counter

from .graded_algebra import (TARGET_DATA_ERRORS, TargetSpace,
                             builtin_target, builtin_target_names,
                             frac_to_str)
from .invariant_store import (CACHE_ENV_VAR, COMPLEX, REAL, InvariantKey,
                              InvariantTable, StoreConflictError,
                              StoreFormatError, _InsertionTexts, _reason,
                              read_cache_json, write_entries_json)
from .complex_solver import (AxiomPreconditionError, ComplexSession,
                             InconsistentSystemError, SolverError,
                             UnderdeterminedError, evaluate_terms,
                             graded_keys, insertion_variables,
                             reduce_axioms, structural_filter,
                             wdvv_instances)
from .real_solver import RealSession, rwdvv_instances
from .potentials import (build_potential,
                         residual_dilaton_complex, residual_dilaton_real,
                         residual_rwdvv_pde, residual_string_complex,
                         residual_string_real, residual_wdvv_pde,
                         GradedSeries)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3
EXIT_UNDERDETERMINED = 4

SUITES = ("grading", "wdvv", "rwdvv", "string", "dilaton", "divisor",
          "trr-cross", "rtrr-cross")


class UsageError(Exception):
    pass


# ----- argument plumbing -----------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gwcalc",
        description="Exact calculator for genus-0 curve counts of "
                    "projective spaces, complex and real.")
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("--target", help="built-in target name (%s)" %
                       ", ".join(builtin_target_names()))
        p.add_argument("--target-file", help="path to a target JSON file")
        p.add_argument("--cache", help="cache file path (default: $%s)" %
                       CACHE_ENV_VAR)
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility and ignored: "
                            "gwcalc computes in one thread")

    pc = sub.add_parser("compute", help="solve and print invariants")
    add_common(pc)
    pc.add_argument("--format", choices=("text", "json", "csv"),
                    default="text")
    pc.add_argument("--real", action="store_true",
                    help="real invariants instead of complex")
    pc.add_argument("--max-degree", type=int, default=None)
    pc.add_argument("--degree", type=int, default=None)
    pc.add_argument("--insertions", default=None,
                    help="comma-separated insertions, each [a:]CLS with "
                         "CLS one of 1, h, h2, ..., pt")
    pc.add_argument("--insertions-only", default=None, metavar="CLS",
                    help="restrict table output to keys whose insertions "
                         "all equal CLS")
    pc.add_argument("--seed-sign", default=None,
                    help="sign of the degree-1 real seed: + or -")

    pv = sub.add_parser("verify", help="run consistency suites")
    add_common(pv)
    pv.add_argument("--suite", default="all",
                    help="one of %s, or all" % ", ".join(SUITES))
    pv.add_argument("--max-degree", type=int, default=3)
    pv.add_argument("--seed-sign", default=None)

    pk = sub.add_parser("cache", help="inspect or edit the cache file")
    pk.add_argument("action", choices=("show", "clear", "export"))
    pk.add_argument("--cache", help="cache file path (default: $%s)" %
                    CACHE_ENV_VAR)
    pk.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _load_target(args):
    if args.target and args.target_file:
        raise UsageError("give either --target or --target-file, not both")
    if args.target_file:
        try:
            with open(args.target_file, "r") as fh:
                target = TargetSpace.loads(fh.read())
        except OSError as e:
            raise UsageError("cannot read target file: %s" % e)
        except TARGET_DATA_ERRORS as e:
            raise UsageError("bad target file: %s" % _reason(e))
        if not target.is_projective_space():
            raise UsageError("target file: %s is not a projective space"
                             % target.name)
        return target
    if args.target:
        try:
            return builtin_target(args.target)
        except KeyError:
            raise UsageError(
                "unknown target %r (built-ins: %s)"
                % (args.target, ", ".join(builtin_target_names())))
    raise UsageError("a target is required (--target or --target-file)")


def _cache_path(args):
    if getattr(args, "cache", None):
        return args.cache
    return os.environ.get(CACHE_ENV_VAR)


def _load_table(args, target):
    path = _cache_path(args)
    if path and os.path.exists(path):
        return InvariantTable.load(path, target=target), path
    return InvariantTable(target), path


def _parse_seed_sign(raw):
    if raw is None:
        return None
    if raw in ("+", "+1", "1"):
        return 1
    if raw in ("-", "-1"):
        return -1
    raise UsageError("--seed-sign must be + or -, got %r" % raw)


def _check_threads(args):
    if args.threads is not None and args.threads < 0:
        raise UsageError("--threads must not be negative")


# ----- class-name handling ---------------------------------------------------


def parse_class_name(target, name):
    """Map a class name (1, h, h2, ..., pt) to its 1-based basis index."""
    name = name.strip()
    nb = target.num_basis
    if name == "1":
        return 1
    if name == "pt":
        return nb
    if name == "h":
        k = 1
    else:
        # ASCII digits only: int() also takes signs, spaces, '_' and
        # other scripts' digits
        power = re.fullmatch(r"h\^?([0-9]+)", name)
        if power is None:
            raise UsageError("unknown class name %r" % name)
        k = int(power.group(1))
    if not 1 <= k <= nb - 1:
        raise UsageError("class %r out of range for this target" % name)
    return k + 1


def class_name(target, i):
    if i == 1:
        return "1"
    if i == target.num_basis:
        return "pt"
    if i == 2:
        return "h"
    return "h%d" % (i - 1)


def parse_insertions(target, spec):
    """Parse 'a:cls,cls,...' into a list of (a, basis index) pairs."""
    out = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            raise UsageError("empty insertion in %r" % spec)
        if ":" in item:
            a_str, cls = item.split(":", 1)
            if not re.fullmatch("[0-9]+", a_str):
                raise UsageError("bad descendant power in %r" % item)
            a = int(a_str)
        else:
            a, cls = 0, item
        out.append((a, parse_class_name(target, cls)))
    if not out:
        raise UsageError("no insertions given")
    return out


# ----- output ----------------------------------------------------------------


def _render_insertion(target, a, i):
    name = class_name(target, i)
    return name if a == 0 else "tau_%d(%s)" % (a, name)


def _render_text_row(target, key, value):
    ins = ", ".join(_render_insertion(target, a, i)
                    for a, i in key.insertions)
    return "%s g=%d d=%d <%s> = %s" % (
        key.kind, key.genus, key.degree, ins, frac_to_str(value))


def emit_rows(target, rows, fmt, out):
    """Print (key, value) pairs in the chosen format, deterministically.

    The json format is what ``write_entries_json``, the cache file's
    writer, writes at indent 2 for the rows, without provenance, with
    the one field ``target`` (the target's name).  Every format writes
    each row to ``out`` as soon as it is formatted, so the output is
    never held whole; ``rows`` may be any iterable.
    """
    if fmt == "text":
        for key, value in rows:
            out.write(_render_text_row(target, key, value) + "\n")
    elif fmt == "csv":
        texts = _InsertionTexts("%d:%d")
        out.write("kind,genus,degree,insertions,value\n")
        for key, value in rows:
            out.write("%s,%d,%d,%s,%s\n" % (
                key.kind, key.genus, key.degree,
                ";".join(map(texts.__getitem__, key.insertions)),
                frac_to_str(value)))
    else:
        write_entries_json(out, ((key, value, None) for key, value in rows),
                           {"target": target.name}, 2)


# ----- compute ---------------------------------------------------------------


def cmd_compute(args):
    out = sys.stdout
    target = _load_target(args)
    seed_sign = _parse_seed_sign(args.seed_sign)
    if args.degree is not None and args.degree < 0:
        raise UsageError("--degree must be >= 0")
    if args.max_degree is not None and args.max_degree < 0:
        raise UsageError("--max-degree must be >= 0")
    if args.degree is None and args.max_degree is None:
        raise UsageError("give --degree or --max-degree")
    if args.degree is not None and args.max_degree is not None:
        raise UsageError("give either --degree or --max-degree, not both")
    _check_threads(args)
    if args.real and target.complex_dim % 2 == 0:
        raise UsageError("--real needs a target of odd complex dimension")
    table, path = _load_table(args, target)
    session = ComplexSession(target, table)
    if args.real:
        session = RealSession(target, table, seed_sign=seed_sign,
                              complex_session=session)
    top = args.degree if args.degree is not None else args.max_degree
    degrees = [args.degree] if args.degree is not None else \
        range(1, args.max_degree + 1)

    if args.insertions is not None:
        if args.insertions_only is not None:
            raise UsageError("--insertions and --insertions-only clash")
        if args.degree is None:
            raise UsageError("--insertions needs --degree")
        raw = parse_insertions(target, args.insertions)
        # a real insertion of the wrong parity fails the structural
        # filter, so its key evaluates to 0 like any other vanishing key
        key = InvariantKey(session.kind, 0, args.degree, raw)
        rows = [(key, session.value(key))]
    else:
        if args.real:
            session.ensure_real(top)
        else:
            session.ensure_primary(top)
        keys = []
        for d in degrees:
            keys.extend(session.primary_keys(d))
        if args.insertions_only is not None:
            only = parse_class_name(target, args.insertions_only)
            keys = [k for k in keys
                    if k.insertions and
                    all(a == 0 and i == only for a, i in k.insertions)]
        rows = [(key, session.value(key)) for key in keys]
    emit_rows(target, rows, args.format, out)
    if path and table.changed:
        table.save(path)
    return EXIT_OK


# ----- verify suites ---------------------------------------------------------


def _instance_caps(session, max_degree):
    """Per-degree longest unknown, from which verify sets its own
    relation window (longest + 1 for wdvv, + 2 for rwdvv, at least 5);
    the solvers choose their rows on their own."""
    caps = {}
    for d in range(1, max_degree + 1):
        keys = session.primary_keys(d)
        if keys:
            caps[d] = max(k.num_insertions for k in keys)
    return caps


def _relation_suite(session, max_degree, instances, slack, pde_residuals):
    """Shared body of the wdvv and rwdvv suites: every instance that
    ``instances(target, d, length)`` lists in verify's window (the longest
    unknown of the degree + slack, at least 5) sums to zero on the table,
    then every (indices, residual) of ``pde_residuals()`` vanishes.  The
    window is streamed; a failure reports the checks made so far.

    By the divisor axiom an instance with h (basis index 2) first in its
    pad (from the session's ``_pad_start``) sums to d times the instance
    with that h removed, one shorter and so earlier in the window, whose
    residual was 0 or the suite would have returned: it counts as a
    check and is not evaluated."""
    pad_start = session._pad_start
    checks = 0
    for d, cap in sorted(_instance_caps(session, max_degree).items()):
        for inst in instances(session.target, d, max(cap + slack, 5)):
            checks += 1
            if inst[pad_start:pad_start + 1] == (2,):
                continue
            total = session.relation_residual(inst, d)
            if total:
                return False, "instance %r at degree %d sums to %s" \
                    % (inst, d, total), checks
    for indices, res in pde_residuals():
        checks += 1
        if not res.is_zero():
            return False, "PDE residual (%s) has %s" % (
                ",".join(map(str, indices)), _first_term(res)), checks
    return True, "", checks


def _descendant_keys(target, kind, degree, max_insertions, depth):
    """All structurally nonzero canonical keys with descendants at a
    degree, with 1..max_insertions insertions, sorted."""
    variables = insertion_variables(target, kind, depth)
    out = [key for ell in range(1, max_insertions + 1)
           for key in graded_keys(target, kind, degree, ell, variables)
           if key.total_descendant_power()]
    out.sort(key=lambda k: k.sort_key())
    return out


def _first_term(res):
    """The first nonzero term of a residual series, as 'C at MONOMIAL'."""
    (q, vt), c = res.items()[0]
    return "%s at %s" % (frac_to_str(c), GradedSeries.monomial_string(q, vt))


def suite_grading(target, args, csession, rsession, potential):
    """No stored nonzero entry fails the structural filter (the grading
    identity among them), each stored genus-0 entry in the degree window
    equals one step of its session's route over the table's other values
    (a primary entry its stripped unknown times the divisor multiplier, a
    descendant entry its axiom step or recursion, a degree-0 entry the
    theory's rule), and a deterministic sample of filter-flagged keys
    evaluates to 0."""
    import random
    sessions = {COMPLEX: csession, REAL: rsession}
    checks = 0
    for key, value, _prov in csession.table.items():
        checks += 1
        session = sessions[key.kind]
        reason = structural_filter(key, target)
        if value != 0 and reason is not None:
            return False, "stored nonzero value at structurally-zero key " \
                "%r (%s)" % (key, reason), checks
        if (session is not None and key.genus == 0
                and key.degree <= args.max_degree):
            want, _route = session._recompute(key)
            if value != want:
                return False, "stored value %s at %r, %s value %s" % (
                    value, key, "descendant" if key.total_descendant_power()
                    else "primary", want), checks
    rng = random.Random(20240811)
    nb = target.num_basis
    for _ in range(2000):
        kind = REAL if (rsession is not None and rng.random() < 0.5) \
            else COMPLEX
        ell = rng.randint(1, 6)
        ins = [(rng.randint(0, 2), rng.randint(1, nb)) for _ in range(ell)]
        key = InvariantKey(kind, 0, rng.randint(0, args.max_degree), ins)
        if structural_filter(key, target) is not None:
            checks += 1
            val = sessions[kind].value(key)
            if val != 0:
                return False, "flagged key %r evaluated to %s" \
                    % (key, val), checks
    return True, "", checks


def suite_wdvv(target, args, csession, rsession, potential):
    """Every exchange-relation instance in the solving window evaluates
    to zero on the table, and the associativity PDE residuals vanish."""
    def pde_residuals():
        F = potential(COMPLEX, (6, min(args.max_degree, 3)))
        for indices in itertools.product(range(1, target.num_basis + 1),
                                         repeat=4):
            yield indices, residual_wdvv_pde(F, indices)
    return _relation_suite(csession, args.max_degree, wdvv_instances, 1,
                           pde_residuals)


def suite_rwdvv(target, args, csession, rsession, potential):
    """Real exchange-relation instances and the real associativity PDE."""
    def pde_residuals():
        truncation = (6, min(args.max_degree, 4))
        doubled = potential(COMPLEX, truncation, doubled=True)
        omega = potential(REAL, truncation)
        by_sign = {s: [i for i in range(1, target.num_basis + 1)
                       if target.sign(i) == s] for s in (1, -1)}
        for indices in itertools.product(by_sign[1], by_sign[-1],
                                         by_sign[-1]):
            yield indices, residual_rwdvv_pde(doubled, omega, indices)
    return _relation_suite(rsession, args.max_degree, rwdvv_instances, 2,
                           pde_residuals)


def _suite_descendant_residuals(args, rsession, potential,
                                complex_residual, real_residual):
    """Shared body of the string and dilaton suites: both residuals vanish
    on the depth-2 descendant potentials, which the two suites share."""
    truncation = (6, min(args.max_degree, 3))
    checks = 1
    res = complex_residual(potential(COMPLEX, truncation, depth=2))
    if not res.is_zero():
        return False, "complex residual has %s" % _first_term(res), checks
    if rsession is not None:
        checks += 1
        res = real_residual(potential(REAL, truncation, depth=2))
        if not res.is_zero():
            return False, "real residual has %s" % _first_term(res), checks
    return True, "", checks


def suite_string(target, args, csession, rsession, potential):
    """String-equation residuals on the descendant potentials."""
    return _suite_descendant_residuals(args, rsession, potential,
                                       residual_string_complex,
                                       residual_string_real)


def suite_dilaton(target, args, csession, rsession, potential):
    """Dilaton-equation residuals on the descendant potentials."""
    return _suite_descendant_residuals(args, rsession, potential,
                                       residual_dilaton_complex,
                                       residual_dilaton_real)


def suite_divisor(target, args, csession, rsession, potential):
    """Adding a unit, a dilaton slot or a divisor to a solved complex key,
    or a divisor to a solved real key, gives the predicted value."""
    # every verify target is P^n with n >= 1, so basis class 2 is the
    # hyperplane h; a real session needs n odd, where the multiplicative
    # signs force sign(h) = -1 and h is a real divisor too.  Per theory:
    # (label, added insertion, factor of the base value) of each check
    added = {
        COMPLEX: (("unit insertion", (0, 1), lambda key: 0),
                  ("dilaton slot", (1, 1),
                   lambda key: 2 * key.genus - 2 + key.num_insertions),
                  ("divisor insertion", (0, 2), lambda key: key.degree)),
        REAL: (("real divisor insertion", (0, 2), lambda key: key.degree),),
    }
    checks = 0
    for d in range(1, args.max_degree + 1):
        for session in (csession, rsession):
            if session is None:
                continue
            for key in session.primary_keys(d):
                base = session.value(key)
                for label, insertion, factor in added[session.kind]:
                    new_key = InvariantKey(session.kind, 0, d,
                                           key.insertions + (insertion,))
                    checks += 1
                    got, want = session.value(new_key), factor(key) * base
                    if got != want:
                        return False, "%s at %r: %s != %s" % (
                            label, new_key, got, want), checks
    return True, "", checks


def _cross_check(session, max_degree, max_insertions):
    """Shared body of trr-cross and rtrr-cross: the session's descendant
    recursion (its _recursion_value, which lifts a one-point complex key
    by the string relation first) agrees with the axiom step
    (reduce_axioms) on every admissible descendant key both can handle."""
    target = session.target
    checks = 0
    for d in range(1, max_degree + 1):
        for key in _descendant_keys(target, session.kind, d,
                                    max_insertions, 2):
            try:
                terms = reduce_axioms(key, target)
            except AxiomPreconditionError:
                continue
            via_axiom = evaluate_terms(terms, session.value)
            via_recursion = session._recursion_value(key)
            checks += 1
            if via_axiom != via_recursion:
                return False, "key %r: reduction %s != axiom %s" % (
                    key, via_recursion, via_axiom), checks
    if checks == 0:
        return False, "no cross-checkable %sdescendant keys in range" % (
            "real " if session.kind == REAL else ""), 0
    return True, "", checks


def suite_trr_cross(target, args, csession, rsession, potential):
    """Descendant reduction agrees with the axiom reductions on every
    admissible descendant key that both can handle."""
    return _cross_check(csession, args.max_degree, 5)


def suite_rtrr_cross(target, args, csession, rsession, potential):
    """Real descendant reduction agrees with the real axiom reductions."""
    return _cross_check(rsession, args.max_degree, 4)


SUITE_FUNCS = {
    "grading": suite_grading,
    "wdvv": suite_wdvv,
    "rwdvv": suite_rwdvv,
    "string": suite_string,
    "dilaton": suite_dilaton,
    "divisor": suite_divisor,
    "trr-cross": suite_trr_cross,
    "rtrr-cross": suite_rtrr_cross,
}


def cmd_verify(args):
    out = sys.stdout
    target = _load_target(args)
    seed_sign = _parse_seed_sign(args.seed_sign)
    if args.max_degree < 1:
        raise UsageError("--max-degree must be >= 1")
    _check_threads(args)
    has_real = target.complex_dim % 2 == 1
    if args.suite == "all":
        names = [s for s in SUITES
                 if has_real or s not in ("rwdvv", "rtrr-cross")]
    else:
        if args.suite not in SUITES:
            raise UsageError("unknown suite %r (choose from %s, all)"
                             % (args.suite, ", ".join(SUITES)))
        if not has_real and args.suite in ("rwdvv", "rtrr-cross"):
            raise UsageError("suite %s needs a target of odd complex "
                             "dimension" % args.suite)
        names = [args.suite]
    table, path = _load_table(args, target)
    csession = ComplexSession(target, table)
    rsession = None
    if has_real:
        rsession = RealSession(target, table, seed_sign=seed_sign,
                               complex_session=csession)
    # the suites read the solved blocks and do not solve them again
    csession.ensure_primary(args.max_degree)
    if rsession is not None and not set(names) <= {"wdvv", "trr-cross"}:
        rsession.ensure_real(args.max_degree)
    sessions = {COMPLEX: csession, REAL: rsession}
    built = {}

    def potential(kind, truncation, depth=0, doubled=False):
        """Each generating function the suites read, built once per run."""
        spec = (kind, truncation, depth, doubled)
        if spec not in built:
            built[spec] = build_potential(target, kind, sessions[kind].value,
                                          truncation, depth, doubled)
        return built[spec]

    all_ok = True
    for name in names:
        ok, detail, checks = SUITE_FUNCS[name](target, args, csession,
                                               rsession, potential)
        if ok:
            out.write("suite %-10s pass (%d checks)\n" % (name, checks))
        else:
            all_ok = False
            out.write("suite %-10s FAIL: %s\n" % (name, detail))
    if path and all_ok and table.changed:
        table.save(path)
    return EXIT_OK if all_ok else EXIT_FAIL


# ----- cache -----------------------------------------------------------------


def cmd_cache(args):
    out = sys.stdout
    path = _cache_path(args)
    if not path:
        raise UsageError("a cache path is required (--cache or $%s)"
                         % CACHE_ENV_VAR)
    if args.action == "clear":
        if os.path.exists(path):
            # refuse to delete anything that is not a gwcalc cache
            read_cache_json(path)
            os.remove(path)
        out.write("cache cleared\n")
        return EXIT_OK
    if not os.path.exists(path):
        if args.action == "show":
            out.write("0 entries\n")
            return EXIT_OK
        raise UsageError("no cache at %s" % path)
    table = InvariantTable.load(path)
    if args.action == "show":
        out.write("%d entries\n" % len(table))
        out.write("target: %s\n" % table.target.name)
        if len(table):
            by_kind = Counter(key.kind for key in table)
            for kind in sorted(by_kind):
                out.write("  %s: %d\n" % (kind, by_kind[kind]))
        return EXIT_OK
    # export
    rows = ((key, value) for key, value, _prov in table.items())
    emit_rows(table.target, rows, args.format, out)
    return EXIT_OK


# ----- entry point -----------------------------------------------------------


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_USAGE
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "compute":
            return cmd_compute(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_cache(args)
    except UsageError as e:
        sys.stderr.write("error: %s\n" % e)
        return EXIT_USAGE
    except RecursionError:
        sys.stderr.write("error: key too deep for Python's recursion limit\n")
        return EXIT_USAGE
    except UnderdeterminedError as e:
        sys.stderr.write("underdetermined: %s\n" % e)
        return EXIT_UNDERDETERMINED
    except (InconsistentSystemError, StoreConflictError,
            StoreFormatError) as e:
        sys.stderr.write("inconsistent: %s\n" % e)
        return EXIT_INCONSISTENT
    except SolverError as e:
        sys.stderr.write("solver error: %s\n" % e)
        return EXIT_INCONSISTENT
    except OSError as e:
        sys.stderr.write("i/o error: %s\n" % e)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
