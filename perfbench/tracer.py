"""Per-layer tracing of gwcalc from outside the package.

The tracer replaces public functions and methods of the gwcalc modules
with wrappers while it is active and puts the originals back afterwards;
no file of the package is changed.  A module-level function is replaced
in its defining module and in every gwcalc module that imported it under
the same name (``cli`` re-binds ``wdvv_instances``, ``normalize``,
``reduce_descendant_trr`` and others), so calls through either name are
seen.

Timed wrappers push a frame on one stack.  When a frame closes, its
duration goes to the parent's child time, which gives every name a self
time (span minus child spans) and, for recursive names such as
``ComplexSession.value``, an inclusive time counted at the outermost
frame only.  Spans (id, name, start, end, parent id) are kept in memory
and written out at the end, except for the names called hundreds of
thousands of times (``HOT``): those are aggregated only, and their
children name the nearest recorded ancestor as parent.
"""

import os
import time
import weakref
from collections import defaultdict

HOT = frozenset(("complex_solver.value", "real_solver.value"))

# Per-degree blocks of the complex primary solve are phases of
# ensure_primary: their child spans count as children of ensure_primary,
# so ensure_primary.self_s is the elimination work itself.
BLOCK_PREFIX = "complex_solver.block_d"

PROVENANCES = ("seed", "classical", "wdvv", "rwdvv", "trr", "rtrr",
               "axiom-reduction")

MAX_DEGREE = 4

SUITES = ("grading", "wdvv", "rwdvv", "string", "dilaton", "divisor",
          "trr-cross", "rtrr-cross")

# (traced name, figures reported for it)
TIMED_METRICS = (
    [("complex_solver.ensure_primary", ("s", "self_s"))]
    + [(BLOCK_PREFIX + str(d), ("s",)) for d in range(1, MAX_DEGREE + 1)]
    + [("complex_solver.relation_residual", ("calls", "s")),
       ("complex_solver.value", ("calls", "self_s")),
       ("complex_solver.reduce_descendant_trr", ("calls", "s")),
       ("complex_solver.reduce_axioms", ("calls", "s")),
       ("real_solver.relation_residual", ("calls", "s")),
       ("real_solver.ensure_real", ("self_s",)),
       ("real_solver.value", ("calls",)),
       ("real_solver.reduce_descendant_rtrr", ("calls", "s")),
       ("invariant_store.normalize", ("calls", "s")),
       ("invariant_store.InvariantTable.load", ("s",)),
       ("invariant_store.InvariantTable.save", ("s",)),
       ("potentials.build_potentials", ("calls", "s", "self_s")),
       ("potentials.residual_string_complex", ("s",)),
       ("potentials.residual_string_real", ("s",)),
       ("potentials.residual_dilaton_complex", ("s",)),
       ("potentials.residual_dilaton_real", ("s",)),
       ("potentials.residual_wdvv_pde", ("calls", "s")),
       ("potentials.residual_rwdvv_pde", ("calls", "s"))]
    + [("cli.suite." + name, ("s",)) for name in SUITES]
    + [("cli.emit_rows", ("s",))]
    + [("cli.main." + cmd, ("s",)) for cmd in ("compute", "verify", "cache")]
    + [("graded_algebra.builtin_target", ("s",)),
       ("graded_algebra.TargetSpace.from_json", ("s",))])

COUNT_METRICS = (
    ["complex_solver.rows_d%d" % d for d in range(1, MAX_DEGREE + 1)]
    + ["complex_solver.pivots_d%d" % d for d in range(1, MAX_DEGREE + 1)]
    + ["complex_solver.reduce_descendant_trr.terms",
       "real_solver.rwdvv_instances.yielded",
       "invariant_store.InvariantKey.calls",
       "invariant_store.InvariantTable.put.calls",
       "potentials.series_terms",
       "combinatorics.sort_insertions_sign.calls"])


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.stack = []
        self.spans = []
        self.next_id = 1
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.depth = defaultdict(int)
        self.counts = defaultdict(int)
        self.in_op = False
        self.covered = 0.0
        self.block_depth = 0
        self.last_table = None
        self.cache_bytes = 0
        self._solved = weakref.WeakKeyDictionary()
        self._saved = []
        self._mods = None

    # -- frames ---------------------------------------------------------

    def _enter(self, name):
        parent = self.stack[-1] if self.stack else None
        parent_span = parent[2] if parent else 0
        if name in HOT and parent is not None:
            span_id = None
            rec_id = parent_span
        else:
            span_id = self.next_id
            self.next_id += 1
            rec_id = span_id
        frame = [name, 0.0, rec_id, span_id, parent_span,
                 time.perf_counter()]
        self.stack.append(frame)
        self.depth[name] += 1
        return frame

    def _exit(self, frame):
        t1 = time.perf_counter()
        name, child, _rec, span_id, parent_span, t0 = frame
        self.stack.pop()
        dur = t1 - t0
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.depth[name] -= 1
        if not self.depth[name]:
            self.incl[name] += dur
        if self.stack:
            # a phase frame hands its children to its parent
            self.stack[-1][1] += child if name.startswith(BLOCK_PREFIX) \
                else dur
        elif self.in_op:
            self.covered += dur
        if span_id is not None:
            self.spans.append((span_id, name, t0 - self.t0, t1 - self.t0,
                               parent_span))

    def timed(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(out)
            return out
        return wrapper

    # -- patching -------------------------------------------------------

    def _modules(self):
        if self._mods is None:
            from gwcalc import (cli, combinatorics, complex_solver,
                                graded_algebra, invariant_store, potentials,
                                real_solver)
            self._mods = (cli, combinatorics, complex_solver, graded_algebra,
                          invariant_store, potentials, real_solver)
        return self._mods

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr, make):
        """Replace module.attr everywhere it is bound in gwcalc."""
        orig = getattr(module, attr)
        new = make(orig)
        for mod in self._modules():
            if mod.__dict__.get(attr) is orig:
                self._set(mod, attr, new)

    def _patch_method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def install(self):
        (cli, combinatorics, cs, ga, store, pots, rs) = self._modules()
        fn = self._patch_function
        meth = self._patch_method
        timed = self.timed

        def t(name, after=None):
            return lambda f: timed(name, f, after)

        # graded_algebra
        fn(ga, "builtin_target", t("graded_algebra.builtin_target"))
        meth(ga.TargetSpace, "from_json",
             t("graded_algebra.TargetSpace.from_json"))
        # combinatorics
        fn(combinatorics, "sort_insertions_sign",
           self._counted("combinatorics.sort_insertions_sign.calls"))
        # invariant_store
        meth(store.InvariantKey, "__init__",
             self._counted("invariant_store.InvariantKey.calls"))
        fn(store, "normalize", t("invariant_store.normalize"))
        meth(store.InvariantTable, "put", self._table_put)
        meth(store.InvariantTable, "load",
             t("invariant_store.InvariantTable.load"))
        meth(store.InvariantTable, "save", self._table_save)
        # complex_solver
        meth(cs.ComplexSession, "ensure_primary", self._ensure_primary)
        meth(cs.ComplexSession, "value", self._value(
            "complex_solver.value"))
        meth(cs.ComplexSession, "relation_residual",
             t("complex_solver.relation_residual"))
        fn(cs, "wdvv_instances", self._complex_instances)
        fn(cs, "reduce_axioms", t("complex_solver.reduce_axioms"))
        fn(cs, "reduce_descendant_trr", t(
            "complex_solver.reduce_descendant_trr", self._count_terms))
        # real_solver
        meth(rs.RealSession, "ensure_real", t("real_solver.ensure_real"))
        meth(rs.RealSession, "value", self._value("real_solver.value"))
        meth(rs.RealSession, "relation_residual",
             t("real_solver.relation_residual"))
        fn(rs, "rwdvv_instances",
           self._yield_counter("real_solver.rwdvv_instances.yielded"))
        fn(rs, "reduce_descendant_rtrr",
           t("real_solver.reduce_descendant_rtrr"))
        # potentials
        fn(pots, "build_potentials",
           t("potentials.build_potentials", self._count_series))
        for name in ("residual_string_complex", "residual_string_real",
                     "residual_dilaton_complex", "residual_dilaton_real",
                     "residual_wdvv_pde", "residual_rwdvv_pde"):
            fn(pots, name, t("potentials." + name))
        # cli
        fn(cli, "emit_rows", t("cli.emit_rows"))
        fn(cli, "main", self._cli_main)
        suites = cli.SUITE_FUNCS
        self._saved.append((suites, None, dict(suites)))
        for name, func in list(suites.items()):
            suites[name] = timed("cli.suite." + name, func)

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            if attr is None:
                owner.clear()
                owner.update(orig)
            else:
                setattr(owner, attr, orig)

    # -- special wrappers -----------------------------------------------

    def _counted(self, counter):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _count_terms(self, terms):
        self.counts["complex_solver.reduce_descendant_trr.terms"] += len(terms)

    def _count_series(self, pots):
        self.counts["potentials.series_terms"] += sum(
            len(series.terms) for series in pots.values())

    def _table_put(self, fn):
        tracer = self
        counts = self.counts

        def put(table, key, value, provenance):
            counts["invariant_store.InvariantTable.put.calls"] += 1
            if table.get(key) is None:
                tracer.last_table = table
                if tracer.block_depth and provenance == "wdvv":
                    counts["complex_solver.pivots_d%d" % key.degree] += 1
            return fn(table, key, value, provenance)
        return put

    def _table_save(self, fn):
        inner = self.timed("invariant_store.InvariantTable.save", fn)

        def save(table, path):
            out = inner(table, path)
            self.cache_bytes = os.path.getsize(path)
            return out
        return save

    def _value(self, name):
        tracer = self
        counts = self.counts
        hits = name + ".hits"

        def make(fn):
            def value(session, key):
                if key.is_canonical() and session.table.get(key) is not None:
                    counts[hits] += 1
                frame = tracer._enter(name)
                try:
                    return fn(session, key)
                finally:
                    tracer._exit(frame)
            return value
        return make

    def _ensure_primary(self, fn):
        """Solve one degree block at a time, each inside its own phase
        span, through the public ensure_primary(k)."""
        tracer = self
        solved = self._solved

        def ensure_primary(session, max_degree):
            done = solved.get(session, 0)
            if max_degree <= done:
                return fn(session, max_degree)
            frame = tracer._enter("complex_solver.ensure_primary")
            try:
                for k in range(done + 1, max_degree + 1):
                    block = tracer._enter(BLOCK_PREFIX + str(k))
                    tracer.block_depth += 1
                    try:
                        fn(session, k)
                    finally:
                        tracer.block_depth -= 1
                        tracer._exit(block)
                    solved[session] = k
            finally:
                tracer._exit(frame)
        return ensure_primary

    def _complex_instances(self, fn):
        tracer = self
        counts = self.counts

        def wdvv_instances(target, degree, ell_cap):
            counter = "complex_solver.rows_d%d" % degree \
                if tracer.block_depth else \
                "complex_solver.wdvv_instances.yielded"
            for mu in fn(target, degree, ell_cap):
                counts[counter] += 1
                yield mu
        return wdvv_instances

    def _yield_counter(self, counter):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counts[counter] += 1
                    yield item
            return wrapper
        return make

    def _cli_main(self, fn):
        tracer = self

        def main(argv=None):
            command = argv[0] if argv else "none"
            frame = tracer._enter("cli.main." + command)
            try:
                return fn(argv)
            finally:
                tracer._exit(frame)
        return main

    # -- results --------------------------------------------------------

    def metrics(self):
        """The per-layer metrics as {name: (value, unit)}."""
        figures = {"calls": (self.calls, "count"), "s": (self.incl, "s"),
                   "self_s": (self.self_s, "s")}
        out = {}
        for name, wanted in TIMED_METRICS:
            for fig in wanted:
                table, unit = figures[fig]
                out["%s.%s" % (name, fig)] = (table[name], unit)
        for name in COUNT_METRICS:
            out[name] = (self.counts[name], "count")

        def ratio(num, den):
            return (num / den if den else 0.0), "ratio"

        c = "complex_solver."
        degrees = range(1, MAX_DEGREE + 1)
        out[c + "row_yield"] = ratio(
            sum(self.counts[c + "pivots_d%d" % d] for d in degrees),
            sum(self.counts[c + "rows_d%d" % d] for d in degrees))
        for session in ("complex_solver.value", "real_solver.value"):
            out[session + ".hit_ratio"] = ratio(self.counts[session + ".hits"],
                                                self.calls[session])
        out["invariant_store.cache_bytes"] = (self.cache_bytes, "bytes")
        by_prov = dict.fromkeys(PROVENANCES, 0)
        if self.last_table is not None:
            for _key, _value, prov in self.last_table.items():
                by_prov[prov] += 1
        for prov in PROVENANCES:
            out["invariant_store.entries." + prov] = (by_prov[prov], "count")
        return out

    def dump(self):
        """Spans and per-name totals, for the trace file."""
        names = sorted(self.calls)
        return {
            "spans": {"columns": ["id", "name", "start_s", "end_s", "parent"],
                      "rows": self.spans},
            "totals": {n: {"calls": self.calls[n], "s": self.incl[n],
                           "self_s": self.self_s[n]} for n in names},
            "counts": dict(sorted(self.counts.items())),
        }

