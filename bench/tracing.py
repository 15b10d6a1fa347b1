"""Outside-in tracer: wraps the public functions of each ``dioph`` module.

Nothing in ``src/`` changes. ``Tracer.install()`` replaces each traced function
or method with a timing wrapper, on its defining module or class and on every
module that re-imported it (``dioph.dichotomy.expand``,
``dioph.seqbuild.solve_disjunction``, the package root, ...), because a call
through an alias that was not replaced would go uncounted. ``uninstall()``
puts the originals back.

Calls into every layer but ``enclosure`` are spans ``(id, parent, key, op,
start, end)``, kept in memory and written out by ``write_spans`` at the end
of a run. A span's self time is its duration minus the durations of the spans
made directly inside it, so the self times of the span keys add up to the
traced op time.

``Enclosure`` arithmetic and compares are leaf counters, not spans: there are
thousands per op. Their count and their time (net of nested enclosure calls)
give ``enclosure.ops`` and ``enclosure.self_s``, and their time also stays in
the self time of the span that made them. So ``contfrac.expand.self_s``
includes the interval arithmetic of the expansion, and ``enclosure.self_s`` is
the share of all of it that L0 (interval and integer arithmetic) takes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import defaultdict

from dioph import certlog, contfrac, dichotomy, enclosure, multiform, oracle, seqbuild

MAX_SPANS = 200_000

ENCLOSURE_METHODS = (
    "__neg__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "recip", "abs", "pow_int", "intersect", "hull", "contains",
    "contains_zero", "sign", "strictly_lt", "strictly_gt", "le_certain", "ge_certain",
    "floor_unique", "is_point",
)
ENCLOSURE_PROPERTIES = ("width", "mid")
ENCLOSURE_FUNCTIONS = (
    "dyadic_below", "dyadic_above", "sqrt_lower", "sqrt_upper", "sqrt_enclosure",
    "iroot", "root_lower", "root_upper", "root_enclosure",
)
# (module, function name, key); the key's first component is the layer
MODULE_FUNCTIONS = (
    (oracle, "parse_oracle", "oracle.parse"),
    (oracle, "nearest_int", "oracle.query"),
    (oracle, "floor_certified", "oracle.query"),
    (oracle, "sign_of_form", "oracle.query"),
    (certlog, "ln_frac", "certlog.ln"),
    (certlog, "ln_enclosure", "certlog.ln"),
    (contfrac, "expand", "contfrac.expand"),
    (contfrac, "convergents", "contfrac.convergents"),
    (contfrac, "mu_estimate", "contfrac.mu"),
    (dichotomy, "solve_disjunction", "dichotomy.solve"),
    (dichotomy, "find_fractional_hit", "dichotomy.find"),
    (seqbuild, "build_sequence", "seqbuild.build"),
    (seqbuild, "measure_rates", "seqbuild.rates"),
    (seqbuild, "density_data", "seqbuild.density"),
    (seqbuild, "lemma1_bound", "seqbuild.lemma1"),
    (multiform, "evaluate_form", "multiform.form"),
    (multiform, "tau_empirical", "multiform.tau"),
    (multiform, "omega0_search", "multiform.omega0"),
    (multiform, "dirichlet_witness", "multiform.dirichlet"),
    (multiform, "apery_forms", "multiform.apery"),
    (multiform, "nesterenko_report", "multiform.nesterenko"),
)


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [child_time, span_id]; span_id None for a leaf
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # key -> [calls, total, self]
        self.spans = []
        self.spans_dropped = 0
        self.op_id = 0
        self._next_span = 0
        self._patches = []  # (owner, name, original)
        # counters fed by result observers
        self.enclose_bits_max = 0
        self.enclose_repeats = 0
        self._levels_seen = weakref.WeakKeyDictionary()
        self.expand_quotients = 0
        self.window_checks = 0
        self.precision_bits_max = 0
        self.case_i = 0
        self.entries = 0

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, fn, key, observe=None):
        """Wrap ``fn`` as a span recorded under ``key``."""
        stack, stat, clock = self.stack, self.stats[key], time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, self._next_span]
            self._next_span += 1
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((frame[1], parent, key, self.op_id, t0, t0 + dt))
                else:
                    self.spans_dropped += 1
            if observe is not None:
                observe(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _wrap_leaf(self, fn):
        """Wrap ``fn`` as an enclosure-layer counter (see the module docstring)."""
        stack, stat, clock = self.stack, self.stats["enclosure"], time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if stack and stack[-1][1] is None:
                    stack[-1][0] += dt

        return functools.update_wrapper(wrapper, fn)

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def _patch_everywhere(self, orig, new):
        """Replace ``orig`` under every name it has in a dioph module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dioph" or mod_name.startswith("dioph.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._patch(mod, name, new)

    def install(self):
        E = enclosure.Enclosure
        for name in ENCLOSURE_METHODS:
            self._patch(E, name, self._wrap_leaf(E.__dict__[name]))
        for name in ENCLOSURE_PROPERTIES:
            self._patch(E, name, property(self._wrap_leaf(E.__dict__[name].fget)))
        point = E.__dict__["point"].__func__
        self._patch(E, "point", staticmethod(self._wrap_leaf(point)))
        for name in ENCLOSURE_FUNCTIONS:
            orig = getattr(enclosure, name)
            self._patch_everywhere(orig, self._wrap_leaf(orig))
        R = oracle.RealOracle
        self._patch(R, "enclose", self._wrap(R.__dict__["enclose"], "oracle.enclose",
                                             self._observe_enclose))
        observers = {
            "contfrac.expand": self._observe_expand,
            "dichotomy.solve": self._observe_solve,
            "seqbuild.build": self._observe_build,
        }
        for mod, name, key in MODULE_FUNCTIONS:
            orig = getattr(mod, name)
            self._patch_everywhere(orig, self._wrap(orig, key, observers.get(key)))
        return self

    def uninstall(self):
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- observers ----------------------------------------------------------
    def _observe_enclose(self, args, result):
        obj, k = args[0], args[1]
        self.enclose_bits_max = max(self.enclose_bits_max, k)
        level = oracle.level_for(k)
        seen = self._levels_seen.setdefault(obj, set())
        if level in seen:
            self.enclose_repeats += 1
        seen.add(level)

    def _observe_expand(self, args, result):
        self.expand_quotients += len(result.quotients)

    def _observe_solve(self, args, result):
        self.window_checks += result.stats.candidates
        self.precision_bits_max = max(self.precision_bits_max, result.stats.precision_bits)
        self.case_i += result.outcome == "case_i"

    def _observe_build(self, args, result):
        self.entries += len(result.entries)

    # -- op boundary ----------------------------------------------------------
    def run_op(self, fn, *args):
        """Call ``fn`` as one op: a root span whose spans share the op id."""
        self.op_id += 1
        return self._wrap(fn, "op")(*args)

    # -- results ----------------------------------------------------------------
    def layer_self(self, layer: str) -> float:
        return sum(s[2] for k, s in self.stats.items() if k.split(".")[0] == layer)

    def metrics(self) -> dict:
        """Per-layer metrics, as (value, unit)."""
        st = self.stats

        def calls(key):
            return st[key][0] if key in st else 0

        def self_s(*keys):
            return sum(st[k][2] for k in keys if k in st)

        enclose_calls = calls("oracle.enclose")
        solves = calls("dichotomy.solve")
        return {
            "enclosure.ops": (calls("enclosure"), "count"),
            "enclosure.self_s": (self.layer_self("enclosure"), "s"),
            "oracle.enclose.calls": (enclose_calls, "count"),
            "oracle.enclose.self_s": (self_s("oracle.enclose"), "s"),
            "oracle.enclose.bits_max": (self.enclose_bits_max, "bits"),
            "oracle.enclose.repeat_frac": (
                self.enclose_repeats / enclose_calls if enclose_calls else 0.0, "fraction"),
            "oracle.query.calls": (calls("oracle.query"), "count"),
            "oracle.query.self_s": (self_s("oracle.query"), "s"),
            "certlog.ln.calls": (calls("certlog.ln"), "count"),
            "certlog.ln.self_s": (self_s("certlog.ln"), "s"),
            "contfrac.expand.calls": (calls("contfrac.expand"), "count"),
            "contfrac.expand.quotients": (self.expand_quotients, "count"),
            "contfrac.expand.self_s": (self_s("contfrac.expand"), "s"),
            "dichotomy.solve.calls": (solves, "count"),
            "dichotomy.solve.self_s": (self_s("dichotomy.solve"), "s"),
            "dichotomy.window_checks": (self.window_checks, "count"),
            "dichotomy.precision_bits_max": (self.precision_bits_max, "bits"),
            "dichotomy.case_i_frac": (self.case_i / solves if solves else 0.0, "fraction"),
            "seqbuild.build.self_s": (self_s("seqbuild.build"), "s"),
            "seqbuild.rates.self_s": (self_s("seqbuild.rates"), "s"),
            "seqbuild.density.self_s": (self_s("seqbuild.density"), "s"),
            "seqbuild.entries": (self.entries, "count"),
            "multiform.form.calls": (calls("multiform.form"), "count"),
            "multiform.form.self_s": (self_s("multiform.form"), "s"),
            "multiform.tau.self_s": (self_s("multiform.tau"), "s"),
            "multiform.omega0.self_s": (self_s("multiform.omega0"), "s"),
            "multiform.dirichlet.self_s": (self_s("multiform.dirichlet"), "s"),
            "multiform.apery.self_s": (self_s("multiform.apery"), "s"),
        }

    def layer_shares(self) -> dict:
        """Share of the traced op time spent in each layer's own code.

        The span layers (and ``op``, the benchmark's glue) add up to 1;
        ``enclosure`` is the part of them spent in interval arithmetic.
        """
        total = self.stats["op"][1] if "op" in self.stats else 0.0
        layers = {k.split(".")[0] for k in self.stats}
        return {layer: self.layer_self(layer) / total for layer in layers} if total else {}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            if self.spans_dropped:
                fh.write(json.dumps({"spans_dropped": self.spans_dropped}) + "\n")

