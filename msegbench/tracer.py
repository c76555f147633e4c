"""Per-layer spans around mseg's public functions, installed from outside.

Modules import names from each other directly (``from .linalg import
rank_mod_p``), so a function is wrapped at every place it is looked up: each
``mseg`` module attribute bound to it, the ``SUITES`` table, and the class
attribute for methods.  Each call opens a span; a layer's self time is its
spans' duration minus the time of the spans nested inside them.  Work done by
counting hooks is kept out of every layer and reported separately.

A name listed in ``LAYERS`` that the program no longer has is reported in
``absent`` instead of failing, so the trace keeps working as the code shrinks.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# layer -> (module, attribute) pairs; "Class.method" names a method
LAYERS = {
    "cli.parse": [("mseg.cli", "build_parser"), ("mseg.cli", "parse_mseg"), ("mseg.cli", "parse_rho")],
    "cli.emit": [("mseg.cli", "emit_json"), ("mseg.cli", "_print_text")],
    "harness.gen": [("mseg.harness", "gen_ms"), ("mseg.harness", "gen_ladder")],
    "harness.suite": [
        ("mseg.harness", name)
        for name in (
            "prop_mm_minus",
            "prop_splitdisj",
            "prop_gedelta",
            "prop_3ms",
            "prop_sumofseg_geom",
            "prop_rhoext_geom",
            "suite_invariances",
        )
    ],
    "zelevinsky.pairsets": [
        ("mseg.zelevinsky", name)
        for name in ("pairset_x", "pairset_y", "pairset_x_cross", "pairset_y_cross")
    ],
    "zelevinsky.mw": [
        ("mseg.zelevinsky", name)
        for name in ("mw_step", "mw_dual", "mw_frontier", "leading_indices")
    ],
    "zelevinsky.matching": [
        ("mseg.zelevinsky", name)
        for name in (
            "best_matching",
            "enumerate_maximal_matchings",
            "is_maximal_matching",
            "matching_equivalent",
            "make_matching",
            "rho_sets",
        )
    ],
    "zelevinsky.derivative": [
        ("mseg.zelevinsky", name) for name in ("derivative", "soc_cuspidal", "rho_frontier")
    ],
    "conditions.protocol": [
        ("mseg.conditions", name) for name in ("check_gls", "check_lc", "check_ig", "li_for_good")
    ],
    "conditions.assembly": [("mseg.conditions", "gls_matrix"), ("mseg.conditions", "lc_matrix")],
    "linalg.sample_coeffs": [("mseg.linalg", "sample_coeffs")],
    "linalg.submatrix": [("mseg.linalg", "IntMatrix.submatrix")],
    "linalg.rank_mod_p": [("mseg.linalg", "rank_mod_p")],
    "linalg.rank_exact": [("mseg.linalg", "rank_exact")],
    "segments.hash": [("mseg.segments", "Multisegment.__hash__")],
}


# work counters filled by the hooks; reported even when no call reached them
COUNTERS = (
    "conditions.assembly.entries",
    "conditions.assembly.nnz",
    "linalg.sample_coeffs.keys",
    "linalg.submatrix.entries",
    "linalg.rank_mod_p.entries",
    "linalg.rank_exact.entries",
)


def _resolve(module, attr):
    """The object that holds the name, and the name; the object is None when gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, attr
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner, name


def _shape_entries(mat) -> int:
    return getattr(mat, "rows", 0) * getattr(mat, "cols", 0)


class Tracer:
    """Collects self time, call counts and work counters per layer."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counters = Counter()
        self.checks = []  # (kind, inputs, cfg, verdict) of every check_gls / check_lc
        self.reports = []  # PropertyReports returned by the suite functions
        self.hook_s = 0.0
        self.absent = []
        self._stack = [0.0]  # time covered by child spans of each open span
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, layer, fn, hook=None):
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self_s[layer] += t1 - t0 - stack.pop()
                calls[layer] += 1
                stack[-1] += t1 - t0
            if hook is not None:
                hook(args, kwargs, result)
                spent = clock() - t1
                self.hook_s += spent
                stack[-1] += spent
            return result

        return span

    # -- counting hooks --------------------------------------------------------

    def _hooks(self):
        def entries(counter):
            def hook(args, kwargs, result):
                self.counters[counter] += _shape_entries(result)

            return hook

        def assembly(args, kwargs, result):
            n = _shape_entries(result)
            self.counters["conditions.assembly.entries"] += n
            values = getattr(result, "entries", None)
            if isinstance(values, (tuple, list)):
                self.counters["conditions.assembly.nnz"] += n - values.count(0)

        def rank(counter):
            def hook(args, kwargs, result):
                self.counters[counter] += _shape_entries(args[0])

            return hook

        def keys(args, kwargs, result):
            self.counters["linalg.sample_coeffs.keys"] += len(result)

        def check(kind, arity):
            def hook(args, kwargs, result):
                cfg = args[arity] if len(args) > arity else kwargs.get("cfg")
                self.checks.append((kind, args[:arity], cfg, result))

            return hook

        def report(args, kwargs, result):
            self.reports.append(result)

        def parser(args, kwargs, result):
            result.parse_args = self._wrap("cli.parse", result.parse_args)

        return {
            ("mseg.cli", "build_parser"): parser,
            ("mseg.conditions", "gls_matrix"): assembly,
            ("mseg.conditions", "lc_matrix"): assembly,
            ("mseg.conditions", "check_gls"): check("gls", 1),
            ("mseg.conditions", "check_lc"): check("lc", 2),
            ("mseg.linalg", "IntMatrix.submatrix"): entries("linalg.submatrix.entries"),
            ("mseg.linalg", "rank_mod_p"): rank("linalg.rank_mod_p.entries"),
            ("mseg.linalg", "rank_exact"): rank("linalg.rank_exact.entries"),
            ("mseg.linalg", "sample_coeffs"): keys,
            **{site: report for site in LAYERS["harness.suite"]},
        }

    # -- install / remove ------------------------------------------------------

    def install(self):
        hooks = self._hooks()
        modules = [m for name, m in sys.modules.items() if name == "mseg" or name.startswith("mseg.")]
        for layer, sites in LAYERS.items():
            for site in sites:
                owner, attr = _resolve(*site)
                original = getattr(owner, attr, None)
                if original is None:
                    self.absent.append(".".join(site))
                    continue
                wrapped = self._wrap(layer, original, hooks.get(site))
                if isinstance(owner, type):
                    self._set(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if key.startswith("__"):
                            continue
                        if value is original:
                            self._set(mod, key, wrapped)
                        elif isinstance(value, dict):  # tables such as harness.SUITES
                            for k, v in list(value.items()):
                                if v is original:
                                    self._set_item(value, k, wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, table, key, value):
        self._undo.append((dict.__setitem__, table, key, table[key]))
        table[key] = value

    def remove(self):
        for restore, owner, key, value in reversed(self._undo):
            restore(owner, key, value)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics; call after :meth:`remove`."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        for name in COUNTERS:
            out[name] = self.counters[name]
        trials = full_rank = 0
        unique = set()
        verdicts = Counter()
        for kind, msegs, cfg, v in self.checks:
            unique.add((kind, tuple(str(m) for m in msegs), cfg))
            trials += v.trials_run
            if v.holds and v.trials_run:
                full_rank += 1
            if v.holds:
                verdicts["true_certified"] += v.certified
            else:
                verdicts["false_deterministic" if v.certified else "false_probabilistic"] += 1
        out["conditions.checks"] = len(self.checks)
        out["conditions.unique_checks"] = len(unique)
        out["conditions.trials"] = trials
        out["conditions.full_rank_trial_rate"] = full_rank / trials if trials else 0.0
        for key in ("false_probabilistic", "false_deterministic", "true_certified"):
            out[f"conditions.{key}"] = verdicts[key]
        generated = sum(r.instances_generated for r in self.reports)
        satisfied = sum(r.hypothesis_satisfied for r in self.reports)
        out["harness.hypothesis_rate"] = satisfied / generated if generated else 0.0
        out["trace.hook_s"] = self.hook_s
        out["trace.absent_names"] = len(self.absent)
        return out
