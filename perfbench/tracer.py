"""Outside-in tracer for the parityflux library.

The tracer wraps public functions from outside the package: every module
attribute that is the original function object is replaced by the wrapper,
so ``from .rates import flux_point`` aliases in other modules are patched
too, and function-local imports pick up the wrapper when they run.  A name
that cannot be resolved, or an alias that still points at the original
after patching, raises ``TraceResolutionError``.

Each wrapped call records a span (name, parent span, start, end, error)
kept in memory; self time is computed from the parent links at the end.
A few functions also feed counters that the spans alone cannot give:
quadrature panels and nodes (by wrapping the integrand), distinct argument
keys, LM iterations, trace samples and trace file bytes.
"""

import dataclasses
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

PACKAGE = "parityflux"

# module -> public names wrapped; "Class.method" patches the class attribute
TARGETS = {
    "device": ("parse_config_text", "load_config"),
    "spectrum": ("eigensystem", "parity_spectrum", "charge_matrix_elements"),
    "quadrature": ("adaptive_quad",),
    "superconductor": ("xqp_from_mu", "mu_from_xqp", "nups_integral",
                       "nups_integral_grid", "paps_integral",
                       "paps_integral_grid"),
    "rates": ("flux_point", "nups_rates", "paps_rates", "dilute_tables",
              "dilute_tables_grid", "paps_unit_grid"),
    "steady_state": ("solve_balance", "curve_point", "gamma_curve",
                     "solve_trapping_for_density"),
    "fitting": ("fit", "fit_lamp_series", "fit_thermal", "thermal_nups_rate",
                "lm_least_squares", "GammaModel.evaluate"),
    "telegraph": ("simulate_trace", "write_trace", "read_trace", "psd_gamma",
                  "gamma_statistics", "detect_bursts"),
    "cli": ("main",),
}

# aliases that must resolve to the wrapper once patched (module, attribute)
REQUIRED_ALIASES = {
    "rates.flux_point": ("steady_state.flux_point", "fitting.flux_point"),
    "quadrature.adaptive_quad": ("superconductor.adaptive_quad",
                                 "fitting.adaptive_quad"),
    "superconductor.mu_from_xqp": ("steady_state.mu_from_xqp",),
    "steady_state.solve_balance": ("fitting.solve_balance",),
    "rates.dilute_tables_grid": ("steady_state.dilute_tables_grid",
                                 "fitting.dilute_tables_grid"),
    "rates.paps_unit_grid": ("steady_state.paps_unit_grid",
                             "fitting.paps_unit_grid"),
}

# functions whose distinct argument keys are counted
DISTINCT = ("rates.flux_point", "rates.dilute_tables_grid",
            "rates.paps_unit_grid")

QUAD = "quadrature.adaptive_quad"
NODES_PER_PANEL = 15  # Kronrod 15-point rule


class TraceResolutionError(RuntimeError):
    """A listed name could not be found or patched everywhere it is used."""


def _key(value):
    """Hashable, value-based key for the arguments of DISTINCT functions."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        if hasattr(value, "mels"):
            # rates.FluxPoint: its matrix elements follow from (phi, n_g)
            return ("FluxPoint", value.phi, value.n_g)
        return (type(value).__name__,) + tuple(
            _key(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return tuple(_key(v) for v in value)
    return value


class Tracer:
    """Spans and counters for one traced run; install() patches, remove() undoes."""

    def __init__(self):
        self.spans = []          # [name, parent index, t0, t1, error]
        self._stack = []
        self.active = False
        self.counters = {}
        self._keys = {name: set() for name in DISTINCT}
        self._patches = []       # (owner, attribute, original)
        self.names = ["%s.%s" % (m, f) for m, fs in TARGETS.items() for f in fs]

    # -- patching ---------------------------------------------------------

    def _modules(self):
        return {name: mod for name, mod in sys.modules.items()
                if name == PACKAGE or name.startswith(PACKAGE + ".")}

    def install(self):
        """Patch every listed name wherever a module holds it; then check.

        On a resolution error the patches made so far are undone.
        """
        try:
            self._install()
        except BaseException:
            self.remove()
            raise
        return self

    def _install(self):
        for modname in TARGETS:
            importlib.import_module("%s.%s" % (PACKAGE, modname))
        modules = self._modules()
        for modname, fnames in TARGETS.items():
            mod = modules["%s.%s" % (PACKAGE, modname)]
            for fname in fnames:
                qual = "%s.%s" % (modname, fname)
                owner_name, _, attr = fname.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                original = (owner.__dict__.get(attr) if owner_name
                            else getattr(mod, attr, None))
                if not callable(original):
                    raise TraceResolutionError("cannot resolve %s" % qual)
                wrapper = self._wrap(qual, original)
                if owner_name:
                    self._patch(owner, attr, original, wrapper)
                    continue
                for other in modules.values():
                    for name, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, name, original, wrapper)
        self._check()

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _check(self):
        modules = self._modules()
        for qual in self.names:
            modname, _, fname = qual.partition(".")
            owner = modules["%s.%s" % (PACKAGE, modname)]
            for part in fname.split("."):
                owner = getattr(owner, part)
            if getattr(owner, "__traced__", None) != qual:
                raise TraceResolutionError("%s is not patched" % qual)
        for target, aliases in REQUIRED_ALIASES.items():
            for alias in aliases:
                modname, _, attr = alias.partition(".")
                value = getattr(modules["%s.%s" % (PACKAGE, modname)], attr, None)
                if getattr(value, "__traced__", None) != target:
                    raise TraceResolutionError(
                        "alias %s does not resolve to traced %s" % (alias, target))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- recording --------------------------------------------------------

    def _count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def _wrap(self, qual, original):
        tracer = self
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            if qual == QUAD:
                args = (tracer._counting_integrand(args[0]),) + args[1:]
            elif qual in tracer._keys:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer._keys[qual].add(_key(tuple(bound.arguments.values())))
            elif qual == "telegraph.read_trace":
                tracer._count("telegraph.read_trace.bytes",
                              os.path.getsize(args[0]))
            index = len(tracer.spans)
            span = [qual, tracer._stack[-1] if tracer._stack else -1,
                    time.perf_counter(), 0.0, False]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            if qual == "fitting.lm_least_squares":
                tracer._count("fitting.lm_least_squares.iterations",
                              result.iterations)
            elif qual == "telegraph.simulate_trace":
                tracer._count("telegraph.simulate_trace.samples",
                              len(result.samples))
            elif qual == "telegraph.write_trace":
                tracer._count("telegraph.write_trace.bytes",
                              os.path.getsize(args[0]))
            return result

        wrapper.__traced__ = qual
        wrapper.__wrapped__ = original
        wrapper.__name__ = original.__name__
        return wrapper

    def _counting_integrand(self, f):
        def integrand(x):
            y = np.asarray(f(x))
            self._count(QUAD + ".nodes", x.size)
            self._count(QUAD + ".panels", x.size // NODES_PER_PANEL)
            self._count(QUAD + ".values", y.size)
            return y
        return integrand

    # -- results ----------------------------------------------------------

    def _within(self, parent, name):
        """True if the span `parent` or one of its ancestors is `name`."""
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def metrics(self):
        """Per-layer metrics: calls, self_s, total_s and errors per name,
        plus counters.  total_s is inclusive of the calls a function makes."""
        calls = dict.fromkeys(self.names, 0)
        errors = dict.fromkeys(self.names, 0)
        total = dict.fromkeys(self.names, 0.0)
        child = [0.0] * len(self.spans)
        quads_in_mu = 0
        for name, parent, t0, t1, err in self.spans:
            calls[name] += 1
            errors[name] += err
            # inclusive time counts only the outermost of nested same-name calls
            if not self._within(parent, name):
                total[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
            if name == QUAD and self._within(parent, "superconductor.mu_from_xqp"):
                quads_in_mu += 1
        self_s = dict.fromkeys(self.names, 0.0)
        for i, (name, parent, t0, t1, _) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child[i]
        out = {}
        for name in self.names:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
            out[name + ".total_s"] = total[name]
            out[name + ".errors"] = errors[name]
        for name in (QUAD + ".panels", QUAD + ".nodes", QUAD + ".values",
                     "fitting.lm_least_squares.iterations",
                     "telegraph.simulate_trace.samples",
                     "telegraph.write_trace.bytes",
                     "telegraph.read_trace.bytes"):
            out[name] = self.counters.get(name, 0)
        n_mu = calls["superconductor.mu_from_xqp"]
        out["superconductor.mu_from_xqp.quads_per_call"] = (
            quads_in_mu / n_mu if n_mu else 0.0)
        for name, keys in self._keys.items():
            out[name + ".distinct_frac"] = (
                len(keys) / calls[name] if calls[name] else 0.0)
        out["trace.spans"] = len(self.spans)
        out["trace.errors"] = sum(errors.values())
        return out

    def write_spans(self, path):
        """One JSON object per line: id, name, parent, root, start, end, error.

        ``root`` is the id of the outermost span (the `cli.main` call), which
        identifies the job a span belongs to; parents are -1 at the root.
        """
        roots = []
        with open(path, "w") as fh:
            for i, (name, parent, t0, t1, err) in enumerate(self.spans):
                roots.append(i if parent < 0 else roots[parent])
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "root": roots[i], "start": t0, "end": t1,
                                     "error": err}) + "\n")
