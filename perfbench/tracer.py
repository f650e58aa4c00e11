"""Spans and counters wrapped around the public functions of each glnq module,
from outside the package.

A span records calls, total time and self time (its duration minus the time
covered by its child spans).  A counter only counts calls.  Installing the
tracer replaces every binding of each wrapped object: the defining module's
attribute, each by-name import in another glnq module, dict entries such as
``cli.SUITE_RUNNERS`` and class attributes, including aliases such as
``Cyclotomic.__rmul__ = __mul__``.  Nothing under ``src/`` is edited.
"""
from __future__ import annotations

import sys
import time

# (module, function or Class.method, metrics reported for it)
SPANS = tuple(
    ("cli", f"suite_{name}", ("total_s",))
    for name in ("orbits", "hc", "mackey", "bialgebra", "antipode", "duality",
                 "characterization", "psh", "witness", "steinberg")
) + (
    ("orbits", "enumerate_orbits", ("self_s", "hit_ratio")),
    ("orbits", "centralizer_order", ("self_s", "calls")),
    ("orbits", "orbit_table_bruteforce", ("self_s",)),
    ("glmat", "all_matrices", ("self_s",)),
    ("glmat", "gl_mask", ("self_s",)),
    ("glmat", "gl_arrays", ("self_s",)),
    ("glmat", "unipotent_radical_elems", ("self_s",)),
    ("glmat", "batch_matmul", ("self_s", "calls")),
    ("hc", "restriction_matrix", ("self_s", "hit_ratio")),
    ("hc", "induction_matrix", ("self_s", "hit_ratio")),
    ("hc", "parabolic_group_order", ("self_s",)),
    ("hc", "hc_restrict", ("self_s", "calls")),
    ("hc", "hc_induce", ("self_s", "calls")),
    ("hc", "verify_mackey", ("self_s", "calls")),
    ("hc", "verify_adjunction", ("self_s",)),
    ("hc", "verify_transitivity", ("self_s",)),
    ("hc", "verify_parabolic_independence", ("self_s",)),
    ("hc", "mackey_rhs", ("self_s",)),
    ("hopf", "antipode_function", ("self_s", "calls")),
    ("hopf", "multiply_functions", ("self_s", "calls")),
    ("hopf", "antipode_matrix", ("self_s",)),
    ("hopf", "primitive_subspace", ("self_s",)),
    ("hopf", "verify_bialgebra", ("self_s",)),
    ("hopf", "precuspidal_spanning_rank", ("self_s",)),
    ("hopf", "hilbert_series_check", ("self_s",)),
    ("duality", "DualityOperator.apply", ("self_s", "calls")),
    ("duality", "duality_operator", ("self_s",)),
    ("duality", "steinberg_constituents", ("self_s",)),
    ("duality", "verify_characterization", ("self_s",)),
    ("duality", "verify_involutive_isometric", ("self_s",)),
    ("duality", "verify_antipode_is_duality", ("self_s",)),
    ("invfun", "inner_product", ("self_s", "calls")),
    ("invfun", "inner_product_rational", ("calls",)),
    ("invfun", "tensor_inner_product", ("self_s", "calls")),
    ("invfun", "fourier_character_basis", ("self_s",)),
    ("invfun", "coords", ("self_s",)),
    ("psh", "omega_basis", ("self_s",)),
    ("psh", "structure_constants", ("self_s",)),
    ("psh", "verify_positivity", ("self_s",)),
    ("psh", "verify_self_adjointness", ("self_s",)),
    ("psh", "verify_second_psh", ("self_s",)),
    ("psh", "nondescending_witness", ("self_s",)),
    ("linalg", "matmul", ("self_s", "calls")),
    ("linalg", "kernel", ("self_s",)),
    ("linalg", "rref", ("self_s",)),
    ("linalg", "rank", ("self_s",)),
    ("linalg", "mat_eq", ("self_s",)),
    ("field", "fq", ("self_s",)),
)

# (module, Class.method, reported name): exact operation counts, no timing.
COUNTERS = (
    ("field", "Cyclotomic.__mul__", "field.Cyclotomic.mul.calls"),
    ("field", "Cyclotomic.__add__", "field.Cyclotomic.add.calls"),
    ("field", "Cyclotomic.conj", "field.Cyclotomic.conj.calls"),
)

# By-name imports named explicitly as bindings through which a span is
# reached; install() fails if any of them is left unpatched.
REQUIRED_BINDINGS = (
    ("psh", "hc_restrict", "hc.hc_restrict"),
    ("psh", "inner_product_rational", "invfun.inner_product_rational"),
    ("psh", "multiply_functions", "hopf.multiply_functions"),
    ("duality", "induction_matrix", "hc.induction_matrix"),
    ("duality", "antipode_matrix", "hopf.antipode_matrix"),
    ("hopf", "restriction_matrix", "hc.restriction_matrix"),
    ("hc", "batch_matmul", "glmat.batch_matmul"),
)

UNITS = {"self_s": "s", "total_s": "s", "calls": "count", "hit_ratio": "ratio"}


def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    out = {}
    for mod, qual, metrics in SPANS:
        for m in metrics:
            out[f"{mod}.{qual}.{m}"] = UNITS[m]
    for _, _, name in COUNTERS:
        out[name] = "count"
    out["orbits.lookup.entries"] = "count"
    out["orbits.lookup.budget_ratio"] = "ratio"
    out["glmat.gl_arrays.elems"] = "count"
    out["trace.overhead_s"] = "s"
    return out


def span_names() -> list:
    """Every span and counter, by the name its call count is kept under."""
    return [f"{mod}.{qual}" for mod, qual, _ in SPANS] + [c[2] for c in COUNTERS]


class BindingError(RuntimeError):
    """A span or counter could not be installed on every binding."""


class Tracer:
    """Span and counter records for one process; install() wraps glnq."""

    def __init__(self):
        self.stats = {}       # span name -> [calls, total_s, self_s]
        self.counts = {}      # counter name -> [calls]
        self.originals = {}   # span name -> the unwrapped object
        self.wrappers = {}    # span or counter name -> installed wrapper
        self.lookups = {}     # id(table) -> lookup entries
        self.gl_stacks = {}   # id(G) -> number of matrices
        self._stack = []

    def span(self, name, fn, on_result=None):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _observe_table(self, table):
        if table.lookup is not None:
            self.lookups[id(table)] = len(table.lookup)

    def _observe_gl(self, arrays):
        self.gl_stacks[id(arrays[0])] = len(arrays[0])

    def install(self):
        """Wrap every span and counter on every binding in the loaded glnq
        modules.  Raises BindingError if a required binding was missed."""
        import glnq
        import glnq.cli  # noqa: F401  (SUITE_RUNNERS lives here)
        mods = {name.rsplit(".", 1)[-1]: m for name, m in sys.modules.items()
                if name.startswith("glnq.")}
        scope = [glnq] + list(mods.values())
        observers = {"orbits.enumerate_orbits": self._observe_table,
                     "glmat.gl_arrays": self._observe_gl}
        for mod, qual, _ in SPANS:
            name = f"{mod}.{qual}"
            orig = _lookup(mods[mod], qual)
            self.originals[name] = orig
            self.wrappers[name] = self.span(name, orig, observers.get(name))
            _rebind(scope, orig, self.wrappers[name], name)
        for mod, qual, name in COUNTERS:
            orig = _lookup(mods[mod], qual)
            self.wrappers[name] = self.counter(name, orig)
            _rebind(scope, orig, self.wrappers[name], name)
        for mod, attr, span in REQUIRED_BINDINGS:
            if getattr(mods[mod], attr) is not self.wrappers[span]:
                raise BindingError(f"{mod}.{attr} does not reach span {span}")
        for key, fn in mods["cli"].SUITE_RUNNERS.items():
            if fn is not self.wrappers.get(f"cli.suite_{key}"):
                raise BindingError(f"cli.SUITE_RUNNERS[{key!r}] is not traced")

    def metrics(self) -> dict:
        """Per-layer values for everything recorded so far."""
        from glnq.orbits import LOOKUP_BUDGET
        out = {}
        for mod, qual, wanted in SPANS:
            name = f"{mod}.{qual}"
            calls, total, self_s = self.stats[name]
            values = {"calls": calls, "total_s": total, "self_s": self_s}
            if "hit_ratio" in wanted:
                info = self.originals[name].cache_info()
                looked = info.hits + info.misses
                values["hit_ratio"] = info.hits / looked if looked else 0.0
            for m in wanted:
                out[f"{name}.{m}"] = values[m]
        for _, _, name in COUNTERS:
            out[name] = self.counts[name][0]
        lookups = list(self.lookups.values())
        out["orbits.lookup.entries"] = sum(lookups)
        out["orbits.lookup.budget_ratio"] = max(lookups, default=0) / LOOKUP_BUDGET
        out["glmat.gl_arrays.elems"] = sum(self.gl_stacks.values())
        return out

    def calls(self) -> dict:
        """Call count of every span and counter, reached or not."""
        out = {name: rec[0] for name, rec in self.stats.items()}
        out.update({name: cell[0] for name, cell in self.counts.items()})
        return out


def _lookup(module, qual):
    owner = module
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    # vars(), not getattr(): a method must come out as the plain function
    # stored in the class, which is what its aliases are bound to.
    return vars(owner)[attr]


def _rebind(scope, orig, wrapper, name):
    hits = 0
    for module in scope:
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, wrapper)
                hits += 1
            elif isinstance(value, dict):
                for dkey, dval in list(value.items()):
                    if dval is orig:
                        value[dkey] = wrapper
                        hits += 1
            elif isinstance(value, type) and value.__module__.startswith("glnq"):
                for ckey, cval in list(vars(value).items()):
                    if cval is orig:
                        setattr(value, ckey, wrapper)
                        hits += 1
    if hits == 0:
        raise BindingError(f"no binding of {name} found")
