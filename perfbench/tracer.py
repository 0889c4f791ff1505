"""Outside-in tracer for vancyc: spans and counters around public functions.

The tracer wraps functions of the ``vancyc`` modules and rebinds each wrapper
in every ``vancyc`` module that holds the original object, because modules
import each other's functions by name (``from .groebner import eliminate``).
Leaving the ``with`` block restores every original.  Spans are kept in memory
as (id, parent, item, name, start, end); hot leaf functions are only counted,
since timing each of their calls would dominate the run.

``poly.grevlex_key.calls`` counts only the calls made through ``groebner``
(``MonomialOrder.key``).  ``Polynomial.lead`` binds ``grevlex_key`` as a
default argument when ``poly`` is imported, and no rebinding can reach it.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

# Functions timed with a span; their layer metric is "<module>.<name>.self_s".
SPANNED = {
    "groebner": ("divmod_polynomials", "buchberger", "eliminate",
                 "radical_membership", "quotient_dimension"),
    "poly": ("determinant_fraction_free", "squarefree_part_bivariate",
             "gcd_polynomials", "parse_polynomial"),
    "singularity": ("critical_ideal", "discriminant", "al_multiplicity_by_counting",
                    "milnor_number"),
    "germfile": ("parse_germ_text",),
    "monodromy": ("group_order_bfs", "braid_relation_check", "coxeter_element_order",
                  "fold", "identify_type"),
    "steinberg": ("casimir_components_check", "steinberg_discriminant_multiplicity",
                  "subregular_slice_check"),
    "symplectic": ("poisson_bracket",),
}

# The twelve suite checks; their metric is the inclusive "suite.<name>.s".
CHECK_FUNCTIONS = ("check_involutivity", "check_discriminant_basic",
                "check_discriminant_al6", "check_al_binomial", "check_henon_heiles",
                "check_milnor_baseline", "check_braid_relations", "check_weyl_orders",
                "check_picard_lefschetz", "check_variation_matrix",
                "check_folding_groups", "check_steinberg_suite")

COUNTERS = ("poly.grevlex_key.calls", "groebner.normal_form.calls",
            "groebner.nf_zero_ratio", "groebner.spairs", "groebner.basis_max",
            "monodromy.group_elements")

SETUP_METRICS = ("setup.import_numpy_s", "setup.import_vancyc_s", "setup.inputs_s")
OVERHEAD_METRIC = "trace.overhead_s"


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for module, names in SPANNED.items():
        for name in names:
            units[f"{module}.{name}.self_s"] = "s"
    for name in CHECK_FUNCTIONS:
        units[f"suite.{name}.s"] = "s"
    for name in COUNTERS:
        units[name] = "ratio" if name.endswith("_ratio") else "count"
    for name in SETUP_METRICS + (OVERHEAD_METRIC,):
        units[name] = "s"
    return units


class Span(NamedTuple):
    span_id: int
    parent: int | None
    item: str | None
    name: str
    start: float
    end: float


class Tracer:
    """Install with ``with Tracer() as t:``; set ``t.item`` before each item."""

    def __init__(self):
        self.item: str | None = None
        self.spans: list[Span | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        import vancyc  # noqa: F401  (loads every module the rebinding visits)
        for module, names in SPANNED.items():
            for name in names:
                self._patch(module, name, self._spanned(f"{module}.{name}"))
        for name in CHECK_FUNCTIONS:
            self._patch("suite", name, self._spanned(f"suite.{name}"))
        self._patch("groebner", "buchberger", self._observe_buchberger)
        self._patch("monodromy", "group_order_bfs", self._observe_group_order)
        self._patch("groebner", "normal_form", self._count_normal_form)
        self._patch("poly", "grevlex_key", self._count("poly.grevlex_key.calls"),
                    only_in=("vancyc.groebner",))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
        return False

    def _patch(self, module: str, name: str, make_wrapper, only_in=None):
        """Rebind ``name`` in every vancyc module holding the current object.

        Patching a name twice nests the second wrapper around the first.
        """
        current = getattr(sys.modules[f"vancyc.{module}"], name)
        wrapper = functools.wraps(current)(make_wrapper(current))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "vancyc" or mod_name.startswith("vancyc.")):
                continue
            if only_in is not None and mod_name not in only_in:
                continue
            for attr, value in list(vars(mod).items()):
                if value is current:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    # -- wrappers --------------------------------------------------------------

    def _spanned(self, name: str):
        spans, stack = self.spans, self._stack

        def make(fn):
            def wrapper(*args, **kwargs):
                span_id = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else None
                stack.append(span_id)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[span_id] = Span(span_id, parent, self.item, name, start, end)
            return wrapper
        return make

    def _count(self, key: str):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _count_normal_form(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["groebner.normal_form.calls"] += 1
            if result.is_zero():
                counts["groebner.normal_form.zero"] += 1
            return result
        return wrapper

    def _observe_buchberger(self, fn):
        counts = self.counts
        from vancyc.groebner import ResourceLimitExceeded

        def wrapper(*args, **kwargs):
            try:
                basis = fn(*args, **kwargs)
            except ResourceLimitExceeded as exc:
                counts["groebner.spairs"] += exc.pairs_processed
                raise
            counts["groebner.spairs"] += basis.pairs_processed
            counts["groebner.basis_max"] = max(counts["groebner.basis_max"],
                                               len(basis.elements))
            return basis
        return wrapper

    def _observe_group_order(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            order = fn(*args, **kwargs)
            counts["monodromy.group_elements"] += order or 0
            return order
        return wrapper

    # -- results ---------------------------------------------------------------

    def finished_spans(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def layer_metrics(self) -> dict[str, float]:
        """Self time per spanned function, inclusive time per suite check and
        the counters.  Self time is a span's duration minus its children's."""
        spans = self.finished_spans()
        covered: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        self_time: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        for s in spans:
            self_time[s.name] += s.end - s.start - covered[s.span_id]
            inclusive[s.name] += s.end - s.start
        out: dict[str, float] = {}
        for module, names in SPANNED.items():
            for name in names:
                out[f"{module}.{name}.self_s"] = self_time[f"{module}.{name}"]
        for name in CHECK_FUNCTIONS:
            out[f"suite.{name}.s"] = inclusive[f"suite.{name}"]
        for name in COUNTERS:
            out[name] = self.counts[name]
        nf = self.counts["groebner.normal_form.calls"]
        zero = self.counts["groebner.normal_form.zero"]
        out["groebner.nf_zero_ratio"] = zero / nf if nf else 0.0
        return out
