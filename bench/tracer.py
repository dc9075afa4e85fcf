"""Per-layer tracing of a package from outside it.

The tracer rebinds public names of a package's modules to timing wrappers;
nothing inside the package changes.  A function is rebound in every module
of the package that bound the same object (``from .structure import
evaluate_structure`` binds it in several namespaces), and a method is
patched on its class.  A name that no longer exists is skipped and listed
in ``absent``, as is a result field a counter can no longer read, so a
refactor of the package cannot break the benchmark.

Each layer is one module.  A call that enters a layer from another layer
opens a span; calls within the layer only count.  Spans are not stored one
per call: each closing span adds its count, total and self time into a
per-(layer, parent layer) total.  Self time is a span's time minus the
time of its child spans.  A wrapper may also add inclusive time to a named
timer (nested calls under the same timer are not counted twice) and add an
amount read from the call's result to a named counter.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import defaultdict

ROOT = "-"


class Tracer:
    def __init__(self):
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.timers: defaultdict[str, float] = defaultdict(float)
        #: (layer, parent layer) -> [spans, total seconds, self seconds]
        self.spans: defaultdict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.installed: list[str] = []
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._open_timers: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer, counter=None, timer=None, amount=None):
        counts, timers, spans = self.counts, self.timers, self.spans
        stack, open_timers, absent = self._stack, self._open_timers, self.absent
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            new_span = not stack or stack[-1][0] != layer
            timed = timer is not None and timer not in open_timers
            if not (new_span or timed or amount):
                return fn(*args, **kwargs)
            if new_span:
                frame = [layer, 0.0]
                stack.append(frame)
            if timed:
                open_timers.add(timer)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if timed:
                    open_timers.discard(timer)
                    timers[timer] += elapsed
                if new_span:
                    stack.pop()
                    parent = stack[-1][0] if stack else ROOT
                    if stack:
                        stack[-1][1] += elapsed
                    total = spans[(layer, parent)]
                    total[0] += 1
                    total[1] += elapsed
                    total[2] += elapsed - frame[1]
            if amount:
                name, read = amount
                try:
                    counts[name] += read(result)
                except (AttributeError, TypeError):  # the result lost the field
                    if name not in absent:
                        absent.append(name)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def patch_function(self, package: str, module: str, name: str, layer: str, **kw) -> bool:
        """Rebind ``package.module.name`` wherever the package bound it."""
        mod = sys.modules.get(f"{package}.{module}")
        original = getattr(mod, name, None)
        if not inspect.isfunction(original):
            self.absent.append(f"{module}.{name}")
            return False
        wrapper = self._wrap(original, layer, **kw)
        for mod_name, namespace in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attr, wrapper)
                    self._undo.append((namespace, attr, original))
        self.installed.append(f"{module}.{name}")
        return True

    def patch_method(self, cls: type, name: str, layer: str, **kw) -> bool:
        """Patch a method defined on ``cls`` itself."""
        original = cls.__dict__.get(name)
        if not inspect.isfunction(original):  # gone, or now a property or staticmethod
            self.absent.append(f"{layer}.{cls.__name__}.{name}")
            return False
        setattr(cls, name, self._wrap(original, layer, **kw))
        self._undo.append((cls, name, original))
        self.installed.append(f"{layer}.{cls.__name__}.{name}")
        return True

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    def snapshot(self) -> dict[str, float]:
        """Flat running totals: counters, timers and self time per layer."""
        flat = {f"count:{k}": v for k, v in self.counts.items()}
        flat.update({f"timer:{k}": v for k, v in self.timers.items()})
        for (layer, _), (_, _, self_s) in self.spans.items():
            flat[f"self:{layer}"] = flat.get(f"self:{layer}", 0.0) + self_s
        return flat


# ---------------------------------------------------------------------------
# the poissonkit plan
# ---------------------------------------------------------------------------

#: Public functions, per module, that are layer boundaries.  The layer of a
#: name is its module.  Names listed here but missing from the package are
#: reported as absent.
FUNCTIONS = {
    "cli": ("main",),
    "config": ("parse_config", "resolve_system", "hamiltonian_from_descriptor"),
    "catalog": (
        "catalog_entry", "kermack_mckendrick", "toda", "constant_symplectic",
        "counterexample_field",
    ),
    "structure": (
        "build_spec", "make_spec", "evaluate_structure", "structure_partials",
        "factor_values", "factor_derivatives", "lambda_coefficient",
    ),
    "verify": (
        "jacobi_sweep", "jacobi_residual", "kernel_check", "rank_at",
        "structure_field", "fd_structure_field", "generic_field", "fd_partials",
    ),
    "darboux": (
        "darboux_chart", "certify_canonical", "casimirs", "linear_chart",
        "inverse_linear_chart", "quadrature_chart", "inverse_quadrature_chart",
        "default_anchors", "canonical_matrix", "pushforward", "linear_chart_pushforward",
    ),
    "dynamics": ("integrate_direct", "integrate_canonical", "vector_field", "bracket"),
}

#: Public methods, per (module, class), that are layer boundaries.
METHODS = {
    ("structure", "MultiseparableSpec"): ("require_inside",),
    ("domain", "BoxDomain"): ("contains", "halton_points", "projected_interval", "sampling_bounds"),
    ("darboux", "DarbouxChart"): (
        "forward", "inverse", "forward_jacobian", "inverse_jacobian", "contains_image",
    ),
}

#: Methods patched on FactorFunction and on every factor kind in the
#: factors module that defines its own.
FACTOR_METHODS = ("value", "derivative", "reciprocal_antiderivative", "invert_antiderivative", "covers")

#: Where named counters and timers are fed: source name -> wrapper options.
SOURCES = {
    "config.parse_config": {"timer": "config.parse"},
    "config.resolve_system": {"timer": "config.parse"},
    "catalog.catalog_entry": {"timer": "catalog.build"},
    "catalog.kermack_mckendrick": {"timer": "catalog.build"},
    "catalog.toda": {"timer": "catalog.build"},
    "catalog.constant_symplectic": {"timer": "catalog.build"},
    "structure.build_spec": {"timer": "structure.build"},
    "structure.make_spec": {"timer": "structure.build"},
    "structure.evaluate_structure": {"counter": "structure.evaluate"},
    "structure.structure_partials": {"counter": "structure.partials"},
    "verify.jacobi_sweep": {
        "timer": "verify.sweep",
        "amount": ("verify.points", lambda report: report.num_points),
    },
    "domain.BoxDomain.contains": {"counter": "domain.contains"},
    "domain.BoxDomain.halton_points": {"counter": "domain.halton"},
    "factors.value": {"counter": "factors.value"},
    "factors.derivative": {"counter": "factors.value"},
    "factors.reciprocal_antiderivative": {"counter": "factors.antiderivative"},
    "factors.invert_antiderivative": {"counter": "factors.inverse"},
    "darboux.darboux_chart": {"timer": "darboux.chart"},
    "darboux.certify_canonical": {"timer": "darboux.certify"},
    "darboux.DarbouxChart.inverse": {"counter": "darboux.inverse"},
    "darboux.DarbouxChart.inverse_jacobian": {"counter": "darboux.inverse_jacobian"},
    "dynamics.integrate_direct": {
        "timer": "dynamics.integrate",
        "amount": ("dynamics.steps", lambda record: record.num_records - 1),
    },
    "dynamics.integrate_canonical": {
        "timer": "dynamics.integrate",
        "amount": ("dynamics.steps", lambda record: record.num_records - 1),
    },
    "dynamics.vector_field": {"counter": "dynamics.vector_field"},
}


def install_poissonkit(tracer: Tracer, package: str = "poissonkit") -> None:
    """Install the poissonkit plan; the package must already be imported."""
    for module, names in FUNCTIONS.items():
        for name in names:
            tracer.patch_function(
                package, module, name, module, **SOURCES.get(f"{module}.{name}", {})
            )
    for (module, cls_name), names in METHODS.items():
        cls = getattr(sys.modules.get(f"{package}.{module}"), cls_name, None)
        for name in names:
            if cls is None:
                tracer.absent.append(f"{module}.{cls_name}.{name}")
                continue
            source = SOURCES.get(f"{module}.{cls_name}.{name}", {})
            tracer.patch_method(cls, name, module, **source)
    factors = sys.modules.get(f"{package}.factors")
    base = getattr(factors, "FactorFunction", None)
    kinds = [
        c for c in vars(factors).values() if isinstance(c, type) and issubclass(c, base)
    ] if isinstance(base, type) else []
    for name in FACTOR_METHODS:
        owners = [c for c in kinds if inspect.isfunction(c.__dict__.get(name))]
        if not owners:
            tracer.absent.append(f"factors.*.{name}")
        for cls in owners:
            tracer.patch_method(cls, name, "factors", **SOURCES.get(f"factors.{name}", {}))


def per_job_metrics(deltas: list[dict[str, float]]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from per-job snapshot deltas (already host-normalized
    for times).  Counts are means per job, times are medians per job."""
    def count(key):
        return sum(d.get(f"count:{key}", 0.0) for d in deltas) / len(deltas)

    def seconds(key):
        return statistics.median(d.get(key, 0.0) for d in deltas)

    steps = count("dynamics.steps")
    rhs = count("dynamics.vector_field") + count("darboux.inverse_jacobian")
    return {
        "cli.self_s": (seconds("self:cli"), "s"),
        "config.parse_s": (seconds("timer:config.parse"), "s"),
        "catalog.build_s": (seconds("timer:catalog.build"), "s"),
        "structure.build_s": (seconds("timer:structure.build"), "s"),
        "structure.evaluate.calls": (count("structure.evaluate"), "count"),
        "structure.partials.calls": (count("structure.partials"), "count"),
        "structure.self_s": (seconds("self:structure"), "s"),
        "verify.points": (count("verify.points"), "count"),
        "verify.sweep_s": (seconds("timer:verify.sweep"), "s"),
        "verify.self_s": (seconds("self:verify"), "s"),
        "domain.halton.calls": (count("domain.halton"), "count"),
        "domain.contains.calls": (count("domain.contains"), "count"),
        "domain.self_s": (seconds("self:domain"), "s"),
        "factors.value.calls": (count("factors.value"), "count"),
        "factors.antiderivative.calls": (count("factors.antiderivative"), "count"),
        "factors.inverse.calls": (count("factors.inverse"), "count"),
        "factors.self_s": (seconds("self:factors"), "s"),
        "darboux.chart_s": (seconds("timer:darboux.chart"), "s"),
        "darboux.certify_s": (seconds("timer:darboux.certify"), "s"),
        "darboux.inverse.calls": (count("darboux.inverse"), "count"),
        "darboux.inverse_jacobian.calls": (count("darboux.inverse_jacobian"), "count"),
        "darboux.self_s": (seconds("self:darboux"), "s"),
        "dynamics.steps": (steps, "count"),
        "dynamics.rhs_per_step": (rhs / steps if steps else 0.0, "calls/step"),
        "dynamics.integrate_s": (seconds("timer:dynamics.integrate"), "s"),
        "dynamics.self_s": (seconds("self:dynamics"), "s"),
    }


#: Per-layer metric -> the traced names that feed it; the metric is absent
#: when every one of them is absent.
METRIC_SOURCES = {
    "cli.self_s": ("cli.main",),
    "config.parse_s": ("config.parse_config", "config.resolve_system"),
    "catalog.build_s": ("catalog.catalog_entry",),
    "structure.build_s": ("structure.build_spec", "structure.make_spec"),
    "structure.evaluate.calls": ("structure.evaluate_structure",),
    "structure.partials.calls": ("structure.structure_partials",),
    "verify.points": ("verify.jacobi_sweep",),
    "verify.sweep_s": ("verify.jacobi_sweep",),
    "domain.halton.calls": ("domain.BoxDomain.halton_points",),
    "domain.contains.calls": ("domain.BoxDomain.contains",),
    "factors.value.calls": ("factors.*.value", "factors.*.derivative"),
    "factors.antiderivative.calls": ("factors.*.reciprocal_antiderivative",),
    "factors.inverse.calls": ("factors.*.invert_antiderivative",),
    "darboux.chart_s": ("darboux.darboux_chart",),
    "darboux.certify_s": ("darboux.certify_canonical",),
    "darboux.inverse.calls": ("darboux.DarbouxChart.inverse",),
    "darboux.inverse_jacobian.calls": ("darboux.DarbouxChart.inverse_jacobian",),
    "dynamics.steps": ("dynamics.integrate_direct", "dynamics.integrate_canonical"),
    "dynamics.rhs_per_step": ("dynamics.vector_field", "darboux.DarbouxChart.inverse_jacobian"),
    "dynamics.integrate_s": ("dynamics.integrate_direct", "dynamics.integrate_canonical"),
}


def absent_metrics(tracer: Tracer) -> list[str]:
    gone = set(tracer.absent)
    return sorted(m for m, names in METRIC_SOURCES.items() if all(n in gone for n in names))
