"""Per-layer tracing from outside the program.

Every public function of every ``canopy`` module is wrapped at each module
attribute that holds it, so a caller that looks the function up through
its own module (``from .carbon import expected_absorption``) or through
another (``growth.uncapped_height``) reaches the wrapper.  The callables
that ``carbon.segment_integrand`` returns are wrapped too, one timer per
integrand kind.  Each wrapper adds its duration to its caller's child time,
so a layer's self time is its duration minus the calls it made into other
layers.  Calls at the layer boundaries named in ``SPANS`` are also kept as
spans (operation, name, parent, start, duration); hot inner calls are only
counted and timed.  Everything stays in memory until ``snapshot``.
"""

import inspect
import sys
import time
from collections import defaultdict

SPANS = frozenset({
    "cli.main",
    "portfolio.load_inventory",
    "portfolio.evaluate_portfolio",
    "fielddata.load_measurements",
    "fielddata.fit_piecewise_linear",
    "carbon.expected_absorption",
    "carbon.creditable_absorption",
    "growth.integration_segments",
    "quadrature.integrate",
})
KINDS = ("growth-evergreen", "growth-deciduous", "growth-conifer", "growth-shrub", "cap")
MAX_SPANS = 200_000


def _kind(spec, segment) -> str:
    if segment.on_cap:
        return "cap"
    if spec.size.value == "shrub":
        return "growth-shrub"
    return f"growth-{spec.wood.value}"


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, seconds, self seconds
        self.counts = defaultdict(int)
        self.spans = []
        self.op = 0
        self._stack = []  # per open call: [child seconds, span index]
        self._origin = time.perf_counter()
        self._patched = []

    def _timed(self, name, fn, after=None):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        perf = time.perf_counter
        keep = name in SPANS

        def wrapper(*args, **kwargs):
            frame = [0.0, -1]
            parent = -1
            if keep and len(spans) < MAX_SPANS:
                for outer in reversed(stack):
                    if outer[1] >= 0:
                        parent = outer[1]
                        break
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if frame[1] >= 0:
                    spans[frame[1]] = (self.op, name, parent, start - self._origin, elapsed)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrappers(self, modules):
        """Map each public function object to its wrapper."""
        counts = self.counts
        absorption_calls = self.stats["carbon.expected_absorption"]
        out = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                after = None
                if attr in ("load_inventory", "load_measurements"):
                    def after(result, args, key=f"{name}.rows"):
                        counts[key] += len(result)
                elif attr == "integration_segments":
                    def after(result, args):
                        counts["growth.pieces"] += len(result)
                elif attr == "segment_integrand":
                    out[fn] = self._integrand_factory(fn)
                    continue
                elif attr == "evaluate_portfolio":
                    out[fn] = self._portfolio(self._timed(name, fn), absorption_calls)
                    continue
                out[fn] = self._timed(name, fn, after)
        return out

    def _integrand_factory(self, factory):
        # building the integrand stays in the caller's self time; only the
        # returned callable is timed, once per evaluation
        def segment_integrand(spec, segment, *args, **kwargs):
            integrand = factory(spec, segment, *args, **kwargs)
            return self._timed(f"quadrature.{_kind(spec, segment)}", integrand)

        segment_integrand.__wrapped__ = factory
        return segment_integrand

    def _portfolio(self, timed, absorption_calls):
        counts = self.counts

        def evaluate_portfolio(cohorts, *args, **kwargs):
            before = absorption_calls[0]
            report = timed(cohorts, *args, **kwargs)
            misses = absorption_calls[0] - before
            counts["portfolio.absorption.misses"] += misses
            counts["portfolio.absorption.hits"] += len(report.per_cohort) - misses
            return report

        evaluate_portfolio.__wrapped__ = timed.__wrapped__
        return evaluate_portfolio

    def install(self):
        """Wrap every public canopy function at every module attribute
        holding it.  Import the modules to be traced first."""
        modules = [
            module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "canopy" or name.startswith("canopy."))
        ]
        wrappers = self._wrappers(modules)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def remove(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def snapshot(self) -> dict:
        return {
            "stats": {name: list(values) for name, values in self.stats.items()},
            "counts": dict(self.counts),
            "spans": list(self.spans),
        }

    def merge(self, snapshot: dict, op: int):
        """Add a snapshot taken in another process (one operation)."""
        for name, (calls, seconds, own) in snapshot["stats"].items():
            stats = self.stats[name]
            stats[0] += calls
            stats[1] += seconds
            stats[2] += own
        for name, value in snapshot["counts"].items():
            self.counts[name] += value
        base = len(self.spans)
        for _, name, parent, start, elapsed in snapshot["spans"][: MAX_SPANS - base]:
            self.spans.append((op, name, parent + base if parent >= 0 else -1, start, elapsed))


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-operation layer figures from a tracer's totals."""
    stats, counts = tracer.stats, tracer.counts

    def calls(name):
        return stats[name][0] / ops if name in stats else 0.0

    def ms(name):
        return stats[name][1] * 1e3 / ops if name in stats else 0.0

    def self_ms(name):
        return stats[name][2] * 1e3 / ops if name in stats else 0.0

    out = {
        ("cli.main.self_ms", "ms"): self_ms("cli.main"),
        ("portfolio.load_inventory.ms", "ms"): ms("portfolio.load_inventory"),
        ("portfolio.load_inventory.rows", "count"): counts["portfolio.load_inventory.rows"] / ops,
        ("portfolio.evaluate_portfolio.self_ms", "ms"): self_ms("portfolio.evaluate_portfolio"),
        ("portfolio.absorption.misses", "count"): counts["portfolio.absorption.misses"] / ops,
        ("portfolio.absorption.hits", "count"): counts["portfolio.absorption.hits"] / ops,
        ("fielddata.load_measurements.ms", "ms"): ms("fielddata.load_measurements"),
        ("fielddata.load_measurements.rows", "count"): counts["fielddata.load_measurements.rows"] / ops,
        ("fielddata.fit_piecewise_linear.ms", "ms"): ms("fielddata.fit_piecewise_linear"),
        ("carbon.expected_absorption.calls", "count"): calls("carbon.expected_absorption"),
        ("carbon.expected_absorption.self_ms", "ms"): self_ms("carbon.expected_absorption"),
        ("carbon.creditable_absorption.ms", "ms"): ms("carbon.creditable_absorption"),
        ("quadrature.integrate.calls", "count"): calls("quadrature.integrate"),
        ("quadrature.integrate.self_ms", "ms"): self_ms("quadrature.integrate"),
    }
    for kind in KINDS:
        out[(f"quadrature.{kind}.evals", "count")] = calls(f"quadrature.{kind}")
        out[(f"quadrature.{kind}.ms", "ms")] = ms(f"quadrature.{kind}")
    out.update({
        ("growth.integration_segments.ms", "ms"): ms("growth.integration_segments"),
        ("growth.pieces", "count"): counts["growth.pieces"] / ops,
        ("growth.uncapped_height.calls", "count"): calls("growth.uncapped_height"),
        ("growth.uncapped_height.ms", "ms"): ms("growth.uncapped_height"),
        ("growth.time_at_height.calls", "count"): calls("growth.time_at_height"),
        ("growth.time_at_height.ms", "ms"): ms("growth.time_at_height"),
        ("removal.survival_fraction.calls", "count"): calls("removal.survival_fraction"),
        ("removal.survival_fraction.ms", "ms"): ms("removal.survival_fraction"),
    })
    return out
