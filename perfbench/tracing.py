"""Per-layer tracing of the meanfield package, installed from outside it.

The tracer wraps public functions of each module in spans and counters
without editing the package.  A function imported by name into another
module (``cli`` imports ``simulate_kac``, ``harness`` imports
``spectral_evolve``, ``thermostat`` imports ``_generate_events``, and
``cli._COMMANDS`` maps names to ``cmd_*``) is replaced wherever a loaded
``meanfield`` module holds it, so calls made through any of those names
are seen.  A target that no longer exists is listed in ``absent`` and
skipped, so a refactor that removes it degrades the trace instead of
crashing it.

Spans nest on one stack.  A span's self time is its duration minus the
time covered by its child spans, so self times never count a second twice.
The wrappers draw no random numbers and pass arguments and results through
unchanged.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

# (module, attribute path, span name, counter hook name or None)
TARGETS = [
    ("meanfield.core", "RngStream.uniform", "core.rng", "rng"),
    ("meanfield.core", "RngStream.normal", "core.rng", "rng"),
    ("meanfield.core", "RngStream.exponential", "core.rng", "rng"),
    ("meanfield.core", "RngStream.integers", "core.rng", "rng"),
    ("meanfield.core", "RngStream.unit_vectors", "core.rng", "rng"),
    ("meanfield._events", "sample_event_times", "events.generate", "event_times"),
    ("meanfield._events", "sample_pairs", "events.generate", None),
    ("meanfield.elastic", "AngularKernel.sample_costheta", "events.generate", None),
    ("meanfield.elastic", "_generate_events", "events.generate", None),
    ("meanfield._events", "disjoint_batches", "events.schedule", None),
    ("meanfield._events", "apply_pair_collisions", "events.apply", "apply"),
    ("meanfield.elastic", "simulate_kac", "elastic.simulate", None),
    ("meanfield.elastic", "AngularKernel.__post_init__", "elastic.kernel", None),
    ("meanfield.thermostat", "simulate_thermostat", "thermostat.simulate", None),
    ("meanfield.mckean", "simulate_mkv", "mckean.simulate", None),
    ("meanfield.mckean", "em_step", "mckean.em_step", "em_step"),
    ("meanfield.limits", "spectral_evolve", "limits.spectral_evolve", "spectral"),
    ("meanfield.metrics", "empirical_sampling_error", "metrics.sampling_error", "sampling"),
    ("meanfield.metrics", "toscani_norm", "metrics.toscani", None),
    ("meanfield.harness", "u_statistic", "harness.u_statistic", None),
    ("meanfield.harness", "rate_fit", "harness.rate_fit", None),
    ("meanfield.harness", "fourier_contraction_check", "harness.contraction", None),
    ("meanfield.cli", "cmd_simulate", "cli", None),
    ("meanfield.cli", "cmd_metric", "cli", None),
    ("meanfield.cli", "cmd_chaos_curve", "cli", None),
    ("meanfield.cli", "cmd_omega_n", "cli", None),
    ("meanfield.cli", "cmd_check", "cli", None),
    ("meanfield.config", "write_csv", "config.write_csv", None),
    ("meanfield._parallel", "ordered_map", "parallel.map", None),
]


class Tracer:
    """Span stack, self/inclusive times and counters for one traced operation."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[list] = []  # [name, start, child seconds]
        self._saved: list[tuple[object, str, object, bool]] = []
        self._signatures: dict = {}

    def _bind(self, fn, args, kwargs):
        """Arguments of a call by parameter name, or None if they do not fit."""
        sig = self._signatures.get(fn)
        if sig is None:
            sig = self._signatures[fn] = inspect.signature(fn)
        try:
            bound = sig.bind(*args, **kwargs)
        except TypeError:
            return None
        bound.apply_defaults()
        return bound

    # -- spans -------------------------------------------------------------

    def _span(self, name, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            outer = not (tracer._stack and tracer._stack[-1][0] == name)
            if hook is not None:
                args, kwargs, after = getattr(tracer, "_before_" + hook)(fn, args, kwargs, outer)
            tracer._stack.append([name, time.perf_counter(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                _, start, child = tracer._stack.pop()
                dur = time.perf_counter() - start
                tracer.self_s[name] += dur - child
                if outer:
                    tracer.incl_s[name] += dur
                tracer.calls[name] += 1
                if tracer._stack:
                    tracer._stack[-1][2] += dur
            if hook is not None and after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    # -- counter hooks: each returns (args, kwargs, after-callback) ---------

    def _before_rng(self, fn, args, kwargs, outer):
        stream = args[0]
        start = getattr(stream, "draw_counter", 0)

        def after(_result):
            if outer:
                self.counters["variates"] += getattr(stream, "draw_counter", 0) - start

        return args, kwargs, after

    def _before_event_times(self, fn, args, kwargs, outer):
        def after(result):
            self.counters["events"] += len(result)

        return args, kwargs, after

    def _before_apply(self, fn, args, kwargs, outer):
        bound = self._bind(fn, args, kwargs)
        if bound is None:
            return args, kwargs, None
        batches = bound.arguments.get("batches")
        if batches is not None:
            batches = bound.arguments["batches"] = list(batches)
            self.counters["apply_batches"] += len(batches)
            self.counters["apply_events"] += sum(hi - lo for lo, hi in batches)
        hook = bound.arguments.get("pre_batch_hook")
        if hook is not None:
            bound.arguments["pre_batch_hook"] = self._span("thermostat.bath", hook, None)
        return bound.args, bound.kwargs, None

    def _before_em_step(self, fn, args, kwargs, outer):
        bound = self._bind(fn, args, kwargs)
        if bound is not None:
            state = bound.arguments.get("state")
            self.counters["particle_steps"] += getattr(state, "n_particles", 0)
        return args, kwargs, None

    def _before_spectral(self, fn, args, kwargs, outer):
        # computed from the arguments, not observed: RK4 evaluates the
        # right-hand side four times per step
        bound = self._bind(fn, args, kwargs)
        if bound is not None:
            t_end, dt = bound.arguments.get("t_end"), bound.arguments.get("dt")
            if t_end is not None and dt:
                self.counters["rhs_evals"] += 4 * int(round(t_end / dt))
        return args, kwargs, None

    def _before_sampling(self, fn, args, kwargs, outer):
        bound = self._bind(fn, args, kwargs)
        if bound is not None:
            self.counters["sampling_replicas"] += bound.arguments.get("replicas") or 0
        return args, kwargs, None

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Wrap every target; record the ones that no longer exist."""
        for modname, path, name, hook in TARGETS:
            try:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{modname}.{path}")
                continue
            if inspect.isclass(owner):
                self._replace(owner, attr, raw, self._span(name, raw, hook), is_item=False)
            else:
                self._replace_everywhere(raw, self._span(name, raw, hook))

    def _replace(self, owner, key, original, new, is_item):
        if is_item:
            owner[key] = new
        else:
            setattr(owner, key, new)
        self._saved.append((owner, key, original, is_item))

    def _replace_everywhere(self, original, new) -> None:
        """Swap a module-level function wherever a meanfield module refers to it."""
        for modname, mod in list(sys.modules.items()):
            if modname != "meanfield" and not modname.startswith("meanfield."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, original, new, is_item=False)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._replace(value, k, original, new, is_item=True)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original, is_item = self._saved.pop()
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- per-layer metrics -----------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of one operation, named as in BENCHMARK.json."""
        s, incl, n, c = self.self_s, self.incl_s, self.calls, self.counters

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        applied = c["apply_events"]
        return {
            "core.rng.s": s["core.rng"],
            "core.rng.variates": c["variates"],
            "core.rng.variates_per_s": rate(c["variates"], s["core.rng"]),
            "events.count": c["events"],
            "events.generate.s": s["events.generate"],
            "events.schedule.s": s["events.schedule"],
            "events.batches": c["apply_batches"],
            "events.per_batch": applied / c["apply_batches"] if c["apply_batches"] else 0.0,
            "events.apply.s": s["events.apply"],
            "events.apply.events_per_s": rate(applied, s["events.apply"]),
            "elastic.simulate.s": incl["elastic.simulate"],
            "elastic.simulate.calls": n["elastic.simulate"],
            "elastic.kernel.builds": n["elastic.kernel"],
            "elastic.kernel.build_s": incl["elastic.kernel"],
            "thermostat.simulate.s": incl["thermostat.simulate"],
            "thermostat.bath.s": s["thermostat.bath"],
            "thermostat.bath.calls": n["thermostat.bath"],
            "mckean.simulate.s": incl["mckean.simulate"],
            "mckean.em_step.s": s["mckean.em_step"],
            "mckean.particle_steps": c["particle_steps"],
            "mckean.particle_steps_per_s": rate(c["particle_steps"], incl["mckean.em_step"]),
            "limits.spectral_evolve.s": s["limits.spectral_evolve"],
            "limits.rhs_evals": c["rhs_evals"],
            "limits.rhs_evals_per_s": rate(c["rhs_evals"], s["limits.spectral_evolve"]),
            "metrics.sampling_error.s": s["metrics.sampling_error"],
            "metrics.sampling_error.replicas": c["sampling_replicas"],
            "metrics.toscani.s": s["metrics.toscani"],
            "harness.u_statistic.s": s["harness.u_statistic"],
            "harness.u_statistic.calls": n["harness.u_statistic"],
            "harness.rate_fit.s": s["harness.rate_fit"],
            "harness.contraction.s": s["harness.contraction"],
            "cli.self.s": s["cli"],
            "config.write_csv.s": s["config.write_csv"],
            "parallel.map.calls": n["parallel.map"],
        }
