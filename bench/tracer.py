"""Per-layer timing of statecast from outside the program.

``Tracer.install()`` replaces each public function named in ``TARGETS`` in
every statecast namespace that holds it (``simulate.build_plan`` and
``schemes.build_plan`` are the same object, and ``validate_schedule`` is
imported into five modules), and ``restore()`` puts the originals back.

A layer's self time is its wrappers' elapsed time minus the time of the
wrapped calls made inside them, so the self times of all layers add up to
the time spent inside the outermost wrapped call. The recorder handed to
``run_closed_loop`` is wrapped too: its per-step hooks are charged to
``simulate.moments`` as one aggregate, not as one span per call. Counters are
read from arguments and returned objects, e.g. ``StationaryReport.iterations``,
which the CLI's JSON output drops.

``install(solver_only=True)`` wraps only the state-estimate solver, without
timing anything, to fill ``solver_log`` at the cost of one extra Python call
per solve.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (module, public name, layer); names a statecast version lacks are skipped.
TARGETS = (
    ("model", "validate_schedule", "model.validate"),
    ("model", "validate_measurement", "model.validate"),
    ("recursions", "predict_output_fb", "recursions.predict"),
    ("recursions", "predict_noiseless_fb", "recursions.predict"),
    ("recursions", "predict_state_estimate_fb", "recursions.predict"),
    ("recursions", "predict_separation", "recursions.predict"),
    ("recursions", "separation_total", "recursions.predict"),
    ("recursions", "separation_schedule", "recursions.predict"),
    ("recursions", "kalman_prefilter", "recursions.predict"),
    ("schemes", "build_plan", "schemes.build_plan"),
    ("schemes", "run_closed_loop", "schemes.closed_loop"),
    ("simulate", "sample_gaussian_streams", "simulate.sample"),
    ("simulate", "monte_carlo", "simulate.reduce"),
    ("simulate", "exact_conditioning_oracle", "simulate.oracle"),
    ("stationarity", "solve_state_estimate_fp", "stationarity.solve"),
    ("stationarity", "check_output_fb", "stationarity.solve"),
    ("stationarity", "check_noiseless", "stationarity.solve"),
    ("cli", "parse_config", "cli.parse"),
    ("cli", "main", "cli.self"),
    ("cli", "run", "cli.self"),
    ("cli", "compare", "cli.self"),
)
HOOK_LAYER = "simulate.moments"
LAYERS = tuple(sorted({layer for _, _, layer in TARGETS} | {HOOK_LAYER}))
# Variance recursions whose per-step loop runs T - 1 times.
_RECURSIONS = ("predict_output_fb", "predict_noiseless_fb", "predict_state_estimate_fb")


class Tracer:
    """Wraps statecast's public functions and aggregates self time and counts."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.solver_log = []  # (iterations, cap_hit) per solve_state_estimate_fp call

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self.self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _hook(self, fn, is_step):
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self.self_s[HOOK_LAYER] += elapsed
                stack = self._stack()
                if stack:
                    stack[-1] += elapsed
                if is_step:
                    self.counts["schemes.steps"] += 1

        return timed

    # -- counters read from arguments and results ---------------------------

    def _count(self, name, amount=1.0):
        with self._lock:
            self.counts[name] += amount

    def _after_validate(self, args, kwargs, result):
        self._count("model.validate_calls")

    def _after_recursion(self, args, kwargs, result):
        s = args[0] if args else next(iter(kwargs.values()), None)
        self._count("recursions.steps", max(getattr(s, "T", 1) - 1, 0))

    def _after_sample(self, args, kwargs, result):
        nbytes = sum(getattr(v, "nbytes", 0) for v in vars(result).values())
        self.counts["simulate.stream_mb"] = max(self.counts["simulate.stream_mb"], nbytes / 1e6)

    def _solver_after(self, fn):
        sig = inspect.signature(fn)
        default_cap = sig.parameters.get("max_iter")

        def after(args, kwargs, report):
            iters = int(getattr(report, "iterations", 0) or 0)
            cap = None
            if default_cap is not None:
                cap = sig.bind(*args, **kwargs).arguments.get("max_iter", default_cap.default)
            hit = cap is not None and not report.bounded and iters >= cap
            self._count("stationarity.iterations", iters)
            self._count("stationarity.cap_hits", 1.0 if hit else 0.0)
            self.solver_log.append((iters, hit))

        return after

    @staticmethod
    def _log_only(fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result

        return wrapper

    def _closed_loop_wrapper(self, fn, recorder_cls):
        wrapped = self._wrap(fn, "schemes.closed_loop")
        tracer = self

        class TimedRecorder:
            """Forwards to the real recorder, timing each method call."""

            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                attr = getattr(self._inner, name)
                if callable(attr):
                    attr = tracer._hook(attr, name == "transmit")
                    setattr(self, name, attr)
                return attr

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            proxied = lambda v: TimedRecorder(v) if isinstance(v, recorder_cls) else v
            args = tuple(proxied(v) for v in args)
            kwargs = {k: proxied(v) for k, v in kwargs.items()}
            return wrapped(*args, **kwargs)

        return wrapper

    def _count_rows(self, cls):
        @functools.wraps(cls, updated=())
        def counted(*args, **kwargs):
            self._count("simulate.rows_drawn")
            return cls(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def _replacements(self, solver_only: bool) -> dict:
        """{id(original): (original, replacement)} for this statecast version."""
        mods = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
                if name.startswith("statecast.")}
        out = {}
        for mod_name, fn_name, layer in TARGETS:
            fn = getattr(mods.get(mod_name), fn_name, None)
            if fn is None or (solver_only and fn_name != "solve_state_estimate_fp"):
                continue
            if solver_only:
                repl = self._log_only(fn, self._solver_after(fn))
            elif fn_name == "run_closed_loop":
                recorder_cls = getattr(mods["schemes"], "Recorder", ())
                repl = self._closed_loop_wrapper(fn, recorder_cls)
            else:
                after = None
                if layer == "model.validate":
                    after = self._after_validate
                elif fn_name in _RECURSIONS:
                    after = self._after_recursion
                elif fn_name == "sample_gaussian_streams":
                    after = self._after_sample
                elif fn_name == "solve_state_estimate_fp":
                    after = self._solver_after(fn)
                repl = self._wrap(fn, layer, after)
            out[id(fn)] = (fn, repl)
        philox = getattr(mods.get("simulate"), "Philox", None)
        if philox is not None and not solver_only:
            out[id(philox)] = (philox, self._count_rows(philox))
        return out

    def install(self, solver_only: bool = False) -> None:
        if self._patched:
            return
        repl = self._replacements(solver_only)
        for name, mod in list(sys.modules.items()):
            if name != "statecast" and not name.startswith("statecast."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = repl.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def restore(self) -> None:
        while self._patched:
            mod, attr, value = self._patched.pop()
            setattr(mod, attr, value)

    def snapshot(self) -> dict:
        """Per-layer metrics accumulated since the last ``reset()``."""
        out = {f"{layer}_s": self.self_s[layer] for layer in LAYERS}
        for name in ("model.validate_calls", "recursions.steps", "simulate.rows_drawn",
                     "simulate.stream_mb", "stationarity.iterations", "stationarity.cap_hits"):
            out[name] = self.counts[name]
        steps = self.counts["schemes.steps"]
        out["schemes.step_us"] = 1e6 * self.self_s["schemes.closed_loop"] / steps if steps else 0.0
        out["trace.self_total_s"] = sum(self.self_s[layer] for layer in LAYERS)
        return out
