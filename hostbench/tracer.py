"""Per-layer host-time attribution for the traced benchmark run.

:func:`install` wraps, in place, the public functions and methods of every
``repro`` module with a timer that keeps a call stack of layers.  Each
layer's *self* time is its inclusive time minus the time of the wrapped
calls nested inside it, so the self times of all layers (plus the
unattributed root) add up to the traced wall time.  Per-call spans would
cost too much at ~10^6 layer calls per run, so only per-layer aggregates
are kept: call count, inclusive time and self time.

Every wrapper adds its own cost to the self time of the two layers it
sits between, so a layer's raw self time grows with its call count.
:func:`install` therefore first measures what one wrapper event costs
(:func:`calibrate`), the tracer counts the events each layer took part
in, and :meth:`Tracer.wrapper_s` weighs each layer's events by those
costs.  The benchmark spreads the tracer's measured cost (traced minus
untraced wall) over the layers in proportion to these weights, and
subtracts each layer's share from its self time.

Generator bodies run when the engine resumes them, not when they are
created.  Generator functions therefore get a forwarding generator that
times every resume, and every generator started as a simulator process
is wrapped the same way, attributed to the layer of the module that
defined it — so application closures count as ``app``, not as engine
time.

Hot objects cache bound methods at construction (``self.resume =
self._resume``), so :func:`install` must run before a workload builds its
stack.  It never uninstalls: traced repetitions run in a process of their
own.
"""

import functools
import gc
import importlib
import inspect
import pkgutil
import statistics
import sys
import time
import types

ROOT = "unattributed"

#: layer -> module prefixes; the longest matching prefix wins, and any
#: other ``repro`` module belongs to ``app`` (bench harness, apps, faults,
#: obs).
LAYER_MODULES = {
    "app": ("repro",),
    "simnet": ("repro.simnet",),
    "core.session": (
        "repro.core.session", "repro.core.api", "repro.core.channel",
        "repro.core.window", "repro.core.qos", "repro.core.outcomes",
        "repro.core.security", "repro.core.config", "repro.core.errors",
    ),
    "core.runtime": (
        "repro.core", "repro.core.runtime", "repro.core.scheduler",
        "repro.core.polling", "repro.core.ipc", "repro.core.control",
        "repro.core.metrics",
    ),
    "core.memory": ("repro.core.memory",),
    "datapaths": ("repro.datapaths",),
    "netstack": ("repro.netstack",),
    "hw": ("repro.hw",),
    "scenario": ("repro.scenario",),
    "scenario.slo": ("repro.scenario.slo",),
    "loadgen": ("repro.loadgen",),
    "baselines": ("repro.baselines",),
    "fluid": ("repro.fluid",),
    "validate": ("repro.validate",),
    "dist": ("repro.dist",),
}

#: single functions that form a layer of their own inside their module
#: (``compile.py`` also holds the per-kind scenario runs, which are run
#: time).
LAYER_FUNCTIONS = {
    ("repro.scenario.compile", "compile_scenario"): "scenario.compile",
    ("repro.scenario.compile", "CompiledScenario.__init__"):
        "scenario.compile",
}

LAYERS = (ROOT,) + tuple(LAYER_MODULES) + ("scenario.compile",)

#: modules never imported by :func:`install` (importing runs a CLI).
_SKIP_SUFFIX = ".__main__"

#: dunder methods worth timing; the rest (``__lt__``, ``__len__``,
#: ``__repr__``...) would add cost without attributing meaningful work.
_TIMED_DUNDERS = ("__init__", "__call__")


def layer_of(module):
    """The layer a module belongs to, or None outside ``repro``."""
    best, best_len = None, -1
    for layer, prefixes in LAYER_MODULES.items():
        for prefix in prefixes:
            if (module == prefix or module.startswith(prefix + ".")) \
                    and len(prefix) > best_len:
                best, best_len = layer, len(prefix)
    return best


class Tracer:
    """Call-stack timers and per-layer aggregates for one process."""

    def __init__(self):
        count = len(LAYERS)
        self.index = {name: i for i, name in enumerate(LAYERS)}
        #: calls into each layer, generator creations included
        self.calls = [0] * count
        #: the generator creations among ``calls`` (they are not timed)
        self.gens = [0] * count
        #: generator resumes timed in each layer
        self.resumes = [0] * count
        #: timed calls, resumes and generator creations each layer made
        self.made_calls = [0] * count
        self.made_resumes = [0] * count
        self.made_gens = [0] * count
        self.self_s = [0.0] * count
        self.incl_s = [0.0] * count
        self.depth = [0] * count
        self.stack = [0]
        self.mark = [time.perf_counter()]
        #: ``(class key, object)`` for every registered object built since
        #: the benchmark last read their counters
        self.instances = []
        self.wrapped = {}
        #: seconds one wrapper event adds (see :func:`calibrate`)
        self.costs = None

    # -- accounting --------------------------------------------------------

    def flush(self):
        """Charge the time since the last boundary to the current layer.

        Called only from the benchmark's own code, i.e. at the root.
        """
        now = time.perf_counter()
        self.self_s[self.stack[-1]] += now - self.mark[0]
        self.mark[0] = now

    def wrapper_s(self):
        """Each layer's weight in the tracer's cost: the wrapper events it
        took part in, times their calibrated costs, in seconds."""
        cost = self.costs
        return [
            (self.calls[i] - self.gens[i]) * cost["call_in"]
            + self.made_calls[i] * cost["call_out"]
            + self.resumes[i] * cost["resume_in"]
            + self.made_resumes[i] * cost["resume_out"]
            + self.made_gens[i] * cost["gen_out"]
            for i in range(len(LAYERS))
        ]

    def snapshot(self):
        self.flush()
        return (list(self.self_s), list(self.incl_s), list(self.calls),
                self.wrapper_s())

    # -- wrappers ----------------------------------------------------------

    def wrap_call(self, fn, idx, register=None):
        calls, made, self_s, incl_s = self.calls, self.made_calls, \
            self.self_s, self.incl_s
        depth, stack, mark = self.depth, self.stack, self.mark
        clock, instances = time.perf_counter, self.instances

        def traced(*args, **kwargs):
            now = clock()
            parent = stack[-1]
            self_s[parent] += now - mark[0]
            made[parent] += 1
            stack.append(idx)
            calls[idx] += 1
            outer = depth[idx]
            depth[idx] = outer + 1
            mark[0] = now
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self_s[idx] += end - mark[0]
                stack.pop()
                depth[idx] = outer
                if not outer:
                    incl_s[idx] += end - now
                mark[0] = end
            if register is not None:
                instances.append((register, args[0]))
            return result

        return functools.update_wrapper(traced, fn)

    def drive(self, gen, idx):
        """A generator that forwards to ``gen``, timing every resume."""
        self_s, incl_s, depth = self.self_s, self.incl_s, self.depth
        resumes, made = self.resumes, self.made_resumes
        stack, mark, clock = self.stack, self.mark, time.perf_counter
        send, throw = gen.send, gen.throw
        value = error = None
        while True:
            now = clock()
            parent = stack[-1]
            self_s[parent] += now - mark[0]
            made[parent] += 1
            resumes[idx] += 1
            stack.append(idx)
            outer = depth[idx]
            depth[idx] = outer + 1
            mark[0] = now
            try:
                effect = send(value) if error is None else throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                end = clock()
                self_s[idx] += end - mark[0]
                stack.pop()
                depth[idx] = outer
                if not outer:
                    incl_s[idx] += end - now
                mark[0] = end
            error = None
            try:
                value = yield effect
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # re-raised inside ``gen``
                value, error = None, exc

    def wrap_generator(self, fn, idx):
        calls, gens, made = self.calls, self.gens, self.made_gens
        stack, drive = self.stack, self.drive

        def traced(*args, **kwargs):
            calls[idx] += 1
            gens[idx] += 1
            made[stack[-1]] += 1
            gen = fn(*args, **kwargs)
            forward = drive(gen, idx)
            forward.__name__ = gen.__name__
            forward.__qualname__ = gen.__qualname__
            return forward

        return functools.update_wrapper(traced, fn)

    def wrap_process_init(self, init):
        """``Process.__init__``: attribute the process body to its module."""
        drive, index, drive_code = self.drive, self.index, \
            Tracer.drive.__code__

        def traced_init(process, sim, generator, name=None):
            frame = getattr(generator, "gi_frame", None)
            if frame is not None and generator.gi_code is not drive_code:
                layer = layer_of(frame.f_globals.get("__name__", "")) or "app"
                forward = drive(generator, index[layer])
                forward.__name__ = generator.__name__
                forward.__qualname__ = generator.__qualname__
                generator = forward
            return init(process, sim, generator, name)

        return functools.update_wrapper(traced_init, init)

    def wrap(self, fn, layer, register=None):
        """The traced stand-in for ``fn`` (one per function object)."""
        key = id(fn)
        if key in self.wrapped:
            return self.wrapped[key][1]
        idx = self.index[layer]
        if fn.__code__.co_flags & inspect.CO_GENERATOR:
            traced = self.wrap_generator(fn, idx)
        else:
            traced = self.wrap_call(fn, idx, register=register)
        self.wrapped[key] = (fn, traced)
        return traced


class _Probe:
    def method(self, value):
        return value


def _method_loop(obj, n):
    for i in range(n):
        obj.method(i)


def _ticker():
    while True:
        yield


def _call_loop(fn, n):
    for _ in range(n):
        fn()


def _send_loop(send, n):
    for _ in range(n):
        send(None)


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _wrapper_costs(n):
    """Seconds per wrapper event, from one probe of each kind.

    Each probe times ``n`` events against the same loop unwrapped: a
    one-argument method call, a generator resume, a generator creation.
    The difference is the event's whole cost.  The callee layer's share is
    its measured self time per event less the unwrapped per-event time
    (the empty body's own call, which the program would pay anyway); the
    caller layer pays the rest.
    """
    probe = Tracer()
    outer, inner = probe.index["app"], probe.index["simnet"]
    costs = {}

    traced = type("_TracedProbe", (_Probe,), {
        "method": probe.wrap_call(_Probe.method, inner)})
    plain = _timed(_method_loop, _Probe(), n)
    wrapped = _timed(probe.wrap_call(_method_loop, outer), traced(), n)
    callee = max(0.0, (probe.self_s[inner] - plain) / n)
    costs["call_in"] = callee
    costs["call_out"] = max(0.0, (wrapped - plain) / n - callee)

    gen = _ticker()
    next(gen)
    plain = _timed(_send_loop, gen.send, n)
    forward = probe.drive(_ticker(), inner)
    next(forward)
    before = probe.self_s[inner]
    wrapped = _timed(probe.wrap_call(_send_loop, outer), forward.send, n)
    callee = max(0.0, (probe.self_s[inner] - before - plain) / n)
    costs["resume_in"] = callee
    costs["resume_out"] = max(0.0, (wrapped - plain) / n - callee)

    plain = _timed(_call_loop, _ticker, n)
    wrapped = _timed(probe.wrap_call(_call_loop, outer),
                     probe.wrap_generator(_ticker, inner), n)
    costs["gen_out"] = max(0.0, (wrapped - plain) / n)
    return costs


def calibrate(rounds=9, n=20_000):
    """Seconds one wrapper event adds, by event kind and by the layer that
    pays: the callee (``*_in``) or the caller (``*_out``).

    Each cost is the median over ``rounds`` probes.  Only their ratios
    are used: they weigh each layer's share of the tracer cost that the
    benchmark measures (see :meth:`Tracer.wrapper_s`).
    """
    samples = {}
    for _ in range(rounds):
        for kind, cost in _wrapper_costs(n).items():
            samples.setdefault(kind, []).append(cost)
    return {kind: statistics.median(costs)
            for kind, costs in samples.items()}


def _repro_modules():
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(_SKIP_SUFFIX):
            importlib.import_module(info.name)
    return sorted(
        (name, module) for name, module in sys.modules.items()
        if (name == "repro" or name.startswith("repro."))
        and isinstance(module, types.ModuleType)
    )


def install(registered=()):
    """Wrap every ``repro`` function and method; returns the Tracer.

    ``registered`` names classes (``"module:Class"``) whose instances are
    collected in ``tracer.instances`` as ``(name, object)`` when their
    ``__init__`` returns, so their counters can be read when a cell ends.
    """
    tracer = Tracer()
    tracer.costs = calibrate()
    modules = _repro_modules()
    registered = set(registered)
    for modname, module in modules:
        layer = layer_of(modname)
        for name, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) \
                    and value.__module__ == modname:
                fn_layer = LAYER_FUNCTIONS.get((modname, name), layer)
                setattr(module, name, tracer.wrap(value, fn_layer))
            elif isinstance(value, type) and value.__module__ == modname \
                    and value.__qualname__ == name:
                key = "%s:%s" % (modname, name)
                _wrap_class(tracer, value, modname, layer,
                            key if key in registered else None)
    # re-point names other modules imported with ``from x import f``
    for _modname, module in modules:
        for name, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType):
                entry = tracer.wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])
    from repro.simnet.process import Process

    Process.__init__ = tracer.wrap_process_init(Process.__init__)
    tracer.mark[0] = time.perf_counter()
    return tracer


def _wrap_class(tracer, cls, modname, layer, register):
    import enum

    if issubclass(cls, enum.Enum):
        return
    for name, value in list(vars(cls).items()):
        if name.startswith("__") and name not in _TIMED_DUNDERS:
            continue
        fn_layer = LAYER_FUNCTIONS.get(
            (modname, "%s.%s" % (cls.__qualname__, name)), layer)
        if isinstance(value, types.FunctionType):
            setattr(cls, name, tracer.wrap(
                value, fn_layer,
                register=register if name == "__init__" else None))
        elif isinstance(value, (staticmethod, classmethod)) \
                and isinstance(value.__func__, types.FunctionType):
            setattr(cls, name,
                    type(value)(tracer.wrap(value.__func__, fn_layer)))


def live_objects(classes):
    """Instances of each class alive after a full collection."""
    gc.collect()
    counts = [0] * len(classes)
    for obj in gc.get_objects():
        for i, cls in enumerate(classes):
            if isinstance(obj, cls):
                counts[i] += 1
    return counts
