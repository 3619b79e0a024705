"""Call tracing from outside the package: call counts, self time, extra counts.

Each traced function is replaced by a wrapper in every `degreeintervals.*`
module namespace that binds the same object, so names imported with
`from .bounds import ...` are traced as well.  Spans are aggregated as
they close instead of being stored, which keeps memory flat on passes
with hundreds of thousands of calls.

Self time is a span's duration minus the time covered by the traced
spans it encloses.  A generator function's span runs from the call to
exhaustion, but it is charged only while its own frame executes: time
the consumer spends between items belongs to the consumer.
"""

import functools
import inspect
import sys
import time


class Stat:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = 0


class Tracer:
    """Aggregating span tracer; `clock` is replaceable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self._stack = []  # one entry per open span: [start, child seconds]

    def _enter(self):
        frame = [self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, stat, frame):
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("trace spans closed out of order")
        duration = self.clock() - frame[0]
        stat.self_s += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, name, fn, count=None):
        """Traced stand-in for `fn`, recorded under `name`.

        `count(args, kwargs, value)` returns how much to add to the
        function's extra counter; `value` is the return value, or each
        yielded item for a generator function.
        """
        stat = self.stats.setdefault(name, Stat())

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                stat.calls += 1
                frame = self._enter()
                try:
                    it = fn(*args, **kwargs)
                finally:
                    self._leave(stat, frame)
                try:
                    while True:
                        frame = self._enter()
                        try:
                            item = next(it)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            self._leave(stat, frame)
                        if count is not None:
                            stat.extra += count(args, kwargs, item)
                        yield item
                finally:
                    it.close()
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.calls += 1
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(stat, frame)
            if count is not None:
                stat.extra += count(args, kwargs, result)
            return result
        return traced


def install(tracer, targets, package="degreeintervals"):
    """Wrap each `(module, function, count)` target of the imported package.

    The wrapper replaces the function by identity wherever a module of
    the package binds it.  Returns the `module.function` names that no
    longer exist, so a renamed function shows up as a missing metric.
    """
    modules = [mod for name, mod in list(sys.modules.items())
               if mod is not None and (name == package or name.startswith(package + "."))]
    missing = []
    for module_name, fn_name, count in targets:
        name = f"{module_name}.{fn_name}"
        owner = sys.modules.get(f"{package}.{module_name}")
        fn = getattr(owner, fn_name, None)
        if not callable(fn):
            missing.append(name)
            continue
        wrapper = tracer.wrap(name, fn, count)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
    return missing
