"""Per-function spans around calls into the sdoflab modules, installed from outside.

`Tracer.install` replaces every public function of the traced modules with
a wrapper, both in the module that defines it and in every sdoflab module
that imported it by name (``rates.build_precoder_set`` is the same function
as ``precoders.build_precoder_set``).  Calls made inside a module go through
its globals, so they are traced too; private helpers are not wrapped and
their time counts as self time of the public function that called them.

Each wrapper keeps the caller's span on a stack, so a function's self time
is its duration minus the time covered by the traced calls it made.
`Tracer.uninstall` puts the original functions back.
"""

import functools
import inspect
import sys
import time

MODULES = ("cli", "regions", "model", "precoders", "rates", "matlin", "binning")

# Called about 100k times per pass on the simulation workloads; timing it
# would add more overhead to its callers than the function itself costs.
COUNT_ONLY = frozenset({"matlin.as_matrix"})


class Stat:
    """Totals for one traced function."""

    __slots__ = ("calls", "total_s", "self_s", "raised", "flagged", "work",
                 "active")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0   # inclusive; nested calls to itself counted once
        self.self_s = 0.0
        self.raised = 0      # calls that ended in an exception
        self.flagged = 0     # calls whose result the observer marked as failed
        self.work = 0        # work units the observer counted from the arguments
        self.active = 0


def _geometry_failed(stat, args, kwargs, result):
    if not getattr(result, "passed", True):
        stat.flagged += 1


def _nonzero_exit(stat, args, kwargs, result):
    if result != 0:
        stat.flagged += 1


def _word_patterns(stat, args, kwargs, result):
    # Erasure patterns times codewords: the size of the enumeration.
    code = args[0] if args else kwargs.get("code")
    n = getattr(code, "n", None)
    bins = getattr(code, "bins", None)
    if n is not None and bins is not None:
        stat.work += (1 << n) * bins.size


OBSERVERS = {
    "precoders.verify_geometry": _geometry_failed,
    "cli.main": _nonzero_exit,
    "binning.equivocation_exact": _word_patterns,
}


class Tracer:
    """Wraps the public functions of the sdoflab modules while installed."""

    def __init__(self, package="sdoflab"):
        self.package = package
        self.stats = {}
        self._stack = []
        self._restore = []

    def _public_functions(self):
        for short in MODULES:
            mod = sys.modules.get(f"{self.package}.{short}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    yield f"{short}.{name}", obj

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for key, func in self._public_functions():
            stat = self.stats.setdefault(key, Stat())
            wrappers[id(func)] = (func, self._wrap(key, func, stat))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package
                                   or mod_name.startswith(self.package + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._restore.append((mod, name, obj))

    def uninstall(self):
        for mod, name, obj in self._restore:
            setattr(mod, name, obj)
        self._restore = []
        self._stack.clear()

    def _wrap(self, key, func, stat):
        if key in COUNT_ONLY or inspect.isgeneratorfunction(func):
            # A generator's body runs after the call returns, so only count.
            @functools.wraps(func)
            def counted(*args, **kwargs):
                stat.calls += 1
                return func(*args, **kwargs)
            return counted

        observe = OBSERVERS.get(key)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stat.calls += 1
            stat.active += 1
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                duration = clock() - start
                children = stack.pop()
                stat.self_s += duration - children
                stat.active -= 1
                if stat.active == 0:
                    stat.total_s += duration
                if stack:
                    stack[-1] += duration
            if observe is not None:
                observe(stat, args, kwargs, result)
            return result
        return traced

    def module_self_s(self, module):
        prefix = module + "."
        return sum(s.self_s for k, s in self.stats.items() if k.startswith(prefix))

    def total_self_s(self):
        return sum(s.self_s for s in self.stats.values())
