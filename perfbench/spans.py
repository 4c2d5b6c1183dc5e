"""Layer spans recorded from outside the program.

Tracer.install() replaces each named library function with a timing wrapper
in every squarewalls module namespace that binds it, so calls between
layers (enumeration -> fulfill.fulfill_search, walls -> bfs_geodesic,
cli -> the library) are seen where they are looked up. Spans aggregate in
memory: per span name the calls, the inclusive seconds and the seconds
covered by child spans (self time = inclusive - child). A call made while a
span of the same name is open (recursion, make_fixture -> z2_ball) is not
counted twice. uninstall() puts the original functions back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, package: str, targets):
        """targets: (module, attribute, span name, counter) with module a
        dotted name under package, attribute a function or "Class.method",
        and counter None or f(tracer, args, kwargs, result)."""
        self.package = package
        self.targets = targets
        self.calls: dict = defaultdict(int)
        self.seconds: dict = defaultdict(float)
        self.child_seconds: dict = defaultdict(float)
        self.under: dict = defaultdict(int)  # (span, parent span) -> calls
        self.counts: dict = defaultdict(float)
        self._stack: list = []
        self._open: set = set()
        self._patched: list = []

    def reset(self) -> None:
        for d in (self.calls, self.seconds, self.child_seconds, self.under, self.counts):
            d.clear()

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "seconds": dict(self.seconds),
                "child_seconds": dict(self.child_seconds),
                "under": dict(self.under), "counts": dict(self.counts)}

    def _wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            if name in tracer._open:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer._open.add(name)
            frame = [name, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer._open.discard(name)
                tracer.calls[name] += 1
                tracer.seconds[name] += dt
                tracer.child_seconds[name] += frame[1]
                tracer.under[(name, parent)] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += dt
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == self.package
                                         or n.startswith(self.package + "."))]
        for modname, attr, name, counter in self.targets:
            owner = sys.modules[f"{self.package}.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(fn, name, counter))
                self._patched.append((cls, meth, fn))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(fn, name, counter)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, fn))

    def uninstall(self) -> None:
        for obj, key, fn in reversed(self._patched):
            setattr(obj, key, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
