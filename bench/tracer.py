"""In-memory call tracer for the goppa_orbits layers.

The layers are the package's modules. `Tracer.install()` replaces every
public function and public method of each module with a timing wrapper, at
every binding a caller looks up: the module attribute itself and each
by-name import of it (`cli` imports `make_tower`, `codes` imports
`apply_map`, `counting` imports `solve_affine_linearized`, ...). Methods are
replaced on their class, so `ctx.mul(...)` and `self.apply_tables(...)` reach
the wrapper; staticmethods stay staticmethods. `uninstall()` puts every
original back.

Per wrapped function the tracer keeps the call count, inclusive seconds and
self seconds (inclusive minus the time spent in wrapped callees). A module's
self time is the sum over its functions, so time in private helpers, in
numpy and in the unwrapped arithmetic below counts toward the wrapped
function that called it. Not wrapped, because they are cheaper than the
wrapper: `gf2poly.degree`, `mul`, `mod`, `divmod_poly` and `gcd`, which run
inside every `Tower.mul`; their time counts toward `gf2tower`. Generator
functions are not wrapped either (no command path calls one). No public
function recurses into itself, so inclusive times do not double count.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "schema", "counting", "mobius", "codes", "gf2tower", "gf2poly")
UNWRAPPED = {"gf2poly": {"degree", "mul", "mod", "divmod_poly", "gcd"}}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.module_of: dict[str, str] = {}
        self.elems = 0  # elements passed through gf2tower.apply_tables
        self.bytes_computed = 0  # elems * (16 + 8 * tables): read, lookups, write
        self._stack: list[float] = []  # wrapped-callee seconds per open frame
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _count_elements(self, tables, x) -> None:
        self.elems += x.size
        self.bytes_computed += x.size * (16 + 8 * len(tables))

    def _wrap(self, name: str, fn):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        before = self._count_elements if name == "gf2tower.apply_tables" else None

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[0] += 1
                st[1] += dt
                st[2] += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        return functools.wraps(fn)(wrapper)

    def _targets(self):
        """(layer, name, owner, attribute, original) for every public callable."""
        for layer in LAYERS:
            mod = sys.modules[f"goppa_orbits.{layer}"]
            skip = UNWRAPPED.get(layer, set())
            for attr, value in vars(mod).items():
                if attr.startswith("_") or attr in skip:
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    if not inspect.isgeneratorfunction(value):
                        yield layer, f"{layer}.{attr}", mod, attr, value
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    for mattr, raw in vars(value).items():
                        if mattr.startswith("_"):
                            continue
                        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                        if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                            yield layer, f"{layer}.{mattr}", value, mattr, raw

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sys.modules.items()
                   if k == "goppa_orbits" or k.startswith("goppa_orbits.")]
        seen: set[str] = set()
        for layer, name, owner, attr, original in list(self._targets()):
            if name in seen:
                raise RuntimeError(f"two callables trace as {name}")
            seen.add(name)
            self.module_of[name] = layer
            if isinstance(original, staticmethod):
                replacement = staticmethod(self._wrap(name, original.__func__))
            else:
                replacement = self._wrap(name, original)
            if inspect.isclass(owner):
                self._patch(owner, attr, original, replacement)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, replacement)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ reading

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def seconds(self, name: str) -> float:
        return self.stats[name][1]

    def self_seconds(self, layer: str) -> float:
        return sum(st[2] for name, st in self.stats.items()
                   if self.module_of[name] == layer)
