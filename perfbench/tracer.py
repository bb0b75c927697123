"""Per-layer tracing by wrapping spectroid's public functions.

``Tracer.install`` replaces each target function with a timing wrapper
in every loaded ``spectroid.*`` module that binds it (``duality``
imports ``joint_diagonalize`` and ``is_full`` by name, for example), and
``uninstall`` puts the originals back.  Wrappers are installed only for
the traced run, so untraced timings carry no tracing cost.

Each target ``<module>.<function>`` gets ``calls``, ``total_s``,
``self_s`` (total minus the time covered by wrapped callees) and
``errors`` (calls that raised).
"""

from __future__ import annotations

import functools
import sys
import time

TARGETS = {
    "numkit": ("joint_diagonalize", "hs_orthonormalize", "hs_member"),
    "cstarcat": (
        "close",
        "check_axioms",
        "is_commutative",
        "is_full",
        "validate_functor",
        "functor_image",
        "generated_by",
    ),
    "duality": ("spectrum", "sections_with_gauge", "gelfand", "evaluation"),
    "spaceoid": ("validate", "validate_morphism", "trivialize", "apply_gauge"),
    "funcalc": ("funcalc", "svd_oracle"),
    "serial": ("parse", "emit"),
}

STATS = ("calls", "self_s", "total_s", "errors")


def target_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.stats = {name: dict.fromkeys(STATS, 0) for name in target_names()}
        # Gram-Schmidt inputs offered and basis vectors kept
        self.ortho_in = 0
        self.ortho_kept = 0
        self.parse_bytes = 0
        self.emit_bytes = 0
        # time inside outermost wrapped calls
        self.covered_s = 0.0
        self._child_time = []  # one accumulator per open wrapped call
        self._patched = []  # (module, attribute, original)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "spectroid" or name.startswith("spectroid."))
        ]
        for mod_name, fns in TARGETS.items():
            home = sys.modules[f"spectroid.{mod_name}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod_name}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = len(stack)
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat["errors"] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                children = stack[depth]
                # truncate rather than pop: a deadline can interrupt an
                # inner wrapper's bookkeeping and leave its entry behind
                del stack[depth:]
                stat["calls"] += 1
                stat["total_s"] += dt
                stat["self_s"] += dt - children
                if stack:
                    stack[-1] += dt
                else:
                    self.covered_s += dt
            if name == "numkit.hs_orthonormalize":
                self.ortho_in += len(args[0])
                self.ortho_kept += result.rank
            elif name == "serial.parse":
                self.parse_bytes += len(args[1].encode())
            elif name == "serial.emit":
                self.emit_bytes += len(result.encode())
            return result

        return wrapper

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict:
        """Every per-layer metric as ``{name: (value, unit)}``."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = (stat["calls"], "count")
            out[f"{name}.self_s"] = (stat["self_s"], "s")
            out[f"{name}.total_s"] = (stat["total_s"], "s")
            out[f"{name}.errors"] = (stat["errors"], "count")
        kept = self.ortho_kept / self.ortho_in if self.ortho_in else 0.0
        out["numkit.hs_orthonormalize.kept_frac"] = (kept, "frac")
        out["serial.parse.bytes"] = (self.parse_bytes, "bytes")
        out["serial.emit.bytes"] = (self.emit_bytes, "bytes")
        out["trace.covered_frac"] = (self.covered_s / traced_wall_s, "frac")
        out["trace.overhead_frac"] = (traced_wall_s / untraced_wall_s - 1.0, "frac")
        return out
