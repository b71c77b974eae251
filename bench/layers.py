"""Per-layer tracing of the sfom modules, installed from outside the package.

Each module of ``src/sfom`` is one layer.  ``LayerTrace.install`` replaces
every function the package binds (module functions wherever a module imports
them, and the methods of the classes a layer defines) with a wrapper that

* counts every call under ``<layer>.<qualname>``;
* opens a span when the caller is in another layer (or outside the package),
  so that a layer's self time is its span time minus its child spans;
* for the few functions listed in ``TIMED``, adds the time of the outermost
  activation to a named timer, also for calls from inside the same layer;
* runs a hook for the counts that need an argument or a result.

A call from inside the same layer counts toward that function but opens no
span.  ``uninstall`` puts every original binding back.  Nothing under
``src/`` is edited.
"""

from __future__ import annotations

import functools
import time
import types
from collections import Counter, defaultdict

LAYERS = ("cli", "basis", "sfom", "omprime", "sftypes", "artinalg",
          "intarith", "validate")

# timer name -> functions whose outermost activation it times
TIMED = {
    "artinalg.zpow.s": ("artinalg.AlgebraTower.zpow",),
    "omprime.om_prime.s": ("omprime.om_prime",),
    "basis.n_integral_basis.s": ("basis.n_integral_basis",),
    "basis.hnf.s": ("basis.hnf_rows", "basis._merge_row_groups"),
    "intarith.discriminant.s": ("intarith.discriminant",),
    "intarith.resultant.s": ("intarith.resultant",),
    "intarith.coprime_splitting.s": ("intarith.coprime_splitting",),
    "intarith.perfect_power.s": ("intarith.perfect_power",),
    "validate.charpoly_is_integral.s": ("validate.charpoly_is_integral",),
    "validate.p_maximal.s": ("validate.p_maximal",),
    "validate.order_discriminant.s": ("validate.order_discriminant",),
    "validate.ring_closed.s": ("validate.ring_closed",),
    "validate.project_check.s": ("validate.project_check",),
    "cli.detect_reducible.s": ("cli.detect_reducible",),
}


class LayerTrace:
    """Counts, timers and layer self times for one traced process."""

    def __init__(self, package: types.ModuleType, modules: dict):
        self.package = package
        self.modules = modules  # layer name -> module object
        self.clock = time.perf_counter
        self._saved: list = []
        self._timer_of = {fn: name for name, fns in TIMED.items()
                          for fn in fns}
        self._hooks = {
            "basis.global_basis": self._on_global_basis,
            "basis.hnf_rows": self._on_hnf_rows,
            "basis._merge_row_groups": self._on_merge,
            "sfom._drive": self._on_drive,
            "sftypes.expand": self._on_expand,
            "artinalg.AlgebraTower.extend": self._on_extend,
            "intarith.discriminant": self._on_discriminant,
            "intarith.int_sfd": self._on_int_sfd,
        }
        self.calls: Counter = Counter()  # wrappers hold this very object
        self.timers: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.values: defaultdict = defaultdict(int)  # hook sums and maxima
        self._depth: Counter = Counter()
        self.reset()

    # -- state -----------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (between passes)."""
        for table in (self.calls, self.timers, self.self_s, self.values,
                      self._depth):
            table.clear()
        # frames are [layer, child seconds]; the bottom one is outside sfom
        self._stack: list = [[None, 0.0]]
        self._expanded: set = set()

    def begin_input(self) -> None:
        """Mark the start of a new workload input (scope of repeat ratios)."""
        self._expanded = set()

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        wrappers: dict = {}
        layer_of = {mod.__name__: name for name, mod in self.modules.items()}

        def wrapped(fn, qualname, layer):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn, layer, f"{layer}.{qualname}")
            return wrappers[fn]

        for owner in (self.package, *self.modules.values()):
            for name, obj in list(vars(owner).items()):
                if (isinstance(obj, types.FunctionType)
                        and obj.__module__ in layer_of):
                    self._rebind(owner, name, wrapped(
                        obj, obj.__qualname__, layer_of[obj.__module__]))
        for layer, mod in self.modules.items():
            for cls in list(vars(mod).values()):
                if not (isinstance(cls, type) and cls.__module__ == mod.__name__):
                    continue
                for name, attr in list(vars(cls).items()):
                    if name.startswith("__"):
                        continue
                    if isinstance(attr, types.FunctionType):
                        self._rebind(cls, name,
                                     wrapped(attr, attr.__qualname__, layer))
                    elif isinstance(attr, (classmethod, staticmethod)):
                        fn = attr.__func__
                        self._rebind(cls, name, type(attr)(
                            wrapped(fn, fn.__qualname__, layer)))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved = []

    def _rebind(self, owner, name, new) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    # -- the wrapper ---------------------------------------------------------------

    def _wrap(self, fn, layer: str, key: str):
        calls = self.calls
        timer = self._timer_of.get(key)
        hook = self._hooks.get(key)
        clock = self.clock
        trace = self

        if timer is None and hook is None:
            def wrapper(*args, **kwargs):
                calls[key] += 1
                stack = trace._stack
                if stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                frame = [layer, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    trace._close(frame, clock() - t0)
        else:
            def wrapper(*args, **kwargs):
                calls[key] += 1
                stack = trace._stack
                span = stack[-1][0] != layer
                if span:
                    frame = [layer, 0.0]
                    stack.append(frame)
                depth = trace._depth
                outer = timer is not None and depth[timer] == 0
                if outer:
                    depth[timer] += 1
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    if outer:
                        depth[timer] -= 1
                        trace.timers[timer] += dt
                    if span:
                        trace._close(frame, dt)
                if hook is not None:
                    hook(args, result)
                return result

        return functools.update_wrapper(wrapper, fn)

    def _close(self, frame, duration: float) -> None:
        stack = self._stack
        stack.pop()
        self.self_s[frame[0]] += duration - frame[1]
        stack[-1][1] += duration

    # -- metrics -------------------------------------------------------------------

    def metrics(self, traced_wall: float) -> dict:
        """name -> (value, unit) for everything recorded since `reset`.

        `traced_wall` is the harness's own time for the traced calls; the
        part of it no layer span covers is `trace.unattributed_ratio`.
        ``trace.overhead_ratio`` needs an untraced pass and is added by the
        caller.
        """
        c, v = self.calls, self.values

        def ratio(num, den):
            return num / den if den else 0.0

        def count(key):
            return (c[key], "count")

        tower = "artinalg.AlgebraTower."
        nodes = c["sftypes.make_root"] + c["sftypes.make_child"]
        m = {
            "artinalg.self_s": (self.self_s["artinalg"], "s"),
            "artinalg.e_mul.calls": count(tower + "e_mul"),
            "artinalg.p_mul.calls": count(tower + "p_mul"),
            "artinalg.p_divmod_monic.calls": count(tower + "p_divmod_monic"),
            "artinalg.e_invert.calls": count(tower + "e_invert"),
            "artinalg.p_xgcd.calls": count(tower + "p_xgcd"),
            "artinalg.p_sfd.calls": count(tower + "p_sfd"),
            "artinalg.zpow.calls": count(tower + "zpow"),
            "artinalg.zpow.s": (self.timers["artinalg.zpow.s"], "s"),
            "artinalg.max_level": (v["artinalg.max_level"], "level"),
            "artinalg.factor_events": count(tower + "factor_event"),
            "sftypes.self_s": (self.self_s["sftypes"], "s"),
            "sftypes.analyze.calls": count("sftypes.analyze"),
            "sftypes.expand.calls": count("sftypes.expand"),
            "sftypes.expand.repeat_ratio": (
                ratio(v["sftypes.expand.repeats"], c["sftypes.expand"]),
                "ratio"),
            "sftypes.newton.calls": count("sftypes.newton"),
            "sftypes.residual_of.calls": count("sftypes.residual_of"),
            "sftypes.representative.calls": count("sftypes.representative"),
            "sfom.self_s": (self.self_s["sfom"], "s"),
            "sfom.runs": count("sfom._drive"),
            "sfom.n_factor_ratio": (
                ratio(v["sfom.n_factor_runs"], c["sfom._drive"]), "ratio"),
            "sfom.nodes": (nodes, "count"),
            "sfom.leaf_ratio": (ratio(v["sfom.leaves"], nodes), "ratio"),
            "omprime.self_s": (self.self_s["omprime"], "s"),
            "omprime.om_prime.calls": count("omprime.om_prime"),
            "omprime.om_prime.s": (self.timers["omprime.om_prime.s"], "s"),
            "omprime.ff_factor.calls": count("omprime.ff_factor"),
            "basis.self_s": (self.self_s["basis"], "s"),
            "basis.n_integral_basis.s": (
                self.timers["basis.n_integral_basis.s"], "s"),
            "basis.terminal_basis.calls": count("basis.terminal_basis"),
            "basis.moduli_per_input": (
                ratio(v["basis.moduli"], c["basis.global_basis"]), "ratio"),
            "basis.hnf.s": (self.timers["basis.hnf.s"], "s"),
            "basis.hnf.rows_in": (v["basis.hnf.rows_in"], "count"),
            "basis.merge.den_bits": (v["basis.merge.den_bits"], "bits"),
            "intarith.self_s": (self.self_s["intarith"], "s"),
            "intarith.discriminant.calls": count("intarith.discriminant"),
            "intarith.discriminant.s": (
                self.timers["intarith.discriminant.s"], "s"),
            "intarith.disc_bits.max": (v["intarith.disc_bits.max"], "bits"),
            "intarith.resultant.s": (self.timers["intarith.resultant.s"], "s"),
            "intarith.coprime_splitting.s": (
                self.timers["intarith.coprime_splitting.s"], "s"),
            "intarith.perfect_power.calls": count("intarith.perfect_power"),
            "intarith.perfect_power.s": (
                self.timers["intarith.perfect_power.s"], "s"),
            "intarith.int_sfd.calls": count("intarith.int_sfd"),
            "intarith.int_sfd.split_ratio": (
                ratio(v["intarith.int_sfd.splits"], c["intarith.int_sfd"]),
                "ratio"),
            "validate.self_s": (self.self_s["validate"], "s"),
        }
        for name in ("charpoly_is_integral", "p_maximal", "order_discriminant",
                     "ring_closed", "project_check"):
            key = f"validate.{name}.s"
            m[key] = (self.timers[key], "s")
        m["cli.self_s"] = (self.self_s["cli"], "s")
        m["cli.detect_reducible.s"] = (self.timers["cli.detect_reducible.s"],
                                       "s")
        covered = sum(self.self_s.values())
        m["trace.unattributed_ratio"] = (
            ratio(traced_wall - covered, traced_wall), "ratio")
        return m

    # -- hooks: counts that need an argument or a result ----------------------

    def _on_global_basis(self, args, result) -> None:
        self.values["basis.moduli"] += len(result.moduli)

    def _on_hnf_rows(self, args, result) -> None:
        self.values["basis.hnf.rows_in"] += len(args[0])

    def _on_merge(self, args, result) -> None:
        bits = result.den.bit_length()
        v = self.values
        v["basis.merge.den_bits"] = max(v["basis.merge.den_bits"], bits)

    def _on_drive(self, args, result) -> None:
        if result.n_factor is not None:
            self.values["sfom.n_factor_runs"] += 1
        else:
            self.values["sfom.leaves"] += len(result.rep.leaves)

    def _on_expand(self, args, result) -> None:
        pair = (tuple(args[0]), tuple(args[1]))
        if pair in self._expanded:
            self.values["sftypes.expand.repeats"] += 1
        else:
            self._expanded.add(pair)

    def _on_extend(self, args, result) -> None:
        v = self.values
        v["artinalg.max_level"] = max(v["artinalg.max_level"],
                                      result.levels())

    def _on_discriminant(self, args, result) -> None:
        v = self.values
        v["intarith.disc_bits.max"] = max(v["intarith.disc_bits.max"],
                                          abs(result).bit_length())

    def _on_int_sfd(self, args, result) -> None:
        if result != [(args[0], 1)]:
            self.values["intarith.int_sfd.splits"] += 1
