"""Outside-in tracer for flagmn.

The tracer never edits the package.  ``Tracer.install`` rebinds each named
public function in every ``flagmn`` module that imported it (and replaces
``Permutation.__init__`` / ``QElement.__init__``) with a thin wrapper; the
originals come back on ``uninstall``.

Each query or check is one top-level span with an id, kept in memory.  The
hot inner calls (millions of ``act`` calls on the release gate) are not kept
as spans: each wrapper folds its call into a per-function aggregate of call
count, inclusive time and self time, where self time is the call's duration
minus the time its traced children took.  When a top-level span closes, the
aggregates it grew are added to its group (a route or a check name), so the
trace file can say which query kind or check did the work.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute, kind).  kind "items" also counts the length of the
# returned list or expansion, "nonzero" counts non-None results, "latency"
# keeps every call's duration so percentiles can be taken.
TRACED = (
    ("perm", "Permutation.__init__", "plain"),
    ("qbruhat", "QElement.__init__", "plain"),
    ("kbruhat", "up_covers", "items"),
    ("kbruhat", "leq_k", "plain"),
    ("kbruhat", "bruhat_leq", "plain"),
    ("kbruhat", "find_witness", "plain"),
    ("kbruhat", "interval", "plain"),
    ("qbruhat", "q_up_covers", "items"),
    ("qbruhat", "q_interval", "plain"),
    ("operators", "act", "nonzero"),
    ("operators", "rc_decompose", "plain"),
    ("operators", "is_zero_word", "plain"),
    ("operators", "equivalent_words", "plain"),
    ("schubert", "monk_multiply", "items"),
    ("schubert", "hook_multiply_chains", "latency"),
    ("schubert", "hook_multiply_minimal", "items"),
    ("schubert", "powersum_multiply", "latency"),
    ("schubert", "schur_multiply", "latency"),
    ("schubert", "x_times", "plain"),
    ("schubert", "schubert_poly", "plain"),
    ("schubert", "expand_in_schubert", "plain"),
    ("schubert", "poly_product", "plain"),
    ("qschubert", "q_monk_multiply", "items"),
    ("qschubert", "q_hook_multiply", "latency"),
    ("qschubert", "q_powersum_multiply", "latency"),
    ("qschubert", "q_x_times", "plain"),
    ("qschubert", "quantize", "plain"),
    ("qschubert", "quantum_lr", "plain"),
    ("qschubert", "fgp_product", "plain"),
)

# aggregate slots: calls, inclusive seconds, self seconds, counted items
CALLS, TOTAL, SELF, ITEMS = range(4)


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.agg: dict[str, list[float]] = {}
        self.latency: dict[str, list[float]] = {}
        self.spans: list[dict] = []
        self.groups: dict[str, dict[str, list[float]]] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, kind: str):
        agg = self.agg.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self.stack
        clock = time.perf_counter
        lat = self.latency.setdefault(name, []) if kind == "latency" else None

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if kind == "nonzero":
                if out is not None:
                    agg[3] += 1
            elif kind != "plain":
                agg[3] += len(out)
                if lat is not None:
                    lat.append(dt)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {
            key: mod
            for key, mod in list(sys.modules.items())
            if key == "flagmn" or key.startswith("flagmn.")
        }
        for modname, attr, kind in TRACED:
            name = f"{modname}.{attr}"
            home = mods[f"flagmn.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, orig, kind))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(name, orig, kind)
            for mod in mods.values():
                if mod.__dict__.get(attr) is orig:
                    self._set(mod, attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- top-level spans ----------------------------------------------------

    def run(self, group: str, fn, *args):
        """Call fn(*args) as one top-level span in ``group``; return its result."""
        if self.stack:
            raise RuntimeError("top-level span opened inside another span")
        before = {name: list(a) for name, a in self.agg.items() if a[0]}
        frame = [0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append(
                {
                    "id": len(self.spans),
                    "group": group,
                    "start": start,
                    "end": end,
                    "self_s": end - start - frame[0],
                }
            )
            into = self.groups.setdefault(group, {})
            for name, a in self.agg.items():
                b = before.get(name, (0, 0.0, 0.0, 0))
                if a[0] != b[0]:
                    acc = into.setdefault(name, [0, 0.0, 0.0, 0])
                    for slot in range(4):
                        acc[slot] += a[slot] - b[slot]

    # -- reporting ----------------------------------------------------------

    def count(self, name: str, slot: int = CALLS) -> float:
        """One aggregate slot of a traced function, 0 if it never ran."""
        return self.agg.get(name, (0, 0.0, 0.0, 0))[slot]

    def write(self, path: str, extra: dict) -> None:
        """Write spans, aggregates and ``extra`` as one JSON file."""
        payload = dict(extra)
        payload["aggregates"] = {
            name: dict(zip(("calls", "total_s", "self_s", "items"), a))
            for name, a in sorted(self.agg.items())
        }
        payload["groups"] = {
            group: {
                name: dict(zip(("calls", "total_s", "self_s", "items"), a))
                for name, a in sorted(aggs.items())
            }
            for group, aggs in sorted(self.groups.items())
        }
        payload["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(payload, fh)
