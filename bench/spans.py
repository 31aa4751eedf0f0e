"""In-memory span tracer that wraps the package's public functions from outside.

Each wrapped name is replaced in every ``entrobound`` module that holds it, so
calls are seen where callers look the name up (``verify.outcome_table`` as
well as ``simulator.outcome_table``, and a module's own global lookups).
Spans are recorded only inside an op opened with :meth:`Tracer.op`; calls made
by output checks between ops run untraced. Spans stay in memory until
:func:`summarize` reduces them at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time

# (module, attribute, span name). Names mapped to one span are reported
# together: ``bounds.rate`` covers both forward rate functions.
LAYERS = (
    ("bounds", "min_n_for_rate", "bounds.min_n_for_rate"),
    ("bounds", "legacy_min_n", "bounds.legacy_min_n"),
    ("bounds", "rate_bb84", "bounds.rate"),
    ("bounds", "rate_six", "bounds.rate"),
    ("bounds", "renyi_floor", "bounds.renyi_floor"),
    ("simulator", "random_density", "simulator.random_density"),
    ("simulator", "outcome_table", "simulator.outcome_table"),
    ("tables", "load_table", "tables.load_table"),
    ("entropy", "cond_renyi_entropy", "entropy.cond_renyi_entropy"),
    ("entropy", "cond_min_entropy", "entropy.cond_min_entropy"),
    ("entropy", "cond_shannon_entropy", "entropy.cond_shannon_entropy"),
    ("verify", "additivity_trial", "verify.additivity_trial"),
    ("verify", "ensemble_trial", "verify.ensemble_trial"),
    ("verify", "grid_search_min", "verify.grid_search_min"),
    ("verify", "curvature_gap_sweep", "verify.curvature_gap_sweep"),
    ("verify", "curvature_gap", "verify.curvature_gap"),
    ("verify", "figure_rows", "verify.figure_rows"),
    ("cli", "run", "cli.run"),
)
TABLE_INIT = "tables.ConditionalTable"
ROOT = "op"

_NAME, _START, _END, _PARENT, _OP, _ATTRS = range(6)


def _outcome_table_attrs(args, kwargs, table):
    states = kwargs.get("states", args[0] if args else None)
    family = kwargs.get("family", args[1] if len(args) > 1 else None)
    members = getattr(states, "members", None)
    matrices = [m.state.matrix for m in members] if members is not None else [states.matrix]
    strings = family.bases_per_qubit ** (matrices[0].shape[0].bit_length() - 1)
    return {"rows": len(table), "strings": strings,
            "states": [hash(m.tobytes()) for m in matrices]}


def _grid_attrs(args, kwargs, report):
    family = kwargs.get("family", args[0] if args else None)
    # The search grid has one axis per basis: (r, phi) or (r, phi, theta).
    points = report.resolution ** family.bases_per_qubit
    return {"points": points}


def _load_table_attrs(args, kwargs, table):
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)}


_ATTR_FUNCS = {
    "simulator.outcome_table": _outcome_table_attrs,
    "verify.grid_search_min": _grid_attrs,
    "tables.load_table": _load_table_attrs,
}


class Tracer:
    """Records spans as ``[name, start, end, parent, op_id, attrs]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op_id = None
        self._restore: list[tuple] = []

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op_id, None])
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int):
        self._op_id = op_id
        index = self._enter(ROOT)
        try:
            yield
        finally:
            self._exit(index)
            self._op_id = None

    def wrap(self, fn, name: str):
        attrs = _ATTR_FUNCS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op_id is None:
                return fn(*args, **kwargs)
            index = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index)
            if attrs is not None:
                tracer.spans[index][_ATTRS] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer in every loaded ``entrobound`` module."""
        from entrobound import tables

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "entrobound" or name.startswith("entrobound."))]
        for module_name, attr, span in LAYERS:
            original = getattr(sys.modules[f"entrobound.{module_name}"], attr)
            wrapped = self.wrap(original, span)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)
        init = tables.ConditionalTable.__init__
        self._restore.append((tables.ConditionalTable, "__init__", init))
        tables.ConditionalTable.__init__ = self.wrap(init, TABLE_INIT)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def summarize(spans: list[list]) -> dict:
    """Per-span-name calls, time and self time, plus the layer counters."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[_PARENT] >= 0:
            child_time[span[_PARENT]] += span[_END] - span[_START]
    names: dict[str, dict] = {}
    rows = strings_built = unique_rows = 0
    seen_states: set = set()
    points = load_bytes = 0
    for i, span in enumerate(spans):
        duration = span[_END] - span[_START]
        entry = names.setdefault(span[_NAME], {"calls": 0, "time_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["time_s"] += duration
        entry["self_s"] += duration - child_time[i]
        attrs = span[_ATTRS]
        if span[_NAME] == "simulator.outcome_table":
            rows += attrs["rows"]
            strings_built += attrs["strings"]
            for state in attrs["states"]:
                # A row is one (state, basis string) pair; a state tabulated
                # twice within one op repeats all of its rows.
                if (span[_OP], state) not in seen_states:
                    seen_states.add((span[_OP], state))
                    unique_rows += attrs["strings"]
        elif span[_NAME] == "verify.grid_search_min":
            points += attrs["points"]
        elif span[_NAME] == "tables.load_table":
            load_bytes += attrs["bytes"]
    return {
        "names": names,
        "outcome_rows": rows,
        "unitaries_built": strings_built,
        "unique_row_ratio": unique_rows / rows if rows else 0.0,
        "grid_points": points,
        "load_bytes": load_bytes,
        "self_sum_s": sum(e["self_s"] for e in names.values()),
        "op_wall_s": names.get(ROOT, {}).get("time_s", 0.0),
        "op_self_s": names.get(ROOT, {}).get("self_s", 0.0),
    }
