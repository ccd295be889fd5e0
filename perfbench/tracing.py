"""Per-module spans and work counts, installed from outside the program.

The tracer wraps quinncalc's public entry points and rebinds every alias of
each one (``from .x import f`` copies the function into the importing
module) to the wrapper, so calls between modules pass through it.  A span is
recorded only when a call crosses from one layer (module) into another, and
only inside a job; calls inside a layer and calls made by the benchmark's own
output checks pass straight through.  ``apply_homotopy`` and
``compose_homotopies`` get counters only: they run hundreds of thousands of
times per workload.

Layer self time is a span's duration minus the time of its child spans.
Single-threaded calls nest, so the children of a span never overlap.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

BENCH = "bench"  # layer of the job root spans, i.e. the benchmark itself


def _cells(a, k, r):
    """Generator count of a built SimpSet, Stratification or Window."""
    return {"simpset.cells_built": len(getattr(r, "simpset", r).dim_of)}


def _calls(name):
    return lambda a, k, r: {name: 1}


def _arg(a, k, pos, name):
    return k[name] if name in k else a[pos]


_NONE = ((), None)
_CELLS = (("simpset.cells_built",), _cells)

# Entry points that get spans: (module, function or Class.method, (counts it
# feeds, count)).  count(args, kwargs, result) returns the increments of
# those counts.  The layer is the module name below the package; finalg's
# submodules are one layer.
SPANNED = [
    ("quinncalc.colouring", "enumerate_colourings", (
        ("colouring.enum_calls", "colouring.colourings_out"),
        lambda a, k, r: {"colouring.enum_calls": 1, "colouring.colourings_out": len(r)})),
    ("quinncalc.colouring", "enumerate_relative", (
        ("colouring.relative_calls", "colouring.colourings_out", "colouring.relative_hits"),
        lambda a, k, r: {"colouring.relative_calls": 1, "colouring.colourings_out": len(r),
                         "colouring.relative_hits": 1 if r else 0})),
    ("quinncalc.colouring", "restrict_colouring", _NONE),
    ("quinncalc.homotopy", "crs_pi1", (
        ("homotopy.crs_calls", "homotopy.crs_arrows", "homotopy.crs_comp_entries"),
        lambda a, k, r: {"homotopy.crs_calls": 1,
                         "homotopy.crs_arrows": len(r.groupoid.arrows),
                         "homotopy.crs_comp_entries": len(r.groupoid.comp_table)})),
    ("quinncalc.homotopy", "rel_classes", (
        ("homotopy.rel_calls", "homotopy.rel_fillings_in", "homotopy.rel_classes_out"),
        lambda a, k, r: {"homotopy.rel_calls": 1,
                         "homotopy.rel_fillings_in": len(_arg(a, k, 3, "fillings")),
                         "homotopy.rel_classes_out": len(r[0])})),
    ("quinncalc.homotopy", "holonomy_act", _NONE),
    ("quinncalc.homotopy", "invert_homotopy", _NONE),
    ("quinncalc.homotopy", "crs_homotopy_content", _NONE),
    ("quinncalc.tqft", "state_space", _NONE),
    ("quinncalc.tqft", "quinn_matrix", (
        ("tqft.matrix_entries",),
        lambda a, k, r: {"tqft.matrix_entries": r.rows.dim * r.cols.dim})),
    ("quinncalc.tqft", "s_conjugation_check", _NONE),
    ("quinncalc.tqft", "closed_invariant", _NONE),
    ("quinncalc.tqft", "chi_pi_component", _NONE),
    ("quinncalc.tqft", "chi_pi_rel_fibre", _NONE),
    ("quinncalc.extprof", "cobordism_profunctor", (
        ("extprof.basis_elements",),
        lambda a, k, r: {"extprof.basis_elements": len(r.elements())})),
    ("quinncalc.extprof", "compose_profunctors", (
        ("extprof.coend_nodes",),
        lambda a, k, r: {"extprof.coend_nodes": sum(len(m) for m in r.members.values())})),
    ("quinncalc.extprof", "profunctor_iso_check", _NONE),
    ("quinncalc.extprof", "identity_profunctor", _NONE),
    ("quinncalc.extprof", "NatTransform.is_identity", _NONE),
    ("quinncalc.extprof", "NatTransform.naturality_check", _NONE),
    ("quinncalc.extprof", "window_nat_transform", (
        ("extprof.window_entries",),
        lambda a, k, r: {"extprof.window_entries": sum(
            len(m) * len(m[0]) for m in r.blocks.values() if m)})),
    ("quinncalc.morita", "groupoid_algebra", _NONE),
    ("quinncalc.morita", "lin2_bimodule", _NONE),
    ("quinncalc.morita", "tensor_over", (
        ("morita.tensor_pairs", "morita.tensor_dim"),
        lambda a, k, r: {"morita.tensor_pairs": len(r[1]), "morita.tensor_dim": r[0].dim})),
    ("quinncalc.morita", "frobenius_data", _NONE),
    ("quinncalc.morita", "verify_frobenius", _NONE),
    ("quinncalc.morita", "quantum_double", _NONE),
    ("quinncalc.morita", "quantum_double_oracle", _NONE),
    ("quinncalc.io", "load_json", _NONE),
    # json.dumps escapes non-ASCII, so characters are bytes
    ("quinncalc.io", "dump_json", (("io.bytes_out",), lambda a, k, r: {"io.bytes_out": len(r)})),
    ("quinncalc.io", "algebra_from_json", _NONE),
    ("quinncalc.io", "group_from_json", _NONE),
    ("quinncalc.io", "simpset_from_json", _NONE),
    ("quinncalc.io", "simpset_to_json", _NONE),
    ("quinncalc.io", "group_to_json", _NONE),
    ("quinncalc.io", "crossed_module_to_json", _NONE),
    ("quinncalc.io", "groupoid_to_json", _NONE),
    ("quinncalc.io", "profunctor_to_json", _NONE),
    ("quinncalc.cli", "main", (("cli.jobs",), _calls("cli.jobs"))),
    ("quinncalc.finalg.crossed", "validate_crossed_complex", (
        ("finalg.validate_calls",), _calls("finalg.validate_calls"))),
    ("quinncalc.finalg.crossed", "iota1", _NONE),
    ("quinncalc.finalg.crossed", "iota2", _NONE),
    ("quinncalc.finalg.crossed", "crossed_module_zero", _NONE),
    ("quinncalc.finalg.crossed", "crossed_module_identity", _NONE),
    ("quinncalc.finalg.crossed", "chi_pi", _NONE),
    ("quinncalc.finalg.groups", "cyclic_group", _NONE),
    ("quinncalc.finalg.groups", "symmetric_group", _NONE),
    ("quinncalc.finalg.groupoids", "groupoid_from_group", _NONE),
    ("quinncalc.finalg.groupoids", "action_groupoid", _NONE),
    ("quinncalc.finalg.groupoids", "find_groupoid_iso", _NONE),
    ("quinncalc.simpset", "point", _CELLS),
    ("quinncalc.simpset", "interval", _CELLS),
    ("quinncalc.simpset", "circle", _CELLS),
    ("quinncalc.simpset", "sphere", _CELLS),
    ("quinncalc.simpset", "torus", _CELLS),
    ("quinncalc.simpset", "standard_simplex", _CELLS),
    ("quinncalc.simpset", "prism", _CELLS),
    ("quinncalc.simpset", "glue", _CELLS),
    ("quinncalc.simpset", "window_support", _CELLS),
    ("quinncalc.simpset", "prism_end_matching", _NONE),
]

# Entry points that get a call counter only: (module, function, count).
COUNTED = [
    ("quinncalc.homotopy", "apply_homotopy", "homotopy.apply_calls"),
    ("quinncalc.homotopy", "compose_homotopies", "homotopy.compose_calls"),
]

def layer_of(module_name: str) -> str:
    return module_name.split(".")[1]


LAYERS = list(dict.fromkeys(layer_of(m) for m, _f, _c in SPANNED))


class Tracer:
    """Spans and counts of one traced pass; use as a context manager.

    Entering installs the wrappers, leaving restores every rebound name.
    Spans are kept in memory as lists
    ``[span id, parent id, job id, layer, name, start, end]``.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}
        self.absent: set = set()  # counts fed by an entry point that is missing
        self.installed: list = []  # (module or class, attribute, original)
        self._next_id = 0

    # -- installing -------------------------------------------------------------
    def __enter__(self):
        wrappers = {}
        entries = [(m, f, names, self._spanner, (layer_of(m), names, count))
                   for m, f, (names, count) in SPANNED]
        entries += [(m, f, (name,), self._counter, (name,)) for m, f, name in COUNTED]
        for mod_name, fn_name, names, make, extra in entries:
            self.counts.update(dict.fromkeys(names, 0))
            cls_name, _, attr = fn_name.rpartition(".")
            owner = importlib.import_module(mod_name)
            if cls_name:
                owner = getattr(owner, cls_name, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                self.absent.update(names)
            elif cls_name:  # a method has one binding, on its class
                self._install(owner, attr, fn, make(fn, *extra))
            else:
                wrappers[id(fn)] = make(fn, *extra)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "quinncalc":
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:  # the originals stay alive, so ids are theirs
                    self._install(mod, attr, value, wrappers[id(value)])
        return self

    def _install(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self.installed.append((owner, attr, original))

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self.installed):
            setattr(mod, attr, original)
        self.installed.clear()
        return False

    def _counter(self, fn, name):
        counts, stack = self.counts, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanner(self, fn, layer, names, count):
        stack, spans, counts = self.stack, self.spans, self.counts
        clock = time.perf_counter
        name = fn.__name__

        def add_counts(args, kwargs, result):
            try:
                increments = count(args, kwargs, result)
            except (AttributeError, TypeError, IndexError, KeyError):
                self.absent.update(names)  # the result changed shape: counts unknown
                return
            for key, inc in increments.items():
                counts[key] += inc

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or stack[-1][3] == layer:
                return fn(*args, **kwargs)
            parent = stack[-1]
            self._next_id += 1
            span = [self._next_id, parent[0], parent[2], layer, name, 0.0, 0.0]
            stack.append(span)
            span[5] = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    add_counts(args, kwargs, result)
            finally:
                span[6] = clock()
                stack.pop()
                spans.append(span)
            return result

        return wrapper

    # -- job roots ----------------------------------------------------------------
    def run_job(self, job_id: str, fn, *args):
        """Run fn(*args) under a root span of the benchmark layer."""
        self._next_id += 1
        span = [self._next_id, None, job_id, BENCH, job_id, 0.0, 0.0]
        self.stack.append(span)
        span[5] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span[6] = time.perf_counter()
            self.stack.pop()
            self.spans.append(span)

    # -- reading ------------------------------------------------------------------
    def self_times(self) -> dict:
        """Self time per layer, the benchmark layer included."""
        child_time: dict = {}
        for _sid, parent, _job, _layer, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out = dict.fromkeys(LAYERS + [BENCH], 0.0)
        for sid, _parent, _job, layer, _name, start, end in self.spans:
            out[layer] += (end - start) - child_time.get(sid, 0.0)
        return out

    def check_nesting(self, tol=1e-9) -> None:
        """Raise if a child span leaves its parent or overlaps a sibling."""
        by_id = {s[0]: s for s in self.spans}
        kids: dict = {}
        for s in self.spans:
            if s[1] is not None:
                p = by_id[s[1]]
                if s[5] < p[5] - tol or s[6] > p[6] + tol:
                    raise AssertionError(f"span {s[4]} leaves its parent {p[4]}")
                kids.setdefault(s[1], []).append(s)
        for siblings in kids.values():
            siblings.sort(key=lambda s: s[5])
            for a, b in zip(siblings, siblings[1:]):
                if b[5] < a[6] - tol:
                    raise AssertionError(f"spans {a[4]} and {b[4]} overlap")

    def layer_metrics(self) -> dict:
        """Per-layer self times and counts, named as in BENCHMARK.json.

        A count fed by a missing entry point, or by one whose result no
        longer has the expected shape, is left out.  The hit ratio is 0 when
        no relative enumeration ran.
        """
        selfs = self.self_times()
        out = {f"{layer}.self_s": selfs[layer] for layer in LAYERS}
        out.update((k, v) for k, v in self.counts.items() if k not in self.absent)
        hits = out.pop("colouring.relative_hits", None)
        calls = out.get("colouring.relative_calls")
        if hits is not None and calls is not None:
            out["colouring.relative_hit_ratio"] = hits / calls if calls else 0.0
        out["trace.unattributed_s"] = selfs[BENCH]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
