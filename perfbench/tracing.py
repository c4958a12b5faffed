"""Tracing from outside the program: wrap public opres functions, record spans.

``Tracer.install`` rebinds each traced function in its home module and in
every ``opres.*`` module that imported it by name, so internal calls go
through the wrapper too; ``Tracer.uninstall`` puts every original back.
Span wrappers record (name, start, end, parent, job) in flat arrays; count
wrappers only count, for functions called so often that a span would cost
more than the call.  ``perms`` is left alone for the same reason.

Self time is computed here from the spans (``self_times``), never inside
opres: a span's duration minus the part of its interval covered by its
direct children.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "chain_core", "chain_operads", "bar_cobar", "set_operads", "trees", "segments")


def _on_dense(tr, key, args, kwargs, result):
    A = args[0]
    cells = len(A) * len(A[0]) if A and A[0] else 0
    nnz = sum(1 for row in A for v in row if v) if cells else 0
    tr.add(key + ".cells", cells)
    tr.add("chain_core.dense_cells", cells)
    tr.add("chain_core.dense_nnz", nnz)


def _on_mul(tr, key, args, kwargs, result):
    tr.add(key + ".nnz_in", len(args[0].data) + len(args[1].data))


def _on_column(tr, key, args, kwargs, result):
    tr.add(key + ".scanned", len(args[0].data))
    tr.add(key + ".returned", len(result))


def _on_w_basis(tr, key, args, kwargs, result):
    tr.add("chain_operads.basis_elements", len(result))


def _on_complex(tr, key, args, kwargs, result):
    tr.add("chain_operads.nnz", sum(len(m.data) for m in result.d.values()))


def _on_signed_canon(tr, key, args, kwargs, result):
    tr.distinct.add(result)


def _on_cobar(tr, key, args, kwargs, result):
    tr.add("bar_cobar.cobar_cells", result.total_dim())


def _on_w_elements(tr, key, args, kwargs, result):
    tr.add("set_operads.elements", len(result))


def _on_rewrite(tr, key, args, kwargs, result):
    tr.add("set_operads.rewrite_instances", len(result))


def _on_planar(tr, key, args, kwargs, result):
    tr.add("trees.trees_enumerated", len(result))


SEGMENT_CONSTRUCTORS = (
    "chain_segment", "delta1_level", "diamond", "segment_from_json", "identity_map",
    "compose_maps", "diamond_collapse", "diamond_map", "terminal_map", "codiagonal",
    "delta1_operator", "delta1_face", "delta1_degeneracy", "segment_iso",
)

# (metric key, module, attribute path, "span" or "count", result hook)
TARGETS = [
    ("cli.main", "cli", "main", "span", None),
    ("chain_core.smith_normal_form", "chain_core", "smith_normal_form", "span", _on_dense),
    ("chain_core.rank_over_field", "chain_core", "rank_over_field", "span", _on_dense),
    ("chain_core.homology", "chain_core", "homology", "span", None),
    ("chain_core.verify_d_squared", "chain_core", "verify_d_squared", "span", None),
    ("chain_core.verify_chain_map", "chain_core", "verify_chain_map", "span", None),
    ("chain_core.SparseMat.mul", "chain_core", "SparseMat.mul", "span", _on_mul),
    ("chain_core.SparseMat.column", "chain_core", "SparseMat.column", "span", _on_column),
    ("chain_core.complex_json", "chain_core", "complex_to_json", "span", None),
    ("chain_core.complex_json", "chain_core", "complex_from_json", "span", None),
    ("chain_operads.enumerate_w_basis", "chain_operads", "enumerate_w_basis", "span",
     _on_w_basis),
    ("chain_operads.assemble", "chain_operads", "w_pseudo", "span", _on_complex),
    ("chain_operads.assemble", "chain_operads", "w_reduced", "span", _on_complex),
    ("chain_operads.assemble", "chain_operads", "free_operad_complex", "span", _on_complex),
    ("chain_operads.w_boundary", "chain_operads", "w_boundary", "span", None),
    ("chain_operads.signed_canon", "chain_operads", "signed_canon", "span", _on_signed_canon),
    ("chain_operads.w_compose_basis", "chain_operads", "w_compose_basis", "span", None),
    ("chain_operads.w_act_basis", "chain_operads", "w_act_basis", "span", None),
    ("chain_operads.augmentation", "chain_operads", "w_augmentation", "span", None),
    ("chain_operads.augmentation", "chain_operads", "delta_embedding", "span", None),
    ("chain_operads.augmentation", "chain_operads", "free_counit", "span", None),
    ("chain_operads.checks", "chain_operads", "verify_w_construction", "span", None),
    ("chain_operads.checks", "chain_operads", "check_composition_maps", "span", None),
    ("chain_operads.checks", "chain_operads", "w_operad_composition", "span", None),
    ("bar_cobar.bar", "bar_cobar", "bar", "span", None),
    ("bar_cobar.cobar", "bar_cobar", "cobar", "span", _on_cobar),
    ("bar_cobar.cobar_bar_counit", "bar_cobar", "cobar_bar_counit", "span", None),
    ("bar_cobar.compare_w_barcobar", "bar_cobar", "compare_w_barcobar", "span", None),
    ("bar_cobar.check_twisting", "bar_cobar", "check_twisting", "span", None),
    ("set_operads.compare_godement_w", "set_operads", "compare_godement_w", "span", None),
    ("set_operads.godement_simplicial_check", "set_operads", "godement_simplicial_check",
     "span", None),
    ("set_operads.w_diamond_compare", "set_operads", "w_diamond_compare", "span", None),
    ("set_operads.enumerate_w_elements", "set_operads", "enumerate_w_elements", "span",
     _on_w_elements),
    ("set_operads.confluence_experiment", "set_operads", "confluence_experiment", "span",
     None),
    ("set_operads.canon_node", "set_operads", "canon_node", "count", None),
    ("set_operads.rewrite_steps", "set_operads", "rewrite_steps", "count", _on_rewrite),
    ("trees.iso_classes", "trees", "iso_classes", "span", None),
    ("trees.enumerate_planar", "trees", "enumerate_planar", "span", _on_planar),
] + [("segments", "segments", name, "span", None) for name in SEGMENT_CONSTRUCTORS]


def _resolve(mods, module, path):
    owner = mods[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans and counters for the traced calls into one set of opres modules."""

    def __init__(self, mods: dict, targets=TARGETS):
        self.mods = mods
        self.targets = targets
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.jobs: list[str] = []
        self.job = -1
        self._saved: list[tuple] = []
        self.starts = array("d")
        self.ends = array("d")
        self.span_names = array("i")
        self.parents = array("i")
        self.span_jobs = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.distinct: set = set()

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def set_job(self, job_id: str) -> None:
        self.jobs.append(job_id)
        self.job = len(self.jobs) - 1

    def _name_id(self, key: str) -> int:
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        return self._name_ids[key]

    def _span_wrapper(self, fn, key, layer, hook):
        name_id = self._name_id(key)
        calls_key = key + ".calls"
        errors_key = layer + ".errors"
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tr.starts)
            tr.span_names.append(name_id)
            tr.parents.append(tr._stack[-1] if tr._stack else -1)
            tr.span_jobs.append(tr.job)
            tr.starts.append(0.0)
            tr.ends.append(0.0)
            tr._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.add(errors_key, 1)
                raise
            finally:
                t1 = perf_counter()
                tr._stack.pop()
                tr.starts[idx] = t0
                tr.ends[idx] = t1
            tr.add(calls_key, 1)
            if hook is not None:
                hook(tr, key, args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, fn, key, layer, hook):
        calls_key = key + ".calls"
        errors_key = layer + ".errors"
        tr = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.add(errors_key, 1)
                raise
            tr.add(calls_key, 1)
            if hook is not None:
                hook(tr, key, args, kwargs, result)
            return result

        return counted

    def install(self) -> None:
        """Wrap every target and rebind it wherever opres bound it by name."""
        for key, module, path, kind, hook in self.targets:
            owner, attr = _resolve(self.mods, module, path)
            original = owner.__dict__[attr]
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            wrapper = make(original, key, key.split(".")[0], hook)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if owner is not self.mods[module]:
                continue
            for mod in self.mods.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding, last change first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def spans(self):
        """Yield (name, start, end, parent index, job id) for every span."""
        for n, s, e, p, j in zip(self.span_names, self.starts, self.ends,
                                 self.parents, self.span_jobs):
            yield self.names[n], s, e, p, self.jobs[j] if j >= 0 else ""

    def busy(self) -> dict[str, float]:
        """Self time summed per metric key."""
        out: dict[str, float] = {}
        selfs = self_times(self.starts, self.ends, self.parents)
        for n, t in zip(self.span_names, selfs):
            key = self.names[n]
            out[key] = out.get(key, 0.0) + t
        return out

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\tjob\n")
            for i, (name, s, e, p, job) in enumerate(self.spans()):
                fh.write(f"{i}\t{name}\t{s!r}\t{e!r}\t{p}\t{job}\n")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Spans are indexed in start order, as a tracer appends them, so each
    parent's children arrive sorted by start; overlapping or overhanging
    children are clipped to the parent and counted once."""
    n = len(starts)
    covered = [0.0] * n
    reach = {}  # parent -> end of the covered prefix so far
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], reach.get(p, starts[p]))
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def opres_modules() -> dict:
    """The loaded opres submodules by short name."""
    return {
        name.split(".", 1)[1]: mod
        for name, mod in sys.modules.items()
        if name.startswith("opres.") and mod is not None
    }
