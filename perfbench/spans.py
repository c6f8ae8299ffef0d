"""Spans around the calls into each pieces_lab layer, and the per-layer
metrics computed from them.

The program is not changed: install() replaces public functions, in every
pieces_lab module that holds them, with wrappers that record a span.  A
span is [name, start, end, parent index, attributes]; spans are kept in a
list and written out when the round ends.  A span's self time is its
duration minus the durations of its direct children.
"""

import functools
import json
import sys
import time

# (module, attribute, span name, attributes taken from (args, result))
TARGETS = [
    ("quadrature", "frequency_table", "quadrature.frequency_table",
     lambda a, r: {"cells": (2 * a[2] + 1) * (2 * a[4] + 1)}),
    ("quadrature", "pair_reduced_matrix", "quadrature.pair_reduced_matrix",
     lambda a, r: {"dim": len(a[2])}),
    ("quadrature", "interaction_g_tensor", "quadrature.g_tensor", None),
    ("quadrature", "cross_g_tensor", "quadrature.g_tensor", None),
    ("quadrature", "cross_density_integral", "quadrature.cross_density", None),
    ("twobody", "solve_two_body", "twobody.solve", None),
    ("twobody", "gamma_via_K", "twobody.gamma_K", None),
    ("twobody", "gamma_via_fit", "twobody.gamma_fit", None),
    ("optstate", "build_psi_opt", "optstate.build", None),
    ("optstate", "energy_of_plan", "optstate.energy", None),
    ("optstate", "asymptotics_check", "optstate.asymptotics", None),
    ("optstate", "subadditivity_check", "optstate.subadditivity", None),
    ("manybody", "BlockBasis.hamiltonian", "manybody.hamiltonian",
     lambda a, r: {"dim": a[0].dim}),
    ("manybody", "solve_block", "manybody.block_solve", None),
    ("manybody", "exact_ground_state_small", "manybody.exact", None),
    ("rdm", "rdm1", "rdm.rdm1", None),
    ("rdm", "rdm2", "rdm.rdm2", None),
    ("rdm", "factorized_rdm", "rdm.factorized", None),
    ("disorder", "sample_pieces", "disorder.sample",
     lambda a, r: {"pieces": r.n_pieces}),
    ("disorder", "sample_pieces_conditioned", "disorder.sample",
     lambda a, r: {"pieces": r.n_pieces}),
    ("disorder", "count_pieces_in_range", "disorder.scan", None),
    ("disorder", "count_pair_clusters", "disorder.scan", None),
    ("disorder", "count_neighbor_pairs", "disorder.scan", None),
    ("disorder", "count_triplets", "disorder.scan", None),
    ("spectrum", "enumerate_levels_below", "spectrum.levels",
     lambda a, r: {"levels": len(r)}),
    ("spectrum", "counting_function", "spectrum.counting", None),
    ("spectrum", "free_energy_per_particle_empirical", "spectrum.free_energy",
     None),
]

# per-layer metric: (unit, how it is computed from the span table)
#   ("self", names)        summed self time of the spans with these names
#   ("count", name)        number of spans
#   ("sum", name, attr)    summed attribute; ("max", name, attr) its maximum
#   ("sumsq", name, attr)  summed square of the attribute
#   ("hits", name)         share of the spans that have no child span
LAYER_METRICS = {
    "quadrature.frequency_table_s": ("s", ("self", ["quadrature.frequency_table"])),
    "quadrature.frequency_table_calls": ("count", ("count", "quadrature.frequency_table")),
    "quadrature.frequency_table_cells": ("count", ("sum", "quadrature.frequency_table", "cells")),
    "quadrature.gather_s": ("s", ("self", ["quadrature.pair_reduced_matrix"])),
    "quadrature.gather_entries": ("count", ("sumsq", "quadrature.pair_reduced_matrix", "dim")),
    "quadrature.g_tensor_s": ("s", ("self", ["quadrature.g_tensor"])),
    "quadrature.cross_density_s": ("s", ("self", ["quadrature.cross_density"])),
    "quadrature.cross_density_calls": ("count", ("count", "quadrature.cross_density")),
    "twobody.solve_s": ("s", ("self", ["twobody.solve"])),
    "twobody.basis_dim_max": ("count", ("max", "quadrature.pair_reduced_matrix", "dim")),
    "twobody.basis_dim_sum": ("count", ("sum", "quadrature.pair_reduced_matrix", "dim")),
    "twobody.solve_calls": ("count", ("count", "twobody.solve")),
    "twobody.solve_hit_ratio": ("ratio", ("hits", "twobody.solve")),
    "twobody.gamma_K_s": ("s", ("self", ["twobody.gamma_K"])),
    "optstate.build_s": ("s", ("self", ["optstate.build"])),
    "optstate.energy_s": ("s", ("self", ["optstate.energy"])),
    "manybody.hamiltonian_s": ("s", ("self", ["manybody.hamiltonian"])),
    "manybody.block_solve_s": ("s", ("self", ["manybody.block_solve"])),
    "manybody.exact_s": ("s", ("self", ["manybody.exact"])),
    "manybody.blocks_solved": ("count", ("count", "manybody.block_solve")),
    "manybody.block_dim_sum": ("count", ("sum", "manybody.hamiltonian", "dim")),
    "rdm.rdm1_s": ("s", ("self", ["rdm.rdm1"])),
    "rdm.rdm2_s": ("s", ("self", ["rdm.rdm2"])),
    "rdm.factorized_s": ("s", ("self", ["rdm.factorized"])),
    "disorder.sample_s": ("s", ("self", ["disorder.sample"])),
    "disorder.pieces": ("count", ("sum", "disorder.sample", "pieces")),
    "disorder.scan_s": ("s", ("self", ["disorder.scan"])),
    "disorder.scan_calls": ("count", ("count", "disorder.scan")),
    "spectrum.levels_s": ("s", ("self", ["spectrum.levels", "spectrum.counting",
                                         "spectrum.free_energy"])),
    "spectrum.levels": ("count", ("sum", "spectrum.levels", "levels")),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, attrs):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, out)
            return out

        return traced

    def install(self, package):
        """Wrap every TARGETS function wherever a pieces_lab module holds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for mod_name, attr, name, attrs in TARGETS:
            owner = getattr(package, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth), attrs))
                continue
            fn = getattr(owner, attr)
            traced = self._wrap(name, fn, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
        return self

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)

    def metrics(self):
        child_time = [0.0] * len(self.spans)
        has_child = [False] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                has_child[parent] = True
        by_name = {}
        for i, (name, start, end, _, attrs) in enumerate(self.spans):
            by_name.setdefault(name, []).append(
                (end - start - child_time[i], has_child[i], attrs or {}))
        out = {}
        for metric, (unit, rule) in LAYER_METRICS.items():
            kind = rule[0]
            if kind == "self":
                value = sum(s for n in rule[1] for s, _, _ in by_name.get(n, []))
            else:
                rows = by_name.get(rule[1], [])
                if kind == "count":
                    value = len(rows)
                elif kind == "hits":
                    value = (sum(not c for _, c, _ in rows) / len(rows)
                             if rows else 0.0)
                else:
                    vals = [a[rule[2]] for _, _, a in rows]
                    value = {"sum": sum(vals), "max": max(vals, default=0),
                             "sumsq": sum(v * v for v in vals)}[kind]
            out[metric] = (value, unit)
        return out
