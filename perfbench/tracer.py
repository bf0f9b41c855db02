"""Span tracer installed around the package's layer boundaries.

`install` replaces, through module and class attributes, the public entry
points that `lab` reaches: every public function of `fem`, the `Network`
methods used by assembly and trial states, `SqueezedPotential.__call__`,
`spectral.lowest_eigs`, `spectral.ResolventFactor`,
`spectral.resolvent_diff_norm`, the shift lowering `spectral._lower` that
counts retries, and `lab.trial_upper_bound`,
`lab.write_report` and `lab.cusp_operator_eigs`.  `spectral` sees a copy of
`scipy.sparse.linalg` whose `splu` and `eigsh` are traced and whose factors
trace their `.solve` calls.  The package source is not modified.

Spans stay in memory until the run ends.  The tracer assumes one thread,
which holds for the benchmark's configs: they leave `threads` at its
default of 1.
"""

from __future__ import annotations

import functools
import hashlib
import types
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self._spans = []  # [name, parent index, start, end, work]
        self._stack = []
        self._pencils = set()
        self.bookkeeping_s = 0.0  # time spent in the tracer itself

    def wrap(self, name, fn, work=None):
        """Traced version of fn, one span per call.  `work(args, kwargs,
        result)` gives the span's work count: points, nnz or iterations."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, 0]
            self._stack.append(len(self._spans))
            self._spans.append(span)
            t1 = span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = span[3] = perf_counter()
                self._stack.pop()
            if work:
                span[4] = work(args, kwargs, result)
            self.bookkeeping_s += (t1 - t0) + (perf_counter() - t2)
            return result

        return traced

    def pencil(self, S):
        """Note the pencil of S, identified by content (object ids are reused
        once a form is freed); returns 1, one visit."""
        Sc = S.tocsr()
        digest = hashlib.blake2b(digest_size=16)
        for arr in (Sc.indptr, Sc.indices, Sc.data):
            digest.update(memoryview(arr).cast("B"))
        self._pencils.add((Sc.shape, digest.hexdigest()))
        return 1

    def spans(self):
        return [
            {"name": n, "parent": p, "start": s, "end": e, "work": w}
            for n, p, s, e, w in self._spans
        ]

    def metrics(self):
        """Per-layer metrics: `_s` is a span's total time, `_self_s` its time
        less that of its child spans."""
        total, self_time = defaultdict(float), defaultdict(float)
        calls, work = defaultdict(int), defaultdict(int)
        for name, parent, start, end, w in self._spans:
            total[name] += end - start
            self_time[name] += end - start
            calls[name] += 1
            work[name] += w
            if parent >= 0:
                self_time[self._spans[parent][0]] -= end - start

        def parent_name(span):
            return self._spans[span[1]][0] if span[1] >= 0 else None

        solves_in_eigsh = sum(
            1 for s in self._spans
            if s[0] == "spectral.solve" and parent_name(s) == "spectral.eigsh"
        )
        wall = total["lab.runner"]
        eigsh_calls = calls["spectral.eigsh"]
        return {
            "spectral.factor.count": calls["spectral.splu"],
            "spectral.factor_s": total["spectral.splu"],
            "spectral.lu_nnz": work["spectral.splu"],
            "spectral.factors_per_pencil":
                calls["spectral.splu"] / len(self._pencils) if self._pencils else 0.0,
            "spectral.solve.count": calls["spectral.solve"],
            "spectral.solve_s": total["spectral.solve"],
            "spectral.solves_per_eigsolve":
                solves_in_eigsh / eigsh_calls if eigsh_calls else 0.0,
            "spectral.power.iterations": work["spectral.resolvent_diff_norm"],
            "spectral.resolvent_diff_norm_self_s": self_time["spectral.resolvent_diff_norm"],
            "spectral.lowest_eigs.calls": calls["spectral.lowest_eigs"],
            "spectral.eigsh.calls": eigsh_calls,
            "spectral.shift_retries": calls["spectral.lower_shift"],
            "spectral.lowest_eigs_self_s": self_time["spectral.lowest_eigs"],
            "geometry.sampled_distance.points": work["geometry.sampled_distance"],
            "geometry.sampled_distance_s": total["geometry.sampled_distance"],
            "geometry.project.points": work["geometry.project_onto_segment"],
            "geometry.project_s": total["geometry.project_onto_segment"],
            "geometry.network_init.calls": calls["geometry.Network"],
            "geometry.network_init_s": total["geometry.Network"],
            "potentials.squeezed_eval.points": work["potentials.SqueezedPotential"],
            "potentials.squeezed_eval_self_s": self_time["potentials.SqueezedPotential"],
            "fem.build_mesh.calls": calls["fem.build_mesh"],
            "fem.build_mesh_s": total["fem.build_mesh"],
            "fem.build_form.calls": calls["fem.build_form"],
            "fem.build_form_self_s": self_time["fem.build_form"],
            "fem.stiffness_s": total["fem.assemble_magnetic_stiffness"],
            "fem.mass_s": total["fem.assemble_mass"],
            "fem.volume_potential_self_s": self_time["fem.assemble_volume_potential"],
            "fem.delta_term_s": total["fem.assemble_delta_term"],
            "fem.restrict_s": total["fem.restrict"],
            "fem.form_nnz": work["fem.build_form"],
            "oracles.calls": calls["oracles.cusp_operator_eigs"],
            "oracles.cusp_operator_eigs_s": total["oracles.cusp_operator_eigs"],
            "lab.runner_self_s": self_time["lab.runner"],
            "lab.trial_upper_bound.calls": calls["lab.trial_upper_bound"],
            "lab.trial_upper_bound_self_s": self_time["lab.trial_upper_bound"],
            "lab.write_report_s": total["lab.write_report"],
            "trace.coverage": (wall - self_time["lab.runner"]) / wall if wall else 0.0,
            # traced / untraced - 1, the untraced wall taken as the traced
            # wall less the tracer's own bookkeeping
            "trace.overhead":
                self.bookkeeping_s / (wall - self.bookkeeping_s) if wall else 0.0,
        }


def _points(args, kwargs, result):
    return len(args[2] if len(args) > 2 else kwargs["points"])


def install(tracer: Tracer, lab):
    """Trace the layer boundaries reached from `lab`.  Returns `runner(fn)`,
    which wraps a runner in the top `lab.runner` span."""
    fem, geometry, potentials, spectral = lab.fem, lab.geometry, lab.potentials, lab.spectral
    wrap = tracer.wrap

    for name in fem.__all__:
        fn = getattr(fem, name)
        if isinstance(fn, types.FunctionType):
            nnz = (lambda a, k, form: form.S.nnz) if name == "build_form" else None
            setattr(fem, name, wrap(f"fem.{name}", fn, nnz))

    Network = geometry.Network
    Network.__init__ = wrap("geometry.Network", Network.__init__)
    Network.project_onto_segment = wrap(
        "geometry.project_onto_segment", Network.project_onto_segment, _points)
    Network.sampled_distance = wrap(
        "geometry.sampled_distance", Network.sampled_distance, _points)
    Squeezed = potentials.SqueezedPotential
    Squeezed.__call__ = wrap("potentials.SqueezedPotential", Squeezed.__call__,
                             lambda a, k, r: r.size)

    spectral.lowest_eigs = wrap("spectral.lowest_eigs", spectral.lowest_eigs,
                                lambda a, k, r: tracer.pencil(a[0]))
    Factor = spectral.ResolventFactor
    Factor.__init__ = wrap("spectral.ResolventFactor", Factor.__init__,
                           lambda a, k, r: tracer.pencil(a[1]))
    # lowest_eigs lowers its shift once per retry, whether splu raised or
    # eigsh returned eigenvalues that show the shift was not below the spectrum
    spectral._lower = wrap("spectral.lower_shift", spectral._lower)
    spectral.resolvent_diff_norm = wrap(
        "spectral.resolvent_diff_norm", spectral.resolvent_diff_norm,
        lambda a, k, r: r.iterations)

    class TracedFactor:
        """SuperLU factor whose solves are traced."""

        def __init__(self, lu):
            self._lu = lu
            self.solve = wrap("spectral.solve", lu.solve)

        def __getattr__(self, attr):
            return getattr(self._lu, attr)

    spla = spectral.spla
    splu = wrap("spectral.splu", spla.splu, lambda a, k, lu: lu.nnz)
    proxy = types.SimpleNamespace(**vars(spla))
    proxy.splu = lambda *args, **kwargs: TracedFactor(splu(*args, **kwargs))
    proxy.eigsh = wrap("spectral.eigsh", spla.eigsh)
    spectral.spla = proxy

    lab.trial_upper_bound = wrap("lab.trial_upper_bound", lab.trial_upper_bound)
    lab.write_report = wrap("lab.write_report", lab.write_report)
    lab.cusp_operator_eigs = wrap("oracles.cusp_operator_eigs", lab.cusp_operator_eigs)
    return functools.partial(wrap, "lab.runner")
