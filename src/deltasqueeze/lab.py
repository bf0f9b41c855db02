"""Experiment orchestration: configs, scenario runners, reports.

Every scenario solves a member of (i grad + A)^2 + Q + alpha delta_Sigma or
of its squeezed regularizations.  A runner reads its config dict, its mesh
block and the run settings included, once, first, in one `_check` call that
declares each top-level entry with its kind and its one default, checks
them, logs the entries it does not declare, and returns the values; the
runner reads only those, and a block's entries as the block is read
(`_entry`).  It then builds its networks, and `_check_run` reads their
profiles, once, and checks what needs them or the disk, the squeezing
width and the output and dump directories, before any mesh is built.  A
runner builds `Operator` records (base, network, profiles, strengths) with
`Operator.from_config`, one `fem.BaseForm` of (mesh, A, Q) per distinct box
and step, shared by the operators on it.  `Operator.solve` is the one path
from form to eigenpairs: it shifts a squeezed form below the floor that the
form carries (`fem.build_form`), so no profile is sampled here.  `_dump`
writes each form as soon as it is built.  Every report goes through
`_envelope`, which adds the config echo, the certified tube half-width and
its cap, the mesh summary and the flags, and writes report.json and
data.csv with the SHA-256 of the CSV payload embedded; identical config
gives bit-identical files.  A config's "seed" is ignored (`spectral.START_SEED`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import numbers
import os
from dataclasses import dataclass, replace

import numpy as np

from . import fem, geometry, potentials, spectral
from .oracles import WedgeParams, cusp_operator_eigs, wedge_F_infimum

__all__ = [
    "ConfigError",
    "Operator",
    "network_from_spec",
    "profiles_from_config",
    "run_convergence",
    "run_stargraph",
    "run_cusp",
    "run_wedge",
    "run_spectrum",
    "write_report",
    "export_strengths_csv",
]

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _real(value) -> bool:
    """Whether `value` is a real number; a bool or a string is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _count(value) -> bool:
    """Whether `value` is a positive integer; a bool is not."""
    return type(value) is int and value > 0


def _flag(value) -> bool:
    """Whether `value` is true or false."""
    return isinstance(value, bool)


def _list(value) -> bool:
    """Whether `value` is a list (or tuple or array)."""
    return isinstance(value, (list, tuple, np.ndarray))


def _grid(value) -> bool:
    """Whether `value` is a nonempty list of real numbers."""
    return _list(value) and len(value) > 0 and all(map(_real, value))


def _pair(value) -> bool:
    """Whether `value` is a pair of real numbers, a point."""
    return _list(value) and len(value) == 2 and all(map(_real, value))


def _reals(value) -> bool:
    """Whether `value` is a list of real numbers, or of such lists (a table)."""
    return _list(value) and all(_real(v) or _reals(v) for v in value)


def _points(value) -> bool:
    """Whether `value` is a list of points."""
    return _list(value) and all(map(_pair, value))


def _block(value) -> bool:
    """Whether `value` is a block, as a network or a mesh is."""
    return isinstance(value, dict)


def _profiles(value) -> bool:
    """Whether `value` is a block or a list, as a profile entry is."""
    return _block(value) or _list(value)


def _step(value) -> bool:
    """Whether `value` is a positive number, as a mesh step is."""
    return _real(value) and 0.0 < value < np.inf


def _box(value) -> bool:
    """Whether `value` is two increasing pairs of numbers, as a mesh box is."""
    return _list(value) and len(value) == 2 and all(
        _pair(pair) and -np.inf < pair[0] < pair[1] < np.inf for pair in value)


def _path(value) -> bool:
    """Whether `value` is a path, as a directory entry is."""
    return isinstance(value, (str, os.PathLike))


# what each test of an entry asks for, as its ConfigError says it ({key}: the entry)
_KINDS = {_real: "a number", _count: "a positive integer", _flag: "true or false",
          _list: "a list of numbers", _grid: "a nonempty list of numbers",
          _pair: "a pair of numbers", _reals: "a list of numbers",
          _points: "a list of pairs of numbers", _block: "a {key} block",
          _profiles: "a profile block or a list of them", _step: "a positive number",
          _box: "two increasing pairs of numbers, [[x0, x1], [y0, y1]]",
          _path: "a directory path"}


def _entry(where, spec: dict, key, test=_real, default=...):
    """spec[key] checked by `test`, one of `_KINDS` (None for no test), else
    ConfigError naming `where` and the key; the one reader of an entry of a
    config, its mesh, a network, a network segment or a profile.  With a
    `default`, an absent or null entry reads as the default, unchecked;
    without one, an absent entry raises ConfigError "<where> is missing <key>"."""
    if default is ... and key not in spec:
        raise ConfigError(f"{where} is missing {key!r}")
    value = spec.get(key)
    if value is None and default is not ...:
        return default
    if test is not None and not test(value):
        raise ConfigError(f"{where}: {key!r} must be {_KINDS[test].format(key=key)}, "
                          f"got {value!r}")
    return value


def _unknown(where, spec: dict, known):
    """Log each entry of `spec` not in `known`, the entries its reader
    reads, as unknown and ignored: one warning each, naming `where`."""
    for key in spec:
        if key not in known:
            logger.warning("%s: unknown entry %r, ignored", where, key)


def _check(scenario, cfg: dict, *, blocks={}, counts={}, reals={}, flags={}, lists={}, grids={},
           strengths={}, run=False) -> dict:
    """The one reader of a command's top-level config entries, called first,
    before anything is built: {entry: value} for every entry it declares,
    else ConfigError naming the scenario and the entry (`_entry`).  Each
    entry is declared once, as {key: default} in its kind: `blocks`,
    `counts` (positive integers), `reals` (numbers; "q" may be the block
    {"kind": "constant", "value": v}, read as v), `flags` (true or false),
    `lists`, `grids` (nonempty lists) and `strengths` (numbers or lists of
    them, None for unset).  An absent or null entry reads as its default; a
    default of ... marks a required entry.  A bool or a string is not a
    number.  `run` adds what every runner reads: the block "mesh", of a box
    "mesh.box" (two increasing pairs of numbers) and a positive step
    "mesh.h", the paths "out" and "dump_mm" (default None) and the ignored
    "seed".  An optional strength "alpha" adds its alternative "profile", a
    block or a list.  Each other top-level or mesh entry is logged as
    unknown, one warning each, and ignored (`_unknown`)."""
    where, checked = f"{scenario} config", {}
    if run:
        mesh = {f"mesh.{key}": value for key, value in _entry(where, cfg, "mesh", _block).items()}
        checked["mesh"] = {key: _entry(where, mesh, f"mesh.{key}", test)
                           for key, test in (("box", _box), ("h", _step))}
        _unknown(where, mesh, [f"mesh.{key}" for key in checked["mesh"]])
        checked.update({key: _entry(where, cfg, key, _path, None) for key in ("out", "dump_mm")})
    if strengths.get("alpha", ...) is None:
        checked["profile"] = _entry(where, cfg, "profile", _profiles, None)
    for test, entries in ((_block, blocks), (_count, counts), (_real, reals), (_flag, flags),
                          (_list, lists), (_grid, grids), (None, strengths)):
        for key, default in entries.items():
            spec, name = cfg, key
            if key == "q" and isinstance(cfg.get(key), dict):  # {"kind": "constant", "value": v}
                if cfg[key].get("kind") != "constant" or "value" not in cfg[key]:
                    raise ConfigError(f"unknown background potential spec: {cfg[key]!r}")
                spec, name = {"q.value": cfg[key]["value"]}, "q.value"
            value = checked[key] = _entry(where, spec, name, test, default)
            if test in (_list, None) and value is not None:  # each entry a number
                listed = _list(value)
                for i, a in enumerate(value if listed else [value]):
                    if not _real(a):
                        entry = f"{name!r} entry {i}" if listed else repr(name)
                        raise ConfigError(f"{where}: {entry} must be a real number, got {a!r}")
    _unknown(where, cfg, [*checked, *(["seed"] if run else [])])
    return checked


def _check_run(scenario, c: dict, key: str, nets, refines=(1,)):
    """The checks that need the networks `nets` or touch the disk, made on
    `_check`'s result `c` before any mesh is built, each raising ConfigError
    naming the scenario.  Returns the profiles of c's profile or alpha entry
    on each net (`profiles_from_config`), the run's one reading of them, for
    `Operator.from_config`.  The squeezing width c[key] (a real number, None
    for none; for "eps_grid" a nonempty list of them) must be positive, be
    resolved by c["mesh"]["h"] (`fem.resolves`) and not exceed the certified
    tube half-width of any net.  When the run builds a delta form (always for
    "eps_grid", else without a width), the line-term quadrature points of
    every segment given a strength by those profiles must lie in the open
    box, on the mesh of step h / r for each r of `refines`: the same test,
    and the same GeometryError, as `fem.assemble_delta_term`'s.  c["out"]
    and c["dump_mm"], when set, are created and must be writable directories."""
    eps, h = c[key], c["mesh"]["h"]
    if eps is not None:
        lo, hi, beta = float(np.min(eps)), float(np.max(eps)), min(net.beta for net in nets)
        if lo <= 0.0:
            raise ConfigError(f"{scenario} config: {key!r} must be positive, got {eps!r}")
        if not fem.resolves(h, lo):
            raise ConfigError(f"{scenario} config: {key!r} needs 'mesh.h' <= "
                              f"{lo}/4 = {lo / 4.0}, got {h}")
        if hi > beta:
            raise ConfigError(f"{scenario} config: {key!r} = {hi} exceeds beta = {beta}")
    profiles = [profiles_from_config(c, net) for net in nets]
    if key == "eps_grid" or eps is None:
        box = tuple(tuple(map(float, pair)) for pair in c["mesh"]["box"])
        for net, net_profiles in zip(nets, profiles):
            for k in sorted({p.segment for p in net_profiles}):
                for r in refines:
                    fem.line_quadrature(box, float(h / r), k, net.segments[k])
    for path in (c["out"], c["dump_mm"]):
        if path is None:
            continue
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as err:
            raise ConfigError(
                f"{scenario} output path not writable: {path} ({err.strerror})") from None
        if not os.access(path, os.W_OK):
            raise ConfigError(f"{scenario} output path not writable: {path}")
    return profiles


# each segment kind's class and the tests of the entries it is built from
_SEGMENTS = {"line": (geometry.LineSegment, {"p0": _pair, "p1": _pair}),
             "arc": (geometry.CircularArc,
                     {"center": _pair, "radius": _real, "theta0": _real, "theta1": _real}),
             "cusp": (geometry.CuspBranch,
                      {"exponent": _real, "sign": _real, "x_max": _real, "collar": _real}),
             "spline": (geometry.SplineSegment, {"points": _points})}


def _segment_from_spec(i: int, spec: dict) -> geometry.CurveSegment:
    where, kind = f"network segment {i}", spec.get("kind")
    if not (isinstance(kind, str) and kind in _SEGMENTS):
        raise ConfigError(f"unknown segment kind: {kind!r}")
    cls, tests = _SEGMENTS[kind]
    _unknown(where, spec, ["kind", *tests])
    # an absent or null sign, x_max or collar of a cusp takes CuspBranch's default
    return cls(**{key: _entry(where, spec, key, test) for key, test in tests.items()
                  if kind != "cusp" or key == "exponent" or spec.get(key) is not None})


def network_from_spec(spec: dict) -> geometry.Network:
    """Network from {"beta_cap": ..., "segments": [{kind, parameters...}]}.
    A missing entry, or one that is not a real number (a point: a pair of
    them), raises ConfigError naming the network or the segment, and the
    entry (`_entry`)."""
    segments = _entry("network", spec, "segments", None)
    if not (isinstance(segments, (list, tuple)) and all(map(_block, segments))):
        raise ConfigError(f"network: 'segments' must be a list of segment blocks, "
                          f"got {segments!r}")
    segments = [_segment_from_spec(i, s) for i, s in enumerate(segments)]
    _unknown("network", spec, ("segments", "beta_cap"))
    return geometry.Network(segments, beta_cap=_entry("network", spec, "beta_cap"))


# the entries each profile kind is built from
_PROFILES = {"constant": ("value",), "separable": ("g_s", "g_t"),
             "tabulated": ("s_grid", "t_grid", "values")}


def _profile_from_spec(i: int, spec, net: geometry.Network) -> potentials.TubeProfile:
    where, n = f"profile entry {i}", len(net.segments)
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a profile block, got {spec!r}")
    seg, kind, beta = _entry(where, spec, "segment", None, 0), spec.get("kind"), net.beta
    if type(seg) is not int or not 0 <= seg < n:
        raise ConfigError(f"{where}: 'segment' {seg!r} is not a segment of the network, "
                          f"which has {n}")
    if not (isinstance(kind, str) and kind in _PROFILES):
        raise ConfigError(f"unknown profile kind: {kind!r}")
    _unknown(where, spec, ["kind", "segment", *_PROFILES[kind]])
    try:  # a profile's own refusal, of a table or a value, names its entry too
        if kind == "constant":
            return potentials.constant_profile(seg, _entry(where, spec, "value"), beta)
        if kind == "separable":

            def poly(key):
                c = np.asarray(_entry(where, spec, key, _grid), dtype=float)
                return lambda u: np.polyval(c[::-1], u)

            return potentials.separable_profile(seg, poly("g_s"), poly("g_t"), beta)
        s_grid, t_grid, values = (_entry(where, spec, key, _reals) for key in _PROFILES[kind])
        return potentials.tabulated_profile(seg, s_grid, t_grid, np.asarray(values), beta)
    except potentials.ParameterError as err:
        raise ConfigError(f"{where}: {err}") from err


def profiles_from_config(cfg: dict, net: geometry.Network):
    """Profiles from cfg["profile"], or from cfg["alpha"] via the inverse
    construction V = alpha / (2 beta) on the tube.  A profile whose segment
    the network lacks or that a profile refuses (`potentials.ParameterError`),
    a profile entry that is not a real number or a list of them, two profile
    entries on one segment, or an alpha list longer than the network, raises
    ConfigError naming the entry, or both."""
    n = len(net.segments)
    if cfg.get("profile") is not None:
        specs = cfg["profile"]
        specs = [specs] if isinstance(specs, dict) else specs
        profiles = [_profile_from_spec(i, s, net) for i, s in enumerate(specs)]
        segments = [p.segment for p in profiles]
        for i, seg in enumerate(segments):
            if seg in segments[:i]:
                raise ConfigError(f"profile entries {segments.index(seg)} and {i} are both on "
                                  f"segment {seg}, which takes one profile")
        return profiles
    if cfg.get("alpha") is not None:
        alphas = cfg["alpha"]
        if np.isscalar(alphas):
            alphas = [alphas] * n
        if len(alphas) > n:
            raise ConfigError(f"'alpha' entry {n} has no segment: the network has {n}, "
                              f"the list {len(alphas)}")
        return [
            potentials.potential_from_alpha(
                potentials.StrengthFunction.constant(k, a), net.beta
            )
            for k, a in enumerate(alphas)
        ]
    raise ConfigError("config needs either 'profile' or 'alpha'")


def _mesh(spec: dict, refine: int = 1) -> fem.Mesh:
    """Mesh of a config's {"box", "h"} block, with the step divided by `refine`."""
    return fem.build_mesh(tuple(map(tuple, spec["box"])), spec["h"] / refine)


def trial_upper_bound(op: Operator, form):
    """Variational bound lam_1 <= min R(v) over transverse-decay trial states,
    returned with the minimizing state v: (bound, v), or (None, None) when
    every strength of `op` is zero.

    The candidates interpolate exp(-c |alpha_k| dist(x, Sigma_k) / 2) for
    c = 1 (single-line bound-state profile) and c = 2 (the steeper profile of
    merged tubes near vertices and cusps, where strengths effectively add).
    Every Rayleigh quotient on the assembled pencil `form` of `op` is a
    rigorous upper bound for the discrete ground state, so the minimum seeds
    the shift rule of the eigensolver without any probing factorization, and
    its positive state starts the ground-state Lanczos.  The distances of
    the mesh's interior nodes are measured here, once per segment with a
    nonzero strength (`Network.sampled_distance`).
    """
    net, m = op.net, op.base.mesh
    scales = {k: float(np.max(np.abs(a(np.linspace(0.0, net.segments[k].length, 65)))))
              for k, a in op.strengths.items()}
    scales = {k: a for k, a in scales.items() if a > 0.0}
    if not scales:
        return None, None
    pts = np.stack([m.node_x[m.interior], m.node_y[m.interior]], axis=1)
    decay = np.inf
    for k, a in scales.items():
        decay = np.minimum(decay, a * net.sampled_distance(k, pts))
    best = state = None
    for c in (1.0, 2.0):
        v = np.exp(-0.5 * c * decay)
        num = float(np.real(np.vdot(v, form.S @ v)))
        den = float(np.real(np.vdot(v, form.M @ v)))
        if den > 0 and (best is None or num / den < best):
            best, state = num / den, v
    return best, state


@dataclass(frozen=True)
class Operator:
    """(i grad + A)^2 + Q + alpha delta_Sigma, with the tube profiles of its
    squeezed regularizations.  `base` is the `fem.BaseForm` of (mesh, A, Q),
    the one owner of all three, and every form of the operator builds on it;
    `strengths` maps a segment index to its strength alpha(s), a callable of
    arc length: the transverse integral of the segment's profile
    (`potentials.effective_alpha`)."""

    base: fem.BaseForm
    net: geometry.Network
    profiles: list
    strengths: dict

    @classmethod
    def from_config(cls, cfg: dict, net: geometry.Network, base=None,
                    profiles=None) -> "Operator":
        """From the profile or alpha entry of `cfg`, `_check`'s result, on the
        network `net`, built on `base`, else on the base of cfg's mesh and
        its numbers field_b and q (absent or zero for none), assembled here.
        `profiles` are those entries as `_check_run` read them (None: read here)."""
        profiles = profiles_from_config(cfg, net) if profiles is None else profiles
        if base is None:
            b, q = cfg.get("field_b"), cfg.get("q")
            base = fem.assemble_base(_mesh(cfg["mesh"]), fem.homogeneous_gauge(b) if b else None,
                                     float(q) if q else None)
        strengths = {p.segment: potentials.effective_alpha(p) for p in profiles}
        return cls(base, net, profiles, strengths)

    def form(self, eps=None) -> fem.AssembledForm:
        """The delta form, or the squeezed form of tube width eps."""
        b = self.base
        if eps is None:
            return fem.build_form(b.mesh, A=b.A, Q=b.Q, net=self.net,
                                  strengths=self.strengths, base=b)
        W = potentials.SqueezedPotential(self.net, self.profiles, eps)
        return fem.build_form(b.mesh, A=b.A, Q=b.Q, potential=W, base=b)

    def solve(self, form, *, k: int = 1, values_only: bool = False, near=None):
        """The k lowest eigenpairs of `form`, factored on its dissection tree:
        a squeezed form, which has a floor, or the delta form, whose floor is
        None.  A squeezed pencil is shifted 2 percent plus one unit below the
        floor that `fem.build_form` proves (S >= floor M), Q included; the
        trial bound seeds the delta shift.  Without a trial bound (all
        strengths zero) `lowest_eigs` certifies the shift by inertia.  With
        k == 1 Lanczos starts from the trial state, which overlaps the
        ground state when A = 0 (positive and simple), and with A != 0 from
        it plus a random vector (`spectral.lowest_eigs`); with k > 1, where
        a symmetric trial state can miss an odd excited state, from a random
        vector drawn with `spectral.START_SEED`.  So
        `trial_upper_bound` is called only for the delta form or k == 1: a
        squeezed form with k > 1 reads neither its bound nor its state.
        `values_only` is `spectral.lowest_eigs`'s: the caller uses the
        eigenvalues, and the eigenvectors only as Lanczos starts.

        `near`, with k == 1, is the ground state of a nearby pencil on this
        mesh, such as the previous strength of `run_cusp`.  Lanczos starts
        from it, and its Rayleigh quotient u on `form`, an upper bound for
        lam_1 like the trial bound, replaces the trial state.  When u < 0
        the shift is u - max(1, |u|)/2, in place of the trial-bound rule or
        the potential floor: the trial rule's margin of 3|u| covers that
        bound's miss at cusps (lam_1 is 1.8-3 times it on cusp-trend),
        while a nearby ground state already carries the deepening, and half
        of |u| covers lam_1 down to 1.5 u.  `lowest_eigs` certifies the
        shift by its inertia count and lowers it otherwise, so a poor seed
        costs a factor, never the ground state.  When u >= 0 the shift is
        the floor, or for the delta form -1, lowered the same way."""
        bound = v0 = None
        shift = None if form.floor is None else 1.02 * form.floor - 1.0
        dtype = np.result_type(form.S.dtype, float)
        if k == 1 and near is not None:
            v0 = np.asarray(near, dtype=dtype)
            bound = float(np.real(np.vdot(v0, form.S @ v0)) / np.real(np.vdot(v0, form.M @ v0)))
            if bound < 0.0:
                shift = bound - 0.5 * max(1.0, abs(bound))
        elif form.floor is None or k == 1:
            bound, trial = trial_upper_bound(self, form)
            if k == 1 and trial is not None:
                v0 = np.asarray(trial, dtype=dtype)
        return spectral.lowest_eigs(form.S, form.M, k=k, shift=shift, upper_estimate=bound,
                                    v0=v0, tree=form.tree, values_only=values_only)


def _format_float(x):
    return np.format_float_scientific(x, precision=16) if isinstance(
        x, float
    ) else str(x)


def write_report(out_dir: str, report: dict, csv_header, csv_rows):
    """Write report.json and data.csv; the CSV hash is embedded in the JSON."""
    os.makedirs(out_dir, exist_ok=True)
    lines = [",".join(csv_header)]
    for row in csv_rows:
        lines.append(",".join(_format_float(v) for v in row))
    csv_text = "\n".join(lines) + "\n"
    report = dict(report)
    report["csv_sha256"] = hashlib.sha256(csv_text.encode()).hexdigest()
    with open(os.path.join(out_dir, "data.csv"), "w") as fh:
        fh.write(csv_text)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    return report


def export_strengths_csv(net, strengths, path, samples: int = 65):
    """CSV of (segment, s, alpha(s)) sampled along each segment, alpha callable."""
    lines = ["segment,s,alpha"]
    for k, strength in sorted(strengths.items()):
        s = np.linspace(0.0, net.segments[k].length, samples)
        # Python scalars print as numpy's do, without boxing a numpy scalar per row
        for si, ai in zip(s.tolist(), np.asarray(strength(s), dtype=complex).tolist()):
            lines.append(f"{k},{_format_float(si)},{ai.real if ai.imag == 0 else ai}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _dump(c, tag, form):
    """Write S and M of `form` as Matrix Market files tag_S.mtx and tag_M.mtx
    in the directory c["dump_mm"], when set; `_check_run` made it."""
    if c["dump_mm"] is not None:
        import scipy.io  # loaded only for the dump

        for name in "SM":
            scipy.io.mmwrite(os.path.join(c["dump_mm"], f"{tag}_{name}.mtx"),
                             getattr(form, name))


def _envelope(scenario, cfg, fields, flags, csv, *, out, net, mesh, squeezed=None):
    """(report, status) of a run, status 2 when any flag fired, else 0.  Adds
    the config `cfg` as given and the shared entries to `fields`, and `form`
    unless `squeezed` is None; writes the report and the (header, rows) pair
    `csv` to the directory `out` when it is set."""
    report = {
        "scenario": scenario,
        "config": dict(cfg),
        "beta": net.beta,
        "beta_cap": net.beta_cap,
        "mesh": mesh.summary(),
        **fields,
        "flags": flags,
    }
    if squeezed is not None:
        report["form"] = "squeezed" if squeezed else "delta"
    if out:
        report = write_report(out, report, *csv)
    return report, (2 if flags else 0)


def run_convergence(cfg):
    """Norm-resolvent comparison of the concentrated and squeezed operators.

    Assembles the kinetic part and the mass matrix once (the operator's
    `fem.BaseForm`), adds the line term for the delta form and each eps's
    tube-local squeezed potential for its form, measures the discrete
    resolvent-difference norm and the lowest-eigenvalue gap at a common
    shift below all spectra, and fits log-log rates.  One `_eps_sweep` per
    mesh makes each eps pencil's factor, eigensolve and norm; a second one at
    the lower common shift retakes the norms when a factor is not certified
    or some lam_eps lies below lam_delta, and raises ShiftError when it
    cannot certify a factor, naming the delta pencil when its factor is the
    one refused, else the first refused eps.  Every eigensolve is k = 1 and
    starts Lanczos near its ground state: from the trial state when it makes
    its own factor (`Operator.solve`), else from the delta ground state, as
    every norm on the run's mesh does.
    The report uses the eigenvalues only, so every eigensolve is
    `values_only` and stops on the value error estimate, which the report
    lists under `solver` with the eigensolves' and the norms'.  `solver`
    also lists each eps's discrete strength error int V_eps / int alpha - 1:
    int V_eps is its form's `potential_sum`, and int alpha the 16-point
    Gauss-Legendre integral of the strengths on each segment.

    `refine_check` repeats the sweep on the h/2 mesh at the run's shift,
    norms only, with no eigensolve there: its norms start from the P1
    interpolant of the h delta ground state (`fem.interpolate`), which gives
    the norms of the h/2 one to round-off.  It reports every eps's h/2 norm
    and relative change (None without certified h/2 factors, so every one
    when the h/2 delta factor is not certified) and the h/2 norm fit.  The flag
    `discretization_dominates_eps_effect` fires when the largest eps's change
    is >= 25 percent or None.  Returns (report, status): status 2 when any
    flag fired, else 0.
    """
    c = _check("convergence", cfg, blocks={"network": ...},
               reals={"field_b": 0.0, "q": 0.0}, flags={"refine_check": False},
               grids={"eps_grid": ...}, strengths={"alpha": None}, run=True)
    net = network_from_spec(c["network"])
    [profiles] = _check_run("convergence", c, "eps_grid", [net],
                            refines=(1, 2) if c["refine_check"] else (1,))
    eps_grid = np.asarray(c["eps_grid"], dtype=float)
    if not np.all(np.diff(eps_grid) < 0):
        raise ConfigError("eps_grid must be strictly decreasing")
    op = Operator.from_config(c, net, profiles=profiles)

    forms = {None: op.form()}  # the delta form, which the sweep takes out and drops
    _dump(c, "delta", forms[None])
    res_delta = op.solve(forms[None], values_only=True)
    lam_delta, ground = float(res_delta.eigenvalues[0]), res_delta.eigenvectors[:, 0]

    # The norms use the common shift min(lam) - max(1, |lam_delta|) over the
    # delta and every eps pencil.  That is `shift` unless some lam_eps lies
    # below lam_delta; the rerun at the lower shift takes norms only, since
    # the eigenvalues of the first sweep place it below every pencil.
    shift = lam_delta - max(1.0, abs(lam_delta))
    sums = {}  # each eps form's potential_sum, int V_eps

    def seen(eps, form):
        sums[eps] = form.potential_sum
        _dump(c, f"eps_{eps:g}", form)

    eps_results = _eps_sweep(op, forms, ground, shift, eps_grid, seen=seen)
    lam_eps = [float(r.eigenvalues[0]) for r, _ in eps_results]
    norms = [n for _, n in eps_results]
    if None in norms or min(lam_eps) < lam_delta:
        shift = min(lam_delta, min(lam_eps)) - max(1.0, abs(lam_delta))
        swept = _eps_sweep(op, {}, ground, shift, eps_grid, solve=False)
        norms = [n for _, n in swept or [(None, None)] * len(eps_grid)]
        if None in norms:
            pencil = "delta" if swept is None else f"eps={eps_grid[norms.index(None)]}"
            raise spectral.ShiftError(f"{pencil}: shift {shift} not certified below the "
                                      f"pencil at h = {op.base.mesh.h}")

    res_norms = [n.value for n in norms]
    gaps = [abs(le - lam_delta) for le in lam_eps]
    alpha_integral = sum(a.integral(net.segments[k].length) for k, a in op.strengths.items())

    flags = {}
    norm_fit = gap_fit = None
    if len(eps_grid) >= 3:
        norm_fit = spectral.fit_rate(eps_grid, res_norms)
        gap_fit = spectral.fit_rate(eps_grid, gaps)
    else:
        flags["insufficient_points_for_fit"] = True
    if not all(n.converged for n in norms):
        flags["power_iteration_nonconverged"] = True
    if np.any(np.diff(res_norms) >= 0):
        flags["norms_not_strictly_decreasing"] = True
    # spectral convergence: gaps decrease monotonically after the first
    # point, with 5 percent slack
    tail = np.asarray(gaps[1:])
    if tail.size > 1 and np.any(np.diff(tail) > 0.05 * tail[:-1]):
        flags["gap_monotonicity_violated"] = True

    # self-check: recovered strengths against the requested alpha
    self_check = {}
    alpha = c["alpha"]
    if alpha is not None:
        req = alpha if not np.isscalar(alpha) else [alpha] * len(net.segments)
        worst = 0.0
        for p in op.profiles:
            s = np.linspace(0.0, net.segments[p.segment].length, 17)
            rec = potentials.effective_alpha(p)(s)
            worst = max(worst, float(np.max(np.abs(rec - req[p.segment]))))
        self_check = {"alpha_roundtrip_max_error": worst, "pass": worst <= 1e-12}
        if worst > 1e-12:
            flags["alpha_roundtrip_failed"] = True

    refine_block = None
    if c["refine_check"]:
        mesh2 = _mesh(c["mesh"], refine=2)
        op2 = replace(op, base=fem.assemble_base(mesh2, op.base.A, op.base.Q))
        # the h delta ground state, interpolated, starts the h/2 norms
        start = fem.interpolate(op.base.mesh, ground, np.stack(
            [mesh2.node_x[mesh2.interior], mesh2.node_y[mesh2.interior]], axis=1))
        swept = _eps_sweep(op2, {}, start, shift, eps_grid, solve=False)
        fine = [None if n is None else n.value
                for _, n in swept or [(None, None)] * len(eps_grid)]
        changes = [None if n is None else abs(n - r) / max(r, 1e-300)
                   for n, r in zip(fine, res_norms)]
        fit = spectral.fit_rate(eps_grid, fine) if len(fine) >= 3 and None not in fine else None
        refine_block = {"h": c["mesh"]["h"] / 2, "norm": fine[0], "rel_change": changes[0],
                        "norms": fine, "rel_changes": changes, "norm_fit": _fit_dict(fit)}
        if changes[0] is None or changes[0] >= 0.25:
            flags["discretization_dominates_eps_effect"] = True

    fields = {
        "shift": shift,
        "shift_verified_below_all_pencils": bool(shift < min(lam_delta, min(lam_eps))),
        "lam_delta": lam_delta,
        "lam_eps": lam_eps,
        "res_norms": res_norms,
        "res_converged": [n.converged for n in norms],
        "eig_gaps": gaps,
        "norm_fit": _fit_dict(norm_fit),
        "gap_fit": _fit_dict(gap_fit),
        "solver": {
            "delta_residuals": res_delta.residuals.tolist(),
            "eps_residuals": [r.residuals.tolist() for r, _ in eps_results],
            "power_iterations": [n.iterations for n in norms],
            "delta_value_error": res_delta.value_error,
            "eps_value_errors": [r.value_error for r, _ in eps_results],
            "norm_value_errors": [n.value_error for n in norms],
            "strength_errors": [sums[eps] / alpha_integral - 1.0 for eps in eps_grid],
        },
        "self_check": self_check,
        "refine_check": refine_block,
    }
    rows = [
        (float(e), float(nv), float(g), bool(c))
        for e, nv, g, c in zip(eps_grid, res_norms, gaps, [n.converged for n in norms])
    ]
    report, status = _envelope(
        "convergence", cfg, fields, flags, (("eps", "res_norm", "eig_gap", "converged"), rows),
        out=c["out"], net=net, mesh=op.base.mesh,
    )
    if c["out"]:
        export_strengths_csv(net, op.strengths, os.path.join(c["out"], "strengths.csv"))
    return report, status


def _eps_sweep(op, forms, ground, shift, eps_grid, *, solve=True, seen=None):
    """[(eigensolve, norm)] of the squeezed pencils of `op`, one per eps of
    `eps_grid`, each from one factor at `shift`.

    `forms` maps the argument of `op.form` (None for the delta form) to a
    form already made; the sweep takes each out of it when it uses it, so it
    holds the only reference, and makes the others.  The delta pencil and
    every squeezed one agree outside the rows of the line term and of the
    widest tube, the first eps's.  So the delta factor at `shift` keeps its
    fronts outside those rows, and each eps factor reuses them: it factors
    only the fronts of the tube and their ancestors, a tenth of the fronts
    on converge-line, and each application of the resolvent difference
    takes one sweep each way over the shared fronts
    (`spectral.ResolventFactor` `share`).  The delta form is dropped once
    its factor is made; the delta factor and one eps form and factor are
    live at a time, plus the first eps form until its point.

    Every factor, the delta one included, is certified once, by its inertia
    count (`spectral.count_below`).  A point assembles its form, passes it
    to `seen(eps, form)` when given, and factors it on the mesh's dissection
    tree.  An uncertified factor is freed and its norm is None; so is every
    norm when the delta factor is uncertified, and then, without `solve`,
    the sweep returns None, with no eps pencil factored.  With `solve`, the
    eigensolve runs on a certified factor from the delta ground state
    `ground`, else `Operator.solve` makes it; its result keeps the
    eigenvalue, residuals and value error, and no eigenvector, which no
    caller reads.  Norms are against the delta factor at `shift`, from
    `ground`.
    """

    def take(eps):
        return forms.pop(eps) if eps in forms else op.form(eps)

    # the widest tube holds every other: the delta factor keeps its fronts
    # outside the rows of its line term and that tube for the eps factors
    form_delta, forms[eps_grid[0]] = take(None), take(eps_grid[0])
    factor_delta = spectral.ResolventFactor(form_delta.S, form_delta.M, shift,
                                            tree=form_delta.tree,
                                            share=form_delta.tube | forms[eps_grid[0]].tube)
    del form_delta
    delta_certified = spectral.count_below(factor_delta) == 0
    if not (delta_certified or solve):
        del forms[eps_grid[0]]  # the caller keeps no form past the sweep
        return None

    def point(eps):  # its form and factor are freed when it returns, before the next
        try:
            form = take(eps)
            if seen is not None:
                seen(eps, form)
            factor = spectral.ResolventFactor(form.S, form.M, shift, tree=form.tree,
                                              share=factor_delta)
            if spectral.count_below(factor) != 0:
                factor = None  # freed before a fresh eigensolve factors the pencil again
            res = None
            if solve:
                res = (op.solve(form, values_only=True) if factor is None else
                       spectral.lowest_eigs(form.S, form.M, factor=factor, v0=ground,
                                            values_only=True))
                res = replace(res, eigenvectors=None)  # its n-vector is freed here
            if factor is None or not delta_certified:
                return res, None
            return res, spectral.resolvent_diff_norm(factor_delta, factor, start=ground)
        except Exception as err:
            err.args = (f"eps={eps}: {err}",)
            raise

    return [point(eps) for eps in eps_grid]


def _fit_dict(fit):
    return None if fit is None else {**dataclasses.asdict(fit), "ci95": list(fit.ci95)}


def _star_network(angles_deg, length, beta_cap, rot_deg=0.0):
    # edge k leaves the origin at the sum of the first k angles, turned by rot_deg
    azimuth = np.radians(np.cumsum([0.0, *angles_deg[:-1]]) + rot_deg)
    segs = [geometry.LineSegment((0.0, 0.0), (length * np.cos(th), length * np.sin(th)))
            for th in azimuth]
    return geometry.Network(segs, beta_cap=beta_cap)


def run_stargraph(cfg: dict):
    """Lowest eigenvalue of a star graph against its symmetric competitor.

    Builds the requested star and the symmetric one with the same edge count
    and length, solves both on the same mesh at h and h/2 (the refinement
    supplies the discretization error bar), and reports the gap, the
    rotation-congruence check, and pass flags.
    """
    c = _check("stargraph", cfg, counts={"N": ...},
               reals={"L": 1.0, "rot_deg": 17.0, "beta_cap": 0.4, "eps": None},
               lists={"angles": ...}, strengths={"alpha": ...}, run=True)
    N, L, angles, eps, beta_cap = (c[key] for key in ("N", "L", "angles", "eps", "beta_cap"))
    if N <= 2:
        raise ConfigError("star graph needs N > 2 edges")
    if not L > 0.0:
        raise ConfigError(f"stargraph config: 'L' must be a positive number, got {L!r}")
    if len(angles) != N:
        raise ConfigError(f"expected {N} angles, got {len(angles)}")
    if not all(a > 0.0 for a in angles):  # else an edge lies on another, or gaps are not angles
        raise ConfigError(f"stargraph config: 'angles' must be positive, got {angles!r}")
    if abs(sum(angles) - 360.0) > 1e-8:
        raise ConfigError(f"angles must sum to 360 degrees, got {sum(angles)}")
    nets = {
        "sigma": _star_network(angles, L, beta_cap),
        "gamma": _star_network([360.0 / N] * N, L, beta_cap),
        "rot": _star_network([360.0 / N] * N, L, beta_cap, rot_deg=c["rot_deg"]),
    }
    profiles = dict(zip(nets, _check_run("stargraph", c, "eps", nets.values(), refines=(1, 2))))
    meshes = {"h": _mesh(c["mesh"]), "h2": _mesh(c["mesh"], refine=2)}
    values = {}
    for step, mesh in meshes.items():
        base = fem.assemble_base(mesh)
        for name, net in nets.items():
            tag = f"{name}_{step}"
            op = Operator.from_config(c, net, base, profiles[name])
            form = op.form(eps)
            if tag in ("sigma_h", "gamma_h"):
                _dump(c, tag, form)
            res = op.solve(form)
            values[tag] = {
                "lam": float(res.eigenvalues[0]),
                "residual": float(res.residuals[0]),
                "shift": res.shift,
            }

    # one refinement per compared eigenvalue; the rotated graph usually has
    # the largest discretization error (no mesh-aligned edge)
    mesh_error = max(abs(values[f"{name}_h"]["lam"] - values[f"{name}_h2"]["lam"])
                     for name in nets)
    gap = values["gamma_h"]["lam"] - values["sigma_h"]["lam"]
    rot_gap = abs(values["rot_h"]["lam"] - values["gamma_h"]["lam"])
    symmetric_input = all(abs(a - 360.0 / N) < 1e-12 for a in angles)
    flags = {}
    if symmetric_input:
        if abs(gap) > mesh_error:
            flags["congruent_gap_exceeds_mesh_error"] = True
    elif not (gap > 5.0 * mesh_error):
        flags["gap_not_resolved_above_mesh_error"] = True
    if rot_gap > mesh_error:
        flags["rotation_congruence_violated"] = True

    fields = {
        "lam_sigma": values["sigma_h"]["lam"],
        "lam_gamma": values["gamma_h"]["lam"],
        "lam_gamma_rotated": values["rot_h"]["lam"],
        "gap": gap,
        "rotation_gap": rot_gap,
        "mesh_error_estimate": mesh_error,
        "refined": {k: v for k, v in values.items() if k.endswith("h2")},
        "solver": {
            k: {"residual": v["residual"], "shift": v["shift"]}
            for k, v in values.items()
        },
        "inequality_holds": bool(values["sigma_h"]["lam"] <= values["gamma_h"]["lam"]),
    }
    rows = [
        ("sigma", values["sigma_h"]["lam"], values["sigma_h2"]["lam"]),
        ("gamma", values["gamma_h"]["lam"], values["gamma_h2"]["lam"]),
        ("gamma_rot", values["rot_h"]["lam"], ""),
    ]
    return _envelope(
        "stargraph", cfg, fields, flags, (("graph", "lam_h", "lam_h2"), rows),
        out=c["out"], net=nets["sigma"], mesh=meshes["h"], squeezed=eps is not None,
    )


def cusp_network(d: float, x_max: float, beta_cap: float):
    """Closed cusp curve: branches y = +-x^d joined by a tangent-matching arc."""
    xc = x_max + d * x_max ** (2 * d - 1)
    radius = float(np.hypot(x_max - xc, x_max**d))
    theta1 = float(np.arctan2(x_max**d, x_max - xc))
    segs = [
        geometry.CuspBranch(d, 1.0, x_max),
        geometry.CuspBranch(d, -1.0, x_max),
        geometry.CircularArc((xc, 0.0), radius, theta1, -theta1),
    ]
    return geometry.Network(segs, beta_cap=beta_cap)


def run_cusp(cfg: dict):
    """Cusp-induced eigenvalues against the half-line operator asymptotics.

    For each strength alpha the lowest eigenvalue of the delta operator on
    the closed cusp curve gives r(alpha) = (lam1 + alpha^2) / |alpha|^p with
    p = 6/(d+2); the report tracks |r - 2^(2/(d+2)) E_1| along the alpha list
    (expected to shrink as |alpha| grows).  The strengths are solved in
    increasing |alpha| on one mesh, and each after the first is seeded with
    the ground state of the one before (`Operator.solve`'s `near`): its
    Rayleigh quotient places the shift and Lanczos starts from it.
    """
    c = _check("cusp", cfg, reals={"d": ..., "x_max": 0.75, "beta_cap": 0.25, "eps": None},
               lists={"alpha_list": ...}, run=True)
    d, x_max, eps, h = c["d"], c["x_max"], c["eps"], c["mesh"]["h"]
    alphas = list(c["alpha_list"])
    if not alphas:
        raise ConfigError("cusp config: 'alpha_list' must be nonempty")
    if any(a >= 0 for a in alphas):
        raise ConfigError("cusp strengths must be negative")
    if not all(abs(a2) > abs(a1) for a1, a2 in zip(alphas, alphas[1:])):
        raise ConfigError("alpha list must increase in magnitude")
    net = cusp_network(d, x_max, c["beta_cap"])

    decay = 2.0 / max(abs(a) for a in alphas)
    if decay < 4.0 * h:
        raise fem.ResolutionError(
            f"mesh too coarse for alpha={min(alphas)}: transverse decay length "
            f"{decay:.4f} is below 4h = {4 * h:.4f}"
        )
    _check_run("cusp", {**c, "alpha": alphas[0]}, "eps", [net])

    power = 6.0 / (d + 2.0)
    e1 = float(cusp_operator_eigs(d, k=1)[0])
    target = 2.0 ** (2.0 / (d + 2.0)) * e1

    mesh = _mesh(c["mesh"])
    base = fem.assemble_base(mesh)
    rows, flags = [], {}
    r_devs, shifts = [], []
    ground = None
    for alpha in alphas:
        op = Operator.from_config({"alpha": alpha}, net, base)
        form = op.form(eps)
        _dump(c, f"alpha_{alpha:g}", form)
        res = op.solve(form, near=ground)
        ground = res.eigenvectors[:, 0]
        lam = float(res.eigenvalues[0])
        weak = lam > -1e-6
        if weak:
            flags[f"alpha_{alpha}_outside_asymptotic_regime"] = True
            r = None
        else:
            r = (lam + alpha**2) / abs(alpha) ** power
            r_devs.append(abs(r - target))
        rows.append((alpha, lam, r if r is not None else "", float(res.residuals[0])))
        shifts.append(res.shift)
    trend_ok = all(b < a for a, b in zip(r_devs, r_devs[1:])) if len(r_devs) > 1 else False
    if len(r_devs) > 1 and not trend_ok:
        flags["r_deviation_not_decreasing"] = True

    fields = {
        "cusp_operator_E1": e1,
        "target_constant": target,
        "alphas": alphas,
        "lam1": [row[1] for row in rows],
        "r_values": [row[2] if row[2] != "" else None for row in rows],
        "r_deviations": r_devs,
        "trend_decreasing": trend_ok,
        "solver": {"residuals": [row[3] for row in rows], "shifts": shifts},
    }
    return _envelope(
        "cusp", cfg, fields, flags, (("alpha", "lam1", "r", "residual"), rows),
        out=c["out"], net=net, mesh=mesh, squeezed=eps is not None,
    )


def _wedge_criterion(phi, alpha, theta) -> dict:
    """Report block of the wedge criterion `oracles.wedge_F_infimum`, shared
    by the `wedge` and `wedge-f` reports."""
    inf = wedge_F_infimum(WedgeParams(phi=phi, alpha=alpha, theta=theta))
    return {
        "inf_F": inf.value,
        "argmin": list(inf.argmin),
        "predicts_discrete_spectrum": inf.negative,
        "refined": inf.refined,
    }


def _eigen_rows(res):
    return [(i, v, r) for i, (v, r) in enumerate(zip(res.eigenvalues, res.residuals))]


def run_wedge(cfg: dict):
    """Magnetic wedge scenario: analytic criterion plus the assembled form.

    Evaluates the criterion-function infimum (when the essential-spectrum
    input Theta is supplied) and assembles the complex magnetic operator
    with the concentrated or squeezed term on the two truncated wedge rays;
    reports the lowest eigenvalue, the Hermiticity residual, and whether
    the eigenvalue undercuts Theta * b.
    """
    c = _check("wedge", cfg, counts={"k": 1},
               reals={"phi": ..., "b": 0.0, "theta": None, "ray_length": None, "beta_cap": 0.3,
                      "eps": None}, strengths={"alpha": ...}, run=True)
    phi, alpha, b, theta, eps = (c[key] for key in ("phi", "alpha", "b", "theta", "eps"))
    if b == 0.0:
        raise ConfigError("wedge scenario needs a nonzero magnetic field b")
    if not 0.0 < phi < np.pi:
        raise ConfigError(f"phi must lie in (0, pi), got {phi}")
    box = c["mesh"]["box"]
    (x0, x1), (y0, y1) = box
    if not (x0 < 0.0 < x1 and y0 < 0.0 < y1):
        raise ConfigError(
            f"wedge box {box} must contain the wedge vertex (0, 0) in its interior"
        )

    margin = min(abs(v) for pair in box for v in pair)
    ray_len = 0.8 * margin if c["ray_length"] is None else c["ray_length"]
    net = geometry.Network(
        [
            geometry.LineSegment((0.0, 0.0), (ray_len, 0.0)),
            geometry.LineSegment(
                (0.0, 0.0), (ray_len * np.cos(phi), ray_len * np.sin(phi))
            ),
        ],
        beta_cap=c["beta_cap"],
    )
    [profiles] = _check_run("wedge", c, "eps", [net])

    if theta is None:
        logger.warning("wedge: Theta not supplied, criterion block skipped")
    criterion = None if theta is None else _wedge_criterion(phi, alpha, theta)

    base = fem.assemble_base(_mesh(c["mesh"]), fem.homogeneous_gauge(b))
    op = Operator.from_config(c, net, base, profiles)
    form = op.form(eps)
    _dump(c, "wedge", form)
    res = op.solve(form, k=c["k"])
    lam1 = float(res.eigenvalues[0])
    flags = {}
    if form.meta["hermiticity_residual"] > 1e-12:
        flags["hermiticity_violated"] = True

    fields = {
        "criterion": criterion,
        "lam1": lam1,
        "eigenvalues": res.eigenvalues.tolist(),
        "hermiticity_residual": form.meta["hermiticity_residual"],
        "below_field_threshold": bool(lam1 < theta * b) if theta is not None else None,
        "solver": {"residuals": res.residuals.tolist(), "shift": res.shift},
    }
    return _envelope(
        "wedge", cfg, fields, flags, (("index", "lam", "residual"), _eigen_rows(res)),
        out=c["out"], net=net, mesh=op.base.mesh, squeezed=eps is not None,
    )


def run_spectrum(cfg: dict):
    """Assemble the configured operator and report its k lowest eigenpairs."""
    c = _check("spectrum", cfg, blocks={"network": ...}, counts={"k": 3},
               reals={"field_b": 0.0, "q": 0.0, "eps": None}, strengths={"alpha": None}, run=True)
    eps = c["eps"]
    net = network_from_spec(c["network"])
    [profiles] = _check_run("spectrum", c, "eps", [net])
    op = Operator.from_config(c, net, profiles=profiles)
    form = op.form(eps)
    _dump(c, "spectrum", form)
    res = op.solve(form, k=c["k"])
    fields = {
        "eigenvalues": res.eigenvalues.tolist(),
        "solver": {
            "residuals": res.residuals.tolist(),
            "shift": res.shift,
            "rayleigh_imag": res.rayleigh_imag,
        },
        "hermiticity_residual": form.meta["hermiticity_residual"],
    }
    return _envelope(
        "spectrum", cfg, fields, {}, (("index", "lam", "residual"), _eigen_rows(res)),
        out=c["out"], net=net, mesh=op.base.mesh, squeezed=eps is not None,
    )
