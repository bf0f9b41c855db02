"""Experiment orchestration: configs, scenario runners, reports.

Every scenario solves a member of (i grad + A)^2 + Q + alpha delta_Sigma or
of its squeezed regularizations.  Every runner reads its config dict
through `_require` (missing keys) and `_check_out` (the output directory,
made before any mesh is built).  A runner builds `Operator` records (mesh,
network, profiles, strengths, A, Q) from its config, one mesh per distinct
box and step; `Operator.solve` is the one path from form to eigenpairs.
Every report goes through `_envelope`, which adds the config echo, the
certified tube half-width, the mesh summary and the flags, and writes
report.json and data.csv with the SHA-256 of the CSV payload embedded;
identical config and seed give bit-identical files.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.io

from . import fem, geometry, potentials, spectral
from .oracles import WedgeParams, cusp_operator_eigs, wedge_F_infimum

__all__ = [
    "ConfigError",
    "Operator",
    "geometric_eps_grid",
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


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _require(scenario, cfg: dict, *keys):
    """Raise ConfigError naming the scenario and the first of `keys` that cfg
    lacks; "mesh.h" names the entry h of the block cfg["mesh"]."""
    for key in keys:
        block = cfg
        for part in key.split("."):
            if not isinstance(block, dict) or part not in block:
                raise ConfigError(f"{scenario} config is missing {key!r}")
            block = block[part]


def _check_out(scenario, cfg: dict):
    """Create cfg["out"] when set, before any mesh is built; raise ConfigError
    naming the scenario and the path when it is not a writable directory."""
    out = cfg.get("out")
    if out is None:
        return
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"{scenario} output path not writable: {out} ({err.strerror})") from None
    if not os.access(out, os.W_OK):
        raise ConfigError(f"{scenario} output path not writable: {out}")


def geometric_eps_grid(eps_max: float, n: int, ratio: float = 0.7):
    """Default squeezing grid: n widths decreasing geometrically from eps_max."""
    if not 0.0 < ratio < 1.0 or eps_max <= 0.0 or n < 1:
        raise ConfigError("need eps_max > 0, n >= 1 and ratio in (0, 1)")
    return [eps_max * ratio**i for i in range(n)]


def _segment_from_spec(spec: dict) -> geometry.CurveSegment:
    kind = spec.get("kind")
    if kind == "line":
        return geometry.LineSegment(spec["p0"], spec["p1"])
    if kind == "arc":
        return geometry.CircularArc(
            spec["center"], spec["radius"], spec["theta0"], spec["theta1"]
        )
    if kind == "cusp":
        return geometry.CuspBranch(
            spec["exponent"],
            spec.get("sign", 1.0),
            spec.get("x_max", 1.0),
            spec.get("collar", 1e-3),
        )
    if kind == "spline":
        return geometry.SplineSegment(spec["points"])
    raise ConfigError(f"unknown segment kind: {kind!r}")


def network_from_spec(spec: dict) -> geometry.Network:
    """Network from {"beta_cap": ..., "segments": [{kind, parameters...}]}."""
    try:
        segments = [_segment_from_spec(s) for s in spec["segments"]]
        return geometry.Network(segments, beta_cap=spec["beta_cap"])
    except KeyError as missing:
        raise ConfigError(f"network spec missing {missing}") from None


def _profile_from_spec(spec: dict, beta: float) -> potentials.TubeProfile:
    seg = spec.get("segment", 0)
    kind = spec.get("kind")
    if kind == "constant":
        return potentials.constant_profile(seg, spec["value"], beta)
    if kind == "separable":

        def poly(coeffs):
            c = np.asarray(coeffs, dtype=float)
            return lambda u: np.polyval(c[::-1], u)

        return potentials.separable_profile(
            seg, poly(spec["g_s"]), poly(spec["g_t"]), beta
        )
    if kind == "tabulated":
        return potentials.tabulated_profile(
            seg, spec["s_grid"], spec["t_grid"], np.asarray(spec["values"]), beta
        )
    raise ConfigError(f"unknown profile kind: {kind!r}")


def profiles_from_config(cfg: dict, net: geometry.Network):
    """Profiles from cfg["profile"], or from cfg["alpha"] via the inverse
    construction V = alpha / (2 beta) on the tube."""
    if cfg.get("profile") is not None:
        specs = cfg["profile"]
        if isinstance(specs, dict):
            specs = [specs]
        return [_profile_from_spec(s, net.beta) for s in specs]
    if cfg.get("alpha") is not None:
        alphas = cfg["alpha"]
        if np.isscalar(alphas):
            alphas = [alphas] * len(net.segments)
        return [
            potentials.potential_from_alpha(
                potentials.StrengthFunction.constant(k, a), net.beta
            )
            for k, a in enumerate(alphas)
        ]
    raise ConfigError("config needs either 'profile' or 'alpha'")


def _q_function(spec):
    if spec is None:
        return None
    if np.isscalar(spec):
        return None if spec == 0 else float(spec)
    if spec.get("kind") == "constant":
        return None if spec["value"] == 0 else float(spec["value"])
    raise ConfigError(f"unknown background potential spec: {spec!r}")


def _gauge(field_b):
    return fem.homogeneous_gauge(field_b) if field_b else None


def _mesh(spec: dict, refine: int = 1) -> fem.Mesh:
    """Mesh of a config's {"box", "h"} block, with the step divided by `refine`."""
    return fem.build_mesh(tuple(map(tuple, spec["box"])), spec["h"] / refine)


def _strength_scale(strength, length):
    """sup |alpha| of a strength entry (scalar or callable of arc length)."""
    if callable(strength):
        return float(np.max(np.abs(strength(np.linspace(0.0, length, 65)))))
    return abs(strength)


def squeezed_shift_floor(net, profiles, eps, q_min: float = 0.0):
    """Shift guaranteed below a squeezed pencil: min of the scaled potential.

    The kinetic part is positive semidefinite and the edge-midpoint rule
    makes the potential matrix bounded below by min(V_eps) times the mass
    matrix, so lam_1 >= min(0, min V_eps) + min(0, min Q); the returned
    shift sits 2 percent plus one unit below that (sampled) bound.
    """
    vmin = 0.0
    ratio = net.beta / eps
    for p in profiles:
        seg = net.segments[p.segment]
        s = np.linspace(0.0, seg.length, 65)
        t = np.linspace(-net.beta, net.beta, 33) * (1 - 1e-12)
        vals = np.real(p.fun(s[:, None], t[None, :]))
        vmin = min(vmin, ratio * float(np.min(vals)))
    floor = vmin + min(0.0, q_min)
    return 1.02 * floor - 1.0


def trial_upper_bound(mesh, net, strengths, form):
    """Variational bound lam_1 <= min R(v) over transverse-decay trial states.

    The candidates interpolate exp(-c |alpha_k| dist(x, Sigma_k) / 2) for
    c = 1 (single-line bound-state profile) and c = 2 (the steeper profile of
    merged tubes near vertices and cusps, where strengths effectively add).
    Every Rayleigh quotient on the assembled pencil is a rigorous upper
    bound for the discrete ground state, so the minimum seeds the shift rule
    of the eigensolver without any probing factorization.
    """
    scales = {
        k: _strength_scale(a, net.segments[k].length)
        for k, a in strengths.items()
        if a is not None
    }
    scales = {k: a for k, a in scales.items() if a > 0.0}
    if not scales:
        return None
    pts = np.stack([mesh.node_x[mesh.interior], mesh.node_y[mesh.interior]], axis=1)
    decay = np.full(len(pts), np.inf)
    for k, a in scales.items():
        decay = np.minimum(decay, a * net.sampled_distance(k, pts))
    best = None
    for c in (1.0, 2.0):
        v = np.exp(-0.5 * c * decay)
        num = float(np.real(np.vdot(v, form.S @ v)))
        den = float(np.real(np.vdot(v, form.M @ v)))
        if den > 0:
            best = num / den if best is None else min(best, num / den)
    return best


@dataclass(frozen=True)
class Operator:
    """(i grad + A)^2 + Q + alpha delta_Sigma on a mesh, with the tube profiles
    of its squeezed regularizations.  `strengths` maps a segment index to a
    scalar alpha or a callable alpha(s); Q is a constant or None."""

    mesh: fem.Mesh
    net: geometry.Network
    profiles: list
    strengths: dict
    A: object = None
    Q: float | None = None

    @classmethod
    def from_config(cls, cfg: dict) -> "Operator":
        """From the mesh, network, profile or alpha, field_b and q entries."""
        net = network_from_spec(cfg["network"])
        profiles = profiles_from_config(cfg, net)
        strengths = {p.segment: potentials.effective_alpha(p) for p in profiles}
        return cls(_mesh(cfg["mesh"]), net, profiles, strengths,
                   _gauge(cfg.get("field_b", 0.0)), _q_function(cfg.get("q")))

    @classmethod
    def uniform(cls, mesh, net, alpha: float, A=None) -> "Operator":
        """The constant strength alpha on every segment."""
        profiles = profiles_from_config({"alpha": alpha}, net)
        return cls(mesh, net, profiles, {i: alpha for i in range(len(net.segments))}, A)

    def form(self, eps=None) -> fem.AssembledForm:
        """The delta form, or the squeezed form of tube width eps."""
        if eps is None:
            return fem.build_form(self.mesh, A=self.A, Q=self.Q, net=self.net,
                                  strengths=self.strengths)
        W = potentials.SqueezedPotential(self.net, self.profiles, eps)
        return fem.build_form(self.mesh, A=self.A, Q=self.Q, potential=W, eps=eps)

    def solve(self, eps=None, *, k: int = 1, seed: int = 7, form=None):
        """(form, k lowest eigenpairs) of the delta or squeezed operator; `form`
        reuses the form at eps.  A squeezed pencil is shifted to its potential
        floor, Q included; the trial bound seeds the delta shift.  Without a
        trial bound (all strengths zero) `lowest_eigs` certifies the shift by
        inertia."""
        if form is None:
            form = self.form(eps)
        shift = None
        if eps is not None:
            shift = squeezed_shift_floor(self.net, self.profiles, eps, self.Q or 0.0)
        bound = trial_upper_bound(self.mesh, self.net, self.strengths, form)
        res = spectral.lowest_eigs(form.S, form.M, k=k, shift=shift, seed=seed,
                                   upper_estimate=bound)
        return form, res


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
    """CSV of (segment, s, alpha(s)) sampled along each segment."""
    lines = ["segment,s,alpha"]
    for k, strength in sorted(strengths.items()):
        seg = net.segments[k]
        s = np.linspace(0.0, seg.length, samples)
        a = strength(s) if callable(strength) else np.full(samples, strength)
        for si, ai in zip(s, np.asarray(a, dtype=complex)):
            val = ai.real if ai.imag == 0 else ai
            lines.append(f"{k},{_format_float(float(si))},{val}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _envelope(scenario, config, fields, flags, csv, *, net, mesh, beta_cap,
              out=None, squeezed=None, dump_mm=None, forms=()):
    """(report, status) of a run, status 2 when any flag fired, else 0.  Adds
    the shared entries to `fields`, and `form` unless `squeezed` is None;
    dumps the (tag, form) pairs of `forms` as S and M Matrix Market files;
    writes the report and the (header, rows) pair `csv` when `out` is set."""
    report = {
        "scenario": scenario,
        "config": config,
        "beta": net.beta,
        "beta_cap": beta_cap,
        "mesh": mesh.summary(),
        **fields,
        "flags": flags,
    }
    if squeezed is not None:
        report["form"] = "squeezed" if squeezed else "delta"
    if dump_mm:
        os.makedirs(dump_mm, exist_ok=True)
        for tag, form in forms:
            scipy.io.mmwrite(os.path.join(dump_mm, f"{tag}_S.mtx"), form.S)
            scipy.io.mmwrite(os.path.join(dump_mm, f"{tag}_M.mtx"), form.M)
    if out:
        report = write_report(out, report, *csv)
    return report, (2 if flags else 0)


def run_convergence(cfg, dump_mm: str | None = None):
    """Norm-resolvent comparison of the concentrated and squeezed operators.

    Assembles the delta form once and one squeezed form per eps on the shared
    mesh, measures the discrete resolvent-difference norm and the lowest-
    eigenvalue gap at a common shift below all spectra, and fits log-log
    rates.  Returns (report, status): status 2 when any flag fired, else 0.
    """
    _require("convergence", cfg, "mesh.box", "mesh.h", "network")
    eps_grid = np.asarray(cfg.get("eps_grid", []), dtype=float)
    if eps_grid.size == 0:
        raise ConfigError("eps_grid must be nonempty")
    if not np.all(np.diff(eps_grid) < 0):
        raise ConfigError("eps_grid must be strictly decreasing")
    h = cfg["mesh"]["h"]
    if h > eps_grid.min() / 4.0 + 1e-12:
        raise ConfigError(
            f"mesh too coarse: h={h} must satisfy h <= min(eps)/4 = {eps_grid.min()/4}"
        )
    _check_out("convergence", cfg)
    seed, threads, out = cfg.get("seed", 7), cfg.get("threads", 1), cfg.get("out")
    op = Operator.from_config(cfg)
    net = op.net
    if eps_grid.max() > net.beta + 1e-12:
        raise ConfigError(f"max eps {eps_grid.max()} exceeds beta {net.beta}")

    form_delta, res_delta = op.solve(seed=seed)
    lam_delta = float(res_delta.eigenvalues[0])

    def norm_point(i, factor_eps):
        return spectral.resolvent_diff_norm(
            factor_delta,
            factor_eps,
            form_delta.M,
            factor_delta.lam,
            seed=seed + 1000 + i,
        )

    # The norms use the common shift min(lam) - max(1, |lam_delta|) over the
    # delta and every eps pencil.  That is `shift` unless some lam_eps lies
    # below lam_delta, so each eps pencil is factored once, at `shift`, for
    # both its eigensolve and its norm, once inertia certifies the factor.
    shift = lam_delta - max(1.0, abs(lam_delta))
    factor_delta = spectral.ResolventFactor(form_delta.S, form_delta.M, shift)

    def eps_point(i):
        """(form, eigensolve, norm at `shift`, or None when `shift` is not
        certified below this pencil)."""
        eps = eps_grid[i]
        try:
            form_eps = op.form(eps)
            factor = spectral.ResolventFactor(form_eps.S, form_eps.M, shift)
            try:
                res = spectral.lowest_eigs(form_eps.S, form_eps.M, seed=seed, factor=factor)
            except spectral.ShiftError:
                res = None
            if res is not None:
                return form_eps, res, norm_point(i, factor)
            del factor  # freed before the fresh eigensolve factors the pencil again
            _, res = op.solve(eps, seed=seed, form=form_eps)
            return form_eps, res, None
        except Exception as err:
            err.args = (f"eps={eps}: {err}",)
            raise

    def map_eps(fn):
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                return list(pool.map(fn, range(len(eps_grid))))
        return [fn(i) for i in range(len(eps_grid))]

    eps_results = map_eps(eps_point)
    lam_eps = [float(r.eigenvalues[0]) for _, r, _ in eps_results]
    norms = [n for _, _, n in eps_results]
    if None in norms or min(lam_eps) < lam_delta:
        # recompute every norm at the common shift, with fresh factors
        shift = min(lam_delta, min(lam_eps)) - max(1.0, abs(lam_delta))
        del factor_delta
        factor_delta = spectral.ResolventFactor(form_delta.S, form_delta.M, shift)
        norms = map_eps(lambda i: norm_point(i, eps_results[i][0].S))
    del factor_delta  # freed before the optional check on the finer mesh

    res_norms = [n.value for n in norms]
    gaps = [abs(le - lam_delta) for le in lam_eps]

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
    alpha = cfg.get("alpha")
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
    if cfg.get("refine_check", False):
        op2 = replace(op, mesh=_mesh(cfg["mesh"], refine=2))
        fd2, fe2 = op2.form(), op2.form(float(eps_grid[0]))
        n2 = spectral.resolvent_diff_norm(fd2.S, fe2.S, fd2.M, shift, seed=seed + 1000)
        change = abs(n2.value - res_norms[0]) / max(res_norms[0], 1e-300)
        refine_block = {"h": h / 2, "norm": n2.value, "rel_change": change}
        if change >= 0.25:
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
            "eps_residuals": [r.residuals.tolist() for _, r, _ in eps_results],
            "power_iterations": [n.iterations for n in norms],
        },
        "self_check": self_check,
        "refine_check": refine_block,
    }
    rows = [
        (float(e), float(nv), float(g), bool(c))
        for e, nv, g, c in zip(eps_grid, res_norms, gaps, [n.converged for n in norms])
    ]
    forms = [("delta", form_delta)] + [
        (f"eps_{e:g}", form) for (form, _, _), e in zip(eps_results, eps_grid)]
    report, status = _envelope(
        "convergence", dict(cfg), fields, flags,
        (("eps", "res_norm", "eig_gap", "converged"), rows),
        net=net, mesh=op.mesh, beta_cap=cfg["network"]["beta_cap"], out=out,
        dump_mm=dump_mm, forms=forms,
    )
    if out:
        export_strengths_csv(net, op.strengths, os.path.join(out, "strengths.csv"))
    return report, status


def _fit_dict(fit):
    if fit is None:
        return None
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "stderr": fit.stderr,
        "ci95": list(fit.ci95),
        "n_used": fit.n_used,
        "n_excluded": fit.n_excluded,
    }


def _star_network(angles_deg, length, rot_deg=0.0, beta_cap=0.4):
    azimuth = [0.0]
    for a in angles_deg[:-1]:
        azimuth.append(azimuth[-1] + a)
    segs = []
    for theta in azimuth:
        th = np.radians(theta + rot_deg)
        segs.append(
            geometry.LineSegment(
                (0.0, 0.0), (length * np.cos(th), length * np.sin(th))
            )
        )
    return geometry.Network(segs, beta_cap=beta_cap)


def run_stargraph(cfg: dict, dump_mm: str | None = None):
    """Lowest eigenvalue of a star graph against its symmetric competitor.

    Builds the requested star and the symmetric one with the same edge count
    and length, solves both on the same mesh at h and h/2 (the refinement
    supplies the discretization error bar), and reports the gap, the
    rotation-congruence check, and pass flags.
    """
    _require("stargraph", cfg, "N", "angles", "alpha", "mesh.box", "mesh.h")
    N = cfg["N"]
    L = cfg.get("L", 1.0)
    angles = list(cfg["angles"])
    alpha = cfg["alpha"]
    eps = cfg.get("eps")
    seed = cfg.get("seed", 7)
    if N <= 2:
        raise ConfigError("star graph needs N > 2 edges")
    if len(angles) != N:
        raise ConfigError(f"expected {N} angles, got {len(angles)}")
    if abs(sum(angles) - 360.0) > 1e-8:
        raise ConfigError(f"angles must sum to 360 degrees, got {sum(angles)}")
    beta_cap = cfg.get("beta_cap", 0.4)
    _check_out("stargraph", cfg)

    nets = {
        "sigma": _star_network(angles, L, beta_cap=beta_cap),
        "gamma": _star_network([360.0 / N] * N, L, beta_cap=beta_cap),
        "rot": _star_network([360.0 / N] * N, L, rot_deg=cfg.get("rot_deg", 17.0),
                             beta_cap=beta_cap),
    }
    meshes = {"h": _mesh(cfg["mesh"]), "h2": _mesh(cfg["mesh"], refine=2)}
    values, forms = {}, []
    for step, mesh in meshes.items():
        for name, net in nets.items():
            tag = f"{name}_{step}"
            form, res = Operator.uniform(mesh, net, alpha).solve(eps, seed=seed)
            values[tag] = {
                "lam": float(res.eigenvalues[0]),
                "residual": float(res.residuals[0]),
                "shift": res.shift,
            }
            if dump_mm and tag in ("sigma_h", "gamma_h"):
                forms.append((tag, form))

    # one refinement per compared eigenvalue; the rotated graph usually has
    # the largest discretization error (no mesh-aligned edge)
    mesh_error = max(
        abs(values["sigma_h"]["lam"] - values["sigma_h2"]["lam"]),
        abs(values["gamma_h"]["lam"] - values["gamma_h2"]["lam"]),
        abs(values["rot_h"]["lam"] - values["rot_h2"]["lam"]),
    )
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
        "stargraph", dict(cfg), fields, flags, (("graph", "lam_h", "lam_h2"), rows),
        net=nets["sigma"], mesh=meshes["h"], beta_cap=beta_cap, out=cfg.get("out"),
        squeezed=eps is not None, dump_mm=dump_mm, forms=forms,
    )


def cusp_network(d: float, x_max: float, collar: float = 1e-3, beta_cap: float = 0.25):
    """Closed cusp curve: branches y = +-x^d joined by a tangent-matching arc."""
    xc = x_max + d * x_max ** (2 * d - 1)
    radius = float(np.hypot(x_max - xc, x_max**d))
    theta1 = float(np.arctan2(x_max**d, x_max - xc))
    segs = [
        geometry.CuspBranch(d, 1.0, x_max, collar),
        geometry.CuspBranch(d, -1.0, x_max, collar),
        geometry.CircularArc((xc, 0.0), radius, theta1, -theta1),
    ]
    return geometry.Network(segs, beta_cap=beta_cap)


def run_cusp(cfg: dict, dump_mm: str | None = None):
    """Cusp-induced eigenvalues against the half-line operator asymptotics.

    For each strength alpha the lowest eigenvalue of the delta operator on
    the closed cusp curve gives r(alpha) = (lam1 + alpha^2) / |alpha|^p with
    p = 6/(d+2); the report tracks |r - 2^(2/(d+2)) E_1| along the alpha list
    (expected to shrink as |alpha| grows).
    """
    _require("cusp", cfg, "d", "alpha_list", "mesh.box", "mesh.h")
    d = cfg["d"]
    alphas = list(cfg["alpha_list"])
    if any(a >= 0 for a in alphas):
        raise ConfigError("cusp strengths must be negative")
    if not all(abs(a2) > abs(a1) for a1, a2 in zip(alphas, alphas[1:])):
        raise ConfigError("alpha list must increase in magnitude")
    x_max = cfg.get("x_max", 0.75)
    eps = cfg.get("eps")
    seed = cfg.get("seed", 7)
    h = cfg["mesh"]["h"]
    beta_cap = cfg.get("beta_cap", 0.25)
    net = cusp_network(d, x_max, beta_cap=beta_cap)

    decay = 2.0 / max(abs(a) for a in alphas)
    if decay < 4.0 * h:
        raise fem.ResolutionError(
            f"mesh too coarse for alpha={min(alphas)}: transverse decay length "
            f"{decay:.4f} is below 4h = {4 * h:.4f}"
        )
    _check_out("cusp", cfg)

    power = 6.0 / (d + 2.0)
    e1 = float(cusp_operator_eigs(d, k=1)[0])
    target = 2.0 ** (2.0 / (d + 2.0)) * e1

    mesh = _mesh(cfg["mesh"])
    rows, flags, forms = [], {}, []
    r_devs, shifts = [], []
    for alpha in alphas:
        form, res = Operator.uniform(mesh, net, alpha).solve(eps, seed=seed)
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
        if dump_mm:
            forms.append((f"alpha_{alpha:g}", form))
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
        "cusp", dict(cfg), fields, flags, (("alpha", "lam1", "r", "residual"), rows),
        net=net, mesh=mesh, beta_cap=beta_cap, out=cfg.get("out"),
        squeezed=eps is not None, dump_mm=dump_mm, forms=forms,
    )


def _eigen_rows(res):
    return [(i, v, r) for i, (v, r) in enumerate(zip(res.eigenvalues, res.residuals))]


def run_wedge(cfg: dict, dump_mm: str | None = None):
    """Magnetic wedge scenario: analytic criterion plus the assembled form.

    Evaluates the criterion-function infimum (when the essential-spectrum
    input Theta is supplied) and assembles the complex magnetic operator
    with the concentrated or squeezed term on the two truncated wedge rays;
    reports the lowest eigenvalue, the Hermiticity residual, and whether
    the eigenvalue undercuts Theta * b.
    """
    _require("wedge", cfg, "phi", "alpha", "mesh.box", "mesh.h")
    phi = cfg["phi"]
    alpha = cfg["alpha"]
    b = cfg.get("b", 0.0)
    theta = cfg.get("theta")
    eps = cfg.get("eps")
    seed = cfg.get("seed", 7)
    if b == 0.0:
        raise ConfigError("wedge scenario needs a nonzero magnetic field b")
    if not 0.0 < phi < np.pi:
        raise ConfigError(f"phi must lie in (0, pi), got {phi}")
    box = cfg["mesh"]["box"]
    (x0, x1), (y0, y1) = box
    if not (x0 < 0.0 < x1 and y0 < 0.0 < y1):
        raise ConfigError(
            f"wedge box {box} must contain the wedge vertex (0, 0) in its interior"
        )
    _check_out("wedge", cfg)

    criterion = None
    if theta is not None:
        inf = wedge_F_infimum(WedgeParams(phi=phi, alpha=alpha, theta=theta))
        criterion = {
            "inf_F": inf.value,
            "argmin": list(inf.argmin),
            "predicts_discrete_spectrum": inf.negative,
            "refined": inf.refined,
        }
    else:
        warnings.warn("wedge: Theta not supplied, criterion block skipped",
                      stacklevel=2)

    margin = min(abs(v) for pair in box for v in pair)
    ray_len = cfg.get("ray_length", 0.8 * margin)
    net = geometry.Network(
        [
            geometry.LineSegment((0.0, 0.0), (ray_len, 0.0)),
            geometry.LineSegment(
                (0.0, 0.0), (ray_len * np.cos(phi), ray_len * np.sin(phi))
            ),
        ],
        beta_cap=cfg.get("beta_cap", 0.3),
    )
    op = Operator.uniform(_mesh(cfg["mesh"]), net, alpha, A=fem.homogeneous_gauge(b))
    form, res = op.solve(eps, k=cfg.get("k", 1), seed=seed)
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
        "wedge", dict(cfg), fields, flags, (("index", "lam", "residual"), _eigen_rows(res)),
        net=net, mesh=op.mesh, beta_cap=cfg.get("beta_cap", 0.3), out=cfg.get("out"),
        squeezed=eps is not None, dump_mm=dump_mm, forms=[("wedge", form)],
    )


def run_spectrum(cfg: dict, dump_mm: str | None = None):
    """Assemble the configured operator and report its k lowest eigenpairs."""
    _require("spectrum", cfg, "mesh.box", "mesh.h", "network")
    _check_out("spectrum", cfg)
    op = Operator.from_config(cfg)
    eps = cfg.get("eps")
    form, res = op.solve(eps, k=cfg.get("k", 3), seed=cfg.get("seed", 7))
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
        "spectrum", dict(cfg), fields, {}, (("index", "lam", "residual"), _eigen_rows(res)),
        net=op.net, mesh=op.mesh, beta_cap=cfg["network"]["beta_cap"],
        out=cfg.get("out"), squeezed=eps is not None, dump_mm=dump_mm,
        forms=[("spectrum", form)],
    )
