import dataclasses
import hashlib
import json
import logging
import os
import re
import weakref

import numpy as np
import pytest
import scipy.io
import scipy.linalg as sla
from conftest import assert_same_csr, full_node_form

from deltasqueeze import cli, fem, frontal, geometry, lab, oracles, potentials, spectral
from deltasqueeze.fem import ResolutionError
from deltasqueeze.lab import (
    ConfigError,
    Operator,
    _eps_sweep,
    cusp_network,
    network_from_spec,
    run_convergence,
    run_cusp,
    run_spectrum,
    run_stargraph,
    run_wedge,
    trial_upper_bound,
)


def small_convergence_cfg(**over):
    cfg = {
        "seed": 11,
        "mesh": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 1.0 / 16.0},
        "network": {
            "beta_cap": 1.0,
            "segments": [{"kind": "line", "p0": [-1.0, 0.0], "p1": [1.0, 0.0]}],
        },
        "alpha": -5.0,
        "eps_grid": [0.5, 0.35, 0.25],
    }
    cfg.update(over)
    return cfg


def config_operator(cfg):
    """The `lab.Operator` of a config, on the network of its spec."""
    return Operator.from_config(cfg, network_from_spec(cfg["network"]))


# ------------------------------------------------------------- convergence


def test_convergence_reports_each_eps_strength_error_from_its_form():
    cfg = small_convergence_cfg()
    report, _ = run_convergence(cfg)
    op = config_operator(cfg)
    # int alpha = -5 * 2 on the line; int V_eps is the sum of the form's term
    want = [op.form(eps).potential_sum / -10.0 - 1.0 for eps in cfg["eps_grid"]]
    assert report["solver"]["strength_errors"] == pytest.approx(want, rel=1e-12)
    assert all(0.0 < abs(e) < 0.1 for e in want)


def test_the_sweep_keeps_no_eps_eigenvector():
    # each eps point keeps its eigenvalue, residuals and value error, and no
    # n-vector; the report reads the same numbers from a sweep made alike
    cfg = small_convergence_cfg()
    report, _ = run_convergence(cfg)
    op = config_operator(cfg)
    res = op.solve(op.form(), values_only=True)
    lam = float(res.eigenvalues[0])
    shift = lam - max(1.0, abs(lam))
    assert report["shift"] == shift
    swept = _eps_sweep(op, {}, res.eigenvectors[:, 0], shift, cfg["eps_grid"])
    n = op.base.mesh.n_interior
    for r, _ in swept:
        assert r.eigenvectors is None
        assert all(np.size(getattr(r, f.name)) < n for f in dataclasses.fields(r))
    solver = report["solver"]
    assert report["lam_eps"] == [float(r.eigenvalues[0]) for r, _ in swept]
    assert solver["eps_residuals"] == [r.residuals.tolist() for r, _ in swept]
    assert solver["eps_value_errors"] == [r.value_error for r, _ in swept]
    assert report["res_norms"] == [norm.value for _, norm in swept]


def test_convergence_run_basic():
    report, status = run_convergence(small_convergence_cfg())
    assert report["lam_delta"] < 0.0
    assert all(n > 0 for n in report["res_norms"])
    assert report["self_check"]["pass"]
    assert report["shift"] < report["lam_delta"]
    assert report["shift_verified_below_all_pencils"]
    assert report["norm_fit"] is not None
    assert report["beta"] == 1.0
    assert "mesh" in report and report["mesh"]["h"] == 1.0 / 16.0
    # the report lists the value error estimate of every eigensolve and norm
    solver = report["solver"]
    errors = [solver["delta_value_error"], *solver["eps_value_errors"],
              *solver["norm_value_errors"]]
    assert len(errors) == 1 + 2 * len(report["lam_eps"])
    assert all(0.0 <= e <= 1e-12 for e in errors)


def test_convergence_single_eps_flagged_insufficient():
    report, status = run_convergence(
        small_convergence_cfg(eps_grid=[0.5], seed=3)
    )
    assert report["norm_fit"] is None
    assert report["flags"].get("insufficient_points_for_fit")
    assert status == 2


def test_convergence_validates_grid_and_resolution():
    with pytest.raises(ConfigError):
        run_convergence(small_convergence_cfg(eps_grid=[0.25, 0.35]))
    with pytest.raises(ConfigError):
        run_convergence(
            small_convergence_cfg(eps_grid=[0.5, 0.35, 0.2])  # h > eps/4
        )
    with pytest.raises(ConfigError):
        run_convergence(small_convergence_cfg(eps_grid=[1.5, 1.0, 0.5]))


def test_convergence_reports_are_bit_reproducible(tmp_path):
    cfg = small_convergence_cfg(out=str(tmp_path / "a"))
    rep_a, _ = run_convergence(cfg)
    cfg_b = small_convergence_cfg(out=str(tmp_path / "b"))
    rep_b, _ = run_convergence(cfg_b)
    csv_a = (tmp_path / "a" / "data.csv").read_bytes()
    csv_b = (tmp_path / "b" / "data.csv").read_bytes()
    assert csv_a == csv_b
    assert rep_a["csv_sha256"] == rep_b["csv_sha256"]
    assert hashlib.sha256(csv_a).hexdigest() == rep_a["csv_sha256"]
    assert (tmp_path / "a" / "strengths.csv").exists()


def test_convergence_csv_does_not_depend_on_the_seed(tmp_path):
    # every eigensolve and norm starts from a trial or a ground state
    csv = []
    for seed in (11, 12):
        out = tmp_path / str(seed)
        run_convergence(small_convergence_cfg(seed=seed, out=str(out)))
        csv.append((out / "data.csv").read_bytes())
    assert csv[0] == csv[1]


def line_spec(*ends):
    return [{"kind": "line", "p0": list(p0), "p1": list(p1)} for p0, p1 in ends]


ARMS = [(np.cos(t), np.sin(t)) for t in np.radians([0.0, 120.0, 240.0])]
NORM_GEOMETRIES = {
    "attractive_line": {},
    "repulsive_line": {"alpha": 5.0},
    "weak_line": {"alpha": -0.5},
    "star_3_arms": {"network": {"beta_cap": 1.0,
                                "segments": line_spec(*(((0.0, 0.0), a) for a in ARMS))}},
    "magnetic_arc": {"field_b": 2.0, "network": {"beta_cap": 1.0, "segments": [
        {"kind": "arc", "center": [0.0, 0.0], "radius": 1.0, "theta0": 0.0, "theta1": 3.0}]}},
    "parallel_lines": {"network": {"beta_cap": 1.0, "segments": line_spec(
        ((-1.0, -0.75), (1.0, -0.75)), ((-1.0, 0.75), (1.0, 0.75)))}},
}
# most applications of D that a warm-started norm takes on each geometry
NORM_APPLICATIONS = {"attractive_line": 6, "repulsive_line": 7, "weak_line": 6,
                     "star_3_arms": 7, "magnetic_arc": 8, "parallel_lines": 7}


@pytest.mark.parametrize("name", list(NORM_GEOMETRIES))
def test_warm_started_norms_match_random_starts(name):
    cfg = small_convergence_cfg(**NORM_GEOMETRIES[name])
    report, _ = run_convergence(cfg)
    assert max(report["solver"]["power_iterations"]) <= NORM_APPLICATIONS[name]
    op = config_operator(cfg)
    form_delta = op.form()
    R_delta = spectral.ResolventFactor(form_delta.S, form_delta.M, report["shift"])
    for eps, norm in zip(cfg["eps_grid"], report["res_norms"]):
        R_eps = spectral.ResolventFactor(op.form(eps).S, form_delta.M, report["shift"])
        cold = spectral.resolvent_diff_norm(R_delta, R_eps)  # a seeded random start
        assert cold.converged
        assert norm == pytest.approx(cold.value, rel=1e-10)


def test_the_eps_pencils_read_the_shared_base_without_changing_it(monkeypatch):
    # the delta and every eps pencil build on one base, and none changes its arrays
    assemble_base, bases = fem.assemble_base, []

    def arrays(base):
        return [a for m in (base.S, base.M) for a in (m.indptr, m.indices, m.data)]

    def keeping(*args):
        base = assemble_base(*args)
        bases.append((base, [a.copy() for a in arrays(base)]))
        return base

    monkeypatch.setattr(fem, "assemble_base", keeping)
    run_convergence(small_convergence_cfg())
    assert len(bases) == 1  # one base for the delta and every eps pencil
    base, before = bases[0]
    assert all(np.array_equal(x, y) for x, y in zip(before, arrays(base)))


def test_refused_eps_counts_make_fresh_eigensolves(monkeypatch):
    # every eps count of the first sweep refused: each eps point makes a fresh
    # eigensolve through `Operator.solve`, which measures the trial distances
    shift = run_convergence(small_convergence_cfg())[0]["shift"]
    trial, calls = lab.trial_upper_bound, []
    monkeypatch.setattr(lab, "trial_upper_bound", lambda *args: calls.append(1) or trial(*args))
    # at the first sweep's shift: its delta factor, then its eps factors
    counted = refusing_counts(monkeypatch, {1: 1, 2: 1, 3: 1}, lam=shift)
    report, _ = run_convergence(small_convergence_cfg())
    # both sweeps at the shift, the rerun's counted as the first's
    assert len(counted) == 2 * (1 + 3)
    assert len(calls) == 4  # the delta eigensolve's, then one per eps
    assert report["shift"] == shift and report["shift_verified_below_all_pencils"]


REPORTED = ("lam_delta", "lam_eps", "res_norms", "eig_gaps", "shift")


def refusing_counts(monkeypatch, refused, lam=None):
    """Make `spectral.count_below` give `refused[i]` (1 or None) for the i-th
    distinct factor it counts, when given, and the true count otherwise;
    with `lam`, only the factors at the shift lam are indexed and refused.
    Returns the list of the factors indexed, in order."""
    count_below, factors = spectral.count_below, []

    def counting(factor):
        if lam is not None and factor.lam != lam:
            return count_below(factor)
        if not any(f is factor for f in factors):
            factors.append(factor)
        i = next(i for i, f in enumerate(factors) if f is factor)
        return refused[i] if i in refused else count_below(factor)

    monkeypatch.setattr(spectral, "count_below", counting)
    return factors


def test_convergence_falls_back_to_fresh_factors_when_inertia_is_not_zero(monkeypatch):
    # every tree factor is counted: the delta eigensolve's comes first, then
    # the sweep's delta factor and its eps ones, each refused one followed by
    # its fresh eigensolve's
    reused, _ = run_convergence(small_convergence_cfg())
    analyse, analysed = frontal._analyse, []
    monkeypatch.setattr(frontal, "_analyse",
                        lambda tree, tube: analysed.append(tree) or analyse(tree, tube))
    counted = refusing_counts(monkeypatch, {3: 1})  # the eps = 0.35 factor
    fallback, _ = run_convergence(small_convergence_cfg())
    # a norm is missing, so the sweep reruns, and counts its factors too
    assert len(counted) == 2 + 2 * (1 + 3)
    # the delta eigensolve's plain plan, then the sweep's tube plan, which
    # the fresh eigensolve and the rerun reuse
    assert len(analysed) == 2
    at_shift = [f.lam == fallback["shift"] for f in counted]
    assert at_shift == [False, True, True, True, False] + [True] * 5
    monkeypatch.undo()
    # every factor of the first sweep refused: no norm, all eigensolves fresh
    refusing_counts(monkeypatch, dict.fromkeys((1, 2, 4, 6)))
    all_fresh, _ = run_convergence(small_convergence_cfg())
    for key in REPORTED:
        assert np.allclose(fallback[key], all_fresh[key], rtol=1e-10, atol=0.0), key
        assert np.allclose(reused[key], all_fresh[key], rtol=1e-10, atol=0.0), key
    assert fallback["shift_verified_below_all_pencils"]
    assert all_fresh["shift_verified_below_all_pencils"]


def test_every_eps_factor_of_a_run_shares_the_delta_exterior(monkeypatch):
    # the main sweep, its rerun (the eps = 0.35 count refused) and refine_check:
    # each eps factor takes the delta factor's fronts outside the tube
    norm, pairs = spectral.resolvent_diff_norm, []

    def recording(R_delta, R_eps, **kwargs):
        pairs.append((R_delta._lu, R_eps._lu))
        return norm(R_delta, R_eps, **kwargs)

    monkeypatch.setattr(spectral, "resolvent_diff_norm", recording)
    refusing_counts(monkeypatch, {3: 1})
    report, _ = run_convergence(small_convergence_cfg(refine_check=True))
    assert len(pairs) == 2 + 3 + 3 and None not in report["refine_check"]["norms"]
    assert len({id(delta) for delta, _ in pairs}) == 3  # one delta factor per sweep
    for delta, eps in pairs:
        assert delta.shares(eps)
        assert eps.nnz < delta.nnz
        assert all(K is delta._K[i] for i, K in enumerate(eps._K)
                   if eps._plan.groups[i].shared)


def test_no_delta_form_is_alive_while_the_eps_points_run(monkeypatch):
    # the main sweep, its rerun (the eps = 0.35 count refused) and refine_check:
    # each sweep takes its delta form out of the caller's dict, or makes it,
    # and drops it once the delta factor is made
    form, norm = Operator.form, spectral.resolvent_diff_norm
    made, alive = [], []

    def recording_form(self, eps=None):
        f = form(self, eps)
        if eps is None:
            made.append(weakref.ref(f))
        return f

    def recording_norm(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in made))
        return norm(*args, **kwargs)

    monkeypatch.setattr(Operator, "form", recording_form)
    monkeypatch.setattr(spectral, "resolvent_diff_norm", recording_norm)
    refusing_counts(monkeypatch, {3: 1})
    run_convergence(small_convergence_cfg(refine_check=True))
    assert len(made) == 3 and alive == [0] * (2 + 3 + 3)


def test_convergence_dump_writes_every_pencil(tmp_path):
    # each pencil is dumped as it is built, the eps ones on their own points
    cfg = small_convergence_cfg(dump_mm=str(tmp_path))
    run_convergence(cfg)
    op = config_operator(cfg)
    fresh = {"delta": op.form(), **{f"eps_{e:g}": op.form(e) for e in cfg["eps_grid"]}}
    assert sorted(os.listdir(tmp_path)) == sorted(
        f"{tag}_{name}.mtx" for tag in fresh for name in "SM")
    for tag, form in fresh.items():
        for name in "SM":
            dumped = scipy.io.mmread(os.path.join(tmp_path, f"{tag}_{name}.mtx"))
            assert dumped.shape == form.S.shape
            assert abs(dumped.tocsr() - getattr(form, name)).max() == 0.0, (tag, name)


@pytest.mark.parametrize("refine_check", [False, True])
def test_convergence_factors_each_pencil_once_at_the_common_shift(monkeypatch, refine_check):
    init = spectral.ResolventFactor.__init__
    factored = []

    def counting(self, *args, **kwargs):
        factored.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(spectral.ResolventFactor, "__init__", counting)
    cfg = small_convergence_cfg(refine_check=refine_check)
    run_convergence(cfg)
    # on each mesh: the delta resolvent and one factor per eps; on the run's
    # mesh also the delta eigensolve, whose ground state starts the h/2 norms
    per_mesh = 1 + len(cfg["eps_grid"])
    assert len(factored) == 1 + (2 if refine_check else 1) * per_mesh


# a small config of every runner
RUNNERS = {
    "convergence": (run_convergence, small_convergence_cfg()),
    "refine_check": (run_convergence, small_convergence_cfg(refine_check=True)),
    "cusp": (run_cusp, {"d": 2.0, "alpha_list": [-2.0, -3.0, -4.0], "x_max": 0.5,
                        "mesh": {"box": [[-1.0, 2.0], [-1.5, 1.5]], "h": 1.0 / 16.0}}),
    "stargraph": (run_stargraph, {"N": 3, "angles": [150.0, 150.0, 60.0], "alpha": -5.0,
                                  "mesh": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 1.0 / 16.0}}),
    "spectrum": (run_spectrum, {"network": {"beta_cap": 0.5, "segments": [
        {"kind": "line", "p0": [-1.0, 0.0], "p1": [1.0, 0.0]}]},
        "alpha": -4.0, "eps": 0.25, "field_b": 1.0, "k": 2,
        "mesh": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 1.0 / 16.0}}),
    "wedge": (run_wedge, {"phi": np.pi / 3.0, "alpha": -3.0, "theta": 1.5, "b": 1.0, "k": 2,
                          "mesh": {"box": [[-1.5, 1.5], [-1.5, 1.5]], "h": 1.0 / 16.0}}),
}


@pytest.mark.parametrize("run, cfg", list(RUNNERS.values()), ids=list(RUNNERS))
def test_runners_factor_every_pencil_on_its_mesh_tree(monkeypatch, run, cfg):
    # SuperLU and ARPACK are left to pencils without a tree; every runner's
    # pencil is a mesh pencil, factored on the mesh's dissection tree, and
    # its eigensolves and norms run `spectral._lanczos` on that factor
    splu, eigsh, init = spectral.spla.splu, spectral.spla.eigsh, frontal.TreeFactor.__init__
    superlu, arpack, trees = [], [], []

    def counting(*args, **kwargs):
        superlu.append(1)
        return splu(*args, **kwargs)

    def arpack_counting(*args, **kwargs):
        arpack.append(1)
        return eigsh(*args, **kwargs)

    def tree_factor(self, A, tree, **kwargs):
        trees.append(tree)
        init(self, A, tree, **kwargs)

    monkeypatch.setattr(spectral.spla, "splu", counting)
    monkeypatch.setattr(spectral.spla, "eigsh", arpack_counting)
    monkeypatch.setattr(frontal.TreeFactor, "__init__", tree_factor)
    run(cfg)
    assert superlu == [] and arpack == []
    assert trees and all(isinstance(t, fem.DissectionTree) for t in trees)


@pytest.mark.parametrize("name", ["cusp", "stargraph", "spectrum"])
def test_runners_that_report_residuals_stop_eigensolves_on_the_residual(monkeypatch, name):
    # their reports carry the residuals (cusp's CSV, spectrum's k residuals):
    # no eigensolve of theirs stops on the value error estimate alone
    lowest_eigs, calls = spectral.lowest_eigs, []

    def recording(*args, **kwargs):
        calls.append(kwargs.get("values_only", False))
        return lowest_eigs(*args, **kwargs)

    monkeypatch.setattr(spectral, "lowest_eigs", recording)
    run, cfg = RUNNERS[name]
    run(cfg)
    assert calls and not any(calls)


def test_convergence_flags_nonconverged_power_iteration(monkeypatch, tmp_path):
    norm = spectral.resolvent_diff_norm

    def capped(*args, **kwargs):  # the norms' Lanczos gives up after 3 steps
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_CYCLES", 1)
            patch.setattr(spectral, "_BASIS", 3)
            return norm(*args, **kwargs)

    monkeypatch.setattr(spectral, "resolvent_diff_norm", capped)
    report, status = run_convergence(small_convergence_cfg(out=str(tmp_path)))
    assert report["res_converged"] == [False, False, False]
    assert report["flags"]["power_iteration_nonconverged"]
    assert status == 2
    # the largest Ritz values, lower bounds, stand in, so the fits still run
    assert all(v > 0.0 for v in report["res_norms"])
    assert report["norm_fit"] is not None
    rows = (tmp_path / "data.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["False", "False", "False"]


def test_convergence_refine_check_reruns_the_largest_eps_at_half_h():
    report, status = run_convergence(small_convergence_cfg(refine_check=True))
    block = report["refine_check"]
    assert block["h"] == 1.0 / 32.0
    assert block["norm"] > 0.0
    assert block["rel_change"] < 0.25
    assert report["flags"] == {}
    assert status == 0


def test_convergence_refine_check_reports_every_eps():
    cfg = small_convergence_cfg(refine_check=True)
    report, _ = run_convergence(cfg)
    block = report["refine_check"]
    assert len(block["norms"]) == len(block["rel_changes"]) == len(cfg["eps_grid"])
    assert block["norms"][0] == block["norm"]
    assert block["rel_changes"][0] == block["rel_change"]
    for fine, coarse, change in zip(block["norms"], report["res_norms"], block["rel_changes"]):
        assert change == abs(fine - coarse) / coarse
    fit = spectral.fit_rate(cfg["eps_grid"], block["norms"])
    assert block["norm_fit"]["slope"] == fit.slope > 0.0


def refusing_a_fine_count(monkeypatch, shift, i):
    """Make `spectral.count_below` give None for the i-th distinct h/2 factor
    at `shift` of `small_convergence_cfg(refine_check=True)`: 0 is the h/2
    sweep's delta factor, 1 the largest eps's.  Returns the list of the
    shifts refused."""
    count_below, fine, refused = spectral.count_below, [], []

    def refusing(factor):
        if factor.M.shape[0] == 127**2 and factor.lam == shift:
            if not any(f is factor for f in fine):
                fine.append(factor)
            if fine[i:i + 1] and fine[i] is factor:
                refused.append(factor.lam)
                return None
        return count_below(factor)

    monkeypatch.setattr(spectral, "count_below", refusing)
    return refused


def test_refine_check_without_a_certified_h2_factor_has_no_norm_and_flags(monkeypatch):
    # inertia refuses the h/2 factor of the largest eps only: the second h/2
    # factor at the run's shift, after the h/2 delta factor
    shift = run_convergence(small_convergence_cfg())[0]["shift"]
    refused = refusing_a_fine_count(monkeypatch, shift, 1)
    report, status = run_convergence(small_convergence_cfg(refine_check=True))
    block = report["refine_check"]
    assert refused == [report["shift"]]
    assert block["norm"] is None and block["rel_change"] is None
    assert block["norms"][0] is None and block["rel_changes"][0] is None
    assert all(n > 0.0 for n in block["norms"][1:])
    assert all(c < 0.25 for c in block["rel_changes"][1:])
    assert block["norm_fit"] is None
    assert report["flags"] == {"discretization_dominates_eps_effect": True}
    assert status == 2


def test_refine_check_with_the_shift_above_the_h2_delta_eigenvalue_has_no_norms(monkeypatch):
    # inertia refuses the h/2 delta factor at the run's shift, as it does
    # when that shift is not below the h/2 delta eigenvalue
    shift = run_convergence(small_convergence_cfg())[0]["shift"]
    refused = refusing_a_fine_count(monkeypatch, shift, 0)
    counted = refusing_counts(monkeypatch, {})
    report, status = run_convergence(small_convergence_cfg(refine_check=True))
    block = report["refine_check"]
    assert refused == [report["shift"]]
    # at the run's shift, the run's delta and eps factors and the h/2 delta
    # factor only: no h/2 eps pencil is factored
    assert [f.M.shape[0] for f in counted if f.lam == report["shift"]] == (
        [63**2] * 4 + [127**2])
    assert block["norms"] == block["rel_changes"] == [None] * 3
    assert block["norm"] is None and block["norm_fit"] is None
    assert report["flags"] == {"discretization_dominates_eps_effect": True}
    assert status == 2
    assert all(n > 0.0 for n in report["res_norms"])


def test_refine_check_eigensolves_only_the_delta_pencils(monkeypatch):
    # the h/2 eps factors are certified by inertia alone, and the h/2 norms
    # start from the interpolated h ground state: the delta pencil and every
    # eps one are eigensolved on the run's mesh only
    lowest_eigs, calls = spectral.lowest_eigs, []
    monkeypatch.setattr(spectral, "lowest_eigs",
                        lambda *args, **kwargs: calls.append(1) or lowest_eigs(*args, **kwargs))
    cfg = small_convergence_cfg(refine_check=True)
    run_convergence(cfg)
    assert len(calls) == 1 + len(cfg["eps_grid"])


def test_convergence_uncertified_after_the_rerun_raises_shift_error(monkeypatch):
    # the first sweep's eps counts refused (after the delta eigensolve's factor
    # and the sweep's delta factor, each followed by its fresh eigensolve's):
    # every eigensolve is fresh and the sweep reruns, where the count of the
    # eps = 0.35 factor is refused again
    refusing_counts(monkeypatch, {**dict.fromkeys((2, 4, 6)), 10: None})
    with pytest.raises(spectral.ShiftError, match=r"eps=0\.35: shift .* not certified below "
                                                  r"the pencil at h = 0\.0625"):
        run_convergence(small_convergence_cfg())


def test_a_refused_delta_sweep_count_leaves_every_norm_none(monkeypatch):
    # the sweep counts its delta factor first: refused, no norm is taken, the
    # eigensolves still run, and without them no eps pencil is factored
    cfg = small_convergence_cfg()
    op = config_operator(cfg)
    res = op.solve(op.form(), values_only=True)
    lam = res.eigenvalues[0]
    shift = lam - max(1.0, abs(lam))
    norm, norms = spectral.resolvent_diff_norm, []
    monkeypatch.setattr(spectral, "resolvent_diff_norm",
                        lambda *args, **kwargs: norms.append(1) or norm(*args, **kwargs))
    counted = refusing_counts(monkeypatch, {0: 1})
    swept = _eps_sweep(op, {}, res.eigenvectors[:, 0], shift, cfg["eps_grid"])
    assert [n for _, n in swept] == [None] * 3 and norms == []
    assert all(r.eigenvalues[0] > shift for r, _ in swept)
    assert [f.lam for f in counted] == [shift] * 4
    counted.clear()
    swept = _eps_sweep(op, {}, res.eigenvectors[:, 0], shift, cfg["eps_grid"], solve=False)
    assert swept is None and norms == []
    assert len(counted) == 1


def test_convergence_with_refused_delta_sweep_counts_raises_shift_error(monkeypatch):
    # the sweep's delta factor refused (after the delta eigensolve's factor):
    # no norm, so the sweep reruns, where its delta factor is refused again
    refusing_counts(monkeypatch, {1: 1, 5: 1})
    with pytest.raises(spectral.ShiftError, match=r"^delta: shift .* not certified below "
                                                  r"the pencil at h = 0\.0625$"):
        run_convergence(small_convergence_cfg())


def test_every_norm_of_a_run_is_warm_started(monkeypatch):
    # from the delta ground state of the run's mesh, and on the h/2 mesh from
    # its P1 interpolant
    norm, starts = spectral.resolvent_diff_norm, []

    def recording(R_delta, R_eps, **kwargs):
        starts.append(kwargs.get("start"))
        return norm(R_delta, R_eps, **kwargs)

    monkeypatch.setattr(spectral, "resolvent_diff_norm", recording)
    cfg = small_convergence_cfg(refine_check=True)
    run_convergence(cfg)
    op = config_operator(cfg)
    fine = fem.build_mesh(op.base.mesh.box, op.base.mesh.h / 2)
    n = len(cfg["eps_grid"])
    assert len(starts) == 2 * n
    ground = op.solve(op.form(), values_only=True).eigenvectors[:, 0]
    interpolant = fem.interpolate(op.base.mesh, ground, np.stack(
        [fine.node_x[fine.interior], fine.node_y[fine.interior]], axis=1))
    for start, mesh_starts in ((ground, starts[:n]), (interpolant, starts[n:])):
        assert all(np.array_equal(s, start) for s in mesh_starts)


def test_magnetic_convergence_norms_match_dense_resolvents():
    # complex Hermitian pencils: the norm takes ARPACK's complex path
    cfg = small_convergence_cfg(field_b=1.5, eps_grid=[1.0, 0.7, 0.5],
                                mesh={"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 1.0 / 8.0})
    report, _ = run_convergence(cfg)
    op = config_operator(cfg)
    form_delta = op.form()
    assert np.iscomplexobj(form_delta.S.data)
    M = form_delta.M.toarray()

    def resolvent(form):
        return sla.solve(form.S.toarray() - report["shift"] * M, M)

    R_delta = resolvent(form_delta)
    for eps, norm in zip(cfg["eps_grid"], report["res_norms"]):
        mu = sla.eigvals(R_delta - resolvent(op.form(eps)))
        assert norm == pytest.approx(np.max(np.abs(mu)), rel=1e-12)


@pytest.mark.parametrize("field_b, q, alpha", [
    (0.0, None, -5.0), (1.5, None, -5.0), (0.0, 0.75, -5.0), (1.5, -0.5, -5.0 + 2.0j)],
    ids=["plain", "magnetic", "background", "magnetic_background_complex_alpha"])
def test_operator_forms_match_the_full_node_assembly_bit_for_bit(field_b, q, alpha):
    net = network_from_spec(small_convergence_cfg()["network"])
    mesh = fem.build_mesh(((-2.0, 2.0), (-2.0, 2.0)), 1.0 / 16.0)
    A = fem.homogeneous_gauge(field_b) if field_b else None
    op = Operator.from_config({"alpha": alpha}, net, fem.assemble_base(mesh, A, q))
    for eps in (None, 0.5, 0.25):
        form = op.form(eps)
        S, M = full_node_form(op, eps)
        assert_same_csr(form.S, S)
        assert_same_csr(form.M, M)
        assert form.M is op.base.M  # one M per mesh, shared by every form


S_GRID, T_GRID = [0.0, 1.0, 2.0], [-1.0, 0.0, 1.0]
TABLE = [[-8.0, -12.0, -8.0], [-9.0, -14.0, -9.0], [-8.0, -12.0, -8.0]]
PROFILE_CASES = {
    "constant": ({"kind": "constant", "value": -10.0},
                 lambda beta: potentials.constant_profile(0, -10.0, beta)),
    "separable": ({"kind": "separable", "g_s": [1.0, 0.5], "g_t": [-10.0, 0.0, 3.0]},
                  lambda beta: potentials.separable_profile(
                      0, lambda s: np.polyval([0.5, 1.0], s),
                      lambda t: np.polyval([3.0, 0.0, -10.0], t), beta)),
    "tabulated": ({"kind": "tabulated", "s_grid": S_GRID, "t_grid": T_GRID, "values": TABLE},
                  lambda beta: potentials.tabulated_profile(
                      0, S_GRID, T_GRID, np.asarray(TABLE), beta)),
}


@pytest.mark.parametrize("kind", PROFILE_CASES)
def test_profile_config_builds_the_squeezed_form_of_its_profile(kind):
    spec, profile = PROFILE_CASES[kind]
    cfg = {**without(small_convergence_cfg(), "alpha"), "profile": spec}
    net = network_from_spec(cfg["network"])
    op = Operator.from_config(cfg, net)
    assert [p.kind for p in op.profiles] == [kind]
    for eps in (0.5, 0.25):
        W = potentials.SqueezedPotential(net, [profile(net.beta)], eps)
        assert_same_csr(op.form(eps).S, fem.build_form(op.base.mesh, potential=W).S)


# the networks and strengths of the benchmark workloads cusp-trend,
# converge-line and star-refine (sigma, gamma and the 17 degree copy)
WORKLOAD_STRENGTHS = [
    (cusp_network(2.0, 0.75, 0.25), (-6.0, -10.0, -14.0)),
    (network_from_spec({"beta_cap": 0.5, "segments": line_spec(((-2.0, 0.0), (2.0, 0.0)))}),
     (-5.0,)),
    (lab._star_network([150.0, 150.0, 60.0], 1.0, 0.4), (-5.0,)),
    (lab._star_network([120.0] * 3, 1.0, 0.4), (-5.0,)),
    (lab._star_network([120.0] * 3, 1.0, 0.4, rot_deg=17.0), (-5.0,)),
]


@pytest.mark.parametrize("net, alphas", WORKLOAD_STRENGTHS,
                         ids=["cusp", "line", "star_sigma", "star_gamma", "star_rot"])
def test_a_constant_alpha_round_trips_bitwise_on_the_workloads(net, alphas):
    # every strength is the transverse integral of the profile alpha/(2 beta);
    # for these alpha and beta it gives alpha back bit for bit, so the line
    # term, the trial bound and the CSVs read what a constant would give
    base = fem.assemble_base(fem.build_mesh(((-1.0, 1.0), (-1.0, 1.0)), 0.5))
    for alpha in alphas:
        op = Operator.from_config({"alpha": alpha}, net, base)
        assert sorted(op.strengths) == list(range(len(net.segments)))
        for k, strength in op.strengths.items():
            for n in (1, 65, 4 * int(np.ceil(net.segments[k].length * 64))):
                s = np.linspace(0.0, net.segments[k].length, n)
                assert np.array_equal(strength(s), np.full(n, alpha))


def test_unknown_profile_kind_raises_config_error():
    cfg = {**without(small_convergence_cfg(), "alpha"), "profile": {"kind": "gaussian"}}
    with pytest.raises(ConfigError, match="unknown profile kind: 'gaussian'"):
        Operator.from_config(cfg, network_from_spec(cfg["network"]))


@pytest.fixture
def assembled(monkeypatch):
    """The mesh of every stiffness and every mass assembly the test makes:
    the element sources that every sum of K or M reads."""
    calls = {"stiffness": [], "mass": []}
    for key, name in (("stiffness", "_stiffness"), ("mass", "_mass")):
        def counting(mesh, *args, _fn=getattr(fem, name), _calls=calls[key]):
            _calls.append(mesh)
            return _fn(mesh, *args)

        monkeypatch.setattr(fem, name, counting)
    return calls


def test_stiffness_and_mass_are_assembled_once_per_mesh(assembled):
    run_convergence(small_convergence_cfg())
    assert [len(c) for c in assembled.values()] == [1, 1]
    run_convergence(small_convergence_cfg(refine_check=True))
    for calls in assembled.values():
        assert [m.h for m in calls[1:]] == [1.0 / 16.0, 1.0 / 32.0]
    for calls in assembled.values():
        calls.clear()
    run_cusp(SMALL_CUSP)
    assert [len(c) for c in assembled.values()] == [1, 1]
    for calls in assembled.values():
        calls.clear()
    run_stargraph(star_cfg(mesh={"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 1.0 / 16.0}))
    for calls in assembled.values():
        assert [m.h for m in calls] == [1.0 / 16.0, 1.0 / 32.0]


def test_an_operator_on_another_base_forms_on_its_mesh():
    # the h/2 operator of `refine_check`: every form is on its base's mesh
    # and shares its base's M; a change of strength keeps the base
    op = config_operator(small_convergence_cfg())
    fine = dataclasses.replace(op, base=fem.assemble_base(
        fem.build_mesh(op.base.mesh.box, op.base.mesh.h / 2), op.base.A, op.base.Q))
    assert fine.base is not op.base
    for eps in (None, 0.5):
        form = fine.form(eps)
        assert form.S.shape[0] == fine.base.mesh.n_interior
        assert form.M is fine.base.M and form.tree is fine.base.mesh.tree
    same = dataclasses.replace(op, strengths={0: potentials.StrengthFunction.constant(0, -3.0)})
    assert same.base is op.base and same.form().M is op.base.M


def test_eps_eigensolves_start_from_the_delta_ground_state(monkeypatch):
    cfg = small_convergence_cfg()  # the benchmark's smoke config
    op = config_operator(cfg)
    res_delta = op.solve(op.form(), values_only=True)  # the run's delta eigensolve
    ground = res_delta.eigenvectors[:, 0]
    lanczos, starts = spectral._lanczos, []

    def capturing(apply, M, v0, *args, **kwargs):
        starts.append(v0)
        return lanczos(apply, M, v0, *args, **kwargs)

    monkeypatch.setattr(spectral, "_lanczos", capturing)
    report, _ = run_convergence(cfg)
    monkeypatch.setattr(spectral, "_lanczos", lanczos)
    # the eps eigensolves and the norms
    assert sum(np.array_equal(v, ground) for v in starts) == 2 * len(cfg["eps_grid"])
    # the warm start finds the eigenvalue of the random start
    shift = report["shift"]
    for eps, lam in zip(cfg["eps_grid"], report["lam_eps"]):
        form = op.form(eps)
        factor = spectral.ResolventFactor(form.S, form.M, shift)
        cold = spectral.lowest_eigs(form.S, form.M, factor=factor)
        assert lam == pytest.approx(cold.eigenvalues[0], rel=1e-12, abs=0.0)


def test_delta_eigensolve_starts_from_the_trial_state(monkeypatch):
    # n = 3969: from the positive trial state, stopped on the value error
    # estimate as in `run_convergence`, Lanczos converges after 9 solves (14
    # at the relative residual EIG_RTOL)
    op = config_operator(small_convergence_cfg())
    form = op.form()
    assert form.S.shape[0] == 3969
    _, trial = trial_upper_bound(op, form)
    solves, starts = [], []
    solve, lanczos = frontal.TreeFactor.solve, spectral._lanczos

    def counting(self, b):
        solves.append(1)
        return solve(self, b)

    def capturing(apply, M, v0, *args, **kwargs):
        starts.append(v0)
        return lanczos(apply, M, v0, *args, **kwargs)

    monkeypatch.setattr(frontal.TreeFactor, "solve", counting)
    monkeypatch.setattr(spectral, "_lanczos", capturing)
    res = op.solve(form, values_only=True)
    monkeypatch.undo()
    assert len(starts) == 1 and np.array_equal(starts[0], trial)
    assert 0 < len(solves) <= 9
    # Fortran-ordered dense copies that eigh may overwrite: one copy each
    lam = sla.eigh(form.S.toarray(order="F"), form.M.toarray(order="F"), eigvals_only=True,
                   subset_by_index=[0, 0], overwrite_a=True, overwrite_b=True)
    assert res.eigenvalues[0] == pytest.approx(lam[0], rel=1e-10)


def test_two_eigenpairs_include_the_odd_second_state():
    # the line and the mesh are symmetric under (x, y) -> (-x, -y); so is the
    # trial state, which is orthogonal to the odd second eigenfunction, so
    # k > 1 starts Lanczos from a random vector
    h = 1.0 / 8.0
    op = config_operator(small_convergence_cfg(
        mesh={"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": h}))
    form = op.form()
    res = op.solve(form, k=2)
    lam, V = sla.eigh(form.S.toarray(), form.M.toarray(), subset_by_index=[0, 1])
    assert np.allclose(res.eigenvalues, lam, rtol=1e-10, atol=0.0)
    m = op.base.mesh
    i, j = (np.rint(c[m.interior] / h).astype(int) for c in (m.node_x, m.node_y))
    index = {ij: k for k, ij in enumerate(zip(i, j))}
    mirror = np.array([index[(-a, -b)] for a, b in zip(i, j)])
    _, trial = trial_upper_bound(op, form)
    assert np.array_equal(trial[mirror], trial)
    for v in (V[:, 1], res.eigenvectors[:, 1]):
        assert np.allclose(v[mirror], -v, rtol=0.0, atol=1e-8 * np.max(np.abs(v)))
        assert abs(trial @ (form.M @ v)) <= 1e-12 * np.linalg.norm(trial)
    assert np.all(res.residuals <= 1e-10)


@pytest.mark.parametrize("eps, k, made", [(0.5, 2, 0), (None, 2, 1), (0.5, 1, 1)])
def test_a_trial_state_is_made_only_where_it_is_read(monkeypatch, eps, k, made):
    # the trial bound seeds a delta shift and its state starts a k = 1
    # Lanczos; a squeezed pencil is shifted to its floor, so with k > 1 it
    # reads neither
    trial, calls = lab.trial_upper_bound, []
    monkeypatch.setattr(lab, "trial_upper_bound",
                        lambda *args: calls.append(1) or trial(*args))
    cfg = small_convergence_cfg(mesh={"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 1.0 / 8.0},
                                eps=eps, k=k)
    report, _ = run_spectrum(cfg)
    assert len(calls) == made
    form = config_operator(cfg).form(eps)
    lam = sla.eigh(form.S.toarray(), form.M.toarray(), eigvals_only=True)
    assert np.allclose(report["eigenvalues"], lam[:k], rtol=1e-10, atol=0.0)


# --------------------------------------------------------------- star graph


def star_cfg(**over):
    cfg = {
        "N": 3,
        "L": 1.0,
        "angles": [120.0, 120.0, 120.0],
        "alpha": -5.0,
        "mesh": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 1.0 / 32.0},
        "seed": 5,
    }
    cfg.update(over)
    return cfg


def test_stargraph_symmetric_case_has_no_flags():
    report, status = run_stargraph(star_cfg())
    assert report["inequality_holds"]
    assert abs(report["gap"]) <= report["mesh_error_estimate"]
    assert report["rotation_gap"] <= report["mesh_error_estimate"]
    assert status == 0


def test_stargraph_asymmetric_lowers_ground_state():
    report, _ = run_stargraph(star_cfg(angles=[150.0, 150.0, 60.0]))
    assert report["lam_sigma"] < report["lam_gamma"]


def test_stargraph_config_errors():
    with pytest.raises(ConfigError):
        run_stargraph(star_cfg(angles=[100.0, 100.0, 100.0]))
    with pytest.raises(ConfigError):
        run_stargraph(star_cfg(N=2, angles=[180.0, 180.0]))


# --------------------------------------------------------------------- cusp


def test_cusp_network_tangent_matching():
    net = cusp_network(2.0, 0.75, 0.25)
    up, down, arc = net.segments
    t_branch = up.tangent(up.length)
    t_arc = arc.tangent(0.0)
    assert abs(float(t_branch @ t_arc)) == pytest.approx(1.0, abs=1e-12)
    t_branch2 = down.tangent(down.length)
    t_arc_end = arc.tangent(arc.length)
    assert abs(float(t_branch2 @ t_arc_end)) == pytest.approx(1.0, abs=1e-12)
    # junction points coincide
    assert np.allclose(up.point(up.length), arc.point(0.0), atol=1e-12)
    assert np.allclose(down.point(down.length), arc.point(arc.length), atol=1e-12)


def test_cusp_run_trend():
    cfg = {
        "d": 2.0,
        "alpha_list": [-6.0, -10.0],
        "x_max": 0.75,
        "mesh": {"box": [[-0.75, 3.0], [-1.75, 1.75]], "h": 1.0 / 48.0},
        "seed": 5,
    }
    report, status = run_cusp(cfg)
    assert report["trend_decreasing"]
    assert status == 0
    assert report["target_constant"] == pytest.approx(2.0**0.5 * 3.0, abs=1e-3)
    assert all(lam < 0 for lam in report["lam1"])


def test_cusp_weak_coupling_flagged():
    cfg = {
        "d": 2.0,
        "alpha_list": [-1e-3],
        "x_max": 0.5,
        "mesh": {"box": [[-1.0, 2.0], [-1.5, 1.5]], "h": 1.0 / 16.0},
    }
    report, status = run_cusp(cfg)
    assert status == 2
    assert any("outside_asymptotic_regime" in f for f in report["flags"])


def test_cusp_resolution_error():
    cfg = {
        "d": 2.0,
        "alpha_list": [-40.0],
        "mesh": {"box": [[-1.0, 3.0], [-2.0, 2.0]], "h": 1.0 / 16.0},
    }
    with pytest.raises(ResolutionError):
        run_cusp(cfg)


def test_cusp_config_errors():
    base = {"mesh": {"box": [[-1.0, 3.0], [-2.0, 2.0]], "h": 1.0 / 32.0}}
    with pytest.raises(ConfigError):
        run_cusp({"d": 2.0, "alpha_list": [-10.0, -6.0], **base})
    with pytest.raises(ConfigError):
        run_cusp({"d": 2.0, "alpha_list": [1.0], **base})


@pytest.fixture
def built(monkeypatch):
    """(box, h) of every fem.build_mesh call the test makes."""
    build_mesh = fem.build_mesh
    calls = []

    def counting(box, h):
        calls.append((box, h))
        return build_mesh(box, h)

    monkeypatch.setattr(fem, "build_mesh", counting)
    return calls


def test_each_distinct_mesh_is_built_once(built):
    run_cusp({
        "d": 2.0,
        "alpha_list": [-2.0, -3.0],
        "x_max": 0.5,
        "mesh": {"box": [[-1.0, 2.0], [-1.5, 1.5]], "h": 1.0 / 16.0},
    })
    assert len(built) == 1
    built.clear()
    run_stargraph(star_cfg(mesh={"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 1.0 / 16.0}))
    assert [h for _, h in built] == [1.0 / 16.0, 1.0 / 32.0]


SMALL_CUSP = {
    "d": 2.0,
    "alpha_list": [-2.0, -3.0, -4.0],
    "x_max": 0.5,
    "mesh": {"box": [[-1.0, 2.0], [-1.5, 1.5]], "h": 1.0 / 16.0},
}


def test_cusp_measures_each_segment_distance_once(monkeypatch):
    sampled_distance = geometry.Network.sampled_distance
    calls = []

    def counting(net, k, points):
        calls.append(k)
        return sampled_distance(net, k, points)

    monkeypatch.setattr(geometry.Network, "sampled_distance", counting)
    report, _ = run_cusp(SMALL_CUSP)
    assert len(report["lam1"]) == 3
    assert sorted(calls) == [0, 1, 2]


def rayleigh_quotient(S, M, v):
    return float((v @ (S @ v)) / (v @ (M @ v)))


@pytest.mark.parametrize("d", [2.0, 1.5])
def test_cusp_trial_bound_stays_above_the_ground_state(d):
    net = cusp_network(d, 0.5, 0.25)
    mesh = fem.build_mesh(((-0.5, 1.5), (-1.0, 1.0)), 1.0 / 16.0)
    ground = None
    for alpha in (-6.0, -10.0):
        op = Operator.from_config({"alpha": alpha}, net, fem.assemble_base(mesh))
        form = op.form()
        w, V = sla.eigh(form.S.toarray(), form.M.toarray(), subset_by_index=[0, 0])
        lam1 = w[0]
        bound, state = trial_upper_bound(op, form)
        assert lam1 <= bound
        if ground is not None:
            # the seeded bound of `Operator.solve(near=...)`: the alpha = -6
            # ground state's Rayleigh quotient on the alpha = -10 pencil
            seeded = rayleigh_quotient(form.S, form.M, ground)
            assert lam1 <= seeded <= bound
        ground = V[:, 0]
        # the returned state attains the bound, and it is a positive vector
        assert (state @ (form.S @ state)) / (state @ (form.M @ state)) == pytest.approx(
            bound, rel=1e-14)
        assert np.all(state > 0.0)


def test_cusp_with_a_positive_trial_bound_finds_the_ground_state():
    # the trial bound is +1.92: a shift seeded from it lies above lam_1 = -9.76,
    # where shift-invert Lanczos with k = 1 converges to lam_2 = -1.40
    box, h = ((-0.5, 1.5), (-1.0, 1.0)), 1.0 / 16.0
    report, _ = run_cusp({"d": 1.5, "alpha_list": [-6.0], "x_max": 0.5,
                          "mesh": {"box": [list(b) for b in box], "h": h}})
    op = Operator.from_config({"alpha": -6.0}, cusp_network(1.5, 0.5, 0.25),
                              fem.assemble_base(fem.build_mesh(box, h)))
    form = op.form()
    assert trial_upper_bound(op, form)[0] > 0.0
    lam1 = sla.eigh(form.S.toarray(), form.M.toarray(), eigvals_only=True)[0]
    assert report["lam1"][0] == pytest.approx(lam1, rel=1e-10)


def counting_lowerings(monkeypatch):
    """The shifts that `spectral.lowest_eigs` lowers, in order."""
    lower, lowered = spectral._lower, []

    def counting(shift):
        lowered.append(shift)
        return lower(shift)

    monkeypatch.setattr(spectral, "_lower", counting)
    return lowered


def test_a_seeded_shift_above_the_ground_state_is_lowered(monkeypatch):
    # the alpha = -1 ground state on the alpha = -6 pencil (lam_1 = -9.76,
    # lam_2 = -1.40) has a negative Rayleigh quotient, but the seeded shift
    # lies above lam_1: the inertia count refuses it, and the lowered shift
    # finds lam_1, not lam_2
    box, h = ((-0.5, 1.5), (-1.0, 1.0)), 1.0 / 16.0
    base, net = fem.assemble_base(fem.build_mesh(box, h)), cusp_network(1.5, 0.5, 0.25)
    weak = Operator.from_config({"alpha": -1.0}, net, base).form()
    near = sla.eigh(weak.S.toarray(), weak.M.toarray(), subset_by_index=[0, 0])[1][:, 0]
    op = Operator.from_config({"alpha": -6.0}, net, base)
    form = op.form()
    lam = sla.eigh(form.S.toarray(), form.M.toarray(), eigvals_only=True,
                   subset_by_index=[0, 1])
    seeded = rayleigh_quotient(form.S, form.M, near)
    assert seeded < 0.0
    assert lam[0] < seeded - 0.5 * max(1.0, abs(seeded)) < lam[1]
    lowered = counting_lowerings(monkeypatch)
    res = op.solve(form, near=near)
    assert lowered
    assert res.shift < lam[0]
    assert res.eigenvalues[0] == pytest.approx(lam[0], rel=1e-10)


def test_cusp_seeds_each_coupling_from_the_previous_ground_state(monkeypatch):
    # each coupling after the first is shifted to u - max(1, |u|)/2, u the
    # previous ground state's Rayleigh quotient on its pencil, and the
    # inertia count certifies that shift at the first factor
    init, lowest_eigs = spectral.ResolventFactor.__init__, spectral.lowest_eigs
    factored, solved = [], []

    def counting(self, *args, **kwargs):
        factored.append(1)
        init(self, *args, **kwargs)

    def capturing(S, M, *args, **kwargs):
        res = lowest_eigs(S, M, *args, **kwargs)
        solved.append((S, M, res))
        return res

    monkeypatch.setattr(spectral.ResolventFactor, "__init__", counting)
    monkeypatch.setattr(spectral, "lowest_eigs", capturing)
    lowered = counting_lowerings(monkeypatch)
    report, _ = run_cusp(SMALL_CUSP)
    assert len(factored) == 3 and lowered == []
    assert report["solver"]["shifts"] == [res.shift for _, _, res in solved]
    for (_, _, before), (S, M, res) in zip(solved, solved[1:]):
        seeded = rayleigh_quotient(S, M, before.eigenvectors[:, 0])
        assert res.shift == pytest.approx(seeded - 0.5 * max(1.0, abs(seeded)), rel=1e-14)
    for (S, M, res), lam in zip(solved, report["lam1"]):
        dense = sla.eigh(S.toarray(), M.toarray(), eigvals_only=True, subset_by_index=[0, 0])
        assert res.eigenvalues[0] == lam
        assert lam == pytest.approx(dense[0], rel=1e-10)


# -------------------------------------------------------------------- wedge


def wedge_cfg(**over):
    cfg = {
        "phi": np.pi / 3.0,
        "alpha": -1e-6,
        "theta": 1.5,
        "b": 1.0,
        "mesh": {"box": [[-1.5, 1.5], [-1.5, 1.5]], "h": 1.0 / 16.0},
        "seed": 5,
    }
    cfg.update(over)
    return cfg


def hermiticity_checks(monkeypatch):
    """(checks, factors): the names of the Hermiticity residuals a test
    computes, "form" for a form's, and the number of factors it makes."""
    checks, factors = [], []
    residual, check = fem.hermiticity_residual, spectral._check_hermitian
    init = spectral.ResolventFactor.__init__
    monkeypatch.setattr(fem, "hermiticity_residual",
                        lambda S: checks.append("form") or residual(S))
    monkeypatch.setattr(spectral, "_check_hermitian",
                        lambda A, name: checks.append(name) or check(A, name))
    monkeypatch.setattr(spectral.ResolventFactor, "__init__",
                        lambda *a, **k: factors.append(1) or init(*a, **k))
    return checks, factors


def test_each_pencil_is_checked_once_at_its_factorization(monkeypatch):
    # the benchmark's smoke config makes five factors: the delta
    # eigensolve's, the sweep's delta factor and one per eps
    checks, factors = hermiticity_checks(monkeypatch)
    run_convergence(small_convergence_cfg())
    assert len(factors) == 5 and len(checks) == 5
    assert all(name.startswith("S - ") for name in checks)
    # a report that reads a form's residual computes it once, however often
    # it reads it: the wedge runner reads it twice
    for runner, cfg in ((run_wedge, wedge_cfg()),
                        (run_spectrum, {"network": LINE_NETWORK, "alpha": -4.0, "mesh": MESH})):
        checks.clear()
        factors.clear()
        report, _ = runner(cfg)
        assert checks.count("form") == 1 and len(checks) == len(factors) + 1
        assert report["hermiticity_residual"] <= 1e-12


def test_wedge_requires_field():
    with pytest.raises(ConfigError):
        run_wedge(wedge_cfg(b=0.0))


def test_wedge_criterion_and_assembly():
    report, status = run_wedge(wedge_cfg())
    assert report["criterion"]["inf_F"] == pytest.approx(-1.25, abs=1e-4)
    assert report["criterion"]["predicts_discrete_spectrum"]
    assert report["hermiticity_residual"] <= 1e-12
    assert status == 0


def test_wedge_without_theta_warns_and_still_solves(caplog):
    cfg = wedge_cfg()
    del cfg["theta"]
    with caplog.at_level(logging.WARNING, logger="deltasqueeze.lab"):
        report, _ = run_wedge(cfg)
    assert caplog.messages == ["wedge: Theta not supplied, criterion block skipped"]
    assert report["criterion"] is None
    assert "lam1" in report


def test_wedge_box_must_contain_the_vertex():
    with pytest.raises(ConfigError, match="wedge vertex"):
        run_wedge(wedge_cfg(mesh={"box": [[0.0, 2.0], [-1.0, 1.0]], "h": 1.0 / 16.0}))


# ----------------------------------------------------------------- spectrum


def test_spectrum_runner():
    cfg = {
        "network": {
            "beta_cap": 0.5,
            "segments": [{"kind": "line", "p0": [-1.0, 0.0], "p1": [1.0, 0.0]}],
        },
        "alpha": -4.0,
        "mesh": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 1.0 / 16.0},
        "k": 2,
    }
    report, status = run_spectrum(cfg)
    assert status == 0
    assert len(report["eigenvalues"]) == 2
    assert report["eigenvalues"][0] < report["eigenvalues"][1]
    assert max(report["solver"]["residuals"]) <= 1e-8


def test_spectrum_csv_does_not_depend_on_the_seed(tmp_path):
    # k > 1 starts Lanczos from a random vector, drawn with one fixed seed
    csv = []
    for seed in (5, 11):
        out = tmp_path / str(seed)
        run_spectrum({"network": LINE_NETWORK, "alpha": -4.0, "field_b": 1.0, "mesh": MESH,
                      "k": 3, "seed": seed, "out": str(out)})
        csv.append((out / "data.csv").read_bytes())
    assert csv[0] == csv[1]


def test_squeezed_spectrum_shift_floor_includes_negative_background(monkeypatch):
    lower = spectral._lower
    retries = []

    def counting(shift):
        retries.append(shift)
        return lower(shift)

    monkeypatch.setattr(spectral, "_lower", counting)
    cfg = {
        "network": {
            "beta_cap": 0.5,
            "segments": [{"kind": "line", "p0": [-1.0, 0.0], "p1": [1.0, 0.0]}],
        },
        "alpha": -4.0,
        "eps": 0.25,
        "q": -20.0,
        "mesh": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 1.0 / 16.0},
        "k": 1,
    }
    report, _ = run_spectrum(cfg)
    assert retries == []
    assert report["solver"]["shift"] < report["eigenvalues"][0]


def test_a_dip_between_profile_samples_gets_a_certified_squeezed_shift(monkeypatch):
    # -1 but for a dip to -400 at s = 1.015, between two points of a 65-point
    # sampling of s: a sampled floor gives the shift -3.04, above lam_1, which
    # is lowered four times; the form's floor, its least edge-midpoint value,
    # places the shift below lam_1 at once
    lower, lowered = spectral._lower, []
    monkeypatch.setattr(spectral, "_lower", lambda shift: lowered.append(shift) or lower(shift))
    values = [[-1.0, -1.0], [-1.0, -1.0], [-400.0, -400.0], [-1.0, -1.0], [-1.0, -1.0]]
    report, status = run_spectrum({
        "network": {"beta_cap": 0.5,
                    "segments": [{"kind": "line", "p0": [-1.0, 0.0], "p1": [1.0, 0.0]}]},
        "profile": {"kind": "tabulated", "s_grid": [0.0, 1.005, 1.015, 1.025, 2.0],
                    "t_grid": [-0.5, 0.5], "values": values},
        "eps": 0.25, "k": 1, "mesh": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 1.0 / 32.0}})
    assert status == 0 and lowered == []
    assert report["solver"]["shift"] < -700.0
    # lam_1 as found from the sampled shift, after its four lowerings
    assert abs(report["eigenvalues"][0] + 33.18799413757444) <= 1e-10 * 33.19


def test_a_callable_background_gives_the_squeezed_shift_its_least_midpoint_value():
    # the floor took the function itself, and min(0.0, Q) raised TypeError
    net = network_from_spec({"beta_cap": 0.5, "segments": [
        {"kind": "line", "p0": [-1.0, 0.0], "p1": [1.0, 0.0]}]})
    mesh = fem.build_mesh(((-1.5, 1.5), (-1.5, 1.5)), 1.0 / 16.0)
    base = fem.assemble_base(mesh, None, lambda x, y: 0.5 * x ** 2)
    op = Operator.from_config({"alpha": -4.0}, net, base)
    form = op.form(0.25)
    res = op.solve(form)
    lam = sla.eigh(form.S.toarray(), form.M.toarray(), eigvals_only=True,
                   subset_by_index=[0, 0])[0]
    assert abs(res.eigenvalues[0] - lam) <= 1e-10 * abs(lam)
    assert res.shift < lam
    # the floor reads min(0, Q): 0 for this Q, and a scalar's own value
    assert base.floor == 0.0
    assert fem.assemble_base(mesh, None, -20.0).floor == -20.0
    assert fem.assemble_base(mesh, None, 0.75).floor == 0.0


def test_the_delta_spectrum_of_a_ring_converges_to_its_exact_ground_state():
    # -Laplace - 5 delta on the unit circle, the first exact 2D check of the
    # delta pencil: lam_1 is 8.6 percent high at h = 1/16 and 4.6 at 1/32
    ring = {"beta_cap": 0.5, "segments": [{"kind": "arc", "center": [0.0, 0.0], "radius": 1.0,
                                           "theta0": 0.0, "theta1": 2.0 * np.pi}]}
    exact = oracles.ring_delta_eigenvalues(-5.0, 1.0, 1)[0]
    errors = [run_spectrum({"network": ring, "alpha": -5.0, "k": 1,
                            "mesh": {"box": [[-3.5, 3.5], [-3.5, 3.5]], "h": h}})[0]
              ["eigenvalues"][0] - exact for h in (1.0 / 16.0, 1.0 / 32.0)]
    assert errors[1] > 0.0 and errors[0] >= 1.7 * errors[1]


# the unit ring of the test above in the field b = 1.5, whose symmetric gauge
# is centred in the box: the half-turn (x, y) -> (-x, -y) commutes with the
# pencil, and the ground state, the mode m = 1, is odd under it
MAGNETIC_RING = {"network": {"beta_cap": 0.5, "segments": [{
    "kind": "arc", "center": [0.0, 0.0], "radius": 1.0, "theta0": 0.0, "theta1": 2.0 * np.pi}]},
    "alpha": -5.0, "field_b": 1.5, "mesh": {"box": [[-3.5, 3.5], [-3.5, 3.5]], "h": 1.0 / 32.0}}


def test_a_k1_magnetic_eigensolve_finds_a_ground_state_odd_under_the_half_turn():
    # the trial state is even under the half-turn, and Lanczos from it alone
    # reached the odd ground state only through rounding: at h = 1/32 k = 1
    # returned lam_2 = -5.664502, and run_convergence took it as lam_delta
    lams = run_spectrum({**MAGNETIC_RING, "k": 3})[0]["eigenvalues"]
    assert lams[0] == pytest.approx(-5.786907, abs=1e-6)
    assert run_spectrum({**MAGNETIC_RING, "k": 1})[0]["eigenvalues"][0] == pytest.approx(
        lams[0], abs=1e-10)
    report, _ = run_convergence({**MAGNETIC_RING, "eps_grid": [0.4, 0.28, 0.2]})
    assert report["lam_delta"] == pytest.approx(lams[0], abs=1e-10)


def test_the_magnetic_delta_spectrum_of_a_ring_converges_to_its_radial_ground_state():
    # the first exact check of a magnetic delta pencil: the m = 1 mode of the
    # ring in the disc inscribed in the box (lam -6.103387), against errors
    # 0.5998 and 0.3165 at h = 1/16 and 1/32, 1.90 times per halving
    exact = oracles.ring_mode_eigenvalue(-5.0, 1.0, 1, 1.5, wall=3.5)
    errors = [run_spectrum({**MAGNETIC_RING, "k": 1,
                            "mesh": {**MAGNETIC_RING["mesh"], "h": h}})[0]["eigenvalues"][0]
              - exact for h in (1.0 / 16.0, 1.0 / 32.0)]
    assert errors[1] > 0.0 and errors[0] >= 1.7 * errors[1]


def test_zero_strength_magnetic_spectrum_matches_dense_eigh():
    cfg = {
        "network": {
            "beta_cap": 0.5,
            "segments": [{"kind": "line", "p0": [-1.0, 0.0], "p1": [1.0, 0.0]}],
        },
        "alpha": 0.0,
        "field_b": 1.5,
        "mesh": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 0.25},
        "k": 3,
    }
    op = config_operator(cfg)
    form = op.form()
    assert form.S.shape[0] >= 60  # past the dense cutoff of lowest_eigs
    assert trial_upper_bound(op, form) == (None, None)
    report, _ = run_spectrum(cfg)
    lam = sla.eigh(form.S.toarray(), form.M.toarray(), eigvals_only=True)
    assert np.allclose(report["eigenvalues"], lam[:3], rtol=1e-10, atol=0.0)


# ---------------------------------------------------------------------- cli


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_converge_roundtrip(tmp_path, capsys):
    eps_grid = [0.5, 0.45, 0.4, 0.35, 0.25]
    cfg_path = write_cfg(tmp_path, "c.json", small_convergence_cfg(eps_grid=eps_grid))
    out, mm = str(tmp_path / "out"), str(tmp_path / "mm")
    code = cli.main(["converge", "--config", cfg_path, "--out", out, "--dump-mm", mm])
    captured = capsys.readouterr()
    assert "converge:" in captured.out
    assert code in (0, 2)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    csv_bytes = (tmp_path / "out" / "data.csv").read_bytes()
    assert report["csv_sha256"] == hashlib.sha256(csv_bytes).hexdigest()
    header = csv_bytes.decode().splitlines()[0]
    assert header == "eps,res_norm,eig_gap,converged"
    # every flag is a config setting, echoed in the report
    config = report["config"]
    assert {key: config[key] for key in ("out", "dump_mm")} == {"out": out, "dump_mm": mm}
    tags = ["delta"] + [f"eps_{e:g}" for e in eps_grid]  # six pencils
    assert sorted(os.listdir(mm)) == sorted(f"{tag}_{name}.mtx" for tag in tags for name in "SM")


def test_cli_dump_matrix_market(tmp_path):
    cfg_path = write_cfg(
        tmp_path, "s.json",
        {
            "network": {
                "beta_cap": 0.5,
                "segments": [{"kind": "line", "p0": [-1.0, 0.0], "p1": [1.0, 0.0]}],
            },
            "alpha": -4.0,
            "mesh": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 1.0 / 16.0},
            "k": 1,
        },
    )
    mm_dir = str(tmp_path / "mm")
    code = cli.main(["spectrum", "--config", cfg_path, "--dump-mm", mm_dir])
    assert code == 0
    S = scipy.io.mmread(os.path.join(mm_dir, "spectrum_S.mtx"))
    M = scipy.io.mmread(os.path.join(mm_dir, "spectrum_M.mtx"))
    assert S.shape == M.shape and S.shape[0] > 100


def test_cli_oracle_commands(tmp_path, capsys):
    p1 = write_cfg(tmp_path, "o.json", {"alpha": -5.0, "beta": 0.02, "eps": 0.01})
    assert cli.main(["oracle1d", "--config", p1]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["oracle_cross_check"]["point_delta"] == -6.25

    p2 = write_cfg(tmp_path, "b.json", {"d": 2.0, "k": 3})
    assert cli.main(["cusp-b", "--config", p2]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["oracle_cross_check"]["max_deviation"] < 1e-3

    p3 = write_cfg(tmp_path, "w.json", {"phi": 1.0, "alpha": -1e-6, "theta": 1.5})
    assert cli.main(["wedge-f", "--config", p3]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])
    assert payload["outputs"]["inf_F"] == pytest.approx(-1.25, abs=1e-4)


def test_cli_oracle_commands_take_only_config(tmp_path, capsys):
    path = write_cfg(tmp_path, "b.json", {"d": 2.0, "k": 3})
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["cusp-b", "--config", path, "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err


def test_cli_converge_has_no_threads_flag(tmp_path, capsys):
    # the eps points run on one thread; a config's "threads" is an unknown entry
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["converge", "--config", str(tmp_path / "c.json"), "--threads", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["converge", "stargraph", "cusp", "wedge", "spectrum"])
def test_cli_has_no_seed_flag(tmp_path, capsys, command):
    # a config's "seed" is ignored: one fixed seed draws every random start
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--config", str(tmp_path / "c.json"), "--seed", "5"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_cli_error_exit_code(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "bad.json", small_convergence_cfg(eps_grid=[2.0, 1.0]))
    assert cli.main(["converge", "--config", cfg_path]) == 1
    assert "error:" in capsys.readouterr().err


def test_network_from_spec_errors():
    with pytest.raises(ConfigError):
        network_from_spec({"beta_cap": 0.5, "segments": [{"kind": "triangle"}]})
    with pytest.raises(ConfigError):
        network_from_spec({"segments": []})


MESH = {"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 1.0 / 16.0}


def without(cfg, key):
    return {k: v for k, v in cfg.items() if k != key}


MISSING_KEY_CASES = [
    ("stargraph", without(star_cfg(), "N"), "stargraph config is missing 'N'"),
    ("cusp", {"d": 2.0, "mesh": MESH}, "cusp config is missing 'alpha_list'"),
    ("spectrum", {"alpha": -4.0, "mesh": MESH}, "spectrum config is missing 'network'"),
    ("wedge", without(wedge_cfg(), "phi"), "wedge config is missing 'phi'"),
    ("converge", small_convergence_cfg(mesh={"box": MESH["box"]}),
     "convergence config is missing 'mesh.h'"),
    ("wedge-f", {"phi": 1.0, "alpha": -1e-6}, "wedge-f config is missing 'theta'"),
    # a block's missing entry names the block; a profile's died with a raw
    # KeyError, printed as "error: 'value'"
    ("spectrum", {"network": {"beta_cap": 0.5, "segments": [{"kind": "line", "p0": [-1.0, 0.0]}]},
                  "alpha": -4.0, "mesh": MESH}, "network segment 0 is missing 'p1'"),
    ("spectrum", {"network": {"beta_cap": 0.5, "segments": [{"kind": "line", "p0": [-1.0, 0.0],
                                                             "p1": [1.0, 0.0]}]},
                  "profile": {"kind": "constant"}, "mesh": MESH},
     "profile entry 0 is missing 'value'"),
]


# a missing entry of a block adds the block to the id
@pytest.mark.parametrize("command, cfg, missing", MISSING_KEY_CASES,
                         ids=[command + ("" if " config " in missing else "-" + missing.split()[0])
                              for command, _, missing in MISSING_KEY_CASES])
def test_missing_config_key_names_scenario_and_key(tmp_path, capsys, command, cfg, missing):
    assert cli.main([command, "--config", write_cfg(tmp_path, "c.json", cfg)]) == 1
    assert capsys.readouterr().err == f"error: {missing}\n"


LINE_NETWORK = {
    "beta_cap": 0.5,
    "segments": [{"kind": "line", "p0": [-1.0, 0.0], "p1": [1.0, 0.0]}],
}
OUT_PATH_CASES = [
    ("convergence", run_convergence, small_convergence_cfg()),
    ("stargraph", run_stargraph, star_cfg()),
    ("cusp", run_cusp, {"d": 2.0, "alpha_list": [-2.0, -3.0], "x_max": 0.5,
                        "mesh": {"box": [[-1.0, 2.0], [-1.5, 1.5]], "h": 1.0 / 16.0}}),
    ("wedge", run_wedge, wedge_cfg()),
    ("spectrum", run_spectrum, {"network": LINE_NETWORK, "alpha": -4.0, "mesh": MESH}),
]


# the report directory and the Matrix Market dump directory ("-dump_mm")
@pytest.mark.parametrize("scenario, runner, cfg, key",
                         [(*case, key) for key in ("out", "dump_mm") for case in OUT_PATH_CASES],
                         ids=[case[0] + ("" if key == "out" else "-dump_mm")
                              for key in ("out", "dump_mm") for case in OUT_PATH_CASES])
def test_unusable_out_path_fails_before_any_mesh(tmp_path, built, scenario, runner, cfg, key):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "sub")
    with pytest.raises(ConfigError, match=f"{scenario} output path not writable: {re.escape(out)}"):
        runner({**cfg, key: out})
    assert built == []


@pytest.mark.parametrize("eps", [[0.3], [0.4, 0.3], "0.3", True])
@pytest.mark.parametrize("scenario, runner, cfg", OUT_PATH_CASES[1:],
                         ids=[case[0] for case in OUT_PATH_CASES[1:]])
def test_eps_not_a_number_fails_before_any_mesh(built, scenario, runner, cfg, eps):
    # np.min and np.max pass a list: the run then failed after its mesh and
    # base assembly, comparing a float with a list; a string failed in np.min
    # with numpy's UFuncTypeError, and True ran as eps = 1
    with pytest.raises(ConfigError, match=f"{scenario} config: 'eps' must be a number, "
                                          f"got {re.escape(repr(eps))}"):
        runner({**cfg, "eps": eps})
    assert built == []


@pytest.mark.parametrize("eps_grid", [["0.5", "0.35", "0.25"], [0.5, True, 0.25], [], 0.5, None],
                         ids=["strings", "bool", "empty", "number", "none"])
def test_eps_grid_not_a_list_of_numbers_fails_before_any_mesh(built, eps_grid):
    # a grid of strings passed np.asarray(..., dtype=float), then failed in np.min
    with pytest.raises(ConfigError, match="convergence config: 'eps_grid' must be a nonempty "
                                          f"list of numbers, got {re.escape(repr(eps_grid))}"):
        run_convergence(small_convergence_cfg(eps_grid=eps_grid))
    assert built == []


COUNT_CASES = [
    ("spectrum", "k", run_spectrum, OUT_PATH_CASES[4][2]),
    ("wedge", "k", run_wedge, wedge_cfg()),
    ("stargraph", "N", run_stargraph, star_cfg()),
]


@pytest.mark.parametrize("value", [0, 2.0, "3", True])
@pytest.mark.parametrize("scenario, key, runner, cfg", COUNT_CASES,
                         ids=[f"{case[0]}-{case[1]}" for case in COUNT_CASES])
def test_count_not_a_positive_integer_fails_before_any_mesh(built, scenario, key, runner, cfg,
                                                           value):
    # k = 0 died in the eigensolver with numpy's zero-size ValueError, k = 2.0
    # in Lanczos with a TypeError, and N = 3.0 in [360 / N] * N
    with pytest.raises(ConfigError, match=f"{scenario} config: '{key}' must be a positive "
                                          f"integer, got {re.escape(repr(value))}"):
        runner({**cfg, key: value})
    assert built == []


def test_an_empty_cusp_alpha_list_fails_before_any_mesh(built):
    with pytest.raises(ConfigError, match="cusp config: 'alpha_list' must be nonempty"):
        run_cusp({**SMALL_CUSP, "alpha_list": []})
    assert built == []


TWO_LINES = {"beta_cap": 0.5,
             "segments": line_spec(((-1.0, -0.5), (1.0, -0.5)), ((-1.0, 0.5), (1.0, 0.5)))}


@pytest.mark.parametrize("alpha, entry, bad", [
    ("-5", "'alpha'", "-5"), (True, "'alpha'", True),
    (["-5"], "'alpha' entry 0", "-5"), ([-5.0, True], "'alpha' entry 1", True),
], ids=["string", "bool", "string-entry", "bool-entry"])
@pytest.mark.parametrize("scenario, runner, cfg", [OUT_PATH_CASES[0], OUT_PATH_CASES[4]],
                         ids=["convergence", "spectrum"])
def test_alpha_not_a_real_number_fails_before_any_mesh(built, scenario, runner, cfg, alpha,
                                                      entry, bad):
    # a string died in numpy's dtype parsing after the mesh, base and form
    # were built, and True ran as alpha = 1
    with pytest.raises(ConfigError, match=f"{scenario} config: {re.escape(entry)} must be a "
                                          f"real number, got {re.escape(repr(bad))}"):
        runner({**cfg, "network": TWO_LINES, "alpha": alpha})
    assert built == []


@pytest.mark.parametrize("key, value", [
    ("h", "0.125"), ("h", True), ("h", -0.125), ("h", 0),
    ("box", [[2.0, -2.0], [-2.0, 2.0]]), ("box", [[-2.0, 2.0]]),
    ("box", [["-2", "2"], [-2.0, 2.0]]), ("box", "[[-2, 2], [-2, 2]]"),
], ids=["h-string", "h-bool", "h-negative", "h-zero",
        "box-decreasing", "box-one-pair", "box-strings", "box-string"])
@pytest.mark.parametrize("scenario, runner, cfg", OUT_PATH_CASES,
                         ids=[case[0] for case in OUT_PATH_CASES])
def test_mesh_entry_not_a_step_or_box_fails_before_any_mesh(built, scenario, runner, cfg, key,
                                                           value):
    # a string step died in `_mesh` with a TypeError naming no entry, and a
    # negative one reached fem.build_mesh
    message = ("a positive number" if key == "h" else
               r"two increasing pairs of numbers, \[\[x0, x1\], \[y0, y1\]\]")
    with pytest.raises(ConfigError, match=f"{scenario} config: 'mesh.{key}' must be {message}, "
                                          f"got {re.escape(repr(value))}"):
        runner({**cfg, "mesh": {**cfg["mesh"], key: value}})
    assert built == []


@pytest.mark.parametrize("entry, message", [
    ({"alpha": [-5.0, -5.0, -5.0]}, "'alpha' entry 2 has no segment: the network has 2"),
    ({"profile": {"segment": 5, "kind": "constant", "value": -5.0}},
     "profile entry 0: 'segment' 5 is not a segment of the network, which has 2"),
    ({"profile": [{"kind": "constant", "value": -5.0},
                  {"segment": -1, "kind": "constant", "value": -5.0}]},
     "profile entry 1: 'segment' -1 is not a segment of the network, which has 2"),
], ids=["alpha", "profile", "negative"])
def test_a_strength_entry_without_a_segment_fails_before_any_mesh(built, entry, message):
    # the run failed with an IndexError in the trial bound, after the mesh,
    # the base and the delta form were built
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_spectrum({"network": TWO_LINES, "mesh": MESH, **entry})
    assert built == []


@pytest.mark.parametrize("eps", [None, 0.25], ids=["delta", "squeezed"])
def test_two_profiles_on_one_segment_fail_before_any_mesh(built, eps):
    # the delta run kept the last profile, -6 alone (lam_1 = -7.478474), and
    # the squeezed run raised ParameterError once its mesh was built
    profiles = [{"kind": "constant", "value": value} for value in (-2.0, -6.0)]
    with pytest.raises(ConfigError, match="profile entries 0 and 1 are both on segment 0"):
        run_spectrum({"network": {"beta_cap": 0.5, "segments": [
            {"kind": "line", "p0": [-1.0, 0.0], "p1": [1.0, 0.0]}]},
            "profile": profiles, "eps": eps, "k": 1,
            "mesh": {"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 1.0 / 32.0}})
    assert built == []


def test_a_profile_that_refuses_its_table_names_its_entry(built):
    # the bare ParameterError of tabulated_profile reached the user
    profiles = [{"segment": 0, "kind": "constant", "value": -5.0},
                {"segment": 1, "kind": "tabulated", "s_grid": [0.0, 2.0],
                 "t_grid": [0.3, -0.3], "values": [[1.0, 2.0], [1.0, 2.0]]}]
    with pytest.raises(ConfigError, match="profile entry 1: t_grid must be strictly "
                                          "increasing") as raised:
        run_spectrum({"network": TWO_LINES, "mesh": MESH, "profile": profiles})
    assert isinstance(raised.value.__cause__, potentials.ParameterError)
    assert built == []


@pytest.mark.parametrize("key, value", [
    ("g_s", [[1.0, 2.0], [3.0, 4.0]]), ("g_s", []), ("g_s", [[]]),
    ("g_t", [[1.0, 2.0], [3.0, 4.0]]), ("g_t", []), ("g_t", [[]]),
], ids=["g_s-table", "g_s-empty", "g_s-empty-table", "g_t-table", "g_t-empty", "g_t-empty-table"])
def test_a_separable_polynomial_not_a_list_of_numbers_fails_before_any_mesh(built, key, value):
    # a table ran without a word, an empty list as a zero profile, and [[]]
    # died with a bare numpy ValueError once the profile was evaluated
    profile = {"kind": "separable", "g_s": [1.0], "g_t": [-2.0], key: value}
    with pytest.raises(ConfigError, match=f"profile entry 0: '{key}' must be a nonempty list of "
                                          f"numbers, got {re.escape(repr(value))}"):
        run_spectrum({"network": LINE_NETWORK, "mesh": MESH, "profile": profile})
    assert built == []


SQUEEZED_TOO_FINE = [
    ("convergence", "eps_grid", run_convergence,
     small_convergence_cfg(eps_grid=[0.5, 0.35, 0.2])),
    ("stargraph", "eps", run_stargraph, star_cfg(eps=0.2, mesh=MESH)),
    ("cusp", "eps", run_cusp, {**SMALL_CUSP, "eps": 0.2}),
    ("wedge", "eps", run_wedge, wedge_cfg(eps=0.2)),
    ("spectrum", "eps", run_spectrum,
     {"network": LINE_NETWORK, "alpha": -4.0, "mesh": MESH, "eps": 0.2}),
]


@pytest.mark.parametrize("scenario, key, runner, cfg", SQUEEZED_TOO_FINE,
                         ids=[case[0] for case in SQUEEZED_TOO_FINE])
def test_squeezed_width_below_4h_fails_before_any_mesh(built, scenario, key, runner, cfg):
    with pytest.raises(ConfigError, match=f"{scenario} config: '{key}' needs 'mesh.h' <= 0.2/4"):
        runner(cfg)
    assert built == []


@pytest.mark.parametrize("eps", [0.0, -0.2])
@pytest.mark.parametrize("scenario, key, runner, cfg", SQUEEZED_TOO_FINE,
                         ids=[case[0] for case in SQUEEZED_TOO_FINE])
def test_squeezed_width_not_positive_fails_before_any_mesh(built, scenario, key, runner, cfg,
                                                          eps):
    # it was refused as unresolved, "'eps' needs 'mesh.h' <= -0.05"
    value = [*cfg[key][:-1], eps] if key == "eps_grid" else eps
    with pytest.raises(ConfigError, match=f"{scenario} config: '{key}' must be positive, "
                                          f"got {re.escape(repr(value))}$"):
        runner({**cfg, key: value})
    assert built == []


SQUEEZED_TOO_WIDE = [
    ("convergence", "eps_grid", run_convergence,
     small_convergence_cfg(eps_grid=[1.5, 1.0, 0.5])),
    ("stargraph", "eps", run_stargraph, star_cfg(eps=0.5)),
    ("cusp", "eps", run_cusp, {**SMALL_CUSP, "eps": 0.3}),
    ("wedge", "eps", run_wedge, wedge_cfg(eps=0.4)),
    ("spectrum", "eps", run_spectrum,
     {"network": LINE_NETWORK, "alpha": -4.0, "mesh": MESH, "eps": 0.6}),
]


@pytest.mark.parametrize("scenario, key, runner, cfg", SQUEEZED_TOO_WIDE,
                         ids=[case[0] for case in SQUEEZED_TOO_WIDE])
def test_squeezed_width_above_beta_fails_before_any_mesh(monkeypatch, built, scenario, key,
                                                         runner, cfg):
    networks = []
    init = geometry.Network.__init__
    monkeypatch.setattr(geometry.Network, "__init__",
                        lambda net, *a, **kw: networks.append(net) or init(net, *a, **kw))
    with pytest.raises(ConfigError, match=f"{scenario} config: '{key}' = .* exceeds beta = "):
        runner(cfg)
    assert built == []
    assert len(networks) == (3 if scenario == "stargraph" else 1)


ORACLE_CFGS = {"oracle1d": {"alpha": -1.0}, "cusp-b": {"d": 2.0},
               "wedge-f": {"phi": 1.0, "alpha": -1e-6, "theta": 1.5}}
RUNNER_CFGS = {
    "convergence": (run_convergence, small_convergence_cfg()),
    "stargraph": (run_stargraph, star_cfg()),
    "cusp": (run_cusp, SMALL_CUSP),
    "wedge": (run_wedge, wedge_cfg()),
    "spectrum": (run_spectrum, {"network": LINE_NETWORK, "alpha": -4.0, "mesh": MESH}),
}
# the entries of each command that no check read: a string passed or died late
# with a raw error, and a bool ran as 0 or 1
UNREAD = {
    "stargraph": ("L", "rot_deg", "beta_cap"), "cusp": ("d", "x_max", "beta_cap"),
    "wedge": ("phi", "b", "theta", "ray_length", "beta_cap"),
    "convergence": ("field_b", "q"), "spectrum": ("field_b", "q"),
    "oracle1d": ("alpha", "beta", "eps"), "wedge-f": ("phi", "alpha", "theta"),
    "cusp-b": ("d", "x_max"),
}
UNREAD_COUNTS = {"oracle1d": ("cells_per_eps",), "cusp-b": ("k", "n")}


def network_case(*segments, beta_cap=0.5):
    return {"network": {"beta_cap": beta_cap, "segments": list(segments)}, "alpha": -4.0,
            "mesh": MESH}


LINE = {"kind": "line", "p0": [-1.0, 0.0], "p1": [1.0, 0.0]}
ARC = {"kind": "arc", "center": [0.0, 0.0], "radius": 1.0, "theta0": 0.0, "theta1": 3.0}
CUSP = {"kind": "cusp", "exponent": 2.0, "x_max": 0.5}
BOX = "((-2.0, 2.0), (-2.0, 2.0))"
# (command, config, error, message)
BAD_ENTRY_CASES = [
    *[(scenario, {key: bad}, ConfigError,
       f"{scenario} config: {key!r} must be a number, got {bad!r}")
      for scenario, keys in UNREAD.items() for key in keys for bad in ("1", True)],
    *[(scenario, {key: bad}, ConfigError,
       f"{scenario} config: {key!r} must be a positive integer, got {bad!r}")
      for scenario, keys in UNREAD_COUNTS.items() for key in keys for bad in (2.5, "2", True)],
    ("stargraph", {"angles": [120.0, "120", 120.0]}, ConfigError,
     "stargraph config: 'angles' entry 1 must be a real number, got '120'"),
    ("stargraph", {"angles": [120.0, 120.0, True]}, ConfigError,
     "stargraph config: 'angles' entry 2 must be a real number, got True"),
    ("spectrum", {"q": {"kind": "constant", "value": "1"}}, ConfigError,
     "spectrum config: 'q.value' must be a number, got '1'"),
    # L = -1 ran as the star turned by 180 degrees
    *[("stargraph", {"L": L}, ConfigError,
       f"stargraph config: 'L' must be a positive number, got {L}") for L in (0, -1)],
    # a one-coordinate point was broadcast: p0 [-1] made the line from (-1, -1)
    ("spectrum", network_case({**LINE, "p0": [-1.0]}), ConfigError,
     "network segment 0: 'p0' must be a pair of numbers, got [-1.0]"),
    ("spectrum", network_case(LINE, {**ARC, "center": [0.5]}), ConfigError,
     "network segment 1: 'center' must be a pair of numbers, got [0.5]"),
    ("spectrum", network_case({**LINE, "p1": ["1", 0.0]}), ConfigError,
     "network segment 0: 'p1' must be a pair of numbers, got ['1', 0.0]"),
    ("spectrum", network_case(LINE, beta_cap="0.5"), ConfigError,
     "network: 'beta_cap' must be a number, got '0.5'"),
    ("spectrum", network_case({**ARC, "radius": "1"}), ConfigError,
     "network segment 0: 'radius' must be a number, got '1'"),
    ("spectrum", network_case({**ARC, "theta1": True}), ConfigError,
     "network segment 0: 'theta1' must be a number, got True"),
    ("spectrum", network_case({**CUSP, "exponent": "2"}), ConfigError,
     "network segment 0: 'exponent' must be a number, got '2'"),
    ("spectrum", network_case({"kind": "spline", "points": [[0.0, 0.0], [1.0]]}), ConfigError,
     "network segment 0: 'points' must be a list of pairs of numbers, got [[0.0, 0.0], [1.0]]"),
    ("spectrum", {**network_case(), "network": {"beta_cap": 0.5, "segments": "x"}}, ConfigError,
     "network: 'segments' must be a list of segment blocks, got 'x'"),
    ("spectrum", {**network_case(LINE), "alpha": None,
                  "profile": {"kind": "constant", "value": "x"}}, ConfigError,
     "profile entry 0: 'value' must be a number, got 'x'"),
    # a delta curve that leaves the box failed in the line term, after the mesh
    ("convergence", {"network": {"beta_cap": 0.5, "segments": [{**LINE, "p1": [2.5, 0.0]}]}},
     fem.GeometryError, f"segment 0: curve quadrature points leave the open box {BOX}"),
    ("stargraph", {"L": 2.5}, fem.GeometryError,
     f"segment 0: curve quadrature points leave the open box {BOX}"),
    ("cusp", {"x_max": 2.0}, fem.GeometryError,
     "segment 0: curve quadrature points leave the open box ((-1.0, 2.0), (-1.5, 1.5))"),
    # a list given as one number died in list(...), and a string flag was true
    ("stargraph", {"angles": 120.0}, ConfigError,
     "stargraph config: 'angles' must be a list of numbers, got 120.0"),
    ("cusp", {"alpha_list": -2.0}, ConfigError,
     "cusp config: 'alpha_list' must be a list of numbers, got -2.0"),
    *[("convergence", {"refine_check": bad}, ConfigError,
       f"convergence config: 'refine_check' must be true or false, got {bad!r}")
      for bad in ("no", "false", 1)],
    # a null required entry is checked as a value; it died with a raw TypeError
    ("cusp", {"d": None}, ConfigError, "cusp config: 'd' must be a number, got None"),
    ("stargraph", {"angles": None}, ConfigError,
     "stargraph config: 'angles' must be a list of numbers, got None"),
    ("cusp-b", {"d": None}, ConfigError, "cusp-b config: 'd' must be a number, got None"),
    # a network that is not a block, or a path that is not a string, died
    # with a raw TypeError that named neither the command nor the entry
    *[(scenario, {"network": bad}, ConfigError,
       f"{scenario} config: 'network' must be a network block, got {bad!r}")
      for scenario in ("spectrum", "convergence") for bad in (None, [1], "x")],
    *[(scenario, {key: bad}, ConfigError,
       f"{scenario} config: {key!r} must be a directory path, got {bad!r}")
      for scenario in ("spectrum", "convergence") for key, bad in (("out", 5), ("dump_mm", True))],
    # a mesh that is not a block was reported as missing 'mesh.box'
    *[(scenario, {"mesh": bad}, ConfigError,
       f"{scenario} config: 'mesh' must be a mesh block, got {bad!r}")
      for scenario in ("spectrum", "convergence") for bad in (None, [1], "x")],
    # a profile that is neither a block nor a list died with a raw TypeError
    ("spectrum", {"alpha": None, "profile": 5}, ConfigError,
     "spectrum config: 'profile' must be a profile block or a list of them, got 5"),
    # a third edge on the first, and gaps that are not the angles given
    *[("stargraph", {"angles": bad}, ConfigError,
       f"stargraph config: 'angles' must be positive, got {bad!r}")
      for bad in ([400.0, -40.0, 0.0], [200.0, 200.0, -40.0])],
]


@pytest.mark.parametrize("command, entries, error, message", BAD_ENTRY_CASES,
                         ids=[f"{case[0]}-{'-'.join(map(str, case[1]))}-{i}"
                              for i, case in enumerate(BAD_ENTRY_CASES)])
def test_a_bad_entry_fails_before_any_mesh_naming_it(tmp_path, capsys, built, command,
                                                    entries, error, message):
    if command in ORACLE_CFGS:
        cfg = write_cfg(tmp_path, "c.json", {**ORACLE_CFGS[command], **entries})
        assert cli.main([command, "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        runner, cfg = RUNNER_CFGS[command]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            runner({**cfg, **entries})
    assert built == []


# (command, entry) pairs: a null died with a raw TypeError before any mesh, or
# (wedge "b") after it, or (oracle1d "beta") in a comparison; a null count
# was refused as not a positive integer, and refine_check ran as false
NULL_CASES = [("stargraph", "L"), ("stargraph", "rot_deg"), ("cusp", "x_max"),
              ("wedge", "beta_cap"), ("wedge", "ray_length"), ("wedge", "b"),
              ("oracle1d", "beta"), ("cusp-b", "k"), ("convergence", "refine_check"),
              ("spectrum", "k")]
# configs in place of RUNNER_CFGS': the default x_max = 0.75 takes the cusp's
# arc to x = 2.6, and the star runs at h = 1/16
NULL_CFGS = {"cusp": {**SMALL_CUSP, "mesh": {"box": [[-1.0, 3.0], [-1.5, 1.5]], "h": 1.0 / 16.0}},
             "stargraph": star_cfg(mesh=MESH)}


@pytest.mark.parametrize("command, key", NULL_CASES, ids=[f"{c}-{k}" for c, k in NULL_CASES])
def test_a_null_entry_runs_as_the_config_without_it(tmp_path, capsys, command, key):
    def outcome(cfg):
        """The report less its config echo and the status, or the error."""
        if command in ORACLE_CFGS:
            code = cli.main([command, "--config", write_cfg(tmp_path, "c.json", cfg)])
            return code, capsys.readouterr()
        try:
            report, status = RUNNER_CFGS[command][0](cfg)
        except ConfigError as err:
            return str(err)
        return without(report, "config"), status

    cfg = NULL_CFGS.get(command) or ORACLE_CFGS.get(command) or RUNNER_CFGS[command][1]
    assert outcome({**without(cfg, key), key: None}) == outcome(without(cfg, key))


class MeshBuilt(Exception):
    """Raised in place of a run's first mesh, once every check has passed."""


def refuse_mesh(box, h):
    raise MeshBuilt


# misspelt entries inside blocks, each dropped without a word before:
# (command, blocks that replace the config's, the warnings they add)
BLOCK_TYPOS = {
    "mesh_hh": ("spectrum", {"mesh": {**MESH, "hh": 0.1}},
                ["spectrum config: unknown entry 'mesh.hh', ignored"]),
    "network_beta_kap": ("convergence", {"network": {**LINE_NETWORK, "beta_kap": 0.3}},
                         ["network: unknown entry 'beta_kap', ignored"]),
    "cusp_colar": ("spectrum", {"network": {"beta_cap": 0.2, "segments": [
        {"kind": "cusp", "exponent": 2.0, "x_max": 0.5, "colar": 0.01}]}},
        ["network segment 0: unknown entry 'colar', ignored"]),
    # read once per run, so logged once, though the delta form checks its quadrature too
    "profile_segmnet": ("convergence", {"profile": {"kind": "constant", "value": -4.0,
                                                    "segmnet": 1}},
                        ["profile entry 0: unknown entry 'segmnet', ignored"]),
}


@pytest.mark.parametrize("command, blocks, logged", [
    *((command, {}, []) for command in [*RUNNER_CFGS, *ORACLE_CFGS]), *BLOCK_TYPOS.values()],
    ids=[*RUNNER_CFGS, *ORACLE_CFGS, *BLOCK_TYPOS])
def test_each_unknown_entry_is_logged_once_and_ignored(tmp_path, monkeypatch, caplog, command,
                                                       blocks, logged):
    # a misspelt "feild_b" ran the operator without a field and said nothing;
    # every runner knows "seed", "out" and "dump_mm", and no oracle command
    # does; no command knows "threads", so a config that sets it runs on
    extra = {"feild_b": 1.5, "threads": 2, "seed": 5, "dump_mm": str(tmp_path / "mm")}
    monkeypatch.setattr(fem, "build_mesh", refuse_mesh)
    with caplog.at_level(logging.WARNING, logger="deltasqueeze.lab"):
        if command in ORACLE_CFGS:
            cfg = write_cfg(tmp_path, "c.json", {**ORACLE_CFGS[command], **extra})
            assert cli.main([command, "--config", cfg]) == 0
        else:
            runner, cfg = RUNNER_CFGS[command]
            with pytest.raises(MeshBuilt):
                runner({**cfg, **blocks, **extra})
    unknown = list(extra) if command in ORACLE_CFGS else ["feild_b", "threads"]
    assert sorted(caplog.messages) == sorted(
        [f"{command} config: unknown entry {key!r}, ignored" for key in unknown] + logged)


def test_a_profile_is_known_where_it_may_replace_alpha(caplog):
    # stargraph and wedge read their required alpha and no profile
    profile = {"kind": "constant", "value": -5.0}
    with caplog.at_level(logging.WARNING, logger="deltasqueeze.lab"):
        lab._check("spectrum", {"profile": profile, "mesh": MESH}, strengths={"alpha": None},
                   run=True)
        lab._check("stargraph", {"alpha": -1.0, "profile": profile}, strengths={"alpha": ...})
        lab._check("oracle1d", {"alpha": -1.0, "profile": profile}, reals={"alpha": ...})
    assert caplog.messages == [f"{command} config: unknown entry 'profile', ignored"
                               for command in ("stargraph", "oracle1d")]
