import hashlib
import json
import os
import re
import types

import numpy as np
import pytest
import scipy.io
import scipy.linalg as sla

from deltasqueeze import cli, fem, geometry, spectral
from deltasqueeze.fem import ResolutionError
from deltasqueeze.lab import (
    ConfigError,
    DistanceTable,
    Operator,
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


# ------------------------------------------------------------- convergence


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


def test_convergence_threads_match_serial():
    rep1, _ = run_convergence(small_convergence_cfg())
    rep2, _ = run_convergence(small_convergence_cfg(threads=2))
    assert rep1["res_norms"] == rep2["res_norms"]
    assert rep1["lam_eps"] == rep2["lam_eps"]


REPORTED = ("lam_delta", "lam_eps", "res_norms", "eig_gaps", "shift")


def test_convergence_falls_back_to_fresh_factors_when_inertia_is_not_zero(monkeypatch):
    count_below = spectral.count_below
    reused, _ = run_convergence(small_convergence_cfg())
    calls = []

    def one_eps_pencil_reports_one(factor):
        calls.append(factor.lam)
        return 1 if len(calls) == 2 else count_below(factor)

    monkeypatch.setattr(spectral, "count_below", one_eps_pencil_reports_one)
    fallback, _ = run_convergence(small_convergence_cfg())
    monkeypatch.setattr(spectral, "count_below", lambda factor: None)
    all_fresh, _ = run_convergence(small_convergence_cfg())
    assert len(calls) == 3
    for key in REPORTED:
        assert np.allclose(fallback[key], all_fresh[key], rtol=1e-10, atol=0.0), key
        assert np.allclose(reused[key], all_fresh[key], rtol=1e-10, atol=0.0), key
    assert fallback["shift_verified_below_all_pencils"]
    assert all_fresh["shift_verified_below_all_pencils"]


def test_convergence_factors_each_pencil_once_at_the_common_shift(monkeypatch):
    splu = spectral.spla.splu
    factored = []

    def counting(*args, **kwargs):
        factored.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(spectral.spla, "splu", counting)
    cfg = small_convergence_cfg()
    run_convergence(cfg)
    # the delta eigensolve, the delta resolvent, and one factor per eps
    assert len(factored) == 2 + len(cfg["eps_grid"])


def test_convergence_flags_nonconverged_power_iteration(monkeypatch, tmp_path):
    spla = spectral.spla  # the real module: the proxy's eigsh calls it

    def eigsh(*args, **kwargs):
        if kwargs["sigma"] == 0.0:  # the norms; every eigensolve shifts below 0
            raise spla.ArpackNoConvergence("forced", np.empty(0), np.empty((0, 0)))
        return spla.eigsh(*args, **kwargs)

    proxy = types.SimpleNamespace(**{**vars(spla), "eigsh": eigsh})
    monkeypatch.setattr(spectral, "spla", proxy)
    report, status = run_convergence(small_convergence_cfg(out=str(tmp_path)))
    assert report["res_converged"] == [False, False, False]
    assert report["flags"]["power_iteration_nonconverged"]
    assert status == 2
    # the start vector's lower bounds stand in, so the fits still run
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


def test_magnetic_convergence_norms_match_dense_resolvents():
    # complex Hermitian pencils: the norm takes ARPACK's complex path
    cfg = small_convergence_cfg(field_b=1.5, eps_grid=[1.0, 0.7, 0.5],
                                mesh={"box": [[-2.0, 2.0], [-2.0, 2.0]], "h": 1.0 / 8.0})
    report, _ = run_convergence(cfg)
    op = Operator.from_config(cfg)
    form_delta = op.form()
    assert np.iscomplexobj(form_delta.S.data)
    M = form_delta.M.toarray()

    def resolvent(form):
        return sla.solve(form.S.toarray() - report["shift"] * M, M)

    R_delta = resolvent(form_delta)
    for eps, norm in zip(cfg["eps_grid"], report["res_norms"]):
        mu = sla.eigvals(R_delta - resolvent(op.form(eps)))
        assert norm == pytest.approx(np.max(np.abs(mu)), rel=1e-12)


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
    net = cusp_network(2.0, 0.75)
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


@pytest.mark.parametrize("d", [2.0, 1.5])
def test_cusp_trial_bound_stays_above_the_ground_state(d):
    net = cusp_network(d, 0.5)
    mesh = fem.build_mesh(((-0.5, 1.5), (-1.0, 1.0)), 1.0 / 16.0)
    distances = DistanceTable(mesh, net)
    for alpha in (-6.0, -10.0):
        op = Operator.uniform(mesh, net, alpha, distances=distances)
        form = op.form()
        lam1 = sla.eigh(form.S.toarray(), form.M.toarray(), eigvals_only=True)[0]
        bound = trial_upper_bound(op.mesh, op.net, op.strengths, form, op.distances)
        assert lam1 <= bound
        assert bound == trial_upper_bound(op.mesh, op.net, op.strengths, form)


def test_cusp_with_a_positive_trial_bound_finds_the_ground_state():
    # the trial bound is +1.92: a shift seeded from it lies above lam_1 = -9.76,
    # where shift-invert Lanczos with k = 1 converges to lam_2 = -1.40
    box, h = ((-0.5, 1.5), (-1.0, 1.0)), 1.0 / 16.0
    report, _ = run_cusp({"d": 1.5, "alpha_list": [-6.0], "x_max": 0.5,
                          "mesh": {"box": [list(b) for b in box], "h": h}})
    op = Operator.uniform(fem.build_mesh(box, h), cusp_network(1.5, 0.5), -6.0)
    form = op.form()
    assert trial_upper_bound(op.mesh, op.net, op.strengths, form) > 0.0
    lam1 = sla.eigh(form.S.toarray(), form.M.toarray(), eigvals_only=True)[0]
    assert report["lam1"][0] == pytest.approx(lam1, rel=1e-10)


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


def test_wedge_requires_field():
    with pytest.raises(ConfigError):
        run_wedge(wedge_cfg(b=0.0))


def test_wedge_criterion_and_assembly():
    report, status = run_wedge(wedge_cfg())
    assert report["criterion"]["inf_F"] == pytest.approx(-1.25, abs=1e-4)
    assert report["criterion"]["predicts_discrete_spectrum"]
    assert report["hermiticity_residual"] <= 1e-12
    assert status == 0


def test_wedge_without_theta_warns_and_still_solves():
    cfg = wedge_cfg()
    del cfg["theta"]
    with pytest.warns(UserWarning):
        report, _ = run_wedge(cfg)
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
    op = Operator.from_config(cfg)
    form = op.form()
    assert form.S.shape[0] >= 60  # past the dense cutoff of lowest_eigs
    assert trial_upper_bound(op.mesh, op.net, op.strengths, form) is None
    report, _ = run_spectrum(cfg)
    lam = sla.eigh(form.S.toarray(), form.M.toarray(), eigvals_only=True)
    assert np.allclose(report["eigenvalues"], lam[:3], rtol=1e-10, atol=0.0)


# ---------------------------------------------------------------------- cli


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_converge_roundtrip(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, "c.json", small_convergence_cfg())
    out_dir = str(tmp_path / "out")
    code = cli.main(["converge", "--config", cfg_path, "--out", out_dir])
    captured = capsys.readouterr()
    assert "converge:" in captured.out
    assert code in (0, 2)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    csv_bytes = (tmp_path / "out" / "data.csv").read_bytes()
    assert report["csv_sha256"] == hashlib.sha256(csv_bytes).hexdigest()
    header = csv_bytes.decode().splitlines()[0]
    assert header == "eps,res_norm,eig_gap,converged"


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
        cli.main(["cusp-b", "--config", path, "--threads", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


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
]


@pytest.mark.parametrize("command, cfg, missing", MISSING_KEY_CASES,
                         ids=[case[0] for case in MISSING_KEY_CASES])
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


@pytest.mark.parametrize("scenario, runner, cfg", OUT_PATH_CASES,
                         ids=[case[0] for case in OUT_PATH_CASES])
def test_unusable_out_path_fails_before_any_mesh(tmp_path, built, scenario, runner, cfg):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "sub")
    with pytest.raises(ConfigError, match=f"{scenario} output path not writable: {re.escape(out)}"):
        runner({**cfg, "out": out})
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
