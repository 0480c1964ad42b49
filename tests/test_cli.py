import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driftstop
from driftstop import cli, montecarlo
from driftstop.cli import CONFIG_KEYS, DERIVED, REQUIRED, _load_config, _resolve, main
from driftstop.csvio import format_float, format_row, write_table_csv


@pytest.fixture()
def bern_config(tmp_path):
    cfg = {
        "prior": {"kind": "discrete_atoms", "atoms": [[-1.0, 0.5], [1.0, 0.5]]},
        "cost_c": 0.25,
        "solver": {
            "n_t": 60,
            "n_x": 81,
            "T_max": 1.0,
        },
        "sim": {"n_paths": 2000, "dt": 0.02, "horizon": 20.0, "seed": 7},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, tmp_path / "out", cfg


def test_format_float_round_trips():
    for x in [0.25, 1e-9, math.pi, -3.125, 4.854101966249684]:
        assert float(format_float(x)) == x


def test_format_row_matches_per_float_join():
    row = np.array([-0.0, 5e-324, 1e16, np.inf, np.nan, -np.inf, 0.1, 4.854101966249684])
    assert format_row(row) == ",".join(format_float(v) for v in row)


def _read_table_csv(path):
    """``(t_nodes, x_nodes, values)`` of a ``write_table_csv`` file, each field parsed with ``float``."""
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    assert header[0] == "t" and all(len(row) == len(header) for row in rows)
    table = np.array([[float(f) for f in row] for row in rows])
    return table[:, 0], np.array([float(f) for f in header[1:]]), table[:, 1:]


def test_table_csv_reads_back_the_bits_written(tmp_path):
    t = np.array([0.0, 5e-324, 0.1, 1e16])
    x = np.array([-0.0, 4.854101966249684, math.pi])
    values = np.array([[-0.0, -1e-300, -2.5], [0.1, 1e16, -math.inf], [math.nan, 0.0, 1.0], [3.0, -3.0, 7e-17]])
    write_table_csv(tmp_path / "table.csv", t, x, values)
    for got, want in zip(_read_table_csv(tmp_path / "table.csv"), (t, x, values)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_path_batch_csv_rows_match_format_row(tmp_path):
    t = np.array([0.0, 5e-324, 1e16])
    y = np.array([[-0.0, np.inf, np.nan], [0.1, -np.inf, 4.854101966249684]])
    batch = montecarlo.PathBatch(t=t, x_true=np.array([-1.0, 1e16]), y=y, x_hat=-y, psi=y * y)
    batch.to_csv(tmp_path / "paths.csv")
    lines = (tmp_path / "paths.csv").read_text().splitlines()
    assert lines[0] == "path,t,y,x_hat,psi,x_true"
    expect = [
        f"{p}," + format_row((t[k], y[p, k], -y[p, k], y[p, k] ** 2, batch.x_true[p]))
        for p in range(2)
        for k in range(3)
    ]
    assert lines[1:] == expect


@pytest.mark.parametrize(
    "text, words",
    [("{not json", "config is not valid JSON"), (None, "config file not found"),
     ("[1, 2]", "config root must be a JSON object")],
    ids=["not-json", "missing-file", "array-root"],
)
def test_malformed_json_exits_2(tmp_path, capsys, text, words):
    bad = tmp_path / "bad.json"
    if text is not None:
        bad.write_text(text)
    assert main(["solve", "--config", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert words in err and not out


def test_missing_keys_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"prior": {"kind": "gaussian", "m": 0.0, "sigma2": 1.0}}))
    assert main(["solve", "--config", str(cfg)]) == 2
    assert "cost_c" in capsys.readouterr().err


_BAD_PRIORS = [
    ({"kind": "gaussian", "m": 0.0}, "sigma2"),
    ({"kind": "gaussian", "m": "0", "sigma2": 1.0}, "m"),
    ({"kind": "gaussian", "m": 0.0, "sigma2": True}, "sigma2"),
    ({"kind": "discrete_atoms", "atoms": [[-1.0, 0.5], [1.0, "0.5"]]}, "atoms"),
    ({"kind": "tabulated_density", "grid": [0.0, 1.0, "2"], "density_values": [1.0, 1.0, 1.0]}, "grid"),
    ({"kind": "tabulated_density", "grid": [0.0, 1.0, 2.0], "density_values": [1.0, True, 1.0]}, "density_values"),
    ({"kind": "gaussian", "m": math.nan, "sigma2": 1.0}, "m"),
    ({"kind": "symmetric_gaussian_mixture", "m": math.nan, "sigma": 1.0}, "m"),
    ({"kind": "half_normal", "sigma2": math.inf}, "sigma2"),
    ({"kind": "discrete_atoms", "atoms": [[-math.inf, 0.5], [1.0, 0.5]]}, "atoms"),
]


@pytest.mark.parametrize(
    "prior, field",
    _BAD_PRIORS,
    ids=[
        "missing-sigma2",
        "string-m",
        "boolean-sigma2",
        "string-atom-weight",
        "string-grid",
        "boolean-density",
        "nan-m",
        "nan-mixture-m",
        "infinite-sigma2",
        "infinite-atom",
    ],
)
def test_invalid_prior_field_exit_2(tmp_path, capsys, prior, field):
    # a missing field, or a boolean, a numeric string or a NaN or Infinity
    # literal where a finite number belongs (float() would read true as 1 and
    # "0" as 0), names the field
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"prior": prior, "cost_c": 0.25, "output_dir": str(tmp_path / "out")}))
    assert main(["solve", "--config", str(cfg)]) == 2
    assert repr(field) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_quadrature_exits_2(tmp_path, capsys):
    # numpy's Gauss-Hermite weights overflow to NaN at 400 nodes (with numpy's
    # RuntimeWarnings on the way), and NaN passes every comparison
    cfg = tmp_path / "c.json"
    doc = {"prior": {"kind": "gaussian", "m": 0.0, "sigma2": 1.0}, "cost_c": 0.25, "quadrature_n": 400}
    cfg.write_text(json.dumps({**doc, "output_dir": str(tmp_path / "out")}))
    assert main(["solve", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "quadrature" in err and "non-finite weights" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [1025, 100_000_000])
def test_huge_quadrature_n_exits_2_before_any_table_is_built(tmp_path, capsys, monkeypatch, value):
    # numpy builds n Gauss nodes from an n x n matrix, so without the bound
    # 1e8 nodes exit 1 on a memory error
    def refuse(n):
        raise AssertionError(f"built a {n}-node table")

    monkeypatch.setattr("driftstop.prior.hermgauss", refuse)
    cfg = tmp_path / "c.json"
    doc = {"prior": {"kind": "gaussian", "m": 0.0, "sigma2": 1.0}, "cost_c": 0.25, "quadrature_n": value}
    cfg.write_text(json.dumps({**doc, "output_dir": str(tmp_path / "out")}))
    assert main(["solve", "--config", str(cfg)]) == 2
    assert "'quadrature_n' must be <= 1024" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_writes_artifacts(bern_config):
    cfg_path, out, _ = bern_config
    assert main(["solve", "--config", str(cfg_path)]) == 0
    for name in ["value_grid.csv", "value_grid.npy", "boundary.csv", "monotonicity_report.json", "solver_meta.json",
                 "resolved_config.json"]:
        assert (out / name).exists()
    report = json.loads((out / "monotonicity_report.json").read_text())
    assert report["passed"] is True
    meta = json.loads((out / "solver_meta.json").read_text())
    assert meta["shape"] == "two_sided_symmetric"
    # the two-point value does not depend on t, so neither march has a time error
    assert 0.0 <= meta["meta"]["time_error_estimate"] <= 1e-10


def test_solver_rows_default_to_100(bern_config):
    # second-order time steps: 100 rows beat 400 first-order ones on every bench config
    _, out, cfg = bern_config
    del cfg["solver"]["n_t"]
    resolved = _resolve(cfg, str(out), None)[-1]
    assert resolved["solver"]["n_t"] == 100


def test_solver_nodes_default_to_201(bern_config):
    # at 201 nodes the space error estimate stays below the time error estimate
    # on the continuous priors' CLI defaults (test_space_error_below_time_error_at_defaults)
    _, out, cfg = bern_config
    del cfg["solver"]["n_x"]
    resolved = _resolve(cfg, str(out), None)[-1]
    assert resolved["solver"]["n_x"] == 201


@pytest.mark.parametrize(
    "prior, c",
    [
        ({"kind": "gaussian", "m": 0.0, "sigma2": 1.0}, 0.25),
        ({"kind": "half_normal", "sigma2": 1.0}, 0.25),
        ({"kind": "symmetric_gaussian_mixture", "m": 1.0, "sigma": 1.0}, 0.04),
    ],
    ids=["gaussian", "half_normal", "mixture"],
)
def test_space_error_below_time_error_at_defaults(tmp_path, prior, c):
    # measured at 201 nodes: space 1.3e-16 / 3.9e-5 / 1.4e-4 against time
    # 1.2e-4 / 7.7e-5 / 5.8e-3.  Atoms +-1 cannot meet this at any n_x: their v
    # does not change in t, so the time estimate is round-off (3e-14) while the
    # space one is 1.7e-4; the two-point bench config pins its own n_x
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"prior": prior, "cost_c": c, "output_dir": str(tmp_path / "out")}))
    assert main(["solve", "--config", str(cfg_path)]) == 0
    meta = json.loads((tmp_path / "out" / "solver_meta.json").read_text())
    assert meta["meta"]["space_error_estimate"] < meta["meta"]["time_error_estimate"]
    assert meta["locally_good_passed"] is True
    assert json.loads((tmp_path / "out" / "monotonicity_report.json").read_text())["passed"] is True


def test_boundary_csv_round_trip(bern_config):
    # the rule verify rebuilds from value_grid.npy writes solve's boundary.csv
    # byte for byte, and stops where the two-point closed form does
    cfg_path, out, _ = bern_config
    assert main(["solve", "--config", str(cfg_path)]) == 0
    curve = _solved_rule(out)
    assert curve.shape == "two_sided_symmetric"
    # threshold near the known boundary
    assert np.nanmax(np.abs(curve.b - 0.917)) <= 0.03
    assert curve.contains(0.5, np.array([0.99]))[0]
    assert not curve.contains(0.5, np.array([0.0]))[0]
    curve.to_csv(out / "rebuilt.csv")
    assert (out / "rebuilt.csv").read_bytes() == (out / "boundary.csv").read_bytes()


def _solved_rule(out):
    """The rule verify rebuilds from the value grid that solve wrote to ``out``."""
    _, _, config, _, _, resolved = _resolve(_load_config(str(out / "resolved_config.json")), str(out), None)
    return cli._solver_boundary(out, config, resolved)


_ATOMS = {"kind": "discrete_atoms", "atoms": [[-1.0, 0.5], [1.0, 0.5]]}
_GAUSSIAN = {"kind": "gaussian", "m": 0.0, "sigma2": 1.0}
_HALF_NORMAL = {"kind": "half_normal", "sigma2": 1.0}
# the benchmark's solve configs, then the solver_boundary configs the tests verify
# besides test_boundary_csv_round_trip's
_SOLVED = {
    "bench_gaussian": {"prior": _GAUSSIAN, "cost_c": 0.25},
    "bench_half_normal": {"prior": _HALF_NORMAL, "cost_c": 0.25},
    "bench_mixture": {"prior": {"kind": "symmetric_gaussian_mixture", "m": 1.0, "sigma": 1.0}, "cost_c": 0.04},
    "bench_two_point": {"prior": _ATOMS, "cost_c": 0.25, "solver": {"n_t": 200, "n_x": 201}},
    "gaussian_window": {"prior": _GAUSSIAN, "cost_c": 0.25, "solver": {"x_lo": -1.5, "x_hi": 1.5, "T_max": 1.5}},
    "gaussian_coarse": {"prior": _GAUSSIAN, "cost_c": 0.25, "solver": {"n_t": 20, "n_x": 41}},
    "half_normal_coarse": {"prior": _HALF_NORMAL, "cost_c": 0.25, "solver": {"n_t": 20, "n_x": 41}},
}


@pytest.fixture(scope="module", params=_SOLVED)
def solved(request, tmp_path_factory):
    """The output directory of a solve of one ``_SOLVED`` config."""
    root = tmp_path_factory.mktemp(request.param)
    (root / "config.json").write_text(json.dumps(_SOLVED[request.param]))
    assert main(["solve", "--config", str(root / "config.json"), "--out", str(root / "out")]) == 0
    return root / "out"


def test_verify_rebuilds_the_rule_solve_wrote(solved, tmp_path):
    # the rule verify extracts from value_grid.npy writes boundary.csv byte for byte
    _solved_rule(solved).to_csv(tmp_path / "rebuilt.csv")
    assert (tmp_path / "rebuilt.csv").read_bytes() == (solved / "boundary.csv").read_bytes()


def test_value_grid_npy_holds_the_csv_values(solved):
    # the grid verify reads is the one readers get, bit for bit
    saved = np.load(solved / "value_grid.npy", allow_pickle=False)
    _, _, written = _read_table_csv(solved / "value_grid.csv")
    assert saved.dtype == np.float64 and saved.shape == written.shape and saved.tobytes() == written.tobytes()


def _forged_header(path, values):
    # a header that claims 10^9 x 10^9 floats over the real data
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, {"descr": "<f8", "fortran_order": False, "shape": (10**9, 10**9)})
        fh.write(values.tobytes())


def _with_entry(value):
    def save(path, values):
        values = values.copy()
        values[3, 5] = value
        np.save(path, values)

    return save


# each case's rewrite of a solved value_grid.npy from its values (None deletes the file)
# and a phrase of the refusal it draws
_BAD_GRIDS = {
    "missing": (None, "No such file"),
    "empty": (lambda path, values: path.write_bytes(b""), "is refused"),
    "truncated": (lambda path, values: path.write_bytes(path.read_bytes()[:-8]), "truncated"),
    "forged_shape_header": (_forged_header, "(1000000000, 1000000000)"),
    "rows_missing": (lambda path, values: np.save(path, values[:-1]), "of shape (60, 81)"),
    "float32": (lambda path, values: np.save(path, values.astype(np.float32)), "float32"),
    "pickled_objects": (lambda path, values: np.save(path, values.astype(object), allow_pickle=True), "object"),
    "nan_entry": (_with_entry(math.nan), "not finite"),
    "inf_entry": (_with_entry(-math.inf), "not finite"),
}


@pytest.mark.parametrize("case", _BAD_GRIDS)
def test_verify_refuses_malformed_value_grid(bern_config, capsys, case):
    # exit 2, naming the file, before anything is written
    cfg_path, out, _ = bern_config
    assert main(["solve", "--config", str(cfg_path)]) == 0
    path = out / "value_grid.npy"
    edit, phrase = _BAD_GRIDS[case]
    if edit is None:
        path.unlink()
    else:
        edit(path, np.load(path))
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}
    capsys.readouterr()
    assert main(["verify", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and phrase in err
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()} == before


def test_verify_stops_paths_past_the_solved_window(tmp_path):
    # tau* = 1 for N(0, 1) at c = 0.25; after it the rule stops everywhere,
    # including estimates beyond the truncation x_hi = 1.5
    cfg = {
        "prior": {"kind": "gaussian", "m": 0.0, "sigma2": 1.0},
        "cost_c": 0.25,
        "solver": {"x_lo": -1.5, "x_hi": 1.5, "T_max": 1.5},
        "sim": {"n_paths": 2000, "dt": 0.01, "horizon": 3.0},
        "policy": {"kind": "solver_boundary"},
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "gaussian.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(cfg_path)]) == 0
    assert main(["verify", "--config", str(cfg_path), "--seed", "1"]) == 0
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert report["cost"]["cap_fraction"] == 0.0


def test_verify_skips_gaps_of_a_rule_without_finite_ends(tmp_path):
    # the Gaussian rule stops nowhere before tau* = 1 and everywhere after it,
    # so a shift moves nothing and a gap would compare the rule with itself
    cfg = {
        "prior": {"kind": "gaussian", "m": 0.0, "sigma2": 1.0},
        "cost_c": 0.25,
        "solver": {"x_lo": -1.5, "x_hi": 1.5, "T_max": 1.5},
        "sim": {"n_paths": 500, "dt": 0.01, "horizon": 3.0},
        "policy": {"kind": "solver_boundary"},
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "gaussian.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(cfg_path)]) == 0
    curve = _solved_rule(tmp_path / "out")
    assert curve.shape == "two_sided_symmetric"
    assert not any(math.isfinite(end) for segs in curve.intervals for seg in segs for end in seg)
    assert main(["verify", "--config", str(cfg_path), "--seed", "1"]) == 0
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert report["optimality_gap"] is None
    assert report["passed"] is True


def test_verify_measures_gaps_of_a_rule_that_stops_above(tmp_path):
    # the mirror of the half-normal stops at and above b(t): a rule with
    # finite ends, so each perturbation moves them and gets its gap
    grid = np.linspace(-8.0, 0.0, 33)
    density = np.exp(-0.5 * grid**2)
    cfg = {
        "prior": {"kind": "tabulated_density", "grid": grid.tolist(), "density_values": density.tolist()},
        "cost_c": 0.25,
        "solver": {"n_t": 100, "n_x": 101},
        "sim": {"n_paths": 4000},
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "mirrored.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(cfg_path)]) == 0
    curve = _solved_rule(tmp_path / "out")
    assert curve.shape == "one_sided_upper" and curve.has_finite_end
    assert main(["verify", "--config", str(cfg_path), "--seed", "1"]) == 0
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert [gap["shift"] for gap in report["optimality_gap"]] == [0.0, -0.1, 0.1]
    assert report["passed"] is True


def test_nonfinite_observation_in_walk_exits_3(bern_config, capsys, monkeypatch):
    # a non-finite level reaching the kernel is a numerical failure, not bad input
    cfg_path, out, cfg = bern_config
    cfg["policy"] = {"kind": "stop_at", "time": 0.5}
    cfg_path.write_text(json.dumps(cfg))
    cumulate = montecarlo._cumulate

    def poisoned(z, w_last, dt):
        w = cumulate(z, w_last, dt)
        w[0, 5] = math.nan
        return w

    monkeypatch.setattr(montecarlo, "_cumulate", poisoned)
    assert main(["verify", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "non-finite posterior weights" in err


def test_full_pipeline_solve_then_verify(bern_config):
    cfg_path, out, _ = bern_config
    assert main(["solve", "--config", str(cfg_path)]) == 0
    assert main(["verify", "--config", str(cfg_path)]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["passed"] is True
    assert report["variance_identity"]["passed"] is True
    # stop-at-zero policy: cost equals the prior variance
    cfg2 = json.loads(cfg_path.read_text())
    cfg2["policy"] = {"kind": "stop_at", "time": 0.0}
    cfg_path.write_text(json.dumps(cfg2))
    assert main(["verify", "--config", str(cfg_path)]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert abs(report["cost"]["mean"] - 1.0) <= 3.0 * report["cost"]["std_error"] + 1e-12


def test_verify_walks_the_paths_once(bern_config, monkeypatch):
    # the cost, the identity and the gaps share one pass, so the kernel sees
    # at most every path at every monitored step once
    cfg_path, _, cfg = bern_config
    assert main(["solve", "--config", str(cfg_path)]) == 0
    columns = []
    kernel = montecarlo.posterior_mean_var

    def counted(table, t, y):
        columns.append(np.size(y))
        return kernel(table, t, y)

    monkeypatch.setattr(montecarlo, "posterior_mean_var", counted)
    assert main(["verify", "--config", str(cfg_path)]) == 0
    sim = cfg["sim"]
    n_steps = round(sim["horizon"] / sim["dt"])
    assert 0 < sum(columns) <= sim["n_paths"] * (n_steps + 1)


def test_verify_refuses_boundary_of_another_problem(bern_config, capsys):
    cfg_path, out, cfg = bern_config
    assert main(["solve", "--config", str(cfg_path)]) == 0
    cfg["cost_c"] = 0.3
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["verify", "--config", str(cfg_path)]) == 2
    named = set(re.findall(r"\b[0-9a-f]{64}\b", capsys.readouterr().err))
    solved = json.loads((out / "solver_meta.json").read_text())["problem_hash"]
    assert solved in named and len(named) == 2
    # refused before anything was written
    assert json.loads((out / "resolved_config.json").read_text())["cost_c"] == 0.25
    assert not (out / "verify.json").exists()


def test_verify_refuses_boundary_without_solver_meta(bern_config, capsys):
    cfg_path, out, _ = bern_config
    assert main(["solve", "--config", str(cfg_path)]) == 0
    (out / "solver_meta.json").unlink()
    assert main(["verify", "--config", str(cfg_path)]) == 2
    assert "problem_hash" in capsys.readouterr().err
    assert not (out / "verify.json").exists()


def test_verify_refuses_solver_meta_that_is_not_an_object(bern_config, capsys):
    cfg_path, out, _ = bern_config
    assert main(["solve", "--config", str(cfg_path)]) == 0
    (out / "solver_meta.json").write_text("[1]")
    assert main(["verify", "--config", str(cfg_path)]) == 2
    assert str(out / "solver_meta.json") in capsys.readouterr().err
    assert not (out / "verify.json").exists()


def test_verify_refuses_solver_meta_that_is_not_json(bern_config, capsys):
    cfg_path, out, _ = bern_config
    assert main(["solve", "--config", str(cfg_path)]) == 0
    (out / "solver_meta.json").write_text("{bad")
    assert main(["verify", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert str(out / "solver_meta.json") in err and "JSON object" in err
    assert not (out / "verify.json").exists()


def test_key_error_in_a_command_is_not_an_input_error(bern_config, monkeypatch):
    # every input path checks its keys first, so a KeyError is a defect: it
    # propagates rather than exiting 2 as "input error"
    cfg_path, _, cfg = bern_config
    cfg["policy"] = {"kind": "stop_at", "time": 0.5}
    cfg_path.write_text(json.dumps(cfg))

    def broken(*args, **kwargs):
        raise KeyError("defect")

    monkeypatch.setattr(cli, "evaluate_policy", broken)
    with pytest.raises(KeyError, match="defect"):
        main(["verify", "--config", str(cfg_path)])


def test_core_modules_never_import_the_cli():
    # only the ``python -m driftstop`` entry point may import the command line
    importers = set()
    for path in Path(driftstop.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                named = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                named = [base] + [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name in (".cli", "driftstop.cli") for name in named):
                importers.add(path.name)
    assert importers == {"__main__.py"}


def test_montecarlo_leaves_the_rule_geometry_to_boundary_curve():
    # the walk asks BoundaryCurve every question about a stopping rule, so
    # montecarlo reads no curve's intervals and builds no curve of its own
    path = Path(driftstop.__file__).parent / "montecarlo.py"
    nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
    reads = [node.lineno for node in nodes if isinstance(node, ast.Attribute) and node.attr == "intervals"]
    builds = [
        node.lineno
        for node in nodes
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "BoundaryCurve"
    ]
    assert (reads, builds) == ([], [])


def test_psi_outputs_are_deterministic(bern_config, tmp_path):
    cfg_path, _, _ = bern_config
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["psi", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["psi", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert (out1 / "psi_grid.csv").read_bytes() == (out2 / "psi_grid.csv").read_bytes()
    assert (out1 / "pde_residuals.csv").read_bytes() == (out2 / "pde_residuals.csv").read_bytes()
    header = (out1 / "psi_grid.csv").read_text().splitlines()[0]
    assert header.startswith("t,")


def test_psi_bernoulli_first_row_formula(bern_config, tmp_path):
    cfg_path, _, _ = bern_config
    out = tmp_path / "psi_out"
    assert main(["psi", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "psi_grid.csv").read_text().splitlines()
    xs = np.array([float(v) for v in lines[0].split(",")[1:]])
    row0 = np.array([float(v) for v in lines[1].split(",")[1:]])
    assert np.max(np.abs(row0 - (1.0 - xs**2))) <= 1e-8


def test_gaussian_all_stop_shape(tmp_path):
    cfg = {
        "prior": {"kind": "gaussian", "m": 0.0, "sigma2": 1.0},
        "cost_c": 1.0,
        "solver": {"n_t": 30, "n_x": 41, "T_max": 1.0},
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "g.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(cfg_path)]) == 0
    meta = json.loads((tmp_path / "out" / "solver_meta.json").read_text())
    assert meta["shape"] == "all_stop"


def test_closed_form_bernoulli_records(capsys):
    assert main(["closed-form", "--family", "bernoulli", "--beta", "1", "--c", "1"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["boundary"] is None and rec["trivial_stop"] is True
    assert main(["closed-form", "--family", "bernoulli", "--beta", "1", "--c", "0.25"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["boundary"] == pytest.approx(0.9170406792291835, abs=1e-8)


def test_closed_form_gaussian_tau_star(capsys):
    assert main(["closed-form", "--family", "gaussian", "--sigma2", "1", "--c", "0.25"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["tau_star"] == pytest.approx(1.0)


def test_closed_form_mixture_thresholds(capsys):
    assert main(["closed-form", "--family", "mixture", "--m", "1", "--sigma", "1", "--c", "0.04"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["t_infinity"] == pytest.approx(4.0)
    assert rec["t_zero"] == pytest.approx(4.8541, abs=1e-4)


@pytest.mark.parametrize(
    "argv, words",
    [
        (["--family", "gaussian", "--m", "1"], "gaussian requires --sigma2"),
        (["--family", "bernoulli", "--beta", "1"], "bernoulli requires --beta and --c"),
        (["--family", "half_normal", "--y", "1"], "half_normal requires --sigma2"),
        (["--family", "mixture", "--m", "1"], "mixture requires --m and --sigma"),
    ],
    ids=["gaussian", "bernoulli", "half_normal", "mixture"],
)
def test_closed_form_missing_param_exit_2(capsys, argv, words):
    assert main(["closed-form", *argv]) == 2
    out, err = capsys.readouterr()
    assert words in err and not out


def test_closed_form_half_normal_without_scipy_prints_the_record(capsys, monkeypatch):
    # the half-normal closed forms need only the standard library: at z = 0,
    # Phi = 1/2 gives F = 1, G = sqrt(2/pi) and H = 1 - 2/pi
    monkeypatch.setitem(sys.modules, "scipy.special", None)
    assert main(["closed-form", "--family", "half_normal", "--sigma2", "1"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["F"] == pytest.approx(1.0, rel=1e-15)
    assert rec["G"] == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-15)
    assert rec["H"] == pytest.approx(1.0 - 2.0 / math.pi, rel=1e-15)
    assert rec["H_limit_large_y"] == 1.0


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--family", "gaussian", "--sigma2", "1", "--c", "0"], "--c"),
        (["--family", "gaussian", "--sigma2", "1", "--c", "-1"], "--c"),
        (["--family", "gaussian", "--sigma2", "1", "--t", "-1"], "--t"),
        (["--family", "half_normal", "--sigma2", "1", "--t", "-1"], "--t"),
        (["--family", "gaussian", "--sigma2", "nan"], "--sigma2"),
        (["--family", "gaussian", "--sigma2", "1", "--y", "inf"], "--y"),
        (["--family", "bernoulli", "--beta", "1", "--c", "inf"], "--c"),
    ],
    ids=["gaussian-c-zero", "c-negative", "gaussian-t-negative", "half_normal-t-negative", "sigma2-nan",
         "y-inf", "bernoulli-c-inf"],
)
def test_closed_form_bad_number_exits_2(capsys, argv, flag):
    assert main(["closed-form", *argv]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, field",
    [
        (["--family", "gaussian", "--sigma2", "1", "--y", "1e300"], "--y"),
        (["--family", "mixture", "--m", "1e200", "--sigma", "1", "--t", "1"], "--m"),
        (["--family", "gaussian", "--sigma2", "1e300", "--y", "1e300"], "'F'"),
        (["--family", "half_normal", "--sigma2", "1e300", "--y", "1e300"], "'F'"),
    ],
    ids=["gaussian-overflow", "mixture-overflow", "gaussian-F-inf", "half_normal-F-inf"],
)
def test_closed_form_overflow_exits_3(capsys, argv, field):
    # finite flags whose record overflows a float: a numerical failure, and no non-JSON output
    assert main(["closed-form", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure:")
    assert field in captured.err
    assert captured.out == ""


def test_verify_failed_gap_exits_3(bern_config, capsys):
    # a threshold far inside the optimal boundary a = 0.917: widening it by
    # 0.1 lowers the cost significantly, which is evidence against the policy
    cfg_path, out, cfg = bern_config
    cfg["policy"] = {"kind": "symmetric_threshold", "a": 0.3}
    cfg_path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfg_path)]) == 3
    assert "gaps=FAIL" in capsys.readouterr().out
    report = json.loads((out / "verify.json").read_text())
    assert report["passed"] is False
    widened = next(r for r in report["optimality_gap"] if r["shift"] == 0.1)
    assert widened["gap"] + 2.0 * widened["gap_se"] < 0.0


@pytest.mark.parametrize("value", [0.1, ["a"], [math.nan]])
def test_malformed_perturbations_exit_2(bern_config, capsys, value):
    cfg_path, out, cfg = bern_config
    cfg["policy"] = {"kind": "symmetric_threshold", "a": 0.9}
    cfg["perturbations"] = value
    cfg_path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfg_path)]) == 2
    assert "'perturbations'" in capsys.readouterr().err
    assert not (out / "verify.json").exists()


@pytest.mark.parametrize(
    "key, value",
    [("policy", "stop_at"), ("sim", 5), ("solver", [1]), ("cost_c", True), ("output_dir", 5), ("cost_c", 1e400)],
)
def test_malformed_config_block_exits_2(bern_config, capsys, key, value):
    cfg_path, out, cfg = bern_config
    cfg["policy"] = {"kind": "stop_at", "time": 0.5}
    cfg[key] = value
    cfg_path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfg_path)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [16.9, True, "8"])
@pytest.mark.parametrize(
    "key", ["quadrature_n", "solver.n_t", "solver.n_x", "sim.n_paths", "sim.seed", "sim.export_paths"]
)
def test_non_integer_count_exits_2(bern_config, capsys, key, value):
    cfg_path, out, cfg = bern_config
    cfg["policy"] = {"kind": "stop_at", "time": 0.5}
    block, _, name = key.rpartition(".")
    (cfg[block] if block else cfg)[name] = value
    cfg_path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfg_path)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [True, "-0.99", 1e400])
@pytest.mark.parametrize(
    "key", ["solver.T_max", "solver.x_lo", "solver.x_hi", "sim.dt", "sim.horizon", "policy.time", "policy.a"]
)
def test_non_number_real_key_exits_2(bern_config, capsys, key, value):
    cfg_path, out, cfg = bern_config
    cfg["policy"] = {"kind": "stop_at", "time": 0.5}
    block, _, name = key.rpartition(".")
    cfg[block][name] = value
    cfg_path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfg_path)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


def test_export_paths_below_one_exits_2(bern_config, capsys):
    cfg_path, out, cfg = bern_config
    cfg["sim"]["export_paths"] = 0
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert "'sim.export_paths'" in capsys.readouterr().err
    assert not (out / "resolved_config.json").exists()


def test_export_paths_above_n_paths_exits_2(bern_config, capsys):
    # verify walks n_paths paths; exporting more would write paths it never walks
    cfg_path, out, cfg = bern_config
    cfg["sim"].update(n_paths=10, export_paths=30)
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert "'sim.export_paths'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("seed, bound", [(-1, ">= 0"), (2**64, f"< {2**64}")])
def test_seed_flag_out_of_range_exits_2(bern_config, capsys, command, seed, bound):
    # the flag overrides sim.seed after the config is checked, so it is checked on its own, and named
    cfg_path, out, cfg = bern_config
    cfg["policy"] = {"kind": "stop_at", "time": 0.5}
    cfg_path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(cfg_path), "--seed", str(seed)]) == 2
    assert f"--seed must be {bound}, got {seed}" in capsys.readouterr().err
    assert not out.exists()


_UNKNOWN_KEYS = [
    (None, "quadratur_n", 256),
    ("solver", "scheme", "implicit_psor"),
    ("solver", "bc", "dirichlet_zero"),
    ("solver", "obstacle_tol", 1e-10),
    ("sim", "npaths", 200),
    ("policy", "threshold", 0.5),
]


@pytest.mark.parametrize("block, key, value", _UNKNOWN_KEYS, ids=[f"{k}-{v}" for _, k, v in _UNKNOWN_KEYS])
def test_unknown_solver_key_exits_2(bern_config, capsys, block, key, value):
    # a misspelt key would otherwise fall back to its default without a word
    cfg_path, out, cfg = bern_config
    (cfg if block is None else cfg.setdefault(block, {}))[key] = value
    cfg_path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and (repr(block) if block else "the config root") in err
    assert not out.exists()


_POLICY_KEYS = [
    ({"kind": "stop_at"}, "time"),
    ({"kind": "symmetric_threshold"}, "a"),
    ({"kind": "stop_at", "time": 1.0, "a": 0.3}, "a"),
    ({"kind": "symmetric_threshold", "a": 0.3, "time": 1.0}, "time"),
    ({"kind": "solver_boundary", "a": 0.3}, "a"),
    ({"kind": "stop_now", "time": 1.0}, "kind"),
    ({"kind": ["stop_at"], "time": 1.0}, "kind"),
    ({"kind": "stop_at", "time": -1.0}, "time"),
    ({"kind": "symmetric_threshold", "a": -0.5}, "a"),
]


@pytest.mark.parametrize(
    "policy, key",
    _POLICY_KEYS,
    ids=[f"{p['kind']}-{k}" + ("-negative" if k != "kind" and p.get(k, 0) < 0 else "") for p, k in _POLICY_KEYS],
)
def test_policy_keys_checked_against_its_kind_exits_2(bern_config, capsys, policy, key):
    # an unknown kind, a required key that is missing, a key the kind does not
    # use, or a negative time or threshold (a = -0.5 would make the two stop
    # rays overlap): the message names the block, the kind and the key, and
    # nothing is written
    cfg_path, out, cfg = bern_config
    cfg["policy"] = policy
    cfg_path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "'policy'" in err and repr(policy["kind"]) in err and repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["t_burnin", "T_max_when_capped", "horizon_scan_limit"])
def test_removed_solver_key_names_replacement(bern_config, capsys, key):
    cfg_path, _, cfg = bern_config
    cfg["solver"][key] = 12.0
    cfg_path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and "stationary" in err and "T_max" in err


@pytest.mark.parametrize("key, value", [("x_hi", 1.5), ("x_hi", 1.0), ("x_lo", -1.0)])
def test_truncation_outside_the_support_exits_2(bern_config, capsys, key, value):
    # atoms +-1: an end outside [-1, 1], or on a finite end of it, has no
    # inverse; it is refused before anything is written
    cfg_path, out, cfg = bern_config
    cfg["solver"][key] = value
    cfg_path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(cfg_path)]) == 2
    assert f"'solver.{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("half_width", [0.5, 0.8])
def test_truncation_missing_stopping_region_exits_3(bern_config, capsys, half_width):
    # Psi_inf^2 = (1 - x^2)^2: above c = 0.25 everywhere on (-0.5, 0.5); on
    # (-0.8, 0.8) the edges may stop, but the integral of c / Psi_inf^2 - 1 is
    # 0.83 - 1.6 < 0, so the reflecting stationary problem has no solution
    cfg_path, _, cfg = bern_config
    cfg["solver"] = {"n_t": 40, "n_x": 41, "x_lo": -half_width, "x_hi": half_width}
    cfg_path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert "x_lo" in err and "x_hi" in err


def test_three_atom_solve_is_locally_good(tmp_path, capsys):
    # Psi^2 > c persists at T = 8 between the atoms; a zero terminal slice
    # would stop there and fail the locally-good check
    cfg = {
        "prior": {"kind": "discrete_atoms", "atoms": [[-1.0, 0.3], [0.0, 0.4], [1.0, 0.3]]},
        "cost_c": 0.01,
        "solver": {"n_t": 200, "n_x": 201, "T_max": 8.0},
        "output_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "three.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(cfg_path)]) == 0
    assert "locally_good=pass" in capsys.readouterr().out


def test_value_grid_is_deterministic(bern_config, tmp_path):
    cfg_path, _, _ = bern_config
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["solve", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert (out1 / "value_grid.csv").read_bytes() == (out2 / "value_grid.csv").read_bytes()
    assert (out1 / "value_grid.npy").read_bytes() == (out2 / "value_grid.npy").read_bytes()
    assert (out1 / "boundary.csv").read_bytes() == (out2 / "boundary.csv").read_bytes()


def test_simulate_writes_paths(bern_config):
    cfg_path, out, _ = bern_config
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    lines = (out / "paths.csv").read_text().splitlines()
    assert lines[0] == "path,t,y,x_hat,psi,x_true"
    assert len(lines) > 10
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["prior_variance"] == pytest.approx(1.0)


def test_simulate_reruns_from_its_resolved_config(bern_config, tmp_path):
    cfg_path, out, cfg = bern_config
    cfg["sim"].update(n_paths=10, export_paths=3)
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    resolved = out / "resolved_config.json"
    assert json.loads(resolved.read_text())["sim"]["export_paths"] == 3
    rerun = tmp_path / "rerun"
    assert main(["simulate", "--config", str(resolved), "--out", str(rerun)]) == 0
    assert (rerun / "paths.csv").read_bytes() == (out / "paths.csv").read_bytes()


def test_resolved_config_resolves_to_itself(bern_config):
    # every key a run writes reads back to the same value (T_max is given, so
    # the horizon scan does not run)
    cfg_path, out, cfg = bern_config
    cfg["sim"].update(n_paths=10)
    cfg.update(quadrature_n=64, perturbations=[-0.2, 0.05], policy={"kind": "stop_at", "time": 0.5})
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    first = (out / "resolved_config.json").read_bytes()
    assert main(["simulate", "--config", str(out / "resolved_config.json")]) == 0
    assert (out / "resolved_config.json").read_bytes() == first


def test_capped_resolved_config_resolves_to_itself(tmp_path):
    # on atoms +-1 at c = 0.25 the horizon scan is capped; the resolved config
    # then gives T_max, so solving from it keeps the flag instead of resetting it
    cfg = {"prior": {"kind": "discrete_atoms", "atoms": [[-1.0, 0.5], [1.0, 0.5]]}, "cost_c": 0.25}
    cfg["solver"] = {"n_t": 20, "n_x": 41}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 0
    first = (out / "resolved_config.json").read_bytes()
    assert json.loads(first)["horizon_scan_capped"] is True
    assert main(["solve", "--config", str(out / "resolved_config.json"), "--out", str(out)]) == 0
    assert (out / "resolved_config.json").read_bytes() == first


_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_example_loads(tmp_path):
    example = re.search(r"```json\n(.*?)```", _README.read_text(), re.S).group(1)
    (tmp_path / "cfg.json").write_text(example)
    resolved = _resolve(_load_config(str(tmp_path / "cfg.json")), str(tmp_path / "out"), None)[-1]
    assert resolved["cost_c"] == json.loads(example)["cost_c"]


def test_readme_config_table_matches_the_code():
    # one row per key: `key` | type | default | bounds, as CONFIG_KEYS holds them
    rows = re.findall(r"^\| `([\w.]+)` \|([^|]+)\|([^|]+)\|([^|]*)\|$", _README.read_text(), re.M)
    types = {int: "integer", float: "number", list: "list of numbers", str: "string", bool: "boolean", dict: "object"}
    want = {}
    for block, keys in CONFIG_KEYS.items():
        for key, spec in keys.items():
            want[key if block is None else f"{block}.{key}"] = spec
    assert [row[0] for row in rows] == list(want)
    for name, type_, default, bounds in rows:
        spec = want[name]
        block = name.rpartition(".")[0]
        assert type_.strip() == types[spec.type], name
        if spec.default in (REQUIRED, DERIVED):
            assert default.strip().startswith(spec.default), name
        else:
            assert default.strip() == f"`{json.dumps(spec.default)}`", name
        for op, limit in spec.bounds:
            shown = f"{block}.{limit}" if isinstance(limit, str) else limit
            assert f"`{op} {shown}`" in bounds, name


def test_python_dash_m_runs_the_cli():
    src = str(Path(driftstop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "driftstop", "--help"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "verify" in proc.stdout


_CLOSED_FORMS = [
    ["--family", "gaussian", "--sigma2", "1", "--c", "0.25", "--t", "0.5", "--y", "1"],
    ["--family", "bernoulli", "--beta", "1", "--c", "0.25"],
    ["--family", "half_normal", "--sigma2", "1", "--t", "0.5", "--y", "-1"],
    ["--family", "mixture", "--m", "1", "--sigma", "1", "--c", "0.04", "--t", "0.5", "--y", "1"],
]


_PRIORS = [{"kind": "gaussian", "m": 0.0, "sigma2": 1.0}, {"kind": "half_normal", "sigma2": 1.0}]


def _scipy_modules_after(tmp_path, prior, calls):
    """The scipy modules a fresh interpreter holds after running ``calls``, each a ``main`` argv, in order."""
    cfg = {
        "prior": prior,
        "cost_c": 0.25,
        "solver": {"n_t": 20, "n_x": 41},
        "sim": {"n_paths": 300, "dt": 0.02, "horizon": 3.0, "export_paths": 10},
    }
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    src = str(Path(driftstop.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "from driftstop.cli import main\n"
        f"for argv in {calls!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("prior", _PRIORS)
def test_solve_then_verify_loads_no_scipy(tmp_path, prior):
    calls = [[sub, "--config", "config.json", "--out", "out"] for sub in ("solve", "verify")]
    assert _scipy_modules_after(tmp_path, prior, calls) == "[]"


@pytest.mark.parametrize("prior", _PRIORS, ids=["gaussian", "half_normal"])
def test_no_command_loads_scipy(tmp_path, prior):
    # scipy is a test-only oracle: no command, and no closed-form family,
    # loads scipy or any scipy.* module in a fresh interpreter
    calls = [[sub, "--config", "config.json", "--out", "out"] for sub in ("psi", "solve", "verify", "simulate")]
    calls += [["closed-form", *argv] for argv in _CLOSED_FORMS]
    assert _scipy_modules_after(tmp_path, prior, calls) == "[]"
