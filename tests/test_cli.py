import json
import os

import numpy as np
import pytest

from sweepdescent import cli
from sweepdescent.cli import ExperimentConfig, main
from sweepdescent.errors import ConfigError
from sweepdescent.functions import get_function


def run(tmp_path, *args):
    return main([*args, "--out", str(tmp_path)])


def test_descend_radial(tmp_path, capsys):
    code = run(tmp_path / "a", "descend", "--function", "norm", "--x0", "2,0",
               "--alpha2", "2", "--T", "1", "--k", "1000")
    out = capsys.readouterr().out
    assert code == 0
    assert "endpoint: [1.0, 0.0]" in out
    lines = (tmp_path / "a" / "forward.csv").read_text().splitlines()
    assert lines[0].startswith("# sweepdescent ")
    assert lines[1] == "step,t,level,x0,x1,f,speed,dist_to_boundary"
    assert len(lines) == 2 + 1001


def test_descend_zero_horizon_single_row(tmp_path):
    code = run(tmp_path, "descend", "--function", "norm", "--x0", "2,0",
               "--T", "0")
    assert code == 0
    lines = (tmp_path / "forward.csv").read_text().splitlines()
    assert len(lines) == 3  # comment, header, one sample


@pytest.mark.parametrize("argv", [
    "--function norm --x0 2,0 --T 0.5 --k 100",
    "--function localized:tube:1.5,0:0.4 --x0 1.1,0 --T 0.3 --k 10",
])
def test_descend_reverse_requires_evidence(tmp_path, capsys, monkeypatch, argv):
    # No work can supply the evidence, so the run is refused before any: no
    # slope floor, no forward pass, no output. The localized start sits at
    # the bottom level, where a slope window would be empty.
    def refuse(*args, **kwargs):
        raise AssertionError("estimated a slope floor for a refused reverse run")

    monkeypatch.setattr(cli, "estimate_slope_floor", refuse)
    monkeypatch.setattr(cli, "forward_catching_up_batch", refuse)
    code = run(tmp_path, "descend", *argv.split(), "--reverse")
    err = capsys.readouterr().err
    assert code == 2
    assert "reverse sweeping needs prox-regularity evidence" in err
    assert not any(tmp_path.iterdir())


def test_descend_reverse_roundtrip(tmp_path, capsys):
    code = run(tmp_path, "descend", "--function", "tube", "--epsilon", "0.25",
               "--x0", "3.25,0", "--alpha2", "2", "--T", "0.5", "--k", "500",
               "--reverse")
    out = capsys.readouterr().out
    assert code == 0
    gap = float(out.split("recovery gap: ")[1].split()[0])
    assert gap <= 1e-2
    assert (tmp_path / "reverse.csv").exists()


def test_descend_plain_reverse_rides_the_boundary(tmp_path, capsys):
    # A plain function reverses under a validated prox radius by the
    # closed-form inward step, which lands on the moving boundary.
    code = run(tmp_path, "descend", "--function", "tube", "--x0", "2.5,0.3",
               "--alpha2", "2", "--T", "1", "--k", "200", "--reverse",
               "--tbar", "0.5", "--prox-radius", "1", "--map-lipschitz", "1")
    assert code == 0
    capsys.readouterr()
    lines = (tmp_path / "reverse.csv").read_text().splitlines()
    assert len(lines) == 2 + 201
    column = lines[1].split(",").index("dist_to_boundary")
    residuals = [float(line.split(",")[column]) for line in lines[2:]]
    assert max(residuals) <= 1e-12


def test_descend_plain_reverse_rides_the_gauge_boundary(tmp_path, capsys):
    # The run crosses level 1, where the gauge's boundary curvature jumps;
    # the inward step's exact normals keep every row on the boundary.
    code = run(tmp_path, "descend", "--function", "gauge", "--x0", "0.3,1.5",
               "--T", "0.6", "--k", "200", "--reverse", "--prox-radius", "0.3",
               "--map-lipschitz", "3")
    assert code == 0
    capsys.readouterr()
    lines = (tmp_path / "reverse.csv").read_text().splitlines()
    column = lines[1].split(",").index("dist_to_boundary")
    assert max(float(line.split(",")[column]) for line in lines[2:]) <= 1e-12


def test_descend_theta_guard_exit(tmp_path, capsys):
    code = run(tmp_path, "descend", "--function", "norm", "--epsilon", "0.5",
               "--x0", "2,0", "--T", "1", "--k", "1", "--reverse",
               "--map-lipschitz", "1.0", "--prox-radius", "0.5")
    assert code == 2
    assert "theta" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag,value", [("--prox-radius", "0"), ("--prox-radius", "-1"),
                                        ("--map-lipschitz", "0"), ("--map-lipschitz", "-1")])
def test_descend_rejects_reverse_constants_that_are_not_positive(tmp_path, capsys, flag, value):
    constants = {"--prox-radius": "1", "--map-lipschitz": "1", flag: value}
    code = run(tmp_path, "descend", "--function", "tube", "--x0", "2.5,0.3",
               "--alpha2", "2", "--T", "1", "--k", "200", "--reverse", "--tbar", "0.5",
               *(token for item in constants.items() for token in item))
    assert code == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not (tmp_path / "reverse.csv").exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tbar", ["-0.5", "3"])
def test_descend_rejects_tbar_outside_the_forward_horizon(tmp_path, capsys, tbar):
    # The reverse run retraces the levels of [alpha2 - T, alpha2].
    code = run(tmp_path, "descend", "--function", "tube", "--epsilon", "0.25",
               "--x0", "3.25,0", "--alpha2", "2", "--T", "1", "--k", "100",
               "--reverse", "--tbar", tbar)
    assert code == 2
    assert "tbar" in capsys.readouterr().err
    assert not (tmp_path / "reverse.csv").exists()
    assert list(tmp_path.iterdir()) == []


def test_config_file_and_flag_override(tmp_path):
    cfg = {"function": "norm", "x0": [2.0, 0.0], "alpha2": 2.0, "T": 1.0,
           "k": 50, "command": "descend"}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out1 = tmp_path / "o1"
    code = main(["descend", "--config", str(path), "--k", "100",
                 "--out", str(out1)])
    assert code == 0
    echoed = json.loads("\n".join(
        line for line in (out1 / "config.echo.json").read_text().splitlines()
        if not line.startswith("#")))
    assert echoed["k"] == 100  # flag overrides file
    assert echoed["function"] == "norm"


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"nope": 1}))
    code = main(["descend", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2


def test_round_trip_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code = main(["descend", "--function", "norm", "--x0", "1.7,0.4",
                 "--T", "0.6", "--k", "64", "--seed", "9", "--out", str(out1)])
    assert code == 0
    code = main(["descend", "--config", str(out1 / "config.echo.json"),
                 "--out", str(out2)])
    assert code == 0
    assert (out1 / "forward.csv").read_bytes() == (out2 / "forward.csv").read_bytes()


def test_verify_norm_passes(tmp_path, capsys):
    code = run(tmp_path, "verify", "--function", "norm")
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    report_lines = (tmp_path / "report.json").read_text().splitlines()
    assert report_lines[0].startswith("# sweepdescent ")
    payload = json.loads("\n".join(report_lines[1:]))
    assert payload["constants"]["slope_floor"] == pytest.approx(1.0, abs=1e-2)
    assert payload["constants"]["map_lipschitz"] == pytest.approx(1.0, abs=1e-2)


def test_verify_gauge_window_degenerates(tmp_path, capsys):
    code = run(tmp_path, "verify", "--function", "gauge", "--levels",
               "0.9:1.1:5")
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL  h3-complement-prox-radius" in out


def test_foliate_writes_index_last(tmp_path, capsys):
    code = run(tmp_path, "foliate", "--function", "norm", "--epsilon", "0.5",
               "--alpha2", "1.5", "--T", "1", "--k", "50", "--grid-size", "8")
    assert code == 0
    index = (tmp_path / "index.csv").read_text().splitlines()
    assert index[1] == "file,m0,m1,end0,end1,min_endpoint_gap"
    assert len(index) == 2 + 8
    for row in index[2:]:
        name = row.split(",")[0]
        assert (tmp_path / name).exists()
    # radial endpoints all at radius 1
    ends = np.array([[float(v) for v in row.split(",")[3:5]] for row in index[2:]])
    assert np.allclose(np.linalg.norm(ends, axis=1), 1.0, atol=1e-9)


def test_foliate_requires_epsilon(tmp_path, capsys):
    code = run(tmp_path, "foliate", "--function", "norm", "--alpha2", "1.5")
    assert code == 2


def test_a_size_the_host_cannot_allocate_is_a_config_error(tmp_path, capsys, monkeypatch):
    # The allocation fails inside flow_map, as numpy's does for a huge
    # --grid-size; the run itself stays small.
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.46 TiB for an array")

    monkeypatch.setattr(cli, "flow_map", refuse)
    code = run(tmp_path, "foliate", "--function", "tube", "--epsilon", "0.25",
               "--alpha2", "1.5", "--T", "0.8", "--k", "10", "--grid-size", "8")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: Unable to allocate 1.46 TiB")
    assert all(flag in err for flag in ("--k", "--grid-size", "--n-points", "--resolution"))
    assert list(tmp_path.iterdir()) == []


def test_gallery_lists_entries(tmp_path, capsys):
    code = main(["gallery"])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("norm", "tube", "gauge", "localized:"):
        assert name in out


def test_regularize_table(tmp_path, capsys):
    code = run(tmp_path, "regularize", "--function", "norm", "--epsilon",
               "0.5", "--points", "2,0;0.25,0")
    out = capsys.readouterr().out
    assert code == 0
    rows = [r for r in out.splitlines() if not r.startswith("x0")]
    first = rows[0].split(",")
    assert float(first[3]) == pytest.approx(1.5)  # f_eps at (2, 0)
    second = rows[1].split(",")
    assert float(second[3]) == 0.0


@pytest.mark.parametrize("name,points", [
    ("tube", "3,0;1.2,0.5;0.1,-0.9;2.5,0.8;-0.9,0.2;4.5,0"),
    ("localized:tube:1.5,0:0.4", "1.5,0;1.9,0.1;1.2,-0.3;1.6,0.55;1.0,0.2;2.5,0"),
])
def test_regularize_base_points_carry_values(tmp_path, name, points):
    code = run(tmp_path, "regularize", "--function", name, "--epsilon", "0.2",
               "--points", points)
    assert code == 0
    lines = (tmp_path / "regularize.csv").read_text().splitlines()[2:]
    table = np.array([[float(c) for c in line.split(",")] for line in lines])
    finite = np.isfinite(table[:, 3])
    assert 0 < np.sum(finite) < len(table)
    rows = table[finite]
    f = get_function(name)
    assert np.max(np.abs(np.asarray(f.eval(rows[:, 4:6])) - rows[:, 3])) <= 1e-8
    assert np.max(rows[:, 6]) <= 0.2 + 1e-9


def test_regularize_requires_epsilon(tmp_path):
    code = run(tmp_path, "regularize", "--function", "norm",
               "--points", "2,0")
    assert code == 2


def test_experiment_config_rejects_unknown():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"bogus": True})


@pytest.mark.parametrize("flag,value,message", [
    ("--resolution", "0", "resolution must be positive"),
    ("--resolution", "-0.01", "resolution must be positive"),
    ("--resolution", "nan", "resolution must be positive"),
    ("--levels", "0.5:1.5:1", "n_levels must be at least 2"),
    ("--levels", "0.5:1.5:0", "n_levels must be at least 2"),
])
def test_verify_rejects_bad_sampling_config(tmp_path, capsys, flag, value, message):
    code = run(tmp_path, "verify", "--function", "norm", flag, value)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("data", [{"resolution": 0.0}, {"n_levels": 1}])
def test_experiment_config_rejects_bad_sampling(data):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(data)


@pytest.mark.parametrize("args,field", [
    (["descend", "--function", "norm", "--x0", "2,0", "--T", "nan", "--k", "5"], "T must"),
    (["descend", "--function", "norm", "--x0", "inf,0"], "x0 must"),
    (["descend", "--function", "tube", "--epsilon", "inf", "--x0", "2,0"], "epsilon must"),
    (["regularize", "--function", "norm", "--epsilon", "0.25", "--points", "nan,0"],
     "points must"),
    (["verify", "--function", "localized:tube:nan,0:0.4"],
     "function 'localized:tube:nan,0:0.4'"),
    (["verify", "--function", "norm", "--levels", "0.5:inf:3"], "window must"),
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, args, field):
    code = run(tmp_path, *args)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and field in err and "finite" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("data,message", [
    ({"k": "abc"}, "k must be int, got 'abc'"),
    ({"seed": "abc"}, "seed must be int, got 'abc'"),
    ({"seed": True}, "seed must be int, got True"),
    ({"k": 5.0}, "k must be int, got 5.0"),
    ({"reverse": 1}, "reverse must be bool, got 1"),
    ({"T": "1"}, "T must be float, got '1'"),
    ({"x0": [2.0, "0"]}, "x0 must be list[float] | None, got [2.0, '0']"),
    ({"points": [[1.0, 2.0], 3.0]}, "points must be list[list[float]] | None"),
    ({"function": 7}, "function must be str, got 7"),
])
def test_config_values_are_type_checked_per_field(tmp_path, capsys, data, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"x0": [2.0, 0.0], **data}))
    code = main(["descend", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_config_takes_ints_for_floats_and_null_for_unset():
    config = ExperimentConfig.from_dict({"T": 1, "x0": [2, 0], "epsilon": None,
                                         "threads": None})
    assert config.T == 1 and config.x0 == [2, 0] and config.threads is None


def test_bad_point_and_window_parsing(tmp_path):
    assert main(["descend", "--function", "norm", "--x0", "nope",
                 "--out", str(tmp_path)]) == 2
    assert main(["verify", "--function", "norm", "--levels", "1:2",
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("args,message", [
    (["--window", "0:0.5"], "level window"),
    (["--window=-1:0.5"], "level window"),
    (["--window", "1.5:0.5"], "level window"),
    (["--levels", "1:1:4"], "level window"),
    (["--levels", "1.5:0.5:4"], "level window"),
    (["--epsilon", "0.25", "--n-points", "0"], "n_points must be at least 1"),
    (["--dim", "0"], "dim must be at least 1"),
])
def test_verify_rejects_bad_window_and_sizes(tmp_path, capsys, args, message):
    code = run(tmp_path, "verify", "--function", "norm", *args)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("args,message", [
    (["descend", "--function", "tube", "--x0", "1,2,3"], "x0 must have 2 coordinates"),
    (["regularize", "--function", "tube", "--epsilon", "0.25", "--points", "2,0;1,2,3"],
     "points must have 2 coordinates"),
    (["foliate", "--function", "tube", "--epsilon", "0.25", "--alpha2", "1.5",
      "--grid-size", "0"], "grid_size must be at least 2"),
    (["foliate", "--function", "tube", "--epsilon", "0.25", "--alpha2", "1.5",
      "--grid-size", "1"], "grid_size must be at least 2"),
    (["foliate", "--function", "norm", "--dim", "3", "--epsilon", "0.25",
      "--alpha2", "1.5"], "two-dimensional"),
])
def test_commands_reject_bad_shapes(tmp_path, capsys, args, message):
    code = run(tmp_path, *args)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and message in err


def test_threads_key_and_flag_are_accepted_and_ignored(tmp_path):
    args = ["foliate", "--function", "tube", "--epsilon", "0.25", "--alpha2", "1.5",
            "--T", "0.2", "--k", "20", "--grid-size", "4"]
    assert run(tmp_path / "a", *args) == 0
    assert run(tmp_path / "b", *args, "--threads", "3") == 0
    assert ExperimentConfig.from_dict({"threads": 4}).threads == 4
    for name in ("index.csv", "trajectory_000.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("args,message", [
    (["descend", "--function", "localized:norm:1,0:0.4", "--dim", "3", "--x0", "1,0,0"],
     "localization center [1.0, 0.0] needs 3 coordinates for norm3"),
    (["descend", "--function", "localized:norm:1,0,0:0.4", "--x0", "1,0"],
     "localization center [1.0, 0.0, 0.0] needs 2 coordinates for norm"),
    (["verify", "--function", "localized:tube:1.5:0.4"],
     "localization center [1.5] needs 2 coordinates for tube"),
    (["verify", "--function", "localized:tube:1.5,0:-0.4"],
     "localization radius must be nonnegative, got -0.4"),
])
def test_localized_center_must_match_dimension(tmp_path, capsys, args, message):
    code = run(tmp_path, *args)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"config error: {message}\n"


LOCALIZED = "localized:tube:1.5,0:0.4"


@pytest.mark.parametrize("args,code,message", [
    # x0 = (1.1, 0) is the one point of the bottom level set, inf f =
    # 0.10000000000000009: a zero horizon runs (its boundary residual is 0,
    # and 0.2 in the dilation, whose center x0 is), a positive one underflows.
    (["descend", "--function", LOCALIZED, "--x0", "1.1,0", "--T", "0"], 0, "0.0"),
    (["descend", "--function", LOCALIZED, "--epsilon", "0.2", "--x0", "1.1,0", "--T", "0"],
     0, "0.2"),
    (["descend", "--function", LOCALIZED, "--x0", "1.1,0", "--T", "0.5"], 3,
     "numerical failure: level window reaches the infimum of the function\n"),
    # The dilation of that one-point set is the 0.2-disk around (1.1, 0),
    # whose center is its interior point: the grid sits on the circle.
    (["foliate", "--function", LOCALIZED, "--epsilon", "0.2",
      "--alpha2", "0.10000000000000009", "--T", "0"], 0, "0.2"),
    (["foliate", "--function", LOCALIZED, "--epsilon", "0.2", "--alpha2", "0.1", "--T", "0"],
     2, f"config error: the level-0.1 sublevel set of {LOCALIZED}~0.2 is empty: "
        "inf f = 0.10000000000000009\n"),
    # A reverse run from the bottom level has no level window for its slope
    # floor estimate; it stops before sampling one.
    (["descend", "--function", LOCALIZED, "--epsilon", "0.2", "--x0", "1.1,0", "--T", "0.3",
      "--k", "10", "--reverse"], 3,
     "numerical failure: no level window below the start level 0.10000000000000009 for "
     "the reverse run's slope floor: it must lie above alpha2 - T = -0.1999999999999999 "
     "and above inf f + 1e-6, inf f = 0.10000000000000009\n"),
])
def test_localized_bottom_level_outcomes(tmp_path, capsys, args, code, message):
    assert run(tmp_path, *args) == code
    if code == 0 and args[0] == "descend":
        rows = (tmp_path / "forward.csv").read_text().splitlines()[2:]
        assert len(rows) == 1 and rows[0].split(",")[-1] == message
        message = ""
    elif code == 0:
        # foliate's index: one row per grid point, columns m0, m1 after the name
        rows = [r.split(",") for r in (tmp_path / "index.csv").read_text().splitlines()[2:]]
        grid = np.array([[float(r[1]), float(r[2])] for r in rows])
        radii = np.linalg.norm(grid - [1.1, 0.0], axis=1)
        assert len(grid) == 16 and np.max(np.abs(radii - float(message))) <= 1e-12
        message = ""
    assert capsys.readouterr().err == message


def test_localized_norm3_descend_to_near_the_bottom_level(tmp_path, capsys):
    # f = |x| on the 0.4-ball about (1, 0, 0), inf f = 0.6: the run ends
    # 6e-5 above the bottom level, where the lens of the two balls is thin.
    assert run(tmp_path, "descend", "--function", "localized:norm:1,0,0:0.4", "--dim", "3",
               "--x0", "1.2,0.1,0", "--T", "0.6041", "--k", "50") == 0
    out = capsys.readouterr().out
    line = next(r for r in out.splitlines() if r.startswith("value-decay residual: "))
    assert float(line.partition(": ")[2]) <= 1e-12


@pytest.mark.parametrize("args,message", [
    (["descend", "--function", "norm3", "--x0", "1,0"],
     "function 'norm3' is 3-dimensional, not 2"),
    (["descend", "--function", "localized:norm3:1,0,0:0.4", "--x0", "1,0"],
     "function 'norm3' is 3-dimensional, not 2"),
    (["descend", "--function", "norm2", "--dim", "3", "--x0", "1,0,0"],
     "function 'norm2' is 2-dimensional, not 3"),
    # A fixed-dimension function refuses any other --dim.
    (["descend", "--function", "tube", "--dim", "3", "--x0", "2.5,0.3", "--alpha2", "2",
      "--T", "1", "--k", "10"], "function 'tube' is 2-dimensional, not 3"),
    (["verify", "--function", "gauge", "--dim", "5"],
     "function 'gauge' is 2-dimensional, not 5"),
    (["verify", "--function", "localized:tube:1.5,0:0.4", "--dim", "3"],
     "function 'tube' is 2-dimensional, not 3"),
])
def test_dimensioned_norm_name_must_match_dim(tmp_path, capsys, args, message):
    # norm<d> is the name NormFunction(d) gives itself; it never overrides --dim.
    assert run(tmp_path, *args) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name,dim,expected", [
    ("localized:tube:1.5,0:0.4", 2, "localized:tube:1.5,0:0.4"),
    ("localized:norm:1,0,0:0.4", 3, "localized:norm3:1,0,0:0.4"),
])
def test_localized_name_keeps_every_coordinate(name, dim, expected):
    assert get_function(name, dim=dim).name == expected


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


@pytest.mark.parametrize("args,encoded", [
    (["--function", "norm", "--dim", "1"], {"prox_radius": "Infinity"}),
    (["--function", "norm", "--levels", "1:1.5:2"], {}),
])
def test_verify_report_is_strict_json(tmp_path, capsys, args, encoded):
    assert run(tmp_path, "verify", *args) in (0, 1)
    text = (tmp_path / "report.json").read_text().split("\n", 1)[1]
    payload = json.loads(text, parse_constant=_reject_constant)
    # The constants line on stdout is strict JSON too, with the same values.
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("constants: "))
    assert json.loads(line.partition(": ")[2],
                      parse_constant=_reject_constant) == payload["constants"]
    for key, value in encoded.items():
        assert payload["constants"][key] == value
    assert all(isinstance(v, float) for k, v in payload["constants"].items()
               if k not in encoded)


@pytest.mark.parametrize("args,code,skipped", [
    # The polar grid oracle of eval-consistency is two-dimensional.
    (["--function", "norm", "--dim", "3", "--epsilon", "0.25"], 0,
     {"eval-consistency", "steepest-descent-probe"}),
    # A window within 1e-9 of inf f leaves slope-transfer no sample. The
    # slope floor's h-balls reach the argmin there, so it stays positive
    # and the moving-map checks run. H3 fails: the sublevel sets are balls
    # of radius about 1e-9.
    (["--function", "norm", "--epsilon", "1e-9", "--window", "2e-10:9e-10"], 1,
     {"eval-consistency", "slope-transfer", "steepest-descent-probe"}),
])
def test_verify_skips_checks_without_samples(tmp_path, capsys, args, code, skipped):
    assert run(tmp_path, "verify", *args, "--n-points", "10", "--probe-starts", "0") == code
    text = (tmp_path / "report.json").read_text().split("\n", 1)[1]
    checks = {c["name"]: c for c in json.loads(text)["checks"]}
    assert {name for name, c in checks.items() if c["passed"] is None} == skipped
    for name in skipped - {"steepest-descent-probe", "moving-map-lipschitz-sublevel"}:
        assert checks[name]["details"]["n_points"] == 0
        assert checks[name]["details"]["reason"]
