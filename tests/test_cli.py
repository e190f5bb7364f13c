import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from ddvar import (
    DdvarError,
    Grid1D,
    InvalidArgument,
    ParseError,
    SolverOptions,
    ValidationError,
    build_gaussian_covariance,
    synthesize,
)
from ddvar import cli
from ddvar.cli import ExperimentConfig, load_config, main

from conftest import run_library

FLOAT_RE = re.compile(r"-?\d\.\d{16}e[+-]\d{2,3}")


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_minimal_config_fills_defaults(tmp_path):
    path = write_config(tmp_path, "np = 40\nj_sub = 2\nhalo = 2\n")
    config = load_config(path)
    assert config.n_points == 40
    assert config.j_sub == 2
    assert config.halo == 2
    assert config.cov_kind == "gaussian"
    assert config.length_scale == 2.0
    assert config.sigma_b == 1.0
    assert config.sigma_o == 0.1
    assert config.nobs == 8
    assert config.seed == 0
    assert config.method == "compare"
    assert config.tol == 1e-12
    assert config.max_iters == 500
    assert config.update_convention == "v_times_w"
    assert config.output_dir == "."


def test_nobs_default_tracks_grid_size(tmp_path):
    path = write_config(tmp_path, "np = 23\n")
    assert load_config(path).nobs == 4
    path = write_config(tmp_path, "np = 23\nnobs = 0\n", name="other.cfg")
    assert load_config(path).nobs == 0


def test_comments_and_blank_lines_are_ignored(tmp_path):
    path = write_config(
        tmp_path,
        "# experiment\n\nnp = 12   # grid size\n   \nseed = 5\n",
    )
    config = load_config(path)
    assert config.n_points == 12
    assert config.seed == 5


def test_unknown_key_is_anchored_to_its_line(tmp_path):
    path = write_config(tmp_path, "np = 10\nlambda = 3\n")
    with pytest.raises(ParseError) as exc:
        load_config(path)
    assert f"{path}:2" in str(exc.value)
    assert "lambda" in str(exc.value)


def test_duplicate_key_rejected(tmp_path):
    path = write_config(tmp_path, "np = 10\nnp = 11\n")
    with pytest.raises(ParseError) as exc:
        load_config(path)
    assert f"{path}:2" in str(exc.value)
    assert "duplicate" in str(exc.value)


def test_non_numeric_value_rejected(tmp_path):
    path = write_config(tmp_path, "np = ten\n")
    with pytest.raises(ParseError) as exc:
        load_config(path)
    assert "'ten'" in str(exc.value)
    assert "integer" in str(exc.value)


def test_missing_grid_size_rejected(tmp_path):
    path = write_config(tmp_path, "j_sub = 2\n")
    with pytest.raises(ValidationError) as exc:
        load_config(path)
    assert "np is required" in str(exc.value)


def test_oversized_halo_is_anchored(tmp_path):
    path = write_config(tmp_path, "np = 10\nj_sub = 2\nhalo = 4\n")
    with pytest.raises(ValidationError) as exc:
        load_config(path)
    assert f"{path}:3" in str(exc.value)
    assert "halo" in str(exc.value)


def test_unknown_cov_kind_is_anchored(tmp_path):
    path = write_config(tmp_path, "np = 10\ncov_kind = matern\n")
    with pytest.raises(ValidationError) as exc:
        load_config(path)
    assert str(exc.value) == (f"{path}:2: cov_kind must be one of "
                              "('identity', 'gaussian'), got 'matern'")


def test_an_np_past_the_largest_array_fails_by_name(tmp_path, capsys):
    # 400 digits would overflow the float of the memory estimate; the
    # bound that Grid1D.uniform checks rejects it first, with its text
    path = write_config(tmp_path, f"np = {'9' * 400}\n")
    assert main(["run", path]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:1: np must be <= {2**60 - 1}, the length of the "
        "largest float64 array\n")


def test_json_writer_refuses_non_finite_values(tmp_path):
    # the payload is encoded whole before anything is written, whether a
    # value sits in a list or in a float array
    path = tmp_path / "result.json"
    for bad in (float("nan"), np.inf, -np.inf):
        for gap in ([0.0, bad], np.array([0.0, bad]), [np.array([bad])]):
            with pytest.raises(InvalidArgument) as exc:
                cli._write_json(path, {"cost": 1.0, "gap": gap})
            assert str(exc.value) == "refusing to serialize a non-finite value"
            assert not path.exists()


def test_json_writer_writes_a_float_array_as_its_list():
    tiny = np.nextafter(0.0, 1.0)
    values = [-0.0, 0.0, tiny, -tiny, 2.2e-308 / 3, 1e300, -1e-300, 1e-300,
              -1e300, 1.0 / 3.0]
    for floats in (values, values[:1], []):
        payload = {"u": floats, "w": [floats, floats[::-1]]}
        as_arrays = {"u": np.array(floats),
                     "w": (np.array(floats), np.array(floats[::-1]))}
        assert cli._json_encode(as_arrays) == cli._json_encode(payload)
    assert cli._json_encode(np.array([])) == "[]"


def test_json_writer_refuses_what_no_payload_holds():
    for obj in (None, object(), {"gap": None}):
        with pytest.raises(InvalidArgument, match="cannot serialize"):
            cli._json_encode(obj)


def test_malformed_line_rejected(tmp_path):
    path = write_config(tmp_path, "np 10\n")
    with pytest.raises(ParseError) as exc:
        load_config(path)
    assert f"{path}:1" in str(exc.value)


def test_empty_value_rejected(tmp_path):
    path = write_config(tmp_path, "np =\n")
    with pytest.raises(ParseError):
        load_config(path)


def test_compare_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(
        tmp_path,
        f"np = 40\nj_sub = 2\nhalo = 2\noutput_dir = {out}\n",
    )
    assert main(["run", path]) == 0
    text = capsys.readouterr().out
    assert "c_equal=True" in text

    payload = json.loads((out / "result.json").read_text())
    assert payload["c_equal"] is True
    assert payload["a_structure_exact"] is True
    assert payload["mps_converged"] is True
    assert payload["config"]["np"] == 40
    assert "output_dir" not in payload["config"]

    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "iter,max_delta,res_sub_1,res_sub_2"
    assert len(history) == payload["iters_mps"] + 1
    first = history[1].split(",")
    assert first[0] == "1"
    assert FLOAT_RE.fullmatch(first[1])
    # every row is numbered by its place: the iter column reads 1..n
    assert ([row.split(",")[0] for row in history[1:]]
            == [str(n) for n in range(1, len(history))])


def test_global_run_without_observations_returns_background(tmp_path):
    out = tmp_path / "out"
    path = write_config(
        tmp_path,
        "np = 20\nj_sub = 1\nhalo = 0\nnobs = 0\nseed = 3\n"
        f"method = global\noutput_dir = {out}\n",
    )
    assert main(["run", path]) == 0
    payload = json.loads((out / "result.json").read_text())
    grid = Grid1D.uniform(20)
    cov = build_gaussian_covariance(grid, 2.0, 1.0)
    inst = synthesize(grid, cov, 0, 0.1, seed=3)
    # 17 significant digits round-trip doubles exactly
    np.testing.assert_array_equal(np.array(payload["u_analysis"]),
                                  inst.u_background)
    assert not (out / "history.csv").exists()


def test_repeat_runs_are_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    base = "np = 30\nj_sub = 2\nhalo = 1\nseed = 7\n"
    path_a = write_config(tmp_path, base + f"output_dir = {out_a}\n", "a.cfg")
    path_b = write_config(tmp_path, base + f"output_dir = {out_b}\n", "b.cfg")
    assert main(["run", path_a]) == 0
    assert main(["run", path_b]) == 0
    assert (out_a / "result.json").read_bytes() == (out_b / "result.json").read_bytes()
    assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()


def test_result_json_is_sorted_and_scientific(tmp_path):
    out = tmp_path / "out"
    path = write_config(
        tmp_path,
        f"np = 25\nj_sub = 2\nhalo = 1\nmethod = mps\noutput_dir = {out}\n",
    )
    assert main(["run", path]) == 0
    text = (out / "result.json").read_text()

    def assert_sorted(pairs):
        keys = [k for k, v in pairs]
        assert keys == sorted(keys)
        return dict(pairs)

    json.loads(text, object_pairs_hook=assert_sorted)
    assert FLOAT_RE.search(text)
    assert "nan" not in text
    assert "Infinity" not in text


def test_compare_subcommand_overrides_method(tmp_path):
    out = tmp_path / "out"
    base = "np = 20\nj_sub = 2\nhalo = 1\n"
    path = write_config(
        tmp_path, base + f"method = global\noutput_dir = {out}\n")
    assert main(["compare", path]) == 0
    payload = json.loads((out / "result.json").read_text())
    assert payload["config"]["method"] == "compare"
    assert "w_delta_linf" in payload
    # the subcommand makes the files of the key, and ignores the file's
    # method, even one that run rejects
    ref = tmp_path / "ref"
    assert main(["run", write_config(
        tmp_path, base + f"method = compare\noutput_dir = {ref}\n",
        "ref.cfg")]) == 0
    bogus = tmp_path / "bogus"
    path = write_config(
        tmp_path, base + f"method = bogus\noutput_dir = {bogus}\n", "b.cfg")
    assert main(["run", path]) == 1
    assert main(["compare", path]) == 0
    for name in ("result.json", "history.csv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes()
        assert (bogus / name).read_bytes() == (ref / name).read_bytes()


@pytest.mark.parametrize("method", ["global", "ddda"])
def test_compare_subcommand_is_validated_as_a_compare_run(
        tmp_path, capsys, monkeypatch, method):
    # 4 subdomains of 90 points at halo 20 on 200 identity points: the
    # bands of a global or ddda run, 9 KiB, fit in 64 KiB of RAM; the
    # interface windows and C of the compare run the subcommand makes,
    # 98 KiB more, do not
    sysconf = os.sysconf
    monkeypatch.setattr(cli.os, "sysconf", lambda name: (
        64 * 1024 // sysconf("SC_PAGE_SIZE") if name == "SC_PHYS_PAGES"
        else sysconf(name)))
    out = tmp_path / "out"
    path = write_config(
        tmp_path, "np = 200\nj_sub = 4\nhalo = 20\ncov_kind = identity\n"
        f"method = {method}\noutput_dir = {out}\n")
    assert load_config(path).method == method
    assert main(["compare", path]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {path}:1: np 200 needs")
    assert "interface windows and C" in err[0]
    assert captured.out == ""
    assert not out.exists()


def test_exhausted_budget_exits_two(tmp_path):
    out = tmp_path / "out"
    path = write_config(
        tmp_path,
        "np = 30\nj_sub = 2\nhalo = 2\nmethod = mps\nmax_iters = 1\n"
        f"output_dir = {out}\n",
    )
    assert main(["run", path]) == 2
    payload = json.loads((out / "result.json").read_text())
    assert payload["converged"] is False
    assert payload["iterations"] == 1


def test_check_subcommand_passes(capsys):
    assert main(["check"]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    assert "FAIL" not in text
    assert "all checks passed" in text


def test_check_subcommand_reports_a_failure(capsys, monkeypatch):
    # a factor residual above its bound is a FAIL line and exit status 1
    monkeypatch.setattr(cli, "factor_check", lambda cov: 1.0)
    assert main(["check"]) == 1
    text = capsys.readouterr().out
    assert "FAIL factor residual: gaussian np=10 j_sub=1 halo=1\n" in text
    assert "PASS rhs identity: gaussian np=10 j_sub=1 halo=1\n" in text
    assert text.endswith("8 failure(s)\n")


def test_sweep_creates_per_value_directories(tmp_path):
    out = tmp_path / "out"
    path = write_config(
        tmp_path,
        f"np = 30\nhalo = 1\nmethod = ddda\noutput_dir = {out}\n",
    )
    assert main(["sweep", path, "--key", "j_sub", "--values", "1,2,3"]) == 0
    for v in (1, 2, 3):
        payload = json.loads((out / f"j_sub={v}" / "result.json").read_text())
        assert payload["config"]["j_sub"] == v


def test_sweep_rejects_bad_input(tmp_path, capsys):
    path = write_config(tmp_path, "np = 30\n")
    assert main(["sweep", path, "--key", "j_sub", "--values", "1,two"]) == 1
    # the value names the key and itself, anchored to the file alone: a
    # swept value has no line
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {path}: value 'two' for j_sub is not an integer"]
    assert main(["sweep", path, "--key", "output_dir", "--values", "x"]) == 1
    assert main(["sweep", path, "--key", "j_sub", "--values", " , "]) == 1


def test_sweep_validates_every_value_before_the_first_run(tmp_path,
                                                         capsys):
    out = tmp_path / "out"
    path = write_config(
        tmp_path, f"np = 30\nj_sub = 2\nmethod = ddda\noutput_dir = {out}\n")
    # halo 100 is too large for 15 points a subdomain: no run is made
    assert main(["sweep", path, "--key", "halo", "--values", "1,100"]) == 1
    captured = capsys.readouterr()
    assert "---" not in captured.out
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {path}: halo 100 too large")
    assert not out.exists()


def test_config_errors_exit_one(tmp_path, capsys):
    path = write_config(tmp_path, "np = ten\n")
    assert main(["run", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert main(["run", str(tmp_path / "missing.cfg")]) == 1
    capsys.readouterr()
    # non-finite values and values whose square over- or underflows fail
    # at validation, before any solve, with one line naming the key
    for key, value in (("length_scale", "inf"), ("tol", "inf"),
                       ("sigma_b", "1e200"), ("sigma_o", "nan"),
                       ("length_scale", "1e-300"), ("sigma_o", "1e-160"),
                       # (sigma_b / sigma_o)^2 >= 2^52: the unit term of the
                       # normal matrix is lost to rounding
                       ("sigma_o", "1e-9"), ("sigma_o", "1e-100"),
                       ("sigma_o", "1e-152"), ("sigma_o", "1e-8")):
        path = write_config(tmp_path, f"np = 20\n{key} = {value}\n")
        assert main(["run", path]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:")
        assert key in err[0]
    # one subdomain of 10^9 points, compared: the bands of B and V, of
    # two stacked systems (the ddda stack alive while the mps one is
    # built), with those of the observation-space matrix and factor of
    # 2 * 10^8 observations, 19 rows each, are
    # 8 * 19 * (2 + 2 + 0.4) * 10^9 bytes, 622.9 GiB, far past physical
    # memory; rejected at validation with the estimate, before anything
    # is allocated
    path = write_config(tmp_path, "np = 1000000000\n")
    assert main(["run", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "np" in err[0]
    assert "622.9 GiB" in err[0]
    # the convention that is gone names its key
    path = write_config(tmp_path,
                        "np = 20\nupdate_convention = binv_v_times_w\n")
    assert main(["run", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "update_convention" in err[0]
    path = write_config(
        tmp_path,
        f"np = 20\nj_sub = 2\nhalo = 1\nsigma_o = 1e-7\nmethod = global\n"
        f"output_dir = {tmp_path / 'out'}\n",
    )
    assert main(["run", path]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("key, value, extra", [
    ("np", "0", {}), ("j_sub", "0", {}), ("j_sub", "21", {}),
    ("halo", "-1", {}), ("halo", "10", {}),
    ("length_scale", "0", {}), ("length_scale", "nan", {}),
    ("length_scale", "1e200", {}), ("length_scale", "1e-160", {}),
    ("sigma_b", "-1", {}), ("sigma_b", "inf", {}), ("sigma_b", "1e-160", {}),
    ("sigma_o", "-0.1", {}), ("sigma_o", "nan", {}), ("sigma_o", "1e-9", {}),
    ("sigma_o", "1e-156", {"sigma_b": "1e-150"}),
    ("nobs", "-1", {}), ("nobs", "21", {}), ("seed", "-1", {}),
    ("tol", "0", {}), ("tol", "inf", {}), ("max_iters", "0", {}),
    ("update_convention", "binv_v_times_w", {}),
])
def test_config_and_library_give_one_verdict(tmp_path, key, value, extra):
    # one bad value on np = 20, j_sub = 2, halo = 1: load_config and the
    # library reject it with the same text after the parameter's name
    pairs = {"np": "20", "j_sub": "2", "halo": "1", **extra, key: value}
    path = write_config(tmp_path, "".join(f"{k} = {v}\n"
                                          for k, v in pairs.items()))
    with pytest.raises(DdvarError) as library:
        run_library(pairs)
    with pytest.raises(ValidationError) as run:
        load_config(path)
    name = {"np": "n_points", "update_convention": "convention"}.get(key, key)
    message = str(library.value)
    assert message.startswith(f"{name} ")
    assert str(run.value) == (f"{path}:{list(pairs).index(key) + 1}: {key}"
                              f"{message[len(name):]}")


def test_readme_config_table_lists_every_key_with_its_default():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| key ", 1)[1].split("\n\n", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in table.splitlines()[2:]]
    defaults = {f.name: str(f.default)
                for f in dataclasses.fields(ExperimentConfig)}
    expected = {key: defaults[attr] for key, (attr, _) in cli._KEYS.items()}
    expected.update(np="required", nobs="np // 5")
    assert {row[0]: row[-1] for row in rows} == expected


def test_memory_preflight_counts_the_local_and_observation_matrices(
        tmp_path):
    # validation only: 64 subdomains of 633 points and 8000 observations
    # hold about 0.03 GiB of bands and interface windows, although a dense
    # V of 40000^2 would need 12 GiB
    path = write_config(tmp_path, "np = 40000\nj_sub = 64\nhalo = 4\n")
    assert load_config(path).n_points == 40000
    path = write_config(tmp_path, "np = 1000000000\nj_sub = 1\n")
    with pytest.raises(ValidationError, match="np 1000000000 needs"):
        load_config(path)
    # a halo of 2 * 10^6 on 10^7 identity points: the interface pass's two
    # 2 * 10^6 x (2 * 10^6 + 1) windows and the values and indices of a C
    # of up to 4 * 10^6 x (2 * 10^6 + 1) entries a pair need about
    # 291 TiB, past any memory; the bands of ddda need about 0.4 GiB
    halo = ("np = 10000000\nj_sub = 2\nhalo = 2000000\n"
            "cov_kind = identity\nmethod = {}\n")
    path = write_config(tmp_path, halo.format("ddda"))
    assert load_config(path).halo == 2000000
    path = write_config(tmp_path, halo.format("mps"))
    with pytest.raises(ValidationError, match="interface windows and C"):
        load_config(path)


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["sweep"]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()


def no_set_up(config):
    raise AssertionError("the problem was built")


def test_invalid_thread_count_exits_one(tmp_path, capsys, monkeypatch):
    # checked before the problem is built
    monkeypatch.setattr(cli, "_build_problem", no_set_up)
    out = tmp_path / "out"
    path = write_config(
        tmp_path,
        f"np = 20\nj_sub = 2\nhalo = 1\noutput_dir = {out}\n",
    )
    # the text after the name is SolverOptions.threads' own for the value
    # int() parses, or for the raw text when it parses none
    for text, parsed in (("zero", "zero"), ("0", 0), ("-1", -1),
                         ("2.5", "2.5")):
        monkeypatch.setenv("DDVAR_THREADS", text)
        assert main(["run", path]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        with pytest.raises(InvalidArgument) as info:
            SolverOptions(threads=parsed)
        assert err[0] == "error: DDVAR_THREADS " + str(info.value)[
            len("threads "):]


@pytest.mark.parametrize("method, blocked", [
    ("mps", "result.json"), ("mps", "history.csv"),
    ("compare", "history.csv"), ("ddda", "result.json"),
])
def test_unwritable_output_file_fails_before_the_set_up(
        tmp_path, capsys, monkeypatch, method, blocked):
    # a file the run will write is a directory: one error line, and the
    # problem is never built
    monkeypatch.setattr(cli, "_build_problem", no_set_up)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    path = write_config(tmp_path, f"np = 20\nmethod = {method}\n"
                                  f"output_dir = {out}\n")
    assert main(["run", path]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and captured.out == ""
    assert err[0].startswith("error: output_dir") and blocked in err[0]
    assert sorted(p.name for p in out.iterdir()) == [blocked]


def test_the_output_probe_leaves_the_files_as_it_found_them(
        tmp_path, capsys, monkeypatch):
    # the probe creates no file that the run then fails to write, and
    # truncates none that is there; history.csv is not probed for a
    # method that writes none
    out = tmp_path / "out"
    out.mkdir()
    (out / "result.json").write_text("kept\n")
    monkeypatch.setattr(cli, "_build_problem", no_set_up)
    path = write_config(tmp_path, f"np = 20\nmethod = mps\n"
                                  f"output_dir = {out}\n")
    with pytest.raises(AssertionError, match="the problem was built"):
        main(["run", path])
    assert sorted(p.name for p in out.iterdir()) == ["result.json"]
    assert (out / "result.json").read_text() == "kept\n"
    monkeypatch.undo()
    (out / "history.csv").mkdir()
    path = write_config(tmp_path, f"np = 20\nmethod = ddda\n"
                                  f"output_dir = {out}\n")
    assert main(["run", path]) == 0
    assert (out / "result.json").read_text().startswith("{")
    capsys.readouterr()


def test_uncreatable_output_dir_fails_before_the_set_up(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setattr(cli, "_build_problem", no_set_up)
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = write_config(tmp_path,
                        f"np = 20\noutput_dir = {blocker / 'out'}\n")
    assert main(["run", path]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: output_dir")
