import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reflekt.cli import run
from reflekt.exact import ExactError
from reflekt.minmat import RealizationError
import reflekt.cli as cli_mod


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_info(capsys):
    code, out, err = run_capture(capsys, ["group", "S3", "info"])
    assert code == 0
    doc = json.loads(out)
    res = doc["result"]
    assert res["order"] == 6
    assert res["degrees"] == [2, 3]
    assert res["reflections"] == 3
    assert doc["algorithm_version"]
    assert doc["config"]["descriptor"] == "S3"


def test_invalid_descriptor_exits_2(capsys):
    code, out, err = run_capture(capsys, ["group", "G(1,2,3)", "info"])
    assert code == 2
    assert out == ""
    assert "does not divide" in err


def test_order_cap_exits_2(capsys):
    code, out, err = run_capture(capsys, ["--max-order", "10", "group", "S4"])
    assert code == 2
    assert "cap" in err


def test_verify_pn_exit_zero(capsys):
    code, out, err = run_capture(capsys, ["verify", "pn", "S3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["report"]["passed"] is True


def test_chars_json_shape(capsys):
    code, out, err = run_capture(capsys, ["chars", "G(3,1,1)"])
    assert code == 0
    res = json.loads(out)["result"]
    assert len(res["rows"]) == 3
    assert all(len(r) == 3 for r in res["rows"])
    assert res["classes"][0]["size"] == 1


def test_fake_csv_export(capsys, tmp_path):
    csv_path = tmp_path / "fake.csv"
    code, out, err = run_capture(capsys, ["fake", "S3", "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("rep_index")
    assert len(lines) == 4


def test_minmat_cli(capsys):
    code, out, err = run_capture(capsys, ["minmat", "S3", "--rep", "0"])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["checks_passed"] is True
    assert "column_degrees" in res


@pytest.mark.parametrize("error", [ExactError, RealizationError], ids=lambda e: e.__name__)
def test_minmat_failed_computation_exits_2(capsys, monkeypatch, error):
    def failing(*args, **kwargs):
        raise error("no minimal matrix at this degree")

    monkeypatch.setattr(cli_mod, "build_minimal_matrix", failing)
    code, out, err = run_capture(capsys, ["minmat", "S3", "--rep", "0"])
    assert (code, out, err) == (2, "", "error: no minimal matrix at this degree\n")


def test_kz_gamma_cli(capsys):
    code, out, err = run_capture(capsys, ["kz", "gamma", "S3", "--k", '{"0":[0,1]}'])
    assert code == 0
    res = json.loads(out)["result"]
    assert sorted(x[0] for x in res["pairs"]) == [0, 1, 2]


def test_kz_monodromy_cli(capsys):
    code, out, err = run_capture(capsys, ["kz", "monodromy", "G(3,1,1)", "--rep", "1", "--k", '{"0":[0.1,0,0]}'])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["passed"] is True
    assert res["deck_convention"].startswith("tau(s_H)^{-1}")


def test_kz_gamma_zero_on_non_real_group_is_identity(capsys):
    code, out, err = run_capture(capsys, ["kz", "gamma", "G(3,1,1)", "--k", '{"0":[0,0,0]}'])
    assert code == 0
    res = json.loads(out)["result"]
    assert res["pairs"] == [[0, 0], [1, 1], [2, 2]]
    # one sweep for the degree-1 rows, with series statistics per generator path
    assert set(res["transport"]) == {"1"}
    assert set(res["transport"]["1"]["0"]) == {"steps", "terms", "eps"}


@pytest.mark.parametrize(
    "module, banned",
    [("reflekt.cli", ("numpy", "dataclasses", "inspect")), ("reflekt.kz", ("dataclasses",))],
    ids=["reflekt.cli", "reflekt.kz"],
)
def test_import_does_not_load_numpy(module, banned):
    # Only modules the import itself loads count, so a site hook that
    # preloads one of them cannot fail the test.
    code = (
        f"import sys; before = set(sys.modules); import {module}; "
        f"print(sorted((set(sys.modules) - before) & set({banned!r})))"
    )
    src = str(Path(cli_mod.__file__).resolve().parents[1])  # the reflekt under test
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_kz_bad_labels_exit_2(capsys):
    bad = ['{"0":[0]}', "[0,1]", '"s"', '{"0":["abc",0]}', '{"0":[[1,"x"],0]}', '{"0":5}']
    bad += ['{"0":[NaN,0]}', '{"0":[Infinity,0]}', '{"0":[true,0]}', '{"0":[[0,true],0]}']
    bad += ['{"0":[[0,"nan"],0]}', '{"0":["1e400",0]}']
    bad += ['{"0":[1,0],"7":[9,9]}', '{"0":[1,0],"1":[0,0]}', '{"0":[1,0],"x":0}']
    for sub in (["gamma", "S3"], ["monodromy", "S3", "--rep", "1"]):
        for labels in bad:
            code, out, err = run_capture(capsys, ["kz", *sub, "--k", labels])
            assert code == 2, (sub, labels)
            assert out == ""
            assert err.startswith("error: bad label vector: "), (sub, labels)
    # finite labels whose residues, q or transport overflow, or whose transport underflows
    overflowing = [
        (["monodromy", "S3", "--rep", "1"], '{"0":[[1e308,1e308],0]}', "residues that are not finite"),
        (["gamma", "S3"], '{"0":[1e308,0]}', "residues that are not finite"),
        (["monodromy", "S3", "--rep", "0"], '{"0":[[0,300],0]}', "overflows"),
        (["monodromy", "S3", "--rep", "1"], '{"0":[[0,300],0]}', "transport is not finite"),
        (["monodromy", "S3", "--rep", "2"], '{"0":[[0,300],0]}', "transport is not finite"),
        (["monodromy", "S3", "--rep", "1"], '{"0":[[0,-300],0]}', "determinant"),
        (["monodromy", "S3", "--rep", "2"], '{"0":[[0,-300],0]}', "determinant"),
    ]
    for sub, labels, message in overflowing:
        code, out, err = run_capture(capsys, ["kz", *sub, "--k", labels])
        assert code == 2, (sub, labels)
        assert out == ""
        assert err.startswith("error: ") and message in err, (sub, labels, err)


def test_determinism_byte_identical(capsys):
    _, out1, _ = run_capture(capsys, ["kz", "gamma", "S3", "--k", '{"0":[1,0]}'])
    _, out2, _ = run_capture(capsys, ["kz", "gamma", "S3", "--k", '{"0":[1,0]}'])
    assert out1 == out2


def test_file_descriptor_via_cli(capsys, tmp_path):
    from reflekt.groups import build_group

    g = build_group("G(4,4,2)")
    data = [[[x.to_json() for x in row] for row in m] for m in g.generator_matrices]
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(data))
    code, out, err = run_capture(capsys, ["group", f"file:{path}"])
    assert code == 0
    assert json.loads(out)["result"]["order"] == 8


@pytest.mark.parametrize(
    "data",
    [[1], [[[1]]], [[[{"N": 1, "terms": ["x"]}]]], [[[{"N": 1, "terms": [[0, "x"]]}]]], [[]]],
)
def test_file_descriptor_bad_entries_exit_2(capsys, tmp_path, data):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(data))
    code, out, err = run_capture(capsys, ["group", f"file:{path}"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: generator")


def test_file_group_not_generated_by_its_reflections_exits_2(capsys, tmp_path):
    # <diag(-1, 1), i I> has order 8; its reflections diag(+-1, -+1) generate 4 elements
    zero, one = {"N": 1, "terms": []}, {"N": 1, "terms": [[0, "1/1"]]}
    minus_one, i = {"N": 1, "terms": [[0, "-1/1"]]}, {"N": 4, "terms": [[1, "1/1"]]}
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([[[minus_one, zero], [zero, one]], [[i, zero], [zero, i]]]))
    code, out, err = run_capture(capsys, ["group", f"file:{path}"])
    assert code == 2
    assert out == ""
    assert "reflections generate only 4 of 8 elements" in err


def test_fake_rereads_an_edited_file_group(capsys, tmp_path):
    from reflekt.groups import build_group

    path = tmp_path / "gens.json"

    def write_generators(descriptor):
        g = build_group(descriptor)
        data = [[[x.to_json() for x in row] for row in m] for m in g.generator_matrices]
        path.write_text(json.dumps(data))

    argv = ["fake", f"file:{path}"]
    write_generators("G(3,1,1)")
    code, first, _ = run_capture(capsys, argv)
    assert code == 0
    assert len(json.loads(first)["result"]["reps"]) == 3
    write_generators("G(2,1,2)")
    code, second, _ = run_capture(capsys, argv)
    assert code == 0
    assert len(json.loads(second)["result"]["reps"]) == 5


@pytest.mark.parametrize("flag", ["--cache", "--no-cache"])
def test_cache_flags_are_gone(capsys, tmp_path, flag):
    argv = [flag, str(tmp_path / "cache")] if flag == "--cache" else [flag]
    code, out, err = run_capture(capsys, [*argv, "chars", "S3"])
    assert code == 2
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_cache_env_writes_nothing(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("REFLEKT_CACHE", str(cache))
    code, _, _ = run_capture(capsys, ["chars", "S3"])
    assert code == 0
    assert list(tmp_path.iterdir()) == []


def test_output_file_carries_the_stdout_bytes(capsys, tmp_path):
    _, stdout_text, _ = run_capture(capsys, ["fake", "S3"])
    path = tmp_path / "out.json"
    code, out, _ = run_capture(capsys, ["--output", str(path), "fake", "S3"])
    assert code == 0
    assert out == ""
    assert path.read_bytes() == stdout_text.encode()


def test_unwritable_output_file_exits_2(capsys, tmp_path):
    path = tmp_path / "nodir" / "x.json"
    code, out, err = run_capture(capsys, ["--output", str(path), "group", "S3"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}")


def test_unwritable_csv_file_exits_2(capsys, tmp_path):
    path = tmp_path / "nodir" / "x.csv"
    code, out, err = run_capture(capsys, ["fake", "S3", "--csv", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}")


@pytest.mark.parametrize("name, value", [("REFLEKT_SEED", "abc"), ("REFLEKT_MAX_ORDER", "x")])
def test_non_integer_env_exits_2(capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    code, out, err = run_capture(capsys, ["group", "S3"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {name} must be an integer")


def test_env_seed_is_echoed(capsys, monkeypatch):
    monkeypatch.setenv("REFLEKT_SEED", "3")
    code, out, _ = run_capture(capsys, ["group", "S3"])
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 3


def test_kz_monodromy_residue_spectrum_ignores_eigenvalue_order(capsys):
    # the computed eigenvalues 0 and -2i share their real part up to rounding,
    # so a lexicographic sort may order them either way
    code, out, err = run_capture(capsys, ["kz", "monodromy", "S3", "--rep", "2", "--k", '{"0":[[0,-1],0]}'])
    assert code == 0, err
    assert json.loads(out)["result"]["passed"] is True
