import json

import pytest

from reflekt.cli import run
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


def test_kz_bad_labels_exit_2(capsys):
    code, out, err = run_capture(capsys, ["kz", "gamma", "S3", "--k", '{"0":[0]}'])
    assert code == 2


def test_determinism_byte_identical(capsys):
    _, out1, _ = run_capture(capsys, ["kz", "gamma", "S3", "--k", '{"0":[1,0]}'])
    _, out2, _ = run_capture(capsys, ["kz", "gamma", "S3", "--k", '{"0":[1,0]}'])
    assert out1 == out2


def test_cache_roundtrip_and_byte_identity(capsys, tmp_path):
    cache = tmp_path / "cache"
    _, plain, _ = run_capture(capsys, ["--no-cache", "chars", "G(2,1,2)"])
    code, first, _ = run_capture(capsys, ["--cache", str(cache), "chars", "G(2,1,2)"])
    assert code == 0
    entries = list(cache.glob("*.json"))
    assert entries, "cache store happened"
    code, second, err = run_capture(capsys, ["--cache", str(cache), "chars", "G(2,1,2)"])
    assert code == 0
    assert first == second == plain  # hit and cache on/off are byte-identical


def test_cache_corrupt_entry_recovers(capsys, tmp_path):
    cache = tmp_path / "cache"
    run_capture(capsys, ["--cache", str(cache), "chars", "S3"])
    entry = next(cache.glob("*.json"))
    entry.write_text("{broken")
    code, out, err = run_capture(capsys, ["--cache", str(cache), "chars", "S3"])
    assert code == 0
    assert "corrupt" in err or "revalidation" in err


def test_cache_version_bump_misses(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    run_capture(capsys, ["--cache", str(cache), "chars", "S3"])
    n_before = len(list(cache.glob("*.json")))
    monkeypatch.setattr(cli_mod, "ALGORITHM_VERSION", "reflekt-test/alg2")
    code, out, err = run_capture(capsys, ["--cache", str(cache), "chars", "S3"])
    assert code == 0
    assert len(list(cache.glob("*.json"))) > n_before


def test_file_descriptor_via_cli(capsys, tmp_path):
    from reflekt.groups import build_group

    g = build_group("G(4,4,2)")
    data = [[[x.to_json() for x in row] for row in m] for m in g.generator_matrices]
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(data))
    code, out, err = run_capture(capsys, ["group", f"file:{path}"])
    assert code == 0
    assert json.loads(out)["result"]["order"] == 8


def test_cache_misses_after_file_group_changes(capsys, tmp_path):
    from reflekt.groups import build_group

    cache = tmp_path / "cache"
    path = tmp_path / "gens.json"

    def write_generators(descriptor):
        g = build_group(descriptor)
        data = [[[x.to_json() for x in row] for row in m] for m in g.generator_matrices]
        path.write_text(json.dumps(data))

    argv = ["fake", f"file:{path}"]
    write_generators("G(3,1,1)")
    code, _, _ = run_capture(capsys, ["--cache", str(cache)] + argv)
    assert code == 0
    write_generators("G(2,1,2)")
    code, cached, _ = run_capture(capsys, ["--cache", str(cache)] + argv)
    _, plain, _ = run_capture(capsys, ["--no-cache"] + argv)
    assert code == 0
    assert cached == plain
    assert len(json.loads(plain)["result"]["reps"]) == 5
