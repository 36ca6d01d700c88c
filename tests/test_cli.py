import json
import subprocess
import sys
from pathlib import Path

import pytest

from zfree import (GenConfig, Instance, check_jwp, check_zfree, dump_instance,
                   generate_instance)


def run_cli(*args, stdin=None):
    return subprocess.run([sys.executable, "-m", "zfree", *args],
                          capture_output=True, text=True, input=stdin)


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "inst.json"
    gen = run_cli("gen", "--r", "3", "--dmax", "3", "--seed", "12")
    assert gen.returncode == 0
    path.write_text(gen.stdout)
    return path


@pytest.fixture(scope="module")
def mutant_file(tmp_path_factory):
    """A generated instance with one table cell moved by +-1 so that the
    exhaustive checks reject it."""
    inst = generate_instance(GenConfig(r=4, dmax=3, seed=21))
    tables = {p: [[v.raw for v in row] for row in t]
              for p, t in inst.binary_pairs()}
    unary = [[v.raw for v in row] for row in inst.unary]
    for pair, t in sorted(tables.items()):
        for a, row in enumerate(t):
            for b, old in enumerate(row):
                for new in (old + 1, old - 1):
                    if new < 0:
                        continue
                    row[b] = new
                    mutant = Instance(inst.domains, unary, tables)
                    if check_jwp(mutant) or check_zfree(mutant):
                        path = tmp_path_factory.mktemp("data") / "mutant.json"
                        path.write_text(dump_instance(mutant))
                        return path, mutant
                row[b] = old
    raise AssertionError("no rejected single-cell mutant")


def test_gen_is_deterministic():
    a = run_cli("gen", "--r", "4", "--seed", "3")
    b = run_cli("gen", "--r", "4", "--seed", "3")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    c = run_cli("gen", "--r", "4", "--seed", "4")
    assert c.stdout != a.stdout


def test_solve_roundtrip(instance_file):
    res = run_cli("solve", str(instance_file))
    assert res.returncode == 0
    assert res.stdout.startswith("status: optimal")
    again = run_cli("solve", str(instance_file))
    assert again.stdout == res.stdout and again.stderr == res.stderr


def test_solve_json(instance_file):
    res = run_cli("solve", str(instance_file), "--json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["status"] == "optimal"
    assert len(payload["assignment"]) == 3


def test_solve_agrees_with_oracle(instance_file):
    solve = run_cli("solve", str(instance_file), "--json")
    oracle = run_cli("oracle-min", str(instance_file), "--json")
    assert oracle.returncode == 0
    a = json.loads(solve.stdout)
    b = json.loads(oracle.stdout)
    assert a["value"] == b["value"]


def test_solve_reads_stdin(instance_file):
    res = run_cli("solve", "-", stdin=instance_file.read_text())
    assert res.returncode == 0


def test_solve_dump_aux(instance_file, tmp_path):
    aux = tmp_path / "aux"
    res = run_cli("solve", str(instance_file), "--dump-aux", str(aux))
    assert res.returncode == 0
    dots = sorted(p.name for p in aux.glob("*.dot"))
    assert dots and dots[0] == "round_01.dot"
    assert "digraph" in (aux / dots[0]).read_text()


def test_check_rejection_exit_code(tmp_path):
    doc = {"r": 2, "domains": [2, 2], "unary": [[0, 0], [0, 0]],
           "binary": [{"i": 1, "j": 2, "table": [[1, 2], [2, 2]]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    res = run_cli("check", str(path))
    assert res.returncode == 2
    assert "zfree: no" in res.stdout
    solve = run_cli("solve", str(path))
    assert solve.returncode == 2


def test_check_passes(instance_file):
    res = run_cli("check", str(instance_file))
    assert res.returncode == 0
    assert res.stdout == "jwp: yes\nzfree: yes\n"


def test_complete_roundtrip(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"n": 3, "entries": [{"i": 1, "j": 2, "value": 1},
                             {"i": 2, "j": 3, "value": 2}]}))
    res = run_cli("complete", str(path))
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["n"] == 3
    values = {(e["i"], e["j"]): e["value"] for e in out["entries"]}
    assert values[(1, 3)] == 1


def test_complete_rejects_bad_cycle(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"n": 4, "entries": [{"i": 1, "j": 2, "value": 1},
                             {"i": 2, "j": 3, "value": 2},
                             {"i": 3, "j": 4, "value": 2},
                             {"i": 1, "j": 4, "value": 2}]}))
    res = run_cli("complete", str(path))
    assert res.returncode == 3
    assert "not-completable" in res.stdout


def test_certify(instance_file):
    res = run_cli("certify", str(instance_file), "--json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload == {"jwp": True, "zfree": True, "completable": True,
                       "agreement": True}


def test_oracle_budget_exit_code(instance_file):
    res = run_cli("oracle-min", str(instance_file), "--max-evals", "1")
    assert res.returncode == 4


def test_usage_errors_exit_one(tmp_path):
    assert run_cli().returncode == 1
    assert run_cli("solve").returncode == 1
    assert run_cli("solve", str(tmp_path / "missing.json")).returncode == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("solve", str(bad)).returncode == 1


def test_parse_error_reports_location(tmp_path):
    doc = {"r": 1, "domains": [2], "unary": [[0, 0.25]], "binary": []}
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    res = run_cli("solve", str(path))
    assert res.returncode == 1
    assert "error" in res.stderr


def test_solve_json_rejects_mutant_deterministically(mutant_file):
    path, _ = mutant_file
    res = run_cli("solve", "--json", str(path))
    assert res.returncode == 2
    payload = json.loads(res.stdout)
    assert payload["status"] == "rejected"
    assert payload["check"] in ("jwp", "zfree") and payload["reason"]
    again = run_cli("solve", "--json", str(path))
    assert again.returncode == 2
    assert again.stdout == res.stdout and again.stderr == res.stderr


def test_check_exit_codes(instance_file, mutant_file):
    assert run_cli("check", str(instance_file)).returncode == 0
    path, mutant = mutant_file
    res = run_cli("check", str(path))
    assert res.returncode == 2
    # A rejection reports the exhaustive checks' first violation of each.
    jwp, zfree = check_jwp(mutant), check_zfree(mutant)
    want = f"jwp: {'no' if jwp else 'yes'}\nzfree: {'no' if zfree else 'yes'}\n"
    if jwp:
        want += f"jwp_reason: {jwp.message}\n"
    if zfree:
        want += f"zfree_reason: {zfree.message}\n"
    assert res.stdout == want


def test_in_process_calls_match_subprocess_runs(instance_file, mutant_file, capsys):
    # main builds its parser once; a usage error between two calls must not
    # change what the next call prints.
    from zfree.cli import main

    path, _ = mutant_file
    calls = [("solve", "--json", str(path)), ("solve", "--bogus"),
             ("check", str(instance_file))]
    codes = []
    for args in calls:
        want = run_cli(*args)
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = exc.code
        assert (code, capsys.readouterr().out) == (want.returncode, want.stdout)
        codes.append(code)
    assert codes == [2, 1, 0]


def test_numpy_is_the_only_dependency():
    probe = ("import sys, zfree, zfree.cli\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert res.returncode == 0 and res.stdout == "[]\n", res.stderr
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
