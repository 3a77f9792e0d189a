import json
import os

import pytest

from kgchain.cli import main, write_trajectory_csv


def run(args):
    return main(args)


def count_constants(monkeypatch):
    """Record the order of every bounds.constants call."""
    import kgchain.bounds as bounds_mod
    calls = []
    constants = bounds_mod.constants

    def counted(lnf, r, *args, **kwargs):
        calls.append(r)
        return constants(lnf, r, *args, **kwargs)

    monkeypatch.setattr(bounds_mod, "constants", counted)
    return calls


def test_normalize_writes_files(tmp_path):
    out = str(tmp_path)
    code = run(["normalize", "--n", "5", "--a", "0.05", "--order", "2",
                "--out", out])
    assert code == 0
    for name in ("normalform.json", "bounds-report.json", "summary.txt"):
        assert os.path.exists(os.path.join(out, name))
    payload = json.load(open(os.path.join(out, "normalform.json")))
    assert payload["params"]["order"] == 2
    assert len(payload["normalized"]) == 2
    assert len(payload["remainder_head"]) == 1
    # a = 0.05 empties the sigma_* window: reported, not an error
    report = json.load(open(os.path.join(out, "bounds-report.json")))
    assert report.get("window_empty") is True


def test_normalize_invalid_parameter(tmp_path, capsys):
    code = run(["normalize", "--n", "8", "--a", "-1", "--out",
                str(tmp_path)])
    assert code == 2
    assert "a:" in capsys.readouterr().err


def test_normalize_order_advisory(tmp_path):
    out = str(tmp_path)
    code = run(["normalize", "--n", "8", "--a", "1e-3", "--order", "2",
                "--prune", "1e-13", "--out", out])
    assert code == 0
    report = json.load(open(os.path.join(out, "bounds-report.json")))
    assert any("violates" in adv for adv in report["advisories"])
    payload = json.load(open(os.path.join(out, "normalform.json")))
    assert payload["advisory"]["order_bound_violated"] is True


def test_normalize_sigma_star_one_record(tmp_path):
    # normalform.json and bounds-report.json read one constants record,
    # also at an explicit sigma_*
    out = str(tmp_path / "inside")
    assert run(["normalize", "--n", "8", "--a", "1e-3", "--order", "2",
                "--prune", "1e-13", "--sigma-star", "2.5",
                "--out", out]) == 0
    payload = json.load(open(os.path.join(out, "normalform.json")))
    report = json.load(open(os.path.join(out, "bounds-report.json")))
    assert report["constants"]["sigma_star"] == 2.5
    assert payload["advisory"]["r_max"] == report["constants"]["r_max"]
    assert [g["sigma"] for g in payload["generating"]] \
        == report["constants"]["sigma_seq"]
    # outside the window [1.5542, 3.1083): window_empty in both files
    out = str(tmp_path / "outside")
    assert run(["normalize", "--n", "8", "--a", "1e-3", "--order", "1",
                "--sigma-star", "9", "--out", out]) == 0
    payload = json.load(open(os.path.join(out, "normalform.json")))
    report = json.load(open(os.path.join(out, "bounds-report.json")))
    assert payload["advisory"]["window_empty"] is True
    assert report["window_empty"] is True
    assert payload["advisory"]["detail"] == report["advisories"][0]
    assert [g["sigma"] for g in payload["generating"]] == [None]


def test_normalize_deterministic_bytes(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        assert run(["normalize", "--n", "5", "--a", "0.02", "--order", "1",
                    "--out", out]) == 0
    b1 = open(os.path.join(out1, "normalform.json"), "rb").read()
    b2 = open(os.path.join(out2, "normalform.json"), "rb").read()
    assert b1 == b2
    # re-running into the same directory overwrites atomically
    assert run(["normalize", "--n", "5", "--a", "0.02", "--order", "1",
                "--out", out1]) == 0
    assert open(os.path.join(out1, "normalform.json"), "rb").read() == b1


def test_gdnls_outputs(tmp_path, monkeypatch):
    calls = count_constants(monkeypatch)
    out = str(tmp_path)
    code = run(["gdnls", "--n", "8", "--a", "0.05", "--out", out,
                "--energy", "0.1"])
    assert code == 0
    assert calls == []
    payload = json.load(open(os.path.join(out, "gdnls.json")))
    b = [abs(x) for x in payload["b"]]
    assert all(b[i] > b[i + 1] for i in range(len(b) - 1))
    ref = payload["reference"]
    assert ref["two_step_expected"] == [0.05 / 2, 3 * 0.1 / 8]
    assert ref["two_step_quadratic"] == pytest.approx(0.025, abs=1e-16)
    assert ref["two_step_quartic"] == pytest.approx(0.0375, abs=1e-16)


def test_gdnls_decoupled_empty_couplings(tmp_path):
    out = str(tmp_path)
    assert run(["gdnls", "--n", "8", "--a", "0", "--out", out]) == 0
    payload = json.load(open(os.path.join(out, "gdnls.json")))
    assert all(x == 0.0 for x in payload["b"])


def test_simulate_ladder(tmp_path, monkeypatch):
    import kgchain.dynamics as dyn
    from kgchain import linear_normalize, normal_form
    runs = []
    integrate_strang = dyn._integrate_strang

    def counted(cfgs):
        runs.append([cfg.radius for cfg in cfgs])
        return integrate_strang(cfgs)

    monkeypatch.setattr(dyn, "_integrate_strang", counted)
    out = str(tmp_path / "out")
    code = run(["simulate", "--n", "8", "--a", "0.05", "--order", "1",
                "--dt", "0.02", "--horizon", "20",
                "--ladder", "0.08,0.04,0.02,0.01", "--seed", "7",
                "--out", out, "--json"])
    assert code == 0
    # one batched pass integrates every radius once, for the report and
    # its CSVs alike
    assert runs == [[0.08, 0.04, 0.02, 0.01]]
    report = json.load(open(os.path.join(out, "scaling.json")))
    assert len(report["ladder"]) == 4
    res = normal_form(linear_normalize(0.05, 8), 1)
    for radius in ("0.08", "0.04", "0.02", "0.01"):
        cfg = dyn.SimConfig(n=8, a=0.05, radius=float(radius), dt=0.02,
                            horizon=20.0, order=1, seed=7)
        traj = dyn.integrate_kg(cfg)
        dyn.observables(traj, res)
        direct = tmp_path / f"direct-R{radius}.csv"
        write_trajectory_csv(direct, traj)
        name = os.path.join(out, f"trajectory-R{radius}.csv")
        assert open(name, "rb").read() == direct.read_bytes()


def test_simulate_zero_dt_is_usage_error(tmp_path, capsys, monkeypatch):
    # usage errors are reported before the normal form is solved
    import kgchain.normalform as nf

    def unreachable(*args, **kwargs):
        raise AssertionError("normal form solved before input validation")

    monkeypatch.setattr(nf, "normal_form", unreachable)
    assert run(["simulate", "--n", "6", "--dt", "0", "--horizon", "1",
                "--out", str(tmp_path)]) == 2
    assert "dt must be nonzero" in capsys.readouterr().err
    assert run(["simulate", "--n", "6", "--horizon", "1",
                "--ladder", "0.1,x", "--out", str(tmp_path)]) == 2
    assert "could not convert" in capsys.readouterr().err


def test_simulate_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "x"), str(tmp_path / "y")
    for out in (out1, out2):
        assert run(["simulate", "--n", "6", "--a", "0.02", "--dt", "0.02",
                    "--horizon", "10", "--seed", "5", "--out", out]) == 0
    t1 = open(os.path.join(out1, "trajectory.csv"), "rb").read()
    t2 = open(os.path.join(out2, "trajectory.csv"), "rb").read()
    assert t1 == t2


def test_bounds_command(tmp_path, monkeypatch):
    calls = count_constants(monkeypatch)
    out = str(tmp_path)
    code = run(["bounds", "--n", "8", "--a", "1e-3", "--order", "1",
                "--radius", "0.01", "--out", out, "--json"])
    assert code == 0
    # one record serves the decay checks and the deformation bound
    assert calls == [1]
    report = json.load(open(os.path.join(out, "bounds-report.json")))
    assert report["all_pass"] is True
    assert "deformation" in report


def test_verify_pass_and_fault(capsys):
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert run(["verify", "--inject-fault", "quadratic-identity"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] quadratic-identity" in out


def test_verify_json(capsys):
    assert run(["verify", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_pass"] is True
    assert any(c["name"] == "kernel-purity" for c in payload["checks"])


def test_config_file_and_flag_override(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"n": 6, "a": 0.02, "order": 1}))
    out = str(tmp_path / "out")
    assert run(["normalize", "--config", str(cfgfile), "--a", "0.03",
                "--out", out]) == 0
    payload = json.load(open(os.path.join(out, "normalform.json")))
    assert payload["params"]["n"] == 6
    assert payload["params"]["a"] == 0.03
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_key": 1}))
    assert run(["normalize", "--config", str(bad), "--out", out]) == 2
