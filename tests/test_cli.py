import argparse
import json
import math
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


def test_normalize_rejects_invalid_prune(tmp_path, capsys):
    out = str(tmp_path / "out")
    for value in ("nan", "2", "1", "0", "-0.5", "inf"):
        code = run(["normalize", "--n", "4", "--order", "1",
                    "--prune", value, "--out", out])
        assert code == 2
        assert "prune:" in capsys.readouterr().err
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"prune": 1.5}))
    assert run(["normalize", "--config", str(cfgfile), "--out", out]) == 2
    assert not os.path.exists(out)


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


def test_normalize_rejects_invalid_smax(tmp_path, capsys, monkeypatch):
    import kgchain.normalform as nf

    def unreachable(*args, **kwargs):
        raise AssertionError("normal form solved before input validation")

    monkeypatch.setattr(nf, "normal_form", unreachable)
    out = str(tmp_path / "out")
    for order, smax in (("1", "0"), ("1", "1"), ("2", "2"), ("1", "-3")):
        assert run(["normalize", "--n", "4", "--order", order,
                    "--smax", smax, "--out", out]) == 2
        assert "smax: must be an integer >= order+1" \
            in capsys.readouterr().err
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"smax": 2.5}))
    assert run(["normalize", "--config", str(cfgfile), "--out", out]) == 2
    assert not os.path.exists(out)


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


def test_simulate_ladder_names_each_radius_apart(tmp_path):
    # radii that print alike at six digits still get a file each
    out = str(tmp_path / "out")
    assert run(["simulate", "--n", "6", "--horizon", "2",
                "--ladder", "0.1,0.1000001", "--out", out]) == 0
    report = json.load(open(os.path.join(out, "scaling.json")))
    assert len(report["ladder"]) == 2
    assert sorted(f for f in os.listdir(out) if f.endswith(".csv")) == \
        ["trajectory-R0.1.csv", "trajectory-R0.1000001.csv"]


def test_simulate_zero_dt_is_usage_error(tmp_path, capsys, monkeypatch):
    # usage errors are reported before the normal form is solved
    import kgchain.normalform as nf

    def unreachable(*args, **kwargs):
        raise AssertionError("normal form solved before input validation")

    monkeypatch.setattr(nf, "normal_form", unreachable)
    assert run(["simulate", "--n", "6", "--dt", "0", "--horizon", "1",
                "--out", str(tmp_path)]) == 2
    assert "dt must be nonzero" in capsys.readouterr().err
    for horizon in ("inf", "nan", "-1", "0"):
        assert run(["simulate", "--n", "6", "--horizon", horizon,
                    "--out", str(tmp_path)]) == 2
        assert "horizon must be finite and positive" \
            in capsys.readouterr().err
    assert run(["simulate", "--n", "6", "--horizon", "0",
                "--ladder", "0.1,0.05", "--out", str(tmp_path)]) == 2
    assert "horizon must be finite and positive" in capsys.readouterr().err
    assert run(["simulate", "--n", "6", "--horizon", "1",
                "--ladder", "0.1,x", "--out", str(tmp_path)]) == 2
    assert "could not convert" in capsys.readouterr().err
    # every ladder row is a radius, and a ladder has two or more, distinct
    for ladder, message in (("0.1,nan", "radius must be finite"),
                            ("0.1,inf", "radius must be finite"),
                            ("0.1,0", "radius must be finite"),
                            ("0.1,-0.05", "radius must be finite"),
                            ("0.1", "at least two amplitudes"),
                            ("0.1,0.05,0.1", "all distinct")):
        assert run(["simulate", "--n", "6", "--horizon", "1",
                    "--ladder", ladder, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_gdnls_rejects_invalid_energy(tmp_path, capsys, monkeypatch):
    import kgchain.normalform as nf

    def unreachable(*args, **kwargs):
        raise AssertionError("normal form solved before input validation")

    monkeypatch.setattr(nf, "normal_form", unreachable)
    out = str(tmp_path / "out")
    for value in ("nan", "inf", "-0.1"):
        assert run(["gdnls", "--n", "6", "--energy", value,
                    "--out", out]) == 2
        assert "energy: must be finite and >= 0" in capsys.readouterr().err
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"energy": "0.1"}))
    assert run(["gdnls", "--config", str(cfgfile), "--out", out]) == 2
    assert not os.path.exists(out)


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


@pytest.mark.parametrize("a, heads", [(0.05, 0), (0.0, 0), (1e-3, 1)])
def test_bounds_computes_the_remainder_head_only_when_read(
        tmp_path, monkeypatch, a, heads):
    # the decay checks read the head; the empty-window (a=0.05) and
    # decoupled (a=0) runs have no decay checks, so they build none
    import kgchain.bounds as bounds_mod
    import kgchain.normalform as nf_mod
    calls = []
    head = nf_mod.remainder_head

    def counted(res, s_max):
        calls.append(s_max)
        return head(res, s_max)

    monkeypatch.setattr(nf_mod, "remainder_head", counted)
    monkeypatch.setattr(bounds_mod, "remainder_head", counted)
    assert run(["bounds", "--n", "6", "--a", str(a), "--order", "1",
                "--radius", "0.01", "--out", str(tmp_path)]) == 0
    assert len(calls) == heads


def test_verify_pass_and_fault(capsys):
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert run(["verify", "--inject-fault", "quadratic-identity"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] quadratic-identity" in out
    # a name without a fault hook is a usage error, not a silent pass
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--inject-fault", "no-such-check"])
    assert exc.value.code == 2


def test_verify_rejects_flags_it_does_not_read():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--n", "3"])
    assert exc.value.code == 2


def test_verify_config_validates_only_keys_it_reads(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    # radius, n and prune are known keys that verify does not read
    cfgfile.write_text(json.dumps({"radius": -1, "n": 0, "prune": 2}))
    assert run(["verify", "--config", str(cfgfile)]) == 0
    assert "all checks passed" in capsys.readouterr().out
    cfgfile.write_text(json.dumps({"a": -1}))
    assert run(["verify", "--config", str(cfgfile)]) == 2
    assert "a:" in capsys.readouterr().err
    cfgfile.write_text(json.dumps({"radius": 1, "bogus": 1}))
    assert run(["verify", "--config", str(cfgfile)]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_config_values_are_type_checked(tmp_path, capsys, monkeypatch):
    # a config value of the wrong JSON type is a usage error, reported
    # before the solve
    import kgchain.normalform as nf

    class Solved(Exception):
        pass

    def solve(*args, **kwargs):
        raise Solved

    monkeypatch.setattr(nf, "normal_form", solve)
    cfgfile = tmp_path / "cfg.json"
    out = str(tmp_path / "out")
    for cmd, cfg, message in (
            ("simulate", {"horizon": "2"}, "horizon: must be a real number"),
            ("normalize", {"order": 1.5}, "order: must be an integer"),
            ("normalize", {"n": True}, "n: must be an integer"),
            ("normalize", {"smax": 3.0}, "smax: must be an integer"),
            ("simulate", {"seed": "7"}, "seed: must be an integer"),
            ("simulate", {"dt": None}, "dt: must be a real number"),
            ("simulate", {"radius": False}, "radius: must be a real number"),
            ("normalize", {"soft": 1}, "soft: must be true or false"),
            ("simulate", {"norm": 2}, "norm: must be a string"),
            ("verify", {"a": "0.05"}, "a: must be a real number"),
            # ranges and choices hold for config values as for flags
            ("normalize", {"a": math.inf}, "a: must be finite and >= 0"),
            ("normalize", {"tol": math.inf},
             "tol: must be finite and positive"),
            ("simulate", {"seed": -1}, "seed: must be >= 0"),
            ("verify", {"seed": -1}, "seed: must be >= 0"),
            ("normalize", {"sigma_star": math.nan},
             "sigma_star: must be null or finite"),
            ("bounds", {"sigma_star": math.inf},
             "sigma_star: must be null or finite"),
            ("simulate", {"norm": "l1"}, "norm: must be one of"),
            ("bounds", {"norm": "l1"}, "norm: must be one of"),
            ("simulate", {"initial": "nope"}, "initial: must be one of"),
            ("simulate", {"ladder": [0.1, 0.05]},
             "ladder: must be a string"),
            ("simulate", {"dt": math.nan}, "dt must be finite")):
        cfgfile.write_text(json.dumps(cfg))
        where = [] if cmd == "verify" else ["--out", out]
        assert run([cmd, "--config", str(cfgfile), *where]) == 2
        assert message in capsys.readouterr().err
    assert not os.path.exists(out)
    # an integer is a real number, and null stands for a None default
    for cmd, cfg in (("simulate", {"horizon": 2}),
                     ("normalize", {"prune": None, "smax": None,
                                    "sigma_star": None, "soft": True})):
        cfgfile.write_text(json.dumps(cfg))
        with pytest.raises(Solved):
            run([cmd, "--config", str(cfgfile), "--out", out])


def test_flags_are_range_checked_before_the_solve(tmp_path, capsys,
                                                  monkeypatch):
    import kgchain.normalform as nf

    def unreachable(*args, **kwargs):
        raise AssertionError("normal form solved before input validation")

    monkeypatch.setattr(nf, "normal_form", unreachable)
    out = str(tmp_path / "out")
    for cmd, flag, values, message in (
            ("normalize", "--a", ("inf", "nan"), "a: must be finite and >= 0"),
            ("verify", "--a", ("inf",), "a: must be finite and >= 0"),
            ("normalize", "--tol", ("inf", "nan", "0"),
             "tol: must be finite and positive"),
            ("simulate", "--seed", ("-1",), "seed: must be >= 0"),
            ("verify", "--seed", ("-1",), "seed: must be >= 0"),
            ("normalize", "--sigma-star", ("nan", "inf", "-inf"),
             "sigma_star: must be null or finite"),
            ("bounds", "--sigma-star", ("nan", "inf"),
             "sigma_star: must be null or finite"),
            ("simulate", "--dt", ("nan", "inf"), "dt must be finite")):
        where = [] if cmd == "verify" else ["--n", "4", "--out", out]
        for value in values:
            assert run([cmd, f"{flag}={value}", *where]) == 2
            assert message in capsys.readouterr().err
    assert not os.path.exists(out)


def test_parser_flags_are_the_command_keys():
    from kgchain.cli import COMMANDS, OPTIONS, build_parser
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(COMMANDS)
    for command, parser in sub.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings}
        want = {"-h", "--help", "--config", "--json"} \
            | {"--" + key.replace("_", "-") for key in COMMANDS[command][1]}
        if command == "verify":
            want.add("--inject-fault")
        assert flags == want
    assert set(OPTIONS) == {key for _, keys in COMMANDS.values()
                            for key in keys}


def test_verify_json(capsys):
    assert run(["verify", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_pass"] is True
    assert any(c["name"] == "kernel-purity" for c in payload["checks"])


def test_config_file_and_flag_override(tmp_path, capsys):
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
    for text in ("3", '["n"]'):
        bad.write_text(text)
        assert run(["normalize", "--config", str(bad), "--out", out]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err
