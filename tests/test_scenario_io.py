import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from dronegrid import (
    ScenarioError,
    cli_main,
    draw_users,
    emit_traces,
    load_scenario,
    run_simulation,
    serialize_scenario,
)
from dronegrid.placement import AreaBounds
from dronegrid.scenario_io import _SECTIONS

FAST = {"search": {"particles": 4, "max_refines": 1}}


def test_defaults_from_empty_document():
    sc = load_scenario(None)
    assert sc.drones == 4
    assert sc.pd_pool == 2
    assert len(sc.users) == 12
    assert sc.battery.initial == 200e3
    assert sc.battery.pd_initial == 400e3
    assert sc.time.blocks == 6
    assert sc.time.total_s == pytest.approx(2880.0)
    assert sc.rates.subchannels == 12
    assert sc.pd_energy.mass == pytest.approx(2 * sc.energy.mass)
    assert load_scenario({}).seed == sc.seed


def test_battery_keys_are_kilojoules():
    sc = load_scenario({"battery": {"initial_kj": 150.0, "charge_per_block_kj": 25.0}})
    assert sc.battery.initial == pytest.approx(150e3)
    assert sc.battery.charge_per_block == pytest.approx(25e3)


def test_unknown_keys_are_named():
    with pytest.raises(ScenarioError) as err:
        load_scenario({"typo_key": 1, "battery": {"initial": 5}})
    text = "; ".join(err.value.errors)
    assert "typo_key" in text
    assert "initial" in text and "battery" in text
    assert len(err.value.errors) == 2  # both collected in one raise


@pytest.mark.parametrize("section, key", [
    ("battery", "big_m"), ("search", "seed"), ("search", "shrink_factor"),
    ("search", "init_radius"), ("solver", "inner_tol"), ("solver", "probe_iters"),
    ("solver", "polish"), ("permissive_depletion", None),
])
def test_dropped_keys_fail_by_name(section, key):
    # older files may still carry these keys; they fail through the
    # unknown-key error, which names the key and its section, or names the
    # section itself as a top-level key when the whole section (or a
    # top-level scalar, given as key None) was dropped
    if section in _SECTIONS:
        expected = f"unknown key '{key}' in section '{section}'"
    else:
        expected = f"unknown key '{section}'"
    with pytest.raises(ScenarioError) as err:
        load_scenario({section: True if key is None else {key: 1}})
    assert err.value.errors == [expected]


def test_integer_fields_follow_the_dataclasses():
    # the loader reads these from the fields' annotations
    integer = {("energy", "prop_count"), ("pd_energy", "prop_count"), ("time", "blocks"),
               ("rates", "subchannels"), ("search", "particles"), ("search", "max_refines")}
    doc = {section: {key: 1.5 for key in mapping} for section, (_, _, mapping) in _SECTIONS.items()}
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert {e for e in err.value.errors if "integer" in e} == {
        f"{section}.{key} must be an integer, got 1.5" for section, key in integer}
    # init_radius was the one nullable field; its key now fails by name,
    # and None is no number anywhere
    with pytest.raises(ScenarioError) as err:
        load_scenario({"search": {"init_radius": None}})
    assert err.value.errors == ["unknown key 'init_radius' in section 'search'"]
    with pytest.raises(ScenarioError) as err:
        load_scenario({"search": {"tol": None}})
    assert err.value.errors == ["search.tol must be a number, got None"]


def test_readme_scenario_table_matches_the_loader():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("## Scenario format", 1)[1].split("\n## ", 1)[0]
    listed = {}
    for line in table.splitlines():
        row = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line)
        if row:
            listed[row[1]] = set(re.findall(r"`(\w+)`", row[2]))
            if row[2].startswith("same keys"):
                listed[row[1]] = listed["energy"]
    assert set(listed) == set(_SECTIONS)
    for section, (_, _, mapping) in _SECTIONS.items():
        assert listed[section] == set(mapping), section


def test_type_errors_are_collected():
    with pytest.raises(ScenarioError) as err:
        load_scenario({"seed": "zero", "drones": 2.5, "time": {"blocks": "six"}})
    assert len(err.value.errors) == 3


def test_negative_seed_fails_by_name():
    # numpy's seeding would otherwise raise its own unnamed error, from the
    # user draw at load time or from run_simulation's streams
    with pytest.raises(ScenarioError) as err:
        load_scenario({"seed": -1, "users": 3})
    assert err.value.errors == ["seed must be a nonnegative integer, got -1"]
    with pytest.raises(ScenarioError) as err:
        load_scenario({"seed": -1, "users": [[100.0, 100.0]]})
    assert err.value.errors == ["seed must be a nonnegative integer, got -1"]
    sc = dataclasses.replace(load_scenario({"users": [[100.0, 100.0]]}), seed=-1)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -1"):
        run_simulation(sc)


def test_total_time_consistency_is_enforced():
    ok = load_scenario({"time": {"blocks": 4, "block_s": 100.0}, "time_total_s": 400.0})
    assert ok.time.blocks == 4
    with pytest.raises(ScenarioError) as err:
        load_scenario({"time": {"blocks": 4, "block_s": 100.0}, "time_total_s": 500.0})
    assert any("time_total_s" in e for e in err.value.errors)


@pytest.mark.parametrize("doc, error", [
    ('{"rates": {"max_power": NaN}}', "rates.max_power must be a finite number, got nan"),
    ('{"rates": {"rate_floor": Infinity}}', "rates.rate_floor must be a finite number, got inf"),
    ('{"channel": {"noise_power": NaN}}', "channel.noise_power must be a finite number, got nan"),
    ('{"users": [[1.0, 2.0], [NaN, 0.0]]}', "users[1].x must be a finite number, got nan"),
    ('{"time_total_s": NaN}', "time_total_s must be a finite number, got nan"),
    # an integer beyond the float range, which float() cannot convert
    (f'{{"rates": {{"max_power": {10**400}}}}}', f"rates.max_power must be a finite number, got {10**400}"),
])
def test_non_finite_numbers_fail_by_name(doc, error):
    # JSON's NaN and Infinity parse as floats, and NaN passes every range
    # check (its comparisons are false); each must fail where it is written
    with pytest.raises(ScenarioError) as err:
        load_scenario(doc)
    assert err.value.errors == [error]


def test_structural_overload_is_rejected():
    with pytest.raises(ScenarioError) as err:
        load_scenario({"users": 30, "drones": 2, "rates": {"subchannels": 12}})
    assert any("30" in e for e in err.value.errors)


def test_users_from_count_are_seed_deterministic():
    a = load_scenario({"users": 5, "seed": 3})
    b = load_scenario({"users": 5, "seed": 3})
    c = load_scenario({"users": 5, "seed": 4})
    assert [(u.x, u.y) for u in a.users] == [(u.x, u.y) for u in b.users]
    assert [(u.x, u.y) for u in a.users] != [(u.x, u.y) for u in c.users]
    for u in a.users:
        assert -400 <= u.x <= 400 and -400 <= u.y <= 400


def test_users_seed_stream_is_stable():
    # the user scatter is part of the package's external contract with its traces:
    # same seed, same area, same coordinates, run after run
    users = draw_users(3, AreaBounds(), 0)
    again = draw_users(3, AreaBounds(), 0)
    assert [(u.x, u.y) for u in users] == [(u.x, u.y) for u in again]


def test_users_as_explicit_lists_and_objects():
    sc = load_scenario({"users": [[1.0, 2.0], {"x": 3.0, "y": 4.0, "uid": 9}]})
    assert [(u.uid, u.x, u.y) for u in sc.users] == [(0, 1.0, 2.0), (9, 3.0, 4.0)]
    with pytest.raises(ScenarioError):
        load_scenario({"users": [[1.0]]})
    with pytest.raises(ScenarioError):
        load_scenario({"users": [{"x": 1.0}]})
    with pytest.raises(ScenarioError):
        load_scenario({"users": [{"x": 1.0, "y": 2.0, "z": 3.0}]})


def test_user_entries_are_type_checked_by_name():
    # the same checks as section keys: no truncated ids, no booleans or
    # strings taken for coordinates, in objects and in pairs alike
    with pytest.raises(ScenarioError) as err:
        load_scenario({"users": [
            {"uid": 1.7, "x": 1.0, "y": 2.0},
            {"x": True, "y": 2.0},
            {"x": 1.0, "y": "5"},
            {"uid": False, "x": 1.0, "y": 2.0},
            [None, 2.0],
            {"x": 1.0},
        ]})
    assert err.value.errors == [
        "users[0].uid must be an integer, got 1.7",
        "users[1].x must be a number, got True",
        "users[2].y must be a number, got '5'",
        "users[3].uid must be an integer, got False",
        "users[4].x must be a number, got None",
        "users[5] needs 'x' and 'y'",
    ]
    sc = load_scenario({"users": [{"uid": 4, "x": 1, "y": -2}, [3, 4.5]]})
    assert [(u.uid, u.x, u.y) for u in sc.users] == [(4, 1.0, -2.0), (1, 3.0, 4.5)]
    assert all(type(v) is float for u in sc.users for v in (u.x, u.y))


def test_round_trip_serialization():
    doc = {
        "seed": 5, "drones": 3, "pd_pool": 1,
        "users": [[10.0, 20.0], [-30.0, 40.0]],
        "battery": {"initial_kj": 180.0},
        "rates": {"rate_floor": 0.75},
        "search": {"particles": 7},
    }
    sc = load_scenario(doc)
    again = load_scenario(serialize_scenario(sc))
    assert again == sc


def test_load_from_file_and_json_text(tmp_path):
    doc = {"drones": 2, "users": 3, **FAST}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    from_file = load_scenario(str(path))
    from_text = load_scenario(json.dumps(doc))
    assert from_file == from_text
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(tmp_path / "missing.json"))
    assert any("not found" in e for e in err.value.errors)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(str(bad))


@pytest.fixture(scope="module")
def small_run():
    sc = load_scenario({"users": 2, "drones": 2, "seed": 6,
                        "time": {"blocks": 2}, **FAST})
    return sc, run_simulation(sc)


def test_emit_traces_layout(tmp_path, small_run):
    sc, results = small_run
    paths = emit_traces(results, tmp_path / "out")
    assert sorted(paths) == [
        "cdbs_battery.csv", "energy_breakdown.csv", "events.csv",
        "pd_battery.csv", "user_rates.csv",
    ]
    cdbs = (tmp_path / "out" / "cdbs_battery.csv").read_text().splitlines()
    assert cdbs[0] == "block,drone,battery_kj"
    assert len(cdbs) == 1 + 3 * 2  # header + (blocks+1) rows x 2 drones
    assert cdbs[1] == "0,0,200"
    rates = (tmp_path / "out" / "user_rates.csv").read_text().splitlines()
    assert rates[0] == "block,user,rate_bps_hz"
    assert len(rates) == 1 + 2 * 2  # blocks 1..N only
    pd_rows = (tmp_path / "out" / "pd_battery.csv").read_text().splitlines()
    assert len(pd_rows) == 1 + 3
    energy = (tmp_path / "out" / "energy_breakdown.csv").read_text().splitlines()
    assert energy[0] == "block,entity,hardware_j,hover_j,transmit_j,charged"
    assert len(energy) == 1 + 2 * 2


def test_emit_traces_reruns_byte_identical(tmp_path, small_run):
    sc, results = small_run
    emit_traces(results, tmp_path / "a")
    emit_traces(results, tmp_path / "b")
    for name in ("cdbs_battery.csv", "pd_battery.csv", "user_rates.csv",
                 "energy_breakdown.csv", "events.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _write_fast_scenario(tmp_path, **extra):
    doc = {"users": 2, "drones": 2, "seed": 6, "time": {"blocks": 2}, **FAST}
    doc.update(extra)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_happy_path(tmp_path, capsys):
    path = _write_fast_scenario(tmp_path)
    code = cli_main(["--scenario", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "block 2" in out
    assert (tmp_path / "out" / "cdbs_battery.csv").exists()


def test_cli_quiet_silences_summary(tmp_path, capsys):
    path = _write_fast_scenario(tmp_path)
    code = cli_main(["--scenario", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_cli_overrides_change_the_run(tmp_path):
    path = _write_fast_scenario(tmp_path)
    code = cli_main([
        "--scenario", str(path), "--out", str(tmp_path / "out"),
        "--users", "3", "--drones", "1", "--blocks", "1", "--quiet",
    ])
    assert code == 0
    cdbs = (tmp_path / "out" / "cdbs_battery.csv").read_text().splitlines()
    assert len(cdbs) == 1 + 2 * 1  # 2 block rows x 1 drone
    rates = (tmp_path / "out" / "user_rates.csv").read_text().splitlines()
    assert len(rates) == 1 + 3


def test_cli_seed_override_moves_users(tmp_path):
    path = _write_fast_scenario(tmp_path)
    assert cli_main(["--scenario", str(path), "--out", str(tmp_path / "s6"), "--quiet"]) == 0
    assert cli_main(["--scenario", str(path), "--out", str(tmp_path / "s7"),
                     "--seed", "7", "--quiet"]) == 0
    # every served user sits on its rate floor, so user_rates.csv can move
    # only through solver slack; the energy the new positions cost cannot
    a = (tmp_path / "s6" / "energy_breakdown.csv").read_bytes()
    b = (tmp_path / "s7" / "energy_breakdown.csv").read_bytes()
    assert a != b


def test_cli_no_pd_flag(tmp_path):
    path = _write_fast_scenario(tmp_path)
    code = cli_main(["--scenario", str(path), "--out", str(tmp_path / "out"),
                     "--no-pd", "--quiet"])
    assert code == 0
    pd_rows = (tmp_path / "out" / "pd_battery.csv").read_text().splitlines()
    assert len(pd_rows) == 1  # header only


def test_cli_audit_flag(tmp_path, capsys):
    path = _write_fast_scenario(tmp_path)
    code = cli_main(["--scenario", str(path), "--out", str(tmp_path / "out"), "--audit"])
    assert code == 0
    assert "audit: clean" in capsys.readouterr().out


def test_cli_bad_usage_exits_one(tmp_path, capsys):
    assert cli_main(["--bogus"]) == 1
    assert "unrecognized" in capsys.readouterr().err
    assert cli_main(["--seed", "not_an_int"]) == 1


def test_cli_negative_seed_exits_one(tmp_path, capsys):
    assert cli_main(["--seed", "-3", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "scenario error: seed must be a nonnegative integer, got -3\n"
    assert not (tmp_path / "out").exists()


def test_cli_invalid_scenario_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"typo": 1}))
    assert cli_main(["--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "typo" in capsys.readouterr().err
    assert cli_main(["--scenario", str(tmp_path / "nope.json")]) == 1


@pytest.mark.parametrize("kind", ["directory", "utf16_bytes"])
def test_unreadable_scenario_fails_by_name(tmp_path, capsys, kind):
    path = tmp_path / "scenario.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{\x00}\x00")  # UTF-16 with a byte-order mark
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert len(err.value.errors) == 1 and str(path) in err.value.errors[0]
    assert cli_main(["--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("scenario error: ") and str(path) in lines[0]
    assert not (tmp_path / "out").exists()


def test_cli_out_on_a_file_exits_one_before_the_run(tmp_path, capsys, monkeypatch):
    path = _write_fast_scenario(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")

    def no_run(sc):
        raise AssertionError("the mission ran although --out is unusable")

    monkeypatch.setattr("dronegrid.scenario_io.run_simulation", no_run)
    assert cli_main(["--scenario", str(path), "--out", str(taken)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(taken) in lines[0]


def test_cli_taken_trace_name_under_out_exits_one_by_name(tmp_path, capsys):
    # --out itself is usable, so the mission runs; one trace's file name
    # is a directory, and the write fails by name instead of a traceback
    quick_look = Path(__file__).resolve().parents[1] / "demos" / "scenarios" / "quick_look.json"
    out = tmp_path / "out"
    (out / "events.csv").mkdir(parents=True)
    assert cli_main(["--scenario", str(quick_look), "--out", str(out), "--quiet"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot write traces to {out}: ")
    assert "events.csv" in lines[0]


def test_cli_failed_run_exits_two_with_partial_traces(tmp_path, capsys):
    path = _write_fast_scenario(
        tmp_path, users=0,
        battery={"initial_kj": 30.0, "threshold_kj": 20.0}, pd_pool=0,
    )
    code = cli_main(["--scenario", str(path), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert "run failed" in capsys.readouterr().err
    cdbs = (tmp_path / "out" / "cdbs_battery.csv").read_text().splitlines()
    assert len(cdbs) >= 2  # at least the initial state was flushed
