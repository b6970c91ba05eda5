import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msgate.oracle import CutoffError
from msgate.sweeps import DOMAIN_ERRORS, chain_study, contour, parity_study, sweep_detuning

from conftest import three_ion_config


@pytest.fixture(scope="module")
def small_sweep(ref_config_module):
    return sweep_detuning(ref_config_module, delta0_min_hz=-60e3, delta0_max_hz=180e3, steps=121)


@pytest.fixture(scope="module")
def ref_config_module():
    return three_ion_config()


def test_sweep_row_count_and_columns(small_sweep):
    assert small_sweep.columns[:3] == ("pulse", "delta0_khz", "domega_khz")
    assert len(small_sweep.rows) == 3 * 121
    for row in small_sweep.rows:
        assert row[0] in ("balanced_gaussian", "unbalanced_gaussian", "square")
        if not row[7]:  # unflagged rows carry finite values
            assert np.isfinite(row[3:7]).all()


def test_sweep_displacement_peaks_at_modes(small_sweep):
    # eps_d of the balanced curve peaks at the mode offsets 0, ~95, ~161 kHz
    rows = [r for r in small_sweep.rows if r[0] == "balanced_gaussian"]
    delta0 = np.array([r[1] for r in rows])
    eps_d = np.array([r[3] for r in rows])
    for mode_khz in (0.0, 95.18, 160.64):
        near = np.abs(delta0 - mode_khz) <= 6.0
        far = (np.abs(delta0 - mode_khz) > 12.0) & (np.abs(delta0 - mode_khz) <= 25.0)
        assert eps_d[near].max() > 10 * eps_d[far].min()


def test_sweep_balanced_dip_is_broad(small_sweep):
    def dip_width(name):
        rows = [r for r in small_sweep.rows if r[0] == name]
        dw = np.array([r[2] for r in rows])
        eps_r = np.array([r[4] for r in rows])
        good = np.abs(dw[eps_r < 1e-4])
        return good.max() if good.size else 0.0

    assert dip_width("balanced_gaussian") >= 4.0  # kHz
    assert dip_width("balanced_gaussian") > 5 * dip_width("square")


def test_sweep_csv_format(small_sweep, tmp_path):
    path = tmp_path / "sweep.csv"
    small_sweep.write_csv(path)
    text = path.read_text().splitlines()
    meta = [line for line in text if line.startswith("# ")]
    assert any(line.startswith("# config_hash=") for line in meta)
    assert any(line.startswith("# generator=msgate") for line in meta)
    header_idx = len(meta)
    assert text[header_idx].startswith("pulse,delta0_khz")
    assert len(text) == header_idx + 1 + len(small_sweep.rows)


def test_contour_grid(ref_config_module):
    result = contour(
        ref_config_module, z_min_s=15e-6, z_max_s=40e-6, z_steps=4,
        domega_half_range_hz=8e3, domega_steps=5,
    )
    assert len(result.rows) == 4 * 5
    # each width column is freshly balanced: delta0 varies along z
    d0_by_z = {}
    for row in result.rows:
        d0_by_z.setdefault(row[0], set()).add(row[7])
    assert len(d0_by_z) == 4
    for values in d0_by_z.values():
        assert len(values) == 1
    assert len({next(iter(v)) for v in d0_by_z.values()}) == 4


def test_contour_worker_determinism(ref_config_module):
    kwargs = dict(z_min_s=18e-6, z_max_s=32e-6, z_steps=3, domega_half_range_hz=6e3, domega_steps=4)
    serial = contour(ref_config_module, workers=1, **kwargs)
    parallel = contour(ref_config_module, workers=2, **kwargs)
    assert serial.to_csv() == parallel.to_csv()


def test_chain_study_small(ref_config_module):
    summary, curves = chain_study(
        ref_config_module, dx0_list_m=[3.5e-6], n_list=[2, 3],
        domega_half_range_hz=10e3, domega_step_hz=2000.0,
    )
    assert len(summary.rows) == 2
    status_col = summary.columns.index("status")
    assert all(row[status_col] == "" for row in summary.rows)
    n_grid = 11
    assert len(curves.rows) == 2 * n_grid
    dnu_col = summary.columns.index("dnu10_khz")
    assert summary.rows[0][dnu_col] > summary.rows[1][dnu_col] > 0


def test_chain_study_worker_determinism(ref_config_module):
    kwargs = dict(dx0_list_m=[3.5e-6], n_list=[2, 3], domega_half_range_hz=10e3, domega_step_hz=5000.0)
    s1, c1 = chain_study(ref_config_module, workers=1, **kwargs)
    s2, c2 = chain_study(ref_config_module, workers=2, **kwargs)
    assert s1.to_csv() == s2.to_csv()
    assert c1.to_csv() == c2.to_csv()


def _nan_only_in_failed_rows(result):
    """No NaN outside a row whose status is non-empty (tables without a
    status column hold successful designs only)."""
    status = result.columns.index("status") if "status" in result.columns else None
    for row in result.rows:
        if status is None or row[status] == "":
            assert not any(isinstance(c, float) and np.isnan(c) for c in row), row


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    z_us=st.lists(st.floats(5.0, 60.0), min_size=1, max_size=3),
    half_range_khz=st.floats(1.0, 12.0),
    domega_steps=st.integers(1, 4),
    n_list=st.lists(st.integers(2, 8), min_size=1, max_size=2, unique=True),
    dx0_um=st.lists(st.floats(0.8, 6.0), min_size=1, max_size=2),
    steps_to_10khz=st.integers(1, 5),
)
def test_sweeps_identical_for_one_and_two_workers(z_us, half_range_khz, domega_steps, n_list, dx0_um, steps_to_10khz):
    config = three_ion_config()
    grid = dict(z_min_s=min(z_us) * 1e-6, z_max_s=max(z_us) * 1e-6, z_steps=len(z_us),
                domega_half_range_hz=half_range_khz * 1e3, domega_steps=domega_steps)
    serial, pooled = (contour(config, workers=w, **grid) for w in (1, 2))
    assert serial.to_csv() == pooled.to_csv()
    _nan_only_in_failed_rows(serial)
    # chain_study's grid must hold -10 and +10 kHz
    study = dict(dx0_list_m=[d * 1e-6 for d in dx0_um], n_list=n_list,
                 domega_half_range_hz=10e3, domega_step_hz=10e3 / steps_to_10khz)
    serial, pooled = (chain_study(config, workers=w, **study) for w in (1, 2))
    for one, two in zip(serial, pooled):
        assert one.to_csv() == two.to_csv()
        _nan_only_in_failed_rows(one)


def test_chain_study_records_failures(ref_config_module):
    # 800 nm spacing cannot hold a linear 8-ion chain in this trap
    summary, curves = chain_study(
        ref_config_module, dx0_list_m=[0.8e-6], n_list=[8],
        domega_half_range_hz=10e3, domega_step_hz=5000.0,
    )
    status_col = summary.columns.index("status")
    assert summary.rows[0][status_col] != ""
    assert curves.rows == []


def test_programming_errors_are_not_status_rows(ref_config_module, monkeypatch):
    import msgate.sweeps

    def broken(config, *args, **kwargs):  # a caller bug, not a domain error
        raise ValueError("k1 must be the lower-frequency mode")

    monkeypatch.setattr(msgate.sweeps, "design_gate", broken)
    with pytest.raises(ValueError):
        contour(ref_config_module, z_steps=2, domega_steps=2)
    with pytest.raises(ValueError):
        chain_study(ref_config_module, dx0_list_m=[3.5e-6], n_list=[2], domega_step_hz=5e3)


def test_failure_rows_share_one_status_text_and_parse_as_csv(ref_config_module, monkeypatch):
    import msgate.sweeps
    from msgate.design import BracketError

    def no_bracket(config, *args, **kwargs):
        raise BracketError("no bracket: f(a) = 1, f(b) = 2")

    monkeypatch.setattr(msgate.sweeps, "design_gate", no_bracket)
    grid = contour(ref_config_module, z_steps=2, domega_steps=3)
    summary, curves = chain_study(ref_config_module, dx0_list_m=[3.5e-6], n_list=[2, 3], domega_step_hz=5e3)
    status = "BracketError: no bracket: f(a) = 1, f(b) = 2"
    for result in (grid, summary, curves):
        lines = [line for line in result.to_csv().splitlines() if not line.startswith("# ")]
        header, *rows = csv.reader(lines)
        assert header == list(result.columns)
        assert all(len(row) == len(header) for row in rows)
        if result is not curves:
            assert len(rows) == len(result.rows) > 0
            assert {row[header.index("status")] for row in rows} == {status}
    assert curves.rows == []


def test_pool_starts_at_most_one_process_per_task(ref_config_module, monkeypatch):
    import concurrent.futures

    import msgate.sweeps

    pool_sizes = []

    class RecordingPool:  # records its size and maps in this process; starts no process
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert msgate.sweeps._run_tasks(abs, [-1, -2, -3], 8) == [1, 2, 3]
    assert msgate.sweeps._run_tasks(abs, [-1, -2, -3], 2) == [1, 2, 3]
    grid = dict(z_min_s=18e-6, z_max_s=32e-6, z_steps=3, domega_steps=2)
    assert contour(ref_config_module, workers=8, **grid).to_csv() == contour(ref_config_module, **grid).to_csv()
    assert pool_sizes == [3, 2, 3]


def test_cli_import_loads_no_process_pool():
    import msgate

    # the pool's modules cost every one-worker run their import time; they load when a pool starts
    package_root = str(Path(msgate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    probe = "import sys, msgate.cli; print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_parity_rows_and_estimate(ref_config_module):
    result = parity_study(ref_config_module, phi_steps=64)
    assert len(result.rows) == 64
    assert float(result.metadata["amplitude"]) == pytest.approx(1.0, abs=1e-5)
    est = float(result.metadata["fidelity_estimate"])
    exact = float(result.metadata["fidelity_exact"])
    assert est == pytest.approx(exact, abs=1e-6)


def test_parity_estimate_tracks_exact_off_resonance(ref_config_module):
    result = parity_study(ref_config_module, phi_steps=64, domega_hz=10e3)
    est = float(result.metadata["fidelity_estimate"])
    exact = float(result.metadata["fidelity_exact"])
    assert est == pytest.approx(exact, abs=0.01)


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return path


def test_cli_design(tmp_path, capsys, ref_config_module):
    from msgate.cli import main

    path = write_config(tmp_path, ref_config_module)
    assert main(["design", "--config", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["delta0_hz"] == pytest.approx(37.36e3, abs=1e3)


def test_cli_design_unbalanced_square(tmp_path, capsys, ref_config_module):
    from msgate.cli import main

    path = write_config(tmp_path, ref_config_module)
    code = main(["design", "--config", str(path), "--pulse", "square", "--delta0-khz", "-40"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["delta0_hz"] == pytest.approx(-40e3)
    assert record["pulse_type"] == "square"
    assert record["theta"] == pytest.approx(np.pi / 2, abs=1e-9)


def test_cli_invalid_config(tmp_path, capsys):
    from msgate.cli import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n_ions": 1}))
    assert main(["design", "--config", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_mistyped_config_value_exits_2(tmp_path, capsys, ref_config_module):
    from msgate.cli import main

    raw = ref_config_module.to_dict()
    raw["pulse"]["tau_s"] = "abc"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["design", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: pulse.tau_s must be a finite number, got 'abc'\n"


@pytest.mark.parametrize("command", [["design"], ["design", "--delta0-khz", "-40"], ["contour"]])
def test_cli_zero_trial_rabi_rate_exits_2(tmp_path, capsys, ref_config_module, command):
    # nothing can be calibrated from a zero trial Rabi rate
    from msgate.cli import main

    raw = ref_config_module.to_dict()
    raw["pulse"]["omega0_hz"] = 0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main([*command, "--config", str(path)]) == 2
    assert capsys.readouterr().err == "error: pulse.omega0_hz must be positive, got 0.0\n"


@pytest.mark.parametrize(
    "pulse_args",
    [[], ["--pulse", "spline_gaussian"], ["--pulse", "square", "--delta0-khz", "-40"]],
    ids=["trunc_gaussian", "spline_gaussian", "square-40kHz"],
)
def test_cli_trial_rabi_rate_is_checked_and_ignored(tmp_path, ref_config_module, pulse_args):
    # pulse.omega0_hz is a legacy key: a design sets its own peak Rabi rate,
    # so the loader checks the value and drops it
    from msgate.cli import main
    from msgate.config import config_from_dict

    raws = [ref_config_module.to_dict() for _ in range(4)]
    assert "omega0_hz" not in raws[3]["pulse"]
    for raw, omega0_hz in zip(raws, (40e3, 100e3, 300e3)):
        raw["pulse"]["omega0_hz"] = omega0_hz
    configs = [config_from_dict(raw) for raw in raws]
    assert all(cfg == ref_config_module for cfg in configs)
    assert len({cfg.config_hash() for cfg in configs}) == 1
    records = set()
    for k, raw in enumerate(raws):
        path, out = tmp_path / f"config{k}.json", tmp_path / f"design{k}.json"
        path.write_text(json.dumps(raw))
        assert main(["design", "--config", str(path), *pulse_args, "--out", str(out)]) == 0
        records.add(out.read_bytes())
    assert len(records) == 1


def test_cli_balance_root_tolerance_is_checked_and_ignored(tmp_path, ref_config_module):
    # tol.root_hz is a legacy key: the balance solve stops at a 1e-6 Hz step,
    # so the loader checks the value and drops it
    from msgate.cli import main
    from msgate.config import config_from_dict

    raws = [ref_config_module.to_dict() for _ in range(4)]
    assert "root_hz" not in raws[3]["tol"]
    for raw, root_hz in zip(raws, (1e-3, 1.0, 10.0)):
        raw["tol"]["root_hz"] = root_hz
    configs = [config_from_dict(raw) for raw in raws]
    assert all(cfg == ref_config_module for cfg in configs)
    assert len({cfg.config_hash() for cfg in configs}) == 1
    records = set()
    for k, raw in enumerate(raws):
        path, out = tmp_path / f"config{k}.json", tmp_path / f"design{k}.json"
        path.write_text(json.dumps(raw))
        assert main(["design", "--config", str(path), "--out", str(out)]) == 0
        records.add(out.read_bytes())
    assert len(records) == 1


@pytest.mark.parametrize(
    "root_hz, message",
    [(False, "tol.root_hz must be a finite number, got False"), (0, "tol.root_hz must be positive, got 0.0")],
)
def test_cli_bad_balance_root_tolerance_exits_2(tmp_path, capsys, ref_config_module, root_hz, message):
    from msgate.cli import main

    raw = ref_config_module.to_dict()
    raw["tol"]["root_hz"] = root_hz
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["design", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_resonant_design_is_an_error_line(tmp_path, capsys, ref_config_module):
    from msgate.cli import main

    path = write_config(tmp_path, ref_config_module)
    assert main(["design", "--config", str(path), "--delta0-khz", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sideband detuning within 100 Hz of modes")
    assert "Traceback" not in err


@pytest.mark.parametrize("error", DOMAIN_ERRORS + (CutoffError,), ids=lambda e: e.__name__)
def test_cli_domain_errors_exit_1(tmp_path, capsys, monkeypatch, ref_config_module, error):
    import msgate.cli

    def fail(*args, **kwargs):
        raise error("no gate here")

    monkeypatch.setattr(msgate.cli, "design_gate", fail)
    path = write_config(tmp_path, ref_config_module)
    assert msgate.cli.main(["design", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: no gate here\n"


@pytest.mark.parametrize("command", ["design", "sweep-detuning", "parity", "oracle"])
def test_cli_workers_only_on_pooled_sweeps(capsys, command):
    from msgate.cli import build_parser, main

    with pytest.raises(SystemExit) as exc:
        main([command, "--config", "unused.json", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    for pooled in ("contour", "chain-study"):
        assert build_parser().parse_args([pooled, "--config", "c.json", "--workers", "2"]).workers == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["chain-study", "--n", "2-3-4"],
        ["chain-study", "--n", "5-3"],
        ["chain-study", "--n", "2,x"],
        ["chain-study", "--dx0-um", "abc"],
        ["contour", "--workers", "0"],
        ["oracle", "--modes", "7"],
        ["oracle", "--modes", "0,1,2,3"],
        ["oracle", "--modes", "0,0"],
        ["oracle", "--modes", "-1"],
        ["oracle", "--nmax", "3"],
        ["oracle", "--steps", "10"],
    ],
    ids=" ".join,
)
def test_cli_malformed_arguments_exit_2(tmp_path, capsys, monkeypatch, ref_config_module, argv):
    _assert_exit_2_before_design_work(tmp_path, capsys, monkeypatch, ref_config_module, argv)


def _assert_exit_2_before_design_work(tmp_path, capsys, monkeypatch, config, argv):
    import msgate.cli

    def no_design_work(*args, **kwargs):
        raise AssertionError("design work started on malformed arguments")

    for name in ("design_gate", "chain_study", "run_oracle", "contour", "sweep_detuning", "parity_study"):
        monkeypatch.setattr(msgate.cli, name, no_design_work)
    path = write_config(tmp_path, config)
    try:
        code = msgate.cli.main([argv[0], "--config", str(path), *argv[1:]])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert sum("error: " in line for line in err.splitlines()) == 1
    return err


@pytest.mark.parametrize(
    "argv",
    [
        ["contour", "--z-steps", "-1"],
        ["contour", "--z-steps", "0"],
        ["contour", "--domega-steps", "0"],
        ["sweep-detuning", "--steps", "-1"],
        ["parity", "--phi-steps", "4"],
        ["chain-study", "--domega-step-hz", "0"],
        ["chain-study", "--domega-step-hz", "-100"],
        # grids without points at -10 and +10 kHz, where the summary's eps_s columns are taken
        ["chain-study", "--domega-khz", "5"],
        ["chain-study", "--domega-step-hz", "300"],
    ],
    ids=" ".join,
)
def test_cli_grid_arguments_exit_2(tmp_path, capsys, monkeypatch, ref_config_module, argv):
    err = _assert_exit_2_before_design_work(tmp_path, capsys, monkeypatch, ref_config_module, argv)
    if "--domega-khz" in argv or argv[-1] == "300":
        assert "does not hold -10 and +10 kHz" in err


def test_chain_study_10khz_columns_are_the_curve_at_10khz(ref_config_module):
    summary, curves = chain_study(ref_config_module, dx0_list_m=[3.5e-6], n_list=[2],
                                  domega_half_range_hz=12e3, domega_step_hz=2000.0)
    row = dict(zip(summary.columns, summary.rows[0]))
    curve = {r[curves.columns.index("domega_khz")]: r[curves.columns.index("eps_s")] for r in curves.rows}
    assert (row["eps_s_minus10k"], row["eps_s_plus10k"]) == (curve[-10.0], curve[10.0])


@pytest.mark.parametrize("half_range_hz, step_hz", [(5e3, 100.0), (10e3, 300.0), (10e3, 0.0), (10e3, -100.0)])
def test_chain_study_needs_a_grid_through_10khz(ref_config_module, half_range_hz, step_hz):
    with pytest.raises(ValueError):
        chain_study(ref_config_module, dx0_list_m=[3.5e-6], n_list=[2],
                    domega_half_range_hz=half_range_hz, domega_step_hz=step_hz)


def test_cli_argument_lists_parse():
    from msgate.cli import build_parser

    args = build_parser().parse_args(["chain-study", "--config", "c.json", "--n", "2-4, 7", "--dx0-um", "3,4.5"])
    assert args.n == [2, 3, 4, 7]
    assert args.dx0_um == [3.0, 4.5]
    defaults = build_parser().parse_args(["chain-study", "--config", "c.json"])
    assert defaults.n == list(range(2, 34)) and defaults.dx0_um == [3.0]
    assert build_parser().parse_args(["oracle", "--config", "c.json"]).modes == (0, 1)


def test_cli_oracle_fixed_steps_or_step_doubling(tmp_path, capsys, monkeypatch, ref_config_module):
    import msgate.oracle
    from msgate.cli import main

    calls, evolve = [], msgate.oracle._evolve
    monkeypatch.setattr(msgate.oracle, "_evolve", lambda *args: calls.append(args[3].n_steps) or evolve(*args))
    path = write_config(tmp_path, ref_config_module)
    # an explicit --steps integrates once, with exactly that many steps
    assert main(["oracle", "--config", str(path), "--nmax", "6", "--steps", "1500"]) == 0
    assert calls == [1500]
    assert not any(line.startswith("steps") for line in capsys.readouterr().out.splitlines())
    # without it the count doubles from 1,000 until the estimate meets 1e-10
    calls.clear()
    assert main(["oracle", "--config", str(path), "--nmax", "6"]) == 0
    assert calls == [1000, 2000, 4000, 8000, 16000]
    line = capsys.readouterr().out.splitlines()[1]
    assert line.startswith("steps = 16000 (step-doubling estimate ")
    assert float(line.split("estimate ")[1].split()[0]) <= msgate.oracle.STEP_TOL


def test_cli_parity_to_file(tmp_path, ref_config_module):
    from msgate.cli import main

    cfg_path = write_config(tmp_path, ref_config_module)
    out = tmp_path / "parity.csv"
    assert main(["parity", "--config", str(cfg_path), "--phi-steps", "16", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert sum(1 for line in lines if not line.startswith("#")) == 1 + 16


def test_cli_entrypoint_subprocess(tmp_path, ref_config_module):
    import msgate

    cfg_path = write_config(tmp_path, ref_config_module)
    # the child finds the same msgate as this process, installed or not
    package_root = str(Path(msgate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "msgate.cli", "design", "--config", str(cfg_path)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["theta"] == pytest.approx(np.pi / 2)
