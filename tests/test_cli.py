import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import parareal
from parareal import ThetaPropagator, cli
from parareal.cli import main


def read_lines(path):
    return path.read_text().splitlines()


def body_without_timestamp(lines):
    return [ln for ln in lines if not ln.startswith("# timestamp")]


class TestSignalDump:
    def test_csv_structure_and_reproducibility(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["signal", "dump", "--signal", "pwm:m=10", "--samples", "101", "--out"]
        assert main(argv + [str(out1)]) == 0
        assert main(argv + [str(out2)]) == 0
        l1, l2 = read_lines(out1), read_lines(out2)
        assert l1[0].startswith("# manifest ")
        assert l1[1].startswith("# timestamp ")
        assert l1[2] == "t,value"
        assert len(l1) == 3 + 101
        assert body_without_timestamp(l1) == body_without_timestamp(l2)

    def test_the_svg_flag_is_gone(self, tmp_path, capsys):
        # a log-log plot of a waveform valued -1, 0 and 1 shows nothing; the CSV is the output
        svg, out = tmp_path / "sig.svg", tmp_path / "s.csv"
        assert main(["signal", "dump", "--signal", "sine", "--samples", "50", "--out", str(out), "--svg", str(svg)]) == 1
        assert "unrecognized arguments: --svg" in capsys.readouterr().err
        assert not svg.exists() and not out.exists()


class TestModelReference:
    def test_grid_plus_switching_instants(self, tmp_path):
        import numpy as np

        from parareal import parse_model

        out = tmp_path / "ref.csv"
        assert main(["model", "reference", "--model", "rl:R=0.01,L=0.001,input=pwm:m=10",
                     "--grid", "100", "--out", str(out)]) == 0
        lines = read_lines(out)
        assert lines[2] == "t,phi"
        model = parse_model("rl:R=0.01,L=0.001,input=pwm:m=10")
        switches = model.signal.switching_times(0.0, model.t_end)
        expected = np.union1d(np.linspace(0.0, model.t_end, 101), switches)
        assert len(lines) == 3 + len(expected)
        ts = [float(ln.split(",")[0]) for ln in lines[3:]]
        assert ts == sorted(ts)
        # every switching instant appears as a sample row
        for s in switches:
            assert any(t == s for t in ts)


class TestRun:
    def test_identical_propagators_summary(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main([
            "run", "--model", "rl:R=0.01,L=0.001,input=pwm:m=10",
            "--fine", "exact", "--coarse", "exact", "--variant", "original",
            "--N", "8", "--kmax", "5", "--out", str(out),
        ])
        assert code == 0
        lines = read_lines(out)
        summary = [ln for ln in lines if ln.startswith("# summary")][0]
        assert "iterations_used=1" in summary
        assert "converged=true" in summary

    def test_thread_count_invariance(self, tmp_path):
        base = [
            "run", "--model", "rl:R=0.01,L=0.001,input=pwm:m=400",
            "--fine", "exact", "--coarse", "be", "--variant", "reduced",
            "--reduced-input", "sine", "--N", "12", "--k", "2",
        ]
        out1, out4 = tmp_path / "t1.csv", tmp_path / "t4.csv"
        assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert main(base + ["--threads", "4", "--out", str(out4)]) == 0
        b1 = [ln for ln in body_without_timestamp(read_lines(out1)) if not ln.startswith("#")]
        b4 = [ln for ln in body_without_timestamp(read_lines(out4)) if not ln.startswith("#")]
        assert b1 == b4

    def test_manifest_records_only_the_keys_a_run_reads(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["run", "--model", "rl:R=0.01,L=0.001,input=pwm:m=10", "--N", "4", "--k", "1",
                     "--threads", "1", "--out", str(out)]) == 0
        manifest = json.loads(read_lines(out)[0].split(" ", 3)[3])
        assert not {"grid", "samples", "period", "preset", "n_list", "which", "metric", "seed"} & set(manifest)
        assert manifest["N"] == "4" and manifest["fine"] == "exact"

    def test_help_lists_only_the_run_flags(self, capsys):
        assert main(["run", "--help"]) == 0
        flags = {word.strip("[],") for word in capsys.readouterr().out.split() if word.startswith(("--", "[--"))}
        assert flags == {"--help", "--model", "--fine", "--coarse", "--variant", "--reduced-input", "--N", "--k",
                         "--kmax", "--atol", "--rtol", "--threads", "--out", "--svg"}

    @pytest.mark.parametrize("flags, unread", [
        ([], set()),
        (["--k", "2"], {"kmax"}),
        (["--variant", "original"], {"reduced_input"}),
        (["--variant", "original", "--k", "2"], {"kmax", "reduced_input"}),
    ])
    def test_manifest_drops_the_settings_the_run_does_not_read(self, flags, unread, tmp_path):
        # the original variant reads no reduced input, and --k no iteration cap
        out = tmp_path / "run.csv"
        argv = ["run", "--variant", "reduced", "--N", "4", "--threads", "1", *flags, "--out", str(out)]
        assert main(argv) == 0
        manifest = json.loads(read_lines(out)[0].split(" ", 3)[3])
        keys = {"command", "version", "model", "fine", "coarse", "variant", "reduced_input", "N", "k", "kmax",
                "atol", "rtol", "threads"}
        assert set(manifest) == keys - unread

    def test_row_schema(self, tmp_path):
        out = tmp_path / "run.csv"
        main([
            "run", "--model", "rl:R=0.01,L=0.001,input=pwm:m=10",
            "--fine", "exact", "--coarse", "be", "--variant", "reduced",
            "--reduced-input", "step", "--N", "4", "--k", "1", "--out", str(out),
        ])
        lines = read_lines(out)
        assert lines[2] == "k,n,T_n,U,fine_arrival,jump,err_vs_ref"
        # k=0 guess rows plus k=1 rows, 5 sync points each
        data = [ln for ln in lines[3:] if not ln.startswith("#")]
        assert len(data) == 2 * 5
        last = data[-1].split(",")
        assert last[0] == "1" and last[1] == "4"
        assert float(last[5]) >= 0.0  # jump column populated for k >= 1

    def test_exact_fine_on_two_phases_of_one_sinusoid(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["run", "--fine", "exact", "--model", "rl:input=diff:sine-sine3:phase=2",
                     "--N", "20", "--k", "2", "--threads", "1", "--out", str(out)]) == 0
        lines = read_lines(out)
        assert lines[2].split(",")[-1] == "err_vs_ref"
        errs = [float(ln.split(",")[-1]) for ln in lines[3:] if not ln.startswith("#")]
        assert len(errs) == 3 * 21 and all(math.isfinite(e) for e in errs)


class TestStudy:
    def test_preset_with_overridden_n_list(self, tmp_path):
        out = tmp_path / "study.csv"
        code = main([
            "study", "run", "--preset", "fig4-left", "--n-list", "5,10,20", "--out", str(out),
        ])
        assert code == 0
        lines = read_lines(out)
        assert lines[2] == "N,dT,err_max,err_final,order_fit_running,series,k,err_first_active"
        data = [ln for ln in lines[3:] if not ln.startswith("#")]
        assert len(data) == 2 * 3  # two series, three N points
        orders = [ln for ln in lines if ln.startswith("# order")]
        assert len(orders) == 2

    def test_manifest_records_each_series_spec(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert main(["study", "run", "--preset", "fig5", "--n-list", "10,20", "--out", str(out)]) == 0
        manifest = read_lines(out)[0]
        series = json.loads(manifest.split(" ", 3)[3])["series"]
        assert [(s["variant"], s["coarse"], s["k"], s["reduced_input"]) for s in series] == [
            ("reduced", "cn", 1, "step"), ("reduced", "cn", 1, "sine"),
        ]
        assert "original" not in manifest

    def test_manifest_records_only_the_keys_a_study_reads(self, tmp_path):
        # the series hold what a preset sets; ``run`` settings such as ``fine`` or ``N`` never appear
        out = tmp_path / "fig5.csv"
        assert main(["study", "run", "--preset", "fig5", "--n-list", "10,20", "--out", str(out)]) == 0
        manifest = json.loads(read_lines(out)[0].split(" ", 3)[3])
        assert set(manifest) == {"command", "version", "metric", "model", "preset", "series"}
        assert manifest["preset"] == "fig5" and manifest["metric"] == "max"

    def test_coarse_parameters_are_not_dropped(self, tmp_path):
        # a study's coarse propagator is a full propagator spec: its parameters
        # reach the runs and the manifest
        rows = {}
        for coarse in ("be", "be:substeps=4"):
            out = tmp_path / "study.csv"
            assert main(["study", "run", "--coarse", coarse, "--n-list", "5,10", "--out", str(out)]) == 0
            lines = read_lines(out)
            assert json.loads(lines[0].split(" ", 3)[3])["series"][0]["coarse"] == coarse
            rows[coarse] = [ln for ln in lines[3:] if not ln.startswith("#")]
        assert len(rows["be:substeps=4"]) == 2 and rows["be:substeps=4"] != rows["be"]

    def test_grid_that_rounds_past_t_end_writes_finite_rows(self, tmp_path):
        # N*T/N exceeds T for N = 57 and 114; those points used to fail on their last interval
        out = tmp_path / "study.csv"
        assert main(["study", "run", "--variant", "reduced", "--reduced-input", "sine", "--coarse", "exact",
                     "--k", "2", "--n-list", "5,57,114", "--out", str(out)]) == 0
        data = [ln.split(",") for ln in read_lines(out)[3:] if not ln.startswith("#")]
        assert [row[0] for row in data] == ["5", "57", "114"]
        assert all(math.isfinite(float(v)) for row in data for v in (row[2], row[3], row[7]))

    def test_unknown_preset(self):
        assert main(["study", "run", "--preset", "fig99"]) == 1

    def test_no_pool_and_the_bits_of_a_serial_study(self, tmp_path, monkeypatch):
        # a study runs its points in the calling thread: it opens no pool, and
        # its rows are those of the library's serial ``run_study``
        from parareal.analysis import StudySpec, run_study

        class NoPool(cli.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pytest.fail("a study opened a pool")

        monkeypatch.setattr(cli, "ThreadPoolExecutor", NoPool)
        out = tmp_path / "study.csv"
        assert main(["study", "run", "--preset", "fig4-right", "--n-list", "5,10,20", "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in read_lines(out)[3:] if not ln.startswith("#")]
        model = cli.parse_model(cli.HARD_DEFAULTS["model"])
        want = []
        for e in cli.PRESETS["fig4-right"]:
            spec = StudySpec(model=model, variant=e["variant"], coarse_scheme=e["scheme"], k=e["k"],
                             reduced_input=cli.parse_signal(e["reduced"], period=model.t_end), n_list=(5, 10, 20))
            want += [[str(p.n), cli._fmt(p.err_max), cli._fmt(p.err_final), e["label"], cli._fmt(p.err_first_active)]
                     for p in run_study(spec).results]
        assert [[r[0], r[2], r[3], r[5], r[7]] for r in rows] == want


def bound_rows(path):
    """The ``# constants`` line of a ``bound eval`` CSV as a dict, and its rows as ``(n, T_n, bound, err, ratio)``."""
    lines = read_lines(path)
    constants = next(ln for ln in lines if ln.startswith("# constants "))
    header = lines.index("n,T_n,bound,err,ratio")
    rows = [(int(n), *map(float, rest)) for n, *rest in (ln.split(",") for ln in lines[header + 1:])]
    return dict(kv.split("=") for kv in constants.split()[2:]), rows


class TestBoundEval:
    def test_default_run_reads_the_bound_at_every_sync_point_after_k(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["bound", "eval", "--out", str(out)]) == 0
        constants, rows = bound_rows(out)
        assert set(constants) == {"c1", "c2", "c3", "c4", "c_p", "l", "dt"}
        assert float(constants["c1"]) == pytest.approx(49.18, abs=0.01)
        assert float(constants["c3"]) == pytest.approx(9.776, abs=0.001)
        assert (constants["c2"], constants["c4"], constants["c_p"], constants["l"]) == ("0", "0.01", "0", "1")
        assert float(constants["dt"]) == 0.02 / 20
        assert [r[0] for r in rows] == list(range(2, 21))
        assert all(r[4] == r[3] / r[2] <= 1.0 for r in rows)
        worst = max(rows, key=lambda r: r[4])
        assert (worst[0], round(worst[4], 2)) == (10, 0.51)

    def test_reduced_step_is_tight_at_the_first_active_point(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["bound", "eval", "--variant", "reduced", "--reduced-input", "step", "--N", "320",
                     "--out", str(out)]) == 0
        constants, rows = bound_rows(out)
        assert float(constants["c_p"]) == 1.0 and float(constants["c3"]) == pytest.approx(0.053, abs=1e-3)
        assert rows[0][0] == 2 and rows[0][4] == pytest.approx(0.986, abs=1e-3)

    def test_the_rows_are_the_run_and_eval_bound(self, tmp_path):
        from dataclasses import replace

        from parareal import FixedIterations, eval_bound, iterate, make_config, parse_model, parse_signal
        from parareal.analysis import _bound_constants

        out = tmp_path / "b.csv"
        argv = ["--model", "rl:R=0.02,input=pwm:m=40", "--coarse", "cn", "--variant", "reduced",
                "--reduced-input", "sine", "--N", "12", "--k", "2"]
        assert main(["bound", "eval", *argv, "--out", str(out)]) == 0
        model = parse_model("rl:R=0.02,input=pwm:m=40")
        cfg = make_config(model, 12, coarse="cn", reduced_input=parse_signal("sine", period=model.t_end),
                          termination=FixedIterations(2))
        params = _bound_constants(model, cfg)
        errors = iterate(cfg).errors_vs_reference[2]
        constants, rows = bound_rows(out)
        assert constants == {name: cli._fmt(getattr(params, name)) for name in constants}
        assert [(n, bound, err) for n, _, bound, err, _ in rows] == [
            (n, eval_bound(replace(params, n=n), "reduced-lp"), errors[n]) for n in range(3, 13)]

    def test_a_zero_bound_reads_no_ratio(self, tmp_path):
        # a zero input from a zero state: every constant but c1 and c4 is 0, and so are the bound and the error
        out = tmp_path / "b.csv"
        assert main(["bound", "eval", "--model", "rl:input=zero", "--N", "4", "--out", str(out)]) == 0
        constants, rows = bound_rows(out)
        assert (constants["c3"], constants["c_p"]) == ("0", "0")
        assert [r[2:4] for r in rows] == [(0.0, 0.0)] * 3 and all(math.isnan(r[4]) for r in rows)

    def test_manifest_records_the_resolved_run(self, tmp_path):
        # the original variant reads no reduced input, so its manifest has none
        manifests = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["bound", "eval", "--N", "8", "--out", str(out)]) == 0
            manifests.append(read_lines(out)[0])
        assert manifests[0] == manifests[1]
        manifest = json.loads(manifests[0].split(" ", 3)[3])
        assert manifest == {"command": "bound eval", "version": parareal.__version__, "N": "8", "k": "1",
                            "coarse": "be", "variant": "original", "model": cli.HARD_DEFAULTS["model"]}
        out = tmp_path / "reduced.csv"
        assert main(["bound", "eval", "--N", "8", "--variant", "reduced", "--out", str(out)]) == 0
        manifest = json.loads(read_lines(out)[0].split(" ", 3)[3])
        assert (manifest["variant"], manifest["reduced_input"]) == ("reduced", "sine")

    def test_flags_set_the_run(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["bound", "eval", "--N", "5", "--k", "2", "--coarse", "cn", "--out", str(out)]) == 0
        manifest = json.loads(read_lines(out)[0].split(" ", 3)[3])
        assert (manifest["N"], manifest["k"], manifest["coarse"], "threads" in manifest) == ("5", "2", "cn", False)
        assert [r[0] for r in bound_rows(out)[1]] == [3, 4, 5]

    def test_help_lists_only_the_run_flags(self, capsys):
        assert main(["bound", "eval", "--help"]) == 0
        flags = {word.strip("[],") for word in capsys.readouterr().out.split() if word.startswith(("--", "[--"))}
        assert flags == {"--help", "--model", "--coarse", "--variant", "--reduced-input", "--N", "--k", "--out"}

    @pytest.mark.parametrize("argv, message", [
        (["--coarse", "exact"], "the bound needs a be or cn coarse propagator, of order l = 1 or 2; "
                                "an exact one has none"),
        (["--k", "0"], "--k must be >= 1, got 0"),
        (["--variant", "smooth"], "unknown variant 'smooth'"),
        # finite termination: after k sweeps the first k sync points are exact
        *[(["--N", str(n), "--k", str(k)], f"bound eval needs N > k, got N={n}, k={k}: with N <= k every sync "
           "point is exact after k iterations, so no error is left to bound") for n, k in ((1, 1), (2, 2), (3, 5))],
    ])
    def test_usage_errors(self, argv, message, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert main(["bound", "eval", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--which", "--C1", "--Cp", "--l", "--p", "--dT", "--n"])
    def test_constant_flags_are_gone(self, flag, capsys):
        assert main(["bound", "eval", flag, "1"]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def python(*args, timeout=120):
    """A fresh interpreter on ``args`` that imports ``parareal`` from this source tree."""
    src = str(Path(parareal.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout)


class TestModuleEntry:
    def test_python_dash_m_runs_the_cli(self):
        proc = python("-m", "parareal.cli", "bound", "eval", "--N", "4", timeout=60)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[3] == "n,T_n,bound,err,ratio"
        assert [ln.split(",")[0] for ln in lines[4:]] == ["2", "3", "4"]


LEAN_RUN = """
import sys
from parareal.cli import main
assert main(["run", "--N", "8", "--k", "1", "--threads", "1", "--out", sys.argv[1]]) == 0
loaded = sorted(m for m in ("parareal.analysis", "parareal.svgplot") if m in sys.modules)
assert not loaded, loaded
import parareal
assert len(parareal.__all__) == 41
missing = [name for name in parareal.__all__ if getattr(parareal, name, None) is None]
assert not missing, missing
assert set(parareal.__all__) <= set(dir(parareal))
star = {}
exec("from parareal import *", star)
assert set(star) - {"__builtins__"} == set(parareal.__all__), sorted(star)
"""


# no CLI input reaches a non-finite state (an overflowing decay rate fails at
# construction), so a process that exits 2 gets a coarse step that raises one
NON_FINITE_COARSE = """
from parareal.propagators import NonFiniteStateError, ThetaPropagator
def propagate(self, t0, t1, u):
    raise NonFiniteStateError(f"non-finite state after step ending at t={t1}")
ThetaPropagator.propagate = propagate
"""


class TestProcessCost:
    """A CLI process loads only what its subcommand runs and exits without a final collection."""

    def test_run_loads_no_analysis_or_svgplot(self, tmp_path):
        proc = python("-c", LEAN_RUN, str(tmp_path / "run.csv"))
        assert proc.returncode == 0, proc.stderr

    def test_main_never_freezes(self, tmp_path):
        import gc

        before = gc.get_freeze_count()
        assert main(["run", "--N", "8", "--k", "1", "--threads", "1", "--out", str(tmp_path / "o.csv")]) == 0
        assert main(["run", "--frobnicate"]) == 1
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("code, prelude, argv", [
        (0, "", ["run", "--N", "8", "--k", "1", "--threads", "1", "--out", "{out}"]),
        (1, "", ["run", "--k", "1", "--threads", "-1", "--out", "{out}"]),
        (1, "", ["run", "--model", "rl:R=1e300,L=1e-300,input=pwm:m=10", "--N", "4", "--k", "1", "--out", "{out}"]),
        (2, NON_FINITE_COARSE, ["run", "--N", "4", "--k", "1", "--out", "{out}"]),
    ], ids=["ok", "usage", "overflowing-decay", "non-finite"])
    def test_entry_process_matches_main(self, code, prelude, argv, tmp_path, capsys, monkeypatch):
        def written(out):
            return body_without_timestamp(read_lines(out)) if out.exists() else None

        # the prelude rebinds ThetaPropagator.propagate; monkeypatch restores it after the test
        monkeypatch.setattr(ThetaPropagator, "propagate", ThetaPropagator.propagate)
        exec(prelude, {})
        out = tmp_path / "main.csv"
        assert main([a.format(out=out) for a in argv]) == code
        captured = capsys.readouterr()
        in_process = (captured.out, captured.err, written(out))
        out = tmp_path / "entry.csv"
        proc = python("-c", prelude + "from parareal.cli import entry; entry()", *[a.format(out=out) for a in argv])
        assert proc.returncode == code
        assert (proc.stdout, proc.stderr, written(out)) == in_process
        assert (in_process[2] is not None) == (code == 0)

    def test_entry_freezes_and_atexit_handlers_still_run(self):
        script = ("import atexit, gc, sys\n"
                  "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
                  "from parareal.cli import entry\n"
                  "entry()\n")
        proc = python("-c", script, "bound", "eval", "--N", "4")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "frozen True\n"


class TestUsageErrors:
    def test_unknown_flag(self):
        assert main(["run", "--frobnicate", "1"]) == 1
        # flags that changed no output are gone
        assert main(["run", "--seed", "1"]) == 1
        assert main(["run", "--metric", "final"]) == 1
        assert main(["study", "run", "--seed", "1"]) == 1

    def test_unknown_subcommand(self):
        assert main(["transmogrify"]) == 1

    def test_bad_signal(self, capsys):
        assert main(["signal", "dump", "--signal", "nope"]) == 1
        assert main(["signal", "dump", "--signal", "pwm"]) == 1
        assert "missing required key 'm'" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_negative_threads(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["run", "--k", "1", "--threads", "-1", "--out", str(out)]) == 1
        assert "--threads must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_study_takes_no_threads_flag(self, threads, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["study", "run", "--n-list", "4,8", "--threads", threads, "--out", str(out)]) == 1
        assert "unrecognized arguments: --threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--k", "0"], "need k >= 1 and every N >= 1, got k=0,"),
        (["--k", "-2"], "need k >= 1 and every N >= 1, got k=-2,"),
        (["--metric", "bogus"], "unknown error metric 'bogus'"),
        (["--n-list", "0,5,10"], "need k >= 1 and every N >= 1, got k=1, n_list=(0, 5, 10)"),
        (["--n-list", "5,,10"], "--n-list entries must be integers, got ''\n"),
        (["--n-list", "5.5"], "--n-list entries must be integers, got '5.5'\n"),
    ])
    def test_bad_study_settings_fail_before_any_run(self, flags, message, tmp_path, capsys, monkeypatch):
        # the study subcommand looks run_study up in analysis when it runs
        monkeypatch.setattr("parareal.analysis.run_study", lambda *args, **kwargs: pytest.fail("a study ran"))
        out = tmp_path / "o.csv"
        assert main(["study", "run", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_non_integer_substeps(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["run", "--fine", "cn:substeps=x", "--k", "1", "--out", str(out)]) == 1
        assert "substeps must be an integer, got 'x'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--atol", "0"],
        ["--atol", "inf", "--kmax", "3"],
        ["--rtol", "nan"],
        ["--rtol", "inf"],
        ["--k", "2", "--atol", "0"],
        ["--k", "2", "--rtol", "-1"],
        ["--k", "2", "--rtol", "inf"],
    ])
    def test_bad_tolerances(self, flags, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["run", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: need finite atol > 0 and finite rtol >= 0, got ")
        assert not out.exists()

    def test_the_jump_threshold_flag_is_gone(self, tmp_path, capsys):
        # the tolerances alone set the jump scale
        out = tmp_path / "o.csv"
        assert main(["run", "--jump-threshold", "1.0", "--out", str(out)]) == 1
        assert "unrecognized arguments: --jump-threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_a_fixed_iteration_count_ignores(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["run", "--k", "2", "--N", "10", "--kmax", "3", "--threads", "1", "--out", str(out)]) == 1
        assert "--kmax has no effect with --k" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["run", "--k", "1", "--threads", "1", "--N", "4"],
                                      ["run", "--variant", "original", "--kmax", "3", "--threads", "1", "--N", "4"],
                                      ["bound", "eval", "--N", "4"],
                                      ["study", "run", "--n-list", "5,10,20"]],
                             ids=["run", "run-kmax", "bound-eval", "study-run"])
    def test_flags_the_original_variant_ignores(self, argv, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main([*argv, "--reduced-input", "step", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --reduced-input has no effect with --variant original\n"
        assert not out.exists()
        assert main([*argv, "--reduced-input", "step", "--variant", "reduced", "--out", str(out)]) == 0

    @pytest.mark.parametrize("argv, message", [
        # before the subcommand, argparse reads the file name as the subcommand
        (["--config", "x", "run"], "invalid choice: 'x'"),
        (["run", "--config", "x"], "unrecognized arguments: --config x"),
    ])
    def test_the_config_flag_is_gone(self, argv, message, capsys):
        # every setting is a flag of its subcommand
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["model", "reference", "--grid", "0"], "--grid must be >= 1, got 0"),
        (["model", "reference", "--grid", "-1"], "--grid must be >= 1, got -1"),
        (["signal", "dump", "--signal", "sine", "--samples", "0"], "--samples must be >= 1, got 0"),
        (["signal", "dump", "--signal", "sine", "--samples", "-1"], "--samples must be >= 1, got -1"),
        (["run", "--N", "0"], "--N must be >= 1, got 0"),
        (["run", "--N", "-1", "--k", "1"], "--N must be >= 1, got -1"),
        (["run", "--kmax", "0"], "--kmax must be >= 1, got 0"),
        (["run", "--k", "0"], "--k must be >= 1, got 0"),
        (["run", "--k", "-2", "--threads", "1"], "--k must be >= 1, got -2"),
        (["bound", "eval", "--N", "0"], "--N must be >= 1, got 0"),
    ])
    def test_degenerate_grid_sizes(self, argv, message, tmp_path, capsys, monkeypatch):
        # the counts are checked before any run starts
        monkeypatch.setattr("parareal.cli.iterate", lambda *args, **kwargs: pytest.fail("a run started"))
        out = tmp_path / "o.csv"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--k", "3"], ["--coarse", "be"], ["--variant", "original"],
                                       ["--reduced-input", "step"]])
    def test_flags_a_preset_ignores(self, flags, tmp_path, capsys):
        out = tmp_path / "o.csv"
        argv = ["study", "run", "--preset", "fig5", *flags, "--n-list", "10,20", "--out", str(out)]
        assert main(argv) == 1
        assert f"{flags[0]} has no effect with --preset" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model, message", [
        ("rl:T=0,input=sine", "period must be positive and finite, got 0.0"),
        ("rl:T=-0.02,input=step", "period must be positive and finite, got -0.02"),
        ("rl:T=nan,input=pwm3:m=9", "period must be positive and finite, got nan"),
        ("rl:T=inf,input=sine", "period must be positive and finite, got inf"),
        ("rl:T=inf,input=const", "period must be positive and finite, got inf"),
        ("rl:R=1,L=inf,input=pwm:m=4", "R_res and L_ind must be positive and finite"),
        ("rl:R=1e-300,L=1e300,input=sine", "decay rate R/L = 1e-300/1e+300 underflows to 0"),
        ("rl:R=1e300,L=1e-300,input=pwm:m=10", "decay rate R/L = 1e+300/1e-300 overflows to inf"),
    ])
    def test_degenerate_model_values(self, model, message, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["run", "--model", model, "--N", "4", "--k", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["study", "run", "--model", "rl:T=inf,input=const", "--n-list", "4,8"],
         "period must be positive and finite, got inf"),
        (["model", "reference", "--model", "rl:T=inf,input=const"], "period must be positive and finite, got inf"),
        (["signal", "dump", "--signal", "zero", "--period", "inf", "--samples", "3"],
         "period must be positive and finite, got inf"),
        (["signal", "dump", "--signal", "diff:zero-const", "--period", "inf"],
         "cannot parse difference signal 'diff:zero-const': period must be positive and finite, got inf"),
    ])
    def test_unbounded_domains(self, argv, message, tmp_path, capsys):
        # rejected before any sampling or run: no numpy warning, no rows
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_parser_is_reused(self, capsys):
        # one argparse tree per process; a failed parse leaves it usable
        assert main(["run", "--frobnicate", "1"]) == 1
        parser = cli._parser()
        assert main(["bound", "eval", "--N", "4"]) == 0
        assert cli._parser() is parser
        assert capsys.readouterr().out.splitlines()[3] == "n,T_n,bound,err,ratio"


class TestSvgOutputs:
    """``run --svg`` and ``study run --svg`` write a well-formed SVG with one series per iterate or preset series."""

    @staticmethod
    def series_labels(path):
        import xml.etree.ElementTree as ET

        text = path.read_text()
        assert text.startswith("<svg ") and text.endswith("</svg>")
        root = ET.fromstring(text)  # raises on a malformed document
        ns = "{http://www.w3.org/2000/svg}"
        assert root.tag == f"{ns}svg"
        polylines = root.findall(f"{ns}polyline")
        # each series draws one polyline and one legend label, the texts after the axis labels
        labels = [t.text for t in root.findall(f"{ns}text")][-len(polylines):]
        return labels

    def test_run(self, tmp_path):
        svg = tmp_path / "run.svg"
        argv = ["run", "--N", "8", "--k", "2", "--threads", "1", "--out", str(tmp_path / "run.csv"), "--svg", str(svg)]
        assert main(argv) == 0
        assert self.series_labels(svg) == ["k=0", "k=1", "k=2"]

    def test_series_with_no_plottable_point_or_one(self, tmp_path):
        # no point with x, y > 0 and finite y: one placeholder series on the
        # decade around 1; a single point: its decade on either axis, so no
        # coordinate divides by a zero log range
        from parareal.svgplot import log_log_svg

        svg = tmp_path / "plot.svg"
        svg.write_text(log_log_svg([("zeros", [1, 2, 3], [0.0, -1.0, math.nan]), ("none", [], [])]))
        assert self.series_labels(svg) == ["empty"]
        text = svg.read_text()
        assert "nan" not in text and "inf" not in text
        svg.write_text(log_log_svg([("one", [10], [1e-3]), ("zero", [20], [0.0])]))
        assert self.series_labels(svg) == ["one"]
        text = svg.read_text()
        assert "nan" not in text and "inf" not in text and text.count("<circle ") == 1

    def test_study_run(self, tmp_path):
        svg = tmp_path / "study.svg"
        argv = ["study", "run", "--preset", "fig3-left", "--n-list", "5,10,20", "--out", str(tmp_path / "s.csv"),
                "--svg", str(svg)]
        assert main(argv) == 0
        assert self.series_labels(svg) == [e["label"] for e in cli.PRESETS["fig3-left"]]


class TestInputChecks:
    def test_unknown_run_variant(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["run", "--variant", "bogus", "--k", "1", "--threads", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: unknown variant 'bogus'\n"
        assert not out.exists()
        with pytest.raises(cli.UsageError, match="^unknown variant 'bogus'$"):
            cli._build_run_config({**cli.HARD_DEFAULTS, "variant": "bogus"})


# each subcommand's settings flags: the HARD_DEFAULTS key, a flag value and the value it parses to
_SETTINGS = {
    ("signal", "dump", "--signal", "sine"): {"samples": ("7", 7), "period": ("0.5", 0.5)},
    ("model", "reference"): {"model": ("rl:R=1,L=1,input=sine", "rl:R=1,L=1,input=sine"), "grid": ("8", 8)},
    ("run",): {"model": ("rl:R=1,L=1,input=sine", "rl:R=1,L=1,input=sine"), "fine": ("cn", "cn"),
               "coarse": ("cn", "cn"), "variant": ("reduced", "reduced"), "reduced_input": ("step", "step"),
               "N": ("6", 6), "k": ("2", 2), "kmax": ("3", 3), "atol": ("1e-9", 1e-9), "rtol": ("1e-7", 1e-7),
               "threads": ("1", 1)},
    ("study", "run"): {"preset": ("fig5", "fig5"), "model": ("rl:R=1,L=1,input=sine", "rl:R=1,L=1,input=sine"),
                       "variant": ("reduced", "reduced"), "coarse": ("cn", "cn"), "reduced_input": ("step", "step"),
                       "k": ("2", 2), "n_list": ("5,10", "5,10"), "metric": ("l2", "l2")},
    ("bound", "eval"): {"model": ("rl:R=1,L=1,input=sine", "rl:R=1,L=1,input=sine"), "coarse": ("cn", "cn"),
                        "variant": ("reduced", "reduced"), "reduced_input": ("step", "step"), "N": ("6", 6),
                        "k": ("2", 2)},
}


class TestResolution:
    """One rule sets every setting: its flag where given, else its ``HARD_DEFAULTS`` entry."""

    @pytest.mark.parametrize("argv, key, flag_value, value", [
        pytest.param(list(argv), key, flag_value, value, id=f"{' '.join(argv[:2])}-{key}")
        for argv, flags in _SETTINGS.items() for key, (flag_value, value) in flags.items()
    ])
    def test_the_flag_where_given_else_the_hard_default(self, argv, key, flag_value, value):
        unset = cli._parser().parse_args(argv)
        # None is how _reject_ignored tells a flag that was not given
        assert getattr(unset, key) is None
        assert cli._resolve(unset)[key] == cli.HARD_DEFAULTS[key]
        given = cli._parser().parse_args([*argv, f"--{key.replace('_', '-')}", flag_value])
        assert cli._resolve(given)[key] == value

    @pytest.mark.parametrize("argv", [list(argv) for argv in _SETTINGS], ids=lambda argv: " ".join(argv[:2]))
    def test_a_subcommand_resolves_only_its_own_flags(self, argv):
        assert set(cli._resolve(cli._parser().parse_args(argv))) == set(_SETTINGS[tuple(argv)])


def subcommand(argv: list[str]) -> str:
    return " ".join(argv[:1] if argv[0] == "run" else argv[:2])


def readme_usage() -> list[list[str]]:
    """The arguments of each ``parareal ...`` command in README's command-line usage block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command-line interface", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("parareal ")]


class TestReadmeUsage:
    """Each command of README's usage block runs, in a fresh working directory, and exits 0."""

    def test_the_block_shows_every_subcommand(self):
        shown = {subcommand(argv) for argv in readme_usage()}
        assert shown == {"signal dump", "model reference", "run", "study run", "bound eval"}

    @pytest.mark.parametrize("argv", readme_usage(), ids=subcommand)
    def test_command_exits_zero(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0, capsys.readouterr().err

    def test_every_flag_named_is_a_parser_flag(self):
        # README's pip and pytest command lines name those tools' own flags
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        text = "\n".join(ln for ln in readme.splitlines() if not ln.startswith(("pip ", "python -m pytest ")))
        named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", text))
        assert named and named <= parser_flags(cli.build_parser())


def parser_flags(parser: argparse.ArgumentParser) -> set[str]:
    """Every ``--flag`` of ``parser`` and of its subcommands' parsers."""
    flags = set()
    for action in parser._actions:
        flags.update(flag for flag in action.option_strings if flag.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= parser_flags(sub)
    return flags
