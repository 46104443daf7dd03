import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import parareal
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

    def test_svg_output(self, tmp_path):
        svg = tmp_path / "sig.svg"
        assert main(["signal", "dump", "--signal", "sine", "--samples", "50",
                     "--out", str(tmp_path / "s.csv"), "--svg", str(svg)]) == 0
        content = svg.read_text()
        assert content.startswith("<svg") and content.rstrip().endswith("</svg>")


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


class TestStudy:
    def test_preset_with_overridden_n_list(self, tmp_path):
        out = tmp_path / "study.csv"
        code = main([
            "study", "run", "--preset", "fig4-left", "--n-list", "5,10,20",
            "--threads", "1", "--out", str(out),
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
        assert main(["study", "run", "--preset", "fig5", "--n-list", "10,20",
                     "--threads", "1", "--out", str(out)]) == 0
        manifest = read_lines(out)[0]
        series = json.loads(manifest.split(" ", 3)[3])["series"]
        assert [(s["variant"], s["coarse"], s["k"], s["reduced_input"]) for s in series] == [
            ("reduced", "cn", 1, "step"), ("reduced", "cn", 1, "sine"),
        ]
        assert "original" not in manifest

    def test_manifest_records_only_the_keys_a_study_reads(self, tmp_path):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("fine=cn:substeps=3\n")
        out = tmp_path / "fig5.csv"
        assert main(["--config", str(cfg), "study", "run", "--preset", "fig5", "--n-list", "10,20",
                     "--threads", "1", "--out", str(out)]) == 0
        manifest = json.loads(read_lines(out)[0].split(" ", 3)[3])
        assert not {"fine", "N", "kmax", "atol", "rtol", "jump_threshold", "seed", "which"} & set(manifest)
        assert manifest["preset"] == "fig5" and manifest["metric"] == "max"

    def test_coarse_parameters_are_not_dropped(self, capsys):
        # a study's coarse propagator is a bare scheme name; parameters are refused, not ignored
        assert main(["study", "run", "--coarse", "be:substeps=4", "--n-list", "5,10", "--threads", "1"]) == 1
        assert "unknown coarse scheme 'be:substeps=4'" in capsys.readouterr().err

    def test_unknown_preset(self):
        assert main(["study", "run", "--preset", "fig99"]) == 1


class TestBoundEval:
    def test_lemma_degenerate_example(self, capsys):
        assert main(["bound", "eval", "--which", "lemma", "--C4", "1",
                     "--Cp", "2", "--p", "1", "--dT", "0.001"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == 2.0

    def test_reduced_linf_value(self, capsys):
        assert main(["bound", "eval", "--which", "reduced-linf", "--C1", "1", "--C2", "0",
                     "--C3", "1", "--C4", "1", "--Cp", "1", "--l", "1", "--dT", "0.01",
                     "--n", "2", "--k", "1"]) == 0
        got = float(capsys.readouterr().out.strip())
        want = (1e-6 + 1e-8) / math.factorial(2) * 2
        assert got == pytest.approx(want, rel=1e-12)


class TestModuleEntry:
    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(parareal.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, "-m", "parareal.cli", "bound", "eval", "--which", "lemma",
             "--Cp", "2", "--p", "1", "--dT", "0.001"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "2"


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


class TestConfigFile:
    def test_file_sets_defaults_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("N=6\nthreads=1\n")
        out = tmp_path / "o.csv"
        code = main([
            "--config", str(cfg), "run",
            "--model", "rl:R=0.01,L=0.001,input=pwm:m=10",
            "--fine", "exact", "--coarse", "exact", "--variant", "original",
            "--kmax", "3", "--out", str(out),
        ])
        assert code == 0
        data = [ln for ln in read_lines(out) if not ln.startswith("#")][1:]
        # N came from the config file: sync points 0..6 per recorded iterate
        ns = {int(ln.split(",")[1]) for ln in data}
        assert max(ns) == 6

    def test_unknown_key_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("Nn=6\nthreads=1\n")
        out = tmp_path / "o.csv"
        code = main(["--config", str(cfg), "run", "--k", "1", "--out", str(out)])
        assert code == 1
        assert "unknown config key 'Nn'" in capsys.readouterr().err
        assert not out.exists()
