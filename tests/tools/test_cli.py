"""CLI tests (python -m repro)."""

import io
from pathlib import Path

import pytest

from repro.tools.cli import build_parser, main

ROOT = Path(__file__).parents[2]
#: the two-function demo CI also runs every file-taking command on
DEMO = (ROOT / "examples" / "demo.fc").read_text()


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.fc"
    path.write_text(DEMO)
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestRun:
    def test_run_reports_result_and_migrations(self, demo_file):
        code, out = run_cli(["run", demo_file, "--args", "21"])
        assert code == 0
        assert "return value: 43" in out
        assert "migrations: 2" in out
        assert out.splitlines()[0] == "42"  # the print()

    def test_run_with_trace(self, demo_file):
        _code, out = run_cli(["run", demo_file, "--args", "1", "--trace"])
        assert "h2n_call_start" in out
        assert "nxp_dispatch_call" in out

    def test_run_with_stats(self, demo_file):
        _code, out = run_cli(["run", demo_file, "--args", "1", "--stats"])
        assert "dma.to_nxp" in out

    def test_run_optimized_same_answer(self, demo_file):
        _c1, out1 = run_cli(["run", demo_file, "--args", "21"])
        _c2, out2 = run_cli(["run", demo_file, "--args", "21", "--optimize"])
        assert "return value: 43" in out1 and "return value: 43" in out2


class TestCompile:
    def test_compile_lists_segments_and_symbols(self, demo_file):
        code, out = run_cli(["compile", demo_file])
        assert code == 0
        assert ".text.hisa" in out
        assert ".text.nisa" in out
        assert "near" in out
        assert "[nisa]" in out
        assert "main" in out


class TestDisasm:
    def test_disasm_shows_both_isas(self, demo_file):
        code, out = run_cli(["disasm", demo_file])
        assert code == 0
        assert ".text.hisa (hisa):" in out
        assert ".text.nisa (nisa):" in out
        assert "push rbp" in out  # HISA prologue
        assert "addi sp, sp" in out  # NISA prologue

    def test_disasm_shows_far_cross_isa_call(self, demo_file):
        _code, out = run_cli(["disasm", demo_file])
        # Host calls the NxP function through an absolute address.
        assert "li r10, 0x401000" in out
        assert "call r10" in out


class TestDisasmHostOnly:
    def test_host_only_program_skips_missing_nisa_section(self, tmp_path):
        """A program with no @nxp functions has no .text.nisa segment;
        disasm must skip it cleanly (and only swallow that specific
        missing-segment error, not arbitrary failures)."""
        path = tmp_path / "hostonly.fc"
        path.write_text("func main(a) { return a + 1; }")
        code, out = run_cli(["disasm", str(path)])
        assert code == 0
        assert ".text.hisa (hisa):" in out
        assert ".text.nisa" not in out


class TestTrace:
    def test_trace_exports_chrome_json(self, demo_file, tmp_path):
        import json

        dst = tmp_path / "demo.trace.json"
        code, out = run_cli(["trace", demo_file, "--args", "3", "--out", str(dst)])
        assert code == 0
        assert str(dst) in out
        doc = json.loads(dst.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "h2n_session" in names
        assert doc["otherData"]["truncated"] is False

    def test_trace_phases_overlay(self, demo_file, tmp_path):
        import json

        dst = tmp_path / "demo.trace.json"
        code, _out = run_cli(
            ["trace", demo_file, "--args", "3", "--out", str(dst), "--phases"]
        )
        assert code == 0
        doc = json.loads(dst.read_text())
        phase_names = {e["name"] for e in doc["traceEvents"] if e.get("cat") == "phase"}
        assert {"host_out", "transfer_to_nxp", "nxp_execute"} <= phase_names

    def test_trace_phases_pinned(self, demo_file, tmp_path):
        """The demo's two sessions, cut into their skeleton phases (us),
        on the track of the program's one thread (pids are allocated
        per interpreter process, so the pin reads it from the trace)."""
        import json

        dst = tmp_path / "demo.trace.json"
        run_cli(["trace", demo_file, "--args", "3", "--out", str(dst), "--phases"])
        doc = json.loads(dst.read_text())
        (pid,) = {e["pid"] for e in doc["traceEvents"] if e["name"] == "thread"}
        phases = [
            (e["name"], e["ts"], e["dur"], e["pid"])
            for e in doc["traceEvents"] if e.get("cat") == "phase"
        ]
        assert phases == [
            ("host_out", 1.3796666666666666, 6.75, pid),
            ("transfer_to_nxp", 8.129666666666665, 2.580645161290322, pid),
            ("nxp_execute", 10.710311827956987, 11.035967741935487, pid),
            ("return_to_host", 21.746279569892476, 3.630645161290322, pid),
            ("host_resume", 25.376924731182797, 4.75, pid),
            ("host_out", 31.499702508960585, 4.150000000000004, pid),
            ("transfer_to_nxp", 35.64970250896059, 2.5806451612903256, pid),
            ("nxp_execute", 38.230347670250914, 1.99, pid),
            ("return_to_host", 40.220347670250916, 3.6306451612903254, pid),
            ("host_resume", 43.85099283154124, 4.75, pid),
        ]

    def test_trace_truncation_warns_and_fails(self, demo_file, tmp_path):
        dst = tmp_path / "demo.trace.json"
        code, out = run_cli(
            ["trace", demo_file, "--args", "3", "--out", str(dst), "--limit", "5"]
        )
        assert code == 1
        assert "WARNING" in out and "dropped" in out


class TestProfile:
    def test_profile_prints_breakdown_spans_and_stats(self, demo_file):
        code, out = run_cli(["profile", demo_file, "--args", "3"])
        assert code == 0
        assert "Measured migration breakdown" in out
        assert "h2n_session" in out  # span census
        assert "dma.to_nxp" in out  # stats dump

    def test_profile_breakdown_pinned(self, demo_file):
        _code, out = run_cli(["profile", demo_file, "--args", "3"])
        lines = out.splitlines()
        start = lines.index("Measured migration breakdown (2 sessions)")
        assert [line.rstrip() for line in lines[start:start + 11]] == [
            "Measured migration breakdown (2 sessions)",
            "Phase                     | Mean latency",
            "--------------------------+-------------",
            "page fault entry (config) | 0.70us",
            "host_out                  | 5.45us",
            "transfer_to_nxp           | 2.58us",
            "nxp_execute               | 6.51us",
            "nested_host               | 0.00us",
            "return_to_host            | 3.63us",
            "host_resume               | 4.75us",
            "TOTAL (measured + fault)  | 23.62us",
        ]

    def test_profile_by_pid(self, demo_file):
        code, out = run_cli(["profile", demo_file, "--args", "3", "--by-pid"])
        assert code == 0
        assert "pid " in out
        assert "Measured migration breakdown" in out


class TestServe:
    def test_mixed_scenario_at_defaults(self):
        # 8 clients x 4 request kinds load ~30 processes; every one
        # reserves a 64 MB host heap window, which must not exhaust
        # host DRAM when the serving profiles never allocate from it.
        code, out = run_cli(["serve", "--scenario", "mixed"])
        assert code == 0
        assert "scenario=mixed" in out


class TestAnalysisUsageErrors:
    """A validation error prints ``error: ...`` and exits 2 (no traceback)."""

    def test_chaos_unknown_workload(self):
        code, out = run_cli(["chaos", "--workloads", "foo"])
        assert code == 2
        assert out.startswith("error: unknown workload 'foo'")

    def test_chaos_empty_workload_list(self):
        code, out = run_cli(["chaos", "--workloads"])
        assert code == 2
        assert out.startswith("error: no workloads selected")

    def test_fleet_revive_before_the_aimed_kill(self):
        code, out = run_cli(["fleet", "--smoke", "--revive-at-ns", "1000"])
        assert code == 2
        assert "error: revive_at_ns=1000 is not after kill_at_ns=" in out

    def test_program_commands_keep_their_tracebacks(self, monkeypatch, demo_file):
        # Only the analysis commands turn a ValueError into a usage
        # error; one from loading or running a program is a real fault.
        def broken_load(args, out):
            raise ValueError("segment overlaps the NxP window")

        monkeypatch.setattr("repro.tools.cli._cmd_run", broken_load)
        with pytest.raises(ValueError, match="segment overlaps"):
            run_cli(["run", demo_file])


class TestKillAimDrill:
    COMMAND = (
        "python -m repro why --kill-aim --nxps 2 --policy round_robin "
        "--qps 20000 --requests 120 --seed 7"
    )

    def test_reproduces_the_experiments_block(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        block = text.split(f"$ {self.COMMAND}\n", 1)[1].split("```", 1)[0]
        code, out = run_cli(self.COMMAND.split()[3:])
        assert code == 0
        # The block quotes the report up to its table's last row.
        assert out.startswith(block), out


class TestMetrics:
    def test_openmetrics_output(self, demo_file):
        code, out = run_cli(["metrics", demo_file, "--args", "3"])
        assert code == 0
        assert out.rstrip().endswith("# EOF")
        assert "# TYPE flick_latency_h2n_session_ns histogram" in out
        assert 'flick_latency_h2n_session_ns_bucket{le="+Inf"} 2' in out
        assert 'flick_device_utilization{device="nxp"}' in out
        assert "pid=" not in out  # per-pid series are opt-in

    def test_openmetrics_by_pid(self, demo_file):
        code, out = run_cli(["metrics", demo_file, "--args", "3", "--by-pid"])
        assert code == 0
        assert 'flick_latency_h2n_session_ns_bucket{pid="' in out

    def test_json_output_round_trips(self, demo_file):
        import json

        from repro.analysis.metrics import report_from_json

        code, out = run_cli(["metrics", demo_file, "--args", "3", "--format", "json"])
        assert code == 0
        report = report_from_json(json.loads(out))
        assert report.sessions == 2
        assert report.histograms["h2n_session_ns"].count == 2
        assert 0.0 <= report.utilization["nxp"].fraction <= 1.0

    def test_out_file(self, demo_file, tmp_path):
        dst = tmp_path / "metrics.json"
        code, out = run_cli(
            ["metrics", demo_file, "--args", "3", "--format", "json", "--out", str(dst)]
        )
        assert code == 0
        assert str(dst) in out
        assert dst.read_text().startswith("{")


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])
