"""Command-line interface tests."""

import pytest

from repro.cli import main
from repro.trace.reader import read_din

LEN = ["--length", "6000"]


class TestVersionFlag:
    def test_version_prints_and_exits(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_dunder_version_is_a_version_string(self):
        import repro

        major = repro.__version__.split(".")[0]
        assert major.isdigit()


class TestServeCommand:
    def test_serve_flags_parse(self):
        # The serve loop itself is covered by tests/service; here we
        # only pin that the CLI wires the flags into a ServiceConfig.
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            [
                "serve", "--port", "0", "--workers", "3",
                "--cache-size", "99", "--disk-cache", "/tmp/c.jsonl",
                "--max-inflight", "4", "--max-queue", "7",
                "--breaker-failures", "0", "--engine", "reference",
            ]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.workers == 3
        assert args.cache_size == 99
        assert args.breaker_failures == 0
        assert args.engine == "reference"


class TestTableCommands:
    def test_table7(self, capsys):
        assert main(LEN + ["table7", "z8000"]) == 0
        out = capsys.readouterr().out
        assert "Table 7 (z8000)" in out
        assert "16,8" in out

    def test_table8(self, capsys):
        assert main(LEN + ["table8"]) == 0
        out = capsys.readouterr().out
        assert "load-forward" in out
        assert "16,2,LF" in out

    def test_table6(self, capsys):
        assert main(["--length", "20000", "table6"]) == 0
        out = capsys.readouterr().out
        assert "360/85" in out


class TestFigureCommand:
    def test_figure_4(self, capsys):
        assert main(LEN + ["figure", "4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "traffic ratio (log)" in out

    def test_figure_8_is_nibble_mode(self, capsys):
        assert main(LEN + ["figure", "8"]) == 0
        assert "nibble mode" in capsys.readouterr().out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(LEN + ["figure", "12"])


class TestOtherCommands:
    def test_riscii(self, capsys):
        assert main(["--length", "10000", "riscii"]) == 0
        out = capsys.readouterr().out
        assert "remote PC accuracy" in out

    def test_suites_listing(self, capsys):
        assert main(["suites"]) == 0
        out = capsys.readouterr().out
        assert "pdp11:" in out
        assert "NROFF" in out

    def test_trace_summary(self, capsys):
        assert main(LEN + ["trace", "z8000", "GREP"]) == 0
        assert "unique addresses" in capsys.readouterr().out

    def test_trace_export_din(self, tmp_path, capsys):
        out_file = tmp_path / "grep.din"
        assert main(LEN + ["trace", "z8000", "GREP", "--out", str(out_file)]) == 0
        trace = read_din(out_file, size=2)
        assert len(trace) == 6000

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestSimulateCommand:
    @pytest.fixture()
    def din_file(self, tmp_path):
        path = tmp_path / "grep.din"
        main(LEN + ["trace", "z8000", "GREP", "--out", str(path)])
        return str(path)

    def test_defaults(self, din_file, capsys):
        assert main(["simulate", din_file]) == 0
        out = capsys.readouterr().out
        assert "miss ratio" in out
        assert "1024B net (16,16)" in out or "1024B net" in out

    def test_geometry_flags(self, din_file, capsys):
        assert main([
            "simulate", din_file, "--net", "256", "--block", "16",
            "--sub", "8", "--assoc", "2",
        ]) == 0
        assert "256B net (16,8) 2-way" in capsys.readouterr().out

    def test_fetch_and_replacement_flags(self, din_file, capsys):
        assert main([
            "simulate", din_file, "--sub", "2",
            "--fetch", "load-forward", "--replacement", "fifo",
        ]) == 0
        out = capsys.readouterr().out
        assert "fifo replacement" in out
        assert "load-forward fetch" in out

    def test_cold_and_keep_writes(self, din_file, capsys):
        assert main(["simulate", din_file, "--cold", "--keep-writes"]) == 0
        assert "miss ratio" in capsys.readouterr().out


class TestResilienceFlags:
    def test_resume_requires_checkpoint(self):
        with pytest.raises(SystemExit, match="--resume requires --checkpoint"):
            main(LEN + ["table7", "z8000", "--resume"])

    def test_checkpoint_and_resume_round_trip(self, tmp_path, capsys):
        ck = str(tmp_path / "t7.jsonl")
        assert main(LEN + ["table7", "z8000", "--checkpoint", ck]) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "t7.jsonl").exists()
        assert main(
            LEN + ["table7", "z8000", "--checkpoint", ck, "--resume"]
        ) == 0
        assert capsys.readouterr().out == first

    def test_lenient_and_retry_flags_accepted(self, capsys):
        assert main(
            LEN + ["table7", "z8000", "--lenient", "--max-retries", "2"]
        ) == 0
        assert "Table 7" in capsys.readouterr().out


class TestChaosCommand:
    def test_quick_chaos_run_passes(self, capsys):
        assert main(["chaos", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out


class TestLintCommand:
    def test_all_programs_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "checked 13 program(s): 0 error(s), 0 warning(s)" in out
        assert "fib:" in out and "editor:" in out

    def test_json_format(self, capsys):
        import json

        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        assert len(payload["programs"]) == 13
        by_name = {entry["name"]: entry for entry in payload["programs"]}
        assert by_name["fib"]["diagnostics"] == []
        assert by_name["fib"]["footprint"]["hot_loop_bytes"] > 0

    def test_program_subset_and_word_size(self, capsys):
        assert main(["lint", "--programs", "fib", "--word", "4"]) == 0
        out = capsys.readouterr().out
        assert "checked 1 program(s)" in out

    def test_unknown_program_rejected(self):
        with pytest.raises(SystemExit, match="unknown programs"):
            main(["lint", "--programs", "quux"])

    def test_findings_fail_the_command(self, capsys, monkeypatch):
        from repro.workloads.programs import PROGRAMS, ProgramSpec

        def bad_build(**_params):
            return ProgramSpec(
                name="bad", source="loop:\n    addi r0, 1\n    jmp loop\n",
                params={},
            )

        monkeypatch.setitem(PROGRAMS, "bad", bad_build)
        assert main(["lint", "--programs", "bad"]) == 1
        out = capsys.readouterr().out
        assert "[no-halt-path]" in out

    def test_strict_promotes_warnings(self, capsys, monkeypatch):
        from repro.workloads.programs import PROGRAMS, ProgramSpec

        def warn_build(**_params):
            # Dead code after halt: a warning, not an error.
            return ProgramSpec(
                name="warn",
                source="    li r0, 1\n    halt\ndead:\n    halt\n",
                params={},
            )

        monkeypatch.setitem(PROGRAMS, "warn", warn_build)
        assert main(["lint", "--programs", "warn"]) == 0
        capsys.readouterr()
        assert main(["lint", "--programs", "warn", "--strict"]) == 1


class TestFigureCsv:
    def test_csv_output(self, capsys):
        assert main(LEN + ["figure", "4", "--csv"]) == 0
        out = capsys.readouterr().out
        header, first = out.splitlines()[:2]
        assert header == "net_size,series,solid,traffic_ratio,miss_ratio"
        fields = first.split(",")
        assert len(fields) == 5
        float(fields[3]), float(fields[4])  # parses as numbers


class TestMisspathCli:
    @pytest.fixture()
    def din_file(self, tmp_path):
        path = tmp_path / "grep.din"
        main(LEN + ["trace", "z8000", "GREP", "--out", str(path)])
        return str(path)

    def test_simulate_reports_the_chain(self, din_file, capsys):
        assert main([
            "simulate", din_file, "--net", "256",
            "--victim-entries", "4", "--stream-buffers", "2",
            "--l2-net", "4096",
        ]) == 0
        out = capsys.readouterr().out
        assert "miss path:    vc4+sb2x4+l2:4096/0/0@4" in out
        assert "victim" in out and "stream" in out
        assert "memory  fetches" in out

    def test_simulate_without_chain_is_silent_about_it(self, din_file, capsys):
        assert main(["simulate", din_file]) == 0
        assert "miss path" not in capsys.readouterr().out

    def test_lint_misspath_clean(self, capsys):
        assert main([
            "lint", "--misspath", '{"victim_entries": 4}',
        ]) == 0
        out = capsys.readouterr().out
        assert "misspath config: 0 finding(s)" in out

    def test_lint_misspath_typo_fails(self, capsys):
        assert main([
            "lint", "--misspath", '{"victim_entires": 4}',
        ]) == 1
        out = capsys.readouterr().out
        assert "misspath-unknown-key" in out

    def test_lint_misspath_json_format(self, capsys):
        import json

        assert main([
            "lint", "--format", "json",
            "--misspath", '{"stream_depth": 0}',
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        rules = [
            d["rule"] for d in payload["misspath"]["diagnostics"]
        ]
        assert rules == ["misspath-bad-value"]

    def test_lint_misspath_invalid_json_rejected(self):
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["lint", "--misspath", "{nope"])


class TestClassifyCommand:
    CHAIN = [
        "--victim-entries", "4", "--stream-buffers", "2", "--l2-net", "4096",
    ]

    def test_chain_flags_parse(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args([
            "classify", "matmul", "--net", "256", "--assoc", "2",
            "--victim-entries", "4", "--miss-entries", "0",
            "--stream-buffers", "2", "--stream-depth", "8",
            "--l2-net", "4096", "--l2-block", "32", "--l2-sub", "16",
            "--l2-assoc", "8",
        ])
        assert args.victim_entries == 4
        assert args.stream_buffers == 2
        assert args.stream_depth == 8
        assert args.l2_net == 4096
        assert args.l2_block == 32
        assert args.l2_assoc == 8

    def test_bare_classify_has_no_chain_noise(self, capsys):
        assert main(["classify", "matmul", "--net", "256"]) == 0
        out = capsys.readouterr().out
        assert "site(s)" in out
        assert "chain none" in out
        assert "per-structure proofs" not in out

    def test_chain_header_bounds_and_proof_table(self, capsys):
        assert main([
            "classify", "matmul", "--net", "256", "--assoc", "2",
        ] + self.CHAIN) == 0
        out = capsys.readouterr().out
        assert "chain vc4+sb2x4+l2:4096/0/0@4" in out
        assert "static counter bounds:" in out
        assert "memory_bytes_fetched" in out
        assert "per-structure proofs:" in out
        # One proof row per configured structure, in chain order.
        proofs = out.split("per-structure proofs:", 1)[1]
        assert (
            proofs.index("victim") < proofs.index("stream")
            < proofs.index("l2 ")
        )

    def test_chain_verify_passes(self, capsys):
        assert main([
            "classify", "sieve", "--net", "256", "--assoc", "2", "--verify",
        ] + self.CHAIN) == 0
        assert "verification PASSED" in capsys.readouterr().out

    def test_json_is_deterministic_and_carries_the_chain_key(self, capsys):
        import json

        argv = [
            "classify", "matmul", "--net", "256", "--assoc", "2",
            "--format", "json",
        ] + self.CHAIN
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second  # byte-identical across runs
        payload = json.loads(first)
        assert payload["miss_path"]["key"] == "vc4+sb2x4+l2:4096/0/0@4"
        sites = payload["sites"]
        # Deterministic site order: sorted by instruction index.
        indices = [int(s["site"].split(":", 1)[0]) for s in sites]
        assert indices == sorted(indices)

    def test_bad_chain_geometry_fails(self, capsys):
        assert main([
            "classify", "matmul", "--net", "256", "--l2-net", "100",
        ]) == 1
        assert "classify failed" in capsys.readouterr().err


class TestPhasesCommand:
    def test_text_report(self, capsys):
        assert main(LEN + ["phases", "matmul", "--interval", "1000"]) == 0
        out = capsys.readouterr().out
        assert "matmul: 6000 accesses" in out
        assert "phase 0:" in out
        assert "simulated fraction" in out
        assert "fingerprints from cfg" in out
        assert "[phase-plan]" in out

    def test_json_report(self, capsys):
        import json

        argv = LEN + [
            "phases", "matmul", "--interval", "1000", "--k", "2",
            "--format", "json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        payload = json.loads(first)
        assert payload["trace"] == "matmul"
        assert payload["interval_length"] == 1000
        assert payload["source"] == "cfg"
        assert payload["phases"]
        # Deterministic plans: byte-identical across runs.
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_unknown_program_rejected(self):
        with pytest.raises(SystemExit, match="unknown program"):
            main(LEN + ["phases", "quux"])

    def test_bad_interval_rejected(self):
        with pytest.raises(SystemExit, match="interval"):
            main(LEN + ["phases", "matmul", "--interval", "0"])


class TestSampleFlag:
    def test_table7_accepts_sample(self, capsys):
        assert main(LEN + ["table7", "z8000", "--sample", "2000,2"]) == 0
        assert "Table 7 (z8000)" in capsys.readouterr().out

    def test_sample_requires_sweep_coverage_in_lint(self):
        with pytest.raises(SystemExit, match="sweep-coverage"):
            main(["lint", "--sample", "100"])

    def test_lint_sweep_coverage_reports_sampled_cells(self, capsys):
        assert main(
            ["lint", "--sweep-coverage", "1024", "--sample", "2000,4"]
        ) == 0
        out = capsys.readouterr().out
        assert "[sweep-sample-coverage]" in out
        assert "i2000,k4,s0" in out
        # Sampled cells never ride a stack-distance pass.
        assert "fall back to per-cell: sampled simulation" in out

    def test_malformed_sample_rejected(self):
        with pytest.raises(SystemExit, match="--sample"):
            main(["lint", "--sweep-coverage", "1024", "--sample", "abc"])
