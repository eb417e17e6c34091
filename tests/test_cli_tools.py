"""CLI tooling: gate subcommand, waiver files, diff_stores helper."""

from __future__ import annotations

import pytest

from repro import ValidationSession
from repro.console import main
from repro.errors import PolicyError
from repro.core.policy import ValidationPolicy
from repro.repository.versioned import diff_stores


class TestDiffStores:
    def build(self, text):
        session = ValidationSession()
        session.load_text("keyvalue", text)
        return session.store

    def test_modification(self):
        old = self.build("A.K = 1\nA.L = x\n")
        new = self.build("A.K = 2\nA.L = x\n")
        change = diff_stores(old, new)
        assert len(change.modified) == 1 and not change.added and not change.removed

    def test_none_old_is_all_added(self):
        new = self.build("A.K = 1\n")
        change = diff_stores(None, new)
        assert len(change.added) == 1

    def test_removed(self):
        old = self.build("A.K = 1\nA.L = 2\n")
        new = self.build("A.K = 1\n")
        change = diff_stores(old, new)
        assert [i.key.render() for i in change.removed] == ["A.L"]


class TestGateSubcommand:
    def setup_files(self, tmp_path, new_timeout):
        (tmp_path / "spec.cpl").write_text(
            "$s.Timeout -> int & [1, 60]\n$s.Flag -> bool\n$s.Name -> nonempty\n"
        )
        (tmp_path / "old.ini").write_text(
            "[s]\nTimeout = 30\nFlag = true\nName = web\n"
        )
        (tmp_path / "new.ini").write_text(
            f"[s]\nTimeout = {new_timeout}\nFlag = true\nName = web\n"
        )
        return tmp_path

    def test_accepts_good_change(self, tmp_path, capsys):
        root = self.setup_files(tmp_path, 45)
        code = main([
            "gate", str(root / "spec.cpl"),
            "--old", f"ini:{root}/old.ini", "--new", f"ini:{root}/new.ini",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "ACCEPT" in out
        assert "1 of 3 statement(s) run" in out

    def test_rejects_bad_change(self, tmp_path, capsys):
        root = self.setup_files(tmp_path, 999)
        code = main([
            "gate", str(root / "spec.cpl"),
            "--old", f"ini:{root}/old.ini", "--new", f"ini:{root}/new.ini",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "REJECT" in out
        # a range violation admits an obvious clamp suggestion
        assert "suggested repairs:" in out
        assert "'999' -> '60'" in out

    def test_no_change_accepts_fast(self, tmp_path, capsys):
        root = self.setup_files(tmp_path, 30)
        code = main([
            "gate", str(root / "spec.cpl"),
            "--old", f"ini:{root}/old.ini", "--new", f"ini:{root}/new.ini",
        ])
        assert code == 0
        assert "nothing changed" in capsys.readouterr().out

    def test_full_flag_runs_everything(self, tmp_path, capsys):
        root = self.setup_files(tmp_path, 45)
        code = main([
            "gate", str(root / "spec.cpl"),
            "--old", f"ini:{root}/old.ini", "--new", f"ini:{root}/new.ini",
            "--full",
        ])
        assert code == 0
        assert "full corpus: every statement run" in capsys.readouterr().out

    def test_without_old_everything_is_new(self, tmp_path, capsys):
        root = self.setup_files(tmp_path, 30)
        code = main([
            "gate", str(root / "spec.cpl"), "--new", f"ini:{root}/new.ini",
        ])
        assert code == 0
        assert "+3" in capsys.readouterr().out


class TestGateFallbacks:
    """Programs a delta check cannot cover soundly run in full, with the
    reason, and reach the same verdict as ``gate --full`` and
    ``validate``."""

    def run(self, args, capsys):
        code = main(args)
        return code, capsys.readouterr().out

    def test_nested_let_falls_back_to_a_full_run(self, tmp_path, capsys):
        (tmp_path / "spec.cpl").write_text(
            "namespace A {\n  let X := int\n  $Y -> int\n}\n$B.Z -> @X\n"
        )
        (tmp_path / "old.kv").write_text("A.Y=1\nB.Z=1\n")
        (tmp_path / "new.kv").write_text("A.Y=1\nB.Z=notint\n")
        gate = ["gate", str(tmp_path / "spec.cpl"),
                "--old", f"keyvalue:{tmp_path}/old.kv",
                "--new", f"keyvalue:{tmp_path}/new.kv"]
        for extra in ([], ["--full"]):
            code, out = self.run(gate + extra, capsys)
            assert code == 1, out
            assert "REJECT" in out
            assert "value 'notint' of B.Z is not a valid int" in out
        code, out = self.run(gate, capsys)
        assert "full run: program cannot be delta-validated soundly: " \
            "a let is nested inside a block" in out

    def test_include_resolves_like_validate(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "inc.cpl").write_text("$A.X -> int\n")
        (tmp_path / "spec.cpl").write_text("include 'inc.cpl'\n$A.Y -> int\n")
        (tmp_path / "old.kv").write_text("A.X=1\nA.Y=1\n")
        (tmp_path / "new.kv").write_text("A.X=1\nA.Y=no\n")
        gate = ["gate", "spec.cpl", "--old", "keyvalue:old.kv",
                "--new", "keyvalue:new.kv"]
        for args in (gate, gate + ["--full"],
                     ["validate", "spec.cpl", "--source", "keyvalue:new.kv"]):
            code, out = self.run(args, capsys)
            assert code == 1, out
            assert "value 'no' of A.Y is not a valid int" in out
        code, out = self.run(gate, capsys)
        assert "the program has load/include commands" in out


class TestGateJson:
    """``gate --json``: the machine-readable verdict shares the job-result
    schema (satellite of the async job service PR) and the documented
    exit-code contract: 0 admit / 1 reject / 2 error."""

    def setup_files(self, tmp_path, new_timeout):
        return TestGateSubcommand().setup_files(tmp_path, new_timeout)

    def run_json(self, root, capsys, extra=()):
        import json

        code = main([
            "gate", str(root / "spec.cpl"),
            "--old", f"ini:{root}/old.ini", "--new", f"ini:{root}/new.ini",
            "--json", *extra,
        ])
        captured = capsys.readouterr()
        return code, json.loads(captured.out), captured

    def test_admit_verdict(self, tmp_path, capsys):
        root = self.setup_files(tmp_path, 45)
        code, verdict, __ = self.run_json(root, capsys)
        assert code == 0
        assert verdict["verdict"] == "admit"
        assert verdict["passed"] is True
        assert verdict["statements_run"] == 1
        assert verdict["statements_total"] == 3
        # same schema as an async job result: the determinism token rides
        assert len(verdict["fingerprint"]) == 64

    def test_reject_verdict(self, tmp_path, capsys):
        root = self.setup_files(tmp_path, 999)
        code, verdict, __ = self.run_json(root, capsys)
        assert code == 1
        assert verdict["verdict"] == "reject"
        assert verdict["violations"] == 1
        assert verdict["violation_details"][0]["key"].endswith("Timeout")

    def test_no_change_admits(self, tmp_path, capsys):
        root = self.setup_files(tmp_path, 30)
        code, verdict, __ = self.run_json(root, capsys)
        assert code == 0
        assert verdict["verdict"] == "admit"
        assert verdict["statements_run"] == 0

    def test_stdout_is_pure_json(self, tmp_path, capsys):
        root = self.setup_files(tmp_path, 45)
        __, __, captured = self.run_json(root, capsys)
        assert captured.out.strip().startswith("{")
        assert "ACCEPT" not in captured.out

    def test_missing_spec_is_error_verdict_exit_two(self, tmp_path, capsys):
        root = self.setup_files(tmp_path, 45)
        (root / "spec.cpl").unlink()
        code, verdict, __ = self.run_json(root, capsys)
        assert code == 2
        assert verdict["verdict"] == "error"
        assert "FileNotFoundError" in verdict["error"]

    def test_error_without_json_prints_stderr(self, tmp_path, capsys):
        root = self.setup_files(tmp_path, 45)
        (root / "spec.cpl").unlink()
        code = main([
            "gate", str(root / "spec.cpl"),
            "--old", f"ini:{root}/old.ini", "--new", f"ini:{root}/new.ini",
        ])
        assert code == 2
        assert "gate error:" in capsys.readouterr().err


class TestWaiverFiles:
    def test_load_waivers(self, tmp_path):
        waivers = tmp_path / "waivers.txt"
        waivers.write_text(
            "# legacy parameters pending cleanup\n"
            "*LegacyTimeout int\n"
            "*Deprecated*\n"
            "\n"
        )
        policy = ValidationPolicy()
        assert policy.load_waivers(str(waivers)) == 2
        assert ("*LegacyTimeout", "int") in policy.suppressions
        assert ("*Deprecated*", "*") in policy.suppressions

    def test_malformed_waiver_line(self, tmp_path):
        waivers = tmp_path / "waivers.txt"
        waivers.write_text("too many fields here\n")
        with pytest.raises(PolicyError):
            ValidationPolicy().load_waivers(str(waivers))

    def test_cli_waivers_flag(self, tmp_path, capsys):
        (tmp_path / "c.ini").write_text("[s]\nLegacyTimeout = soon\nPort = 80\n")
        (tmp_path / "spec.cpl").write_text(
            "$s.LegacyTimeout -> int\n$s.Port -> port\n"
        )
        (tmp_path / "waivers.txt").write_text("*LegacyTimeout int\n")
        code = main([
            "validate", str(tmp_path / "spec.cpl"),
            "--source", f"ini:{tmp_path}/c.ini",
            "--waivers", str(tmp_path / "waivers.txt"),
        ])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
