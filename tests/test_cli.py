import json

import pytest

from frontierfuzz import builtin_targets
from frontierfuzz.campaign import Campaign
from frontierfuzz.cli import main


def run_cli(args):
    return main(args)


class TestRunCommand:
    def test_builtin_target_produces_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "run", "--target", "builtin:le15", "--mode", "fox",
            "--budget-execs", "3000", "--out", str(out),
            "--rng-seed", "7", "--synthetic-time",
        ])
        assert code == 0
        lines = (out / "stats.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert records[-1]["edges_covered"] == 2
        corpus_files = list((out / "corpus").iterdir())
        assert corpus_files
        assert (out / "findings").is_dir()

    def test_file_target(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_bytes(builtin_targets.document("le15"))
        out = tmp_path / "out"
        code = run_cli([
            "run", "--target", str(target), "--mode", "base",
            "--budget-execs", "2000", "--out", str(out), "--synthetic-time",
        ])
        assert code == 0

    def test_seeds_directory(self, tmp_path):
        seeds = tmp_path / "seeds"
        seeds.mkdir()
        (seeds / "a").write_bytes(bytes([5]))
        (seeds / "b").write_bytes(bytes([9, 0]))
        out = tmp_path / "out"
        code = run_cli([
            "run", "--target", "builtin:le15", "--budget-execs", "1000",
            "--seeds", str(seeds), "--out", str(out), "--synthetic-time",
        ])
        assert code == 0
        records = [json.loads(l) for l in (out / "stats.jsonl").read_text().splitlines()]
        assert records[0]["execs"] >= 2  # both seeds executed

    def test_time_budget_with_synthetic_units(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli([
            "run", "--target", "builtin:magic32", "--mode", "base",
            "--budget-secs", "0.000001", "--out", str(out), "--synthetic-time",
        ])
        assert code == 0
        records = [json.loads(l) for l in (out / "stats.jsonl").read_text().splitlines()]
        # One synthetic nanosecond per execution: the budget caps the loop.
        assert records[-1]["t_ns"] <= 1001

    def test_budget_required(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["run", "--target", "builtin:le15", "--out", str(tmp_path / "o")])

    def test_unknown_builtin(self, tmp_path):
        with pytest.raises(SystemExit, match="^frontierfuzz run: unknown builtin target 'nope'"):
            run_cli([
                "run", "--target", "builtin:nope", "--budget-execs", "10",
                "--out", str(tmp_path / "o"),
            ])

    def test_identical_flags_identical_stats(self, tmp_path):
        args = [
            "run", "--target", "builtin:chain6", "--mode", "fox",
            "--budget-execs", "20000", "--rng-seed", "3", "--synthetic-time",
        ]
        run_cli(args + ["--out", str(tmp_path / "a")])
        run_cli(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "stats.jsonl").read_bytes() == \
            (tmp_path / "b" / "stats.jsonl").read_bytes()

    def test_findings_written_for_bug_target(self, tmp_path):
        out = tmp_path / "out"
        run_cli([
            "run", "--target", "builtin:bug_chain", "--mode", "fox",
            "--budget-execs", "100000", "--out", str(out),
            "--rng-seed", "1", "--synthetic-time",
        ])
        assert list((out / "findings").iterdir())


class TestRunSetupErrors:
    """Bad set-up input ends ``run`` with a one-line message, not a traceback."""

    def run_expecting_exit(self, tmp_path, *extra):
        with pytest.raises(SystemExit) as info:
            run_cli(["run", "--budget-execs", "10", "--out", str(tmp_path / "o"), *extra])
        message = str(info.value.code)
        assert message.startswith("frontierfuzz run: ") and "\n" not in message
        assert not (tmp_path / "o").exists()
        return message

    def test_empty_seed_file(self, tmp_path):
        seeds = tmp_path / "seeds"
        seeds.mkdir()
        (seeds / "a").write_bytes(bytes([5]))
        (seeds / "b").write_bytes(b"")
        message = self.run_expecting_exit(
            tmp_path, "--target", "builtin:le15", "--seeds", str(seeds))
        assert "nonempty" in message

    def test_missing_seeds_directory(self, tmp_path):
        message = self.run_expecting_exit(
            tmp_path, "--target", "builtin:le15", "--seeds", str(tmp_path / "absent"))
        assert "absent" in message

    def test_invalid_document(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text('{"max_input_len": 4, "entry": 0, "nodes": []}')
        self.run_expecting_exit(tmp_path, "--target", str(target))

    def test_default_seed_for_huge_max_input_len(self, tmp_path):
        # 2**62 bytes can never be allocated, so this fails at once.
        target = tmp_path / "target.json"
        target.write_text(json.dumps({
            "max_input_len": 2**62, "entry": 0,
            "nodes": [{"id": 0, "kind": "int", "offset": 0, "width": 1, "endian": "le",
                       "signed": False, "relation": "le", "constant": 15}],
        }))
        message = self.run_expecting_exit(tmp_path, "--target", str(target))
        assert "max_input_len" in message and "--seeds" in message

    def test_operand_window_past_limit(self, tmp_path):
        seeds = tmp_path / "seeds"
        seeds.mkdir()
        (seeds / "a").write_bytes(bytes([5]))
        target = tmp_path / "target.json"
        target.write_text(json.dumps({
            "max_input_len": 2**62, "entry": 0,
            "nodes": [{"id": 0, "kind": "int", "offset": 2**40, "width": 1, "endian": "le",
                       "signed": False, "relation": "le", "constant": 15}],
        }))
        message = self.run_expecting_exit(
            tmp_path, "--target", str(target), "--seeds", str(seeds))
        assert "byte limit" in message

    def test_deeply_nested_document(self, tmp_path, monkeypatch):
        ran = self.count_campaign_runs(monkeypatch)
        target = tmp_path / "target.json"
        target.write_bytes(b"[" * 200_000 + b"]" * 200_000)
        message = self.run_expecting_exit(tmp_path, "--target", str(target))
        assert "nests too deeply" in message
        assert not ran

    def test_infinite_time_budget(self, tmp_path):
        message = self.run_expecting_exit(
            tmp_path, "--target", "builtin:le15", "--budget-secs", "inf")
        assert "infinity" in message

    def test_negative_exec_budget(self, tmp_path):
        message = self.run_expecting_exit(
            tmp_path, "--target", "builtin:le15", "--budget-execs", "-3")
        assert "max_execs" in message

    def test_negative_time_budget(self, tmp_path):
        message = self.run_expecting_exit(
            tmp_path, "--target", "builtin:le15", "--budget-secs", "-1")
        assert "max_time_ns" in message

    def test_sample_size_one(self, tmp_path):
        message = self.run_expecting_exit(
            tmp_path, "--target", "builtin:le15", "--sample-size", "1")
        assert "sample_size" in message

    def test_empty_seeds_directory(self, tmp_path, monkeypatch):
        ran = self.count_campaign_runs(monkeypatch)
        seeds = tmp_path / "seeds"
        seeds.mkdir()
        message = self.run_expecting_exit(
            tmp_path, "--target", "builtin:le15", "--seeds", str(seeds))
        assert "no seed files" in message and str(seeds) in message
        assert not ran

    def test_out_is_an_existing_file(self, tmp_path, monkeypatch):
        ran = self.count_campaign_runs(monkeypatch)
        out = tmp_path / "out"
        out.write_bytes(b"keep")
        with pytest.raises(SystemExit) as info:
            run_cli(["run", "--target", "builtin:le15", "--budget-execs", "10",
                     "--out", str(out)])
        message = str(info.value.code)
        assert message.startswith("frontierfuzz run: ") and "\n" not in message
        assert str(out) in message
        assert out.read_bytes() == b"keep"
        assert not ran

    @staticmethod
    def count_campaign_runs(monkeypatch):
        ran = []
        original = Campaign.run
        monkeypatch.setattr(Campaign, "run", lambda self: (ran.append(self), original(self))[1])
        return ran


class TestReportCommand:
    def test_folds_runs_into_csv(self, tmp_path):
        for mode in ("fox", "base"):
            for seed in (0, 1):
                run_cli([
                    "run", "--target", "builtin:le15", "--mode", mode,
                    "--budget-execs", "2000", "--rng-seed", str(seed),
                    "--out", str(tmp_path / f"{mode}-{seed}"), "--synthetic-time",
                ])
        assert run_cli(["report", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0] == "mode,t_ns,edges_median,edges_p25,edges_p75"
        modes = {line.split(",")[0] for line in lines[1:]}
        assert modes == {"fox", "base"}

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli(["report", "--out", str(tmp_path)])

    GOOD = json.dumps({"t_ns": 1, "execs": 1, "edges_covered": 1, "mode": "fox"})

    @pytest.mark.parametrize("bad,why", [
        ("{not json", "not JSON"),
        (json.dumps({"t_ns": 2, "edges_covered": 1}), "'mode' missing"),
        (json.dumps({"t_ns": "2", "edges_covered": 1, "mode": "fox"}), "'t_ns' missing or not int"),
        (json.dumps([2, 1, "fox"]), "not a JSON object"),
    ])
    def test_malformed_record_names_file_and_line(self, tmp_path, bad, why):
        stats = tmp_path / "run" / "stats.jsonl"
        stats.parent.mkdir()
        stats.write_text(self.GOOD + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(SystemExit) as info:
            run_cli(["report", "--out", str(tmp_path)])
        message = str(info.value.code)
        assert message.startswith(f"frontierfuzz report: {stats}:2: {why}")
        assert "\n" not in message
        assert not (tmp_path / "report.csv").exists()

    def test_undecodable_file_names_file(self, tmp_path):
        stats = tmp_path / "stats.jsonl"
        stats.write_bytes(b"\xff\xfe\n")
        with pytest.raises(SystemExit, match=f"^frontierfuzz report: {stats}: "):
            run_cli(["report", "--out", str(tmp_path)])


class TestVerifyTheoremCommand:
    def test_small_run_all_optimal(self, capsys):
        code = run_cli([
            "verify-theorem", "--branches", "3", "--stages", "4",
            "--trials", "25", "--rng-seed", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "optimal 25/25" in out
        assert out.count("trial ") == 25

    @pytest.mark.parametrize("flags,why", [
        (["--branches", "0"], "--branches must be >= 1"),
        (["--stages", "0"], "--stages must be >= 1"),
        (["--trials", "-1"], "--trials must be >= 1"),
        (["--branches", "30", "--stages", "30"], "instance too large"),
        (["--branches", "1", "--stages", "5000"], "instance too large"),
    ])
    def test_bad_flags_rejected_before_any_trial(self, capsys, flags, why):
        with pytest.raises(SystemExit) as info:
            run_cli(["verify-theorem", *flags])
        message = str(info.value.code)
        assert message.startswith(f"frontierfuzz verify-theorem: {why}")
        assert "\n" not in message
        assert capsys.readouterr().out == ""
