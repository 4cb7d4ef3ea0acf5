import hashlib
import json

import pytest

from frontierfuzz import builtin_targets, campaign
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

    @pytest.mark.parametrize("target, mode, ended", [
        ("builtin:le15", "fox", "covered"), ("builtin:le15", "base", "covered"),
        ("builtin:magic32", "base", "budget"),
    ])
    def test_summary_says_why_the_run_ended(self, tmp_path, capsys, target, mode, ended):
        out = tmp_path / "out"
        code = run_cli([
            "run", "--target", target, "--mode", mode, "--budget-execs", "2000",
            "--out", str(out), "--rng-seed", "0", "--synthetic-time",
        ])
        assert code == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary.endswith(f" ended={ended}")
        final = json.loads((out / "stats.jsonl").read_text().splitlines()[-1])
        assert f" execs={final['execs']} " in summary
        if ended == "covered":  # the run stops at the exec that covers the last edge
            assert final["execs"] == max(int(p.name) for p in (out / "corpus").iterdir())
        else:
            assert final["execs"] == 2000

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


class TestInterrupt:
    FLAGS = ["run", "--target", "builtin:chain6", "--mode", "base", "--sample-size", "64",
             "--budget-execs", "20000", "--rng-seed", "3", "--synthetic-time"]

    def test_ctrl_c_keeps_finished_stages(self, tmp_path, monkeypatch, capsys):
        full = tmp_path / "full"
        assert run_cli(self.FLAGS + ["--out", str(full)]) == 0
        havoc_mutate = campaign.havoc_mutate
        calls = 0

        def interrupting(*args):
            nonlocal calls
            calls += 1
            if calls > 1000:  # mid-way through the 16th stage's batch of 64
                raise KeyboardInterrupt
            return havoc_mutate(*args)

        monkeypatch.setattr(campaign, "havoc_mutate", interrupting)
        capsys.readouterr()
        cut = tmp_path / "cut"
        assert run_cli(self.FLAGS + ["--out", str(cut)]) == 130
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert "interrupted; wrote 16 stage records" in err
        assert out.startswith("mode=base execs=")
        assert out.rstrip().endswith(" ended=interrupted")
        lines = (cut / "stats.jsonl").read_text().splitlines()
        full_lines = (full / "stats.jsonl").read_text().splitlines()
        assert len(lines) == 16 < len(full_lines)
        assert lines == full_lines[:len(lines)]
        # The corpus so far, the unfinished stage's entries included.
        for name in ("corpus", "findings"):
            got = {p.name: p.read_bytes() for p in (cut / name).iterdir()}
            want = {p.name: p.read_bytes() for p in (full / name).iterdir()}
            assert got.items() <= want.items()
        assert any((cut / "corpus").iterdir())

    def test_ctrl_c_before_the_first_record(self, tmp_path, monkeypatch, capsys):
        def interrupted(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(Campaign, "run", interrupted)
        out_dir = tmp_path / "out"
        assert run_cli(self.FLAGS + ["--out", str(out_dir)]) == 130
        out, err = capsys.readouterr()
        assert out == ""
        assert "interrupted; wrote 0 stage records" in err
        assert (out_dir / "stats.jsonl").read_text() == ""
        assert (out_dir / "corpus").is_dir() and (out_dir / "findings").is_dir()


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

    def test_seed_file_past_max_input_len(self, tmp_path, monkeypatch):
        # A 1 TiB sparse file: its size is checked before it is read.
        ran = self.count_campaign_runs(monkeypatch)
        seeds = tmp_path / "seeds"
        seeds.mkdir()
        with open(seeds / "huge", "wb") as f:
            f.truncate(2**40)
        message = self.run_expecting_exit(
            tmp_path, "--target", "builtin:le15", "--seeds", str(seeds))
        assert str(seeds / "huge") in message and "max_input_len" in message
        assert not ran

    def test_target_document_too_large_to_load(self, tmp_path, monkeypatch):
        # A 1 TiB sparse file: no buffer for it can be allocated.
        ran = self.count_campaign_runs(monkeypatch)
        target = tmp_path / "huge.json"
        with open(target, "wb") as f:
            f.truncate(2**40)
        message = self.run_expecting_exit(tmp_path, "--target", str(target))
        assert str(target) in message and "too large" in message
        assert not ran

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

    def test_integer_literal_past_the_digit_limit(self, tmp_path, monkeypatch):
        # json.loads raises a plain ValueError past CPython's int digit limit.
        ran = self.count_campaign_runs(monkeypatch)
        target = tmp_path / "target.json"
        target.write_bytes(b'{"max_input_len": ' + b"7" * 5000 + b', "entry": 0, "nodes": []}')
        message = self.run_expecting_exit(tmp_path, "--target", str(target))
        assert "document cannot be parsed" in message
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

    def test_corpus_path_is_an_existing_file(self, tmp_path, monkeypatch):
        # A blocked output path ends the command before the campaign runs.
        ran = self.count_campaign_runs(monkeypatch)
        out = tmp_path / "out"
        out.mkdir()
        (out / "corpus").write_bytes(b"keep")
        with pytest.raises(SystemExit) as info:
            run_cli(["run", "--target", "builtin:le15", "--budget-execs", "10",
                     "--out", str(out)])
        message = str(info.value.code)
        assert message.startswith("frontierfuzz run: ") and "\n" not in message
        assert str(out / "corpus") in message
        assert (out / "corpus").read_bytes() == b"keep"
        assert not ran

    def test_stats_path_is_a_directory_after_the_run(self, tmp_path, monkeypatch):
        # Output paths past the two directories are written after the run: a
        # blocked one ends the command the same way, once the campaign ran.
        ran = self.count_campaign_runs(monkeypatch)
        out = tmp_path / "out"
        (out / "stats.jsonl").mkdir(parents=True)
        with pytest.raises(SystemExit) as info:
            run_cli(["run", "--target", "builtin:le15", "--budget-execs", "10",
                     "--out", str(out), "--synthetic-time"])
        message = str(info.value.code)
        assert message.startswith("frontierfuzz run: ") and "\n" not in message
        assert str(out / "stats.jsonl") in message
        assert len(ran) == 1 and (out / "stats.jsonl").is_dir()

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

    # Two hand-made runs per mode; the digests were recorded before the
    # percentile lost its branches for no values and for one value.
    SERIES = {"fox": [[(0, 1), (7, 3), (20, 4)], [(0, 1), (12, 2), (15, 4)]],
              "base": [[(0, 1), (20, 2)], [(0, 2), (9, 3), (18, 3)]]}

    @pytest.mark.parametrize("runs,digest,rows", [
        (1, "5b4c65bbb08404202fab42129b352f0d6e9edffdc27f3b0fe6648ee082600ef5",
         ["base,9,1.0,1.0,1.0", "fox,7,3.0,3.0,3.0", "fox,12,3.0,3.0,3.0"]),
        (2, "7b46f8c623aa72416034a947b6161a6a659b5ff1988069afa9014a2ee6bfbd76",
         ["base,9,2.0,1.5,2.5", "fox,7,2.0,1.5,2.5", "fox,12,2.5,2.2,2.8"]),
    ])
    def test_report_text_is_pinned(self, tmp_path, runs, digest, rows):
        for mode, run_list in self.SERIES.items():
            for i, records in enumerate(run_list[:runs]):
                stats = tmp_path / f"{mode}-{i}" / "stats.jsonl"
                stats.parent.mkdir()
                stats.write_text("".join(
                    json.dumps({"t_ns": t, "edges_covered": e, "mode": mode}) + "\n"
                    for t, e in records))
        assert run_cli(["report", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "report.csv").read_text()
        lines = text.splitlines()
        assert len(lines) == 1 + 2 * 21
        assert set(rows) <= set(lines)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_report_path_is_a_directory(self, tmp_path):
        stats = tmp_path / "run" / "stats.jsonl"
        stats.parent.mkdir()
        stats.write_text(self.GOOD + "\n", encoding="utf-8")
        (tmp_path / "report.csv").mkdir()
        with pytest.raises(SystemExit) as info:
            run_cli(["report", "--out", str(tmp_path)])
        message = str(info.value.code)
        assert message.startswith("frontierfuzz report: ") and "\n" not in message
        assert str(tmp_path / "report.csv") in message

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run_cli(["report", "--out", str(tmp_path)])
        message = str(info.value.code)
        assert message.startswith("frontierfuzz report: no stats.jsonl files under ")
        assert "\n" not in message

    def test_empty_stats_files_rejected(self, tmp_path):
        # A run stopped during its seed phase writes an empty stats.jsonl.
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "stats.jsonl").write_text("", encoding="utf-8")
        with pytest.raises(SystemExit) as info:
            run_cli(["report", "--out", str(tmp_path)])
        message = str(info.value.code)
        assert message == (
            f"frontierfuzz report: the stats.jsonl files under {tmp_path} hold no records")
        assert not (tmp_path / "report.csv").exists()

    GOOD = json.dumps({"t_ns": 1, "execs": 1, "edges_covered": 1, "mode": "fox"})

    @pytest.mark.parametrize("bad,why", [
        ("{not json", "not JSON"),
        (json.dumps({"t_ns": 2, "edges_covered": 1}), "'mode' missing"),
        (json.dumps({"t_ns": "2", "edges_covered": 1, "mode": "fox"}), "'t_ns' missing or not int"),
        (json.dumps([2, 1, "fox"]), "not a JSON object"),
        # A record that goes backwards would bend the time grid or the scan
        # over each run's sorted times.
        (json.dumps({"t_ns": 0, "edges_covered": 1, "mode": "fox"}),
         "'t_ns' goes backwards (0 < 1)"),
        (json.dumps({"t_ns": 2, "edges_covered": 0, "mode": "fox"}),
         "'edges_covered' goes backwards (0 < 1)"),
        # One run has one mode; the file would be filed under its last.
        (json.dumps({"t_ns": 2, "edges_covered": 1, "mode": "base"}),
         "'mode' changes from 'fox' to 'base'"),
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

    @pytest.mark.parametrize("key", ["t_ns", "edges_covered"])
    def test_negative_first_record_rejected(self, tmp_path, key):
        stats = tmp_path / "run" / "stats.jsonl"
        stats.parent.mkdir()
        stats.write_text(json.dumps({**json.loads(self.GOOD), key: -1}) + "\n", encoding="utf-8")
        with pytest.raises(SystemExit) as info:
            run_cli(["report", "--out", str(tmp_path)])
        assert str(info.value.code) == f"frontierfuzz report: {stats}:1: {key!r} goes backwards (-1 < 0)"
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
