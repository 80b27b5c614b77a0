"""--workers end to end: CLI equivalence across worker counts, usage errors."""

import json

from repro.chaos.__main__ import main as chaos_main

# The fault-free register campaigns and the outcome each must produce.
FUZZ_TARGETS = (
    ("fischer_n3", "violation"),
    ("alg3_n4", "clean"),
    ("consensus_n4", "clean"),
)


def _fuzz_summaries(tmp_path, workers):
    """One fault-free campaign per register target; the summaries' bytes."""
    docs = []
    for target, expect in FUZZ_TARGETS:
        path = tmp_path / f"{target}-w{workers}.json"
        code = chaos_main([
            "run", "--target", target, "--windows", "0", "--seed", "42",
            "--campaigns", "1", "--schedules", "24", "--expect", expect,
            "--workers", str(workers), "--json", str(path),
        ])
        assert code == 0, target
        docs.append(path.read_bytes())
    return docs


class TestFuzzCli:
    def test_workers_2_summary_is_byte_identical_to_workers_1(self, tmp_path):
        assert _fuzz_summaries(tmp_path, 1) == _fuzz_summaries(tmp_path, 2)

    def test_summary_records_the_expected_fischer_find(self, tmp_path):
        docs = _fuzz_summaries(tmp_path, 2)
        by_name = {
            target: json.loads(doc)["campaigns"][0]
            for (target, _expect), doc in zip(FUZZ_TARGETS, docs)
        }
        assert by_name["fischer_n3"]["violation"]["monitor"] == \
            "mutual_exclusion"
        assert by_name["alg3_n4"]["ok"] and by_name["consensus_n4"]["ok"]
        assert all(entry["faults"] == 0 for entry in by_name.values())

    def test_net_substrate_workers_2_matches_workers_1(self, tmp_path):
        args = ["run", "--substrate", "net", "--seed", "7", "--campaigns", "1",
                "--schedules", "12", "--expect", "clean"]
        p1, p2 = tmp_path / "n1.json", tmp_path / "n2.json"
        assert chaos_main(args + ["--workers", "1", "--json", str(p1)]) == 0
        assert chaos_main(args + ["--workers", "2", "--json", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_timing_json_is_written_per_shard(self, tmp_path):
        timing_path = tmp_path / "timing.json"
        code = chaos_main([
            "run", "--target", "alg3_n4", "--windows", "0", "--seed", "1",
            "--campaigns", "3", "--schedules", "8", "--workers", "2",
            "--expect", "clean", "--timing-json", str(timing_path),
        ])
        assert code == 0
        timing = json.loads(timing_path.read_text())
        assert timing["workers"] == 2
        # 3 campaigns x 2 shards each, tagged by campaign seed
        assert len(timing["rows"]) == 6
        assert {row["campaign"] for row in timing["rows"]} == {
            "1-0", "1-1", "1-2",
        }
        assert all("wall_s" in row and "worker_pid" in row
                   for row in timing["rows"])


class TestUsageErrors:
    def test_empty_campaign_is_a_usage_error(self):
        """--schedules 0 must exit 2, not vacuously pass with exit 0."""
        assert chaos_main([
            "run", "--target", "alg3_n4", "--schedules", "0",
            "--expect", "clean",
        ]) == 2

    def test_negative_schedules_is_a_usage_error(self):
        assert chaos_main(["run", "--schedules", "-5"]) == 2

    def test_zero_campaigns_is_a_usage_error(self):
        assert chaos_main(["run", "--campaigns", "0", "--expect", "clean"]) == 2

    def test_empty_recover_run_is_a_usage_error(self):
        """--expect recover cannot pass on zero verdicts out of zero runs."""
        assert chaos_main([
            "run", "--target", "dg_mutex_n3", "--schedules", "0",
            "--expect", "recover",
        ]) == 2

    def test_zero_workers_is_a_usage_error(self):
        assert chaos_main([
            "run", "--substrate", "net", "--workers", "0", "--schedules", "10",
        ]) == 2

    def test_chaos_zero_workers_is_a_usage_error(self):
        assert chaos_main(["run", "--workers", "0"]) == 2


class TestChaosCli:
    def test_workers_2_summary_matches_workers_1(self, tmp_path):
        base = [
            "run", "--target", "fischer_n3", "--seed", "demo-a",
            "--campaigns", "1", "--schedules", "8", "--expect", "violation",
        ]
        p1, p2 = tmp_path / "c1.json", tmp_path / "c2.json"
        t2 = tmp_path / "t2.json"
        assert chaos_main(base + ["--workers", "1", "--json", str(p1)]) == 0
        assert chaos_main(
            base + ["--workers", "2", "--json", str(p2),
                    "--timing-json", str(t2)]
        ) == 0
        assert p1.read_bytes() == p2.read_bytes()
        timing = json.loads(t2.read_text())
        assert timing["workers"] == 2 and timing["rows"]
