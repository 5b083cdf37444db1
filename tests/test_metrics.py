"""Precision/recall/F1, top-k accounting, variance, and run summaries."""

import io
import json
import random

import pytest

from keyterrain.labels import AddressSet
from keyterrain.metrics import (
    precision_recall_f1,
    topk_true_positives,
    variance_of_tp,
    write_run_summary,
)


class TestPrecisionRecallF1:
    def test_perfect(self):
        m = precision_recall_f1({"10.0.0.2"}, AddressSet(["10.0.0.2"]), ["10.0.0.1", "10.0.0.2"])
        assert (m.tp, m.fp, m.fn) == (1, 0, 0)
        assert m.f1 == 1.0

    def test_one_false_positive(self):
        m = precision_recall_f1(
            {"10.0.0.1", "10.0.0.2"}, AddressSet(["10.0.0.2"]), ["10.0.0.1", "10.0.0.2"]
        )
        assert m.precision == 0.5
        assert m.recall == 1.0
        assert m.f1 == pytest.approx(2 / 3)

    def test_nothing_predicted(self):
        m = precision_recall_f1(set(), AddressSet(["10.0.0.2"]), ["10.0.0.1", "10.0.0.2"])
        assert (m.tp, m.fp, m.fn) == (0, 0, 1)
        assert m.f1 == 0.0

    def test_label_absent_from_universe_not_a_false_negative(self):
        m = precision_recall_f1(set(), AddressSet(["10.9.9.9"]), ["10.0.0.1"])
        assert m.fn == 0
        assert m.f1 == 0.0

    def test_cidr_awareness(self):
        labels = AddressSet(["10.0.0.0/30"])
        m = precision_recall_f1({"10.0.0.2"}, labels, ["10.0.0.1", "10.0.0.2", "10.0.9.9"])
        assert m.tp == 1
        assert m.fn == 1  # 10.0.0.1 is inside the prefix but was not predicted

    @pytest.mark.parametrize("seed", range(20))
    def test_random_counts_match_direct_formula(self, seed):
        rng = random.Random(seed)
        universe = [f"10.1.0.{i}" for i in range(40)]
        criticals = set(rng.sample(universe, rng.randint(1, 15)))
        predicted = set(rng.sample(universe, rng.randint(0, 20)))
        m = precision_recall_f1(predicted, AddressSet(criticals), universe)
        tp = len(predicted & criticals)
        fp = len(predicted - criticals)
        fn = len(criticals - predicted)
        assert (m.tp, m.fp, m.fn) == (tp, fp, fn)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        assert m.f1 == pytest.approx(2 * p * r / (p + r) if p + r else 0.0, abs=1e-15)
        assert 0.0 <= m.precision <= 1.0
        assert 0.0 <= m.recall <= 1.0
        assert 0.0 <= m.f1 <= 1.0


class TestTopkTruePositives:
    def test_cut_excludes_later_hits(self):
        labels = AddressSet(["10.0.0.1", "10.0.0.3"])
        ranking = ["10.0.0.1", "10.0.0.9", "10.0.0.3"]
        assert topk_true_positives(ranking, labels, 2) == (1, 0)

    def test_k_beyond_ranking_length(self):
        labels = AddressSet(["10.0.0.1"])
        assert topk_true_positives(["10.0.0.1"], labels, 100) == (1, 0)

    def test_planted_criticals_all_counted(self):
        rng = random.Random(14)
        criticals = [f"10.2.0.{i}" for i in range(30)]
        noise = [f"10.3.0.{i}" for i in range(70)]
        ranking = criticals + noise
        rng.shuffle(ranking)
        tp, _ = topk_true_positives(ranking, AddressSet(criticals), 100)
        assert tp == 30

    def test_local_prefix_members(self):
        labels = AddressSet(["10.0.0.1"])
        local = AddressSet(["10.0.0.0/24"])
        ranking = ["10.0.0.1", "192.168.1.1", "10.0.0.7"]
        assert topk_true_positives(ranking, labels, 3, local) == (1, 2)

    def test_monotone_in_k(self):
        rng = random.Random(3)
        ranking = [f"10.4.0.{i}" for i in range(50)]
        labels = AddressSet(rng.sample(ranking, 20))
        counts = [topk_true_positives(ranking, labels, k)[0] for k in range(1, 51)]
        assert counts == sorted(counts)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            topk_true_positives([], AddressSet(["10.0.0.1"]), 0)


class TestVariance:
    def test_identical_runs(self):
        assert variance_of_tp([[3, 4, 5], [3, 4, 5]]) == 0.0

    def test_single_column_population_variance(self):
        assert variance_of_tp([[1], [3]]) == pytest.approx(1.0)

    def test_constant_matrix(self):
        assert variance_of_tp([[7] * 4] * 5) == 0.0

    def test_average_across_columns(self):
        # columns (1,3) and (2,2): variances 1.0 and 0.0
        assert variance_of_tp([[1, 2], [3, 2]]) == pytest.approx(0.5)

    def test_single_run_rejected(self):
        with pytest.raises(ValueError, match="two runs"):
            variance_of_tp([[1, 2, 3]])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            variance_of_tp([[1, 2], [3]])


class TestReportWriters:
    def test_run_summary_round_trips(self, tmp_path):
        path = tmp_path / "report.json"
        payload = {"best_f1": 0.75, "iterations": 12}
        write_run_summary(path, payload)
        assert json.loads(path.read_text()) == payload


class TestAddressSet:
    def test_exact_and_prefix(self):
        s = AddressSet(["10.0.0.1", "192.168.0.0/16"])
        assert "10.0.0.1" in s
        assert "192.168.44.7" in s
        assert "10.0.0.2" not in s

    def test_ipv6(self):
        s = AddressSet(["2001:db8::/32", "::1"])
        assert "2001:db8:1:2::3" in s
        assert "::1" in s
        assert "2001:dead::1" not in s

    def test_mixed_versions_do_not_collide(self):
        s = AddressSet(["0.0.0.0/0"])
        assert "10.0.0.1" in s
        assert "2001:db8::1" not in s

    def test_canonicalization(self):
        s = AddressSet(["2001:DB8:0:0:0:0:0:1"])
        assert "2001:db8::1" in s

    def test_from_file(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("# critical hosts\n10.0.0.1\n\n10.1.0.0/16  # dmz\n")
        s = AddressSet.from_file(path)
        assert len(s) == 2
        assert "10.1.2.3" in s

    def test_empty_is_falsy(self):
        assert not AddressSet([])
        assert AddressSet(["10.0.0.1"])

    def test_bad_entry_raises(self):
        with pytest.raises(ValueError):
            AddressSet(["not-an-ip"])
