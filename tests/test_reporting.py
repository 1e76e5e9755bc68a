import csv
import json
import math
import weakref

import numpy as np
import pytest

from edgenas.pipeline import FitnessKind, TrialRecord
from edgenas.reporting import (
    DeviceSummaryRow,
    comparison_table,
    evaluate_claims,
    load_paper_tables,
    run_source,
    summary_table,
    write_ratios_json,
    write_summary_csv,
)
from edgenas.space import config_from_index


def _record(config, accuracy, latency=None, power=None, device="dev", stage=2):
    kind = FitnessKind.ACCURACY_PER_LATENCY if latency else FitnessKind.ACCURACY
    value = accuracy / latency if latency else accuracy
    return TrialRecord(
        config=config,
        stage=stage,
        fitness_kind=kind,
        fitness_value=value,
        accuracy_pct=accuracy,
        device=device,
        latency_mean_ms=latency,
        latency_std_ms=0.0 if latency else None,
        dynamic_power_w=power,
    )


class TestSummaryTable:
    def test_two_model_mean_and_std(self, table1):
        records = [
            _record(config_from_index(table1, 0), 98.0, 1.0),
            _record(config_from_index(table1, 1), 100.0, 1.0),
        ]
        row = summary_table(records)[0]
        assert row.accuracy_mean == 99.0
        assert row.accuracy_std == pytest.approx(math.sqrt(2))
        assert row.n_models == 2

    def test_reconstructs_published_latency_cell(self, table1):
        offset = 0.799 / math.sqrt(2)
        records = [
            _record(config_from_index(table1, 0), 98.0, 4.70 - offset, device="pi"),
            _record(config_from_index(table1, 1), 98.0, 4.70 + offset, device="pi"),
        ]
        row = summary_table(records)[0]
        assert row.latency_mean_ms == pytest.approx(4.70)
        assert row.latency_std_ms == pytest.approx(0.799)

    def test_single_model_group(self, table1):
        row = summary_table([_record(config_from_index(table1, 0), 97.0, 2.0)])[0]
        assert row.n_models == 1
        assert row.accuracy_std == 0.0

    def test_stage3_record_merges_not_duplicates(self, table1):
        config = config_from_index(table1, 0)
        records = [
            _record(config, 97.0, 2.0),
            _record(config, 97.0, 2.0, power=0.5, stage=3),
        ]
        row = summary_table(records)[0]
        assert row.n_models == 1
        assert row.latency_mean_ms == 2.0
        assert row.power_mean_w == 0.5

    def _two_device_log(self, table1):
        # two devices interleaved, device "b" first, with a stage-3 line
        # refining a stage-2 one and one configuration on both devices
        configs = [config_from_index(table1, i) for i in range(3)]
        return [
            _record(configs[0], 97.0, 2.0, device="b"),
            _record(configs[0], 96.0, 1.5, device="a"),
            _record(configs[1], 98.0, 3.0, device="b"),
            _record(configs[2], 95.0, 1.0, device="a"),
            _record(configs[1], 98.0, 3.0, power=0.7, device="b", stage=3),
            _record(configs[2], 95.0, 1.0, power=0.4, device="a", stage=3),
        ]

    def test_groups_by_device_in_name_order(self, table1):
        a, b = summary_table(self._two_device_log(table1))
        assert (a.device, a.n_models, a.accuracy_mean, a.latency_mean_ms) == ("a", 2, 95.5, 1.25)
        assert (b.device, b.n_models, b.accuracy_mean, b.latency_mean_ms) == ("b", 2, 97.5, 2.5)
        assert (a.power_mean_w, a.power_std_w, b.power_mean_w) == (0.4, 0.0, 0.7)

    def test_one_shot_generator_gives_the_rows_of_a_list(self, table1):
        records = self._two_device_log(table1)
        assert summary_table(r for r in records) == summary_table(records)

    def test_keeps_no_record(self, table1):
        refs = []

        def stream():
            for record in self._two_device_log(table1):
                refs.append(weakref.ref(record))
                yield record

        rows = summary_table(stream())
        assert [row.n_models for row in rows] == [2, 2]
        assert len(refs) == 6 and all(ref() is None for ref in refs)


# The paper column, float for float: where the catalog lives and how it
# is evaluated must not change one value.
PAPER_COLUMN = {
    "average latency reduction: pi-ncs2 vs pi": 1.8725099601593629,
    "average latency reduction: pi-tpu vs pi": 2.513368983957219,
    "average latency reduction: coral-dev vs pi": 10.000000000000002,
    "average latency reduction: jetson-low vs pi": 2.447916666666667,
    "average latency reduction: jetson-high vs pi": 2.435233160621762,
    "best-model speedup: coral-dev vs jetson-low": 4.0256410256410255,
    "best-model speedup: coral-dev vs jetson-high": 3.923076923076923,
    "best-model latency: pi-tpu fraction lower than pi-ncs2": 0.2638297872340426,
    "best-model accuracy: pi-tpu points above pi-ncs2": 1.5200000000000102,
    "average dynamic power: pi-tpu less than pi-ncs2": 2.6219512195121952,
    "best-model dynamic power: pi-tpu less than pi-ncs2": 2.7012987012987013,
    "average dynamic power: coral-dev less than jetson-high": 4.309090909090909,
    "average dynamic power: coral-dev less than jetson-low": 1.8727272727272726,
    "best-model dynamic power: coral-dev less than jetson-high": 2.576923076923077,
    "best-model dynamic power: coral-dev less than jetson-low": 1.75,
    "comparison latency: ours vs [18]": 17.82051282051282,
    "comparison latency: ours vs [19]": 1.6666666666666667,
    "comparison dynamic power: ours vs [19]": 1.2884615384615385,
    "comparison accuracy/PDP: ours vs [19]": 2.1702690530221025,
    "comparison accuracy/PDP: ours vs [18]": 17.045441896761574,
}


def _source(table2):
    """A hand-built source in the published tables' shape, with only Table 2 rows."""
    return {
        "table2": table2,
        "table3": {"accuracy_per_latency": [], "accuracy_per_pdp": []},
        "table4": [],
    }


def _averages(device, latency, power):
    return {"device": device, "latency_ms": {"ave": latency}, "power_w": {"ave": power}}


class TestRatioSheet:
    def test_full_catalog_passes_on_fixture(self):
        claims = evaluate_claims()
        assert len(claims) == 20
        assert all(claim.passed for claim in claims)

    def test_paper_column_exact(self):
        claims = evaluate_claims()
        assert [c.label for c in claims] == list(PAPER_COLUMN)
        for claim in claims:
            assert claim.computed == PAPER_COLUMN[claim.label], claim.label

    def test_labels_unique_and_total(self):
        claims = evaluate_claims()
        labels = [c.label for c in claims]
        assert len(labels) == len(set(labels))
        assert all(c.passed is not None or "unavailable" in (c.note or "") for c in claims)

    def test_jetson_discrepancy_note_present(self):
        claims = evaluate_claims()
        jetson = next(c for c in claims if c.label == "average latency reduction: jetson-low vs pi")
        assert jetson.note and "inconsistent" in jetson.note

    def test_missing_device_marked_unavailable(self):
        tables = load_paper_tables()
        tables["table2"] = [r for r in tables["table2"] if r["device"] != "pi-ncs2"]
        tables["table3"]["accuracy_per_latency"] = [
            r for r in tables["table3"]["accuracy_per_latency"] if r["device"] != "pi-ncs2"
        ]
        tables["table3"]["accuracy_per_pdp"] = [
            r for r in tables["table3"]["accuracy_per_pdp"] if r["device"] != "pi-ncs2"
        ]
        claims = evaluate_claims(tables)
        assert len(claims) == 20  # never silently dropped
        unavailable = [c for c in claims if c.computed is None]
        assert unavailable
        assert all("unavailable" in c.note for c in unavailable)
        assert all(c.passed is None for c in unavailable)

    def test_identical_cells_give_unit_ratio(self):
        tables = load_paper_tables()
        source = _source([_averages("pi", 2.0, 1.0), _averages("pi-ncs2", 2.0, 1.0)])
        claims = evaluate_claims({**source, "claims": tables["claims"]})
        ncs2 = next(c for c in claims if c.label == "average latency reduction: pi-ncs2 vs pi")
        assert ncs2.computed == 1.0


class TestRunColumn:
    def test_known_ratio_computed(self):
        source = _source([_averages("pi", 4.0, 1.4), _averages("coral-dev", 0.5, 0.5)])
        claims = evaluate_claims(run=source)
        coral = next(c for c in claims if c.label == "average latency reduction: coral-dev vs pi")
        assert coral.run == 8.0
        assert coral.run_passed is False  # 8.0 against the published 10.0: reported, not forced
        assert coral.passed is True

    def test_absent_device_unavailable_in_run_column(self):
        source = _source([_averages("pi", 4.0, 1.4), _averages("coral-dev", 0.5, 0.5)])
        claims = evaluate_claims(run=source)
        assert len(claims) == 20  # never dropped
        ncs2 = next(c for c in claims if c.label == "average latency reduction: pi-ncs2 vs pi")
        assert ncs2.run is None and ncs2.run_passed is None
        assert ncs2.computed is not None and ncs2.passed
        row = ncs2.to_json_dict()
        assert row["run"] is None and row["run_pass"] is None

    def test_without_run_every_run_verdict_is_unavailable(self):
        assert all(c.run is None and c.run_passed is None for c in evaluate_claims())

    def test_ours_is_best_stage3_winner(self, table1):
        def winner(index, accuracy, latency, power, device):
            return TrialRecord(
                config=config_from_index(table1, index),
                stage=3,
                fitness_kind=FitnessKind.ACCURACY_PER_PDP,
                fitness_value=accuracy / (latency * power),
                accuracy_pct=accuracy,
                device=device,
                latency_mean_ms=latency,
                latency_std_ms=0.0,
                dynamic_power_w=power,
            )

        winners = {
            "pi": winner(0, 99.0, 4.0, 1.4, "pi"),
            "coral-dev": winner(1, 97.0, 0.5, 0.5, "coral-dev"),
            "pi-tpu": winner(2, 99.0, 1.7, 0.8, "pi-tpu"),
        }
        tables = load_paper_tables()
        source = run_source(tables, [], {}, winners)
        ours = next(e for e in source["table4"] if e["model"] == "ours")
        assert ours == {"model": "ours", "accuracy_pct": 97.0, "latency_ms": 0.5, "power_w": 0.5}
        assert [e["model"] for e in source["table4"]] == ["[18]", "[19]", "ours"]
        assert [e["device"] for e in source["table3"]["accuracy_per_pdp"]] == list(winners)
        claims = {c.label: c for c in evaluate_claims(tables, source)}
        assert claims["comparison latency: ours vs [18]"].run == 6.95 / 0.5
        assert claims["comparison accuracy/PDP: ours vs [18]"].run == (97.0 / 0.25) / (
            97.46 / (0.50 * 6.95)
        )

    def test_summary_rows_feed_table2(self):
        rows = [
            DeviceSummaryRow("pi", 3, 98.0, 0.1, 4.0, 0.2, 1.4, 0.01),
            DeviceSummaryRow("pi-tpu", 3, 98.0, 0.1, 2.0, 0.2, None, None),
        ]
        source = run_source(load_paper_tables(), rows, {}, {})
        assert source["table2"][0]["latency_ms"] == {"ave": 4.0, "std": 0.2}
        assert [e["model"] for e in source["table4"]] == ["[18]", "[19]"]
        claims = {c.label: c for c in evaluate_claims(run=source)}
        assert claims["average latency reduction: pi-tpu vs pi"].run == 2.0
        # pi-tpu has no power measurement, so the power claim is unavailable
        assert claims["average dynamic power: pi-tpu less than pi-ncs2"].run is None


class TestComparisonTable:
    def test_published_rows(self):
        rows = comparison_table(
            [("ours", 96.95, 0.39, 0.52), ("[19]", 95.93, 0.65, 0.67), ("unit", 50.0, 1.0, 1.0)]
        )
        assert rows[0]["accuracy_per_pdp"] == pytest.approx(478.06, abs=0.01)
        assert rows[1]["accuracy_per_pdp"] == pytest.approx(220.27, abs=0.01)
        assert rows[2]["accuracy_per_pdp"] == pytest.approx(50.0)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            comparison_table([("bad", 90.0, 0.0, 1.0)])


class TestRenderingStability:
    def test_csv_and_json_values_identical(self, tmp_path, table1):
        records = [
            _record(config_from_index(table1, i), 90.0 + i / 7.0, 1.0 + i / 3.0, 0.4 + i / 11.0, stage=3)
            for i in range(5)
        ]
        rows = summary_table(records)
        csv_path = tmp_path / "summary.csv"
        write_summary_csv(rows, csv_path)
        with csv_path.open() as handle:
            parsed = list(csv.DictReader(handle))[0]
        assert float(parsed["accuracy_mean_pct"]) == rows[0].accuracy_mean
        assert float(parsed["latency_std_ms"]) == rows[0].latency_std_ms
        assert float(parsed["power_mean_w"]) == rows[0].power_mean_w

    def test_ratios_json_roundtrip(self, tmp_path):
        claims = evaluate_claims()
        path = tmp_path / "ratios.json"
        write_ratios_json(claims, path)
        parsed = json.loads(path.read_text())["claims"]
        assert len(parsed) == len(claims)
        for raw, claim in zip(parsed, claims):
            assert raw["computed"] == claim.computed
            assert raw["pass"] == claim.passed


def test_fixture_off_grid_rows_flagged(table1):
    from edgenas.space import Configuration, validate

    tables = load_paper_tables()
    coral = next(
        r for r in tables["table3"]["accuracy_per_pdp"] if r["device"] == "coral-dev"
    )
    assert coral.get("off_grid") == ["k1"]
    verdict = validate(Configuration.from_json_dict(coral["config"]), table1)
    assert not verdict.valid
    assert "K1=18 off-grid (6..16 step 2)" in verdict.reasons
