import numpy as np
import pytest

from thzlink.modem import MODULATIONS, BerTable, Modulation
from thzlink.tablegen import MAX_TABLE_DISTANCES, TableModel, generate_table, q_function


def test_grid_size_and_rows(default_table, tmp_path):
    assert len(default_table.distances) == 40
    assert default_table.distances[0] == 0.5
    assert default_table.distances[-1] == 20.0
    path = tmp_path / "t.csv"
    default_table.to_csv(path)
    rows = [line for line in path.read_text().splitlines()[1:] if line]
    assert len(rows) == 160


def test_anchor_calibration(default_table):
    anchor = default_table.lookup(20.0, Modulation.BPSK)
    assert abs(anchor - 0.0579) / 0.0579 < 0.05  # spec tolerance
    assert anchor == pytest.approx(0.0579, rel=1e-9)  # the quantile is exact


def test_custom_anchor():
    model = TableModel(anchor_distance_m=15.0, anchor_ber=0.01)
    table = generate_table(model)
    assert table.lookup(15.0, Modulation.BPSK) == pytest.approx(0.01, rel=1e-9)


def test_columns_monotone_in_distance(default_table):
    for mod in MODULATIONS:
        col = default_table.column(mod)
        assert np.all(np.diff(col) >= 0)


def test_8psk_never_below_16qam(default_table):
    # 16QAM dominates 8PSK by construction: same or lower error probability
    # at a strictly higher data rate.
    p8 = default_table.column(Modulation.PSK8)
    p16 = default_table.column(Modulation.QAM16)
    assert np.all(p8 >= p16)
    # ... while staying nearly coincident where the values are meaningful
    # (relative gaps blow up in the steep tail below ~1e-4).
    meaningful = p16 > 1e-4
    assert np.all(p8[meaningful] <= p16[meaningful] * 1.25)


def test_modulation_ordering(default_table):
    # Denser constellations see more errors at every distance.
    bpsk = default_table.column(Modulation.BPSK)
    qpsk = default_table.column(Modulation.QPSK)
    qam16 = default_table.column(Modulation.QAM16)
    assert np.all(bpsk <= qpsk)
    assert np.all(qpsk <= qam16)


def test_floor_produces_exact_zeros(default_table):
    assert default_table.lookup(0.5, Modulation.QAM16) == 0.0
    assert default_table.lookup(1.0, Modulation.BPSK) == 0.0


def test_lookup_matches_csv_export(tmp_path, default_table):
    path = tmp_path / "t.csv"
    default_table.to_csv(path)
    loaded = BerTable.from_csv(path)
    assert loaded.lookup(10.0, Modulation.QAM16) == default_table.lookup(10.0, Modulation.QAM16)
    assert loaded.lookup(10.0, Modulation.QAM16) > 0


def test_q_function_basics():
    assert q_function(0.0) == pytest.approx(0.5)
    assert q_function(10.0) < 1e-20
    assert q_function(-10.0) == pytest.approx(1.0)


def test_bad_anchor_rejected():
    with pytest.raises(ValueError):
        generate_table(TableModel(anchor_ber=0.7))


@pytest.mark.parametrize("field, value", [
    ("d_min_m", 0.0),
    ("d_min_m", -1.0),
    ("d_min_m", float("nan")),
    ("d_max_m", float("inf")),
    ("d_max_m", 0.4),
    ("d_step_m", 0.0),
    ("d_step_m", -0.5),
    ("d_step_m", 1e-9),
    ("d_step_m", 5e-324),
    ("path_loss_exp", float("nan")),
    ("absorption_db_per_m", float("-inf")),
    ("anchor_distance_m", 0.0),
    ("anchor_ber", 0.0),
    ("anchor_ber", 0.5),
])
def test_model_rejects_bad_field(field, value):
    with pytest.raises(ValueError, match=f"^invalid {field}: "):
        TableModel(**{field: value})


def test_model_distance_count_cap():
    # At the cap the table still builds; one more distance is refused.
    step = 1.0 / (MAX_TABLE_DISTANCES - 1)
    table = generate_table(TableModel(d_min_m=1.0, d_max_m=2.0, d_step_m=step))
    assert len(table.distances) == MAX_TABLE_DISTANCES
    with pytest.raises(ValueError, match="^invalid d_step_m: "):
        TableModel(d_min_m=1.0, d_max_m=2.0, d_step_m=1.0 / MAX_TABLE_DISTANCES)
    # One distance is a table too.
    assert len(generate_table(TableModel(d_min_m=3.0, d_max_m=3.0)).distances) == 1
