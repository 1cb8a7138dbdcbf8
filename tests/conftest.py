import numpy as np
import pytest

from thzlink.config import RunSpec
from thzlink.sim import run_simulation
from thzlink.tablegen import generate_table

FULL_RUN_SEED = 20260811


@pytest.fixture(scope="session")
def default_table():
    return generate_table()


@pytest.fixture(scope="session")
def table_csv(tmp_path_factory, default_table):
    path = tmp_path_factory.mktemp("tables") / "default_table.csv"
    default_table.to_csv(path)
    return path


@pytest.fixture(scope="session")
def full_run(default_table, table_csv, tmp_path_factory):
    """The desk-scale default scenario: 6060 s, fixed seed, default spec."""
    out = tmp_path_factory.mktemp("acceptance")
    spec = RunSpec(table_path=str(table_csv), seed=FULL_RUN_SEED,
                   duration_s=6060.0,
                   metrics_path=str(out / "metrics.csv"),
                   events_path=str(out / "events.log"))
    records = run_simulation(spec, default_table)
    return spec, records


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
