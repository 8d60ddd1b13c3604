"""Golden trajectory fingerprints.

Each scenario below is run through the engine and ``metrics_io.write_run``;
the SHA-256 of the resulting ``slots.csv`` and ``summary.csv`` is pinned, as
is the SHA-256 of the ``dsa-pf oracle-check`` stdout on a tiny scenario.
Together the scenarios cover all four objectives, one, two and three bands
per user, busy licensed owners, and rate thresholds on both sides of the
realized rates.

A refactor that keeps the random-stream contract and the model must
reproduce these fingerprints bit for bit.  Regenerate them only in a change
whose stated purpose is to change the random-stream contract or the model,
and record the acceptance battery's diagnostics before and after it in
CHANGES.md.  The values assume float64 NumPy kernels with the same rounding
as the build they were taken on.
"""

import hashlib

import pytest

from dsapf.cli import main
from dsapf.engine import run
from dsapf.metrics_io import write_run
from dsapf.system import SystemConfig, validate

SCENARIOS = {
    "intrinsic-l1": dict(n_users=4, n_bands=3, max_bands_per_user=1,
                         n_particles=6, n_slots=8, objective="intrinsic",
                         seed=11),
    "sum-l2-busy": dict(n_users=5, n_bands=4, max_bands_per_user=2,
                        n_particles=6, n_slots=8, objective="sum",
                        pu_busy_prob=0.3, seed=12),
    "maxmin-l3-busy": dict(n_users=4, n_bands=5, max_bands_per_user=3,
                           n_particles=5, n_slots=8, objective="maxmin",
                           pu_busy_prob=0.2, beta=1.5,
                           rate_threshold_range_bps=(1e5, 5e6), seed=13),
    "pf-l2-demanding": dict(n_users=6, n_bands=4, max_bands_per_user=2,
                            n_particles=8, n_slots=8,
                            objective="proportional_fair",
                            rate_threshold_range_bps=(1e6, 8e6), seed=14),
}

# scenario -> (sha256 of slots.csv, sha256 of summary.csv)
GOLDEN = {
    "intrinsic-l1": ("b6ba7957dc038ff8bd736b26def00ffc87862af2fa556caadab6268a3d3a5b9f",
                     "78580677f8f3371befcf8b001adc1b8247db8fa3062c98cdb7fa84131caeedaf"),
    "sum-l2-busy": ("c8c91f7d37f0ac541e155bb1f1f7e9a931e50ad12bcf77db0b1a3754c247c834",
                    "865e3908c17b4d3052db4ea05e077abe79aa59765ddcbc3c5e0d053dc0fea784"),
    "maxmin-l3-busy": ("a36a764e3b3f8c7eead28e8cbb4f7c3143c70fede8ca0808c432c45cdaeefeda",
                       "05e7d4d083dbca6a84b264eea59ec672bb2fae2a00fe1da1572e72cd8aa5fa8c"),
    "pf-l2-demanding": ("59f2f378acb83997c53533d9a3ca6511a3541d3b8a0e0c2c353bb4578f328792",
                        "729f51d7db101a644b8f9ca93a0083a59e8d7747c766fea02ad5befaa4372a36"),
}

ORACLE_SCENARIO = ("n_users = 4\nn_bands = 3\nmax_bands_per_user = 2\n"
                   "n_particles = 6\nobjective = sum\npu_busy_prob = 0.2\n"
                   "rate_threshold_range_bps = 2e5, 2e6\nseed = 5\n")
ORACLE_SLOTS = 8
ORACLE_GOLDEN = "03d079a1291d50ed8299a791f13310b82f14b10af28e38c410ba56c096d3d268"


def _sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_csv_fingerprint(name, tmp_path):
    summary, records = run(validate(SystemConfig(**SCENARIOS[name])))
    slots_path, summary_path = write_run(records, summary, str(tmp_path))
    assert (_sha256(slots_path), _sha256(summary_path)) == GOLDEN[name]


def test_oracle_check_stdout_fingerprint(tmp_path, capsys):
    scenario = tmp_path / "oracle.cfg"
    scenario.write_text(ORACLE_SCENARIO)
    code = main(["oracle-check", "--config", str(scenario),
                 "--slots", str(ORACLE_SLOTS)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("slot=") == ORACLE_SLOTS
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_GOLDEN
