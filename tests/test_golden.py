"""Golden trajectory fingerprints.

Each scenario below is run through the engine and ``metrics_io.write_run``;
the SHA-256 of the resulting ``slots.csv`` and ``summary.csv`` is pinned, as
is the SHA-256 of the ``dsa-pf oracle-check`` stdout on two tiny scenarios
and of ``pfilter.decide``'s raw scores, whose last bits the CSVs cannot show
unless an argmax flips.
Together the scenarios cover all four objectives, one to four bands per
user, a band axis of eight or more (where NumPy's pairwise summation
regroups a band sum), busy licensed owners, and rate thresholds on both
sides of the realized rates.

A refactor that keeps the random-stream contract and the model must
reproduce these fingerprints bit for bit.  Regenerate them only in a change
whose stated purpose is to change the random-stream contract or the model,
and record the acceptance battery's diagnostics before and after it in
CHANGES.md.  The values assume float64 NumPy kernels with the same rounding
as the build they were taken on.
"""

import hashlib

import numpy as np
import pytest

from dsapf.channel import init_channels
from dsapf.cli import main
from dsapf.engine import run
from dsapf.metrics_io import write_run
from dsapf.pfilter import decide, init_particles
from dsapf.phy import draw_rate_thresholds
from dsapf.system import (OBJECTIVE_NAMES, Domain, RngStream, SystemConfig,
                          derive_substream, validate)

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
    "pf-l4-m12-busy": dict(n_users=6, n_bands=12, max_bands_per_user=4,
                           n_particles=6, n_slots=8,
                           objective="proportional_fair", pu_busy_prob=0.1,
                           seed=15),
}

# scenario -> (sha256 of slots.csv, sha256 of summary.csv)
GOLDEN = {
    "intrinsic-l1": ("5f9e46fcca91eaaa1b31708a6e5436a25d64d750646fa345372bf6d32ccfeb7f",
                     "9a2a7a0e21b604f1352af8ca564fdbc58969760538674e788951243f40d599e3"),
    "sum-l2-busy": ("1caedc3d5c20ff5a60b3b9f795c036cce8b616c76dbf244056bda6ccb7a98ade",
                    "05935f6886304c936df33f187c69360410ef1dc58e47f7624beb44f59cbb3372"),
    "maxmin-l3-busy": ("a6b4c6e597e55d940a269a1b04bcabf14741ed76b0967042550a1d7f302d7a26",
                       "3794d110a3bd1a2aa09431b8aac60b40faf4e73ae276db11d10f676d32cc0675"),
    "pf-l2-demanding": ("3d579371102981cfe59de89ec4da73f2ffab484702aa2e32f33827c30a7a7bbe",
                        "984327bcf37a7b2a1dbeb30c242ebd4dc67ae7be5de99466ed7d23a09f702d82"),
    "pf-l4-m12-busy": ("6d7cf1d2992ba833f64c85904e65443c4ad9c7520e3394563c71ed4cbb4e3d8c",
                       "fdb65b3d10320c4cbd6abdbb16656730262196ce3e2df48023ec33eb9a2c1851"),
}

ORACLE_SCENARIO = ("n_users = 4\nn_bands = 3\nmax_bands_per_user = 2\n"
                   "n_particles = 6\nobjective = sum\npu_busy_prob = 0.2\n"
                   "rate_threshold_range_bps = 2e5, 2e6\nseed = 5\n")
ORACLE_SLOTS = 8
ORACLE_GOLDEN = "6079cc3c72978040cefeaed96e4d3a1ae3531524d55dbc48190ddeeacedf411b"

# The benchmark's oracle shape: 5 users picking 2 of 4 bands, 7**5 joint
# assignments, with busy bands shrinking the alphabet in 5 of the 8 slots.
# The slot count comes from the scenario itself.
ORACLE_5U_SCENARIO = ("n_users = 5\nn_bands = 4\nmax_bands_per_user = 2\n"
                      "objective = sum\npu_busy_prob = 0.25\nn_slots = 8\n"
                      "seed = 21\n")
ORACLE_5U_SLOTS = 8
ORACLE_5U_GOLDEN = "c101ac96357185802d79ab12182a4b869257bce920c414d3e6e561f519ba6e4d"

# Two decide calls on seeded initial particles and channels: the first with
# nobody transmitting, the second with the powers the first chose.  A budget
# of four per-band caps puts every receiver on four of twelve bands; about a
# third of such band sets are ones where NumPy's pairwise band sum groups
# the terms differently from a plain sum, and twelve receivers make it all
# but certain that some are.
DECIDE_SCENARIO = dict(n_users=12, n_bands=12, max_bands_per_user=4,
                       n_particles=6, p_total_max_dbm=9.0, seed=16)
DECIDE_BUSY_BAND = 5
# objective -> sha256 of both calls' scores and own rewards
DECIDE_GOLDEN = {
    "intrinsic": "0bfa35237ca232c0a1a3a307fddd4703909ca58a001d21e81f12e7d44976d61a",
    "maxmin": "844fbdb41b5203a719f57098e2962b974ccb84142f63e4c48512b90767b1ad6c",
    "proportional_fair": "cc0d67c7c9fe4ea93a038056773858a73f18d892b73a71f4b563630db04dab9d",
    "sum": "d62089f451c8f473e1f821b62a3b0c45978f50e6e7786690671542ec1de03e4d",
}


def _sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_csv_fingerprint(name, tmp_path):
    summary, records = run(validate(SystemConfig(**SCENARIOS[name])))
    slots_path, summary_path = write_run(records, summary, str(tmp_path))
    assert (_sha256(slots_path), _sha256(summary_path)) == GOLDEN[name]


def _oracle_check_stdout(tmp_path, capsys, scenario_text, *args) -> str:
    scenario = tmp_path / "oracle.cfg"
    scenario.write_text(scenario_text)
    assert main(["oracle-check", "--config", str(scenario), *args]) == 0
    return capsys.readouterr().out


def test_oracle_check_stdout_fingerprint(tmp_path, capsys):
    out = _oracle_check_stdout(tmp_path, capsys, ORACLE_SCENARIO,
                               "--slots", str(ORACLE_SLOTS))
    assert out.count("slot=") == ORACLE_SLOTS
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_GOLDEN


def test_oracle_check_two_of_four_bands_fingerprint(tmp_path, capsys):
    out = _oracle_check_stdout(tmp_path, capsys, ORACLE_5U_SCENARIO)
    assert out.count("slot=") == ORACLE_5U_SLOTS
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_5U_GOLDEN


@pytest.mark.parametrize("objective", OBJECTIVE_NAMES)
def test_decide_score_fingerprint(objective):
    cfg = validate(SystemConfig(**DECIDE_SCENARIO, objective=objective))
    root = RngStream(cfg.seed)
    gains_sq = np.abs(init_channels(cfg, root).current) ** 2
    thresholds = draw_rate_thresholds(cfg, root)
    pset = init_particles(cfg, derive_substream(root, Domain.PARTICLE_INIT))
    availability = np.ones(cfg.n_bands, dtype=bool)
    availability[DECIDE_BUSY_BAND] = False
    digest = hashlib.sha256()
    power_w = np.zeros((cfg.n_users, cfg.n_bands))
    for _ in range(2):
        _, power_w, scores, own_reward = decide(pset, cfg, gains_sq, power_w,
                                                availability, thresholds)
        digest.update(scores.tobytes())
        digest.update(own_reward.tobytes())
    assert (power_w > 0.0).sum(axis=1).max() > 2
    assert digest.hexdigest() == DECIDE_GOLDEN[objective]
