"""Golden trajectory fingerprints.

Each scenario below is run through the engine and ``metrics_io.write_run``;
the SHA-256 of the resulting ``slots.csv`` and ``summary.csv`` is pinned, as
is the SHA-256 of the ``dsa-pf oracle-check`` stdout on a tiny scenario and
of ``pfilter.decide``'s raw scores, whose last bits the CSVs cannot show
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
    "intrinsic-l1": ("90ba7a4154e2b2245310f0b9f07dee43364078a70be292a14c52cca935e48268",
                     "0d34802479c20900a14f9b4f861e803455507af038a1e1ced18c0dd72f2d2f3c"),
    "sum-l2-busy": ("c1aeccc178f8e5abc9759d98bd6b859d65c375160d7c374e2d1385e8ed20d46f",
                    "52ec16c323eace7eceabb4e9240cfafbd896e167b1b4df8386101f4f36f968fe"),
    "maxmin-l3-busy": ("2436cd694c019cc83b2dc948c6b47e5ae061dea50dab6fbf26c03d2a2f9b3f3f",
                       "450e171eb1430c7d607333f147354b2728dbda7995a0582198e6bfd74f73c71b"),
    "pf-l2-demanding": ("bfbe6e37f5d47ac6f4456edffc2a28629dbffcdb9046ed4a161b8849914510fb",
                        "9362ae29f1fa6fcf830f0948a8a91ad1ffb48775a7b39f4e59e28412902ebbcc"),
    "pf-l4-m12-busy": ("ca0aadb5ceb77d8a7c34090293f56e761962883bbb491407ee08af52d023f6bd",
                       "858e120b1d43537dfbd77db246aa996af8aa305a3c45ffcb0947e2a0fa5e2701"),
}

ORACLE_SCENARIO = ("n_users = 4\nn_bands = 3\nmax_bands_per_user = 2\n"
                   "n_particles = 6\nobjective = sum\npu_busy_prob = 0.2\n"
                   "rate_threshold_range_bps = 2e5, 2e6\nseed = 5\n")
ORACLE_SLOTS = 8
ORACLE_GOLDEN = "8e0619dd2b51137ac98f9719e2380c531a98729332bac8f832f9ed09fd19ef5c"

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
    "intrinsic": "b0137b76a53c6889f58d56d7e1770e3982847f728c8742c66d9ed342d3472917",
    "maxmin": "339ed08845ffb3e028b99cdaea1ab2ad53d99789e7747a18b3d6327683737662",
    "proportional_fair": "71cd65aea67697e27139aaa66a23b7cda4fa741984d3929bfccc2386814ee4f0",
    "sum": "99221585f3716c5d09b7f15bb1345c450ab49c6ab736d40cf62d4bc4d481da45",
}


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


@pytest.mark.parametrize("objective", OBJECTIVE_NAMES)
def test_decide_score_fingerprint(objective):
    cfg = validate(SystemConfig(**DECIDE_SCENARIO, objective=objective))
    root = RngStream(cfg.seed)
    gains_sq = np.abs(init_channels(cfg, root).current) ** 2
    thresholds = draw_rate_thresholds(cfg, root)
    pset = init_particles(cfg, [derive_substream(root, (Domain.PARTICLE_INIT, i))
                                for i in range(cfg.n_users)])
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
