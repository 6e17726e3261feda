"""Golden report digests: the CLI's JSON bytes for fixed small configs.

Each digest pins the bytes of one report. Any change to a computed float,
to a tie-break order or to serialization shows up as a changed digest.
"""

import hashlib
import json

import pytest

from dcmkit.cli import main

# small generators so the supply stage switches on for 60 servers
GEN = {"capacity": 4.0, "c_m": 0.08, "beta_g": 1.0, "count": 3}
BASE = {"days": 3, "servers": 60, "generator": GEN}
CUBIC = {
    "kind": "cubic",
    "b_max": 15.0,
    "regimes": [
        {"name": "day", "start": 8, "end": 20, "coeffs": [0.3]},
        {"name": "night", "start": 20, "end": 8, "coeffs": [0.2]},
    ],
}

# sections that leave keys out: each missing key takes the model's default
# (no cooling period: 24; no conditioning lin or const: 0.0)
PARTIAL = {
    "cooling": {"kind": "cubic", "regimes": [{"name": "all", "start": 0, "end": 0, "coeffs": [0.2]}]},
    "conditioning": {"kind": "quadratic", "quad": 0.01},
}

# two regimes at a period shorter than the 72-slot horizon, so slot hours wrap
# (hours 7-9 and 0-2 are "cool"), and at a period of 1000, where they never do
PERIOD_10 = {
    "kind": "cubic",
    "b_max": 15.0,
    "period": 10,
    "regimes": [
        {"name": "warm", "start": 3, "end": 7, "coeffs": [0.3]},
        {"name": "cool", "start": 7, "end": 3, "coeffs": [0.2]},
    ],
}
PERIOD_1000 = {
    "kind": "quadratic",
    "period": 1000,
    "regimes": [
        {"name": "early", "start": 0, "end": 40, "coeffs": [0.05, 0.15, 0.05]},
        {"name": "late", "start": 40, "end": 0, "coeffs": [0.03, 0.13, 0.04]},
    ],
}
# one regime owning every hour of the period
FULL_PERIOD = {"kind": "cubic", "regimes": [{"name": "all", "start": 0, "end": 0, "coeffs": [0.2]}]}

CASES = {
    "ny-compare": (
        {**BASE, "preset": "ny"},
        ["compare", "--lookahead", "4"],
        "c6607bd520ec44ac6b9fcb5ff3e222f6471a06f8417bd18a6f81eff6233317cf",
    ),
    "sj-compare": (
        {**BASE, "preset": "sj"},
        ["compare", "--lookahead", "4"],
        "d96b130aaf2f373327ec35dbd4e04e0371195e77915ec3483de226e20581b061",
    ),
    "flat-compare": (
        {**BASE, "preset": "flat"},
        ["compare", "--lookahead", "4"],
        "972dd0b68cb2c21adb94456e029d4b8d5024f00c363755e3dd36c3235e0960cc",
    ),
    "cubic-compare": (
        {**BASE, "preset": "ny", "cooling": CUBIC},
        ["compare", "--lookahead", "4"],
        "b49404b2779a20e5c4012e3bc825fab51f774e014c0c8afae9ea3320d0060a87",
    ),
    # --lookahead 16 leaves CHASE a supply window (ep_window 8 for ny, 7 for sj)
    "ny-compare-w16": (
        {**BASE, "preset": "ny"},
        ["compare", "--lookahead", "16"],
        "96aa1fb9c7057275ff9e5306c6e2f5ba34c74225119aba4b68cb152b1082f000",
    ),
    "sj-compare-w16": (
        {**BASE, "preset": "sj"},
        ["compare", "--lookahead", "16"],
        "35c25a9add8cfaa632614209e2bc2ed390149226b8173b389d211fb28986f049",
    ),
    # the standalone CHASE driver, and DCMON with a wide supply window (ep_window 21)
    "ny-solve-chase": (
        {**BASE, "preset": "ny"},
        ["solve", "--algo", "chase", "--lookahead", "4"],
        "773ae207625b7e00dac4d02da16fb9cc8b1339ea0f959b44cda68f39b4256eac",
    ),
    "sj-solve-dcmon-w30": (
        {**BASE, "preset": "sj"},
        ["solve", "--algo", "dcmon", "--lookahead", "30"],
        "17550779045c27bbd3e59b49d88d8ffe2fb2f67afdef55fc1479ee2b06db7f4c",
    ),
    # standalone GCSR, and 12-day runs whose 288 slots cross a 256-slot block
    "ny-solve-gcsr-w0": (
        {**BASE, "preset": "ny"},
        ["solve", "--algo", "gcsr", "--lookahead", "0"],
        "8ffbc63959b851b6fb0fbef17f20e45df02d7ddeeb1305a567b8a39cd58fb3e9",
    ),
    "ny-12d-solve-gcsr-w64": (
        {**BASE, "preset": "ny", "days": 12},
        ["solve", "--algo", "gcsr", "--lookahead", "64"],
        "f63535924216398cc93c535976a041f708f37e71b8cec4a6d4e8aebba69672c3",
    ),
    "sj-12d-compare-w16": (
        {**BASE, "preset": "sj", "days": 12},
        ["compare", "--lookahead", "16"],
        "593d046987788c553d7d04dd227767088a2335d1d58ffffbc50ab29c431bb828",
    ),
    # DCMON and CHASE across the 256-slot block with a supply window
    # (ep_window 8 for ny at w=16, 55 for sj at w=64)
    "ny-12d-solve-dcmon-w16": (
        {**BASE, "preset": "ny", "days": 12},
        ["solve", "--algo", "dcmon", "--lookahead", "16"],
        "84426012341f6857fcb5374f69e59bdb384b45769d994e7fe0682a619f33e0ec",
    ),
    "sj-12d-solve-dcmon-w64": (
        {**BASE, "preset": "sj", "days": 12},
        ["solve", "--algo", "dcmon", "--lookahead", "64"],
        "a7fae9c14f885d958bddffc292a66120aa0da703d37b98da8dc8df8f04d43149",
    ),
    "ny-12d-solve-chase-w16": (
        {**BASE, "preset": "ny", "days": 12},
        ["solve", "--algo", "chase", "--lookahead", "16"],
        "cd022f59ca8cffd4a4be35b4f5eec345036889515e5e633b053b5ca3a44d6cfc",
    ),
    # the presets' own scale, M = 552 servers: a demand chunk is 59 rows, so the
    # DP's stage-cost blocks and the walk's sub-steps are cut every 59 slots.
    # 22 days run the exact DP; 90 days are over its budget (decomposed reference)
    "ny-22d-compare": (
        {"preset": "ny"},
        ["compare", "--lookahead", "4"],
        "76d91b707c7affb5acb0054c00d36bb5d461450e043630ff50f296eee79d1a48",
    ),
    "sj-22d-compare": (
        {"preset": "sj"},
        ["compare", "--lookahead", "4"],
        "18d35bd14793cc16b60ae81c98e06a9b19ad14954c3888afb98e8a132a74358f",
    ),
    "flat-22d-compare": (
        {"preset": "flat"},
        ["compare", "--lookahead", "4"],
        "63abac7bff29a49d008269abe8e2ff3a80024f8100fff4fa13210e771c7c8daa",
    ),
    "ny-90d-compare-w16": (
        {"preset": "ny", "days": 90},
        ["compare", "--lookahead", "16"],
        "6306729f6ba180e53d969d96c9e5d4ed5c714af03437d81f96cb5cde830b99f7",
    ),
    "ny-sweep": (
        {**BASE, "preset": "ny"},
        ["sweep"],
        "3226616bd67f0ab140f36f592ec320ac0527b67f4cce8ac076e570b5a0e509d3",
    ),
    # the generator axis: every count's reference is exact at 3 days; at 90 days
    # count 0 is exact and counts 5 and 10 fall back to the decomposition
    "ny-sweep-generators": (
        {**BASE, "lookahead": 4, "sweep": {"axis": "generators", "values": [0, 1, 2, 3]}},
        ["sweep"],
        "09bdd375dbe017158a0ed246d41b65d5134a5b8d8f64e87bca470d30ddfd7328",
    ),
    "ny-90d-sweep-generators-w16": (
        {"preset": "ny", "days": 90, "lookahead": 16,
         "sweep": {"axis": "generators", "values": [0, 5, 10]}},
        ["sweep"],
        "58f107d6d98ae0e2463a0221c547522d305e6c242b4f538ff816ce44c31cc98f",
    ),
    # the solvers --algo runs alone, and the CSV writers of both report kinds
    "ny-solve-offline": (
        {**BASE, "preset": "ny"},
        ["solve", "--algo", "offline"],
        "596cf4bd467c66d1f4a4b5cdf24d2bd3546c45200b4bdea10742bc5a50f35539",
    ),
    "ny-solve-static": (
        {**BASE, "preset": "ny"},
        ["solve", "--algo", "static"],
        "52368e73acd44ee80d115c9fec396a4c3a1a38abe8fcb900f799b60dafc1add5",
    ),
    "ny-solve-cpoff": (
        {**BASE, "preset": "ny"},
        ["solve", "--algo", "cpoff"],
        "6c17dc1f85ede19c61882af6c8503304a36f970d9a9606f515e6223d194a4452",
    ),
    "ny-solve-ofa": (
        {**BASE, "preset": "ny"},
        ["solve", "--algo", "ofa"],
        "37a881810da352487dd25905f707e4f7f920b793efa022f0c6fbb8105f0229a0",
    ),
    "ny-compare-csv": (
        {**BASE, "preset": "ny"},
        ["compare", "--lookahead", "4", "--format", "csv"],
        "52eade843f2da14b5f8fe6506e959c990a7b96aebf38619d0449ff8cf947e202",
    ),
    "ny-sweep-generators-csv": (
        {**BASE, "lookahead": 4, "sweep": {"axis": "generators", "values": [0, 1, 2, 3]}},
        ["sweep", "--format", "csv"],
        "b2e7b5adeed6d3a8802fb7d5feb9150811a497caca1fc0b79fb571f62bc35ba0",
    ),
    "ny-partial-overheads-compare": (
        {**BASE, "preset": "ny", **PARTIAL},
        ["compare", "--lookahead", "4"],
        "455191c09964dc746d38bdbd9b257de0bba84b03366409c6e19c12adcdeae941",
    ),
    "ny-period10-compare": (
        {**BASE, "preset": "ny", "cooling": PERIOD_10},
        ["compare", "--lookahead", "4"],
        "71d13158c5adf68af332b7f389f7440c41f2a1bee6b46e395b002ea167c56a9d",
    ),
    "sj-period1000-compare": (
        {**BASE, "preset": "sj", "cooling": PERIOD_1000},
        ["compare", "--lookahead", "4"],
        "ca6460d5ca43973dcc5e63031565ad823ccdd93ebcda99fcef283eaf9c7ab152",
    ),
    "ny-full-period-solve-static": (
        {**BASE, "preset": "ny", "cooling": {**FULL_PERIOD, "period": 24}},
        ["solve", "--algo", "static"],
        "6312d5c6c3bd5fdb2276dbc0b4707476b47b97d73947e42843d0c494ba5f04f9",
    ),
    # the look-ahead axis at the presets' scale: windows 0-8 cover part of the
    # break-even span (alpha_s < 1, no supply window), 16 and up all of it
    # (alpha_s = 1) with a supply window, so the hybrid bounds have alpha_g > 0
    "sj-22d-sweep-lookahead": (
        {"preset": "sj", "sweep": {"axis": "lookahead", "values": [0, 4, 8, 16, 32, 64, 200]}},
        ["sweep"],
        "3eaee7e5611b28cbf8743ea110012dfd82c6f15bbdbabf06c388ac66746f216b",
    ),
    # a standalone slice walk at M = 56, whose 288 slots a block cuts at 256
    "ny-12d-solve-cpoff": (
        {**BASE, "preset": "ny", "days": 12},
        ["solve", "--algo", "cpoff"],
        "9a3b715082101ffecb703b5445ec267d0b0f058b97de5cc93f8d536e5b5d5896",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden_digest(tmp_path, name):
    cfg, argv, digest = CASES[name]
    cfg_path, out_path = tmp_path / "run.json", tmp_path / "report.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(argv + ["--config", str(cfg_path), "--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_a_full_period_regime_reports_the_same_bytes_at_any_period(tmp_path):
    # the regimes are checked at their bounds, so a period past int64 costs
    # no more than period 24 and gives its bytes
    cfg, argv, digest = CASES["ny-full-period-solve-static"]
    cfg_path, out_path = tmp_path / "run.json", tmp_path / "report.json"
    cfg_path.write_text(json.dumps({**cfg, "cooling": {**FULL_PERIOD, "period": 10**30}}))
    assert main(argv + ["--config", str(cfg_path), "--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest
