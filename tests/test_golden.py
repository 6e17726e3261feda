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
    "ny-sweep": (
        {**BASE, "preset": "ny"},
        ["sweep"],
        "3226616bd67f0ab140f36f592ec320ac0527b67f4cce8ac076e570b5a0e509d3",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden_digest(tmp_path, name):
    cfg, argv, digest = CASES[name]
    cfg_path, out_path = tmp_path / "run.json", tmp_path / "report.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(argv + ["--config", str(cfg_path), "--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest
