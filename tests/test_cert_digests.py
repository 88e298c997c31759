"""Pinned certificates: the digests of ``cert_digests.COUNT`` certificates of
a seeded stream (ties and repeated values included) at budgets 40 and 80 on
both routes must equal those kept in ``data/cert_digests.json``.

They pin every byte of ``to_json_dict()`` and of ``repr`` of the
certificates, so that work on ``certify``'s path cannot change an output.
``PYTHONPATH=src python tests/cert_digests.py`` prints freshly recorded
digests as JSON.
"""

import json
from pathlib import Path

import pytest

from cert_digests import CONFIGS, COUNT, SEED, config_id, digests, points

PINNED = json.loads((Path(__file__).parent / "data" / "cert_digests.json").read_text())


def test_the_stream_is_the_recorded_one():
    assert (PINNED["seed"], PINNED["count"]) == (SEED, COUNT)
    assert sorted(PINNED["digests"]) == sorted(config_id(*config) for config in CONFIGS)


@pytest.mark.parametrize("budget, route", CONFIGS, ids=[config_id(*c) for c in CONFIGS])
def test_certificates_match_the_pinned_digests(budget, route):
    assert digests(budget, route, points()) == PINNED["digests"][config_id(budget, route)]
