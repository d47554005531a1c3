"""The shipped fixture JSON files and the synthetic-run recipes that
generated them must never drift apart.

The recipes rebuild each fixture through ``fit_kde``, whose ``np.exp`` takes
numpy's SIMD kernels, and the shipped files were written under AVX-512
dispatch; without it the rebuilt text differs in the last digits of many
masses (see the ROADMAP's known defects).
"""

import json

import pytest

from bestofn.fixtures import FIXTURE_NAMES, fixture_path
from fixture_recipes import build_fixture


def canonical_text(dist):
    return json.dumps(dist.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_shipped_json_matches_recipe(name):
    shipped = fixture_path(name).read_text(encoding="utf-8")
    assert canonical_text(build_fixture(name)) == shipped


def test_unknown_recipe_rejected():
    with pytest.raises(KeyError, match="probe-skewed"):
        build_fixture("probe_skewed")
