"""Digest pins for the Section-2 receive-path experiments.

Tables 1-3 and Figure 1 are pure functions of the trace seed.  The
goldens pin seed 0 quantity by quantity; these pins cover the whole
canonical-JSON point result at seeds 0-3 (the seeds the benchmark's
replicas run), so any change to trace generation, working-set analysis
or phase totals shows up as a digest change.
"""

import hashlib

import pytest

from repro.experiments import figure1, table1, table2, table3
from repro.harness.cache import canonical_json

TABLE1 = "4afceb994055cee61b80b029a895373c534d9981d722f17dc3403b20ee018e35"
TABLE2 = "c6c4284c27452a9c66b8b3c4b4d317b03adcbd616361fbee2bb9f85ce618136e"

#: sha256(canonical_json(compute_point(seed=s))) for s = 0..3.
DIGESTS = {
    table1: [TABLE1] * 4,
    table2: [TABLE2] * 4,
    table3: [
        "f4b05d7ff789da595510060d0ba307755be328ff2359534a12a3ac5f04d76d78",
        "9d1a7c4aabd5d4ef2c60e7326c84ca8fae151c8da130369e0ded57bb8378f770",
        "570641c861b85465795cfdf7fb901626f82e392f5b224a547c9e14a9b0ac1278",
        "55098d065bcc679d7d8a78e5fa58d5b2e275834e702cf55897ce7bbb8f88421c",
    ],
    figure1: [
        "85c43863e6712b68b2c6898e6e0221e315aaa8d7546f54a10836e6b978d1b48e",
        "2bb5485fed47ec0eaf0755f5f3179deb4f4bc89c4659503108df8d21a9b09091",
        "f383db0579b31b728acfa5a564082acdf9e3ceb74ddb798239da9ba08811dea4",
        "bd4c0f3b884aa9ef68773282b8b6916b6858905d01ecb258501d0a49aa3fb826",
    ],
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("module", list(DIGESTS), ids=lambda m: m.__name__.rsplit(".", 1)[1])
def test_point_digest_pinned(module, seed):
    point = module.compute_point(seed=seed)
    digest = hashlib.sha256(canonical_json(point).encode()).hexdigest()
    assert digest == DIGESTS[module][seed]
