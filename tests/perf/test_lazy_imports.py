"""scipy and networkx are loaded only where a filter, a Wolf sum or a
cluster model needs them.

``import repro`` loads numpy and nothing heavier (scipy alone is ~25 MB of
RSS, networkx ~18 MB): the Kalman core binds its BLAS routines when the
first ``KalmanState`` is built, the lanes resolve the BLAS thread count on
the first ``blas_threads()`` call, ``WolfCoulomb`` resolves ``erfc`` when
it is built, and the cluster topology imports networkx when it builds a
graph.  Where they bind changes no byte of what they compute.
"""

import hashlib
import json
import os
import subprocess
import sys
import textwrap

from repro.data import generate_dataset
from tests.autograd.test_demand_backward import PINNED

#: a fresh interpreter serves one frame, lists the scipy and networkx
#: modules it has loaded, then trains with the recipe (and so the
#: fingerprint) of ``test_demand_backward.PINNED[True]``
_SERVE_THEN_TRAIN = textwrap.dedent("""
    import hashlib
    import json
    import sys

    import numpy as np

    import repro
    from repro.data import generate_dataset
    from repro.model import DeePMD, DeePMDConfig, ModelSession, make_batch
    from repro.optim import FEKF, KalmanConfig

    def heavy_modules():
        return sorted(
            m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx")
        )

    ds = generate_dataset(
        "Cu", frames_per_temperature=6, size="small", equilibration_steps=10, stride=2
    )
    cfg = DeePMDConfig.scaled_down(rcut=3.5, nmax=16)
    model = DeePMD.for_dataset(ds, cfg, seed=1)
    ModelSession(model).predict(ds.positions[0], ds.species, ds.cell)
    served = heavy_modules()
    opt = FEKF(model, KalmanConfig(blocksize=1024), seed=11)
    for i in range(3):
        opt.step_batch(make_batch(ds, np.arange(3) + 3 * i, cfg))
    sha = hashlib.sha256(model.params.flatten().tobytes()).hexdigest()
    print(json.dumps({"served": served, "trained": heavy_modules(),
                      "fingerprint": [sha, opt.kalman.checksum()]}))
""")


def test_serving_loads_no_scipy_and_training_keeps_its_bytes():
    run = subprocess.run(
        [sys.executable, "-c", _SERVE_THEN_TRAIN], capture_output=True, text=True,
        check=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    out = json.loads(run.stdout.splitlines()[-1])
    assert out["served"] == []
    assert "scipy.linalg.cython_blas" in out["trained"]
    assert tuple(out["fingerprint"]) == PINNED[True]


#: sha256 of the positions, energies and forces of the NaCl recipe below,
#: recorded with ``erfc`` imported at module load
NACL_LABELS = [
    "b44aedbfa07e701cd453a8daec7310d85e475eba5306bb7511b1fe1373b28b1b",
    "f0830544c386c366c5f42aa7a66d660625b2c726514145ddd6140ef06f65b070",
    "b9407bcfd948119b15495b059c25985bd454f044c750bb2eb55b9903adc1d557",
]


def test_wolf_coulomb_labels_keep_their_bytes():
    ds = generate_dataset("NaCl", frames_per_temperature=2, size="small",
                          equilibration_steps=4, stride=2)
    assert [hashlib.sha256(a.tobytes()).hexdigest()
            for a in (ds.positions, ds.energies, ds.forces)] == NACL_LABELS
