"""Golden buffer plans of the real flow.

Pins the sha256 of ``json.dumps(plan.as_dict(), sort_keys=True)`` for a
serial :class:`~repro.core.flow.BufferInsertionFlow` on s9234 at scale
0.2.  Solver speedups must keep plans byte-identical; a change that moves
one of these hashes changes results and has to say so.

``n_eval_samples`` only sizes the yield evaluation after the plan is
fixed, so it is kept small; every other setting is the default.
"""

import hashlib
import json

import pytest

from repro.circuit.suite import build_suite_circuit
from repro.core import BufferInsertionFlow, FlowConfig

GOLDEN = {
    1: "a23bf959dabe5f3d84990abd5e6f92fe16ffb8b146e900fa83c54c8f248c4415",
    2: "5562b2c9ee144eddb5306457e93ccab64ae35062f250445cc48ba28f246457ef",
    3: "c3834c8b504a085939283e0b8ce1c8bff69cc2a1edf4bfc7c288082128917861",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_s9234_plan_is_byte_identical(seed):
    design = build_suite_circuit("s9234", scale=0.2, seed=seed)
    config = FlowConfig(n_eval_samples=100, seed=seed, executor="serial")
    plan = BufferInsertionFlow(design, config).run().plan
    payload = json.dumps(plan.as_dict(), sort_keys=True)
    assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == GOLDEN[seed]
