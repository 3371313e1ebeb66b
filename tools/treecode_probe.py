"""The treecode's outputs on ``nhcz bench``'s family and field, one JSON
leaf per real and per imaginary part.

    python3 tools/treecode_probe.py --n 8192 --out DIR

Builds the family, quadrature cloud and random field that ``nhcz bench
--sizes N`` builds for its first size at seed 0, applies the modified and
the adjoint operator with ``apply_fast`` at ``bench``'s expansion
parameters, and writes ``DIR/apply.json``: {variant: {"re": [...], "im":
[...]}} in node order.  Python floats print as their shortest round-trip
decimal, so each leaf holds its output's bits.  Only public names that
nhcz has long exported are used, so ``tools/bitdiff.py`` can run the probe
against older revisions as well.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

import nhcz

# the rung settings of ``nhcz bench``: nodes per square side and packing target
N_PER_SIDE, PACKING_TARGET = 16, 4.0


def outputs(n: int) -> dict:
    """{variant: {"re": [...], "im": [...]}} of ``apply_fast`` on the family
    and field of ``verify.benchmark``'s rung of ``n`` nodes at seed 0."""
    d, count = 1.2, max(math.ceil(n / N_PER_SIDE**2), 2)
    fam = nhcz.generate_family(
        seed=0,
        count=count,
        d=d,
        packing_target=PACKING_TARGET,
        k_range=nhcz.suggest_generation_range(count, d, PACKING_TARGET),
    )
    cloud = nhcz.build_quadrature(nhcz.build_measure(fam), N_PER_SIDE)
    rng = np.random.default_rng(0)
    f = nhcz.Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
    params = nhcz.ExpansionParams(order=12, theta=0.5)
    tree = nhcz.build_tree(cloud, params.leaf_cap)
    out = {}
    for variant in ("modified", "adjoint"):
        values = nhcz.apply_fast(nhcz.KernelSpec(variant, fam), tree, f, params).values
        out[variant] = {"re": values.real.tolist(), "im": values.imag.tolist()}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", type=int, required=True, help="the rung's requested node count")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "apply.json").write_text(json.dumps(outputs(args.n)) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
