"""The three benchmark workloads, called through nhcz's public API.

Each workload has a ``setup`` that builds its inputs from the seed (timed as
``setup_s``), a ``run`` that makes the timed calls, ``gates`` that check one
run's outputs, a ``digest`` of those outputs (reps of one seed must agree
byte for byte), and an optional ``reference`` check that runs after the
timer stops.  Every call goes through a module attribute (``nhcz.X``) so the
tracer's wrappers see it.  ``tiny`` shrinks every size for the quick test
and keeps every metric name.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import nhcz
from nhcz.fastsum import _max_rel_err
from nhcz.reports import canonical_json
from nhcz.verify import SCALING_HEADER


@dataclass(frozen=True)
class Workload:
    setup: Callable  # (seed, tiny) -> inputs
    run: Callable  # (inputs, mark) -> outputs; mark(label) names the current ladder rung
    gates: Callable  # (inputs, outputs) -> [(gate name, passed)]
    digest: Callable  # outputs -> bytes
    reference: Callable | None = None  # (inputs, outputs) -> (gates, max_rel_err), after the timer


def _sha(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.digest()


# --- scaling_row: one cascade row of verify.scaling_study ---------------------

@dataclass
class ScalingInputs:
    seed: int
    d: float
    packing_target: float
    m: int
    n_per_side: int
    family: object
    cloud: object


def scaling_setup(seed, tiny):
    m, n = (16, 4) if tiny else (256, 8)
    d, target = 1.2, 4.0
    # the family scaling_study draws for this rung; the study builds it again
    # itself, so this is the input cost and the row is checked against it
    fam = nhcz.generate_cascade_family(seed=1_000_003 * seed + m, count=m, d=d, packing_target=target)
    cloud = nhcz.build_quadrature(nhcz.build_measure(fam), n)
    return ScalingInputs(seed, d, target, m, n, fam, cloud)


def scaling_run(inp, mark):
    rows, _ = nhcz.scaling_study(
        d=inp.d, packing_target=inp.packing_target, m_ladder=[inp.m], n_per_side=inp.n_per_side, seed=inp.seed
    )
    return rows[0]


def scaling_gates(inp, row):
    rec = dict(zip(SCALING_HEADER, row))
    constants = [float(rec[k]) for k in ("c_pack", "c_growth", "sigma_max", "c_dom", "c_max_op", "sup_t1", "sup_t1_adjoint")]
    return [
        ("sigma_converged", rec["sigma_converged"] is True),
        ("family_complete", rec["complete"] is True and rec["generated"] == rec["M"]),
        ("c_pack_within_target", float(rec["c_pack"]) <= inp.packing_target),
        ("constants_finite_positive", all(math.isfinite(c) and c > 0 for c in constants)),
        (
            "row_matches_setup_family",
            rec["n_nodes"] == len(inp.cloud) and rec["generated"] == len(inp.family) and rec["c_pack"] == repr(inp.family.c_pack),
        ),
    ]


def scaling_digest(row):
    return ",".join(str(v) for v in row).encode()


# --- treecode_ladder: tree build and two applies per size ---------------------

LADDER = (("n8192", 8192), ("n32768", 32768), ("n100000", 100_000))
TINY_LADDER = (("n8192", 512), ("n32768", 1024), ("n100000", 2048))
LADDER_D, LADDER_TARGET, LADDER_N = 1.2, 4.0, 16  # the `bench` command's settings
TREE_PARAMS = nhcz.ExpansionParams(order=12, theta=0.5, leaf_cap=32)
TREE_VARIANTS = ("modified", "adjoint")
TREE_TOL = 1e-6  # acceptance criterion 9
ORACLE_TARGETS = 512
ORACLE_CHUNK = 64  # targets per direct call; bounds the check's dense blocks


@dataclass
class Rung:
    label: str
    family: object
    cloud: object
    field: object
    targets: np.ndarray


def ladder_setup(seed, tiny):
    # families, fields and oracle targets are seeded as fastsum.benchmark does
    rungs = []
    for si, (label, size) in enumerate(TINY_LADDER if tiny else LADDER):
        m = max(math.ceil(size / LADDER_N**2), 2)
        fam = nhcz.generate_family(
            seed=1_000_003 * seed + si,
            count=m,
            d=LADDER_D,
            packing_target=LADDER_TARGET,
            k_range=nhcz.suggest_generation_range(m, LADDER_D, LADDER_TARGET),
        )
        cloud = nhcz.build_quadrature(nhcz.build_measure(fam), LADDER_N)
        n = len(cloud)
        rng = np.random.default_rng(seed + si)
        f = nhcz.Field(rng.standard_normal(n) + 1j * rng.standard_normal(n), "mu")
        targets = np.sort(rng.choice(n, size=min(ORACLE_TARGETS, n), replace=False))
        rungs.append(Rung(label, fam, cloud, f, targets))
    return rungs


def ladder_run(rungs, mark):
    out = []
    for r in rungs:
        mark(r.label)
        tree = nhcz.build_tree(r.cloud, TREE_PARAMS.leaf_cap)
        out.append(
            {v: nhcz.apply_fast(nhcz.KernelSpec(v, r.family), tree, r.field, TREE_PARAMS).values for v in TREE_VARIANTS}
        )
    return out


def ladder_gates(rungs, out):
    return [
        (f"finite[{r.label}/{v}]", bool(np.isfinite(vals[v]).all()))
        for r, vals in zip(rungs, out)
        for v in TREE_VARIANTS
    ]


def ladder_digest(out):
    return _sha(*(vals[v].tobytes() for vals in out for v in TREE_VARIANTS))


def ladder_reference(rungs, out):
    gates, worst = [], 0.0
    for r, vals in zip(rungs, out):
        for v in TREE_VARIANTS:
            spec = nhcz.KernelSpec(v, r.family)
            direct = np.concatenate(
                [
                    nhcz.operators.apply_direct_targets(spec, r.cloud, r.field, r.targets[i : i + ORACLE_CHUNK])
                    for i in range(0, r.targets.size, ORACLE_CHUNK)
                ]
            )
            err = _max_rel_err(vals[v][r.targets], direct)
            gates.append((f"max_rel_err[{r.label}/{v}]", err <= TREE_TOL))
            worst = max(worst, err)
    return gates, worst


# --- small_direct: the direct-sum checks on three small uniform families ----

DIRECT_D = (0.8, 1.2, 1.6)
DIRECT_TARGET = 4.0
# The power iteration in check_main_inequality takes 2 to 26 iterations
# depending on the family and its start vector, which moved run_s by more
# than its bound between seeds.  So the families and the norm check's seed
# are fixed (family seeds 0, 1, 2; norm seed 0), and --seed seeds the random
# fields and samples of the other checks.
DIRECT_NORM_SEED = 0


@dataclass
class DirectInputs:
    seed: int
    families: list  # [(family, n=8 cloud)]
    cz_budget: int


def direct_setup(seed, tiny):
    m = 4 if tiny else 32
    families = []
    for di, d in enumerate(DIRECT_D):
        fam = nhcz.generate_family(
            seed=di,
            count=m,
            d=d,
            packing_target=DIRECT_TARGET,
            k_range=nhcz.suggest_generation_range(m, d, DIRECT_TARGET),
        )
        families.append((fam, nhcz.build_quadrature(nhcz.build_measure(fam), 8)))
    return DirectInputs(seed, families, 2_000 if tiny else 200_000)


def direct_run(inp, mark):
    out, seed = [], inp.seed
    for fam, cloud in inp.families:
        out.append(
            {
                "main": nhcz.check_main_inequality(fam, n_per_side=8, seed=DIRECT_NORM_SEED),
                "domination": nhcz.check_domination(fam, n_per_side=6, seed=seed),
                "decomposition": nhcz.check_decomposition(fam, n_per_side=4, seed=seed),
                "cz": nhcz.cz_constants(nhcz.KernelSpec("modified", fam), cloud, tau=0.6, budget=inp.cz_budget, seed=seed),
                "a2": nhcz.a2_constant(cloud),
            }
        )
    return out


def direct_gates(inp, out):
    gates = []
    for (fam, _), rep in zip(inp.families, out):
        tag = f"d={fam.d}"
        for check in ("main", "domination", "decomposition"):
            gates.append((f"{check}.passed[{tag}]", bool(rep[check].passed)))
        cz = rep["cz"]
        gates.append((f"cz.passed[{tag}]", all(math.isfinite(v) for v in (cz.a_i, cz.a_ii, cz.a_iii))))
        gates.append((f"cz.iii2_counterexamples[{tag}]", cz.iii2_counterexamples == 0))
        gates.append((f"a2.passed[{tag}]", math.isfinite(rep["a2"][0])))
    return gates


def direct_digest(out):
    parts = []
    for rep in out:
        for check in ("main", "domination", "decomposition"):
            parts.append(canonical_json(rep[check].to_json_dict(include_runtime=False)).encode())
        cz = rep["cz"]
        parts.append(canonical_json([cz, cz.witness_i, cz.witness_ii, cz.witness_iii]).encode())
        c_a2, ball = rep["a2"]
        parts.append(repr((c_a2, ball.cx, ball.cy, ball.radius)).encode())
    return _sha(*parts)


WORKLOADS = {
    "scaling_row": Workload(scaling_setup, scaling_run, scaling_gates, scaling_digest),
    "treecode_ladder": Workload(ladder_setup, ladder_run, ladder_gates, ladder_digest, reference=ladder_reference),
    "small_direct": Workload(direct_setup, direct_run, direct_gates, direct_digest),
}
RUNG_LABELS = tuple(label for label, _ in LADDER)
