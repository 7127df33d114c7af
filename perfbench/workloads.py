"""Seeded scenario generator for the three benchmark workloads.

A workload seed picks a fixed list of operations (scenario dicts, one per
``run_scenario`` call); one *pass* runs that list once, and a benchmark run
repeats passes.  Every dict is drawn from a small pool of variants whose
reference outputs are recorded in ``perfbench/reference``, so the gate can
compare any seed's outputs.  The variants of one workload cost the same
work: BVP loads differ by the sign of the traction (an exact symmetry of
the discrete problem) and by a +-1% amplitude change; point paths differ by
the deviatoric stress direction (the point law is isotropic, so the
iteration counts agree to a few in 10^4) and the same +-1% amplitude.
The seed therefore changes the inputs and outputs, not the amount of work.
"""

import hashlib
import json

# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = ("bvp-fine", "bvp-schedule", "point-paths")

AMP_FACTORS = (0.99, 1.01)

# unit deviators (xx yy zz yz xz xy), drawn once from a normal distribution
DIRECTIONS = (
    (0.362709, 0.019187, -0.381895, 0.288127, -0.469023, -0.241072),
    (-0.683904, 0.354535, 0.329369, -0.001407, 0.271483, -0.274488),
    (-0.025619, -0.363936, 0.389555, -0.002494, 0.537141, 0.262762),
    (-0.002595, -0.294965, 0.29756, -0.197879, 0.115661, 0.599742),
    (0.411758, 0.083012, -0.49477, 0.030368, -0.134842, -0.519883),
    (0.754567, -0.558125, -0.196442, 0.111389, -0.158113, -0.053488),
    (-0.194897, 0.412128, -0.217231, 0.424193, -0.425158, -0.10858),
    (-0.212614, 0.07077, 0.141844, 0.357639, 0.383693, 0.435554),
)

GAMMA_SEEDS = (0, 1, 2, 3)

STUDIES_PER_PASS = 3
DIRECTIONS_PER_PASS = 2


def _pick(workload, seed, slot, k):
    """Deterministic index in range(k) for one slot of one seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:{slot}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % k


def _pull_program(sign, amp):
    return {"times": [0.0, 0.5, 1.0],
            "traction": {"x1": [sign, 0.0, 0.0]},
            "traction_amps": [0.0, amp, 0.0]}


# (traction sign, peak amplitude, verification seed) per BVP variant
BVP_VARIANTS = tuple((sign, round(3.0 * f, 12), k)
                     for k, (sign, f) in enumerate(
                         (s, f) for s in (1.0, -1.0) for f in AMP_FACTORS))


def bvp_run(variant, n=10, steps=16, probes=100):
    sign, amp, seed = variant
    return {"kind": "bvp-run", "seed": seed, "probes": probes,
            "material": {"rho": 0.1, "nu": 0.01},
            "time": {"T": 1.0, "steps": steps},
            "mesh": {"extents": [1.0, 1.0, 1.0], "n": n, "dirichlet": ["x0"]},
            "program": _pull_program(sign, amp)}


def bvp_conv(variant, steps=8, rhos=(0.1, 0.05, 0.025), tau=0.125, n=2):
    sign, amp, _ = variant
    return {"kind": "bvp-conv", "study": "evolution",
            "material": {"rho": rhos[0], "nu": 0.01},
            "time": {"T": 1.0, "steps": steps},
            "mesh": {"extents": [1.0, 1.0, 1.0], "n": n, "dirichlet": ["x0"]},
            "program": _pull_program(sign, amp),
            "schedule": {"rho": list(rhos), "nu": 0.01, "tau": tau, "n": n,
                         "label": "fig3-rho"}}


def _path(direction, amps, times):
    return {"direction": list(direction), "amplitudes": amps, "times": times}


def point_ops(k, taus=(0.0625, 0.03125, 0.015625, 0.0078125, 0.00390625),
              reference_tau=0.00048828125, steps=64, tau_rho=0.0625):
    """conv-tau, sharp point-test and conv-rho for direction variant k."""
    d = DIRECTIONS[k]
    f = AMP_FACTORS[k % 2]
    return [
        {"kind": "conv-tau", "material": {"rho": 0.1},
         "stress_path": _path(d, [0.0, round(2.2 * f, 12), 0.0],
                              [0.0, 1.0 / 3.0, 1.0]),
         "taus": list(taus), "reference_tau": reference_tau},
        {"kind": "point-test", "seed": k, "probes": 200,
         "material": {"rho": 0.0}, "time": {"T": 1.0, "steps": steps},
         "stress_path": _path(d, [0.0, round(3.0 * f, 12), 0.0],
                              [0.0, 0.5, 1.0])},
        {"kind": "conv-rho",
         "stress_path": _path(d, [0.0, round(3.0 * f, 12), 0.0],
                              [0.0, 0.5, 1.0]),
         "schedule": {"rho": [0.1, 0.01, 0.001, 0.0001], "tau": tau_rho,
                      "label": "fig1-b"}},
    ]


def gamma_table(seed, inside=40, outside=10):
    return {"kind": "gamma-table", "seed": seed,
            "rhos": [1.0, 0.1, 0.01, 0.001, 0.0001, 1e-05, 1e-06, 1e-07],
            "grid": {"inside": inside, "outside": outside}}


def ops(workload, seed):
    """The operation list of one pass for the given workload and seed."""
    if workload == "bvp-fine":
        return [bvp_run(BVP_VARIANTS[_pick(workload, seed, 0, len(BVP_VARIANTS))])]
    if workload == "bvp-schedule":
        return [bvp_conv(BVP_VARIANTS[_pick(workload, seed, i, len(BVP_VARIANTS))])
                for i in range(STUDIES_PER_PASS)]
    if workload == "point-paths":
        out = [gamma_table(GAMMA_SEEDS[_pick(workload, seed, "gamma",
                                             len(GAMMA_SEEDS))])]
        for i in range(DIRECTIONS_PER_PASS):
            out += point_ops(_pick(workload, seed, i, len(DIRECTIONS)))
        return out
    raise KeyError(workload)


def warmup_ops(workload, seed):
    """Small operations of the same kinds, run once before timing starts."""
    if workload == "bvp-fine":
        return [bvp_run(BVP_VARIANTS[_pick(workload, seed, 0, len(BVP_VARIANTS))],
                        n=2, steps=4, probes=10)]
    if workload == "bvp-schedule":
        return [bvp_conv(BVP_VARIANTS[_pick(workload, seed, 0, len(BVP_VARIANTS))],
                         steps=2, rhos=(0.1, 0.05), tau=0.5, n=1)]
    if workload == "point-paths":
        k = _pick(workload, seed, 0, len(DIRECTIONS))
        return [gamma_table(0, inside=4, outside=2),
                *point_ops(k, taus=(0.25, 0.125), reference_tau=0.015625,
                           steps=8, tau_rho=0.25)]
    raise KeyError(workload)


def pool(workload):
    """Every scenario a seed can draw, for recording reference outputs."""
    if workload in ("bvp-fine", "bvp-schedule"):
        make = bvp_run if workload == "bvp-fine" else bvp_conv
        return [make(v) for v in BVP_VARIANTS]
    if workload == "point-paths":
        out = [gamma_table(s) for s in GAMMA_SEEDS]
        for k in range(len(DIRECTIONS)):
            out += point_ops(k)
        return out
    raise KeyError(workload)


def key(scenario):
    """Canonical identity of a scenario dict (reference-store key)."""
    text = json.dumps(scenario, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
