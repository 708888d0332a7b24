"""The package surface that the benchmark harness (perfbench/worker.py) uses.

The harness drives the package through these names and rebuilds the CLI
documents from them, so a prune that drops one breaks the benchmark.
"""

import dataclasses
import importlib
import inspect

from eisencf.cli import RunConfig, build_parser
from eisencf.ergodic import Quadrature, ergodic_report, estimate_C0_and_levy_integral
from eisencf.verifier import CHECKS

WORKER_IMPORTS = {
    "eisencf.cli": ["RunConfig", "build_parser", "main"],
    "eisencf._util": ["canonical_json", "derive_seed"],
    "eisencf.verifier": ["CHECKS"],
    "eisencf.cf": ["DomainError", "OrbitSignal", "convergents", "expand", "step_T"],
    "eisencf.exact": ["ETAS", "FieldElement", "embed", "field_element_to_json",
                      "parse_field_element"],
    "eisencf.hexdomain": ["floor_J", "in_U"],
    "eisencf.regions": ["build_catalog", "classify_cells_complex"],
    "eisencf.ergodic": ["CELLS", "ErgodicReport", "estimate_C0_and_levy_integral",
                        "kernel_integral", "levy_birkhoff", "occupation_frequencies",
                        "region_arc_quadrature", "simulate_orbits"],
    "eisencf.floatpath": ["SQRT3", "hex_margin", "t_step"],
}


def test_worker_imports_resolve():
    missing = [f"{mod}.{name}" for mod, names in WORKER_IMPORTS.items()
               for name in names if not hasattr(importlib.import_module(mod), name)]
    assert missing == []


def test_run_config_fields():
    cfg = RunConfig()
    for name in ("seed", "samples", "orbits", "length", "depth", "grid", "digits", "tol"):
        assert hasattr(cfg, name), name
    cfg.validate()


def test_quadrature_fields():
    names = {f.name for f in dataclasses.fields(Quadrature)}
    assert {"levy_integral_pairs", "levy_pairs_err", "min_kernel_dist"} <= names


def test_quadrature_signature():
    # the worker calls estimate_C0_and_levy_integral(quad_samples, seed, tol)
    params = list(inspect.signature(estimate_C0_and_levy_integral).parameters)
    assert params[:3] == ["quad_samples", "seed", "tol"]


def test_ergodic_report_info_keys():
    # the worker rebuilds the levy document with exactly these info keys
    rep = ergodic_report(orbits=2, length=10, quad_samples=200, seed=1)
    assert set(rep.info) == {"orbits", "length", "quad_samples", "seed",
                             "levy_integral_pair_sampled", "levy_integral_pair_err"}


def test_checks_take_samples_depth_seed_positionally():
    # the worker calls CHECKS[name](samples, depth, seed)
    for name, check in CHECKS.items():
        inspect.signature(check).bind(1000, 20, 1)


def test_worker_request_shapes_parse():
    parser = build_parser()
    for argv in (["verify", "all", "--seed", "1", "--samples", "10", "--out", "v.json"],
                 ["expand", "--z", "1/5+1/9r", "--digits", "40"],
                 ["levy", "--orbits", "4", "--length", "40", "--samples", "400",
                  "--seed", "1"]):
        assert parser.parse_args(argv).command == argv[0]
