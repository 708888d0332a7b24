import ast
import hashlib
import importlib
import inspect
import json
import pkgutil
import math
import re
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import eisencf
from eisencf import ergodic, verifier
from eisencf._util import canonical_json
from eisencf.cli import RunConfig, _ratio, build_parser, main
from eisencf.exact import BAND, EisensteinInt, embed
from eisencf.verifier import CHECKS
from test_bench_surface import WORKER_IMPORTS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fresh_python(*args):
    """stdout of a new interpreter run with ``args``, on this package."""
    src = str(Path(eisencf.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# the bytes of a terminating, a special and a 60-digit expansion: a leaner
# exact step must leave every digit and convergent as it is
EXPAND_PINS = {
    ("--z", "3/10+1/7r", "--digits", "40"):
    "0bf109ac8da943bf132c11ccdef183579f9dd0d4a8495af215afdc923f9fd2d1",
    ("--z", "-1/2-1/2r"):
    "87542a205c373569d79a80d2ba99243f326c12e1e9001726cbf09a5726902816",
    ("--z", "123456789012345678901/300000000000000000000+1/7r", "--digits", "60"):
    "f504f8aec3ee962da68e563eb89fdfdc2fcd72f3ae8f6ab289a5997d3fc167a7",
}
# the bytes of each check report of `verify all --seed 42 --samples 10000`:
# the four sampled checks as they were when `frs` and `dual` were proved on
# box trees, and those two since they are decided exactly
VERIFY_PINS = {
    "inversions": "a5707bdfb4599e3aedd8f715bece2c69d1c3e9991c33c453cad1aaa30b5af0ff",
    "finite_range_structure": "485dbbf83019ac726217e637a2be3f648870318bc5186e9341d0e5b4b68e90df",
    "dual_inclusions": "2bcc8315df268d8543622ad23b6e71fab1ccc8dc59c24ec81ffc23ae8157db8b",
    "dual_orbit": "25adc8e2417b0aa34b60e5c65ea112e0aefca97de3a4c65474061846500f47c5",
    "monotonicity": "1d4d9836e88660e30868f584e9979d3db2e30f10326f05870c77fbf8e485900f",
    "special_points": "44cf1f8257c88d7ce1b7c9aba520479776948affd48bf60b66034b556597c715",
}
# the bytes of a 16 x 16 density grid
DENSITY_16 = "dce9d885ffd6df63fbb331078a8f0a47ba7a6faec688346d5d8885ae101cfb3a"

# command lines that together run every def in src/eisencf but those below
TRACED_COMMANDS = [
    ["expand", "--z", "123456789012345678901/300000000000000000000+1/7r",
     "--digits", "60"],
    ["expand", "--z", "-1/2-1/2r"],
    ["expand", "--z", "0+0r"],
    ["verify", "all", "--samples", "10"],
    ["levy", "--orbits", "2", "--length", "100", "--samples", "1000"],
    ["density", "--grid", "4"],
    ["render", "regions"],
]
# the defs that no command runs, each with its reason; the benchmark-only
# ones are the names of WORKER_IMPORTS
NOT_RUN = {
    "_util.CheckReport.fail": "runs only when a check fails",
    "cf.ConvergentPair.det": "value-type algebra the tests use",
    "exact.FieldElement.conj": "value-type algebra the tests use",
    "exact.FieldElement.to_eisenstein": "value-type algebra the tests use",
}
# runs TRACED_COMMANDS under a profiler and prints (file, first line) of
# every code object of the package that was called
TRACE = """
import json, sys
argvs, out = json.loads(sys.argv[1]), sys.argv[2]
ran = set()
def note(frame, event, arg):
    if event == "call" and "eisencf" in frame.f_code.co_filename:
        ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(note)
from eisencf.cli import main
for i, argv in enumerate(argvs):
    assert main([*argv, "--out", f"{out}/{i}"]) == 0, argv
sys.setprofile(None)
print(json.dumps(sorted(ran)))
"""


def src_functions():
    """{(file, first line): module-qualified name} of every def in
    src/eisencf.  A decorated def's code starts at its first decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if isinstance(child, ast.FunctionDef):
                    line = min([d.lineno for d in child.decorator_list], default=child.lineno)
                    found[(path, line)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in Path(eisencf.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), str(path.resolve()), f"{path.stem}.")
    return found


class TestExpand:
    def test_zero_terminates_immediately(self, capsys):
        code, out, _ = run(capsys, "expand", "--z", "0+0r")
        assert code == 0
        doc = json.loads(out)
        assert doc["terminal"] == {"step": 0, "type": "TerminatedAtZero"}
        assert doc["digits"] == []

    def test_special_vertex(self, capsys):
        code, out, _ = run(capsys, "expand", "--z", "-1/2-1/2r", "--digits", "8")
        assert code == 0
        doc = json.loads(out)
        assert doc["terminal"]["type"] == "SpecialPeriodic"
        assert doc["terminal"]["entry_index"] == 0
        assert doc["digits"][:4] == [
            {"a": -1, "b": 2}, {"a": -1, "b": 2},
            {"a": -2, "b": 1}, {"a": 1, "b": 1}]

    def test_rational_point_terminates_exactly(self, capsys):
        code, out, _ = run(capsys, "expand", "--z", "3/10+1/7r", "--digits", "40")
        assert code == 0
        doc = json.loads(out)
        assert doc["terminal"]["type"] == "TerminatedAtZero"
        assert len(doc["digits"]) <= 40
        assert doc["abs_errors"][-1] < 1e-10

    def test_domain_error_exit_3(self, capsys):
        code, _, err = run(capsys, "expand", "--z", "5+0r")
        assert code == 3
        assert "fundamental domain" in err

    def test_parse_error_exit_2(self, capsys):
        code, _, _ = run(capsys, "expand", "--z", "not-a-number")
        assert code == 2

    def test_zero_denominator_exit_2(self, capsys):
        for z in ("1/0+1r", "0+1/0r", "1/2+0/0r"):
            code, _, err = run(capsys, "expand", "--z", z)
            assert code == 2 and err.startswith("error: zero denominator"), z

    def test_integers_beyond_float_range(self, capsys):
        # b * sqrt(3) overflows a float here, b / c does not
        big = 10**309
        code, out, _ = run(capsys, "expand", "--z", f"{big // 3 + 1}/{big}+1/7r",
                           "--digits", "40")
        assert code == 0
        errors = json.loads(out)["abs_errors"]
        assert len(errors) == 40 and all(math.isfinite(e) for e in errors)
        assert errors[0] > 0.1 > errors[-1]

    def test_ratio_of_convergents_beyond_float_range(self):
        p, q = EisensteinInt(10**400, 3 * 10**400 + 1), EisensteinInt(5 * 10**399, 10**400)
        exact = (embed(p) / embed(q)).approx()
        scaled = EisensteinInt(2, 6).approx() / EisensteinInt(1, 2).approx()
        assert _ratio(p, q) == exact and abs(exact - scaled) < 1e-12
        # in range, the floats of p and q divide as before
        p, q = EisensteinInt(7, 3), EisensteinInt(2, 5)
        assert _ratio(p, q) == p.approx() / q.approx()

    def test_expand_loads_neither_numpy_nor_regions(self):
        code = ("import sys; import eisencf.cli as c; "
                "assert c.main(['expand', '--z', '3/10+1/7r', '--digits', '5', "
                "'--out', '-']) == 0; "
                "loaded = sorted({'numpy', 'eisencf.regions', 'hashlib'} & set(sys.modules)); "
                "assert c.main(['verify', 'all', '--samples', '10', '--out', '-']) == 0; "
                "print(loaded, sorted({'numpy'} & set(sys.modules)))")
        # expand loads none of them, not even hashlib, which only seeds need;
        # verify then loads regions but still not numpy
        assert fresh_python("-c", code).splitlines()[-1] == "[] []"

    def test_start_up_loads_no_dataclasses(self):
        # the value types are plain classes and named tuples: importing
        # dataclasses pulls in inspect, about 9 ms of every command's start-up
        code = ("import sys; import eisencf.cli; import eisencf.regions as r; "
                "r.build_catalog(); "
                "print(sorted({'dataclasses', 'inspect', 'numpy'} & set(sys.modules)))")
        assert fresh_python("-c", code).splitlines()[-1] == "[]"

    def test_src_holds_only_what_runs(self, tmp_path):
        # a fresh interpreter, so no catalogue cached by another test hides a
        # call; whatever only a test calls belongs in tests/oracles.py
        out = fresh_python("-c", TRACE, json.dumps(TRACED_COMMANDS), str(tmp_path))
        ran = {(str(Path(f).resolve()), line) for f, line in json.loads(out.splitlines()[-1])}
        exempt = set(NOT_RUN) | {f"{mod.removeprefix('eisencf.')}.{name}"
                                 for mod, names in WORKER_IMPORTS.items() for name in names}
        unrun = sorted(name for key, name in src_functions().items()
                       if key not in ran and name not in exempt
                       and not re.fullmatch(r"__\w+__", name.rsplit(".", 1)[-1]))
        assert unrun == [], f"run by no command: {', '.join(unrun)}"

    def test_expand_artifacts_are_pinned(self, capsys, tmp_path):
        for argv, digest in EXPAND_PINS.items():
            out_file = tmp_path / "expand.json"
            code, _, _ = run(capsys, "expand", *argv, "--out", str(out_file))
            assert code == 0
            assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest, argv[1]

    def test_z_takes_no_option_as_its_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--z", "--digits", "5"])
        assert exc.value.code == 2
        assert "argument --z: expected one argument" in capsys.readouterr().err

    def test_last_negative_z_wins(self, capsys):
        code, out, _ = run(capsys, "expand", "--z", "-1/2-1/2r", "--z", "-1/3+0r")
        assert code == 0
        assert json.loads(out)["z"] == {"x": "-1/3", "y": "0"}

    def test_writes_artifact(self, capsys, tmp_path):
        out_file = tmp_path / "exp.json"
        code, _, _ = run(capsys, "expand", "--z", "1/5+1/9r", "--out", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["schema"] == 1
        assert doc["z"] == {"x": "1/5", "y": "1/9"}

    def test_out_at_a_directory_is_a_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "expand", "--z", "1/5+1/9r", "--out", str(tmp_path))
        assert (code, out) == (2, "") and err.startswith("error: ")
        assert str(tmp_path) in err and "Traceback" not in err


class TestVerify:
    def test_single_check(self, capsys):
        code, out, _ = run(capsys, "verify", "inversions", "--seed", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "PASS"
        assert doc["checks"][0]["name"] == "inversions"

    def test_choices_are_the_checks(self):
        # the parser lists the checks by hand, to keep the verifier out of
        # the CLI's import
        commands = next(a for a in build_parser()._actions if a.dest == "command")
        verify = commands.choices["verify"]
        which = next(a for a in verify._actions if a.dest == "which")
        assert which.choices == [*CHECKS, "all"]

    def test_config_error(self, capsys):
        code, _, _ = run(capsys, "verify", "monotonic", "--samples", "0")
        assert code == 2

    def test_band_is_not_an_option(self, capsys):
        # no artifact records the band, so no command may set it
        for argv in (["levy", "--tol", "0.01"], ["density", "--tol", "1e-9"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments: --tol" in capsys.readouterr().err, argv[0]

    def test_one_orbit_has_no_standard_error(self, capsys):
        code, out, err = run(capsys, "levy", "--orbits", "1", "--length", "10")
        assert (code, out) == (2, "") and err.startswith("error: orbits must be >= 2")

    def test_deterministic_artifacts(self, capsys):
        code1, out1, _ = run(capsys, "verify", "orbit", "--seed", "42",
                             "--samples", "1500", "--depth", "8")
        code2, out2, _ = run(capsys, "verify", "orbit", "--seed", "42",
                             "--samples", "1500", "--depth", "8")
        assert code1 == code2 == 0
        assert out1 == out2


    def test_verify_all_artifact_is_pinned(self, capsys, tmp_path):
        # the bytes of `verify all --seed 42 --samples 1000`: proofs shared
        # across blocks or stopped early must leave them as they are
        out_file = tmp_path / "verify.json"
        code, _, _ = run(capsys, "verify", "all", "--seed", "42", "--samples", "1000",
                         "--out", str(out_file))
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
            "f9015c00a46654a2215cd80e16a6f0762cadb2aa9d4f8056d7da411563e7aa85")

    def test_verify_checks_are_pinned(self, capsys, tmp_path):
        # each report of `verify all --seed 42 --samples 10000` on its own
        out_file = tmp_path / "verify.json"
        code, _, _ = run(capsys, "verify", "all", "--seed", "42", "--samples", "10000",
                         "--out", str(out_file))
        assert code == 0
        checks = json.loads(out_file.read_text())["checks"]
        assert {c["name"]: sha256(canonical_json(c)) for c in checks} == VERIFY_PINS

    def test_repeated_requests_have_the_bytes_of_a_fresh_process(self, capsys):
        # the first request in this process proves `frs` and `dual`, the
        # second reads them from the cache
        argv = ("verify", "all", "--seed", "42", "--samples", "300")
        fresh = fresh_python("-m", "eisencf.cli", *argv)
        verifier._proved.cache_clear()
        for _ in range(2):
            assert run(capsys, *argv) == (0, fresh, "")

    @pytest.mark.parametrize("name", ["frs", "dual"])
    def test_a_changed_report_leaves_the_next_artifact_as_it_was(self, capsys, name):
        _, before, _ = run(capsys, "verify", name)
        rep = CHECKS[name](10000, 20, 0)
        rep.info.clear()
        rep.failures.append({"kind": "planted"})
        rep.samples += 1
        rep.as_dict()["info"]["symmetries"] = 0
        assert run(capsys, "verify", name) == (0, before, "")


class TestLevyDensityRender:
    def test_levy_and_density_artifacts_are_pinned(self, capsys, tmp_path):
        # the bytes of the orbit and cell-lookup layers: a leaner step or
        # lookup must leave every digit, point and frequency as it is.  The
        # benchmark's 1,600,000 samples draw 88,888 pairs per cell, which the
        # pair check walks in three lookup blocks
        levy = ("levy", "--orbits", "8", "--length", "2000", "--samples", "40000",
                "--seed", "7")
        levy_blocks = ("levy", "--orbits", "8", "--length", "200", "--samples", "1600000",
                       "--seed", "7")
        pins = {
            levy: "b7b34d4ab496d0808551ac9709df626609d91f6233e576f2d28acc10d13bae4e",
            levy_blocks: "62537b0142a99fff45c4b16250ccc5a317c1b84b82bb8a291b9cd127549e9324",
            ("density", "--grid", "16"): DENSITY_16,
        }
        # the first levy builds the quadrature's rules, and the later ones
        # and density read them from the cache: each has the cold bytes
        ergodic.quadrature.cache_clear()
        for argv in (levy, levy, levy_blocks, ("density", "--grid", "16")):
            digest = pins[argv]
            out_file = tmp_path / f"{argv[0]}.out"
            code, _, _ = run(capsys, *argv, "--out", str(out_file))
            assert code == 0
            assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest, argv[0]

    def test_density_runs_no_pair_check(self, capsys, tmp_path, monkeypatch):
        # the density reads C0 and the flux rules, which the pair check
        # leaves as they are
        def refuse(*args):
            raise AssertionError("density ran the pair check")

        monkeypatch.setattr(ergodic, "_pair_check", refuse)
        ergodic.quadrature.cache_clear()
        out_file = tmp_path / "density.csv"
        assert run(capsys, "density", "--grid", "16", "--out", str(out_file))[0] == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == DENSITY_16

    def test_levy_artifact(self, capsys, tmp_path):
        out_file = tmp_path / "levy.json"
        code, _, _ = run(capsys, "levy", "--orbits", "4", "--length", "400",
                         "--samples", "40000", "--seed", "7",
                         "--out", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["schema"] == 1
        assert doc["levy_birkhoff"]["value"] > 0
        assert doc["levy_integral"]["value"] > 0
        assert len(doc["occupation"]) == 36

    def test_constants_cover_their_conjectured_closed_forms(self, capsys, tmp_path):
        """C0 = 1/pi^2 and the growth rate = 3 Cl_2(pi/3) / (2 pi), where
        Cl_2 is the Clausen function, are conjectures: the printed values
        match them to 2.9e-12 and 1.3e-11, inside their printed errors."""
        import mpmath
        out_file = tmp_path / "levy.json"
        code, _, _ = run(capsys, "levy", "--orbits", "2", "--length", "100",
                         "--samples", "1000", "--out", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        with mpmath.workdps(30):
            closed = {"C0": 1 / mpmath.pi ** 2,
                      "levy_integral": 3 * mpmath.clsin(2, mpmath.pi / 3) / (2 * mpmath.pi)}
        for key, value in closed.items():
            assert abs(doc[key]["value"] - float(value)) <= doc[key]["error"], key

    def test_density_csv(self, capsys, tmp_path):
        out_file = tmp_path / "h.csv"
        code, _, _ = run(capsys, "density", "--grid", "16", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "x,y,h"
        assert len(lines) == 1 + 16 * 16
        assert all(float(l.split(",")[2]) >= 0 for l in lines[1:])

    def test_render_regions(self, capsys, tmp_path):
        code, out, _ = run(capsys, "render", "regions", "--out", str(tmp_path))
        assert code == 0
        files = sorted(tmp_path.glob("*.svg"))
        assert len(files) == 5
        for f in files:
            ET.parse(f)  # well-formed XML
            assert f.read_text().count("<rect") == 1  # the background
        assert (tmp_path / "fig_v_partition.svg").read_text().count("<path") == 36
        again = tmp_path / "again"
        assert run(capsys, "render", "regions", "--out", str(again))[0] == 0
        for f in files:
            assert (again / f.name).read_bytes() == f.read_bytes()

    def test_render_into_a_file_is_a_usage_error(self, capsys, tmp_path):
        taken = tmp_path / "figs"
        taken.write_text("")
        code, out, err = run(capsys, "render", "regions", "--out", str(taken))
        assert (code, out) == (2, "") and err.startswith("error: ")
        assert str(taken) in err and taken.read_text() == ""


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_no_option_leaks_into_a_later_request(self, capsys):
        # with --digits, then without it, then another command, then again:
        # each document is its pinned or its fresh-process bytes
        short = ("expand", "--z", "3/10+1/7r", "--digits", "5")
        special = ("--z", "-1/2-1/2r")
        checks = ("verify", "inversions", "--out", "-")
        terminating = ("--z", "3/10+1/7r", "--digits", "40")
        for argv, expected in ((short, sha256(fresh_python("-m", "eisencf.cli", *short))),
                               (("expand", *special), EXPAND_PINS[special]),
                               (checks, sha256(fresh_python("-m", "eisencf.cli", *checks))),
                               (("expand", *terminating), EXPAND_PINS[terminating])):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and sha256(out) == expected, argv

    def test_help_is_the_same_on_a_second_call(self, capsys):
        commands = ([], ["expand"], ["verify"], ["levy"], ["density"], ["render"])

        def helps():
            texts = []
            for argv in commands:
                with pytest.raises(SystemExit) as exc:
                    main([*argv, "--help"])
                assert exc.value.code == 0
                texts.append(capsys.readouterr().out)
            return texts

        first = helps()
        assert all(first) and len(set(first)) == len(commands)
        assert helps() == first


# every function with a band parameter, and whether it has a default: the
# commands rely on the defaults, while the benchmark's traced levy replay
# passes RunConfig.tol to the public four, so its byte comparison holds only
# while all of them are the one constant
BAND_PARAMETERS = {
    "ergodic._simulate_batches": True,
    "ergodic._cell_counts": False,
    "ergodic.simulate_orbits": True,
    "ergodic.levy_birkhoff": True,
    "ergodic.estimate_C0_and_levy_integral": True,
    "ergodic.occupation_frequencies": True,
    "ergodic._pair_check": False,
    "floatpath._alive": False,
    "floatpath.t_step": True,
    "regions.Region.inside_xy": True,
    "regions.classify_cells_complex": True,
}


def test_band_is_one_constant():
    found = {}
    for info in pkgutil.iter_modules(eisencf.__path__):
        mod = importlib.import_module(f"eisencf.{info.name}")
        members = [obj for obj in vars(mod).values()
                   if getattr(obj, "__module__", None) == mod.__name__]
        members += [f for cls in members if inspect.isclass(cls)
                    for f in vars(cls).values() if inspect.isfunction(f)]
        for f in filter(inspect.isfunction, members):
            tol = inspect.signature(f).parameters.get("tol")
            if tol is not None:
                found[f"{info.name}.{f.__qualname__}"] = tol.default
    assert {name: d is not inspect.Parameter.empty
            for name, d in found.items()} == BAND_PARAMETERS
    assert all(d is BAND for d in found.values() if d is not inspect.Parameter.empty)
    assert RunConfig().tol is BAND   # a class default, which the replay reads
