"""Command-line interface: file format, subcommands, exit statuses.

Most tests drive `main()` in-process for speed; a few go through a real
subprocess to pin down interpreter-level behavior.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import liecap
from liecap.catalog import build
from liecap.cli import algebra_from_doc, algebra_to_doc, doc_text, main


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def emit(tmp_path, name, *args):
    """Write a catalog algebra file and return its path."""
    out = tmp_path / f"{name}.json"
    rc = main(["catalog", "emit", name, "--out", str(out), *args])
    assert rc == 0
    return out


def doc_of(path):
    return json.loads(path.read_text())


# ----------------------------------------------------------------------
# document round trips
# ----------------------------------------------------------------------

def test_emit_parse_emit_is_byte_identical(tmp_path):
    for name, args in (("L4_3", ()), ("L6_13", ()),
                       ("H", ("--m", "2", "--field", "gf3")),
                       ("L6_22", ("--eps", "-1",)),
                       ("L6_7_2", ("--eta", "1", "--field", "gf2"))):
        path = emit(tmp_path, name, *args)
        text = path.read_text()
        L = algebra_from_doc(json.loads(text))
        assert doc_text(algebra_to_doc(L)) == text


def test_canonical_form_normalizes_scrambled_input():
    doc = {
        "brackets": [
            {"j": 3, "i": 1, "out": [[4, "2/4"]]},
            {"i": 1, "j": 2, "out": [[4, "0"], [3, "1"]]},
        ],
        "dim": 4,
        "field": {"kind": "Q"},
        "schema_version": "1",
        "name": "scrambled",
    }
    L = algebra_from_doc(doc)
    out = json.loads(doc_text(algebra_to_doc(L)))
    assert out["brackets"] == [
        {"i": 1, "j": 2, "out": [[3, "1"]]},
        {"i": 1, "j": 3, "out": [[4, "1/2"]]},
    ]
    # canonical key order is fixed, independent of input order
    assert list(out) == ["schema_version", "name", "field", "dim",
                         "brackets"]


def test_doc_text_ends_with_newline(tmp_path):
    path = emit(tmp_path, "L4_3")
    assert path.read_text().endswith("\n")


def test_emitted_doc_shape(tmp_path):
    d = doc_of(emit(tmp_path, "H", "--m", "2"))
    assert d["schema_version"] == "1"
    assert d["dim"] == 5
    assert d["field"] == {"kind": "Q"}
    assert d["name"] == "H(2)"
    assert d["brackets"] == [
        {"i": 1, "j": 2, "out": [[5, "1"]]},
        {"i": 3, "j": 4, "out": [[5, "1"]]},
    ]


def test_round_trip_preserves_algebra(tmp_path):
    path = emit(tmp_path, "L27A", "--field", "gf5")
    L = algebra_from_doc(doc_of(path))
    assert L.same_table(build("L27A", __import__(
        "liecap").FieldSpec.gf(5)))


# ----------------------------------------------------------------------
# document validation failures (all exit 1 through the CLI)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("schema_version"),
    lambda d: d.update(schema_version="2"),
    lambda d: d.pop("dim"),
    lambda d: d.update(dim="4"),
    lambda d: d.update(dim=-1),
    lambda d: d.pop("field"),
    lambda d: d.update(field={"kind": "R"}),
    lambda d: d.update(field={"kind": "GFp", "p": 6}),
    lambda d: d.update(brackets="nope"),
    lambda d: d["brackets"].append({"i": 1, "j": 1, "out": [[3, "1"]]}),
    lambda d: d["brackets"].append({"i": 2, "j": 1, "out": [[3, "1"]]}),
    lambda d: d["brackets"].append({"i": 1, "j": 2, "out": [[3, "1"]]}),
    lambda d: d["brackets"].append({"i": 1, "j": 9, "out": [[3, "1"]]}),
    lambda d: d["brackets"].append({"i": 3, "j": 4, "out": [[9, "1"]]}),
    lambda d: d["brackets"].append({"i": 3, "j": 4, "out": [[2, "x"]]}),
    lambda d: d["brackets"].append({"i": 3, "j": 4, "out": [[2, 1]]}),
    lambda d: d["brackets"][0].update(out=[[3, "1"], [3, "1"]]),
    lambda d: d["brackets"][0].pop("out"),
    lambda d: d["brackets"][0].update(i=True),
    lambda d: d["brackets"][0].update(j=True),
    lambda d: d["brackets"].append({"i": 2, "j": 3, "out": [[True, "1"]]}),
])
def test_malformed_documents_exit_one(tmp_path, mutate):
    doc = doc_of(emit(tmp_path, "L4_3"))
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 1


def test_missing_file_exits_one(tmp_path):
    assert main(["validate", str(tmp_path / "absent.json")]) == 1


def test_unparseable_json_exits_one(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"schema_version": "1",')
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err  # location is reported


def test_zero_coefficients_are_dropped():
    doc = {
        "schema_version": "1", "dim": 3, "field": {"kind": "Q"},
        "brackets": [{"i": 1, "j": 2, "out": [[3, "0"]]}],
    }
    assert algebra_from_doc(doc).table == {}


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------

def test_validate_emitted_file_passes(tmp_path, capsys):
    path = emit(tmp_path, "L4_3")
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "jacobi: ok" in out
    assert "class: 3" in out


def test_validate_reports_non_nilpotent_without_failing(tmp_path, capsys):
    doc = {
        "schema_version": "1", "dim": 2, "field": {"kind": "Q"},
        "brackets": [{"i": 1, "j": 2, "out": [[2, "1"]]}],
    }
    p = tmp_path / "solvable.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 0
    assert "nilpotent: false" in capsys.readouterr().out


def test_validate_tampered_table_exits_two_with_triples(tmp_path, capsys):
    doc = doc_of(emit(tmp_path, "L4_3"))
    doc["brackets"].append({"i": 2, "j": 3, "out": [[2, "1"]]})
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 2
    out = capsys.readouterr().out
    assert "(1, 2, 3)" in out


# ----------------------------------------------------------------------
# analyze / capable / multiplier
# ----------------------------------------------------------------------

def test_analyze_abelian_reports_class_and_multiplier(tmp_path, capsys):
    path = emit(tmp_path, "A", "--n", "4")
    assert main(["analyze", str(path), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["class"] == 1
    assert rep["dim_multiplier"] == 6
    assert rep["capable"] is True


def test_capable_ground_truth_mode(tmp_path, capsys):
    path = emit(tmp_path, "L5_8")
    assert main(["capable", str(path), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["capable"] is True
    assert rep["mode"] == "ground-truth"
    assert rep["dim_exterior_center"] == 0


def test_capable_structural_mode(tmp_path, capsys):
    path = emit(tmp_path, "L6_10", "--field", "gf3")
    assert main(["capable", str(path), "--structural", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["capable"] is False
    assert rep["mode"] == "structural"
    assert rep["rule"]


def test_capable_structural_scope_error_exits_one(tmp_path, capsys):
    path = emit(tmp_path, "L5_7")
    assert main(["capable", str(path), "--structural"]) == 1
    assert "scope" in capsys.readouterr().err


def test_multiplier_six_dim_family_over_q(tmp_path, capsys):
    path = emit(tmp_path, "L6_22", "--eps", "2")
    assert main(["multiplier", str(path), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["dim_multiplier"] == 8
    assert rep["dim_exterior_square"] == 10


def test_expect_flag_pass_and_fail(tmp_path):
    path = emit(tmp_path, "H", "--m", "1")
    assert main(["multiplier", str(path),
                 "--expect", "dim_multiplier=2"]) == 0
    assert main(["multiplier", str(path),
                 "--expect", "dim_multiplier=3"]) == 2
    assert main(["capable", str(path), "--expect", "capable=true"]) == 0
    assert main(["capable", str(path), "--expect", "capable=false"]) == 2


def test_expect_unknown_key_exits_one(tmp_path):
    path = emit(tmp_path, "H", "--m", "1")
    assert main(["multiplier", str(path), "--expect", "nope=1"]) == 1


def test_expect_without_equals_exits_one(tmp_path):
    path = emit(tmp_path, "H", "--m", "1")
    assert main(["multiplier", str(path), "--expect", "dim_multiplier"]) == 1


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

def test_catalog_list_mentions_families(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("A", "H", "L4_3", "L6_22", "L27B"):
        assert name in out


def test_catalog_emit_to_stdout(capsys):
    assert main(["catalog", "emit", "H", "--m", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 5


def test_catalog_emit_char_guard_exits_one(capsys):
    assert main(["catalog", "emit", "L6_22", "--eps", "1",
                 "--field", "gf2"]) == 1
    assert "char" in capsys.readouterr().err


def test_catalog_emit_missing_name_exits_one():
    assert main(["catalog", "emit"]) == 1


def test_catalog_emit_unknown_name_exits_one():
    assert main(["catalog", "emit", "L9_99"]) == 1


def test_catalog_emit_missing_parameter_exits_one():
    assert main(["catalog", "emit", "H"]) == 1


def test_catalog_emit_large_prime_field(tmp_path):
    d = doc_of(emit(tmp_path, "H", "--m", "1", "--field", "gfp:101"))
    assert d["field"] == {"kind": "GFp", "p": 101}


def test_bad_field_flag_exits_one():
    assert main(["catalog", "emit", "H", "--m", "1",
                 "--field", "gfp:4"]) == 1
    assert main(["catalog", "emit", "H", "--m", "1",
                 "--field", "reals"]) == 1


# ----------------------------------------------------------------------
# argparse-level failures stay on the documented exit code
# ----------------------------------------------------------------------

def test_no_arguments_exits_one():
    assert main([]) == 1


def test_unknown_subcommand_exits_one():
    assert main(["frobnicate"]) == 1


def test_unknown_flag_exits_one(tmp_path):
    path = emit(tmp_path, "H", "--m", "1")
    assert main(["validate", str(path), "--frobnicate"]) == 1


# ----------------------------------------------------------------------
# verify-paper
# ----------------------------------------------------------------------

def test_verify_paper_full_run_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["verify-paper", "--field", "q", "--field", "gf2",
               "--seed", "7", "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "checks passed" in text
    assert "[FAIL]" not in text
    rep = json.loads(out.read_text())
    assert rep["all_passed"] is True
    assert rep["seed"] == 7
    assert rep["fields"] == ["Q", "GF(2)"]


@pytest.mark.parametrize("argv", [
    ["catalog", "emit", "H", "--m", "1"],
    ["verify-paper", "--field", "gf2"],
])
def test_unwritable_out_path_exits_one_with_one_error_line(tmp_path, capsys,
                                                          argv):
    out = tmp_path / "absent" / "x.json"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


# ----------------------------------------------------------------------
# subprocess smoke tests
# ----------------------------------------------------------------------

# the child interpreter imports the liecap these tests import, installed
# or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
    str(Path(liecap.__file__).parents[1]), os.environ.get("PYTHONPATH"))))}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "liecap.cli", *args],
                          capture_output=True, text=True, timeout=120,
                          env=CHILD_ENV)


def test_subprocess_catalog_list():
    proc = run_cli("catalog", "list")
    assert proc.returncode == 0
    assert "L6_22" in proc.stdout


def test_subprocess_missing_file_exit_code():
    proc = run_cli("validate", "/nonexistent/algebra.json")
    assert proc.returncode == 1
    assert proc.stderr


@pytest.mark.parametrize("command", ["multiplier", "capable", "analyze"])
@pytest.mark.parametrize("optimize", [[], ["-O"]])
def test_subprocess_jacobi_violation_exits_two(tmp_path, command, optimize):
    # nilpotent, but [x1,x2]=x3, [x2,x3]=x4, [x1,x4]=x5 breaks Jacobi at
    # (1, 2, 3); the asserts stripped by -O must not matter
    doc = {"schema_version": "1", "field": {"kind": "Q"}, "dim": 5,
           "brackets": [{"i": 1, "j": 2, "out": [[3, "1"]]},
                        {"i": 2, "j": 3, "out": [[4, "1"]]},
                        {"i": 1, "j": 4, "out": [[5, "1"]]}]}
    path = tmp_path / "jacobi.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, *optimize, "-m", "liecap.cli", command, str(path)],
        capture_output=True, text=True, timeout=120, env=CHILD_ENV)
    assert proc.returncode == 2
    assert proc.stdout == ("jacobi: violated at the following "
                           "(i, j, k) triples:\n  (1, 2, 3)\n")
    assert "Traceback" not in proc.stderr


def test_package_has_no_assert_statements():
    # python -O strips asserts, so a check written as one would vanish
    found = []
    for path in sorted(Path(liecap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


# names __init__.py imports and does not export, kept on purpose
IMPORTS_KEPT = {
    "numpy": "bench/worker.py:86 reads sys.modules['numpy'] for the run "
             "record; it goes with ROADMAP item 1",
}


def test_no_module_imports_an_unused_name():
    """Each name a module imports is used in it, and each name __init__.py
    imports is exported by `__all__`, but for IMPORTS_KEPT, each of which
    __init__.py still imports and does not export."""
    unused, kept = [], set()
    for path in sorted(Path(liecap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name == "__init__.py":
            used = set(liecap.__all__)  # imports there are the public API
        else:
            used = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for name in (a.asname or a.name.split(".")[0]
                             for a in node.names):
                    if name in used:
                        continue
                    if path.name == "__init__.py" and name in IMPORTS_KEPT:
                        kept.add(name)
                    else:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, unused
    assert kept == set(IMPORTS_KEPT)


# definitions no code in the package names, kept on purpose
UNREFERENCED_ALLOWED = {
    "_Parser.error": "argparse calls it on a usage error",
    "FieldSpec.random_scalar": "bench/workloads.py draws central lines with it",
    "LieAlgebra.bracket": "the public bracket of two dense elements",
    "Subspace.basis": "the dense rows for callers outside the package: "
                      "bench/workloads.py and the tests",
}


def test_every_definition_is_referenced_or_exported():
    """Each module-level function and class, and each method, dunders
    aside, is named in the package's code, exported by `__all__` or allowed
    above, and each allowed one is still named nowhere.  Names are matched,
    not bindings: a method passes when any method of its name is used."""
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(liecap.__file__).parent.glob("*.py"))]
    named = set(liecap.__all__)
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, (ast.Name, ast.Attribute)):
            named.add(node.id if isinstance(node, ast.Name) else node.attr)
    defined = []
    for node in (n for tree in trees for n in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            defined += [(f"{node.name}.{sub.name}", sub.name)
                        for sub in node.body if isinstance(sub, ast.FunctionDef)]
    unnamed = {qual for qual, name in defined
               if name not in named and not re.fullmatch(r"__\w+__", name)}
    assert unnamed == set(UNREFERENCED_ALLOWED)


def _cache_keys(tree):
    """The key nodes of every `_cache[key]`, `_cache.get(key)` and
    `key in _cache` (or `not in`) in a module."""

    def is_cache(node):
        return isinstance(node, ast.Attribute) and node.attr == "_cache"

    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_cache(node.value):
            yield node.slice
        elif (isinstance(node, ast.Call) and isinstance(node.func,
                                                        ast.Attribute)
              and node.func.attr == "get" and is_cache(node.func.value)):
            yield node.args[0]
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for key, op, right in zip(operands, node.ops, operands[1:]):
                if isinstance(op, (ast.In, ast.NotIn)) and is_cache(right):
                    yield key


def test_every_cache_key_is_named_in_the_class_docstring():
    """Each key of `LieAlgebra._cache`, a string or a tuple whose first
    entry is one, is listed after "Cache keys:" in the class docstring,
    and each name listed there is used."""
    listed = set(re.findall(r"`(\w+)`",
                            liecap.LieAlgebra.__doc__.split("Cache keys:")[1]))
    used, unnamed = set(), []
    for path in sorted(Path(liecap.__file__).parent.glob("*.py")):
        for key in _cache_keys(ast.parse(path.read_text())):
            if isinstance(key, ast.Tuple) and key.elts:
                key = key.elts[0]
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                used.add(key.value)
            else:
                unnamed.append(f"{path.name}:{key.lineno}")
    assert not unnamed, unnamed
    assert used == listed, (used - listed, listed - used)


@pytest.mark.parametrize("dim", [2001, 20000])
@pytest.mark.parametrize("command", ["validate", "analyze", "multiplier",
                                     "capable"])
def test_subprocess_dimension_past_the_guard_exits_one(tmp_path, command,
                                                       dim):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"schema_version": "1",
                                "field": {"kind": "Q"}, "dim": dim,
                                "brackets": []}))
    proc = run_cli(command, str(path))
    assert proc.returncode == 1
    assert proc.stderr == (f"error: dimension {dim} is past the size "
                           f"guard 2000\n")
    assert proc.stdout == ""


def test_subprocess_multiplier_pipeline(tmp_path):
    path = tmp_path / "h1.json"
    emit_proc = run_cli("catalog", "emit", "H", "--m", "1",
                        "--out", str(path))
    assert emit_proc.returncode == 0
    proc = run_cli("multiplier", str(path), "--expect", "dim_multiplier=2")
    assert proc.returncode == 0
