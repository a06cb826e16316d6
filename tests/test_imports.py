import ast
from collections import Counter
from pathlib import Path

import pytest

import fracmoment
from fracmoment import lvalues
from conftest import run_python


def _parse_folder(folder: Path) -> dict:
    """{stem: tree} for every .py file in folder, in name order."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(folder.glob("*.py"))}


# src/ parsed once; every guard below reads these trees
TREES = _parse_folder(Path(fracmoment.__file__).resolve().parent)


def _top_level_readers(wanted) -> list[str]:
    """module.definition (module.<module> at module level) of the top-level statement that holds
    each node of src/ that wanted(module, node) accepts, once per node, in TREES order."""
    return [f"{module}.{getattr(top, 'name', '<module>')}" for module, tree in TREES.items()
            for top in tree.body for node in ast.walk(top) if wanted(module, node)]


def _functions_taking(arg: str) -> list[str]:
    """module.function for every function in src/ with a parameter named arg."""
    return [f"{module}.{node.name}" for module, tree in TREES.items() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and arg in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}]


def test_no_scipy_module_loaded_by_import_or_afe_runs():
    code = (
        "import contextlib, io, sys\n"
        "import fracmoment\n"
        "from fracmoment.cli import main\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "seen = {'import': scipy_modules()}\n"
        "for argv in (['verify', 'afe', '--qmin', '5', '--qmax', '13'], ['moments', '--q', '1009', '--method', 'afe']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    seen[' '.join(argv)] = (code, scipy_modules())\n"
        "print(seen)\n"
    )
    assert run_python(code).stdout.strip() == (
        "{'import': [], 'verify afe --qmin 5 --qmax 13': (0, []), 'moments --q 1009 --method afe': (0, [])}"
    )


def test_run_python_shows_a_failing_childs_stderr():
    # a crashing probe or subprocess test fails with the child's traceback, not only its exit status
    with pytest.raises(AssertionError, match="boom"):
        run_python("import sys\nsys.stderr.write('boom')\nsys.exit(3)")


def _public_definitions_unreferenced(trees: dict) -> list[str]:
    """module.name (module.Class.name for a method) of every public function, class and
    method in trees whose name no Name or attribute in trees reads outside its own body."""
    refs = [
        (module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unreferenced = []
    for module, tree in trees.items():
        defs = [(node, f"{module}.{node.name}") for node in tree.body if isinstance(node, kinds)]
        defs += [
            (node, f"{module}.{cls.name}.{node.name}")
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, kinds)
        ]
        for node, qualname in defs:
            if node.name.startswith("_"):
                continue
            if not any(name == node.name and not (mod == module and node.lineno <= line <= node.end_lineno)
                       for mod, line, name in refs):
                unreferenced.append(qualname)
    return unreferenced


def test_every_public_definition_is_referenced_in_src():
    # a name that only tests call belongs with the tests, as an independent reference
    assert _public_definitions_unreferenced(TREES) == []


def _defaults_no_src_call_passes(trees: dict) -> list[str]:
    """module.function(param) (module.Class.method(param) for a method) for every parameter
    with a default, in a public function or method in trees, that no call in trees to that
    name passes by position or keyword; a call with *args or **kwargs passes them all."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                calls.setdefault(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None), []).append(node)
    unpassed = []
    for module, tree in trees.items():
        # (definition, qualified name, 1 where the call binds self or cls first)
        defs = [(node, f"{module}.{node.name}", 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [
            (node, f"{module}.{cls.name}.{node.name}",
             0 if any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list) else 1)
            for cls in tree.body if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for node in cls.body if isinstance(node, ast.FunctionDef)
        ]
        for node, qualname, bound in defs:
            if node.name.startswith("_"):
                continue
            a = node.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            defaulted = [(p, i - bound) for i, p in enumerate(positional) if i >= len(positional) - len(a.defaults)]
            defaulted += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for param, pos in defaulted:
                if not any(
                    any(isinstance(arg, ast.Starred) for arg in call.args)
                    or any(kw.arg in (None, param) for kw in call.keywords)
                    or (pos is not None and pos < len(call.args))
                    for call in calls.get(node.name, [])
                ):
                    unpassed.append(f"{qualname}({param})")
    return unpassed


def test_every_default_is_passed_by_some_src_call():
    # an option only tests set belongs with the tests; main(argv) is the entry point, and
    # afe_squares(xmin) stays while the benchmark's fault injection calls it with xmin,
    # which it now validates only: V alone decides where the AFE stops
    assert _defaults_no_src_call_passes(TREES) == ["cli.main(argv)", "lvalues.afe_squares(xmin)"]


def test_only_afe_squares_takes_xmin():
    # the AFE's cut is V's alone; afe_squares keeps xmin only to refuse one above the cut
    assert _functions_taking("xmin") == ["lvalues.afe_squares"]


def test_no_function_takes_a_mode():
    # arguments say what a function builds, as shifted_series' two shift vectors do; no mode string restates them
    assert _functions_taking("mode") == []


def test_no_cli_target_raises_domain_error_itself():
    # the CLI's range refusals live in cli._DOMAINS, applied before any target runs
    raising = [
        node.name
        for node in TREES["cli"].body
        if isinstance(node, ast.FunctionDef) and node.name.startswith(("_verify_", "cmd_"))
        for raised in ast.walk(node)
        if isinstance(raised, ast.Raise) and raised.exc is not None
        and "DomainError" in {n.id for n in ast.walk(raised.exc) if isinstance(n, ast.Name)}
    ]
    assert raising == []


def test_only_zeta_power_line_reads_the_branch_regions():
    # one evaluator decides which region, and so which formula for log zeta, each point takes;
    # a read anywhere else, in a function or at module level, is a second region rule
    readers = _top_level_readers(
        lambda module, node: isinstance(getattr(node, "ctx", None), ast.Load)
        and getattr(node, "id", getattr(node, "attr", None)) in ("_PRINCIPAL_FROM", "_POLE_DISC")
    )
    assert set(readers) == {"contours.zeta_power_line"}


def test_character_transforms_read_exponent_order_only():
    # fold_residues lays residues onto the group once; nothing in src/ maps a residue a to
    # slot a - 1, and the transforms read no residue map of the table
    minus_one = [
        f"{module}.py:{node.lineno}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
        and getattr(node.left, "attr", getattr(node.left, "id", None)) == "powers"
        and isinstance(node.right, ast.Constant) and node.right.value == 1
    ]
    transforms = ("dft_all_characters", "inverse_dft_all_characters", "naive_character_sums", "_split_dft",
                  "good_thomas")
    defs = {node.name: node for node in ast.walk(TREES["characters"]) if isinstance(node, ast.FunctionDef)}
    reads = [
        f"{name}.{node.attr}"
        for name in transforms
        for node in ast.walk(defs[name])
        if isinstance(node, ast.Attribute) and node.attr in ("powers", "dlog")
    ]
    assert minus_one == [] and reads == []


def test_every_error_class_is_raised_in_src():
    # an exception type that nothing raises leaves handlers for a failure that cannot happen
    errors = {node.name for node in TREES["errors"].body if isinstance(node, ast.ClassDef)}
    raised = {
        exc.id if isinstance(exc, ast.Name) else exc.attr
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        for exc in [node.exc.func if isinstance(node.exc, ast.Call) else node.exc]
        if isinstance(exc, (ast.Name, ast.Attribute))
    }
    assert errors and errors <= raised


def test_one_exact_float_cell_and_no_row_template():
    # reporting.fmt_float is the one definition of a float cell: no other code in src/
    # spells the 17-digit format, and reporting formats nothing with %, so csv_text
    # builds no row template; its cells come from numpy and, where unproven, fmt_float
    spelled = _top_level_readers(
        lambda module, node: isinstance(node, ast.Constant) and isinstance(node.value, str) and ".17g" in node.value
    )
    percent = _top_level_readers(
        lambda module, node: module == "reporting" and isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
    )
    assert set(spelled) == {"reporting.fmt_float"} and percent == []


def test_lvalue_table_is_the_one_way_to_lvalues():
    # outside lvalues, src/ reaches the routes only through lvalue_table; afe_squares stays as the
    # seam where perfbench's selftest injects a wrong AFE, and verify afe alone reads it
    entries = ("_oracle_table", "_smoothed_table", "_afe_batch", "afe_squares")
    readers = [
        (f"{module}.{getattr(top, 'name', '<module>')}", name)
        for module, tree in TREES.items() if module != "lvalues"
        for top in tree.body
        for node in ast.walk(top)
        for name in [getattr(node, "id", getattr(node, "attr", None))]
        + [alias.name for alias in getattr(node, "names", []) if isinstance(node, ast.ImportFrom)]
        if name in entries
    ]
    assert readers == [("cli._verify_afe", "afe_squares")]


def test_dft_rounding_is_the_one_reader_of_eps():
    # characters.dft_rounding is the one rounding model: no other code in src/ reads
    # finfo(...).eps to build a tolerance of its own
    readers = _top_level_readers(
        lambda module, node: isinstance(node, ast.Attribute) and node.attr == "eps" and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "attr", getattr(node.value.func, "id", None)) == "finfo"
    )
    assert readers == ["characters.dft_rounding"]


def test_route_names_are_declared_once():
    # lvalues.ROUTES names each route once; everything else reads that declaration, so no
    # other module holds a tuple, list or set of two or more route names (one alone may be
    # another word, as the contour sweep's "oracle" column is), and lvalues spells each once
    routes = set(lvalues.ROUTES)
    lists, spelled = [], Counter()
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in routes and module == "lvalues":
                spelled[node.value] += 1
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and module != "lvalues" and sum(
                    isinstance(e, ast.Constant) and e.value in routes for e in node.elts) >= 2:
                lists.append(f"{module}.py:{node.lineno}")
    assert lists == [] and spelled == dict.fromkeys(routes, 1)


def test_eta_stability_weights_no_term_itself():
    # n^{-(1+w0)} is completely multiplicative, so it rides in the shifts of the series; a per-n
    # exp, log or arange in eta_stability would weight the terms a second way
    eta = next(node for node in TREES["contours"].body if getattr(node, "name", None) == "eta_stability")
    calls = [node.func.attr for node in ast.walk(eta) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and getattr(node.func.value, "id", None) == "np"]
    assert not {"exp", "log", "arange"} & set(calls), calls


def test_one_peak_probe_and_one_parse_of_src():
    # conftest.peak_rise_kib is the one VmHWM probe and TREES the one parse of src/ here; a test
    # that pastes its own probe or parse reads the program a second way.  Both checks read ASTs:
    # a comment may name VmHWM, and the needle itself, a constant equal to it, is no probe
    needle, tests = "VmHWM", _parse_folder(Path(__file__).resolve().parent)
    probes = sorted({module for module, tree in tests.items() if module != "conftest" for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value != needle
                     and needle in node.value})
    parses = [node.lineno for node in ast.walk(tests["test_imports"]) if isinstance(node, ast.Call)
              and getattr(node.func, "attr", None) == "parse" and getattr(node.func.value, "id", None) == "ast"]
    assert probes == [] and len(parses) == 1, (probes, parses)
