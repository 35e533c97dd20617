"""The suite's pytest configuration, checked on a planted failing test, an
import of the package that leaves the process pool out, the package's one
home for its input rules and the use of what they return, its one
Hermiticity check and the one module that may make a matrix without it,
the one BLAS thread of its linalg calls, the use of its private names, no
function body written twice, the names the benchmark uses, README's CLI
table, the one per-command table of cli.py, and the code names README and
the docstrings cite."""

import ast
import builtins
import copy
import dataclasses
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import eechain
from eechain import cli

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PLANTED = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted(x):
    assert x < 0
"""


def test_failing_given_test_does_not_abort_the_run(tmp_path):
    # to report a falsifying example hypothesis imports libcst, which warns
    # of a deprecation; as an error that warning stops the whole session
    (tmp_path / "test_planted.py").write_text(PLANTED)
    options = ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider"]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", *options, "test_planted.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output


def test_import_leaves_the_process_pool_out():
    # only sweep_entropy with jobs > 1 imports the pool, and with it
    # multiprocessing, socket, subprocess and logging
    script = "import sys, eechain; print('multiprocessing' in sys.modules)"
    src = str(Path(eechain.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


# the functions of eechain.lattice that hold the integer and real-number rules
VALIDATORS = {"_is_integer", "validate_real"}
NUMPY_NUMBER_TYPES = {("np", "integer"), ("np", "floating"), ("np", "number")}


def _names_a_number_type(node):
    """True if node mentions numbers.* or a numpy number type."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            if sub.value.id == "numbers" or (sub.value.id, sub.attr) in NUMPY_NUMBER_TYPES:
                return True
    return False


def _number_type_checks(tree, allowed):
    """Line numbers of the isinstance calls that name a number type, outside
    the functions named in allowed."""
    exempt = {
        id(call)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in allowed
        for call in ast.walk(fn)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and id(node) not in exempt
        and any(_names_a_number_type(arg) for arg in node.args[1:])
    ]


def test_input_rules_live_only_in_the_lattice_validators():
    # every entry point checks an integer or a real number through
    # eechain.lattice's validators, so each rule is written once
    offending = {}
    for path in sorted(Path(eechain.__file__).parent.glob("*.py")):
        allowed = VALIDATORS if path.name == "lattice.py" else set()
        lines = _number_type_checks(ast.parse(path.read_text()), allowed)
        if lines:
            offending[path.name] = lines
    assert offending == {}


def _raises_of(tree, name):
    """The number of raise statements in tree that raise the exception name."""
    excs = [node.exc for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    excs = [exc.func if isinstance(exc, ast.Call) else exc for exc in excs]
    return sum(getattr(exc, "id", getattr(exc, "attr", None)) == name for exc in excs)


def test_hermiticity_is_checked_only_where_a_correlation_matrix_is_made():
    # a CorrelationMatrix checks its blocks when it is made and holds them
    # read-only, so no solve checks them again: one check per fact
    raised = {}
    for path in sorted(Path(eechain.__file__).parent.glob("*.py")):
        count = _raises_of(ast.parse(path.read_text()), "NotHermitian")
        if count:
            raised[path.name] = count
    assert raised == {"lattice.py": 1}


def test_only_the_lattice_makes_an_unchecked_correlation_matrix():
    # lattice._held makes a CorrelationMatrix that skips that check: only
    # the module that proves its blocks Hermitian may read or import it
    readers = []
    for path in sorted(Path(eechain.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        if "_held" in _read_names(tree) | imported:
            readers.append(path.name)
    assert readers == ["lattice.py"]


def _discarded_validator_results(tree):
    """Line numbers of the validate_* calls that stand as bare statements."""
    calls = [node.value for node in ast.walk(tree) if isinstance(node, ast.Expr)]
    return sorted(
        call.lineno
        for call in calls
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", getattr(call.func, "attr", "")).startswith("validate_")
    )


def test_every_validator_result_is_used():
    # a validator returns the Python int or float it checked: code that
    # drops it goes on computing on the caller's value, in whatever numpy
    # scalar type that came as
    found = {}
    for path in sorted(Path(eechain.__file__).parent.glob("*.py")):
        lines = _discarded_validator_results(ast.parse(path.read_text()))
        if lines:
            found[path.name] = lines
    assert found == {}


# The linalg calls that may run outside one_blas_thread, by (module, function,
# name), with the reason their bits cannot depend on the BLAS thread count.
UNPINNED_LINALG = {
    ("oracle.py", "single_particle_hamiltonian", "matrix_power"): (
        "powers of the N x N lattice momentum, N <= MAX_SITES = 6: far below "
        "the size at which OpenBLAS splits a product"
    ),
    ("oracle.py", "_ground_sector", "eigvalsh"): (
        "the spectrum of h, at most 12 x 12; only the count of its negative "
        "eigenvalues, a degeneracy check against 1e-12 and the check of the "
        "Lanczos energy against their sum to 1e-12 ||H|| use it"
    ),
    ("thermal.py", "_solve_least_squares", "cond"): "the fit's normal matrix, at most 4 x 4",
    ("thermal.py", "_solve_least_squares", "solve"): "the fit's normal matrix, at most 4 x 4",
    ("thermal.py", "_solve_least_squares", "inv"): "the fit's normal matrix, at most 4 x 4",
}


def _is_one_blas_thread(item):
    call = item.context_expr
    return isinstance(call, ast.Call) and getattr(call.func, "id", None) == "one_blas_thread"


def _unpinned_linalg(node, function=None, pinned=False):
    """(function, name) of each <module>.linalg.<name> call under node that
    no `with one_blas_thread():` encloses, and ("import", module) of each
    import from a linalg module."""
    if isinstance(node, ast.FunctionDef):
        function = node.name
    if isinstance(node, ast.With) and any(map(_is_one_blas_thread, node.items)):
        pinned = True
    found = []
    if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
        found.append(("import", node.module))
    func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
    if isinstance(func, ast.Attribute) and getattr(func.value, "attr", None) == "linalg":
        if not pinned:
            found.append((function, func.attr))
    for child in ast.iter_child_nodes(node):
        found += _unpinned_linalg(child, function, pinned)
    return found


def test_output_bearing_linalg_runs_on_one_blas_thread():
    # a threaded BLAS can change a solve's last bits with the core count
    # (see eechain.blas), so every linalg call runs on one thread unless it
    # is listed above with its reason
    found = {
        (path.name, function, name)
        for path in sorted(Path(eechain.__file__).parent.glob("*.py"))
        for function, name in _unpinned_linalg(ast.parse(path.read_text()))
    }
    assert found == set(UNPINNED_LINALG)


def _private_definitions(tree):
    """The module-level _private names a module defines or assigns."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)
            )
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _read_names(tree):
    """The names a module reads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_every_private_name_is_read_in_the_package():
    # a private helper, class or constant that no code of the package reads
    # is a leftover of a deleted path, whatever tests still import it
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(Path(eechain.__file__).parent.glob("*.py"))
    }
    read = set().union(*map(_read_names, trees.values()))
    unread = {
        (module, name)
        for module, tree in trees.items()
        for name in _private_definitions(tree) - read
    }
    assert unread == set()


def _body_shape(function):
    """function's body, docstring dropped, as an AST dump in which each of
    its arguments and assigned names reads as the order of its first use."""
    body = function.body[1:] if ast.get_docstring(function) is not None else function.body
    tree = copy.deepcopy(ast.Module(body=body, type_ignores=[]))
    local = [a.arg for a in ast.walk(function.args) if isinstance(a, ast.arg)]
    local += [
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    ]
    order = {name: f"_{i}" for i, name in enumerate(dict.fromkeys(local))}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            node.id = order.get(node.id, node.id)
    return ast.dump(tree)


def test_no_two_functions_share_a_body():
    # a helper copied into a second module under another name is a second
    # home for one job: the copies drift apart when only one is mended
    homes = {}
    for path in sorted(Path(eechain.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                homes.setdefault(_body_shape(node), []).append(f"{path.name}:{node.name}")
    assert [names for names in homes.values() if len(names) > 1] == []


def test_benchmark_finds_every_name_it_uses():
    # the traced benchmark run wraps functions by name on eechain's modules,
    # and every run records eechain.backend_name(): a cleanup that drops
    # one of them, or an import that looks unused, breaks the benchmark
    import eechain.cli  # noqa: F401  (the tracer wraps cli's names)

    path = PYPROJECT.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    spans.Tracer(eechain)  # getattr on each name the traced run wraps
    assert isinstance(eechain.backend_name(), str)


def test_readme_cli_table_matches_the_parser():
    # README's table is the user's list of flags, needs and formats: a
    # renamed, added or dropped flag or need must show there too
    readme = (PYPROJECT.parent / "README.md").read_text()
    rows = re.findall(
        r"^\| `([\w-]+)` \| `([^`]+)` \| `([^`]+)` \| (.+) \|$", readme, re.MULTILINE
    )
    assert [command for command, *_ in rows] == list(cli._COMMANDS)
    for command, flags, needed, formats in rows:
        _, read, writes, needs = cli._COMMANDS[command]
        alternatives = [need.split(" or ") for need in needed.split(", ")]
        assert [names[0].removeprefix("--") for names in alternatives] == list(needs)
        assert needed.split(", ") == cli._needs(command)
        sets = [[f.removeprefix("--") for f in token.split("\\|")] for token in flags.split()]
        assert sorted(name for names in sets for name in names) == sorted(read)
        groups = [[name for name in group if name in read] for group in cli._EXCLUSIVE_FLAGS]
        assert [names for names in sets if len(names) > 1] == [g for g in groups if len(g) > 1]
        written = re.match(r"`([^`]+)`", formats)
        assert (written[1].split() if written else []) == list(writes)


def _dict_keys(node):
    """The string keys of a dict display or a dict(...) call, else none."""
    if isinstance(node, ast.Dict):
        return {key.value for key in node.keys if isinstance(key, ast.Constant)}
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "dict":
        return {keyword.arg for keyword in node.keywords}
    return set()


def test_cli_keeps_one_table_keyed_by_command():
    # a second module-level dict keyed by command (its flags, its formats,
    # its handler) must agree with the first by hand; _COMMANDS holds all
    commands = set(re.search(r"\{([\w,-]+)\}", cli._PARSER.format_usage())[1].split(","))
    tables = [
        ast.unparse(node.targets[0] if isinstance(node, ast.Assign) else node.target)
        for node in ast.parse(Path(cli.__file__).read_text()).body
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and _dict_keys(node.value) & commands
    ]
    assert len(tables) == 1, tables


MODULES = [eechain] + [
    importlib.import_module(f"eechain.{info.name}")
    for info in pkgutil.iter_modules(eechain.__path__)
]
# a name the docs could still cite after its code is gone
STALE_NAME = "lattice._fft_entries"


def _citable(name):
    """True for a name a doc line cites as code: dotted, snake_case, with a
    leading underscore or capitalised."""
    return "." in name or "_" in name or name[0].isupper()


def _doc_names():
    """(where, name) of each code name README.md puts in backticks, a whole
    span or the name a call in one starts with, and of each name a
    docstring of the package cites as "see <name>"."""
    name = r"[A-Za-z_]\w*(?:\.\w+)*"
    readme = (PYPROJECT.parent / "README.md").read_text()
    spans = re.findall(rf"`({name})(?:\([^`]*\))?`", readme)
    names = {("README.md", cited) for cited in spans if _citable(cited)}
    for module in MODULES:
        for docstring in _docstrings(module):
            seen = re.findall(rf"\b[Ss]ee\s+({name})", docstring)
            names |= {(module.__name__, cited) for cited in seen if _citable(cited)}
    return names


def _docstrings(module):
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            yield ast.get_docstring(node) or ""


def _unresolved_private_names(module):
    """The bare _private names a module's docstrings cite that are neither
    names of the module nor attributes of one of its classes."""
    cited = set().union(*(re.findall(r"(?<![\w.])_[A-Za-z]\w*", d) for d in _docstrings(module)))
    classes = [obj for obj in vars(module).values() if isinstance(obj, type)]
    return cited - set(vars(module)).union(*map(dir, classes))


def _resolvable_names():
    """The fields of the package's dataclasses and the module-level names of
    tests/: names no attribute path from eechain reaches."""
    names = {
        field.name
        for module in MODULES
        for cls in vars(module).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        for field in dataclasses.fields(cls)
    }
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _resolves(name, known):
    """True if name is in known, or is an attribute path from builtins, from
    eechain or from one of its modules."""
    if name in known:
        return True
    missing = object()
    for root in (builtins, *MODULES):
        obj = root
        for part in name.removeprefix("eechain.").split("."):
            obj = getattr(obj, part, missing)
        if obj is not missing:
            return True
    return False


def test_docs_cite_only_names_that_exist():
    # a helper renamed or deleted leaves its name behind in README and in
    # the docstrings that point to it
    known = _resolvable_names()
    assert not _resolves(STALE_NAME, known)
    unresolved = sorted(
        (where, name) for where, name in _doc_names() if not _resolves(name, known)
    )
    assert unresolved == []
    # a bare _name, as in "(_held)", names a helper of its own module
    private = {m.__name__: _unresolved_private_names(m) for m in MODULES}
    assert {where: names for where, names in private.items() if names} == {}
