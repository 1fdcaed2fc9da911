"""The oracle and the closed forms never reach each other, and a closed-form command loads neither the
oracle nor verify; no module imports ``dataclasses``, and no command loads it; only ``errors`` spells the input rules, ``hawking`` takes no log for a monomial, only
``analytic._binomial_sums`` names the binomials, only ``verify._check`` builds a check, and only two
producers skip the ``XState`` check; a checked value builds in one step; a private name crosses a module
boundary only where pinned, and every module parses as Python 3.10."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import dilaton_gme

_PACKAGE_DIR = os.path.dirname(dilaton_gme.__file__)
_ORACLE_MODULES = ("modes_state", "xstate", "gme")
_MODULES = sorted(name[:-3] for name in os.listdir(_PACKAGE_DIR) if name.endswith(".py"))


def _tree(module):
    with open(os.path.join(_PACKAGE_DIR, f"{module}.py")) as handle:
        return ast.parse(handle.read())


def _package_imports(module):
    """Names of the package modules that ``module`` imports directly."""
    names = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.startswith("dilaton_gme"):
                names.add(node.module.partition(".")[2])
            elif node.level == 1:
                names.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            names.update(
                a.name.partition(".")[2] for a in node.names if a.name.startswith("dilaton_gme.")
            )
    return names - {""}


def _closure(*modules):
    """The package modules that ``modules`` reach through their imports, themselves included."""
    reached = set()
    pending = list(modules)
    while pending:
        module = pending.pop()
        if module not in reached:
            reached.add(module)
            pending.extend(_package_imports(module))
    return reached


def test_oracle_modules_never_import_analytic():
    reached = _closure(*_ORACLE_MODULES)
    assert {"modes_state", "xstate", "gme", "hawking", "errors"} <= reached
    assert "analytic" not in reached and "verify" not in reached and "cli" not in reached


def test_the_closed_forms_never_import_the_oracle():
    assert _closure("analytic") == {"analytic", "hawking", "errors"}


def test_closed_form_commands_load_only_the_closed_form_layers(tmp_path):
    # In a fresh interpreter: the package resolves its names lazily, and cli imports the
    # oracle and verify only in the commands that use them.  The closed-form layers also
    # leave out the stdlib a cold start would pay for: ``dataclasses`` (with ``inspect``),
    # ``numbers`` (wanted only for a real number that is not a float) and ``json``.
    sweep = ["sweep", "--n-horizon", "3", "--p", "2", "--steps", "7", "--output", str(tmp_path / "e.csv")]
    figures = ["figures", "--output-dir", str(tmp_path), "--steps", "5"]
    code = (
        "import sys\n"
        "from dilaton_gme import cli\n"
        f"assert cli.main({sweep!r}) == 0 and cli.main({figures!r}) == 0\n"
        "print(sorted(name for name in sys.modules if name.startswith('dilaton_gme')))\n"
        "print(sorted({'dataclasses', 'inspect', 'numbers', 'json'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(_PACKAGE_DIR))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    closed_form = ["dilaton_gme", "dilaton_gme.analytic", "dilaton_gme.cli", "dilaton_gme.errors",
                   "dilaton_gme.hawking"]
    assert result.stdout.splitlines()[-2:] == [str(closed_form), "[]"]


def test_no_module_imports_dataclasses():
    # Every value type is a ``hawking._Value``: one frozen-value mechanism for the package.
    imports = [
        module
        for module in _MODULES
        for node in ast.walk(_tree(module))
        if (isinstance(node, ast.Import) and any(a.name.partition(".")[0] == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "dataclasses")
    ]
    assert imports == []


@pytest.mark.parametrize(
    "argv",
    [
        ["state", "--n-parties", "18", "--n-horizon", "4", "--p", "2"],
        ["verify", "--grid", "small"],
        ["sweep", "--n-horizon", "3", "--p", "2", "--n-parties", "5", "--oracle", "--steps", "7"],
    ],
    ids=["state", "verify", "sweep-oracle"],
)
def test_oracle_commands_leave_dataclasses_and_inspect_unloaded(argv, tmp_path):
    # In a fresh interpreter, a command that builds the oracle's containers or the verify
    # reports loads neither ``dataclasses`` nor what it imports: ``inspect`` and, through it,
    # ``ast``, ``dis`` and ``tokenize``.
    if argv[0] == "sweep":
        argv = [*argv, "--output", str(tmp_path / "e.csv")]
    code = (
        "import sys\n"
        "from dilaton_gme import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(_PACKAGE_DIR))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines()[-1] == "[]"


def _type_tests(tree, kind):
    """Line numbers where ``tree`` tests a value or a type against the builtin ``kind``.

    That is ``isinstance``/``issubclass`` with ``kind`` among the types, and
    any comparison with ``kind`` as an operand (``type(v) is bool``,
    ``bool in kinds``).  For ``bool``, ``type(v) is float`` is not one.
    """

    def is_kind(node):
        return isinstance(node, ast.Name) and node.id == kind

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            if any(map(is_kind, [node.left, *node.comparators])):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "issubclass"):
            kinds = node.args[1:]
            kinds = [*kinds, *(e for k in kinds if isinstance(k, ast.Tuple) for e in k.elts)]
            if any(map(is_kind, kinds)):
                lines.append(node.lineno)
    return lines


def test_only_errors_imports_numbers():
    imports_numbers = [
        module
        for module in _MODULES
        for node in ast.walk(_tree(module))
        if (isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "numbers")
    ]
    assert imports_numbers == ["errors"]


def test_only_errors_tests_for_bool():
    tests_bool = {module: _type_tests(_tree(module), "bool") for module in _MODULES}
    assert [module for module, lines in tests_bool.items() if lines] == ["errors"], tests_bool


def test_only_the_layout_and_sequence_rules_test_for_str():
    # ``ModeLayout`` holds the rule for a mode label and ``errors._sequence`` the one that
    # refuses a bare ``str`` as a sequence; every other site goes through one of them.
    tests_str = {module: _type_tests(_tree(module), "str") for module in _MODULES}
    assert [module for module, lines in tests_str.items() if lines] == ["errors", "modes_state"], tests_str


# Where each input-rule helper is defined; ``None`` marks a deleted spelling.
_RULE_HOMES = {
    "_is_index": "errors",
    "_check_count": "errors",
    "_is_real": "errors",
    "_real": "errors",
    "_items": "errors",
    "_sequence": "errors",
    "_check_theta": "hawking",
    "_power_rows": "hawking",
    "_check_real": None,
    "_power": None,
    "_binomial_weights": None,
    "_check_pair": None,
    "_log_beta": None,
}


def test_each_rule_helper_is_defined_in_one_module():
    defined = {}
    for module in _MODULES:
        for node in _tree(module).body:
            if isinstance(node, ast.FunctionDef) and node.name in _RULE_HOMES:
                defined.setdefault(node.name, []).append(module)
    assert defined == {name: [home] for name, home in _RULE_HOMES.items() if home}


# The package exports what ``__init__`` lists under each library module; these are its 41 names.
_EXPORTS = """
BlackHoleParams BogoliubovGrid BogoliubovPair DilatonGmeError InvalidDensity InvalidParams
InvalidPartition InvalidSpec ModeLayout NotXState OddN ScaleCap ScenarioSpec SparseDensity
SparseState VerificationCheck VerificationReport XState __version__ bogoliubov
build_block_matrix coeff_power default_oracle_grid e_general e_grid
expand_kruskal extract_xstate flat_mode gme_pure gme_xstate monogamy_residual
monotonicity_scan oracle_compare pair_entanglement partial_trace peak_dilaton
relationship_suite scenario_density sum_rule_linear sum_rule_quadratic theta_derivative
""".split()


def _assigns_all(tree):
    """Line numbers where ``tree`` assigns the name ``__all__``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
    ]


def test_the_exports_are_listed_once_each_under_its_home_module():
    assigns = {module: _assigns_all(_tree(module)) for module in _MODULES}
    assert [module for module, lines in assigns.items() if lines] == ["__init__"], assigns
    assert sorted(dilaton_gme._EXPORTS) == [m for m in _MODULES if m not in ("__init__", "cli")]
    for home, names in dilaton_gme._EXPORTS.items():
        module = importlib.import_module(f"dilaton_gme.{home}")
        for name in names:
            assert getattr(dilaton_gme, name) is getattr(module, name)
            assert getattr(module, name).__module__ == module.__name__, (home, name)
    assert set(dilaton_gme.__all__) <= set(dir(dilaton_gme))


def test_package_exports_are_pinned():
    assert len(_EXPORTS) == 41
    assert sorted(dilaton_gme.__all__) == _EXPORTS
    for name in _EXPORTS:
        assert getattr(dilaton_gme, name) is not None
    gone = ("GridPoint", "Mode", "e_accessible", "e_inaccessible", "log_power", "DegenerateCoefficient",
            "extreme_limit", "kruskal_mode", "out_mode", "in_mode", "build_initial_state", "UnknownMode")
    for name in gone:
        assert not hasattr(dilaton_gme, name)
    assert not hasattr(dilaton_gme.BlackHoleParams, "from_charge")
    assert not hasattr(dilaton_gme.XState, "dimension")
    assert not hasattr(dilaton_gme.ModeLayout, "position")
    assert not hasattr(dilaton_gme.ScenarioSpec, "kruskal_layout")
    assert not hasattr(dilaton_gme.verify, "MAX_GRID_STEPS")


def _names_used(path):
    """Every name, attribute and imported name that the code in ``path`` mentions."""
    with open(path) as handle:
        tree = ast.parse(handle.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_no_module_keeps_an_underflow_rule():
    # ``coeff_power``, ``BogoliubovGrid.powers`` and ``_power_rows`` form ``alpha**p * beta**q``
    # as the plain product, which underflows only where the exact one does: no floor, no
    # margin and no log-domain route, and in ``hawking`` only the coefficients take an exp.
    rule = {"_LOG_DIRECT_FLOOR", "_BOUND_MARGIN", "_log_beta"}
    naming = {m: sorted(rule & _names_used(os.path.join(_PACKAGE_DIR, f"{m}.py"))) for m in _MODULES}
    assert {module: names for module, names in naming.items() if names} == {}
    assert _callers(_tree("hawking"), "log") == []
    assert set(_callers(_tree("hawking"), "exp")) == {"_mixing"}


def test_only_the_binomial_sum_kernel_names_comb():
    # ``analytic._binomial_sums`` builds each row's ``C(m, k)`` itself; the scalar rules and
    # the verify suite hand it power rows only, so no other site keeps a weight table.
    naming = [m for m in _MODULES if "comb" in _names_used(os.path.join(_PACKAGE_DIR, f"{m}.py"))]
    assert naming == ["analytic"]
    assert _callers(_tree("analytic"), "comb") == ["_binomial_sums"]


def test_every_export_has_a_caller_outside_the_unit_tests():
    # A caller is the library itself, the benchmark or the acceptance gate; a name that only
    # unit tests reach is surface that nothing uses.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench = os.path.join(root, "bench")
    paths = [os.path.join(_PACKAGE_DIR, f"{m}.py") for m in _MODULES if m != "__init__"]
    paths += [os.path.join(bench, name) for name in sorted(os.listdir(bench)) if name.endswith(".py")]
    paths.append(os.path.join(root, "tests", "test_acceptance.py"))
    used = set().union(*map(_names_used, paths))
    assert sorted(set(dilaton_gme.__all__) - used - {"__version__"}) == []


def _value_keyed_caches(tree):
    """Line numbers where ``tree`` names ``functools.cache`` or ``functools.lru_cache``."""
    banned = {"cache", "lru_cache"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in banned:
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name in banned for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_no_module_keeps_a_value_keyed_cache():
    # A cache keyed by argument values would let equal inputs built apart, such as the
    # benchmark's fresh requests, share work; a cache on one object (cached_property) may not.
    caches = {module: _value_keyed_caches(_tree(module)) for module in _MODULES}
    assert {module: lines for module, lines in caches.items() if lines} == {}
    assert _value_keyed_caches(ast.parse("import functools\n@functools.lru_cache\ndef f(): pass")) == [2]
    assert _value_keyed_caches(ast.parse("from functools import cache")) == [1]
    assert _value_keyed_caches(ast.parse("import functools\nx = functools.cached_property")) == []


def _callers(tree, name):
    """Top-level functions and classes of ``tree`` that call ``name``, ``None`` for module level."""
    callers = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                if name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    callers.append(getattr(top, "name", None))
    return callers


def test_only_check_builds_a_verification_check():
    # Every check's worst case goes through ``verify._check``, the one spelling of the
    # first-NaN, else first-largest rule; no other site may build a check of its own.
    callers = {module: _callers(_tree(module), "VerificationCheck") for module in _MODULES}
    assert {module: names for module, names in callers.items() if names} == {"verify": ["_check"]}
    source = "def f():\n    return v.VerificationCheck()\nclass C:\n    def g(self):\n        VerificationCheck()\n"
    source += "VerificationCheck()\n"
    assert _callers(ast.parse(source), "VerificationCheck") == ["f", "C", None]


def test_only_the_lean_producers_skip_the_xstate_check():
    # ``XState._unchecked`` stores blocks without the public check.  Only ``build_block_matrix``
    # may call it: it writes closed-form blocks that are valid by construction.  Every other
    # producer, ``extract_xstate`` first, reads data that nothing has checked as an X-state
    # and goes through the public constructor.
    callers = {module: _callers(_tree(module), "_unchecked") for module in _MODULES}
    assert {module: names for module, names in callers.items() if names} == {"xstate": ["build_block_matrix"]}


def _slot_writes(node):
    """The ``object.__setattr__`` calls under ``node``."""
    return [
        call
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "__setattr__"
        and getattr(call.func.value, "id", None) == "object"
    ]


def _field_names(cls):
    """The names in the ``__slots__`` of class node ``cls``, but ``__dict__``."""
    for node in cls.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__slots__":
            return [slot for slot in ast.literal_eval(node.value) if slot != "__dict__"]
    return []


def _written(statement):
    """The slot that ``statement`` writes if it is ``object.__setattr__(self, "<slot>", ...)``, else ``None``."""
    calls = _slot_writes(statement)
    if isinstance(statement, ast.Expr) and calls == [statement.value] and ast.unparse(calls[0].args[0]) == "self":
        return getattr(calls[0].args[1], "value", None)
    return None


def _one_step_faults(tree):
    """``[(class, fault), ...]``: where ``tree`` builds a value in more than one step.

    A class with a check, ``__post_init__``, builds in one step: its ``__init__`` is the one
    statement ``self.__post_init__(...)`` on its own parameters in order, which are its fields (a
    copy or a pickle rebuilds from them), and ``__post_init__`` takes the same parameters and ends
    by writing each field once, in order, with ``object.__setattr__``; it writes nothing else.
    No other function writes a slot that way, but ``XState._unchecked`` and the ``__init__`` of a
    class without a check.
    """
    faults = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and _slot_writes(top):
            faults.append((None, f"{top.name} writes a slot"))
        if not isinstance(top, ast.ClassDef):
            continue
        methods = {node.name: node for node in top.body if isinstance(node, ast.FunctionDef)}
        check = methods.get("__post_init__")
        writers = {"__post_init__"} if check else {"__init__"}
        if top.name == "XState":
            writers.add("_unchecked")
        for name, method in methods.items():
            if name not in writers and _slot_writes(method):
                faults.append((top.name, f"{name} writes a slot"))
        if check is None:
            continue
        fields, init = _field_names(top), methods["__init__"]
        params = [arg.arg for arg in init.args.args[1:]]
        if [ast.unparse(statement) for statement in init.body] != [f"self.__post_init__({', '.join(params)})"]:
            faults.append((top.name, "__init__ is not the one call self.__post_init__(<its parameters>)"))
        if not [arg.arg for arg in check.args.args[1:]] == params == fields:
            faults.append((top.name, "__post_init__, __init__ and __slots__ name different fields"))
        ending = check.body[len(check.body) - len(fields) :]
        if len(_slot_writes(check)) != len(fields) or [_written(statement) for statement in ending] != fields:
            faults.append((top.name, "__post_init__ does not end by writing each field once"))
    return faults


def test_each_checked_value_builds_in_one_step():
    # The benchmark's tracer records one span per ``__post_init__`` call: one per build, as long
    # as ``__init__`` only calls it, and no slot is written twice.
    faults = {module: _one_step_faults(_tree(module)) for module in _MODULES}
    assert {module: found for module, found in faults.items() if found} == {}
    source = (
        "class A:\n"
        "    __slots__ = ('x', 'y')\n"
        "    def __init__(self, x, y):\n"
        "        object.__setattr__(self, 'x', x)\n"
        "        self.__post_init__()\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'y', self.y)\n"
        "        object.__setattr__(self, 'y', self.y)\n"
        "class B:\n"
        "    __slots__ = ('x', '__dict__')\n"
        "    def __init__(self, x):\n"
        "        self.__post_init__(x)\n"
        "    def __post_init__(self, x):\n"
        "        object.__setattr__(self, 'x', x)\n"
        "    def move(self):\n"
        "        object.__setattr__(self, 'x', 0)\n"
        "class C:\n"
        "    __slots__ = ('x',)\n"
        "    def __init__(self, x):\n"
        "        object.__setattr__(self, 'x', x)\n"
        "def f(value):\n"
        "    object.__setattr__(value, 'x', 1)\n"
    )
    assert _one_step_faults(ast.parse(source)) == [
        ("A", "__init__ writes a slot"),
        ("A", "__init__ is not the one call self.__post_init__(<its parameters>)"),
        ("A", "__post_init__, __init__ and __slots__ name different fields"),
        ("A", "__post_init__ does not end by writing each field once"),
        ("B", "move writes a slot"),
        (None, "f writes a slot"),
    ]


def _private_names_taken(tree):
    """``{module: [name, ...]}``: the private names that ``tree`` takes from other package modules.

    That is ``from .module import _name``, and ``module._name`` after ``from . import module``.
    The input-rule helpers of ``errors`` are every module's to use and are left out.
    """

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    homes, taken = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if not node.module:
                    homes[alias.asname or alias.name] = alias.name
                elif private(alias.name) and node.module != "errors":
                    taken.add((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in homes:
            if private(node.attr) and homes[node.value.id] != "errors":
                taken.add((homes[node.value.id], node.attr))
    return {home: sorted(name for h, name in taken if h == home) for home, _ in sorted(taken)}


def test_private_names_cross_module_boundaries_only_as_pinned():
    # A private name that one library module takes from another is shared surface; a new one
    # has to be added here, in the same change.
    crossings = {module: _private_names_taken(_tree(module)) for module in _MODULES}
    assert {module: taken for module, taken in crossings.items() if taken} == {
        "analytic": {"hawking": ["_check_exponents", "_check_positive", "_check_theta", "_power_rows"]},
        "modes_state": {"hawking": ["_Value", "_check_theta"]},
        "xstate": {"hawking": ["_Value"], "modes_state": ["_total"]},
        "verify": {
            "analytic": ["_binomial_sums"],
            "hawking": ["_Value", "_power_rows"],
        },
        "cli": {"verify": ["_shape_scans"]},
    }
    source = "from . import verify as v, gme\nfrom .hawking import _a, b\nfrom .errors import _real\n"
    source += "v._c(gme._d, gme.e, v.__doc__)\n"
    assert _private_names_taken(ast.parse(source)) == {"gme": ["_d"], "hawking": ["_a"], "verify": ["_c"]}


def test_every_module_parses_as_the_oldest_supported_python():
    # pyproject.toml declares requires-python >= 3.10, and the tests run on a newer one.
    for module in _MODULES:
        with open(os.path.join(_PACKAGE_DIR, f"{module}.py")) as handle:
            ast.parse(handle.read(), f"{module}.py", feature_version=(3, 10))
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
