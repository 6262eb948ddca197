"""The public surface is described once.

Each module's ``__all__`` is the one list of its public names, and the package
root republishes those lists, loading a module only when it is first used: a
fresh ``import betalab`` loads no submodule, and each CLI command loads only
its own layer.  Each routine's signature is the one list of
its parameters: through the CLI, every eval function, series, kernel and
limit takes exactly its parameters as flags, with their int/float kinds.
Those without a default are required; the others take the routine's
default when left out.
"""

from __future__ import annotations

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import betalab as bl
from betalab import cli, errors
from betalab import core_special as cs
from betalab import limits as lm
from betalab import quadrature as qd
from betalab import series as sr
from betalab import verify as vf

MODULES = (errors, cs, sr, qd, lm, vf)

EVAL_FUNCTIONS = [name for name in cs.__all__ if inspect.isfunction(getattr(cs, name))]


def _required(func) -> list[inspect.Parameter]:
    params = inspect.signature(func, eval_str=True).parameters.values()
    return [p for p in params if p.default is p.empty]


def _run(capsys, argv: list) -> tuple[int, str, str]:
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _argv(prefix: list, values: dict) -> list:
    """``prefix`` followed by ``--flag text`` for each entry of ``values``."""
    return prefix + [item for flag, text in values.items() for item in (f"--{flag}", text)]


# --- the package root ---------------------------------------------------------


def test_package_root_republishes_each_module_all():
    assert bl.__all__ == ["__version__"] + [name for m in MODULES for name in m.__all__]
    assert len(set(bl.__all__)) == len(bl.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(bl, name) is getattr(module, name), name
    assert bl.__version__ == vf.TOOL_VERSION


def test_star_import_binds_exactly_all_and_dir_lists_every_public_name():
    namespace: dict = {}
    exec("from betalab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(bl.__all__)
    assert set(bl.__all__) <= set(dir(bl))


SRC = Path(__file__).resolve().parents[1] / "src"


def _modules(code: str, *flags: str) -> set:
    """Every module that a fresh interpreter, started with ``flags``, has loaded
    after running ``code``."""
    code += "\nimport sys; print(list(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def _loaded(code: str) -> set:
    """The betalab modules that a fresh interpreter has loaded after running ``code``."""
    return {m for m in _modules(code) if m.split(".")[0] == "betalab"}


def test_importing_the_package_loads_no_submodule():
    assert _loaded("import betalab") == {"betalab"}


@pytest.mark.parametrize(
    "argv, layer",
    [
        (["--help"], ()),
        (["eval", "gamma", "--x", "4.5"], ("core_special",)),
        (["series", "beta", "--u", "3", "--v", "0.5"], ("series",)),
        (["integrate", "digamma", "--u", "1.5"], ("quadrature",)),
        (["limit", "gamma-pole"], ("core_special", "limits")),
        (["verify", "--only", "BU1"], [m.__name__.split(".")[1] for m in MODULES]),
    ],
    ids=["help", "eval", "series", "integrate", "limit", "verify"],
)
def test_each_command_loads_only_its_own_layer(argv, layer):
    loaded = _loaded(f"from betalab import cli; cli.main({argv!r})")
    assert loaded == {"betalab", "betalab.cli", "betalab.errors", *(f"betalab.{m}" for m in layer)}


# What dataclasses and inspect.signature would load.
HEAVY = {"inspect", "dataclasses", "typing", "ast", "dis", "tokenize"}


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["eval", "gamma", "--x", "4.5"], ["series", "beta", "--u", "3", "--v", "0.5"],
     ["integrate", "digamma", "--u", "1.5"], ["limit", "scaled-beta", "--u", "0.5"],
     ["verify", "--only", "BU1"]],
    ids=["help", "eval", "series", "integrate", "limit", "verify"],
)
def test_commands_load_no_introspection_modules(argv):
    # -S: no site, so only the interpreter's own start-up and betalab load modules.
    assert not _modules(f"from betalab import cli; cli.main({argv!r})", "-S") & HEAVY


def test_series_repeats_euler_gamma_exactly():
    assert sr.EULER_GAMMA == cs.EULER_GAMMA


def test_pyproject_version_is_the_tool_version():
    # Read with a regex: Python 3.10 has no tomllib.
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "([^"]*)"$', text, re.MULTILINE)[1] == vf.TOOL_VERSION


def test_errors_export_exactly_the_exception_classes():
    classes = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.BetalabError)
    }
    assert set(errors.__all__) == classes
    assert len(classes) == 6


# --- the CLI ------------------------------------------------------------------


def _choices(capsys, subcommand: str) -> set:
    """The choices that ``subcommand --help`` lists under its positional argument."""
    code, out, _ = _run(capsys, [subcommand, "--help"])
    assert code == 0
    return set(re.search(r"^\s*\{([^}]*)\}", out, re.MULTILINE).group(1).split(","))


def test_cli_offers_exactly_the_routines(capsys):
    assert _choices(capsys, "eval") == set(EVAL_FUNCTIONS)
    assert _choices(capsys, "series") == set(sr.SERIES)
    assert _choices(capsys, "integrate") == set(qd.KERNELS)
    assert _choices(capsys, "limit") == set(lm.LIMITS)


@pytest.mark.parametrize(
    "table, module, generic",
    [(qd.KERNELS, qd, qd.integrate01), (lm.LIMITS, lm, lm.richardson_limit)],
    ids=["kernels", "limits"],
)
def test_route_table_holds_every_public_routine_but_the_generic_one(table, module, generic):
    public = {f for name in module.__all__ if inspect.isfunction(f := getattr(module, name))}
    assert set(table.values()) == public - {generic}
    assert list(table) == sorted(table)  # the order the CLI lists them in


def test_root_help_lists_each_subcommand_with_its_help(capsys):
    code, out, _ = _run(capsys, ["--help"])
    assert code == 0
    assert dict(re.findall(r"^    (\S+) +(.+)$", out, re.MULTILINE)) == {
        "eval": "evaluate a reference special function",
        "series": "sum a slowly convergent series",
        "integrate": "tanh-sinh integration of a kernel",
        "limit": "Richardson-extrapolated v->0 limits",
        "verify": "run the identity suite and report",
    }


def test_series_help_names_every_termination(capsys):
    code, out, _ = _run(capsys, ["series", "--help"])
    listed = re.search(r"termination is one of ([^.]*)\.", " ".join(out.split())).group(1)
    assert code == 0 and listed.split(", ") == list(sr.TERMINATIONS)


def _check_takes_exactly(capsys, prefix: list, given: dict, flags: tuple, defaulted=()):
    """``prefix`` runs with the ``given`` flags, needs each and refuses the others.

    A flag in ``defaulted`` may be left out: the CLI supplies its default.
    """
    code, _, err = _run(capsys, _argv(prefix, given))
    assert code == 0, (prefix, err)
    for flag in given:
        code, _, err = _run(capsys, _argv(prefix, {f: t for f, t in given.items() if f != flag}))
        if flag in defaulted:
            assert code == 0, (prefix, flag, err)
        else:
            assert code == 2 and "requires" in err and f"--{flag}" in err, (prefix, flag, err)
    for flag in flags:
        if flag not in given:
            extra = "literal" if flag == "convention" else "1"
            code, _, err = _run(capsys, _argv(prefix, {**given, flag: extra}))
            assert code == 2 and f"takes no --{flag}" in err, (prefix, flag, err)


@pytest.mark.parametrize("name", EVAL_FUNCTIONS)
def test_eval_takes_the_functions_parameters_by_position(capsys, name):
    func = getattr(cs, name)
    params = _required(func)
    assert len(params) <= 2
    kinds = [p.annotation for p in params]
    assert set(kinds) <= {int, float}
    given = dict(zip(("x", "x2"), ["2" if kind is int else "2.5" for kind in kinds]))
    _check_takes_exactly(capsys, ["eval", name], given, ("x", "x2"))
    code, out, _ = _run(capsys, _argv(["eval", name], given))
    assert code == 0 and float(out) == func(*(kind(t) for kind, t in zip(kinds, given.values())))
    for flag, kind in zip(given, kinds):
        if kind is int:  # a fractional value for an int parameter is refused
            code, _, err = _run(capsys, _argv(["eval", name], {**given, flag: "2.5"}))
            assert code == 2 and f"--{flag} must be an integer" in err


SERIES_FLAGS = ("u", "v", "a", "xarg", "convention")


@pytest.mark.parametrize("name", sorted(sr.SERIES))
def test_series_takes_its_term_sources_parameters(capsys, name):
    params = list(inspect.signature(sr.SERIES[name], eval_str=True).parameters.values())
    flags = ["xarg" if p.name == "x" else p.name for p in params]  # norlund's x is --xarg
    given = {flag: "literal" if flag == "convention" else "0.5" for flag in flags}
    prefix = ["series", name, "--max-terms", "20"]
    _check_takes_exactly(capsys, prefix, given, SERIES_FLAGS, defaulted=("convention",))
    options = cli.parse(_argv(prefix, given)).options
    assert [type(options[flag]) for flag in flags] == [p.annotation for p in params]


@pytest.mark.parametrize("kernel", sorted(qd.KERNELS))
def test_integrate_takes_the_kernels_parameters(capsys, kernel):
    params = _required(qd.KERNELS[kernel])
    assert {p.annotation for p in params} == {float}
    given = {p.name: "1.5" for p in params}
    _check_takes_exactly(capsys, ["integrate", kernel, "--tol", "1e-6"], given, ("u", "v"))


@pytest.mark.parametrize("name", sorted(lm.LIMITS))
def test_limit_takes_the_routines_parameters(capsys, name):
    params = _required(lm.LIMITS[name])
    assert {p.annotation for p in params} <= {float}
    given = {p.name: "1.5" for p in params}
    _check_takes_exactly(capsys, ["limit", name, "--depth", "4"], given, ("u",))


@pytest.mark.parametrize(
    "argv, call",
    [
        (["limit", "gamma-pole", "--h0", "0.3", "--depth", "6"],
         lambda: lm.gamma_pole_limit(depth=6, h0=0.3)),
        (["integrate", "digamma", "--u", "1.5", "--tol", "1e-8"],
         lambda: qd.digamma_integral(1.5, 1e-8)),
        (["integrate", "digamma", "--u", "1.5", "--tol", "1e-4"],  # one level short of the default
         lambda: qd.digamma_integral(1.5, 1e-4)),
    ],
)
def test_defaulted_parameters_reach_the_routine(capsys, argv, call):
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    printed = dict(line.split(" = ") for line in out.splitlines())
    res = call()
    values = {name: getattr(res, name) for name in res._fields}
    expected = {
        name: format(value, ".17g") if isinstance(value, float) else str(value)
        for name, value in values.items()
    }
    assert {name.strip(): value for name, value in printed.items()} == expected


def _flag_help(capsys, command: str) -> dict:
    """flag -> its help text in ``command --help``, without whitespace."""
    code, out, _ = _run(capsys, [command, "--help"])
    assert code == 0
    options = re.split(r"^(?:options|optional arguments):$", out, flags=re.MULTILINE)[1]
    entries = re.findall(r"^  --(\S+) \S+\s+(.*?)(?=^  -|\Z)", options, re.MULTILINE | re.DOTALL)
    return {flag: "".join(text.split()) for flag, text in entries}


@pytest.mark.parametrize(
    "command, routes",
    [("eval", {name: getattr(cs, name) for name in EVAL_FUNCTIONS}), ("series", sr.SERIES),
     ("integrate", qd.KERNELS), ("limit", lm.LIMITS)],
)
def test_each_route_flag_help_names_the_routes_that_take_it(capsys, command, routes):
    takers: dict = {}
    for name, routine in sorted(routes.items()):
        for i, param in enumerate(inspect.signature(routine).parameters.values()):
            flag = ("x", "x2")[i] if command == "eval" else {"x": "xarg"}.get(param.name, param.name)
            takers.setdefault(flag, {})[name] = param.default
    helps = _flag_help(capsys, command)
    for flag, defaults in takers.items():
        assert helps[flag].startswith("for" + ",".join(defaults)), (flag, helps[flag])
        shared = set(defaults.values())
        if len(shared) == 1 and inspect.Parameter.empty not in shared:  # e.g. --tol, --depth
            assert helps[flag].endswith(f"(default{shared.pop()})"), (flag, helps[flag])
