"""`src/` holds only what the program runs: reference versions of its laws
and helpers only tests call live in `tests/reference.py`, and every
function reads each parameter it is passed.  Every run setting has one
source: a config parameter has no default, and no environment variable is
read."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hopperlab"

# kept although nothing in `src/` calls it: the inertial threshold of the grains
ALLOWED_UNREFERENCED = {"inertial_threshold"}


def _module_names(node) -> list[str]:
    """Names a top-level statement binds: a function, a class or constants."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]


def _used_names(node) -> set[str]:
    """Names a subtree reads, bare or as an attribute; imports do not count."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def test_every_module_level_name_in_src_is_used_by_src():
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _module_names(node)
            for name in names:
                defined[name] = path.name
            used |= _used_names(node) - set(names)
    unused = sorted(
        f"{module}: {name}"
        for name, module in defined.items()
        if name not in used and name not in ALLOWED_UNREFERENCED and not (name.startswith("__") and name.endswith("__"))
    )
    assert not unused, "defined in src/ but used only outside it: " + ", ".join(unused)


def _parameters(func) -> list[str]:
    """The parameters a caller passes: `self` and `cls` are bound by Python."""
    args = func.args
    every = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
    return [arg.arg for arg in every if arg is not None and arg.arg not in ("self", "cls")]


def test_every_function_in_src_reads_each_of_its_parameters():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                sub.id
                for stmt in body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.name}: {name}({param})" for param in _parameters(node) if param not in read]
    assert not unread, "parameters their function never reads: " + ", ".join(unread)


def test_no_function_in_src_defaults_a_config_parameter():
    # the caller passes each config: a default would be a second source of
    # the setting, and one that can disagree with the file the run read
    defaulted = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            with_default = positional[len(positional) - len(args.defaults):]
            with_default += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            defaulted += [
                f"{path.name}: {node.name}({arg.arg})"
                for arg in with_default
                if arg.annotation is not None and re.search(r"\w(Config|Params)\b", ast.unparse(arg.annotation))
            ]
    assert not defaulted, "config parameters with a default: " + ", ".join(defaulted)


def test_src_reads_no_environment_variable():
    # the output directory comes from --out alone, not from HOPPERLAB_OUT
    readers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.attr if isinstance(node, ast.Attribute) else node.id if isinstance(node, ast.Name) else None
            if name in ("environ", "getenv", "environb"):
                readers.append(f"{path.name}:{node.lineno}")
    assert not readers, "environment read at " + ", ".join(readers)
