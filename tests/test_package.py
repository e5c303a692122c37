import ast
import subprocess
import sys
from pathlib import Path

import gaussesd
from gaussesd import channel, errors, esd, fock, states

MODULES = (states, channel, esd, fock, errors)


def test_all_is_the_module_lists():
    assert gaussesd.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(gaussesd.__all__)) == len(gaussesd.__all__)


def test_every_name_resolves_to_its_module():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(gaussesd, name) is getattr(module, name)


def test_star_import():
    code = ("from gaussesd import *\n"
            "import gaussesd\n"
            "missing = [n for n in gaussesd.__all__ if n not in globals()]\n"
            "assert not missing, missing\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_raise_names_a_package_error():
    # a refusal is a GaussEsdError subclass, so cli.main maps it to its exit
    # code; a bare builtin raise would read as a fault
    raised = []
    for path in sorted(Path(gaussesd.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                raised.append((path.name, node.lineno, ast.unparse(node.exc.func)))
    assert raised
    wrong = [site for site in raised
             if not (isinstance(cls := getattr(errors, site[2], None), type)
                     and issubclass(cls, errors.GaussEsdError))]
    assert not wrong, wrong
