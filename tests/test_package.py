import subprocess
import sys

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
