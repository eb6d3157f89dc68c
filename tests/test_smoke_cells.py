"""CI runs only registered smoke cells, and every registered cell runs.

``ci.yml`` names its smoke cells either literally
(``scripts/smoke.py <cell>``) or through the smoke job's ``cell:``
matrix; a typo in either would fail only on CI, after a full setup.
"""

import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).parent.parent


def _smoke_cells():
    spec = importlib.util.spec_from_file_location(
        "smoke", ROOT / "scripts" / "smoke.py")
    smoke = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(smoke)
    return set(smoke.CELLS)


def test_ci_names_exactly_the_registered_cells():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    literal = set(re.findall(r"scripts/smoke\.py ([\w-]+)", ci))
    matrix = re.search(r"^\s*cell: \[([^\]]*)\]", ci, re.M)
    assert matrix, "ci.yml has no smoke cell matrix"
    matrix_cells = set(re.findall(r"[\w-]+", matrix.group(1)))
    included = set(re.findall(r"^\s*- cell: ([\w-]+)", ci, re.M))
    assert included <= matrix_cells
    assert literal | matrix_cells == _smoke_cells()
