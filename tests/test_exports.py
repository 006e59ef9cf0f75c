import os
import subprocess
import sys
from pathlib import Path

import eqsat


def test_every_exported_name_resolves():
    missing = [name for name in eqsat.__all__ if not hasattr(eqsat, name)]
    assert missing == []
    assert len(set(eqsat.__all__)) == len(eqsat.__all__)


def _fresh_modules(statement: str) -> set:
    """The eqsat modules a fresh interpreter has loaded after `statement`."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = f"{statement}\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('eqsat')))"
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_a_domain_import_loads_only_that_domain():
    assert "eqsat.domains.lam" not in _fresh_modules("import eqsat.domains.math")
    assert "eqsat.domains.math" not in _fresh_modules("import eqsat.domains.lam")
    both = _fresh_modules(
        "from eqsat.domains import *\nassert lam.LAMBDA.name == 'lambda' and math.MATH"
    )
    assert {"eqsat.domains.lam", "eqsat.domains.math"} <= both


def test_building_rules_generates_no_code():
    # matchers and builders are generated on first use, not at import or
    # when rules are built
    loaded = _fresh_modules(
        "from eqsat.domains import lam, math\n"
        "rules = lam.lambda_rules() + math.math_rules()\n"
        "assert not any('matcher' in vars(rw.searcher.program) for rw in rules)\n"
        "assert not any('builder' in vars(rw.applier.pattern) for rw in rules\n"
        "               if hasattr(rw.applier, 'pattern'))"
    )
    assert "eqsat.codegen" not in loaded
