"""The benchmark's fingerprints and checks read hypersos verdicts and certificates.

perfbench/workloads.py is loaded by path, unchanged, with perfbench/ on
sys.path for its `import exact`.  Its verdict fingerprint and check run on a
certify_sos YES and a NO here, so that renaming a certificate attribute they
read fails this test instead of showing up as "fingerprint raised" in the next
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from hypersos.polycore import parse_poly
from hypersos.soscert import certify_sos

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while they are built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_fingerprint_and_check_read_yes_and_no_verdicts(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    names = ["x", "y", "z"]
    yes = certify_sos(parse_poly("(x + 2*y)^2 * (x - z)^2 + x^2*y^2", names), 0)
    no = certify_sos(parse_poly("x^4*y^2 + x^2*y^4 - 3*x^2*y^2*z^2 + z^6", names), 0)
    assert yes.is_yes and no.is_no

    fp = workloads.verdict_fingerprint(yes)
    assert fp["status"] == yes.status.value
    assert fp["basis"] == len(yes.witness.basis) and fp["N"] == 0
    assert 0 < fp["gram_rank"] <= fp["basis"]
    assert workloads.check_verdict(yes, yes.witness.target, "yes") == []
    assert workloads.check_verdict(yes, None, "no") == ["CERTIFIED_YES contradicts the known truth"]

    assert workloads.verdict_fingerprint(no) == {"status": no.status.value, "detail": no.detail[:96]}
    assert workloads.check_verdict(no, None, "no") == []
    assert workloads.check_verdict(no, None, "yes") == ["CERTIFIED_NO contradicts the known truth"]
