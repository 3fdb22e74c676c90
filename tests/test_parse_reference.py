"""parse_poly against the Polynomial-valued reference parser in reference_parser.py.

On seeded strings (parentheses, powers, division, unary signs, and broken
variants: truncations, dropped and stray characters) both must return the
same terms in the same order, all Fractions, or raise the same exception
class with the same message.  The polynomial texts of the detrep benchmark
workload are compared too.
"""

import importlib.util
import random
import re
import sys
from collections import Counter
from pathlib import Path

from reference_parser import reference_parse

from hypersos.polycore import parse_poly

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
NAMES = ["x", "y", "z"]


def outcome(parse, text, names):
    try:
        p = parse(text, names)
    except Exception as exc:  # noqa: BLE001 - the exception is what is compared
        return ("raised", type(exc).__name__, str(exc))
    return ("ok", p.nvars, list(p.terms.items()), {type(c).__name__ for c in p.terms.values()})


def literal(rng):
    return rng.choice(["0", "1", "2", "3", "7", "12", "007", "123456789012345678901"])


def atom(rng):
    r = rng.random()
    if r < 0.5:
        return rng.choice(NAMES)
    if r < 0.55:
        return rng.choice(["w", "x1", "_y"])  # unknown names
    return literal(rng)


def expr(rng, depth):
    if depth <= 0 or rng.random() < 0.25:
        return atom(rng)
    kind = rng.choice(["+", "-", "*", "*", "/", "^", "()", "neg", "pos"])
    a = expr(rng, depth - 1)
    sp = rng.choice(["", "", " ", "  "])
    if kind in "+-*":
        return f"{a}{sp}{kind}{sp}{expr(rng, depth - 1)}"
    if kind == "/":
        divisor = rng.choice(["3", "0", "(1+1)", "(x-x)", "x", "(2*y)", "(4/6)", "-5", literal(rng)])
        return f"{a}{sp}/{sp}{divisor}"
    if kind == "^":
        exponent = rng.choice(["0", "1", "2", "3", "(2)", "x", "-1", ""])
        return f"({a})^{exponent}" if rng.random() < 0.7 else f"{a}^{exponent}"
    if kind == "()":
        return f"({a})"
    return ("-" if kind == "neg" else "+") + a


def broken(rng, text):
    """A truncation, a dropped character, or a stray one, sometimes."""
    r = rng.random()
    if r < 0.15 and text:
        return text[: rng.randrange(len(text))]
    if r < 0.25 and text:
        k = rng.randrange(len(text))
        return text[:k] + text[k + 1:]
    if r < 0.32:
        k = rng.randrange(len(text) + 1)
        return text[:k] + rng.choice(["$", ".", ")", "(", " 2", "x", "^", "/"]) + text[k:]
    return text


def sample_text(rng):
    """A seeded string with at most two powers, each of one digit, so that every parse is quick."""
    while True:
        text = broken(rng, expr(rng, rng.randint(1, 4)))
        if text.count("^") <= 2 and not re.search(r"\^\s*\d\d", text):
            return text


def test_parse_matches_reference_on_seeded_strings():
    rng = random.Random(2626)
    kinds = Counter()
    messages = set()
    for k in range(3200):
        text = sample_text(rng)
        names = [] if k % 50 == 0 else NAMES
        got = outcome(parse_poly, text, names)
        assert got == outcome(reference_parse, text, names), text
        kinds[got[0]] += 1
        if got[0] == "raised":
            messages.add(got[2])
    assert kinds["ok"] >= 1000 and kinds["raised"] >= 800, kinds
    for start in ("unexpected character", "expected ", "unexpected token", "unknown variable",
                  "divisor must be a nonzero constant", "division by zero",
                  "exponent must be a nonnegative integer"):
        assert any(m.startswith(start) for m in messages), start


def test_parse_matches_reference_on_fixed_strings():
    for text in ["(x + y)^0", "0^0", "(x - x)^3", "-(x + 1/3*y)^3/7", "2/3/4*x", "+-x^2^2",
                 "x^2 + q", "2 x", "x^(2)", "1/0", "x/(y - y + 2)", "((x))", "", "   "]:
        assert outcome(parse_poly, text, NAMES) == outcome(reference_parse, text, NAMES), text
    assert outcome(parse_poly, "x", ["x", "x"]) == outcome(reference_parse, "x", ["x", "x"])


def detrep_bench_texts(monkeypatch, tmp_path, seed):
    """(poly text, variable names) of every command of the detrep workload that reads one."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while they are built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    argvs = []
    monkeypatch.setattr(module, "cli_op", lambda op_id, argv, check: argvs.append(argv))
    module.build_detrep(seed, str(tmp_path))
    return [(argv[argv.index("--poly") + 1], argv[argv.index("--vars") + 1].split(","))
            for argv in argvs if "--poly" in argv]


def test_parse_matches_reference_on_detrep_bench_texts(monkeypatch, tmp_path):
    for seed in (7, 11):
        texts = detrep_bench_texts(monkeypatch, tmp_path, seed)
        assert len(texts) >= 30
        for text, names in texts:
            got = outcome(parse_poly, text, names)
            assert got[0] == "ok" and got == outcome(reference_parse, text, names), text
