"""One table of the rules that keep each idea of the package in one place.  A
row gives the node a rule forbids and the places that may hold it: a module, or
its top-level function or method ("tailmodel.TailModel._tail_formula"), with all
inside it.  The ast walk reads code only, so prose may name any form; three
rules read lines of text, one of them the CI workflows (as text: CI installs no
YAML parser), and one reads each module of the package and the demos whole.  A
new rule is one row and one probe that must break it; a scoped rule also keeps
an allowed form that must pass."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# built from pieces, so this file does not break the rules that read text
TAIL_TIMES, FILTER, IGNORE = "_tail" "_times", "filter" "warnings", "ig" "nore:"


def _name(node):  # f for f, x.f, f(...) and x.f(...)
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _call(n, *names):
    return isinstance(n, ast.Call) and _name(n) in names


def _minus_alpha(exponent):  # -alpha, k - model.alpha, 0.5 * (k - self.alpha)
    minus = [n.operand if isinstance(n, ast.UnaryOp) else n.right for n in ast.walk(exponent)
             if isinstance(getattr(n, "op", None), (ast.USub, ast.Sub))]
    return any(_name(a).endswith("alpha") for m in minus for a in ast.walk(m))


def _tail_power(n):  # x ** (k - alpha), x **= -alpha, (np.)pow(er)(x, k - alpha)
    if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Pow):
        return _minus_alpha(n.right if isinstance(n, ast.BinOp) else n.value)
    return _call(n, "pow", "power", "float_power") and len(n.args) > 1 and _minus_alpha(n.args[1])


def _imports(n):  # the modules an import statement names
    if isinstance(n, (ast.Import, ast.ImportFrom)):
        return [getattr(n, "module", None) or ""] + [a.name for a in n.names]
    return []


def _eigensolver(n):  # leggauss, numpy.linalg or numpy.polynomial: used, or imported
    if isinstance(n, ast.ImportFrom):
        names = [n.module or ""] + ["%s.%s" % (n.module, a.name) for a in n.names]
    else:
        names = _imports(n) or [ast.unparse(n)] * isinstance(n, (ast.Name, ast.Attribute))
    return any(re.match(r"(np|numpy)\.(linalg|polynomial)\b|(.*\.)?leggauss$", s) for s in names)


# rule: (whether a node breaks it, the places that may hold such a node)
RULES = {
    "one work-bound check": (lambda n: _call(n, "ResourceLimitError"), ["_arrays._check_budget"]),
    "one overflow raise": (lambda n: _call(n, "OverflowError"), ["_arrays._check_finite"]),
    "one overflow catch": (lambda n: isinstance(n, ast.ExceptHandler) and any(
        _name(t) == "OverflowError" for t in ast.walk(n.type or ast.Pass())), ["cli.main"]),
    "one count check": (lambda n: _call(n, "is_integer") or isinstance(n, ast.Attribute)
                        and ast.unparse(n) == "operator.index", ["_arrays._check_count"]),
    "one real check": (lambda n: isinstance(n, ast.Raise) and _call(n.exc, "ValueError") and bool(
        re.search("must (be positive|lie in)", ast.unparse(n.exc))), ["_arrays._check_real"]),
    "no on-demand import": (lambda n: bool(_imports(n)) and n.col_offset > 0, []),
    "no scipy import": (lambda n: any(re.match(r"scipy(\.|$)", m) for m in _imports(n)), []),
    "one uniform fill": (lambda n: _call(n, "random"), ["sampling._open01"]),
    "one sign draw": (lambda n: _call(n, "integers"), ["sampling._signed"]),
    "one dyadic draw rule": (lambda n: isinstance(n, ast.Call) and ast.unparse(n.func) in (
        "np.frexp", "numpy.frexp"), ["tailmodel.TailModel", "charfn"]),
    "one tail formula": (_tail_power, ["tailmodel.TailModel._tail_formula"]),
    "one errstate": (lambda n: isinstance(n, ast.Call)
                     and any(k.arg in ("over", "invalid") for k in n.keywords), ["_arrays"]),
    "no eigensolver at run time": (_eigensolver, []),
}


def _unused_imports(tree):  # lines binding a name the module never reads, nor lists in __all__
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= {c.value for n in ast.walk(tree) if isinstance(n, ast.Assign)
             and "__all__" in map(_name, n.targets) for c in ast.walk(n.value)
             if isinstance(c, ast.Constant)}
    return {n.lineno for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
            and getattr(n, "module", None) != "__future__" for a in n.names
            if (a.asname or a.name.split(".")[0]) not in read}


# rule: (the directories whose modules it reads whole, an __init__.py and its
#        re-exports aside; the lines of a module's tree that break it)
MODULE_RULES = {
    "no unused import": (("src/", "demos/"), _unused_imports),
}

# rule: (the directories whose lines it reads, the line it forbids)
TEXT_RULES = {
    "no ignored overflow warning": (("tests/", "perfbench/tests/"), re.compile(
        FILTER + ".*(overflow|invalid value)|" + IGNORE + "[^\"']*(overflow|invalid value)")),
    "no merged tail function": (("src/", "tests/"), re.compile(TAIL_TIMES)),
    # CI runs what Tier-1 runs and nothing else: a step may install, run
    # pytest or count lines, each one command with no shell control
    "one gate": ((".github/workflows/",), re.compile(
        r"^\s*(- )?run:(?!\s*(python -m pip install|(PYTHONPATH=\S+ )?python3? -m pytest|wc -l)"
        r" [^;&|`$<>]*$)")),
}


def _places(tree, module):
    """(node, place) for every node of tree: its module, top-level function or method."""
    for top in tree.body:
        outer = module + "." + top.name if isinstance(top, DEFS) else module
        for stmt in top.body if isinstance(top, ast.ClassDef) else [top]:
            method = stmt is not top and isinstance(stmt, DEFS)
            yield from ((n, outer + "." + stmt.name if method else outer) for n in ast.walk(stmt))


def _faults(path, source):
    """{(rule, line)} for each line of source, the file at path, that breaks a rule."""
    found = {(rule, i) for rule, (dirs, pattern) in TEXT_RULES.items() if path.startswith(dirs)
             for i, line in enumerate(source.splitlines(), 1) if pattern.search(line)}
    if path.endswith(".py") and not path.endswith("/__init__.py"):
        found |= {(rule, line) for rule, (dirs, lines) in MODULE_RULES.items()
                  if path.startswith(dirs) for line in lines(ast.parse(source))}
    if path.startswith("src/semistable/"):
        module = path.removeprefix("src/semistable/").removesuffix(".py")
        found |= {(rule, node.lineno) for node, place in _places(ast.parse(source), module)
                  for rule, (breaks, allowed) in RULES.items() if breaks(node)
                  and not any((place + ".").startswith(a + ".") for a in allowed)}
    return found


WALKED = (("src", "*.py"), ("demos", "*.py"), ("tests", "*.py"), ("perfbench/tests", "*.py"),
          (".github/workflows", "*.yml"))


def test_the_tree_keeps_every_rule():
    paths = sorted(p.relative_to(ROOT).as_posix() for d, glob in WALKED
                   for p in (ROOT / d).rglob(glob))
    # the walk found the package, the demos and the workflow
    assert {"src/semistable/_arrays.py", "demos/merging_walk.py",
            ".github/workflows/tests.yml"} <= set(paths)
    faults = ["%s:%d: %s" % (p, line, rule) for p in paths
              for rule, line in sorted(_faults(p, (ROOT / p).read_text(encoding="utf-8")))]
    assert not faults, "\n".join(faults)


def _src(module, *lines):  # a probe in src/semistable/<module>.py
    return "src/semistable/%s.py" % module, "\n".join(lines) + "\n"


GATE_STEP = "      - name: Tier-1 tests\n        run: %s\n"  # a probe in the workflow
TIER1_LINE = ("PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q "
              "--continue-on-collection-errors --durations=10")

# id: (the rule it breaks, or None for an allowed form that must pass; the
#      file it stands in, from the root; its source)
PROBES = {
    "mark-overflow": ("no ignored overflow warning", "tests/test_probe.py",
                      "@pytest.mark.%s('%soverflow encountered in exp')\n" % (FILTER, IGNORE)),
    "mark-invalid": ("no ignored overflow warning", "perfbench/tests/test_probe.py",
                     "pytestmark = pytest.mark.%s('%sinvalid value')\n" % (FILTER, IGNORE)),
    "warnings-call": ("no ignored overflow warning", "tests/test_probe.py",
                      "warnings.%s('ignore', message='overflow encountered')\n" % FILTER),
    "mark-deprecation": (None, "tests/test_probe.py",
                         "@pytest.mark.%s('%s:DeprecationWarning')\n" % (FILTER, IGNORE)),
    "budget-sampling": ("one work-bound check", *_src(
        "sampling", "def _draw(n):", "    raise ResourceLimitError('too many draws')")),
    "budget-arrays-count": ("one work-bound check", *_src(
        "_arrays", "def _check_count(n):", "    raise ResourceLimitError('too many')")),
    "budget-check": (None, *_src(
        "_arrays", "def _check_budget(need, budget):", "    raise ResourceLimitError(need)")),
    "overflow-raise": ("one overflow raise", *_src(
        "tailmodel", "def tail_eval(model, x):", "    raise OverflowError('T(x) overflows')")),
    "overflow-catch": ("one overflow catch", *_src(
        "sampling", "try:", "    x = 1.0", "except OverflowError:", "    x = 0.0")),
    "overflow-catch-tuple": ("one overflow catch", *_src(
        "empirics", "def run():", "    try:", "        pass",
        "    except (ValueError, OverflowError) as exc:", "        print(exc)")),
    "overflow-check-finite": (None, *_src(
        "_arrays", "def _check_finite(value, what, alpha):", "    raise OverflowError(what)")),
    "overflow-cli-main": (None, *_src(
        "cli", "def main(argv=None):", "    try:", "        pass",
        "    except (charfn.InversionError, ResourceLimitError, OverflowError) as exc:",
        "        return 4")),
    "count-is-integer": ("one count check", *_src(
        "empirics", "def gamma_n(n):", "    if not float(n).is_integer():", "        n = 0")),
    "count-operator-index": ("one count check", *_src(
        "sampling", "def _rows(n):", "    return operator.index(n)")),
    "count-check-count": (None, *_src(
        "_arrays", "def _check_count(value, name):", "    return float(value).is_integer()")),
    "real-positive": ("one real check", *_src(
        "tailmodel", "def make_pareto(alpha):", "    raise ValueError('alpha must be positive')")),
    "real-next-line": ("one real check", *_src(
        "charfn", "def cdf_from_cf(law, x):", "    raise ValueError(",
        "        'x must lie in (-inf, inf), got %s' % x)")),
    "real-check-real": (None, *_src(
        "_arrays", "def _check_real(v, name):", "    raise ValueError(name + ' must lie in')")),
    "real-other-wording": (None, *_src(
        "tailmodel", "def f(x0):", "    raise ValueError('x0 must leave a positive mass')")),
    "import-in-function": ("no on-demand import", *_src(
        "charfn", "def levy_cdf(x):", "    from math import erfc", "    return erfc(x)")),
    "import-in-try": ("no on-demand import", *_src(
        "cli", "try:", "    import numba", "except ImportError:", "    numba = None",
        "JIT = numba")),
    "import-scipy": ("no scipy import", *_src(
        "charfn", "import scipy.special", "erfc = scipy.special.erfc")),
    "import-from-scipy": ("no scipy import", *_src(
        "empirics", "from scipy import stats", "norm = stats.norm")),
    "import-top-and-prose": (None, *_src(
        "charfn", "import math", "def pchip(x):", '    """Monotone cubic, as', "    from scipy's",
        '    PCHIP."""  # import scipy', "    return math.inf")),
    "random-sampling": ("one uniform fill", *_src(
        "sampling", "def _poisson_sum_block(gen, n):", "    return gen.random(n)")),
    "random-coupling": ("one uniform fill", *_src(
        "coupling", "def _coupled_block(gen, buf):", "    gen.random(out=buf)")),
    "random-open01": (None, *_src(
        "sampling", "def _open01(gen, out):", "    gen.random(out=out)")),
    "signs-sampling": ("one sign draw", *_src(
        "sampling", "def _power_block(gen, u):", "    s = gen.integers(0, 2, u.size)")),
    "signs-signed": (None, *_src(
        "sampling", "def _signed(gen, x):", "    return gen.integers(0, 1 << 32, x.size)")),
    "frexp-sampling": ("one dyadic draw rule", *_src(
        "sampling", "def petersburg_from_uniform(u):", "    m, e = np.frexp(u)")),
    "frexp-coupling": ("one dyadic draw rule", *_src(
        "coupling", "def coupled_pair(u):", "    return np.ldexp(1.0, -np.frexp(u)[1])")),
    "frexp-cli": ("one dyadic draw rule", *_src("cli", "LEVELS = np.frexp(2.0 ** 10)")),
    "frexp-quantile-formula": (None, *_src(
        "tailmodel", "class TailModel:", "    def _quantile_formula(self, u):",
        "        return np.frexp(u)")),
    "frexp-math": (None, *_src(
        "sampling", "def _cut(cutoff):", "    return math.frexp(cutoff)[1]")),
    "frexp-charfn": (None, *_src(
        "charfn", "def _levels(t):", "    return np.frexp(t)[1]")),
    "tail-times-src": ("no merged tail function", *_src(
        "tailmodel", "def first(model, x):", "    return model.%s(x, 1)" % TAIL_TIMES)),
    "tail-times-tests": ("no merged tail function", "tests/test_probe.py",
                         "def test_x():\n    assert m.%s(2.0, 1)\n" % TAIL_TIMES),
    "power-method": ("one tail formula", *_src(
        "tailmodel", "class TailModel:", "    def _quantile_grid(self, x):",
        "        return x ** (-self.alpha)")),
    "power-k-minus": ("one tail formula", *_src(
        "tailmodel", "def tail_first_moment(model, x, k):", "    return x ** (k - model.alpha)")),
    "power-unparenthesised": ("one tail formula", *_src(
        "tailmodel", "def tail_first_moment(model, hi):", "    return hi ** -model.alpha")),
    "power-augmented": ("one tail formula", *_src(
        "sampling", "def _tail(x, alpha):", "    x **= -alpha", "    return x")),
    "power-builtin": ("one tail formula", *_src(
        "coupling", "def _t(x, alpha):", "    return pow(x, -alpha)")),
    "power-math": ("one tail formula", *_src(
        "empirics", "def _t(x, k, alpha):", "    return math.pow(x, k - alpha)")),
    "power-numpy": ("one tail formula", *_src(
        "tailmodel", "def _t(model, x):", "    return np.power(x, -model.alpha)")),
    "power-halves": ("one tail formula", *_src(
        "charfn", "def _t(x, k, alpha):", "    return x ** (0.5 * (k - alpha))")),
    "power-tail-formula": (None, *_src(
        "tailmodel", "class TailModel:", "    def _tail_formula(self, x, k=0):",
        "        return x ** (k - self.alpha)")),
    "power-quantile": (None, *_src(
        "sampling", "def _q(u, alpha):", "    return u ** (1.0 / alpha)")),
    "power-prose": (None, *_src(
        "tailmodel", "def tail_eval(x):", '    """T(x) = c x ** (-alpha) psi."""',
        "    return x  # x ** -alpha")),
    "power-no-alpha": (None, *_src(
        "empirics", "def _m(x, k):", "    return x ** (k - 1.0)")),
    "power-inverse": (None, *_src(
        "sampling", "def _q(u, alpha):", "    return u ** (-1.0 / alpha)")),
    "errstate-charfn": ("one errstate", *_src(
        "charfn", "def _reach(s):", '    with np.errstate(over="ignore", invalid="ignore"):',
        "        return s")),
    "errstate-seterr": ("one errstate", *_src("sampling", 'np.seterr(invalid="ignore")')),
    "errstate-quiet": (None, *_src(
        "_arrays", '_quiet = functools.partial(np.errstate, over="ignore", invalid="ignore")')),
    "errstate-under": (None, *_src(
        "charfn", "def _pmf(p):", '    with np.errstate(under="ignore"):', "        return p")),
    "eigensolver-leggauss": ("no eigensolver at run time", *_src(
        "charfn", "from numpy.polynomial.legendre import leggauss",
        "_gl_rule = functools.cache(leggauss)")),
    "eigensolver-leggauss-call": ("no eigensolver at run time", *_src(
        "tailmodel", "def _integrate_tail(model, a, b, k):",
        "    x, w = np.polynomial.legendre.leggauss(12)")),
    "eigensolver-linalg": ("no eigensolver at run time", *_src(
        "charfn", "def _nodes(m):", "    return numpy.linalg.eigvalsh(m)")),
    "eigensolver-linalg-import": ("no eigensolver at run time", *_src(
        "empirics", "from numpy import linalg", "EIG = linalg.eigvalsh")),
    "eigensolver-constant": (None, *_src(
        "_arrays", "# numpy.polynomial.legendre.leggauss(12) bit for bit",
        "_GL12 = (np.array([0.1252334085114689]), np.array([0.2491470458134027]))",
        "def _rule():", '    """The 12-node rule, not leggauss(12) and its np.linalg eigensolve."""',
        "    return _GL12")),
    "unused-import": ("no unused import", *_src(
        "empirics", "import math", "import numpy as np", "def f(x):", "    return np.sqrt(x)")),
    "unused-import-demo": ("no unused import", "demos/probe.py",
                           "from semistable import RngStream, gamma_n\nprint(gamma_n(3))\n"),
    "unused-import-all": (None, *_src(
        "tailmodel", "from __future__ import annotations", "from ._arrays import _quiet",
        "__all__ = ['_quiet']")),
    "unused-import-init": (None, "src/semistable/__init__.py", "from .charfn import levy_cdf\n"),
    "gate-demos": ("one gate", ".github/workflows/tests.yml", "\n".join([
        "      - name: Demos", "        run: |", "          for demo in demos/*.py; do",
        '            PYTHONPATH=src python -W error::RuntimeWarning "$demo" || exit 1',
        "          done", ""])),
    "gate-block": ("one gate", ".github/workflows/tests.yml",
                   "        run: |\n          %s\n" % TIER1_LINE),
    "gate-chained": ("one gate", ".github/workflows/tests.yml",
                     GATE_STEP % (TIER1_LINE + " && python demos/merging_walk.py")),
    "gate-tier1": (None, ".github/workflows/tests.yml", GATE_STEP % TIER1_LINE),
    "gate-install-count-perfbench": (None, ".github/workflows/tests.yml", "\n".join([
        '        run: python -m pip install "numpy==1.24.*" "scipy==1.10.*" pytest',
        "        run: wc -l src/semistable/*.py",
        "        run: python3 -m pytest perfbench/tests -q", ""])),
}


@pytest.mark.parametrize("rule, path, source", PROBES.values(), ids=list(PROBES))
def test_each_probe_breaks_its_rule_alone(rule, path, source):
    assert {r for r, _ in _faults(path, source)} == ({rule} if rule else set())

