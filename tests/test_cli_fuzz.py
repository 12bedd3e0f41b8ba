"""A seeded fuzz of the command line's exit-code contract.

Each case is a problem file of order 1-4 that would pass validation, with
zero to two of its lines replaced by a random line or joined with one, and
in one case of ten a byte that is not UTF-8 put in.  The tokens of a
random line include the numbers the checkers must reject (nan, inf, -inf,
1e400), one that overflows in the solver (1e308), -0.0, x and empty
tokens.  Whatever the file holds, ``main`` must exit 0, 1 or 2 and keep
what README.md states for that code:

- exit 1: nothing on stdout and one ``error:`` line on stderr;
- exit 2: one ``solver ...`` line on stderr;
- exit 0: nothing on stderr and no number on stdout that is not finite.

The budget is 0.5 s: ``CASES`` cases take about 0.35 s with CPython 3.11
on a shared 2-vCPU machine.
"""

import collections
import math
import random

from vihpm.cli import main

SEED = 41
CASES = 800

TOKENS = ("nan", "inf", "-inf", "1e400", "1e308", "-0.0", "x", "", "0", "1", "2", "0.5", ";")
KEYWORDS = ("order", "domain", "truncation", "iterations", "term", "bc", "exact", "x", "")
NOT_UTF8 = (b"\xff", b"\xfe", b"\x80", b"\xc3")


def valid_problem(rng: random.Random) -> list[str]:
    """Lines of a random problem of order 1-4 that passes validation."""
    m = rng.randint(1, 4)
    end = rng.choice((0.5, 1.0, 2.0))
    lines = [f"order {m}", f"domain 0 {end}"]
    if rng.random() < 0.5:
        lines.append(f"truncation {rng.randint(m, 14)}")
    if rng.random() < 0.5:
        lines.append(f"iterations {rng.randint(1, 2)}")
    for _ in range(rng.randint(0, 2)):
        coeffs = [rng.choice((-1.0, 0.5, 1.0, 2.0)) for _ in range(rng.randint(1, 3))]
        factors = [rng.randrange(m) for _ in range(rng.randint(0, 2))]
        rate = rng.choice((0.0, 1.0, -0.5))
        lines.append(" ".join(map(str, ["term", rate, *coeffs, ";", *factors])))
    # m conditions at distinct (point, derivative order) pairs
    slots = [(point, d) for point in (0.0, end / 2, end) for d in range(m)]
    for point, d in rng.sample(slots, m):
        lines.append(f"bc {point} {d} {rng.choice((0.0, 1.0, -0.5))}")
    if rng.random() < 0.3:
        lines.append(f"exact 1.0 {rng.choice((1.0, 0.5))}")
    return lines


def random_line(rng: random.Random) -> str:
    return " ".join([rng.choice(KEYWORDS), *rng.choices(TOKENS, k=rng.randint(0, 4))])


def fuzz_case(rng: random.Random, path: str) -> tuple[list[str], bytes]:
    """The arguments of one case, which name ``path``, and the bytes to
    store there."""
    lines = valid_problem(rng)
    for _ in range(rng.randint(0, 2)):
        i = rng.randrange(len(lines))
        if rng.random() < 0.5:
            lines[i] = random_line(rng)
        else:
            lines[i] += " " + random_line(rng)
    data = ("\n".join(lines) + "\n").encode()
    if rng.random() < 0.1:
        at = rng.randrange(len(data) + 1)
        data = data[:at] + rng.choice(NOT_UTF8) + data[at:]
    if rng.random() < 0.2:
        return ["convergence", path, "--depth", "2"], data
    return ["solve", path], data


def is_one_line(text: str, prefix: str) -> bool:
    return text.startswith(prefix) and text.endswith("\n") and text.count("\n") == 1


def not_finite(token: str) -> bool:
    try:
        return not math.isfinite(float(token))
    except ValueError:
        return False


def test_every_file_keeps_the_exit_code_contract(tmp_path, capsys):
    rng = random.Random(SEED)
    path = tmp_path / "problem.txt"
    codes = collections.Counter()
    for _ in range(CASES):
        argv, data = fuzz_case(rng, str(path))
        path.write_bytes(data)
        code = main(argv)
        out, err = capsys.readouterr()
        case = f"{argv[0]} of {data!r} exits {code}: {out=} {err=}"
        assert code in (0, 1, 2), case
        if code == 1:
            assert out == "" and is_one_line(err, "error: "), case
        elif code == 2:
            assert is_one_line(err, "solver "), case
        else:
            assert err == "" and not any(map(not_finite, out.split())), case
        codes[code] += 1
    # the corpus reaches every exit code
    assert sorted(codes) == [0, 1, 2], codes
