"""Output gates: each takes one operation's exit status and output and
returns None when the output checks out, or a one-line reason when it does
not.  A gate never raises on malformed output; the caller counts the
operation as failed and carries on.

The checks re-derive each claim from the package's public functions, so
they run with the tracer uninstalled.
"""

from __future__ import annotations

import hashlib
import math
import re

from spinor_ternary import evaluate, in_Mt, local_represents, locally_represented
from spinor_ternary.local_solver import LocalVerdict, verify_certificate

_REPRESENTED = re.compile(r"^REPRESENTED \((-?\d+),(-?\d+),(-?\d+)\)$")
_EXCEPTIONAL = re.compile(r"^EXCEPTIONAL, matched \(s=(\d+), t=(\d+)\)$")
_EXCLUDED = re.compile(r"^LOCALLY_EXCLUDED, fails at p=(\d+)$")
_LOCAL_YES = re.compile(
    r"^representable: x=\((-?\d+),(-?\d+),(-?\d+)\) with F\(x\) = (\d+) mod "
    r"(\d+)\^(\d+), gradient order (\d+)( \(unramified shortcut\))?$"
)
_LOCAL_NO = re.compile(r"^non-representable: exhausted mod (\d+)\^(\d+)$")
_VERIFY = re.compile(
    r"^(\w+) bound=(\d+) represented=\d+ exceptional=\d+ locally_excluded=\d+ mismatches=0 PASS$"
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _single_line(stdout: str) -> str | None:
    lines = stdout.splitlines()
    return lines[0] if len(lines) == 1 else None


def check_verify(rc: int, stdout: str, bound: int, n_records: int, expected_sha: str) -> str | None:
    """PASS on every record at the bound, and stdout bytes as recorded."""
    if rc != 0:
        return f"verify exit status {rc}"
    lines = stdout.splitlines()
    passed = [m for m in map(_VERIFY.match, lines) if m and int(m.group(2)) == bound]
    if len(lines) != n_records or len(passed) != n_records:
        return f"verify: {len(passed)} PASS lines of {len(lines)}, expected {n_records}"
    if sha256(stdout) != expected_sha:
        return "verify stdout sha256 differs from the recorded one"
    return None


def check_digest(rc: int, digest: str, expected_sha: str) -> str | None:
    if rc != 0:
        return f"exit status {rc}"
    if digest != expected_sha:
        return "stdout sha256 differs from the recorded one"
    return None


def check_classify(rec, n: int, rc: int, stdout: str) -> str | None:
    """The verdict line's evidence must hold for (rec, n):
    a witness evaluating to n under the first sgi form, a squareclass
    s*M_t^2 of the record containing n, or a prime refusing n locally."""
    if rc != 0:
        return f"classify exit status {rc}"
    line = _single_line(stdout)
    if line is None:
        return "classify: expected one output line"
    form = rec.sgi_forms[0]
    if m := _REPRESENTED.match(line):
        v = tuple(int(t) for t in m.groups())
        return None if evaluate(form, v) == n else f"classify: witness {v} does not give {n}"
    if m := _EXCEPTIONAL.match(line):
        s, t = int(m.group(1)), int(m.group(2))
        if (s, t) not in rec.exceptional_spec or n % s:
            return f"classify: (s={s}, t={t}) is not a squareclass of {rec.rid} holding {n}"
        w = math.isqrt(n // s)
        if w * w * s != n or not in_Mt(t, w):
            return f"classify: {n} is not in {s}*M_{t}^2"
        return None
    if m := _EXCLUDED.match(line):
        p = int(m.group(1))
        if p not in rec.ramified_primes() or local_represents(form, p, n).representable:
            return f"classify: p={p} does not exclude {n}"
        return None
    return f"classify: unparsed line {line!r}"


def check_local(rec, p: int, n: int, rc: int, stdout: str) -> str | None:
    """A representable verdict must carry a valid Hensel certificate; a
    non-representable one must agree with the congruence-table route."""
    if rc != 0:
        return f"local exit status {rc}"
    line = _single_line(stdout)
    if line is None:
        return "local: expected one output line"
    form = rec.sgi_forms[0]
    if m := _LOCAL_YES.match(line):
        x, y, z, n_out, p_out, k, g = (int(t) for t in m.groups()[:7])
        if (n_out, p_out) != (n, p) or k % 2 == 0:
            return f"local: line does not answer p={p}, n={n}"
        verdict = LocalVerdict(p, n, True, residue=(x, y, z), precision=(k - 1) // 2, grad_ord=g)
        return None if verify_certificate(form, verdict) else "local: certificate fails"
    if m := _LOCAL_NO.match(line):
        if int(m.group(1)) != p:
            return f"local: line does not answer p={p}"
        return None if not locally_represented(form, p, n) else f"local: table route represents {n}"
    return f"local: unparsed line {line!r}"
