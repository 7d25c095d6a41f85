"""Check one job's exit code and output.

Every job gets the reference-free invariants: the exit code the generator
expects, the shape of the report, enclosure widths of at most 2^-tol,
residuals that contain 0, and, for `code --directive`, the word letter for
letter against an S-adic limit computed here.  Jobs with a committed
reference (the anchors, and every job of the default seed) must also match
it: the exit code and every discrete field exactly, and each beta
enclosure must overlap the reference's.  Disjoint enclosures prove a bug;
overlapping ones are only consistent, so certified but different endpoints
still pass.  Byte identity with the reference is reported, never required.

Like jobs.py, this module does not import altbase.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sadic_word(blocks, length):
    """First `length` letters of lim eta(c_0) eta(c_1) ... (0), blocks cycled.

    eta(c) maps j -> 0^{c_j} (j+1) for j < k-1 and k-1 -> 0^{c_k}.
    """
    k = len(blocks[0])
    images = {j: (j,) for j in range(k)}
    for step in range(100_000):
        c = blocks[step % len(blocks)]
        sub = {j: (0,) * c[j] + ((j + 1,) if j < k - 1 else ()) for j in range(k)}
        new = {}
        for j in range(k):
            out = []
            for letter in sub[j]:
                out.extend(images[letter])
                if len(out) >= length:
                    break
            new[j] = tuple(out[:length])
        images = new
        word = images[0]
        if len(word) >= length:
            return word
    raise RuntimeError("S-adic prefix stopped growing")


def _dyadic(d) -> Fraction:
    m, e = d["mantissa"], d["exponent"]
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _interval(iv) -> tuple[Fraction, Fraction]:
    return _dyadic(iv["lo"]), _dyadic(iv["hi"])


def summarize(job, rc, out, err):
    """The reference record of a job's output: exit code, digests, fields."""
    data = None
    if rc in (0, 1) and job["kind"] in ("validate", "synthesize"):
        payload = json.loads(out)
        if "betas" in payload:
            data = {k: payload[k] for k in ("p", "parry", "uniqueness", "classification")}
            data["betas"] = payload["betas"]
        else:
            data = payload
    elif rc == 0 and job["kind"] == "code":
        data = out.splitlines()[0]
    elif rc == 2:
        data = err
    return {"argv": job["argv"], "exit": rc, "stdout": digest(out),
            "stderr": digest(err), "data": data}


class Failure(Exception):
    pass


def _require(cond, why):
    if not cond:
        raise Failure(why)


def _check_synthesis(job, payload, ref):
    exp = job["expect"]
    width = Fraction(1, 1 << exp["tol"])
    p = exp["p"]
    _require(payload["p"] == p, f"p = {payload['p']}")
    _require(len(payload["betas"]) == p and len(payload["residuals"]) == p,
             "wrong number of betas or residuals")
    for n, iv in enumerate(payload["betas"]):
        lo, hi = _interval(iv)
        _require(1 < lo <= hi, f"beta {n} enclosure [{float(lo)}, {float(hi)}] not above 1")
        _require(hi - lo <= width, f"beta {n} wider than 2^-{exp['tol']}")
    for n, iv in enumerate(payload["residuals"]):
        lo, hi = _interval(iv)
        _require(lo <= 0 <= hi, f"residual {n} excludes 0")
        _require(hi - lo <= width, f"residual {n} wider than 2^-{exp['tol']}")
    _require(payload["classification"] == exp["classification"], "classification")
    _require(all(payload["parry"]) == exp["admissible"], "Parry verdicts")
    _require(payload["uniqueness"] == "UniqueByUP", f"uniqueness {payload['uniqueness']}")
    if ref is None:
        return
    for key in ("parry", "uniqueness", "classification"):
        _require(payload[key] == ref["data"][key], f"{key} differs from the reference")
    for n, (iv, riv) in enumerate(zip(payload["betas"], ref["data"]["betas"])):
        lo, hi = _interval(iv)
        rlo, rhi = _interval(riv)
        _require(lo <= rhi and rlo <= hi, f"beta {n} disjoint from the reference")


def _check_report(job, payload, rc):
    _require(payload["p"] == job["expect"]["p"], f"p = {payload['p']}")
    _require(payload["ok"] == (rc == 0), "verdict disagrees with the exit code")
    _require(bool(payload["violations"]) == (rc != 0), "violations disagree with the verdict")


def _check(job, rc, out, err, ref):
    exp = job["expect"]
    _require(rc is not None, "exception escaped the CLI: " + err.strip().splitlines()[-1]
             if err.strip() else "exception escaped the CLI")
    _require("Traceback" not in err, "traceback on stderr")
    _require(rc == exp["exit"], f"exit {rc}, expected {exp['exit']}: {err.strip()[:160]}")
    if ref is not None:
        _require(rc == ref["exit"], f"exit {rc}, reference {ref['exit']}")
    if rc == 2:
        _require(out == "" and (err.startswith("error:") or err.startswith("usage:")),
                 "rejection without an error message")
        if ref is not None:
            _require(err == ref["data"], "error message differs from the reference")
        return
    if job["kind"] == "code":
        lines = out.splitlines()
        word = lines[0] if lines else ""
        _require(len(word) == exp["len"] and word.isdigit(), "word length or letters")
        _require((lines[1:] == ["check: ok"]) if exp["check"] else len(lines) == 1,
                 "check line")
        if "blocks" in exp:
            want = "".join(map(str, sadic_word(exp["blocks"], exp["len"])))
            _require(word == want, "word differs from the S-adic limit")
        if ref is not None:
            _require(word == ref["data"], "word differs from the reference")
        return
    payload = json.loads(out)
    if job["kind"] == "synthesize" and rc == 0:
        _check_synthesis(job, payload, ref)
        return
    _check_report(job, payload, rc)
    if ref is not None:
        _require(payload == ref["data"], "Parry report differs from the reference")


def check_job(job, rc, out, err, ref):
    """(cause of failure or None, byte-identical to the reference or None)."""
    try:
        _require(ref is None or ref["argv"] == job["argv"],
                 "stale reference: recorded for other arguments")
        _check(job, rc, out, err, ref)
        cause = None
    except Failure as exc:
        cause = str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        cause = f"unreadable output: {exc!r}"
    same = None
    if ref is not None:
        same = digest(out) == ref["stdout"] and digest(err) == ref["stderr"]
    return cause, same
