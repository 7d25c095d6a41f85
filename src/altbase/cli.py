"""Batch command line: validate word lists, synthesize bases, print codings.

Exit codes: 0 success, 1 failed validation or a failed cross-check, 2 parse
or usage error, 3 depth or window exhausted, 4 undecidable at the working
precision, 5 a violated internal invariant (a defect, never a bad input).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .coding import Directive, base_from_directive, faithful_coding, sadic_limit
from .errors import AltBaseError, ParseError
from .numerics import DEFAULT_PREC
from .synthesis import certificate_json, certify, synthesize_periodic
from .words import ExpansionList, check_parry, parse_word

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2


def _emit(ns, payload: dict, text_lines: Sequence[str]) -> None:
    if ns.format == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _gather_words(raw: Sequence[str]) -> list[str]:
    if list(raw) == ["-"]:
        return sys.stdin.read().split()
    return list(raw)


def _parse_list(raw: Sequence[str], p: int) -> ExpansionList:
    texts = _gather_words(raw)
    if len(texts) != p:
        raise ParseError(f"expected {p} words for period {p}, got {len(texts)}")
    return ExpansionList(tuple(parse_word(t) for t in texts))


def _interval_str(enc) -> str:
    return f"[{enc.lo.decimal()}, {enc.hi.decimal()}]"


def _report_payload(report) -> dict:
    return {
        "ok": report.ok,
        "p": report.p,
        "checked_up_to": report.checked_up_to,
        "partial": report.partial,
        "violations": [
            {"entry": v.entry, "shift": v.shift, "position": v.position}
            for v in report.violations
        ],
    }


def _report_lines(report) -> list[str]:
    lines = [f"p = {report.p}", f"checked suffixes up to {report.checked_up_to}"]
    for v in report.violations:
        lines.append(f"violation: {v.describe()}")
    lines.append("parry: ok" if report.ok else "parry: FAIL")
    return lines


def cmd_validate(ns) -> int:
    lst = _parse_list(ns.words, ns.p)
    report = check_parry(lst, depth=ns.depth)
    _emit(ns, _report_payload(report), _report_lines(report))
    return EXIT_OK if report.ok else EXIT_INVALID


def _reject_inadmissible(ns, lst: ExpansionList, depth: Optional[int]) -> bool:
    """Print the violation report and return True when lst fails Parry."""
    report = check_parry(lst, depth=depth)
    if not report.ok:
        _emit(ns, _report_payload(report), _report_lines(report))
    return not report.ok


def cmd_synthesize(ns) -> int:
    lst = _parse_list(ns.words, ns.p)
    if not ns.skip_parry and _reject_inadmissible(ns, lst, ns.depth):
        return EXIT_INVALID
    base, _ = synthesize_periodic(lst, tol_bits=ns.tol)
    cert = certify(lst, base)
    payload = certificate_json(base, cert)
    p = base.p
    lines = [f"p = {p}"]
    for i in reversed(range(p)):
        lines.append(f"beta_{i} = {_interval_str(base.betas[i])}")
    lines.append("parry: " + ("ok" if all(cert.parry_ok) else "FAIL"))
    lines.append(f"uniqueness: {cert.uniqueness}")
    lines.append("classification: " + ",".join(cert.classification))
    for i, r in enumerate(cert.residuals):
        lines.append(f"residual_{i} = {_interval_str(r)}")
    _emit(ns, payload, lines)
    return EXIT_OK


def _parse_directive(text: str) -> Directive:
    try:  # int() and Directive both raise ValueError
        return Directive(tuple(
            tuple(int(x) for x in part.split(",")) for part in text.split(";")
        ))
    except ValueError as exc:
        raise ParseError(f"bad directive {text!r}: {exc}") from exc


def _word_str(word: tuple[int, ...]) -> str:
    if max(word, default=0) > 9:
        return ",".join(map(str, word))
    return "".join(map(str, word))


def cmd_code(ns) -> int:
    if (ns.directive is None) == (not ns.base):
        raise ParseError("pick exactly one of --directive or --base")
    if ns.directive is not None:
        directive = _parse_directive(ns.directive)
        if ns.check:
            base = base_from_directive(directive, tol_bits=ns.tol)
            word = faithful_coding(base, ns.len, depth=ns.depth)
        else:
            word = sadic_limit(directive, ns.len)
    else:
        texts = _gather_words(ns.base)
        lst = ExpansionList(tuple(parse_word(t) for t in texts))
        # --depth is the gap-table depth here, so Parry runs at its own default
        if _reject_inadmissible(ns, lst, None):
            return EXIT_INVALID
        base, _ = synthesize_periodic(lst, tol_bits=ns.tol)
        word = faithful_coding(base, ns.len, depth=ns.depth)
    payload = {"length": len(word), "word": list(word)}
    lines = [_word_str(word)]
    if ns.check:
        # faithful_coding raises unless its two codings agree
        payload["check"] = "ok"
        lines.append("check: ok")
    _emit(ns, payload, lines)
    return EXIT_OK


#: the commands, with the one-line help the full parser lists for each
COMMANDS = {
    "validate": "check the lexicographic conditions",
    "synthesize": "solve for the base of an expansion list",
    "code": "print a faithful coding or S-adic word",
}


def _declarations(command: str) -> tuple:
    """The function of one command, and its (name, add_argument keywords) in help order."""
    if command == "code":
        func, table = cmd_code, [
            ("--directive", {"help": "eta blocks, e.g. '1,1' or '2,2;1,1'"}),
            ("--base", {"nargs": "*", "default": (),
                        "help": "expansion words to synthesize the base from"}),
            ("--len", {"type": int, "required": True, "help": "prefix length"}),
            ("--check", {"action": "store_true",
                         "help": "cross-check the direct and S-adic codings"}),
        ]
    else:
        func = cmd_validate if command == "validate" else cmd_synthesize
        table = [
            ("-p", {"type": int, "required": True, "help": "period"}),
            ("words", {"nargs": "+", "help": "words a_0 a_1 ... as pre(period); '-' reads stdin"}),
        ]
        if command == "synthesize":
            table.append(("--skip-parry", {"action": "store_true"}))
    return func, table + [
        ("--format", {"choices": ("json", "text"), "default": "text"}),
        ("--tol", {"type": int, "default": DEFAULT_PREC, "metavar": "Q",
                   "help": "target enclosure width 2^-Q, Q >= 8"}),
        ("--depth", {"type": int, "default": 16 if command == "code" else None,
                     "help": "suffix depth for validation, table depth for coding"}),
    ]


def _add_arguments(sp: argparse.ArgumentParser, command: str) -> None:
    """Declare the arguments of one command on its subparser."""
    func, table = _declarations(command)
    for name, kwargs in table:
        sp.add_argument(name, **kwargs)
    sp.set_defaults(command=command, func=func)


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _is_option(token: str) -> bool:
    return token[:1] == "-" and token != "-"


def _read(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """argparse's Namespace for a well-formed command line, else None: exact
    spellings as `--opt value`, each at most once, one run of words, values
    that int() and the choices take, and no other token that starts with '-'
    than '-' itself.  Help, errors and all other spellings go to argparse."""
    func, table = _declarations(argv[0])
    declared = dict(table)
    ns = argparse.Namespace(command=argv[0], func=func, **{
        _dest(name): kw.get("default", False if "action" in kw else None) for name, kw in table})
    seen, i = set(), 1
    while i < len(argv):
        name = argv[i] if _is_option(argv[i]) else "words"
        kw = declared.get(name)
        if kw is None or name in seen:
            return None
        seen.add(name)
        start = i = i + (name != "words")
        while i < len(argv) and not _is_option(argv[i]):
            i += 1
        if "action" in kw:  # a flag: any word after it starts the run of words
            i, value = start, True
        elif "nargs" in kw:
            value = list(argv[start:i])
        elif i == start:
            return None
        else:  # one value, and any word after it starts the run of words
            i = start + 1
            try:
                value = kw.get("type", str)(argv[start])
            except ValueError:
                return None
            if "choices" in kw and value not in kw["choices"]:
                return None
        setattr(ns, _dest(name), value)
    required = {name for name, kw in table if kw.get("required") or kw.get("nargs") == "+"}
    return ns if required <= seen else None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altbase",
        description="Parry validation, base synthesis, and B-integer codings "
        "for alternate bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=help_text), command)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # a well-formed command line is read from the declaration table; any
        # other goes to the full parser, built fresh on every call, so every
        # help and error text is argparse's
        ns = _read(argv) if argv and argv[0] in COMMANDS else None
        if ns is None:
            ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for option, least in (("--tol", 8), ("-p", 1), ("--len", 0), ("--depth", 1)):
        value = getattr(ns, _dest(option), None)  # None: not an option of ns.command
        if value is not None and value < least:
            bound = "non-negative" if least == 0 else f"at least {least}"
            sys.stderr.write(f"error: {option} must be {bound}\n")
            return EXIT_PARSE
    try:
        return ns.func(ns)
    except AltBaseError as exc:
        sys.stderr.write(f"error: {exc.prefix}{exc}\n")
        return exc.exit_code
    except (ValueError, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
