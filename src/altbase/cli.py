"""Batch command line: validate word lists, synthesize bases, print codings.

Exit codes: 0 success, 1 failed validation or a failed cross-check, 2 parse
or usage error, 3 depth or window exhausted, 4 undecidable at the working
precision, 5 a violated internal invariant (a defect, never a bad input).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Callable, Optional, Sequence

from .coding import Directive, base_from_directive, faithful_coding, sadic_limit
from .errors import AltBaseError, ParseError
from .numerics import DEFAULT_PREC
from .synthesis import certificate_json, certify, synthesize_periodic
from .words import ExpansionList, ParryReport, check_parry, parse_word

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2


#: the encoder json.dumps(payload, sort_keys=True, separators=(",", ":")) builds per call
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _emit(ns, payload: Callable[[], dict], text_lines: Callable[[], Sequence[str]]) -> None:
    """Print the JSON payload or the text lines; only the one printed is built."""
    if ns.format == "json":
        sys.stdout.write(_JSON.encode(payload()) + "\n")
    else:
        sys.stdout.write("".join(line + "\n" for line in text_lines()))


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
    _emit(ns, lambda: _report_payload(report), lambda: _report_lines(report))
    return EXIT_OK if report.ok else EXIT_INVALID


def _parry_report(ns, lst: ExpansionList, depth: Optional[int]) -> ParryReport:
    """check_parry's report on lst, printed when lst fails Parry."""
    report = check_parry(lst, depth=depth)
    if not report.ok:
        _emit(ns, lambda: _report_payload(report), lambda: _report_lines(report))
    return report


def cmd_synthesize(ns) -> int:
    lst = _parse_list(ns.words, ns.p)
    # every CLI list is ultimately periodic, so --depth leaves the report as certify's
    report = None if ns.skip_parry else _parry_report(ns, lst, ns.depth)
    if report is not None and not report.ok:
        return EXIT_INVALID
    base, _ = synthesize_periodic(lst, tol_bits=ns.tol)
    cert = certify(lst, base, report)

    def lines() -> list[str]:
        out = [f"p = {base.p}"]
        for i in reversed(range(base.p)):
            out.append(f"beta_{i} = {_interval_str(base.betas[i])}")
        out.append("parry: " + ("ok" if all(cert.parry_ok) else "FAIL"))
        out.append(f"uniqueness: {cert.uniqueness}")
        out.append("classification: " + ",".join(cert.classification))
        for i, r in enumerate(cert.residuals):
            out.append(f"residual_{i} = {_interval_str(r)}")
        return out

    _emit(ns, lambda: certificate_json(base, cert), lines)
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
        if not _parry_report(ns, lst, None).ok:
            return EXIT_INVALID
        base, _ = synthesize_periodic(lst, tol_bits=ns.tol)
        word = faithful_coding(base, ns.len, depth=ns.depth)
    payload, footer = {"length": len(word), "word": word}, []
    if ns.check:
        # faithful_coding raises unless its two codings agree
        payload["check"] = "ok"
        footer.append("check: ok")
    _emit(ns, lambda: payload, lambda: [_word_str(word), *footer])
    return EXIT_OK


#: the commands, with the one-line help the full parser lists for each
COMMANDS = {
    "validate": "check the lexicographic conditions",
    "synthesize": "solve for the base of an expansion list",
    "code": "print a faithful coding or S-adic word",
}


def _command_func(command: str) -> Callable:
    """The function of one command, looked up when called."""
    if command == "code":
        return cmd_code
    return cmd_validate if command == "validate" else cmd_synthesize


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


@cache
def _declarations(command: str) -> tuple[dict, dict, frozenset]:
    """One command's arguments, built once per process: (dest, add_argument
    keywords) by name in help order, the default of each dest, and the names
    that must be given."""
    if command == "code":
        table = [
            ("--directive", {"help": "eta blocks, e.g. '1,1' or '2,2;1,1'"}),
            ("--base", {"nargs": "*", "default": (),
                        "help": "expansion words to synthesize the base from"}),
            ("--len", {"type": int, "required": True, "help": "prefix length"}),
            ("--check", {"action": "store_true",
                         "help": "cross-check the direct and S-adic codings"}),
        ]
    else:
        table = [
            ("-p", {"type": int, "required": True, "help": "period"}),
            ("words", {"nargs": "+", "help": "words a_0 a_1 ... as pre(period); '-' reads stdin"}),
        ]
        if command == "synthesize":
            table.append(("--skip-parry", {"action": "store_true"}))
    table += [
        ("--format", {"choices": ("json", "text"), "default": "text"}),
        ("--tol", {"type": int, "default": DEFAULT_PREC, "metavar": "Q",
                   "help": "target enclosure width 2^-Q, Q >= 8"}),
        ("--depth", {"type": int, "default": 16 if command == "code" else None,
                     "help": "suffix depth for validation, table depth for coding"}),
    ]
    defaults = {_dest(name): kw.get("default", False if "action" in kw else None)
                for name, kw in table}
    required = frozenset(name for name, kw in table
                         if kw.get("required") or kw.get("nargs") == "+")
    return {name: (_dest(name), kw) for name, kw in table}, defaults, required


def _add_arguments(sp: argparse.ArgumentParser, command: str) -> None:
    """Declare the arguments of one command on its subparser."""
    for name, (_, kwargs) in _declarations(command)[0].items():
        sp.add_argument(name, **kwargs)
    sp.set_defaults(command=command)


def _read(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """argparse's Namespace for a well-formed command line, else None: exact
    spellings as `--opt value`, each at most once, one run of words, values
    that int() and the choices take, and no other token that starts with '-'
    than '-' itself.  Help, errors and all other spellings go to argparse.
    The command's table comes from _declarations, built once per process."""
    declared, defaults, required = _declarations(argv[0])
    values = dict(defaults, command=argv[0])
    # which tokens are options, and one past the end that stops every run
    option = [token[:1] == "-" and token != "-" for token in argv] + [True]
    seen, i, end = set(), 1, len(argv)
    while i < end:
        name = argv[i] if option[i] else "words"
        if name not in declared or name in seen:
            return None
        dest, kw = declared[name]
        seen.add(name)
        start = i = i + option[i]
        while not option[i]:
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
        values[dest] = value
    if not required <= seen:
        return None
    ns = argparse.Namespace()
    vars(ns).update(values)
    return ns


#: main's bounds: (option, its dest, least value)
_BOUNDS = tuple((option, _dest(option), least)
                for option, least in (("--tol", 8), ("-p", 1), ("--len", 0), ("--depth", 1)))


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
    """Run one command line: a well-formed one is read from the command's
    declaration table, built once per process, with the command's function
    looked up at call time; any other goes to the full parser, built fresh on
    every call, so every help and error text is argparse's."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = _read(argv) if argv and argv[0] in COMMANDS else None
        if ns is None:
            ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    for option, dest, least in _BOUNDS:
        value = getattr(ns, dest, None)  # None: not an option of ns.command
        if value is not None and value < least:
            bound = "non-negative" if least == 0 else f"at least {least}"
            sys.stderr.write(f"error: {option} must be {bound}\n")
            return EXIT_PARSE
    try:
        return _command_func(ns.command)(ns)
    except AltBaseError as exc:
        sys.stderr.write(f"error: {exc.prefix}{exc}\n")
        return exc.exit_code
    except (ValueError, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
