"""The parser's own text, byte for byte: ``--help`` of the command and of
each subcommand, and argparse's usage errors.  The texts were recorded from
the parser that built all ten subparsers on every call, with 80 columns.

Python 3.13 wraps the command's usage line after the list of subcommands
without a line break before the trailing ``...``; earlier versions break
there.
"""

import argparse
import sys

import pytest

from cremlat.cli import COMMANDS, build_parser
from test_cli import child, run

CHOICES = ("{classify-number,salem-enum,weyl-eval,weyl-normalize,spectrum,reduce,"
           "realizable,fk-spectrum,degseq,bounds}")
USAGE = (f"usage: cremlat [-h]\n               {CHOICES}"
         + (" ...\n" if sys.version_info >= (3, 13) else "\n               ...\n"))

# argv -> (exit code, stdout, stderr)
TEXT = {
    ('--help',): (0, USAGE + """\

exact lattice dynamics of plane birational transformations

positional arguments:
  {classify-number,salem-enum,weyl-eval,weyl-normalize,spectrum,reduce,realizable,fk-spectrum,degseq,bounds}
    classify-number     classify a monic integer polynomial
    salem-enum          exhaustive bounded Salem search
    weyl-eval           realize a word and print its degree data
    weyl-normalize      rewrite a word with increasing degrees
    spectrum            spectral report of a word
    reduce              degree reduction loop, one JSON line per step
    realizable          base-point realizability of a configuration
    fk-spectrum         truncated-orbit spectral radii
    degseq              degree sequence of a coordinate triple
    bounds              explicit bound formulas

options:
  -h, --help            show this help message and exit
""", ""),
    (): (2, "", USAGE + """\
cremlat: error: the following arguments are required: command
"""),
    ('classify-number', '--help'): (0, """\
usage: cremlat classify-number [-h] polynomial

positional arguments:
  polynomial

options:
  -h, --help  show this help message and exit
""", ""),
    ('salem-enum', '--help'): (0, """\
usage: cremlat salem-enum [-h] --degree-bound DEGREE_BOUND --upper UPPER

options:
  -h, --help            show this help message and exit
  --degree-bound DEGREE_BOUND
  --upper UPPER
""", ""),
    ('weyl-eval', '--help'): (0, """\
usage: cremlat weyl-eval [-h] word

positional arguments:
  word

options:
  -h, --help  show this help message and exit
""", ""),
    ('weyl-normalize', '--help'): (0, """\
usage: cremlat weyl-normalize [-h] [--vector VECTOR] word

positional arguments:
  word

options:
  -h, --help       show this help message and exit
  --vector VECTOR
""", ""),
    ('spectrum', '--help'): (0, """\
usage: cremlat spectrum [-h] word

positional arguments:
  word

options:
  -h, --help  show this help message and exit
""", ""),
    ('reduce', '--help'): (0, """\
usage: cremlat reduce [-h] [--budget BUDGET] word

positional arguments:
  word

options:
  -h, --help       show this help message and exit
  --budget BUDGET
""", ""),
    ('realizable', '--help'): (0, """\
usage: cremlat realizable [-h] --config CONFIG --m M

options:
  -h, --help       show this help message and exit
  --config CONFIG  JSON file, or - for stdin
  --m M
""", ""),
    ('fk-spectrum', '--help'): (0, """\
usage: cremlat fk-spectrum [-h] --m M --kmax KMAX

options:
  -h, --help   show this help message and exit
  --m M
  --kmax KMAX
""", ""),
    ('degseq', '--help'): (0, """\
usage: cremlat degseq [-h] [--map MAP] [--monomial MONOMIAL] [-n N]
                      [--prime-field]

options:
  -h, --help           show this help message and exit
  --map MAP            triple like [y*z : z*x : x*y]
  --monomial MONOMIAL  a,b,c,d exponent matrix entries
  -n N
  --prime-field
""", ""),
    ('bounds', '--help'): (0, """\
usage: cremlat bounds [-h] [--lam LAM] [--degrees DEGREES DEGREES]

options:
  -h, --help            show this help message and exit
  --lam LAM             dynamical degree (rational or decimal)
  --degrees DEGREES DEGREES
                        two degrees for the conjugator bound
""", ""),
    ('frobnicate',): (2, "", USAGE + """\
cremlat: error: argument command: invalid choice: 'frobnicate' (choose from 'classify-number', 'salem-enum', 'weyl-eval', 'weyl-normalize', 'spectrum', 'reduce', 'realizable', 'fk-spectrum', 'degseq', 'bounds')
"""),
    ('spectrum',): (2, "", """\
usage: cremlat spectrum [-h] word
cremlat spectrum: error: the following arguments are required: word
"""),
    ('salem-enum', '--upper', '1.3'): (2, "", """\
usage: cremlat salem-enum [-h] --degree-bound DEGREE_BOUND --upper UPPER
cremlat salem-enum: error: the following arguments are required: --degree-bound
"""),
    ('spectrum', 'q(a,b,c)', '--bogus'): (2, "", USAGE + """\
cremlat: error: unrecognized arguments: --bogus
"""),
    ('bounds', '--lam'): (2, "", """\
usage: cremlat bounds [-h] [--lam LAM] [--degrees DEGREES DEGREES]
cremlat bounds: error: argument --lam: expected one argument
"""),
}


@pytest.fixture(autouse=True)
def eighty_columns(monkeypatch):
    """argparse wraps its text to the terminal width, read from COLUMNS."""
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("argv", TEXT, ids=[" ".join(argv) or "no-arguments" for argv in TEXT])
def test_parser_text(capsys, argv):
    assert run(capsys, *argv) == TEXT[argv]


def test_no_arguments_in_a_fresh_interpreter(monkeypatch):
    """main() with no argv reads sys.argv, where the command is not named."""
    proc = child("-m", "cremlat.cli")
    assert (proc.returncode, proc.stdout, proc.stderr) == TEXT[()]


def test_a_named_command_builds_only_its_subparser():
    def built(argv):
        (sub,) = [a for a in build_parser(argv)._actions
                  if isinstance(a, argparse._SubParsersAction)]
        return list(sub.choices)

    assert built(("spectrum", "q(a,b,c)")) == ["spectrum"]
    assert built(()) == built(("--help",)) == built(("frobnicate",)) == list(COMMANDS)
