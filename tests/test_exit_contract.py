"""The exit contract on generated command lines.

From a fixed seed, a few hundred argv lists are drawn from the parser's
grammar: every subcommand with valid, boundary, non-finite and malformed
values for its options, a config file or ``CFTINV_DPS`` now and then, and
unknown or incomplete options.  Each goes through ``main`` with the
expensive work replaced after validation: the series builds and the Fock
ratio kernel raise :class:`Stub`, a verification failure, and every
``verify`` and ``lab`` task writes one PASS row, so the batteries still run
on their lanes.  The contract: the exit code is 0, 1 or 2, ``main`` never
raises, and a failure writes exactly one JSON line on stderr whose ``exit``
is the code.
"""

import json
import os
import random

import pytest

from cftinv import characters, fock, verify
from cftinv.cli import main
from cftinv.errors import ToolkitError


class Stub(ToolkitError):
    """Raised where the expensive work would start."""


def stub(*args, **kwargs):
    raise Stub("stub")


def passing(b):
    b.check("stub", 0, 0)


#: option -> (valid values, boundary ones included; invalid values)
POOLS = {
    "--m": (["3", "4", "5"], ["2", "0", "-1", "x", "3.5", "", "nan", "1e3"]),
    "--sector": (["vacuum", "1/16", "1/2", "3/5", "3/2", "99"],
                 ["0", "1/0", "x", "", "nan", "inf", "-1/2", "1/2/3",
                  "1e400", "1e99999999"]),
    "--grid": (["0.1:1:3", "0.01:1:3:log", "1:1:1", "1:1:3",
                "0.5:2:2:linear", "1e-400:1e-399:2", "1e400:1e401:2:log",
                "1e-99999:1:3:log", "0.004:0.012:5"],
               ["0:1:3", "0:1:3:log", "-1:1:3", "1:0.1:3", "0.1:1:0",
                "0.1:1:-2", "0.1:1:1001", "0.1:1", "0.1:1:2:3:4", "a:b:c",
                "0.1:1:2.5", "0.1:1:3:cubic", "nan:1:3", "0.1:inf:3",
                "-inf:1:2", ""]),
    "--precision": (["30", "50", "500"],
                    ["29", "501", "0", "-5", "x", "nan", "1e2", ""]),
    "--cutoff": (["10", "50", "40000"], ["9", "40001", "0", "x", "nan", ""]),
    "--seed": (["0", "42", "-1", str(10 ** 30)], ["x", "1.5", ""]),
    "--format": (["json", "csv", "text"], ["xml", ""]),
    "--dims": (["2,2,2", "1,1,1", "4,4,4", "1,2,3", "2,3,4"],
               ["5,13,1", "0,1,1", "2,3", "2,3,2,1", "a,b,c", "2,,3",
                "-1,2,3", "nan,1,1", ""]),
    "--mass": (["1", "0.5", "1e400", "1e-400"],
               ["0", "-1", "nan", "inf", "x", ""]),
}
POOLS["--area"] = POOLS["--central-charge"] = POOLS["--mass"]

COMMON = ["--m", "--sector", "--grid", "--precision", "--cutoff", "--seed",
          "--output", "--format"]
OPTIONS = {
    "model": COMMON, "characters": COMMON + ["--dump"],
    "invariants": COMMON, "fock": COMMON, "lab": COMMON + ["--dims"],
    "verify": COMMON + ["--dims", "--all", "--modular", "--characters",
                        "--virasoro", "--fock", "--appendix-c", "--bridge",
                        "--corrupt-sign"],
    "bh": COMMON,
}
FLAGS = {"--dump", "--all", "--modular", "--characters", "--virasoro",
         "--fock", "--appendix-c", "--bridge", "--corrupt-sign"}
BH = ["--mass", "--area", "--central-charge"]


def value(rng, option, bad):
    valid, invalid = POOLS[option]
    return rng.choice(invalid if bad else valid)


def draw(rng, tmp_path, k):
    """One case: (argv, environment value of CFTINV_DPS or None).  The
    options take valid values, except, in half the cases, one of them."""
    command = rng.choice(sorted(OPTIONS))
    chosen = [o for o in OPTIONS[command] if rng.random() < 0.35]
    if command == "bh":
        chosen += rng.sample(BH, rng.choice([1, 1, 1, 0, 2]))
    bad = rng.choice(chosen) if chosen and rng.random() < 0.5 else None
    argv = []
    if rng.random() < 0.15:
        path = tmp_path / f"cfg{k}"
        lines = []
        for _ in range(rng.randint(0, 3)):
            key = rng.choice(["m", "sector", "grid", "precision", "cutoff",
                              "seed", "format", "dims"])
            text = value(rng, f"--{key}", rng.random() < 0.3)
            lines.append(rng.choice([f"{key} = {text}"] * 4
                                    + [f"{key} {text}", f"bogus = {text}",
                                       f"# {key}"]))
        path.write_text("\n".join(lines) + "\n")
        argv += ["--config", str(path if rng.random() < 0.9
                                 else tmp_path / "none")]
    argv.append(command)
    for option in chosen:
        if option in FLAGS:
            argv.append(option)
        elif option == "--output":
            argv += [option, str(tmp_path / f"out{k}.json") if option != bad
                     else rng.choice([str(tmp_path / "no" / "x.json"),
                                      str(tmp_path)])]
        else:
            argv += [option, value(rng, option, option == bad)]
    roll = rng.random()
    if roll < 0.04:
        argv.append("--bogus")
    elif roll < 0.08:
        argv.append(rng.choice([o for o in OPTIONS[command] if o not in FLAGS]))
    elif roll < 0.1:
        argv.append("extra")
    env = (value(rng, "--precision", rng.random() < 0.5)
           if rng.random() < 0.1 else None)
    return argv, env


@pytest.fixture
def cheap(monkeypatch):
    """The expensive work replaced, after validation (module docstring)."""
    monkeypatch.setattr(characters, "all_character_series", stub)
    monkeypatch.setattr(characters, "character_coeffs", stub)
    monkeypatch.setattr(fock, "fermi_ratio_scan", stub)
    for name in verify.BATTERIES:
        monkeypatch.setitem(verify.BATTERIES, name,
                            lambda cfg, md, corrupt: [passing, passing])
    monkeypatch.setattr(verify, "_appendix_c_tasks",
                        lambda dims, seed: [passing] * 7)


def test_generated_command_lines_keep_the_exit_contract(cheap, monkeypatch,
                                                        capsys, tmp_path):
    rng = random.Random(20261020)
    breaches = []
    codes = set()
    for k in range(400):
        argv, env = draw(rng, tmp_path, k)
        if env is None:
            monkeypatch.delenv("CFTINV_DPS", raising=False)
        else:
            monkeypatch.setenv("CFTINV_DPS", env)
        try:
            code = main(argv)
        except BaseException as exc:      # a traceback, or argparse's exit
            capsys.readouterr()
            breaches.append((argv, env, repr(exc)))
            continue
        out, err = capsys.readouterr()
        codes.add(code)
        if code not in (0, 1, 2):
            breaches.append((argv, env, f"exit {code}"))
        elif code == 0 and err:
            breaches.append((argv, env, f"exit 0 with stderr {err!r}"))
        elif code:
            lines = err.splitlines()
            try:
                ok = len(lines) == 1 and json.loads(lines[0])["exit"] == code
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                breaches.append((argv, env, f"exit {code}, stderr {err!r}"))
    assert not breaches, "\n".join(map(str, breaches))
    assert codes == {0, 1, 2}
    with pytest.raises(ChildProcessError):      # every forked lane reaped
        os.waitpid(-1, os.WNOHANG)
