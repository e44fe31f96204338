"""Record the sha256 of stdout and the exit code of every request in
tests/stdout_corpus.json, each run in-process through `biops.cli.main`.

    PYTHONPATH=src python3 tests/record_stdout_corpus.py [COMMAND ...]

With command names (`check`, `stationary`, ...) only the entries of those
subcommands are re-recorded; without, every entry is.  A README, pinned
or algebra request that the corpus lacks is added and recorded.  The
requests are the corpus's own argv lists, so a change to the benchmark
decks does not move it.  A change that alters an answer on purpose
re-records it and lists each changed entry in CHANGES.md.  When the
corpus file is absent, the requests are built afresh by `initial_argv`.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from biops.cli import main

CORPUS = Path(__file__).with_name("stdout_corpus.json")
ROOT = Path(__file__).resolve().parent.parent
POINT = ("--alpha", "2/3", "--beta", "3/7")

README = [
    ("L", "e1*e2"),
    ("bimoment", "--n", "3"),
    ("det", "--n", "5"),
    ("poly", "--which", "P", "--n", "3"),
    ("lambda", "--n", "2"),
    ("moments", "--dim", "6"),
    ("represent", "P(1)*Q(1)", "--dim", "6", "--rep", "hat"),
    ("second-moment", "--dim", "6"),
    ("cheb", "--max-n", "6", "--reading", "corrected"),
    ("stationary", "--L", "4", "--alpha", "1/2", "--beta", "1/3"),
    ("stationary", "--L", "4", "--alpha", "1/2", "--beta", "1/3",
     "--symbolic"),
    ("compare", "--L", "5", "--alpha", "2/3", "--beta", "1/4"),
    ("check", "--max-n", "6", "--seed", "0"),
    ("represent", "e1^3000", "--dim", "16"),
    ("represent", "e1^3 - e1^3", "--dim", "6"),
    ("represent", "e1^3 - e1^3", "--dim", "4"),
    ("represent", "0*e2", "--dim", "2"),
    ("represent", "(e1*e2)^0", "--dim", "3"),
]

# the console-script step of .github/workflows/tier1.yml, and the requests
# whose hashes were pinned before the corpus
PINNED = [
    ("check", "--max-n", "6"),
    ("check", "--max-n", "6", "--seed", "1"),
    ("check", "--max-n", "6", "--seed", "2"),
    ("stationary", "--L", "10", "--alpha", "9/4", "--beta", "5/7"),
    ("stationary", "--L", "10", "--alpha", "9/4", "--beta", "5/7",
     "--symbolic"),
    ("stationary", "--L", "9", "--alpha", "7/9", "--beta", "9/4"),
    ("stationary", "--L", "9", "--alpha", "7/9", "--beta", "9/4",
     "--symbolic"),
    ("L", "(e1+e2)^20"),
    ("det", "--n", "12"),
    ("represent", "(e1+e2)^6", "--dim", "10", "--rep", "bar_col"),
    ("bimoment", "--n", "6", "--format", "csv"),
    ("represent", "P(3)*e1*Q(2)", "--dim", "8", "--rep", "bar_row"),
]

# the bi-moment matrix at its smallest and a middle size, the zero
# polynomial, a constant and Horner's rule in every picture, P inside L,
# the printed Chebyshev reading, and a parse error
ALGEBRA = [
    *(("bimoment", "--n", n, *fmt) for n in ("0", "6")
      for fmt in ((), ("--format", "csv"))),
    *(("represent", src, "--dim", dim, "--rep", rep)
      for src, dim in (("P(0)", "2"), ("0", "2"), ("Q(4)", "6"))
      for rep in ("hat", "bar_col", "bar_row")),
    ("L", "P(5)*e1*Q(5)"),
    ("cheb", "--max-n", "8", "--reading", "printed"),
    ("L", "e1*"),
]


def initial_argv():
    """Every `tasep` and `algebra` deck request at seeds 0-2, `stationary`
    at L = 1..14 in JSON and CSV and with `--symbolic` at L <= 12,
    `compare` at L = 3..14, the README examples, the pinned requests and
    the algebra requests, each once, in that order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import decks
    out = [req.payload for seed in range(3)
           for deck in (decks.tasep_deck, decks.algebra_deck)
           for req in deck(seed)]
    for L in range(1, 15):
        size = ("stationary", "--L", str(L), *POINT)
        out += [size, size + ("--format", "csv")]
        if L <= 12:
            out.append(size + ("--symbolic",))
    out += [("compare", "--L", str(L), *POINT) for L in range(3, 15)]
    return list(dict.fromkeys(out + README + PINNED + ALGEBRA))


def record(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv),
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "exit": code}


def main_record(commands):
    if CORPUS.exists():
        entries = json.loads(CORPUS.read_text())
        known = {tuple(entry["argv"]) for entry in entries}
        entries += [{"argv": list(argv)} for argv in
                    dict.fromkeys(README + PINNED + ALGEBRA)
                    if argv not in known]
    else:
        entries = [{"argv": list(argv)} for argv in initial_argv()]
    changed = []
    for i, entry in enumerate(entries):
        if commands and entry["argv"][0] not in commands and "exit" in entry:
            continue
        new = record(entry["argv"])
        if new != entry:
            changed.append(" ".join(entry["argv"]))
        entries[i] = new
    # one entry per line, so a re-recorded entry is a one-line diff
    CORPUS.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
    print(f"{len(entries)} entries, {len(changed)} changed", file=sys.stderr)
    for line in changed:
        print("  " + line, file=sys.stderr)


if __name__ == "__main__":
    main_record(set(sys.argv[1:]))
