"""Record the seed-0 output of every benchmark command into bench/golden/.

Usage, from the root of a checkout: python3 bench/record_golden.py

Outputs are byte-stable by contract, so re-record only when a change to the
program's output is intended, and say so in the change.
"""

import sys
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import corpus
    import harness

    runner = harness.Runner(root, 0)
    commands = {c.key: c for cmds in corpus.WORKLOADS.values() for c in cmds}
    commands[corpus.SETUP_COMMAND.key] = corpus.SETUP_COMMAND
    corpus.GOLDEN_DIR.mkdir(exist_ok=True)
    for key, command in sorted(commands.items()):
        outcome = runner.execute(command)
        if outcome.error:
            print(f"{key}: {outcome.error}", file=sys.stderr)
            return 1
        (corpus.GOLDEN_DIR / f"{key}.json").write_bytes(outcome.stdout)
        print(f"{key}: {len(outcome.stdout)} bytes, {outcome.wall_s:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
