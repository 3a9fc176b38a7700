"""Write expected_exact.json: the stored CLI output the exact workload checks.

Run from the repository root after a change that is meant to alter exact
output:

    PYTHONPATH=src python3 perfbench/make_expected.py

Every argv in the exact pool is run twice; the script refuses to write when
the two runs differ or an exit code breaks the expected-code rule.
"""

import json
import sys

import workloads


def main():
    entries = []
    for argv in workloads.EXACT_POOL:
        first = workloads.run_cli(argv)
        if workloads.run_cli(argv) != first:
            sys.exit(f"output of {argv} differs between runs")
        code, text = first
        if code != workloads.expected_code(argv):
            sys.exit(f"{argv} exited {code}, expected {workloads.expected_code(argv)}")
        entries.append({"argv": argv, "doc": json.loads(text)})
    with open(workloads.EXPECTED_EXACT, "w") as fh:
        json.dump(entries, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(entries)} entries to {workloads.EXPECTED_EXACT}")


if __name__ == "__main__":
    main()
