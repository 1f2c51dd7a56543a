#!/usr/bin/env python3
"""Splices bench_output.txt sections into EXPERIMENTS.md placeholders.

Usage: tools/fill_experiments.py [bench_output.txt] [EXPERIMENTS.md]
       tools/fill_experiments.py --check [EXPERIMENTS.md]

The input holds one section per bench, each opened by a line
`### <path>/<binary>`. A placeholder whose section is missing from the
input is left as it is, so a partial sweep fills only what it ran. Exits
1 while any placeholder stays unfilled.

--check reads no bench output and changes nothing: it lists the
placeholders EXPERIMENTS.md still holds and exits 1 if there are any.
"""
import re
import sys

MAPPING = {
    "FIG5A": "fig5a_tpcw_scalability",
    "FIG5B": "fig5b_tpcw_tail",
    "FIG5C": "fig5c_learning_over_time",
    "FIG6": "fig6_tpcc_scalability",
    "FIG7": "fig7_workload_shift",
    "FIG8A": "fig8a_geo_local",
    "FIG8B": "fig8b_geo_moderate",
    "FIG8C": "fig8c_multi_instance",
    "OVERHEAD": "overhead_stats",
    "SENS_DT_TAU": "sens_dt_tau",
    "SENS_ALPHA": "sens_alpha",
    "ABLATION": "ablation_features",
    "SKEW": "ablation_skew",
    "MICRO": "micro_core",
}


def unfilled(md: str) -> list:
    return re.findall(r"<<<(\w+)>>>", md)


def check(md_path: str) -> int:
    with open(md_path) as f:
        missing = unfilled(f.read())
    for tag in missing:
        print("unfilled placeholder: <<<%s>>>" % tag)
    if missing:
        return 1
    print("%s: no placeholders left" % md_path)
    return 0


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "--check":
        return check(sys.argv[2] if len(sys.argv) > 2 else "EXPERIMENTS.md")
    bench_path = sys.argv[1] if len(sys.argv) > 1 else "bench_output.txt"
    md_path = sys.argv[2] if len(sys.argv) > 2 else "EXPERIMENTS.md"

    with open(bench_path) as f:
        out = f.read()

    sections = {}
    current = None
    for line in out.splitlines():
        m = re.match(r"^### .*/(\w+)$", line)
        if m:
            current = m.group(1)
            sections[current] = []
            continue
        if line.startswith("WARNING") or line == "SWEEP_DONE":
            continue
        if current:
            sections[current].append(line)

    with open(md_path) as f:
        md = f.read()

    for tag, binary in MAPPING.items():
        if binary in sections:
            body = "\n".join(sections[binary]).strip()
            md = md.replace("<<<%s>>>" % tag, body)

    with open(md_path, "w") as f:
        f.write(md)
    missing = unfilled(md)
    if missing:
        print("unfilled placeholders:", missing)
        return 1
    print("EXPERIMENTS.md filled")
    return 0


if __name__ == "__main__":
    sys.exit(main())
